"""Outside-in tracing of the oscibath pipeline.

The tracer replaces, for the duration of one traced command, every public
function that ``oscibath.cli`` imported from another oscibath module, plus
``cli.main`` itself, with a wrapper that records a span: layer (the
defining module), function name, start, end and parent span.  Providers
returned by ``make_provider`` are wrapped in a proxy that times each call
and charges it to the enclosing span, so provider calls are aggregated as
counts and busy time rather than stored one span each.  Spans stay in
memory; nothing under ``src/`` is modified.

A span's self time is its duration minus the time covered by its child
spans and by the provider calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType

LAYERS = ("cli", "scenario", "coefficients", "integrator", "csvio", "analysis")


@dataclass
class Span:
    layer: str
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    provider_calls: int = 0
    provider_s: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class ProviderProxy:
    """Times each call of a coefficient provider; forwards ``describe``."""

    def __init__(self, provider, tracer: "Tracer"):
        self._provider = provider
        self._tracer = tracer

    def __call__(self, t):
        start = perf_counter()
        try:
            return self._provider(t)
        finally:
            elapsed = perf_counter() - start
            span = self._tracer.current
            span.child_s += elapsed
            span.provider_calls += 1
            span.provider_s += elapsed

    def describe(self):
        return self._provider.describe()


def _after_make_provider(tracer, span, args, result):
    return ProviderProxy(result, tracer)


def _after_integrate(tracer, span, args, result):
    diag = result.diagnostics
    span.info.update(steps_accepted=int(diag["steps_accepted"]),
                     steps_rejected=int(diag["steps_rejected"]),
                     rhs_evals=int(diag["rhs_evaluations"]))
    return result


def _after_write(tracer, span, args, result):
    span.info["bytes"] = os.path.getsize(args[1])
    return result


def _after_read(tracer, span, args, result):
    span.info["bytes"] = os.path.getsize(args[0])
    return result


_AFTER = {
    "make_provider": _after_make_provider,
    "integrate_coupled": _after_integrate,
    "write_timeseries_csv": _after_write,
    "read_timeseries_csv": _after_read,
}


class Tracer:
    """Collects spans of the commands run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def _wrap(self, layer: str, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            return after(self, span, args, result) if after else result
        return traced

    @staticmethod
    def targets(cli: ModuleType) -> dict[str, tuple[str, object]]:
        """name -> (layer, function) of everything the tracer wraps in ``cli``."""
        package = cli.__name__.rsplit(".", 1)[0]
        found = {"main": ("cli", cli.main)}
        for name, obj in vars(cli).items():
            module = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and module.startswith(package + ".")
                    and module != cli.__name__):
                found[name] = (module.rsplit(".", 1)[1], obj)
        return found

    @contextmanager
    def installed(self, cli: ModuleType):
        """Wrap the targets in ``cli``; restore the originals on exit."""
        targets = self.targets(cli)
        try:
            for name, (layer, fn) in targets.items():
                setattr(cli, name, self._wrap(layer, name, fn))
            yield self
        finally:
            for name, (_, fn) in targets.items():
                setattr(cli, name, fn)


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer; provider calls count to ``coefficients``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.self_s
        totals["coefficients"] += span.provider_s
    return totals


def count_record(spans: list[Span]) -> dict[str, list[int]]:
    """Exact per-item counts of one command, in call order."""
    integrate = [s for s in spans if s.name == "integrate_coupled" and not s.error]
    return {
        "rhs_evals": [s.info["rhs_evals"] for s in integrate],
        "steps_accepted": [s.info["steps_accepted"] for s in integrate],
        "steps_rejected": [s.info["steps_rejected"] for s in integrate],
        "coefficient_calls": [s.provider_calls for s in integrate],
        "write_bytes": [s.info["bytes"] for s in spans
                        if s.name == "write_timeseries_csv" and not s.error],
        "read_bytes": [s.info["bytes"] for s in spans
                       if s.name == "read_timeseries_csv" and not s.error],
        "analysis_calls": [sum(1 for s in spans if s.layer == "analysis")],
        "analysis_errors": [sum(1 for s in spans
                                if s.layer == "analysis" and s.error)],
    }
