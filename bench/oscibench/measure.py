"""Set-up, the timed closed loop, the traced loop and their metrics.

All commands go through ``oscibath.cli.main`` in this process, one at a
time (a closed loop with one client).  End-to-end metrics come from
untraced commands only; the traced loop pairs every traced command with an
untraced run of the same command, which gives the tracing overhead.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import ModuleType

from .checks import ItemCheck, count_mismatches
from .tracing import LAYERS, Span, Tracer, count_record, layer_self_times
from .workloads import Command, Plan, Workload

SETUP_REPEATS = 3


def run_cli(cli: ModuleType, argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; return (exit code, captured stdout).

    ``cli.main`` is looked up on every call so that an installed tracer's
    wrapper is the one that runs.  A crash counts as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue()


@dataclass
class Outcome:
    """Checks, timings and trace data gathered over one benchmark run."""

    checks: list[ItemCheck] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    items: int = 0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    spans: list[Span] = field(default_factory=list)
    records: dict[str, dict] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def max_drift(self) -> float:
        return max((c.drift for c in self.checks if c.drift is not None),
                   default=0.0)


def set_up(workload: Workload, root: Path, seed: int, cli: ModuleType,
           outcome: Outcome, repeats: int = SETUP_REPEATS) -> Plan:
    """Build the inputs and run the warm-up ``repeats`` times from scratch.

    Each repeat gets a fresh directory and its time lands in
    ``outcome.setup_s``; the checks of what it wrote run after its clock
    stops.  The last repeat's plan is the one measured.
    """
    plan = None
    for r in range(repeats):
        start = perf_counter()
        directory = root / f"setup_{r}"
        directory.mkdir(parents=True)
        plan = workload.build(directory, seed, lambda argv: run_cli(cli, argv))
        code, stdout = run_cli(cli, plan.warmup.argv)
        outcome.setup_s.append(perf_counter() - start)
        outcome.checks += plan.verify_setup() + plan.warmup.check(code, stdout)
    return plan


def _timed(cli: ModuleType, command: Command, outcome: Outcome) -> float:
    cpu = process_time()
    start = perf_counter()
    code, stdout = run_cli(cli, command.argv)
    elapsed = perf_counter() - start
    outcome.cpu_s += process_time() - cpu
    outcome.checks += command.check(code, stdout)
    return elapsed


def timed_loop(plan: Plan, cli: ModuleType, seconds: float,
               outcome: Outcome) -> None:
    """Cycle through whole passes of the plan until ``seconds`` of command time."""
    k = 0
    while k % len(plan.commands) or not k or sum(outcome.durations) < seconds:
        command = plan.commands[k % len(plan.commands)]
        outcome.durations.append(_timed(cli, command, outcome))
        outcome.items += command.items
        k += 1


def traced_loop(plan: Plan, cli: ModuleType, seconds: float,
                outcome: Outcome) -> None:
    """Run each command untraced and traced, in alternating order.

    Whole passes are made until the paired runs have taken ``seconds``.
    The first traced run of each command gives its exact count record;
    later traced runs of the same command must reproduce it.
    """
    k = 0
    while (k % len(plan.commands) or not k
           or outcome.traced_s + outcome.untraced_s < seconds):
        command = plan.commands[k % len(plan.commands)]
        tracer = Tracer()
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(cli):
                    outcome.traced_s += _timed(cli, command, outcome)
            else:
                outcome.untraced_s += _timed(cli, command, outcome)
        outcome.items += command.items
        outcome.spans += tracer.spans
        record = count_record(tracer.spans)
        if command.key not in outcome.records:
            outcome.records[command.key] = record
        elif outcome.records[command.key] != record:
            outcome.mismatches.append(f"{command.key} (repeat in this run)")
        k += 1


def compare_with_stored(records: dict, path: Path) -> list[str]:
    """Compare count records with an earlier run's; store them if none."""
    if path.is_file():
        stored = json.loads(path.read_text(encoding="utf-8"))
        return [f"{key} (earlier run)" for key in count_mismatches(stored, records)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, sort_keys=True), encoding="utf-8")
    return []


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(outcome: Outcome, import_s: float) -> dict[str, tuple[float, str]]:
    timed_s = sum(outcome.durations)
    return {
        "setup_s": (import_s + statistics.median(outcome.setup_s), "s"),
        "items_per_s": (outcome.items / timed_s, "1/s"),
        "cpu_s_per_item": (outcome.cpu_s / outcome.items, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(outcome: Outcome, plan: Plan) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced loop, per item unless named otherwise.

    Times are means over every traced command.  Counts come from the first
    traced pass over the plan's distinct commands, so they are exact for a
    seed.  A layer the workload bypasses reports 0.
    """
    spans = outcome.spans
    items = outcome.items
    distinct_items = sum(c.items for c in plan.commands)

    def total(key: str) -> int:
        return sum(sum(r[key]) for r in outcome.records.values())

    def busy(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    layer_self = layer_self_times(spans)
    rhs = total("rhs_evals")
    accepted, rejected = total("steps_accepted"), total("steps_rejected")
    provider_calls = sum(s.provider_calls for s in spans)
    provider_s = sum(s.provider_s for s in spans)
    traced_rhs = sum(s.info["rhs_evals"] for s in spans if "rhs_evals" in s.info)
    write_bytes = sum(s.info["bytes"] for s in spans
                      if s.name == "write_timeseries_csv" and "bytes" in s.info)
    read_bytes = sum(s.info["bytes"] for s in spans
                     if s.name == "read_timeseries_csv" and "bytes" in s.info)
    write_s = busy("write_timeseries_csv")
    read_s = busy("read_timeseries_csv")
    scenario = [s for s in spans if s.layer == "scenario"]
    return {
        "cli.self_s": (layer_self["cli"] / items, "s"),
        "scenario.build_s": (sum(s.duration for s in scenario) / items, "s"),
        "scenario.calls": (len(scenario) / items, "count"),
        "coefficients.make_s": (busy("make_provider") / items, "s"),
        "coefficients.calls": (total("coefficient_calls") / distinct_items, "count"),
        "coefficients.busy_s": (provider_s / items, "s"),
        "coefficients.us_per_call": (1e6 * _ratio(provider_s, provider_calls), "us"),
        "integrator.self_s": (layer_self["integrator"] / items, "s"),
        "integrator.us_per_rhs": (1e6 * _ratio(busy("integrate_coupled"), traced_rhs), "us"),
        "integrator.rhs_evals": (rhs / distinct_items, "count"),
        "integrator.steps_accepted": (accepted / distinct_items, "count"),
        "integrator.steps_rejected": (rejected / distinct_items, "count"),
        "integrator.accept_ratio": (_ratio(accepted, accepted + rejected), "ratio"),
        "integrator.invariant_drift": (outcome.max_drift, "ratio"),
        "csvio.write_s": (write_s / items, "s"),
        "csvio.write_bytes": (total("write_bytes") / distinct_items, "B"),
        "csvio.write_mb_per_s": (1e-6 * _ratio(write_bytes, write_s), "MB/s"),
        "csvio.read_s": (read_s / items, "s"),
        "csvio.read_bytes": (total("read_bytes") / distinct_items, "B"),
        "csvio.read_mb_per_s": (1e-6 * _ratio(read_bytes, read_s), "MB/s"),
        "analysis.period_s": (busy("extract_period") / items, "s"),
        "analysis.envelope_s": (busy("envelope") / items, "s"),
        "analysis.sync_s": (busy("synchronization_metrics") / items, "s"),
        "analysis.calls": (total("analysis_calls") / distinct_items, "count"),
        "analysis.errors": (total("analysis_errors") / distinct_items, "count"),
        "trace.overhead_frac": (_ratio(outcome.traced_s, outcome.untraced_s) - 1.0, "ratio"),
    }


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's share of the traced self time."""
    self_times = layer_self_times(spans)
    whole = sum(self_times.values())
    return {layer: _ratio(self_times[layer], whole) for layer in LAYERS}
