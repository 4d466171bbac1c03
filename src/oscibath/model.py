"""Domain types and configuration validation.

Everything downstream (coefficient providers, integrator, analysis, CLI)
exchanges the types defined here; a run's samples travel as one
``TimeSeries`` from the integrator through the CSV writer and reader to the
analysis.  Conventions: all quantities are
dimensionless, times in units of the inverse reference frequency, oscillator
frequencies in units of the reference frequency, pairwise couplings in units
of the reference frequency squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, NamedTuple

import numpy as np

__all__ = [
    "InvalidConfig",
    "BathStatistics",
    "OscillatorSpec",
    "BathSpec",
    "CoefficientSample",
    "CouplingNetwork",
    "ProviderConfig",
    "SimulationConfig",
    "TimeSeries",
]

#: Relative asymmetry of the coupling matrix that is silently symmetrized
#: by averaging; anything larger is rejected.
SYMMETRY_SLACK = 1e-12

#: Allowed drift of the output grid spacing, relative to the nominal step.
GRID_SLACK = 1e-9


class InvalidConfig(ValueError):
    """A configuration field violates an invariant; the message names it."""


class BathStatistics(str, Enum):
    FERMIONIC = "fermionic"
    BOSONIC = "bosonic"


@dataclass(frozen=True)
class OscillatorSpec:
    """One oscillator: renormalized frequency and initial occupation state.

    ``omega`` is the renormalized angular frequency (> 0), ``n0`` the initial
    occupation number (>= 0), and ``v0`` the initial rate dn/dt.
    """

    omega: float
    n0: float = 0.0
    v0: float = 0.0


@dataclass(frozen=True)
class BathSpec:
    """Metadata describing one heat bath.

    The artifact never derives friction/diffusion curves from these numbers;
    they travel with configs so tabulated or external coefficient providers
    can be keyed to the bath they were computed for.

    ``temperature`` is kT over (hbar times the reference frequency),
    ``coupling`` the dimensionless system-bath strength, ``cutoff`` the
    inverse memory time in units of the reference frequency.
    """

    statistics: BathStatistics
    temperature: float
    coupling: float
    cutoff: float


class CoefficientSample(NamedTuple):
    """Friction and diffusion coefficients and their time derivatives.

    Each field is a float for a scalar time, or an array shaped like the
    time array a provider was called with.  All values must be finite;
    providers guarantee this by construction and the integrator aborts on
    any non-finite right-hand side.
    """

    friction: float | np.ndarray
    diffusion: float | np.ndarray
    dfriction_dt: float | np.ndarray
    ddiffusion_dt: float | np.ndarray


@dataclass(frozen=True, eq=False)
class CouplingNetwork:
    """Symmetric pairwise coupling strengths between the oscillators.

    ``beta[i][j]`` couples oscillators i and j (units: reference frequency
    squared); the diagonal is zero.  Stored dense: the intended sizes are
    small (N up to ~100).
    """

    n: int
    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float, copy=True)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingNetwork):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.beta, other.beta)

    @classmethod
    def none(cls, n: int) -> "CouplingNetwork":
        """No coupling between any pair."""
        return cls(n=n, beta=np.zeros((n, n)))

    @classmethod
    def uniform(cls, n: int, beta: float) -> "CouplingNetwork":
        """The same coupling strength for every pair."""
        mat = np.full((n, n), float(beta))
        np.fill_diagonal(mat, 0.0)
        return cls(n=n, beta=mat)

    @property
    def laplacian(self) -> np.ndarray:
        """The graph Laplacian ``L = diag(row sums of beta) - beta``.

        ``(L n)_i = sum_j beta_ij (n_i - n_j)``: the coupling term of the
        equations of motion, and the normal-mode matrix of the network.
        """
        return np.diag(self.beta.sum(axis=1)) - self.beta


@dataclass(frozen=True)
class ProviderConfig:
    """Declarative description of one oscillator's coefficient provider.

    ``kind`` is one of ``constant``, ``phenomenological``, ``tabulated`` (or
    ``custom`` for providers supplied programmatically).  ``params`` holds the
    kind-specific keys; it is stored as a sorted tuple of pairs so equal
    configs compare equal and serialize the same.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted(tuple(p) for p in params))
        object.__setattr__(self, "params", params)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidConfig(message)


KNOWN_PROVIDER_KINDS = ("constant", "phenomenological", "tabulated", "custom")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one run: oscillators, providers, coupling, integration.

    A config checks every invariant when built (``dataclasses.replace``
    included) and raises InvalidConfig naming the first one violated.  Two
    normalizations happen in place: a coupling matrix whose relative
    asymmetry is at most SYMMETRY_SLACK is symmetrized by averaging (larger
    asymmetry is an error), and baths that are all empty become ``()``.
    """

    oscillators: tuple[OscillatorSpec, ...]
    provider_config: tuple[ProviderConfig, ...]
    coupling: CouplingNetwork
    t_end: float
    output_dt: float = 0.01
    rtol: float = 1e-9
    atol: float = 1e-12
    baths: tuple[tuple[BathSpec, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "oscillators", tuple(self.oscillators))
        object.__setattr__(self, "provider_config", tuple(self.provider_config))
        object.__setattr__(self, "baths", tuple(tuple(b) for b in self.baths))

        n = len(self.oscillators)
        _require(n >= 1, "no oscillators")

        for i, osc in enumerate(self.oscillators, start=1):
            where = f"oscillator {i}: "
            _require(math.isfinite(osc.omega) and osc.omega > 0, where + "omega not positive")
            _require(math.isfinite(osc.n0) and osc.n0 >= 0, where + "n0 negative")
            _require(math.isfinite(osc.v0), where + "v0 not finite")

        _require(len(self.provider_config) == n, "provider_config count mismatch")
        for i, pc in enumerate(self.provider_config, start=1):
            _require(
                pc.kind in KNOWN_PROVIDER_KINDS,
                f"coefficients {i}: unknown kind '{pc.kind}'",
            )

        if self.baths:
            _require(len(self.baths) == n, "baths count mismatch")
            # A scenario file cannot say "no baths" per oscillator, so all
            # empty is no baths.
            if not any(self.baths):
                object.__setattr__(self, "baths", ())
            for i, baths in enumerate(self.baths, start=1):
                for j, bath in enumerate(baths, start=1):
                    where = f"bath {i} {j}: "
                    _require(isinstance(bath.statistics, BathStatistics),
                             where + "statistics must be fermionic or bosonic")
                    _require(math.isfinite(bath.temperature) and bath.temperature >= 0,
                             where + "temperature negative")
                    _require(math.isfinite(bath.coupling) and bath.coupling > 0,
                             where + "coupling not positive")
                    _require(math.isfinite(bath.cutoff) and bath.cutoff > 0,
                             where + "cutoff not positive")

        beta = self.coupling.beta
        _require(self.coupling.n == n, "coupling size does not match oscillator count")
        _require(beta.shape == (n, n), "beta not an n-by-n matrix")
        _require(bool(np.isfinite(beta).all()), "beta not finite")
        _require(bool((np.diag(beta) == 0).all()), "beta diagonal not zero")
        _require(bool((beta >= 0).all()), "beta negative")

        asym = np.abs(beta - beta.T).max() if n > 1 else 0.0
        scale = max(float(np.abs(beta).max()), 1.0e-300)
        if asym > 0:
            _require(asym <= SYMMETRY_SLACK * scale, "beta not symmetric")
            object.__setattr__(self, "coupling",
                               CouplingNetwork(n=n, beta=(beta + beta.T) / 2.0))

        _require(math.isfinite(self.t_end) and self.t_end > 0, "t_end not positive")
        _require(math.isfinite(self.output_dt) and self.output_dt > 0,
                 "output_dt not positive")
        _require(self.output_dt <= self.t_end, "output_dt exceeds t_end")
        # From 2**53 on, the output times k * output_dt may stop increasing.
        _require(self.t_end / self.output_dt < 2.0**53,
                 "t_end / output_dt not below 2**53")
        _require(math.isfinite(self.rtol) and self.rtol > 0, "rtol not positive")
        _require(math.isfinite(self.atol) and self.atol > 0, "atol not positive")

    @property
    def n_oscillators(self) -> int:
        return len(self.oscillators)


@dataclass(eq=False)
class TimeSeries:
    """Uniform-grid record of a run: occupations, rates, coefficient channels.

    The one record of a run's samples: the integrators return it and
    :func:`oscibath.csvio.read_timeseries_csv` reads it back.  Channel
    arrays are shaped (n_oscillators, n_samples) like ``n``; all five arrays
    are read-only copies of the caller's.  ``diagnostics`` is the run
    summary's record, one entry per printed ``key = value`` line in order
    (an int, a float or a tuple of floats; see integrate_coupled); it is
    empty for a series read from a CSV.

    The grid ``t`` must increase strictly in steps equal to its first step
    ``t[1] - t[0]``: every step may differ from it by GRID_SLACK relative to
    the larger of that step and the last time.  The estimators in
    :mod:`analysis` rely on this grid; a grid of fewer than two times
    passes.  A NaN time fails, because the comparisons are written so that
    NaN never satisfies them.
    """

    t: np.ndarray
    n: np.ndarray
    v: np.ndarray
    friction: np.ndarray
    diffusion: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t = np.array(self.t, dtype=float)
        self.t.setflags(write=False)
        for name in ("n", "v", "friction", "diffusion"):
            arr = np.atleast_2d(np.array(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            setattr(self, name, arr)
            if arr.shape[1] != self.t.size:
                raise ValueError(f"channel {name} length does not match grid")
            if arr.shape[0] != self.n.shape[0]:
                raise ValueError(f"channel {name} has {arr.shape[0]} "
                                 f"oscillators, n has {self.n.shape[0]}")
        if self.t.size < 2:
            return
        steps = np.diff(self.t)
        dt = steps[0]
        if not steps.min() > 0:
            raise ValueError("grid not strictly increasing")
        if not np.abs(steps - dt).max() <= GRID_SLACK * max(dt, abs(self.t[-1])):
            raise ValueError("grid spacing not uniform")

    @property
    def n_oscillators(self) -> int:
        return self.n.shape[0]

    @property
    def output_dt(self) -> float:
        """The grid's first step; for a solver grid, the config's output_dt."""
        return float(self.t[1] - self.t[0])
