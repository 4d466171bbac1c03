"""Adaptive Runge-Kutta integration of the occupation-number master equations.

Two formulations share one solve path: the output grid, an embedded
Dormand-Prince 5(4) core with dense output (output samples come from the
step interpolant, never from re-integration) and the coefficient samples:

* first-order single oscillator:   dn/dt = -2 lam(t) n + 2 D(t)
* coupled second-order system:     n_i'' + 2 lam_i n_i' + 2 lam_i' n_i
                                     + sum_j beta_ij (n_i - n_j) = 2 D_i'

A single oscillator in second-order form is the coupled system with one
oscillator and ``CouplingNetwork.none(1)``.

A provider may declare ``breakpoints``: times where its coefficients are
less smooth (a tabulated provider's knots).  A step that would reach past
one ends exactly on the last one it reaches.  Where breakpoints are sparser
than the steps, no step straddles a change of polynomial piece; where they
are denser, steps cross the pieces instead of shrinking to their spacing.

Each formulation supplies one linear right-hand side rhs(t, y, drive) =
A(t) y + b(t) drive, and every run, of either formulation, takes one solve
(_solve): it steps [0, t_p].  A run whose providers all declare
``osc_freq`` and ``periodic_from`` is periodic with a common period T from
some time t_p on (Floquet): the flow over one period is then a fixed affine
map y -> M y + c.  When enough periods follow t_p (see _common_period), the
solve first steps one period of the affine matrix state, keeping each
step's interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.6), and
maps every later sample from that record; the moduli of the eigenvalues of
M are its Floquet multipliers.  Any other run, and one whose record would
pass _TAIL_MAX_DOUBLES, has t_p = t_end, the last output time, and no
tail: stepping [0, t_p] is the whole run.

The coupled RHS is one closure over the run's provider bank
(coefficients._provider_bank): (rows, provider) pairs whose calls fill the
entries ``rows`` of its vectors, one pair per oscillator, or one pair for
all when the tables of a run share one knot grid.  On the tail's matrix
state it is one matrix product, [A(t) | b(t)] @ [Y; drive], over a
preallocated [A | b] whose time-dependent entries each call rewrites; on
the vector state, which every run steps, it keeps its elementwise form,
whose rounding stepped results depend on to the last bit.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientProvider, _provider_bank
from .model import (
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
    TimeSeries,
)

__all__ = [
    "IntegratorError",
    "StepSizeUnderflow",
    "PositivityViolation",
    "integrate_single_first_order",
    "integrate_coupled",
]


class IntegratorError(RuntimeError):
    """Integration could not be completed."""


class StepSizeUnderflow(IntegratorError):
    """Error control drove the step size below the resolvable limit."""


class PositivityViolation(IntegratorError):
    """A run whose exact flow keeps n >= 0 produced a clearly negative n."""


class _RecordFull(Exception):
    """A solve's step record would pass _TAIL_MAX_DOUBLES values."""


# Dormand-Prince 5(4) tableau.  The fifth-order solution propagates; the
# embedded fourth-order difference (E) drives step-size control; row j of PT
# holds the stage weights of theta**(j+1) in the quartic dense output.
# First-same-as-last: stage 7 of an accepted step is stage 1 of the next.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
_PT = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
]).T.copy()
_POWERS = np.arange(1.0, 5.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 10_000_000
_EPS = float(np.finfo(float).eps)
# The periodic tail runs only when at least _TAIL_MIN_PERIODS periods
# follow t_p: its one-period matrix solve costs as much as stepping 2.3
# (N = 1), 3.0 (N = 2), 3.5 (N = 4, 8) and 4.3-4.7 (N = 16, 32) periods,
# as timed on fig2, fig4 and phenomenological chains.  Its period solve
# records 5 * dim * (dim + 1) values per step, whatever t_end and output_dt,
# and may hold at most _TAIL_MAX_DOUBLES of them (4 MB): one fig4 period
# takes 248-634 steps (0.2-0.5 MB) and one of a fig4-like chain of 8
# oscillators 292 steps (3.2 MB).  A chain of 32 would need 258 steps
# (43 MB); its period solve stops after 25 and the run steps all the way.
_TAIL_MIN_PERIODS = 4.0
_TAIL_MAX_DOUBLES = 2**19
# The output grid's friction and diffusion are sampled in chunks of at most
# _SAMPLE_MAX_VALUES output times x oscillators.  A stacked call gathers 14
# coefficients per table and time: over the whole grid of a 32-table chain
# to t_end 80 (8,001 times) it raised the run's tracemalloc peak from 19.9
# to 56.6 MB, while chunks of 2**15 values keep it at 19.9 MB (2**16: 25.0
# MB).  Smaller runs, every bundled demo and bench chain among them, take
# one call per bank pair.
_SAMPLE_MAX_VALUES = 2**15

RHS = Callable[[float, np.ndarray], np.ndarray]
DrivenRHS = Callable[[float, np.ndarray, float | np.ndarray], np.ndarray]


def _error_norm(e: np.ndarray, scale: np.ndarray) -> float:
    """Root-mean-square of e / scale."""
    x = e / scale
    return math.sqrt(float(x @ x) / x.size)


def _initial_step(f: RHS, t0: float, y0: np.ndarray, f0: np.ndarray,
                  rtol: float, atol: float, span: float) -> float:
    """Hairer-style starting step estimate."""
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _stops(providers: Sequence[CoefficientProvider], t0: float,
           t_final: float) -> list[float]:
    """The providers' sorted distinct ``breakpoints`` inside (t0, t_final),
    then t_final.

    ``breakpoints`` is an optional attribute; a provider without it declares
    none.  A breakpoint within the step-size underflow threshold of t_final
    is dropped: the step to it would leave a last step too short to take.
    """
    tiny = 10.0 * _EPS * max(abs(t0), abs(t_final))
    return sorted({b for p in providers
                   for b in map(float, getattr(p, "breakpoints", ()))
                   if t0 < b and t_final - b > tiny}) + [t_final]


def _rk45_solve(f: RHS, y0: np.ndarray, grid: np.ndarray,
                rtol: float, atol: float,
                providers: Sequence[CoefficientProvider],
                record: list | None = None) -> tuple[np.ndarray, dict]:
    """Integrate from grid[0] to grid[-1]; sample the interpolant on the grid.

    A step that would reach past one of the providers' breakpoints (or
    t_final) is shortened to end exactly on the last one it reaches.

    With a ``record`` list, each accepted step appends (t, h, y, _PT @ k):
    its start, length, start state and quartic rows, whose interpolant at
    theta in [0, 1] is y + h * theta**_POWERS @ rows.  Before the record
    would pass _TAIL_MAX_DOUBLES values, the solve raises _RecordFull.
    """
    t = float(grid[0])
    t_final = float(grid[-1])
    stops = _stops(providers, t, t_final)
    next_stop = 0
    y = np.array(y0, dtype=float)
    dim = y.size

    out = np.empty((grid.size, dim))
    out[0] = y
    next_idx = 1
    times = grid.tolist()

    # Stage 1 (k[0]) is the slope at (t, y).  An attempt writes only
    # k[1:], so a rejected attempt leaves k[0] for the retry; an accepted
    # step copies its last stage there (first-same-as-last).
    k = np.empty((7, dim))
    k[0] = f(t, y)
    nfev = 1
    if not np.isfinite(k[0]).all():
        raise IntegratorError(f"right-hand side not finite at t={t!r}")
    h = _initial_step(f, t, y, k[0], rtol, atol, t_final - t)
    nfev += 1

    accepted = 0
    rejected = 0
    h_min = math.inf
    h_max = 0.0
    while t < t_final:
        tiny = 10.0 * _EPS * max(abs(t), abs(t_final))
        # Skip the stops already reached or within the underflow threshold
        # of t (two tables whose knots differ by a few ulp); t_final stays.
        while next_stop < len(stops) - 1 and stops[next_stop] - t <= tiny:
            next_stop += 1
        # Ending on the last stop reached, not the first, keeps steps
        # longer than a dense table's knot spacing: the error control then
        # prices the kinks they cross, instead of one step per knot.
        clamped = h >= stops[next_stop] - t
        if clamped:
            stop = stops[bisect.bisect_right(stops, t + h, next_stop + 1) - 1]
            h = stop - t
        if h < tiny:
            raise StepSizeUnderflow(f"step size underflow at t={t!r}")
        if accepted + rejected > _MAX_STEPS:
            raise IntegratorError("step budget exceeded")

        for i in range(1, 6):
            k[i] = f(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B @ k[:6])
        t_new = stop if clamped else t + h
        k[6] = f(t_new, y_new)
        nfev += 6

        if np.isfinite(k).all() and np.isfinite(y_new).all():
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = _error_norm(h * (_E @ k), scale)
        else:
            err = math.inf

        if err <= 1.0:
            if record is not None:
                if 5 * dim * (len(record) + 1) > _TAIL_MAX_DOUBLES:
                    raise _RecordFull
                # y is rebound, never written to, so a reference suffices.
                record.append((t, h, y, _PT @ k))
            # Fill output samples covered by this step from the quartic
            # interpolant.
            hi = bisect.bisect_right(
                times, t_new + 4.0 * _EPS * max(abs(t_new), 1.0), next_idx)
            if hi > next_idx:
                theta = ((grid[next_idx:hi] - t) / h).clip(0.0, 1.0)
                out[next_idx:hi] = y + h * ((theta[:, None] ** _POWERS)
                                            @ (_PT @ k))
                next_idx = hi
            t = t_new
            y = y_new
            k[0] = k[6]
            accepted += 1
            h_min = min(h_min, h)
            h_max = max(h_max, h)
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
            h *= factor
        else:
            rejected += 1
            factor = 0.1 if math.isinf(err) else max(
                _MIN_FACTOR, _SAFETY * err ** -0.2)
            h *= factor

    if next_idx != grid.size:
        raise IntegratorError("internal error: output grid not fully covered")
    stats = {"steps_accepted": accepted, "steps_rejected": rejected,
             "rhs_evaluations": nfev, "h_min": h_min, "h_max": h_max,
             "rejection_ratio": rejected / (accepted + rejected)}
    return out, stats


def _common_period(providers: Sequence[CoefficientProvider],
                   grid: np.ndarray) -> tuple[float, float] | None:
    """(t_p, T): the providers' coefficients repeat with period T from t_p on.

    None unless every provider declares ``osc_freq`` and a finite
    ``periodic_from`` and the output grid reaches
    t_p + _TAIL_MIN_PERIODS * T.  T is 2*pi over the exact gcd of the
    frequencies' binary values: incommensurate ones give a T far beyond any
    t_end.  t_p is at least grid[1], so that [0, t_p] is a grid.
    """
    freqs = [getattr(p, "osc_freq", None) for p in providers]
    starts = [getattr(p, "periodic_from", None) for p in providers]
    if not all(x is not None and math.isfinite(x) for x in starts) or not all(
            x is not None and math.isfinite(x) and x > 0 for x in freqs):
        return None
    fractions = [Fraction(float(x)) for x in freqs]
    den = math.lcm(*(q.denominator for q in fractions))
    gcd = Fraction(math.gcd(*(q.numerator * (den // q.denominator)
                              for q in fractions)), den)
    period = 2.0 * math.pi / float(gcd)
    t_p = max(float(grid[1]), *map(float, starts))
    if grid[-1] < t_p + _TAIL_MIN_PERIODS * period:
        return None
    return t_p, period


def _solve(config: SimulationConfig,
           bank: list[tuple[int | slice, CoefficientProvider]],
           rhs: DrivenRHS, y0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Integrate y' = rhs(t, y, 1.0) from y0 over the config's output grid.

    ``bank`` is the run's provider bank (coefficients._provider_bank): its
    providers give the breakpoints and the period, and its calls fill the
    friction and diffusion on the output grid, one call per pair and chunk
    of output times (_SAMPLE_MAX_VALUES).

    Every run steps [0, t_p].  Without a usable period (_common_period),
    t_p is the grid's last time and that step is the whole run.  Otherwise
    the run first solves one period of the affine matrix state
    [Phi | psi], the only code that knows it: rhs is called with that
    state as a dim x (dim + 1) matrix and drive the unit row e_{dim+1}, so
    that only psi is driven.  The state is integrated from [I | 0] over
    [t_p, t_p + T], at a tenth of the tolerances since its error is
    compounded once per period; its end value is [M | c], and the solve
    keeps a record of its steps' interpolants instead of sampling them.
    A record that would pass _TAIL_MAX_DOUBLES values stops that solve, and
    the run steps all the way as if it had no period.  The sample k whole
    periods and tau past t_p is [Phi(tau) | psi(tau)] (y_k, 1), with
    y_0 = y(t_p) and y_{k+1} = M y_k + c, evaluated from the record one
    period at a time.

    Returns the grid, the samples (one row per output time), the
    friction and diffusion on the grid (one row per oscillator) and the
    diagnostics: the step statistics (sums over both solves of a periodic
    run), ``periods_propagated`` (0 when every sample was stepped to), the
    tail's ``floquet_multipliers`` (the moduli of the eigenvalues of M) and
    the ``negative_excursions`` of n, the first n_oscillators components
    of the state.
    """
    providers = [provider for _, provider in bank]
    n_osc = config.n_oscillators
    # output_dt <= t_end, so the grid has at least two times.
    m = int(math.floor(config.t_end / config.output_dt + 1e-9))
    grid = np.arange(m + 1) * config.output_dt
    dim = y0.size
    t_p, period = _common_period(providers, grid) or (float(grid[-1]), 0.0)
    record: list = []
    if period:
        drive = np.eye(dim + 1)[dim]
        try:
            ends, tail_stats = _rk45_solve(
                lambda t, y: rhs(t, y.reshape(dim, dim + 1), drive).ravel(),
                np.eye(dim, dim + 1).ravel(), np.array([t_p, t_p + period]),
                config.rtol / 10, config.atol / 10, providers, record)
        except _RecordFull:
            t_p, period = float(grid[-1]), 0.0
    later = int(np.searchsorted(grid, t_p))
    out, stats = _rk45_solve(lambda t, y: rhs(t, y, 1.0), y0,
                             np.append(grid[:later], t_p),
                             config.rtol, config.atol, providers)
    stats["periods_propagated"] = 0
    if period:
        flow = ends[-1].reshape(dim, dim + 1)
        starts, lengths = np.array([step[:2] for step in record]).T
        # Row s holds step s's start state, then its four quartic rows.
        steps = np.empty((len(record), 5, dim * (dim + 1)))
        for into, (_, _, *rows) in zip(steps, record):
            into[0], into[1:] = rows
        record.clear()
        steps = steps.reshape(-1, dim + 1)
        head, out = out, np.empty((grid.size, dim))
        out[:later] = head[:-1]
        y = np.append(head[-1], 1.0)
        whole, tau = np.divmod(grid[later:] - t_p, period)
        stats["periods_propagated"] = periods = int(whole[-1])
        bounds = np.searchsorted(whole, np.arange(periods + 2))
        for a, b in zip(bounds[:-1], bounds[1:]):
            # Every step's start state and quartic rows applied to
            # (y_k, 1); each sample then takes its own step's.
            at = (steps @ y).reshape(-1, 5, dim)
            t = t_p + tau[a:b]
            s = np.searchsorted(starts, t, "right") - 1
            theta = ((t - starts[s]) / lengths[s]).clip(0.0, 1.0)
            out[later + a:later + b] = at[s, 0] + lengths[s, None] * np.einsum(
                "mp,mpd->md", theta[:, None] ** _POWERS, at[s, 1:])
            y = np.append(flow @ y, 1.0)
        for key in ("steps_accepted", "steps_rejected", "rhs_evaluations"):
            stats[key] += tail_stats[key]
        stats["h_min"] = min(stats["h_min"], tail_stats["h_min"])
        stats["h_max"] = max(stats["h_max"], tail_stats["h_max"])
        stats["rejection_ratio"] = stats["steps_rejected"] / (
            stats["steps_accepted"] + stats["steps_rejected"])
        stats["floquet_multipliers"] = tuple(sorted(
            np.abs(np.linalg.eigvals(flow[:, :dim])).tolist(), reverse=True))
    n = out[:, :n_osc]
    stats["negative_excursions"] = {"count": int((n < 0).sum()),
                                    "most_negative": float(min(0.0, n.min()))}
    lam = np.empty((n_osc, grid.size))
    dif = np.empty((n_osc, grid.size))
    step = max(1, _SAMPLE_MAX_VALUES // n_osc)
    for start in range(0, grid.size, step):
        times = grid[start:start + step]
        for rows, provider in bank:
            s = provider(times)
            lam[rows, start:start + step] = s.friction
            dif[rows, start:start + step] = s.diffusion
    return grid, out, lam, dif, stats


def integrate_single_first_order(osc: OscillatorSpec,
                                 provider: CoefficientProvider, t_end: float,
                                 output_dt: float = SimulationConfig.output_dt,
                                 rtol: float = SimulationConfig.rtol,
                                 atol: float = SimulationConfig.atol) -> TimeSeries:
    """Solve dn/dt = -2 lam(t) n + 2 D(t) from n(0) = n0.

    When the provider keeps D(t) >= 0 (checked at the output samples) and
    n0 >= 0, the exact flow preserves n >= 0 and the result is checked to
    stay above -10 * atol; PositivityViolation is raised otherwise.
    """
    config = SimulationConfig(
        oscillators=(osc,),
        provider_config=(ProviderConfig("custom"),),
        coupling=CouplingNetwork.none(1),
        t_end=t_end, output_dt=output_dt, rtol=rtol, atol=atol,
    )

    def rhs(t: float, y: np.ndarray, drive: float | np.ndarray) -> np.ndarray:
        s = provider(t)
        return -2.0 * s.friction * y + 2.0 * s.diffusion * drive

    grid, out, lam, dif, diagnostics = _solve(
        config, _provider_bank([provider]), rhs, np.array([osc.n0]))
    n = out.T
    v = -2.0 * lam * n + 2.0 * dif

    if osc.n0 >= 0 and (dif >= 0).all() and not n.min() >= -10.0 * atol:
        raise PositivityViolation(f"positivity violated: min n = {n.min():g}")
    return TimeSeries(t=grid, n=n, v=v, friction=lam, diffusion=dif,
                      diagnostics=diagnostics)


def integrate_coupled(config: SimulationConfig,
                      providers: Sequence[CoefficientProvider]) -> TimeSeries:
    """Solve the coupled second-order system for all oscillators at once.

    The pairwise coupling enters as sum_j beta_ij (n_i - n_j); with two
    oscillators this is exactly the two-equation system, with one it is
    the single-oscillator form n'' + 2 lam n' + 2 lam' n = 2 D', and
    beta = 0 decouples every channel.

    The second-order form is the time derivative of the first-order one;
    its solution matches that of the first-order form only when the initial
    slope satisfies v0 = -2 lam(0) n0 + 2 D(0).  The diagnostics'
    ``consistency_residuals`` report |v0 + 2 lam(0) n0 - 2 D(0)| per
    oscillator; they are never enforced.

    With symmetric coupling the sum I = sum_i (v_i + 2 lam_i n_i - 2 D_i)
    is conserved.  ``invariant_drift`` is max_t |I(t) - I(0)| over the
    output samples, relative to the largest per-sample
    sum_i (|v_i| + 2 |lam_i n_i| + 2 |D_i|).

    The RHS samples the providers through their bank: one call per
    oscillator, or one call for all of them when they are at least five
    tables on one knot grid (coefficients._provider_bank).  Both give the
    same values bit for bit.  On the periodic tail's dim x (dim + 1) matrix
    state it is one product with [A(t) | b(t)] instead, at less than half
    the cost per call; the vector state keeps the elementwise formula,
    since the product rounds differently and would move stepped runs in
    their last bits.
    """
    n_osc = config.n_oscillators
    if len(providers) != n_osc:
        raise ValueError("one provider per oscillator required")

    laplacian = config.coupling.laplacian
    providers = list(providers)
    bank = _provider_bank(providers)

    # The tail's matrix state Y = [Phi | psi] with its drive row appended:
    # Y' = [A(t) | b(t)] @ [Y; drive].  The constant blocks I and -L of A
    # are set once; each call writes the three time-dependent entries of
    # row n_osc + i, one provider call per oscillator i.  A stack's
    # N-vectors meet only the vector state: tables declare no period, so
    # their runs never take the tail.
    dim = 2 * n_osc
    ab = np.zeros((dim, dim + 1))
    ab[:n_osc, n_osc:dim] = np.eye(n_osc)
    ab[n_osc:, :n_osc] = -laplacian
    augmented = np.empty((dim + 1, dim + 1))
    entries = [(i, n_osc + i, -float(laplacian[i, i]), provider)
               for i, provider in enumerate(providers)]

    def rhs(t: float, y: np.ndarray, drive: float | np.ndarray) -> np.ndarray:
        if y.ndim == 2:
            for i, row, minus_lii, provider in entries:
                s = provider(t)
                ab[row, i] = minus_lii - 2.0 * s.dfriction_dt
                ab[row, row] = -2.0 * s.friction
                ab[row, dim] = 2.0 * s.ddiffusion_dt
            augmented[:dim] = y
            augmented[dim] = drive
            return ab @ augmented
        n = y[:n_osc]
        v = y[n_osc:]
        out = np.empty_like(y)
        out[:n_osc] = v
        dv = out[n_osc:]
        coupling = laplacian @ n
        for rows, provider in bank:
            s = provider(t)
            # Doubling is exact: 2 (a - b) is 2a - 2b bit for bit.
            dv[rows] = 2.0 * (s.ddiffusion_dt * drive - s.friction * v[rows]
                              - s.dfriction_dt * n[rows]) - coupling[rows]
        return out

    y0 = np.concatenate([[o.n0 for o in config.oscillators],
                         [o.v0 for o in config.oscillators]])
    grid, out, lam, dif, diagnostics = _solve(config, bank, rhs, y0)
    n = out[:, :n_osc].T
    v = out[:, n_osc:].T
    # w_i = v_i + 2 lam_i n_i - 2 D_i: its first sample is oscillator i's
    # consistency residual, its sum over i the invariant.  One oscillator
    # at a time: whole (N, samples) temporaries raised the peak RSS of a
    # fig4 sweep by 0.5 MB.
    residuals = []
    invariant = np.zeros(grid.size)
    scale = np.zeros(grid.size)
    for n_i, v_i, lam_i, dif_i in zip(n, v, lam, dif):
        w = v_i + 2.0 * lam_i * n_i - 2.0 * dif_i
        residuals.append(abs(float(w[0])))
        invariant += w
        scale += np.abs(v_i) + 2.0 * np.abs(lam_i * n_i) + 2.0 * np.abs(dif_i)
    diagnostics["consistency_residuals"] = tuple(residuals)
    diagnostics["invariant_drift"] = float(
        np.abs(invariant - invariant[0]).max() / max(scale.max(), 1e-300))
    return TimeSeries(t=grid, n=n, v=v, friction=lam, diffusion=dif,
                      diagnostics=diagnostics)
