"""Adaptive Runge-Kutta integration of the occupation-number master equations.

One formulation, the coupled second-order system

    n_i'' + 2 lam_i n_i' + 2 lam_i' n_i + sum_j beta_ij (n_i - n_j) = 2 D_i',

takes one solve path: the output grid, one embedded Runge-Kutta stepper
over a tableau, which hands each accepted step with its dense-output
interpolant to the solve (output samples come from the interpolant, never
from re-integration), and the coefficient samples.  A single oscillator is
the system with one oscillator and ``CouplingNetwork.none(1)``; the
first-order equation dn/dt = -2 lam(t) n + 2 D(t) is that system started
from the consistent slope v0 = -2 lam(0) n0 + 2 D(0)
(integrate_single_first_order).

A provider may declare ``breakpoints``: times where its coefficients are
less smooth (a tabulated provider's knots).  A step that would reach past
one ends exactly on the last one it reaches.  Where breakpoints are sparser
than the steps, no step straddles a change of polynomial piece; where they
are denser, steps cross the pieces instead of shrinking to their spacing.

The system is linear, y' = A(t) y + b(t) over y = (n, v), and every run
takes one solve (_solve): it steps [0, t_p] with Dormand-Prince 5(4) and
its quartic interpolant.  Both pairs keep their interpolant in its
published nested form, one dense row per term, and every sample is
evaluated in one basis (_nested, _basis).  A run whose providers
all declare ``osc_freq`` and ``periodic_from`` is periodic with a common
period T from some time t_p on (Floquet): the flow over one period is then
a fixed affine map y -> M y + c.  When the output grid reaches t_p + T
(_common_period), the solve first steps one period of the affine matrix
state with Dormand-Prince 8(5,3), whose eighth order pays on coefficients
that are trigonometric polynomials there, keeping each step's degree-7
interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6), and maps
every later sample from that record; the moduli of the eigenvalues of M are
its Floquet multipliers.  Any other run, and one whose record would pass
_TAIL_MAX_DOUBLES, has t_p = t_end, the last output time, and no tail:
stepping [0, t_p] is the whole run.

The right-hand side rhs(t, y, drive) = A(t) y + b(t) drive fills a
preallocated [A | b], its constant entries set once, by writing the others
through the run's provider bank (coefficients._provider_bank), (rows,
provider) pairs whose calls fill the entries ``rows``: one pair per
oscillator, or one for all when the tables of a run share one knot grid.
One product, [A(t) | b(t)] @ [y; drive], serves the vector state and the
tail's matrix state alike.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

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


class _Tableau(NamedTuple):
    """An explicit embedded Runge-Kutta pair with first-same-as-last.

    Stage i is the slope at t + c[i] * h and y + h * (a[i] @ k[:i]); the
    step ends at y + h * (a[s] @ k[:s]), s = ``stages``, and stage s, the
    slope there, is the next step's stage 0.  error(h, k[:s + 1], scale) is
    the scaled norm of the embedded error estimate; an estimate of order q
    sets ``exponent`` = 1 / (q + 1).  Stages after s feed only the dense
    output and are taken on accepted steps: row j of ``dense`` holds the
    stage weights of F_j / h, the terms of the pair's nested interpolant
    y + h * _basis(theta, len(dense)) @ (dense @ k) at theta in [0, 1]
    (see _nested).
    """

    c: tuple[float, ...]
    a: list[np.ndarray]
    stages: int
    error: Callable[[float, np.ndarray, np.ndarray], float]
    exponent: float
    dense: np.ndarray


def _error_norm(e: np.ndarray, scale: np.ndarray) -> float:
    """Root-mean-square of e / scale."""
    x = e / scale
    return math.sqrt(float(x @ x) / x.size)


def _basis(theta: np.ndarray, n: int) -> np.ndarray:
    """The first n of theta, theta (1 - theta), theta**2 (1 - theta), ...:
    the cumulative products of theta and 1 - theta, one row per theta."""
    factors = np.empty((theta.size, n))
    factors[:, ::2] = theta[:, None]
    factors[:, 1::2] = 1.0 - theta[:, None]
    return factors.cumprod(1)


def _nested(b: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """A pair's dense rows: the stage weights of F_j / h over all stages.

    Both pairs publish their interpolant in one nested form (Dormand &
    Prince, Runge-Kutta triples, 1986; Hairer, Norsett & Wanner, Solving
    ODEs I, II.6): y + theta (F0 + (1 - theta) (F1 + theta (F2 + ...))),
    that is y + _basis(theta, n) @ F, with F0 = y_new - y, F1 = h k0 - F0,
    F2 = 2 F0 - h (k0 + k_s) for the weights b = a[s] and the end slope
    k_s, s = len(b), and the pair's published ``extra`` rows after them.
    """
    first, last = np.eye(extra.shape[1])[[0, b.size]]
    b = np.pad(b, (0, extra.shape[1] - b.size))
    return np.vstack([b, first - b, 2.0 * b - first - last, extra])


# Dormand-Prince 5(4) (DP5), which every stepped solve takes.  The
# fifth-order solution propagates; the embedded fourth-order difference
# (_E) drives step-size control, and the dense output is quartic, its
# extra row Dormand & Prince's d.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
_DP5_A = [np.array(row, dtype=float) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_DP5 = _Tableau(
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    a=_DP5_A,
    stages=6,
    error=lambda h, k, scale: _error_norm(h * (_E @ k), scale),
    exponent=0.2,
    dense=_nested(_DP5_A[6], np.array([
        [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423]])),
)

# Dormand-Prince 8(5,3) (DOP853; Prince & Dormand, J. Comput. Appl. Math.
# 7, 1981; Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6, and their
# Fortran code dop853), each published coefficient at its nearest double.
# It steps the periodic tail's period solve.  Stages 0-11 take the step,
# stage 12 is the slope at its end, 13-15 are the dense output's; row 12
# of _DOP853_A is the weights b.
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778)
_DOP853_A = [np.array(row, dtype=float) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)]
# The fifth- and third-order error estimates over stages 0-12: row 0, and
# row 1, b less the third-order weights at stages 0, 8 and 11.
_DOP853_E = np.array([
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
     -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
     0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0],
    [*_DOP853_A[12], 0]])
_DOP853_E[1, [0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118,
                             0.022058823529411766)
# The dense output's F3..F6 over all 16 stages (see _nested).
_DOP853_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
     -39.17726167561544, -149.72683625798564],
])


def _dop853_error(h: float, k: np.ndarray, scale: np.ndarray) -> float:
    """DOP853's error norm: the fifth-order estimate damped by the third's,
    h n5 / sqrt((n5 + 0.01 n3) dim) with nq the squared norm of the
    order-q estimate over scale."""
    e5, e3 = (_DOP853_E @ k) / scale
    n5 = float(e5 @ e5)
    n3 = float(e3 @ e3)
    return 0.0 if n5 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * e5.size)


_DOP853 = _Tableau(c=_DOP853_C, a=_DOP853_A, stages=12, error=_dop853_error,
                   exponent=0.125, dense=_nested(_DOP853_A[12], _DOP853_D))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 10_000_000
_EPS = float(np.finfo(float).eps)
# The periodic tail's period solve records 8 * dim * (dim + 1) values per
# step (the start state and seven dense rows), whatever t_end and output_dt,
# and may hold at most _TAIL_MAX_DOUBLES of them (4 MB): one fig4 period
# takes 46-67 steps (0.06-0.09 MB) and one of a fig4-like chain of 16
# oscillators 45 steps (3.0 MB).  A chain of 32 would need 43 steps (11.4
# MB); its period solve stops after 15 and the run steps all the way.
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


def _initial_step(f: RHS, t0: float, y0: np.ndarray, f0: np.ndarray,
                  rtol: float, atol: float, span: float,
                  exponent: float) -> float:
    """Hairer-style starting step estimate for a method whose error
    estimate has order 1 / exponent - 1."""
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # an overflowing slope norm, or a span below t0's ulp
        raise StepSizeUnderflow(f"step size underflow at t={t0!r}")
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** exponent
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


def _rk_steps(f: RHS, y0: np.ndarray, t: float, t_final: float,
              rtol: float, atol: float,
              providers: Sequence[CoefficientProvider], stats: dict,
              tableau: _Tableau = _DP5) -> Iterator[tuple]:
    """Step from t to t_final with the tableau's pair; yield each accepted
    step.

    A step is (t, h, t_new, y, y_new, rows): its start, length and end (a
    step that would reach past one of the providers' breakpoints, or
    t_final, is shortened to end exactly on the last one it reaches), its
    start and end states, and its dense rows tableau.dense @ k, whose
    interpolant at theta in [0, 1] is y + h * _basis(theta, len(rows)) @
    rows.  The states are rebound, never written to, so a caller may keep
    them.

    Each count goes into ``stats`` as it happens, an accepted step and its
    length once the caller resumes after it: a step the caller stops on
    counts its RHS evaluations only.  _MAX_STEPS bounds the attempts in
    ``stats``, which a run's period solve and head share.
    """
    c, a, s, error, exponent, dense = tableau
    stops = _stops(providers, t, t_final)
    next_stop = 0
    y = np.array(y0, dtype=float)
    dim = y.size

    # Stage 0 (k[0]) is the slope at (t, y).  An attempt writes only
    # k[1:s + 1], so a rejected attempt leaves k[0] for the retry; an
    # accepted step takes its dense stages, then copies stage s to k[0]
    # (first-same-as-last).
    k = np.empty((len(c), dim))
    attempt = k[:s + 1]
    k[0] = f(t, y)
    if not np.isfinite(k[0]).all():
        raise IntegratorError(f"right-hand side not finite at t={t!r}")
    h = _initial_step(f, t, y, k[0], rtol, atol, t_final - t, exponent)
    stats["rhs_evaluations"] += 2

    while t < t_final:
        tiny = 10.0 * _EPS * max(abs(t), abs(t_final))
        # Skip the stops reached or within the underflow threshold of t
        # (two tables' knots a few ulp apart); t_final stays.
        while next_stop < len(stops) - 1 and stops[next_stop] - t <= tiny:
            next_stop += 1
        # Ending on the last stop reached, not the first, keeps steps longer
        # than a dense table's knot spacing: the error control then prices
        # the kinks they cross, instead of one step per knot.
        clamped = h >= stops[next_stop] - t
        if clamped:
            stop = stops[bisect.bisect_right(stops, t + h, next_stop + 1) - 1]
            h = stop - t
        if h < tiny:
            raise StepSizeUnderflow(f"step size underflow at t={t!r}")
        if stats["steps_accepted"] + stats["steps_rejected"] > _MAX_STEPS:
            raise IntegratorError("step budget exceeded")

        for i in range(1, s):
            k[i] = f(t + c[i] * h, y + h * (a[i] @ k[:i]))
        y_new = y + h * (a[s] @ k[:s])
        t_new = stop if clamped else t + h
        k[s] = f(t_new, y_new)
        stats["rhs_evaluations"] += s

        if np.isfinite(attempt).all() and np.isfinite(y_new).all():
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = error(h, attempt, scale)
        else:
            err = math.inf

        if err <= 1.0:
            for i in range(s + 1, len(c)):
                k[i] = f(t + c[i] * h, y + h * (a[i] @ k[:i]))
            stats["rhs_evaluations"] += len(c) - s - 1
            yield t, h, t_new, y, y_new, dense @ k
            stats["steps_accepted"] += 1
            stats["h_min"] = min(stats["h_min"], h)
            stats["h_max"] = max(stats["h_max"], h)
            t = t_new
            y = y_new
            k[0] = k[s]
            h *= _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -exponent))
        else:
            stats["steps_rejected"] += 1
            h *= 0.1 if math.isinf(err) else max(
                _MIN_FACTOR, _SAFETY * err ** -exponent)


def _common_period(providers: Sequence[CoefficientProvider],
                   grid: np.ndarray) -> tuple[float, float] | None:
    """(t_p, T): the providers' coefficients repeat with period T from t_p on.

    None unless every provider declares ``osc_freq`` and a finite
    ``periodic_from`` and the output grid reaches t_p + T, where the period
    solve ends: one period past t_p the tail costs at most about what
    stepping does, and less with every further period.  T is 2*pi over the
    exact gcd of the frequencies' binary values: incommensurate ones give a
    T far beyond any t_end.  t_p is at least grid[1], so that [0, t_p] is a
    grid.
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
    if grid[-1] < t_p + period:
        return None
    return t_p, period


def _solve(config: SimulationConfig,
           bank: list[tuple[int | slice, CoefficientProvider]],
           rhs: DrivenRHS, y0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Integrate y' = rhs(t, y, 1.0), the one formulation's linear system
    (integrate_coupled), from y0 over the config's output grid.

    ``bank`` is the run's provider bank (coefficients._provider_bank): its
    providers give the breakpoints and the period, and its calls fill the
    friction and diffusion on the output grid, one call per pair and chunk
    of output times (_SAMPLE_MAX_VALUES).

    One rule writes every sample: each step writes the output times it
    covers, from its interpolant.  Every run steps [0, t_p], its steps
    writing the times before t_p as they arrive; without a usable period
    (_common_period), t_p is the grid's last time.  Otherwise the run
    first solves one period of the affine matrix state [Phi | psi], the
    only code that knows it: rhs is called with that state as a
    dim x (dim + 1) matrix and drive the unit row e_{dim+1}, so that only
    psi is driven.  The state is integrated from [I | 0] over
    [t_p, t_p + T] with _DOP853, at a tenth of the tolerances since its
    error is compounded once per period (every other solve takes _DP5);
    its last step's end state is [M | c].  The solve records each step's
    start, length and stack, its start state over its dense rows, instead
    of sampling it; once the record would pass _TAIL_MAX_DOUBLES values, it
    stops that solve and the run steps all the way as if it had no
    period.  The sample k whole periods and tau past t_p is
    [Phi(tau) | psi(tau)] (y_k, 1), with y_0 = y(t_p), the head's end
    state, and y_{k+1} = M y_k + c: after the head, each recorded step
    writes the samples whose tau it covers, in every period, with one
    product of its stack and those periods' columns (y_k, 1).

    Returns the grid, the samples (one row per output time), the
    friction and diffusion on the grid (one row per oscillator) and the
    diagnostics: the step statistics (sums over every solve the run
    started, a stopped period solve included), ``periods_propagated`` (0
    when every sample was stepped to) and the tail's
    ``floquet_multipliers`` (the moduli of the eigenvalues of M).
    """
    providers = [provider for _, provider in bank]
    n_osc = config.n_oscillators
    # output_dt <= t_end, so the grid has at least two times.
    m = int(math.floor(config.t_end / config.output_dt + 1e-9))
    grid = np.arange(m + 1) * config.output_dt
    dim = y0.size
    t_p, period = _common_period(providers, grid) or (float(grid[-1]), 0.0)
    stats = {"steps_accepted": 0, "steps_rejected": 0, "rejection_ratio": 0.0,
             "rhs_evaluations": 0, "h_min": math.inf, "h_max": 0.0}
    record = []
    # _rk_steps rejects a non-finite attempt (err = inf): silence its warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if period:
            drive = np.eye(dim + 1)[dim]
            for t, h, _, y, flow, rows in _rk_steps(
                    lambda t, y: rhs(t, y.reshape(dim, -1), drive).ravel(),
                    np.eye(dim, dim + 1).ravel(), t_p, t_p + period,
                    config.rtol / 10, config.atol / 10, providers, stats,
                    _DOP853):
                stack = np.vstack([y, rows]).reshape(-1, dim, dim + 1)
                if stack.size * (len(record) + 1) > _TAIL_MAX_DOUBLES:
                    t_p, period = float(grid[-1]), 0.0
                    break
                record.append((t, h, stack))
        # The head samples [0, t_p), or the whole grid of a stepping run.
        later = int(np.searchsorted(grid, t_p)) if period else grid.size
        out = np.empty((grid.size, dim))
        out[0] = y0
        times = grid[:later].tolist()
        filled = 1
        for t, h, t_new, y, y_p, rows in _rk_steps(
                lambda t, y: rhs(t, y, 1.0), y0, 0.0, t_p,
                config.rtol, config.atol, providers, stats):
            hi = bisect.bisect_right(
                times, t_new + 4.0 * _EPS * max(abs(t_new), 1.0), filled, later)
            if hi > filled:
                theta = ((grid[filled:hi] - t) / h).clip(0.0, 1.0)
                out[filled:hi] = y + h * (_basis(theta, len(rows)) @ rows)
                filled = hi
    if filled != later:
        raise IntegratorError("internal error: output grid not fully covered")
    stats["rejection_ratio"] = stats["steps_rejected"] / (
        stats["steps_accepted"] + stats["steps_rejected"])
    stats["periods_propagated"] = 0
    if period:
        flow = flow.reshape(dim, dim + 1)
        whole, tau = np.divmod(grid[later:] - t_p, period)
        stats["periods_propagated"] = periods = int(whole[-1])
        # Column k is (y_k, 1): y_0 = y(t_p) and y_{k+1} = M y_k + c.
        columns = np.ones((dim + 1, periods + 1))
        columns[:dim, 0] = y_p
        for k in range(periods):
            columns[:dim, k + 1] = flow @ columns[:, k]
        # Each step writes, in every period at once, the samples it covers.
        s = np.searchsorted([step[0] for step in record], t_p + tau, "right") - 1
        order = np.argsort(s, kind="stable")
        groups = np.split(order, np.searchsorted(s[order], range(1, len(record))))
        for (start, h, stack), mine in zip(record, groups):
            at = stack @ columns[:, whole[mine].astype(int)]
            theta = ((t_p + tau[mine] - start) / h).clip(0.0, 1.0)
            out[later + mine] = (at[0] + h * np.einsum(
                "mp,pdm->dm", _basis(theta, len(stack) - 1), at[1:])).T
        stats["floquet_multipliers"] = tuple(sorted(
            np.abs(np.linalg.eigvals(flow[:, :dim])).tolist(), reverse=True))
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

    The solve is integrate_coupled's at N = 1, from the consistent slope
    v0 = -2 lam(0) n0 + 2 D(0), whose second-order solution is the
    first-order one; ``v`` is the rate -2 lam n + 2 D on the grid.  The
    diagnostics are integrate_coupled's, but for the periodic tail's one
    ``floquet_multipliers`` entry: the product of the N = 1 monodromy's
    two moduli, the conserved direction's 1 and exp(-2 * integral of lam
    over a period) (Liouville's formula).

    When the provider keeps D(t) >= 0 (checked at the output samples) and
    n0 >= 0, the exact flow preserves n >= 0 and the result is checked to
    stay above -10 * atol; PositivityViolation is raised otherwise.
    """
    s = provider(0.0)
    v0 = -2.0 * s.friction * osc.n0 + 2.0 * s.diffusion
    if not math.isfinite(v0):
        raise IntegratorError("right-hand side not finite at t=0.0")
    config = SimulationConfig(
        oscillators=(dataclasses.replace(osc, v0=float(v0)),),
        provider_config=(ProviderConfig("custom"),),
        coupling=CouplingNetwork.none(1),
        t_end=t_end, output_dt=output_dt, rtol=rtol, atol=atol,
    )
    series = integrate_coupled(config, [provider])
    n, lam, dif = series.n, series.friction, series.diffusion
    diagnostics = series.diagnostics
    if "floquet_multipliers" in diagnostics:
        diagnostics["floquet_multipliers"] = (
            math.prod(diagnostics["floquet_multipliers"]),)

    if osc.n0 >= 0 and (dif >= 0).all() and not n.min() >= -10.0 * atol:
        raise PositivityViolation(f"positivity violated: min n = {n.min():g}")
    return TimeSeries(t=series.t, n=n, v=-2.0 * lam * n + 2.0 * dif,
                      friction=lam, diffusion=dif, diagnostics=diagnostics)


def integrate_coupled(config: SimulationConfig,
                      providers: Sequence[CoefficientProvider]) -> TimeSeries:
    """Solve the coupled second-order system for all oscillators at once.

    The pairwise coupling enters as sum_j beta_ij (n_i - n_j); with two
    oscillators this is exactly the two-equation system, with one it is
    the single-oscillator form n'' + 2 lam n' + 2 lam' n = 2 D', and
    beta = 0 decouples every channel.

    The second-order form is the time derivative of the first-order one;
    its solution matches that of the first-order form only when the initial
    slope satisfies v0 = -2 lam(0) n0 + 2 D(0).

    The diagnostics are the run summary's lines, in order: _solve's step
    statistics, ``periods_propagated`` and ``floquet_multipliers``, then
    ``consistency_residual_i`` = |v0 + 2 lam(0) n0 - 2 D(0)| of oscillator
    i (never enforced), the count of ``negative_excursions`` (samples of n
    below 0), ``most_negative_n`` (0.0 without one) and ``invariant_drift``.
    With symmetric coupling the sum I = sum_i (v_i + 2 lam_i n_i - 2 D_i)
    is conserved; ``invariant_drift`` is max_t |I(t) - I(0)| over the
    output samples, relative to the largest per-sample
    sum_i (|v_i| + 2 |lam_i n_i| + 2 |D_i|).

    The RHS is one product [A(t) | b(t)] @ [y; drive] on the vector state
    (drive a number) and on the periodic tail's matrix state (drive its
    unit row) alike.  Each call writes A and b through the providers'
    bank: one call per oscillator, or one call for all of them when they
    are two or more tables on one knot grid (coefficients._provider_bank);
    both give the same values bit for bit.
    """
    n_osc = config.n_oscillators
    if len(providers) != n_osc:
        raise ValueError("one provider per oscillator required")

    bank = _provider_bank(providers)
    # [A | b] over (n, v): the n rows are [0 | I | 0], and row i of the v
    # rows is [-L_i - 2 dlam_i/dt e_i | -2 lam_i e_i | 2 dD_i/dt].  The
    # constant blocks are set once; each RHS call writes the rest through
    # the diagonals of the v rows' n and v blocks and the drive column.
    dim = 2 * n_osc
    ab = np.zeros((dim, dim + 1))
    ab[:n_osc, n_osc:dim] = np.eye(n_osc)
    ab[n_osc:, :n_osc] = -config.coupling.laplacian
    n_diagonal = np.einsum("ii->i", ab[n_osc:, :n_osc])
    v_diagonal = np.einsum("ii->i", ab[n_osc:, n_osc:dim])
    drive_column = ab[n_osc:, dim]
    minus_lii = n_diagonal.copy()

    def rhs(t: float, y: np.ndarray, drive: float | np.ndarray) -> np.ndarray:
        for rows, provider in bank:
            s = provider(t)
            n_diagonal[rows] = minus_lii[rows] - 2.0 * s.dfriction_dt
            v_diagonal[rows] = -2.0 * s.friction
            drive_column[rows] = 2.0 * s.ddiffusion_dt
        augmented = np.empty((dim + 1,) + y.shape[1:])
        augmented[:-1] = y
        augmented[-1] = drive
        return ab @ augmented

    y0 = np.concatenate([[o.n0 for o in config.oscillators],
                         [o.v0 for o in config.oscillators]])
    grid, out, lam, dif, diagnostics = _solve(config, bank, rhs, y0)
    n = out[:, :n_osc].T
    v = out[:, n_osc:].T
    # w_i = v_i + 2 lam_i n_i - 2 D_i: its first sample is oscillator i's
    # consistency residual, its sum over i the invariant.  One oscillator
    # at a time: whole (N, samples) float temporaries raised the peak RSS of
    # a fig4 sweep by 0.5 MB; the excursions' boolean one is 1 byte a sample.
    invariant = np.zeros(grid.size)
    scale = np.zeros(grid.size)
    for i, (n_i, v_i, lam_i, dif_i) in enumerate(zip(n, v, lam, dif), 1):
        w = v_i + 2.0 * lam_i * n_i - 2.0 * dif_i
        diagnostics[f"consistency_residual_{i}"] = abs(float(w[0]))
        invariant += w
        scale += np.abs(v_i) + 2.0 * np.abs(lam_i * n_i) + 2.0 * np.abs(dif_i)
    diagnostics["negative_excursions"] = int((n < 0).sum())
    diagnostics["most_negative_n"] = min(0.0, float(n.min()))
    diagnostics["invariant_drift"] = float(
        np.abs(invariant - invariant[0]).max() / max(scale.max(), 1e-300))
    return TimeSeries(t=grid, n=n, v=v, friction=lam, diffusion=dif,
                      diagnostics=diagnostics)
