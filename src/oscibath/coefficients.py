"""Friction/diffusion coefficient providers.

A provider is any callable ``t -> CoefficientSample`` that is deterministic
and defined on the whole integration interval.  ``t`` is a float or a 1-D
array; an array call returns the four fields as arrays shaped like ``t``, so
the integrator samples a whole output grid in one call.  Three
providers ship here, one class per kind, each validating its parameters,
evaluating itself (``__call__``) and describing itself (``describe``): an
analytic phenomenological model (ramp times mean-plus-cosine), a
natural-cubic-spline interpolator over tabulated samples, and a constant
provider used as a test oracle.  Externally computed coefficient tables
come in through a three-column CSV (``t,lambda,D``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .csvio import _csv_floats
from .model import CoefficientSample, InvalidConfig, ProviderConfig

__all__ = [
    "OutOfRange",
    "CoefficientProvider",
    "PhenomenologicalProvider",
    "ConstantProvider",
    "TabulatedProvider",
    "check_derivatives",
    "read_coefficient_csv",
    "make_provider",
]

TWO_PI = 2.0 * math.pi


class OutOfRange(ValueError):
    """A tabulated provider was queried outside its grid; no extrapolation."""


class CoefficientProvider(Protocol):
    """Evaluator contract: deterministic map from time to a CoefficientSample.

    ``t`` is either a float or a 1-D float array.  For an array the fields
    of the returned sample are arrays of the same shape, so custom providers
    must be written with numpy operations.

    A provider may also carry an optional ``breakpoints`` attribute: the
    times where its coefficients are not smooth (``TabulatedProvider``: its
    knots).  The integrator ends a step exactly on each one; a provider
    without the attribute declares none.

    Two more optional attributes declare periodicity: ``osc_freq`` (an
    angular frequency f, so the coefficients repeat after 2*pi/f) and
    ``periodic_from``, the time from which they do
    (``PhenomenologicalProvider``: once its ramp has rounded to 1).  When
    every provider declares both, the integrator maps whole periods instead
    of stepping through them.
    """

    def __call__(self, t: float | np.ndarray) -> CoefficientSample: ...


@dataclass(frozen=True)
class PhenomenologicalProvider:
    """The analytic coefficient model.

    The model is ``ramp(t) * (mean + amp * cos(osc_freq * t + phase))`` for
    both coefficients, with ``ramp(t) = 1 - exp(-(t/ramp_time)^2)``: zero at
    t = 0, a transient on the scale of ``ramp_time``, then a single-frequency
    periodic regime.  Negative friction intervals (amp_lambda >= mean_lambda)
    are opt-in via ``allow_negative_friction``.
    """

    mean_lambda: float
    amp_lambda: float
    mean_D: float
    amp_D: float
    osc_freq: float = 1.0
    phase_lambda: float = 0.0
    phase_D: float = 0.0
    ramp_time: float = 0.5
    allow_negative_friction: bool = False

    def __post_init__(self) -> None:
        for name in ("mean_lambda", "amp_lambda", "mean_D", "amp_D"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfig(f"{name} negative")
        if not (math.isfinite(self.osc_freq) and self.osc_freq > 0):
            raise InvalidConfig("osc_freq not positive")
        if not (math.isfinite(self.ramp_time) and self.ramp_time > 0):
            raise InvalidConfig("ramp_time not positive")
        for name in ("phase_lambda", "phase_D"):
            value = getattr(self, name)
            if not (0.0 <= value < TWO_PI):
                raise InvalidConfig(f"{name} outside [0, 2*pi)")
        if self.amp_lambda >= self.mean_lambda and self.amp_lambda > 0:
            if not self.allow_negative_friction:
                raise InvalidConfig(
                    "amp_lambda reaches mean_lambda; negative friction intervals "
                    "require allow_negative_friction"
                )

    def __call__(self, t: float | np.ndarray) -> CoefficientSample:
        """Evaluate the model and its exact time derivatives.

        By construction both coefficients and both derivatives vanish at
        t = 0.  Scalars go through :mod:`math`, arrays through numpy, with
        the same formula (``np.exp`` may differ from ``math.exp`` in the
        last bit).
        """
        xp = np if isinstance(t, np.ndarray) else math
        u = t / self.ramp_time
        gauss = xp.exp(-u * u)
        ramp = 1.0 - gauss
        dramp = 2.0 * t / (self.ramp_time * self.ramp_time) * gauss

        arg_l = self.osc_freq * t + self.phase_lambda
        arg_d = self.osc_freq * t + self.phase_D
        osc_l = self.mean_lambda + self.amp_lambda * xp.cos(arg_l)
        osc_d = self.mean_D + self.amp_D * xp.cos(arg_d)
        dosc_l = -self.amp_lambda * self.osc_freq * xp.sin(arg_l)
        dosc_d = -self.amp_D * self.osc_freq * xp.sin(arg_d)

        return CoefficientSample(ramp * osc_l, ramp * osc_d,
                                 dramp * osc_l + ramp * dosc_l,
                                 dramp * osc_d + ramp * dosc_d)

    @property
    def periodic_from(self) -> float:
        """The time from which ``1 - exp(-u^2)`` rounds to 1.0 (u^2 >= 54 ln 2):
        from there on the coefficients repeat with period 2*pi/osc_freq."""
        return self.ramp_time * math.sqrt(54.0 * math.log(2.0))

    def describe(self) -> ProviderConfig:
        return ProviderConfig("phenomenological", asdict(self))


def _out_of_range(lo: float, hi: float, t: float) -> OutOfRange:
    return OutOfRange(
        f"time {float(t):g} outside coefficient table range [{lo:g}, {hi:g}]")


def _locate(kernel: tuple, t: float) -> tuple[int, float]:
    """The interval i of a table's kernel that holds the scalar time t, and
    t's offset d into it.

    A time within the kernel's slack outside the grid is clamped to its
    end; one further out raises OutOfRange.  Interval i holds
    knots[i] <= t < knots[i+1]; the last one is closed.
    """
    knots, lo, hi, slack, _ = kernel
    if t < lo:
        if t < lo - slack:
            raise _out_of_range(lo, hi, t)
        t = lo
    elif t > hi:
        if t > hi + slack:
            raise _out_of_range(lo, hi, t)
        t = hi
    i = bisect_right(knots, t, 1, len(knots) - 1) - 1
    return i, t - knots[i]


def _locate_all(grid: np.ndarray, kernel: tuple,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_locate` for every time of the array t, on the kernel's knots
    ``grid`` as an array: the intervals and the offsets into them.  The
    first time beyond the slack raises OutOfRange."""
    _, lo, hi, slack, _ = kernel
    outside = (t < lo - slack) | (t > hi + slack)
    if outside.any():
        raise _out_of_range(lo, hi, t[outside][0])
    t = np.clip(t, lo, hi)
    # The interval the scalar bisect picks, for every time.
    i = np.searchsorted(grid[1:-1], t, side="right")
    return i, t - grid[i]


def _gtsv(dl: list, d: list, du: list, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system for many right-hand sides, in place.

    A transcription of reference LAPACK ``dgtsv``: Gaussian elimination with
    partial pivoting, where row i and i+1 swap when ``|dl[i]| > |d[i]|``,
    then back substitution, every operation in LAPACK's order so the result
    is the one LAPACK gives.  ``dl``, ``d`` and ``du`` are the sub-, main
    and super-diagonal as float lists; ``b`` is an (n, columns) array of
    right-hand sides, each row operation taken on all columns at once,
    which the solutions overwrite; it is returned.  A zero pivot, which
    only a singular system has, raises ZeroDivisionError.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            row = b[i].copy()
            b[i] = b[i + 1]
            b[i + 1] = row - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _spline_kernel(tables: Sequence[TabulatedProvider]) -> tuple:
    """The kernel of natural cubic splines through K tables on one grid.

    The knot slopes of the 2K columns, the tables' lambda values, then
    their D values, solve one tridiagonal system, set up as scipy's
    ``CubicSpline(..., bc_type="natural")`` sets it up and solved by
    :func:`_gtsv` as LAPACK solves it; the pieces are then the cubic Hermite
    pieces of those slopes.  Each column's arithmetic is the one-column
    fit's, so a column's coefficients do not depend on its neighbours.

    Returns the knots as a list, the grid ends lo and hi, the slack within
    which a time outside them is clamped, and ``coefs``, shaped
    (intervals, 14, K): ``coefs[i, :, k]`` holds the coefficients of table
    k's four pieces on [grid[i], grid[i+1]) power by power: those of
    (lambda, D, dlambda/dt, dD/dt) for powers 0, 1 and 2, then the cubic
    terms of lambda and D; a derivative's are c1..c3 times (1, 2, 3).
    Adding 0.0 turns -0.0 into +0.0, as an evaluation whose sum starts
    from 0.0 does.
    """
    x = tables[0].grid
    y = np.column_stack([p.lambda_values for p in tables]
                        + [p.D_values for p in tables])
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # Row i reads dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1];
    # the natural end rows are 2 dx0 s0 + dx0 s1 = 3 (y1 - y0) and its mirror.
    h = dx.tolist()
    diag = np.concatenate([[2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]]])
    rhs = np.concatenate([[3 * (y[1] - y[0])],
                          3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:]),
                          [0.0 + 3 * (y[-1] - y[-2])]])
    s = _gtsv(h[1:] + h[-1:], diag.tolist(), h[:1] + h[:-1], rhs)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack([y[:-1], s[:-1], (slope - s[:-1]) / dxr - t, t / dxr])
    low = np.concatenate([c[:3], c[1:] * np.array([1.0, 2.0, 3.0])[:, None, None]], 2)
    intervals = len(x) - 1
    coefs = np.concatenate([low.transpose(1, 0, 2).reshape(intervals, -1), c[3]],
                           1).reshape(intervals, 14, -1) + 0.0
    lo, hi = float(x[0]), float(x[-1])
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    return x.tolist(), lo, hi, slack, coefs


@dataclass(frozen=True, eq=False)
class TabulatedProvider:
    """Natural cubic spline interpolation of both coefficients on a time grid.

    The grid is strictly increasing with at least four points.  Derivative
    samples are the spline's analytic derivative.  Queries outside the grid
    raise OutOfRange.  The knots are the ``breakpoints``.  ``source`` is
    the path the table was read from, kept verbatim for ``describe``.
    """

    grid: np.ndarray
    lambda_values: np.ndarray
    D_values: np.ndarray
    source: str | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        lam = np.asarray(self.lambda_values, dtype=float)
        dif = np.asarray(self.D_values, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise InvalidConfig("coefficient table needs at least 4 points")
        if lam.shape != grid.shape or dif.shape != grid.shape:
            raise InvalidConfig("coefficient table column lengths differ")
        if not (np.isfinite(grid).all() and np.isfinite(lam).all()
                and np.isfinite(dif).all()):
            raise InvalidConfig("coefficient table not finite")
        if np.diff(grid).min() <= 0:
            raise InvalidConfig("coefficient table grid not strictly increasing")
        for name, arr in (("grid", grid), ("lambda_values", lam), ("D_values", dif)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def breakpoints(self) -> np.ndarray:
        """The knots: each one ends a polynomial piece of the splines."""
        return self.grid

    @cached_property
    def _kernel(self):
        """The one-table case of :func:`_spline_kernel`, built once; its
        coefficients are one (intervals, 14) array."""
        knots, lo, hi, slack, coefs = _spline_kernel([self])
        return knots, lo, hi, slack, coefs[..., 0]

    def __call__(self, t: float | np.ndarray) -> CoefficientSample:
        """Spline-interpolate the table at time t (no extrapolation).

        Scalars and arrays are evaluated from the cached per-interval
        coefficients in scipy's summation order,
        ``c0 + c1*d + c2*d**2 + c3*(d**2*d)``, which reproduces
        scipy's ``CubicSpline.__call__`` bit for bit.
        """
        kernel = self._kernel
        coefs = kernel[4]
        if isinstance(t, np.ndarray):
            i, d = _locate_all(self.grid, kernel, t)
            c = coefs[i].T
        else:
            i, d = _locate(kernel, t)
            c = coefs[i].tolist()
        d2 = d * d
        d3 = d2 * d
        l0, f0, dl0, df0, l1, f1, dl1, df1, l2, f2, dl2, df2, l3, f3 = c
        return CoefficientSample(l0 + l1 * d + l2 * d2 + l3 * d3,
                                 f0 + f1 * d + f2 * d2 + f3 * d3,
                                 dl0 + dl1 * d + dl2 * d2,
                                 df0 + df1 * d + df2 * d2)

    def describe(self) -> ProviderConfig:
        params = {} if self.source is None else {"path": self.source}
        return ProviderConfig("tabulated", params)


class _TableStack:
    """Tables on one knot grid as one provider of N-vectors.

    A scalar call returns a ``CoefficientSample`` whose fields hold table
    i's scalar sample at entry i, an array call one whose fields are
    (N, times) arrays holding table i's array call in row i, bit for bit:
    the times are located once, as a table locates them, and a table's
    sums are taken elementwise in its order, the four quadratic parts
    together and the cubic terms of lambda and D last.  The coefficients
    come from one :func:`_spline_kernel` fit over all the tables' columns,
    taken on the first call; the shared knots are the ``breakpoints``.
    """

    def __init__(self, tables: Sequence[TabulatedProvider]):
        self.breakpoints = tables[0].grid
        self._tables = tables

    @cached_property
    def _kernel(self):
        """The fit, its coefficients one view per power (rows contiguous)."""
        knots, lo, hi, slack, coefs = _spline_kernel(self._tables)
        return knots, lo, hi, slack, tuple(coefs[:, a:a + 4] for a in (0, 4, 8, 12))

    def __call__(self, t: float | np.ndarray) -> CoefficientSample:
        kernel = self._kernel
        if isinstance(t, np.ndarray):
            i, d = _locate_all(self.breakpoints, kernel, t)
            c0, c1, c2, c3 = (np.moveaxis(p[i], 0, -1) for p in kernel[4])
        else:
            i, d = _locate(kernel, t)
            p0, p1, p2, p3 = kernel[4]
            c0, c1, c2, c3 = p0[i], p1[i], p2[i], p3[i]
        d2 = d * d
        # c0 + c1 d + c2 d^2, summed in place: IEEE addition commutes.
        x = c1 * d
        x += c0
        x += c2 * d2
        head = x[:2]
        head += c3 * (d2 * d)
        return CoefficientSample(x[0], x[1], x[2], x[3])


def _provider_bank(providers: Sequence[CoefficientProvider]
                   ) -> list[tuple[int | slice, CoefficientProvider]]:
    """The (rows, provider) pairs that sample every provider at a scalar t:
    the call of each fills the entries ``rows`` of the run's vectors.

    ``[(slice(None), stack)]``, one ``_TableStack``, when there are two or
    more providers, each exactly a ``TabulatedProvider`` (a subclass may
    override its call) and all on one grid; otherwise ``[(i, provider_i)]``,
    one call per provider.
    """
    if (len(providers) >= 2
            and all(type(p) is TabulatedProvider for p in providers)
            and all(np.array_equal(p.grid, providers[0].grid)
                    for p in providers[1:])):
        return [(slice(None), _TableStack(providers))]
    return list(enumerate(providers))


class ConstantProvider:
    """Time-independent coefficients; derivatives are exactly zero."""

    def __init__(self, lambda0: float, D0: float):
        if not (math.isfinite(lambda0) and math.isfinite(D0)):
            raise InvalidConfig("constant coefficients not finite")
        self.lambda0 = float(lambda0)
        self.D0 = float(D0)

    def __call__(self, t: float | np.ndarray) -> CoefficientSample:
        if isinstance(t, np.ndarray):
            return CoefficientSample(np.full(t.shape, self.lambda0),
                                     np.full(t.shape, self.D0),
                                     np.zeros(t.shape), np.zeros(t.shape))
        return CoefficientSample(self.lambda0, self.D0, 0.0, 0.0)

    def describe(self) -> ProviderConfig:
        return ProviderConfig("constant", {"lambda": self.lambda0, "D": self.D0})


def check_derivatives(provider: CoefficientProvider,
                      t_grid: Iterable[float],
                      h: float) -> float:
    """Compare reported derivatives against central finite differences.

    Returns the worst error over the grid, for both coefficient channels,
    relative to the largest finite-difference magnitude seen on the grid
    (so an identically constant provider scores exactly 0).  Every t - h
    must stay inside the provider's domain.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    ts = np.asarray(list(t_grid), dtype=float)
    sample = provider(ts)
    plus = provider(ts + h)
    minus = provider(ts - h)
    fd_l = (plus.friction - minus.friction) / (2.0 * h)
    fd_d = (plus.diffusion - minus.diffusion) / (2.0 * h)

    worst = 0.0
    for rep, fd in ((sample.dfriction_dt, fd_l), (sample.ddiffusion_dt, fd_d)):
        scale = float(np.abs(fd).max())
        if scale == 0.0 and float(np.abs(rep).max()) == 0.0:
            continue
        worst = max(worst, float(np.abs(rep - fd).max()) / max(scale, 1e-300))
    return worst


def read_coefficient_csv(path: str | Path) -> TabulatedProvider:
    """Load a ``t,lambda,D`` CSV (header required, strictly increasing t).

    Blank and ``#`` lines and a leading UTF-8 byte-order mark are skipped.
    Every error names the file, and a row's error its line number.
    The provider's ``source`` is ``str(path)`` as given, not normalised.
    """
    where = f"coefficient csv {Path(path)}"
    try:
        with Path(path).open(encoding="utf-8-sig", newline="") as f:
            data = _csv_floats(f, ["t", "lambda", "D"], where, InvalidConfig)
    except OSError as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{where}: not UTF-8 ({exc.reason})") from exc
    arr = np.asarray(data, dtype=float)
    if arr.shape[0] < 4:
        raise InvalidConfig(f"{where}: needs at least 4 rows")
    try:
        return TabulatedProvider(grid=arr[:, 0], lambda_values=arr[:, 1],
                                 D_values=arr[:, 2], source=str(path))
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc


class _Kind(NamedTuple):
    keys: tuple[str, ...]  # in serialization order
    required: tuple[str, ...]
    build: Callable[[dict], CoefficientProvider]  # a ProviderConfig's params
    text: tuple[str, ...] = ()  # keys read as text
    flags: tuple[str, ...] = ()  # keys read as booleans; the others are numbers


#: Every scenario coefficient kind, declared once for the scenario grammar and
#: :func:`make_provider`.  A ``build`` KeyError names a missing key, a
#: TypeError a bad argument; a table's path is read from the working directory.
KINDS = {
    "constant": _Kind(("lambda", "D"), ("lambda", "D"), lambda p: ConstantProvider(
        float(p["lambda"]), float(p["D"]))),
    "phenomenological": _Kind(
        tuple(f.name for f in fields(PhenomenologicalProvider)),
        tuple(f.name for f in fields(PhenomenologicalProvider) if f.default is MISSING),
        lambda p: PhenomenologicalProvider(**p), flags=("allow_negative_friction",)),
    "tabulated": _Kind(("path",), ("path",), lambda p: read_coefficient_csv(p["path"]),
                       text=("path",)),
}


def make_provider(pc: ProviderConfig) -> CoefficientProvider:
    """Build a provider from its declarative description."""
    if pc.kind not in KINDS:
        raise InvalidConfig(f"unknown coefficient kind '{pc.kind}'")
    for key, _ in pc.params:
        if key not in KINDS[pc.kind].keys:
            raise InvalidConfig(f"{pc.kind} provider: unknown key '{key}'")
    try:
        return KINDS[pc.kind].build(pc.as_dict())
    except KeyError as exc:
        raise InvalidConfig(f"{pc.kind} provider missing key {exc}") from exc
    except TypeError as exc:
        raise InvalidConfig(f"{pc.kind} provider: {exc}") from exc
