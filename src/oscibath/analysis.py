"""Late-time observables of occupation-number traces.

Estimators for the quantities the simulations are about: the dominant
late-time period (autocorrelation-primary with a spectral cross-check), the
oscillation envelope and its modulation depth, and two-channel
synchronization (period ratio and an analytic-signal phase-lock score).

All functions work on a plain (t, x) sample pair restricted to an analysis
window; every statistic an estimator reports comes from the samples of that
one window.  They are pure and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SimulationConfig

__all__ = [
    "AnalysisError",
    "TooShort",
    "NoOscillation",
    "AmbiguousPeriod",
    "TooFewPeaks",
    "OscillationReport",
    "EnvelopeReport",
    "SyncReport",
    "extract_period",
    "envelope",
    "synchronization_metrics",
]

#: Minimum number of samples an analysis window must contain.
MIN_WINDOW_SAMPLES = 64

#: The two period estimators must agree to this relative tolerance.
ESTIMATOR_AGREEMENT = 0.10

_TINY = 1e-300


class AnalysisError(Exception):
    """Base class for analysis failures."""


class TooShort(AnalysisError):
    """The series is too short for the requested estimator."""


class NoOscillation(AnalysisError):
    """The windowed signal is stationary; no period exists.

    Carries the partial ``report`` (mean level, standard deviation,
    stationarity flag).
    """

    def __init__(self, message: str, report: "OscillationReport"):
        super().__init__(message)
        self.report = report


class AmbiguousPeriod(AnalysisError):
    """The autocorrelation and spectral estimates disagree."""


class TooFewPeaks(AnalysisError):
    """Fewer than three local maxima in the analysis window."""


@dataclass(frozen=True)
class OscillationReport:
    """Late-time oscillation summary for one channel.

    ``mean_level`` and ``std`` are the mean and standard deviation of the
    window's samples.  ``period`` and ``period_uncertainty`` are None when
    the channel is stationary; ``amplitude`` is the mean peak-to-trough
    half-range.
    """

    mean_level: float
    std: float
    amplitude: float | None
    period: float | None
    period_uncertainty: float | None
    is_stationary: bool


@dataclass(frozen=True)
class EnvelopeReport:
    """Local maxima of one channel and the relative spread of their values."""

    peak_times: tuple[float, ...]
    peak_values: tuple[float, ...]
    modulation_depth: float


@dataclass(frozen=True)
class SyncReport:
    """Two-channel synchronization summary."""

    period_a: float
    period_b: float
    period_uncertainty_a: float
    period_uncertainty_b: float
    period_ratio: float
    ratio_uncertainty: float
    phase_lock_score: float


def _slice_window(t: np.ndarray, x: np.ndarray,
                  window: tuple[float, float] | None):
    """The samples inside the window (all for None); AnalysisError unless
    max |x| < 2**500 / x.size: no sum of x.size squares then overflows."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if window is not None:
        ta, tb = window
        slack = 1e-9 * max(abs(ta), abs(tb), 1.0)
        ia = int(np.searchsorted(t, ta - slack, side="left"))
        ib = int(np.searchsorted(t, tb + slack, side="right"))
        t, x = t[ia:ib], x[ia:ib]
    peak = float(np.abs(x).max(initial=0.0))
    if not peak * x.size < 2.0**500:  # NaN fails too
        raise AnalysisError(f"a value of magnitude {peak:.6g} is too large to "
                            f"analyse (the bound is 2**500 / {x.size} samples)")
    return t, x


def _tukey(m: int, alpha: float) -> np.ndarray:
    """Symmetric Tukey (tapered cosine) window of m >= 2 points, 0 < alpha < 1.

    Cosine tapers over the first and last ``alpha/2`` of the window with a
    flat top of ones between them, in the closed form (and the operation
    order) of scipy's ``signal.windows.tukey``.
    """
    n = np.arange(0, m, dtype=float)
    width = int(math.floor(alpha * (m - 1) / 2.0))
    n1 = n[0:width + 1]
    n3 = n[m - width - 1:]
    w1 = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n1 / alpha / (m - 1))))
    w3 = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n3 / alpha / (m - 1))))
    return np.concatenate([w1, np.ones(m - w1.size - w3.size), w3])


def _detrend(x: np.ndarray) -> np.ndarray:
    """x minus its least-squares straight line in the sample index."""
    m = x.size
    design = np.ones((m, 2))
    design[:, 0] = np.arange(1, m + 1, dtype=float) / m
    coef = np.linalg.lstsq(design, x, rcond=None)[0]
    return x - design @ coef


def _hilbert(x: np.ndarray) -> np.ndarray:
    """Analytic signal of a real series by the FFT (Marple 1999).

    The spectrum keeps the zero-frequency bin (and, for even length, the
    Nyquist bin), doubles every other positive-frequency bin and zeroes the
    negative ones; its inverse transform is x plus i times the Hilbert
    transform of x.  The positive bins of a real series' transform are
    those of ``rfft``.
    """
    m = x.size
    half = np.fft.rfft(x)
    spectrum = np.zeros(m, dtype=complex)
    spectrum[:half.size] = half
    spectrum[1:(m + 1) // 2] *= 2.0
    return np.fft.ifft(spectrum)


def _parabolic_offset(ym, y0, yp):
    """Elementwise vertex offset of the parabola through three samples."""
    denom = ym - 2.0 * y0 + yp
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(denom == 0.0, 0.0, 0.5 * (ym - yp) / denom)
    return np.clip(delta, -0.5, 0.5)


def _acf_period(xc: np.ndarray, dt: float) -> float:
    """Lag of the dominant autocorrelation peak, sub-sample refined."""
    m = xc.size
    nfft = 1 << int(math.ceil(math.log2(2 * m)))
    spec = np.abs(np.fft.rfft(xc, nfft)) ** 2
    acf = np.fft.irfft(spec)[:m] / m
    acf = acf / acf[0]

    negative = np.nonzero(acf < 0)[0]
    if negative.size == 0:
        raise AmbiguousPeriod("autocorrelation never dips; no dominant period")
    start = int(negative[0])
    maxlag = m // 2
    if start >= maxlag:
        raise AmbiguousPeriod("autocorrelation dip beyond half the window")
    k = start + int(np.argmax(acf[start:maxlag]))
    k = min(max(k, 1), m - 2)
    delta = _parabolic_offset(acf[k - 1], acf[k], acf[k + 1])
    return float((k + delta) * dt)


def _spectral_period(xc: np.ndarray, dt: float, span: float) -> float:
    """Period of the dominant spectral peak (tapered, zero-padded, refined)."""
    m = xc.size
    xs = xc * _tukey(m, 0.2)
    nfft = 8 * (1 << int(math.ceil(math.log2(m))))
    spec = np.abs(np.fft.rfft(xs, nfft))
    freqs = np.fft.rfftfreq(nfft, dt)
    k_lo = int(np.searchsorted(freqs, 1.5 / span))
    if k_lo >= spec.size - 1:
        raise AmbiguousPeriod("analysis window too short for any resolvable period")
    k = k_lo + int(np.argmax(spec[k_lo:]))
    k = min(max(k, 1), spec.size - 2)
    logs = np.log(spec[k - 1:k + 2] + _TINY)
    delta = _parabolic_offset(logs[0], logs[1], logs[2])
    f_ref = freqs[k] + delta * (freqs[1] - freqs[0])
    if f_ref <= 0:
        raise AmbiguousPeriod("no positive-frequency spectral peak")
    return 1.0 / f_ref


def _local_maxima(t: np.ndarray, x: np.ndarray):
    """3-point local maxima with quadratic sub-sample refinement."""
    i = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    delta = _parabolic_offset(x[i - 1], x[i], x[i + 1])
    return (t[i] + delta * (t[i + 1] - t[i]),
            x[i] - 0.25 * (x[i - 1] - x[i + 1]) * delta)


def extract_period(t: np.ndarray, x: np.ndarray,
                   window: tuple[float, float] | None = None,
                   atol: float = SimulationConfig.atol) -> OscillationReport:
    """Dominant late-time period of one channel.

    Primary estimate: the dominant autocorrelation peak of the mean-subtracted
    windowed signal, refined by quadratic interpolation; cross-checked against
    the dominant bin of the tapered, zero-padded spectrum.  ``atol`` feeds the
    stationarity threshold (use the integrator's absolute tolerance when the
    data came from a simulation).

    Raises NoOscillation for stationary signals, AmbiguousPeriod when the two
    estimators disagree by more than 10%, TooShort for windows under 64
    samples.
    """
    tw, xw = _slice_window(t, x, window)
    if tw.size < MIN_WINDOW_SAMPLES:
        raise TooShort(f"analysis window has {tw.size} samples; "
                       f"need {MIN_WINDOW_SAMPLES}")
    dt = float(tw[1] - tw[0])
    span = float(tw[-1] - tw[0])
    mean_level = float(xw.mean())
    sd = float(xw.std())

    if sd < max(100.0 * atol, 1e-6 * abs(mean_level)):
        report = OscillationReport(
            mean_level=mean_level, std=sd,
            amplitude=None, period=None, period_uncertainty=None,
            is_stationary=True)
        raise NoOscillation("signal is stationary over the analysis window",
                            report)

    xc = xw - mean_level
    p_acf = _acf_period(xc, dt)
    p_fft = _spectral_period(xc, dt, span)
    if abs(p_acf - p_fft) > ESTIMATOR_AGREEMENT * p_acf:
        raise AmbiguousPeriod(
            f"autocorrelation period {p_acf:.6g} and spectral period "
            f"{p_fft:.6g} disagree by more than 10%")

    _, peak_vals = _local_maxima(tw, xw)
    _, trough_vals = _local_maxima(tw, -xw)
    if peak_vals.size and trough_vals.size:
        amplitude = float((peak_vals.mean() + trough_vals.mean()) / 2.0)
    else:
        amplitude = float((xw.max() - xw.min()) / 2.0)

    return OscillationReport(
        mean_level=mean_level,
        std=sd,
        amplitude=amplitude,
        period=float(p_acf),
        period_uncertainty=float(max(dt, abs(p_acf - p_fft))),
        is_stationary=False,
    )


def envelope(t: np.ndarray, x: np.ndarray,
             window: tuple[float, float] | None = None) -> EnvelopeReport:
    """Peak envelope of one channel and its modulation depth.

    modulation_depth is the spread (max - min) of the refined peak values
    over the window divided by their mean.
    """
    tw, xw = _slice_window(t, x, window)
    times, values = _local_maxima(tw, xw)
    if times.size < 3:
        raise TooFewPeaks(f"found {times.size} local maxima; need 3")
    spread = float(values.max() - values.min())
    depth = spread / max(abs(float(values.mean())), _TINY)
    return EnvelopeReport(peak_times=tuple(times), peak_values=tuple(values),
                          modulation_depth=depth)


def _instantaneous_phase(xw: np.ndarray) -> np.ndarray:
    xd = _detrend(xw)
    xd = xd * _tukey(xd.size, 0.2)
    return np.angle(_hilbert(xd))


def _taper_interior(size: int) -> slice:
    # flat part of the Tukey(0.2) window; phase estimates inside the tapered
    # 10% bands carry transform edge artifacts and are excluded from means
    edge = int(math.ceil(0.1 * size))
    return slice(edge, size - edge)


def synchronization_metrics(t: np.ndarray, x_a: np.ndarray, x_b: np.ndarray,
                            window: tuple[float, float] | None = None,
                            atol: float = SimulationConfig.atol, *,
                            reports: tuple[OscillationReport, OscillationReport]
                            | None = None) -> SyncReport:
    """Period ratio and phase-lock score of two channels.

    phase_lock_score is the magnitude of the mean phasor of the
    analytic-signal phase difference over the window (taken on the untapered
    interior): 1 for perfect locking, near 0 for unrelated phases.
    ``reports`` are the two channels' extract_period reports over the same
    window; given them, no period is estimated and ``atol`` is unused.
    Otherwise stationary channels propagate NoOscillation.
    """
    report_a, report_b = reports or (extract_period(t, x_a, window, atol),
                                     extract_period(t, x_b, window, atol))
    _, xa = _slice_window(t, x_a, window)
    _, xb = _slice_window(t, x_b, window)
    phase_diff = _instantaneous_phase(xa) - _instantaneous_phase(xb)
    interior = _taper_interior(phase_diff.size)
    score = float(np.abs(np.mean(np.exp(1j * phase_diff[interior]))))

    pa, pb = report_a.period, report_b.period
    ua, ub = report_a.period_uncertainty, report_b.period_uncertainty
    ratio = pa / pb
    ratio_unc = ratio * math.hypot(ua / pa, ub / pb)
    return SyncReport(period_a=pa, period_b=pb,
                      period_uncertainty_a=ua, period_uncertainty_b=ub,
                      period_ratio=ratio, ratio_uncertainty=ratio_unc,
                      phase_lock_score=score)

