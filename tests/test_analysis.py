import math

import numpy as np
import pytest
from scipy.signal import detrend, hilbert
from scipy.signal.windows import tukey

from oscibath import analysis
from oscibath.analysis import (
    AmbiguousPeriod,
    NoOscillation,
    TooFewPeaks,
    TooShort,
    envelope,
    extract_period,
    synchronization_metrics,
    _detrend,
    _hilbert,
    _tukey,
)
from oscibath.coefficients import PhenomenologicalProvider
from oscibath.integrator import integrate_coupled, integrate_single_first_order
from oscibath.model import (
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)

DT = 0.01


def grid(t_end, dt=DT):
    return np.arange(0.0, t_end + dt / 2, dt)


class TestExtractPeriod:
    def test_synthetic_known_period(self):
        t = grid(60.0)
        x = 2.0 + np.sin(2.0 * math.pi * t / 3.0)
        report = extract_period(t, x)
        assert report.period == pytest.approx(3.0, abs=0.003)
        assert not report.is_stationary
        assert report.mean_level == pytest.approx(2.0, abs=0.01)
        assert report.amplitude == pytest.approx(1.0, abs=0.01)

    def test_constant_series_is_stationary(self):
        t = grid(30.0)
        with pytest.raises(NoOscillation) as excinfo:
            extract_period(t, np.full_like(t, 0.5))
        assert excinfo.value.report.is_stationary
        assert excinfo.value.report.period is None
        assert excinfo.value.report.mean_level == pytest.approx(0.5)

    def test_std_is_that_of_the_window_samples(self):
        # 35 * 0.01 rounds to just above 0.35, so the window (-0.3, 0.35)
        # ends on a sample a plain t <= 0.35 mask would drop; the report's
        # std must come from the samples the estimator itself keeps.
        t = 0.01 * np.arange(-40, 100)
        x = np.sin(2.0 * math.pi * t / 0.2)
        kept = slice(10, 76)
        assert t[kept][0] == -0.3 and t[kept][-1] > 0.35 and t[76] > 0.351
        report = extract_period(t, x, (-0.3, 0.35))
        assert report.std == np.std(x[kept])
        assert report.std != np.std(x[(t >= -0.3) & (t <= 0.35)])

        with pytest.raises(NoOscillation) as excinfo:
            extract_period(t, 0.5 + 1e-9 * x, (-0.3, 0.35))
        assert excinfo.value.report.std == np.std(0.5 + 1e-9 * x[kept])

    def test_pipeline_inherits_coefficient_period(self):
        # the integrated occupation number oscillates at the coefficient
        # frequency: full pipeline from provider through the solver
        provider = PhenomenologicalProvider(0.1, 0.05, 0.05, 0.04, osc_freq=1.0,
                                            phase_D=math.pi)
        ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0), provider,
                                          t_end=50.0)
        report = extract_period(ts.t, ts.n[0], (25.0, 50.0), atol=1e-12)
        assert not report.is_stationary
        assert report.period == pytest.approx(2.0 * math.pi, rel=0.02)

    def test_affine_invariance(self):
        t = grid(60.0)
        x = np.sin(2.0 * math.pi * t / 3.0)
        base = extract_period(t, x)
        scaled = extract_period(t, 3.7 * x + 5.0)
        assert abs(scaled.period - base.period) <= base.period_uncertainty

    def test_window_translation_by_whole_periods(self):
        t = grid(120.0)
        period = 3.0
        x = np.sin(2.0 * math.pi * t / period)
        a = extract_period(t, x, (10.0, 50.0))
        b = extract_period(t, x, (10.0 + 5 * period, 50.0 + 5 * period))
        assert abs(a.period - b.period) <= (a.period_uncertainty
                                            + b.period_uncertainty)

    def test_white_noise_is_ambiguous(self):
        t = grid(60.0)
        x = np.random.default_rng(0).normal(size=t.size)
        with pytest.raises(AmbiguousPeriod):
            extract_period(t, x)

    def test_monotone_growth_is_ambiguous(self):
        t = grid(60.0)
        with pytest.raises(AmbiguousPeriod):
            extract_period(t, np.exp(0.1 * t))

    def test_window_must_hold_64_samples(self):
        t = grid(60.0)
        x = np.sin(t)
        with pytest.raises(TooShort):
            extract_period(t, x, (10.0, 10.5))


class TestEnvelope:
    @pytest.mark.parametrize("amp,freq", [(1.0, 1.0), (0.3, 2.5), (40.0, 0.7)])
    def test_pure_sine_has_flat_envelope(self, amp, freq):
        t = grid(80.0)
        report = envelope(t, amp * np.sin(freq * t))
        assert report.modulation_depth <= 1e-3

    def test_known_amplitude_modulation(self):
        # peak values sweep (1 +- 0.3), so depth = 0.6 / 1.0
        t = grid(130.0)
        x = (1.0 + 0.3 * np.sin(0.1 * t)) * np.sin(t)
        report = envelope(t, x)
        assert report.modulation_depth == pytest.approx(0.6, abs=0.05)
        assert np.all(np.diff(report.peak_times) > 0)

    def test_too_few_peaks(self):
        t = grid(3.0)
        with pytest.raises(TooFewPeaks):
            envelope(t, np.sin(t))


class TestSynchronization:
    def test_identical_channels(self):
        t = grid(60.0)
        x = np.sin(t)
        sync = synchronization_metrics(t, x, x)
        assert sync.period_ratio == pytest.approx(1.0, abs=1e-6)
        assert sync.phase_lock_score == pytest.approx(1.0, abs=1e-6)

    def test_constant_phase_offset_locks(self):
        t = grid(60.0)
        sync = synchronization_metrics(t, np.sin(t), np.sin(t + 0.4))
        assert sync.period_ratio == pytest.approx(1.0, abs=0.01)
        assert sync.phase_lock_score >= 0.999

    def test_score_is_symmetric(self):
        t = grid(60.0)
        a = np.sin(t)
        b = np.sin(1.3 * t + 0.2)
        ab = synchronization_metrics(t, a, b)
        ba = synchronization_metrics(t, b, a)
        assert ab.phase_lock_score == ba.phase_lock_score

    def test_uncoupled_detuned_runs_track_eigenfrequencies(self):
        reports = []
        for omega in (1.0, 1.5):
            provider = PhenomenologicalProvider(0.1, 0.05, 0.05, 0.04,
                                                osc_freq=omega, phase_D=math.pi)
            config = SimulationConfig(
                oscillators=(OscillatorSpec(omega, n0=0.0, v0=0.0),),
                provider_config=(ProviderConfig("custom"),),
                coupling=CouplingNetwork.none(1), t_end=50.0)
            ts = integrate_coupled(config, [provider])
            reports.append(ts)
        sync = synchronization_metrics(reports[0].t, reports[0].n[0],
                                       reports[1].n[0], (25.0, 50.0),
                                       atol=1e-12)
        assert sync.period_ratio == pytest.approx(1.5, rel=0.02)

    def test_given_reports_give_the_same_sync(self, monkeypatch):
        # The CLI passes the period reports it already printed; no period
        # is estimated again, and atol is not read.
        t = grid(60.0)
        a, b = np.sin(t), np.sin(1.3 * t + 0.2)
        window = (10.0, 60.0)
        expected = synchronization_metrics(t, a, b, window, atol=1e-12)
        reports = (extract_period(t, a, window, 1e-12),
                   extract_period(t, b, window, 1e-12))

        def no_estimate(*args, **kwargs):
            raise AssertionError("period estimated again")

        monkeypatch.setattr(analysis, "extract_period", no_estimate)
        assert synchronization_metrics(t, a, b, window, atol=math.nan,
                                       reports=reports) == expected

    def test_stationary_channel_propagates(self):
        t = grid(60.0)
        with pytest.raises(NoOscillation):
            synchronization_metrics(t, np.sin(t), np.full_like(t, 1.0))


def test_headline_property_no_asymptotic_limit():
    # positive-mean friction and diffusion with periodic late-time
    # oscillation: the occupation number keeps oscillating instead of
    # reaching a stationary value
    provider = PhenomenologicalProvider(0.12, 0.06, 0.06, 0.05, osc_freq=1.0,
                                        phase_D=math.pi)
    ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0), provider,
                                      t_end=50.0)
    report = extract_period(ts.t, ts.n[0], (25.0, 50.0), atol=1e-12)
    assert not report.is_stationary
    assert report.period is not None and report.period > 0


class TestSignalKernels:
    """The numpy window, detrend and analytic signal against scipy's."""

    @pytest.mark.parametrize("m", [64, 3773, 4000, 4001])
    def test_tukey_equals_scipy(self, m):
        assert np.array_equal(_tukey(m, 0.2), tukey(m, alpha=0.2))

    # numpy and scipy ship their own FFT and LAPACK builds, so only a
    # rounding-level agreement is portable.
    @pytest.mark.parametrize("m", [64, 1999, 2000, 3773, 4000, 4001])
    def test_detrend_and_hilbert_match_scipy(self, m):
        rng = np.random.default_rng(m)
        x = (np.sin(0.05 * np.arange(m)) + 0.3 * rng.normal(size=m)
             + np.linspace(0.0, 1.0, m))
        assert np.abs(_detrend(x) - detrend(x)).max() <= 1e-14
        assert np.abs(_hilbert(x) - hilbert(x)).max() <= 1e-14
