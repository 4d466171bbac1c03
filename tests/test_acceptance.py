"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Oracles are closed forms (constant-coefficient relaxation, zero-dissipation
normal modes) plus structural checks on the bundled demos.
"""

import math
from contextlib import contextmanager

import numpy as np

from oscibath.analysis import extract_period
from oscibath.cli import cmd_demo
from oscibath.coefficients import (
    ConstantProvider,
    PhenomenologicalProvider,
    check_derivatives,
    make_provider,
)
from oscibath.csvio import read_timeseries_csv
from oscibath.integrator import (
    integrate_coupled,
    integrate_single_first_order,
)
from oscibath.model import (
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)
from oscibath.scenario import apply_override, build_config, demo_fig2_scenario, read_sections
from rk4 import convergence_order


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} FAIL - {title}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS - {title}")


def run_fig2_variant(omega: float, n0: float):
    """The fig2 demo pipeline with omega / n0 overridden at scenario level."""
    sections = read_sections(demo_fig2_scenario())
    sections = apply_override(sections, "oscillator.1.omega", repr(omega))
    sections = apply_override(sections, "oscillator.1.n0", repr(n0))
    if omega < 1.0:
        # keep several late-time periods in the analysis window
        sections = apply_override(sections, "integration.t_end", "100")
    config = build_config(sections)
    providers = [make_provider(pc) for pc in config.provider_config]
    series = integrate_coupled(config, providers)
    window = (config.t_end / 2.0, config.t_end)
    return extract_period(series.t, series.n[0], window, atol=config.atol)


def test_criterion_1_constant_coefficient_oracle():
    with criterion(1, "constant-coefficient closed form and asymptote"):
        ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0),
                                          ConstantProvider(0.5, 0.25),
                                          t_end=20.0)
        i1 = int(round(1.0 / ts.output_dt))
        assert abs(ts.n[0][i1] - 0.31606028) <= 1e-8
        assert abs(ts.n[0][-1] - 0.5) <= 1e-6


def test_criterion_2_first_second_order_equivalence():
    with criterion(2, "first/second-order solves agree for consistent slope"):
        provider = PhenomenologicalProvider(0.1, 0.05, 0.05, 0.04,
                                            osc_freq=1.0, phase_D=math.pi)
        first = integrate_single_first_order(
            OscillatorSpec(1.0, n0=0.0), provider, t_end=50.0,
            rtol=1e-12, atol=1e-14)
        second = integrate_coupled(SimulationConfig(
            oscillators=(OscillatorSpec(1.0, n0=0.0, v0=0.0),),
            provider_config=(ProviderConfig("custom"),),
            coupling=CouplingNetwork.none(1), t_end=50.0,
            rtol=1e-12, atol=1e-14), [provider])
        assert np.abs(first.n[0] - second.n[0]).max() <= 1e-8


def test_criterion_3_zero_coupling_decouples():
    with criterion(3, "beta = 0 coupled run equals independent runs"):
        p1 = PhenomenologicalProvider(
            0.1, 0.05, 0.05, 0.04, osc_freq=1.0, phase_D=math.pi)
        p2 = PhenomenologicalProvider(
            0.2, 0.05, 0.05, 0.05, osc_freq=1.5, phase_lambda=math.pi)
        oscs = (OscillatorSpec(1.0), OscillatorSpec(1.5))
        config = SimulationConfig(
            oscillators=oscs, provider_config=(ProviderConfig("custom"),) * 2,
            coupling=CouplingNetwork.none(2), t_end=30.0,
            rtol=1e-12, atol=1e-14)
        both = integrate_coupled(config, [p1, p2])
        for i, (osc, provider) in enumerate(zip(oscs, (p1, p2))):
            alone = integrate_coupled(SimulationConfig(
                oscillators=(osc,), provider_config=(ProviderConfig("custom"),),
                coupling=CouplingNetwork.none(1), t_end=30.0,
                rtol=1e-12, atol=1e-14), [provider])
            assert np.abs(both.n[i] - alone.n[0]).max() <= 1e-9


def test_criterion_4_zero_dissipation_normal_modes():
    with criterion(4, "normal-mode oracle and conserved linear sum"):
        half_period = math.pi / math.sqrt(2.0)
        config = SimulationConfig(
            oscillators=(OscillatorSpec(1.0, n0=1.0), OscillatorSpec(1.0, n0=0.0)),
            provider_config=(ProviderConfig("constant",
                                            {"lambda": 0.0, "D": 0.0}),) * 2,
            coupling=CouplingNetwork.uniform(2, 1.0),
            t_end=2.0 * half_period, output_dt=half_period / 100.0)
        ts = integrate_coupled(config, [ConstantProvider(0.0, 0.0)] * 2)
        assert abs(ts.n[0][100]) <= 1e-7  # n1 at t = pi/sqrt(2)
        total = ts.n.sum(axis=0)
        assert abs(np.polyfit(ts.t, total, 2)[0]) <= 1e-9


def test_criterion_5_non_stationary_asymptotics():
    with criterion(5, "late-time period tracks 2*pi/omega, not n0"):
        for omega in (0.5, 1.0, 2.0):
            report = run_fig2_variant(omega, n0=0.0)
            assert not report.is_stationary
            target = 2.0 * math.pi / omega
            assert abs(report.period - target) <= 0.02 * target
        reports = [run_fig2_variant(1.0, n0) for n0 in (0.0, 0.5, 1.0)]
        for a in reports:
            for b in reports:
                assert abs(a.period - b.period) <= (a.period_uncertainty
                                                    + b.period_uncertainty)


def test_criterion_6_modulation_grows_with_coupling(fig4_demo_dir):
    with criterion(6, "modulation depth nondecreasing in beta, both channels"):
        rows = (fig4_demo_dir / "fig4_summary.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert [row.split(",")[header.index("value")] for row in rows[1:]] \
            == ["0.05", "0.2", "0.5"]
        for column in ("modulation_depth_1", "modulation_depth_2"):
            idx = header.index(column)
            depths = [float(row.split(",")[idx]) for row in rows[1:]]
            assert all(a <= b for a, b in zip(depths, depths[1:]))


def test_criterion_7_weak_coupling_tracks_eigenfrequencies(fig4_demo_dir):
    with criterion(7, "weak-coupling periods near the oscillator periods"):
        data = read_timeseries_csv(fig4_demo_dir / "fig4_beta0.05.csv")
        window = (data.t[-1] / 2.0, data.t[-1])
        for channel, omega in ((0, 2.0), (1, 3.0)):
            report = extract_period(data.t, data.n[channel], window,
                                    atol=1e-12)
            target = 2.0 * math.pi / omega
            assert abs(report.period - target) <= 0.05 * target


def test_criterion_8_rk4_convergence_order():
    with criterion(8, "fixed-step RK4 observed order 4.0 +- 0.2"):
        def relaxation(t, y):
            return np.array([-y[0] + 0.5])

        exact = [0.25 / 0.5 * (1.0 - math.exp(-2.0))]
        orders = convergence_order(relaxation, (0.0, 2.0), [0.0], exact,
                                   (20, 40, 80))
        assert np.all(np.abs(orders - 4.0) <= 0.2)

        def normal_modes(t, y):
            return np.array([y[2], y[3], -(y[0] - y[1]), -(y[1] - y[0])])

        t_end = math.pi / math.sqrt(2.0)
        orders = convergence_order(normal_modes, (0.0, t_end),
                                   [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                   (40, 80, 160))
        assert np.all(np.abs(orders - 4.0) <= 0.2)


def test_criterion_9_provider_derivative_consistency():
    with criterion(9, "analytic providers match central differences"):
        rng = np.random.default_rng(20260809)
        times = rng.uniform(0.05, 40.0, size=1000)
        phen = PhenomenologicalProvider(
            0.1, 0.05, 0.05, 0.04, osc_freq=1.0, phase_D=math.pi)
        assert check_derivatives(phen, times, h=1e-4) <= 1e-6
        assert check_derivatives(ConstantProvider(0.5, 0.25),
                                 times, h=1e-4) <= 1e-6


def test_criterion_10_demo_determinism(tmp_path):
    with criterion(10, "repeated fig2 demo is byte-identical"):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert cmd_demo("fig2", str(dir_a)) == 0
        assert cmd_demo("fig2", str(dir_b)) == 0
        bytes_a = (dir_a / "fig2.csv").read_bytes()
        bytes_b = (dir_b / "fig2.csv").read_bytes()
        assert bytes_a == bytes_b
