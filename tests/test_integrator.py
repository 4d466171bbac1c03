import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscibath

from oscibath.coefficients import (
    ConstantProvider,
    OutOfRange,
    make_provider,
    PhenomenologicalProvider,
    TabulatedProvider,
)
from oscibath.csvio import read_timeseries_csv, write_timeseries_csv
from oscibath.integrator import (
    IntegratorError,
    PositivityViolation,
    StepSizeUnderflow,
    integrate_coupled,
    integrate_single_first_order,
)
from oscibath.model import (
    CoefficientSample,
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
)
from oscibath.scenario import (
    demo_fig2_scenario,
    demo_fig4_scenario,
    parse_scenario,
)
from rk4 import convergence_order, rk4_fixed

STANDARD = PhenomenologicalProvider(
    mean_lambda=0.1, amp_lambda=0.05, mean_D=0.05, amp_D=0.04,
    osc_freq=1.0, phase_lambda=0.0, phase_D=math.pi, ramp_time=0.5)


def relaxation_exact(t, lam, diff, n0):
    """Closed form of dn/dt = -2 lam n + 2 diff with constant coefficients."""
    return diff / lam + (n0 - diff / lam) * np.exp(-2.0 * lam * t)


def single_second_order(osc, provider, t_end, rtol=1e-9, atol=1e-12):
    """One oscillator in second-order form: the coupled system with N = 1."""
    config = SimulationConfig(
        oscillators=(osc,), provider_config=(ProviderConfig("custom"),),
        coupling=CouplingNetwork.none(1), t_end=t_end, rtol=rtol, atol=atol)
    return integrate_coupled(config, [provider])


def coupled_config(osc1, osc2, beta, t_end, output_dt=0.01,
                   rtol=1e-9, atol=1e-12):
    return SimulationConfig(
        oscillators=(osc1, osc2),
        provider_config=(ProviderConfig("custom"),) * 2,
        coupling=CouplingNetwork.uniform(2, beta),
        t_end=t_end, output_dt=output_dt, rtol=rtol, atol=atol)


class TestFirstOrder:
    def test_zero_coefficients_keep_initial_value(self):
        ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.7),
                                          ConstantProvider(0.0, 0.0), t_end=10.0)
        assert np.abs(ts.n[0] - 0.7).max() == 0.0

    def test_constant_coefficients_match_closed_form(self):
        ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0),
                                          ConstantProvider(0.5, 0.25), t_end=20.0)
        exact = relaxation_exact(ts.t, 0.5, 0.25, 0.0)
        assert np.abs(ts.n[0] - exact).max() <= 1e-8
        i1 = int(round(1.0 / ts.output_dt))
        assert ts.n[0][i1] == pytest.approx(0.5 * (1.0 - math.exp(-1.0)),
                                            abs=1e-8)
        assert ts.n[0][-1] == pytest.approx(0.5, abs=1e-6)

    def test_grid_shape_and_rate_channel(self):
        ts = integrate_single_first_order(OscillatorSpec(1.0),
                                          ConstantProvider(0.5, 0.25),
                                          t_end=50.0, output_dt=0.01)
        assert ts.t.size == 5001
        assert ts.t[-1] == pytest.approx(50.0, abs=1e-9)
        # the rate channel is the right-hand side evaluated on the grid
        expected_v = -2.0 * ts.friction * ts.n + 2.0 * ts.diffusion
        assert np.abs(ts.v - expected_v).max() == 0.0

    def test_positivity_preserved(self):
        for provider in (ConstantProvider(0.5, 0.25), STANDARD):
            ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0),
                                              provider, t_end=30.0)
            assert ts.n.min() >= -10.0 * 1e-12
            assert ts.diagnostics["negative_excursions"] == 0

    def test_linearity_affine_superposition(self):
        provider = STANDARD
        runs = {}
        for n0 in (0.2, 0.8, 0.5):
            ts = integrate_single_first_order(OscillatorSpec(1.0, n0=n0),
                                              provider, t_end=30.0,
                                              rtol=1e-11, atol=1e-14)
            runs[n0] = ts.n[0]
        average = (runs[0.2] + runs[0.8]) / 2.0
        assert np.abs(runs[0.5] - average).max() <= 1e-8

    def test_tolerance_monotonicity(self):
        errors = []
        for rtol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            ts = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0),
                                              ConstantProvider(0.5, 0.25),
                                              t_end=20.0, rtol=rtol,
                                              atol=rtol * 1e-3)
            exact = relaxation_exact(ts.t, 0.5, 0.25, 0.0)
            errors.append(np.abs(ts.n[0] - exact).max())
        assert all(a >= b for a, b in zip(errors, errors[1:]))


class TestSecondOrder:
    def test_consistent_slope_matches_closed_form(self):
        # consistent slope with constant coefficients: v0 = 2 D(0) - 2 lam(0) n0
        ts = single_second_order(OscillatorSpec(1.0, n0=0.0, v0=0.5),
                                 ConstantProvider(0.5, 0.25),
                                 t_end=20.0)
        exact = relaxation_exact(ts.t, 0.5, 0.25, 0.0)
        assert np.abs(ts.n[0] - exact).max() <= 1e-8
        assert ts.diagnostics["consistency_residual_1"] == 0.0

    def test_matches_first_order_with_vanishing_initial_coefficients(self):
        provider = STANDARD
        first = integrate_single_first_order(OscillatorSpec(1.0, n0=0.0),
                                             provider, t_end=50.0,
                                             rtol=1e-12, atol=1e-14)
        second = single_second_order(OscillatorSpec(1.0, n0=0.0, v0=0.0),
                                     provider, t_end=50.0,
                                     rtol=1e-12, atol=1e-14)
        assert np.abs(first.n[0] - second.n[0]).max() <= 1e-8

    def test_inconsistent_slope_reported_and_solved(self):
        # With constant coefficients the general solution is
        # n = (n0 + v0/(2 lam)) - v0/(2 lam) exp(-2 lam t); v0 = 1 is a valid
        # trajectory of the second-order form but not of the first-order one.
        ts = single_second_order(OscillatorSpec(1.0, n0=0.0, v0=1.0),
                                 ConstantProvider(0.5, 0.25),
                                 t_end=10.0)
        assert ts.diagnostics["consistency_residual_1"] == pytest.approx(0.5)
        exact = 1.0 - np.exp(-ts.t)
        assert np.abs(ts.n[0] - exact).max() <= 1e-8
        first_order = relaxation_exact(ts.t, 0.5, 0.25, 0.0)
        assert np.abs(ts.n[0] - first_order).max() > 0.1

    def test_agrees_with_scipy_reference(self):
        # independent implementation check on a problem with no closed form
        from scipy.integrate import solve_ivp

        provider = STANDARD
        ts = single_second_order(OscillatorSpec(1.0, n0=0.3, v0=0.0),
                                 provider, t_end=30.0,
                                 rtol=1e-10, atol=1e-13)

        def rhs(t, y):
            s = provider(t)
            return [y[1], 2.0 * s.ddiffusion_dt - 2.0 * s.friction * y[1]
                    - 2.0 * s.dfriction_dt * y[0]]

        ref = solve_ivp(rhs, (0.0, 30.0), [0.3, 0.0], method="DOP853",
                        rtol=1e-11, atol=1e-13, t_eval=ts.t)
        assert np.abs(ts.n[0] - ref.y[0]).max() <= 1e-7


class TestAccuracy:
    # A rejected step is retried from the slope at the last accepted state;
    # retrying from the rejected attempt's end-point slope instead sets off
    # a cascade of rejections and leaves 10-100x the error measured here.

    def test_coupled_matches_dop853_reference(self):
        from scipy.integrate import solve_ivp

        config = coupled_config(OscillatorSpec(2.0),
                                OscillatorSpec(3.0, n0=0.3), 0.4, 12.0)
        series = integrate_coupled(config, [STANDARD, STANDARD])

        def rhs(t, y):
            s = STANDARD(t)
            n, v = y[:2], y[2:]
            return np.concatenate([v, 2.0 * s.ddiffusion_dt
                                   - 2.0 * s.friction * v
                                   - 2.0 * s.dfriction_dt * n
                                   - 0.4 * (n - n[::-1])])

        ref = solve_ivp(rhs, (0.0, 12.0), [0.0, 0.3, 0.0, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-16,
                        t_eval=series.t)
        assert np.abs(series.n - ref.y[:2]).max() <= 2e-9
        assert series.diagnostics["rejection_ratio"] <= 0.05

    def test_first_order_matches_dop853_reference(self):
        from scipy.integrate import solve_ivp

        series = integrate_single_first_order(OscillatorSpec(2.0, n0=0.3),
                                              STANDARD, t_end=12.0)

        def rhs(t, y):
            s = STANDARD(t)
            return -2.0 * s.friction * y + 2.0 * s.diffusion

        ref = solve_ivp(rhs, (0.0, 12.0), [0.3], method="DOP853",
                        rtol=1e-13, atol=1e-16, t_eval=series.t)
        assert np.abs(series.n - ref.y).max() <= 1.5e-8
        assert series.diagnostics["rejection_ratio"] <= 0.2


class TestCoupled:
    def test_zero_coupling_decouples(self):
        p1 = STANDARD
        p2 = PhenomenologicalProvider(
            0.2, 0.05, 0.05, 0.05, osc_freq=1.5, phase_lambda=math.pi,
            phase_D=0.0, ramp_time=0.5)
        osc1 = OscillatorSpec(1.0, n0=0.0, v0=0.0)
        osc2 = OscillatorSpec(1.5, n0=0.0, v0=0.0)
        config = coupled_config(osc1, osc2, 0.0, t_end=30.0,
                                rtol=1e-12, atol=1e-14)
        both = integrate_coupled(config, [p1, p2])
        for i, (osc, provider) in enumerate(((osc1, p1), (osc2, p2))):
            alone = single_second_order(osc, provider, t_end=30.0,
                                        rtol=1e-12, atol=1e-14)
            assert np.abs(both.n[i] - alone.n[0]).max() <= 1e-9

    def test_symmetric_manifold_stays_symmetric(self):
        provider = STANDARD
        osc = OscillatorSpec(1.0, n0=0.2, v0=0.0)
        config = coupled_config(osc, osc, 0.7, t_end=30.0)
        ts = integrate_coupled(config, [provider, provider])
        assert np.abs(ts.n[0] - ts.n[1]).max() <= 1e-9

    def test_normal_mode_oracle(self):
        # lam = D = 0, beta = 1, n = (1, 0), v = (0, 0):
        # sum obeys s'' = 0, difference obeys d'' = -2 beta d, so
        # n1 = (1 + cos(sqrt(2) t))/2 and n2 = (1 - cos(sqrt(2) t))/2.
        half_period = math.pi / math.sqrt(2.0)
        config = SimulationConfig(
            oscillators=(OscillatorSpec(1.0, n0=1.0), OscillatorSpec(1.0, n0=0.0)),
            provider_config=(ProviderConfig("constant", {"lambda": 0.0, "D": 0.0}),) * 2,
            coupling=CouplingNetwork.uniform(2, 1.0),
            t_end=2.0 * half_period, output_dt=half_period / 100.0)
        providers = [ConstantProvider(0.0, 0.0)] * 2
        ts = integrate_coupled(config, providers)
        exact1 = 0.5 * (1.0 + np.cos(math.sqrt(2.0) * ts.t))
        exact2 = 0.5 * (1.0 - np.cos(math.sqrt(2.0) * ts.t))
        assert np.abs(ts.n[0] - exact1).max() <= 1e-7
        assert np.abs(ts.n[1] - exact2).max() <= 1e-7
        assert abs(ts.n[0][100]) <= 1e-7  # n1(pi/sqrt(2)) = 0
        assert abs(ts.n[1][100] - 1.0) <= 1e-7

    def test_zero_dissipation_sum_is_linear(self):
        config = SimulationConfig(
            oscillators=(OscillatorSpec(1.0, n0=1.0, v0=0.3),
                         OscillatorSpec(1.0, n0=0.0, v0=-0.1)),
            provider_config=(ProviderConfig("constant", {"lambda": 0.0, "D": 0.0}),) * 2,
            coupling=CouplingNetwork.uniform(2, 1.0),
            t_end=10.0)
        ts = integrate_coupled(config, [ConstantProvider(0.0, 0.0)] * 2)
        total = ts.n.sum(axis=0)
        quad = np.polyfit(ts.t, total, 2)
        assert abs(quad[0]) <= 1e-9

    def test_negative_excursions_reported_not_clamped(self):
        # strong inconsistent slope drives n negative; the trace keeps the
        # excursion and the diagnostics report it
        config = coupled_config(OscillatorSpec(1.0, n0=0.0, v0=-1.0),
                                OscillatorSpec(1.0, n0=0.0, v0=0.0),
                                0.1, t_end=10.0)
        providers = [ConstantProvider(0.2, 0.0), ConstantProvider(0.2, 0.0)]
        ts = integrate_coupled(config, providers)
        assert ts.diagnostics["negative_excursions"] > 0
        assert ts.diagnostics["most_negative_n"] == pytest.approx(ts.n.min())
        assert ts.n.min() < 0


class TestErrorHandling:
    def test_step_size_underflow_on_nan(self):
        class GoesBad:
            def __call__(self, t):
                bad = math.nan if t > 1.0 else 0.1
                return CoefficientSample(bad, 0.0, 0.0, 0.0)

        with pytest.raises(StepSizeUnderflow):
            integrate_single_first_order(OscillatorSpec(1.0, n0=0.5),
                                         GoesBad(), t_end=5.0)

    def test_nonfinite_at_start_rejected(self):
        class BadAtZero:
            def __call__(self, t):
                return CoefficientSample(math.nan, 0.0, 0.0, 0.0)

        with pytest.raises(IntegratorError, match="not finite"):
            integrate_single_first_order(OscillatorSpec(1.0, n0=0.5),
                                         BadAtZero(), t_end=5.0)

    def test_provider_errors_propagate(self):
        grid = np.linspace(0.0, 5.0, 11)
        table = TabulatedProvider(grid=grid, lambda_values=0.1 * grid,
                                  D_values=0.05 * grid)
        with pytest.raises(OutOfRange):
            integrate_single_first_order(OscillatorSpec(1.0), table, t_end=10.0)


def dips_between_samples(t):
    """lambda = 0 and D = -0.1 sin^2(4 pi t): D <= 0, and exactly 0 at
    every multiple of 0.25, so an output grid of that spacing sees D = 0."""
    phase = math.pi * (4.0 * t - np.floor(4.0 * t))
    zero = 0.0 * t
    return CoefficientSample(zero, -0.1 * np.sin(phase) ** 2, zero,
                             -0.4 * math.pi * np.sin(2.0 * phase))


_POSITIVITY_SCRIPT = """
import sys
from oscibath.integrator import PositivityViolation, integrate_single_first_order
from oscibath.model import OscillatorSpec
from test_integrator import dips_between_samples
try:
    integrate_single_first_order(OscillatorSpec(1.0), dips_between_samples,
                                 t_end=2.0, output_dt=0.25)
except PositivityViolation:
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(1)
"""


class TestPositivity:
    # Checks use pytest.raises / pytest.fail rather than bare asserts so
    # the class also means something when pytest itself runs under -O.

    def test_violation_raises_named_error(self):
        with pytest.raises(PositivityViolation, match="positivity violated"):
            integrate_single_first_order(OscillatorSpec(1.0), dips_between_samples,
                                         t_end=2.0, output_dt=0.25)
        if not issubclass(PositivityViolation, IntegratorError):
            pytest.fail("PositivityViolation must be an IntegratorError")

    def test_violation_raises_under_python_O(self):
        src = Path(oscibath.__file__).resolve().parents[1]
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(tests), env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-O", "-c", _POSITIVITY_SCRIPT],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            pytest.fail(f"exit {proc.returncode}: {proc.stderr}")


class TestConvergence:
    def test_rk4_order_on_relaxation_problem(self):
        lam, diff = 0.5, 0.25

        def f(t, y):
            return np.array([-2.0 * lam * y[0] + 2.0 * diff])

        exact = [relaxation_exact(2.0, lam, diff, 0.0)]
        orders = convergence_order(f, (0.0, 2.0), [0.0], exact, (20, 40, 80))
        assert np.all(np.abs(orders - 4.0) <= 0.2)

    def test_rk4_order_on_normal_mode_problem(self):
        def f(t, y):
            return np.array([y[2], y[3], -(y[0] - y[1]), -(y[1] - y[0])])

        t_end = math.pi / math.sqrt(2.0)
        exact = [0.0, 1.0, 0.0, 0.0]
        orders = convergence_order(f, (0.0, t_end), [1.0, 0.0, 0.0, 0.0],
                                   exact, (40, 80, 160))
        assert np.all(np.abs(orders - 4.0) <= 0.2)

    def test_halving_reduces_error_by_at_least_14x(self):
        def f(t, y):
            return np.array([-y[0] + 0.5])

        exact = np.array([relaxation_exact(2.0, 0.5, 0.25, 0.0)])
        errors = []
        for n in (20, 40, 80):
            y = rk4_fixed(f, 0.0, 2.0, np.array([0.0]), n)
            errors.append(np.abs(y - exact).max())
        assert all(a / b >= 14.0 for a, b in zip(errors, errors[1:]))


TABLEAUX = pytest.mark.parametrize(
    "tableau", [oscibath.integrator._DP5, oscibath.integrator._DOP853],
    ids=["dp5", "dop853"])


class TestTableaux:
    """The Runge-Kutta pairs the stepper takes: DP5 for every stepped
    solve, DOP853 for the periodic tail's period solve."""

    @TABLEAUX
    def test_weights_and_nodes_are_consistent(self, tableau):
        # sum_j b_j = 1, and every stage's node is its row sum.
        eps = np.finfo(float).eps
        assert math.fsum(tableau.a[tableau.stages]) == 1.0
        assert len(tableau.a) == len(tableau.c) == tableau.dense.shape[1]
        for c, row in zip(tableau.c, tableau.a):
            assert abs(math.fsum(row) - c) <= 8.0 * eps * max(
                1.0, math.fsum(map(abs, row)))

    @TABLEAUX
    def test_interpolant_meets_the_step(self, tableau):
        # On every step the stepper hands out, the interpolant is y at
        # theta = 0, y_new at theta = 1 within a few eps of the state, and
        # its slope at theta = 0, rows[0] + rows[1] in the nested basis, is
        # the slope k0 at (t, y).
        basis = oscibath.integrator._basis
        eps = np.finfo(float).eps
        rate = np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.3],
                         [0.0, -0.3, -0.2]])

        def f(t, y):
            return math.cos(t) * (rate @ y) + np.array([0.1, math.sin(2 * t), 0])

        stats = {"steps_accepted": 0, "steps_rejected": 0,
                 "rhs_evaluations": 0, "h_min": math.inf, "h_max": 0.0}
        steps = list(oscibath.integrator._rk_steps(
            f, np.array([1.0, -0.5, 0.25]), 0.3, 5.0, 1e-6, 1e-9, [], stats,
            tableau))
        assert len(steps) > 5
        for t, h, t_new, y, y_new, rows in steps:
            assert rows.shape == (tableau.dense.shape[0], 3)
            at = y + h * (basis(np.array([0.0, 1.0]), len(rows)) @ rows)
            assert np.array_equal(at[0], y)
            assert (np.abs(at[1] - y_new).max()
                    <= 4.0 * eps * np.abs(y_new).max())
            k0 = f(t, y)
            assert (np.abs(rows[0] + rows[1] - k0).max()
                    <= 4.0 * eps * np.abs(k0).max())

    def test_dop853_global_error_falls_by_two_to_the_eighth(self):
        # y' = cos(t) y has y = exp(sin t): with n equal steps to t = 4,
        # each halving of h divides the error by about 2**8.
        tableau = oscibath.integrator._DOP853
        c, a, s = tableau.c, tableau.a, tableau.stages
        errors = []
        for n in (8, 16, 32):
            h, y, k = 4.0 / n, 1.0, np.empty(s)
            for m in range(n):
                for i in range(s):
                    k[i] = math.cos(m * h + c[i] * h) * (y + h * (a[i] @ k[:i]))
                y += h * (a[s] @ k)
            errors.append(abs(y - math.exp(math.sin(4.0))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 7.5 <= math.log2(coarse / fine) <= 8.5

    def test_dop853_is_the_published_tableau(self):
        # The transcribed coefficients are the published ones that scipy
        # ships, and the dense rows are scipy's nested terms F_j / h, so
        # that the interpolant is scipy's.
        published = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients")
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        module = oscibath.integrator
        tableau = module._DOP853
        assert np.array_equal(tableau.c, published.C)
        assert tableau.stages == published.N_STAGES
        for i, row in enumerate(tableau.a):
            assert np.array_equal(row, published.A[i, :i])
        assert np.array_equal(tableau.a[tableau.stages], published.B)
        assert np.array_equal(module._DOP853_E, [published.E5, published.E3])
        assert np.array_equal(module._DOP853_D, published.D)
        assert tableau.dense.shape[0] == published.INTERPOLATOR_POWER

        rng = np.random.default_rng(5)
        k = rng.normal(size=(published.N_STAGES_EXTENDED, 3))
        y, h = rng.normal(size=3), 0.7
        y_new = y + h * (tableau.a[tableau.stages] @ k[:tableau.stages])
        delta = y_new - y
        nested = np.vstack([delta, h * k[0] - delta,
                            2.0 * delta - h * (k[tableau.stages] + k[0]),
                            h * (published.D @ k)])
        rows = tableau.dense @ k
        eps = np.finfo(float).eps
        bound = 8.0 * eps * (h * (np.abs(tableau.dense) @ np.abs(k))
                             + np.abs(y) + np.abs(y_new))
        assert (np.abs(h * rows - nested) <= bound).all()
        theirs = rk.Dop853DenseOutput(0.0, h, y, nested)
        theta = np.linspace(0.0, 1.0, 11)
        ours = y + h * (module._basis(theta, len(rows)) @ rows)
        assert (np.abs(ours - theirs(theta * h).T) <= bound.sum(0)).all()

    def test_dp5_is_scipys_rk45_interpolant(self):
        # DP5 is scipy's RK45, and its nested rows give the quartic that
        # RK45 keeps in the power basis (RK45.P), up to that basis's
        # rounding.
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        module = oscibath.integrator
        tableau = module._DP5
        assert np.array_equal(tableau.c, [*rk.RK45.C, 1.0])
        for i, row in enumerate(tableau.a[:tableau.stages]):
            assert np.array_equal(row, rk.RK45.A[i, :i])
        assert np.array_equal(tableau.a[tableau.stages], rk.RK45.B)
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        theta = np.linspace(0.0, 1.0, 11)
        for _ in range(20):
            k = rng.normal(size=(len(tableau.c), 3))
            y, h = rng.normal(size=3), rng.uniform(0.01, 2.0)
            rows = tableau.dense @ k
            ours = y + h * (module._basis(theta, len(rows)) @ rows)
            theirs = rk.RkDenseOutput(0.0, h, y, k.T @ rk.RK45.P)(theta * h)
            bound = 64.0 * eps * (np.abs(y) + h * np.abs(k).sum(0))
            assert (np.abs(ours - theirs.T) <= bound).all()


def test_stepper_books_each_count_as_it_happens():
    # Suspended after handing out its third step, the stepper has booked
    # the two steps the caller resumed after, and the evaluations of all
    # three: two to start, six per attempt (DP5 has no dense stages).
    stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evaluations": 0,
             "h_min": math.inf, "h_max": 0.0}
    steps = oscibath.integrator._rk_steps(
        lambda t, y: -y, np.array([1.0]), 0.0, 10.0, 1e-9, 1e-12, [], stats)
    lengths = [next(steps)[1] for _ in range(3)]
    assert stats["steps_accepted"] == 2
    assert stats["rhs_evaluations"] == 2 + 6 * (3 + stats["steps_rejected"])
    assert (stats["h_min"], stats["h_max"]) == (min(lengths[:2]),
                                                max(lengths[:2]))
    steps.close()


class Recorder:
    """Forwards a provider and its breakpoints; records every scalar call."""

    def __init__(self, provider, breakpoints=None):
        self.provider = provider
        self.breakpoints = (getattr(provider, "breakpoints", ())
                            if breakpoints is None else breakpoints)
        self.times = []

    def __call__(self, t):
        if not isinstance(t, np.ndarray):
            self.times.append(t)
        return self.provider(t)


class NanStart(PhenomenologicalProvider):
    """Declares a period whose start is not a number."""

    periodic_from = math.nan


def declaring_nothing(provider):
    """The provider's call alone: no breakpoints and no period, so the solve
    steps all the way and ends no step on a knot."""
    return lambda t: provider(t)


def table_on(grid):
    grid = np.asarray(grid, dtype=float)
    return TabulatedProvider(grid=grid, lambda_values=0.1 + 0.05 * np.sin(3 * grid),
                             D_values=0.05 + 0.04 * np.cos(2 * grid))


def tabulated_chain(n, knot_dt, t_end=1.0):
    """n nearest-neighbour coupled oscillators, each with its own table.

    The tables sample a ramped mean-plus-cosine at the oscillator's
    frequency, as the phenomenological model does, on knots knot_dt apart.
    """
    grid = np.linspace(0.0, t_end, int(round(t_end / knot_dt)) + 1)
    ramp = 1.0 - np.exp(-(grid / 0.5) ** 2)
    omegas = np.linspace(1.0, 3.0, n)
    providers = [
        TabulatedProvider(
            grid=grid,
            lambda_values=ramp * (0.15 + 0.05 * np.cos(w * grid + math.pi * (i % 2))),
            D_values=ramp * (0.05 + 0.045 * np.cos(w * grid + math.pi * (1 - i % 2))))
        for i, w in enumerate(omegas)]
    beta = np.zeros((n, n))
    i = np.arange(n - 1)
    beta[i, i + 1] = beta[i + 1, i] = 0.3
    config = SimulationConfig(
        oscillators=tuple(OscillatorSpec(w) for w in omegas),
        provider_config=(ProviderConfig("custom"),) * n,
        coupling=CouplingNetwork(n, beta), t_end=t_end, rtol=1e-9, atol=1e-12)
    return config, providers


class TestBreakpoints:
    def test_chain_is_more_accurate_for_fewer_rhs_evaluations(self):
        config, providers = tabulated_chain(8, knot_dt=0.1)
        tight = dataclasses.replace(config, rtol=1e-13, atol=1e-16)
        reference = integrate_coupled(tight, providers).n

        knots = integrate_coupled(config, providers)
        knot_free = integrate_coupled(
            config, [declaring_nothing(p) for p in providers])
        knots_error = np.abs(knots.n - reference).max()
        assert knots_error <= 2e-9
        assert knots_error < np.abs(knot_free.n - reference).max()
        assert (knots.diagnostics["rhs_evaluations"]
                < knot_free.diagnostics["rhs_evaluations"])

    def test_knots_denser_than_the_steps_are_crossed(self):
        # Ending a step on every knot would cost six RHS evaluations per
        # knot; steps longer than the spacing end on the last knot reached.
        grid = np.linspace(0.0, 10.0, 4001)
        sample = STANDARD(grid)
        table = TabulatedProvider(grid=grid, lambda_values=sample.friction,
                                  D_values=sample.diffusion)
        series = single_second_order(OscillatorSpec(1.0), table, t_end=10.0)
        reference = single_second_order(OscillatorSpec(1.0), table, t_end=10.0,
                                        rtol=1e-11, atol=1e-14).n
        assert series.diagnostics["rhs_evaluations"] < grid.size
        assert series.diagnostics["h_max"] > 10 * (grid[1] - grid[0])
        assert np.abs(series.n - reference).max() <= 1e-6

    def test_steps_end_exactly_on_every_sparser_interior_knot(self):
        table = Recorder(table_on(np.linspace(0.0, 2.0, 9)))
        series = single_second_order(OscillatorSpec(1.0), table, t_end=2.0)
        assert set(table.breakpoints[1:-1].tolist()) <= set(table.times)
        assert series.diagnostics["steps_accepted"] >= 8

    def test_first_order_ends_steps_on_knots(self):
        table = Recorder(table_on([0.0, 0.7, 1.3, 2.2, 3.0]))
        osc = OscillatorSpec(1.0, n0=0.2)
        knots = integrate_single_first_order(osc, table, t_end=3.0)
        assert {0.7, 1.3, 2.2} <= set(table.times)
        reference = integrate_single_first_order(osc, table.provider, t_end=3.0,
                                                 rtol=1e-13, atol=1e-16).n
        knot_free = integrate_single_first_order(
            osc, declaring_nothing(table.provider), t_end=3.0)
        assert (np.abs(knots.n - reference).max()
                < np.abs(knot_free.n - reference).max())
        assert (knots.diagnostics["rhs_evaluations"]
                < knot_free.diagnostics["rhs_evaluations"])

    def test_stops_at_ends_or_outside_are_ignored(self):
        plain = integrate_coupled(coupled_config(OscillatorSpec(2.0),
                                                 OscillatorSpec(3.0), 0.4, 5.0),
                                  [STANDARD, STANDARD])
        outside = Recorder(STANDARD, breakpoints=(
            -1.0, 0.0, 5.0, 7.5, math.nan, np.nextafter(5.0, 0.0)))
        stopped = integrate_coupled(coupled_config(OscillatorSpec(2.0),
                                                   OscillatorSpec(3.0), 0.4, 5.0),
                                    [outside, STANDARD])
        for name in ("n", "v"):
            assert np.array_equal(getattr(plain, name), getattr(stopped, name))
        for key in ("steps_accepted", "steps_rejected", "rhs_evaluations"):
            assert plain.diagnostics[key] == stopped.diagnostics[key]

    def test_provider_without_breakpoints_steps_as_before(self):
        # Step counts and final values of the knot-free solve of this run,
        # stepped all the way: its providers declare no period either; the
        # values to a few ulp, so that another BLAS build's summation order
        # does not matter.  They are within 4e-10 of an rtol-1e-13 DOP853
        # solve (TestAccuracy).
        config = coupled_config(OscillatorSpec(2.0),
                                OscillatorSpec(3.0, n0=0.3), 0.4, 12.0)
        series = integrate_coupled(
            config, [declaring_nothing(STANDARD), declaring_nothing(STANDARD)])
        diag = series.diagnostics
        assert (diag["steps_accepted"], diag["steps_rejected"],
                diag["rhs_evaluations"]) == (182, 4, 1118)
        expected = [float.fromhex("0x1.0ec6c92d27aeap-1"),
                    float.fromhex("0x1.056655c35d46ep-1")]
        assert series.n[:, -1] == pytest.approx(expected, rel=1e-15, abs=0)

    def test_knots_one_ulp_apart_are_merged(self):
        grid = np.array([0.0, 0.3, 0.6, 1.0])
        nudged = grid.copy()
        nudged[1:3] = np.nextafter(grid[1:3], 1.0)
        first, second = Recorder(table_on(grid)), Recorder(table_on(nudged))
        series = integrate_coupled(
            coupled_config(OscillatorSpec(1.0), OscillatorSpec(2.0), 0.3, 1.0),
            [first, second])
        assert series.diagnostics["steps_accepted"] > 0
        # Each pair of nearly equal knots is one stop: a step ends on one
        # of the two.
        for a, b in zip(grid[1:3], nudged[1:3]):
            assert {a, b} & set(first.times)

    def test_step_statistics(self):
        series = integrate_coupled(coupled_config(OscillatorSpec(2.0),
                                                  OscillatorSpec(3.0), 0.4, 5.0),
                                   [STANDARD, STANDARD])
        diag = series.diagnostics
        attempted = diag["steps_accepted"] + diag["steps_rejected"]
        assert diag["rejection_ratio"] == diag["steps_rejected"] / attempted
        assert 0.0 < diag["h_min"] <= diag["h_max"] <= 5.0


def scenario_run(text, t_end=None):
    config = parse_scenario(text)
    if t_end is not None:
        config = dataclasses.replace(config, t_end=t_end)
    return config, [make_provider(pc) for pc in config.provider_config]


def three_coupled(seed=3):
    """Three coupled oscillators with frequencies 1, 1.5 and 2 (period
    4 pi), random coefficients, coupling and initial state."""
    rng = np.random.default_rng(seed)
    freqs = (1.0, 1.5, 2.0)
    providers = [PhenomenologicalProvider(
        mean_lambda=mean, amp_lambda=0.8 * mean * rng.random(),
        mean_D=0.1 * rng.random(), amp_D=0.1 * rng.random(), osc_freq=w,
        phase_lambda=6.0 * rng.random(), phase_D=6.0 * rng.random(),
        ramp_time=0.2 + 0.8 * rng.random())
        for w, mean in zip(freqs, rng.uniform(0.05, 0.3, 3))]
    beta = np.zeros((3, 3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        beta[i, j] = beta[j, i] = rng.uniform(0.0, 1.0)
    config = SimulationConfig(
        oscillators=tuple(OscillatorSpec(w, rng.random(), rng.uniform(-0.5, 0.5))
                          for w in freqs),
        provider_config=tuple(p.describe() for p in providers),
        coupling=CouplingNetwork(3, beta), t_end=60.0)
    return config, providers


def fig4_chain_scenario(n, t_end=80):
    """n oscillators in a chain, frequencies 2 and 3 alternating, each with
    the fig4 demo's coefficients and phases, beta 0.5 between neighbours."""
    lines = []
    for i in range(1, n + 1):
        odd = i % 2
        lines += [f"[oscillator {i}]", f"omega = {2 if odd else 3}", "",
                  f"[coefficients {i}]", "kind = phenomenological",
                  "mean_lambda = 0.2", "amp_lambda = 0.05", "mean_D = 0.05",
                  "amp_D = 0.05", f"phase_lambda = {0 if odd else math.pi!r}",
                  f"phase_D = {math.pi if odd else 0!r}", "ramp_time = 0.5",
                  ""]
    lines += ["[coupling]"] + [f"beta {i} {i + 1} = 0.5" for i in range(1, n)]
    lines += ["", "[integration]", f"t_end = {t_end}", "output_dt = 0.01",
              "rtol = 1e-9", "atol = 1e-12"]
    return "\n".join(lines) + "\n"


def dop853_reference(config, providers, t):
    """The run's (n, v) on t by scipy's DOP853 at rtol 1e-13.

    Steps of at most 0.5 bound the oracle's own error: on a weakly damped
    first-order draw over t_end 60 (test_properties) they cut it from
    3.1e-10 to 8.1e-13 against a solve at rtol 2.3e-14 and steps of 0.05.
    """
    from scipy.integrate import solve_ivp

    n_osc = config.n_oscillators
    laplacian = config.coupling.laplacian

    def rhs(time, y):
        n, v = y[:n_osc], y[n_osc:]
        s = [p(time) for p in providers]
        return np.concatenate([v, 2.0 * np.array([q.ddiffusion_dt for q in s])
                               - 2.0 * np.array([q.friction for q in s]) * v
                               - 2.0 * np.array([q.dfriction_dt for q in s]) * n
                               - laplacian @ n])

    y0 = [o.n0 for o in config.oscillators] + [o.v0 for o in config.oscillators]
    return solve_ivp(rhs, (0.0, t[-1]), y0, method="DOP853", rtol=1e-13,
                     atol=1e-16, max_step=0.5, t_eval=t).y


@pytest.fixture
def scalar_table_calls(monkeypatch):
    """The times of every scalar TabulatedProvider call; only the
    per-oscillator RHS makes them."""
    times = []
    call = TabulatedProvider.__call__

    def recording(self, t):
        if not isinstance(t, np.ndarray):
            times.append(t)
        return call(self, t)

    monkeypatch.setattr(TabulatedProvider, "__call__", recording)
    return times


def assert_same_bits(a, b):
    for name in ("n", "v", "friction", "diffusion"):
        assert np.array_equal(getattr(a, name).view(np.uint64),
                              getattr(b, name).view(np.uint64))


class SubTable(TabulatedProvider):
    """A subclass could override the call, so it is sampled on its own."""


class TestStackedTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 32])
    def test_stacked_run_equals_the_per_oscillator_run(self, n,
                                                       scalar_table_calls):
        config, providers = tabulated_chain(n, knot_dt=0.1)
        stacked = integrate_coupled(config, providers)
        assert scalar_table_calls == []
        # Recorder is not a TabulatedProvider: one call per oscillator.
        looped = integrate_coupled(config, [Recorder(p) for p in providers])
        assert len(scalar_table_calls) == n * looped.diagnostics["rhs_evaluations"]
        assert_same_bits(stacked, looped)
        # Every step statistic, and the invariant drift.
        assert "invariant_drift" in stacked.diagnostics
        assert stacked.diagnostics == looped.diagnostics

    def test_stacked_run_fits_and_calls_no_table(self, monkeypatch):
        # One fit over all the tables' columns, and the output grid sampled
        # by one stacked call: no table builds its own kernel or is called.
        calls = []
        call = TabulatedProvider.__call__

        def recording(self, t):
            calls.append(t)
            return call(self, t)

        monkeypatch.setattr(TabulatedProvider, "__call__", recording)
        config, providers = tabulated_chain(32, knot_dt=0.1)
        series = integrate_coupled(config, providers)
        assert series.friction.shape == (32, series.t.size)
        assert calls == []
        assert not any("_kernel" in vars(p) for p in providers)

    @pytest.mark.parametrize("n", [1, 4, 32])
    def test_output_grid_sampled_in_chunks(self, n, monkeypatch):
        # Seven output times per chunk: 15 chunks, the last one partial.
        config, providers = tabulated_chain(n, knot_dt=0.1)
        whole = integrate_coupled(config, providers)
        monkeypatch.setattr(oscibath.integrator, "_SAMPLE_MAX_VALUES", 7 * n)
        assert_same_bits(integrate_coupled(config, providers), whole)

    def test_tables_declare_no_period(self):
        # A run of tables never takes the periodic tail: that needs every
        # provider to declare a period.
        _, providers = tabulated_chain(5, knot_dt=0.1)
        for name in ("osc_freq", "periodic_from"):
            assert not any(hasattr(p, name) for p in providers)

    def test_stacked_bank_serves_the_matrix_state(self, monkeypatch,
                                                  scalar_table_calls):
        # One RHS body serves both states, so a stack would meet the tail's
        # matrix state with no further code: there it equals the
        # per-oscillator bank's RHS bit for bit, and each column its own
        # vector call within the bound of
        # test_matrix_state_rhs_is_the_vector_rhs_per_column.
        config, providers = tabulated_chain(3, knot_dt=0.1)
        stacked = coupled_rhs(config, providers, monkeypatch)
        looped = coupled_rhs(config, [Recorder(p) for p in providers],
                             monkeypatch)
        dim = 2 * config.n_oscillators
        drive = np.eye(dim + 1)[dim]
        rng = np.random.default_rng(11)
        y = rng.normal(size=(dim, dim + 1))
        ulp = np.finfo(float).eps
        for t in (0.0, 0.3, *rng.uniform(0.0, 1.0, 4), 1.0):
            product = stacked(t, y, drive)
            assert scalar_table_calls == []
            assert np.array_equal(product.view(np.uint64),
                                  looped(t, y, drive).view(np.uint64))
            assert len(scalar_table_calls) == config.n_oscillators
            scalar_table_calls.clear()
            for j in range(dim + 1):
                column = stacked(t, y[:, j].copy(), drive[j])
                scale = max(np.abs(column).max(), np.abs(y[:, j]).max())
                assert (np.abs(product[:, j] - column).max()
                        <= 8.0 * ulp * scale)

    @pytest.mark.parametrize("case", [
        "other-grid", "phenomenological", "subclass"])
    def test_other_runs_call_each_provider(self, case, scalar_table_calls):
        config, providers = tabulated_chain(8, knot_dt=0.1)
        table = providers[3]
        providers[3] = {
            "other-grid": table_on(np.linspace(0.0, 1.0, 7)),
            "phenomenological": STANDARD,
            "subclass": SubTable(grid=table.grid, D_values=table.D_values,
                                 lambda_values=table.lambda_values),
        }[case]
        series = integrate_coupled(config, providers)
        assert np.isfinite(series.n).all()
        assert series.diagnostics["steps_accepted"] > 0
        assert scalar_table_calls

    @pytest.mark.parametrize("run", [
        tabulated_chain(32, knot_dt=0.1),
        scenario_run(demo_fig4_scenario("0.5")),
    ], ids=["chain", "fig4"])
    def test_invariant_drift_is_the_written_csvs(self, run, tmp_path):
        series = integrate_coupled(*run)
        write_timeseries_csv(series, tmp_path / "run.csv")
        back = read_timeseries_csv(tmp_path / "run.csv")
        total = np.zeros_like(back.t)
        scale = np.zeros_like(back.t)
        for n, v, lam, dif in zip(back.n, back.v, back.friction, back.diffusion):
            total += v + 2.0 * lam * n - 2.0 * dif
            scale += np.abs(v) + 2.0 * np.abs(lam * n) + 2.0 * np.abs(dif)
        drift = np.abs(total - total[0]).max() / scale.max()
        assert series.diagnostics["invariant_drift"] == drift
        assert 0.0 < drift < 1e-8


class Captured(Exception):
    """Raised in place of the solve, once its right-hand side is captured."""


def coupled_rhs(config, providers, monkeypatch):
    """The right-hand side integrate_coupled hands to its solve."""
    captured = []

    def capture(config, providers, rhs, y0):
        captured.append(rhs)
        raise Captured

    monkeypatch.setattr(oscibath.integrator, "_solve", capture)
    with pytest.raises(Captured):
        integrate_coupled(config, providers)
    return captured[0]


class TestPeriodicTail:
    @pytest.mark.parametrize("run", [
        scenario_run(demo_fig4_scenario("0.5")),
        scenario_run(demo_fig4_scenario("5")),
        three_coupled(),
    ], ids=["fig4-0.5", "fig4-5", "three"])
    def test_matrix_state_rhs_is_the_vector_rhs_per_column(self, run,
                                                           monkeypatch):
        # The one RHS body's product [A | b] @ [Y; drive] on the tail's
        # matrix state against its own calls on each column Y[:, j] with its
        # drive e_j, before and after t_p: one matrix-matrix and one
        # matrix-vector product, which may sum in different orders.  Over
        # 4,000 random states and times of these runs and a 3-table chain
        # the largest difference was 3.9 ulp of this scale.
        config, providers = run
        rhs = coupled_rhs(config, providers, monkeypatch)
        dim = 2 * config.n_oscillators
        drive = np.eye(dim + 1)[dim]
        y = np.random.default_rng(7).normal(size=(dim, dim + 1))
        t_p = max(p.periodic_from for p in providers)
        ulp = np.finfo(float).eps
        for t in (0.05, 0.4, 0.5 * t_p, t_p, t_p + 0.3, t_p + 17.0):
            product = rhs(t, y, drive)
            assert product.shape == (dim, dim + 1)
            for j in range(dim + 1):
                column = rhs(t, y[:, j].copy(), drive[j])
                assert column.shape == (dim,)
                scale = max(np.abs(column).max(), np.abs(y[:, j]).max())
                assert (np.abs(product[:, j] - column).max()
                        <= 8.0 * ulp * scale)

    @pytest.mark.parametrize("run, period", [
        (scenario_run(demo_fig2_scenario()), 2.0 * math.pi),
        (scenario_run(demo_fig4_scenario("0.05")), 2.0 * math.pi),
        (scenario_run(demo_fig4_scenario("0.5")), 2.0 * math.pi),
        (scenario_run(demo_fig4_scenario("5")), 2.0 * math.pi),
        (three_coupled(), 4.0 * math.pi),
    ], ids=["fig2", "fig4-0.05", "fig4-0.5", "fig4-5", "three"])
    def test_multipliers_obey_liouville(self, run, period):
        # det M = exp(integral of tr A over a period), and tr A = -2 sum lam_i
        # (the v rows); the conserved sum gives the unit multiplier.
        config, providers = run
        diag = integrate_coupled(config, providers).diagnostics
        mu = diag["floquet_multipliers"]
        assert diag["periods_propagated"] > 0
        assert len(mu) == 2 * config.n_oscillators
        assert list(mu) == sorted(mu, reverse=True)
        trace_integral = -2.0 * period * sum(p.mean_lambda for p in providers)
        assert math.prod(mu) == pytest.approx(math.exp(trace_integral), rel=1e-8)
        assert mu[0] == pytest.approx(1.0, rel=0, abs=1e-9)

    @pytest.mark.parametrize("text", [demo_fig2_scenario(),
                                      demo_fig4_scenario("0.5")],
                             ids=["fig2", "fig4-0.5"])
    def test_at_least_as_close_to_dop853_as_stepping(self, text):
        config, providers = scenario_run(text, t_end=40.0)
        tail = integrate_coupled(config, providers)
        stepped = integrate_coupled(config,
                                    [declaring_nothing(p) for p in providers])
        assert tail.diagnostics["periods_propagated"] == 5
        assert stepped.diagnostics["periods_propagated"] == 0
        reference = dop853_reference(config, providers, tail.t)
        n_osc = config.n_oscillators
        for name, rows in (("n", slice(None, n_osc)), ("v", slice(n_osc, None))):
            error = np.abs(getattr(tail, name) - reference[rows]).max()
            assert error <= np.abs(getattr(stepped, name) - reference[rows]).max()
            assert error <= 1e-9

    @pytest.mark.parametrize("second, t_end, room", [
        (dataclasses.replace(STANDARD, osc_freq=math.sqrt(2.0)), 40.0, None),
        (table_on(np.linspace(0.0, 40.0, 401)), 40.0, None),
        # Shorter than one period past t_p (3.059 + 2 pi = 9.342).
        (STANDARD, 9.0, None),
        # Room for 20 steps of the 4 x 5 matrix state; a period takes 27.
        (STANDARD, 40.0, 20),
        (NanStart(**dataclasses.asdict(STANDARD)), 40.0, None),
    ], ids=["incommensurate", "tabulated", "short", "oversized", "nan-start"])
    def test_runs_without_a_usable_period_step_as_before(self, second, t_end,
                                                         room, monkeypatch):
        module = oscibath.integrator
        # The period solve's pair, and the values it records per step: the
        # start state and the dense rows.
        tableau = module._DOP853
        width = 1 + tableau.dense.shape[0]
        records = []
        if room is not None:
            solve = module._rk_steps

            def recording(f, y0, *args):
                # The steps the 4 x 5 matrix state's solve hands out.
                steps = solve(f, y0, *args)
                handed = []
                if y0.size == 4 * 5:
                    records.append(handed)
                try:
                    for step in steps:
                        handed.append(step)
                        yield step
                finally:
                    steps.close()

            monkeypatch.setattr(module, "_TAIL_MAX_DOUBLES", room * width * 20)
            monkeypatch.setattr(module, "_rk_steps", recording)
        config = coupled_config(OscillatorSpec(1.0),
                                OscillatorSpec(1.5, n0=0.3), 0.4, t_end)
        series = integrate_coupled(config, [STANDARD, second])
        bare = integrate_coupled(config, [
            declaring_nothing(p) if isinstance(p, PhenomenologicalProvider) else p
            for p in (STANDARD, second)])
        assert series.diagnostics["periods_propagated"] == 0
        assert "floquet_multipliers" not in series.diagnostics
        for name in ("n", "v"):
            assert np.array_equal(getattr(series, name), getattr(bare, name))
        if room is None:
            assert series.diagnostics == bare.diagnostics
            return
        # The period solve stopped as soon as its record was full: it kept
        # every step it handed out but the last, and the run's statistics
        # count its work on top of the stepped run's.  Its start takes two
        # evaluations, every attempt one per stage after the first, and
        # every step handed out its dense stages.
        (handed,) = records
        assert len(handed) == room + 1
        stats = ("steps_accepted", "steps_rejected", "rhs_evaluations",
                 "h_min", "h_max", "rejection_ratio")
        extra = {key: series.diagnostics[key] - bare.diagnostics[key]
                 for key in stats[:3]}
        assert extra["steps_accepted"] == room
        dense_stages = len(tableau.c) - tableau.stages - 1
        assert extra["rhs_evaluations"] == (
            2 + tableau.stages * (len(handed) + extra["steps_rejected"])
            + dense_stages * len(handed))
        assert ({k: v for k, v in series.diagnostics.items() if k not in stats}
                == {k: v for k, v in bare.diagnostics.items() if k not in stats})

    def test_long_run_takes_the_tail(self):
        # 29,695 samples after t_p of a 4 x 5 matrix state, over 2**19, once
        # sent this run back to stepping; the period's record does not grow
        # with them.
        config, providers = scenario_run(demo_fig4_scenario("0.5"), t_end=300.0)
        tail = integrate_coupled(config, providers)
        stepped = integrate_coupled(config,
                                    [declaring_nothing(p) for p in providers])
        assert tail.diagnostics["periods_propagated"] == 47
        assert stepped.diagnostics["periods_propagated"] == 0
        scale = max(np.abs(stepped.n).max(), np.abs(stepped.v).max())
        for name in ("n", "v"):
            difference = np.abs(getattr(tail, name) - getattr(stepped, name))
            assert difference.max() <= 50.0 * (config.rtol * scale + config.atol)

    def test_samples_on_whole_periods_past_t_p(self):
        # A ramp of 0.001 puts periodic_from (0.0061) below output_dt, so
        # t_p = grid[1]; frequencies pi and 2 pi share the period 2, a
        # multiple of output_dt, so samples fall on phase 0, the first
        # recorded step's start.
        providers = [dataclasses.replace(STANDARD, osc_freq=w, ramp_time=0.001)
                     for w in (math.pi, 2.0 * math.pi)]
        config = coupled_config(OscillatorSpec(1.0),
                                OscillatorSpec(1.5, n0=0.3), 0.4, 20.0)
        tail = integrate_coupled(config, providers)
        stepped = integrate_coupled(config,
                                    [declaring_nothing(p) for p in providers])
        t_p = tail.t[1]
        assert max(p.periodic_from for p in providers) < t_p
        assert tail.diagnostics["periods_propagated"] == 9
        # The tail's phases: 10 samples within rounding of 0, 9 of them on it.
        _, tau = np.divmod(tail.t[1:] - t_p, 2.0)
        assert ((tau < 1e-12).sum(), (tau == 0.0).sum()) == (10, 9)
        scale = max(np.abs(stepped.n).max(), np.abs(stepped.v).max())
        for name in ("n", "v"):
            difference = np.abs(getattr(tail, name) - getattr(stepped, name))
            assert difference.max() <= 50.0 * (config.rtol * scale + config.atol)

    def test_fig4_like_chain_of_16_takes_the_tail(self):
        # Its period solve records 45 steps of a 32 x 33 state (3.0 MB),
        # within _TAIL_MAX_DOUBLES; stepping all the way takes 10x the
        # RHS evaluations.
        config, providers = scenario_run(fig4_chain_scenario(16))
        tail = integrate_coupled(config, providers)
        stepped = integrate_coupled(config,
                                    [declaring_nothing(p) for p in providers])
        assert tail.diagnostics["periods_propagated"] == 12
        assert stepped.diagnostics["periods_propagated"] == 0
        scale = max(np.abs(stepped.n).max(), np.abs(stepped.v).max())
        for name in ("n", "v"):
            difference = np.abs(getattr(tail, name) - getattr(stepped, name))
            assert difference.max() <= 50.0 * (config.rtol * scale + config.atol)

    def test_fig4_like_chain_of_32_steps(self):
        # A 64 x 65 state's period would need about 11 MB of record.
        config, providers = scenario_run(fig4_chain_scenario(32))
        diag = integrate_coupled(config, providers).diagnostics
        assert diag["periods_propagated"] == 0
        assert "floquet_multipliers" not in diag

    def test_tail_needs_one_period_after_t_p(self):
        # Short of t_p + T the period solve would pass t_end: the run steps.
        config, providers = scenario_run(demo_fig4_scenario("0.5"))
        t_p = providers[0].periodic_from
        for t_end, periods in ((t_p + 2.0 * math.pi - 0.05, 0),
                               (t_p + 2.0 * math.pi + 0.05, 1)):
            run = dataclasses.replace(config, t_end=t_end)
            diag = integrate_coupled(run, providers).diagnostics
            assert diag["periods_propagated"] == periods

    @pytest.mark.parametrize("periods", [1, 2, 3])
    @pytest.mark.parametrize("text", [
        demo_fig2_scenario(), demo_fig4_scenario("0.5"), fig4_chain_scenario(4),
    ], ids=["fig2", "fig4-0.5", "chain4"])
    def test_runs_a_few_periods_past_t_p_take_the_tail(self, text, periods):
        # Each run's common period is 2 pi.  fig4 beta 0.5 took 1,471 RHS
        # evaluations at 1, 2 and 3 periods, stepping 1,628 / 2,558 / 3,482.
        config, providers = scenario_run(text)
        t_p = max(p.periodic_from for p in providers)
        config = dataclasses.replace(
            config, t_end=t_p + periods * 2.0 * math.pi + 0.05)
        tail = integrate_coupled(config, providers)
        stepped = integrate_coupled(config,
                                    [declaring_nothing(p) for p in providers])
        assert tail.diagnostics["periods_propagated"] == periods
        assert (tail.diagnostics["rhs_evaluations"]
                < stepped.diagnostics["rhs_evaluations"])
        scale = max(np.abs(stepped.n).max(), np.abs(stepped.v).max())
        for name in ("n", "v"):
            difference = np.abs(getattr(tail, name) - getattr(stepped, name))
            assert difference.max() <= 50.0 * (config.rtol * scale + config.atol)

    def test_first_order_takes_the_tail(self):
        # At N = 1 Liouville's formula gives the one multiplier itself:
        # exp(-2 T mean_lambda), the integral of A = -2 lam over a period.
        from scipy.integrate import solve_ivp

        osc = OscillatorSpec(1.0)
        tail = integrate_single_first_order(osc, STANDARD, t_end=50.0)
        stepped = integrate_single_first_order(osc, declaring_nothing(STANDARD),
                                               t_end=50.0)
        assert tail.diagnostics["periods_propagated"] > 0
        (mu,) = tail.diagnostics["floquet_multipliers"]
        assert mu == pytest.approx(
            math.exp(-2.0 * 2.0 * math.pi * STANDARD.mean_lambda), rel=1e-8)

        def rhs(t, y):
            s = STANDARD(t)
            return [-2.0 * s.friction * y[0] + 2.0 * s.diffusion]

        reference = solve_ivp(rhs, (0.0, tail.t[-1]), [osc.n0], method="DOP853",
                              rtol=1e-13, atol=1e-16, t_eval=tail.t).y
        assert (np.abs(tail.n - reference).max()
                <= np.abs(stepped.n - reference).max())


class TestOneFormulation:
    # The first-order solve is integrate_coupled's at N = 1, started from
    # the consistent slope v0 = -2 lam(0) n0 + 2 D(0).

    def test_first_order_matches_dop853_reference_on_fig2(self):
        # fig2's n0 = v0 = 0 is consistent, so the coupled reference's n is
        # the first-order solution; the bound is the coupled runs' own.
        config, providers = scenario_run(demo_fig2_scenario(), t_end=40.0)
        series = integrate_single_first_order(
            config.oscillators[0], providers[0], config.t_end,
            config.output_dt, config.rtol, config.atol)
        reference = dop853_reference(config, providers, series.t)
        assert np.abs(series.n - reference[:1]).max() <= 1e-9

    def test_first_order_is_the_coupled_solve_at_n_1(self):
        config, providers = scenario_run(demo_fig2_scenario(), t_end=50.0)
        first = integrate_single_first_order(
            config.oscillators[0], providers[0], config.t_end,
            config.output_dt, config.rtol, config.atol)
        coupled = integrate_coupled(config, providers)
        assert np.array_equal(first.n, coupled.n)
        assert np.array_equal(
            first.v, -2.0 * first.friction * first.n + 2.0 * first.diffusion)
        (mu,) = first.diagnostics["floquet_multipliers"]
        assert mu == pytest.approx(math.exp(-2.0 * 0.1 * 2.0 * math.pi),
                                   rel=0, abs=1e-9)
