import math
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from oscibath.coefficients import (
    ConstantProvider,
    OutOfRange,
    PhenomenologicalProvider,
    TabulatedProvider,
    _provider_bank,
    check_derivatives,
    make_provider,
    read_coefficient_csv,
)
from oscibath.model import CoefficientSample, InvalidConfig, ProviderConfig

STANDARD = PhenomenologicalProvider(
    mean_lambda=0.1, amp_lambda=0.05, mean_D=0.05, amp_D=0.04,
    osc_freq=1.0, phase_lambda=0.0, phase_D=math.pi, ramp_time=0.5)


class TestPhenomenological:
    def test_zero_at_initial_time(self):
        sample = STANDARD(0.0)
        assert sample.friction == 0.0
        assert sample.diffusion == 0.0
        assert sample.dfriction_dt == 0.0
        assert sample.ddiffusion_dt == 0.0

    def test_zero_amplitude_plateau(self):
        provider = PhenomenologicalProvider(0.1, 0.0, 0.05, 0.0, osc_freq=1.0,
                                            ramp_time=0.5)
        sample = provider(20.0)
        assert sample.friction == pytest.approx(0.1, abs=1e-15)
        assert sample.diffusion == pytest.approx(0.05, abs=1e-15)

    def test_direct_formula_at_t10(self):
        # Independent evaluation of the stated closed form.
        provider = PhenomenologicalProvider(0.1, 0.05, 0.05, 0.0, osc_freq=1.0,
                                            phase_lambda=0.0, ramp_time=0.5)
        expected = (1.0 - math.exp(-(10.0 / 0.5) ** 2)) \
            * (0.1 + 0.05 * math.cos(10.0))
        sample = provider(10.0)
        assert sample.friction == pytest.approx(expected, rel=1e-15)

    def test_derivative_matches_finite_difference_at_t10(self):
        h = 1e-5
        plus = STANDARD(10.0 + h)
        minus = STANDARD(10.0 - h)
        sample = STANDARD(10.0)
        fd = (plus.friction - minus.friction) / (2 * h)
        assert sample.dfriction_dt == pytest.approx(fd, abs=1e-9)

    def test_late_time_periodicity(self):
        period = 2.0 * math.pi / STANDARD.osc_freq
        bound = 1e-9 * (STANDARD.mean_lambda + STANDARD.amp_lambda)
        for t in np.linspace(5 * STANDARD.ramp_time, 30.0, 40):
            a = STANDARD(t).friction
            b = STANDARD(t + period).friction
            assert abs(b - a) <= bound

    def test_out_of_phase_pair_anticorrelates(self):
        shifted = PhenomenologicalProvider(
            0.1, 0.05, 0.05, 0.04, osc_freq=1.0,
            phase_lambda=math.pi, phase_D=0.0, ramp_time=0.5)
        t = np.linspace(10.0, 60.0, 5000)
        lam_a = np.array([STANDARD(ti).friction for ti in t])
        lam_b = np.array([shifted(ti).friction for ti in t])
        lam_a -= lam_a.mean()
        lam_b -= lam_b.mean()
        assert float(np.mean(lam_a * lam_b)) < 0.0

    @pytest.mark.parametrize("overrides,message", [
        (dict(mean_lambda=-0.1), "mean_lambda negative"),
        (dict(amp_lambda=math.nan), "amp_lambda negative"),
        (dict(mean_D=-0.05), "mean_D negative"),
        (dict(amp_D=math.inf), "amp_D negative"),
        (dict(osc_freq=0.0), "osc_freq not positive"),
        (dict(ramp_time=-0.5), "ramp_time not positive"),
        (dict(phase_lambda=-0.1), r"phase_lambda outside \[0, 2\*pi\)"),
        (dict(phase_D=2.0 * math.pi), r"phase_D outside \[0, 2\*pi\)"),
    ])
    def test_rejects_bad_parameters(self, overrides, message):
        params = dict(STANDARD.describe().params) | overrides
        with pytest.raises(InvalidConfig, match=message):
            PhenomenologicalProvider(**params)

    def test_negative_friction_requires_flag(self):
        with pytest.raises(InvalidConfig, match="negative friction"):
            PhenomenologicalProvider(0.05, 0.1, 0.05, 0.0)
        provider = PhenomenologicalProvider(0.05, 0.1, 0.05, 0.0,
                                            allow_negative_friction=True)
        trough = provider(math.pi * 5)
        assert trough.friction < 0.0


class TestConstant:
    def test_definition(self):
        for t in (0.0, 1.7, 300.0):
            sample = ConstantProvider(0.5, 0.25)(t)
            assert (sample.friction, sample.diffusion) == (0.5, 0.25)
            assert (sample.dfriction_dt, sample.ddiffusion_dt) == (0.0, 0.0)

    @pytest.mark.parametrize("lambda0,D0", [(math.nan, 0.1), (0.1, -math.inf)])
    def test_rejects_non_finite(self, lambda0, D0):
        with pytest.raises(InvalidConfig, match="constant coefficients not finite"):
            ConstantProvider(lambda0, D0)

    def test_all_zero(self):
        sample = ConstantProvider(0.0, 0.0)(42.0)
        assert (sample.friction, sample.diffusion,
                sample.dfriction_dt, sample.ddiffusion_dt) == (0, 0, 0, 0)


def sine_table(spacing=0.05, t_max=20.0) -> TabulatedProvider:
    grid = np.arange(0.0, t_max + spacing / 2, spacing)
    return TabulatedProvider(grid=grid, lambda_values=np.sin(grid),
                             D_values=np.cos(grid))


class TestTabulated:
    def test_linear_table_reproduced_exactly(self):
        grid = np.linspace(0.0, 10.0, 21)
        table = TabulatedProvider(grid=grid, lambda_values=grid,
                                  D_values=2.0 * grid + 1.0)
        sample = table(3.5)
        assert sample.friction == pytest.approx(3.5, abs=1e-12)
        assert sample.diffusion == pytest.approx(8.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        table = sine_table()
        with pytest.raises(OutOfRange):
            table(20.1)
        with pytest.raises(OutOfRange):
            table(-0.1)

    def test_endpoints_allowed(self):
        table = sine_table()
        table(0.0)
        table(20.0)

    def test_sine_value_and_derivative_accuracy(self):
        table = sine_table()
        sample = table(7.3)
        assert sample.friction == pytest.approx(math.sin(7.3), abs=1e-6)
        assert sample.dfriction_dt == pytest.approx(math.cos(7.3), abs=1e-4)

    def test_needs_four_points(self):
        with pytest.raises(InvalidConfig, match="4 points"):
            TabulatedProvider(grid=np.array([0.0, 1.0, 2.0]),
                              lambda_values=np.zeros(3),
                              D_values=np.zeros(3))

    @pytest.mark.parametrize("lam,D,message", [
        (np.zeros(3), np.zeros(4), "column lengths differ"),
        (np.zeros(4), np.array([0.0, 1.0, math.nan, 0.0]), "not finite"),
    ])
    def test_rejects_bad_columns(self, lam, D, message):
        with pytest.raises(InvalidConfig, match=message):
            TabulatedProvider(grid=np.arange(4.0), lambda_values=lam, D_values=D)

    def test_needs_increasing_grid(self):
        grid = np.array([0.0, 1.0, 1.0, 2.0])
        with pytest.raises(InvalidConfig, match="strictly increasing"):
            TabulatedProvider(grid=grid, lambda_values=np.zeros(4),
                              D_values=np.zeros(4))


def irregular_table() -> TabulatedProvider:
    rng = np.random.default_rng(11)
    grid = np.cumsum(rng.uniform(0.05, 0.7, size=40)) - 1.7
    return TabulatedProvider(grid=grid,
                             lambda_values=rng.normal(size=grid.size),
                             D_values=rng.normal(size=grid.size))


def spline_reference(table: TabulatedProvider):
    """(lambda, D, dlambda/dt, dD/dt) from scipy's natural CubicSpline."""
    s_lam = CubicSpline(table.grid, table.lambda_values, bc_type="natural")
    s_dif = CubicSpline(table.grid, table.D_values, bc_type="natural")
    ds_lam, ds_dif = s_lam.derivative(), s_dif.derivative()
    return lambda t: (float(s_lam(t)), float(s_dif(t)),
                      float(ds_lam(t)), float(ds_dif(t)))


class TestTabulatedKernel:
    @pytest.mark.parametrize("make_table", [sine_table, irregular_table])
    def test_scalar_matches_cubic_spline_bit_for_bit(self, make_table):
        table = make_table()
        reference = spline_reference(table)
        lo, hi = float(table.grid[0]), float(table.grid[-1])
        rng = np.random.default_rng(3)
        times = np.concatenate([rng.uniform(lo, hi, size=2000), table.grid])
        for t in times.tolist():
            assert tuple(table(t)) == reference(t)

        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        # Times within half the slack outside the grid clamp to its ends.
        for t, at in ((lo, lo), (hi, hi), (lo - slack / 2, lo), (hi + slack / 2, hi),
                      (lo + slack / 2, lo + slack / 2),
                      (hi - slack / 2, hi - slack / 2)):
            assert tuple(table(t)) == reference(at)

    @pytest.mark.parametrize("make_table", [sine_table, irregular_table])
    def test_out_of_range_just_beyond_the_slack(self, make_table):
        table = make_table()
        lo, hi = float(table.grid[0]), float(table.grid[-1])
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        for t in (float(np.nextafter(lo - slack, -np.inf)),
                  float(np.nextafter(hi + slack, np.inf))):
            message = f"time {t:g} outside coefficient table range [{lo:g}, {hi:g}]"
            with pytest.raises(OutOfRange, match=re.escape(message)):
                table(t)


def scalar_calls(provider, ts: np.ndarray) -> np.ndarray:
    """The four fields of [provider(t) for t in ts], one row per field."""
    return np.array([tuple(provider(t)) for t in ts.tolist()]).T


NEGATIVE_FRICTION = PhenomenologicalProvider(
    0.05, 0.1, 0.05, 0.05, osc_freq=3.0, phase_lambda=1.0, phase_D=2.0,
    ramp_time=2.0, allow_negative_friction=True)


def scipy_coefficients(table: TabulatedProvider) -> np.ndarray:
    """The kernel's table from scipy: one natural spline and its derivative,
    power by power (lambda, D, dlambda/dt, dD/dt), then the cubic terms."""
    both = np.column_stack([table.lambda_values, table.D_values])
    spline = CubicSpline(table.grid, both, bc_type="natural")
    c, dc = spline.c[::-1], spline.derivative().c[::-1]
    rows = [p[k, :, q] for k in range(3) for p in (c, dc) for q in (0, 1)]
    return np.stack(rows + [c[3, :, 0], c[3, :, 1]], axis=1)


def random_table(rng, n: int, grid=None) -> TabulatedProvider:
    if grid is None:
        # Spacings spread over two decades, so neighbours often differ by 2x.
        grid = np.cumsum(np.exp(rng.uniform(-3.0, 1.5, size=n))) + rng.uniform(-5, 5)
    return TabulatedProvider(grid=grid, lambda_values=rng.normal(size=n),
                             D_values=rng.normal(size=n))


class TestSplineFit:
    """The numpy fit gives scipy's natural-spline coefficients bit for bit."""

    def test_random_irregular_tables(self):
        rng = np.random.default_rng(20261018)
        sizes = [4] * 20 + rng.integers(5, 80, size=300).tolist()
        interchanges = 0
        for n in sizes:
            table = random_table(rng, n)
            dx = np.diff(table.grid)
            # LAPACK swaps the first two rows when dx[1] > 2*dx[0].
            interchanges += dx[1] > 2.0 * dx[0]
            assert np.array_equal(table._kernel[4], scipy_coefficients(table))
        assert interchanges >= 50

    @pytest.mark.parametrize("grid", [
        [0.0, 1.0, 4.0, 5.0],                 # dx[1] > 2*dx[0]: rows swap
        [0.0, 1.0, 2.5, 2.6, 9.0, 9.05, 20.0],  # swaps further down
        [0.0, 1.0, 2.0, 3.0],
    ])
    def test_small_grids(self, grid):
        table = random_table(np.random.default_rng(7), len(grid), np.array(grid))
        assert np.array_equal(table._kernel[4], scipy_coefficients(table))

    def test_long_table(self):
        rng = np.random.default_rng(40001)
        table = random_table(rng, 40001,
                             np.cumsum(rng.uniform(0.01, 0.1, size=40001)))
        assert np.array_equal(table._kernel[4], scipy_coefficients(table))


class TestArrayCalls:
    TIMES = np.concatenate([[0.0], np.random.default_rng(5).uniform(0.0, 20.0, 3000),
                            np.arange(0.0, 20.0 + 0.005, 0.01)])

    @pytest.mark.parametrize("provider", [
        ConstantProvider(0.5, 0.25),
        ConstantProvider(0.0, 0.0),
        sine_table(),
    ], ids=["constant", "constant-zero", "tabulated"])
    def test_exact_providers(self, provider):
        sample = provider(self.TIMES)
        expected = scalar_calls(provider, self.TIMES)
        for field, row in zip(sample, expected):
            assert field.shape == self.TIMES.shape
            assert np.array_equal(field, row)

    @pytest.mark.parametrize("provider", [STANDARD, NEGATIVE_FRICTION],
                             ids=["standard", "negative-friction"])
    def test_phenomenological_within_4_ulp(self, provider):
        # np.exp and math.exp may differ in the last bit.  The ramp
        # 1 - exp(-u^2) cancels near t = 0, so the ulp is taken at each
        # field's largest magnitude rather than pointwise.
        sample = provider(self.TIMES)
        expected = scalar_calls(provider, self.TIMES)
        for field, row in zip(sample, expected):
            assert field.shape == self.TIMES.shape
            ulp = np.spacing(np.abs(row).max())
            assert np.abs(field - row).max() <= 4 * ulp

    def test_one_out_of_range_time_rejects_the_array(self):
        provider = sine_table()
        ts = np.linspace(0.0, 20.0, 101)
        ts[57] = 20.5
        with pytest.raises(OutOfRange, match=re.escape("time 20.5 outside")):
            provider(ts)
        ts[57] = -0.25
        with pytest.raises(OutOfRange, match=re.escape("time -0.25 outside")):
            provider(ts)


def tables_on_one_grid(n: int = 9) -> list[TabulatedProvider]:
    rng = np.random.default_rng(20261018)
    grid = np.cumsum(np.exp(rng.uniform(-3.0, 1.5, size=40))) + rng.uniform(-5, 5)
    return [random_table(rng, grid.size, grid) for _ in range(n)]


def stack_of(tables: list[TabulatedProvider]):
    [(rows, stack)] = _provider_bank(tables)
    assert rows == slice(None)
    return stack


class TestStackedSampler:
    """Tables on one grid sampled together give each table's scalar call."""

    def test_every_sample_is_the_scalar_call_bit_for_bit(self):
        tables = tables_on_one_grid()
        sample = stack_of(tables)
        knots, lo, hi, slack, _ = tables[0]._kernel
        times = (np.random.default_rng(11).uniform(lo, hi, 2000).tolist()
                 + knots + [lo - slack / 2, hi + slack / 2])
        assert lo in times and hi in times
        for t in times:
            got = sample(t)
            assert isinstance(got, CoefficientSample)
            # Rows friction, diffusion, dfriction_dt, ddiffusion_dt.
            got = np.array(got)
            want = np.array([table(t) for table in tables]).T
            assert got.shape == (4, len(tables))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_one_ulp_past_the_slack_raises_the_scalar_message(self):
        tables = tables_on_one_grid()
        sample = stack_of(tables)
        _, lo, hi, slack, _ = tables[0]._kernel
        for t in (float(np.nextafter(lo - slack, -np.inf)),
                  float(np.nextafter(hi + slack, np.inf))):
            with pytest.raises(OutOfRange) as scalar:
                tables[0](t)
            with pytest.raises(OutOfRange, match=re.escape(str(scalar.value))):
                sample(t)

    def test_array_call_is_each_tables_array_call(self):
        tables = tables_on_one_grid()
        sample = stack_of(tables)
        knots, lo, hi, slack, _ = tables[0]._kernel
        times = np.concatenate([
            np.random.default_rng(12).uniform(lo, hi, 500), knots,
            [lo - slack / 2, hi + slack / 2]])
        got = np.array(sample(times))
        want = np.array([table(times) for table in tables]).transpose(1, 0, 2)
        assert got.shape == (4, len(tables), times.size)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for t in (float(np.nextafter(lo - slack, -np.inf)),
                  float(np.nextafter(hi + slack, np.inf))):
            times[7] = t
            with pytest.raises(OutOfRange) as table:
                tables[0](times)
            with pytest.raises(OutOfRange, match=re.escape(str(table.value))):
                sample(times)

    def test_providers_that_do_not_stack(self):
        tables = tables_on_one_grid(5)
        other_grid = random_table(np.random.default_rng(1), tables[0].grid.size,
                                  tables[0].grid + 0.5)

        class Subclass(TabulatedProvider):
            pass

        subclass = Subclass(grid=tables[0].grid,
                            lambda_values=tables[0].lambda_values,
                            D_values=tables[0].D_values)
        for providers in ([], tables[:1], [*tables, other_grid],
                          [*tables, STANDARD], [*tables, subclass],
                          [lambda t: tables[0](t)]):
            assert _provider_bank(providers) == list(enumerate(providers))


class TestCheckDerivatives:
    def test_phenomenological_on_fixed_grid(self):
        grid = np.linspace(0.5, 20.0, 200)
        assert check_derivatives(STANDARD, grid, h=1e-4) <= 1e-6

    def test_constant_is_exact(self):
        assert check_derivatives(ConstantProvider(0.5, 0.25),
                                 np.linspace(0.1, 10.0, 50), h=1e-4) == 0.0

    def test_tabulated_sine(self):
        grid = np.linspace(0.5, 19.5, 200)
        assert check_derivatives(sine_table(), grid, h=1e-4) <= 1e-3

    def test_analytic_providers_at_random_points(self):
        rng = np.random.default_rng(20260809)
        grid = rng.uniform(0.05, 40.0, size=1000)
        assert check_derivatives(STANDARD, grid, h=1e-4) <= 1e-6
        assert check_derivatives(ConstantProvider(0.3, 0.1),
                                 grid, h=1e-4) <= 1e-6

    def test_tabulated_at_random_points(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0.1, 19.9, size=1000)
        assert check_derivatives(sine_table(), grid, h=1e-4) <= 1e-3


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        grid = np.linspace(0.0, 5.0, 11)
        rows = ["t,lambda,D"] + [f"{t},{0.1 * t},{0.2 * t}" for t in grid]
        path.write_text("\n".join(rows) + "\n")
        table = read_coefficient_csv(path)
        assert np.allclose(table.grid, grid)
        assert np.allclose(table.lambda_values, 0.1 * grid)
        sample = table(2.5)
        assert sample.friction == pytest.approx(0.25, abs=1e-12)

    def test_header_required(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("0,0,0\n1,1,1\n2,2,2\n3,3,3\n")
        with pytest.raises(InvalidConfig, match="header"):
            read_coefficient_csv(path)

    @pytest.mark.parametrize("rows,message", [
        ("0,0,0\n1,1\n2,2,2\n3,3,3\n", "line 3 not 3 columns"),
        ("0,0,0\n1,1,1\n2,x,2\n3,3,3\n", "line 4 not numeric"),
        ("0,0,0\n1,1,1\n2,2,2\n", "needs at least 4 rows"),
        # Errors name the file's own line, counting comments and blank lines.
        ("0,0,0\n# comment\n\n1,1\n2,2,2\n3,3,3\n", "line 5 not 3 columns"),
        ("0,0,0\n# comment\n1,1,1\n2,x,2\n3,3,3\n", "line 5 not numeric"),
        # A line the csv module refuses is named too, not raised as csv.Error.
        ("0,0,0\n" + "1" * 131073 + "\n", "line 3: field larger than field limit"),
    ])
    def test_bad_rows_rejected(self, tmp_path, rows, message):
        path = tmp_path / "coeffs.csv"
        path.write_text("t,lambda,D\n" + rows)
        with pytest.raises(InvalidConfig, match=message):
            read_coefficient_csv(path)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(b"t,lambda,D\r\n0,0,0\r\n1,0.1,0.2\r\n"
                         b"2,0.2,0.4\r\n3,0.3,0.6\r\n")
        table = read_coefficient_csv(path)
        assert table.grid.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert table.D_values.tolist() == [0.0, 0.2, 0.4, 0.6]
        path.write_bytes(b"t,lambda,D\r\n# comment\r\n0,0,0\r\n1,1\r\n")
        with pytest.raises(InvalidConfig, match="line 4 not 3 columns"):
            read_coefficient_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        text = "t,lambda,D\n0,0,0\n1,0.1,0.2\n2,0.2,0.4\n3,0.3,0.6\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        a, b = read_coefficient_csv(plain), read_coefficient_csv(marked)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.lambda_values, b.lambda_values)
        assert np.array_equal(a.D_values, b.D_values)

    def test_unreadable_path_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(InvalidConfig, match=re.escape(f"coefficient csv {path}: ")):
            read_coefficient_csv(path)

    def test_non_utf8_table_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(b"t,lambda,D\n# caf\xe9\n0,0,0\n1,1,1\n2,2,2\n3,3,3\n")
        with pytest.raises(InvalidConfig,
                           match=re.escape(f"coefficient csv {path}: not UTF-8")):
            read_coefficient_csv(path)

    def test_nonincreasing_grid_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("t,lambda,D\n0,0,0\n1,1,1\n1,2,2\n3,3,3\n")
        with pytest.raises(InvalidConfig, match="strictly increasing"):
            read_coefficient_csv(path)

    @pytest.mark.parametrize("rows,message", [
        ("0,0,0\n1,1,1\n1,2,2\n3,3,3\n",
         "coefficient table grid not strictly increasing"),
        ("0,0,0\n1,1,1\n2,nan,2\n3,3,3\n", "coefficient table not finite"),
    ], ids=["repeated-t", "nan"])
    def test_table_errors_name_the_file(self, tmp_path, rows, message):
        path = tmp_path / "coeffs.csv"
        path.write_text("t,lambda,D\n" + rows)
        with pytest.raises(InvalidConfig, match=re.escape(
                f"coefficient csv {path}: {message}")):
            read_coefficient_csv(path)


class TestMakeProvider:
    def test_constant_round_trip(self):
        provider = make_provider(ProviderConfig("constant",
                                                {"lambda": 0.5, "D": 0.25}))
        assert provider(3.0).friction == 0.5

    def test_phenomenological_round_trip(self):
        described = STANDARD.describe()
        rebuilt = make_provider(described)
        assert rebuilt(2.7) == STANDARD(2.7)

    def test_tabulated_from_path(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("t,lambda,D\n0,0,0\n1,0.1,0.2\n2,0.2,0.4\n3,0.3,0.6\n")
        provider = make_provider(ProviderConfig("tabulated", {"path": str(path)}))
        assert provider(1.5).friction == pytest.approx(0.15, abs=1e-12)
        assert provider(1.5).diffusion == pytest.approx(0.3, abs=1e-12)

    def test_describe_round_trip_for_every_kind(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        grid = np.linspace(0.0, 5.0, 11)
        rows = ["t,lambda,D"] + [f"{t:.17g},{math.sin(t):.17g},{math.cos(t):.17g}"
                                 for t in grid]
        (tmp_path / "coef.csv").write_text("\n".join(rows) + "\n")
        tabulated = read_coefficient_csv("./coef.csv")
        assert tabulated.describe().as_dict() == {"path": "./coef.csv"}

        ts = np.linspace(0.0, 5.0, 37)
        for provider in (ConstantProvider(0.5, 0.25), STANDARD,
                         NEGATIVE_FRICTION, tabulated):
            rebuilt = make_provider(provider.describe())
            assert type(rebuilt) is type(provider)
            assert rebuilt.describe() == provider.describe()
            assert tuple(rebuilt(2.7)) == tuple(provider(2.7))
            for got, want in zip(rebuilt(ts), provider(ts)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,params,message", [
        ("constant", {"lambda": 0.5}, "constant provider missing key 'D'"),
        ("phenomenological", {"mean_lambda": 0.1, "amp_lambda": 0.0, "mean_D": 0.0},
         "phenomenological provider: .*amp_D"),
        ("phenomenological", dict(STANDARD.describe().params) | {"mass": 1.0},
         "phenomenological provider: .*mass"),
        ("tabulated", {}, "tabulated provider missing key 'path'"),
        ("constant", {"lambda": 0.1, "D": 0.2, "junk": 5},
         "^constant provider: unknown key 'junk'$"),
        # Refused before the table is read: no such file exists.
        ("tabulated", {"path": "missing.csv", "junk": 5},
         "^tabulated provider: unknown key 'junk'$"),
    ])
    def test_bad_params_rejected(self, kind, params, message):
        with pytest.raises(InvalidConfig, match=message):
            make_provider(ProviderConfig(kind, params))

    @pytest.mark.parametrize("kind,params", [
        ("constant", {"lambda": None, "D": 0.25}),
        ("tabulated", {"path": 5}),
    ])
    def test_wrong_argument_type_names_the_kind(self, kind, params):
        with pytest.raises(InvalidConfig) as info:
            make_provider(ProviderConfig(kind, params))
        assert str(info.value).startswith(f"{kind} provider: ")
        assert isinstance(info.value.__cause__, TypeError)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown coefficient kind"):
            make_provider(ProviderConfig("custom"))
