import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oscibath import csvio
from oscibath.csvio import (_BLOCK_VALUES, CSV_VERSION_LINE, CsvSchemaError,
                            read_timeseries_csv, write_timeseries_csv)
from oscibath.model import TimeSeries

# Signed zero, the smallest subnormal, a huge value, and two values whose
# shortest repr is shorter than 17 digits.
AWKWARD = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0])


def awkward_series(n_osc: int = 3, samples: int = 7,
                   values: np.ndarray = AWKWARD) -> TimeSeries:
    """Every channel cycles through values with alternating sign."""
    index = np.arange(4 * n_osc * samples).reshape(4, n_osc, samples)
    sign = np.where(index % 2 == 0, 1.0, -1.0)
    channels = sign * values[index % values.size]
    return TimeSeries(t=0.01 * np.arange(samples), n=channels[0], v=channels[1],
                      friction=channels[2], diffusion=channels[3])


def savetxt(series: TimeSeries, path) -> None:
    """The series written by np.savetxt under the writer's two header lines."""
    n_osc = series.n_oscillators
    table = np.empty((series.t.size, 1 + 4 * n_osc))
    table[:, 0] = series.t
    for j, name in enumerate(("n", "v", "friction", "diffusion"), start=1):
        table[:, j::4] = getattr(series, name).T
    names = ["t"] + [f"{c}{i}" for i in range(1, n_osc + 1)
                     for c in ("n", "v", "lambda", "D")]
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=CSV_VERSION_LINE + "\n" + ",".join(names), comments="")


class TestWriter:
    def test_bytes_match_per_value_format(self, tmp_path):
        series = awkward_series()
        path = tmp_path / "series.csv"
        write_timeseries_csv(series, path)

        lines = [CSV_VERSION_LINE,
                 "t," + ",".join(f"n{i},v{i},lambda{i},D{i}" for i in (1, 2, 3))]
        for j in range(series.t.size):
            row = [format(series.t[j], ".17g")]
            for i in range(3):
                row += [format(ch[i, j], ".17g") for ch in
                        (series.n, series.v, series.friction, series.diffusion)]
            lines.append(",".join(row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("rows", [
        _BLOCK_VALUES // 9 - 1, _BLOCK_VALUES // 9, _BLOCK_VALUES // 9 + 1,
        2 * (_BLOCK_VALUES // 9), 1023, 1024, 1025, 2048])
    def test_bytes_match_savetxt_across_blocks(self, tmp_path, rows):
        # The first four row counts straddle the writer's block boundaries
        # for two oscillators (9 columns); the others end mid-block.
        series = awkward_series(n_osc=2, samples=rows,
                                values=np.append(AWKWARD, 1e-300))
        path, expected = tmp_path / "blocks.csv", tmp_path / "savetxt.csv"
        write_timeseries_csv(series, path)
        savetxt(series, expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_rows_wider_than_a_block_are_written_one_at_a_time(self, tmp_path):
        n_osc = _BLOCK_VALUES // 4
        series = awkward_series(n_osc=n_osc, samples=3)
        assert 1 + 4 * n_osc > _BLOCK_VALUES
        path, expected = tmp_path / "wide.csv", tmp_path / "savetxt.csv"
        write_timeseries_csv(series, path)
        savetxt(series, expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_values_read_back_bit_for_bit(self, tmp_path):
        series = awkward_series()
        path = tmp_path / "series.csv"
        write_timeseries_csv(series, path)
        data = read_timeseries_csv(path)
        assert isinstance(data, TimeSeries)
        assert data.diagnostics == {}
        for name in ("t", "n", "v", "friction", "diffusion"):
            written = getattr(series, name)
            read = getattr(data, name)
            assert np.array_equal(read.view(np.uint64), written.view(np.uint64))


HEADER = CSV_VERSION_LINE + "\nt,n1,v1,lambda1,D1\n"


class TestReader:
    @pytest.mark.parametrize("text, message", [
        ("", "unsupported csv version line: '<empty file>'"),
        ("\n", "unsupported csv version line: ''"),
        ("# oscibath-csv v9\n", "unsupported csv version line: '# oscibath-csv v9'"),
        (CSV_VERSION_LINE, "csv has no data rows"),
        (HEADER, "csv has no data rows"),
        (CSV_VERSION_LINE + "\nt,n1\n0,1\n",
         "csv column count must be 1 + 4 per oscillator"),
        (CSV_VERSION_LINE + "\nt,a,b,c,d\n0,1,2,3,4\n",
         "unexpected csv columns: ['t', 'a', 'b', 'c', 'd']"),
        (HEADER + "0,1,2,3\n0.5,1,2,3\n", "line 3 not 5 columns"),
        (HEADER + "0,1,2,3,x\n", "line 3 not numeric"),
        # loadtxt drops a # comment, so the scan names the short line 4.
        (HEADER + "0,1,2,3,4 # c\n0.5,1,2,3\n", "line 4 not 5 columns"),
        # loadtxt refuses a quoted number that the csv module reads.
        (HEADER + '0,1,2,3,"4"\n', "malformed csv data"),
        (HEADER + "0,1,2,3,4\n1,1,2,3,4\n0.5,1,2,3,4\n",
         "csv time column: grid not strictly increasing"),
    ], ids=["empty", "blank", "version", "no-header", "no-rows", "columns",
            "names", "width", "malformed", "comment", "quoted", "time"])
    def test_schema_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvSchemaError) as info:
            read_timeseries_csv(path)
        assert str(info.value).startswith(f"csv {path}: {message}")

    def test_windows_line_endings_read_the_same(self, tmp_path):
        series = awkward_series()
        unix, windows = tmp_path / "unix.csv", tmp_path / "windows.csv"
        write_timeseries_csv(series, unix)
        windows.write_bytes(unix.read_bytes().replace(b"\n", b"\r\n"))
        a, b = read_timeseries_csv(unix), read_timeseries_csv(windows)
        for name in ("t", "n", "v", "friction", "diffusion"):
            assert np.array_equal(getattr(a, name).view(np.uint64),
                                  getattr(b, name).view(np.uint64))


def formatted(values: np.ndarray) -> tuple[bytes, bytes]:
    """The block formatter's bytes for ``values`` and ``'%.17g' %``'s, each
    value followed by a comma."""
    seps = np.full(values.size, np.uint64(ord(",") << 48), "<u8")
    expected = ("%.17g," * values.size % tuple(values.tolist())).encode()
    return bytes(csvio._format_block(values, seps)), expected


def first_difference(got: bytes, expected: bytes, values: np.ndarray) -> str:
    for value, a, b in zip(values.tolist(), got.split(b","), expected.split(b",")):
        if a != b:
            return f"{value!r}: {a!r} != {b!r}"
    return "lengths differ"


@pytest.fixture
def fallback_values(monkeypatch):
    """The values the block formatter hands to ``'%.17g' %``."""
    seen = []
    percent = csvio._percent

    def recording(values):
        seen.extend(values.tolist())
        return percent(values)

    monkeypatch.setattr(csvio, "_percent", recording)
    return seen


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def near_halves() -> list[tuple[float, int]]:
    """Doubles x, with s, whose scaled value |x| * 10**s (s = 16 - E, E
    the decimal exponent) is an integer plus one half to within 2**-45.

    For s > 0, x = M * 2**-(s + j) scales to M * 5**s / 2**j, an integer
    plus 1/2 + t / 2**j when M * 5**s = 2**(j - 1) + t (mod 2**j): exact
    ties for t = 0 (E from 15 to -8), near ones for t != 0 and j >= 47.
    For s = -r < 0, x = M * 2**(w + r) scales to M * 2**w / 5**r, an
    integer plus 1/2 -+ 1 / (2 * 5**r) when M * 2**w = (5**r -+ 1) / 2
    (mod 5**r); 5**r > 2**44 for r >= 19 (E from 35 to 38).  M is the
    least such integer with a scaled value of at least 1e16.
    """
    values = []
    for s in range(1, 25):
        for j in range(1, 57):
            for t in ((0, -2, -1, 1, 2) if j >= 47 else (0,)):
                step = 2 ** j
                m = (step // 2 + t) * pow(5 ** s, -1, step) % step
                m += _ceil_div(_ceil_div(10 ** 16 * step, 5 ** s) - m, step) * step
                if m < 2 ** 53 and m * 5 ** s < 10 ** 17 * step:
                    values.append((math.ldexp(m, -(s + j)), s))
    for r in range(19, 23):
        for w in range(50, 56):
            for sign in (-1, 1):
                step = 5 ** r
                m = (step + sign) // 2 * pow(2 ** w, -1, step) % step
                m += _ceil_div(_ceil_div(10 ** 16 * step, 2 ** w) - m, step) * step
                if m < 2 ** 53 and m * 2 ** w < 10 ** 17 * step:
                    values.append((math.ldexp(m, w + r), -r))
    return values


class TestFormatter:
    """The block formatter's bytes are ``'%.17g' %``'s for every double."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                            2.2250738585072014e-308, 1.7976931348623157e308,
                            math.inf, -math.inf, math.nan])
        values = np.concatenate([bits.view(np.float64), special])
        subnormal = (values != 0) & (np.abs(values) < 2.2250738585072014e-308)
        assert subnormal.sum() > 100
        for block in np.array_split(values, 128):
            got, expected = formatted(block)
            assert got == expected, first_difference(got, expected, block)

    def test_both_sides_of_each_style_boundary(self):
        # %g switches to exponent form below 1e-4 and at 1e17 (17 digits);
        # 1e-5 and 1e16 are the last exponents on each side.  Each power of
        # ten's neighbours also test the carry of rounding up to it.
        values = []
        for power in [1e-5, 1e-4, 1e16, 1e17] + [10.0 ** e for e in range(-300, 300)]:
            for direction in (0.0, math.inf):
                x = power
                for _ in range(40):
                    values.append(x)
                    x = math.nextafter(x, direction)
        values = np.array(values)
        values = np.concatenate([values, -values])
        got, expected = formatted(values)
        assert got == expected, first_difference(got, expected, values)

    def test_fractions_near_one_half_take_the_fallback(self, fallback_values):
        built = near_halves()
        exponents = {16 - s for _, s in built}
        assert len(built) > 100 and {-8, 15, 35, 38} <= exponents
        for x, s in built:
            scaled = Fraction(x) * Fraction(10) ** s
            assert 10 ** 16 <= scaled < 10 ** 17
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(1, 2 ** 45)
        values = np.array([x for x, _ in built])
        values = np.concatenate([values, -values])
        got, expected = formatted(values)
        assert got == expected, first_difference(got, expected, values)
        assert set(fallback_values) == set(values.tolist())

    def test_ordinary_values_take_the_array_path(self, fallback_values):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(2 ** 16) * 10.0 ** rng.integers(-12, 4, 2 ** 16)
        got, expected = formatted(values)
        assert got == expected, first_difference(got, expected, values)
        assert fallback_values == []


def smooth_series(n_osc: int, samples: int) -> TimeSeries:
    t = 0.01 * np.arange(samples)
    phase = np.arange(1, 4 * n_osc + 1).reshape(4, n_osc, 1)
    channels = 0.1 * np.sin(t / phase + phase) + 0.2
    return TimeSeries(t=t, n=channels[0], v=channels[1] - 0.2,
                      friction=channels[2], diffusion=channels[3])


@pytest.mark.parametrize("n_osc, samples", [(32, 101), (2, 8001)])
def test_write_memory_peak(tmp_path, n_osc, samples):
    # Peak traced memory of one write (32 x 101 / 2 x 8001 values), with
    # numpy 2.4: 199 / 208 kB here, 142 / 605 kB for np.savetxt.  Each block
    # of _BLOCK_VALUES values is built from the channels, so the peak
    # follows the block, not the table.
    series = smooth_series(n_osc, samples)
    path = tmp_path / "series.csv"
    write_timeseries_csv(series, path)
    tracemalloc.start()
    try:
        write_timeseries_csv(series, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 230_000
