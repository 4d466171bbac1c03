import numpy as np
import pytest

from oscibath.csvio import (CSV_VERSION_LINE, CsvSchemaError, read_timeseries_csv,
                            write_timeseries_csv)
from oscibath.model import TimeSeries

# Signed zero, the smallest subnormal, a huge value, and two values whose
# shortest repr is shorter than 17 digits.
AWKWARD = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0])


def awkward_series(n_osc: int = 3, samples: int = 7) -> TimeSeries:
    """Every channel cycles through AWKWARD with alternating sign."""
    index = np.arange(4 * n_osc * samples).reshape(4, n_osc, samples)
    sign = np.where(index % 2 == 0, 1.0, -1.0)
    channels = sign * AWKWARD[index % AWKWARD.size]
    return TimeSeries(t=0.01 * np.arange(samples), n=channels[0], v=channels[1],
                      friction=channels[2], diffusion=channels[3])


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
        (HEADER + "0,1,2,3\n0.5,1,2,3\n", "csv row width does not match header"),
        (HEADER + "0,1,2,3,x\n", "malformed csv data: "),
        (HEADER + "0,1,2,3,4\n1,1,2,3,4\n0.5,1,2,3,4\n",
         "csv time column: grid not strictly increasing"),
    ], ids=["empty", "blank", "version", "no-header", "no-rows", "columns",
            "names", "width", "malformed", "time"])
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
