import numpy as np

from oscibath.csvio import CSV_VERSION_LINE, read_timeseries_csv, write_timeseries_csv
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
