"""Versioned time-series CSV format.

Layout: one version comment line, one column-name line, then data rows.
Columns are ``t`` followed by ``n{i},v{i},lambda{i},D{i}`` per oscillator.
Floats are written with 17 significant digits so repeated runs are
byte-comparable and values round-trip exactly.  The reader returns the
``TimeSeries`` the writer was given, without its ``diagnostics``; the time
column must therefore pass the ``TimeSeries`` grid rule (strictly
increasing, uniform spacing), as every estimator assumes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import TimeSeries

__all__ = ["CsvSchemaError", "write_timeseries_csv",
           "read_timeseries_csv", "CSV_VERSION_LINE"]

CSV_VERSION_LINE = "# oscibath-csv v1"


class CsvSchemaError(ValueError):
    """The file does not follow the versioned time-series schema."""


def _column_names(n_osc: int) -> list[str]:
    names = ["t"]
    for i in range(1, n_osc + 1):
        names += [f"n{i}", f"v{i}", f"lambda{i}", f"D{i}"]
    return names


def write_timeseries_csv(series: TimeSeries, path: str | Path) -> None:
    n_osc = series.n_oscillators
    table = np.empty((series.t.size, 1 + 4 * n_osc))
    table[:, 0] = series.t
    table[:, 1::4] = series.n.T
    table[:, 2::4] = series.v.T
    table[:, 3::4] = series.friction.T
    table[:, 4::4] = series.diffusion.T
    header = CSV_VERSION_LINE + "\n" + ",".join(_column_names(n_osc))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header,
               comments="")


def read_timeseries_csv(path: str | Path) -> TimeSeries:
    where = f"csv {Path(path)}"
    try:
        with open(path, encoding="utf-8") as fh:
            version = fh.readline()
            if version.strip() != CSV_VERSION_LINE:
                found = version.strip() if version else "<empty file>"
                raise CsvSchemaError(
                    f"{where}: unsupported csv version line: {found!r}")
            header = fh.readline()
            start = fh.tell()
            if not header or not fh.readline():
                raise CsvSchemaError(f"{where}: csv has no data rows")
            names = [c.strip() for c in header.split(",")]
            if len(names) < 5 or (len(names) - 1) % 4 != 0:
                raise CsvSchemaError(
                    f"{where}: csv column count must be 1 + 4 per oscillator")
            n_osc = (len(names) - 1) // 4
            if names != _column_names(n_osc):
                raise CsvSchemaError(f"{where}: unexpected csv columns: {names}")

            fh.seek(start)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise CsvSchemaError(f"{where}: malformed csv data: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvSchemaError(f"{where}: not UTF-8 ({exc.reason})") from exc
    if data.shape[1] != len(names):
        raise CsvSchemaError(f"{where}: csv row width does not match header")
    try:
        return TimeSeries(t=data[:, 0], n=data[:, 1::4].T, v=data[:, 2::4].T,
                          friction=data[:, 3::4].T, diffusion=data[:, 4::4].T)
    except ValueError as exc:
        raise CsvSchemaError(f"{where}: csv time column: {exc}") from None
