"""Versioned time-series CSV format.

Layout: one version comment line, one column-name line, then data rows.
Columns are ``t`` followed by ``n{i},v{i},lambda{i},D{i}`` per oscillator.
Floats are written with 17 significant digits so repeated runs are
byte-comparable and values round-trip exactly.  The bytes are those of
``np.savetxt(fmt="%.17g", delimiter=",")`` with the same header.

The writer formats blocks of whole rows with array arithmetic.  It
computes each value's 17 digits exactly, as an int64, from an error-free
product with a double-double power of ten (Dekker 1971), and lays out the
digits, point, exponent and separators as ``%.17g`` would.  A value it
cannot prove goes through ``'%.17g' %`` (CPython's correctly rounded
conversion): zero, a non-finite value, a magnitude outside the power table,
or one whose scaled fraction lies within ``_HALF_WINDOW`` of one half.

The reader returns the ``TimeSeries`` the writer was given, without its
``diagnostics``; the time column must therefore pass the ``TimeSeries``
grid rule (strictly increasing, uniform spacing), as every estimator
assumes, and every other column must be finite, as a run's output is.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .model import TimeSeries

__all__ = ["CsvSchemaError", "write_timeseries_csv",
           "read_timeseries_csv", "CSV_VERSION_LINE"]

CSV_VERSION_LINE = "# oscibath-csv v1"
# Values formatted per call, in whole rows (at least one).  A block's
# transient memory grows with its values: under tracemalloc, one write of
# a 32-oscillator chain (101 rows x 129 columns) peaked at 101, 199 and
# 401 kB in blocks of 1,024, 2,048 and 4,096 values (np.savetxt: 134 kB),
# and of a fig4 file (8,001 rows x 9) at 108, 208 and 409 kB (np.savetxt:
# 605 kB).  The fig4 write took 32.0, 23.5 and 18.8 ms of CPU, the chain
# 7.0, 4.8 and 4.1 ms (medians of 15 interleaved writes, 2-vCPU host).
_BLOCK_VALUES = 2048

# Decimal exponents E (|x| = d.ddd... * 10**E) of the power table, for
# 1e-283 <= |x| < 1e299.  There every number the digits are computed from
# stays finite and normal: 2**27 + 1 times |x| or times hi = fl(10**(16 -
# E)) <= 1e300, and lo = fl(10**(16 - E) - hi) >= 1e-299.
_E_MIN, _E_MAX = -284, 299
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# The digits D = round(|x| * 10**s), s = 16 - E, are trusted when the
# computed fraction f of the scaled value is farther than this from one
# half.  Let u = 2**-53 and write x for |x|.  For a value that passes,
# N = ph + floor(t) lies in [1e16, 1e17), so ph < 2**57 and:
# - 10**s = hi + lo + e0 with |lo| <= u hi and |e0| <= u |lo| (both
#   correctly rounded), so |x lo| <= u ph (1 + u) < 16.1 and |x e0| < 16.1 u;
# - x hi = ph + pl exactly (Dekker's product), |pl| <= ulp(ph) / 2 <= 8;
# - q = fl(x lo) is off by at most 16.1 u, and t = fl(pl + q) by 24.2 u;
# - f = t - floor(t) is off by at most u / 2 (it rounds when t < 0).
# So the computed N + f is within 57 u < 2**-47 of |x| * 10**s, and
# D = N + (f > 1/2) when f is farther than that from one half.  The window
# is eight times the bound.
_HALF_WINDOW = 2.0 ** -44


def _power_table() -> np.ndarray:
    """Rows hi, hi's Veltkamp halves, lo: 10**(16 - E) = hi + lo, E from
    _E_MIN to _E_MAX, each part correctly rounded (int true division)."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        a, b = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi_head = c - (c - hi)
        rows.append((hi, hi_head, hi - hi_head, (num * b - a * den) / (den * b)))
    return np.array(rows).T.copy()


def _word(text: bytes, at: int = 0) -> int:
    """``text`` as the little-endian bytes ``at`` to ``at + len(text)`` of
    a uint64."""
    return int.from_bytes(text, "little") << 8 * at


def _layout_tables():
    """Per-exponent text, digit lookups and point-insertion masks.

    A value is laid out in four little-endian uint64 words, zero bytes
    standing for nothing: sign and ``0.000`` prefix in bytes 0-5 and the
    first digit in byte 7; digits 1-8; digits 9-16; then the digit the
    point pushed out of digit 16's word, the ``e+XX`` suffix in bytes 1-5
    and the separator in byte 6.  E runs to _E_MAX + 1 for the carry of
    rounding up to 10**(E + 1).
    """
    exps = range(_E_MIN, _E_MAX + 2)
    fixed = [-4 <= e < 17 for e in exps]
    prefix = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in exps]
    head = np.array([_word(p) for p in prefix] + [_word(b"-" + p) for p in prefix],
                    "<u8")
    tail = np.array([_word(b"" if f else b"e%+03d" % e, 1)
                     for e, f in zip(exps, fixed)], "<u8")
    # The digit the point follows (17: the prefix holds it) and the last
    # integer digit of fixed notation, which %g keeps even when zero.
    point_after = np.array([e if 0 <= e < 17 else 17 if f else 0
                            for e, f in zip(exps, fixed)], np.intp)
    last_integer = np.array([e if 0 <= e < 17 else 0 for e in exps], np.intp)

    # Four digits as bytes, and the index (1-16) of the last nonzero one
    # for each of the four groups, 0 when the group is zero.
    group = np.arange(10000)
    four = np.zeros(10000, "<u8")
    last = np.zeros(10000, np.intp)
    for j in range(4):
        digit = group // 10 ** (3 - j)
        digit -= group // 10 ** (4 - j) * 10
        last[digit > 0] = j + 1
        digit += 48
        four |= digit.view(np.uint64) << np.uint64(8 * j)
    last_nonzero = np.empty((4, 10000), np.int8)
    for j in range(4):
        last_nonzero[j] = np.where(last > 0, last + 4 * j, 0)

    # The point follows digit q (0-15), which puts it before digit byte q
    # of the two digit words (q = 16: no point): the bytes from q up move
    # up one byte, a word's top byte moving into the next word.
    ones = [(1 << 8 * r) - 1 for r in range(8)] + [(1 << 64) - 1]
    first_bytes = np.array(ones, "<u8")
    stay = np.array([[ones[min(max(q - start, 0), 8)] for q in range(17)]
                     for start in (0, 8)], "<u8")
    move = np.array([[ones[8] ^ ones[min(max(q - start, 0), 8)] for q in range(17)]
                     for start in (0, 8)], "<u8")
    dot = np.array([[_word(b".", q - start) if start <= q < start + 8 else 0
                     for q in range(17)] for start in (0, 8)], "<u8")
    return (head, tail, point_after, last_integer, four, last_nonzero,
            first_bytes, stay, move, dot)


_HI, _HI_HEAD, _HI_TAIL, _LO = _power_table()
(_HEAD, _TAIL, _POINT_AFTER, _LAST_INTEGER, _FOUR_DIGITS, _LAST_NONZERO,
 _FIRST_BYTES, _STAY, _MOVE, _DOT) = _layout_tables()
_NE = _E_MAX + 2 - _E_MIN
_LOW, _HIGH = 10.0 ** (_E_MIN + 1), 10.0 ** _E_MAX
_8, _56 = np.uint64(8), np.uint64(56)


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytearray:
    """``x`` formatted as ``%.17g``, each value followed by its separator.

    ``seps`` holds each value's separator byte at bit 48 of a uint64.
    """
    a = np.abs(x)
    in_range = (a >= _LOW) & (a < _HIGH)
    a[~in_range] = 1.0
    # k = E - _E_MIN indexes the tables.  E comes from log10, put right
    # where x * 10**(16 - E) leaves [1e16, 1e17); a wrong E leaves N
    # outside that range, and the value falls back.
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    k -= _E_MIN
    ph = a * _HI.take(k)
    off = np.flatnonzero((ph < 1e16) | (ph >= 1e17))
    if off.size:
        k[off] += np.where(ph[off] < 1e16, -1, 1)
        ph[off] = a[off] * _HI.take(k[off])
    t = a * _LO.take(k)
    # Dekker's product: x * hi = ph + pl exactly, with x split into halves
    # of at most 26 bits (a_head, then a) and hi's halves from the table.
    a_head = a * _SPLIT
    a_head -= a_head - a
    a -= a_head
    pl = a_head * _HI_HEAD.take(k)
    pl -= ph
    pl += a_head * _HI_TAIL.take(k)
    pl += a * _HI_HEAD.take(k)
    pl += a * _HI_TAIL.take(k)
    del a, a_head
    t += pl
    del pl
    whole = np.floor(t)
    t -= whole
    # |x| * 10**(16 - E) is within 2**-47 of N + t, N = ph + whole, and
    # 0 <= t <= 1 (see _HALF_WINDOW).
    n = ph.astype(np.int64)
    n += whole.astype(np.int64)
    del ph, whole
    d = n + (t > 0.5)
    t -= 0.5
    fallback = np.abs(t) <= _HALF_WINDOW
    fallback |= ~in_range
    fallback |= n < 10 ** 16
    fallback |= n >= 10 ** 17
    del t, n, in_range
    carry = d >= 10 ** 17
    d[carry] = 10 ** 16
    k += carry

    # The digits: the first, then four groups of four.
    top = d // 10 ** 8
    d -= top * 10 ** 8
    first = top // 10 ** 8
    top -= first * 10 ** 8
    groups = []
    for eight in (top, d):
        high = eight // 10 ** 4
        groups += [high, eight - high * 10 ** 4]
    del top, d, eight, high
    # %g keeps the digits up to the last nonzero one and, in fixed
    # notation, every integer digit; the point follows digit q (none: 16).
    last = _LAST_INTEGER.take(k)
    for j, g in enumerate(groups):
        np.maximum(last, _LAST_NONZERO[j].take(g), out=last)
    point = _POINT_AFTER.take(k)
    q = np.where(last > point, point, 16)
    del point
    digits, spill = [], 0
    for half in (0, 1):
        low, high = groups.pop(0), groups.pop(0)
        word = _FOUR_DIGITS.take(high)
        word <<= 32
        word |= _FOUR_DIGITS.take(low)
        del low, high
        word &= _FIRST_BYTES.take(np.clip(last - 8 * half, 0, 8))
        moved = word & _MOVE[half].take(q)
        word &= _STAY[half].take(q)
        word |= moved << _8
        word |= _DOT[half].take(q)
        word |= spill
        moved >>= _56
        spill = moved
        digits.append(word)
    del last, q, moved

    head = _HEAD.take(k + _NE * np.signbit(x))
    first += 48
    first <<= 56
    head |= first.view(np.uint64)
    del first
    buf = bytearray(32 * x.size)
    slab = np.frombuffer(buf, "<u8").reshape(x.size, 4)
    slab[:, 0] = head
    slab[:, 1] = digits[0]
    slab[:, 2] = digits[1]
    del head, digits
    tail = _TAIL.take(k)
    tail |= spill
    tail |= seps
    slab[:, 3] = tail
    del tail, spill, k
    redo = np.flatnonzero(fallback)
    if redo.size:
        slab[redo, :3] = np.frombuffer(_percent(x[redo]), "<u8").reshape(-1, 3)
        slab[redo, 3] = seps[redo]
    del slab
    return buf.translate(None, b"\0")


def _percent(values: np.ndarray) -> bytes:
    """Each value as ``'%.17g' %`` writes it, padded with zero bytes to 24,
    the longest such text (``-d.dddddddddddddddde-308``)."""
    return b"".join(("%.17g" % v).encode().ljust(24, b"\0")
                    for v in values.tolist())


class CsvSchemaError(ValueError):
    """The file does not follow the versioned time-series schema."""


def _csv_floats(f, header: list[str], where: str,
                error: type[ValueError]) -> list[list[float]]:
    """The rows after ``header`` of a csv text file as floats, skipping blank
    and ``#`` lines; ``error`` names the line of the first bad row."""
    reader = csv.reader(f)
    rows = ((reader.line_num, row) for row in reader
            if row and not row[0].lstrip().startswith("#"))
    data = []
    try:
        if [c.strip() for c in next(rows, (0, []))[1]] != header:
            raise error(f"{where}: header must be '{','.join(header)}'")
        for lineno, row in rows:
            if len(row) != len(header):
                raise error(f"{where}: line {lineno} not {len(header)} columns")
            try:
                data.append([float(c) for c in row])
            except ValueError as exc:
                raise error(f"{where}: line {lineno} not numeric") from exc
    except csv.Error as exc:
        raise error(f"{where}: line {reader.line_num}: {exc}") from exc
    return data


def _column_names(n_osc: int) -> list[str]:
    names = ["t"]
    for i in range(1, n_osc + 1):
        names += [f"n{i}", f"v{i}", f"lambda{i}", f"D{i}"]
    return names


def write_timeseries_csv(series: TimeSeries, path: str | Path) -> None:
    n_osc = series.n_oscillators
    width = 1 + 4 * n_osc
    rows = max(1, _BLOCK_VALUES // width)
    ends = np.full(width, ord(","), "<u8")
    ends[-1] = ord("\n")
    seps = np.tile(ends << np.uint64(48), rows)
    channels = (series.n, series.v, series.friction, series.diffusion)
    with open(path, "wb") as fh:
        fh.write((CSV_VERSION_LINE + "\n"
                  + ",".join(_column_names(n_osc)) + "\n").encode("utf-8"))
        for start in range(0, series.t.size, rows):
            t = series.t[start:start + rows]
            block = np.empty((t.size, width))
            block[:, 0] = t
            for j, channel in enumerate(channels, start=1):
                block[:, j::4] = channel[:, start:start + rows].T
            fh.write(_format_block(block.reshape(-1), seps[:block.size]))


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
            if not header or not any(line.split("#", 1)[0].strip() for line in fh):
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
            except ValueError:  # a UnicodeDecodeError too: the scan meets it
                data = None
            if data is None or data.shape[1] != len(names):
                # loadtxt counts data rows, not lines; cut # comments as it does.
                fh.seek(0)
                _csv_floats((line.split("#", 1)[0] for line in fh), names,
                            where, CsvSchemaError)
                raise CsvSchemaError(f"{where}: malformed csv data")
    except UnicodeDecodeError as exc:
        raise CsvSchemaError(f"{where}: not UTF-8 ({exc.reason})") from exc
    try:
        series = TimeSeries(t=data[:, 0], n=data[:, 1::4].T, v=data[:, 2::4].T,
                            friction=data[:, 3::4].T, diffusion=data[:, 4::4].T)
    except ValueError as exc:
        raise CsvSchemaError(f"{where}: csv time column: {exc}") from None
    finite = np.isfinite(data[:, 1:]).all(axis=0)
    if not finite.all():
        raise CsvSchemaError(f"{where}: csv column {names[1 + finite.argmin()]}"
                             " holds a non-finite value")
    return series
