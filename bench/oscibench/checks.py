"""Correctness checks on the program's outputs.

The checks run outside the timed region and read the written files with
numpy directly, never through the program's own reader.  Each check yields
one ItemCheck per item (sweep member, simulate run or analyzed file); a
failed ItemCheck counts in the benchmark's ``failed`` total.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Largest accepted relative drift of the conserved sum
# I(t) = sum_i (v_i + 2 lambda_i n_i - 2 D_i), taken against the largest
# per-sample magnitude of its terms.  Runs at rtol 1e-9 stay near 1e-7 on
# fig4 and below 1e-6 on the tabulated chain.
DRIFT_BOUND = 1e-5


@dataclass
class ItemCheck:
    ok: bool
    reason: str = ""
    drift: float | None = None


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """Columns of a time-series CSV by name; '#' lines are skipped."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    names = [name.strip() for name in lines[0].split(",")]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError("row width does not match the header")
    return {name: data[:, k] for k, name in enumerate(names)}


def conserved_drift(columns: dict[str, np.ndarray]) -> float:
    """max_t |I(t) - I(0)| relative to the largest magnitude of I's terms."""
    n_osc = sum(1 for name in columns if re.fullmatch(r"n\d+", name))
    total = np.zeros_like(columns["t"])
    scale = np.zeros_like(columns["t"])
    for i in range(1, n_osc + 1):
        n, v = columns[f"n{i}"], columns[f"v{i}"]
        lam, dif = columns[f"lambda{i}"], columns[f"D{i}"]
        total += v + 2.0 * lam * n - 2.0 * dif
        scale += np.abs(v) + 2.0 * np.abs(lam * n) + 2.0 * np.abs(dif)
    return float(np.abs(total - total[0]).max() / max(scale.max(), 1e-300))


def check_timeseries_csv(path: Path, n_osc: int | None = None,
                         n_rows: int | None = None) -> ItemCheck:
    """Shape of a written CSV and the drift of its conserved sum."""
    name = Path(path).name
    try:
        columns = read_columns(path)
        drift = conserved_drift(columns)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ItemCheck(False, f"{name}: unreadable: {exc}")
    found_osc = sum(1 for key in columns if re.fullmatch(r"n\d+", key))
    if n_osc is not None and found_osc != n_osc:
        return ItemCheck(False, f"{name}: {found_osc} oscillators, want {n_osc}")
    if n_rows is not None and columns["t"].size != n_rows:
        return ItemCheck(False, f"{name}: {columns['t'].size} rows, want {n_rows}")
    if not drift <= DRIFT_BOUND:
        return ItemCheck(False, f"{name}: conserved-sum drift {drift:.3g} "
                                f"exceeds {DRIFT_BOUND:g}", drift)
    return ItemCheck(True, drift=drift)


def parse_report(text: str) -> dict[str, str]:
    """``key = value [± unc]`` lines -> {key: value}."""
    report = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(" = ")
        if sep:
            report[key.strip()] = rest.split(" ±")[0].strip()
    return report


def read_summary(path: Path) -> list[dict[str, str]]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_sweep(code: int, out_dir: Path, tokens: list[str],
                n_rows: int | None = None) -> list[ItemCheck]:
    """One ItemCheck per swept value: exit code, member status, CSV drift."""
    if code != 0:
        return [ItemCheck(False, f"sweep exited {code}") for _ in tokens]
    try:
        rows = read_summary(out_dir / "summary.csv")
    except OSError as exc:
        return [ItemCheck(False, f"summary.csv: {exc}") for _ in tokens]
    results = []
    for k, token in enumerate(tokens):
        row = rows[k] if k < len(rows) else None
        if row is None or row["value"] != token:
            results.append(ItemCheck(False, f"value {token}: no summary row"))
        elif row["status"] != "ok":
            results.append(ItemCheck(False, f"value {token}: {row['status']}"))
        else:
            results.append(check_timeseries_csv(out_dir / row["file"], 2, n_rows))
    return results


def check_simulate(code: int, stdout: str, csv_path: Path, n_osc: int,
                   n_rows: int) -> ItemCheck:
    if code != 0:
        return ItemCheck(False, f"simulate exited {code}")
    report = parse_report(stdout)
    for key in ("steps_accepted", "steps_rejected", "rhs_evaluations"):
        if key not in report:
            return ItemCheck(False, f"simulate summary lacks {key}")
    return check_timeseries_csv(csv_path, n_osc, n_rows)


def check_analyze(code: int, stdout: str,
                  summary_row: dict[str, str]) -> ItemCheck:
    """Exit code, the non-stationarity claim and the write->read round trip.

    ``summary_row`` is the sweep-summary row of the analyzed file; its
    periods were computed from the in-memory series before it was written.
    """
    if code != 0:
        return ItemCheck(False, f"analyze exited {code}")
    report = parse_report(stdout)
    for i in (1, 2):
        stationary = report.get(f"is_stationary_{i}")
        if stationary != "false":
            return ItemCheck(False, f"channel {i}: is_stationary = {stationary}")
        summary_period = summary_row.get(f"period_{i}", "")
        want = format(float(summary_period), ".6g") if summary_period else "?"
        if report.get(f"period_{i}") != want:
            return ItemCheck(False, f"period_{i} = {report.get(f'period_{i}')}, "
                                    f"sweep summary gives {want}")
    for key in ("modulation_depth_1", "modulation_depth_2", "phase_lock_score",
                "nearest_frequency_1", "nearest_frequency_2"):
        if key not in report:
            return ItemCheck(False, f"analyze report lacks {key}")
    return ItemCheck(True)


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Keys whose exact count records differ between two runs."""
    return [key for key in sorted(set(first) | set(second))
            if first.get(key) != second.get(key)]
