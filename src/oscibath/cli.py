"""Command-line front end.

Subcommands: ``simulate`` (scenario -> time-series CSV), ``analyze``
(CSV -> key = value report), ``sweep`` (one scenario field over several
values, concurrent via --jobs), ``demo`` (bundled fig2/fig4 scenarios run
end to end).

Exit codes: 0 success, 1 configuration or file-format error or a file that
cannot be read or written, 2 integration failure, 3 analysis inconclusive.
``main`` maps every failure to its exit code; a sweep member that fails is
marked ``failed: ...`` in the summary and the other members still run.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    AnalysisError,
    NoOscillation,
    OscillationReport,
    _sync_report,
    eigenfrequency_candidates,
    envelope,
    extract_period,
    nearest_candidate,
)
from .coefficients import OutOfRange, make_provider
from .csvio import read_timeseries_csv, write_timeseries_csv
from .integrator import IntegratorError, integrate_coupled
from .model import InvalidConfig, SimulationConfig, TimeSeries
from .scenario import (
    DEMO_FIG4_BETAS,
    Sections,
    apply_override,
    build_config,
    demo_fig2_scenario,
    demo_fig4_scenario,
    load_scenario,
    read_scenario,
    read_sections,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_INCONCLUSIVE = 3

# Failures of one run: the integration errors exit with EXIT_INTEGRATION,
# the rest (InvalidConfig, CsvSchemaError, unreadable or unwritable files)
# with EXIT_CONFIG.
_INTEGRATION_ERRORS = (IntegratorError, OutOfRange)
_RUN_ERRORS = (*_INTEGRATION_ERRORS, OSError, ValueError)

_SUMMARY_COLUMNS = ("value", "period_1", "period_2", "modulation_depth_1",
                    "modulation_depth_2", "phase_lock_score", "status", "file")


def _err(message: str) -> None:
    print(f"oscibath: {message}", file=sys.stderr)


def _run(sections: Sections,
         csv_path: str | Path) -> tuple[SimulationConfig, TimeSeries]:
    """Build, integrate and write one run; return its config and series."""
    config = build_config(sections)
    series = integrate_coupled(
        config, [make_provider(pc) for pc in config.provider_config])
    write_timeseries_csv(series, csv_path)
    return config, series


def _simulation_summary(series: TimeSeries, output_path: str) -> list[str]:
    diag = series.diagnostics
    lines = [
        f"steps_accepted = {diag['steps_accepted']}",
        f"steps_rejected = {diag['steps_rejected']}",
        f"rejection_ratio = {diag['rejection_ratio']:.6g}",
        f"rhs_evaluations = {diag['rhs_evaluations']}",
        f"h_min = {diag['h_min']:.6g}",
        f"h_max = {diag['h_max']:.6g}",
        f"periods_propagated = {diag['periods_propagated']}",
    ]
    if "floquet_multipliers" in diag:
        lines.append("floquet_multipliers = " + ", ".join(
            format(mu, ".6g") for mu in diag["floquet_multipliers"]))
    for i, residual in enumerate(diag["consistency_residuals"], start=1):
        lines.append(f"consistency_residual_{i} = {residual:.6g}")
    neg = diag["negative_excursions"]
    lines.append(f"negative_excursions = {neg['count']}")
    lines.append(f"most_negative_n = {neg['most_negative']:.6g}")
    lines.append(f"invariant_drift = {diag['invariant_drift']:.6g}")
    lines.append(f"wrote = {output_path}")
    return lines


def _analysis_lines(t: np.ndarray, channels: np.ndarray,
                    config: SimulationConfig | None, *,
                    do_period: bool, do_envelope: bool,
                    sync_pair: tuple[int, int] | None,
                    window: tuple[float, float] | None = None
                    ) -> tuple[list[str], dict[str, str], list[str]]:
    """Analyze the requested metrics once.

    ``config`` is the run's, or None for a CSV analysed without --scenario;
    it supplies atol and, for a sync pair, the candidate frequencies of the
    ``nearest_frequency_i`` lines.  ``window`` None means the late half.

    Returns the key = value report lines, the summary-row values (``.17g``,
    keyed ``period_i``, ``modulation_depth_i`` and ``phase_lock_score``) and
    one error message per metric that could not be estimated.
    """
    # A v1 CSV does not record the run's atol; without a config assume the
    # scenario default.
    atol = config.atol if config is not None else SimulationConfig.atol
    if window is None:
        # Late half of the run: past the coefficient transient for every
        # bundled scenario, and long enough for several oscillation periods.
        window = (float(t[0] + (t[-1] - t[0]) / 2.0), float(t[-1]))
    lines: list[str] = [f"window = {window[0]:.6g}:{window[1]:.6g}"]
    values: dict[str, str] = {}
    errors: list[str] = []
    n_osc = channels.shape[0]

    def sfx(i: int) -> str:
        return "" if n_osc == 1 else f"_{i}"

    # Channel i's extract_period report, or the AnalysisError it raised,
    # without its traceback (which would keep the estimator's arrays
    # alive): --period and the sync pair share one estimate per channel.
    reports: dict[int, OscillationReport | AnalysisError] = {}

    def period_of(i: int) -> OscillationReport | AnalysisError:
        if i not in reports:
            try:
                reports[i] = extract_period(t, channels[i - 1], window, atol=atol)
            except AnalysisError as exc:
                reports[i] = exc.with_traceback(None)
        return reports[i]

    if do_period:
        for i in range(1, n_osc + 1):
            report = period_of(i)
            if isinstance(report, AnalysisError):
                if isinstance(report, NoOscillation):
                    lines.append(f"is_stationary{sfx(i)} = true")
                    lines.append(f"mean_level{sfx(i)} = "
                                 f"{report.report.mean_level:.6g} "
                                 f"± {report.report.std:.2g}")
                errors.append(f"channel {i}: {report}")
                continue
            values[f"period_{i}"] = format(report.period, ".17g")
            lines.append(f"period{sfx(i)} = {report.period:.6g} "
                         f"± {report.period_uncertainty:.2g}")
            lines.append(f"mean_level{sfx(i)} = {report.mean_level:.6g} "
                         f"± {report.std:.2g}")
            lines.append(f"amplitude{sfx(i)} = {report.amplitude:.6g}")
            lines.append(f"is_stationary{sfx(i)} = false")

    if do_envelope:
        for i in range(1, n_osc + 1):
            try:
                report = envelope(t, channels[i - 1], window)
            except AnalysisError as exc:
                errors.append(f"channel {i}: {exc}")
                continue
            values[f"modulation_depth_{i}"] = format(report.modulation_depth, ".17g")
            lines.append(f"modulation_depth{sfx(i)} = "
                         f"{report.modulation_depth:.6g}")
            lines.append(f"n_peaks{sfx(i)} = {len(report.peak_times)}")

    if sync_pair is not None:
        a, b = sync_pair
        report_a, report_b = period_of(a), period_of(b)
        failed = [r for r in (report_a, report_b)
                  if isinstance(r, AnalysisError)]
        if failed:
            # Channel a's error first, as synchronization_metrics raises it.
            errors.append(f"sync {a},{b}: {failed[0]}")
        else:
            sync = _sync_report(t, channels[a - 1], channels[b - 1], window,
                                report_a, report_b)
            values["phase_lock_score"] = format(sync.phase_lock_score, ".17g")
            lines.append(f"period_ratio = {sync.period_ratio:.6g} "
                         f"± {sync.ratio_uncertainty:.2g}")
            lines.append(f"phase_lock_score = {sync.phase_lock_score:.6g}")
            if config is not None:
                candidates = eigenfrequency_candidates(config)
                for idx, period in ((a, sync.period_a), (b, sync.period_b)):
                    family, value = nearest_candidate(2.0 * np.pi / period,
                                                      candidates)
                    lines.append(f"nearest_frequency_{idx} = "
                                 f"{family} {value:.6g}")
    return lines, values, errors


def _print_analysis(lines: list[str], errors: list[str]) -> int:
    """Print an analysis; return EXIT_INCONCLUSIVE if any metric failed."""
    for message in errors:
        _err(message)
    for line in lines:
        print(line)
    return EXIT_INCONCLUSIVE if errors else EXIT_OK


def _write_summary(path: Path, rows: list[dict[str, str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote = {path}")


def cmd_simulate(scenario_path: str, output_path: str) -> int:
    _, series = _run(read_scenario(scenario_path), output_path)
    for line in _simulation_summary(series, output_path):
        print(line)
    return EXIT_OK


def _parse_window(raw: str, t: np.ndarray) -> tuple[float, float]:
    """The window analysed: --window t_a:t_b clipped to the times t."""
    try:
        lo, hi = raw.split(":")
        window = (float(lo), float(hi))
    except ValueError:
        raise InvalidConfig(f"--window must be t_a:t_b, got {raw!r}") from None
    if not window[0] < window[1]:
        raise InvalidConfig("--window start must precede end")
    first, last = float(t[0]), float(t[-1])
    window = (max(window[0], first), min(window[1], last))
    if not window[0] < window[1]:
        raise InvalidConfig(f"--window {raw} lies outside the data's times "
                            f"{first:.6g}:{last:.6g}")
    return window


def _parse_pair(raw: str, n_osc: int) -> tuple[int, int]:
    try:
        a, b = (int(part) for part in raw.split(","))
    except ValueError:
        raise InvalidConfig(f"--sync must be a,b, got {raw!r}") from None
    if not (1 <= a <= n_osc and 1 <= b <= n_osc):
        raise InvalidConfig(f"--sync channel out of range 1..{n_osc}")
    if a == b:
        raise InvalidConfig(f"--sync {raw} pairs channel {a} with itself")
    return a, b


def cmd_analyze(csv_path: str, *, do_period: bool, do_envelope: bool,
                sync: str | None, window: str | None,
                scenario: str | None) -> int:
    series = read_timeseries_csv(csv_path)
    config = None
    if scenario is not None:
        config = load_scenario(scenario)
        if config.n_oscillators != series.n_oscillators:
            raise InvalidConfig(f"--scenario has {config.n_oscillators} "
                                f"oscillators, the csv has "
                                f"{series.n_oscillators}")
    pair = _parse_pair(sync, series.n_oscillators) if sync else None
    win = _parse_window(window, series.t) if window else None

    if not (do_period or do_envelope or pair):
        do_period = True

    lines, _, errors = _analysis_lines(
        series.t, series.n, config, do_period=do_period,
        do_envelope=do_envelope, sync_pair=pair, window=win)
    return _print_analysis(lines, errors)


def _sweep_worker(task) -> dict[str, str]:
    sections, param, token, csv_path = task
    row = {"value": token}
    try:
        config, series = _run(apply_override(sections, param, token), csv_path)
    except _RUN_ERRORS as exc:
        row["status"] = f"failed: {exc}"
        return row

    # The summary row has columns for the first two channels only.
    _, values, _ = _analysis_lines(
        series.t, series.n[:2], config, do_period=True, do_envelope=True,
        sync_pair=(1, 2) if series.n_oscillators >= 2 else None)
    return dict(row, **values, status="ok", file=Path(csv_path).name)


def cmd_sweep(scenario_path: str, output_dir: str, *, param: str,
              values: str, jobs: int) -> int:
    if jobs < 1:
        raise InvalidConfig(f"--jobs must be at least 1, got {jobs}")
    sections = read_scenario(scenario_path)
    tokens = [token.strip() for token in values.split(",") if token.strip()]
    if not tokens:
        raise InvalidConfig("--values is empty")

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(sections, param, token, str(out_dir / f"sweep_{i:03d}.csv"))
             for i, token in enumerate(tokens)]

    # A fork pool starts all of its workers at the first submit.
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: it loads multiprocessing, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(task) for task in tasks]

    for row in rows:
        print(f"{param} = {row['value']}: {row['status']}")
    _write_summary(out_dir / "summary.csv", rows)
    return EXIT_OK if any(row["status"] == "ok" for row in rows) else EXIT_CONFIG


def _demo_run(scenario_text: str, stem: str, out_dir: Path, *,
              do_envelope: bool) -> tuple[int, dict[str, str]]:
    """Write scenario + CSV + report for one demo run; return (code, summary row)."""
    (out_dir / f"{stem}.scn").write_text(scenario_text, encoding="utf-8")
    csv_path = out_dir / f"{stem}.csv"
    config, series = _run(read_sections(scenario_text), csv_path)
    for line in _simulation_summary(series, str(csv_path)):
        print(line)

    lines, values, errors = _analysis_lines(
        series.t, series.n, config, do_period=True, do_envelope=do_envelope,
        sync_pair=(1, 2) if series.n_oscillators >= 2 else None)
    report_path = out_dir / f"{stem}_report.txt"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    row = dict(values, status="ok", file=csv_path.name)
    return _print_analysis(lines, errors), row


def cmd_demo(name: str, output_dir: str) -> int:
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "fig2":
        return _demo_run(demo_fig2_scenario(), "fig2", out_dir,
                         do_envelope=False)[0]
    if name != "fig4":
        raise InvalidConfig(f"unknown demo '{name}' (available: fig2, fig4)")
    worst = EXIT_OK
    rows = []
    for beta in DEMO_FIG4_BETAS:
        stem = f"fig4_beta{beta}"
        code, row = _demo_run(demo_fig4_scenario(beta), stem, out_dir,
                              do_envelope=True)
        worst = max(worst, code)
        rows.append(dict(row, value=beta))
    _write_summary(out_dir / "fig4_summary.csv", rows)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscibath",
        description="Integrate occupation-number master equations with "
                    "time-dependent friction/diffusion and analyze the "
                    "late-time oscillations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario to a CSV")
    p_sim.add_argument("scenario")
    p_sim.add_argument("output")

    p_ana = sub.add_parser("analyze", help="report metrics from a CSV")
    p_ana.add_argument("csv")
    p_ana.add_argument("--period", action="store_true")
    p_ana.add_argument("--envelope", action="store_true")
    p_ana.add_argument("--sync", metavar="A,B")
    p_ana.add_argument("--window", metavar="TA:TB")
    p_ana.add_argument("--scenario", metavar="PATH",
                       help="scenario of the run (same oscillator count "
                            "as the CSV); supplies its atol (default "
                            "1e-12) and, for --sync, the candidate "
                            "frequencies")

    p_sw = sub.add_parser("sweep", help="run a scenario over several values "
                                        "of one field")
    p_sw.add_argument("scenario")
    p_sw.add_argument("output_dir")
    p_sw.add_argument("--param", required=True, metavar="DOTTED.KEY")
    p_sw.add_argument("--values", required=True, metavar="V1,V2,...")
    p_sw.add_argument("--jobs", type=int, default=1)

    p_demo = sub.add_parser("demo", help="run a bundled demo scenario")
    p_demo.add_argument("name", choices=("fig2", "fig4"))
    p_demo.add_argument("output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.scenario, args.output)
        if args.command == "analyze":
            return cmd_analyze(args.csv, do_period=args.period,
                               do_envelope=args.envelope, sync=args.sync,
                               window=args.window, scenario=args.scenario)
        if args.command == "sweep":
            return cmd_sweep(args.scenario, args.output_dir, param=args.param,
                             values=args.values, jobs=args.jobs)
        if args.command == "demo":
            return cmd_demo(args.name, args.output_dir)
    except _INTEGRATION_ERRORS as exc:
        _err(f"integration failed: {exc}")
        return EXIT_INTEGRATION
    except _RUN_ERRORS as exc:
        _err(str(exc))
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
