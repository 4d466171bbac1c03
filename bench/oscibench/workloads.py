"""The benchmark's workloads.

Each workload builds, from a directory and a seed, a Plan: the distinct
``oscibath`` commands of one pass, a warm-up command, and the checks of
what set-up wrote.  The timed phase cycles through the pass in a closed
loop with one client.  Every command carries its own output check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .checks import (
    ItemCheck,
    check_analyze,
    check_simulate,
    check_sweep,
    read_summary,
)
from .inputs import DEMO_BETA_RANGE, fig4_scenario, log_stratified_tokens, write_chain

Runner = Callable[[list[str]], tuple[int, str]]
Check = Callable[[int, str], list[ItemCheck]]

SWEEP_BETA_RANGE = (0.05, 5.0)


@dataclass
class Command:
    key: str
    argv: list[str]
    items: int
    check: Check


@dataclass
class Plan:
    commands: list[Command]
    warmup: Command
    verify_setup: Callable[[], list[ItemCheck]] = field(default=lambda: [])


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str  # layer predicted to take the largest self time when traced
    build: Callable[[Path, int, Runner], Plan]


def _n_rows(t_end: float, output_dt: float = 0.01) -> int:
    return int(math.floor(t_end / output_dt + 1e-9)) + 1


def _sweep_command(key: str, scenario: Path, out_dir: Path, tokens: list[str],
                   n_rows: int) -> Command:
    argv = ["sweep", str(scenario), str(out_dir), "--param", "coupling.beta",
            "--values", ",".join(tokens), "--jobs", "1"]
    return Command(key, argv, len(tokens),
                   lambda code, stdout: check_sweep(code, out_dir, tokens, n_rows))


def build_sweep_fig4(directory: Path, seed: int, run: Runner, *,
                     strata: int = 12, per_command: int = 4,
                     t_end: float = 80.0) -> Plan:
    """fig4 swept over one beta per log-stratum of [0.05, 5].

    Command c sweeps strata c, c + G, c + 2G, ... (G = strata / per_command),
    so every command spans the whole beta range and costs about the same.
    """
    tokens = log_stratified_tokens(seed, *SWEEP_BETA_RANGE, strata)
    scenario = directory / "fig4.scn"
    scenario.write_text(fig4_scenario("0.5", t_end), encoding="utf-8")
    n_rows = _n_rows(t_end)
    groups = strata // per_command
    commands = [_sweep_command(f"sweep{c}", scenario, directory / f"sweep{c}",
                               tokens[c::groups], n_rows)
                for c in range(groups)]
    warmup = _sweep_command("warmup", scenario, directory / "warmup",
                            tokens[:1], n_rows)
    return Plan(commands, warmup)


def build_chain_tabulated(directory: Path, seed: int, run: Runner, *,
                          chains: int = 4, n: int = 32, t_end: float = 1.0,
                          knot_dt: float = 0.1) -> Plan:
    """One simulate per seeded n-oscillator chain with tabulated coefficients.

    A pass covers ``chains`` different chains: the integrator's step count
    on one chain varies by about 20% between seeds, and the mean over a
    pass varies less.
    """
    n_rows = _n_rows(t_end)
    commands = []
    for k in range(chains):
        scenario = write_chain(directory / f"chain{k}", [seed, k], n, t_end, knot_dt)
        out = scenario.with_suffix(".csv")
        commands.append(Command(
            f"chain{k}", ["simulate", str(scenario), str(out)], 1,
            lambda code, stdout, out=out: [check_simulate(code, stdout, out, n, n_rows)]))
    return Plan(commands, commands[0])


def build_analyze_csv(directory: Path, seed: int, run: Runner, *,
                      files: int = 4, t_end: float = 80.0) -> Plan:
    """analyze of fig4 CSVs that set-up writes with ``oscibath sweep``.

    The betas are drawn one per log-stratum of the fig4 demo's own range
    [0.05, 0.5]; each analyzed file is paired with its scenario so that
    ``--sync`` also reports the nearest eigenfrequency.
    """
    tokens = log_stratified_tokens(seed, *DEMO_BETA_RANGE, files)
    scenario = directory / "fig4.scn"
    scenario.write_text(fig4_scenario("0.5", t_end), encoding="utf-8")
    csv_dir = directory / "csv"
    code, _ = run(["sweep", str(scenario), str(csv_dir), "--param",
                   "coupling.beta", "--values", ",".join(tokens), "--jobs", "1"])
    summary = csv_dir / "summary.csv"
    rows = read_summary(summary) if summary.is_file() else []

    commands = []
    for k, token in enumerate(tokens):
        row = rows[k] if k < len(rows) else {}
        member_scenario = csv_dir / f"beta_{k}.scn"
        member_scenario.write_text(fig4_scenario(token, t_end), encoding="utf-8")
        csv_path = csv_dir / row.get("file", f"sweep_{k:03d}.csv")
        argv = ["analyze", str(csv_path), "--period", "--envelope",
                "--sync", "1,2", "--scenario", str(member_scenario)]
        commands.append(Command(
            f"analyze{k}", argv, 1,
            lambda code, stdout, row=row: [check_analyze(code, stdout, row)]))
    return Plan(commands, commands[0],
                lambda: check_sweep(code, csv_dir, tokens, _n_rows(t_end)))


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_fig4", "integrator", build_sweep_fig4),
        Workload("chain_tabulated", "coefficients", build_chain_tabulated),
        Workload("analyze_csv", "csvio", build_analyze_csv),
    )
}
