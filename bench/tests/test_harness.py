"""Self-tests of the benchmark harness on scaled-down workloads.

Run from the repository root:  python -m pytest -q bench/tests
"""

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from oscibath import cli  # noqa: E402
from oscibench import measure  # noqa: E402
from oscibench.checks import (  # noqa: E402
    check_analyze,
    check_sweep,
    check_timeseries_csv,
)
from oscibench.inputs import fig4_scenario, log_stratified_tokens, write_chain  # noqa: E402
from oscibench.tracing import LAYERS, ProviderProxy, Tracer  # noqa: E402
from oscibench.workloads import WORKLOADS, Workload  # noqa: E402

SMALL = {
    "sweep_fig4": {"strata": 4, "per_command": 2, "t_end": 12.0},
    "chain_tabulated": {"chains": 2, "n": 4, "t_end": 0.5},
    "analyze_csv": {"files": 2, "t_end": 40.0},
}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def scaled(name):
    """The named workload with the small build parameters of SMALL."""
    workload = WORKLOADS[name]
    return Workload(name, workload.dominant,
                    functools.partial(workload.build, **SMALL[name]))


def run(argv):
    return measure.run_cli(cli, [str(a) for a in argv])


def _fig4(tmp_path, t_end=12.0):
    scenario = tmp_path / "fig4.scn"
    scenario.write_text(fig4_scenario("0.5", t_end), encoding="utf-8")
    return scenario


def _perturb_n(src: Path, dst: Path, row_from_end: int, delta: float) -> None:
    lines = src.read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    column = header.split(",").index("n1")
    fields = lines[-row_from_end].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[-row_from_end] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_drift_check_trips_on_one_perturbed_n(tmp_path):
    out = tmp_path / "run.csv"
    assert run(["simulate", _fig4(tmp_path), out])[0] == 0
    assert check_timeseries_csv(out, 2, 1201).ok
    corrupted = tmp_path / "corrupted.csv"
    _perturb_n(out, corrupted, 10, 1e-3)
    check = check_timeseries_csv(corrupted, 2, 1201)
    assert not check.ok and "drift" in check.reason


def test_sweep_check_trips_on_a_failed_member(tmp_path):
    tokens = ["0.5", "not-a-number", "-0.5"]
    out = tmp_path / "sweep"
    code, _ = run(["sweep", _fig4(tmp_path), out, "--param", "coupling.beta",
                   "--values", ",".join(tokens)])
    checks = check_sweep(code, out, tokens, 1201)
    assert [c.ok for c in checks] == [True, False, False]
    assert all("failed:" in c.reason for c in checks[1:])


def test_sweep_check_fails_every_member_on_nonzero_exit(tmp_path):
    checks = check_sweep(1, tmp_path, ["0.1", "0.2"])
    assert [c.ok for c in checks] == [False, False]


def test_analyze_check_trips_on_claim_and_round_trip():
    row = {"period_1": "3.1343913063232232", "period_2": "2.0903572554972816"}
    good = "\n".join([
        "period_1 = 3.13439 ± 0.01", "is_stationary_1 = false",
        "period_2 = 2.09036 ± 0.01", "is_stationary_2 = false",
        "modulation_depth_1 = 0.01", "modulation_depth_2 = 0.02",
        "phase_lock_score = 0.1", "nearest_frequency_1 = own 2",
        "nearest_frequency_2 = own 3"])
    assert check_analyze(0, good, row).ok
    assert not check_analyze(3, good, row).ok
    stationary = good.replace("is_stationary_2 = false", "is_stationary_2 = true")
    assert "is_stationary" in check_analyze(0, stationary, row).reason
    shifted = dict(row, period_1="3.1344913063232232")
    assert "period_1" in check_analyze(0, good, shifted).reason


def test_tracer_wraps_each_layer_and_restores_every_function(tmp_path):
    targets = Tracer.targets(cli)
    assert {layer for layer, _ in targets.values()} == set(LAYERS)
    originals = {name: getattr(cli, name) for name in targets}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(cli):
            assert all(getattr(cli, name) is not fn for name, fn in originals.items())
            assert run(["simulate", _fig4(tmp_path, 2.0), tmp_path / "a.csv"])[0] == 0
            raise RuntimeError("leave the traced block early")
    assert all(getattr(cli, name) is fn for name, fn in originals.items())
    names = {span.name for span in tracer.spans}
    assert {"main", "build_config", "make_provider", "integrate_coupled",
            "write_timeseries_csv"} <= names
    integrate = next(s for s in tracer.spans if s.name == "integrate_coupled")
    assert integrate.provider_calls > 0 and integrate.info["rhs_evals"] > 0


def test_provider_proxy_forwards_describe():
    from oscibath.coefficients import ConstantProvider
    provider = ConstantProvider(0.1, 0.05)
    tracer = Tracer()
    proxy = ProviderProxy(provider, tracer)
    assert proxy.describe() == provider.describe()


def test_inputs_follow_the_seed(tmp_path):
    assert log_stratified_tokens(3, 0.05, 5, 12) == log_stratified_tokens(3, 0.05, 5, 12)
    assert log_stratified_tokens(3, 0.05, 5, 12) != log_stratified_tokens(4, 0.05, 5, 12)
    tokens = [float(t) for t in log_stratified_tokens(3, 0.05, 5.0, 12)]
    edges = [0.05 * 100 ** (k / 12) for k in range(13)]
    assert all(lo <= b <= hi for b, lo, hi in zip(tokens, edges, edges[1:]))
    a = write_chain(tmp_path / "a", seed=5, n=4, t_end=0.5)
    b = write_chain(tmp_path / "b", seed=5, n=4, t_end=0.5)
    c = write_chain(tmp_path / "c", seed=6, n=4, t_end=0.5)
    table = "coef_03.csv"
    assert (a.parent / table).read_bytes() == (b.parent / table).read_bytes()
    assert (a.parent / table).read_bytes() != (c.parent / table).read_bytes()


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_is_correct_and_reports_every_declared_metric(name, tmp_path):
    spec, end_to_end, per_layer = _declared()
    assert name in {w["name"] for w in spec["workloads"]}
    workload = scaled(name)

    outcome = measure.Outcome()
    plan = measure.set_up(workload, tmp_path / "e2e", 1, cli, outcome, repeats=2)
    measure.timed_loop(plan, cli, 0.01, outcome)
    e2e = measure.end_to_end_metrics(outcome, import_s=0.5)

    traced = measure.Outcome()
    plan = measure.set_up(workload, tmp_path / "traced", 1, cli, traced, repeats=1)
    measure.traced_loop(plan, cli, 0.01, traced)
    layer = measure.per_layer_metrics(traced, plan)

    assert outcome.failed == 0 and traced.failed == 0, [
        c.reason for c in outcome.checks + traced.checks if not c.ok]
    assert not traced.mismatches
    assert set(e2e) == end_to_end and set(layer) == per_layer
    for metrics in (e2e, layer):
        for metric, (value, unit) in metrics.items():
            assert NAME_RE.fullmatch(metric) and UNIT_RE.fullmatch(unit)
            assert math.isfinite(value)
    assert all(value > 0 for value, _ in e2e.values())


def test_exact_counts_repeat_and_a_changed_record_is_caught(tmp_path):
    workload = scaled("sweep_fig4")
    records = []
    for k in range(2):
        outcome = measure.Outcome()
        plan = measure.set_up(workload, tmp_path / f"run{k}", 2, cli, outcome, repeats=1)
        measure.traced_loop(plan, cli, 0.01, outcome)
        records.append(outcome.records)
    assert records[0] == records[1]
    assert set(records[0]["sweep0"]) >= {"rhs_evals", "steps_accepted",
                                         "steps_rejected", "coefficient_calls",
                                         "write_bytes"}
    stored = tmp_path / "counts" / "sweep.json"
    assert measure.compare_with_stored(records[0], stored) == []
    assert measure.compare_with_stored(records[1], stored) == []
    changed = json.loads(json.dumps(records[1]))
    changed["sweep1"]["rhs_evals"][0] += 1
    assert measure.compare_with_stored(changed, stored) == ["sweep1 (earlier run)"]


def test_benchmark_json_names_and_units():
    spec, _, _ = _declared()
    metrics = spec["end_to_end"] + spec["per_layer"]
    for metric in metrics:
        assert NAME_RE.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT_RE.fullmatch(metric["unit"])
    assert len({m["name"] for m in metrics}) == len(metrics)


def test_without_program_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_fig4", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
