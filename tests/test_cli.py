import concurrent.futures
import csv
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import oscibath
from oscibath.analysis import extract_period
from oscibath.cli import _analysis_lines, main
from oscibath.coefficients import make_provider
from oscibath.csvio import read_timeseries_csv
from oscibath.integrator import integrate_coupled
from oscibath.model import (
    CouplingNetwork,
    OscillatorSpec,
    ProviderConfig,
    SimulationConfig,
    TimeSeries,
)
from oscibath.scenario import (
    demo_fig2_scenario,
    demo_fig4_scenario,
    load_scenario,
)

CONSTANT_SCN = """\
[oscillator 1]
omega = 1
n0 = 0
# slope consistent with the first-order equation: v0 = 2 D(0) - 2 lambda(0) n0
v0 = 0.5

[coefficients 1]
kind = constant
lambda = 0.5
D = 0.25

[integration]
t_end = 50
"""

SINGLE_SCN = """\
[oscillator 1]
omega = 1
n0 = 0
v0 = 0

[coefficients 1]
kind = phenomenological
mean_lambda = 0.1
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.04
phase_D = 3.1415926535897931
ramp_time = 0.5

[integration]
t_end = 20
output_dt = 0.01
rtol = 1e-12
atol = 1e-14
"""

PAIR_SCN = SINGLE_SCN.replace("[integration]", """\
[oscillator 2]
omega = 1.5
n0 = 0
v0 = 0

[coefficients 2]
kind = phenomenological
mean_lambda = 0.2
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.05
ramp_time = 0.5

[coupling]
beta 1 2 = 0

[integration]""")

TRIPLE_SCN = PAIR_SCN.replace("[coupling]", """\
[oscillator 3]
omega = 2
n0 = 0
v0 = 0

[coefficients 3]
kind = phenomenological
mean_lambda = 0.15
amp_lambda = 0.05
mean_D = 0.05
amp_D = 0.05
ramp_time = 0.5

[coupling]""").replace("t_end = 20", "t_end = 40").replace(
    "rtol = 1e-12\natol = 1e-14", "rtol = 1e-9\natol = 1e-12")


def write_sine_csv(path, t, mean=0.5, amplitude=0.1):
    """A one-oscillator CSV whose n channel is a sine of period 3 at times t."""
    lines = ["# oscibath-csv v1", "t,n1,v1,lambda1,D1"]
    lines += [f"{ti:.17g},"
              f"{mean + amplitude * math.sin(2.0 * math.pi * ti / 3.0):.17g},0,0,0"
              for ti in t]
    path.write_text("\n".join(lines) + "\n")


def run_cli(*args):
    """Run the command line in a fresh interpreter, as the console script does."""
    src = Path(oscibath.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "oscibath.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def write_tabulated_scenario(directory: Path, table_bytes: bytes | None = None) -> Path:
    """A one-oscillator tabulated scenario over [0, 10] and its table."""
    table = directory / "tab_coeffs.csv"
    if table_bytes is None:
        rows = ["t,lambda,D"] + [
            f"{t:g},{0.1 + 0.05 * math.sin(t):.17g},{0.05 + 0.02 * math.cos(t):.17g}"
            for t in np.linspace(0.0, 10.0, 101)]
        table_bytes = ("\n".join(rows) + "\n").encode()
    table.write_bytes(table_bytes)
    scn = directory / "tab.scn"
    scn.write_text(f"[oscillator 1]\nomega = 1\n\n[coefficients 1]\n"
                   f"kind = tabulated\npath = {table}\n\n[integration]\nt_end = 10\n")
    return scn


_NO_SCIPY_SCRIPT = """\
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from oscibath.cli import main

out, scenario = sys.argv[1:]
for argv in (["demo", "fig2", out], ["demo", "fig4", out],
             ["simulate", scenario, out + "/tab.csv"],
             ["analyze", out + "/fig4_beta0.05.csv", "--period", "--envelope",
              "--sync", "1,2"]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""

_SCIPY_MODULES_SCRIPT = """\
import sys
import oscibath.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import oscibath.cli loaded {loaded}")
"""


def test_no_command_needs_scipy(tmp_path):
    # Explicit exit codes, not asserts, so the child checks hold under -O.
    src = Path(oscibath.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    scenario = write_tabulated_scenario(tmp_path)
    for argv in (["-c", _NO_SCIPY_SCRIPT, tmp_path / "out", scenario],
                 ["-c", _SCIPY_MODULES_SCRIPT]):
        proc = subprocess.run([sys.executable, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            pytest.fail(f"exit {proc.returncode}: {proc.stderr}")


def test_importing_the_cli_loads_no_process_pool():
    # Only sweep --jobs needs a pool, and it imports one when it starts it.
    src = Path(oscibath.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    script = ("import sys, oscibath.cli; sys.exit(sorted({'multiprocessing', "
              "'concurrent.futures.process'} & set(sys.modules)) or None)")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        pytest.fail(f"exit {proc.returncode}: {proc.stderr}")


def test_package_exports_are_pinned():
    # The package's public names, its submodules aside.  A name added or
    # removed here is a change to the package surface, made on purpose.
    exported = {name for name, value in vars(oscibath).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == {
        "AmbiguousPeriod", "AnalysisError", "EnvelopeReport", "NoOscillation",
        "OscillationReport", "SyncReport", "TooFewPeaks", "TooShort",
        "envelope", "extract_period", "synchronization_metrics",
        "ConstantProvider", "OutOfRange", "PhenomenologicalProvider",
        "TabulatedProvider", "make_provider",
        "CsvSchemaError", "read_timeseries_csv", "write_timeseries_csv",
        "IntegratorError", "PositivityViolation", "StepSizeUnderflow",
        "integrate_coupled", "integrate_single_first_order",
        "BathSpec", "BathStatistics", "CoefficientSample", "CouplingNetwork",
        "InvalidConfig", "OscillatorSpec", "ProviderConfig",
        "SimulationConfig", "TimeSeries",
        "load_scenario", "parse_scenario", "serialize_scenario",
    }


class TestSimulate:
    def test_demo_scenario_produces_csv_and_summary(self, tmp_path, capsys):
        scn = tmp_path / "fig2.scn"
        scn.write_text(demo_fig2_scenario())
        out = tmp_path / "run.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        captured = capsys.readouterr()
        assert "steps_accepted = " in captured.out
        assert "steps_rejected = " in captured.out
        for key in ("rejection_ratio", "h_min", "h_max"):
            assert f"\n{key} = " in captured.out
        assert "consistency_residual_1 = 0" in captured.out
        assert "negative_excursions = 0" in captured.out
        assert re.search(r"^most_negative_n = .*\ninvariant_drift = \S+\n",
                         captured.out, re.M)
        lines = out.read_text().splitlines()
        assert lines[0] == "# oscibath-csv v1"
        assert lines[1] == "t,n1,v1,lambda1,D1"
        assert len(lines) == 2 + 5001

    @pytest.mark.parametrize("case", ["fig2", "fig4-0.5", "chain-seed-1"])
    def test_summary_is_the_diagnostics(self, tmp_path, capsys, monkeypatch,
                                        case):
        if case == "chain-seed-1":
            monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
            from oscibench.inputs import write_chain

            scn = write_chain(tmp_path, [1, 0])
        else:
            scn = tmp_path / "run.scn"
            scn.write_text(demo_fig2_scenario() if case == "fig2"
                           else demo_fig4_scenario(0.5))
        out = tmp_path / "run.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        keys = [line.split(" = ")[0]
                for line in capsys.readouterr().out.splitlines()]
        config = load_scenario(scn)
        series = integrate_coupled(
            config, [make_provider(pc) for pc in config.provider_config])
        assert keys == [*series.diagnostics, "wrote"]
        assert ("floquet_multipliers" in keys) == (case != "chain-seed-1")

    def test_invalid_omega_exits_1_and_names_key(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(CONSTANT_SCN.replace("omega = 1", "omega = -1"))
        assert main(["simulate", str(scn), str(tmp_path / "x.csv")]) == 1
        assert "omega" in capsys.readouterr().err

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.scn"),
                     str(tmp_path / "x.csv")]) == 1

    def test_short_coefficient_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "tab.csv"
        table.write_text("t,lambda,D\n0,0,0\n5,0.1,0.05\n10,0.1,0.05\n15,0.1,0.05\n")
        scn = tmp_path / "tab.scn"
        scn.write_text(f"""\
[oscillator 1]
omega = 1

[coefficients 1]
kind = tabulated
path = {table}

[integration]
t_end = 30
""")
        assert main(["simulate", str(scn), str(tmp_path / "x.csv")]) == 2
        assert "outside coefficient table range" in capsys.readouterr().err

    def test_non_utf8_coefficient_table_exits_1_naming_it(self, tmp_path, capsys):
        scn = write_tabulated_scenario(
            tmp_path, b"t,lambda,D\n# caf\xe9\n0,0,0\n1,1,1\n2,2,2\n3,3,3\n")
        assert main(["simulate", str(scn), str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert f"coefficient csv {tmp_path / 'tab_coeffs.csv'}: not UTF-8" in err

    def test_repeated_table_time_exits_1_naming_the_table(self, tmp_path, capsys):
        scn = write_tabulated_scenario(
            tmp_path, b"t,lambda,D\n0,0,0\n1,1,1\n1,2,2\n3,3,3\n")
        assert main(["simulate", str(scn), str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert (f"coefficient csv {tmp_path / 'tab_coeffs.csv'}: "
                "coefficient table grid not strictly increasing") in err

    def test_summary_reports_the_periodic_tail(self, tmp_path, capsys):
        scn = tmp_path / "fig2.scn"
        scn.write_text(demo_fig2_scenario())
        assert main(["simulate", str(scn), str(tmp_path / "run.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "periods_propagated = 7" in lines
        mu = next(l for l in lines if l.startswith("floquet_multipliers = "))
        moduli = [float(x) for x in mu.split(" = ")[1].split(", ")]
        assert len(moduli) == 2 and moduli[0] == 1.0 and 0 < moduli[1] < 1

    def test_summary_of_a_stepped_run(self, tmp_path, capsys):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        assert main(["simulate", str(scn), str(tmp_path / "run.csv")]) == 0
        out = capsys.readouterr().out
        assert "\nperiods_propagated = 0\n" in out
        assert "floquet_multipliers" not in out

    def test_zero_coupling_matches_single_run(self, tmp_path):
        single = tmp_path / "single.scn"
        single.write_text(SINGLE_SCN)
        pair = tmp_path / "pair.scn"
        pair.write_text(PAIR_SCN)
        out_single = tmp_path / "single.csv"
        out_pair = tmp_path / "pair.csv"
        assert main(["simulate", str(single), str(out_single)]) == 0
        assert main(["simulate", str(pair), str(out_pair)]) == 0
        a = read_timeseries_csv(out_single)
        b = read_timeseries_csv(out_pair)
        assert b.n_oscillators == 2
        assert np.abs(a.n[0] - b.n[0]).max() <= 1e-9

    def test_unwritable_output_exits_1_without_traceback(self, tmp_path):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        proc = run_cli("simulate", scn, tmp_path / "missing" / "out.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("oscibath:")
        assert "Traceback" not in proc.stderr

    def test_unbuildable_grid_exits_1_without_traceback(self, tmp_path):
        scn = tmp_path / "huge.scn"
        scn.write_text(CONSTANT_SCN.replace(
            "t_end = 50\n", "t_end = 1e300\noutput_dt = 1e-300\n"))
        proc = run_cli("simulate", scn, tmp_path / "out.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("oscibath:")
        assert "t_end / output_dt" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAnalyze:
    def test_period_of_demo_run(self, fig2_demo_dir, capsys):
        assert main(["analyze", str(fig2_demo_dir / "fig2.csv"),
                     "--period"]) == 0
        out = capsys.readouterr().out
        period_line = next(l for l in out.splitlines()
                           if l.startswith("period = "))
        value = float(period_line.split(" = ")[1].split(" ±")[0])
        assert value == pytest.approx(2.0 * math.pi, rel=0.02)
        assert "is_stationary = false" in out

    def test_stationary_run_exits_3_with_fixed_point(self, tmp_path, capsys):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out = tmp_path / "const.csv"
        assert main(["simulate", str(scn), str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--period"]) == 3
        captured = capsys.readouterr()
        assert "is_stationary = true" in captured.out
        mean_line = next(l for l in captured.out.splitlines()
                         if l.startswith("mean_level = "))
        value, unc = mean_line.split(" = ")[1].split(" ± ")
        assert float(value) == pytest.approx(0.5, abs=1e-6)
        assert float(unc) <= 1e-6

    def test_unknown_version_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# oscibath-csv v99\nt,n1,v1,lambda1,D1\n0,0,0,0,0\n")
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "version" in err
        assert f"csv {bad}: " in err

    @pytest.mark.parametrize("body", ["\n\n", "   \n", "# note\n\n#\n"],
                             ids=["blank", "spaces", "comments"])
    def test_no_data_rows_exits_1(self, tmp_path, capsys, body):
        path = tmp_path / "empty.csv"
        path.write_text("# oscibath-csv v1\nt,n1,v1,lambda1,D1\n" + body)
        # A warning would reach stderr at the command line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", str(path)]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            f"oscibath: csv {path}: csv has no data rows\n")

    def test_malformed_row_exits_1_naming_its_line(self, tmp_path, capsys):
        # Line 4 is blank; line 5 holds three spaces, a one-cell row to the
        # reader as to numpy's loadtxt.
        path = tmp_path / "bad.csv"
        path.write_text("# oscibath-csv v1\nt,n1,v1,lambda1,D1\n0,1,2,3,4\n\n   \n"
                        "0.01,1,2,3,4\n0.02,1,x,3,4\n")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"oscibath: csv {path}: line 5 not 5 columns\n")

    def test_swapped_rows_exit_1(self, tmp_path, capsys):
        t = 0.01 * np.arange(6001)
        t[[4500, 4501]] = t[[4501, 4500]]
        path = tmp_path / "swapped.csv"
        write_sine_csv(path, t)
        assert main(["analyze", str(path), "--period"]) == 1
        assert "not strictly increasing" in capsys.readouterr().err

    def test_nan_time_exits_1(self, tmp_path, capsys):
        t = 0.01 * np.arange(6001)
        t[4500] = math.nan
        path = tmp_path / "nan.csv"
        write_sine_csv(path, t)
        assert main(["analyze", str(path), "--period"]) == 1
        assert "csv time column" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("n1", "nan"), ("v2", "inf"),
                                               ("D1", "-inf")])
    def test_non_finite_channel_value_exits_1(self, fig4_demo_dir, tmp_path,
                                              capsys, column, value):
        lines = (fig4_demo_dir / "fig4_beta0.5.csv").read_text().splitlines()
        j = lines[1].split(",").index(column)
        row = lines[3000].split(",")
        row[j] = value
        lines[3000] = ",".join(row)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path), "--period", "--envelope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"oscibath: csv {path}: csv column {column} "
                                "holds a non-finite value\n")

    def test_stretched_spacing_exits_1(self, tmp_path, capsys):
        t = 0.01 * np.arange(6001)
        t[4501:] += 0.001
        path = tmp_path / "stretched.csv"
        write_sine_csv(path, t)
        assert main(["analyze", str(path), "--period"]) == 1
        assert "not uniform" in capsys.readouterr().err

    def test_aperiodic_channel_exits_3(self, tmp_path, capsys):
        noise = np.random.default_rng(0).normal(size=2000)
        lines = ["# oscibath-csv v1", "t,n1,v1,lambda1,D1"]
        lines += [f"{0.01 * i:.17g},{x:.17g},0,0,0"
                  for i, x in enumerate(noise)]
        path = tmp_path / "noise.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path), "--period"]) == 3
        assert "disagree" in capsys.readouterr().err

    def test_window_flag(self, fig2_demo_dir, capsys):
        assert main(["analyze", str(fig2_demo_dir / "fig2.csv"),
                     "--period", "--window", "30:50"]) == 0
        assert "window = 30:50" in capsys.readouterr().out

    def test_window_past_the_data_prints_the_window_analysed(self, tmp_path,
                                                             capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 0.01 * np.arange(8001))
        assert main(["analyze", str(path), "--period",
                     "--window", "70:90"]) == 0
        assert capsys.readouterr().out.startswith("window = 70:80\n")

    def test_window_outside_the_data_exits_1(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 0.01 * np.arange(8001))
        assert main(["analyze", str(path), "--period",
                     "--window", "80:90"]) == 1
        assert "--window 80:90 lies outside the data's times 0:80" in (
            capsys.readouterr().err)

    def test_no_metric_flag_analyses_the_period(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 0.01 * np.arange(3001))
        assert main(["analyze", str(path), "--period"]) == 0
        with_flag = capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr() == with_flag
        assert "period = " in with_flag.out

    @pytest.mark.parametrize("flag, value, message", [
        ("--window", "5", "--window must be t_a:t_b, got '5'"),
        ("--window", "10:5", "--window start must precede end"),
        ("--sync", "1-2", "--sync must be a,b, got '1-2'"),
    ], ids=["window-without-colon", "window-reversed", "sync-without-comma"])
    def test_malformed_flag_exits_1(self, fig4_demo_dir, capsys, flag, value,
                                    message):
        assert main(["analyze", str(fig4_demo_dir / "fig4_beta0.05.csv"),
                     flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"oscibath: {message}\n"

    def test_sync_with_scenario_names_nearest_frequency(self, fig4_demo_dir,
                                                        capsys):
        stem = "fig4_beta0.05"
        assert main(["analyze", str(fig4_demo_dir / f"{stem}.csv"),
                     "--sync", "1,2",
                     "--scenario", str(fig4_demo_dir / f"{stem}.scn")]) == 0
        out = capsys.readouterr().out
        assert "period_ratio = " in out
        assert "phase_lock_score = " in out
        assert "nearest_frequency_1 = bare 2" in out
        assert "nearest_frequency_2 = bare 3" in out

    def test_sync_names_a_normal_mode_of_the_coupling(self):
        # Both channels oscillate at 0.3, nearer the one normal mode of
        # beta = 0.05, sqrt(2 beta) = 0.316228, than either omega (2, 3).
        t = np.linspace(0.0, 600.0, 12001)
        channels = np.array([1.0 + 0.5 * np.sin(0.3 * t + phi)
                             for phi in (0.0, 1.0)])
        config = SimulationConfig(
            oscillators=(OscillatorSpec(2.0), OscillatorSpec(3.0)),
            provider_config=(ProviderConfig("custom"),) * 2,
            coupling=CouplingNetwork.uniform(2, 0.05), t_end=600.0)
        lines, _, errors = _analysis_lines(t, channels, config, do_period=False,
                                           do_envelope=False, sync_pair=(1, 2))
        assert errors == []
        assert lines[-2:] == ["nearest_frequency_1 = normal_mode 0.316228",
                              "nearest_frequency_2 = normal_mode 0.316228"]

    def test_period_and_sync_estimate_each_channel_once(self, fig4_demo_dir,
                                                        monkeypatch, capsys):
        from oscibath import analysis, cli

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return extract_period(*args, **kwargs)

        for module in (analysis, cli):
            monkeypatch.setattr(module, "extract_period", counting)
        csv_path = str(fig4_demo_dir / "fig4_beta0.05.csv")
        assert main(["analyze", csv_path, "--period", "--sync", "1,2"]) == 0
        both = capsys.readouterr().out
        assert len(calls) == 2
        assert main(["analyze", csv_path, "--sync", "1,2"]) == 0
        sync = capsys.readouterr().out
        assert len(calls) == 4
        assert "period_1 = " in both and "period_1 = " not in sync
        for line in sync.splitlines():
            assert line in both

    def test_scenario_of_another_oscillator_count_exits_1(self, fig4_demo_dir,
                                                          fig2_demo_dir, capsys):
        assert main(["analyze", str(fig4_demo_dir / "fig4_beta0.05.csv"),
                     "--sync", "1,2",
                     "--scenario", str(fig2_demo_dir / "fig2.scn")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("oscibath: --scenario has 1 oscillators, "
                                "the csv has 2\n")

    def test_sync_pair_out_of_range_exits_1(self, fig2_demo_dir, capsys):
        assert main(["analyze", str(fig2_demo_dir / "fig2.csv"),
                     "--sync", "1,2"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_sync_pair_of_one_channel_exits_1(self, fig4_demo_dir, capsys):
        assert main(["analyze", str(fig4_demo_dir / "fig4_beta0.05.csv"),
                     "--sync", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("oscibath: --sync 1,1 pairs channel 1 with "
                                "itself\n")

    def test_scenario_supplies_atol(self, tmp_path, capsys):
        # Residual std 7e-10 is below the stationarity threshold 100 * atol
        # of a run with atol = 1e-9, but above the one for atol = 1e-12.
        path = tmp_path / "tiny.csv"
        write_sine_csv(path, 0.01 * np.arange(6001), mean=0.0, amplitude=1e-9)
        scn = tmp_path / "loose.scn"
        scn.write_text(CONSTANT_SCN + "atol = 1e-9\n")
        assert main(["analyze", str(path), "--period",
                     "--scenario", str(scn)]) == 3
        assert "is_stationary = true" in capsys.readouterr().out
        assert main(["analyze", str(path), "--period"]) == 0
        assert "is_stationary = false" in capsys.readouterr().out


class TestSweep:
    def test_error_isolation_and_jobs(self, tmp_path, capsys):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", "1e-6,bogus,1e-9", "--jobs", "2"]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert rows[0].startswith("value,period_1,period_2")
        assert len(rows) == 4
        assert ",ok," in rows[1]
        assert "failed" in rows[2]
        assert ",ok," in rows[3]
        assert (out_dir / "sweep_000.csv").exists()
        assert not (out_dir / "sweep_001.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", "1e-6", "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("oscibath: --jobs must be at least 1")
        assert not out_dir.exists()

    def test_blank_values_exit_1(self, tmp_path, capsys):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol", "--values", " , "]) == 1
        assert capsys.readouterr().err == "oscibath: --values is empty\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_member_is_marked_failed(self, tmp_path, capsys, jobs):
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        (out_dir / "sweep_001.csv").mkdir(parents=True)
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", "1e-6,1e-8,1e-9", "--jobs", jobs]) == 0
        with (out_dir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows[::2]] == ["ok", "ok"]
        assert rows[1]["status"].startswith("failed: ")

    def test_member_whose_grid_cannot_be_built_fails_alone(self, tmp_path,
                                                           capsys):
        scn = tmp_path / "fig2.scn"
        scn.write_text(demo_fig2_scenario())
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.t_end",
                     "--values", "50,1e16"]) == 0
        with (out_dir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["50", "1e16"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed: ")
        assert "t_end / output_dt" in rows[1]["status"]

    def test_member_out_of_memory_fails_alone(self, tmp_path, capsys,
                                              monkeypatch):
        from oscibath import cli

        integrate = cli.integrate_coupled

        def short_of_memory(config, providers):
            if config.rtol == 1e-8:
                raise MemoryError("Unable to allocate the output grid")
            return integrate(config, providers)

        monkeypatch.setattr(cli, "integrate_coupled", short_of_memory)
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", "1e-6,1e-8,1e-9"]) == 0
        with (out_dir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows[::2]] == ["ok", "ok"]
        assert rows[1]["status"] == "failed: Unable to allocate the output grid"

    @pytest.mark.parametrize("jobs, values, pools", [
        ("64", "1e-6,1e-8,1e-9", [3]),
        ("2", "1e-6,1e-8,1e-9", [2]),
        ("64", "1e-6", []),
    ])
    def test_pool_has_at_most_one_worker_per_value(self, tmp_path, capsys,
                                                   monkeypatch, jobs, values,
                                                   pools):
        # A stand-in pool that records its size and maps in-process: a fork
        # pool would start all of its workers at the first submit.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        scn = tmp_path / "const.scn"
        scn.write_text(CONSTANT_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", values, "--jobs", jobs]) == 0
        assert sizes == pools
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == len(values.split(","))
        assert all(",ok," in row for row in rows)

    def test_rtol_sweep_periods_agree(self, tmp_path, capsys):
        scn = tmp_path / "fig2.scn"
        scn.write_text(demo_fig2_scenario())
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.rtol",
                     "--values", "1e-6,1e-9"]) == 0
        reports = []
        for name in ("sweep_000.csv", "sweep_001.csv"):
            data = read_timeseries_csv(out_dir / name)
            reports.append(extract_period(data.t, data.n[0], (25.0, 50.0)))
        gap = abs(reports[0].period - reports[1].period)
        assert gap <= (reports[0].period_uncertainty
                       + reports[1].period_uncertainty)

    def test_each_member_uses_its_own_atol(self, tmp_path, capsys):
        # The stationarity threshold is 100 atol: at atol = 1e-3 the fig2
        # oscillation counts as stationary and the period is left empty.
        scn = tmp_path / "fig2.scn"
        scn.write_text(demo_fig2_scenario())
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "integration.atol",
                     "--values", "1e-12,1e-3"]) == 0
        with (out_dir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert float(rows[0]["period_1"]) == pytest.approx(2.0 * math.pi,
                                                           rel=0.01)
        assert rows[1]["period_1"] == ""

    def test_coupled_scenario_full_summary_row(self, tmp_path, capsys):
        scn = tmp_path / "fig4.scn"
        scn.write_text(demo_fig4_scenario("0.05"))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir),
                     "--param", "coupling.beta", "--values", "0.2,oops"]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        good = rows[1].split(",")
        assert good[0] == "0.2"
        assert float(good[1]) == pytest.approx(2.0 * math.pi / 2.0, rel=0.02)
        assert float(good[2]) == pytest.approx(2.0 * math.pi / 3.0, rel=0.02)
        assert float(good[3]) > 0
        assert float(good[4]) > 0
        assert float(good[5]) >= 0
        assert "failed" in rows[2]

    def test_summary_estimates_only_its_two_channels(self, tmp_path,
                                                     monkeypatch, capsys):
        from oscibath import cli

        seen = []

        def spy(t, x, *args, **kwargs):
            seen.append(np.array(x))
            return extract_period(t, x, *args, **kwargs)

        monkeypatch.setattr(cli, "extract_period", spy)
        scn = tmp_path / "triple.scn"
        scn.write_text(TRIPLE_SCN)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scn), str(out_dir), "--param",
                     "coupling.beta", "--values", "0.1,0.3"]) == 0
        with (out_dir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(seen) == 2 * len(rows) == 4
        for k, row in enumerate(rows):
            data = read_timeseries_csv(out_dir / row["file"])
            assert data.n_oscillators == 3
            for i in range(2):
                assert np.array_equal(seen[2 * k + i], data.n[i])
                report = extract_period(data.t, data.n[i], (20.0, 40.0),
                                        atol=1e-12)
                assert row[f"period_{i + 1}"] == format(report.period, ".17g")


class TestCsvFormat:
    def test_values_round_trip_exactly(self, fig2_demo_dir):
        # 17 significant digits reproduce the binary doubles exactly
        from oscibath.coefficients import make_provider
        from oscibath.integrator import integrate_coupled
        from oscibath.scenario import load_scenario

        config = load_scenario(fig2_demo_dir / "fig2.scn")
        series = integrate_coupled(
            config, [make_provider(pc) for pc in config.provider_config])
        data = read_timeseries_csv(fig2_demo_dir / "fig2.csv")
        assert isinstance(data, TimeSeries)
        assert data.diagnostics == {}
        assert np.array_equal(data.t, series.t)
        assert np.array_equal(data.n, series.n)
        assert np.array_equal(data.friction, series.friction)


class TestDemo:
    def test_fig2_artifacts(self, fig2_demo_dir):
        for name in ("fig2.scn", "fig2.csv", "fig2_report.txt"):
            assert (fig2_demo_dir / name).exists()
        report = (fig2_demo_dir / "fig2_report.txt").read_text()
        assert "is_stationary = false" in report
        period_line = next(l for l in report.splitlines()
                           if l.startswith("period = "))
        value = float(period_line.split(" = ")[1].split(" ±")[0])
        assert value == pytest.approx(2.0 * math.pi, rel=0.02)

    def test_fig4_artifacts_and_summary(self, fig4_demo_dir):
        rows = (fig4_demo_dir / "fig4_summary.csv").read_text().splitlines()
        assert len(rows) == 4
        header = rows[0].split(",")
        depth_cols = (header.index("modulation_depth_1"),
                      header.index("modulation_depth_2"))
        for col in depth_cols:
            depths = [float(row.split(",")[col]) for row in rows[1:]]
            assert depths == sorted(depths)
        for beta in ("0.05", "0.2", "0.5"):
            assert (fig4_demo_dir / f"fig4_beta{beta}.csv").exists()
            assert (fig4_demo_dir / f"fig4_beta{beta}_report.txt").exists()

    def test_fig4_members_take_the_periodic_tail(self, tmp_path, capsys):
        assert main(["demo", "fig4", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert len(re.findall(r"^periods_propagated = [1-9]", out, re.M)) == 3
        assert len(re.findall(r"^floquet_multipliers = 1, ", out, re.M)) == 3

    def test_unknown_name_exits_1(self, tmp_path, capsys):
        assert main(["demo", "fig9", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("oscibath: ") and err.count("\n") == 1
        assert "'fig9'" in err

    def test_fig4_summary_equals_sweep(self, fig4_demo_dir, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(fig4_demo_dir / "fig4_beta0.05.scn"),
                     str(out_dir), "--param", "coupling.beta",
                     "--values", "0.05,0.2,0.5"]) == 0
        tables = []
        for path in (fig4_demo_dir / "fig4_summary.csv", out_dir / "summary.csv"):
            with path.open(newline="") as handle:
                tables.append(list(csv.DictReader(handle)))
        demo, sweep = tables
        assert len(demo) == len(sweep) == 3
        columns = ("value", "period_1", "period_2", "modulation_depth_1",
                   "modulation_depth_2", "phase_lock_score", "status")
        for a, b in zip(demo, sweep):
            assert [a[c] for c in columns] == [b[c] for c in columns]

    def test_fig2_unwritable_csv_exits_1(self, tmp_path, capsys):
        (tmp_path / "fig2.csv").mkdir()
        assert main(["demo", "fig2", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("oscibath: ")


@pytest.mark.parametrize("command", ["demo", "sweep"])
def test_output_dir_that_is_a_file_exits_1(tmp_path, capsys, command):
    scn = tmp_path / "const.scn"
    scn.write_text(CONSTANT_SCN)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    args = {"demo": ["demo", "fig2", str(taken)],
            "sweep": ["sweep", str(scn), str(taken), "--param",
                      "integration.rtol", "--values", "1e-6"]}[command]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("oscibath: ")


def test_byte_order_mark_scenario_simulates_like_plain(tmp_path, capsys):
    plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
    plain.write_text(demo_fig2_scenario(), encoding="utf-8")
    marked.write_text(demo_fig2_scenario(), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for scn in (plain, marked):
        assert main(["simulate", str(scn), str(scn.with_suffix(".csv"))]) == 0
    assert ((tmp_path / "marked.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())


NON_UTF8_SCN = CONSTANT_SCN.encode().replace(b"# slope", b"# caf\xe9: slope")


def scenario_command(command, scn, tmp_path, fig2_demo_dir):
    """The arguments of a command that reads the one-oscillator scenario scn."""
    return {"simulate": ["simulate", str(scn), str(tmp_path / "x.csv")],
            "sweep": ["sweep", str(scn), str(tmp_path / "sweep"), "--param",
                      "integration.rtol", "--values", "1e-6"],
            "analyze": ["analyze", str(fig2_demo_dir / "fig2.csv"),
                        "--scenario", str(scn)]}[command]


@pytest.mark.parametrize("command", ["simulate", "sweep", "analyze"])
def test_non_utf8_scenario_exits_1_naming_it(tmp_path, capsys, fig2_demo_dir,
                                             command):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(NON_UTF8_SCN)
    assert main(scenario_command(command, scn, tmp_path, fig2_demo_dir)) == 1
    err = capsys.readouterr().err
    assert err == f"oscibath: scenario {scn}: not UTF-8 (invalid continuation byte)\n"


FIG2_SCN = demo_fig2_scenario()
OMEGA_LINE = FIG2_SCN.split("\n").index("omega = 1") + 1
# Scenario text, and the error that follows "scenario <path>: ".
BAD_SCENARIOS = {
    "unknown-key": (FIG2_SCN.replace("t_end =", "t_ned ="),
                    "[integration] unknown key 't_ned'"),
    "repeated-section": (FIG2_SCN + "[integration]\nt_end = 5\n",
                         f"line {FIG2_SCN.count(chr(10)) + 1}: '[integration]' "
                         "repeats a section"),
    "repeated-key": (FIG2_SCN.replace("omega = 1\n", "omega = 1\nomega = 2\n"),
                     f"line {OMEGA_LINE + 1}: 'omega = 2' repeats a key of its "
                     "section"),
    "key-before-sections": ("t_end = 5\n" + FIG2_SCN,
                            "line 1: 't_end = 5' precedes every section"),
    "bare-key": (FIG2_SCN.replace("omega = 1\n", "omega\n"),
                 f"line {OMEGA_LINE}: 'omega' is neither a section header nor "
                 "'key = value'"),
}


@pytest.mark.parametrize("command", ["simulate", "sweep", "analyze"])
@pytest.mark.parametrize("case", BAD_SCENARIOS)
def test_scenario_error_is_one_line_naming_the_file(tmp_path, capsys,
                                                    fig2_demo_dir, case, command):
    text, message = BAD_SCENARIOS[case]
    scn = tmp_path / "bad.scn"
    scn.write_text(text, encoding="utf-8")
    assert main(scenario_command(command, scn, tmp_path, fig2_demo_dir)) == 1
    captured = capsys.readouterr()
    if command == "sweep" and case == "unknown-key":
        # Each member builds its own config, and its error is its status.
        assert captured.err == ""
        assert f"integration.rtol = 1e-6: failed: {message}\n" in captured.out
    else:
        assert captured.err == f"oscibath: scenario {scn}: {message}\n"


# A provider parameter that only the provider checks, and its error.
BAD_PROVIDERS = {
    "ramp_time": ("ramp_time = 0.5", "ramp_time = 0",
                  "ramp_time not positive"),
    "amp_lambda": ("amp_lambda = 0.05", "amp_lambda = 0.2",
                   "amp_lambda reaches mean_lambda; negative friction "
                   "intervals require allow_negative_friction"),
    "phase_D": ("phase_D = 3.1415926535897931", "phase_D = 7",
                "phase_D outside [0, 2*pi)"),
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("case", BAD_PROVIDERS)
def test_provider_error_names_its_section(tmp_path, capsys, fig2_demo_dir,
                                          case, command):
    old, new, message = BAD_PROVIDERS[case]
    assert old in FIG2_SCN
    scn = tmp_path / "bad.scn"
    scn.write_text(FIG2_SCN.replace(old, new), encoding="utf-8")
    assert main(scenario_command(command, scn, tmp_path, fig2_demo_dir)) == 1
    captured = capsys.readouterr()
    if command == "sweep":
        assert captured.err == ""
        assert (f"integration.rtol = 1e-6: failed: [coefficients 1] {message}\n"
                in captured.out)
    else:
        assert captured.err == (
            f"oscibath: scenario {scn}: [coefficients 1] {message}\n")


# fig2 scenarios whose solve cannot take a first step.  The first two fail
# in the period solve from t_p: a slope whose norm overflows, and a period
# 2 pi 1e-30 below the ulp of t_p.  The third steps from 0 (t_end 6 is
# short of t_p + T) and overflows in every attempt.
UNSTARTABLE = {
    "huge-friction": ({"mean_lambda = 0.1": "mean_lambda = 1e200"},
                      "3.059000970506427"),
    "huge-omega": ({"omega = 1\n": "omega = 1e30\n"}, "3.059000970506427"),
    "overflowing-steps": ({"mean_lambda = 0.1": "mean_lambda = 1e300",
                           "t_end = 50": "t_end = 6"}, "0.0"),
}


@pytest.mark.parametrize("case", UNSTARTABLE)
def test_unstartable_solve_exits_2_with_one_line(tmp_path, capsys, case):
    edits, t = UNSTARTABLE[case]
    text = FIG2_SCN
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    scn = tmp_path / "run.scn"
    scn.write_text(text, encoding="utf-8")
    # The suite turns a RuntimeWarning into an error.
    assert main(["simulate", str(scn), str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err == (
        f"oscibath: integration failed: step size underflow at t={t}\n")


@pytest.mark.parametrize("row", [0, 4000])
def test_non_utf8_csv_exits_1_naming_it(tmp_path, capsys, fig2_demo_dir, row):
    # Row 0 is decoded with the header, row 4000 while the data are parsed.
    lines = (fig2_demo_dir / "fig2.csv").read_bytes().split(b"\n")
    lines[row] += b"\xe9"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    assert main(["analyze", str(bad), "--period"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"oscibath: csv {bad}: not UTF-8 (")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn0 = 0\n\n" + demo_fig4_scenario("0.5"),
    demo_fig4_scenario("0.5") + "\n[DEFAULT]\n",
], ids=["first", "last"])
def test_default_section_exits_1(tmp_path, capsys, text):
    scn = tmp_path / "default.scn"
    scn.write_text(text, encoding="utf-8")
    assert main(["simulate", str(scn), str(tmp_path / "run.csv")]) == 1
    assert capsys.readouterr().err == (
        f"oscibath: scenario {scn}: unknown section 'DEFAULT'\n")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "fig2.scn", "out", "--param", "integration.rtol",
      "--values", "-1,2"], "argument --values: expected one argument"),
    ([], "the following arguments are required: command"),
], ids=["values-without-argument", "no-command"])
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oscibath: {message}\n"
    with pytest.raises(SystemExit) as info:
        main([*argv[:1], "--help"])
    assert info.value.code == 0


# n1 cells of fig4_beta0.5.csv set to values the estimators cannot
# process: the standard deviation overflows, the autocorrelation's inverse
# transform overflows, and the envelope's parabola through three peaks.
HUGE_CELLS = {
    "1e300": ("1e300", [49.98]),
    "1e154": ("1e154", [49.98]),
    "1.7e308": ("1.7e308", [49.98 + 2 * k for k in range(10)]),
}


@pytest.mark.parametrize("case", HUGE_CELLS)
def test_values_beyond_the_estimators_exit_3_naming_them(
        fig4_demo_dir, tmp_path, capsys, case):
    value, times = HUGE_CELLS[case]
    lines = (fig4_demo_dir / "fig4_beta0.5.csv").read_text().splitlines()
    for j in range(2, len(lines)):
        row = lines[j].split(",")
        if any(abs(float(row[0]) - t) < 1e-6 for t in times):
            row[1] = value
            lines[j] = ",".join(row)
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    # The suite turns a RuntimeWarning into an error.
    assert main(["analyze", str(path), "--period", "--envelope",
                 "--sync", "1,2"]) == 3
    captured = capsys.readouterr()
    reason = (f"a value of magnitude {float(value):.6g} is too large to "
              "analyse (the bound is 2**500 / 4001 samples)")
    assert captured.err == "".join(
        f"oscibath: {metric}: {reason}\n"
        for metric in ("channel 1", "channel 1", "sync 1,2"))
    assert "period_2 = " in captured.out
    assert "modulation_depth_2 = " in captured.out
