"""oscibath benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a source checkout (nothing needs installing; the
program is imported from ./src):

    python3 bench/run.py --workload sweep_fig4 --seed 1 --seconds 15 --trace 0

Workloads: sweep_fig4, chain_tabulated, analyze_csv (see bench/README.md).
Every command is a real ``oscibath.cli.main`` call in this process, one at
a time, with BLAS/OpenMP pinned to one thread.

stdout carries the environment record and a readable report; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run.  Exit code 2 means the checkout has no
oscibath sources or the arguments are invalid; no result is printed then.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def source_digest(root: Path) -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = sorted((root / "src" / "oscibath").rglob("*.py"))
    files += sorted(BENCH_DIR.rglob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(path.parents[1])).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path, args, digest: str) -> dict:
    import numpy
    import scipy
    import oscibath
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "oscibath": oscibath.__version__,
        "blas": blas, "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "git_commit": git_commit(root), "source_sha256": digest,
    }


def report(workload, outcome, metrics, args, measure) -> None:
    print(f"workload = {workload.name}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if outcome.durations:
        # Reported, not gated: the median of commands this short jumps between
        # the fast and slow phases of a shared machine (see bench/README.md).
        print(f"cmd_s_p50 = {statistics.median(outcome.durations):.6g} s "
              f"(n={len(outcome.durations)} commands)")
    attempted = len(outcome.checks)
    print(f"fail_ratio = {outcome.failed}/{attempted} = "
          f"{outcome.failed / attempted:.6g} ratio")
    for check in [c for c in outcome.checks if not c.ok][:5]:
        print(f"failed check: {check.reason}")
    for key in outcome.mismatches:
        print(f"count mismatch: {key}")
    if args.trace:
        shares = measure.layer_shares(outcome.spans)
        print("layer self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        dominant = max(shares, key=shares.get)
        verdict = "match" if dominant == workload.dominant else "MISMATCH"
        print(f"dominant layer = {dominant} (predicted {workload.dominant}: {verdict})")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "oscibath"
    if not (package / "cli.py").is_file():
        print(f"bench: no oscibath sources under {package}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    from oscibath import cli
    from oscibench import measure
    from oscibench.workloads import WORKLOADS
    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"bench: imported oscibath from {cli.__file__}, not {package}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workload = WORKLOADS[args.workload]
    digest = source_digest(root)
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    outcome = measure.Outcome()
    try:
        if args.trace:
            plan = measure.set_up(workload, work, args.seed, cli, outcome, repeats=1)
            measure.traced_loop(plan, cli, args.seconds, outcome)
            stored = work_root / "counts" / f"{args.workload}-{args.seed}-{digest[:16]}.json"
            outcome.mismatches += measure.compare_with_stored(outcome.records, stored)
            metrics = measure.per_layer_metrics(outcome, plan)
        else:
            plan = measure.set_up(workload, work, args.seed, cli, outcome)
            measure.timed_loop(plan, cli, args.seconds, outcome)
            metrics = measure.end_to_end_metrics(outcome, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env = " + json.dumps(environment(root, args, digest), sort_keys=True))
    report(workload, outcome, metrics, args, measure)
    result = {
        "correct": outcome.failed == 0 and not outcome.mismatches,
        "attempted": len(outcome.checks),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
