"""tcilab benchmark: one workload per run, every verdict checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-closed-form --seed 0 \
        --seconds 30 --trace 0

The case list of the workload runs in whole passes until ``--seconds`` of
measuring have elapsed, at least three passes (one when ``--seconds`` is 0).
Every case is timed on its own; with ``--trace 0`` the last stdout line
reports the end-to-end metrics, ``wall_s`` being the sum over cases of each
case's median time, so one slow stretch of the host spoils one sample of a
case and not the run.  With ``--trace 1`` one untraced and one traced pass
give the per-layer metrics.
Every case's output is checked against its expected table; a mismatch or a
failed operation makes the run exit with code 1.  Spans of a traced pass
are written to ``.perfbench-out/``.  BLAS is pinned to one thread.
``--workload all`` runs each workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MIN_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: reduced case list for the self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def timed_setup(args) -> float:
    """Wall time of a fresh process that imports and generates the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, env=os.environ.copy(),
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_all(args, workloads) -> int:
    """Each workload in its own process, in turn; the worst exit code."""
    codes = [subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", w,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--size", args.size]).returncode
        for w in workloads]
    return max(codes)


def run_pass(case_list, tracer=None):
    """Run every case once; returns [(case, result, error, seconds)]."""
    state: dict = {}
    results = []
    for case in case_list:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = case.run(state)
            else:
                tracer.case = case.name
                out = tracer.span("bench.case", case.run, (state,), {})
            results.append((case, out, None, time.perf_counter() - t0))
        except Exception:  # noqa: BLE001 - a failed case is counted, not fatal
            results.append((case, None, traceback.format_exc(limit=3),
                            time.perf_counter() - t0))
    return results


class Judged(NamedTuple):
    attempted: int
    failed: int
    mismatched: int
    lines: list
    prints: list      # (case, output fingerprint, report.json digest)


def judge(results, cases_mod) -> Judged:
    """Counts and per-case lines for one pass."""
    attempted = failed = mismatched = 0
    lines, prints = [], []
    for case, out, err, _seconds in results:
        if err is not None:
            attempted += 1
            failed += 1
            lines.append(f"case {case.name}: ERROR {err.strip().splitlines()[-1]}")
            continue
        a, f = case.ops(out)
        attempted += a
        failed += f
        obs = case.observe(out)
        bad = cases_mod.mismatches(obs, case.expect)
        mismatched += len(bad)
        status = "ok" if not bad and not f else "MISMATCH"
        lines.append(f"case {case.name}: {status} "
                     f"{obs.get('status', obs.get('conclusion', ''))}")
        lines += [f"  mismatch {m}" for m in bad]
        prints.append((case.name, cases_mod.fingerprint(out),
                       obs.get("report_sha256")))
    return Judged(attempted, failed, mismatched, lines, prints)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "tcilab" / "__init__.py").is_file():
        print(f"error: no tcilab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    import tcilab

    if Path(tcilab.__file__).resolve().parent != ROOT / "src" / "tcilab":
        print(f"error: imported tcilab from {tcilab.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, cases.WORKLOADS)
    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cases.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        inputs = cases.make_inputs(args.workload, args.seed, workdir)
        if args.setup_probe:
            return 0
        return measure(args, cases, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cases, inputs) -> int:
    setups = []
    case_list = cases.build_cases(args.workload, inputs, args.size)

    env = environment()
    print(f"workload {args.workload} seed {args.seed} size {args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    walls, passes = [], []
    case_s = {case.name: [] for case in case_list}
    min_passes = 1 if args.trace or args.seconds <= 0 else MIN_PASSES
    while len(walls) < min_passes or (not args.trace
                                      and sum(walls) < args.seconds):
        # set-up probes go between passes, so that they sample the same
        # stretch of host time as the passes do
        if not args.trace and len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(args))
        results = run_pass(case_list)
        walls.append(sum(r[3] for r in results))
        for case, _out, _err, seconds in results:
            case_s[case.name].append(seconds)
        passes.append(judge(results, cases))
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            results = run_pass(case_list, tracer)
        finally:
            tracer.uninstall()
        passes.append(judge(results, cases))
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        traced_wall = sum(r[3] for r in results)
        metrics = tracer.metrics(traced_wall, walls[0])
        accounted = sum(metrics[f"{layer}.self_s"][0]
                        for layer in spans.LAYERS + ("bench",))
        print(f"trace self times sum to {accounted:.4f} s of traced wall "
              f"{traced_wall:.4f} s")
    else:
        metrics = {"wall_s": (sum(statistics.median(v)
                                  for v in case_s.values()), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    mismatched = sum(p.mismatched for p in passes)
    for line in passes[0].lines:
        print(line)
    for p in passes[1:]:
        for line in p.lines:
            if ": ok" not in line:
                print(f"later pass: {line}")
    # every pass, traced or not, must reproduce the first pass's outputs
    first = passes[0].prints
    drift = [a[0] for p in passes[1:] for a, b in zip(p.prints, first)
             if a[1] != b[1]]
    drift += ["<case list>"] * any(len(p.prints) != len(first)
                                   for p in passes)
    mismatched += len(drift)
    for name in drift:
        print(f"mismatch {name}: output differs between passes")
    for name, _fp, digest in first:
        if digest:
            print(f"digest {name} report.json sha256 {digest}")
    print(f"passes {len(walls)} untraced, seconds per pass "
          + " ".join(f"{w:.4f}" for w in walls))
    for name, times in case_s.items():
        print(f"timing {name} seconds " + " ".join(f"{t:.4f}" for t in times))
    if setups:
        print("setup_s per process " + " ".join(f"{s:.4f}" for s in setups))
    print(f"attempted {attempted} failed {failed} "
          f"error_rate {failed / max(attempted, 1):.6g} "
          f"output_mismatches {mismatched}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    correct = mismatched == 0 and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
