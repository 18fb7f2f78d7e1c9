"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout, not while another benchmark or the test
suite is running::

    python3 perfbench/selftest.py

They check that every declared metric prints with its unit, that the
expected-output gate trips on a wrong expectation, that work counts repeat
exactly for one seed, and that the benchmark refuses to run without the
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_runs: dict = {}


def bench(workload: str, seed: int, trace: int, run_py: Path = HERE / "run.py"):
    """Exit code and last stdout line (parsed) of one tiny run."""
    key = (workload, seed, trace, run_py)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--size", "tiny"],
            capture_output=True, text=True, cwd=run_py.parent.parent,
            timeout=600)
        lines = proc.stdout.strip().splitlines()
        _runs[key] = (proc.returncode, json.loads(lines[-1]) if lines
                      and lines[-1].startswith("{") else None, proc.stderr)
    return _runs[key]


def test_every_metric_prints_with_its_unit():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, want in ((0, end_to_end), (1, per_layer)):
            code, result, err = bench(workload, 3, trace)
            assert code == 0, err
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace)
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), name


def test_mismatch_gate_trips_on_wrong_expectation():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import cases
    import run

    work = ROOT / ".perfbench-out" / "selftest"
    inputs = cases.make_inputs("verify-sweep", 1, work)
    case = cases.build_cases("verify-sweep", inputs, "tiny")[-1]
    results = run.run_pass([case])
    assert run.judge(results, cases).mismatched == 0
    case.expect = [("status", "==", "fails")] + case.expect
    judged = run.judge(results, cases)
    assert judged.mismatched == 1
    assert any("mismatch status" in line for line in judged.lines)
    assert cases.mismatches({"a": 0.25}, [("a", "abs", (0.25, 1e-12))]) == []
    assert cases.mismatches({"a": 0.26}, [("a", "abs", (0.25, 1e-12))])
    assert cases.mismatches({}, [("a", "==", 1)])
    shutil.rmtree(work, ignore_errors=True)


def test_work_counts_repeat_for_one_seed():
    names = ("numerics.quad.calls", "verify.dual.potentials",
             "transport.cost_lp.calls")
    seen = {name: 0 for name in names}
    for workload in ("analyze-closed-form", "verify-sweep"):
        first = bench(workload, 7, 1)[1]["metrics"]
        _runs.pop((workload, 7, 1, HERE / "run.py"))
        second = bench(workload, 7, 1)[1]["metrics"]
        for name in names:
            assert first[name]["value"] == second[name]["value"], name
            seen[name] += first[name]["value"]
    assert all(seen.values()), seen


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, _err = bench("verify-sweep", 1, 0,
                                   bare / "perfbench" / "run.py")
        assert code != 0 and result is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
