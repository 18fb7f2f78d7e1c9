"""The benchmark's expected outputs hold on the full case lists.

``perfbench/run.py`` rejects a run whose outputs miss the expectations of
``perfbench/cases.py``; running each workload's ``full`` case list once here
shows such a miss without the benchmark.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["analyze-closed-form", "verify-sweep",
                                      "criteria-quadrature"])
def test_full_cases_meet_their_expectations(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cases

    assert workload in cases.WORKLOADS
    inputs = cases.make_inputs(workload, 3, tmp_path / workload)
    state: dict = {}
    for case in cases.build_cases(workload, inputs, "full"):
        result = case.run(state)
        assert case.ops(result)[1] == 0, case.name
        assert cases.mismatches(case.observe(result), case.expect) == [], \
            case.name
