"""The benchmark's traced run wraps layer functions by name.

A refactor that removes or renames one of them would otherwise go unnoticed
until someone runs the benchmark with ``--trace 1``.
"""

import inspect
from pathlib import Path

from tcilab import costs, criteria, measures, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_hook_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    # read, not wrapped: the table marker and conjugate's inner evaluator
    assert measures.make_builtin("exponential")._table is None
    inner = [c.co_name for c in costs.conjugate.__code__.co_consts
             if hasattr(c, "co_name")]
    assert "value" in inner


def test_hooked_signatures_still_match():
    # the tracer counts b-scan steps from K_moment's positional args[3] and
    # wraps the ray engine where verify looks it up
    params = list(inspect.signature(criteria.K_moment).parameters)
    assert params.index("side") == 3
    assert verify._decaying_tail_integral is criteria._decaying_tail_integral
