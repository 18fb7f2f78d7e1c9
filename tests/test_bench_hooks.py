"""The benchmark's traced run wraps layer functions by name.

A refactor that removes or renames one of them would otherwise go unnoticed
until someone runs the benchmark with ``--trace 1``.
"""

import inspect
from pathlib import Path

import numpy as np

from tcilab import costs, criteria, measures, transport, verify

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


def test_dual_trials_count_screened_potentials(mu1, alpha1):
    # the tracer's dual_hook derives verify.dual.potentials and
    # us_per_potential from DualTestReport.trials, which must keep counting
    # every candidate, those decided by the screening bound included
    _knots, adversarial = verify._dual_family(mu1, 0, 0)
    rep = verify.dual_check_strong(mu1, alpha1, prefactor=1.0 / 36.0,
                                   trials=30, seed=0)
    assert rep.screened > 0
    assert rep.trials == len(adversarial) + 30


def test_scan_sups_call_through_the_wrapped_module_attributes(monkeypatch):
    # the traced run sees the scan-sup only where criteria looks it up as
    # numerics.sup_on_grid, and the Muckenhoupt weight runs without quad
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    mu = measures.make_builtin("exponential")
    rm = criteria.rearrangement(mu, establish_lipschitz=False)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        criteria.muckenhoupt(mu)
        criteria.omega_bounds(rm, [0.5, 1.0])
    finally:
        tracer.uninstall()
    names = [row[0] for row in tracer.spans]
    assert names.count("numerics.sup_on_grid") == 2
    assert "numerics.quad" not in names
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_lsi_check_runs_without_quad_or_golden_max(monkeypatch):
    # the benchmark's lsi pair, traced: one cell call per test function and
    # one column search per conjugate call, no scalar quadrature or search
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    mu = measures.make_builtin("gaussian", sigma=2.0 ** -0.5)
    beta = costs.conjugate(costs.builtin_cost("theta_p", p=2.0))
    family = verify._lsi_builtins(mu)[::10]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        v = verify.lsi_check(mu, beta, C=1.0, t=8.0, test_family=family)
    finally:
        tracer.uninstall()
    names = [row[0] for row in tracer.spans]
    assert names.count("verify.lsi_check") == 1
    assert "numerics.quad" not in names
    assert "numerics.golden_max" not in names
    assert tracer.counters["costs.conjugate.evals"] == 0
    assert v.diagnostics["family_size"] == len(family) == 5
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_window_integrals_run_without_quad(monkeypatch):
    # a table build, the quantile-coupling cost and the continuous relative
    # entropy, traced: each decides its truncated limit through
    # numerics.guarded_limit on the cell engine, with no scalar quadrature
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    xs = np.linspace(-4.0, 4.0, 129)
    gaussian = measures.make_builtin("gaussian", sigma=1.0)
    calls = [
        lambda: measures.make_from_table(xs, xs ** 4 / 4.0),
        lambda: transport.cost_monotone(
            gaussian, measures.make_builtin("exponential"),
            costs.builtin_cost("theta_p", p=2.0)),
        lambda: transport.relative_entropy(
            measures.make_builtin("gaussian", sigma=0.6), gaussian),
    ]
    tracer = spans.Tracer()
    per_call = []
    try:
        tracer.install()
        patched = list(tracer._saved)
        for call in calls:
            first = len(tracer.spans)
            call()
            per_call.append([row[0] for row in tracer.spans[first:]])
    finally:
        tracer.uninstall()
    for names in per_call:
        assert "numerics.quad" not in names
        assert "numerics.guarded_limit" in names
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
