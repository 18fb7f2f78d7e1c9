"""Acceptance battery: one test per shipping criterion.

Each test pins its own tolerances and asserts its runtime budget.  A
criterion that cannot be met by the mathematics it tests is left failing
rather than weakened; see the repository notes for the analysis.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from tcilab import cli, costs, criteria, measures, verify
from tcilab.cli import AnalysisConfig, run_analyze
from tcilab.measures import residual, stochastically_dominated
from tcilab.transport import cost_lp, cost_matrix, cost_monotone_discrete


def _elapsed_ok(t0: float, budget: float) -> float:
    dt = time.monotonic() - t0
    assert dt <= budget, f"runtime {dt:.1f}s exceeds the {budget:.0f}s budget"
    return dt


def _random_builtin(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return measures.make_builtin("exponential")
    if kind == 1:
        return measures.make_builtin("gaussian", sigma=float(rng.uniform(0.5, 2.0)))
    if kind == 2:
        return measures.make_builtin("exp_power", p=float(rng.uniform(1.0, 3.0)))
    return measures.make_builtin("one_sided_exp", rate=float(rng.uniform(0.5, 2.0)))


def test_criterion_01(capsys):
    """Symmetric exponential with the kinked quadratic-linear cost at
    prefactor 1/36: ten thousand seeded potentials, staircase adversaries
    included, never break the dual product."""
    t0 = time.monotonic()
    rc = cli.main(["verify", "dual", "--mu", "exponential", "--cost", "alpha1",
                   "--scale-prefactor", "1/36", "--trials", "10000",
                   "--seed", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "no_violation"
    assert doc["worst_product"] <= 1.0 + 1e-6
    assert doc["trials"] >= 10000
    _elapsed_ok(t0, 60.0)


def test_criterion_02():
    """Scaling the canonical cost by ten must be caught by both the ray
    integrability test and the dual sampler."""
    t0 = time.monotonic()
    mu1 = measures.make_builtin("exponential")
    alpha1 = costs.builtin_cost("alpha1")
    v = verify.integrability_check(mu1, alpha1, scale=1.0, prefactor=10.0)
    assert v.status == "fails"
    rep = verify.dual_check_strong(mu1, alpha1, scale=1.0, prefactor=10.0,
                                   trials=200, seed=0)
    assert rep.status == "violation_found"
    assert rep.worst_product > 1.0 + 1e-6
    _elapsed_ok(t0, 30.0)


def test_criterion_03():
    """Quantile-coupling and linear-programming optimizers agree on random
    discretized pairs for convex costs, and the coupling never undercuts
    the LP for the kinked nonconvex one."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    convex = [costs.builtin_cost("alpha_p", p=2.0),
              costs.builtin_cost("theta_p", p=1.5),
              costs.builtin_cost("theta_p", p=2.0)]
    alpha1 = costs.builtin_cost("alpha1")
    for _ in range(20):
        k1, k2 = int(rng.integers(8, 65)), int(rng.integers(8, 65))
        dn = measures.quantile_discretize(_random_builtin(rng), k1)
        dm = measures.quantile_discretize(_random_builtin(rng), k2)
        for c in convex:
            mono = cost_monotone_discrete(dn, dm, c)
            lp, _plan = cost_lp(dn, dm, cost_matrix(dn, dm, c))
            assert abs(mono - lp) / max(lp, 1e-6) <= 0.02
        mono = cost_monotone_discrete(dn, dm, alpha1)
        lp, _plan = cost_lp(dn, dm, cost_matrix(dn, dm, alpha1))
        assert mono >= lp - 1e-9
    _elapsed_ok(t0, 60.0)


def test_criterion_04():
    """Closed-form anchors for the reference law: unit Lipschitz and
    Muckenhoupt constants, memoryless overshoot tails on a full grid, and
    the exactly-one output of the rate assembly in its unit case."""
    t0 = time.monotonic()
    mu1 = measures.make_builtin("exponential")
    v = criteria.lipschitz_check(mu1)
    assert v.constants["A_plus"] == pytest.approx(1.0, abs=1e-6)
    assert v.constants["A_minus"] == pytest.approx(1.0, abs=1e-6)
    dp, _dm = criteria.muckenhoupt(mu1)
    assert dp == pytest.approx(1.0, abs=1e-4)
    h_grid = np.linspace(0.0, 12.0, 100)
    for x in np.linspace(0.0, 8.0, 100):
        r = residual(mu1, x, "plus")
        np.testing.assert_allclose(r.tail(h_grid), np.exp(-h_grid), atol=1e-9)
    assert criteria.assemble_rate(1.0, 2.0, math.e,
                                  costs.builtin_cost("alpha1")) == 1.0
    _elapsed_ok(t0, 30.0)


def test_criterion_05():
    """Log-concave decision round trip: each matched (law, cost) pair is
    certified with explicit constants, the dual sampler confirms the
    assembled scale, and the global two-sided moment stays under three."""
    t0 = time.monotonic()
    pairs = [("gaussian", {"sigma": 1.0}, 2.0),
             ("exp_power", {"p": 1.0}, 1.0),
             ("exp_power", {"p": 1.5}, 1.5),
             ("exp_power", {"p": 2.0}, 2.0)]
    for name, params, p in pairs:
        mu = measures.make_builtin(name, **params)
        theta = costs.builtin_cost("theta_p", p=p)
        v = criteria.decide_strong_tci_logconcave(mu, theta)
        assert v.status == "holds"
        a = v.constants["a"]
        assert v.constants["b"] > 0 and a > 0
        rep = verify.dual_check_strong(mu, theta, scale=a, prefactor=1.0 / 72.0,
                                       trials=1000, seed=0)
        assert rep.status == "no_violation"
        moment, _err = integrate.quad(
            lambda x: math.exp(theta.fn(a * x) - mu.potential(x) - mu.logZ),
            mu.quantile(1e-14), mu.isf(1e-14), limit=200)
        assert moment <= 3.0 + 1e-6
    _elapsed_ok(t0, 120.0)


def test_criterion_06():
    """Necessity of the moment condition: the heavy-tailed law fails at
    every scanned growth rate, and the two decision routes agree on the
    gaussian/quadratic pair."""
    t0 = time.monotonic()
    cauchy = measures.make_builtin("cauchy")
    alpha1 = costs.builtin_cost("alpha1")
    v = criteria.decide_strong_tci_lip(cauchy, alpha1)
    assert v.status == "fails"
    scanned = v.diagnostics["b_scan"]
    assert len(scanned) >= 10
    for b in scanned:
        assert criteria.K_moment(cauchy, alpha1, b) == math.inf
    gauss = measures.make_builtin("gaussian", sigma=1.0)
    x2 = costs.builtin_cost("alpha_p", p=2.0)
    lip = criteria.decide_strong_tci_lip(gauss, x2)
    logc = criteria.decide_strong_tci_logconcave(gauss, x2)
    assert lip.status == logc.status == "holds"
    _elapsed_ok(t0, 60.0)


def test_criterion_07():
    """Dimension-free concentration for orthant sets: a million samples per
    dimension keep the lower confidence limits above the product bound, and
    the one-dimensional curve matches its closed form."""
    t0 = time.monotonic()
    mu1 = measures.make_builtin("exponential")
    alpha1 = costs.builtin_cost("alpha1")
    for n in (1, 4, 8):
        rep = verify.concentration_mc(mu1, alpha1, prefactor=1.0 / 36.0,
                                      n=n, samples=10 ** 6, seed=n)
        assert rep.verdict.status == "holds"
        assert rep.mass_a == pytest.approx(0.5 ** n, abs=1e-12)
        assert np.all(rep.lower_ci >= rep.bound)
        if n == 1:
            for row in rep.rows():
                analytic = 1.0 - mu1.cdf(-alpha1.inverse(36.0 * row["r"]))
                assert row["lower_ci"] <= analytic <= row["upper_ci"]
    _elapsed_ok(t0, 120.0)


def test_criterion_08():
    """New-better-than-used ordering for every log-concave built-in: the
    overshoot law anywhere right of the median is dominated by the one at
    the median; the heavy-tailed law fails the shape predicate itself."""
    t0 = time.monotonic()
    builtins = [("gaussian", {"sigma": 1.0}), ("exponential", {}),
                ("exp_power", {"p": 1.0}), ("exp_power", {"p": 1.5}),
                ("exp_power", {"p": 2.0}), ("exp_power", {"p": 3.0})]
    h_grid = np.linspace(0.0, 8.0, 65)
    for name, params in builtins:
        mu = measures.make_builtin(name, **params)
        m = mu.median
        m_res = residual(mu, m, "plus")
        for x in np.linspace(m, mu.isf(1e-6), 64):
            v = stochastically_dominated(residual(mu, x, "plus").tail,
                                         m_res.tail, h_grid)
            assert v.holds, f"{mu.name} at x={x}"
    assert measures.is_log_concave(measures.make_builtin("cauchy")).status == "fails"
    _elapsed_ok(t0, 30.0)


def test_criterion_09():
    """Tail-ratio equivalence window at the probe point: within one percent
    of unity for the quadratic and three-halves growth functions, exact for
    linear growth."""
    t0 = time.monotonic()
    for phi in (lambda t: t * t, lambda t: t ** 1.5):
        r = criteria.int_equiv_ratio(phi, [10.0])
        assert 0.99 <= r[0] <= 1.01
    r = criteria.int_equiv_ratio(lambda t: t, [2.0, 5.0, 10.0, 40.0])
    np.testing.assert_allclose(r, 1.0, atol=1e-10)
    _elapsed_ok(t0, 5.0)


def test_criterion_10():
    """Entropy inequality with the conjugate profile at the assembled scale:
    the fifty-function family finds no violation at the derived constants,
    and shrinking the constant a hundredfold is detected."""
    t0 = time.monotonic()
    mu = measures.make_builtin("gaussian", sigma=2.0 ** -0.5)
    theta2 = costs.builtin_cost("theta_p", p=2.0)
    v = criteria.decide_strong_tci_logconcave(mu, theta2)
    assert v.status == "holds"
    a = v.constants["a"]
    lam = 0.5
    C = lam / (1.0 - lam)
    t = 1.0 / (a * lam)
    beta = costs.conjugate(theta2)
    good = verify.lsi_check(mu, beta, C=C, t=t)
    assert good.status == "holds"
    bad = verify.lsi_check(mu, beta, C=C / 100.0, t=t)
    assert bad.status == "fails"
    _elapsed_ok(t0, 60.0)


def test_criterion_11():
    """Replaying the full pipeline with one config and seed reproduces the
    report byte for byte."""
    t0 = time.monotonic()
    cfg = AnalysisConfig(measure="exponential", cost="alpha1",
                         dual_trials=200, seed=17)
    first = run_analyze(cfg).to_json()
    second = run_analyze(cfg).to_json()
    assert first == second
    _elapsed_ok(t0, 120.0)
