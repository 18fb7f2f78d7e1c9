"""Property-based tests: structural invariants that must hold for random
inputs, not just the frozen anchor cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcilab import costs, measures
from tcilab.costs import builtin_cost, validate_admissible
from tcilab.criteria import _decaying_tail_integral, assemble_rate
from tcilab.measures import DiscreteMeasure, make_builtin, quantile_discretize
from tcilab.transport import (
    GridFunction,
    cost_lp,
    cost_matrix,
    cost_monotone_discrete,
    inf_convolution_exact,
    relative_entropy,
)
from tcilab.verdict import Verdict


def _discrete_pair(rng, k):
    def one():
        atoms = np.sort(rng.normal(size=k) * 2.0)
        atoms += np.arange(k) * 1e-9          # break ties
        w = rng.dirichlet(np.ones(k))
        w = np.clip(w, 1e-12, None)
        return DiscreteMeasure(atoms, w / w.sum())
    return one(), one()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
def test_monotone_plan_is_optimal_for_convex_cost(seed, k):
    rng = np.random.default_rng(seed)
    nu, mu = _discrete_pair(rng, k)
    theta2 = builtin_cost("theta_p", p=2.0)
    mono = cost_monotone_discrete(nu, mu, theta2)
    lp, _plan = cost_lp(nu, mu, cost_matrix(nu, mu, theta2))
    assert mono == pytest.approx(lp, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
def test_lp_never_beats_monotone_from_below(seed, k):
    # for a general (possibly nonconvex) cost the LP is a lower bound
    rng = np.random.default_rng(seed)
    nu, mu = _discrete_pair(rng, k)
    alpha1 = builtin_cost("alpha1")
    mono = cost_monotone_discrete(nu, mu, alpha1)
    lp, _plan = cost_lp(nu, mu, cost_matrix(nu, mu, alpha1))
    assert lp <= mono + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.05, max_value=6.0))
def test_theta_family_always_admissible(p):
    v = validate_admissible(builtin_cost("theta_p", p=p))
    assert v.status == "holds"


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_inf_convolution_bounded_by_any_candidate(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-4, 4, 33)
    phi = GridFunction(grid, rng.uniform(-1.0, 2.0, size=grid.size))
    theta2 = builtin_cost("theta_p", p=2.0)
    out = rng.uniform(-5, 5, size=8)
    q = inf_convolution_exact(phi, theta2, out)
    lo = float(np.min(phi.values))
    ys = rng.uniform(-4.5, 4.5, size=64)
    for x, qx in zip(out, q):
        assert qx >= lo - 1e-12            # floor: min of the potential
        cand = np.min(phi(ys) + theta2.fn(x - ys))
        assert qx <= cand + 1e-12          # never above any explicit test point


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["exponential", "gaussian", "exp_power", "cauchy"]),
       st.floats(min_value=0.25, max_value=3.0),
       st.floats(min_value=0.001, max_value=0.999))
def test_quantile_cdf_roundtrip(name, param, u):
    if name == "gaussian":
        mu = make_builtin(name, sigma=param)
    elif name == "exp_power":
        mu = make_builtin(name, p=max(param, 1.0))
    else:
        mu = make_builtin(name)
    x = mu.quantile(u)
    assert mu.cdf(x) == pytest.approx(u, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10))
def test_relative_entropy_nonnegative(seed, k):
    rng = np.random.default_rng(seed)
    nu, mu = _discrete_pair(rng, k)
    # same atoms so the entropy is finite
    nu2 = DiscreteMeasure(mu.atoms, nu.weights)
    h = relative_entropy(nu2, mu)
    assert h >= -1e-12
    assert relative_entropy(mu, mu) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.2, max_value=50.0))
def test_assemble_rate_dominated_by_leading_terms(a0, b, K):
    alpha1 = builtin_cost("alpha1")
    a = assemble_rate(a0, b, K, alpha1)
    assert 0.0 < a <= min(a0, b / 2.0) + 1e-12


def test_verdict_requires_finite_constants():
    with pytest.raises(ValueError):
        Verdict("holds", constants={"A": math.inf})
    with pytest.raises(ValueError):
        Verdict("holds", constants={"A": -1.0})
    Verdict("fails", constants={"A": math.inf})   # failures may carry inf


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=32))
def test_quantile_discretization_preserves_order_and_mass(seed, k):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.5, 2.0))
    mu = make_builtin("gaussian", sigma=sigma)
    dn = quantile_discretize(mu, k)
    assert dn.atoms.size == k
    assert np.all(np.diff(dn.atoms) > 0)
    assert dn.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(dn.weights, 1.0 / k)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0, exclude_min=True,
                 exclude_max=True))
def test_ray_that_leaves_the_support_integrates_its_finite_part(eps):
    # integrand e^{-z} on [0, eps), -inf beyond, the support end marked
    def log_parts(i, z):
        z = np.asarray(z, dtype=float)
        return np.zeros(z.shape), np.where(z < eps, -z, -np.inf)

    got = _decaying_tail_integral(log_parts, [0.0], marks=[eps])
    assert got[0] == pytest.approx(-math.expm1(-eps), rel=1e-12)
