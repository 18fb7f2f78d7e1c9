"""Transport costs: monotone coupling, LP oracle, entropy, inf-convolution."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, optimize, sparse

from tcilab import numerics, transport, verify
from tcilab.costs import builtin_cost, conjugate, cost_from_table
from tcilab.measures import (DiscreteMeasure, make_builtin, make_from_table,
                             quantile_discretize)
from tcilab.transport import (ExactInfConvolution, GridFunction, cost_lp,
                              cost_matrix, cost_monotone,
                              cost_monotone_discrete, dual_lower_bound,
                              inf_convolution_exact, northwest_plan,
                              relative_entropy)


def inf_convolution(phi, alpha, out_grid, scale=None, prefactor=1.0):
    """Lattice inf-convolution ``Q(x) = min_y phi(y) + c(x - y)``, the
    oracle of the exact engine.

    The minimum ranges over the union of ``phi``'s knots and ``out_grid``
    (with ``phi`` evaluated by its own piecewise-linear rule), which makes
    ``Q <= phi`` pointwise on the output grid.
    """
    out = np.asarray(out_grid, dtype=float)
    _, c = transport._ground(alpha, scale, prefactor)
    cands = np.union1d(phi.grid, out)
    pv = phi(cands)
    vals = np.empty(len(out))
    chunk = max(1, int(4e6 // max(len(cands), 1)))
    for s in range(0, len(out), chunk):
        x = out[s:s + chunk, None]
        vals[s:s + chunk] = np.min(pv[None, :] + c(x - cands[None, :]), axis=1)
    return GridFunction(out, vals)


def dense_cost_lp(nu, mu, cost_mat):
    """The single transport LP over all n*m pairs, the oracle of the
    column-generation ``cost_lp``: row sums are ``nu``'s weights, column
    sums ``mu``'s but the last (implied), solved by HiGHS dual simplex."""
    n, m = cost_mat.shape
    A_rows = sparse.kron(sparse.eye(n), np.ones((1, m)), format="csr")
    A_cols = sparse.kron(np.ones((1, n)), sparse.eye(m), format="csr")
    A = sparse.vstack([A_rows, A_cols[:-1]], format="csr")
    b = np.concatenate([nu.weights, mu.weights[:-1]])
    res = optimize.linprog(
        cost_mat.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(res.fun)


def _random_discrete(rng, k):
    atoms = np.sort(rng.normal(size=k) * rng.uniform(0.5, 2.0))
    atoms += np.arange(k) * 1e-9          # break ties
    w = rng.dirichlet(np.ones(k))
    w = np.clip(w, 1e-9, None)
    return DiscreteMeasure(atoms, w / w.sum())


class TestNorthwest:
    def test_marginals(self):
        rng = np.random.default_rng(0)
        nu, mu = _random_discrete(rng, 7), _random_discrete(rng, 5)
        plan = northwest_plan(nu, mu)
        np.testing.assert_allclose(plan.matrix.sum(axis=1), nu.weights,
                                   atol=1e-12)
        np.testing.assert_allclose(plan.matrix.sum(axis=0), mu.weights,
                                   atol=1e-12)
        assert np.all(plan.matrix >= 0)


class TestDiscreteCosts:
    def test_monotone_equals_lp_for_convex(self, theta2):
        rng = np.random.default_rng(11)
        for _ in range(5):
            nu, mu = _random_discrete(rng, 12), _random_discrete(rng, 9)
            vm = cost_monotone_discrete(nu, mu, theta2)
            vl, plan = cost_lp(nu, mu, cost_matrix(nu, mu, theta2))
            assert vm == pytest.approx(vl, abs=1e-9)
            np.testing.assert_allclose(plan.matrix.sum(axis=1), nu.weights,
                                       atol=1e-9)

    def test_monotone_upper_bounds_lp_nonconvex(self, alpha1):
        rng = np.random.default_rng(12)
        for _ in range(5):
            nu, mu = _random_discrete(rng, 10), _random_discrete(rng, 10)
            vm = cost_monotone_discrete(nu, mu, alpha1)
            vl, _ = cost_lp(nu, mu, cost_matrix(nu, mu, alpha1))
            assert vm >= vl - 1e-9

    def test_lp_atom_cap(self, theta2):
        rng = np.random.default_rng(13)
        nu = _random_discrete(rng, 8)
        with pytest.raises(ValueError, match="atom cap"):
            cost_lp(nu, nu, np.zeros((8, 8)), max_atoms=4)

    def test_translation_by_one(self, theta2):
        atoms = np.array([0.0, 1.0, 2.0])
        w = np.array([0.25, 0.5, 0.25])
        nu = DiscreteMeasure(atoms + 1.0, w)
        mu = DiscreteMeasure(atoms, w)
        assert cost_monotone_discrete(nu, mu, theta2) == pytest.approx(1.0)
        vl, _ = cost_lp(nu, mu, cost_matrix(nu, mu, theta2))
        assert vl == pytest.approx(1.0, abs=1e-9)


def _dirichlet_discrete(rng, atoms):
    # as tensor_check draws its random measures
    w = np.clip(rng.dirichlet(np.ones(len(atoms))), 1e-300, None)
    return DiscreteMeasure(atoms, w / w.sum())


def _assert_matches_oracle(nu, mu, C):
    value, plan = cost_lp(nu, mu, C)
    oracle = dense_cost_lp(nu, mu, C)
    assert value == pytest.approx(oracle, rel=1e-12, abs=1e-15)
    assert np.all(plan.matrix >= 0.0)
    np.testing.assert_allclose(plan.matrix.sum(axis=1), nu.weights,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), mu.weights,
                               rtol=0, atol=1e-12)
    assert plan.cost(C) == pytest.approx(value, rel=1e-12, abs=1e-15)


class TestLpOracle:
    """Column generation against the dense single LP over every pair."""

    @pytest.mark.parametrize("name, params", [
        ("alpha1", {}), ("theta_p", {"p": 2}), ("maurey", {}), ("table", {})])
    def test_random_line_pairs(self, name, params):
        if name == "table":
            ts = np.linspace(0.0, 8.0, 33)
            alpha = cost_from_table(ts, np.where(ts <= 1.0, ts * ts,
                                                 2.0 * ts - 1.0))
        else:
            alpha = builtin_cost(name, **params)
        rng = np.random.default_rng(31)
        for n, m in ((9, 7), (30, 40), (60, 50)):
            nu, mu = _random_discrete(rng, n), _random_discrete(rng, m)
            _assert_matches_oracle(nu, mu, cost_matrix(nu, mu, alpha))

    @pytest.mark.parametrize("n", [2, 3])
    def test_tensor_product_costs(self, mu1, alpha1, n):
        atoms = quantile_discretize(mu1, 6)
        c1 = cost_matrix(atoms, atoms, alpha1, scale=0.25, prefactor=1 / 72)
        C = verify._product_cost(c1, n)
        labels = np.arange(len(C), dtype=float)
        rng = np.random.default_rng(n)
        W = verify._product_weights([atoms.weights] * n)
        mu_prod = DiscreteMeasure(labels, W / W.sum())
        for _ in range(2):
            nu = _dirichlet_discrete(rng, labels)
            _assert_matches_oracle(nu, mu_prod, C)
            _assert_matches_oracle(nu, _dirichlet_discrete(rng, labels), C)

    def test_degenerate_instances(self, alpha1):
        rng = np.random.default_rng(5)
        nu, mu = _random_discrete(rng, 30), _random_discrete(rng, 25)
        _assert_matches_oracle(nu, mu, np.zeros((30, 25)))
        # identical marginals: the identity coupling is free
        C = cost_matrix(nu, nu, alpha1)
        _assert_matches_oracle(nu, nu, C)
        assert cost_lp(nu, nu, C)[0] == 0.0
        # Dirichlet weights clipped at 1e-300, on a random cost
        labels = np.arange(40, dtype=float)
        C = rng.uniform(0.0, 1.0, (40, 40))
        for _ in range(3):
            _assert_matches_oracle(_dirichlet_discrete(rng, labels),
                                   _dirichlet_discrete(rng, labels), C)


class TestLpPricing:
    def test_pricing_adds_columns_until_certified(self, monkeypatch):
        # every row's 16 cheapest pairs are columns 0..15, but the column
        # part of the cost is the same for every plan: the optimum is set
        # by the noise and needs pairs outside the first support
        rng = np.random.default_rng(7)
        n = m = 40
        C = np.arange(m)[None, :] + 0.1 * rng.uniform(size=(n, m))
        nu, mu = _random_discrete(rng, n), _random_discrete(rng, m)
        first = northwest_plan(nu, mu).matrix > 0
        first[:, :16] = True
        solves = []
        real = optimize.linprog

        def counting(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(optimize, "linprog", counting)
        value, plan = cost_lp(nu, mu, C)
        monkeypatch.undo()
        assert len(solves) >= 2
        assert np.any(plan.matrix[~first] > 0)
        y = solves[-1].eqlin.marginals
        reduced = C - y[:n, None] - np.append(y[n:], 0.0)[None, :]
        assert reduced.min() >= -1e-12
        assert value == pytest.approx(dense_cost_lp(nu, mu, C), rel=1e-12)


class TestContinuousMonotone:
    def test_identity_is_free(self, mu1, theta2):
        v, exact = cost_monotone(mu1, mu1, theta2)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert exact

    def test_gaussian_scaling(self, theta2):
        g1 = make_builtin("gaussian", sigma=1.0)
        g2 = make_builtin("gaussian", sigma=2.0)
        v, exact = cost_monotone(g1, g2, theta2)
        assert exact
        assert v == pytest.approx(1.0, rel=1e-6)   # (sigma2 - sigma1)^2

    def test_gaussian_shift(self, theta2):
        g = make_builtin("gaussian", sigma=1.0)
        gm = make_builtin("gaussian", sigma=1.0, mean=1.5)
        v, _ = cost_monotone(gm, g, theta2)
        assert v == pytest.approx(1.5 ** 2, rel=1e-6)

    def test_gaussian_closed_forms_tight(self, gaussian, theta2):
        # W2^2 between Gaussians is (s2 - s1)^2 + (m2 - m1)^2
        wide = make_builtin("gaussian", sigma=2.0)
        shifted = make_builtin("gaussian", sigma=1.0, mean=1.5)
        assert cost_monotone(gaussian, wide, theta2)[0] == \
            pytest.approx(1.0, rel=1e-11)
        assert cost_monotone(shifted, gaussian, theta2)[0] == \
            pytest.approx(2.25, rel=1e-11)

    def test_deep_lower_tail_stays_finite(self, gaussian, theta2):
        # exp_power(1/2) has every moment; its cost needs levels below 1e-16
        ep = make_builtin("exp_power", p=0.5)
        v, exact = cost_monotone(ep, gaussian, theta2)
        assert exact and 100.0 < v < 105.0

    def test_slow_tail_still_finite(self, gaussian, mu1, theta2):
        # quantile gap grows like log near t -> 1: convergent, but the edge
        # windows shrink slowly; regression for the divergence-rule misfire
        v, exact = cost_monotone(gaussian, mu1, theta2)
        assert exact
        assert v == pytest.approx(0.2243397797807754, rel=1e-5)

    def test_heavy_tail_diverges(self, cauchy, mu1, theta2, alpha1):
        assert cost_monotone(cauchy, mu1, theta2)[0] == math.inf
        # linear growth against a 1/s quantile still diverges
        assert cost_monotone(cauchy, mu1, alpha1)[0] == math.inf

    def test_nonconvex_flagged_inexact(self, gaussian, mu1, alpha1):
        v, exact = cost_monotone(gaussian, mu1, alpha1)
        assert math.isfinite(v)
        assert not exact


class TestRelativeEntropy:
    def test_discrete_anchors(self):
        atoms = np.array([0.0, 1.0, 2.0])
        p = DiscreteMeasure(atoms, np.array([0.2, 0.5, 0.3]))
        q = DiscreteMeasure(atoms, np.array([0.3, 0.4, 0.3]))
        expected = sum(pi * math.log(pi / qi) for pi, qi in
                       zip([0.2, 0.5, 0.3], [0.3, 0.4, 0.3]))
        assert relative_entropy(p, q) == pytest.approx(expected, rel=1e-12)
        assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_discrete_singular(self):
        p = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        q = DiscreteMeasure(np.array([5.0, 6.0]), np.array([0.5, 0.5]))
        assert relative_entropy(p, q) == math.inf

    def test_continuous_gaussian_pair(self):
        # H(N(0, s^2) | N(0,1)) = -log s + (s^2 - 1)/2
        g1 = make_builtin("gaussian", sigma=1.0)
        gs = make_builtin("gaussian", sigma=0.6)
        want = -math.log(0.6) + (0.36 - 1.0) / 2.0
        assert relative_entropy(gs, g1) == pytest.approx(want, rel=1e-7)


    def test_continuous_wide_gaussian_is_finite(self, gaussian):
        # H(N(0, 4) | N(0, 1)) = -log 2 + 3/2.  The window integrals grow by
        # large but shrinking fractions while the bulk fills in; a rule
        # without the decay clause called this divergent.
        wide = make_builtin("gaussian", sigma=2.0)
        assert relative_entropy(wide, gaussian) == pytest.approx(
            1.5 - math.log(2.0), rel=1e-12)

    def test_continuous_table_against_quad(self, gaussian):
        # the quartic table against N(0, 1), oracle split at every abscissa
        xs = np.linspace(-4.0, 4.0, 129)
        quartic = make_from_table(xs, xs ** 4 / 4.0)

        def h(x):
            return quartic.density(x) * (gaussian.potential(x) + gaussian.logZ
                                         - quartic.potential(x) - quartic.logZ)

        pts = np.concatenate(([-40.0], xs, [40.0]))
        want = sum(integrate.quad(h, a, b, epsabs=0.0, epsrel=1e-12,
                                  limit=200)[0]
                   for a, b in zip(pts[:-1], pts[1:]))
        assert relative_entropy(quartic, gaussian) == pytest.approx(want,
                                                                    rel=1e-9)


class TestInfConvolution:
    def _random_phi(self, rng):
        grid = np.linspace(-4, 4, 33)
        return GridFunction(grid, rng.uniform(-2, 2, len(grid)))

    def test_exact_below_phi_and_lattice(self, alpha1):
        rng = np.random.default_rng(5)
        out = np.linspace(-5, 5, 41)
        for _ in range(5):
            phi = self._random_phi(rng)
            q_exact = inf_convolution_exact(phi, alpha1, out)
            q_lat = inf_convolution(phi, alpha1, out)
            assert np.all(q_exact <= phi(out) + 1e-12)
            # lattice minimum ranges over fewer candidates
            assert np.all(q_exact <= q_lat.values + 1e-12)

    def test_exact_against_brute_force(self, theta2):
        rng = np.random.default_rng(6)
        phi = self._random_phi(rng)
        out = np.linspace(-5, 5, 21)
        # candidate minimizers: a dense lattice, the corner knots, and the
        # stationary point x - s/2 of each linear segment (slope s) under
        # the quadratic ground cost; with those included the scan is exact
        slopes = np.concatenate([np.diff(phi.values) / np.diff(phi.grid),
                                 [0.0]])   # constant extensions
        for x in out:
            stationary = np.concatenate([x - slopes / 2.0, x + slopes / 2.0])
            cands = np.union1d(np.linspace(-9, 9, 4001),
                               np.union1d(phi.grid, stationary))
            brute = np.min(phi(cands) + theta2.fn(x - cands))
            got = inf_convolution_exact(phi, theta2, [x])[0]
            assert got == pytest.approx(brute, abs=1e-10)

    def test_zero_phi_fixed_point(self, alpha1):
        grid = np.linspace(-3, 3, 17)
        phi = GridFunction(grid, np.zeros(17))
        q = inf_convolution_exact(phi, alpha1, grid)
        np.testing.assert_allclose(q, 0.0, atol=1e-14)

    @pytest.mark.parametrize("query", [
        [0.0, 1.0, 0.5], [0.0, math.nan, 1.0], [0.0, 1.0, math.inf],
        [-math.inf, 0.0, 1.0]], ids=["decreasing", "nan", "inf", "-inf"])
    def test_engine_rejects_bad_queries(self, theta2, query):
        # a non-finite point made the engine drop the kinks and stationary
        # offsets of every other point: with +inf beside linspace(-4, 4, 9),
        # Q phi there moved by up to 0.01 for phi = 3 sin 2x under theta2
        grid = np.linspace(-3, 3, 17)
        with pytest.raises(ValueError, match="finite and nondecreasing"):
            ExactInfConvolution(query, grid, theta2)
        # repeated points are nondecreasing
        ExactInfConvolution([0.0, 0.5, 0.5, 1.0], grid, theta2)

    @pytest.mark.parametrize("cost", ["alpha1", "theta2"])
    def test_any_query_order_gives_the_sorted_values(self, request, cost):
        # the public function sorts its points for the engine and scatters
        # the values back, repeated points included
        alpha = request.getfixturevalue(cost)
        phi = self._random_phi(np.random.default_rng(8))
        xs = np.concatenate([np.linspace(-6, 6, 61), [0.25, 0.25, -1.5]])
        perm = np.random.default_rng(9).permutation(len(xs))
        srt = np.sort(xs, kind="stable")
        want = ExactInfConvolution(srt, phi.grid, alpha).q(phi.values)
        got = inf_convolution_exact(phi, alpha, xs[perm])
        np.testing.assert_array_equal(got, want[np.searchsorted(srt,
                                                                xs[perm])])


def _crossings(alpha, scale, pref, mag, reach):
    """Every offset ``d`` in ``[0, reach]`` with ``c'(d) = m`` for each ``m``
    in ``mag``, rising or falling: each sign change of ``c' - m`` on a
    20001-point grid solved by ``numerics.monotone_root`` to a collapsed
    bracket."""
    a = transport._ground(alpha, scale, pref)[0]

    def cp(d):
        return pref * a * np.asarray(alpha.deriv(a * d), dtype=float)

    grid = np.linspace(0.0, reach, 20001)
    gap = np.sign(cp(grid)[None, :] - mag[:, None])
    which, cell = np.nonzero(gap[:, :-1] != gap[:, 1:])
    rising = gap[which, cell + 1] > gap[which, cell]
    offs = np.empty(len(cell))
    for up, sgn in ((rising, 1.0), (~rising, -1.0)):
        offs[up] = numerics.monotone_root(lambda d: sgn * cp(d),
                                          sgn * mag[which[up]],
                                          grid[cell[up]], grid[cell[up] + 1])
    return offs


def _exact_q(alpha, scale, pref, knots, vals, xs, lattice=0):
    """Brute-force ``Q phi`` at ``xs``: the minimum of ``phi(y) + c(x - y)``
    over the knots, the offsets ``x - y`` zero and at the kinks, every
    crossing ``c'(d) = |s_j|`` of every segment slope (both signs) and,
    when ``lattice`` is set, that many equally spaced ``y``."""
    a, c = transport._ground(alpha, scale, pref)
    xs = np.asarray(xs, dtype=float)
    phi = GridFunction(knots, vals)
    # phi is constant beyond its knots, so some minimizer lies between the
    # knots and x
    reach = float(np.max(np.maximum(np.abs(xs - knots[0]),
                                    np.abs(xs - knots[-1]))))
    mag = np.unique(np.abs(np.diff(vals) / np.diff(knots)))
    # a zero slope's only stationary offset is zero
    cross = _crossings(alpha, scale, pref, mag[mag > 0.0], reach)
    offs = np.concatenate([[0.0], [k / a for k in alpha.kinks], cross])
    offs = np.concatenate([offs, -offs])
    ys = np.asarray(knots, dtype=float)
    if lattice:
        ys = np.union1d(ys, np.linspace(min(xs.min(), knots[0]),
                                        max(xs.max(), knots[-1]), lattice))
    out = np.empty(len(xs))
    for i in range(0, len(xs), 64):
        x = xs[i:i + 64, None]
        y = np.concatenate([np.broadcast_to(ys, (len(x), len(ys))),
                            x - offs[None, :]], axis=1)
        out[i:i + 64] = np.min(phi(y) + c(x - y), axis=1)
    return out


def _table_cost(fn):
    ts = np.linspace(0.0, 8.0, 33)
    return cost_from_table(ts, fn(ts))


_ENGINE_COSTS = [("alpha1", {}), ("theta_p", {"p": 2.0}),
                 ("alpha_p", {"p": 1.5})]
_ENGINE_SETTINGS = [(None, 1.0 / 36.0), (1.0, 10.0), (0.25, 0.5)]
_EXACT_COSTS = {
    "alpha1": lambda: builtin_cost("alpha1"),
    "theta2": lambda: builtin_cost("theta_p", p=2.0),
    "theta3": lambda: builtin_cost("theta_p", p=3.0),
    "alpha_p1.5": lambda: builtin_cost("alpha_p", p=1.5),
    "gamma0.5": lambda: builtin_cost("gamma", lam=0.5),
    "maurey": lambda: builtin_cost("maurey"),
    # the spliced table of test_verify: PCHIP of the quadratic-linear
    # profile with its exact PCHIP c'
    "spliced-table": lambda: _table_cost(
        lambda t: np.where(t <= 1.0, t * t, 2.0 * t - 1.0)),
    # c' = t + 0.9 + 0.9 cos 3t rises and falls
    "wavy-table": lambda: _table_cost(
        lambda t: t * t / 2.0 + 0.3 * np.sin(3.0 * t) + 0.9 * t),
}


@pytest.fixture(scope="module")
def dual_setup(mu1):
    """The dual check's knots and query nodes on the exponential law, with
    every seventh adversarial potential and three random walks."""
    knots, cands = verify._dual_family(mu1, 3, 0)
    quadr = verify._DualQuadrature(mu1, knots)
    return knots, quadr.query, [v for _, v in cands[::7] + cands[-3:]]


class TestScreenedEngine:
    @pytest.mark.parametrize("name,params", _ENGINE_COSTS)
    def test_knot_min_is_the_broadcast_min(self, dual_setup, name, params):
        knots, query, potentials = dual_setup
        alpha = builtin_cost(name, **params)
        for scale, pref in _ENGINE_SETTINGS:
            engine = ExactInfConvolution(query, knots, alpha, scale, pref)
            assert engine.knot_cost.shape == (len(knots), len(query))
            assert engine.knot_cost.flags.c_contiguous
            for vals in potentials:
                broadcast = np.min(vals[None, :] + engine.knot_cost.T, axis=1)
                np.testing.assert_array_equal(
                    engine.knot_min(vals),
                    np.minimum(broadcast, engine._cap(vals)))

    @pytest.mark.parametrize("name,params", _ENGINE_COSTS)
    @pytest.mark.parametrize("scale,pref", _ENGINE_SETTINGS)
    def test_restricted_pass_matches_dense(self, dual_setup, name, params,
                                           scale, pref):
        # at every query: the knots, zero, the kinks and every exact
        # stationary offset of every slope, both signs
        knots, query, potentials = dual_setup
        alpha = builtin_cost(name, **params)
        engine = ExactInfConvolution(query, knots, alpha, scale, pref)
        for vals in potentials:
            exact = _exact_q(alpha, scale, pref, knots, vals, query)
            np.testing.assert_allclose(engine.q(vals), exact, rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("name", _EXACT_COSTS)
    @pytest.mark.parametrize("scale,pref", _ENGINE_SETTINGS)
    def test_q_matches_the_brute_force(self, dual_setup, name, scale, pref):
        # every stationary point of a piecewise-monotone c', a table's
        # numeric c' included, plus a 4001-point lattice of y
        knots, query, potentials = dual_setup
        alpha = _EXACT_COSTS[name]()
        engine = ExactInfConvolution(query, knots, alpha, scale, pref)
        sub = np.append(np.arange(0, len(query), 97), len(query) - 1)
        for vals in potentials:
            exact = _exact_q(alpha, scale, pref, knots, vals, query[sub],
                             lattice=4001)
            err = np.abs(engine.q(vals)[sub] - exact)
            assert np.all(err <= 1e-12 * (1.0 + np.abs(exact)))

    def test_refute_worst_product_is_the_exact_one(self, mu1):
        # the spliced table refuted at prefactor 10 (seed 3): the reported
        # product must be the one of the brute-force Q phi at every node
        alpha = _EXACT_COSTS["spliced-table"]()
        rep = verify.dual_check_strong(mu1, alpha, scale=1.0, prefactor=10.0,
                                       trials=60, seed=3)
        quadr = verify._DualQuadrature(mu1, rep.worst_phi.grid)
        vals = rep.worst_phi.values
        qv = _exact_q(alpha, 1.0, 10.0, rep.worst_phi.grid, vals, quadr.query)
        phi = np.interp(quadr.query, rep.worst_phi.grid, vals)
        want = quadr.exp_integral(qv) * quadr.exp_integral(-phi)
        assert rep.worst_product == pytest.approx(want, rel=1e-9)
        assert rep.worst_product == pytest.approx(2085138.25, rel=1e-6)


def _lifted_alpha1():
    # c(0) = 1 > 0: the cap must sit above max phi + c(0), not max phi
    alpha1 = builtin_cost("alpha1")
    return dataclasses.replace(alpha1, name="alpha1+1",
                               fn=lambda t: alpha1.fn(t) + 1.0)


_BAND_COSTS = {
    "alpha1": lambda: builtin_cost("alpha1"),
    "alpha_p1.5": lambda: builtin_cost("alpha_p", p=1.5),
    "theta2": lambda: builtin_cost("theta_p", p=2.0),
    "maurey": lambda: builtin_cost("maurey"),
    "gamma0.5": lambda: builtin_cost("gamma", lam=0.5),
    "conj-theta2": lambda: conjugate(builtin_cost("theta_p", p=2.0)),
    "spliced-table": _EXACT_COSTS["spliced-table"],
    "alpha1+1": _lifted_alpha1,
}
_BAND_SETTINGS = [(1.0, 10.0), (1.0, 1.0), (0.25, 1.0 / 72.0),
                  (None, 1.0 / 36.0)]


@pytest.fixture(scope="module")
def band_setups():
    """Per law, the dual check's knots, every eighth quadrature node between
    the two window edges (sorted, as in the check), and every fifth
    potential of a 20-walk family."""
    out = {}
    for law in ("exponential", "gaussian", "cauchy"):
        knots, cands = verify._dual_family(make_builtin(law), 20, 1)
        quadr = verify._DualQuadrature(make_builtin(law), knots)
        q = quadr.query
        query = np.concatenate([q[:1], q[1:-1:8], q[-1:]])
        out[law] = knots, query, [v for _, v in cands[::5]]
    return out


class TestBandedKnotMin:
    @pytest.mark.parametrize("law", ["exponential", "gaussian", "cauchy"])
    @pytest.mark.parametrize("name", list(_BAND_COSTS))
    def test_banded_pass_refines_to_the_all_knot_result(self, band_setups,
                                                        law, name):
        # the capped, banded knot minimum gives the dual check's screen
        # value and, through refine, Q phi bit for bit
        knots, query, potentials = band_setups[law]
        alpha = _BAND_COSTS[name]()
        if name == "conj-theta2":
            # its c' is a numeric derivative of a golden-section search,
            # so refine takes about 0.1 s per potential
            potentials = potentials[::6]
        perm = np.random.default_rng(5).permutation(len(query))
        for scale, pref in _BAND_SETTINGS:
            engine = ExactInfConvolution(query, knots, alpha, scale, pref)
            top_c = float(transport._ground(alpha, scale, pref)[1](0.0))
            visited = 0
            for vals in potentials:
                full = np.min(vals[None, :] + engine.knot_cost.T, axis=1)
                cap = engine._cap(vals)
                banded = engine.knot_min(vals)
                top = vals.max() + top_c
                np.testing.assert_array_equal(np.minimum(banded, top),
                                              np.minimum(full, top))
                oracle = engine.refine(vals, full)
                np.testing.assert_array_equal(engine.refine(vals, banded),
                                              oracle)
                visited += sum(j - i for i, j in zip(*engine._bands(vals,
                                                                   cap)))
            if (scale, pref) == (1.0, 10.0):
                # prefactor 10 leaves each knot a narrow band
                assert visited < 0.5 * len(potentials) * len(knots) * len(query)
            # unsorted queries through the public function: sorted, passed
            # to the engine and scattered back, still the same values
            phi = GridFunction(knots, potentials[-1])
            np.testing.assert_array_equal(
                inf_convolution_exact(phi, alpha, query[perm], scale, pref),
                oracle[perm])

    def test_band_width_follows_the_room_under_the_cap(self, band_setups):
        # alpha1 at prefactor 10: a knot at max phi has room c(0) plus the
        # cap's margin, about 6e-9, so its band is about 2.4e-5 wide; a knot
        # 5 below has room 5, so its band reaches sqrt(1/2); the distance
        # grid overshoots by at most 0.7 %
        knots, query, _ = band_setups["exponential"]
        engine = ExactInfConvolution(query, knots, builtin_cost("alpha1"),
                                     1.0, 10.0)
        vals = np.zeros(len(knots))
        vals[0] = -5.0
        lo, hi = engine._bands(vals, engine._cap(vals))
        assert np.all(np.abs(query[lo[1]:hi[1]] - knots[1]) <= 3e-5)
        near = np.abs(query - knots[0]) <= math.sqrt(0.5)
        assert lo[0] <= np.flatnonzero(near)[0]
        assert hi[0] - 1 >= np.flatnonzero(near)[-1]
        assert np.all(np.abs(query[lo[0]:hi[0]] - knots[0])
                      <= 1.01 * math.sqrt(0.5))


class TestWeakDuality:
    def test_dual_never_exceeds_lp(self, alpha1, theta2):
        rng = np.random.default_rng(21)
        for cost in (alpha1, theta2):
            for _ in range(5):
                nu, mu = _random_discrete(rng, 9), _random_discrete(rng, 7)
                span = np.linspace(min(nu.atoms.min(), mu.atoms.min()) - 1,
                                   max(nu.atoms.max(), mu.atoms.max()) + 1, 25)
                phi = GridFunction(span, rng.uniform(-1, 1, len(span)))
                lower = dual_lower_bound(nu, mu, cost, phi)
                vl, _ = cost_lp(nu, mu, cost_matrix(nu, mu, cost))
                assert lower <= vl + 1e-9

    def test_dual_lower_bound_is_the_inline_formula(self, alpha1, theta2):
        # the bound is the broadcast minimum over union(phi.grid, mu.atoms)
        rng = np.random.default_rng(21)
        for cost in (alpha1, theta2):
            for _ in range(5):
                nu, mu = _random_discrete(rng, 9), _random_discrete(rng, 7)
                span = np.linspace(min(nu.atoms.min(), mu.atoms.min()) - 1,
                                   max(nu.atoms.max(), mu.atoms.max()) + 1, 25)
                phi = GridFunction(span, rng.uniform(-1, 1, len(span)))
                _, c = transport._ground(cost, None, 1.0)
                cands = np.union1d(phi.grid, mu.atoms)
                q = np.min(phi(cands)[None, :]
                           + c(nu.atoms[:, None] - cands[None, :]), axis=1)
                inline = float(np.sum(nu.weights * q)
                               - np.sum(mu.weights * phi(mu.atoms)))
                assert dual_lower_bound(nu, mu, cost, phi) == inline
