"""Transport costs: monotone coupling, LP oracle, entropy, inf-convolution."""

import math

import numpy as np
import pytest
from scipy import integrate

from tcilab import transport, verify
from tcilab.costs import builtin_cost, cost_from_table
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


def _dense_q(engine, vals):
    """The exact engine without restriction: the knot minimum, then every
    stationary offset of every segment slope, zero and the kink offsets,
    each at every query point with both signs."""
    best = np.min(vals[None, :] + engine.knot_cost.T, axis=1)
    slopes = np.diff(vals) / np.diff(engine.knots)
    mags = np.unique(np.abs(np.concatenate(([0.0], slopes))))
    offs = np.unique(np.concatenate(
        [np.interp(mags, cp, d)
         for cp, d in engine._branches + engine._dense]
        + [engine._fixed]))
    coffs = np.asarray(engine._c(offs), dtype=float)
    for sign in (1.0, -1.0):
        shifted = engine.query[:, None] - sign * offs[None, :]
        cand = np.interp(shifted, engine.knots, vals) + coffs[None, :]
        best = np.minimum(best, cand.min(axis=1))
    return best


_ENGINE_COSTS = [("alpha1", {}), ("theta_p", {"p": 2.0}),
                 ("alpha_p", {"p": 1.5})]
_ENGINE_SETTINGS = [(None, 1.0 / 36.0), (1.0, 10.0), (0.25, 0.5)]


@pytest.fixture(scope="module")
def dual_setup(mu1):
    """The dual check's knots and query nodes on the exponential law, with
    every seventh adversarial potential and three random walks."""
    knots, cands = verify._dual_family(mu1, 3, 0)
    quadr = verify._DualQuadrature(mu1, knots)
    query = np.concatenate([quadr.nodes, [quadr.lo, quadr.hi]])
    return knots, query, [v for _, v in cands[::7] + cands[-3:]]


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
                np.testing.assert_array_equal(engine.knot_min(vals), broadcast)

    def test_small_engine_knot_min_is_the_row_passes(self, dual_setup):
        # a matrix of at most 2**16 entries takes its knot minimum in one
        # broadcast pass; it must be the row passes' result bit for bit
        knots, query, potentials = dual_setup
        alpha = builtin_cost("alpha1")
        for n in (5, 1024):
            engine = ExactInfConvolution(query[::len(query) // n][:n], knots,
                                         alpha, 0.25, 1.0 / 36.0)
            assert engine.knot_cost.size <= 2 ** 16
            for vals in potentials:
                *_, rows = engine.upper_bounds(vals)
                np.testing.assert_array_equal(engine.knot_min(vals), rows)

    @pytest.mark.parametrize("name,params", _ENGINE_COSTS)
    @pytest.mark.parametrize("scale,pref", _ENGINE_SETTINGS)
    def test_restricted_pass_matches_dense(self, dual_setup, name, params,
                                           scale, pref):
        knots, query, potentials = dual_setup
        alpha = builtin_cost(name, **params)
        engine = ExactInfConvolution(query, knots, alpha, scale, pref)
        _, c = transport._ground(alpha, scale, pref)
        sub = np.arange(0, len(query), 97)
        lattice = np.linspace(query.min(), query.max(), 4001)
        for vals in potentials:
            got, dense = engine.q(vals), _dense_q(engine, vals)
            # fewer candidates than the dense pass, never more
            assert np.all(got >= dense)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)
            phi = GridFunction(knots, vals)
            slopes = np.diff(vals) / np.diff(knots)
            branches = engine._branches + engine._dense
            offs = np.concatenate([np.interp(np.abs(slopes), cp, d)
                                   for cp, d in branches])
            signs = np.tile(np.sign(slopes), len(branches))
            for i in sub:
                x = query[i]
                ys = np.concatenate([lattice, knots, x - signs * offs])
                brute = np.min(phi(ys) + c(x - ys))
                assert got[i] >= brute - 1e-12
                assert got[i] <= brute + 1e-12

    def test_non_monotone_derivative_keeps_the_dense_pass(self, dual_setup):
        # a PCHIP table's numeric c' dips, so a stationary offset need not
        # land in its own segment: those branches keep the all-query,
        # both-sign pass and the result is the dense enumeration's exactly
        knots, query, potentials = dual_setup
        ts = np.linspace(0.0, 8.0, 33)
        table = cost_from_table(ts, np.where(ts <= 1.0, ts * ts,
                                             2.0 * ts - 1.0))
        for scale, pref in ((0.25, 1.0 / 36.0), (1.0, 10.0)):
            engine = ExactInfConvolution(query, knots, table, scale, pref)
            assert engine._dense
            for vals in potentials:
                np.testing.assert_array_equal(engine.q(vals),
                                              _dense_q(engine, vals))


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
