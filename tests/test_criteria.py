"""Tests for the decision criteria: Lipschitz/Muckenhoupt checks, the
moment-constant pipeline, sufficient smooth conditions, and the modified
log-Sobolev profile."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from tcilab import costs, criteria, measures, numerics, verify
from tcilab.criteria import (
    K_moment,
    _K_scan_sup,
    _decaying_tail_integral,
    _regular_class_check,
    assemble_rate,
    decide_strong_tci_lip,
    decide_strong_tci_logconcave,
    int_equiv_ratio,
    lipschitz_check,
    lsi_tilde_potential,
    muckenhoupt,
    omega_bounds,
    rearrangement,
    skewed_cost,
    suff_condition,
)
from tcilab.verdict import FAILS, Verdict


class TestRearrangement:
    def test_identity_for_reference_law(self, mu1):
        rm = rearrangement(mu1)
        xs = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(rm.forward(xs), xs, atol=1e-9)
        np.testing.assert_allclose(rm.inverse(xs), xs, atol=1e-9)

    def test_forward_inverse_roundtrip(self, gaussian):
        rm = rearrangement(gaussian)
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(rm.inverse(rm.forward(xs)), xs, atol=1e-8)

    def test_forward_matches_quantile_composition(self, gaussian):
        # T = G^{-1} o F_ref: push the double exponential onto the target
        rm = rearrangement(gaussian)
        xs = np.array([-3.0, -0.7, 0.0, 1.1, 4.0])
        expect = gaussian.quantile(np.array([measures.make_builtin("exponential").cdf(x) for x in xs]))
        np.testing.assert_allclose(rm.forward(xs), expect, rtol=1e-9)


class TestOmegaBounds:
    def test_reference_law_moduli_are_linear(self, mu1):
        rm = rearrangement(mu1)
        h = np.array([0.5, 1.0, 2.0, 4.0])
        op, om, lower = omega_bounds(rm, h)
        np.testing.assert_allclose(op, h, atol=1e-9)
        np.testing.assert_allclose(om, h, atol=1e-9)
        np.testing.assert_allclose(lower, h / 2.0, atol=1e-9)

    def test_moduli_monotone_and_ordered(self, gaussian):
        rm = rearrangement(gaussian)
        h = np.linspace(0.25, 8.0, 32)
        op, om, lower = omega_bounds(rm, h)
        assert np.all(np.diff(op) > 0)
        assert np.all(np.diff(om) > 0)
        assert np.all(lower <= op + 1e-12)
        assert np.all(lower <= om + 1e-12)

    def test_symmetric_law_has_equal_moduli(self):
        # both tails are refined between the neighbours of their grid
        # minimum, so a symmetric law gives the same curve on each side
        rm = rearrangement(measures.make_builtin("exp_power", p=1.5))
        op, om, _ = omega_bounds(rm, np.geomspace(0.01, 20.0, 64))
        np.testing.assert_allclose(om, op, rtol=1e-12)
        assert np.isfinite(op[:58]).all()

    def test_cauchy_has_equal_moduli(self, cauchy):
        # the left tail reads cdf, the right sf; a cancelling cdf gave
        # omega_minus = 0 for every h
        rm = rearrangement(cauchy)
        op, om, _ = omega_bounds(rm, np.geomspace(0.01, 20.0, 64))
        assert (op > 0.0).all()
        np.testing.assert_allclose(om, op, rtol=1e-12)

    @pytest.mark.parametrize("h", [[4.0, 1.0], [1.0, math.nan]])
    def test_bad_h_grid_rejected(self, gaussian, h):
        rm = rearrangement(gaussian)
        with pytest.raises(ValueError, match="h_grid"):
            omega_bounds(rm, h)
        assert omega_bounds(rm, [1.0])[0][0] == pytest.approx(1.148, abs=1e-3)


class TestLipschitz:
    def test_reference_law(self, mu1):
        v = lipschitz_check(mu1)
        assert v.status == "holds"
        assert v.constants["A_plus"] == pytest.approx(1.0, abs=1e-6)
        assert v.constants["A_minus"] == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_closed_form(self, gaussian):
        # sup of the hazard-ratio transform for the standard normal is
        # attained at the origin with value sqrt(pi/2)
        v = lipschitz_check(gaussian)
        assert v.status == "holds"
        assert v.constants["A_plus"] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)
        assert v.constants["lipschitz_bound"] == pytest.approx(1.2533141373155003, rel=1e-9)

    def test_heavy_tail_fails(self, cauchy):
        v = lipschitz_check(cauchy)
        assert v.status == "fails"
        assert "growth_probes_plus" in v.diagnostics


class TestMuckenhoupt:
    def test_reference_law(self, mu1):
        dp, dm = muckenhoupt(mu1)
        assert dp == pytest.approx(1.0, abs=1e-4)
        assert dm == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_frozen_value(self, gaussian):
        dp, dm = muckenhoupt(gaussian)
        assert dp == pytest.approx(0.4788128950377245, rel=1e-8)
        assert dm == pytest.approx(dp, rel=1e-8)

    def test_gaussian_against_direct_scan(self, gaussian):
        # independent evaluation of sup_x mu([x, inf)) * int_median^x 1/density,
        # over a coarse grid; the sup must not exceed the reported constant
        def product(x):
            up, _ = integrate.quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
            down, _ = integrate.quad(lambda t: math.exp(t * t / 2) * math.sqrt(2 * math.pi), 0.0, x)
            return up * down

        dp, _ = muckenhoupt(gaussian)
        coarse = max(product(x) for x in np.linspace(0.05, 4.0, 25))
        assert coarse <= dp * (1 + 1e-6)
        assert coarse == pytest.approx(dp, rel=1e-2)

    def test_heavy_tail_is_infinite(self, cauchy):
        dp, dm = muckenhoupt(cauchy)
        assert dp == math.inf and dm == math.inf

    def test_exponential_closed_form(self, mu1):
        # sup_x (1 - e^{-x}) on the scan grid ends where sf = 1e-10; the
        # probes past it must stop at the overflowing weight, not diverge
        dp, dm = muckenhoupt(mu1)
        assert dp == pytest.approx(1.0 - 2e-10, rel=1e-12)
        assert dm == pytest.approx(1.0 - 2e-10, rel=1e-12)

    def test_one_sided_exponential_left_closed_form(self):
        # (1 - 1/u)(2 - u) for u = e^x in (1, 2) peaks at u = sqrt 2
        _, dm = muckenhoupt(measures.make_builtin("one_sided_exp", rate=1.0))
        assert dm == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)

    def test_quartic_table(self):
        dp, dm = muckenhoupt(_quartic_table())
        assert dp == pytest.approx(0.4186467504364798, rel=1e-9)
        assert dm == pytest.approx(0.41864675043648214, rel=1e-9)


def _muckenhoupt_by_count(mu):
    """:func:`muckenhoupt` with each point's cell found by an O(n^2) count
    of the grid distances, and both tails evaluated at every point."""
    m = mu.median
    grid = criteria._scan_grids(mu)
    dist = np.abs(grid - m)
    plus = np.array([True, False])

    def weight(a, b):
        lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            own, val = numerics.gauss_kronrod_cells(
                lambda x, _own: 1.0 / mu.density(x), (lo, hi),
                criteria._CELL_EPSABS, criteria._CELL_EPSREL,
                owner=np.arange(lo.size))
            total = np.bincount(own, weights=val, minlength=lo.size)
        return total.reshape(np.shape(a))

    cum = np.concatenate((np.zeros((1, 2)),
                          np.cumsum(weight(grid[:-1], grid[1:]), axis=0)))

    def product(x):
        behind = (dist <= np.abs(x - m)[:, None, :]).sum(axis=1) - 1
        node = np.take_along_axis(grid, behind, axis=0)
        c = np.take_along_axis(cum, behind, axis=0) + weight(node, x)
        with np.errstate(invalid="ignore"):
            tail = np.where(plus, mu.sf(x), mu.cdf(x))
            return np.where(np.isfinite(c), tail * c, np.nan)

    sup, _, diverged, _ = numerics.sup_on_grid(product, grid, tol=1e-9)
    d_plus, d_minus = np.where(diverged, math.inf, sup)
    return float(d_plus), float(d_minus)


_MUCKENHOUPT_LAWS = {
    "exponential": lambda: measures.make_builtin("exponential"),
    "gaussian": lambda: measures.make_builtin("gaussian", sigma=1.0),
    "exp_power p=1.5": lambda: measures.make_builtin("exp_power", p=1.5),
    "one_sided_exp": lambda: measures.make_builtin("one_sided_exp", rate=1.0),
    "cauchy": lambda: measures.make_builtin("cauchy"),
    "quartic table": lambda: _quartic_table(),
}


@pytest.mark.parametrize("law", sorted(_MUCKENHOUPT_LAWS))
def test_muckenhoupt_matches_the_quadratic_cell_count(law):
    # the binary search finds the same cell as counting every grid distance
    mu = _MUCKENHOUPT_LAWS[law]()
    got = [float.hex(d) for d in muckenhoupt(mu)]
    assert got == [float.hex(d) for d in _muckenhoupt_by_count(mu)]
    if law == "cauchy":
        assert got == [float.hex(math.inf)] * 2


@pytest.mark.parametrize("law", ["exponential", "gaussian", "cauchy",
                                 "quartic table"])
def test_tail_evaluates_each_side_on_its_own_points(law):
    mu = _MUCKENHOUPT_LAWS[law]()
    seen = {"sf": 0, "cdf": 0}

    def counted(name, fn):
        def wrapper(x):
            seen[name] += np.size(x)
            return fn(x)
        return wrapper

    x = mu.median + np.random.default_rng(3).normal(0.0, 3.0, size=(7, 6))
    plus = np.array([True, False, False, True, True, False])
    sf, cdf = mu.sf(x), mu.cdf(x)
    mu.sf, mu.cdf = counted("sf", mu.sf), counted("cdf", mu.cdf)
    # per column: each function sees its own three columns only
    assert criteria._tail(mu, x, plus).tobytes() == \
        np.where(plus, sf, cdf).tobytes()
    assert seen == {"sf": 21, "cdf": 21}
    # a scalar side calls one function on every point
    assert criteria._tail(mu, x, True).tobytes() == sf.tobytes()
    assert criteria._tail(mu, x, False).tobytes() == cdf.tobytes()
    assert seen == {"sf": 21 + x.size, "cdf": 21 + x.size}


def _omega_by_every_column(mu, h):
    """:func:`omega_bounds` with one column for each of plus and minus at
    every h and every h/2, repeats included, and both tails evaluated at
    every point of every column."""
    hh = np.concatenate((h, h, h / 2.0, h / 2.0))
    plus = np.tile(np.repeat(criteria._PLUS, len(h)), 2)
    shift = np.where(plus, hh, -hh)

    def neg_omega(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(criteria._tail(mu, x + shift, plus)
                       / criteria._tail(mu, x, plus))
        return np.where(np.isnan(v), -np.inf, v)

    grid = criteria._scan_grids(mu)[:, np.where(plus, 0, 1)]
    sup, _, _, _ = numerics.sup_on_grid(neg_omega, grid, tol=1e-10)
    w = np.where(hh > 0, np.maximum(-sup, 0.0), 0.0).reshape(4, len(h))
    w = np.maximum.accumulate(w, axis=1)
    return w[0], w[1], np.minimum(w[2], w[3])


_OMEGA_GRIDS = {
    "linspace": np.linspace(0.25, 8.0, 32),
    "geomspace": np.geomspace(0.01, 20.0, 64),
    "repeated h": np.array([0.25, 0.5, 1.0, 1.0, 1.5, 3.0, 3.0, 6.0]),
}


@pytest.mark.parametrize("grid", sorted(_OMEGA_GRIDS))
@pytest.mark.parametrize("law", ["exponential", "cauchy", "gaussian 1e3",
                                 "exp_power p=1.5", "quartic table"])
def test_omega_bounds_match_every_column_scan(law, grid):
    # one column per distinct shift and side gives the arrays of the scan
    # that repeats every h/2 that is also an h
    mu = (measures.make_builtin("gaussian", sigma=1e3)
          if law == "gaussian 1e3" else _MUCKENHOUPT_LAWS[law]())
    h = _OMEGA_GRIDS[grid]
    if grid == "geomspace":
        assert not np.isin(h / 2.0, h).any()
    got = omega_bounds(rearrangement(mu), h)
    for a, b in zip(got, _omega_by_every_column(mu, h)):
        assert np.array_equal(a, b)


class TestMomentConstant:
    def test_reference_law_half(self, mu1, alpha1):
        K = K_moment(mu1, alpha1, 0.5)
        assert K == pytest.approx(1.8119178961684739, rel=1e-10)
        # oracle: int_0^inf e^{alpha1(z/2) - z} dz (conditional right tail)
        direct, _ = integrate.quad(
            lambda z: math.exp(min(abs(z / 2), (z / 2) ** 2) - z), 0, np.inf
        )
        assert K == pytest.approx(direct, rel=1e-8)

    def test_reference_law_critical_b_diverges(self, mu1, alpha1):
        # at b = 1 the linear branch of the cost exactly cancels the tail
        assert K_moment(mu1, alpha1, 1.0) == math.inf

    def test_heavy_tail_diverges_for_all_b(self, cauchy, alpha1):
        for b in (1.0, 0.5, 0.25, 2.0 ** -5):
            assert K_moment(cauchy, alpha1, b) == math.inf


def _alpha1_closed_form(b):
    """``int_0^inf e^{alpha1(b z) - z} dz`` for 0 < b < 1: a Gaussian piece
    up to the kink ``z = 1/b`` (via erfi) plus the linear tail."""
    c = 1.0 / (2.0 * b * b)
    body = (math.exp(-c / 2.0) * math.sqrt(math.pi) / (2.0 * b)
            * (special.erfi(b * (1.0 / b - c)) - special.erfi(-b * c)))
    return body + math.exp(1.0 - 1.0 / b) / (1.0 - b)


class TestMomentClosedForm:
    @pytest.mark.parametrize("b,closed", [(0.25, 1.1645867087269364),
                                          (0.5, 1.8119178961684215)])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_reference_law(self, mu1, alpha1, b, closed, side):
        # the conditional residual law of the reference law is Exp(1) at
        # every anchor, so the sup is the closed form itself
        assert closed == pytest.approx(_alpha1_closed_form(b), rel=1e-14)
        assert K_moment(mu1, alpha1, b, side) == pytest.approx(closed,
                                                               rel=1e-12)

    @pytest.mark.parametrize("law,cost,b", [
        ("cauchy", "alpha1", 1.0), ("cauchy", "alpha1", 0.5),
        ("cauchy", "alpha1", 0.25), ("cauchy", "alpha1", 2.0 ** -5),
        ("exponential", "alpha1", 1.0), ("gaussian", "theta_p", 1.0)])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_divergent_moments_are_infinite(self, law, cost, b, side):
        alpha = costs.builtin_cost(cost, **({"p": 2} if cost == "theta_p"
                                            else {}))
        assert K_moment(measures.make_builtin(law), alpha, b, side) == math.inf

    @pytest.mark.parametrize("b", [0.25, 0.5])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_reference_law_to_the_last_bits(self, mu1, alpha1, b, side):
        # the residual law is Exp(1) at every anchor, so the ray from the
        # median is the whole sup
        assert K_moment(mu1, alpha1, b, side) == pytest.approx(
            _alpha1_closed_form(b), rel=1e-15)


def _quartic_table():
    xs = np.linspace(-4.0, 4.0, 129)
    return measures.make_from_table(xs, xs ** 4 / 4.0)


def _huber_table():
    # asymmetric and not log-concave: Huber + 0.3 sin x
    xs = np.linspace(-4.0, 4.0, 129)
    return measures.make_from_table(
        xs, np.where(np.abs(xs) <= 1.0, 0.5 * xs * xs, np.abs(xs) - 0.5)
        + 0.3 * np.sin(xs))


class TestMedianRule:
    """``K_moment`` takes the ray from the median on laws that pass
    ``is_log_concave``; the scan-sup over anchors is the reference."""

    LOG_CONCAVE = {
        "exponential": lambda: measures.make_builtin("exponential"),
        "gaussian-1": lambda: measures.make_builtin("gaussian", sigma=1.0),
        "gaussian-10": lambda: measures.make_builtin("gaussian", sigma=10.0),
        "exp_power-1.25": lambda: measures.make_builtin("exp_power", p=1.25),
        "exp_power-1.5": lambda: measures.make_builtin("exp_power", p=1.5),
        "exp_power-3": lambda: measures.make_builtin("exp_power", p=3.0),
        "one_sided_exp": lambda: measures.make_builtin("one_sided_exp"),
        "quartic_table": _quartic_table,
    }
    OTHERS = {"cauchy": lambda: measures.make_builtin("cauchy"),
              "huber_table": _huber_table}
    COSTS = (("alpha1", {}), ("theta_p", {"p": 2}), ("alpha_p", {"p": 1.5}))
    BS = (1.0, 0.5, 0.25, 1.0 / 16.0)

    def _pairs(self, mu):
        for name, params in self.COSTS:
            alpha = costs.builtin_cost(name, **params)
            for b in self.BS:
                for side in ("plus", "minus"):
                    yield (K_moment(mu, alpha, b, side),
                           _K_scan_sup(mu, alpha, b, side))

    @pytest.mark.parametrize("law", sorted(LOG_CONCAVE))
    def test_median_ray_is_the_scan_sup(self, law):
        mu = self.LOG_CONCAVE[law]()
        assert measures.is_log_concave(mu).holds
        for got, want in self._pairs(mu):
            if math.isinf(want):
                assert got == math.inf
            else:
                assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("law", sorted(OTHERS))
    def test_other_laws_keep_the_scan_sup(self, law):
        mu = self.OTHERS[law]()
        assert not measures.is_log_concave(mu).holds
        for got, want in self._pairs(mu):
            assert got == want

    def test_left_side_reads_the_cdf(self, alpha1):
        # the density rises on the left through a plateau on [-3, -1]: the
        # hazard density/sf is nondecreasing but density/cdf is not, so the
        # law is not log-concave, and on the minus side the residual at -1
        # is larger than at the median
        def shoulder(x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= 0.0, 0.5 * x * x, np.where(
                x >= -1.0, 2.0 * x * x,
                np.where(x >= -3.0, 2.0, 2.0 + 0.5 * (x + 3.0) ** 2)))

        mu = measures.make_from_potential(shoulder,
                                          kink_points=(-3.0, -1.0, 0.0))
        lc = measures.is_log_concave(mu)
        assert lc.status == "fails"
        assert "first_violation_x" not in lc.diagnostics["plus"]
        assert lc.diagnostics["minus"]["first_violation_x"] < 0.0
        assert decide_strong_tci_logconcave(mu, alpha1).status == \
            "inconclusive"
        at_median = criteria._residual_moments(mu, alpha1, 0.5, False)(
            np.array([mu.median]))[0]
        K = K_moment(mu, alpha1, 0.5, "minus")
        assert K == _K_scan_sup(mu, alpha1, 0.5, "minus")
        assert K > 1.1 * at_median

    def test_hazard_drop_past_the_log_concavity_grid(self, alpha1):
        # Laplace up to |x| = 30, slope 0.6 beyond: the hazard falls toward
        # 0.6, by more than the shape test's tolerance from |x| = 15 on; the
        # scan-sup reaches anchors past the 1 - 1e-10 quantile (22.3)
        # through its growth probes, and the rays from them gain on the
        # median's
        kinked = measures.make_from_potential(
            lambda x: np.where(np.abs(x) < 30.0, np.abs(x),
                               30.0 + 0.6 * (np.abs(x) - 30.0)),
            kink_points=(-30.0, 30.0))
        assert not measures.is_log_concave(kinked).holds
        assert decide_strong_tci_logconcave(kinked, alpha1).status == \
            "inconclusive"
        for side in ("plus", "minus"):
            assert not measures._hazard_side(kinked, side == "plus").holds
            at_median = criteria._residual_moments(kinked, alpha1, 0.5,
                                                   side == "plus")(
                np.array([kinked.median]))[0]
            K = K_moment(kinked, alpha1, 0.5, side)
            assert K == _K_scan_sup(kinked, alpha1, 0.5, side)
            assert K > 1.05 * at_median

    @pytest.mark.parametrize("law,calls", [("exponential", 3),
                                           ("cauchy", 21)])
    def test_decision_integrates_one_ray_per_moment(self, monkeypatch,
                                                    alpha1, law, calls):
        # work count, no timing: exponential diverges at b = 1 and stops at
        # b = 1/2 (plus, then minus); cauchy diverges on the plus side at
        # all 21 steps of the b-scan
        anchors = []
        engine = criteria._decaying_tail_integral

        def counted(log_parts, xs, *args, **kwargs):
            anchors.append(np.size(xs))
            return engine(log_parts, xs, *args, **kwargs)

        monkeypatch.setattr(criteria, "_decaying_tail_integral", counted)
        decide_strong_tci_lip(measures.make_builtin(law), alpha1)
        assert anchors == [1] * calls

    @pytest.mark.parametrize("sigma,b,a", [
        (1e3, 0.03125, 3.195463830027541e-05),
        (1e6, 3.0517578125e-05, 3.271929659946836e-08)])
    def test_wide_gaussian_general_route_is_pinned(self, alpha1, sigma, b,
                                                   a):
        v = decide_strong_tci_lip(
            measures.make_builtin("gaussian", sigma=sigma), alpha1)
        assert v.status == "holds"
        assert (v.constants["b"], v.constants["a"]) == (b, a)


_ORACLE_CASES = {
    "exponential-alpha1": (lambda: measures.make_builtin("exponential"),
                           lambda: costs.builtin_cost("alpha1"), 0.5),
    "gaussian-theta2": (lambda: measures.make_builtin("gaussian"),
                        lambda: costs.builtin_cost("theta_p", p=2), 0.5),
    "exp_power1.5-alpha1": (lambda: measures.make_builtin("exp_power", p=1.5),
                            lambda: costs.builtin_cost("alpha1"), 1.0),
    "quartic_table-alpha1": (_quartic_table,
                             lambda: costs.builtin_cost("alpha1"), 1.0),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_ray_engine_matches_adaptive_quad(case, side):
    """Per-anchor residual moments of the vectorized engine against scipy's
    adaptive quadrature, split at every kink and doubling point."""
    make_mu, make_alpha, b = _ORACLE_CASES[case]
    mu, alpha = make_mu(), make_alpha()
    sgn = 1.0 if side == "plus" else -1.0
    levels = np.array([0.5, 0.2, 1e-2, 1e-4, 1e-7])
    # the anchors' conditioning masses are the levels themselves
    x0 = mu.isf(levels) if side == "plus" else mu.quantile(levels)
    kinks = [k / b for k in alpha.kinks if k > 0]
    got = _decaying_tail_integral(
        lambda i, z: (alpha.fn(b * z), mu.log_density(x0[i] + sgn * z)),
        x0, kinks, mu.kink_points, sgn, np.log(levels))

    for x, w, val in zip(x0, levels, got):
        def f(z):
            return math.exp(float(alpha.fn(b * z))
                            + float(mu.log_density(x + sgn * z)) - math.log(w))
        cuts = sorted({0.0} | set(kinks) | {2.0 ** k for k in range(12)}
                      | {sgn * (p - x) for p in mu.kink_points
                         if sgn * (p - x) > 0})
        pieces = list(zip(cuts, cuts[1:])) + [(cuts[-1], np.inf)]
        want = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12,
                                  limit=200)[0] for lo, hi in pieces)
        assert val == pytest.approx(want, rel=1e-9)


class TestAssembleRate:
    def test_unit_case_exact(self, alpha1):
        # a0 = 1, b = 2, K = e: third term is 1 / ((2/2) * inv(1)) = 1
        assert assemble_rate(1.0, 2.0, math.e, alpha1) == 1.0

    def test_small_K_drops_moment_term(self, alpha1):
        # K <= 1 makes log K <= 0; only min(a0, b/2) remains
        assert assemble_rate(0.7, 2.0, 0.5, alpha1) == 0.7
        assert assemble_rate(5.0, 2.0, 0.5, alpha1) == 1.0

    def test_never_exceeds_leading_terms(self, alpha1):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a0 = float(rng.uniform(0.05, 4.0))
            b = float(rng.uniform(0.05, 4.0))
            K = float(rng.uniform(0.2, 50.0))
            a = assemble_rate(a0, b, K, alpha1)
            assert a <= min(a0, b / 2.0) + 1e-12
            assert a > 0


class TestDecideLip:
    def test_reference_law(self, mu1, alpha1):
        v = decide_strong_tci_lip(mu1, alpha1)
        assert v.status == "holds"
        c = v.constants
        assert c["a0"] == pytest.approx(1.0, abs=1e-9)
        assert c["b"] == 0.5
        assert c["K_plus"] == pytest.approx(1.8119178961684739, rel=1e-9)
        assert c["a"] == pytest.approx(0.25, abs=1e-12)
        assert c["scale"] == pytest.approx(c["a"] / 72.0, rel=1e-12)

    def test_gaussian_quadratic(self, gaussian, theta2):
        v = decide_strong_tci_lip(gaussian, theta2)
        assert v.status == "holds"
        c = v.constants
        assert c["a0"] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-9)
        assert c["K_plus"] == pytest.approx(math.sqrt(2), rel=1e-9)
        assert c["a"] == pytest.approx(0.25, abs=1e-12)

    def test_heavy_tail_fails_with_scan(self, cauchy, alpha1):
        v = decide_strong_tci_lip(cauchy, alpha1)
        assert v.status == "fails"
        assert "b_scan" in v.diagnostics

    def test_finite_moments_without_lipschitz_are_inconclusive(self, mu1,
                                                              alpha1):
        lip = Verdict(FAILS, {}, {"reason": "forced"})
        v = criteria._decide_lip(mu1, alpha1, criteria.DEFAULT_KAPPA,
                                 costs.validate_admissible(alpha1), lip)
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == ("rearrangement not Lipschitz; "
                                           "finite moments alone do not "
                                           "assemble a rate")
        assert v.diagnostics["lipschitz"] == lip.to_dict()
        assert v.constants["b"] == 0.5


# sha256 of the sorted-key JSON of the "outside the admissible class"
# verdict that all three decisions return on the reference law
_INADMISSIBLE_VERDICTS = {
    "maurey": "0622b0ade0777f463fe1d182259752ac49c04b165fa9eb1f97e85d14547e0816",
    "doubled_theta2":
        "4ea83b94189622521152a10528111f727f953c2b8928ddd22cb097a2680b55f7",
}


@pytest.mark.parametrize("decide", [decide_strong_tci_lip,
                                    decide_strong_tci_logconcave,
                                    suff_condition],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", sorted(_INADMISSIBLE_VERDICTS))
def test_inadmissible_profile_verdict_is_pinned(mu1, decide, name):
    alpha = costs.builtin_cost("maurey") if name == "maurey" else \
        verify.tci_to_strong_cost(costs.builtin_cost("theta_p", p=2))
    v = decide(mu1, alpha)
    assert v.status == "inconclusive"
    assert v.diagnostics["reason"] == "cost profile outside the admissible class"
    body = json.dumps(v.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == _INADMISSIBLE_VERDICTS[name]


class TestDecideLogConcave:
    def test_standard_gaussian(self, gaussian, theta2):
        v = decide_strong_tci_logconcave(gaussian, theta2)
        assert v.status == "holds"
        assert v.constants["K"] == pytest.approx(math.sqrt(2), rel=1e-9)
        assert v.constants["a"] == pytest.approx(0.25, abs=1e-12)

    def test_variance_half_gaussian(self, theta2):
        mu = measures.make_builtin("gaussian", sigma=2.0 ** -0.5)
        v = decide_strong_tci_logconcave(mu, theta2)
        assert v.status == "holds"
        assert v.constants["a0"] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)
        assert v.constants["K"] == pytest.approx(2.0 / math.sqrt(3), rel=1e-9)

    def test_reference_law(self, mu1, alpha1):
        v = decide_strong_tci_logconcave(mu1, alpha1)
        assert v.status == "holds"
        assert v.constants["a0"] == pytest.approx(1.0, rel=1e-9)
        assert v.constants["K"] == pytest.approx(1.8119178961684739, rel=1e-9)

    def test_exp_power(self, theta2):
        mu = measures.make_builtin("exp_power", p=1.5)
        v = decide_strong_tci_logconcave(mu, costs.builtin_cost("theta_p", p=1.5))
        assert v.status == "holds"
        assert v.constants["a"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("cost", ["alpha1", "theta2"])
    def test_shifted_gaussian(self, request, cost):
        # the moment is centred at the median, so shifting the law moves
        # neither b nor a, and K only by the rounding of the shifted rays
        alpha = request.getfixturevalue(cost)
        got = [decide_strong_tci_logconcave(
            measures.make_builtin("gaussian", mean=mean), alpha)
            for mean in (0.0, 5.0, 500.0, 1e5)]
        for v in got:
            assert v.status == "holds"
            assert (v.constants["b"], v.constants["a"]) == \
                (got[0].constants["b"], got[0].constants["a"])
            assert v.constants["K"] == pytest.approx(got[0].constants["K"],
                                                     rel=1e-12)

    def test_not_log_concave_is_inconclusive(self, cauchy, alpha1):
        v = decide_strong_tci_logconcave(cauchy, alpha1)
        assert v.status == "inconclusive"
        assert "log-concave" in v.diagnostics["reason"]

    def test_agrees_with_lip_route_on_gaussian(self, gaussian, theta2):
        # both derivations must certify the same law; constants may differ
        lc = decide_strong_tci_logconcave(gaussian, theta2)
        lip = decide_strong_tci_lip(gaussian, theta2)
        assert lc.status == lip.status == "holds"
        assert lc.constants["a0"] == pytest.approx(lip.constants["a0"], rel=1e-9)

    def test_moment_diverging_at_every_b_fails(self, gaussian):
        # theta_p 3 grows like |x|^3, so e^{alpha(b|x|)} outgrows the
        # gaussian tail for every b > 0
        v = decide_strong_tci_logconcave(gaussian,
                                         costs.builtin_cost("theta_p", p=3.0))
        assert v.status == "fails"
        assert v.diagnostics["reason"] == ("exponential moment diverges for "
                                           "every b in the scan")

    def test_certificate_halves_a_rate_set_too_high(self, monkeypatch,
                                                    gaussian, theta2):
        # 8 times the assembled 0.25 fails the median-tail certificate at
        # 2 and 1 and passes at 0.5
        rate = criteria.assemble_rate
        monkeypatch.setattr(criteria, "assemble_rate",
                            lambda *args: 8.0 * rate(*args))
        v = decide_strong_tci_logconcave(gaussian, theta2)
        assert v.status == "holds"
        assert v.diagnostics["certificate_halvings"] == 2
        assert v.constants["a"] == pytest.approx(0.5, abs=1e-12)
        assert v.diagnostics["certificate_margin"] >= -1e-12

    def test_certificate_failing_every_halving_is_inconclusive(
            self, monkeypatch, gaussian, theta2):
        # 1e30 halved 40 times is still about 9e17
        monkeypatch.setattr(criteria, "assemble_rate", lambda *args: 1e30)
        v = decide_strong_tci_logconcave(gaussian, theta2)
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == ("median-tail certificate failed "
                                           "at every halved rate")
        assert v.diagnostics["margin"] < -1e-12
        assert set(v.constants) == {"b", "K"}


@pytest.mark.parametrize("decide", [decide_strong_tci_lip,
                                    decide_strong_tci_logconcave],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_one_sided_law_holds_under_alpha1(alpha1, decide, rate):
    # the rate-1 law is the image of the reference law under x -> |x|; the
    # minus-side rays of anchors below 1 leave the support before z = 1
    v = decide(measures.make_builtin("one_sided_exp", rate=rate), alpha1)
    assert v.status == "holds"
    assert v.constants["a"] == pytest.approx(rate / 4.0, abs=1e-12)


class TestSuffCondition:
    def test_gaussian_quadratic_holds(self, gaussian, theta2):
        v = suff_condition(gaussian, theta2)
        assert v.status == "holds"
        assert v.constants["lambda"] == pytest.approx(0.125)
        assert v.constants["a0"] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-9)

    def test_kinked_cost_inconclusive(self, mu1, alpha1):
        # the smooth-ratio hypothesis cannot be checked across a corner
        v = suff_condition(mu1, alpha1)
        assert v.status == "inconclusive"
        assert "kink" in v.diagnostics["reason"]

    def test_heavy_tail_fails(self, cauchy, theta2):
        assert suff_condition(cauchy, theta2).status == "fails"

    def test_failed_class_check_is_inconclusive(self, monkeypatch, gaussian,
                                                theta2):
        check = criteria._regular_class_check
        monkeypatch.setattr(criteria, "_regular_class_check",
                            lambda *a, **k: {**check(*a, **k), "ok": False})
        v = suff_condition(gaussian, theta2)
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == "tail-regularity class check failed"

    def test_bounded_ratio_without_lipschitz_is_inconclusive(self, gaussian,
                                                             theta2):
        v = criteria._suff_condition(gaussian, theta2,
                                     costs.validate_admissible(theta2),
                                     Verdict(FAILS, {}, {}))
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == "rearrangement not Lipschitz"

    def test_oscillating_ratio_is_inconclusive(self):
        # V' = 1 + 0.9 cos|x| makes every lambda's ratio under theta_p 3
        # dip and then jump: neither bounded nor cleanly growing
        mu = measures.make_from_potential(
            lambda x: np.abs(x) + 0.9 * np.sin(np.abs(x)),
            potential_deriv=lambda x: np.sign(x) * (1.0 + 0.9 * np.cos(x)),
            kink_points=(0.0,))
        v = suff_condition(mu, costs.builtin_cost("theta_p", p=3))
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == ("no lambda bounded; trends not "
                                           "uniformly growing")

    @pytest.mark.parametrize("law,cost", [
        (("gaussian", {}), ("theta_p", {"p": 2})),
        (("exp_power", {"p": 1.5}), ("alpha_p", {"p": 1.5})),
        (("cauchy", {}), ("theta_p", {"p": 3})),
        (("exponential", {}), ("alpha_p", {"p": 1.2}))])
    def test_ratio_table_matches_scalar_loop(self, law, cost):
        # the point-by-point table: array and scalar power may differ in
        # the last bit, hence the tolerance of a few ulps
        mu = measures.make_builtin(law[0], **law[1])
        alpha = costs.builtin_cost(cost[0], **cost[1])
        table = suff_condition(mu, alpha).diagnostics["ratio_table"]
        for key, row in table.items():
            for side, sgn in (("plus", 1.0), ("minus", -1.0)):
                want = []
                for u in (10.0, 20.0, 40.0, 80.0):
                    num = float(alpha.deriv(float(key) * sgn * u))
                    den = float(mu.potential_deriv(mu.median + sgn * u))
                    want.append(abs(num / den) if den != 0 else math.inf)
                kind, got = row[side]
                np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)
                if not all(math.isfinite(v) for v in want):
                    assert kind == "growing"
                elif want[-1] <= 1.2 * max(want[:-1]) + 1e-12:
                    assert kind == "bounded"
                elif all(a <= b * (1.0 + 1e-9)
                         for a, b in zip(want, want[1:])):
                    assert kind == "growing"
                else:
                    assert kind == "non-monotone"


class TestIntEquivRatio:
    def test_quadratic_probe(self):
        r = int_equiv_ratio(lambda t: t * t, [10.0])
        assert r[0] == pytest.approx(0.99507319, abs=1e-7)

    def test_three_halves_probe(self):
        r = int_equiv_ratio(lambda t: t ** 1.5, [10.0])
        assert r[0] == pytest.approx(0.98987377, abs=1e-7)

    def test_values_pinned(self):
        # not the acceptance window: a drift of the ray engine shows here
        r = int_equiv_ratio(lambda t: t * t, [10.0])
        assert r[0] == pytest.approx(0.9950731877867987, rel=1e-8)
        r = int_equiv_ratio(lambda t: t ** 1.5, [10.0])
        assert r[0] == pytest.approx(0.989873774843709, rel=1e-8)

    def test_probe_ten_bit_for_bit(self):
        # the ratios at x = 10 to the last bit; Phi' is a central difference
        # with step 1e-6 max(1, |x|)
        assert int_equiv_ratio(lambda t: t * t, [10.0])[0] \
            == 0.9950731877867983
        assert int_equiv_ratio(lambda t: t ** 1.5, [10.0])[0] \
            == 0.9898737748437109

    def test_linear_probe_exact(self):
        # for a linear growth function the two quantities coincide exactly
        r = int_equiv_ratio(lambda t: t, [2.0, 5.0, 10.0, 40.0])
        np.testing.assert_allclose(r, 1.0, atol=1e-10)


class TestLsiProfile:
    def test_reference_law_profile(self, mu1):
        beta, a0, v = lsi_tilde_potential(mu1)
        assert a0 == pytest.approx(2.0, abs=1e-9)
        assert v.status == "holds"
        assert beta.fn(1.0) == pytest.approx(1.0, rel=1e-9)
        assert costs.validate_admissible(beta).status == "holds"
        assert beta.convex

    def test_variance_half_gaussian_profile(self):
        mu = measures.make_builtin("gaussian", sigma=2.0 ** -0.5)
        beta, a0, v = lsi_tilde_potential(mu)
        assert a0 == pytest.approx(1.0, abs=1e-9)
        assert v.status == "holds"

    @pytest.mark.parametrize("law, params, a0", [
        ("exponential", {}, 2.0),
        ("gaussian", {"sigma": 1.0}, 1.414213562373095),
        ("gaussian", {"sigma": 2.0 ** -0.5}, 1.0),
        ("exp_power", {"p": 1.5}, 1.2114137285547597),
        ("exp_power", {"p": 3.0}, 0.8735804647362988)])
    def test_slope_root_is_pinned(self, law, params, a0):
        _, got, v = lsi_tilde_potential(measures.make_builtin(law, **params))
        assert got == a0
        assert v.status == "holds" and v.constants == {"a0": a0}
        assert v.diagnostics == {"admissible": "holds", "convex": True,
                                 "potential_asymmetry": 0.0}

    @pytest.mark.parametrize("law, params", [("gaussian", {}),
                                             ("exp_power", {"p": 3.0})])
    def test_deriv_from_one_on_is_the_outer_branch(self, law, params):
        # a0 V'(a0 |t|) on both sides, 1.9999999999999996 at |t| = 1 here
        mu = measures.make_builtin(law, **params)
        beta, a0, _ = lsi_tilde_potential(mu)
        t = np.array([1.0, 1.5, 4.0])
        edge = a0 * mu.potential_deriv(a0 * t)
        np.testing.assert_array_equal(beta.deriv(t), edge)
        np.testing.assert_array_equal(beta.deriv(-t), edge)
        assert edge[0] == 1.9999999999999996

    def test_unbracketed_slope_equation(self, cauchy):
        # t V'(t) = 2 t^2 / (1 + t^2) reaches 2 only at infinity
        beta, a0, v = lsi_tilde_potential(cauchy)
        assert beta is None and math.isnan(a0)
        assert v.status == "inconclusive"
        assert "not bracketed" in v.diagnostics["reason"]


class TestSkewedCost:
    def test_reference_law_reduces_to_base(self, mu1, alpha1):
        # the rearrangement of the reference law onto itself is the
        # identity, so the transported cost is the translation-invariant one
        rm = rearrangement(mu1)
        sc = skewed_cost(rm, alpha1, scale=0.25, prefactor=1.0 / 72.0)
        for y1, y2 in [(0.3, -1.2), (2.0, 2.0), (-4.0, 1.0), (0.0, 5.5)]:
            expect = alpha1.fn(0.25 * (y1 - y2)) / 72.0
            assert sc(y1, y2) == pytest.approx(expect, abs=1e-12)

    def test_symmetric(self, gaussian, theta2):
        rm = rearrangement(gaussian)
        sc = skewed_cost(rm, theta2, scale=0.5, prefactor=1.0)
        assert sc(1.3, -0.4) == pytest.approx(sc(-0.4, 1.3), rel=1e-12)
        assert sc(0.7, 0.7) == 0.0


class TestRegularClassCheck:
    def test_rising_ratio_fails(self):
        # f'' / f'^2 = 1e-3 / (10 - 1e-3 x)^2 rises along the decade, though
        # it stays far below 0.1
        def f1(x):
            return np.sign(x) * (10.0 - 1e-3 * np.abs(x))

        rep = _regular_class_check(f1, 100.0)
        assert rep["slope_ok"] and not rep["ratio_ok"] and not rep["ok"]
        ratios = [p["curvature_ratio"] for p in rep["probes"][:8]]
        assert ratios[-1] < 0.1 and ratios[-1] > max(ratios[:-1])

    def test_falling_ratio_passes(self):
        rep = _regular_class_check(lambda x: x, 100.0)
        assert rep["ok"]
        assert [p["x"] for p in rep["probes"]][::8] == [10.0, -10.0]

    def test_inward_slope_fails(self):
        rep = _regular_class_check(lambda x: -np.asarray(x), 50.0,
                                   sides=(1.0,))
        assert not rep["slope_ok"] and len(rep["probes"]) == 8


def test_suff_condition_on_quartic_table():
    # the table's potential_deriv takes the (side, probe) array in one call;
    # the potential continues linearly past the table, so the quadratic
    # profile's ratio grows at every lambda
    v = suff_condition(_quartic_table(), costs.builtin_cost("theta_p", p=2))
    table = v.diagnostics["ratio_table"]
    assert len(table) == 12
    assert all(len(side[1]) == 4 for row in table.values()
               for side in (row["plus"], row["minus"]))
    assert v.diagnostics["potential_class"]["slope_ok"]
    assert v.status == "fails"
