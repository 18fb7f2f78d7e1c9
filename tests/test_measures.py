"""Measure construction, distribution functions, residuals, orderings."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, interpolate, stats

from tcilab import costs, verify
from tcilab.measures import (DiscreteMeasure, Measure1D, is_log_concave,
                             make_builtin, make_from_potential,
                             make_from_table, quantile_discretize, residual,
                             sample, stochastically_dominated)


class TestBuiltins:
    def test_exponential_closed_forms(self, mu1):
        assert mu1.median == 0.0
        assert mu1.logZ == pytest.approx(math.log(2.0), abs=1e-15)
        xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(mu1.density(xs), np.exp(-np.abs(xs)) / 2.0,
                                   rtol=1e-14)
        # sf(x) = e^{-x}/2 on the right half line
        for x in (0.0, 1.0, 10.0, 100.0):
            assert mu1.sf(x) == pytest.approx(math.exp(-x) / 2.0, rel=1e-13)
            assert mu1.cdf(-x) == pytest.approx(math.exp(-x) / 2.0, rel=1e-13)

    def test_gaussian_matches_scipy(self, gaussian):
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(gaussian.cdf(xs), stats.norm.cdf(xs),
                                   atol=1e-13)
        np.testing.assert_allclose(gaussian.density(xs), stats.norm.pdf(xs),
                                   rtol=1e-12)
        assert gaussian.logZ == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_gaussian_mean_parameter(self):
        g = make_builtin("gaussian", sigma=2.0, mean=3.0)
        assert g.median == pytest.approx(3.0, abs=1e-12)
        assert g.cdf(3.0) == pytest.approx(0.5, abs=1e-13)

    def test_cauchy_matches_scipy(self, cauchy):
        xs = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        np.testing.assert_allclose(cauchy.cdf(xs), stats.cauchy.cdf(xs),
                                   rtol=1e-12)
        # the arctan(1/x) form keeps far tails at full relative accuracy
        assert cauchy.sf(1e8) == pytest.approx(1.0 / (math.pi * 1e8),
                                               rel=1e-6)

    def test_cauchy_left_tail_mirrors_the_right(self, cauchy):
        # 0.5 + arctan(x)/pi cancels in the left tail: 1.00097430e-10
        # against 1.00097448e-10 at x = -3.18e9
        xs = np.concatenate((np.geomspace(1e-3, 1e12, 61), [3.18e9]))
        np.testing.assert_allclose(cauchy.cdf(-xs), cauchy.sf(xs),
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(cauchy.cdf(-xs),
                                   [math.atan(1.0 / x) / math.pi for x in xs],
                                   rtol=1e-15, atol=0.0)
        for x in xs[::10]:
            assert cauchy.cdf(-x) == cauchy.sf(x)
            assert cauchy.cdf(x) == pytest.approx(1.0 - cauchy.sf(x),
                                                  rel=1e-15)
        assert cauchy.cdf(0.0) == 0.5

    def test_exp_power_family(self):
        ep2 = make_builtin("exp_power", p=2)
        g = make_builtin("gaussian", sigma=1.0 / math.sqrt(2.0))
        xs = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(ep2.density(xs), g.density(xs), rtol=1e-9)
        ep1 = make_builtin("exp_power", p=1)
        mu1 = make_builtin("exponential")
        np.testing.assert_allclose(ep1.density(xs), mu1.density(xs),
                                   rtol=1e-9)

    def test_exp_power_lower_tail(self):
        # the lower half mirrors isf; 1 - 2t would round a small t away
        for p in (0.5, 1.5, 3.0):
            ep = make_builtin("exp_power", p=p)
            for t in (1e-3, 1e-17, 1e-30):
                assert ep.quantile(t) == -ep.isf(t)
                assert ep.cdf(ep.quantile(t)) == pytest.approx(t, rel=1e-10)
            assert ep.quantile(0.5) == 0.0

    def test_one_sided_exp(self):
        m = make_builtin("one_sided_exp", rate=2.0)
        assert m.support[0] == 0.0
        assert m.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
        assert m.density(-0.5) == 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin measure"):
            make_builtin("lebesgue")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,param", [
        ("gaussian", "sigma"), ("gaussian", "mean"), ("exp_power", "p"),
        ("one_sided_exp", "rate"),
    ])
    def test_non_finite_parameter_rejected(self, name, param, bad):
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            make_builtin(name, **{param: bad})


def _exponential_forms():
    mu = make_builtin("exponential")
    return {"cdf": mu._cdf, "sf": mu._sf, "quantile_fn": mu._quantile,
            "isf_fn": mu._isf}


class TestClosedForms:
    def test_cdf_and_quantile_alone_rejected(self):
        forms = _exponential_forms()
        with pytest.raises(ValueError, match=r"missing sf, isf_fn \("):
            Measure1D(np.abs, math.log(2.0), cdf=forms["cdf"],
                      quantile_fn=forms["quantile_fn"], median=0.0)

    @pytest.mark.parametrize("left_out", ["cdf", "sf", "quantile_fn", "isf_fn"])
    def test_each_missing_form_named(self, left_out):
        forms = _exponential_forms()
        del forms[left_out]
        with pytest.raises(ValueError, match=rf"missing {left_out} \("):
            Measure1D(np.abs, math.log(2.0), median=0.0, **forms)

    def test_no_forms_and_no_table_rejected(self):
        with pytest.raises(ValueError, match="make_from_potential"):
            Measure1D(np.abs, math.log(2.0), median=0.0)

    def test_exponential_forms_are_the_two_branch_formulas(self):
        # one exp or log per element and no select on the inverses, the
        # same bits as evaluating both branches and selecting, on every
        # level in [0, 1] (the ends, 1/2 and its neighbours included) and
        # nan
        forms = _exponential_forms()
        rng = np.random.default_rng(8)
        half = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
        t = np.concatenate([rng.random(20000), rng.random(200) * 1e-12,
                            1.0 - rng.random(200) * 1e-12,
                            [0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16, math.nan],
                            half])
        x = np.concatenate([rng.standard_normal(20000) * 20.0,
                            [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0,
                             math.inf, -math.inf, math.nan]])
        with np.errstate(divide="ignore"):
            want = {
                "cdf": np.where(x >= 0, 1.0 - 0.5 * np.exp(-np.abs(x)),
                                0.5 * np.exp(-np.abs(x))),
                "sf": np.where(-x >= 0, 1.0 - 0.5 * np.exp(-np.abs(x)),
                               0.5 * np.exp(-np.abs(x))),
                "quantile_fn": np.where(t >= 0.5, -np.log(2.0 * (1.0 - t)),
                                        np.log(2.0 * t)),
                "isf_fn": np.where(t <= 0.5, -np.log(2.0 * t),
                                   np.log(2.0 * (1.0 - t))),
            }
            for name, arg in (("cdf", x), ("sf", x), ("quantile_fn", t),
                              ("isf_fn", t)):
                got = forms[name](arg)
                assert np.array_equal(got.view(np.int64),
                                      want[name].view(np.int64)), name

    @pytest.mark.parametrize("p,ref", [
        (1.0, ("exponential", {})),
        (2.0, ("gaussian", {"sigma": 2.0 ** -0.5}))])
    def test_exp_power_far_tails(self, p, ref):
        # the far tails keep full relative precision down to the underflow
        mu, want = make_builtin("exp_power", p=p), make_builtin(ref[0],
                                                                 **ref[1])
        xs = np.linspace(0.0, 800.0, 16001)
        xs = np.concatenate((-xs[::-1], xs))
        for fn in ("sf", "cdf"):
            got, exact = getattr(mu, fn)(xs), getattr(want, fn)(xs)
            live = exact > 1e-300
            assert live.sum() > 1000
            np.testing.assert_allclose(got[live], exact[live], rtol=1e-12,
                                       atol=0.0)


_XS_129 = np.linspace(-4.0, 4.0, 129)
_ENDPOINT_LAWS = {
    "exponential": lambda: make_builtin("exponential"),
    "exp_power": lambda: make_builtin("exp_power", p=1.5),
    "gaussian": lambda: make_builtin("gaussian", mean=1.5),
    "cauchy": lambda: make_builtin("cauchy"),
    "one_sided_exp": lambda: make_builtin("one_sided_exp"),
    "quartic_table": lambda: make_from_table(_XS_129, _XS_129 ** 4 / 4.0),
    "potential": lambda: make_from_potential(
        lambda x: np.abs(np.asarray(x)) + 0.1 * np.asarray(x) ** 2,
        kink_points=(0.0,)),
}


@pytest.mark.parametrize("law", sorted(_ENDPOINT_LAWS))
def test_cdf_and_sf_exact_at_infinity(law):
    # the two-set and concentration verifiers take masses of intervals with
    # infinite endpoints straight from cdf and sf
    mu = _ENDPOINT_LAWS[law]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, at_minus, at_plus in ((mu.cdf, 0.0, 1.0), (mu.sf, 1.0, 0.0)):
            lo, hi = fn(-math.inf), fn(math.inf)
            assert type(lo) is float and type(hi) is float
            assert (lo, hi) == (at_minus, at_plus)
            arr = fn(np.array([-math.inf, 0.0, math.inf]))
            assert (arr[0], arr[-1]) == (at_minus, at_plus)


class TestInverses:
    def test_quantile_cdf_roundtrip(self, mu1, gaussian, cauchy):
        ts = np.linspace(0.001, 0.999, 57)
        for mu in (mu1, gaussian, cauchy):
            np.testing.assert_allclose(mu.cdf(mu.quantile(ts)), ts,
                                       atol=1e-10)

    def test_isf_deep_tail_accuracy(self, mu1, gaussian):
        for mu in (mu1, gaussian):
            for s in (1e-3, 1e-9, 1e-30, 1e-200):
                x = mu.isf(s)
                assert mu.sf(x) == pytest.approx(s, rel=1e-8)

    def test_numeric_measure_quantile(self):
        # potential-built gaussian must agree with the closed form
        g = make_from_potential(lambda x: 0.5 * np.asarray(x) ** 2,
                                potential_deriv=lambda x: np.asarray(x))
        ref = stats.norm
        for t in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert g.quantile(t) == pytest.approx(ref.ppf(t), abs=2e-7)


class TestTables:
    def test_table_measure_roundtrip(self):
        xs = np.linspace(-8.0, 8.0, 401)
        m = make_from_table(xs, 0.5 * xs * xs)
        assert m.cdf(0.0) == pytest.approx(0.5, abs=1e-7)
        assert m.cdf(1.0) == pytest.approx(stats.norm.cdf(1.0), abs=1e-5)

    def test_table_rejections(self):
        xs = np.array([0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            make_from_table(xs, xs)
        # flat potential leaks mass at infinity
        xs = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError, match="table rejected"):
            make_from_table(xs, np.zeros(11))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column,name", [(0, "abscissae x"),
                                             (1, "potential values V")])
    def test_non_finite_entries_rejected(self, bad, column, name):
        xs = np.linspace(-4.0, 4.0, 9)
        table = [xs, 0.5 * xs * xs]
        table[column][4] = bad
        with pytest.raises(ValueError, match=f"table {name} must be finite"):
            make_from_table(*table)


    def test_table_potential_deriv_on_arrays(self):
        xs = np.linspace(-4.0, 4.0, 129)
        vs = xs ** 4 / 4.0 + 0.3 * np.sin(xs)
        dref = interpolate.PchipInterpolator(xs, vs).derivative()
        x = np.array([[-9.0, -4.0, -1.37, 0.0], [0.51, 3.99, 4.0, 1e6]])
        got = make_from_table(xs, vs).potential_deriv(x)
        assert got.shape == x.shape
        inside = np.abs(x) <= 4.0
        np.testing.assert_array_equal(got[inside], dref(x[inside]))
        assert got[0, 0] == dref(-4.0) < 0.0
        assert got[1, 3] == dref(4.0) > 0.0


_TABLE_XS = np.linspace(-4.0, 4.0, 129)
_NUMERIC = {
    # the benchmark's two tables: a log-concave quartic and an asymmetric,
    # non-log-concave Huber + 0.3 sin x
    "quartic": (lambda: make_from_table(_TABLE_XS, _TABLE_XS ** 4 / 4.0),
                _TABLE_XS),
    "huber": (lambda: make_from_table(
        _TABLE_XS, np.where(np.abs(_TABLE_XS) <= 1.0, 0.5 * _TABLE_XS ** 2,
                            np.abs(_TABLE_XS) - 0.5) + 0.3 * np.sin(_TABLE_XS)),
              _TABLE_XS),
    "gaussian": (lambda: make_from_potential(lambda x: 0.5 * np.asarray(x) ** 2),
                 ()),
    # declared kink at 0: |x| + x^2/10
    "kinked": (lambda: make_from_potential(
        lambda x: np.abs(np.asarray(x)) + 0.1 * np.asarray(x) ** 2,
        kink_points=(0.0,)), (0.0,)),
}


@pytest.fixture(scope="module", params=sorted(_NUMERIC))
def numeric(request):
    build, breaks = _NUMERIC[request.param]
    return build(), np.asarray(breaks, dtype=float)


def _oracle_mass(mu, a, b, breaks):
    """Adaptive quad on the pieces between the density's break points."""
    pts = np.unique(np.concatenate([[a, b], breaks[(breaks > a) & (breaks < b)]]))
    return sum(integrate.quad(mu.density, u, v, epsabs=1e-15, epsrel=1e-13,
                              limit=500)[0] for u, v in zip(pts[:-1], pts[1:]))


class TestNumericMeasures:
    """Cell-table cdf/sf/quantile/isf of potential and table measures."""

    def test_cdf_sf_match_quad_oracle(self, numeric):
        mu, breaks = numeric
        # +-60 lies beyond every window: the mass outside is below 1e-16
        xs = np.linspace(mu.quantile(1e-9), mu.isf(1e-9), 29)
        cdf = np.array([_oracle_mass(mu, -60.0, x, breaks) for x in xs])
        sf = np.array([_oracle_mass(mu, x, 60.0, breaks) for x in xs])
        np.testing.assert_allclose(mu.cdf(xs), cdf, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu.sf(xs), sf, rtol=0, atol=1e-12)

    def test_upper_tail_keeps_relative_accuracy(self, numeric):
        # the table's mass ends at the window edge grid[-1]; up to there the
        # survival function stays accurate relative to its own size
        mu, breaks = numeric
        xs = mu.isf(np.array([1e-12, 1e-9, 1e-6]))
        sf = np.array([_oracle_mass(mu, x, mu.grid[-1], breaks) for x in xs])
        np.testing.assert_allclose(mu.sf(xs), sf, rtol=1e-9)

    def test_inverse_round_trips(self, numeric):
        mu, _ = numeric
        ts = np.array([1e-9, 1e-4, 0.02, 0.25, 0.5, 0.61, 0.9, 0.999999])
        np.testing.assert_allclose(mu.cdf(mu.quantile(ts)), ts, rtol=0,
                                   atol=1e-12)
        ss = np.array([1e-12, 1e-10, 1e-7, 1e-3, 0.4, 0.95])
        np.testing.assert_allclose(mu.sf(mu.isf(ss)), ss, rtol=1e-10)

    def test_scalar_calls_equal_array_calls(self, numeric):
        mu, _ = numeric
        xs = np.linspace(mu.quantile(1e-6), mu.isf(1e-6), 13)
        levels = np.array([1e-12, 0.003, 0.5, 0.77, 0.999])
        for fn, args in ((mu.cdf, xs), (mu.sf, xs), (mu.quantile, levels),
                         (mu.isf, levels)):
            arr = fn(args)
            for v, a in zip(args, arr):
                out = fn(float(v))
                assert type(out) is float
                assert out == a

    def test_window_edges_and_shape(self, numeric):
        mu, _ = numeric
        assert mu.cdf(-1e6) == 0.0 and mu.cdf(1e6) == 1.0
        assert mu.sf(-1e6) == 1.0 and mu.sf(1e6) == 0.0
        grid = mu.grid
        np.testing.assert_array_equal(mu.cdf(grid[1:-1]), mu.F_grid[1:-1])
        assert mu.cdf(np.zeros((2, 3))).shape == (2, 3)
        with pytest.raises(ValueError, match="strictly inside"):
            mu.quantile(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="strictly inside"):
            mu.isf(0.0)

    def test_table_readers_sample_the_law(self, numeric):
        # sample and concentration_mc invert the cell table by interpolation
        mu, _ = numeric
        xs = np.sort(sample(mu, 20_000, seed=5))
        emp = np.arange(1, len(xs) + 1) / len(xs)
        assert np.max(np.abs(mu.cdf(xs) - emp)) < 0.02
        rep = verify.concentration_mc(mu, costs.builtin_cost("alpha1"),
                                      scale=0.25, samples=20_000, seed=5)
        assert rep.mass_a == pytest.approx(mu.sf(0.0), abs=1e-12)
        # points inside A = [0, inf) cost nothing: the r -> 0 row is mu(A)
        assert rep.empirical[0] >= mu.sf(0.0) - 0.02

    def test_divergence_test_on_slow_tails(self):
        # density ~ 1/|x| has infinite mass; the Cauchy density ~ 1/x^2 is
        # finite, and its table window ends where the density is 1e-16
        with pytest.raises(ValueError, match="not a finite measure"):
            make_from_potential(lambda x: 0.5 * np.log1p(np.asarray(x) ** 2))
        c = make_from_potential(lambda x: np.log1p(np.asarray(x) ** 2))
        assert c.logZ == pytest.approx(math.log(math.pi), abs=1e-7)
        assert c.cdf(1.0) == pytest.approx(0.75, abs=1e-7)

    def test_mass_rule_heavy_tail_boundary(self):
        # density ~ |x|^-1.5: the tail mass settles within the doubling
        # budget.  The table holds the mass above 1e-16 of the peak and is
        # normalized by it, so logZ reads about 1.9e-6 (relative) low.
        m = make_from_potential(lambda x: 0.75 * np.log1p(np.asarray(x) ** 2))
        want = math.log(math.sqrt(math.pi) * math.gamma(0.25)
                        / math.gamma(0.75))
        assert m.logZ == pytest.approx(want, rel=2e-6)
        # density ~ |x|^-1.2 is integrable, but its tail shrinks too slowly
        # for the rule to settle, so it is rejected
        with pytest.raises(ValueError, match="not a finite measure"):
            make_from_potential(lambda x: 0.6 * np.log1p(np.asarray(x) ** 2))

    def test_table_abscissae_are_cell_edges(self):
        mu = _NUMERIC["quartic"][0]()
        inside = _TABLE_XS[(_TABLE_XS > mu.grid[0]) & (_TABLE_XS < mu.grid[-1])]
        assert np.isin(inside, mu.grid).all()
        assert mu.kink_points == tuple(_TABLE_XS[::2])


_EVALUATED = {
    "exponential": lambda: make_builtin("exponential"),
    "gaussian": lambda: make_builtin("gaussian", sigma=1.7, mean=-0.4),
    "cauchy": lambda: make_builtin("cauchy"),
    "exp_power p=1.25": lambda: make_builtin("exp_power", p=1.25),
    "exp_power p=1.5": lambda: make_builtin("exp_power", p=1.5),
    "exp_power p=3": lambda: make_builtin("exp_power", p=3.0),
    "one_sided_exp": lambda: make_builtin("one_sided_exp", rate=2.0),
    "quartic table": _NUMERIC["quartic"][0],
}


@pytest.mark.parametrize("law", sorted(_EVALUATED))
def test_scalar_calls_are_array_elements(law):
    # one evaluation rule: a scalar is a length-one array, comes back as a
    # float with the bits of its array element, and an array keeps its shape
    mu = _EVALUATED[law]()
    rng = np.random.default_rng(31)
    n = 32 if law.endswith("table") else 400
    levels = np.concatenate((rng.uniform(size=n // 2),
                             10.0 ** -rng.uniform(1.0, 14.0, n // 2)))
    points = np.concatenate((mu.quantile(levels[: n // 2]),
                             rng.normal(0.0, 4.0, n // 2)))
    for fn, args in ((mu.cdf, points), (mu.sf, points),
                     (mu.log_density, points), (mu.density, points),
                     (mu.quantile, levels), (mu.isf, levels)):
        arr = fn(args)
        scalars = [fn(float(a)) for a in args]
        assert {type(v) for v in scalars} == {float}, fn.__name__
        np.testing.assert_array_equal(
            np.array(scalars).view(np.int64), arr.view(np.int64),
            err_msg=fn.__name__)
        square = fn(args.reshape(2, -1))
        assert square.shape == (2, n // 2), fn.__name__
        np.testing.assert_array_equal(square.ravel().view(np.int64),
                                      arr.view(np.int64), err_msg=fn.__name__)


class TestDiscrete:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteMeasure(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sum to one"):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.6, 0.6]))

    def test_non_finite_rejected(self):
        # nan slips past "<= 0" and "sum to one"; each field is named
        with pytest.raises(ValueError, match="weights must be finite"):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="atoms must be finite"):
            DiscreteMeasure(np.array([0.0, np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="atoms must be finite"):
            DiscreteMeasure(np.array([0.0, np.inf]), np.array([0.5, 0.5]))

    def test_quantile_discretize(self, mu1):
        d = quantile_discretize(mu1, 64)
        assert len(d) == 64
        np.testing.assert_allclose(d.weights, 1.0 / 64.0)
        assert np.all(np.diff(d.atoms) > 0)
        # atoms sit at the conditional medians of equal-mass cells
        assert d.atoms[31] == pytest.approx(mu1.quantile(31.5 / 64.0))


class TestResiduals:
    def test_exponential_memoryless(self, mu1):
        # overshoot beyond any x >= 0 is exactly Exp(1)
        for x in (0.0, 0.7, 3.0):
            r = residual(mu1, x, "plus")
            hs = np.linspace(0.0, 20.0, 50)
            np.testing.assert_allclose(r.tail(hs), np.exp(-hs), atol=1e-12)
        r = residual(mu1, -1.0, "minus")
        assert r.tail(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_zero_mass_anchor_rejected(self):
        m = make_builtin("one_sided_exp", rate=1.0)
        with pytest.raises(ValueError, match="zero mass"):
            residual(m, -1.0, "minus")

    def test_domination_verdicts(self, mu1, gaussian):
        h = np.linspace(0.0, 6.0, 61)
        m_res = residual(gaussian, 0.0, "plus")
        x_res = residual(gaussian, 1.5, "plus")
        v = stochastically_dominated(x_res.tail, m_res.tail, h)
        assert v.holds
        # the reverse ordering fails with a recorded worst gap
        v = stochastically_dominated(m_res.tail, x_res.tail, h)
        assert v.status == "fails"
        assert v.diagnostics["worst_gap"] > 0


class TestLogConcavity:
    @pytest.mark.parametrize("name,params", [
        ("gaussian", {"sigma": 1.0}),
        ("exponential", {}),
        ("exp_power", {"p": 1.5}),
        ("exp_power", {"p": 3.0}),
        ("exp_power", {"p": 1.0}),
        ("one_sided_exp", {"rate": 2.0}),
        ("gaussian", {"sigma": 1e-6, "mean": 5e-4}),
        ("gaussian", {"sigma": 1e6, "mean": 5e8}),
    ])
    def test_holds(self, name, params):
        assert is_log_concave(make_builtin(name, **params)).holds

    def test_fails_without_monotone_hazards(self):
        # exp_power p < 1 has a falling hazard on both sides; the Huber
        # table with a sine ripple has a bump in its density
        assert not is_log_concave(make_builtin("exp_power", p=0.75)).holds
        huber = make_from_table(
            _XS_129, np.where(np.abs(_XS_129) <= 1.0, 0.5 * _XS_129 ** 2,
                              np.abs(_XS_129) - 0.5) + 0.3 * np.sin(_XS_129))
        assert not is_log_concave(huber).holds

    def test_cauchy_fails(self, cauchy):
        v = is_log_concave(cauchy)
        assert v.status == "fails"
        for side in ("plus", "minus"):
            assert "first_violation_x" in v.diagnostics[side]


class TestSampling:
    def test_pushforward_matches_cdf(self, mu1, gaussian):
        # Kolmogorov distance of the empirical cdf on 1e5 seeded draws
        for mu in (mu1, gaussian):
            xs = np.sort(sample(mu, 100_000, seed=42))
            emp = (np.arange(1, len(xs) + 1)) / len(xs)
            ks = np.max(np.abs(np.asarray(mu.cdf(xs)) - emp))
            assert ks < 0.01

    def test_deterministic(self, mu1):
        a = sample(mu1, 1000, seed=7)
        b = sample(mu1, 1000, seed=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample(mu1, 1000, seed=8))

    def test_size_validation(self, mu1):
        with pytest.raises(ValueError):
            sample(mu1, 0, seed=0)

    def test_philox_inverse_cdf(self, mu1):
        # the verifiers' counter-based stream, pushed through the quantile
        u = np.random.Generator(np.random.Philox(key=9)).random((7, 3))
        expect = mu1.quantile(np.clip(u, 1e-16, 1.0 - 1e-16))
        np.testing.assert_array_equal(sample(mu1, (7, 3), seed=9), expect)
        with pytest.raises(ValueError, match="no draws"):
            sample(mu1, (7, 0), seed=9)

    @pytest.mark.parametrize("law,shape,seed,digest", [
        ("exponential", (100_003, 3), 9,
         "53b96d6d184709ebc1e6dd241026bb9e807d2bc0164db013c0613b5bd411cad0"),
        ("gaussian", 70_001, 2,
         "4dd524fd4c875c8444f75646e8a778471c20edf8c07beb57b61bc60a735c869c"),
        ("quartic", (40_001, 5), 4,
         "2f38bf6b8e4c43ecc2e92f41537e208be583ec48703188e2cf794e6df097c926"),
    ])
    def test_draws_pinned(self, mu1, gaussian, law, shape, seed, digest):
        # sha256 of the little-endian draws: the closed-form quantile path
        # (2-D and 1-D shapes) and the table measure's interpolated inverse
        mu = {"exponential": mu1, "gaussian": gaussian}.get(law) \
            or _NUMERIC[law][0]()
        xs = sample(mu, shape, seed)
        assert xs.shape == tuple(np.atleast_1d(shape))
        got = hashlib.sha256(np.ascontiguousarray(xs, "<f8").tobytes())
        assert got.hexdigest() == digest
