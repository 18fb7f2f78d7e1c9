"""Fixed quadrature rules (the composite Gauss rule and the vectorized
Gauss-Kronrod cells behind the numeric measures), the truncated-limit rule
and the scan-grid sup."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from tcilab import measures, numerics, verify


def _loop_gauss_nodes(breaks, panels, order):
    """Reference: one ``linspace`` of panels per break segment."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        nodes.append((mid[:, None] + half[:, None] * xg[None, :]).ravel())
        weights.append((half[:, None] * wg[None, :]).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


class TestCompositeGauss:
    @pytest.mark.parametrize("panels,order", [(1, 4), (8, 4), (32, 4), (3, 8)])
    def test_matches_loop_reference_bitwise(self, panels, order):
        rng = np.random.default_rng(3)
        breaks = np.unique(np.concatenate([np.cumsum(rng.exponential(size=40))
                                           - 7.3, [0.0, 1e-9]]))
        nodes, weights = numerics.composite_gauss_nodes(breaks, order=order,
                                                        panels=panels)
        ref_n, ref_w = _loop_gauss_nodes(breaks, panels, order)
        np.testing.assert_array_equal(nodes, ref_n)
        np.testing.assert_array_equal(weights, ref_w)

    @pytest.mark.parametrize("name", ["exponential", "cauchy"])
    def test_dual_quadrature_nodes_unchanged(self, name, monkeypatch):
        # the dual products replay only if the dual nodes and weights stay
        # bit-identical to the per-segment panel loop they came from
        mu = measures.make_builtin(name)
        seen = {}
        rule = numerics.composite_gauss_nodes

        def spy(breaks, **kw):
            seen["breaks"], seen["kw"] = breaks, kw
            seen["out"] = rule(breaks, **kw)
            return seen["out"]

        monkeypatch.setattr(numerics, "composite_gauss_nodes", spy)
        knots = np.linspace(float(mu.quantile(1e-8)), float(mu.isf(1e-8)), 64)
        quadr = verify._DualQuadrature(mu, knots)
        assert seen["kw"] == {"order": 4, "panels": 32}
        ref_n, ref_w = _loop_gauss_nodes(seen["breaks"], 32, 4)
        np.testing.assert_array_equal(quadr.nodes, ref_n)
        np.testing.assert_array_equal(seen["out"][1], ref_w)

    def test_integrates_piecewise_polynomial(self):
        f = lambda x: np.where(x < 0.5, x ** 7, 1.0 - x)
        nodes, weights = numerics.composite_gauss_nodes([0.0, 0.5, 2.0], order=4)
        exact = 0.5 ** 8 / 8 - 0.375
        assert np.dot(f(nodes), weights) == pytest.approx(exact, abs=1e-15)


class TestWilsonInterval:
    def test_array_matches_closed_form(self):
        n, z = 400, 2.5758293035489004
        p = np.array([0.0, 0.0125, 0.5, 0.9875, 1.0])
        lower, upper = numerics.wilson_interval(p, n)
        for pi, lo, hi in zip(p, lower, upper):
            denom = 1.0 + z * z / n
            center = (pi + z * z / (2.0 * n)) / denom
            half = z / denom * math.sqrt(pi * (1.0 - pi) / n
                                         + z * z / (4.0 * n * n))
            assert lo == pytest.approx(center - half, rel=1e-14, abs=1e-16)
            assert hi == pytest.approx(center + half, rel=1e-14, abs=1e-16)
        # the interval is symmetric about one half
        np.testing.assert_allclose(lower, 1.0 - upper[::-1], atol=1e-15)

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(ValueError, match="sample size"):
            numerics.wilson_interval(0.5, n)


class TestGaussKronrod:
    def test_embedded_gauss_rule(self):
        xg, wg = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(numerics._XK[1::2], xg, atol=1e-15)
        np.testing.assert_allclose(numerics._GAUSS7_WEIGHTS, wg, atol=1e-15)

    @pytest.mark.parametrize("degree", [0, 5, 13, 22])
    def test_exact_to_degree_22(self, degree):
        a, b = np.array([-0.4, 1.0]), np.array([1.3, -2.0])
        val, err = numerics.gauss_kronrod(lambda x: x ** degree, a, b)
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        np.testing.assert_allclose(val, exact, rtol=1e-14, atol=1e-15)
        assert np.all(err >= 0.0)

    def test_empty_interval_is_zero(self):
        val, err = numerics.gauss_kronrod(np.exp, np.array([2.0]),
                                          np.array([2.0]))
        assert val[0] == 0.0 and err[0] == 0.0

    def test_cells_refine_an_undeclared_kink(self):
        f = lambda x: np.sqrt(np.abs(x - 0.3))
        edges, vals = numerics.gauss_kronrod_cells(f, np.array([0.0, 1.0]),
                                                   epsabs=1e-14, epsrel=1e-12)
        assert len(vals) == len(edges) - 1 > 1
        assert np.all(np.diff(edges) > 0)
        assert vals.sum() == pytest.approx((0.3 ** 1.5 + 0.7 ** 1.5) / 1.5,
                                           abs=1e-13)

    def test_smooth_cells_are_not_split(self):
        edges = np.linspace(0.0, 1.0, 11)
        out, vals = numerics.gauss_kronrod_cells(np.exp, edges, epsabs=1e-14,
                                                 epsrel=1e-12)
        np.testing.assert_array_equal(out, edges)
        assert vals.sum() == pytest.approx(math.e - 1.0, abs=1e-15)

    def test_owner_cells_integrate_separately(self):
        # owner 0 integrates sqrt|x - 0.3| over two cells, owner 1 the rate-3
        # exponential over one; each refines on its own integrand
        scale = np.array([0.0, 3.0])

        def f(x, own):
            return np.where(own == 0, np.sqrt(np.abs(x - 0.3)),
                            scale[own] * np.exp(-scale[own] * x))

        own, vals = numerics.gauss_kronrod_cells(
            f, (np.array([0.0, 0.5, 0.0]), np.array([0.5, 1.0, 1.0])),
            epsabs=1e-14, epsrel=1e-12, owner=np.array([0, 0, 1]))
        assert len(own) == len(vals) > 3
        sums = np.bincount(own, weights=vals)
        assert sums[0] == pytest.approx((0.3 ** 1.5 + 0.7 ** 1.5) / 1.5,
                                        abs=1e-13)
        assert sums[1] == pytest.approx(1.0 - math.exp(-3.0), rel=1e-13)

    def test_owner_stops_splitting_at_its_cell_limit(self):
        # ~300 jumps per unit: without the limit the cell around each jump
        # would be bisected for all 30 rounds
        def f(x, own):
            return np.sign(np.sin(1e3 * x))

        own, _ = numerics.gauss_kronrod_cells(
            f, (np.array([0.0, 0.0]), np.array([1.0, 2.0])),
            epsabs=1e-14, epsrel=1e-12, owner=np.array([0, 1]))
        assert np.all(np.bincount(own) <= 2 * numerics._GK_OWNER_CELLS)


class TestGuardedLimit:
    def test_decaying_growth_fractions_converge(self):
        # each doubling adds 0.6 times the previous increment: the first
        # two fractions exceed the growth threshold but shrink, no streak
        val, ok = numerics.guarded_limit(lambda T: 2.0 - 0.6 ** math.log2(T),
                                         1.0)
        assert ok and val == pytest.approx(2.0, abs=1e-8)

    def test_sustained_growth_diverges(self):
        calls = []

        def linear(T):
            calls.append(T)
            return T

        assert numerics.guarded_limit(linear, 1.0) == (math.inf, True)
        assert calls == [1.0, 2.0, 4.0]     # the second counted growth ends it

    def test_log_growth_does_not_settle(self):
        # fractions decay like 1/k: never a streak, never converged
        val, ok = numerics.guarded_limit(lambda T: 1.0 + math.log(T), 1.0)
        assert val == math.inf and not ok


class TestGrowingWindow:
    def test_each_call_adds_what_the_last_one_left_out(self):
        f = lambda x: np.exp(-x * x)
        seen = []

        def g(x):
            seen.append(x)
            return f(x)

        partial = numerics.growing_window(g, 0.5, (-math.inf, 3.0),
                                          (-0.5, 1.5), [0.0, 2.0],
                                          epsabs=1e-15, epsrel=1e-13,
                                          base=10.0)
        erf = lambda u, v: 0.5 * math.sqrt(math.pi) * (math.erf(v)
                                                      - math.erf(u))
        assert partial(2.0) == pytest.approx(
            10.0 + erf(-1.5, -0.5) + erf(1.5, 2.5), rel=1e-14)
        first = np.concatenate([x.ravel() for x in seen])
        assert first.min() > -1.5 and first.max() < 2.5
        assert not np.any((first > -0.5) & (first < 1.5))
        seen.clear()
        # the right end is clipped to the support
        assert partial(4.0) == pytest.approx(
            10.0 + erf(-3.5, -0.5) + erf(1.5, 3.0), rel=1e-14)
        later = np.concatenate([x.ravel() for x in seen])
        assert not np.any((later > -1.5) & (later < 2.5))

    def test_settled_window_adds_nothing(self):
        partial = numerics.growing_window(np.abs, 0.0, (-1.0, 1.0),
                                          (0.0, 0.0), [], 1e-15, 1e-13)
        assert partial(2.0) == pytest.approx(1.0, rel=1e-15)
        assert partial(4.0) == partial(8.0) == pytest.approx(1.0, rel=1e-15)


_FORBIDDEN_CALLS = {("numerics", "quad"), ("integrate", "quad"),
                    ("warnings", "catch_warnings")}


def test_package_makes_no_scalar_quadrature_call():
    # integrals in the package run on the cell engine; numerics.quad stays
    # defined for the benchmark's tracer but nothing may call it, and no
    # warning is swallowed
    src = Path(numerics.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "quad" \
                    and path.name == "numerics.py":
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute) \
                    and isinstance(fn.value, ast.Name):
                name = (fn.value.id, fn.attr)
            elif isinstance(fn, ast.Name) and path.name == "numerics.py":
                name = ("numerics", fn.id)
            else:
                continue
            if name in _FORBIDDEN_CALLS:
                found.append(f"{path.name}:{node.lineno} {'.'.join(name)}")
    assert found == []


def _columns(fns):
    """One vectorized ``f`` whose column j is ``fns[j]``."""
    return lambda x: np.stack([fn(x[:, j]) for j, fn in enumerate(fns)],
                              axis=1)


def _parabola(c):
    return lambda x: -(x - c) ** 2


def _plateau(c):
    return lambda x: -np.maximum(np.abs(x - c) - 0.3, 0.0) ** 2


def _column_reference(fn, grid, tol):
    """The one-column scan: grid argmax, then golden_max on its bracket."""
    vals = fn(grid)
    if not np.isfinite(vals).all():
        k = int(np.argmax(~np.isfinite(vals)))
        return math.inf, grid[k]
    k = int(np.argmax(vals))
    best_x, best_v = grid[k], vals[k]
    if 0 < k < len(grid) - 1:
        x, v = numerics.golden_max(lambda t: float(fn(np.array([t]))[0]),
                                   min(grid[k - 1], grid[k + 1]),
                                   max(grid[k - 1], grid[k + 1]), tol=tol)
        if v > best_v:
            best_x, best_v = x, v
    return best_v, best_x


class TestSupOnGrid:
    def test_columns_match_golden_max_one_by_one(self):
        def pole(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(x - 2.5)

        fns = [_parabola(1.3), _parabola(2.71), _plateau(3.05),
               _plateau(-0.4), lambda x: x, pole]
        out = np.linspace(0.0, 5.0, 41)
        grid = np.stack([out, out, out, -out, out, out], axis=1)
        for tol in (1e-12, 1e-8):
            sup, arg, _, _ = numerics.sup_on_grid(_columns(fns), grid, tol)
            for j, fn in enumerate(fns):
                ref_v, ref_x = _column_reference(fn, grid[:, j], tol)
                assert sup[j] == pytest.approx(ref_v, abs=1e-15)
                assert arg[j] == pytest.approx(ref_x, abs=1e-15)
        # the grid-end column is not refined; the pole column reads inf at
        # the pole
        assert (sup[4], arg[4]) == (5.0, 5.0)
        assert (sup[5], arg[5]) == (math.inf, 2.5)

    def test_growth_probes(self):
        def stops(x):
            return np.where(x > 7.0, np.nan, 1.0)

        fns = [_parabola(1.0), lambda x: x, stops]
        out = np.linspace(0.0, 5.0, 11)
        sup, _, diverged, probes = numerics.sup_on_grid(
            _columns(fns), np.stack([out] * 3, axis=1))
        offsets = [5.0 + 5.0 * 2.0 ** k for k in range(6)]
        assert diverged.tolist() == [False, True, False]
        # decaying: all six probes; growing: cut at the second 10 % rise;
        # nan: cut at the first probe, with no verdict
        assert [d for d, _ in probes[0]] == offsets
        assert probes[1] == [(10.0, 10.0), (15.0, 15.0)]
        assert len(probes[2]) == 1 and math.isnan(probes[2][0][1])
        assert sup[2] == 1.0
