"""Fixed quadrature rules (the composite Gauss rule and the vectorized
Gauss-Kronrod cells behind the numeric measures), the truncated-limit rule,
the scan-grid sup, the root solver and the PCHIP interpolant."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy import interpolate, optimize

from tcilab import cli, costs, criteria, measures, numerics, verify


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
        np.testing.assert_array_equal(quadr.query[1:-1], ref_n)
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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_partial_diverges(self, bad):
        # at the first partial, and at a later one after two finite ones
        # that have not settled
        assert numerics.guarded_limit(lambda T: bad, 1.0) == (math.inf, True)
        calls = []

        def late(T):
            calls.append(T)
            return {1.0: 1.0, 2.0: 1.5}.get(T, bad)

        assert numerics.guarded_limit(late, 1.0) == (math.inf, True)
        assert calls == [1.0, 2.0, 4.0]


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
                    ("warnings", "catch_warnings"), ("optimize", "brentq"),
                    ("np", "vectorize"),
                    ("interpolate", "PchipInterpolator")}


def test_package_makes_no_scalar_quadrature_call():
    # integrals in the package run on the cell engine; numerics.quad stays
    # defined for the benchmark's tracer but nothing may call it, and no
    # warning is swallowed; equations go to numerics.monotone_root, not to
    # a scalar solver or an np.vectorize loop
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


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter on the package source."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.split()


_LAZY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate",
               "scipy.sparse", "scipy.special")

#: prints every loaded scipy module, then a sentinel so the list may be empty
_SCIPY_LOADED = ("print(*sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'), '|')")


def test_import_does_not_load_scipy_integrate():
    # importing the package loads numpy only; each scipy subpackage loads
    # where a function first needs it
    out = _fresh_python("import sys, tcilab; print(*(m in sys.modules "
                        f"for m in {_LAZY_SCIPY!r}))")
    assert out == ["False"] * len(_LAZY_SCIPY)


def test_cli_import_loads_no_scipy():
    # the command line imports the whole package, tcilab included
    assert _fresh_python(f"import sys, tcilab.cli\n{_SCIPY_LOADED}") == ["|"]


def test_default_analyze_runs_without_scipy(tmp_path):
    # the default pair (exponential/alpha1), from the command line to the
    # written report, and the cauchy law need numpy only
    out = _fresh_python(
        "import sys\n"
        "from tcilab import cli\n"
        "rc = cli.main(['analyze', '--mu', 'exponential', '--cost', 'alpha1', "
        "'--trials', '10', '--samples', '1000', '--format', 'json', "
        f"'--out', {str(tmp_path)!r}])\n"
        "cli.run_analyze(cli.AnalysisConfig(measure='cauchy', "
        "dual_trials=10, mc_samples=1000))\n"
        f"print(rc)\n{_SCIPY_LOADED}")
    assert out == [str(tmp_path / "report.json"), "0", "|"]
    cfg = cli.AnalysisConfig(measure="exponential", cost="alpha1",
                             dual_trials=10, mc_samples=1000,
                             out_dir=str(tmp_path))
    assert (tmp_path / "report.json").read_text() \
        == cli.run_analyze(cfg).to_json()


@pytest.mark.parametrize("name,params,param", [
    ("gaussian", {}, "sigma"), ("exp_power", {"p": 1.5}, "p")])
def test_special_functions_load_when_their_law_is_built(name, params, param):
    # a rejected parameter raises before the import
    out = _fresh_python(
        "import sys\n"
        "from tcilab import measures\n"
        "try:\n"
        f"    measures.make_builtin({name!r}, {param}=float('nan'))\n"
        "except ValueError:\n"
        "    print('scipy.special' in sys.modules)\n"
        f"measures.make_builtin({name!r}, **{params!r})\n"
        "print('scipy.special' in sys.modules)")
    assert out == ["False", "True"]


def test_cost_lp_loads_its_solver_on_first_call():
    out = _fresh_python(
        "import sys, numpy as np, tcilab\n"
        "loaded = 'scipy.optimize' in sys.modules\n"
        "x = np.array([0.0, 1.0, 2.0])\n"
        "nu = tcilab.DiscreteMeasure(x, np.array([0.2, 0.3, 0.5]))\n"
        "mu = tcilab.DiscreteMeasure(x, np.array([0.5, 0.3, 0.2]))\n"
        "val, plan = tcilab.cost_lp(nu, mu, np.abs(x[:, None] - x[None, :]))\n"
        "print(loaded, 'scipy.optimize' in sys.modules, repr(val))")
    assert out[:2] == ["False", "True"]
    # W1 on the line: the area between the two cdfs, 0.3 + 0.3
    assert float(out[2]) == pytest.approx(0.6, abs=1e-12)


def test_no_scipy_import_at_module_level():
    # scipy.special is imported inside the gaussian and exp_power builders,
    # scipy.optimize/sparse inside cost_lp and scipy.integrate inside
    # numerics.quad
    src = Path(numerics.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = {id(n) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in local:
                continue
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[0] == "scipy":
                found += [f"{path.name}: from {node.module} import {a.name}"
                          for a in node.names]
            elif isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "scipy"]
    assert found == []


def _pchip_tables():
    xs = np.linspace(-4.0, 4.0, 129)
    ts, tc = np.linspace(0.0, 6.0, 200), np.linspace(0.0, 8.0, 33)
    tables = {
        # the benchmark's two potential tables
        "quartic": (xs, xs ** 4 / 4.0),
        "huber": (xs, np.where(np.abs(xs) <= 1.0, 0.5 * xs * xs,
                               np.abs(xs) - 0.5) + 0.3 * np.sin(xs)),
        # the table costs of the cost and transport tests
        "t_squared": (ts, ts * ts),
        "spliced": (tc, np.where(tc <= 1.0, tc * tc, 2.0 * tc - 1.0)),
        "four_points": (np.array([-1.0, 0.0, 0.5, 3.0]),
                        np.array([2.0, 0.0, 0.0, 4.0])),
        # left end: the three-point slope -3.5 has the wrong sign (0);
        # right end: it overshoots 3 m0 where the secants change sign
        "clamps": (np.arange(5.0), np.array([0.0, 1.0, 11.0, 1.0, 2.0])),
    }
    rng = np.random.default_rng(12)
    for n in (4, 5, 17, 64, 129):
        x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
        y = rng.normal(size=n)
        y[rng.integers(0, n - 1, n // 4)] = 0.5      # flat segments
        tables[f"random_{n}"] = (x, y)
        tables[f"monotone_{n}"] = (x, np.cumsum(np.abs(y)))
    return tables


class TestPchip:
    @pytest.mark.parametrize("name", list(_pchip_tables()))
    def test_bit_identical_to_scipy(self, name):
        x, y = _pchip_tables()[name]
        ref = interpolate.PchipInterpolator(x, y, extrapolate=False)
        f, df = numerics.pchip(x, y)
        rng = np.random.default_rng(5)
        q = np.concatenate((x, 0.5 * (x[1:] + x[:-1]),
                            rng.uniform(x[0], x[-1], 10000),
                            [x[0] - 1e-9, x[-1] + 1e-9, -np.inf, np.inf,
                             np.nan]))
        assert np.array_equal(f(q), ref(q), equal_nan=True)
        assert np.array_equal(df(q), ref.derivative()(q), equal_nan=True)
        assert np.isnan(f(q[-5:])).all() and np.isnan(df(q[-5:])).all()

    def test_end_clamps_fire(self):
        x, y = _pchip_tables()["clamps"]
        _, df = numerics.pchip(x, y)
        assert df(x[0]) == 0.0
        assert df(x[-1]) == 3.0

    def test_interpolates_and_keeps_the_query_shape(self):
        x, y = _pchip_tables()["huber"]
        f, df = numerics.pchip(x, y)
        assert np.array_equal(f(x[:-1]), y[:-1])
        assert f(x[-1]) == pytest.approx(y[-1], rel=1e-15)
        q = x[3:15].reshape(3, 4)
        assert f(q).shape == df(q).shape == (3, 4)
        # more queries than one evaluation block
        q = np.linspace(x[0], x[-1], 9000).reshape(100, 90)
        assert np.array_equal(df(q), df(q.ravel()).reshape(100, 90))
        assert np.ndim(f(x[7])) == 0 and float(f(x[7])) == y[7]

    def test_rejects_short_or_mismatched_tables(self):
        with pytest.raises(ValueError):
            numerics.pchip([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            numerics.pchip([0.0, 1.0, 2.0], [0.0, 1.0])


class TestMonotoneRoot:
    def test_newton_and_bisection_agree_with_closed_form(self):
        target = np.geomspace(1e-6, 1e3, 40)
        lo, hi = np.zeros(40), np.full(40, 64.0)
        want = target ** (1.0 / 3.0)
        bis = numerics.monotone_root(lambda x: x ** 3, target, lo, hi)
        newton = numerics.monotone_root(lambda x: x ** 3, target, lo, hi,
                                        tol=1e-14 * target,
                                        slope=lambda x: 3.0 * x * x)
        np.testing.assert_allclose(bis, want, rtol=1e-15)
        np.testing.assert_allclose(newton, want, rtol=1e-14)
        # the brackets passed in are left as they were
        assert lo.tolist() == [0.0] * 40 and hi.tolist() == [64.0] * 40

    def test_start_outside_bracket_and_flat_steps(self):
        # a start outside the bracket begins at the midpoint; a zero slope
        # falls back to bisection
        out = numerics.monotone_root(
            lambda x: np.floor(4.0 * x) / 4.0 + x, np.array([1.6, 2.0]),
            np.array([0.0, 0.0]), np.array([2.0, 2.0]),
            slope=lambda x: np.zeros_like(x), x=np.array([5.0, 1.0]))
        assert out[0] == pytest.approx(0.85, abs=1e-15)
        assert out[1] == 1.0

    def test_jump_stops_at_collapsed_bracket(self):
        # no root: the bracket collapses onto the jump at 1
        out = numerics.monotone_root(lambda x: np.where(x < 1.0, -1.0, 1.0),
                                     np.zeros(1), [0.0], [3.0])
        assert out[0] in (1.0, np.nextafter(1.0, 0.0))


def test_no_scalar_solver_is_reached(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.brentq called")

    monkeypatch.setattr(optimize, "brentq", refuse)
    xs = np.linspace(-4.0, 4.0, 129)
    mu = measures.make_from_table(xs, xs ** 4 / 4.0)
    levels = np.array([1e-9, 0.2, 0.5, 0.9])
    assert np.all(np.diff(mu.quantile(levels)) > 0)
    assert np.all(np.diff(mu.isf(levels)) < 0)
    ts = np.linspace(0.0, 6.0, 200)
    profile, a0, _ = criteria.lsi_tilde_potential(
        measures.make_builtin("gaussian"))
    for cost in (costs.builtin_cost("gamma", lam=0.5),
                 costs.cost_from_table(ts, ts * ts),
                 costs.conjugate(costs.builtin_cost("theta_p", p=2)),
                 profile):
        assert np.all(np.diff(cost.inverse(np.array([0.1, 1.0, 10.0]))) > 0)
    assert a0 == pytest.approx(math.sqrt(2.0), rel=1e-15)
