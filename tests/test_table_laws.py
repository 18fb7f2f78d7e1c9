"""Table laws: bit pins of every value a tabulated law or cost returns, and
the number of root-finds the log-concave route makes on one."""

import hashlib

import numpy as np
import pytest

from tcilab import cli, criteria
from tcilab.costs import builtin_cost, cost_from_table
from tcilab.measures import (_GRID_LEVEL, Measure1D, is_log_concave,
                             make_from_table)


def _tables():
    """The benchmark's two potential tables: 129 points over [-4, 4]."""
    xs = np.linspace(-4.0, 4.0, 129)
    huber = np.where(np.abs(xs) <= 1.0, 0.5 * xs * xs, np.abs(xs) - 0.5) \
        + 0.3 * np.sin(xs)
    return xs, {"quartic": xs ** 4 / 4.0, "huber": huber}


def _probes(knots, lo, hi, seed):
    """Random points over [lo, hi], every knot with both float neighbours,
    +-0, +-inf and nan."""
    rand = np.random.default_rng(seed).uniform(lo, hi, 500)
    near = np.concatenate((np.nextafter(knots, -np.inf), knots,
                           np.nextafter(knots, np.inf)))
    return np.concatenate((rand, near, [0.0, -0.0, np.inf, -np.inf, np.nan]))


def _digest(values):
    data = np.ascontiguousarray(np.asarray(values, dtype=float), "<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _law_values(name):
    xs, tables = _tables()
    mu = make_from_table(xs, tables[name])
    x = _probes(xs, mu.grid[0], mu.grid[-1], seed=3)
    return {"potential": mu.potential(x),
            "potential_deriv": mu.potential_deriv(x),
            "cdf": mu.cdf(x), "sf": mu.sf(x),
            "quantile": mu.quantile(np.array([_GRID_LEVEL, 0.5,
                                              1.0 - _GRID_LEVEL])),
            "logZ_median": [mu.logZ, mu.median]}


def _cost_values():
    ts = np.linspace(0.0, 4.0, 33)
    cost = cost_from_table(ts, np.where(ts <= 1.0, ts * ts, 2.0 * ts - 1.0))
    t = _probes(np.concatenate((-ts[::-1], ts)), -8.0, 8.0, seed=4)
    return {"fn": cost.fn(t), "deriv": cost.deriv(t)}


#: digests (first 16 hex digits of the sha256 of the little-endian float64
#: bytes) taken before the table evaluator and the value-only Kronrod rule
#: replaced the clipped PCHIP calls and the full G7/K15 rule
_PINS = {
    "quartic": {"potential": "ecdf5dbf9df221c1",
                "potential_deriv": "7cf542502287c33c",
                "cdf": "ce105f96aec12dfe", "sf": "7e74a51763bddf19",
                "quantile": "49b0624f1db61db4",
                "logZ_median": "f2aefe287b38f962"},
    "huber": {"potential": "907f128f59dc47e9",
              "potential_deriv": "da4beaa1d8aa86be",
              "cdf": "4d275e1d0a781c08", "sf": "c35a921207ca133e",
              "quantile": "b840a0edb48461f7",
              "logZ_median": "f1078f2330d68d59"},
    "cost": {"fn": "829a7652be195d95", "deriv": "9c3b2a95a8a48bc3"},
}


@pytest.mark.parametrize("law", ["quartic", "huber"])
def test_table_law_values_keep_their_bits(law):
    got = {k: _digest(v) for k, v in _law_values(law).items()}
    assert got == _PINS[law]


def test_table_cost_values_keep_their_bits():
    got = {k: _digest(v) for k, v in _cost_values().items()}
    assert got == _PINS["cost"]


@pytest.fixture
def quantile_levels(monkeypatch):
    """Every level ``Measure1D.quantile`` is called at, in call order."""
    levels, quantile = [], Measure1D.quantile

    def counted(self, t):
        levels.append(t)
        return quantile(self, t)
    monkeypatch.setattr(Measure1D, "quantile", counted)
    return levels


def test_the_scan_ends_are_found_once_per_law(quantile_levels):
    xs, tables = _tables()
    mu = make_from_table(xs, tables["quartic"])
    quantile_levels.clear()
    is_log_concave(mu)
    criteria.decide_strong_tci_logconcave(mu, builtin_cost("alpha1"))
    criteria.lipschitz_check(mu)
    criteria.muckenhoupt(mu)
    ends = [t for t in quantile_levels
            if np.isscalar(t) and t in (_GRID_LEVEL, 1.0 - _GRID_LEVEL)]
    assert sorted(ends) == [_GRID_LEVEL, 1.0 - _GRID_LEVEL]


def test_analyze_on_a_table_law_makes_few_root_finds(quantile_levels,
                                                     tmp_path):
    xs, tables = _tables()
    path = tmp_path / "quartic.csv"
    path.write_text("x,V\n" + "".join(f"{x!r},{v!r}\n" for x, v in
                                      zip(xs.tolist(),
                                          tables["quartic"].tolist())))
    cli.run_analyze(cli.AnalysisConfig(measure=f"table file={path}",
                                       dual_trials=50))
    assert len(quantile_levels) <= 9
