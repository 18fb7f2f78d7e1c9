"""Tests for the refutation harness: dual products, ray integrability,
two-set bounds, tensorized transport, Monte Carlo concentration and its
deterministic bracket, and the entropy inequality checker."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from test_numerics import _fresh_python

from tcilab import costs, measures, numerics, transport, verify
from tcilab.verify import (
    NO_VIOLATION,
    VIOLATION_FOUND,
    DualTestReport,
    concentration_bracket,
    concentration_mc,
    dual_check_strong,
    integrability_check,
    lsi_check,
    marton_bound_check,
    tci_to_strong_cost,
    tensor_check,
)

SCALE = 0.25
PREF = 1.0 / 72.0


@pytest.fixture(scope="module")
def gauss_half():
    return measures.make_builtin("gaussian", sigma=2.0 ** -0.5)


@pytest.fixture(scope="module")
def quartic_table():
    xs = np.linspace(-4.0, 4.0, 129)
    return measures.make_from_table(xs, xs ** 4 / 4.0)


@pytest.fixture(scope="module")
def mc_laws(quartic_table):
    laws = {name: measures.make_builtin(name, **params) for name, params in (
        ("exponential", {}), ("gaussian", {}), ("exp_power", {"p": 1.5}),
        ("cauchy", {}))}
    laws["quartic"] = quartic_table
    return laws


# criterion 10's margins (gaussian sigma 2**-0.5, conjugate of theta_p 2,
# C = 1, t = 8) as integrated by scalar adaptive quad at 1e-10 / 1e-8
_CRITERION_10_MARGINS = [
    ("tilt_+0.25", -0.23806586828376128),
    ("tilt_-0.25", -0.23806586828376125),
    ("tilt_+0.5", -0.9979635454723744),
    ("tilt_-0.5", -0.9979635454723744),
    ("tilt_+1", -4.815094979437923),
    ("tilt_-1", -4.815094979437922),
    ("tilt_+1.5", -14.808267153373583),
    ("tilt_-1.5", -14.808267153373583),
    ("tilt_+2", -40.77412613892941),
    ("tilt_-2", -40.774126138929404),
    ("tilt_+3", -320.1932930481621),
    ("tilt_-3", -320.1932930481621),
    ("tilt_+4", -3273.3383400642956),
    ("tilt_-4", -3273.3383400642956),
    ("bump_0", -5.677335881189773),
    ("bump_1", -11.650397096911107),
    ("bump_2", -7.623128761240794),
    ("bump_3", -18.172739601723887),
    ("bump_4", -5.677335881189773),
    ("bump_5", -11.650397096911107),
    ("bump_6", -0.0567961073422077),
    ("bump_7", -0.1165377278626893),
    ("bump_8", -0.07622699459094029),
    ("bump_9", -0.18175764896809704),
    ("bump_10", -0.0567961073422077),
    ("bump_11", -0.11653772786268952),
    ("bump_12", -0.000567995797690194),
    ("bump_13", -0.0011654193344617975),
    ("bump_14", -0.0007622738981455343),
    ("bump_15", -0.0018176183433171724),
    ("bump_16", -0.000567995797690194),
    ("bump_17", -0.0011654193344617975),
    ("dip_18", -4.879720934942126),
    ("dip_19", -11.636095100860175),
    ("dip_20", -0.04878593062642935),
    ("dip_21", -0.11633042396595786),
    ("step_0", -9.104353464665216),
    ("step_1", -14.664678123741691),
    ("step_2", -9.05039081432393),
    ("step_3", -9.05039081432393),
    ("step_4", -14.664678123741691),
    ("step_5", -9.104353464665216),
    ("step_6", -0.36337856379673655),
    ("step_7", -0.5861378007613476),
    ("step_8", -0.3627752961583729),
    ("step_9", -0.3627752961583729),
    ("step_10", -0.5861378007613476),
    ("step_11", -0.3633785637967363),
    ("constant_1", 1.9999557565577573e-12),
    ("constant_e", 1.4775736190131283e-11),
]


class TestDualCheck:
    def test_reference_law_not_refuted(self, mu1, alpha1):
        rep = dual_check_strong(mu1, alpha1, scale=SCALE, prefactor=PREF,
                                trials=40, seed=0)
        assert rep.status == NO_VIOLATION
        assert rep.worst_product <= 1.0 + 1e-6
        assert rep.trials >= 40          # adversarial candidates included
        assert not rep.violated

    def test_plain_form_not_refuted(self, mu1, alpha1):
        rep = dual_check_strong(mu1, alpha1, scale=SCALE, prefactor=PREF,
                                trials=40, seed=0, plain=True)
        assert rep.status == NO_VIOLATION
        assert rep.plain_form

    def test_oversized_cost_is_refuted(self, mu1, alpha1):
        # ten times the canonical cost breaks the product immediately
        rep = dual_check_strong(mu1, alpha1, scale=1.0, prefactor=10.0,
                                trials=60, seed=0)
        assert rep.status == VIOLATION_FOUND
        assert rep.worst_product > 10.0
        assert rep.worst_label != ""
        assert rep.violated

    def test_report_status_must_match_product(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DualTestReport(trials=1, worst_product=2.0, worst_phi=None,
                           status=NO_VIOLATION, seed=0)

    def test_deterministic_in_seed(self, mu1, alpha1):
        a = dual_check_strong(mu1, alpha1, scale=SCALE, prefactor=PREF,
                              trials=25, seed=7)
        b = dual_check_strong(mu1, alpha1, scale=SCALE, prefactor=PREF,
                              trials=25, seed=7)
        assert a.worst_product == b.worst_product
        assert a.worst_label == b.worst_label

    def test_conjugate_cost_runs_no_column_search(self, mu1, theta2,
                                                  monkeypatch):
        # the engine's stationary offsets solve c' = |s| on the conjugate's
        # exact derivative; its central difference ran two column searches
        # per step (about 9 s for this call)
        calls = []
        search = numerics._golden_columns
        monkeypatch.setattr(numerics, "_golden_columns",
                            lambda *a: calls.append(1) or search(*a))
        rep = dual_check_strong(mu1, costs.conjugate(theta2), scale=1.0,
                                prefactor=10.0, trials=5, seed=0)
        assert calls == []
        assert rep.worst_product == pytest.approx(488021.337948179,
                                                  rel=1e-13)


def _unscreened_dual(mu, alpha, scale, prefactor, trials, seed, plain):
    """The dual loop with no screening: every candidate's exact product
    through ``engine.q``, then the first strict argmax."""
    knots, candidates = verify._dual_family(mu, trials, seed)
    quadr = verify._DualQuadrature(mu, knots)
    engine = transport.ExactInfConvolution(quadr.query, knots, alpha, scale,
                                           prefactor)
    worst, worst_vals, worst_label = -math.inf, None, ""
    for label, vals in candidates:
        qv = engine.q(vals)
        first = quadr.exp_integral(qv)
        phi = np.interp(quadr.query, knots, vals)
        if plain:
            second = math.exp(-quadr.mean(phi))
        else:
            second = quadr.exp_integral(-phi)
        p = first * second
        if p > worst:
            worst, worst_vals, worst_label = p, vals, label
    return worst, worst_vals, worst_label, len(candidates)


@pytest.mark.parametrize("law,cost,params,scale,prefactor,trials,plain", [
    # criterion 1's family, criterion 2's refutation, the plain form, and
    # a gaussian with the quadratic-power cost
    ("exponential", "alpha1", {}, None, 1.0 / 36.0, 300, False),
    ("exponential", "alpha1", {}, 1.0, 10.0, 200, False),
    ("exponential", "alpha1", {}, SCALE, PREF, 100, True),
    ("gaussian", "theta_p", {"p": 2.0}, 0.5, PREF, 200, False),
    # heavy tails: the knot-only bound at the far window edges would
    # overflow exp without the max(phi) cap
    ("cauchy", "alpha_p", {"p": 1.5}, 0.1, 1.0 / 36.0, 60, False),
])
def test_screening_keeps_the_unscreened_argmax(law, cost, params, scale,
                                               prefactor, trials, plain):
    mu = measures.make_builtin(law)
    alpha = costs.builtin_cost(cost, **params)
    rep = dual_check_strong(mu, alpha, scale=scale, prefactor=prefactor,
                            trials=trials, seed=0, plain=plain)
    worst, vals, label, count = _unscreened_dual(mu, alpha, scale, prefactor,
                                                 trials, 0, plain)
    assert rep.worst_product == worst
    assert rep.worst_label == label
    np.testing.assert_array_equal(rep.worst_phi.values, vals)
    assert rep.status == (VIOLATION_FOUND if worst > 1.0 + verify.DUAL_SLACK
                          else NO_VIOLATION)
    assert rep.trials == count
    if prefactor == 1.0 / 36.0:
        assert rep.screened > 0
    assert 0 <= rep.screened < rep.trials


@pytest.mark.parametrize("scale,prefactor", [(1.0, 1.0), (0.25, 4.0),
                                              (1.0, 10.0)])
def test_screening_with_positive_cost_at_zero(mu1, alpha1, scale, prefactor):
    # alpha(0) > 0: Q phi can exceed max(phi) by c(0), so the bound's cap
    # must be max(phi) + c(0) or the true argmax may be screened out
    lifted = dataclasses.replace(alpha1, name="alpha1+1",
                                 fn=lambda t: alpha1.fn(t) + 1.0)
    rep = dual_check_strong(mu1, lifted, scale=scale, prefactor=prefactor,
                            trials=60, seed=0)
    worst, vals, label, count = _unscreened_dual(mu1, lifted, scale,
                                                 prefactor, 60, 0, False)
    assert rep.worst_product == worst
    assert rep.worst_label == label
    np.testing.assert_array_equal(rep.worst_phi.values, vals)
    assert rep.trials == count


def _spliced_table_cost():
    # a PCHIP table of the quadratic-linear profile, exact PCHIP c'
    ts = np.linspace(0.0, 8.0, 33)
    return costs.cost_from_table(ts, np.where(ts <= 1.0, ts * ts,
                                              2.0 * ts - 1.0))


def _lifted_alpha1():
    # c(0) = 1 > 0, as in test_screening_with_positive_cost_at_zero
    alpha1 = costs.builtin_cost("alpha1")
    return dataclasses.replace(alpha1, name="alpha1+1",
                               fn=lambda t: alpha1.fn(t) + 1.0)


@pytest.mark.parametrize("law,make_cost,scale,prefactor,plain", [
    ("exponential", lambda: costs.builtin_cost("alpha1"), None, 1.0 / 36.0,
     False),
    ("exponential", lambda: costs.builtin_cost("alpha1"), 1.0, 10.0, False),
    ("gaussian", lambda: costs.builtin_cost("theta_p", p=2.0), 0.5, PREF,
     False),
    ("cauchy", lambda: costs.builtin_cost("alpha_p", p=1.5), 0.1, 1.0 / 36.0,
     False),
    ("exponential", _spliced_table_cost, 0.25, 1.0 / 36.0, False),
    ("exponential", _spliced_table_cost, 1.0, 10.0, False),
    ("exponential", _lifted_alpha1, 1.0, 1.0, False),
    ("exponential", _lifted_alpha1, 0.25, 4.0, False),
    ("exponential", lambda: costs.builtin_cost("alpha1"), SCALE, PREF, True),
], ids=["alpha1-certify", "alpha1-refute", "gaussian-theta2",
        "cauchy-alpha_p1.5", "table-certify", "table-refute", "lifted-1-1",
        "lifted-0.25-4", "alpha1-plain"])
def test_cell_bound_covers_every_exact_product(law, make_cost, scale,
                                               prefactor, plain):
    # the first screening tier must bound each candidate's product as the
    # exact pass computes it, or the argmax could be screened out
    mu, alpha = measures.make_builtin(law), make_cost()
    knots, candidates = verify._dual_family(mu, 40, 0)
    quadr = verify._DualQuadrature(mu, knots)
    engine = transport.ExactInfConvolution(quadr.query, knots, alpha, scale,
                                           prefactor)
    c0 = float(transport._ground(alpha, scale, prefactor)[1](0.0))
    bounds = verify._cell_bounds(quadr, engine.cell_max(quadr.cell_starts),
                                 [vals for _, vals in candidates], c0)
    assert bounds.shape == (len(candidates),)
    for (label, vals), bound in zip(candidates, bounds):
        qv = engine.q(vals)
        first = quadr.exp_integral(qv)
        phi = np.interp(quadr.query, knots, vals)
        if plain:
            second = math.exp(-quadr.mean(phi))
        else:
            second = quadr.exp_integral(-phi)
        assert first * second <= bound, label


def test_cell_tier_decides_most_certify_candidates(mu1, alpha1):
    # at criterion 1's setting the cell bounds alone sit below the constant
    # potentials' product 1 for almost every candidate
    knots, candidates = verify._dual_family(mu1, 200, 0)
    quadr = verify._DualQuadrature(mu1, knots)
    engine = transport.ExactInfConvolution(quadr.query, knots, alpha1, None,
                                           1.0 / 36.0)
    bounds = verify._cell_bounds(quadr, engine.cell_max(quadr.cell_starts),
                                 [vals for _, vals in candidates], 0.0)
    assert np.count_nonzero(bounds < 1.0 - 1e-9) > 0.95 * len(candidates)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make_cost,law,scale,prefactor", [
    (_spliced_table_cost, "exponential", 0.25, 1.0 / 36.0),
    (_spliced_table_cost, "exponential", 1.0, 10.0),
    (lambda: costs.builtin_cost("theta_p", p=2.0), "gaussian", 0.5, PREF),
    (lambda: costs.builtin_cost("theta_p", p=2.0), "gaussian", 1.0, 0.3),
], ids=["table-certify", "table-refute", "gaussian-theta2",
        "gaussian-theta2-refute"])
def test_cell_screening_keeps_the_unscreened_report(make_cost, law, scale,
                                                    prefactor, seed):
    mu, alpha = measures.make_builtin(law), make_cost()
    rep = dual_check_strong(mu, alpha, scale=scale, prefactor=prefactor,
                            trials=60, seed=seed)
    worst, vals, label, count = _unscreened_dual(mu, alpha, scale, prefactor,
                                                 60, seed, False)
    assert rep.worst_product == worst
    assert rep.worst_label == label
    np.testing.assert_array_equal(rep.worst_phi.values, vals)
    assert rep.trials == count


def test_dual_family_reads_each_level_once(monkeypatch, mu1):
    # one quantile call for the knots and one array call over the distinct
    # levels of the rays, wells and plateaus
    levels = []
    quantile = mu1.quantile
    monkeypatch.setattr(mu1, "quantile",
                        lambda t: levels.append(t) or quantile(t))
    _knots, candidates = verify._dual_family(mu1, 0, 0)
    assert len(candidates) == 63
    assert len(levels) == 2
    assert sorted(levels[1]) == [0.1, 0.25, 0.4, 0.45, 0.5, 0.55, 0.6, 0.75,
                                 0.9]


def test_best_first_screening_leaves_few_exact_passes(mu1, alpha1):
    # the benchmark's refutation case: visited in family order, 33 of the
    # 113 candidates took the exact pass; best first, the early stop leaves 4
    rep = dual_check_strong(mu1, alpha1, scale=1.0, prefactor=10.0,
                            trials=50, seed=7)
    assert rep.trials == 113
    assert rep.trials - rep.screened <= 8


@pytest.mark.parametrize("forced", [math.nan, math.inf])
def test_non_finite_cell_bound_is_still_visited(monkeypatch, mu1, alpha1,
                                                forced):
    # a NaN bound must sort like +inf: sorted last, the early stop would
    # end the loop before it and lose the argmax it belongs to
    kwargs = dict(scale=1.0, prefactor=10.0, trials=50, seed=7)
    ref = dual_check_strong(mu1, alpha1, **kwargs)
    _knots, candidates = verify._dual_family(mu1, 50, 7)
    k = [label for label, _ in candidates].index(ref.worst_label)
    cell_bounds = verify._cell_bounds

    def forced_bounds(*args):
        out = cell_bounds(*args)
        out[k] = forced
        return out

    monkeypatch.setattr(verify, "_cell_bounds", forced_bounds)
    rep = dual_check_strong(mu1, alpha1, **kwargs)
    assert rep.worst_product == ref.worst_product
    assert rep.worst_label == ref.worst_label


def test_equal_products_keep_the_lowest_family_index(monkeypatch, mu1,
                                                     alpha1):
    # bounds rising with the index (and above the true ones) make the loop
    # visit the family backwards; the constants' tie must still go to the
    # first of them, as in family order
    kwargs = dict(prefactor=1.0 / 36.0, trials=50, seed=0)
    ref = dual_check_strong(mu1, alpha1, **kwargs)
    assert ref.worst_label == "constant_-10"
    cell_bounds = verify._cell_bounds

    def rising(*args):
        out = cell_bounds(*args)
        return out.max() * (2.0 + np.arange(len(out)))

    monkeypatch.setattr(verify, "_cell_bounds", rising)
    rep = dual_check_strong(mu1, alpha1, **kwargs)
    assert rep.worst_product == ref.worst_product
    assert rep.worst_label == "constant_-10"
    np.testing.assert_array_equal(rep.worst_phi.values,
                                  ref.worst_phi.values)


@pytest.mark.parametrize("kwargs", [
    {"prefactor": math.nan}, {"scale": math.nan}, {"scale": math.inf},
    {"prefactor": math.inf}, {"scale": 0.0}, {"prefactor": -1.0},
])
def test_dual_rejects_bad_scale_or_prefactor(mu1, alpha1, kwargs):
    # a NaN product used to be skipped by the argmax, which then reported
    # no_violation with worst_product -inf
    with pytest.raises(ValueError, match="finite and positive"):
        dual_check_strong(mu1, alpha1, trials=5, **kwargs)


def test_integrability_rejects_nan_prefactor(mu1, alpha1):
    with pytest.raises(ValueError, match="finite and positive"):
        integrability_check(mu1, alpha1, prefactor=math.nan)


class TestIntegrability:
    def test_reference_law_holds(self, mu1, alpha1):
        v = integrability_check(mu1, alpha1, scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        assert v.constants["worst_ray_product"] == pytest.approx(
            0.9500782311178766, rel=1e-9)
        assert v.diagnostics["rows"]

    def test_oversized_cost_fails(self, mu1, alpha1):
        v = integrability_check(mu1, alpha1, scale=1.0, prefactor=10.0)
        assert v.status == "fails"

    def test_heavy_tail_fails(self, cauchy, alpha1):
        v = integrability_check(cauchy, alpha1, scale=SCALE, prefactor=PREF)
        assert v.status == "fails"


class TestMartonBound:
    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
    def test_reference_law_half_line_pairs(self, mu1, alpha1, t):
        v = marton_bound_check(mu1, alpha1, [((-math.inf, 0.0), (t, math.inf))],
                               scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        row = v.diagnostics["rows"][0]
        assert row["gap"] == t
        assert row["cost"] <= row["bound"]

    def test_identical_sets_trivial(self, mu1, alpha1):
        v = marton_bound_check(mu1, alpha1, [((-1.0, 1.0), (-1.0, 1.0))],
                               scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        assert v.diagnostics["rows"][0]["gap"] == 0.0

    def test_inflated_scale_fails(self, mu1, alpha1):
        v = marton_bound_check(mu1, alpha1, [((-math.inf, 0.0), (2.0, math.inf))],
                               scale=2.0, prefactor=1.0)
        assert v.status == "fails"
        row = v.diagnostics["rows"][0]
        assert row["cost"] > row["bound"]

    def test_far_tail_sets_have_usable_mass(self, mu1, alpha1):
        # both sets live 50 units out where the cdf rounds to 1.0; the
        # survival side keeps the mass representable
        v = marton_bound_check(mu1, alpha1, [((50.0, 51.0), (-51.0, -50.0))],
                               scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        row = v.diagnostics["rows"][0]
        assert 0.0 < row["mass_a"] < 1e-20
        assert row["gap"] == 100.0

    def test_zero_mass_set_rejected(self, mu1, alpha1):
        with pytest.raises(ValueError, match="zero-mass"):
            marton_bound_check(mu1, alpha1, [((1e9, 2e9), (0.0, 1.0))],
                               scale=SCALE, prefactor=PREF)


def _clamped_cdf(mu, x):
    """cdf with +-inf clamped to 1 and 0 before the call."""
    return 1.0 if x == math.inf else 0.0 if x == -math.inf else \
        float(mu.cdf(x))


def _clamped_sf(mu, x):
    return 0.0 if x == math.inf else 1.0 if x == -math.inf else \
        float(mu.sf(x))


def _clamped_mass(mu, lo, hi):
    """The interval mass rule of the verifiers from the clamped cdf and sf."""
    if hi <= mu.median:
        return _clamped_cdf(mu, hi) - _clamped_cdf(mu, lo)
    if lo >= mu.median:
        return _clamped_sf(mu, lo) - _clamped_sf(mu, hi)
    return 1.0 - _clamped_cdf(mu, lo) - _clamped_sf(mu, hi)


_INF_PAIRS = [((1.0, math.inf), (-math.inf, -1.0)),
              ((-math.inf, 0.5), (2.0, math.inf)),
              ([(-math.inf, -3.0), (3.0, math.inf)], (0.0, 1.0)),
              ((-math.inf, math.inf), (-2.0, -1.0))]


@pytest.mark.parametrize("law", ["exponential", "quartic"])
def test_infinite_endpoints_give_the_clamped_masses(mu1, alpha1, quartic_table,
                                                    law):
    mu = mu1 if law == "exponential" else quartic_table
    v = marton_bound_check(mu, alpha1, _INF_PAIRS, scale=SCALE, prefactor=PREF)
    for pair, row in zip(_INF_PAIRS, v.diagnostics["rows"]):
        for spec, key in zip(pair, ("mass_a", "mass_b")):
            want = sum(_clamped_mass(mu, lo, hi)
                       for lo, hi in verify._as_intervals(spec))
            assert row[key] == want
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.3), (-math.inf, math.inf)):
        for n in (1, 3):
            rep = concentration_mc(mu, alpha1, scale=SCALE, prefactor=PREF,
                                   A=(lo, hi), n=n, samples=200, seed=2)
            assert rep.mass_a == _clamped_mass(mu, lo, hi) ** n


def test_interval_masses_are_exact_in_each_tail(mu1, alpha1):
    # a difference of the tail the interval lies in: the sf difference
    # cancels left of the median, the cdf difference right of it
    v = marton_bound_check(mu1, alpha1, [((-math.inf, -20.0), (0.0, 1.0))],
                           scale=SCALE, prefactor=PREF)
    want = 0.5 * math.exp(-20.0)
    assert abs(v.diagnostics["rows"][0]["mass_a"] / want - 1.0) <= 1e-15
    rep = concentration_mc(mu1, alpha1, scale=SCALE, prefactor=PREF,
                           A=(30.0, 40.0), samples=200, seed=2)
    want = 0.5 * (math.exp(-30.0) - math.exp(-40.0))
    assert abs(rep.mass_a / want - 1.0) <= 1e-15


class TestTensorization:
    def test_product_of_reference_law(self, mu1, alpha1):
        dn = measures.quantile_discretize(mu1, 8)
        v = tensor_check(dn, alpha1, n=2, trials=40, seed=0,
                         scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        assert v.diagnostics["worst_slack"] <= 1e-7
        assert v.diagnostics["states"] == 64

    def test_state_cap_is_reachable(self, mu1, alpha1):
        # 6**4 = 1296 product states: the largest LP tensor_check poses
        dn = measures.quantile_discretize(mu1, 6)
        v = tensor_check(dn, alpha1, n=4, trials=1, seed=0,
                         scale=SCALE, prefactor=PREF)
        assert v.status == "holds"
        assert v.diagnostics["worst_slack"] <= 1e-7
        assert v.diagnostics["states"] == 1296

    @pytest.mark.parametrize("prefactor,form", [(1.0, "plain"),
                                                (4.0, "two_measure")])
    def test_oversized_cost_is_refuted(self, mu1, alpha1, prefactor, form):
        dn = measures.quantile_discretize(mu1, 6)
        v = tensor_check(dn, alpha1, n=2, trials=20, seed=0, scale=1.0,
                         prefactor=prefactor)
        assert v.status == "fails"
        assert v.diagnostics["worst_slack"] > verify._TENSOR_SLACK
        name, got = v.diagnostics["worst_case"].split(":")
        assert name.startswith("trial_") and got == form

    def test_dimension_range_enforced(self, mu1, alpha1):
        dn = measures.quantile_discretize(mu1, 8)
        with pytest.raises(ValueError, match="between 2 and 4"):
            tensor_check(dn, alpha1, n=5)
        with pytest.raises(ValueError, match="between 2 and 4"):
            tensor_check(dn, alpha1, n=1)

    def test_atom_cap_enforced(self, mu1, alpha1):
        dn = measures.quantile_discretize(mu1, 13)
        with pytest.raises(ValueError, match="at most 12 atoms"):
            tensor_check(dn, alpha1, n=3)


def _unscreened_tensor(mu_discrete, cost, n, trials, seed, scale, prefactor):
    """The tensor loop with no screening: every pair's exact LP."""
    c1 = transport.cost_matrix(mu_discrete, mu_discrete, cost, scale=scale,
                               prefactor=prefactor)
    C = verify._product_cost(c1, n)
    n_states = len(mu_discrete) ** n
    labels = np.arange(n_states, dtype=float)
    W = verify._product_weights([mu_discrete.weights] * n)
    mu_prod = measures.DiscreteMeasure(labels, W / W.sum())
    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    def random_measure():
        w = np.clip(rng.dirichlet(np.ones(n_states)), 1e-300, None)
        return measures.DiscreteMeasure(labels, w / w.sum())

    worst = -math.inf
    worst_case = ""
    pairs = [("mu_n", mu_prod, None)]
    pairs += [(f"trial_{i}", random_measure(), random_measure())
              for i in range(trials)]
    for name, nu, beta in pairs:
        T, _ = transport.cost_lp(nu, mu_prod, C, max_atoms=n_states)
        H = transport.relative_entropy(nu, mu_prod)
        slack = T - H
        if slack > worst:
            worst, worst_case = slack, f"{name}:plain"
        if beta is not None:
            T2, _ = transport.cost_lp(nu, beta, C, max_atoms=n_states)
            H2 = transport.relative_entropy(beta, mu_prod)
            slack2 = T2 - H - H2
            if slack2 > worst:
                worst, worst_case = slack2, f"{name}:two_measure"
    diagnostics = {"worst_slack": float(worst), "worst_case": worst_case,
                   "states": n_states, "seed": int(seed)}
    if worst > verify._TENSOR_SLACK:
        return "fails", {}, diagnostics
    return "holds", {"trials": float(len(pairs))}, diagnostics


# (cost, params, atoms, n, trials, scale, prefactor): the benchmark's
# config, test_product_of_reference_law's at half its trials, a holding one
# whose screen leaves some LPs, and four that refute
_TENSOR_PANEL = [
    ("alpha1", {}, 6, 3, 3, SCALE, PREF),
    ("alpha1", {}, 8, 2, 20, SCALE, PREF),
    ("alpha1", {}, 6, 2, 20, 1.0, 0.2),
    ("alpha1", {}, 6, 2, 10, 1.0, 1.0),
    ("alpha1", {}, 6, 2, 10, 1.0, 4.0),
    ("theta_p", {"p": 2.0}, 6, 2, 10, 1.0, 1.0),
    ("theta_p", {"p": 2.0}, 6, 2, 10, 2.0, 1.0),
]


@pytest.mark.parametrize("seed", [0, 1, 1800])
@pytest.mark.parametrize("cost,params,atoms,n,trials,scale,prefactor",
                         _TENSOR_PANEL)
def test_tensor_screening_keeps_the_unscreened_verdict(
        mu1, cost, params, atoms, n, trials, scale, prefactor, seed):
    dn = measures.quantile_discretize(mu1, atoms)
    alpha = costs.builtin_cost(cost, **params)
    v = tensor_check(dn, alpha, n=n, trials=trials, seed=seed, scale=scale,
                     prefactor=prefactor)
    status, constants, diagnostics = _unscreened_tensor(
        dn, alpha, n, trials, seed, scale, prefactor)
    assert v.status == status
    assert v.constants == constants
    assert v.diagnostics == diagnostics


def test_tensor_screening_poses_one_lp_at_benchmark_size(mu1, alpha1,
                                                        monkeypatch):
    calls = []
    cost_lp = transport.cost_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return cost_lp(*args, **kwargs)

    monkeypatch.setattr(transport, "cost_lp", counted)
    dn = measures.quantile_discretize(mu1, 6)
    v = tensor_check(dn, alpha1, n=3, trials=3, seed=0, scale=SCALE,
                     prefactor=PREF)
    assert v.status == "holds"
    assert v.constants == {"trials": 4.0}
    assert len(calls) == 1          # the mu^n pair, posed at worst = -inf


def _bracket(v):
    rows = v.diagnostics["rows"]
    return tuple(np.array([row[key] for row in rows])
                 for key in ("lower", "upper", "bound"))


class TestConcentrationBracket:
    def test_dimension_one_is_the_closed_form(self, mu1, alpha1):
        # criterion 7's curve: A = [0, inf) enlarges to [-inv(36 r), inf)
        r = np.arange(0.25, 8.001, 0.25)
        v = concentration_bracket(mu1, alpha1, prefactor=1.0 / 36.0, n=1,
                                  r_grid=r)
        lower, upper, _ = _bracket(v)
        analytic = 1.0 - mu1.cdf(-alpha1.inverse(36.0 * r))
        assert np.max(np.abs(lower - analytic)) <= 1e-15
        assert np.max(np.abs(upper - analytic)) <= 1e-15
        assert (v.status, v.diagnostics["cells"]) == ("holds", 0)
        assert v.diagnostics["mass_a"] == 0.5

    @pytest.mark.parametrize("law,cost", [
        ("exponential", ("alpha1", {})), ("gaussian", ("theta_p", {"p": 2.0})),
        ("quartic", ("alpha1", {}))])
    def test_brackets_nest_as_the_lattice_doubles(self, mc_laws, law, cost,
                                                  monkeypatch):
        # the lattice at 2 _CELLS refines the one at _CELLS, and each law
        # is the finer rounding of the same cost: nested up to the slack
        mu, alpha = mc_laws[law], costs.builtin_cost(cost[0], **cost[1])
        coarse = _bracket(concentration_bracket(mu, alpha, n=4))
        monkeypatch.setattr(verify, "_CELLS", 2 * verify._CELLS)
        fine = _bracket(concentration_bracket(mu, alpha, n=4))
        slack = 4 * (2 * verify._CELLS + 3) * 2.0 ** -53
        assert np.all(fine[0] >= coarse[0] - slack)
        assert np.all(fine[1] <= coarse[1] + slack)
        assert np.max(fine[1] - fine[0]) < np.max(coarse[1] - coarse[0])

    @pytest.mark.parametrize("law,cost", [
        ("exponential", ("alpha1", {})), ("gaussian", ("theta_p", {"p": 2.0})),
        ("quartic", ("alpha1", {}))])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_sampler_lies_inside_the_bracket(self, mc_laws, law, cost, n):
        # the 99% Wilson interval of 2e5 draws meets the bracket at every r
        mu, alpha = mc_laws[law], costs.builtin_cost(cost[0], **cost[1])
        v = concentration_bracket(mu, alpha, A=(-0.5, 1.0), n=n)
        lower, upper, bound = _bracket(v)
        rep = concentration_mc(mu, alpha, A=(-0.5, 1.0), n=n,
                               samples=200_000, seed=n)
        assert np.all(rep.lower_ci <= upper) and np.all(rep.upper_ci >= lower)
        np.testing.assert_array_equal(rep.bound, bound)
        assert v.diagnostics["mass_a"] == rep.mass_a
        assert v.diagnostics["cells"] == (0 if n == 1 else verify._CELLS)

    def test_oversized_cost_is_a_certified_violation(self, mu1, alpha1):
        # scale 1 and prefactor 2: the upper end falls below the bound
        for n in (1, 4):
            v = concentration_bracket(mu1, alpha1, scale=1.0, prefactor=2.0,
                                      n=n)
            lower, upper, bound = _bracket(v)
            bad = np.flatnonzero(upper < bound)
            assert v.status == "fails" and bad.size
            assert len(v.diagnostics["violations"]) == bad.size
            assert np.all(lower <= upper)

    def test_numeric_inverse_still_brackets_the_sampler(self, mu1, alpha1):
        # a table cost inverts by bisection; its bracket still holds the
        # sampler's curve, at n = 1 to within the draws' interval
        ts = np.linspace(0.0, 40.0, 401)
        table = costs.cost_from_table(ts, alpha1.fn(ts))
        for n in (1, 4):
            lower, upper, _ = _bracket(concentration_bracket(
                mu1, table, n=n, A=(-0.5, 1.0)))
            rep = concentration_mc(mu1, table, A=(-0.5, 1.0), n=n,
                                   samples=200_000, seed=7)
            assert np.all(rep.lower_ci <= upper)
            assert np.all(rep.upper_ci >= lower)

    def test_inexact_inverse_only_widens(self, mu1, alpha1):
        # an inverse off by 1e-9 (far past the ulp steps) and a cost lifted
        # off 0 whose inverse ignores the lift: each end moves outward
        for bent in (dataclasses.replace(
                alpha1, inverse=lambda s: alpha1.inverse(s) * (1.0 + 1e-9)),
                _lifted_alpha1()):
            for n in (1, 4):
                exact = _bracket(concentration_bracket(mu1, alpha1, n=n))
                lower, upper, _ = _bracket(concentration_bracket(mu1, bent,
                                                                 n=n))
                assert np.all(lower <= exact[0]) and np.all(upper >= exact[1])

    def test_ends_never_cross(self):
        # scipy's ndtr is not monotone to the last bit: at r = 50 the lower
        # end's radius is one ulp below the upper end's, yet its mass came
        # out one ulp above it
        mu = measures.make_builtin("gaussian", sigma=1e3)
        for n in (1, 4):
            lower, upper, _ = _bracket(concentration_bracket(
                mu, costs.builtin_cost("maurey"), scale=0.7, prefactor=0.3,
                A=(-math.inf, -3.0), n=n, r_grid=[0.3, 2.0, 50.0]))
            assert np.all(lower <= upper)

    @pytest.mark.parametrize("kwargs", [
        {"A": (1.0, 1.0)}, {"n": 0}, {"r_grid": [1.0, math.nan]},
        {"r_grid": []}])
    def test_bad_inputs_raise_before_any_work(self, mu1, alpha1, kwargs,
                                              monkeypatch):
        messages = []
        for check in (concentration_mc, concentration_bracket):
            with pytest.raises(ValueError) as err:
                check(mu1, alpha1, **kwargs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

        def no_work(*args):
            raise AssertionError("a mass was computed")

        monkeypatch.setattr(verify, "_interval_mass", no_work)
        with pytest.raises(ValueError, match=re.escape(messages[0])):
            concentration_bracket(mu1, alpha1, **kwargs)


class TestConcentration:
    def test_dimension_one_matches_closed_form(self, mu1, alpha1):
        # A = [0, inf) enlarges to [-inv(r), inf); the true mass is
        # 1 - F(-inv(r)) and must sit inside every Wilson interval
        rep = concentration_mc(mu1, alpha1, n=1, samples=20000, seed=3,
                               r_grid=np.array([0.05, 0.1, 0.2, 0.4]))
        assert rep.mass_a == pytest.approx(0.5, abs=1e-12)
        for row in rep.rows():
            analytic = 1.0 - mu1.cdf(-alpha1.inverse(row["r"]))
            assert row["lower_ci"] <= analytic <= row["upper_ci"]

    def test_product_dimension_holds(self, mu1, alpha1):
        rep = concentration_mc(mu1, alpha1, scale=SCALE, prefactor=PREF,
                               n=4, samples=40000, seed=11)
        assert rep.verdict.status == "holds"
        assert rep.mass_a == pytest.approx(0.0625, abs=1e-12)
        assert np.all(rep.lower_ci >= rep.bound)

    def test_deterministic_in_seed(self, mu1, alpha1):
        a = concentration_mc(mu1, alpha1, n=2, samples=5000, seed=4)
        b = concentration_mc(mu1, alpha1, n=2, samples=5000, seed=4)
        np.testing.assert_array_equal(a.empirical, b.empirical)
        np.testing.assert_array_equal(a.lower_ci, b.lower_ci)

    def test_tiny_target_set_inconclusive(self, mu1, alpha1):
        rep = concentration_mc(mu1, alpha1, A=(1e8, math.inf), n=1,
                               samples=2000, seed=1)
        assert rep.verdict.status == "inconclusive"
        assert "too small" in rep.verdict.diagnostics["reason"]


    def test_empirical_curve_from_sample_draws(self, mu1, alpha1):
        r = np.array([0.05, 0.5, 2.0])
        rep = concentration_mc(mu1, alpha1, scale=SCALE, prefactor=PREF,
                               A=(-0.5, 1.0), n=2, r_grid=r, samples=3000,
                               seed=6)
        X = measures.sample(mu1, (3000, 2), seed=6)
        d = np.maximum(np.maximum(-0.5 - X, X - 1.0), 0.0)
        cost = (PREF * alpha1.fn(SCALE * d)).sum(axis=1)
        expect = np.array([np.count_nonzero(cost <= v) / 3000.0 for v in r])
        np.testing.assert_array_equal(rep.empirical, expect)
        lower, upper = numerics.wilson_interval(expect, 3000)
        np.testing.assert_array_equal(rep.lower_ci, lower)
        np.testing.assert_array_equal(rep.upper_ci, upper)

    @pytest.mark.parametrize("law", ["exponential", "quartic"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_blocked_counts_equal_one_shot(self, mu1, alpha1, quartic_table,
                                           law, n):
        # sample counts around the draw's block boundaries: the streamed
        # curve is the sort-and-count of the whole one-shot draw, bit for bit
        mu = mu1 if law == "exponential" else quartic_table
        rows = max(1, measures._DRAW_BLOCK // n)
        r = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.05])
        for samples in (1, rows - 1, rows, rows + 1, 3 * rows + 17):
            rep = concentration_mc(mu, alpha1, scale=SCALE, prefactor=PREF,
                                   A=(-0.5, 1.0), n=n, r_grid=r,
                                   samples=samples, seed=5)
            X = measures.sample(mu, (samples, n), seed=5)
            d = np.maximum(np.maximum(-0.5 - X, X - 1.0), 0.0)
            cost = np.sort((PREF * alpha1.fn(SCALE * d)).sum(axis=1))
            expect = np.searchsorted(cost, r, side="right") / float(samples)
            np.testing.assert_array_equal(rep.empirical, expect)
            lower, upper = numerics.wilson_interval(expect, samples)
            np.testing.assert_array_equal(rep.lower_ci, lower)
            np.testing.assert_array_equal(rep.upper_ci, upper)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_curve_is_the_one_shot_count(self, mc_laws, data):
        # the coordinates drawn inside A skip the inverse cdf and the cost:
        # the curve is still the sort-and-count of the whole sample, bit for
        # bit, whatever A's ends, the law, the cost and the r grid
        name = data.draw(st.sampled_from(sorted(mc_laws)), label="law")
        mu = mc_laws[name]
        n = data.draw(st.sampled_from([1, 2, 3, 8]), label="n")
        rows = max(1, measures._DRAW_BLOCK // n)
        samples = data.draw(st.sampled_from(
            [1, 7, rows - 1, rows, rows + 1, 2 * rows + 5]), label="samples")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")

        def end(sign):
            kind = data.draw(st.sampled_from(
                ["inf", "finite", "quantile", "draw", "next to a draw",
                 "far"]))
            if kind == "inf":
                return sign * math.inf
            if kind == "finite":
                return data.draw(st.floats(-6.0, 6.0))
            if kind == "quantile":
                return float(mu.quantile(data.draw(st.floats(1e-9, 1 - 1e-9))))
            if kind in ("draw", "next to a draw"):
                # one of the sample's own values, so a draw sits on the end
                # or just outside it
                u = next(measures._draw_blocks(mu, samples, n, seed))
                i = data.draw(st.integers(0, u.size - 1))
                x = float(measures._draw_inverse(mu, u).flat[i])
                return x if kind == "draw" else \
                    float(np.nextafter(x, -sign * math.inf))
            # the cdf rounds to 0 or 1 there
            return data.draw(st.sampled_from([-1e300, -1e8, 1e8, 1e300]))

        lo, hi = end(-1.0), end(1.0)
        assume(lo < hi)
        alpha = data.draw(st.sampled_from(
            [costs.builtin_cost("alpha1"), _lifted_alpha1()]), label="cost")
        scale, pref = data.draw(st.sampled_from(
            [(None, 1.0), (SCALE, PREF), (1.0, 10.0)]), label="scale, pref")
        # unsorted, with 0, negatives and the all-inside sum n c(0)
        r = np.array(data.draw(st.lists(st.floats(-2.0, 12.0), min_size=1,
                                        max_size=6), label="r")
                     + [0.0, float(n) * float(alpha.fn(0.0)) * pref])
        with np.errstate(over="ignore"):     # the far ends, squared
            rep = concentration_mc(mu, alpha, scale=scale, prefactor=pref,
                                   A=(lo, hi), n=n, r_grid=r,
                                   samples=samples, seed=seed)
            X = measures.sample(mu, (samples, n), seed)
            c = transport._ground(alpha, scale, pref)[1]
            cost = np.sort(c(np.maximum(np.maximum(lo - X, X - hi), 0.0))
                           .sum(axis=1))
        expect = np.searchsorted(cost, r, side="right") / float(samples)
        np.testing.assert_array_equal(rep.empirical, expect)

    @pytest.mark.parametrize("law", ["exponential", "gaussian", "exp_power",
                                     "cauchy", "quartic"])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_draw_one_ulp_outside_is_evaluated(self, mc_laws, alpha1, law,
                                               side):
        # an end of A one ulp inside a draw: that draw costs c(1 ulp) > 0
        # and must not be read as inside, though the cdf at the end is at
        # most an ulp away from its level (for the quartic table the cdf
        # and the interpolated inverse disagree by far more)
        mu, r = mc_laws[law], np.array([0.0])
        for seed in range(40):
            u = next(measures._draw_blocks(mu, 1, 1, seed))
            x = float(measures._draw_inverse(mu, u)[0, 0])
            A = (float(np.nextafter(x, math.inf)), math.inf) if side == "lo" \
                else (-math.inf, float(np.nextafter(x, -math.inf)))
            rep = concentration_mc(mu, alpha1, A=A, n=1, r_grid=r,
                                   samples=1, seed=seed)
            assert rep.empirical[0] == 0.0, seed

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in KiB on Linux only")
    def test_memory_does_not_grow_with_samples(self):
        # the benchmark's 6e5 x 8 draw, streamed: the one-shot draw held
        # several 38 MB arrays at once and raised the peak by about 190 MB
        out = _fresh_python(
            "import resource\n"
            "from tcilab import costs, measures, verify\n"
            "mu = measures.make_builtin('exponential')\n"
            "alpha = costs.builtin_cost('alpha1')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "verify.concentration_mc(mu, alpha, n=8, samples=600_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss "
            "- before)")
        assert int(out[0]) < 40 * 1024


@pytest.mark.parametrize("verifier,arg,value", [
    ("dual_check_strong", "trials", -3),
    ("tensor_check", "trials", -1),
    ("concentration_mc", "samples", 0),
    ("concentration_mc", "r_grid", []),
    ("concentration_mc", "r_grid", [math.nan]),
    ("concentration_mc", "r_grid", [0.5, math.inf]),
    ("concentration_mc", "r_grid", [-math.inf]),
    ("concentration_mc", "r_grid", [[0.5, 1.0]]),
])
def test_bad_effort_rejected_at_entry(mu1, alpha1, verifier, arg, value):
    if verifier == "tensor_check":
        target, extra = measures.quantile_discretize(mu1, 3), {"n": 2}
    else:
        target, extra = mu1, {}
    with pytest.raises(ValueError, match=f"{arg} must be"):
        getattr(verify, verifier)(target, alpha1, **extra, **{arg: value})


@pytest.mark.parametrize("verifier,arg,value", [
    ("dual_check_strong", "trials", 2.5),
    ("tensor_check", "trials", 2.7),
    ("tensor_check", "n", 2.5),
    ("concentration_mc", "n", 1.5),
    ("concentration_mc", "samples", 100.5),
])
def test_fractional_effort_rejected_at_entry(mu1, alpha1, verifier, arg,
                                            value):
    # a fraction is refused with the argument named, never truncated
    if verifier == "tensor_check":
        target, extra = measures.quantile_discretize(mu1, 3), {"n": 2}
    else:
        target, extra = mu1, {}
    extra[arg] = value
    with pytest.raises(ValueError, match=f"{arg} must be an integer"):
        getattr(verify, verifier)(target, alpha1, **extra)


@pytest.mark.parametrize("n", [0, -2])
def test_concentration_dimension_rejected_at_entry(mu1, alpha1, monkeypatch,
                                                   n):
    def no_draws(*args, **kwargs):
        raise AssertionError("sample drawn before n was checked")

    monkeypatch.setattr(verify, "_draw_blocks", no_draws)
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify.concentration_mc(mu1, alpha1, n=n)


def _never_called(y):
    raise AssertionError("beta called before the inputs were checked")


class TestLsiCheck:
    def test_gaussian_profile_holds(self, gauss_half, theta2):
        beta = costs.conjugate(theta2)
        v = lsi_check(gauss_half, beta, C=1.0, t=8.0)
        assert v.status == "holds"
        assert v.diagnostics["family_size"] >= 50
        worst = max(r["margin"] for r in v.diagnostics["rows"])
        assert worst <= 1e-8

    def test_undersized_constant_fails(self, gauss_half, theta2):
        v = lsi_check(gauss_half, costs.conjugate(theta2), C=0.01, t=8.0)
        assert v.status == "fails"
        assert v.diagnostics["violations"]

    def test_nonpositive_function_rejected(self, gauss_half, theta2):
        bad = [("neg", lambda x: x * 0.0 - 1.0, lambda x: 0.0)]
        with pytest.raises(ValueError, match="strictly"):
            lsi_check(gauss_half, costs.conjugate(theta2), C=1.0, t=8.0,
                      test_family=bad)

    def test_nonpositive_parameters_rejected(self, gauss_half, theta2):
        with pytest.raises(ValueError, match="positive"):
            lsi_check(gauss_half, costs.conjugate(theta2), C=0.0, t=8.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["C", "t"])
    def test_parameters_checked_before_any_work(self, gauss_half, which, bad):
        params = {"C": 1.0, "t": 8.0, which: bad}
        with pytest.raises(ValueError, match="C and t must be finite and "
                                             "positive"):
            lsi_check(gauss_half, _never_called, **params)

    def test_empty_family_rejected(self, gauss_half):
        with pytest.raises(ValueError, match="empty"):
            lsi_check(gauss_half, _never_called, C=1.0, t=8.0,
                      test_family=[])

    def test_whole_family_checked_before_any_work(self, gauss_half):
        family = verify._lsi_builtins(gauss_half)[:3] + [
            ("neg_last", lambda x: 0.0 * x - 1.0, lambda x: 0.0)]
        with pytest.raises(ValueError, match="neg_last is not strictly"):
            lsi_check(gauss_half, _never_called, C=1.0, t=8.0,
                      test_family=family)


class TestLsiArrays:
    """The three integrals of ``lsi_check`` on arrays of nodes."""

    @pytest.mark.parametrize("label", ["tilt_+4", "tilt_-0.5", "bump_14",
                                       "dip_19", "step_1"])
    def test_integrals_match_a_split_quad_oracle(self, gauss_half, theta2,
                                                 label):
        family = dict((e[0], e[1:]) for e in verify._lsi_builtins(gauss_half))
        f, df, pts = family[label]
        a = min([float(gauss_half.quantile(1e-12))] + [p - 1.0 for p in pts])
        b = max([float(gauss_half.isf(1e-12))] + [p + 1.0 for p in pts])
        edges = np.union1d(np.linspace(a, b, verify._LSI_CELLS + 1), pts)
        t = 8.0
        got = verify._lsi_integrals(gauss_half, costs.conjugate(theta2).fn, t,
                                    [(f, df, edges)])[0]

        def h(x, k):
            fx, s = float(f(x)), t * float(df(x)) / float(f(x))
            w = fx * fx * gauss_half.density(x)
            return (w, w * math.log(fx * fx), w * s * s / 4.0)[k]

        breaks = np.concatenate(([a], sorted(pts), [b]))
        for k in range(3):
            oracle = sum(integrate.quad(h, lo, hi, args=(k,), epsabs=0.0,
                                        epsrel=1e-13, limit=400)[0]
                         for lo, hi in zip(breaks[:-1], breaks[1:]))
            assert got[k] == pytest.approx(oracle, rel=1e-9, abs=1e-15), k

    def test_criterion_10_margins_are_pinned(self, gauss_half, theta2):
        v = lsi_check(gauss_half, costs.conjugate(theta2), C=1.0, t=8.0)
        rows = v.diagnostics["rows"]
        assert [r["label"] for r in rows] == [m[0] for m in
                                              _CRITERION_10_MARGINS]
        np.testing.assert_allclose([r["margin"] for r in rows],
                                   [m[1] for m in _CRITERION_10_MARGINS],
                                   rtol=0.0, atol=1e-9)
        assert v.status == "holds"

    def test_builtins_take_arrays(self, gauss_half):
        x = np.linspace(-3.0, 3.0, 60).reshape(4, 15)
        for label, f, df, _pts in verify._lsi_builtins(gauss_half):
            fx, dfx = f(x), df(x)
            assert fx.shape == dfx.shape == x.shape, label
            assert np.array_equal(fx[1], f(x[1])), label
            assert (fx > 0.0).all(), label

    def test_constant_results_are_broadcast(self, gauss_half, theta2):
        beta = costs.conjugate(theta2)

        def f(x):
            return 3.0 + 0.25 * x

        scalar = [("line", f, lambda x: 0.25, ())]
        array = [("line", f, lambda x: np.full(np.shape(x), 0.25), ())]
        one = lsi_check(gauss_half, beta, C=1.0, t=8.0, test_family=scalar)
        two = lsi_check(gauss_half, beta, C=1.0, t=8.0, test_family=array)
        assert one.diagnostics["rows"] == two.diagnostics["rows"]
        assert one.diagnostics["rows"][0]["rhs"] > 0.0
        const = lsi_check(gauss_half, beta, C=1.0, t=8.0,
                          test_family=[("two", lambda x: 2.0,
                                        lambda x: 0.0)])
        assert const.diagnostics["rows"][0]["rhs"] == 0.0
        assert const.holds

    def test_nan_slope_is_refused(self, gauss_half, theta2):
        # conjugate(nan) is nan, so the rhs is nan, never an inf that passes
        bad = [("nan_slope", lambda x: 1.0 + 0.0 * x,
                lambda x: np.where(x > 0.0, math.nan, 0.0))]
        with pytest.raises(ValueError, match="nan_slope"):
            lsi_check(gauss_half, costs.conjugate(theta2), C=1.0, t=8.0,
                      test_family=bad)

    def test_slope_capped_beta_passes_with_infinite_rhs(self, gauss_half,
                                                        alpha1):
        # t f'/f = 2 lies beyond the slope cap 1 of conjugate(alpha1)
        v = lsi_check(gauss_half, costs.conjugate(alpha1), C=1.0, t=2.0,
                      test_family=[("steep", np.exp, np.exp)])
        assert v.diagnostics["rows"][0]["rhs"] == math.inf
        assert v.holds


class TestLsiFamilyRun:
    """``lsi_check`` integrates its whole family in one cell run."""

    @staticmethod
    def _assert_rows_stand_alone(mu, beta, t, family):
        together = lsi_check(mu, beta, C=1.0, t=t, test_family=family)
        rows = together.diagnostics["rows"]
        assert len(rows) == len(family)
        for entry, row in zip(family, rows):
            alone = lsi_check(mu, beta, C=1.0, t=t, test_family=[entry])
            # == on floats, so a single differing bit fails
            assert alone.diagnostics["rows"] == [row], row["label"]
        return rows

    def test_builtin_rows_do_not_depend_on_the_family(self, gauss_half,
                                                      theta2):
        self._assert_rows_stand_alone(
            gauss_half, costs.conjugate(theta2), 8.0,
            verify._lsi_builtins(gauss_half))

    def test_mixed_rows_do_not_depend_on_the_family(self, gauss_half,
                                                    alpha1):
        far = 12.0              # corner points beyond the 1e-12 quantiles

        def bump(x):
            return 1.0 + 0.3 * verify._bump(x - far)[0]

        def dbump(x):
            return 0.3 * verify._bump(x - far)[1]

        family = [("line", lambda x: 3.0 + 0.25 * x, lambda x: 0.25, ()),
                  ("far_bump", bump, dbump, (far - 1.0, far + 1.0)),
                  ("steep", np.exp, np.exp),
                  ("two", lambda x: 2.0, lambda x: 0.0)]
        rows = self._assert_rows_stand_alone(
            gauss_half, costs.conjugate(alpha1), 2.0, family)
        by_label = {r["label"]: r for r in rows}
        assert 0.0 < by_label["line"]["rhs"] < math.inf
        assert by_label["steep"]["rhs"] == math.inf
        assert by_label["two"]["rhs"] == 0.0

    def test_one_cell_run_and_one_beta_call_per_round(self, gauss_half,
                                                      theta2, monkeypatch):
        calls = {"cells": 0, "beta": 0}
        cells = numerics.gauss_kronrod_cells

        def counted_cells(*args, **kwargs):
            calls["cells"] += 1
            return cells(*args, **kwargs)

        beta = costs.conjugate(theta2).fn

        def counted_beta(y):
            calls["beta"] += 1
            return beta(y)

        monkeypatch.setattr(numerics, "gauss_kronrod_cells", counted_cells)
        v = lsi_check(gauss_half, counted_beta, C=1.0, t=8.0)
        assert v.diagnostics["family_size"] == 50
        assert calls["cells"] == 1
        assert 1 <= calls["beta"] <= numerics._GK_ROUNDS + 1


class TestCostDoubling:
    def test_quadratic_profile(self, theta2):
        doubled = tci_to_strong_cost(theta2)
        # 2 * (x/2)^2 = x^2 / 2
        for x in (0.5, 1.0, 3.0, 10.0):
            assert doubled.fn(x) == pytest.approx(x * x / 2.0, rel=1e-12)
        assert not costs.validate_admissible(doubled).holds
        assert doubled.convex

    def test_inverse_roundtrip(self, theta2):
        doubled = tci_to_strong_cost(theta2)
        for v in (0.1, 1.0, 7.0):
            assert doubled.fn(doubled.inverse(v)) == pytest.approx(v, rel=1e-9)

    def test_nonconvex_profile_rejected(self, alpha1):
        with pytest.raises(ValueError, match="convex"):
            tci_to_strong_cost(alpha1)
