"""Cost profiles: builtin forms, admissibility, conjugation, rescaling."""

import dataclasses
import decimal
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from tcilab import criteria, measures, numerics, verify
from tcilab.costs import (CostFunction, builtin_cost, conjugate,
                          cost_from_table, scaling_equivalence_constant,
                          validate_admissible)


class TestQuadraticLinear:
    def test_values(self, alpha1):
        # t^2 inside the unit interval, |t| outside
        assert alpha1.fn(0.5) == 0.25
        assert alpha1.fn(1.0) == 1.0
        assert alpha1.fn(2.0) == 2.0
        assert alpha1.fn(-2.0) == 2.0
        assert alpha1.kinks == (1.0,)
        assert not alpha1.convex

    def test_inverse(self, alpha1):
        for s in (0.04, 0.81, 1.0, 2.5, 40.0):
            assert alpha1.fn(alpha1.inverse(s)) == pytest.approx(s, rel=1e-12)
        assert alpha1.inverse(0.25) == 0.5
        assert alpha1.inverse(3.0) == 3.0

    def test_deriv(self, alpha1):
        assert alpha1.deriv(0.25) == 0.5
        assert alpha1.deriv(5.0) == 1.0


class TestFamilies:
    def test_theta_p_splice(self):
        th = builtin_cost("theta_p", p=1.5)
        t = np.linspace(0, 0.999, 50)
        np.testing.assert_allclose(th.fn(t), t * t, atol=1e-15)
        # C1 at the splice point: value 1, slope 2
        assert th.fn(1.0) == pytest.approx(1.0, abs=1e-12)
        eps = 1e-7
        assert (th.fn(1 + eps) - th.fn(1 - eps)) / (2 * eps) == \
            pytest.approx(2.0, abs=1e-5)
        assert th.fn(3.0) == pytest.approx((2 / 1.5) * 3.0 ** 1.5 + 1 - 2 / 1.5)
        assert th.convex

    def test_theta_p_inverse_roundtrip(self):
        th = builtin_cost("theta_p", p=2.5)
        for s in (0.3, 1.0, 7.0, 300.0):
            assert th.fn(th.inverse(s)) == pytest.approx(s, rel=1e-12)

    def test_alpha_p(self):
        a = builtin_cost("alpha_p", p=1.5)
        assert a.fn(0.5) == 0.25
        assert a.fn(4.0) == pytest.approx(8.0)
        q = builtin_cost("alpha_p", p=2)
        t = np.linspace(-6, 6, 41)
        np.testing.assert_allclose(q.fn(t), t * t, atol=1e-14)
        with pytest.raises(ValueError):
            builtin_cost("alpha_p", p=0.5)

    def test_maurey_profile(self):
        m = builtin_cost("maurey")
        assert m.fn(3.0) == pytest.approx(0.25)        # t^2/36
        assert m.fn(4.0) == pytest.approx(16.0 / 36.0)
        assert m.fn(6.0) == pytest.approx((2 / 9) * 4)  # linear branch
        assert not validate_admissible(m).holds  # not t^2 on [0, 1]

    def test_maurey_inverse_roundtrip_across_the_splice(self):
        # the closed-form inverse switches branch at the level 4/9 = fn(4)
        m = builtin_cost("maurey")
        edge = 4.0 / 9.0
        s = np.concatenate([np.linspace(0.0, 2.0, 81), [
            np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 1e3]])
        np.testing.assert_allclose(m.fn(m.inverse(s)), s, rtol=1e-15,
                                   atol=0.0)
        assert m.inverse(edge) == 4.0

    def test_gamma_profile(self):
        lam = 0.5
        g = builtin_cost("gamma", lam=lam)
        c = 1 / lam - 1
        for t in (0.5, 2.0, 10.0):
            assert g.fn(t) == pytest.approx(
                c * (math.exp(-lam * t) - 1 + lam * t), rel=1e-12)
        assert g.convex
        with pytest.raises(ValueError):
            builtin_cost("gamma", lam=1.5)

    @pytest.mark.parametrize("t,rtol", [
        (1e-8, 1e-13), (1e-6, 1e-13), (1e-4, 1e-13), (1e-3, 1e-13),
        # exp(-x) - 1 + x was 4.4e-16 / x**2 off for 1e-3 <= x < 0.1
        (2e-3, 1e-14), (1e-2, 1e-14), (5e-2, 1e-14),
        (0.5, 1e-13), (2.0, 1e-13), (10.0, 1e-13), (50.0, 1e-13)])
    def test_gamma_profile_against_a_50_digit_reference(self, t, rtol):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            lam = decimal.Decimal(0.5)
            x = lam * decimal.Decimal(t)
            want = (1 / lam - 1) * ((-x).exp() - 1 + x)
            err = abs(decimal.Decimal(float(builtin_cost(
                "gamma", lam=0.5).fn(t))) - want) / want
        assert err <= rtol

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin cost"):
            builtin_cost("squared")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha_p", "theta_p"])
    def test_non_finite_exponent_rejected(self, name, bad):
        with pytest.raises(ValueError, match="p must be finite"):
            builtin_cost(name, p=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rate_rejected(self, bad):
        with pytest.raises(ValueError, match=r"lambda must lie in \(0, 1\)"):
            builtin_cost("gamma", lam=bad)


#: abscissae and levels of the built-in pins: 0 and -0, both neighbours of
#: the splice point 1 on either side, large |t|, nan and +-inf (the levels
#: also take negative values)
_NEAR_ONE = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
_PIN_T = np.concatenate((np.linspace(-6.0, 6.0, 97), _NEAR_ONE, -_NEAR_ONE,
                         [-0.0, 1e3, -1e6, 1e150, math.nan, math.inf,
                          -math.inf]))
_PIN_S = np.concatenate((np.geomspace(1e-6, 1e6, 49), _NEAR_ONE,
                         [-1.0, -0.0, 0.0, 1e300, math.nan, math.inf,
                          -math.inf]))


@pytest.mark.parametrize("name, params, label, convex, kinks, digests", [
    ("alpha1", {}, "alpha1", False, (1.0,),
     ("0c7d04ff1953e2d62f8dee0e5aa9af153bb5a35b9ecf0a685245c7fce9662f75",
      "bfb8fcd3a320af051b18895f114150abbc2cbc4b150ba987b9cc06ce23122f83",
      "246e892a83731c6d8eb5df9278c5959de3dce79e7d8bbb1b4afe3ee553addd76")),
    ("alpha_p", {"p": 1.25}, "alpha_p(p=1.25)", False, (1.0,),
     ("2c2550dbad4cf4bc3aa950ae3eb90696f3ad15b5e8bf6887a855c751afe210ae",
      "f1448f7335780f3131e0d1bb0fa41ac629707039b14049f573ac28876da6f181",
      "0e5ea34f901e83c5bf751216d1a9df3267d13a3c82ba102d0fde836a8a804927")),
    ("alpha_p", {"p": 1.5}, "alpha_p(p=1.5)", False, (1.0,),
     ("9fce9b73eb773fc97446e958232e07020adcacc8e40e75df803dfca8cee8e9a4",
      "b799be1a2844d9cb2fdc6f1047096d9b618926628b6779782d35b96addd44865",
      "4234e3a67480b5bce80c0ed7b09eedf90db07dda436507687e6495e5ab6e81f4")),
    ("alpha_p", {"p": 1.9}, "alpha_p(p=1.9)", False, (1.0,),
     ("8d8c08839770139dd5718c800157a92c4f8da1451416f41de0b0edcdbf7e9891",
      "bf098855d5d595b50b5c54731290d6531ba5d93c8da17bce2118652aece50cc4",
      "098b3b5e12453cb90dfb0814b9749404f8394316f5f90f95f97319bcf6d99366")),
    ("alpha_p", {"p": 2}, "alpha_p(p=2)", True, (),
     ("02ac40bf625921ccfe80e8ebfcd0a63f0fe8a29bbe0570517f28979bbbc3e6e3",
      "97b8d21349a0bc12a9eb14f4be4c2b27a0d4988871a84b92929c6a4b98d425cf",
      "5437799252079d85237e865b0635eec44f4c8b3c4152aacbe6beaf2db97ed34e")),
    ("alpha_p", {"p": 3}, "alpha_p(p=3)", True, (),
     ("d86936206876f05395eeea268fef6394e9df42c86b1e090aaa4c144e03138349",
      "cb845305b9e7a1e64da6e8d387a1566e75405cc810512176950d9e92922f0ef8",
      "a4a6939b743f619dc7d3b0ba0808920fe78ede1630e2ba3917cb3c9de1b02e26")),
    ("theta_p", {"p": 1}, "theta_p(p=1)", True, (),
     ("f813ee5c2cb9439f124d6030658f6f795357e9c27bf72fd1223e8c3a80415832",
      "985011f0fbe0655719a17cf48da334f7f6da5785dbbf6e42cb3bb6a2bc94ae50",
      "ddc1a763238e8720b8c2555db79310d3fd853ac82e0b6537a09cf4262adffec2")),
    ("theta_p", {"p": 1.5}, "theta_p(p=1.5)", True, (),
     ("f8500ec6c9fcb3fbf1eb8e2fa0a1836d7bc6240f95a40cf15680fe5b734cde98",
      "166c0413cdc29af53cbad58937f43e365eacab6afc5bb13223e7b83ef8831f47",
      "f3afe7553548c72687a93e395dd832af1c8f1a3bff350fd4b680b8bff19b8f0b")),
    ("theta_p", {"p": 2}, "theta_p(p=2)", True, (),
     ("02ac40bf625921ccfe80e8ebfcd0a63f0fe8a29bbe0570517f28979bbbc3e6e3",
      "97b8d21349a0bc12a9eb14f4be4c2b27a0d4988871a84b92929c6a4b98d425cf",
      "5437799252079d85237e865b0635eec44f4c8b3c4152aacbe6beaf2db97ed34e")),
    ("theta_p", {"p": 2.5}, "theta_p(p=2.5)", True, (),
     ("45a03e84439be063b58845e9db119ad8054f32cf66a7a71597e9807a7177788e",
      "56664d3566653bb6601d1febbb3e92319b8c30cbed8afe5f711d644aae67b16c",
      "4ed0b2a965fce46df9d07a9173a3f4f3ce2b98ac47b608f4ce2af1b03daa532b")),
    ("theta_p", {"p": 3}, "theta_p(p=3)", True, (),
     ("e7a10d25d8012ab25fa11c0077f4a1a2f43336c82582d12251a5d6c66226e3e0",
      "6c4488e72ca23c7cb67b9eb7c94c39e0a27bc532492c7f33d0128f4b02cabce8",
      "11375af0f80fef500aeceab520ba5fb3e24f146771d5bb89ea0e3895c2bc7dd1")),
    ("maurey", {}, "maurey_tilde", True, (),
     ("adbd8723e26ecaff1d7689812c97fc8b922afe617ac26ca8dc6368fe96710d9b",
      "f79a9398ca4c17ebc0f1406fa5d76ab25d352aabbd99ecb340916ea603cf8304",
      "f0f67a7992f772542570e9b8c56e28c4cacc9a90aae5abf38d4e6bf6a3d792c7")),
])
def test_builtin_profiles_pinned(name, params, label, convex, kinks, digests):
    # sha256 of the little-endian fn and deriv on _PIN_T and inverse on
    # _PIN_S, bit for bit
    cost = builtin_cost(name, **params)
    assert (cost.name, cost.convex, cost.kinks) == (label, convex, kinks)
    with np.errstate(over="ignore"):
        outs = (cost.fn(_PIN_T), cost.deriv(_PIN_T), cost.inverse(_PIN_S))
    got = tuple(hashlib.sha256(np.ascontiguousarray(o, "<f8").tobytes())
                .hexdigest() for o in outs)
    assert got == digests


class TestAdmissibility:
    def test_builtin_flags_match_validation(self, alpha1, theta2):
        for cost in (alpha1, theta2, builtin_cost("theta_p", p=1.5),
                     builtin_cost("alpha_p", p=1.3)):
            assert validate_admissible(cost).holds

    def test_rejects_wrong_core(self):
        m = builtin_cost("maurey")
        v = validate_admissible(m)
        assert v.status == "fails"
        assert v.diagnostics["violated"] == "quadratic_near_zero"

    def test_rejects_subadditive(self):
        # concave-growing sqrt splice is not superadditive
        bad = CostFunction(
            "bad", lambda t: np.where(np.abs(t) <= 1, t * t,
                                      np.sqrt(np.abs(t))),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda s: np.asarray(s), convex=False)
        v = validate_admissible(bad)
        assert v.status == "fails"
        assert v.diagnostics["violated"] in ("monotonicity", "superadditivity")

    # sha256 of the sorted-key JSON of each built-in's verdict, taken before
    # overflowing profiles were checked on their finite points only
    _BUILTIN_VERDICTS = {
        ("alpha1", ()): "bc029af898945e026418bffed3a0936dc87866517edd73b00cac85424ca6ab5a",
        ("alpha_p", (("p", 1.5),)): "bc029af898945e026418bffed3a0936dc87866517edd73b00cac85424ca6ab5a",
        ("alpha_p", (("p", 3.0),)): "02b9cc57cd9df1dda69fce581198973bd0db70f1debc1cc5ecf8c086df285d21",
        ("theta_p", (("p", 2.0),)): "bc029af898945e026418bffed3a0936dc87866517edd73b00cac85424ca6ab5a",
        ("maurey", ()): "1b854e608912894a786197bebf1a15832a88f767fbb7f0b1c0016af294047dbd",
        ("gamma", (("lam", 0.5),)): "a3c4e8b311d74ecb8115f7393067a024c52a162b8ad1101dc125f8b2b381774e",
    }

    @pytest.mark.parametrize("name,params", sorted(_BUILTIN_VERDICTS))
    def test_builtin_verdicts_are_pinned(self, name, params):
        v = validate_admissible(builtin_cost(name, **dict(params)))
        body = json.dumps(v.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == \
            self._BUILTIN_VERDICTS[name, params]

    @staticmethod
    def _overflowing(right, left):
        # t^2 on [-1, 1], e^{t^2} - e + 1 beyond: e^{t^2} is inf from t ~ 26.6
        def fn(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):
                outer = np.where(t > 1.0, right(t), left(t))
            return np.where(np.abs(t) <= 1.0, t * t, outer)
        return CostFunction("overflowing", fn, lambda t: 2.0 * np.abs(t),
                            np.sqrt, convex=False)

    def test_overflowing_profile_that_is_not_even(self):
        cost = self._overflowing(lambda t: np.exp(t * t) - math.e + 1.0,
                                 lambda t: 2.0 * np.abs(t) - 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = validate_admissible(cost)
        assert v.status == "fails"
        assert v.diagnostics["violated"] == "evenness"
        assert v.diagnostics["overflow_from"] == pytest.approx(26.647,
                                                               abs=1e-3)

    def test_overflowing_even_profile_is_checked_where_finite(self):
        outer = lambda t: np.exp(t * t) - math.e + 1.0  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = validate_admissible(self._overflowing(
                outer, lambda t: outer(-t)))
        assert v.holds
        assert v.diagnostics["overflow_from"] == pytest.approx(26.647,
                                                               abs=1e-3)

    def test_finite_again_past_an_overflow_is_not_monotone(self):
        outer = lambda t: np.where(np.abs(t) < 30.0,  # noqa: E731
                                   np.exp(t * t) - math.e + 1.0, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = validate_admissible(self._overflowing(outer, outer))
        assert v.status == "fails"
        assert v.diagnostics["violated"] == "monotonicity"
        assert 30.0 <= v.diagnostics["at"] < 30.02


#: the built-in profiles whose conjugates take the closed form
_CLOSED_FORMS = [
    ("theta_p", {"p": 1.5}), ("theta_p", {"p": 2.0}), ("theta_p", {"p": 3.0}),
    ("alpha_p", {"p": 1.5}), ("alpha_p", {"p": 2.0}), ("alpha_p", {"p": 3.0}),
    ("alpha1", {}), ("maurey", {}), ("gamma", {"lam": 0.25}),
    ("gamma", {"lam": 0.5})]


def _admissible_by_meshgrid(cost):
    """:func:`validate_admissible` with the superadditivity triangle taken
    from ``cost.fn`` on the meshgrid of all pairs ``(x, y)``."""
    t = np.linspace(0.0, 64.0, 4096)
    v = np.asarray(cost.fn(t), dtype=float)
    diag = {"grid": {"lo": 0.0, "hi": 64.0, "n": 4096}}
    ok = np.isfinite(v)
    end = len(t) if ok.all() else int(np.argmin(ok))
    if end < len(t):
        diag["overflow_from"] = float(t[end])
    head = v[:end]
    sym_gap = float(np.max(np.abs(np.asarray(cost.fn(-t[1:end])) - head[1:]),
                           initial=0.0))
    if sym_gap > 1e-12 * (1.0 + float(np.max(np.abs(head), initial=0.0))):
        return {"violated": "evenness", "gap": sym_gap, **diag}
    if abs(float(cost.fn(0.0))) > 1e-12:
        return {"violated": "vanishing_at_zero", **diag}
    drops = np.diff(head)
    falls = drops < -1e-12 * (1.0 + np.abs(head[:-1]))
    back = v[end:] != math.inf
    if falls.any() or back.any():
        return {"violated": "monotonicity", **diag,
                "at": float(t[int(np.argmin(drops)) + 1 if falls.any()
                              else end + int(np.argmax(back))])}
    core = t[t <= 1.0]
    quad_gap = float(np.max(np.abs(np.asarray(cost.fn(core)) - core * core)))
    if quad_gap > 1e-12:
        return {"violated": "quadratic_near_zero", "gap": quad_gap, **diag}
    s = np.linspace(0.0, 64.0, 257)
    x, y = np.meshgrid(s, s)
    keep = (x + y) <= 64.0
    x, y = x[keep], y[keep]
    fxy = np.asarray(cost.fn(x + y))
    with np.errstate(invalid="ignore"):
        gap = fxy - np.asarray(cost.fn(x)) - np.asarray(cost.fn(y))
    if np.any(gap < -1e-9 * (1.0 + np.abs(fxy))):
        k = int(np.nanargmin(gap))
        return {"violated": "superadditivity", **diag,
                "pair": [float(x[k]), float(y[k])], "gap": float(gap[k])}
    return diag


def _spliced_profile(name, outer):
    """``t**2`` on [-1, 1] and ``outer(|t|)`` beyond."""
    def fn(t):
        t = np.abs(np.asarray(t, dtype=float))
        with np.errstate(over="ignore", divide="ignore"):
            return np.where(t <= 1.0, t * t, outer(np.maximum(t, 1.0)))
    return CostFunction(name, fn, lambda t: 2.0 * np.abs(t), np.sqrt,
                        convex=False)


_TABLE_TS = np.linspace(0.0, 6.0, 200)
_ADMISSIBLE_PANEL = {
    **{" ".join([n, *(f"{k}={v:g}" for k, v in p.items())]):
       (lambda n=n, p=p: builtin_cost(n, **p)) for n, p in _CLOSED_FORMS},
    "table": lambda: cost_from_table(_TABLE_TS, _TABLE_TS ** 2),
    "table past 1": lambda: _spliced_profile(
        "table past 1", cost_from_table(_TABLE_TS, _TABLE_TS ** 2).fn),
    "1 + 2 log t past 1": lambda: _spliced_profile(
        "log", lambda t: 1.0 + 2.0 * np.log(t)),
    "sqrt past 1": lambda: _spliced_profile("sqrt", np.sqrt),
    # f(x) + f(y) at x + y = 64 peaks at the lopsided split (40, 24)
    "t^2 capped at 40": lambda: _spliced_profile(
        "capped", lambda t: np.minimum(t, 40.0) ** 2),
    "exp(t^2) past 1": lambda: _spliced_profile(
        "exp", lambda t: np.exp(t * t) - math.e + 1.0),
}


@pytest.mark.parametrize("name", sorted(_ADMISSIBLE_PANEL))
def test_admissibility_matches_the_meshgrid_triangle(name):
    # the triangle's gaps from the 257 grid values are the meshgrid's, bit
    # for bit, and so is the first failing pair
    cost = _ADMISSIBLE_PANEL[name]()
    got, want = validate_admissible(cost).to_dict(), _admissible_by_meshgrid(cost)
    assert got["diagnostics"] == want
    assert got["status"] == ("fails" if "violated" in want else "holds")
    if name == "t^2 capped at 40":
        assert got["diagnostics"]["pair"] == [40.0, 24.0]
    if name in ("1 + 2 log t past 1", "sqrt past 1", "t^2 capped at 40"):
        assert want["violated"] == "superadditivity"
        assert got["diagnostics"]["pair"] == want["pair"]
        assert float.hex(got["diagnostics"]["gap"]) == float.hex(want["gap"])
    if name in ("table past 1", "exp(t^2) past 1"):
        assert got["status"] == "holds"


_SLOPES = np.geomspace(1e-3, 1e6, 409)


class TestConjugate:
    def test_quadratic(self, theta2):
        c = conjugate(theta2)
        for s in (0.0, 1.0, 3.0, 10.0):
            assert c.fn(s) == pytest.approx(s * s / 4.0, rel=1e-7, abs=1e-9)

    def test_slope_capped(self, alpha1):
        # conjugate of the convex envelope: s^2/4 below the slope cap 1,
        # +inf beyond it
        c = conjugate(alpha1)
        assert c.fn(0.8) == pytest.approx(0.16, rel=1e-6)
        assert math.isinf(c.fn(1.5))

    def test_young_inequality(self, theta2):
        c = conjugate(theta2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.uniform(0, 5, 2)
            assert x * y <= theta2.fn(x) + c.fn(y) + 1e-7

    def test_quadratic_closed_form_on_a_grid(self, theta2):
        y = np.linspace(-40.0, 40.0, 801)
        y = y[y != 0.0]
        np.testing.assert_allclose(conjugate(theta2).fn(y), y * y / 4.0,
                                   rtol=1e-12)
        assert conjugate(theta2).fn(0.0) == 0.0

    def test_gamma_closed_form_below_the_slope_cap(self):
        # alpha' = (1 - lam)(1 - e^{-lam x}) rises to the cap 1 - lam
        lam = 0.5
        gamma = builtin_cost("gamma", lam=lam)
        y = np.linspace(0.01, 0.49, 49)
        x = -np.log(1.0 - y / (1.0 - lam)) / lam
        exact = y * x - gamma.fn(x)
        np.testing.assert_allclose(conjugate(gamma).fn(y), exact, rtol=1e-10)
        np.testing.assert_allclose(conjugate(gamma).fn(-y), exact, rtol=1e-10)
        assert np.isinf(conjugate(gamma).fn(np.array([0.51, 0.8, 3.0]))).all()

    def test_dense_scan_branch_below_and_above_the_slope_cap(self, alpha1):
        # alpha1 is not convex: the conjugate of its envelope, y^2/4 up to 1
        c = conjugate(alpha1)
        y = np.linspace(0.02, 0.98, 49)
        np.testing.assert_allclose(c.fn(y), y * y / 4.0, rtol=1e-12)
        assert np.isinf(c.fn(np.array([1.02, 1.5, 10.0]))).all()

    def test_large_slopes_stay_finite(self, theta2):
        # the maximizer y/2 lies beyond 1e12: the slope-cap rule must not
        # fire while the bracket is still below it
        y = np.array([2.0 ** 43, 1e13, 1e15, 1e18])
        np.testing.assert_allclose(conjugate(theta2).fn(y), y * y / 4.0,
                                   rtol=1e-12)

    def test_slope_cap_still_fires_for_large_slopes(self, alpha1):
        assert np.isinf(conjugate(alpha1).fn(np.array([1.5, 10.0, 1e6]))).all()

    @pytest.mark.parametrize("name, params, digest", [
        ("theta_p", {"p": 2},
         "650ea00fb5c3cded8f18e9f4f50c0eb5c9023461c68e1a4f21721f51a12d98a5"),
        ("alpha1", {},
         "9882b175a02a0aef2431c535bbab48e0ebbfc94db08d5513d98d8227a2335410"),
        ("alpha_p", {"p": 1.5},
         "8e048beac8c832734c1dfeb61ccb3c15496bd4769b28e104f10510046819f6ad"),
        ("maurey", {},
         "1f057d9c94a47ad9785f8fdf3996c605243cd54acd7e150bc2af2adcb2dc31ad"),
        ("gamma", {"lam": 0.5},
         "40375e6c2643487b30c13afbd91f7c664efb57c09481c802ce32c2766a539fd7")])
    def test_moderate_slopes_are_pinned(self, name, params, digest):
        # closed-form values on 409 slopes, bit for bit
        out = conjugate(builtin_cost(name, **params)).fn(_SLOPES)
        got = hashlib.sha256(np.ascontiguousarray(out, "<f8").tobytes())
        assert got.hexdigest() == digest

    def test_column_search_is_pinned(self):
        # a table cost has no maximizer: its values are the column search's,
        # bit for bit as before the closed forms
        ts = np.linspace(0.0, 6.0, 200)
        out = conjugate(cost_from_table(ts, ts * ts)).fn(_SLOPES)
        got = hashlib.sha256(np.ascontiguousarray(out, "<f8").tobytes())
        assert got.hexdigest() == \
            "97c40afe92f3a8f1f4e0f1fcf5fa2dabafa7fa645da504f05fb542bb1c662c29"

    def test_column_search_brackets_past_80_doublings(self):
        # x -> 2 theta_2(x/2) = x^2/2 has no maximizer; the peak of
        # x y - x^2/2 is at x = y, beyond 2**80 for y = 1e25
        c = conjugate(verify.tci_to_strong_cost(builtin_cost("theta_p", p=2)))
        y = np.array([1e20, 1e24, 1e25])
        np.testing.assert_allclose(c.fn(y), y * y / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("name, params", [("theta_p", {"p": 2.0}),
                                              ("alpha1", {}),
                                              ("gamma", {"lam": 0.5}),
                                              ("theta_p", {"p": 1.5}),
                                              ("theta_p", {"p": 3.0}),
                                              ("alpha_p", {"p": 1.5}),
                                              ("alpha_p", {"p": 2.0}),
                                              ("alpha_p", {"p": 3.0}),
                                              ("maurey", {}),
                                              ("gamma", {"lam": 0.25})])
    def test_scalar_is_the_length_one_array(self, name, params):
        c = conjugate(builtin_cost(name, **params))
        for y in (0.0, 0.3, -0.7, 1.5, 12.0, math.inf):
            out = c.fn(y)
            assert type(out) is float
            assert np.array_equal(out, c.fn(np.array([y]))[0])
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = c.fn(grid)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), c.fn(grid.ravel()))
        assert np.array_equal(out.ravel(), [c.fn(float(y)) for y in grid.flat])

    def test_nan_gives_nan(self):
        for c in (conjugate(builtin_cost(n, **p)) for n, p in _CLOSED_FORMS):
            assert math.isnan(c.fn(math.nan))
            out = c.fn(np.array([math.nan, 1.0, -math.inf]))
            assert math.isnan(out[0]) and out[1] > 0.0 and out[2] == math.inf

    def test_deriv_past_the_slope_cap_is_infinite(self, alpha1, theta2):
        # the right derivative; finite slopes are the exact maximizer y/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            capped = conjugate(alpha1).deriv(np.array([1.0, 2.5, 7.0, 40.0]))
            maurey = conjugate(builtin_cost("maurey")).deriv(
                np.array([0.3, 1.0, 2.5, 7.0, 40.0]))
            scalar = conjugate(alpha1).deriv(7.0)
            finite = conjugate(theta2).deriv(
                np.array([0.05, 0.3, 1.0, 2.5, 7.0, 40.0]))
        assert np.all(capped == math.inf) and np.all(maurey == math.inf)
        assert scalar == math.inf
        assert finite.tolist() == [0.025, 0.15, 0.5, 1.25, 3.5, 20.0]

    def test_numeric_deriv_without_a_maximizer(self, alpha1, theta2):
        # a profile without a maximizer takes the central difference of the
        # column-search values: y/2 for theta_p 2, and +inf from alpha1's
        # slope cap 1 on, where the upper difference point is +inf
        y = np.array([0.3, 1.0, 2.5, 7.0, 40.0])
        got = conjugate(dataclasses.replace(theta2, maximizer=None)).deriv(y)
        np.testing.assert_allclose(got, y / 2.0, rtol=1e-8, atol=0.0)
        capped = conjugate(dataclasses.replace(alpha1,
                                               maximizer=None)).deriv(y)
        assert capped[0] == pytest.approx(0.15, rel=1e-8)
        assert np.all(capped[1:] == math.inf)


@pytest.mark.parametrize("name, params", _CLOSED_FORMS)
class TestClosedFormConjugates:
    """``conjugate`` through ``CostFunction.maximizer``, against the column
    search that profiles without one take."""

    @pytest.fixture
    def cost(self, name, params):
        return builtin_cost(name, **params)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_the_column_search(self, cost, sign):
        y = sign * _SLOPES
        got = conjugate(cost).fn(y)
        ref = conjugate(dataclasses.replace(cost, maximizer=None)).fn(y)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        if cost.name in ("theta_p(p=2)", "alpha_p(p=2)"):
            np.testing.assert_allclose(got, y * y / 4.0, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fenchel_young_equality(self, cost, sign):
        y = sign * _SLOPES
        x = cost.maximizer(_SLOPES)
        peak = np.isfinite(x)
        np.testing.assert_allclose(cost.fn(x[peak]) + conjugate(cost).fn(
            y[peak]), x[peak] * _SLOPES[peak], rtol=1e-15, atol=0.0)
        assert np.all(np.isinf(conjugate(cost).fn(y[~peak])))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_deriv_is_the_maximizer(self, cost, sign):
        # the right derivative: +inf where the conjugate is +inf one ulp on
        y = sign * _SLOPES
        c = conjugate(cost)
        past = np.isinf(c.fn(np.nextafter(_SLOPES, math.inf)))
        want = np.where(past, math.inf, cost.maximizer(_SLOPES))
        assert np.array_equal(c.deriv(y), want)

    def test_shape_and_nan(self, cost):
        c = conjugate(cost)
        grid = np.geomspace(1e-2, 1e2, 12).reshape(3, 4)
        for f in (c.fn, c.deriv):
            assert np.shape(f(grid)) == (3, 4)
            assert np.array_equal(f(grid).ravel(), f(grid.ravel()))
            assert math.isnan(f(math.nan))
            assert math.isnan(np.asarray(f(np.array([math.nan, 1.0])))[0])


@pytest.mark.parametrize("name, params, cap, value", [
    ("gamma", {"lam": 0.25}, 0.75, 3.0), ("gamma", {"lam": 0.5}, 0.5, 1.0),
    ("maurey", {}, 2.0 / 9.0, 4.0 / 9.0), ("alpha1", {}, 1.0, 0.25),
    ("theta_p", {"p": 1.0}, 2.0, 1.0), ("alpha_p", {"p": 1.0}, 1.0, 0.25)])
def test_closed_form_slope_caps(name, params, cap, value):
    c = conjugate(builtin_cost(name, **params))
    past = np.nextafter(cap, math.inf)
    assert c.fn(cap) == c.fn(-cap) == value
    assert c.fn(past) == c.fn(-past) == math.inf
    assert c.deriv(cap) == c.deriv(past) == math.inf
    assert math.isfinite(c.deriv(np.nextafter(cap, 0.0)))


def test_derived_profiles_carry_no_maximizer(theta2):
    # their conjugates must take the column search: a maximizer inherited
    # from theta2 would give a too-low conjugate
    assert verify.tci_to_strong_cost(theta2).maximizer is None
    spliced = criteria.lsi_tilde_potential(measures.make_builtin("gaussian"))
    assert spliced[0].maximizer is None


class TestTableCosts:
    def test_roundtrip(self):
        ts = np.linspace(0.0, 6.0, 200)
        tab = cost_from_table(ts, ts * ts)
        assert tab.fn(2.5) == pytest.approx(6.25, rel=1e-4)
        assert tab.fn(-2.5) == tab.fn(2.5)
        # linear continuation beyond the table edge
        assert tab.fn(8.0) == pytest.approx(tab.fn(6.0) + 2.0 * tab.deriv(6.0),
                                            rel=1e-3)

    def test_must_start_at_origin(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="start at"):
            cost_from_table(ts, ts * ts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column,name", [(0, "abscissae t"),
                                             (1, "cost values alpha")])
    def test_non_finite_entries_rejected(self, bad, column, name):
        table = [np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                 np.array([0.0, 1.0, 4.0, 9.0, 16.0])]
        table[column][2] = bad
        with pytest.raises(ValueError, match=f"table {name} must be finite"):
            cost_from_table(*table)


    def test_deriv_is_the_pchip_derivative(self):
        ts = np.linspace(0.0, 8.0, 33)
        vals = np.where(ts <= 1.0, ts * ts, 2.0 * ts - 1.0)
        tab = cost_from_table(ts, vals)
        dinterp = numerics.pchip(ts, vals)[1]
        inside = np.linspace(0.0, 8.0, 1001)
        assert np.array_equal(tab.deriv(inside), dinterp(inside))
        assert np.array_equal(tab.deriv(-inside), dinterp(inside))
        beyond = np.array([8.0, 8.5, 30.0, 1e6])
        assert np.array_equal(tab.deriv(beyond),
                              np.full(4, dinterp(8.0)))


def _table_cost():
    ts = np.linspace(0.0, 8.0, 33)
    return cost_from_table(ts, np.where(ts <= 1.0, ts * ts, 2.0 * ts - 1.0))


#: every kind of profile the package builds, with the relative tolerance of
#: its derivative against a central difference of its values
_DERIV_COSTS = {
    "alpha1": (lambda: builtin_cost("alpha1"), 1e-8),
    "alpha_p1.5": (lambda: builtin_cost("alpha_p", p=1.5), 1e-8),
    "alpha_p3": (lambda: builtin_cost("alpha_p", p=3.0), 1e-8),
    "theta_p2": (lambda: builtin_cost("theta_p", p=2.0), 1e-8),
    "theta_p3": (lambda: builtin_cost("theta_p", p=3.0), 1e-8),
    "maurey": (lambda: builtin_cost("maurey"), 1e-8),
    "gamma0.5": (lambda: builtin_cost("gamma", lam=0.5), 1e-8),
    "table": (_table_cost, 1e-8),
    "spliced": (lambda: criteria.lsi_tilde_potential(
        measures.make_builtin("exp_power", p=3.0))[0], 1e-8),
    "doubled_theta_p2": (lambda: verify.tci_to_strong_cost(
        builtin_cost("theta_p", p=2.0)), 1e-8),
    "conjugate_theta_p3": (lambda: conjugate(builtin_cost("theta_p", p=3.0)),
                           1e-8),
}


@pytest.mark.parametrize("name", _DERIV_COSTS)
def test_deriv_matches_a_central_difference(name):
    make, rtol = _DERIV_COSTS[name]
    cost = make()
    # off every kink (at most 1, 2 and 4) and off the table's knots
    t = np.array([0.1, 0.37, 0.8, 1.55, 2.7, 5.3, 7.9, 9.1, 20.0])
    h = 1e-5 * t
    diff = (np.asarray(cost.fn(t + h)) - np.asarray(cost.fn(t - h))) / (2 * h)
    np.testing.assert_allclose(cost.deriv(t), diff, rtol=rtol)


@pytest.mark.parametrize("name", _DERIV_COSTS)
def test_deriv_is_even(name):
    cost = _DERIV_COSTS[name][0]()
    t = np.array([0.0, 0.1, 0.37, 0.8, 1.0, 1.55, 2.7, 5.3, 7.9, 9.1, 20.0])
    np.testing.assert_array_equal(cost.deriv(-t), cost.deriv(t))


class TestRescaling:
    def test_quadratic_constant(self, theta2):
        # alpha(2x) >= 2 alpha(x) holds for powers; k = ceil(b1) = 2
        assert scaling_equivalence_constant(theta2, 2.0, 4.0, a=1.0) == \
            pytest.approx(1.0 / 8.0)

    def test_positivity_required(self, theta2):
        with pytest.raises(ValueError):
            scaling_equivalence_constant(theta2, -1.0, 1.0)

    @pytest.mark.parametrize("label,bad", [
        ("b1", math.inf), ("b1", math.nan), ("b1", -math.inf),
        ("b2", math.inf), ("b2", math.nan), ("a", math.inf), ("a", math.nan)])
    def test_non_finite_constants_are_named(self, theta2, label, bad):
        args = {"b1": 2.0, "b2": 4.0, "a": 1.0, label: bad}
        with pytest.raises(ValueError, match=f"^{label} must be finite"):
            scaling_equivalence_constant(theta2, **args)

    def test_factor_cap(self, theta2):
        from tcilab.costs import MAX_SCALING_FACTOR
        calls = []

        def fn(t):
            calls.append(1)
            return theta2.fn(t)
        spy = dataclasses.replace(theta2, fn=fn)
        for b1 in (MAX_SCALING_FACTOR + 0.5, 1e300):
            with pytest.raises(ValueError, match="MAX_SCALING_FACTOR"):
                scaling_equivalence_constant(spy, b1, 1.0)
        assert calls == []  # refused before any grid re-check
        # the largest accepted factor still runs every re-check
        assert scaling_equivalence_constant(
            spy, float(MAX_SCALING_FACTOR), 2.0) == 0.5 / MAX_SCALING_FACTOR
        assert len(calls) == 2 * (MAX_SCALING_FACTOR - 1)


def _numeric_inverse_costs():
    ts = np.linspace(0.0, 6.0, 200)
    return {
        "gamma": builtin_cost("gamma", lam=0.5),
        "table": cost_from_table(ts, ts * ts),
        "conjugate": conjugate(builtin_cost("theta_p", p=2)),
        "spliced": criteria.lsi_tilde_potential(
            measures.make_builtin("gaussian"))[0],
    }


class TestNumericInverses:
    """The inverses solved by ``numerics.monotone_root``."""

    @pytest.fixture(scope="class", params=["gamma", "table", "conjugate",
                                           "spliced"])
    def cost(self, request):
        return _numeric_inverse_costs()[request.param]

    def test_roundtrip(self, cost):
        levels = np.geomspace(1e-12, 1e4, 17)
        t = cost.inverse(levels)
        np.testing.assert_allclose(cost.fn(t), levels, rtol=1e-9, atol=0.0)

    def test_special_levels(self, cost):
        assert cost.inverse(0.0) == 0.0
        out = cost.inverse(np.array([-1.0, 0.0, math.nan, math.inf]))
        assert out[0] == out[1] == 0.0
        assert math.isnan(out[2]) and out[3] == math.inf

    def test_scalar_matches_array(self, cost):
        for s in (1e-12, 0.3, 7.5, 1e4):
            scalar = cost.inverse(s)
            assert isinstance(scalar, float)
            assert scalar == cost.inverse(np.array([s]))[0]

    def test_shape_kept(self, cost):
        levels = np.geomspace(1e-3, 1e3, 6).reshape(2, 3)
        out = cost.inverse(levels)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.ravel(), cost.inverse(levels.ravel()))


def _rule_cases():
    """Every kind of callable the package hands out, as ``(label, callable,
    argument arrays)``; a callable of two arguments gets two arrays."""
    rng = np.random.default_rng(32)

    def pts(lo, hi, n, *fixed):
        return np.concatenate((fixed, rng.uniform(lo, hi, n - len(fixed))))

    def cost_calls(cost, n=16, slopes=None):
        calls = [("fn", cost.fn, (pts(-10.0, 10.0, n, 0.0, 1.0, -1.0),)),
                 ("deriv", cost.deriv, (pts(-10.0, 10.0, n, 0.0, 1.0),)),
                 ("inverse", cost.inverse, (pts(0.0, 20.0, n, 0.0, 1.0),))]
        if cost.maximizer is not None:
            calls.append(("maximizer", cost.maximizer,
                          (pts(0.0, 3.0, n, 0.0, 0.5),)))
        return calls

    builtins = {f"{n} p={p:g}": (n, {"p": p})
                for n in ("alpha_p", "theta_p") for p in (1.5, 2.0, 3.0)}
    builtins.update(alpha1=("alpha1", {}), maurey=("maurey", {}),
                    gamma=("gamma", {"lam": 0.5}))
    cases = {k: (lambda n=n, p=p: cost_calls(builtin_cost(n, **p)))
             for k, (n, p) in builtins.items()}
    cases["table"] = lambda: cost_calls(_table_cost())
    cases["conjugate closed form"] = lambda: cost_calls(
        conjugate(builtin_cost("theta_p", p=3.0)))
    cases["conjugate column search"] = lambda: cost_calls(
        conjugate(_table_cost()), n=6)
    cases["tci_to_strong_cost"] = lambda: cost_calls(
        verify.tci_to_strong_cost(builtin_cost("theta_p", p=2.0)))

    def transport_calls():
        from tcilab.transport import GridFunction
        grid = np.linspace(0.0, 10.0, 11)
        g = GridFunction(grid, rng.normal(size=11))
        return [("GridFunction", g, (pts(-2.0, 12.0, 16, 0.0, 10.0),))]

    def rearrangement_calls():
        rm = criteria.rearrangement(
            measures.make_builtin("exp_power", p=1.5))
        skew = criteria.skewed_cost(rm, builtin_cost("alpha1"), scale=0.7,
                                    prefactor=2.0)
        return [("forward", rm.forward, (pts(-15.0, 15.0, 16, 0.0),)),
                ("inverse", rm.inverse, (pts(-5.0, 5.0, 16, 0.0),)),
                ("skewed_cost", skew, (pts(-5.0, 5.0, 16, 0.0),
                                       pts(-5.0, 5.0, 16, 1.0)))]

    cases["GridFunction"] = transport_calls
    cases["rearrangement"] = rearrangement_calls
    return cases


_RULE_CASES = _rule_cases()


@pytest.mark.parametrize("case", sorted(_RULE_CASES))
def test_scalar_calls_are_array_elements(case):
    # one evaluation rule: a scalar or a 0-d argument is a length-one array
    # and comes back as a float with the bits of its array element, and a
    # 2-D argument keeps its shape
    for label, fn, args in _RULE_CASES[case]():
        arr = fn(*args)
        n = len(arr)
        for wrap in (float, np.array):
            scalars = [fn(*(wrap(a[i]) for a in args)) for i in range(n)]
            assert {type(v) for v in scalars} == {float}, (label, wrap)
            np.testing.assert_array_equal(
                np.array(scalars).view(np.int64), arr.view(np.int64),
                err_msg=f"{label} {wrap.__name__}")
        square = fn(*(a.reshape(2, -1) for a in args))
        assert square.shape == (2, n // 2), label
        np.testing.assert_array_equal(square.ravel().view(np.int64),
                                      arr.view(np.int64), err_msg=label)


def test_rewrapping_adds_no_layer():
    # a rebuilt profile (dataclasses.replace, lsi_tilde_potential's
    # convexity flag) keeps the callables it was given
    cost = builtin_cost("alpha1")
    again = dataclasses.replace(cost, convex=True)
    for field in ("fn", "deriv", "inverse", "maximizer"):
        assert getattr(again, field) is getattr(cost, field)
    assert numerics.elementwise(cost.fn) is cost.fn
