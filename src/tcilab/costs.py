"""Even cost profiles ``alpha`` used in transport costs ``c(x,y) = alpha(a(x-y))``.

The admissible class consists of even, continuous functions vanishing at 0,
nondecreasing and superadditive on the positive axis, and agreeing with
``t**2`` on ``[-1, 1]``.  Built-ins cover the quadratic-linear profile
``min(|t|, t**2)``, power and spliced-power families, the quadratic-linear
profile with the 1/36 constant, and the exponential-bridge family
``(1/l - 1) * (exp(-l|t|) - 1 + l|t|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numerics
from .verdict import Verdict, HOLDS, FAILS

__all__ = [
    "CostFunction", "builtin_cost", "cost_from_table",
    "validate_admissible", "conjugate", "scaling_equivalence_constant",
]


@dataclass(frozen=True)
class CostFunction:
    """Even scalar cost profile with its analytic companions.

    ``fn`` is the profile itself (vectorized, even); ``deriv`` its
    right-derivative on the positive axis, taken at ``|t|`` (so even);
    ``inverse`` the inverse of the restriction to the positive axis.
    ``convex`` says whether ``fn`` is convex, and ``kinks`` lists the
    positive abscissae where the derivative jumps.  ``maximizer``, set by
    the built-in constructors, maps slopes ``s >= 0`` to the least
    ``x >= 0`` where ``x s - fn(x)`` reaches its supremum over the convex
    envelope of ``fn`` (finite at a slope cap; at ``gamma``'s asymptotic
    cap, where it reaches it in floating point), ``+inf`` past a slope cap
    and ``nan`` at ``nan``; :func:`conjugate` evaluates through it.
    Membership in the admissible class is decided by
    :func:`validate_admissible`.
    """

    name: str
    fn: Callable
    deriv: Callable
    inverse: Callable
    convex: bool
    kinks: tuple = ()
    maximizer: Optional[Callable] = None

    def __call__(self, t):
        return self.fn(t)


def _numeric_deriv(fn):
    # The conjugate of a profile without a maximizer uses it.  The
    # golden-section argmax (tol 1e-13) would be less accurate: on the
    # column search of theta_p 2 at y in {0.3, 1, 2.5, 7, 40} it is 7e-9 to
    # 1.9e-8 off, relative to the exact y/2; this central difference (step
    # 1e-6) is 1.8e-11 to 2.5e-9 off.
    def d(t):
        tp = np.abs(np.asarray(t, dtype=float))
        lo = fn(np.maximum(tp - 1e-6, 0.0))
        # past a slope cap both points are +inf, and so is the derivative
        return (fn(tp + 1e-6) - np.where(lo < math.inf, lo, 0.0)) / (
            1e-6 + np.minimum(tp, 1e-6))
    return d


def _numeric_inverse(fn):
    """Inverse of the nondecreasing ``fn`` on the positive axis.

    Each level's bracket ``[0, hi]`` doubles ``hi`` from 1 while ``fn(hi)``
    is below the level, all levels at once; a level still above ``fn`` after
    200 doublings, or infinite, gives ``inf``.  The brackets go to
    :func:`numerics.monotone_root` (bisection to a collapsed bracket).  A
    level ``<= 0`` gives 0 and ``nan`` gives ``nan``; a scalar takes the
    path of a length-one array and gives a float.
    """
    def inv(s):
        s = np.asarray(s, dtype=float)
        lev = s.ravel()
        out = np.where(lev > 0.0, math.inf, np.where(np.isnan(lev), lev, 0.0))
        idx = np.flatnonzero((lev > 0.0) & (lev < math.inf))
        lev, hi = lev[idx], np.ones(len(idx))
        short = fn(hi) < lev
        for _ in range(199):
            if not short.any():
                break
            hi[short] *= 2.0
            short[short] = fn(hi[short]) < lev[short]
        idx, lev, hi = idx[~short], lev[~short], hi[~short]
        out[idx] = numerics.monotone_root(fn, lev, np.zeros(len(idx)), hi)
        return out.reshape(s.shape) if s.ndim else float(out[0])
    return inv


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def _power_argmax(k, q):
    """Inverse of the slope ``k t**(q - 1)`` (``q >= 1``) on the positive
    axis; a constant slope ``k`` (``q = 1``) gives 0 up to ``k`` and
    ``+inf`` beyond."""
    if q == 1.0:
        return lambda s: np.where(np.asarray(s) > k, math.inf,
                                  np.minimum(s, 0.0))
    return lambda s: (np.asarray(s, dtype=float) / k) ** (1.0 / (q - 1.0))


def _spliced(name, outer, outer_deriv, outer_inverse, convex, kinks,
             outer_argmax=None):
    """Even profile equal to ``t**2`` on [-1, 1] and ``outer(|t|)`` beyond.

    ``deriv`` is ``2|t|`` below 1 and ``outer_deriv(|t|)`` from 1 on (the
    right derivative at a kink).  ``inverse`` is the square root up to
    level 1 and ``outer_inverse`` of the level beyond (levels <= 0 give 0);
    without ``outer_inverse`` it is :func:`_numeric_inverse` of the profile.
    ``maximizer`` takes the better of the two pieces' peaks, ``s/2``
    clipped to [0, 1] and ``outer_argmax(s)`` (the inverse of
    ``outer_deriv``) clipped to [1, inf): the conjugate of a minimum is the
    maximum of the conjugates, so a nonconvex splice gets the conjugate of
    its convex envelope.  Without ``outer_argmax`` there is no maximizer.
    """
    def fn(t):
        t = np.abs(np.asarray(t, dtype=float))
        return np.where(t <= 1.0, t * t, outer(t))

    def deriv(t):
        t = np.abs(np.asarray(t, dtype=float))
        return np.where(t < 1.0, 2.0 * t, outer_deriv(t))

    def inverse(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 1.0, np.sqrt(np.maximum(s, 0.0)),
                        outer_inverse(np.maximum(s, 1.0)))

    def maximizer(s):
        s = np.asarray(s, dtype=float)
        inner = np.minimum(s / 2.0, 1.0)
        far = np.maximum(outer_argmax(s), 1.0)
        # inf - inf (past a cap, or an overflow) compares False: far wins
        with np.errstate(invalid="ignore", over="ignore"):
            near = s * inner - inner * inner >= s * far - outer(far)
        return np.where(near, inner, far)

    if outer_inverse is None:
        inverse = _numeric_inverse(fn)
    return CostFunction(name, fn, deriv, inverse, convex=convex, kinks=kinks,
                        maximizer=None if outer_argmax is None else maximizer)


def _alpha1():
    spliced = _spliced("alpha1", lambda t: t, lambda t: 1.0, lambda s: s,
                       convex=False, kinks=(1.0,),
                       outer_argmax=_power_argmax(1.0, 1.0))

    def fn(t):
        # min(t**2, |t|) is the splice bit for bit (t**2 rounds to at most
        # |t| below 1 and to at least |t| above), without the select, which
        # on random arguments costs more than the arithmetic
        t = np.abs(np.asarray(t, dtype=float))
        sq = np.multiply(t, t, out=np.empty_like(t))
        return np.minimum(sq, t, out=sq)

    return CostFunction("alpha1", fn, spliced.deriv, spliced.inverse,
                        convex=False, kinks=(1.0,),
                        maximizer=spliced.maximizer)


def _exponent(p):
    """The power-family exponent ``p`` as a float; finite and >= 1."""
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    return p


def _alpha_p(p):
    p = _exponent(p)
    if p < 2.0:
        return _spliced(f"alpha_p(p={p:g})", lambda t: t ** p,
                        lambda t: p * t ** (p - 1.0),
                        lambda s: s ** (1.0 / p), convex=False, kinks=(1.0,),
                        outer_argmax=_power_argmax(p, p))

    def fn(t):
        return np.abs(np.asarray(t, dtype=float)) ** p

    def deriv(t):
        return p * np.abs(np.asarray(t, dtype=float)) ** (p - 1.0)

    def inverse(s):
        return np.maximum(np.asarray(s, dtype=float), 0.0) ** (1.0 / p)

    return CostFunction(f"alpha_p(p={p:g})", fn, deriv, inverse, convex=True,
                        maximizer=_power_argmax(p, p))


def _theta_p(p):
    p = _exponent(p)
    off = 1.0 - 2.0 / p
    return _spliced(f"theta_p(p={p:g})", lambda t: (2.0 / p) * t ** p + off,
                    lambda t: 2.0 * t ** (p - 1.0),
                    lambda s: ((s - off) * p / 2.0) ** (1.0 / p),
                    convex=True, kinks=(), outer_argmax=_power_argmax(2.0, p))


def _maurey_tilde():
    # quadratic-to-linear profile with the 1/36 constant; continuous at 4
    def fn(t):
        t = np.abs(np.asarray(t, dtype=float))
        return np.where(t <= 4.0, t * t / 36.0, (2.0 / 9.0) * (t - 2.0))

    def deriv(t):
        t = np.abs(np.asarray(t, dtype=float))
        return np.where(t <= 4.0, t / 18.0, 2.0 / 9.0)

    def inverse(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 4.0 / 9.0, 6.0 * np.sqrt(np.maximum(s, 0.0)),
                        2.0 + 4.5 * s)

    def maximizer(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 2.0 / 9.0, math.inf, np.minimum(18.0 * s, 4.0))

    return CostFunction("maurey_tilde", fn, deriv, inverse, convex=True,
                        maximizer=maximizer)


def _talagrand_gamma(lam):
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    c = 1.0 / lam - 1.0

    def fn(t):
        # exp(-x) - 1 + x cancels at small x: below x = 0.1 its series to
        # x**11 (4e-19 relative truncation), from 0.1 up expm1(-x) + x
        # (within 2.2e-16 / x relative, which would be 2e-13 at x = 1e-3)
        x = lam * np.abs(np.asarray(t, dtype=float))
        s = np.minimum(x, 0.1)
        series = 0.0
        for k in range(11, 1, -1):
            series = 1.0 / math.factorial(k) - s * series
        return c * np.where(x < 0.1, s * s * series, np.expm1(-x) + x)

    def deriv(t):
        t = np.abs(np.asarray(t, dtype=float))
        return (1.0 - lam) * (1.0 - np.exp(-lam * t))

    def maximizer(s):
        # deriv only tends to its cap 1 - lam; at the cap itself x = 40/lam,
        # where e^{-lam x} is below the rounding of 1, so x s - fn(x) is the
        # supremum 1/lam - 1
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = -np.log1p(-s / (1.0 - lam)) / lam
        return np.where(s > 1.0 - lam, math.inf, np.minimum(x, 40.0 / lam))

    return CostFunction(f"talagrand_gamma(lambda={lam:g})", fn, deriv,
                        _numeric_inverse(fn), convex=True,
                        maximizer=maximizer)


_COST_BUILTINS = {
    "alpha1": _alpha1,
    "alpha_p": _alpha_p,
    "theta_p": _theta_p,
    "maurey": _maurey_tilde,
    "maurey_tilde": _maurey_tilde,
    "gamma": _talagrand_gamma,
    "talagrand_gamma": _talagrand_gamma,
}


def builtin_cost(name: str, **params) -> CostFunction:
    """Construct a built-in cost profile by name.

    Names: ``alpha1``, ``alpha_p`` (param ``p``), ``theta_p`` (param ``p``),
    ``maurey_tilde`` (alias ``maurey``), ``talagrand_gamma`` (alias ``gamma``,
    param ``lam``).  Every parameter must be finite.
    """
    try:
        factory = _COST_BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin cost {name!r}") from None
    return factory(**params)


def cost_from_table(ts, vals, name="cost_table") -> CostFunction:
    """Even cost profile from samples ``(t_i, alpha(t_i))`` with ``t_i >= 0``.

    Interpolated monotonically inside the table and continued linearly with
    the edge slope beyond it; ``deriv`` is the interpolant's exact derivative
    (the edge slope beyond the table) and ``convex`` is established
    numerically.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ts.ndim != 1 or ts.shape != vals.shape or len(ts) < 4:
        raise ValueError("need at least 4 (t, alpha) samples")
    for col, v in (("abscissae t", ts), ("cost values alpha", vals)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"table {col} must be finite")
    if ts[0] != 0.0 or vals[0] != 0.0:
        raise ValueError("table must start at (0, 0)")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    if np.any(np.diff(vals) < 0):
        raise ValueError("cost values must be nondecreasing")
    interp, dinterp = numerics.pchip(ts, vals)
    slope = float(dinterp(ts[-1]))

    def fn(t):
        t = np.abs(np.asarray(t, dtype=float))
        inner = interp(np.minimum(t, ts[-1]))
        return np.where(t <= ts[-1], inner, vals[-1] + slope * (t - ts[-1]))

    def deriv(t):
        # dinterp(ts[-1]) is the edge slope, so clamping continues it
        return dinterp(np.minimum(np.abs(np.asarray(t, dtype=float)), ts[-1]))

    return CostFunction(name, fn, deriv, _numeric_inverse(fn),
                        convex=_is_convex_numeric(fn))


# ---------------------------------------------------------------------------
# validation and derived constructions
# ---------------------------------------------------------------------------

def _is_convex_numeric(fn):
    """Second differences of ``fn`` on 4097 points of [-64, 64] are at least
    ``-1e-9 (1 + |fn|)``."""
    v = np.asarray(fn(np.linspace(-64.0, 64.0, 4097)), dtype=float)
    second = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return bool(np.all(second >= -1e-9 * (1.0 + np.abs(v[1:-1]))))


def validate_admissible(cost: CostFunction) -> Verdict:
    """Grid validation of the admissible-class conditions.

    Checks on the fixed grid of 4096 equally spaced points of ``[0, 64]``:
    evenness, ``alpha(0)=0``, monotonicity, exact quadratic behaviour on
    ``[0, 1]`` (tolerance 1e-12), and superadditivity on the triangle
    ``x + y <= 64`` of pairs of the 257-point grid ``s`` of step 1/4
    (tolerance 1e-9).  The profile is evaluated once on ``s``: its points
    are exact multiples of 1/4, so ``s[i] + s[j]`` is ``s[i + j]`` and the
    triangle's gaps ``alpha(x + y) - alpha(x) - alpha(y)`` are differences
    of those 257 values.  The verdict reports the first violated condition
    (for superadditivity, the worst pair, the first in the order of ``y``,
    then ``x``).  A profile that overflows on the grid is checked up to its
    first non-finite point, ``overflow_from``, from which on it must stay
    ``+inf`` to be monotone; a pair whose sides both overflow tells nothing
    about superadditivity.
    """
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
        diag["violated"] = "evenness"
        diag["gap"] = sym_gap
        return Verdict(FAILS, {}, diag)
    if abs(float(cost.fn(0.0))) > 1e-12:
        diag["violated"] = "vanishing_at_zero"
        return Verdict(FAILS, {}, diag)
    drops = np.diff(head)
    falls = drops < -1e-12 * (1.0 + np.abs(head[:-1]))
    back = v[end:] != math.inf  # finite again, -inf or nan past an overflow
    if falls.any() or back.any():
        diag["violated"] = "monotonicity"
        diag["at"] = float(t[int(np.argmin(drops)) + 1 if falls.any()
                             else end + int(np.argmax(back))])
        return Verdict(FAILS, {}, diag)
    core = t[t <= 1.0]
    quad_gap = float(np.max(np.abs(np.asarray(cost.fn(core)) - core * core)))
    if quad_gap > 1e-12:
        diag["violated"] = "quadratic_near_zero"
        diag["gap"] = quad_gap
        return Verdict(FAILS, {}, diag)
    # superadditivity on a coarser triangle of pairs: row j (y = s[j]) of
    # fxy is a view of fs from j on, nan-padded past x + y = 64
    s = np.linspace(0.0, 64.0, 257)
    fs = np.asarray(cost.fn(s))
    fxy = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((fs, np.full(256, math.nan))), 257)
    with np.errstate(invalid="ignore"):  # nan where both sides overflow
        gap = fxy - fs - fs[:, None]
    if np.any(gap < -1e-9 * (1.0 + np.abs(fxy))):
        j, i = divmod(int(np.nanargmin(gap)), 257)
        diag["violated"] = "superadditivity"
        diag["pair"] = [float(s[i]), float(s[j])]
        diag["gap"] = float(gap[j, i])
        return Verdict(FAILS, {}, diag)
    return Verdict(HOLDS, {}, diag)


def conjugate(cost: CostFunction) -> CostFunction:
    """Convex (Legendre) conjugate ``alpha*(y) = sup_x (x y - alpha(x))``.

    Evaluated for a whole array of ``y`` at once, on the positive axis.
    When ``cost.maximizer`` is set, ``alpha*(y) = |y| x* - alpha(x*)`` at
    ``x* = cost.maximizer(|y|)`` (``+inf`` where ``x*`` is, or where both
    terms overflow) and ``deriv`` is ``x*`` by the envelope theorem, exact;
    it is ``+inf`` at a slope cap, where ``alpha*`` is ``+inf`` one ulp on.
    Otherwise the bracket ``[0, 2 hi]`` doubles ``hi`` from 1 until
    ``x |y| - alpha(x)`` stops growing, per entry; an entry whose increments
    still grow past ``hi = 1e12 max(1, |y|)`` (far beyond the maximizer of
    any profile that grows faster than linearly), or that finds no bracket
    before ``2 hi`` would overflow, lies beyond a slope cap and gives
    ``inf``.  All brackets are then refined together by one golden-section
    column search (tol 1e-13, one call of ``alpha`` per step).  When the
    profile is not convex a 2049-point scan of each bracket (in blocks of
    about 2**16 entries) picks the bracket of the search first, so the
    result is the conjugate of the convex envelope; ``deriv`` is then a
    central difference of the values.  ``nan`` gives ``nan``; a scalar
    gives a float.
    """
    base = cost.fn

    def g(x, y):
        return x * y - np.asarray(base(x), dtype=float)

    def value(y):
        y = np.abs(y)
        # 0 at 0, nan at nan, inf unless a bracket is found below
        out = np.where(y == 0.0, 0.0, np.where(np.isnan(y), math.nan,
                                                   math.inf))
        idx = np.flatnonzero((y > 0.0) & (y < math.inf))
        y = y[idx]
        hi, prev = np.ones(len(y)), np.full(len(y), -math.inf)
        g_hi = g(hi, y)
        act = np.arange(len(y))          # entries still growing a bracket
        found = np.zeros(len(y), dtype=bool)
        # hi = 2**k after k doublings: the last probe is 2 hi = 2**1023
        for _ in range(1023):
            if not act.size:
                break
            g_next = g(2.0 * hi[act], y[act])
            inc = g_next - g_hi[act]
            stop = inc <= 0
            found[act[stop]] = True
            # slope cap below y: linear growth forever
            grow = ~stop & ~((hi[act] > 1e12 * np.maximum(1.0, y[act]))
                             & (inc >= prev[act]) & (prev[act] > 0))
            act, inc, g_next = act[grow], inc[grow], g_next[grow]
            prev[act], hi[act], g_hi[act] = inc, 2.0 * hi[act], g_next
        idx, y = idx[found], y[found]
        lo, hi = np.zeros(len(y)), 2.0 * hi[found]
        scan = np.full(len(y), -math.inf)
        if not cost.convex:
            # search between the neighbours of the best scan point
            cols = max(1, 2 ** 16 // 2049)
            for j in range(0, len(y), cols):
                xs = np.linspace(0.0, hi[j:j + cols], 2049)
                vals = g(xs, y[j:j + cols])
                k, c = np.argmax(vals, axis=0), np.arange(xs.shape[1])
                scan[j:j + cols] = vals[k, c]
                lo[j:j + cols] = xs[np.maximum(k - 1, 0), c]
                hi[j:j + cols] = xs[np.minimum(k + 1, 2048), c]
        best = numerics._golden_columns(lambda x: g(x, y), lo, hi,
                                        np.ones(len(y), dtype=bool), 1e-13)[1]
        best = np.maximum(best, scan)
        out[idx] = np.maximum(best, 0.0)
        return out

    top = cost.maximizer

    def closed(y):
        y = np.abs(y)
        x = top(y)
        with np.errstate(invalid="ignore", over="ignore"):
            out = g(x, y)
        return np.where(np.isnan(out) & ~np.isnan(x), math.inf, out)

    evaluate = value if top is None else closed

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = evaluate(t.ravel())
        return out.reshape(t.shape) if t.ndim else float(out[0])

    def deriv(t):
        y = np.abs(np.asarray(t, dtype=float))
        return np.where(top(np.nextafter(y, math.inf)) == math.inf, math.inf,
                        top(y))

    return CostFunction(f"conjugate({cost.name})", fn,
                        _numeric_deriv(fn) if top is None else deriv,
                        _numeric_inverse(fn), convex=True)


def scaling_equivalence_constant(cost: CostFunction, b1: float, b2: float,
                                 a: float = 1.0) -> float:
    """Rescaled constant ``a / (b2 * ceil(b1))`` for moving a two-parameter
    bound ``alpha(b1 * .) <= b2 * (...)`` back to scale 1.

    Valid whenever ``alpha(k x) >= k alpha(x)`` for the integer
    ``k = ceil(b1)``, which the admissible class guarantees; the inequality
    is re-checked on a grid for ``k`` up to ``max(8, ceil(b1))``.
    """
    if b1 <= 0 or b2 <= 0 or a <= 0:
        raise ValueError("all constants must be positive")
    k = int(math.ceil(b1))
    t = np.linspace(0.0, 64.0, 2049)
    for kk in range(2, max(8, k) + 1):
        x = t / kk
        gap = np.asarray(cost.fn(kk * x)) - kk * np.asarray(cost.fn(x))
        if np.any(gap < -1e-9 * (1.0 + np.abs(np.asarray(cost.fn(kk * x))))):
            raise ValueError(
                f"profile does not satisfy alpha({kk} x) >= {kk} alpha(x); "
                "rescaling identity not applicable")
    return a / (b2 * k)
