"""Rearrangement from the two-sided exponential law and decision criteria.

The reference law has density ``exp(-|x|)/2``.  Every atomless full-support
measure ``mu`` is the push-forward of the reference law under the monotone map
``T = Q_mu . F_ref``; the regularity of ``T`` (Lipschitz, uniformly
continuous) governs which transport-entropy inequalities ``mu`` satisfies and
with which cost.  This module computes the map, the one-sided inverse
moduli of its tails, and the finite/infinite functionals (A+/A-, D+/D-,
residual moment sups, exponential moments along rays) that decide the
criteria, returning :class:`Verdict` objects with witness constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from . import numerics
from .costs import CostFunction, builtin_cost, validate_admissible
from .measures import Measure1D, is_log_concave, make_builtin
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict

__all__ = [
    "RearrangementMap", "rearrangement", "omega_bounds",
    "lipschitz_check", "muckenhoupt", "K_moment",
    "assemble_rate", "decide_strong_tci_lip",
    "decide_strong_tci_logconcave", "suff_condition",
    "int_equiv_ratio", "lsi_tilde_potential", "skewed_cost",
    "DEFAULT_KAPPA",
]

#: prefactor kappa in the contraction costs (overridable per call).
DEFAULT_KAPPA = 36.0

_REF = make_builtin("exponential")         # reference law, density e^{-|x|}/2
_ALPHA1 = builtin_cost("alpha1")           # its canonical cost min(t^2, |t|)

# level walls used everywhere a quantile must stay strictly inside (0, 1)
_TINY_LEVEL = 1e-15
_GRID_LEVEL = 1e-10


def _scan_grid(mu: Measure1D, side: str, n: int = 512) -> np.ndarray:
    """Geometric-progression grid from the median out to the far quantile."""
    m = mu.median
    if side == "plus":
        far = mu.quantile(1.0 - _GRID_LEVEL)
        return m + numerics.geometric_offsets(far - m, n - 1)
    far = mu.quantile(_GRID_LEVEL)
    return m - numerics.geometric_offsets(m - far, n - 1)


def _probe_growth(f: Callable[[float], float], x_end: float, span: float,
                  best: float) -> Tuple[bool, list]:
    """Divergence probes beyond a scan grid.

    Evaluates ``f`` at doubling distances past ``x_end``; reports divergence
    when the value grows by more than the 10% rule twice in a row (relative
    to the running maximum including ``best``), or when a probe returns
    ``+inf``.  A ``nan`` probe means both numerator and denominator have
    underflowed -- the probes stop there without claiming divergence.
    """
    vals = []
    prev = best
    streak = 0
    step = max(span, 1.0)
    for k in range(6):
        x = x_end + step * (2.0 ** k)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = float(f(x))
        vals.append((x, v))
        if math.isnan(v):
            break
        if math.isinf(v):
            return True, vals
        if v > prev * (1.0 + numerics.DIVERGENCE_GROWTH):
            streak += 1
            if streak >= 2:
                return True, vals
        else:
            streak = 0
        prev = max(prev, v)
    return False, vals


# ---------------------------------------------------------------------------
# the monotone rearrangement and its moduli
# ---------------------------------------------------------------------------

@dataclass
class RearrangementMap:
    """Monotone transport map from the reference exponential law to ``mu``.

    ``forward`` pushes the reference law onto ``mu``; ``inverse`` is the
    closed-form pull-back ``-log(2 sf(x))`` right of the median and
    ``log(2 F(x))`` left of it.  ``lipschitz_bound`` is ``max(A+, A-)``
    when the Lipschitz functional is finite, else ``None``.
    """

    mu: Measure1D
    forward: Callable
    inverse: Callable
    lipschitz_bound: Optional[float] = None


def rearrangement(mu: Measure1D,
                  establish_lipschitz: bool = True) -> RearrangementMap:
    """Build the monotone rearrangement map for ``mu``."""
    m = mu.median

    def forward(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        hi = xa >= 0.0
        # route each half through the tail representation that keeps full
        # relative precision (sf is exp(-x)/2 on the right, cdf exp(x)/2 on
        # the left) so the reference law maps to itself at machine accuracy
        if hi.any():
            s = np.clip(_REF.sf(xa[hi]), _TINY_LEVEL, 1.0 - _TINY_LEVEL)
            out[hi] = mu.isf(s)
        if (~hi).any():
            t = np.clip(_REF.cdf(xa[~hi]), _TINY_LEVEL, 1.0 - _TINY_LEVEL)
            out[~hi] = mu.quantile(t)
        return out if np.ndim(x) else float(out[0])

    def inverse(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            right = -np.log(2.0 * np.maximum(mu.sf(y), 0.0))
            left = np.log(2.0 * np.maximum(mu.cdf(y), 0.0))
        out = np.where(y >= m, right, left)
        return out if np.ndim(y) else float(out)

    bound = None
    if establish_lipschitz:
        v = lipschitz_check(mu)
        if v.holds:
            bound = v.constants["lipschitz_bound"]
    return RearrangementMap(mu, forward, inverse, bound)


def omega_bounds(rm: RearrangementMap, h_grid
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided inverse moduli and their combined lower bound.

    ``omega_plus(h)`` is the infimum over ``x >= m`` of the residual tail
    exponent ``-log(sf(x+h)/sf(x))``; ``omega_minus`` mirrors it left of the
    median; the combined bound is ``min(omega_plus(h/2), omega_minus(h/2))``.
    All three are nondecreasing in h.
    """
    mu = rm.mu
    h = np.atleast_1d(np.asarray(h_grid, dtype=float))
    grids = {"plus": _scan_grid(mu, "plus"), "minus": _scan_grid(mu, "minus")}

    def one_side(side: str, hh: float) -> float:
        if hh <= 0:
            return 0.0
        g = grids[side]
        with np.errstate(divide="ignore", invalid="ignore"):
            if side == "plus":
                vals = -np.log(mu.sf(g + hh) / mu.sf(g))
            else:
                vals = -np.log(mu.cdf(g - hh) / mu.cdf(g))
        vals = np.where(np.isnan(vals), np.inf, vals)
        k = int(np.argmin(vals))
        best = float(vals[k])
        if 0 < k < len(g) - 1 and math.isfinite(best):
            if side == "plus":
                f = lambda x: math.log(mu.sf(x) / max(mu.sf(x + hh), 1e-320))
            else:
                f = lambda x: math.log(mu.cdf(x) / max(mu.cdf(x - hh), 1e-320))
            _, neg = numerics.golden_max(lambda x: -f(x),
                                         float(g[k - 1]), float(g[k + 1]),
                                         tol=1e-10)
            best = min(best, -neg)
        return max(best, 0.0)

    w_plus = np.maximum.accumulate([one_side("plus", v) for v in h])
    w_minus = np.maximum.accumulate([one_side("minus", v) for v in h])
    w_half_p = np.maximum.accumulate([one_side("plus", v / 2.0) for v in h])
    w_half_m = np.maximum.accumulate([one_side("minus", v / 2.0) for v in h])
    lower = np.minimum(w_half_p, w_half_m)
    return np.asarray(w_plus), np.asarray(w_minus), lower


# ---------------------------------------------------------------------------
# finite/infinite functionals
# ---------------------------------------------------------------------------

def lipschitz_check(mu: Measure1D) -> Verdict:
    """Decide whether the rearrangement map is Lipschitz.

    Computes ``A+ = sup_{x>=m} sf(x)/density(x)`` and the mirrored ``A-``;
    both finite means the inverse map has slope bounded below by
    ``a = 1/max(A+, A-)`` and residual tails decay at least like
    ``exp(-a h)``.
    """
    m = mu.median
    sides = {}
    for side in ("plus", "minus"):
        grid = _scan_grid(mu, side)

        def f(x, _s=side):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                num = mu.sf(x) if _s == "plus" else mu.cdf(x)
                val = num / mu.density(x)
            return val

        sup, arg = numerics.sup_on_grid(f, grid if side == "plus"
                                        else grid[::-1])
        span = abs(float(grid[-1]) - m)
        sgn = 1.0 if side == "plus" else -1.0
        diverged, probes = _probe_growth(
            lambda d, _s=side: float(f(np.array([m + sgn * d]))[0]),
            span, span, sup)
        sides[side] = (sup, arg, diverged, probes)

    a_plus, arg_p, div_p, pr_p = sides["plus"]
    a_minus, arg_m, div_m, pr_m = sides["minus"]
    diag = {"argmax_plus": arg_p, "argmax_minus": arg_m,
            "growth_probes_plus": pr_p, "growth_probes_minus": pr_m}
    if div_p or div_m or not (math.isfinite(a_plus) and math.isfinite(a_minus)):
        diag["reason"] = "A diverges"
        return Verdict(FAILS, {}, diag)
    bound = max(a_plus, a_minus)
    a = 1.0 / bound
    # spot-check the equivalent residual-tail domination exp(-a h)
    worst = -math.inf
    for x in np.linspace(m, mu.quantile(1.0 - 1e-6), 9):
        for h in (0.5, 1.0, 2.0, 5.0):
            tail = mu.sf(x + h) / max(mu.sf(x), 1e-320)
            worst = max(worst, tail - math.exp(-a * h))
    diag["tail_domination_excess"] = worst
    return Verdict(HOLDS, {"A_plus": a_plus, "A_minus": a_minus, "a": a,
                           "lipschitz_bound": bound}, diag)


def muckenhoupt(mu: Measure1D):
    """Muckenhoupt functionals ``D+ = sup_{x>=m} sf(x) int_m^x 1/density``.

    Returns ``(D_plus, D_minus)`` with ``inf`` markers on divergence.
    """
    m = mu.median
    out = []
    for side in ("plus", "minus"):
        grid = _scan_grid(mu, side)
        sgn = 1.0 if side == "plus" else -1.0

        def inv_rho(x):
            rho = float(mu.density(x))
            return 1.0 / rho if rho > 0.0 else math.inf

        cum = np.zeros(len(grid))
        ok = True
        for i in range(1, len(grid)):
            inc = numerics.quad(inv_rho, min(grid[i - 1], grid[i]),
                                max(grid[i - 1], grid[i]))
            cum[i] = cum[i - 1] + inc
            if not math.isfinite(cum[i]):
                ok = False
                break
        if not ok:
            out.append(math.inf)
            continue
        mass = mu.sf(grid) if side == "plus" else mu.cdf(grid)
        vals = mass * cum
        k = int(np.argmax(vals))
        best = float(vals[k])
        if 0 < k < len(grid) - 1:
            lo, hi = sorted((float(grid[k - 1]), float(grid[k + 1])))
            base_x, base_c = float(grid[k - 1]), cum[k - 1]

            def f_loc(x):
                c = base_c + numerics.quad(inv_rho, min(base_x, x),
                                           max(base_x, x))
                w = mu.sf(x) if side == "plus" else mu.cdf(x)
                return w * c

            _, v_r = numerics.golden_max(f_loc, lo, hi, tol=1e-9)
            if v_r > best:
                best = v_r

        span = abs(float(grid[-1]) - m)
        tail_x = [float(grid[-1])]
        tail_c = [cum[-1]]

        def f_ext(x):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inc = numerics.quad(inv_rho, min(tail_x[-1], x),
                                    max(tail_x[-1], x))
            if not math.isfinite(inc):
                return math.nan  # weight integral exceeds double range
            tail_c.append(tail_c[-1] + inc)
            tail_x.append(x)
            w = mu.sf(x) if side == "plus" else mu.cdf(x)
            return w * tail_c[-1]

        diverged, _ = _probe_growth(lambda d: f_ext(m + sgn * d),
                                    span, span, best)
        out.append(math.inf if diverged else best)
    return out[0], out[1]


_DECAY_NATS = 80.0
#: probe offsets z = 1, 2, 4, ..., 2**60 of the decay-horizon rule
_PROBES = 2.0 ** np.arange(61)
#: per-cell targets of the ray cells; the absolute floor sits far below the
#: integrals callers take (a conditional moment is at least 1, a plain ray
#: moment at least the mass ahead of its anchor)
_RAY_EPSABS = 1e-16
_RAY_EPSREL = 1e-12
#: cells handed to one refinement call (a quarter MB per node array)
_RAY_CELLS = 2048


def _decay_horizons(log_parts: Callable, n: int) -> np.ndarray:
    """Decay horizon of each of ``n`` rays, ``inf`` where the ray diverges.

    ``log_parts(i, z)`` returns the growth and decay log-terms of ray
    ``i``'s integrand at offsets ``z >= 0`` (``i`` and ``z`` broadcast
    against each other).  Probes at ``z = 1, 2, 4, ...`` look for a
    sustained drop of ``_DECAY_NATS`` below the running peak; the horizon
    is the first probe on the drop line.  A probe that climbs back above
    the line after the horizon, or a horizon that never appears within
    sixty doublings, marks the ray as divergent.

    A probe where the two log-terms cancel below their own rounding noise
    carries no information and is skipped instead of feeding a bogus
    horizon or re-rise (at a critical balance both terms reach ~1e30 while
    their true sum stays order one).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        up, down = log_parts(np.arange(n)[:, None], _PROBES)
        v = np.broadcast_to(up + down, (n, len(_PROBES)))
        skip = np.isfinite(v) \
            & (np.abs(v) < (np.abs(up) + np.abs(down)) * 2.0 ** -45)
    v = np.where(np.isnan(v), -np.inf, v)  # numerically dead: fully decayed
    peak = np.maximum.accumulate(np.where(skip, -np.inf, v), axis=1)
    with np.errstate(invalid="ignore"):
        # difference first: "peak - NATS" would absorb the offset once the
        # peak exceeds ~1e17 and misread a growing sequence as decayed
        dropped = (peak - v >= _DECAY_NATS) | (v == -np.inf)
    found = ~skip & dropped & np.isfinite(peak)
    first = np.argmax(found, axis=1)
    rerise = ~skip & ~dropped & (np.arange(len(_PROBES)) > first[:, None])
    finite = found.any(axis=1) & ~rerise.any(axis=1)
    return np.where(finite, _PROBES[first], math.inf)


def _decaying_tail_integral(log_parts: Callable, anchors, kinks=(),
                            marks=(), sides=1.0, log_mass=0.0) -> np.ndarray:
    """``int_0^inf exp(up + down - log_mass) dz`` along every ray at once.

    Ray ``i`` starts at ``anchors[i]`` and runs in direction ``sides[i]``;
    ``log_parts`` is as in :func:`_decay_horizons` and ``log_mass`` (per ray
    or shared) rescales the result.  A divergent ray gives ``inf``.  On the
    others the decayed tail is negligible and ``[0, horizon]`` is
    integrated in cells cut at the doubling probes, at the shared offsets
    ``kinks`` and at the positions ``marks`` that lie ahead of the anchor;
    the cells of all rays are refined together.
    """
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    n = len(anchors)
    horizons = _decay_horizons(log_parts, n)
    out = np.full(n, math.inf)
    rows = np.nonzero(np.isfinite(horizons))[0]
    if not len(rows):
        return out
    sides = np.broadcast_to(np.asarray(sides, dtype=float), (n,))
    log_mass = np.broadcast_to(np.asarray(log_mass, dtype=float), (n,))

    horizon = horizons[rows, None]
    ahead = sides[rows, None] * (np.asarray(marks, dtype=float)
                                 - anchors[rows, None])
    shared = np.concatenate((_PROBES, np.asarray(kinks, dtype=float)))
    cuts = np.concatenate(
        (np.broadcast_to(shared, (len(rows), len(shared))), ahead), axis=1)
    cuts = np.where((cuts > 0.0) & (cuts < horizon), cuts, horizon)
    cuts = np.sort(np.concatenate((np.zeros((len(rows), 1)), cuts, horizon),
                                  axis=1), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    cell = hi > lo
    owner = np.broadcast_to(np.arange(len(rows))[:, None], cell.shape)[cell]
    lo, hi = lo[cell], hi[cell]

    def integrand(z, own):
        ray = rows[own]
        with np.errstate(over="ignore", invalid="ignore"):
            up, down = log_parts(ray, z)
            e = up + down - log_mass[ray]
        return np.exp(np.where(np.isnan(e), -np.inf, e))

    total = np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(lo), _RAY_CELLS):
            part = slice(s, s + _RAY_CELLS)
            own, val = numerics.gauss_kronrod_cells(
                integrand, (lo[part], hi[part]), _RAY_EPSABS, _RAY_EPSREL,
                owner=owner[part])
            total += np.bincount(own, weights=val, minlength=len(rows))
    out[rows] = total
    return out


def K_moment(mu: Measure1D, alpha: CostFunction, b: float,
                        side: str = "plus", n_grid: int = 512) -> float:
    """``sup_x`` of the exponential moment of the residual at ``x``.

    For the plus side this is ``sup_{x>=m} int_0^inf e^{alpha(b z)}
    d(residual law at x)``; ``inf`` when any inner integral or the sup
    itself diverges.  All scan anchors go through one
    :func:`_decaying_tail_integral` call.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    m = mu.median
    sgn = 1.0 if side == "plus" else -1.0
    grid = _scan_grid(mu, side, n_grid)
    kinks = [k / b for k in alpha.kinks if k > 0]

    def inner(xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        mass = np.asarray(mu.sf(xs) if side == "plus" else mu.cdf(xs),
                          dtype=float)
        out = np.full(len(xs), math.nan)
        live = mass > 1e-300  # beyond: no information, not growth
        x0 = xs[live]

        def log_parts(i, z):
            return alpha.fn(b * z), mu.log_density(x0[i] + sgn * z)

        if np.isinf(_decay_horizons(log_parts, len(x0))).any():
            out[live] = math.inf  # one divergent ray settles the sup
        elif len(x0):
            out[live] = _decaying_tail_integral(
                log_parts, x0, kinks, mu.kink_points, sgn,
                np.log(mass[live]))
        return out

    def inner1(x: float) -> float:
        return float(inner(x)[0])

    vals = inner(grid)
    if np.isinf(vals).any() or np.isnan(vals).all():
        return math.inf
    k = int(np.nanargmax(vals))
    best = float(vals[k])
    if 0 < k < len(grid) - 1:
        lo, hi = sorted((float(grid[k - 1]), float(grid[k + 1])))
        x_r, v_r = numerics.golden_max(inner1, lo, hi, tol=1e-8)
        if math.isfinite(v_r):
            best = max(best, v_r)
    span = abs(float(grid[-1]) - m)
    diverged, _ = _probe_growth(lambda d: inner1(m + sgn * d), span, span,
                                best)
    return math.inf if diverged else best


def assemble_rate(a0: float, b: float, K: float, alpha: CostFunction) -> float:
    """Combine a slope bound, a moment scale and a moment value into a rate.

    Returns ``min(a0, b/2, 1/((2/b) alpha^{-1}(log K)))``; the last term is
    dropped (treated as +inf) when ``K <= 1``.
    """
    terms = [a0, b / 2.0]
    logK = math.log(K) if K > 1.0 else 0.0
    if logK > 0.0:
        inv = float(alpha.inverse(logK))
        if inv > 0.0:
            terms.append(1.0 / ((2.0 / b) * inv))
    return min(terms)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------

_B_SCAN = tuple(2.0 ** -k for k in range(0, 21))


def decide_strong_tci_lip(mu: Measure1D, alpha: CostFunction,
                                kappa: float = DEFAULT_KAPPA) -> Verdict:
    """Strong transport-entropy decision via residual moment finiteness.

    When the rearrangement is Lipschitz, the inequality at cost
    ``alpha(a|x-y|) / (2 kappa)`` holds iff some ``b > 0`` keeps the
    one-sided residual moments finite; the witness rate combines the
    Lipschitz slope, ``b`` and the moment value.  When every ``b`` in the
    scan diverges the verdict is ``fails`` (moment finiteness is also
    necessary); a failed Lipschitz check with some finite moment stays
    ``inconclusive``.
    """
    adm = validate_admissible(alpha)
    if not adm.holds:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "cost profile outside the admissible class",
                        "admissible": adm.to_dict()})
    lip = lipschitz_check(mu)

    chosen = None
    for b in _B_SCAN:
        Kp = K_moment(mu, alpha, b, "plus")
        if not math.isfinite(Kp):
            continue
        Km = K_moment(mu, alpha, b, "minus")
        if math.isfinite(Km):
            chosen = (b, Kp, Km)
            break
    if chosen is None:
        return Verdict(FAILS, {},
                       {"reason": "residual moments diverge for every b "
                                  "in the scan",
                        "b_scan": list(_B_SCAN),
                        "lipschitz": lip.status})
    b, Kp, Km = chosen
    if not lip.holds:
        return Verdict(INCONCLUSIVE,
                       {"b": b, "K_plus": Kp, "K_minus": Km},
                       {"reason": "rearrangement not Lipschitz; finite "
                                  "moments alone do not assemble a rate",
                        "lipschitz": lip.to_dict()})
    a0 = lip.constants["a"]
    a = assemble_rate(a0, b, max(Kp, Km), alpha)
    return Verdict(HOLDS,
                   {"a0": a0, "b": b, "K_plus": Kp, "K_minus": Km,
                    "a": a, "kappa": kappa, "scale": a / (2.0 * kappa)},
                   {"sharpness": "sufficient, not optimal",
                    "cost": f"alpha(a|x-y|) with prefactor 1/(2 kappa)"})


def _moment_integral(mu: Measure1D, alpha: CostFunction, b: float) -> float:
    """``int exp(alpha(b x)) d mu``, each tail truncated at its decay horizon."""
    m = mu.median
    sides = np.array([1.0, -1.0])
    marks = [s * k / b for k in alpha.kinks for s in (1.0, -1.0)] \
        + list(mu.kink_points)

    def log_parts(i, z):
        x = m + sides[i] * z
        return alpha.fn(b * x), mu.log_density(x)

    halves = _decaying_tail_integral(log_parts, [m, m], (), marks, sides)
    return float(halves.sum()) if np.isfinite(halves).all() else math.inf


def decide_strong_tci_logconcave(mu: Measure1D, alpha: CostFunction,
                                 kappa: float = DEFAULT_KAPPA) -> Verdict:
    """Strong transport-entropy decision for log-concave measures.

    Scans ``b`` for a finite plain moment ``int e^{alpha(bx)} d mu``; on
    success assembles a rate and certifies the pointwise comparison of the
    median-tail cost ``alpha1(-log G0(h))`` against ``alpha(a h)``, where
    ``G0(h) = 2 max(sf(m+h), cdf(m-h))``.
    """
    adm = validate_admissible(alpha)
    if not adm.holds:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "cost profile outside the admissible class",
                        "admissible": adm.to_dict()})
    lc = is_log_concave(mu)
    if not lc.holds:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "measure not certified log-concave",
                        "log_concave": lc.to_dict()})

    chosen = None
    for b in _B_SCAN:
        Mb = _moment_integral(mu, alpha, b)
        if math.isfinite(Mb):
            chosen = (b, Mb)
            break
    if chosen is None:
        return Verdict(FAILS, {},
                       {"reason": "exponential moment diverges for every b "
                                  "in the scan",
                        "b_scan": list(_B_SCAN)})
    b, Mb = chosen
    m = mu.median
    a0 = 2.0 * float(mu.density(m))
    a = assemble_rate(a0, b, Mb, alpha)

    # pointwise certificate on a geometric h-grid
    h_max = max(mu.quantile(1.0 - _GRID_LEVEL) - m, m - mu.quantile(_GRID_LEVEL))
    hs = numerics.geometric_offsets(h_max, 257)[1:]

    def certificate_margin(rate: float) -> Tuple[float, float]:
        with np.errstate(divide="ignore", over="ignore"):
            g0 = 2.0 * np.maximum(mu.sf(m + hs), mu.cdf(m - hs))
            lhs = _ALPHA1.fn(-np.log(np.maximum(g0, 0.0)))
            rhs = alpha.fn(rate * hs)
        gap = lhs - rhs
        gap = np.where(np.isnan(gap), np.inf, gap)  # inf - inf cannot occur
        k = int(np.argmin(gap))
        return float(gap[k]), float(hs[k])

    halvings = 0
    margin, h_at = certificate_margin(a)
    while margin < -1e-12 and halvings < 40:
        a /= 2.0
        halvings += 1
        margin, h_at = certificate_margin(a)
    if margin < -1e-12:
        return Verdict(INCONCLUSIVE,
                       {"b": b, "K": Mb},
                       {"reason": "median-tail certificate failed at every "
                                  "halved rate",
                        "margin": margin, "h_at": h_at})
    return Verdict(HOLDS,
                   {"a0": a0, "b": b, "K": Mb, "a": a,
                    "kappa": kappa, "scale": a / (2.0 * kappa)},
                   {"sharpness": "sufficient, not optimal",
                    "certificate_margin": margin,
                    "certificate_argmin_h": h_at,
                    "certificate_halvings": halvings})


# ---------------------------------------------------------------------------
# explicit sufficiency via derivative ratios
# ---------------------------------------------------------------------------

def _second_deriv(f1: Callable[[float], float], x: float) -> float:
    h = 1e-5 * max(1.0, abs(x))
    return (f1(x + h) - f1(x - h)) / (2.0 * h)


def _regular_class_check(f: Callable, f1: Callable, x_end: float,
                         sides: Tuple[float, ...] = (1.0, -1.0)) -> dict:
    """Numeric check of the tail-regularity class on the last decade.

    Requires the derivative to point outward on each probed side and the
    curvature ratio f''/f'^2 to fade (final probe below 0.1 and no larger
    than the earlier ones).  Even profiles with a radial derivative should
    probe the right side only.
    """
    probes = np.geomspace(x_end / 10.0, x_end, 8)
    report = {"probes": [], "slope_ok": True, "ratio_ok": True}
    for sgn in sides:
        ratios = []
        for t in probes:
            x = sgn * t
            d1 = float(f1(x))
            if d1 * sgn <= 0:
                report["slope_ok"] = False
            d2 = _second_deriv(f1, x)
            r = abs(d2) / d1 ** 2 if d1 != 0 else math.inf
            ratios.append(r)
            report["probes"].append({"x": x, "f1": d1, "curvature_ratio": r})
        if not (ratios[-1] <= 0.1 and ratios[-1] <= max(ratios) + 1e-12):
            report["ratio_ok"] = False
    report["ok"] = report["slope_ok"] and report["ratio_ok"]
    return report


def _kink_mismatch(alpha: CostFunction) -> float:
    """Largest relative disagreement of one-sided slopes at profile kinks."""
    worst = 0.0
    for k in alpha.kinks:
        if k <= 0:
            continue
        eps = 1e-6 * max(1.0, k)
        left = (alpha.fn(k) - alpha.fn(k - eps)) / eps
        right = (alpha.fn(k + eps) - alpha.fn(k)) / eps
        ref = max(abs(left), abs(right), 1e-12)
        worst = max(worst, abs(right - left) / ref)
    return worst


_RATIO_PROBES = (10.0, 20.0, 40.0, 80.0)


def suff_condition(mu: Measure1D, alpha: CostFunction,
                   lambda_grid: Optional[Sequence[float]] = None) -> Verdict:
    """Sufficiency via boundedness of ``alpha'(lambda u) / V'(u + m)``.

    For each ``lambda`` the ratio is sampled at ``u = +/-{10,20,40,80}``;
    a side counts as bounded when the last ratio does not exceed 1.2 times
    the largest earlier one.  Holds when some ``lambda`` is bounded on both
    sides (and the profile has no serious kink); fails when every lambda
    shows clean growth at both ends.
    """
    if lambda_grid is None:
        # lambda >= 1/8 keeps lambda*u >= 1.25 at the smallest pinned probe,
        # so spliced profiles are sampled outside their quadratic core
        lambda_grid = tuple(2.0 ** k for k in range(-3, 9))
    if mu.potential_deriv is None:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "potential derivative unavailable"})
    adm = validate_admissible(alpha)
    if not adm.holds:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "cost profile outside the admissible class",
                        "admissible": adm.to_dict()})

    m = mu.median
    x_end = mu.quantile(1.0 - 1e-8) - m
    v_cls = _regular_class_check(mu.potential,
                                 lambda x: float(mu.potential_deriv(x)), x_end)
    a_cls = _regular_class_check(alpha.fn, lambda x: float(alpha.deriv(x)),
                                 max(_RATIO_PROBES) * max(lambda_grid),
                                 sides=(1.0,))
    lip = lipschitz_check(mu)

    def classify(ratios: Sequence[float]) -> str:
        r = list(ratios)
        if not all(math.isfinite(v) for v in r):
            return "growing"
        if r[-1] <= 1.2 * max(r[:-1]) + 1e-12:
            return "bounded"
        if all(r[i] <= r[i + 1] * (1.0 + 1e-9) for i in range(len(r) - 1)):
            return "growing"
        return "non-monotone"

    table = {}
    witness = None
    n_violating = 0
    for lam in lambda_grid:
        sides = {}
        for sgn in (1.0, -1.0):
            ratios = []
            for u in _RATIO_PROBES:
                num = float(alpha.deriv(lam * sgn * u))
                den = float(mu.potential_deriv(m + sgn * u))
                ratios.append(abs(num / den) if den != 0 else math.inf)
            sides[int(sgn)] = (classify(ratios), ratios)
        table[lam] = sides
        kinds = {sides[1][0], sides[-1][0]}
        if kinds == {"bounded"} and witness is None:
            witness = lam
        if "growing" in kinds:
            n_violating += 1

    diag = {"ratio_table": {f"{lam:g}": {"plus": table[lam][1],
                                         "minus": table[lam][-1]}
                            for lam in lambda_grid},
            "potential_class": v_cls, "profile_class": a_cls,
            "lipschitz": lip.status}

    if witness is None and n_violating == len(tuple(lambda_grid)):
        diag["reason"] = ("derivative ratio grows without bound for every "
                          "lambda in the grid")
        return Verdict(FAILS, {}, diag)
    mismatch = _kink_mismatch(alpha)
    diag["kink_mismatch"] = mismatch
    if witness is not None:
        if mismatch > 0.10:
            diag["reason"] = ("profile kink slopes disagree by more than 10%; "
                              "smoothness hypothesis not met")
            return Verdict(INCONCLUSIVE, {}, diag)
        if not (v_cls["ok"] and a_cls["ok"]):
            diag["reason"] = "tail-regularity class check failed"
            return Verdict(INCONCLUSIVE, {}, diag)
        if not lip.holds:
            diag["reason"] = "rearrangement not Lipschitz"
            return Verdict(INCONCLUSIVE, {}, diag)
        bound = max(max(table[witness][1][1]), max(table[witness][-1][1]))
        consts = {"lambda": witness, "a0": lip.constants["a"]}
        if bound > 0:
            consts["ratio_bound"] = bound
        return Verdict(HOLDS, consts, diag)
    diag["reason"] = "no lambda bounded; trends not uniformly growing"
    return Verdict(INCONCLUSIVE, {}, diag)


def int_equiv_ratio(Phi: Callable[[float], float], x_probes,
                        dPhi: Optional[Callable[[float], float]] = None
                        ) -> np.ndarray:
    """Ratio of the upper tail integral to its first-order approximation.

    Returns ``r(x) = Phi'(x) e^{Phi(x)} int_x^inf e^{-Phi}`` at each probe,
    computed in the shifted form ``int_x^inf e^{-(Phi(t)-Phi(x))} dt`` so
    that huge exponents cancel before quadrature.  ``Phi`` must accept
    arrays: every probe's integral comes from one
    :func:`_decaying_tail_integral` call.
    """
    if dPhi is None:
        dPhi = lambda x: (Phi(x + 1e-6 * max(1.0, abs(x)))
                          - Phi(x - 1e-6 * max(1.0, abs(x)))) \
            / (2e-6 * max(1.0, abs(x)))
    xs = np.atleast_1d(np.asarray(x_probes, dtype=float))
    px = np.asarray(Phi(xs), dtype=float)
    vals = _decaying_tail_integral(
        lambda i, t: (0.0, -(Phi(xs[i] + t) - px[i])), xs)
    return np.array([float(dPhi(float(x))) for x in xs]) * vals


# ---------------------------------------------------------------------------
# cost built from a convex symmetric potential
# ---------------------------------------------------------------------------

def lsi_tilde_potential(mu: Measure1D
                          ) -> Tuple[Optional[CostFunction], float, Verdict]:
    """Splice the unit parabola onto a rescaled copy of the potential.

    Solves ``a0 V'(a0) = 2`` and builds the even profile equal to ``x^2``
    on [-1, 1] and ``V(a0 x) + 1 - V(a0)`` outside; the choice of ``a0``
    makes the splice C^1 and the result convex whenever ``V`` is convex and
    symmetric.  Returns ``(profile, a0, verdict)``; on failure the profile
    is None and ``a0`` is nan.
    """
    V = mu.potential
    dV = mu.potential_deriv
    if dV is None:
        dV = lambda x: (V(x + 1e-6) - V(x - 1e-6)) / 2e-6

    def g(t):
        return t * float(dV(t)) - 2.0

    lo, hi = 1e-6, 1.0
    while g(hi) < 0.0 and hi < 1e6:
        hi *= 2.0
    if not (g(lo) <= 0.0 <= g(hi)):
        return None, math.nan, Verdict(
            INCONCLUSIVE, {},
            {"reason": "slope equation t V'(t) = 2 not bracketed on "
                       "[1e-6, 1e6]"})
    a0 = float(optimize.brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16))

    v_a0 = float(V(a0))

    def fn(t):
        t = np.abs(np.asarray(t, dtype=float))
        inner = t * t
        outer = np.asarray(V(a0 * t), dtype=float) + 1.0 - v_a0
        out = np.where(t <= 1.0, inner, outer)
        return out if out.ndim else float(out)

    def deriv(t):
        t = np.asarray(t, dtype=float)
        s = np.sign(t)
        at = np.abs(t)
        inner = 2.0 * at
        outer = a0 * np.asarray(dV(a0 * at), dtype=float)
        out = s * np.where(at <= 1.0, inner, outer)
        return out if out.ndim else float(out)

    def inverse(sv):
        sv = np.asarray(sv, dtype=float)

        def one(s):
            if s <= 0:
                return 0.0
            if s <= 1.0:
                return math.sqrt(s)
            f = lambda t: fn(t) - s
            hi2 = 1.0
            while f(hi2) < 0 and hi2 < 1e12:
                hi2 *= 2.0
            if f(hi2) < 0:
                return math.inf
            return float(optimize.brentq(f, 1.0, hi2, xtol=1e-13))

        out = np.vectorize(one)(sv)
        return out if out.ndim else float(out)

    profile = CostFunction(f"spliced({mu.name})", fn, deriv, inverse,
                           admissible=False, convex=False)
    adm = validate_admissible(profile)
    ts = np.linspace(-8.0, 8.0, 401)
    vals = fn(ts)
    second = np.diff(vals, 2)
    convex_ok = bool(np.all(second >= -1e-9))
    sym = float(np.max(np.abs(np.asarray(V(ts)) - np.asarray(V(-ts)))))
    status = HOLDS if (adm.holds and convex_ok and sym < 1e-8) else INCONCLUSIVE
    verdict = Verdict(status, {"a0": a0} if status == HOLDS else {},
                      {"admissible": adm.status, "convex": convex_ok,
                       "potential_asymmetry": sym})
    profile = CostFunction(profile.name, fn, deriv, inverse,
                           admissible=adm.holds, convex=convex_ok)
    return profile, a0, verdict


def skewed_cost(rm: RearrangementMap, base_cost: CostFunction,
                scale: Optional[float] = None,
                prefactor: float = 1.0) -> Callable:
    """Pull a cost on reference coordinates through the inverse map.

    The returned ``cost(y1, y2)`` equals ``prefactor *
    base_cost(scale * (T^{-1}y1 - T^{-1}y2))``; on the diagonal it vanishes,
    and for the reference law it coincides with the base cost itself.
    ``scale`` defaults to the profile's own spatial scale.
    """
    a = base_cost.scale if scale is None else float(scale)

    def cost(y1, y2):
        u = rm.inverse(np.asarray(y1, dtype=float))
        v = rm.inverse(np.asarray(y2, dtype=float))
        out = prefactor * base_cost.fn(a * (np.asarray(u) - np.asarray(v)))
        return out if np.ndim(out) else float(out)

    return cost
