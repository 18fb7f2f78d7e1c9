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
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from . import numerics
from .costs import (CostFunction, _numeric_inverse, _spliced, builtin_cost,
                    validate_admissible)
from .measures import (Measure1D, _hazard_side, _scan_grids, is_log_concave,
                       make_builtin)
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

# level wall used everywhere a quantile must stay strictly inside (0, 1)
_TINY_LEVEL = 1e-15


#: per-cell targets of the cell integrals (ray moments and the Muckenhoupt
#: weight); the absolute floor sits far below the integrals callers take (a
#: conditional moment is at least 1, a plain ray moment at least the mass
#: ahead of its anchor)
_CELL_EPSABS = 1e-16
_CELL_EPSREL = 1e-12
#: the columns of :func:`_scan_grids`: right tail, then left tail
_PLUS = np.array([True, False])


def _tail(mu: Measure1D, x, plus) -> np.ndarray:
    """Mass outward of ``x``: ``sf`` where ``plus``, ``cdf`` elsewhere.

    A scalar ``plus`` calls one of the two; a per-column ``plus`` (one
    flag per entry of the last axis of ``x``) calls each on its own
    columns only.
    """
    if np.ndim(plus) == 0:
        return np.asarray(mu.sf(x) if plus else mu.cdf(x), dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    out[..., plus] = mu.sf(x[..., plus])
    out[..., ~plus] = mu.cdf(x[..., ~plus])
    return out


# ---------------------------------------------------------------------------
# the monotone rearrangement and its moduli
# ---------------------------------------------------------------------------

@dataclass
class RearrangementMap:
    """Monotone transport map from the reference exponential law to ``mu``.

    ``forward`` pushes the reference law onto ``mu``; ``inverse`` is the
    closed-form pull-back ``-log(2 sf(x))`` right of the median and
    ``log(2 F(x))`` left of it.  Whether the map is Lipschitz is decided
    by :func:`lipschitz_check`.
    """

    mu: Measure1D
    forward: Callable
    inverse: Callable


def rearrangement(mu: Measure1D) -> RearrangementMap:
    """Build the monotone rearrangement map for ``mu``; both directions
    take a scalar or an array by :func:`numerics.shaped`."""
    m = mu.median

    def forward(x):
        out = np.empty_like(x)
        hi = x >= 0.0
        # route each half through the tail representation that keeps full
        # relative precision (sf is exp(-x)/2 on the right, cdf exp(x)/2 on
        # the left) so the reference law maps to itself at machine accuracy
        if hi.any():
            s = np.clip(_REF.sf(x[hi]), _TINY_LEVEL, 1.0 - _TINY_LEVEL)
            out[hi] = mu.isf(s)
        if (~hi).any():
            t = np.clip(_REF.cdf(x[~hi]), _TINY_LEVEL, 1.0 - _TINY_LEVEL)
            out[~hi] = mu.quantile(t)
        return out

    def inverse(y):
        with np.errstate(divide="ignore"):
            right = -np.log(2.0 * np.maximum(mu.sf(y), 0.0))
            left = np.log(2.0 * np.maximum(mu.cdf(y), 0.0))
        return np.where(y >= m, right, left)

    return RearrangementMap(mu, numerics.elementwise(forward),
                            numerics.elementwise(inverse))


def omega_bounds(rm: RearrangementMap, h_grid
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided inverse moduli and their combined lower bound.

    ``omega_plus(h)`` is the infimum over ``x >= m`` of the residual tail
    exponent ``-log(sf(x+h)/sf(x))``; ``omega_minus`` mirrors it left of the
    median; the combined bound is ``min(omega_plus(h/2), omega_minus(h/2))``.
    All three are nondecreasing in h, which must be finite and
    nondecreasing.  Each distinct shift among the h and h/2 is one column
    per side of a single :func:`numerics.sup_on_grid` scan of ``-omega``,
    the right tail's columns first.
    """
    mu = rm.mu
    h = np.atleast_1d(np.asarray(h_grid, dtype=float))
    if not np.isfinite(h).all() or (np.diff(h) < 0).any():
        raise ValueError("h_grid must be finite and nondecreasing")
    shift, back = np.unique(np.concatenate((h, h / 2.0)), return_inverse=True)
    n = len(shift)
    scan = _scan_grids(mu)
    grid = np.repeat(scan, n, axis=1)

    def tails(right, left):
        return np.concatenate((mu.sf(right), mu.cdf(left)), axis=-1)

    def neg_omega(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            if x is grid:   # the grid pass: one denominator column per side
                den = np.repeat(tails(scan[:, :1], scan[:, 1:]), n, axis=1)
            else:
                den = tails(x[:, :n], x[:, n:])
            v = np.log(tails(x[:, :n] + shift, x[:, n:] - shift) / den)
        return np.where(np.isnan(v), -np.inf, v)

    sup, _, _, _ = numerics.sup_on_grid(neg_omega, grid, tol=1e-10)
    wp, wm = np.where(shift > 0, np.maximum(-sup, 0.0).reshape(2, n), 0.0)
    # rows: plus at h, minus at h, plus at h/2, minus at h/2
    at_h, at_half = back[:len(h)], back[len(h):]
    w = np.maximum.accumulate(np.stack((wp[at_h], wm[at_h], wp[at_half],
                                        wm[at_half])), axis=1)
    return w[0], w[1], np.minimum(w[2], w[3])


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

    def ratio(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _tail(mu, x, _PLUS) / mu.density(x)

    sup, arg, diverged, probes = numerics.sup_on_grid(ratio, _scan_grids(mu))
    a_plus, a_minus = float(sup[0]), float(sup[1])
    diag = {"argmax_plus": float(arg[0]), "argmax_minus": float(arg[1]),
            "growth_probes_plus": probes[0], "growth_probes_minus": probes[1]}
    if diverged.any() or not np.isfinite(sup).all():
        diag["reason"] = "A diverges"
        return Verdict(FAILS, {}, diag)
    bound = max(a_plus, a_minus)
    a = 1.0 / bound
    # spot-check the equivalent residual-tail domination exp(-a h)
    xs = np.linspace(m, mu.quantile(1.0 - 1e-6), 9)[:, None]
    hs = np.array([0.5, 1.0, 2.0, 5.0])
    excess = mu.sf(xs + hs) / np.maximum(mu.sf(xs), 1e-320) - np.exp(-a * hs)
    diag["tail_domination_excess"] = float(excess.max())
    return Verdict(HOLDS, {"A_plus": a_plus, "A_minus": a_minus, "a": a,
                           "lipschitz_bound": bound}, diag)


def muckenhoupt(mu: Measure1D):
    """Muckenhoupt functionals ``D+ = sup_{x>=m} sf(x) int_m^x 1/density``.

    Returns ``(D_plus, D_minus)`` with ``inf`` markers on divergence.  The
    weight ``int 1/density`` is cumulated over the scan-grid cells; off the
    grid it adds the cell integral from the grid node behind the point,
    the last node of its column no farther from ``m``, found by a binary
    search of the column's distances ``|grid - m|``.  These are sorted:
    the offsets of :func:`_scan_grids` are, and rounding ``m`` plus or
    minus an offset is monotone in the offset.  A point whose weight
    overflows reads ``nan``: a growth probe there stops without claiming
    divergence.
    """
    m = mu.median
    grid = _scan_grids(mu)
    dist = np.abs(grid - m)

    def weight(a, b):
        lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            own, val = numerics.gauss_kronrod_cells(
                lambda x, _own: 1.0 / mu.density(x), (lo, hi),
                _CELL_EPSABS, _CELL_EPSREL, owner=np.arange(lo.size))
            total = np.bincount(own, weights=val, minlength=lo.size)
        return total.reshape(np.shape(a))

    cum = np.concatenate((np.zeros((1, 2)),
                          np.cumsum(weight(grid[:-1], grid[1:]), axis=0)))

    def product(x):
        d = np.abs(x - m)
        behind = np.stack([np.searchsorted(dist[:, j], d[:, j], side="right")
                           for j in range(grid.shape[1])], axis=1) - 1
        node = np.take_along_axis(grid, behind, axis=0)
        c = np.take_along_axis(cum, behind, axis=0) + weight(node, x)
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(c), _tail(mu, x, _PLUS) * c, np.nan)

    sup, _, diverged, _ = numerics.sup_on_grid(product, grid, tol=1e-9)
    d_plus, d_minus = np.where(diverged, math.inf, sup)
    return float(d_plus), float(d_minus)


_DECAY_NATS = 80.0
#: probe offsets z = 1, 2, 4, ..., 2**60 of the decay-horizon rule
_PROBES = 2.0 ** np.arange(61)
#: cells handed to one refinement call (a quarter MB per node array)
_RAY_CELLS = 2048


def _decay_horizons(log_parts: Callable, n: int) -> np.ndarray:
    """Decay horizon of each of ``n`` rays, ``inf`` where the ray diverges.

    ``log_parts(i, z)`` returns the growth and decay log-terms of ray
    ``i``'s integrand at offsets ``z >= 0`` (``i`` and ``z`` broadcast
    against each other).  Probes at ``z = 1, 2, 4, ...`` look for a
    sustained drop of ``_DECAY_NATS`` below the running peak; the horizon
    is the first probe on the drop line.  A ray that is ``-inf`` from the
    first probe on has left the support and gets horizon 1.  A probe that
    climbs back above the line after the horizon, or a horizon that never
    appears within sixty doublings, marks the ray as divergent.

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
    found = ~skip & dropped & (np.isfinite(peak) | (v[:, :1] == -np.inf))
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
                integrand, (lo[part], hi[part]), _CELL_EPSABS, _CELL_EPSREL,
                owner=owner[part])
            total += np.bincount(own, weights=val, minlength=len(rows))
    out[rows] = total
    return out


def _residual_moments(mu: Measure1D, alpha: CostFunction, b: float,
                      plus) -> Callable[[np.ndarray], np.ndarray]:
    """The map from anchors ``x`` to the exponential moment of the residual
    at ``x``, right of ``x`` where ``plus`` (one flag, or one per entry of
    the last axis of ``x``, as in :func:`_tail`); ``inf`` where its ray
    diverges, ``nan`` where the mass beyond ``x`` is below 1e-300.  One
    :func:`_decaying_tail_integral` call takes all anchors of a call."""
    if b <= 0:
        raise ValueError("b must be positive")
    kinks = [k / b for k in alpha.kinks if k > 0]

    def inner(xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        mass = _tail(mu, xs, plus)
        out = np.full(xs.shape, math.nan)
        live = mass > 1e-300  # beyond: no information, not growth
        x0 = xs[live]
        sgn = np.broadcast_to(np.where(plus, 1.0, -1.0), xs.shape)[live]

        def log_parts(i, z):
            return alpha.fn(b * z), mu.log_density(x0[i] + sgn[i] * z)

        out[live] = _decaying_tail_integral(log_parts, x0, kinks,
                                            mu.kink_points, sgn,
                                            np.log(mass[live]))
        return out

    return inner


def _K_scan_sup(mu: Measure1D, alpha: CostFunction, b: float,
                side: str) -> float:
    """:func:`K_moment` by a scan-sup over anchors: the 511-point grid of
    :func:`_scan_grids`, golden refinement and growth probes
    (:func:`numerics.sup_on_grid`), one ray-engine call per step."""
    inner = _residual_moments(mu, alpha, b, side == "plus")
    grid = _scan_grids(mu, (side == "plus",))
    sup, _, diverged, _ = numerics.sup_on_grid(inner, grid, tol=1e-8)
    return math.inf if diverged[0] else float(sup[0])


def K_moment(mu: Measure1D, alpha: CostFunction, b: float,
             side: str = "plus") -> float:
    """``sup_x`` of the exponential moment of the residual at ``x``.

    For the plus side this is ``sup_{x>=m} int_0^inf e^{alpha(b z)}
    d(residual law at x)``; ``inf`` when any inner integral or the sup
    itself diverges.  The median ``m`` is one of the anchors, so the ray
    from ``m`` comes first and its divergence makes the sup ``inf``.  When
    the hazard on ``side`` rises outward over every anchor the scan-sup
    reaches (:func:`measures._hazard_side`, the one-sided form of the
    :func:`is_log_concave` test), the residual law at ``x`` is
    stochastically decreasing as ``x`` moves away from ``m``, and for a
    nondecreasing profile (every admissible one) the sup is that first
    ray's value.  Other laws take the scan-sup of :func:`_K_scan_sup`.
    """
    at_median = float(_residual_moments(mu, alpha, b, side == "plus")(
        np.array([mu.median]))[0])
    if not math.isfinite(at_median):
        return math.inf
    if _hazard_side(mu, side == "plus").holds:
        return at_median
    return _K_scan_sup(mu, alpha, b, side)


def assemble_rate(a0: float, b: float, K: float, alpha: CostFunction) -> float:
    """Combine a slope bound, a moment scale and a moment value into a rate.

    Returns ``min(a0, b/2, 1/((2/b) alpha^{-1}(log K)))``; the last term is
    dropped (treated as +inf) when ``K <= 1``.
    """
    terms = [a0, b / 2.0]
    logK = math.log(K) if K > 1.0 else 0.0
    if logK > 0.0:
        inv = alpha.inverse(logK)
        if inv > 0.0:
            terms.append(1.0 / ((2.0 / b) * inv))
    return min(terms)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------

_B_SCAN = tuple(2.0 ** -k for k in range(0, 21))


def _inadmissible(adm: Verdict) -> Optional[Verdict]:
    """The ``inconclusive`` verdict that a decision returns for a profile
    outside the admissible class, from its :func:`validate_admissible`
    verdict ``adm``; None when the profile is admissible."""
    if adm.holds:
        return None
    return Verdict(INCONCLUSIVE, {},
                   {"reason": "cost profile outside the admissible class",
                    "admissible": adm.to_dict()})


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
    return _decide_lip(mu, alpha, kappa, adm,
                       lipschitz_check(mu) if adm.holds else None)


def _decide_lip(mu: Measure1D, alpha: CostFunction, kappa: float,
                adm: Verdict, lip: Optional[Verdict]) -> Verdict:
    """:func:`decide_strong_tci_lip` from the verdicts of
    :func:`validate_admissible` on ``alpha`` and, read only when that
    holds, of :func:`lipschitz_check` on ``mu``."""
    if (refusal := _inadmissible(adm)) is not None:
        return refusal

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
    """``int exp(alpha(b |x - m|)) d mu`` about the median ``m``: the mass
    on each side of ``m`` times the residual moment there,
    ``sf(m) K+_m + cdf(m) K-_m``, from :func:`_residual_moments`."""
    m = np.full(2, mu.median)
    return float(np.sum(_tail(mu, m, _PLUS)
                        * _residual_moments(mu, alpha, b, _PLUS)(m)))


def decide_strong_tci_logconcave(mu: Measure1D, alpha: CostFunction,
                                 kappa: float = DEFAULT_KAPPA) -> Verdict:
    """Strong transport-entropy decision for log-concave measures.

    Scans ``b`` for a finite moment ``K = int e^{alpha(b|x-m|)} d mu`` about
    the median ``m``; on success assembles a rate from ``a0 = 2 density(m)``,
    ``b`` and ``K`` and certifies the pointwise comparison of the
    median-tail cost ``alpha1(-log G0(h))`` against ``alpha(a h)``, where
    ``G0(h) = 2 max(sf(m+h), cdf(m-h))``.

    The shape test is :func:`is_log_concave`, monotone hazards on both
    sides of ``m``.  They give ``a0``: the isoperimetric profile
    ``I(t) = density(F^{-1}(t))`` is ``1 - t`` times ``density/sf`` above
    ``t = 1/2`` and ``t`` times ``density/cdf`` below, both hazards are
    ``2 density(m)`` at ``m``, so ``I(t) >= 2 density(m) min(t, 1 - t)``.
    The moment may be centred at the median: the cost and the relative
    entropy are invariant under translation, so ``mu`` satisfies the
    inequality iff its copy with median 0 does, whose plain moment is K.
    """
    adm = validate_admissible(alpha)
    return _decide_logconcave(mu, alpha, kappa, adm,
                              is_log_concave(mu) if adm.holds else None)


def _decide_logconcave(mu: Measure1D, alpha: CostFunction, kappa: float,
                       adm: Verdict, lc: Optional[Verdict]) -> Verdict:
    """:func:`decide_strong_tci_logconcave` from the verdicts of
    :func:`validate_admissible` on ``alpha`` and, read only when that
    holds, of :func:`is_log_concave` on ``mu``."""
    if (refusal := _inadmissible(adm)) is not None:
        return refusal
    if not lc.holds:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "measure not certified log-concave",
                        "log_concave": lc.to_dict()})

    for b in _B_SCAN:
        Mb = _moment_integral(mu, alpha, b)
        if math.isfinite(Mb):
            break
    else:
        return Verdict(FAILS, {},
                       {"reason": "exponential moment diverges for every b "
                                  "in the scan",
                        "b_scan": list(_B_SCAN)})
    m = mu.median
    a0 = 2.0 * mu.density(m)
    a = assemble_rate(a0, b, Mb, alpha)

    # pointwise certificate on a geometric h-grid
    h_max = max(mu.scan_end(True) - m, m - mu.scan_end(False))
    hs = numerics.geometric_offsets(h_max, 257)[1:]
    with np.errstate(divide="ignore", over="ignore"):
        g0 = 2.0 * np.maximum(mu.sf(m + hs), mu.cdf(m - hs))
        lhs = _ALPHA1.fn(-np.log(np.maximum(g0, 0.0)))

    def certificate_margin(rate: float) -> Tuple[float, float]:
        with np.errstate(divide="ignore", over="ignore"):
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

def _regular_class_check(f1: Callable, x_end: float,
                         sides: Tuple[float, ...] = (1.0, -1.0)) -> dict:
    """Numeric check of the tail-regularity class on the last decade.

    Requires the derivative ``f1`` to point outward on each probed side and
    the curvature ratio f''/f'^2 to fade (final probe below 0.1 and no
    larger than the earlier ones).  ``f1`` is called once, on the probes of
    every side and their central-difference neighbours.  Even profiles with
    a radial derivative should probe the right side only.
    """
    sgn = np.asarray(sides, dtype=float)[:, None]
    x = sgn * np.geomspace(x_end / 10.0, x_end, 8)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    d1, up, down = f1(np.stack((x, x + h, x - h)))
    d2 = (up - down) / (2.0 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(d1 != 0, np.abs(d2) / d1 ** 2, math.inf)
    slope_ok = not (d1 * sgn <= 0).any()
    ratio_ok = bool(np.all((r[:, -1] <= 0.1)
                           & (r[:, -1] <= r[:, :-1].max(axis=1) + 1e-12)))
    probes = [{"x": a, "f1": b, "curvature_ratio": c} for a, b, c in
              zip(x.ravel().tolist(), d1.ravel().tolist(), r.ravel().tolist())]
    return {"probes": probes, "slope_ok": slope_ok, "ratio_ok": ratio_ok,
            "ok": slope_ok and ratio_ok}


def _kink_mismatch(alpha: CostFunction) -> float:
    """Largest relative disagreement of one-sided slopes at profile kinks."""
    k = np.asarray(alpha.kinks, dtype=float)
    k = k[k > 0]
    eps = 1e-6 * np.maximum(1.0, k)
    left = (alpha.fn(k) - alpha.fn(k - eps)) / eps
    right = (alpha.fn(k + eps) - alpha.fn(k)) / eps
    ref = np.maximum(np.maximum(np.abs(left), np.abs(right)), 1e-12)
    return float(np.max(np.abs(right - left) / ref, initial=0.0))


_RATIO_PROBES = np.array([10.0, 20.0, 40.0, 80.0])
_SIDES = np.array([[1.0], [-1.0]])


def suff_condition(mu: Measure1D, alpha: CostFunction) -> Verdict:
    """Sufficiency via boundedness of ``alpha'(lambda u) / V'(u + m)``.

    For each ``lambda`` in ``2**-3, ..., 2**8`` the ratio is sampled at
    ``u = +/-{10,20,40,80}``;
    a side counts as bounded when the last ratio does not exceed 1.2 times
    the largest earlier one.  Holds when some ``lambda`` is bounded on both
    sides (and the profile has no serious kink); fails when every lambda
    shows clean growth at both ends.  The ratios of all lambdas, sides and
    probes are one array, from one call each of ``alpha.deriv`` and
    ``mu.potential_deriv``, which must accept numpy arrays.
    """
    adm = validate_admissible(alpha)
    return _suff_condition(mu, alpha, adm, lipschitz_check(mu)
                           if adm.holds and mu.potential_deriv is not None
                           else None)


def _suff_condition(mu: Measure1D, alpha: CostFunction, adm: Verdict,
                    lip: Optional[Verdict]) -> Verdict:
    """:func:`suff_condition` from the verdicts of
    :func:`validate_admissible` on ``alpha`` and, read only when that holds
    and ``mu`` has a potential derivative, of :func:`lipschitz_check` on
    ``mu``."""
    # lambda >= 1/8 keeps lambda*u >= 1.25 at the smallest pinned probe, so
    # spliced profiles are sampled outside their quadratic core
    lams = [2.0 ** k for k in range(-3, 9)]
    if mu.potential_deriv is None:
        return Verdict(INCONCLUSIVE, {},
                       {"reason": "potential derivative unavailable"})
    if (refusal := _inadmissible(adm)) is not None:
        return refusal

    m = mu.median
    x_end = mu.quantile(1.0 - 1e-8) - m
    v_cls = _regular_class_check(mu.potential_deriv, x_end)
    a_cls = _regular_class_check(alpha.deriv,
                                 _RATIO_PROBES[-1] * max(lams), sides=(1.0,))

    # r[lambda, side, probe], sides (+, -)
    lam_col = np.asarray(lams, dtype=float)[:, None, None]
    num = alpha.deriv(lam_col * _SIDES * _RATIO_PROBES)
    den = mu.potential_deriv(m + _SIDES * _RATIO_PROBES)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den != 0, np.abs(num / den), math.inf)
    finite = np.isfinite(r).all(axis=-1)
    last, earlier = r[..., -1], r[..., :-1]
    bounded = finite & (last <= 1.2 * earlier.max(axis=-1) + 1e-12)
    rising = (earlier <= r[..., 1:] * (1.0 + 1e-9)).all(axis=-1)
    growing = ~bounded & (rising | ~finite)
    kind = np.where(bounded, "bounded",
                    np.where(growing, "growing", "non-monotone")).tolist()
    both = np.flatnonzero(bounded.all(axis=1))
    witness = int(both[0]) if both.size else None
    n_violating = int(growing.any(axis=1).sum())

    diag = {"ratio_table": {f"{lam:g}": {"plus": (k[0], ratios[0]),
                                         "minus": (k[1], ratios[1])}
                            for lam, k, ratios in zip(lams, kind, r.tolist())},
            "potential_class": v_cls, "profile_class": a_cls,
            "lipschitz": lip.status}

    if witness is None and n_violating == len(lams):
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
        bound = float(r[witness].max())
        consts = {"lambda": lams[witness], "a0": lip.constants["a"]}
        if bound > 0:
            consts["ratio_bound"] = bound
        return Verdict(HOLDS, consts, diag)
    diag["reason"] = "no lambda bounded; trends not uniformly growing"
    return Verdict(INCONCLUSIVE, {}, diag)


def int_equiv_ratio(Phi: Callable[[np.ndarray], np.ndarray],
                    x_probes) -> np.ndarray:
    """Ratio of the upper tail integral to its first-order approximation.

    Returns ``r(x) = Phi'(x) e^{Phi(x)} int_x^inf e^{-Phi}`` at each probe,
    computed in the shifted form ``int_x^inf e^{-(Phi(t)-Phi(x))} dt`` so
    that huge exponents cancel before quadrature.  ``Phi'`` is the central
    difference with step ``1e-6 max(1, |x|)``.  ``Phi`` must accept arrays:
    every probe's integral comes from one :func:`_decaying_tail_integral`
    call.
    """
    xs = np.atleast_1d(np.asarray(x_probes, dtype=float))
    px = np.asarray(Phi(xs), dtype=float)
    vals = _decaying_tail_integral(
        lambda i, t: (0.0, -(Phi(xs[i] + t) - px[i])), xs)
    unit = np.maximum(1.0, np.abs(xs))
    dphi = (Phi(xs + 1e-6 * unit) - Phi(xs - 1e-6 * unit)) / (2e-6 * unit)
    return dphi * vals


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
    a0 = _numeric_inverse(lambda t: t * dV(t))(2.0)
    if not 1e-6 <= a0 <= 1e6:
        return None, math.nan, Verdict(
            INCONCLUSIVE, {},
            {"reason": "slope equation t V'(t) = 2 not bracketed on "
                       "[1e-6, 1e6]"})
    v_a0 = V(a0)
    profile = _spliced(
        f"spliced({mu.name})",
        lambda t: V(a0 * t) + 1.0 - v_a0, lambda t: a0 * dV(a0 * t), None,
        convex=False, kinks=())
    # not _is_convex_numeric: its [-64, 64] grid overflows V = e^{x^2}
    ts = np.linspace(-8.0, 8.0, 401)
    convex_ok = bool(np.all(np.diff(profile.fn(ts), 2) >= -1e-9))
    profile = replace(profile, convex=convex_ok)
    adm = validate_admissible(profile)
    sym = float(np.max(np.abs(V(ts) - V(-ts))))
    status = HOLDS if (adm.holds and convex_ok and sym < 1e-8) else INCONCLUSIVE
    verdict = Verdict(status, {"a0": a0} if status == HOLDS else {},
                      {"admissible": adm.status, "convex": convex_ok,
                       "potential_asymmetry": sym})
    return profile, a0, verdict


def skewed_cost(rm: RearrangementMap, base_cost: CostFunction,
                scale: Optional[float] = None,
                prefactor: float = 1.0) -> Callable:
    """Pull a cost on reference coordinates through the inverse map.

    The returned ``cost(y1, y2)`` equals ``prefactor *
    base_cost(scale * (T^{-1}y1 - T^{-1}y2))``; on the diagonal it vanishes,
    and for the reference law it coincides with the base cost itself.
    ``scale`` defaults to 1.  ``y1`` and ``y2`` broadcast; two scalars give
    a float.
    """
    a = 1.0 if scale is None else float(scale)

    def cost(y1, y2):
        return prefactor * base_cost.fn(a * (rm.inverse(y1) - rm.inverse(y2)))

    return cost
