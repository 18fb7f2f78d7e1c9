"""Shared numeric helpers: the truncated-limit rule, sup searches, quadrature.

Everything in here is deterministic and keeps no module state; callers
pass explicit grids, tolerances and truncation schedules.  Integrals run on
whole arrays through the Gauss-Kronrod cell engine
(:func:`gauss_kronrod_cells`); infinite-range ones are truncated limits
decided by :func:`guarded_limit`.  The scalar adaptive :func:`quad` has no
caller in the package.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate

#: an integrand is truncated where it falls below this fraction of its peak.
TRUNCATION_RATIO = 1e-16

#: growth threshold of the divergence rule: a limit is declared infinite when
#: doubling the truncation grows the value by more than this, twice in a row.
DIVERGENCE_GROWTH = 0.10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def quad(f: Callable[[float], float], a: float, b: float,
         epsabs: float = 1e-10, epsrel: float = 1e-8, limit: int = 200,
         **kw) -> float:
    """scipy adaptive quadrature of a scalar integrand; value only.

    No package code calls it: it stays only because the benchmark's tracer
    (``perfbench/spans.py``, installed by ``tests/test_bench_hooks.py``)
    wraps ``numerics.quad`` by name.
    """
    val, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                            limit=limit, **kw)
    return val


def guarded_limit(partial: Callable[[float], float], start: float,
                  factor: float = 2.0, max_steps: int = 60,
                  rel_tol: float = 1e-9, abs_tol: float = 1e-13):
    """Limit of ``partial(T)`` as the truncation T grows geometrically.

    ``partial`` is called at ``start, start * factor, ...`` in that order,
    so it may keep a running sum.  Returns ``(value, converged)``.  The value
    is ``inf`` when the sequence overflows or at the second growth step in a
    row, a growth step being one whose relative increase exceeds
    ``DIVERGENCE_GROWTH`` and is at least 0.95 times the previous step's: a
    divergent tail keeps that fraction from decaying, a slowly convergent
    one shrinks it.  ``converged`` is False when the sequence neither
    settled nor clearly diverged within ``max_steps`` (log-like growth).
    """
    t = start
    prev = partial(t)
    if not math.isfinite(prev):
        return math.inf, True
    growth_streak, last_rel = 0, 0.0
    for _ in range(max_steps):
        t *= factor
        cur = partial(t)
        if not math.isfinite(cur):
            return math.inf, True
        step = cur - prev
        rel = step / max(abs(prev), abs_tol)
        if rel > DIVERGENCE_GROWTH and rel >= 0.95 * last_rel:
            growth_streak += 1
            if growth_streak >= 2:
                return math.inf, True
        else:
            growth_streak = 0
        last_rel = rel
        if abs(step) <= abs_tol + rel_tol * abs(cur):
            return cur, True
        prev = cur
    # never settled: treat as divergent but flag the non-convergence
    return math.inf, False


def golden_max(f: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10, max_iter: int = 200):
    """Golden-section search for the maximum of ``f`` on ``[a, b]``."""
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > tol * (1.0 + abs(a) + abs(b)) and it < max_iter:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        it += 1
    if f1 >= f2:
        return x1, f1
    return x2, f2


def geometric_offsets(span: float, n: int) -> np.ndarray:
    """Offsets 0 < d_1 < ... < d_n = span in geometric progression, with 0."""
    if span <= 0:
        return np.zeros(1)
    return np.concatenate(([0.0], np.geomspace(span * 1e-8, span, n)))


def sup_on_grid(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                tol: float = 1e-12):
    """Supremum of ``f`` along each column of a scan grid, with growth probes.

    Column j of the ``(n, C)`` ``grid`` runs outward from ``grid[0, j]``;
    ``f`` maps an ``(r, C)`` array of points to values, column by column.
    A ``nan`` or ``+inf`` grid value makes the sup ``inf`` at the first such
    point.  Every best interior point is refined by golden-section search
    between its neighbours, all columns at once (:func:`golden_max`'s steps
    and stopping rule, one ``f`` call per step).  Then ``f`` is probed past
    the grid at the offsets ``span + max(span, 1) 2**k``, k < 6: a column
    diverges at an infinite probe or at the second growth in a row above
    ``DIVERGENCE_GROWTH`` times the running maximum (which starts at the
    sup); a ``nan`` probe ends its column's probes with no verdict.

    Returns ``(sup, argmax, diverged, probes)``: three length-C arrays and,
    per column, the ``(offset, value)`` pairs up to the deciding probe.
    """
    vals = np.asarray(f(grid), dtype=float)
    vals = np.where(np.isnan(vals), math.inf, vals)
    cols = np.arange(grid.shape[1])
    k = np.argmax(vals, axis=0)  # the first inf, if any
    arg, sup = grid[k, cols], vals[k, cols]
    live = (k > 0) & (k < len(grid) - 1) & np.isfinite(sup)
    if live.any():
        rows = np.clip(k + np.array([[-1], [1]]), 0, len(grid) - 1)
        lo, hi = np.sort(grid[rows, cols], axis=0)
        x, v = _golden_columns(f, lo, hi, live, tol)
        better = live & (v > sup)
        arg, sup = np.where(better, x, arg), np.where(better, v, sup)

    span = np.abs(grid[-1] - grid[0])
    offsets = span + np.maximum(span, 1.0) * 2.0 ** np.arange(6)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pv = np.asarray(f(grid[0] + np.sign(grid[-1] - grid[0]) * offsets),
                        dtype=float)
    prev, streak, diverged = sup, 0, np.zeros(len(cols), dtype=bool)
    seen = np.full(len(cols), len(pv))  # probes up to the deciding one
    for i, v in enumerate(pv):
        streak = np.where(v > prev * (1.0 + DIVERGENCE_GROWTH), streak + 1, 0)
        hit = (seen == len(pv)) & (np.isinf(v) | (streak >= 2))
        seen = np.where((seen == len(pv)) & (hit | np.isnan(v)), i + 1, seen)
        diverged |= hit
        prev = np.fmax(prev, v)
    probes = [[(float(offsets[i, j]), float(pv[i, j])) for i in range(seen[j])]
              for j in cols]
    return sup, arg, diverged, probes


def _golden_columns(f, a, b, live, tol):
    """:func:`golden_max` on the brackets ``[a_j, b_j]`` of the ``live``
    columns at once; ``f`` is called on ``(r, C)`` rows."""
    x = np.stack((b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)))
    fx = np.asarray(f(x), dtype=float)
    for _ in range(200):
        live = live & ((b - a) > tol * (1.0 + np.abs(a) + np.abs(b)))
        if not live.any():
            break
        up = fx[0] < fx[1]  # keep the right point as the new left one
        a, b = np.where(live & up, x[0], a), np.where(live & ~up, x[1], b)
        new = np.where(up, a + _INV_PHI * (b - a), b - _INV_PHI * (b - a))
        fn = np.asarray(f(new[None, :]), dtype=float)[0]
        x = np.where(live, np.where(up, (x[1], new), (new, x[0])), x)
        fx = np.where(live, np.where(up, (fx[1], fn), (fn, fx[0])), fx)
    left = fx[0] >= fx[1]
    return np.where(left, x[0], x[1]), np.where(left, fx[0], fx[1])


def wilson_interval(p, n: int, z: float = 2.5758293035489004):
    """Wilson score interval around the observed fraction(s) ``p`` of ``n``.

    ``p`` may be an array; the default z is the two-sided 99% quantile.  The
    limits are not clipped to [0, 1].
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    z2 = z ** 2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n ** 2)) / denom
    return center - half, center + half


def composite_gauss_nodes(edges: np.ndarray, order: int = 4, panels: int = 1):
    """Nodes and weights of a composite Gauss-Legendre rule on given segments.

    ``edges`` is the sorted array of segment boundaries.  Each segment is cut
    into ``panels`` equal panels carrying an ``order``-point rule, so the rule
    integrates any function that is smooth within each segment.  Nodes come
    segment by segment, panel by panel, in increasing order.
    """
    edges = np.asarray(edges, dtype=float)
    sub = np.linspace(edges[:-1], edges[1:], panels + 1, axis=-1)
    lo, hi = sub[:, :-1].ravel(), sub[:, 1:].ravel()
    xg, wg = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# Gauss-Kronrod 7/15 pair on [-1, 1] (QUADPACK qk15), nodes ascending; the
# 7 Gauss nodes are the odd-indexed Kronrod nodes.
_XK_HALF = np.array([0.991455371120812639206854697526329,
                     0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926,
                     0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013,
                     0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245])
_WK_HALF = np.array([0.022935322010529224963732008058970,
                     0.063092092629978553290700663189204,
                     0.104790010322250183839876322541518,
                     0.140653259715525918745189590510238,
                     0.169004726639267902826583426598550,
                     0.190350578064785409913256402421014,
                     0.204432940075298892414161999234649])
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = np.array([0.129484966168869693270611432679082,
                     0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975])
_WG_MID = 0.417959183673469387755102040816327
_XK = np.concatenate((-_XK_HALF, [0.0], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF, [_WK_MID], _WK_HALF[::-1]))
_GAUSS7_WEIGHTS = np.concatenate((_WG_HALF, [_WG_MID], _WG_HALF[::-1]))
_EPS = np.finfo(float).eps
#: bisection rounds of :func:`gauss_kronrod_cells` (cells shrink to 2**-30)
_GK_ROUNDS = 30
#: cells one owner's integral may reach before it stops splitting (the
#: subinterval limit :func:`quad` passes to QUADPACK)
_GK_OWNER_CELLS = 200


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Vectorized G7/K15 rule on the intervals ``[a_i, b_i]``.

    ``f`` is called once, on an ``(n, 15)`` array of nodes.  Returns the
    Kronrod values and QUADPACK's error estimates (``qk15``).  ``a_i > b_i``
    gives the negated integral; ``a_i == b_i`` gives zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _XK
    fx = np.asarray(f(nodes), dtype=float)
    half = np.abs(0.5 * (b - a))
    resk = (fx * _WK).sum(axis=1)
    resg = (fx[:, 1::2] * _GAUSS7_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fx) * _WK).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _WK).sum(axis=1) * half
    err = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk * 0.5 * (b - a), err


def gauss_kronrod_cells(f: Callable[[np.ndarray], np.ndarray], edges,
                        epsabs: float, epsrel: float, owner=None):
    """Integrals of ``f`` over the cells of a partition, refined to target.

    Every cell of ``edges`` gets the G7/K15 rule; a cell whose error estimate
    exceeds ``max(epsabs, epsrel * |value|)`` is bisected, and all failing
    cells are redone together, one ``f`` call per round.  Cells still short
    of the target after ``_GK_ROUNDS`` rounds, or too narrow to split, are
    kept as they are.  Returns the refined edges and one value per cell.

    With ``owner`` (one integer per cell) the cells belong to separate
    integrals: ``edges`` is then the pair ``(lo, hi)`` of cell-bound arrays,
    ``f`` is called as ``f(nodes, owners)`` with the owners as an ``(n, 1)``
    column, halves inherit their parent's owner, and the result is the
    owner and the value of every refined cell, in no particular order.  An
    owner stops splitting once it holds ``_GK_OWNER_CELLS`` cells, which
    bounds the work on integrands whose rounding noise no rule resolves.
    """
    if owner is None:
        edges = np.asarray(edges, dtype=float)
        lo, hi = edges[:-1], edges[1:]
    else:
        lo, hi = (np.asarray(e, dtype=float) for e in edges)
        owner = np.asarray(owner)
        held = np.bincount(owner)
    kept_lo, kept_val, kept_owner = [], [], []
    for rounds_left in range(_GK_ROUNDS, -1, -1):
        rule = f if owner is None else (lambda x, o=owner[:, None]: f(x, o))
        val, err = gauss_kronrod(rule, lo, hi)
        mid = 0.5 * (lo + hi)
        split = (err > np.maximum(epsabs, epsrel * np.abs(val))) \
            & (mid > lo) & (mid < hi) & (rounds_left > 0)
        if owner is not None:
            split &= held[owner] < _GK_OWNER_CELLS
            held += np.bincount(owner[split], minlength=len(held))
        kept_lo.append(lo[~split])
        kept_val.append(val[~split])
        if owner is not None:
            kept_owner.append(owner[~split])
            owner = np.concatenate((owner[split], owner[split]))
        if not split.any():
            break
        lo, hi = (np.concatenate((lo[split], mid[split])),
                  np.concatenate((mid[split], hi[split])))
    if owner is not None:
        return np.concatenate(kept_owner), np.concatenate(kept_val)
    lo = np.concatenate(kept_lo)
    order = np.argsort(lo, kind="stable")
    return (np.append(lo[order], edges[-1]),
            np.concatenate(kept_val)[order])


def growing_window(f: Callable[[np.ndarray], np.ndarray], center: float,
                   support, inner, breaks, epsabs: float, epsrel: float,
                   base: float = 0.0):
    """``partial(T)`` for :func:`guarded_limit`: ``base`` plus the integral
    of ``f`` over ``[center - T, center + T]``, clipped to ``support``,
    outside the interval ``inner`` it contains.

    T must grow from call to call: each call integrates only what the last
    one left out, cut at the ``breaks``, in one owner-mode
    :func:`gauss_kronrod_cells` call with one owner per piece.
    """
    breaks = np.asarray(breaks, dtype=float)
    state = [inner, base]

    def partial(T):
        (done_lo, done_hi), total = state
        a, b = max(support[0], center - T), min(support[1], center + T)
        pts = np.union1d([a, b, done_lo, done_hi],
                         breaks[(breaks > a) & (breaks < b)])
        lo, hi = pts[:-1], pts[1:]
        new = (hi <= done_lo) | (lo >= done_hi)
        _, vals = gauss_kronrod_cells(lambda x, _owner: f(x),
                                      (lo[new], hi[new]), epsabs, epsrel,
                                      owner=np.arange(new.sum()))
        state[:] = [(a, b), total + float(vals.sum())]
        return state[1]
    return partial
