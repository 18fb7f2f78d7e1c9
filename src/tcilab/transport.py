"""Optimal transport costs on the line, relative entropy, inf-convolution.

The transport cost of moving ``nu`` onto ``mu`` for a ground cost
``c(x, y) = prefactor * alpha(scale * (x - y))`` is computed two independent
ways: through the quantile coupling (exact for convex profiles, an upper
bound otherwise) and through an exact linear program on discrete instances,
which serves as the trusted oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize, sparse

from . import numerics
from .costs import CostFunction
from .measures import DiscreteMeasure, Measure1D

__all__ = [
    "GridFunction", "TransportPlan", "cost_monotone", "cost_monotone_discrete",
    "northwest_plan", "cost_matrix", "cost_lp", "relative_entropy",
    "inf_convolution_exact", "ExactInfConvolution",
    "dual_lower_bound",
]


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear function given by values on a sorted grid.

    Evaluation interpolates linearly inside the grid and continues with the
    boundary values outside (so the function is always bounded).
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise ValueError("grid and values must be equal-length 1D arrays")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.grid, self.values)
        return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two discrete measures (rows: source atoms)."""

    matrix: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.source), len(self.target)):
            raise ValueError("plan shape does not match the marginals")
        if np.any(m < -1e-12):
            raise ValueError("plan has a negative entry")
        row_gap = float(np.max(np.abs(m.sum(axis=1) - self.source.weights)))
        col_gap = float(np.max(np.abs(m.sum(axis=0) - self.target.weights)))
        if max(row_gap, col_gap) > 1e-10:
            raise ValueError(f"plan marginals off by {max(row_gap, col_gap):.3e}")

    def cost(self, cost_mat: np.ndarray) -> float:
        return float(np.sum(self.matrix * cost_mat))


def _ground(alpha: CostFunction, scale: Optional[float], prefactor: float):
    a = alpha.scale if scale is None else float(scale)
    if not (0.0 < a < math.inf and 0.0 < prefactor < math.inf):
        raise ValueError("scale and prefactor must be finite and positive")

    def c(d):
        return prefactor * np.asarray(alpha.fn(a * np.asarray(d, dtype=float)),
                                      dtype=float)
    return a, c


# ---------------------------------------------------------------------------
# transport costs
# ---------------------------------------------------------------------------

def cost_monotone(nu: Measure1D, mu: Measure1D, alpha: CostFunction,
                  scale: Optional[float] = None,
                  prefactor: float = 1.0) -> Tuple[float, bool]:
    """Quantile-coupling transport cost ``int_0^1 c(Q_nu(t) - Q_mu(t)) dt``.

    Returns ``(value, exact)``: the coupling is the optimum exactly when the
    profile is convex, and an upper bound otherwise.  The left half is
    integrated over cdf levels with ``quantile`` and the right half over
    survival levels with ``isf``, so both ends keep full precision.  The
    value is the limit of the integral over the levels in ``[d, 1/2]`` on
    both sides as d halves from 0.01 (:func:`numerics.guarded_limit` in
    ``T = 1/d``, rel_tol 1e-12); each halving adds its two edge slivers in
    one owner-mode call of :func:`numerics.gauss_kronrod_cells`.  It is
    ``inf`` when the rule calls the limit divergent or it does not settle.
    """
    _, c = _ground(alpha, scale, prefactor)

    def gap_cost(s, side):
        # side 0: cdf level s, side 1: survival level s
        left = np.broadcast_to(side == 0, s.shape)
        out = np.empty_like(s)
        out[left] = c(nu.quantile(s[left]) - mu.quantile(s[left]))
        out[~left] = c(nu.isf(s[~left]) - mu.isf(s[~left]))
        return out

    edge, total = 0.5, 0.0

    def partial(T):
        nonlocal edge, total
        _, vals = numerics.gauss_kronrod_cells(
            gap_cost, (np.full(2, 1.0 / T), np.full(2, edge)),
            epsabs=1e-15, epsrel=1e-13, owner=np.arange(2))
        edge, total = 1.0 / T, total + float(vals.sum())
        return total

    value, _ = numerics.guarded_limit(partial, 100.0, rel_tol=1e-12)
    return value, bool(alpha.convex)


def northwest_plan(nu: DiscreteMeasure, mu: DiscreteMeasure) -> TransportPlan:
    """Monotone (north-west corner) coupling of two discrete measures."""
    n, m = len(nu), len(mu)
    plan = np.zeros((n, m))
    ri = nu.weights.astype(float).copy()
    cj = mu.weights.astype(float).copy()
    i = j = 0
    while i < n and j < m:
        move = min(ri[i], cj[j])
        plan[i, j] += move
        ri[i] -= move
        cj[j] -= move
        if ri[i] < 1e-15:
            i += 1
        if cj[j] < 1e-15:
            j += 1
    # absorb rounding dust into the last cell
    plan[-1, -1] += 1.0 - plan.sum()
    return TransportPlan(plan, nu, mu)


def cost_monotone_discrete(nu: DiscreteMeasure, mu: DiscreteMeasure,
                           alpha: CostFunction, scale: Optional[float] = None,
                           prefactor: float = 1.0) -> float:
    """Cost of the monotone coupling of two discrete measures."""
    return northwest_plan(nu, mu).cost(
        cost_matrix(nu, mu, alpha, scale, prefactor))


def cost_matrix(nu: DiscreteMeasure, mu: DiscreteMeasure, alpha: CostFunction,
                scale: Optional[float] = None, prefactor: float = 1.0) -> np.ndarray:
    """Ground-cost matrix ``prefactor * alpha(scale * (x_i - y_j))``."""
    _, c = _ground(alpha, scale, prefactor)
    return c(nu.atoms[:, None] - mu.atoms[None, :])


def cost_lp(nu: DiscreteMeasure, mu: DiscreteMeasure, cost_mat: np.ndarray,
            max_atoms: int = 512):
    """Exact transport LP between discrete measures.

    Returns ``(optimal value, TransportPlan)``.  Solved with the dual-simplex
    method at tightened feasibility tolerances so the returned plan is a
    vertex of the transport polytope with marginals accurate to ~1e-12.
    """
    n, m = len(nu), len(mu)
    if n > max_atoms or m > max_atoms:
        raise ValueError(f"instance exceeds the {max_atoms}-atom cap")
    cost_mat = np.asarray(cost_mat, dtype=float)
    if cost_mat.shape != (n, m):
        raise ValueError("cost matrix shape mismatch")
    if not np.all(np.isfinite(cost_mat)):
        raise ValueError("cost matrix must be finite")
    A_rows = sparse.kron(sparse.eye(n), np.ones((1, m)), format="csr")
    A_cols = sparse.kron(np.ones((1, n)), sparse.eye(m), format="csr")
    A = sparse.vstack([A_rows, A_cols[:-1]], format="csr")
    b = np.concatenate([nu.weights, mu.weights[:-1]])
    res = optimize.linprog(
        cost_mat.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = np.clip(res.x.reshape(n, m), 0.0, None)
    return float(res.fun), TransportPlan(plan, nu, mu)


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def relative_entropy(nu, mu) -> float:
    """``H(nu | mu)``; ``inf`` when ``nu`` is not absolutely continuous
    w.r.t. ``mu`` or the integral diverges."""
    if isinstance(nu, DiscreteMeasure) and isinstance(mu, DiscreteMeasure):
        return _relative_entropy_discrete(nu, mu)
    if isinstance(nu, Measure1D) and isinstance(mu, Measure1D):
        return _relative_entropy_continuous(nu, mu)
    # a discrete measure is never absolutely continuous w.r.t. a density,
    # and vice versa
    return math.inf


def _relative_entropy_discrete(nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    idx = np.searchsorted(mu.atoms, nu.atoms)
    idx = np.clip(idx, 0, len(mu) - 1)
    left = np.clip(idx - 1, 0, len(mu) - 1)
    use_left = np.abs(mu.atoms[left] - nu.atoms) < np.abs(mu.atoms[idx] - nu.atoms)
    match = np.where(use_left, left, idx)
    if np.any(np.abs(mu.atoms[match] - nu.atoms) > 1e-12):
        return math.inf
    w_mu = mu.weights[match]
    return float(np.sum(nu.weights * np.log(nu.weights / w_mu)))


def _relative_entropy_continuous(nu: Measure1D, mu: Measure1D) -> float:
    lo_s, hi_s = nu.support
    if lo_s < mu.support[0] - 1e-12 or hi_s > mu.support[1] + 1e-12:
        return math.inf

    def integrand(x):
        return nu.density(x) * (mu.potential(x) + mu.logZ
                                - nu.potential(x) - nu.logZ)

    partial = numerics.growing_window(
        integrand, nu.median, (lo_s, hi_s), (nu.median, nu.median),
        np.union1d(nu.kink_points, mu.kink_points), epsabs=1e-14,
        epsrel=1e-12)
    q25, q75 = nu.quantile(0.25), nu.quantile(0.75)
    start = max(1.0, q75 - q25)
    val, _ = numerics.guarded_limit(partial, start, rel_tol=1e-10)
    return float(val)


# ---------------------------------------------------------------------------
# inf-convolution
# ---------------------------------------------------------------------------

class ExactInfConvolution:
    """Continuum inf-convolution of piecewise-linear potentials.

    ``q(values)`` is ``Q phi(x) = min_y phi(y) + c(x - y)`` at every query
    point for the potential taking ``values`` on the fixed ``knots`` (linear
    between them, constant beyond).  Every local minimizer of
    ``y -> phi(y) + c(x - y)`` is a knot, an offset ``x - y`` of zero or at
    a kink of ``c``, or a stationary point ``y = x - sign(s_j) d``,
    ``c'(d) = |s_j|``, inside the segment ``j`` of slope ``s_j``; where
    ``c'`` is monotone it is tried only at the sorted queries that put
    ``y`` there.  The enumeration is exact up to interpolation of ``c'``.

    Knot costs are stored knot-major.  A minimum over knots alone bounds
    ``Q phi`` from above: ``upper_bounds`` yields it over every fourth knot,
    then over all, and ``refine`` lowers the latter to ``Q phi`` in place.
    """

    def __init__(self, query, knots, alpha: CostFunction,
                 scale: Optional[float] = None, prefactor: float = 1.0):
        a, c = _ground(alpha, scale, prefactor)
        self._c = c
        self.query = np.asarray(query, dtype=float)
        self.knots = np.asarray(knots, dtype=float)
        # knot-major, built in blocks of about 2**16 entries per call of c
        rows, kn = max(1, 2 ** 16 // max(len(self.query), 1)), self.knots
        self.knot_cost = np.empty((len(kn), len(self.query)))
        for i in range(0, len(kn), rows):
            self.knot_cost[i:i + rows] = c(self.query - kn[i:i + rows, None])
        self._order = np.argsort(self.query, kind="stable")
        self._sorted = self.query[self._order]
        self._span = span = ((self.knots[-1] - self.knots[0])
                             + (self.query.max() - self.query.min()) + 1.0)
        kinks = [k / a for k in alpha.kinks if 0.0 < k / a < span]
        self._fixed = np.array([0.0, *kinks])
        # increasing branches of c' between kinks: interp(s, cp, d) = c'^-1(s)
        edges = [0.0, *kinks, span]
        self._branches, self._dense = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            d = np.linspace(lo, hi, 513)
            cp = prefactor * a * np.asarray(alpha.deriv(a * d), dtype=float)
            if cp[-1] - cp[0] > 1e-14:
                to = self._branches if np.diff(cp).min() >= 0 else self._dense
                to.append((np.maximum.accumulate(cp), d))

    def upper_bounds(self, vals: np.ndarray):
        """Yield, in one array lowered in place, the minimum over every
        fourth knot and then over all knots: upper bounds on ``Q phi``."""
        best = self.knot_cost[0] + vals[0]
        tmp = np.empty_like(best)
        K = len(self.knots)
        for rows in (range(4, K, 4), [k for k in range(K) if k % 4]):
            for k in rows:
                np.add(self.knot_cost[k], vals[k], out=tmp)
                np.minimum(best, tmp, out=best)
            yield best

    def knot_min(self, vals: np.ndarray) -> np.ndarray:
        """``min_k vals_k + c(x - knot_k)`` at every query point."""
        if self.knot_cost.size <= 2 ** 16:     # small: one broadcast pass
            return np.min(self.knot_cost + vals[:, None], axis=0)
        *_, best = self.upper_bounds(vals)
        return best

    def refine(self, vals: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Lower ``best`` (the knot minimum) in place to ``Q phi``."""
        slopes = np.diff(vals) / np.diff(self.knots)
        mag = np.abs(slopes)
        # at every query, both signs: zero, the kink offsets and, on a branch
        # where c' falls somewhere, every stationary offset of every slope
        offs = np.unique(np.concatenate([self._fixed] + [
            np.interp(np.concatenate(([0.0], mag)), cp, d)
            for cp, d in self._dense]))
        offs = offs[offs <= self._span]
        for off, coff in zip(offs, self._c(offs)):
            for sign in (1.0, -1.0):
                cand = np.interp(self.query - sign * off, self.knots, vals)
                np.minimum(best, cand + coff, out=best)
        for cp, d in self._branches:
            seg = np.flatnonzero((mag > cp[0]) & (mag <= cp[-1]))
            off = np.interp(mag[seg], cp, d)
            shift = np.sign(slopes[seg]) * off
            # y = x - shift lies in segment j for x in [k_j, k_j+1] + shift
            lo = np.searchsorted(self._sorted, self.knots[seg] + shift)
            n = np.searchsorted(self._sorted, self.knots[seg + 1] + shift,
                                side="right") - lo
            run = np.repeat(np.arange(len(seg)), n)
            pos = np.arange(len(run)) + np.repeat(lo - np.cumsum(n) + n, n)
            cand = (np.interp(self._sorted[pos] - shift[run], self.knots, vals)
                    + self._c(off)[run])
            np.minimum.at(best, self._order[pos], cand)
        return best

    def q(self, vals: np.ndarray) -> np.ndarray:
        return self.refine(vals, self.knot_min(vals))


def inf_convolution_exact(phi: GridFunction, alpha: CostFunction, out_x,
                          scale: Optional[float] = None,
                          prefactor: float = 1.0) -> np.ndarray:
    """Continuum inf-convolution of a piecewise-linear ``phi`` at ``out_x``;
    see :class:`ExactInfConvolution`."""
    return ExactInfConvolution(out_x, phi.grid, alpha, scale,
                               prefactor).q(phi.values)


def dual_lower_bound(nu: DiscreteMeasure, mu: DiscreteMeasure,
                     alpha: CostFunction, phi: GridFunction,
                     scale: Optional[float] = None,
                     prefactor: float = 1.0) -> float:
    """Weak-duality lower bound ``int Q phi d nu - int phi d mu``.

    ``Q`` is the inf-convolution of ``phi`` over a candidate set that
    includes every atom of ``mu``, which guarantees the bound never exceeds
    the LP optimum for the matching cost matrix.
    """
    _, c = _ground(alpha, scale, prefactor)
    cands = np.union1d(phi.grid, mu.atoms)
    q = np.min(phi(cands) + c(nu.atoms[:, None] - cands), axis=1)
    return float(np.sum(nu.weights * q) - np.sum(mu.weights * phi(mu.atoms)))
