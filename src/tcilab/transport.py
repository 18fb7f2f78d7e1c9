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
    boundary values outside (so the function is always bounded); it takes
    a scalar or an array by :func:`numerics.shaped`.
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
        return numerics.shaped(self._interp, x)

    def _interp(self, x):
        return np.interp(x, self.grid, self.values)


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
    a = 1.0 if scale is None else float(scale)
    if not (0.0 < a < math.inf and 0.0 < prefactor < math.inf):
        raise ValueError("scale and prefactor must be finite and positive")

    return a, lambda d: prefactor * alpha.fn(a * d)


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


_LP_START_WIDTH = 16     # cheapest pairs of each row in the first support
_LP_PRICE_TOL = 1e-12    # a pair priced below -this joins the support


def cost_lp(nu: DiscreteMeasure, mu: DiscreteMeasure, cost_mat: np.ndarray,
            max_atoms: int = 512):
    """Exact transport LP between discrete measures.

    Returns ``(optimal value, TransportPlan)``.  Solved by column generation
    with the dual-simplex method at tightened feasibility tolerances: the LP
    restricted to a support of pairs is solved, every pair is priced with
    its duals, and each row's and each column's most negative reduced cost
    joins the support until none is below ``-1e-12``, which certifies the
    restricted optimum for the full LP.  The first support is the north-west
    coupling's (feasible by construction) and the 16 cheapest pairs of each
    row, so with at most 16 target atoms the first solve is the full LP.
    The plan is a vertex of the transport polytope with marginals accurate
    to ~1e-12.
    """
    # imported here so that importing the package does not load them
    from scipy import optimize, sparse

    n, m = len(nu), len(mu)
    if n > max_atoms or m > max_atoms:
        raise ValueError(f"instance exceeds the {max_atoms}-atom cap")
    cost_mat = np.asarray(cost_mat, dtype=float)
    if cost_mat.shape != (n, m):
        raise ValueError("cost matrix shape mismatch")
    if not np.all(np.isfinite(cost_mat)):
        raise ValueError("cost matrix must be finite")
    support = northwest_plan(nu, mu).matrix > 0
    width = min(m, _LP_START_WIDTH)
    cheap = np.argpartition(cost_mat, width - 1, axis=1)[:, :width]
    np.put_along_axis(support, cheap, True, axis=1)
    b = np.concatenate([nu.weights, mu.weights[:-1]])
    while True:
        cols = np.flatnonzero(support)           # row-major pair indices
        i, j = np.divmod(cols, m)
        k = np.arange(len(cols))
        keep = j < m - 1                         # the last column sum is implied
        A = sparse.csc_matrix(
            (np.ones(len(k) + keep.sum()),
             (np.concatenate([i, n + j[keep]]), np.concatenate([k, k[keep]]))),
            shape=(n + m - 1, len(k)))
        res = optimize.linprog(
            cost_mat.ravel()[cols], A_eq=A, b_eq=b, bounds=(0, None),
            method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10})
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        y = res.eqlin.marginals
        reduced = cost_mat - y[:n, None] - np.append(y[n:], 0.0)[None, :]
        reduced[support] = np.inf
        enter = np.zeros_like(support)
        enter[np.arange(n), reduced.argmin(axis=1)] = True
        enter[reduced.argmin(axis=0), np.arange(m)] = True
        enter &= reduced < -_LP_PRICE_TOL
        if not enter.any():
            break
        support |= enter
    plan = np.zeros(n * m)
    plan[cols] = np.clip(res.x, 0.0, None)
    return float(res.fun), TransportPlan(plan.reshape(n, m), nu, mu)


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

_BAND_GRID = 4096    # distances on which knot_min's bands are read off c


class ExactInfConvolution:
    """Continuum inf-convolution of piecewise-linear potentials.

    ``q(values)`` is ``Q phi(x) = min_y phi(y) + c(x - y)`` at every query
    point for the potential taking ``values`` on the fixed ``knots`` (linear
    between them, constant beyond).  Every local minimizer of
    ``y -> phi(y) + c(x - y)`` is a knot, an offset ``x - y`` of zero or at
    a kink of ``c``, or a stationary point ``y = x - sign(s_j) d`` inside
    the segment ``j`` of slope ``s_j``, with ``c'(d) = |s_j|`` where ``c'``
    rises (where it falls, ``c`` is concave).  Each such ``d`` is
    interpolated in a rising run of ``c'`` sampled between the kinks, solved
    to ``1e-12 |s_j|`` between its bracketing samples and tried only at the
    sorted queries that put ``y`` in segment ``j``: exact for every cost
    whose ``c'`` is piecewise monotone, table costs included.

    Queries must be finite and nondecreasing (``ValueError`` otherwise):
    a ``nan`` or infinite one would spoil the bands and offsets of all.
    Knot costs are stored knot-major.  ``cell_max`` gives each knot's
    largest cost on blocks of consecutive queries, so ``min_k vals_k +
    M[k, j]`` bounds ``Q phi`` on all of block ``j``; ``knot_min`` bounds it
    at every query, and ``refine`` lowers that bound in place to ``Q phi``.

    ``refine`` always tries the offset 0, so ``Q phi <= max phi + c(0)``
    and a knot term above :meth:`_cap`, just above that, is never the
    minimum.  ``knot_min`` is capped there, and in its one pass each knot
    visits only its band of the queries, where its term can still be below
    the cap.  The band is read off ``c`` tabulated on a distance grid,
    which takes ``c`` nondecreasing in ``|x - y|``; a cost that falls on the
    grid gets no bands.  ``refine`` then returns the all-knot result bit for
    bit, since a minimum does not round.
    """

    def __init__(self, query, knots, alpha: CostFunction,
                 scale: Optional[float] = None, prefactor: float = 1.0):
        a, c = _ground(alpha, scale, prefactor)
        self._c = c
        self.query = np.asarray(query, dtype=float)
        if not np.all(np.isfinite(self.query)) or np.any(
                np.diff(self.query) < 0.0):
            raise ValueError("query points must be finite and nondecreasing")
        self.knots = np.asarray(knots, dtype=float)
        # knot-major, in blocks of about 2**16 entries per call of c; a block
        # holds its distances first, so c runs with no other block alive
        rows, kn = max(1, 2 ** 16 // max(len(self.query), 1)), self.knots
        self.knot_cost = np.empty((len(kn), len(self.query)))
        for i in range(0, len(kn), rows):
            block = self.knot_cost[i:i + rows]
            block[...] = c(np.subtract(self.query, kn[i:i + rows, None],
                                       out=block))
        self._c0 = c(0.0)
        # c on a geometric grid of distances (0.7 % apart) out to the
        # farthest query-knot pair; the band of a knot ends at the first
        # distance whose cost tops its room
        far = np.ptp(np.concatenate([self.query, self.knots]))
        dist = np.append(0.0, np.geomspace(1e-12, 1.0, _BAND_GRID)) * far \
            if math.isfinite(far) else np.zeros(1)
        cost = c(dist)
        self._reach = (np.append(dist, math.inf), cost) \
            if np.all(np.diff(cost) >= 0.0) and math.isfinite(far) else None
        span = np.ptp(self.knots) + np.ptp(self.query) + 1.0
        kinks = [k for k in alpha.kinks if 0.0 < k / a < span]
        self._fixed = np.array([0.0, *(k / a for k in kinks)])
        self._cprime = lambda d: prefactor * a * alpha.deriv(a * d)
        # rising runs of c' between kinks, sampled with the left limit at
        # each kink (deriv is the right derivative)
        self._runs = []
        ends = [*(np.nextafter(k, 0.0) for k in kinks), a * span]
        for lo, hi, end in zip(self._fixed, [*self._fixed[1:], span], ends):
            d = np.linspace(lo, hi, 513)
            cp = self._cprime(d)
            cp[-1] = prefactor * a * alpha.deriv(end)
            up = np.diff(cp) >= 0.0
            cuts = [0, *(np.flatnonzero(up[1:] != up[:-1]) + 1), len(up)]
            self._runs += [(cp[i:j + 1], d[i:j + 1])
                           for i, j in zip(cuts[:-1], cuts[1:])
                           if up[i] and cp[j] > cp[i]]

    def cell_max(self, starts) -> np.ndarray:
        """``M[k, j]``, the largest cost of knot ``k`` on block ``j`` of the
        queries; the blocks are consecutive and begin at ``starts``."""
        return np.maximum.reduceat(self.knot_cost, starts, axis=1)

    def _cap(self, vals: np.ndarray) -> float:
        """Just above ``max phi + c(0)``, so above ``Q phi`` everywhere; the
        margin covers the rounding of ``np.interp`` and of ``c``."""
        top = float(vals.max()) + self._c0
        return top + 1e-9 * (1.0 + float(np.abs(vals).max()) + abs(self._c0))

    def _bands(self, vals: np.ndarray, cap: float):
        """Per knot, the slice ``[lo, hi)`` of the queries outside which its
        term ``vals_k + c(x - knot_k)`` tops ``cap``."""
        K = len(self.knots)
        if self._reach is None or not cap < math.inf:
            return [0] * K, [len(self.query)] * K
        dist, cost = self._reach
        # first grid distance whose cost tops the room, widened past the
        # rounding of x - knot_k
        w = dist[np.searchsorted(cost, cap - vals, side="right")]
        w = w + 1e-12 * (w + np.abs(self.knots))
        q = self.query
        return (np.searchsorted(q, self.knots - w, side="left").tolist(),
                np.searchsorted(q, self.knots + w, side="right").tolist())

    def knot_min(self, vals: np.ndarray) -> np.ndarray:
        """``min(cap, min_k vals_k + c(x - knot_k))`` at every query for
        the cap :meth:`_cap`, an upper bound on ``Q phi``, in one in-place
        pass in which each knot visits only its band (:meth:`_bands`).  It
        is the all-knot minimum wherever that is below the cap, so
        :meth:`refine` lowers it to the same ``Q phi`` bit for bit.
        """
        cap = self._cap(vals)
        best = np.full(len(self.query), cap)
        tmp = np.empty_like(best)
        for k, (i, j) in enumerate(zip(*self._bands(vals, cap))):
            np.add(self.knot_cost[k, i:j], vals[k], out=tmp[i:j])
            np.minimum(best[i:j], tmp[i:j], out=best[i:j])
        return best

    def refine(self, vals: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Lower ``best`` (the knot minimum) in place to ``Q phi``."""
        for off, coff in zip(self._fixed, self._c(self._fixed)):
            for sign in (1.0, -1.0):
                cand = np.interp(self.query - sign * off, self.knots, vals)
                np.minimum(best, cand + coff, out=best)
        slopes = np.diff(vals) / np.diff(self.knots)
        mag = np.abs(slopes)
        for cp, d in self._runs:
            seg = np.flatnonzero((mag > cp[0]) & (mag <= cp[-1]))
            j = np.searchsorted(cp, mag[seg])
            # interpolated, then solved between the two bracketing samples
            off = numerics.monotone_root(
                self._cprime, mag[seg], d[j - 1], d[j], tol=1e-12 * mag[seg],
                x=np.interp(mag[seg], cp, d))
            shift = np.sign(slopes[seg]) * off
            # y = x - shift lies in segment j for x in [k_j, k_j+1] + shift
            lo = np.searchsorted(self.query, self.knots[seg] + shift)
            n = np.searchsorted(self.query, self.knots[seg + 1] + shift,
                                side="right") - lo
            run = np.repeat(np.arange(len(seg)), n)
            pos = np.arange(len(run)) + np.repeat(lo - np.cumsum(n) + n, n)
            cand = (np.interp(self.query[pos] - shift[run], self.knots, vals)
                    + self._c(off)[run])
            np.minimum.at(best, pos, cand)
        return best

    def q(self, vals: np.ndarray) -> np.ndarray:
        return self.refine(vals, self.knot_min(vals))


def inf_convolution_exact(phi: GridFunction, alpha: CostFunction, out_x,
                          scale: Optional[float] = None,
                          prefactor: float = 1.0) -> np.ndarray:
    """Continuum inf-convolution of a piecewise-linear ``phi`` at the points
    ``out_x``, in any order; see :class:`ExactInfConvolution`."""
    x = np.asarray(out_x, dtype=float)
    order = np.argsort(x, kind="stable")
    out = np.empty(len(x))
    out[order] = ExactInfConvolution(x[order], phi.grid, alpha, scale,
                                     prefactor).q(phi.values)
    return out


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
