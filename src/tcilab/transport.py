"""Optimal transport costs on the line, relative entropy, inf-convolution.

The transport cost of moving ``nu`` onto ``mu`` for a ground cost
``c(x, y) = prefactor * alpha(scale * (x - y))`` is computed two independent
ways: through the quantile coupling (exact for convex profiles, an upper
bound otherwise) and through an exact linear program on discrete instances,
which serves as the trusted oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import integrate, optimize, sparse

from . import numerics
from .costs import CostFunction
from .measures import DiscreteMeasure, Measure1D

__all__ = [
    "GridFunction", "TransportPlan", "cost_monotone", "cost_monotone_discrete",
    "northwest_plan", "cost_matrix", "cost_lp", "relative_entropy",
    "inf_convolution", "inf_convolution_exact", "ExactInfConvolution",
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
    if a <= 0 or prefactor <= 0:
        raise ValueError("scale and prefactor must be positive")

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
    profile is convex, and an upper bound otherwise.  The value is ``inf``
    when the end-truncated integrals keep growing as the truncation shrinks
    (divergence rule).
    """
    _, c = _ground(alpha, scale, prefactor)
    exact = bool(alpha.convex)

    def integrand(t):
        t = min(max(t, 1e-15), 1.0 - 1e-15)
        return float(c(nu.quantile(t) - mu.quantile(t)))

    def q(a, b, limit=60, points=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return numerics.quad(integrand, a, b, limit=limit, points=points)

    # end-truncated integral over [d, 1-d]; halving d (doubling the window
    # sharpness) only adds two edge slivers, so divergence detection walks
    # the same schedule as guarded_limit at a fraction of the cost
    d = 0.01
    value = q(d, 0.5, limit=100) + q(0.5, 1.0 - d, limit=100)
    if not math.isfinite(value):
        return math.inf, exact
    growth_streak = 0
    last_rel = math.inf
    converged = False
    for _ in range(60):
        nd = d / 2.0
        step = q(nd, d) + q(1.0 - d, 1.0 - nd)
        if not math.isfinite(step) or not math.isfinite(value + step):
            return math.inf, exact
        new = value + step
        rel = step / max(abs(value), 1e-13)
        # a divergent tail keeps the growth fraction from decaying (the
        # halved windows contribute as much as before, or more); a
        # convergent slow tail shows large but strictly shrinking fractions,
        # so only non-decaying growth counts toward the streak.  Divergence
        # too slow to sustain the fraction (log-like) is caught below by the
        # failure to converge within the halving budget.
        if rel > numerics.DIVERGENCE_GROWTH and rel >= 0.95 * last_rel:
            growth_streak += 1
            if growth_streak >= 2:
                return math.inf, exact
        else:
            growth_streak = 0
        last_rel = rel
        value, d = new, nd
        if abs(step) <= 1e-13 + 1e-9 * abs(new):
            converged = True
            break
    if not converged:
        return math.inf, exact
    full = q(0.0, 1.0, limit=50, points=[0.5])
    if math.isfinite(full) and abs(full - value) <= 1e-6 + 0.01 * abs(value):
        return float(full), exact
    return float(value), exact


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
    _, c = _ground(alpha, scale, prefactor)
    plan = northwest_plan(nu, mu)
    d = nu.atoms[:, None] - mu.atoms[None, :]
    return float(np.sum(plan.matrix * c(d)))


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
    if nu.support[0] < mu.support[0] - 1e-12 or nu.support[1] > mu.support[1] + 1e-12:
        return math.inf

    def delta_v(x):
        return (np.asarray(mu.potential(x), dtype=float) + mu.logZ
                - np.asarray(nu.potential(x), dtype=float) - nu.logZ)

    def integrand(x):
        return float(nu.density(x) * delta_v(np.asarray(x, dtype=float)))

    center = nu.median
    kinks = sorted(set(nu.kink_points) | set(mu.kink_points))

    def partial(T):
        a = max(nu.support[0], center - T)
        b = min(nu.support[1], center + T)
        pts = [p for p in kinks if a < p < b]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return numerics.quad(integrand, a, b, points=pts or None,
                                 epsabs=1e-11, epsrel=1e-9, limit=300)

    q25, q75 = nu.quantile(0.25), nu.quantile(0.75)
    start = max(1.0, q75 - q25)
    val, _ = numerics.guarded_limit(partial, start, rel_tol=1e-10)
    return float(val)


# ---------------------------------------------------------------------------
# inf-convolution
# ---------------------------------------------------------------------------

def inf_convolution(phi: GridFunction, alpha: CostFunction, out_grid,
                    scale: Optional[float] = None,
                    prefactor: float = 1.0) -> GridFunction:
    """Lattice inf-convolution ``Q(x) = min_y phi(y) + c(x - y)``.

    The minimum ranges over the union of ``phi``'s knots and ``out_grid``
    (with ``phi`` evaluated by its own piecewise-linear rule), which makes
    ``Q <= phi`` pointwise on the output grid.
    """
    out = np.asarray(out_grid, dtype=float)
    _, c = _ground(alpha, scale, prefactor)
    cands = np.union1d(phi.grid, out)
    pv = phi(cands)
    vals = np.empty(len(out))
    chunk = max(1, int(4e6 // max(len(cands), 1)))
    for s in range(0, len(out), chunk):
        x = out[s:s + chunk, None]
        vals[s:s + chunk] = np.min(pv[None, :] + c(x - cands[None, :]), axis=1)
    return GridFunction(out, vals)


def _stationary_offsets(alpha: CostFunction, a: float, prefactor: float,
                        u_max: float, samples: int = 513):
    """Solver for ``c'(d) = s`` with ``c(d) = prefactor * alpha(a d)``.

    Returns a function mapping an array of nonnegative slopes to a matrix of
    candidate offsets (one column per monotone branch of ``c'``).
    """
    ks = [k / a for k in alpha.kinks if 0.0 < k / a < u_max]
    edges = np.array([0.0, *ks, u_max])
    branches = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        d = np.linspace(lo, hi, samples)
        cp = prefactor * a * np.asarray(alpha.deriv(a * d), dtype=float)
        if cp[-1] - cp[0] > 1e-14:          # strictly increasing branch
            # enforce monotonicity for interpolation
            cp = np.maximum.accumulate(cp)
            branches.append((cp, d))

    def solve(slopes: np.ndarray) -> np.ndarray:
        cols = [np.interp(slopes, cp, d) for cp, d in branches]
        if not cols:
            return np.zeros((len(slopes), 1))
        return np.stack(cols, axis=1)

    return solve


class ExactInfConvolution:
    """Continuum inf-convolution of piecewise-linear potentials.

    ``q(values)`` is ``Q phi(x) = min_y phi(y) + c(x - y)`` at every query
    point for the potential taking ``values`` on the fixed ``knots`` (linear
    between them, constant beyond).  Every local minimizer of
    ``y -> phi(y) + c(x - y)`` is then a knot, an offset where ``c`` has a
    kink, or a stationary point where ``c'`` matches a segment slope.
    Enumerating those candidates gives the exact infimum, up to
    interpolation of ``c'`` on its strictly monotone branches.  The knot
    cost matrix is built once, so potentials sharing the query and knot
    arrays cost one enumeration each.
    """

    def __init__(self, query, knots, alpha: CostFunction,
                 scale: Optional[float] = None, prefactor: float = 1.0):
        a, c = _ground(alpha, scale, prefactor)
        self._c = c
        self.query = np.asarray(query, dtype=float)
        self.knots = np.asarray(knots, dtype=float)
        self.knot_cost = c(self.query[:, None] - self.knots[None, :])
        span = ((self.knots[-1] - self.knots[0])
                + (self.query.max() - self.query.min()) + 1.0)
        self._span = span
        self._solve = _stationary_offsets(alpha, a, prefactor, span)
        self._kink_offs = np.array([k / a for k in alpha.kinks], dtype=float)

    def q(self, vals: np.ndarray) -> np.ndarray:
        best = np.min(vals[None, :] + self.knot_cost, axis=1)
        slopes = np.diff(vals) / np.diff(self.knots)
        pos = np.unique(np.abs(np.concatenate(([0.0], slopes))))
        offs = np.unique(np.concatenate(
            [self._solve(pos).ravel(), self._kink_offs, [0.0]]))
        offs = offs[offs <= self._span]
        coffs = np.asarray(self._c(offs), dtype=float)
        for sign in (1.0, -1.0):
            shifted = self.query[:, None] - sign * offs[None, :]
            phi_sh = np.interp(shifted.ravel(), self.knots, vals)
            cand = phi_sh.reshape(shifted.shape) + coffs[None, :]
            best = np.minimum(best, cand.min(axis=1))
        return best


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
    pv = phi(cands)
    q = np.min(pv[None, :] + c(nu.atoms[:, None] - cands[None, :]), axis=1)
    return float(np.sum(nu.weights * q) - np.sum(mu.weights * phi(mu.atoms)))
