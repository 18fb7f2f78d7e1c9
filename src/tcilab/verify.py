"""Numerical verification of transport-entropy inequalities.

Every check in this module is one-sided by design: a clean sweep over a
finite family of test objects (bounded potentials, left rays, set pairs,
product-space measures, log-Sobolev test functions) is supporting evidence,
while a single violation beyond tolerance is a certified refutation.  All
randomized reports carry their seed so a run can be replayed bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics, transport
from .costs import CostFunction
from .criteria import _decaying_tail_integral
from .measures import DiscreteMeasure, Measure1D, _draw_blocks, _draw_inverse
from .transport import GridFunction
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict

__all__ = [
    "DualTestReport", "ConcentrationReport", "dual_check_strong",
    "integrability_check", "marton_bound_check", "tensor_check",
    "concentration_mc", "lsi_check", "tci_to_strong_cost",
    "NO_VIOLATION", "VIOLATION_FOUND", "DUAL_SLACK",
]

NO_VIOLATION = "no_violation"
VIOLATION_FOUND = "violation_found"

#: a dual product above ``1 + DUAL_SLACK`` counts as a violation.
DUAL_SLACK = 1e-6

_PHI_KNOTS = 64
_PHI_AMP = 10.0
_PHI_SLOPE = 20.0
#: the potential grid leaves this much mass uncovered (constant extension
#: takes over outside); the integration window leaves far less.
_PHI_MASS_GAP = 1e-8
_WINDOW_MASS = 1e-16
#: candidates per block of the cell bound, which keeps its temporaries small
_CELL_BLOCK = 256

_TENSOR_SLACK = 1e-7
_PRODUCT_STATE_CAP = 1296       # 6**4; largest product LP we will pose

_LSI_SLACK = 1e-8

#: inward steps of a threshold of A's level band; the first that works wins
_BAND_STEPS = np.array([0.0, 2.0 ** -40, 2.0 ** -34, 2.0 ** -28, 2.0 ** -22,
                        2.0 ** -16, 2.0 ** -10])


# ---------------------------------------------------------------------------
# dual form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualTestReport:
    """Worst case over a family of bounded potentials ``phi`` of the product
    ``int e^{Q phi} dmu * int e^{-phi} dmu`` (strong form), or with second
    factor ``exp(-int phi dmu)`` when ``plain_form`` is set.

    ``trials`` counts every potential, adversarial ones included, and
    ``screened`` those a screening bound (cell or knot tier) decided
    without the exact pass.  ``status`` is
    forced consistent with ``worst_product``.
    """

    trials: int
    worst_product: float
    worst_phi: GridFunction
    status: str
    seed: int
    worst_label: str = ""
    plain_form: bool = False
    screened: int = 0

    def __post_init__(self):
        expected = (VIOLATION_FOUND if self.worst_product > 1.0 + DUAL_SLACK
                    else NO_VIOLATION)
        if self.status != expected:
            raise ValueError(f"status {self.status!r} inconsistent with "
                             f"worst_product {self.worst_product!r}")

    @property
    def violated(self) -> bool:
        return self.status == VIOLATION_FOUND


class _DualQuadrature:
    """Fixed density-weighted nodes for the two dual integrals.

    Built once per call; every potential then reduces to weighted sums.  The
    weights are normalized so the total mass (window plus analytic tails) is
    exactly one, which makes ``phi == 0`` give the product 1.0 exactly.

    ``query`` is sorted: the window edge ``lo``, the nodes, the edge ``hi``,
    where the constant tails are evaluated.  It splits into cells: each
    edge on its own at either end, between them the nodes of each break
    cell.  A cell has mass ``cell_mass`` and lies where ``phi`` is linear
    between the knots ``cell_knots`` (one knot twice on a tail cell).
    """

    def __init__(self, mu: Measure1D, knots: np.ndarray):
        lo = min(mu.quantile(_WINDOW_MASS), knots[0] - 1.0)
        hi = max(mu.isf(_WINDOW_MASS), knots[-1] + 1.0)
        breaks = np.unique(np.concatenate([
            knots,
            np.linspace(lo, knots[0], 9),
            np.linspace(knots[-1], hi, 9),
            [k for k in mu.kink_points if lo < k < hi],
        ]))
        # 32 panels per cell keeps the corner error of the inf-convolution
        # (whose breakpoints fall inside knot cells) two orders below the
        # violation slack; measured worst relative error ~1e-8
        nodes, w = numerics.composite_gauss_nodes(breaks, order=4, panels=32)
        rho = mu.density(nodes)
        self.query = np.concatenate([[lo], nodes, [hi]])
        self.rho_w = w * rho
        self.tail_lo = mu.cdf(lo)
        self.tail_hi = mu.sf(hi)
        total = float(self.rho_w.sum()) + self.tail_lo + self.tail_hi
        self.rho_w /= total
        self.tail_lo /= total
        self.tail_hi /= total
        n = len(nodes)
        body = np.arange(0, n, n // (len(breaks) - 1))
        self.cell_starts = np.concatenate([[0], body + 1, [n + 1]])
        self.cell_mass = np.concatenate([
            [self.tail_lo], np.add.reduceat(self.rho_w, body), [self.tail_hi]])
        # the edge cells take the end knots twice
        j = np.searchsorted(knots, 0.5 * (breaks[:-1] + breaks[1:]))
        j = np.concatenate([[0], j, [len(knots)]])
        last = len(knots) - 1
        self.cell_knots = (np.clip(j - 1, 0, last), np.clip(j, 0, last))

    def exp_integral(self, v: np.ndarray) -> float:
        """``int e^{v} dmu`` from the values ``v`` at ``query``: the nodes,
        then the constant tails at the edges."""
        body = float(np.sum(self.rho_w * np.exp(v[1:-1])))
        return (body + self.tail_lo * math.exp(v[0])
                + self.tail_hi * math.exp(v[-1]))

    def mean(self, v: np.ndarray) -> float:
        return (float(np.sum(self.rho_w * v[1:-1]))
                + self.tail_lo * float(v[0]) + self.tail_hi * float(v[-1]))


def _whole(name: str, value, least: Optional[int] = None) -> int:
    """``value`` as an int >= ``least``; a fraction raises, not truncates."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and whole < least:
        raise ValueError(f"{name} must be >= {least}, got {whole}")
    return whole


def _dual_family(mu: Measure1D, trials: int, seed: int):
    """The knots and candidates ``(label, values)``, adversarial first; ramp
    corners sit on knots (the spacing is the smoothing width), so slopes
    stay within the family bound.

    The knot ends are one ``quantile`` and one ``isf`` call; one array
    ``quantile`` call over the distinct levels of the rays, wells and
    plateaus gives the knot index each of them reads."""
    knots = np.linspace(mu.quantile(_PHI_MASS_GAP / 2.0),
                        mu.isf(_PHI_MASS_GAP / 2.0), _PHI_KNOTS)
    K = _PHI_KNOTS
    idx = np.arange(K, dtype=float)
    levels = (0.1, 0.25, 0.4, 0.45, 0.5, 0.55, 0.6, 0.75, 0.9)
    at = dict(zip(levels, np.clip(np.searchsorted(knots, mu.quantile(levels)),
                                  1, K - 2).tolist()))

    out = [(f"constant_{c:+g}", np.full(K, float(c)))
           for c in (-10.0, -1.0, 0.0, 1.0, 10.0)]
    for p in (1.0, 2.0, 5.0, 10.0):
        for lev in (0.1, 0.25, 0.5, 0.75, 0.9):
            i = at[lev]
            up = p * np.clip(idx - i, 0.0, 1.0)
            out.append((f"ray_up_p{p:g}_q{lev:g}", up))
            out.append((f"ray_down_p{p:g}_q{lev:g}", p * np.clip(i - idx + 1.0, 0.0, 1.0)))
    for p in (1.0, 5.0, 10.0):
        for qa, qb in ((0.4, 0.6), (0.25, 0.75), (0.45, 0.55)):
            ia, ib = at[qa], at[qb]
            if ib <= ia:
                ib = ia + 1
            shape = np.clip(np.minimum(idx - (ia - 1), (ib + 1) - idx), 0.0, 1.0)
            out.append((f"well_p{p:g}_q{qa:g}_{qb:g}", -p * shape))
            out.append((f"plateau_p{p:g}_q{qa:g}_{qb:g}", p * shape))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    if trials:
        dx = np.diff(knots)
        slopes = rng.uniform(-_PHI_SLOPE, _PHI_SLOPE, size=(trials, K - 1))
        walks = np.empty((trials, K))
        walks[:, 0] = rng.uniform(-_PHI_AMP, _PHI_AMP, size=trials)
        for j in range(K - 1):
            # clipping only ever shortens a step, so slopes stay in bounds
            walks[:, j + 1] = np.clip(walks[:, j] + slopes[:, j] * dx[j],
                                      -_PHI_AMP, _PHI_AMP)
        out.extend((f"random_{i}", walks[i]) for i in range(trials))
    return knots, out


def _cell_bounds(quadr: _DualQuadrature, cmax: np.ndarray, values,
                 c0: float) -> np.ndarray:
    """Upper bounds on the computed dual product of each potential in
    ``values``, strong or plain form, from per-cell bounds on both factors.

    On a cell, ``Q phi <= min(min_k vals_k + cmax[k, cell], max phi + c0)``
    and ``e^{-phi} <= e^{-min phi}``, the smaller of the cell's two knot
    values.  Each factor is then at most its cell masses times those
    exponentials; by Jensen ``exp(-int phi)`` is below the second one too.
    The products are inflated by ``1e-13`` for the rounding of the
    different summation order.
    """
    a, b = quadr.cell_knots
    out = np.empty(len(values))
    for i in range(0, len(values), _CELL_BLOCK):
        vals = np.array(values[i:i + _CELL_BLOCK])
        best = vals[:, :1] + cmax[0]
        tmp = np.empty_like(best)
        for k in range(1, len(cmax)):
            np.add(vals[:, k:k + 1], cmax[k], out=tmp)
            np.minimum(best, tmp, out=best)
        np.minimum(best, vals.max(axis=1, keepdims=True) + c0, out=best)
        first = np.exp(best, out=best) @ quadr.cell_mass
        low = np.minimum(vals[:, a], vals[:, b])
        out[i:i + _CELL_BLOCK] = first * (np.exp(-low) @ quadr.cell_mass)
    return out * (1.0 + 1e-13)


def dual_check_strong(mu: Measure1D, alpha: CostFunction,
                      scale: Optional[float] = None, prefactor: float = 1.0,
                      trials: int = 200, seed: int = 0,
                      plain: bool = False) -> DualTestReport:
    """Stress-test ``int e^{Q phi} dmu * int e^{-phi} dmu <= 1``.

    ``Q phi(x) = inf_y phi(y) + prefactor * alpha(scale * (x - y))`` is
    computed exactly for each piecewise-linear candidate by one
    :class:`transport.ExactInfConvolution` built on the shared knots and
    quadrature nodes.  The family holds ``trials`` random bounded walks on a
    64-knot grid covering all but ``1e-8`` of the mass (values within +-10,
    slopes within +-20), plus adversarial candidates: constants, smoothed
    two-level ramps off a ray, and window wells/plateaus.  With
    ``plain=True`` the second factor is ``exp(-int phi dmu)`` (the weaker
    plain form).

    Screening: a candidate whose product is bounded by at most
    ``worst * (1 - 1e-12)`` cannot be the argmax and skips the exact pass
    (the margin absorbs rounding).  Two tiers, cheapest first:

    1. the cell bound of every candidate at once, before the loop: per
       quadrature cell, the knot minimum over the cell's largest knot costs
       (:meth:`transport.ExactInfConvolution.cell_max`) and the smaller of
       the two enclosing knot values of ``phi``;
    2. the exact second factor times the knot minimum at every node
       (:meth:`transport.ExactInfConvolution.knot_min`), each knot visited
       only on its band under the engine's cap, just above
       ``max phi + c(0)``.

    Both bounds on ``Q phi`` are capped (tier 1 at ``max phi + c(0)``,
    tier 2 at the engine's cap), and the exact pass lowers the banded
    minimum to the all-knot values.
    Candidates are visited best-first, in descending order of their tier-1
    bound (a stable sort, so equal bounds keep the family order; a NaN
    bound counts as ``+inf``).  The first one screened by its tier-1 bound
    ends the loop: every later bound is no larger, so all of them are
    screened unvisited.  The worst candidate is the largest product, the
    lowest family index among equal ones: the first strict argmax of the
    family order.  ``screened`` counts the candidates a tier decided; the
    rest take the exact pass.  The report is the unscreened one bit for bit
    and does not depend on the BLAS thread count; non-finite products raise.

    Random draws come from a counter-based generator keyed by ``seed``; the
    report repeats the seed and keeps the worst potential for replay.
    """
    trials = _whole("trials", trials, 0)
    c0 = float(transport._ground(alpha, scale, prefactor)[1](0.0))
    knots, candidates = _dual_family(mu, trials, seed)
    quadr = _DualQuadrature(mu, knots)
    engine = transport.ExactInfConvolution(quadr.query, knots, alpha, scale,
                                           prefactor)
    bounds = _cell_bounds(quadr, engine.cell_max(quadr.cell_starts),
                          [vals for _, vals in candidates], c0)

    def second(vals: np.ndarray) -> float:
        # the edges lie beyond the knots, where phi is vals[0] and vals[-1]
        phi = np.interp(quadr.query, knots, vals)
        if plain:
            return math.exp(-quadr.mean(phi))
        return quadr.exp_integral(-phi)

    worst, worst_vals, worst_label = -math.inf, np.zeros(_PHI_KNOTS), ""
    worst_at = len(candidates)
    screened = 0
    # a NaN bound sorts as +inf so that it is visited, never screened
    order = np.argsort(-np.where(np.isnan(bounds), math.inf, bounds),
                       kind="stable")
    for rank, i in enumerate(order):
        cut = worst * (1.0 - 1e-12)        # see the docstring
        if bounds[i] <= cut:
            screened += len(order) - rank
            break
        label, vals = candidates[i]
        factor = second(vals)
        # capped just above max phi + c(0), which keeps exp finite
        upper = engine.knot_min(vals)
        if quadr.exp_integral(upper) * factor <= cut:
            screened += 1
            continue
        p = quadr.exp_integral(engine.refine(vals, upper)) * factor
        if not math.isfinite(p):
            raise ValueError(f"non-finite dual product {p!r} of {label}")
        if p > worst or (p == worst and i < worst_at):
            worst, worst_vals, worst_label, worst_at = p, vals, label, i
    status = VIOLATION_FOUND if worst > 1.0 + DUAL_SLACK else NO_VIOLATION
    return DualTestReport(trials=len(candidates), worst_product=float(worst),
                          worst_phi=GridFunction(knots, worst_vals),
                          status=status, seed=int(seed),
                          worst_label=worst_label, plain_form=bool(plain),
                          screened=screened)


# ---------------------------------------------------------------------------
# integrability along left rays
# ---------------------------------------------------------------------------

def integrability_check(mu: Measure1D, alpha: CostFunction,
                        scale: Optional[float] = None,
                        prefactor: float = 1.0) -> Verdict:
    """Moment bounds along left rays that any strong inequality forces.

    For each ``x`` among the quantiles ``0.05, 0.15, ..., 0.95`` of ``mu``,
    with ``A = (-inf, x]``, ``F = mu(A)`` and ``g`` the ground cost of the
    distance to ``A``:

    * ray product: ``int e^{g((x'-x)+)} dmu(x') * F <= 1``;
    * residual form: the conditional moment ``int_0^inf e^{g} dmu_x^+``
      is at most ``1/F + 1`` (the same bound rearranged);
    * globally, the two-sided moment around the median is at most
      ``1/(F(m) * (1 - F(m))) - 1``.

    Any violation beyond tolerance refutes the inequality at this scale and
    prefactor, so ``fails`` is certified; ``holds`` is supporting evidence.
    Every moment, ``int_0^inf e^{g(z)} rho(x0 + side z) dz`` along the ray
    ``(x0, side)``, comes from one :func:`_decaying_tail_integral` call.
    """
    return _integrability_at(mu, _ray_anchors(mu), alpha, scale, prefactor)


def _ray_anchors(mu: Measure1D):
    """What :func:`integrability_check` reads of ``mu`` whatever the cost:
    the quantiles ``x_grid``, the median ``m``, and the lists of ``cdf``
    and ``sf`` at each of them then at ``m``, one array call each."""
    x_grid = mu.quantile(np.linspace(0.05, 0.95, 10))
    m = mu.median
    points = np.append(x_grid, m)
    return x_grid, m, mu.cdf(points).tolist(), mu.sf(points).tolist()


def _integrability_at(mu: Measure1D, anchors, alpha: CostFunction,
                      scale: Optional[float], prefactor: float) -> Verdict:
    """:func:`integrability_check` from the ``anchors`` of
    :func:`_ray_anchors`, which a scan over scales computes once."""
    x_grid, m, cdfs, sfs = anchors
    a, c = transport._ground(alpha, scale, prefactor)
    tol = 1e-9

    n = len(x_grid)
    x0 = np.concatenate((x_grid, [m, m]))
    side = np.concatenate((np.ones(n), [1.0, -1.0]))
    moments = _decaying_tail_integral(
        lambda i, z: (c(z), mu.log_density(x0[i] + side[i] * z)),
        x0, [k / a for k in alpha.kinks], mu.kink_points, side)
    rows = []
    violations = []
    for x, M, F, S in zip(x_grid, moments[:n], cdfs, sfs):
        M = float(M)
        ray = (F + M) * F
        cond = M / S if S > 0.0 else math.inf
        bound = 1.0 / F + 1.0 if F > 0.0 else math.inf
        rows.append({"x": float(x), "ray_product": ray,
                     "residual_moment": cond, "residual_bound": bound})
        if ray > 1.0 + tol:
            violations.append(f"ray product {ray:.6g} > 1 at x={x:.6g}")
        if cond > bound + tol * (1.0 + bound):
            violations.append(
                f"residual moment {cond:.6g} > {bound:.6g} at x={x:.6g}")

    Fm, Sm = cdfs[n], sfs[n]
    M_sym = float(moments[n] + moments[n + 1])
    g_bound = 1.0 / (Fm * Sm) - 1.0 if Fm > 0.0 and Sm > 0.0 else math.inf
    if M_sym > g_bound + tol * (1.0 + abs(g_bound)):
        violations.append(
            f"global moment {M_sym:.6g} > {g_bound:.6g} around the median")

    diagnostics = {"rows": rows, "global_moment": M_sym,
                   "global_bound": g_bound, "prefactor": prefactor}
    if violations:
        diagnostics["violations"] = violations
        return Verdict(FAILS, diagnostics=diagnostics)
    worst_ray = max(r["ray_product"] for r in rows)
    return Verdict(HOLDS,
                   constants={"worst_ray_product": float(worst_ray)},
                   diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# two-set bounds
# ---------------------------------------------------------------------------

def _as_intervals(spec) -> list:
    """Normalize a set given as ``(lo, hi)`` or an iterable of such pairs."""
    items = list(spec)
    if len(items) == 2 and np.isscalar(items[0]):
        items = [tuple(items)]
    out = []
    for lo, hi in items:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        out.append((lo, hi))
    out.sort()
    merged = [out[0]]
    for lo, hi in out[1:]:
        plo, phi = merged[-1]
        if lo <= phi:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _interval_mass(mu: Measure1D, lo: float, hi: float) -> float:
    """``mu([lo, hi])`` from the tail it lies in: ``cdf(hi) - cdf(lo)``
    when ``hi`` is at most the median, ``sf(lo) - sf(hi)`` when ``lo`` is
    at least the median, else ``1 - cdf(lo) - sf(hi)``.  No difference
    then cancels across the median, and at +-inf cdf and sf are exactly 0
    or 1."""
    m = mu.median
    if hi <= m:
        return mu.cdf(hi) - mu.cdf(lo)
    if lo >= m:
        return mu.sf(lo) - mu.sf(hi)
    return 1.0 - mu.cdf(lo) - mu.sf(hi)


def _set_mass(mu: Measure1D, intervals) -> float:
    return sum(_interval_mass(mu, lo, hi) for lo, hi in intervals)


def _set_gap(A, B) -> float:
    return min(max(blo - ahi, alo - bhi, 0.0)
               for alo, ahi in A for blo, bhi in B)


def marton_bound_check(mu: Measure1D, cost: CostFunction, set_pairs,
                       scale: Optional[float] = None,
                       prefactor: float = 1.0) -> Verdict:
    """Two-set bound ``c(A, B) <= -log mu(A) - log mu(B)``.

    Sets are finite unions of intervals; since the ground cost is
    nondecreasing in the distance, ``c(A, B)`` is the cost of the smallest
    endpoint gap, which is exact.  A zero-mass set is rejected.
    """
    a, c = transport._ground(cost, scale, prefactor)
    rows = []
    violations = []
    for A_spec, B_spec in set_pairs:
        A, B = _as_intervals(A_spec), _as_intervals(B_spec)
        mA, mB = _set_mass(mu, A), _set_mass(mu, B)
        if mA <= 0.0 or mB <= 0.0:
            raise ValueError("set pair includes a zero-mass set")
        gap = _set_gap(A, B)
        lhs = float(c(gap))
        rhs = -math.log(mA) - math.log(mB)
        rows.append({"gap": gap, "cost": lhs, "bound": rhs,
                     "mass_a": mA, "mass_b": mB})
        if lhs > rhs + 1e-9:
            violations.append(f"cost {lhs:.6g} > bound {rhs:.6g} "
                              f"(gap {gap:.6g})")
    diagnostics = {"rows": rows}
    if violations:
        diagnostics["violations"] = violations
        return Verdict(FAILS, diagnostics=diagnostics)
    return Verdict(HOLDS, constants={"pairs_checked": float(len(rows))},
                   diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# tensorization at small n
# ---------------------------------------------------------------------------

def _product_weights(weight_vectors) -> np.ndarray:
    W = np.asarray(weight_vectors[0], dtype=float)
    for w in weight_vectors[1:]:
        W = (W[:, None] * np.asarray(w, dtype=float)[None, :]).ravel()
    return W


def _product_cost(c1: np.ndarray, n: int) -> np.ndarray:
    C = c1
    k = c1.shape[0]
    for _ in range(n - 1):
        S = C.shape[0]
        C = (C[:, None, :, None] + c1[None, :, None, :]).reshape(S * k, S * k)
    return C


def tensor_check(mu_discrete: DiscreteMeasure, cost: CostFunction, n: int,
                 trials: int = 200, seed: int = 0,
                 scale: Optional[float] = None,
                 prefactor: float = 1.0) -> Verdict:
    """Product-space transport versus summed entropy at small dimension.

    States are ``n``-tuples of atoms with the coordinate-sum cost; for each
    random ``nu`` the exact product LP value is compared against
    ``H(nu | mu^n)``, and against ``H(nu | mu^n) + H(beta | mu^n)`` for a
    second random ``beta`` (the two-measure form).  The deterministic first
    candidate is ``nu = mu^n`` (both sides zero).  Worst slack
    ``transport - entropy`` is reported; beyond ``1e-7`` the check fails.
    The independent coupling is a feasible plan, so transport is at most
    ``U = nu.C.beta`` and a pair's LP is posed only when ``U - entropy + tol
    > worst`` (``tol`` bounds the LP's reported error; ``mu^n`` always takes
    its LP).  A skipped LP could not raise the worst slack, so the verdict
    is that of the unscreened loop bit for bit.
    """
    trials = _whole("trials", trials, 0)
    k = len(mu_discrete)
    n = _whole("n", n)
    if k > 12:
        raise ValueError("state-space cap exceeded: at most 12 atoms")
    if not 2 <= n <= 4:
        raise ValueError("dimension must be between 2 and 4")
    n_states = k ** n
    if n_states > _PRODUCT_STATE_CAP:
        raise ValueError(f"state-space cap exceeded: {k}^{n} = {n_states} "
                         f"> {_PRODUCT_STATE_CAP}")

    c1 = transport.cost_matrix(mu_discrete, mu_discrete, cost,
                               scale=scale, prefactor=prefactor)
    C = _product_cost(c1, n)
    labels = np.arange(n_states, dtype=float)
    W = _product_weights([mu_discrete.weights] * n)
    mu_prod = DiscreteMeasure(labels, W / W.sum())

    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    def random_measure() -> DiscreteMeasure:
        w = np.clip(rng.dirichlet(np.ones(n_states)), 1e-300, None)
        return DiscreteMeasure(labels, w / w.sum())

    worst = -math.inf
    worst_case = ""
    pairs = [("mu_n", mu_prod, None)]
    pairs += [(f"trial_{i}", random_measure(), random_measure())
              for i in range(trials)]
    # HiGHS's plan meets its 2 * n_states marginals to 1e-10 and is optimal
    # to 1e-10 against their independent coupling, so the value it reports
    # exceeds U by at most (1 + 6 * n_states * max|C|) * 1e-10; tol is over
    # three times that, float sums of U included.  A nan bound poses the LP.
    tol = 1e-9 * (1.0 + 2 * n_states * float(np.abs(C).max()))
    for name, nu, beta in pairs:
        H = transport.relative_entropy(nu, mu_prod)
        nu_c = nu.weights @ C
        if not nu_c @ mu_prod.weights - H + tol <= worst:
            T, _ = transport.cost_lp(nu, mu_prod, C,
                                     max_atoms=_PRODUCT_STATE_CAP)
            slack = T - H
            if slack > worst:
                worst, worst_case = slack, f"{name}:plain"
        if beta is not None:
            H2 = transport.relative_entropy(beta, mu_prod)
            if not nu_c @ beta.weights - H - H2 + tol <= worst:
                T2, _ = transport.cost_lp(nu, beta, C,
                                          max_atoms=_PRODUCT_STATE_CAP)
                slack2 = T2 - H - H2
                if slack2 > worst:
                    worst, worst_case = slack2, f"{name}:two_measure"
    diagnostics = {"worst_slack": float(worst), "worst_case": worst_case,
                   "states": n_states, "seed": int(seed)}
    if worst > _TENSOR_SLACK:
        return Verdict(FAILS, diagnostics=diagnostics)
    return Verdict(HOLDS, constants={"trials": float(len(pairs))},
                   diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Monte Carlo concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical enlargement mass against the ``1 - e^{-r}/mu^n(A)`` bound.

    One row per ``r``: empirical fraction, 99% Wilson interval, bound.  The
    verdict fails only where the bound exceeds the upper confidence limit.
    """

    r_grid: np.ndarray
    empirical: np.ndarray
    lower_ci: np.ndarray
    upper_ci: np.ndarray
    bound: np.ndarray
    mass_a: float
    n: int
    samples: int
    seed: int
    verdict: Verdict

    def rows(self):
        return [{"r": float(r), "empirical": float(e), "lower_ci": float(l),
                 "upper_ci": float(u), "bound": float(b)}
                for r, e, l, u, b in zip(self.r_grid, self.empirical,
                                         self.lower_ci, self.upper_ci,
                                         self.bound)]


def _inside_levels(mu: Measure1D, lo: float, hi: float):
    """Levels ``(t_lo, t_hi)``: a draw's clipped uniform level strictly
    between them maps into ``[lo, hi]``.

    Each threshold starts at the cdf of its end of A and steps inward by
    ``_BAND_STEPS`` until the draw's own inverse
    (:func:`measures._draw_inverse`) of the clipped threshold lies in A,
    inside by 1e-9 of its size, which covers the rounding of the monotone
    inverse.  A side where no step does gets a threshold that no level
    passes, so nothing is skipped: a cdf that rounds to 1 at ``lo`` (or to
    0 at ``hi``) skips no coordinate.
    """
    def threshold(end: float, sign: float) -> float:
        t = mu.cdf(end) + sign * _BAND_STEPS
        x = _draw_inverse(mu, np.clip(t, 1e-16, 1.0 - 1e-16))
        ok = np.isfinite(x) & (sign * (x - end) >= 1e-9 * np.abs(x))
        return float(t[np.argmax(ok)]) if ok.any() else sign * math.inf

    return threshold(lo, 1.0), threshold(hi, -1.0)


def concentration_mc(mu: Measure1D, alpha: CostFunction,
                     scale: Optional[float] = None,
                     A=(0.0, math.inf), n: int = 1, r_grid=None,
                     samples: int = 100000, seed: int = 0,
                     prefactor: float = 1.0) -> ConcentrationReport:
    """Monte Carlo check of ``mu^n(A_c^r) >= 1 - e^{-r} / mu^n(A)``.

    ``A`` is one interval applied to every coordinate.  Membership in the
    enlargement is exact: with the ground cost nondecreasing in distance,
    a point belongs to ``A_c^r`` iff the per-coordinate distances ``d_i``
    to the interval satisfy ``sum_i g(d_i) <= r`` -- no inner optimization.
    ``r_grid`` must be nonempty, 1-D and finite.  The draw of ``sample(mu,
    (samples, n), seed)`` is streamed and counted in blocks of rows: memory
    is O(block * n), not O(samples * n), and the curve is the same bits.
    Only the coordinates drawn outside A are evaluated: a uniform level
    strictly inside A's level band (:func:`_inside_levels`) maps into A, so
    its cost is ``c(0)``, and only the other levels go through the inverse
    cdf, the distance and the cost.
    """
    n = _whole("n", n, 1)
    samples = _whole("samples", samples, 1)
    a, c = transport._ground(alpha, scale, prefactor)
    lo, hi = float(A[0]), float(A[1])
    if not lo < hi:
        raise ValueError("A must be a nonempty interval")
    if r_grid is None:
        r_grid = np.arange(0.5, 6.001, 0.5)
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or not r_grid.size or not np.isfinite(r_grid).all():
        raise ValueError(f"r_grid must be nonempty, 1-D and finite: {r_grid}")

    mass1 = _interval_mass(mu, lo, hi)
    mass_n = mass1 ** n

    t_lo, t_hi = _inside_levels(mu, lo, hi)
    inside_cost = float(c(np.zeros(1))[0])
    counts = np.zeros(r_grid.size, dtype=np.int64)
    for u in _draw_blocks(mu, samples, n, seed):
        # flat indices: a boolean gather and scatter cost twice as much
        out = np.flatnonzero((u <= t_lo) | (u >= t_hi))
        X = _draw_inverse(mu, u.take(out))
        C = np.full(u.size, inside_cost)
        C[out] = c(np.maximum(np.maximum(lo - X, X - hi), 0.0))
        costs = np.sort(C.reshape(u.shape).sum(axis=1))
        counts += np.searchsorted(costs, r_grid, side="right")
    emp = counts / float(samples)

    lower, upper = numerics.wilson_interval(emp, samples)
    bound = 1.0 - np.exp(-r_grid) / mass_n if mass_n > 0.0 \
        else np.full_like(r_grid, -math.inf)

    if mass_n < 10.0 / samples:
        verdict = Verdict(INCONCLUSIVE, diagnostics={
            "reason": f"mu^n(A) = {mass_n:.3e} too small to estimate "
                      f"with {samples} samples", "seed": int(seed)})
    else:
        bad = np.nonzero(bound > upper)[0]
        if len(bad):
            verdict = Verdict(FAILS, diagnostics={
                "violations": [
                    f"bound {bound[i]:.6g} > upper CI {upper[i]:.6g} "
                    f"at r={r_grid[i]:g}" for i in bad],
                "seed": int(seed)})
        else:
            verdict = Verdict(HOLDS,
                              constants={"samples": float(samples)},
                              diagnostics={"seed": int(seed),
                                           "mass_a_n": mass_n})
    return ConcentrationReport(r_grid=r_grid, empirical=emp, lower_ci=lower,
                               upper_ci=upper, bound=bound, mass_a=mass_n,
                               n=n, samples=samples, seed=int(seed),
                               verdict=verdict)


# ---------------------------------------------------------------------------
# modified log-Sobolev
# ---------------------------------------------------------------------------

def _soft_clamp(L: float, w: float):
    """Odd C1 clamp: identity on [-L, L], constant beyond L + w."""

    def s(x):
        u = np.minimum(np.abs(x) - L, w)
        return np.where(np.abs(x) <= L, x,
                        np.copysign(L + u - u * u / (2.0 * w), x))

    def ds(x):
        return np.clip(1.0 - (np.abs(x) - L) / w, 0.0, 1.0)

    return s, ds


def _bump(u):
    """``exp(1 - 1/(1 - u^2))`` for ``|u| < 1 - 1e-12``, else 0, and its
    derivative."""
    inside = np.abs(u) < 1.0 - 1e-12
    t = np.where(inside, 1.0 - u * u, 1.0)
    b = np.where(inside, np.exp(1.0 - 1.0 / t), 0.0)
    return b, b * (-2.0 * u / (t * t))


def _lsi_builtins(mu: Measure1D):
    """Fifty positive C1 test functions with compactly supported derivative:
    smoothly truncated exponential tilts, bump perturbations (up and down),
    smooth steps, and constants.  Each ``f`` and ``f'`` maps an array of
    points to an array of values."""
    m = mu.median
    q25, q75 = mu.quantile(0.25), mu.quantile(0.75)
    sig = max((q75 - q25) / 1.349, 1e-3)
    L = max(abs(mu.quantile(1e-6) - m), abs(mu.isf(1e-6) - m)) + sig
    w = sig
    s, ds = _soft_clamp(L, w)
    entries = []

    def add_tilt(theta: float):
        def f(x, th=theta):
            return np.exp(0.5 * th * s(x - m))

        def df(x, th=theta):
            return 0.5 * th * ds(x - m) * f(x)

        pts = (m - L - w, m - L, m + L, m + L + w)
        entries.append((f"tilt_{theta:+g}", f, df, pts))

    for theta in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        add_tilt(theta)
        add_tilt(-theta)

    def add_bump(eps: float, center: float, width: float, tag: str):
        def f(x, e=eps, c=center, h=width):
            return 1.0 + e * _bump((x - c) / h)[0]

        def df(x, e=eps, c=center, h=width):
            return e * _bump((x - c) / h)[1] / h

        entries.append((tag, f, df, (center - width, center + width)))

    i = 0
    for eps in (0.5, 0.05, 0.005):
        for center in (m - sig, m, m + sig):
            for width in (sig, 0.5 * sig):
                add_bump(eps, center, width, f"bump_{i}")
                i += 1
    for eps, width in ((-0.4, sig), (-0.4, 0.5 * sig),
                       (-0.04, sig), (-0.04, 0.5 * sig)):
        add_bump(eps, m, width, f"dip_{i}")
        i += 1

    def add_step(lo_v: float, hi_v: float, center: float, tag: str):
        half = 0.5 * sig

        def f(x, a=lo_v, b=hi_v, c=center, h=half):
            u = np.clip((x - c) / (2.0 * h) + 0.5, 0.0, 1.0)
            return a + (b - a) * u * u * (3.0 - 2.0 * u)

        def df(x, a=lo_v, b=hi_v, c=center, h=half):
            u = np.clip((x - c) / (2.0 * h) + 0.5, 0.0, 1.0)
            return (b - a) * 6.0 * u * (1.0 - u) / (2.0 * h)

        entries.append((tag, f, df, (center - half, center + half)))

    j = 0
    for lo_v, hi_v in ((1.0, 2.0), (2.0, 1.0), (1.0, 1.2), (1.2, 1.0)):
        for center in (m - sig, m, m + sig):
            add_step(lo_v, hi_v, center, f"step_{j}")
            j += 1

    for label, c in (("constant_1", 1.0), ("constant_e", math.e)):
        entries.append((label, lambda x, c=c: np.full(np.shape(x), c),
                        lambda x: np.zeros(np.shape(x)), ()))
    return entries


#: equal cells of the lsi integration window, before the corner points
_LSI_CELLS = 32


def _on(fn, x):
    """``fn(x)`` as a float array of the shape of ``x`` (scalars broadcast)."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))


def _lsi_integrals(mu: Measure1D, beta_fn, t: float, family):
    """For every ``(f, f', edges)`` of ``family``: ``int f^2``,
    ``int f^2 log f^2`` and ``int beta(t f'/f) f^2`` over ``mu`` restricted
    to ``[edges[0], edges[-1]]``, as one row of a ``(len(family), 3)`` table.

    All of them are the owners ``3 k + j`` (function k, integral j) of one
    owner-mode :func:`numerics.gauss_kronrod_cells` call on the cells of each
    function's ``edges`` (targets 1e-13 abs / 1e-12 rel per cell).  Each
    round calls every ``f`` and ``f'`` once on its own rows, the density once
    and ``beta`` once on the rows of all third integrals.  Cells, rules and
    the owner cap act row by row, and the owners keep their cells in order,
    so each row is the one the function gets alone, bit for bit.
    """

    def integrand(x, owner):
        fn_of, integral = np.divmod(owner[:, 0], 3)
        fx, dfx = np.empty(x.shape), np.empty(x.shape)
        for k, (f, df, _) in enumerate(family):
            rows = fn_of == k
            if rows.any():
                fx[rows], dfx[rows] = _on(f, x[rows]), _on(df, x[rows])
        f2 = fx * fx * mu.density(x)
        out = np.where((integral == 1)[:, None], f2 * np.log(fx * fx), f2)
        third = integral == 2
        if third.any():
            bx = np.asarray(beta_fn(t * dfx[third] / fx[third]), dtype=float)
            # 0 * inf is 0: a slope cap where the weight underflows
            out[third] *= np.where(out[third] > 0.0, bx, 0.0)
        return out

    lo = np.concatenate([np.tile(e[:-1], 3) for _, _, e in family])
    hi = np.concatenate([np.tile(e[1:], 3) for _, _, e in family])
    owner = np.concatenate([np.repeat(np.arange(3 * k, 3 * k + 3), len(e) - 1)
                            for k, (_, _, e) in enumerate(family)])
    with np.errstate(invalid="ignore"):     # an inf cell has a nan error
        owner, val = numerics.gauss_kronrod_cells(integrand, (lo, hi), 1e-13,
                                                  1e-12, owner=owner)
    return np.bincount(owner, weights=val,
                       minlength=3 * len(family)).reshape(-1, 3)


def lsi_check(mu: Measure1D, beta, C: float, t: float,
              test_family=None) -> Verdict:
    """Modified log-Sobolev test ``Ent(f^2) <= C int beta(t f'/f) f^2 dmu``.

    ``beta`` is a callable profile (a ``CostFunction`` works too); the test
    family defaults to the fifty built-ins of :func:`_lsi_builtins`, or pass
    a nonempty list of ``(label, f, f', corner_points)`` tuples.  ``f``,
    ``f'`` and ``beta`` are called on numpy arrays of points; a scalar
    result is broadcast.  ``C`` and ``t`` must be finite and positive, and
    every ``f`` strictly positive on its integration window; all of this is
    checked before any integral, else ``ValueError``, which a ``nan``
    entropy or right-hand side also raises.  An infinite right-hand side (a
    slope-capped ``beta``) passes.  The window runs from the ``1e-12``
    quantile to the ``1e-12`` upper quantile, widened to 1 beyond every
    corner point, and is cut into ``_LSI_CELLS`` equal cells and at the
    corners; the whole family is integrated together by
    :func:`_lsi_integrals`.  A margin above ``1e-8`` on any test function
    fails the check.
    """
    beta_fn = beta.fn if isinstance(beta, CostFunction) else beta
    C, t = float(C), float(t)
    if not (0.0 < C < math.inf and 0.0 < t < math.inf):
        raise ValueError("C and t must be finite and positive")
    family = []
    for entry in (test_family if test_family is not None else _lsi_builtins(mu)):
        if len(entry) == 3:
            label, f, df = entry
            pts = ()
        else:
            label, f, df, pts = entry
        family.append((str(label), f, df, tuple(float(p) for p in pts)))
    if not family:
        raise ValueError("the test family is empty")

    w_lo = mu.quantile(1e-12)
    w_hi = mu.isf(1e-12)
    windows = []
    for label, f, df, pts in family:
        a = min([w_lo] + [p - 1.0 for p in pts])
        b = max([w_hi] + [p + 1.0 for p in pts])
        if not np.all(_on(f, np.linspace(a, b, 1024)) > 0.0):
            raise ValueError(f"test function {label} is not strictly "
                             "positive on the integration window")
        windows.append((f, df, np.union1d(np.linspace(a, b, _LSI_CELLS + 1),
                                          [p for p in pts if a < p < b])))

    rows = []
    violations = []
    for (label, *_), (i1, i2, i3) in zip(
            family, _lsi_integrals(mu, beta_fn, t, windows)):
        ent = float(i2 - i1 * math.log(i1))
        rhs = float(C * i3)
        if math.isnan(ent) or math.isnan(rhs):
            raise ValueError(f"test function {label} gives Ent {ent!r} and "
                             f"rhs {rhs!r}; nan cannot be checked")
        margin = ent - rhs
        rows.append({"label": label, "entropy": ent, "rhs": rhs,
                     "margin": margin})
        if margin > _LSI_SLACK:
            violations.append(f"{label}: Ent {ent:.6g} > rhs {rhs:.6g}")

    diagnostics = {"rows": rows, "family_size": len(family)}
    if violations:
        diagnostics["violations"] = violations
        return Verdict(FAILS, diagnostics=diagnostics)
    return Verdict(HOLDS, constants={"C": C, "t": t},
                   diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# plain-to-strong cost doubling
# ---------------------------------------------------------------------------

def tci_to_strong_cost(theta: CostFunction) -> CostFunction:
    """Halved-argument doubling ``x -> 2 theta(x/2)``.

    For convex ``theta`` with ``theta(0) = 0`` the result is dominated by
    ``theta`` itself.  The output generally leaves the normalized admissible
    class (it no longer matches ``t^2`` near the origin).  Nonconvex input
    is rejected.
    """
    if not theta.convex:
        raise ValueError("requires a convex cost profile")

    def fn(x, base=theta.fn):
        return 2.0 * np.asarray(base(np.asarray(x, dtype=float) / 2.0),
                                dtype=float)

    def deriv(x, base=theta.deriv):
        return np.asarray(base(np.asarray(x, dtype=float) / 2.0), dtype=float)

    def inv(sv, base=theta.inverse):
        return 2.0 * np.asarray(base(np.asarray(sv, dtype=float) / 2.0),
                                dtype=float)

    return CostFunction(name=f"doubled_{theta.name}", fn=fn, deriv=deriv,
                        inverse=inv, convex=True,
                        kinks=tuple(2.0 * k for k in theta.kinks))
