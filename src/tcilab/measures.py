"""Probability measures on the real line given by a density potential.

A measure is represented by ``dmu = exp(-V(x) - logZ) dx`` on its support.
Built-ins (two-sided exponential, exponential-power family, Gaussian, Cauchy,
one-sided exponential) carry closed-form cdf / survival / quantile functions.
Only the Gaussian and the exponential-power law need ``scipy.special``; they
import it when they are built, so the module itself loads numpy only.
Measures built from a raw potential or a tabulated one carry a cell table
instead: a partition of the mass window whose cells hold their Gauss-Kronrod
masses, so cdf and sf are a table lookup plus one 15-point rule on the
partial cell, and quantile and isf invert those by the safeguarded Newton
steps of :func:`numerics.monotone_root`, all evaluated on whole arrays at
once.

All objects are immutable after construction and all randomness is confined
to :func:`sample`, which takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .verdict import Verdict, HOLDS, FAILS

__all__ = [
    "Measure1D", "DiscreteMeasure", "ResidualDistribution",
    "make_builtin", "make_from_potential", "make_from_table",
    "residual", "stochastically_dominated", "is_log_concave",
    "sample", "quantile_discretize",
]

_QUANTILE_TOL = 1e-13          # |F(x) - t| target for numeric quantiles
_ISF_RTOL = 1e-12              # |S(x) - s| / s target for numeric isf
_DRAW_BLOCK = 1 << 14          # values per block of a streamed draw


class Measure1D:
    """Absolutely continuous probability measure ``exp(-V - logZ) dx``.

    Parameters
    ----------
    potential : callable
        Vectorized potential ``V``; the *normalized* density is
        ``exp(-V(x) - logZ)``.
    logZ : float
        Log normalizer so that the density integrates to one.
    support : pair of floats
        Interval carrying the mass; infinite endpoints allowed.
    cdf, sf, quantile_fn, isf_fn : callables, optional
        Closed forms of the cdf, the survival function, the quantile and the
        upper-tail quantile (the inverse of ``sf``), each mapping a flat
        float array to an array of its length.  Give all four, or none:
        then the measure must carry a cell table (built by
        :func:`make_from_potential` / :func:`make_from_table`).  At +-inf
        cdf and sf must give exactly 0 or 1: the verifiers take the mass of
        an interval with an infinite end straight from them.
    potential_deriv : callable, optional
        ``V'`` where available; numeric central differences otherwise.
    kink_points : tuple
        Locations where the density is not smooth; quadrature grids place
        segment boundaries there.
    median : float, optional
        The median; ``quantile(0.5)`` when omitted.

    Numeric measures expose their cell table as ``grid`` (cell edges, which
    bound the mass window), ``F_grid`` (cdf at the edges, 0 to 1) and the
    matching survival values; outside the window cdf and sf are 0 or 1.

    Every evaluator (``cdf``, ``sf``, ``quantile``, ``isf``, ``log_density``
    and ``density``) has one path, :func:`_shaped`: the argument is
    flattened, the array form (closed form or cell table, chosen at call
    time) runs once, and the result takes the argument's shape.  A scalar
    is a length-one array and comes back as a float, so it equals the
    element of an array call bit for bit.
    """

    def __init__(self, potential, logZ, support=(-math.inf, math.inf),
                 name="measure", cdf=None, sf=None, quantile_fn=None,
                 isf_fn=None, potential_deriv=None, kink_points=(),
                 median=None, _table=None):
        self.potential = potential
        self.logZ = float(logZ)
        self.support = (float(support[0]), float(support[1]))
        self.name = name
        self._cdf = cdf
        self._sf = sf
        self._quantile = quantile_fn
        self._isf = isf_fn
        self.potential_deriv = potential_deriv
        self.kink_points = tuple(kink_points)
        self._table = _table  # (grid, F_grid, S_grid) for numeric measures
        forms = (("cdf", cdf), ("sf", sf), ("quantile_fn", quantile_fn),
                 ("isf_fn", isf_fn))
        missing = [k for k, fn in forms if fn is None]
        if self._table is None and missing:
            raise ValueError(
                "a measure without a cell table needs all of cdf, sf, "
                f"quantile_fn and isf_fn; missing {', '.join(missing)} "
                "(numeric measures are built by make_from_potential / "
                "make_from_table)")
        if self._table is not None:
            self.grid, self.F_grid, self._S_grid = self._table
        self.median = float(median) if median is not None else self.quantile(0.5)

    # -- evaluators: one path each, through _shaped ------------------------
    def log_density(self, x):
        return _shaped(self._log_density, x)

    def density(self, x):
        return _shaped(self._density, x)

    def cdf(self, x):
        return _shaped(self._cdf or self._table_cdf, x)

    def sf(self, x):
        """Survival function, computed upper-tail-first for accuracy."""
        return _shaped(self._sf or self._table_sf, x)

    def quantile(self, t):
        return _shaped(self._quantile or self._table_quantile, t)

    def isf(self, s):
        """Upper-tail quantile: the x with ``sf(x) = s``.

        Unlike ``quantile(1 - s)`` this stays accurate when ``s`` is many
        orders of magnitude below 1.
        """
        return _shaped(self._isf or self._table_isf, s)

    # -- flat float arrays in and out ---------------------------------------
    def _log_density(self, x):
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        safe = np.where(inside, x, 0.5 * (max(lo, -1e300) + min(hi, 1e300)))
        return np.where(inside, -np.asarray(self.potential(safe), dtype=float)
                        - self.logZ, -np.inf)

    def _density(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self._log_density(x))

    # -- cell table (numeric measures) -------------------------------------
    def _table_cdf(self, x):
        """``F[k] + int_{g_k}^x rho`` on the cell ``g_k <= x < g_{k+1}``."""
        g = self.grid
        xc = np.clip(x, g[0], g[-1])
        k = np.clip(np.searchsorted(g, xc, side="right") - 1, 0, len(g) - 2)
        part, _ = numerics.gauss_kronrod(self.density, g[k], xc)
        out = self.F_grid[k] + part
        out = np.where(x >= g[-1], 1.0, out)
        return np.clip(out, 0.0, 1.0)

    def _table_sf(self, x):
        """``S[k+1] + int_x^{g_{k+1}} rho`` on the cell ``g_k < x <= g_{k+1}``."""
        g = self.grid
        xc = np.clip(x, g[0], g[-1])
        k1 = np.clip(np.searchsorted(g, xc, side="left"), 1, len(g) - 1)
        part, _ = numerics.gauss_kronrod(self.density, xc, g[k1])
        out = self._S_grid[k1] + part
        out = np.where(x <= g[0], 1.0, out)
        return np.clip(out, 0.0, 1.0)

    def _table_quantile(self, t):
        if not np.all((t > 0.0) & (t < 1.0)):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        g, F = self.grid, self.F_grid
        # F[k] <= t < F[k+1], and the table cdf hits F exactly at the edges
        k = np.searchsorted(F, t, side="right") - 1
        return numerics.monotone_root(self._table_cdf, t, g[k], g[k + 1],
                                      _QUANTILE_TOL, self.density,
                                      np.interp(t, F, g))

    def _table_isf(self, s):
        if not np.all((s > 0.0) & (s < 1.0)):
            raise ValueError("survival level must lie strictly inside (0, 1)")
        g, S = self.grid, self._S_grid
        # S[k] >= s > S[k+1]
        k = np.searchsorted(-S, -s, side="right") - 1
        # sf falls: solve -sf(x) = -s, whose slope is the density
        return numerics.monotone_root(lambda x: -self._table_sf(x), -s,
                                      g[k], g[k + 1], _ISF_RTOL * s,
                                      self.density, np.interp(-s, -S, g))

    def __repr__(self):
        return f"Measure1D({self.name})"


def _shaped(fn, x):
    """``fn`` (flat float array in, array of the same length out) applied to
    scalar or array ``x``: the argument is flattened, ``fn`` runs once, and
    the result takes the argument's shape.  A scalar is a length-one array
    and comes back as a Python float, so scalar and array calls agree bit
    for bit.
    """
    xa = np.asarray(x, dtype=float)
    out = fn(xa.ravel())
    return out.reshape(xa.shape) if xa.ndim else float(out[0])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure with strictly increasing atom locations."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise ValueError("atoms and weights must be 1D arrays of equal length")
        if len(atoms) == 0:
            raise ValueError("a discrete measure needs at least one atom")
        for name, arr in (("atoms", atoms), ("weights", weights)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(atoms) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one within 1e-12")

    def __len__(self):
        return len(self.atoms)


@dataclass(frozen=True)
class ResidualDistribution:
    """Law of the overshoot ``X - x`` given ``X >= x`` (side ``'plus'``) or of
    the undershoot ``x - X`` given ``X <= x`` (side ``'minus'``)."""

    base: Measure1D
    anchor: float
    side: str
    conditioning_mass: float = field(init=False)

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        mass = (self.base.sf(self.anchor) if self.side == "plus"
                else self.base.cdf(self.anchor))
        if not mass > 0.0:
            raise ValueError("conditioning event has zero mass")
        object.__setattr__(self, "conditioning_mass", float(mass))

    def tail(self, h):
        """P(residual >= h); vectorized, equals 1 for h <= 0."""
        return _shaped(self._tail, h)

    def _tail(self, h):
        hp = np.maximum(h, 0.0)
        if self.side == "plus":
            out = self.base.sf(self.anchor + hp) / self.conditioning_mass
        else:
            out = self.base.cdf(self.anchor - hp) / self.conditioning_mass
        return np.minimum(out, 1.0)


# ---------------------------------------------------------------------------
# built-in measures
# ---------------------------------------------------------------------------

def _exponential_symmetric():
    log2 = math.log(2.0)

    # One exp or log per element, and no select on the inverses' logs
    # (np.where over random draws costs as much as the log).  They take the
    # log of the branch that applies, log(2 min(t, 1 - t)) (1 - t is exact
    # where it is the smaller), and its sign from copysign; the level 1/2
    # gives -0.0, as -log(1) does.

    def cdf(x):
        half = 0.5 * np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 - half, half)

    def sf(x):
        return cdf(-x)

    def quantile(t):
        log = np.log(2.0 * np.minimum(t, 1.0 - t))
        return log * np.copysign(1.0, -(t - 0.5))

    def isf(s):
        log = np.log(2.0 * np.minimum(s, 1.0 - s))
        return log * np.copysign(1.0, -(0.5 - s))

    return Measure1D(lambda x: np.abs(x), log2, name="exponential_symmetric",
                     cdf=cdf, sf=sf, quantile_fn=quantile, isf_fn=isf,
                     potential_deriv=np.sign, kink_points=(0.0,), median=0.0)


def _finite(name, value):
    """``value`` as a float; ``ValueError`` naming ``name`` if nan or inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _gaussian(sigma=1.0, mean=0.0):
    s, m = _finite("sigma", sigma), _finite("mean", mean)
    if s <= 0:
        raise ValueError("sigma must be positive")
    from scipy import special

    label = f"gaussian(sigma={s:g})" if m == 0.0 else \
        f"gaussian(sigma={s:g},mean={m:g})"
    return Measure1D(lambda x: (np.asarray(x, dtype=float) - m) ** 2 / (2.0 * s * s),
                     math.log(s * math.sqrt(2.0 * math.pi)),
                     name=label,
                     cdf=lambda x: special.ndtr((x - m) / s),
                     sf=lambda x: special.ndtr(-(x - m) / s),
                     quantile_fn=lambda t: m + s * special.ndtri(t),
                     isf_fn=lambda u: m - s * special.ndtri(u),
                     potential_deriv=lambda x: (np.asarray(x, dtype=float) - m) / (s * s),
                     median=m)


def _cauchy():
    def sf(x):
        # stable at both ends: arctan(1/x)/pi for x>0, 1 - arctan(1/|x|)/pi for x<0
        with np.errstate(divide="ignore"):
            inv = np.where(x != 0.0, 1.0 / x, np.inf)
        pos = np.arctan(inv) / math.pi
        return np.where(x > 0, pos, np.where(x < 0, 1.0 + pos, 0.5))

    def isf(s):
        with np.errstate(divide="ignore"):
            # cot(pi s); mirror through 1-s (exact for s >= 1/2) at the left
            right = 1.0 / np.tan(math.pi * np.minimum(s, 0.5))
            left = -1.0 / np.tan(math.pi * (1.0 - np.maximum(s, 0.5)))
        return np.where(s <= 0.5, right, left)

    return Measure1D(lambda x: np.log1p(np.asarray(x, dtype=float) ** 2),
                     math.log(math.pi), name="cauchy",
                     cdf=lambda x: sf(-x), sf=sf,
                     quantile_fn=lambda t: np.tan(math.pi * (t - 0.5)),
                     isf_fn=isf,
                     potential_deriv=lambda x: 2.0 * x / (1.0 + x * x),
                     median=0.0)


def _exp_power(p):
    p = _finite("p", p)
    if p < 0.5:
        raise ValueError("exp_power exponent must be >= 0.5")
    from scipy import special

    inv_p = 1.0 / p
    logZ = math.log(2.0) + math.lgamma(1.0 + inv_p)

    def cdf(x):
        # the lower tail is half the upper incomplete gamma: 0.5 - 0.5
        # gammainc cancels once gammainc is within an ulp of 1
        u = np.abs(x) ** p
        return np.where(x >= 0, 0.5 + 0.5 * special.gammainc(inv_p, u),
                        0.5 * special.gammaincc(inv_p, u))

    def sf(x):
        return cdf(-x)

    def isf(s):
        tail = np.where(s <= 0.5, s, 1.0 - s)
        body = special.gammainccinv(inv_p, 2.0 * tail) ** inv_p
        return np.where(s <= 0.5, body, -body)

    def quantile(t):
        # the lower half mirrors isf: 1 - 2t would round away a small t
        body = special.gammaincinv(inv_p, np.abs(2.0 * t - 1.0)) ** inv_p
        return np.where(t >= 0.5, body, -isf(t))

    kinks = (0.0,) if p < 2.0 else ()
    return Measure1D(lambda x: np.abs(x) ** p, logZ, name=f"exp_power(p={p:g})",
                     cdf=cdf, sf=sf, quantile_fn=quantile, isf_fn=isf,
                     potential_deriv=lambda x: p * np.abs(x) ** (p - 1.0) * np.sign(x),
                     kink_points=kinks, median=0.0)


def _one_sided_exp(rate=1.0):
    a = _finite("rate", rate)
    if a <= 0:
        raise ValueError("rate must be positive")
    return Measure1D(lambda x: a * np.asarray(x, dtype=float),
                     -math.log(a), support=(0.0, math.inf),
                     name=f"one_sided_exp(rate={a:g})",
                     cdf=lambda x: np.where(x >= 0, -np.expm1(-a * np.maximum(x, 0.0)),
                                            0.0),
                     sf=lambda x: np.where(x >= 0, np.exp(-a * np.maximum(x, 0.0)),
                                           1.0),
                     quantile_fn=lambda t: -np.log1p(-t) / a,
                     isf_fn=lambda u: -np.log(u) / a,
                     potential_deriv=lambda x: np.full_like(np.asarray(x, dtype=float), a),
                     kink_points=(0.0,), median=math.log(2.0) / a)


_BUILTINS = {
    "exponential_symmetric": _exponential_symmetric,
    "exponential": _exponential_symmetric,
    "exp_power": _exp_power,
    "gaussian": _gaussian,
    "cauchy": _cauchy,
    "one_sided_exp": _one_sided_exp,
}


def make_builtin(name: str, **params) -> Measure1D:
    """Construct a built-in measure by name.

    Names: ``exponential_symmetric`` (alias ``exponential``),
    ``exp_power`` (param ``p``), ``gaussian`` (params ``sigma``, ``mean``),
    ``cauchy``, ``one_sided_exp`` (param ``rate``).  Every parameter must
    be finite.
    ``gaussian`` and ``exp_power`` import ``scipy.special`` when built; the
    others use numpy only.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin measure {name!r}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# numeric construction from a potential
# ---------------------------------------------------------------------------

def make_from_potential(potential: Callable, support=(-math.inf, math.inf),
                        potential_deriv=None, name="from_potential",
                        kink_points=()) -> Measure1D:
    """Normalize ``exp(-V)`` on ``support`` into a :class:`Measure1D`.

    Raises ``ValueError`` when ``exp(-V)`` is not integrable (the mass keeps
    growing as the truncation window doubles).
    """
    return _numeric_measure(potential, support, potential_deriv, name,
                            tuple(kink_points), cell_breaks=kink_points)


#: per-cell targets of the cell table, on the density scaled to peak 1;
#: 2048 cells x 1e-14 keep the cumulative cdf bias near machine level
_CELL_EPSABS = 1e-14
_CELL_EPSREL = 1e-12


def _numeric_measure(potential, support, potential_deriv, name, kink_points,
                     cell_breaks) -> Measure1D:
    """Measure with a cell table; ``cell_breaks`` are forced cell edges
    (points where the density may be less smooth than the 15-point rule
    needs)."""
    lo_s, hi_s = float(support[0]), float(support[1])

    def V(x):
        return np.asarray(potential(np.asarray(x, dtype=float)), dtype=float)

    # rough location/value of the density peak
    probes = np.concatenate((-np.geomspace(1e-3, 1e9, 160)[::-1], [0.0],
                             np.geomspace(1e-3, 1e9, 160)))
    probes = probes[(probes >= lo_s) & (probes <= hi_s)]
    if len(probes) == 0:
        probes = np.array([0.5 * (lo_s + hi_s)])
    with np.errstate(over="ignore", invalid="ignore"):
        vp = V(probes)
    finite = np.isfinite(vp)
    if not np.any(finite):
        raise ValueError("potential is nowhere finite on the support")
    x_peak = float(probes[finite][np.argmin(vp[finite])])
    v_min = float(np.min(vp[finite]))

    def shifted_density(x):
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(-(V(x) - v_min))
        return np.where(np.isfinite(out), out, 0.0)

    # truncation window at the 1e-16 * peak level
    peak = shifted_density(np.array([x_peak]))[0]

    def crossing(direction):
        x, step = x_peak, 1.0
        bound = lo_s if direction < 0 else hi_s
        for _ in range(400):
            nxt = x + direction * step
            if (direction < 0 and nxt <= bound) or (direction > 0 and nxt >= bound):
                return bound
            if shifted_density(np.array([nxt]))[0] < numerics.TRUNCATION_RATIO * peak:
                return nxt
            x, step = nxt, step * 1.4
        return x

    w_lo, w_hi = crossing(-1), crossing(+1)

    def in_window(pts):
        pts = np.asarray(pts, dtype=float)
        return pts[(pts > w_lo) & (pts < w_hi)]

    # stage 1: provisional equal-spaced-in-x grid, cumulative masses.
    # Overflow can only come from a density that grows without bound, which
    # the divergence test below rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.unique(np.concatenate([np.linspace(w_lo, w_hi, 1025),
                                         in_window(cell_breaks)]))
        nodes, weights = numerics.composite_gauss_nodes(base, order=8)
        seg = (shifted_density(nodes) * weights).reshape(-1, 8).sum(axis=1)
        Fb = np.concatenate(([0.0], np.cumsum(seg)))
        Fb = Fb / Fb[-1]

        # stage 2: cells at (mostly) equal-mass levels for good
        # conditioning, each integrated to the cell targets
        xs = np.interp(np.linspace(0.0, 1.0, 2049), Fb, base)
        edges = np.unique(np.concatenate(
            [xs, base[:: max(1, len(base) // 256)], [w_lo, w_hi],
             in_window(cell_breaks)]))
        edges, cells = numerics.gauss_kronrod_cells(
            shifted_density, edges, epsabs=_CELL_EPSABS, epsrel=_CELL_EPSREL)
        total2 = float(cells.sum())

    # divergence test: the window mass plus what lies between the window
    # and +-T.  The doubling schedule starts past the decayed window: any
    # remaining growth there is genuine divergence rather than bulk mass
    # filling in.
    mass_in = numerics.growing_window(
        shifted_density, x_peak, (lo_s, hi_s), (w_lo, w_hi), kink_points,
        epsabs=1e-10, epsrel=1e-8, base=total2)
    start_T = max(w_hi - x_peak, x_peak - w_lo, 1.0)
    total, converged = numerics.guarded_limit(mass_in, start_T)
    if not math.isfinite(total) or not converged or total <= 0:
        raise ValueError("not a finite measure: exp(-potential) does not "
                         "integrate to a finite positive mass")

    # the window already holds all mass above 1e-16 * peak, so normalizing by
    # the in-window total (rather than the guarded limit) pins the table's
    # cdf endpoints to exactly 0 and 1
    logZ = math.log(total2) - v_min
    F = np.clip(np.concatenate(([0.0], np.cumsum(cells) / total2)), 0.0, 1.0)
    F[-1] = 1.0
    # survival summed from the right keeps full relative accuracy in the
    # upper tail
    S = np.clip(np.concatenate((np.cumsum(cells[::-1])[::-1] / total2, [0.0])),
                0.0, 1.0)
    S[0] = 1.0

    return Measure1D(potential, logZ, support=(lo_s, hi_s), name=name,
                     potential_deriv=potential_deriv, kink_points=kink_points,
                     _table=(edges, F, S))


def make_from_table(xs: Sequence[float], vs: Sequence[float],
                    name="from_table") -> Measure1D:
    """Measure from tabulated potential samples ``(x_i, V(x_i))``.

    A monotone C1 interpolant is used inside the table; outside, the
    potential continues linearly with the edge slopes.  The right edge slope
    must be positive and the left edge slope negative, otherwise the tails
    are not integrable and the table is rejected.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 4:
        raise ValueError("need at least 4 (x, V) pairs")
    for col, v in (("abscissae x", xs), ("potential values V", vs)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"table {col} must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    interp, dinterp = numerics.pchip(xs, vs)
    slope_r = float(dinterp(xs[-1]))
    slope_l = float(dinterp(xs[0]))
    if slope_r <= 0 or slope_l >= 0:
        raise ValueError("edge slopes must point upward on both sides "
                         "(left slope < 0 < right slope); table rejected")

    def V(x):
        x = np.asarray(x, dtype=float)
        inner = interp(np.clip(x, xs[0], xs[-1]))
        left = vs[0] + slope_l * (x - xs[0])
        right = vs[-1] + slope_r * (x - xs[-1])
        return np.where(x < xs[0], left, np.where(x > xs[-1], right, inner))

    def dV(x):
        x = np.asarray(x, dtype=float)
        inner = dinterp(np.clip(x, xs[0], xs[-1]))
        return np.where(x < xs[0], slope_l, np.where(x > xs[-1], slope_r, inner))

    # the interpolant is only C1 at every abscissa, so every abscissa is a
    # cell edge; the declared kinks stay a thinned subset, which is what the
    # moment, ray and dual grids were sized for
    return _numeric_measure(V, (-math.inf, math.inf), dV, name,
                            tuple(xs[:: max(1, len(xs) // 64)]),
                            cell_breaks=xs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def residual(mu: Measure1D, x: float, side: str) -> ResidualDistribution:
    """Overshoot/undershoot law of ``mu`` at anchor ``x``; see
    :class:`ResidualDistribution`."""
    return ResidualDistribution(mu, float(x), side)


def stochastically_dominated(nu1_tail, nu2_tail, h_grid) -> Verdict:
    """Pointwise survival-function ordering ``nu1.tail <= nu2.tail`` on a grid.

    ``holds`` means nu2 stochastically dominates nu1 at every grid point up to
    1e-9.  The verdict records the worst margin and where it occurs; the
    grid spacing is reported so a reviewer can judge coverage.
    """
    h = np.asarray(h_grid, dtype=float)
    t1 = np.asarray(nu1_tail(h), dtype=float)
    t2 = np.asarray(nu2_tail(h), dtype=float)
    gap = t1 - t2
    k = int(np.argmax(gap))
    worst = float(gap[k])
    diag = {
        "worst_gap": worst, "argmax_h": float(h[k]),
        "grid": {"lo": float(h[0]), "hi": float(h[-1]), "n": len(h)},
        "tolerance": 1e-9,
    }
    if worst <= 1e-9:
        return Verdict(HOLDS, {}, diag)
    return Verdict(FAILS, {}, diag)


_GRID_LEVEL = 1e-10   # quantile level of the far ends of _scan_grids
_HAZARD_TOL = 1e-7    # hazard drop that is_log_concave tolerates, per 1 + peak


def _scan_grids(mu: Measure1D, plus=(True, False)) -> np.ndarray:
    """Geometric-progression grids from the median out to the far quantile
    of a tail, the right one for each true flag of ``plus`` and the left
    one for each false flag, as the columns of one array."""
    m = mu.median
    cols = [numerics.geometric_offsets(mu.quantile(1.0 - _GRID_LEVEL) - m, 511)
            if right else
            -numerics.geometric_offsets(m - mu.quantile(_GRID_LEVEL), 511)
            for right in plus]
    return m + np.stack(cols, axis=1)


def _hazard_side(mu: Measure1D, plus: bool) -> Verdict:
    """One side of :func:`is_log_concave`: whether the hazard rises outward,
    ``density/sf`` right of the median where ``plus``, else ``density/cdf``.

    It is sampled on the side's column of :func:`_scan_grids` and on 256
    equally spaced points from its end out to the last growth probe of
    :func:`numerics.sup_on_grid`, where the mass outward exceeds 1e-300,
    and fails where a sample falls below the running maximum by more than
    ``1e-7 (1 + max)``.
    """
    grid = _scan_grids(mu, (plus,))[:, 0]
    span = abs(grid[-1] - grid[0])
    reach = numerics.growth_probe_offsets(span)[-1, 0]
    ahead = grid[0] + (1.0 if plus else -1.0) * np.linspace(span, reach, 257)
    xs = np.concatenate((grid, ahead[1:]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mass = mu.sf(xs) if plus else mu.cdf(xs)
        hazard = mu.density(xs) / mass
    keep = (mass > 1e-300) & np.isfinite(hazard)
    xs, hazard = xs[keep], hazard[keep]
    peak = np.maximum.accumulate(hazard)
    bad = np.flatnonzero(peak - hazard > _HAZARD_TOL * (1.0 + peak))
    diag = {"samples": len(xs), "reach": float(xs[-1])}
    if len(bad):
        k = bad[0]
        diag.update(first_violation_x=float(xs[k]),
                    hazard_drop=float(peak[k] - hazard[k]))
    return Verdict(FAILS if len(bad) else HOLDS, {}, diag)


def is_log_concave(mu: Measure1D) -> Verdict:
    """Monotone-hazard test of log-concavity: holds when ``density/sf``
    rises outward right of the median and ``density/cdf`` left of it
    (:func:`_hazard_side`, diagnostics per side), as they do for a
    log-concave density and as the log-concave decision needs."""
    plus, minus = _hazard_side(mu, True), _hazard_side(mu, False)
    return Verdict(HOLDS if plus.holds and minus.holds else FAILS, {},
                   {"tolerance": _HAZARD_TOL, "plus": plus.diagnostics,
                    "minus": minus.diagnostics})


def _draw_blocks(mu: Measure1D, rows: int, n: int, seed: int):
    """The clipped uniform levels of the ``(rows, n)`` draw of
    :func:`sample`, one block of rows at a time from its one Philox stream,
    so mapped by :func:`_draw_inverse` and stacked the blocks are that
    draw."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    step = max(1, _DRAW_BLOCK // n)
    for start in range(0, rows, step):
        yield np.clip(rng.random((min(step, rows - start), n)), 1e-16,
                      1.0 - 1e-16)


def _draw_inverse(mu: Measure1D, u) -> np.ndarray:
    """The inverse cdf the draws use, elementwise: interpolated in the cell
    table of numeric measures (not the costlier Newton), the closed-form
    quantile otherwise."""
    if mu._quantile is None:
        return np.interp(u, mu.F_grid, mu.grid)
    return mu.quantile(u)


def sample(mu: Measure1D, shape, seed: int) -> np.ndarray:
    """iid draws of the given shape by inverse-cdf of uniforms.

    The uniforms come from the counter-based ``Generator(Philox(key=seed))``
    stream that the verifiers also use, clipped to ``[1e-16, 1 - 1e-16]``.
    """
    if np.min(shape) < 1:
        raise ValueError(f"sample shape {shape!r} has no draws")
    rows, *rest = np.atleast_1d(shape)
    n = math.prod(rest)
    out = np.empty((rows, n))
    start = 0
    for u in _draw_blocks(mu, rows, n, seed):
        out[start:start + len(u)] = _draw_inverse(mu, u)
        start += len(u)
    return out.reshape(shape)


def quantile_discretize(mu: Measure1D, k: int) -> DiscreteMeasure:
    """``k`` equal-mass atoms placed at the conditional medians of the
    quantile cells ``[i/k, (i+1)/k]``."""
    if k < 1:
        raise ValueError("need at least one atom")
    ts = (np.arange(k) + 0.5) / k
    atoms = mu.quantile(ts)
    return DiscreteMeasure(atoms, np.full(k, 1.0 / k))
