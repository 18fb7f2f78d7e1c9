"""Span tracer for the benchmark's traced run.

Layer functions are wrapped where their callers look them up: ``cli``
imports its layer functions by name, ``verify`` imports
``_decaying_tail_integral`` from ``criteria``, and ``criteria``/``measures``
call ``numerics.quad`` through the module attribute.  A wrapper installed
anywhere else would never be called and would silently count zero.

Wrappers never touch arguments or return values.  Each call records a span
(name, start, end, parent span, case id) in memory.  The hottest leaf calls
(``Measure1D.density``/``log_density`` and closed-form distribution
functions) are aggregated instead of stored one by one; their time is still
subtracted from the enclosing span, so self times add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from tcilab import cli, costs, criteria, measures, numerics, transport, verify
from tcilab.measures import Measure1D

LAYERS = ("numerics", "measures", "costs", "transport", "criteria", "verify",
          "cli")

#: direct callees of ``run_analyze`` and the pipeline stage each belongs to.
STAGE_OF = {
    "cli.parse_measure_spec": "measure",
    "cli.parse_cost_spec": "cost",
    "costs.validate_admissible": "shape",
    "measures.is_log_concave": "shape",
    "criteria.lipschitz_check": "lipschitz",
    "criteria.muckenhoupt": "muckenhoupt",
    "criteria.decide_strong_tci_lip": "decide",
    "criteria.decide_strong_tci_logconcave": "decide",
    "criteria.suff_condition": "suff_cond",
    "criteria.rearrangement": "modulus",
    "criteria.omega_bounds": "modulus",
    "verify.dual_check_strong": "dual",
    "verify.integrability_check": "integrability",
    "verify.concentration_mc": "concentration",
}
STAGES = ("measure", "cost", "shape", "lipschitz", "muckenhoupt", "decide",
          "suff_cond", "modulus", "dual", "integrability", "concentration")

_BUILD = ("measures.make_from_table", "measures.make_from_potential")


def _is_conjugate_eval(frame) -> bool:
    code = frame.f_code
    return code.co_name == "value" and code.co_filename == costs.__file__


class Tracer:
    """In-memory spans plus named counters for one traced pass."""

    def __init__(self):
        # one row per span: [name, start, end, parent, case, leaf_seconds]
        self.spans: list = []
        self.counters = defaultdict(float)
        self.leaf = defaultdict(lambda: [0, 0.0, 0])  # [calls, s, points]
        self.case = None
        self._stack: list = []
        self._in_leaf = False
        self._saved: list = []

    # -- recording ---------------------------------------------------------
    def span(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.case, 0.0]
        self.spans.append(row)
        self._stack.append(idx)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def leaf_call(self, name: str, fn, args, kwargs, points: int = 0):
        if self._in_leaf:
            return fn(*args, **kwargs)
        self._in_leaf = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._in_leaf = False
            agg = self.leaf[name]
            agg[0] += 1
            agg[1] += dt
            agg[2] += points
            if self._stack:
                self.spans[self._stack[-1]][5] += dt

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, name, sites, hook=None):
        """Record a span named ``name`` for every call through ``sites``.

        ``hook(args, kwargs, result, seconds)`` may bump counters.
        """
        for owner, attr in sites:
            def make(fn):
                def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    out = self.span(name, fn, args, kwargs)
                    if hook is not None:
                        hook(args, kwargs, out, time.perf_counter() - t0)
                    return out
                return wrapper
            self._patch(owner, attr, make)

    def wrap_leaf(self, name, cls, attr):
        """Aggregate calls of a hot method that calls no wrapped function."""
        def make(fn):
            def wrapper(*args, **kwargs):
                x = args[1] if len(args) > 1 else 0.0
                n = 1 if type(x) is float else np.size(x)
                return self.leaf_call(name, fn, args, kwargs, n)
            return wrapper
        self._patch(cls, attr, make)

    def wrap_distribution(self, attr):
        """cdf/sf/quantile/isf: a span on table-backed measures, a leaf else."""
        def make(fn):
            def wrapper(self_mu, *args, **kwargs):
                n = np.size(args[0]) if args else 1
                if self_mu._table is None:
                    return self.leaf_call("measures.closed_dist", fn,
                                          (self_mu,) + args, kwargs, n)
                self.counters["measures.numeric_dist.points"] += n
                return self.span("measures.numeric_dist", fn,
                                 (self_mu,) + args, kwargs)
            return wrapper
        self._patch(Measure1D, attr, make)

    def install(self):
        c = self.counters

        def golden_hook(args, kwargs, out, dt):
            # caller frame: hook <- wrapper <- caller of numerics.golden_max
            if _is_conjugate_eval(sys._getframe(2)):
                c["costs.conjugate.evals"] += 1
                c["costs.conjugate.s"] += dt

        def k_moment_hook(args, kwargs, out, dt):
            side = args[3] if len(args) > 3 else kwargs.get("side", "plus")
            if side == "plus":
                c["criteria.b_scan.steps"] += 1

        def b_step_hook(args, kwargs, out, dt):
            c["criteria.b_scan.steps"] += 1

        def lp_hook(args, kwargs, out, dt):
            cost_mat = args[2] if len(args) > 2 else kwargs["cost_mat"]
            c["transport.cost_lp.vars"] += np.size(cost_mat)

        def dual_hook(args, kwargs, out, dt):
            c["verify.dual.potentials"] += out.trials

        def conc_hook(args, kwargs, out, dt):
            c["verify.concentration.samples"] += out.samples

        def lsi_hook(args, kwargs, out, dt):
            c["verify.lsi.functions"] += out.diagnostics["family_size"]

        w = self.wrap
        w("numerics.quad", [(numerics, "quad")])
        w("numerics.golden_max", [(numerics, "golden_max")], golden_hook)
        w("numerics.guarded_limit", [(numerics, "guarded_limit")])
        w("numerics.sup_on_grid", [(numerics, "sup_on_grid")])

        w("measures.make_builtin",
          [(measures, "make_builtin"), (criteria, "make_builtin"),
           (cli, "make_builtin")])
        w("measures.make_from_table",
          [(measures, "make_from_table"), (cli, "make_from_table")])
        w("measures.make_from_potential", [(measures, "make_from_potential")])
        w("measures.is_log_concave",
          [(measures, "is_log_concave"), (criteria, "is_log_concave"),
           (cli, "is_log_concave")])
        w("measures.quantile_discretize",
          [(measures, "quantile_discretize"), (cli, "quantile_discretize")])
        for attr in ("cdf", "sf", "quantile", "isf"):
            self.wrap_distribution(attr)
        self.wrap_leaf("measures.density", Measure1D, "density")
        self.wrap_leaf("measures.log_density", Measure1D, "log_density")

        w("costs.builtin_cost",
          [(costs, "builtin_cost"), (criteria, "builtin_cost"),
           (cli, "builtin_cost")])
        w("costs.validate_admissible",
          [(costs, "validate_admissible"), (criteria, "validate_admissible"),
           (cli, "validate_admissible")])
        w("costs.conjugate", [(costs, "conjugate"), (cli, "conjugate")])

        w("transport.cost_lp", [(transport, "cost_lp"), (cli, "cost_lp")],
          lp_hook)
        w("transport.cost_matrix",
          [(transport, "cost_matrix"), (cli, "cost_matrix")])
        w("transport.relative_entropy", [(transport, "relative_entropy")])

        w("criteria.K_moment", [(criteria, "K_moment")], k_moment_hook)
        w("criteria._moment_integral", [(criteria, "_moment_integral")],
          b_step_hook)
        w("criteria._decaying_tail_integral",
          [(criteria, "_decaying_tail_integral"),
           (verify, "_decaying_tail_integral")])
        for fn_name in ("lipschitz_check", "muckenhoupt",
                        "decide_strong_tci_lip", "decide_strong_tci_logconcave",
                        "suff_condition", "rearrangement", "omega_bounds"):
            w(f"criteria.{fn_name}", [(criteria, fn_name), (cli, fn_name)])

        w("verify.dual_check_strong",
          [(verify, "dual_check_strong"), (cli, "dual_check_strong")],
          dual_hook)
        w("verify.integrability_check",
          [(verify, "integrability_check"), (cli, "integrability_check")])
        w("verify.concentration_mc",
          [(verify, "concentration_mc"), (cli, "concentration_mc")], conc_hook)
        w("verify.tensor_check",
          [(verify, "tensor_check"), (cli, "tensor_check")])
        w("verify.lsi_check", [(verify, "lsi_check"), (cli, "lsi_check")],
          lsi_hook)

        for fn_name in ("run_analyze", "emit_report", "parse_measure_spec",
                        "parse_cost_spec"):
            w(f"cli.{fn_name}", [(cli, fn_name)])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------
    def write(self, path) -> None:
        """Spans as JSON rows ``[name, start, end, parent, case]``."""
        rows = [r[:5] for r in self.spans]
        leaf = {k: {"calls": v[0], "seconds": v[1], "points": v[2]}
                for k, v in self.leaf.items()}
        with open(path, "w") as fh:
            json.dump({"spans": rows, "leaf": leaf,
                       "counters": dict(self.counters)}, fh)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for name, t0, t1, parent, _case, _leaf in spans:
            if parent >= 0:
                child[parent] += t1 - t0

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][3]

        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        stage_s = defaultdict(float)
        build_s = 0.0
        build_quads = 0
        for i, (name, t0, t1, parent, _case, leaf_s) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            anc = set(ancestors(i))
            if name not in anc:
                inclusive[name] += dur
            own = dur - child[i] - leaf_s
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if name in _BUILD and not anc.intersection(_BUILD):
                build_s += dur
            if name == "numerics.quad" and anc.intersection(_BUILD):
                build_quads += 1
            if parent >= 0 and spans[parent][0] == "cli.run_analyze" \
                    and name in STAGE_OF:
                stage_s[STAGE_OF[name]] += dur
        for name, (_calls, secs, _points) in self.leaf.items():
            layer_self[name.split(".", 1)[0]] += secs

        c = self.counters
        density_calls, _secs, density_points = self.leaf["measures.density"]
        potentials = c["verify.dual.potentials"]
        dual_s = inclusive["verify.dual_check_strong"]
        out = {
            "numerics.quad.calls": (calls["numerics.quad"], "count"),
            "numerics.quad.self_s": (self_s["numerics.quad"], "s"),
            "numerics.golden_max.calls": (calls["numerics.golden_max"], "count"),
            "measures.build.s": (build_s, "s"),
            "measures.build.quad_calls": (build_quads, "count"),
            "measures.numeric_dist.calls": (calls["measures.numeric_dist"],
                                            "count"),
            "measures.numeric_dist.points": (
                int(c["measures.numeric_dist.points"]), "count"),
            "measures.numeric_dist.s": (inclusive["measures.numeric_dist"], "s"),
            "measures.density.calls": (density_calls, "count"),
            "measures.density.points_per_call": (
                density_points / density_calls
                if density_calls else 0.0, "points/call"),
            "criteria.K_moment.calls": (calls["criteria.K_moment"], "count"),
            "criteria.K_moment.s": (inclusive["criteria.K_moment"], "s"),
            "criteria.b_scan.steps": (int(c["criteria.b_scan.steps"]), "count"),
            "criteria.decide_lip.s": (
                inclusive["criteria.decide_strong_tci_lip"], "s"),
            "criteria.decide_logconcave.s": (
                inclusive["criteria.decide_strong_tci_logconcave"], "s"),
            "criteria.muckenhoupt.s": (inclusive["criteria.muckenhoupt"], "s"),
            "criteria.lipschitz_check.s": (
                inclusive["criteria.lipschitz_check"], "s"),
            "criteria.omega_bounds.s": (inclusive["criteria.omega_bounds"], "s"),
            "criteria.suff_condition.s": (
                inclusive["criteria.suff_condition"], "s"),
            "verify.dual.s": (dual_s, "s"),
            "verify.dual.potentials": (int(potentials), "count"),
            "verify.dual.us_per_potential": (
                1e6 * dual_s / potentials if potentials else 0.0, "us"),
            "verify.tensor.s": (inclusive["verify.tensor_check"], "s"),
            "verify.integrability.s": (
                inclusive["verify.integrability_check"], "s"),
            "verify.concentration.s": (inclusive["verify.concentration_mc"], "s"),
            "verify.concentration.samples": (
                int(c["verify.concentration.samples"]), "count"),
            "verify.lsi.s": (inclusive["verify.lsi_check"], "s"),
            "verify.lsi.functions": (int(c["verify.lsi.functions"]), "count"),
            "transport.cost_lp.calls": (calls["transport.cost_lp"], "count"),
            "transport.cost_lp.s": (inclusive["transport.cost_lp"], "s"),
            "transport.cost_lp.vars": (int(c["transport.cost_lp.vars"]), "count"),
            "transport.relative_entropy.calls": (
                calls["transport.relative_entropy"], "count"),
            "costs.conjugate.evals": (int(c["costs.conjugate.evals"]), "count"),
            "costs.conjugate.s": (c["costs.conjugate.s"], "s"),
            "costs.validate_admissible.s": (
                inclusive["costs.validate_admissible"], "s"),
            "cli.run_analyze.s": (inclusive["cli.run_analyze"], "s"),
            "cli.emit_report.s": (inclusive["cli.emit_report"], "s"),
        }
        for stage in STAGES:
            out[f"cli.stage.{stage}.s"] = (stage_s[stage], "s")
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        out["trace.spans"] = (n, "count")
        return out
