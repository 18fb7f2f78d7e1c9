"""Workloads of the tcilab benchmark: inputs, case lists, expected outputs.

Every layer function is reached through its module attribute
(``cli.run_analyze``, ``verify.dual_check_strong``, ...) so the traced run
sees each call.  Expected values come from the test that pins the same
quantity, with that test's tolerance; seeded values (dual products,
Monte Carlo curves) are checked only for the side of their threshold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tcilab import cli, costs, criteria, measures, verify

WORKLOADS = ("analyze-closed-form", "verify-sweep", "criteria-quadrature")

#: effort per case; ``full`` keeps one pass of each workload near 6-10 s so
#: a 30 s run times every case at least three times; ``tiny`` keeps the
#: benchmark's self-tests short.
SIZES = {
    "full": {"analyze_dual_trials": 400, "dual_trials": 500,
             "refute_trials": 50, "tensor_atoms": 6, "tensor_n": 3,
             "tensor_trials": 3, "mc_n": 8, "mc_samples": 6 * 10 ** 5,
             "lsi_every": 10},
    "tiny": {"analyze_dual_trials": 20, "dual_trials": 20,
             "refute_trials": 10, "tensor_atoms": 3, "tensor_n": 2,
             "tensor_trials": 1, "mc_n": 2, "mc_samples": 20000,
             "lsi_every": 25},
}

K_REF_HALF = 1.8119178961684739       # K_moment(exponential, alpha1, 1/2)
DUAL_OK = 1.0 + 1e-6                  # verify.DUAL_SLACK above one


@dataclass
class Case:
    """One timed call; ``run(state)`` may read what earlier cases stored."""

    name: str
    run: Callable[[dict], Any]
    observe: Callable[[Any], dict]
    expect: list = field(default_factory=list)
    ops: Callable[[Any], tuple] = lambda result: (1, 0)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def mismatches(observed: dict, expect: list) -> list:
    """Expectations ``(key, op, value)`` that ``observed`` does not meet.

    ``op`` is ``==``, ``<=``, ``>``, ``>=``, ``contains``, ``finite``,
    ``abs`` (value ``(target, tol)``) or ``rel`` (value ``(target, tol)``).
    """
    bad = []
    for key, op, want in expect:
        got = observed.get(key, "<missing>")
        try:
            if op == "==":
                ok = got == want
            elif op == "<=":
                ok = got <= want
            elif op == ">":
                ok = got > want
            elif op == ">=":
                ok = got >= want
            elif op == "contains":
                ok = want in got
            elif op == "finite":
                ok = math.isfinite(got) and got > 0
            elif op == "abs":
                ok = abs(got - want[0]) <= want[1]
            elif op == "rel":
                ok = abs(got - want[0]) <= want[1] * abs(want[0])
            else:
                raise ValueError(f"unknown expectation op {op!r}")
        except TypeError:
            ok = False
        if not ok:
            bad.append(f"{key}: expected {op} {want!r}, got {got!r}")
    return bad


def _canon(obj):
    if hasattr(obj, "to_dict"):
        return _canon(obj.to_dict())
    if is_dataclass(obj):
        return {f.name: _canon(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float):
        return repr(obj)          # every digit, inf and nan included
    if isinstance(obj, Path):
        return obj.name
    if isinstance(obj, measures.Measure1D):
        return [obj.name, repr(obj.logZ), repr(float(obj.median))]
    return obj


def fingerprint(result) -> str:
    """SHA-256 over every value a case returned."""
    text = json.dumps(_canon(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict_obs(v) -> dict:
    obs = {"status": v.status,
           "reason": str(v.diagnostics.get("reason", ""))}
    obs.update(v.constants)
    return obs


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def table_potentials():
    """The two potential tables on a 129-point grid over [-4, 4]."""
    xs = np.linspace(-4.0, 4.0, 129)
    quartic = xs ** 4 / 4.0
    huber = np.where(np.abs(xs) <= 1.0, 0.5 * xs * xs, np.abs(xs) - 0.5) \
        + 0.3 * np.sin(xs)
    return xs, {"quartic": quartic, "huber": huber}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Everything a workload reads, derived from ``seed`` only."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {"seed": seed % 2 ** 32, "workdir": workdir}
    if workload == "criteria-quadrature":
        xs, tables = table_potentials()
        for name, vs in tables.items():
            path = workdir / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x", "V"])
                w.writerows(zip(map(repr, xs.tolist()), map(repr, vs.tolist())))
            inputs[name] = path
    return inputs


# ---------------------------------------------------------------------------
# analyze-closed-form
# ---------------------------------------------------------------------------

def _analyze_case(name, config, out_dir, expect) -> Case:
    def run(state):
        report = cli.run_analyze(config)
        written = cli.emit_report(report, out_dir)
        return report, written

    def observe(result):
        report, written = result
        d = report.to_dict()
        obs = {"conclusion": report.conclusion,
               "errored": [s["stage"] for s in report.stages
                           if s["status"] == "error"],
               "files": sorted(p.name for p in written)}
        for s in report.stages:
            obs[f"stage.{s['stage']}"] = s["status"]
        for key, v in d["criteria"].items():
            obs[f"{key}.status"] = v["status"]
            for c, val in v.get("constants", {}).items():
                obs[f"{key}.{c}"] = val
        ver = d["verification"]
        for key in ("dual", "integrability"):
            for k, val in ver.get(key, {}).items():
                if k == "constants":
                    obs.update({f"{key}.{c}": x for c, x in val.items()})
                elif not isinstance(val, (dict, list)):
                    obs[f"{key}.{k}"] = val
        if isinstance(ver.get("concentration"), list):
            obs["concentration"] = [t["status"] for t in ver["concentration"]]
        if "integrability_scan" in ver:
            obs["integrability_scan"] = [r["status"]
                                         for r in ver["integrability_scan"]]
        obs["report_sha256"] = hashlib.sha256(
            (out_dir / "report.json").read_bytes()).hexdigest()
        return obs

    def ops(result):
        report, _written = result
        stages = report.stages
        return len(stages) + 1, sum(s["status"] == "error" for s in stages)

    return Case(name, run, observe, expect, ops)


def analyze_cases(inputs: dict, size: str) -> list:
    seed = inputs["seed"]
    trials = SIZES[size]["analyze_dual_trials"]
    out = inputs["workdir"] / "reports"
    certified = "strong TCI certified at the assembled scale"
    exp_alpha1 = [
        ("conclusion", "==", certified), ("errored", "==", []),
        ("log_concave.status", "==", "holds"),
        ("char_lm.status", "==", "holds"),
        ("char_lm.a0", "abs", (1.0, 1e-9)),
        ("char_lm.b", "==", 0.5),
        ("char_lm.K_plus", "rel", (K_REF_HALF, 1e-9)),
        ("char_lm.a", "abs", (0.25, 1e-12)),
        ("char_logconcave.status", "==", "holds"),
        ("char_logconcave.a0", "rel", (1.0, 1e-9)),
        ("char_logconcave.K", "rel", (K_REF_HALF, 1e-9)),
        ("suff_cond.status", "==", "inconclusive"),
        ("dual.status", "==", "no_violation"),
        ("dual.worst_product", "<=", DUAL_OK),
        ("dual.trials", ">=", trials),
        ("integrability.status", "==", "holds"),
        ("integrability.worst_ray_product", "rel", (0.9500782311178766, 1e-9)),
        ("concentration", "==", ["holds", "holds"]),
    ]
    cauchy = [
        ("conclusion", "==", "no strong TCI found"), ("errored", "==", []),
        ("log_concave.status", "==", "fails"),
        ("char_lm.status", "==", "fails"),
        ("suff_cond.status", "==", "fails"),
        ("stage.dual", "==", "skipped"),
        ("stage.concentration", "==", "skipped"),
        ("integrability.status", "==", "fails"),
        ("integrability_scan", "==", ["fails"] * 7),
    ]
    pairs = [("exponential-alpha1", "exponential", "alpha1", exp_alpha1),
             ("cauchy-alpha1", "cauchy", "alpha1", cauchy)]
    if size == "tiny":
        pairs = pairs[1:]
    return [_analyze_case(name, cli.AnalysisConfig(measure=m, cost=c,
                                                   seed=seed,
                                                   dual_trials=trials),
                          out / name, expect)
            for name, m, c, expect in pairs]


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

def _dual_obs(rep) -> dict:
    return {"status": rep.status, "worst_product": rep.worst_product,
            "trials": rep.trials}


def verify_cases(inputs: dict, size: str) -> list:
    seed = inputs["seed"]
    sz = SIZES[size]
    mu1 = measures.make_builtin("exponential")
    alpha1 = costs.builtin_cost("alpha1")

    def certify(state):
        return verify.dual_check_strong(mu1, alpha1, prefactor=1.0 / 36.0,
                                        trials=sz["dual_trials"], seed=seed)

    def refute(state):
        return verify.dual_check_strong(mu1, alpha1, scale=1.0, prefactor=10.0,
                                        trials=sz["refute_trials"], seed=seed)

    def tensor(state):
        atoms = measures.quantile_discretize(measures.make_builtin(
            "exponential"), sz["tensor_atoms"])
        return verify.tensor_check(atoms, alpha1, n=sz["tensor_n"],
                                   trials=sz["tensor_trials"], seed=seed,
                                   scale=0.25, prefactor=1.0 / 72.0)

    def concentration(state):
        return verify.concentration_mc(mu1, alpha1, prefactor=1.0 / 36.0,
                                       n=sz["mc_n"], samples=sz["mc_samples"],
                                       seed=seed)

    def conc_obs(rep):
        return {"status": rep.verdict.status, "mass_a": rep.mass_a,
                "ci_above_bound": bool(np.all(rep.lower_ci >= rep.bound))}

    def tensor_obs(v):
        obs = _verdict_obs(v)
        obs.update(worst_slack=v.diagnostics["worst_slack"],
                   states=v.diagnostics["states"])
        return obs

    return [
        Case("dual-certify", certify, _dual_obs,
             [("status", "==", "no_violation"),
              ("worst_product", "<=", DUAL_OK),
              ("trials", ">=", sz["dual_trials"])]),
        Case("dual-refute", refute, _dual_obs,
             [("status", "==", "violation_found"),
              ("worst_product", ">", DUAL_OK)]),
        Case("tensor", tensor, tensor_obs,
             [("status", "==", "holds"), ("worst_slack", "<=", 1e-7),
              ("states", "==", sz["tensor_atoms"] ** sz["tensor_n"])]),
        Case("concentration", concentration, conc_obs,
             [("status", "==", "holds"),
              ("mass_a", "abs", (0.5 ** sz["mc_n"], 1e-12)),
              ("ci_above_bound", "==", True)]),
    ]


# ---------------------------------------------------------------------------
# criteria-quadrature
# ---------------------------------------------------------------------------

def criteria_cases(inputs: dict, size: str) -> list:
    alpha1 = costs.builtin_cost("alpha1")
    every = SIZES[size]["lsi_every"]

    def build(name):
        def run(state):
            state[name] = cli.parse_measure_spec(f"table file={inputs[name]}")
            return state[name]
        return run

    def build_obs(mu):
        return {"logZ": mu.logZ, "median": mu.median,
                "cdf_at_median": float(mu.cdf(mu.median))}

    def lsi_setup(state):
        # criterion 10: the conjugate profile at the assembled scale, tested
        # on every ``every``-th of lsi_check's fifty built-in functions
        mu = measures.make_builtin("gaussian", sigma=2.0 ** -0.5)
        theta2 = costs.builtin_cost("theta_p", p=2.0)
        v = criteria.decide_strong_tci_logconcave(mu, theta2)
        lam = 0.5
        state["lsi"] = (mu, costs.conjugate(theta2), lam / (1.0 - lam),
                        1.0 / (v.constants["a"] * lam),
                        verify._lsi_builtins(mu)[::every])
        return v

    def lsi(shrink):
        def run(state):
            mu, beta, C, t, family = state["lsi"]
            return verify.lsi_check(mu, beta, C=C / shrink, t=t,
                                    test_family=family)
        return run

    median_half = [("cdf_at_median", "abs", (0.5, 1e-9))]
    cases = [
        Case("quartic-build", build("quartic"), build_obs, median_half),
        Case("quartic-is_log_concave",
             lambda s: measures.is_log_concave(s["quartic"]), _verdict_obs,
             [("status", "==", "holds")]),
    ]
    if size == "full":
        cases += [
            Case("quartic-decide_logconcave",
                 lambda s: criteria.decide_strong_tci_logconcave(s["quartic"],
                                                                 alpha1),
                 _verdict_obs,
                 [("status", "==", "holds"), ("a", "abs", (0.5, 1e-12)),
                  ("b", "==", 1.0)]),
            Case("huber-build", build("huber"), build_obs, median_half),
            Case("huber-is_log_concave",
                 lambda s: measures.is_log_concave(s["huber"]), _verdict_obs,
                 [("status", "==", "fails")]),
        ]
    cases += [
        Case("lsi-setup", lsi_setup, _verdict_obs,
             [("status", "==", "holds"),
              ("K", "rel", (2.0 / math.sqrt(3.0), 1e-9))]),
        Case("lsi-good", lsi(1.0), _verdict_obs, [("status", "==", "holds")]),
        Case("lsi-bad", lsi(100.0), _verdict_obs, [("status", "==", "fails")]),
    ]
    return cases


def build_cases(workload: str, inputs: dict, size: str = "full") -> list:
    builders = {"analyze-closed-form": analyze_cases,
                "verify-sweep": verify_cases,
                "criteria-quadrature": criteria_cases}
    return builders[workload](inputs, size)
