"""Command-line entry point and the end-to-end analysis pipeline.

``tci-lab analyze`` runs the full battery on a (measure, cost) pair as one
ordered stage table, ``_STAGES``, run by one loop.  A stage whose needed
stages did not run ``ok`` is skipped with "prerequisite unavailable", a
verifier with no scale (neither requested nor assembled by ``decide``) with
"no assembled scale"; an error is recorded in the report instead of
aborting the run.  Reports are plain JSON with sorted keys and no
timestamps, so identical config + seed reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .costs import (CostFunction, builtin_cost, conjugate, cost_from_table,
                    validate_admissible)
from .criteria import (DEFAULT_KAPPA, _decide_lip, _decide_logconcave,
                       _suff_condition, decide_strong_tci_lip,
                       decide_strong_tci_logconcave, lipschitz_check,
                       lsi_tilde_potential, muckenhoupt, omega_bounds,
                       rearrangement, suff_condition)
from .measures import (Measure1D, is_log_concave, make_builtin,
                       make_from_table, quantile_discretize)
from .transport import cost_lp, cost_matrix, cost_monotone
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict, _jsonify
from .verify import (_integrability_at, _ray_anchors, concentration_mc,
                     dual_check_strong, integrability_check, lsi_check,
                     marton_bound_check, tensor_check)

__all__ = [
    "AnalysisConfig", "AnalysisReport", "run_analyze", "emit_report",
    "parse_measure_spec", "parse_cost_spec", "parse_prefactor", "main",
]

SCHEMA_VERSION = 1

try:  # installed distribution metadata; fall back when running from a tree
    from importlib import metadata as _ilm
    VERSION = _ilm.version("tcilab")
except Exception:  # pragma: no cover
    VERSION = "0+unknown"


# ---------------------------------------------------------------------------
# grammar parsing
# ---------------------------------------------------------------------------

def _split_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    tokens = spec.strip().split()
    if not tokens:
        raise ValueError("empty grammar string")
    params = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed parameter {tok!r} in {spec!r} "
                             "(expected key=value)")
        key, _, val = tok.partition("=")
        params[key] = val
    return tokens[0], params


def _load_csv_columns(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV; a single non-numeric header row is skipped."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not "".join(row).strip():
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if i == 0:
                    continue  # header line
                raise ValueError(f"{path}: malformed CSV row {row!r}")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return np.asarray(xs), np.asarray(ys)


def parse_measure_spec(spec: str) -> Measure1D:
    """Measure grammar: name followed by ``key=value`` parameters.

    ``exponential`` | ``exp_power p=<float>`` | ``gaussian sigma=<float>`` |
    ``cauchy`` | ``one_sided_exp rate=<float>`` | ``table file=<path>``
    where the file is CSV ``x,V`` (potential samples, strictly increasing x).
    """
    name, params = _split_spec(spec)
    if name == "table":
        if "file" not in params:
            raise ValueError("table measure needs file=<path>")
        xs, vs = _load_csv_columns(params["file"])
        return make_from_table(xs, vs)
    try:
        return make_builtin(name, **{k: float(v) for k, v in params.items()})
    except TypeError as exc:
        raise ValueError(f"bad measure spec {spec!r}: {exc}") from None


def parse_cost_spec(spec: str) -> CostFunction:
    """Cost grammar: ``alpha1`` | ``alpha_p p=`` | ``theta_p p=`` |
    ``maurey`` | ``gamma lambda=`` | ``table file=<path>`` (CSV ``t,alpha``).
    """
    name, params = _split_spec(spec)
    if name == "table":
        if "file" not in params:
            raise ValueError("table cost needs file=<path>")
        ts, vals = _load_csv_columns(params["file"])
        return cost_from_table(ts, vals)
    numeric = {("lam" if k == "lambda" else k): float(v)
               for k, v in params.items()}
    try:
        return builtin_cost(name, **numeric)
    except TypeError as exc:
        raise ValueError(f"bad cost spec {spec!r}: {exc}") from None


def parse_prefactor(text: Union[str, float, int, None]) -> float:
    """Prefactor literal: a float, or a ratio like ``1/36``."""
    if text is None:
        return 1.0
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if float(den) == 0.0:
            raise ValueError(f"prefactor {text!r} divides by zero")
        return float(num) / float(den)
    return float(s)


def _parse_interval(text: str) -> Tuple[float, float]:
    lo_s, _, hi_s = text.partition(",")
    if not hi_s:
        raise ValueError(f"interval {text!r} must be lo,hi")
    return float(lo_s), float(hi_s)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class AnalysisConfig:
    """Single JSON document driving ``run_analyze``.

    Fields and defaults (CLI flags override config values):

    - ``measure`` / ``cost``: grammar strings, see :func:`parse_measure_spec`.
    - ``scale`` / ``prefactor``: when set they override the assembled cost
      ``alpha(a(x-y)) / (2 kappa)`` used by the verification stages;
      ``prefactor`` accepts a ratio string such as ``"1/36"``.
    - ``kappa``: contraction constant handed to the decision procedures.
    - ``seed``: base seed; stage s with counter offset k uses ``seed + k``.
    - ``dual_trials`` / ``mc_samples``: verification effort.
    - ``out_dir``: where :func:`emit_report` writes files (None = stdout only).

    :meth:`validate` checks every field; :func:`run_analyze` calls it before
    any stage runs.
    """

    measure: str = "exponential"
    cost: str = "alpha1"
    scale: Optional[float] = None
    prefactor: Union[str, float, None] = None
    kappa: float = DEFAULT_KAPPA
    seed: int = 0
    dual_trials: int = 1000
    mc_samples: int = 100000
    out_dir: Optional[str] = None

    def validate(self) -> float:
        """Raise ``ValueError`` naming the first field out of range.

        Returns the prefactor as a number (1.0 when unset).
        """
        def bad(name, want):
            return ValueError(f"config field {name} must be {want}, "
                              f"got {getattr(self, name)!r}")

        def integer(name):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int):
                raise bad(name, "an integer")
            return val

        def positive(val):  # also rejects ints too large for a float
            return isinstance(val, (int, float)) \
                and not isinstance(val, bool) \
                and 0 < val <= sys.float_info.max

        for name in ("measure", "cost"):
            if not isinstance(getattr(self, name), str):
                raise bad(name, "a grammar string")
        if integer("dual_trials") < 0:
            raise bad("dual_trials", ">= 0")
        if integer("mc_samples") < 1:
            raise bad("mc_samples", ">= 1")
        if not 0 <= integer("seed") < 2 ** 128:
            raise bad("seed", "in [0, 2**128)")
        if not positive(self.kappa):
            raise bad("kappa", "a finite number > 0")
        if not (self.scale is None or positive(self.scale)):
            raise bad("scale", "None or a finite number > 0")
        try:
            prefactor = parse_prefactor(self.prefactor)
        except (AttributeError, ValueError):
            prefactor = None
        if isinstance(self.prefactor, bool) or not positive(prefactor):
            raise bad("prefactor", "a finite number > 0 or a ratio like 1/36")
        return prefactor

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        return cls.from_dict(json.loads(text))

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":")).encode()
        return hashlib.sha256(canon).hexdigest()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Everything ``run_analyze`` produced, JSON- and text-serializable."""

    config: AnalysisConfig
    measure_summary: Dict[str, Any]
    criteria: Dict[str, Any]
    verification: Dict[str, Any]
    curves: Dict[str, Any]
    stages: List[Dict[str, str]]
    conclusion: str
    provenance: Dict[str, Any]

    @property
    def errored(self) -> bool:
        return any(s["status"] == "error" for s in self.stages)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "measure_summary": _jsonify(self.measure_summary),
            "criteria": _jsonify(self.criteria),
            "verification": _jsonify(self.verification),
            "curves": _jsonify(self.curves),
            "stages": self.stages,
            "conclusion": self.conclusion,
            "provenance": _jsonify(self.provenance),
        }

    def to_json(self) -> str:
        return _report_json(self.to_dict())

    def to_text(self) -> str:
        return _report_text(self.to_dict())


def _report_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _report_text(d: dict) -> str:
    """The text form of a report's :meth:`AnalysisReport.to_dict`."""
    lines = [f"tci-lab analysis report (schema {d['schema']})",
             f"measure: {d['config']['measure']}",
             f"cost:    {d['config']['cost']}", ""]
    ms = d["measure_summary"]
    if ms:
        lines.append("measure summary")
        for key in sorted(ms):
            lines.append(f"  {key}: {_fmt(ms[key])}")
        lines.append("")
    if d["criteria"]:
        lines.append("criteria")
        for name in sorted(d["criteria"]):
            v = d["criteria"][name]
            status = v.get("status", "?") if isinstance(v, dict) else v
            consts = v.get("constants", {}) if isinstance(v, dict) else {}
            tail = "  " + " ".join(f"{k}={_fmt(c)}"
                                   for k, c in sorted(consts.items()))
            lines.append(f"  {name}: {status}{tail.rstrip()}")
        lines.append("")
    if d["verification"]:
        lines.append("verification")
        for name in sorted(d["verification"]):
            v = d["verification"][name]
            if isinstance(v, dict):
                status = v.get("status", v.get("verdict", "?"))
                extra = ""
                if "worst_product" in v:
                    extra = f"  worst_product={_fmt(v['worst_product'])}"
                lines.append(f"  {name}: {status}{extra}")
            else:
                lines.append(f"  {name}: {_fmt(v)}")
        lines.append("")
    lines.append("stages")
    for s in d["stages"]:
        detail = f"  ({s['detail']})" if s["detail"] else ""
        lines.append(f"  {s['stage']}: {s['status']}{detail}")
    lines.append("")
    lines.append(f"conclusion: {d['conclusion']}")
    prov = d["provenance"]
    lines.append(f"provenance: version={prov['version']} "
                 f"seed={prov['seed']} config={prov['config_hash'][:16]}")
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

#: scales scanned for a refutation when no rate was assembled.
_REFUTE_SCALES = tuple(2.0 ** -k for k in range(0, 7))

#: product dimensions exercised by the concentration stage.
_ANALYZE_DIMS = (1, 4)


def _measure(report, out):
    mu = parse_measure_spec(report.config.measure)
    report.measure_summary.update(name=mu.name, median=float(mu.median),
                                  logZ=float(mu.logZ),
                                  support=list(mu.support))
    return mu


def _cost(report, out):
    return parse_cost_spec(report.config.cost)


def _shape(report, out):
    adm = validate_admissible(out["cost"])
    lc = is_log_concave(out["measure"])
    report.criteria["admissible"] = adm.to_dict()
    report.measure_summary["log_concave"] = lc.status
    report.criteria["log_concave"] = lc.to_dict()
    return adm, lc


def _lipschitz(report, out):
    v = lipschitz_check(out["measure"])
    report.criteria["lipschitz"] = v.to_dict()
    if v.holds:
        report.measure_summary["A_plus"] = v.constants["A_plus"]
        report.measure_summary["A_minus"] = v.constants["A_minus"]
    return v


def _muckenhoupt(report, out):
    d_plus, d_minus = muckenhoupt(out["measure"])
    report.measure_summary.update(D_plus=d_plus, D_minus=d_minus)
    return d_plus, d_minus


def _decide(report, out):
    # char-lm is the general criterion and is always recorded; the
    # log-concave specialization runs only when the shape predicate
    # certified it, and then supplies the primary certificate.  Both take
    # the verdicts of the shape and lipschitz stages.
    mu, alpha, config = out["measure"], out["cost"], report.config
    adm, lc = out["shape"]
    primary = _decide_lip(mu, alpha, config.kappa, adm, out["lipschitz"])
    report.criteria["char_lm"] = primary.to_dict()
    if lc.holds:
        primary = _decide_logconcave(mu, alpha, config.kappa, adm, lc)
        report.criteria["char_logconcave"] = primary.to_dict()
    else:
        report.criteria["char_logconcave"] = Verdict(INCONCLUSIVE, {}, {
            "reason": "measure not certified log-concave"}).to_dict()
    # unless the config requests a cost, the verifiers test the assembled
    # certificate alpha(a(x-y)) / (2 kappa)
    if primary.holds and config.scale is None:
        report.verification["scale"] = float(primary.constants["a"])
        if config.prefactor is None:
            report.verification["prefactor"] = 1.0 / (2.0 * config.kappa)
    return primary


def _suff_cond(report, out):
    v = _suff_condition(out["measure"], out["cost"], out["shape"][0],
                        out["lipschitz"])
    report.criteria["suff_cond"] = v.to_dict()
    return v


def _modulus(report, out):
    rm = rearrangement(out["measure"])
    h = np.linspace(0.25, 8.0, 32)
    w_plus, w_minus, lower = omega_bounds(rm, h)
    report.curves["modulus"] = {"h": h, "omega_plus": w_plus,
                                "omega_minus": w_minus, "lower": lower}
    return report.curves["modulus"]


def _dual(report, out):
    ver, config = report.verification, report.config
    rep = dual_check_strong(out["measure"], out["cost"], scale=ver["scale"],
                            prefactor=ver["prefactor"],
                            trials=config.dual_trials, seed=config.seed)
    ver["dual"] = {
        "status": rep.status, "trials": rep.trials,
        "worst_product": rep.worst_product,
        "worst_label": rep.worst_label, "seed": rep.seed,
    }
    return rep


def _integrability(report, out):
    mu, alpha, ver = out["measure"], out["cost"], report.verification
    if ver["scale"] is not None:
        v = integrability_check(mu, alpha, scale=ver["scale"],
                                prefactor=ver["prefactor"])
        ver["integrability"] = v.to_dict()
        return v
    # nothing was assembled: scan a geometric ladder of scales and
    # report which of them the ray products already refute; the anchors
    # and their masses do not depend on the scale
    scan = []
    anchors = _ray_anchors(mu)
    for a in _REFUTE_SCALES:
        v = _integrability_at(mu, anchors, alpha, a, ver["prefactor"])
        scan.append({"scale": a, "status": v.status})
    ver["integrability_scan"] = scan
    all_refuted = all(row["status"] == FAILS for row in scan)
    ver["integrability"] = {
        "status": FAILS if all_refuted else INCONCLUSIVE,
        "reason": "every scanned scale refuted" if all_refuted
                  else "scan not uniformly refuted",
    }
    return all_refuted


def _concentration(report, out):
    ver, config = report.verification, report.config
    tables = []
    for n in _ANALYZE_DIMS:
        rep = concentration_mc(out["measure"], out["cost"],
                               scale=ver["scale"], prefactor=ver["prefactor"],
                               n=n, samples=config.mc_samples,
                               seed=config.seed + n)
        tables.append({"n": n, "status": rep.verdict.status,
                       "mass_a": rep.mass_a, "samples": rep.samples})
        report.curves[f"concentration_n{n}"] = {"rows": rep.rows()}
    ver["concentration"] = tables
    return tables


#: the pipeline in run order: stage name, the stages whose output it needs,
#: whether it needs a verification scale, and the function that fills its
#: part of the report from the earlier outputs and returns its own output
_STAGES = (
    ("measure", (), False, _measure),
    ("cost", ("measure",), False, _cost),
    ("shape", ("measure", "cost"), False, _shape),
    ("lipschitz", ("measure",), False, _lipschitz),
    ("muckenhoupt", ("measure",), False, _muckenhoupt),
    ("decide", ("measure", "cost", "shape", "lipschitz"), False, _decide),
    ("suff_cond", ("measure", "cost", "shape", "lipschitz"), False,
     _suff_cond),
    ("modulus", ("measure",), False, _modulus),
    ("dual", ("measure", "cost"), True, _dual),
    ("integrability", ("measure", "cost"), False, _integrability),
    ("concentration", ("measure", "cost"), True, _concentration),
)


def run_analyze(config: AnalysisConfig) -> AnalysisReport:
    """Run every row of the stage table in order; see the module docstring.

    An invalid config raises ``ValueError`` before any stage runs.
    """
    prefactor = config.validate()
    scale = None if config.scale is None else float(config.scale)
    report = AnalysisReport(
        config=config, measure_summary={}, criteria={},
        verification={"scale": scale, "prefactor": prefactor}, curves={},
        stages=[], conclusion="", provenance={})
    out: Dict[str, Any] = {}  # the output of every stage that ran ok
    for name, needs, needs_scale, fill in _STAGES:
        status, detail = "skipped", ""
        if needs_scale and report.verification["scale"] is None:
            detail = "no assembled scale"
            report.verification[name] = {"status": INCONCLUSIVE,
                                         "reason": detail}
        elif any(need not in out for need in needs):
            detail = "prerequisite unavailable"
        else:
            try:
                out[name] = fill(report, out)
                status = "ok"
            except Exception as exc:  # noqa: BLE001 - isolate every stage
                status, detail = "error", f"{type(exc).__name__}: {exc}"
        report.stages.append({"stage": name, "status": status,
                              "detail": detail})
    report.conclusion = _conclude(report, out)
    report.provenance = {
        "version": VERSION,
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "schema": SCHEMA_VERSION,
    }
    return report


#: stages a positive conclusion rests on; each must have run ``ok``
_VERIFIER_STAGES = ("dual", "integrability", "concentration")


def _conclude(report: AnalysisReport, out: Dict[str, Any]) -> str:
    """The conclusion from the stage record and the outputs of ``ok`` stages."""
    primary, dual = out.get("decide"), out.get("dual")
    integ = report.verification.get("integrability", {})
    refuted = (dual is not None and dual.violated) \
        or integ.get("status") == FAILS
    config = report.config
    requested = config.scale is not None or config.prefactor is not None
    if primary is not None and primary.holds:
        if refuted and requested:
            return "requested cost refuted"
        if refuted:
            # certificate and one-sided verifier disagree: by design this is
            # a bug in one of them, not a mathematical finding
            return ("verification refuted the assembled certificate; "
                    "treat as an implementation bug")
        missing = [f"{s['stage']} {s['status']}" for s in report.stages
                   if s["stage"] in _VERIFIER_STAGES and s["status"] != "ok"]
        if missing:
            return ("certificate assembled but not verified "
                    f"({', '.join(missing)})")
        if requested:
            return "requested cost not refuted"
        return "strong TCI certified at the assembled scale"
    if refuted:
        return "no strong TCI found"
    if primary is not None and primary.status == FAILS:
        return ("no strong TCI found" if out.get("integrability")
                else "no certificate found")
    return "inconclusive"


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_FORMATS = ("json", "text", "csv-curves")


def emit_report(report: AnalysisReport, out_dir: Union[str, Path, None] = None,
                formats: Sequence[str] = _FORMATS) -> List[Path]:
    """Write the report in the requested formats; returns the paths written.

    ``json`` -> report.json, ``text`` -> report.txt, ``csv-curves`` -> one
    CSV per curve table (concentration curves have the header
    ``r,empirical,lower_ci,bound``; the modulus table has
    ``h,omega_plus,omega_minus,lower``).
    """
    for f in formats:
        if f not in _FORMATS:
            raise ValueError(f"unknown format {f!r}")
    out = Path(out_dir) if out_dir is not None \
        else Path(report.config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    if "json" in formats or "text" in formats:
        d = report.to_dict()
    if "json" in formats:
        p = out / "report.json"
        p.write_text(_report_json(d))
        written.append(p)
    if "text" in formats:
        p = out / "report.txt"
        p.write_text(_report_text(d))
        written.append(p)
    if "csv-curves" in formats:
        for name, table in sorted(report.curves.items()):
            p = out / f"{name}.csv"
            _write_curve_csv(p, name, table)
            written.append(p)
    return written


def _write_curve_csv(path: Path, name: str, table: Dict[str, Any]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if "rows" in table:  # concentration tables
            w.writerow(["r", "empirical", "lower_ci", "bound"])
            for row in table["rows"]:
                w.writerow([_csv_num(row["r"]), _csv_num(row["empirical"]),
                            _csv_num(row["lower_ci"]), _csv_num(row["bound"])])
        else:  # modulus table: parallel arrays keyed by column name
            cols = list(table)
            w.writerow(cols)
            for i in range(len(table[cols[0]])):
                w.writerow([_csv_num(table[c][i]) for c in cols])


def _csv_num(v) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _print_json(obj) -> None:
    print(json.dumps(_jsonify(obj), sort_keys=True, indent=2))


def _cmd_analyze(args) -> int:
    if args.config:
        config = AnalysisConfig.from_json(Path(args.config).read_text())
    else:
        config = AnalysisConfig()
    overrides = {
        "measure": args.mu, "cost": args.cost, "scale": args.scale,
        "prefactor": args.scale_prefactor, "kappa": args.kappa,
        "seed": args.seed, "dual_trials": args.trials,
        "mc_samples": args.samples, "out_dir": args.out,
    }
    for key, val in overrides.items():
        if val is not None:
            setattr(config, key, val)
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_analyze(config)
    if args.out or config.out_dir:
        paths = emit_report(report, args.out or config.out_dir,
                            formats=args.format or _FORMATS)
        for p in paths:
            print(p)
    else:
        sys.stdout.write(report.to_json())
    return 1 if report.errored else 0


def _cmd_transport(args) -> int:
    nu = parse_measure_spec(args.nu)
    mu = parse_measure_spec(args.mu)
    alpha = parse_cost_spec(args.cost)
    pf = parse_prefactor(args.scale_prefactor)
    if args.method == "monotone":
        value, exact = cost_monotone(nu, mu, alpha, scale=args.scale,
                                     prefactor=pf)
        diagnostics = {"coupling": "quantile"}
    else:
        dn = quantile_discretize(nu, args.atoms)
        dm = quantile_discretize(mu, args.atoms)
        mat = cost_matrix(dn, dm, alpha, scale=args.scale, prefactor=pf)
        value, _plan = cost_lp(dn, dm, mat)
        exact = True  # exact for the discretized pair
        diagnostics = {"atoms": args.atoms}
    _print_json({"schema": SCHEMA_VERSION, "value": value, "exact": exact,
                 "method": args.method, "diagnostics": diagnostics})
    return 0


def _cmd_criteria(args) -> int:
    mu = parse_measure_spec(args.mu)
    check = args.check
    if check == "lip":
        verdict = lipschitz_check(mu)
    elif check == "muckenhoupt":
        d_plus, d_minus = muckenhoupt(mu)
        finite = math.isfinite(d_plus) and math.isfinite(d_minus)
        if finite:
            verdict = Verdict(HOLDS, {"D_plus": d_plus, "D_minus": d_minus})
        else:
            verdict = Verdict(FAILS, {},
                              {"D_plus": d_plus, "D_minus": d_minus})
    elif check == "logconcave":
        verdict = is_log_concave(mu)
    elif check == "lsi-tilde":
        profile, a0, verdict = lsi_tilde_potential(mu)
        verdict.diagnostics.setdefault("a0", a0)
        if profile is not None:
            verdict.diagnostics.setdefault("profile", profile.name)
    else:
        alpha = parse_cost_spec(args.cost)
        if check == "char-lm":
            verdict = decide_strong_tci_lip(mu, alpha, kappa=args.kappa)
        elif check == "char-logconcave":
            verdict = decide_strong_tci_logconcave(mu, alpha,
                                                   kappa=args.kappa)
        else:  # suff-cond
            verdict = suff_condition(mu, alpha)
    out = verdict.to_dict()
    out["schema"] = SCHEMA_VERSION
    out["check"] = check
    _print_json(out)
    return 0


def _cmd_verify(args) -> int:
    mu = parse_measure_spec(args.mu)
    alpha = parse_cost_spec(args.cost)
    pf = parse_prefactor(args.scale_prefactor)
    kind = args.kind
    out: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": kind}
    if kind == "dual":
        rep = dual_check_strong(mu, alpha, scale=args.scale, prefactor=pf,
                                trials=args.trials, seed=args.seed,
                                plain=args.plain)
        out.update({"status": rep.status, "trials": rep.trials,
                    "worst_product": rep.worst_product,
                    "worst_label": rep.worst_label, "seed": rep.seed,
                    "plain_form": rep.plain_form,
                    "worst_phi": {"grid": rep.worst_phi.grid,
                                  "values": rep.worst_phi.values}})
    elif kind == "integrability":
        v = integrability_check(mu, alpha, scale=args.scale, prefactor=pf)
        out.update(v.to_dict())
    elif kind == "marton":
        pair = (_parse_interval(args.set_a), _parse_interval(args.set_b))
        v = marton_bound_check(mu, alpha, [pair], scale=args.scale,
                               prefactor=pf)
        out.update(v.to_dict())
    elif kind == "tensor":
        dm = quantile_discretize(mu, args.atoms)
        v = tensor_check(dm, alpha, n=args.n, trials=args.trials,
                         seed=args.seed, scale=args.scale, prefactor=pf)
        out.update(v.to_dict())
    elif kind == "concentration":
        A = _parse_interval(args.set_a)
        rep = concentration_mc(mu, alpha, scale=args.scale, prefactor=pf,
                               A=A, n=args.n, samples=args.samples,
                               seed=args.seed)
        out.update({"status": rep.verdict.status, "n": rep.n,
                    "mass_a": rep.mass_a, "samples": rep.samples,
                    "seed": rep.seed, "rows": rep.rows()})
        if args.csv:
            _write_curve_csv(Path(args.csv), "concentration",
                             {"rows": rep.rows()})
    else:  # lsi
        C, t = args.const_c, args.const_t
        if C is None or t is None:
            lc = is_log_concave(mu)
            primary = (_decide_logconcave(mu, alpha, DEFAULT_KAPPA,
                                          validate_admissible(alpha), lc)
                       if lc.holds else decide_strong_tci_lip(mu, alpha))
            if not primary.holds:
                out.update({"status": INCONCLUSIVE,
                            "reason": "no assembled rate to derive (C, t); "
                                      "pass --const-c/--const-t"})
                _print_json(out)
                return 0
            a = primary.constants["a"]
            lam = 0.5
            C = lam / (1.0 - lam) if C is None else C
            t = 1.0 / (a * lam) if t is None else t
        beta = conjugate(alpha)
        v = lsi_check(mu, beta, C, t)
        out.update(v.to_dict())
        out["C"], out["t"] = C, t
    _print_json(out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_pair_flags(p):
    p.add_argument("--mu", required=True, help="measure grammar string")
    p.add_argument("--cost", required=True, help="cost grammar string")
    p.add_argument("--scale", type=float, default=None,
                   help="inner scale a in alpha(a(x-y))")
    p.add_argument("--scale-prefactor", default=None,
                   help="cost prefactor; accepts ratios like 1/36")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tci-lab",
        description="transport-entropy inequality laboratory on the line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full criteria battery + verification")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--mu", help="measure grammar (overrides config)")
    p.add_argument("--cost", help="cost grammar (overrides config)")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--scale-prefactor", default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="dual-check trial count")
    p.add_argument("--samples", type=int, default=None,
                   help="concentration sample count")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", action="append", choices=_FORMATS,
                   help="repeatable; default: all formats")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("transport", help="transport cost between two laws")
    p.add_argument("--nu", required=True, help="source measure grammar")
    p.add_argument("--mu", required=True, help="target measure grammar")
    p.add_argument("--cost", required=True)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--scale-prefactor", default=None)
    p.add_argument("--method", choices=("monotone", "lp"),
                   default="monotone")
    p.add_argument("--atoms", type=int, default=64,
                   help="discretization size for --method lp")
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("criteria", help="run a single decision criterion")
    p.add_argument("--mu", required=True)
    p.add_argument("--cost", help="required by char-*/suff-cond checks")
    p.add_argument("--check", required=True,
                   choices=("lip", "muckenhoupt", "logconcave", "char-lm",
                            "char-logconcave", "suff-cond", "lsi-tilde"))
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.set_defaults(fn=_cmd_criteria)

    p = sub.add_parser("verify", help="numerical verifiers")
    p.add_argument("kind", choices=("dual", "integrability", "marton",
                                    "tensor", "concentration", "lsi"))
    _add_pair_flags(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--plain", action="store_true",
                   help="dual: plain form exp(-int phi) second factor")
    p.add_argument("--set-a", default="0,inf",
                   help="interval lo,hi (marton / concentration)")
    p.add_argument("--set-b", default="-inf,0",
                   help="interval lo,hi (marton)")
    p.add_argument("--n", type=int, default=2,
                   help="product dimension (tensor / concentration)")
    p.add_argument("--atoms", type=int, default=4,
                   help="tensor: atoms in the discretized base")
    p.add_argument("--const-c", type=float, default=None,
                   help="lsi: constant C (default from the assembled rate)")
    p.add_argument("--const-t", type=float, default=None,
                   help="lsi: slope t (default from the assembled rate)")
    p.add_argument("--csv", help="concentration: write the curve CSV here")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "criteria" and args.check in (
            "char-lm", "char-logconcave", "suff-cond") and not args.cost:
        print("error: --cost is required for this check", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
