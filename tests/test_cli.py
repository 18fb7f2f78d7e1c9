"""End-to-end tests for the command-line pipeline: spec grammars, config
round-trips, the analyze stages, report emission, and the subcommands."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcilab import cli, costs, criteria, measures, transport, verify
from tcilab.cli import (
    AnalysisConfig,
    emit_report,
    parse_cost_spec,
    parse_measure_spec,
    parse_prefactor,
    run_analyze,
)
from tcilab.verdict import FAILS, INCONCLUSIVE, Verdict


class TestGrammar:
    def test_measure_specs(self):
        assert parse_measure_spec("exponential").name == "exponential_symmetric"
        g = parse_measure_spec("gaussian sigma=2 mean=1")
        assert g.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert parse_measure_spec("exp_power p=3").name == "exp_power(p=3)"
        assert parse_measure_spec("cauchy").name == "cauchy"
        one = parse_measure_spec("one_sided_exp rate=2")
        assert one.cdf(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_cost_specs(self):
        assert parse_cost_spec("alpha1").fn(3.0) == 3.0
        assert parse_cost_spec("theta_p p=2").fn(2.0) == 4.0
        # the grammar keyword "lambda" maps onto the constructor's "lam"
        g = parse_cost_spec("gamma lambda=0.5")
        assert g.fn(0.0) == 0.0
        assert not costs.validate_admissible(parse_cost_spec("maurey")).holds

    def test_unknown_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_measure_spec("lognormal")
        with pytest.raises(ValueError):
            parse_cost_spec("alpha1 p=2")
        with pytest.raises(ValueError):
            parse_measure_spec("gaussian sigma=abc")

    def test_table_measure_from_csv(self, tmp_path):
        xs = np.linspace(-8, 8, 201)
        path = tmp_path / "pot.csv"
        rows = "\n".join(f"{x},{0.5 * x * x}" for x in xs)
        path.write_text("x,V\n" + rows + "\n")
        mu = parse_measure_spec(f"table file={path}")
        assert mu.cdf(0.0) == pytest.approx(0.5, abs=1e-9)
        assert mu.quantile(0.841344746) == pytest.approx(1.0, abs=1e-3)

    def test_table_cost_from_csv(self, tmp_path):
        ts = np.linspace(0, 6, 61)
        path = tmp_path / "cost.csv"
        rows = "\n".join(f"{t},{t * t}" for t in ts)
        path.write_text("t,alpha\n" + rows + "\n")
        c = parse_cost_spec(f"table file={path}")
        assert c.fn(2.0) == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("kind,parse,row", [
        ("cost", parse_cost_spec, "2,nan"),
        ("measure", parse_measure_spec, "inf,2"),
    ])
    def test_non_finite_csv_entry_rejected(self, tmp_path, kind, parse, row):
        path = tmp_path / f"{kind}.csv"
        path.write_text("a,b\n0,0\n1,1\n" + row + "\n3,9\n4,16\n")
        with pytest.raises(ValueError, match="must be finite"):
            parse(f"table file={path}")

    def test_prefactor_forms(self):
        assert parse_prefactor("1/36") == pytest.approx(1.0 / 36.0, rel=1e-15)
        assert parse_prefactor("0.5") == 0.5
        assert parse_prefactor(2) == 2.0
        assert parse_prefactor(None) == 1.0
        with pytest.raises(ValueError):
            parse_prefactor("1/0")


class TestConfig:
    def test_round_trip(self):
        cfg = AnalysisConfig(measure="gaussian sigma=1", cost="theta_p p=2",
                             seed=5, dual_trials=50)
        again = AnalysisConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_key_rejected(self):
        # quad_epsabs and mc_samples were config fields once; old files
        # carrying them fail too
        for key in ("bogus", "quad_epsabs", "mc_samples"):
            with pytest.raises(ValueError, match="unknown"):
                AnalysisConfig.from_dict({"measure": "exponential", key: 1})

    def test_hash_tracks_content(self):
        a = AnalysisConfig(seed=0)
        b = AnalysisConfig(seed=1)
        assert a.config_hash() != b.config_hash()
        assert len(a.config_hash()) == 64

    @pytest.mark.parametrize("field,value", [
        ("dual_trials", -3), ("seed", -1),
        ("seed", 2 ** 128), ("seed", 1.5), ("kappa", 0.0),
        ("measure", 5), ("cost", None), ("scale", float("nan")),
        ("scale", -1.0), ("scale", True), ("prefactor", "abc"),
        ("prefactor", "1/0"), ("prefactor", "nan"),
    ])
    def test_bad_values_rejected_before_any_stage(self, field, value,
                                                  monkeypatch):
        def never(spec):
            raise AssertionError("a stage ran on an invalid config")

        monkeypatch.setattr(cli, "parse_measure_spec", never)
        cfg = AnalysisConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        with pytest.raises(ValueError, match=field):
            run_analyze(cfg)

    def test_edge_values_accepted(self):
        AnalysisConfig(dual_trials=0, seed=2 ** 128 - 1,
                       kappa=1).validate()


@pytest.fixture(scope="module")
def small_run():
    cfg = AnalysisConfig(measure="exponential", cost="alpha1",
                         dual_trials=30, seed=0)
    return run_analyze(cfg)


class TestRunAnalyze:
    def test_reference_law_certified(self, small_run):
        rep = small_run
        assert rep.conclusion == "strong TCI certified at the assembled scale"
        assert not rep.errored
        stages = {s["stage"]: s["status"] for s in rep.stages}
        assert stages["decide"] == "ok"
        assert stages["dual"] == "ok"

    def test_criteria_payload(self, small_run):
        crit = small_run.criteria
        assert crit["lipschitz"]["status"] == "holds"
        assert crit["char_lm"]["status"] == "holds"
        assert crit["char_lm"]["constants"]["a"] == pytest.approx(0.25)

    def test_verification_payload(self, small_run):
        ver = small_run.verification
        assert ver["dual"]["status"] == "no_violation"
        assert ver["integrability"]["status"] == "holds"
        assert "concentration_n1" in small_run.curves
        assert "modulus" in small_run.curves

    @pytest.mark.parametrize("rate", ["0.5", "1", "2"])
    def test_one_sided_law_certified(self, rate):
        rep = run_analyze(AnalysisConfig(
            measure=f"one_sided_exp rate={rate}", cost="alpha1",
            dual_trials=30, seed=0))
        assert rep.conclusion == "strong TCI certified at the assembled scale"
        assert rep.criteria["char_lm"]["status"] == "holds"
        assert rep.verification["dual"]["status"] == "no_violation"
        assert rep.verification["integrability"]["status"] == "holds"

    def test_heavy_tail_not_certified(self):
        cfg = AnalysisConfig(measure="cauchy", cost="alpha1",
                             dual_trials=20)
        rep = run_analyze(cfg)
        assert rep.conclusion == "no strong TCI found"
        assert not rep.errored
        stages = {s["stage"]: s["status"] for s in rep.stages}
        assert stages["dual"] == "skipped"

    @pytest.mark.parametrize("verifier,stage", [
        ("dual_check_strong", "dual"),
        ("integrability_check", "integrability"),
        ("concentration_bracket", "concentration"),
    ])
    def test_failed_verifier_blocks_certificate(self, verifier, stage,
                                                monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("verifier unavailable")

        monkeypatch.setattr(cli, verifier, broken)
        rep = run_analyze(AnalysisConfig(measure="exponential", cost="alpha1",
                                         dual_trials=10))
        stages = {s["stage"]: s["status"] for s in rep.stages}
        assert stages["decide"] == "ok" and stages[stage] == "error"
        assert "certified" not in rep.conclusion
        assert rep.conclusion == ("certificate assembled but not verified "
                                  f"({stage} error)")

    def test_criteria_prerequisites_run_once(self, monkeypatch):
        # decide and suff_cond take the verdicts of the shape and lipschitz
        # stages instead of computing their own
        calls = dict.fromkeys(("validate_admissible", "lipschitz_check",
                               "is_log_concave"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, criteria):
            for name in calls:
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        rep = run_analyze(AnalysisConfig(measure="exponential", cost="alpha1",
                                         dual_trials=10))
        assert rep.conclusion == "strong TCI certified at the assembled scale"
        assert calls == dict.fromkeys(calls, 1)
        # a direct call validates for itself, and an inadmissible profile
        # is refused before the Lipschitz check
        v = criteria.decide_strong_tci_lip(measures.make_builtin("exponential"),
                                           costs.builtin_cost("maurey"))
        assert v.status == "inconclusive"
        assert v.diagnostics["reason"] == \
            "cost profile outside the admissible class"
        assert calls == {"validate_admissible": 2, "lipschitz_check": 1,
                         "is_log_concave": 1}

    def test_integrability_scan_reads_the_anchors_once(self, monkeypatch):
        # with no assembled scale the stage checks seven scales; the ray
        # anchors and their masses do not depend on the scale
        seen = []
        anchors = cli._ray_anchors
        monkeypatch.setattr(cli, "_ray_anchors",
                            lambda mu: seen.append(mu) or anchors(mu))
        rep = run_analyze(AnalysisConfig(measure="cauchy", cost="alpha1",
                                         dual_trials=10))
        assert len(seen) == 1
        pf = rep.verification["prefactor"]
        alpha = costs.builtin_cost("alpha1")
        assert rep.verification["integrability_scan"] == [
            {"scale": a, "status": verify.integrability_check(
                seen[0], alpha, scale=a, prefactor=pf).status}
            for a in cli._REFUTE_SCALES]

    @pytest.mark.parametrize("check,stage", [("lipschitz_check", "lipschitz"),
                                             ("is_log_concave", "shape")])
    def test_failed_prerequisite_skips_the_decisions(self, check, stage,
                                                     monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("check unavailable")

        monkeypatch.setattr(cli, check, broken)
        rep = run_analyze(AnalysisConfig(measure="exponential", cost="alpha1",
                                         dual_trials=10))
        stages = {s["stage"]: s for s in rep.stages}
        assert stages[stage]["status"] == "error"
        for name in ("decide", "suff_cond"):
            assert (stages[name]["status"], stages[name]["detail"]) == \
                ("skipped", "prerequisite unavailable")
        assert "char_lm" not in rep.criteria
        assert rep.conclusion == "inconclusive"

    def test_refuted_requested_cost_is_not_a_bug(self):
        # scale 1 is four times the assembled 0.25: the verifiers refute the
        # cost the config asked for, not the assembled certificate
        rep = run_analyze(AnalysisConfig(scale=1.0, dual_trials=20))
        assert rep.verification["dual"]["status"] == "violation_found"
        assert rep.verification["integrability"]["status"] == "fails"
        assert rep.conclusion == "requested cost refuted"

    @pytest.mark.parametrize("status,requested,conclusion", [
        (FAILS, False, "verification refuted the assembled certificate; "
                       "treat as an implementation bug"),
        (FAILS, True, "requested cost refuted"),
        (INCONCLUSIVE, False, "certificate assembled but not verified "
                              "(concentration inconclusive)"),
        (INCONCLUSIVE, True, "certificate assembled but not verified "
                             "(concentration inconclusive)"),
    ])
    def test_concentration_verdict_gates_the_conclusion(
            self, status, requested, conclusion, monkeypatch):
        # the stage runs ok; its tables alone refute or leave it unverified
        def bracket(mu, alpha, n, **kwargs):
            v = verify.concentration_bracket(mu, alpha, n=n, **kwargs)
            return Verdict(status if n == 4 else v.status, {}, v.diagnostics)

        monkeypatch.setattr(cli, "concentration_bracket", bracket)
        extra = {"prefactor": "1/72"} if requested else {}
        rep = run_analyze(AnalysisConfig(dual_trials=10, **extra))
        stages = {s["stage"]: s["status"] for s in rep.stages}
        assert stages == dict.fromkeys(stages, "ok")
        assert [t["status"] for t in rep.verification["concentration"]] \
            == ["holds", status]
        assert rep.conclusion == conclusion

    def test_refuted_certificate_is_a_bug(self, monkeypatch):
        # the verifiers tested the assembled certificate itself: a refutation
        # means the certificate or the verifier is wrong
        monkeypatch.setattr(cli, "integrability_check",
                            lambda *a, **k: Verdict(FAILS, {}, {"forced": 1}))
        rep = run_analyze(AnalysisConfig(dual_trials=10))
        assert rep.criteria["char_logconcave"]["status"] == "holds"
        assert rep.verification["integrability"]["status"] == "fails"
        assert rep.conclusion == ("verification refuted the assembled "
                                  "certificate; treat as an implementation "
                                  "bug")

    def test_failed_decision_without_refutation_finds_no_certificate(
            self, monkeypatch):
        # cauchy's moments diverge; with the scan not refuting every scale
        # the failed decision alone does not refute the inequality
        monkeypatch.setattr(cli, "_integrability_at",
                            lambda *a, **k: Verdict(INCONCLUSIVE, {}, {}))
        rep = run_analyze(AnalysisConfig(measure="cauchy", cost="alpha1",
                                         dual_trials=10))
        assert rep.criteria["char_lm"]["status"] == "fails"
        assert rep.verification["integrability"]["status"] == "inconclusive"
        assert rep.conclusion == "no certificate found"

    def test_requested_prefactor_alone_is_not_certified(self):
        # the verifiers test alpha(a x) / 1000 at the assembled scale a, a
        # weaker inequality than the certificate's alpha(a x) / 72
        rep = run_analyze(AnalysisConfig(prefactor="1/1000", dual_trials=20))
        assert rep.verification["scale"] == 0.25
        assert rep.verification["prefactor"] == 1e-3
        assert [s["status"] for s in rep.stages] == ["ok"] * len(rep.stages)
        assert rep.conclusion == "requested cost not refuted"

    @pytest.mark.parametrize("measure,cost,stage", [
        ("gaussian sigma=nan", "alpha1", "measure"),
        ("exponential", "alpha_p p=nan", "cost"),
    ])
    def test_non_finite_parameter_errors_its_stage(self, measure, cost, stage):
        rep = run_analyze(AnalysisConfig(measure=measure, cost=cost,
                                         dual_trials=10))
        stages = {s["stage"]: s for s in rep.stages}
        assert stages[stage]["status"] == "error"
        assert "must be finite" in stages[stage]["detail"]
        assert rep.conclusion == "inconclusive"

    def test_byte_identical_reports(self):
        cfg = AnalysisConfig(measure="exponential", cost="alpha1",
                             dual_trials=10, seed=9)
        a = run_analyze(cfg).to_json()
        b = run_analyze(cfg).to_json()
        assert a == b


#: one config per report path: certified, heavy tail, log-concave, a
#: non-log-concave power law, a table measure, a requested cost, and a
#: measure error that skips everything downstream
_PANEL = {
    "exponential": {},
    "cauchy": {"measure": "cauchy"},
    "gaussian-theta2": {"measure": "gaussian sigma=1", "cost": "theta_p p=2"},
    "exp_power-alpha_p": {"measure": "exp_power p=1.5",
                          "cost": "alpha_p p=1.5"},
    "quartic-table": {"measure": "table file=quartic.csv"},
    "requested-cost": {"scale": 0.25, "prefactor": "1/72"},
    "lognormal": {"measure": "lognormal"},
}

#: sha256 of (to_json(), to_text()) per panel config
_PANEL_DIGESTS = {
    "cauchy": (
        "f8818b404f98df2ba86aa3ad3b363f2cf8063a02facd0a9e10f2db7f4d56c501",
        "119e0424080186c34a75e6c2dde42301a5486f86ab9f00f459084a54da837cba"),
    "exp_power-alpha_p": (
        "c87763ee70b1041b2e4951b13e2a720308b24700f3faa9124e05cd3a3905fd05",
        "c0c038ceba0c7b35747e83ff50c63aff43a12cf89a2d67940676b31539630e4e"),
    "exponential": (
        "825acf19da70ad2e6347e593a9bec8a30cf7d895fd55a42010b3828fc14689b2",
        "cfa49f5b897af3e0464cbd215cb62a19e56fde69728f15cf2d9379f707f2e906"),
    "gaussian-theta2": (
        "656513e45fc334b0c9e3678aa05233eef7b89f47dc5cec5211b7eb31776dbb60",
        "f255e316a07e778a81f65af81324939466be6982e8361c89cd83e41ae949287d"),
    "lognormal": (
        "2b3df042a3ed8b1203733ec425ed963b41a052ec8018e062215621892c777965",
        "ef535e64033471fa0b5e04831b130fdbff390a9a3458c01fde5bd7181131eff7"),
    "quartic-table": (
        "8abe8b7730f4ad6c5122113760d0404fb2703c0933dc5a1dbd973614b6b55eb9",
        "4e49c59eadc728a6990bf4a387d224101831778e9b8c07bea468965b4d020af9"),
    "requested-cost": (
        "a40463d35954be79b09c1e03f0ebd7ed2eb096600d7dcb79eedb4772e68020f6",
        "5d7786f1e9b1aba5dd11451893373c8cd0d70bdd75dd5d87dcdca29875159d3e"),
}


@pytest.mark.parametrize("name", sorted(_PANEL))
def test_report_bytes_pinned(name, tmp_path, monkeypatch):
    # every report byte is a function of the config alone, so a refactor of
    # the pipeline must reproduce these digests exactly
    monkeypatch.setattr(cli, "VERSION", "pinned")
    monkeypatch.chdir(tmp_path)
    # the quartic table of tests/test_criteria.py, at a relative path
    xs = np.linspace(-4.0, 4.0, 129).tolist()
    Path("quartic.csv").write_text(
        "".join(f"{x!r},{x ** 4 / 4.0!r}\n" for x in xs))
    rep = run_analyze(AnalysisConfig(dual_trials=50, seed=3,
                                     **_PANEL[name]))
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (rep.to_json(), rep.to_text()))
    assert got == _PANEL_DIGESTS[name]


_DUAL_PRODUCT = (
    "from tcilab import costs, measures, verify\n"
    "rep = verify.dual_check_strong(measures.make_builtin('exponential'), "
    "costs.builtin_cost('alpha1'), scale=0.25, prefactor=1 / 72, "
    "trials=400, seed=0)\n"
    "print(repr(rep.worst_product))")


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the dual integrals reduce with np.sum, whose order is fixed; np.dot's
    # OpenBLAS order follows the thread count.  np.convolve reduces through
    # the dtype's dot: the concentration rows of the default pair and of
    # scale 1 (where the n = 4 bracket is about 3e-3 wide) keep their bits
    src = str(Path(cli.__file__).resolve().parents[1])
    seen = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        product = subprocess.run([sys.executable, "-c", _DUAL_PRODUCT],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
        reports = []
        for flags in ([], ["--scale", "1", "--trials", "10"]):
            subprocess.run([sys.executable, "-m", "tcilab.cli", "analyze",
                            "--out", "out", "--format", "json", *flags],
                           cwd=tmp_path, env=env, capture_output=True,
                           check=True)
            reports.append((tmp_path / "out" / "report.json").read_bytes())
            doc = json.loads(reports[-1])
            tables = doc["verification"]["concentration"]
            assert [t["cells"] for t in tables] == [0, verify._CELLS]
            assert len(doc["curves"]["concentration_n4"]["rows"]) == 12
        assert tables[1]["width"] > 1e-3
        seen.add((product, *reports))
    assert len(seen) == 1


class TestEmission:
    def test_files_and_headers(self, tmp_path):
        cfg = AnalysisConfig(measure="exponential", cost="alpha1",
                             dual_trials=10)
        rep = run_analyze(cfg)
        emit_report(rep, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "report.json" in names
        assert "report.txt" in names
        assert "concentration_n1.csv" in names
        assert "modulus.csv" in names
        conc = (tmp_path / "concentration_n1.csv").read_text().splitlines()
        assert conc[0] == "r,lower,upper,bound"
        mod = (tmp_path / "modulus.csv").read_text().splitlines()
        assert mod[0] == "h,omega_plus,omega_minus,lower"
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed["schema"] == 1

    def test_json_text_round_trip_stable(self, tmp_path):
        cfg = AnalysisConfig(measure="exponential", cost="alpha1",
                             dual_trials=10)
        rep = run_analyze(cfg)
        text = rep.to_text()
        assert "conclusion" in text
        assert rep.to_json() == rep.to_json()


class TestMainAnalyze:
    def test_stdout_json(self, capsys):
        rc = cli.main(["analyze", "--mu", "exponential", "--cost", "alpha1",
                       "--trials", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["conclusion"] == "strong TCI certified at the assembled scale"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"measure": "exponential",
                                        "cost": "alpha1",
                                        "dual_trials": 10,
                                        "seed": 1}))
        rc = cli.main(["analyze", "--config", str(cfg_path), "--mu", "cauchy"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["measure"] == "cauchy"
        assert doc["conclusion"] == "no strong TCI found"

    def test_bad_grammar_exits_one(self, capsys):
        # analyze isolates the failure inside the report rather than
        # aborting: the stage records the error and the exit code flags it
        rc = cli.main(["analyze", "--mu", "lognormal", "--cost", "alpha1"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        stages = {s["stage"]: s for s in doc["stages"]}
        assert stages["measure"]["status"] == "error"
        assert doc["conclusion"] == "inconclusive"

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        for flags, field in ((["--trials", "-3"], "dual_trials"),
                             (["--scale", "nan"], "scale"),
                             (["--scale-prefactor", "abc"], "prefactor")):
            rc = cli.main(["analyze"] + flags)
            assert rc == 2
            captured = capsys.readouterr()
            assert field in captured.err and captured.out == ""
        # flags are validated after they override the config file
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        rc = cli.main(["analyze", "--config", str(cfg_path), "--seed", "-1"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_subcommand_grammar_reports_error(self, capsys):
        rc = cli.main(["transport", "--nu", "lognormal", "--mu", "exponential",
                       "--cost", "alpha1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_cost_parameter_reports_error(self, capsys):
        rc = cli.main(["verify", "dual", "--mu", "exponential",
                       "--cost", "alpha1 p=2", "--trials", "5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSubcommands:
    def test_verify_dual_fields(self, capsys):
        rc = cli.main(["verify", "dual", "--mu", "exponential",
                       "--cost", "alpha1", "--scale", "0.25",
                       "--scale-prefactor", "1/72", "--trials", "20",
                       "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "no_violation"
        assert doc["worst_product"] <= 1.0 + 1e-6
        assert doc["trials"] >= 20

    def test_verify_marton_negative_interval(self, capsys):
        rc = cli.main(["verify", "marton", "--mu", "exponential",
                       "--cost", "alpha1", "--scale", "0.25",
                       "--scale-prefactor", "1/72",
                       "--set-a=1,inf", "--set-b=-inf,-1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "holds"

    def test_transport_methods_agree(self, capsys):
        rc = cli.main(["transport", "--nu", "gaussian sigma=1",
                       "--mu", "exponential", "--cost", "theta_p p=2",
                       "--method", "monotone"])
        assert rc == 0
        mono = json.loads(capsys.readouterr().out)
        rc = cli.main(["transport", "--nu", "gaussian sigma=1",
                       "--mu", "exponential", "--cost", "theta_p p=2",
                       "--method", "lp", "--atoms", "64"])
        assert rc == 0
        lp = json.loads(capsys.readouterr().out)
        assert mono["value"] == pytest.approx(0.22433978, abs=1e-6)
        # the discretized plan can only undershoot the continuous optimum
        assert lp["value"] <= mono["value"] + 1e-6

    def test_transport_lp_is_monotone_for_convex_cost(self, capsys):
        # under a convex cost the monotone coupling of the discretized pair
        # is optimal, so the 256-atom LP must reproduce its cost
        nu, mu = "gaussian sigma=1", "exponential"
        rc = cli.main(["transport", "--nu", nu, "--mu", mu,
                       "--cost", "theta_p p=2", "--method", "lp",
                       "--atoms", "256"])
        assert rc == 0
        lp = json.loads(capsys.readouterr().out)
        dn = measures.quantile_discretize(cli.parse_measure_spec(nu), 256)
        dm = measures.quantile_discretize(cli.parse_measure_spec(mu), 256)
        mono = transport.cost_monotone_discrete(
            dn, dm, costs.builtin_cost("theta_p", p=2))
        assert lp["value"] == pytest.approx(mono, rel=0, abs=1e-9)

    def test_criteria_check(self, capsys):
        rc = cli.main(["criteria", "--mu", "exponential", "--check", "lip"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "holds"
        assert doc["constants"]["A_plus"] == pytest.approx(1.0, abs=1e-6)

    def test_criteria_char_requires_cost(self, capsys):
        rc = cli.main(["criteria", "--mu", "exponential", "--check", "char-lm"])
        assert rc == 2
        assert "--cost" in capsys.readouterr().err

    def test_failing_verdict_still_exits_zero(self, capsys):
        # a clean run that concludes "fails" is a successful analysis
        rc = cli.main(["criteria", "--mu", "cauchy", "--check", "lip"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "fails"


def _run_json(capsys, argv):
    rc = cli.main(argv)
    return rc, json.loads(capsys.readouterr().out)


class TestCriteriaChecks:
    def test_muckenhoupt_exponential_holds(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "exponential",
                                     "--check", "muckenhoupt"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["constants"]["D_plus"] == pytest.approx(1.0, abs=1e-6)
        assert doc["constants"]["D_minus"] == pytest.approx(1.0, abs=1e-6)

    def test_muckenhoupt_cauchy_fails(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "cauchy",
                                     "--check", "muckenhoupt"])
        assert (rc, doc["status"]) == (0, "fails")
        assert doc["diagnostics"]["D_plus"] == "inf"

    def test_logconcave(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "gaussian",
                                     "--check", "logconcave"])
        assert (rc, doc["status"]) == (0, "holds")
        # both hazards sampled from the median past the 1e-10 quantiles
        diag = doc["diagnostics"]
        assert diag["tolerance"] == 1e-7
        assert diag["plus"]["reach"] > 6.36 and diag["minus"]["reach"] < -6.36
        assert diag["plus"]["samples"] > 512 and diag["minus"]["samples"] > 512

    def test_lsi_tilde_gaussian(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "gaussian",
                                     "--check", "lsi-tilde"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["constants"]["a0"] == pytest.approx(2.0 ** 0.5, rel=1e-12)
        assert doc["diagnostics"]["profile"] == "spliced(gaussian(sigma=1))"

    def test_char_lm_exponential(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "exponential",
                                     "--cost", "alpha1", "--check", "char-lm"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["constants"]["b"] == 0.5
        assert doc["constants"]["a"] == pytest.approx(0.25, rel=1e-12)

    def test_char_logconcave_gaussian(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "gaussian",
                                     "--cost", "theta_p p=2",
                                     "--check", "char-logconcave"])
        assert (rc, doc["status"]) == (0, "holds")
        # int exp(x^2 / 4) dN(0, 1) = sqrt(2)
        assert doc["constants"]["K"] == pytest.approx(2.0 ** 0.5, rel=1e-9)

    def test_suff_cond_gaussian(self, capsys):
        rc, doc = _run_json(capsys, ["criteria", "--mu", "gaussian",
                                     "--cost", "theta_p p=2",
                                     "--check", "suff-cond"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["constants"]["lambda"] == 0.125
        assert doc["constants"]["ratio_bound"] == pytest.approx(0.25,
                                                                rel=1e-12)


class TestVerifyKinds:
    def test_integrability(self, capsys):
        rc, doc = _run_json(capsys, ["verify", "integrability",
                                     "--mu", "exponential", "--cost", "alpha1",
                                     "--scale", "0.25",
                                     "--scale-prefactor", "1/72"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["constants"]["worst_ray_product"] <= 1.0

    def test_tensor(self, capsys):
        rc, doc = _run_json(capsys, ["verify", "tensor", "--mu", "exponential",
                                     "--cost", "alpha1", "--scale", "0.25",
                                     "--scale-prefactor", "1/72",
                                     "--atoms", "3", "--n", "2",
                                     "--trials", "2"])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["diagnostics"]["states"] == 9

    def test_tensor_refutes_an_oversized_cost(self, capsys):
        rc, doc = _run_json(capsys, ["verify", "tensor", "--mu", "exponential",
                                     "--cost", "alpha1", "--scale", "1",
                                     "--scale-prefactor", "1",
                                     "--atoms", "3", "--n", "2",
                                     "--trials", "2"])
        assert (rc, doc["status"]) == (0, "fails")
        assert doc["constants"] == {}
        assert doc["diagnostics"]["worst_slack"] > 1e-7
        assert doc["diagnostics"]["worst_case"].startswith("trial_")

    def test_concentration_csv(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        rc, doc = _run_json(capsys, ["verify", "concentration",
                                     "--mu", "exponential", "--cost", "alpha1",
                                     "--scale", "0.25",
                                     "--scale-prefactor", "1/72", "--n", "2",
                                     "--samples", "2000",
                                     "--csv", str(path)])
        assert (rc, doc["status"]) == (0, "holds")
        assert doc["mass_a"] == pytest.approx(0.25, abs=1e-12)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,empirical,lower_ci,bound"
        assert len(lines) == len(doc["rows"]) + 1

    def test_lsi_derives_constants(self, capsys):
        rc, doc = _run_json(capsys, ["verify", "lsi", "--mu", "gaussian",
                                     "--cost", "theta_p p=2"])
        assert (rc, doc["status"]) == (0, "holds")
        # C = lam / (1 - lam) and t = 1 / (a lam) at lam = 1/2, a = 1/4
        assert doc["C"] == 1.0
        assert doc["t"] == pytest.approx(8.0, rel=1e-12)

    def test_lsi_checks_the_shape_once(self, capsys, monkeypatch):
        # the derived constants come from the log-concave decision, which
        # takes the verdict of the one shape test instead of its own
        calls = dict.fromkeys(("validate_admissible", "is_log_concave"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, criteria):
            for name in calls:
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        rc, doc = _run_json(capsys, ["verify", "lsi", "--mu", "gaussian",
                                     "--cost", "theta_p p=2"])
        assert (rc, doc["status"]) == (0, "holds")
        assert calls == dict.fromkeys(calls, 1)

    def test_lsi_without_assembled_rate(self, capsys):
        rc, doc = _run_json(capsys, ["verify", "lsi", "--mu", "cauchy",
                                     "--cost", "alpha1"])
        assert (rc, doc["status"]) == (0, "inconclusive")
        assert doc["reason"].startswith("no assembled rate")
