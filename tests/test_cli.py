"""End-to-end tests of the experiment runner."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spme
from spme import cli
from spme.galerkin import monte_carlo, simulate


_BASE = {
    "domain": {"n_grid": 8, "alpha": 1.0},
    "drift": {"mode": "A1", "psi": {"terms": [[1.0, 1.0]]}},
    "noise": {"sigma0": 0.1, "decay": 2.0, "n_modes": 8},
    "stepper": {"dt": 0.001, "T": 0.1, "n_modes": 8},
    "run": {"ensemble_size": 8, "master_seed": 42, "save_every": 10},
    "initial": {"shape": "eigenmode", "k": 1, "amplitude": 1.0},
}


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(_BASE)
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


def test_simulate_writes_artifacts_and_reruns_byte_identically(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "a") == 0
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "b") == 0
    for name in ("trajectory.csv", "stats.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["master_seed"] == 42
    assert manifest["status"] == "PASS"
    assert len(manifest["config_sha256"]) == 64
    assert "PASS simulate" in capsys.readouterr().out


def test_simulate_zero_horizon_single_row(tmp_path):
    cfg = _write_config(tmp_path, stepper={"dt": 0.001, "T": 0.0, "n_modes": 8})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header plus the t=0 state


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, stepper={"dt": 0.001, "T": 0.1,
                                           "n_modes": 8, "dd": 1})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "stepper.dd" in capsys.readouterr().err


def test_missing_section_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, domain=None)
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "domain" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert _run("simulate", "--config", path, "--out", tmp_path / "out") == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, run={"ensemble_size": 8, "save_every": 10})
    monkeypatch.setenv("SPME_SEED", "7")
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "env") == 0
    assert json.loads((tmp_path / "env" / "manifest.json").read_text())[
        "master_seed"] == 7
    cfg2 = _write_config(tmp_path, name="with_seed.json")
    assert _run("simulate", "--config", cfg2, "--out", tmp_path / "cfg") == 0
    assert json.loads((tmp_path / "cfg" / "manifest.json").read_text())[
        "master_seed"] == 42
    assert _run("simulate", "--config", cfg2, "--out", tmp_path / "flag",
                "--seed", "99") == 0
    assert json.loads((tmp_path / "flag" / "manifest.json").read_text())[
        "master_seed"] == 99


def test_no_seed_anywhere_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPME_SEED", raising=False)
    cfg = _write_config(tmp_path, run={"ensemble_size": 8})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "run.master_seed" in capsys.readouterr().err


def test_import_loads_no_heavy_scipy_subpackage(tmp_path):
    # No spme code path loads scipy: importing spme, an explicit run, an
    # ensemble that draws on its worker thread, the A2 certificates and a
    # semi-implicit step (whose Newton solve calls the LAPACK gtsv that numpy
    # has loaded) leave no scipy module, whose import adds time and memory.
    cfg = _write_config(tmp_path, drift={"mode": "A2",
                                         "psi": {"terms": [[1.0, 1.0], [1.0, 3.0]]},
                                         "phi": {"phi0_terms": [[1.0, 1.0]]}})
    argv = ["check-conditions", "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = f"""
import sys
sys.path.insert(0, {str(Path(spme.__file__).parents[1])!r})
import numpy as np
import spme, spme.cli
from spme import cli, galerkin
from spme.drift import DriftSpec, PhiSpec, PsiSpec
from spme.galerkin import StepperConfig, _StepPlan, monte_carlo, simulate
from spme.noise import NoiseSpec
from spme.triple import Field, SpectralDomain

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

dom = SpectralDomain(8)
pme = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
noise = NoiseSpec(sigma=(0.1, 0.05))
X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
explicit = StepperConfig(dt=1e-3, T=0.01, n_modes=8)
simulate(explicit, dom, pme, noise, X0, 0)
galerkin._BLOCK_BYTES = 5 * 2 * noise.n_modes * 8  # 5 steps a block: 2 blocks of 2 paths
monte_carlo(explicit, dom, pme, noise, X0, 0, 2, ("h_norm_sq",))
assert cli.main({argv!r}) == 0
print(scipy_modules())
implicit = StepperConfig(dt=1e-3, T=1e-3, n_modes=8, scheme="semi-implicit")
_StepPlan(implicit, dom, pme, noise).step(0.0, X0.coeffs[None], np.full((1, 2), 0.01))
print(scipy_modules())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_check_conditions_pass_and_fail(tmp_path, capsys):
    good = _write_config(tmp_path, name="good.json",
                         drift={"mode": "A1", "psi": {"terms": [[1.0, 2.0]]}})
    assert _run("check-conditions", "--config", good,
                "--out", tmp_path / "good") == 0
    out = capsys.readouterr().out
    assert "PASS A1" in out and "PASS H" in out
    assert (tmp_path / "good" / "conditions.csv").exists()
    assert (tmp_path / "good" / "constants.csv").read_text().startswith("key,value")
    # A mixed-sign power sum is not monotone and must be rejected.
    bad = _write_config(tmp_path, name="bad.json",
                        drift={"mode": "A1",
                               "psi": {"terms": [[1.0, 1.0], [-5.0, 3.0]]}})
    assert _run("check-conditions", "--config", bad,
                "--out", tmp_path / "bad") == 1
    assert "FAIL A1" in capsys.readouterr().out


@pytest.mark.parametrize("r", [0.1, 0.3])
def test_check_conditions_passes_hoelder_fast_diffusion(tmp_path, capsys, r):
    # Psi = |s|^r sign s is only Hoelder-r at 0 but continuous, so H1 holds by
    # construction; a sampled refinement ratio used to fail it for r <= 0.4.
    cfg = _write_config(tmp_path, domain={"n_grid": 32, "alpha": 1.0},
                        drift={"mode": "A1", "psi": {"terms": [[1.0, r]]}})
    assert _run("check-conditions", "--config", cfg, "--out", tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "PASS A1" in out and "PASS H" in out
    header = (tmp_path / "out" / "conditions.csv").read_text().splitlines()[0]
    assert "margin_h1" not in header and "margin_h2" in header


def test_check_conditions_A2_writes_the_closed_form_budget(tmp_path, capsys):
    # Phi_0 = s is paid for in L^2, where the L^{-1} bound is exactly 1/lam_1;
    # with Phi_0 and Young coefficients c = a = 1, eps = c / (a lam_1) = 1/lam_1.
    cfg = _write_config(tmp_path, drift={"mode": "A2",
                                         "psi": {"terms": [[1.0, 1.0], [1.0, 3.0]]},
                                         "phi": {"phi0_terms": [[1.0, 1.0]]}})
    assert _run("check-conditions", "--config", cfg, "--out", tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "PASS A2" in out and "PASS H" in out
    header, a2_row, h_row = (tmp_path / "out" / "conditions.csv").read_text().splitlines()
    assert header == (
        "report,const_c,const_c1,const_c2,const_c3,const_c_emp_h2,const_c_h2,const_c_psi3,"
        "const_delta2_N,const_delta2_Nstar,const_delta_1,const_delta_2,const_eps,"
        "const_eps_implied,const_f,const_f_h3,const_g_h4,const_hs0_sq,const_linv_op_norm_p2,"
        "const_linv_op_norm_p4,const_m_E,const_sup_h,margin_h2,margin_h3,margin_h4,"
        "margin_phi1,margin_phi2,margin_psi1_prime,n_failures,n_samples,passed")
    row = dict(zip(header.split(","), a2_row.split(",")))
    h = dict(zip(header.split(","), h_row.split(",")))
    lam1 = cli._build_domain(json.loads(cfg.read_text())).lam[0]
    assert row["report"] == "A2" and h["report"] == "H"
    assert row["const_c"] == h["const_c_psi3"] == "1"
    assert row["const_linv_op_norm_p2"] == format(1.0 / lam1, ".17g")
    assert row["const_eps_implied"] == format(1.0 / lam1, ".17g")
    # N = s^2 + s^4 doubles with 2^4 and its dual with 2^(2/(2-1))
    assert row["const_delta2_N"] == "16"
    assert row["const_delta2_Nstar"] == "4"


def test_check_conditions_A1_modulated_states_one_sandwich_constant(tmp_path, capsys):
    # Psi = a(t) s|s| with a in [0.5, 2]: the A1 report, the H report and
    # constants.csv all carry c = a_max / a_min = 4, the same bytes.
    cfg = _write_config(tmp_path, drift={"mode": "A1", "psi": {
        "terms": [[1.0, 2.0]], "modulation": {"a_min": 0.5, "a_max": 2.0, "period": 1.0}}})
    assert _run("check-conditions", "--config", cfg, "--out", tmp_path / "out") == 0
    assert "PASS A1" in capsys.readouterr().out
    header, a1_row, h_row = (tmp_path / "out" / "conditions.csv").read_text().splitlines()
    assert header == (
        "report,const_c,const_c1,const_c2,const_c3,const_c_emp_h2,const_c_h2,const_c_psi3,"
        "const_delta2_N,const_delta2_Nstar,const_eps,const_f,const_f_h3,const_g_h4,"
        "const_hs0_sq,const_m_E,const_psi4_dual_at_zero,const_sup_h,margin_h2,"
        "margin_h3,margin_h4,margin_psi1,n_failures,n_samples,passed")
    a1 = dict(zip(header.split(","), a1_row.split(",")))
    h = dict(zip(header.split(","), h_row.split(",")))
    assert (a1["report"], h["report"]) == ("A1", "H")
    assert a1["const_c"] == h["const_c_psi3"] == "4"
    assert a1["const_f"] == a1["const_psi4_dual_at_zero"] == "0"
    consts = dict(line.split(",") for line in
                  (tmp_path / "out" / "constants.csv").read_text().splitlines()[1:])
    assert consts["c_psi3"] == "4"


def test_check_conditions_A2_computes_each_certificate_once(tmp_path, monkeypatch):
    # One norm per distinct p (Psi = s + s^3 pays in L^2 and L^4) and one set
    # of declared constants, shared by the A2 report, the H report and
    # constants.csv.
    import spme.drift as drift

    ps, declared = [], []

    def counted(log, fn):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(drift, "linv_op_norm", counted(ps, drift.linv_op_norm))
    counted_declared = counted(declared, drift.declared_constants)
    monkeypatch.setattr(drift, "declared_constants", counted_declared)
    monkeypatch.setattr(cli, "declared_constants", counted_declared)
    cfg = _write_config(tmp_path, drift={"mode": "A2",
                                         "psi": {"terms": [[1.0, 1.0], [1.0, 3.0]]},
                                         "phi": {"phi0_terms": [[1.0, 1.0]]}})
    assert _run("check-conditions", "--config", cfg, "--out", tmp_path / "out") == 0
    assert sorted(p for _, p in ps) == [2.0, 4.0]
    assert len(declared) == 1


def test_blow_up_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        drift={"mode": "A1", "psi": {"terms": []}, "phi": {"h": 800.0}},
        stepper={"dt": 0.01, "T": 10.0, "n_modes": 8},
        noise={"sigma0": 0.0, "decay": 1.0, "n_modes": 1})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"blow-up: non-finite state at t=\S+ \(path 0, step \d+\)\n", err), err


def test_moment_overflow_exit_code_names_the_step(tmp_path, capsys):
    # Noise of 1e150 doubled every step: every state stays finite, but the
    # ensemble moments overflow, which no single path causes.
    cfg = _write_config(
        tmp_path,
        domain={"n_grid": 4, "alpha": 1.0},
        drift={"mode": "A1", "psi": {"terms": []}, "phi": {"h": 100.0}},
        stepper={"dt": 0.01, "T": 0.3, "n_modes": 4},
        noise={"sigma0": 1e150, "decay": 1.0, "n_modes": 1},
        initial={"shape": "zero"})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "non-finite ensemble moment" in err and "(step " in err and "path" not in err


def test_extinction_expectation_mismatch_fails(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        domain={"n_grid": 32, "alpha": 1.0},
        drift={"mode": "A1", "psi": {"terms": [[1.0, 0.5]]}},
        noise={"sigma0": 0.0, "decay": 1.0, "n_modes": 1},
        stepper={"dt": 0.01, "T": 2.0, "n_modes": 32,
                 "scheme": "semi-implicit", "implicit_tol": 1e-8},
        initial={"shape": "bump", "amplitude": 0.5},
        extinction={"eps": 1e-6, "expect": "survive"})
    assert _run("extinction", "--config", cfg, "--out", tmp_path / "out") == 1
    assert "FAIL extinction" in capsys.readouterr().out


def test_ou_times_must_lie_on_save_grid(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        run={"ensemble_size": 8, "master_seed": 1, "save_every": 10},
        ou={"times": [0.0137]})
    assert _run("ou-oracle", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "ou.times[0]" in capsys.readouterr().err


def test_ou_oracle_rejects_nonlinear_drift(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        drift={"mode": "A1", "psi": {"terms": [[1.0, 2.0]]}},
        ou={"times": [0.05]})
    assert _run("ou-oracle", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "config error at drift" in capsys.readouterr().err


def test_ou_oracle_small_run_passes(tmp_path, capsys):
    # The softer spectrum (alpha = 1/2) keeps the time-stepping bias of the
    # top mode well below the Monte Carlo band at this dt.
    cfg = _write_config(
        tmp_path,
        domain={"n_grid": 8, "alpha": 0.5},
        noise={"sigma0": 0.2, "decay": 1.0, "n_modes": 8},
        stepper={"dt": 0.00025, "T": 0.5, "n_modes": 8},
        run={"ensemble_size": 400, "master_seed": 101, "save_every": 400},
        initial={"shape": "random", "gamma": 1.0, "amplitude": 1.0},
        ou={"times": [0.1, 0.5]})
    assert _run("ou-oracle", "--config", cfg, "--out", tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "PASS ou-oracle: max |z|" in out
    header = (tmp_path / "out" / "ou.csv").read_text().split("\n")[0]
    assert header == "t,mode,mean_emp,mean_exact,z_mean,var_emp,var_exact,z_var"


def test_contraction_cli_and_group_validation(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        stepper={"dt": 0.001, "T": 0.5, "n_modes": 1},
        run={"ensemble_size": 100, "master_seed": 3, "save_every": 25},
        contraction={"declared_c": 0.0})
    assert _run("contraction", "--config", cfg, "--out", tmp_path / "out") == 0
    assert "PASS contraction" in capsys.readouterr().out
    bad = _write_config(
        tmp_path, name="badgroups.json",
        run={"ensemble_size": 100, "master_seed": 3},
        contraction={"declared_c": 0.0, "groups": 3})
    assert _run("contraction", "--config", bad, "--out", tmp_path / "o2") == 2
    assert "contraction.groups" in capsys.readouterr().err


def test_energy_requires_per_step_saves(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        run={"ensemble_size": 8, "master_seed": 1, "save_every": 5},
        energy={})
    assert _run("energy", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "run.save_every" in capsys.readouterr().err


def test_energy_cli_with_falsifier(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        drift={"mode": "A1", "psi": {"terms": [[1.0, 2.0]]}},
        noise={"sigma0": 0.05, "decay": 1.0, "n_modes": 4},
        stepper={"dt": 0.0025, "T": 0.25, "n_modes": 8},
        run={"ensemble_size": 64, "master_seed": 9, "save_every": 1},
        initial={"shape": "bump", "amplitude": 0.5},
        energy={"falsify_factor": 10.0})
    assert _run("energy", "--config", cfg, "--out", tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "PASS energy:" in out and "PASS energy-falsifier" in out
    assert (tmp_path / "out" / "energy_falsified.csv").exists()


def test_ito_check_dts_validation(tmp_path, capsys):
    cfg = _write_config(tmp_path, ito={"dts": [0.01, 0.005, 0.002]})
    assert _run("ito-check", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "ito.dts[2]" in capsys.readouterr().err


def test_ergodicity_auto_rate_needs_linear_drift(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        drift={"mode": "A1", "psi": {"terms": [[1.0, 2.0]]}},
        ergodicity={"declared_c": "auto"})
    assert _run("ergodicity", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "ergodicity.declared_c" in capsys.readouterr().err


def test_random_initial_depends_only_on_seed(tmp_path):
    cfg = _write_config(tmp_path, initial={"shape": "random", "gamma": 1.5})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "a") == 0
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "b",
                "--seed", "43") == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a != b  # a different master seed draws a different start


def _edit(section, drop=(), **keys):
    """Overrides that change some keys of one section of the base config."""
    sec = {k: v for k, v in _BASE[section].items() if k not in drop}
    return {section: {**sec, **keys}}


_PSI = {"terms": [[1.0, 1.0]]}
_MOD = {"a_min": 1.0, "a_max": 2.0, "period": 1.0}
_ONE_STEP = {"run": {**_BASE["run"], "save_every": 1}}

# One fault per row: (subcommand, overrides, exit code, the one stderr line).
_CONFIG_FAULTS = {
    "top-unknown": ("simulate", {"bogus": {}}, 2,
                    "config error at <config>.bogus: unknown key"),
    "top-section-type": ("simulate", {"domain": []}, 2,
                         "config error at domain: expected dict, got list"),
    "domain-unknown": ("simulate", _edit("domain", size=1.0), 2,
                       "config error at domain.size: unknown key"),
    "domain-missing": ("simulate", _edit("domain", drop=("n_grid",)), 2,
                       "config error at domain.n_grid: missing required key"),
    "domain-type": ("simulate", _edit("domain", n_grid=8.0), 2,
                    "config error at domain.n_grid: expected int, got float"),
    "domain-n_grid": ("simulate", _edit("domain", n_grid=0), 2,
                      "config error at domain: n_grid must lie in [1, 1024] (dense transforms)"),
    "domain-alpha": ("simulate", _edit("domain", alpha=2.0), 2,
                     "config error at domain: alpha must lie in (0, 1]"),
    "drift-missing-section": ("simulate", {"drift": None}, 2,
                              "config error at drift: missing required section"),
    "drift-unknown": ("simulate", _edit("drift", kind=1), 2,
                      "config error at drift.kind: unknown key"),
    "drift-type": ("simulate", _edit("drift", mode=1), 2,
                   "config error at drift.mode: expected str, got int"),
    "drift-mode": ("simulate", _edit("drift", mode="A3"), 2,
                   "config error at drift: mode must be 'A1' or 'A2'"),
    "drift-f_const": ("simulate", _edit("drift", f_const="x"), 2,
                      "config error at drift.f_const: expected float, got str"),
    "psi-type": ("simulate", _edit("drift", psi=[]), 2,
                 "config error at drift.psi: expected dict, got list"),
    "psi-unknown": ("simulate", _edit("drift", psi={**_PSI, "power": 2.0}), 2,
                    "config error at drift.psi.power: unknown key"),
    "psi-pair": ("simulate", _edit("drift", psi={"terms": [[1.0]]}), 2,
                 "config error at drift.psi.terms[0]: expected a [coeff, exponent] pair"),
    "psi-pair-type": ("simulate", _edit("drift", psi={"terms": [[1.0, "x"]]}), 2,
                      "config error at drift.psi.terms[0][1]: expected float, got str"),
    "psi-log_power": ("simulate", _edit("drift", psi={"log_power": [1.0]}), 2,
                      "config error at drift.psi.log_power: expected [theta, r]"),
    "psi-log_power-type": ("simulate", _edit("drift", psi={"log_power": 1.0}), 2,
                           "config error at drift.psi.log_power: expected list, got float"),
    "modulation-missing": ("simulate", _edit("drift", psi={**_PSI, "modulation": {
        "a_min": 1.0, "a_max": 2.0}}), 2,
        "config error at drift.psi.modulation.period: missing required key"),
    "modulation-unknown": ("simulate", _edit("drift", psi={**_PSI, "modulation": {
        **_MOD, "phase": 0.0}}), 2, "config error at drift.psi.modulation.phase: unknown key"),
    "modulation-period": ("simulate", _edit("drift", psi={**_PSI, "modulation": {
        **_MOD, "period": 0.0}}), 2,
        "config error at drift.psi.modulation.period: period must be positive"),
    "modulation-range": ("simulate", _edit("drift", psi={**_PSI, "modulation": {
        **_MOD, "a_min": 3.0}}), 2,
        "config error at drift.psi.modulation: need 0 < a_min <= a_max < inf"),
    "phi-unknown": ("simulate", _edit("drift", phi={"g": 1.0}), 2,
                    "config error at drift.phi.g: unknown key"),
    "phi-type": ("simulate", _edit("drift", phi={"h": "x"}), 2,
                 "config error at drift.phi.h: expected float, got str"),
    "phi-pair": ("simulate", _edit("drift", phi={"phi0_terms": [1.0]}), 2,
                 "config error at drift.phi.phi0_terms[0]: expected a [coeff, exponent] pair"),
    "noise-unknown": ("simulate", _edit("noise", beta=1.0), 2,
                      "config error at noise.beta: unknown key"),
    "noise-missing": ("simulate", _edit("noise", drop=("sigma0",)), 2,
                      "config error at noise.sigma0: missing required key"),
    "noise-type": ("simulate", _edit("noise", n_modes="8"), 2,
                   "config error at noise.n_modes: expected int, got str"),
    "noise-n_modes": ("simulate", _edit("noise", n_modes=0), 2,
                      "config error at noise.n_modes: need at least one mode"),
    "noise-sigma0": ("simulate", _edit("noise", sigma0=-0.1), 2,
                     "config error at noise.sigma0: amplitude must be >= 0"),
    "mult-type": ("simulate", _edit("noise", mult=1.0), 2,
                  "config error at noise.mult: expected dict, got float"),
    "mult-unknown": ("simulate", _edit("noise", mult={"rho_min": 0.0, "rho_max": 1.0,
                                                      "rho": 1.0}), 2,
                     "config error at noise.mult.rho: unknown key"),
    "mult-missing": ("simulate", _edit("noise", mult={"rho_min": 0.0}), 2,
                     "config error at noise.mult.rho_max: missing required key"),
    "mult-range": ("simulate", _edit("noise", mult={"rho_min": 2.0, "rho_max": 1.0}), 2,
                   "config error at noise.mult: need 0 <= rho_min <= rho_max < inf"),
    "stepper-unknown": ("simulate", _edit("stepper", dd=1), 2,
                        "config error at stepper.dd: unknown key"),
    "stepper-missing": ("simulate", _edit("stepper", drop=("dt",)), 2,
                        "config error at stepper.dt: missing required key"),
    "stepper-type": ("simulate", _edit("stepper", n_modes=8.0), 2,
                     "config error at stepper.n_modes: expected int, got float"),
    "stepper-scheme": ("simulate", _edit("stepper", scheme="rk4"), 2,
                       "config error at stepper: scheme must be one of "
                       "('explicit', 'semi-implicit'), got 'rk4'"),
    "stepper-T": ("simulate", _edit("stepper", T=0.1005), 2,
                  "config error at stepper: T must be an integer multiple of dt"),
    "stepper-tol-type": ("simulate", _edit("stepper", implicit_tol="x"), 2,
                         "config error at stepper.implicit_tol: expected float, got str"),
    "stepper-tol": ("simulate", _edit("stepper", implicit_tol=0.0), 2,
                    "config error at stepper: implicit_tol must be positive and finite"),
    "initial-missing-section": ("simulate", {"initial": None}, 2,
                                "config error at initial: missing required section"),
    "initial-section-type": ("simulate", {"initial": []}, 2,
                             "config error at initial: expected dict, got list"),
    "initial-unknown": ("simulate", {"initial": {"shape": "zero", "sigma": 1.0}}, 2,
                        "config error at initial.sigma: unknown key"),
    "initial-missing": ("simulate", {"initial": {"amplitude": 1.0}}, 2,
                        "config error at initial.shape: missing required key"),
    "initial-type": ("simulate", {"initial": {"shape": "bump", "amplitude": "big"}}, 2,
                     "config error at initial.amplitude: expected float, got str"),
    "initial-shape": ("simulate", {"initial": {"shape": "square"}}, 2,
                      "config error at initial.shape: unknown shape "
                      "(choose from ('bump', 'eigenmode', 'random', 'zero'))"),
    "initial-width": ("simulate", {"initial": {"shape": "bump", "width": 0.0}}, 2,
                      "config error at initial.width: width must be positive"),
    "initial-k": ("simulate", {"initial": {"shape": "eigenmode", "k": 9}}, 2,
                  "config error at initial.k: mode index out of range 1..8"),
    "run-unknown": ("simulate", _edit("run", paths=3), 2,
                    "config error at run.paths: unknown key"),
    "run-type": ("simulate", _edit("run", ensemble_size="8"), 2,
                 "config error at run.ensemble_size: expected int, got str"),
    "run-seed-type": ("simulate", _edit("run", master_seed="42"), 2,
                      "config error at run.master_seed: expected int, got str"),
    "run-ensemble_size": ("simulate", _edit("run", ensemble_size=1), 2,
                          "config error at run.ensemble_size: need at least 2 paths"),
    "run-save_every": ("simulate", _edit("run", save_every=0), 2,
                       "config error at run.save_every: must be >= 1"),
    "observables-type": ("simulate", {"observables": "h_norm_sq"}, 2,
                         "config error at observables: expected list, got str"),
    "observables-item-type": ("simulate", {"observables": [1]}, 2,
                              "config error at observables[0]: expected str, got int"),
    "observables-unknown": ("simulate", {"observables": ["foo"]}, 2,
                            "config error at observables: unknown observable 'foo'"),
    "observables-empty": ("simulate", {"observables": []}, 2,
                          "config error at observables: at least one observable is required"),
    "observables-dist_sq": ("simulate", {"observables": ["dist_sq"]}, 2,
                            "config error at observables: dist_sq requires a paired "
                            "ensemble (Y0 given)"),
    "ito-unknown": ("ito-check", {"ito": {"dts": [0.002, 0.001], "order": 1.0}}, 2,
                    "config error at ito.order: unknown key"),
    "ito-type": ("ito-check", {"ito": {"dts": 0.001}}, 2,
                 "config error at ito.dts: expected list, got float"),
    "ito-item-type": ("ito-check", {"ito": {"dts": ["a", 0.001]}}, 2,
                      "config error at ito.dts[0]: expected float, got str"),
    "ito-multiple": ("ito-check", {"ito": {"dts": [0.003, 0.0015]}}, 2,
                     "config error at ito.dts[0]: T must be a multiple of each dt"),
    "ito-halving": ("ito-check", {"ito": {"dts": [0.01, 0.005, 0.002]}}, 2,
                    "config error at ito.dts[2]: each dt must halve the previous"),
    "contraction-section-type": ("contraction", {"contraction": []}, 2,
                                 "config error at contraction: expected dict, got list"),
    "contraction-unknown": ("contraction", {"contraction": {"pairs": 1}}, 2,
                            "config error at contraction.pairs: unknown key"),
    "contraction-type": ("contraction", {"contraction": {"groups": "2"}}, 2,
                         "config error at contraction.groups: expected int, got str"),
    "contraction-declared_c": ("contraction", {"contraction": {"declared_c": "big"}}, 2,
                               "config error at contraction.declared_c: expected float, "
                               "got str"),
    "contraction-groups": ("contraction", {"contraction": {"groups": 3}}, 2,
                           "config error at contraction.groups: groups must divide "
                           "ensemble size 8"),
    "contraction-y0-type": ("contraction", {"contraction": {"y0": []}}, 2,
                            "config error at contraction.y0: expected dict, got list"),
    "contraction-y0-width": ("contraction", {"contraction": {"y0": {"shape": "bump",
                                                                     "width": -1.0}}}, 2,
                             "config error at contraction.y0.width: width must be positive"),
    "contraction-floor-type": ("contraction", {"contraction": {"declared_c": 0.0,
                                                               "floor": "x"}}, 2,
                               "config error at contraction.floor: expected float, got str"),
    "energy-unknown": ("energy", {"energy": {"factor": 2.0}, **_ONE_STEP}, 2,
                       "config error at energy.factor: unknown key"),
    "energy-type": ("energy", {"energy": {"falsify_factor": "x"}, **_ONE_STEP}, 2,
                    "config error at energy.falsify_factor: expected float, got str"),
    "energy-save_every": ("energy", {"energy": {}}, 2,
                          "config error at run.save_every: the energy check needs "
                          "statistics at every step"),
    "extinction-unknown": ("extinction", {"extinction": {"tol": 1.0}}, 2,
                           "config error at extinction.tol: unknown key"),
    "extinction-type": ("extinction", {"extinction": {"strict_decay": 1}}, 2,
                        "config error at extinction.strict_decay: expected bool, got int"),
    "extinction-expect": ("extinction", {"extinction": {"expect": "maybe"}}, 2,
                          "config error at extinction.expect: choose 'extinct' or 'survive'"),
    "extinction-eps": ("extinction", {"extinction": {"eps": 0.0}}, 2,
                       "config error at extinction.eps: eps must be positive"),
    "ou-missing": ("ou-oracle", {"ou": {}}, 2,
                   "config error at ou.times: missing required key"),
    "ou-unknown": ("ou-oracle", {"ou": {"times": [0.05], "modes": 2}}, 2,
                   "config error at ou.modes: unknown key"),
    "ou-type": ("ou-oracle", {"ou": {"times": 0.05}}, 2,
                "config error at ou.times: expected list, got float"),
    "ou-item-type": ("ou-oracle", {"ou": {"times": ["a"]}}, 2,
                     "config error at ou.times[0]: expected float, got str"),
    "ou-grid": ("ou-oracle", {"ou": {"times": [0.0137]}}, 2,
                "config error at ou.times[0]: must lie on the save grid (multiples of 0.01)"),
    "ou-horizon": ("ou-oracle", {"ou": {"times": [0.2]}}, 2,
                   "config error at ou.times[0]: must lie on the save grid (multiples of 0.01)"),
    "ou-noise-modes": ("ou-oracle", {"ou": {"times": [0.05]}, **_edit("noise", n_modes=4)}, 2,
                       "config error at noise.n_modes: the oracle needs noise on every "
                       "tracked mode"),
    "ergodicity-unknown": ("ergodicity", {"ergodicity": {"horizon": 1.0}}, 2,
                           "config error at ergodicity.horizon: unknown key"),
    "ergodicity-type": ("ergodicity", {"ergodicity": {"observable": 1}}, 2,
                        "config error at ergodicity.observable: expected str, got int"),
    "ergodicity-lip-type": ("ergodicity", {"ergodicity": {"lip": "x"}}, 2,
                            "config error at ergodicity.lip: expected float, got str"),
    "ergodicity-auto-lip": ("ergodicity", {"ergodicity": {"observable": "h_norm_sq"}}, 2,
                            "config error at ergodicity.lip: auto Lipschitz constants exist "
                            "only for mode_k observables; give lip explicitly"),
    "ergodicity-mode": ("ergodicity", {"ergodicity": {"observable": "mode_9"}}, 2,
                        "config error at ergodicity.observable: observable 'mode_9': "
                        "mode index out of range 1..8"),
    "ergodicity-y_seed-type": ("ergodicity", {"ergodicity": {"y_seed": 1.5}}, 2,
                               "config error at ergodicity.y_seed: expected int, got float"),
    "ergodicity-tail-type": ("ergodicity", {"ergodicity": {"tail_fraction": "x"}}, 2,
                             "config error at ergodicity.tail_fraction: expected float, "
                             "got str"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_FAULTS))
def test_config_fault_names_its_key(tmp_path, capsys, case):
    subcommand, overrides, code, line = _CONFIG_FAULTS[case]
    cfg = _write_config(tmp_path, **overrides)
    assert _run(subcommand, "--config", cfg, "--out", tmp_path / "out") == code
    assert capsys.readouterr().err == line + "\n"


# A contraction run that passes (100 pairs): a range fault added to it is the only fault.
_PAIRS = dict(stepper={"dt": 0.001, "T": 0.1, "n_modes": 1},
              run={"ensemble_size": 100, "master_seed": 3, "save_every": 25})

# A key that would change no output, inputs that would leave a check vacuous,
# and faults that the library would report without naming the key.
_REJECTED = {
    "record_ito": ("simulate", _edit("stepper", record_ito=True),
                   "config error at stepper.record_ito: unknown key"),
    "ito-one-dt": ("ito-check", {"ito": {"dts": [1e-3]}},
                   "config error at ito.dts: need at least two step sizes to fit an order"),
    "ito-no-dts": ("ito-check", {"ito": {"dts": []}},
                   "config error at ito.dts: need at least two step sizes to fit an order"),
    "ou-no-times": ("ou-oracle", {"ou": {"times": []}},
                    "config error at ou.times: need at least one time"),
    "ergodicity-observable": ("ergodicity", {"ergodicity": {"observable": "foo", "lip": 1.0}},
                              "config error at ergodicity.observable: unknown observable 'foo'"),
    "contraction-one-pair-groups": ("contraction", {"contraction": {"groups": 8}},
                                    "config error at contraction.groups: each group needs "
                                    "at least 2 pairs, got 1"),
    "observables-mode": ("simulate", {"observables": ["h_norm_sq", "mode_99"]},
                         "config error at observables: observable 'mode_99': "
                         "mode index out of range 1..8"),
    "observables-int-mode": ("simulate", {"observables": ["int_mode_9"]},
                             "config error at observables: observable 'int_mode_9': "
                             "mode index out of range 1..8"),
    "ergodicity-mode-lip": ("ergodicity", {"ergodicity": {"observable": "mode_99", "lip": 1.0}},
                            "config error at ergodicity.observable: observable 'mode_99': "
                            "mode index out of range 1..8"),
    "ito-zero-dt": ("ito-check", {"ito": {"dts": [0.0, 0.0]}},
                    "config error at ito.dts[0]: step size must be positive and finite"),
    "ito-negative-dt": ("ito-check", {"ito": {"dts": [-0.002, -0.001]}},
                        "config error at ito.dts[0]: step size must be positive and finite"),
    "stepper-n_modes-grid": ("check-conditions", _edit("stepper", n_modes=16),
                             "config error at stepper.n_modes: more modes than the 8 "
                             "grid points"),
    "stepper-n_modes-grid-simulate": ("simulate", _edit("stepper", n_modes=16),
                                      "config error at stepper.n_modes: more modes than "
                                      "the 8 grid points"),
    "noise-n_modes-grid": ("check-conditions", _edit("noise", n_modes=16),
                           "config error at noise.n_modes: more modes than the 8 grid points"),
    "noise-n_modes-grid-ito": ("ito-check", _edit("noise", n_modes=16),
                               "config error at noise.n_modes: more modes than the 8 "
                               "grid points"),
    "contraction-transient-negative": (
        "contraction", {**_PAIRS, "contraction": {"declared_c": 0.0, "transient_fraction": -0.5}},
        "config error at contraction.transient_fraction: must lie in [0, 1)"),
    "contraction-transient-past-end": (
        "contraction", {**_PAIRS, "contraction": {"declared_c": 0.0, "transient_fraction": 1.5}},
        "config error at contraction.transient_fraction: must lie in [0, 1)"),
    "contraction-floor-negative": (
        "contraction", {**_PAIRS, "contraction": {"declared_c": 0.0, "floor": -1.0}},
        "config error at contraction.floor: must be >= 0 and finite"),
    "ergodicity-tail-above-one": ("ergodicity", {"ergodicity": {"tail_fraction": 2.0}},
                                  "config error at ergodicity.tail_fraction: must lie in (0, 1]"),
    "ergodicity-tail-zero": ("ergodicity", {"ergodicity": {"tail_fraction": 0.0}},
                             "config error at ergodicity.tail_fraction: must lie in (0, 1]"),
    "ergodicity-lip-negative": ("ergodicity", {"ergodicity": {"lip": -1.0}},
                                "config error at ergodicity.lip: must be >= 0 and finite"),
    "ergodicity-declared_c-positive": ("ergodicity", {"ergodicity": {"declared_c": 1.0}},
                                       "config error at ergodicity.declared_c: declared rate "
                                       "must be negative"),
    # json reads Infinity and NaN: an infinite tolerance accepts every right
    # side unsolved, a NaN one lets no Newton solve converge.
    "stepper-tol-inf": ("simulate", _edit("stepper", scheme="semi-implicit",
                                          implicit_tol=math.inf),
                        "config error at stepper: implicit_tol must be positive and finite"),
    "stepper-tol-nan": ("simulate", _edit("stepper", scheme="semi-implicit",
                                          implicit_tol=math.nan),
                        "config error at stepper: implicit_tol must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_inert_or_degenerate_input_is_config_error(tmp_path, capsys, case):
    subcommand, overrides, line = _REJECTED[case]
    cfg = _write_config(tmp_path, **overrides)
    assert _run(subcommand, "--config", cfg, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""


# Faults that are rejected before the run: --out holds no table.
_BEFORE_THE_RUN = {
    **{k: _CONFIG_FAULTS[k][:2] for k in ("observables-unknown", "observables-empty",
                                          "observables-dist_sq", "extinction-eps")},
    **{k: _REJECTED[k][:2] for k in ("observables-mode", "observables-int-mode",
                                     "ergodicity-mode-lip", "ito-zero-dt", "ito-negative-dt",
                                     "stepper-n_modes-grid-simulate", "noise-n_modes-grid",
                                     "noise-n_modes-grid-ito", "contraction-transient-negative",
                                     "contraction-transient-past-end",
                                     "contraction-floor-negative", "ergodicity-tail-above-one",
                                     "ergodicity-tail-zero", "ergodicity-lip-negative",
                                     "ergodicity-declared_c-positive")},
}


@pytest.mark.parametrize("case", sorted(_BEFORE_THE_RUN))
def test_config_fault_writes_no_table(tmp_path, case):
    subcommand, overrides = _BEFORE_THE_RUN[case]
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert _run(subcommand, "--config", cfg, "--out", out) == 2
    assert not out.exists() or not any(out.iterdir())


def test_ito_check_ledger_is_the_finest_level(tmp_path):
    # ledger.csv comes from the study's finest run, on its bridge-refined path.
    cfg = _write_config(tmp_path, ito={"dts": [0.002, 0.001, 0.0005]})
    out = tmp_path / "out"
    assert _run("ito-check", "--config", cfg, "--out", out) == 0

    def table(name):
        return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)

    ledger, refinement = table("ledger.csv"), table("refinement.csv")
    assert ledger[1, 0] == 0.0005 and ledger[-1, 0] == 0.1
    assert np.max(np.abs(ledger[:, -1])) == refinement[-1, 1]


_PME = {"mode": "A1", "psi": {"terms": [[1.0, 2.0]]}}


def test_ito_check_steps_with_the_stepper_newton_settings(tmp_path, capsys):
    # One Newton iteration cannot solve a semi-implicit PME step.  The study's
    # first level steps at the stepper's dt, so ito-check fails as simulate does.
    cfg = _write_config(tmp_path, drift=_PME, ito={"dts": [0.001, 0.0005]},
                        stepper={"dt": 0.001, "T": 0.01, "n_modes": 8,
                                 "scheme": "semi-implicit", "implicit_max_iter": 1})
    errors = []
    for subcommand in ("simulate", "ito-check"):
        assert _run(subcommand, "--config", cfg, "--out", tmp_path / subcommand) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: implicit solve did not converge within 1 iterations")
    assert errors[0].endswith(" (path 0, step 1)\n")
    assert errors[1] == errors[0]


# One case per subcommand (check-conditions in both modes).  ito-check,
# ergodicity and check-conditions in mode A2 pass here; elsewhere they are
# tested only on their config errors.
_EVERY_SUBCOMMAND = {
    "simulate": ("simulate", dict(observables=["h_norm_sq", "R", "mode_2", "int_sup_abs"]),
                 0, "PASS simulate"),
    "check-conditions-A1": ("check-conditions",
                            dict(drift={"mode": "A1",
                                        "psi": {"terms": [[1.0, 1.0], [-5.0, 3.0]]}}),
                            1, "FAIL A1"),
    "check-conditions-A2": ("check-conditions",
                            dict(drift={"mode": "A2", "psi": {"terms": [[1.0, 3.0]]}}),
                            0, "PASS A2: 0 violations"),
    "ito-check": ("ito-check", dict(ito={"dts": [0.002, 0.001, 0.0005]}),
                  0, "PASS ito-refinement: order="),
    "contraction": ("contraction", dict(**_PAIRS, contraction={"declared_c": 0.0}),
                    0, "PASS contraction"),
    "energy": ("energy", dict(drift=_PME, stepper={"dt": 0.0025, "T": 0.05, "n_modes": 8},
                              run={"ensemble_size": 16, "master_seed": 9, "save_every": 1},
                              initial={"shape": "bump", "amplitude": 0.5},
                              energy={"falsify_factor": 10.0}),
               0, "PASS energy-falsifier"),
    "extinction": ("extinction", dict(drift=_PME, stepper={"dt": 0.001, "T": 0.05, "n_modes": 8,
                                                           "scheme": "semi-implicit"},
                                      noise={"sigma0": 0.0, "decay": 1.0, "n_modes": 1},
                                      extinction={"expect": "survive"}),
                   0, "PASS extinction"),
    "ou-oracle": ("ou-oracle", dict(run={"ensemble_size": 64, "master_seed": 5,
                                         "save_every": 50},
                                    ou={"times": [0.05, 0.1]}),
                  0, "PASS ou-oracle"),
    "ergodicity": ("ergodicity", dict(stepper={"dt": 0.001, "T": 1.5, "n_modes": 8},
                                      run={"ensemble_size": 64, "master_seed": 5,
                                           "save_every": 10},
                                      ergodicity={"declared_c": "auto"}),
                   0, "PASS ergodicity[mode_1]"),
}


@pytest.mark.parametrize("case", sorted(_EVERY_SUBCOMMAND))
def test_every_out_table_has_one_format(tmp_path, capsys, case):
    # Every table: LF line endings, a header naming each column, and float
    # cells written .17g, so each parses back to the double it came from.
    subcommand, overrides, code, line = _EVERY_SUBCOMMAND[case]
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert _run(subcommand, "--config", cfg, "--out", out) == code
    assert line in capsys.readouterr().out
    tables = sorted(p.name for p in out.glob("*.csv"))
    assert tables and json.loads((out / "manifest.json").read_text())["outputs"] == tables
    for name in tables:
        raw = (out / name).read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n"), name
        header, *rows = raw.decode().split("\n")[:-1]
        assert rows, name
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(",")), name
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label such as the report name
                assert format(value, ".17g") == cell, (name, cell)


def test_simulate_tables_hold_the_run_values(tmp_path):
    cfg_path = _write_config(tmp_path, observables=["h_norm_sq", "int_modular"])
    assert _run("simulate", "--config", cfg_path, "--out", tmp_path / "out") == 0
    cfg = json.loads(cfg_path.read_text())
    dom, drift = cli._build_domain(cfg), cli._build_drift(cfg)
    noise, stepper = cli._build_noise(cfg), cli._build_stepper(cfg)
    X0 = cli._build_initial(cfg["initial"], dom, 42, "initial")
    traj = simulate(stepper, dom, drift, noise, X0, 42, 0)
    stats = monte_carlo(stepper, dom, drift, noise, X0, 42, 8, ("h_norm_sq", "int_modular"),
                        save_every=10)

    def table(name):
        return np.loadtxt(tmp_path / "out" / name, delimiter=",", skiprows=1, ndmin=2)

    expected = np.column_stack([traj.times, traj.coeff_matrix()])
    assert np.array_equal(table("trajectory.csv"), expected)
    moments = np.stack([stats.mean, stats.var, stats.se], axis=-1).reshape(len(stats.times), -1)
    assert np.array_equal(table("stats.csv"), np.column_stack([stats.times, moments]))
