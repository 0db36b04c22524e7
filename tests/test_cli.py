"""End-to-end tests of the experiment runner."""

import json

import pytest

from spme import cli


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "domain": {"n_grid": 8, "alpha": 1.0},
        "drift": {"mode": "A1", "psi": {"terms": [[1.0, 1.0]]}},
        "noise": {"sigma0": 0.1, "decay": 2.0, "n_modes": 8},
        "stepper": {"dt": 0.001, "T": 0.1, "n_modes": 8},
        "run": {"ensemble_size": 8, "master_seed": 42, "save_every": 10},
        "initial": {"shape": "eigenmode", "k": 1, "amplitude": 1.0},
    }
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


def test_blow_up_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        drift={"mode": "A1", "psi": {"terms": []}, "phi": {"h": 800.0}},
        stepper={"dt": 0.01, "T": 10.0, "n_modes": 8},
        noise={"sigma0": 0.0, "decay": 1.0, "n_modes": 1})
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "out") == 3
    assert "step" in capsys.readouterr().err


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
