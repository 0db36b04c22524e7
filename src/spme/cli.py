"""Experiment runner: JSON config in, CSV artifacts and PASS/FAIL lines out.

Every subcommand validates the full config before touching the simulator,
writes its tables into --out together with a manifest (config hash, master
seed, package version), and prints one PASS/FAIL line per check.  Exit
status: 0 all checks passed, 1 a check failed or a runtime error occurred,
2 invalid config (the message names the offending key), 3 blow-up (the
message names the path and the step).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .drift import (
    DriftSpec,
    PhiSpec,
    PsiSpec,
    TimeModulation,
    check_A1,
    check_A2,
    check_H,
    declared_constants,
)
from .galerkin import (
    BlowUpError,
    StepperConfig,
    check_observables,
    monte_carlo,
    simulate,
    write_csv,
)
from .noise import NoiseSpec, RhoFactor, power_decay_sigma
from .triple import Field, SpectralDomain, h_norm
from .verify import (
    contraction_test,
    energy_estimate,
    ergodicity_test,
    extinction_time,
    is_linear_additive,
    ito_refinement_study,
    ou_oracle,
    ou_z_table,
)


class ConfigError(Exception):
    """Invalid configuration; `path` names the offending key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Schema walking
# ---------------------------------------------------------------------------

_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
}


def _typed(value, kind: str, path: str):
    if kind == "auto":  # a float, or "auto" for a constant the command derives
        return value if value == "auto" else _typed(value, "float", path)
    if not _KINDS[kind](value):
        raise ConfigError(path, f"expected {kind}, got {type(value).__name__}")
    return float(value) if kind == "float" else value


def _no_extra(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _read(sec: dict, path: str, **fields) -> dict:
    """The typed values of config section `sec`, whose keys are `fields`.

    Each field is its kind alone (a required key) or a (kind, default) pair.
    Unknown keys are rejected before any value is read.
    """
    _no_extra(sec, fields, path)
    out = {}
    for key, field in fields.items():
        required = isinstance(field, str)
        kind, default = (field, None) if required else field
        if key in sec:
            out[key] = _typed(sec[key], kind, f"{path}.{key}")
        elif required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        else:
            out[key] = default
    return out


def _section(cfg: dict, name: str, required: bool = False) -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(name, "missing required section")
        return {}
    return _typed(cfg[name], "dict", name)


def _items(raw: list, kind: str, path: str) -> list:
    return [_typed(v, kind, f"{path}[{i}]") for i, v in enumerate(raw)]


def _pair_list(raw, path: str):
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a [coeff, exponent] pair")
        out.append(tuple(_items(item, "float", f"{path}[{i}]")))
    return tuple(out)


def _wrap_build(path: str, build, *args, **kwargs):
    # Library validation errors become config errors naming the section or key.
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------


def _build_domain(cfg: dict) -> SpectralDomain:
    return _wrap_build("domain", SpectralDomain, **_read(
        _section(cfg, "domain", required=True), "domain",
        n_grid="int", alpha=("float", 1.0)))


def _build_psi(sec: dict, path: str) -> PsiSpec:
    v = _read(sec, path, terms=("list", []), log_power=("list", None),
              modulation=("dict", None))
    terms = _pair_list(v["terms"], f"{path}.terms")
    log_power = v["log_power"]
    if log_power is not None:
        if len(log_power) != 2:
            raise ConfigError(f"{path}.log_power", "expected [theta, r]")
        log_power = tuple(log_power)
    modulation = None
    if v["modulation"] is not None:
        mpath = f"{path}.modulation"
        m = _read(v["modulation"], mpath, a_min="float", a_max="float", period="float")
        a_min, a_max, period = m["a_min"], m["a_max"], m["period"]
        if not period > 0:
            raise ConfigError(f"{mpath}.period", "period must be positive")
        mid, amp = 0.5 * (a_min + a_max), 0.5 * (a_max - a_min)
        modulation = _wrap_build(
            mpath, TimeModulation,
            func=lambda t: mid + amp * math.cos(2.0 * math.pi * t / period),
            a_min=a_min, a_max=a_max)
    return _wrap_build(path, PsiSpec, terms=terms, log_power=log_power,
                       modulation=modulation)


def _build_drift(cfg: dict) -> DriftSpec:
    v = _read(_section(cfg, "drift", required=True), "drift",
              mode=("str", "A1"), psi=("dict", {}), phi=("dict", {}),
              f_const=("float", 0.0), g_const=("float", 0.0))
    psi = _build_psi(v.pop("psi"), "drift.psi")
    phi = _read(v.pop("phi"), "drift.phi", h=("float", 0.0), phi0_terms=("list", []))
    phi = _wrap_build("drift.phi", PhiSpec, h_const=phi["h"], phi0_terms=_pair_list(
        phi["phi0_terms"], "drift.phi.phi0_terms"))
    return _wrap_build("drift", DriftSpec, psi=psi, phi=phi, **v)


def _build_noise(cfg: dict) -> NoiseSpec:
    v = _read(_section(cfg, "noise", required=True), "noise",
              sigma0="float", decay=("float", 1.0), n_modes="int", mult=("dict", None))
    if v["n_modes"] < 1:
        raise ConfigError("noise.n_modes", "need at least one mode")
    if v["sigma0"] < 0:
        raise ConfigError("noise.sigma0", "amplitude must be >= 0")
    mult = v["mult"]
    if mult is not None:
        mult = _wrap_build("noise.mult", RhoFactor, **_read(
            mult, "noise.mult", rho_min="float", rho_max="float"))
    additive = power_decay_sigma(v["n_modes"], v["sigma0"], v["decay"])
    return dataclasses.replace(additive, mult=mult)


def _build_stepper(cfg: dict) -> StepperConfig:
    return _wrap_build("stepper", StepperConfig, **_read(
        _section(cfg, "stepper", required=True), "stepper",
        dt="float", T="float", n_modes="int", scheme=("str", StepperConfig.scheme),
        implicit_tol=("float", StepperConfig.implicit_tol),
        implicit_max_iter=("int", StepperConfig.implicit_max_iter)))


_SHAPES = ("bump", "eigenmode", "random", "zero")


def _build_initial(sec: dict, dom: SpectralDomain, master_seed: int,
                   path: str) -> Field:
    v = _read(sec, path, shape="str", amplitude=("float", 1.0), center=("float", 0.5),
              width=("float", 0.15), k=("int", 1), gamma=("float", 1.0))
    shape, amp = v["shape"], v["amplitude"]
    if shape not in _SHAPES:
        raise ConfigError(f"{path}.shape", f"unknown shape (choose from {_SHAPES})")
    if shape == "zero":
        return Field.zero(dom)
    if shape == "bump":
        if not v["width"] > 0:
            raise ConfigError(f"{path}.width", "width must be positive")
        return Field.from_values(
            dom, amp * np.exp(-((dom.x - v["center"]) / v["width"]) ** 2))
    if shape == "eigenmode":
        if not 1 <= v["k"] <= dom.n_grid:
            raise ConfigError(f"{path}.k", f"mode index out of range 1..{dom.n_grid}")
        coeffs = np.zeros(dom.n_grid)
        coeffs[v["k"] - 1] = amp
        return Field.from_coeffs(dom, coeffs)
    # random: independent Gaussian spectral coefficients with decay k^-gamma,
    # drawn from a stream derived from the master seed so runs reproduce.
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0x1C0]))
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    return Field.from_coeffs(dom, amp * rng.standard_normal(dom.n_grid) * k**-v["gamma"])


def _initial(cfg: dict, dom: SpectralDomain, master_seed: int) -> Field:
    return _build_initial(_section(cfg, "initial", required=True), dom, master_seed,
                          "initial")


_TOP_KEYS = {"domain", "drift", "noise", "stepper", "run", "initial",
             "observables", "contraction", "energy", "extinction", "ou",
             "ergodicity", "ito"}


def _load_config(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("<config>", "top level must be an object")
    _no_extra(cfg, _TOP_KEYS, "<config>")
    return cfg, raw


def _resolve_seed(cli_seed, cfg: dict) -> int:
    if cli_seed is not None:
        return cli_seed
    run = _section(cfg, "run")
    if "master_seed" in run:
        return _typed(run["master_seed"], "int", "run.master_seed")
    env = os.environ.get("SPME_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError("SPME_SEED", "environment seed must be an integer") from exc
    raise ConfigError("run.master_seed",
                      "no seed: pass --seed, set run.master_seed, or SPME_SEED")


def _run_params(cfg: dict):
    v = _read(_section(cfg, "run"), "run", ensemble_size=("int", 8),
              master_seed=("int", None), save_every=("int", 1))
    if v["ensemble_size"] < 2:
        raise ConfigError("run.ensemble_size", "need at least 2 paths")
    if v["save_every"] < 1:
        raise ConfigError("run.save_every", "must be >= 1")
    return v["ensemble_size"], v["save_every"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg, dom, drift, noise, stepper, seed, out):
    X0 = _initial(cfg, dom, seed)
    ensemble, save_every = _run_params(cfg)
    names = tuple(_items(_typed(cfg.get("observables", ["h_norm_sq", "modular", "sup_abs"]),
                                "list", "observables"), "str", "observables"))
    _wrap_build("observables", check_observables, names, paired=False, n_grid=dom.n_grid)
    traj = simulate(stepper, dom, drift, noise, X0, seed, 0)
    traj.to_csv(out / "trajectory.csv")
    stats = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                        names, save_every=save_every)
    stats.to_csv(out / "stats.csv")
    print(f"PASS simulate: {stepper.n_steps} steps, {ensemble} paths; "
          f"wrote trajectory.csv, stats.csv")
    return 0, ["trajectory.csv", "stats.csv"]


def _cmd_check_conditions(cfg, dom, drift, noise, stepper, seed, out):
    reports = [check_A1(drift) if drift.mode == "A1" else check_A2(drift, dom)]
    outputs = ["conditions.csv"]
    if reports[0].passed:
        # The coercivity report and the declared constants presuppose a
        # valid nonlinearity, so skip them once the base check failed.
        consts = declared_constants(dom, drift, noise, reports[0].constants.get("eps_implied"))
        reports.append(check_H(dom, drift, noise, consts))
        write_csv(out / "constants.csv", ["key", "value"], sorted(consts.items()))
        outputs.append("constants.csv")
    rows = [r.to_row() for r in reports]
    keys = ["report"] + sorted({k for row in rows for k in row} - {"report"})
    write_csv(out / "conditions.csv", keys, [[row.get(k, "") for k in keys] for row in rows])
    ok = True
    for rep in reports:
        ok &= rep.passed
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: {len(rep.failures)} violations "
              f"over {rep.n_samples} samples")
    return (0 if ok else 1), outputs


def _cmd_ito_check(cfg, dom, drift, noise, stepper, seed, out):
    v = _read(_section(cfg, "ito"), "ito", dts=("list", [2e-3, 1e-3, 5e-4]))
    dts = _items(v["dts"], "float", "ito.dts")
    for i, dt in enumerate(dts):
        if not (math.isfinite(dt) and dt > 0):
            raise ConfigError(f"ito.dts[{i}]", "step size must be positive and finite")
        steps = stepper.T / dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"ito.dts[{i}]", "T must be a multiple of each dt")
        if i and abs(dts[i - 1] - 2 * dt) > 1e-12 * dts[i - 1]:
            raise ConfigError(f"ito.dts[{i}]", "each dt must halve the previous")
    if len(dts) < 2:
        raise ConfigError("ito.dts", "need at least two step sizes to fit an order")
    X0 = _initial(cfg, dom, seed)
    study = ito_refinement_study(dom, drift, noise, X0, seed, stepper.T,
                                 stepper.n_modes, dts, scheme=stepper.scheme,
                                 implicit_tol=stepper.implicit_tol,
                                 implicit_max_iter=stepper.implicit_max_iter)
    study.ledger.to_csv(out / "ledger.csv")
    write_csv(out / "refinement.csv", ["dt", "max_residual"],
              zip(study.dts, study.max_residuals))
    print(study.summary())
    return (0 if study.passed else 1), ["ledger.csv", "refinement.csv"]


def _cmd_contraction(cfg, dom, drift, noise, stepper, seed, out):
    v = _read(_section(cfg, "contraction"), "contraction", declared_c=("auto", "auto"),
              groups=("int", 1), transient_fraction=("float", 0.1),
              floor=("float", 1e-12), y0=("dict", {"shape": "zero"}))
    ensemble, save_every = _run_params(cfg)
    if not 0.0 <= v["transient_fraction"] < 1.0:
        raise ConfigError("contraction.transient_fraction", "must lie in [0, 1)")
    if not (math.isfinite(v["floor"]) and v["floor"] >= 0):
        raise ConfigError("contraction.floor", "must be >= 0 and finite")
    groups = v["groups"]
    if groups < 1 or ensemble % groups:
        raise ConfigError("contraction.groups",
                          f"groups must divide ensemble size {ensemble}")
    if ensemble // groups < 2:
        raise ConfigError("contraction.groups",
                          f"each group needs at least 2 pairs, got {ensemble // groups}")
    X0 = _initial(cfg, dom, seed)
    Y0 = _build_initial(v["y0"], dom, seed, "contraction.y0")
    declared = v["declared_c"]
    if declared == "auto":
        declared = declared_constants(dom, drift, noise)["c_h2"]
    tables = [
        monte_carlo(stepper, dom, drift, noise, X0, seed + g, ensemble // groups,
                    ("dist_sq",), Y0=Y0, save_every=save_every)
        for g in range(groups)
    ]
    rep = contraction_test(tables[0] if groups == 1 else tables, declared_c=declared,
                           transient_fraction=v["transient_fraction"], floor=v["floor"])
    rep.to_csv(out / "contraction.csv")
    print(rep.summary())
    return (0 if rep.passed else 1), ["contraction.csv"]


def _cmd_energy(cfg, dom, drift, noise, stepper, seed, out):
    factor = _read(_section(cfg, "energy"), "energy",
                   falsify_factor=("float", None))["falsify_factor"]
    ensemble, save_every = _run_params(cfg)
    if save_every != 1:
        raise ConfigError("run.save_every",
                          "the energy check needs statistics at every step")
    X0 = _initial(cfg, dom, seed)
    consts = declared_constants(dom, drift, noise)
    stats = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                        ("h_norm_sq", "R", "drift_norm_sq"))
    rep = energy_estimate(stats, consts, stepper.dt)
    rep.to_csv(out / "energy.csv")
    print(rep.summary())
    ok = rep.passed
    outputs = ["energy.csv"]
    if factor is not None:
        bad = dict(consts)
        bad["c2"] *= factor
        rep_bad = energy_estimate(stats, bad, stepper.dt)
        rep_bad.to_csv(out / "energy_falsified.csv")
        outputs.append("energy_falsified.csv")
        # The control must fail, otherwise the check has no teeth.
        detected = not rep_bad.passed
        status = "PASS" if detected else "FAIL"
        print(f"{status} energy-falsifier: x{factor:g} dissipation "
              f"{'rejected' if detected else 'was NOT rejected'}")
        ok = ok and detected
    return (0 if ok else 1), outputs


def _cmd_extinction(cfg, dom, drift, noise, stepper, seed, out):
    v = _read(_section(cfg, "extinction"), "extinction", eps=("float", 1e-6),
              expect=("str", "extinct"), strict_decay=("bool", False))
    eps, expect, strict = v["eps"], v["expect"], v["strict_decay"]
    if expect not in ("extinct", "survive"):
        raise ConfigError("extinction.expect", "choose 'extinct' or 'survive'")
    if not eps > 0:
        raise ConfigError("extinction.eps", "eps must be positive")
    X0 = _initial(cfg, dom, seed)
    traj = simulate(stepper, dom, drift, noise, X0, seed, 0)
    sup = np.array([np.max(np.abs(dom.from_spectral(row))) for row in traj.states])
    hn = np.array([np.sqrt(dom.h_pair(row, row)) for row in traj.states])
    write_csv(out / "extinction.csv", ["t", "sup_abs", "h_norm"],
              np.column_stack([traj.times, sup, hn]).tolist())
    te = extinction_time(traj, eps)
    ok = (te is not None) if expect == "extinct" else (te is None)
    decay_ok = not strict or bool(np.all(np.diff(hn) < 0.0))
    status = "PASS" if (ok and decay_ok) else "FAIL"
    te_text = "none" if te is None else f"{te:.6g}"
    extra = "" if not strict else f", H-norm strictly decreasing: {decay_ok}"
    print(f"{status} extinction: expected {expect}, first time below "
          f"eps={eps:g}: {te_text} (sup at T: {sup[-1]:.3e}{extra})")
    return (0 if ok and decay_ok else 1), ["extinction.csv"]


def _cmd_ou_oracle(cfg, dom, drift, noise, stepper, seed, out):
    times = _items(_read(_section(cfg, "ou"), "ou", times="list")["times"], "float",
                   "ou.times")
    if not times:
        raise ConfigError("ou.times", "need at least one time")
    ensemble, save_every = _run_params(cfg)
    if noise.n_modes < stepper.n_modes:
        raise ConfigError("noise.n_modes",
                          "the oracle needs noise on every tracked mode")
    X0 = _initial(cfg, dom, seed)
    # The closed form itself validates that the drift is the linear one.
    try:
        ou_oracle(dom, noise, X0, 0.0, drift=drift)
    except ValueError as exc:
        raise ConfigError("drift", str(exc)) from exc
    grid = stepper.dt * save_every
    for i, t in enumerate(times):
        k = t / grid
        if not (0.0 < t <= stepper.T) or abs(k - round(k)) > 1e-9 * max(1.0, k):
            raise ConfigError(f"ou.times[{i}]",
                              f"must lie on the save grid (multiples of {grid:g})")
    names = tuple(f"mode_{k}" for k in range(1, stepper.n_modes + 1))
    stats = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble, names,
                        save_every=save_every)
    rows = ou_z_table(stats, dom, noise, X0, times)
    worst = max([0.0] + [abs(row[i]) for row in rows for i in (4, 7)])
    write_csv(out / "ou.csv", ["t", "mode", "mean_emp", "mean_exact", "z_mean", "var_emp",
                               "var_exact", "z_var"], rows)
    ok = worst < 3.0
    status = "PASS" if ok else "FAIL"
    print(f"{status} ou-oracle: max |z| = {worst:.3f} over {2 * len(rows)} "
          f"statistics ({stepper.n_modes} modes x {len(times)} times x "
          f"2 moments, n={stats.n_paths})")
    return (0 if ok else 1), ["ou.csv"]


def _cmd_ergodicity(cfg, dom, drift, noise, stepper, seed, out):
    v = _read(_section(cfg, "ergodicity"), "ergodicity", observable=("str", "mode_1"),
              lip=("auto", "auto"), declared_c=("auto", "auto"),
              y0=("dict", {"shape": "zero"}), tail_fraction=("float", 0.5),
              y_seed=("int", seed + 1))
    ensemble, save_every = _run_params(cfg)
    observable, lip, declared = v["observable"], v["lip"], v["declared_c"]
    if not 0.0 < v["tail_fraction"] <= 1.0:
        raise ConfigError("ergodicity.tail_fraction", "must lie in (0, 1]")
    _wrap_build("ergodicity.observable", check_observables, (observable,), paired=False,
                n_grid=dom.n_grid)
    if lip == "auto":
        if not observable.startswith("mode_"):
            raise ConfigError("ergodicity.lip",
                              "auto Lipschitz constants exist only for mode_k "
                              "observables; give lip explicitly")
        lip = math.sqrt(dom.lam[int(observable[5:]) - 1])
    elif not (math.isfinite(lip) and lip >= 0):
        raise ConfigError("ergodicity.lip", "must be >= 0 and finite")
    if declared == "auto":
        if not is_linear_additive(drift, noise):
            raise ConfigError("ergodicity.declared_c",
                              "auto rate exists only for the linear additive "
                              "setting; give declared_c explicitly")
        declared = -2.0 * dom.lam[0]
    elif not declared < 0:
        raise ConfigError("ergodicity.declared_c", "declared rate must be negative")
    X0 = _initial(cfg, dom, seed)
    Y0 = _build_initial(v["y0"], dom, seed, "ergodicity.y0")
    stats_x = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                          (observable,), save_every=save_every)
    stats_y = monte_carlo(stepper, dom, drift, noise, Y0, v["y_seed"], ensemble,
                          (observable,), save_every=save_every)
    d0 = h_norm(dom, X0 - Y0)
    rep = ergodicity_test(stats_x, stats_y, observable, lip=lip,
                          declared_c=declared, x0_distance=d0,
                          tail_fraction=v["tail_fraction"])
    rep.to_csv(out / "ergodicity.csv")
    print(rep.summary())
    return (0 if rep.passed else 1), ["ergodicity.csv"]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "check-conditions": _cmd_check_conditions,
    "ito-check": _cmd_ito_check,
    "contraction": _cmd_contraction,
    "energy": _cmd_energy,
    "extinction": _cmd_extinction,
    "ou-oracle": _cmd_ou_oracle,
    "ergodicity": _cmd_ergodicity,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spme",
        description="Spectral simulator and verification runner for monotone "
                    "stochastic diffusion equations.")
    p.add_argument("subcommand", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides config and SPME_SEED)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, raw = _load_config(args.config)
        seed = _resolve_seed(args.seed, cfg)
        dom = _build_domain(cfg)
        drift = _build_drift(cfg)
        noise = _build_noise(cfg)
        stepper = _build_stepper(cfg)
        for path, n_modes in (("stepper.n_modes", stepper.n_modes),
                              ("noise.n_modes", noise.n_modes)):
            if n_modes > dom.n_grid:
                raise ConfigError(path, f"more modes than the {dom.n_grid} grid points")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, outputs = _COMMANDS[args.subcommand](cfg, dom, drift, noise,
                                                   stepper, seed, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # stability refusals, convergence failures, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "master_seed": seed,
        "version": __version__,
        "subcommand": args.subcommand,
        "status": "PASS" if code == 0 else "FAIL",
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
