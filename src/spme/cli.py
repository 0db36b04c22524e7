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
import hashlib
import json
import math
import os
import re
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
    monte_carlo,
    simulate,
    write_csv,
)
from .noise import NoiseSpec, RhoFactor
from .triple import Field, SpectralDomain, h_norm
from .verify import (
    contraction_test,
    energy_estimate,
    ergodicity_test,
    extinction_time,
    is_linear_additive,
    ito_ledger,
    ito_refinement_study,
    ou_oracle,
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
    if not _KINDS[kind](value):
        raise ConfigError(path, f"expected {kind}, got {type(value).__name__}")
    return float(value) if kind == "float" else value


def _get(section: dict, key: str, kind: str, path: str, default=None,
         required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return _typed(section[key], kind, f"{path}.{key}")


def _no_extra(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _section(cfg: dict, name: str, required: bool = False) -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(name, "missing required section")
        return {}
    return _typed(cfg[name], "dict", name)


def _pair_list(raw, path: str):
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a [coeff, exponent] pair")
        out.append((_typed(item[0], "float", f"{path}[{i}][0]"),
                    _typed(item[1], "float", f"{path}[{i}][1]")))
    return tuple(out)


def _wrap_build(path: str, build, *args, **kwargs):
    # Constructor validation errors become config errors naming the section.
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------


def _build_domain(cfg: dict) -> SpectralDomain:
    sec = _section(cfg, "domain", required=True)
    _no_extra(sec, {"n_grid", "alpha"}, "domain")
    n_grid = _get(sec, "n_grid", "int", "domain", required=True)
    alpha = _get(sec, "alpha", "float", "domain", default=1.0)
    return _wrap_build("domain", SpectralDomain, n_grid, alpha=alpha)


def _build_psi(sec: dict, path: str) -> PsiSpec:
    _no_extra(sec, {"terms", "log_power", "modulation"}, path)
    terms = _pair_list(_get(sec, "terms", "list", path, default=[]),
                       f"{path}.terms")
    log_power = None
    if "log_power" in sec:
        raw = _typed(sec["log_power"], "list", f"{path}.log_power")
        if len(raw) != 2:
            raise ConfigError(f"{path}.log_power", "expected [theta, r]")
        log_power = (raw[0], raw[1])
    modulation = None
    if "modulation" in sec:
        msec = _typed(sec["modulation"], "dict", f"{path}.modulation")
        mpath = f"{path}.modulation"
        _no_extra(msec, {"a_min", "a_max", "period"}, mpath)
        a_min = _get(msec, "a_min", "float", mpath, required=True)
        a_max = _get(msec, "a_max", "float", mpath, required=True)
        period = _get(msec, "period", "float", mpath, required=True)
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
    sec = _section(cfg, "drift", required=True)
    _no_extra(sec, {"mode", "psi", "phi", "f_const", "g_const"}, "drift")
    mode = _get(sec, "mode", "str", "drift", default="A1")
    psi = _build_psi(_typed(sec.get("psi", {}), "dict", "drift.psi"), "drift.psi")
    phi_sec = _typed(sec.get("phi", {}), "dict", "drift.phi")
    _no_extra(phi_sec, {"h", "phi0_terms"}, "drift.phi")
    phi = _wrap_build(
        "drift.phi", PhiSpec,
        h_const=_get(phi_sec, "h", "float", "drift.phi", default=0.0),
        phi0_terms=_pair_list(_get(phi_sec, "phi0_terms", "list", "drift.phi",
                                   default=[]), "drift.phi.phi0_terms"))
    return _wrap_build(
        "drift", DriftSpec, psi=psi, phi=phi, mode=mode,
        f_const=_get(sec, "f_const", "float", "drift", default=0.0),
        g_const=_get(sec, "g_const", "float", "drift", default=0.0))


def _build_noise(cfg: dict) -> NoiseSpec:
    sec = _section(cfg, "noise", required=True)
    _no_extra(sec, {"sigma0", "decay", "n_modes", "mult"}, "noise")
    sigma0 = _get(sec, "sigma0", "float", "noise", required=True)
    decay = _get(sec, "decay", "float", "noise", default=1.0)
    n_modes = _get(sec, "n_modes", "int", "noise", required=True)
    if n_modes < 1:
        raise ConfigError("noise.n_modes", "need at least one mode")
    if sigma0 < 0:
        raise ConfigError("noise.sigma0", "amplitude must be >= 0")
    mult = None
    if "mult" in sec:
        msec = _typed(sec["mult"], "dict", "noise.mult")
        _no_extra(msec, {"rho_min", "rho_max"}, "noise.mult")
        mult = _wrap_build(
            "noise.mult", RhoFactor,
            rho_min=_get(msec, "rho_min", "float", "noise.mult", required=True),
            rho_max=_get(msec, "rho_max", "float", "noise.mult", required=True))
    k = np.arange(1, n_modes + 1, dtype=float)
    return NoiseSpec(sigma=tuple(sigma0 * k**-decay), mult=mult)


def _build_stepper(cfg: dict) -> StepperConfig:
    sec = _section(cfg, "stepper", required=True)
    allowed = {"dt", "T", "n_modes", "scheme", "record_ito", "implicit_tol",
               "implicit_max_iter"}
    _no_extra(sec, allowed, "stepper")
    kwargs = dict(
        dt=_get(sec, "dt", "float", "stepper", required=True),
        T=_get(sec, "T", "float", "stepper", required=True),
        n_modes=_get(sec, "n_modes", "int", "stepper", required=True),
        scheme=_get(sec, "scheme", "str", "stepper", default="explicit"),
        record_ito=_get(sec, "record_ito", "bool", "stepper", default=False),
    )
    if "implicit_tol" in sec:
        kwargs["implicit_tol"] = _get(sec, "implicit_tol", "float", "stepper")
    if "implicit_max_iter" in sec:
        kwargs["implicit_max_iter"] = _get(sec, "implicit_max_iter", "int", "stepper")
    return _wrap_build("stepper", StepperConfig, **kwargs)


_SHAPES = ("bump", "eigenmode", "random", "zero")


def _build_initial(sec: dict, dom: SpectralDomain, master_seed: int,
                   path: str) -> Field:
    _no_extra(sec, {"shape", "amplitude", "center", "width", "k", "gamma"}, path)
    shape = _get(sec, "shape", "str", path, required=True)
    if shape not in _SHAPES:
        raise ConfigError(f"{path}.shape", f"unknown shape (choose from {_SHAPES})")
    amp = _get(sec, "amplitude", "float", path, default=1.0)
    if shape == "zero":
        return Field.zero(dom)
    if shape == "bump":
        center = _get(sec, "center", "float", path, default=0.5)
        width = _get(sec, "width", "float", path, default=0.15)
        if not width > 0:
            raise ConfigError(f"{path}.width", "width must be positive")
        return Field.from_values(dom, amp * np.exp(-((dom.x - center) / width) ** 2))
    if shape == "eigenmode":
        k = _get(sec, "k", "int", path, default=1)
        if not 1 <= k <= dom.n_grid:
            raise ConfigError(f"{path}.k", f"mode index out of range 1..{dom.n_grid}")
        coeffs = np.zeros(dom.n_grid)
        coeffs[k - 1] = amp
        return Field.from_coeffs(dom, coeffs)
    # random: independent Gaussian spectral coefficients with decay k^-gamma,
    # drawn from a stream derived from the master seed so runs reproduce.
    gamma = _get(sec, "gamma", "float", path, default=1.0)
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0x1C0]))
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    return Field.from_coeffs(dom, amp * rng.standard_normal(dom.n_grid) * k**-gamma)


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
        return _get(run, "master_seed", "int", "run")
    env = os.environ.get("SPME_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError("SPME_SEED", "environment seed must be an integer") from exc
    raise ConfigError("run.master_seed",
                      "no seed: pass --seed, set run.master_seed, or SPME_SEED")


def _run_params(cfg: dict):
    sec = _section(cfg, "run")
    _no_extra(sec, {"ensemble_size", "master_seed", "save_every"}, "run")
    ensemble = _get(sec, "ensemble_size", "int", "run", default=8)
    save_every = _get(sec, "save_every", "int", "run", default=1)
    if ensemble < 2:
        raise ConfigError("run.ensemble_size", "need at least 2 paths")
    if save_every < 1:
        raise ConfigError("run.save_every", "must be >= 1")
    return ensemble, save_every


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg, dom, drift, noise, stepper, seed, out):
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    ensemble, save_every = _run_params(cfg)
    names = cfg.get("observables", ["h_norm_sq", "modular", "sup_abs"])
    names = tuple(_typed(n, "str", f"observables[{i}]")
                  for i, n in enumerate(_typed(names, "list", "observables")))
    traj = simulate(stepper, dom, drift, noise, X0, seed, 0)
    traj.to_csv(out / "trajectory.csv")
    try:
        stats = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                            names, save_every=save_every)
    except ValueError as exc:
        raise ConfigError("observables", str(exc)) from exc
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
        reports.append(check_H(dom, drift, noise))
        consts = declared_constants(dom, drift, noise)
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
    sec = _section(cfg, "ito")
    _no_extra(sec, {"dts"}, "ito")
    dts = sec.get("dts", [2e-3, 1e-3, 5e-4])
    dts = [_typed(d, "float", f"ito.dts[{i}]") for i, d in enumerate(
        _typed(dts, "list", "ito.dts"))]
    for i, dt in enumerate(dts):
        steps = stepper.T / dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"ito.dts[{i}]", "T must be a multiple of each dt")
        if i and abs(dts[i - 1] - 2 * dt) > 1e-12 * dts[i - 1]:
            raise ConfigError(f"ito.dts[{i}]", "each dt must halve the previous")
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    study = ito_refinement_study(dom, drift, noise, X0, seed, stepper.T,
                                 stepper.n_modes, dts, scheme=stepper.scheme)
    fine = StepperConfig(dt=dts[-1], T=stepper.T, n_modes=stepper.n_modes,
                         scheme=stepper.scheme, record_ito=True)
    ito_ledger(simulate(fine, dom, drift, noise, X0, seed, 0)).to_csv(
        out / "ledger.csv")
    write_csv(out / "refinement.csv", ["dt", "max_residual"],
              zip(study.dts, study.max_residuals))
    monotone = all(a > b for a, b in zip(study.max_residuals,
                                         study.max_residuals[1:]))
    ok = monotone and study.order >= 0.8
    print(study.summary() if monotone else
          f"FAIL ito-refinement: residuals not monotone {study.max_residuals}")
    return (0 if ok else 1), ["ledger.csv", "refinement.csv"]


def _cmd_contraction(cfg, dom, drift, noise, stepper, seed, out):
    sec = _section(cfg, "contraction")
    _no_extra(sec, {"declared_c", "groups", "transient_fraction", "floor", "y0"},
              "contraction")
    ensemble, save_every = _run_params(cfg)
    groups = _get(sec, "groups", "int", "contraction", default=1)
    if groups < 1 or ensemble % groups:
        raise ConfigError("contraction.groups",
                          f"groups must divide ensemble size {ensemble}")
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    y_sec = sec.get("y0", {"shape": "zero"})
    Y0 = _build_initial(_typed(y_sec, "dict", "contraction.y0"), dom, seed,
                        "contraction.y0")
    declared = sec.get("declared_c", "auto")
    if declared == "auto":
        declared = declared_constants(dom, drift, noise)["c_h2"]
    else:
        declared = _typed(declared, "float", "contraction.declared_c")
    tables = [
        monte_carlo(stepper, dom, drift, noise, X0, seed + g, ensemble // groups,
                    ("dist_sq",), Y0=Y0, save_every=save_every)
        for g in range(groups)
    ]
    rep = contraction_test(
        tables[0] if groups == 1 else tables, declared_c=declared,
        transient_fraction=_get(sec, "transient_fraction", "float",
                                "contraction", default=0.1),
        floor=_get(sec, "floor", "float", "contraction", default=1e-12))
    rep.to_csv(out / "contraction.csv")
    print(rep.summary())
    return (0 if rep.passed else 1), ["contraction.csv"]


def _cmd_energy(cfg, dom, drift, noise, stepper, seed, out):
    sec = _section(cfg, "energy")
    _no_extra(sec, {"falsify_factor"}, "energy")
    ensemble, save_every = _run_params(cfg)
    if save_every != 1:
        raise ConfigError("run.save_every",
                          "the energy check needs statistics at every step")
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    consts = declared_constants(dom, drift, noise)
    stats = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                        ("h_norm_sq", "R", "drift_norm_sq"))
    rep = energy_estimate(stats, consts, stepper.dt)
    rep.to_csv(out / "energy.csv")
    print(rep.summary())
    ok = rep.passed
    outputs = ["energy.csv"]
    if "falsify_factor" in sec:
        factor = _get(sec, "falsify_factor", "float", "energy")
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
    sec = _section(cfg, "extinction")
    _no_extra(sec, {"eps", "expect", "strict_decay"}, "extinction")
    eps = _get(sec, "eps", "float", "extinction", default=1e-6)
    expect = _get(sec, "expect", "str", "extinction", default="extinct")
    if expect not in ("extinct", "survive"):
        raise ConfigError("extinction.expect", "choose 'extinct' or 'survive'")
    strict = _get(sec, "strict_decay", "bool", "extinction", default=False)
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    traj = simulate(stepper, dom, drift, noise, X0, seed, 0)
    sup = np.array([np.max(np.abs(s.values)) for s in traj.states])
    hn = np.array([h_norm(dom, s) for s in traj.states])
    write_csv(out / "extinction.csv", ["t", "sup_abs", "h_norm"],
              np.column_stack([traj.times, sup, hn]).tolist())
    try:
        te = extinction_time(traj, eps)
    except ValueError as exc:
        raise ConfigError("extinction.eps", str(exc)) from exc
    ok = (te is not None) if expect == "extinct" else (te is None)
    decay_ok = True
    if strict:
        decay_ok = bool(np.all(np.diff(hn) < 0.0))
    status = "PASS" if (ok and decay_ok) else "FAIL"
    te_text = "none" if te is None else f"{te:.6g}"
    extra = "" if not strict else f", H-norm strictly decreasing: {decay_ok}"
    print(f"{status} extinction: expected {expect}, first time below "
          f"eps={eps:g}: {te_text} (sup at T: {sup[-1]:.3e}{extra})")
    return (0 if ok and decay_ok else 1), ["extinction.csv"]


def _cmd_ou_oracle(cfg, dom, drift, noise, stepper, seed, out):
    sec = _section(cfg, "ou")
    _no_extra(sec, {"times"}, "ou")
    times = [_typed(t, "float", f"ou.times[{i}]") for i, t in enumerate(
        _typed(_get(sec, "times", "list", "ou", required=True), "list",
               "ou.times"))]
    ensemble, save_every = _run_params(cfg)
    if noise.n_modes < stepper.n_modes:
        raise ConfigError("noise.n_modes",
                          "the oracle needs noise on every tracked mode")
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
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
    n = stats.n_paths
    rows, worst = [], 0.0
    for t in times:
        idx = int(np.argmin(np.abs(stats.times - t)))
        mean_exact, var_exact = ou_oracle(dom, noise, X0, stats.times[idx])
        for k, name in enumerate(names):
            m_emp = stats.mean_of(name)[idx]
            v_emp = stats.var_of(name)[idx]
            se_m = stats.se_of(name)[idx]
            z_m = (m_emp - mean_exact[k]) / se_m
            se_v = var_exact[k] * math.sqrt(2.0 / (n - 1))
            z_v = (v_emp - var_exact[k]) / se_v
            worst = max(worst, abs(z_m), abs(z_v))
            rows.append((stats.times[idx], k + 1, m_emp, mean_exact[k], z_m,
                         v_emp, var_exact[k], z_v))
    write_csv(out / "ou.csv", ["t", "mode", "mean_emp", "mean_exact", "z_mean", "var_emp",
                               "var_exact", "z_var"], rows)
    ok = worst < 3.0
    status = "PASS" if ok else "FAIL"
    print(f"{status} ou-oracle: max |z| = {worst:.3f} over {2 * len(rows)} "
          f"statistics ({stepper.n_modes} modes x {len(times)} times x "
          f"2 moments, n={n})")
    return (0 if ok else 1), ["ou.csv"]


def _cmd_ergodicity(cfg, dom, drift, noise, stepper, seed, out):
    sec = _section(cfg, "ergodicity")
    _no_extra(sec, {"observable", "lip", "declared_c", "y0", "tail_fraction",
                    "y_seed"}, "ergodicity")
    ensemble, save_every = _run_params(cfg)
    observable = _get(sec, "observable", "str", "ergodicity", default="mode_1")
    lip = sec.get("lip", "auto")
    if lip == "auto":
        m = re.fullmatch(r"mode_(\d+)", observable)
        if m is None:
            raise ConfigError("ergodicity.lip",
                              "auto Lipschitz constants exist only for mode_k "
                              "observables; give lip explicitly")
        k = int(m.group(1))
        if not 1 <= k <= dom.n_grid:
            raise ConfigError("ergodicity.observable", "mode index out of range")
        lip = math.sqrt(dom.lam[k - 1])
    else:
        lip = _typed(lip, "float", "ergodicity.lip")
    declared = sec.get("declared_c", "auto")
    if declared == "auto":
        if not is_linear_additive(drift, noise):
            raise ConfigError("ergodicity.declared_c",
                              "auto rate exists only for the linear additive "
                              "setting; give declared_c explicitly")
        declared = -2.0 * dom.lam[0]
    else:
        declared = _typed(declared, "float", "ergodicity.declared_c")
    X0 = _build_initial(_section(cfg, "initial", required=True), dom, seed,
                        "initial")
    y_sec = sec.get("y0", {"shape": "zero"})
    Y0 = _build_initial(_typed(y_sec, "dict", "ergodicity.y0"), dom, seed,
                        "ergodicity.y0")
    y_seed = _get(sec, "y_seed", "int", "ergodicity", default=seed + 1)
    stats_x = monte_carlo(stepper, dom, drift, noise, X0, seed, ensemble,
                          (observable,), save_every=save_every)
    stats_y = monte_carlo(stepper, dom, drift, noise, Y0, y_seed, ensemble,
                          (observable,), save_every=save_every)
    d0 = h_norm(dom, Field.from_coeffs(dom, X0.coeffs - Y0.coeffs))
    rep = ergodicity_test(stats_x, stats_y, observable, lip=lip,
                          declared_c=declared, x0_distance=d0,
                          tail_fraction=_get(sec, "tail_fraction", "float",
                                             "ergodicity", default=0.5))
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, outputs = _COMMANDS[args.subcommand](cfg, dom, drift, noise,
                                                   stepper, seed, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BlowUpError as exc:
        path = "" if exc.path is None else f"path {exc.path}, "
        print(f"blow-up: {exc} ({path}step {exc.step})", file=sys.stderr)
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
