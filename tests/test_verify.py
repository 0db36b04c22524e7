"""Tests for the trajectory-level verification checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spme.drift import DriftSpec, PhiSpec, PsiSpec, declared_constants
from spme.galerkin import StepperConfig, monte_carlo, simulate
from spme.noise import NoiseSpec, RhoFactor, power_decay_sigma
from spme.triple import Field, SpectralDomain, h_norm
from spme.verify import (
    _LEDGER_BLOCK_BYTES,
    ItoStudy,
    _compensated_cumsum,
    contraction_test,
    energy_estimate,
    ergodicity_test,
    extinction_time,
    is_linear_additive,
    ito_ledger,
    ito_refinement_study,
    ou_oracle,
)

LINEAR = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
NO_DRIFT = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")
PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
ZERO_NOISE = NoiseSpec(sigma=(0.0,))


def _sine_start(dom, amp=0.3):
    return Field.from_values(dom, amp * np.sin(np.pi * dom.x))


# ---------------------------------------------------------------------------
# Ito ledger
# ---------------------------------------------------------------------------


def test_ito_ledger_requires_records():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.01, n_modes=8)
    traj = simulate(cfg, dom, LINEAR, ZERO_NOISE, _sine_start(dom), 0)
    with pytest.raises(ValueError, match="record_ito"):
        ito_ledger(traj)


def test_ito_residual_zero_drift_zero_noise():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.05, n_modes=8, record_ito=True)
    traj = simulate(cfg, dom, NO_DRIFT, ZERO_NOISE, _sine_start(dom), 0)
    led = ito_ledger(traj)
    np.testing.assert_array_equal(led.residuals, 0.0)
    assert led.max_residual == 0.0


def test_ito_residual_deterministic_quadratic_remainder():
    # With sigma = 0 the explicit update gives the exact per-step identity
    # |X_{k+1}|^2 - |X_k|^2 = 2 dt <A_k, X_k>_H + dt^2 |A_k|_H^2, so the
    # ledger gap must equal the accumulated dt^2 |A|_H^2 term to rounding.
    dom = SpectralDomain(12)
    drift = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0), (0.5, 3.0))),
                      phi=PhiSpec(), mode="A1")
    cfg = StepperConfig(dt=1e-3, T=0.1, n_modes=12, record_ito=True)
    traj = simulate(cfg, dom, drift, NoiseSpec(sigma=(0.0, 0.0)),
                    _sine_start(dom), 7)
    led = ito_ledger(traj)
    a_sq = np.sum(traj.drift_record**2 / dom.lam, axis=1)
    expect = np.concatenate([[0.0], np.cumsum(cfg.dt**2 * a_sq)])
    np.testing.assert_allclose(led.residuals, expect, atol=1e-16, rtol=1e-10)
    assert led.max_residual == pytest.approx(expect[-1], rel=1e-10)


def test_ito_ledger_stochastic_gap_is_small():
    dom = SpectralDomain(12)
    noise = power_decay_sigma(6, 0.05, 1.0)
    cfg = StepperConfig(dt=1e-3, T=0.5, n_modes=12, record_ito=True)
    traj = simulate(cfg, dom, LINEAR, noise, _sine_start(dom), 11)
    max_res = ito_ledger(traj).max_residual
    scale = np.max(np.sum(traj.coeff_matrix()**2 / dom.lam, axis=1))
    assert max_res < 0.05 * scale


@pytest.mark.parametrize("mult", [None, RhoFactor(0.2, 1.5)], ids=["additive", "rho"])
@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
@pytest.mark.parametrize("n_modes", [6, 3])
def test_ito_ledger_books_only_the_noise_the_step_keeps(n_modes, scheme, mult):
    # Zero drift and six noise modes: each step adds the noise of the first
    # n_modes modes and drops the rest, so the ledger residual is the kept
    # modes' sum over steps j of (rho_j sigma_k)^2 (dW_jk^2 - dt) / lam_k, to
    # rounding.  Booking all six modes at n_modes 3 is off by about
    # -T sum_{k>3} sigma_k^2 / lam_k (-2.5e-3 here), however small dt is.
    dom = SpectralDomain(6)
    noise = NoiseSpec(sigma=(0.5,) * 6, mult=mult)
    cfg = StepperConfig(dt=1e-3, T=0.5, n_modes=n_modes, scheme=scheme, record_ito=True)
    X0 = Field.from_values(dom, 1.8 * np.exp(-((dom.x - 0.5) / 0.15) ** 2))
    traj = simulate(cfg, dom, NO_DRIFT, noise, X0, 1)
    led = ito_ledger(traj)
    X = traj.coeff_matrix()[:-1]
    rho = np.ones(len(X)) if mult is None else mult(np.sqrt(dom.h_pair(X, X)))
    weight = (rho[:, None] * noise.sigma_array()[:n_modes]) ** 2 / dom.lam[:n_modes]
    expect = np.cumsum(np.sum(weight * (traj.increments[:, :n_modes] ** 2 - cfg.dt), axis=1))
    np.testing.assert_array_equal(traj.diffusion_record[:, n_modes:], 0.0)
    np.testing.assert_allclose(led.residuals[1:], expect, rtol=0,
                               atol=1e-12 * np.max(led.h_norm_sq))


def _whole_matrix_ledger(traj):
    """The ledger's per-step terms evaluated on the whole coefficient matrix at once."""
    dom, X = traj.dom, traj.coeff_matrix()
    Y, Z, dW = traj.drift_record, traj.diffusion_record, traj.increments
    lam_n = dom.lam[: Z.shape[1]]
    hn = dom.h_pair(X, X)
    pairing = 2.0 * dom.h_pair(Y, X[:-1])
    hs = np.sum(Z * Z / lam_n, axis=1)
    mart = 2.0 * np.sum(Z * dW * X[:-1, : Z.shape[1]] / lam_n, axis=1)
    increments = (pairing + hs) * np.diff(traj.times) + mart
    hn_step = dom.h_pair(np.diff(X, axis=0), X[1:] + X[:-1])
    residuals = np.concatenate([[0.0], _compensated_cumsum(hn_step - increments)])
    return dict(h_norm_sq=hn, pairing=pairing, hs=hs, martingale=mart, residuals=residuals)


def _first_steps(traj, k):
    return dataclasses.replace(
        traj, times=traj.times[:k + 1], states=traj.states[:k + 1],
        drift_record=traj.drift_record[:k], diffusion_record=traj.diffusion_record[:k],
        increments=traj.increments[:k])


_LEDGER_NOISES = {
    "zero": ZERO_NOISE,
    "additive": power_decay_sigma(6, 0.05, 1.0),
    "rho": NoiseSpec(sigma=(0.05, 0.02, 0.01), mult=RhoFactor(0.2, 1.0)),
}


@pytest.mark.parametrize("noise", sorted(_LEDGER_NOISES))
@pytest.mark.parametrize("scheme, dt", [("explicit", 6.25e-6), ("semi-implicit", 1e-4)])
def test_ito_ledger_blocks_give_the_whole_matrix_bytes(noise, scheme, dt):
    # The ledger evaluates its row sums a block of states at a time; every
    # column must keep the bytes of the whole-matrix evaluation, on both
    # sides of each block edge and across many blocks.
    dom = SpectralDomain(256)
    block = _LEDGER_BLOCK_BYTES // (8 * dom.n_grid)
    cfg = StepperConfig(dt=dt, T=dt * 4000, n_modes=256, scheme=scheme, record_ito=True)
    traj = simulate(cfg, dom, PME, _LEDGER_NOISES[noise], _sine_start(dom, 0.4), 3)
    for k in (1, block - 1, block, block + 1, 4000):
        part = _first_steps(traj, k)
        led, ref = ito_ledger(part), _whole_matrix_ledger(part)
        assert led.times is part.times
        for name, expect in ref.items():
            got = getattr(led, name)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), (k, name)


def test_ito_ledger_holds_no_whole_coefficient_matrix():
    # Room for the block of states, a few block-sized temporaries (256 KiB
    # each) and the per-step columns (32 KB each).  The whole-matrix
    # evaluation peaked at 33 MB here, 8 MB per matrix.
    limit = 2 * 2**20
    dom = SpectralDomain(256)
    cfg = StepperConfig(dt=1e-4, T=0.4, n_modes=256, scheme="semi-implicit", record_ito=True)
    traj = simulate(cfg, dom, PME, ZERO_NOISE, _sine_start(dom, 0.4), 0)
    assert len(traj.states) == 4001
    tracemalloc.start()
    try:
        ito_ledger(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def test_ito_refinement_order():
    # Halving dt on one coupled Brownian path shrinks the ledger gap at
    # first order: the dt^2 |A|^2 accumulation and the quadratic-variation
    # replacement error both refine.
    dom = SpectralDomain(12)
    noise = power_decay_sigma(6, 0.05, 1.0)
    study = ito_refinement_study(dom, LINEAR, noise, _sine_start(dom),
                                 master_seed=11, T=0.5, n_modes=12,
                                 dts=(2e-3, 1e-3, 5e-4))
    assert study.order >= 0.8
    assert study.max_residuals[0] > study.max_residuals[1] > study.max_residuals[2]
    assert study.passed and "PASS" in study.summary()
    # The study keeps the ledger of its finest level.
    assert study.ledger.max_residual == study.max_residuals[-1]
    assert len(study.ledger.times) == 1001


def test_ito_study_passes_only_monotone_residuals():
    study = ItoStudy(dts=(2e-3, 1e-3, 5e-4), max_residuals=(1e-3, 2e-3, 2.5e-4),
                     order=0.9, ledger=None)
    assert study.order >= 0.8 and not study.passed
    assert study.summary() == \
        "FAIL ito-refinement: residuals not monotone (0.001, 0.002, 0.00025)"


def test_ito_refinement_rejects_non_halving_dts():
    dom = SpectralDomain(8)
    with pytest.raises(ValueError, match="halve"):
        ito_refinement_study(dom, LINEAR, ZERO_NOISE, _sine_start(dom),
                             master_seed=0, T=0.1, n_modes=8,
                             dts=(1e-2, 5e-3, 2e-3))


@pytest.mark.parametrize("dts", [(), (1e-3,)])
def test_ito_refinement_needs_two_dts(dts):
    # One step size has no slope to fit: np.polyfit would return a number.
    dom = SpectralDomain(8)
    with pytest.raises(ValueError, match="at least two step sizes"):
        ito_refinement_study(dom, LINEAR, ZERO_NOISE, _sine_start(dom),
                             master_seed=0, T=0.1, n_modes=8, dts=dts)


def test_ito_ledger_csv(tmp_path):
    dom = SpectralDomain(6)
    cfg = StepperConfig(dt=1e-3, T=0.01, n_modes=6, record_ito=True)
    traj = simulate(cfg, dom, LINEAR, power_decay_sigma(3, 0.1, 1.0),
                    _sine_start(dom), 3)
    led = ito_ledger(traj)
    out = tmp_path / "ledger.csv"
    led.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,h_norm_sq,pairing,hs,martingale,residual"
    assert len(lines) == 1 + len(led.times)
    assert float(lines[1].split(",")[1]) == led.h_norm_sq[0]
    assert lines[-1].split(",")[2] == "nan"  # per-step columns are padded


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


def test_contraction_linear_exact_discrete_slope():
    # Additive noise cancels in the pair difference, so E dist^2 decays by
    # (1 - dt*lam_1)^2 per step and the fitted slope must agree with the
    # closed form 2 log(1 - dt*lam_1) / dt to rounding.
    dom = SpectralDomain(4)
    noise = NoiseSpec(sigma=(0.1,))
    cfg = StepperConfig(dt=1e-3, T=0.5, n_modes=1)
    X0 = Field.from_coeffs(dom, np.array([1.0, 0.0, 0.0, 0.0]))
    st = monte_carlo(cfg, dom, LINEAR, noise, X0, 3, 100, ("dist_sq",),
                     Y0=Field.zero(dom), save_every=25)
    rep = contraction_test(st, declared_c=-2.0 * dom.lam[0])
    exact = 2.0 * math.log(1.0 - cfg.dt * dom.lam[0]) / cfg.dt
    assert rep.slope == pytest.approx(exact, rel=1e-12)
    assert rep.passed  # log(1-x) < -x, so the discrete slope beats -2 lam_1
    assert rep.slope_se < 1e-12
    assert "PASS contraction" in rep.summary()


def test_contraction_growth_slope_zero_diffusion():
    # Psi = 0 with a linear perturbation h*s makes the pair difference grow
    # by (1 + h dt) per step: slope = 2 log(1 + h dt) / dt, just under 2h.
    dom = SpectralDomain(4)
    h = 0.3
    drift = DriftSpec(psi=PsiSpec(), phi=PhiSpec(h_const=h), mode="A1")
    cfg = StepperConfig(dt=1e-3, T=1.0, n_modes=4)
    X0 = Field.from_coeffs(dom, np.array([1.0, 0.5, 0.0, 0.0]))
    st = monte_carlo(cfg, dom, drift, NoiseSpec(sigma=(0.05,)), X0, 9, 100,
                     ("dist_sq",), Y0=Field.zero(dom), save_every=100)
    rep = contraction_test(st, declared_c=2.0 * h)
    exact = 2.0 * math.log(1.0 + h * cfg.dt) / cfg.dt
    assert rep.slope == pytest.approx(exact, rel=1e-10)
    assert rep.passed


def test_contraction_requires_enough_pairs():
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=1e-2, T=0.1, n_modes=4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, NoiseSpec(sigma=(0.1,)), X0, 0, 50,
                     ("dist_sq",), Y0=Field.zero(dom))
    with pytest.raises(ValueError, match="100"):
        contraction_test(st, declared_c=0.0)


def test_contraction_identical_starts_has_no_slope():
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=1e-2, T=0.1, n_modes=4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, NoiseSpec(sigma=(0.1,)), X0, 0, 128,
                     ("dist_sq",), Y0=X0)
    with pytest.raises(ValueError, match="undefined slope"):
        contraction_test(st, declared_c=0.0)


def test_contraction_group_tables():
    # Multiplicative noise keeps the pair difference stochastic, so the
    # group-wise slopes give a genuine spread; monotone diffusion plus the
    # h=0 noise-Lipschitz budget bounds the rate by c_h2.
    dom = SpectralDomain(8)
    pme = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")
    from spme.noise import RhoFactor
    noise = NoiseSpec(sigma=(0.2, 0.1), mult=RhoFactor(rho_min=0.0, rho_max=1.0))
    c_h2 = declared_constants(dom, pme, noise)["c_h2"]
    cfg = StepperConfig(dt=2e-3, T=0.5, n_modes=8)
    X0 = _sine_start(dom, 0.4)
    tables = [
        monte_carlo(cfg, dom, pme, noise, X0, seed, 50, ("dist_sq",),
                    Y0=Field.zero(dom), save_every=25)
        for seed in (101, 102, 103, 104)
    ]
    rep = contraction_test(tables, declared_c=c_h2)
    assert rep.group_slopes is not None and len(rep.group_slopes) == 4
    assert rep.slope_se > 0.0
    assert rep.n_paths == 200
    assert rep.passed


def test_contraction_group_tables_must_match():
    dom = SpectralDomain(4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    kw = dict(observables=("dist_sq",), Y0=Field.zero(dom))
    a = monte_carlo(StepperConfig(dt=1e-2, T=0.1, n_modes=4), dom, LINEAR,
                    NoiseSpec(sigma=(0.1,)), X0, 0, 60, **kw)
    b = monte_carlo(StepperConfig(dt=1e-2, T=0.2, n_modes=4), dom, LINEAR,
                    NoiseSpec(sigma=(0.1,)), X0, 1, 60, **kw)
    with pytest.raises(ValueError, match="share"):
        contraction_test([a, b], declared_c=0.0)


def test_contraction_csv(tmp_path):
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=1e-3, T=0.2, n_modes=1)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, NoiseSpec(sigma=(0.1,)), X0, 3, 100,
                     ("dist_sq",), Y0=Field.zero(dom), save_every=20)
    rep = contraction_test(st, declared_c=-2.0 * dom.lam[0])
    out = tmp_path / "contraction.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,log_mean_dist_sq"
    assert len(lines) == 1 + len(rep.times_used)


# ---------------------------------------------------------------------------
# Energy estimate
# ---------------------------------------------------------------------------

ENERGY_OBS = ("h_norm_sq", "R", "drift_norm_sq")


def test_energy_zero_drift_zero_noise_is_exact_equality():
    # Frozen state: the weighted telescope closes with equality, because
    # w_K + c2 dt sum_{j<K} w_{j+1} == 1 when c1 == c2 and f == 0.
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=2e-3, T=0.5, n_modes=8)
    X0 = _sine_start(dom, 0.4)
    consts = declared_constants(dom, NO_DRIFT, ZERO_NOISE)
    st = monte_carlo(cfg, dom, NO_DRIFT, ZERO_NOISE, X0, 5, 2, ENERGY_OBS)
    rep = energy_estimate(st, consts, cfg.dt)
    assert rep.passed and rep.first_violation is None
    scale = h_norm(dom, X0) ** 2
    assert np.max(np.abs(rep.lhs - rep.rhs)) < 1e-13 * scale


def test_energy_pme_additive_noise_passes():
    dom = SpectralDomain(8)
    pme = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")
    noise = power_decay_sigma(4, 0.05, 1.0)
    consts = declared_constants(dom, pme, noise)
    cfg = StepperConfig(dt=2e-3, T=0.5, n_modes=8)
    st = monte_carlo(cfg, dom, pme, noise, _sine_start(dom, 0.4), 5, 64,
                     ENERGY_OBS)
    rep = energy_estimate(st, consts, cfg.dt)
    assert rep.passed
    assert rep.sup_mean_h_norm_sq > 0.0
    assert "PASS energy" in rep.summary()


def test_energy_falsifier_inflated_dissipation_fails():
    # Demanding ten times the true dissipation must break the bound early:
    # the check has actual teeth.
    dom = SpectralDomain(8)
    pme = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")
    noise = power_decay_sigma(4, 0.05, 1.0)
    consts = dict(declared_constants(dom, pme, noise))
    consts["c2"] *= 10.0
    cfg = StepperConfig(dt=2e-3, T=0.5, n_modes=8)
    st = monte_carlo(cfg, dom, pme, noise, _sine_start(dom, 0.4), 5, 64,
                     ENERGY_OBS)
    rep = energy_estimate(st, consts, cfg.dt)
    assert not rep.passed
    assert rep.first_violation is not None and rep.first_violation <= 0.05
    assert "FAIL energy" in rep.summary()


def test_energy_requires_every_step():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=2e-3, T=0.1, n_modes=8)
    consts = declared_constants(dom, NO_DRIFT, ZERO_NOISE)
    st = monte_carlo(cfg, dom, NO_DRIFT, ZERO_NOISE, _sine_start(dom), 5, 2,
                     ENERGY_OBS, save_every=5)
    with pytest.raises(ValueError, match="every step"):
        energy_estimate(st, consts, cfg.dt)


def test_energy_csv(tmp_path):
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=2e-3, T=0.1, n_modes=8)
    consts = declared_constants(dom, NO_DRIFT, ZERO_NOISE)
    st = monte_carlo(cfg, dom, NO_DRIFT, ZERO_NOISE, _sine_start(dom), 5, 2,
                     ENERGY_OBS)
    rep = energy_estimate(st, consts, cfg.dt)
    out = tmp_path / "energy.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,lhs,rhs,band"
    assert len(lines) == 1 + len(rep.times)


# ---------------------------------------------------------------------------
# Extinction
# ---------------------------------------------------------------------------


def test_extinction_zero_start_is_immediate():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-2, T=0.05, n_modes=8)
    traj = simulate(cfg, dom, NO_DRIFT, ZERO_NOISE, Field.zero(dom), 0)
    assert extinction_time(traj, 1e-8) == 0.0


def test_extinction_eps_validation():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-2, T=0.05, n_modes=8)
    traj = simulate(cfg, dom, NO_DRIFT, ZERO_NOISE, Field.zero(dom), 0)
    with pytest.raises(ValueError):
        extinction_time(traj, 0.0)


def test_extinction_fast_diffusion_vs_porous_medium():
    # Sublinear diffusion (exponent 1/2) drives the profile to zero in
    # finite time; the cubic nonlinearity only decays algebraically and is
    # still an order of magnitude above the threshold at the horizon.
    dom = SpectralDomain(32, alpha=1.0)
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    results = {}
    for label, r in (("fast", 0.5), ("pme", 3.0)):
        drift = DriftSpec(psi=PsiSpec(terms=((1.0, r),)), phi=PhiSpec(),
                          mode="A1")
        cfg = StepperConfig(dt=1e-2, T=2.0, n_modes=32, scheme="semi-implicit",
                            implicit_tol=1e-8)
        traj = simulate(cfg, dom, drift, ZERO_NOISE, X0, master_seed=1)
        results[label] = extinction_time(traj, 1e-6)
    assert results["fast"] is not None and results["fast"] < 1.0
    assert results["pme"] is None


# ---------------------------------------------------------------------------
# Closed-form linear oracle
# ---------------------------------------------------------------------------


def test_ou_oracle_at_zero_and_stationary():
    dom = SpectralDomain(8)
    noise = power_decay_sigma(3, 0.2, 1.0)
    X0 = _sine_start(dom, 0.4)
    mean0, var0 = ou_oracle(dom, noise, X0, 0.0)
    np.testing.assert_array_equal(mean0, X0.coeffs)
    np.testing.assert_array_equal(var0, 0.0)
    mean_inf, var_inf = ou_oracle(dom, noise, X0, 50.0)
    np.testing.assert_allclose(mean_inf, 0.0, atol=1e-200)
    sig = noise.sigma_array()
    np.testing.assert_allclose(var_inf[:3], sig**2 / (2.0 * dom.lam[:3]),
                               rtol=1e-12)
    np.testing.assert_array_equal(var_inf[3:], 0.0)


def test_ou_oracle_semigroup_chain():
    # Mode k is a scalar linear SDE, so the exact one-step transition
    # mean *= exp(-lam dt), var = var*exp(-2 lam dt) + sigma^2(1-exp(-2 lam dt))/(2 lam)
    # iterated n times must land on the closed form at t = n dt.
    dom = SpectralDomain(6)
    noise = power_decay_sigma(6, 0.3, 0.5)
    X0 = Field.from_coeffs(dom, np.linspace(1.0, 0.5, 6))
    delta, n = 0.07, 9
    lam, sig = dom.lam, noise.sigma_array()
    m = X0.coeffs.copy()
    v = np.zeros(6)
    for _ in range(n):
        decay = np.exp(-2.0 * lam * delta)
        v = v * decay + sig**2 * (1.0 - decay) / (2.0 * lam)
        m = m * np.exp(-lam * delta)
    mean, var = ou_oracle(dom, noise, X0, n * delta)
    np.testing.assert_allclose(mean, m, rtol=1e-12)
    np.testing.assert_allclose(var, v, rtol=1e-12)


def test_ou_oracle_rejects_nonlinear_specs():
    dom = SpectralDomain(8)
    noise = power_decay_sigma(3, 0.2, 1.0)
    X0 = _sine_start(dom)
    pme = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")
    with pytest.raises(ValueError, match="linear"):
        ou_oracle(dom, noise, X0, 1.0, drift=pme)
    withh = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)),
                      phi=PhiSpec(h_const=0.2), mode="A1")
    with pytest.raises(ValueError, match="linear"):
        ou_oracle(dom, noise, X0, 1.0, drift=withh)
    linear_ok = ou_oracle(dom, noise, X0, 1.0, drift=LINEAR)
    assert linear_ok[0].shape == (8,)
    with pytest.raises(ValueError):
        ou_oracle(dom, noise, X0, -1.0)


@pytest.mark.parametrize("phi, mult, linear", [
    (PhiSpec(), None, True),
    # A declared sup|h| of 0 does not make a time-varying h vanish.
    (PhiSpec(h_func=lambda t: 0.1 * t, h_sup=0.0), None, False),
    (PhiSpec(), RhoFactor(0.5, 1.5), False),
], ids=["linear", "time-varying-h", "multiplicative-noise"])
def test_linear_additive_model_is_one_test(phi, mult, linear):
    # ou_oracle and the ergodicity command's automatic rate share this test.
    dom = SpectralDomain(8)
    noise = NoiseSpec(sigma=(0.2, 0.1), mult=mult)
    drift = DriftSpec(psi=LINEAR.psi, phi=phi, mode="A1")
    assert is_linear_additive(drift, noise) is linear
    if linear:
        ou_oracle(dom, noise, _sine_start(dom), 1.0, drift=drift)
    else:
        with pytest.raises(ValueError, match="linear drift"):
            ou_oracle(dom, noise, _sine_start(dom), 1.0, drift=drift)


# ---------------------------------------------------------------------------
# Ergodicity
# ---------------------------------------------------------------------------


def test_ergodicity_rejects_nonnegative_rate():
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=1e-2, T=0.1, n_modes=4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, NoiseSpec(sigma=(0.1,)), X0, 0, 8,
                     ("mode_1",))
    with pytest.raises(ValueError, match="negative"):
        ergodicity_test(st, st, "mode_1", lip=1.0, declared_c=0.0,
                        x0_distance=1.0)


def test_ergodicity_linear_two_starts():
    # Mode-1 means from starts 2*e_1 and 0 close at the discrete rate
    # (1 - dt lam_1)^k, inside the exp(c t / 2) envelope with c = -2 lam_1.
    dom = SpectralDomain(4)
    noise = NoiseSpec(sigma=(0.1,))
    cfg = StepperConfig(dt=1e-3, T=1.0, n_modes=1)
    X0 = Field.from_coeffs(dom, np.array([2.0, 0.0, 0.0, 0.0]))
    Y0 = Field.zero(dom)
    sx = monte_carlo(cfg, dom, LINEAR, noise, X0, 21, 200, ("mode_1",),
                     save_every=50)
    sy = monte_carlo(cfg, dom, LINEAR, noise, Y0, 22, 200, ("mode_1",),
                     save_every=50)
    d0 = h_norm(dom, Field.from_coeffs(dom, X0.coeffs - Y0.coeffs))
    rep = ergodicity_test(sx, sy, "mode_1", lip=math.sqrt(dom.lam[0]),
                          declared_c=-2.0 * dom.lam[0], x0_distance=d0)
    assert rep.passed_bound and rep.passed_average and rep.passed
    # t = 0 saturates the envelope: |2 - 0| == Lip * |X0 - Y0|_H.
    assert rep.diff[0] == pytest.approx(rep.bound[0], rel=1e-12)
    assert "PASS ergodicity" in rep.summary()


def test_ergodicity_identical_starts_trivial():
    dom = SpectralDomain(4)
    noise = NoiseSpec(sigma=(0.1,))
    cfg = StepperConfig(dt=1e-2, T=0.5, n_modes=4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, noise, X0, 5, 150, ("h_norm_sq",),
                     save_every=10)
    rep = ergodicity_test(st, st, "h_norm_sq", lip=1.0,
                          declared_c=-2.0 * dom.lam[0], x0_distance=0.0)
    np.testing.assert_array_equal(rep.diff, 0.0)
    assert rep.passed


def test_ergodicity_requires_matching_times(tmp_path):
    dom = SpectralDomain(4)
    noise = NoiseSpec(sigma=(0.1,))
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    a = monte_carlo(StepperConfig(dt=1e-2, T=0.5, n_modes=4), dom, LINEAR,
                    noise, X0, 5, 8, ("mode_1",), save_every=10)
    b = monte_carlo(StepperConfig(dt=1e-2, T=0.5, n_modes=4), dom, LINEAR,
                    noise, X0, 5, 8, ("mode_1",), save_every=25)
    with pytest.raises(ValueError, match="share"):
        ergodicity_test(a, b, "mode_1", lip=1.0, declared_c=-1.0,
                        x0_distance=0.0)
    rep = ergodicity_test(a, a, "mode_1", lip=1.0, declared_c=-1.0,
                          x0_distance=0.0)
    out = tmp_path / "ergo.csv"
    rep.to_csv(out)
    assert out.read_text().startswith("t,abs_diff,bound,combined_se\n")
