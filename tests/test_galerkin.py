"""Tests for the steppers, single-path simulation, and the ensemble driver."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from spme.drift import DriftSpec, PhiSpec, PsiSpec, assemble_A
from spme.galerkin import (
    BlowUpError,
    ConvergenceError,
    StabilityError,
    StepperConfig,
    Trajectory,
    UnsupportedSchemeError,
    monte_carlo,
    simulate,
    simulate_pair,
    step_explicit,
    step_semi_implicit,
)
from spme.noise import NoiseSpec, RhoFactor, increments_for_path, refine_increments
from spme.triple import Field, SpectralDomain, h_inner, h_norm

PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
LINEAR = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
NO_DRIFT = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")
ZERO_NOISE = NoiseSpec(sigma=(0.0,))


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, T=1.0, n_modes=4)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.3, T=1.0, n_modes=4)  # T not a multiple of dt
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, T=1.0, n_modes=0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, T=1.0, n_modes=4, scheme="midpoint")
    cfg = StepperConfig(dt=0.1, T=1.0, n_modes=4)
    assert cfg.n_steps == 10


def test_step_zero_drift_zero_noise_identity():
    dom = SpectralDomain(12)
    X = Field.from_values(dom, np.random.default_rng(0).normal(0, 1, 12))
    out = step_explicit(dom, NO_DRIFT, ZERO_NOISE, 0.0, X, np.zeros(1), 0.05)
    np.testing.assert_array_equal(out.coeffs, X.coeffs)
    # The implicit path round-trips through grid values, so exact up to ulps.
    out = step_semi_implicit(dom, NO_DRIFT, ZERO_NOISE, 0.0, X, np.zeros(1), 0.05)
    np.testing.assert_allclose(out.coeffs, X.coeffs, rtol=1e-13, atol=1e-16)


def test_linear_single_mode_recurrence():
    # Scalar recurrence oracle: mode-1 coefficient follows (1 - dt*lam_1)^k.
    dom = SpectralDomain(16)
    cfg = StepperConfig(dt=1e-3, T=0.05, n_modes=1)
    X0 = Field.from_coeffs(dom, 2.0 * np.eye(16)[0])
    tr = simulate(cfg, dom, LINEAR, ZERO_NOISE, X0, master_seed=7)
    ks = np.arange(cfg.n_steps + 1)
    expected = 2.0 * (1.0 - cfg.dt * dom.lam[0]) ** ks
    np.testing.assert_allclose(tr.coeff_matrix()[:, 0], expected, rtol=1e-12)
    np.testing.assert_array_equal(tr.coeff_matrix()[:, 1:], 0.0)


def test_simulate_determinism_and_stream_separation():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.02, n_modes=8)
    nz = NoiseSpec(sigma=(0.2, 0.1))
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    a = simulate(cfg, dom, PME, nz, X0, master_seed=42, path_idx=3)
    b = simulate(cfg, dom, PME, nz, X0, master_seed=42, path_idx=3)
    assert np.array_equal(a.coeff_matrix(), b.coeff_matrix())
    c = simulate(cfg, dom, PME, nz, X0, master_seed=42, path_idx=4)
    assert not np.array_equal(a.coeff_matrix(), c.coeff_matrix())
    assert a.path_seed == (42, 3)


def test_semi_implicit_linear_equals_tridiagonal_solve():
    # Psi = id: the Newton loop must land on the direct solve of (I - dt L_h)u = X.
    dom = SpectralDomain(16)
    rng = np.random.default_rng(1)
    X = Field.from_values(dom, rng.normal(0, 1, 16))
    dt = 0.01
    out = step_semi_implicit(dom, LINEAR, ZERO_NOISE, 0.0, X, np.zeros(1), dt)
    g = dt / dom.h**2
    ab = np.zeros((3, 16))
    ab[0, 1:] = -g
    ab[1, :] = 1 + 2 * g
    ab[2, :-1] = -g
    u = solve_banded((1, 1), ab, X.values)
    np.testing.assert_allclose(out.values, u, rtol=1e-12, atol=1e-14)


def test_semi_implicit_zero_rhs():
    dom = SpectralDomain(10)
    out = step_semi_implicit(dom, PME, ZERO_NOISE, 0.0, Field.zero(dom), np.zeros(1), 0.1)
    np.testing.assert_array_equal(out.values, 0.0)


def test_semi_implicit_requires_full_laplacian():
    dom = SpectralDomain(10, alpha=0.5)
    X = Field.from_values(dom, np.sin(np.pi * dom.x))
    with pytest.raises(UnsupportedSchemeError):
        step_semi_implicit(dom, PME, ZERO_NOISE, 0.0, X, np.zeros(1), 0.01)


def test_semi_implicit_convergence_error():
    dom = SpectralDomain(32)
    X = Field.from_values(dom, 3.0 * np.sin(np.pi * dom.x))
    with pytest.raises(ConvergenceError, match="residual"):
        step_semi_implicit(dom, PME, ZERO_NOISE, 0.0, X, np.zeros(1), 5.0, max_iter=1)


def test_richardson_implicit_minus_explicit_second_order():
    # On a nonstiff configuration the schemes differ by O(dt^2): halving dt
    # should shrink the gap by ~4 (observed ratios 3.2, 3.5 at these dts).
    dom = SpectralDomain(8)
    X = Field.from_values(dom, 0.1 * np.random.default_rng(1).normal(0, 1, 8))
    diffs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        e = step_explicit(dom, PME, ZERO_NOISE, 0.0, X, np.zeros(1), dt)
        i = step_semi_implicit(dom, PME, ZERO_NOISE, 0.0, X, np.zeros(1), dt)
        diffs.append(h_norm(dom, i - e))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] / diffs[1] > 2.9
    assert diffs[1] / diffs[2] > 3.2


def test_T_zero_single_state():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=0.1, T=0.0, n_modes=4)
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    tr = simulate(cfg, dom, PME, ZERO_NOISE, X0, 0)
    assert len(tr.states) == 1
    np.testing.assert_array_equal(tr.states[0].coeffs[:4], X0.coeffs[:4])
    np.testing.assert_array_equal(tr.states[0].coeffs[4:], 0.0)


def test_stability_guard_rejects_coarse_dt():
    dom = SpectralDomain(16)
    X = Field.from_values(dom, np.random.default_rng(1).normal(0, 1, 16))
    with pytest.raises(StabilityError, match="reduce dt"):
        step_explicit(dom, PME, ZERO_NOISE, 0.0, X, np.zeros(1), 0.1)


def test_stability_guard_refuses_singular_derivative():
    # Fast diffusion has unbounded Psi' near 0: the explicit path must refuse.
    dom = SpectralDomain(16)
    fd = DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A1")
    X = Field.from_values(dom, np.sin(np.pi * dom.x))
    with pytest.raises(StabilityError, match="semi-implicit"):
        step_explicit(dom, fd, ZERO_NOISE, 0.0, X, np.zeros(1), 1e-6)


def test_blow_up_carries_step_index():
    dom = SpectralDomain(4)
    growth = DriftSpec(psi=PsiSpec(), phi=PhiSpec(h_const=800.0), mode="A1")
    cfg = StepperConfig(dt=0.1, T=20.0, n_modes=4)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    with pytest.raises(BlowUpError) as err:
        simulate(cfg, dom, growth, ZERO_NOISE, X0, 0)
    assert err.value.step is not None and err.value.step > 100
    # The ensemble reports the same step (mode_1 reads a coefficient, so no
    # observable overflows on the way).
    with pytest.raises(BlowUpError) as ens:
        monte_carlo(cfg, dom, growth, ZERO_NOISE, X0, 0, 3, ("mode_1",))
    assert ens.value.step == err.value.step


def test_galerkin_truncation_consistency():
    # With n_modes = 3 the tail stays identically zero and the trajectory
    # ignores the tail of the initial condition entirely.
    dom = SpectralDomain(16)
    cfg = StepperConfig(dt=1e-4, T=0.01, n_modes=3)
    nz = NoiseSpec(sigma=(0.1, 0.05, 0.02))
    rng = np.random.default_rng(2)
    base = rng.normal(0, 1, 16)
    tail = base.copy()
    tail[3:] += rng.normal(0, 5, 13)
    t1 = simulate(cfg, dom, PME, nz, Field.from_coeffs(dom, base), 9)
    t2 = simulate(cfg, dom, PME, nz, Field.from_coeffs(dom, tail), 9)
    np.testing.assert_array_equal(t1.coeff_matrix()[:, 3:], 0.0)
    assert np.array_equal(t1.coeff_matrix(), t2.coeff_matrix())


def test_discrete_energy_identity_exact():
    # sigma=0, explicit: |X_{k+1}|^2 - |X_k|^2 = 2 dt <A, X_k> + dt^2 |A|^2
    # holds to rounding — the deterministic skeleton of the Ito ledger.
    dom = SpectralDomain(16)
    cfg = StepperConfig(dt=2e-4, T=0.01, n_modes=16)
    X0 = Field.from_values(dom, 0.8 * np.sin(np.pi * dom.x))
    tr = simulate(cfg, dom, PME, ZERO_NOISE, X0, 3)
    for k in range(cfg.n_steps):
        Xk, Xk1 = tr.states[k], tr.states[k + 1]
        A = assemble_A(dom, PME, k * cfg.dt, Xk)
        lhs = h_norm(dom, Xk1) ** 2 - h_norm(dom, Xk) ** 2
        rhs = 2 * cfg.dt * h_inner(dom, A, Xk) + cfg.dt**2 * h_norm(dom, A) ** 2
        assert abs(lhs - rhs) < 1e-14


def test_pair_identical_inputs_identical_outputs():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.02, n_modes=8)
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    tx, ty = simulate_pair(cfg, dom, PME, NoiseSpec(sigma=(0.3,)), X0, X0, seed=5)
    assert np.array_equal(tx.coeff_matrix(), ty.coeff_matrix())


def test_pair_distance_nonincreasing_monotone_additive():
    dom = SpectralDomain(16)
    cfg = StepperConfig(dt=5e-3, T=0.25, n_modes=16, scheme="semi-implicit")
    rng = np.random.default_rng(1)
    X0 = Field.from_values(dom, rng.normal(0, 1, 16))
    Y0 = Field.from_values(dom, rng.normal(0, 0.5, 16))
    tx, ty = simulate_pair(cfg, dom, PME, NoiseSpec(sigma=(0.1, 0.05)), X0, Y0, 11)
    dist = [h_norm(dom, a - b) for a, b in zip(tx.states, ty.states)]
    for k in range(len(dist) - 1):
        assert dist[k + 1] <= dist[k] + 1e-8


def test_pair_growth_bounded_by_h():
    # Psi=0, h>0, additive noise: the difference obeys D_{k+1} = (1+h dt) D_k.
    dom = SpectralDomain(8)
    h_c = 0.5
    spec = DriftSpec(psi=PsiSpec(), phi=PhiSpec(h_const=h_c), mode="A1")
    cfg = StepperConfig(dt=1e-2, T=0.5, n_modes=8)
    rng = np.random.default_rng(3)
    X0 = Field.from_values(dom, rng.normal(0, 1, 8))
    Y0 = Field.from_values(dom, rng.normal(0, 1, 8))
    tx, ty = simulate_pair(cfg, dom, spec, NoiseSpec(sigma=(0.2,)), X0, Y0, 17)
    dist = [h_norm(dom, a - b) for a, b in zip(tx.states, ty.states)]
    for k in range(len(dist) - 1):
        assert dist[k + 1] <= dist[k] * math.exp(h_c * cfg.dt) * (1 + 1e-12)
        np.testing.assert_allclose(dist[k + 1], dist[k] * (1 + h_c * cfg.dt), rtol=1e-12)


def test_refinement_coupling_shrinks_error():
    # dt and dt/2 runs on the same Brownian path (pairwise-sum coupling):
    # distance to a dt/4 reference decreases under refinement.
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.3, 0.2))
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    dt0, T = 2e-3, 0.4
    inc0 = increments_for_path(nz, round(T / dt0), dt0, 31, 0)
    inc1 = refine_increments(inc0, dt0, 31, 0, level=1)
    inc2 = refine_increments(inc1, dt0 / 2, 31, 0, level=2)
    outs = []
    for dt, inc in ((dt0, inc0), (dt0 / 2, inc1), (dt0 / 4, inc2)):
        cfg = StepperConfig(dt=dt, T=T, n_modes=8)
        outs.append(simulate(cfg, dom, PME, nz, X0, 31, increments=inc).states[-1])
    d_coarse = h_norm(dom, outs[0] - outs[2])
    d_mid = h_norm(dom, outs[1] - outs[2])
    assert d_mid < d_coarse


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_record_ito_contents(scheme):
    # Both schemes record the drift A(t_k, X_k) of the state before step k.
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.2, 0.1))
    cfg = StepperConfig(dt=1e-3, T=0.01, n_modes=8, scheme=scheme, record_ito=True)
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    tr = simulate(cfg, dom, PME, nz, X0, 23)
    assert tr.drift_record.shape == (10, 8)
    assert tr.diffusion_record.shape == (10, 2)
    assert tr.increments.shape == (10, 2)
    for k in (0, 4, 9):
        A = assemble_A(dom, PME, k * cfg.dt, tr.states[k])
        np.testing.assert_array_equal(tr.drift_record[k], A.coeffs)
        np.testing.assert_array_equal(tr.diffusion_record[k], nz.sigma_array())
    np.testing.assert_array_equal(
        tr.increments, increments_for_path(nz, 10, cfg.dt, 23, 0)
    )


def test_trajectory_validation():
    dom = SpectralDomain(4)
    f = Field.zero(dom)
    with pytest.raises(ValueError):
        Trajectory(dom=dom, times=np.array([0.0, 0.0]), states=[f, f], path_seed=(0, 0))
    with pytest.raises(ValueError):
        Trajectory(dom=dom, times=np.array([0.0]), states=[f, f], path_seed=(0, 0))


def test_simulate_input_validation():
    dom = SpectralDomain(8)
    X0 = Field.zero(dom)
    with pytest.raises(ValueError):
        simulate(StepperConfig(dt=0.1, T=0.1, n_modes=9), dom, PME, ZERO_NOISE, X0, 0)
    with pytest.raises(ValueError):
        simulate(StepperConfig(dt=0.1, T=0.1, n_modes=8), dom, PME,
                 NoiseSpec(sigma=(0.1,) * 9), X0, 0)
    with pytest.raises(ValueError):
        simulate(StepperConfig(dt=0.1, T=0.1, n_modes=8), dom, PME, ZERO_NOISE, X0, 0,
                 increments=np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# Ensemble driver
# ---------------------------------------------------------------------------


def _small_setup():
    dom = SpectralDomain(16)
    nz = NoiseSpec(sigma=(0.1, 0.05))
    X0 = Field.from_values(dom, 0.3 * np.random.default_rng(6).normal(0, 1, 16))
    cfg = StepperConfig(dt=2.5e-4, T=0.02, n_modes=16)
    return dom, nz, X0, cfg


def test_monte_carlo_matches_serial_simulate():
    dom, nz, X0, cfg = _small_setup()
    st = monte_carlo(cfg, dom, PME, nz, X0, 5, 6, ("h_norm_sq", "mode_1"),
                     save_every=20, chunk=4)
    finals = []
    firsts = []
    for p in range(6):
        tr = simulate(cfg, dom, PME, nz, X0, 5, p)
        finals.append(h_norm(dom, tr.states[-1]) ** 2)
        firsts.append(tr.states[-1].coeffs[0])
    np.testing.assert_allclose(st.mean_of("h_norm_sq")[-1], np.mean(finals), rtol=1e-13)
    np.testing.assert_allclose(st.mean_of("mode_1")[-1], np.mean(firsts), rtol=1e-13)
    assert st.n_paths == 6
    assert st.times[0] == 0.0 and st.times[-1] == pytest.approx(cfg.T)


def test_monte_carlo_chunk_invariance():
    dom, nz, X0, cfg = _small_setup()
    a = monte_carlo(cfg, dom, PME, nz, X0, 5, 10, ("h_norm_sq", "R"), save_every=40,
                    chunk=3)
    b = monte_carlo(cfg, dom, PME, nz, X0, 5, 10, ("h_norm_sq", "R"), save_every=40,
                    chunk=64)
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
    np.testing.assert_allclose(a.var, b.var, rtol=1e-10, atol=1e-30)


def test_monte_carlo_pairs_dist_sq():
    dom, nz, X0, cfg = _small_setup()
    st = monte_carlo(cfg, dom, PME, nz, X0, 5, 4, ("dist_sq", "h_norm_sq"),
                     Y0=Field.zero(dom), save_every=80, chunk=2)
    d0 = st.mean_of("dist_sq")[0]
    assert d0 == pytest.approx(h_norm(dom, X0) ** 2, rel=1e-12)
    assert st.se_of("dist_sq")[0] == 0.0  # identical deterministic start
    assert st.mean_of("dist_sq")[-1] < d0  # monotone drift contracts


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_monte_carlo_pairs_match_serial_pairs(scheme):
    # Each Y row of a paired chunk takes its X row's increments but its own
    # amplitude rho(|Y_p|_H); chunk=2 keeps every chunk a batched product.
    dom, _, X0, cfg = _small_setup()
    cfg = StepperConfig(dt=cfg.dt, T=cfg.T, n_modes=cfg.n_modes, scheme=scheme)
    nz = NoiseSpec(sigma=(0.4, 0.2), mult=RhoFactor(0.2, 1.5))
    Y0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    st = monte_carlo(cfg, dom, PME, nz, X0, 5, 4, ("dist_sq",), Y0=Y0, save_every=20,
                     chunk=2)
    dists = []
    for p in range(4):
        inc = increments_for_path(nz, cfg.n_steps, cfg.dt, 5, p)
        tx = simulate(cfg, dom, PME, nz, X0, 5, p, increments=inc)
        ty = simulate(cfg, dom, PME, nz, Y0, 5, p, increments=inc)
        dists.append([h_norm(dom, tx.states[k] - ty.states[k]) ** 2
                      for k in range(0, cfg.n_steps + 1, 20)])
    np.testing.assert_allclose(st.mean_of("dist_sq"), np.mean(dists, axis=0), rtol=1e-13)


@pytest.mark.parametrize("scheme, error", [("explicit", StabilityError),
                                           ("semi-implicit", ConvergenceError)])
def test_monte_carlo_raises_step_failures(scheme, error):
    # A coarse explicit dt trips the stability guard; one Newton iteration
    # cannot reach the implicit tolerance.
    dom = SpectralDomain(32)
    X0 = Field.from_values(dom, 3.0 * np.sin(np.pi * dom.x))
    dt = 0.1 if scheme == "explicit" else 5.0
    cfg = StepperConfig(dt=dt, T=2 * dt, n_modes=32, scheme=scheme, implicit_max_iter=1)
    with pytest.raises(error):
        monte_carlo(cfg, dom, PME, ZERO_NOISE, X0, 0, 3, ("dist_sq",), Y0=Field.zero(dom))


def test_monte_carlo_zero_paths():
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-2, T=0.1, n_modes=8)
    st = monte_carlo(cfg, dom, NO_DRIFT, ZERO_NOISE, Field.zero(dom), 0, 3,
                     ("h_norm_sq", "modular", "sup_abs"))
    np.testing.assert_array_equal(st.mean, 0.0)
    np.testing.assert_array_equal(st.var, 0.0)


def test_monte_carlo_validation():
    dom, nz, X0, cfg = _small_setup()
    with pytest.raises(ValueError):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 1, ("h_norm_sq",))
    with pytest.raises(ValueError):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ("volume",))
    with pytest.raises(ValueError):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ("dist_sq",))  # no Y0
    with pytest.raises(ValueError):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ("mode_0",))
    with pytest.raises(ValueError):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ())


def test_monte_carlo_clt_scaling():
    # Doubling the ensemble shrinks the SE of the mean by ~1/sqrt(2).
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.4, 0.2))
    cfg = StepperConfig(dt=1e-3, T=0.05, n_modes=8)
    X0 = Field.zero(dom)
    a = monte_carlo(cfg, dom, LINEAR, nz, X0, 7, 256, ("h_norm_sq",), save_every=50)
    b = monte_carlo(cfg, dom, LINEAR, nz, X0, 7, 512, ("h_norm_sq",), save_every=50)
    ratio = b.se_of("h_norm_sq")[-1] / a.se_of("h_norm_sq")[-1]
    assert 0.55 < ratio < 0.9


def test_stat_table_csv_roundtrip(tmp_path):
    dom, nz, X0, cfg = _small_setup()
    st = monte_carlo(cfg, dom, PME, nz, X0, 5, 4, ("h_norm_sq",), save_every=40)
    out = tmp_path / "stats.csv"
    st.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,h_norm_sq_mean,h_norm_sq_var,h_norm_sq_se"
    assert len(lines) == 1 + len(st.times)
    cells = lines[1].split(",")
    assert float(cells[1]) == st.mean[0, 0]  # 17 significant digits round-trip


def test_trajectory_csv_roundtrip(tmp_path):
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=0.01, T=0.03, n_modes=4)
    tr = simulate(cfg, dom, LINEAR, NoiseSpec(sigma=(0.3,)),
                  Field.from_coeffs(dom, np.eye(4)[0]), 2)
    out = tmp_path / "traj.csv"
    tr.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mode_1,mode_2,mode_3,mode_4"
    assert len(lines) == 5
    row = lines[2].split(",")
    assert float(row[1]) == tr.states[1].coeffs[0]


def test_stat_table_unknown_column():
    dom, nz, X0, cfg = _small_setup()
    st = monte_carlo(cfg, dom, PME, nz, X0, 5, 2, ("h_norm_sq",), save_every=80)
    with pytest.raises(KeyError):
        st.col("does_not_exist")


def test_integral_observables_constant_state():
    # With zero drift and zero noise the state is frozen, so the running
    # left-endpoint integral of |X|_H^2 is exactly t * |X0|_H^2.
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.2, n_modes=8)
    X0 = Field.from_values(dom, 0.3 * np.sin(np.pi * dom.x))
    st = monte_carlo(cfg, dom, NO_DRIFT, ZERO_NOISE, X0, 0, 2,
                     ("h_norm_sq", "int_h_norm_sq"), save_every=50)
    h0 = h_norm(dom, X0) ** 2
    assert st.mean_of("int_h_norm_sq")[0] == 0.0
    np.testing.assert_allclose(st.mean_of("int_h_norm_sq"),
                               st.times * h0, rtol=1e-12, atol=1e-18)


def test_integral_observable_left_endpoint_rule():
    # One linear mode decays by q = 1 - dt*lam_1 per step, so the running
    # integral at save time K is dt * h0 * sum_{j<K} q^(2j) -- a geometric
    # sum we can write down exactly.
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=1e-3, T=0.02, n_modes=1)
    X0 = Field.from_coeffs(dom, np.eye(4)[0])
    st = monte_carlo(cfg, dom, LINEAR, ZERO_NOISE, X0, 0, 2,
                     ("int_h_norm_sq",), save_every=4)
    q2 = (1.0 - cfg.dt * dom.lam[0]) ** 2
    h0 = 1.0 / dom.lam[0]
    ks = np.rint(st.times / cfg.dt).astype(int)
    expect = cfg.dt * h0 * (1.0 - q2**ks) / (1.0 - q2)
    np.testing.assert_allclose(st.mean_of("int_h_norm_sq"), expect, rtol=1e-12)


def test_drift_norm_sq_observable():
    # For the linear drift A = -lam X, so |A|_H^2 = sum lam_k X_k^2 at t=0.
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=0.01, n_modes=8)
    X0 = Field.from_values(dom, 0.2 * np.sin(np.pi * dom.x))
    st = monte_carlo(cfg, dom, LINEAR, ZERO_NOISE, X0, 0, 2,
                     ("drift_norm_sq",), save_every=10)
    expect = float(np.sum(dom.lam * X0.coeffs**2))
    assert st.mean_of("drift_norm_sq")[0] == pytest.approx(expect, rel=1e-12)
