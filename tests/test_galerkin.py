"""Tests for the steppers, single-path simulation, and the ensemble driver."""

import inspect
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import spme.galerkin as galerkin
from spme.drift import (
    DriftSpec,
    PhiSpec,
    PsiSpec,
    TimeModulation,
    _SampledModulation,
    drift_coeffs,
    psi_eval,
    psi_prime,
)
from spme.galerkin import (
    _JACOBIAN_FLOOR,
    BlowUpError,
    ConvergenceError,
    StabilityError,
    StepperConfig,
    Trajectory,
    UnsupportedSchemeError,
    _implicit_residual,
    _StepPlan,
    _newton_implicit,
    _tridiag_L,
    monte_carlo,
    simulate,
    simulate_pair,
)
from spme.noise import NoiseSpec, RhoFactor, increments_for_path, refine_increments
from spme.triple import Field, SpectralDomain, h_norm
from spme.verify import extinction_time, ito_ledger

PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
LINEAR = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
NO_DRIFT = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")
FAST = DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A1")
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
    cfg = StepperConfig(dt=0.1, T=1.0, n_modes=4, implicit_max_iter=np.int64(3))
    assert cfg.implicit_max_iter == 3


@pytest.mark.parametrize("key, value, message", [
    ("implicit_tol", 0.0, "implicit_tol must be positive and finite"),
    ("implicit_tol", math.inf, "implicit_tol must be positive and finite"),
    ("implicit_tol", math.nan, "implicit_tol must be positive and finite"),
    ("implicit_max_iter", 0, "implicit_max_iter must be an integer >= 1"),
    ("implicit_max_iter", 2.5, "implicit_max_iter must be an integer >= 1"),
    ("implicit_max_iter", math.inf, "implicit_max_iter must be an integer >= 1"),
    ("implicit_max_iter", True, "implicit_max_iter must be an integer >= 1"),
])
def test_config_refuses_newton_settings_that_skip_or_never_end_the_solve(key, value, message):
    # A non-integer budget never meets the loop's `it == max_iter` test, so a
    # solve that does not converge would run for ever; an infinite tolerance
    # accepts the right side unsolved, a NaN one accepts nothing.
    with pytest.raises(ValueError, match=f"^{message}$"):
        StepperConfig(dt=1e-3, T=1e-3, n_modes=4, scheme="semi-implicit", **{key: value})


def test_step_zero_drift_zero_noise_identity():
    dom = SpectralDomain(12)
    X = Field.from_values(dom, np.random.default_rng(0).normal(0, 1, 12))
    cfg = StepperConfig(dt=0.05, T=0.05, n_modes=12)
    out, _ = _StepPlan(cfg, dom, NO_DRIFT, ZERO_NOISE).step(0.0, X.coeffs[None], np.zeros((1, 1)))
    np.testing.assert_array_equal(out[0], X.coeffs)
    # The implicit path round-trips through grid values, so exact up to ulps.
    cfg = StepperConfig(dt=0.05, T=0.05, n_modes=12, scheme="semi-implicit")
    out, _ = _StepPlan(cfg, dom, NO_DRIFT, ZERO_NOISE).step(0.0, X.coeffs[None], np.zeros((1, 1)))
    np.testing.assert_allclose(out[0], X.coeffs, rtol=1e-13, atol=1e-16)


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
    cfg = StepperConfig(dt=dt, T=dt, n_modes=16, scheme="semi-implicit")
    out, _ = _StepPlan(cfg, dom, LINEAR, ZERO_NOISE).step(0.0, X.coeffs[None], np.zeros((1, 1)))
    g = dt / dom.h**2
    ab = np.zeros((3, 16))
    ab[0, 1:] = -g
    ab[1, :] = 1 + 2 * g
    ab[2, :-1] = -g
    u = solve_banded((1, 1), ab, X.values)
    np.testing.assert_allclose(dom.from_spectral(out[0]), u, rtol=1e-12, atol=1e-14)


def test_semi_implicit_zero_rhs():
    dom = SpectralDomain(10)
    cfg = StepperConfig(dt=0.1, T=0.1, n_modes=10, scheme="semi-implicit")
    out, _ = _StepPlan(cfg, dom, PME, ZERO_NOISE).step(0.0, np.zeros((1, 10)), np.zeros((1, 1)))
    np.testing.assert_array_equal(dom.from_spectral(out[0]), 0.0)


@pytest.mark.parametrize("drift", [PME, FAST], ids=["pme", "fast-diffusion"])
def test_zero_noise_implicit_step_skips_the_noise_synthesis(monkeypatch, drift):
    # sigma = 0 and no Phi_0: no noise is synthesized, one transform per step.
    # The run with sigma = 0.3 on increments of +0.0 synthesizes its zero
    # noise and adds it, and its states are the same bytes, through the
    # fast-diffusion extinction (t = 0.1275 here) to the end.
    dom = SpectralDomain(32)
    bump = Field.from_values(dom, np.maximum(0.0, 1.0 - ((dom.x - 0.5) / 0.15) ** 2))
    cfg = StepperConfig(dt=2.5e-3, T=0.25, n_modes=32, scheme="semi-implicit",
                        implicit_tol=1e-8)
    calls = []
    synthesis = SpectralDomain.from_spectral

    def counted(self, coeffs):
        calls.append(1)
        return synthesis(self, coeffs)

    monkeypatch.setattr(SpectralDomain, "from_spectral", counted)
    quiet = simulate(cfg, dom, drift, ZERO_NOISE, bump, 0)
    assert len(calls) == cfg.n_steps
    calls.clear()
    zeros = np.zeros((cfg.n_steps, 1))
    added = simulate(cfg, dom, drift, NoiseSpec(sigma=(0.3,)), bump, 0, increments=zeros)
    assert len(calls) == 2 * cfg.n_steps
    assert quiet.coeff_matrix().tobytes() == added.coeff_matrix().tobytes()
    assert (extinction_time(quiet, 1e-6) is None) == (drift is PME)


def test_step_records_one_diffusion_row_per_batch_row():
    # One plan serves batches of several sizes (X and Y rows on P paths).
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=1e-3, T=1e-3, n_modes=8)
    for nz in (NoiseSpec(sigma=(0.3, 0.1)), NoiseSpec(sigma=(0.3, 0.1), mult=RhoFactor(0.5, 1.0))):
        plan = _StepPlan(cfg, dom, NO_DRIFT, nz)
        for rows, P in ((1, 1), (3, 3), (6, 3), (2, 1), (1, 1)):
            _, (A, z) = plan.step(0.0, np.zeros((rows, 8)), np.zeros((P, 2)), records=True)
            assert A.shape == (rows, 8) and z.shape == (rows, 2)
            assert (z == nz.sigma_array()).all()  # rho(0) = 1


def test_semi_implicit_requires_full_laplacian():
    dom = SpectralDomain(10, alpha=0.5)
    cfg = StepperConfig(dt=0.01, T=0.01, n_modes=10, scheme="semi-implicit")
    with pytest.raises(UnsupportedSchemeError):
        _StepPlan(cfg, dom, PME, ZERO_NOISE)


def test_semi_implicit_convergence_error():
    dom = SpectralDomain(32)
    X = Field.from_values(dom, 3.0 * np.sin(np.pi * dom.x))
    cfg = StepperConfig(dt=5.0, T=5.0, n_modes=32, scheme="semi-implicit",
                        implicit_max_iter=1)
    with pytest.raises(ConvergenceError, match="residual"):
        _StepPlan(cfg, dom, PME, ZERO_NOISE).step(0.0, X.coeffs[None], np.zeros((1, 1)))


def _laplacian_1d(v, h):
    out = -2.0 * v
    out[:-1] += v[1:]
    out[1:] += v[:-1]
    return out / h**2


def _newton_one_row(dom, psi, t, b, dt, tol, max_iter):
    """Reference one-row damped Newton solve that every batch row must match.

    Returns (u, iterations, backtracks); raises ConvergenceError with the
    best residual seen.
    """
    h, gamma = dom.h, dt / dom.h**2

    def residual(u):
        res = u - dt * _laplacian_1d(psi_eval(psi, t, u), h) - b
        return res, float(np.max(np.abs(res)))

    u = b.copy()
    res, rnorm = residual(u)
    r_best, iters, backtracks = rnorm, 0, 0
    for _ in range(max_iter):
        if rnorm <= tol:
            return u, iters, backtracks
        pp = np.minimum(psi_prime(psi, t, u), 1.0 / _JACOBIAN_FLOOR)
        ab = np.zeros((3, u.size))
        ab[0, 1:] = -gamma * pp[1:]
        ab[1, :] = 1.0 + 2.0 * gamma * pp
        ab[2, :-1] = -gamma * pp[:-1]
        du = solve_banded((1, 1), ab, -res)
        iters += 1
        step = 1.0
        while True:
            u_try = u + step * du
            res_try, r_try = residual(u_try)
            if r_try <= (1.0 - 0.5 * step) * rnorm or step < 1.0 / 64.0:
                break
            step *= 0.5
            backtracks += 1
        u, res, rnorm = u_try, res_try, r_try
        r_best = min(r_best, rnorm)
    if rnorm <= tol:
        return u, iters, backtracks
    raise ConvergenceError(f"did not converge within {max_iter} iterations "
                           f"(best residual {r_best:.3e}, tolerance {tol:.1e})")


_NEWTON_PSIS = {
    "porous-medium": PsiSpec(terms=((1.0, 2.0),)),
    "fast-diffusion": PsiSpec(terms=((1.0, 0.5),)),  # Psi' singular at 0
    "log-power": PsiSpec(log_power=(2.0, 1.0)),
}


def _mixed_rows(dom):
    # A zero row (converged at entry), then rows of varied difficulty.
    x = dom.x
    bump = np.exp(-((x - 0.3) / 0.05) ** 2)
    return np.stack([np.zeros_like(x), 0.01 * np.sin(np.pi * x), 30.0 * bump, 0.3 * bump,
                     3.0 * (np.abs(x - 0.6) < 0.03),
                     3.0 * np.sign(x - 0.5) * np.sin(2 * np.pi * x) ** 2])


@pytest.mark.parametrize("name", sorted(_NEWTON_PSIS))
def test_batched_newton_rows_match_one_row_solves(name):
    # Rows converge at different iterations and some backtrack; each must
    # come out bitwise as its own solve, batched or alone.
    dom, psi = SpectralDomain(24), _NEWTON_PSIS[name]
    b = _mixed_rows(dom)
    u = _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, 100)
    iters, backtracks = [], []
    for row, out in zip(b, u):
        ref, it, bt = _newton_one_row(dom, psi, 0.0, row, 0.01, 1e-10, 100)
        assert out.tobytes() == ref.tobytes()
        alone = _newton_implicit(dom, psi, 0.0, row[None], 0.01, 1e-10, 100)
        assert alone[0].tobytes() == ref.tobytes()
        iters.append(it)
        backtracks.append(bt)
    assert iters[0] == 0 and max(backtracks) > 0 and len(set(iters)) >= 4


def test_grid_operator_and_residual_act_along_rows():
    dom, psi, dt = SpectralDomain(24), _NEWTON_PSIS["porous-medium"], 0.01
    b = _mixed_rows(dom)
    u = b + 0.1 * np.cos(np.pi * dom.x)
    L = _tridiag_L(u, dom.h)
    res, rnorm = _implicit_residual(psi, 0.0, u, b, dt, dom.h)
    for i in range(len(u)):
        assert L[i].tobytes() == _laplacian_1d(u[i], dom.h).tobytes()
        ref = u[i] - dt * _laplacian_1d(psi_eval(psi, 0.0, u[i]), dom.h) - b[i]
        assert res[i].tobytes() == ref.tobytes()
        assert rnorm[i] == np.max(np.abs(ref))


def test_batched_newton_reports_first_failing_row():
    # Three iterations: rows 0 and 1 converge, row 2 is the first that does
    # not, and its message carries the residual of its own solve.
    dom, psi = SpectralDomain(24), _NEWTON_PSIS["porous-medium"]
    b = _mixed_rows(dom)
    with pytest.raises(ConvergenceError) as ref:
        _newton_one_row(dom, psi, 0.0, b[2], 0.01, 1e-10, 3)
    with pytest.raises(ConvergenceError) as err:
        _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, 3)
    assert err.value.path == 2 and err.value.step is None
    assert err.value.detail == ref.value.detail
    assert str(err.value) == f"implicit solve for path 2 {ref.value.detail}"


@pytest.mark.parametrize("name", sorted(_NEWTON_PSIS))
def test_batched_newton_non_finite_row_leaves_as_nan(name):
    # Row 3 holds a NaN and row 6 is 1e200 (Psi overflows there for the
    # porous medium; log-power does not converge from it).  A row whose own
    # solve is refused as non-finite comes back NaN, every other row comes
    # back bitwise as its own solve, and a row that does not converge raises
    # with its own solve's detail.
    dom, psi = SpectralDomain(24), _NEWTON_PSIS[name]
    b = np.vstack([_mixed_rows(dom), np.full(24, 1e200)])
    b[3, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        refs = []
        for row in b:
            try:
                refs.append(_newton_one_row(dom, psi, 0.0, row, 0.01, 1e-10, 100)[0])
            except (ValueError, ConvergenceError) as err:  # ValueError: infs or NaNs
                refs.append(err)
        if name == "log-power":
            assert isinstance(refs[6], ConvergenceError)
            with pytest.raises(ConvergenceError) as err:
                _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, 100)
            assert err.value.path == 6 and err.value.detail == refs[6].detail
            return
        u = _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, 100)
    nan_rows = {3, 6} if name == "porous-medium" else {3}
    for i, (out, ref) in enumerate(zip(u, refs)):
        if i in nan_rows:
            assert type(ref) is ValueError and np.isnan(out).all()
        else:
            assert out.tobytes() == ref.tobytes()


def test_batched_newton_redoes_an_overflowed_iteration_at_no_cost():
    # Row 2 alone converges in exactly its own number of iterations; beside a
    # row that overflows in the first iteration it still does, bitwise, and
    # one iteration fewer fails with its own solve's detail.
    dom, psi = SpectralDomain(24), _NEWTON_PSIS["porous-medium"]
    row = _mixed_rows(dom)[2]
    ref, its, _ = _newton_one_row(dom, psi, 0.0, row, 0.01, 1e-10, 100)
    b = np.stack([np.full(24, 1e200), row])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u = _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, its)
        assert np.isnan(u[0]).all() and u[1].tobytes() == ref.tobytes()
        with pytest.raises(ConvergenceError) as short:
            _newton_one_row(dom, psi, 0.0, row, 0.01, 1e-10, its - 1)
        with pytest.raises(ConvergenceError) as err:
            _newton_implicit(dom, psi, 0.0, b, 0.01, 1e-10, its - 1)
    assert err.value.path == 1 and err.value.detail == short.value.detail


def test_semi_implicit_overflowed_row_costs_one_newton_solve(monkeypatch):
    # Eight rows, one of which overflows: the batch is solved once, the
    # overflowed row comes back NaN and the others as finite states.
    dom = SpectralDomain(16)
    C = np.stack([dom.to_spectral(a * np.sin(np.pi * dom.x)) for a in np.linspace(0.1, 3.0, 8)])
    C[5] = 1e200
    cfg = StepperConfig(dt=0.01, T=0.01, n_modes=16, scheme="semi-implicit")
    plan = _StepPlan(cfg, dom, PME, ZERO_NOISE)
    calls = _count_calls(monkeypatch, ("_newton_implicit",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out, _ = plan.step(0.0, C, np.zeros((8, 1)))
    assert calls["_newton_implicit"] == 1
    assert np.isnan(out[5]).all()
    assert np.isfinite(np.delete(out, 5, axis=0)).all()


def test_semi_implicit_overflowed_row_leaves_as_nan():
    # Row 1 overflows the porous-medium solve: it comes back NaN, for the
    # time loop to report as a blow-up, the other rows as their own solves
    # (up to the transforms' rounding), and a row that does not converge
    # keeps its index.
    dom = SpectralDomain(16)
    C = np.stack([dom.to_spectral(3.0 * np.sin(np.pi * dom.x)), np.full(16, 1e200),
                  dom.to_spectral(0.1 * np.sin(np.pi * dom.x))])
    cfg = StepperConfig(dt=0.01, T=0.01, n_modes=16, scheme="semi-implicit")
    plan = _StepPlan(cfg, dom, PME, ZERO_NOISE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out, _ = plan.step(0.0, C, np.zeros((3, 1)))
        assert np.isnan(out[1]).all()
        for i in (0, 2):
            alone, _ = plan.step(0.0, C[i:i + 1], np.zeros((1, 1)))
            np.testing.assert_allclose(out[i], alone[0], rtol=1e-12, atol=1e-15)
        cfg = StepperConfig(dt=5.0, T=5.0, n_modes=16, scheme="semi-implicit",
                            implicit_max_iter=1)
        with pytest.raises(ConvergenceError) as err:
            _StepPlan(cfg, dom, PME, ZERO_NOISE).step(0.0, C[[1, 0]], np.zeros((2, 1)))
    assert err.value.path == 1


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_modulation_error_keeps_its_type_and_message(scheme):
    # Only the solver's refusal of a non-finite system counts as an overflow;
    # another ValueError raised inside the step leaves as it is.
    dom = SpectralDomain(8)
    mod = TimeModulation(func=lambda t: math.sqrt(t - 1.0), a_min=1.0, a_max=2.0)
    drift = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),), modulation=mod), phi=PhiSpec(),
                      mode="A1")
    cfg = StepperConfig(dt=0.01, T=0.01, n_modes=8, scheme=scheme)
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    with pytest.raises(ValueError, match="^math domain error$") as err:
        simulate(cfg, dom, drift, ZERO_NOISE, X0, 0)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_run_refuses_a_modulation_off_its_bounds(scheme):
    # a(t) = 6 on |t - 0.1| < 0.01, between the times a checker samples: the
    # step at t = 0.095 raises, naming t and a(t).  An in-bounds modulation
    # runs with the bits it has when a(t) is read unchecked.
    dom = SpectralDomain(8)
    X0 = Field.from_values(dom, 0.1 * np.sin(np.pi * dom.x))
    cfg = StepperConfig(dt=0.005, T=0.2, n_modes=8, scheme=scheme)

    def drift(mod):
        return DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),), modulation=mod), phi=PhiSpec())

    spike = TimeModulation(func=lambda t: 1.0 + 5.0 * (abs(t - 0.1) < 0.01),
                           a_min=0.5, a_max=2.0)
    with pytest.raises(ValueError, match=r"^modulation a\(t\) = 6\.0 at t = 0\.095 "
                                         r"lies outside its bounds \[0\.5, 2\.0\]$"):
        simulate(cfg, dom, drift(spike), ZERO_NOISE, X0, 0)
    nz = NoiseSpec(sigma=(0.1, 0.05))
    cosine = (lambda t: 1.25 + 0.75 * math.cos(2.0 * math.pi * t), 0.5, 2.0)
    checked = simulate(cfg, dom, drift(TimeModulation(*cosine)), nz, X0, 3)
    as_given = simulate(cfg, dom, drift(_SampledModulation(*cosine)), nz, X0, 3)
    assert checked.coeff_matrix().tobytes() == as_given.coeff_matrix().tobytes()


def test_modulation_call_checks_its_bounds():
    mod = TimeModulation(func=lambda t: t, a_min=0.5, a_max=2.0)
    assert mod(0.5) == 0.5 and mod(2.0 + 1e-13) == 2.0 + 1e-13
    for t in (0.4, 2.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="lies outside its bounds"):
            mod(t)


def test_convergence_error_names_path_and_step():
    dom = SpectralDomain(32)
    X0 = Field.from_values(dom, 3.0 * np.sin(np.pi * dom.x))
    cfg = StepperConfig(dt=5.0, T=10.0, n_modes=32, scheme="semi-implicit",
                        implicit_max_iter=1)
    with pytest.raises(ConvergenceError, match="for path 5 at step 1 did not") as err:
        simulate(cfg, dom, PME, ZERO_NOISE, X0, 0, path_idx=5)
    assert (err.value.path, err.value.step) == (5, 1)


@pytest.mark.parametrize("seed, start, path", [(17, "X", 3), (24, "Y", 1)])
def test_monte_carlo_convergence_error_names_path(seed, start, path):
    # Only one start of one path fails at these seeds: an X row in the second
    # chunk (seed 17) or a Y row in the first (seed 24).  The ensemble names
    # that path and the step at which simulate fails on it.
    dom = SpectralDomain(16)
    X0 = Field.from_values(dom, 0.2 * np.sin(np.pi * dom.x))
    Y0 = Field.zero(dom)
    nz = NoiseSpec(sigma=(1.0, 0.5))
    cfg = StepperConfig(dt=0.01, T=0.2, n_modes=16, scheme="semi-implicit",
                        implicit_max_iter=4)
    with pytest.raises(ConvergenceError) as sim:
        simulate(cfg, dom, PME, nz, X0 if start == "X" else Y0, seed, path_idx=path)
    with pytest.raises(ConvergenceError) as ens:
        monte_carlo(cfg, dom, PME, nz, X0, seed, 6, ("dist_sq",), Y0=Y0, chunk=2)
    assert ens.value.path == sim.value.path == path
    assert ens.value.step == sim.value.step


# Zero starts driven by noise, so the paths part ways; at these seeds path 5
# fails strictly before every other path (simulate alone: blow-up at step 26,
# the next at 27; the guard at step 7, the next at 8).  T ends at the failing
# step, so with chunk=3 the first chunk (paths 0-2) finishes and the failure
# comes from row 2 of the second chunk.  Noise of 1e308 overflows the porous-
# medium solve of every path at step 1, so the ensemble names its first path.
_GROWTH = DriftSpec(psi=PsiSpec(), phi=PhiSpec(h_const=100.0), mode="A1")
_CUBE = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")


@pytest.mark.parametrize("error, scheme, n_grid, drift, sigma, dt, steps, seed, chunk, first", [
    (BlowUpError, "explicit", 4, _GROWTH, (1e300,), 0.01, 26, 14, 8, 5),
    (StabilityError, "explicit", 8, _CUBE, (3.0, 1.0), 2e-3, 7, 15, 3, 5),
    (BlowUpError, "semi-implicit", 4, _GROWTH, (1e300,), 0.01, 26, 14, 8, 5),
    (BlowUpError, "semi-implicit", 8, PME, (1e308,), 0.01, 1, 14, 8, 0),
], ids=["blow-up", "stability", "semi-implicit-blow-up", "semi-implicit-overflow"])
def test_step_failures_name_path_and_step(error, scheme, n_grid, drift, sigma, dt, steps,
                                          seed, chunk, first):
    # The blow-up cases keep one chunk: a finished chunk of near-overflow
    # states would overflow in the moment reduction instead.  An overflow
    # must end the same way under a raising and an ignoring warnings filter.
    dom = SpectralDomain(n_grid)
    cfg = StepperConfig(dt=dt, T=steps * dt, n_modes=n_grid, scheme=scheme)
    nz = NoiseSpec(sigma=sigma)
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(error) as sim:
                simulate(cfg, dom, drift, nz, Field.zero(dom), seed, path_idx=5)
            with pytest.raises(error) as ens:
                monte_carlo(cfg, dom, drift, nz, Field.zero(dom), seed, 8, ("mode_1",),
                            chunk=chunk)
        assert (sim.value.path, sim.value.step) == (5, steps)
        assert (ens.value.path, ens.value.step) == (first, steps)


@pytest.mark.parametrize("chunk", [8, 3])
def test_moment_overflow_of_finite_states_is_blow_up(chunk):
    # Noise of 1e150 doubled every step: the states stay far below the
    # overflow for all 30 steps, but the squared deviations of mode 1 overflow
    # from about step 17.  The first batch reports its first such save step.
    dom = SpectralDomain(4)
    cfg = StepperConfig(dt=0.01, T=0.3, n_modes=4)
    nz = NoiseSpec(sigma=(1e150,))
    x = np.array([simulate(cfg, dom, _GROWTH, nz, Field.zero(dom), 14, p).coeff_matrix()[:, 0]
                  for p in range(min(chunk, 8))]).T
    assert np.abs(x).max() < 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        M2 = np.sum((x - x.mean(axis=1, keepdims=True)) ** 2, axis=1)
    first = int(np.argmin(np.isfinite(M2)))
    assert 10 < first < cfg.n_steps
    with pytest.raises(BlowUpError, match=f"moment at step {first} ") as err:
        monte_carlo(cfg, dom, _GROWTH, nz, Field.zero(dom), 14, 8, ("mode_1",), chunk=chunk)
    assert (err.value.path, err.value.step) == (None, first)


def test_richardson_implicit_minus_explicit_second_order():
    # On a nonstiff configuration the schemes differ by O(dt^2): halving dt
    # should shrink the gap by ~4 (observed ratios 3.2, 3.5 at these dts).
    dom = SpectralDomain(8)
    X = Field.from_values(dom, 0.1 * np.random.default_rng(1).normal(0, 1, 8))
    diffs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        e, i = (_StepPlan(StepperConfig(dt, dt, 8, scheme), dom, PME, ZERO_NOISE)
                .step(0.0, X.coeffs[None], np.zeros((1, 1)))[0][0]
                for scheme in ("explicit", "semi-implicit"))
        diffs.append(h_norm(dom, Field.from_coeffs(dom, i - e)))
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
    plan = _StepPlan(StepperConfig(dt=0.1, T=0.1, n_modes=16), dom, PME, ZERO_NOISE)
    with pytest.raises(StabilityError, match="reduce dt") as err:
        plan.step(0.0, X.coeffs[None], np.zeros((1, 1)))
    assert (err.value.path, err.value.step) == (None, None)


def test_stability_guard_refuses_singular_derivative():
    # Fast diffusion has unbounded Psi' near 0: the explicit path must refuse.
    dom = SpectralDomain(16)
    fd = DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A1")
    X = Field.from_values(dom, np.sin(np.pi * dom.x))
    plan = _StepPlan(StepperConfig(dt=1e-6, T=1e-6, n_modes=16), dom, fd, ZERO_NOISE)
    with pytest.raises(StabilityError, match="semi-implicit"):
        plan.step(0.0, X.coeffs[None], np.zeros((1, 1)))


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
        A = drift_coeffs(dom, PME, k * cfg.dt, Xk.values, Xk.coeffs)
        lhs = h_norm(dom, Xk1) ** 2 - h_norm(dom, Xk) ** 2
        rhs = 2 * cfg.dt * dom.h_pair(A, Xk.coeffs) + cfg.dt**2 * dom.h_pair(A, A)
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


_PAIR_CASES = {
    "semi-implicit-additive": ("semi-implicit", NoiseSpec(sigma=(0.3, 0.1, 0.05)), False),
    "explicit-rho": ("explicit", NoiseSpec(sigma=(0.4, 0.2), mult=RhoFactor(0.2, 1.5)), False),
    "semi-implicit-rho-ledger": ("semi-implicit",
                                 NoiseSpec(sigma=(0.4, 0.2), mult=RhoFactor(0.2, 1.5)), True),
}


@pytest.mark.parametrize("case", list(_PAIR_CASES))
def test_pair_matches_two_simulate_runs(case):
    # X and Y run as one 2-row batch: each agrees with its own one-row run on
    # the same increments up to rounding (a 2-row transform is a matrix
    # product, a 1-row one a matrix-vector product).
    scheme, nz, record = _PAIR_CASES[case]
    dom = SpectralDomain(16)
    cfg = StepperConfig(dt=5e-4, T=0.05, n_modes=16, scheme=scheme, record_ito=record)
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    Y0 = Field.from_values(dom, 0.3 * np.random.default_rng(2).normal(0, 1, 16))
    inc = increments_for_path(nz, cfg.n_steps, cfg.dt, 9, 0)
    pair = simulate_pair(cfg, dom, PME, nz, X0, Y0, 9)
    for tr, start in zip(pair, (X0, Y0)):
        ref = simulate(cfg, dom, PME, nz, start, 9, 0, increments=inc)
        assert tr.path_seed == ref.path_seed == (9, 0)
        np.testing.assert_array_equal(tr.times, ref.times)
        C, R = tr.coeff_matrix(), ref.coeff_matrix()
        assert np.max(np.abs(C - R)) <= 1e-13 * np.max(np.abs(R))
        if not record:
            assert tr.drift_record is tr.diffusion_record is tr.increments is None
            continue
        np.testing.assert_array_equal(tr.increments, inc)
        assert tr.drift_record.shape == (cfg.n_steps, 16)
        assert tr.diffusion_record.shape == (cfg.n_steps, 2)
        np.testing.assert_allclose(tr.drift_record, ref.drift_record, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref.drift_record)))
        np.testing.assert_allclose(tr.diffusion_record, ref.diffusion_record, rtol=1e-13)
        led, led_ref = ito_ledger(tr), ito_ledger(ref)
        scale = np.max(led_ref.h_norm_sq)
        for name in ("h_norm_sq", "pairing", "hs", "martingale", "residuals"):
            np.testing.assert_allclose(getattr(led, name), getattr(led_ref, name), rtol=0,
                                       atol=1e-12 * scale, err_msg=name)
    if record:
        assert pair[0].increments is pair[1].increments
        assert not np.shares_memory(pair[0].drift_record, pair[1].drift_record)


_PAIR_FAILURES = {
    "blow-up": (BlowUpError, "explicit", _GROWTH, 0.01, 40, 1e300),
    "semi-implicit-blow-up": (BlowUpError, "semi-implicit", _GROWTH, 0.01, 40, 1e300),
    "stability": (StabilityError, "explicit", _CUBE, 2e-3, 10, 3.0),
    "convergence": (ConvergenceError, "semi-implicit", PME, 5.0, 2, 3.0),
}


@pytest.mark.parametrize("case", list(_PAIR_FAILURES))
def test_pair_failure_in_Y_row_names_path_0_and_its_step(case):
    # X stays at zero (no noise, Psi(0) = 0), so only the Y row fails: the
    # pair leaves with the error, path 0 and step of Y's own one-row run.
    error, scheme, drift, dt, steps, amplitude = _PAIR_FAILURES[case]
    dom = SpectralDomain(8)
    cfg = StepperConfig(dt=dt, T=steps * dt, n_modes=8, scheme=scheme, implicit_max_iter=1)
    Y0 = Field.from_values(dom, amplitude * np.sin(np.pi * dom.x))
    with pytest.raises(error) as single:
        simulate(cfg, dom, drift, ZERO_NOISE, Y0, 4)
    with pytest.raises(error) as pair:
        simulate_pair(cfg, dom, drift, ZERO_NOISE, Field.zero(dom), Y0, 4)
    assert single.value.step is not None
    assert (pair.value.path, pair.value.step) == (single.value.path, single.value.step)
    assert pair.value.path == 0
    assert str(pair.value) == str(single.value)


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
        Xk = tr.states[k]
        A = drift_coeffs(dom, PME, k * cfg.dt, Xk.values, Xk.coeffs)
        np.testing.assert_array_equal(tr.drift_record[k], A)
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


@pytest.mark.parametrize("chunk", [0, -1])
def test_monte_carlo_rejects_chunk_below_one(chunk):
    dom, nz, X0, cfg = _small_setup()
    with pytest.raises(ValueError, match="chunk must be at least 1"):
        monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ("h_norm_sq",), chunk=chunk)


@pytest.mark.parametrize("paired", [False, True], ids=["unpaired", "paired"])
@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_monte_carlo_block_size_does_not_matter(monkeypatch, scheme, paired):
    # Blocks of 1 step and of 7 steps (7 does not divide the 40 steps) give
    # the bits of the default, where the whole run is one block.  Each block
    # of a batch is one draw call of (paths, steps).
    dom, _, X0, cfg = _small_setup()
    cfg = StepperConfig(dt=cfg.dt, T=40 * cfg.dt, n_modes=cfg.n_modes, scheme=scheme)
    nz = NoiseSpec(sigma=(0.4, 0.2), mult=RhoFactor(0.2, 1.5))
    Y0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x)) if paired else None
    names = ("h_norm_sq", "int_sup_abs", "mode_2") + (("dist_sq",) if paired else ())
    draws = []
    draw = galerkin.increments_for_path

    def counted(noise, n_steps, *args, **kwargs):
        draws.append((len(kwargs["stream"]), n_steps))
        return draw(noise, n_steps, *args, **kwargs)

    def blocks(P, width):
        return [(P, min(width, 40 - k0)) for k0 in range(0, 40, width)]

    monkeypatch.setattr(galerkin, "increments_for_path", counted)

    def run():
        draws.clear()
        return monte_carlo(cfg, dom, PME, nz, X0, 5, 7, names, Y0=Y0, save_every=3,
                           chunk=3)

    ref = run()
    assert draws == [(3, 40), (3, 40), (1, 40)]
    for steps in (1, 7):
        # A full batch draws 3 paths x 2 modes x 8 bytes per step; the last
        # batch, one path, draws blocks three times as long.
        monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 48 * steps)
        st = run()
        assert draws == blocks(3, steps) * 2 + blocks(1, 3 * steps)
        assert sum(P * n for P, n in draws) == 7 * 40
        for a, b in ((st.mean, ref.mean), (st.var, ref.var), (st.se, ref.se)):
            assert a.tobytes() == b.tobytes()


def test_monte_carlo_memory_does_not_grow_with_steps(monkeypatch):
    # Blocks of 64 steps (32 KiB): four times the steps may not raise the
    # peak allocation by one block.  Holding every increment of the batch
    # would add 3 x 1500 steps x 8 paths x 8 modes x 8 bytes = 2.3 MB.
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.1,) * 8)
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 64 * 8 * 8 * 8)

    def peak(n_steps):
        cfg = StepperConfig(dt=1e-4, T=n_steps * 1e-4, n_modes=8)
        tracemalloc.start()
        try:
            monte_carlo(cfg, dom, LINEAR, nz, Field.zero(dom), 0, 8, ("h_norm_sq",),
                        save_every=n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6000) - peak(1500) < galerkin._BLOCK_BYTES


def test_monte_carlo_holds_at_most_two_increment_blocks(monkeypatch):
    # Ten blocks of 64 steps (32 KiB each) against one step: the run may add
    # its two blocks and a few batch-sized state arrays, not a third block.
    # An untraced ensemble first takes the one-time allocations of the first
    # ensemble in a process, which would otherwise land on one side only.
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.1,) * 8)
    P = 8
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 64 * P * 8 * 8)

    def run(n_steps):
        cfg = StepperConfig(dt=1e-4, T=n_steps * 1e-4, n_modes=8)
        monte_carlo(cfg, dom, LINEAR, nz, Field.zero(dom), 0, P, ("h_norm_sq",),
                    save_every=n_steps)

    def peak(n_steps):
        tracemalloc.start()
        try:
            run(n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(640)
    states = 8 * P * dom.n_grid * 8
    long, short, limit = peak(640), peak(1), 2 * galerkin._BLOCK_BYTES + states
    assert long - short <= limit, f"peak(640) {long} - peak(1) {short} > {limit} B"


def _fail_at_step(monkeypatch, k_fail, error):
    """Make step k_fail (0-based) raise ``error``, or leave a NaN state for BlowUpError."""
    step = _StepPlan.step

    def failing(self, t, C, dW, records=False):
        if round(t / self.config.dt) == k_fail:
            if error is BlowUpError:
                return np.full_like(C, np.nan), None
            raise error("injected") if error is StabilityError else error("injected", path=0)
        return step(self, t, C, dW, records)

    monkeypatch.setattr(_StepPlan, "step", failing)


@pytest.mark.parametrize("error", [None, BlowUpError, ConvergenceError, StabilityError])
def test_monte_carlo_joins_its_producer_on_every_exit(monkeypatch, error):
    # Blocks of 4 steps: the 20-step batch draws 5 blocks, one call each, and
    # the failing step 14 lies in the fourth, by when the fifth was submitted.
    # The producer is gone once the call leaves, even while the exception
    # (and its traceback) is still held.
    dom, _, X0, cfg = _small_setup()
    cfg = StepperConfig(dt=cfg.dt, T=20 * cfg.dt, n_modes=cfg.n_modes)
    nz, P = NoiseSpec(sigma=(0.1, 0.05)), 3
    ref = monte_carlo(cfg, dom, LINEAR, nz, X0, 5, P, ("h_norm_sq",))
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 4 * P * 2 * 8)
    calls = _count_calls(monkeypatch, ("increments_for_path",))
    before = threading.active_count()
    if error is None:
        st = monte_carlo(cfg, dom, LINEAR, nz, X0, 5, P, ("h_norm_sq",))
        assert calls["increments_for_path"] == 5
        assert st.mean.tobytes() == ref.mean.tobytes()
        assert threading.active_count() == before
        return
    _fail_at_step(monkeypatch, 13, error)
    with pytest.raises(error) as info:
        monte_carlo(cfg, dom, LINEAR, nz, X0, 5, P, ("h_norm_sq",))
    assert info.value.step == 14
    assert calls["increments_for_path"] == 5
    assert threading.active_count() == before


def test_concurrent_ensembles_keep_their_bits_under_fast_switching(monkeypatch):
    # Three ensembles at once, each with its producer (six threads on fewer
    # cores), switching threads every microsecond: a block handed over
    # before it is drawn, or drawn over while it is stepped, changes the bits.
    dom, nz, X0, cfg = _small_setup()
    P = 3
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 4 * P * nz.n_modes * 8)

    def run(seed):
        return monte_carlo(cfg, dom, LINEAR, nz, X0, seed, P, ("h_norm_sq", "mode_1"))

    refs = {seed: run(seed) for seed in range(3)}
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda s=s: got.__setitem__(s, run(s)))
                   for s in refs]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for seed, ref in refs.items():
        assert got[seed].mean.tobytes() == ref.mean.tobytes()
        assert got[seed].var.tobytes() == ref.var.tobytes()


def test_monte_carlo_raises_the_producers_own_exception(monkeypatch):
    # The third draw call is the third block; the caller gets that very
    # exception object, and no producer thread is left behind.
    dom, nz, X0, cfg = _small_setup()
    P = 3
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 4 * P * nz.n_modes * 8)
    draw, calls, raised = galerkin.increments_for_path, [], []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raised.append(RuntimeError("draw failed"))
            raise raised[0]
        return draw(*args, **kwargs)

    monkeypatch.setattr(galerkin, "increments_for_path", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        monte_carlo(cfg, dom, LINEAR, nz, X0, 5, P, ("h_norm_sq",))
    assert info.value is raised[0]
    assert len(calls) == 3
    assert threading.active_count() == before


def test_monte_carlo_evaluates_each_observable_once_per_step(monkeypatch):
    # An int_* accumulator shares its base observable with the saved column,
    # and the grid-based observables share one grid view per step: adding the
    # int_* names costs no extra drift or transform call.
    calls = {"drift_coeffs": 0, "from_spectral": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(galerkin, "drift_coeffs", counted("drift_coeffs", galerkin.drift_coeffs))
    monkeypatch.setattr(SpectralDomain, "from_spectral",
                        counted("from_spectral", SpectralDomain.from_spectral))
    dom, nz, X0, _ = _small_setup()
    cfg = StepperConfig(dt=1e-3, T=1e-2, n_modes=8)

    def run(names):
        calls.update(drift_coeffs=0, from_spectral=0)
        st = monte_carlo(cfg, dom, PME, nz, X0, 3, 4, names)
        return st, dict(calls)

    # 10 steps and 11 saved times: one call per step plus one per saved time.
    _, base = run(("drift_norm_sq",))
    st, both = run(("drift_norm_sq", "int_drift_norm_sq"))
    assert both == base == {"drift_coeffs": 21, "from_spectral": 21}
    _, base = run(("modular", "sup_abs"))
    _, both = run(("modular", "sup_abs", "int_modular", "int_sup_abs", "R", "int_R"))
    assert both["from_spectral"] == base["from_spectral"] == 21
    # A repeated int_* name reads the same accumulator, added to once a step.
    dup, _ = run(("int_drift_norm_sq", "int_drift_norm_sq"))
    np.testing.assert_array_equal(dup.mean[:, 0], st.mean_of("int_drift_norm_sq"))
    np.testing.assert_array_equal(dup.mean[:, 1], st.mean_of("int_drift_norm_sq"))


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
    for name in ("mode_17", "int_mode_17"):  # one past the 16-point grid
        with pytest.raises(ValueError, match=f"observable '{name}': mode index out of range"):
            monte_carlo(cfg, dom, PME, nz, X0, 0, 4, ("mode_16", name))
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


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 3, 200) for n in (2, 32, 257)])
def test_solve_banded_is_scipys_tridiagonal_solve(k, n):
    # k independent rows of n unknowns in one band: the coupling entries
    # between rows are zero, as in the Newton solve.
    rng = np.random.default_rng(k * 1000 + n)
    ab = rng.normal(0.0, 1.0, (3, k, n))
    ab[1] += 4.0
    ab[0, :, 0] = ab[2, :, -1] = 0.0
    ab = ab.reshape(3, k * n)
    b = rng.normal(0.0, 1.0, k * n)
    kept = ab.copy(), b.copy()
    x = galerkin.solve_banded(ab, b)
    assert x.tobytes() == solve_banded((1, 1), ab, b).tobytes()
    assert ab.tobytes() == kept[0].tobytes() and b.tobytes() == kept[1].tobytes()


def test_solve_banded_keeps_scipys_errors():
    ab = np.array([[0.0, -1.0, -1.0], [4.0, 4.0, 4.0], [-1.0, -1.0, 0.0]])
    b = np.ones(3)
    # Every entry of ab is checked, the unused corners too.
    for where in ((0, 0), (1, 1), (2, 2)):
        for bad in (np.nan, np.inf):
            worse = ab.copy()
            worse[where] = bad
            for args in ((worse, b), (ab, np.where(np.arange(3) == where[1], bad, b))):
                with pytest.raises(ValueError) as ours:
                    galerkin.solve_banded(*args)
                with pytest.raises(ValueError) as ref:
                    solve_banded((1, 1), *args)
                assert str(ours.value) == str(ref.value) == "array must not contain infs or NaNs"
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        galerkin.solve_banded(np.zeros((3, 4)), np.ones(4))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((1, 1), np.zeros((3, 4)), np.ones(4))


def _lazy_run():
    """A semi-implicit noisy PME pair and 2-path ensemble on 32 points.

    Returns the sha256 of every state and moment byte and the number of
    ``solve_banded`` calls.  Self-contained, so that a fresh interpreter can
    run its source.
    """
    import hashlib

    import numpy as np

    import spme.galerkin as galerkin
    from spme.drift import DriftSpec, PhiSpec, PsiSpec
    from spme.noise import NoiseSpec
    from spme.triple import Field, SpectralDomain

    solve, calls = galerkin.solve_banded, [0]

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    dom = SpectralDomain(32)
    pme = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
    noise = NoiseSpec(sigma=(0.2, 0.1, 0.05))
    cfg = galerkin.StepperConfig(dt=5e-3, T=0.05, n_modes=32, scheme="semi-implicit")
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    digest = hashlib.sha256()
    galerkin.solve_banded = counted
    try:
        for traj in galerkin.simulate_pair(cfg, dom, pme, noise, X0, Field.zero(dom), 7):
            digest.update(traj.coeff_matrix().tobytes())
        st = galerkin.monte_carlo(cfg, dom, pme, noise, X0, 7, 2, ("h_norm_sq", "sup_abs"))
        for moments in (st.mean, st.var, st.se):
            digest.update(moments.tobytes())
    finally:
        galerkin.solve_banded = solve
    return digest.hexdigest(), calls[0]


def test_scipy_is_imported_at_the_first_solve_and_changes_no_bit():
    # A fresh interpreter loads scipy at its first tridiagonal solve, not
    # before: not for a refused system, nor for a 1x1 one.  Its semi-implicit
    # runs match this process's (which imported scipy at the start) bitwise,
    # with the same number of solves, and a singular system is still refused.
    script = inspect.getsource(_lazy_run) + f"""
import sys
sys.path.insert(0, {str(Path(galerkin.__file__).parents[1])!r})
import numpy as np
import spme.galerkin as galerkin

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

try:
    galerkin.solve_banded(np.full((3, 4), np.nan), np.ones(4))
except galerkin._NonFiniteSystem as err:
    print(err)
print(galerkin.solve_banded(np.ones((3, 1)), np.full(1, 2.0)), scipy_loaded())
print(*_lazy_run(), scipy_loaded())
try:
    galerkin.solve_banded(np.zeros((3, 4)), np.ones(4))
except np.linalg.LinAlgError as err:
    print(err)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(ValueError) as ref:
        solve_banded((1, 1), np.full((3, 4), np.nan), np.ones(4))
    digest, calls = _lazy_run()
    assert calls > 0 and "scipy.linalg.lapack" in sys.modules
    assert proc.stdout.splitlines() == [str(ref.value), "[2.] False", f"{digest} {calls} True",
                                        "singular matrix"]


def _count_calls(monkeypatch, names, record=None):
    """Put a counting wrapper on each named galerkin global; return the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if record is not None:
                record(name, args)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(galerkin, name, counted(name, getattr(galerkin, name)))
    return calls


def test_trace_targets_are_looked_up_at_call_time(monkeypatch):
    # perfbench rebinds these module globals to trace them, so a step must
    # look each one up at call time; and the Newton solve makes one banded
    # solve per iteration for all active rows of a batch.
    widths = []

    def record(name, args):
        if name == "solve_banded":
            widths.append(args[0].shape[1])

    names = ("solve_banded", "psi_eval", "psi_prime", "increments_for_path")
    calls = _count_calls(monkeypatch, names, record)
    dom = SpectralDomain(16)
    nz = NoiseSpec(sigma=(0.2, 0.1))
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    cfg = StepperConfig(dt=5e-3, T=0.05, n_modes=16, scheme="semi-implicit")

    simulate(cfg, dom, PME, nz, X0, 3)
    assert all(calls.values()), calls
    assert calls["solve_banded"] == calls["psi_prime"]
    assert set(widths) == {16}

    calls.update(dict.fromkeys(names, 0))
    widths.clear()
    monte_carlo(cfg, dom, PME, nz, X0, 3, 5, ("dist_sq",), Y0=Field.zero(dom))
    assert all(calls.values()), calls
    # The 5 pairs' 10 steps are one block, drawn in one call.
    assert calls["increments_for_path"] == 1
    assert calls["solve_banded"] == calls["psi_prime"]
    # Each iteration solves the 10 rows (X and Y of 5 pairs) still active in one call.
    assert max(widths) == 10 * 16 and all(w % 16 == 0 for w in widths)

    calls.update(dict.fromkeys(names, 0))
    widths.clear()
    simulate_pair(cfg, dom, PME, nz, X0, Field.zero(dom), 3)
    assert all(calls.values()), calls
    # One increment array drives both rows, solved together while both are active.
    assert calls["increments_for_path"] == 1
    assert calls["solve_banded"] == calls["psi_prime"]
    assert max(widths) == 2 * 16 and all(w % 16 == 0 for w in widths)


def test_semi_implicit_alpha_check_precedes_the_run(monkeypatch):
    calls = _count_calls(monkeypatch, ("increments_for_path",))
    dom = SpectralDomain(8, alpha=0.5)
    X0 = Field.from_values(dom, np.sin(np.pi * dom.x))
    cfg = StepperConfig(dt=1e-3, T=1e-2, n_modes=8, scheme="semi-implicit")
    message = ("the semi-implicit Newton path requires the full Laplacian (alpha=1); "
               "got alpha=0.5.  Fall back to the explicit scheme.")
    with pytest.raises(UnsupportedSchemeError) as err:
        simulate(cfg, dom, PME, NoiseSpec(sigma=(0.1,)), X0, 0)
    assert str(err.value) == message
    with pytest.raises(UnsupportedSchemeError) as err:
        monte_carlo(cfg, dom, PME, NoiseSpec(sigma=(0.1,)), X0, 0, 4, ("h_norm_sq",),
                    Y0=Field.zero(dom))
    assert str(err.value) == message
    assert calls["increments_for_path"] == 0
