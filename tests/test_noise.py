"""Tests for the diagonal diffusion operator and its increment streams."""

import math

import numpy as np
import pytest

from spme.drift import DriftSpec, PhiSpec, PsiSpec
from spme.galerkin import StepperConfig, _StepPlan, simulate
from spme.noise import (
    NoiseSpec,
    RhoFactor,
    hs0_sq,
    increments_for_path,
    path_stream,
    power_decay_sigma,
    refine_increments,
)
from spme.triple import Field, SpectralDomain, h_norm
from spme.verify import ito_ledger

NO_DRIFT = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")


def random_field(dom, rng, decay=1.5):
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    return Field.from_coeffs(dom, rng.normal(0, 1, dom.n_grid) * k**-decay)


def noise_step(spec, dom, X, dW, scheme="explicit"):
    """B(X) dW as the step takes it: one step of zero drift from the rows X.

    Returns the new rows and the per-row diffusion coefficients rho(|X|_H) sigma.
    """
    cfg = StepperConfig(0.01, 0.01, dom.n_grid, scheme)
    return _StepPlan(cfg, dom, NO_DRIFT, spec).step(0.0, X, dW, records=True)


def test_rho_factor_family():
    rho = RhoFactor(0.0, 1.0)
    assert rho(0.0) == 1.0
    assert rho(1.0) == 0.5
    assert rho(1e9) < 1e-8
    assert rho.lipschitz == 1.0
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 50, 500), rng.uniform(0, 50, 500)
    assert np.all(np.abs(rho(x) - rho(y)) <= rho.lipschitz * np.abs(x - y) + 1e-15)
    with pytest.raises(ValueError):
        RhoFactor(-0.1, 1.0)
    with pytest.raises(ValueError):
        RhoFactor(2.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=())
    with pytest.raises(ValueError):
        NoiseSpec(sigma=(0.1, -0.2))
    with pytest.raises(ValueError):
        NoiseSpec(sigma=(math.inf,))
    spec = NoiseSpec(sigma=(0.3, 0.1))
    assert spec.n_modes == 2 and spec.lipschitz == 0.0


def test_power_decay_sigma():
    spec = power_decay_sigma(4, sigma0=0.1, beta=2.0)
    np.testing.assert_allclose(spec.sigma_array(), [0.1, 0.025, 0.1 / 9, 0.00625])


def test_sample_increment_zero_dt():
    spec = NoiseSpec(sigma=(1.0, 1.0, 1.0))
    dW = increments_for_path(spec, 1, 0.0, 0, 0)
    assert dW.shape == (1, 3) and np.all(dW == 0.0)


def test_sample_increment_moments():
    # CLT band for the mean and a 5% band for the variance at 1e5 draws.
    spec = NoiseSpec(sigma=(1.0,))
    rng = np.random.default_rng(20240812)
    dt = 0.01
    draws = increments_for_path(spec, 200, dt, 0, 0, stream=rng)[:, 0]
    big = rng.normal(0.0, math.sqrt(dt), size=100_000)
    draws = np.concatenate([draws, big])  # keep the API exercised, then bulk
    assert abs(draws.mean()) <= 4.0 * math.sqrt(dt / draws.size)
    assert abs(draws.var() - dt) <= 0.05 * dt


def test_apply_B_zero_sigma():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.0, 0.0))
    for scheme in ("explicit", "semi-implicit"):
        out, _ = noise_step(spec, dom, np.zeros((1, 16)), np.array([[1.3, -0.4]]), scheme)
        assert np.all(dom.from_spectral(out) == 0.0)


def test_apply_B_unit_increment_is_scaled_mode():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.7, 0.2))
    for scheme in ("explicit", "semi-implicit"):
        out, _ = noise_step(spec, dom, np.zeros((1, 16)), np.array([[1.0, 0.0]]), scheme)
        np.testing.assert_allclose(
            dom.from_spectral(out[0]), 0.7 * math.sqrt(2.0) * np.sin(np.pi * dom.x),
            atol=1e-14
        )


def test_apply_B_dimension_mismatch():
    dom = SpectralDomain(8)
    spec = NoiseSpec(sigma=(1.0, 1.0))
    cfg = StepperConfig(0.01, 0.02, 8)
    with pytest.raises(ValueError, match="increments must have shape"):
        simulate(cfg, dom, NO_DRIFT, spec, Field.zero(dom), 0, increments=np.zeros((2, 3)))


def test_hs_norm_sq_single_mode():
    # The ledger's Hilbert--Schmidt term of the first step, at X_0 = 0.
    dom = SpectralDomain(12)
    cfg = StepperConfig(0.01, 0.01, 12, record_ito=True)

    def hs_at_zero(spec):
        return ito_ledger(simulate(cfg, dom, NO_DRIFT, spec, Field.zero(dom), 0)).hs[0]

    spec = NoiseSpec(sigma=(1.0, 0.0, 0.0))
    assert abs(hs_at_zero(spec) - 1.0 / dom.lam[0]) < 1e-14
    assert abs(hs0_sq(spec, dom) - 1.0 / dom.lam[0]) < 1e-14
    assert hs_at_zero(NoiseSpec(sigma=(0.0,))) == 0.0


def test_hs_norm_sq_matches_basis_image_sum():
    # Definition-level oracle: sum_k |B e_k|_H^2 over unit mode increments.
    dom = SpectralDomain(24)
    rng = np.random.default_rng(3)
    spec = NoiseSpec(sigma=tuple(rng.uniform(0, 1, 5)), mult=RhoFactor(0.2, 0.9))
    X = random_field(dom, rng)
    # Row k of the batch takes the unit increment e_k: it moves by B(X) e_k.
    rows = np.repeat(X.coeffs[None], spec.n_modes, axis=0)
    out, _ = noise_step(spec, dom, rows, np.eye(spec.n_modes))
    images = out - rows
    total = float(np.sum(dom.h_pair(images, images)))
    cfg = StepperConfig(0.01, 0.01, 24, record_ito=True)
    hs = ito_ledger(simulate(cfg, dom, NO_DRIFT, spec, X, 0)).hs[0]
    assert abs(total - hs) < 1e-12 * max(1.0, total)


def test_hs0_rejects_too_many_modes():
    with pytest.raises(ValueError):
        hs0_sq(NoiseSpec(sigma=(1.0,) * 9), SpectralDomain(8))


def test_additive_difference_is_exactly_zero():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.3, 0.2, 0.1))
    rng = np.random.default_rng(11)
    dW = increments_for_path(spec, 1, 0.05, 0, 0, stream=rng)
    u, v = random_field(dom, rng), random_field(dom, rng)
    # Rows u and v take the same increments: their B(.) dW coincide.
    _, (_, z) = noise_step(spec, dom, np.stack([u.coeffs, v.coeffs]), dW)
    diff = z[0] * dW[0] - z[1] * dW[0]
    assert np.all(diff == 0.0)


def test_lipschitz_contract_multiplicative():
    # |B(u)-B(v)|_HS <= L_rho * HS0 * |u-v|_H with rho(x) = 1/(1+x).
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.5, 0.3, 0.2), mult=RhoFactor(0.0, 1.0))
    hs0 = math.sqrt(hs0_sq(spec, dom))
    rng = np.random.default_rng(29)
    for _ in range(200):
        u, v = random_field(dom, rng), random_field(dom, rng)
        _, (_, z) = noise_step(spec, dom, np.stack([u.coeffs, v.coeffs]), np.zeros((1, 3)))
        lhs = math.sqrt(np.sum((z[0] - z[1]) ** 2 / dom.lam[:3]))  # |B(u) - B(v)|_HS
        rhs = spec.lipschitz * hs0 * h_norm(dom, u - v)
        assert lhs <= rhs * (1 + 1e-12)


def test_ito_isometry_additive():
    # E |int_0^t B dW|_H^2 = t * HS0^2 within 3 standard errors at 1e4 paths.
    dom = SpectralDomain(8)
    spec = NoiseSpec(sigma=(0.4, 0.25, 0.1, 0.05))
    n_paths, n_steps, dt = 10_000, 16, 1.0 / 32.0
    t = n_steps * dt
    lam = dom.lam[: spec.n_modes]
    sig = spec.sigma_array()
    samples = np.empty(n_paths)
    for p in range(n_paths):
        w_t = increments_for_path(spec, n_steps, dt, 991, p).sum(axis=0)
        samples[p] = np.sum((sig * w_t) ** 2 / lam)
    target = t * hs0_sq(spec, dom)
    se = samples.std(ddof=1) / math.sqrt(n_paths)
    assert abs(samples.mean() - target) <= 3.0 * se


def test_path_streams_reproducible_and_chunk_invariant():
    spec = NoiseSpec(sigma=(1.0, 2.0))
    a = increments_for_path(spec, 100, 0.01, 42, 7)
    b = increments_for_path(spec, 100, 0.01, 42, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, increments_for_path(spec, 100, 0.01, 42, 8))
    # Sequential row chunks from the raw stream concatenate to the same array.
    rng = path_stream(42, 7)
    c1 = rng.normal(0.0, 0.1, size=(60, 2))
    c2 = rng.normal(0.0, 0.1, size=(40, 2))
    assert np.array_equal(np.vstack([c1, c2]), a)


def test_increments_continue_a_given_stream():
    # Blocks drawn from one path stream concatenate to the whole-path draw.
    spec = NoiseSpec(sigma=(1.0, 2.0))
    rng = path_stream(42, 7)
    blocks = [increments_for_path(spec, n, 0.01, 42, 7, stream=rng) for n in (1, 59, 40)]
    assert np.array_equal(np.vstack(blocks), increments_for_path(spec, 100, 0.01, 42, 7))


@pytest.mark.parametrize("dt", [0.01, 0.0])
def test_increments_written_into_out_are_the_allocated_ones(dt):
    # Whole, and in sequential chunks of one stream, as a path-major block is
    # filled; dt = 0 turns every negative draw into -0.0 * 0 + 0.0 = +0.0.
    spec = NoiseSpec(sigma=(1.0, 2.0))
    ref = increments_for_path(spec, 100, dt, 42, 7)
    buf = np.full((100, 2), np.nan)
    got = increments_for_path(spec, 100, dt, 42, 7, out=buf)
    assert got is buf and buf.tobytes() == ref.tobytes()
    rng, block = path_stream(42, 7), np.full((3, 100, 2), np.nan)
    k0 = 0
    for n in (1, 59, 40):
        out = block[1, k0:k0 + n]
        assert increments_for_path(spec, n, dt, 42, 7, stream=rng, out=out) is out
        k0 += n
    assert block[1].tobytes() == ref.tobytes()
    assert np.isnan(block[[0, 2]]).all()
    with pytest.raises(ValueError, match="out must have shape"):
        increments_for_path(spec, 99, dt, 42, 7, out=buf)


@pytest.mark.parametrize("dt", [0.01, 0.0])
def test_block_draw_is_the_stacked_path_draws(dt):
    # One call fills a path-major block, each path's rows from its own
    # stream: a block of 40 steps, then a short last block of 25 written
    # through the non-contiguous time slice block[:, :25].
    spec = NoiseSpec(sigma=(1.0, 2.0))
    paths = (3, 4, 5)
    ref = np.stack([increments_for_path(spec, 65, dt, 42, p) for p in paths])
    streams = [path_stream(42, p) for p in paths]
    block, got = np.full((3, 40, 2), np.nan), []
    for n in (40, 25):
        out = block[:, :n]
        assert increments_for_path(spec, n, dt, 42, 3, stream=streams, out=out) is out
        got.append(out.copy())
    assert np.concatenate(got, axis=1).tobytes() == ref.tobytes()
    assert block[:, 25:].tobytes() == ref[:, 25:40].tobytes()
    for bad in ((2, 40, 2), (3, 39, 2), (3, 40, 3), (40, 2)):
        with pytest.raises(ValueError, match="out must have shape"):
            increments_for_path(spec, 40, dt, 42, 3, stream=streams, out=np.empty(bad))
    with pytest.raises(ValueError, match="out must have shape"):
        increments_for_path(spec, 40, dt, 42, 3, stream=streams)


def test_refinement_sums_back_exactly():
    spec = NoiseSpec(sigma=(1.0, 1.0, 1.0))
    dt = 2e-3
    dW = increments_for_path(spec, 50, dt, 5, 0)
    fine = refine_increments(dW, dt, 5, 0, level=1)
    assert fine.shape == (100, 3)
    np.testing.assert_allclose(fine[0::2] + fine[1::2], dW, rtol=1e-13, atol=0)


def test_refinement_statistics():
    # Halved increments carry variance dt/2 and the two halves decorrelate.
    spec = NoiseSpec(sigma=(1.0,) * 4)
    dt = 0.02
    dW = increments_for_path(spec, 20_000, dt, 17, 3)
    fine = refine_increments(dW, dt, 17, 3)
    flat = fine.ravel()
    assert abs(flat.var() - dt / 2) <= 0.05 * (dt / 2)
    first, second = fine[0::2].ravel(), fine[1::2].ravel()
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.02


def test_refinement_levels_reproducible_and_distinct():
    spec = NoiseSpec(sigma=(1.0, 1.0))
    dW = increments_for_path(spec, 10, 0.01, 23, 1)
    f1 = refine_increments(dW, 0.01, 23, 1, level=1)
    assert np.array_equal(f1, refine_increments(dW, 0.01, 23, 1, level=1))
    assert not np.array_equal(f1, refine_increments(dW, 0.01, 23, 1, level=2))
    with pytest.raises(ValueError):
        refine_increments(dW[0], 0.01, 23, 1)
