"""Tests for the diagonal diffusion operator and its increment streams."""

import math

import numpy as np
import pytest

from spme.noise import (
    NoiseSpec,
    RhoFactor,
    apply_B,
    hs0_sq,
    hs_norm_sq,
    increments_for_path,
    path_stream,
    power_decay_sigma,
    refine_increments,
    rho_factor,
    sample_increment,
)
from spme.triple import Field, SpectralDomain, h_norm


def random_field(dom, rng, decay=1.5):
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    return Field.from_coeffs(dom, rng.normal(0, 1, dom.n_grid) * k**-decay)


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
    dW = sample_increment(spec, 0.0, np.random.default_rng(0))
    assert dW.shape == (3,) and np.all(dW == 0.0)
    with pytest.raises(ValueError):
        sample_increment(spec, -1e-3, np.random.default_rng(0))


def test_sample_increment_moments():
    # CLT band for the mean and a 5% band for the variance at 1e5 draws.
    spec = NoiseSpec(sigma=(1.0,))
    rng = np.random.default_rng(20240812)
    dt = 0.01
    draws = np.array([sample_increment(spec, dt, rng)[0] for _ in range(200)])
    big = rng.normal(0.0, math.sqrt(dt), size=100_000)
    draws = np.concatenate([draws, big])  # keep the API exercised, then bulk
    assert abs(draws.mean()) <= 4.0 * math.sqrt(dt / draws.size)
    assert abs(draws.var() - dt) <= 0.05 * dt


def test_apply_B_zero_sigma():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.0, 0.0))
    out = apply_B(spec, dom, Field.zero(dom), np.array([1.3, -0.4]))
    assert np.all(out.values == 0.0)


def test_apply_B_unit_increment_is_scaled_mode():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.7, 0.2))
    out = apply_B(spec, dom, Field.zero(dom), np.array([1.0, 0.0]))
    np.testing.assert_allclose(
        out.values, 0.7 * math.sqrt(2.0) * np.sin(np.pi * dom.x), atol=1e-14
    )


def test_apply_B_dimension_mismatch():
    dom = SpectralDomain(8)
    spec = NoiseSpec(sigma=(1.0, 1.0))
    with pytest.raises(ValueError):
        apply_B(spec, dom, Field.zero(dom), np.zeros(3))


def test_hs_norm_sq_single_mode():
    dom = SpectralDomain(12)
    spec = NoiseSpec(sigma=(1.0, 0.0, 0.0))
    assert abs(hs_norm_sq(spec, dom, Field.zero(dom)) - 1.0 / dom.lam[0]) < 1e-14
    assert hs_norm_sq(NoiseSpec(sigma=(0.0,)), dom, Field.zero(dom)) == 0.0


def test_hs_norm_sq_matches_basis_image_sum():
    # Definition-level oracle: sum_k |B e_k|_H^2 over unit mode increments.
    dom = SpectralDomain(24)
    rng = np.random.default_rng(3)
    spec = NoiseSpec(sigma=tuple(rng.uniform(0, 1, 5)), mult=RhoFactor(0.2, 0.9))
    X = random_field(dom, rng)
    total = 0.0
    for k in range(spec.n_modes):
        e_k = np.zeros(spec.n_modes)
        e_k[k] = 1.0
        total += h_norm(dom, apply_B(spec, dom, X, e_k)) ** 2
    assert abs(total - hs_norm_sq(spec, dom, X)) < 1e-12 * max(1.0, total)


def test_hs0_rejects_too_many_modes():
    with pytest.raises(ValueError):
        hs0_sq(NoiseSpec(sigma=(1.0,) * 9), SpectralDomain(8))


def test_additive_difference_is_exactly_zero():
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.3, 0.2, 0.1))
    rng = np.random.default_rng(11)
    dW = sample_increment(spec, 0.05, rng)
    u, v = random_field(dom, rng), random_field(dom, rng)
    diff = apply_B(spec, dom, u, dW) - apply_B(spec, dom, v, dW)
    assert np.all(diff.coeffs == 0.0)


def test_lipschitz_contract_multiplicative():
    # |B(u)-B(v)|_HS <= L_rho * HS0 * |u-v|_H with rho(x) = 1/(1+x).
    dom = SpectralDomain(16)
    spec = NoiseSpec(sigma=(0.5, 0.3, 0.2), mult=RhoFactor(0.0, 1.0))
    hs0 = math.sqrt(hs0_sq(spec, dom))
    rng = np.random.default_rng(29)
    for _ in range(200):
        u, v = random_field(dom, rng), random_field(dom, rng)
        drho = abs(
            rho_factor(spec, h_norm(dom, u)) - rho_factor(spec, h_norm(dom, v))
        )
        lhs = drho * hs0  # diagonal B: HS norm of the difference in closed form
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
