"""Tests for the discretized Gelfand triple: spectrum, transforms, pairings."""
import importlib
import pkgutil

import numpy as np
import pytest
from scipy.linalg import solve_banded

import spme
from spme.drift import DriftSpec, PhiSpec, PsiSpec, drift_coeffs, psi_eval
from spme.galerkin import StepperConfig, _StepPlan, simulate
from spme.noise import NoiseSpec
from spme.orlicz import PowerSumYoung, luxemburg_norm
from spme.triple import Field, SpectralDomain, h_norm

#: Psi = id and Phi = 0: the drift is L X, so <A(X), u>_H is the V*-V
#: pairing of L X against u.
IDENTITY_PSI = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
NO_DRIFT = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")
ZERO_NOISE = NoiseSpec(sigma=(0.0,))


def fd_laplacian_matrix(n):
    """Independent 3-point stencil oracle for the alpha=1 operator."""
    h = 1.0 / (n + 1)
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = -2.0 / h**2
        if i > 0:
            A[i, i - 1] = 1.0 / h**2
        if i < n - 1:
            A[i, i + 1] = 1.0 / h**2
    return A


def green(dom, f):
    """Coefficients of (-L)^{-1} f: the H pairing of f against each basis row."""
    return dom.h_pair(f, np.eye(dom.n_grid))


def projected(dom, n_modes, u):
    """u after one step of zero drift and zero noise on the leading n_modes."""
    plan = _StepPlan(StepperConfig(0.05, 0.05, n_modes), dom, NO_DRIFT, ZERO_NOISE)
    C, _ = plan.step(0.0, u.coeffs[None], np.zeros((1, 1)))
    return Field.from_coeffs(dom, C[0])


def tridiag_solve(n, rhs):
    """Solve the alpha=1 Dirichlet system A u = rhs with banded LU (oracle)."""
    h = 1.0 / (n + 1)
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0 / h**2
    ab[1, :] = -2.0 / h**2
    ab[2, :-1] = 1.0 / h**2
    return solve_banded((1, 1), ab, rhs)


def test_eigenvalues_increasing_and_positive():
    dom = SpectralDomain(33, alpha=1.0)
    assert np.all(dom.lam > 0)
    assert np.all(np.diff(dom.lam) > 0)


def test_alpha_one_matches_fd_spectrum():
    n = 17
    dom = SpectralDomain(n, alpha=1.0)
    A = fd_laplacian_matrix(n)
    eig = np.sort(np.linalg.eigvalsh(-A))
    np.testing.assert_allclose(dom.lam, eig, rtol=1e-11)


def test_basis_orthonormal_under_h_sum():
    dom = SpectralDomain(40)
    gram = dom.h * dom.basis.T @ dom.basis
    np.testing.assert_allclose(gram, np.eye(40), atol=1e-12)


def test_transform_round_trip_and_linearity():
    dom = SpectralDomain(64)
    rng = np.random.default_rng(5)
    v = rng.normal(0, 1, 64)
    w = rng.normal(0, 1, 64)
    np.testing.assert_allclose(dom.from_spectral(dom.to_spectral(v)), v, atol=1e-12)
    np.testing.assert_allclose(
        dom.to_spectral(2.0 * v - 3.0 * w),
        2.0 * dom.to_spectral(v) - 3.0 * dom.to_spectral(w),
        atol=1e-12,
    )


def test_field_lazy_both_ways():
    dom = SpectralDomain(16)
    rng = np.random.default_rng(1)
    v = rng.normal(0, 1, 16)
    f = Field.from_values(dom, v)
    g = Field.from_coeffs(dom, f.coeffs)
    np.testing.assert_allclose(g.values, v, atol=1e-12)


def test_field_is_its_coefficient_row():
    dom = SpectralDomain(16)
    rng = np.random.default_rng(2)
    a = Field.from_coeffs(dom, rng.normal(0, 1, 16))
    b = Field.from_coeffs(dom, rng.normal(0, 1, 16))
    assert Field.__slots__ == ("dom", "coeffs")
    assert np.array_equal((a + b).coeffs, a.coeffs + b.coeffs)
    assert np.array_equal((a - b).coeffs, a.coeffs - b.coeffs)
    assert np.array_equal((2.0 * a).coeffs, a.coeffs * 2.0)
    assert np.array_equal((a * 2.0).coeffs, a.coeffs * 2.0)
    v = rng.normal(0, 3, 16)
    f = Field.from_values(dom, v)
    assert np.array_equal(f.coeffs, dom.to_spectral(v))
    assert np.max(np.abs(f.values - v)) <= 1e-14 * np.max(np.abs(v))


def test_field_constructors_reject_a_wrong_shape():
    dom = SpectralDomain(16)
    for bad in (np.zeros(15), np.zeros((2, 16)), 0.0):
        with pytest.raises(ValueError, match="expected shape"):
            Field(dom, bad)
        with pytest.raises(ValueError, match="expected shape"):
            Field.from_coeffs(dom, bad)
        with pytest.raises(ValueError, match="expected shape"):
            Field.from_values(dom, bad)
    with pytest.raises(TypeError):
        Field(dom, values=np.zeros(16))


def test_h_pair_rows_are_h_inner():
    dom = SpectralDomain(24, alpha=0.7)
    rng = np.random.default_rng(3)
    X, Y = rng.normal(0, 1, (2, 5, 24))
    pairs = dom.h_pair(X, Y)
    assert pairs.shape == (5,)
    for x, y, p in zip(X, Y, pairs):
        assert dom.h_pair(x, y) == p
    assert h_norm(dom, Field(dom, X[0])) == np.sqrt(dom.h_pair(X[0], X[0]))


def test_apply_L_eigenvector():
    dom = SpectralDomain(25)
    s1 = Field.from_values(dom, dom.basis[:, 0])
    out = Field(dom, -dom.lam * s1.coeffs)
    np.testing.assert_allclose(out.values, -dom.lam[0] * s1.values, rtol=1e-11)


def test_apply_L_matches_stencil_exactly():
    # the discrete operator at alpha=1 IS the 3-point stencil, so equality
    # holds to rounding, not just O(h^2)
    n = 30
    dom = SpectralDomain(n, alpha=1.0)
    f = dom.x * (1.0 - dom.x)
    padded = np.concatenate(([0.0], f, [0.0]))
    stencil = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / dom.h**2
    out = Field(dom, -dom.lam * dom.to_spectral(f))
    np.testing.assert_allclose(out.values, stencil, atol=1e-10)


def test_inverse_round_trip():
    dom = SpectralDomain(48, alpha=0.5)
    rng = np.random.default_rng(2)
    f = Field.from_values(dom, rng.normal(0, 1, 48))
    back = Field.from_coeffs(dom, green(dom, dom.lam * f.coeffs))
    np.testing.assert_allclose(back.values, f.values, atol=1e-10)


def test_apply_Linv_eigenvector():
    dom = SpectralDomain(12)
    k = 4
    sk = Field.from_values(dom, dom.basis[:, k - 1])
    out = Field.from_coeffs(dom, -green(dom, sk.coeffs))
    np.testing.assert_allclose(out.values, -sk.values / dom.lam[k - 1], rtol=1e-11)


def test_apply_Linv_matches_tridiagonal_solve():
    n = 50
    dom = SpectralDomain(n, alpha=1.0)
    rng = np.random.default_rng(3)
    f = rng.normal(0, 1, n)
    ours = -dom.from_spectral(green(dom, dom.to_spectral(f)))
    oracle = tridiag_solve(n, f)
    np.testing.assert_allclose(ours, oracle, atol=1e-10)


def test_h_inner_eigenvectors():
    dom = SpectralDomain(20)
    s1 = Field.from_values(dom, dom.basis[:, 0])
    s2 = Field.from_values(dom, dom.basis[:, 1])
    assert dom.h_pair(s1.coeffs, s1.coeffs) == pytest.approx(1.0 / dom.lam[0], rel=1e-11)
    assert dom.h_pair(s1.coeffs, s2.coeffs) == pytest.approx(0.0, abs=1e-13)


def test_h_inner_equals_green_quadrature():
    # <u, v>_H = m(u * (-L^{-1} v))
    dom = SpectralDomain(36, alpha=0.75)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = Field.from_values(dom, rng.normal(0, 1, 36))
        v = Field.from_values(dom, rng.normal(0, 1, 36))
        direct = dom.h_pair(u.coeffs, v.coeffs)
        quad = dom.integrate(u.values * dom.from_spectral(green(dom, v.coeffs)))
        assert direct == pytest.approx(quad, abs=1e-10)


def test_v_norm_eigenvector():
    dom = SpectralDomain(31)
    N = PowerSumYoung((1.0,), (2.0,))
    m = dom.measure()
    s1 = Field.from_values(dom, dom.basis[:, 0])
    # ||u||_V = Luxemburg norm + H norm; under N=s^2 the Luxemburg norm of
    # s_1 is its weighted L2 norm = 1, and its H norm is lam_1^{-1/2}
    expected = luxemburg_norm(s1.values, N, m) + dom.lam[0] ** -0.5
    assert luxemburg_norm(s1.values, N, m) + h_norm(dom, s1) == pytest.approx(expected,
                                                                             rel=1e-12)
    assert luxemburg_norm(s1.values, N, m) == pytest.approx(1.0, rel=1e-9)


def test_v_norm_zero_and_homogeneity():
    dom = SpectralDomain(15)
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    m = dom.measure()
    # ||u||_V = Luxemburg norm + H norm
    zero = Field.zero(dom)
    assert luxemburg_norm(zero.values, N, m) + h_norm(dom, zero) == 0.0
    rng = np.random.default_rng(6)
    u = Field.from_values(dom, rng.normal(0, 1, 15))
    v_u = luxemburg_norm(u.values, N, m) + h_norm(dom, u)
    v_2u = luxemburg_norm(2.0 * u.values, N, m) + h_norm(dom, 2.0 * u)
    assert v_2u == pytest.approx(2.0 * v_u, rel=1e-8)


def test_project_identity_and_kill():
    dom = SpectralDomain(10)
    rng = np.random.default_rng(7)
    u = Field.from_values(dom, rng.normal(0, 1, 10))
    np.testing.assert_allclose(projected(dom, 10, u).values, u.values, atol=1e-12)
    s6 = Field.from_values(dom, dom.basis[:, 5])
    np.testing.assert_allclose(projected(dom, 5, s6).values, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        StepperConfig(0.05, 0.05, 0)
    with pytest.raises(ValueError):
        simulate(StepperConfig(0.05, 0.05, 11), dom, NO_DRIFT, ZERO_NOISE, u, 0)


def test_project_idempotent_nonexpanding():
    dom = SpectralDomain(24)
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = Field.from_values(dom, rng.normal(0, 1, 24))
        p = projected(dom, 7, u)
        pp = projected(dom, 7, p)
        np.testing.assert_allclose(pp.coeffs, p.coeffs, atol=1e-13)
        assert h_norm(dom, p) <= h_norm(dom, u) * (1 + 1e-12)


def test_pairing_trivial_cases():
    dom = SpectralDomain(22)
    u = Field.from_values(dom, np.ones(22))
    zero = Field.zero(dom)
    A0 = drift_coeffs(dom, IDENTITY_PSI, 0.0, zero.values, zero.coeffs)
    assert dom.h_pair(A0, u.coeffs) == 0.0
    s1 = Field.from_values(dom, dom.basis[:, 0])
    # psi = identity, v = u = s_1: -m(s_1^2) = -1
    A1 = drift_coeffs(dom, IDENTITY_PSI, 0.0, s1.values, s1.coeffs)
    assert dom.h_pair(A1, s1.coeffs) == pytest.approx(-1.0, rel=1e-12)


def test_pairing_two_routes_agree():
    for alpha in (1.0, 0.5):
        dom = SpectralDomain(64, alpha=alpha)
        rng = np.random.default_rng(9)
        for _ in range(250):
            psi = Field.from_values(dom, rng.normal(0, 1, 64))
            u = Field.from_values(dom, rng.normal(0, 1, 64))
            quad = -dom.integrate(psi_eval(IDENTITY_PSI.psi, 0.0, psi.values) * u.values)
            A = drift_coeffs(dom, IDENTITY_PSI, 0.0, psi.values, psi.coeffs)
            spectral = dom.h_pair(A, u.coeffs)
            assert quad == pytest.approx(spectral, abs=1e-10)
            assert dom.h_pair(-dom.lam * psi.coeffs, u.coeffs) == pytest.approx(spectral, abs=1e-10)


def test_embedding_constant():
    # ||u||_H <= lam_1^{-1/2} ||u||_{L2(m)} since every mode divides by >= lam_1
    dom = SpectralDomain(40, alpha=0.6)
    rng = np.random.default_rng(10)
    for _ in range(100):
        u = Field.from_values(dom, rng.normal(0, 1, 40))
        l2 = np.sqrt(dom.integrate(u.values**2))
        assert h_norm(dom, u) <= dom.lam[0] ** -0.5 * l2 * (1 + 1e-12)


def test_spectral_identity_matrix_reconstruction():
    # alpha=1: S diag(-lam) (h S) must equal the tridiagonal FD Laplacian.
    n = 256
    dom = SpectralDomain(n, alpha=1.0)
    rebuilt = (dom.basis * -dom.lam) @ dom.basis * dom.h
    oracle = fd_laplacian_matrix(n)
    assert float(np.max(np.abs(rebuilt - oracle))) < 1e-9


def test_domain_validation():
    with pytest.raises(ValueError):
        SpectralDomain(0)
    with pytest.raises(ValueError):
        SpectralDomain(2048)
    with pytest.raises(ValueError):
        SpectralDomain(16, alpha=1.5)
    with pytest.raises(ValueError):
        SpectralDomain(16, alpha=0.0)
    # A fractional n_grid used to build n_grid + 1 points with h = 1/(n_grid + 1),
    # and True a one-point grid.
    for bad in (64.5, 64.0, True, np.True_, "64", None):
        with pytest.raises(ValueError, match=f"n_grid must be an integer, got {bad!r}"):
            SpectralDomain(bad)
    for good in (np.int64(12), np.int32(12), np.uint8(12)):
        dom = SpectralDomain(good)
        assert type(dom.n_grid) is int and dom.n_grid == 12 and dom.basis.shape == (12, 12)
        assert dom.h == SpectralDomain(12).h


def _placed(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (-buf.__array_interface__["data"][0] % 64 + offset) // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.__array_interface__["data"][0] % 64 == offset
    return out


@pytest.mark.parametrize("n", [1, 7, 8, 32, 64, 127, 128, 255, 256, 511, 1024])
def test_basis_is_aligned_and_its_transforms_do_not_depend_on_the_alignment(n):
    dom = SpectralDomain(n)
    B = dom.basis
    assert B.flags.c_contiguous and B.shape == (n, n)
    assert B.__array_interface__["data"][0] % 64 == 0
    idx = np.arange(1, n + 1, dtype=np.int64)
    reduced = np.outer(idx, idx) % (2 * (n + 1))
    assert B.tobytes() == (np.sqrt(2.0) * np.sin(np.pi * reduced / (n + 1))).tobytes()
    # The aligned basis buys speed, not bits: OpenBLAS gives the same bytes
    # wherever the matrix starts.
    rng = np.random.default_rng(n)
    copies = [_placed(B, offset) for offset in (16, 32, 48)]
    for rows in (1, 2, 8):
        x = rng.standard_normal((rows, n) if rows > 1 else n)
        for S in copies:
            assert dom.from_spectral(x).tobytes() == (x @ S).tobytes()
            assert dom.to_spectral(x).tobytes() == ((x @ S) * dom.h).tobytes()


_MODULES_WITH_ALL = sorted(
    m.name for m in pkgutil.iter_modules(spme.__path__)
    if hasattr(importlib.import_module(f"spme.{m.name}"), "__all__")
)


@pytest.mark.parametrize("module", _MODULES_WITH_ALL)
def test_every_all_entry_resolves(module):
    namespace = {}
    exec(f"from spme.{module} import *", namespace)
    names = importlib.import_module(f"spme.{module}").__all__
    assert names and all(name in namespace for name in names)
