"""Tests for the nonlinearities, the assembled drift, and condition checkers."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from spme.drift import (
    _S_GRID,
    DriftSpec,
    PhiSpec,
    PsiSpec,
    TimeModulation,
    _SampledModulation,
    _t_samples,
    check_A1,
    check_A2,
    check_H,
    declared_constants,
    drift_coeffs,
    implied_eps,
    linv_op_norm,
    monotonicity_constants,
    phi0_eval,
    psi_eval,
    psi_prime,
    psi_prime_max,
    young_modular,
)
from spme.galerkin import _Observables
from spme.noise import NoiseSpec, RhoFactor
from spme.orlicz import young_dual
from spme.triple import Field, SpectralDomain, h_norm


def pme_spec(r=2.0, coeff=1.0):
    return DriftSpec(psi=PsiSpec(terms=((coeff, r),)), phi=PhiSpec(), mode="A1")


def a2_spec(dom, fraction=0.5):
    """Psi = s + s^3 with a compliant linear perturbation of budget `fraction`."""
    kappa = fraction / linv_op_norm(dom, 2.0)
    return DriftSpec(
        psi=PsiSpec(terms=((1.0, 1.0), (1.0, 3.0))),
        phi=PhiSpec(phi0_terms=((kappa, 1.0),)),
        mode="A2",
    )


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def test_psi_eval_examples():
    cubic = PsiSpec(terms=((1.0, 2.0),))
    assert psi_eval(cubic, 0.0, -3.0) == -9.0
    assert psi_eval(cubic, 0.0, 0.0) == 0.0
    logp = PsiSpec(log_power=(2.0, 1.0))
    assert abs(psi_eval(logp, 0.0, 1.0) - math.log(2.0)) < 1e-15
    assert psi_eval(logp, 0.0, -1.0) == -psi_eval(logp, 0.0, 1.0)


def test_psi_eval_modulated():
    mod = TimeModulation(func=lambda t: 2.0 - t, a_min=1.0, a_max=2.0)
    spec = PsiSpec(terms=((1.0, 2.0),), modulation=mod)
    assert psi_eval(spec, 0.0, 2.0) == 8.0
    assert psi_eval(spec, 1.0, 2.0) == 4.0


def test_phi_eval():
    # Phi(t, s) = h_t s + Phi_0(s), as the semi-implicit right-hand side
    # takes it; the drift it enters is odd in the state.
    phi = PhiSpec(h_const=0.3, phi0_terms=((0.1, 1.0),))
    assert abs(phi.h_at(0.0) * 2.0 + phi0_eval(phi, 2.0) - (0.6 + 0.2)) < 1e-15
    assert phi0_eval(phi, -2.0) == -phi0_eval(phi, 2.0)
    dom = SpectralDomain(8)
    X = Field.from_values(dom, np.random.default_rng(4).normal(0, 1, 8))
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=phi, mode="A2")
    A = drift_coeffs(dom, spec, 0.0, X.values, X.coeffs)
    assert np.array_equal(drift_coeffs(dom, spec, 0.0, -X.values, -X.coeffs), -A)
    tf = PhiSpec(h_func=lambda t: 0.5 * math.sin(t), h_sup=0.5)
    assert tf.sup_h == 0.5 and tf.h_at(0.0) == 0.0


def test_psi_prime_families():
    s = np.array([-2.0, -0.5, 0.5, 2.0])
    cubic = PsiSpec(terms=((1.0, 3.0),))
    np.testing.assert_allclose(psi_prime(cubic, 0.0, s), 3.0 * s**2)
    fast = PsiSpec(terms=((1.0, 0.5),))
    assert psi_prime(fast, 0.0, 0.0) == math.inf
    logp = PsiSpec(log_power=(1.5, 1.0))
    assert psi_prime(logp, 0.0, 0.0) == 0.0  # theta + r > 2 keeps the limit finite


def _psi_eval_reference(spec, t, s):
    """psi_eval as a sum accumulated onto a zero array."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    if spec.log_power is not None:
        theta, r = spec.log_power
        out = a ** (theta - 1.0) * np.log1p(a) ** r
    else:
        out = np.zeros_like(a)
        for c, r in spec.terms:
            out += c * a**r
    return spec.a_at(t) * np.sign(s) * out


def _psi_prime_reference(spec, t, s):
    """psi_prime as a sum accumulated onto a zero array."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    out = np.zeros_like(a)
    if spec.log_power is not None:
        theta, r = spec.log_power
        pos = a > 0.0
        ap = a[pos]
        out[pos] = (theta - 1.0) * ap ** (theta - 2.0) * np.log1p(ap) ** r + ap ** (
            theta - 1.0
        ) * r * np.log1p(ap) ** (r - 1.0) / (1.0 + ap)
    else:
        with np.errstate(divide="ignore"):
            for c, r in spec.terms:
                out += c * r * a ** (r - 1.0)
    return spec.a_at(t) * out


_MOD = TimeModulation(func=lambda t: 1.0 + 0.5 * math.sin(t), a_min=0.5, a_max=1.5)


@pytest.mark.parametrize("spec", [
    PsiSpec(terms=((1.0, 2.0),)),
    PsiSpec(terms=((0.7, 1.0), (0.3, 2.5), (2.0, 4.0))),
    PsiSpec(terms=((-0.5, 2.0),)),
    PsiSpec(terms=((-0.2, 1.0), (1.0, 3.0))),
    PsiSpec(terms=((1.0, 3.0), (-0.2, 1.0))),
    PsiSpec(terms=((1.0, 0.5),)),
    PsiSpec(terms=((2.0, 0.5), (1.0, 1.0)), modulation=_MOD),
    PsiSpec(log_power=(2.0, 1.0)),
    PsiSpec(log_power=(1.5, 2.0), modulation=_MOD),
    PsiSpec(terms=((1.0, 2.0),), modulation=_MOD),
    PsiSpec(),
], ids=["pme", "multi", "negative", "negative-lead", "negative-tail", "fast",
        "fast-modulated", "log", "log-modulated", "pme-modulated", "zero"])
def test_psi_fast_paths_match_the_term_sum(spec):
    # Bitwise, signed zeros included: 0.0 + (-0.0) is +0.0, so a negative
    # leading term at s = 0 must not leave -0.0 behind.
    finite = np.array([0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 1.0, -2.5, 7.0, 1e-8])
    edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 1e200, -1e200])

    def same(x, y):
        return np.asarray(x).tobytes() == np.asarray(y).tobytes() and np.shape(x) == np.shape(y)

    for t in (0.0, 0.7):
        # Finite inputs raise no RuntimeWarning (an error in this suite), not
        # even the fast-diffusion Psi'(0) = inf.
        for s in (finite, finite.reshape(2, 5), -0.0, 0.0, 2.0):
            assert same(psi_eval(spec, t, s), _psi_eval_reference(spec, t, s))
            assert same(psi_prime(spec, t, s), _psi_prime_reference(spec, t, s))
        with np.errstate(over="ignore", invalid="ignore"):
            assert same(psi_eval(spec, t, edges), _psi_eval_reference(spec, t, edges))
            assert same(psi_prime(spec, t, edges), _psi_prime_reference(spec, t, edges))
    if spec.terms == ((1.0, 0.5),):
        assert psi_prime(spec, 0.0, 0.0) == math.inf


def test_psi_prime_matches_difference_quotient():
    rng = np.random.default_rng(4)
    spec = PsiSpec(terms=((0.7, 1.0), (0.3, 2.5)))
    s = rng.uniform(0.1, 4.0, 50)
    eps = 1e-6
    quot = (psi_eval(spec, 0.0, s + eps) - psi_eval(spec, 0.0, s - eps)) / (2 * eps)
    np.testing.assert_allclose(psi_prime(spec, 0.0, s), quot, rtol=1e-7)


def test_psi_prime_max():
    assert psi_prime_max(pme_spec().psi, 0.0, 2.0) == pytest.approx(4.0, rel=1e-2)
    assert psi_prime_max(PsiSpec(terms=((1.0, 0.5),)), 0.0, 1.0) == math.inf
    assert psi_prime_max(PsiSpec(), 0.0, 5.0) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        PsiSpec(terms=((1.0, 2.0),), log_power=(2.0, 1.0))
    with pytest.raises(ValueError):
        PsiSpec(terms=((0.0, 2.0),))
    with pytest.raises(ValueError):
        PsiSpec(terms=((1.0, 2.0), (2.0, 2.0)))  # duplicate exponents
    with pytest.raises(ValueError):
        PsiSpec(log_power=(1.0, 1.0))  # theta must exceed 1
    with pytest.raises(ValueError):
        TimeModulation(func=lambda t: 1.0, a_min=0.0, a_max=1.0)
    with pytest.raises(ValueError):
        PhiSpec(h_func=lambda t: 0.0, h_sup=None)
    with pytest.raises(ValueError):
        PhiSpec(phi0_terms=((-0.1, 1.0),))
    # Mode coupling rules.
    with pytest.raises(ValueError):
        DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)),
                  phi=PhiSpec(phi0_terms=((0.1, 2.0),)), mode="A1")
    with pytest.raises(ValueError):
        DriftSpec(psi=PsiSpec(log_power=(2.0, 1.0)), phi=PhiSpec(), mode="A2")
    with pytest.raises(ValueError):
        DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A2")
    with pytest.raises(ValueError):
        DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)),
                  phi=PhiSpec(phi0_terms=((0.1, 2.0),)), mode="A2")
    with pytest.raises(ValueError):
        DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1", f_const=-1.0)


def test_h_sup_without_h_func_is_rejected():
    # A constant h is bounded by |h_const|; a declared h_sup would be ignored.
    with pytest.raises(ValueError, match="h_sup"):
        PhiSpec(h_const=0.2, h_sup=1.0)
    assert PhiSpec(h_const=-0.2).sup_h == 0.2


# ---------------------------------------------------------------------------
# Drift assembly
# ---------------------------------------------------------------------------


def test_assemble_linear_heat():
    # Psi = id, Phi = 0: the drift is exactly L X.
    dom = SpectralDomain(24)
    rng = np.random.default_rng(8)
    X = Field.from_values(dom, rng.normal(0, 1, 24))
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
    A = drift_coeffs(dom, spec, 0.0, X.values, X.coeffs)
    np.testing.assert_allclose(A, -dom.lam * X.coeffs, rtol=1e-12, atol=1e-14)


def test_assemble_cubic_quadrature_oracle():
    # X = s_1, Psi = s^3 at n_grid=16.  Oracle: raw quadrature of
    # -lam_k * h * sum_i X_i^3 sqrt(2) sin(k pi x_i), frozen spot values below;
    # the sin^3 identity puts all mass on modes 1 and 3 with weights 3/2, -1/2.
    dom = SpectralDomain(16)
    e1 = np.zeros(16)
    e1[0] = 1.0
    X = Field.from_coeffs(dom, e1)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A1")
    A = drift_coeffs(dom, spec, 0.0, X.values, X.coeffs)
    assert A[0] == pytest.approx(-14.76232257405716, rel=1e-13)
    assert A[2] == pytest.approx(43.28724777414149, rel=1e-13)
    np.testing.assert_allclose(A[0], -1.5 * dom.lam[0], rtol=1e-12)
    np.testing.assert_allclose(A[2], 0.5 * dom.lam[2], rtol=1e-12)
    others = np.delete(A, [0, 2])
    np.testing.assert_allclose(others, 0.0, atol=1e-11)


def test_assemble_phi0_zero_consistency():
    dom = SpectralDomain(16)
    rng = np.random.default_rng(3)
    X = Field.from_values(dom, rng.normal(0, 1, 16))
    base = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0), (1.0, 3.0))),
                     phi=PhiSpec(h_const=0.2), mode="A2")
    a1_like = DriftSpec(psi=base.psi, phi=PhiSpec(h_const=0.2), mode="A1")
    np.testing.assert_array_equal(
        drift_coeffs(dom, base, 0.0, X.values, X.coeffs),
        drift_coeffs(dom, a1_like, 0.0, X.values, X.coeffs),
    )


def test_assemble_galerkin_coordinates_two_routes():
    # The H-coordinates of A must reproduce the duality pairing against the
    # H-orthonormal directions sqrt(lam_j) s_j, with the perturbation term
    # realised THROUGH the inverse operator (computed here by an independent
    # banded solve of the three-point stencil, not through the eigenbasis).
    dom = SpectralDomain(32, alpha=1.0)
    rng = np.random.default_rng(14)
    spec = a2_spec(dom if dom.n_grid == 32 else dom)
    spec = DriftSpec(psi=spec.psi,
                     phi=PhiSpec(h_const=0.4, phi0_terms=spec.phi.phi0_terms),
                     mode="A2")
    X = Field.from_values(dom, rng.normal(0, 0.8, 32))
    A = drift_coeffs(dom, spec, 0.0, X.values, X.coeffs)

    n, h = 32, dom.h
    banded = np.zeros((3, n))
    banded[0, 1:] = 1.0 / h**2
    banded[1, :] = -2.0 / h**2
    banded[2, :-1] = 1.0 / h**2
    psi_vals = psi_eval(spec.psi, 0.0, X.values)
    phi0_vals = X.values * 0.0
    for c, r in spec.phi.phi0_terms:
        phi0_vals += c * np.sign(X.values) * np.abs(X.values) ** r
    lhs, rhs = [], []
    for j in range(n):
        e_hat = Field.from_coeffs(dom, math.sqrt(dom.lam[j]) * np.eye(n)[j])
        lhs.append(dom.h_pair(A, e_hat.coeffs))
        linv_e = solve_banded((1, 1), banded, e_hat.values)
        rhs.append(
            -h * np.sum(psi_vals * e_hat.values)
            + 0.4 * dom.h_pair(X.coeffs, e_hat.coeffs)
            - h * np.sum(phi0_vals * linv_e)
        )
    np.testing.assert_allclose(np.array(lhs), np.array(rhs), rtol=1e-9, atol=1e-10)


def test_young_modular_and_R():
    dom = SpectralDomain(16)
    ones = Field.from_values(dom, np.ones(16))
    psi = PsiSpec(terms=((1.0, 1.0),))  # N(s) = s^2
    assert young_modular(dom, psi, ones.values) == pytest.approx(16 * dom.h)
    spec = DriftSpec(psi=psi, phi=PhiSpec(), mode="A1")
    R = _Observables(dom, spec, 0.0, ones.coeffs[None], None)["R"]
    assert R[0] == pytest.approx(16 * dom.h + h_norm(dom, ones) ** 2)
    assert young_modular(dom, PsiSpec(), ones.values) == 0.0


# ---------------------------------------------------------------------------
# Condition certificates
# ---------------------------------------------------------------------------


def test_check_A1_pme_and_fast_diffusion():
    for r in (2.0, 0.5):
        rep = check_A1(pme_spec(r=r))
        assert rep.passed
        assert rep.constants["c"] == 1.0
        assert rep.constants["f"] == 0.0
        assert rep.margins["psi1"] >= -1e-12
        assert rep.constants["psi4_dual_at_zero"] == 0.0


def test_check_A1_log_power():
    spec = DriftSpec(psi=PsiSpec(log_power=(2.0, 1.0)), phi=PhiSpec(), mode="A1")
    rep = check_A1(spec)
    assert rep.passed and rep.constants["c"] == 1.0 and rep.constants["f"] == 0.0


def test_check_A1_modulated_reports_ratio():
    mod = TimeModulation(
        func=lambda t: 1.25 + 0.75 * math.cos(2 * math.pi * t), a_min=0.5, a_max=2.0
    )
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),), modulation=mod),
                     phi=PhiSpec(), mode="A1")
    rep = check_A1(spec)
    assert rep.passed
    assert rep.constants["c"] == 4.0  # a_max / a_min
    assert rep.constants["f"] == 0.0


def test_check_A1_reports_a_modulation_off_its_bounds():
    # A run refuses a(t) = 3 > a_max; the checker samples it and reports it.
    mod = TimeModulation(func=lambda t: 3.0, a_min=0.5, a_max=1.0)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),), modulation=mod), phi=PhiSpec(),
                     mode="A1")
    with pytest.raises(ValueError, match="lies outside its bounds"):
        psi_eval(spec.psi, 0.0, 1.0)
    rep = check_A1(spec)
    assert not rep.passed
    assert [f["sample"] for f in rep.failures if f["condition"] == "modulation-bounds"] \
        == list(_t_samples(spec))


_SANDWICH_FAMILIES = {
    "power-r2": PsiSpec(terms=((1.0, 2.0),)),
    "power-r0.5": PsiSpec(terms=((1.0, 0.5),)),
    "mixed-sum": PsiSpec(terms=((1.0, 1.0), (0.5, 3.0))),
    "log-power": PsiSpec(log_power=(2.0, 1.0)),
    "modulated": PsiSpec(terms=((1.0, 2.0),), modulation=TimeModulation(
        func=lambda t: 1.25 + 0.75 * math.cos(2 * math.pi * t), a_min=0.5, a_max=2.0)),
    # Period 0.3 does not divide 1, so the sampled times miss the minimum of a(t).
    "modulated-period-0.3": PsiSpec(terms=((1.0, 1.0), (0.5, 3.0)), modulation=TimeModulation(
        func=lambda t: 1.3 + 0.6 * math.cos(2 * math.pi * t / 0.3), a_min=0.7, a_max=1.9)),
}


@pytest.mark.parametrize("name", sorted(_SANDWICH_FAMILIES))
def test_closed_form_sandwich_holds_on_the_grid(name):
    # The reports state (c, f) = (a_max/a_min, 0) in closed form; check
    # N(s) <= s Psi(t, s) <= c N(s) and Psi(t, 0) = 0 at the sampled times.
    psi = _SANDWICH_FAMILIES[name]
    spec = DriftSpec(psi=psi, phi=PhiSpec(), mode="A1")
    rep = check_A1(spec)
    assert rep.passed and rep.constants["f"] == 0.0
    assert rep.constants["psi4_dual_at_zero"] == 0.0
    c = rep.constants["c"]
    n_vals = psi.young()(_S_GRID)
    for t in _t_samples(spec):
        sp = _S_GRID * psi_eval(psi, t, _S_GRID)
        assert np.all(n_vals <= sp * (1 + 1e-12))
        assert np.all(sp <= c * n_vals * (1 + 1e-12))
        assert psi_eval(psi, t, 0.0) == 0.0
    dom, noise = SpectralDomain(16), NoiseSpec(sigma=(0.1,))
    assert c == declared_constants(dom, spec, noise)["c_psi3"]
    if psi.log_power is None and min(r for _, r in psi.terms) >= 1.0:
        spec_a2 = DriftSpec(psi=psi, phi=PhiSpec(), mode="A2")
        c_a2 = check_A2(spec_a2, dom).constants["c"]
        assert c_a2 == declared_constants(dom, spec_a2, noise)["c_psi3"] == c


def test_check_A1_detects_nonmonotone():
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0), (-1.0, 3.0))),
                     phi=PhiSpec(), mode="A1")
    rep = check_A1(spec)
    assert not rep.passed
    fail = next(f for f in rep.failures if f["condition"] == "psi1")
    s1, s2 = fail["sample"]
    lhs = (s2 - s1) * (psi_eval(spec.psi, 0.0, s2) - psi_eval(spec.psi, 0.0, s1))
    assert lhs < 0.0  # the reported pair really violates monotonicity


def test_check_A1_zero_psi():
    rep = check_A1(DriftSpec(psi=PsiSpec(), phi=PhiSpec(h_const=1.0), mode="A1"))
    assert rep.passed and rep.constants == {"c": 1.0, "f": 0.0}


def test_check_A1_rejects_wrong_mode():
    dom = SpectralDomain(16)
    with pytest.raises(ValueError):
        check_A1(a2_spec(dom))


def test_monotonicity_constants_power_lower_bound():
    deltas = dict(
        (r, d) for d, r in monotonicity_constants(PsiSpec(terms=((1.0, 1.0), (1.0, 3.0))))
    )
    assert deltas[1.0] == 1.0 and deltas[3.0] == 0.25
    # The r=1 constant is exact: equality for every pair.
    # For r=3 the antipodal pair (s, -s) attains the bound.
    s = 1.7
    lhs = (2 * s) * (psi_eval(PsiSpec(terms=((1.0, 3.0),)), 0.0, s) * 2)
    assert lhs == pytest.approx(0.25 * (2 * s) ** 4, rel=1e-12)


def test_linv_op_norm_band():
    dom = SpectralDomain(64)
    est = linv_op_norm(dom, 2.0)
    # Self-adjointness pins the true L^2 norm at 1/lam_1; an upper bound may
    # not fall below it.
    assert est <= 1.5 / dom.lam[0] * (1 + 1e-12)
    assert est >= (1 - 1e-12) / dom.lam[0]
    assert linv_op_norm(dom, 2.0) == est


def _boyd_maximiser(G, p, max_iter=200):
    """Boyd's p-norm power iteration: a local maximiser of |G x|_p / |x|_p.

    D. W. Boyd, "The power method for l^p norms", Linear Algebra Appl. 9
    (1974).  dual(v, r) is the unit vector of the dual norm that attains
    <dual(v, r), v> = |v|_r; the iteration stops once no ascent is left.
    """
    q = p / (p - 1.0)

    def dual(v, r):
        return np.sign(v) * (np.abs(v) / np.linalg.norm(v, r)) ** (r - 1.0)

    x = np.ones(G.shape[0]) / np.linalg.norm(np.ones(G.shape[0]), p)
    for _ in range(max_iter):
        z = G.T @ dual(G @ x, p)
        if np.linalg.norm(z, q) <= z @ x:
            break
        x = dual(z, q)
    return x


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("n_grid", [16, 64, 128])
def test_linv_op_norm_is_a_bound(n_grid, alpha, p):
    dom = SpectralDomain(n_grid, alpha)
    bound = linv_op_norm(dom, p)

    def linv(F):  # L^{-1} on grid values, one field per row
        return dom.from_spectral(dom.to_spectral(F) / dom.lam)

    # The uniform weights h cancel in |L^{-1} f|_p / |f|_p, so plain vector
    # p-norms of the grid values give the L^p ratio.
    G = linv(np.eye(n_grid))
    fields = np.vstack([np.eye(n_grid), np.ones(n_grid), _boyd_maximiser(G, p)])
    ratios = np.linalg.norm(linv(fields), p, axis=1) / np.linalg.norm(fields, p, axis=1)
    assert bound >= (1 - 1e-12) * ratios.max()
    if p == 2.0:
        assert bound == pytest.approx(1.0 / dom.lam[0], rel=1e-12, abs=0.0)
    # theta = 1 at p = 1 leaves the Schur constant max_i sum_j |G_ij|, which
    # the bound reads off L^{-1} 1 because G is entrywise positive.
    schur = linv_op_norm(dom, 1.0)
    assert G.min() > 0.0
    assert schur == pytest.approx(np.abs(G).sum(axis=1).max(), rel=1e-12, abs=0.0)
    if alpha == 1.0:
        # At alpha = 1 the row sums solve -Delta_h u = 1, whose solution
        # x(1 - x)/2 the three-point stencil reproduces exactly.
        exact = np.max(dom.x * (1.0 - dom.x) / 2.0)
        assert schur == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_check_A2_cubic_and_compliant_phi0():
    dom = SpectralDomain(64)
    pure = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)), phi=PhiSpec(), mode="A2")
    rep = check_A2(pure, dom)
    assert rep.passed
    assert rep.constants["delta_1"] == 0.25
    assert rep.constants["eps_implied"] == 0.0
    assert rep.margins["psi1_prime"] >= -1e-12

    rep = check_A2(a2_spec(dom), dom)
    assert rep.passed
    assert rep.constants["eps_implied"] == pytest.approx(0.5, rel=1e-12)
    assert rep.margins["phi1"] >= 0.0
    assert rep.margins["phi2"] == pytest.approx(0.5, rel=1e-12)


def test_check_A2_detects_oversized_budget():
    dom = SpectralDomain(64)
    rep = check_A2(a2_spec(dom, fraction=2.0), dom)
    assert not rep.passed
    assert any(f["condition"] == "phi2" for f in rep.failures)
    assert rep.constants["eps_implied"] == pytest.approx(2.0, rel=1e-12)


def test_check_A2_detects_bad_hoelder_perturbation():
    # A pure cubic perturbation fails the difference bound on narrow pairs
    # (|s2^3 - s1^3| ~ s^2 |s2 - s1| >> |s2 - s1|^3 near moderate s).
    dom = SpectralDomain(64)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 3.0),)),
                     phi=PhiSpec(phi0_terms=((0.5, 3.0),)), mode="A2")
    rep = check_A2(spec, dom)
    assert not rep.passed
    assert any(f["condition"] == "phi1" for f in rep.failures)


def test_implied_eps_no_terms():
    dom = SpectralDomain(16)
    assert implied_eps(dom, pme_spec()) == 0.0


# ---------------------------------------------------------------------------
# Random-field certificates
# ---------------------------------------------------------------------------


def test_check_H_pme_additive():
    dom = SpectralDomain(32)
    noise = NoiseSpec(sigma=(0.1, 0.05, 0.02))
    rep = check_H(dom, pme_spec(), noise)
    assert rep.passed
    assert rep.constants["c_emp_h2"] <= 1e-10  # monotone drift, additive noise
    assert rep.margins["h3"] >= -1e-9
    assert rep.margins["h4"] >= -1e-9
    assert rep.margins["h1"] > 0.0


def test_check_H_linear_strictly_negative():
    dom = SpectralDomain(32)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
    rep = check_H(dom, spec, NoiseSpec(sigma=(0.1,)))
    assert rep.passed
    assert rep.constants["c_emp_h2"] <= -2.0 * dom.lam[0] + 1e-9


def test_check_H_zero_drift_and_noise():
    dom = SpectralDomain(16)
    spec = DriftSpec(psi=PsiSpec(), phi=PhiSpec(), mode="A1")
    rep = check_H(dom, spec, NoiseSpec(sigma=(0.0,)))
    assert rep.passed
    assert rep.constants["c_h2"] == 0.0
    assert abs(rep.constants["c_emp_h2"]) <= 1e-12


def test_check_H_multiplicative_and_h():
    dom = SpectralDomain(32)
    noise = NoiseSpec(sigma=(0.3, 0.1), mult=RhoFactor(0.5, 1.0))
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)),
                     phi=PhiSpec(h_const=0.25), mode="A1")
    rep = check_H(dom, spec, noise)
    assert rep.passed
    declared = declared_constants(dom, spec, noise)
    assert declared["c_h2"] == pytest.approx(0.5 + 0.25 * declared["hs0_sq"])
    assert rep.constants["c_emp_h2"] <= declared["c_h2"] + 1e-10


def test_check_H_fast_diffusion_hemicontinuity():
    # Hoelder-1/2 nonlinearity: refinement ratio ~ 2^{-1/2} still passes.
    dom = SpectralDomain(32)
    rep = check_H(dom, pme_spec(r=0.5), NoiseSpec(sigma=(0.1,)))
    assert rep.passed
    assert rep.margins["h1"] > 0.0


def _reference_fields(dom, rng, n):
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    scale = 10.0 ** rng.uniform(-2.0, 1.0, size=(n, 1))
    coeffs = rng.normal(0.0, 1.0, size=(n, dom.n_grid)) * k**-1.5 * scale
    return [Field.from_coeffs(dom, c) for c in coeffs]


def _reference_check_H(dom, spec, noise):
    """check_H as a loop over 1000 Field pairs: the batched pass's reference.

    Returns (passed, constants, margins, failures) with each failure as
    (condition, sample, lhs, rhs).  Like check_H, it evaluates a modulation
    that leaves its bounds rather than refusing it as a run does.
    """
    rng = np.random.default_rng(0)
    ts = np.linspace(0.0, 1.0, 7) if spec.is_time_dependent else np.array([0.0])
    declared = declared_constants(dom, spec, noise)
    failures = []
    mod = spec.psi.modulation
    if mod is not None:
        mod = _SampledModulation(mod.func, mod.a_min, mod.a_max)
        spec = dataclasses.replace(spec, psi=dataclasses.replace(spec.psi, modulation=mod))
    for t in ts if mod is not None else ():
        if not (mod.a_min - 1e-12 <= mod(t) <= mod.a_max + 1e-12):
            failures.append(("modulation-bounds", float(t), mod(t), mod.a_max))
    for t in ts if spec.phi.h_func is not None else ():
        if abs(spec.phi.h_at(t)) > spec.phi.sup_h + 1e-12:
            failures.append(("h-bound", float(t), abs(spec.phi.h_at(t)), spec.phi.sup_h))

    def rho(x):  # rho(|x|_H), 1 for additive noise
        return 1.0 if noise.mult is None else float(noise.mult(h_norm(dom, x)))

    def drift(t, x):  # A_k = -lam_k Psi(t, x)_k + h_t x_k + Phi_0(x)_k
        phi0 = x.values * 0.0
        for c, r in spec.phi.phi0_terms:
            phi0 += c * np.sign(x.values) * np.abs(x.values) ** r
        return Field.from_coeffs(dom, -dom.lam * dom.to_spectral(psi_eval(spec.psi, t, x.values))
                                 + spec.phi.h_at(t) * x.coeffs + dom.to_spectral(phi0))

    def R(x):  # R(x) = m(N(x)) + |x|_H^2
        return float(young_modular(dom, spec.psi, x.values)) + h_norm(dom, x) ** 2

    us, vs = _reference_fields(dom, rng, 1000), _reference_fields(dom, rng, 1000)
    c_emp, h3_margin, h4_margin = -math.inf, math.inf, math.inf
    for i, (u, v) in enumerate(zip(us, vs)):
        t = float(ts[i % ts.size])
        a_u, a_v = drift(t, u), drift(t, v)
        duv = h_norm(dom, u - v) ** 2
        lhs2 = (2.0 * dom.h_pair((a_u - a_v).coeffs, (u - v).coeffs)
                + (rho(u) - rho(v)) ** 2 * declared["hs0_sq"])
        c_emp = max(c_emp, lhs2 / duv)
        if lhs2 > declared["c_h2"] * duv + 1e-9 * (1.0 + abs(lhs2)):
            failures.append(("h2", i, lhs2, declared["c_h2"] * duv))
        r_v, r_u = R(v), R(u)
        lhs3 = 2.0 * dom.h_pair(a_v.coeffs, v.coeffs) + rho(v) ** 2 * declared["hs0_sq"]
        rhs3 = (declared["c1"] * h_norm(dom, v) ** 2 - declared["c2"] * r_v
                + declared["f_h3"])
        h3_margin = min(h3_margin, (rhs3 - lhs3) / (1.0 + abs(lhs3) + abs(rhs3)))
        if lhs3 > rhs3 + 1e-9 * (1.0 + abs(lhs3) + abs(rhs3)):
            failures.append(("h3", i, lhs3, rhs3))
        lhs4 = abs(dom.h_pair(a_v.coeffs, u.coeffs))
        rhs4 = declared["g_h4"] + declared["c3"] * (r_v + r_u)
        h4_margin = min(h4_margin, (rhs4 - lhs4) / (1.0 + abs(lhs4) + abs(rhs4)))
        if lhs4 > rhs4 + 1e-9 * (1.0 + abs(lhs4) + abs(rhs4)):
            failures.append(("h4", i, lhs4, rhs4))

    h1_ratio = 0.0
    for trial in range(3):
        u, v, x = _reference_fields(dom, rng, 3)
        t = float(ts[trial % ts.size])
        sweeps = []
        for n_pts in (41, 81):
            vals = np.array([dom.h_pair(drift(t, u + v * lam).coeffs, x.coeffs)
                             for lam in np.linspace(-1.0, 1.0, n_pts)])
            sweeps.append((float(np.max(np.abs(np.diff(vals)))),
                           float(np.max(np.abs(vals)))))
        (coarse, scale), (fine, _) = sweeps
        if coarse <= 1e-12 * (1.0 + scale):
            continue
        h1_ratio = max(h1_ratio, fine / coarse)
        if fine > 0.75 * coarse:
            failures.append(("h1", trial, fine, 0.75 * coarse))

    constants = {**declared, "c_emp_h2": c_emp}
    margins = {"h1": 0.75 - h1_ratio, "h2": declared["c_h2"] - c_emp,
               "h3": h3_margin, "h4": h4_margin}
    return not failures, constants, margins, failures


def _modulated(func):
    return PsiSpec(terms=((1.0, 2.0),),
                   modulation=TimeModulation(func=func, a_min=0.5, a_max=1.0))


# name -> (drift on a 16-point grid, whether check_H passes it)
_H_CASES = {
    "pme": (lambda dom: pme_spec(), True),
    "linear": (lambda dom: pme_spec(r=1.0), True),
    "fast": (lambda dom: pme_spec(r=0.5), True),
    "zero": (lambda dom: DriftSpec(psi=PsiSpec(), phi=PhiSpec()), True),
    "log-power": (lambda dom: DriftSpec(psi=PsiSpec(log_power=(2.0, 1.0)), phi=PhiSpec()),
                  True),
    "pme-h": (lambda dom: DriftSpec(psi=pme_spec().psi, phi=PhiSpec(h_const=0.25)), True),
    "modulated": (lambda dom: DriftSpec(
        psi=_modulated(lambda t: 0.75 + 0.25 * math.cos(2.0 * math.pi * t)),
        phi=PhiSpec()), True),
    "h-func": (lambda dom: DriftSpec(psi=pme_spec().psi, phi=PhiSpec(
        h_func=lambda t: 0.3 * math.sin(2.0 * math.pi * t), h_sup=0.3)), True),
    "a2-phi0": (a2_spec, True),
    "modulation-above": (lambda dom: DriftSpec(psi=_modulated(lambda t: 3.0),
                                               phi=PhiSpec()), False),
    "modulation-below": (lambda dom: DriftSpec(psi=_modulated(lambda t: 0.1),
                                               phi=PhiSpec()), False),
    "modulation-far-above": (lambda dom: DriftSpec(psi=_modulated(lambda t: 30.0),
                                                   phi=PhiSpec()), False),
    "h-above-sup": (lambda dom: DriftSpec(psi=pme_spec().psi, phi=PhiSpec(
        h_func=lambda t: 2.0, h_sup=0.5)), False),
}
_H_NOISES = {
    "additive": NoiseSpec(sigma=(0.3, 0.1, 0.05)),
    "rho": NoiseSpec(sigma=(0.3, 0.1), mult=RhoFactor(0.5, 1.0)),
}


@pytest.mark.parametrize("noise", sorted(_H_NOISES))
@pytest.mark.parametrize("case", sorted(_H_CASES))
def test_check_H_matches_per_sample_reference(case, noise):
    dom = SpectralDomain(16)
    build, passes = _H_CASES[case]
    spec = build(dom)
    rep = check_H(dom, spec, _H_NOISES[noise])
    passed, constants, margins, failures = _reference_check_H(dom, spec, _H_NOISES[noise])
    assert rep.passed == passed == passes
    assert rep.n_samples == 1000
    assert [(f["condition"], f["sample"]) for f in rep.failures] == \
           [f[:2] for f in failures]

    def close(a, b):
        return a == b or abs(a - b) <= 1e-11 * (1.0 + abs(b))

    for got, want in ((rep.constants, constants), (rep.margins, margins)):
        assert got.keys() == want.keys()
        for key in want:
            assert close(got[key], want[key]), (key, got[key], want[key])
    for f, (_, _, lhs, rhs) in zip(rep.failures, failures):
        assert close(f["lhs"], lhs) and close(f["rhs"], rhs), f


def test_declared_constants_additive_pme():
    dom = SpectralDomain(32)
    noise = NoiseSpec(sigma=(0.1, 0.05))
    d = declared_constants(dom, pme_spec(), noise)
    assert d["c_h2"] == 0.0
    assert d["c2"] == 2.0 and d["c1"] == 2.0
    assert d["f_h3"] == pytest.approx(d["hs0_sq"])
    assert d["c3"] == 1.0
    d2 = declared_constants(
        dom, DriftSpec(psi=pme_spec().psi, phi=PhiSpec(), mode="A1", f_const=0.7), noise
    )
    assert d2["f_h3"] == pytest.approx(0.7 + d["hs0_sq"])


# ---------------------------------------------------------------------------
# Structural inequalities behind the estimates
# ---------------------------------------------------------------------------


def test_dual_domination_of_psi():
    # N*(c^{-1} Psi(s)) <= N(s) for the exact power-sum family (c=1, f=0).
    spec = PsiSpec(terms=((1.0, 1.0), (1.0, 3.0)))
    young = spec.young()
    dual = young_dual(young)
    for s in np.geomspace(1e-3, 1e2, 41):
        assert dual(psi_eval(spec, 0.0, s)) <= young(s) * (1 + 1e-9) + 1e-12


def test_dual_domination_modulated():
    mod = TimeModulation(func=lambda t: 1.0 + t, a_min=1.0, a_max=2.0)
    spec = PsiSpec(terms=((1.0, 2.0),), modulation=mod)
    young = spec.young()
    dual = young_dual(young)
    c = spec.a_max / spec.a_min
    for t in (0.0, 0.5, 1.0):
        for s in np.geomspace(1e-2, 1e2, 25):
            assert dual(psi_eval(spec, t, s) / c) <= young(s) * (1 + 1e-9) + 1e-12


def test_dual_bound_for_phi0():
    # N*(Phi_0(s)) <= c_tilde N(s) for Phi_0 = kappa s against N(s) = s^2 + s^4.
    # From N >= N_1 = s^2 and scaling duality, N*(kappa s) <= kappa^2 s^2 / 4
    # (c_1 = 1/4 for the quadratic term), with equality as s -> 0.
    dom = SpectralDomain(64)
    spec = a2_spec(dom)
    dual = young_dual(spec.psi.young())
    young = spec.psi.young()
    kappa = spec.phi.phi0_terms[0][0]
    c_tilde = 0.25 * kappa**2
    grid = np.geomspace(1e-3, 1e2, 41)
    ratios = np.array([dual(kappa * s) / young(s) for s in grid])
    assert np.all(ratios <= c_tilde * (1 + 1e-9))
    assert ratios[0] >= 0.9 * c_tilde  # tight in the small-signal regime


def test_R_midpoint_bound():
    # R(x+y) <= (R(2x) + R(2y)) / 2 by convexity of N and the parallelogram gap.
    dom = SpectralDomain(24)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
    rng = np.random.default_rng(77)
    xs, ys = [], []
    for _ in range(300):
        xs.append(dom.to_spectral(rng.normal(0, 1.2, 24)))
        ys.append(dom.to_spectral(rng.normal(0, 0.8, 24)))
    x, y = np.array(xs), np.array(ys)

    def R(C):  # the ensemble observable R = m(N(.)) + |.|_H^2, row by row
        return _Observables(dom, spec, 0.0, C, None)["R"]

    lhs = R(x + y)
    rhs = 0.5 * (R(x * 2.0) + R(y * 2.0))
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_monotone_pairing_argument_level():
    # For monotone Psi with Phi_0 = 0 the drift-difference pairing splits into
    # a nonpositive part and the h-part, each testable per sample.
    dom = SpectralDomain(32)
    spec = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(h_const=0.3),
                     mode="A1")
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = Field.from_values(dom, rng.normal(0, 1, 32))
        v = Field.from_values(dom, rng.normal(0, 1, 32))
        diff = u - v
        dpsi = psi_eval(spec.psi, 0.0, u.values) - psi_eval(spec.psi, 0.0, v.values)
        mono_part = -dom.integrate(dpsi * diff.values)
        assert mono_part <= 1e-12
        pairing = dom.h_pair(drift_coeffs(dom, spec, 0.0, u.values, u.coeffs)
                             - drift_coeffs(dom, spec, 0.0, v.values, v.coeffs), diff.coeffs)
        assert pairing <= 0.3 * h_norm(dom, diff) ** 2 + 1e-10


def test_condition_report_row():
    rep = check_A1(pme_spec())
    row = rep.to_row()
    assert row["report"] == "A1" and row["passed"] == 1
    assert isinstance(row["const_c"], float)
    assert "margin_psi1" in row and row["n_failures"] == 0
