"""Nonlinearities, the assembled drift, and numeric condition certificates.

The drift of the evolution is ``A(t, v) = L Psi(t, v) + h_t v + Phi_0(t, v)``
read in H-coordinates: mode k of ``A`` is

    A_k = -lam_k * (Psi(t, v))_k + h_t * v_k + (Phi_0(t, v))_k ,

which realises the functional u -> -m(Psi(t,v) u) + h_t <v,u>_H - m(Phi_0(t,v) L^{-1} u)
through the H-inner product (the second form is checked against the first in
the test suite, coordinate by coordinate in the H-orthonormal basis
``sqrt(lam_j) s_j``).

Two certification regimes are supported.  In mode "A1" the scalar map
``Psi(t, .)`` must be nondecreasing and sandwiched by its Young function
``N(s) = s Psi(s)`` (up to a constant c and additive slack f), and the lower
perturbation is purely linear, ``Phi = h_t s``.  Mode "A2" restricts ``N`` to
a power sum ``sum_i eps_i |s|^(r_i+1)`` but in exchange admits a genuinely
nonlinear perturbation ``Phi_0`` controlled through the operator norms of
``L^{-1}`` on the L^p spaces matching each exponent.

Closed form: the sandwich (c, f) = (a_max/a_min, 0), as ``PsiSpec.young`` is
a_min s Psi_0(s); Psi4, N*(Psi(t, 0)) = 0; the doubling constants of N and N*;
the proven bounds on the L^p norms of ``L^{-1}`` (``linv_op_norm``).  Sampled,
with worst-case margins: monotonicity and the ``Phi_0`` bound on a fixed scalar
log grid, and the H conditions on 1000 random field pairs with Gaussian spectral
decay from a fixed seed; time-dependent specs at 7 points of [0, 1].  Between
those points a run guards the modulation itself: ``TimeModulation`` refuses an
a(t) off its bounds at every time a run evaluates it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .noise import NoiseSpec, hs0_sq
from .orlicz import LogPowerYoung, PowerSumYoung, YoungFunctionError
from .triple import SpectralDomain

_S_POS = np.geomspace(1e-4, 1e4, 81)
_S_GRID = np.concatenate([-_S_POS[::-1], [0.0], _S_POS])
_H_PAIRS = 1000
#: Slack of the modulation bounds: a(t) may exceed [a_min, a_max] by this much.
_A_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Drift specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeModulation:
    """Bounded positive time factor a(t) with declared bounds 0 < a_min <= a_max.

    Calling it raises ``ValueError`` where a(t) is not finite or leaves the
    bounds, so no run evaluates Psi off them: the closed-form sandwich
    constant a_max/a_min holds at every time a run reaches.
    """

    func: Callable[[float], float]
    a_min: float
    a_max: float

    def __post_init__(self):
        if not (0.0 < self.a_min <= self.a_max) or not math.isfinite(self.a_max):
            raise ValueError("need 0 < a_min <= a_max < inf")

    def __call__(self, t: float) -> float:
        a_t = float(self.func(t))
        if not (self.a_min - _A_SLACK <= a_t <= self.a_max + _A_SLACK):
            raise ValueError(f"modulation a(t) = {a_t!r} at t = {float(t)!r} lies outside "
                             f"its bounds [{self.a_min!r}, {self.a_max!r}]")
        return a_t


class _SampledModulation(TimeModulation):
    """a(t) as ``func`` gives it, off the bounds too, for the checkers to report."""

    def __call__(self, t: float) -> float:
        return float(self.func(t))


@dataclass(frozen=True)
class PsiSpec:
    """The scalar diffusion nonlinearity.

    Exactly one of two shapes:
      * power sum: terms ((coeff_i, r_i), ...) meaning
        Psi(s) = sign(s) * sum_i coeff_i |s|^{r_i}; coefficients may be
        negative so that failing candidates can be fed to the checkers,
        but the associated Young function only exists for positive ones;
      * log power: (theta, r) meaning
        Psi(s) = sign(s) |s|^{theta-1} log(1+|s|)^r, theta > 1, r >= 1.

    An optional modulation multiplies Psi by a(t); the associated Young
    function is then scaled by a_min so the lower sandwich bound survives.
    """

    terms: tuple = ()
    log_power: tuple | None = None
    modulation: TimeModulation | None = None

    def __post_init__(self):
        terms = tuple((float(c), float(r)) for c, r in self.terms)
        object.__setattr__(self, "terms", terms)
        if self.log_power is not None:
            if terms:
                raise ValueError("give either power-sum terms or log_power, not both")
            theta, r = (float(x) for x in self.log_power)
            if not (theta > 1.0 and r >= 1.0):
                raise ValueError("log_power needs theta > 1 and r >= 1")
            object.__setattr__(self, "log_power", (theta, r))
        for c, r in terms:
            if c == 0.0 or not math.isfinite(c) or r <= 0.0:
                raise ValueError("power-sum terms need coeff != 0 and exponent > 0")
        exps = [r for _, r in terms]
        if len(set(exps)) != len(exps):
            raise ValueError("power-sum exponents must be pairwise distinct")
        # Psi'(s) = sum_i c_i r_i |s|^(r_i - 1), its terms built once for psi_prime;
        # a term with r_i < 1 divides by zero at s = 0.
        object.__setattr__(self, "_prime_terms", tuple((c * r, r - 1.0) for c, r in terms))
        object.__setattr__(self, "_prime_singular", any(r < 1.0 for r in exps))

    @property
    def a_min(self) -> float:
        return 1.0 if self.modulation is None else self.modulation.a_min

    @property
    def a_max(self) -> float:
        return 1.0 if self.modulation is None else self.modulation.a_max

    def a_at(self, t: float) -> float:
        return 1.0 if self.modulation is None else self.modulation(t)

    @property
    def sandwich_c(self) -> float:
        """c in N(s) <= s Psi(t, s) <= c N(s): young() scales by a_min, a(t) <= a_max."""
        return self.a_max / self.a_min

    def young(self):
        """The Young function N with s*Psi(t,s) >= N(s); None when Psi == 0."""
        if self.log_power is not None:
            theta, r = self.log_power
            return LogPowerYoung(theta=theta, power=r, coeff=self.a_min)
        if not self.terms:
            return None
        if any(c <= 0.0 for c, _ in self.terms):
            raise YoungFunctionError(
                "mixed-sign power sums do not define a Young function"
            )
        return PowerSumYoung(
            coeffs=tuple(self.a_min * c for c, _ in self.terms),
            exponents=tuple(r + 1.0 for _, r in self.terms),
        )

    @property
    def is_time_dependent(self) -> bool:
        return self.modulation is not None


@dataclass(frozen=True)
class PhiSpec:
    """Lower-order perturbation Phi(t, s) = h_t s + sum_i eps_i sign(s)|s|^{r_i}."""

    h_const: float = 0.0
    h_func: Callable[[float], float] | None = None
    h_sup: float | None = None
    phi0_terms: tuple = ()

    def __post_init__(self):
        if (self.h_func is None) != (self.h_sup is None):
            raise ValueError("give h_sup exactly when h is time-varying (h_func)")
        if self.h_sup is not None and not self.h_sup >= 0.0:
            raise ValueError("a time-varying h needs a declared h_sup >= 0")
        terms = tuple((float(c), float(r)) for c, r in self.phi0_terms)
        for c, r in terms:
            if c <= 0.0 or not math.isfinite(c) or r <= 0.0:
                raise ValueError("phi0 terms need coeff > 0 and exponent > 0")
        object.__setattr__(self, "phi0_terms", terms)

    def h_at(self, t: float) -> float:
        return float(self.h_func(t)) if self.h_func is not None else self.h_const

    @property
    def sup_h(self) -> float:
        return float(self.h_sup) if self.h_func is not None else abs(self.h_const)

    @property
    def is_time_dependent(self) -> bool:
        return self.h_func is not None


@dataclass(frozen=True)
class DriftSpec:
    """A full drift: diffusion nonlinearity, perturbation, slack constants, mode.

    f_const and g_const are user slack for the coercivity and growth
    inequalities (deterministic stand-ins for the adapted slack processes).
    """

    psi: PsiSpec
    phi: PhiSpec
    mode: str = "A1"
    f_const: float = 0.0
    g_const: float = 0.0

    def __post_init__(self):
        if self.mode not in ("A1", "A2"):
            raise ValueError("mode must be 'A1' or 'A2'")
        if self.f_const < 0.0 or self.g_const < 0.0:
            raise ValueError("slack constants must be >= 0")
        if self.mode == "A1":
            if self.phi.phi0_terms:
                raise ValueError("mode A1 admits only the linear perturbation h_t s")
        else:
            if self.psi.log_power is not None or not self.psi.terms:
                raise ValueError("mode A2 needs a power-sum diffusion nonlinearity")
            if any(c <= 0.0 for c, _ in self.psi.terms):
                raise ValueError("mode A2 needs positive power-sum coefficients")
            psi_exps = {r for _, r in self.psi.terms}
            if any(r < 1.0 for r in psi_exps):
                raise ValueError(
                    "fast-diffusion exponents (r < 1) are unsupported in mode A2; "
                    "use mode A1 with Phi_0 == 0"
                )
            for _, r in self.phi.phi0_terms:
                if r not in psi_exps:
                    raise ValueError(
                        f"phi0 exponent {r} has no matching diffusion term"
                    )

    @property
    def is_time_dependent(self) -> bool:
        return self.psi.is_time_dependent or self.phi.is_time_dependent


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def _power_sum(terms, a):
    """sum_i c_i a**r_i over the (c_i, r_i) in terms, bitwise a sum begun at 0.0.

    A coefficient 1.0 is not multiplied in: x * 1.0 is x.
    """
    if not terms:
        return np.zeros_like(a)
    (c, r), *rest = terms
    out = a**r if c == 1.0 else c * a**r
    if not c > 0.0:
        out += 0.0  # 0.0 + (-0.0) is +0.0
    for c, r in rest:
        out += a**r if c == 1.0 else c * a**r
    return out


def psi_eval(spec: PsiSpec, t: float, s):
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    if spec.log_power is not None:
        theta, r = spec.log_power
        out = a ** (theta - 1.0) * np.log1p(a) ** r
    else:
        out = _power_sum(spec.terms, a)
    if spec.modulation is None:  # a(t) == 1.0 multiplies nothing
        return np.sign(s) * out
    return spec.a_at(t) * np.sign(s) * out


def psi_prime(spec: PsiSpec, t: float, s):
    """d Psi(t, .)/ds; +inf where a fast-diffusion term is singular (s=0)."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    if spec.log_power is not None:
        theta, r = spec.log_power
        out = np.zeros_like(a)
        pos = a > 0.0
        ap = a[pos]
        out[pos] = (theta - 1.0) * ap ** (theta - 2.0) * np.log1p(ap) ** r + ap ** (
            theta - 1.0
        ) * r * np.log1p(ap) ** (r - 1.0) / (1.0 + ap)
    else:
        with np.errstate(divide="ignore") if spec._prime_singular else nullcontext():
            out = _power_sum(spec._prime_terms, a)
    return out if spec.modulation is None else spec.a_at(t) * out


def psi_prime_max(spec: PsiSpec, t: float, s_max: float) -> float:
    """sup |Psi'(t, .)| over [-s_max, s_max], by dense probing (inf if singular)."""
    if not spec.terms and spec.log_power is None:
        return 0.0
    grid = np.linspace(0.0, max(s_max, 1e-300), 512)
    grid = np.concatenate([grid, np.geomspace(1e-12, max(s_max, 1e-12), 64)])
    return float(np.max(psi_prime(spec, t, grid)))


def phi0_eval(spec: PhiSpec, s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    a = np.abs(s)
    for c, r in spec.phi0_terms:
        out += c * a**r
    return np.sign(s) * out


# ---------------------------------------------------------------------------
# Drift assembly
# ---------------------------------------------------------------------------


def drift_coeffs(
    dom: SpectralDomain, spec: DriftSpec, t: float, values: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Spectral coefficients of A(t, X); batched over leading axes."""
    out = -dom.lam * dom.to_spectral(psi_eval(spec.psi, t, values))
    h_t = spec.phi.h_at(t)
    if h_t != 0.0:
        out += h_t * coeffs
    if spec.phi.phi0_terms:
        out += dom.to_spectral(phi0_eval(spec.phi, values))
    return out


def young_modular(dom: SpectralDomain, psi: PsiSpec, values: np.ndarray) -> np.ndarray:
    """m(N(v)) under the grid measure; batched; 0 when Psi == 0."""
    ny = psi.young()
    if ny is None:
        return np.zeros(np.shape(values)[:-1])
    return dom.h * ny(values).sum(axis=-1)


# ---------------------------------------------------------------------------
# Operator norm of L^{-1} on L^p
# ---------------------------------------------------------------------------


def linv_op_norm(dom: SpectralDomain, p: float) -> float:
    """Proven upper bound on the L^p -> L^p operator norm of L^{-1}, p >= 1.

    With the sine basis B, G = h B diag(1/lam) B is the grid matrix of
    L^{-1}, symmetric under the uniform weights h, and entrywise positive: -Delta_h is an M-matrix, so
    (t - Delta_h)^{-1} >= 0 for t >= 0, and Balakrishnan's formula
    (-Delta_h)^{-alpha} = sin(pi alpha)/pi int_0^inf t^{-alpha} (t - Delta_h)^{-1} dt
    keeps that for alpha < 1.  Its L^1 and L^inf norms are then the Schur
    constant S = max_i sum_j |G_ij| = max_i (L^{-1} 1)_i, its L^2 norm is
    exactly 1/lam_1, and Riesz-Thorin between them gives
    ||G||_p <= S^theta lam_1^(theta-1) with theta = |1 - 2/p|.
    """
    theta = abs(1.0 - 2.0 / p)
    schur = dom.from_spectral(dom.to_spectral(np.ones(dom.n_grid)) / dom.lam).max()
    return float(schur**theta / dom.lam[0] ** (1.0 - theta))


def monotonicity_constants(psi: PsiSpec) -> tuple:
    """((delta_i, r_i), ...) with (Psi(b)-Psi(a))(b-a) >= sum_i delta_i |b-a|^{r_i+1}.

    For a positive power sum the classical lower bound gives
    delta_i = coeff_i * 2^{1-r_i} (exact for r_i = 1), scaled by a_min.
    """
    return tuple((psi.a_min * c * 2.0 ** (1.0 - r), r) for c, r in psi.terms)


def implied_eps(dom: SpectralDomain, spec: DriftSpec, norms: dict | None = None) -> float:
    """Smallest budget fraction eps consistent with the phi0 coefficients.

    ``norms`` maps an exponent r to ``linv_op_norm(dom, r + 1)`` where the
    caller already holds it; a missing one is computed.
    """
    if not spec.phi.phi0_terms:
        return 0.0
    norms = norms or {}
    young_coeff = {r: spec.psi.a_min * c for c, r in spec.psi.terms}
    return max(
        c * (norms[r] if r in norms else linv_op_norm(dom, r + 1.0)) / young_coeff[r]
        for c, r in spec.phi.phi0_terms
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    constants: dict
    margins: dict
    failures: tuple = ()
    n_samples: int = 0

    def to_row(self) -> dict:
        row = {"report": self.name, "passed": int(self.passed), "n_samples": self.n_samples}
        for k, v in self.constants.items():
            row[f"const_{k}"] = v
        for k, v in self.margins.items():
            row[f"margin_{k}"] = v
        row["n_failures"] = len(self.failures)
        if self.failures:
            row["first_failure"] = self.failures[0]["condition"]
        return row


def _pair_samples():
    """Structured + 2000 random (s1, s2) pairs from the scalar grid."""
    rng, g = np.random.default_rng(0), _S_GRID
    s1 = [g[:-1], -g, np.zeros_like(g)]
    s2 = [g[1:], g, g]
    i = rng.integers(0, g.size, size=2000)
    j = rng.integers(0, g.size, size=2000)
    s1.append(g[i])
    s2.append(g[j])
    a, b = np.concatenate(s1), np.concatenate(s2)
    keep = a != b
    return a[keep], b[keep]


def _t_samples(spec: DriftSpec) -> np.ndarray:
    if spec.is_time_dependent:
        return np.linspace(0.0, 1.0, 7)
    return np.array([0.0])


def _modulation_within_bounds(spec: DriftSpec, ts, failures) -> DriftSpec:
    """Record a(t) and h_t off their bounds at the times ts; return spec to sample.

    The returned spec reads a(t) unchecked, so a checker evaluates a
    modulation that leaves its bounds and reports it where a run refuses it.
    """
    mod = spec.psi.modulation
    if mod is not None:
        mod = _SampledModulation(mod.func, mod.a_min, mod.a_max)
        spec = replace(spec, psi=replace(spec.psi, modulation=mod))
        for t in ts:
            a_t = mod(t)
            if not (mod.a_min - _A_SLACK <= a_t <= mod.a_max + _A_SLACK):
                failures.append(
                    {"condition": "modulation-bounds", "sample": float(t),
                     "lhs": a_t, "rhs": mod.a_max}
                )
    if spec.phi.h_func is not None:
        for t in ts:
            if abs(spec.phi.h_at(t)) > spec.phi.sup_h + 1e-12:
                failures.append(
                    {"condition": "h-bound", "sample": float(t),
                     "lhs": abs(spec.phi.h_at(t)), "rhs": spec.phi.sup_h}
                )
    return spec


def check_A1(spec: DriftSpec) -> ConditionReport:
    """Certify monotonicity by sampling; state the sandwich in closed form.

    With a Young function N: c = a_max/a_min, f = 0, ``psi4_dual_at_zero`` =
    N*(Psi(t, 0)) = 0, and the doubling constants ``delta2_N``, ``delta2_Nstar``.
    """
    if spec.mode != "A1":
        raise ValueError("check_A1 requires a mode-A1 spec")
    ts = _t_samples(spec)
    failures: list = []
    spec = _modulation_within_bounds(spec, ts, failures)

    s1, s2 = _pair_samples()
    mono_margin = math.inf
    for t in ts:
        p1, p2 = psi_eval(spec.psi, t, s1), psi_eval(spec.psi, t, s2)
        lhs = (s2 - s1) * (p2 - p1)
        scale = 1.0 + np.abs(s2 - s1) * (np.abs(p2) + np.abs(p1))
        worst = int(np.argmin(lhs / scale))
        mono_margin = min(mono_margin, float(lhs[worst] / scale[worst]))
        if lhs[worst] < -1e-12 * scale[worst]:
            failures.append(
                {"condition": "psi1", "sample": (float(s1[worst]), float(s2[worst])),
                 "lhs": float(lhs[worst]), "rhs": 0.0}
            )

    constants: dict = {}
    young = None
    if not failures:
        try:
            young = spec.psi.young()
        except YoungFunctionError as exc:
            failures.append(
                {"condition": "young-construction", "sample": str(exc),
                 "lhs": math.nan, "rhs": math.nan}
            )
    if young is not None:
        constants.update(c=spec.psi.sandwich_c, f=0.0)
        constants["delta2_N"], constants["delta2_Nstar"] = young.delta2_constants()
        constants["psi4_dual_at_zero"] = 0.0  # every PsiSpec has Psi(t, 0) = 0, and N*(0) = 0
    elif not failures:
        constants.update(c=1.0, f=0.0)  # Psi == 0: sandwich with N == 0

    return ConditionReport(
        name="A1",
        passed=not failures,
        constants=constants,
        margins={"psi1": mono_margin},
        failures=tuple(failures),
        n_samples=s1.size * ts.size,
    )


def check_A2(spec: DriftSpec, dom: SpectralDomain) -> ConditionReport:
    """Certify the quantified monotonicity and perturbation budget of mode A2.

    Like check_A1, the report states c, f, ``delta2_N`` and ``delta2_Nstar``
    in closed form.
    """
    if spec.mode != "A2":
        raise ValueError("check_A2 requires a mode-A2 spec")
    ts = _t_samples(spec)
    failures: list = []
    spec = _modulation_within_bounds(spec, ts, failures)

    deltas = monotonicity_constants(spec.psi)
    s1, s2 = _pair_samples()
    gap = np.abs(s2 - s1)
    rhs_mono = np.zeros_like(gap)
    for d, r in deltas:
        rhs_mono += d * gap ** (r + 1.0)
    mono_margin = math.inf
    for t in ts:
        lhs = (s2 - s1) * (psi_eval(spec.psi, t, s2) - psi_eval(spec.psi, t, s1))
        rel = (lhs - rhs_mono) / (1.0 + np.abs(lhs) + rhs_mono)
        worst = int(np.argmin(rel))
        mono_margin = min(mono_margin, float(rel[worst]))
        if rel[worst] < -1e-12:
            failures.append(
                {"condition": "psi1-prime",
                 "sample": (float(s1[worst]), float(s2[worst])),
                 "lhs": float(lhs[worst]), "rhs": float(rhs_mono[worst])}
            )

    constants = {"c": spec.psi.sandwich_c, "f": 0.0}
    constants["delta2_N"], constants["delta2_Nstar"] = spec.psi.young().delta2_constants()
    for idx, (d, r) in enumerate(deltas, start=1):
        constants[f"delta_{idx}"] = d
    margins = {"psi1_prime": mono_margin}

    # Perturbation checks against the proven inverse-operator norm bounds.
    norms = {r: linv_op_norm(dom, r + 1.0) for _, r in spec.psi.terms}
    for r, v in norms.items():
        constants[f"linv_op_norm_p{r + 1:g}"] = v
    if spec.phi.phi0_terms:
        rhs_phi1 = np.zeros_like(gap)
        for d, r in deltas:
            rhs_phi1 += d / norms[r] * gap**r
        lhs_phi1 = np.abs(phi0_eval(spec.phi, s2) - phi0_eval(spec.phi, s1))
        rel = (rhs_phi1 - lhs_phi1) / (1.0 + lhs_phi1 + rhs_phi1)
        worst = int(np.argmin(rel))
        margins["phi1"] = float(rel[worst])
        if rel[worst] < -1e-12:
            failures.append(
                {"condition": "phi1", "sample": (float(s1[worst]), float(s2[worst])),
                 "lhs": float(lhs_phi1[worst]), "rhs": float(rhs_phi1[worst])}
            )
        eps = implied_eps(dom, spec, norms)
        constants["eps_implied"] = eps
        margins["phi2"] = 1.0 - eps
        if eps >= 1.0:
            failures.append(
                {"condition": "phi2", "sample": "budget", "lhs": eps, "rhs": 1.0}
            )
    else:
        constants["eps_implied"] = 0.0
        margins["phi1"] = math.inf
        margins["phi2"] = 1.0

    return ConditionReport(
        name="A2",
        passed=not failures,
        constants=constants,
        margins=margins,
        failures=tuple(failures),
        n_samples=s1.size * ts.size,
    )


# ---------------------------------------------------------------------------
# Monotonicity / coercivity / growth on random fields
# ---------------------------------------------------------------------------


def declared_constants(dom: SpectralDomain, spec: DriftSpec, noise: NoiseSpec,
                       eps: float | None = None) -> dict:
    """The constants the inequalities are certified against.

    ``eps`` is ``implied_eps(dom, spec)`` where the caller already holds it
    (the A2 report's ``eps_implied``); None computes it.

    Derivation sketch (all state-free bounds):
      * weak monotonicity: drift difference pairing <= sup|h| |u-v|_H^2 and
        the diffusion difference is (L_rho HS0)^2 |u-v|_H^2, so
        c = 2 sup|h| + (L_rho HS0)^2;
      * coercivity: 2<A(v),v> <= -2(1-eps) m(N(v)) + 2 f_psi m(E)
        + 2 sup|h| |v|_H^2, and |B(v)|_HS^2 <= rho_max^2 HS0^2, giving
        c2 = 2(1-eps), c1 = 2 sup|h| + c2,
        f = f_const + 2 f_psi m(E) + rho_max^2 HS0^2;
      * growth: |<A(v),u>| <= (c+eps)(m(N(v))+m(N(u)))
        + (sup|h|/2)(|v|^2+|u|^2) + 3 c f_psi m(E), giving
        c3 = c + eps + sup|h|/2 and g = g_const + 3 c f_psi m(E).
    The certified families satisfy the sandwich exactly (f_psi = 0), so the
    psi-level slack enters only through the declared f_const/g_const.
    """
    sup_h = spec.phi.sup_h
    hs0 = hs0_sq(noise, dom)
    lip_b_sq = (noise.lipschitz * math.sqrt(hs0)) ** 2
    rho_max = 1.0 if noise.mult is None else noise.mult.rho_max
    if eps is None:
        eps = implied_eps(dom, spec)
    c_psi3 = spec.psi.sandwich_c
    c2 = 2.0 * (1.0 - eps)
    return {
        "sup_h": sup_h,
        "hs0_sq": hs0,
        "m_E": dom.measure().total_mass,
        "eps": eps,
        "c_psi3": c_psi3,
        "c_h2": 2.0 * sup_h + lip_b_sq,
        "c1": 2.0 * sup_h + c2,
        "c2": c2,
        "f_h3": spec.f_const + rho_max**2 * hs0,
        "c3": c_psi3 + eps + 0.5 * sup_h,
        "g_h4": spec.g_const,
    }


def _random_fields(dom: SpectralDomain, rng, n) -> np.ndarray:
    """n coefficient rows with Gaussian spectral decay k^-1.5 at random scales."""
    k = np.arange(1, dom.n_grid + 1, dtype=float)
    scale = 10.0 ** rng.uniform(-2.0, 1.0, size=(n, 1))
    return rng.normal(0.0, 1.0, size=(n, dom.n_grid)) * k**-1.5 * scale


def _hemicontinuity_ratio(dom, spec, u, v, x, t) -> tuple:
    def sweep(n_pts):
        W = u + np.linspace(-1.0, 1.0, n_pts)[:, None] * v
        vals = dom.h_pair(drift_coeffs(dom, spec, t, dom.from_spectral(W), W), x)
        return float(np.max(np.abs(np.diff(vals)))), float(np.max(np.abs(vals)))

    coarse, scale = sweep(41)
    fine, _ = sweep(81)
    return coarse, fine, scale


def check_H(dom: SpectralDomain, spec: DriftSpec, noise: NoiseSpec,
            declared: dict | None = None) -> ConditionReport:
    """Empirically certify hemicontinuity, weak monotonicity, coercivity, growth.

    The samples are 1000 random field pairs (u_i, v_i), pair i taken at time
    ``ts[i % len(ts)]``; they are evaluated as coefficient rows, one batch per
    sampled time.  ``declared`` is ``declared_constants(dom, spec, noise)``
    where the caller already holds it; None computes it.
    """
    rng = np.random.default_rng(0)
    ts = _t_samples(spec)
    if declared is None:
        declared = declared_constants(dom, spec, noise)
    failures: list = []
    spec = _modulation_within_bounds(spec, ts, failures)

    UV = np.stack([_random_fields(dom, rng, _H_PAIRS), _random_fields(dom, rng, _H_PAIRS)])
    values = dom.from_spectral(UV)
    A = np.empty_like(UV)
    for j, t in enumerate(ts):
        rows = slice(j, None, ts.size)
        A[:, rows] = drift_coeffs(dom, spec, float(t), values[:, rows], UV[:, rows])
    (U, V), (AU, AV) = UV, A
    hn_sq = dom.h_pair(UV, UV)
    r_u, r_v = young_modular(dom, spec.psi, values) + hn_sq
    rho_u, rho_v = (1.0, 1.0) if noise.mult is None else noise.mult(np.sqrt(hn_sq))
    hs0 = declared["hs0_sq"]
    D = U - V
    duv = dom.h_pair(D, D)
    # Weak monotonicity of the pair, coercivity at v, growth of <A(v), u>.
    lhs2 = 2.0 * dom.h_pair(AU - AV, D) + (rho_u - rho_v) ** 2 * hs0
    rhs2 = declared["c_h2"] * duv
    lhs3 = 2.0 * dom.h_pair(AV, V) + rho_v**2 * hs0
    rhs3 = declared["c1"] * hn_sq[1] - declared["c2"] * r_v + declared["f_h3"]
    lhs4 = np.abs(dom.h_pair(AV, U))
    rhs4 = declared["g_h4"] + declared["c3"] * (r_v + r_u)
    scale3 = 1.0 + np.abs(lhs3) + np.abs(rhs3)
    scale4 = 1.0 + np.abs(lhs4) + np.abs(rhs4)
    checks = (("h2", lhs2, rhs2, lhs2 > rhs2 + 1e-9 * (1.0 + np.abs(lhs2))),
              ("h3", lhs3, rhs3, lhs3 > rhs3 + 1e-9 * scale3),
              ("h4", lhs4, rhs4, lhs4 > rhs4 + 1e-9 * scale4))
    # Row-major order of the (sample, check) table: by sample, then h2, h3, h4.
    for i, c in zip(*np.nonzero(np.column_stack([bad for *_, bad in checks]))):
        name, lhs, rhs, _ = checks[c]
        failures.append({"condition": name, "sample": int(i), "lhs": float(lhs[i]),
                         "rhs": float(rhs[i])})
    c_emp = float(np.max(lhs2 / duv))

    # Hemicontinuity: refinement of the line sweep must shrink the jumps.
    h1_ratio = 0.0
    for trial in range(3):
        u, v, x = _random_fields(dom, rng, 3)
        t = float(ts[trial % ts.size])
        coarse, fine, scale = _hemicontinuity_ratio(dom, spec, u, v, x, t)
        if coarse <= 1e-12 * (1.0 + scale):
            continue
        h1_ratio = max(h1_ratio, fine / coarse)
        if fine > 0.75 * coarse:
            failures.append(
                {"condition": "h1", "sample": trial, "lhs": fine, "rhs": 0.75 * coarse}
            )

    constants = dict(declared)
    constants["c_emp_h2"] = c_emp
    margins = {
        "h1": 0.75 - h1_ratio,
        "h2": declared["c_h2"] - c_emp,
        "h3": float(np.min((rhs3 - lhs3) / scale3)),
        "h4": float(np.min((rhs4 - lhs4) / scale4)),
    }
    return ConditionReport(
        name="H",
        passed=not failures,
        constants=constants,
        margins=margins,
        failures=tuple(failures),
        n_samples=_H_PAIRS,
    )
