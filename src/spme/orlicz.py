"""Young functions, convex duals, Delta_2 constants, and Luxemburg norms.

A Young function here is an even, convex, continuous N: R -> [0, inf] with
N(0) = 0 that is superlinear at both ends:

    N(s)/s -> 0   as s -> 0,        N(s)/s -> inf  as s -> inf.

The convex dual is

    N*(s) = sup_{r >= 0} ( r|s| - N(r) ),

and on a finite discrete measure m with weights w_i > 0 the Luxemburg norm of
a sample vector f is

    ||f||_N = inf{ lam > 0 : m(N(f/lam)) <= 1 },   m(g) = sum_i w_i g_i.

The test suite holds the Luxemburg norms to the Hoelder inequality

    m(|f g|) <= 2 ||f||_N ||g||_{N*}.

Two families are provided, the two that a diffusion nonlinearity can build:
finite sums of pure powers N(s) = sum_i c_i |s|^{p_i} with p_i > 1, and the
logarithmically perturbed powers N(s) = c |s|^theta log(1+|s|)^r.  Both are
globally Delta_2 together with their duals, N(2s) <= C_N N(s) and
N*(2s) <= C_N* N*(s) for every s with no additive term, so the doubling
condition holds on any sigma-finite measure.  ``delta2_constants`` gives
(C_N, C_N*) in closed form, and the A1 and A2 condition reports carry them as
``delta2_N`` and ``delta2_Nstar``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "YoungFunctionError",
    "DiscreteMeasure",
    "PowerSumYoung",
    "LogPowerYoung",
    "DualYoung",
    "young_dual",
    "dual_eval",
    "luxemburg_norm",
]


class YoungFunctionError(ValueError):
    """A function (or parameter set) violates a Young-function requirement."""


# ---------------------------------------------------------------------------
# discrete measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite positive measure on sample points, m(g) = sum_i w_i g_i."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(w > 0):
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape:
            raise ValueError("value array does not match measure support")
        return float(values @ self.weights)


# ---------------------------------------------------------------------------
# Young function families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSumYoung:
    """N(s) = sum_i coeffs[i] * |s|**exponents[i], every exponent > 1."""

    coeffs: tuple[float, ...]
    exponents: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        exponents = tuple(float(p) for p in self.exponents)
        if len(coeffs) != len(exponents) or not coeffs:
            raise YoungFunctionError("coeffs and exponents must be nonempty, equal length")
        if any(c <= 0 for c in coeffs):
            raise YoungFunctionError("power-sum coefficients must be positive")
        if any(p <= 1 for p in exponents):
            raise YoungFunctionError("power-sum exponents must exceed 1 (superlinearity)")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exponents", exponents)

    def __call__(self, s):
        a = np.abs(np.asarray(s, dtype=float))
        out = np.zeros_like(a)
        for c, p in zip(self.coeffs, self.exponents):
            out += c * a**p
        return out if out.ndim else float(out)

    def single_power(self):
        """Return (coeff, exponent) when the sum has one term, else None."""
        if len(self.coeffs) == 1:
            return self.coeffs[0], self.exponents[0]
        return None

    def delta2_constants(self) -> tuple[float, float]:
        """Global doubling constants (C_N, C_N*) of N and of its dual N*.

        N(2s) = sum_i c_i 2^{p_i} |s|^{p_i} <= 2^{p_max} N(s), so C_N = 2^{p_max}.

        For the dual let p = p_min.  Every term has s N'(s) = p_i N_i(s), so
        s N'(s) >= p N(s); integrating d log N / d log s >= p from s to lam s
        gives N(lam s) >= lam^p N(s) for lam >= 1.  With lam = 2^{1/(p-1)},
        substituting r = lam u,

            N*(2t) = sup_u (2 lam t u - N(lam u))
                  <= lam^p sup_u (2 lam^{1-p} t u - N(u)) = lam^p N*(t),

        since 2 lam^{1-p} = 1.  So C_N* = lam^p = 2^{p/(p-1)}.  Neither bound
        has an additive term, and both are equalities for a single power.
        """
        p_min = min(self.exponents)
        return 2.0 ** max(self.exponents), 2.0 ** (p_min / (p_min - 1.0))


@dataclass(frozen=True)
class LogPowerYoung:
    """N(s) = coeff * |s|**theta * log(1+|s|)**power, theta > 1, power >= 1."""

    theta: float
    power: float
    coeff: float = 1.0

    def __post_init__(self):
        if self.theta <= 1:
            raise YoungFunctionError("theta must exceed 1")
        if self.power < 1:
            raise YoungFunctionError("log power must be >= 1")
        if self.coeff <= 0:
            raise YoungFunctionError("coefficient must be positive")

    def __call__(self, s):
        a = np.abs(np.asarray(s, dtype=float))
        out = self.coeff * a**self.theta * np.log1p(a) ** self.power
        return out if out.ndim else float(out)

    def single_power(self):
        return None

    def delta2_constants(self) -> tuple[float, float]:
        """Global doubling constants (C_N, C_N*) of N and of its dual N*.

        log(1+2s) <= 2 log(1+s) because 1+2s <= (1+s)^2, so
        N(2s) <= 2^theta 2^power N(s) and C_N = 2^(theta+power).

        s N'(s) = theta N(s) + power N(s) s / ((1+s) log(1+s)) >= theta N(s),
        so N(lam s) >= lam^theta N(s) for lam >= 1, and the argument of
        PowerSumYoung.delta2_constants with p = theta gives
        C_N* = 2^(theta/(theta-1)).  Neither bound has an additive term.
        """
        return 2.0 ** (self.theta + self.power), 2.0 ** (self.theta / (self.theta - 1.0))


YoungLike = Union[PowerSumYoung, LogPowerYoung, "DualYoung"]


# ---------------------------------------------------------------------------
# convex dual
# ---------------------------------------------------------------------------


def _conjugate_power(coeff: float, p: float):
    """The dual of c|s|^p as (const, q) with N*(s) = const |s|^q.

    sup_r (r y - c r^p) is attained at r = (y/(c p))^(1/(p-1)) and equals
    (p-1) p^(-p/(p-1)) c^(-1/(p-1)) y^(p/(p-1)).
    """
    q = p / (p - 1.0)
    return (p - 1.0) * p ** (-q) * coeff ** (-1.0 / (p - 1.0)), q


def _dual_numeric(young, s):
    """Maximise r|s| - N(r) over r >= 0 by doubling bracket + golden section."""
    y = np.abs(np.asarray(s, dtype=float))
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    active = y > 0
    if np.any(active):
        ya = y[active]

        def g(r):
            return r * ya - np.asarray(young(r), dtype=float)

        # expand until the objective stops increasing (concave, so this
        # brackets the maximiser); superlinearity guarantees termination.
        hi = np.ones_like(ya)
        grow = g(2.0 * hi) > g(hi)
        rounds = 0
        while np.any(grow):
            hi = np.where(grow, 2.0 * hi, hi)
            rounds += 1
            if rounds > 400:
                raise YoungFunctionError(
                    "dual is degenerate: objective keeps increasing (N not superlinear?)"
                )
            grow = g(2.0 * hi) > g(hi)
        hi = 2.0 * hi
        lo = np.zeros_like(ya)
        # golden-section search, vectorised over all sample points
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        gc, gd = g(c), g(d)
        # iterate until the bracket is below 1e-12 both absolutely and relatively
        for _ in range(200):
            width = hi - lo
            if np.all(width <= 1e-12 * np.maximum(1.0, hi)):
                break
            pick = gc > gd
            hi = np.where(pick, d, hi)
            lo = np.where(pick, lo, c)
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            gc, gd = g(c), g(d)
        r_star = 0.5 * (lo + hi)
        out[active] = np.maximum(g(r_star), 0.0)
    return float(out[0]) if scalar else out


def dual_eval(young: YoungLike, s):
    """Evaluate the convex dual N*(s), closed form where one exists."""
    sp = young.single_power()
    if sp is None:
        return _dual_numeric(young, s)
    const, q = _conjugate_power(*sp)
    out = const * np.abs(np.asarray(s, dtype=float)) ** q
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DualYoung:
    """The convex dual N* of a Young function, itself evaluable like one."""

    base: YoungLike

    def __call__(self, s):
        return dual_eval(self.base, s)

    def single_power(self):
        sp = self.base.single_power()
        return None if sp is None else _conjugate_power(*sp)


def young_dual(young: YoungLike) -> DualYoung:
    return DualYoung(young)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------


def luxemburg_norm(values: np.ndarray, young: YoungLike, measure: DiscreteMeasure) -> float:
    """inf{ lam > 0 : m(N(f/lam)) <= 1 } by bisection to relative tolerance 1e-10.

    Returns the upper bisection endpoint, so m(N(f/result)) <= 1 holds exactly
    while any relative shrink by more than 1e-10 pushes the modular above 1.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != measure.weights.shape:
        raise ValueError("field and measure have mismatched supports")
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        return 0.0

    def modular(lam: float) -> float:
        return measure.integrate(np.asarray(young(f / lam), dtype=float))

    hi = peak
    for _ in range(400):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise YoungFunctionError("failed to bracket the Luxemburg norm from above")
    lo = hi
    for _ in range(400):
        lo /= 2.0
        if not modular(lo) <= 1.0:
            break
    else:
        return 0.0  # modular stays <= 1 for arbitrarily small lam: norm is 0
    # invariant: modular(hi) <= 1 < modular(lo)
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi
