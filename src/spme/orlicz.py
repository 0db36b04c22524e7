"""Young functions, convex duals, Delta_2 regularity, and Luxemburg norms.

A Young function here is an even, convex, continuous N: R -> [0, inf] with
N(0) = 0 that is superlinear at both ends:

    N(s)/s -> 0   as s -> 0,        N(s)/s -> inf  as s -> inf.

The convex dual is

    N*(s) = sup_{r >= 0} ( r|s| - N(r) ),

and on a finite discrete measure m with weights w_i > 0 the Luxemburg norm of
a sample vector f is

    ||f||_N = inf{ lam > 0 : m(N(f/lam)) <= 1 },   m(g) = sum_i w_i g_i.

Delta_2 regularity means N(2s) <= C (N(s) + 1) for every s (the +1 term is
dropped on infinite measure spaces).  From a Delta_2 constant C > 2 one gets a
power-growth certificate

    N(r s) <= r^q (N(s) + 2)   for all r >= 2,   q = 2 log2(C),

by iterating the doubling inequality across the dyadic bracket containing r.
The certificate is verified on sample grids rather than assumed; the test
suite holds the Luxemburg norms to the Hoelder inequality

    m(|f g|) <= 2 ||f||_N ||g||_{N*}.

Three concrete families are provided: finite sums of pure powers
N(s) = sum_i c_i |s|^{p_i} with p_i > 1, the logarithmically perturbed powers
N(s) = c |s|^theta log(1+|s|)^r, and tabulated functions interpolated by a
monotone cubic (no extrapolation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = [
    "YoungFunctionError",
    "TableRangeError",
    "Delta2ViolationError",
    "DiscreteMeasure",
    "PowerSumYoung",
    "LogPowerYoung",
    "TableYoung",
    "DualYoung",
    "young_dual",
    "dual_eval",
    "delta2_constant",
    "delta2_exponent",
    "luxemburg_norm",
    "validate_young",
]


class YoungFunctionError(ValueError):
    """A function (or parameter set) violates a Young-function requirement."""


class TableRangeError(YoungFunctionError):
    """A tabulated Young function was evaluated outside its sample range."""


class Delta2ViolationError(YoungFunctionError):
    """No moderate doubling constant certifies N(2s) <= C (N(s) + 1)."""


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


class TableYoung:
    """Young function given by samples on [0, s_max], monotone-cubic interpolated.

    The table must start at (0, 0), be strictly increasing, and midpoint-convex.
    Evaluation outside [-s_max, s_max] raises TableRangeError rather than
    extrapolating.
    """

    def __init__(self, s: np.ndarray, values: np.ndarray):
        s = np.asarray(s, dtype=float)
        values = np.asarray(values, dtype=float)
        if s.ndim != 1 or s.size < 4 or s.shape != values.shape:
            raise YoungFunctionError("need matching 1-d tables with >= 4 samples")
        if s[0] != 0.0 or values[0] != 0.0:
            raise YoungFunctionError("table must start at (0, 0)")
        if not np.all(np.diff(s) > 0):
            raise YoungFunctionError("abscissae must be strictly increasing")
        if not np.all(np.diff(values) > 0):
            raise YoungFunctionError("table values must be strictly increasing")
        # midpoint convexity on consecutive triples (chords lie above the curve)
        chord = 0.5 * (values[:-2] + values[2:])
        mids = 0.5 * (s[:-2] + s[2:])
        interp = np.interp(mids, s, values)
        # allow a tiny slack for tables produced by rounded printing
        if np.any(interp > chord * (1 + 1e-9) + 1e-12):
            raise YoungFunctionError("table is not convex")
        self.s_max = float(s[-1])
        self._interp = PchipInterpolator(s, values, extrapolate=False)

    def __call__(self, s):
        a = np.abs(np.asarray(s, dtype=float))
        if np.any(a > self.s_max * (1 + 1e-12)):
            raise TableRangeError(
                f"argument {float(np.max(a)):g} outside table range [0, {self.s_max:g}]"
            )
        out = self._interp(np.minimum(a, self.s_max))
        return out if out.ndim else float(out)

    def single_power(self):
        return None


YoungLike = Union[PowerSumYoung, LogPowerYoung, TableYoung, "DualYoung"]


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
    sp = young.single_power() if hasattr(young, "single_power") else None
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
        sp = self.base.single_power() if hasattr(self.base, "single_power") else None
        return None if sp is None else _conjugate_power(*sp)


def young_dual(young: YoungLike) -> DualYoung:
    return DualYoung(young)


# ---------------------------------------------------------------------------
# Delta_2 regularity
# ---------------------------------------------------------------------------

_DELTA2_S_GRID = np.geomspace(1e-3, 1e3, 61)
_DELTA2_R_GRID = np.geomspace(2.0, 2.0**10, 41)


def delta2_constant(young: YoungLike, finite: bool = True) -> float:
    """Doubling constant C with N(2s) <= C (N(s) + 1_finite) on the sample range.

    Pure power sums give C = 2**p_max exactly; the log-power family gives
    C = 2**(theta + power) because log(1+2s) <= 2 log(1+s).  Tables are
    certified empirically: the constant is read off the lower half of the
    range and must also cover the upper half, so genuinely exponential tables
    are rejected instead of being fitted with an ever-growing constant.
    """
    if isinstance(young, PowerSumYoung):
        return 2.0 ** max(young.exponents)
    if isinstance(young, LogPowerYoung):
        return 2.0 ** (young.theta + young.power)
    if isinstance(young, DualYoung):
        sp = young.single_power()
        if sp is not None:
            return 2.0 ** sp[1]
        raise Delta2ViolationError("no closed-form doubling constant for a numeric dual")
    if isinstance(young, TableYoung):
        # Local doubling exponent p(s) = log2(N(2s)/N(s)).  For a Delta_2
        # function p saturates toward a finite power; faster-than-power growth
        # makes p keep climbing with s, which we reject.
        s_hi = young.s_max / 2.0
        s = np.geomspace(s_hi * 1e-3, s_hi, 120)
        n_s = np.asarray(young(s), dtype=float)
        n_2s = np.asarray(young(2.0 * s), dtype=float)
        p = np.log2(n_2s / n_s)
        p_ref = float(np.max(p[: p.size // 2]))
        if p[-1] > 1.2 * p_ref + 0.5:
            raise Delta2ViolationError(
                f"local doubling exponent climbs from {p_ref:.3g} to {p[-1]:.3g} "
                f"across the table range; the function is not Delta_2-regular"
            )
        extra = 1.0 if finite else 0.0
        return float(np.max(n_2s / (n_s + extra))) * 1.02
    raise TypeError(f"unsupported Young function type {type(young)!r}")


def _verify_power_growth(young, q: float, finite: bool, r_grid, s_grid) -> None:
    extra = 2.0 if finite else 0.0
    n_s = np.asarray(young(s_grid), dtype=float)
    for r in r_grid:
        lhs = np.asarray(young(r * s_grid), dtype=float)
        rhs = r**q * (n_s + extra)
        bad = lhs > rhs * (1 + 1e-9)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise Delta2ViolationError(
                f"growth certificate N(r s) <= r^q (N(s)+{extra:g}) fails at "
                f"r={r:g}, s={s_grid[i]:g} with q={q:g}"
            )


def delta2_exponent(young: YoungLike, finite: bool = True) -> float:
    """Power-growth exponent q > 2 with N(r s) <= r^q (N(s) + 2*1_finite), r >= 2.

    q = 2 log2(C) for the doubling constant C, via iterating the doubling
    inequality over the dyadic bracket [2^n, 2^{n+1}) containing r (the n = 1
    bracket is the binding one).  The certificate is then checked on a log
    grid of r in [2, 2^10], s in [1e-3, 1e3] (restricted to the table range
    for tabulated functions).
    """
    c = delta2_constant(young, finite=finite)
    q = max(2.0 * math.log2(c), 2.0 + 1e-9)
    r_grid, s_grid = _DELTA2_R_GRID, _DELTA2_S_GRID
    if isinstance(young, TableYoung):
        s_grid = s_grid[s_grid * r_grid[-1] <= young.s_max]
        if s_grid.size == 0:
            s_top = young.s_max / r_grid[-1]
            s_grid = np.geomspace(s_top * 1e-4, s_top, 25)
    _verify_power_growth(young, q, finite, r_grid, s_grid)
    return q


def validate_young(young: YoungLike) -> None:
    """Check the defining Young-function properties on a log-spaced grid.

    The grid is 121 points over [1e-12 hi, hi], hi = 1e6 or a table's s_max.
    Raises YoungFunctionError on: N(0) != 0, loss of evenness, loss of
    monotonicity or convexity, or the wrong slope trend at 0/infinity.
    """
    hi = young.s_max if isinstance(young, TableYoung) else 1e6
    s_grid = np.geomspace(hi * 1e-12, hi, 121)
    vals = np.asarray(young(s_grid), dtype=float)
    if abs(float(np.asarray(young(0.0)))) > 1e-300:
        raise YoungFunctionError("N(0) must vanish")
    neg = np.asarray(young(-s_grid), dtype=float)
    if not np.allclose(neg, vals, rtol=1e-12, atol=0.0):
        raise YoungFunctionError("N must be even")
    if np.any(np.diff(vals) <= 0):
        raise YoungFunctionError("N must be strictly increasing on s > 0")
    if np.any(
        np.asarray(young(0.5 * (s_grid[:-1] + s_grid[1:])), dtype=float)
        > 0.5 * (vals[:-1] + vals[1:]) * (1 + 1e-9)
    ):
        raise YoungFunctionError("N must be convex")
    slope = vals / s_grid
    if np.any(np.diff(slope) < -1e-12 * slope[:-1]):
        raise YoungFunctionError("N(s)/s must be nondecreasing (convexity with N(0)=0)")
    if not slope[0] < 0.1 * slope[len(slope) // 2]:
        raise YoungFunctionError("N(s)/s does not vanish toward 0 on the sample grid")
    if not slope[-1] > 10.0 * slope[len(slope) // 2]:
        raise YoungFunctionError("N(s)/s does not diverge toward infinity on the sample grid")


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
