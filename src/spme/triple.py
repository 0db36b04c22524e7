"""Discretized Gelfand triple V in H in V* on the unit interval.

The domain is (0, 1) with homogeneous Dirichlet boundary, n interior grid
points x_i = i h, h = 1/(n+1), and quadrature weights w_i = h.  The discrete
Dirichlet Laplacian has the closed-form eigenpairs

    lam_k^FD = (2/h^2) (1 - cos(k pi h)),     s_k(i) = sqrt(2) sin(k pi x_i),

with the sine vectors orthonormal under h * sum.  The (possibly fractional)
generator is defined spectrally, L = -(-Delta_h)^alpha, i.e. a multiplier
-lam_k with lam_k = (lam_k^FD)^alpha, so that operator, inverse, and norms are
exactly consistent between grid and spectral views at finite n.

H is the dual of the Dirichlet-form space: its inner product divides each
mode by lam_k,

    <u, v>_H = sum_k  u_k v_k / lam_k,

which coincides with m(u * (-L)^{-1} v) by Parseval (m(fg) = sum_k f_k g_k);
``SpectralDomain.h_pair`` is this sum over rows of sine coefficients, the
generator is the multiplier ``-dom.lam``, and a state (``Field``) is one such
row.  V carries the Luxemburg norm of a Young function plus the H norm.

Both transforms are a product against the dense basis, which is allocated on
a 64-byte boundary: OpenBLAS's one-row kernel takes up to 1.8 times as long
when the matrix starts elsewhere (its output bytes are the same), and where
malloc put the basis would otherwise decide the speed of every single-path
run.
"""
from __future__ import annotations

import numpy as np

from .orlicz import DiscreteMeasure

__all__ = [
    "SpectralDomain",
    "Field",
    "h_norm",
]


class SpectralDomain:
    """Interior grid, discrete sine basis, and fractional Dirichlet spectrum."""

    def __init__(self, n_grid: int, alpha: float = 1.0):
        if isinstance(n_grid, bool) or not isinstance(n_grid, (int, np.integer)):
            raise ValueError(f"n_grid must be an integer, got {n_grid!r}")
        if not (1 <= n_grid <= 1024):
            raise ValueError("n_grid must lie in [1, 1024] (dense transforms)")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        self.n_grid = n = int(n_grid)
        self.alpha = float(alpha)
        self.h = 1.0 / (n + 1)
        self.x = self.h * np.arange(1, n + 1)
        k = np.arange(1, n + 1)
        self.lam_fd = (2.0 / self.h**2) * (1.0 - np.cos(k * np.pi * self.h))
        self.lam = self.lam_fd**self.alpha
        # S[i, k-1] = sqrt(2) sin(k pi x_i); symmetric, and h * S @ S = I.
        # Reduce k*i mod 2(n+1) in integers before multiplying by pi: the
        # values are identical by periodicity but the large-argument rounding
        # of sin disappears, which the exact spectral identities rely on.
        idx = np.arange(1, n + 1, dtype=np.int64)
        reduced = np.outer(idx, idx) % (2 * (n + 1))
        # The basis starts on a 64-byte boundary (see the module docstring);
        # 7 spare doubles reach one from any 8-byte-aligned start.
        buf = np.empty(n * n + 7)
        start = (-buf.__array_interface__["data"][0] % 64) // 8
        self.basis = buf[start:start + n * n].reshape(n, n)
        np.multiply(np.sqrt(2.0), np.sin(np.pi * reduced / (n + 1)), out=self.basis)

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Sine coefficients of grid values; accepts (n,) or batched (B, n)."""
        return (np.asarray(values, dtype=float) @ self.basis) * self.h

    def from_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.basis

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(np.full(self.n_grid, self.h))

    def h_pair(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise H inner products <X, Y>_H = sum_k X_k Y_k / lam_k of coefficient rows."""
        P = X * Y
        P /= self.lam  # in place: the bits of X * Y / lam in one temporary
        return np.sum(P, axis=-1)

    def integrate(self, values: np.ndarray) -> float:
        """m(f) = h * sum_i f_i."""
        return float(np.sum(np.asarray(values, dtype=float), axis=-1) * self.h)

    def __repr__(self):
        return f"SpectralDomain(n_grid={self.n_grid}, alpha={self.alpha})"


class Field:
    """A state: its row of sine coefficients; the grid values are synthesized per read."""

    __slots__ = ("dom", "coeffs")

    def __init__(self, dom: SpectralDomain, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (dom.n_grid,):
            raise ValueError(f"expected shape ({dom.n_grid},), got {coeffs.shape}")
        self.dom, self.coeffs = dom, coeffs

    @classmethod
    def from_values(cls, dom: SpectralDomain, values) -> "Field":
        values = np.asarray(values, dtype=float)
        if values.shape != (dom.n_grid,):
            raise ValueError(f"expected shape ({dom.n_grid},), got {values.shape}")
        return cls(dom, dom.to_spectral(values))

    @classmethod
    def from_coeffs(cls, dom: SpectralDomain, coeffs) -> "Field":
        return cls(dom, coeffs)

    @classmethod
    def zero(cls, dom: SpectralDomain) -> "Field":
        return cls(dom, np.zeros(dom.n_grid))

    @property
    def values(self) -> np.ndarray:
        return self.dom.from_spectral(self.coeffs)

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.dom, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.dom, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.dom, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other: "Field") -> None:
        if other.dom is not self.dom:
            raise ValueError("fields live on different domains")

    def __repr__(self):
        return f"Field(n={self.dom.n_grid}, max|.|={float(np.max(np.abs(self.values))):.3g})"


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def h_norm(dom: SpectralDomain, u: Field) -> float:
    return float(np.sqrt(dom.h_pair(u.coeffs, u.coeffs)))
