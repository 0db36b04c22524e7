"""Cylindrical Wiener increments and diagonal Hilbert--Schmidt diffusion.

The diffusion operator acts mode-by-mode: coefficient ``k`` of ``B(X) dW``
is ``rho(|X|_H) * sigma_k * dW_k``, where ``rho`` is an optional bounded,
Lipschitz scalar factor (``rho = 1`` gives additive noise).  Since the modes
``s_k / sqrt(lam_k)`` are H-orthonormal, the squared Hilbert--Schmidt norm of
``B`` into H is the closed form ``rho^2 * sum_k sigma_k^2 / lam_k``.

Randomness policy: every path owns a child stream derived from
``SeedSequence([master_seed, path_idx])``, so ensembles are reproducible no
matter how paths are scheduled or how the time axis is chunked.  Ensembles
continue each path's stream one time block at a time: one call writes a
batch's next block in place, each path's rows from its own stream, into one
of two path-major blocks that a worker thread fills while the other is
stepped, so their increment memory is two blocks, not paths x steps.
Refining a path to step ``dt/2`` uses a Brownian-bridge split whose
midpoint draws come from a separate stream keyed by the refinement level;
the two half-step increments always sum back to the coarse increment.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .triple import SpectralDomain


@dataclass(frozen=True)
class RhoFactor:
    """Multiplicative amplitude rho(x) = rho_min + (rho_max - rho_min)/(1 + x).

    Defined for x >= 0 (the H-norm of the state).  The family is bounded in
    [rho_min, rho_max] and Lipschitz with constant rho_max - rho_min; the
    choice rho_min=0, rho_max=1 reproduces the reference factor 1/(1+x).
    """

    rho_min: float
    rho_max: float

    def __post_init__(self):
        if not (0.0 <= self.rho_min <= self.rho_max) or not math.isfinite(self.rho_max):
            raise ValueError("need 0 <= rho_min <= rho_max < inf")

    @property
    def lipschitz(self) -> float:
        return self.rho_max - self.rho_min

    def __call__(self, x):
        return self.rho_min + (self.rho_max - self.rho_min) / (1.0 + x)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-mode amplitudes sigma_k >= 0 plus an optional multiplicative factor."""

    sigma: tuple
    mult: RhoFactor | None = None

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigma)
        if len(sig) == 0:
            raise ValueError("need at least one mode amplitude")
        if any(not math.isfinite(s) or s < 0.0 for s in sig):
            raise ValueError("mode amplitudes must be finite and >= 0")
        object.__setattr__(self, "sigma", sig)

    @property
    def n_modes(self) -> int:
        return len(self.sigma)

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of x -> rho(x) (0 for additive noise)."""
        return 0.0 if self.mult is None else self.mult.lipschitz

    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=float)


def power_decay_sigma(n_modes: int, sigma0: float, beta: float) -> NoiseSpec:
    """Additive spec with sigma_k = sigma0 * k^(-beta), k = 1..n_modes."""
    k = np.arange(1, n_modes + 1, dtype=float)
    return NoiseSpec(sigma=tuple(sigma0 * k**-beta))


def hs0_sq(spec: NoiseSpec, dom: SpectralDomain) -> float:
    """Baseline squared HS norm sum_k sigma_k^2 / lam_k (the rho=1 value)."""
    if spec.n_modes > dom.n_grid:
        raise ValueError(
            f"noise has {spec.n_modes} modes but the domain only {dom.n_grid}"
        )
    sig = spec.sigma_array()
    return float(np.sum(sig**2 / dom.lam[: spec.n_modes]))


# ---------------------------------------------------------------------------
# Increment streams
# ---------------------------------------------------------------------------


def path_stream(master_seed: int, path_idx: int) -> np.random.Generator:
    """The base increment stream of one path (child of the master seed)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, path_idx]))


def _bridge_stream(master_seed: int, path_idx: int, level: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, path_idx, level]))


def increments_for_path(
    spec: NoiseSpec, n_steps: int, dt: float, master_seed: int, path_idx: int,
    stream: np.random.Generator | Sequence[np.random.Generator] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Increments of one path, shape (n_steps, n_modes), row per step.

    Rows are drawn in C order from the path stream, so generating the array
    in one call or in sequential row chunks yields identical numbers.  With
    ``stream`` (that path's ``path_stream``) the next ``n_steps`` rows are
    drawn from it.  With ``out`` (a C-contiguous float array of that shape)
    the rows are written there and ``out`` is returned: standard normals
    scaled by sqrt(dt), plus 0.0, which is the arithmetic of
    ``normal(0, sqrt(dt))``, so the bits are the same.

    Block form: ``stream`` a sequence of path streams and ``out`` of shape
    (len(stream), n_steps, n_modes) whose ``out[i]`` are C-contiguous, such
    as a time slice ``block[:, :n]`` of a path-major block.  ``out[i]``
    takes the next ``n_steps`` rows of ``stream[i]``, bitwise what a
    one-path call on that stream gives, and the block is scaled once;
    ``master_seed`` and ``path_idx`` are not used.  ``monte_carlo`` draws
    each batch this way, one time block per call, and never holds a whole
    path.
    """
    if stream is None or isinstance(stream, np.random.Generator):
        rng = path_stream(master_seed, path_idx) if stream is None else stream
        if out is None:
            return rng.normal(0.0, math.sqrt(dt), size=(n_steps, spec.n_modes))
        streams, rows, shape = (rng,), (out,), (n_steps, spec.n_modes)
    else:
        streams, rows, shape = stream, out, (len(stream), n_steps, spec.n_modes)
    if out is None or out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got "
                         f"{None if out is None else out.shape}")
    for rng, r in zip(streams, rows):
        rng.standard_normal(out=r)
    out *= math.sqrt(dt)
    out += 0.0  # -0.0 becomes +0.0, as in normal's loc + scale * z
    return out


def refine_increments(
    dW: np.ndarray, dt: float, master_seed: int, path_idx: int, level: int = 1
) -> np.ndarray:
    """Split step-dt increments into step-dt/2 halves along the same path.

    Brownian bridge: each coarse increment D becomes (D/2 + z, D/2 - z) with
    z ~ N(0, dt/4) drawn from the level-keyed stream, so the halves have the
    correct dt/2 variance, are independent, and sum exactly to D.  Refining
    again (level+1) keeps all previously generated levels unchanged.
    """
    dW = np.asarray(dW, dtype=float)
    if dW.ndim != 2:
        raise ValueError("expected increments of shape (n_steps, n_modes)")
    n_steps, n_modes = dW.shape
    z = _bridge_stream(master_seed, path_idx, level).normal(
        0.0, 0.5 * math.sqrt(dt), size=(n_steps, n_modes)
    )
    fine = np.empty((2 * n_steps, n_modes))
    fine[0::2] = 0.5 * dW + z
    fine[1::2] = 0.5 * dW - z
    return fine
