"""Time integration of the spectral Galerkin system and ensemble statistics.

Two Euler--Maruyama flavours are provided.  The explicit scheme works for
every fractional order ``alpha`` but is protected by a stability guard
``dt * lam_m * sup|Psi'| <= 2`` evaluated on the observed state range; the
semi-implicit scheme treats the stiff monotone term by a damped Newton solve
on the grid (tridiagonal Jacobian) and is available for the full Laplacian
(``alpha = 1``) only.

Both flavours share one step on a ``(P, n_grid)`` batch of coefficient rows
and one time loop.  Per-path noise comes from the dedicated streams in
:mod:`spme.noise`, so a trajectory is a function of ``(master_seed, path_idx,
config)``: bitwise for a fixed batching (config, seed, chunk), and up to
rounding across batchings, since a one-row transform (matrix-vector product)
and a batched one (matrix-matrix product) may differ in the last bits.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .drift import DriftSpec, drift_coeffs, phi0_eval, psi_eval, psi_prime, psi_prime_max, young_modular
from .noise import NoiseSpec, increments_for_path, rho_factor
from .triple import Field, SpectralDomain

SCHEMES = ("explicit", "semi-implicit")

#: Newton Jacobian entries use Psi' clamped at 1/_JACOBIAN_FLOOR so the
#: singular fast-diffusion derivative cannot poison the linear solve.  The
#: clamp affects only the solver path; residuals use the exact Psi.
_JACOBIAN_FLOOR = 1e-8


class BlowUpError(RuntimeError):
    """State left the finite range; carries the offending step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class StabilityError(RuntimeError):
    """Explicit stability guard violated."""


class ConvergenceError(RuntimeError):
    """Newton did not reach the residual tolerance."""


class UnsupportedSchemeError(RuntimeError):
    """Scheme/domain combination not available."""


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    T: float
    n_modes: int
    scheme: str = "explicit"
    implicit_tol: float = 1e-10
    implicit_max_iter: int = 100
    record_ito: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.T >= 0 and math.isfinite(self.T)):
            raise ValueError("T must be nonnegative and finite")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        n = round(self.T / self.dt)
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("T must be an integer multiple of dt")
        if self.implicit_tol <= 0 or self.implicit_max_iter < 1:
            raise ValueError("implicit_tol must be positive, implicit_max_iter >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)


@dataclass
class Trajectory:
    """One simulated path.

    ``drift_record`` / ``diffusion_record`` / ``increments`` are populated
    only when the configuration asked for the Ito ledger: per step k they
    hold the spectral coordinates of A(t_k, X_k), the per-mode diffusion
    coefficients rho(|X_k|_H) sigma, and the Brownian increments consumed.
    """

    dom: SpectralDomain
    times: np.ndarray
    states: list
    path_seed: tuple
    drift_record: np.ndarray | None = None
    diffusion_record: np.ndarray | None = None
    increments: np.ndarray | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def coeff_matrix(self) -> np.ndarray:
        return np.stack([s.coeffs for s in self.states])

    def to_csv(self, path) -> None:
        mat = self.coeff_matrix()
        header = ["t"] + [f"mode_{k}" for k in range(1, mat.shape[1] + 1)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for t, row in zip(self.times, mat):
                cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
                fh.write(",".join(cells) + "\n")


class _StabilityGuard:
    """Caches sup|Psi'| over the largest state range seen so far.

    The bound is monotone in the range, so a cached value at a larger cap
    stays valid while the state shrinks; time modulation is absorbed by
    rescaling to the worst instant.
    """

    def __init__(self, dom: SpectralDomain, drift: DriftSpec, dt: float, m: int):
        self.threshold = 2.0
        self.dt = dt
        self.factor = dt * dom.lam[m - 1]
        self.psi = drift.psi
        self.s_cap = -1.0
        self.p_worst = 0.0

    def check(self, s_max: float, t: float) -> None:
        if s_max > self.s_cap:
            cap = 1.25 * s_max + 1e-12
            p = psi_prime_max(self.psi, t, cap)
            if self.psi.modulation is not None and p < math.inf:
                p *= self.psi.a_max / self.psi.a_at(t)
            self.s_cap, self.p_worst = cap, p
        value = self.factor * self.p_worst
        if not value <= self.threshold:
            if math.isinf(self.p_worst):
                raise StabilityError(
                    "explicit step refused: Psi' is unbounded on the state range "
                    f"[0, {self.s_cap:.3g}] (singular diffusion); "
                    "use the semi-implicit scheme"
                )
            dt_max = self.dt * self.threshold / value
            raise StabilityError(
                f"explicit step unstable at t={t:.6g}: dt*lam_m*sup|Psi'| = "
                f"{value:.3g} > 2; reduce dt below {dt_max:.3g} "
                "or use the semi-implicit scheme"
            )


def _tridiag_L(vals: np.ndarray, h: float) -> np.ndarray:
    out = -2.0 * vals
    out[:-1] += vals[1:]
    out[1:] += vals[:-1]
    return out / h**2


def _newton_implicit(dom, psi, t, b, dt, tol, max_iter):
    """Solve u - dt * L_h Psi(t, u) = b on the grid by damped Newton."""
    h = dom.h
    u = b.copy()
    res = u - dt * _tridiag_L(np.asarray(psi_eval(psi, t, u), dtype=float), h) - b
    rnorm = float(np.max(np.abs(res)))
    gamma = dt / h**2
    u_best, r_best = u, rnorm
    for _ in range(max_iter):
        if rnorm <= tol:
            return u
        pp = np.minimum(psi_prime(psi, t, u), 1.0 / _JACOBIAN_FLOOR)
        pp = np.asarray(pp, dtype=float)
        ab = np.zeros((3, u.size))
        ab[0, 1:] = -gamma * pp[1:]
        ab[1, :] = 1.0 + 2.0 * gamma * pp
        ab[2, :-1] = -gamma * pp[:-1]
        du = solve_banded((1, 1), ab, -res)
        step = 1.0
        while True:
            u_try = u + step * du
            res_try = u_try - dt * _tridiag_L(
                np.asarray(psi_eval(psi, t, u_try), dtype=float), h
            ) - b
            rnorm_try = float(np.max(np.abs(res_try)))
            if rnorm_try <= (1.0 - 0.5 * step) * rnorm or step < 1.0 / 64.0:
                break
            step *= 0.5
        u, res, rnorm = u_try, res_try, rnorm_try
        if rnorm < r_best:
            u_best, r_best = u, rnorm
    if r_best <= tol:
        return u_best
    raise ConvergenceError(
        f"implicit solve did not converge within {max_iter} iterations "
        f"(best residual {r_best:.3e}, tolerance {tol:.1e})"
    )


def _step(config: StepperConfig, dom, drift, noise, guard, t, C, dW, records=False):
    """Advance the batch C (P, n_grid) by one step of ``config.scheme``.

    Row p takes the increments dW[p] with its own amplitude rho(|C_p|_H).
    Returns the new batch and, when ``records`` is set, the pair
    (A(t, C), rho(|C|_H) sigma) that the Ito ledger needs, else None.
    """
    dt, m = config.dt, config.n_modes
    explicit = config.scheme == "explicit"
    if not explicit and abs(dom.alpha - 1.0) > 1e-12:
        raise UnsupportedSchemeError(
            "the semi-implicit Newton path requires the full Laplacian "
            f"(alpha=1); got alpha={dom.alpha}.  Fall back to the explicit scheme."
        )
    # Explicit overflow is the blow-up the time loop reports; keep it silent.
    with np.errstate(over="ignore", invalid="ignore") if explicit else nullcontext():
        hn = np.sqrt(np.sum(C * C / dom.lam, axis=-1))
        z = rho_factor(noise, hn)[:, None] * noise.sigma_array()
        noise_c = np.zeros_like(C)
        noise_c[:, :noise.n_modes] = z * dW
        values = dom.from_spectral(C)
        if explicit:
            s_max = float(np.max(np.abs(values)))
            if math.isfinite(s_max):
                guard.check(s_max, t)
            A = drift_coeffs(dom, drift, t, values, C)
            new = np.zeros_like(C)
            new[:, :m] = C[:, :m] + dt * A[:, :m]
            new[:, :m] += noise_c[:, :m]
        else:
            b = values + dt * (drift.phi.h_at(t) * values + phi0_eval(drift.phi, values))
            b = b + dom.from_spectral(noise_c)
            new_vals = np.empty_like(values)
            for i in range(len(b)):
                new_vals[i] = _newton_implicit(dom, drift.psi, t, b[i], dt,
                                               config.implicit_tol, config.implicit_max_iter)
            new = dom.to_spectral(new_vals)
            new[:, m:] = 0.0
            A = drift_coeffs(dom, drift, t, values, C) if records else None
    return new, ((A, z) if records else None)


def _single_step(scheme, dom, drift, noise, t, X, dW, dt, n_modes, tol=1e-10,
                 max_iter=100) -> Field:
    m = dom.n_grid if n_modes is None else n_modes
    config = StepperConfig(dt, dt, m, scheme, tol, max_iter)
    C, _ = _step(config, dom, drift, noise, _StabilityGuard(dom, drift, dt, m), t,
                 X.coeffs[None], np.asarray(dW, dtype=float)[None])
    if not np.all(np.isfinite(C)):
        raise BlowUpError(f"non-finite state after {scheme} step at t={t:.6g}")
    return Field.from_coeffs(dom, C[0])


def step_explicit(dom, drift, noise, t, X, dW, dt, n_modes=None) -> Field:
    """One explicit Euler--Maruyama step, projected onto the leading modes."""
    return _single_step("explicit", dom, drift, noise, t, X, dW, dt, n_modes)


def step_semi_implicit(dom, drift, noise, t, X, dW, dt, n_modes=None,
                       tol=1e-10, max_iter=100) -> Field:
    """One semi-implicit step: the monotone term is solved on the grid."""
    return _single_step("semi-implicit", dom, drift, noise, t, X, dW, dt, n_modes,
                        tol, max_iter)


def _initial_rows(config: StepperConfig, dom: SpectralDomain, noise: NoiseSpec,
                  starts) -> np.ndarray:
    """The start fields as rows, projected onto the leading ``config.n_modes``."""
    if config.n_modes > dom.n_grid:
        raise ValueError("n_modes exceeds the grid resolution")
    if noise.n_modes > dom.n_grid:
        raise ValueError("noise has more modes than the grid resolves")
    rows = np.zeros((len(starts), dom.n_grid))
    rows[:, :config.n_modes] = [X.coeffs[:config.n_modes] for X in starts]
    return rows


def _time_loop(config: StepperConfig, dom, drift, noise, C, inc, records=False):
    """Yield ``(k, t_k, C_k, rec)`` for k = 0..n_steps, starting from batch C.

    ``inc`` holds the increments of P paths, shape (P, n_steps, n_modes); C
    stacks blocks of P rows (X, then Y in a paired run) and every block takes
    the same increments.  ``rec`` is the ledger record of the step that led
    to C_k (None at k = 0 or without ``records``).
    """
    guard = _StabilityGuard(dom, drift, config.dt, config.n_modes)
    copies = len(C) // len(inc)
    yield 0, 0.0, C, None
    for k in range(config.n_steps):
        t = k * config.dt
        C, rec = _step(config, dom, drift, noise, guard, t, C,
                       np.tile(inc[:, k], (copies, 1)), records)
        if not np.all(np.isfinite(C)):
            raise BlowUpError(
                f"non-finite state at step {k + 1} (t={t + config.dt:.6g})", step=k + 1
            )
        yield k + 1, (k + 1) * config.dt, C, rec


def simulate(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
             noise: NoiseSpec, X0: Field, master_seed: int, path_idx: int = 0,
             increments: np.ndarray | None = None) -> Trajectory:
    """Integrate one path; deterministic in (master_seed, path_idx, config)."""
    C0 = _initial_rows(config, dom, noise, [X0])
    n_steps = config.n_steps
    if increments is None:
        increments = increments_for_path(noise, n_steps, config.dt, master_seed, path_idx)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, noise.n_modes):
            raise ValueError("increments must have shape (n_steps, n_modes)")

    states = []
    drift_rec = np.empty((n_steps, dom.n_grid)) if config.record_ito else None
    diff_rec = np.empty((n_steps, noise.n_modes)) if config.record_ito else None
    for k, _, C, rec in _time_loop(config, dom, drift, noise, C0, increments[None],
                                   config.record_ito):
        states.append(Field.from_coeffs(dom, C[0]))
        if rec is not None:
            drift_rec[k - 1], diff_rec[k - 1] = rec[0][0], rec[1][0]

    times = np.arange(n_steps + 1) * config.dt
    return Trajectory(
        dom=dom, times=times, states=states, path_seed=(master_seed, path_idx),
        drift_record=drift_rec, diffusion_record=diff_rec,
        increments=increments if config.record_ito else None,
    )


def simulate_pair(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
                  noise: NoiseSpec, X0: Field, Y0: Field, seed: int):
    """Two trajectories driven by the identical Brownian increments.

    Two single-row runs, so each matches ``simulate`` bitwise (a 2-row batch
    would round differently).
    """
    inc = increments_for_path(noise, config.n_steps, config.dt, seed, 0)
    tx = simulate(config, dom, drift, noise, X0, seed, 0, increments=inc)
    ty = simulate(config, dom, drift, noise, Y0, seed, 0, increments=inc)
    return tx, ty


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatTable:
    """Per-time mean/variance/standard error for each observable column."""

    times: np.ndarray
    names: tuple
    mean: np.ndarray
    var: np.ndarray
    se: np.ndarray
    n_paths: int

    def col(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"observable {name!r} not in table {self.names}") from None

    def mean_of(self, name: str) -> np.ndarray:
        return self.mean[:, self.col(name)]

    def var_of(self, name: str) -> np.ndarray:
        return self.var[:, self.col(name)]

    def se_of(self, name: str) -> np.ndarray:
        return self.se[:, self.col(name)]

    def to_csv(self, path) -> None:
        header = ["t"]
        for name in self.names:
            header += [f"{name}_mean", f"{name}_var", f"{name}_se"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for i, t in enumerate(self.times):
                cells = [format(t, ".17g")]
                for j in range(len(self.names)):
                    cells += [format(self.mean[i, j], ".17g"),
                              format(self.var[i, j], ".17g"),
                              format(self.se[i, j], ".17g")]
                fh.write(",".join(cells) + "\n")


_PLAIN_OBSERVABLES = ("h_norm_sq", "modular", "R", "sup_abs", "dist_sq",
                      "drift_norm_sq")


def _is_plain(name: str, paired: bool) -> bool:
    if name in _PLAIN_OBSERVABLES:
        if name == "dist_sq" and not paired:
            raise ValueError("dist_sq requires a paired ensemble (Y0 given)")
        return True
    return name.startswith("mode_") and name[5:].isdigit() and int(name[5:]) >= 1


def _check_observables(names, paired: bool) -> None:
    for name in names:
        base = name[4:] if name.startswith("int_") else name
        if not base or not _is_plain(base, paired):
            raise ValueError(f"unknown observable {name!r}")


def _eval_plain(name, dom, drift, t, C, CY, cache):
    if name == "h_norm_sq":
        return np.sum(C * C / dom.lam, axis=-1)
    if name == "dist_sq":
        D = C - CY
        return np.sum(D * D / dom.lam, axis=-1)
    if name == "drift_norm_sq":
        if "values" not in cache:
            cache["values"] = dom.from_spectral(C)
        A = drift_coeffs(dom, drift, t, cache["values"], C)
        return np.sum(A * A / dom.lam, axis=-1)
    if name == "modular":
        if "values" not in cache:
            cache["values"] = dom.from_spectral(C)
        return np.atleast_1d(young_modular(dom, drift.psi, cache["values"]))
    if name == "R":
        if "values" not in cache:
            cache["values"] = dom.from_spectral(C)
        return (np.atleast_1d(young_modular(dom, drift.psi, cache["values"]))
                + np.sum(C * C / dom.lam, axis=-1))
    if name == "sup_abs":
        if "values" not in cache:
            cache["values"] = dom.from_spectral(C)
        return np.max(np.abs(cache["values"]), axis=-1)
    return C[:, int(name[5:]) - 1]


def _eval_observables(names, dom, drift, t, C, CY=None, cums=None):
    """Column stack of observables; ``int_*`` names read the accumulators."""
    cols = []
    cache = {}
    for name in names:
        if name.startswith("int_"):
            cols.append(cums[name].copy())
        else:
            cols.append(_eval_plain(name, dom, drift, t, C, CY, cache))
    return np.stack(cols, axis=-1)  # (P, K)


def _merge_moments(nA, meanA, M2A, nB, meanB, M2B):
    if nA == 0:
        return nB, meanB, M2B
    delta = meanB - meanA
    n = nA + nB
    mean = meanA + delta * (nB / n)
    M2 = M2A + M2B + delta * delta * (nA * nB / n)
    return n, mean, M2


def monte_carlo(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
                noise: NoiseSpec, X0: Field, master_seed: int, ensemble_size: int,
                observables, Y0: Field | None = None, save_every: int = 1,
                chunk: int = 128) -> StatTable:
    """Ensemble statistics of the requested observables at the save times.

    Paths run in chunks; with ``Y0`` each chunk stacks its Y paths below its
    X paths on the same increments.  Chunk moments are combined with the
    parallel mean/M2 merge.  The result is bitwise reproducible for a fixed
    chunk; other chunkings agree up to rounding (see the module docstring).
    """
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be at least 2")
    if save_every < 1:
        raise ValueError("save_every must be at least 1")
    names = tuple(observables)
    if not names:
        raise ValueError("at least one observable is required")
    _check_observables(names, paired=Y0 is not None)
    starts = _initial_rows(config, dom, noise, [X0] if Y0 is None else [X0, Y0])
    n_steps = config.n_steps
    save_idx = list(range(0, n_steps + 1, save_every))
    if save_idx[-1] != n_steps:
        save_idx.append(n_steps)
    save_set = {k: i for i, k in enumerate(save_idx)}
    S, K = len(save_idx), len(names)
    int_names = [n for n in names if n.startswith("int_")]

    total_n, total_mean, total_M2 = 0, np.zeros((S, K)), np.zeros((S, K))
    for start in range(0, ensemble_size, chunk):
        idxs = range(start, min(start + chunk, ensemble_size))
        P = len(idxs)
        inc = np.empty((P, n_steps, noise.n_modes))
        for i, pidx in enumerate(idxs):
            inc[i] = increments_for_path(noise, n_steps, config.dt, master_seed, pidx)
        cums = {n: np.zeros(P) for n in int_names}
        samples = np.empty((S, P, K))
        for k, t, Z, _ in _time_loop(config, dom, drift, noise,
                                     np.repeat(starts, P, axis=0), inc):
            C, CY = Z[:P], (Z[P:] if Y0 is not None else None)
            if k in save_set:
                samples[save_set[k]] = _eval_observables(names, dom, drift, t, C,
                                                         CY, cums)
            if k < n_steps:
                for n in int_names:  # left-endpoint rule, matching the step scheme
                    cums[n] += config.dt * _eval_plain(n[4:], dom, drift, t, C, CY, {})
        chunk_mean = samples.mean(axis=1)
        chunk_M2 = np.sum((samples - chunk_mean[:, None, :]) ** 2, axis=1)
        total_n, total_mean, total_M2 = _merge_moments(
            total_n, total_mean, total_M2, P, chunk_mean, chunk_M2)

    var = total_M2 / (total_n - 1)
    var = np.maximum(var, 0.0)
    se = np.sqrt(var / total_n)
    times = np.asarray(save_idx, dtype=float) * config.dt
    return StatTable(times=times, names=names, mean=total_mean, var=var, se=se,
                     n_paths=total_n)
