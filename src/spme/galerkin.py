"""Time integration of the spectral Galerkin system and ensemble statistics.

Two Euler--Maruyama flavours are provided.  The explicit scheme works for
every fractional order ``alpha`` but is protected by a stability guard
``dt * lam_m * sup|Psi'| <= 2`` evaluated on the observed state range; the
semi-implicit scheme treats the stiff monotone term by a damped Newton solve
on the grid (tridiagonal Jacobian) and is available for the full Laplacian
(``alpha = 1``) only.

Both flavours share one step on a ``(P, n_grid)`` batch of coefficient rows
and one time loop, driven by ``simulate`` (one row), ``simulate_pair`` (X and
Y as two rows on one path's increments) and ``monte_carlo``.  Per-path noise
comes from the dedicated streams in :mod:`spme.noise`, so a trajectory is a
function of ``(master_seed, path_idx, config)``: bitwise for a fixed batching
(config, seed, chunk), and up to rounding across batchings, since a one-row
transform (matrix-vector product) and a batched one (matrix-matrix product)
may differ in the last bits.  So a ``simulate_pair`` trajectory agrees with
its own ``simulate`` run up to rounding.

scipy is needed only by the semi-implicit scheme: its LAPACK ``gtsv`` is
imported at the first tridiagonal solve, so a process that never takes a
semi-implicit step (explicit runs, the condition certificates, the OU closed
form) never loads scipy, whose import costs more than numpy's.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .drift import DriftSpec, drift_coeffs, phi0_eval, psi_eval, psi_prime, psi_prime_max, young_modular
from .noise import NoiseSpec, increments_for_path, path_stream
from .triple import Field, SpectralDomain

SCHEMES = ("explicit", "semi-implicit")

#: Newton Jacobian entries use Psi' clamped at 1/_JACOBIAN_FLOOR so the
#: singular fast-diffusion derivative cannot poison the linear solve.  The
#: clamp affects only the solver path; residuals use the exact Psi.
_JACOBIAN_FLOOR = 1e-8

#: Byte budget of one time block of ensemble increments: a batch of P paths
#: draws max(1, _BLOCK_BYTES // (8 * P * n_modes)) steps at a time, into one
#: of two blocks, so a batch holds at most two blocks.
_BLOCK_BYTES = 1 << 23


class BlowUpError(RuntimeError):
    """State left the finite range.

    ``path`` is the first non-finite row (as a path index) and ``step`` the
    1-based time step, None where unknown.
    """

    def __init__(self, message: str, step: int | None = None, path: int | None = None):
        super().__init__(message)
        self.step, self.path = step, path


class StabilityError(RuntimeError):
    """Explicit stability guard violated.

    ``path`` is the row holding the batch's largest |value| (as a path index)
    and ``step`` the 1-based time step; every time loop sets both, and only a
    direct ``_StepPlan.step`` call leaves them None.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.path = self.step = None

    def __str__(self):
        where = "" if self.step is None else f" (path {self.path}, step {self.step})"
        return super().__str__() + where


class ConvergenceError(RuntimeError):
    """Newton did not reach the residual tolerance.

    ``path`` is the first failing row in index order (the solver sees batch
    rows; the time loop turns it into the path index) and
    ``step`` the 1-based time step, None where unknown.
    """

    def __init__(self, detail: str, path: int | None = None, step: int | None = None):
        super().__init__(detail)
        self.detail, self.path, self.step = detail, path, step

    def __str__(self):
        path = "" if self.path is None else f" for path {self.path}"
        step = "" if self.step is None else f" at step {self.step}"
        return f"implicit solve{path}{step} {self.detail}"


class UnsupportedSchemeError(RuntimeError):
    """Scheme/domain combination not available."""


class _NonFiniteSystem(ValueError):
    """``solve_banded`` refused a system with an inf or a NaN in it."""


def write_csv(path, header, rows) -> None:
    """Write one table: a header line, then one line per row.

    Floats are written ``.17g``, which parses back to the same double; every
    other cell with ``str``.  Lines end in ``\\n`` on every platform.  Rows of
    Python floats (``array.tolist()``) format fastest.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")


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
        # A budget of 2.5 or inf passes `>= 1` but never meets the Newton loop's
        # `it == max_iter` test; an infinite tolerance accepts the right side unsolved.
        if not (0 < self.implicit_tol < math.inf):
            raise ValueError("implicit_tol must be positive and finite")
        if (isinstance(self.implicit_max_iter, bool)
                or not isinstance(self.implicit_max_iter, (int, np.integer))
                or self.implicit_max_iter < 1):
            raise ValueError("implicit_max_iter must be an integer >= 1")

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
        header = ["t"] + [f"mode_{k}" for k in range(1, self.dom.n_grid + 1)]
        # One row at a time: the table is never held whole.
        write_csv(path, header, ([t, *s.coeffs.tolist()]
                                 for t, s in zip(self.times.tolist(), self.states)))


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
    """The Dirichlet grid Laplacian applied along the last axis."""
    out = -2.0 * vals
    out[..., :-1] += vals[..., 1:]
    out[..., 1:] += vals[..., :-1]
    out /= h**2
    return out


@functools.cache
def _dgtsv():
    """scipy's LAPACK ``dgtsv``, imported at the first call."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded((1, 1), ab, b)`` without its per-call dispatch.

    The same finiteness check, errors and LAPACK ``gtsv`` call (a 1x1 system
    is divided out), so the solution is bitwise scipy's.  The finiteness
    error is a ``ValueError`` of its own type, so the Newton loop can tell
    it apart.  scipy is imported at the first system that passes the check
    and is larger than 1x1, and only then: no other spme code needs it.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise _NonFiniteSystem("array must not contain infs or NaNs")
    if len(b) == 1:
        return b / ab[1]
    x, info = _dgtsv()(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _implicit_residual(psi, t, u, b, dt, h):
    """The residual u - dt * L_h Psi(t, u) - b and its max norm, per row."""
    res = u - dt * _tridiag_L(psi_eval(psi, t, u), h) - b
    return res, np.abs(res).max(axis=-1)


def _newton_implicit(dom, psi, t, b, dt, tol, max_iter):
    """Solve u - dt * L_h Psi(t, u) = b for every row of b by damped Newton.

    Rows are independent: each keeps its own step size and is frozen once
    its residual reaches ``tol``, so every row takes the arithmetic of a
    one-row solve.  The active rows' tridiagonal Jacobians go into one
    block-diagonal banded solve per iteration (zero coupling entries).
    Residual tests are written ``~(r <= bound)`` so a NaN residual never
    counts as converged or accepted.  A row that overflowed (an inf or a NaN
    in its Jacobian or residual, which the banded solve refuses) comes back
    NaN, for the time loop to report as a blow-up; the iteration is taken
    again for the other rows, and not counted, so each keeps the budget of
    its own solve.
    """
    h, gamma = dom.h, dt / dom.h**2
    u = b.copy()
    res, rnorm = _implicit_residual(psi, t, u, b, dt, h)
    r_best = rnorm.copy()
    it = 0
    while True:
        act = (~(rnorm <= tol)).nonzero()[0]
        if act.size == 0:
            return u
        if it == max_iter:
            break
        # With every row active (always so for one row) nothing is gathered.
        full = act.size == len(u)
        ua, ra, ba, r0 = (u, res, b, rnorm) if full else (u[act], res[act], b[act], rnorm[act])
        k, n = ua.shape
        pp = np.minimum(psi_prime(psi, t, ua), 1.0 / _JACOBIAN_FLOOR)
        ab = np.empty((3, k, n))
        np.multiply(pp, -gamma, out=ab[0])
        ab[2] = ab[0]
        ab[0, :, 0] = ab[2, :, -1] = 0.0  # no coupling between rows
        np.multiply(pp, 2.0 * gamma, out=ab[1])
        ab[1] += 1.0
        try:
            du = solve_banded(ab.reshape(3, k * n), -ra.ravel()).reshape(k, n)
        except _NonFiniteSystem:
            bad = act[~(np.isfinite(ab).all(axis=(0, 2)) & np.isfinite(ra).all(axis=-1))]
            u[bad], rnorm[bad] = np.nan, 0.0  # NaN, and out of the active set
            continue
        it += 1
        u_try = ua + du
        res_try, r_try = _implicit_residual(psi, t, u_try, ba, dt, h)
        # Rows still backtracking all share the halved step, down to 1/128.
        step = 1.0
        back = (~(r_try <= 0.5 * r0)).nonzero()[0]
        while back.size:
            step *= 0.5
            rows = slice(None) if back.size == k else back
            u_back = ua[rows] + step * du[rows]
            res_back, r_back = _implicit_residual(psi, t, u_back, ba[rows], dt, h)
            u_try[rows], res_try[rows], r_try[rows] = u_back, res_back, r_back
            if step < 1.0 / 64.0:
                break
            back = back[~(r_back <= (1.0 - 0.5 * step) * r0[rows])]
        if full:
            u, res, rnorm = u_try, res_try, r_try
        else:
            u[act], res[act], rnorm[act] = u_try, res_try, r_try
        np.fmin(r_best, rnorm, out=r_best)
    row = int(act[0])
    raise ConvergenceError(
        f"did not converge within {max_iter} iterations "
        f"(best residual {r_best[row]:.3e}, tolerance {tol:.1e})", path=row
    )


class _StepPlan:
    """What one time loop fixes before its first step; ``step`` does the arithmetic.

    The scheme branch and its alpha check, the noise amplitudes, whether
    Phi_0 has terms, whether a semi-implicit step adds noise at all, and the
    loop's stability guard.  The drift and solver functions stay module
    globals, looked up at each call.
    """

    def __init__(self, config: StepperConfig, dom, drift, noise):
        self.explicit = config.scheme == "explicit"
        if not self.explicit and abs(dom.alpha - 1.0) > 1e-12:
            raise UnsupportedSchemeError(
                "the semi-implicit Newton path requires the full Laplacian "
                f"(alpha=1); got alpha={dom.alpha}.  Fall back to the explicit scheme."
            )
        self.config, self.dom, self.drift, self.noise = config, dom, drift, noise
        self.sigma = noise.sigma_array()
        self.phi0 = bool(drift.phi.phi0_terms)
        # With every sigma_k = 0 and no Phi_0 terms the implicit right side
        # b = values + dt * rhs holds no -0.0 (rhs has +0.0 added), so adding
        # the synthesis of the +-0 noise coefficients would change no bit.
        # The explicit step adds it: there + noise can turn -0.0 into +0.0.
        self.adds_noise = self.explicit or self.phi0 or bool(self.sigma.any())
        # Additive noise: the ledger record rho sigma is sigma on every row.
        self._sigma_rows = np.broadcast_to(self.sigma, (1, len(self.sigma)))
        self.guard = _StabilityGuard(dom, drift, config.dt, config.n_modes)

    def step(self, t, C, dW, records=False):
        """Advance the batch C (B*P, n_grid) by one step.

        C stacks B blocks of P rows, and every block takes the increments dW
        (P, n_modes); row p has its own amplitude rho(|C_p|_H).  Returns the
        new batch and, when ``records`` is set, the pair (A(t, C),
        rho(|C|_H) sigma) that the Ito ledger needs, else None.
        """
        config, dom, drift, noise = self.config, self.dom, self.drift, self.noise
        dt, m = config.dt, config.n_modes
        if noise.mult is None:
            z = self.sigma
        else:
            z = noise.mult(np.sqrt(dom.h_pair(C, C)))[:, None] * self.sigma
        if self.adds_noise:
            noise_c = np.zeros(C.shape)
            blocks = noise_c.reshape(-1, len(dW), dom.n_grid)[..., :noise.n_modes]
            blocks[...] = (z if noise.mult is None else z.reshape(blocks.shape)) * dW
        values = dom.from_spectral(C)
        if self.explicit:
            s_max = float(np.abs(values).max())
            if math.isfinite(s_max):
                self.guard.check(s_max, t)
            A = drift_coeffs(dom, drift, t, values, C)
            new = C + dt * A
            new += noise_c
            new[:, m:] = 0.0
        else:
            rhs = drift.phi.h_at(t) * values
            # Without Phi_0 terms a zero is still added, for its bits (-0.0 + 0.0 is +0.0).
            rhs += phi0_eval(drift.phi, values) if self.phi0 else 0.0
            b = values + dt * rhs
            if self.adds_noise:
                b += dom.from_spectral(noise_c)
            U = _newton_implicit(dom, drift.psi, t, b, dt, config.implicit_tol,
                                 config.implicit_max_iter)
            new = dom.to_spectral(U)
            new[:, m:] = 0.0
            A = drift_coeffs(dom, drift, t, values, C) if records else None
        if not records:
            return new, None
        if noise.mult is None:
            if len(self._sigma_rows) != len(C):
                self._sigma_rows = np.broadcast_to(z, (len(C), noise.n_modes))
            z = self._sigma_rows
        return new, (A, z)


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


def _time_loop(plan: _StepPlan, C, increments, first_path, records=False):
    """Yield ``(k, t_k, C_k, rec)`` for k = 0..n_steps, starting from batch C.

    ``increments`` yields each step's increments of P paths, shape
    (P, n_modes), numbered from ``first_path``; C stacks blocks of P rows (X,
    then Y in a paired run) and every block takes the same increments.
    ``rec`` is the ledger record of the step that led to C_k (None at k = 0
    or without ``records``).  Step failures leave with the path and the step.
    """
    dom, dt = plan.dom, plan.config.dt
    yield 0, 0.0, C, None
    for k, dW in zip(range(plan.config.n_steps), increments):
        t = k * dt
        P = len(dW)
        try:
            C, rec = plan.step(t, C, dW, records)
        except ConvergenceError as err:
            err.path, err.step = first_path + err.path % P, k + 1
            raise
        except StabilityError as err:
            row = int(np.argmax(np.abs(dom.from_spectral(C)).max(axis=-1)))
            err.path, err.step = first_path + row % P, k + 1
            raise
        if not np.isfinite(C).all():
            row = int(np.argmin(np.isfinite(C).all(axis=-1)))
            raise BlowUpError(
                f"non-finite state at step {k + 1} (t={t + dt:.6g})", step=k + 1,
                path=first_path + row % P,
            )
        yield k + 1, (k + 1) * dt, C, rec


def _simulate_rows(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
                   noise: NoiseSpec, starts, master_seed: int, path_idx: int,
                   increments: np.ndarray | None) -> list:
    """Run the start fields as one batch on one path's increments.

    Returns one ``Trajectory`` per start, each with its own ledger records
    when ``config.record_ito`` asks; the increments array is shared.
    """
    C0 = _initial_rows(config, dom, noise, starts)
    plan = _StepPlan(config, dom, drift, noise)
    n_steps = config.n_steps
    if increments is None:
        increments = increments_for_path(noise, n_steps, config.dt, master_seed, path_idx)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, noise.n_modes):
            raise ValueError("increments must have shape (n_steps, n_modes)")

    states = [[] for _ in starts]
    drift_rec = np.empty((len(starts), n_steps, dom.n_grid)) if config.record_ito else None
    diff_rec = np.empty((len(starts), n_steps, noise.n_modes)) if config.record_ito else None
    # Overflow is the blow-up that the time loop reports; keep it silent.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, _, C, rec in _time_loop(plan, C0, increments[:, None], path_idx,
                                       config.record_ito):
            for rows, row in zip(states, C):
                rows.append(Field.from_coeffs(dom, row))
            if rec is not None:
                drift_rec[:, k - 1], diff_rec[:, k - 1] = rec

    times = np.arange(n_steps + 1) * config.dt
    return [Trajectory(dom=dom, times=times, states=rows, path_seed=(master_seed, path_idx),
                       drift_record=None if drift_rec is None else drift_rec[i],
                       diffusion_record=None if diff_rec is None else diff_rec[i],
                       increments=increments if config.record_ito else None)
            for i, rows in enumerate(states)]


def simulate(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
             noise: NoiseSpec, X0: Field, master_seed: int, path_idx: int = 0,
             increments: np.ndarray | None = None) -> Trajectory:
    """Integrate one path; deterministic in (master_seed, path_idx, config)."""
    return _simulate_rows(config, dom, drift, noise, [X0], master_seed, path_idx,
                          increments)[0]


def simulate_pair(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
                  noise: NoiseSpec, X0: Field, Y0: Field, seed: int):
    """Two trajectories driven by the identical Brownian increments of path 0.

    X and Y run as one 2-row batch, the layout of ``monte_carlo(..., Y0=...)``
    with one path, so each agrees with its own ``simulate`` run up to rounding
    (a 2-row transform is a matrix product, a 1-row one a matrix-vector
    product).  A failing row is reported as path 0 at its step; the explicit
    stability guard watches the state range of both rows.
    """
    return tuple(_simulate_rows(config, dom, drift, noise, [X0, Y0], seed, 0, None))


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
        header = ["t"] + [f"{name}_{m}" for name in self.names for m in ("mean", "var", "se")]
        cols = np.stack([self.mean, self.var, self.se], axis=-1).reshape(len(self.times), -1)
        write_csv(path, header, np.column_stack([self.times, cols]).tolist())


_PLAIN_OBSERVABLES = ("h_norm_sq", "modular", "R", "sup_abs", "dist_sq",
                      "drift_norm_sq")


def _is_plain(name: str, paired: bool) -> bool:
    if name in _PLAIN_OBSERVABLES:
        if name == "dist_sq" and not paired:
            raise ValueError("dist_sq requires a paired ensemble (Y0 given)")
        return True
    return name.startswith("mode_") and name[5:].isdigit() and int(name[5:]) >= 1


def check_observables(names, paired: bool, n_grid: int) -> None:
    """Raise ValueError for a name that ``monte_carlo`` cannot compute on n_grid points."""
    if not names:
        raise ValueError("at least one observable is required")
    for name in names:
        base = name[4:] if name.startswith("int_") else name
        if not base or not _is_plain(base, paired):
            raise ValueError(f"unknown observable {name!r}")
        if base.startswith("mode_") and int(base[5:]) > n_grid:
            raise ValueError(f"observable {name!r}: mode index out of range 1..{n_grid}")


class _Observables(dict):
    """The plain observables of a batch C at time t, each computed on first lookup.

    ``"values"``, the grid view that the grid-based observables share, is an
    entry like the others, so it too is computed at most once.
    """

    def __init__(self, dom, drift, t, C, CY):
        super().__init__()
        self.dom, self.drift, self.t, self.C, self.CY = dom, drift, t, C, CY

    def __missing__(self, name):
        self[name] = value = self._eval(name)
        return value

    def _eval(self, name):
        dom, C = self.dom, self.C
        if name == "values":
            return dom.from_spectral(C)
        if name == "h_norm_sq":
            return dom.h_pair(C, C)
        if name == "dist_sq":
            D = C - self.CY
            return dom.h_pair(D, D)
        if name == "drift_norm_sq":
            A = drift_coeffs(dom, self.drift, self.t, self["values"], C)
            return dom.h_pair(A, A)
        if name == "modular":
            return np.atleast_1d(young_modular(dom, self.drift.psi, self["values"]))
        if name == "R":
            return self["modular"] + self["h_norm_sq"]
        if name == "sup_abs":
            return np.abs(self["values"]).max(axis=-1)
        return C[:, int(name[5:]) - 1]


def _merge_moments(nA, meanA, M2A, nB, meanB, M2B):
    if nA == 0:
        return nB, meanB, M2B
    delta = meanB - meanA
    n = nA + nB
    mean = meanA + delta * (nB / n)
    M2 = M2A + M2B + delta * delta * (nA * nB / n)
    return n, mean, M2


def _increment_steps(noise: NoiseSpec, config: StepperConfig, master_seed: int,
                     first: int, P: int):
    """Yield each step's increments of paths first..first+P-1, shape (P, n_modes).

    Every path keeps its own stream, continued one time block at a time, so
    the numbers are those of a whole-path draw.  One worker thread draws
    block k+1 while the caller steps block k, in one block-form
    ``increments_for_path`` call that fills each path's rows from its own
    stream and scales the block once.  The two blocks are path-major
    (P, width, n_modes) arrays of at most ``_BLOCK_BYTES`` each, and step j
    of a block is the strided view ``block[:, j]``.  An error in a draw is
    raised here as it is; returning, raising or closing the generator joins
    the worker.
    """
    n_steps, m = config.n_steps, noise.n_modes
    width = max(1, min(n_steps, _BLOCK_BYTES // (8 * P * m)))
    starts = range(0, n_steps, width)
    streams = [path_stream(master_seed, p) for p in range(first, first + P)]
    blocks = [np.empty((P, width, m)) for _ in range(min(2, len(starts)))]

    def draw(j):
        n = min(width, n_steps - starts[j])
        return increments_for_path(noise, n, config.dt, master_seed, first,
                                   stream=streams, out=blocks[j % 2][:, :n])

    with ThreadPoolExecutor(max_workers=1) as worker:
        drawn = worker.submit(draw, 0)
        for j in range(len(starts)):
            block = drawn.result()
            if j + 1 < len(starts):
                drawn = worker.submit(draw, j + 1)
            yield from block.swapaxes(0, 1)


def monte_carlo(config: StepperConfig, dom: SpectralDomain, drift: DriftSpec,
                noise: NoiseSpec, X0: Field, master_seed: int, ensemble_size: int,
                observables, Y0: Field | None = None, save_every: int = 1,
                chunk: int = 1024) -> StatTable:
    """Ensemble statistics of the requested observables at the save times.

    Paths run in batches of ``chunk``; with ``Y0`` each batch stacks its Y
    paths below its X paths on the same increments.  The default batch is
    the size past which the cost per path-step stops falling.  Increments are
    drawn in time blocks and each save time is reduced as the loop reaches
    it, so memory is O(chunk * n_grid) plus two blocks (``_BLOCK_BYTES``
    each), whatever the number of steps.  Each batch's blocks are drawn on a
    worker thread, which is joined before this returns or raises.  Batch
    moments are combined with the parallel mean/M2 merge.  The result is
    bitwise reproducible for a fixed chunk; other chunkings agree up to
    rounding (see the module docstring).
    A non-finite moment of finite states (overflow in the reduction) raises
    ``BlowUpError`` at the first save step where it occurs.
    """
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be at least 2")
    if save_every < 1:
        raise ValueError("save_every must be at least 1")
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    names = tuple(observables)
    check_observables(names, paired=Y0 is not None, n_grid=dom.n_grid)
    starts = _initial_rows(config, dom, noise, [X0] if Y0 is None else [X0, Y0])
    n_steps = config.n_steps
    save_idx = list(range(0, n_steps + 1, save_every))
    if save_idx[-1] != n_steps:
        save_idx.append(n_steps)
    save_set = {k: i for i, k in enumerate(save_idx)}
    S, K = len(save_idx), len(names)

    total_n, total_mean, total_M2 = 0, np.zeros((S, K)), np.zeros((S, K))
    # Overflow, of a state or of a moment of finite states, is the blow-up
    # that the time loop or the check below reports; keep it silent.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, ensemble_size, chunk):
            P = min(chunk, ensemble_size - start)
            plan = _StepPlan(config, dom, drift, noise)
            cums = {n: np.zeros(P) for n in names if n.startswith("int_")}
            mean, M2 = np.empty((S, K)), np.empty((S, K))
            with closing(_increment_steps(noise, config, master_seed, start, P)) as steps:
                for k, t, Z, _ in _time_loop(plan, np.repeat(starts, P, axis=0), steps, start):
                    obs = _Observables(dom, drift, t, Z[:P], Z[P:] if Y0 is not None else None)
                    if k in save_set:
                        x = np.stack([cums[n] if n in cums else obs[n] for n in names],
                                     axis=-1)
                        i = save_set[k]
                        mean[i] = x.mean(axis=0)
                        M2[i] = np.sum((x - mean[i]) ** 2, axis=0)
                    if k < n_steps:
                        for n in cums:  # left-endpoint rule, matching the step scheme
                            cums[n] += config.dt * obs[n[4:]]
            total_n, total_mean, total_M2 = _merge_moments(
                total_n, total_mean, total_M2, P, mean, M2)
            finite = np.isfinite(total_mean).all(axis=-1) & np.isfinite(total_M2).all(axis=-1)
            if not finite.all():
                step = save_idx[int(np.argmin(finite))]
                raise BlowUpError(f"non-finite ensemble moment at step {step} "
                                  f"(t={step * config.dt:.6g})", step=step)

    var = total_M2 / (total_n - 1)
    var = np.maximum(var, 0.0)
    se = np.sqrt(var / total_n)
    times = np.asarray(save_idx, dtype=float) * config.dt
    return StatTable(times=times, names=names, mean=total_mean, var=var, se=se,
                     n_paths=total_n)
