"""Checks of predicted behaviour along simulated trajectories.

Every stochastic pass/fail decision uses a 3-standard-error band from the
ensemble; the two deterministic skeletons (the sigma=0 Ito ledger and the
weighted energy telescope) are exact identities and are checked to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import DriftSpec
from .galerkin import StatTable, StepperConfig, Trajectory, simulate, write_csv
from .noise import NoiseSpec, increments_for_path, refine_increments
from .triple import Field, SpectralDomain


# ---------------------------------------------------------------------------
# Ito ledger
# ---------------------------------------------------------------------------

#: Bytes of coefficient rows the ledger evaluates at a time (128 rows at
#: n_grid 256): small enough that a block and its temporaries stay in cache.
_LEDGER_BLOCK_BYTES = 1 << 18


def _compensated_cumsum(values: np.ndarray) -> np.ndarray:
    # The ledger cancels O(|X|_H^2) quantities down to the O(dt^2) remainder,
    # so a plain running sum leaks ~1 ulp of the running total per step into
    # the residual.  Neumaier's correction keeps every partial sum accurate to
    # ~1 ulp of its true value regardless of length.
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, x in enumerate(values.tolist()):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out[i] = total + comp
    return out


@dataclass(frozen=True)
class ItoLedger:
    """Discrete bookkeeping of the squared-norm expansion along one path.

    Per step: the pairing term 2<Y_k, X_k>, the Hilbert--Schmidt term, and
    the martingale increment 2<Z_k dW_k, X_k>_H; ``residuals[k]`` is the gap
    between |X_k|_H^2 and the accumulated right-hand side.
    """

    times: np.ndarray
    h_norm_sq: np.ndarray
    pairing: np.ndarray
    hs: np.ndarray
    martingale: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    def to_csv(self, path) -> None:
        pad = [np.nan]  # per-step columns are one shorter than the time grid
        cols = [self.times, self.h_norm_sq, np.concatenate([self.pairing, pad]),
                np.concatenate([self.hs, pad]), np.concatenate([self.martingale, pad]),
                self.residuals]
        write_csv(path, ["t", "h_norm_sq", "pairing", "hs", "martingale", "residual"],
                  np.column_stack(cols).tolist())


def ito_ledger(traj: Trajectory) -> ItoLedger:
    if traj.drift_record is None or traj.diffusion_record is None or traj.increments is None:
        raise ValueError(
            "trajectory lacks the Ito records; simulate with record_ito=True"
        )
    dom, states = traj.dom, traj.states
    Y, Z, dW = traj.drift_record, traj.diffusion_record, traj.increments
    n_steps, m = Z.shape
    lam_n = dom.lam[:m]
    hn = np.empty(n_steps + 1)
    pairing, hs, mart, hn_step = (np.empty(n_steps) for _ in range(4))
    # The per-step terms are row sums, so they are evaluated a block of
    # states at a time and the coefficient matrix is never held whole.  Row
    # 0 of the block is the last state of the block before: step k pairs
    # X_k with X_{k+1}.
    rows = max(1, _LEDGER_BLOCK_BYTES // (8 * dom.n_grid))
    X = np.empty((min(rows, n_steps) + 1, dom.n_grid))
    X[0] = states[0].coeffs
    hn[0] = dom.h_pair(X[0], X[0])
    for a in range(0, n_steps, rows):
        b = min(a + rows, n_steps)
        X_k, X_next = X[:b - a], X[1:b - a + 1]
        np.stack([s.coeffs for s in states[a + 1:b + 1]], out=X_next)
        hn[a + 1:b + 1] = dom.h_pair(X_next, X_next)
        pairing[a:b] = 2.0 * dom.h_pair(Y[a:b], X_k)
        Z_k = Z[a:b]
        hs[a:b] = np.sum(Z_k * Z_k / lam_n, axis=1)
        mart[a:b] = 2.0 * np.sum(Z_k * dW[a:b] * X_k[:, :m] / lam_n, axis=1)
        # The residual is |X_k|_H^2 minus the accumulated right-hand side,
        # but evaluating it as hn - cumsum(...) cancels O(|X|_H^2) quantities
        # down to an O(dt^2) remainder and loses ~ulp(|X|_H^2) per norm
        # evaluation.  The telescoped form sums a^2 - b^2 = (a-b)(a+b) mode
        # by mode, which keeps every term at the size of the actual increment.
        hn_step[a:b] = dom.h_pair(X_next - X_k, X_next + X_k)
        X[0] = X_next[-1]
    dt = np.diff(traj.times)
    increments = (pairing + hs) * dt + mart
    residuals = np.concatenate([[0.0], _compensated_cumsum(hn_step - increments)])
    return ItoLedger(times=traj.times, h_norm_sq=hn, pairing=pairing, hs=hs,
                     martingale=mart, residuals=residuals)


@dataclass(frozen=True)
class ItoStudy:
    """Ledger gaps under dt halving; ``ledger`` is the finest level's ledger."""

    dts: tuple
    max_residuals: tuple
    order: float
    ledger: ItoLedger

    @property
    def monotone(self) -> bool:
        return all(a > b for a, b in zip(self.max_residuals, self.max_residuals[1:]))

    @property
    def passed(self) -> bool:
        return self.monotone and self.order >= 0.8

    def summary(self) -> str:
        if not self.monotone:
            return f"FAIL ito-refinement: residuals not monotone {self.max_residuals}"
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} ito-refinement: order={self.order:.3f} >= 0.8 over "
                f"dts={list(self.dts)} (max residuals {list(self.max_residuals)})")


def ito_refinement_study(dom: SpectralDomain, drift: DriftSpec, noise: NoiseSpec,
                         X0: Field, master_seed: int, T: float, n_modes: int,
                         dts, scheme: str = "explicit",
                         implicit_tol=StepperConfig.implicit_tol,
                         implicit_max_iter=StepperConfig.implicit_max_iter) -> ItoStudy:
    """Ledger gap under dt halving on one coupled Brownian path."""
    dts = tuple(dts)
    if len(dts) < 2:
        raise ValueError("need at least two step sizes to fit an order")
    for a, b in zip(dts, dts[1:]):
        if abs(a - 2 * b) > 1e-12 * a:
            raise ValueError("dts must halve: each entry twice the next")
    inc = increments_for_path(noise, round(T / dts[0]), dts[0], master_seed, 0)
    residuals = []
    for level, dt in enumerate(dts):
        if level > 0:
            inc = refine_increments(inc, dts[level - 1], master_seed, 0, level=level)
        cfg = StepperConfig(dt, T, n_modes, scheme, implicit_tol, implicit_max_iter,
                            record_ito=True)
        ledger = ito_ledger(simulate(cfg, dom, drift, noise, X0, master_seed, 0,
                                     increments=inc))
        residuals.append(ledger.max_residual)
    # Gap ~ dt^order, so the log-log slope is the order itself.
    order = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    return ItoStudy(dts=dts, max_residuals=tuple(residuals), order=order, ledger=ledger)


# ---------------------------------------------------------------------------
# Contraction of coupled pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionReport:
    slope: float
    slope_se: float
    declared_c: float
    passed: bool
    n_paths: int
    times_used: np.ndarray
    log_means: np.ndarray
    group_slopes: tuple | None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} contraction: slope={self.slope:.6g} <= "
                f"c={self.declared_c:.6g} + 3*{self.slope_se:.3g} "
                f"(n={self.n_paths} pairs, {len(self.times_used)} times)")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "log_mean_dist_sq"],
                  np.column_stack([self.times_used, self.log_means]).tolist())


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.sum(xc * y) / np.sum(xc * xc))


def contraction_test(stats, declared_c: float, transient_fraction: float = 0.1,
                     floor: float = 1e-12) -> ContractionReport:
    """Fit the exponential rate of E|X_t - Y_t|_H^2 and compare to c.

    ``stats`` is one StatTable with a ``dist_sq`` column, or a sequence of
    equally-sized group tables; group slopes then provide the standard error
    of the fit (the per-time errors of a single table are treated as
    independent, which understates correlated fluctuations).
    """
    tables = [stats] if isinstance(stats, StatTable) else list(stats)
    n_paths = sum(t.n_paths for t in tables)
    if n_paths < 100:
        raise ValueError("contraction test requires at least 100 pairs")
    times = tables[0].times
    for t in tables[1:]:
        if not np.array_equal(t.times, times) or t.n_paths != tables[0].n_paths:
            raise ValueError("group tables must share times and ensemble size")
    means = np.stack([t.mean_of("dist_sq") for t in tables])
    pooled = means.mean(axis=0)
    mask = (times >= transient_fraction * times[-1]) & (pooled > floor)
    mask &= np.all(means > floor, axis=0)
    if np.count_nonzero(mask) < 2:
        raise ValueError(
            "undefined slope: fewer than two usable times above the floor "
            "(identical initial conditions?)"
        )
    x, y = times[mask], np.log(pooled[mask])
    slope = _ols_slope(x, y)
    if len(tables) > 1:
        gslopes = tuple(_ols_slope(x, np.log(m[mask])) for m in means)
        se = float(np.std(gslopes, ddof=1) / math.sqrt(len(gslopes)))
    else:
        gslopes = None
        xc = x - x.mean()
        coef = xc / np.sum(xc * xc)
        se_log = tables[0].se_of("dist_sq")[mask] / pooled[mask]
        se = float(np.sqrt(np.sum(coef**2 * se_log**2)))
    passed = slope <= declared_c + 3.0 * se
    return ContractionReport(slope=slope, slope_se=se, declared_c=declared_c,
                             passed=passed, n_paths=n_paths, times_used=x,
                             log_means=y, group_slopes=gslopes)


# ---------------------------------------------------------------------------
# Integrated energy bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    band: np.ndarray
    passed: bool
    first_violation: float | None
    sup_mean_h_norm_sq: float
    constants: dict
    n_paths: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = "" if self.first_violation is None else f" first violation at t={self.first_violation:.6g};"
        return (f"{status} energy: weighted norm + c2*modular integral stays below "
                f"the budget (c1={self.constants['c1']:.6g}, c2={self.constants['c2']:.6g}, "
                f"f={self.constants['f_h3']:.6g});{where} "
                f"sup_t E|X|_H^2={self.sup_mean_h_norm_sq:.6g} (n={self.n_paths})")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "lhs", "rhs", "band"],
                  np.column_stack([self.times, self.lhs, self.rhs, self.band]).tolist())


def energy_estimate(stats: StatTable, constants: dict, dt: float) -> EnergyReport:
    """Discrete weighted energy inequality along the saved grid.

    Requires ``stats`` saved at every step with columns ``h_norm_sq``, ``R``
    and ``drift_norm_sq``.  With weights w_k = (1+c1 dt)^{-k} the explicit
    update telescopes exactly into

        w_K E|X_K|^2 + c2 dt sum_{j<K} w_{j+1} E R_j
          <= E|X_0|^2 + f dt sum_{j<K} w_{j+1} + dt^2 sum_{j<K} w_{j+1} E|A_j|_H^2,

    so the zero-drift/zero-noise case closes with equality and violations of
    the dissipation inequality surface without tolerance tuning.
    """
    times = stats.times
    if len(times) < 2 or not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("energy check requires statistics saved at every step")
    c1, c2, f = constants["c1"], constants["c2"], constants["f_h3"]
    n = len(times) - 1
    w = (1.0 + c1 * dt) ** (-np.arange(n + 1, dtype=float))
    mh, sh = stats.mean_of("h_norm_sq"), stats.se_of("h_norm_sq")
    mR, sR = stats.mean_of("R"), stats.se_of("R")
    mA, sA = stats.mean_of("drift_norm_sq"), stats.se_of("drift_norm_sq")
    wR = np.concatenate([[0.0], np.cumsum(w[1:] * mR[:-1])])
    wA = np.concatenate([[0.0], np.cumsum(w[1:] * mA[:-1])])
    wF = np.concatenate([[0.0], np.cumsum(w[1:])])
    lhs = w * mh + c2 * dt * wR
    rhs = mh[0] + f * dt * wF + dt**2 * wA
    se_lhs = w * sh + c2 * dt * np.concatenate([[0.0], np.cumsum(w[1:] * sR[:-1])])
    se_rhs = sh[0] + dt**2 * np.concatenate([[0.0], np.cumsum(w[1:] * sA[:-1])])
    band = 3.0 * (se_lhs + se_rhs)
    margins = rhs + band - lhs
    bad = np.nonzero(margins < 0)[0]
    first = float(times[bad[0]]) if bad.size else None
    return EnergyReport(times=times, lhs=lhs, rhs=rhs, band=band,
                        passed=bad.size == 0, first_violation=first,
                        sup_mean_h_norm_sq=float(np.max(mh)),
                        constants=dict(constants), n_paths=stats.n_paths)


# ---------------------------------------------------------------------------
# Extinction probe
# ---------------------------------------------------------------------------


def extinction_time(traj: Trajectory, eps: float):
    """First saved time with sup-norm below eps, or None."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    for t, state in zip(traj.times, traj.states):
        if np.max(np.abs(state.values)) < eps:
            return float(t)
    return None


# ---------------------------------------------------------------------------
# Closed-form linear oracle
# ---------------------------------------------------------------------------


def is_linear_additive(drift: DriftSpec, noise: NoiseSpec) -> bool:
    """Whether the model is the linear equation (Psi = id, Phi = 0) with
    additive noise, the one setting with closed-form moments and rate."""
    psi, phi = drift.psi, drift.phi
    return (psi.terms == ((1.0, 1.0),) and psi.modulation is None and phi.h_const == 0.0
            and phi.h_func is None and not phi.phi0_terms and noise.mult is None)


def ou_oracle(dom: SpectralDomain, noise: NoiseSpec, X0: Field, t: float,
              drift: DriftSpec | None = None):
    """Per-mode (mean, variance) for the linear equation with additive noise.

    Mode k decouples into a scalar Ornstein--Uhlenbeck equation:
    mean exp(-lam_k t) X0_k, variance sigma_k^2 (1 - exp(-2 lam_k t)) / (2 lam_k).
    """
    if drift is not None and not is_linear_additive(drift, noise):
        raise ValueError(
            "closed-form oracle requires the linear drift (Psi=id, Phi=0) "
            "with additive noise"
        )
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = dom.lam
    mean = np.exp(-lam * t) * X0.coeffs
    var = np.zeros(dom.n_grid)
    mn = noise.n_modes
    var[:mn] = noise.sigma_array() ** 2 * (1.0 - np.exp(-2.0 * lam[:mn] * t)) / (2.0 * lam[:mn])
    return mean, var


# ---------------------------------------------------------------------------
# Ergodic comparison of two starts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityReport:
    times: np.ndarray
    diff: np.ndarray
    bound: np.ndarray
    combined_se: np.ndarray
    passed_bound: bool
    time_avg_x: float
    time_avg_y: float
    time_avg_band: float
    passed_average: bool
    passed: bool
    observable: str
    declared_c: float
    n_paths: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} ergodicity[{self.observable}]: semigroup gap within "
                f"exp(ct/2) envelope (c={self.declared_c:.6g}) and long-run "
                f"averages {self.time_avg_x:.6g} vs {self.time_avg_y:.6g} within "
                f"{self.time_avg_band:.3g} (n={self.n_paths} per start)")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "abs_diff", "bound", "combined_se"],
                  np.column_stack([self.times, self.diff, self.bound,
                                   self.combined_se]).tolist())


def ergodicity_test(stats_x: StatTable, stats_y: StatTable, observable: str,
                    lip: float, declared_c: float, x0_distance: float,
                    tail_fraction: float = 0.5) -> ErgodicityReport:
    """Two-start comparison of a Lipschitz observable.

    Checks |E F(X_t) - E F(Y_t)| <= exp(c t / 2) Lip(F) |x - y|_H + 3 se at
    every saved time, and that the tail-window time averages from the two
    starts agree within the (conservative) averaged MC band.
    """
    if not declared_c < 0:
        raise ValueError("ergodicity test refused: declared rate must be negative")
    if not np.array_equal(stats_x.times, stats_y.times):
        raise ValueError("the two ensembles must share their save times")
    times = stats_x.times
    mx, my = stats_x.mean_of(observable), stats_y.mean_of(observable)
    se = np.sqrt(stats_x.se_of(observable) ** 2 + stats_y.se_of(observable) ** 2)
    diff = np.abs(mx - my)
    bound = np.exp(declared_c * times / 2.0) * lip * x0_distance
    # At t=0 the bound can hold with equality and se=0, so allow rounding
    # noise on the deterministic envelope itself (far below any real gap).
    guard = 1e-9 * lip * x0_distance
    passed_bound = bool(np.all(diff <= bound + 3.0 * se + guard))
    tail = times >= (1.0 - tail_fraction) * times[-1]
    avg_x, avg_y = float(mx[tail].mean()), float(my[tail].mean())
    band = 3.0 * float(se[tail].mean())
    passed_avg = abs(avg_x - avg_y) <= band
    return ErgodicityReport(times=times, diff=diff, bound=bound, combined_se=se,
                            passed_bound=passed_bound, time_avg_x=avg_x,
                            time_avg_y=avg_y, time_avg_band=band,
                            passed_average=passed_avg,
                            passed=passed_bound and passed_avg,
                            observable=observable, declared_c=declared_c,
                            n_paths=stats_x.n_paths)
