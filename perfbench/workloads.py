"""The four benchmark workloads: inputs from a seed, one run, its output check.

Each workload is a closed loop: one caller, repetitions back to back on the
same inputs.  ``build(seed, workdir)`` makes the inputs, ``run(inp)`` calls spme and
returns its outputs, ``check(inp, out)`` returns the list of problems found
(empty when the output is right), and ``corrupt(inp, out)`` returns known-bad
variants of a good output that ``check`` must reject.

spme is called through module attributes (``galerkin.monte_carlo``, not a
name imported here) so the tracer's rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from spme import cli, galerkin, verify
from spme.drift import DriftSpec, PhiSpec, PsiSpec
from spme.noise import NoiseSpec, power_decay_sigma
from spme.triple import Field, SpectralDomain

PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
FAST = DriftSpec(psi=PsiSpec(terms=((1.0, 0.5),)), phi=PhiSpec(), mode="A1")
LINEAR = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")
ZERO_NOISE = NoiseSpec(sigma=(0.0,))


def _bump(dom: SpectralDomain, amp: float, width: float, center: float = 0.5) -> Field:
    return Field.from_values(dom, amp * np.exp(-((dom.x - center) / width) ** 2))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _h_gap(dom, tx, ty) -> np.ndarray:
    d = tx.coeff_matrix() - ty.coeff_matrix()
    return np.sum(d * d / dom.lam, axis=1)


# ---------------------------------------------------------------------------
# ou_ensemble: explicit linear ensemble against the closed-form OU moments
# ---------------------------------------------------------------------------


class OUEnsemble:
    name = "ou_ensemble"
    paths = 384  # three 128-path chunks
    z_limit = 5.0
    check_times = (0.1, 0.5, 2.0)
    expected_spans = ("triple.transform", "noise.increments", "drift.drift_coeffs",
                      "drift.psi_prime_max", "galerkin.monte_carlo", "verify.ou_oracle")

    def build(self, seed, workdir):
        dom = SpectralDomain(8, alpha=0.25)
        noise = power_decay_sigma(8, 0.2, 1.0)
        X0 = Field.from_coeffs(dom, 1.0 / np.arange(1.0, 9.0))
        cfg = galerkin.StepperConfig(dt=2.5e-4, T=2.0, n_modes=8)
        names = tuple(f"mode_{k}" for k in range(1, 9))
        return dict(dom=dom, noise=noise, X0=X0, cfg=cfg, names=names, seed=seed)

    def sizes(self, inp):
        cfg = inp["cfg"]
        return dict(n_grid=8, alpha=0.25, paths=self.paths, n_steps=cfg.n_steps,
                    noise_modes=8, save_every=400,
                    path_steps=self.paths * cfg.n_steps)

    def run(self, inp):
        return galerkin.monte_carlo(inp["cfg"], inp["dom"], LINEAR, inp["noise"],
                                    inp["X0"], inp["seed"], self.paths, inp["names"],
                                    save_every=400)

    def check(self, inp, stats):
        problems = []
        n = stats.n_paths
        if n != self.paths:
            problems.append(f"ensemble has {n} paths, expected {self.paths}")
        for t in self.check_times:
            idx = int(np.argmin(np.abs(stats.times - t)))
            mean, var = verify.ou_oracle(inp["dom"], inp["noise"], inp["X0"],
                                         stats.times[idx], drift=LINEAR)
            for k, name in enumerate(inp["names"]):
                z_mean = (stats.mean_of(name)[idx] - mean[k]) / stats.se_of(name)[idx]
                z_var = (stats.var_of(name)[idx] - var[k]) / (var[k] * math.sqrt(2.0 / (n - 1)))
                if not (abs(z_mean) < self.z_limit and abs(z_var) < self.z_limit):  # NaN fails
                    problems.append(f"{name} at t={stats.times[idx]:g}: z_mean "
                                    f"{z_mean:.2f}, z_var {z_var:.2f} (limit {self.z_limit})")
        return problems

    def corrupt(self, inp, stats):
        return {
            "means shifted by 10 SE": dataclasses.replace(stats, mean=stats.mean + 10.0 * stats.se),
            "variances doubled": dataclasses.replace(stats, var=2.0 * stats.var),
        }


# ---------------------------------------------------------------------------
# pme_pair_implicit: semi-implicit porous-medium pairs, contraction checks
# ---------------------------------------------------------------------------


class PMEPairImplicit:
    name = "pme_pair_implicit"
    pairs = 100  # the contraction test's minimum
    single_pairs = 12
    expected_spans = ("triple.transform", "noise.increments", "drift.psi_eval",
                      "drift.psi_prime", "galerkin.banded_solve", "galerkin.monte_carlo",
                      "galerkin.simulate_pair", "verify.contraction_test")

    def build(self, seed, workdir):
        dom = SpectralDomain(32, alpha=1.0)
        noise = power_decay_sigma(4, 0.05, 1.0)
        X0 = _bump(dom, 0.5, 0.15)
        cfg = galerkin.StepperConfig(dt=5e-3, T=1.0, n_modes=32, scheme="semi-implicit")
        pair_seeds = [int(s) for s in np.random.SeedSequence([seed, 6]).generate_state(
            self.single_pairs)]
        return dict(dom=dom, noise=noise, X0=X0, Y0=Field.zero(dom), cfg=cfg, seed=seed,
                    pair_seeds=pair_seeds, x0_h_sq=float(np.sum(X0.coeffs ** 2 / dom.lam)))

    def sizes(self, inp):
        n = inp["cfg"].n_steps
        return dict(n_grid=32, pairs=self.pairs, single_pairs=self.single_pairs,
                    n_steps=n, noise_modes=4,
                    path_steps=2 * (self.pairs + self.single_pairs) * n)

    def run(self, inp):
        a = (inp["cfg"], inp["dom"], PME, inp["noise"])
        stats = galerkin.monte_carlo(*a, inp["X0"], inp["seed"], self.pairs, ("dist_sq",),
                                     Y0=inp["Y0"], save_every=10)
        pairs = [galerkin.simulate_pair(*a, inp["X0"], inp["Y0"], s) for s in inp["pair_seeds"]]
        return dict(stats=stats, pairs=pairs)

    def check(self, inp, out):
        problems = []
        rep = verify.contraction_test(out["stats"], declared_c=0.0)
        if not rep.passed:
            problems.append(rep.summary())
        limit = 1e-12 * inp["x0_h_sq"]
        for i, (tx, ty) in enumerate(out["pairs"]):
            growth = float(np.max(np.diff(_h_gap(inp["dom"], tx, ty))))
            if not growth <= limit:
                problems.append(f"pair {i}: H-gap grew by {growth:.3e} > {limit:.1e}")
        return problems

    def corrupt(self, inp, out):
        stats = out["stats"]
        growing = stats.mean.copy()
        growing[:, stats.col("dist_sq")] *= np.exp(3.0 * stats.times)
        tx, ty = out["pairs"][0]
        states = list(ty.states)
        k = len(states) // 2  # push Y away from X at one step: the gap grows
        states[k] = states[k] - (tx.states[k] - states[k])
        bad_y = dataclasses.replace(ty, states=states)
        return {
            "mean gap growing like exp(3t)": dict(out, stats=dataclasses.replace(stats, mean=growing)),
            "one pair whose gap grows": dict(out, pairs=[(tx, bad_y)] + out["pairs"][1:]),
        }


# ---------------------------------------------------------------------------
# single_path_ledger: batch size 1 on large grids, exact identities
# ---------------------------------------------------------------------------


class SinglePathLedger:
    name = "single_path_ledger"
    # (n_grid, dt, n_steps): dt scales like h^2 so the explicit stability
    # guard dt * lam_max * sup|Psi'| <= 2 holds for bump amplitudes <= 0.45.
    ledgers = ((128, 2.5e-5, 1000), (256, 6.25e-6, 4000))
    # Worst gap measured over seeds 0-39: 7e-11 (n=128), 1.2e-9 (n=256).
    ledger_rtol = 5e-9
    extinction_eps = 1e-6
    T_decay = 5.0
    expected_spans = ("triple.transform", "noise.increments", "drift.drift_coeffs",
                      "drift.psi_prime_max", "drift.psi_eval", "drift.psi_prime",
                      "galerkin.banded_solve", "galerkin.simulate", "verify.ito_ledger",
                      "verify.extinction_time")

    def build(self, seed, workdir):
        r = _rng(seed, 3)
        amp, width, center = r.uniform(0.38, 0.42), r.uniform(0.048, 0.052), r.uniform(0.45, 0.55)
        ledgers = []
        for n, dt, steps in self.ledgers:
            dom = SpectralDomain(n, alpha=1.0)
            cfg = galerkin.StepperConfig(dt=dt, T=dt * steps, n_modes=n, record_ito=True)
            ledgers.append((dom, cfg, _bump(dom, amp, width, center)))
        # The decay pair keeps criterion 8's bump.  Its Newton solve is known
        # to stall just above implicit_tol next to the vanishing state for
        # other amplitudes (ConvergenceError at amplitude 1.042, n=256).
        dom = SpectralDomain(256, alpha=1.0)
        bump = _bump(dom, 1.0, 0.15)
        fast = galerkin.StepperConfig(dt=2.5e-3, T=self.T_decay, n_modes=256,
                                      scheme="semi-implicit", implicit_tol=1e-8)
        pme = galerkin.StepperConfig(dt=1e-2, T=self.T_decay, n_modes=256,
                                     scheme="semi-implicit")
        return dict(ledgers=ledgers, dom=dom, bump=bump, fast=fast, pme=pme, seed=seed)

    def sizes(self, inp):
        steps = [cfg.n_steps for _, cfg, _ in inp["ledgers"]]
        return dict(ledger_grids=[n for n, _, _ in self.ledgers], ledger_steps=steps,
                    decay_grid=256, decay_steps=[inp["fast"].n_steps, inp["pme"].n_steps],
                    path_steps=sum(steps) + inp["fast"].n_steps + inp["pme"].n_steps)

    def run(self, inp):
        ledgers = []
        for dom, cfg, X0 in inp["ledgers"]:
            traj = galerkin.simulate(cfg, dom, PME, ZERO_NOISE, X0, inp["seed"])
            ledgers.append((traj, verify.ito_ledger(traj)))
        dom, bump, seed = inp["dom"], inp["bump"], inp["seed"]
        fast = galerkin.simulate(inp["fast"], dom, FAST, ZERO_NOISE, bump, seed)
        pme = galerkin.simulate(inp["pme"], dom, PME, ZERO_NOISE, bump, seed)
        return dict(ledgers=ledgers, fast=fast, pme=pme)

    def check(self, inp, out):
        problems = []
        for (dom, cfg, _), (traj, led) in zip(inp["ledgers"], out["ledgers"]):
            a_sq = np.sum(traj.drift_record ** 2 / dom.lam, axis=1)
            expect = np.cumsum(cfg.dt ** 2 * a_sq)
            rel = np.abs(led.residuals[1:] - expect) / expect
            worst = float(np.max(rel))
            if led.residuals[0] != 0.0 or not worst <= self.ledger_rtol:
                problems.append(f"n={dom.n_grid}: ledger residual off the accumulated "
                                f"dt^2|A|^2 by {worst:.2e} relative (tol {self.ledger_rtol:.0e})")
        t_fast = verify.extinction_time(out["fast"], self.extinction_eps)
        if t_fast is None or not t_fast < self.T_decay:
            problems.append(f"fast diffusion not extinct before T={self.T_decay}")
        if verify.extinction_time(out["pme"], self.extinction_eps) is not None:
            problems.append("porous-medium run went extinct")
        hn = np.sum(out["pme"].coeff_matrix() ** 2 / inp["dom"].lam, axis=1)
        if not np.all(np.diff(hn) < 0.0):
            problems.append("porous-medium H-norm not strictly decreasing")
        return problems

    def corrupt(self, inp, out):
        traj, led = out["ledgers"][0]
        off = dataclasses.replace(led, residuals=led.residuals * (1.0 + 1e-8))
        pme = out["pme"]
        rising = dataclasses.replace(pme, states=pme.states[:1] + pme.states[:0:-1])
        return {
            "ledger off by 1e-8 relative": dict(out, ledgers=[(traj, off)] + out["ledgers"][1:]),
            "fast diffusion survives": dict(out, fast=pme),
            "porous-medium energy rises": dict(out, pme=rising),
        }


# ---------------------------------------------------------------------------
# cli_simulate: `spme simulate` with the README config, in-process
# ---------------------------------------------------------------------------


class CLISimulate:
    name = "cli_simulate"
    ensemble = 8
    expected_spans = ("cli.main", "cli.to_csv", "galerkin.simulate", "galerkin.monte_carlo",
                      "galerkin.banded_solve", "drift.psi_eval", "drift.young_modular",
                      "orlicz.young_eval", "triple.transform", "noise.increments")

    def build(self, seed, workdir):
        config = {
            "domain": {"n_grid": 64, "alpha": 1.0},
            "drift": {"psi": {"terms": [[1.0, 2.0]]}},
            "noise": {"sigma0": 0.1, "decay": 2.0, "n_modes": 8},
            "stepper": {"dt": 1e-3, "T": 1.0, "n_modes": 64, "scheme": "semi-implicit"},
            "initial": {"shape": "bump", "amplitude": 0.5, "width": 0.15},
            "run": {"master_seed": seed, "ensemble_size": self.ensemble, "save_every": 10},
        }
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return dict(config_path=path, workdir=workdir, seed=seed)

    def sizes(self, inp):
        return dict(n_grid=64, ensemble=self.ensemble, n_steps=1000, save_every=10,
                    path_steps=(1 + self.ensemble) * 1000)

    def run(self, inp):
        out_dir = Path(tempfile.mkdtemp(dir=inp["workdir"]))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["simulate", "--config", str(inp["config_path"]),
                             "--out", str(out_dir)])
        try:
            files = sorted(p.name for p in out_dir.iterdir())
            out_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            manifest = json.loads((out_dir / "manifest.json").read_text())
            with open(out_dir / "stats.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            stats = np.array([[float(v) for v in row] for row in rows[1:]])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return dict(code=code, printed=printed.getvalue(), files=files, manifest=manifest,
                    stats=stats, out_bytes=out_bytes)

    def check(self, inp, out):
        problems = []
        if out["code"] != 0:
            problems.append(f"exit code {out['code']}")
        if not out["printed"].startswith("PASS simulate"):
            problems.append(f"unexpected output {out['printed'][:80]!r}")
        man = out["manifest"]
        if man.get("status") != "PASS":
            problems.append(f"manifest status {man.get('status')!r}")
        if man.get("master_seed") != inp["seed"]:
            problems.append("manifest seed differs from the config seed")
        for name in ("stats.csv", "trajectory.csv"):
            if name not in man.get("outputs", ()) or name not in out["files"]:
                problems.append(f"{name} missing from the manifest or the output directory")
        stats = out["stats"]
        if stats.shape != (101, 1 + 3 * 3) or not np.all(np.isfinite(stats)):
            problems.append(f"stats.csv has shape {stats.shape} or non-finite values")
        return problems

    def corrupt(self, inp, out):
        nan_stats = out["stats"].copy()
        nan_stats[5, 4] = np.nan
        return {
            "manifest status FAIL": dict(out, manifest=dict(out["manifest"], status="FAIL")),
            "trajectory.csv not listed": dict(out, manifest=dict(out["manifest"], outputs=["stats.csv"])),
            "non-finite stats value": dict(out, stats=nan_stats),
            "exit code 1": dict(out, code=1),
        }


WORKLOADS = {w.name: w for w in (OUEnsemble(), PMEPairImplicit(), SinglePathLedger(),
                                 CLISimulate())}
