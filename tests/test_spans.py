"""The benchmark's tracer still reaches the paired runs' call path.

``perfbench/spans.py`` rebinds module globals and methods of ``src/spme`` to
time them; a rename in ``src`` makes ``Tracer()`` raise, and a call path that
bypasses a wrapper makes ``layer_metrics`` raise.  This runs both checks on a
short ``simulate_pair``, a short paired ``monte_carlo``, an explicit ensemble
and an explicit ledger run, and counts the draw calls that an ensemble makes
on its producer thread, one per block.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

import spme.galerkin as galerkin
from spme.drift import DriftSpec, PhiSpec, PsiSpec
from spme.noise import NoiseSpec
from spme.triple import Field, SpectralDomain

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PME = DriftSpec(psi=PsiSpec(terms=((1.0, 2.0),)), phi=PhiSpec(), mode="A1")
HIT = ("triple.transform", "noise.increments", "drift.psi_eval", "drift.psi_prime",
       "galerkin.banded_solve", "galerkin.monte_carlo", "galerkin.simulate_pair")


def _load_spans(monkeypatch):
    # Loaded by path and without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hits_every_span_of_the_paired_runs(monkeypatch):
    spans = _load_spans(monkeypatch)
    dom = SpectralDomain(16)
    nz = NoiseSpec(sigma=(0.2, 0.1))
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    cfg = galerkin.StepperConfig(dt=5e-3, T=0.05, n_modes=16, scheme="semi-implicit")
    originals = (galerkin.simulate_pair, galerkin.solve_banded, SpectralDomain.to_spectral)

    tracer = spans.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        galerkin.simulate_pair(cfg, dom, PME, nz, X0, Field.zero(dom), 3)
        galerkin.monte_carlo(cfg, dom, PME, nz, X0, 3, 4, ("dist_sq",), Y0=Field.zero(dom))
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start

    assert (galerkin.simulate_pair, galerkin.solve_banded,
            SpectralDomain.to_spectral) == originals
    metrics, _ = tracer.layer_metrics(wall, HIT)
    # One draw for the pair's path, one for the ensemble's single block.
    assert metrics["noise.increments.calls"] == 1 + 1
    assert metrics["galerkin.newton.iters"] > 0


def test_tracer_counts_the_draws_of_the_producer_thread(monkeypatch):
    # An unpaired ensemble of 4 paths in blocks of 8 steps: 40 steps make 5
    # blocks, each drawn in one call on the producer thread.
    spans = _load_spans(monkeypatch)
    monkeypatch.setattr(galerkin, "_BLOCK_BYTES", 8 * 4 * 2 * 8)
    dom = SpectralDomain(8)
    nz = NoiseSpec(sigma=(0.2, 0.1))
    X0 = Field.from_values(dom, 0.5 * np.sin(np.pi * dom.x))
    cfg = galerkin.StepperConfig(dt=1e-3, T=0.04, n_modes=8)
    linear = DriftSpec(psi=PsiSpec(terms=((1.0, 1.0),)), phi=PhiSpec(), mode="A1")

    tracer = spans.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        galerkin.monte_carlo(cfg, dom, linear, nz, X0, 3, 4, ("h_norm_sq",))
    finally:
        tracer.uninstall()
    metrics, _ = tracer.layer_metrics(time.perf_counter() - start,
                                      ("triple.transform", "noise.increments",
                                       "drift.drift_coeffs", "drift.psi_prime_max",
                                       "galerkin.monte_carlo"))
    assert metrics["noise.increments.calls"] == 5
    assert metrics["noise.increments.bytes"] == 4 * 40 * 2 * 8
    # The state shrinks from its start, so the guard bounds Psi' once.
    assert metrics["drift.psi_prime_max.calls"] == 1


def test_tracer_hits_the_spans_of_an_explicit_ledger_run(monkeypatch):
    # A single explicit path that records the Ito ledger: its stability guard
    # must reach drift.psi_prime_max through the galerkin module global.
    spans = _load_spans(monkeypatch)
    dom = SpectralDomain(32)
    X0 = Field.from_values(dom, 0.4 * np.sin(np.pi * dom.x))
    cfg = galerkin.StepperConfig(dt=1e-4, T=0.01, n_modes=32, record_ito=True)

    tracer = spans.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        traj = galerkin.simulate(cfg, dom, PME, NoiseSpec(sigma=(0.0,)), X0, 3)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.layer_metrics(time.perf_counter() - start,
                                      ("galerkin.simulate", "drift.psi_prime_max",
                                       "drift.drift_coeffs", "triple.transform"))
    assert traj.drift_record.shape == (cfg.n_steps, dom.n_grid)
    assert metrics["drift.psi_prime_max.calls"] == 1
