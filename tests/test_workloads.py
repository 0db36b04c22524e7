"""The benchmark's workloads pass their own output checks.

``perfbench/workloads.py`` builds each workload's inputs from a seed, runs
spme on them and checks the outputs; ``corrupt`` returns known-bad variants
of a good output, which the check must reject.  Running all four here makes a
change to what spme hands back (the type of ``Trajectory.states``, say) fail
in the test suite, not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("ou_ensemble", "pme_pair_implicit", "single_path_ledger", "cli_simulate")


def _load_workloads(monkeypatch):
    # Loaded by path and without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_is_covered(monkeypatch):
    assert sorted(_load_workloads(monkeypatch).WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_check_and_rejects_its_corruptions(monkeypatch, tmp_path, name):
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    inp = workload.build(3, tmp_path)
    out = workload.run(inp)
    assert workload.check(inp, out) == []
    bad = workload.corrupt(inp, out)
    assert bad
    for label, variant in bad.items():
        assert workload.check(inp, variant), f"{name}: check passed {label!r}"
