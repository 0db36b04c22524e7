"""spme benchmark: one workload, timed for a fixed span, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; spme is imported from
its ``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/NOTES.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # tiny matrices; one thread keeps timings steady on a shared host
SETUP_SAMPLES = 5
MIN_REPS = 2  # a median of at least two even when one repetition fills the run
TIMED_UNITS = ("s", "us", "fraction")  # per-layer metrics reported as medians


def _monotonic() -> float:
    # System-wide clock, comparable between the parent and a set-up child.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _pin_blas() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _import_spme():
    src = ROOT / "src"
    if not (src / "spme" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spme sources under {src}; run inside a repository checkout")
    sys.path.insert(0, str(src))
    import spme

    if Path(spme.__file__).resolve().parent != (src / "spme").resolve():
        sys.exit(f"perfbench: imported spme from {spme.__file__}, not from {src}")
    return spme


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs in this fresh interpreter, print 'ready', exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _environment(args, blas_threads, sizes) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        git_sha = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spme").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return dict(nproc=len(os.sched_getaffinity(0)), python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__, blas=blas,
                blas_threads=blas_threads, git_sha=git_sha, src_sha256=digest.hexdigest(),
                machine=platform.machine(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, sizes=sizes)


def _setup_samples(args) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = _monotonic()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        words = res.stdout.split()
        if res.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr[-500:]}")
        samples.append(float(words[1]) - t0)
    return samples


def _rep(w, inp):
    """One repetition: run plus output check.  Returns (seconds, output, problems)."""
    t0 = time.perf_counter()
    try:
        out = w.run(inp)
        problems = w.check(inp, out)
    except Exception as exc:  # a failed repetition is counted, not fatal
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, out, problems


def _self_test(w, inp, good) -> list:
    """Known-bad outputs that the workload's check must reject."""
    if good is None:
        return ["no passing repetition to derive known-bad outputs from"]
    missed = [label for label, bad in w.corrupt(inp, good).items() if not w.check(inp, bad)]
    return [f"check accepted a known-bad output: {label}" for label in missed]


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = _pin_blas()
    _import_spme()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        inp = w.build(args.seed, workdir)
        if args.setup_only:
            print(f"ready {_monotonic()!r}", flush=True)
            return 0
        if args.trace:
            wanted = spec["per_layer"]
            report = _traced(args, w, inp, {m["name"]: m["unit"] for m in wanted})
        else:
            wanted = spec["end_to_end"]
            report = _untraced(args, w, inp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    values, notes, problems = report["values"], report["notes"], report["problems"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['attempted']} repetitions, {report['failed']} failed, "
          f"fail_ratio {report['failed'] / report['attempted']:.6g}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:<14.8g} {m['unit']:10s} {notes.get(name, '')}")
    for line in report.get("extra", ()):
        print(line)
    for p in problems:
        print(f"  PROBLEM: {p}")
    print("env " + json.dumps(_environment(args, blas_threads, w.sizes(inp)), sort_keys=True))
    print(json.dumps({"correct": not problems and report["failed"] == 0,
                      "attempted": report["attempted"], "failed": report["failed"],
                      "metrics": metrics}))
    return 0


def _time_left(start, seconds, next_rep) -> bool:
    """Whether a repetition as long as the last one still ends within the run."""
    return time.perf_counter() - start + next_rep <= seconds


def _untraced(args, w, inp) -> dict:
    walls, failed, problems, good = [], 0, [], None
    start = time.perf_counter()
    while len(walls) < MIN_REPS or _time_left(start, args.seconds, walls[-1]):
        wall, out, rep_problems = _rep(w, inp)
        walls.append(wall)
        if rep_problems:
            failed += 1
            problems += [f"repetition {len(walls)}: {p}" for p in rep_problems]
        elif good is None:
            good = out
        del out  # keep at most one output besides `good`, whatever the repetition count
    problems += _self_test(w, inp, good)
    setup = _setup_samples(args)
    path_steps = w.sizes(inp)["path_steps"]
    n = len(walls)
    return dict(
        attempted=n, failed=failed, problems=problems,
        values={
            "wall_s": median(walls),
            "path_steps_per_s": median([path_steps / s for s in walls]),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        },
        notes={
            "wall_s": f"median of {n} repetitions (min {min(walls):.4g}, max {max(walls):.4g})",
            "path_steps_per_s": f"{path_steps} path-steps per repetition, median of {n}",
            "setup_s": f"median of {len(setup)} fresh interpreters "
                       f"(min {min(setup):.4g}, max {max(setup):.4g})",
            "peak_rss_mb": "this process, ru_maxrss",
        },
        extra=["  repetition seconds: " + " ".join(f"{s:.4f}" for s in walls)],
    )


def _traced(args, w, inp, units) -> dict:
    """Alternate untraced and traced repetitions; per-layer numbers from the traced ones."""
    import spans

    tracer = spans.Tracer()
    plain, traced, layer_runs, shares = [], [], [], []
    failed, problems, good = 0, [], None
    start = time.perf_counter()
    while not traced or _time_left(start, args.seconds, plain[-1] + traced[-1]):
        for tracing in (False, True):
            if tracing:
                tracer.install()
            try:
                wall, out, rep_problems = _rep(w, inp)
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else plain).append(wall)
            if tracing:
                # A failed repetition may stop before reaching every layer.
                m, by_layer = tracer.layer_metrics(wall, () if rep_problems else w.expected_spans)
                m["cli.out_bytes"] = out.get("out_bytes", 0) if isinstance(out, dict) else 0
                layer_runs.append(m)
                shares.append(by_layer)
            if rep_problems:
                failed += 1
                problems += [f"{'traced' if tracing else 'plain'} repetition: {p}"
                             for p in rep_problems]
            elif good is None:
                good = out
            del out
    problems += _self_test(w, inp, good)

    values = {}
    for name in layer_runs[0]:
        series = [m[name] for m in layer_runs]
        if units[name] in TIMED_UNITS:
            values[name] = median(series)
        else:  # counts: the same inputs must give the same work every time
            values[name] = series[0]
            if any(v != series[0] for v in series):
                problems.append(f"count {name} differs between traced repetitions: {series}")
    values["trace.wall_s"] = median(traced)
    values["trace.overhead_s"] = median(traced) - median(plain)

    wall = median(traced)
    extra = ["  layer self time in the traced repetitions (median s, share of traced wall_s):"]
    for layer in shares[0]:
        s = median([b[layer] for b in shares])
        extra.append(f"    {layer:10s} {s:10.4f} s  {100 * s / wall:6.2f} %")
    extra.append(f"    {'(harness)':10s} {wall * (1 - values['trace.coverage']):10.4f} s  "
                 f"{100 * (1 - values['trace.coverage']):6.2f} %  checks and loop outside spans")
    n = len(traced)
    return dict(
        attempted=len(plain) + n, failed=failed, problems=problems, values=values,
        notes=dict(spans.COMPUTED,
                   **{"trace.wall_s": f"median of {n} traced repetitions",
                      "trace.overhead_s": f"traced minus untraced median ({n} and {len(plain)})"}),
        extra=extra,
    )


if __name__ == "__main__":
    sys.exit(main())
