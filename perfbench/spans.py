"""Spans around the calls spme's modules make into each other.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` rebinds, for the
duration of a traced repetition, the names that callers look up at call time:
module globals such as ``spme.galerkin.solve_banded`` or ``spme.cli.monte_carlo``
and methods such as ``SpectralDomain.to_spectral``.  Every wrapper records one
span (calls, total time, self time = total minus the time of spans opened
inside it) and, where a layer has countable work, the work done.

A target that no longer exists (a rename in ``src/``) makes ``install`` raise,
and a wrapper that a workload expects to be hit but never is makes
``layer_metrics`` raise: neither reports zeros.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

import spme.cli
import spme.galerkin
import spme.orlicz
import spme.triple
import spme.verify

LAYERS = ("triple", "noise", "drift", "galerkin", "verify", "cli", "orlicz")

# Spans reported as <span>.calls and <span>.s (self time) per BENCHMARK.json.
_PER_CALL = {
    "drift.psi_eval": ("calls", "s"),
    "drift.psi_prime": ("calls", "s"),
    "drift.drift_coeffs": ("calls", "s"),
    "drift.psi_prime_max": ("calls",),
    "orlicz.young_eval": ("calls", "s"),
}
_VERIFY = ("ito_ledger", "extinction_time", "contraction_test", "ou_oracle")

# Metrics derived from array shapes or call arguments rather than timed.
COMPUTED = {
    "triple.transform.flops": "computed: 2 * rows * n_grid^2",
    "noise.increments.bytes": "computed: nbytes of the returned increments",
    "galerkin.step_overhead_us": "galerkin.self_s per computed chunk-step",
    "galerkin.newton.iters_per_solve": "per computed implicit path-step",
    "galerkin.newton.backtracks": "Newton psi_eval calls - solves - iters",
    "galerkin.increment_buffer_bytes": "computed: largest per-chunk increment array",
}


class _Agg:
    __slots__ = ("calls", "total", "self", "rows", "bytes", "flops", "lead", "tail")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = self.self = 0.0
        self.rows = self.bytes = self.flops = 0
        self.lead = self.tail = 0.0


class Tracer:
    def __init__(self):
        self.aggs: dict[str, _Agg] = {}
        self._stack: list = []
        self._entry_depth = 0
        self._sizes = {}
        self._patches = []
        g, c, v = spme.galerkin, spme.cli, spme.verify
        dom_cls = spme.triple.SpectralDomain
        targets = [
            (dom_cls, "to_spectral", "triple.transform", self._meter_transform),
            (dom_cls, "from_spectral", "triple.transform", self._meter_transform),
            (g, "increments_for_path", "noise.increments", self._meter_bytes),
            (g, "psi_eval", "drift.psi_eval", None),
            (g, "psi_prime", "drift.psi_prime", None),
            (g, "psi_prime_max", "drift.psi_prime_max", None),
            (g, "drift_coeffs", "drift.drift_coeffs", None),
            (g, "young_modular", "drift.young_modular", None),
            (g, "solve_banded", "galerkin.banded_solve", None),
            (g.Trajectory, "to_csv", "cli.to_csv", None),
            (g.StatTable, "to_csv", "cli.to_csv", None),
            (c, "main", "cli.main", self._meter_main),
            (spme.orlicz.PowerSumYoung, "__call__", "orlicz.young_eval", None),
            (spme.orlicz.LogPowerYoung, "__call__", "orlicz.young_eval", None),
        ] + [(v, name, f"verify.{name}", None) for name in _VERIFY]
        entries = [
            (g, "monte_carlo", self._sizes_monte_carlo),
            (g, "simulate", functools.partial(self._sizes_paths, copies=1)),
            (g, "simulate_pair", functools.partial(self._sizes_paths, copies=2)),
            (c, "monte_carlo", self._sizes_monte_carlo),
            (c, "simulate", functools.partial(self._sizes_paths, copies=1)),
        ]
        for owner, attr, span, meter in targets:
            fn = self._lookup(owner, attr)
            self._patches.append((owner, attr, fn, self._wrap(span, fn, meter)))
        for owner, attr, sizer in entries:
            fn = self._lookup(owner, attr)
            self._patches.append((owner, attr, fn, self._entry(f"galerkin.{attr}", fn, sizer)))

    @staticmethod
    def _lookup(owner, attr):
        fn = owner.__dict__.get(attr)
        if fn is None:
            where = (f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type)
                     else owner.__name__)
            raise RuntimeError(f"trace target {where}.{attr} is missing; the call "
                               "path in src/ changed and perfbench/spans.py must follow")
        return fn

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for agg in self.aggs.values():
            agg.reset()
        self._stack.clear()
        self._entry_depth = 0
        self._sizes = dict(implicit_path_steps=0, chunk_steps=0, buffer_bytes=0)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- span wrappers -----------------------------------------------------

    def _wrap(self, span, fn, meter):
        agg = self.aggs.setdefault(span, _Agg())
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # frame: start, child time, first child start, last child end
            start = clock()
            if stack and stack[-1][2] is None:
                stack[-1][2] = start
            frame = [start, 0.0, None, None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg.calls += 1
                agg.total += dur
                agg.self += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][3] = end
            if meter is not None:
                meter(agg, args, result, frame, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _entry(self, span, fn, sizer):
        inner = self._wrap(span, fn, None)
        sig = inspect.signature(fn)

        def entry(*args, **kwargs):
            outer = self._entry_depth == 0
            self._entry_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._entry_depth -= 1
            if outer:  # nested entries (simulate inside simulate_pair) are counted once
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add_sizes(*sizer(bound.arguments))
            return result

        entry.__wrapped__ = fn
        return entry

    # -- meters: work computed from shapes and arguments (see COMPUTED) ---

    @staticmethod
    def _meter_transform(agg, args, result, frame, end):
        n = args[0].n_grid
        rows = result.size // n
        agg.rows += rows
        agg.flops += 2 * rows * n * n

    @staticmethod
    def _meter_bytes(agg, args, result, frame, end):
        agg.bytes += result.nbytes

    @staticmethod
    def _meter_main(agg, args, result, frame, end):
        # Before the first child span: config load, validation and the
        # initial field.  After the last one: the manifest write.
        first, last = frame[2], frame[3]
        agg.lead += (end if first is None else first) - frame[0]
        agg.tail += 0.0 if last is None else end - last

    def _add_sizes(self, path_steps, chunk_steps, buffer_bytes, implicit):
        s = self._sizes
        s["chunk_steps"] += chunk_steps
        s["buffer_bytes"] = max(s["buffer_bytes"], buffer_bytes)
        if implicit:
            s["implicit_path_steps"] += path_steps

    @staticmethod
    def _sizes_monte_carlo(a):
        cfg, P, paired = a["config"], a["ensemble_size"], a["Y0"] is not None
        chunk = a.get("chunk", P)
        n = cfg.n_steps
        return (P * n * (1 + paired), math.ceil(P / chunk) * n * (1 + paired),
                min(P, chunk) * n * a["noise"].n_modes * 8,
                cfg.scheme == "semi-implicit")

    @staticmethod
    def _sizes_paths(a, copies):
        # simulate (copies=1) and simulate_pair (copies=2): one increment array
        cfg = a["config"]
        n = copies * cfg.n_steps
        return n, n, cfg.n_steps * a["noise"].n_modes * 8, cfg.scheme == "semi-implicit"

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, wall_s: float, expected) -> tuple[dict, dict]:
        """Per-layer numbers of one traced repetition.

        ``expected`` names the spans the workload must hit; any of them with
        zero calls means a wrapper was bypassed, which is an error.
        """
        missed = [s for s in expected if self.aggs[s].calls == 0]
        if missed:
            raise RuntimeError(f"trace wrappers never hit: {', '.join(missed)}; "
                               "the call path in src/ changed")
        agg = self.aggs.__getitem__
        m = {}
        tr = agg("triple.transform")
        m["triple.transform.calls"] = tr.calls
        m["triple.transform.rows"] = tr.rows
        m["triple.transform.rows_per_call"] = tr.rows / tr.calls if tr.calls else 0.0
        m["triple.transform.s"] = tr.self
        m["triple.transform.flops"] = tr.flops
        inc = agg("noise.increments")
        m["noise.increments.calls"] = inc.calls
        m["noise.increments.s"] = inc.self
        m["noise.increments.bytes"] = inc.bytes
        for span, fields in _PER_CALL.items():
            a = agg(span)
            for f in fields:
                m[f"{span}.{f}"] = a.calls if f == "calls" else a.self

        entries = [agg(f"galerkin.{e}") for e in ("monte_carlo", "simulate", "simulate_pair")]
        g_self = sum(a.self for a in entries)
        sizes = self._sizes
        iters = agg("galerkin.banded_solve").calls
        solves = sizes["implicit_path_steps"]
        backtracks = agg("drift.psi_eval").calls - solves - iters if solves else 0
        m["galerkin.self_s"] = g_self
        m["galerkin.step_overhead_us"] = (1e6 * g_self / sizes["chunk_steps"]
                                          if sizes["chunk_steps"] else 0.0)
        m["galerkin.newton.iters"] = iters
        m["galerkin.newton.iters_per_solve"] = iters / solves if solves else 0.0
        m["galerkin.newton.backtracks"] = backtracks
        m["galerkin.newton.accept_ratio"] = (iters / (iters + backtracks)
                                             if iters + backtracks else 0.0)
        m["galerkin.banded_solve.s"] = agg("galerkin.banded_solve").self
        m["galerkin.increment_buffer_bytes"] = sizes["buffer_bytes"]
        for name in _VERIFY:
            m[f"verify.{name}.s"] = agg(f"verify.{name}").self
        main = agg("cli.main")
        m["cli.config_s"] = main.lead
        m["cli.write_s"] = agg("cli.to_csv").total + main.tail

        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, a in self.aggs.items():
            by_layer[name.split(".", 1)[0]] += a.self
        covered = sum(by_layer.values())
        m["trace.coverage"] = covered / wall_s
        return m, by_layer
