"""Traced runs: spans around calls into treesource's public functions.

The tracer replaces each traced function in every treesource module that
holds it by name (bounds imports exp_moment_grid, sampling imports
tree_from_shape_bits, cli imports most of them), and the two traced kernel
methods on SplitKernel.  Spans are kept in memory and written out when the
run ends; per-round totals give the per-layer metrics.

Calls from other threads (the Monte Carlo pool), and calls too frequent to
keep a span each, add the calling thread's CPU time to totals.  Every
other call opens a frame on the main thread, so a parent's self time is
its duration minus that of its traced children.  survival_layers is wrapped as
a generator: every layer it yields is timed, the first one separately (it
includes building the split matrices).  With track_memory set, tracemalloc
runs for the lifetime of each scan; it slows every allocation several
times over, so rounds that track memory are not used for timings.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import treesource
from treesource import bounds, cli, heights, kernels, sampling, trees

MODULES = (treesource, cli, bounds, heights, kernels, sampling, trees)

# (module or class, attribute, keeps a span per call?)  Functions called
# thousands of times per round only add to totals.
TRACED = (
    (kernels.SplitKernel, "pmf_matrix", True),
    (kernels.SplitKernel, "split_cdf", False),
    (heights, "height_cdf", True),
    (heights, "expected_height_grid", True),
    (heights, "exp_moment_grid", True),
    (bounds, "make_preset", True),
    (bounds, "psi_envelope", False),
    (bounds, "phi_balance", False),
    (bounds, "verify_certificates", True),
    (sampling, "mc_expected_height", True),
    (sampling, "sample_tree", True),
    (trees, "tree_from_shape_bits", False),
    (cli, "main", True),
)
ACCUMULATORS = ("heights.height_cdf", "heights.expected_height_grid", "heights.exp_moment_grid")
SCAN = "heights.survival_layers"
CLI_COMMANDS = ("exact", "verify", "report", "mc", "sample")


def _qualname(owner, attr: str) -> str:
    mod = owner.__name__ if isinstance(owner, type(treesource)) else owner.__module__
    return f"{mod.rsplit('.', 1)[-1]}.{attr}"


class _Frame:
    __slots__ = ("name", "start", "children", "layers", "span_id")

    def __init__(self, name: str, start: float, span_id: int):
        self.name = name
        self.start = start
        self.children: dict[str, float] = defaultdict(float)
        self.layers = 0
        self.span_id = span_id


class Tracer:
    def __init__(self) -> None:
        self.main_thread = threading.get_ident()
        self.lock = threading.Lock()
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self.track_memory = False
        self.begin_round()

    # --- per-round accounting ---------------------------------------------------

    def begin_round(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.layer_times: list[float] = []
        self.scan_peaks: list[float] = []

    def round_metrics(self, cpu_s: float) -> dict[str, float]:
        t = self.totals
        mc_s = t["sampling.mc_expected_height"]
        m = {
            "kernels.pmf_matrix_s": t["kernels.pmf_matrix"],
            "kernels.split_cdf_s": t["kernels.split_cdf"],
            "heights.scans": t["heights.scans"],
            "heights.scan_layers": t["heights.scan_layers"],
            "heights.moment_layers": t["heights.moment_layers"],
            "heights.layer_ms": 1e3 * statistics.median(self.layer_times) if self.layer_times else 0.0,
            "heights.scan_start_s": t["heights.scan_start_s"],
            "heights.accumulate_s": t["heights.accumulate_s"],
            "heights.scan_peak_mib": max(self.scan_peaks, default=0.0) / 2**20,
            "bounds.make_preset_s": t["bounds.make_preset"],
            "bounds.membership_s": t["bounds.psi_envelope"] + t["bounds.phi_balance"],
            "bounds.verify_self_s": t["bounds.verify_self_s"],
            "sampling.mc_s": mc_s,
            "sampling.replicates_per_s": t["sampling.replicates"] / mc_s if mc_s else 0.0,
            "sampling.splits_per_s": t["sampling.splits"] / mc_s if mc_s else 0.0,
            "sampling.sample_tree_s": t["sampling.sample_tree"],
            "trees.from_shape_bits_s": t["trees.tree_from_shape_bits"],
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = t[f"cli.{cmd}"]
        m["cli.self_s"] = t["cli.self_s"]
        m["process.cpu_s"] = cpu_s
        return m

    # --- installation ---------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, span in TRACED:
            self._replace(owner, attr, self._wrap(_qualname(owner, attr), getattr(owner, attr), span))
        self._replace(heights, "survival_layers", self._wrap_scan(heights.survival_layers))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        holders = [owner] if isinstance(owner, type) else [
            mod for mod in MODULES if vars(mod).get(attr) is original
        ]
        for holder in holders:
            self._restore.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    # --- wrappers --------------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not span or threading.get_ident() != tracer.main_thread:
                # CPU time of the calling thread: pool threads wait for the GIL
                # inside these calls, and wall time would count the wait
                t0 = time.thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.thread_time() - t0
                    with tracer.lock:
                        tracer.totals[name] += dt
            frame = tracer._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _push(self, name: str) -> _Frame:
        parent = self.stack[-1].span_id if self.stack else None
        frame = _Frame(name, time.perf_counter(), len(self.spans))
        self.spans.append({"id": frame.span_id, "parent": parent, "name": name})
        self.stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, args, kwargs) -> float:
        end = time.perf_counter()
        self.stack.pop()
        dt = end - frame.start
        self.spans[frame.span_id].update(start=frame.start, end=end, layers=frame.layers)
        if self.stack:
            self.stack[-1].children[frame.name] += dt
        t = self.totals
        t[frame.name] += dt
        if frame.name in ACCUMULATORS:
            t["heights.accumulate_s"] += dt - frame.children[SCAN]
        if frame.name == "heights.exp_moment_grid":
            t["heights.moment_layers"] += frame.layers
        elif frame.name == "bounds.verify_certificates":
            below = sum(v for k, v in frame.children.items()
                        if k.startswith(("heights.", "sampling.")))
            t["bounds.verify_self_s"] += dt - below
        elif frame.name == "sampling.mc_expected_height":
            n, reps = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "replicates")
            t["sampling.replicates"] += reps
            t["sampling.splits"] += reps * (n - 1)
        elif frame.name == "cli.main":
            argv = _arg(args, kwargs, 0, "argv")
            t[f"cli.{argv[0]}"] += dt
            t["cli.self_s"] += dt - sum(frame.children.values())
        return dt

    def _wrap_scan(self, fn):
        tracer = self

        def survival_layers(*args, **kwargs):
            return tracer._scan(fn(*args, **kwargs))

        survival_layers.__wrapped__ = fn
        return survival_layers

    def _scan(self, gen):
        own_tracemalloc = self.track_memory and not tracemalloc.is_tracing()
        if own_tracemalloc:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        self.totals["heights.scans"] += 1
        first = True
        try:
            while True:
                consumer = self.stack[-1] if self.stack else None
                frame = self._push(SCAN)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = self._pop(frame, (), {})
                if consumer is not None:
                    consumer.layers += 1
                self.totals["heights.scan_layers"] += 1
                if first:
                    self.totals["heights.scan_start_s"] += dt
                    first = False
                else:
                    self.layer_times.append(dt)
                yield item
        finally:
            gen.close()
            if own_tracemalloc:
                self.scan_peaks.append(tracemalloc.get_traced_memory()[1] - base)
                tracemalloc.stop()

    # --- output ------------------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]
