"""Benchmark of treesource through its CLI entry point, treesource.cli.main.

    python3 bench/run.py --workload exact|certify|sample --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick        # every workload at tiny sizes, all checks

A run builds the workload's inputs from the seed, computes the reference
values, then repeats whole rounds of the workload's command sequence in
this process until S seconds have passed, checking every output.  The last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics.

With --trace 0 the metrics are the end-to-end ones:
  setup_s         median over three fresh interpreters of the time from
                  process start until treesource, numpy and scipy are imported
  wall_s          sum over the commands of each command's median time per round
  peak_rss_mib    peak resident memory of this process over all rounds
  scan_n_ceiling  largest n whose scan under the default mem_budget yields
                  its first layer, measured after the rounds
With --trace 1 the public functions of each module are wrapped (tracing.py)
and the metrics are the per-layer ones, each the median over rounds; the
traced wall_s goes to standard error and to the trace file in bench/out/.

BLAS runs on one thread.  With two, a dense scan stalls whenever the other
CPU is busy: one busy-looping neighbour on a 2-CPU machine doubled the exact
workload's round time with two BLAS threads and added about a fifth with one.
The Monte Carlo pool stays at its default thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported, here and in the set-up interpreters
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CEILING_CAP = 1 << 14  # probes stop here; a dense scan there would need 6 GiB

SETUP_SNIPPET = "import time, treesource, numpy, scipy; print(time.monotonic())"


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"bench: importing treesource failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def run_command(main, cmd) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(cmd.argv)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run_rounds(commands, seconds: float, tracer=None) -> dict:
    """Whole rounds of the command sequence until `seconds` have passed (at least one)."""
    from treesource import cli
    from workloads import CheckFailed

    times = [[] for _ in commands]
    per_round = []
    attempted = failed = 0
    problems: list[str] = []  # failed operations and failed checks, for standard error
    wrong = 0  # operations that ran but whose output failed a check
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        cpu0 = time.process_time()
        for i, cmd in enumerate(commands):
            attempted += 1
            try:
                dt, code, out, err = run_command(cli.main, cmd)
            except Exception as exc:  # a crash is one failed operation, the run goes on
                failed += 1
                problems.append(f"{' '.join(cmd.argv)[:80]}: raised {exc!r}")
                continue
            times[i].append(dt)
            if code != 0:
                failed += 1
                problems.append(f"{' '.join(cmd.argv)[:80]}: exit {code}: {err.strip()[-300:]}")
                continue
            try:
                cmd.check(out)
            except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                wrong += 1
                problems.append(f"{' '.join(cmd.argv)[:80]}: {exc}")
        if tracer is not None:
            per_round.append(tracer.round_metrics(time.process_time() - cpu0))
        if time.perf_counter() - start >= seconds:
            break
    ok_times = [statistics.median(t) for t in times if t]
    return {
        "rounds": len(times[0]) if times else 0,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
        "wall_s": sum(ok_times),
        "per_command": [(statistics.median(t), len(t), cmd.argv) for cmd, t in zip(commands, times) if t],
        "per_round": per_round,
    }


def _admits(kernel, n: int) -> bool:
    from treesource.heights import ScanBudgetError, survival_layers

    layers = survival_layers(kernel, n)
    try:
        next(layers)
        return True
    except ScanBudgetError:
        return False
    finally:
        layers.close()


def scan_n_ceiling() -> int:
    """Largest n whose scan yields its first layer under the default budget.

    A probe kernel whose pmf_matrix raises finds the size the budget check
    admits without allocating; real bst scans then confirm that size and
    its successor.  If they disagree, real scans bisect on their own.
    """
    from treesource import BstKernel

    class Admitted(Exception):
        pass

    class Probe(BstKernel):
        def pmf_matrix(self, n):
            raise Admitted

    def probe_admits(n: int) -> bool:
        try:
            return _admits(Probe(), n)
        except Admitted:
            return True

    def largest(admits) -> int:
        lo, hi = 1, CEILING_CAP + 1  # admits(lo) holds; admits(hi) is never asked
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admits(mid) else (lo, mid)
        return lo

    guess = largest(probe_admits)
    real = lambda n: _admits(BstKernel(), n)  # noqa: E731
    if real(guess) and (guess == CEILING_CAP or not real(guess + 1)):
        return guess
    return largest(real)


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import workloads

    commands = workloads.build(workload, seed, scale, OUT)
    if not trace:
        result = run_rounds(commands, seconds)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_rounds(commands, seconds, tracer)
        tracer.track_memory = True  # one more round, for the tracemalloc peaks only
        memory = run_rounds(commands, 0.0, tracer)
    finally:
        tracer.uninstall()
    keys = result["per_round"][0].keys()
    result["layers"] = {k: statistics.median(r[k] for r in result["per_round"]) for k in keys}
    result["layers"]["heights.scan_peak_mib"] = memory["per_round"][0]["heights.scan_peak_mib"]
    for key in ("attempted", "failed", "wrong", "problems"):
        result[key] += memory[key]
    tracer.write(OUT / f"trace-{workload}-{seed}.json",
                 {"workload": workload, "seed": seed, "rounds": result["rounds"],
                  "traced_wall_s": result["wall_s"], "per_round": result["per_round"],
                  "machine": machine_facts()})
    return result


def _report(result: dict) -> None:
    for median, count, argv in result["per_command"]:
        print(f"bench: {median:8.4f} s median of {count}  {' '.join(argv)[:70]}", file=sys.stderr)
    for line in result["problems"][:20]:
        print(f"bench: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload once at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)
    if not (SRC / "treesource" / "__init__.py").is_file():
        print(f"bench: no treesource sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick(args.seed)
    if args.workload is None:
        parser.error("--workload is required without --quick")

    setup_s = None if args.trace else measure_setup()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401  (set-up, outside every timed region)
    import scipy  # noqa: F401
    import treesource  # noqa: F401

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    _report(result)
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["layers"].items()}
        print(f"bench: traced wall_s={result['wall_s']:.4f} over {result['rounds']} rounds",
              file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
            "scan_n_ceiling": {"value": scan_n_ceiling(), "unit": "leaves"},
        }
        print(f"bench: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def quick(seed: int) -> int:
    """Every workload once at tiny sizes, untraced and traced, with every check."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    bad = 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, 0.0, trace, "quick")
            _report(result)
            ok = not result["problems"]
            bad += not ok
            print(f"{workload:8s} trace={int(trace)} {result['attempted']} commands "
                  f"{result['wall_s']:.3f}s {'ok' if ok else 'FAILED'}")
    ceiling = scan_n_ceiling()
    print(f"scan_n_ceiling {ceiling}")
    return 1 if bad or ceiling < 2 else 0


if __name__ == "__main__":
    sys.exit(main())
