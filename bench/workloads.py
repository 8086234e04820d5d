"""The three workloads: seeded inputs, CLI command sequences and output checks.

Every input comes from the workload seed; the program sees only the
generated command lines and kernel file.  Each check compares an output
with the independent reference in reference.py or with a property that
holds for every kernel, never with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import t as student_t

import reference as ref

WORKLOADS = ("exact", "certify", "sample")

# Tolerances, all relative unless noted.
TOL_EXACT = 1e-10  # against Fraction arithmetic; the 1e-12 tail cut adds at most n*1e-12
TOL_FLOAT = 1e-9  # E(H_n) against the float recursions, n <= the reference size
TOL_SURV = 1e-8  # survivals against the float recursions, down to reference.TINY
TOL_SURV_EXACT = 1e-11  # survivals against Fraction arithmetic, to the last nonzero layer
TOL_LOG_MOMENT = 1e-9  # log moments, absolute on the log scale times max(1, |log|)
SLACK = 1e-9  # absolute slack on the property inequalities
MC_ALPHA = 1e-6  # two-sided level of each Monte Carlo t-band

# Sizes per scale.  "full" is what the timed runs use; "quick" runs every
# command and every check at tiny sizes.
SCALES = {
    "full": dict(
        ref_n=512, small=20,
        bst_max=3000, bin_max=2000, table_max=1500, uni_cdf=1000, tail_n=300,
        upper_max=1200, uni_wbal_max=512, bin_wbal_max=1024,
        report_sizes=(40, 80, 120, 160, 200, 240), report_reps=100,
        mc_centres=(100, 200, 300, 400), mc_jitter=40, mc_reps=300,
        uni_mc_n=4096, uni_mc_reps=100, tree_n=400, tree_reps=200,
    ),
    "quick": dict(
        ref_n=64, small=12,
        bst_max=60, bin_max=50, table_max=40, uni_cdf=40, tail_n=30,
        upper_max=48, uni_wbal_max=40, bin_wbal_max=40,
        report_sizes=(16, 24), report_reps=20,
        mc_centres=(20, 30, 40, 50), mc_jitter=4, mc_reps=100,
        uni_mc_n=64, uni_mc_reps=20, tree_n=30, tree_reps=20,
    ),
}

UNI_WBAL_COEFF = 0.5 / (1.05 * math.sqrt(math.pi * 0.25))  # preset uni-wbal at gamma = 1/4
PRESETS = {
    # name: (reference kernel, moment base as a function of n, log base of moment_log)
    "bst-upper": (("bst",), lambda n: math.e, math.e),
    "bst-wbal": (("bst",), lambda n: 1.5, 2.0),
    "uni-wbal": (("uniform",), lambda n: 1.0 + min(1.0, UNI_WBAL_COEFF / math.sqrt(n)), 2.0),
    "bin-wbal": (("binomial", 0.5), lambda n: 1.9, 2.0),
    "bin-upper": (("binomial", 0.5), lambda n: math.e, math.e),
}
BST_WBAL_DEFAULT_GRID = range(2, 501)


class CheckFailed(Exception):
    """An output disagrees with the reference or breaks a property."""


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str], None]  # receives the command's standard output


# --- seeded inputs -------------------------------------------------------------


def seeded_grid(rng: np.random.Generator, small: int, hi: int, points: int = 24) -> list[int]:
    """Sizes 2..small, one size drawn from each of `points` equal strata up to hi, and hi."""
    edges = np.linspace(small + 1, hi, points + 1).astype(int)
    picks = {int(rng.integers(lo, max(lo + 1, up))) for lo, up in zip(edges[:-1], edges[1:])}
    return sorted(set(range(2, small + 1)) | picks | {hi})


def paired_sizes(rng: np.random.Generator, centres, jitter: int) -> list[int]:
    """Centres moved by +d, -d in pairs, so the total size, and the work, is seed-free.

    |d| stays below half the gap of each pair, so the sizes stay distinct.
    """
    out = []
    for a, b in zip(centres[::2], centres[1::2]):
        w = min(jitter, (b - a - 1) // 2)
        d = int(rng.integers(-w, w + 1))
        out += [a + d, b - d]
    return sorted(out)


def table_kernel(rng: np.random.Generator, small: int, extra_hi: int) -> tuple:
    """Random rows for sizes 2..small and four sizes above, binomial(1/2) elsewhere."""
    sizes = list(range(2, small + 1))
    sizes += sorted({int(x) for x in rng.integers(small + 1, extra_hi + 1, size=4)})
    rows = {m: [float(x) for x in rng.dirichlet(np.full(m - 1, 0.5))] for m in sizes}
    return ("table", rows, ("binomial", 0.5))


def write_kernel_file(kernel: tuple, path: Path) -> str:
    _, rows, fallback = kernel
    spec = {"kind": "table", "rows": {str(m): r for m, r in rows.items()},
            "fallback": fallback[0], "fallback_p": fallback[1]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec))
    return str(path)


def _grid_arg(sizes) -> str:
    return ",".join(str(n) for n in sizes)


# --- reference values ------------------------------------------------------------


class Reference:
    """E(H_n), survivals and moments of one kernel from the independent recursions."""

    def __init__(self, kernel: tuple, small: int, n_max: int):
        self.kernel = kernel
        self.small = small
        self.exact = ref.exact_survivals(kernel, small)
        self.exact_eh = [float(x) for x in ref.expected_heights(self.exact)]
        if kernel[0] == "uniform":
            self.S = ref.uniform_survivals(n_max)
        else:
            self.S = ref.float_survivals(kernel, n_max)
        self.eh = ref.expected_heights(self.S)
        self.n_max = n_max

    def expected_height(self, n: int) -> "tuple[float, float] | None":
        """(reference value, relative tolerance), or None beyond the reference size."""
        if n <= self.small:
            return self.exact_eh[n], TOL_EXACT
        if n <= self.n_max:
            return float(self.eh[n]), TOL_FLOAT
        return None


def _close(actual: float, expected: float, rel: float, what: str) -> None:
    if not abs(actual - expected) <= rel * abs(expected):
        raise CheckFailed(f"{what}: got {actual!r}, reference {float(expected)!r}, rel tol {rel:g}")


def _height_properties(n: int, eh: float, what: str, bst: bool = False) -> None:
    lo = (n - 1).bit_length()  # ceil(log2 n)
    if not lo - SLACK <= eh <= n - 1 + SLACK:
        raise CheckFailed(f"{what}: E(H_{n}) = {eh!r} outside [ceil(log2 n), n-1] = [{lo}, {n - 1}]")
    if bst:
        bound = math.log(2 * math.e) + (2 * math.e - 1) * math.log(n) + 2
        if eh > bound:
            raise CheckFailed(f"{what}: bst E(H_{n}) = {eh!r} above the O(log n) bound {bound!r}")


def _check_eh(refs: Reference, n: int, eh: float, what: str) -> None:
    _height_properties(n, eh, what, refs.kernel[0] == "bst")
    expected = refs.expected_height(n)
    if expected is not None:
        _close(eh, expected[0], expected[1], f"{what} E(H_{n})")


def _mc_band(mean: float, stderr: float, reps: int, expected: float, what: str) -> None:
    k = float(student_t.isf(MC_ALPHA / 2, reps - 1))
    if not abs(mean - expected) <= k * stderr + SLACK:
        raise CheckFailed(
            f"{what}: Monte Carlo mean {mean!r} is {abs(mean - expected) / max(stderr, 1e-300):.2f} "
            f"standard errors from the reference {float(expected)!r} (band {k:.2f})"
        )


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


# --- checks ------------------------------------------------------------------------


def check_grid(refs: Reference, grid: list[int], what: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        rows = _csv_rows(out, "n,expected_height")
        if [int(r[0]) for r in rows] != grid:
            raise CheckFailed(f"{what}: grid sizes differ from the {len(grid)} requested")
        for r in rows:
            _check_eh(refs, int(r[0]), float(r[1]), what)
    return check


def check_cdf(n: int, survivals: "list[float]", tol: float, tail_tol: float,
              what: str) -> Callable[[str], None]:
    """Survivals against a reference column.

    With tail_tol > 0 the output must stop at the first survival <= tail_tol;
    with tail_tol = 0 it runs to the first survival that is exactly 0.
    Reference survivals below reference.TINY are only required to stay tiny.
    """
    def check(out: str) -> None:
        rows = _csv_rows(out, "h,cdf,survival")
        got = [float(r[2]) for r in rows]
        for h, r in enumerate(rows):
            if int(r[0]) != h:
                raise CheckFailed(f"{what}: layer {r[0]} out of order")
            if abs(float(r[1]) + got[h] - 1.0) > 1e-14:
                raise CheckFailed(f"{what}: cdf + survival != 1 at h={h}")
        if not got[-1] <= tail_tol or any(s <= tail_tol for s in got[:-1]):
            raise CheckFailed(f"{what}: output does not stop at the first survival <= {tail_tol:g}")
        for h, s in enumerate(got):
            expected = survivals[h] if h < len(survivals) else 0.0
            if expected >= ref.TINY:
                _close(s, expected, tol, f"{what} P(H_{n} > {h})")
            elif s > 1e-280:
                raise CheckFailed(f"{what}: P(H_{n} > {h}) = {s!r}, reference below {ref.TINY:g}")
        _height_properties(n, sum(got), what)
    return check


def check_verify(name: str, refs: Reference, grid: list[int], mc_reps: int
                 ) -> Callable[[str], None]:
    _, base_of, log_base = PRESETS[name]
    what = f"verify {name}" if not mc_reps else f"report {name}"

    def check(out: str) -> None:
        report = json.loads(out)
        if report["all_pass"] is not True or report["conditions_ok"] not in (True, None):
            raise CheckFailed(f"{what}: certificate verification did not pass")
        if [row["n"] for row in report["rows"]] != grid:
            raise CheckFailed(f"{what}: rows differ from the {len(grid)} requested sizes")
        for row in report["rows"]:
            n = row["n"]
            _check_eh(refs, n, row["exact_EH"], what)
            if n <= refs.n_max and n >= 2:
                expected = ref.log_moment(refs.S, n, base_of(n)) / math.log(log_base)
                if not abs(row["moment_log"] - expected) <= TOL_LOG_MOMENT * max(1.0, abs(expected)):
                    raise CheckFailed(
                        f"{what}: log moment at n={n} is {row['moment_log']!r}, reference {expected!r}"
                    )
            if mc_reps and n >= 2:
                _mc_band(row["mc_EH"], row["mc_stderr"], mc_reps, refs.expected_height(n)[0],
                         f"{what} n={n}")
    return check


def check_mc(grid: list[int], reps: int, expected: Callable[[int], float], what: str
             ) -> Callable[[str], None]:
    def check(out: str) -> None:
        rows = _csv_rows(out, "n,mc_EH,mc_stderr")
        if [int(r[0]) for r in rows] != grid:
            raise CheckFailed(f"{what}: grid sizes differ from the {len(grid)} requested")
        for r in rows:
            n, mean, stderr = int(r[0]), float(r[1]), float(r[2])
            if not stderr > 0:
                raise CheckFailed(f"{what}: zero standard error at n={n}")
            _mc_band(mean, stderr, reps, expected(n), f"{what} n={n}")
    return check


def shape_height(bits: str, n: int) -> int:
    """Height of a pre-order shape code ('1' inner, '0' leaf); raises unless it has n leaves."""
    depths = [0]  # depth of each pending subtree
    height = leaves = 0
    for c in bits:
        if not depths:
            raise CheckFailed(f"shape code continues past its last leaf: {bits[:40]}...")
        d = depths.pop()
        if c == "1":
            depths += [d + 1, d + 1]
        elif c == "0":
            leaves += 1
            height = max(height, d)
        else:
            raise CheckFailed(f"shape code has a character {c!r}")
    if depths or leaves != n:
        raise CheckFailed(f"shape code is incomplete or has {leaves} leaves, not {n}")
    return height


def check_trees(n: int, reps: int, expected: float, what: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        rows = _csv_rows(out, "replicate,shape")
        if [int(r[0]) for r in rows] != list(range(reps)):
            raise CheckFailed(f"{what}: replicate numbers are not 0..{reps - 1}")
        heights = np.array([shape_height(r[1], n) for r in rows], dtype=float)
        _mc_band(float(heights.mean()), float(heights.std(ddof=1) / math.sqrt(reps)), reps,
                 expected, f"{what} mean height")
    return check


# --- workloads -----------------------------------------------------------------------


def build(workload: str, seed: int, scale: str, out_dir: Path) -> list[Command]:
    """The workload's command sequence, with every reference value computed up front."""
    z = SCALES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    small, ref_n = z["small"], z["ref_n"]
    if workload == "exact":
        return _exact(rng, z, small, ref_n, out_dir / f"table-exact-{seed}.json")
    if workload == "certify":
        return _certify(rng, z, seed, small, ref_n)
    if workload == "sample":
        return _sample(rng, z, seed, small, ref_n, out_dir / f"table-sample-{seed}.json")
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")


def _exact(rng, z, small, ref_n, table_path) -> list[Command]:
    table = table_kernel(rng, small, min(256, ref_n))
    kfile = write_kernel_file(table, table_path)
    bst, binom, tab = (Reference(k, small, ref_n) for k in (("bst",), ("binomial", 0.3), table))
    g_bst = seeded_grid(rng, small, z["bst_max"])
    g_bin = seeded_grid(rng, small, z["bin_max"])
    g_tab = seeded_grid(rng, small, z["table_max"])
    uni = ref.uniform_survivals(z["uni_cdf"], stop_at=1e-14)[:, z["uni_cdf"]]
    tail_n = z["tail_n"]
    return [
        Command(["exact", "--kernel", "bst", "--grid", _grid_arg(g_bst)],
                check_grid(bst, g_bst, "exact bst")),
        Command(["exact", "--kernel", "binomial", "--p", "0.3", "--grid", _grid_arg(g_bin)],
                check_grid(binom, g_bin, "exact binomial(0.3)")),
        Command(["exact", "--kernel-file", kfile, "--grid", _grid_arg(g_tab)],
                check_grid(tab, g_tab, "exact table")),
        Command(["exact", "--kernel", "uniform", "--n", str(z["uni_cdf"]), "--cdf"],
                check_cdf(z["uni_cdf"], list(uni), TOL_SURV, 1e-12, "exact uniform cdf")),
        Command(["exact", "--kernel-file", kfile, "--n", str(small), "--cdf", "--tail-tol", "0"],
                check_cdf(small, [float(S[small]) for S in tab.exact], TOL_SURV_EXACT, 0.0,
                          "exact table cdf (exact reference)")),
        Command(["exact", "--kernel-file", kfile, "--n", str(tail_n), "--cdf", "--tail-tol", "0"],
                check_cdf(tail_n, list(tab.S[:, tail_n]), TOL_SURV, 0.0, "exact table cdf")),
    ]


def _certify(rng, z, seed, small, ref_n) -> list[Command]:
    refs = {k: Reference(k, small, ref_n) for k in (("bst",), ("uniform",), ("binomial", 0.5))}
    grids = {
        "bst-upper": seeded_grid(rng, small, z["upper_max"]),
        "bst-wbal": None,
        "uni-wbal": seeded_grid(rng, small, z["uni_wbal_max"]),
        "bin-wbal": seeded_grid(rng, small, z["bin_wbal_max"]),
        "bin-upper": seeded_grid(rng, small, z["bin_wbal_max"]),
    }
    cmds = []
    for name, grid in grids.items():
        argv = ["verify", "--preset", name, "--format", "json"]
        if grid is not None:
            argv += ["--grid", _grid_arg(grid)]
        cmds.append(Command(argv, check_verify(name, refs[PRESETS[name][0]],
                                               grid or list(BST_WBAL_DEFAULT_GRID), 0)))
    sizes = paired_sizes(rng, z["report_sizes"], 8)
    reps = z["report_reps"]
    cmds.append(Command(
        ["report", "--preset", "uni-wbal", "--grid", _grid_arg(sizes), "--replicates", str(reps),
         "--seed", str(seed), "--format", "json"],
        check_verify("uni-wbal", refs[("uniform",)], sizes, reps)))
    return cmds


def _sample(rng, z, seed, small, ref_n, table_path) -> list[Command]:
    table = table_kernel(rng, small, min(256, ref_n))
    kfile = write_kernel_file(table, table_path)
    bst, binom, tab = (Reference(k, small, ref_n) for k in (("bst",), ("binomial", 0.3), table))
    g_bst = paired_sizes(rng, z["mc_centres"], z["mc_jitter"])
    g_bin = paired_sizes(rng, z["mc_centres"], z["mc_jitter"])
    reps, uni_n, uni_reps = z["mc_reps"], z["uni_mc_n"], z["uni_mc_reps"]
    uni_eh = ref.uniform_mean_fft(uni_n)
    tree_n, tree_reps = z["tree_n"], z["tree_reps"]
    s = str(seed)
    return [
        Command(["mc", "--kernel", "bst", "--grid", _grid_arg(g_bst), "--replicates", str(reps),
                 "--seed", s],
                check_mc(g_bst, reps, lambda n: float(bst.eh[n]), "mc bst")),
        Command(["mc", "--kernel", "binomial", "--p", "0.3", "--grid", _grid_arg(g_bin),
                 "--replicates", str(reps), "--seed", s],
                check_mc(g_bin, reps, lambda n: float(binom.eh[n]), "mc binomial(0.3)")),
        Command(["mc", "--kernel", "uniform", "--n", str(uni_n), "--replicates", str(uni_reps),
                 "--seed", s],
                check_mc([uni_n], uni_reps, lambda n: uni_eh, "mc uniform")),
        Command(["sample", "--kernel-file", kfile, "--n", str(tree_n), "--replicates",
                 str(tree_reps), "--seed", s, "--what", "trees"],
                check_trees(tree_n, tree_reps, float(tab.eh[tree_n]), "sample table trees")),
    ]
