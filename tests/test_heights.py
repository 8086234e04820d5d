import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesource import heights
from treesource.heights import (
    BRUTE_FORCE_LIMIT,
    DEFAULT_TAIL_TOL,
    ScanBudgetError,
    brute_expected_height,
    check_moment_recursion,
    exp_moment,
    exp_moment_grid,
    expected_height,
    expected_height_grid,
    expected_heights,
    height_cdf,
    survival_layers,
)
from treesource.kernels import BinomialKernel, BstKernel, TableKernel, UniformKernel

KERNELS = [BstKernel(), UniformKernel(), BinomialKernel(0.3), BinomialKernel(0.5)]
IDS = [k.describe() for k in KERNELS]


# The largest size the default budget admits, the same for every kernel:
# each panel row holds the symmetrized half of a split row.
CEILING = 16341
CEILING_KERNELS = [
    BstKernel(),
    UniformKernel(),
    BinomialKernel(0.3),
    TableKernel({4: [0.25, 0.5, 0.25]}, BinomialKernel(0.3)),
]
CEILING_IDS = ["bst", "uniform", "binomial", "table"]


def scan_admits(kernel, n):
    """Whether a scan at n yields its first layer under the default budget."""
    layers = survival_layers(kernel, n)
    try:
        next(layers)
    except ScanBudgetError:
        return False
    finally:
        layers.close()
    return True


class TestSurvivalLayers:
    def test_layer_count_and_final_zero(self):
        layers = list(survival_layers(BstKernel(), 6))
        assert [h for h, _ in layers] == list(range(6))
        assert np.all(layers[-1][1] == 0.0)

    def test_layers_are_independent_copies(self):
        layers = [S for _, S in survival_layers(BstKernel(), 5)]
        assert layers[0] is not layers[1]
        assert float(layers[0][5]) == 1.0  # every 5-leaf tree is taller than 0

    def test_survivals_decrease_in_h(self):
        prev = None
        for _, S in survival_layers(UniformKernel(), 12):
            if prev is not None:
                assert np.all(S <= prev + 1e-15)
            prev = S

    @pytest.mark.parametrize("kernel", KERNELS[:3], ids=IDS[:3])
    def test_budget_covers_traced_peak(self, kernel):
        budget = 4 << 20

        def admits(n):
            layers = survival_layers(kernel, n, mem_budget=budget)
            try:
                next(layers)
            except ScanBudgetError:
                return False
            finally:
                layers.close()
            return True

        lo, hi = 1, 2048  # admits(lo), not admits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admits(mid) else (lo, mid)
        n = lo
        # warm state that outlives a scan, then trace a whole scan at the
        # ceiling; a first layer builds no row, so the uniform kernel's
        # scaled-Catalan table is still built, and traced, inside the scan
        next(survival_layers(kernel, n, mem_budget=budget))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layers = 0
            for _, S in survival_layers(kernel, n, mem_budget=budget):
                layers += 1
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert layers == n
        assert peak <= budget, f"n={n}: traced peak {peak} B over budget {budget} B"
        with pytest.raises(ScanBudgetError):
            next(survival_layers(kernel, n + 1, mem_budget=budget))

    @pytest.mark.parametrize("kernel", CEILING_KERNELS, ids=CEILING_IDS)
    def test_default_budget_ceiling(self, kernel):
        assert scan_admits(kernel, CEILING)
        assert not scan_admits(kernel, CEILING + 1)

    @pytest.mark.parametrize("kernel", [BstKernel(), BinomialKernel(0.3)], ids=["bst", "binomial"])
    def test_refusal_states_a_need_above_the_budget(self, kernel):
        n = CEILING + 1
        with pytest.raises(ScanBudgetError) as exc:
            next(survival_layers(kernel, n))
        match = re.fullmatch(
            rf"scan at n={n} needs ~(\d+) MiB for the split-matrix panels and work space, "
            r"budget is 512 MiB",
            str(exc.value),
        )
        assert match and int(match[1]) > 512, str(exc.value)

    @pytest.mark.parametrize("kernel", CEILING_KERNELS, ids=CEILING_IDS)
    def test_first_layer_builds_no_panel(self, kernel):
        # h = 0 has no live row (every row is 0 or 1), so no split row is
        # built: the first layer allocates O(n) even at the ceiling
        n = CEILING
        tracemalloc.start()
        try:
            layers = survival_layers(kernel, n)
            h, S = next(layers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layers.close()
        assert h == 0 and S[:2].tolist() == [0.0, 0.0] and np.all(S[2:] == 1.0)
        assert peak < 4 << 20, f"first layer traced peak {peak} B"

    def test_panels_are_built_as_layers_reach_them(self):
        pulled = []

        class Counting(BstKernel):
            def _ascending_rows(self, sizes):
                for m, row in zip(sizes, super()._ascending_rows(sizes)):
                    pulled.append(m)
                    yield row

        n = 3000
        blocks = heights._row_blocks(n, max(heights._BLOCK_BYTES // 8, n))
        for h, _ in survival_layers(Counting(), n):
            # layers 0 and 1 have no live row; later ones build every panel
            # up to the one that holds row 2^h, and no further
            top = 1 if h < 2 else next(m1 - 1 for m0, m1 in blocks if m0 <= min(n, 2**h) < m1)
            assert pulled == list(range(2, top + 1)), f"h={h}"
            if top == n:
                break

    @pytest.mark.parametrize("n", [CEILING + 1, 10**9])
    def test_refused_scan_allocates_nothing_large(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ScanBudgetError):
                next(survival_layers(BstKernel(), n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, f"n={n}: refusal traced peak {peak} B"

    def test_budget_guard(self):
        with pytest.raises(ScanBudgetError, match="MiB"):
            next(survival_layers(BstKernel(), 5000, mem_budget=1024))
        assert issubclass(ScanBudgetError, MemoryError)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            next(survival_layers(BstKernel(), 0))


class TestHeightCdf:
    def test_single_leaf(self):
        cdf = height_cdf(BstKernel(), 1)
        assert cdf.h_cut == 0
        assert cdf.values.tolist() == [1.0]
        assert cdf.expected_height() == 0.0

    def test_two_leaves(self):
        cdf = height_cdf(UniformKernel(), 2)
        assert cdf.values.tolist() == [0.0, 1.0]
        assert cdf.expected_height() == 1.0

    def test_four_leaves_flat_splits(self):
        # P(H_4 = 2) = 1/3: only the (2, 2) split gives height 2
        cdf = height_cdf(BstKernel(), 4, tail_tol=0.0)
        assert cdf.values == pytest.approx([0.0, 0.0, 1 / 3, 1.0], abs=1e-15)
        assert cdf.tail_mass == 0.0

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_cdf_invariants(self, kernel):
        for n in (3, 8, 17, 40):
            cdf = height_cdf(kernel, n)
            v = cdf.values
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
            assert np.all(np.diff(v) >= -1e-14)
            assert cdf.h_cut <= n - 1
            assert cdf.tail_mass <= cdf.tail_tol
            # no tree of size n is shorter than ceil(log2 n): exact zeros
            min_h = math.ceil(math.log2(n))
            assert np.all(v[:min_h] == 0.0)

    def test_values_are_frozen(self):
        cdf = height_cdf(BstKernel(), 8)
        with pytest.raises(ValueError):
            cdf.values[0] = 0.5

    def test_truncation_accounting(self):
        k = BinomialKernel(0.5)
        exact = expected_height(k, 64, tail_tol=0.0)
        loose_cdf = height_cdf(k, 64, tail_tol=1e-3)
        loose = loose_cdf.expected_height()
        assert loose <= exact + 1e-15
        assert exact <= loose + loose_cdf.truncation_error() + 1e-12

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            height_cdf(BstKernel(), 4, tail_tol=-1e-9)


class TestExpectedHeight:
    def test_frozen_small_values(self):
        assert expected_height(BstKernel(), 4) == pytest.approx(8 / 3, rel=1e-14)
        assert expected_height(UniformKernel(), 4) == pytest.approx(14 / 5, rel=1e-14)
        assert expected_height(BinomialKernel(0.5), 4) == pytest.approx(5 / 2, rel=1e-14)
        assert expected_height(BstKernel(), 5) == pytest.approx(10 / 3, rel=1e-14)

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_matches_exhaustive_enumeration(self, kernel):
        for n in range(1, 9):
            dp = expected_height(kernel, n, tail_tol=0.0)
            brute = float(brute_expected_height(kernel, n))
            assert dp == pytest.approx(brute, abs=1e-13)

    def test_tail_tol_only_truncates(self):
        k = UniformKernel()
        tight = expected_height(k, 50, tail_tol=1e-15)
        loose = expected_height(k, 50, tail_tol=1e-6)
        assert loose <= tight <= loose + 1e-3

    def test_grows_with_size(self):
        e = expected_height_grid(BstKernel(), 40)
        assert np.all(np.diff(e[1:]) > 0)


class TestExpectedHeightGrid:
    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_matches_single_size_calls(self, kernel):
        grid = expected_height_grid(kernel, 40)
        assert grid[0] == 0.0 and grid[1] == 0.0
        # a shared scan and a size-n scan agree up to summation rounding
        for n in (2, 3, 7, 19, 40):
            assert grid[n] == pytest.approx(expected_height(kernel, n), rel=1e-12)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            expected_height_grid(BstKernel(), 10, tail_tol=-1.0)


class TestExpMoment:
    def test_degenerate_sizes(self):
        assert exp_moment(BstKernel(), 1, 2.0).value == 1.0
        m = exp_moment(BstKernel(), 2, 3.5)
        assert m.value == pytest.approx(3.5, rel=1e-15)

    def test_four_leaves_flat_splits(self):
        # H_4 is 2 with probability 1/3 and 3 otherwise
        assert exp_moment(BstKernel(), 4, 2.0).value == pytest.approx(20 / 3, rel=1e-13)
        got = exp_moment(BstKernel(), 4, math.e).value
        want = (math.e**2 + 2 * math.e**3) / 3
        assert got == pytest.approx(want, rel=1e-13)

    def test_brute_force_cross_check(self):
        from treesource.kernels import tree_probability
        from treesource.trees import enumerate_trees

        base = 1.7
        for kernel in (UniformKernel(), BinomialKernel(0.3)):
            want = sum(
                tree_probability(kernel, t)[0] * base**t.height
                for t in enumerate_trees(7)
            )
            got = exp_moment(kernel, 7, base, tail_tol=0.0).value
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_stays_finite_in_log(self):
        m = exp_moment(BstKernel(), 200, 1e6, tail_tol=1e-9)
        assert m.overflowed
        assert m.value == math.inf
        assert float(m) == math.inf
        assert math.isfinite(m.log_value)
        assert m.log_value > 700

    def test_grid_matches_single_calls(self):
        k = BinomialKernel(0.4)
        logs, stops = exp_moment_grid(k, 30, 2.0)
        assert logs[0] == 0.0 and logs[1] == 0.0
        for n in (2, 9, 30):
            single = exp_moment(k, n, 2.0)
            assert logs[n] == pytest.approx(single.log_value, rel=1e-12)
            assert abs(stops[n] - single.h_cut) <= 1

    def test_per_size_bases(self):
        k = BstKernel()
        sizes = np.arange(21)
        bases = 1.0 + 1.0 / np.sqrt(np.maximum(sizes, 1))
        logs, _ = exp_moment_grid(k, 20, bases, tail_tol=0.0)
        for n in (2, 10, 20):
            assert logs[n] == pytest.approx(
                exp_moment(k, n, float(bases[n]), tail_tol=0.0).log_value, rel=1e-13
            )

    def test_jensen_floor(self):
        for kernel in (BstKernel(), UniformKernel()):
            eh = expected_height(kernel, 40)
            assert exp_moment(kernel, 40, math.e).log_value >= eh - 1e-12

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            exp_moment(BstKernel(), 5, 1.0)
        with pytest.raises(ValueError):
            exp_moment_grid(BstKernel(), 5, 0.5)
        with pytest.raises(ValueError):
            exp_moment_grid(BstKernel(), 5, math.inf)


ONE_PASS_KERNELS = {
    "bst": (BstKernel(), 3000),
    "uniform": (UniformKernel(), 200),
    "binomial(0.3)": (BinomialKernel(0.3), 500),
    "table": (
        TableKernel({4: [0.5, 0.0, 0.5], 12: [0.0] * 5 + [1.0] + [0.0] * 5}, BinomialKernel(0.3)),
        300,
    ),
}


class TestOnePass:
    @pytest.mark.parametrize("kernel, n", ONE_PASS_KERNELS.values(), ids=ONE_PASS_KERNELS)
    def test_single_sizes_equal_grid_entries(self, kernel, n):
        eh = expected_height(kernel, n)
        assert eh == expected_height_grid(kernel, n)[n]
        assert eh == height_cdf(kernel, n).expected_height()
        n = min(n, 300)  # the moment stop rule runs long scans
        logs, stops = exp_moment_grid(kernel, n, 1.5)
        m = exp_moment(kernel, n, 1.5)
        assert (m.log_value, m.h_cut) == (logs[n], stops[n])

    def test_unasked_sizes_do_not_extend_a_pass(self, comb_kernel, scan_layers):
        m = exp_moment(comb_kernel, 12, 2.0)
        assert scan_layers == [5]
        assert m.value == pytest.approx(16.0, rel=1e-15)
        # the whole grid waits for size 10
        exp_moment_grid(comb_kernel, 12, 2.0)
        assert scan_layers == [5, 10]

    def test_sizes_zero_and_one(self):
        k = BstKernel()
        for entry in (height_cdf, expected_height, expected_height_grid):
            with pytest.raises(ValueError, match="n >= 1"):
                entry(k, 0)
        for n in (0, 1):
            m = exp_moment(k, n, 2.0)
            assert (m.log_value, m.h_cut) == (0.0, 0)
        assert expected_height(k, 1) == 0.0
        assert expected_height_grid(k, 1).tolist() == [0.0, 0.0]
        assert [a.tolist() for a in exp_moment_grid(k, 1, 2.0)] == [[0.0, 0.0], [0, 0]]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.0, -1e-9])
    def test_rejects_tail_tol_outside_unit_interval(self, tol):
        k = BstKernel()
        for entry in (height_cdf, expected_height, expected_height_grid):
            with pytest.raises(ValueError, match="tail_tol"):
                entry(k, 10, tol)
        with pytest.raises(ValueError, match="tail_tol"):
            exp_moment(k, 10, 2.0, tol)
        with pytest.raises(ValueError, match="tail_tol"):
            exp_moment_grid(k, 10, 2.0, tol)


class TestExpectedHeights:
    @pytest.mark.parametrize("kernel, n", ONE_PASS_KERNELS.values(), ids=ONE_PASS_KERNELS)
    def test_each_size_equals_expected_height(self, kernel, n):
        n = min(n, 500)
        sizes = [1, 2, 3, 17, n // 2, n]
        for m in sizes:
            assert expected_heights(kernel, [m]).tolist() == [expected_height(kernel, m)]
        # one pass over every size is the grid's scan, summed in the same order
        shared = expected_heights(kernel, sizes)
        assert shared.tolist() == expected_height_grid(kernel, n)[sizes].tolist()
        assert shared[-1] == expected_height(kernel, n)

    def test_rejects_no_size_and_size_zero(self):
        for sizes in ([], [0, 5]):
            with pytest.raises(ValueError, match="size"):
                expected_heights(BstKernel(), sizes)


class TestBruteForce:
    def test_exact_rationals(self):
        assert brute_expected_height(BstKernel(), 4) == Fraction(8, 3)
        assert brute_expected_height(UniformKernel(), 4) == Fraction(14, 5)
        assert brute_expected_height(BinomialKernel(0.5), 4) == Fraction(5, 2)
        assert brute_expected_height(BstKernel(), 5) == Fraction(10, 3)

    def test_trivial_sizes(self):
        assert brute_expected_height(UniformKernel(), 1) == 0
        assert brute_expected_height(UniformKernel(), 2) == 1

    def test_table_rows_respected(self):
        k = TableKernel({3: [1.0, 0.0]}, BstKernel())
        # size 3 always splits (1, 2), but both 3-leaf shapes have height 2
        assert brute_expected_height(k, 3) == 2

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_expected_height(BstKernel(), 0)
        with pytest.raises(ValueError):
            brute_expected_height(BstKernel(), BRUTE_FORCE_LIMIT + 1)


class TestMomentRecursion:
    def test_two_leaf_slack_is_phi(self):
        # at n=2 the right side is exactly twice the left, so the linear
        # slack equals phi itself
        phi = np.full(3, math.e)
        rep = check_moment_recursion(BstKernel(), 2, phi)
        slack_linear = math.exp(rep.rhs_log[0]) - math.exp(rep.lhs_log[0])
        assert slack_linear == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_constant_base_holds(self, kernel):
        phi = np.full(51, math.e)
        rep = check_moment_recursion(kernel, 50, phi)
        assert rep.passed
        assert rep.min_slack >= -1e-9
        assert "holds" in rep.summary()

    def test_shrinking_base_holds(self):
        sizes = np.arange(31)
        phi = 1.0 + 1.0 / np.sqrt(np.maximum(sizes, 1))
        rep = check_moment_recursion(UniformKernel(), 30, phi)
        assert rep.passed
        assert len(rep.slack) == 29
        assert rep.ns[0] == 2 and rep.ns[-1] == 30

    def test_worst_case_reporting(self):
        rep = check_moment_recursion(BstKernel(), 20, np.full(21, 2.0))
        assert 2 <= rep.worst_n <= 20
        assert rep.min_slack == rep.slack.min()

    def test_logsumexp(self):
        # shifted by the largest entry, so huge logs neither overflow nor lose
        # the smaller terms; -inf entries are zero terms
        assert heights._logsumexp(np.array([-np.inf, 0.0, math.log(3.0)])) == pytest.approx(
            math.log(4.0), rel=1e-15
        )
        assert heights._logsumexp(np.array([1000.0, 1000.0, -np.inf])) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15
        )
        assert heights._logsumexp(np.full(3, -np.inf)) == -math.inf

    def test_phi_validation(self):
        k = BstKernel()
        with pytest.raises(ValueError, match="entry per size"):
            check_moment_recursion(k, 10, np.full(5, 2.0))
        bad = np.full(11, 2.0)
        bad[7] = 1.0
        with pytest.raises(ValueError, match="> 1"):
            check_moment_recursion(k, 10, bad)
        rising = np.linspace(1.5, 2.5, 11)
        with pytest.raises(ValueError, match="nonincreasing"):
            check_moment_recursion(k, 10, rising)


def exact_survival_layers(kernel, n):
    """Survival layers S_0..S_{n-1} in Fraction arithmetic from sigma_exact.

    The reference runs the recurrence in its textbook form,
    S'[m] = sum_k sigma(k, m-k) * (S[k] + S[m-k] - S[k] * S[m-k]),
    with no clipping and no forced entries.
    """
    rows = {m: [kernel.sigma_exact(k, m - k) for k in range(1, m)] for m in range(2, n + 1)}
    S = [Fraction(0)] + [Fraction(1)] * n
    layers = []
    for _ in range(n):
        S = [Fraction(0), Fraction(0)] + [
            sum(w * (S[k] + S[m - k] - S[k] * S[m - k]) for k, w in enumerate(rows[m], 1))
            for m in range(2, n + 1)
        ]
        layers.append(S)
    return layers


# Relative tolerance for every survival above SURVIVAL_FLOOR.  Float rows are
# within a few roundings of the exact ones (binomial rows come from Pascal
# steps), and each layer adds a few roundings of nonnegative terms; at n = 16
# the built-in kernels stay below 1e-14.
EXACT_REL_TOL = 1e-12
SURVIVAL_FLOOR = 1e-300


def assert_matches_exact_scan(kernel, n):
    want = exact_survival_layers(kernel, n)
    got = list(survival_layers(kernel, n))
    assert [h for h, _ in got] == list(range(n))
    for h, S in got:
        exact = np.array([float(x) for x in want[h]])
        # every term of the layer is nonnegative, so exact zeros stay zeros
        assert np.array_equal(S == 0.0, exact == 0.0), f"zero pattern differs at h={h}"
        # a tree on more than 2^h leaves is taller than h
        assert np.all(S[2**h + 1 :] == 1.0), f"h={h}: rows above 2^h are not exactly 1"
        big = exact > SURVIVAL_FLOOR
        rel = np.abs(S[big] - exact[big]) / exact[big]
        assert rel.max(initial=0.0) <= EXACT_REL_TOL, f"h={h}: rel err {rel.max():.3e}"
    # both accumulators of the shared scan, untruncated
    eh = [sum(layer[m] for layer in want) for m in range(n + 1)]
    grid = expected_height_grid(kernel, n, tail_tol=0.0)
    assert grid == pytest.approx([float(x) for x in eh], rel=EXACT_REL_TOL, abs=0)
    logs, _ = exp_moment_grid(kernel, n, 2.0, tail_tol=0.0)
    moments = [1 + sum(2**h * layer[m] for h, layer in enumerate(want)) for m in range(n + 1)]
    assert logs[2:] == pytest.approx(
        [math.log(x) for x in moments[2:]], rel=EXACT_REL_TOL, abs=0
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
def test_scan_matches_exact_reference(kernel):
    assert_matches_exact_scan(kernel, 16)


# Block scratch sizes that cut rows 2..16 into small panels: 8 bytes leaves
# one row's width (16 entries) and 200 bytes 25, so panels, which hold half
# of each row, take 1-6 rows.  Layers slice panels at both ends: at h = 2
# only row 4 is live, inside the first panel, and at h = 3 the panels
# [7, 10) and [8, 12) are cut at the 2^h = 8 boundary.  Four panels end on
# an even row, whose middle column is the panel's last.
SMALL_BLOCKS = [8, 200]


@pytest.mark.parametrize("block_bytes", SMALL_BLOCKS)
@pytest.mark.parametrize("kernel", KERNELS[:3], ids=IDS[:3])
def test_blocked_scan_matches_exact_reference(kernel, block_bytes, monkeypatch):
    monkeypatch.setattr(heights, "_BLOCK_BYTES", block_bytes)
    assert_matches_exact_scan(kernel, 16)


@pytest.mark.parametrize("block_bytes", SMALL_BLOCKS + [heights._BLOCK_BYTES])
@pytest.mark.parametrize("share", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 720, 3000])
def test_row_blocks_tile_rows_and_fit_the_scratch(n, share, block_bytes):
    # the whole scratch, or half of it, which also gives odd caps
    cap = max(block_bytes // (8 * share), n)
    blocks = heights._row_blocks(n, cap)
    # consecutive, nonempty, from row 2 up to row n with no gap or overlap
    starts = [m0 for m0, _ in blocks] + [n + 1]
    assert starts[0] == min(2, n + 1)
    assert [m1 for _, m1 in blocks] == starts[1:]
    assert all(m1 > m0 for m0, m1 in blocks)
    for m0, m1 in blocks:
        assert (m1 - m0) * ((m1 - 1) // 2) <= cap, (m0, m1)
        # each block but the last takes the most rows the sizing rule allows
        r = m1 - m0
        assert m1 == n + 1 or (r + 1) * (m0 + r) > 2 * cap, (m0, m1)


def dense_survival_layers(kernel, n, layers):
    """The first layers of the recurrence over whole dense matrices.

    Unblocked, every row computed, no forced entries and no clipping:
    S'[m] = sum_k W[m, k] * (S[k] + S[m-k] * (1 - S[k])).
    """
    W = np.zeros((n + 1, n + 1))
    for m in range(2, n + 1):
        W[m, 1:m] = kernel.split_pmf(m)
    diff = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))  # m - k
    S = np.ones(n + 1)
    S[0] = 0.0
    out = []
    for _ in range(layers):
        T = np.where(diff >= 0, S[np.maximum(diff, 0)], 0.0)
        S = (W * (S + T * (1.0 - S))).sum(axis=1)
        out.append(S)
    return out


@pytest.mark.parametrize("kernel", KERNELS[:3], ids=IDS[:3])
def test_scan_matches_dense_recurrence(kernel):
    # rows 2..n hold more than three scratch blocks, and the 2^h boundary
    # at 512 falls inside the scan's row range at h = 9
    n, depth = 720, 80
    assert n * (n - 1) // 2 > 3 * (heights._BLOCK_BYTES // 8)
    want = dense_survival_layers(kernel, n, depth)
    for (h, S), ref in zip(survival_layers(kernel, n), want):
        assert np.array_equal(S == 0.0, ref == 0.0), f"zero pattern differs at h={h}"
        assert np.all(S[2**h + 1 :] == 1.0), f"h={h}: rows above 2^h are not exactly 1"
        big = ref > SURVIVAL_FLOOR
        rel = np.abs(S[big] - ref[big]) / ref[big]
        assert rel.max(initial=0.0) <= EXACT_REL_TOL, f"h={h}: rel err {rel.max():.3e}"


class Mirrored(BinomialKernel):
    """The binomial kernel with every split row reversed: sigma(k, m-k) -> sigma(m-k, k)."""

    def _ascending_rows(self, sizes):
        for row in super()._ascending_rows(sizes):
            yield row[::-1]


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_scan_is_blind_to_mirrored_rows(p):
    # a height does not see which subtree is on the left, and the scan reads
    # each row only through sigma(k, m-k) + sigma(m-k, k): every layer,
    # untruncated, matches bit for bit
    n = 1000
    layers = 0
    mirrored, plain = survival_layers(Mirrored(p), n), survival_layers(BinomialKernel(p), n)
    for (h, S), (_, ref) in zip(mirrored, plain):
        layers += 1
        assert np.array_equal(S, ref), f"h={h}"
    assert layers == n


@pytest.mark.parametrize(
    "kernel",
    [
        BstKernel(),
        UniformKernel(),
        BinomialKernel(0.5),
        TableKernel(
            {5: [0.7, 0.2, 0.1, 0.0], 8: [0.0, 0.5, 0.0, 0.0, 0.1, 0.0, 0.4]}, BinomialKernel(0.5)
        ),
    ],
    ids=["bst", "uniform", "binomial(0.5)", "table"],
)
def test_folded_scan_matches_unfolded_scan(kernel):
    # every layer, untruncated, against the dense recurrence over whole
    # rows.  Zero patterns are not compared: where a product of a split
    # entry and a survival falls below the smallest subnormal, the folded
    # entry's sum can keep a term that sigma * S alone rounds to 0, so some
    # deep-tail entries are nonzero only in the scan
    n = 400
    want = dense_survival_layers(kernel, n, n)
    for (h, S), ref in zip(survival_layers(kernel, n), want):
        assert not np.any((S > SURVIVAL_FLOOR) & (ref == 0.0)), f"h={h}"
        assert not np.any((ref > SURVIVAL_FLOOR) & (S == 0.0)), f"h={h}"
        big = ref > SURVIVAL_FLOOR
        rel = np.abs(S[big] - ref[big]) / ref[big]
        assert rel.max(initial=0.0) <= EXACT_REL_TOL, f"h={h}: rel err {rel.max():.3e}"
    assert h == n - 1


@st.composite
def table_kernels(draw, n_max=16):
    fallback = draw(
        st.sampled_from([BstKernel(), UniformKernel(), BinomialKernel(0.3), BinomialKernel(0.8)])
    )
    sizes = draw(st.sets(st.integers(min_value=2, max_value=n_max), max_size=6))
    rows = {}
    for n in sizes:
        # integer weights, zeros allowed: ties, one-sided and degenerate rows
        w = draw(
            st.lists(st.integers(min_value=0, max_value=1000), min_size=n - 1, max_size=n - 1)
            .filter(any)
        )
        rows[n] = np.array(w, dtype=float) / sum(w)
    return TableKernel(rows, fallback)


@settings(max_examples=60, deadline=None)
@given(
    kernel=table_kernels(),
    n=st.integers(min_value=1, max_value=16),
    block_bytes=st.sampled_from(SMALL_BLOCKS + [heights._BLOCK_BYTES]),
)
def test_scan_matches_exact_reference_on_tables(kernel, n, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heights, "_BLOCK_BYTES", block_bytes)
        assert_matches_exact_scan(kernel, n)


def moment_bases(kind, n):
    """Moment bases per size 0..n: constant e, falling toward 1 as 1 + 1/sqrt(m), or near 1."""
    if kind == "falling":
        return 1.0 + 1.0 / np.sqrt(np.maximum(np.arange(n + 1), 1))
    return np.full(n + 1, {"e": math.e, "near-one": 1.0 + 1e-6}[kind])


def assert_tail_bound_holds(kernel, n, bases):
    """At every layer h and size m, the geometric bound is at least the remaining tail.

    The tail (b-1) * sum_{j>h} b^j S_j[m] is summed from the untruncated scan,
    with the pass's largest base for the supersolution, as _grid_scan builds it.
    """
    sizes = np.arange(2, n + 1)
    b = bases[sizes]
    layers = np.array([S for _, S in survival_layers(kernel, n)])
    log_g = heights._log_supersolution(kernel, n, float(b.max()))
    assert np.all(np.isfinite(log_g[2:]))
    terms = (b - 1.0) * b ** np.arange(n)[:, None] * layers[:, sizes]
    for h in range(n):
        bound = np.log(b - 1.0) + h * np.log(b)
        bound += heights._log_tail_factor(layers[h], log_g, sizes)
        with np.errstate(divide="ignore"):
            tail = np.log(terms[h + 1 :].sum(axis=0))
        # the margin in g is 1e-6; 1e-12 covers the rounding of this sum
        below = sizes[bound < tail - 1e-12]
        assert below.size == 0, f"h={h}: bound below the tail at sizes {below}"


BASE_KINDS = ["e", "falling", "near-one"]


class TestTailBound:
    @pytest.mark.parametrize("bases", BASE_KINDS)
    @pytest.mark.parametrize("kernel", KERNELS[:3], ids=IDS[:3])
    def test_bound_covers_the_tail(self, kernel, bases):
        assert_tail_bound_holds(kernel, 40, moment_bases(bases, 40))

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=table_kernels(n_max=40),
        n=st.integers(min_value=2, max_value=40),
        bases=st.sampled_from(BASE_KINDS),
    )
    def test_bound_covers_the_tail_on_tables(self, kernel, n, bases):
        assert_tail_bound_holds(kernel, n, moment_bases(bases, n))

    def test_bst_moment_pass_is_short(self, scan_layers):
        # the plain bound e^(m-1) * S_h[m] alone ran 277 layers
        exp_moment_grid(BstKernel(), 1200, math.e)
        assert scan_layers[0] <= 80

    @pytest.mark.parametrize("bases", BASE_KINDS)
    @pytest.mark.parametrize("kernel, n", ONE_PASS_KERNELS.values(), ids=ONE_PASS_KERNELS)
    def test_moments_within_tail_tol_of_untruncated(self, kernel, n, bases):
        n = min(n, 300)
        b = moment_bases(bases, n)
        full, _ = exp_moment_grid(kernel, n, b, tail_tol=0.0)
        cut, _ = exp_moment_grid(kernel, n, b)
        # a truncated sum is a prefix of the untruncated one, added in the same order
        assert np.all(cut <= full)
        assert np.all(full - cut <= math.log1p(DEFAULT_TAIL_TOL) + 4 * np.spacing(full))
