import functools
import itertools
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from treesource import sampling
from treesource.heights import height_cdf
from treesource.kernels import (
    BinomialKernel,
    BstKernel,
    SplitKernel,
    TableKernel,
    UniformKernel,
    tree_probability,
)
from treesource.sampling import (
    MC_BLOCK,
    _block_heights,
    _level_drawer,
    _ProductDraw,
    mc_expected_height,
    mc_expected_height_grid,
    mc_heights,
    mix64,
    replicate_seed,
    sample_height,
    sample_preorder,
    sample_shape,
    sample_tree,
    sample_uniform_remy,
    sample_uniform_remy_shape,
)
from treesource.trees import (
    LEAF,
    count_trees,
    enumerate_trees,
    node,
    shape_bits,
)

CHI2_ALPHA = 1e-4  # deterministic seeds; a failure means a real defect


def on_path(kernel, path, n):
    """The kernel itself ("auto"), or a table of its law drawn by inverse CDF up to size n ("cdf").

    A table draws a size it lists by inverse CDF over that size's row, so
    listing every row from 2 to n makes every share of a tree of up to n
    leaves such a draw.
    """
    return kernel if path == "auto" else listing(kernel, n)


def listing(kernel, top):
    """A table of the kernel's law listing its rows 2..top; larger sizes go to its fallback."""
    sizes = range(2, top + 1)
    rows = {**getattr(kernel, "rows", {}), **dict(zip(sizes, kernel._ascending_rows(sizes)))}
    return TableKernel(rows, getattr(kernel, "fallback", kernel))


def kernel_shapes(kernel, n):
    """draw(rng, count): shape bits of count trees drawn from rng, one sample_preorder call."""
    return lambda rng, count: (bits for bits, _ in sample_preorder(kernel, n, count, rng))


def shape_counts(draw, replicates, seed):
    return Counter(draw(np.random.default_rng(seed), replicates))


def assert_matches_distribution(kernel, n, draw, replicates=6000, seed=7):
    counts = shape_counts(draw, replicates, seed)
    shapes = [shape_bits(t) for t in enumerate_trees(n)]
    expected = np.array(
        [tree_probability(kernel, t)[0] for t in enumerate_trees(n)]
    )
    observed = np.array([counts.get(s, 0) for s in shapes], dtype=float)
    assert observed.sum() == replicates
    keep = expected * replicates >= 5  # chi-square needs non-sparse cells
    scale = observed[keep].sum() / expected[keep].sum()
    _, pvalue = chisquare(observed[keep], expected[keep] * scale)
    assert pvalue > CHI2_ALPHA


class TestSeedDerivation:
    def test_known_mix_vector(self):
        # first output of the splitmix64 stream seeded with 0
        assert replicate_seed(0, 0) == 0xE220A8397B1DCDAF
        assert replicate_seed(0, 0) == 16294208416658607535

    def test_mix64_masks_to_64_bits(self):
        assert mix64(123456789 + (1 << 64)) == mix64(123456789)
        assert 0 <= mix64(123456789) < 1 << 64
        assert mix64(0) == 0

    def test_replicates_are_distinct(self):
        seeds = {replicate_seed(42, r) for r in range(1000)}
        assert len(seeds) == 1000

    def test_masters_are_distinct(self):
        assert replicate_seed(0, 0) != replicate_seed(1, 0)


class TestSampleTree:
    def test_trivial_sizes(self):
        assert sample_tree(BstKernel(), 1, 0) is LEAF
        assert sample_tree(UniformKernel(), 2, 0) == node(LEAF, LEAF)

    @pytest.mark.parametrize(
        "kernel",
        [BstKernel(), UniformKernel(), BinomialKernel(0.3)],
        ids=lambda k: k.describe(),
    )
    def test_size_is_exact(self, kernel):
        for n in (1, 2, 7, 64, 301):
            assert sample_tree(kernel, n, seed=n).size == n

    def test_seed_determinism(self):
        a = sample_tree(BinomialKernel(0.4), 60, seed=123)
        b = sample_tree(BinomialKernel(0.4), 60, seed=123)
        assert a == b

    def test_seeds_vary_output(self):
        shapes = {shape_bits(sample_tree(BstKernel(), 40, seed=s)) for s in range(5)}
        assert len(shapes) > 1

    def test_generator_stream_advances(self):
        rng = np.random.default_rng(5)
        a = sample_tree(BstKernel(), 30, rng)
        b = sample_tree(BstKernel(), 30, rng)
        assert a.size == b.size == 30
        assert shape_bits(a) != shape_bits(b)

    def test_strategy_validation(self):
        # the draw method follows from the kernel; there is no knob to pass
        with pytest.raises(TypeError):
            sample_tree(BstKernel(), 5, 0, strategy="cdf")
        with pytest.raises(TypeError):
            sample_height(BstKernel(), 5, 0, strategy="cdf")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_tree(BstKernel(), 0, 0)


class TestSampleHeight:
    @pytest.mark.parametrize(
        "kernel",
        [BstKernel(), UniformKernel(), BinomialKernel(0.3)],
        ids=lambda k: k.describe(),
    )
    @pytest.mark.parametrize("path", ["auto", "cdf"])
    def test_agrees_with_sampled_tree(self, kernel, path):
        kernel = on_path(kernel, path, 37)
        for seed in range(12):
            t = sample_tree(kernel, 37, seed)
            h = sample_height(kernel, 37, seed)
            assert h == t.height

    def test_bounds(self):
        for seed in range(20):
            h = sample_height(BstKernel(), 33, seed)
            assert math.ceil(math.log2(33)) <= h <= 32

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_height(BstKernel(), 0, 0)


TABLE = TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, BinomialKernel(0.3))
CDF_TABLES = [
    TABLE,
    TableKernel({3: [0.0, 1.0], 6: [0.2, 0.0, 0.0, 0.0, 0.8]}, BstKernel()),
    TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, UniformKernel()),
]


def grown_trees(draw, n, blocks, rng):
    """(shape bits, height) of trees grown as sample_preorder grows them, built by recursion.

    The trees come in blocks of the given sizes, all drawn from rng in
    turn.  Within a block every step makes one draw(sizes, rng) call for the
    pending blocks of m >= 2 leaves: the left parts of the step before, in
    order, then its right parts, where a draw of 0 leaves its block whole in
    its right part's place.  Each tree is then built from its splits, keyed
    by the path from its root, with node() and no shape-bit arithmetic.
    """
    out = []
    for count in blocks:
        splits = {}
        pending = [(t, "", n) for t in range(count)]
        while pending := [block for block in pending if block[2] >= 2]:
            shares = draw(np.array([m for _, _, m in pending]), rng).tolist()
            splits.update(((t, path), k) for (t, path, _), k in zip(pending, shares) if k)
            left = [(t, path + "0", k) for (t, path, _), k in zip(pending, shares)]
            right = [
                (t, path + "1", m - k) if k else (t, path, m)
                for (t, path, m), k in zip(pending, shares)
            ]
            pending = left + right

        def build(t, path, m):
            if m == 1:
                return LEAF
            k = splits[t, path]
            return node(build(t, path + "0", k), build(t, path + "1", m - k))

        out += [(shape_bits(tree), tree.height) for tree in (build(t, "", n) for t in range(count))]
    return out


def cdf_drawer(kernel):
    """A draw(sizes, rng) of the scalar inverse-CDF lookups, one rng.random() per size."""
    return lambda sizes, rng: scalar_draws(kernel, sizes, rng.random(sizes.size))


def record_batches(monkeypatch):
    """The sizes of the blocks of trees that sample_preorder grows, listed as they grow."""
    sizes = []
    grow = sampling._grow

    def recording_grow(draw, n, count, rng):
        sizes.append(count)
        return grow(draw, n, count, rng)

    monkeypatch.setattr(sampling, "_grow", recording_grow)
    return sizes


PREORDER_KERNELS = [
    BstKernel(),
    UniformKernel(),
    BinomialKernel(0.3),
    TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, BinomialKernel(0.3)),
]


class TestSamplePreorder:
    @pytest.mark.parametrize("kernel", PREORDER_KERNELS, ids=lambda k: k.describe())
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_equals_one_seed_at_a_time(self, kernel, n):
        # a one-tree call gives sample_shape's bits and sample_height's height
        # at its seed
        for seed in (replicate_seed(3, r) for r in range(8)):
            want = grown_trees(_level_drawer(kernel, n), n, [1], np.random.default_rng(seed))
            assert list(sample_preorder(kernel, n, 1, seed)) == want
            assert want == [(sample_shape(kernel, n, seed), sample_height(kernel, n, seed))]
            assert shape_bits(sample_tree(kernel, n, seed)) == want[0][0]

    @pytest.mark.parametrize("kernel", PREORDER_KERNELS, ids=lambda k: k.describe())
    def test_one_generator_draws_the_trees_in_turn(self, kernel, monkeypatch):
        # with blocks of one tree, one call draws what one-tree calls on the
        # same generator draw in turn
        monkeypatch.setattr(sampling, "_BATCH_CELLS", 40)
        rng = np.random.default_rng(9)
        want = [sample_shape(kernel, 40, rng) for _ in range(6)]
        rng = np.random.default_rng(9)
        got = [bits for bits, _ in sample_preorder(kernel, 40, 6, rng)]
        assert got == want
        assert len(set(got)) > 1

    @pytest.mark.parametrize(
        "kernel",
        [
            # uniform's law on the inverse-CDF path; UniformKernel draws by rejection
            pytest.param(UniformKernel(), id="uniform"),
            TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, UniformKernel()),
            TableKernel({2: [1.0]}, BinomialKernel(0.3)),
        ],
        ids=lambda k: k.describe(),
    )
    def test_cdf_trees_take_one_uniform_per_inner_node(self, kernel):
        # with every row listed, the shares are split_cdf lookups of
        # rng.random(), one per pending block per step; five trees in one
        # block take 5 * 119 uniforms in all
        kernel = on_path(kernel, "cdf", 120)
        want = grown_trees(cdf_drawer(kernel), 120, [5], np.random.default_rng(12))
        rng = np.random.default_rng(12)
        assert list(sample_preorder(kernel, 120, 5, rng)) == want
        ref = np.random.default_rng(12)
        ref.random(5 * 119)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("kernel", CDF_TABLES, ids=lambda k: k.describe())
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_batches_keep_the_bits(self, kernel, n, monkeypatch):
        # three trees per block, so eight trees grow in blocks of 3, 3 and 2;
        # with every row listed, each share is an inverse-CDF lookup
        kernel = on_path(kernel, "cdf", n)
        monkeypatch.setattr(sampling, "_BATCH_CELLS", 3 * n)
        batches = record_batches(monkeypatch)
        want = grown_trees(cdf_drawer(kernel), n, [3, 3, 2], np.random.default_rng(3))
        assert list(sample_preorder(kernel, n, 8, 3)) == want
        assert batches == [3, 3, 2]

    def test_one_generator_runs_across_batches(self, monkeypatch):
        # seven trees from one stream in blocks of 2: each block takes its
        # draws in turn, and the stream ends where the last block's do
        n = 60
        monkeypatch.setattr(sampling, "_BATCH_CELLS", 2 * n)
        batches = record_batches(monkeypatch)
        for kernel in PREORDER_KERNELS:
            batches.clear()
            ref = np.random.default_rng(9)
            want = grown_trees(_level_drawer(kernel, n), n, [2, 2, 2, 1], ref)
            rng = np.random.default_rng(9)
            assert list(sample_preorder(kernel, n, 7, rng)) == want
            assert batches == [2, 2, 2, 1]
            assert rng.random() == ref.random()
            # a larger count leaves every full block as it was
            assert list(sample_preorder(kernel, n, 9, 9))[:6] == want[:6]

    def test_batches_bound_the_memory(self):
        # 400 trees at n = 3000 grow in blocks of _BATCH_CELLS // n = 21
        # trees, which traced 1.6 MiB with rows 2..40 listed over bst
        n = 3000
        kernel = listing(BstKernel(), 40)
        tracemalloc.start()
        try:
            for _ in sample_preorder(kernel, n, 400, 0):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * sampling._BATCH_CELLS

    def test_checks_the_size_before_drawing(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_preorder(UniformKernel(), 0, 3, rng)
        with pytest.raises(ValueError, match="count >= 0"):
            sample_preorder(UniformKernel(), 5, -1, rng)
        assert list(sample_preorder(UniformKernel(), 5, 0, rng)) == []
        assert rng.random() == np.random.default_rng(4).random()


class TestDistributions:
    def test_bst_specialized(self):
        k = BstKernel()
        assert_matches_distribution(k, 5, kernel_shapes(k, 5))

    def test_bst_cdf_strategy(self):
        k = on_path(BstKernel(), "cdf", 5)
        assert_matches_distribution(k, 5, kernel_shapes(k, 5))

    def test_binomial_specialized(self):
        k = BinomialKernel(0.3)
        assert_matches_distribution(k, 5, kernel_shapes(k, 5))

    def test_binomial_cdf_strategy(self):
        k = on_path(BinomialKernel(0.3), "cdf", 5)
        assert_matches_distribution(k, 5, kernel_shapes(k, 5))

    def test_uniform_kernel_sampler(self):
        k = UniformKernel()
        assert_matches_distribution(k, 5, kernel_shapes(k, 5))

    @pytest.mark.parametrize(
        "fallback", [BstKernel(), BinomialKernel(0.3), UniformKernel()], ids=lambda k: k.describe()
    )
    def test_listed_rows_beside_the_fallback_rule(self, fallback):
        # sizes 4 and 6 from their rows, 3 and 5 by the fallback's rule
        k = TableKernel({4: [0.25, 0.5, 0.25], 6: [0.1, 0.2, 0.4, 0.2, 0.1]}, fallback)
        assert_matches_distribution(k, 6, kernel_shapes(k, 6))

    def test_table_rows_drive_draws(self):
        k = TableKernel({3: [1.0, 0.0]}, BstKernel())
        for seed in range(10):
            t = sample_tree(k, 3, seed)
            assert shape_bits(t) == "10100"  # forced (1, 2) split


class TestRemyGrowth:
    def test_trivial_sizes(self):
        assert sample_uniform_remy(1, 0) is LEAF
        assert sample_uniform_remy(2, 0) == node(LEAF, LEAF)

    def test_size_is_exact(self):
        for n in (3, 10, 257):
            assert sample_uniform_remy(n, seed=n).size == n

    def test_determinism(self):
        assert sample_uniform_remy(20, 9) == sample_uniform_remy(20, 9)

    @pytest.mark.parametrize(
        "n, seed, bits",
        [
            (1, 0, "0"),
            (2, 0, "100"),
            (6, 0, "10101101000"),
            (6, 1, "11001011000"),
            (9, 5, "11011000110010100"),
            (20, 9, "111100011101000101111110100100001000100"),
        ],
    )
    def test_shape_bits_keep_the_grown_trees(self, n, seed, bits):
        # the shapes drawn from these seeds when the sampler built a BinaryTree per tree
        assert sample_uniform_remy_shape(n, seed) == bits
        assert shape_bits(sample_uniform_remy(n, seed)) == bits

    def test_three_leaf_split(self):
        rng = np.random.default_rng(11)
        counts = Counter(shape_bits(sample_uniform_remy(3, rng)) for _ in range(4000))
        assert set(counts) == {"10100", "11000"}
        _, pvalue = chisquare(list(counts.values()))
        assert pvalue > CHI2_ALPHA

    def test_matches_catalan_weights(self):
        # independent oracle: growth never consults a split row, yet must
        # land on the same uniform shape law as the Catalan kernel
        k = UniformKernel()
        assert_matches_distribution(
            k, 6, lambda rng, count: (shape_bits(sample_uniform_remy(6, rng)) for _ in range(count))
        )

    def test_one_call_draws_every_step(self):
        # step m takes j uniform on 0..4m - 3, node j // 2 and side j % 2
        for n in (1, 2, 9):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            sample_uniform_remy_shape(n, rng)
            ref.integers(0, 4 * np.arange(1, n) - 2)
            assert rng.random() == ref.random()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_uniform_remy(0, 0)
        with pytest.raises(ValueError):
            sample_uniform_remy_shape(0, 0)


class TestMonteCarlo:
    def test_two_leaves_exact(self):
        mean, stderr = mc_expected_height(BstKernel(), 2, replicates=50)
        assert mean == 1.0
        assert stderr == 0.0

    def test_close_to_exact_value(self):
        mean, stderr = mc_expected_height(BstKernel(), 4, replicates=4000, seed=1)
        assert stderr > 0
        assert abs(mean - 8 / 3) <= 4 * stderr

    def test_deterministic(self):
        a = mc_expected_height(BinomialKernel(0.3), 12, replicates=300, seed=5)
        b = mc_expected_height(BinomialKernel(0.3), 12, replicates=300, seed=5)
        assert a == b

    def test_full_blocks_survive_more_replicates(self):
        for kernel in (UniformKernel(), BstKernel()):
            one = mc_heights(kernel, 15, MC_BLOCK, seed=3)
            more = mc_heights(kernel, 15, 2 * MC_BLOCK + 7, seed=3)
            assert np.array_equal(one, more[:MC_BLOCK])
            assert not np.array_equal(one, more[MC_BLOCK : 2 * MC_BLOCK])

    def test_block_b_draws_from_replicate_seed_b(self):
        kernel = BstKernel()
        heights = mc_heights(kernel, 40, 2 * MC_BLOCK, seed=9)
        rng = np.random.default_rng(replicate_seed(9, 1))
        block = _block_heights(_level_drawer(kernel, 40), 40, MC_BLOCK, rng)
        assert np.array_equal(heights[MC_BLOCK:], block)

    def test_mean_and_stderr_of_heights(self):
        heights = mc_heights(BinomialKernel(0.3), 30, 500, seed=4)
        mean, stderr = mc_expected_height(BinomialKernel(0.3), 30, 500, seed=4)
        assert mean == heights.mean()
        assert stderr == pytest.approx(heights.std(ddof=1) / math.sqrt(500), rel=1e-12)

    @pytest.mark.parametrize("kernel", [BstKernel(), UniformKernel(), BinomialKernel(0.3)],
                             ids=lambda k: k.describe())
    @pytest.mark.parametrize("path", ["auto", "cdf"])
    def test_one_and_two_leaves(self, kernel, path):
        kernel = on_path(kernel, path, 2)
        assert mc_expected_height(kernel, 1, 30) == (0.0, 0.0)
        assert mc_expected_height(kernel, 2, 30) == (1.0, 0.0)
        # a grid's one draw function is built for its largest size, 1 or 2
        for grid in ([1], [2], [2, 1], [1, 2, 2]):
            got = mc_expected_height_grid(kernel, grid, 20, seed=3)
            assert got == {n: (float(n - 1), 0.0) for n in sorted(set(grid))}
        assert list(sample_preorder(kernel, 1, 3, 0)) == [("0", 0)] * 3
        assert list(sample_preorder(kernel, 2, 3, 0)) == [("100", 1)] * 3

    def test_strategy_checked_like_sample_tree(self):
        with pytest.raises(TypeError):
            mc_expected_height(BstKernel(), 5, 10, strategy="cdf")
        with pytest.raises(TypeError):
            mc_heights(BstKernel(), 5, 10, strategy="cdf")

    def test_seed_matters(self):
        a = mc_expected_height(BstKernel(), 12, replicates=300, seed=0)
        b = mc_expected_height(BstKernel(), 12, replicates=300, seed=1)
        assert a != b

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError):
            mc_expected_height(BstKernel(), 5, replicates=1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            mc_heights(BstKernel(), 0, 10)
        with pytest.raises(ValueError):
            mc_heights(BstKernel(), 5, 0)


SPLIT_RULES = {
    "k=1": lambda m: 1,
    "k=m-1": lambda m: m - 1,
    "k=m//2": lambda m: m // 2,
    "k=ceil(m/3)": lambda m: -(-m // 3),
    "by m mod 3": lambda m: (1, m // 2, m - 1)[m % 3],
}


def rule_drawer(rule, asked=None):
    """A level drawer that splits every block of m leaves at rule(m), recording the sizes asked."""

    def draw(sizes, rng):
        if asked is not None:
            asked.append(sorted(sizes.tolist()))
        return np.array([rule(m) for m in sizes.tolist()], dtype=np.int64)

    return draw


def rule_tree_height(rule, n):
    """Height of the fully grown tree that splits m leaves at rule(m), by recursion."""

    @functools.cache
    def height(m):
        return 0 if m == 1 else 1 + max(height(rule(m)), height(m - rule(m)))

    return height(n)


def rule_tree_levels(rule, n):
    """Block sizes of the fully grown tree, one list per depth."""
    levels = [[n]]
    while any(m >= 2 for m in levels[-1]):
        levels.append([part for m in levels[-1] if m >= 2 for part in (rule(m), m - rule(m))])
    return levels


def rule_tree_bits(rule, n):
    """Pre-order shape bits of the tree that splits m leaves at rule(m), by recursion."""

    @functools.cache
    def bits(m):
        return "0" if m == 1 else "1" + bits(rule(m)) + bits(m - rule(m))

    return bits(n)


def waiting_drawer(rule, asked=None):
    """rule_drawer, but every other call draws 0, a rejection, for every block."""
    draw, calls = rule_drawer(rule, asked), itertools.count()
    return lambda sizes, rng: draw(sizes, rng) * (next(calls) % 2)


class TestGrowth:
    """_grow writes the shape bits and heights of every tree it grows."""

    @pytest.mark.parametrize("rule", SPLIT_RULES.values(), ids=SPLIT_RULES.keys())
    @pytest.mark.parametrize("wait", [False, True], ids=["plain", "waiting"])
    def test_trees_are_those_of_the_recursion(self, rule, wait):
        # a block that draws 0 comes back whole at its bit position and depth
        for n in range(1, 201):
            draw = waiting_drawer(rule) if wait else rule_drawer(rule)
            want = (rule_tree_bits(rule, n), rule_tree_height(rule, n))
            assert sampling._grow(draw, n, 3, np.random.default_rng(0)) == [want] * 3, n


class TestPrunedGrowth:
    """Monte Carlo grows only the blocks that can still raise a replicate's height."""

    @pytest.mark.parametrize("rule", SPLIT_RULES.values(), ids=SPLIT_RULES.keys())
    def test_heights_are_those_of_the_full_tree(self, rule):
        draw = rule_drawer(rule)
        for n in range(1, 201):
            got = _block_heights(draw, n, 3, np.random.default_rng(0))
            assert got.tolist() == [rule_tree_height(rule, n)] * 3, n

    def test_three_leaves_or_fewer_take_no_draw(self):
        def refuse(sizes, rng):
            raise AssertionError(f"drew at sizes {sizes}")

        for n in (1, 2, 3):
            assert _block_heights(refuse, n, 5, np.random.default_rng(0)).tolist() == [n - 1] * 5

    @pytest.mark.parametrize("rule", SPLIT_RULES.values(), ids=SPLIT_RULES.keys())
    def test_only_blocks_that_could_raise_the_height_are_split(self, rule):
        # at depth d the full tree's blocks so far force a height of at least
        # floor = max(d' + ceil(log2 m)); a block of m leaves at d can raise it
        # only if d + m - 1 > floor, and is split exactly when it and every
        # block above it could
        for n in (4, 5, 17, 64, 100, 200):
            asked = []
            _block_heights(rule_drawer(rule, asked), n, 2, np.random.default_rng(0))
            floor, live, want = 0, [n], []
            for d, level in enumerate(rule_tree_levels(rule, n)):
                floor = max(floor, *(d + (m - 1).bit_length() for m in level))
                split = [m for m in live if d + m - 1 > floor]
                if not split:
                    break
                want.append(sorted(split * 2))
                live = [part for m in split for part in (rule(m), m - rule(m))]
            assert asked == want, n
            # a full tree has n - 1 inner nodes, a cherry among them
            assert sum(map(len, asked)) < 2 * (n - 1)

    @pytest.mark.parametrize("rule", SPLIT_RULES.values(), ids=SPLIT_RULES.keys())
    def test_a_rejected_block_waits_at_its_depth(self, rule):
        # a draw of 0 for every entry on every other call: each block comes
        # back whole at its depth, so it is asked exactly twice, in two calls
        # in a row, and the heights are those of the full tree
        for n in range(1, 201):
            asked, once = [], []
            got = _block_heights(waiting_drawer(rule, asked), n, 3, np.random.default_rng(0))
            assert got.tolist() == [rule_tree_height(rule, n)] * 3, n
            _block_heights(rule_drawer(rule, once), n, 3, np.random.default_rng(0))
            assert asked[::2] == asked[1::2] == once, n

    def test_memory_of_a_bst_block(self):
        # one block at n = 20000 traced 26.5 MiB when every inner node was
        # grown, and 6.8 MiB with the blocks that cannot raise a height dropped
        tracemalloc.start()
        try:
            mc_heights(BstKernel(), 20_000, MC_BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class _FixedUniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        count = int(np.prod(size))
        out, self.u = self.u[:count], self.u[count:]
        assert out.size == count
        return out.reshape(size)


def scalar_draws(kernel, sizes, u):
    """The scalar inverse-CDF lookup, query by query."""
    return np.array(
        [min(bisect_right(split_cdf(kernel, int(m)), x) + 1, int(m) - 1) for m, x in zip(sizes, u)]
    )


@functools.lru_cache(maxsize=4096)
def split_cdf(kernel, m):
    """kernel.split_cdf(m), kept: a binomial row takes m - 2 Pascal steps per build."""
    return kernel.split_cdf(m)


EDGES = (0.0, 5e-324, 1e-17, float(np.nextafter(1.0, 0.0)))


def edge_uniforms(kernel, sizes, rng):
    """Per query in turn: a random uniform, a value of the query's CDF row, an edge."""
    u = rng.random(sizes.size)
    for i in range(1, sizes.size, 3):
        cdf = kernel.split_cdf(int(sizes[i]))
        u[i] = cdf[int(rng.integers(0, len(cdf)))]
    for i in range(2, sizes.size, 3):
        u[i] = EDGES[(i // 3) % len(EDGES)]
    return u


TIED_TABLE = TableKernel(
    {4: [0.5, 0.0, 0.5], 6: [0.0, 0.25, 0.0, 0.75, 0.0], 7: [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]},
    BinomialKernel(0.4),
)


class TestVectorizedDraws:
    """Vectorized draws must be the scalar inverse-CDF lookups for the same uniforms."""

    @pytest.mark.parametrize(
        "kernel",
        [UniformKernel(), TIED_TABLE, BstKernel(), BinomialKernel(0.3)],
        ids=lambda k: k.describe(),
    )
    def test_cdf_strategy_matches_scalar_lookup(self, kernel):
        rng = np.random.default_rng(17)
        n = 200
        sizes = np.concatenate(([4, 6, 7, 2, 3, 6, n] * 12, rng.integers(2, n + 1, size=2000)))
        u = edge_uniforms(kernel, sizes, rng)
        kernel = on_path(kernel, "cdf", n)
        draw = _level_drawer(kernel, n)
        assert np.array_equal(draw(sizes, _FixedUniforms(u)), scalar_draws(kernel, sizes, u))

    @pytest.mark.parametrize("kernel", [UniformKernel(), TIED_TABLE], ids=lambda k: k.describe())
    def test_a_share_depends_on_its_own_query_only(self, kernel):
        # every size up to 300 listed, so every share is a lookup in its own row
        rng = np.random.default_rng(5)
        sizes = np.concatenate(([300] * 12, [41, 300, 7, 300] * 9, rng.integers(2, 120, size=500)))
        u = edge_uniforms(kernel, sizes, rng)
        kernel = on_path(kernel, "cdf", 300)
        draw = _level_drawer(kernel, 300)
        want = scalar_draws(kernel, sizes, u)
        assert np.array_equal(draw(sizes, _FixedUniforms(u)), want)
        one_at_a_time = [
            draw(sizes[j : j + 1], _FixedUniforms(u[j : j + 1]))[0] for j in range(sizes.size)
        ]
        assert one_at_a_time == want.tolist()

    @pytest.mark.parametrize("listed", [4096, 40])
    @pytest.mark.parametrize(
        "make",
        [
            UniformKernel,
            lambda: BinomialKernel(0.3),
            lambda: TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, BinomialKernel(0.3)),
        ],
        ids=["uniform", "binomial", "table"],
    )
    def test_mc_leaves_row_caches_alone(self, make, listed, kernel_state):
        # the kernel, and a table of its law listing its rows up to 40, so
        # that most draws go to the fallback's rule, or up to every size drawn
        kernel = make()
        table = listing(kernel, min(listed, 300))
        before = kernel_state(kernel), kernel_state(table)
        for k in (kernel, table):
            mc_expected_height(k, 300, 100, seed=3)
        assert (kernel_state(kernel), kernel_state(table)) == before

    @pytest.mark.parametrize(
        "kernel, grid",
        [
            (BstKernel(), (1, 2, 3, 17, 90)),
            (BinomialKernel(0.3), (2, 5, 64)),
            (UniformKernel(), (2, 3, 40, 41, 150)),
            (TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, BinomialKernel(0.3)), (4, 30, 45, 46, 120)),
        ],
        ids=["bst", "binomial", "uniform", "table"],
    )
    @pytest.mark.parametrize("listed", [4096, 40])
    def test_grid_matches_one_size_at_a_time(self, kernel, grid, listed):
        # the kernel, and a table of its law listing its rows up to 40, which
        # the grid straddles, or up to every size of the grid
        for k in (kernel, listing(kernel, min(listed, max(grid)))):
            got = mc_expected_height_grid(k, grid[::-1] + grid[:1], 300, seed=8)
            assert list(got) == list(grid)
            for n in grid:
                assert got[n] == mc_expected_height(k, n, 300, seed=replicate_seed(8, n))

    def test_grid_builds_one_table(self, draw_builds):
        # one draw function serves the whole grid: a table builds its listed
        # cumulative rows once, and uniform, alone or as a table's fallback,
        # its prefix sums once
        table = TableKernel({5: [0.1, 0.8, 0.1, 0.0]}, UniformKernel())
        mc_expected_height_grid(table, range(2, 240, 7), 50, seed=1)
        assert draw_builds == [("table", 233), ("product", 233)]
        # bst draws integers and builds nothing
        for kernel in (BstKernel(), UniformKernel()):
            mc_expected_height_grid(kernel, range(2, 240, 7), 50, seed=1)
        assert draw_builds == [("table", 233), ("product", 233), ("product", 233)]

    def test_grid_checks_like_one_size(self):
        with pytest.raises(ValueError, match="replicates >= 2"):
            mc_expected_height_grid(BstKernel(), [5], 1)
        with pytest.raises(ValueError, match="n >= 1"):
            mc_expected_height_grid(BstKernel(), [0, 5], 10)
        assert mc_expected_height_grid(UniformKernel(), [], 10) == {}

    def test_empty_level(self):
        empty = np.array([], dtype=np.int64)
        for kernel in (BstKernel(), UniformKernel(), TIED_TABLE, listing(UniformKernel(), 10)):
            rng = np.random.default_rng(2)
            assert _level_drawer(kernel, 10)(empty, rng).size == 0
            assert rng.random() == np.random.default_rng(2).random()


class _RowsOnly(SplitKernel):
    """Split rows and nothing else, like test_kernels' _BrokenKernel: no rule to draw from."""

    kind = "table"

    def _row(self, n):
        return np.full(n - 1, 1.0 / (n - 1))


class TestTableDraws:
    """A table draws its listed sizes from their rows and the rest by its fallback's rule."""

    @pytest.mark.parametrize(
        "fallback", [BstKernel(), BinomialKernel(0.3), UniformKernel()], ids=lambda k: k.describe()
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 300])
    def test_a_table_listing_no_size_up_to_n_draws_as_its_fallback(self, fallback, n):
        table = TableKernel({m: np.full(m - 1, 1 / (m - 1)) for m in (n + 1, n + 7)}, fallback)
        assert list(sample_preorder(table, n, 30, 4)) == list(sample_preorder(fallback, n, 30, 4))
        for reps in (2, MC_BLOCK + 3):
            assert np.array_equal(mc_heights(table, n, reps, 4), mc_heights(fallback, n, reps, 4))

    @pytest.mark.parametrize(
        "fallback", [BstKernel(), BinomialKernel(0.3), UniformKernel()], ids=lambda k: k.describe()
    )
    def test_a_step_takes_the_fallback_draw_then_one_uniform_per_listed_block(self, fallback):
        # the unlisted blocks, in their order, take the fallback's own draw;
        # then rng.random(s) gives the s listed blocks, in their order, their uniforms
        table = TableKernel(TIED_TABLE.rows, fallback)
        sizes = np.random.default_rng(3).integers(2, 12, size=400)
        listed = np.isin(sizes, list(table.rows))
        ref = np.random.default_rng(8)
        want = np.empty_like(sizes)
        want[~listed] = _level_drawer(fallback, 12)(sizes[~listed], ref)
        want[listed] = scalar_draws(table, sizes[listed], ref.random(listed.sum()))
        rng = np.random.default_rng(8)
        assert np.array_equal(_level_drawer(table, 12)(sizes, rng), want)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "kernel", [TABLE, listing(UniformKernel(), 50)], ids=["binomial", "uniform"]
    )
    def test_draws_build_no_split_rows(self, kernel, monkeypatch):
        # listed rows are read as the table holds them, and fallbacks draw by their own rule
        def refuse(self, sizes):
            raise AssertionError("a split row was built")

        for cls in (SplitKernel, BinomialKernel, UniformKernel, TableKernel):
            monkeypatch.setattr(cls, "_ascending_rows", refuse)
        list(sample_preorder(kernel, 300, 5, 1))
        mc_heights(kernel, 300, 50, 1)

    def test_a_kernel_without_a_draw_rule_is_refused(self):
        with pytest.raises(TypeError, match="no draw rule"):
            _level_drawer(_RowsOnly(), 10)
        with pytest.raises(TypeError, match="no draw rule"):
            sample_preorder(_RowsOnly(), 10, 3, 0)
        with pytest.raises(TypeError, match="no draw rule"):
            mc_heights(_RowsOnly(), 10, 3)


class TestProductDraw:
    """Uniform draws its shares by rejection from its split factors u."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9, 10, 33, 64])
    def test_draws_follow_the_split_row(self, m):
        # one triple per entry, the columns of rng.random((3, draws)); a draw
        # is 0 where its triple is rejected, and the accepted ones follow the row
        kernel = UniformKernel()
        draws = 20_000
        k = _level_drawer(kernel, 64)(np.full(draws, m), np.random.default_rng(m))
        r = np.random.default_rng(m).random((3, draws))
        assert np.array_equal(k, _ProductDraw(kernel, 64).draw(np.full(draws, m), *r))
        accepted = k[k != 0]
        assert np.all((accepted >= 1) & (accepted <= m - 1))
        assert accepted.size > 0.7 * draws
        if m == 2:
            return
        observed = np.bincount(accepted, minlength=m)[1:].astype(float)
        assert pooled_chisquare_pvalue(observed, kernel.split_pmf(m) * accepted.size) > CHI2_ALPHA

    def test_edge_triples_draw_in_range(self):
        n = 200
        product = _ProductDraw(UniformKernel(), n)
        rng = np.random.default_rng(17)
        sizes = np.concatenate(([2, 3, 4, 5, 6, 7, n] * 12, rng.integers(2, n + 1, size=2000)))
        r = rng.random((3, sizes.size))
        for i, row in enumerate(r):  # edges in r0, r1 and r2 at different entries
            row[i::5] = np.resize(EDGES, row[i::5].size)
        # and every combination of edges at a few sizes
        edges = np.array(list(itertools.product(EDGES, repeat=3))).T
        combos = np.repeat([2, 3, 4, 7, 64, n], edges.shape[1])
        sizes = np.concatenate((sizes, combos))
        r = np.concatenate((r, np.tile(edges, combos.size // edges.shape[1])), axis=1)
        got = product.draw(sizes, *r)
        rejected = got == 0
        assert rejected.any() and not rejected.all()
        assert np.all((got[~rejected] >= 1) & (got[~rejected] <= sizes[~rejected] - 1))
        # the largest r0 proposes m - 1, which r1 = 0 accepts: no clamp is needed
        m = np.arange(2, n + 1)
        top = np.full(m.size, EDGES[-1])
        assert np.array_equal(product.draw(m, top, 0 * top, 0 * top), m - 1)

    def test_uniform_factors_meet_the_side_condition(self):
        # f(k) <= f(h) up to rounding, so r1 * f(h) < f(k) accepts k with
        # probability f(k) / f(h); and at least 70 % of the triples are accepted
        n = 4096
        product = _ProductDraw(UniformKernel(), n)
        u, prefix = product.u, product.prefix
        z = UniformKernel()._split_factors(n)[1]
        for m in range(2, n + 1):
            k = np.arange(1, m)
            f = u[k] * u[m - k] / (u[k] + u[m - k])
            fh = f[m // 2 - 1]
            assert f.max() <= fh * (1 + 4 * 2.0**-53), m
            assert z[m] / (2 * prefix[m - 1] * fh) >= 0.7, m

    def test_monte_carlo_memory_is_linear_in_n(self):
        # u, its prefix sums and the pending blocks: about 0.5 MiB traced at
        # n = 4096, where cumulative rows up to 4096 would take 64 MiB
        n = 4096
        kernel = UniformKernel()
        tracemalloc.start()
        try:
            mc_expected_height(kernel, n, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * n  # 2 MiB


HEIGHT_LAW_ALPHA = 1e-3  # the significance of acceptance criterion 9


def pooled_chisquare_pvalue(observed, expected):
    """Pearson test with cells below 5 expected pooled into one."""
    keep = expected >= 5.0
    obs, exp = list(observed[keep]), list(expected[keep])
    if expected[~keep].sum() >= 1.0:
        obs.append(observed[~keep].sum())
        exp.append(expected[~keep].sum())
    exp = np.array(exp) * (sum(obs) / sum(exp))
    return chisquare(obs, exp).pvalue


class TestHeightLaw:
    """The height histograms of Monte Carlo and of sampled trees follow the exact height law."""

    @pytest.mark.parametrize(
        "kernel",
        [
            BstKernel(),
            UniformKernel(),
            BinomialKernel(0.3),
            BinomialKernel(0.5),
            BinomialKernel(0.7),
            TableKernel({12: [0.3] + [0.0] * 9 + [0.7], 5: [0.1, 0.8, 0.1, 0.0]}, BstKernel()),
        ],
        ids=lambda k: k.describe(),
    )
    @pytest.mark.parametrize("path", ["auto", "cdf"])
    def test_histogram_matches_height_cdf(self, kernel, path):
        assert_height_law(on_path(kernel, path, 12), kernel, 12)

    @pytest.mark.parametrize(
        "kernel", [BstKernel(), UniformKernel(), BinomialKernel(0.3)], ids=lambda k: k.describe()
    )
    @pytest.mark.parametrize("path", ["auto", "cdf"])
    def test_histogram_matches_height_cdf_where_blocks_are_dropped(self, kernel, path):
        # at n = 64 most blocks are dropped undrawn (see TestPrunedGrowth)
        assert_height_law(on_path(kernel, path, 64), kernel, 64)

    def test_histogram_matches_height_cdf_for_a_table_over_uniform(self):
        # rejected fallback blocks wait a step beside the listed sizes' draws
        assert_height_law(UNIFORM_TABLE, UNIFORM_TABLE, 64)

    @pytest.mark.parametrize(
        "kernel",
        [
            BstKernel(),
            UniformKernel(),
            BinomialKernel(0.3),
            TableKernel({12: [0.3] + [0.0] * 9 + [0.7], 5: [0.1, 0.8, 0.1, 0.0]}, BstKernel()),
        ],
        ids=lambda k: k.describe(),
    )
    @pytest.mark.parametrize("n", [12, 64])
    def test_tree_heights_match_height_cdf(self, kernel, n):
        assert_height_law(kernel, kernel, n, heights_of=tree_heights)

    def test_tree_heights_match_height_cdf_for_a_table_over_uniform(self):
        assert_height_law(UNIFORM_TABLE, UNIFORM_TABLE, 64, heights_of=tree_heights)


UNIFORM_TABLE = TableKernel(
    {12: [0.3] + [0.0] * 9 + [0.7], 5: [0.1, 0.8, 0.1, 0.0], 40: [1 / 39] * 39}, UniformKernel()
)


def tree_heights(kernel, n, replicates, seed):
    """Heights of the trees of one sample_preorder call."""
    return np.array([height for _, height in sample_preorder(kernel, n, replicates, seed)])


def assert_height_law(sampled, kernel, n, replicates=20_000, heights_of=mc_heights):
    """Heights of the sampled kernel against the exact height law of kernel at size n."""
    cdf = height_cdf(kernel, n, tail_tol=0.0).values
    law = np.diff(np.concatenate(([0.0], cdf)))
    heights = heights_of(sampled, n, replicates, seed=2024)
    observed = np.bincount(heights, minlength=law.size).astype(float)
    assert observed.size == law.size  # no height beyond the exact support
    assert pooled_chisquare_pvalue(observed, law * replicates) > HEIGHT_LAW_ALPHA
