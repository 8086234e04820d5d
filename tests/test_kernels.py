import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesource.bounds import phi_balance, psi_envelope
from treesource.heights import expected_height_grid
from treesource.kernels import (
    CLOSED_FORM_TOL,
    BinomialKernel,
    BstKernel,
    KernelFormatError,
    KernelSpec,
    SplitKernel,
    TableKernel,
    UniformKernel,
    load_kernel_spec,
    make_kernel,
    render_kernel_spec,
    tree_probability,
    validate_kernel,
)
from treesource.sampling import sample_preorder
from treesource.trees import count_trees, enumerate_trees, tree_from_shape_bits


class TestScalarValues:
    def test_bst_is_flat(self):
        k = BstKernel()
        assert k.sigma(3, 7) == pytest.approx(1 / 9, abs=0, rel=0)
        assert k.sigma_exact(3, 7) == Fraction(1, 9)
        assert k.sigma(1, 1) == 1.0

    def test_uniform_small(self):
        k = UniformKernel()
        assert k.sigma(1, 2) == 0.5
        assert k.sigma_exact(2, 2) == Fraction(1, 5)
        # T_2 * T_3 / T_5: 1 * 2 / 14
        assert k.sigma_exact(2, 3) == Fraction(1, 7)

    def test_binomial_half(self):
        k = BinomialKernel(0.5)
        assert k.sigma(2, 2) == pytest.approx(0.5, rel=1e-15)
        assert k.sigma_exact(2, 2) == Fraction(1, 2)
        assert k.sigma_exact(1, 3) == Fraction(1, 4)

    def test_binomial_skewed_exact(self):
        k = BinomialKernel(0.25)
        # left side of a 4-leaf split: C(2, i-1) p^(i-1) q^(3-i)
        q = 1 - Fraction(0.25)
        assert k.sigma_exact(1, 3) == q * q
        assert k.sigma(3, 1) == pytest.approx(1 / 16, rel=1e-12)

    def test_rejects_empty_side(self):
        for k in (BstKernel(), UniformKernel(), BinomialKernel(0.5)):
            with pytest.raises(ValueError):
                k.sigma(0, 3)
            with pytest.raises(ValueError):
                k.sigma_exact(2, 0)

    def test_binomial_parameter_range(self):
        with pytest.raises(ValueError):
            BinomialKernel(0.0)
        with pytest.raises(ValueError):
            BinomialKernel(1.0)
        with pytest.raises(ValueError):
            BinomialKernel(-0.2)


class TestRows:
    def test_rows_at_four(self):
        assert BstKernel().split_pmf(4) == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=0)
        assert UniformKernel().split_pmf(4) == pytest.approx([0.4, 0.2, 0.4], abs=1e-16)
        assert BinomialKernel(0.5).split_pmf(4) == pytest.approx(
            [0.25, 0.5, 0.25], rel=1e-14
        )

    @pytest.mark.parametrize(
        "kernel",
        [BstKernel(), UniformKernel(), BinomialKernel(0.3), BinomialKernel(0.7)],
        ids=lambda k: k.describe(),
    )
    def test_rows_normalized(self, kernel):
        for n in range(2, 61):
            row = kernel.split_pmf(n)
            assert row.shape == (n - 1,)
            assert np.all(row >= 0)
            assert abs(float(row.sum()) - 1.0) < 1e-12

    def test_row_matches_scalar(self):
        for kernel in (BstKernel(), UniformKernel(), BinomialKernel(0.4)):
            row = kernel.split_pmf(9)
            for i in range(1, 9):
                assert row[i - 1] == pytest.approx(kernel.sigma(i, 9 - i), rel=1e-12)

    def test_uniform_small_entries_are_correctly_rounded(self):
        # the scaled-Catalan product c_k * c_(m-k) / (4 c_m) rounds as
        # float(Fraction) does up to 31 leaves; from 32 some entries differ
        k = UniformKernel()
        for n in range(2, 31):
            want = [float(k.sigma_exact(i, n - i)) for i in range(1, n)]
            assert k.split_pmf(n).tolist() == want
            assert [k.sigma(i, n - i) for i in range(1, n)] == want

    def test_uniform_large_row_still_normalized(self):
        row = UniformKernel().split_pmf(16341)
        assert abs(float(row.sum()) - 1.0) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("m", [32, 1000, 3162, 8000, 16341])
    def test_uniform_entries_against_exact_counts(self, m):
        # the quotient of exact tree counts is the reference at every size
        row = UniformKernel().split_pmf(m)
        assert abs(float(row.sum()) - 1.0) <= CLOSED_FORM_TOL
        t_m = count_trees(m)
        for k in (1, 2, m // 4, m // 2):
            exact = Fraction(count_trees(k) * count_trees(m - k), t_m)
            assert abs(Fraction(float(row[k - 1])) / exact - 1) <= 1e-13, k

    @pytest.mark.parametrize("make", [BstKernel, UniformKernel], ids=["bst", "uniform"])
    def test_sigma_is_the_row_entry(self, make):
        kernel = make()
        for m in (2, 3, 17, 31, 32, 33, 100, 777, 1024, 1025, 3162, 5000):
            row = kernel.split_pmf(m)
            assert [kernel.sigma(i, m - i) for i in range(1, m)] == row.tolist(), m

    def test_uniform_rows_do_not_depend_on_earlier_sizes(self):
        warm = UniformKernel()
        warm.split_pmf(20000)
        assert np.array_equal(UniformKernel().split_pmf(5000), warm.split_pmf(5000))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            BstKernel().split_pmf(1)

    def test_split_cdf(self):
        for kernel in (BstKernel(), UniformKernel(), BinomialKernel(0.3)):
            cdf = kernel.split_cdf(12)
            assert isinstance(cdf, list)
            assert len(cdf) == 11
            assert all(b >= a - 1e-15 for a, b in zip(cdf, cdf[1:]))
            assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_pmf_matrix_layout(self):
        W = BstKernel().pmf_matrix(5)
        assert W.shape == (6, 6)
        assert W[0].sum() == W[1].sum() == 0.0
        assert W[4, 2] == pytest.approx(1 / 3)
        assert W[:, 0].sum() == 0.0


# factories, so that every test starts from a new kernel
PMF_MATRIX_KERNELS = {
    "bst": BstKernel,
    "uniform": UniformKernel,
    "binomial": lambda: BinomialKernel(0.3),
    "table": lambda: TableKernel(
        {4: [0.25, 0.5, 0.25], 7: [0.5, 0, 0, 0, 0, 0.5]}, UniformKernel()
    ),
}


class TestPmfMatrix:
    @pytest.mark.parametrize("make", PMF_MATRIX_KERNELS.values(), ids=PMF_MATRIX_KERNELS)
    def test_rows_are_split_pmf_rows(self, make):
        n = 40
        W = make().pmf_matrix(n)
        reference = make()
        want = np.zeros((n + 1, n + 1))
        for m in range(2, n + 1):
            want[m, 1:m] = reference.split_pmf(m)
        assert np.array_equal(W, want)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BinomialKernel(0.3),
            lambda: TableKernel(
                {4: [0.25, 0.5, 0.25], 25: [0.5] + [0.0] * 22 + [0.5]}, BinomialKernel(0.3)
            ),
        ],
        ids=["binomial", "table"],
    )
    def test_rows_past_the_cache_limit(self, make):
        # a single row and W's rows come from different walks; whatever
        # the order asked, every single row is W's row
        n = 40
        W = make().pmf_matrix(n)
        shuffled = np.random.default_rng(7).permutation(np.arange(2, n + 1)).tolist()
        for order in (range(2, n + 1), range(n, 1, -1), shuffled):
            kernel = make()
            for m in order:
                assert np.array_equal(W[m, 1:m], kernel.split_pmf(m)), m

    @pytest.mark.parametrize("make", PMF_MATRIX_KERNELS.values(), ids=PMF_MATRIX_KERNELS)
    def test_scan_leaves_row_caches_alone(self, make, kernel_state):
        # kernels keep no rows, and the scan adds none
        kernel = make()
        before = kernel_state(kernel)
        expected_height_grid(kernel, 60, tail_tol=0.0)
        assert kernel_state(kernel) == before


class TestMirrorSymmetry:
    # bst and uniform rows equal their mirror bit for bit, so each entry of
    # the scan's folded row, sigma(k, m-k) + sigma(m-k, k), is exactly
    # 2 * sigma: folding their rows changes only how the terms are grouped
    N = 2100

    @pytest.mark.parametrize("make", [BstKernel, UniformKernel], ids=["bst", "uniform"])
    def test_declared_rows_equal_their_mirror(self, make):
        kernel = make()
        for m in range(2, self.N + 1):
            row = kernel.split_pmf(m)
            assert np.array_equal(row, row[::-1]), m
        W = kernel.pmf_matrix(self.N)
        for m in range(2, self.N + 1):
            assert np.array_equal(W[m, 1:m], W[m, m - 1 : 0 : -1]), m


@pytest.mark.parametrize("make", PMF_MATRIX_KERNELS.values(), ids=PMF_MATRIX_KERNELS)
def test_consumers_leave_no_per_size_state(make, kernel_state):
    # the scan, verify_certificates and Monte Carlo have tests of their own
    kernel = make()
    before = kernel_state(kernel)
    shapes = [bits for bits, _ in sample_preorder(kernel, 300, 3, 0)]
    for t in [tree_from_shape_bits(bits) for bits in shapes] + list(enumerate_trees(6)):
        tree_probability(kernel, t)
    psi_envelope(kernel, 300)
    phi_balance(kernel, 300, 0.25)
    assert kernel_state(kernel) == before


class TestPascalSteps:
    """An ascending walk costs one Pascal step per size it passes."""

    @pytest.fixture
    def steps(self, monkeypatch):
        count = [0]
        step = BinomialKernel._pascal_step

        def counting_step(self, row):
            count[0] += 1
            return step(self, row)

        monkeypatch.setattr(BinomialKernel, "_pascal_step", counting_step)
        return count

    def test_pmf_matrix(self, steps):
        BinomialKernel(0.3).pmf_matrix(300)
        assert steps[0] == 298

    def test_ascending_past_the_cache(self, steps):
        assert validate_kernel(BinomialKernel(0.3), 400).passed
        assert steps[0] == 398

    def test_each_single_row_walks_from_row_two(self, steps):
        # a kernel keeps no row, so every split_pmf(n) call costs n - 2 steps
        kernel = BinomialKernel(0.3)
        kernel.split_pmf(400)
        assert steps[0] == 398
        kernel.split_pmf(300)
        assert steps[0] == 398 + 298
        kernel.split_pmf(300)
        assert steps[0] == 398 + 2 * 298
        kernel.split_pmf(2)
        assert steps[0] == 398 + 2 * 298

    def test_listed_table_rows_take_no_step(self, steps):
        table = TableKernel({4: [0.25, 0.5, 0.25], 400: [1.0] + [0.0] * 398}, BinomialKernel(0.3))
        assert table.split_pmf(400)[0] == 1.0
        assert steps[0] == 0
        assert validate_kernel(table, 401).passed
        assert steps[0] == 399  # the walk passes 400 but builds no row there

    def test_sigma_builds_no_row_above_the_cache(self, steps):
        kernel = BinomialKernel(0.3)
        n = 10**6
        assert kernel.sigma(1, n - 1) == 0.0  # 0.7^(n-2) underflows
        # the mode by the local central limit theorem
        assert kernel.sigma(300_000, n - 300_000) == pytest.approx(
            1 / math.sqrt(2 * math.pi * (n - 2) * 0.3 * 0.7), rel=1e-4
        )
        assert kernel.sigma(30, 51) > 0.0
        assert steps[0] == 0

    def test_sigma_builds_no_row_below_the_cache(self, steps):
        kernel = BinomialKernel(0.3)
        want = float(kernel.sigma_exact(1000, 3000))
        assert kernel.sigma(1000, 3000) == pytest.approx(want, rel=1e-12)
        assert steps[0] == 0

    def test_shared_between_threads(self):
        # the kernel is shared; every row handed out must still be the
        # walk's row of the size asked for
        n = 120
        want = BinomialKernel(0.3).pmf_matrix(n)
        kernel = BinomialKernel(0.3)
        wrong = []

        def worker(seed):
            for m in np.random.default_rng(seed).integers(2, n + 1, size=400).tolist():
                if not np.array_equal(kernel.split_pmf(m), want[m, 1:m]):
                    wrong.append(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def exact_binomial_entries(p, n, ks):
    """float(BinomialKernel(p).sigma_exact(k + 1, n - 1 - k)) for each k in ks.

    With p = a/d exactly, entry k is C(n-2, k) a^k (d-a)^(n-2-k) / d^(n-2).
    The quotient of two ints rounds correctly, as float(Fraction) does, and
    neighbouring k step by the exact integer ratio (n-1-k) a / (k (d-a)),
    which avoids the big gcds of Fraction arithmetic.
    """
    a, d = p.as_integer_ratio()
    b = d - a
    den = d ** (n - 2)
    out = {}
    prev = None
    for k in sorted(ks):
        if k - 1 == prev:
            num = num * (n - 1 - k) * a // (k * b)
        else:
            num = math.comb(n - 2, k) * a**k * b ** (n - 2 - k)
        out[k] = num / den
        prev = k
    return out


@pytest.mark.parametrize("p", [0.03, 0.3, 0.5, 0.97])
@pytest.mark.parametrize("n", [2000, 4096, 8182])
def test_binomial_rows_match_exact(n, p):
    kernel = BinomialKernel(p)
    row = kernel.split_pmf(n)
    mode = int(np.argmax(row))
    rng = np.random.default_rng(n)
    ks = set(range(max(0, mode - 30), min(n - 1, mode + 31)))
    ks |= set(rng.choice(np.flatnonzero(row >= 1e-300), size=12).tolist())
    # and the smallest entries checked, nearest the entries dropped in the tails
    above = np.flatnonzero(row >= 1e-300)
    ks |= set(above[:3].tolist()) | set(above[-3:].tolist())
    want = exact_binomial_entries(p, n, ks)
    assert want[mode] == float(kernel.sigma_exact(mode + 1, n - 1 - mode))
    for k, w in want.items():
        if w >= 1e-300:
            assert abs(row[k] - w) <= 1e-12 * w, (k, row[k], w)
    assert abs(float(row.sum()) - 1.0) <= CLOSED_FORM_TOL


@pytest.mark.parametrize("p", [0.03, 0.3, 0.5, 0.97])
@pytest.mark.parametrize("n", [3, 4, 5, 10, 17, 100, 2000, 8182, 20_000])
def test_binomial_sigma_above_the_cache_matches_exact(n, p):
    # sigma is evaluated directly at every size and never builds a row
    kernel = BinomialKernel(p)
    mode = round(p * (n - 2))
    ks = set(range(max(0, mode - 30), min(n - 1, mode + 31)))
    ks |= {0, n - 2, (n - 2) // 7, (n - 2) // 3, (n - 2) * 5 // 6}
    for k, w in exact_binomial_entries(p, n, ks).items():
        if w >= 1e-300:
            got = kernel.sigma(k + 1, n - 1 - k)
            assert abs(got - w) <= 1e-12 * w, (k, got, w)


@pytest.mark.parametrize("p", [0.03, 0.3, 0.97])
def test_binomial_row_sums_do_not_drift(p):
    # a rounded 1 - p would pull every row sum the same way, linearly in n:
    # 2.3e-13 off at n = 6000 for p = 0.3
    report = validate_kernel(BinomialKernel(p), 6000, tol=1e-14)
    assert report.passed, report.summary()


def test_binomial_rows_stay_normalized_past_twenty_thousand():
    report = validate_kernel(BinomialKernel(0.3), 20_000)
    assert report.passed, report.summary()


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    n=st.integers(min_value=2, max_value=80),
    data=st.data(),
)
def test_binomial_mirror_symmetry(p, n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    a = BinomialKernel(p).sigma(i, n - i)
    b = BinomialKernel(1 - p).sigma(n - i, i)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestTableKernel:
    def test_listed_row_wins_fallback_elsewhere(self):
        k = TableKernel({4: [0.25, 0.5, 0.25]}, BstKernel())
        assert k.sigma(2, 2) == 0.5
        assert k.sigma(1, 3) == 0.25
        assert k.sigma(2, 3) == pytest.approx(0.25)  # fallback row at n=5
        assert k.split_pmf(4) == pytest.approx([0.25, 0.5, 0.25])
        assert k.sigma_exact(2, 2) == Fraction(0.5)

    def test_row_length_checked(self):
        with pytest.raises(KernelFormatError, match="n=4"):
            TableKernel({4: [0.5, 0.5]}, BstKernel())

    def test_row_sum_checked(self):
        with pytest.raises(KernelFormatError, match="n=4"):
            TableKernel({4: [0.5, 0.5, 0.5]}, BstKernel())

    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(KernelFormatError):
            TableKernel({4: [-0.1, 0.6, 0.5]}, BstKernel())
        with pytest.raises(KernelFormatError):
            TableKernel({4: [math.nan, 0.5, 0.5]}, BstKernel())

    def test_small_n_rejected(self):
        with pytest.raises(KernelFormatError):
            TableKernel({1: []}, BstKernel())

    def test_no_nested_tables(self):
        inner = TableKernel({4: [0.25, 0.5, 0.25]}, BstKernel())
        with pytest.raises(KernelFormatError):
            TableKernel({5: [0.25, 0.25, 0.25, 0.25]}, inner)

    def test_within_tolerance_accepted(self):
        TableKernel({4: [0.25, 0.5, 0.25 + 2e-10]}, BstKernel())


class TestTreeProbability:
    @pytest.mark.parametrize(
        "kernel",
        [
            BstKernel(),
            UniformKernel(),
            BinomialKernel(0.3),
            TableKernel({3: [0.7, 0.3]}, BstKernel()),
        ],
        ids=lambda k: k.describe(),
    )
    def test_total_mass_one(self, kernel):
        for n in (4, 5):
            total = sum(tree_probability(kernel, t)[0] for t in enumerate_trees(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_linear_log_agree(self):
        k = BinomialKernel(0.3)
        for t in enumerate_trees(6):
            p, lp = tree_probability(k, t)
            assert p > 0
            assert lp == pytest.approx(math.log(p), rel=1e-12)

    def test_uniform_gives_equal_shapes(self):
        k = UniformKernel()
        for t in enumerate_trees(5):
            assert tree_probability(k, t)[0] == pytest.approx(1 / 14, rel=1e-12)

    def test_leaf_is_certain(self):
        from treesource.trees import LEAF

        assert tree_probability(BstKernel(), LEAF) == (1.0, 0.0)

    def test_zero_probability_shape(self):
        # a row with a hard zero sends the log to -inf, not an exception
        k = TableKernel({3: [1.0, 0.0]}, BstKernel())
        from treesource.trees import leaf, node

        t = node(node(leaf(), leaf()), leaf())  # needs the (2, 1) split
        p, lp = tree_probability(k, t)
        assert p == 0.0
        assert lp == -math.inf


class _BrokenKernel(SplitKernel):
    """Deliberately misnormalized rows, for exercising the audit path."""

    kind = "table"

    def _row(self, n):
        row = np.full(n - 1, 1.0 / (n - 1))
        if n == 7:
            row = row * 1.5
        if n == 9:
            row = row.copy()
            row[0] = -row[0]
        return row


class TestValidation:
    @pytest.mark.parametrize(
        "kernel",
        [BstKernel(), UniformKernel(), BinomialKernel(0.5), BinomialKernel(0.3)],
        ids=lambda k: k.describe(),
    )
    def test_builtins_pass(self, kernel):
        report = validate_kernel(kernel, 200)
        assert report.passed
        assert report.worst_deviation < report.tol
        assert "normalized" in report.summary()

    def test_detects_bad_rows(self):
        report = validate_kernel(_BrokenKernel(), 12)
        assert not report.passed
        assert report.offenders == (7, 9)
        assert report.worst_n == 7
        assert report.min_entry < 0
        assert report.min_entry_n == 9
        assert "n={7, 9}".replace(" ", "") in report.summary().replace(" ", "")

    def test_explicit_tolerance(self):
        report = validate_kernel(BstKernel(), 50, tol=1e-30)
        # double rounding makes some flat rows miss an impossible tolerance
        assert report.tol == 1e-30

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            validate_kernel(BstKernel(), 1)


class TestKernelSpec:
    def test_parse_builtin_kinds(self):
        assert KernelSpec.parse('{"kind": "bst"}').build().kind == "bst"
        assert KernelSpec.parse('{"kind": "uniform"}').build().kind == "uniform"
        k = KernelSpec.parse('{"kind": "binomial", "p": 0.3}').build()
        assert isinstance(k, BinomialKernel)
        assert k.p == 0.3

    def test_parse_table(self):
        text = json.dumps(
            {
                "kind": "table",
                "rows": {"4": [0.25, 0.5, 0.25]},
                "fallback": "binomial",
                "fallback_p": 0.5,
            }
        )
        k = load_kernel_spec(text)
        assert isinstance(k, TableKernel)
        assert k.sigma(2, 2) == 0.5
        assert isinstance(k.fallback, BinomialKernel)

    def test_render_round_trip(self):
        for text in (
            '{"kind": "bst"}',
            '{"kind": "uniform"}',
            '{"kind": "binomial", "p": 0.25}',
            json.dumps(
                {
                    "kind": "table",
                    "rows": {"3": [0.7, 0.3], "4": [0.25, 0.5, 0.25]},
                    "fallback": "bst",
                }
            ),
        ):
            spec = KernelSpec.parse(text)
            assert KernelSpec.parse(spec.render()) == spec

    def test_render_from_kernel(self):
        k = TableKernel({4: [0.25, 0.5, 0.25]}, BinomialKernel(0.5))
        again = load_kernel_spec(render_kernel_spec(k))
        assert isinstance(again, TableKernel)
        assert again.sigma(2, 2) == 0.5
        assert again.fallback.p == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"kind": "zipf"}',
            '{"kind": "bst", "p": 0.5}',
            '{"kind": "binomial"}',
            '{"kind": "binomial", "p": "half"}',
            '{"kind": "binomial", "p": true}',
            '{"kind": "binomial", "p": 1.5}',
            '{"kind": "table", "fallback": "bst"}',
            '{"kind": "table", "rows": {}, "fallback": "bst"}',
            '{"kind": "table", "rows": {"x": [1.0]}, "fallback": "bst"}',
            '{"kind": "table", "rows": {"4": "flat"}, "fallback": "bst"}',
            '{"kind": "table", "rows": {"4": [0.5, true, 0.25]}, "fallback": "bst"}',
            '{"kind": "table", "rows": {"2": [1.0]}, "fallback": "table"}',
            '{"kind": "table", "rows": {"2": [1.0]}, "fallback": "bst", "fallback_p": 0.5}',
            '{"kind": "table", "rows": {"2": [1.0]}, "fallback": "binomial"}',
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(KernelFormatError):
            KernelSpec.parse(text)

    @pytest.mark.parametrize(
        "rows, key",
        [
            ('{"4": [0.5, 0.0, 0.5], "04": [0.25, 0.5, 0.25]}', "04"),
            ('{"\u0664": [0.5, 0.0, 0.5]}', "\u0664"),
        ],
        ids=["leading-zero", "arabic-indic-digit"],
    )
    def test_parse_rejects_noncanonical_size_keys(self, rows, key):
        text = f'{{"kind": "table", "rows": {rows}, "fallback": "bst"}}'
        with pytest.raises(KernelFormatError, match=repr(key)):
            KernelSpec.parse(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                '{"kind": "table", "rows": {"4": [0.5, 0.0, 0.5], "4": [0.25, 0.5, 0.25]},'
                ' "fallback": "bst"}',
                "4",
            ),
            ('{"kind": "uniform", "kind": "bst"}', "kind"),
        ],
        ids=["row-key", "top-level-key"],
    )
    def test_parse_rejects_duplicate_keys(self, text, key):
        with pytest.raises(KernelFormatError, match=f"duplicate key {key!r}"):
            KernelSpec.parse(text)

    def test_build_rejects_bad_rows(self):
        spec = KernelSpec.parse(
            '{"kind": "table", "rows": {"4": [0.9, 0.9, 0.9]}, "fallback": "bst"}'
        )
        with pytest.raises(KernelFormatError, match="n=4"):
            spec.build()


class TestMakeKernel:
    def test_known_kinds(self):
        assert isinstance(make_kernel("bst"), BstKernel)
        assert isinstance(make_kernel("uniform"), UniformKernel)
        assert make_kernel("binomial", 0.7).p == 0.7

    def test_binomial_needs_p(self):
        with pytest.raises(KernelFormatError):
            make_kernel("binomial")

    def test_unknown_kind(self):
        with pytest.raises(KernelFormatError):
            make_kernel("cayley")
