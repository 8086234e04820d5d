import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesource import kernels
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
from treesource.trees import enumerate_trees


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

    def test_uniform_exact_log_crossover(self, monkeypatch):
        # rows from the big-integer path and the log path must agree where
        # both are available
        sizes = (6, 12, 25, 40)
        monkeypatch.setattr(kernels, "UNIFORM_EXACT_LIMIT", 5)
        lo = [UniformKernel().split_pmf(n) for n in sizes]
        monkeypatch.setattr(kernels, "UNIFORM_EXACT_LIMIT", 40)
        hi = [UniformKernel().split_pmf(n) for n in sizes]
        for a, b in zip(lo, hi):
            assert a == pytest.approx(b, rel=1e-12)

    def test_uniform_large_row_still_normalized(self):
        row = UniformKernel().split_pmf(5000)
        assert abs(float(row.sum()) - 1.0) < 1e-10

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            BstKernel().split_pmf(1)

    def test_cache_returns_shared_readonly_row(self):
        k = BstKernel()
        a = k.split_pmf(10)
        b = k.split_pmf(10)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5

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


# factories, so that every kernel starts with empty row caches
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
        n = 40  # past UNIFORM_EXACT_LIMIT
        W = make().pmf_matrix(n)
        reference = make()
        want = np.zeros((n + 1, n + 1))
        for m in range(2, n + 1):
            want[m, 1:m] = reference.split_pmf(m)
        assert np.array_equal(W, want)

    @pytest.mark.parametrize("make", PMF_MATRIX_KERNELS.values(), ids=PMF_MATRIX_KERNELS)
    def test_scan_leaves_row_caches_alone(self, make):
        kernel = make()
        caches = [kernel._rows]
        if isinstance(kernel, TableKernel):
            caches.append(kernel.fallback._rows)
        kernel.split_pmf(5)
        before = [len(c) for c in caches]
        expected_height_grid(kernel, 60, tail_tol=0.0)
        assert [len(c) for c in caches] == before

    def test_cached_rows_are_used(self):
        kernel = BstKernel()
        kernel._rows[5] = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(kernel.pmf_matrix(6)[5, 1:5], [0.1, 0.2, 0.3, 0.4])
        fallback = BstKernel()
        fallback._rows[6] = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
        table = TableKernel({4: [0.25, 0.5, 0.25]}, fallback)
        W = table.pmf_matrix(6)
        assert np.array_equal(W[6, 1:6], [0.5, 0.0, 0.0, 0.0, 0.5])
        assert np.array_equal(W[4, 1:4], [0.25, 0.5, 0.25])

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
    def test_rows_past_the_cache_limit(self, make, monkeypatch):
        # single rows step from whichever cached row is nearest below, so
        # the order asked decides the path; every path gives W's rows
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 16)
        n = 40
        W = make().pmf_matrix(n)
        shuffled = np.random.default_rng(7).permutation(np.arange(2, n + 1)).tolist()
        for order in (range(2, n + 1), range(n, 1, -1), shuffled):
            kernel = make()
            for m in order:
                assert np.array_equal(W[m, 1:m], kernel.split_pmf(m)), m


class TestPascalSteps:
    """Each binomial row costs one Pascal step, whichever order asks for it."""

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

    def test_cached_rows_are_stepped_once(self, steps, monkeypatch):
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 300)
        kernel = BinomialKernel(0.3)
        for n in np.random.default_rng(3).permutation(np.arange(2, 301)).tolist():
            kernel.split_pmf(n)
        assert steps[0] == 298

    def test_ascending_past_the_cache(self, steps, monkeypatch):
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 50)
        assert validate_kernel(BinomialKernel(0.3), 400).passed
        assert steps[0] == 398

    def test_cold_rows_above_the_cache(self, steps, monkeypatch):
        # a row above the limit steps from the row at the limit, which the
        # first one caches on its way, not from row 2
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 50)
        kernel = BinomialKernel(0.3)
        kernel.split_pmf(400)
        assert steps[0] == 398
        assert sorted(kernel._rows) == list(range(3, 51))
        kernel.split_pmf(300)
        assert steps[0] == 398 + 250

    def test_sigma_builds_no_row_above_the_cache(self, steps, monkeypatch):
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 50)
        kernel = BinomialKernel(0.3)
        n = 10**6
        assert kernel.sigma(1, n - 1) == 0.0  # 0.7^(n-2) underflows
        # the mode by the local central limit theorem
        assert kernel.sigma(300_000, n - 300_000) == pytest.approx(
            1 / math.sqrt(2 * math.pi * (n - 2) * 0.3 * 0.7), rel=1e-4
        )
        assert kernel.sigma(30, 51) > 0.0
        assert steps[0] == 0
        assert kernel._rows == {}

    def test_sigma_builds_no_row_below_the_cache(self, steps):
        kernel = BinomialKernel(0.3)
        assert 4000 <= kernels.PMF_CACHE_LIMIT
        want = float(kernel.sigma_exact(1000, 3000))
        assert kernel.sigma(1000, 3000) == pytest.approx(want, rel=1e-12)
        assert steps[0] == 0
        assert kernel._rows == {}

    def test_shared_between_threads(self, monkeypatch):
        # the cache is shared; every row handed out must still be the walk's
        # row of the size asked for
        monkeypatch.setattr(kernels, "PMF_CACHE_LIMIT", 30)
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
    # sigma is evaluated directly at every size, below PMF_CACHE_LIMIT as
    # well as above it, and never reads or builds a row
    kernel = BinomialKernel(p)
    mode = round(p * (n - 2))
    ks = set(range(max(0, mode - 30), min(n - 1, mode + 31)))
    ks |= {0, n - 2, (n - 2) // 7, (n - 2) // 3, (n - 2) * 5 // 6}
    for k, w in exact_binomial_entries(p, n, ks).items():
        if w >= 1e-300:
            got = kernel.sigma(k + 1, n - 1 - k)
            assert abs(got - w) <= 1e-12 * w, (k, got, w)
    assert kernel._rows == {}


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
