import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesource.heights import expected_height_grid
from treesource.kernels import (
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

    def test_uniform_exact_log_crossover(self):
        # rows from the big-integer path and the log path must agree where
        # both are available
        lo = UniformKernel(exact_limit=5)
        hi = UniformKernel(exact_limit=40)
        for n in (6, 12, 25, 40):
            assert lo.split_pmf(n) == pytest.approx(hi.split_pmf(n), rel=1e-12)

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
        n = 40  # past UniformKernel's exact_limit of 30
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
