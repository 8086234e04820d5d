"""Acceptance suite: ten end-to-end checks of the numerical contracts.

Each test covers one criterion, prints a single pass/fail line into the
run summary, and enforces its own wall-clock budget.  Tolerances are fixed
here and nowhere else; a failure means the library broke a contract, not
that a tolerance needs adjusting.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from treesource.bounds import (
    balance_exponent,
    make_preset,
    psi_envelope,
    verify_certificates,
)
from treesource.heights import (
    brute_expected_height,
    check_moment_recursion,
    expected_height,
    expected_height_grid,
)
from treesource.kernels import (
    BinomialKernel,
    BstKernel,
    UniformKernel,
    tree_probability,
)
from treesource.sampling import mc_expected_height, sample_preorder, sample_uniform_remy_shape
from treesource.trees import enumerate_trees, shape_bits

BUILTIN_KERNELS = [
    BstKernel(),
    UniformKernel(),
    BinomialKernel(0.3),
    BinomialKernel(0.5),
    BinomialKernel(0.7),
]

CHI2_ALPHA = 1e-3


def chi_square_pvalue(observed, expected):
    """Pearson test with sparse cells pooled, per the usual >= 5 rule."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected >= 5.0
    obs = list(observed[keep])
    exp = list(expected[keep])
    rest_obs, rest_exp = observed[~keep].sum(), expected[~keep].sum()
    if rest_exp >= 1.0:
        obs.append(rest_obs)
        exp.append(rest_exp)
    exp = np.array(exp) * (sum(obs) / sum(exp))
    return chisquare(obs, exp).pvalue


def shape_histogram(draw, replicates, seed):
    """Counts of the shape bits that draw(rng, replicates) yields for one seeded stream."""
    return Counter(draw(np.random.default_rng(seed), replicates))


def test_criterion_01_total_probability(criterion):
    with criterion(1, "shape probabilities sum to 1 for every built-in kernel, n <= 12"):
        start = time.monotonic()
        for kernel in BUILTIN_KERNELS:
            for n in range(2, 13):
                total = sum(
                    tree_probability(kernel, t)[0] for t in enumerate_trees(n)
                )
                assert abs(total - 1.0) <= 1e-9, (kernel.describe(), n, total)
        assert time.monotonic() - start < 30


def test_criterion_02_dp_matches_enumeration(criterion):
    with criterion(2, "scan expected heights match the exhaustive oracle, n <= 10"):
        start = time.monotonic()
        assert brute_expected_height(BstKernel(), 4) == Fraction(8, 3)
        assert brute_expected_height(UniformKernel(), 4) == Fraction(14, 5)
        assert brute_expected_height(BinomialKernel(0.5), 4) == Fraction(5, 2)
        for kernel in BUILTIN_KERNELS:
            for n in range(2, 11):
                dp = expected_height(kernel, n, tail_tol=0.0)
                oracle = float(brute_expected_height(kernel, n))
                assert abs(dp - oracle) <= 1e-9, (kernel.describe(), n)
        assert time.monotonic() - start < 10


def test_criterion_03_moment_recursion_slack(criterion):
    with criterion(3, "subtree moment recursion holds for both base profiles, n <= 200"):
        start = time.monotonic()
        sizes = np.arange(201)
        profiles = {
            "constant e": np.full(201, math.e),
            "1 + 1/sqrt(n)": 1.0 + 1.0 / np.sqrt(np.maximum(sizes, 1)),
        }
        for kernel in BUILTIN_KERNELS:
            for label, phi in profiles.items():
                report = check_moment_recursion(kernel, 200, phi)
                assert report.min_slack >= -1e-9, (kernel.describe(), label, report.summary())
        assert time.monotonic() - start < 60


def test_criterion_04_flat_kernel_envelope_certificate(criterion):
    with criterion(4, "envelope certificate for the flat kernel holds on 2..1000"):
        start = time.monotonic()
        preset = make_preset("bst-upper")
        kernel, params = preset.kernel, preset.params
        # membership is an exact identity for the flat kernel
        for n in range(2, 1001):
            assert psi_envelope(kernel, n) == params.psi(n)
        report = verify_certificates(kernel, params, range(2, 1001))
        assert report.all_pass, report.summary()
        # bound formula: moment log is ln(2e) + (2e-1) ln n plus the offset
        for row in (report.rows[0], report.rows[498], report.rows[-1]):
            want = math.log(2 * math.e) + (2 * math.e - 1) * math.log(row.n) + 2
            assert row.moment_bound_log == pytest.approx(want, rel=1e-12)
            assert row.height_bound == pytest.approx(want, rel=1e-12)
        assert abs((2 * math.e - 1) - 4.436564) <= 1e-6
        assert time.monotonic() - start < 300


def test_criterion_05_flat_kernel_balance_certificate(criterion):
    with criterion(5, "balance certificate for the flat kernel holds on 2..1000"):
        start = time.monotonic()
        preset = make_preset("bst-wbal")
        report = verify_certificates(preset.kernel, preset.params, range(2, 1001))
        assert report.all_pass, report.summary()
        kappa = balance_exponent(0.5, 0.25)
        assert kappa == pytest.approx(math.log(6) / math.log(4 / 3), rel=1e-12)
        for row in (report.rows[0], report.rows[-1]):
            want = 2 + kappa * math.log2(row.n)
            assert row.moment_bound_log == pytest.approx(want, rel=1e-12)
            assert row.height_bound == pytest.approx(want / math.log2(1.5), rel=1e-12)
        # leading constant of the height bound
        assert abs(kappa / math.log2(1.5) - 10.65) <= 0.01
        assert time.monotonic() - start < 300


def test_criterion_06_flat_kernel_log_growth(criterion):
    with criterion(6, "flat-kernel height over ln n increases toward, but stays below, 4.32"):
        start = time.monotonic()
        grid = expected_height_grid(BstKernel(), 2000)
        ratios = [grid[n] / math.log(n) for n in (100, 300, 1000, 2000)]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert all(r < 4.32 for r in ratios), ratios
        assert time.monotonic() - start < 600


def test_criterion_07_catalan_kernel_sqrt_growth(criterion):
    with criterion(7, "Catalan-kernel height scales like sqrt(n); balance preset verifies"):
        start = time.monotonic()
        grid = expected_height_grid(UniformKernel(), 400)
        for n in (100, 200, 400):
            ratio = grid[n] / math.sqrt(n)
            assert 2.5 <= ratio <= 4.5, (n, ratio)
        preset = make_preset("uni-wbal")
        report = verify_certificates(preset.kernel, preset.params, preset.default_grid)
        assert report.all_pass, report.summary()
        assert time.monotonic() - start < 600


def test_criterion_08_binomial_kernel_log2_growth(criterion):
    with criterion(8, "balanced binomial height over log2 n sits in [1, 2.2]; preset verifies"):
        start = time.monotonic()
        kernel = BinomialKernel(0.5)
        ratio = expected_height(kernel, 2000) / math.log2(2000)
        assert 1.0 <= ratio <= 2.2, ratio
        preset = make_preset("bin-wbal", p=0.5)
        report = verify_certificates(preset.kernel, preset.params, preset.default_grid)
        assert report.all_pass, report.summary()
        assert time.monotonic() - start < 600


def test_criterion_09_sampler_distributions(criterion):
    with criterion(9, "sampled shape frequencies match exact probabilities at n = 6"):
        start = time.monotonic()
        replicates = 100_000
        shapes = [shape_bits(t) for t in enumerate_trees(6)]
        histograms = {}
        for kernel in BUILTIN_KERNELS:
            expected = np.array(
                [tree_probability(kernel, t)[0] * replicates for t in enumerate_trees(6)]
            )
            # one call draws every tree from the one stream, a block at a time
            counts = shape_histogram(
                lambda rng, count: (bits for bits, _ in sample_preorder(kernel, 6, count, rng)),
                replicates,
                seed=2024,
            )
            observed = np.array([counts.get(s, 0) for s in shapes], dtype=float)
            pvalue = chi_square_pvalue(observed, expected)
            assert pvalue > CHI2_ALPHA, (kernel.describe(), pvalue)
            histograms[kernel.kind] = counts
        # leaf-growth sampler vs the Catalan kernel sampler, two-sample test
        remy = shape_histogram(
            lambda rng, count: (sample_uniform_remy_shape(6, rng) for _ in range(count)),
            replicates,
            seed=77,
        )
        table = np.array(
            [
                [histograms["uniform"].get(s, 0) for s in shapes],
                [remy.get(s, 0) for s in shapes],
            ]
        )
        pvalue = chi2_contingency(table).pvalue
        assert pvalue > CHI2_ALPHA, pvalue
        assert time.monotonic() - start < 60


def test_criterion_10_monte_carlo_brackets_exact(criterion):
    with criterion(10, "Monte Carlo means bracket the exact values within 4 standard errors"):
        start = time.monotonic()
        for kernel in BUILTIN_KERNELS:
            exact = expected_height_grid(kernel, 200)
            for n in (50, 200):
                mean, stderr = mc_expected_height(kernel, n, 10_000, seed=n)
                assert abs(mean - exact[n]) <= 4 * stderr, (
                    kernel.describe(),
                    n,
                    mean,
                    float(exact[n]),
                    stderr,
                )
        assert time.monotonic() - start < 60
