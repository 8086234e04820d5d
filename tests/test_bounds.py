import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesource import bounds, heights
from treesource.bounds import (
    PASS_TOL,
    PRESET_NAMES,
    PhiFunction,
    UpperBoundedParams,
    WeaklyBalancedParams,
    asymptotic_power_bound,
    balance_exponent,
    make_preset,
    phi_balance,
    psi_envelope,
    upper_bounded_certificate,
    verify_certificates,
    weakly_balanced_certificate,
)
from treesource.heights import exp_moment_grid, expected_height_grid
from treesource.kernels import BinomialKernel, BstKernel, TableKernel, UniformKernel
from treesource.trees import count_trees


class TestPhiFunction:
    def test_constant(self):
        phi = PhiFunction.constant(0.5)
        assert phi(2) == 0.5
        assert phi(10**6) == 0.5
        assert phi.describe() == "0.5"

    def test_constant_range(self):
        with pytest.raises(ValueError):
            PhiFunction.constant(0.0)
        with pytest.raises(ValueError):
            PhiFunction.constant(1.2)

    def test_inv_sqrt_caps_at_one(self):
        phi = PhiFunction.inv_sqrt(2.0)
        assert phi(1) == 1.0
        assert phi(4) == 1.0
        assert phi(100) == pytest.approx(0.2)
        assert "sqrt" in phi.describe()

    def test_inv_sqrt_needs_positive_coeff(self):
        with pytest.raises(ValueError):
            PhiFunction.inv_sqrt(0.0)

    def test_table(self):
        phi = PhiFunction.from_table({2: 0.8, 10: 0.5, 5: 0.5})
        assert phi(2) == 0.8
        assert phi(5) == 0.5
        with pytest.raises(ValueError, match="no entry"):
            phi(7)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            PhiFunction.from_table({})
        with pytest.raises(ValueError):
            PhiFunction.from_table({2: 1.5})
        with pytest.raises(ValueError, match="nonincreasing"):
            PhiFunction.from_table({2: 0.4, 5: 0.6})

    def test_rejects_size_zero(self):
        with pytest.raises(ValueError):
            PhiFunction.constant(0.5)(0)


class TestParamsValidation:
    def test_envelope_params(self):
        p = UpperBoundedParams(c=2.0, alpha=0.5, n_min=3, shift=1.0)
        assert p.psi(5.0) == pytest.approx(2.0 / 2.0)
        with pytest.raises(ValueError):
            UpperBoundedParams(c=0.3, alpha=0.5, n_min=1)  # below 1/e
        with pytest.raises(ValueError):
            UpperBoundedParams(c=1.0, alpha=1.5, n_min=1)
        with pytest.raises(ValueError):
            UpperBoundedParams(c=1.0, alpha=-0.1, n_min=1)
        with pytest.raises(ValueError):
            UpperBoundedParams(c=math.nextafter(1.0 / math.e, 0.0), alpha=0.5, n_min=1)
        # the premises' edges are admitted
        UpperBoundedParams(c=1.0 / math.e, alpha=0.0, n_min=1)
        UpperBoundedParams(c=1.0 / math.e, alpha=1.0, n_min=1)
        with pytest.raises(ValueError):
            UpperBoundedParams(c=1.0, alpha=0.5, n_min=0)
        with pytest.raises(ValueError):
            UpperBoundedParams(c=1.0, alpha=0.5, n_min=1, shift=2.0)

    def test_envelope_needs_n_beyond_shift(self):
        p = UpperBoundedParams(c=1.0, alpha=1.0, n_min=1, shift=1.0)
        with pytest.raises(ValueError):
            p.psi(1.0)

    def test_balance_params(self):
        with pytest.raises(ValueError):
            WeaklyBalancedParams(phi=PhiFunction.constant(0.5), gamma=0.5, n_min=1)
        with pytest.raises(ValueError):
            WeaklyBalancedParams(phi=PhiFunction.constant(0.5), gamma=0.25, n_min=0)

    def test_describe_smoke(self):
        assert "n_min=3" in UpperBoundedParams(c=2.0, alpha=1.0, n_min=3).describe()
        w = WeaklyBalancedParams(phi=PhiFunction.constant(0.9), gamma=0.45, n_min=2)
        assert "gamma=0.45" in w.describe()


class TestPsiEnvelope:
    def test_flat_rows_exact(self):
        k = BstKernel()
        for n in (2, 5, 9, 100):
            assert psi_envelope(k, n) == 2.0 / (n - 1)

    def test_uniform_edge_split_dominates(self):
        k = UniformKernel()
        assert psi_envelope(k, 10) == 2 * 1430 / 4862  # 2 * T_9 / T_10
        assert psi_envelope(k, 400) > 0.5  # edge mass never drops below half

    def test_binomial_center_dominates(self):
        k = BinomialKernel(0.5)
        assert psi_envelope(k, 100) == pytest.approx(2 * k.sigma(50, 50), rel=1e-14)

    def test_needs_two_leaves(self):
        with pytest.raises(ValueError):
            psi_envelope(BstKernel(), 1)


class TestPhiBalance:
    def test_flat_row_middle_half(self):
        # splits 3..6 of the 8 equally likely ones
        assert phi_balance(BstKernel(), 9, 0.25) == 0.5

    def test_whole_row_when_cut_is_loose(self):
        assert phi_balance(BstKernel(), 4, 0.25) == pytest.approx(1.0, rel=1e-15)

    def test_empty_window(self):
        assert phi_balance(BstKernel(), 3, 0.45) == 0.0

    def test_binomial_concentrates(self):
        assert phi_balance(BinomialKernel(0.5), 200, 0.4) > 0.95

    @pytest.mark.parametrize("n", [900, 1700, 1800])
    def test_window_is_blind_to_mirrored_rows(self, n, mirrored_binomial):
        # gamma * n rounds to just above an integer at these sizes, where
        # floor((1 - gamma) * n) would end the window one entry past
        # n - ceil(gamma * n) and count an entry that its mirror image drops
        gamma = 0.9 * 0.3
        mirrored = phi_balance(mirrored_binomial(0.3), n, gamma)
        assert mirrored == pytest.approx(phi_balance(BinomialKernel(0.3), n, gamma), rel=1e-14)

    @pytest.mark.parametrize("n", [100, 400])
    def test_uniform_against_exact_rationals(self, n):
        # independent oracle: the same window summed in exact arithmetic
        gamma = 0.25
        lo = math.ceil(gamma * n)
        hi = math.floor((1 - gamma) * n)
        tn = count_trees(n)
        want = sum(
            Fraction(count_trees(k) * count_trees(n - k), tn) for k in range(lo, hi + 1)
        )
        got = phi_balance(UniformKernel(), n, gamma)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_balance(BstKernel(), 1, 0.25)
        with pytest.raises(ValueError):
            phi_balance(BstKernel(), 10, 0.0)
        with pytest.raises(ValueError):
            phi_balance(BstKernel(), 10, 0.5)


class TestBalanceExponent:
    def test_frozen_values(self):
        assert balance_exponent(0.5, 0.25) == pytest.approx(6.228262518959627, rel=1e-12)
        assert balance_exponent(0.9, 0.45) == pytest.approx(2.4092881179479675, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            balance_exponent(0.0, 0.25)
        with pytest.raises(ValueError):
            balance_exponent(1.1, 0.25)
        with pytest.raises(ValueError):
            balance_exponent(0.5, 0.6)


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(min_value=0.05, max_value=0.95),
    hi=st.floats(min_value=0.05, max_value=0.95),
    gamma=st.floats(min_value=0.05, max_value=0.45),
)
def test_balance_exponent_monotone_in_phi(lo, hi, gamma):
    a, b = sorted((lo, hi))
    assert balance_exponent(a, gamma) >= balance_exponent(b, gamma) - 1e-12


class TestAsymptoticPowerBound:
    def test_log_regime(self):
        assert asymptotic_power_bound(2.0, 1.0, 100) == pytest.approx(
            (2 * math.e - 1) * math.log(100), rel=1e-15
        )

    def test_sqrt_regime(self):
        assert asymptotic_power_bound(1.0, 0.5, 400) == pytest.approx(
            2 * math.e * 20, rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_power_bound(0.2, 0.5, 100)
        with pytest.raises(ValueError):
            asymptotic_power_bound(1.0, -0.1, 100)
        with pytest.raises(ValueError):
            asymptotic_power_bound(1.0, 0.5, 1)


class TestEnvelopeCertificate:
    def test_log_family_closed_form(self):
        params = UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
        cert = upper_bounded_certificate(params, 9)
        want = math.log(2.0) + 1.0 + (2 * math.e - 1) * math.log(9.0)
        assert cert.companion_log == pytest.approx(want, rel=1e-15)
        assert cert.moment_bound_log == pytest.approx(2 + want, rel=1e-15)
        assert cert.height_bound == pytest.approx(want + 2, rel=1e-15)

    def test_power_family_closed_form(self):
        params = UpperBoundedParams(c=1.5, alpha=0.5, n_min=4)
        cert = upper_bounded_certificate(params, 64)
        want = math.log(1.5) + 1.0 + math.e * 1.5 * 8.0 / 0.5 - 0.5 * math.log(64.0)
        assert cert.companion_log == pytest.approx(want, rel=1e-14)

    def test_bound_grows_like_main_term(self):
        # with a large additive offset the growth rate in ln n is exactly
        # the main-term coefficient
        params = UpperBoundedParams(c=2.0, alpha=1.0, n_min=1000)
        hb = lambda n: upper_bounded_certificate(params, n).height_bound
        slope = (hb(10**6) - hb(10**3)) / (math.log(10**6) - math.log(10**3))
        assert slope == pytest.approx(2 * math.e - 1, rel=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            UpperBoundedParams(c=1.0 / math.e, alpha=1.0, n_min=1),
            UpperBoundedParams(c=1.0, alpha=0.0, n_min=1),
            UpperBoundedParams(c=3.0, alpha=0.25, n_min=5),
        ],
    )
    def test_side_conditions_hold(self, params):
        # the lemma in UpperBoundedParams, on the computed companion:
        # ln g is nondecreasing, ln g(1) >= 0, and ln g equals the log of
        # e*psi(x)*exp(e*Psi(x)) for the unshifted envelope
        c, alpha = params.c, params.alpha
        xs = [1, 2, 3, 10, 100, 2000, 20000, 10**6]
        logs = [upper_bounded_certificate(params, x).companion_log for x in xs]
        assert all(b >= a for a, b in zip(logs, logs[1:]))
        assert logs[0] >= 0.0
        for x, lg in zip(xs, logs):
            big_psi = c * math.log(x) if alpha == 1.0 else c * x ** (1 - alpha) / (1 - alpha)
            rhs = 1.0 + math.log(c) - alpha * math.log(x) + math.e * big_psi
            assert lg == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_side_conditions_hold_at_huge_sizes(self):
        # the lemma decides the side conditions, so no size can fail them;
        # the bound stays finite and nondecreasing out to 10^14
        params = make_preset("bin-upper").params
        near, far = (upper_bounded_certificate(params, n) for n in (10**13, 10**14))
        assert math.isfinite(far.height_bound)
        assert far.companion_log >= near.companion_log

    def test_size_validation(self):
        with pytest.raises(ValueError):
            upper_bounded_certificate(UpperBoundedParams(c=1.0, alpha=0.5, n_min=1), 0)


class TestBalanceCertificate:
    def test_closed_form(self):
        params = WeaklyBalancedParams(phi=PhiFunction.constant(0.5), gamma=0.25, n_min=2)
        cert = weakly_balanced_certificate(params, 1024)
        kappa = balance_exponent(0.5, 0.25)
        assert cert.base == 1.5
        assert cert.exponent == kappa
        assert cert.moment_bound_log == pytest.approx(2 + kappa * 10, rel=1e-14)
        assert cert.height_bound == pytest.approx(
            (kappa * 10 + 2) / math.log2(1.5), rel=1e-14
        )

    def test_small_offset_keeps_ratio_in_band(self):
        # a balanced binomial source: the height bound stays within [2, 3]
        # multiples of log2 n once the additive offset is small
        params = WeaklyBalancedParams(phi=PhiFunction.constant(0.9), gamma=0.45, n_min=2)
        cert = weakly_balanced_certificate(params, 1000)
        ratio = cert.height_bound / math.log2(1000)
        assert 2.0 <= ratio <= 3.0
        assert ratio == pytest.approx(2.818549050271879, rel=1e-12)

    def test_per_size_profile(self):
        phi = PhiFunction.inv_sqrt(1.0)
        params = WeaklyBalancedParams(phi=phi, gamma=0.25, n_min=2)
        cert = weakly_balanced_certificate(params, 100)
        assert cert.base == pytest.approx(1.1, rel=1e-15)
        assert cert.exponent == pytest.approx(balance_exponent(0.1, 0.25), rel=1e-15)


class TestVerifyCertificates:
    def test_flat_kernel_envelope_passes(self):
        preset = make_preset("bst-upper")
        report = verify_certificates(preset.kernel, preset.params, range(2, 301))
        assert report.all_pass
        assert report.conditions_ok is True
        assert report.log_base == "e"
        assert len(report.rows) == 299
        assert "all pass" in report.summary()

    def test_flat_kernel_balance_passes(self):
        preset = make_preset("bst-wbal")
        report = verify_certificates(preset.kernel, preset.params, range(2, 301))
        assert report.all_pass
        assert report.conditions_ok is None
        assert report.log_base == "2"

    def test_unbalanced_source_fails_membership(self):
        params = WeaklyBalancedParams(phi=PhiFunction.constant(0.99), gamma=0.45, n_min=2)
        report = verify_certificates(BstKernel(), params, range(2, 61))
        assert not report.all_pass
        failed = [r for r in report.rows if not r.membership_ok]
        assert failed
        assert "FAILURES" in report.summary()

    def test_wrong_kernel_fails_bounds(self):
        # a log-regime envelope cannot hold the sqrt-height uniform source
        params = UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
        report = verify_certificates(UniformKernel(), params, [100, 400])
        assert not report.all_pass
        last = report.rows[-1]
        assert not last.membership_ok
        assert not last.height_ok

    def test_membership_not_required_below_n_min(self):
        params = WeaklyBalancedParams(phi=PhiFunction.constant(0.9), gamma=0.45, n_min=50)
        report = verify_certificates(BinomialKernel(0.5), params, [10, 30])
        for row in report.rows:
            assert not row.membership_required
            assert row.membership_ok  # vacuous below n_min

    def test_row_quantities_are_consistent(self):
        preset = make_preset("bst-upper")
        report = verify_certificates(preset.kernel, preset.params, [50])
        row = report.rows[0]
        assert row.moment == pytest.approx(math.exp(row.moment_log), rel=1e-12)
        assert row.moment_log <= row.moment_bound_log + PASS_TOL
        assert row.exact_eh <= row.height_bound + PASS_TOL
        assert row.mc_eh is None and row.mc_stderr is None

    def test_monte_carlo_columns(self):
        preset = make_preset("bst-wbal")
        report = verify_certificates(
            preset.kernel, preset.params, [10, 40], mc_replicates=800, seed=3
        )
        for row in report.rows:
            assert row.mc_eh is not None and row.mc_stderr > 0
            assert abs(row.mc_eh - row.exact_eh) <= 6 * row.mc_stderr

    def test_validation(self):
        preset = make_preset("bst-upper")
        with pytest.raises(ValueError):
            verify_certificates(preset.kernel, preset.params, [])
        with pytest.raises(ValueError):
            verify_certificates(preset.kernel, preset.params, [0, 5])

    def test_leaves_row_caches_as_found(self, kernel_state):
        # membership rows come from one ascending walk, which keeps nothing
        preset = make_preset("bin-upper")
        before = kernel_state(preset.kernel)
        report = verify_certificates(preset.kernel, preset.params, preset.default_grid)
        assert report.all_pass
        assert kernel_state(preset.kernel) == before

        table = TableKernel({5: [0.1, 0.4, 0.4, 0.1]}, BinomialKernel(0.3))
        before = kernel_state(table)
        params = UpperBoundedParams(c=2.0, alpha=0.5, n_min=2)
        verify_certificates(table, params, [2, 5, 60, 300], mc_replicates=20)
        assert kernel_state(table) == before

    def test_table_profile_needs_only_the_grid_sizes(self):
        # the scan takes one moment base per grid size, so the profile is asked
        # only at grid sizes, and the grid rows are those of a profile for all sizes
        grid = [3, 10, 40, 41, 90]

        def phi(m):
            return min(1.0, 0.9 / math.sqrt(m))

        def rows(sizes):
            params = WeaklyBalancedParams(
                PhiFunction.from_table({m: phi(m) for m in sizes}), gamma=0.25, n_min=2
            )
            return verify_certificates(BstKernel(), params, grid, mc_replicates=40).rows

        assert rows(grid) == rows(range(1, grid[-1] + 1))

    @pytest.mark.parametrize("name", ["bin-upper", "bin-wbal"])
    def test_membership_matches_pointwise_diagnostics(self, name):
        preset = make_preset(name, p=0.3)
        params = preset.params
        sizes = [n for n in range(2, 2049, 97)] + [params.n_min - 1, params.n_min]
        report = verify_certificates(preset.kernel, params, sizes)
        for row in report.rows:
            n = row.n
            assert row.membership_required == (n >= params.n_min)
            if not row.membership_required:
                assert row.membership_ok
            elif name == "bin-upper":
                envelope = psi_envelope(preset.kernel, n)
                assert row.membership_ok == (envelope <= params.psi(n) + PASS_TOL)
            else:
                mass = phi_balance(preset.kernel, n, params.gamma)
                assert row.membership_ok == (mass >= params.phi(n) - PASS_TOL)

    def test_families_report_their_own_labels(self):
        up = UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
        wb = WeaklyBalancedParams(phi=PhiFunction.inv_sqrt(1.0), gamma=0.25, n_min=2)
        assert (up.family, up.log_base, up.moment_base(7)) == ("envelope-bounded", "e", math.e)
        assert (wb.family, wb.log_base, wb.moment_base(100)) == ("weakly-balanced", "2", 1.1)
        assert up.certificate(9) == upper_bounded_certificate(up, 9)
        assert wb.certificate(9) == weakly_balanced_certificate(wb, 9)

    def test_sizes_off_the_grid_do_not_extend_the_scan(self, comb_kernel, scan_layers):
        params = UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
        report = verify_certificates(comb_kernel, params, [6, 12])
        assert scan_layers == [5]
        assert [row.exact_eh for row in report.rows] == [3.0, 4.0]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_sparse_grid_rows_equal_dense_grid_rows(self, name):
        preset = make_preset(name)
        dense = verify_certificates(preset.kernel, preset.params, range(1, 301))
        sparse = verify_certificates(preset.kernel, preset.params, [1, 2, 7, 64, 65, 299, 300])
        rows = {row.n: row for row in dense.rows}
        assert list(sparse.rows) == [rows[row.n] for row in sparse.rows]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.0, -1e-9])
    def test_rejects_tail_tol_outside_unit_interval(self, tol):
        preset = make_preset("bst-upper")
        with pytest.raises(ValueError, match="tail_tol"):
            verify_certificates(preset.kernel, preset.params, [10, 100], tail_tol=tol)

    @pytest.mark.parametrize("n", [3, 400])
    @pytest.mark.parametrize("entry", ["verify_certificates", "exp_moment_grid"])
    def test_one_walk_pulls_each_row_once(self, entry, n, counting_bst):
        # membership and the supersolution g of the moment tail bound read
        # the rows the scan pulls for its panels; neither walks them again,
        # and the scan pulls them even at sizes 2 and 3, where no row is live
        kernel, pulled = counting_bst
        if entry == "verify_certificates":
            params = UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
            assert verify_certificates(kernel, params, range(2, n + 1)).all_pass
        else:
            exp_moment_grid(kernel, n, math.e)
        assert pulled == list(range(2, n + 1))

    @pytest.mark.parametrize("name", ["bst-upper", "bst-wbal"])
    def test_one_scan_feeds_every_row(self, name, monkeypatch):
        preset = make_preset(name)
        sizes = [2, 7, 40, 120]
        calls = []
        scan = heights.survival_layers

        def counting_scan(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(heights, "survival_layers", counting_scan)
        report = verify_certificates(preset.kernel, preset.params, sizes)
        assert len(calls) == 1

        upper = isinstance(preset.params, UpperBoundedParams)
        if upper:
            bases = math.e
        else:
            bases = np.ones(121)
            bases[1:] = 1.0 + np.array([preset.params.phi(i) for i in range(1, 121)])
        eh = expected_height_grid(preset.kernel, 120)
        log_nat = exp_moment_grid(preset.kernel, 120, bases)[0]
        for row in report.rows:
            assert row.exact_eh == eh[row.n]
            # the balance family reports its moment in log base 2
            assert row.moment_log == (log_nat[row.n] if upper else log_nat[row.n] / math.log(2.0))


@pytest.fixture(scope="module")
def report():
    preset = make_preset("bst-upper")
    return verify_certificates(preset.kernel, preset.params, [2, 10, 50])


class TestReportSerialization:
    def test_csv_layout(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0].startswith("# kernel=bst family=envelope-bounded")
        assert "moment_log_base=e" in lines[0]
        assert lines[1] == "n,exact_EH,mc_EH,mc_stderr,moment,moment_bound_log,height_bound,membership_ok,pass"
        assert len(lines) == 2 + 3
        first = lines[2].split(",")
        assert first[0] == "2"
        assert first[2] == "" and first[3] == ""  # no Monte Carlo columns
        assert first[8] == "true"
        float(first[1]); float(first[4]); float(first[5]); float(first[6])

    def test_json_layout(self, report):
        obj = json.loads(report.to_json())
        assert obj["all_pass"] is True
        assert obj["conditions_ok"] is True
        assert obj["moment_log_base"] == "e"
        assert len(obj["rows"]) == 3
        row = obj["rows"][-1]
        assert row["n"] == 50
        assert row["moment_slack_log"] == pytest.approx(
            row["moment_bound_log"] - row["moment_log"]
        )
        assert row["height_slack"] == pytest.approx(
            row["height_bound"] - row["exact_EH"]
        )

    @pytest.mark.parametrize("name, want", [("bst-upper", True), ("bst-wbal", None)])
    def test_json_conditions_key(self, name, want):
        # the envelope family's side conditions follow from its premises;
        # the balance family has none
        preset = make_preset(name)
        obj = json.loads(verify_certificates(preset.kernel, preset.params, [2, 9]).to_json())
        assert "conditions_ok" in obj
        assert obj["conditions_ok"] is want

    def test_infinite_moment_serializes(self):
        # linear moments can overflow while their logs stay finite; the
        # report must carry that through both formats
        from treesource.bounds import BoundReport, BoundRow

        row = BoundRow(
            n=5000,
            exact_eh=30.0,
            mc_eh=None,
            mc_stderr=None,
            moment=math.inf,
            moment_log=800.0,
            moment_bound_log=900.0,
            height_bound=950.0,
            membership_required=True,
            membership_ok=True,
            moment_ok=True,
            height_ok=True,
        )
        report = BoundReport(
            kernel="bst",
            family="envelope-bounded",
            params="psi(x)=2*x^(-1)",
            log_base="e",
            tail_tol=1e-12,
            rows=(row,),
            conditions_ok=True,
        )
        assert "inf" in report.to_csv().lower()
        parsed = json.loads(report.to_json())
        assert parsed["rows"][0]["moment"] == math.inf
        assert parsed["rows"][0]["moment_log"] == 800.0


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("bst-upper", "bst-wbal", "uni-wbal", "bin-wbal", "bin-upper")

    def test_flat_kernel_presets_are_exact(self):
        up = make_preset("bst-upper")
        assert up.params == UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0)
        assert not up.empirical
        wb = make_preset("bst-wbal")
        assert wb.params.gamma == 0.25
        assert wb.params.phi(17) == 0.5
        assert wb.params.n_min == 2

    def test_catalan_balance_fit(self):
        preset = make_preset("uni-wbal")
        assert preset.empirical
        assert preset.params.n_min == 2
        assert preset.params.phi.coeff == pytest.approx(0.5373229, abs=1e-6)

    def test_binomial_balance_fit(self):
        assert make_preset("bin-wbal", p=0.5).params.n_min == 279
        assert make_preset("bin-wbal", p=0.3).params.n_min == 379
        assert make_preset("bin-wbal", p=0.3).params.gamma == pytest.approx(0.27)

    @pytest.mark.parametrize("p", [0.05, 0.95])
    def test_balance_fit_without_start_size_raises(self, p):
        # balance still fails at the end of the scan, so n_min would lie past it
        with pytest.raises(ValueError, match=rf"p={p}\).*2\.\.2048"):
            make_preset("bin-wbal", p=p)

    def test_balance_fit_inside_the_range_builds(self):
        preset = make_preset("bin-wbal", p=0.1)
        assert preset.params.n_min == 1390
        assert preset.default_grid[0] == 1390 and preset.default_grid[-1] == 2048

    def test_binomial_envelope_fit(self):
        preset = make_preset("bin-upper", p=0.5)
        assert preset.params.alpha == 0.5
        assert preset.params.c == 2 * math.sqrt(2.0)

    def test_fitted_membership_holds_on_grid(self):
        preset = make_preset("bin-wbal", p=0.5)
        for n in preset.default_grid[:: max(1, len(preset.default_grid) // 6)]:
            assert phi_balance(preset.kernel, n, preset.params.gamma) >= preset.params.phi(n)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="preset"):
            make_preset("fast-upper")


def binomial_tails(N, p, lo_k, hi_k):
    """Exact P(X <= lo_k) and P(X >= hi_k) for X ~ Bin(N, p), p the stored double."""
    a, b = Fraction(p).as_integer_ratio()
    up, down = [1], [1]
    for _ in range(N):
        up.append(up[-1] * a)
        down.append(down[-1] * (b - a))
    low = sum(math.comb(N, k) * up[k] * down[N - k] for k in range(lo_k + 1))
    high = sum(math.comb(N, k) * up[k] * down[N - k] for k in range(hi_k, N + 1))
    return Fraction(low, b**N), Fraction(high, b**N)


class TestTailBounds:
    def test_central_binomial_bounds(self):
        # 4^j / sqrt(pi (j + 1/2)) <= C(2j, j) <= 4^j / sqrt(pi (j + 1/4)), squared, in
        # integers.  pi lies between pi_lo / scale and pi_hi / scale, within 3e-15
        # relative: far inside the squared bounds' slack, least at the upper bound,
        # about 1/(32 j^2) >= 1.8e-9
        pi_lo, pi_hi, scale = 314159265358979, 314159265358980, 10**14
        c = 1
        for j in range(4097):
            square = c * c
            assert square * pi_lo * (4 * j + 2) >= 2 * scale << 4 * j, j
            assert square * pi_hi * (4 * j + 1) <= 4 * scale << 4 * j, j
            c = c * (2 * j + 1) * (2 * j + 2) // ((j + 1) * (j + 1))
        assert c == math.comb(2 * 4097, 4097)

    def test_uniform_balance_floor_under_exact_mass(self):
        gamma, n = 0.25, np.arange(3.0, 301)
        floor = bounds._balance_floor(UniformKernel(), gamma, n)
        for m, f in zip(range(3, 301), floor.tolist()):
            lo = math.ceil(gamma * m)
            middle = sum(count_trees(k) * count_trees(m - k) for k in range(lo, m - lo + 1))
            assert Fraction(f) <= Fraction(middle, count_trees(m)), m
            # from n = 6 on the floor clears uni-wbal's profile 0.5373/sqrt(n)
            assert m < 6 or f * math.sqrt(m) > 0.5 / (1.05 * math.sqrt(math.pi / 4)), m

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7])
    def test_robbins_mode_bound(self, p):
        kernel = BinomialKernel(p)
        ceiling = bounds._envelope_ceiling(kernel, np.arange(3.0, 303)) * (1 + bounds._TAIL_MARGIN)
        for N, bound in zip(range(1, 301), ceiling.tolist()):
            mode = math.floor((N + 1) * Fraction(p))
            top = kernel.sigma_exact(mode + 1, N - mode + 1)
            assert Fraction(bound) >= 2 * top, N
            assert bound <= 3 * float(top), N

    @pytest.mark.parametrize("n, p", [(50, 0.5), (300, 0.3), (590, 0.5), (1242, 0.3), (400, 0.1)])
    def test_hoeffding_tails(self, n, p):
        kernel = BinomialKernel(p)
        gamma = 0.9 * min(p, 1 - p)
        N, lo = n - 2, math.ceil(gamma * n)
        low, high = binomial_tails(N, p, lo - 2, N + 2 - lo)
        for t, tail in ((N * p - (lo - 2), low), ((N + 2 - lo) - N * p, high)):
            assert t > 0 and Fraction(math.exp(-2 * t * t / N)) >= tail
        floor = float(bounds._balance_floor(kernel, gamma, np.array([float(n)]))[0])
        assert Fraction(floor) <= 1 - low - high
        # where the walk stops, the floor clears phi = 0.9
        assert (floor >= 0.9 * (1 + bounds._TAIL_MARGIN)) == ((n, p) in {(590, 0.5), (1242, 0.3)})


def full_walk_fits(kernel, gamma, phi, alpha, scan_max):
    """n_min (or the error text) and c from every row 2..scan_max."""
    last_violation, c = 1, 0.0
    sizes = range(2, scan_max + 1)
    for n, row in zip(sizes, kernel._ascending_rows(sizes)):
        if bounds._balance(row, gamma) < phi(n):
            last_violation = n
        c = max(c, bounds._envelope(row) * n**alpha)
    if last_violation == scan_max:
        n_min = (
            f"{kernel.describe()}: balance at cut {gamma:g} is below phi(n)={phi.describe()} "
            f"at n={scan_max}, so the scanned range 2..{scan_max} holds no start size"
        )
    else:
        n_min = last_violation + 1
    return n_min, c


class TestFitWalks:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_binomial_fits_match_a_full_walk(self, p):
        n_min, c = full_walk_fits(
            BinomialKernel(p), 0.9 * min(p, 1.0 - p), PhiFunction.constant(0.9), 0.5, 2048
        )
        if isinstance(n_min, str):
            with pytest.raises(ValueError) as err:
                make_preset("bin-wbal", p=p)
            assert str(err.value) == n_min
        else:
            assert make_preset("bin-wbal", p=p).params.n_min == n_min
        assert make_preset("bin-upper", p=p).params.c == c

    def test_uniform_fit_matches_a_full_walk(self):
        preset = make_preset("uni-wbal")
        n_min, _ = full_walk_fits(UniformKernel(), 0.25, preset.params.phi, 0.5, 1024)
        assert preset.params.n_min == n_min

    def test_walked_rows_at_the_default_p(self, monkeypatch):
        walked = []
        for cls in (BinomialKernel, UniformKernel):
            rows = cls._ascending_rows

            def counted(self, sizes, rows=rows):
                for n, row in zip(sizes, rows(self, sizes)):
                    walked.append(n)
                    yield row

            monkeypatch.setattr(cls, "_ascending_rows", counted)
        for name, last, note in [
            ("bin-wbal", 589, "n_min fitted on 2..589; Hoeffding proves balance >= 0.9 on 590..2048"),
            ("bin-upper", 2, "envelope coefficient fitted on 2..2; Robbins'"),
            ("uni-wbal", 5, "n_min fitted on 2..5; central binomial bounds"),
        ]:
            walked.clear()
            preset = make_preset(name)
            assert walked == list(range(2, last + 1)), name
            assert preset.note.startswith(note)

    def test_no_bound_closes_for_other_kernels(self):
        n = np.arange(3.0, 50)
        assert not np.any(bounds._balance_floor(BstKernel(), 0.25, n) > 0)
        assert np.all(bounds._envelope_ceiling(UniformKernel(), n) == math.inf)
