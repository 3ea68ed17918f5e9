import math
import warnings

import mpmath
import numpy as np
import pytest

from onoffchain import core, limit, sim


LINEAR = core.RateSchedule.linear(1.0)


class TestClassification:
    @pytest.mark.parametrize("sched,case,theta", [
        (core.RateSchedule.constant(1.0), 1, math.inf),
        (core.RateSchedule.log_family(2.0, 0.0), 2, 2.0),
        (core.RateSchedule.log_family(1.0, 2.0), 3, 1.0),
        (core.RateSchedule.log_family(0.3, 2.0), 2, 0.3),  # converges only past the threshold
        (core.RateSchedule.linear(1.0), 4, 0.0),
        (core.RateSchedule.log_square(), 4, 0.0),
    ])
    def test_parametric_families(self, sched, case, theta):
        got = limit.classify_rates(sched)
        assert got.case == case
        assert got.theta == theta

    @pytest.mark.parametrize("values", [[1.0] * 24, [float(k) for k in range(1, 40)]],
                             ids=["constant", "growing"])
    def test_explicit_refused(self, values):
        with pytest.raises(ValueError, match="parametric family"):
            limit.classify_rates(core.RateSchedule.explicit(values))


class TestTailSums:
    def test_linear_closed_form_matches_brute_force(self):
        for x, start in ((0.5, 1), (2.0, 3), (0.1, 10)):
            got = limit.exp_tail_sum(LINEAR, x, start)
            brute = sum(math.exp(-k * x) for k in range(start, start + 5000))
            assert got == pytest.approx(brute, rel=1e-10)

    @pytest.mark.parametrize("c", [1.0, 0.7])
    def test_linear_is_a_true_upper_bound(self, c):
        # against the sum for the given floats, exp(-c x start) / (1 - exp(-c x)),
        # in mpmath: at small x the geometric r**start / (1 - r) fell below it
        sched = core.RateSchedule.linear(c)
        for x in (1e-13, 1e-10, 1e-6, 0.5, 3.0):
            for start in (1, 3, 199):
                got = limit.exp_tail_sum(sched, x, start)
                with mpmath.workprec(300):
                    cx = mpmath.mpf(c) * mpmath.mpf(x)
                    exact = mpmath.exp(-cx * start) / -mpmath.expm1(-cx)
                    assert exact <= got <= exact * (1 + mpmath.mpf(1e-12)), (x, start)
        # past the float range the bound stays positive
        assert limit.exp_tail_sum(sched, 800.0, 1) > 0.0

    def test_constant_diverges(self):
        assert limit.exp_tail_sum(core.RateSchedule.constant(1.0), 5.0, 1) == math.inf

    def test_log_family_below_threshold_diverges(self):
        sched = core.RateSchedule.log_family(1.0, 0.0)
        assert limit.exp_tail_sum(sched, 0.9, 1) == math.inf

    def test_log_family_upper_bounds_brute_force(self):
        sched = core.RateSchedule.log_family(1.0, 0.0)
        got = limit.exp_tail_sum(sched, 3.0, 2)
        brute = sum(math.exp(-sched.rate(k) * 3.0) for k in range(2, 200000))
        assert brute <= got <= brute * 1.01

    def test_log_square_upper_bounds_brute_force(self):
        sched = core.RateSchedule.log_square()
        got = limit.exp_tail_sum(sched, 0.8, 1)
        brute = sum(math.exp(-sched.rate(k) * 0.8) for k in range(1, 200000))
        assert brute <= got <= brute * 1.01

    @pytest.mark.parametrize("sched, x", [(core.RateSchedule.log_family(1.0, 0.0), 1.1),
                                          (core.RateSchedule.log_square(), 0.05)],
                             ids=["remainder-too-large", "remainder-never-finite"])
    def test_unreachable_tolerance_refused_at_once(self, monkeypatch, sched, x):
        # at p = 1.1 the remainder after 10^7 terms is still about 2, far
        # above 1e-3 of any partial sum; at x = 0.05 the log-square remainder
        # stays infinite past 10^7 terms.  Both once summed all 10^7 terms.
        terms = []
        rate = core.RateSchedule.rate
        monkeypatch.setattr(core.RateSchedule, "rate",
                            lambda self, k: terms.append(k) or rate(self, k))
        with pytest.raises(limit.TailSumError, match="tail sum did not stabilize"):
            limit.exp_tail_sum(sched, x, 1)
        assert len(terms) < 10

    def test_certificate_past_refused_tail_sums(self):
        # the search meets windows whose tail sums cannot settle; refusing
        # them at once leaves the certificate as it was
        cert = limit.dense_signal_certificate(core.RateSchedule.log_family(1.0, 0.0), 2, 2.4)
        assert (cert.tau, cert.tail_sum) == (2.0068735251979253, 0.4999999999999999)

    def test_explicit_has_no_tail(self):
        with pytest.raises(limit.TailSumError):
            limit.exp_tail_sum(core.RateSchedule.explicit([1.0, 2.0]), 1.0, 1)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_x_refused(self, x):
        # linear returned nan, and on nan the log families summed 10^7 terms
        for sched in (LINEAR, core.RateSchedule.constant(1.0),
                      core.RateSchedule.log_family(1.0, 0.0), core.RateSchedule.log_square()):
            with pytest.raises(ValueError, match="positive and finite"):
                limit.exp_tail_sum(sched, x, 1)
        with pytest.raises(ValueError):
            limit.cdf_lower_bound(1, x, LINEAR)


class TestTruncationLaws:
    def test_single_node_window_is_bare_exponential(self):
        dist = limit.sample_truncation_law(1, 1, LINEAR, 4000, seed=31)
        assert abs(dist.mean() - 1.0) <= 3 * dist.stderr()

    def test_two_node_window_mean(self):
        dist = limit.sample_truncation_law(1, 2, LINEAR, 4000, seed=32)
        assert abs(dist.mean() - 1.5) <= 3 * dist.stderr()

    def test_means_nondecreasing_in_window_length(self):
        means = [limit.sample_truncation_law(1, l, LINEAR, 4000, seed=33).mean()
                 for l in (2, 4, 8, 16)]
        slack = 0.05
        assert all(b >= a - slack for a, b in zip(means, means[1:]))

    def test_case_warning_for_constant_rates(self):
        with pytest.warns(UserWarning, match="case 1"):
            limit.sample_truncation_law(1, 2, core.RateSchedule.constant(1.0),
                                        10, seed=1)


class TestMonotonicity:
    def test_linear_ladder_dominates(self):
        report = limit.monotonicity_check(1, [2, 3, 4, 5], LINEAR, 4000, seed=34)
        assert report.all_dominate
        assert not report.failures()

    def test_single_point_is_vacuous(self):
        report = limit.monotonicity_check(1, [3], LINEAR, 100, seed=35)
        assert report.all_dominate and report.rows == ()

    def test_swapped_direction_is_inconclusive(self):
        a = limit.sample_truncation_law(1, 2, LINEAR, 4000, seed=36)
        b = limit.sample_truncation_law(1, 8, LINEAR, 4000, seed=36)
        res = sim.dominance_check(b, a, band=sim.dkw_band(4000, 0.005) * 2)
        assert not res.dominates and res.witness is not None

    def test_requires_ascending_ladder(self):
        with pytest.raises(ValueError):
            limit.monotonicity_check(1, [4, 2], LINEAR, 10, seed=0)


class TestCdfLowerBound:
    def test_plugin_arithmetic_at_t_100(self):
        got = limit.cdf_lower_bound(1, 100.0, LINEAR)
        rho = 100.0 ** (-2.0 / 3.0)
        tail = math.exp(-10.0) / (1.0 - math.exp(-10.0))
        expect = math.exp(-10 * rho) * (1 - tail) * (1 - math.exp(-90 * rho))
        assert got == pytest.approx(expect, rel=1e-9)
        assert got == pytest.approx(0.62, abs=0.01)

    def test_grows_toward_one(self):
        # the leading factor is exp(-t**(-1/6)), so the climb is slow
        grid = [1e2, 1e3, 1e4, 1e8, 1e12]
        bounds = [limit.cdf_lower_bound(1, t, LINEAR) for t in grid]
        assert all(0 < a < b < 1 for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] > 0.98

    def test_empirical_cdf_respects_bound(self):
        dist = limit.sample_truncation_law(1, 4, LINEAR, 4000, seed=37)
        band = sim.dkw_band(dist.count, 0.01)
        for t in (25.0, 100.0):
            assert dist.cdf(t) >= limit.cdf_lower_bound(1, t, LINEAR) - band

    def test_constant_rates_give_trivial_bound(self):
        assert limit.cdf_lower_bound(1, 100.0, core.RateSchedule.constant(1.0)) == 0.0

    def test_needs_t_above_one(self):
        with pytest.raises(ValueError):
            limit.cdf_lower_bound(1, 0.5, LINEAR)


class TestDenseCertificates:
    def test_window_at_node_100(self):
        cert = limit.dense_signal_certificate(LINEAR, 100, budget=0.5)
        # tau = 0.1 already meets the 1/k target, so the search must do better
        tail_at_01 = math.exp(-10.0) / (1.0 - math.exp(-0.1))
        assert tail_at_01 == pytest.approx(4.8e-4, abs=1e-4)
        assert cert.tau <= 0.1
        assert cert.tail_sum <= 1.0 / 100
        assert cert.input_rate == pytest.approx(1.0 / math.sqrt(cert.tau))

    def test_window_shrinks_with_node_index(self):
        taus = [limit.dense_signal_certificate(LINEAR, k, budget=0.5).tau
                for k in (10, 100, 1000)]
        assert taus[0] > taus[1] > taus[2]

    def test_constant_rates_cannot_certify(self):
        with pytest.raises(limit.CertificateUnavailableError):
            limit.dense_signal_certificate(core.RateSchedule.constant(1.0), 10, budget=0.5)

    @pytest.mark.parametrize("budget", [math.inf, math.nan])
    def test_non_finite_budget_refused(self, budget):
        # an infinite budget returned tau=inf with a nan tail sum
        with pytest.raises(ValueError, match="positive and finite"):
            limit.dense_signal_certificate(LINEAR, 10, budget)


class TestIntervalReceptionBound:
    def test_monotone_in_node_index(self):
        bounds = [limit.interval_reception_bound(k, (0.0, 1.0), LINEAR).bound
                  for k in (10, 20, 50, 100)]
        assert all(0.0 < b < 1.0 for b in bounds)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_infinite_interval_refused(self):
        with pytest.raises(ValueError):
            limit.interval_reception_bound(5, (0.0, math.inf), LINEAR)

    def test_empirical_frequency_exceeds_bound(self):
        k, l = 20, 80
        cert = limit.interval_reception_bound(k, (0.0, 1.0), LINEAR)
        dist = limit.sample_truncation_law(k, l, LINEAR, 1500, seed=38)
        freq = float(np.mean(dist.samples < 1.0))
        se = math.sqrt(freq * (1 - freq) / dist.count)
        assert freq >= cert.bound - 3 * se


class TestDiagnostics:
    def test_table_shape_and_trend(self):
        table = limit.convergence_diagnostics(1, [2, 4, 8], LINEAR, 3000, seed=39)
        assert [l for l, _, _ in table.rows] == [2, 4, 8]
        assert table.rows[-1][2] is None
        assert len(table.ks_column()) == 2
        means = table.means()
        assert all(b >= a - 0.05 for a, b in zip(means, means[1:]))
        lines = list(table.csv_lines())
        assert lines[0] == "l,mean,ks_to_next"

    def test_single_step_ladder(self):
        table = limit.convergence_diagnostics(1, [3], LINEAR, 200, seed=40)
        assert len(table.rows) == 1 and table.rows[0][2] is None

    def test_constant_rates_keep_growing(self):
        sched = core.RateSchedule.constant(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = limit.convergence_diagnostics(1, [2, 4, 8, 16], sched, 2000, seed=41)
        means = table.means()
        assert means[-1] > means[0] + 0.5


class TestExtension:
    def test_restricted_log_passes_validators(self):
        ext = limit.sample_extension(2, 8, horizon=20.0, rates=LINEAR, seed=42)
        assert ext.log.right_node == 2 and ext.log.restricted
        core.validate_event_log(ext.log)
        seq = core.log_to_sequence(ext.log)
        assert core.validate_signal_recovery(seq).consistent
        traj = core.to_on_off(seq)
        assert core.check_dynamics(traj, seq).passed
        assert 0.0 <= ext.sensitivity_ks <= 1.0

    def test_off_durations_are_exponential(self):
        ext = limit.sample_extension(2, 8, horizon=120.0, rates=LINEAR, seed=43)
        seq = core.log_to_sequence(ext.log)
        for node in (1, 2):
            s = seq.receptions[node]
            r = seq.recoveries[node]
            gaps = [rk - sk for sk, rk in zip(s, r)]
            dist = sim.EmpiricalDistribution.from_values(gaps)
            rate = float(node)
            d = sim.ks_one_sample(dist, lambda x: -np.expm1(-rate * np.asarray(x)))
            assert d < sim.ks_one_sample_critical(dist.count, 0.01)

    def test_short_truncation_warns(self):
        with pytest.warns(UserWarning, match="4k"):
            limit.sample_extension(3, 6, horizon=5.0, rates=LINEAR, seed=44)
