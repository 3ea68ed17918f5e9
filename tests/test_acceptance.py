"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo sizes and
tolerances are fixed here, not tuned at runtime; seeds are pinned so every
run is reproducible.

Where ``onoffchain verify`` runs the same check, the criterion calls verify's
function at its own sizes: criterion 1 ``_exact_small_means`` and
``_mc_mean``, 5 ``_permutation_invariance``, 6 ``_subset_vs_chain``,
7 ``_dominance``, 11 ``_cascade_refuter`` and 12 ``_structural_battery``.
Runtime bounds, and the parts verify has no copy of, stay here.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from onoffchain import analytic, core, limit, sim, verify

LINEAR = core.RateSchedule.linear(1.0)
E_GAMMA = analytic.EXP_EULER_GAMMA


def _report(label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(failures)}]"
    print(f"{status} {label}{detail}")
    assert not failures, f"{label}: {failures}"


def _require(failures: list, check: verify.Check) -> str:
    """Record a failed shared check; return its detail."""
    name, passed, detail = check
    if not passed:
        failures.append(f"{name}: {detail}")
    return detail


def unit_permanent_chain(n: int) -> core.SystemConfig:
    return core.SystemConfig(1, n, core.RateSchedule.constant(1.0),
                             core.InputModel.permanent())


def test_criterion_01_exact_small_means():
    t0 = time.monotonic()
    failures = []
    _require(failures, verify._exact_small_means())
    for n in (1, 2, 3):
        _require(failures, verify._mc_mean(n, 100_000, 101 + n))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(f"criterion 1: exact means 1, 2, 8/3 with Monte Carlo agreement "
            f"({elapsed:.1f}s)", failures)


def test_criterion_02_euler_constant_asymptotics():
    t0 = time.monotonic()
    failures = []
    r4096 = analytic.euler_ratio(4096)
    if abs(r4096 - 1.78107) > 0.15 * 1.78107:
        failures.append(f"ratio(4096)={r4096:.5f} outside 15% of 1.78107")
    gaps = [abs(analytic.euler_ratio(2 ** k) - E_GAMMA) for k in (6, 8, 10, 12)]
    if not all(b <= a for a, b in zip(gaps, gaps[1:])):
        failures.append(f"gap sequence not nonincreasing: {gaps}")
    a = analytic.exact_mean_equal_rates(64, 128)
    b = analytic.exact_mean_equal_rates(64, 256)
    with mpmath.workprec(300):
        rel = abs(a.value - b.value) / b.value
        if rel >= mpmath.mpf(10) ** -30:
            failures.append(f"cross-precision agreement only {mpmath.nstr(rel, 3)}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(f"criterion 2: ratio(4096)={r4096:.4f} within 15% of exp(gamma), "
            f"gaps nonincreasing, 30-digit cross-precision ({elapsed:.1f}s)", failures)


def test_criterion_03_harmonic_lower_bound():
    failures = []
    for n in (4, 8, 16, 32):
        dist = sim.sample_first_reception(unit_permanent_chain(n), 1, 100_000,
                                          seed=300 + n)
        h = analytic.harmonic_lower_bound(n)
        if dist.mean() < h - 3 * dist.stderr():
            failures.append(f"MC n={n}: mean {dist.mean():.4f} < H_n {h:.4f} - 3se")
    for n in range(1, 65):
        if float(analytic.exact_mean_equal_rates(n)) < analytic.harmonic_lower_bound(n):
            failures.append(f"exact mean below H_n at n={n}")
    _report("criterion 3: means dominate harmonic numbers "
            "(MC n=4,8,16,32; exact n<=64)", failures)


def test_criterion_04_extra_node_identity():
    failures = []
    n = 16
    slow = 1.0 / math.log(n)
    left_extended = core.SystemConfig(
        0, n, core.RateSchedule.explicit([slow] + [1.0] * n, first_index=0),
        core.InputModel.permanent())
    right_extended = core.SystemConfig(
        1, n + 1, core.RateSchedule.explicit([1.0] * n + [slow]),
        core.InputModel.permanent())
    a = sim.sample_first_reception(left_extended, 0, 100_000, seed=404)
    b = sim.sample_first_reception(right_extended, 1, 100_000, seed=405)
    d = sim.ks_statistic(a, b)
    crit = sim.ks_two_sample_critical(a.count, b.count, 0.01)
    if d >= crit:
        failures.append(f"KS {d:.5f} >= 1% critical {crit:.5f}")
    _report(f"criterion 4: slow extra node left vs right at n=16, "
            f"KS={d:.5f} < {crit:.5f}", failures)


def test_criterion_05_permutation_invariance():
    t0 = time.monotonic()
    failures = []
    _require(failures, verify._permutation_invariance(20, 12, 505))
    cfg_a = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                              core.InputModel.permanent())
    cfg_b = core.SystemConfig(1, 3, core.RateSchedule.explicit([3.0, 1.0, 2.0]),
                              core.InputModel.permanent())
    a = sim.sample_first_reception(cfg_a, 1, 100_000, seed=506)
    b = sim.sample_first_reception(cfg_b, 1, 100_000, seed=507)
    d = sim.ks_statistic(a, b)
    crit = sim.ks_two_sample_critical(a.count, b.count, 0.01)
    if d >= crit:
        failures.append(f"empirical KS {d:.5f} >= {crit:.5f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(f"criterion 5: permutation invariance, analytic 1e-12 and "
            f"empirical KS={d:.5f} ({elapsed:.1f}s)", failures)


def test_criterion_06_subset_expansion_equals_chain():
    failures = []
    _require(failures, verify._subset_vs_chain(12, 12, 606))
    _report("criterion 6: subset expansion agrees with iterated chain to 1e-10",
            failures)


def test_criterion_07_truncation_dominance():
    failures = []
    detail = _require(failures, verify._dominance([2, 3, 4, 5, 6], 100_000, 707))
    _report(f"criterion 7: {detail}", failures)


def test_criterion_08_uniform_tightness_bound():
    failures = []
    for l in (4, 8):
        dist = limit.sample_truncation_law(1, l, LINEAR, 20_000, seed=808 + l)
        band = sim.dkw_band(dist.count, 0.01)
        for t in (25.0, 100.0):
            bound = limit.cdf_lower_bound(1, t, LINEAR)
            if bound > dist.cdf(t) + band:
                failures.append(f"l={l}, t={t}: bound {bound:.4f} > cdf+band")
    b2, b4 = (limit.cdf_lower_bound(1, t, LINEAR) for t in (1e2, 1e4))
    if not b4 > b2:
        failures.append(f"bound(1e4)={b4:.4f} not above bound(1e2)={b2:.4f}")
    _report(f"criterion 8: analytic CDF bound below empirical CDFs; "
            f"bound grows {b2:.3f} -> {b4:.3f}", failures)


def test_criterion_09_dense_reception_bound():
    failures = []
    interval = (0.0, 1.0)
    ladder = (10, 20, 50, 100)
    bounds = [limit.interval_reception_bound(k, interval, LINEAR).bound
              for k in ladder]
    if not all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])):
        failures.append(f"bounds not increasing along {ladder}: {bounds}")
    if max(bounds) <= 0.5:
        failures.append(f"no computed bound exceeded 0.5: {bounds}")
    for k in (20, 50):
        cert = limit.interval_reception_bound(k, interval, LINEAR)
        dist = limit.sample_truncation_law(k, 4 * k, LINEAR, 1500, seed=909 + k)
        freq = float(np.mean(dist.samples < interval[1]))
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / dist.count)
        if freq < cert.bound - 3 * se:
            failures.append(f"k={k}: frequency {freq:.3f} < bound {cert.bound:.3f} - 3se")
    _report(f"criterion 9: reception-probability bounds rise {bounds[0]:.3f} -> "
            f"{bounds[-1]:.3f} and hold empirically at k=20, 50", failures)


def test_criterion_10_truncation_cauchy_diagnostics():
    failures = []
    table = limit.convergence_diagnostics(1, [4, 8, 16, 32], LINEAR, 20_000, seed=1010)
    ks = table.ks_column()
    band = sim.ks_two_sample_critical(20_000, 20_000, 0.01)
    for a, b in zip(ks, ks[1:]):
        if b > a + band:
            failures.append(f"KS column rose beyond the band: {ks}")
            break
    means = table.means()
    if not all(b >= a - 0.02 for a, b in zip(means, means[1:])):
        failures.append(f"means not nondecreasing: {means}")
    ext = limit.sample_extension(3, 16, horizon=150.0, rates=LINEAR, seed=1011)
    seq = core.log_to_sequence(ext.log)
    for node in (1, 2, 3):
        gaps = [r - s for s, r in zip(seq.receptions[node], seq.recoveries[node])]
        dist = sim.EmpiricalDistribution.from_values(gaps)
        rate = float(node)
        d = sim.ks_one_sample(dist, lambda x: -np.expm1(-rate * np.asarray(x)))
        crit = sim.ks_one_sample_critical(dist.count, 0.01)
        if d >= crit:
            failures.append(f"off-durations at node {node}: KS {d:.4f} >= {crit:.4f}")
    _report(f"criterion 10: KS ladder {['%.4f' % v for v in ks]} within band "
            f"{band:.4f}; off-durations exponential", failures)


def test_criterion_11_cascade_refutation():
    t0 = time.monotonic()
    failures = []
    _require(failures, verify._cascade_refuter(10))
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(f"criterion 11: all 2x2048 cascade candidates violated ({elapsed:.1f}s)",
            failures)


def test_criterion_12_structural_validators():
    failures = []
    rng = np.random.default_rng(1212)
    schedules = [
        core.RateSchedule.explicit([1.0, 2.0, 3.0]),
        core.RateSchedule.constant(1.0),
        core.RateSchedule.linear(0.8),
        core.RateSchedule.explicit([0.5, 1.0, 1.5, 2.0], first_index=0),
    ]
    inputs = [
        core.InputModel.permanent(),
        core.InputModel.exponential(1.3),
        core.InputModel.deterministic(0.7),
        core.InputModel.empirical(rng.exponential(1.0, 200)),
    ]
    detail = _require(failures, verify._structural_battery(schedules, inputs, 3, 1200))
    # single-node edge and a restricted window onto a longer chain
    one = core.SystemConfig(1, 1, core.RateSchedule.explicit([1.0]),
                            core.InputModel.permanent())
    log = sim.simulate(one, sim.RandomnessPlan(7, 7), sim.StopRule.reception_count(1, 4))
    core.validate_event_log(log)
    ext = limit.sample_extension(2, 8, horizon=25.0, rates=LINEAR, seed=1213)
    seq = core.log_to_sequence(ext.log)
    if not core.validate_signal_recovery(seq).consistent:
        failures.append("restricted window failed the axioms")
    _report(f"criterion 12: {detail}, a single-node log and a restricted window "
            f"satisfy every axiom and dynamics property", failures)
