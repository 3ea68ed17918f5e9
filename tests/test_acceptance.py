"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo sizes and
tolerances are fixed here, not tuned at runtime; seeds are pinned so every
run is reproducible.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from onoffchain import analytic, core, frozen, limit, sim, verify

LINEAR = core.RateSchedule.linear(1.0)
E_GAMMA = analytic.EXP_EULER_GAMMA


def _report(label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(failures)}]"
    print(f"{status} {label}{detail}")
    assert not failures, f"{label}: {failures}"


def unit_permanent_chain(n: int) -> core.SystemConfig:
    return core.SystemConfig(1, n, core.RateSchedule.constant(1.0),
                             core.InputModel.permanent())


def test_criterion_01_exact_small_means():
    t0 = time.monotonic()
    failures = []
    exact = {1: Fraction(1), 2: Fraction(2), 3: Fraction(8, 3)}
    for n, want in exact.items():
        got = analytic.exact_mean_small_fraction(n)
        if got != want:
            failures.append(f"rational mean n={n}: {got} != {want}")
        hp = analytic.exact_mean_equal_rates(n)
        if abs(float(hp) - float(want)) > 1e-13:
            failures.append(f"high-precision mean n={n} off")
    for n, want in exact.items():
        dist = sim.sample_first_reception(unit_permanent_chain(n), 1, 100_000,
                                          seed=101 + n)
        err = abs(dist.mean() - float(want))
        if err > 3 * dist.stderr():
            failures.append(f"MC n={n}: |{dist.mean():.4f} - {float(want):.4f}| "
                            f"> 3se={3 * dist.stderr():.4f}")
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
    rng = np.random.default_rng(505)
    model = core.InputModel.exponential(1.0)
    for trial in range(20):
        length = int(rng.integers(2, 13))
        rates = rng.uniform(0.3, 4.0, size=length)
        perm = rng.permutation(rates)
        base = analytic.chain_transform(model, rates)
        other = analytic.chain_transform(model, perm)
        for s in (0.1, 1.0, 10.0):
            if abs(base(s) - other(s)) > 1e-12:
                failures.append(f"trial {trial}: disagreement {abs(base(s) - other(s))}")
                break
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
    rng = np.random.default_rng(606)
    model = core.InputModel.exponential(1.5)
    phi = analytic.transform_of_input(model)
    for trial in range(12):
        length = int(rng.integers(1, 13))
        rates = rng.uniform(0.4, 3.0, size=length)
        chain = analytic.chain_transform(model, rates)
        for s in (0.5, 2.0):
            gap = abs(analytic.subset_expansion(phi, rates, s) - chain(s))
            if gap > 1e-10:
                failures.append(f"trial {trial}, s={s}: gap {gap}")
    _report("criterion 6: subset expansion agrees with iterated chain to 1e-10",
            failures)


def test_criterion_07_truncation_dominance():
    report = limit.monotonicity_check(1, [2, 3, 4, 5, 6], LINEAR, 100_000, seed=707)
    failures = [f"l={a}->{b} inconclusive at x={r.witness}"
                for a, b, r in report.rows if not r.dominates]
    _report(f"criterion 7: dominance along l=2..6 with band {report.band:.4f}",
            failures)


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
    for seq in (frozen.ThresholdSequence.geometric(0.5),
                frozen.ThresholdSequence.harmonic()):
        report = frozen.exhaustive_search(seq, 10)
        if report.total != 2 ** 11:
            failures.append(f"{seq.describe()}: {report.total} candidates != 2^11")
        if not report.all_violated:
            failures.append(f"{seq.describe()}: consistent candidate survived")
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
    checked = 0
    for si, sched in enumerate(schedules):
        lo = sched.first_index if sched.family == core.EXPLICIT else 1
        hi = lo + 2 if sched.family != core.EXPLICIT else lo + len(sched.values) - 1
        for ii, model in enumerate(inputs):
            stops = [sim.StopRule.horizon(8.0),
                     sim.StopRule.first_reception_at(lo),
                     sim.StopRule.reception_count(lo, 3)]
            for ti, stop in enumerate(stops):
                for rep in range(3):
                    cfg = core.SystemConfig(lo, hi, sched, model)
                    log = sim.simulate(cfg, sim.RandomnessPlan(1200 + si, 97 * ii + 13 * ti + rep), stop)
                    failure = verify._structural_failure(log)
                    if failure is not None:
                        failures.append(f"{sched.family}/{model.kind}/{stop.kind}/r{rep}: {failure}")
                        continue
                    checked += 1
    # single-node edge and a restricted window onto a longer chain
    one = core.SystemConfig(1, 1, core.RateSchedule.explicit([1.0]),
                            core.InputModel.permanent())
    log = sim.simulate(one, sim.RandomnessPlan(7, 7), sim.StopRule.reception_count(1, 4))
    core.validate_event_log(log)
    ext = limit.sample_extension(2, 8, horizon=25.0, rates=LINEAR, seed=1213)
    seq = core.log_to_sequence(ext.log)
    if not core.validate_signal_recovery(seq).consistent:
        failures.append("restricted window failed the axioms")
    checked += 2
    _report(f"criterion 12: {checked} simulated logs satisfy every axiom and "
            f"dynamics property, zero violations", failures)
