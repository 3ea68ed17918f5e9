"""Self-check battery behind the ``verify`` CLI command.

Each check returns (name, passed, detail).  The quick tier covers exact
values, permutation invariance, the subset/chain agreement, the structural
validators, and the cascade refuter; the full tier adds Monte Carlo
consistency, dominance, and bound checks at reduced replication counts.

A check that an acceptance criterion restates takes its sizes as arguments,
and the criterion calls it at its own sizes: criterion 1 calls
``_exact_small_means`` and ``_mc_mean``, criterion 5
``_permutation_invariance``, criterion 6 ``_subset_vs_chain``, criterion 7
``_dominance``, criterion 11 ``_cascade_refuter`` and criterion 12
``_structural_battery``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np

from . import analytic, core, frozen, limit, sim

Check = tuple[str, bool, str]


def _exact_small_means() -> Check:
    want = {1: Fraction(1), 2: Fraction(2), 3: Fraction(8, 3)}
    for n, expect in want.items():
        frac = analytic.exact_mean_small_fraction(n)
        if frac != expect:
            return ("exact small means", False, f"n={n}: {frac} != {expect}")
        hp = analytic.exact_mean_equal_rates(n)
        if abs(float(hp) - float(expect)) > 1e-13:
            return ("exact small means", False, f"n={n}: high-precision value off")
    return ("exact small means", True, "n=1,2,3 -> 1, 2, 8/3")


def _mc_mean(n: int, reps: int, seed: int) -> Check:
    """The sampled mean first reception at node 1 of the unit permanent
    chain on [1, n], within 3 standard errors of the exact mean."""
    cfg = core.SystemConfig(1, n, core.RateSchedule.constant(1.0),
                            core.InputModel.permanent())
    dist = sim.sample_first_reception(cfg, 1, reps, seed=seed)
    err = abs(dist.mean() - float(analytic.exact_mean_small_fraction(n)))
    lim3 = 3 * dist.stderr()
    return (f"monte carlo mean ({n} nodes)", err <= lim3,
            f"mean={dist.mean():.4f}, |err|={err:.4f} vs 3se={lim3:.4f}")


def _permutation_invariance(trials: int, max_length: int, seed: int) -> Check:
    """Chain transforms of random rates and a permutation of them agree bit
    for bit."""
    rng = np.random.default_rng(seed)
    model = core.InputModel.exponential(1.0)
    for trial in range(trials):
        length = int(rng.integers(2, max_length + 1))
        rates = rng.uniform(0.3, 4.0, size=length)
        perm = rng.permutation(rates)
        base = analytic.chain_transform(model, rates)
        other = analytic.chain_transform(model, perm)
        for s in (0.1, 1.0, 10.0):
            if base(s) != other(s):
                return ("permutation invariance", False,
                        f"trial {trial}, len={length}, s={s}: {base(s)} vs {other(s)}")
    return ("permutation invariance", True,
            f"{trials} chains of length 2..{max_length} at s=0.1,1,10")


def _subset_vs_chain(trials: int, max_length: int, seed: int) -> Check:
    """The subset expansion of random chains equals their iterated transform."""
    rng = np.random.default_rng(seed)
    model = core.InputModel.exponential(1.5)
    phi = analytic.transform_of_input(model)
    for trial in range(trials):
        length = int(rng.integers(1, max_length + 1))
        rates = rng.uniform(0.4, 3.0, size=length)
        chain = analytic.chain_transform(model, rates)
        for s in (0.5, 2.0):
            a = analytic.subset_expansion(phi, rates, s)
            b = chain(s)
            if abs(a - b) > 1e-10:
                return ("subset expansion equals chain", False,
                        f"trial {trial}, len={length}, s={s}: {a} vs {b}")
    return ("subset expansion equals chain", True,
            f"{trials} chains of length 1..{max_length} at s=0.5,2")


def _structural_failure(log: core.EventLog) -> str | None:
    """Run one log through every structural validator; the first failure.

    The chain: event-log invariants, the signal/recovery axioms of its
    sequence (checked once, by ``to_on_off``), the on-off dynamics of its
    trajectory, and the trajectory's switch times round trip.  Returns None
    when the log passes them all.
    """
    try:
        core.validate_event_log(log)
    except core.EventLogError as exc:
        return f"log invariant: {exc}"
    seq = core.log_to_sequence(log)
    try:
        traj = core.to_on_off(seq)
    except core.InvalidSequenceError as exc:
        return str(exc.report.violations[0])
    if not core.check_dynamics(traj, seq).passed:
        return "dynamics violations"
    back = core.switch_times(traj)
    if back.receptions != seq.receptions or back.recoveries != seq.recoveries:
        return "trajectory round trip broke"
    return None


def _structural_battery(schedules, inputs, reps: int, seed: int) -> Check:
    """``reps`` seeded logs of every schedule x input x stop rule pass
    ``_structural_failure``; a non-explicit schedule runs on nodes [1, 3]."""
    count = 0
    for si, sched in enumerate(schedules):
        lo = sched.first_index if sched.family == core.EXPLICIT else 1
        hi = lo + len(sched.values) - 1 if sched.family == core.EXPLICIT else lo + 2
        stops = [sim.StopRule.horizon(8.0), sim.StopRule.first_reception_at(lo),
                 sim.StopRule.reception_count(lo, 3)]
        for ii, model in enumerate(inputs):
            cfg = core.SystemConfig(lo, hi, sched, model)
            for ti, stop in enumerate(stops):
                for rep in range(reps):
                    log = sim.simulate(cfg, sim.RandomnessPlan(seed + si, 97 * ii + 13 * ti + rep), stop)
                    failure = _structural_failure(log)
                    if failure is not None:
                        return ("structural validators", False,
                                f"{sched.family}/{model.kind}/{stop.kind}/r{rep}: {failure}")
                    count += 1
    return ("structural validators", True, f"{count} seeded logs validated")


def _determinism() -> Check:
    cfg = core.SystemConfig(1, 4, core.RateSchedule.constant(1.0),
                            core.InputModel.exponential(2.0))
    a = sim.simulate(cfg, sim.RandomnessPlan(99, 5), sim.StopRule.horizon(10.0))
    b = sim.simulate(cfg, sim.RandomnessPlan(99, 5), sim.StopRule.horizon(10.0))
    ok = a.events == b.events
    return ("determinism", ok, "bit-identical logs" if ok else "logs differ")


def _cascade_refuter(max_index: int) -> Check:
    """Every self-blocking cascade candidate up to ``max_index`` is violated,
    for the geometric(1/2) and harmonic thresholds."""
    for seq in (frozen.ThresholdSequence.geometric(0.5),
                frozen.ThresholdSequence.harmonic()):
        report = frozen.exhaustive_search(seq, max_index)
        if report.total != 2 ** (max_index + 1):
            return ("cascade refuter", False,
                    f"{seq.describe()}: {report.total} candidates != 2^{max_index + 1}")
        if not report.all_violated:
            return ("cascade refuter", False,
                    f"{seq.describe()}: consistent candidate found")
    return ("cascade refuter", True,
            f"all 2x{2 ** (max_index + 1)} candidates violated up to index {max_index}")


def _dominance(ladder, reps: int, seed: int) -> Check:
    """Along ``ladder``, each truncation law of the linear(1) chain at node 1
    dominates the one before it."""
    rep = limit.monotonicity_check(1, ladder, core.RateSchedule.linear(1.0),
                                   reps, seed=seed)
    if rep.all_dominate:
        return ("truncation dominance", True,
                f"l={ladder[0]}..{ladder[-1]} dominate within band {rep.band:.4f}")
    return ("truncation dominance", False,
            "; ".join(f"l={a}->{b} inconclusive at x={r.witness}"
                      for a, b, r in rep.failures()))


def _bounds() -> Check:
    sched = core.RateSchedule.linear(1.0)
    b100 = limit.cdf_lower_bound(1, 100.0, sched)
    b10k = limit.cdf_lower_bound(1, 10_000.0, sched)
    if not 0 < b100 < b10k < 1:
        return ("tail bounds", False, f"bound(100)={b100}, bound(10000)={b10k}")
    c = limit.interval_reception_bound(50, (0.0, 1.0), sched)
    if not 0 < c.bound < 1:
        return ("tail bounds", False, f"interval bound {c.bound}")
    return ("tail bounds", True,
            f"cdf bound 100 -> 1e4: {b100:.3f} -> {b10k:.3f}; interval {c.bound:.3f}")


def _theta_table() -> Check:
    cases = {
        core.RateSchedule.constant(1.0): 1,
        core.RateSchedule.log_family(1.0, 0.0): 2,
        core.RateSchedule.log_family(1.0, 2.0): 3,
        core.RateSchedule.linear(1.0): 4,
        core.RateSchedule.log_square(): 4,
    }
    for sched, want in cases.items():
        got = limit.classify_rates(sched).case
        if got != want:
            return ("tail classification", False,
                    f"{sched.family}: case {got}, expected {want}")
    return ("tail classification", True, "five parametric families")


def run_checks(quick: bool = False) -> list[Check]:
    checks = [
        _exact_small_means,
        partial(_permutation_invariance, 3, 8, 20240817),
        partial(_subset_vs_chain, 3, 8, 901),
        partial(_structural_battery,
                [core.RateSchedule.explicit([1.0, 2.0, 0.8])],
                [core.InputModel.permanent(), core.InputModel.exponential(1.5),
                 core.InputModel.deterministic(0.7)], 4, 7),
        _determinism,
        partial(_cascade_refuter, 6),
        _theta_table,
    ]
    if not quick:
        checks += [partial(_mc_mean, 2, 20_000, 4242),
                   partial(_dominance, [2, 3, 4], 20_000, 31), _bounds]
    return [fn() for fn in checks]
