"""Self-check battery behind the ``verify`` CLI command.

Each check returns (name, passed, detail).  The quick tier covers exact
values, permutation invariance, the subset/chain agreement, the structural
validators, and the cascade refuter; the full tier adds Monte Carlo
consistency, dominance, and bound checks at reduced replication counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import analytic, core, frozen, limit, sim

Check = tuple[str, bool, str]


def _exact_small_means() -> Check:
    want = {1: Fraction(1), 2: Fraction(2), 3: Fraction(8, 3)}
    for n, expect in want.items():
        frac = analytic.exact_mean_small_fraction(n)
        if frac != expect:
            return ("exact small means", False, f"n={n}: {frac} != {expect}")
        hp = analytic.exact_mean_equal_rates(n)
        if abs(float(hp) - float(expect)) > 1e-12:
            return ("exact small means", False, f"n={n}: high-precision value off")
    return ("exact small means", True, "n=1,2,3 -> 1, 2, 8/3")


def _permutation_invariance() -> Check:
    import numpy as np
    lengths, tol = (3, 5, 8), 1e-12
    rng = np.random.default_rng(20240817)
    for ln in lengths:
        rates = rng.uniform(0.3, 4.0, size=ln)
        perm = rng.permutation(rates)
        base = analytic.chain_transform(core.InputModel.exponential(1.0), rates)
        other = analytic.chain_transform(core.InputModel.exponential(1.0), perm)
        for s in (0.1, 1.0, 10.0):
            if abs(base(s) - other(s)) > tol:
                return ("permutation invariance", False,
                        f"len={ln}, s={s}: {base(s)} vs {other(s)}")
    return ("permutation invariance", True, f"lengths {lengths} at s=0.1,1,10")


def _subset_vs_chain() -> Check:
    import numpy as np
    lengths, tol = (2, 5, 8), 1e-10
    rng = np.random.default_rng(901)
    model = core.InputModel.exponential(2.0)
    phi = analytic.transform_of_input(model)
    for ln in lengths:
        rates = rng.uniform(0.5, 3.0, size=ln)
        chain = analytic.chain_transform(model, rates)
        for s in (0.5, 2.0):
            a = analytic.subset_expansion(phi, rates, s)
            b = chain(s)
            if abs(a - b) > tol:
                return ("subset expansion equals chain", False,
                        f"len={ln}, s={s}: {a} vs {b}")
    return ("subset expansion equals chain", True, f"lengths {lengths}")


def _structural_failure(log: core.EventLog) -> str | None:
    """Run one log through every structural validator; the first failure.

    The chain: event-log invariants, the signal/recovery axioms of its
    sequence, the on-off dynamics of its trajectory, and the trajectory's
    switch times round trip.  Returns None when the log passes them all.
    """
    try:
        core.validate_event_log(log)
    except core.EventLogError as exc:
        return f"log invariant: {exc}"
    seq = core.log_to_sequence(log)
    report = core.validate_signal_recovery(seq)
    if not report.consistent:
        return str(report.violations[0])
    traj = core.to_on_off(seq)
    if not core.check_dynamics(traj, seq).passed:
        return "dynamics violations"
    back = core.switch_times(traj)
    if back.receptions != seq.receptions or back.recoveries != seq.recoveries:
        return "trajectory round trip broke"
    return None


def _validator_battery() -> Check:
    inputs = [core.InputModel.permanent(), core.InputModel.exponential(1.5),
              core.InputModel.deterministic(0.7)]
    stops = [sim.StopRule.horizon(6.0), sim.StopRule.first_reception_at(1),
             sim.StopRule.reception_count(1, 3)]
    count = 0
    for i, model in enumerate(inputs):
        for j, stop in enumerate(stops):
            for r in range(4):
                cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 0.8]), model)
                log = sim.simulate(cfg, sim.RandomnessPlan(7 + i, 11 * j + r), stop)
                failure = _structural_failure(log)
                if failure is not None:
                    return ("structural validators", False,
                            f"{model.kind}/{stop.kind}: {failure}")
                count += 1
    return ("structural validators", True, f"{count} seeded logs validated")


def _determinism() -> Check:
    cfg = core.SystemConfig(1, 4, core.RateSchedule.constant(1.0),
                            core.InputModel.exponential(2.0))
    a = sim.simulate(cfg, sim.RandomnessPlan(99, 5), sim.StopRule.horizon(10.0))
    b = sim.simulate(cfg, sim.RandomnessPlan(99, 5), sim.StopRule.horizon(10.0))
    ok = a.events == b.events
    return ("determinism", ok, "bit-identical logs" if ok else "logs differ")


def _cascade_refuter() -> Check:
    max_index = 6
    for seq in (frozen.ThresholdSequence.geometric(0.5),
                frozen.ThresholdSequence.harmonic()):
        report = frozen.exhaustive_search(seq, max_index)
        if not report.all_violated:
            return ("cascade refuter", False,
                    f"{seq.describe()}: consistent candidate found")
    return ("cascade refuter", True,
            f"all candidates violated up to index {max_index}")


def _mc_mean() -> Check:
    cfg = core.SystemConfig(1, 2, core.RateSchedule.constant(1.0),
                            core.InputModel.permanent())
    dist = sim.sample_first_reception(cfg, 1, 20000, seed=4242)
    err = abs(dist.mean() - 2.0)
    lim3 = 3 * dist.stderr()
    return ("monte carlo mean (2 nodes)", err <= lim3,
            f"mean={dist.mean():.4f}, |err|={err:.4f} vs 3se={lim3:.4f}")


def _dominance() -> Check:
    rep = limit.monotonicity_check(1, [2, 3, 4], core.RateSchedule.linear(1.0),
                                   20000, seed=31)
    return ("truncation dominance", rep.all_dominate,
            "all ladder steps dominate" if rep.all_dominate else str(rep.failures()))


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
        _permutation_invariance,
        _subset_vs_chain,
        _validator_battery,
        _determinism,
        _cascade_refuter,
        _theta_table,
    ]
    if not quick:
        checks += [_mc_mean, _dominance, _bounds]
    return [fn() for fn in checks]
