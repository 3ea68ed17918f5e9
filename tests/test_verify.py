import dataclasses
import random
from fractions import Fraction

import pytest

from onoffchain import analytic, core, frozen, limit, sim, verify


def _log():
    cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 0.8]),
                            core.InputModel.exponential(1.5))
    return sim.simulate(cfg, sim.RandomnessPlan(3, 0), sim.StopRule.horizon(8.0))


def _tamper(log):
    """Repeat the first recovery: an event-log invariant breaks."""
    first_rec = next(i for i, e in enumerate(log.events) if e[0] == core.RECOVERY)
    log.events.insert(first_rec, log.events[first_rec])
    return log


def test_structural_failure_passes_simulated_log():
    assert verify._structural_failure(_log()) is None


def test_structural_failure_names_tampered_log():
    failure = verify._structural_failure(_tamper(_log()))
    assert failure is not None and failure.startswith("log invariant: ")


def test_structural_failure_validates_each_sequence_once(monkeypatch):
    calls = []
    bad = core.Violation("interleaving", 2, 1.5, "planted")

    def planted(seq):
        calls.append(seq)
        return core.ValidationReport((bad,))

    monkeypatch.setattr(core, "validate_signal_recovery", planted)
    assert verify._structural_failure(_log()) == str(bad)
    assert len(calls) == 1


# Each shared check passes at tiny sizes, and fails once the code it checks
# is broken by a monkeypatch.

_SHARED = {
    "exact-means": lambda: verify._exact_small_means(),
    "mc-mean": lambda: verify._mc_mean(2, 2000, 1),
    "permutation": lambda: verify._permutation_invariance(3, 4, 5),
    "subset": lambda: verify._subset_vs_chain(3, 4, 6),
    "dominance": lambda: verify._dominance([2, 3], 2000, 7),
    "cascade": lambda: verify._cascade_refuter(3),
    "structural": lambda: verify._structural_battery(
        [core.RateSchedule.explicit([1.0, 2.0]), core.RateSchedule.linear(1.0)],
        [core.InputModel.permanent(), core.InputModel.exponential(1.5)], 1, 9),
    "bounds": lambda: verify._bounds(),
    "theta": lambda: verify._theta_table(),
    "determinism": lambda: verify._determinism(),
}


def _wrap(module, name, change):
    entry = getattr(module, name)
    return lambda *args, **kwargs: change(entry(*args, **kwargs), *args)


_BREAKS = {
    # the rational value of n = 3 is off
    "exact-means": (analytic, "exact_mean_small_fraction",
                    lambda got, n: got + Fraction(1, 10 ** 9) * (n == 3)),
    # every sampled first reception comes one time unit late
    "mc-mean": (sim, "sample_first_reception",
                lambda got, *args: sim.EmpiricalDistribution.from_values(got.samples + 1.0)),
    # the transform depends on the order of the rates, by less than 1e-12
    "permutation": (analytic, "chain_transform",
                    lambda got, model, rates: lambda s: got(s) + 1e-14 * sum(
                        i * r for i, r in enumerate(rates))),
    # the expansion is off by 1e-6
    "subset": (analytic, "subset_expansion", lambda got, *args: got + 1e-6),
    # the longer truncation comes out a time unit earlier than the shorter
    "dominance": (limit, "sample_truncation_law",
                  lambda got, k, l, *args: sim.EmpiricalDistribution.from_values(
                      got.samples + (3 - l))),
    # the search reports one consistent candidate
    "cascade": (frozen, "exhaustive_search",
                lambda got, *args: dataclasses.replace(got, consistent=(
                    frozen.BlockedCandidate(frozenset(), 1, False),))),
    # every simulated log repeats a recovery
    "structural": (sim, "simulate", lambda got, *args: _tamper(got)),
    # the CDF lower bound falls as t grows
    "bounds": (limit, "cdf_lower_bound", lambda got, *args: 1.0 - got),
    # every family is classified one case too high
    "theta": (limit, "classify_rates",
              lambda got, *args: dataclasses.replace(got, case=got.case + 1)),
    # every simulated log ends with an input at a fresh random time
    "determinism": (sim, "simulate", lambda got, *args: dataclasses.replace(
        got, events=got.events + [(core.INPUT, got.horizon + random.random(), None, None)])),
}


@pytest.mark.parametrize("name", list(_SHARED))
def test_shared_check_passes(name):
    _, passed, detail = _SHARED[name]()
    assert passed, detail


@pytest.mark.parametrize("name", list(_SHARED))
def test_shared_check_can_fail(monkeypatch, name):
    module, attr, change = _BREAKS[name]
    monkeypatch.setattr(module, attr, _wrap(module, attr, change))
    _, passed, detail = _SHARED[name]()
    assert not passed, detail


def test_high_precision_mean_tolerance(monkeypatch):
    # a float mean 1e-12 off the rational value fails the 1e-13 tolerance
    monkeypatch.setattr(analytic, "exact_mean_equal_rates",
                        lambda n: float(analytic.exact_mean_small_fraction(n)) + 1e-12)
    _, passed, detail = verify._exact_small_means()
    assert not passed and "high-precision" in detail


def test_cascade_refuter_counts_candidates(monkeypatch):
    monkeypatch.setattr(frozen, "exhaustive_search", _wrap(
        frozen, "exhaustive_search", lambda got, *args: dataclasses.replace(got, total=got.total - 1)))
    _, passed, detail = verify._cascade_refuter(3)
    assert not passed and "candidates != 2^4" in detail
