"""Differential oracle: the array-backed sequence validators in ``core``
against the per-element reference versions in ``core_reference``.

Both must return equal reports, trajectories and round-trip sequences, down
to their ``repr`` (so the types of times and node numbers agree too), and
must refuse the same inputs with the same exception and message.  Set (a)
runs seeded ``simulate`` logs; set (b) runs tampered and generated
sequences and trajectories that reach every outcome of the validators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import core_reference as ref
from onoffchain import core, sim


def _view(x):
    """A plain value for what a validator returned or raised."""
    if isinstance(x, BaseException):
        return type(x), str(x)
    if isinstance(x, core.OnOffTrajectory):
        return x.node_lo, x.node_hi, x.window, x.intervals
    if isinstance(x, core.SignalRecoverySequence):
        return x.node_lo, x.node_hi, x.window, x.receptions, x.recoveries
    return x


def _call(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:           # every refusal of the validators
        return exc


def _same(fn_name, *args):
    """Run one validator both ways; return the reference's result."""
    new = _call(getattr(core, fn_name), *args)
    old = _call(getattr(ref, fn_name), *args)
    assert _view(new) == _view(old), fn_name
    assert repr(_view(new)) == repr(_view(old)), fn_name
    return old


def assert_agree(seq, traj=None):
    """Every validator agrees on ``seq``, on its trajectory when it has one,
    and on ``traj`` checked against ``seq`` when one is given."""
    _same("validate_signal_recovery", seq)
    own = _same("to_on_off", seq)
    for t in (own, traj):
        if isinstance(t, core.OnOffTrajectory):
            _same("switch_times", t)
            _same("check_dynamics", t, seq)


# ---------------------------------------------------------------------------
# (a) seeded simulate logs
# ---------------------------------------------------------------------------

_INPUTS = (core.InputModel.permanent(), core.InputModel.exponential(1.4),
           core.InputModel.deterministic(0.7),
           core.InputModel.empirical(np.random.default_rng(7).gamma(2.0, 0.35, size=32)))


def _schedule(family: str, n: int) -> core.RateSchedule:
    if family == "explicit":
        return core.RateSchedule.explicit(np.linspace(0.5, 3.0, n)[::-1])
    return getattr(core.RateSchedule, family)(1.1)


# n = 1..16 meets every (input, schedule) pair, as n mod 4 and n mod 3 do
_LOG_CASES = [(n, _INPUTS[n % 4], ("explicit", "constant", "linear")[n % 3], stop)
              for n in range(1, 17)
              for stop in (sim.StopRule.horizon(40.0), sim.StopRule.reception_count(n, 30))]


@pytest.mark.parametrize("n, model, family, stop", _LOG_CASES,
                         ids=[f"n{c[0]}-{c[1].kind}-{c[2]}-{c[3].kind}" for c in _LOG_CASES])
def test_simulated_logs_agree(n, model, family, stop):
    cfg = core.SystemConfig(1, n, _schedule(family, n), model)
    log = sim.simulate(cfg, sim.RandomnessPlan(1000 + n, 3), stop)
    # restricted below the right end, where a permanent tick is one instant
    logs = [log] + [log.restrict(k) for k in {1, (n + 1) // 2, n - 1} if k >= 1]
    for one in logs:
        if one.permanent and one.right_node == one.left_node:
            continue                    # no observable node left of the input
        seq = core.log_to_sequence(one)
        report = _same("validate_signal_recovery", seq)
        assert report.consistent
        traj = _same("to_on_off", seq)
        assert _same("check_dynamics", traj, seq).passed
        back = _same("switch_times", traj)
        assert back.receptions == seq.receptions and back.recoveries == seq.recoveries


# ---------------------------------------------------------------------------
# (b) tampered sequences and trajectories, one per outcome
# ---------------------------------------------------------------------------

def _seq(window, receptions, recoveries, lo=1, hi=None):
    hi = max(receptions) if hi is None else hi
    return core.SignalRecoverySequence(lo, hi, window,
                                       {k: tuple(v) for k, v in receptions.items()},
                                       {k: tuple(v) for k, v in recoveries.items()})


def _traj(window, intervals):
    return core.OnOffTrajectory(min(intervals), max(intervals), window, intervals)


# (sequence, trajectory for check_dynamics or None, outcome it must show)
_TAMPERED = {
    "non-finite": (_seq(4.0, {1: [0.0, math.nan, 3.0]}, {1: [math.inf, 2.0]}), None,
                   lambda r, d: r.violations[0].axiom == "discreteness"),
    "recovery-not-after": (_seq(4.0, {1: [0.0, 2.0]}, {1: [1.0, 1.5]}), None,
                           lambda r, d: "recovery 2 at 1.5 not after" in r.violations[0].detail),
    "reception-not-after": (_seq(4.0, {1: [0.0, 1.0]}, {1: [2.0]}), None,
                            lambda r, d: "reception 1 at 1.0 not after" in r.violations[0].detail),
    "beyond-window": (_seq(4.0, {1: [0.0, 2.0]}, {1: [1.0, 5.0]}), None,
                      lambda r, d: r.violations[0].detail == "event beyond the declared window"),
    "count": (_seq(4.0, {1: [0.0]}, {1: [1.0, 2.0]}), None,
              lambda r, d: "cannot interleave" in r.violations[0].detail),
    "absent-node": (_seq(4.0, {1: [0.0], 2: [0.0]}, {2: []}),
                    _traj(4.0, {1: (), 2: ()}),
                    lambda r, d: isinstance(d, core.DimensionMismatchError)),
    "containment": (_seq(3.0, {1: [0.0, 1.5, 2.5], 2: [0.0, 2.0, 2.5]},
                         {1: [1.0, 2.0, 2.8], 2: [0.5, 2.2]}), None,
                    lambda r, d: [v.axiom for v in r.violations] == ["containment"]),
    "blocked-gap": (_seq(6.0, {1: [0.0, 4.0], 2: [0.0, 2.0, 4.0], 3: [0.0, 2.0, 4.0]},
                         {1: [1.0, 5.0], 2: [1.5, 3.0], 3: [1.2, 3.5]}), None,
                    lambda r, d: [(v.axiom, v.node) for v in r.violations] == [("blocked-gap", 1)]),
    "boundary-excluded": (_seq(6.0, {1: [0.0, 2.0], 2: [0.0, 2.0, 5.0]},
                               {1: [1.0], 2: [1.0, 3.0]}), None,
                          lambda r, d: r.consistent and r.boundary_excluded[0].time == 5.0),
    "malformed-interval": (_seq(4.0, {1: [0.0, 1.0, 2.0]}, {1: [0.5, 3.0, 1.5]}),
                           _traj(4.0, {1: ((0.5, 1.0), (3.0, 2.0), (1.5, None))}),
                           lambda r, d: d.structural_notes == (
                               "node 1: malformed on-interval [3.0, 2.0)",)),
    "open-interval-early": (_seq(4.0, {1: [0.0, 3.0]}, {1: [0.5, 2.0]}),
                            _traj(4.0, {1: ((0.5, None), (2.0, 3.0))}),
                            lambda r, d: not d.cadlag_ok),
    "persistence": (_seq(4.0, {1: [0.0, 1.0], 2: [0.0], 3: [0.0, 1.0]}, {1: [0.5], 2: [1.5], 3: [0.7]}),
                    _traj(4.0, {1: ((0.5, 1.0),), 2: ((1.5, None),), 3: ((0.7, 1.0),)}),
                    lambda r, d: d.persistence_violations == ((1, 1.0, 2),)),
    "suffix": (_seq(4.0, {1: [0.0, 2.0, 3.0], 2: [0.0, 3.0], 3: [0.0, 1.0, 3.0]},
                    {1: [1.0, 2.5], 2: [0.5], 3: [0.5, 2.0]}),
               _traj(4.0, {1: ((1.0, 2.0), (2.5, 3.0)), 2: ((0.5, 3.0),),
                           3: ((0.5, 1.0), (2.0, 3.0))}),
               lambda r, d: [m for _, m in d.suffix_violations] == [
                   "nodes [1] switched off but node 2 stayed on"]),
    "node-twice": (_seq(4.0, {1: [0.0, 1.0, 1.0], 2: [0.0], 3: [0.0, 1.0]},
                        {1: [0.5, 0.8], 2: [0.2], 3: [0.7]}),
                   _traj(4.0, {1: ((0.5, 1.0), (0.8, 1.0)), 2: ((0.2, None),), 3: ((0.7, 1.0),)}),
                   lambda r, d: d.suffix_violations == (
                       (1.0, "nodes [1, 1, 3] switched off but node 2 stayed on"),)),
    "node-twice-at-end": (_seq(4.0, {1: [0.0], 2: [0.0, 1.0, 1.0], 3: [0.0, 1.0]},
                               {1: [], 2: [0.2, 0.6], 3: [0.7]}),
                          _traj(4.0, {1: (), 2: ((0.2, 1.0), (0.6, 1.0)), 3: ((0.7, 1.0),)}),
                          lambda r, d: d.suffix_violations == (
                              (1.0, "switch-off block [2, 2, 3] lists a node twice"),)),
    "foreign-sequence": (_seq(4.0, {1: [0.0, 1.0]}, {1: [0.5]}), _traj(4.0, {1: ((2.0, None),)}),
                         lambda r, d: str(d) == "node 1: the sequence's recoveries and receptions "
                                               "are not the trajectory's interval starts and "
                                               "numeric interval ends"),
    "foreign-after-window": (_seq(4.0, {1: [0.0, 1.0], 2: [0.0, 4.5]}, {1: [0.7], 2: [0.5]}),
                             _traj(4.0, {1: ((0.5, 1.0),), 2: ((0.5, 4.5),)}),
                             lambda r, d: "node 2: reception at 4.5 outside" in str(d)),
    "nan-window": (_seq(math.nan, {1: [0.0, 1.0]}, {1: [0.5]}),
                   _traj(math.nan, {1: ((0.5, 1.0),)}),
                   lambda r, d: [v.detail for v in r.violations] == [
                       "window must be a positive finite time"]
                   and str(d) == "window must be a positive finite time, got nan"),
    "reception-outside-window": (_seq(4.0, {1: [0.0, 1.0], 2: [0.0, 1.0, 4.5]},
                                      {1: [0.5], 2: [0.5, 2.0]}),
                                 _traj(4.0, {1: ((0.5, 1.0),), 2: ((0.5, 1.0), (2.0, None))}),
                                 lambda r, d: str(d) == "node 2: reception at 4.5 outside the "
                                                       "window (0, 4.0]"),
}


@pytest.mark.parametrize("name", sorted(_TAMPERED))
def test_tampered_inputs_agree(name):
    seq, traj, shows = _TAMPERED[name]
    assert_agree(seq, traj)
    report = _call(ref.validate_signal_recovery, seq)
    dyn = _call(ref.check_dynamics, traj, seq) if traj is not None else None
    assert shows(report, dyn)


def test_empty_range_refused_alike():
    seq = core.SignalRecoverySequence(2, 1, 1.0, {}, {})
    assert isinstance(_same("validate_signal_recovery", seq), core.DegenerateRangeError)
    traj = core.OnOffTrajectory(2, 1, 1.0, {})
    assert _same("check_dynamics", traj, seq).passed
    _same("switch_times", traj)


# ---------------------------------------------------------------------------
# (b) generated sequences and trajectories
# ---------------------------------------------------------------------------

# a coarse grid makes shared instants across nodes, and so every cross-node
# outcome, common; the odd values reach the non-finite and window rules
_GRID = [0.5 * i for i in range(1, 9)]
_ODD = [math.nan, math.inf, -math.inf, -1.0, 0.0, 7.5]


@st.composite
def _lists(draw, n):
    """Per node, an interleaved reception and recovery list, then tampered."""
    receptions, recoveries = {}, {}
    for node in range(n):
        times = sorted(draw(st.sets(st.sampled_from(_GRID), max_size=8)))
        recoveries[node] = times[0::2]
        receptions[node] = [0.0] + times[1::2]
    for _ in range(draw(st.integers(0, 2))):
        lists = draw(st.sampled_from([receptions, recoveries]))
        node = draw(st.integers(0, n - 1))
        values = lists[node]
        value = draw(st.sampled_from(_GRID + _ODD))
        where = draw(st.integers(0, len(values)))
        op = draw(st.sampled_from(["insert", "replace", "drop", "repeat"]))
        if op == "insert" or not values:
            values.insert(where, value)
        elif op == "replace":
            values[min(where, len(values) - 1)] = value
        elif op == "drop":
            del values[min(where, len(values) - 1)]
        else:
            values.insert(where, values[min(where, len(values) - 1)])
    return receptions, recoveries


@st.composite
def _cases(draw):
    lo = draw(st.integers(0, 2))
    n = draw(st.integers(1, 4))
    window = draw(st.sampled_from([3.5, 4.0, 6.0]))
    receptions, recoveries = draw(_lists(n))
    if draw(st.integers(0, 9)) == 0:    # a node without one of its lists
        del draw(st.sampled_from([receptions, recoveries]))[draw(st.integers(0, n - 1))]
    seq = core.SignalRecoverySequence(
        lo, lo + n - 1, window, {lo + k: tuple(v) for k, v in receptions.items()},
        {lo + k: tuple(v) for k, v in recoveries.items()})
    # the trajectory for check_dynamics pairs each recovery with the next
    # reception, a recovery left over opening a still-on interval; it reads
    # the sequence's own lists, or in one case of five lists of its own
    if draw(st.integers(0, 4)) == 0:
        receptions, recoveries = draw(_lists(n))
    intervals = {}
    for k in range(n):
        starts = recoveries.get(k, [])
        pairs = list(zip(starts, receptions.get(k, [])[1:]))
        intervals[lo + k] = tuple(pairs) + tuple((r, None) for r in starts[len(pairs):])
    return seq, core.OnOffTrajectory(lo, lo + n - 1, window, intervals)


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_generated_inputs_agree(case):
    assert_agree(*case)
