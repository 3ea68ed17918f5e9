import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onoffchain import core, sim


def make_seq(window, receptions, recoveries):
    nodes = sorted(receptions)
    return core.SignalRecoverySequence(
        node_lo=nodes[0], node_hi=nodes[-1], window=window,
        receptions={k: tuple(v) for k, v in receptions.items()},
        recoveries={k: tuple(v) for k, v in recoveries.items()})


class TestRateSchedule:
    def test_explicit_evaluates_by_node_index(self):
        sched = core.RateSchedule.explicit([1.0, 2.0, 3.0])
        assert [sched.rate(k) for k in (1, 2, 3)] == [1.0, 2.0, 3.0]
        with pytest.raises(core.ScheduleError):
            sched.rate(4)

    def test_explicit_with_offset_base(self):
        sched = core.RateSchedule.explicit([0.5, 1.0], first_index=0)
        assert sched.rate(0) == 0.5

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(core.ScheduleError):
            core.RateSchedule.explicit([1.0, -2.0])
        with pytest.raises(core.ScheduleError):
            core.RateSchedule.linear(0.0)

    def test_parametric_families(self):
        assert core.RateSchedule.constant(2.0).rate(17) == 2.0
        assert core.RateSchedule.linear(1.5).rate(4) == 6.0
        assert core.RateSchedule.log_square().rate(2) == pytest.approx(math.log(3) ** 2)
        fam = core.RateSchedule.log_family(2.0, 1.0)
        assert fam.rate(10) == pytest.approx(math.log(10) / 2 + math.log(math.log(10)))

    def test_log_family_positive_at_small_indices(self):
        fam = core.RateSchedule.log_family(1.0, 0.5)
        for k in (1, 2, 3):
            assert fam.rate(k) > 0

    def test_parametric_rejects_index_zero(self):
        for sched in (core.RateSchedule.linear(1.0), core.RateSchedule.constant(1.0),
                      core.RateSchedule.log_family(1.0, 0.5), core.RateSchedule.log_square()):
            with pytest.raises(core.ScheduleError):
                sched.rate(0)


class TestInputModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            core.InputModel.exponential(0.0)
        with pytest.raises(ValueError):
            core.InputModel.deterministic(-1.0)
        with pytest.raises(ValueError):
            core.InputModel.empirical([1.0, 0.0])
        with pytest.raises(ValueError):
            core.InputModel.empirical([])

    def test_quantile_maps(self):
        u = np.array([0.0, 0.5, 0.999])
        exp = core.InputModel.exponential(2.0).quantile(u)
        assert exp[0] == 0.0 and exp[1] == pytest.approx(math.log(2) / 2)
        det = core.InputModel.deterministic(3.0).quantile(u)
        assert np.all(det == 3.0)
        emp = core.InputModel.empirical([1.0, 2.0, 4.0]).quantile(u)
        assert list(emp) == [1.0, 2.0, 4.0]
        with pytest.raises(ValueError):
            core.InputModel.permanent().quantile(u)


class TestSystemConfig:
    def test_empty_chain_allowed_without_permanent_input(self):
        cfg = core.SystemConfig(1, 0, core.RateSchedule.constant(1.0),
                                core.InputModel.exponential(1.0))
        assert cfg.is_empty and cfg.n_nodes == 0
        with pytest.raises(ValueError):
            core.SystemConfig(1, 0, core.RateSchedule.constant(1.0),
                              core.InputModel.permanent())

    def test_schedule_must_cover_range(self):
        with pytest.raises(core.ScheduleError):
            core.SystemConfig(1, 4, core.RateSchedule.explicit([1.0, 2.0]),
                              core.InputModel.permanent())


class TestSequenceAxioms:
    def test_consistent_two_node_example(self):
        seq = make_seq(6.0,
                       {1: [0.0, 2.0], 2: [0.0, 2.0, 4.0]},
                       {1: [1.0, 5.0], 2: [1.0, 3.0]})
        report = core.validate_signal_recovery(seq)
        assert report.consistent

    def test_containment_failure(self):
        seq = make_seq(3.0,
                       {1: [0.0, 1.5], 2: [0.0, 2.0]},
                       {1: [1.0], 2: [0.5]})
        report = core.validate_signal_recovery(seq)
        assert not report.consistent
        v = report.violations[0]
        assert v.axiom == "containment" and v.node == 1 and v.time == 1.5

    def test_blocked_gap_violation_when_node_was_on(self):
        # node 1 is on over [1, 4) but misses the reception at 2
        seq = make_seq(6.0,
                       {1: [0.0, 4.0], 2: [0.0, 2.0, 4.0]},
                       {1: [1.0], 2: [1.5, 3.0]})
        report = core.validate_signal_recovery(seq)
        assert any(v.axiom == "blocked-gap" and v.time == 2.0
                   for v in report.violations)

    def test_boundary_gap_is_excluded_not_violated(self):
        # node 1's final off gap is still open at the window end
        seq = make_seq(6.0,
                       {1: [0.0, 2.0], 2: [0.0, 2.0, 5.0]},
                       {1: [1.0], 2: [1.0, 3.0]})
        report = core.validate_signal_recovery(seq)
        assert report.consistent
        assert any(v.time == 5.0 for v in report.boundary_excluded)

    def test_interleaving_violation(self):
        seq = make_seq(4.0, {1: [0.0, 1.0]}, {1: [2.0]})
        report = core.validate_signal_recovery(seq)
        assert any(v.axiom == "interleaving" for v in report.violations)

    def test_empty_range_raises(self):
        seq = core.SignalRecoverySequence(2, 1, 1.0, {}, {})
        with pytest.raises(core.DegenerateRangeError):
            core.validate_signal_recovery(seq)

    @pytest.mark.parametrize("window, receptions, recoveries, axiom, detail", [
        (4.0, {1: [0.5, 1.0]}, {1: [0.7]}, "interleaving", "start at the conventional 0"),
        (4.0, {1: [0.0, math.nan]}, {1: [1.0]}, "discreteness", "non-finite time"),
        (4.0, {1: [0.0]}, {1: [1.0, 2.0]}, "interleaving",
         "2 recoveries cannot interleave 0 receptions"),
        (4.0, {1: [0.0, 2.0]}, {1: [0.0]}, "interleaving",
         "recovery 1 at 0.0 not after reception at 0.0"),
        (4.0, {1: [0.0, 2.0]}, {1: [1.0, 5.0]}, "discreteness",
         "event beyond the declared window"),
        # node 1 is on over [1, 4) and recovers again at 5, yet misses t = 2
        (6.0, {1: [0.0, 4.0], 2: [0.0, 2.0, 4.0]}, {1: [1.0, 5.0], 2: [1.5, 3.0]},
         "blocked-gap", "reception at 2.0 skipped node 1 while it was on"),
        (4.0, {1: [0.0], 2: [0.0]}, {2: []}, "interleaving",
         "node lacks a reception or a recovery list"),
    ], ids=["first-reception", "non-finite", "recovery-count", "recovery-not-after",
            "beyond-window", "blocked-gap-recovers-later", "absent-node"])
    def test_first_violation(self, window, receptions, recoveries, axiom, detail):
        seq = core.SignalRecoverySequence(
            1, max(receptions), window, {k: tuple(v) for k, v in receptions.items()},
            {k: tuple(v) for k, v in recoveries.items()})
        v = core.validate_signal_recovery(seq).violations[0]
        assert v.axiom == axiom and v.node == 1 and detail in v.detail


@pytest.mark.parametrize("absent", ["receptions", "recoveries"])
def test_absent_node_refused(absent):
    full = make_seq(4.0, {1: [0.0, 2.0], 2: [0.0, 2.0]}, {1: [1.0], 2: [0.5]})
    lists = {"receptions": dict(full.receptions), "recoveries": dict(full.recoveries)}
    del lists[absent][1]
    seq = core.SignalRecoverySequence(1, 2, 4.0, **lists)
    with pytest.raises(core.InvalidSequenceError, match="node 1.*lacks a reception or a recovery"):
        core.to_on_off(seq)
    with pytest.raises(core.DimensionMismatchError, match="node 1 is absent"):
        core.check_dynamics(core.to_on_off(full), seq)


class TestOnOff:
    def test_definition_example(self):
        seq = make_seq(3.0, {1: [0.0, 2.0]}, {1: [1.0]})
        traj = core.to_on_off(seq)
        assert traj.intervals[1] == ((1.0, 2.0),)
        assert [traj.state(1, t) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)] == [0, 0, 1, 1, 0, 0]
        assert traj.state_before(1, 1.0) == 0
        assert traj.state_before(1, 2.0) == 1

    def test_no_recovery_means_all_off(self):
        seq = make_seq(3.0, {1: [0.0]}, {1: []})
        traj = core.to_on_off(seq)
        assert traj.intervals[1] == ()
        assert traj.state(1, 2.9) == 0

    def test_invalid_sequence_raises(self):
        seq = make_seq(4.0, {1: [0.0, 1.0]}, {1: [2.0]})
        with pytest.raises(core.InvalidSequenceError):
            core.to_on_off(seq)

    def test_still_on_at_window_end_round_trips(self):
        seq = make_seq(5.0, {1: [0.0]}, {1: [1.0]})
        traj = core.to_on_off(seq)
        assert traj.intervals[1] == ((1.0, None),)
        assert traj.state(1, 4.9) == 1
        back = core.switch_times(traj)
        assert back.receptions == seq.receptions
        assert back.recoveries == seq.recoveries

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_identity_on_simulated_sequences(self, seed):
        cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 0.7, 2.0]),
                                core.InputModel.exponential(1.3))
        log = sim.simulate(cfg, sim.RandomnessPlan(seed, 0), sim.StopRule.horizon(8.0))
        seq = core.log_to_sequence(log)
        traj = core.to_on_off(seq)
        back = core.switch_times(traj)
        assert back.receptions == seq.receptions
        assert back.recoveries == seq.recoveries


class TestDynamics:
    def test_simulated_trajectory_passes(self):
        cfg = core.SystemConfig(1, 4, core.RateSchedule.constant(1.0),
                                core.InputModel.permanent())
        log = sim.simulate(cfg, sim.RandomnessPlan(3, 0), sim.StopRule.horizon(10.0))
        seq = core.log_to_sequence(log)
        traj = core.to_on_off(seq)
        report = core.check_dynamics(traj, seq)
        assert report.passed
        assert sum(c for _, _, c in report.reception_bins) == \
            sum(len(seq.receptions[n]) - 1 for n in seq.nodes())

    def test_persistence_violation_detected(self):
        # node 2 switches off at t=2 while node 3 is off just before
        seq = make_seq(4.0,
                       {1: [0.0], 2: [0.0, 2.0], 3: [0.0]},
                       {1: [], 2: [1.0], 3: [2.5]})
        traj = core.OnOffTrajectory(1, 3, 4.0, {
            1: (), 2: ((1.0, 2.0),), 3: ((2.5, None),)})
        report = core.check_dynamics(traj, seq)
        assert not report.passed
        assert (2, 2.0, 3) in report.persistence_violations

    def test_suffix_violation_detected(self):
        # node 3 is on just before t=2 yet fails to switch with node 2
        seq = make_seq(4.0,
                       {1: [0.0], 2: [0.0, 2.0], 3: [0.0]},
                       {1: [], 2: [1.0], 3: [0.5]})
        traj = core.OnOffTrajectory(1, 3, 4.0, {
            1: (), 2: ((1.0, 2.0),), 3: ((0.5, None),)})
        report = core.check_dynamics(traj, seq)
        assert not report.passed
        assert report.suffix_violations

    def test_all_zero_trajectory_vacuously_passes(self):
        seq = make_seq(4.0, {1: [0.0], 2: [0.0]}, {1: [], 2: []})
        traj = core.to_on_off(seq)
        report = core.check_dynamics(traj, seq)
        assert report.passed
        assert report.min_reception_gap is None

    def test_dimension_mismatch(self):
        seq = make_seq(4.0, {1: [0.0]}, {1: []})
        traj = core.OnOffTrajectory(1, 2, 4.0, {1: (), 2: ()})
        with pytest.raises(core.DimensionMismatchError):
            core.check_dynamics(traj, seq)

    def test_window_mismatch(self):
        seq = make_seq(4.0, {1: [0.0]}, {1: []})
        traj = core.OnOffTrajectory(1, 1, 5.0, {1: ()})
        with pytest.raises(core.DimensionMismatchError, match="windows differ"):
            core.check_dynamics(traj, seq)

    @pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_bad_window_refused(self, window):
        # a NaN window used to pass the validator and then read as "windows differ"
        seq = make_seq(window, {1: [0.0, 1.0]}, {1: [0.5]})
        report = core.validate_signal_recovery(seq)
        assert [(v.axiom, v.detail) for v in report.violations] == [
            ("discreteness", "window must be a positive finite time")]
        with pytest.raises(core.InvalidSequenceError, match="positive finite time"):
            core.to_on_off(seq)
        traj = core.OnOffTrajectory(1, 1, window, {1: ((0.5, 1.0),)})
        with pytest.raises(core.DimensionMismatchError,
                           match=f"window must be a positive finite time, got {window}"):
            core.check_dynamics(traj, seq)

    def test_malformed_interval_noted(self):
        seq = make_seq(4.0, {1: [0.0, 1.0]}, {1: [2.0]})
        traj = core.OnOffTrajectory(1, 1, 4.0, {1: ((2.0, 1.0),)})
        report = core.check_dynamics(traj, seq)
        assert not report.cadlag_ok and not report.passed
        assert report.structural_notes == ("node 1: malformed on-interval [2.0, 1.0)",)

    @pytest.mark.parametrize("intervals, persistence, suffix, notes", [
        # nodes 1 and 3 switch off at t = 1 around node 2, off just before
        ({1: ((0.5, 1.0),), 2: ((1.5, None),), 3: ((0.7, 1.0),)}, ((1, 1.0, 2),), (), ()),
        # ... and around node 2, on just before
        ({1: ((0.5, 1.0),), 2: ((0.2, None),), 3: ((0.7, 1.0),)}, (),
         ((1.0, "nodes [1, 3] switched off but node 2 stayed on"),), ()),
        # node 1 listed twice hides node 2, on just before, from a count
        ({1: ((0.5, 1.0), (0.8, 1.0)), 2: ((0.2, None),), 3: ((0.7, 1.0),)}, (),
         ((1.0, "nodes [1, 1, 3] switched off but node 2 stayed on"),),
         ("node 1: malformed on-interval [0.8, 1.0)",)),
        # a block that reaches the right end but lists node 2 twice
        ({1: (), 2: ((0.2, 1.0), (0.6, 1.0)), 3: ((0.7, 1.0),)}, (),
         ((1.0, "switch-off block [2, 2, 3] lists a node twice"),),
         ("node 2: malformed on-interval [0.6, 1.0)",)),
    ], ids=["gap-off", "gap-on", "repeated-node", "repeated-node-at-end"])
    def test_switch_off_block_rule(self, intervals, persistence, suffix, notes):
        # the sequence is the trajectory's own; a node listed twice at one
        # instant needs two intervals ending there, which is malformed
        traj = core.OnOffTrajectory(1, 3, 4.0, intervals)
        report = core.check_dynamics(traj, core.switch_times(traj))
        assert report.persistence_violations == persistence
        assert report.suffix_violations == suffix
        assert report.structural_notes == notes
        assert not report.passed

    @pytest.mark.parametrize("receptions, recoveries, intervals", [
        # on from 2.0 at the window end, against a switch-on at 0.5 and off at 1.0
        ({1: (0.0, 1.0)}, {1: (0.5,)}, {1: ((2.0, None),)}),
        # the recoveries agree, the switch-off does not
        ({1: (0.0, 1.5)}, {1: (0.5,)}, {1: ((0.5, 1.0),)}),
        # one switch-off too many, on the second node
        ({1: (0.0,), 2: (0.0, 1.0, 2.0)}, {1: (), 2: (0.5, 1.5)},
         {1: (), 2: ((0.5, 1.0), (1.5, None))}),
    ], ids=["recoveries", "receptions", "extra-reception"])
    def test_foreign_sequence_refused(self, receptions, recoveries, intervals):
        seq = core.SignalRecoverySequence(1, len(receptions), 4.0, receptions, recoveries)
        traj = core.OnOffTrajectory(1, len(receptions), 4.0, intervals)
        node = len(receptions)
        with pytest.raises(core.DimensionMismatchError,
                           match=rf"node {node}: the sequence's recoveries and receptions "
                                 rf"are not the trajectory's"):
            core.check_dynamics(traj, seq)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 5.0],
                             ids=["nan", "inf", "negative", "beyond-window"])
    def test_reception_outside_window_refused(self, t):
        seq = make_seq(4.0, {1: [0.0, 1.0], 2: [0.0, 1.0, t]}, {1: [0.5], 2: [0.5, 2.0]})
        traj = core.OnOffTrajectory(1, 2, 4.0, {1: ((0.5, 1.0),), 2: ((0.5, 1.0), (2.0, None))})
        with pytest.raises(core.DimensionMismatchError,
                           match=rf"node 2: reception at {t} outside the window \(0, 4.0\]"):
            core.check_dynamics(traj, seq)


def _python_scalars(values, types):
    return all(type(v) is t for v, t in zip(values, types, strict=True))


def test_report_fields_are_python_scalars():
    cfg = core.SystemConfig(1, 4, core.RateSchedule.constant(1.0),
                            core.InputModel.exponential(1.3))
    seq = core.log_to_sequence(sim.simulate(cfg, sim.RandomnessPlan(36, 0),
                                            sim.StopRule.horizon(30.0)))
    report = core.validate_signal_recovery(seq)
    traj = core.to_on_off(seq)
    dyn = core.check_dynamics(traj, seq)
    assert report.boundary_excluded and dyn.passed
    assert all(type(v.time) is float for v in report.boundary_excluded)
    assert all(_python_scalars(row, (float, float, int)) for row in dyn.reception_bins)
    assert type(dyn.min_reception_gap) is float
    assert all(_python_scalars(pair, (float, float)) for node in traj.nodes()
               for pair in traj.intervals[node][:-1])
    back = core.switch_times(traj)
    assert back.receptions == seq.receptions and back.recoveries == seq.recoveries
    assert all(type(t) is float for node in back.nodes()
               for t in back.receptions[node] + back.recoveries[node])

    broken = [  # discreteness, interleaving, containment and blocked-gap times
        make_seq(4.0, {1: [0.0, math.nan]}, {1: [1.0]}),
        make_seq(4.0, {1: [0.0, 1.0]}, {1: [2.0]}),
        make_seq(3.0, {1: [0.0, 1.5], 2: [0.0, 2.0]}, {1: [1.0], 2: [0.5]}),
        make_seq(6.0, {1: [0.0, 4.0], 2: [0.0, 2.0, 4.0]}, {1: [1.0], 2: [1.5, 3.0]}),
    ]
    for bad in broken:
        assert all(type(v.time) is float for v in core.validate_signal_recovery(bad).violations)

    traj = core.OnOffTrajectory(1, 3, 4.0, {1: ((0.5, 1.0), (0.8, 1.0)), 2: ((1.2, 1.5),),
                                            3: ((0.7, 1.0), (1.1, 1.5))})
    dyn = core.check_dynamics(traj, core.switch_times(traj))
    assert dyn.persistence_violations == ((1, 1.0, 2),)
    assert _python_scalars(dyn.persistence_violations[0], (int, float, int))
    traj = core.OnOffTrajectory(1, 3, 4.0, {1: ((0.5, 1.0), (0.8, 1.0)), 2: ((0.2, None),),
                                            3: ((0.7, 1.0),)})
    ((t, message),) = core.check_dynamics(traj, core.switch_times(traj)).suffix_violations
    assert type(t) is float and message == "nodes [1, 1, 3] switched off but node 2 stayed on"


class TestEventLog:
    def test_csv_lines(self):
        log = core.EventLog(1, 2, 5.0, False, [
            (core.RECOVERY, 0.5, 2, 2),
            (core.INPUT, 1.25, None, None),
            (core.RECEPTION, 1.25, 2, 2),
        ])
        lines = list(log.csv_lines())
        assert lines == ["recovery,0.5,2,2", "input,1.25,,", "reception,1.25,2,2"]

    def test_permanent_right_node_is_dropped_from_sequences(self):
        cfg = core.SystemConfig(1, 2, core.RateSchedule.constant(1.0),
                                core.InputModel.permanent())
        log = sim.simulate(cfg, sim.RandomnessPlan(11, 0), sim.StopRule.horizon(6.0))
        seq = core.log_to_sequence(log)
        assert seq.node_hi == 1
        assert core.validate_signal_recovery(seq).consistent

    def test_restrict_clips_blocks_and_drops_inputs(self):
        cfg = core.SystemConfig(1, 4, core.RateSchedule.constant(1.0),
                                core.InputModel.exponential(1.0))
        log = sim.simulate(cfg, sim.RandomnessPlan(5, 0), sim.StopRule.horizon(12.0))
        sub = log.restrict(2)
        assert sub.right_node == 2 and sub.restricted
        assert not sub.input_times()
        assert all(e[3] <= 2 for e in sub.events if e[0] == core.RECEPTION)
        assert sub.receptions_at(1) == log.receptions_at(1)
        seq = core.log_to_sequence(sub)
        assert core.validate_signal_recovery(seq).consistent

    def test_replay_validator_catches_tampering(self):
        cfg = core.SystemConfig(1, 2, core.RateSchedule.constant(1.0),
                                core.InputModel.exponential(1.0))
        log = sim.simulate(cfg, sim.RandomnessPlan(1, 0), sim.StopRule.horizon(8.0))
        core.validate_event_log(log)
        first_rec = next(i for i, e in enumerate(log.events) if e[0] == core.RECOVERY)
        log.events.insert(first_rec, log.events[first_rec])
        with pytest.raises(AssertionError):
            core.validate_event_log(log)


_REC, _IN, _RX = core.RECOVERY, core.INPUT, core.RECEPTION
# both nodes of 1..2 recover, then one input is received by the whole chain
_VALID_EVENTS = [(_REC, 0.5, 2, 2), (_REC, 0.6, 1, 1), (_IN, 1.0, None, None), (_RX, 1.0, 1, 2)]


@pytest.mark.parametrize("events, restricted, horizon, message", [
    ([(_REC, 0.5, 2, 2), (_REC, 0.4, 1, 1)], False, 2.0, "event times decrease"),
    ([(_REC, 0.5, 3, 3)], False, 2.0, "recovery outside range"),
    (_VALID_EVENTS[:3] + [(_RX, 1.0, 0, 2)], False, 2.0, "reception block outside range"),
    ([(_REC, 0.5, 2, 2), (_REC, 0.7, 2, 2)], False, 2.0, "recovery of a node already on"),
    ([(_REC, 0.5, 2, 2), (_IN, 1.0, None, None), (_REC, 1.0, 1, 1)], False, 2.0,
     "recovery inside an input tick"),
    ([(_REC, 0.5, 2, 2), (_IN, 1.0, None, None)], True, 2.0,
     "restricted logs carry no input events"),
    ([(_REC, 0.5, 2, 2), (_RX, 1.0, 2, 2)], False, 2.0, "reception without a same-instant input"),
    (_VALID_EVENTS[:3] + [(_RX, 1.0, 1, 1)], False, 2.0, "must reach the right end"),
    ([(_REC, 0.6, 1, 1), (_IN, 1.0, None, None), (_RX, 1.0, 2, 2)], False, 2.0,
     "reception at an off node"),
    (_VALID_EVENTS[:3] + [(_RX, 1.0, 2, 2)], False, 2.0, "block not maximal"),
    (_VALID_EVENTS, False, 0.9, "event beyond horizon"),
], ids=["times-decrease", "recovery-range", "block-range", "recovery-on", "recovery-in-tick",
        "restricted-input", "reception-no-input", "block-short", "reception-off",
        "block-not-maximal", "beyond-horizon"])
def test_event_log_breach(events, restricted, horizon, message):
    core.validate_event_log(core.EventLog(1, 2, 2.0, False, _VALID_EVENTS))
    log = core.EventLog(1, 2, horizon, False, events, restricted)
    with pytest.raises(core.EventLogError, match=message):
        core.validate_event_log(log)


_UNIT = core.RateSchedule.constant(1.0)


def _one_node_permanent_log():
    cfg = core.SystemConfig(1, 1, _UNIT, core.InputModel.permanent())
    return sim.simulate(cfg, sim.RandomnessPlan(3, 0), sim.StopRule.horizon(2.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: core.RateSchedule("bogus"), core.ScheduleError, "unknown rate family 'bogus'"),
    (lambda: core.RateSchedule.explicit([]), core.ScheduleError,
     "explicit schedule needs at least one rate"),
    (lambda: core.RateSchedule.log_family(0, 0), core.ScheduleError, "theta0 must be positive"),
    (lambda: core.RateSchedule.log_family(1, -1), core.ScheduleError, "alpha must be >= 0"),
    (lambda: core.InputModel("bogus"), ValueError, "unknown input kind 'bogus'"),
    (lambda: core.SystemConfig(-1, 0, _UNIT, core.InputModel.permanent()), ValueError,
     "node indices must be >= 0"),
    (lambda: core.SystemConfig(3, 1, _UNIT, core.InputModel.exponential(1.0)), ValueError,
     "right_node must be >= left_node - 1"),
    (lambda: core.SystemConfig(1, 2, core.RateSchedule.linear(1e308), core.InputModel.permanent()),
     core.ScheduleError, "rate at node 2 is not positive: inf"),
    (lambda: _one_node_permanent_log().restrict(2), core.DimensionMismatchError,
     "node 2 outside log range"),
    (lambda: _one_node_permanent_log().restrict(0), core.DimensionMismatchError,
     "node 0 outside log range"),
    (lambda: core.log_to_sequence(_one_node_permanent_log()), core.DegenerateRangeError,
     "log has no observable nodes left of the input"),
], ids=["rate-family", "explicit-empty", "logfam-theta0", "logfam-alpha", "input-kind",
        "negative-node", "reversed-range", "infinite-rate", "restrict-above", "restrict-below",
        "one-node-permanent-sequence"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
