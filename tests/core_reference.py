"""Per-element reference versions of the sequence-level validators in
``onoffchain.core``.

These are loop-by-loop statements of each rule: one reception, recovery or
interval at a time, with sets, ``bisect`` and a dict that groups the
switch-offs by instant.  ``core`` decides the same rules over per-node numpy
arrays; the differential tests in ``test_core_oracle.py`` require both to
return equal reports, trajectories and sequences, and to refuse the same
inputs with the same message.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from onoffchain.core import (
    DegenerateRangeError, DimensionMismatchError, DynamicsReport, InvalidSequenceError,
    OnOffTrajectory, SignalRecoverySequence, ValidationReport, Violation, _RECEPTION_BINS)


def validate_signal_recovery(seq: SignalRecoverySequence) -> ValidationReport:
    if seq.node_hi < seq.node_lo:
        raise DegenerateRangeError("sequence has an empty node range")
    if not (math.isfinite(seq.window) and seq.window > 0):
        return ValidationReport((Violation("discreteness", seq.node_lo, seq.window,
                                           "window must be a positive finite time"),))
    violations: list[Violation] = []

    for node in seq.nodes():
        if node not in seq.receptions or node not in seq.recoveries:
            violations.append(Violation("interleaving", node, 0.0,
                                        "node lacks a reception or a recovery list"))
            continue
        s, r = seq.receptions[node], seq.recoveries[node]
        if not s or s[0] != 0.0:
            violations.append(Violation("interleaving", node, 0.0,
                                        "reception list must start at the conventional 0"))
            continue
        for x in (*s, *r):
            if not math.isfinite(x):
                violations.append(Violation("discreteness", node, x, "non-finite time"))
        if len(r) not in (len(s) - 1, len(s)):
            violations.append(Violation("interleaving", node, s[-1],
                                        f"{len(r)} recoveries cannot interleave "
                                        f"{len(s) - 1} receptions"))
            continue
        for k, rk in enumerate(r):
            if not s[k] < rk:
                violations.append(Violation("interleaving", node, rk,
                                            f"recovery {k + 1} at {rk} not after reception at {s[k]}"))
                break
            if k + 1 < len(s) and not rk < s[k + 1]:
                violations.append(Violation("interleaving", node, s[k + 1],
                                            f"reception {k + 1} at {s[k + 1]} not after recovery at {rk}"))
                break
        else:
            upper = max(s[-1], r[-1] if r else 0.0)
            if upper > seq.window:
                violations.append(Violation("discreteness", node, upper,
                                            "event beyond the declared window"))

    if violations:
        return ValidationReport(tuple(violations))

    excluded: list[Violation] = []
    s_here = seq.receptions[seq.node_lo]
    here = set(s_here)
    for node in range(seq.node_lo, seq.node_hi):
        s_right = seq.receptions[node + 1]
        right = set(s_right)
        for t in s_here[1:]:
            if t not in right:
                violations.append(Violation("containment", node, t,
                                            f"reception at {t} absent at node {node + 1}"))
        r_here = seq.recoveries[node]
        for t in s_right[1:]:
            if t in here:
                continue
            k = bisect_left(r_here, t)
            if not (k < len(s_here) and t > s_here[k]):
                violations.append(Violation("blocked-gap", node, t,
                                            f"reception at {t} skipped node {node} while it was on"))
            elif k == len(r_here):
                excluded.append(Violation("blocked-gap", node, t,
                                          "in the final off gap, still open at the window end"))
        s_here, here = s_right, right
    return ValidationReport(tuple(violations), tuple(excluded))


def to_on_off(seq: SignalRecoverySequence) -> OnOffTrajectory:
    report = validate_signal_recovery(seq)
    if not report.consistent:
        raise InvalidSequenceError(report)
    intervals = {}
    for node in seq.nodes():
        s = seq.receptions[node]
        r = seq.recoveries[node]
        pairs = []
        for k, rk in enumerate(r):
            end = s[k + 1] if k + 1 < len(s) else None
            pairs.append((rk, end))
        intervals[node] = tuple(pairs)
    return OnOffTrajectory(seq.node_lo, seq.node_hi, seq.window, intervals)


def switch_times(traj: OnOffTrajectory) -> SignalRecoverySequence:
    receptions = {}
    recoveries = {}
    for node in traj.nodes():
        r = []
        s = [0.0]
        for a, b in traj.intervals[node]:
            r.append(a)
            if b is not None:
                s.append(b)
        receptions[node] = tuple(s)
        recoveries[node] = tuple(r)
    return SignalRecoverySequence(traj.node_lo, traj.node_hi, traj.window,
                                  receptions, recoveries)


def check_dynamics(traj: OnOffTrajectory, seq: SignalRecoverySequence) -> DynamicsReport:
    if (traj.node_lo, traj.node_hi) != (seq.node_lo, seq.node_hi):
        raise DimensionMismatchError("trajectory and sequence node ranges differ")
    if not (math.isfinite(seq.window) and seq.window > 0):
        raise DimensionMismatchError(f"window must be a positive finite time, got {seq.window}")
    if traj.window != seq.window:
        raise DimensionMismatchError("trajectory and sequence windows differ")

    notes = []
    by_time: dict[float, list[int]] = {}
    for node in traj.nodes():
        if not (node in traj.intervals and node in seq.receptions and node in seq.recoveries):
            raise DimensionMismatchError(f"node {node} is absent from the trajectory or the sequence")
        prev_end = 0.0
        for a, b in traj.intervals[node]:
            end = traj.window if b is None else b
            if not (prev_end < a < end <= traj.window):
                notes.append(f"node {node}: malformed on-interval [{a}, {b})")
                break
            prev_end = end
        for t in seq.receptions[node][1:]:
            if not 0.0 < t <= traj.window:
                raise DimensionMismatchError(
                    f"node {node}: reception at {t} outside the window (0, {traj.window}]")
        for t in seq.receptions[node][1:]:
            by_time.setdefault(t, []).append(node)

    persistence = []
    suffix = []
    hi = traj.node_hi
    bins = _RECEPTION_BINS
    w = traj.window
    counts = [0] * bins
    for t, nodes in by_time.items():
        counts[min(int(t / w * bins), bins - 1)] += len(nodes)
        switched = set(nodes)
        probe = nodes[0] + 1
        while probe in switched:
            probe += 1
        if probe <= hi:
            if traj.state_before(probe, t) == 0:
                persistence.append((probe - 1, t, probe))
            else:
                suffix.append((t, f"nodes {nodes} switched off but node {probe} "
                                  f"stayed on"))
        elif len(switched) < len(nodes):
            suffix.append((t, f"switch-off block {nodes} lists a node twice"))

    edges = [w * i / bins for i in range(bins + 1)]
    bin_rows = tuple((edges[i], edges[i + 1], counts[i]) for i in range(bins))
    instants = sorted(by_time)
    min_gap = min((b - a for a, b in zip(instants, instants[1:])), default=None)

    return DynamicsReport(not notes, tuple(notes), tuple(persistence),
                          tuple(suffix), bin_rows, min_gap)
