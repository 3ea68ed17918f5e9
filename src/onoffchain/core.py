"""Domain model for linear on-off relay chains.

A chain is a contiguous run of nodes, each either off (0) or on (1).  Off
nodes turn on after independent exponential recovery times; signals enter
at the rightmost node and instantly switch off the maximal all-on suffix.
This module holds the configuration types, the event-log produced by the
simulator, the recovery/reception sequence abstraction with its axioms,
and the finite-window dynamics validators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

__all__ = [
    "RateSchedule",
    "InputModel",
    "SystemConfig",
    "EventLog",
    "SignalRecoverySequence",
    "OnOffTrajectory",
    "Violation",
    "ValidationReport",
    "DynamicsReport",
    "ScheduleError",
    "DegenerateRangeError",
    "DimensionMismatchError",
    "EventLogError",
    "InvalidSequenceError",
    "validate_signal_recovery",
    "to_on_off",
    "switch_times",
    "check_dynamics",
    "log_to_sequence",
    "validate_event_log",
]

# Event kinds used in EventLog tuples (kind, time, node_lo, node_hi).
INPUT = "input"
RECOVERY = "recovery"
RECEPTION = "reception"


class ScheduleError(ValueError):
    """A rate schedule is malformed or evaluated outside its domain."""


class DegenerateRangeError(ValueError):
    """An operation received an empty node range."""


class DimensionMismatchError(ValueError):
    """Two objects that must share node range / window do not."""


class EventLogError(AssertionError):
    """An event log breaks a structural invariant of the dynamics."""


# ---------------------------------------------------------------------------
# Rate schedules
# ---------------------------------------------------------------------------

EXPLICIT = "explicit"
CONSTANT = "constant"
LINEAR = "linear"
LOG_FAMILY = "logfamily"
LOG_SQUARE = "logsquare"

_FAMILIES = (EXPLICIT, CONSTANT, LINEAR, LOG_FAMILY, LOG_SQUARE)


@dataclass(frozen=True)
class RateSchedule:
    """Recovery-rate assignment, either an explicit finite list or a
    parametric family evaluable at any node index >= 1.

    Parametric families:
      constant   rate(k) = c
      linear     rate(k) = c * k
      logfamily  rate(k) = log(k)/theta0 + alpha*log(log(k)), clamped at
                 index 3 so small indices stay strictly positive
      logsquare  rate(k) = log(k + 1)**2
    """

    family: str
    values: tuple[float, ...] = ()     # explicit family only
    first_index: int = 1               # node index of values[0]
    c: float = 0.0
    theta0: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ScheduleError(f"unknown rate family {self.family!r}")
        if self.family == EXPLICIT:
            if not self.values:
                raise ScheduleError("explicit schedule needs at least one rate")
            for v in self.values:
                if not (math.isfinite(v) and v > 0.0):
                    raise ScheduleError(f"rates must be positive and finite, got {v}")
        else:
            if self.family in (CONSTANT, LINEAR) and not (math.isfinite(self.c) and self.c > 0.0):
                raise ScheduleError(f"coefficient must be positive, got {self.c}")
            if self.family == LOG_FAMILY:
                if not (math.isfinite(self.theta0) and self.theta0 > 0.0):
                    raise ScheduleError(f"theta0 must be positive, got {self.theta0}")
                if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
                    raise ScheduleError(f"alpha must be >= 0, got {self.alpha}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, values, first_index: int = 1) -> "RateSchedule":
        vals = tuple(float(v) for v in values)
        return cls(EXPLICIT, values=vals, first_index=first_index)

    @classmethod
    def constant(cls, c: float) -> "RateSchedule":
        return cls(CONSTANT, c=float(c))

    @classmethod
    def linear(cls, c: float) -> "RateSchedule":
        return cls(LINEAR, c=float(c))

    @classmethod
    def log_family(cls, theta0: float, alpha: float) -> "RateSchedule":
        return cls(LOG_FAMILY, theta0=float(theta0), alpha=float(alpha))

    @classmethod
    def log_square(cls) -> "RateSchedule":
        return cls(LOG_SQUARE)

    # -- evaluation ---------------------------------------------------------

    def rate(self, k: int) -> float:
        """Recovery rate at node index k (strictly positive)."""
        if self.family == EXPLICIT:
            j = k - self.first_index
            if not 0 <= j < len(self.values):
                raise ScheduleError(f"index {k} outside explicit schedule "
                                    f"[{self.first_index}, {self.first_index + len(self.values) - 1}]")
            return self.values[j]
        if k < 1:
            raise ScheduleError(f"parametric schedules are defined for k >= 1, got {k}")
        if self.family == CONSTANT:
            return self.c
        if self.family == LINEAR:
            return self.c * k
        if self.family == LOG_SQUARE:
            return math.log(k + 1) ** 2
        # logfamily; clamp below index 3 so log(log(k)) stays positive
        kk = max(k, 3)
        return math.log(kk) / self.theta0 + self.alpha * math.log(math.log(kk))

    def rates(self, lo: int, hi: int) -> tuple[float, ...]:
        return tuple(self.rate(k) for k in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Input models
# ---------------------------------------------------------------------------

PERMANENT = "permanent"
EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
EMPIRICAL = "empirical"


@dataclass(frozen=True, eq=False)
class InputModel:
    """Law of the gaps between consecutive signals entering the chain.

    ``permanent`` is the degenerate mode where the rightmost node receives a
    signal at each of its own recoveries; it has no interval law and must be
    eliminated (see ``analytic.permanent_reduce``) before any transform work.
    All proper laws put zero mass at 0.
    """

    kind: str
    rate: float = 0.0           # exponential
    duration: float = 0.0       # deterministic
    samples: np.ndarray | None = None  # empirical, sorted ascending

    def __post_init__(self):
        if self.kind not in (PERMANENT, EXPONENTIAL, DETERMINISTIC, EMPIRICAL):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.kind == EXPONENTIAL and not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"exponential input rate must be positive, got {self.rate}")
        if self.kind == DETERMINISTIC and not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"deterministic input duration must be positive, got {self.duration}")
        if self.kind == EMPIRICAL:
            s = self.samples
            if s is None or len(s) == 0:
                raise ValueError("empirical input needs at least one sample")
            if not (np.all(np.isfinite(s)) and np.all(s > 0.0)):
                raise ValueError("empirical input samples must be positive and finite")

    @classmethod
    def permanent(cls) -> "InputModel":
        return cls(PERMANENT)

    @classmethod
    def exponential(cls, rate: float) -> "InputModel":
        return cls(EXPONENTIAL, rate=float(rate))

    @classmethod
    def deterministic(cls, duration: float) -> "InputModel":
        return cls(DETERMINISTIC, duration=float(duration))

    @classmethod
    def empirical(cls, samples) -> "InputModel":
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        arr.setflags(write=False)
        return cls(EMPIRICAL, samples=arr)

    @property
    def is_permanent(self) -> bool:
        return self.kind == PERMANENT

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to interval draws (shared-uniform coupling)."""
        if self.kind == EXPONENTIAL:
            return -np.log1p(-u) / self.rate
        if self.kind == DETERMINISTIC:
            return np.full_like(u, self.duration)
        if self.kind == EMPIRICAL:
            s = self.samples
            idx = np.minimum((u * len(s)).astype(np.int64), len(s) - 1)
            return s[idx]
        raise ValueError("permanent input has no interval law")


# ---------------------------------------------------------------------------
# System configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """A chain on nodes [left_node, right_node] with its rates and input.

    ``right_node == left_node - 1`` denotes the empty chain, which arises as
    the reduction of a one-node chain with permanent input; it carries only
    the input renewal process.
    """

    left_node: int
    right_node: int
    rates: RateSchedule
    input: InputModel

    def __post_init__(self):
        if self.left_node < 0:
            raise ValueError("node indices must be >= 0")
        if self.right_node < self.left_node - 1:
            raise ValueError("right_node must be >= left_node - 1")
        if self.is_empty:
            if self.input.is_permanent:
                raise ValueError("an empty chain cannot take permanent input")
        else:
            # force evaluation so bad schedules fail here, not mid-run
            for k in range(self.left_node, self.right_node + 1):
                r = self.rates.rate(k)
                if not (math.isfinite(r) and r > 0.0):
                    raise ScheduleError(f"rate at node {k} is not positive: {r}")

    @property
    def is_empty(self) -> bool:
        return self.right_node < self.left_node

    @property
    def n_nodes(self) -> int:
        return self.right_node - self.left_node + 1

    def node_rates(self) -> tuple[float, ...]:
        return self.rates.rates(self.left_node, self.right_node)


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EventLog:
    """Time-ordered record of one run.

    Events are tuples ``(kind, time, node_lo, node_hi)``:
      ("input", t, None, None)        a signal reaches the chain entrance
      ("recovery", t, i, i)           node i turns on
      ("reception", t, i, j)          nodes i..j switch off together (j is
                                      the rightmost node of the log)
    Within one instant the recorded order is recovery (permanent mode only),
    then input, then its reception block.  Equal timestamps occur only inside
    such a tick.
    """

    left_node: int
    right_node: int
    horizon: float
    permanent: bool
    events: list[tuple]
    restricted: bool = False

    def input_times(self) -> list[float]:
        return [e[1] for e in self.events if e[0] == INPUT]

    def recoveries_at(self, node: int) -> list[float]:
        return [e[1] for e in self.events if e[0] == RECOVERY and e[2] == node]

    def receptions_at(self, node: int) -> list[float]:
        return [e[1] for e in self.events
                if e[0] == RECEPTION and e[2] <= node <= e[3]]

    def restrict(self, node_hi: int) -> "EventLog":
        """View of the log on nodes [left_node, node_hi].

        Reception blocks are clipped; input events are dropped (the restricted
        chain's effective input is the reception process at node_hi + 1).
        """
        if node_hi < self.left_node or node_hi > self.right_node:
            raise DimensionMismatchError(f"node {node_hi} outside log range")
        kept = []
        for e in self.events:
            kind = e[0]
            if kind == RECOVERY and e[2] <= node_hi:
                kept.append(e)
            elif kind == RECEPTION and e[2] <= node_hi:
                kept.append((RECEPTION, e[1], e[2], min(e[3], node_hi)))
        return EventLog(self.left_node, node_hi, self.horizon,
                        permanent=False, events=kept, restricted=True)

    def csv_lines(self):
        """Line-oriented serialization: kind,time,node_lo,node_hi."""
        for kind, t, lo, hi in self.events:
            a = "" if lo is None else str(lo)
            b = "" if hi is None else str(hi)
            yield f"{kind},{t!r},{a},{b}"


def validate_event_log(log: EventLog) -> None:
    """Replay a log and check its structural invariants.

    Raises EventLogError on the first breach: non-monotone times, stray
    ties, broken per-node alternation, or a reception block that is not the
    maximal all-on suffix at that instant.
    """
    lo, hi = log.left_node, log.right_node
    n = hi - lo + 1
    on = [0] * max(n, 0)
    last_t = 0.0
    pending_input = False
    for e in log.events:
        kind, t = e[0], e[1]
        if not t >= last_t:                # also refuses NaN times
            raise EventLogError(f"event times decrease at {e}")
        if t > last_t:
            pending_input = False
        if kind == INPUT:
            if log.restricted:
                raise EventLogError("restricted logs carry no input events")
            pending_input = True
        elif kind == RECOVERY:
            node = e[2]
            if not lo <= node <= hi:
                raise EventLogError(f"recovery outside range: {e}")
            j = node - lo
            if on[j] != 0:
                raise EventLogError(f"recovery of a node already on: {e}")
            on[j] = 1
            # only the permanent tick puts a recovery level with others, and
            # there it opens the tick, before the input
            if pending_input:
                raise EventLogError(f"recovery inside an input tick: {e}")
        else:
            a, b = e[2], e[3]
            if not lo <= a <= b <= hi:
                raise EventLogError(f"reception block outside range: {e}")
            if not log.restricted:
                if not pending_input:
                    raise EventLogError(f"reception without a same-instant input: {e}")
                if b != hi:
                    raise EventLogError(f"reception block must reach the right end: {e}")
            for node in range(a, b + 1):
                j = node - lo
                if on[j] != 1:
                    raise EventLogError(f"reception at an off node: {e}")
                on[j] = 0
            if a > lo and on[a - 1 - lo] != 0:
                raise EventLogError(f"block not maximal: node {a - 1} was on at {t}: {e}")
            pending_input = False
        last_t = t
        if not t <= log.horizon:
            raise EventLogError(f"event beyond horizon: {e}")


# ---------------------------------------------------------------------------
# Signal/recovery sequences and their axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SignalRecoverySequence:
    """Per-node reception times (with the conventional leading 0) and
    recovery times, interleaved, on a finite window.

    The axioms, checked by :func:`validate_signal_recovery`:
      interleaving   0 = s_0 < r_1 < s_1 < r_2 < ...  per node
      discreteness   each node's time set is finite within the window
      containment    every reception at a node is simultaneously a reception
                     at the node to its right
      blocked-gap    a reception present at node i+1 but absent at node i
                     falls in one of node i's off gaps (s_{k-1}, r_k]
    """

    node_lo: int
    node_hi: int
    window: float
    receptions: dict[int, tuple[float, ...]]   # each tuple starts with 0.0
    recoveries: dict[int, tuple[float, ...]]

    def nodes(self):
        return range(self.node_lo, self.node_hi + 1)


@dataclass(frozen=True)
class Violation:
    axiom: str       # "interleaving" | "discreteness" | "containment" | "blocked-gap"
    node: int
    time: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    boundary_excluded: tuple[Violation, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.violations


class InvalidSequenceError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        first = report.violations[0]
        super().__init__(f"sequence violates {first.axiom} at node {first.node}, "
                         f"t={first.time}: {first.detail}")


def validate_signal_recovery(seq: SignalRecoverySequence) -> ValidationReport:
    """Check the four sequence axioms on a finite window.

    The window must be a positive finite time, or that is the one violation
    reported.
    Every node of the range needs a reception and a recovery list.
    Receptions of the right neighbour that land in a node's final off gap,
    still open at the window end, cannot be judged against the blocked-gap
    axiom (the closing recovery lies beyond the window); they are reported
    separately in ``boundary_excluded`` rather than as violations.

    Each node's times become one float64 array and every rule is decided by
    array operations, but the report is identical, violation for violation
    and in the same order, to checking the axioms one time at a time: per
    node the non-finite times, then the first interleaving breach or the
    window breach; then per node pair the containment breaches and the
    blocked-gap breaches, each in time order.  Times are compared as float64.
    """
    if seq.node_hi < seq.node_lo:
        raise DegenerateRangeError("sequence has an empty node range")
    if not (math.isfinite(seq.window) and seq.window > 0):
        return ValidationReport((Violation("discreteness", seq.node_lo, seq.window,
                                           "window must be a positive finite time"),))
    violations: list[Violation] = []
    arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
        times = np.fromiter(chain(s, r), np.float64, len(s) + len(r))
        for i in np.flatnonzero(~np.isfinite(times)).tolist():
            x = s[i] if i < len(s) else r[i - len(s)]
            violations.append(Violation("discreteness", node, x, "non-finite time"))
        if len(r) not in (len(s) - 1, len(s)):
            violations.append(Violation("interleaving", node, s[-1],
                                        f"{len(r)} recoveries cannot interleave "
                                        f"{len(s) - 1} receptions"))
            continue
        # the interleaved order s_0, r_1, s_1, r_2, ... must increase strictly
        merged = np.empty_like(times)
        merged[0::2] = times[:len(s)]
        merged[1::2] = times[len(s):]
        breach = np.flatnonzero(~(merged[:-1] < merged[1:]))
        if breach.size:
            k, odd = divmod(int(breach[0]), 2)
            if odd:
                violations.append(Violation("interleaving", node, s[k + 1],
                                            f"reception {k + 1} at {s[k + 1]} not after recovery at {r[k]}"))
            else:
                violations.append(Violation("interleaving", node, r[k],
                                            f"recovery {k + 1} at {r[k]} not after reception at {s[k]}"))
            continue
        upper = r[-1] if len(r) == len(s) else s[-1]    # the last switch
        if upper > seq.window:
            violations.append(Violation("discreteness", node, upper,
                                        "event beyond the declared window"))
        arrays[node] = times[:len(s)], times[len(s):]

    if violations:
        return ValidationReport(tuple(violations))

    # every list is now finite and strictly increasing
    excluded: list[Violation] = []
    for node in range(seq.node_lo, seq.node_hi):
        (s_here, r_here), s_right = arrays[node], arrays[node + 1][0]
        # containment: receptions here must also appear at the right neighbour
        t = s_here[1:]
        for i in np.flatnonzero(~_members(t, s_right)).tolist():
            x = seq.receptions[node][i + 1]
            violations.append(Violation("containment", node, x,
                                        f"reception at {x} absent at node {node + 1}"))
        # blocked-gap: a right-neighbour reception missing here must find this node
        # off just before t; with k recoveries before t, off means t > s_k
        t = s_right[1:]
        k = np.searchsorted(r_here, t, side="left")
        off = (k < len(s_here)) & (t > s_here[np.minimum(k, len(s_here) - 1)])
        missing = ~_members(t, s_here)
        for i in np.flatnonzero(missing & ~off).tolist():
            x = seq.receptions[node + 1][i + 1]
            violations.append(Violation("blocked-gap", node, x,
                                        f"reception at {x} skipped node {node} while it was on"))
        # the closing recovery lies outside the window: boundary caveat
        for i in np.flatnonzero(missing & off & (k == len(r_here))).tolist():
            excluded.append(Violation("blocked-gap", node, seq.receptions[node + 1][i + 1],
                                      "in the final off gap, still open at the window end"))
    return ValidationReport(tuple(violations), tuple(excluded))


def _members(t: np.ndarray, sorted_times: np.ndarray) -> np.ndarray:
    """Which entries of t occur in the non-empty increasing array ``sorted_times``."""
    k = np.minimum(np.searchsorted(sorted_times, t), len(sorted_times) - 1)
    return sorted_times[k] == t


# ---------------------------------------------------------------------------
# On-off trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OnOffTrajectory:
    """Piecewise-constant 0/1 paths: per node, half-open on-intervals.

    An interval end of ``None`` means the node is still on when the window
    closes (no switch-off was observed); a numeric end is a true switch.
    """

    node_lo: int
    node_hi: int
    window: float
    intervals: dict[int, tuple[tuple[float, float | None], ...]]

    def state(self, node: int, t: float) -> int:
        """Value at t (right-continuous)."""
        for a, b in self.intervals[node]:
            if a <= t < (self.window if b is None else b):
                return 1
        return 0

    def state_before(self, node: int, t: float) -> int:
        """Left limit at t."""
        for a, b in self.intervals[node]:
            if a < t <= (self.window if b is None else b):
                return 1
        return 0

    def nodes(self):
        return range(self.node_lo, self.node_hi + 1)


def to_on_off(seq: SignalRecoverySequence) -> OnOffTrajectory:
    """Convert a valid sequence to its on-off trajectory.

    The node is off on [s_{k-1}, r_k) and on on [r_k, s_k); converting back
    with :func:`switch_times` recovers the sequence exactly.
    """
    report = validate_signal_recovery(seq)
    if not report.consistent:
        raise InvalidSequenceError(report)
    intervals = {}
    for node in seq.nodes():
        s = seq.receptions[node]
        r = seq.recoveries[node]
        pairs = tuple(zip(r, islice(s, 1, None)))
        if len(r) == len(s):            # still on when the window closes
            pairs += ((r[-1], None),)
        intervals[node] = pairs
    return OnOffTrajectory(seq.node_lo, seq.node_hi, seq.window, intervals)


def switch_times(traj: OnOffTrajectory) -> SignalRecoverySequence:
    """Inverse of :func:`to_on_off`: read the switch instants back off."""
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


# ---------------------------------------------------------------------------
# Dynamics checks on finite windows
# ---------------------------------------------------------------------------

_RECEPTION_BINS = 10


@dataclass(frozen=True)
class DynamicsReport:
    """Finite-window dynamics checks plus density diagnostics.

    ``persistence_violations``: a node switched off while some node to its
    right was off just before (it should have stayed on).
    ``suffix_violations``: a switch-off block that is not a contiguous batch
    reaching the rightmost node of the range, or that lists a node twice.
    Density of reception times cannot be decided from finite data; the
    report only bins observed receptions and states the minimal gap seen.
    """

    cadlag_ok: bool
    structural_notes: tuple[str, ...]
    persistence_violations: tuple[tuple[int, float, int], ...]  # (node, t, off right node)
    suffix_violations: tuple[tuple[float, str], ...]
    reception_bins: tuple[tuple[float, float, int], ...]
    min_reception_gap: float | None

    @property
    def passed(self) -> bool:
        return self.cadlag_ok and not self.persistence_violations \
            and not self.suffix_violations


def check_dynamics(traj: OnOffTrajectory, seq: SignalRecoverySequence) -> DynamicsReport:
    """Validate trajectory structure and the switch-off rules against the
    reception times of ``seq``, restricted to the available node range; the
    receptions are counted in ``_RECEPTION_BINS`` equal bins of the window.

    Both windows must be the same positive finite time, and every reception
    must lie in the window (0, window]; anything else, NaN and infinities
    included, is refused with ``DimensionMismatchError``.  The switch-offs
    are grouped by instant with one sort.  A group that lists exactly the
    nodes k..node_hi, each once, obeys both rules; every other group is
    probed one at a time, ordered by the first node (then the first
    position in that node's list) that holds its instant.  The report is
    identical to grouping and probing every reception one at a time.
    """
    if (traj.node_lo, traj.node_hi) != (seq.node_lo, seq.node_hi):
        raise DimensionMismatchError("trajectory and sequence node ranges differ")
    if not (math.isfinite(seq.window) and seq.window > 0):
        raise DimensionMismatchError(f"window must be a positive finite time, got {seq.window}")
    if traj.window != seq.window:
        raise DimensionMismatchError("trajectory and sequence windows differ")

    window = traj.window
    notes = []
    times = []                          # per node, its receptions after the 0
    for node in traj.nodes():
        if not (node in traj.intervals and node in seq.receptions and node in seq.recoveries):
            raise DimensionMismatchError(f"node {node} is absent from the trajectory or the sequence")
        iv = traj.intervals[node]
        if iv:
            starts = np.fromiter(map(itemgetter(0), iv), np.float64, len(iv))
            ends = np.fromiter(map(itemgetter(1), iv), np.float64, len(iv))  # None -> nan
            for i in np.flatnonzero(np.isnan(ends)).tolist():
                if iv[i][1] is None:    # still on: the interval ends with the window
                    ends[i] = window
            prev_ends = np.concatenate(([0.0], ends[:-1]))
            ok = (prev_ends < starts) & (starts < ends) & (ends <= window)
            bad = np.flatnonzero(~ok)
            if bad.size:
                a, b = iv[bad[0]]
                notes.append(f"node {node}: malformed on-interval [{a}, {b})")
        s = seq.receptions[node]
        rx = np.fromiter(islice(s, 1, None), np.float64, max(len(s) - 1, 0))
        outside = np.flatnonzero(~((rx > 0.0) & (rx <= window)))
        if outside.size:
            raise DimensionMismatchError(f"node {node}: reception at {s[outside[0] + 1]} "
                                         f"outside the window (0, {window}]")
        times.append(rx)

    # group the switch-offs by instant; within a group the nodes come in node order
    hi = traj.node_hi
    t = np.concatenate(times) if times else np.empty(0)
    owner = np.repeat(np.arange(traj.node_lo, hi + 1), [len(x) for x in times])
    order = np.argsort(t, kind="stable")
    t_sorted, nodes_sorted = t[order], owner[order]
    opens = np.ones(len(t), dtype=bool)     # each group's first position
    opens[1:] = t_sorted[1:] != t_sorted[:-1]
    head = np.flatnonzero(opens)
    tail = np.flatnonzero(np.roll(opens, -1))
    # a group is k, k+1, ..., hi with each node once, or it is irregular
    irregular = nodes_sorted[tail] != hi
    inside_step = ~opens[1:] & (np.diff(nodes_sorted) != 1)
    irregular[np.cumsum(opens)[1:][inside_step] - 1] = True
    groups = np.flatnonzero(irregular)
    first_seen = order[head[groups]]    # position in the node-by-node order
    persistence = []
    suffix = []
    for g in groups[np.argsort(first_seen)].tolist():
        nodes = nodes_sorted[head[g]:tail[g] + 1].tolist()
        t0 = float(t_sorted[head[g]])
        # the probe: the first node above the lowest one that did not switch off
        switched = set(nodes)
        probe = nodes[0] + 1
        while probe in switched:
            probe += 1
        if probe <= hi:
            # classify it by its state just before t0
            if traj.state_before(probe, t0) == 0:
                persistence.append((probe - 1, t0, probe))
            else:
                suffix.append((t0, f"nodes {nodes} switched off but node {probe} "
                                   f"stayed on"))
        elif len(switched) < len(nodes):
            suffix.append((t0, f"switch-off block {nodes} lists a node twice"))

    bins = _RECEPTION_BINS
    counts = np.bincount(np.minimum((t / window * bins).astype(np.int64), bins - 1),
                         minlength=bins).tolist()
    edges = [window * i / bins for i in range(bins + 1)]
    bin_rows = tuple((edges[i], edges[i + 1], counts[i]) for i in range(bins))
    min_gap = float(np.diff(t_sorted[head]).min()) if len(head) > 1 else None

    return DynamicsReport(not notes, tuple(notes), tuple(persistence),
                          tuple(suffix), bin_rows, min_gap)


# ---------------------------------------------------------------------------
# Log -> sequence conversion
# ---------------------------------------------------------------------------

def log_to_sequence(log: EventLog) -> SignalRecoverySequence:
    """Extract the per-node recovery/reception sequence from a log.

    Under permanent input the rightmost node recovers and is switched off at
    the same instant, so its times cannot interleave strictly; it is dropped.
    """
    hi = log.right_node
    if log.permanent:
        hi -= 1
    if hi < log.left_node:
        raise DegenerateRangeError("log has no observable nodes left of the input")
    receptions = {node: [0.0] for node in range(log.left_node, hi + 1)}
    recoveries = {node: [] for node in range(log.left_node, hi + 1)}
    for e in log.events:
        kind = e[0]
        if kind == RECOVERY and e[2] <= hi:
            recoveries[e[2]].append(e[1])
        elif kind == RECEPTION and e[2] <= hi:
            for node in range(e[2], min(e[3], hi) + 1):
                receptions[node].append(e[1])
    return SignalRecoverySequence(
        log.left_node, hi, log.horizon,
        {k: tuple(v) for k, v in receptions.items()},
        {k: tuple(v) for k, v in recoveries.items()})
