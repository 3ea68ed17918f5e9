"""Exhaustive refuter for self-blocking cascades on the half-line.

Given distinct positive thresholds t_1, t_2, ... tending to 0, consider 0/1
paths where index i stays 0 forever ("blocked") exactly when, just before
its threshold t_i, every larger index is already 1 - equivalently

    blocked(i)  <=>  for all j > i: j is unblocked and t_j < t_i.

Its threshold half says that t_i is a *right record*.  No assignment
satisfies this rule at every index.  This module makes that refutation
executable for candidates described by a finite blocked set plus an
all-blocked / all-unblocked tail flag: the rule is decided index by index
with finitely many threshold evaluations (a tail certificate bounds where
thresholds drop below any epsilon), and a violated index is produced for
every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "ThresholdSequence",
    "BlockedCandidate",
    "ConsistencyResult",
    "SearchReport",
    "DuplicateThresholdError",
    "check_candidate",
    "exhaustive_search",
]

_MAX_SEARCH_INDEX = 20


class DuplicateThresholdError(ValueError):
    """Two equal thresholds were encountered; the rule needs distinct values."""


@dataclass(frozen=True)
class ThresholdSequence:
    """Threshold values t_i > 0, distinct, tending to 0.

    ``value(i)`` evaluates t_i for i >= 1; ``tail_index(eps)`` returns an N
    certifying t_j < eps for every j >= N.  Built-in families:

      geometric(r)             t_i = r**i, 0 < r < 1
      harmonic()               t_i = 1/(i+1)
      with_prefix(vals, tail)  explicit first len(vals) values (need not be
                               monotone), then the tail family continued at
                               its own indices
    """

    kind: str                      # "geometric" | "harmonic" | "prefix"
    ratio: float = 0.0
    prefix: tuple[float, ...] = ()
    tail: "ThresholdSequence | None" = None

    def __post_init__(self):
        if self.kind not in ("geometric", "harmonic", "prefix"):
            raise ValueError(f"unknown threshold family {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValueError("geometric ratio must lie in (0, 1)")
        if self.kind == "prefix":
            if self.tail is None:
                raise ValueError("a prefix needs a tail family")
            for v in self.prefix:
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"thresholds must be positive, got {v}")

    @classmethod
    def geometric(cls, ratio: float) -> "ThresholdSequence":
        return cls("geometric", ratio=float(ratio))

    @classmethod
    def harmonic(cls) -> "ThresholdSequence":
        return cls("harmonic")

    @classmethod
    def with_prefix(cls, values, tail: "ThresholdSequence") -> "ThresholdSequence":
        return cls("prefix", prefix=tuple(float(v) for v in values), tail=tail)

    def value(self, i: int) -> float:
        if i < 1:
            raise ValueError("indices start at 1")
        if self.kind == "geometric":
            return self.ratio ** i
        if self.kind == "harmonic":
            return 1.0 / (i + 1)
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail.value(i)

    def tail_index(self, eps: float) -> int:
        """Some N with t_j < eps for all j >= N."""
        if not eps > 0:
            raise ValueError("eps must be positive")
        if self.kind == "geometric":
            n = max(1, int(math.log(eps) / math.log(self.ratio)) + 1)
            while self.ratio ** n >= eps:
                n += 1
            return n
        if self.kind == "harmonic":
            n = max(1, int(1.0 / eps))
            while 1.0 / (n + 1) >= eps:
                n += 1
            return n
        n = self.tail.tail_index(eps)
        if any(v >= eps for v in self.prefix):
            n = max(n, len(self.prefix) + 1)
        return n

    def describe(self) -> str:
        if self.kind == "geometric":
            return f"geometric:{self.ratio!r}"
        if self.kind == "harmonic":
            return "harmonic"
        vals = ",".join(repr(v) for v in self.prefix)
        return f"prefix:{vals}@{self.tail.describe()}"


@dataclass(frozen=True)
class BlockedCandidate:
    """Finite description of a blocked/unblocked assignment.

    ``described`` lists the blocked indices within 1..horizon; beyond the
    horizon everything is blocked or everything is unblocked according to
    ``tail_all_blocked``.
    """

    described: frozenset[int]
    horizon: int
    tail_all_blocked: bool

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if any(not 1 <= i <= self.horizon for i in self.described):
            raise ValueError("described indices must lie in 1..horizon")

    def blocked(self, i: int) -> bool:
        if i <= self.horizon:
            return i in self.described
        return self.tail_all_blocked

    def describe(self) -> str:
        inside = ",".join(str(i) for i in sorted(self.described)) or "-"
        tail = "blocked" if self.tail_all_blocked else "unblocked"
        return f"{{{inside}}}+{tail}>{self.horizon}"


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    witness: int | None = None
    reason: str = ""


def _distinct(a: float, b: float, ia: int, ib: int):
    if a == b:
        raise DuplicateThresholdError(
            f"t_{ia} == t_{ib} == {a}; the rule needs distinct thresholds")


def _larger_later(seq: ThresholdSequence, i: int) -> int | None:
    """The first j > i with t_j > t_i, scanned up to the tail certificate for
    eps = t_i; None when t_i is a right record, above every later threshold."""
    ti = seq.value(i)
    for j in range(i + 1, seq.tail_index(ti)):
        tj = seq.value(j)
        _distinct(ti, tj, i, j)
        if tj > ti:
            return j
    return None


def _rule_requires_blocked(seq: ThresholdSequence, cand: BlockedCandidate,
                           i: int) -> tuple[bool, str]:
    """Evaluate the right-hand side of the rule at index i.

    True means the rule forces i to be blocked: every later index is
    unblocked and t_i is a right record.  The string explains the decision.
    """
    if cand.tail_all_blocked:
        return False, f"index {max(i, cand.horizon) + 1} and beyond stay blocked"
    later_blocked = [j for j in cand.described if j > i]
    if later_blocked:
        return False, f"index {min(later_blocked)} stays blocked"
    j = _larger_later(seq, i)
    if j is not None:
        return False, f"t_{j} = {seq.value(j)} exceeds t_{i} = {seq.value(i)}"
    return True, f"every index beyond {i} is unblocked with a smaller threshold"


def check_candidate(seq: ThresholdSequence,
                    cand: BlockedCandidate) -> ConsistencyResult:
    """Test a candidate assignment against the blocking rule.

    Scans indices in ascending order up to a horizon that provably contains
    a violated index for every finitely described candidate (the smallest
    blocked index for an all-blocked tail; otherwise the first right record
    beyond ``cand.horizon``, reached along ``_larger_later``) and reports the
    first mismatch.
    """
    if cand.tail_all_blocked:
        scan_to = min(cand.described) if cand.described else cand.horizon + 1
    else:
        scan_to = cand.horizon + 1
        while (j := _larger_later(seq, scan_to)) is not None:
            scan_to = j
    for i in range(1, scan_to + 1):
        required, why = _rule_requires_blocked(seq, cand, i)
        if cand.blocked(i) != required:
            must = "blocked" if required else "unblocked"
            return ConsistencyResult(False, witness=i,
                                     reason=f"index {i} must be {must}: {why}")
    # unreachable for well-formed threshold sequences; reported rather than
    # asserted so the exhaustive search can surface an implementation bug
    return ConsistencyResult(True, reason="no contradiction found within the "
                                          "decidable horizon")


@dataclass(frozen=True)
class SearchReport:
    instance: str
    max_index: int
    total: int
    rows: tuple[tuple[str, str, str, int | None, str], ...]
    consistent: tuple[BlockedCandidate, ...]

    @property
    def all_violated(self) -> bool:
        return not self.consistent

    def csv_lines(self):
        yield "candidate,tail,verdict,witness_index,reason"
        for cand, tail, verdict, witness, reason in self.rows:
            w = "" if witness is None else str(witness)
            clean = reason.replace(",", ";")
            yield f"{cand},{tail},{verdict},{w},{clean}"


def exhaustive_search(seq: ThresholdSequence, max_index: int) -> SearchReport:
    """Run the rule check over every candidate described within 1..max_index.

    2**max_index blocked sets, each with both tail flags.  For a valid
    threshold sequence every candidate is violated; a consistent candidate
    would indicate a bug in the checker, not a counterexample.
    """
    if not 0 <= max_index <= _MAX_SEARCH_INDEX:
        raise ValueError(f"max_index must lie in 0..{_MAX_SEARCH_INDEX}")
    rows = []
    consistent = []
    indices = list(range(1, max_index + 1))
    for size in range(max_index + 1):
        for combo in combinations(indices, size):
            for tail_blocked in (False, True):
                cand = BlockedCandidate(frozenset(combo), max_index, tail_blocked)
                res = check_candidate(seq, cand)
                verdict = "consistent" if res.consistent else "violated"
                rows.append((cand.describe(),
                             "blocked" if tail_blocked else "unblocked",
                             verdict, res.witness, res.reason))
                if res.consistent:
                    consistent.append(cand)
    return SearchReport(seq.describe(), max_index, len(rows), tuple(rows),
                        tuple(consistent))
