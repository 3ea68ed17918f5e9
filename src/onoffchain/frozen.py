"""Exhaustive refuter for self-blocking cascades on the half-line.

Given distinct positive thresholds t_1, t_2, ... tending to 0, consider 0/1
paths where index i stays 0 forever ("blocked") exactly when, just before
its threshold t_i, every larger index is already 1 - equivalently

    blocked(i)  <=>  for all j > i: j is unblocked and t_j < t_i.

Its threshold half says that t_i is a *right record*.  No assignment
satisfies this rule at every index.  This module makes that refutation
executable for candidates described by a finite blocked set plus an
all-blocked / all-unblocked tail flag.  With the blocked indices
d1 < d2 < ..., the rule fails at

  - d1 (horizon + 1 when none is blocked) if the tail is blocked;
  - d1 if the tail is unblocked and two or more indices are blocked;
  - d if the tail is unblocked, d is the one blocked index and t_d is not
    a right record;
  - otherwise at the first right record after d (after 0 when none is
    blocked).

Each right record is decided with finitely many threshold evaluations (a
tail certificate bounds where thresholds drop below any epsilon), and both
sides of the rule are evaluated at the chosen index, so a violated index is
produced and checked for every candidate.  The index-by-index scan this
replaces is kept in the tests as the oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, partial
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


def _candidate_texts(labels, horizon: int) -> tuple[str, str]:
    """``{1,3}+unblocked>4`` and ``{1,3}+blocked>4``, the candidates with the
    ascending blocked indices labelled "1", "3" within 1..4."""
    inside = ",".join(labels) or "-"
    return f"{{{inside}}}+unblocked>{horizon}", f"{{{inside}}}+blocked>{horizon}"


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


def _decide(seq: ThresholdSequence, later, blocked: tuple[int, ...],
            horizon: int, tail_all_blocked: bool) -> tuple[int | None, str]:
    """Witness and reason for the candidate with ascending blocked indices
    ``blocked`` within 1..horizon; the witness is None if the rule holds there.
    ``later(i)`` is ``_larger_later(seq, i)``, memoized.

    The witness follows the four cases of the module docstring; both sides
    of the rule are then evaluated at it.
    """
    if tail_all_blocked:
        i = blocked[0] if blocked else horizon + 1
    else:
        # the witness needs no right record beyond the horizon, but following
        # them from horizon + 1 compares every threshold pair that a scan of
        # the indices up to the first of them compares, so a duplicate is
        # refused on the same candidates with the same message
        j = horizon + 1
        while j is not None:
            j = later(j)
        if len(blocked) > 1 or (blocked and later(blocked[0]) is not None):
            i = blocked[0]
        else:
            i = blocked[0] + 1 if blocked else 1
            while later(i) is not None:
                i += 1
    stated = tail_all_blocked if i > horizon else i in blocked
    if tail_all_blocked:
        required, why = False, f"index {max(i, horizon) + 1} and beyond stay blocked"
    elif (k := bisect_right(blocked, i)) < len(blocked):
        required, why = False, f"index {blocked[k]} stays blocked"
    elif (j := later(i)) is not None:
        required, why = False, f"t_{j} = {seq.value(j)} exceeds t_{i} = {seq.value(i)}"
    else:
        required, why = True, f"every index beyond {i} is unblocked with a smaller threshold"
    if stated == required:
        # unreachable for well-formed threshold sequences; reported rather
        # than asserted so the exhaustive search can surface a wrong witness
        return None, "no contradiction found within the decidable horizon"
    return i, f"index {i} must be {'blocked' if required else 'unblocked'}: {why}"


def check_candidate(seq: ThresholdSequence,
                    cand: BlockedCandidate) -> ConsistencyResult:
    """Test a candidate assignment against the blocking rule.

    With the blocked indices d1 < d2 < ... the rule fails at

      - d1, or horizon + 1 when none is blocked, for an all-blocked tail
        (the rule forces no index with a blocked index after it);
      - d1 for an unblocked tail with two or more blocked indices (d2 stays
        blocked);
      - d for an unblocked tail with the one blocked index d when t_d is not
        a right record;
      - otherwise at the first right record after d, or after 0 when none
        is blocked (the rule forces it, and it is unblocked).

    Both sides of the rule are evaluated at that index, so a wrong witness
    comes back as a consistent result rather than a silent violation.  Each
    call has its own memo of right records; the tests keep the
    index-by-index scan as the oracle.
    """
    witness, reason = _decide(seq, cache(partial(_larger_later, seq)),
                              tuple(sorted(cand.described)), cand.horizon, cand.tail_all_blocked)
    return ConsistencyResult(witness is None, witness=witness, reason=reason)


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
            if "," in cand:
                cand = f'"{cand}"'
            clean = reason.replace(",", ";")
            yield f"{cand},{tail},{verdict},{w},{clean}"


def exhaustive_search(seq: ThresholdSequence, max_index: int) -> SearchReport:
    """Run the rule check over every candidate described within 1..max_index.

    2**max_index blocked sets, each with both tail flags, decided by the
    witness rule of ``check_candidate`` with one memo of right records for
    the whole search.  For a valid threshold sequence every candidate is
    violated; a consistent candidate would indicate a bug in the checker,
    not a counterexample.
    """
    if not 0 <= max_index <= _MAX_SEARCH_INDEX:
        raise ValueError(f"max_index must lie in 0..{_MAX_SEARCH_INDEX}")
    later = cache(partial(_larger_later, seq))
    rows = []
    consistent = []
    indices = range(1, max_index + 1)
    labels = [str(i) for i in indices]
    for size in range(max_index + 1):
        for combo, named in zip(combinations(indices, size), combinations(labels, size)):
            texts = _candidate_texts(named, max_index)
            for tail_blocked, tail in ((False, "unblocked"), (True, "blocked")):
                witness, reason = _decide(seq, later, combo, max_index, tail_blocked)
                rows.append((texts[tail_blocked], tail,
                             "consistent" if witness is None else "violated", witness, reason))
                if witness is None:
                    consistent.append(BlockedCandidate(frozenset(combo), max_index,
                                                       tail_blocked))
    return SearchReport(seq.describe(), max_index, len(rows), tuple(rows),
                        tuple(consistent))
