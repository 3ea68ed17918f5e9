import re
from itertools import combinations

import pytest

from onoffchain import frozen


GEO = frozen.ThresholdSequence.geometric(0.5)
HARM = frozen.ThresholdSequence.harmonic()


def candidate(blocked, horizon, tail_blocked=False):
    return frozen.BlockedCandidate(frozenset(blocked), horizon, tail_blocked)


class TestThresholdSequences:
    def test_geometric_values_and_certificate(self):
        assert GEO.value(3) == 0.125
        n = GEO.tail_index(0.1)
        assert all(GEO.value(j) < 0.1 for j in range(n, n + 50))
        assert GEO.value(n - 1) >= 0.1

    def test_harmonic_values_and_certificate(self):
        assert HARM.value(4) == 0.2
        n = HARM.tail_index(0.01)
        assert all(HARM.value(j) < 0.01 for j in range(n, n + 50))

    def test_prefix_overrides_then_falls_back(self):
        seq = frozen.ThresholdSequence.with_prefix([0.3, 0.7], GEO)
        assert seq.value(1) == 0.3 and seq.value(2) == 0.7
        assert seq.value(3) == GEO.value(3)
        n = seq.tail_index(0.4)
        assert n >= 3  # the prefix value 0.7 must be excluded
        assert all(seq.value(j) < 0.4 for j in range(n, n + 20))

    def test_validation(self):
        with pytest.raises(ValueError):
            frozen.ThresholdSequence.geometric(1.5)
        with pytest.raises(ValueError):
            frozen.ThresholdSequence.with_prefix([0.0, 0.1], GEO)


class TestRuleChecks:
    def test_empty_unblocked_candidate_forced_at_one(self):
        res = frozen.check_candidate(GEO, candidate([], 0))
        assert not res.consistent
        assert res.witness == 1
        assert "must be blocked" in res.reason

    def test_blocking_one_forces_two(self):
        res = frozen.check_candidate(GEO, candidate([1], 1))
        assert not res.consistent
        assert res.witness == 2

    def test_all_blocked_tail_fails_just_past_horizon(self):
        res = frozen.check_candidate(GEO, candidate([], 5, tail_blocked=True))
        assert not res.consistent
        assert res.witness == 6
        assert "must be unblocked" in res.reason

    def test_blocked_index_with_blocked_tail_fails_at_itself(self):
        res = frozen.check_candidate(GEO, candidate([2], 5, tail_blocked=True))
        assert not res.consistent
        assert res.witness == 2

    def test_non_monotone_prefix_shifts_the_forced_index(self):
        # t = (0.3, 0.7, 0.125, ...): index 1 is not forced (t_2 > t_1);
        # index 2 is the running maximum of the tail, so it is forced
        seq = frozen.ThresholdSequence.with_prefix([0.3, 0.7], GEO)
        res = frozen.check_candidate(seq, candidate([], 0))
        assert res.witness == 2
        ok_then_forced = frozen.check_candidate(seq, candidate([2], 2))
        assert ok_then_forced.witness == 3

    def test_duplicate_thresholds_rejected(self):
        # t_1 = 0.25 from the prefix collides with the tail's t_2 = 0.25
        seq = frozen.ThresholdSequence.with_prefix([0.25], GEO)
        with pytest.raises(frozen.DuplicateThresholdError):
            frozen.check_candidate(seq, candidate([], 1))


class TestExhaustiveSearch:
    @pytest.mark.parametrize("seq", [GEO, HARM], ids=["geometric", "harmonic"])
    def test_all_candidates_violated_at_m10(self, seq):
        report = frozen.exhaustive_search(seq, 10)
        assert report.total == 2 ** 11
        assert report.all_violated
        assert all(row[2] == "violated" and row[3] is not None for row in report.rows)

    def test_m_zero_has_two_candidates(self):
        report = frozen.exhaustive_search(GEO, 0)
        assert report.total == 2
        assert report.all_violated

    def test_max_index_guard(self):
        with pytest.raises(ValueError):
            frozen.exhaustive_search(GEO, 21)

    def test_csv_lines(self):
        report = frozen.exhaustive_search(GEO, 2)
        lines = list(report.csv_lines())
        assert lines[0] == "candidate,tail,verdict,witness_index,reason"
        assert len(lines) == report.total + 1


# ---------------------------------------------------------------------------
# Differential oracles: the refuter as it stood with two threshold scans, one
# for the rule's right-hand side and one for the scan horizon, and as it
# stood with one right-record scan, deciding the rule index by index
# ---------------------------------------------------------------------------

def _first_tail_record(seq, after):
    """Index of the largest threshold among indices > after.

    Exists because thresholds tend to 0; found by scanning up to the tail
    certificate for eps = t_{after+1}.
    """
    eps = seq.value(after + 1)
    n = max(seq.tail_index(eps), after + 2)
    best = after + 1
    best_v = seq.value(best)
    for j in range(after + 2, n):
        v = seq.value(j)
        frozen._distinct(v, best_v, j, best)
        if v > best_v:
            best, best_v = j, v
    return best


def _two_scan_rule(seq, cand, i):
    if cand.tail_all_blocked:
        return False, f"index {max(i, cand.horizon) + 1} and beyond stay blocked"
    later_blocked = [j for j in cand.described if j > i]
    if later_blocked:
        return False, f"index {min(later_blocked)} stays blocked"
    ti = seq.value(i)
    n = seq.tail_index(ti)
    for j in range(i + 1, n):
        tj = seq.value(j)
        frozen._distinct(ti, tj, i, j)
        if tj > ti:
            return False, f"t_{j} = {tj} exceeds t_{i} = {ti}"
    return True, ("every index beyond "
                  f"{i} is unblocked with a smaller threshold")


def _two_scan_check(seq, cand):
    if cand.tail_all_blocked:
        scan_to = min(cand.described) if cand.described else cand.horizon + 1
    else:
        anchor = max(cand.described, default=0)
        anchor = max(anchor, cand.horizon)
        scan_to = _first_tail_record(seq, anchor)
    for i in range(1, scan_to + 1):
        required, why = _two_scan_rule(seq, cand, i)
        stated = cand.blocked(i)
        if stated != required:
            if required:
                reason = f"index {i} must be blocked: {why}"
            else:
                reason = f"index {i} must be unblocked: {why}"
            return frozen.ConsistencyResult(False, witness=i, reason=reason)
    return frozen.ConsistencyResult(True, reason="no contradiction found within the "
                                                 "decidable horizon")


def _one_scan_rule(seq, cand, i):
    if cand.tail_all_blocked:
        return False, f"index {max(i, cand.horizon) + 1} and beyond stay blocked"
    later_blocked = [j for j in cand.described if j > i]
    if later_blocked:
        return False, f"index {min(later_blocked)} stays blocked"
    j = frozen._larger_later(seq, i)
    if j is not None:
        return False, f"t_{j} = {seq.value(j)} exceeds t_{i} = {seq.value(i)}"
    return True, f"every index beyond {i} is unblocked with a smaller threshold"


def _one_scan_check(seq, cand):
    """The refuter as it stood with one right-record scan: the rule decided
    index by index up to the first right record beyond the horizon."""
    if cand.tail_all_blocked:
        scan_to = min(cand.described) if cand.described else cand.horizon + 1
    else:
        scan_to = cand.horizon + 1
        while (j := frozen._larger_later(seq, scan_to)) is not None:
            scan_to = j
    for i in range(1, scan_to + 1):
        required, why = _one_scan_rule(seq, cand, i)
        if cand.blocked(i) != required:
            must = "blocked" if required else "unblocked"
            return frozen.ConsistencyResult(False, witness=i,
                                            reason=f"index {i} must be {must}: {why}")
    return frozen.ConsistencyResult(True, reason="no contradiction found within the "
                                                 "decidable horizon")


def _candidates(m):
    """Every candidate of the search at horizon m, in its order."""
    for size in range(m + 1):
        for combo in combinations(range(1, m + 1), size):
            for tail_blocked in (False, True):
                yield candidate(combo, m, tail_blocked)


def _search_with(check, seq, m):
    """The search report built one candidate object at a time with ``check``."""
    rows, consistent = [], []
    for cand in _candidates(m):
        res = check(seq, cand)
        inside = ",".join(str(i) for i in sorted(cand.described)) or "-"
        tail = "blocked" if cand.tail_all_blocked else "unblocked"
        rows.append((f"{{{inside}}}+{tail}>{m}", tail,
                     "consistent" if res.consistent else "violated", res.witness, res.reason))
        if res.consistent:
            consistent.append(cand)
    return frozen.SearchReport(seq.describe(), m, len(rows), tuple(rows), tuple(consistent))


def _right_record_queries(monkeypatch, check, seq, cand):
    """The indices ``check(seq, cand)`` passes to ``_larger_later``, in order,
    with its result, or the message of the duplicate it meets."""
    asked = []
    scan = frozen._larger_later

    def recording(seq, i):
        asked.append(i)
        return scan(seq, i)

    with monkeypatch.context() as patch:
        patch.setattr(frozen, "_larger_later", recording)
        try:
            outcome = check(seq, cand)
        except frozen.DuplicateThresholdError as exc:
            outcome = str(exc)
    return asked, outcome


def _assert_scan_queries(monkeypatch, seq, cand):
    """``check_candidate`` asks ``_larger_later`` for the indices the index
    scan asks for, once each, in the order of the scan's first queries, and
    ends the same way; returns the indices asked."""
    asked, got = _right_record_queries(monkeypatch, frozen.check_candidate, seq, cand)
    scan_asked, want = _right_record_queries(monkeypatch, _one_scan_check, seq, cand)
    # the scan asks for some indices twice, comparing the same thresholds again
    assert asked == list(dict.fromkeys(scan_asked))
    assert got == want
    return asked


CORPUS = {
    "geometric:0.5": GEO,
    "geometric:0.9": frozen.ThresholdSequence.geometric(0.9),
    "geometric:0.1": frozen.ThresholdSequence.geometric(0.1),
    "harmonic": HARM,
    "[0.3,0.7]@geometric:0.5": frozen.ThresholdSequence.with_prefix([0.3, 0.7], GEO),
    "[0.9,0.01,0.6]@harmonic": frozen.ThresholdSequence.with_prefix([0.9, 0.01, 0.6], HARM),
    "[0.2,0.05,0.4,0.3]@geometric:0.8": frozen.ThresholdSequence.with_prefix(
        [0.2, 0.05, 0.4, 0.3], frozen.ThresholdSequence.geometric(0.8)),
}

DUPLICATE_PREFIXES = [
    ([0.25], GEO, True), ([0.5, 0.1], GEO, False), ([0.3, 0.5, 0.0625], GEO, True),
    ([0.2, 0.9, 0.2], HARM, True),
    ([0.05, 0.3], HARM, False)]    # t_1 == t_19, but no scan compares them


class TestOneRightRecordScan:
    @pytest.mark.parametrize("seq", list(CORPUS.values()), ids=list(CORPUS))
    def test_search_rows_equal_the_two_scan_refuter(self, seq):
        for m in range(13):
            want = _search_with(_one_scan_check, seq, m)
            assert want == _search_with(_two_scan_check, seq, m)
            assert frozen.exhaustive_search(seq, m) == want

    @pytest.mark.parametrize("seq", list(CORPUS.values()), ids=list(CORPUS))
    def test_scan_horizon_is_the_first_tail_record(self, monkeypatch, seq):
        # check_candidate asks _larger_later for the same indices, in the
        # same order, as the index scan; an unblocked tail opens with the
        # scan horizon, the right records from m + 1 to the first tail record
        for m in range(7):
            chain = [m + 1]
            while (j := frozen._larger_later(seq, chain[-1])) is not None:
                chain.append(j)
            assert chain[-1] == _first_tail_record(seq, m)
            for cand in _candidates(m):
                asked = _assert_scan_queries(monkeypatch, seq, cand)
                assert asked[:len(chain)] == ([] if cand.tail_all_blocked else chain)

    @pytest.mark.parametrize("prefix, tail, meets_duplicate", DUPLICATE_PREFIXES)
    def test_duplicates_refused_on_the_same_inputs(self, monkeypatch, prefix, tail,
                                                   meets_duplicate):
        seq = frozen.ThresholdSequence.with_prefix(prefix, tail)
        met = False
        for m in range(5):
            for cand in _candidates(m):
                outcomes = []
                for check in (frozen.check_candidate, _two_scan_check):
                    try:
                        outcomes.append(check(seq, cand))
                    except frozen.DuplicateThresholdError as exc:
                        pair = [int(x) for x in re.findall(r"t_(\d+)", str(exc))]
                        outcomes.append(sorted(pair))
                        if check is frozen.check_candidate:
                            assert pair == sorted(pair)
                assert outcomes[0] == outcomes[1]
                met |= isinstance(outcomes[0], list)
                # the same right-record queries as the index scan, up to
                # the one that meets the duplicate
                _assert_scan_queries(monkeypatch, seq, cand)
        assert met == meets_duplicate

    @pytest.mark.parametrize("prefix, tail, meets_duplicate", DUPLICATE_PREFIXES)
    def test_search_memo_refuses_duplicates_like_the_scan(self, prefix, tail,
                                                          meets_duplicate):
        # one memo of right records for the whole search: it raises on the
        # same searches, with the same message, as a search that checks each
        # candidate afresh
        seq = frozen.ThresholdSequence.with_prefix(prefix, tail)
        raised = False
        for m in range(5):
            try:
                want = _search_with(_one_scan_check, seq, m)
            except frozen.DuplicateThresholdError as exc:
                raised = True
                with pytest.raises(frozen.DuplicateThresholdError) as got:
                    frozen.exhaustive_search(seq, m)
                assert str(got.value) == str(exc)
            else:
                assert frozen.exhaustive_search(seq, m) == want
        assert raised == meets_duplicate

    def test_duplicate_message_names_the_earlier_index_first(self):
        # the two-scan horizon named this pair "t_2 == t_1"
        seq = frozen.ThresholdSequence.with_prefix([0.25], GEO)
        with pytest.raises(frozen.DuplicateThresholdError,
                           match=r"^t_1 == t_2 == 0\.25; "):
            frozen.check_candidate(seq, candidate([], 0))
        with pytest.raises(frozen.DuplicateThresholdError, match=r"^t_2 == t_1 == 0\.25; "):
            _two_scan_check(seq, candidate([], 0))


@pytest.mark.parametrize("call, message", [
    (lambda: frozen.ThresholdSequence("bogus"), "unknown threshold family 'bogus'"),
    (lambda: frozen.ThresholdSequence("prefix", prefix=(0.5,)), "a prefix needs a tail family"),
    (lambda: frozen.ThresholdSequence.harmonic().value(0), "indices start at 1"),
    (lambda: frozen.ThresholdSequence.harmonic().tail_index(0), "eps must be positive"),
    (lambda: frozen.BlockedCandidate(frozenset(), -1, False), "horizon must be >= 0"),
    (lambda: frozen.BlockedCandidate(frozenset({3}), 2, True),
     r"described indices must lie in 1\.\.horizon"),
], ids=["kind", "prefix-no-tail", "value-0", "tail-index-0", "horizon-negative",
        "index-past-horizon"])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
