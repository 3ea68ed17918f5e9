import heapq
import math
import tracemalloc
import warnings
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onoffchain import analytic, core, limit, sim


def unit_chain(n, input_model, lo=1):
    return core.SystemConfig(lo, lo + n - 1, core.RateSchedule.constant(1.0), input_model)


def exp_cdf(rate):
    return lambda x: -np.expm1(-rate * np.asarray(x))


class TestDeterminism:
    def test_same_plan_bit_identical(self):
        cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                core.InputModel.permanent())
        a = sim.simulate(cfg, sim.RandomnessPlan(7, 0), sim.StopRule.horizon(20.0))
        b = sim.simulate(cfg, sim.RandomnessPlan(7, 0), sim.StopRule.horizon(20.0))
        assert a.events == b.events and a.horizon == b.horizon

    def test_reps_only_permute_samples(self):
        cfg = unit_chain(2, core.InputModel.permanent())
        dist = sim.sample_first_reception(cfg, 1, 6, seed=99)
        singles = sorted(
            sim.simulate(cfg, sim.RandomnessPlan(99, r),
                         sim.StopRule.first_reception_at(1)).horizon
            for r in range(6))
        assert list(dist.samples) == singles


class TestGoldenStreams:
    """Realized streams pinned to literals: the block layout and the two gap
    maps are the reproducibility contract, so any change to them fails here."""

    RATES = core.RateSchedule.explicit([1.3, 2.7])

    def test_recovery_points_through_capped_blocks(self):
        # 95821 points need eight blocks, the last two of 65536 draws each
        pts = sim.RandomnessPlan(2024, 3).recovery_points(5, 16.0, 6000.0)
        assert len(pts) == 95821
        assert float(pts[0]) == 0.09344380676465514
        assert float(pts[-1]) == 5999.931022308767

    def test_recovery_gaps_invert_uniforms(self):
        # block b of node i's stream: gaps -log1p(-u) / rate(i) of the uniforms
        # of Philox keyed (seed, rep << 32 | (i + 1)) at counter word 2 = b
        rate, upto = 16.0, 30.0
        pts = sim.RandomnessPlan(2024, 3).recovery_points(5, rate, upto)
        blocks, last = [], 0.0
        for b, size in enumerate((16, 64, 256, 1024)):
            bitgen = np.random.Philox(key=[2024, 3 << 32 | 6], counter=[0, 0, b, 0])
            u = np.random.Generator(bitgen).random(size)
            blocks.append(last + np.cumsum(-np.log1p(-u) / rate))
            last = blocks[-1][-1]
        expect = np.concatenate(blocks)
        assert last > upto
        assert np.array_equal(pts, expect[expect <= upto])

    @pytest.mark.parametrize("model, events", [
        (core.InputModel.exponential(1.5), [
            ("input", 0.09055987106059608, None, None),
            ("recovery", 0.14588141556776296, 2, 2),
            ("input", 0.8598960908911734, None, None),
            ("reception", 0.8598960908911734, 2, 2),
            ("recovery", 0.9081152741906175, 2, 2),
            ("recovery", 1.414974266028494, 1, 1),
            ("input", 1.5372689791997107, None, None),
            ("reception", 1.5372689791997107, 1, 2),
            ("recovery", 1.6100990139720524, 1, 1),
            ("recovery", 1.6333638775097157, 2, 2),
        ]),
        (core.InputModel.deterministic(0.7), [
            ("recovery", 0.14588141556776296, 2, 2),
            ("input", 0.7, None, None),
            ("reception", 0.7, 2, 2),
            ("recovery", 0.7793463416996607, 2, 2),
            ("input", 1.4, None, None),
            ("reception", 1.4, 2, 2),
            ("recovery", 1.414974266028494, 1, 1),
            ("recovery", 1.6333638775097157, 2, 2),
        ]),
        (core.InputModel.empirical([0.2, 0.5, 1.0, 3.0]), [
            ("recovery", 0.14588141556776296, 2, 2),
            ("input", 0.2, None, None),
            ("reception", 0.2, 2, 2),
            ("recovery", 0.39786076461063735, 2, 2),
            ("input", 1.2, None, None),
            ("reception", 1.2, 2, 2),
            ("recovery", 1.2878685828766843, 2, 2),
            ("recovery", 1.414974266028494, 1, 1),
        ]),
    ], ids=["exp", "det", "empirical"])
    def test_short_log(self, model, events):
        log = sim.simulate(core.SystemConfig(1, 2, self.RATES, model),
                           sim.RandomnessPlan(11, 0), sim.StopRule.horizon(2.0))
        assert log.horizon == 2.0
        assert log.events == events

    def test_empty_chain_log(self):
        log = sim.simulate(core.SystemConfig(3, 2, self.RATES, core.InputModel.exponential(1.5)),
                           sim.RandomnessPlan(11, 0), sim.StopRule.horizon(2.0))
        assert log.horizon == 2.0
        assert log.events == [("input", 0.09055987106059608, None, None),
                              ("input", 0.8598960908911734, None, None),
                              ("input", 1.5372689791997107, None, None)]


class _Cursor:
    """Reads one keyed stream point by point: ``next`` gives every point in
    turn, ``next_after(t)`` the first point after t, for nondecreasing t."""

    def __init__(self, stream):
        self._stream, self._pts, self._pos = stream, [], 0

    def next(self):
        pos = self._pos
        if pos == len(self._pts):
            self._pts = self._stream.next_block().tolist()
            pos = 0
        self._pos = pos + 1
        return self._pts[pos]

    def next_after(self, t):
        pts = self._pts
        while not pts or pts[-1] <= t:
            pts = self._pts = self._stream.next_block().tolist()
            self._pos = 0
        pos = self._pos
        p = pts[pos]
        if p <= t:
            pos = bisect_right(pts, t, pos + 1)
            p = pts[pos]
            self._pos = pos
        return p


def _reference_simulate(config, plan, stop):
    """``sim.simulate`` as an event-by-event heap loop: the oracle of the
    cascade engine, which must return the same events and horizon."""
    lo, hi = config.left_node, config.right_node
    n = hi - lo + 1
    permanent = config.input.is_permanent
    sim._check_stop(config, stop)
    cap = stop.time if stop.kind == sim.HORIZON else math.inf

    rates = config.node_rates()
    streams = [_Cursor(sim._recovery_stream(plan, lo + j, rates[j])) for j in range(n)]
    # an empty chain reads on[-1] == 0, so its inputs reach no node
    on = bytearray(max(n, 1))
    heap = [(streams[j].next_after(0.0), j) for j in range(n)]
    heapq.heapify(heap)
    ins = None if permanent else _Cursor(sim._KeyedStream(plan.input_key(), config.input.quantile))
    next_in = math.inf if permanent else ins.next()

    stop_node = stop.node if stop.kind != sim.HORIZON else None
    want = stop.count if stop.kind == sim.RECEPTION_COUNT else 1
    events, seen, horizon = [], 0, cap
    while True:
        t_rec = heap[0][0] if heap else math.inf
        if t_rec <= next_in:
            if t_rec > cap:
                break
            t, j = heapq.heappop(heap)
            on[j] = 1
            events.append((core.RECOVERY, t, lo + j, lo + j))
            if not (permanent and j == n - 1):
                continue
            events.append((core.INPUT, t, None, None))
        else:
            t = next_in
            if t > cap:
                break
            events.append((core.INPUT, t, None, None))
            next_in = ins.next()
            if not on[n - 1]:
                continue
        # sweep the maximal all-on suffix
        a = n - 1
        while a > 0 and on[a - 1]:
            a -= 1
        events.append((core.RECEPTION, t, lo + a, hi))
        for k in range(a, n):
            on[k] = 0
            heapq.heappush(heap, (streams[k].next_after(t), k))
        if stop_node is not None and lo + a <= stop_node:
            seen += 1
            if seen >= want:
                horizon = t
                break
    return core.EventLog(lo, hi, horizon, permanent, events)


def per_rep_horizons(cfg, node, reps, seed):
    stop = sim.StopRule.first_reception_at(node)
    return sorted(sim.simulate(cfg, sim.RandomnessPlan(seed, r), stop).horizon
                  for r in range(reps))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


_GRID_RATES = {
    "explicit": lambda lo: core.RateSchedule.explicit([1.3, 0.4, 2.0, 0.9, 1.1, 3.0],
                                                      first_index=lo),
    "constant": lambda lo: core.RateSchedule.constant(1.0),
    "linear": lambda lo: core.RateSchedule.linear(0.5),
    "logsq": lambda lo: core.RateSchedule.log_square(),
}
_GRID_INPUTS = {
    "permanent": core.InputModel.permanent(),
    "exp": core.InputModel.exponential(1.7),
    "det": core.InputModel.deterministic(0.3),
    "empirical": core.InputModel.empirical([0.1, 0.5, 2.0]),
}
# parametric schedules start at node 1, so only explicit rates take lo = 0
_GRID = [(rates, lo, model) for rates in _GRID_RATES for lo in (0, 2)
         for model in _GRID_INPUTS if lo == 2 or rates == "explicit"]


class TestBatchedKernel:
    """The batched first-reception kernel against its oracle ``simulate``."""

    def test_philox_matches_draw_block(self):
        keys = [(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0),
                (2024, 3 << 32 | 6)]
        key0 = np.array([k for k, _ in keys], dtype=np.uint64)
        key1 = np.array([k for _, k in keys], dtype=np.uint64)
        for block in range(8):
            size = min(16 * 4**block, 65536)
            got = sim._philox_uniforms(key0, key1, block, size)
            assert got.shape == (len(keys), size)
            for row, (k0, k1) in zip(got, keys):
                assert np.array_equal(bits(row), bits(sim._draw_block(k0, k1, block, size)))

    @pytest.mark.parametrize("rates, lo, model", _GRID,
                             ids=[f"{r}-lo{lo}-{m}" for r, lo, m in _GRID])
    def test_matches_per_rep_simulate(self, monkeypatch, rates, lo, model):
        # a batch of a few replications, so 40 replications join it in
        # several groups
        monkeypatch.setattr(sim, "_CHUNK_POINTS", 2048)
        cfg = core.SystemConfig(lo, lo + 5, _GRID_RATES[rates](lo), _GRID_INPUTS[model])
        for node in (lo, lo + 2, lo + 5):
            got = sim.sample_first_reception(cfg, node, 40, seed=11)
            assert np.array_equal(bits(got.samples), bits(per_rep_horizons(cfg, node, 40, 11)))

    def test_several_chunks_at_default_sizes(self):
        cfg = unit_chain(48, core.InputModel.permanent())
        reps, seed = 3 * (sim._CHUNK_POINTS // (48 * sim._FIRST_BLOCK)) - 7, 2**64 - 1
        got = sim.sample_first_reception(cfg, 1, reps, seed)
        assert np.array_equal(bits(got.samples), bits(per_rep_horizons(cfg, 1, reps, seed)))

    @pytest.mark.parametrize("rates, model, last, reps, spills", [
        # the fast right node recovers far more than 80 times before the
        # slow left one does
        ([0.05, 40.0], core.InputModel.permanent(), 1, 30, 20),
        # inputs arrive far more than 80 times before the node recovers
        ([0.05], core.InputModel.exponential(40.0), 1, 30, 20),
        # a ten times slower left node passes the real budget as well
        ([0.005, 40.0], core.InputModel.permanent(), None, 12, 1),
        ([0.005], core.InputModel.exponential(40.0), None, 12, 1),
    ], ids=["recovery-stream", "input-stream", "recovery-stream-budget", "input-stream-budget"])
    def test_spilled_replications_handed_to_simulate(self, monkeypatch, rates, model, last,
                                                     reps, spills):
        # a budget of blocks 0 and 1 (80 points) stands in for the real one,
        # which the faster chains would pass only after many more events
        if last is not None:
            monkeypatch.setattr(sim, "_LAST_BLOCK", last)
        # a batch of 4 rows, so replications join in the lanes that rerun
        # ones gave back
        monkeypatch.setattr(sim, "_CHUNK_POINTS", 128)
        calls = []
        entry = sim._reception_times

        def counted(*args):
            calls.append(args[1].rep)
            return entry(*args)

        # a handed-off replication is rerun by the engine's reception entry
        monkeypatch.setattr(sim, "_reception_times", counted)
        cfg = core.SystemConfig(1, len(rates), core.RateSchedule.explicit(rates), model)
        got = sim.sample_first_reception(cfg, 1, reps, seed=3)
        assert len(calls) >= spills
        monkeypatch.setattr(sim, "_reception_times", entry)
        assert np.array_equal(bits(got.samples), bits(per_rep_horizons(cfg, 1, reps, 3)))

    @pytest.mark.parametrize("reps, seed", [(0, 1), (2**32 + 1, 1), (5, -1), (5, 2**64)],
                             ids=["reps-low", "reps-high", "seed-low", "seed-high"])
    def test_range_checked_before_any_work(self, monkeypatch, reps, seed):
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated or drew before the range check")

        monkeypatch.setattr(sim, "_StreamBatch", forbidden)
        monkeypatch.setattr(sim, "_philox_uniforms", forbidden)
        monkeypatch.setattr(sim, "_draw_blocks", forbidden)
        monkeypatch.setattr(sim.np, "empty", forbidden)
        with pytest.raises(ValueError):
            sim.sample_first_reception(unit_chain(2, core.InputModel.permanent()), 1, reps, seed)

    def test_peak_memory_flat_in_reps(self):
        # under exponential input the input stream joins the n recovery
        # streams of a replication, and all of them set the batch size
        for model, streams in ((core.InputModel.permanent(), 2),
                               (core.InputModel.exponential(1.0), 3)):
            cfg = unit_chain(2, model)
            chunk = sim._CHUNK_POINTS // (streams * sim._FIRST_BLOCK)
            peaks = []
            for reps in (2 * chunk, 10 * chunk):
                tracemalloc.start()
                try:
                    sim.sample_first_reception(cfg, 1, reps, seed=8)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # the output array and its sorted copy, 16 bytes per replication
            assert peaks[1] - peaks[0] <= 16 * 8 * chunk + 2**16, model

    def test_ladder_rung_peak_memory(self):
        # the batch holds about the point budget whatever the replication
        # count, since a stream's rows are reused once it moves on or ends;
        # the warm-up call keeps one-time imports and caches out of the
        # measured peak
        rates = core.RateSchedule.linear(1.0)
        limit.sample_truncation_law(1, 32, rates, 20, seed=5)
        for reps in (400, 2000):
            tracemalloc.start()
            try:
                limit.sample_truncation_law(1, 32, rates, reps, seed=31)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 2**20, reps

    @pytest.mark.parametrize("seed", [7, 2**64 - 1], ids=["seed7", "seed-max"])
    @pytest.mark.parametrize("k, l, reps", [(1, 32, 100), (50, 200, 60)],
                             ids=["l32", "criterion9-k50"])
    def test_truncation_ladder_in_lockstep(self, monkeypatch, k, l, reps, seed):
        # the reduced chains that limit.sample_truncation_law samples read
        # later blocks of nearly every input stream and of the fast nodes'
        # recovery streams; none of their replications leaves the kernel.
        # A budget of 2**15 points admits 64 rows of the l = 32 rung, so its
        # 100 replications join in two groups
        monkeypatch.setattr(sim, "_CHUNK_POINTS", 2**15)
        cfg = analytic.permanent_reduce(core.SystemConfig(
            k, l, core.RateSchedule.linear(1.0), core.InputModel.permanent()))
        reruns, groups = [], {}
        entry, admit = sim._reception_times, sim._StreamBatch.admit

        def counted_entry(*args):
            reruns.append(args[1].rep)
            return entry(*args)

        def counted_admit(batch, s, keys):
            groups[id(batch)] = groups.get(id(batch), 0) + 1
            return admit(batch, s, keys)

        monkeypatch.setattr(sim, "_reception_times", counted_entry)
        monkeypatch.setattr(sim._StreamBatch, "admit", counted_admit)
        got = sim.sample_first_reception(cfg, k, reps, seed)
        monkeypatch.undo()
        # at least two groups join, each into the input and recovery batches
        assert len(groups) == 2 and min(groups.values()) >= 2
        assert reruns == []
        assert np.array_equal(bits(got.samples), bits(per_rep_horizons(cfg, k, reps, seed)))

    def test_rows_join_while_others_read_later_blocks(self, monkeypatch):
        # with a small budget the l = 32 rung admits replications while
        # streams of the running ones sit in a later block (1 to 3), and
        # every replication still gets the horizon of its own run
        monkeypatch.setattr(sim, "_CHUNK_POINTS", 2048)
        cfg = analytic.permanent_reduce(core.SystemConfig(
            1, 32, core.RateSchedule.linear(1.0), core.InputModel.permanent()))
        seen, admit, reps = set(), sim._StreamBatch.admit, 60

        def watched_admit(batch, s, keys):
            # a group fills every free lane, so the indices it is not given
            # are the running streams; only the last group, which holds
            # replication reps - 1, may leave lanes of ended ones
            if int(keys.max()) >> 32 < reps - 1:
                live = np.setdiff1d(np.arange(len(batch._streams)), s)
                seen.update(batch._streams["block"][live].tolist())
            return admit(batch, s, keys)

        monkeypatch.setattr(sim._StreamBatch, "admit", watched_admit)
        got = sim.sample_first_reception(cfg, 1, reps, 4242)
        monkeypatch.undo()
        assert seen & {1, 2, 3}
        assert np.array_equal(bits(got.samples), bits(per_rep_horizons(cfg, 1, reps, 4242)))

    @pytest.mark.parametrize("kind", ["recovery", "exp-input", "empirical-input"])
    def test_later_blocks_continue_keyed_streams(self, monkeypatch, kind):
        # the points a lookup reads in block b = 1..4 are those of the b-th
        # next_block() of the same stream read alone, bit for bit: every
        # point with a budget of blocks 0 to 3, and every 37th at the default
        # budget, where one lookup skips windows and crosses blocks
        seed, reps = 2**64 - 1, 5
        plans = [sim.RandomnessPlan(seed, r) for r in range(reps)]
        if kind == "recovery":
            keys = [plan.recovery_key(4) for plan in plans]
            stream = lambda i: sim._recovery_stream(plans[i], 4, 2.5)
            gap = lambda u, s: sim._exp_gaps(u, 2.5)
        else:
            model = (core.InputModel.exponential(1.7) if kind == "exp-input"
                     else core.InputModel.empirical([0.1, 0.5, 2.0]))
            keys = [plan.input_key() for plan in plans]
            stream = lambda i: sim._KeyedStream(keys[i], model.quantile)
            gap = lambda u, s: model.quantile(u)
        for last, stride in ((sim._LAST_BLOCK, 37), (3, 1)):
            monkeypatch.setattr(sim, "_LAST_BLOCK", last)
            streams = [stream(i) for i in range(reps)]
            want = np.concatenate([np.array([s.next_block() for s in streams])
                                   for _ in range(last + 1)], axis=1)
            before = np.concatenate((np.full((reps, 1), -np.inf), want), axis=1)
            batch = sim._StreamBatch(seed, gap, reps)
            every = np.arange(reps)
            batch.admit(every, np.array([k1 for _, k1 in keys], dtype=np.uint64))
            cols = np.arange(stride - 1, want.shape[1], stride)
            got = np.empty((reps, len(cols)))
            for j, col in enumerate(cols):
                got[:, j] = batch.after(every, before[:, col], np.less_equal)
            assert np.array_equal(bits(got), bits(want[:, cols]))
            # past block last the batch refuses
            assert np.isnan(batch.after(every, want[:, -1], np.less_equal)).all()


_ORACLE_RATES = {
    "explicit": core.RateSchedule.explicit(([1.3, 0.4, 2.0, 0.9, 1.1, 3.0] * 6)[:32]),
    "constant": core.RateSchedule.constant(1.0),
    "linear": core.RateSchedule.linear(0.5),
    "logsq": core.RateSchedule.log_square(),
}


def assert_same_run(cfg, plan, stop):
    want = _reference_simulate(cfg, plan, stop)
    got = sim.simulate(cfg, plan, stop)
    assert got.horizon == want.horizon
    assert got.events == want.events
    assert got.permanent == want.permanent
    return got


class TestCascadeEngine:
    """The cascade engine against the event-by-event heap loop."""

    @pytest.mark.parametrize("rates", list(_ORACLE_RATES))
    @pytest.mark.parametrize("model", list(_GRID_INPUTS))
    def test_matches_heap_loop(self, rates, model):
        for n in (0, 1, 2, 4, 12, 32):
            if n == 0 and model == "permanent":
                continue
            cfg = core.SystemConfig(1, n, _ORACLE_RATES[rates], _GRID_INPUTS[model])
            stops = [sim.StopRule.horizon(25.0)]
            for node in sorted({1, (1 + n) // 2, n} if n else ()):
                stops += [sim.StopRule.first_reception_at(node),
                          sim.StopRule.reception_count(node, 15)]
            for stop in stops:
                for rep in range(3):
                    plan = sim.RandomnessPlan(11 + rep, rep)
                    log = assert_same_run(cfg, plan, stop)
                    # the cascade cut at each node is the full run read there
                    for node in range(1, n + 1) if rep == 0 else ():
                        times, horizon = sim._reception_times(cfg, plan, stop, node)
                        assert horizon == log.horizon
                        assert np.array_equal(bits(times), bits(log.receptions_at(node)))

    def test_filter_is_the_orbit_of_the_index_map(self):
        # from a reception at signal A[i] the node recovers at the first point
        # after it and receives next at the first signal at or after that:
        # h(i) = searchsorted(A, P[searchsorted(P, A[i], "right")], "left").
        # Integer times put signals on points and on each other.
        rng = np.random.default_rng(3)

        class Blocks:
            def __init__(self, pts):
                self._blocks = iter(np.split(pts, range(5, len(pts), 5)))

            def next_block(self):
                return next(self._blocks)

        for _ in range(300):
            pts = np.cumsum(rng.integers(0, 3, 60)).astype(float)
            signals = np.sort(rng.integers(0, pts[-1], 25)).astype(float)
            want, i = [], bisect_left(signals, pts[bisect_right(pts, 0.0)])
            while i < len(signals):
                want.append(i)
                i = bisect_left(signals, pts[bisect_right(pts, signals[i])])
            node, got, recs = sim._Node(Blocks(pts)), [], []
            for window in np.split(np.arange(len(signals)), sorted(rng.integers(1, 25, 2))):
                if len(window):
                    hit, rec = node.receive(signals[window])
                    got += window[hit].tolist()
                    recs += rec.tolist()
            assert got == want
            assert recs == [pts[bisect_right(pts, signals[i])] for i in want]

    def test_zero_gaps_match_heap_loop(self, monkeypatch):
        # u = 0 gives a zero gap: a repeated point or input, or one at t = 0.
        # A node turns on only at a point after its last reception, and a
        # repeated input finds the last node off
        draw = sim._draw_block

        def with_zeros(key0, key1, block, size):
            u = draw(key0, key1, block, size)
            u[::5] = 0.0
            return u

        monkeypatch.setattr(sim, "_draw_block", with_zeros)
        for model in ("permanent", "exp"):
            cfg = core.SystemConfig(1, 4, core.RateSchedule.explicit([1.3, 0.4, 2.0, 0.9]),
                                    _GRID_INPUTS[model])
            for stop in (sim.StopRule.horizon(40.0), sim.StopRule.reception_count(2, 20)):
                assert_same_run(cfg, sim.RandomnessPlan(6, 1), stop)

    def test_matches_heap_loop_on_a_long_run(self):
        # the 2l run of sample_extension(3, 16, 1200, linear(1)), whose top
        # stream reaches a block of 65536 points
        cfg = core.SystemConfig(1, 32, core.RateSchedule.linear(1.0), core.InputModel.permanent())
        assert_same_run(cfg, sim.RandomnessPlan(5, 0), sim.StopRule.horizon(1200.0))

    def test_interreception_matches_heap_loop(self):
        cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                core.InputModel.exponential(2.0))
        for node in (1, 3):
            dist = sim.sample_interreception(cfg, node, 400, seed=8)
            stop = sim.StopRule.reception_count(node, 400)
            times = _reference_simulate(cfg, sim.RandomnessPlan(8, 0), stop).receptions_at(node)
            assert len(times) == 400
            want = np.sort(np.diff(times, prepend=0.0))
            assert np.array_equal(bits(dist.samples), bits(want))

    def test_extension_matches_heap_loop(self):
        rates = core.RateSchedule.linear(1.0)
        ext = limit.sample_extension(3, 12, 80.0, rates, seed=4)
        plan, stop = sim.RandomnessPlan(4, 0), sim.StopRule.horizon(80.0)
        logs = [_reference_simulate(core.SystemConfig(1, l, rates, core.InputModel.permanent()),
                                    plan, stop) for l in (12, 24)]
        gaps = [sim.EmpiricalDistribution.from_values(
            np.diff(log.receptions_at(3), prepend=0.0)) for log in logs]
        assert ext.sensitivity_ks == sim.ks_statistic(*gaps)
        assert ext.log.events == logs[0].restrict(3).events


class TestPotentialPoints:
    def test_single_node_permanent_uses_first_point(self):
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([0.8]),
                                core.InputModel.permanent())
        plan = sim.RandomnessPlan(21, 4)
        log = sim.simulate(cfg, plan, sim.StopRule.first_reception_at(1))
        offered = plan.recovery_points(1, 0.8, log.horizon + 1.0)
        assert log.horizon == offered[0]

    def test_input_change_leaves_recovery_streams_identical(self):
        plan = sim.RandomnessPlan(13, 2)
        rates = core.RateSchedule.explicit([1.0, 2.0])
        a = sim.simulate(core.SystemConfig(1, 2, rates, core.InputModel.permanent()),
                         plan, sim.StopRule.horizon(15.0))
        b = sim.simulate(core.SystemConfig(1, 2, rates, core.InputModel.exponential(0.5)),
                         plan, sim.StopRule.horizon(15.0))
        for node, rate in ((1, 1.0), (2, 2.0)):
            offered = set(plan.recovery_points(node, rate, 15.0))
            assert set(a.recoveries_at(node)) <= offered
            assert set(b.recoveries_at(node)) <= offered

    def test_recovery_is_first_offered_point_after_switch_off(self):
        plan = sim.RandomnessPlan(5, 0)
        cfg = unit_chain(2, core.InputModel.exponential(2.0))
        log = sim.simulate(cfg, plan, sim.StopRule.horizon(25.0))
        for node in (1, 2):
            offered = plan.recovery_points(node, 1.0, 30.0)
            downs = [0.0] + log.receptions_at(node)
            recs = log.recoveries_at(node)
            for off_t, rec in zip(downs, recs):
                expect = offered[np.searchsorted(offered, off_t, side="right")]
                assert rec == expect


class TestAgainstExactMeans:
    def test_two_unit_nodes_permanent_mean_is_two(self):
        dist = sim.sample_first_reception(unit_chain(2, core.InputModel.permanent()),
                                          1, 20000, seed=1)
        assert abs(dist.mean() - 2.0) <= 3 * dist.stderr()

    def test_three_unit_nodes_permanent_mean_is_8_3(self):
        dist = sim.sample_first_reception(unit_chain(3, core.InputModel.permanent()),
                                          1, 20000, seed=2)
        assert abs(dist.mean() - 8.0 / 3.0) <= 3 * dist.stderr()

    def test_single_node_permanent_is_unit_exponential(self):
        dist = sim.sample_first_reception(unit_chain(1, core.InputModel.permanent()),
                                          1, 20000, seed=3)
        assert abs(dist.mean() - 1.0) <= 3 * dist.stderr()
        d = sim.ks_one_sample(dist, exp_cdf(1.0))
        assert d < sim.ks_one_sample_critical(dist.count, 0.01)


class TestInterreception:
    def test_convolution_identity_for_last_node(self):
        # gaps at the entry node: recovery plus wait for the next input
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([2.0]),
                                core.InputModel.exponential(3.0))
        dist = sim.sample_interreception(cfg, 1, 4000, seed=8)
        expect = 1.0 / 2.0 + 1.0 / 3.0
        assert abs(dist.mean() - expect) <= 3 * dist.stderr()

    def test_permanent_gaps_are_exponential(self):
        cfg = core.SystemConfig(1, 2, core.RateSchedule.explicit([1.0, 1.7]),
                                core.InputModel.permanent())
        dist = sim.sample_interreception(cfg, 2, 4000, seed=9)
        d = sim.ks_one_sample(dist, exp_cdf(1.7))
        assert d < sim.ks_one_sample_critical(dist.count, 0.01)

    def test_gaps_uncorrelated_at_lag_one(self):
        cfg = unit_chain(2, core.InputModel.permanent())
        gaps = sim.sample_interreception(cfg, 1, 10000, seed=10)
        # re-derive in run order (samples are sorted in the distribution)
        log = sim.simulate(cfg, sim.RandomnessPlan(10, 0),
                           sim.StopRule.reception_count(1, 10000))
        raw = np.diff(np.concatenate([[0.0], log.receptions_at(1)]))
        assert sorted(raw) == sorted(gaps.samples)
        x, y = raw[:-1], raw[1:]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3.0 / math.sqrt(len(x))


class TestCoupling:
    def test_identical_configs_identical_logs(self):
        cfg = unit_chain(2, core.InputModel.deterministic(1.0))
        a, b = sim.coupled_compare(cfg, cfg, seed=4, stop=sim.StopRule.horizon(9.0))
        assert a.events == b.events

    def test_deterministic_inputs_stay_ordered(self):
        rates = core.RateSchedule.explicit([1.0, 1.0])
        fast = core.SystemConfig(1, 2, rates, core.InputModel.deterministic(0.5))
        slow = core.SystemConfig(1, 2, rates, core.InputModel.deterministic(0.8))
        a, b = sim.coupled_compare(fast, slow, seed=5, stop=sim.StopRule.horizon(20.0))
        ta, tb = a.input_times(), b.input_times()
        assert all(x < y for x, y in zip(ta, tb))

    def test_rate_mismatch_rejected(self):
        a = core.SystemConfig(1, 2, core.RateSchedule.explicit([1.0, 2.0]),
                              core.InputModel.permanent())
        b = core.SystemConfig(1, 2, core.RateSchedule.explicit([2.0, 1.0]),
                              core.InputModel.permanent())
        with pytest.raises(ValueError, match="rates"):
            sim.coupled_compare(a, b, seed=6, stop=sim.StopRule.horizon(5.0))

    def test_empirical_approaches_its_law(self):
        # first-reception law under empirical inputs drawn from the true law
        # drifts toward the true-law result as the empirical sample grows
        rates = core.RateSchedule.explicit([1.0, 1.0])
        truth = core.SystemConfig(1, 2, rates, core.InputModel.exponential(1.0))
        ref = sim.sample_first_reception(truth, 1, 4000, seed=70)
        rng = np.random.default_rng(71)
        dists = []
        for m in (40, 4000):
            emp = core.SystemConfig(1, 2, rates,
                                    core.InputModel.empirical(rng.exponential(1.0, m)))
            got = sim.sample_first_reception(emp, 1, 4000, seed=70)
            dists.append(sim.ks_statistic(got, ref))
        assert dists[1] < dists[0]


class TestStatistics:
    def test_ks_identical_and_disjoint(self):
        a = sim.EmpiricalDistribution.from_values([0.1, 0.2, 0.3])
        assert sim.ks_statistic(a, a) == 0.0
        b = sim.EmpiricalDistribution.from_values([9.9])
        lone = sim.EmpiricalDistribution.from_values([0.1])
        assert sim.ks_statistic(lone, b) == 1.0

    def test_same_law_below_critical(self):
        rng = np.random.default_rng(123)
        a = sim.EmpiricalDistribution.from_values(rng.exponential(1.0, 100000))
        b = sim.EmpiricalDistribution.from_values(rng.exponential(1.0, 100000))
        assert sim.ks_statistic(a, b) < sim.ks_two_sample_critical(a.count, b.count, 0.01)

    def test_dominance_by_rate_ordering(self):
        rng = np.random.default_rng(42)
        lower = sim.EmpiricalDistribution.from_values(rng.exponential(0.5, 100000))
        upper = sim.EmpiricalDistribution.from_values(rng.exponential(1.0, 100000))
        band = sim.dkw_band(100000, 0.005) * 2
        assert sim.dominance_check(lower, upper, band).dominates
        swapped = sim.dominance_check(upper, lower, band)
        assert not swapped.dominates and swapped.witness is not None

    def test_dominance_refuses_a_nan_band(self):
        # band 0 finds a deficit of 1.0 here; a NaN band compared false
        # everywhere and reported dominance
        lower = sim.EmpiricalDistribution.from_values([5.0])
        upper = sim.EmpiricalDistribution.from_values([1.0])
        assert sim.dominance_check(lower, upper, 0.0).max_deficit == 1.0
        for band in (math.nan, -0.1):
            with pytest.raises(ValueError, match="band must be >= 0"):
                sim.dominance_check(lower, upper, band)

    @pytest.mark.parametrize("cdf, match", [
        (lambda x: np.where(x > 0.5, np.nan, exp_cdf(1.0)(x)), r"\[0, 1\], got nan"),
        (lambda x: np.full(len(x), 7.0), r"\[0, 1\], got 7.0"),
        (lambda x: exp_cdf(1.0)(x) - 0.5, r"\[0, 1\], got -"),
        (lambda x: exp_cdf(1.0)(x)[:-1], "shape"),
        (lambda x: 0.5, "shape"),
    ], ids=["nan-at-one-sample", "seven", "negative", "short", "scalar"])
    def test_ks_one_sample_refuses_a_bad_reference(self, cdf, match):
        # a NaN distance compared below every critical value, and a CDF of
        # 7.0 gave a distance of 7.0
        dist = sim.EmpiricalDistribution.from_values([0.1, 0.4, 0.9, 2.0])
        with pytest.raises(ValueError, match=match):
            sim.ks_one_sample(dist, cdf)

    @pytest.mark.parametrize("n, alpha", [(0, 0.01), (-5, 0.01), (math.nan, 0.01),
                                          (100, 0.0), (100, 1.0), (100, 2.0), (100, 3.0),
                                          (100, -0.1), (100, math.nan)])
    def test_dkw_band_refuses_what_it_cannot_answer(self, n, alpha):
        # n = 0 and alpha = 0 divided by zero, alpha > 2 failed in log,
        # and alpha in [1, 2] gave a band of no level (0.0 at alpha = 2)
        with pytest.raises(ValueError, match="need n > 0 and 0 < alpha < 1"):
            sim.dkw_band(n, alpha)

    def test_two_sample_critical_refusals(self):
        for na, nb in ((0, 0), (0, 10), (10, -1)):
            with pytest.raises(ValueError, match="sample sizes must be positive"):
                sim.ks_two_sample_critical(na, nb, 0.01)
        with pytest.raises(ValueError, match="0 < alpha < 1"):
            sim.ks_two_sample_critical(10, 10, 1.5)
        assert sim.ks_two_sample_critical(10, 10, 1e-9) == sim.dkw_band(5.0, 1e-9)

    def test_self_dominance_with_zero_band(self):
        rng = np.random.default_rng(7)
        d = sim.EmpiricalDistribution.from_values(rng.exponential(1.0, 1000))
        assert sim.dominance_check(d, d, 0.0).dominates

    def test_empirical_distribution_validation(self):
        with pytest.raises(ValueError):
            sim.EmpiricalDistribution.from_values([])
        with pytest.raises(ValueError):
            sim.EmpiricalDistribution.from_values([1.0, -2.0])
        d = sim.EmpiricalDistribution.from_values([2.0, 1.0])
        assert list(d.samples) == [1.0, 2.0]
        assert d.cdf(1.5) == 0.5
        assert list(d.export_lines()) == ["1.0", "2.0"]

    def test_cdf_refuses_nan_points(self):
        # searchsorted puts a NaN past every sample, so the cdf read 1.0
        d = sim.EmpiricalDistribution.from_values([1.0, 2.0, 3.0])
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="cdf points must not be NaN"):
                d.cdf(x)
        assert d.cdf(math.inf) == 1.0 and d.cdf(-math.inf) == 0.0


class TestEngineEdges:
    def test_empty_chain_emits_inputs_only(self):
        cfg = core.SystemConfig(1, 0, core.RateSchedule.constant(1.0),
                                core.InputModel.deterministic(2.0))
        log = sim.simulate(cfg, sim.RandomnessPlan(0, 0), sim.StopRule.horizon(7.0))
        assert log.input_times() == [2.0, 4.0, 6.0]
        assert all(e[0] == core.INPUT for e in log.events)
        with pytest.raises(ValueError):
            sim.simulate(cfg, sim.RandomnessPlan(0, 0), sim.StopRule.first_reception_at(1))

    def test_blocked_input_recorded_without_reception(self):
        # deterministic input at 0.0001 almost surely beats any recovery
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([1.0]),
                                core.InputModel.deterministic(1e-4))
        log = sim.simulate(cfg, sim.RandomnessPlan(2, 0), sim.StopRule.horizon(1e-4))
        kinds = [e[0] for e in log.events]
        assert core.INPUT in kinds and core.RECEPTION not in kinds

    def test_stop_rules_validate(self):
        cfg = unit_chain(2, core.InputModel.permanent())
        with pytest.raises(ValueError):
            sim.simulate(cfg, sim.RandomnessPlan(1, 0), sim.StopRule.first_reception_at(9))
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sim.StopRule.horizon(bad)
        with pytest.raises(ValueError):
            sim.StopRule.reception_count(1, 0)

    @pytest.mark.parametrize("model, per_unit", [
        (core.InputModel.exponential(4.0), 4.0),
        (core.InputModel.deterministic(0.5), 2.0),
        (core.InputModel.empirical([0.25, 0.75]), 2.0),
        (core.InputModel.permanent(), 3.0),
    ], ids=["exp", "det", "empirical", "permanent"])
    def test_huge_horizon_refused(self, model, per_unit):
        # permanent input: the right node's recovery rate, 3; a signal on
        # two nodes makes up to four events
        cfg = core.SystemConfig(1, 2, core.RateSchedule.explicit([1.0, 3.0]), model)
        cap = sim._MAX_EVENTS
        sim.check_horizon(cfg, cap / (4 * per_unit))
        with pytest.raises(ValueError, match=f"expects about .* the cap of {cap}"):
            sim.check_horizon(cfg, 2 * cap / (4 * per_unit))
        with pytest.raises(ValueError, match=r"horizon 1e\+300 expects about"):
            sim.simulate(cfg, sim.RandomnessPlan(0, 0), sim.StopRule.horizon(1e300))

    def test_long_chain_horizon_counts_events(self):
        # 4e6 signals fit under the cap, but eight nodes make ten events a signal
        cfg = core.SystemConfig(1, 8, core.RateSchedule.constant(4.0),
                                core.InputModel.exponential(1.0))
        with pytest.raises(ValueError, match=r"expects about 1e\+07 events"):
            sim.check_horizon(cfg, 1e6)
        with pytest.raises(ValueError, match="the cap of"):
            sim.simulate(cfg, sim.RandomnessPlan(0, 0), sim.StopRule.horizon(1e6))

    def test_reception_count_stop(self):
        cfg = unit_chain(2, core.InputModel.permanent())
        log = sim.simulate(cfg, sim.RandomnessPlan(17, 0), sim.StopRule.reception_count(1, 5))
        assert len(log.receptions_at(1)) == 5
        assert log.horizon == log.receptions_at(1)[-1]

    def test_tiny_horizon_yields_empty_but_valid_log(self):
        cfg = unit_chain(3, core.InputModel.exponential(1.0))
        log = sim.simulate(cfg, sim.RandomnessPlan(23, 0), sim.StopRule.horizon(1e-9))
        assert log.events == [] and log.horizon == 1e-9
        core.validate_event_log(log)
        seq = core.log_to_sequence(log)
        assert core.validate_signal_recovery(seq).consistent

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            sim.RandomnessPlan(-1, 0)
        with pytest.raises(ValueError):
            sim.RandomnessPlan(0, 2**32)


class TestRandomConfigs:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rates=st.lists(st.floats(0.2, 5.0), min_size=1, max_size=4),
           kind=st.sampled_from(["permanent", "exponential", "deterministic"]))
    def test_any_log_is_structurally_sound(self, seed, rates, kind):
        model = {"permanent": core.InputModel.permanent(),
                 "exponential": core.InputModel.exponential(1.1),
                 "deterministic": core.InputModel.deterministic(0.9)}[kind]
        cfg = core.SystemConfig(1, len(rates), core.RateSchedule.explicit(rates), model)
        plan = sim.RandomnessPlan(seed, 0)
        log = sim.simulate(cfg, plan, sim.StopRule.horizon(5.0))
        core.validate_event_log(log)
        if not (kind == "permanent" and len(rates) == 1):
            seq = core.log_to_sequence(log)
            assert core.validate_signal_recovery(seq).consistent
        # recoveries are always drawn from the offered point stream
        for j, rate in enumerate(rates, start=1):
            offered = set(plan.recovery_points(j, rate, 5.0))
            assert set(log.recoveries_at(j)) <= offered


@pytest.mark.parametrize("call, message", [
    (lambda: sim.RandomnessPlan(1).recovery_key(2**32), "stream slot out of range"),
    (lambda: sim.EmpiricalDistribution(np.array([2.0, 1.0])), "samples must be sorted ascending"),
    (lambda: sim.coupled_compare(unit_chain(2, core.InputModel.exponential(1.0)),
                                 unit_chain(2, core.InputModel.exponential(1.0), lo=2), 1,
                                 sim.StopRule.horizon(1.0)),
     "coupled configs must share the node range"),
], ids=["slot-range", "unsorted-sample", "coupled-ranges"])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
