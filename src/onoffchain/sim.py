"""Seed-deterministic discrete-event simulator for on-off chains.

Randomness is organized around *potential recovery points*: node i carries a
Poisson process of intensity rate(i), and a point turns the node on exactly
when the node is off at that instant (points falling on an on node are
ignored).  Input intervals are produced by pushing one shared uniform stream
through the input law's quantile map, so two runs that differ only in their
input law consume identical recovery-point realizations and comparable
input randomness.

Every substream is a keyed counter-based generator: replication r and node i
draw from Philox keyed ``(master_seed, r << 32 | (i + 1))``; the input stream
uses slot 0 of the same layout.  Streams are drawn in indexed counter
blocks, so any one stream is realized without drawing any other, and
replications need no coordination and are embarrassingly parallel.  Every
stream draws uniforms u in [0, 1) and nothing else: node i's recovery gaps
are ``-log1p(-u) / rate(i)``, the input gaps the input law's quantile map.

``simulate`` computes a run node by node from the right end.  A signal runs
left only along on nodes, so a node receives exactly those receptions of its
right neighbour that find it on: it receives at the first of them at or
after its recovery (a recovery wins a tie), then recovers at the first point
of its stream after that reception.  One ``searchsorted`` applies this rule
to a whole window of signals.  The realized streams, and the order of the
events within an instant, are those of an event-by-event loop, which the
tests keep as the oracle.

``sample_first_reception`` runs replications in one lockstep batch,
reception by reception.  Replications join it in groups whenever half of it
has ended, so it never runs out a chunk's slowest replications alone.  A
stream has one index in the batch, for its state and its window alike, and
an ended replication's indices go back to a free list.  A stream holds one
window of 16 points of its current block, drawn straight from its counter:
block 0 of a group's streams at once, by a numpy Philox that matches the
scalar draw bit for bit, and each later window when a lookup passes the one
before.  Carrying the block's running sum from window to window gives the
floats of ``simulate``, and the streams are keyed, so a replication's floats
do not depend on when it joined.  A replication that would need a block past
a fixed budget is rerun by the engine of ``simulate``, which then builds no
log.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    EventLog,
    InputModel,
    SystemConfig,
    DETERMINISTIC,
    EXPONENTIAL,
    INPUT,
    RECOVERY,
    RECEPTION,
)

__all__ = [
    "RandomnessPlan",
    "StopRule",
    "EmpiricalDistribution",
    "DominanceResult",
    "simulate",
    "check_horizon",
    "sample_first_reception",
    "sample_interreception",
    "coupled_compare",
    "ks_statistic",
    "ks_two_sample_critical",
    "ks_one_sample",
    "ks_one_sample_critical",
    "dkw_band",
    "dominance_check",
]


# ---------------------------------------------------------------------------
# Keyed substreams
# ---------------------------------------------------------------------------

# One Philox/Generator pair per thread; streams are realized by injecting
# (key, counter) state before each draw.  Block index b of a stream occupies
# counter word 2, so blocks own disjoint 2**128 counter ranges and block 0
# coincides with the plain keyed stream; counter word 0 = w / 4 starts a
# draw at the w-th uniform of a block.  The cached state dict is a copy taken
# from the fresh generator: its other counter words, its empty buffer
# (``buffer_pos`` 4) and its spare 32-bit word stay as they were, so only the
# key and counter words 0 and 2 are written.
_local = threading.local()


def _machinery():
    m = getattr(_local, "m", None)
    if m is None:
        bitgen = np.random.Philox(key=[0, 0])
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        m = (bitgen, gen, state, state["state"]["key"], state["state"]["counter"])
        _local.m = m
    return m


def _draw_block(key0: int, key1: int, block: int, size: int) -> np.ndarray:
    return _draw_blocks(key0, (key1,), (block,), (0,), np.empty((1, size)))[0]


def _draw_blocks(key0: int, key1s, blocks, starts, out: np.ndarray) -> np.ndarray:
    """Row i of ``out`` becomes the uniforms of block blocks[i] of the stream
    (key0, key1s[i]) from the starts[i]-th on, starts[i] a multiple of 4."""
    bitgen, gen, state, key, counter = _machinery()
    key[0] = key0
    for row, key1, block, start in zip(out, key1s, blocks, starts):
        key[1] = key1
        counter[0] = start >> 2
        counter[2] = block
        bitgen.state = state
        gen.random(out=row)
    return out


_FIRST_BLOCK = 16
_MAX_BLOCK = 65536


def _block_size(block: int) -> int:
    """Uniforms in block ``block`` of a stream: 16 * 4**block, at most 65536."""
    return min(_FIRST_BLOCK * 4 ** block, _MAX_BLOCK)


# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11),
# as used by numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves.

    No partial sum below overflows 64 bits, and the high word takes no carry
    from the low one.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _SH32
    t = (a_lo * m_lo) >> _SH32
    t += a_lo * m_hi
    u = t & _LO32
    u += a_hi * m_lo
    hi = a_hi * m_hi
    hi += t >> _SH32
    hi += u >> _SH32
    return hi, a * np.uint64(m)


def _philox_uniforms(key0, key1, block: int, size: int) -> np.ndarray:
    """Row i is ``_draw_block(key0[i], key1[i], block, size)``, bit for bit.

    numpy's Philox steps its counter before each call of the round function,
    so the j-th call (j = 1, 2, ...) of block b encrypts the counter
    (j, 0, b, 0) and yields four 64-bit words in order; ``Generator.random``
    maps each word w to ``(w >> 11) * 2**-53``.  Keys broadcast.  The counter
    words start as one row and the keys as one column, so the first two
    rounds, whose words depend on few of them, run on small arrays.
    """
    k0 = np.asarray(key0, dtype=np.uint64).reshape(-1, 1)
    k1 = np.asarray(key1, dtype=np.uint64).reshape(-1, 1)
    calls = -(-size // 4)
    c0 = np.arange(1, calls + 1, dtype=np.uint64).reshape(1, calls)
    c1 = c3 = np.zeros((1, 1), dtype=np.uint64)
    c2 = np.full((1, 1), block, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    words = words.reshape(-1, 4 * calls)[:, :size]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


class _KeyedStream:
    """Running sums of gaps drawn block by block from one keyed stream.

    Block b holds ``_block_size(b)`` uniforms at counter word 2 = b; ``gap``
    maps the uniforms of a block to gaps.
    """

    __slots__ = ("_k0", "_k1", "_gap", "_block", "_last")

    def __init__(self, key: tuple[int, int], gap):
        self._k0, self._k1 = key
        self._gap = gap
        self._block = 0
        self._last = 0.0

    def next_block(self) -> np.ndarray:
        draws = _draw_block(self._k0, self._k1, self._block, _block_size(self._block))
        self._block += 1
        pts = self._gap(draws)        # the gaps: a new array, or the draws
        np.cumsum(pts, out=pts)
        pts += self._last               # the point before the block
        self._last = pts[-1]
        return pts


def _cover(stream: _KeyedStream, pts: np.ndarray, t: float) -> np.ndarray:
    """``pts`` joined by the next blocks of ``stream``, drawn on until the
    last point is after t."""
    blocks = [pts]
    while blocks[-1][-1] <= t:
        blocks.append(stream.next_block())
    return np.concatenate(blocks) if len(blocks) > 1 else pts


def _exp_gaps(u: np.ndarray, rate) -> np.ndarray:
    """Exponential gaps ``-log1p(-u) / rate`` of intensity ``rate``, computed
    in place over the uniforms ``u``."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.divide(u, np.negative(rate), out=u)


def _recovery_stream(plan: RandomnessPlan, node: int, rate: float) -> _KeyedStream:
    return _KeyedStream(plan.recovery_key(node), lambda u: _exp_gaps(u, rate))


@dataclass(frozen=True)
class RandomnessPlan:
    """Names every random stream of one replication.

    The same plan always yields bit-identical streams; plans with different
    ``rep`` values (or seeds) never share a key.  Changing the input model
    does not touch any recovery stream.
    """

    master_seed: int
    rep: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= self.rep < 2 ** 32:
            raise ValueError("rep must fit in 32 bits")

    def _key(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < 2 ** 32:
            raise ValueError("stream slot out of range")
        return self.master_seed, (self.rep << 32) | slot

    def recovery_key(self, node: int) -> tuple[int, int]:
        return self._key(node + 1)

    def input_key(self) -> tuple[int, int]:
        return self._key(0)

    def recovery_points(self, node: int, rate: float, upto: float) -> np.ndarray:
        """All potential recovery points of ``node`` up to time ``upto``.

        Diagnostic view of the same stream the simulator consumes; useful for
        asserting that runs with different inputs were offered identical
        points.
        """
        stream = _recovery_stream(self, node, rate)
        pts = _cover(stream, stream.next_block(), upto)
        return pts[pts <= upto]


# ---------------------------------------------------------------------------
# Stop rules
# ---------------------------------------------------------------------------

FIRST_RECEPTION = "first_reception"
HORIZON = "horizon"
RECEPTION_COUNT = "reception_count"


@dataclass(frozen=True)
class StopRule:
    kind: str
    node: int | None = None
    time: float | None = None
    count: int | None = None

    @classmethod
    def first_reception_at(cls, node: int) -> "StopRule":
        return cls(FIRST_RECEPTION, node=node)

    @classmethod
    def horizon(cls, time: float) -> "StopRule":
        # an infinite horizon would draw input blocks for ever
        if not (math.isfinite(time) and time > 0):
            raise ValueError(f"horizon must be a finite positive time, got {time}")
        return cls(HORIZON, time=float(time))

    @classmethod
    def reception_count(cls, node: int, count: int) -> "StopRule":
        if count < 1:
            raise ValueError("reception count must be >= 1")
        return cls(RECEPTION_COUNT, node=node, count=count)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

# expected events a horizon may ask for: a log holds up to n + 2 events a
# signal on n nodes, and a one-node log peaks near 500 bytes a signal, so
# this caps it near 0.5 GB
_MAX_EVENTS = 3 * 2 ** 20


def check_horizon(config: SystemConfig, time: float) -> None:
    """Refuse a horizon whose expected number of events, (n + 2) times the
    signals expected at the right end, exceeds ``_MAX_EVENTS``."""
    model = config.input
    if model.is_permanent:
        signals = time * config.rates.rate(config.right_node)
    elif model.kind == EXPONENTIAL:
        signals = time * model.rate
    elif model.kind == DETERMINISTIC:
        signals = time / model.duration
    else:
        signals = time / float(model.samples.mean())
    expected = (config.n_nodes + 2) * signals
    if expected > _MAX_EVENTS:
        raise ValueError(f"horizon {time!r} expects about {expected:.4g} events, "
                         f"more than the cap of {_MAX_EVENTS}")


def _check_stop(config: SystemConfig, stop: StopRule) -> None:
    if stop.kind == HORIZON:
        check_horizon(config, stop.time)
    else:
        if config.is_empty:
            raise ValueError("reception stop rules need a nonempty chain")
        if not config.left_node <= stop.node <= config.right_node:
            raise ValueError(f"stop node {stop.node} outside "
                             f"[{config.left_node}, {config.right_node}]")


class _Node:
    """One node's potential recovery points after the last signal offered to
    it, drawn block by block.

    The node is on at a signal a exactly when it has a point in (a', a], a'
    being the signal offered before a (0 before the first): if a' switched
    it off, its next point turns it on again, and if it was off at a', it
    still has no point after its last reception.  So one ``searchsorted`` of
    a window of signals in the points filters the whole window.
    """

    __slots__ = ("_stream", "_pts", "first")

    def __init__(self, stream: _KeyedStream):
        self._stream = stream
        self._pts = pts = stream.next_block()
        if pts[0] <= 0.0:
            pts = _cover(stream, pts, 0.0)
            self._pts = pts = pts[pts.searchsorted(0.0, "right"):]
        self.first = pts[:1]                # its first recovery, as an array

    def receive(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the signals ``a`` (nonempty, ascending, none before a
        signal offered earlier) the node receives, as a mask, and its
        recovery after each reception."""
        pts = _cover(self._stream, self._pts, a[-1])
        c = pts.searchsorted(a, "right")
        hit = np.empty(len(a), dtype=bool)
        hit[0] = c[0] > 0
        np.greater(c[1:], c[:-1], out=hit[1:])
        self._pts = pts[c[-1]:]
        return hit, pts[c[hit]]


def _cascade(config: SystemConfig, plan: RandomnessPlan, stop: StopRule, first: int):
    """The run ``simulate(config, plan, stop)`` on the nodes from ``first`` to
    the right end: ``(horizon, inputs, got, recovered)``.

    ``inputs`` holds the signal times at the right end up to the horizon
    (under a reception stop, up to the signal that ends the run).
    ``got[j]`` and ``recovered[j]`` list, window by window, the receptions
    (as indices into ``inputs``) and the recovery times of node
    ``left_node + j``; they may run past the horizon, and ``_joined`` cuts
    them.

    Node j receives exactly those receptions of node j + 1 that find it on,
    and no node acts on the nodes to its right, so the nodes are filtered
    from right to left (``_Node.receive``).  Time advances in windows, one
    block of the top stream each and the first two blocks in the first: the
    top stream is the input stream, or under permanent input the last node's
    recovery stream, whose points are all its receptions.  A window ends at
    the first node that receives nothing in it.  A reception stop ends the
    run in the window of its last reception, and the nodes left of the stop
    node see that window only up to it.
    """
    lo, n = config.left_node, config.n_nodes
    rates = config.node_rates()
    permanent = config.input.is_permanent
    cap, stop_j, want = stop.time, -1, 0
    if stop.kind != HORIZON:
        cap, stop_j = math.inf, stop.node - lo
        want = stop.count if stop.kind == RECEPTION_COUNT else 1
    first -= lo
    # nodes first..right filter their signals; under permanent input the
    # last node receives at each of its points, after the one before
    if permanent:
        top, right = _recovery_stream(plan, lo + n - 1, rates[-1]), n - 2
    else:
        top, right = _KeyedStream(plan.input_key(), config.input.quantile), n - 1
    nodes = {j: _Node(_recovery_stream(plan, lo + j, rates[j])) for j in range(first, right + 1)}
    got = {j: [np.empty(0, dtype=np.intp)] for j in range(first, n)}
    recovered = {j: [node.first] for j, node in nodes.items()}
    inputs, offset, seen, horizon, end, last, done = [], 0, 0, cap, None, 0.0, False
    while not done:
        block = top.next_block()
        if not inputs:
            # 16 signals seldom reach the stop node of a deep chain, and the
            # nodes they do reach would be filtered twice
            block = np.concatenate((block, top.next_block()))
        if block[-1] > cap:
            block = block[:block.searchsorted(cap, "right")]
            done = True
        if permanent and len(block):
            keep = np.empty(len(block), dtype=bool)
            keep[0] = block[0] > last
            np.greater(block[1:], block[:-1], out=keep[1:])
            last = block[-1]
            block = block[keep]
        inputs.append(block)
        a, ids = block, np.arange(offset, offset + len(block))
        offset += len(block)
        for j in range(n - 1, first - 1, -1):
            if not len(a):
                break
            if j <= right:
                hit, rec = nodes[j].receive(a)
                a, ids = a[hit], ids[hit]
                recovered[j].append(rec)
            if j == stop_j:
                if seen + len(a) >= want:
                    a, ids = a[:want - seen], ids[:want - seen]
                    horizon, end, done = float(a[-1]), ids[-1] + 1, True
                seen += len(a)
            got[j].append(ids)
    inputs = np.concatenate(inputs)[:end]
    if permanent:
        recovered[n - 1] = [inputs]
    return horizon, inputs, got, recovered


def _joined(parts: list, v) -> np.ndarray:
    """The ascending concatenation of ``parts``, cut after its last entry <= v."""
    x = np.concatenate(parts)
    return x[:x.searchsorted(v, "right")]


def simulate(config: SystemConfig, plan: RandomnessPlan, stop: StopRule) -> EventLog:
    """Run one chain realization; a pure function of its three arguments.

    All nodes start off at t = 0.  A potential recovery point is consumed
    only when its node is off; signals switch off the maximal all-on suffix.
    Under permanent input the rightmost node receives a signal at each of its
    recoveries, recorded as a recovery/input/reception tick sharing one
    timestamp.  The chain is computed node by node from the right
    (``_cascade``): a node receives at the first signal at or after its
    recovery (a recovery wins a tie) and recovers at the first point of its
    stream after that reception.  The events are then ordered by time, and
    within an instant as recoveries (by node), the input, its reception.
    """
    _check_stop(config, stop)
    lo, hi, n = config.left_node, config.right_node, config.n_nodes
    horizon, inputs, got, recovered = _cascade(config, plan, stop, lo)
    # a reception block reaches from its leftmost receiving node to hi
    left = np.full(len(inputs), n)
    for j in range(n - 1, -1, -1):
        left[_joined(got[j], len(inputs) - 1)] = j
    blocks = np.flatnonzero(left < n)
    left = left[blocks] + lo
    recovered = [_joined(recovered[j], horizon) for j in range(n)]
    rec_node = np.repeat(np.arange(lo, hi + 1), [len(r) for r in recovered])
    sizes = (len(rec_node), len(inputs), len(blocks))
    time = np.concatenate(recovered + [inputs, inputs[blocks]])
    # within an instant: the recoveries by node, then each input followed by
    # its reception
    tie = np.concatenate((rec_node - hi - 1, 2 * np.arange(len(inputs)), 2 * blocks + 1))
    order = np.lexsort((tie, time))
    rec_node = rec_node.astype(object)
    none = np.full(len(inputs), None)
    node_lo = np.concatenate((rec_node, none, left.astype(object)))
    node_hi = np.concatenate((rec_node, none, np.full(len(blocks), hi, dtype=object)))
    kind = np.repeat(np.array([RECOVERY, INPUT, RECEPTION], dtype=object), sizes)
    events = zip(kind[order].tolist(), time[order].tolist(),
                 node_lo[order].tolist(), node_hi[order].tolist())
    return EventLog(lo, hi, horizon, config.input.is_permanent, list(events))


def _reception_times(config: SystemConfig, plan: RandomnessPlan, stop: StopRule,
                     node: int) -> tuple[np.ndarray, float]:
    """The reception times at ``node`` and the horizon of ``simulate(config,
    plan, stop)``, computed only on the nodes they depend on."""
    horizon, inputs, got, _ = _cascade(config, plan, stop, node)
    return inputs[_joined(got[node - config.left_node], len(inputs) - 1)], horizon


# ---------------------------------------------------------------------------
# Empirical distributions and statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted nonnegative sample with the usual summary operations."""

    samples: np.ndarray

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("need a nonempty 1-d sample")
        if not (np.all(np.isfinite(s)) and np.all(s >= 0.0)):
            raise ValueError("samples must be finite and >= 0")
        if np.any(np.diff(s) < 0):
            raise ValueError("samples must be sorted ascending")

    @classmethod
    def from_values(cls, values) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=np.float64))
        arr.setflags(write=False)
        return cls(arr)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def std(self) -> float:
        return float(np.std(self.samples, ddof=1)) if self.count > 1 else 0.0

    def stderr(self) -> float:
        return self.std() / math.sqrt(self.count)

    def cdf(self, x) -> np.ndarray | float:
        if np.isnan(x).any():      # searchsorted would put a NaN past every sample
            raise ValueError("cdf points must not be NaN")
        pos = np.searchsorted(self.samples, x, side="right") / self.count
        return float(pos) if np.isscalar(x) else pos

    def export_lines(self):
        """One value per line, text."""
        for v in self.samples:
            yield repr(float(v))


def ks_statistic(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Two-sample sup distance between empirical CDFs, in [0, 1]."""
    xs = np.concatenate([a.samples, b.samples])
    return float(np.max(np.abs(a.cdf(xs) - b.cdf(xs))))


def ks_two_sample_critical(na: int, nb: int, alpha: float) -> float:
    """Asymptotic two-sample rejection threshold at level alpha: the band at
    the effective sample size na nb / (na + nb)."""
    if not (na > 0 and nb > 0):
        raise ValueError(f"sample sizes must be positive, got {na!r} and {nb!r}")
    return dkw_band(na * nb / (na + nb), alpha)


def ks_one_sample(dist: EmpiricalDistribution, cdf) -> float:
    """Sup distance between the empirical CDF and a reference CDF callable.
    Refuses a CDF whose values at the samples are not one number in [0, 1]
    per sample (a NaN would compare below every critical value)."""
    n = dist.count
    f = np.asarray(cdf(dist.samples), dtype=np.float64)
    if f.shape != dist.samples.shape:
        raise ValueError(f"reference CDF gave shape {f.shape} for {n} samples")
    inside = (f >= 0.0) & (f <= 1.0)
    if not inside.all():
        raise ValueError(f"reference CDF values must lie in [0, 1], got {float(f[~inside][0])!r}")
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(np.max(hi), np.max(lo)))


def dkw_band(n: float, alpha: float) -> float:
    """Half-width of the level-(1-alpha) uniform CDF confidence band,
    sqrt(ln(2/alpha) / (2n)); also the asymptotic one-sample KS threshold.
    Refuses n <= 0 and a level alpha outside (0, 1)."""
    if not (n > 0 and 0 < alpha < 1):
        raise ValueError(f"need n > 0 and 0 < alpha < 1, got n={n!r}, alpha={alpha!r}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


ks_one_sample_critical = dkw_band


@dataclass(frozen=True)
class DominanceResult:
    dominates: bool
    witness: float | None = None
    max_deficit: float = 0.0


def dominance_check(lower: EmpiricalDistribution, upper: EmpiricalDistribution,
                    band: float) -> DominanceResult:
    """Decide whether ``upper`` stochastically dominates ``lower``.

    ``lower`` names the stochastically smaller sample, i.e. the one whose CDF
    should sit above.  Dominates iff cdf_lower(x) >= cdf_upper(x) - band for
    every x; otherwise the worst witness point is reported.
    """
    if not band >= 0:      # a NaN band would pass every point
        raise ValueError(f"band must be >= 0, got {band!r}")
    xs = np.unique(np.concatenate([lower.samples, upper.samples]))
    fl = lower.cdf(xs)
    fu = upper.cdf(xs)
    deficit = fu - band - fl
    i = int(np.argmax(deficit))
    if deficit[i] > 0.0:
        return DominanceResult(False, witness=float(xs[i]), max_deficit=float(deficit[i]))
    return DominanceResult(True, max_deficit=float(deficit[i]))


# ---------------------------------------------------------------------------
# Monte Carlo harnesses
# ---------------------------------------------------------------------------

# The batched kernel runs one batch of replications whose streams hold
# _CHUNK_POINTS live points, one window of _FIRST_BLOCK points a stream, and
# the indices of ended streams are reused.  Whenever half the batch has
# ended it admits a group, drawing their block 0 into the store and reading
# their first points _PHILOX_SLICE streams at a time; each later window, up
# to the end of block _LAST_BLOCK, is drawn when a lookup passes the one before.
_CHUNK_POINTS = 2 ** 17
_PHILOX_SLICE = 2 ** 10
_LAST_BLOCK = 4
# a batch stream: its key, block b, window's first uniform w, the point
# before the block and the block's gap sum to the window's end
_STREAM = np.dtype([("key", np.uint64), ("block", np.intp), ("start", np.intp),
                    ("base", np.float64), ("sum", np.float64)])


def sample_first_reception(config: SystemConfig, node: int, reps: int,
                           seed: int) -> EmpiricalDistribution:
    """First reception time at ``node`` over independent replications.

    Replication r is ``simulate(config, RandomnessPlan(seed, r),
    StopRule.first_reception_at(node)).horizon``, bit for bit; the samples
    come back sorted.

    Between two receptions a chain only recovers, so one step moves every
    running replication to its next reception: the last node's recovery
    under permanent input, otherwise the first input at or after it (a
    recovery wins a tie, as in ``simulate``).  The nodes recovered by then
    are on, the maximal all-on suffix switches off, and each swept node waits
    for the first point of its stream after the reception.  Replications run
    in one lockstep batch, and new ones join it whenever half of it has
    ended; the streams are keyed, so a replication's points do not depend on
    when it joins or on its streams' batch indices.  A replication that would
    read past block ``_LAST_BLOCK`` of a stream before it ends is rerun by the
    engine of ``simulate`` (``_reception_times``), which builds no log.
    """
    if not 1 <= reps <= 2 ** 32:
        raise ValueError("reps must be in [1, 2**32]")
    stop = StopRule.first_reception_at(node)
    _check_stop(config, stop)
    RandomnessPlan(seed).recovery_key(config.right_node)   # seed and slots in range
    n, lo = config.n_nodes, config.left_node
    left = stop.node - lo
    slots = np.arange(lo + 1, lo + n + 1, dtype=np.uint64)
    rates = np.array(config.node_rates())
    # a recovery key's slot is its node + 1
    recs = _StreamBatch(seed, lambda u, key: _exp_gaps(
        u, rates[(key & _LO32).astype(np.intp) - (lo + 1), None]))
    ins = None
    if not config.input.is_permanent:
        ins = _StreamBatch(seed, lambda u, key: config.input.quantile(u))
    size = max(1, _CHUNK_POINTS // (_FIRST_BLOCK * (n + (ins is not None))))
    out = np.empty(reps, dtype=np.float64)
    # rep[r]: the replication in row r; rec[r, j]: when its node lo + j last
    # turned or next turns on, so the node is on at t iff rec <= t; sid[r, j]
    # and isid[r]: the batch indices of that node's stream and of the input's
    rep, rec = np.empty(0, dtype=np.int64), np.empty((0, n))
    sid, isid = np.empty((0, n), dtype=np.intp), np.empty(0, dtype=np.intp)
    rerun, admitted = [], 0
    while len(rep) or admitted < reps:
        if admitted < reps and len(rep) <= size // 2:
            new = np.arange(admitted, min(reps, admitted + size - len(rep)))
            admitted += len(new)
            key1 = new.astype(np.uint64) << _SH32
            cells = recs.admit((key1[:, None] | slots).ravel())
            if ins is not None:
                isid = np.concatenate((isid, ins.admit(key1)))
            first = np.concatenate([
                recs.after(c, np.zeros(len(c)), np.less_equal)
                for c in np.split(cells, range(_PHILOX_SLICE, len(cells), _PHILOX_SLICE))])
            rep, rec = np.concatenate((rep, new)), np.concatenate((rec, first.reshape(-1, n)))
            sid = np.concatenate((sid, cells.reshape(-1, n)))
        t = rec[:, -1].copy()
        if ins is not None:
            # inputs before the last node recovers are blocked
            t = ins.after(isid, t, np.less)
        swept = np.logical_and.accumulate(rec[:, ::-1] <= t[:, None], axis=1)[:, ::-1]
        done = swept[:, left]
        out[rep[done]] = t[done]
        r, k = np.nonzero(swept & ~done[:, None])
        rec[r, k] = recs.after(sid[r, k], t[r], np.less_equal)
        # a stream that ran out leaves NaN, at admission or in this step
        spill = np.isnan(t) | np.isnan(rec).any(axis=1)
        rerun.append(rep[spill])
        keep = ~(done | spill)
        if not keep.all():
            recs.release(sid[~keep].ravel())
            rep, rec, sid = rep[keep], rec[keep], sid[keep]
            if ins is not None:
                ins.release(isid[~keep])
                isid = isid[keep]
    for r in np.concatenate(rerun).tolist():
        out[r] = _reception_times(config, RandomnessPlan(seed, r), stop, stop.node)[1]
    return EmpiricalDistribution.from_values(out)


class _StreamBatch:
    """Keyed streams ``(seed, key)`` read as ``_KeyedStream`` reads one;
    stream s is the one that ``admit`` gave index s, until it is released.

    A stream holds one row of ``_FIRST_BLOCK`` points, the window of the
    uniforms w .. w + 15 of its block b (w a multiple of 16): ``admit``
    draws block 0 by ``_philox_uniforms``, and a lookup past a window's end
    overwrites its row with the next window, drawn by ``_draw_blocks``.  A
    block's points are its base, the point before it, plus the running sums
    of its gaps, so a stream carries the base and the sum to its window's
    end, and its points are those of ``_KeyedStream``, bit for bit.  Stream
    s is record s of one ``_STREAM`` array and row s of the store, and
    released indices are reused before both grow.  ``gap(u, key)`` maps the
    uniforms of the streams ``key``, one row each, to gaps.
    """

    def __init__(self, seed: int, gap):
        self._seed, self._gap = seed, gap
        self._streams = np.zeros(0, _STREAM)
        self._rows = np.empty((0, _FIRST_BLOCK))
        self._free = np.empty(0, dtype=np.intp)

    def admit(self, keys: np.ndarray) -> np.ndarray:
        """Add the streams ``keys`` at block 0; return their indices."""
        m, free, size = len(keys), self._free, len(self._streams)
        if m > len(free):
            # both stores grow in place, so their old entries are not held
            # twice; no view of either outlives a call
            grown = max(size * 5 // 4, size + m - len(free))
            self._streams.resize(grown, refcheck=False)
            self._rows.resize((grown, _FIRST_BLOCK), refcheck=False)
            free = np.concatenate((free, np.arange(size, grown)))
        s, self._free = free[:m], free[m:]
        self._streams[s] = 0
        self._streams["key"][s] = keys
        for i in range(0, m, _PHILOX_SLICE):     # each slice straight into the store
            self._write(s[i:i + _PHILOX_SLICE],
                        _philox_uniforms(self._seed, keys[i:i + _PHILOX_SLICE], 0, _FIRST_BLOCK))
        return s

    def release(self, s: np.ndarray) -> None:
        """Free the indices ``s`` for streams admitted later."""
        self._free = np.concatenate((self._free, s))

    def after(self, s: np.ndarray, t: np.ndarray, before) -> np.ndarray:
        """The first point p of each stream s[i] with ``not before(p, t[i])``,
        drawing later windows as needed; NaN where that is past block
        ``_LAST_BLOCK``.  ``np.less_equal`` gives the first point after t,
        ``np.less`` the first point at or after t."""
        out = np.full(len(s), np.nan)
        todo = np.arange(len(s))
        while len(todo):
            pts = self._rows[s[todo]]
            pos = before(pts, t[todo, None]).sum(axis=1)
            hit = pos < _FIRST_BLOCK
            out[todo[hit]] = pts[hit, pos[hit]]
            todo = todo[~hit]
            if len(todo):
                todo = todo[self._advance(s[todo])]
        return out

    def _advance(self, s: np.ndarray) -> np.ndarray:
        """Move each stream s[i] to its next window, unless it ends block
        ``_LAST_BLOCK``; return which ones moved."""
        streams = self._streams
        block, start = streams["block"][s], streams["start"][s] + _FIRST_BLOCK
        ended = start == np.minimum(_FIRST_BLOCK << 2 * block, _MAX_BLOCK)
        moved = ~ended | (block < _LAST_BLOCK)
        s, block, start, ended = s[moved], block[moved], start[moved], ended[moved]
        # the next block goes on from the last point of this one
        e = s[ended]
        streams["base"][e], streams["sum"][e] = self._rows[e, -1], 0.0
        block[ended] += 1
        start[ended] = 0
        streams["block"][s], streams["start"][s] = block, start
        u = _draw_blocks(self._seed, streams["key"][s].tolist(), block.tolist(), start.tolist(),
                         np.empty((len(s), _FIRST_BLOCK)))
        self._write(s, u)
        return moved

    def _write(self, s: np.ndarray, u: np.ndarray) -> None:
        """Carry the running sums of streams s on by the gaps of the
        uniforms ``u``, one window a row, and store the window's points."""
        gaps = self._gap(u, self._streams["key"][s])
        gaps[:, 0] += self._streams["sum"][s]
        np.cumsum(gaps, axis=1, out=gaps)
        self._streams["sum"][s] = gaps[:, -1]
        gaps += self._streams["base"][s, None]
        self._rows[s] = gaps


def sample_interreception(config: SystemConfig, node: int, gap_count: int,
                          seed: int) -> EmpiricalDistribution:
    """The first ``gap_count`` reception gaps at ``node`` from one long run.

    The gaps at a node form a renewal process, so a single replication
    yields iid gaps (the first gap is measured from t = 0).  The run stops
    at the ``gap_count``-th reception, so the sample always has that size.
    """
    stop = StopRule.reception_count(node, gap_count)     # refuses gap_count < 1
    _check_stop(config, stop)
    times = _reception_times(config, RandomnessPlan(seed, 0), stop, node)[0]
    return EmpiricalDistribution.from_values(np.diff(times, prepend=0.0))


def coupled_compare(config_a: SystemConfig, config_b: SystemConfig, seed: int,
                    stop: StopRule) -> tuple[EventLog, EventLog]:
    """Run two configs that differ only in their input on shared randomness.

    Both runs see the same potential-recovery streams and the same input
    uniforms, so differences in the logs are attributable to the input law
    alone.
    """
    if (config_a.left_node, config_a.right_node) != (config_b.left_node, config_b.right_node):
        raise ValueError("coupled configs must share the node range")
    if config_a.node_rates() != config_b.node_rates():
        raise ValueError("coupled configs must share recovery rates")
    plan = RandomnessPlan(seed, 0)
    return simulate(config_a, plan, stop), simulate(config_b, plan, stop)
