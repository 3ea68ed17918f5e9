"""Transform algebra for interreception-interval laws and exact means.

For an interval law F with F(0) = 0 we work with
``phi(s) = 1 - integral exp(-s x) dF(x)``.  Passing a signal stream through
one node with recovery rate rho maps ``phi(s)`` to ``phi(s)/phi(s + rho)``;
iterating this step across a chain gives the interval transform seen at the
left end.  The chain result is invariant under permutations of the rates,
and for equal rates with permanent input the mean at the left end has an
exact product form evaluated here in high precision (the alternating sum
underneath cancels about one bit per node, hence the precision floor).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .core import DETERMINISTIC, EXPONENTIAL, InputModel, SystemConfig

__all__ = [
    "LaplaceEval", "HighPrecisionReal", "EULER_GAMMA", "EXP_EULER_GAMMA",
    "PermanentInputError", "ImproperTransformError", "ComplexityError",
    "PrecisionError", "ConvergenceError",
    "transform_of_input", "node_step", "chain_transform", "subset_expansion",
    "mean_from_transform", "permanent_reduce", "exact_mean_equal_rates",
    "exact_mean_small_fraction", "euler_ratio", "harmonic_lower_bound",
]

EULER_GAMMA = 0.57721566490153286
EXP_EULER_GAMMA = 1.7810724179901979852   # exp(EULER_GAMMA); comparison constant only

_TERM_CAP = 2 ** 25       # subset sums one exact chain evaluation may expand into
_FLOAT_REL_TOL = 2.0 ** -30   # error bound up to which a chain transform is summed in float64
_FN_UNITS = 4      # units of 2^-53 charged to one np.log, np.expm1 or math.exp: 2 ulp
_GUARD_BITS = 32
_LOG_CAP = 2 ** 11     # above |log phi_in(x)|: phi_in(x) >= 2^-2149 for float parameters and x > 0
_LOG_SLACK_BITS = 32   # fixed-point bits the log table's error bound may take up
_BLOCK = 2 ** 16    # array elements a blocked evaluation holds at a time
_TINY = float(np.finfo(np.float64).tiny)   # the smallest normal float
_MEAN_H0 = 2.0 ** -64    # the step at which mean_from_transform reads phi(s)/s
_MEAN_REL_TOL = 1e-8


class PermanentInputError(ValueError):
    """Permanent input has no interval transform; reduce it away first."""


class ImproperTransformError(ValueError):
    """phi(0) != 0: not the transform of a proper interval law."""


class ComplexityError(RuntimeError):
    """An exact evaluation would need too many subset terms."""


class PrecisionError(ValueError):
    """Requested precision is below the cancellation floor."""


class ConvergenceError(ArithmeticError):
    """phi(s)/s gives no mean at its step: the law has no finite mean or its
    scale is out of range, and the two are not told apart."""


class LaplaceEval:
    """Evaluator for phi(s) = 1 - integral exp(-s x) dF(x), s >= 0.

    Invariants for proper laws: phi(0) = 0, phi nondecreasing, phi <= 1.
    ``kind`` is one of "closed-form", "composite", "empirical".  ``fn`` is
    called with a 1-D float64 array only, on which it must act entry by
    entry: a float s is evaluated as the one-point array [s].
    """

    __slots__ = ("_fn", "kind", "label")

    def __init__(self, fn, kind: str, label: str = ""):
        if kind not in ("closed-form", "composite", "empirical"):
            raise ValueError(f"unknown transform kind {kind!r}")
        self._fn = fn
        self.kind = kind
        self.label = label

    def __call__(self, s: float | np.ndarray) -> float | np.ndarray:
        """phi elementwise over a 1-D float64 array of points, or at a float s
        as the one value of the array [s]."""
        if np.ndim(s) == 0:
            return float(self(np.array([s], dtype=np.float64))[0])
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"transforms take a float or a 1-D array, got shape {s.shape}")
        bad = np.flatnonzero(~(np.isfinite(s) & (s >= 0)))
        if len(bad):
            raise ValueError(f"transforms are evaluated at finite s >= 0, got {s[bad[0]]}")
        out = np.asarray(self._fn(s), dtype=np.float64)
        if out.shape != s.shape or not np.isfinite(out).all():
            raise ValueError(f"{self!r} must give one finite value per point: {len(s)} "
                             f"points gave shape {out.shape}, "
                             f"{np.count_nonzero(~np.isfinite(out))} values not finite")
        return out

    def __repr__(self):
        return f"LaplaceEval({self.kind}: {self.label})"


def transform_of_input(model: InputModel) -> LaplaceEval:
    """Interval transform of a proper input law."""
    if model.is_permanent:
        raise PermanentInputError(
            "permanent input is the symbol [0], not an interval law; "
            "apply permanent_reduce to the configuration first")
    law = _guarded(_input_law(model), model, 0.0)
    if model.kind == EXPONENTIAL:
        return LaplaceEval(law, "closed-form", f"exp({model.rate})")
    if model.kind == DETERMINISTIC:
        return LaplaceEval(law, "closed-form", f"det({model.duration})")
    return LaplaceEval(law, "empirical", f"empirical(n={len(model.samples)})")


def _input_law(model: InputModel, lib=np):
    """phi of a proper input law: elementwise on a float array of any shape
    with ``lib`` numpy, at one mpmath argument with ``lib`` mpmath, its float
    parameters converted once and exactly.  The empirical law sums each
    point's samples in one column by :func:`_tree_sum`, and takes the points
    in blocks of ``max(1, _BLOCK // len(samples))``, so no point's value
    depends on the other points of its call."""
    num = mpmath.mpf if lib is mpmath else float
    if model.kind == EXPONENTIAL:
        rho = num(model.rate)
        return lambda x: x / (rho + x)
    if model.kind == DETERMINISTIC:
        d = num(model.duration)
        return lambda x: -lib.expm1(-d * x)
    if lib is mpmath:
        samples = [num(v) for v in model.samples.tolist()]
        return lambda x: -mpmath.fsum(mpmath.expm1(-x * v) for v in samples) / len(samples)
    negated = -model.samples      # x * -v is -(x * v) exactly
    rows = max(1, _BLOCK // len(negated))

    def emp(x):
        flat = np.ravel(x)
        out = np.empty_like(flat)
        for i in range(0, len(flat), rows):
            terms = np.multiply.outer(negated, flat[i:i + rows])
            out[i:i + rows] = _tree_sum(np.expm1(terms, out=terms))
        return (-out / len(negated)).reshape(np.shape(x))

    return emp


def node_step(phi: LaplaceEval, rate: float) -> LaplaceEval:
    """Transform after the stream passes one node with the given rate."""
    (rate,) = _positive_rates([rate])

    def stepped(s):
        high = float(np.max(s, initial=0.0))    # numpy warns on an overflowing add
        if not math.isfinite(high + rate):
            raise ValueError(f"s = {high!r} plus the rate {rate!r} is beyond the float range")
        num, den = phi(s), phi(s + rate)
        _refuse_underflow(s, ((num < _TINY) & (s != 0.0)) | (den < _TINY),
                          f"{phi!r} at s or s + {rate!r}")
        return num / den

    return LaplaceEval(stepped, "composite", f"{phi.label} -> node({rate})")


def chain_transform(model: InputModel, rates) -> LaplaceEval:
    """Transform after the input passes a whole chain of rates.

    ``rates`` is ordered from the entry node to the observed node; the
    result does not depend on the order, bit for bit.  Folding ``node_step``
    gives ``log phi(s) = sum_sigma w_sigma log phi_in(s + sigma)`` over the
    distinct subset sums of the rates, weighted as in :func:`_subset_table`.
    The sum cancels bits.  :func:`_table_sum` bounds each point's relative
    error from its own float64 terms and answers in float64 where that bound
    is at most ``_FLOAT_REL_TOL`` = 2^-30, the stated tolerance of every
    value, and otherwise in mpmath at a width from the table alone, where
    the same count comes to 2^-85.  A value below the smallest normal float
    is refused with ValueError, naming the point.
    """
    base = transform_of_input(model)
    rs = _positive_rates(rates)
    if not rs:
        return base
    sums, weights, k = _subset_table(rs)
    try:
        top = int(sums[-1]) / (1 << k)     # the largest sum, rounded once
    except OverflowError:
        raise ValueError("the recovery rates sum beyond the float range") from None
    fn = _table_sum(model, sums, weights, k)
    return LaplaceEval(_guarded(fn, model, top), "composite",
                       f"{base.label} -> chain({len(rs)})")


def _positive_rates(rates) -> list[float]:
    """The rates as floats, refusing any that is not positive and finite."""
    rs = [float(r) for r in rates]
    for r in rs:
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"recovery rates must be positive and finite, got {r}")
    return rs


def _refuse_underflow(s: np.ndarray, low: np.ndarray, what: str):
    """Refuse the first point of ``s`` flagged in ``low``, where a value to be
    logged, divided or returned is below the smallest normal float."""
    bad = np.flatnonzero(low)
    if len(bad):
        raise ValueError(f"{what} is below the smallest normal float at s = {float(s[bad[0]])!r}; "
                         f"a subnormal value has lost relative precision")


def _guarded(fn, model: InputModel, top: float):
    """``fn`` on an array of points, with phi(0) = 0 entry by entry (``fn``
    is called on the nonzero entries only) and a refusal of the array if at
    its largest entry s the input law's largest argument s + top, plus an
    exponential input's rate in its denominator, passes the float range."""
    rho = model.rate if model.kind == EXPONENTIAL else 0.0

    def checked(s):
        high = float(np.max(s, initial=0.0))
        if not math.isfinite(high + top + rho):
            raise ValueError(f"s = {high!r} plus the rate sum {top!r} and the input "
                             f"rate {rho!r} is beyond the float range")
        out = np.zeros_like(s)
        live = s != 0.0
        if live.any():
            out[live] = fn(s[live])
        return out

    return checked


def _subset_table(rates: list[float]):
    """``(sums, weights, k)``: the increasing distinct subset sums of the
    rates in units of 2^-k, with their nonzero exact integer weights.

    Every float is dyadic: with 2^k the largest denominator of
    ``float.as_integer_ratio`` the rates are integers a_i times 2^-k, and
    w_sigma, the sum of (-1)^|S| over the subsets S with sum sigma, is the
    coefficient of x^sigma in prod_i (1 - x^(a_i)).  Each distinct a, of
    multiplicity c, is folded in once as (1 - x^a)^c: c + 1 copies of the
    table shifted by j a and weighted (-1)^j C(c, j), merged on equal sums
    with zero weights dropped, which gives the same table in every order.
    The arrays hold int64 where all values fit and Python ints otherwise;
    |w| <= C(n, n // 2) for n rates, as the subsets with one sum form an
    antichain (Sperner).  No merged stage holds more than bound =
    min(prod(c + 1), S/g + 1) sums, with S the sum and g the gcd of the
    a_i; a fold takes fewer copies at a time where more would hold over
    2 bound before the merge, and a bound past ``_TERM_CAP`` is refused.
    """
    ratios = [r.as_integer_ratio() for r in rates]
    k = max(d for _, d in ratios).bit_length() - 1
    ints = [n << (k + 1 - d.bit_length()) for n, d in ratios]
    total = sum(ints)
    counts = sorted(Counter(ints).items())
    bound = min(math.prod(c + 1 for _, c in counts), total // math.gcd(*ints) + 1)
    if bound > _TERM_CAP:
        raise ComplexityError(
            f"chain transform needs up to {bound} subset sums; the cap is {_TERM_CAP}")
    fits = max(total, math.comb(len(ints), len(ints) // 2)) < 2 ** 63
    sums = np.zeros(1, np.int64 if fits else object)
    weights = np.ones(1, sums.dtype)
    for a, left in counts:
        while left:
            c = min(left, 2 * bound // len(sums) - 1)
            left -= c
            signed = [1]
            for j in range(1, c + 1):
                signed.append(-signed[-1] * (c - j + 1) // j)
            sums = (np.arange(c + 1, dtype=sums.dtype)[:, None] * a + sums).ravel()
            weights = (np.array(signed, sums.dtype)[:, None] * weights).ravel()
            order = np.argsort(sums, kind="stable")     # merges the c + 1 increasing runs
            sums, weights = sums[order], weights[order]
            first = np.concatenate(([True], sums[1:] != sums[:-1]))
            if not first.all():
                heads = np.flatnonzero(first)
                sums, weights = sums[heads], np.add.reduceat(weights, heads)
                sums, weights = sums[weights != 0], weights[weights != 0]
    return sums, weights, k


def _tree_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the first axis, whose n rows are added into one another in
    halves, so a term passes through at most ceil(log2 n) roundings; each
    column's sum depends on that column alone."""
    width = 1 << (len(terms) - 1).bit_length() >> 1    # the largest power of two below n
    if not width:
        return terms[0].copy()
    total = terms[:width].copy()
    total[:len(terms) - width] += terms[width:]
    while width > 1:
        width //= 2
        total[:width] += total[width:2 * width]
    return total[0]


def _table_sum(model: InputModel, sums, weights, k: int):
    """s -> exp(sum_sigma w_sigma log phi_in(s + sigma)) over a subset table,
    elementwise over a 1-D array of points s > 0, each in float64 where its
    own error bound is at most ``_FLOAT_REL_TOL``, else in mpmath; a value
    below the smallest normal float is refused.

    A value's relative error is the absolute error of its log, the sum of
    w_sigma l_sigma with l_sigma = log phi_in(s + sigma).  In units of
    u = 2^-53, with ``_FN_UNITS`` per log, expm1 or exp: sigma and s + sigma
    round, 2 units, which pass to phi_in at most once as x phi_in'(x) <=
    phi_in(x); the law adds 2 for x / (rho + x), 1 + ``_FN_UNITS`` for
    -expm1(-d x) and 2 + ``_FN_UNITS`` + ceil(log2 K) for K samples through
    :func:`_tree_sum`, so c_law = 4, 7 or 8 + ceil(log2 K) units of error in
    l; the log, the product with w (and w's rounding past 2^53) and a tree
    sum of depth d = ceil(log2 N) over the N terms add (d + 6) units of
    |w_sigma l_sigma|; and the term sigma = 0, w = 1 and |l_0| <= 745 at a
    normal law value, adds at most 745 (d + 5) with the final exp.  So with
    M = sum_(sigma > 0) |w_sigma|, an exact integer, the floor
    F / u = c_law M + 745 (d + 5) holds at every point, and a point's bound,
    F + u (d + 6) sum_sigma |w_sigma l_sigma(s)|, is read off its float64
    terms (a running error bound).  Where F passes the tolerance no float64
    pass is made; otherwise only the points whose bound passes it, or whose
    law values fall below the smallest normal float, go to mpmath.  There,
    as phi_in(x) >= 2^-2149 for float parameters and x > 0, every |l_sigma|
    < ``_LOG_CAP`` = 2^11, and the same count with sum |w l| <= (M + 1) 2^11
    gives the width: at its bit length plus 53 + ``_GUARD_BITS`` bits, the
    exact fsum is within 2^-(53 + ``_GUARD_BITS``) before it rounds to a
    float.  The mpmath table is built at the first point that needs it.  A
    point's sum is taken in one column by :func:`_tree_sum`, so its value
    and route do not depend on the other points of its call.
    """
    depth = (len(sums) - 1).bit_length()
    size = np.abs(weights)     # summed in int64 where that cannot overflow, else exactly
    mass = int(size.sum(dtype=object if len(size) * int(size.max()) >= 2 ** 63 else None)) - 1
    if model.kind == EXPONENTIAL:
        c_law = 4
    elif model.kind == DETERMINISTIC:
        c_law = 3 + _FN_UNITS
    else:
        c_law = 4 + _FN_UNITS + (len(model.samples) - 1).bit_length()
    floor = c_law * mass + 745 * (depth + _FN_UNITS + 1)
    bits = (floor + (depth + _FN_UNITS + 2) * (mass + 1) * _LOG_CAP).bit_length() + 53 + _GUARD_BITS
    tol = _FLOAT_REL_TOL * 2 ** 53      # the tolerance in units of u

    @functools.cache
    def exact_table():
        with mpmath.workprec(bits):
            return _input_law(model, mpmath), [(mpmath.mpf((x, -k)), w)
                                               for x, w in zip(sums.tolist(), weights.tolist())]

    def exact(s):
        exact_law, table = exact_table()
        with mpmath.workprec(bits):
            x = mpmath.mpf(s)
            total = mpmath.fsum(w * mpmath.log(exact_law(x + sigma)) for sigma, w in table)
            return float(mpmath.exp(total))

    if floor <= tol:
        if sums.dtype == object:        # Python's int / int rounds once
            at = np.array([x / (1 << k) for x in sums.tolist()])
        else:
            at = np.ldexp(sums.astype(np.float64), -k)
        scale = weights.astype(np.float64)
        law = _input_law(model)
        rows = max(1, _BLOCK // len(at))     # points per block of s + sums

    def fn(s):
        out = np.full(len(s), np.nan)     # nan marks the points left to mpmath
        if floor <= tol:
            for i in range(0, len(s), rows):
                x = s[i:i + rows]
                n = len(x)
                values = law(np.add.outer(at, x))
                # each point's terms, then their magnitudes, summed by one tree
                pair = np.empty((len(at), 2 * n))
                np.multiply(scale[:, None], np.log(np.maximum(values, _TINY)), out=pair[:, :n])
                np.abs(pair[:, :n], out=pair[:, n:])
                total = _tree_sum(pair)
                live = ((values.min(axis=0) >= _TINY)
                        & ((depth + _FN_UNITS + 2) * total[n:] + floor <= tol))
                out[i:i + rows][live] = [math.exp(t) for t in total[:n][live].tolist()]
        for j in np.flatnonzero(np.isnan(out)).tolist():
            out[j] = exact(float(s[j]))
        _refuse_underflow(s, out < _TINY, "the chain transform")
        return out

    return fn


def subset_expansion(phi: LaplaceEval, rates, s: float) -> float:
    """Closed-form chain value at one point, expanded over rate subsets.

    The value is the ratio of products of ``phi(s + sum of subset)`` over
    even- and odd-sized subsets, with phi evaluated at all 2^L points in one
    array call.  At s = 0 the empty-subset factor vanishes and the value is
    0; extract the mean via :func:`mean_from_transform` instead of dividing
    here.  Rates or an s whose sums overflow, and a phi below the smallest
    normal float at some point, are refused with ValueError.
    """
    rs = _positive_rates(rates)
    L = len(rs)
    if 2 ** L > _TERM_CAP:
        raise ComplexityError(f"subset expansion needs 2**{L} terms; the cap is {_TERM_CAP}")
    s = float(s)
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"transforms are evaluated at finite s >= 0, got {s}")
    if s == 0.0:
        return 0.0
    if L == 0:
        return phi(s)
    top = functools.reduce(operator.add, rs)    # the largest sum, rounded as below
    if not math.isfinite(top):
        raise ValueError("the recovery rates sum beyond the float range")
    if not math.isfinite(s + top):
        raise ValueError(f"s = {s!r} plus the rate sum {top!r} is beyond the float range")
    # subset sums by doubling, lowest index first: deterministic and compact
    sums = np.zeros(1, dtype=np.float64)
    parity = np.zeros(1, dtype=np.int8)
    for r in rs:
        sums = np.concatenate([sums, sums + r])
        parity = np.concatenate([parity, parity ^ 1])
    points = s + sums
    values = phi(points)
    _refuse_underflow(points, values < _TINY, f"{phi!r}")
    logs = np.log(values)
    total = float(np.sum(logs[parity == 0]) - np.sum(logs[parity == 1]))
    return math.exp(total)


def mean_from_transform(phi: LaplaceEval) -> float:
    """Mean of the interval law: phi(h)/h at h = ``_MEAN_H0`` = 2^-64, from
    one call of phi on [0, h, 2h]; phi(0) must be 0 exactly.

    As phi(s)/s = E T - s E T^2 / 2 + ..., the read at h is off by about
    a = h E T^2 / (2 E T), and the read at 2h by twice that.  phi's own
    relative error e (at most ``_FLOAT_REL_TOL`` = 2^-30 for a chain
    transform) enters each read once, so the two reads differ by a within
    2e, and the read at h is off by at most their difference plus 3e.  Of
    the ``_MEAN_REL_TOL`` = 1e-8 budget, 3 * 2^-30 < 2.8e-9 is therefore
    kept for phi, and the reads must agree within the rest, which bounds
    the error to first order.  Unless they do and phi(h) is a normal float,
    ConvergenceError: no finite mean, or a scale out of range (an input
    mean below 2^-958 underflows phi(h)).
    """
    h = _MEAN_H0
    zero, one, two = phi(np.array([0.0, h, 2 * h])).tolist()
    if zero != 0.0:
        raise ImproperTransformError(f"phi(0) = {zero}, expected 0")
    mean, check = one / h, two / (2 * h)
    tol = _MEAN_REL_TOL - 3 * _FLOAT_REL_TOL
    if not (one >= _TINY and abs(mean - check) <= tol * mean):
        raise ConvergenceError(
            f"phi(s)/s is {mean!r} at s = 2^-64 and {check!r} at 2^-63; a mean is read only "
            f"where phi(2^-64) is a normal float and the two agree to rel_tol={tol:.3g}")
    return mean


def permanent_reduce(config: SystemConfig) -> SystemConfig:
    """Trade permanent input for its equivalent one-node-shorter chain.

    A permanently fed rightmost node emits signals as a Poisson process with
    its own recovery rate, so dropping it and feeding the remainder with
    exponential input of that rate leaves every observable at the remaining
    nodes unchanged.  Reducing a one-node chain yields the empty chain whose
    input process is the observable itself.
    """
    if not config.input.is_permanent:
        raise ValueError("only permanent-input configurations can be reduced")
    rho = config.rates.rate(config.right_node)
    return SystemConfig(config.left_node, config.right_node - 1,
                        config.rates, InputModel.exponential(rho))


# ---------------------------------------------------------------------------
# Exact means for the equal-rate permanent chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighPrecisionReal:
    """A value carried at a stated binary precision."""

    value: mpmath.mpf
    bits: int

    def __float__(self) -> float:
        return float(self.value)

    def digits(self, n: int) -> str:
        return mpmath.nstr(self.value, n, strip_zeros=False)


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[k] is the smallest prime factor of k for 2 <= k <= n; k is prime
    exactly when spf[k] == k."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _prime_exponents(sums, weights, spf: list[int]) -> list[tuple[int, int]]:
    """The nonzero exponents e_p, increasing in p, with prod_(sigma > 0)
    sigma^(w_sigma) = prod_p p^(e_p) over an integer subset table: e_p =
    sum_sigma w_sigma v_p(sigma), each sum factored with the sieve ``spf``,
    which must reach the largest sum.  On the table of n unit rates the
    product is prod_k k^((-1)^k C(n, k)).
    """
    exps = Counter()
    for x, w in zip(sums.tolist(), weights.tolist()):
        while x > 1:
            exps[spf[x]] += w
            x //= spf[x]
    return sorted((p, e) for p, e in exps.items() if e)


def _two_atanh_inv(m: int, w: int) -> tuple[int, int]:
    """2 atanh(1/m) = sum_k 2 / ((2k + 1) m^(2k + 1)) for m >= 3, in
    units of 2^-w, rounded down, with a bound on its error in those units.

    Its first K = floor(w / (2 (bit_length(m) - 1))) + 1 terms are summed
    exactly by binary splitting, as 2m T / (B Q) with B = prod (2k + 1) and
    Q = m^(2K), and rounded down once.  As m^(2K) > 2^w, the tail is below
    2 / ((2K + 1) m (1 - 1/m^2)) < 1 unit, and so is the rounding: the
    result is never too large and short by less than 2 units.
    """
    m2 = m * m

    def split(a: int, b: int) -> tuple[int, int, int]:
        # sum_(a <= k < b) 1 / ((2k + 1) m^(2(k - a + 1))) = T / (B Q)
        if b - a == 1:
            return 2 * a + 1, m2, 1
        (b1, q1, t1), (b2, q2, t2) = split(a, (a + b) // 2), split((a + b) // 2, b)
        return b1 * b2, q1 * q2, t1 * b2 * q2 + b1 * t2

    b, q, t = split(0, w // (2 * (m.bit_length() - 1)) + 1)
    return (t * m << (w + 1)) // (b * q), 2


def _log_table(spf: list[int], w: int) -> dict[int, tuple[int, int]]:
    """ln p in units of 2^-w, and a bound on its error in those units, for
    p = 2 and the odd primes p whose p + 1 the sieve ``spf`` reaches.

    ln 2 = 2 atanh(1/3), and for an odd prime p,
    2 ln p = ln(p - 1) + ln(p + 1) + 2 atanh(1/(2p^2 - 1)), where
    ln(p - 1) and ln(p + 1) are summed from the entries of the smaller
    primes over their factorizations.  If the bounds of the series and of
    the entries summed, each counted with its multiplicity, add up to D,
    2 ln p is short by less than D, and halving it, rounded down, leaves
    ln p short by less than D / 2 + 1/2 <= D // 2 + 1, never too large.
    """
    table = {2: _two_atanh_inv(3, w)}
    for p in range(3, len(spf) - 1):
        if spf[p] != p:
            continue
        value, bound = _two_atanh_inv(2 * p * p - 1, w)
        for k in (p - 1, p + 1):
            while k > 1:
                q = spf[k]
                k, value, bound = k // q, value + table[q][0], bound + table[q][1]
        table[p] = (value >> 1, bound // 2 + 1)
    return table


def exact_mean_equal_rates(n: int, precision_bits: int | None = None) -> HighPrecisionReal:
    """Mean first-reception time at the left end of an n-node equal-rate
    chain under permanent input, by the exact alternating product.

    The mean is prod_k k^((-1)^k C(n, k)) = prod_p p^(e_p), with the exact
    integer exponents that :func:`_prime_exponents` reads off the subset
    table of n unit rates, so it is exp(sum_p e_p ln p).  The logarithms
    come from the integer table of :func:`_log_table`, on a sieve to n + 1,
    at w = ``precision_bits + n + 64`` fractional bits: each entry sums
    series rounded once, and the sum S = sum_p e_p L_p is exact, with an
    error below B = sum_p |e_p| E_p units of 2^-w, E_p being the bound of
    entry p (B stays below 2^(n+5) up to n = 4096).  An absolute error in
    the sum is a relative error in the mean, and the alternating sum cancels
    about n bits (|e_p| reaches about 2^n), which the n in w pays for.  A
    bound B 2^-w of 2^-(precision_bits + 32) or more is refused with
    PrecisionError; otherwise exp(S 2^-w) is taken at
    ``precision_bits + n + 32`` bits and rounded to the requested precision.
    Requests below n + 64 bits are refused.  Results are cached by (n, bits).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    floor = n + 64
    if precision_bits is None:
        precision_bits = floor
    if precision_bits < floor:
        raise PrecisionError(
            f"precision_bits={precision_bits} is below the floor {floor}: the "
            f"alternating sum cancels about {n} bits, leaving fewer than 64 "
            f"trustworthy bits in the result")
    return _exact_mean(n, precision_bits)


@functools.lru_cache(maxsize=128)
def _exact_mean(n: int, precision_bits: int) -> HighPrecisionReal:
    spf = _smallest_prime_factors(n + 1)
    w = precision_bits + n + _GUARD_BITS + _LOG_SLACK_BITS
    logs = _log_table(spf, w)
    total = bound = 0
    for p, e in _prime_exponents(*_subset_table([1.0] * n)[:2], spf):
        lp, ep = logs[p]
        total += e * lp
        bound += abs(e) * ep
    if bound.bit_length() > w - precision_bits - _GUARD_BITS:
        raise PrecisionError(
            f"the log table bounds the error of the exponent only by "
            f"2^{bound.bit_length() - w}; {precision_bits} bits need a bound "
            f"below 2^-{precision_bits + _GUARD_BITS}")
    with mpmath.workprec(precision_bits + n + _GUARD_BITS):
        value = mpmath.exp(mpmath.ldexp(total, -w))
    with mpmath.workprec(precision_bits):
        value = +value                     # round to the stated precision
    return HighPrecisionReal(value, precision_bits)


def exact_mean_small_fraction(n: int) -> Fraction:
    """The same mean as an exact rational, for cross-checking small n."""
    if not 1 <= n <= 16:
        raise ValueError("rational cross-check is for n <= 16 (the exponents "
                         "are binomial coefficients)")
    exps = _prime_exponents(*_subset_table([1.0] * n)[:2], _smallest_prime_factors(n))
    return Fraction(math.prod(p ** e for p, e in exps if e > 0),
                    math.prod(p ** -e for p, e in exps if e < 0))


def euler_ratio(n: int, precision_bits: int | None = None) -> float:
    """exact_mean_equal_rates(n, precision_bits) / ln n; approaches
    exp(EULER_GAMMA)."""
    if n < 2:
        raise ValueError("n must be >= 2 (ln 1 = 0)")
    hp = exact_mean_equal_rates(n, precision_bits)
    with mpmath.workprec(hp.bits):
        return float(hp.value / mpmath.log(n))


def harmonic_lower_bound(n: int) -> float:
    """H_n = sum 1/i: every node must recover once, so the mean first
    reception at the left end is at least the mean maximum of n unit
    exponentials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.fsum(1.0 / i for i in range(1, n + 1))
