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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .core import DETERMINISTIC, EXPONENTIAL, InputModel, SystemConfig

__all__ = [
    "LaplaceEval", "HighPrecisionReal", "EULER_GAMMA", "EXP_EULER_GAMMA",
    "PermanentInputError", "ImproperTransformError", "InfiniteMeanError",
    "ComplexityError", "PrecisionError", "ConvergenceError",
    "transform_of_input", "node_step", "chain_transform", "subset_expansion",
    "mean_from_transform", "permanent_reduce", "exact_mean_equal_rates",
    "exact_mean_small_fraction", "euler_ratio", "harmonic_lower_bound",
]

EULER_GAMMA = 0.57721566490153286
EXP_EULER_GAMMA = 1.7810724179901979852   # exp(EULER_GAMMA); comparison constant only

_TERM_CAP = 2 ** 25       # subset sums one exact chain evaluation may expand into
_FLOAT_WEIGHT_CAP = 2 ** 10   # largest subset weight summed in float64
_GUARD_BITS = 32
_LOG_SLACK_BITS = 32   # fixed-point bits the log table's error bound may take up
_EMPIRICAL_BLOCK = 2 ** 16    # array elements per block of empirical samples
_MEAN_H0 = 1e-3
_MEAN_REL_TOL = 1e-8
_MEAN_MAX_EVALS = 40


class PermanentInputError(ValueError):
    """Permanent input has no interval transform; reduce it away first."""


class ImproperTransformError(ValueError):
    """phi(0) != 0: not the transform of a proper interval law."""


class InfiniteMeanError(ArithmeticError):
    """phi(s)/s diverges as s -> 0: the law has no finite mean."""


class ComplexityError(RuntimeError):
    """An exact evaluation would need too many subset terms."""


class PrecisionError(ValueError):
    """Requested precision is below the cancellation floor."""


class ConvergenceError(ArithmeticError):
    """An extrapolation ran out of evaluations before it settled."""


class LaplaceEval:
    """Evaluator for phi(s) = 1 - integral exp(-s x) dF(x), s >= 0.

    Invariants for proper laws: phi(0) = 0, phi nondecreasing, phi <= 1.
    ``kind`` is one of "closed-form", "composite", "empirical".
    """

    __slots__ = ("_fn", "kind", "label")

    def __init__(self, fn, kind: str, label: str = ""):
        if kind not in ("closed-form", "composite", "empirical"):
            raise ValueError(f"unknown transform kind {kind!r}")
        self._fn = fn
        self.kind = kind
        self.label = label

    def __call__(self, s: float) -> float:
        s = float(s)
        if not (math.isfinite(s) and s >= 0):
            raise ValueError(f"transforms are evaluated at finite s >= 0, got {s}")
        return float(self._fn(s))

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
    """phi of a proper input law: elementwise on a float array with ``lib``
    numpy, at one mpmath argument with ``lib`` mpmath, its float parameters
    converted once and exactly."""
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
    samples = model.samples

    def emp(x):
        # sum over blocks of samples, so at most _EMPIRICAL_BLOCK terms are held
        step = max(1, _EMPIRICAL_BLOCK // np.size(x))
        acc = 0.0
        for i in range(0, len(samples), step):
            acc = acc - np.expm1(-np.multiply.outer(x, samples[i:i + step])).sum(axis=-1)
        return acc / len(samples)

    return emp


def node_step(phi: LaplaceEval, rate: float) -> LaplaceEval:
    """Transform after the stream passes one node with the given rate."""
    if not rate > 0:
        raise ValueError("recovery rate must be positive")

    def stepped(s):
        return phi(s) / phi(s + rate)

    return LaplaceEval(stepped, "composite", f"{phi.label} -> node({rate})")


def chain_transform(model: InputModel, rates) -> LaplaceEval:
    """Transform after the input passes a whole chain of rates.

    ``rates`` is ordered from the entry node to the observed node; the
    result does not depend on the order, bit for bit.  Folding ``node_step``
    gives ``log phi(s) = sum_sigma w_sigma log phi_in(s + sigma)`` over the
    distinct subset sums of the rates, weighted as in :func:`_subset_table`.
    The sum cancels bits: it runs in float64 while max |w| <= 2**10, and
    otherwise in mpmath at ``len(rates) + 85`` bits, as sum |w| <= 2**len(rates).
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
    fn = _table_sum(model, sums, weights, k, len(rs) + 53 + _GUARD_BITS)
    return LaplaceEval(_guarded(fn, model, top), "composite",
                       f"{base.label} -> chain({len(rs)})")


def _positive_rates(rates) -> list[float]:
    """The rates as floats, refusing any that is not positive and finite."""
    rs = [float(r) for r in rates]
    for r in rs:
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"recovery rates must be positive and finite, got {r}")
    return rs


def _guarded(fn, model: InputModel, top: float):
    """``fn`` with phi(0) = 0 and a refusal of any s at which the input law's
    largest argument s + top, plus an exponential input's rate in its
    denominator, passes the float range."""
    rho = model.rate if model.kind == EXPONENTIAL else 0.0

    def checked(s):
        if not math.isfinite(s + top + rho):
            raise ValueError(f"s = {s!r} plus the rate sum {top!r} and the input "
                             f"rate {rho!r} is beyond the float range")
        if s == 0.0:
            return 0.0
        return fn(s)

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


def _table_sum(model: InputModel, sums, weights, k: int, bits: int):
    """s -> exp(sum_sigma w_sigma log phi_in(s + sigma)) over a subset table,
    in float64 while max |w| <= ``_FLOAT_WEIGHT_CAP``, else in mpmath at ``bits``."""
    if np.abs(weights).max() <= _FLOAT_WEIGHT_CAP:
        if sums.dtype == object:        # Python's int / int rounds once
            sums = np.array([x / (1 << k) for x in sums.tolist()])
        else:
            sums = np.ldexp(sums.astype(np.float64), -k)
        weights = weights.astype(np.float64)
        phi_in = _input_law(model)
        return lambda s: math.exp(float(np.sum(weights * np.log(phi_in(s + sums)))))
    with mpmath.workprec(bits):
        table = [(mpmath.mpf((x, -k)), w) for x, w in zip(sums.tolist(), weights.tolist())]
    phi_in = _input_law(model, mpmath)

    def fn(s):
        with mpmath.workprec(bits):
            x = mpmath.mpf(s)
            total = mpmath.fsum(w * mpmath.log(phi_in(x + sigma)) for sigma, w in table)
            return float(mpmath.exp(total))

    return fn


def subset_expansion(phi: LaplaceEval, rates, s: float) -> float:
    """Closed-form chain value at one point, expanded over rate subsets.

    The value is the ratio of products of ``phi(s + sum of subset)`` over
    even- and odd-sized subsets.  At s = 0 the empty-subset factor vanishes
    and the value is 0; extract the mean via :func:`mean_from_transform`
    instead of dividing here.
    """
    rs = _positive_rates(rates)
    L = len(rs)
    if 2 ** L > _TERM_CAP:
        raise ComplexityError(f"subset expansion needs 2**{L} terms; the cap is {_TERM_CAP}")
    if s < 0:
        raise ValueError("evaluate at s >= 0")
    if s == 0.0:
        return 0.0
    if L == 0:
        return phi(s)
    # subset sums by doubling, lowest index first: deterministic and compact
    sums = np.zeros(1, dtype=np.float64)
    parity = np.zeros(1, dtype=np.int8)
    for r in rs:
        sums = np.concatenate([sums, sums + r])
        parity = np.concatenate([parity, parity ^ 1])
    logs = np.fromiter((math.log(phi(s + x)) for x in sums), dtype=np.float64,
                       count=len(sums))
    total = float(np.sum(logs[parity == 0]) - np.sum(logs[parity == 1]))
    return math.exp(total)


def mean_from_transform(phi: LaplaceEval) -> float:
    """Mean of the interval law: the s -> 0+ limit of phi(s)/s.

    Uses Richardson extrapolation on a halving step, starting at 1e-3,
    until two successive extrapolants agree to ``_MEAN_REL_TOL`` (1e-8
    relative).  Raises ConvergenceError when ``_MEAN_MAX_EVALS`` evaluations
    do not get there.
    """
    if abs(phi(0.0)) > 1e-12:
        raise ImproperTransformError(f"phi(0) = {phi(0.0)}, expected 0")
    h = _MEAN_H0
    prev = None
    first = None
    est = delta = math.nan
    growth = 0
    evals = 0
    while evals < _MEAN_MAX_EVALS:
        a0 = phi(h) / h
        a1 = phi(h / 2) / (h / 2)
        a2 = phi(h / 4) / (h / 4)
        evals += 3
        r1a = 2 * a1 - a0
        r1b = 2 * a2 - a1
        est = (4 * r1b - r1a) / 3
        if prev is not None:
            delta = abs(est - prev)
            if delta <= _MEAN_REL_TOL * max(abs(est), 1e-300):
                return est
            growth = growth + 1 if abs(est) > 1.02 * abs(prev) else 0
            if growth >= 6 and abs(est) > 8.0 * abs(first):
                raise InfiniteMeanError("phi(s)/s keeps growing as s -> 0")
        else:
            first = est
        prev = est
        h /= 2
    raise ConvergenceError(
        f"phi(s)/s did not settle to rel_tol={_MEAN_REL_TOL} within {_MEAN_MAX_EVALS} "
        f"evaluations; last estimate {est!r}, last change {delta!r}")


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
    if config.is_empty:
        raise ValueError("nothing to reduce in an empty chain")
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

    Every division rounds down, so the result is never too large.  The
    running power 2^(w+1) / m^(2k+1) is short of its true value by less
    than 1 at k = 0 and by less than 1 / (1 - 1/m^2) <= 9/8 after, so of
    the K terms summed the first is short by less than 1 unit and term k by
    less than 9/8 / (2k + 1) + 1 < 2 units.  The series stops at the first
    power that is 0 (K >= 1, as 2^(w+1) > m), whose true value is then
    below 9/8; the tail from there is below (9/8)^2 / 3 < 1 unit.  The
    error is below 2K + 1.
    """
    power = (1 << (w + 1)) // m
    m2 = m * m
    total = k = 0
    while power:
        total += power // (2 * k + 1)
        power //= m2
        k += 1
    return total, 2 * k + 1


def _log_table(spf: list[int], w: int) -> dict[int, tuple[int, int]]:
    """ln p in units of 2^-w, and a bound on its error in those units, for
    the primes p <= len(spf) - 1.

    ln 2 = 2 atanh(1/3), and for an odd prime p,
    ln p = ln(p - 1) + 2 atanh(1/(2p - 1)), where ln(p - 1) is summed from
    the entries of the smaller primes over the factorization of p - 1.  An
    entry's bound is that of its series plus the bounds of the entries it
    sums, each counted with its multiplicity.
    """
    table = {}
    for p in range(2, len(spf)):
        if spf[p] != p:
            continue
        value, bound = _two_atanh_inv(2 * p - 1, w)
        k = p - 1
        while k > 1:
            q = spf[k]
            k //= q
            lq, eq = table[q]
            value += lq
            bound += eq
        table[p] = (value, bound)
    return table


def exact_mean_equal_rates(n: int, precision_bits: int | None = None) -> HighPrecisionReal:
    """Mean first-reception time at the left end of an n-node equal-rate
    chain under permanent input, by the exact alternating product.

    The mean is prod_k k^((-1)^k C(n, k)) = prod_p p^(e_p), with the exact
    integer exponents that :func:`_prime_exponents` reads off the subset
    table of n unit rates, so it is exp(sum_p e_p ln p).  The logarithms come from the integer table of
    :func:`_log_table` at w = ``precision_bits + n + 64`` fractional bits:
    the sum S = sum_p e_p L_p is exact, and its error is below
    B = sum_p |e_p| E_p units of 2^-w, E_p being the bound of entry p.  An
    absolute error in the sum is a relative error in the mean, and the
    alternating sum cancels about n bits (|e_p| reaches about 2^n), which
    the n in w pays for.  A bound B 2^-w of 2^-(precision_bits + 32) or
    more is refused with PrecisionError; otherwise exp(S 2^-w) is taken at
    ``precision_bits + n + 32`` bits and rounded to the requested precision.
    Requests below n + 64 bits are refused.  Results are cached by
    (n, bits).
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
    spf = _smallest_prime_factors(n)
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
