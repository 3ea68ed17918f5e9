"""Truncation laboratory for the unbounded chain.

The infinite-chain behaviour is classified by the threshold
``theta = inf{t : sum_i exp(-rate(i) t) < infinity}``.  Only schedules with
theta = 0 (rates growing faster than logarithmically) support the regime of
interest, where signals keep arriving from far away; this module probes that
regime exclusively through finite truncations: first-reception laws on node
windows [k, l], their monotonicity in l, an explicit uniform-in-l lower
bound on their CDFs, certificates that receptions stay dense, and Cauchy
style convergence diagnostics along a ladder of truncations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    InputModel,
    RateSchedule,
    SystemConfig,
    EventLog,
    CONSTANT,
    LINEAR,
    LOG_FAMILY,
    LOG_SQUARE,
    EXPLICIT,
)
from .sim import (
    EmpiricalDistribution,
    RandomnessPlan,
    StopRule,
    dkw_band,
    dominance_check,
    DominanceResult,
    ks_statistic,
    sample_first_reception,
    simulate,
    _reception_times,
)
from .analytic import permanent_reduce

__all__ = [
    "TailClassification",
    "DenseSignalCertificate",
    "MonotonicityReport",
    "DiagnosticsTable",
    "ExtensionSample",
    "TailSumError",
    "CertificateUnavailableError",
    "classify_rates",
    "exp_tail_sum",
    "sample_truncation_law",
    "monotonicity_check",
    "cdf_lower_bound",
    "dense_signal_certificate",
    "interval_reception_bound",
    "convergence_diagnostics",
    "sample_extension",
]


_TAIL_TERMS = 10_000_000     # terms a log-family tail sum may add
_TAIL_BLOCK = 1 << 16        # terms a log-family tail sum adds per block
_NO_TAIL = "explicit schedules have no tail beyond their length"


class TailSumError(ArithmeticError):
    """The tail sum cannot be evaluated to the requested accuracy."""


class CertificateUnavailableError(RuntimeError):
    """No recovery-window certificate exists within the search budget."""


# ---------------------------------------------------------------------------
# Tail classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailClassification:
    """Where ``sum_i exp(-rate(i) t)`` switches from divergent to convergent.

    case 1: theta = infinity (rates too small; nothing penetrates from afar)
    case 2: theta finite, sum still divergent at theta
    case 3: theta finite, sum convergent at theta (periodic penetration)
    case 4: theta = 0 (the regime with dense signals from afar)
    """

    theta: float
    case: int
    note: str = ""


def classify_rates(rates: RateSchedule) -> TailClassification:
    """Classify a schedule by its tail threshold, in closed form.

    Explicit finite schedules are refused: the threshold is a tail property
    that no finite list determines.
    """
    fam = rates.family
    if fam == EXPLICIT:
        raise ValueError(f"{_NO_TAIL}; classification needs a parametric family")
    if fam == CONSTANT:
        return TailClassification(math.inf, 1,
                                  "constant rates: the sum diverges for every t")
    if fam == LINEAR:
        return TailClassification(0.0, 4, "geometric tails converge for every t > 0")
    if fam == LOG_SQUARE:
        return TailClassification(0.0, 4, "exp(-t log^2 k) decays faster than any power")
    theta = rates.theta0
    # log family: at t = theta the terms are ~ 1/(k (log k)^(theta*alpha))
    if rates.theta0 * rates.alpha > 1.0:
        return TailClassification(theta, 3, "sum converges at the threshold itself")
    return TailClassification(theta, 2, "sum still diverges at the threshold")


def exp_tail_sum(rates: RateSchedule, x: float, start: int,
                 rel_tol: float = 1e-3) -> float:
    """Rigorous upper bound on ``sum_{j >= start} exp(-rate(j) x)``.

    Closed form for linear schedules (geometric); the log families are
    summed in index order, in numpy blocks of terms each raised for
    rounding, until their integral-comparison remainder falls below
    ``rel_tol`` of the partial sum.  Returns ``inf`` when the sum
    diverges (or cannot be dominated), which downstream bounds treat as the
    trivial bound.  Raises ``TailSumError`` when ``_TAIL_TERMS`` terms do
    not get there, at once when the remainder after them is already too
    large.
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if start < 1:
        raise ValueError("start index must be >= 1")
    fam = rates.family
    if fam == CONSTANT:
        return math.inf
    if fam == LINEAR:
        # exp(-c x start) / (1 - exp(-c x)); the rounded exponent c x start is
        # off by up to 2^-52 of itself, and exp, expm1, the products and the
        # quotient by a few 2^-53: widen by (arg + 5) 2^-52, then one ulp up
        cx = rates.c * x
        arg = cx * start
        tail = math.exp(-arg) / -math.expm1(-cx)
        return math.nextafter(tail * (1.0 + (arg + 5.0) * 2.0 ** -52), math.inf)
    if fam == EXPLICIT:
        raise TailSumError(f"{_NO_TAIL}; tail sums need a parametric family")
    # remainder(j) bounds sum_{k >= j} exp(-rate(k) x) for an array of
    # indices j, or is inf where no bound is known yet
    if fam == LOG_FAMILY:
        # terms <= u^(-x/theta0) for u >= 3; need the exponent > 1 to dominate
        p = x / rates.theta0
        if p <= 1.0:
            return math.inf

        def remainder(j):
            # integral_{j-1}^inf u^-p du, valid once j-1 >= 3; np.where
            # evaluates both branches, so the power is kept finite
            return np.where(j - 1 >= 4, np.maximum(j - 1, 4) ** (1.0 - p) / (p - 1.0),
                            math.inf)
    else:
        def remainder(j):
            # logsquare: exp(-x log^2(u+1)) <= (u+1)^(-x log j) for u >= j-1
            p = x * np.log(j)
            q = np.where(p > 1.0, p, 2.0)
            return np.where(p > 1.0, j ** (1.0 - q) / (q - 1.0), math.inf)
    # The terms are summed in blocks, in index order, the running total
    # continued by cumsum, and the sum stops at the first j whose remainder
    # is within rel_tol of the partial sum.  The remainder decreases in j
    # once it is finite, and every partial sum is at most total + rest of
    # any step.  So once the remainder at the last step exceeds rel_tol
    # times that, the sum cannot stop in time; the factor 1 + 2^-20 covers
    # the rounding of 10^7 additions.
    stop = start + _TAIL_TERMS + 1      # the last j the sum tries
    last = float(remainder(np.float64(stop)))
    margin = rel_tol * (1.0 + 2.0 ** -20)
    total = 0.0
    lo, size = start, 8
    while True:
        hi = min(lo + size, stop)
        # totals[n] sums the terms lo..lo+n, so the next j is lo + n + 1
        totals = np.cumsum(np.concatenate(([total], _tail_terms(rates, x, lo, hi))))[1:]
        rests = remainder(np.arange(lo + 1, hi + 1, dtype=np.float64))
        done = rests <= rel_tol * np.maximum(totals, 1e-300)
        hopeless = last >= margin * np.maximum(totals + rests, 1e-300)
        hopeless[-1] |= hi == stop
        ends = np.flatnonzero(done | hopeless)
        if ends.size:
            n = ends[0]
            if not done[n]:
                raise TailSumError("tail sum did not stabilize")
            # numpy's power is within an ulp of the exact remainder
            return float(totals[n] + np.nextafter(rests[n], math.inf))
        total = totals[-1]
        lo, size = hi, min(2 * size, _TAIL_BLOCK)


def _tail_terms(rates: RateSchedule, x: float, lo: int, hi: int) -> np.ndarray:
    """exp(-rate(j) x) for j = lo..hi-1 of a log family, each raised by
    16 (x (rate(j) + alpha) + 1) ulps.

    numpy's log and exp, like math's, are within an ulp of the exact values;
    the rate's logs carry into the exponent x rate(j) up to a few ulps of
    x (rate(j) + alpha), which exp turns into the same relative error.  So
    every raised term bounds from above both the exact term and the one
    ``RateSchedule.rate`` and ``math.exp`` give.
    """
    j = np.arange(lo, hi, dtype=np.float64)
    if rates.family == LOG_FAMILY:
        # RateSchedule.rate: clamped at index 3 so log(log(j)) stays positive
        lj = np.log(np.maximum(j, 3.0))
        rate = lj / rates.theta0 + rates.alpha * np.log(lj)
    else:
        rate = np.log(j + 1.0) ** 2
    arg = rate * x
    return np.exp(-arg) * (1.0 + (arg + rates.alpha * x + 1.0) * 2.0 ** -48)


# ---------------------------------------------------------------------------
# Truncation laws and their monotonicity
# ---------------------------------------------------------------------------

def _warn_if_not_case4(rates: RateSchedule):
    if rates.family == EXPLICIT:
        return
    cls = classify_rates(rates)
    if cls.case != 4:
        warnings.warn(f"schedule falls in case {cls.case}; truncation laws "
                      f"converge only in case 4")


def sample_truncation_law(k: int, l: int, rates: RateSchedule, reps: int,
                          seed: int) -> EmpiricalDistribution:
    """Sample the first reception time at node k of the chain on [k, l]
    fed permanently at the right end.

    Uses the permanent-input reduction: the chain [k, l-1] with exponential
    input at rate rate(l); for k = l the law is the bare exponential of
    rate(k), simulated directly.
    """
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    _warn_if_not_case4(rates)
    full = SystemConfig(k, l, rates, InputModel.permanent())
    if l == k:
        return sample_first_reception(full, k, reps, seed)
    reduced = permanent_reduce(full)
    return sample_first_reception(reduced, k, reps, seed)


@dataclass(frozen=True)
class MonotonicityReport:
    rows: tuple[tuple[int, int, DominanceResult], ...]   # (l, l_next, result)
    band: float

    @property
    def all_dominate(self) -> bool:
        return all(r.dominates for _, _, r in self.rows)

    def failures(self):
        return [(a, b, r) for a, b, r in self.rows if not r.dominates]


def monotonicity_check(k: int, l_list, rates: RateSchedule, reps: int,
                       seed: int, alpha: float = 0.01) -> MonotonicityReport:
    """Check that longer truncations are stochastically larger.

    For consecutive l < l' in ``l_list``, the law on [k, l'] must dominate
    the law on [k, l] up to a two-sample uniform CDF band at level alpha.
    Ladder points share the seed, hence couple through common recovery
    streams; that only sharpens the comparison, the band stays valid.
    """
    if not 0 < alpha < 1:     # dkw_band alone would take alpha / 2 up to 1
        raise ValueError(f"need 0 < alpha < 1, got alpha={alpha!r}")
    band = dkw_band(reps, alpha / 2.0) * 2.0
    ls, samples = _rung_samples(k, l_list, rates, reps, seed)
    rows = tuple((a, b, dominance_check(x, y, band))
                 for a, b, x, y in zip(ls, ls[1:], samples, samples[1:]))
    return MonotonicityReport(rows, band)


def _rung_samples(k: int, ladder, rates: RateSchedule, reps: int,
                  seed: int) -> tuple[list[int], list[EmpiricalDistribution]]:
    """The strictly ascending ``ladder`` as a list, and the truncation law on
    [k, l] sampled with the one seed at each of its rungs l."""
    ls = list(ladder)
    if ls != sorted(ls) or len(set(ls)) != len(ls):
        raise ValueError("ladder must be strictly ascending")
    return ls, [sample_truncation_law(k, l, rates, reps, seed) for l in ls]


# ---------------------------------------------------------------------------
# Uniform-in-l bounds
# ---------------------------------------------------------------------------

def cdf_lower_bound(k: int, t: float, rates: RateSchedule) -> float:
    """Lower bound on the CDF at t of every truncation law on [k, l].

    Built from three independent events in an auxiliary chain fed at rate
    ``t**(-2/3)``: no input before sqrt(t), every node recovered by sqrt(t),
    and an input in (sqrt(t), t).  Valid for every l >= k; tends to 1 as t
    grows for schedules with theta = 0.
    """
    if not t > 1.0:
        raise ValueError("t must exceed 1 so that sqrt(t) < t")
    rho = t ** (-2.0 / 3.0)
    rt = math.sqrt(t)
    return _three_events(rho * rt, exp_tail_sum(rates, rt, k), rho * (t - rt))


def _three_events(a: float, tail: float, b: float) -> float:
    """exp(-a) max(0, 1 - tail) (1 - exp(-b)): the chance of three independent
    events, no input while a are expected, every node recovered but for the
    tail mass, and an input while b are expected."""
    return math.exp(-a) * max(0.0, 1.0 - tail) * -math.expm1(-b)


@dataclass(frozen=True)
class DenseSignalCertificate:
    """A recovery window tau for node index k with small tail mass.

    ``tail_sum`` bounds ``sum_{j >= k} exp(-rate(j) tau)`` and is at most
    1/k; ``input_rate`` is the auxiliary rate 1/sqrt(tau).  ``bound``, when
    set, is the reception-probability lower bound derived for one interval.
    """

    node_index: int
    tau: float
    tail_sum: float
    input_rate: float
    bound: float | None = None

    def record(self) -> str:
        b = "" if self.bound is None else repr(self.bound)
        return f"{self.node_index},{self.tau!r},{self.tail_sum!r},{self.input_rate!r},{b}"


def dense_signal_certificate(rates: RateSchedule, k: int,
                             budget: float) -> DenseSignalCertificate:
    """Smallest recovery window tau in (0, budget] with tail mass <= 1/k.

    Binary search on the monotone tail sum; raises when even the full budget
    fails the target (constant-rate schedules never certify).  Explicit
    schedules are refused, having no tail to bound.
    """
    if rates.family == EXPLICIT:
        raise ValueError(f"{_NO_TAIL}; certificates need a parametric family")
    if k < 1:
        raise ValueError("node index must be >= 1")
    if not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    target = 1.0 / k

    def tail(tau: float) -> float:
        try:
            return exp_tail_sum(rates, tau, k, rel_tol=1e-3 * target)
        except TailSumError:
            return math.inf

    if tail(budget) > target:
        raise CertificateUnavailableError(
            f"no recovery window within budget {budget} brings the tail mass "
            f"at node {k} below 1/{k}")
    lo, hi = 0.0, budget
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or mid == lo or mid == hi:
            break
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid
    ts = tail(hi)
    return DenseSignalCertificate(k, hi, ts, 1.0 / math.sqrt(hi))


def interval_reception_bound(k: int, interval: tuple[float, float],
                             rates: RateSchedule) -> DenseSignalCertificate:
    """Lower bound, uniform in the truncation length, on the probability that
    node k receives a signal inside the open interval.

    The interval must have finite positive length s.  The certificate is
    searched with a window below s/2; it is returned with its ``bound``
    filled in.
    """
    t0, t1 = interval
    s = t1 - t0
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"interval must have finite positive length, got {interval}")
    certificate = dense_signal_certificate(rates, k, budget=s / 2 * (1 - 1e-12))
    root = math.sqrt(certificate.tau)
    return replace(certificate, bound=_three_events(
        root, certificate.tail_sum, s / (2.0 * root)))


# ---------------------------------------------------------------------------
# Convergence diagnostics along a truncation ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsTable:
    k: int
    rows: tuple[tuple[int, float, float | None], ...]   # (l, mean, ks to next)

    def csv_lines(self):
        yield "l,mean,ks_to_next"
        for l, m, ks in self.rows:
            yield f"{l},{m!r},{'' if ks is None else repr(ks)}"

    def means(self):
        return [m for _, m, _ in self.rows]

    def ks_column(self):
        return [ks for _, _, ks in self.rows if ks is not None]


def convergence_diagnostics(k: int, l_ladder, rates: RateSchedule, reps: int,
                            seed: int) -> DiagnosticsTable:
    """Means and successive two-sample distances along a truncation ladder.

    Under a theta = 0 schedule the means are nondecreasing and the distance
    column shrinks; a constant-rate schedule surfaces its pathology as means
    that keep growing.
    """
    ls, samples = _rung_samples(k, l_ladder, rates, reps, seed)
    ks = [ks_statistic(a, b) for a, b in zip(samples, samples[1:])] + [None]
    return DiagnosticsTable(k, tuple((l, x.mean(), d) for l, x, d in zip(ls, samples, ks)))


@dataclass(frozen=True)
class ExtensionSample:
    log: EventLog              # restricted to nodes [1, k]
    sensitivity_ks: float      # gap-law distance between truncations l and 2l


def sample_extension(k: int, l: int, horizon: float, rates: RateSchedule,
                     seed: int) -> ExtensionSample:
    """Simulate the permanently fed truncation [1, l] and restrict to [1, k].

    The restriction approximates the window onto the unbounded chain; the
    attached diagnostic is the two-sample distance between the node-k
    interreception gaps at truncation l and at 2l (same seed, coupled).
    """
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    if l < 4 * k:
        warnings.warn(f"truncation l={l} is close to the observation window "
                      f"k={k}; prefer l >= 4k")
    _warn_if_not_case4(rates)

    plan, stop = RandomnessPlan(seed, 0), StopRule.horizon(horizon)

    def chain(ll: int) -> SystemConfig:
        return SystemConfig(1, ll, rates, InputModel.permanent())

    def gaps(times) -> EmpiricalDistribution:
        if not len(times):
            raise ValueError(f"no receptions at node {k} within the horizon; "
                             f"extend it")
        return EmpiricalDistribution.from_values(np.diff(times, prepend=0.0))

    log_l = simulate(chain(l), plan, stop)
    times_2l = _reception_times(chain(2 * l), plan, stop, k)[0]
    ks = ks_statistic(gaps(log_l.receptions_at(k)), gaps(times_2l))
    return ExtensionSample(log_l.restrict(k), ks)
