"""Reference values for the benchmark's correctness gates.

Nothing here calls ``onoffchain``: every reference is computed from the
model by a route the package does not take, so a gate compares two
independent computations.

* ``chain_moments`` gives the exact mean and variance of the interval law
  seen at the left end of a chain fed by exponential input.
  Writing the chain transform as the subset product
  ``phi(s) = prod_S f(s + sum S) ** (-1) ** |S|`` with ``f(s) = s / (rho + s)``,
  the exponent of each distinct subset sum is a coefficient of
  ``prod_i (1 - x ** r_i)``; the mean is ``phi'(0)`` and the second moment
  ``-phi''(0)``.  The first reception at node 1 from the all-off start has
  this law too (a reception at node 1 switches every node off), and a
  permanently fed chain is an exponential-input chain one node shorter
  whose input rate is the rate of the dropped rightmost node.
* ``equal_rate_mean_log`` gives the log of the equal-rate permanent-chain
  mean from prime exponents, ``sum_p e_p ln p`` with exact integer ``e_p``.
  It fixed the ``LADDER_MEAN_DIGITS`` table; run this file to print the
  table again.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

# exp(Euler's gamma) to 30 digits (OEIS A073004).
EXP_GAMMA = mpmath.mpf("1.78107241799019798523650410311")

# Means of the n-node equal-rate permanent chain, 40 significant digits,
# from ``equal_rate_mean_log`` at 2n + 128 bits.
LADDER_MEAN_DIGITS = {
    64: "8.172498454226164798521395635264670557536",
    128: "9.433029547477100499640035938491644608356",
    256: "10.69012013891630140606832461712260372359",
    512: "11.94392786691570847533974029836757159967",
    1024: "13.19487843928899891778210102799234558763",
    2048: "14.44343792032332513404775081510332784724",
}


def subset_sum_exponents(rates) -> dict[Fraction, int]:
    """Coefficients of prod_i (1 - x ** r_i), keyed by exact subset sum.

    Rates are taken as the exact binary fractions their floats denote, so
    equal sums merge and a chain of a few distinct rates stays small.
    """
    coef = {Fraction(0): 1}
    for r in rates:
        r = Fraction(r)
        if r <= 0:
            raise ValueError(f"rates must be positive, got {r}")
        nxt = dict(coef)
        for s, c in coef.items():
            nxt[s + r] = nxt.get(s + r, 0) - c
        coef = {s: c for s, c in nxt.items() if c}
    return coef


def chain_moments(rho: float, rates) -> tuple[float, float]:
    """Exact (mean, variance) of the interval law after exponential input
    of rate ``rho`` passes a chain with the given rates."""
    coef = subset_sum_exponents(rates)
    cancel = sum(abs(c) for c in coef.values()).bit_length()
    with mpmath.workprec(cancel + 128):
        rho = to_mpf(Fraction(rho))
        log_g = mpmath.fsum(c * mpmath.log(to_mpf(s) / (rho + to_mpf(s)))
                            for s, c in coef.items() if s)
        dlog_g = mpmath.fsum(c * rho / (to_mpf(s) * (rho + to_mpf(s)))
                             for s, c in coef.items() if s)
        g0 = mpmath.exp(log_g)
        mean = g0 / rho
        second = 2 * g0 / rho ** 2 - 2 * g0 * dlog_g / rho
        return float(mean), float(second - mean ** 2)


def to_mpf(q: Fraction) -> mpmath.mpf:
    """An exact fraction at the working precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def unit_chain_fraction(n: int) -> Fraction:
    """Exact rational mean of the n-node unit-rate permanent chain (small n):
    exponential(1) input through n - 1 unit nodes."""
    mean = Fraction(1)
    for s, c in subset_sum_exponents([1] * (n - 1)).items():
        if s:
            mean *= (s / (1 + s)) ** c
    return mean


def _primes(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def equal_rate_mean_log(n: int) -> mpmath.mpf:
    """ln of prod_k k ** ((-1) ** k C(n, k)) from exact prime exponents."""
    binom = [math.comb(n, k) for k in range(n + 1)]
    total = mpmath.mpf(0)
    with mpmath.workprec(2 * n + 128):
        for p in _primes(n):
            e = 0
            q = p
            while q <= n:           # add C(n, k) once per factor p**j of k
                for k in range(q, n + 1, q):
                    e += -binom[k] if k & 1 else binom[k]
                q *= p
            total += e * mpmath.log(p)
        return +total


def ladder_mean(n: int) -> mpmath.mpf:
    with mpmath.workprec(200):
        return mpmath.mpf(LADDER_MEAN_DIGITS[n])


def harmonic(n: int) -> float:
    """H_n, the mean of the maximum of n unit exponentials: a lower bound on
    the n-node equal-rate mean."""
    return math.fsum(1.0 / i for i in range(1, n + 1))


if __name__ == "__main__":
    for n in (64, 128, 256, 512, 1024, 2048):
        with mpmath.workprec(2 * n + 128):
            value = mpmath.exp(equal_rate_mean_log(n))
            print(f'    {n}: "{mpmath.nstr(value, 40, strip_zeros=False)}",')
