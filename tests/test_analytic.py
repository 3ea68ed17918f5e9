import math
import operator
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import pytest

from onoffchain import analytic, core, sim


@lru_cache(maxsize=None)
def _mp_subset_table(rates: tuple, bits: int):
    """(sigma, weight) over the distinct subset sums of a rate multiset."""
    table = [(mpmath.mpf(0), 1)]
    with mpmath.workprec(bits):
        for r, c in sorted(Counter(rates).items()):
            steps = [(j * mpmath.mpf(r), (-1) ** j * math.comb(c, j)) for j in range(c + 1)]
            table = [(sigma + shift, w * coeff)
                     for sigma, w in table for shift, coeff in steps]
    return table


def _mp_law(model):
    """The input law's transform as an mpmath function, at the caller's precision."""
    if model.kind == core.EXPONENTIAL:
        rho = mpmath.mpf(model.rate)
        return lambda x: x / (rho + x)
    if model.kind == core.DETERMINISTIC:
        d = mpmath.mpf(model.duration)
        return lambda x: -mpmath.expm1(-d * x)
    xs = [mpmath.mpf(float(v)) for v in model.samples]
    return lambda x: 1 - mpmath.fsum(mpmath.exp(-x * v) for v in xs) / len(xs)


@lru_cache(maxsize=None)
def _mp_decays(rates: tuple, samples: tuple, bits: int):
    """exp(-sigma v) for each subset sum sigma of ``_mp_subset_table`` (a row)
    and each sample v (a column)."""
    table = _mp_subset_table(rates, bits)
    with mpmath.workprec(bits):
        return [[mpmath.exp(-sigma * v) for v in samples] for sigma, _ in table]


def _mp_chain_reference(model, rates, s):
    """The chain transform at s as an mpmath sum of weighted input logs,
    carried at 160 bits beyond the chain length.

    An empirical law at s + sigma is 1 - mean(exp(-s v) exp(-sigma v)) over
    its samples v, with exp(-sigma v) computed once per rate list
    (``_mp_decays``) for every point s.  Each product is then off by a few
    units in the last of the working bits, and 1 - mean cancels at most
    log2(K / (1 - exp(-sigma_min v_max))) bits for K samples and the least
    positive sum sigma_min (the sum 0 gives exp(0) = 1 exactly): under 20
    bits for every chain here, whose positive sums are at least 0.001, far
    inside the 160 bits kept beyond the chain length.
    """
    rates = tuple(float(r) for r in rates)
    bits = len(rates) + 160
    table = _mp_subset_table(rates, bits)
    with mpmath.workprec(bits):
        x = mpmath.mpf(s)
        if model.kind == core.EMPIRICAL:
            samples = tuple(mpmath.mpf(float(v)) for v in model.samples)
            decay = [mpmath.exp(-x * v) for v in samples]
            laws = (1 - mpmath.fsum(map(operator.mul, decay, row)) / len(samples)
                    for row in _mp_decays(rates, samples, bits))
        else:
            law = _mp_law(model)
            laws = (law(x + sigma) for sigma, _ in table)
        return mpmath.exp(mpmath.fsum(w * mpmath.log(p) for (_, w), p in zip(table, laws)))


def _mp_grid_reference(model, rates, s):
    """The chain transform at s by folding ``node_step`` in mpmath over the
    integer grid s + j: phi_k(s + j) = phi_(k-1)(s + j) / phi_(k-1)(s + j + r_k)
    for integer rates r_k, at 160 bits beyond the chain length.  No subset
    sums are formed, so it reaches the long integer-rate chains."""
    assert all(r == int(r) for r in rates)
    rates = [int(r) for r in rates]
    with mpmath.workprec(len(rates) + 160):
        law = _mp_law(model)
        x = mpmath.mpf(s)
        values = [law(x + j) for j in range(sum(rates) + 1)]
        for r in rates:
            values = [values[j] / values[j + r] for j in range(len(values) - r)]
        return values[0]


def _fraction_table(rates):
    """(sigma, weight) over the distinct subset sums, folded rate by rate in a
    dict keyed by exact ``Fraction`` sums, zero weights dropped."""
    table = {Fraction(0): 1}
    for r in rates:
        step = dict(table)
        for sigma, w in table.items():
            step[sigma + Fraction(r)] = step.get(sigma + Fraction(r), 0) - w
        table = {sigma: w for sigma, w in step.items() if w}
    return sorted(table.items())


def _assert_matches_reference(phi, model, rates, grid, rel, reference=_mp_chain_reference):
    for s in grid:
        ref = reference(model, rates, s)
        got = phi(s)
        with mpmath.workprec(200):
            err = abs((got - ref) / ref)
        assert err <= rel, f"s={s}: {got!r} vs {mpmath.nstr(ref, 17)} (rel {mpmath.nstr(err, 3)})"


def _takes_mpmath(phi, s) -> bool:
    """Whether evaluating phi at s calls ``mpmath.log``: the route of that point."""
    with mock.patch.object(mpmath, "log", wraps=mpmath.log) as log:
        phi(s)
    return log.called


@lru_cache(maxsize=None)
def _float_table(rates: tuple):
    """(d, M, sums, weights) of a rate multiset's subset table: the depth of
    its tree sum, the exact sum of |w| over sigma > 0, and the sums and
    weights each rounded once to a float."""
    sums, weights, k = analytic._subset_table(list(rates))
    mass = sum(abs(w) for w in weights.tolist()) - 1
    return ((len(sums) - 1).bit_length(), mass, np.array([x / 2 ** k for x in sums.tolist()]),
            np.array(weights.tolist(), dtype=np.float64))


def _point_bound(model, rates, s):
    """The error bound of the float64 chain value at s, recounted from its
    float64 terms: u ((d + 6) sum |w l| + c_law M + 745 (d + 5)) with
    u = 2**-53, or inf where a law value is below the smallest normal float."""
    depth, mass, sums, weights = _float_table(tuple(float(r) for r in rates))
    if model.kind == core.EMPIRICAL:
        c_law = 8 + (len(model.samples) - 1).bit_length()
    else:
        c_law = 4 if model.kind == core.EXPONENTIAL else 7
    values = analytic._input_law(model)(s + sums)
    if (values < np.finfo(np.float64).tiny).any():
        return math.inf
    terms = weights * np.log(values)
    return ((depth + 6) * math.fsum(np.abs(terms)) + c_law * mass + 745 * (depth + 5)) * 2.0 ** -53


def _subset_expansion_loop(phi, rates, s):
    """The subset expansion with one scalar call of phi per subset sum: the
    per-point loop that the array path of ``analytic.subset_expansion`` is
    checked against."""
    sums = np.zeros(1)
    parity = np.zeros(1, dtype=np.int8)
    for r in rates:
        sums = np.concatenate([sums, sums + r])
        parity = np.concatenate([parity, parity ^ 1])
    logs = np.fromiter((math.log(phi(s + x)) for x in sums), dtype=np.float64, count=len(sums))
    return math.exp(float(np.sum(logs[parity == 0]) - np.sum(logs[parity == 1])))


_DIFF_INPUTS = {
    "exp": core.InputModel.exponential(1.3),
    "det": core.InputModel.deterministic(0.8),
    "emp": core.InputModel.empirical([0.3, 1.1, 2.6]),
}
_DIFF_CHAINS = {
    "equal8": [1.0] * 8,
    "equal16": [1.0] * 16,
    "equal24": [0.9] * 24,
    "equal32": [1.0] * 32,
    "equal64": [1.0] * 64,
    "mixed1x8_2x8": [1.0] * 8 + [2.0] * 8,
    "mixed1x10_1.7x5_3x3": [1.0] * 10 + [1.7] * 5 + [3.0] * 3,
    "distinct12": list(np.random.default_rng(31).uniform(0.3, 4.0, size=12)),
}
_DIFF_GRID = (1e-3, 0.1, 1.0, 10.0)
# the truncation [1, l] of the linear schedule fed permanently at its right
# end, reduced: exponential input at rate l into the rates 1, ..., l - 1
_LINEAR_TRUNCATIONS = {l: (core.InputModel.exponential(float(l)), [float(r) for r in range(1, l)])
                       for l in (16, 32, 64)}
_LINEAR32_MEAN = 1.8137858019543949     # E T_32 as an exact rational, rounded


# a 64-sample empirical law, as in the bench: a 12-rate chain on it has
# more subset sums than 2**16 / 64, so its points are summed in blocks
_EMP64 = core.InputModel.empirical(np.random.default_rng(64).gamma(2.0, 0.5, size=64))


class TestInputTransforms:
    def test_exponential(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(2.0))
        assert phi(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert phi(0.0) == 0.0

    def test_deterministic_normalization(self):
        phi = analytic.transform_of_input(core.InputModel.deterministic(1.0))
        assert phi(0.0) == 0.0
        assert phi(2.0) == pytest.approx(-math.expm1(-2.0), abs=1e-15)

    def test_empirical_matches_closed_form(self):
        rng = np.random.default_rng(600)
        draws = rng.exponential(1.0, 1_000_000)
        phi = analytic.transform_of_input(core.InputModel.empirical(draws))
        # var of 1 - e^{-X} is 1/12 for X ~ exp(1)
        se = math.sqrt(1.0 / 12.0 / len(draws))
        assert abs(phi(1.0) - 0.5) <= 3 * se

    def test_permanent_must_reduce(self):
        with pytest.raises(analytic.PermanentInputError):
            analytic.transform_of_input(core.InputModel.permanent())

    def test_negative_s_rejected(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        # and every s that is not finite
        for s in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                phi(s)


class TestNodeStep:
    def test_direct_substitution(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        stepped = analytic.node_step(phi, 1.0)
        assert stepped(1.0) == pytest.approx((1 / 2) / (2 / 3), abs=1e-15)

    def test_overflowing_point_refused_without_warning(self):
        # s + rate is formed on an array, where numpy warns on overflow
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        stepped = analytic.node_step(phi, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for s in (1e308, np.array([1.0, 1e308])):
                with pytest.raises(ValueError, match=r"s = 1e\+308 plus the rate 1e\+308"):
                    stepped(s)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
    def test_rate_refused_when_built(self, rate):
        # an infinite rate used to build and fail only at its first evaluation
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        with pytest.raises(ValueError, match="recovery rates must be positive and finite"):
            analytic.node_step(phi, rate)

    def test_underflowing_values_refused(self):
        # det(1e-300) at s = 1e-20 is a subnormal 1e-320, whose quotient
        # was 1.1e-5 off; phi(0) = 0 is exact and stays allowed
        phi = analytic.transform_of_input(core.InputModel.deterministic(1e-300))
        stepped = analytic.node_step(phi, 1.0)
        assert stepped(0.0) == 0.0 and stepped(1e-3) == pytest.approx(1e-3 / 1.001, rel=1e-12)
        with pytest.raises(ValueError, match=r"below the smallest normal float at s = 1e-20"):
            stepped(np.array([0.0, 1.0, 1e-20]))
        # and a subnormal denominator, phi(s + rate), under a normal numerator
        sinking = analytic.LaplaceEval(lambda s: np.where(s < 0.5, s, 1e-310),
                                       "closed-form", "sinking")
        with pytest.raises(ValueError, match=r"below the smallest normal float at s = 0\.25"):
            analytic.node_step(sinking, 1.0)(np.array([0.25, 0.3]))

    def test_huge_rate_approaches_identity(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        stepped = analytic.node_step(phi, 1e6)
        assert abs(stepped(1.0) - phi(1.0)) < 1e-5

    def test_mean_after_one_unit_node(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        stepped = analytic.node_step(phi, 1.0)
        mean = analytic.mean_from_transform(stepped)
        assert mean == pytest.approx(2.0, rel=1e-7)
        # simulation oracle for the same quantity
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([1.0]),
                                core.InputModel.exponential(1.0))
        dist = sim.sample_interreception(cfg, 1, 4000, seed=12)
        assert abs(dist.mean() - mean) <= 3 * dist.stderr()


class TestChainTransform:
    def test_empty_chain_is_identity(self):
        model = core.InputModel.exponential(2.0)
        chain = analytic.chain_transform(model, [])
        base = analytic.transform_of_input(model)
        assert chain(1.7) == base(1.7)

    def test_convolution_identity_mean(self):
        chain = analytic.chain_transform(core.InputModel.exponential(2.0), [1.0])
        assert analytic.mean_from_transform(chain) == pytest.approx(1.5, rel=1e-7)

    def test_matches_folded_steps(self):
        model = core.InputModel.exponential(1.0)
        for rates in ([0.7, 2.0, 1.1], [1.0, 1.0, 2.0, 2.0, 2.0, 0.5]):
            chain = analytic.chain_transform(model, rates)
            folded = analytic.transform_of_input(model)
            for r in rates:
                folded = analytic.node_step(folded, r)
            for s in (0.2, 1.0, 4.0):
                assert chain(s) == pytest.approx(folded(s), rel=1e-12)

    def test_permutation_invariance(self):
        model = core.InputModel.exponential(1.0)
        rng = np.random.default_rng(77)
        rates = rng.uniform(0.3, 4.0, size=12)
        base = analytic.chain_transform(model, rates)
        for _ in range(5):
            perm = rng.permutation(rates)
            other = analytic.chain_transform(model, perm)
            for s in (0.1, 1.0, 10.0):
                assert base(s) == other(s)

    def test_equal_rate_collapse_agrees_with_general_path(self):
        model = core.InputModel.exponential(1.0)
        collapsed = analytic.chain_transform(model, [1.0] * 6)
        nearly = analytic.chain_transform(model, [1.0] * 5 + [1.0 + 1e-13])
        for s in (0.5, 2.0):
            assert collapsed(s) == pytest.approx(nearly(s), rel=1e-9)

    def test_overflowing_sums_refused(self):
        model = core.InputModel.exponential(1.0)
        with pytest.raises(ValueError, match="beyond the float range"):
            analytic.chain_transform(model, [1e308, 1e308])
        # the float route (one rate) and the mpmath route (24 equal rates)
        for rates in ([1e308], [7e306] * 24):
            phi = analytic.chain_transform(model, rates)
            assert _takes_mpmath(phi, 1.0) == (len(rates) == 24)
            assert 0.0 < phi(1.0) <= 1.0
            with pytest.raises(ValueError, match="beyond the float range"):
                phi(1e308)

    @pytest.mark.parametrize("n", [1, 3, 14])
    def test_underflowing_input_law_answered(self, n):
        # phi_in(s) of det(1e-300) is subnormal at 1e-20 and 2^-64 and 0 at
        # 1e-30, so those points go to mpmath whatever the chain length, and
        # only 14 rates send s = 1 there too.  Input every 1e-300 is permanent
        # input to 1e-8, so the mean is the equal-rate exact mean
        phi = analytic.chain_transform(core.InputModel.deterministic(1e-300), [1.0] * n)
        exact = float(analytic.exact_mean_equal_rates(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert analytic.mean_from_transform(phi) == pytest.approx(exact, rel=1e-8)
            for s in (1e-20, 1e-30, 2.0 ** -64):
                assert _takes_mpmath(phi, s)
                assert phi(s) == pytest.approx(s * exact, rel=1e-8)
        assert _takes_mpmath(phi, 1.0) == (n == 14)

    def test_subnormal_values_refused(self):
        # at 1e-318, s E T is subnormal: mpmath's value for 24 unit rates
        # rounds to 6.459e-318, 1.7e-7 off, and one unit rate goes to mpmath
        # there too, as its law value is subnormal.  A float64 value cannot
        # fall below phi_in(s), so one is forced below the smallest normal
        # float to see its refusal
        model = core.InputModel.exponential(1.0)
        for n in (1, 24):
            phi = analytic.chain_transform(model, [1.0] * n)
            with pytest.raises(ValueError, match=r"below the smallest normal float at s = 1e-318;"):
                phi(np.array([1.0, 1e-318]))
        phi = analytic.chain_transform(model, [1.0])
        assert not _takes_mpmath(phi, 1e-3)
        with mock.patch.object(math, "exp", return_value=1e-310):
            with pytest.raises(ValueError, match=r"below the smallest normal float at s = 0\.001;"):
                phi(1e-3)

    def test_overflowing_input_rate_refused(self):
        # exponential input: s plus the rate sum plus the input rate is the
        # denominator; at s = 1e308 it overflows, though phi = 1/2 in the bare law
        model = core.InputModel.exponential(1e308)
        bare, chain = analytic.transform_of_input(model), analytic.chain_transform(model, [1.0])
        assert bare(1e307) == pytest.approx(1 / 11) and chain(1e307) == pytest.approx(1.0)
        for phi in (bare, chain):
            with pytest.raises(ValueError, match="beyond the float range"):
                phi(1e308)

    def test_long_general_chain_refused(self):
        model = core.InputModel.exponential(1.0)
        with pytest.raises(analytic.ComplexityError):
            analytic.chain_transform(model, list(np.linspace(0.5, 3.0, 26)))

    def test_long_equal_chain_allowed(self):
        model = core.InputModel.exponential(1.0)
        assert analytic.chain_transform(model, [1.0] * 64)(1.0) == pytest.approx(
            0.996621726545698, rel=1e-12)
        for n in (64, 100):
            chain = analytic.chain_transform(model, [1.0] * n)
            _assert_matches_reference(chain, model, [1.0] * n, (0.01, 1.0), 1e-12)

    @pytest.mark.parametrize("input_name", sorted(_DIFF_INPUTS))
    @pytest.mark.parametrize("chain_name", list(_DIFF_CHAINS))
    def test_matches_mpmath_reference(self, chain_name, input_name):
        model, rates = _DIFF_INPUTS[input_name], _DIFF_CHAINS[chain_name]
        phi = analytic.chain_transform(model, rates)
        _assert_matches_reference(phi, model, rates, _DIFF_GRID, 1e-10)

    def test_long_distinct_chain_matches_mpmath_reference(self):
        # 2**18 reference terms cost seconds per point in mpmath, so the
        # longest distinct chain is checked at the two ends of the grid
        model = _DIFF_INPUTS["exp"]
        rates = list(np.random.default_rng(32).uniform(0.3, 4.0, size=18))
        phi = analytic.chain_transform(model, rates)
        _assert_matches_reference(phi, model, rates, (1e-3, 10.0), 1e-10)

    def test_mean_matches_simulated_gaps_across_a_chain(self):
        # node 1 of a four-node chain fed at the right end: the transform
        # mean must agree with simulated interreception gaps
        rates = (1.0, 0.7, 2.0, 1.3)       # node 1..4
        model = core.InputModel.exponential(2.0)
        chain = analytic.chain_transform(model, rates[::-1])
        mean = analytic.mean_from_transform(chain)
        cfg = core.SystemConfig(1, 4, core.RateSchedule.explicit(rates), model)
        dist = sim.sample_interreception(cfg, 1, 10000, seed=88)
        assert abs(dist.mean() - mean) <= 3 * dist.stderr()


class TestSubsetTable:
    _CHAINS = {
        "equal8": [1.0] * 8,
        "equal16": [0.9] * 16,
        "mixed1x8_2x8": [1.0] * 8 + [2.0] * 8,
        "mixed1x10_1.7x5_3x3": [1.0] * 10 + [1.7] * 5 + [3.0] * 3,
        "distinct12": list(np.random.default_rng(31).uniform(0.3, 4.0, size=12)),
        "distinct16": list(np.random.default_rng(33).uniform(0.3, 4.0, size=16)),
        "tiny-and-huge": [1e-300, 2.5, 1e300],
        "linear16": _LINEAR_TRUNCATIONS[16][1],
        "linear32": _LINEAR_TRUNCATIONS[32][1],
        "repeats-and-distinct": [1.0] * 40 + [3.0] * 2 + [0.75],
    }

    @pytest.mark.parametrize("name", list(_CHAINS))
    def test_matches_fraction_fold(self, name):
        rates = self._CHAINS[name]
        sums, weights, k = analytic._subset_table(rates)
        got = [(Fraction(int(x), 2 ** k), int(w)) for x, w in zip(sums, weights)]
        assert got == _fraction_table(rates)
        # the same table, array for array, in any order of the rates
        shuffled = analytic._subset_table(list(np.random.default_rng(8).permutation(rates)))
        assert shuffled[2] == k and sums.dtype == shuffled[0].dtype
        assert np.array_equal(shuffled[0], sums) and np.array_equal(shuffled[1], weights)

    @pytest.mark.parametrize("n", [1, 66, 67, 2000])
    def test_unit_table_is_signed_binomials(self, n):
        # n equal rates fold in one step; int64 holds C(66, 33) but not C(67, 33)
        sums, weights, k = analytic._subset_table([1.0] * n)
        assert k == 0 and sums.dtype == (np.int64 if n <= 66 else object)
        assert sums.tolist() == list(range(n + 1))
        assert weights.tolist() == [(-1) ** j * math.comb(n, j) for j in range(n + 1)]

    def test_prime_exponents_of_a_linear_table(self):
        # E T = 2^k prod_(sigma > 0) sigma^(w_sigma) over the table of all the
        # rates 1..l of the permanently fed linear chain: its sums have gaps
        # and merged weights, which the unit table never has
        def mean(l):
            sums, weights, k = analytic._subset_table([float(r) for r in range(1, l + 1)])
            spf = analytic._smallest_prime_factors(int(sums[-1]))
            exps = analytic._prime_exponents(sums, weights, spf)
            return 2 ** k * Fraction(math.prod(p ** e for p, e in exps if e > 0),
                                     math.prod(p ** -e for p, e in exps if e < 0))
        assert mean(4) == Fraction(125, 72)
        assert float(mean(32)) == _LINEAR32_MEAN

    def test_python_int_table(self):
        # rates four decades apart put the sums past int64, so the table
        # holds Python ints; both evaluators read it
        for model, rates in ((_DIFF_INPUTS["exp"], [0.001, 10.0, 0.37]),
                             (_DIFF_INPUTS["det"], [0.001] * 12 + [10.0])):
            assert analytic._subset_table(rates)[0].dtype == object
            phi = analytic.chain_transform(model, rates)
            _assert_matches_reference(phi, model, rates, _DIFF_GRID, 1e-10)

    @pytest.mark.parametrize("l, size", [(32, 400), (64, 1834)])
    def test_linear_truncations_accepted(self, l, size):
        model, rates = _LINEAR_TRUNCATIONS[l]
        assert len(analytic._subset_table(rates)[0]) == size
        phi = analytic.chain_transform(model, rates)
        _assert_matches_reference(phi, model, rates, _DIFF_GRID, 1e-12,
                                  reference=_mp_grid_reference)
        if l == 32:
            assert abs(analytic.mean_from_transform(phi) - _LINEAR32_MEAN) <= 1e-8 * _LINEAR32_MEAN

    def test_grid_reference_agrees_with_subset_reference(self):
        # the two mpmath references, on integer chains the subset one can expand
        for input_name, rates in (("det", [1.0] * 6 + [2.0, 3.0]), ("emp", [1.0, 2.0, 2.0, 5.0])):
            model = _DIFF_INPUTS[input_name]
            for s in (1e-3, 1.0):
                a, b = _mp_grid_reference(model, rates, s), _mp_chain_reference(model, rates, s)
                with mpmath.workprec(200):
                    assert abs(a - b) <= mpmath.ldexp(abs(b), -120)


class TestSubsetExpansion:
    def test_empty_rate_list(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        assert analytic.subset_expansion(phi, [], 1.3) == phi(1.3)

    def test_two_node_permanent_chain_collapses(self):
        # a two-node permanent chain is one unit-rate step on phi = s/(1+s),
        # which collapses to s(s+2)/(s+1)^2
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        assert analytic.subset_expansion(phi, [1.0], 1.0) == pytest.approx(0.75, abs=1e-12)
        for s in (0.25, 1.0, 3.0):
            expect = s * (s + 2) / (s + 1) ** 2
            assert analytic.subset_expansion(phi, [1.0], s) == pytest.approx(expect, abs=1e-12)

    def test_zero_point_returns_zero(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        assert analytic.subset_expansion(phi, [1.0, 2.0], 0.0) == 0.0

    def test_agrees_with_chain(self):
        model = core.InputModel.exponential(2.0)
        phi = analytic.transform_of_input(model)
        rng = np.random.default_rng(500)
        for length in (1, 4, 8, 12):
            rates = rng.uniform(0.4, 3.0, size=length)
            chain = analytic.chain_transform(model, rates)
            for s in (0.5, 2.0):
                a = analytic.subset_expansion(phi, rates, s)
                assert abs(a - chain(s)) <= 1e-10

    def test_cap(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        with pytest.raises(analytic.ComplexityError):
            analytic.subset_expansion(phi, [1.0] * 26, 1.0)

    @pytest.mark.parametrize("input_name", ["exp", "det", "emp"])
    def test_matches_per_point_loop(self, input_name):
        model = _EMP64 if input_name == "emp" else _DIFF_INPUTS[input_name]
        phi = analytic.transform_of_input(model)
        rng = np.random.default_rng(16)
        for length in range(1, 15):
            rates = rng.uniform(0.3, 4.0, size=length)
            for s in (1e-3, 0.5, 2.0):
                a = analytic.subset_expansion(phi, rates, s)
                b = _subset_expansion_loop(phi, rates, s)
                assert abs(a - b) <= 1e-12 * abs(b), (length, s, a, b)

    def test_composites_match_per_point_loop(self):
        # a node step and chain transforms on both routes: float64 on
        # distinct rates, mpmath on 24 unit rates (error floor above 2**-30)
        rng = np.random.default_rng(17)
        model = _DIFF_INPUTS["det"]
        composites = [analytic.node_step(analytic.transform_of_input(model), 1.7),
                      analytic.chain_transform(model, rng.uniform(0.3, 4.0, size=6)),
                      analytic.chain_transform(model, [1.0] * 24)]
        assert not _takes_mpmath(composites[1], 0.5) and _takes_mpmath(composites[2], 0.5)
        for phi in composites:
            for length in (1, 4, 8):
                rates = rng.uniform(0.3, 4.0, size=length)
                for s in (1e-3, 0.5, 2.0):
                    a = analytic.subset_expansion(phi, rates, s)
                    b = _subset_expansion_loop(phi, rates, s)
                    assert abs(a - b) <= 1e-12 * abs(b), (phi, length, s, a, b)

    def test_overflowing_sums_refused_without_warning(self):
        # numpy's overflow warning is an error under -W error::RuntimeWarning,
        # so the refusal has to come before any sum is formed
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="the recovery rates sum beyond the float range"):
                analytic.subset_expansion(phi, [1e308, 1e308], 1.0)
            with pytest.raises(ValueError, match="beyond the float range"):
                analytic.subset_expansion(phi, [1e308], 1e308)

    @pytest.mark.parametrize("fn", [lambda s: s - 1.0, lambda s: np.maximum(s - 1.0, 0.0)],
                             ids=["negative", "zero"])
    def test_non_positive_values_refused(self, fn):
        # phi(0.5) is -0.5 or 0, whose log is undefined: refused, naming the point
        phi = analytic.LaplaceEval(fn, "closed-form", "improper")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"at s = 0\.5;"):
                analytic.subset_expansion(phi, [1.0, 2.0], 0.5)

    def test_subnormal_values_refused(self):
        # a positive subnormal value has lost its relative precision; its
        # log would be taken as though it had not
        phi = analytic.transform_of_input(core.InputModel.deterministic(1e-300))
        with pytest.raises(ValueError, match=r"at s = 1e-20;"):
            analytic.subset_expansion(phi, [1.0], 1e-20)
        assert analytic.subset_expansion(phi, [1.0], 1e-3) == pytest.approx(1e-3 / 1.001, rel=1e-12)

    @pytest.mark.parametrize("rate", [-0.5, 0.0, math.inf, math.nan])
    def test_non_positive_rates_refused(self, rate):
        # the same refusal as chain_transform's: a rate of -0.5 gave 1.5
        model = core.InputModel.exponential(1.0)
        phi = analytic.transform_of_input(model)
        with pytest.raises(ValueError, match="positive and finite"):
            analytic.subset_expansion(phi, [1.0, rate], 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            analytic.chain_transform(model, [1.0, rate])


_ARRAY_POINTS = np.concatenate(([0.0, 1e-300], np.geomspace(1e-6, 1e4, 63)))


def _array_cases():
    """(id, transform) for every kind of transform the package builds."""
    rates = list(np.random.default_rng(18).uniform(0.3, 4.0, size=12))
    for name in ("exp", "det", "emp"):
        model = _EMP64 if name == "emp" else _DIFF_INPUTS[name]
        base = analytic.transform_of_input(model)
        yield f"{name}-law", base
        yield f"{name}-node_step", analytic.node_step(base, 1.7)
        yield f"{name}-chain-float", analytic.chain_transform(model, rates)
        yield f"{name}-chain-mpmath", analytic.chain_transform(model, [1.0] * 24)
    # phi_in(1e-300) underflows, so that point alone goes to mpmath
    yield "det1e-300-chain-mixed", analytic.chain_transform(core.InputModel.deterministic(1e-300),
                                                            [1.0] * 3)


_ARRAY_CASES = dict(_array_cases())


class TestArrayCalls:
    @pytest.mark.parametrize("name", list(_ARRAY_CASES))
    def test_equals_scalar_calls(self, name):
        # 4096 float sums take the 65 points in blocks of 16; 24 unit rates
        # have an error floor above 2**-30, so every point takes the mpmath
        # route; the mixed chain sends 1e-300 to mpmath and the rest to float64
        phi = _ARRAY_CASES[name]
        got = phi(_ARRAY_POINTS)
        assert got.dtype == np.float64 and got.shape == _ARRAY_POINTS.shape
        with mock.patch.object(mpmath, "log", wraps=mpmath.log) as log:
            routes = []
            for x in _ARRAY_POINTS:
                log.reset_mock()
                assert got[len(routes)] == phi(x)
                routes.append(log.called)
        if name.endswith("-chain-mpmath"):
            assert routes == [False] + [True] * 64
        elif name.endswith("-chain-mixed"):
            assert routes == [False, True] + [False] * 63
        else:
            assert not any(routes)

    def test_empirical_law_equals_scalar_calls(self):
        # each point's samples are summed in one row, whatever the array's size
        phi = analytic.transform_of_input(_EMP64)
        xs = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 16383)))
        got = phi(xs)
        assert got[0] == 0.0
        assert np.array_equal(got, np.array([phi(x) for x in xs]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_points_refused(self, bad):
        phi = analytic.transform_of_input(_DIFF_INPUTS["exp"])
        with pytest.raises(ValueError, match="finite s >= 0, got"):
            phi(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match="1-D array"):
            phi(np.ones((2, 2)))

    @pytest.mark.parametrize("fn", [lambda s: 0.5, lambda s: s[:-1], lambda s: s / 0.0],
                             ids=["scalar", "short", "infinite"])
    def test_bad_fn_results_refused(self, fn):
        # a scalar-only fn would otherwise broadcast into a wrong answer; a
        # float is a one-point array, so its call is refused alike
        phi = analytic.LaplaceEval(fn, "closed-form", "bad")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for s in (np.array([1.0, 2.0]), 1.0):
                with pytest.raises(ValueError, match="one finite value per point"):
                    phi(s)

    def test_nan_refused_at_a_float(self):
        # a float call used to return the nan; the mean extraction's one
        # call, of three points, is refused
        points = []

        def fn(s):
            points.extend(s.tolist())
            return np.where(s > 0, np.nan, 0.0)

        phi = analytic.LaplaceEval(fn, "closed-form", "nan")
        with pytest.raises(ValueError, match="1 values not finite"):
            phi(1.0)
        points.clear()
        with pytest.raises(ValueError, match="one finite value per point"):
            analytic.mean_from_transform(phi)
        h = analytic._MEAN_H0
        assert points == [0.0, h, 2 * h]

    def test_overflowing_point_refused(self):
        # s plus the rate sum passes the float range at the largest entry
        for phi in (analytic.chain_transform(core.InputModel.exponential(1.0), [1e308]),
                    analytic.transform_of_input(core.InputModel.exponential(1e308))):
            with pytest.raises(ValueError, match=r"s = 1e\+308 plus the rate sum"):
                phi(np.array([1.0, 1e308]))


class _Unsettled(ArithmeticError):
    """The Richardson oracle ran out of halvings before it settled."""


class _Diverging(ArithmeticError):
    """The Richardson oracle's extrapolants keep growing."""


def _richardson_loop(phi, h=1e-3, steps=14, rel_tol=1e-8):
    """The mean as the s -> 0+ limit of phi(s)/s by Richardson extrapolation
    on a halving step from ``h``, three evaluations of phi per halving,
    until two successive extrapolants agree to ``rel_tol``: the slow path
    that ``analytic.mean_from_transform``'s one read is checked against."""
    if abs(phi(0.0)) > 1e-12:
        raise analytic.ImproperTransformError(f"phi(0) = {phi(0.0)}, expected 0")
    prev = first = None
    growth = 0
    for _ in range(steps):
        a0 = phi(h) / h
        a1 = phi(h / 2) / (h / 2)
        a2 = phi(h / 4) / (h / 4)
        est = (4 * (2 * a2 - a1) - (2 * a1 - a0)) / 3
        if prev is not None:
            if abs(est - prev) <= rel_tol * max(abs(est), 1e-300):
                return est
            growth = growth + 1 if abs(est) > 1.02 * abs(prev) else 0
            if growth >= 6 and abs(est) > 8.0 * abs(first):
                raise _Diverging("phi(s)/s keeps growing as s -> 0")
        else:
            first = est
        prev = est
        h /= 2
    raise _Unsettled("phi(s)/s did not settle")


def _identity_mean(model, rates):
    """E T = E X prod_(sigma > 0) phi_in(sigma)^(w_sigma) over the exact
    subset table of the rates, in mpmath at 160 bits beyond the chain
    length: the mean of the chain transform with no step and no limit, as
    log phi(s) = sum_sigma w_sigma log phi_in(s + sigma) with w_0 = 1 and
    phi_in(s)/s -> E X."""
    with mpmath.workprec(len(rates) + 160):
        if model.kind == core.EXPONENTIAL:
            mean = 1 / mpmath.mpf(model.rate)
        elif model.kind == core.DETERMINISTIC:
            mean = mpmath.mpf(model.duration)
        else:
            mean = mpmath.fsum(mpmath.mpf(float(v)) for v in model.samples) / len(model.samples)
        law = _mp_law(model)
        for sigma, w in _fraction_table(rates)[1:]:
            mean *= law(mpmath.mpf(sigma.numerator) / sigma.denominator) ** w
        return mean


def _oscillating(s):
    # phi(h)/h flips between 2 + c and 2 - c at every halving of h
    return s * (2.0 + np.cos(np.pi * np.log2(np.where(s > 0, s, 1.0))))


# exp(1.5), det(0.8) and a 50-sample empirical law through eight chains,
# from the empty chain to 64 equal rates and rates four decades apart
_MEAN_INPUTS = {
    "exp": core.InputModel.exponential(1.5),
    "det": core.InputModel.deterministic(0.8),
    "emp": core.InputModel.empirical(np.random.default_rng(50).gamma(2.0, 0.5, size=50)),
}
_MEAN_CHAINS = {
    "mixed3": [0.7, 2.0, 1.1],
    "equal8": [1.0] * 8,
    "mixed1x8_2x8": [1.0] * 8 + [2.0] * 8,
    "distinct12": _DIFF_CHAINS["distinct12"],
    "equal64": [1.0] * 64,
    "linear31": [float(r) for r in range(1, 32)],
    "wide": [0.001] * 12 + [10.0],
    "empty": [],
}


class TestMeanExtraction:
    def test_unit_exponential(self):
        phi = analytic.transform_of_input(core.InputModel.exponential(1.0))
        assert analytic.mean_from_transform(phi) == pytest.approx(1.0, rel=1e-8)

    def test_collapsed_two_node_formula(self):
        phi = analytic.LaplaceEval(lambda s: s * (s + 2) / (s + 1) ** 2,
                                   "closed-form", "two unit nodes")
        assert analytic.mean_from_transform(phi) == pytest.approx(2.0, rel=1e-8)

    def test_deterministic(self):
        phi = analytic.transform_of_input(core.InputModel.deterministic(3.0))
        assert analytic.mean_from_transform(phi) == pytest.approx(3.0, rel=1e-8)

    def test_improper_transform_rejected(self):
        phi = analytic.LaplaceEval(lambda s: 0.5 + s, "closed-form", "improper")
        with pytest.raises(analytic.ImproperTransformError):
            analytic.mean_from_transform(phi)

    def test_unsettled_extrapolation_raises(self):
        # phi(s)/s oscillates for ever without growing: its reads at 2^-64
        # and 2^-63 are 3 and 1
        phi = analytic.LaplaceEval(_oscillating, "closed-form", "oscillating")
        with pytest.raises(analytic.ConvergenceError):
            analytic.mean_from_transform(phi)

    def test_infinite_mean_detected(self):
        # refused as any read that does not settle: the reader cannot tell an
        # infinite mean from a scale out of its range, so it names neither
        phi = analytic.LaplaceEval(lambda s: np.minimum(1.0, np.sqrt(s)),
                                   "closed-form", "heavy tail")
        with pytest.raises(analytic.ConvergenceError) as info:
            analytic.mean_from_transform(phi)
        assert "infinite" not in str(info.value)

    def test_matches_three_evaluation_loop(self):
        # one call of phi, at 0, h and 2h, within the Richardson oracle's 1e-8
        exp1 = core.InputModel.exponential(1.0)
        cases = [analytic.chain_transform(exp1, [1.0] * n) for n in (8, 16, 32, 64)]
        cases += [analytic.chain_transform(exp1, [1.0, 2.0]),
                  analytic.chain_transform(exp1, [float(r) for r in range(1, 32)]),
                  analytic.chain_transform(core.InputModel.deterministic(0.8), [1.0] * 13)]
        h = analytic._MEAN_H0
        for phi in cases:
            calls = []
            counted = analytic.LaplaceEval(lambda s, phi=phi: calls.append(s.tolist()) or phi(s),
                                           phi.kind, phi.label)
            mean, oracle = analytic.mean_from_transform(counted), _richardson_loop(phi)
            assert abs(mean - oracle) <= 1e-8 * oracle, (phi, mean, oracle)
            assert calls == [[0.0, h, 2 * h]], phi
        for fn, error in ((_oscillating, _Unsettled),
                          (lambda s: np.minimum(1.0, np.sqrt(s)), _Diverging)):
            phi = analytic.LaplaceEval(fn, "closed-form", "divergent")
            with pytest.raises(error):
                _richardson_loop(phi)

    @pytest.mark.parametrize("chain_name", list(_MEAN_CHAINS))
    @pytest.mark.parametrize("input_name", list(_MEAN_INPUTS))
    def test_matches_identity_oracle(self, input_name, chain_name):
        model, rates = _MEAN_INPUTS[input_name], _MEAN_CHAINS[chain_name]
        mean = analytic.mean_from_transform(analytic.chain_transform(model, rates))
        exact = _identity_mean(model, rates)
        with mpmath.workprec(200):
            assert abs(mean - exact) <= 1e-11 * exact, (mean, mpmath.nstr(exact, 17))

    @pytest.mark.parametrize("model, rates", [
        (core.InputModel.exponential(1.0), [1e-6]),
        (core.InputModel.exponential(1e-6), [1.0]),
        (core.InputModel.deterministic(1e6), [1.0, 1.0]),
    ], ids=["slow-node", "slow-input", "long-det-input"])
    def test_million_means_answered(self, model, rates):
        # means near 1e6 were refused as infinite by Richardson's growth test
        mean = analytic.mean_from_transform(analytic.chain_transform(model, rates))
        exact = _identity_mean(model, rates)
        with mpmath.workprec(200):
            assert abs(mean - exact) <= 1e-11 * exact, (mean, mpmath.nstr(exact, 17))

    def test_out_of_range_scales_refused(self):
        # one node of rate 1e-300: s + 1e-300 rounds to s, so phi(s) = 1 and
        # the two reads give 2^64 and 2^63
        phi = analytic.chain_transform(core.InputModel.exponential(1.0), [1e-300])
        with pytest.raises(analytic.ConvergenceError):
            analytic.mean_from_transform(phi)
        # a bare input law has no underflow check: its two subnormal reads
        # agree, and only the normal-float condition refuses them
        phi = analytic.transform_of_input(core.InputModel.deterministic(1e-300))
        with pytest.raises(analytic.ConvergenceError):
            analytic.mean_from_transform(phi)


# every chain x input of the two grids, and empirical(1000) through 16 unit
# rates; with the wide mean chain on det(0.8), the two tables a cap on max |w|
# sent to a route its error did not call for; and exponential(8) through 20
# unit rates, whose floor leaves each point to its own bound: s = 10 takes
# float64, and the other four points mpmath
_ORACLE_CASES = {
    "exp8-equal20": (core.InputModel.exponential(8.0), [1.0] * 20),
    **{f"{i}-{c}": (_DIFF_INPUTS[i], _DIFF_CHAINS[c]) for i in _DIFF_INPUTS for c in _DIFF_CHAINS},
    **{f"mean-{i}-{c}": (_MEAN_INPUTS[i], _MEAN_CHAINS[c])
       for i in _MEAN_INPUTS for c in _MEAN_CHAINS if _MEAN_CHAINS[c]},
    "emp1000-equal16": (core.InputModel.empirical(np.random.default_rng(1000).gamma(2.0, 0.5, 1000)),
                        [1.0] * 16),
}

_BENCH_DISTINCT14 = list(np.random.default_rng(14).uniform(0.3, 4.0, size=14))
_DISTINCT20 = list(np.random.default_rng(20).uniform(0.3, 4.0, size=20))
# (input, rates, float64?) for the tables of the tier-1 tests and the bench
# (exponential(1) through n unit rates, and distinct chains of up to 14 rates
# on the bench's three input families at their extreme parameters), and 20
# distinct rates, which only per-point bounds keep in float64: every table the
# former cap of 2**10 on max |w| summed in float64 stays there, 16 equal
# rates move to float64, and the longer equal and linear chains stay in mpmath
_ROUTES = {
    "distinct20": (_DIFF_INPUTS["exp"], _DISTINCT20, True),
    "distinct18": (_DIFF_INPUTS["exp"], list(np.random.default_rng(32).uniform(0.3, 4.0, size=18)),
                   True),
    "python-int": (_DIFF_INPUTS["exp"], [0.001, 10.0, 0.37], True),
    "linear31": (core.InputModel.exponential(32.0), [float(r) for r in range(1, 32)], True),
    "bench-distinct14-exp": (core.InputModel.exponential(2.0), _BENCH_DISTINCT14, True),
    "bench-distinct14-det": (core.InputModel.deterministic(0.3), _BENCH_DISTINCT14, True),
    "bench-distinct14-emp": (_EMP64, _BENCH_DISTINCT14, True),
    **{f"bench-equal{n}": (core.InputModel.exponential(1.0), [1.0] * n, n <= 16)
       for n in (8, 16, 32, 64)},
    "equal24": (_DIFF_INPUTS["det"], _DIFF_CHAINS["equal24"], False),
    "linear63": (core.InputModel.exponential(64.0), [float(r) for r in range(1, 64)], False),
}


class TestErrorBound:
    @pytest.mark.parametrize("name", list(_ORACLE_CASES))
    def test_float_route_within_its_bound(self, name):
        # the route of each point, seen by whether it calls mpmath, is float64
        # exactly when its own bound is at most 2**-30, and a float64 value is
        # within that bound of the reference, down to the mean's read at
        # 2**-64; the 2**31 subsets of rates 1..31 are folded on the integer
        # grid instead
        model, rates = _ORACLE_CASES[name]
        reference = _mp_grid_reference if name.endswith("linear31") else _mp_chain_reference
        phi = analytic.chain_transform(model, rates)
        for s in _DIFF_GRID + (2.0 ** -64,):
            bound = _point_bound(model, rates, s)
            assert _takes_mpmath(phi, s) == (bound > analytic._FLOAT_REL_TOL), (name, s, bound)
            if bound <= analytic._FLOAT_REL_TOL:
                _assert_matches_reference(phi, model, rates, (s,), bound, reference=reference)

    @pytest.mark.parametrize("name", list(_ROUTES))
    def test_routes(self, name):
        model, rates, in_float = _ROUTES[name]
        phi = analytic.chain_transform(model, rates)
        for s in _DIFF_GRID + (2.0 ** -64,):
            assert _takes_mpmath(phi, s) != in_float, s

    def test_distinct20_float_matches_subset_expansion(self):
        # each point's own bound is below 1e-9, while M (d + 6) times
        # |log phi_in| at the least positive sum, for the whole table, is 5.5e-9
        model = _DIFF_INPUTS["exp"]
        phi, base = analytic.chain_transform(model, _DISTINCT20), analytic.transform_of_input(model)
        for s in _DIFF_GRID:
            assert _point_bound(model, _DISTINCT20, s) < 1e-9
            expanded = analytic.subset_expansion(base, _DISTINCT20, s)
            assert phi(s) == pytest.approx(expanded, rel=1e-9, abs=0), s

    def test_underflowing_law_is_infinite_bound(self):
        # phi_in(1e-10) and phi_in(1.0) of exp(1e308) are subnormal: both
        # points go to mpmath with no RuntimeWarning, and answer there
        model = core.InputModel.exponential(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi = analytic.chain_transform(model, [1e-10, 2.0])
            for s in (1e-300, 1.0):
                assert _point_bound(model, [1e-10, 2.0], s) == math.inf
                assert _takes_mpmath(phi, s)
            _assert_matches_reference(phi, model, [1e-10, 2.0], (1e-300, 1.0), 1e-15)

    def test_huge_weight_sum_needs_no_float(self):
        # sum |w| = 2**2000 - 1 is far past the float range: its floor sends
        # every point to mpmath, with no float pass and no float of the sum
        model = core.InputModel.exponential(1.0)
        phi = analytic.chain_transform(model, [1.0] * 2000)
        with mock.patch.object(analytic, "_tree_sum", side_effect=AssertionError):
            assert _takes_mpmath(phi, 1.0)
        _assert_matches_reference(phi, model, [1.0] * 2000, (1.0,), 1e-15)

    @pytest.mark.parametrize("fn, ref", [(np.log, mpmath.log), (np.expm1, mpmath.expm1)],
                             ids=["log", "expm1"])
    def test_function_units_cover_numpy(self, fn, ref):
        # the bound charges _FN_UNITS units of 2**-53 to each call
        rng = np.random.default_rng(53)
        xs = np.concatenate((rng.uniform(0.0, 1.0, 500), np.exp(rng.uniform(-700.0, 0.0, 500))))
        if fn is np.expm1:
            xs = -np.concatenate((xs, rng.uniform(1.0, 40.0, 500)))
        with mpmath.workprec(120):
            worst = max(abs((got - ref(mpmath.mpf(x))) / ref(mpmath.mpf(x)))
                        for x, got in zip(xs.tolist(), fn(xs).tolist()))
            assert worst <= mpmath.ldexp(analytic._FN_UNITS, -53), worst


class TestPermanentReduce:
    def test_three_node_example(self):
        cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                core.InputModel.permanent())
        red = analytic.permanent_reduce(cfg)
        assert (red.left_node, red.right_node) == (1, 2)
        assert red.input.kind == core.EXPONENTIAL and red.input.rate == 3.0
        assert red.node_rates() == (1.0, 2.0)

    def test_single_node_reduces_to_empty(self):
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([2.0]),
                                core.InputModel.permanent())
        red = analytic.permanent_reduce(cfg)
        assert red.is_empty and red.input.rate == 2.0
        log = sim.simulate(red, sim.RandomnessPlan(14, 0), sim.StopRule.horizon(50.0))
        gaps = np.diff([0.0] + log.input_times())
        assert abs(np.mean(gaps) - 0.5) < 3 * np.std(gaps) / math.sqrt(len(gaps))

    def test_cross_path_distributions_agree(self):
        cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                core.InputModel.permanent())
        direct = sim.sample_first_reception(cfg, 1, 20000, seed=15)
        reduced = sim.sample_first_reception(analytic.permanent_reduce(cfg), 1,
                                             20000, seed=16)
        d = sim.ks_statistic(direct, reduced)
        assert d < sim.ks_two_sample_critical(direct.count, reduced.count, 0.01)

    def test_non_permanent_rejected(self):
        cfg = core.SystemConfig(1, 1, core.RateSchedule.explicit([1.0]),
                                core.InputModel.exponential(1.0))
        with pytest.raises(ValueError):
            analytic.permanent_reduce(cfg)


class TestTransformSanity:
    @pytest.mark.parametrize("model", [
        core.InputModel.exponential(0.7),
        core.InputModel.deterministic(1.3),
        core.InputModel.empirical([0.2, 0.9, 2.4, 3.3]),
    ])
    def test_invariants_on_grid(self, model):
        for rates in ([], [1.0], [0.5, 2.0, 1.0]):
            phi = analytic.chain_transform(model, rates)
            grid = [0.0, 0.05, 0.3, 1.0, 4.0, 20.0]
            vals = [phi(s) for s in grid]
            assert vals[0] == pytest.approx(0.0, abs=1e-12)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= 1.0 + 1e-12 for v in vals)


def _direct_alternating_mean(n, bits):
    """The equal-rate mean as the direct sum exp(sum_k (-1)^k C(n, k) ln k),
    one logarithm per k, at the same working precision as the package."""
    with mpmath.workprec(bits + n + 32):
        total = mpmath.mpf(0)
        for k in range(2, n + 1):          # k = 1 contributes ln 1 = 0
            term = mpmath.log(k) * math.comb(n, k)
            total = total - term if k & 1 else total + term
        value = mpmath.exp(total)
    with mpmath.workprec(bits):
        return +value


def _mp_log_mean(n, bits):
    """The equal-rate mean as exp(sum_p e_p ln p) with mpmath logarithms, at
    ``bits + n + 32`` working bits: the package's route before its integer
    log table."""
    sums, weights, _ = analytic._subset_table([1.0] * n)
    exponents = analytic._prime_exponents(sums, weights, analytic._smallest_prime_factors(n))
    with mpmath.workprec(bits + n + 32):
        value = mpmath.exp(mpmath.fsum(e * mpmath.log(p) for p, e in exponents))
    with mpmath.workprec(bits):
        return +value


def _term_by_term_two_atanh_inv(m, w):
    """2 atanh(1/m) in units of 2^-w, one rounded-down term at a time, with
    a bound on its error: the slow path that ``analytic._two_atanh_inv``'s
    binary splitting is checked against.

    The running power 2^(w+1) / m^(2k+1) is short of its true value by less
    than 1 at k = 0 and by less than 1 / (1 - 1/m^2) <= 9/8 after, so term k
    is short by less than 9/8 / (2k + 1) + 1 < 2 units.  The series stops at
    the first power that is 0, whose true value is then below 9/8; the tail
    from there is below (9/8)^2 / 3 < 1 unit.  The error is below 2K + 1.
    """
    power = (1 << (w + 1)) // m
    m2 = m * m
    total = k = 0
    while power:
        total += power // (2 * k + 1)
        power //= m2
        k += 1
    return total, 2 * k + 1


def _oracle_log_table(spf, w):
    """ln p in units of 2^-w with its error bound, for the primes
    p <= len(spf) - 1, by ln 2 = 2 atanh(1/3) and
    ln p = ln(p - 1) + 2 atanh(1/(2p - 1)) with term-by-term series: the
    slow path that ``analytic._log_table`` is checked against."""
    table = {}
    for p in range(2, len(spf)):
        if spf[p] != p:
            continue
        value, bound = _term_by_term_two_atanh_inv(2 * p - 1, w)
        k = p - 1
        while k > 1:
            q = spf[k]
            k //= q
            value += table[q][0]
            bound += table[q][1]
        table[p] = (value, bound)
    return table


def _oracle_table_mean(n, bits):
    """The equal-rate mean as ``analytic._exact_mean`` computes it, with its
    w, its exponential and its rounding, but from ``_oracle_log_table``."""
    spf = analytic._smallest_prime_factors(n)
    w = bits + n + 64
    logs = _oracle_log_table(spf, w)
    exponents = analytic._prime_exponents(*analytic._subset_table([1.0] * n)[:2], spf)
    total = sum(e * logs[p][0] for p, e in exponents)
    with mpmath.workprec(bits + n + 32):
        value = mpmath.exp(mpmath.ldexp(total, -w))
    with mpmath.workprec(bits):
        return +value


def _k_loop_fraction(n):
    """The equal-rate mean as prod_k k^((-1)^k C(n, k)), one factor per k."""
    num = den = 1
    for k in range(1, n + 1):
        if k & 1:
            den *= k ** math.comb(n, k)
        else:
            num *= k ** math.comb(n, k)
    return Fraction(num, den)


class TestExactMeans:
    def test_small_values_exactly_rational(self):
        assert analytic.exact_mean_small_fraction(1) == 1
        assert analytic.exact_mean_small_fraction(2) == 2
        assert analytic.exact_mean_small_fraction(3) == Fraction(8, 3)
        assert analytic.exact_mean_small_fraction(4) == Fraction(256, 81)

    def test_high_precision_matches_rational(self):
        for n in (1, 2, 3, 4, 8, 12):
            hp = analytic.exact_mean_equal_rates(n)
            frac = analytic.exact_mean_small_fraction(n)
            with mpmath.workprec(hp.bits):
                err = abs(hp.value - mpmath.mpf(frac.numerator) / frac.denominator)
                assert err <= mpmath.mpf(2) ** (8 - hp.bits)

    def test_precision_floor_enforced(self):
        with pytest.raises(analytic.PrecisionError):
            analytic.exact_mean_equal_rates(64, 100)

    def test_prime_exponents_match_direct_sum(self):
        bit_equal = cases = 0
        for n in list(range(1, 65)) + [100, 257, 513, 1000]:
            for bits in (n + 64, n + 128):
                got = analytic.exact_mean_equal_rates(n, bits)
                want = _direct_alternating_mean(n, bits)
                assert got.bits == bits
                with mpmath.workprec(2 * bits):
                    rel = abs(got.value - want) / want
                    assert rel <= mpmath.ldexp(1, 4 - bits), (n, bits)
                bit_equal += got.value == want
                cases += 1
        print(f"prime-exponent mean bit-equal to the direct sum in {bit_equal} of {cases} cases")

    @pytest.mark.parametrize("w", [160, 2400, 4224])
    def test_log_table_within_bounds(self, w):
        spf = analytic._smallest_prime_factors(2048)
        table = analytic._log_table(spf, w)
        oracle = _oracle_log_table(spf, w)
        assert sorted(table) == [p for p in range(2, 2049) if spf[p] == p]
        assert sorted(oracle) == sorted(table)
        with mpmath.workprec(w + 64):
            for p, (value, bound) in table.items():
                exact = mpmath.ldexp(mpmath.log(p), w)
                # every division rounds down, so an entry is never too large
                assert 0 < exact - value < bound, (p, w)
                assert 0 < exact - oracle[p][0] < oracle[p][1], (p, w)

    def test_mean_matches_oracle_table(self):
        # the binary-splitting table and the term-by-term one differ in their
        # last units, which the guard bits keep out of the rounded mean
        for n in list(range(1, 65)) + [100, 257, 513, 1024, 2048]:
            for bits in (n + 64, n + 128):
                assert analytic.exact_mean_equal_rates(n, bits).value == \
                    _oracle_table_mean(n, bits), (n, bits)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_log_table_error_sum_pinned(self, n):
        # the README states B = sum_p |e_p| E_p < 2^(n+5) up to n = 4096, at
        # the default n + 64 bits (w = 2n + 128); 2^(n+8) keeps that line
        # from going stale while leaving a little room
        spf = analytic._smallest_prime_factors(n + 1)
        logs = analytic._log_table(spf, 2 * n + 128)
        exponents = analytic._prime_exponents(*analytic._subset_table([1.0] * n)[:2], spf)
        assert sum(abs(e) * logs[p][1] for p, e in exponents) < 2 ** (n + 8)

    def test_log_table_matches_mpmath_logs(self):
        for n in (64, 128, 256, 512, 1024, 2048):
            bits = n + 64
            assert analytic.exact_mean_equal_rates(n, bits).value == _mp_log_mean(n, bits), n

    def test_log_table_bound_refused(self, monkeypatch):
        # no fixed-point bits to spare for the table's error: the bound check,
        # an if rather than an assert, refuses under python -O too
        monkeypatch.setattr(analytic, "_LOG_SLACK_BITS", 0)
        with pytest.raises(analytic.PrecisionError, match="log table bounds the error"):
            analytic._exact_mean.__wrapped__(64, 128)

    def test_rational_matches_k_loop(self):
        for n in range(1, 17):
            assert analytic.exact_mean_small_fraction(n) == _k_loop_fraction(n)
        with pytest.raises(ValueError, match="n <= 16"):
            analytic.exact_mean_small_fraction(17)

    def test_mean_cached_by_n_and_bits(self):
        a = analytic.exact_mean_equal_rates(80, 160)
        hits = analytic._exact_mean.cache_info().hits
        b = analytic.exact_mean_equal_rates(80, 160)
        assert b is a and b.value == a.value
        assert analytic._exact_mean.cache_info().hits == hits + 1
        c = analytic.exact_mean_equal_rates(80, 200)
        assert c.bits == 200 and c is not a
        with pytest.raises(analytic.PrecisionError):
            analytic.exact_mean_equal_rates(80, 143)
        assert analytic.exact_mean_equal_rates(80, 144).bits == 144

    def test_euler_ratio_precision_passes_through(self):
        assert analytic.euler_ratio(64, 200) == analytic.euler_ratio(64)
        with pytest.raises(analytic.PrecisionError):
            analytic.euler_ratio(64, 100)

    def test_cross_precision_agreement(self):
        a = analytic.exact_mean_equal_rates(64, 128)
        b = analytic.exact_mean_equal_rates(64, 256)
        with mpmath.workprec(300):
            rel = abs(a.value - b.value) / b.value
            assert rel < mpmath.mpf(10) ** -30

    def test_euler_ratio_small_value(self):
        assert analytic.euler_ratio(3) == pytest.approx((8 / 3) / math.log(3), rel=1e-12)
        with pytest.raises(ValueError):
            analytic.euler_ratio(1)

    def test_harmonic_bound(self):
        assert analytic.harmonic_lower_bound(1) == 1.0
        assert analytic.harmonic_lower_bound(3) == pytest.approx(11 / 6, abs=1e-15)
        for n in range(1, 65):
            assert analytic.harmonic_lower_bound(n) <= float(analytic.exact_mean_equal_rates(n))


def _unevaluated(s):
    pytest.fail("the law was evaluated before the range check")


@pytest.mark.parametrize("call, message", [
    (lambda: analytic.LaplaceEval(lambda s: s, "bogus"), "unknown transform kind 'bogus'"),
    (lambda: analytic.subset_expansion(_unevaluated, [1.0], -1.0), "finite s >= 0, got -1.0"),
    (lambda: analytic.subset_expansion(_unevaluated, [1.0], math.nan), "finite s >= 0, got nan"),
    (lambda: analytic.subset_expansion(_unevaluated, [1.0], math.inf), "finite s >= 0, got inf"),
    (lambda: analytic.exact_mean_equal_rates(0), "n must be >= 1"),
    (lambda: analytic.harmonic_lower_bound(0), "n must be >= 1"),
], ids=["laplace-kind", "subset-negative", "subset-nan", "subset-inf", "mean-n0", "harmonic-n0"])
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_one_sample_empirical_law_is_its_exponential():
    # one sample takes _tree_sum's one-row path: phi(s) = 1 - exp(-v s)
    v, s = 0.7, np.array([1e-3, 0.5, 1.0, 40.0])
    phi = analytic.transform_of_input(core.InputModel.empirical([v]))
    assert np.array_equal(phi(s), -np.expm1(-v * s))
