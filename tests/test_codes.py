import math
from dataclasses import dataclass

import numpy as np
import pytest

from pfrsim.codes import (
    OneToOne,
    PowerLaw,
    Universal,
    campbell_cost,
    kraft_sum,
    length,
    lengths,
    renyi_entropy,
)
from pfrsim.distributions import DistributionPair, Gaussian, Laplace, renyi_divergence
from pfrsim.errors import DomainError, OrderError
from pfrsim.pfr import IndexPmf, index_pmf

LN2 = math.log(2.0)


def exact_pmf(probs):
    p = np.asarray(probs, dtype=float)
    return IndexPmf(p, 1.0 - float(p.sum()))


@dataclass(frozen=True)
class Table:
    """A length function with n_k = table[k - 1], for the cost of a fixed code."""

    table: tuple

    def lengths(self, k):
        return np.asarray(self.table, dtype=float)[np.asarray(k) - 1]


@pytest.mark.parametrize(
    "call",
    [
        lambda: Universal(0.0),
        lambda: lengths(PowerLaw(1.0), [3, 0]),
        lambda: kraft_sum(Universal(1.0), 0),
        lambda: campbell_cost(exact_pmf([0.5, 0.5]), PowerLaw(1.0), 0.0),
    ],
    ids=["universal_epsilon", "lengths_index", "kraft_terms", "campbell_order"],
)
def test_input_checks(call):
    with pytest.raises(DomainError):
        call()


class TestLengths:
    def test_one_to_one_values(self):
        assert length(OneToOne(), 1) == 1
        assert length(OneToOne(), 2) == 1
        assert length(OneToOne(), 3) == 2
        assert length(OneToOne(), 7) == 3

    def test_power_law_at_one(self):
        assert length(PowerLaw(1.0), 1) == 2  # ceil(0 + 1 + 1)

    def test_universal_at_one(self):
        # ceil(1 + log2(ln2 + 1.5)) = ceil(2.1329) = 3
        assert length(Universal(1.0), 1) == 3

    def test_lengths_positive_integral_monotone(self):
        ks = np.arange(1, 5000)
        for lf in (PowerLaw(0.1), PowerLaw(2.0), Universal(0.5), OneToOne()):
            ns = lengths(lf, ks)
            assert np.all(ns >= 1)
            assert np.all(ns == np.floor(ns))
            assert np.all(np.diff(ns) >= 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PowerLaw(0.0)
        with pytest.raises(DomainError):
            length(OneToOne(), 0)


class TestKraft:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    def test_power_law_satisfies_kraft(self, eps):
        partial, tail = kraft_sum(PowerLaw(eps), 10**6)
        assert partial + tail <= 1.0

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    def test_universal_satisfies_kraft(self, eps):
        partial, tail = kraft_sum(Universal(eps), 10**6)
        assert partial + tail <= 1.0

    def test_one_to_one_violates_kraft(self):
        partial, tail = kraft_sum(OneToOne(), 10**6)
        assert partial > 1.0
        assert tail == math.inf

    def test_tail_bound_dominates_true_remainder(self):
        # partial sums must increase toward partial+tail as n grows
        for lf in (PowerLaw(0.5), Universal(0.5)):
            p1, t1 = kraft_sum(lf, 10**3)
            p2, _ = kraft_sum(lf, 10**6)
            assert p2 <= p1 + t1


class TestCampbellCost:
    def test_hand_value(self):
        pmf = exact_pmf([0.5, 0.5])
        cost = campbell_cost(pmf, Table((1, 2)), 1.0)
        assert cost.value == pytest.approx(math.log2(3.0), rel=1e-12)
        assert cost.value == cost.upper

    def test_point_mass_gives_single_length(self):
        pmf = exact_pmf([1.0])
        for lf in (OneToOne(), PowerLaw(0.5), Universal(1.0)):
            for t in (0.1, 1.0, 5.0):
                assert campbell_cost(pmf, lf, t).value == pytest.approx(
                    length(lf, 1), rel=1e-12
                )

    def test_equal_lengths_collapse(self):
        pmf = exact_pmf([0.25, 0.25, 0.5])
        cost = campbell_cost(pmf, Table((7, 7, 7)), 3.0)
        assert cost.value == pytest.approx(7.0, rel=1e-12)

    def test_tail_that_is_not_dust_leaves_the_bracket_open(self):
        pmf = IndexPmf(np.array([0.9]), 0.1)
        cost = campbell_cost(pmf, Table((2,)), 1.0)
        assert cost.value == pytest.approx(math.log2(0.9 * 4), rel=1e-12)
        assert cost.upper == math.inf

    def test_brackets_contain_a_longer_truncation(self):
        # the upper end must not fall below what a longer truncation proves:
        # a tail ceiling of 10 bits gave PowerLaw(0.5) at t = 1 an upper end
        # of 8.45 bits, under the 13.85 that 20,000 indices prove
        pair = DistributionPair(Gaussian(0, 1), Gaussian(2, 1))
        short, long = index_pmf(pair, 20), index_pmf(pair, 20000)
        for lf in (OneToOne(), PowerLaw(0.5), Universal(0.5)):
            for t in (1.0, 4.0):
                cost = campbell_cost(short, lf, t)
                proven = campbell_cost(long, lf, t).value
                assert cost.value <= proven <= cost.upper, f"{lf} t={t}"

    def test_log_domain_survives_huge_exponents(self):
        pmf = exact_pmf([0.5, 0.5])
        cost = campbell_cost(pmf, Table((1000, 2000)), 3.0)
        assert cost.value == pytest.approx(2000.0 + math.log2(0.5) / 3.0, rel=1e-9)

    def test_nondecreasing_in_t(self):
        pmf = exact_pmf([0.6, 0.3, 0.1])
        lf = PowerLaw(0.5)
        vals = [campbell_cost(pmf, lf, t).value for t in (0.01, 0.1, 0.5, 1, 2, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_t_to_zero_recovers_mean_length(self):
        pmf = exact_pmf([0.6, 0.3, 0.1])
        for lf in (OneToOne(), PowerLaw(1.0), Universal(0.5)):
            ns = lengths(lf, [1, 2, 3]).astype(float)
            mean = float(np.dot(pmf.probs, ns))
            assert campbell_cost(pmf, lf, 1e-4).value == pytest.approx(
                mean, abs=1e-3
            )


class TestRenyiEntropy:
    def test_uniform(self):
        for m in (2, 5, 16):
            pmf = exact_pmf(np.full(m, 1.0 / m))
            lo, hi = renyi_entropy(pmf, 0.37)
            assert lo == pytest.approx(math.log2(m), rel=1e-12)
            assert hi == lo

    def test_point_mass(self):
        lo, hi = renyi_entropy(exact_pmf([1.0]), 0.5)
        assert lo == 0.0 and hi == 0.0

    def test_order_validation(self):
        with pytest.raises(OrderError):
            renyi_entropy(exact_pmf([1.0]), 1.0)
        with pytest.raises(OrderError):
            renyi_entropy(exact_pmf([1.0]), 0.0)

    def test_nonincreasing_in_alpha(self):
        pmf = exact_pmf([0.4, 0.3, 0.2, 0.1])
        vals = [renyi_entropy(pmf, a)[0] for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tail_without_certificate_gives_infinite_upper(self):
        pmf = IndexPmf(np.array([0.9]), 0.1)
        lo, hi = renyi_entropy(pmf, 0.5)
        assert math.isfinite(lo)
        assert hi == math.inf

    def test_tail_bound_past_the_double_range_is_infinite(self):
        # N(0,1)|N(30,1) truncated at 3 keeps almost no mass: its tail power
        # sum bound is 2**1298 or more at every order, where 2.0**best overflowed
        pmf = index_pmf(DistributionPair(Gaussian(0, 1), Gaussian(30, 1)), 3)
        for alpha in (0.2, 0.5, 0.9):
            assert pmf.tail_power_sum_bound(alpha) == math.inf
            assert renyi_entropy(pmf, alpha) == (0.0, math.inf)

    def test_tail_bound_from_the_first_moment_alone(self):
        # Laplace(0,1)|Laplace(0,0.6): D_2 is finite and D_3 infinite, so
        # only E[K] is bounded; Holder's exponent r alpha / (1 - alpha) must
        # pass 1, which r = 1 gives at alpha = 0.7 and not at 0.5
        pair = DistributionPair(Laplace(0, 1), Laplace(0, 0.6))
        assert math.isfinite(renyi_divergence(pair, 2.0)) and renyi_divergence(pair, 3.0) == math.inf
        pmf = index_pmf(pair, 64)
        assert not pmf.tail_is_dust
        assert [r for r, _ in pmf._moment_log2_bounds] == [1.0]
        assert renyi_entropy(pmf, 0.5)[1] == math.inf
        lo, hi = renyi_entropy(pmf, 0.7)
        assert lo <= hi < math.inf

    def test_bracket_is_floored_at_zero(self):
        # a head of little mass has a power sum below 1, and H_alpha >= 0
        pmf = IndexPmf(np.array([1e-60, 1e-61]), 1.0 - 1.1e-60)
        assert renyi_entropy(pmf, 0.5) == (0.0, math.inf)
        lo, hi = renyi_entropy(IndexPmf(np.array([0.5, 0.25]), 0.25), 0.5)
        assert lo == pytest.approx(2.0 * math.log2(0.5**0.5 + 0.25**0.5)) and hi == math.inf

    def test_bracket_contains_better_truncation(self):
        # the certified upper bound at small N must dominate the lower
        # bound computed from a much longer truncation of the same law
        pair = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))
        small = index_pmf(pair, 100)
        big = index_pmf(pair, 20000)
        for alpha in (0.25, 0.4, 0.6, 0.8):
            lo_s, hi_s = renyi_entropy(small, alpha)
            lo_b, _ = renyi_entropy(big, alpha)
            assert lo_s <= lo_b + 1e-12
            assert hi_s >= lo_b - 1e-12, f"alpha={alpha}"


class TestOrderCostDuality:
    def test_entropy_lower_bounds_any_code(self):
        # H_alpha <= L(t) at alpha = 1/(t+1), for every uniquely decodable code
        pmfs = [
            exact_pmf([0.4, 0.3, 0.2, 0.1]),
            exact_pmf(np.full(8, 0.125)),
            exact_pmf(0.3 * 0.7 ** np.arange(60) / (1 - 0.7**60)),
        ]
        for pmf in pmfs:
            for t in (0.1, 0.5, 1.0, 2.0):
                alpha = 1.0 / (t + 1.0)
                h, _ = renyi_entropy(pmf, alpha)
                for lf in (PowerLaw(0.5), Universal(1.0)):
                    cost = campbell_cost(pmf, lf, t)
                    assert h - 0.02 <= cost.value

    def test_escort_lengths_within_one_bit(self):
        pmfs = [
            exact_pmf([0.4, 0.3, 0.2, 0.1]),
            exact_pmf(np.full(16, 1.0 / 16)),
            exact_pmf(0.3 * 0.7 ** np.arange(60) / (1 - 0.7**60)),
        ]
        for pmf in pmfs:
            for t in (0.1, 0.5, 1.0, 2.0):
                alpha = 1.0 / (t + 1.0)
                h, _ = renyi_entropy(pmf, alpha)
                # Campbell's code: n_k = ceil(-log2 w_k) for the escort w = p^alpha / sum p^alpha
                escort = pmf.probs**alpha / np.sum(pmf.probs**alpha)
                cost = campbell_cost(pmf, Table(tuple(np.ceil(-np.log2(escort)))), t)
                assert h - 1e-9 <= cost.value < h + 1.0
