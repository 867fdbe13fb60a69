import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from pfrsim import distributions
from pfrsim.bounds import sweep
from pfrsim.distributions import (
    DistributionPair,
    Finite,
    Gaussian,
    Laplace,
    kl_divergence,
    numeric_renyi_divergence,
    parse_distribution,
    renyi_divergence,
)
from pfrsim.errors import (
    AbsoluteContinuityError,
    DomainError,
    OrderError,
    PfrsimError,
    UnsupportedKindError,
)
from pfrsim.numerics import QuadratureSpec, integrate
from pfrsim.oracle import DEFAULT_PAIRS

LN2 = math.log(2.0)

#: Log-uniform on [1e-300, 1e300].
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def pair(p, q):
    return DistributionPair(p, q)


class TestConstruction:
    def test_sigma_positive(self):
        with pytest.raises(DomainError):
            Gaussian(0.0, 0.0)

    def test_finite_probs_validated(self):
        with pytest.raises(DomainError):
            Finite((0.5, 0.6))
        with pytest.raises(DomainError):
            Finite((-0.1, 1.1))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(UnsupportedKindError):
            pair(Gaussian(0, 1), Laplace(0, 1))

    def test_absolute_continuity_enforced(self):
        with pytest.raises(AbsoluteContinuityError):
            pair(Finite((0.5, 0.5)), Finite((1.0, 0.0)))
        # P=(1,0) << Q=(0.5,0.5) is fine
        pair(Finite((1.0, 0.0)), Finite((0.5, 0.5)))

    def test_support_sizes_must_match(self):
        with pytest.raises(UnsupportedKindError):
            pair(Finite((1.0,)), Finite((0.5, 0.5)))

    def test_parse_roundtrip(self):
        assert parse_distribution("normal:0,1") == Gaussian(0.0, 1.0)
        assert parse_distribution("laplace:2,0.5") == Laplace(2.0, 0.5)
        assert parse_distribution("finite:0.25,0.75") == Finite((0.25, 0.75))
        with pytest.raises(DomainError):
            parse_distribution("gamma:1,1")
        with pytest.raises(DomainError):
            parse_distribution("normal:abc,1")

    @pytest.mark.parametrize(
        "text",
        [
            "normal:nan,1", "normal:inf,1", "normal:0,inf", "normal:0,nan",
            "laplace:-inf,1", "laplace:nan,1", "laplace:0,inf",
            "finite:0.5,nan", "finite:nan,nan", "finite:inf,0.5",
        ],
    )
    def test_nonfinite_parameters_rejected(self, text):
        with pytest.raises(DomainError):
            parse_distribution(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("normal:1", "normal takes exactly"), ("normal:0,1,2", "normal takes exactly"),
            ("laplace:1", "laplace takes exactly"), ("laplace:0,1,2", "laplace takes exactly"),
        ],
    )
    def test_parameter_count_checked(self, text, message):
        with pytest.raises(DomainError, match=message):
            parse_distribution(text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([Gaussian, Laplace]),
        locs=st.tuples(*[st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), _MAGNITUDE)] * 2),
        scales=st.tuples(_MAGNITUDE, _MAGNITUDE),
    )
    @example(kind=Gaussian, locs=((0.0, 1.0), (1.0, 1e155)), scales=(1.0, 1.0))
    @example(kind=Laplace, locs=((0.0, 1.0), (0.0, 1.0)), scales=(1e-320, 1.0))
    @example(kind=Laplace, locs=((0.0, 1.0), (0.0, 1.0)), scales=(4.08e-80, 1.09e-97))
    def test_extreme_parameters_give_a_number_or_a_pfrsim_error(self, kind, locs, scales):
        # a pair out of the double range is rejected when it is built;
        # every pair built gets a value that is not nan, at each of its
        # locations, one scale from the first, and far outside both scales
        (mp, mq) = (sign * size for sign, size in locs)
        try:
            pr = pair(kind(mp, scales[0]), kind(mq, scales[1]))
        except DomainError:
            return
        far = 1e8 * max(scales)  # may overflow to inf

        def far_log_ratio(u):
            with np.errstate(over="ignore"):  # the ratio's terms may overflow to inf
                return pr.log_ratio(u)

        for f in (
            lambda: renyi_divergence(pr, np.array([0.3, 1.0, 2.5])),
            lambda: kl_divergence(pr),
            lambda: pr.log_ratio(np.array([mp, mq, mp + scales[0]])),
            lambda: far_log_ratio(np.array([mp - far, mp + far, mq - far, mq + far, -1e300, 1e300])),
            lambda: [c for r in sweep(pr, [0.3, 0.7, 0.9]) for c in r.cells if c is not None],
        ):
            try:
                value = f()
            except PfrsimError:
                continue
            assert not np.isnan(value).any(), (pr, value)


class TestDensityRatio:
    def test_laplace_ratio_far_out_is_its_limit(self):
        # both kink terms overflow to inf; the narrower law's term wins
        pr = pair(Laplace(0, 4.08e-80), Laplace(0, 1.09e-97))
        swapped = pair(Laplace(0, 1.09e-97), Laplace(0, 4.08e-80))
        with np.errstate(over="ignore"):
            assert pr.log_ratio(np.array([1e300, -1e300])).tolist() == [math.inf, math.inf]
            assert swapped.log_ratio(np.array([1e300, -math.inf])).tolist() == [-math.inf] * 2
        # a nan point stays nan, and finite values keep the bits of the two-kink form
        assert np.isnan(pr.log_ratio(np.array([math.nan]))).all()
        u = np.array([-3.0, 0.0, 1e-90, 2e-80, 5.0])
        form = np.abs(u) / 1.09e-97 - np.abs(u) / 4.08e-80 + math.log(1.09e-97 / 4.08e-80)
        np.testing.assert_array_equal(pr.log_ratio(u), form)

    def test_identical_pair_is_zero(self):
        assert pair(Gaussian(0, 1), Gaussian(0, 1)).log_ratio(3.7) / LN2 == 0.0

    def test_shifted_gaussian_hand_value(self):
        # ratio at u=0 is exp(1/2), so log2 value is 0.5/ln2
        val = pair(Gaussian(0, 1), Gaussian(1, 1)).log_ratio(0.0) / LN2
        assert val == pytest.approx(0.5 / LN2, rel=1e-12)

    def test_finite_ratio(self):
        val = pair(Finite((1.0, 0.0)), Finite((0.5, 0.5))).log_ratio(0) / LN2
        assert val == pytest.approx(1.0)

    def test_outside_q_support_raises(self):
        p = pair(Finite((0.0, 1.0)), Finite((0.0, 1.0)))
        with pytest.raises(AbsoluteContinuityError):
            p.log_ratio(0)


class TestCdf:
    """The log tail functions against math.erfc and the Laplace closed form."""

    @staticmethod
    def cdf(d, u):
        if isinstance(d, Gaussian):
            return 0.5 * math.erfc((d.mu - u) / (d.sigma * math.sqrt(2.0)))
        z = (u - d.theta) / d.lam
        return 0.5 * math.exp(z) if z <= 0.0 else 1.0 - 0.5 * math.exp(-z)

    def test_gaussian_symmetry(self):
        assert math.exp(Gaussian(0, 1).log_cdf(0.0)) == pytest.approx(0.5)

    def test_laplace_symmetry(self):
        assert math.exp(Laplace(0, 1).log_cdf(0.0)) == pytest.approx(0.5)

    def test_gaussian_table_value(self):
        assert math.exp(Gaussian(0, 1).log_cdf(1.0)) == pytest.approx(0.841345, abs=1e-6)

    def test_monotone(self):
        for d in (Gaussian(1.0, 2.0), Laplace(-1.0, 0.5)):
            grid = np.linspace(-20, 20, 400)
            vals = np.exp(d.log_cdf(grid))
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_log_cdf_log_sf_consistency(self):
        for d in (Gaussian(0.5, 1.5), Laplace(2.0, 0.7)):
            for u in (-30.0, -3.0, 0.0, 2.0, 40.0):
                assert math.exp(float(d.log_cdf(u))) == pytest.approx(self.cdf(d, u), abs=1e-13)
                assert math.exp(float(d.log_sf(u))) == pytest.approx(
                    1.0 - self.cdf(d, u), abs=1e-13
                )


class TestSampling:
    def test_degenerate_finite(self):
        rng = np.random.default_rng(0)
        draws = Finite((1.0,)).sample(rng, 100)
        assert np.all(draws == 0)

    def test_gaussian_mean(self):
        rng = np.random.default_rng(1)
        x = Gaussian(0, 1).sample(rng, 10**5)
        assert abs(float(np.mean(x))) < 0.02  # 4 sigma / sqrt(n) margin

    def test_laplace_median(self):
        rng = np.random.default_rng(2)
        x = Laplace(5, 1).sample(rng, 10**5)
        assert abs(float(np.median(x)) - 5.0) < 0.03

    @pytest.mark.parametrize("label", [label for label, pr in DEFAULT_PAIRS if pr.is_finite_kind])
    def test_finite_transform_is_searchsorted(self, label):
        # searchsorted's side="right" index, capped at the last point: at
        # random v, at each cumulative entry and next to it, and just below 1
        for law in (dict(DEFAULT_PAIRS)[label].p, dict(DEFAULT_PAIRS)[label].q):
            cum = np.cumsum(law.probs)
            v = np.concatenate([
                np.random.default_rng(0).random(10**4),
                cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                [0.0, np.nextafter(1.0, 0.0)],
            ])
            v = v[v < 1.0]  # the raw draw is uniform on [0, 1)
            ref = np.minimum(np.searchsorted(cum, v, side="right"), len(law.probs) - 1)
            got = law.transform(v)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_finite_search_matches_counting(self, monkeypatch):
        # a law past _FINITE_COUNTED points searches its cumulative table;
        # counting comparisons on the same law gives the same indices, at
        # random v, at each cumulative entry and next to it, and just below 1
        p = 1.0 + np.random.default_rng(0).random(20)
        law = Finite(tuple(p / p.sum()))
        assert len(law.probs) > distributions._FINITE_COUNTED
        cum = np.cumsum(law.probs)
        v = np.concatenate([
            np.random.default_rng(1).random(10**4),
            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        v = v[v < 1.0]  # the raw draw is uniform on [0, 1)
        searched = law.transform(v)
        monkeypatch.setattr(distributions, "_FINITE_COUNTED", len(law.probs))
        counted = law.transform(v)
        assert searched.dtype == counted.dtype
        np.testing.assert_array_equal(searched, counted)
        assert set(searched.tolist()) == set(range(len(law.probs)))

    def test_finite_frequencies(self):
        rng = np.random.default_rng(3)
        draws = Finite((0.2, 0.3, 0.5)).sample(rng, 10**5)
        freq = np.bincount(draws, minlength=3) / 10**5
        assert np.allclose(freq, [0.2, 0.3, 0.5], atol=0.01)


class TestRenyiDivergence:
    def test_identical_is_zero(self):
        for p in (Gaussian(0, 1), Laplace(2, 3), Finite((0.3, 0.7))):
            assert renyi_divergence(pair(p, p), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_equal_variance_gaussian_order2(self):
        d = renyi_divergence(pair(Gaussian(0, 1), Gaussian(1, 1)), 2.0)
        assert d == pytest.approx(1.0 / LN2, rel=1e-12)

    def test_laplace_infinite_branch(self):
        d = renyi_divergence(pair(Laplace(0, 3), Laplace(0, 1)), 2.0)
        assert d == math.inf

    def test_gaussian_terms_past_the_double_range_warn_nothing(self):
        # x overflows where the divergence is infinite; the location term
        # times the order overflows at 1e10 on the second pair, where the
        # divergence is finite: mpmath's value, and no warning on either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            infinite = renyi_divergence(
                pair(Gaussian(0, 1.3e154), Gaussian(1.3e154, 1)), np.array([1.5, 5.0, 1e10])
            )
            finite = renyi_divergence(pair(Gaussian(0, 0.5), Gaussian(1e150, 1)), 1e10)
        assert (infinite == math.inf).all()
        with mpmath.workdps(40):
            a = mpmath.mpf(1e10)
            s2 = a + (1 - a) * mpmath.mpf(0.25)
            nats = mpmath.log(2) - mpmath.log(s2) / (2 * (a - 1)) + mpmath.mpf(1e150) ** 2 * a / (2 * s2)
            assert finite == pytest.approx(float(nats / mpmath.log(2)), rel=1e-14)

    def test_order_validation(self):
        with pytest.raises(OrderError):
            renyi_divergence(pair(Gaussian(0, 1), Gaussian(1, 1)), 0.0)

    def test_numeric_reference_order_validation(self):
        for order in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OrderError):
                numeric_renyi_divergence(pair(Gaussian(0, 1), Gaussian(1, 1)), order)
        for pr in (
            pair(Gaussian(0, 1), Gaussian(1, 1)),
            pair(Laplace(0, 1), Laplace(1, 1)),
            pair(Finite((0.3, 0.7)), Finite((0.5, 0.5))),
        ):
            with pytest.raises(OrderError):
                numeric_renyi_divergence(pr, math.inf)
            for order in (math.inf, np.array([2.0, math.inf])):
                with pytest.raises(OrderError):
                    renyi_divergence(pr, order)

    def test_finite_large_orders_stay_below_the_max_ratio(self):
        # every D_a is at most log2 sup r.  Finite: sup r = 70, and the terms
        # p**a q**(1-a) overflow long before the orders of the ub1 epsilon
        # search (~970).  Unequal-scale Laplace: log sup r = log 2 + 0.25 at
        # the narrower law's location, and the closed form's exponentials
        # overflow from order ~1.4e3 on.  Equal-scale Laplace: log sup r = 1,
        # where a l2 + (1 - a) l1 rounds to 0 at order 1e300
        cases = (
            (
                pair(Finite((0.3, 0.7)), Finite((0.99, 0.01))),
                [0.5, 2.0, 10.0, 300.0, 970.0, 1000.0, 1e4],
                math.log2(70.0),
            ),
            (
                pair(Laplace(0, 1), Laplace(0.5, 2)),
                [0.5, 2.0, 10.0, 300.0, 2e3, 1e4, 1e6, 3e20, 1e100, 1e300],
                (math.log(2.0) + 0.25) / LN2,
            ),
            (
                pair(Laplace(0, 1), Laplace(1, 1)),
                [0.5, 2.0, 10.0, 300.0, 2e3, 1e4, 1e6, 3e20, 1e100, 1e300],
                1.0 / LN2,
            ),
        )
        for pr, orders, sup in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = renyi_divergence(pr, np.array(orders))
            assert np.all(np.isfinite(vals))
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all(vals <= sup)
            assert vals[-1] == pytest.approx(sup, abs=1e-3)
        assert vals[-1] == 1.4426950408889634  # Laplace(0,1)|Laplace(1,1) at 1e300

    def test_laplace_orders_past_the_double_range_give_the_max_ratio(self):
        # a dtheta / l1 and (1 - a) dtheta / l2 both overflow; the value is
        # log2 sup r to within O(log(a) / a), with no warning
        cases = (
            (pair(Laplace(0, 1), Laplace(1e10, 1)), [1e300], 1.4426950408889634e10),
            (pair(Laplace(0, 1), Laplace(40, 1)), [1e308, 1.7e308], 57.7078016355585),
            (pair(Laplace(0, 1), Laplace(40, 2)), [1e308, 1.7e308], 29.8539008177793),
        )
        for pr, orders, bits in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = renyi_divergence(pr, np.array(orders))
                assert renyi_divergence(pr, orders[0]) == vals[0]
            sup = pr.log_ratio_sup() / LN2
            assert vals.tolist() == pytest.approx([sup] * len(orders), rel=1e-15)
            assert vals.tolist() == pytest.approx([bits] * len(orders), rel=1e-13)
        # the limit holds at order 1e300 before anything overflows
        near = renyi_divergence(pair(Laplace(0, 1), Laplace(40, 1)), 1e300)
        assert near == pytest.approx(40.0 / LN2, rel=1e-15)

    def test_laplace_large_orders_match_reference(self):
        pr = pair(Laplace(0, 1), Laplace(0.5, 2))
        for order in (2e3, 1e4, 1e6):
            expect = _laplace_reference(pr.p, pr.q, order)
            assert renyi_divergence(pr, order) == pytest.approx(expect, rel=1e-13), order

    def test_numeric_reference_is_the_closed_form_where_exact(self):
        # finite pairs are exact sums, and order 1 is the KL closed form
        for pr, order in (
            (pair(Finite((0.9, 0.1)), Finite((0.5, 0.5))), 2.0),
            (pair(Finite((0.9, 0.1)), Finite((0.5, 0.5))), 1.0),
            (pair(Gaussian(0, 1), Gaussian(1, 1.5)), 1.0),
            (pair(Laplace(0, 1), Laplace(1, 2)), 1.0),
        ):
            assert numeric_renyi_divergence(pr, order) == renyi_divergence(pr, order)

    def test_order_one_dispatches_to_kl(self):
        pr = pair(Gaussian(0, 1), Gaussian(2, 1))
        assert renyi_divergence(pr, 1.0) == kl_divergence(pr)

    def test_laplace_removable_singularity_is_its_limit(self):
        pr = pair(Laplace(0, 1), Laplace(1, 2))  # singular order 1/3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = renyi_divergence(pr, 1.0 / 3.0)
        assert val == pytest.approx(_laplace_reference(pr.p, pr.q, 1.0 / 3.0), rel=1e-12)
        nearby = renyi_divergence(pr, 1.0 / 3.0 + 1e-5)
        assert val == pytest.approx(nearby, abs=1e-3)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(6):
            mu = rng.normal(scale=2)
            pairs.append(pair(Gaussian(0, 1), Gaussian(mu, float(rng.uniform(0.8, 2)))))
            pairs.append(
                pair(Laplace(0, 1), Laplace(mu, float(rng.uniform(1.0, 2.0))))
            )
        orders = [0.3, 0.7, 0.9, 1.2, 1.8, 2.5]
        for pr in pairs:
            vals = [renyi_divergence(pr, a) for a in orders]
            finite = [v for v in vals if math.isfinite(v)]
            assert all(b >= a - 1e-9 for a, b in zip(finite, finite[1:]))
            assert all(v >= -1e-9 for v in vals)

    def test_closed_form_matches_quadrature(self):
        pairs = [
            pair(Gaussian(0, 1), Gaussian(1, 1)),
            pair(Gaussian(0, 1), Gaussian(5, 1)),
            pair(Gaussian(0, 1), Gaussian(0, 2)),
            pair(Gaussian(1, 2), Gaussian(-1, 1.5)),
            pair(Laplace(0, 1), Laplace(1, 1)),
            pair(Laplace(0, 1), Laplace(5, 1)),
            pair(Laplace(0, 1), Laplace(0, 2)),
        ]
        for pr in pairs:
            for order in (0.3, 0.5, 1.5, 2.0, 3.0):
                closed = renyi_divergence(pr, order)
                if not math.isfinite(closed) or closed > 60.0:
                    continue
                numeric = numeric_renyi_divergence(pr, order)
                assert numeric == pytest.approx(closed, abs=1e-6), (pr, order)

    def test_continuity_at_order_one(self):
        pairs = [
            pair(Gaussian(0, 1), Gaussian(1, 1)),
            pair(Gaussian(0, 1), Gaussian(0, 1.5)),
            pair(Laplace(0, 1), Laplace(2, 1)),
            pair(Finite((0.5, 0.5)), Finite((0.25, 0.75))),
        ]
        for pr in pairs:
            assert renyi_divergence(pr, 0.9999) == pytest.approx(
                kl_divergence(pr), abs=1e-2
            )


# 30-digit references for the closed forms: quadrature of the integral of
# p^a q^(1-a) for the continuous kinds, exact sums for finite pairs.
_REFERENCE = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)


def _bits(integral, a):
    return float(mpmath.log(integral) / ((a - 1) * mpmath.log(2)))


def _gaussian_reference(p, q, order, dps=30):
    with mpmath.workdps(dps):
        a = mpmath.mpf(order)
        mu_p, mu_q = mpmath.mpf(p.mu), mpmath.mpf(q.mu)
        var_p, var_q = mpmath.mpf(p.sigma) ** 2, mpmath.mpf(q.sigma) ** 2

        def integrand(x):
            log_p = -((x - mu_p) ** 2) / (2 * var_p) - mpmath.log(p.sigma)
            log_q = -((x - mu_q) ** 2) / (2 * var_q) - mpmath.log(q.sigma)
            return mpmath.exp(a * log_p + (1 - a) * log_q) / mpmath.sqrt(2 * mpmath.pi)

        # the integrand is a Gaussian bump: break the line around its peak
        precision = a / var_p + (1 - a) / var_q
        peak = (a * mu_p / var_p + (1 - a) * mu_q / var_q) / precision
        sd = 1 / mpmath.sqrt(precision)
        edges = [-mpmath.inf, peak - 8 * sd, peak, peak + 8 * sd, mpmath.inf]
        return _bits(mpmath.quad(integrand, edges), a)


def _laplace_reference(p, q, order, dps=30):
    with mpmath.workdps(dps):
        a = mpmath.mpf(order)
        l1, l2 = mpmath.mpf(p.lam), mpmath.mpf(q.lam)

        def integrand(x):
            log_p = -abs(x - p.theta) / l1 - mpmath.log(2 * l1)
            log_q = -abs(x - q.theta) / l2 - mpmath.log(2 * l2)
            return mpmath.exp(a * log_p + (1 - a) * log_q)

        # smooth between the two kinks
        kinks = sorted({mpmath.mpf(p.theta), mpmath.mpf(q.theta)})
        return _bits(mpmath.quad(integrand, [-mpmath.inf, *kinks, mpmath.inf]), a)


def _assert_array_matches_scalars(pr, orders):
    values = renyi_divergence(pr, np.array(orders))
    scalars = [renyi_divergence(pr, o) for o in orders]
    assert values.tolist() == scalars
    return scalars


class TestNumericNearOrderOne:
    """The quadrature reference keeps its precision as the order nears 1.

    log of the integral of p^a q^(1-a), over a - 1, would magnify the
    quadrature's ~1e-10 absolute error by 1/|a - 1|: at 1 + 1e-12 on
    Laplace(0,1)|Laplace(0.5,2) it printed 0.0266 bits for 0.3555.
    """

    PAIRS = {
        "gauss_shift": pair(Gaussian(0, 1), Gaussian(1, 1)),
        "gauss_nonmonotone": pair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
        "laplace_nonmonotone": pair(Laplace(0, 1), Laplace(0.5, 2)),
    }

    @pytest.mark.parametrize("j", range(3, 13))
    @pytest.mark.parametrize("name", PAIRS)
    def test_matches_mpmath(self, name, j):
        pr = self.PAIRS[name]
        reference = _gaussian_reference if isinstance(pr.p, Gaussian) else _laplace_reference
        for order in (1.0 + 10.0**-j, 1.0 - 10.0**-j):
            expect = reference(pr.p, pr.q, order, dps=40)
            assert numeric_renyi_divergence(pr, order) == pytest.approx(expect, rel=0, abs=1e-8)


class TestClosedFormNearOrderOne:
    """The closed forms of all three kinds keep their precision as the
    order nears 1.

    Written with log(integral) / (a - 1), they lost ~1e-16 / |a - 1|: at
    order 1 + 1e-12 they were off by 8e-5 bits on N(0,2)|N(0,1), 3e-5 on
    Laplace(0,1)|Laplace(0.5,2), 2.4e-4 on Laplace(0,1)|Laplace(3,1) and
    9.7e-5 on the finite pairs.
    """

    PAIRS = {
        "gauss_nonmonotone": pair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
        "gauss_scale": pair(Gaussian(0, 2), Gaussian(0, 1)),
        "laplace_nonmonotone": pair(Laplace(0, 1), Laplace(0.5, 2)),
        "laplace_shift": pair(Laplace(0, 1), Laplace(1, 1)),
        "laplace_far_shift": pair(Laplace(0, 1), Laplace(3, 1)),
        "finite_skewed": pair(Finite((0.9, 0.1)), Finite((0.5, 0.5))),
        "finite_balanced": pair(Finite((0.5, 0.5)), Finite((0.25, 0.75))),
        "finite_extreme": pair(Finite((0.99, 0.01)), Finite((0.5, 0.5))),
    }

    @staticmethod
    def reference(p, q, order):
        """The textbook closed form, in 40-digit arithmetic from the float inputs.

        Finite pairs are the exact sum over probabilities normalized in
        50 digits: 0.9 + 0.1 as doubles is 1 + 2.8e-17, which would shift
        the sum's log by 2.8e-17 and its divergence by 2.8e-17 / |a - 1|.
        """
        if isinstance(p, Finite):
            with mpmath.workdps(50):
                ps, qs = (
                    [mpmath.mpf(x) / mpmath.fsum(map(mpmath.mpf, d.probs)) for x in d.probs]
                    for d in (p, q)
                )
                a = mpmath.mpf(order)
                return _bits(mpmath.fsum(x**a * y ** (1 - a) for x, y in zip(ps, qs) if x), a)
        with mpmath.workdps(40):
            a = mpmath.mpf(order)
            if isinstance(p, Gaussian):
                var_p, var_q = mpmath.mpf(p.sigma) ** 2, mpmath.mpf(q.sigma) ** 2
                s2 = a * var_q + (1 - a) * var_p
                nats = (
                    mpmath.log(mpmath.mpf(q.sigma) / p.sigma)
                    + mpmath.log(var_q / s2) / (2 * (a - 1))
                    + a * (mpmath.mpf(p.mu) - q.mu) ** 2 / (2 * s2)
                )
                return float(nats / mpmath.log(2))
            l1, l2 = mpmath.mpf(p.lam), mpmath.mpf(q.lam)
            dtheta = abs(mpmath.mpf(p.theta) - q.theta)
            g = (a / l1) * mpmath.exp(-(1 - a) * dtheta / l2) - ((1 - a) / l2) * mpmath.exp(
                -a * dtheta / l1
            )
            ratio = l1 * l2**2 * g / (a**2 * l2**2 - (1 - a) ** 2 * l1**2)
            return float(mpmath.log(l2 / l1, 2)) + _bits(ratio, a)

    @pytest.mark.parametrize("j", range(3, 13))
    @pytest.mark.parametrize("name", PAIRS)
    def test_matches_mpmath(self, name, j):
        pr = self.PAIRS[name]
        for order in (1.0 + 10.0**-j, 1.0 - 10.0**-j):
            expect = self.reference(pr.p, pr.q, order)
            assert renyi_divergence(pr, order) == pytest.approx(expect, rel=0, abs=1e-12)

    @pytest.mark.parametrize("name", ["gauss_nonmonotone", "laplace_nonmonotone", "laplace_shift"])
    def test_reference_matches_quadrature(self, name):
        pr = self.PAIRS[name]
        quadrature = _gaussian_reference if isinstance(pr.p, Gaussian) else _laplace_reference
        for order in (1.0 - 1e-6, 1.0 + 1e-3):
            expect = quadrature(pr.p, pr.q, order, dps=40)
            assert self.reference(pr.p, pr.q, order) == pytest.approx(expect, rel=0, abs=1e-15)


class TestRenyiReference:
    @_REFERENCE
    @given(
        mu=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
        sigma=st.tuples(st.floats(0.4, 2.5), st.floats(0.4, 2.5)),
        orders=st.lists(st.floats(0.05, 6.0), min_size=2, max_size=2),
    )
    @example(mu=(0.0, 1.0), sigma=(2.0, 1.0), orders=[1.5, 4.0 / 3.0])  # s^2 <= 0
    def test_gaussian_matches_quadrature(self, mu, sigma, orders):
        p, q = Gaussian(mu[0], sigma[0]), Gaussian(mu[1], sigma[1])
        values = _assert_array_matches_scalars(pair(p, q), orders)
        for a, value in zip(orders, values):
            s2 = a * q.sigma**2 + (1.0 - a) * p.sigma**2
            if s2 <= 0.0:
                assert value == math.inf
            elif s2 > 0.1 * min(p.sigma, q.sigma) ** 2 and a != 1.0:
                ref = _gaussian_reference(p, q, a)
                assert value == pytest.approx(ref, rel=1e-11, abs=1e-12), (p, q, a)

    @_REFERENCE
    @given(
        theta=st.tuples(st.floats(-3, 3), st.floats(-40, 40)),
        lam=st.tuples(st.floats(0.4, 2.5), st.floats(0.4, 2.5)),
        equal_scales=st.booleans(),
        order=st.floats(0.05, 6.0),
        offset=st.sampled_from([-1e-4, -1e-6, -1e-8, -3e-10, 0.0, 2e-10, 1e-8, 1e-6, 1e-4]),
    )
    @example(theta=(0.0, 30.0), lam=(1.0, 1.0), equal_scales=True, order=3.0, offset=0.0)  # far apart
    @example(theta=(0.0, 1.0), lam=(1.0, 2.0), equal_scales=False, order=2.5, offset=1e-8)
    @example(theta=(0.497, 0.0), lam=(1.635, 1.635), equal_scales=True, order=0.99999, offset=0.0)
    def test_laplace_matches_quadrature(self, theta, lam, equal_scales, order, offset):
        # the second order sits near l1 / (l1 + l2), the removable
        # singularity of the closed form
        l1, l2 = lam[0], lam[0] if equal_scales else lam[1]
        p, q = Laplace(theta[0], l1), Laplace(theta[1], l2)
        singular = l1 / (l1 + l2)
        orders = [order, singular + offset]
        values = _assert_array_matches_scalars(pair(p, q), orders)
        for a, value in zip(orders, values):
            if a * l2 + (1.0 - a) * l1 <= 0.0:
                assert value == math.inf
                continue
            ref = _laplace_reference(p, q, a)
            assert value == pytest.approx(ref, rel=1e-11, abs=1e-12), (p, q, a)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0)), min_size=1, max_size=6
        ).filter(lambda w: sum(x for x, _ in w) > 0.1),
        orders=st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4),
    )
    def test_finite_matches_exact_sum(self, weights, orders):
        p_w, q_w = np.array(weights).T
        p, q = Finite(tuple(p_w / p_w.sum())), Finite(tuple(q_w / q_w.sum()))
        values = _assert_array_matches_scalars(pair(p, q), orders)
        with mpmath.workdps(30):
            ps = [mpmath.mpf(x) / mpmath.fsum(map(mpmath.mpf, p.probs)) for x in p.probs]
            qs = [mpmath.mpf(x) / mpmath.fsum(map(mpmath.mpf, q.probs)) for x in q.probs]
            for a, value in zip(orders, values):
                if a == 1.0:
                    continue
                total = mpmath.fsum(pi**a * qi ** (1 - a) for pi, qi in zip(ps, qs) if pi > 0)
                assert value == pytest.approx(_bits(total, mpmath.mpf(a)), rel=1e-11, abs=1e-12)

    def test_finite_array_matches_scalars_on_a_wide_support(self):
        # numpy sums a lone column pairwise from 8 rows on, but several
        # columns row by row, which can differ in the last bit
        w, v = np.random.default_rng(3).random((2, 20))
        pr = pair(Finite(tuple(w / w.sum())), Finite(tuple(v / v.sum())))
        _assert_array_matches_scalars(pr, [0.3, 0.9, 1.0 - 1e-9, 1.0 + 1e-6, 2.0, 7.0, 300.0])

    def test_singularity_matches_reference_without_warning(self):
        pr = pair(Laplace(0, 1), Laplace(1, 2))
        orders = [1.0 / 3.0, 1.0 / 3.0 + 5e-10, 1.0 / 3.0 + 1e-6, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = renyi_divergence(pr, np.array(orders))
        for a, value in zip(orders, values.tolist()):
            assert value == pytest.approx(_laplace_reference(pr.p, pr.q, a), rel=1e-12)

    def test_shapes(self):
        pr = pair(Gaussian(0, 1), Gaussian(1, 2))
        orders = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 1.0]])
        values = renyi_divergence(pr, orders)
        assert values.shape == orders.shape
        assert values[0, 1] == values[1, 2] == kl_divergence(pr)
        assert isinstance(renyi_divergence(pr, 2.0), float)
        assert renyi_divergence(pr, np.array([])).shape == (0,)
        with pytest.raises(OrderError):
            renyi_divergence(pr, np.array([1.0, 0.0]))


class TestKl:
    def test_identical_zero(self):
        assert kl_divergence(pair(Gaussian(3, 2), Gaussian(3, 2))) == 0.0

    def test_gaussian_shift(self):
        d = kl_divergence(pair(Gaussian(0, 1), Gaussian(5, 1)))
        assert d == pytest.approx(12.5 / LN2, rel=1e-12)

    def test_finite_hand_value(self):
        d = kl_divergence(pair(Finite((0.5, 0.5)), Finite((0.25, 0.75))))
        expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
        assert d == pytest.approx(expect, rel=1e-12)

    def test_laplace_matches_near_one_renyi(self):
        pr = pair(Laplace(0, 1), Laplace(3, 2))
        assert kl_divergence(pr) == pytest.approx(
            renyi_divergence(pr, 1.0 - 1e-7), abs=1e-5
        )


class TestRatioStructure:
    @pytest.mark.parametrize(
        "pr",
        [
            pair(Gaussian(0, 1), Gaussian(1, 1)),
            pair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
            pair(Gaussian(0, 1.2), Gaussian(0.3, 1)),
            pair(Laplace(0, 1), Laplace(4, 1)),
            pair(Laplace(0, 1), Laplace(0.5, 2)),
            pair(Laplace(1, 2), Laplace(0, 1)),
        ],
        ids=[
            "normal_0_1-normal_1_1",
            "normal_0_1-normal_0.5_1.6",
            "normal_0_1.2-normal_0.3_1",
            "laplace_0_1-laplace_4_1",
            "laplace_0_1-laplace_0.5_2",
            "laplace_1_2-laplace_0_1",
        ],
    )
    def test_superlevel_masses(self, pr):
        # E_Q[(r - c)+] = P(r > c) - c Q(r > c) by quadrature, and each
        # mass against sampling frequencies within 3 standard errors
        rng = np.random.default_rng(17)
        n = 200_000
        lr_p = pr.log_ratio(pr.p.sample(rng, n))
        lr_q = pr.log_ratio(pr.q.sample(rng, n))
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
        for log_c in (-3.0, -0.7, 0.0, 0.4, 1.5, 3.0):
            log_p, log_q = pr.superlevel_masses(log_c)
            mp, mq = math.exp(log_p), math.exp(log_q)
            for mass, lr in ((mp, lr_p), (mq, lr_q)):
                se = math.sqrt(mass * (1.0 - mass) / n)
                assert abs(float(np.mean(lr > log_c)) - mass) <= 3.0 * se + 1e-12

            def excess(x, log_c=log_c):
                lp, lq = pr.p.log_density(x), pr.q.log_density(x)
                return np.maximum(np.exp(lp) - np.exp(log_c + lq), 0.0)

            ref = integrate(excess, spec)
            assert mp - math.exp(log_c) * mq == pytest.approx(ref, abs=1e-8)
        lp, lq = pr.superlevel_masses(np.array([-1.0, 0.5]))
        assert lp[1] == pr.superlevel_masses(0.5)[0]

    def test_superlevel_masses_far_tail(self):
        # {r > c} sits ~6.7 sd right of P's mean and ~13 sd right of Q's,
        # so the masses reach 1e-11 and 1e-40: compare them relatively
        # with 40-digit values
        mpmath = pytest.importorskip("mpmath")
        p, q = Gaussian(0, 1), Gaussian(-20, 2)
        pr = pair(p, q)
        for gap in (1e-3, 0.1, 2.0):
            log_c = pr.log_ratio_sup() - gap
            log_p, log_q = pr.superlevel_masses(log_c)
            with mpmath.workdps(40):
                # log r = a u^2 + b u + c0 = log_c
                a = mpmath.mpf(0.5) * (mpmath.mpf(1) / q.sigma**2 - 1)
                b = mpmath.mpf(p.mu) - mpmath.mpf(q.mu) / q.sigma**2
                c0 = mpmath.log(q.sigma) + mpmath.mpf(q.mu) ** 2 / (2 * q.sigma**2)
                disc = mpmath.sqrt(b * b - 4 * a * (c0 - log_c))
                lo, hi = sorted(((-b + disc) / (2 * a), (-b - disc) / (2 * a)))
                for d, got in ((p, log_p), (q, log_q)):
                    sf = [mpmath.ncdf(d.mu - x, 0, d.sigma) for x in (lo, hi)]
                    ref = float(sf[0] - sf[1])
                    assert math.exp(got) == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "pr",
        [
            pair(Gaussian(0, 1), Gaussian(1, 1 + 1e-12)),
            pair(Gaussian(0, 1), Gaussian(1, 1 + 1e-6)),
            pair(Gaussian(0, 1 + 1e-12), Gaussian(1, 1)),
            pair(Gaussian(0, 1 + 1e-6), Gaussian(1, 1)),
        ],
        ids=["peak_1e-12", "peak_1e-6", "trough_1e-12", "trough_1e-6"],
    )
    def test_superlevel_masses_near_equal_scales(self, pr):
        # nearly equal scales send the vertex ~1/(2 |sq - sp|) away, where its
        # level set's near edge, vertex -+ width, cancels: both masses within
        # 1e-13 relative of 45-digit values
        p, q = pr.p, pr.q
        with mpmath.workdps(45):
            sp, sq = mpmath.mpf(p.sigma), mpmath.mpf(q.sigma)
            # log r = a u^2 + b u + c0
            a = (1 / sq**2 - 1 / sp**2) / 2
            b = mpmath.mpf(p.mu) / sp**2 - mpmath.mpf(q.mu) / sq**2
            c0 = mpmath.log(sq / sp) + mpmath.mpf(q.mu) ** 2 / (2 * sq**2) - mpmath.mpf(p.mu) ** 2 / (2 * sp**2)
            for log_c in (-3.0, -0.7, 0.0, 0.4, 1.5, 3.0):
                got = pr.superlevel_masses(log_c)
                disc = mpmath.sqrt(b * b - 4 * a * (c0 - log_c))
                lo, hi = sorted(((-b + disc) / (2 * a), (-b - disc) / (2 * a)))
                for d, g in zip((p, q), got):
                    inside = mpmath.ncdf(hi, d.mu, d.sigma) - mpmath.ncdf(lo, d.mu, d.sigma)
                    want = inside if a < 0 else 1 - inside
                    err = abs(mpmath.exp(float(g)) / want - 1)
                    assert err <= 1e-13, (log_c, d, float(err))

    def test_superlevel_masses_finite_ties(self):
        pr = pair(Finite((0.2, 0.0, 0.8)), Finite((0.1, 0.5, 0.4)))
        # ratios 2, 0, 2: the level c = 2 itself lies outside the set
        log_p, log_q = pr.superlevel_masses(np.log([0.5, 2.0]))
        assert np.exp(log_p) == pytest.approx([1.0, 0.0], abs=1e-15)
        assert np.exp(log_q) == pytest.approx([0.5, 0.0], abs=1e-15)
        lp, lq = pr.superlevel_masses(-math.inf)
        assert (lp, math.exp(lq)) == (0.0, pytest.approx(0.5))

    def test_ratio_sup_values(self):
        assert pair(Gaussian(0, 1), Gaussian(1, 1)).log_ratio_sup() == math.inf
        assert pair(Gaussian(0, 1), Gaussian(0, 1)).log_ratio_sup() == 0.0
        # narrower P inside wider Q peaks at the mode
        pr = pair(Gaussian(0, 1), Gaussian(0, 2))
        assert pr.log_ratio_sup() == pytest.approx(float(pr.log_ratio(0.0)))
        assert pair(Laplace(0, 1), Laplace(5, 1)).log_ratio_sup() == pytest.approx(5.0)
        assert pair(Laplace(0, 2), Laplace(0, 1)).log_ratio_sup() == math.inf
        fin = pair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))
        assert fin.log_ratio_sup() == pytest.approx(math.log(1.8))

    def test_ratio_sup_dominates_samples(self):
        rng = np.random.default_rng(9)
        for pr in (
            pair(Gaussian(0, 1), Gaussian(0, 2)),
            pair(Laplace(0, 1), Laplace(3, 2)),
            pair(Gaussian(1, 0.5), Gaussian(0, 1)),
        ):
            sup = pr.log_ratio_sup()
            xs = rng.uniform(-30, 30, 2000)
            assert float(np.max(pr.log_ratio(xs))) <= sup + 1e-9


def _reference_extremum(pr):
    """(equal scales, P narrower, extremum of log r, log r there), case by case.

    With ``_reference_superlevel_set``, ``_reference_masses`` and
    ``_reference_sup``, a reference for ``superlevel_masses`` and
    ``log_ratio_sup`` that derives each shape again from the parameters
    and reads log r only through ``pair.log_ratio``.
    """
    p, q = pr.p, pr.q
    if isinstance(p, Laplace):
        same, peaked = p.lam == q.lam, p.lam < q.lam
        pivot = p.theta if peaked else q.theta
        return same, peaked, pivot, (math.nan if same else float(pr.log_ratio(pivot)))
    same, peaked = p.sigma == q.sigma, p.sigma < q.sigma
    if same:
        return same, peaked, math.nan, math.nan
    # the vertex of log p - log q: pivot = mu_p + (mu_p - mu_q) sp^2 / (sq^2 - sp^2),
    # top = log(sq / sp) + (mu_p - mu_q)^2 / (2 (sq^2 - sp^2))
    gap, spread = p.mu - q.mu, (q.sigma - p.sigma) * (q.sigma + p.sigma)
    pivot = p.mu + gap * (p.sigma**2 / spread)
    return same, peaked, pivot, math.log(q.sigma / p.sigma) + 0.5 * gap * gap / spread


def _reference_superlevel_set(pr, log_c):
    """{r > c} as (shape, lo, hi, shifts), worked out from the extremum for each kind.

    The edges are offsets from a centre: the midpoint of the locations for
    equal scales, else the narrower law's location.  ``shifts`` is the
    centre less P's location and less Q's.
    """
    p, q = pr.p, pr.q
    (loc_p, _), (loc_q, _) = (vars(d).values() for d in (p, q))
    if p == q:
        edge = np.where(np.asarray(log_c) < 0.0, math.inf, -math.inf)
        return "below", edge, edge, (0.0, 0.0)
    same_scale, peaked, pivot, top = _reference_extremum(pr)
    if same_scale:
        if isinstance(p, Gaussian):
            slope = (p.mu - q.mu) / p.sigma**2
            offset = log_c / slope
        else:
            slope = math.copysign(2.0 / p.lam, p.theta - q.theta)
            bound = abs(p.theta - q.theta) / p.lam
            with np.errstate(divide="ignore"):
                offset = np.divide(log_c / slope, (log_c < bound) & (log_c >= -bound))
        half_gap = 0.5 * (loc_p - loc_q)
        return ("below" if slope < 0.0 else "above"), offset, offset, (-half_gap, half_gap)
    shifts = (0.0, loc_p - loc_q) if peaked else (loc_q - loc_p, 0.0)
    drop = np.maximum(top - log_c if peaked else log_c - top, 0.0)
    shape = "inside" if peaked else "outside"
    if isinstance(p, Gaussian):
        # offsets from the narrower law's location: the root beyond the vertex,
        # and the other one as the product of the roots of log r = log c over it
        narrow = p if peaked else q
        spread = (q.sigma - p.sigma) * (q.sigma + p.sigma)
        vertex = (p.mu - q.mu) * (narrow.sigma**2 / spread)
        a = -0.5 * spread / q.sigma**2 / p.sigma**2
        side, width = math.copysign(1.0, vertex), np.sqrt(drop / abs(a))
        far = vertex + side * width
        at_centre = float(pr.log_ratio(narrow.mu))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vieta = (at_centre - log_c) / (a * far)
            near = np.where((drop > 0.0) & np.isfinite(far), vieta, vertex - side * width)
        lo, hi = (near, far) if side > 0.0 else (far, near)
        return shape, lo, hi, shifts
    else:
        narrow, wide = sorted((p.lam, q.lam))
        steep, shallow = 1.0 / narrow + 1.0 / wide, 1.0 / narrow - 1.0 / wide
        gap = abs(p.theta - q.theta)
        toward = np.maximum(drop / steep, gap + (drop - steep * gap) / shallow)
        away = drop / shallow
        left, right = (away, toward) if p.theta + q.theta >= 2.0 * pivot else (toward, away)
    return shape, -left, right, shifts


def _log_difference(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a < b, b + np.log(-np.expm1(a - b)), -math.inf)


def _reference_masses(pr, log_c):
    """(log P(r > c), log Q(r > c)) of a continuous pair from the set above.

    Each law reads an edge x as its offset shift + x from the law's
    location, in its standard form; sf(z) is cdf(-z), by symmetry.
    """
    shape, lo, hi, shifts = _reference_superlevel_set(pr, log_c)
    pivot = _reference_extremum(pr)[2]
    masses = []
    for d, shift in zip((pr.p, pr.q), shifts):
        loc, scale = vars(d).values()
        below = [d._standard_log_cdf((x + shift) / scale) for x in (lo, hi)]
        above = [d._standard_log_cdf((-shift - x) / scale) for x in (lo, hi)]
        masses.append({
            "below": below[1],
            "above": above[0],
            # log(e^b - e^a), by the tails on the peak's side of the location
            "inside": _log_difference(*(above[::-1] if pivot > loc else below)),
            # two tails that sum to 1 may round above it: a mass is at most 1
            "outside": np.minimum(np.logaddexp(below[0], above[1]), 0.0),
        }[shape])
    return tuple(masses)


def _reference_sup(pr):
    p, q = pr.p, pr.q
    if p == q:
        return 0.0
    same_scale, peaked, _, top = _reference_extremum(pr)
    if same_scale:
        return abs(p.theta - q.theta) / p.lam if isinstance(p, Laplace) else math.inf
    return top if peaked else math.inf


#: One pair of each continuous shape of log r, with both orientations.
CONTINUOUS_SHAPES = {
    "identical_normal": pair(Gaussian(0.3, 1.5), Gaussian(0.3, 1.5)),
    "identical_laplace": pair(Laplace(-1, 0.7), Laplace(-1, 0.7)),
    "line_normal_falling": pair(Gaussian(0, 1), Gaussian(1, 1)),
    "line_normal_rising": pair(Gaussian(5, 2), Gaussian(-3, 2)),
    "line_laplace_falling": pair(Laplace(0, 1), Laplace(4, 1)),
    "line_laplace_rising": pair(Laplace(2, 0.5), Laplace(-1, 0.5)),
    "quadratic_normal_peak": pair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
    "quadratic_normal_trough": pair(Gaussian(0, 1.2), Gaussian(0.3, 1)),
    "kinks_laplace_peak_other_right": pair(Laplace(0, 1), Laplace(0.5, 2)),
    "kinks_laplace_peak_other_left": pair(Laplace(3, 1), Laplace(-2, 3)),
    "kinks_laplace_trough_other_right": pair(Laplace(1, 2), Laplace(0, 1)),
    "kinks_laplace_trough_other_left": pair(Laplace(-4, 5), Laplace(1, 0.5)),
}


class TestRatioPinned:
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_SHAPES))
    def test_level_sets_match_reference(self, name):
        # the pair's one closed form gives, bit for bit, the masses and the
        # sup that the case-by-case reference gives from the same log r
        pr = CONTINUOUS_SHAPES[name]
        sup = pr.log_ratio_sup()
        assert sup == _reference_sup(pr)
        # +-bound (sup of a bounded ratio), the extremum, +-inf and their neighbours
        top = _reference_extremum(pr)[3]
        special = [x for x in (0.0, sup, -sup, top, math.inf, -math.inf) if not math.isnan(x)]
        near = [np.nextafter(x, d) for x in special for d in (-math.inf, math.inf)]
        spread = np.random.default_rng(5).normal(0.0, 3.0, 10**4 - len(special) - len(near))
        levels = np.concatenate([special, near, spread])
        with np.errstate(over="ignore", invalid="ignore"):
            got = pr.superlevel_masses(levels)
            want = _reference_masses(pr, levels)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def _mp_log_density(d, u):
    """log density of a Gaussian or Laplace law at u, in mpmath."""
    u = mpmath.mpf(u)
    if isinstance(d, Gaussian):
        mu, s = mpmath.mpf(d.mu), mpmath.mpf(d.sigma)
        return -((u - mu) ** 2) / (2 * s**2) - mpmath.log(s) - mpmath.log(2 * mpmath.pi) / 2
    theta, lam = mpmath.mpf(d.theta), mpmath.mpf(d.lam)
    return -abs(u - theta) / lam - mpmath.log(2 * lam)


#: (pair, probes): each shape with its locations, kinks and extremum.
LOG_RATIO_SHAPES = {
    "identical_normal": (pair(Gaussian(0.3, 1.5), Gaussian(0.3, 1.5)), [0.3]),
    "identical_laplace": (pair(Laplace(-1, 0.7), Laplace(-1, 0.7)), [-1.0]),
    "line_normal": (pair(Gaussian(0, 1), Gaussian(5, 1)), [0.0, 2.5, 5.0]),
    "line_laplace": (pair(Laplace(0, 1), Laplace(5, 1)), [0.0, 2.5, 5.0]),
    "quadratic_normal_peak": (pair(Gaussian(0, 1), Gaussian(0.5, 1.6)), [0.0, 0.5]),
    "quadratic_normal_trough": (pair(Gaussian(0, 1.2), Gaussian(0.3, 1)), [0.0, 0.3]),
    "kinks_laplace_peak": (pair(Laplace(0, 1), Laplace(0.5, 2)), [0.0, 0.5]),
    "kinks_laplace_trough": (pair(Laplace(1, 2), Laplace(0, 1)), [0.0, 1.0]),
    # scales 1e-12 apart put the vertex near +-5e11, far from both locations
    "quadratic_normal_near_equal_peak": (pair(Gaussian(0, 1), Gaussian(1, 1 + 1e-12)), [0.0, 0.5, 1.0]),
    "quadratic_normal_near_equal_trough": (pair(Gaussian(0, 1 + 1e-12), Gaussian(1, 1)), [0.0, 0.5, 1.0]),
}


class TestLogRatioAccuracy:
    @pytest.mark.parametrize("name", sorted(LOG_RATIO_SHAPES))
    def test_against_40_digits(self, name):
        # log r against log p - log q in 40 digits, within 4 ulp of
        # |log p| + |log q| + 1, between, at and beyond the locations
        pr, probes = LOG_RATIO_SHAPES[name]
        extremum = _reference_extremum(pr)[2]  # nan for a line
        mags = 10.0 ** np.arange(-3, 5)  # |u| up to 1e4
        us = np.concatenate([probes, [extremum], mags, -mags, np.linspace(-12.0, 17.0, 59)])
        us = us[~np.isnan(us)]
        got = pr.log_ratio(us)
        with mpmath.workdps(40):
            for u, g in zip(us, got):
                lp, lq = _mp_log_density(pr.p, u), _mp_log_density(pr.q, u)
                scale = abs(float(lp)) + abs(float(lq)) + 1.0
                err = abs(mpmath.mpf(float(g)) - (lp - lq))
                assert float(err) <= 4.0 * np.spacing(scale), (u, g, float(lp - lq))

    def test_finite_against_40_digits(self):
        pr = pair(Finite((0.5, 0.0, 0.3, 0.2)), Finite((0.2, 0.3, 0.1, 0.4)))
        got = pr.log_ratio(np.arange(4))
        with mpmath.workdps(40):
            for i, g in enumerate(got):
                lp = mpmath.log(pr.p.probs[i]) if pr.p.probs[i] else -mpmath.inf
                lq = mpmath.log(pr.q.probs[i])
                if lp == -mpmath.inf:
                    assert g == -math.inf
                    continue
                scale = abs(float(lp)) + abs(float(lq)) + 1.0
                assert float(abs(mpmath.mpf(float(g)) - (lp - lq))) <= 4.0 * np.spacing(scale)


def _mp_log_ratio(pr, u):
    """log p(u) - log q(u) of a continuous pair at the double u, in mpmath."""
    return _mp_log_density(pr.p, u) - _mp_log_density(pr.q, u)


def _log_ratio_allowance(pr, u):
    """The error allowed to ``pr.log_ratio(u)``: a few ulps of |log r(u)|, plus
    the change of log r over a few ulps of the ratio's centre.

    A closed form written about a centre rounds that centre once, which moves
    log r by up to its slope times an ulp of the centre.  The centre's size is
    that of the largest of the locations and, for Gaussians of unequal scales,
    the vertex; the slope is |d log r/du| at u plus the curvature over that ulp
    (1/lambda_p + 1/lambda_q for Laplace laws, whose slope jumps at the kinks).
    """
    p, q = pr.p, pr.q
    u = mpmath.mpf(u)
    if isinstance(p, Laplace):
        centre, slope = max(abs(p.theta), abs(q.theta)), 1.0 / p.lam + 1.0 / q.lam
    else:
        mu_p, mu_q, vp, vq = (mpmath.mpf(x) for x in (p.mu, q.mu, p.sigma, q.sigma))
        vp, vq = vp**2, vq**2
        centre = max(abs(p.mu), abs(q.mu))
        if vp != vq:
            centre = max(centre, abs(float(mu_p + (mu_p - mu_q) * vp / (vq - vp))))
        curvature = float(abs(1 / vp - 1 / vq))
        slope = float(abs((u - mu_q) / vq - (u - mu_p) / vp)) + curvature * np.spacing(centre)
    return 4.0 * np.spacing(abs(float(_mp_log_ratio(pr, u)))) + 4.0 * slope * np.spacing(centre)


#: An integer of log-uniform size in [1, 2**51], of either sign.
_MANTISSA = st.tuples(st.sampled_from([-1, 1]), st.floats(0.0, 51.0)).map(
    lambda t: t[0] * int(2.0 ** t[1])
)


class TestLogRatioFarFromTheOrigin:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([Gaussian, Laplace]),
        exponent=st.integers(0, 447),
        locs=st.tuples(_MANTISSA, _MANTISSA),
        shift=_MANTISSA,
        scale=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        ratio=st.one_of(
            st.just(1.0),
            st.floats(0.01, 1.2).map(lambda e: 10.0**e),
            st.floats(-1.2, -0.01).map(lambda e: 10.0**e),
            st.floats(-4.0, -1.0).map(lambda e: 1.0 + 10.0**e),
        ),
        offsets=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
    )
    @example(kind=Gaussian, exponent=0, locs=(10**10, 10**10 + 1), shift=1,
             scale=1.0, ratio=1.0, offsets=[0.0])
    def test_accurate_and_shift_invariant(self, kind, exponent, locs, shift, scale, ratio, offsets):
        # locations m 2**e from 1 to about 1e150, equal and unequal scales:
        # log r within the allowance of 40-digit mpmath at each location and
        # around it, and around a vertex.  The pair and the point shifted by
        # s = n 2**e give the same log r within the allowances of both and the
        # change of log r over the rounding of u + s; |m + n| < 2**53, so the
        # shifted locations are exact
        mp_, mq, s = (math.ldexp(m, exponent) for m in (*locs, shift))
        laws = [(mp_, scale), (mq, scale * ratio)]
        base = pair(*(kind(m, sd) for m, sd in laws))
        moved = pair(*(kind(m + s, sd) for m, sd in laws))
        try:
            base.log_ratio(mp_), moved.log_ratio(mp_ + s)
        except DomainError:  # the vertex of a near-equal-scale pair leaves the double range
            return
        centres = [m for m, _ in laws]
        if kind is Gaussian and ratio != 1.0:
            centres.append(_reference_extremum(base)[2])
        width = max(scale, scale * ratio)
        us = np.array([c + t * width for c in centres for t in offsets])
        got, got_moved = base.log_ratio(us), moved.log_ratio(us + s)
        with mpmath.workdps(40):
            for u, g, g_moved in zip(us, got, got_moved):
                want = _mp_log_ratio(base, u)
                allowed = _log_ratio_allowance(base, u)
                assert float(abs(mpmath.mpf(float(g)) - want)) <= allowed, (u, g, float(want))
                rounding = mpmath.mpf(float(u + s)) - (mpmath.mpf(u) + mpmath.mpf(s))
                drift = abs(_mp_log_ratio(base, mpmath.mpf(u) + rounding) - want)
                allowed += _log_ratio_allowance(moved, u + s) + float(drift)
                assert abs(mpmath.mpf(float(g_moved)) - float(g)) <= allowed, (u, s, g, g_moved)

    def test_vertex_at_the_edge_of_the_double_range(self):
        # the pair check admits sq^2 = 1.44e308, where mu_p sq^2 and
        # 2 (sq^2 - sp^2) overflow: the vertex and its height avoid both
        pr = pair(Gaussian(1.2e154, 1.0), Gaussian(0.0, 1.2e154))
        with mpmath.workdps(40):
            mu, vq = mpmath.mpf(1.2e154), mpmath.mpf(1.2e154) ** 2
            pivot = float(mu + mu / (vq - 1))
            top = mpmath.log(1.2e154) + mu**2 / (2 * (vq - 1))
            for got, want in ((pr.log_ratio_sup(), top), (pr.log_ratio(pivot), _mp_log_ratio(pr, pivot))):
                assert abs(mpmath.mpf(float(got)) - want) <= 2.0 * np.spacing(float(want)), (got, want)

    def test_vertex_past_the_double_range_is_a_domain_error(self):
        # scales 1e-7 apart put the vertex of N(0,1)|N(1e154,1.0000001) about
        # 5e160 away, at a height of about 2.5e314
        pr = pair(Gaussian(0.0, 1.0), Gaussian(1e154, 1.0000001))
        for f in (lambda: pr.log_ratio(0.0), pr.log_ratio_sup, lambda: pr.superlevel_masses(0.0)):
            with pytest.raises(DomainError, match="leaves the double range"):
                f()


def _mp_superlevel_masses(pr, log_c):
    """[(log P(r > c), allowance), (log Q(r > c), allowance)] in 40 digits.

    Worked out about P's location: the locations are multiples of one
    power of two, so their gap is exact and their size costs no digits.
    The set's edges are the roots of log r = log c (piece by piece between
    a Laplace pair's kinks), and each mass sums the law's mass on the
    intervals between edges where r > c.  The allowance is a few ulps of
    the log mass, plus its change over the error an edge may carry: a few
    ulps of its offset from the ratio's centre and from the law's own
    location, and a few ulps of |log c| + |log p| + |log q| + 1 over the
    slope of log r there.  The centre is the midpoint of the locations for
    equal scales, else the narrower law's location.
    """
    p, q = pr.p, pr.q
    (lp, sp), (lq, sq) = ((mpmath.mpf(v) for v in vars(d).values()) for d in (p, q))
    g, lc, eps = lq - lp, mpmath.mpf(log_c), mpmath.mpf(2.0**-52)
    laws = ((mpmath.mpf(0), sp), (g, sq))
    gaussian = isinstance(p, Gaussian)

    def log_density(x, m, s):
        if gaussian:
            return -((x - m) ** 2) / (2 * s**2) - mpmath.log(s) - mpmath.log(2 * mpmath.pi) / 2
        return -abs(x - m) / s - mpmath.log(2 * s)

    def log_r(x):
        return log_density(x, *laws[0]) - log_density(x, *laws[1])

    def cdf(x, m, s):
        if gaussian:
            return mpmath.ncdf(x, m, s)
        z = (x - m) / s
        return mpmath.exp(z) / 2 if z < 0 else 1 - mpmath.exp(-z) / 2

    roots = []  # (edge, |d log r/dx| there)
    if gaussian:
        # log r = a x^2 + b x + c0
        a, b = (1 / sq**2 - 1 / sp**2) / 2, -g / sq**2
        c0 = g**2 / (2 * sq**2) + mpmath.log(sq / sp) - lc
        if a == 0:
            if b != 0:
                roots.append(-c0 / b)
        elif b * b - 4 * a * c0 > 0:
            disc = mpmath.sqrt(b * b - 4 * a * c0)
            roots += [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        roots = [(x, abs(2 * a * x + b)) for x in roots]
        centre = g / 2 if a == 0 else laws[sp > sq][0]
    else:
        kinks = sorted((mpmath.mpf(0), g))
        ends = [-mpmath.inf, *kinks, mpmath.inf]
        for lo, hi in zip(ends[:-1], ends[1:]):
            if lo == hi:
                continue
            # log r = log r(x0) + slope (x - x0) on (lo, hi)
            if lo == -mpmath.inf:
                x0 = hi - sp - sq
            else:
                x0 = lo + sp + sq if hi == mpmath.inf else (lo + hi) / 2
            slope = -mpmath.sign(x0) / sp + mpmath.sign(x0 - g) / sq
            if slope != 0:
                x = x0 + (lc - log_r(x0)) / slope
                if lo <= x <= hi:
                    roots.append((x, abs(slope)))
        centre = g / 2 if sp == sq else laws[sp > sq][0]
    edges = sorted({x for x, _ in roots})
    cuts = [-mpmath.inf, *edges, mpmath.inf]
    inside = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo == -mpmath.inf:
            probe = 0 if hi == mpmath.inf else hi - sp - sq
        else:
            probe = lo + sp + sq if hi == mpmath.inf else (lo + hi) / 2
        if log_r(probe) > lc:
            inside.append((lo, hi))
    out = []
    for m, s in laws:
        # each interval from the side where its mass does not cancel
        mass = mpmath.fsum(
            cdf(hi, m, s) - cdf(lo, m, s) if hi <= m else cdf(2 * m - lo, m, s) - cdf(2 * m - hi, m, s)
            for lo, hi in inside
        )
        if mass == 0:
            out.append((-mpmath.inf, 0.0))
            continue
        allowed = 2 * eps * (1 + abs(mpmath.log(mass)))
        for x, slope in roots:
            size = abs(lc) + abs(log_density(x, *laws[0])) + abs(log_density(x, *laws[1])) + 1
            moved = 4 * eps * (abs(x - centre) + abs(x - m) + size / slope)
            allowed += mpmath.exp(log_density(x, m, s)) / mass * moved
        out.append((mpmath.log(mass), float(allowed)))
    return out


class TestSuperlevelMassesFarFromTheOrigin:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([Gaussian, Laplace]),
        exponent=st.integers(-40, 447),
        loc=_MANTISSA,
        gap=st.integers(-64, 64),
        shift=_MANTISSA,
        scale=st.floats(-1.0, 1.5).map(lambda e: 10.0**e),
        ratio=st.one_of(
            st.just(1.0),
            st.floats(0.01, 1.2).map(lambda e: 10.0**e),
            st.floats(-1.2, -0.01).map(lambda e: 10.0**e),
            st.floats(-4.0, -1.0).map(lambda e: 1.0 + 10.0**e),
        ),
        levels=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4),
    )
    @example(kind=Gaussian, exponent=0, loc=10**14, gap=1, shift=1, scale=1.0, ratio=1.0,
             levels=[0.3])
    @example(kind=Laplace, exponent=0, loc=10**14, gap=1, shift=1, scale=1.0, ratio=1.0,
             levels=[0.3])
    def test_accurate_and_shift_invariant(self, kind, exponent, loc, gap, shift, scale, ratio, levels):
        # locations m 2**e from 2**-40 to about 1e150, gaps and scales of
        # the order of 2**e: both masses within the allowance of 40-digit
        # mpmath, and bit for bit those of the pair shifted by n 2**e
        # (|m + n| < 2**53, so the shifted locations are exact)
        locs = (loc, loc + gap)
        laws = [(m, math.ldexp(sd, exponent)) for m, sd in zip(locs, (scale, scale * ratio))]
        base, moved = (
            pair(*(kind(math.ldexp(m + n, exponent), sd) for m, sd in laws)) for n in (0, shift)
        )
        try:
            base.log_ratio_sup(), moved.log_ratio_sup()
        except DomainError:  # the vertex of a near-equal-scale pair leaves the double range
            return
        if kind is Laplace and ratio == 1.0:  # no level on a flat, where the masses jump
            flat = abs(gap) / scale
            levels = [c for c in levels if abs(abs(c) - flat) > 1e-9 * (1.0 + flat)]
        levels = np.array(levels)
        got, got_moved = base.superlevel_masses(levels), moved.superlevel_masses(levels)
        np.testing.assert_array_equal(got[0], got_moved[0])
        np.testing.assert_array_equal(got[1], got_moved[1])
        with mpmath.workdps(40):
            for j, log_c in enumerate(levels):
                for g, (want, allowed) in zip((got[0][j], got[1][j]), _mp_superlevel_masses(base, log_c)):
                    if want == -mpmath.inf:
                        assert g == -math.inf, (log_c, g)
                    else:
                        err = float(abs(mpmath.mpf(float(g)) - want))
                        assert err <= allowed, (log_c, float(g), float(want), err, allowed)

    @pytest.mark.parametrize("p,q", [
        (Gaussian(0, 1.2), Gaussian(0, 1)),
        (Gaussian(1e10, 3), Gaussian(1e10 + 1, 1)),
        (Gaussian(2.0**172, 30.13 * 2.0**172), Gaussian(65 * 2.0**172, 9.53 * 2.0**172)),
        (Laplace(0, 2), Laplace(0.5, 1)),
        (Laplace(1e12, 5), Laplace(1e12 - 3, 0.5)),
    ])
    def test_masses_of_trough_ratios_are_at_most_one(self, p, q):
        # the two tails outside a trough's interval sum to 1 at low levels;
        # on the third pair their logaddexp rounded to +5.2e-18 from log c
        # = -40 to -20
        pr = pair(p, q)
        assert pr._ratio.level_set(0.0)[0] == "outside"
        log_p, log_q = pr.superlevel_masses(np.linspace(-60.0, 60.0, 24001))
        assert (log_p <= 0.0).all() and (log_q <= 0.0).all()
