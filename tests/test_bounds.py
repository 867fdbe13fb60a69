import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfrsim import bounds
from pfrsim.bounds import (
    _EPS_WINDOW,
    BoundSet,
    _log_gamma_bracket,
    _ub1,
    _ub1_search,
    c1,
    c2,
    default_alpha_grid,
    lb1,
    lb2,
    optimize_ub,
    sweep,
    sweep_to_csv,
    ub1,
    ub2,
    ub2_epsilon_max,
)
from pfrsim.distributions import DistributionPair, Finite, Gaussian, Laplace, kl_divergence
from pfrsim.errors import AbsoluteContinuityError, EpsilonRangeError, OrderError
from pfrsim.numerics import _GRID_POINTS, log_gamma, minimize_scalar
from pfrsim.oracle import DEFAULT_PAIRS, CheckReport, run_suite

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2

IDENT = DistributionPair(Gaussian(0, 1), Gaussian(0, 1))
NEAR = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))
FAR = DistributionPair(Gaussian(0, 1), Gaussian(5, 1))


class TestLowerBounds:
    def test_lb1_identical_pair(self):
        assert lb1(IDENT, 0.5) == pytest.approx(-2.0, abs=1e-12)

    def test_lb1_far_pair_hand_value(self):
        assert lb1(FAR, 0.5) == pytest.approx(25.0 / LN2 - 2.0, rel=1e-12)

    def test_lb1_constant_near_one(self):
        # the additive constant tends to -1/ln2 - 1
        val = lb1(IDENT, 0.9999)
        assert val == pytest.approx(-1.0 / LN2 - 1.0, abs=1e-3)

    def test_lb2_identical_pair(self):
        assert lb2(IDENT, 0.5) == pytest.approx(2.0 * math.log2(1.0 / 1.5), rel=1e-12)

    def test_lb2_far_pair_hand_value(self):
        expect = 18.75 / LN2 + 2.0 * math.log2(1.0 / 1.5)
        assert lb2(FAR, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_lb2_recovers_kl_bound_near_one(self):
        from pfrsim.distributions import kl_divergence

        target = kl_divergence(NEAR) - 1.0 / LN2
        assert lb2(NEAR, 0.999) == pytest.approx(target, abs=0.01)

    @pytest.mark.parametrize("j", range(3, 13))
    def test_lb2_constant_near_one_matches_mpmath(self, j):
        # log2(1 / (2 - alpha)) / (1 - alpha) cancels as alpha -> 1 unless
        # written with log1p; the identical pair has divergence 0
        alpha = 1.0 - 10.0**-j
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            expect = float(mpmath.log(1 / (2 - a), 2) / (1 - a))
        assert lb2(IDENT, alpha) == pytest.approx(expect, rel=0, abs=1e-15)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(OrderError):
                lb1(NEAR, bad)

    def test_mutual_ac_required(self):
        pr = DistributionPair(Finite((1.0, 0.0)), Finite((0.5, 0.5)))
        with pytest.raises(AbsoluteContinuityError):
            lb1(pr, 0.5)


class TestConstants:
    def test_c1_first_case_hand_value(self):
        expect = 1.1 * LOG2E + 1.0 + math.log2(11.0)
        assert c1(0.8, 0.1) == pytest.approx(expect, rel=1e-12)
        assert c1(0.8, 0.1) == pytest.approx(6.046, abs=2e-3)

    def test_c1_case_selection(self):
        # below one half the gamma-term case always applies
        low = c1(0.4, 0.1)
        gamma_term = (0.4 / 0.6) * math.lgamma((1.0 + 0.1 * 0.6) / 0.4) * LOG2E
        expect = gamma_term + 4.0 + 0.3 - 2.0 * 0.4 / 0.6 + math.log2(11.0)
        assert low == pytest.approx(expect, rel=1e-12)

    def test_c1_boundary_uses_gamma_case(self):
        # at alpha=0.8 the threshold is eps=3; the boundary belongs to case two
        eps = 3.0
        order = (1.0 + eps * 0.2) / 0.8
        expect = (
            (0.8 / 0.2) * math.lgamma(order) * LOG2E
            + 4.0
            + 9.0
            - 8.0
            + math.log2(1.0 + 1.0 / 3.0)
        )
        assert c1(0.8, eps) == pytest.approx(expect, rel=1e-12)
        # just below the threshold the small-constant case applies
        assert c1(0.8, eps - 1e-9) == pytest.approx(
            (4.0 - 1e-9) * LOG2E + 1.0 + math.log2(1.0 + 1.0 / (eps - 1e-9)),
            rel=1e-9,
        )

    def test_c2_hand_value(self):
        assert c2(1.0) == pytest.approx(4.0 + math.log2(LN2 + 1.5), rel=1e-12)
        assert c2(1.0) == pytest.approx(5.133, abs=1e-3)

    def test_epsilon_validation(self):
        with pytest.raises(EpsilonRangeError):
            c1(0.5, 0.0)
        with pytest.raises(EpsilonRangeError):
            c2(-1.0)


class TestUpperBounds:
    def test_ub1_identical_pair_reduces_to_constant(self):
        assert ub1(IDENT, 0.8, 0.1) == pytest.approx(c1(0.8, 0.1), rel=1e-12)

    def test_ub1_divergence_order(self):
        # at alpha=0.5, eps=0.2 the divergence order is 2.2
        from pfrsim.distributions import renyi_divergence

        expect = 1.2 * renyi_divergence(NEAR, 2.2) + c1(0.5, 0.2)
        assert ub1(NEAR, 0.5, 0.2) == pytest.approx(expect, rel=1e-12)

    def test_ub1_infinite_divergence_propagates(self):
        pr = DistributionPair(Laplace(0, 3), Laplace(0, 1))
        # order (1 + eps/2) / 0.5 > 2 makes the divergence infinite
        assert ub1(pr, 0.5, 1.0) == math.inf

    def test_ub1_order_approaches_reciprocal_alpha(self):
        # the divergence order (1 + eps(1-alpha))/alpha tends to 1/alpha
        for alpha in (0.3, 0.6, 0.9):
            order = (1.0 + 1e-9 * (1.0 - alpha)) / alpha
            assert order == pytest.approx(1.0 / alpha, abs=1e-8)

    def test_ub2_epsilon_ceiling(self):
        assert ub2_epsilon_max(0.7) == pytest.approx(1.0 / 6.0, rel=1e-12)
        with pytest.raises(EpsilonRangeError):
            ub2(NEAR, 0.7, 0.2)
        with pytest.raises(OrderError):
            ub2(NEAR, 0.5, 0.01)

    def test_ub2_identical_pair_is_constant(self):
        assert ub2(IDENT, 0.9, 0.1) == pytest.approx(c2(0.1), rel=1e-12)


class TestOptimization:
    def test_identical_pair_ub1_reduces_to_constant_min(self):
        eps, val = optimize_ub(IDENT, 0.9, "ub1")
        assert math.isfinite(val)
        grid = np.linspace(1e-4, 50.0, 4000)
        assert val <= min(c1(0.9, float(e)) for e in grid) + 1e-6

    def test_ub2_respects_ceiling(self):
        eps, _ = optimize_ub(NEAR, 0.8, "ub2")
        assert 0.0 < eps <= ub2_epsilon_max(0.8) + 1e-12

    def test_ub1_tighter_than_ub2(self):
        _, v1 = optimize_ub(NEAR, 0.9, "ub1")
        _, v2 = optimize_ub(NEAR, 0.9, "ub2")
        assert v1 < v2

    def test_ub2_domain_is_the_computed_difference(self):
        # one ulp above the float 2/3, 3 alpha - 2 rounds to 0: no epsilon
        # is admissible, so that order is outside ub2's domain
        just_above = math.nextafter(2.0 / 3.0, 1.0)
        assert 3.0 * just_above - 2.0 == 0.0
        with pytest.raises(OrderError):
            optimize_ub(NEAR, just_above, "ub2")
        next_up = math.nextafter(just_above, 1.0)
        eps, val = optimize_ub(NEAR, next_up, "ub2")
        assert 0.0 < eps <= ub2_epsilon_max(next_up)
        assert math.isfinite(val)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            optimize_ub(NEAR, 0.9, "ub3")


# the six golden pairs and two with a non-monotone ratio
SCAN_PAIRS = {
    "N(0,1)|N(1,1)": DistributionPair(Gaussian(0, 1), Gaussian(1, 1)),
    "N(0,1)|N(5,1)": DistributionPair(Gaussian(0, 1), Gaussian(5, 1)),
    "N(0,1)|N(10,1)": DistributionPair(Gaussian(0, 1), Gaussian(10, 1)),
    "L(0,1)|L(1,1)": DistributionPair(Laplace(0, 1), Laplace(1, 1)),
    "L(0,1)|L(5,1)": DistributionPair(Laplace(0, 1), Laplace(5, 1)),
    "L(0,1)|L(10,1)": DistributionPair(Laplace(0, 1), Laplace(10, 1)),
    "L(0,1)|L(0.5,2)": DistributionPair(Laplace(0, 1), Laplace(0.5, 2)),
    "N(0,1)|N(0.5,1.6)": DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
}


class TestUb2ClosedFormEpsilon:
    """ub2's epsilon is the closed-form minimizer, capped at ``ub2_epsilon_max``."""

    ORDERS = np.linspace(0.667, 0.995, 12)

    @pytest.mark.parametrize("name", SCAN_PAIRS)
    def test_no_worse_than_a_dense_scan(self, name):
        pr = SCAN_PAIRS[name]
        eps, vals = optimize_ub(pr, self.ORDERS, "ub2")
        slope = math.log2(kl_divergence(pr) + 1.0) + 1.0
        root = (math.sqrt(LN2**2 + 6.0 / slope) - LN2) / 3.0
        for a, e, v in zip(self.ORDERS.tolist(), eps.tolist(), vals.tolist()):
            cap = ub2_epsilon_max(a)
            assert e == pytest.approx(min(root, cap), rel=1e-12)
            # a geometric scan up to the cap, then a second one between the
            # neighbours of its best point; ub2 is convex in epsilon
            grid = np.geomspace(min(1e-6, cap / 2.0), cap, 10_001)
            scan = ub2(pr, a, grid)
            i = int(np.argmin(scan))
            fine = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 10_001)
            fine_scan = ub2(pr, a, fine)
            assert v <= min(scan.min(), fine_scan.min()) + 1e-9
            if root < cap:
                assert abs(e - fine[np.argmin(fine_scan)]) <= 1e-6

    def test_never_searches(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ub2 searched for its epsilon")

        monkeypatch.setattr("pfrsim.bounds.minimize_scalar", refuse)
        for pr in SCAN_PAIRS.values():
            optimize_ub(pr, self.ORDERS, "ub2")
            optimize_ub(pr, 0.9, "ub2")
        with pytest.raises(AssertionError):
            optimize_ub(NEAR, 0.9, "ub1")


class TestLimitAtOrderOne:
    """As alpha -> 1 the bounds reduce to their KL forms, those of Harsha et
    al.: lb1 -> D - log2 e - 1, lb2 -> D - log2 e and ub2 -> D + (1 + e2)
    log2(D + 1) + c2(e2), with D the KL divergence and e2 ub2's epsilon.

    On these pairs each bound is at most 1.45 (1 - alpha) from its limit,
    so 3 (1 - alpha) holds the gap; a closed form that loses
    1e-16 / (1 - alpha) near order 1 misses it from j = 9 on.
    """

    PAIRS = {
        "gauss_shift": NEAR,
        "laplace_shift": DistributionPair(Laplace(0, 1), Laplace(1, 1)),
        "laplace_nonmonotone": DistributionPair(Laplace(0, 1), Laplace(0.5, 2)),
        "finite": DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5))),
    }

    @pytest.mark.parametrize("j", range(6, 13))
    @pytest.mark.parametrize("name", PAIRS)
    def test_bounds_reach_their_kl_forms(self, name, j):
        pr = self.PAIRS[name]
        alpha = 1.0 - 10.0**-j
        d = kl_divergence(pr)
        tol = 3.0 * 10.0**-j + 1e-12
        assert lb1(pr, alpha) == pytest.approx(d - LOG2E - 1.0, rel=0, abs=tol)
        assert lb2(pr, alpha) == pytest.approx(d - LOG2E, rel=0, abs=tol)
        slope = math.log2(d + 1.0) + 1.0
        root = (math.sqrt(LN2**2 + 6.0 / slope) - LN2) / 3.0
        eps, value = optimize_ub(pr, alpha, "ub2")
        assert eps == pytest.approx(root, rel=1e-12)
        limit = d + (1.0 + root) * math.log2(d + 1.0) + c2(root)
        assert value == pytest.approx(limit, rel=0, abs=tol)


BATCH_PAIRS = [
    DistributionPair(Gaussian(0, 1), Gaussian(1, 1.5)),
    DistributionPair(Laplace(0, 1), Laplace(1, 2)),
    DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5))),
]
BATCH_IDS = ["gaussian", "laplace_unequal_scales", "finite"]


class TestBatchedBounds:
    @pytest.mark.parametrize("pr", BATCH_PAIRS, ids=BATCH_IDS)
    def test_optimize_rows_equal_single_orders(self, pr):
        for which, alphas in (
            ("ub1", np.linspace(0.06, 0.99, 11)),
            ("ub2", np.linspace(0.67, 0.99, 6)),
        ):
            eps, vals = optimize_ub(pr, alphas, which)
            assert eps.shape == vals.shape == alphas.shape
            for a, e, v in zip(alphas.tolist(), eps.tolist(), vals.tolist()):
                assert optimize_ub(pr, a, which) == (e, v)

    @pytest.mark.parametrize("pr", BATCH_PAIRS, ids=BATCH_IDS)
    def test_bounds_broadcast_with_scalar_bits(self, pr):
        # epsilons on both sides of c1's case split, which lies at 1.33 for
        # alpha = 0.7 and at 98 for alpha = 0.99
        alphas = np.linspace(0.7, 0.99, 5)
        eps = np.array([1e-3, 0.05, 0.4, 3.0, 30.0])
        capped = np.minimum(eps, ub2_epsilon_max(alphas)[:, None])
        a_list, e_list = alphas.tolist(), eps.tolist()
        assert lb1(pr, alphas).tolist() == [lb1(pr, a) for a in a_list]
        assert lb2(pr, alphas).tolist() == [lb2(pr, a) for a in a_list]
        assert c2(eps).tolist() == [c2(e) for e in e_list]
        grid = [[c1(a, e) for e in e_list] for a in a_list]
        assert c1(alphas[:, None], eps).tolist() == grid
        grid = [[ub1(pr, a, e) for e in e_list] for a in a_list]
        assert ub1(pr, alphas[:, None], eps).tolist() == grid
        grid = [[ub2(pr, a, e) for e in row] for a, row in zip(a_list, capped.tolist())]
        assert ub2(pr, alphas[:, None], capped).tolist() == grid

    def test_orders_checked_before_searching(self):
        with pytest.raises(OrderError):
            optimize_ub(NEAR, np.array([0.5, 1.2]), "ub1")
        with pytest.raises(OrderError):
            optimize_ub(NEAR, np.array([0.5, 0.9]), "ub2")


def _exact_search(pr: DistributionPair, alphas: np.ndarray):
    """ub1's epsilon search with ``_ub1`` itself as the objective: ln Gamma at every point."""
    column = alphas.reshape(-1, 1)
    lo, hi = (np.full(alphas.size, x) for x in _EPS_WINDOW)
    return minimize_scalar(lambda e: _ub1(pr, column, e), lo, hi)


def _same_bits(got, want) -> bool:
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


class TestUb1Search:
    """``optimize_ub``'s ub1 search takes ln Gamma only where a grid point can
    win, and keeps the bits of a search on the exact objective."""

    PAIRS = {
        **SCAN_PAIRS,
        "finite": DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5))),
        # +inf at every epsilon on most orders, at some epsilons near 0.995
        "N(0,10)|N(0,1)": DistributionPair(Gaussian(0, 10), Gaussian(0, 1)),
        # ub1 is c1 alone, whose minimum at alpha = 0.7 is its case kink 4/3
        "N(0,1)|N(0,1)": IDENT,
    }

    @pytest.mark.parametrize("name", PAIRS)
    def test_same_bits_as_the_exact_objective(self, name):
        pr = self.PAIRS[name]
        alphas = np.concatenate([default_alpha_grid(pr), [0.05, 0.5, 0.605, 0.7, 0.999]])
        assert _same_bits(optimize_ub(pr, alphas, "ub1"), _exact_search(pr, alphas))
        assert _same_bits(optimize_ub(pr, 0.7, "ub1"), _exact_search(pr, np.array([0.7])))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.one_of(st.floats(1e-12, 0.05), st.floats(0.95, 1.0, exclude_max=True)),
                 min_size=1, max_size=6),
        st.sampled_from(sorted(PAIRS)),
    )
    def test_same_bits_near_both_ends(self, orders, name):
        pr, alphas = self.PAIRS[name], np.array(orders)
        assert _same_bits(optimize_ub(pr, alphas, "ub1"), _exact_search(pr, alphas))

    def test_log_gamma_inside_the_widened_bracket(self, monkeypatch):
        x = np.geomspace(1.0, 1e7, 500_000)
        lg = np.array([math.lgamma(v) for v in x.tolist()])
        lower, upper = _log_gamma_bracket(x)
        assert np.all((lower <= lg) & (lg <= upper))
        # the slack is needed: the bare series misses lgamma's rounding
        monkeypatch.setattr(bounds, "_BRACKET_SLACK", 0.0)
        lower, upper = _log_gamma_bracket(x)
        assert not np.all((lower <= lg) & (lg <= upper))

    def test_grid_scan_takes_few_log_gammas(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(bounds, "log_gamma", lambda x: sizes.append(np.size(x)) or log_gamma(x))
        eps = np.linspace(*_EPS_WINDOW, _GRID_POINTS)
        for name in list(SCAN_PAIRS)[:6]:  # the golden pairs
            pr = SCAN_PAIRS[name]
            alphas = default_alpha_grid(pr)
            sizes.clear()
            optimize_ub(pr, alphas, "ub1")
            gamma_points = np.count_nonzero(alphas[:, None] * (2.0 + eps) <= 1.0 + eps)
            assert sizes[0] < 0.05 * gamma_points  # the grid scan is the objective's first call

    def test_soundness_family_is_one_search(self, monkeypatch):
        # the batched rows have the bits of nine one-pair searches, and
        # the family's lines are those of the per-pair optimize_ub calls
        alphas = np.linspace(0.25, 0.99, 8)
        eps, caps = _ub1_search([pr for _, pr in DEFAULT_PAIRS], alphas)
        want = []
        for (label, pr), e, row in zip(DEFAULT_PAIRS, eps, caps):
            single = optimize_ub(pr, alphas, "ub1")
            assert _same_bits(single, (e, row))
            floors = np.maximum(lb1(pr, alphas), lb2(pr, alphas))
            want += [
                CheckReport("soundness", label, a, f <= c + 1e-9, f"lb={f:.4f} ub={c:.4f}").line()
                for a, f, c in zip(alphas.tolist(), floors.tolist(), single[1].tolist())
            ]
        calls = []
        monkeypatch.setattr(bounds, "minimize_scalar",
                            lambda *args: calls.append(1) or minimize_scalar(*args))
        assert [r.line() for r in run_suite(only="soundness")] == want
        assert len(calls) == 1


class TestSweep:
    @pytest.mark.parametrize("grid", [[], (), np.array([]), iter(())], ids=["list", "tuple", "array", "iterator"])
    def test_empty_grid_gives_no_rows(self, grid):
        assert sweep(NEAR, grid) == []

    def test_identical_pair_single_row(self):
        rows = sweep(IDENT, [0.5])
        assert len(rows) == 1
        r = rows[0]
        assert r.lb1 < 0 and r.lb2 < 0
        assert math.isfinite(r.ub1)
        assert r.ub2 is None and r.ub2_eps is None

    def test_lb2_tighter_near_one_for_close_pair(self):
        rows = sweep(NEAR, [0.9, 0.95, 0.99])
        for r in rows:
            assert r.lb2 > r.lb1

    def test_laplacian_lb_crossover(self):
        # for equal-scale Laplacian pairs the second bound dominates except
        # at small alpha, where the order-1/alpha divergence term takes over
        pr = DistributionPair(Laplace(0, 1), Laplace(5, 1))
        rows = sweep(pr, np.linspace(0.05, 0.995, 20))
        for r in rows:
            if r.alpha >= 0.2:
                assert r.lb2 >= r.lb1 - 1e-9
        assert rows[0].lb1 > rows[0].lb2  # alpha = 0.05

    def test_soundness_on_every_row(self):
        for pr in (IDENT, NEAR, FAR, DistributionPair(Laplace(0, 1), Laplace(2, 1))):
            for r in sweep(pr, np.linspace(0.25, 0.99, 12)):
                assert r.lb_max <= r.ub1 + 1e-9

    def test_ub2_only_where_defined(self):
        just_above = math.nextafter(2.0 / 3.0, 1.0)
        rows = sweep(NEAR, [2.0 / 3.0, just_above, math.nextafter(just_above, 1.0), 0.9])
        assert [r.ub2 is None for r in rows] == [True, True, False, False]
        assert [r.ub2_eps is None for r in rows] == [True, True, False, False]

    def test_rows_sorted_by_alpha(self):
        rows = sweep(NEAR, [0.9, 0.3, 0.6])
        assert [r.alpha for r in rows] == [0.3, 0.6, 0.9]

    def test_default_grids(self):
        g = default_alpha_grid(NEAR)
        assert len(g) == 160 and g[0] == 0.2 and g[-1] == 0.995
        gl = default_alpha_grid(DistributionPair(Laplace(0, 1), Laplace(1, 1)))
        assert gl[0] == 0.05

    def test_boundset_soundness_guard(self):
        with pytest.raises(AssertionError):
            BoundSet(alpha=0.5, lb1=10.0, lb2=0.0, ub1=5.0, ub1_eps=1.0)

    def test_csv_schema(self):
        rows = sweep(NEAR, [0.5, 0.9])
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,lb1,lb2,lb_max,ub1,ub1_eps,ub2,ub2_eps"
        first = lines[1].split(",")
        assert len(first) == 8
        assert first[6] == "" and first[7] == ""  # no ub2 at alpha=0.5
        second = lines[2].split(",")
        assert second[6] != ""

    def test_csv_infinite_cells(self):
        pr = DistributionPair(Laplace(0, 2), Laplace(0, 1))
        rows = sweep(pr, [0.3])
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        assert "inf" in buf.getvalue()
