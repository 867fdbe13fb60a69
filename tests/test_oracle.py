import math
import tracemalloc

import numpy as np
import pytest

from pfrsim import oracle, pfr
from pfrsim.distributions import DistributionPair, Finite, Gaussian, renyi_divergence
from pfrsim.errors import DomainError
from pfrsim.oracle import (
    DEFAULT_PAIRS,
    MomentReport,
    run_suite,
    verify_draw,
    verify_geometric_moment,
    verify_lb_via_optimal_code,
    verify_log_moment,
    verify_moment_bounds,
)

MiB = 2**20


def _reference_moment(pair, alpha, n_samples, rng, permutation=None):
    """(empirical, std_error) of the whole-array moment check it replaced."""
    k, _ = pfr.sample_indices(pair, n_samples, rng)
    if permutation is not None:
        small = k <= len(permutation)
        k = k.copy()
        k[small] = permutation[k[small].astype(np.int64) - 1]
    x = k**alpha
    return float(np.mean(x)), float(np.std(x) / math.sqrt(n_samples))


def _reference_log_moment(pair, n_samples, rng):
    """(empirical, std_error) of the whole-array log-moment check it replaced."""
    k, _ = pfr.sample_indices(pair, n_samples, rng)
    logk = np.log2(k)
    return float(np.mean(logk)), float(np.std(logk) / math.sqrt(n_samples))


def _reference_geometric_moment(p, r, n_terms=10**6):
    """(moment_sum, tail_bound, bound) of the sum over all n_terms terms."""
    ks = np.arange(1, n_terms + 1, dtype=float)
    log_terms = r * np.log(ks) + math.log(p) + (ks - 1.0) * math.log1p(-p)
    moment = float(np.exp(log_terms).sum())
    rho = math.exp(r / (n_terms + 1.0)) * (1.0 - p)
    if rho < 1.0:
        log_next = r * math.log(n_terms + 1.0) + math.log(p) + n_terms * math.log1p(-p)
        tail = math.exp(log_next) / (1.0 - rho) if log_next > -745.0 else 0.0
    else:
        tail = math.inf
    bound = 2.0 ** (r - 1.0) * (math.exp(math.lgamma(r + 1.0) - r * math.log(p)) + 1.0)
    return moment, tail, bound


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMomentBounds:
    def test_identical_pair_band(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(0, 1))
        rep = verify_moment_bounds(pr, 0.5, 1000, np.random.default_rng(0))
        assert rep.empirical_moment == 1.0
        assert rep.floor == pytest.approx(1.0 / 1.5)
        assert rep.cap == pytest.approx(1.5)
        assert rep.passed

    def test_finite_pair(self):
        pr = DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))
        rep = verify_moment_bounds(pr, 0.5, 10**6, np.random.default_rng(1))
        assert rep.passed

    def test_gaussian_pair(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))
        rep = verify_moment_bounds(pr, 0.5, 10**6, np.random.default_rng(2))
        assert rep.passed

    def test_band_consistency_guard(self):
        with pytest.raises(DomainError):
            MomentReport(0.5, 1.0, 2.0, 1.0, 10, 0.1)

    # not a multiple of the sampler's block or of the relabel chunk
    N_PARTIAL = 3 * 2**15 + 7

    @pytest.mark.parametrize("label,pair", DEFAULT_PAIRS)
    def test_matches_whole_array_reference(self, label, pair):
        perm = np.random.default_rng(7).permutation(10**4) + 1
        for permutation in (None, perm):
            rep = verify_moment_bounds(
                pair, 0.5, self.N_PARTIAL, np.random.default_rng(11), permutation
            )
            emp, se = _reference_moment(
                pair, 0.5, self.N_PARTIAL, np.random.default_rng(11), permutation
            )
            assert (rep.empirical_moment, rep.std_error) == (emp, se)

    def test_permuted_peak_memory(self, monkeypatch):
        # the sampler's k and u are 16 MB; the whole-array version peaked at 31.5 MiB
        monkeypatch.setattr(pfr, "_helpers", lambda: 0)
        pair = DEFAULT_PAIRS[3][1]
        perm = np.random.default_rng(7).permutation(10**4) + 1
        peak = _peak_bytes(
            lambda: verify_moment_bounds(pair, 0.5, 10**6, np.random.default_rng(0), perm)
        )
        assert peak <= 20 * MiB


class TestLogMoment:
    def test_identical_pair(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(0, 1))
        rep = verify_log_moment(pr, 1000, np.random.default_rng(0))
        assert rep.empirical == 0.0
        assert rep.bound == 1.0
        assert rep.passed

    def test_near_gaussian_pair(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))
        rep = verify_log_moment(pr, 10**6, np.random.default_rng(3))
        assert rep.passed

    def test_heavy_pair_via_exact_sampler(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(5, 1))
        rep = verify_log_moment(pr, 10**4, np.random.default_rng(4))
        assert rep.bound == pytest.approx(12.5 / math.log(2) + 1.0)
        assert rep.passed

    @pytest.mark.parametrize("label,pair", DEFAULT_PAIRS)
    def test_matches_whole_array_reference(self, label, pair):
        n = TestMomentBounds.N_PARTIAL
        rep = verify_log_moment(pair, n, np.random.default_rng(12))
        emp, se = _reference_log_moment(pair, n, np.random.default_rng(12))
        assert (rep.empirical, rep.std_error) == (emp, se)

    def test_peak_memory(self, monkeypatch):
        monkeypatch.setattr(pfr, "_helpers", lambda: 0)
        pair = DEFAULT_PAIRS[3][1]
        peak = _peak_bytes(lambda: verify_log_moment(pair, 10**6, np.random.default_rng(0)))
        assert peak <= 20 * MiB


class TestDraw:
    @pytest.mark.parametrize("label,pair", DEFAULT_PAIRS)
    def test_matches_whole_array_reference(self, label, pair):
        # every statistic of the one draw has the bits of its own reference
        n = TestMomentBounds.N_PARTIAL
        perm = np.random.default_rng(7).permutation(10**4) + 1
        for permutation in (None, perm):
            log_rep, rep, permuted = verify_draw(
                pair, 0.5, n, np.random.default_rng(13), permutation
            )
            want = _reference_log_moment(pair, n, np.random.default_rng(13))
            assert (log_rep.empirical, log_rep.std_error) == want
            want = _reference_moment(pair, 0.5, n, np.random.default_rng(13))
            assert (rep.empirical_moment, rep.std_error) == want
            if permutation is None:
                assert permuted is None
                continue
            want = _reference_moment(pair, 0.5, n, np.random.default_rng(13), permutation)
            assert (permuted.empirical_moment, permuted.std_error) == want

    def test_peak_memory(self, monkeypatch):
        # the sampler's k and u are 16 MB, and every statistic reuses them
        monkeypatch.setattr(pfr, "_helpers", lambda: 0)
        pair = DEFAULT_PAIRS[3][1]
        perm = np.random.default_rng(7).permutation(10**4) + 1
        peak = _peak_bytes(
            lambda: verify_draw(pair, 0.5, 10**6, np.random.default_rng(0), perm)
        )
        assert peak <= 20 * MiB


class TestGeometricMoment:
    def test_r_one_hand_values(self):
        rep = verify_geometric_moment(0.5, 1.0)
        assert rep.moment_sum + rep.tail_bound == pytest.approx(2.0, rel=1e-9)
        assert rep.bound == pytest.approx(3.0)
        assert rep.passed

    def test_r_two_hand_values(self):
        rep = verify_geometric_moment(0.5, 2.0)
        # E[X^2] = (2-p)/p^2 = 6
        assert rep.moment_sum + rep.tail_bound == pytest.approx(6.0, rel=1e-9)
        assert rep.bound == pytest.approx(18.0)
        assert rep.passed

    def test_fractional_order_small_p(self):
        rep = verify_geometric_moment(0.1, 2.5)
        assert rep.passed

    def test_grid(self):
        for p in (0.1, 0.5, 0.9):
            for r in (1.0, 1.5, 2.0, 3.0):
                assert verify_geometric_moment(p, r).passed, (p, r)

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_geometric_moment(0.0, 2.0)
        with pytest.raises(DomainError):
            verify_geometric_moment(0.5, 0.5)
        for n_terms in (-1, 0, 2.5, 3.0):
            with pytest.raises(DomainError):
                verify_geometric_moment(0.5, 2.0, n_terms=n_terms)

    @pytest.mark.parametrize(
        "p,r,n_terms",
        [(p, r, 10**6) for p in (0.1, 0.5, 0.9) for r in (1.0, 1.5, 2.0, 3.0)]
        # nothing underflows within 10**6 terms, so the tail is nonzero
        + [(1e-4, 3.0, 10**6)]
        # fewer terms than the underflow cutoff (about 7,300)
        + [(0.1, 3.0, 1000)],
    )
    def test_matches_full_sum(self, p, r, n_terms):
        rep = verify_geometric_moment(p, r, n_terms)
        moment, tail, bound = _reference_geometric_moment(p, r, n_terms)
        assert (rep.n_terms, rep.tail_bound, rep.bound) == (n_terms, tail, bound)
        assert rep.passed == (moment + tail <= bound * (1.0 + 1e-12))
        # skipping the zero terms changes numpy's pairwise summation order
        assert rep.moment_sum == pytest.approx(moment, rel=1e-15, abs=0.0)
        if p == 1e-4:
            assert tail > 0.0

    @pytest.mark.parametrize("p,r", [(1e-100, 4.0), (1e-200, 4.0), (1e-310, 1.0)])
    def test_overflowing_cap_is_infinite(self, p, r):
        # Gamma(r+1)/p^r exceeds the double range: the cap is +inf, as other
        # divergent bounds are, and the check passes
        rep = verify_geometric_moment(p, r)
        assert rep.bound == math.inf
        assert math.isfinite(rep.moment_sum)
        assert rep.passed

    def test_peak_memory(self):
        # the full 10**6-term sum peaked at 22.9 MiB
        assert _peak_bytes(lambda: verify_geometric_moment(0.1, 3.0)) < MiB


class TestCodeLowerBound:
    def test_identical_two_symbol_pair(self):
        pr = DistributionPair(Finite((0.5, 0.5)), Finite((0.5, 0.5)))
        reports = verify_lb_via_optimal_code(pr)
        assert all(r.passed for r in reports)

    def test_skewed_pair(self):
        pr = DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))
        assert all(r.passed for r in verify_lb_via_optimal_code(pr))

    def test_large_divergence_pair(self):
        pr = DistributionPair(Finite((0.99, 0.01)), Finite((0.01, 0.99)))
        assert all(r.passed for r in verify_lb_via_optimal_code(pr, (0.5,)))

    def test_rejects_continuous_pair(self):
        with pytest.raises(DomainError):
            verify_lb_via_optimal_code(DistributionPair(Gaussian(0, 1), Gaussian(1, 1)))

    def test_rejects_a_law_with_more_than_dust_in_the_tail(self):
        # 2*10**6 indices leave a tail of 0.335, and the truncated costs fall
        # below the floor with no code at fault
        pr = DistributionPair(Finite((0.5, 0.5)), Finite((1 - 1e-7, 1e-7)))
        with pytest.raises(DomainError, match="tail mass 0.335"):
            verify_lb_via_optimal_code(pr)


class TestSuite:
    def test_full_suite_passes(self):
        reports = run_suite(seed=42, n_samples=10**5)
        failures = [r.line() for r in reports if not r.passed]
        assert not failures, "\n".join(failures)

    def test_one_draw_per_pair(self, monkeypatch):
        calls = []

        def counted(pair, n, rng):
            calls.append(n)
            return pfr.sample_indices(pair, n, rng)

        monkeypatch.setattr(oracle, "sample_indices", counted)
        run_suite(seed=3, n_samples=1000)
        assert calls == [1000] * len(DEFAULT_PAIRS)

    @pytest.mark.parametrize("only", ["moments", "logmoment"])
    def test_family_alone_matches_full_suite(self, only):
        # each family reads the full suite's streams, so its rows keep their bits
        full = [r for r in run_suite(seed=5, n_samples=10**4) if r.check == only]
        assert run_suite(seed=5, n_samples=10**4, only=only) == full
        assert len(full) == len(DEFAULT_PAIRS) + (only == "moments")

    def test_only_filter(self):
        reports = run_suite(seed=42, only="geometric")
        assert {r.check for r in reports} == {"geometric"}
        assert len(reports) == 12

    def test_corrupted_constant_fails_soundness(self):
        reports = run_suite(seed=42, only="soundness", c1_offset=-8.0)
        assert any(not r.passed for r in reports)

    def test_unknown_filter_rejected(self):
        with pytest.raises(DomainError):
            run_suite(only="nonsense")

    def test_band_matches_scalar_orders(self):
        reports = run_suite(seed=42, only="band")
        for (_, pair), rep in zip(DEFAULT_PAIRS, reports):
            worst = math.inf
            for alpha in np.linspace(0.05, 0.95, 19):
                scale = 2.0 ** (alpha * renyi_divergence(pair, alpha + 1.0))
                worst = min(worst, scale + alpha - scale / (1.0 + alpha))
            assert rep.details == f"min_width={worst:.4g}"

    def test_report_lines_format(self):
        reports = run_suite(seed=42, only="band")
        for r in reports:
            line = r.line()
            assert line.startswith(("PASS", "FAIL"))
            assert r.check in line
