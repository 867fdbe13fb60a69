import io
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pfrsim.distributions import DistributionPair, Finite, Gaussian, Laplace
from pfrsim.errors import (
    DomainError,
    IndexOverflowError,
    IterationCapError,
    NegativeTailError,
    NonConvergenceError,
)
from pfrsim.numerics import QuadratureSpec, integrate
from pfrsim.oracle import DEFAULT_PAIRS
from pfrsim import pfr
from pfrsim.pfr import (
    _BATCH_STREAMS,
    _BLOCK,
    IndexPmf,
    PfrOutcome,
    _chunk_streams,
    derive_stream,
    index_pmf,
    log_beta,
    run_pfr,
    run_pfr_many,
    sample_indices,
)

STD_PAIR = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))

#: Reference tolerance for the quadrature cross-checks of the closed form.
TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)

#: (pair, evaluation points): monotone ratios in both directions, bounded
#: and unbounded non-monotone ratios of both continuous kinds, and the
#: identical pair.
CROSS_CHECK_CASES = {
    "normal_0_1-normal_1_1": (STD_PAIR, (-3.0, -1.0, 0.0, 1.5, 4.0)),
    "normal_1_1-normal_0_1": (
        DistributionPair(Gaussian(1, 1), Gaussian(0, 1)), (-2.0, 0.0, 0.5, 3.0)
    ),
    "laplace_0_1-laplace_2_1": (
        DistributionPair(Laplace(0, 1), Laplace(2, 1)), (-1.0, 0.0, 1.0, 2.5)
    ),
    "normal_0_1-normal_0.5_1.6": (
        DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
        (-3.0, -0.8, 0.0, 0.2, 1.0, 4.0),
    ),
    "normal_0_2-normal_0_1": (
        DistributionPair(Gaussian(0, 2), Gaussian(0, 1)), (-5.0, -1.0, 0.0, 0.3, 2.0)
    ),
    "laplace_0_1-laplace_0.5_2": (
        DistributionPair(Laplace(0, 1), Laplace(0.5, 2)),
        (-3.0, -0.5, 0.0, 0.25, 0.5, 1.0, 4.0),
    ),
    "laplace_0_3-laplace_0_1": (
        DistributionPair(Laplace(0, 3), Laplace(0, 1)), (-4.0, -1.0, 0.0, 0.5, 3.0)
    ),
    "laplace_1_2-laplace_0_1": (
        DistributionPair(Laplace(1, 2), Laplace(0, 1)),
        (-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0),
    ),
    "normal_0_1-normal_0_1": (
        DistributionPair(Gaussian(0, 1), Gaussian(0, 1)), (-2.0, 0.0, 1.0)
    ),
}


def _log_beta_quadrature(pair: DistributionPair, u: float, spec: QuadratureSpec) -> float:
    """log beta(u) = -log E_Q max{r(u), r(U)} by quadrature, a reference for ``log_beta``."""
    log_ru = float(pair.log_ratio(u))

    def integrand(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf raises NonFiniteError
            return np.exp(np.maximum(pair.log_ratio(x), log_ru) + pair.q.log_density(x))

    return -math.log(integrate(integrand, spec))


class TestBeta:
    def test_identical_pair_is_one(self):
        assert math.exp(log_beta(DistributionPair(Gaussian(0, 1), Gaussian(0, 1)), 2.3)) == 1.0

    def test_hand_value_at_zero(self):
        phi1 = 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
        expect = 1.0 / (0.5 + math.exp(0.5) * phi1)
        assert math.exp(log_beta(STD_PAIR, 0.0)) == pytest.approx(expect, rel=1e-12)
        assert math.exp(log_beta(STD_PAIR, 0.0)) == pytest.approx(0.5299, abs=2e-4)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(42)
        x = Gaussian(1, 1).sample(rng, 10**6)
        r = np.exp(STD_PAIR.log_ratio(x))
        r0 = math.exp(float(STD_PAIR.log_ratio(0.0)))
        mc = 1.0 / float(np.mean(np.maximum(r, r0)))
        assert math.exp(log_beta(STD_PAIR, 0.0)) == pytest.approx(mc, rel=5e-3)

    def test_finite_identical(self):
        pr = DistributionPair(Finite((0.5, 0.5)), Finite((0.5, 0.5)))
        assert math.exp(log_beta(pr, 0)) == 1.0
        assert math.exp(log_beta(pr, 1)) == 1.0

    def test_finite_matches_brute_force(self):
        # ratios 2, 0, 2/3, 2/3, 2: two tie groups and a point P never hits
        p = (0.2, 0.0, 0.2, 0.2, 0.4)
        q = (0.1, 0.1, 0.3, 0.3, 0.2)
        pr = DistributionPair(Finite(p), Finite(q))
        r = np.array(p) / np.array(q)
        support = np.arange(len(p))
        expected = [-math.log(float(np.dot(q, np.maximum(r[i], r)))) for i in support]
        got = np.asarray(log_beta(pr, support), dtype=float)
        assert got == pytest.approx(expected, abs=1e-14)
        assert float(log_beta(pr, 3)) == pytest.approx(expected[3], abs=1e-14)

    @pytest.mark.parametrize("case", list(CROSS_CHECK_CASES))
    def test_closed_form_matches_quadrature(self, case):
        pr, us = CROSS_CHECK_CASES[case]
        closed = np.asarray(log_beta(pr, np.array(us)), dtype=float)
        for u, value in zip(us, closed):
            assert float(log_beta(pr, u)) == pytest.approx(value, abs=1e-14)
            assert value == pytest.approx(_log_beta_quadrature(pr, u, TIGHT), abs=1e-8)

    def test_nonmonotone_pair_matches_monte_carlo(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(0, 2))
        val = math.exp(log_beta(pr, 0.0))
        assert 0.0 < val <= 1.0
        rng = np.random.default_rng(3)
        x = Gaussian(0, 2).sample(rng, 10**6)
        r = np.exp(pr.log_ratio(x))
        r0 = math.exp(float(pr.log_ratio(0.0)))
        mc = 1.0 / float(np.mean(np.maximum(r, r0)))
        assert val == pytest.approx(mc, rel=5e-3)


class TestRunPfr:
    def test_identical_pair_returns_first_index(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = run_pfr(DistributionPair(Gaussian(2, 1), Gaussian(2, 1)), rng)
            assert out.index == 1
            assert out.termination == "exact"

    def test_degenerate_finite_accepts_support_zero(self):
        pr = DistributionPair(Finite((1.0, 0.0)), Finite((0.5, 0.5)))
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = run_pfr(pr, rng)
            assert out.accepted == 0
            assert out.termination == "exact"

    def test_bounded_ratio_terminates_exactly(self):
        pr = DistributionPair(Laplace(0, 1), Laplace(2, 1))
        rng = np.random.default_rng(2)
        out = run_pfr(pr, rng)
        assert out.termination == "exact"

    def test_unbounded_ratio_reports_delta(self):
        rng = np.random.default_rng(3)
        out = run_pfr(STD_PAIR, rng, delta=1e-6)
        assert out.termination == "approximate"
        assert out.delta == 1e-6

    def test_accepted_samples_pass_ks(self):
        rng = np.random.default_rng(7)
        n = 20000
        vals = np.array([run_pfr(STD_PAIR, rng, delta=1e-8).accepted for _ in range(n)])
        res = stats.kstest(vals, "norm")
        assert res.pvalue > 0.01

    def test_deterministic_under_seed(self):
        a = run_pfr(STD_PAIR, np.random.default_rng(11), delta=1e-6)
        b = run_pfr(STD_PAIR, np.random.default_rng(11), delta=1e-6)
        assert a == b

    def test_iteration_cap(self):
        rng = np.random.default_rng(5)
        with pytest.raises(IterationCapError):
            run_pfr(STD_PAIR, rng, delta=1e-300, max_candidates=2000)

    def test_delta_validation(self):
        # an infinite delta stopped after the first 64 candidates, with
        # termination "approximate": the argmin of those, a biased law
        bounded = DistributionPair(Laplace(0, 1), Laplace(1, 1))
        for pr, delta in itertools.product((STD_PAIR, bounded), (0.0, -1e-6, math.inf, math.nan)):
            with pytest.raises(DomainError, match="delta"):
                run_pfr(pr, np.random.default_rng(0), delta=delta)

    def test_index_does_not_depend_on_delta(self):
        # a smaller delta only runs longer; the argmin it returns is the same
        for i in range(1000):
            loose = run_pfr(STD_PAIR, derive_stream(5, i), delta=1e-6)
            tight = run_pfr(STD_PAIR, derive_stream(5, i), delta=1e-12)
            assert (loose.index, loose.accepted) == (tight.index, tight.accepted)
            assert loose.candidates_examined <= tight.candidates_examined

    @pytest.mark.parametrize(
        "pr",
        [
            DistributionPair(Gaussian(0, 2), Gaussian(0, 1)),
            DistributionPair(Laplace(0, 3), Laplace(0, 1)),
        ],
        ids=["normal_0_2-normal_0_1", "laplace_0_3-laplace_0_1"],
    )
    def test_no_finite_ratio_moment_rejected_up_front(self, pr):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            run_pfr(pr, rng)
        assert rng.bit_generator.state == state


def _reference_sample(law, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of ``law``: the generator calls and arithmetic of ``law.sample``, written out."""
    if isinstance(law, Gaussian):
        return law.mu + law.sigma * rng.standard_normal(n)
    if isinstance(law, Laplace):
        c = rng.random(n) - 0.5
        mag = np.maximum(1.0 - 2.0 * np.abs(c), 5e-324)
        return law.theta - law.lam * np.sign(c) * np.log(mag)
    idx = np.searchsorted(np.cumsum(law.probs), rng.random(n), side="right")
    return np.minimum(idx, len(law.probs) - 1)


def _reference_run_pfr(
    pair: DistributionPair,
    rng: np.random.Generator,
    delta: float = 1e-6,
    max_candidates: int = 10**8,
) -> PfrOutcome:
    """The selection rule for one sample as a plain scalar loop, a reference for ``run_pfr``.

    Same draws, blocks and stop tests, written with ``pair.log_ratio``,
    ``pair.superlevel_masses`` and Python floats for the running state.
    """
    log_rmax = pair.log_ratio_sup()
    exact = math.isfinite(log_rmax)
    t_last = 0.0
    best_score = math.inf  # natural log of min T_i / r(U_i)
    best_index = 0
    best_u: float | int = 0
    n = 0
    block = 64
    while True:
        if n >= max_candidates:
            raise IterationCapError(f"no stopping decision after {n} candidates")
        b = min(block, max_candidates - n)
        times = t_last + np.cumsum(rng.exponential(size=b))
        t_last = float(times[-1])
        us = _reference_sample(pair.q, rng, b)
        scores = np.log(times) - np.asarray(pair.log_ratio(us), dtype=float)
        i = int(np.argmin(scores))
        if float(scores[i]) < best_score:
            best_score = float(scores[i])
            best_index = n + i + 1
            best_u = int(us[i]) if pair.is_finite_kind else float(us[i])
        n += b
        block = min(block * 2, 8192)
        log_t = math.log(t_last)
        if exact:
            if log_t - log_rmax >= best_score:
                return PfrOutcome(best_index, best_u, n, "exact")
        else:
            # the expected number of later improvements is at most delta
            log_p, log_q = pair.superlevel_masses(log_t - best_score)
            if best_score + log_p <= np.logaddexp(math.log(delta), log_t + log_q):
                return PfrOutcome(best_index, best_u, n, "approximate", delta)


#: (pair, run_pfr options): the delta rule, a bounded monotone ratio, a
#: bounded non-monotone one, a finite pair with a point P never hits, the
#: identical pair, and the iteration cap hit on some streams and on all.
BATCH_CASES = {
    "normal_0_1-normal_1_1": (STD_PAIR, {"delta": 1e-8}),
    "laplace_0_1-laplace_1_1": (DistributionPair(Laplace(0, 1), Laplace(1, 1)), {}),
    "normal_0_1-normal_0.5_1.6": (DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6)), {}),
    "finite_zero_point": (
        DistributionPair(Finite((0.5, 0.0, 0.3, 0.2)), Finite((0.2, 0.3, 0.1, 0.4))), {}
    ),
    "identical": (DistributionPair(Gaussian(2, 1), Gaussian(2, 1)), {}),
    "partly_capped": (STD_PAIR, {"delta": 1e-8, "max_candidates": 1000}),
    "capped": (STD_PAIR, {"delta": 1e-300, "max_candidates": 2000}),
}


def _outcome_or_cap(run, pair, rng, options) -> PfrOutcome | str:
    try:
        return run(pair, rng, **options)
    except IterationCapError as exc:
        return str(exc)


class TestRunPfrMany:
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_matches_run_pfr(self, case):
        # more streams than one batch holds, so a batch boundary is crossed;
        # entry i, run_pfr on stream i and the reference loop all agree
        pr, options = BATCH_CASES[case]
        n = _BATCH_STREAMS + 40
        got = run_pfr_many(pr, 9, n, **options)
        for i in range(n):
            ref = _outcome_or_cap(_reference_run_pfr, pr, derive_stream(9, i), options)
            assert _outcome_or_cap(run_pfr, pr, derive_stream(9, i), options) == ref, f"stream {i}"
            if isinstance(ref, str):
                assert got.capped[i] and got.index[i] == 0, f"stream {i}"
                continue
            assert not got.capped[i], f"stream {i}"
            assert (
                got.index[i], got.accepted[i], got.candidates_examined[i],
                got.termination, got.delta,
            ) == (
                ref.index, ref.accepted, ref.candidates_examined,
                ref.termination, ref.delta,
            ), f"stream {i}"

    @pytest.mark.parametrize(
        "pr, delta",
        [
            (DistributionPair(Gaussian(0, 2), Gaussian(0, 1)), 1e-6),
            (DistributionPair(Laplace(0, 3), Laplace(0, 1)), 1e-6),
            (STD_PAIR, 0.0),
            (STD_PAIR, -1e-6),
        ],
        ids=["normal_0_2-normal_0_1", "laplace_0_3-laplace_0_1", "delta_zero", "delta_negative"],
    )
    def test_rejected_up_front(self, pr, delta):
        with pytest.raises(DomainError):
            run_pfr_many(pr, 0, 10, delta=delta)

    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_shared_generator_matches_reference(self, case):
        # successive draws on one generator: each run_pfr call consumes
        # exactly the draws of the reference loop, capped runs included
        pr, options = BATCH_CASES[case]
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for k in range(1000):
            assert _outcome_or_cap(run_pfr, pr, rng, options) == _outcome_or_cap(
                _reference_run_pfr, pr, ref_rng, options
            ), f"draw {k}"
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_stream_count(self):
        out = run_pfr_many(STD_PAIR, 0, 0)
        assert out.index.shape == out.accepted.shape == out.capped.shape == (0,)
        with pytest.raises(DomainError):
            run_pfr_many(STD_PAIR, 0, -1)
        with pytest.raises(DomainError):
            run_pfr_many(STD_PAIR, -1, 3)
        with pytest.raises(DomainError):
            derive_stream(-5, 0)

    @pytest.mark.parametrize(
        "root",
        [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128 + 3, 2**200 + 12345],
        ids=["zero", "1_word", "2_words", "3_words", "4_words", "5_words", "7_words"],
    )
    def test_chunk_streams_are_numpys(self, root):
        # chunked as run_pfr_many chunks them; default_rng runs numpy's own
        # SeedSequence, an independent reference for every seed word count
        n = _BATCH_STREAMS + 40
        rngs = [
            rng
            for start in range(0, n, _BATCH_STREAMS)
            for rng in _chunk_streams(root, start, min(start + _BATCH_STREAMS, n))
        ]
        assert len(rngs) == n
        # and where i itself takes a second word
        high = range(2**32 - 3, 2**32 + 3)
        for i, rng in [*enumerate(rngs), *zip(high, _chunk_streams(root, high[0], high[-1] + 1))]:
            ref = np.random.default_rng(root ^ i)
            assert rng.bit_generator.state == ref.bit_generator.state, f"stream {i}"


def _reference_sample_indices(
    pair: DistributionPair, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The exact sampler in one pass over all n points, a reference for ``sample_indices``.

    Same generator calls and arithmetic; log(1 - beta) is floored at
    -1e300 by a select on -inf.
    """
    u = pair.p.sample(rng, n)
    lb = np.asarray(log_beta(pair, u), dtype=float)
    v = 1.0 - rng.random(n)
    with np.errstate(divide="ignore"):
        log1m = np.log1p(-np.exp(np.minimum(lb, 0.0)))
    log1m = np.where(np.isneginf(log1m), -1e300, log1m)
    if np.any(log1m == 0.0):
        raise IndexOverflowError("beta underflows double precision")
    with np.errstate(over="ignore"):
        k = np.ceil(np.log(v) / log1m)
    if np.any(k >= 2.0**64):
        raise IndexOverflowError("a geometric index exceeds the unsigned 64-bit range")
    return np.maximum(k, 1.0), np.asarray(u, dtype=float)


#: Pairs of every kind for the exact sampler: monotone and non-monotone
#: ratios of both continuous kinds, and a finite pair with a point P never hits.
EXACT_CASES = {
    "normal_0_1-normal_1_1": STD_PAIR,
    "normal_0_1-normal_0.5_1.6": DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6)),
    "laplace_0_1-laplace_1_1": DistributionPair(Laplace(0, 1), Laplace(1, 1)),
    "laplace_0_1-laplace_0.5_2": DistributionPair(Laplace(0, 1), Laplace(0.5, 2)),
    "finite_zero_point": BATCH_CASES["finite_zero_point"][0],
}

#: Draw counts around the block size: none, one, one block short, full or
#: just over, and several blocks with a partial last one.
EXACT_SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def _block_threads():
    """The exact sampler's helper threads alive now."""
    return [t for t in threading.enumerate() if t.name.startswith("pfrsim-block")]


def _assert_same_draws(got, ref, rng, ref_rng):
    (k, u), (ref_k, ref_u) = got, ref
    assert k.dtype == u.dtype == np.float64
    np.testing.assert_array_equal(k, ref_k)
    np.testing.assert_array_equal(u, ref_u)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampleIndexExact:
    @pytest.mark.parametrize("n", EXACT_SIZES)
    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_matches_reference(self, case, n, monkeypatch):
        # the same bits and generator state with the pool's helpers and
        # with the caller's thread alone
        pr = EXACT_CASES[case]
        ref_rng = np.random.default_rng(n)
        ref = _reference_sample_indices(pr, n, ref_rng)
        rng = np.random.default_rng(n)
        _assert_same_draws(sample_indices(pr, n, rng), ref, rng, ref_rng)
        monkeypatch.setattr(pfr, "_helpers", lambda: 0)
        rng = np.random.default_rng(n)
        _assert_same_draws(sample_indices(pr, n, rng), ref, rng, ref_rng)

    @pytest.mark.parametrize("fail_in", [None, "fill", "run_block", "finish"])
    def test_blocks_over_more_threads_than_cores(self, fail_in, monkeypatch):
        # seven helpers and a short switch interval: every block runs at
        # most once, on a helper, all of them when none fails, and a block
        # runs only once filled; on return or raise, a failing stage's
        # exception has reached the caller, no block is running and no
        # helper thread is left
        monkeypatch.setattr(pfr, "_helpers", lambda: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller, lock = threading.current_thread(), threading.Lock()
            taken, running, filled = [], [0], set()

            def fail(stage, i):
                if stage == fail_in and i == 75:
                    raise ValueError(f"block {i}")

            def fill(i):
                fail("fill", i)
                filled.add(i)

            def run_block(i):
                with lock:
                    running[0] += 1
                taken.append((i, threading.current_thread(), i in filled))
                time.sleep(1e-4)
                with lock:
                    running[0] -= 1
                fail("run_block", i)

            def finish(i):
                fail("finish", i)

            if fail_in is not None:
                with pytest.raises(ValueError, match="^block 75$"):
                    pfr._run_blocks(151, fill, run_block, finish)
            else:
                pfr._run_blocks(151, fill, run_block, finish)
            blocks = [i for i, _, _ in taken]
            assert len(set(blocks)) == len(blocks) and running[0] == 0
            assert all(thread is not caller and was_filled for _, thread, was_filled in taken)
            assert not _block_threads()
            if fail_in is not None:
                assert (75 in blocks) == (fail_in != "fill")
                return
            assert sorted(blocks) == list(range(151))
            # the sampler over many small blocks
            monkeypatch.setattr(pfr, "_BLOCK", 64)
            n = 150 * 64 + 5
            for pr in EXACT_CASES.values():
                ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
                ref = _reference_sample_indices(pr, n, ref_rng)
                _assert_same_draws(sample_indices(pr, n, rng), ref, rng, ref_rng)
            assert not _block_threads()
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_run_between_their_fill_and_finish(self, monkeypatch):
        # a block is taken only once filled, every fill comes first, and
        # each finish follows its block's run, in order, on the caller's thread
        monkeypatch.setattr(pfr, "_helpers", lambda: 3)
        caller, events = threading.current_thread(), []

        def fill(i):
            assert threading.current_thread() is caller
            time.sleep(1e-4)
            events.append(("fill", i))

        def run_block(i):
            events.append(("run", i))
            time.sleep(1e-4)
            events.append(("ran", i))

        def finish(i):
            assert threading.current_thread() is caller
            events.append(("finish", i))

        pfr._run_blocks(40, fill, run_block, finish)
        at = {event: j for j, event in enumerate(events)}
        assert len(at) == len(events) == 4 * 40
        fills = [at["fill", i] for i in range(40)]
        finishes = [at["finish", i] for i in range(40)]
        assert fills == sorted(fills) and finishes == sorted(finishes)
        assert max(fills) < min(finishes)
        for i in range(40):
            assert at["fill", i] < at["run", i] < at["ran", i] < at["finish", i]

    @pytest.mark.parametrize("fails", ["raw", "transform"])
    def test_failure_leaves_no_helper_waiting(self, fails, monkeypatch):
        # a law whose raw draw (on the caller's thread) or transform (on a
        # helper) raises in its third block: the error reaches the caller,
        # no helper thread is left, and the next call matches the
        # reference.  The raw draw fails late, once the helpers have run
        # the two blocks drawn.
        calls = itertools.count(1)

        class Failing(Gaussian):
            def raw(self, rng, out):
                if fails == "raw" and next(calls) == 3:
                    time.sleep(0.2)
                    raise ValueError("failed draw")
                return rng.standard_normal(out=out)

            def transform(self, z):
                if fails == "transform" and next(calls) == 3:
                    raise ValueError("failed draw")
                return super().transform(z)

        errors = []
        monkeypatch.setattr(pfr, "_helpers", lambda: 2)
        pr = DistributionPair(Failing(0, 1), Failing(1, 1))

        def call():
            try:
                sample_indices(pr, 6 * _BLOCK + 5, np.random.default_rng(0))
            except ValueError as exc:
                errors.append(exc)

        # on a thread of its own, so that a hang fails the test
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert [str(e) for e in errors] == ["failed draw"]
        assert not _block_threads()
        n = 3 * _BLOCK + 7
        ref_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        ref = _reference_sample_indices(STD_PAIR, n, ref_rng)
        _assert_same_draws(sample_indices(STD_PAIR, n, rng), ref, rng, ref_rng)

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_memory_stays_within_the_outputs_and_a_few_blocks(self, case, monkeypatch):
        # beyond the two returned arrays, each of the caller's thread and
        # one helper holds a dozen blocks at most, and the uniforms one
        monkeypatch.setattr(pfr, "_helpers", lambda: 1)
        pr, n, block_bytes = EXACT_CASES[case], 2**20, 8 * _BLOCK
        sample_indices(pr, 2 * _BLOCK, np.random.default_rng(0))  # imports, caches
        tracemalloc.start()
        try:
            sample_indices(pr, n, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n + (2 * 12 + 1) * block_bytes

    def test_caller_error_state_is_ignored(self):
        # the blocks run under the sampler's own error state, whichever
        # thread runs them: a caller's "raise" changes no draw, and exp's
        # underflow at mean 40 still ends in the sampler's own error
        n = 2 * _BLOCK + 3
        for pr in EXACT_CASES.values():
            ref_rng = np.random.default_rng(5)
            ref = _reference_sample_indices(pr, n, ref_rng)
            rng = np.random.default_rng(5)
            with np.errstate(all="raise"):
                got = sample_indices(pr, n, rng)
            _assert_same_draws(got, ref, rng, ref_rng)
        far = DistributionPair(Gaussian(0, 1), Gaussian(40, 1))
        with np.errstate(all="raise"), pytest.raises(IndexOverflowError, match="underflows"):
            sample_indices(far, n, np.random.default_rng(5))

    def test_negative_count_rejected(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="n must be"):
            sample_indices(STD_PAIR, -1, rng)
        assert rng.bit_generator.state == state

    def test_two_callers_with_a_pool_each(self, monkeypatch):
        # two threads sample different pairs at once, 20 calls each, each
        # call over its own one-helper pool: each call gets the draws it
        # gets with no pool
        cases = [(STD_PAIR, 2**32 + 7), (EXACT_CASES["finite_zero_point"], 1)]
        n = 3 * _BLOCK + 7
        monkeypatch.setattr(pfr, "_helpers", lambda: 0)
        refs = [
            [sample_indices(pr, n, np.random.default_rng(seed + call)) for call in range(20)]
            for pr, seed in cases
        ]
        monkeypatch.setattr(pfr, "_helpers", lambda: 1)
        matched, start = [[], []], threading.Barrier(len(cases))

        def call(c):
            (pr, seed), ref = cases[c], refs[c]
            start.wait(10)
            for j in range(20):
                k, u = sample_indices(pr, n, np.random.default_rng(seed + j))
                matched[c].append(np.array_equal(k, ref[j][0]) and np.array_equal(u, ref[j][1]))

        callers = [threading.Thread(target=call, args=(c,), daemon=True) for c in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        assert not any(t.is_alive() for t in callers)
        assert matched == [[True] * 20] * 2

    def test_identical_pair_always_one(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(0, 1))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_indices(pr, 1, rng)[0][0] == 1

    def test_log_index_bound_heavy_pair(self):
        # mean log2(K) stays below the divergence-plus-one bound
        pr = DistributionPair(Gaussian(0, 1), Gaussian(5, 1))
        rng = np.random.default_rng(4)
        k, _ = sample_indices(pr, 10**4, rng)
        logk = np.log2(k)
        bound = 12.5 / math.log(2.0) + 1.0  # KL in bits + 1
        assert float(np.mean(logk)) <= bound + 3.0 * float(
            np.std(logk) / math.sqrt(len(logk))
        )

    def test_pair_far_from_the_origin_samples_as_at_the_origin(self):
        # N(0,1)|N(1,1) moved to 1e10 keeps its law of K: mean log2 K within
        # 3 standard errors of the pair at the origin, at the same seed.  A
        # log ratio in absolute coordinates gave K = 1 on every draw there
        logs = [
            np.log2(sample_indices(DistributionPair(Gaussian(m, 1), Gaussian(m + 1, 1)), 2000,
                                   np.random.default_rng(0))[0])
            for m in (1e10, 0.0)
        ]
        se = math.hypot(*(float(np.std(x)) / math.sqrt(x.size) for x in logs))
        assert abs(float(np.mean(logs[0]) - np.mean(logs[1]))) <= 3.0 * se

    def test_accepted_samples_pass_ks(self):
        rng = np.random.default_rng(12)
        _, u = sample_indices(STD_PAIR, 10**5, rng)
        assert stats.kstest(u, "norm").pvalue > 0.01

    def test_overflow_on_extreme_pair(self):
        # indices near 2**72 at mean 10; at mean 40 beta underflows to 0
        for mean in (10, 40):
            pr = DistributionPair(Gaussian(0, 1), Gaussian(mean, 1))
            rng = np.random.default_rng(0)
            with pytest.raises(IndexOverflowError):
                for _ in range(50):
                    sample_indices(pr, 1, rng)
            with pytest.raises(IndexOverflowError):
                sample_indices(pr, 50, rng)
            # over several blocks: the reference's error, raised by
            # sample_indices itself, and the reference's draws made
            n = 3 * _BLOCK + 7
            ref_rng, rng = np.random.default_rng(1), np.random.default_rng(1)
            with pytest.raises(IndexOverflowError) as ref_exc:
                _reference_sample_indices(pr, n, ref_rng)
            with pytest.raises(IndexOverflowError) as exc:
                sample_indices(pr, n, rng)
            assert type(exc.value) is IndexOverflowError
            assert str(exc.value) == str(ref_exc.value)
            assert exc.traceback[-1].name == "sample_indices"
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # and the pool still serves the next call
            ref_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
            ref = _reference_sample_indices(STD_PAIR, n, ref_rng)
            _assert_same_draws(sample_indices(STD_PAIR, n, rng), ref, rng, ref_rng)

    def test_index_of_exactly_2_64_overflows(self, monkeypatch):
        # 2**64 - 1 has no float and rounds to 2**64, so K = 2**64 itself
        # must be caught.  With log(1 - beta) at x 2**-64, where x is the
        # draw's log(1 - v), x / log(1 - beta) is exactly 2**64
        twin = np.random.default_rng(3)
        STD_PAIR.p.raw(twin, np.empty(1))
        x = np.log(1.0 - twin.random(1))
        monkeypatch.setattr(pfr, "_squeeze_table", lambda pair: None)
        monkeypatch.setattr(pfr, "_log1m_beta", lambda pair, u: x * 2.0**-64)
        with pytest.raises(IndexOverflowError, match="exceeds the unsigned 64-bit range"):
            sample_indices(STD_PAIR, 1, np.random.default_rng(3))

    def test_finite_pair_chi_square(self):
        pr = DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))
        rng = np.random.default_rng(8)
        k, u = sample_indices(pr, 10**5, rng)
        freq = np.bincount(u.astype(int), minlength=2)
        res = stats.chisquare(freq, f_exp=[90000, 10000])
        assert res.pvalue > 0.01


def _draws_or_error(pr: DistributionPair, n: int, seed: int):
    """``sample_indices``' k, u and final generator state, or its error's message and that state."""
    rng = np.random.default_rng(seed)
    try:
        k, u = sample_indices(pr, n, rng)
    except IndexOverflowError as exc:
        return str(exc), None, rng.bit_generator.state
    return k, u, rng.bit_generator.state


def _assert_squeeze_is_exact(pr: DistributionPair, n: int, seed: int, monkeypatch) -> None:
    """The squeezed draws against the exact path's: the same bits, state and error."""
    squeezed = _draws_or_error(pr, n, seed)
    with monkeypatch.context() as m:
        m.setattr(pfr, "_squeeze_table", lambda pair: None)
        exact = _draws_or_error(pr, n, seed)
    if exact[1] is None:
        assert squeezed[0] == exact[0] and squeezed[1] is None
    else:
        np.testing.assert_array_equal(squeezed[0], exact[0])
        np.testing.assert_array_equal(squeezed[1], exact[1])
    assert squeezed[2] == exact[2]


def _table_nodes(table) -> np.ndarray:
    """The levels of ell at the nodes of a squeeze table."""
    return (table.base + np.arange(1, len(table.g) // 2 + 1)) / table.scale


@pytest.fixture
def every_table(monkeypatch):
    """Keep a squeeze table whatever share it leaves undecided, with a fresh cache."""
    monkeypatch.setattr(pfr, "_SQUEEZE_MAX_SHARE", math.inf)
    pfr._squeeze_table.cache_clear()
    yield
    pfr._squeeze_table.cache_clear()


#: Continuous pairs for the squeeze table: monotone ratios of both kinds,
#: an unequal-scale Laplace ratio, a near-identical pair (beta near 1
#: everywhere), pairs whose beta nears underflow, and heavy pairs whose
#: indices reach far past the node spacing's inverse.
SQUEEZE_CASES = {
    label: pr for label, pr in DEFAULT_PAIRS if not pr.is_finite_kind
} | {
    "laplace:0,1|laplace:0.5,2": DistributionPair(Laplace(0, 1), Laplace(0.5, 2)),
    "laplace:0,2|laplace:1,1": DistributionPair(Laplace(0, 2), Laplace(1, 1)),
    "laplace:0,1|laplace:0.3,1": DistributionPair(Laplace(0, 1), Laplace(0.3, 1)),
    "normal:0,1|normal:1e-6,1": DistributionPair(Gaussian(0, 1), Gaussian(1e-6, 1)),
    "normal:0,1|normal:30,1": DistributionPair(Gaussian(0, 1), Gaussian(30, 1)),
    "normal:0,1|normal:38,1": DistributionPair(Gaussian(0, 1), Gaussian(38, 1)),
    "normal:0,1|normal:3,1": DistributionPair(Gaussian(0, 1), Gaussian(3, 1)),
    "normal:0,1|normal:8,1": DistributionPair(Gaussian(0, 1), Gaussian(8, 1)),
    "laplace:0,1|laplace:10,1": DistributionPair(Laplace(0, 1), Laplace(10, 1)),
}


class TestSqueeze:
    @pytest.mark.parametrize("case", list(SQUEEZE_CASES))
    def test_bracket_decides_only_the_exact_index(self, case, every_table):
        # on every node, next to it on both sides and between nodes, for
        # x from v uniform, from v just below 1, and x at or next to an
        # integer multiple of t at the point, where a computed t that is
        # not quite monotone would show: where the table decides, it
        # gives ceil(x / t) at the point itself
        pr = SQUEEZE_CASES[case]
        table = pfr._squeeze_table(pr)
        nodes = _table_nodes(table)
        rng = np.random.default_rng(0)
        ell = np.concatenate([
            nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf),
            rng.uniform(nodes[0] - 1.0 / table.scale, nodes[-1] + 1.0 / table.scale, 2 * nodes.size),
        ])
        with np.errstate(all="ignore"):
            t = pfr._log1m_from_log_beta(pfr._log_beta_at(pr, ell)[0])
            multiple = t * (np.floor(rng.random(ell.size) * np.minimum(36.0 / -t, 2.0**40)) + 1.0)
        multiple = np.maximum(multiple, -40.0)
        xs = [np.log(1.0 - rng.random(ell.size)), np.log(np.full(ell.size, 2.0**-53)),
              multiple, np.nextafter(multiple, 0.0), np.nextafter(multiple, -math.inf)]
        ends = np.empty(ell.size)
        table.ends(ell.copy(), ends)
        decided_any = False
        for x in xs:
            with np.errstate(over="ignore"):  # x / t past the double range, as in the sampler
                k, undecided = table.decide(ends.copy(), x)
            decided = np.ones(ell.size, dtype=bool)
            decided[undecided] = False
            decided_any |= decided.any()
            assert not (t[decided] == 0.0).any()
            with np.errstate(all="ignore"):
                exact = np.ceil(x[decided] / t[decided])
            # K = max(ceil(x / t), 1): at beta == 1, t is at the floor
            np.testing.assert_array_equal(np.maximum(k[decided], 1.0), np.maximum(exact, 1.0))
        # a table that bounds g anywhere decides some of these points
        assert decided_any == np.isfinite(table.g).any()

    @pytest.mark.parametrize("case", list(SQUEEZE_CASES))
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no wider float")
    def test_bracket_covers_every_t_within_its_error(self, case, every_table):
        # the claim the margins make, in a wider float: a run of the exact
        # path may compute any t within its error bound of the truth, so on
        # a node, where the table took t at the same ell, any g within
        # twice that bound of the g computed here; every e = exp(ell - g)
        # that gives lies between the point's lower end and that end plus
        # the table's width.  Next to the nodes and between them, the
        # same for g within the bound once (the g computed here is one of
        # those runs, and far closer to the truth than the bound allows)
        pr = SQUEEZE_CASES[case]
        table = pfr._squeeze_table(pr)
        nodes = _table_nodes(table)
        rng = np.random.default_rng(1)
        ell = np.concatenate([
            nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf),
            rng.uniform(nodes[0], nodes[-1], 2 * nodes.size),
        ])
        ends = np.empty(ell.size)
        table.ends(ell.copy(), ends)
        with np.errstate(all="ignore"):
            t = pfr._log1m_from_log_beta(pfr._log_beta_at(pr, ell)[0])
            parts = pfr._g_parts(pr, ell)
            err = parts.gain * parts.err_lb + parts.rest
        err[: nodes.size] *= 2.0
        decided = ends > 0.0
        assert np.isfinite(err[decided]).all()
        wide = np.longdouble
        ell_w, err_w = ell[decided].astype(wide), err[decided].astype(wide)
        g = np.log(-t[decided].astype(wide)) + ell_w
        assert (ends[decided].astype(wide) <= np.exp(ell_w - (g + err_w))).all()
        assert (np.exp(ell_w - (g - err_w)) <= ends[decided].astype(wide) + wide(table.width)).all()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        laplace=st.booleans(),
        gap=st.sampled_from([0.0, 1e-9, 1e-4, 0.3, 1.0, 2.5, 7.0, 20.0, 38.0, 40.0]),
        sign=st.sampled_from([-1.0, 1.0]),
        scales=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
        seed=st.integers(0, 2**32),
    )
    def test_squeezed_draws_match_exact(self, laplace, gap, sign, scales, seed):
        # random pairs and seeds, beta near 1 (small gaps, a Laplace flat)
        # and near underflow (Gaussian gaps near 40): the same k, u,
        # generator state and error as the exact path, with every table kept
        s = scales[0]
        if laplace:
            pr = DistributionPair(Laplace(0.0, s), Laplace(sign * gap * s, scales[1]))
        else:
            pr = DistributionPair(Gaussian(0.0, s), Gaussian(sign * gap * s, s))
        try:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pfr, "_SQUEEZE_MAX_SHARE", math.inf)
                pfr._squeeze_table.cache_clear()
                _assert_squeeze_is_exact(pr, 2 * _BLOCK + 5, seed, m)
        finally:
            pfr._squeeze_table.cache_clear()

    @pytest.mark.parametrize("mean", [10, 40])
    def test_overflow_through_the_table(self, mean, every_table, monkeypatch):
        # indices past 2**64 at mean 10, beta's underflow at mean 40: the
        # exact path's error, raised over several squeezed blocks
        pr = DistributionPair(Gaussian(0, 1), Gaussian(mean, 1))
        assert pfr._squeeze_table(pr) is not None
        _assert_squeeze_is_exact(pr, 3 * _BLOCK + 7, 1, monkeypatch)
        message = "underflows" if mean == 40 else "exceeds the unsigned 64-bit range"
        with pytest.raises(IndexOverflowError, match=message):
            sample_indices(pr, 3 * _BLOCK + 7, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "label,share",
        [
            ("normal:0,1|normal:1,1", 0.005),
            ("normal:0,1|normal:2,1", 0.03),
            ("normal:0,1|normal:5,1", 0.045),
            ("laplace:0,1|laplace:1,1", 0.005),
            ("laplace:0,1|laplace:3,1", 0.005),
            ("laplace:0,1|laplace:5,1", 0.007),
        ],
    )
    def test_undecided_share(self, label, share, monkeypatch):
        # the share of draws that takes the exact path; on N(0,1)|N(5,1)
        # it is the heaviest indices, whose margins for log beta's error
        # are wider than the node spacing
        pr = dict(DEFAULT_PAIRS)[label]
        table = pfr._squeeze_table(pr)
        exact = []
        log1m_beta = pfr._log1m_beta
        monkeypatch.setattr(pfr, "_log1m_beta", lambda pair, u: exact.append(u.size) or log1m_beta(pair, u))
        n = 2**18
        sample_indices(pr, n, np.random.default_rng(3))
        assert sum(exact) <= share * n
        assert len(table.g) <= 2 * pfr._SQUEEZE_NODES + 1
        assert table.g.nbytes <= 512 * 1024

    def test_laplace_flats_sit_on_nodes_and_decide(self):
        # log r is +-1 on two flats holding 68% of P's mass; both are nodes,
        # and beta == 1 on the lower one, where t sits at the floor
        pr = dict(DEFAULT_PAIRS)["laplace:0,1|laplace:1,1"]
        table = pfr._squeeze_table(pr)
        nodes = _table_nodes(table)
        assert -1.0 in nodes and 1.0 in nodes
        ell = np.repeat([-1.0, 1.0], 5000)
        ends = np.empty(ell.size)
        table.ends(ell.copy(), ends)
        # on a node: the node's own entry, at odd places (between nodes: even)
        low, top = (2 * int(np.flatnonzero(nodes == level)[0]) + 1 for level in (-1.0, 1.0))
        np.testing.assert_array_equal(ends[:5000], np.exp(-1.0 - table.g[low]))
        np.testing.assert_array_equal(ends[5000:], np.exp(1.0 - table.g[top]))
        # e = -1 / t: below any index's reach where beta == 1, and
        # 1 / -log(1 - 1/e) on the upper flat, within a few ulps
        assert 0.0 < ends[0] < 1e-290
        assert ends[-1] == pytest.approx(-1.0 / math.log1p(-math.exp(-1.0)), rel=1e-14)
        x = np.log(1.0 - np.random.default_rng(0).random(ell.size))
        k, undecided = table.decide(ends.copy(), x)
        # K = 1 on every point of the lower flat; on the upper, the exact
        # index wherever the gap below it is wider than -x times the
        # table's width, which leaves 1 of these 5000 points to the exact path
        assert (undecided >= 5000).all() and undecided.size <= 4 * table.width * 5000
        assert (np.maximum(k[:5000], 1.0) == 1.0).all()
        decided = np.setdiff1d(np.arange(5000, ell.size), undecided)
        t = pfr._log1m_beta(pr, np.full(1, -2.0))  # log r = 1 for u <= 0
        np.testing.assert_array_equal(k[decided], np.ceil(x[decided] / t))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        laplace=st.booleans(),
        gap=st.floats(0.0, 40.0),
        sign=st.sampled_from([-1.0, 1.0]),
        scales=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
    )
    def test_parts_of_g_are_monotone(self, laplace, gap, sign, scales):
        # the two facts the cells' bounds rest on: along a dense grid of
        # ell over all but about 2e-9 of P's mass, and next to each of its
        # points, a = ell + log beta never falls and b = log(-t / beta)
        # never rises, beyond the error bounds at the two ends
        s = scales[0]
        if laplace:
            pr = DistributionPair(Laplace(0.0, s), Laplace(sign * gap * s, scales[1]))
            raw = np.linspace(1e-9, 1.0 - 1e-9, 20001)
        else:
            pr = DistributionPair(Gaussian(0.0, s), Gaussian(sign * gap * s, s))
            raw = np.linspace(-6.0, 6.0, 20001)
        with np.errstate(all="ignore"):
            ell = np.unique(pr.log_ratio(pr.p.transform(raw)))
            ell = np.unique(np.concatenate([ell, np.nextafter(ell, math.inf)]))
            parts = pfr._g_parts(pr, ell)
            err_a = parts.err_a[:-1] + parts.err_a[1:]
            err_b = parts.err_b[:-1] + parts.err_b[1:]
            # an infinite bound (beta near 1, or its underflow) claims nothing
            assert ((parts.a[1:] >= parts.a[:-1] - err_a) | (err_a == math.inf)).all()
            assert ((parts.b[1:] <= parts.b[:-1] + err_b) | (err_b == math.inf)).all()
        # the bounds are not vacuous: away from beta near 1 (a small gap)
        # and from its underflow (a large gap, or scales far apart), most
        # of the grid has them
        if 0.1 <= gap <= 20.0 and 0.5 <= scales[1] / s <= 2.0:
            assert np.isfinite(err_a).mean() > 0.5 and np.isfinite(err_b).mean() > 0.5

    @pytest.mark.parametrize("label", ["normal:0,1|normal:1,1", "normal:0,1|normal:5,1",
                                       "laplace:0,1|laplace:1,1"])
    def test_build_memory_stays_flat(self, label):
        # the cached table fits in 512 kB, and its chunked build holds the
        # table, the entries' widths and P(ell > node), plus a few dozen
        # arrays of one chunk each
        pr = dict(DEFAULT_PAIRS)[label]
        pfr._squeeze_table(STD_PAIR)  # imports
        pfr._squeeze_table.cache_clear()
        tracemalloc.start()
        try:
            table = pfr._squeeze_table(pr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            pfr._squeeze_table.cache_clear()
        assert table.g.nbytes <= 512 * 1024
        assert peak <= 2.5 * table.g.nbytes + 48 * 8 * (pfr._BUILD_CHUNK + 1)

    def test_table_is_built_once_at_the_first_draw(self):
        pr = DistributionPair(Gaussian(0, 1), Gaussian(1.5, 1))
        pfr._squeeze_table.cache_clear()
        rng = np.random.default_rng(0)
        sample_indices(pr, 0, rng)
        assert pfr._squeeze_table.cache_info().currsize == 0
        for _ in range(2):
            sample_indices(pr, 1, rng)
        info = pfr._squeeze_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestSamplerAgreement:
    def test_many_point_finite_pair_gives_support_indices(self):
        # 20 support points: past _FINITE_COUNTED, each law's transform
        # searches its cumulative table, in both samplers
        rng = np.random.default_rng(5)
        p, q = 1.0 + rng.random(20), 1.0 + rng.random(20)
        pr = DistributionPair(Finite(tuple(p / p.sum())), Finite(tuple(q / q.sum())))
        k, u = sample_indices(pr, 5000, np.random.default_rng(1))
        batch = run_pfr_many(pr, 7, 500)
        assert batch.termination == "exact" and not batch.capped.any()
        for index, support in ((k, u), (batch.index, batch.accepted)):
            assert (index >= 1).all()
            np.testing.assert_array_equal(support, np.floor(support))
            assert 0 <= support.min() and support.max() <= 19
        assert set(u.tolist()) == set(range(20))

    def test_index_law_total_variation(self):
        # empirical index pmfs of the two samplers agree on k <= 50
        n = 10**5
        rng1 = np.random.default_rng(21)
        rng2 = np.random.default_rng(22)
        k_direct = np.array(
            [run_pfr(STD_PAIR, rng1, delta=1e-8).index for _ in range(n)]
        )
        k_cond, _ = sample_indices(STD_PAIR, n, rng2)
        f1 = np.bincount(np.minimum(k_direct, 51), minlength=52)[1:51] / n
        f2 = np.bincount(np.minimum(k_cond.astype(int), 51), minlength=52)[1:51] / n
        tv = 0.5 * float(np.abs(f1 - f2).sum())
        assert tv <= 0.01

    def test_conditional_law_is_geometric(self):
        # condition on |U_K - u0| <= 0.05 and chi-square against Geo(beta)
        u0 = 0.3
        rng = np.random.default_rng(23)
        k, u = sample_indices(STD_PAIR, 3 * 10**5, rng)
        sel = np.abs(u - u0) <= 0.05
        ks = k[sel].astype(int)
        bvals = np.exp(np.asarray(log_beta(STD_PAIR, u[sel]), dtype=float))
        kmax = 12
        expected = np.empty(kmax + 1)
        for j in range(1, kmax + 1):
            expected[j - 1] = float(np.mean((1 - bvals) ** (j - 1) * bvals))
        expected[kmax] = 1.0 - expected[:kmax].sum()
        observed = np.bincount(np.minimum(ks, kmax + 1), minlength=kmax + 2)[1:]
        res = stats.chisquare(observed, f_exp=expected * len(ks))
        assert res.pvalue > 0.01


class TestIndexPmf:
    def test_identical_pair_point_mass(self):
        pmf = index_pmf(DistributionPair(Gaussian(0, 1), Gaussian(0, 1)), 10)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-10)
        assert float(np.abs(pmf.probs[1:]).max()) < 1e-12
        assert pmf.tail_mass == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [0, -1])
    @pytest.mark.parametrize(
        "pr", [STD_PAIR, DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))],
        ids=["normal", "finite"],
    )
    def test_n_max_checked(self, pr, n_max):
        with pytest.raises(DomainError, match="n_max"):
            index_pmf(pr, n_max)

    def test_finite_pair_hand_value(self):
        pr = DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))
        pmf = index_pmf(pr, 50)
        # beta = (1/1.8, 1), so P(K=1) = 0.9/1.8 + 0.1
        assert pmf.probs[0] == pytest.approx(0.6, rel=1e-12)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_probs_nonincreasing_and_consistent(self):
        pmf = index_pmf(STD_PAIR, 200)
        assert np.all(np.diff(pmf.probs) <= 1e-15)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_matches_empirical_frequencies(self):
        pmf = index_pmf(STD_PAIR, 200)
        rng = np.random.default_rng(31)
        n = 10**5
        k, _ = sample_indices(STD_PAIR, n, rng)
        counts = np.bincount(k.astype(int), minlength=21)[1:21]
        for j in range(20):
            p = pmf.probs[j]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) <= 3.0 * se + 1e-12, f"k={j + 1}"

    def test_nonmonotone_pair_pmf_matches_sampler(self):
        # unequal variances make the ratio non-monotone, so each beta
        # integrates over an interval superlevel set; the cross-check
        # sampler is the selection rule, whose bounded ratio needs no beta
        pr = DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6))
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6)
        pmf = index_pmf(pr, 30, spec)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-8)
        n = 30000
        batch = run_pfr_many(pr, 11, n)
        assert batch.termination == "exact" and not batch.capped.any()
        ks = batch.index
        counts = np.bincount(np.minimum(ks, 31), minlength=32)[1:9]
        for j in range(8):
            p = pmf.probs[j]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) <= 3.0 * se + 1e-12, f"k={j + 1}"

    def test_laplace_pair_pmf_matches_sampler(self):
        pr = DistributionPair(Laplace(0, 1), Laplace(2, 1))
        pmf = index_pmf(pr, 200)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)
        n = 2 * 10**5
        k, _ = sample_indices(pr, n, np.random.default_rng(6))
        counts = np.bincount(np.minimum(k.astype(int), 201), minlength=202)[1:11]
        for j in range(10):
            p = pmf.probs[j]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) <= 3.0 * se + 1e-12, f"k={j + 1}"

    def test_certificate_checkpoints_continue_the_decay(self):
        pmf = index_pmf(STD_PAIR, 100)
        assert len(pmf._checkpoints) > 50
        ks = [k for k, _ in pmf._checkpoints]
        ps = [p for _, p in pmf._checkpoints]
        assert ks == sorted(ks)
        assert ps[0] <= pmf.probs[-1] + 1e-15
        finite_drop = [a >= b - 1e-18 for a, b in zip(ps, ps[1:])]
        assert all(finite_drop)
        assert len(pmf._moment_log2_bounds) >= 4

    def test_tail_bound_is_zero_for_dust_and_inf_without_checkpoints(self):
        dust = IndexPmf(np.array([0.5, 0.5 - 1e-12]), 1e-12)
        assert dust.tail_is_dust and dust.tail_power_sum_bound(0.5) == 0.0
        bare = IndexPmf(np.array([0.9]), 0.1)
        assert not bare.tail_is_dust and bare.tail_power_sum_bound(0.5) == math.inf
        assert 0.0 < index_pmf(STD_PAIR, 100).tail_power_sum_bound(0.5) < math.inf

    def test_csv_roundtrip(self):
        pmf = index_pmf(STD_PAIR, 25)
        buf = io.StringIO()
        pmf.to_csv(buf)
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0] == "k,prob"
        keys, values = zip(*(line.split(",") for line in lines[1:]))
        assert keys == tuple(str(k) for k in range(1, 26)) + ("tail",)
        assert [float(v) for v in values[:-1]] == pmf.probs.tolist()
        assert float(values[-1]) == pmf.tail_mass

    def test_validation(self):
        with pytest.raises(NegativeTailError):
            IndexPmf(np.array([1.0, 1e-8]), -1e-8)
        with pytest.raises(NonConvergenceError):
            IndexPmf(np.array([0.5]), 0.4)
        with pytest.raises(DomainError):
            IndexPmf(np.array([-0.1, 1.1]), 0.0)

    def test_outcome_validation(self):
        with pytest.raises(DomainError):
            PfrOutcome(0, 0.0, 1, "exact")
        with pytest.raises(DomainError):
            PfrOutcome(5, 0.0, 3, "exact")
        with pytest.raises(DomainError):
            PfrOutcome(1, 0.0, 1, "maybe")
