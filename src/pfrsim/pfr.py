"""Exact index sampling over shared randomness and the index distribution.

Two samplers produce the transmitted index K with its accepted sample:

* ``run_pfr`` runs the selection rule directly: arrival times of a
  rate-one Poisson process are divided by the density ratio at i.i.d.
  reference draws, and K is the argmin.  The argmin ranges over
  infinitely many candidates, so iteration stops either exactly (bounded
  ratio) or once the expected number of future improvements falls below
  a caller-supplied ``delta`` (unbounded ratio).  ``run_pfr_many`` runs
  it on the seeded streams ``derive_stream(root_seed, i)``, i < n, with
  the same draws per stream but one array pass per block across all of
  them, and returns arrays rather than one outcome per draw.
* ``sample_indices`` draws n accepted samples from the target first and
  then each index from its conditional geometric law with success
  probability beta(u); the joint law matches the selection rule exactly
  and the cost is O(1) per draw, which is the only tractable route when
  E[K] is astronomically large.

``index_pmf`` integrates the conditional geometric law against the
target density on a cached quadrature grid, reporting the truncated pmf,
the exact tail mass, and optional tail certificates (checkpoint
probabilities plus moment bounds) that let downstream code bound
power sums over the untruncated tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import DistributionPair, renyi_divergence
from .errors import (
    DomainError,
    IndexOverflowError,
    IterationCapError,
    NegativeTailError,
    NonConvergenceError,
)
from .numerics import (
    LOG2E,
    QuadratureSpec,
    integrate,
    log2_sum_exp,
    open_text,
    quadrature_grid,
)

_UINT64_MAX = float(2**64 - 1)

#: Moment orders stored as tail certificates on IndexPmf.
_CERT_MOMENT_ORDERS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def derive_stream(root_seed: int, i: int) -> np.random.Generator:
    """Stream i of a batch: seeded by root_seed XOR i.

    The same stream as ``np.random.default_rng(root_seed ^ i)``, built
    without its argument checks, which cost a fifth of the time.
    """
    return np.random.Generator(np.random.PCG64(root_seed ^ i))


@dataclass(frozen=True)
class PfrOutcome:
    """One run of the selection rule: index, accepted sample, work done, and how it stopped."""

    index: int
    accepted: float | int
    candidates_examined: int
    termination: str  # "exact" | "approximate"
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.index < 1:
            raise DomainError("index must be >= 1")
        if self.candidates_examined < self.index:
            raise DomainError("candidates_examined must be >= index")
        if self.termination not in ("exact", "approximate"):
            raise DomainError(f"unknown termination {self.termination!r}")


@dataclass(frozen=True)
class TailCertificate:
    """Data licensing upper bounds on sums over the truncated tail.

    ``checkpoints`` holds (k, P(K=k)) on a geometric ladder beyond the
    truncation point; the pmf is nonincreasing, so each block of indices
    is dominated by its leading checkpoint.  ``moment_log2_bounds`` holds
    (r, log2 B_r) with E[K^r] <= B_r, derived from closed-form divergences,
    which bounds the remainder beyond the last checkpoint.
    """

    checkpoints: tuple[tuple[int, float], ...]
    moment_log2_bounds: tuple[tuple[float, float], ...]


@dataclass
class IndexPmf:
    """Truncated index distribution: P(K=k) for k=1..N plus explicit tail mass."""

    probs: np.ndarray
    tail_mass: float
    tail_certificate: TailCertificate | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        if np.any(self.probs < 0.0):
            raise DomainError("pmf entries must be nonnegative")
        if self.tail_mass < -1e-9:
            raise NegativeTailError(f"tail mass {self.tail_mass} below -1e-9")
        total = float(self.probs.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise NonConvergenceError(
                f"pmf plus tail sums to {total}, off by {total - 1.0:.3e}"
            )
        self.tail_mass = max(self.tail_mass, 0.0)

    @property
    def n_max(self) -> int:
        return len(self.probs)

    def to_csv(self, f) -> None:
        """Write rows ``k,prob`` followed by a final ``tail,<tail_mass>`` row."""
        with open_text(f, "w") as f:
            f.write("k,prob\n")
            for k, p in enumerate(self.probs, start=1):
                f.write(f"{k},{p:.17g}\n")
            f.write(f"tail,{self.tail_mass:.17g}\n")


def _log1m_from_log_beta(log_beta_vals: np.ndarray) -> np.ndarray:
    """log(1 - beta) from log(beta); -1e300 stands in for -inf at beta == 1."""
    b = np.exp(np.minimum(log_beta_vals, 0.0))
    with np.errstate(divide="ignore"):
        out = np.log1p(-b)
    return np.where(np.isneginf(out), -1e300, out)


def log_beta(pair: DistributionPair, u):
    """Natural log of the geometric success probability beta(u).

    beta(u)^-1 = E_{U~Q} max{r(u), r(U)} = r(u) Q(r <= r(u)) + P(r > r(u))
    for the density ratio r = dP/dQ, from the masses of its superlevel set
    at r(u) (``DistributionPair.superlevel_masses``), which have a closed
    form for every kind.  Accepts scalars or arrays; finite pairs take
    support indices.
    """
    # finite pairs: once per support point, then gathered
    log_c = pair.support_log_ratios() if pair.is_finite_kind else pair.log_ratio(u)
    log_p, log_q = pair.superlevel_masses(log_c)
    with np.errstate(divide="ignore"):
        a = log_c + np.log(-np.expm1(log_q))
    del log_c, log_q  # large batches: keep few full-size arrays alive at once
    # np.logaddexp, written out: several times faster on arrays
    lb = -(np.maximum(a, log_p) + np.log1p(np.exp(-np.abs(a - log_p))))
    return lb[np.asarray(u, dtype=int)] if pair.is_finite_kind else lb


def _log_beta_quadrature(
    pair: DistributionPair, u: float, spec: QuadratureSpec | None
) -> float:
    log_ru = float(pair.log_ratio(u))

    def integrand(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf raises NonFiniteError
            return np.exp(np.maximum(pair.log_ratio(x), log_ru) + pair.q.log_density(x))

    return -math.log(integrate(integrand, spec))


def sample_indices(
    pair: DistributionPair, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact sampler: n draws of (K, U_K).

    Indices are returned as float64 (they can exceed int64 for heavy
    pairs); values above the unsigned 64-bit range raise.  beta is in
    closed form for every pair, so the cost is O(1) per draw.
    """
    u = pair.p.sample(rng, n)
    lb = np.asarray(log_beta(pair, u), dtype=float)
    v = 1.0 - rng.random(n)
    log1m = _log1m_from_log_beta(lb)
    if np.any(log1m == 0.0):
        raise IndexOverflowError("beta underflows double precision")
    with np.errstate(over="ignore"):
        k = np.ceil(np.log(v) / log1m)  # +inf where beta is subnormal
    if np.any(k > _UINT64_MAX):
        raise IndexOverflowError("a geometric index exceeds the unsigned 64-bit range")
    return np.maximum(k, 1.0), np.asarray(u, dtype=float)


@lru_cache(maxsize=64)
def _selection_rule(pair: DistributionPair, delta: float) -> tuple[float, bool, float]:
    """Per-pair setup of the selection rule: (log sup r, exact stop, log delta).

    Unbounded ratios without a finite E_Q[r^2] raise DomainError up front.
    Cached, because ``run_pfr`` draws once per call, and a loop of draws on
    one pair should pay for the setup (a divergence evaluation among it) once.
    """
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    log_rmax = pair.log_ratio_sup()
    exact = math.isfinite(log_rmax)
    if not exact and not math.isfinite(renyi_divergence(pair, 2.0)):
        raise DomainError(
            "unbounded density ratio with no finite ratio moment: "
            "no stopping rule applies (use sample_indices)"
        )
    return log_rmax, exact, math.log(delta)


def run_pfr(
    pair: DistributionPair,
    rng: np.random.Generator,
    delta: float = 1e-6,
    max_candidates: int = 10**8,
) -> PfrOutcome:
    """Run the Poisson-process selection rule for one sample.

    Candidate i has arrival time T_i (cumulative unit-rate exponential
    increments) and score T_i / r(U_i), r = dP/dQ; K is the argmin.  After
    time T with best score S, the expected number of later improvements
    is S (P(r > c) - c Q(r > c)) with c = T / S, from the ratio's
    superlevel masses.  It is zero once c reaches sup r, where a bounded
    ratio stops exactly; otherwise iteration stops once it is at most
    ``delta``, which bounds the chance that a later candidate wins.
    Unbounded ratios without a finite E_Q[r^2] raise DomainError up front.
    """
    log_rmax, exact, log_delta = _selection_rule(pair, delta)

    t_last = 0.0
    best_score = math.inf  # natural log of min T_i / r(U_i)
    best_index = 0
    best_u: float | int = 0
    n = 0
    block = 64
    while True:
        if n >= max_candidates:
            raise IterationCapError(
                f"no stopping decision after {n} candidates"
            )
        b = min(block, max_candidates - n)
        gaps = rng.exponential(size=b)
        times = t_last + np.cumsum(gaps)
        t_last = float(times[-1])
        us = pair.q.sample(rng, b)
        log_r = np.asarray(pair.log_ratio(us), dtype=float)
        with np.errstate(invalid="ignore"):
            scores = np.log(times) - log_r
        scores = np.where(np.isnan(scores), math.inf, scores)
        i = int(np.argmin(scores))
        if float(scores[i]) < best_score:
            best_score = float(scores[i])
            best_index = n + i + 1
            best_u = us[i] if not pair.is_finite_kind else int(us[i])
        n += b
        block = min(block * 2, 8192)

        log_t = np.log(t_last)
        if exact:
            if log_t - log_rmax >= best_score:
                return PfrOutcome(
                    index=best_index,
                    accepted=best_u,
                    candidates_examined=n,
                    termination="exact",
                )
        else:
            log_p, log_q = pair.superlevel_masses(log_t - best_score)
            if _delta_stop(best_score, log_p, log_t + log_q, log_delta):
                return PfrOutcome(
                    index=best_index,
                    accepted=best_u,
                    candidates_examined=n,
                    termination="approximate",
                    delta=delta,
                )


def _delta_stop(best_score, log_p, log_tq, log_delta: float):
    """S P(r > c) - T Q(r > c) <= delta, tested as S P <= delta + T Q in logs.

    Elementwise over arrays of streams.
    """
    return best_score + log_p <= np.logaddexp(log_delta, log_tq)


#: Streams that ``run_pfr_many`` runs side by side, and the most candidates
#: it draws in one step (streams times block size).  They bound its
#: working memory to about a megabyte; larger values are no faster.
_BATCH_STREAMS = 256
_BATCH_CANDIDATES = 64 * _BATCH_STREAMS


@dataclass(frozen=True)
class PfrBatch:
    """Selection-rule runs on streams ``derive_stream(root_seed, i)``, one entry each.

    ``capped`` marks the streams on which ``run_pfr`` raises
    IterationCapError; their index and accepted entries are 0.  Every other
    stream stopped by ``termination``, which the pair decides.
    """

    index: np.ndarray  # int64
    accepted: np.ndarray  # float64; int64 support indices for finite pairs
    candidates_examined: np.ndarray  # int64
    capped: np.ndarray  # bool
    termination: str  # "exact" | "approximate"
    delta: float | None = None


def run_pfr_many(
    pair: DistributionPair,
    root_seed: int,
    n: int,
    delta: float = 1e-6,
    max_candidates: int = 10**8,
) -> PfrBatch:
    """``run_pfr`` on streams ``derive_stream(root_seed, i)``, i < n, as one loop.

    Entry i equals ``run_pfr(pair, derive_stream(root_seed, i), delta,
    max_candidates)``: each stream makes the same draws in the same order,
    and only the arithmetic after the draws is shared, one array pass per
    block over all live streams.  The block size depends only on the block
    count, so every live stream has the same schedule.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    log_rmax, exact, log_delta = _selection_rule(pair, delta)
    index = np.zeros(n, dtype=np.int64)
    accepted = np.zeros(n, dtype=np.int64 if pair.is_finite_kind else float)
    examined = np.zeros(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    for start in range(0, n, _BATCH_STREAMS):
        rngs = [derive_stream(root_seed, i) for i in range(start, min(start + _BATCH_STREAMS, n))]
        live = np.arange(len(rngs))  # positions in this chunk, in stream order
        t_last = np.zeros(len(rngs))
        best_score = np.full(len(rngs), np.inf)
        best_index = np.zeros(len(rngs), dtype=np.int64)
        best_u = np.zeros(len(rngs), dtype=accepted.dtype)
        m = 0
        block = 64
        while live.size:
            if m >= max_candidates:
                capped[start + live] = True
                examined[start + live] = m
                break
            b = min(block, max_candidates - m)
            step = _BATCH_CANDIDATES // b  # streams per step; b <= 8192
            for lo in range(0, live.size, step):
                rows = live[lo : lo + step]
                gaps = np.empty((rows.size, b))
                us = np.empty((rows.size, b), dtype=accepted.dtype)
                for j, r in enumerate(rows.tolist()):
                    gaps[j] = rngs[r].exponential(size=b)
                    us[j] = pair.q.sample(rngs[r], b)
                times = np.cumsum(gaps, axis=1) + t_last[rows, None]
                t_last[rows] = times[:, -1]
                with np.errstate(invalid="ignore"):
                    scores = np.log(times) - np.asarray(pair.log_ratio(us), dtype=float)
                scores[np.isnan(scores)] = np.inf
                i = np.argmin(scores, axis=1)
                score = scores[np.arange(rows.size), i]
                better = score < best_score[rows]
                won = rows[better]
                best_score[won] = score[better]
                best_index[won] = m + i[better] + 1
                best_u[won] = us[better, i[better]]
            m += b
            block = min(block * 2, 8192)

            log_t = np.log(t_last[live])
            score = best_score[live]
            if exact:
                stop = log_t - log_rmax >= score
            else:
                log_p, log_q = pair.superlevel_masses(log_t - score)
                stop = _delta_stop(score, log_p, log_t + log_q, log_delta)
            done = live[stop]
            index[start + done] = best_index[done]
            accepted[start + done] = best_u[done]
            examined[start + done] = m
            live = live[~stop]
    return PfrBatch(
        index,
        accepted,
        examined,
        capped,
        "exact" if exact else "approximate",
        None if exact else delta,
    )


def _certificate_checkpoints(n_max: int, ratio: float = 2.0**0.25, max_k: float = 1e12):
    ks = []
    k = float(n_max)
    while k < max_k:
        nk = int(math.ceil(k * ratio))
        if nk <= (ks[-1] if ks else n_max):
            nk = (ks[-1] if ks else n_max) + 1
        ks.append(nk)
        k = k * ratio
    return ks


def _moment_bounds_log2(pair: DistributionPair) -> tuple[tuple[float, float], ...]:
    """(r, log2 B_r) with E[K^r] <= B_r = Gamma(r+1) 4^{r-1} (2^{r D_{r+1}} + 1) + 2^{r-1}."""
    out = []
    for r in _CERT_MOMENT_ORDERS:
        d = renyi_divergence(pair, r + 1.0)
        if not math.isfinite(d):
            continue
        main = (
            math.lgamma(r + 1.0) * LOG2E
            + (2.0 * r - 2.0)
            + log2_sum_exp([r * d, 0.0])
        )
        out.append((r, log2_sum_exp([main, r - 1.0])))
    return tuple(out)


def index_pmf(
    pair: DistributionPair,
    n_max: int,
    spec: QuadratureSpec | None = None,
) -> IndexPmf:
    """Truncated pmf of K: P(K=k) for k <= n_max plus the exact tail mass.

    P(K=k) integrates (1-beta(u))^(k-1) beta(u) against the target
    density.  beta is evaluated once per quadrature node and the node
    set is reused across every k (and every tail checkpoint), so the
    whole table costs one grid construction plus dense array products.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if pair.is_finite_kind:  # the support is the grid, with unit weights
        nodes = np.flatnonzero(np.asarray(pair.p.probs) > 0.0)
        return _index_pmf_on_grid(pair, n_max, nodes, np.ones(len(nodes)))

    def pilot(k: int, survival: bool = False):
        """Integrand of P(K = k), or of P(K > k) when ``survival``, over arrays."""

        def f(u: np.ndarray) -> np.ndarray:
            lb = log_beta(pair, u)
            log1m = _log1m_from_log_beta(lb)  # -1e300 where beta == 1
            with np.errstate(over="ignore"):
                log_term = k * log1m if survival else (k - 1) * log1m + lb
                return np.exp(log_term + pair.p.log_density(u))

        return f

    pilot_ks = sorted({1, 4, 16, 64, 256, n_max} | {
        min(int(n_max * 2.0 ** j), 10**12) for j in (5, 10, 15, 20, 25, 30)
    })
    pilots = [pilot(k) for k in pilot_ks] + [pilot(n_max, survival=True)]
    nodes, weights = quadrature_grid(pilots, spec)
    return _index_pmf_on_grid(pair, n_max, nodes, weights)


def _index_pmf_on_grid(pair: DistributionPair, n_max: int, nodes, weights) -> IndexPmf:
    lb = np.asarray(log_beta(pair, nodes), dtype=float)
    log1m = _log1m_from_log_beta(lb)
    base = weights * pair.p.density(nodes)

    probs = np.empty(n_max)
    chunk = max(1, int(4e6 // max(len(nodes), 1)))
    with np.errstate(over="ignore"):
        for start in range(0, n_max, chunk):
            ks = np.arange(start + 1, min(start + chunk, n_max) + 1)
            terms = np.exp((ks[:, None] - 1) * log1m[None, :] + lb[None, :])
            probs[start : start + len(ks)] = terms @ base
        tail = float(np.exp(n_max * log1m) @ base)

        checkpoints = tuple(
            (k, float(np.exp((k - 1) * log1m + lb) @ base))
            for k in _certificate_checkpoints(n_max)
        )
    cert = TailCertificate(checkpoints, _moment_bounds_log2(pair))
    return IndexPmf(probs, tail, cert)
