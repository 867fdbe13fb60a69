"""Brute-force verification of the theory's inequalities.

Monte Carlo checks use the exact conditional-geometric sampler and pass
with three-standard-error margins.  The suite draws once per pair of the
matrix, from stream ``100 + i`` of the seed, and ``verify_draw`` takes
every Monte Carlo statistic of the pair from that one index array: E[K^0.5]
for the ``moments`` family, E[log2 K] for ``logmoment`` and, on the pair
N(0,1)|N(1,1), E[K^0.5] after a relabeling drawn from stream 199.  No
check reads another's result, so each keeps its own margin.  Statistics
are computed in place, with numpy's two-pass mean and standard deviation,
on the sampler's index array and on its sample array reused as scratch,
so no other full-size array is made.  Summation checks are direct partial
sums plus analytic tail bounds; they skip the terms that underflow to
exactly zero.  Every check returns a report with a ``passed`` flag;
``run_suite`` evaluates the built-in pair matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bounds import _ub1_search, check_alpha, lb1, lb2
from .codes import OneToOne, PowerLaw, Universal, campbell_cost
from .distributions import (
    DistributionPair,
    Finite,
    Gaussian,
    Laplace,
    kl_divergence,
    renyi_divergence,
)
from .errors import DomainError
from .numerics import LOG2E
from .pfr import IndexPmf, derive_stream, index_pmf, log_beta, sample_indices

#: Matrix of distribution pairs exercised by the full suite.  Gaussian
#: pairs with a mean gap of 10 or more are absent: their geometric success
#: probabilities fall below ~1e-19, pushing indices past the unsigned 64-bit
#: range.  Laplace(0,1)|Laplace(10,1) would not overflow (its ratio is
#: bounded by e^10) but is left out with them.
DEFAULT_PAIRS: tuple[tuple[str, DistributionPair], ...] = (
    ("finite:0.9,0.1|finite:0.5,0.5", DistributionPair(Finite((0.9, 0.1)), Finite((0.5, 0.5)))),
    ("finite:0.5,0.5|finite:0.25,0.75", DistributionPair(Finite((0.5, 0.5)), Finite((0.25, 0.75)))),
    ("finite:0.99,0.01|finite:0.5,0.5", DistributionPair(Finite((0.99, 0.01)), Finite((0.5, 0.5)))),
    ("normal:0,1|normal:1,1", DistributionPair(Gaussian(0, 1), Gaussian(1, 1))),
    ("normal:0,1|normal:2,1", DistributionPair(Gaussian(0, 1), Gaussian(2, 1))),
    ("normal:0,1|normal:5,1", DistributionPair(Gaussian(0, 1), Gaussian(5, 1))),
    ("laplace:0,1|laplace:1,1", DistributionPair(Laplace(0, 1), Laplace(1, 1))),
    ("laplace:0,1|laplace:3,1", DistributionPair(Laplace(0, 1), Laplace(3, 1))),
    ("laplace:0,1|laplace:5,1", DistributionPair(Laplace(0, 1), Laplace(5, 1))),
)

CHECK_NAMES = ("geometric", "moments", "logmoment", "code", "soundness", "band")

#: Indices relabeled per pass by the permuted moment check.
_RELABEL_CHUNK = 2**15

#: A log-term below this is at least 0.8 under exp's underflow point
#: (log of half the least subnormal, about -745.13): exp gives exactly 0.0.
_LOG_UNDERFLOW = -746.0


@dataclass(frozen=True)
class MomentReport:
    """Empirical alpha-moment of the index against its two-sided band."""

    alpha: float
    empirical_moment: float
    floor: float
    cap: float
    n_samples: int
    std_error: float

    def __post_init__(self) -> None:
        if self.floor > self.cap:
            raise DomainError("moment band is empty; bounds are inconsistent")

    @property
    def passed(self) -> bool:
        margin = 3.0 * self.std_error
        return (
            self.floor - margin
            <= self.empirical_moment
            <= self.cap + margin
        )


@dataclass(frozen=True)
class LogMomentReport:
    """Empirical mean of log2 K against divergence plus one bit."""

    empirical: float
    bound: float
    n_samples: int
    std_error: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.std_error


@dataclass(frozen=True)
class GeometricMomentReport:
    """Direct r-th moment of a geometric law against its closed-form cap."""

    p: float
    r: float
    n_terms: int
    moment_sum: float
    tail_bound: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.moment_sum + self.tail_bound <= self.bound * (1.0 + 1e-12)


@dataclass(frozen=True)
class CheckReport:
    """One PASS/FAIL line of the verification suite."""

    check: str
    subject: str
    alpha: float | None
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        alpha = "-" if self.alpha is None else f"{self.alpha:g}"
        return f"{status} {self.check} {self.subject} {alpha} {self.details}"


def verify_moment_bounds(
    pair: DistributionPair,
    alpha: float,
    n_samples: int,
    rng: np.random.Generator,
    permutation: np.ndarray | None = None,
) -> MomentReport:
    """Estimate E[K^alpha] and place it inside its proved band.

    ``permutation`` optionally relabels indices through a bijection before
    taking the moment; entries beyond the permutation's range map to
    themselves.  Only the lower bound holds for every relabeling, so the
    report's cap is then +inf.
    """
    check_alpha(alpha)
    return _moment(pair, alpha, sample_indices(pair, n_samples, rng)[0], permutation)


def verify_log_moment(
    pair: DistributionPair, n_samples: int, rng: np.random.Generator
) -> LogMomentReport:
    """Estimate E[log2 K] against D(P||Q) + 1."""
    k = sample_indices(pair, n_samples, rng)[0]
    return _log_moment(pair, np.log2(k, out=k))


def verify_draw(
    pair: DistributionPair,
    alpha: float,
    n_samples: int,
    rng: np.random.Generator,
    permutation: np.ndarray | None = None,
) -> tuple[LogMomentReport, MomentReport, MomentReport | None]:
    """One exact draw of n_samples indices and every Monte Carlo check on it:
    E[log2 K], E[K^alpha] and, given ``permutation``, E[K^alpha] relabeled.

    Each report has the bits that ``verify_log_moment`` and
    ``verify_moment_bounds`` give on a generator in the same state.  The
    sampler's sample array is the scratch buffer: log2 k is written into
    it, then a copy of k for the relabeling, and the moment is taken on k
    itself, last.  Both arrays are released on return.
    """
    check_alpha(alpha)
    k, scratch = sample_indices(pair, n_samples, rng)
    log_moment = _log_moment(pair, np.log2(k, out=scratch))
    permuted = None
    if permutation is not None:
        np.copyto(scratch, k)
        permuted = _moment(pair, alpha, scratch, permutation)
    return log_moment, _moment(pair, alpha, k), permuted


def moment_band(alpha: float, d: float) -> tuple[float, float]:
    """The proved band [2^{alpha d} / (1 + alpha), 2^{alpha d} + alpha] on
    E[K^alpha], with d = D_{alpha+1}(P||Q) in bits."""
    scale = 2.0 ** (alpha * d)
    return scale / (1.0 + alpha), scale + alpha


def _moment(
    pair: DistributionPair, alpha: float, k: np.ndarray, permutation: np.ndarray | None = None
) -> MomentReport:
    """E[K^alpha] of the indices k against its band, +inf above if relabeled; k is overwritten."""
    floor, cap = moment_band(alpha, renyi_divergence(pair, alpha + 1.0))
    if permutation is not None:
        cap = math.inf
        for start in range(0, k.size, _RELABEL_CHUNK):
            chunk = k[start : start + _RELABEL_CHUNK]
            small = chunk <= len(permutation)
            chunk[small] = permutation[chunk[small].astype(np.int64) - 1]
    k **= alpha
    emp, se = _mean_and_std_error(k)
    return MomentReport(
        alpha=alpha,
        empirical_moment=emp,
        floor=floor,
        cap=cap,
        n_samples=k.size,
        std_error=se,
    )


def _log_moment(pair: DistributionPair, log2_k: np.ndarray) -> LogMomentReport:
    """E[log2 K] from log2 of the indices against D(P||Q) + 1; log2_k is overwritten."""
    emp, se = _mean_and_std_error(log2_k)
    return LogMomentReport(
        empirical=emp,
        bound=kl_divergence(pair) + 1.0,
        n_samples=log2_k.size,
        std_error=se,
    )


def _mean_and_std_error(x: np.ndarray) -> tuple[float, float]:
    """(mean, std / sqrt(n)) of x with the bits of ``np.mean`` and
    ``np.std``: their two-pass formula, run in place, so x is overwritten."""
    n = x.size
    mean = x.sum() / n
    x -= mean
    np.multiply(x, x, out=x)
    return float(mean), float(np.sqrt(x.sum() / n) / math.sqrt(n))


def verify_geometric_moment(
    p: float, r: float, n_terms: int = 10**6
) -> GeometricMomentReport:
    """Directly sum E[X^r] for X geometric(p) and compare with
    2^(r-1) (Gamma(r+1)/p^r + 1).

    The sum runs over k <= n_terms (an integer >= 1) and stops early where
    the terms underflow to 0.0; an analytic bound covers k > n_terms.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    if r < 1.0:
        raise DomainError("r must be >= 1")
    if not isinstance(n_terms, Integral) or n_terms < 1:
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    log_p, log_q = math.log(p), math.log1p(-p)

    def newton(x: float) -> float:  # one step towards f(x) = _LOG_UNDERFLOW
        f = r * math.log(x) + log_p + (x - 1.0) * log_q
        return x - (f - _LOG_UNDERFLOW) / (r / x + log_q)

    # The log-term f(k) = r log k + log p + (k-1) log q is concave, with its
    # mode at r/(-log q) and f >= log p > _LOG_UNDERFLOW there.  A Newton
    # step from twice the mode lands at or past the root beyond the mode;
    # later steps fall towards it without crossing it.  Every term past an
    # iterate is exactly 0.0, so the sum stops at one.
    x = newton(2.0 * r / -log_q)
    while x < n_terms:
        nxt = newton(x)
        if x - nxt < 1.0:
            break
        x = nxt
    last = math.ceil(x) if x < n_terms else n_terms  # x is nan where 2r/(-log q) overflows
    ks = np.arange(1, last + 1, dtype=float)
    log_terms = r * np.log(ks) + log_p + (ks - 1.0) * log_q
    moment = float(np.exp(log_terms).sum())
    # beyond n the term ratio is at most exp(r/(n+1)) (1-p) < 1
    rho = math.exp(r / (n_terms + 1.0)) * (1.0 - p)
    if rho < 1.0:
        log_next = r * math.log(n_terms + 1.0) + log_p + n_terms * log_q
        tail = math.exp(log_next) / (1.0 - rho) if log_next > -745.0 else 0.0
    else:
        tail = math.inf
    # the cap 2^(r-1) (Gamma(r+1)/p^r + 1); +inf where it passes the largest double, 2^1024
    log_cap = math.lgamma(r + 1.0) - r * math.log(p)
    fits = r - 1.0 + log_cap * LOG2E < 1024.0
    bound = 2.0 ** (r - 1.0) * (math.exp(log_cap) + 1.0) if fits else math.inf
    return GeometricMomentReport(
        p=p, r=r, n_terms=n_terms, moment_sum=moment, tail_bound=tail, bound=bound
    )


def _exact_finite_pmf(pair: DistributionPair, cap: int = 2 * 10**6) -> IndexPmf:
    """Truncate a finite pair's index law where the tail underflows to zero."""
    lb = log_beta(pair, np.flatnonzero(np.asarray(pair.p.probs)))
    rates = [-math.log1p(-math.exp(b)) if math.exp(b) < 1.0 else math.inf for b in lb]
    rate = min(rates)
    n = 16 if math.isinf(rate) else min(int(745.0 / rate) + 2, cap)
    return index_pmf(pair, n)


def verify_lb_via_optimal_code(
    pair: DistributionPair,
    alpha_grid=(0.3, 0.5, 0.7, 0.9),
) -> list[CheckReport]:
    """Exact index law of a small finite pair: every code's order-t cost
    must clear both lower bounds.

    Costs are evaluated under the optimal one-to-one lengths and under
    prefix codes; the pmf is sorted nonincreasing first (the one-to-one
    optimum assumes it).  A law whose truncation leaves more than dust in
    the tail raises DomainError: its truncated costs may fall below the
    floor with no code at fault.
    """
    if not isinstance(pair.p, Finite) or len(pair.p.probs) > 12:
        raise DomainError("exact verification needs a finite pair with support <= 12")
    pmf = _exact_finite_pmf(pair)
    if not pmf.tail_is_dust:
        raise DomainError(
            f"the exact index law leaves tail mass {pmf.tail_mass:.3g} beyond "
            f"{pmf.n_max} indices; its code costs cannot be checked"
        )
    ordered = IndexPmf(np.sort(pmf.probs)[::-1], pmf.tail_mass)
    label = f"finite:{','.join(f'{x:g}' for x in pair.p.probs)}"
    reports = []
    for alpha in alpha_grid:
        t = (1.0 - alpha) / alpha
        floor = max(lb1(pair, alpha), lb2(pair, alpha))
        for lf, lf_name in (
            (OneToOne(), "onetoone"),
            (PowerLaw(0.5), "powerlaw:0.5"),
            (Universal(0.5), "universal:0.5"),
        ):
            cost = campbell_cost(ordered, lf, t).value
            reports.append(
                CheckReport(
                    check="code",
                    subject=f"{label}/{lf_name}",
                    alpha=alpha,
                    passed=cost >= floor - 1e-9,
                    details=f"cost={cost:.4f} floor={floor:.4f}",
                )
            )
    return reports


def _check_geometric() -> list[CheckReport]:
    reports = []
    for p in (0.1, 0.5, 0.9):
        for r in (1.0, 1.5, 2.0, 3.0):
            rep = verify_geometric_moment(p, r)
            reports.append(
                CheckReport(
                    check="geometric",
                    subject=f"p={p},r={r}",
                    alpha=None,
                    passed=rep.passed,
                    details=f"sum={rep.moment_sum:.6g} cap={rep.bound:.6g}",
                )
            )
    return reports


def _check_draws(seed: int, n_samples: int) -> tuple[list[CheckReport], list[CheckReport]]:
    """The ``moments`` and ``logmoment`` families, from one draw per pair.

    Pair i draws from ``derive_stream(seed, 100 + i)``; pair 3,
    N(0,1)|N(1,1), also checks the moment under a relabeling drawn from
    stream 199, which keeps the lower bound valid.
    """
    perm = derive_stream(seed, 199).permutation(10**4) + 1
    moments, logmoments, permuted = [], [], []
    for i, (label, pair) in enumerate(DEFAULT_PAIRS):
        rng = derive_stream(seed, 100 + i)
        log_rep, rep, perm_rep = verify_draw(pair, 0.5, n_samples, rng, perm if i == 3 else None)
        moments.append(
            CheckReport(
                check="moments",
                subject=label,
                alpha=0.5,
                passed=rep.passed,
                details=(
                    f"emp={rep.empirical_moment:.5g} "
                    f"band=[{rep.floor:.5g},{rep.cap:.5g}] "
                    f"se={rep.std_error:.2g}"
                ),
            )
        )
        logmoments.append(
            CheckReport(
                check="logmoment",
                subject=label,
                alpha=None,
                passed=log_rep.passed,
                details=f"emp={log_rep.empirical:.4f} bound={log_rep.bound:.4f}",
            )
        )
        if perm_rep is not None:
            permuted.append(
                CheckReport(
                    check="moments",
                    subject=label + "/permuted",
                    alpha=0.5,
                    passed=perm_rep.passed,
                    details=f"emp={perm_rep.empirical_moment:.5g} floor={perm_rep.floor:.5g}",
                )
            )
    return moments + permuted, logmoments


def _check_code() -> list[CheckReport]:
    reports = []
    for label, pair in DEFAULT_PAIRS[:3]:
        reports.extend(verify_lb_via_optimal_code(pair))
    return reports


def _check_soundness(c1_offset: float) -> list[CheckReport]:
    reports = []
    alphas = np.linspace(0.25, 0.99, 8)
    _, caps = _ub1_search([pair for _, pair in DEFAULT_PAIRS], alphas)
    for (label, pair), row in zip(DEFAULT_PAIRS, caps):
        floors = np.maximum(lb1(pair, alphas), lb2(pair, alphas))
        for alpha, floor, cap in zip(alphas.tolist(), floors.tolist(), row.tolist()):
            cap += c1_offset
            reports.append(
                CheckReport(
                    check="soundness",
                    subject=label,
                    alpha=alpha,
                    passed=floor <= cap + 1e-9,
                    details=f"lb={floor:.4f} ub={cap:.4f}",
                )
            )
    return reports


def _check_band() -> list[CheckReport]:
    reports = []
    alphas = np.linspace(0.05, 0.95, 19)
    for label, pair in DEFAULT_PAIRS:
        worst = math.inf
        ok = True
        for alpha, d in zip(alphas.tolist(), renyi_divergence(pair, alphas + 1.0).tolist()):
            lo, hi = moment_band(alpha, d)
            worst = min(worst, hi - lo)
            ok = ok and lo <= hi
        reports.append(
            CheckReport(
                check="band",
                subject=label,
                alpha=None,
                passed=ok,
                details=f"min_width={worst:.4g}",
            )
        )
    return reports


def run_suite(
    seed: int = 42,
    n_samples: int = 10**6,
    only: str | None = None,
    c1_offset: float = 0.0,
) -> list[CheckReport]:
    """Run the verification suite; returns one report per check instance.

    ``only`` restricts to a single check family; ``c1_offset`` shifts the
    first upper bound's constant (negative values are a deliberate-fault
    hook for exercising the failure path).
    """
    if only is not None and only not in CHECK_NAMES:
        raise DomainError(f"unknown check {only!r}; options: {', '.join(CHECK_NAMES)}")
    reports: list[CheckReport] = []
    if only in (None, "geometric"):
        reports.extend(_check_geometric())
    if only in (None, "moments", "logmoment"):
        moments, logmoments = _check_draws(seed, n_samples)
        if only != "logmoment":
            reports.extend(moments)
        if only != "moments":
            reports.extend(logmoments)
    if only in (None, "code"):
        reports.extend(_check_code())
    if only in (None, "soundness"):
        reports.extend(_check_soundness(c1_offset))
    if only in (None, "band"):
        reports.extend(_check_band())
    return reports
