"""Integer code-length functions and exponential-cost / entropy evaluation.

Only length assignments are materialized, never concrete codewords:
every quantity of interest (Kraft sums, the order-t cost, entropy
brackets) depends on lengths alone.  Cost evaluation happens in the
log2 domain because 2**(t * n_k) overflows doubles long before the
sums themselves become unwieldy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import check_alpha
from .errors import DomainError
from .numerics import LN2, log2_sum_exp
from .pfr import IndexPmf


@dataclass(frozen=True)
class PowerLaw:
    """Prefix code with n_k = ceil((1+eps) log2 k + 1 + log2(1 + 1/eps))."""

    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise DomainError("epsilon must be positive")

    def lengths(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        c = 1.0 + math.log2(1.0 + 1.0 / self.epsilon)
        return np.ceil((1.0 + self.epsilon) * np.log2(k) + c)


@dataclass(frozen=True)
class Universal:
    """Prefix code with n_k = ceil(log2 k + (1+eps) log2 log2(k+1) + 1 + log2(ln2/eps + 3/2))."""

    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise DomainError("epsilon must be positive")

    def lengths(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        c = 1.0 + math.log2(LN2 / self.epsilon + 1.5)
        return np.ceil(
            np.log2(k) + (1.0 + self.epsilon) * np.log2(np.log2(k + 1.0)) + c
        )


@dataclass(frozen=True)
class OneToOne:
    """Injective (not uniquely decodable) code: n_k = floor(log2(k+1))."""

    def lengths(self, k: np.ndarray) -> np.ndarray:
        return np.floor(np.log2(np.asarray(k, dtype=float) + 1.0))


LengthFunction = Union[PowerLaw, Universal, OneToOne]


def length(lf: LengthFunction, k: int) -> int:
    """Codeword length for index k >= 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return int(lf.lengths(np.array([k]))[0])


def lengths(lf: LengthFunction, ks) -> np.ndarray:
    ks = np.asarray(ks)
    if np.any(ks < 1):
        raise DomainError("indices must be >= 1")
    return lf.lengths(ks)


def kraft_sum(lf: LengthFunction, n_terms: int) -> tuple[float, float]:
    """(partial, tail_bound): sum of 2**-n_k for k <= n_terms plus an analytic
    bound on the remaining series.

    Tail bounds come from integral comparison of the un-ceiled length
    formulas; the one-to-one code's series diverges (tail bound +inf).
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    ks = np.arange(1, n_terms + 1, dtype=np.int64)
    partial = float(np.exp2(-lf.lengths(ks).astype(float)).sum())
    if isinstance(lf, PowerLaw):
        e = lf.epsilon
        tail = n_terms ** (-e) / (2.0 * (1.0 + e))
    elif isinstance(lf, Universal):
        e = lf.epsilon
        l2n = math.log2(max(n_terms, 2))
        tail = LN2 * l2n ** (-e) / (2.0 * (LN2 + 1.5 * e))
    else:
        tail = math.inf
    return partial, tail


@dataclass(frozen=True)
class CampbellCost:
    """Order-t cost of a truncated pmf: the truncated value, and the upper end
    of a bracket [value, upper] for the untruncated cost."""

    value: float
    upper: float


def campbell_cost(pmf: IndexPmf, lf: LengthFunction, t: float) -> CampbellCost:
    """(1/t) log2 sum p(k) 2**(t n_k) over the truncated pmf.

    The truncated value is itself a lower bound on the untruncated cost.
    The upper end equals it where the tail is dust and is +inf otherwise:
    nothing bounds the lengths a code gives the tail.
    """
    if not t > 0.0:
        raise DomainError("t must be positive")
    ks = np.arange(1, pmf.n_max + 1, dtype=np.int64)
    ns = lf.lengths(ks).astype(float)
    with np.errstate(divide="ignore"):
        logp = np.log2(pmf.probs)
    terms = logp + t * ns
    value = log2_sum_exp(terms[np.isfinite(terms)]) / t
    return CampbellCost(value, value if pmf.tail_is_dust else math.inf)


def renyi_entropy(pmf: IndexPmf, alpha: float) -> tuple[float, float]:
    """Bracket [lower, upper] for the order-alpha entropy of the full law.

    The truncated power sum gives the lower end exactly; the upper end
    adds the pmf's bound on the tail power sum.  Both are floored at 0,
    since H_alpha >= 0: a head of little mass has a power sum below 1.
    """
    check_alpha(alpha)
    p = pmf.probs[pmf.probs > 0.0]
    head = float(np.sum(p**alpha))
    lower = max(math.log2(head) / (1.0 - alpha), 0.0)
    upper = max(math.log2(head + pmf.tail_power_sum_bound(alpha)) / (1.0 - alpha), 0.0)
    return lower, upper

