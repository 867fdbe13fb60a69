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
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")

    def lengths(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        c = 1.0 + math.log2(1.0 + 1.0 / self.epsilon)
        return np.ceil((1.0 + self.epsilon) * np.log2(k) + c)


@dataclass(frozen=True)
class Universal:
    """Prefix code with n_k = ceil(log2 k + (1+eps) log2 log2(k+1) + 1 + log2(ln2/eps + 3/2))."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")

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
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    ks = np.arange(1, pmf.n_max + 1, dtype=np.int64)
    ns = lf.lengths(ks).astype(float)
    with np.errstate(divide="ignore"):
        logp = np.log2(pmf.probs)
    terms = logp + t * ns
    value = log2_sum_exp(terms[np.isfinite(terms)]) / t
    return CampbellCost(value, value if pmf.tail_is_dust else math.inf)


def renyi_entropy(pmf: IndexPmf, alpha):
    """Bracket [lower, upper] for the order-alpha entropy of the full law.

    The truncated power sum gives the lower end exactly; the upper end
    adds the pmf's bound on the tail power sum.  Both are floored at 0,
    since H_alpha >= 0: a head of little mass has a power sum below 1,
    and an empty head (every probability 0) a power sum of 0.  ``alpha``
    is a float, or an array of orders, each entry with the bits a float
    order gives; returns floats, or two arrays shaped like alpha.  The
    head's power sums at every order come from one pass over the pmf.
    """
    check_alpha(alpha)
    orders = np.asarray(alpha, dtype=float)
    flat = orders.reshape(-1)
    heads = _power_sums(pmf.probs[pmf.probs > 0.0], flat)
    tails = pmf.tail_power_sum_bound(flat)
    lower, upper = np.empty(flat.size), np.empty(flat.size)
    for i, (a, head, tail) in enumerate(zip(flat.tolist(), heads.tolist(), tails.tolist())):
        lower[i] = max(_log2(head) / (1.0 - a), 0.0)
        upper[i] = max(_log2(head + tail) / (1.0 - a), 0.0)
    if orders.ndim == 0:
        return float(lower[0]), float(upper[0])
    return lower.reshape(orders.shape), upper.reshape(orders.shape)


def _log2(x: float) -> float:
    """log2 x, and -inf at 0 (an empty head's power sum)."""
    return math.log2(x) if x > 0.0 else -math.inf


#: Entries of p ** alpha that ``_power_sums`` holds at once.
_POWER_CHUNK = 2**18


def _power_sums(p: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """sum(p ** a) for each of the 1-D ``orders``, as ``np.sum(p ** a)`` gives it.

    Rows of orders at a time, each row summed as the 1-D array is.  numpy
    takes p ** 0.5 as sqrt(p), so that order does too.
    """
    sums = np.empty(orders.size)
    step = max(1, _POWER_CHUNK // max(p.size, 1))
    for start in range(0, orders.size, step):
        rows = orders[start : start + step]
        sums[start : start + rows.size] = (p ** rows[:, None]).sum(axis=1)
    half = orders == 0.5
    if half.any():
        sums[half] = np.sum(np.sqrt(p))
    return sums
