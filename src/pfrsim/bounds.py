"""Lower and upper bounds on the order-t cost of communicating the index.

Two lower bounds hold for any sampling algorithm over shared randomness,
two upper bounds are achieved by the Poisson-process selection rule with
suitable integer codes.  All values are in bits, parameterized by the
entropy order alpha in (0, 1) (equivalently t = (1 - alpha) / alpha).
Upper bounds carry a slack parameter epsilon that ``optimize_ub``
optimizes out: ub1's by a search, ub2's as its closed-form minimizer.
Every bound broadcasts over arrays of alpha and epsilon, so a sweep
optimizes epsilon for all its orders at once.  Their logarithms are numpy
ufuncs, which give a value the same bits alone as inside an array, so
each entry has the bits of a scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import DistributionPair, Laplace, kl_divergence, renyi_divergence
from .errors import AbsoluteContinuityError, DomainError, EpsilonRangeError, OrderError
from .numerics import LN2, LOG2E, log_gamma, minimize_scalar

#: The epsilon window (lo, hi) that ``optimize_ub`` searches for ub1.
_EPS_WINDOW = (1e-4, 50.0)

#: ln(2 pi) / 2, the constant of Stirling's series.
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

#: Rounding slack of ``_log_gamma_bracket``, relative to the summed
#: magnitudes of Stirling's terms.  Unwidened, the bracket misses
#: ``math.lgamma`` by up to 5.3e-16 of them (2.4 ulps) on x in [1, 1e300].
_BRACKET_SLACK = 8.0 * 2.0**-52

#: The columns of a sweep table, each named after a ``BoundSet`` attribute.
SWEEP_COLUMNS = ("alpha", "lb1", "lb2", "lb_max", "ub1", "ub1_eps", "ub2", "ub2_eps")


def check_alpha(alpha) -> None:
    """Raise ``OrderError`` unless alpha, a float or an array, lies in (0, 1) throughout."""
    a = np.asarray(alpha)
    if np.count_nonzero((0.0 < a) & (a < 1.0)) != a.size:
        raise OrderError(f"alpha must lie in (0, 1), got {alpha}")


def _check_epsilon(epsilon) -> None:
    e = np.asarray(epsilon)
    if np.count_nonzero(e > 0.0) != e.size:
        raise EpsilonRangeError(f"epsilon must be positive, got {epsilon}")


def _require_mutual_ac(pair: DistributionPair) -> None:
    if not pair.mutually_absolutely_continuous():
        raise AbsoluteContinuityError(
            "lower bounds require mutually absolutely continuous P and Q"
        )


def lb1(pair: DistributionPair, alpha):
    """First lower bound: divergence of order 1/alpha plus a negative constant."""
    check_alpha(alpha)
    _require_mutual_ac(pair)
    d = renyi_divergence(pair, 1.0 / alpha)
    return d + (alpha / (1.0 - alpha)) * np.log2(alpha) - 1.0


def lb2(pair: DistributionPair, alpha):
    """Second lower bound: divergence of order 2 - alpha; tighter near alpha = 1."""
    check_alpha(alpha)
    _require_mutual_ac(pair)
    d = renyi_divergence(pair, 2.0 - alpha)
    # log2(1 / (2 - alpha)) / (1 - alpha), without cancellation near alpha = 1
    return d - np.log1p(1.0 - alpha) / ((1.0 - alpha) * LN2)


def c1(alpha, epsilon):
    """Constant term of the first upper bound, in bits.

    Two regimes: a moment of order below one gives the small constant;
    otherwise the geometric-moment route contributes a log-gamma term,
    which is evaluated only where it applies.
    """
    check_alpha(alpha)
    _check_epsilon(epsilon)
    return _c1(alpha, epsilon)


def _c1(alpha, epsilon):
    out, gamma, log_term = _c1_cases(alpha, epsilon)
    if np.count_nonzero(gamma):
        order = np.asarray((1.0 + epsilon * (1.0 - alpha)) / alpha)
        lg = np.zeros(order.shape)
        lg[gamma] = log_gamma(order[gamma])
        out = np.where(gamma, _c1_gamma_case(alpha, epsilon, lg, log_term), out)
    return out if np.ndim(out) else float(out)


def _c1_cases(alpha, epsilon):
    """c1's first case, where its log-gamma case applies instead, and log2(1 + 1/eps)."""
    log_term = np.log2(1.0 + 1.0 / epsilon)
    one_plus = 1.0 + epsilon
    # case split at eps = (2a-1)/(1-a), rearranged to avoid cancellation;
    # the boundary itself belongs to the log-gamma case
    return one_plus * LOG2E + 1.0 + log_term, alpha * (2.0 + epsilon) <= one_plus, log_term


def _c1_gamma_case(alpha, epsilon, lg, log_term):
    """c1's log-gamma case, given lg = ln Gamma((1 + eps(1-alpha))/alpha) and
    log_term = log2(1 + 1/eps); increasing in lg, rounding included."""
    return (
        (alpha / (1.0 - alpha)) * lg * LOG2E
        + 4.0
        + 3.0 * epsilon
        - 2.0 * alpha / (1.0 - alpha)
        + log_term
    )


def _log_gamma_bracket(x):
    """Floats (lower, upper) around ``math.lgamma(x)`` for x > 1, with no lgamma call.

    Stirling's series S(x) = (x - 1/2) ln x - x + ln(2 pi)/2 with Binet's
    remainder gives S(x) < ln Gamma(x) < S(x) + 1/(12x); both ends are
    widened by ``_BRACKET_SLACK`` times the summed magnitudes of S's terms,
    which covers the rounding of S and of lgamma.  Where S overflows (x
    beyond about 2.5e305) the ends are NaN, quietly: ``_ub1_search`` then
    takes lgamma at that point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = (x - 0.5) * np.log(x)  # >= 0 for x > 1
        s = t - x + _HALF_LN_2PI
        slack = _BRACKET_SLACK * (t + x + _HALF_LN_2PI)
        return s - slack, s + 1.0 / (12.0 * x) + slack


def ub1(pair: DistributionPair, alpha, epsilon):
    """First upper bound: scaled divergence of order (1 + eps(1-alpha))/alpha plus c1.

    Broadcasts over arrays of alpha and epsilon; +inf where the divergence
    is infinite.
    """
    check_alpha(alpha)
    _check_epsilon(epsilon)
    return _ub1(pair, alpha, epsilon)


def _ub1(pair: DistributionPair, alpha, epsilon):
    d = renyi_divergence(pair, (1.0 + epsilon * (1.0 - alpha)) / alpha)
    return (1.0 + epsilon) * d + _c1(alpha, epsilon)


def c2(epsilon):
    """Constant term of the universal-code upper bound, in bits."""
    _check_epsilon(epsilon)
    return 3.0 + epsilon + np.log2(math.log(2.0) / epsilon + 1.5)


def _ub2_defined(alpha):
    """Where ub2 is defined: alpha < 1 and 3 alpha - 2 > 0 as computed.

    The computed difference, not alpha > 2/3: one ulp above the float 2/3
    it rounds to 0, which leaves no admissible epsilon.
    """
    a = np.asarray(alpha)
    return (3.0 * a - 2.0 > 0.0) & (a < 1.0)


def ub2_epsilon_max(alpha):
    """Largest admissible epsilon for the universal-code bound."""
    if np.count_nonzero(_ub2_defined(alpha)) != np.size(alpha):
        raise OrderError(f"alpha must lie in (2/3, 1) with 3 alpha - 2 > 0, got {alpha}")
    return (3.0 * alpha - 2.0) / (2.0 - 2.0 * alpha)


def ub2(pair: DistributionPair, alpha, epsilon):
    """Universal-code upper bound: divergence of order (2-alpha)/alpha plus
    a log-of-divergence term and c2.

    Broadcasts over arrays of alpha and epsilon; +inf where a divergence
    is infinite.
    """
    eps_max = ub2_epsilon_max(alpha)
    if not np.all((0.0 < epsilon) & (epsilon <= eps_max)):
        ceiling = f"{eps_max:.6g}" if np.ndim(eps_max) == 0 else "ub2_epsilon_max(alpha)"
        raise EpsilonRangeError(f"epsilon must lie in (0, {ceiling}], got {epsilon}")
    d = renyi_divergence(pair, (2.0 - alpha) / alpha)
    return d + (1.0 + epsilon) * math.log2(kl_divergence(pair) + 1.0) + c2(epsilon)


def optimize_ub(pair: DistributionPair, alpha, which: str = "ub1"):
    """Minimize an upper bound over its admissible epsilon range.

    ``alpha`` is a float, or a 1-D array of orders, each with the result a
    float order gives.  Returns (epsilon, value), floats for a float alpha
    and arrays shaped like alpha otherwise; a value may be +inf when every
    admissible epsilon hits an infinite divergence.  ub1's epsilon is
    searched, each order one row of one ``minimize_scalar`` call over
    [1e-4, 50].  ub2 depends on epsilon only through the convex
    (1 + eps) log2(KL + 1) + c2(eps), so its epsilon is that term's
    closed-form minimizer, capped at ``ub2_epsilon_max``.
    """
    orders = np.asarray(alpha, dtype=float)
    if which == "ub1":
        check_alpha(orders)  # epsilons are checked by the window, not on each probe
        eps, value = (x.reshape(orders.shape) for x in _ub1_search([pair], orders.reshape(-1)))
        return (float(eps), float(value)) if orders.ndim == 0 else (eps, value)
    if which != "ub2":
        raise ValueError(f"unknown bound {which!r}")
    # the term's derivative A - 1 / (eps ln 2 + 1.5 eps^2), A = log2(KL + 1) + 1,
    # vanishes at (sqrt(ln^2 2 + 6/A) - ln 2) / 3, here rationalized
    kl = kl_divergence(pair)
    if not math.isfinite(kl):
        raise DomainError(f"the KL divergence of {pair.p} from {pair.q} is infinite: "
                          "ub2 has no admissible epsilon")
    slope = math.log2(kl + 1.0) + 1.0
    root = 2.0 / (slope * (LN2 + math.sqrt(LN2 * LN2 + 6.0 / slope)))
    eps = np.minimum(root, ub2_epsilon_max(orders))
    value = ub2(pair, orders, eps)
    return (float(eps), float(value)) if orders.ndim == 0 else (eps, value)


def _ub1_search(pairs: Sequence[DistributionPair], alphas: np.ndarray):
    """ub1's epsilon search for each pair at each of the 1-D ``alphas``.

    One ``minimize_scalar`` call over [1e-4, 50], a row per (pair, order),
    pair by pair; returns (epsilon, value) arrays of shape
    (len(pairs), alphas.size).  The objective is ``_ub1`` on each pair's
    rows, with c1 taken once for all rows, except where ln Gamma cannot
    matter: in each call, a gamma-case point whose value at the lower end
    of ``_log_gamma_bracket`` exceeds its row's least value at the upper
    ends cannot be that row's least, so it gets that lower value, above
    the least, and no lgamma call.  ``minimize_scalar`` allows this, so
    each row has the bits of a search on ``_ub1``.
    """
    column = np.tile(alphas, len(pairs)).reshape(-1, 1)
    blocks = [(pair, slice(i * alphas.size, (i + 1) * alphas.size)) for i, pair in enumerate(pairs)]

    def objective(e):
        order = (1.0 + e * (1.0 - column)) / column
        d = np.concatenate([renyi_divergence(pair, order[rows]) for pair, rows in blocks])
        first, gamma, log_term = _c1_cases(column, e)
        scaled = (1.0 + e) * d
        value = scaled + first

        def at(lg):
            return np.where(gamma, scaled + _c1_gamma_case(column, e, lg, log_term), value)

        lg, need = np.zeros(e.shape), gamma
        if e.shape[1] > 1:  # a row of one point is its own least
            lg, upper = _log_gamma_bracket(order)
            # NaN is kept, and surfaces
            need = gamma & ~(at(lg) > at(upper).min(axis=1, keepdims=True))
        lg[need] = log_gamma(order[need])
        return at(lg)

    lo, hi = (np.full(column.size, x) for x in _EPS_WINDOW)
    eps, value = minimize_scalar(objective, lo, hi)
    return eps.reshape(len(pairs), -1), value.reshape(len(pairs), -1)


@dataclass(frozen=True)
class BoundSet:
    """All four bounds at one order, with the optimizing epsilons."""

    alpha: float
    lb1: float
    lb2: float
    ub1: float
    ub1_eps: float | None
    ub2: float | None = None
    ub2_eps: float | None = None

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if max(self.lb1, self.lb2) > self.ub1 + 1e-9:
            raise AssertionError(
                f"soundness violated at alpha={self.alpha}: "
                f"max(lb)={max(self.lb1, self.lb2):.6g} > ub1={self.ub1:.6g}"
            )

    @property
    def lb_max(self) -> float:
        return max(self.lb1, self.lb2)

    @property
    def cells(self) -> tuple:
        """The row's cells, in the order of ``SWEEP_COLUMNS``."""
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS)


def sweep(pair: DistributionPair, alpha_grid: Iterable[float]) -> list[BoundSet]:
    """Evaluate every bound on a grid of orders, epsilon-optimized per row.

    Each bound is evaluated on the whole grid at once: one ``optimize_ub``
    call for ub1, whose epsilon searches run together, and one for ub2 on
    the orders where it is defined, those with 3 alpha - 2 > 0; the other
    rows get no ub2.  A row whose upper bound is +inf gets no epsilon for
    it, since every epsilon gave +inf.
    """
    alphas = np.array(sorted(float(a) for a in alpha_grid))
    if not alphas.size:
        return []
    e1, v1 = optimize_ub(pair, alphas, "ub1")
    e1 = np.where(np.isinf(v1), None, e1)
    # the orders where ub2 is defined are the tail of the sorted grid
    split = alphas.size - int(np.count_nonzero(_ub2_defined(alphas)))
    e2, v2 = optimize_ub(pair, alphas[split:], "ub2")
    e2 = [None] * split + np.where(np.isinf(v2), None, e2).tolist()
    v2 = [None] * split + v2.tolist()
    columns = zip(
        alphas.tolist(),
        lb1(pair, alphas).tolist(),
        lb2(pair, alphas).tolist(),
        v1.tolist(),
        e1.tolist(),
        v2,
        e2,
    )
    return [
        BoundSet(alpha=a, lb1=l1, lb2=l2, ub1=u1, ub1_eps=x1, ub2=u2, ub2_eps=x2)
        for a, l1, l2, u1, x1, u2, x2 in columns
    ]


def default_alpha_grid(pair: DistributionPair) -> np.ndarray:
    """160-order figure grids: (0.2, 0.995) for Gaussian pairs, (0.05, 0.995) for Laplacian."""
    lo = 0.05 if isinstance(pair.p, Laplace) else 0.2
    return np.linspace(lo, 0.995, 160)


def format_cell(x: float | str | None) -> str:
    """A CSV cell: ``.12g``, ``inf`` for an infinite value, empty for None; text as it is."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV table: the header line, then one line of ``format_cell`` cells per row."""
    lines = [",".join(header), *(",".join(map(format_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"
