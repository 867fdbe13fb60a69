"""Lower and upper bounds on the order-t cost of communicating the index.

Two lower bounds hold for any sampling algorithm over shared randomness,
two upper bounds are achieved by the Poisson-process selection rule with
suitable integer codes.  All values are in bits, parameterized by the
entropy order alpha in (0, 1) (equivalently t = (1 - alpha) / alpha).
Upper bounds carry a slack parameter epsilon that callers optimize out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import DistributionPair, Laplace, kl_divergence, renyi_divergence
from .errors import AbsoluteContinuityError, EpsilonRangeError, OrderError
from .numerics import (
    LOG2E,
    MinimizeSpec,
    QuadratureSpec,
    log_gamma,
    minimize_scalar,
    open_text,
)

#: Default epsilon search window for bound optimization.
DEFAULT_EPS_SEARCH = MinimizeSpec(1e-4, 50.0)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise OrderError(f"alpha must lie in (0, 1), got {alpha}")


def _require_mutual_ac(pair: DistributionPair) -> None:
    if not pair.mutually_absolutely_continuous():
        raise AbsoluteContinuityError(
            "lower bounds require mutually absolutely continuous P and Q"
        )


def lb1(
    pair: DistributionPair, alpha: float, spec: QuadratureSpec | None = None
) -> float:
    """First lower bound: divergence of order 1/alpha plus a negative constant."""
    _check_alpha(alpha)
    _require_mutual_ac(pair)
    d = renyi_divergence(pair, 1.0 / alpha, spec)
    return d + (alpha / (1.0 - alpha)) * math.log2(alpha) - 1.0


def lb2(
    pair: DistributionPair, alpha: float, spec: QuadratureSpec | None = None
) -> float:
    """Second lower bound: divergence of order 2 - alpha; tighter near alpha = 1."""
    _check_alpha(alpha)
    _require_mutual_ac(pair)
    d = renyi_divergence(pair, 2.0 - alpha, spec)
    return d + math.log2(1.0 / (2.0 - alpha)) / (1.0 - alpha)


def c1(alpha: float, epsilon: float) -> float:
    """Constant term of the first upper bound, in bits.

    Two regimes: a moment of order below one gives the small constant;
    otherwise the geometric-moment route contributes a log-gamma term.
    """
    _check_alpha(alpha)
    if not epsilon > 0.0:
        raise EpsilonRangeError(f"epsilon must be positive, got {epsilon}")
    # case split at eps = (2a-1)/(1-a), rearranged to avoid cancellation;
    # the boundary itself belongs to the log-gamma case
    if alpha * (2.0 + epsilon) > 1.0 + epsilon:
        return (1.0 + epsilon) * LOG2E + 1.0 + math.log2(1.0 + 1.0 / epsilon)
    order = (1.0 + epsilon * (1.0 - alpha)) / alpha
    return (
        (alpha / (1.0 - alpha)) * log_gamma(order) * LOG2E
        + 4.0
        + 3.0 * epsilon
        - 2.0 * alpha / (1.0 - alpha)
        + math.log2(1.0 + 1.0 / epsilon)
    )


def ub1(
    pair: DistributionPair,
    alpha: float,
    epsilon: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """First upper bound: scaled divergence of order (1 + eps(1-alpha))/alpha plus c1."""
    _check_alpha(alpha)
    if not epsilon > 0.0:
        raise EpsilonRangeError(f"epsilon must be positive, got {epsilon}")
    order = (1.0 + epsilon * (1.0 - alpha)) / alpha
    d = renyi_divergence(pair, order, spec)
    if not math.isfinite(d):
        return math.inf
    return (1.0 + epsilon) * d + c1(alpha, epsilon)


def c2(epsilon: float, use_proof_constant: bool = False) -> float:
    """Constant term of the universal-code upper bound, in bits.

    The stated constant starts at 3; the derivation's final line supports
    2, exposed behind ``use_proof_constant`` for comparison only.
    """
    if not epsilon > 0.0:
        raise EpsilonRangeError(f"epsilon must be positive, got {epsilon}")
    base = 2.0 if use_proof_constant else 3.0
    return base + epsilon + math.log2(math.log(2.0) / epsilon + 1.5)


def ub2_epsilon_max(alpha: float) -> float:
    """Largest admissible epsilon for the universal-code bound."""
    if not 2.0 / 3.0 < alpha < 1.0:
        raise OrderError(f"alpha must lie in (2/3, 1), got {alpha}")
    return (3.0 * alpha - 2.0) / (2.0 - 2.0 * alpha)


def ub2(
    pair: DistributionPair,
    alpha: float,
    epsilon: float,
    spec: QuadratureSpec | None = None,
    use_proof_constant: bool = False,
) -> float:
    """Universal-code upper bound: divergence of order (2-alpha)/alpha plus
    a log-of-divergence term and c2."""
    eps_max = ub2_epsilon_max(alpha)
    if not 0.0 < epsilon <= eps_max:
        raise EpsilonRangeError(
            f"epsilon must lie in (0, {eps_max:.6g}], got {epsilon}"
        )
    d = renyi_divergence(pair, (2.0 - alpha) / alpha, spec)
    kl = kl_divergence(pair, spec)
    if not (math.isfinite(d) and math.isfinite(kl)):
        return math.inf
    return (
        d
        + (1.0 + epsilon) * math.log2(kl + 1.0)
        + c2(epsilon, use_proof_constant)
    )


def optimize_ub(
    pair: DistributionPair,
    alpha: float,
    which: str = "ub1",
    spec: MinimizeSpec = DEFAULT_EPS_SEARCH,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Minimize an upper bound over its admissible epsilon range.

    Returns (epsilon, value); value may be +inf when every admissible
    epsilon hits an infinite divergence.
    """
    if which == "ub1":
        objective = lambda e: ub1(pair, alpha, e, quad)
        window = spec
    elif which == "ub2":
        eps_max = ub2_epsilon_max(alpha)
        hi = min(spec.hi, eps_max)
        lo = min(spec.lo, hi / 2.0)
        window = MinimizeSpec(lo, hi, spec.grid_points, spec.refine_iters, spec.tol)
        objective = lambda e: ub2(pair, alpha, e, quad)
    else:
        raise ValueError(f"unknown bound {which!r}")
    eps, value = minimize_scalar(objective, window)
    return eps, value


@dataclass(frozen=True)
class BoundSet:
    """All four bounds at one order, with the optimizing epsilons."""

    alpha: float
    lb1: float
    lb2: float
    ub1: float
    ub1_eps: float
    ub2: float | None = None
    ub2_eps: float | None = None

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if max(self.lb1, self.lb2) > self.ub1 + 1e-9:
            raise AssertionError(
                f"soundness violated at alpha={self.alpha}: "
                f"max(lb)={max(self.lb1, self.lb2):.6g} > ub1={self.ub1:.6g}"
            )

    @property
    def lb_max(self) -> float:
        return max(self.lb1, self.lb2)


def sweep(
    pair: DistributionPair,
    alpha_grid: Iterable[float],
    spec: MinimizeSpec = DEFAULT_EPS_SEARCH,
    quad: QuadratureSpec | None = None,
) -> list[BoundSet]:
    """Evaluate every bound on a grid of orders, epsilon-optimized per row."""
    rows = []
    for alpha in sorted(float(a) for a in alpha_grid):
        e1, v1 = optimize_ub(pair, alpha, "ub1", spec, quad)
        if alpha > 2.0 / 3.0:
            e2, v2 = optimize_ub(pair, alpha, "ub2", spec, quad)
        else:
            e2, v2 = None, None
        rows.append(
            BoundSet(
                alpha=alpha,
                lb1=lb1(pair, alpha, quad),
                lb2=lb2(pair, alpha, quad),
                ub1=v1,
                ub1_eps=e1,
                ub2=v2,
                ub2_eps=e2,
            )
        )
    return rows


def default_alpha_grid(pair: DistributionPair, points: int = 160) -> np.ndarray:
    """Figure grids: (0.2, 0.995) for Gaussian pairs, (0.05, 0.995) for Laplacian."""
    lo = 0.05 if isinstance(pair.p, Laplace) else 0.2
    return np.linspace(lo, 0.995, points)


def _cell(x: float | None) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def sweep_to_csv(rows: Sequence[BoundSet], f) -> None:
    """Write the sweep schema: alpha,lb1,lb2,lb_max,ub1,ub1_eps,ub2,ub2_eps."""
    with open_text(f, "w") as f:
        f.write("alpha,lb1,lb2,lb_max,ub1,ub1_eps,ub2,ub2_eps\n")
        for r in rows:
            cells = [
                _cell(r.alpha),
                _cell(r.lb1),
                _cell(r.lb2),
                _cell(r.lb_max),
                _cell(r.ub1),
                _cell(r.ub1_eps),
                _cell(r.ub2),
                _cell(r.ub2_eps),
            ]
            f.write(",".join(cells) + "\n")
