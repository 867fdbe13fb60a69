"""Adaptive quadrature, batched scalar minimization, and log-domain arithmetic.

Everything downstream (density ratios, index distributions, cost bounds)
funnels its numerical work through this module.  Quadrature is adaptive
Gauss-Kronrod (G7/K15) with bisection over the real line, the one domain
any caller needs; the map x = t / (1 - t^2) takes it onto (-1, 1), so no
arbitrary truncation points appear anywhere.  Integrands are
array-to-array: each panel evaluates its 15 nodes in one call, so an
integrand maps an array of points to an array of values (or a float that
broadcasts to it), with numpy operations rather than ``math`` ones or
Python branches.  ``minimize_scalar(f, lo, hi)`` searches the window
[lo, hi], or one window per row of a batch when lo and hi are arrays,
with the grid scan as one array evaluation and golden-section refinement
run in lockstep over the rows; its grid size and refinement budget are
fixed.  Batched results rest on one condition: numpy's ufuncs give a
value the same bits alone as inside an array (``log_gamma``, which numpy
lacks, maps ``math.lgamma``), so a row of a batch gets the bits of its
own one-row call.  An objective may skip work at points that cannot win
their row (ub1's search takes ``log_gamma`` only where a grid point can),
within the contract ``minimize_scalar`` states.  ``write_text`` writes
every CSV table and SVG chart of pfrsim, to a path or to an open file.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError, NonFiniteError

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2


def write_text(f, text: str) -> None:
    """Write ``text`` to the file at path ``f``, replacing it, or to the open text file ``f``.

    A path is opened with ``newline=""``, so ``\n`` stays ``\n`` on every platform."""
    if isinstance(f, (str, bytes, os.PathLike)):
        with open(f, "w", newline="") as opened:
            opened.write(text)
    else:
        f.write(text)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive integration.

    Convergence requires the accumulated error estimate to drop below
    ``max(abs_tol, rel_tol * |integral|)`` before ``max_subdivisions``
    panels exist.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (QUADPACK dqk15).
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993945,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
# Gauss-7 weights, attached to _XGK indices 1, 3, 5 and the centre node.
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# All 15 Kronrod nodes/weights on [-1, 1], centre listed once.
_NODES15 = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_WEIGHTS15 = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])


def _phi(t):
    """x = t / (1 - t^2): maps t in (-1, 1) onto the real line."""
    return t / (1.0 - t * t)


def _jac(t):
    """dx/dt of ``_phi``."""
    s = 1.0 - t * t
    return (1.0 + t * t) / (s * s)


def _panel_rule(g: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Apply G7/K15 to g on [a, b]; returns (kronrod, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    t = c + h * _NODES15
    y = g(t)
    if not np.all(np.isfinite(y)):
        bad = t[~np.isfinite(y)][0]
        raise NonFiniteError(f"integrand non-finite at parameter {float(bad)!r}")
    k15 = h * float(np.dot(_WEIGHTS15, y))
    # Gauss points sit at indices 1,3,5,7(centre),9,11,13 of the 15-node layout.
    g7 = h * float(
        _WG[0] * (y[1] + y[13])
        + _WG[1] * (y[3] + y[11])
        + _WG[2] * (y[5] + y[9])
        + _WG[3] * y[7]
    )
    return k15, abs(k15 - g7)


_SEED_PANELS = 8


def _adaptive_panels(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec):
    """Integrate f over the real line as f(_phi(t)) _jac(t) over (-1, 1).

    Adaptively bisects (-1, 1); returns (value, panel breakpoints in t).
    """

    def g(t: np.ndarray) -> np.ndarray:
        return f(_phi(t)) * _jac(t)

    edges = np.linspace(-1.0, 1.0, _SEED_PANELS + 1)
    heap = []  # (-error, lo, hi, value)
    total_val = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _panel_rule(g, lo, hi)
        heapq.heappush(heap, (-e, lo, hi, v))
        total_val += v
        total_err += e

    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        if len(heap) >= spec.max_subdivisions:
            raise NonConvergenceError(
                f"quadrature error {total_err:.3e} above tolerance after "
                f"{len(heap)} panels"
            )
        neg_e, lo, hi, v = heapq.heappop(heap)
        total_err += neg_e  # neg_e == -e
        total_val -= v
        mid = 0.5 * (lo + hi)
        for p, q in ((lo, mid), (mid, hi)):
            pv, pe = _panel_rule(g, p, q)
            heapq.heappush(heap, (-pe, p, q, pv))
            total_val += pv
            total_err += pe

    return total_val, sorted({lo for _, lo, _, _ in heap} | {1.0})


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec | None = None,
) -> float:
    """Integrate f over the real line.

    ``f`` is array-to-array: it is called on a panel's 15 nodes at once
    and returns their values, or a float for a constant.  A NaN or
    infinite value raises NonFiniteError.
    """
    return _adaptive_panels(f, spec or QuadratureSpec())[0]


def quadrature_grid(
    fs: Sequence[Callable[[np.ndarray], np.ndarray]],
    spec: QuadratureSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Build one node/weight grid on the real line adequate for every pilot in fs.

    Each pilot is array-to-array, as for ``integrate``.  Runs the adaptive
    subdivision separately per pilot, merges the panel breakpoints, and
    lays K15 nodes on each merged panel.  For any g of comparable
    difficulty, ``sum(w * g(x))`` then approximates the integral of g over
    the real line.  Nodes are returned sorted, weights include the
    jacobian of the map onto (-1, 1).
    """
    spec = spec or QuadratureSpec()
    breakpoints: set[float] = {-1.0, 1.0}
    for f in fs:
        breakpoints.update(_adaptive_panels(f, spec)[1])

    edges = np.array(sorted(breakpoints))
    centers = 0.5 * (edges[:-1] + edges[1:])
    halfwidths = 0.5 * (edges[1:] - edges[:-1])
    t = (centers[:, None] + halfwidths[:, None] * _NODES15[None, :]).ravel()
    w = (halfwidths[:, None] * _WEIGHTS15[None, :]).ravel()
    x = _phi(t)
    w = w * _jac(t)
    order = np.argsort(x)
    return x[order], w[order]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Grid points of the scan, golden-section steps at most, and the bracket
#: width at which a row stops refining.
_GRID_POINTS = 200
_REFINE_ITERS = 60
_TOL = 1e-9


def minimize_scalar(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Coarse grid scan followed by golden-section refinement, per row.

    ``lo`` and ``hi`` are floats for one search window, or 1-D arrays of
    one length for one window per row (a float applies to every row); each
    window needs 0 < lo < hi.  ``f`` maps a (rows, k) array of points, row
    i inside window i, to the values there (an array of that shape, or one
    that broadcasts to it).  The grid scan is one call on
    (rows, ``_GRID_POINTS``).  Golden-section refinement then runs in
    lockstep, one probe per row per call; a row stops once its bracket is
    narrower than ``_TOL``, and every row after ``_REFINE_ITERS`` steps.
    A stopped row probes its own interior point c again, which it has
    already probed, so every probe is checked and the row's bracket does
    not move.  A row's arithmetic and comparisons are those of a search of
    its window alone, so each row returns what a one-row search would.

    ``f`` need not be exact where its value cannot matter: at a point whose
    value exceeds its row's least in that call, f may return any value that
    also exceeds that least.  Such a point never survives, because the
    least point sits beside it in every comparison it enters (the grid's
    argmin, c against d, and the final best), so the search returns the
    same point and value.  The choice must be row-local, made from the
    row's own points in that call, so that a row of a batch keeps the
    bits of its one-row search.

    Returns the best probed point and its value: floats for one float
    window, else arrays with one entry per row.  Each value is thus a
    certified upper bound on min f even when f is multimodal.  Values of
    +inf are treated as valid "infinitely bad" probes (divergent bounds
    rely on this); NaN and -inf raise.
    """
    try:
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    except ValueError as exc:
        raise DomainError(f"lo and hi differ in length: {exc}") from None
    if lo.ndim > 1:
        raise DomainError("lo and hi must be floats or 1-D arrays")
    if not np.all((0.0 < lo) & (lo < hi)):
        raise DomainError("require 0 < lo < hi")
    single = lo.ndim == 0
    lo, hi = np.atleast_1d(lo, hi)
    rows = np.arange(lo.size)

    def probe(x: np.ndarray) -> np.ndarray:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            y = np.broadcast_to(y, x.shape)
        valid = y > -math.inf  # false for NaN and -inf
        if np.count_nonzero(valid) != valid.size:
            raise NonFiniteError(f"objective non-finite at {x[~valid][0]!r}")
        return y

    xs = np.linspace(lo, hi, _GRID_POINTS, axis=-1)
    ys = probe(xs)
    i = np.argmin(ys, axis=1)
    best_x, best_y = xs[rows, i], ys[rows, i]

    # when a == b the interior points repeat the grid minimum, which
    # changes nothing below
    a = xs[rows, np.maximum(i - 1, 0)]
    b = xs[rows, np.minimum(i + 1, _GRID_POINTS - 1)]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = probe(np.stack([c, d], axis=1)).T
    for _ in range(_REFINE_ITERS):
        live = np.abs(b - a) >= _TOL
        if not live.any():
            break
        left = live & (fc < fd)
        right = live & ~left
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        # the new c of a left step, the new d of a right one; a stopped row probes its c again
        step = _INV_GOLDEN * (b - a)
        x = np.where(left, b - step, np.where(right, a + step, c))
        fx = probe(x[:, None])[:, 0]
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
    for x, y in ((c, fc), (d, fd)):
        better = y < best_y
        best_x = np.where(better, x, best_x)
        best_y = np.where(better, y, best_y)
    if single:
        return float(best_x[0]), float(best_y[0])
    return best_x, best_y


def log_gamma(x):
    """Natural log of the gamma function for x > 0, entry by entry.

    numpy has no lgamma, so ``math.lgamma`` is mapped over the entries; a
    float comes back as a float, anything else as an array of its shape.
    """
    if not np.all(np.asarray(x) > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if np.ndim(x) == 0:
        return math.lgamma(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def log2_sum_exp(values) -> float:
    """log2(sum(2**v)) evaluated without overflow; -inf entries drop out."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    if m == math.inf:
        return math.inf
    return m + math.log2(float(np.sum(np.exp2(arr - m))))
