"""Exact index sampling over shared randomness and the index distribution.

Two samplers produce the transmitted index K with its accepted sample:

* The selection rule: arrival times of a rate-one Poisson process are
  divided by the density ratio at i.i.d. reference draws, and K is the
  argmin.  The argmin ranges over infinitely many candidates, so
  iteration stops either exactly (bounded ratio) or once the expected
  number of future improvements falls below a caller-supplied ``delta``
  (unbounded ratio).  One loop runs it on a list of generators side by
  side, reading r through the one closed form the pair holds: ``run_pfr``
  is its one-generator case and returns one outcome, and ``run_pfr_many``
  runs it on the seeded streams ``derive_stream(root_seed, i)``, i < n,
  and returns arrays.  Every stream makes the draws it makes alone.
* ``sample_indices`` draws n accepted samples from the target first and
  then each index from its conditional geometric law with success
  probability beta(u); the joint law matches the selection rule exactly
  and the cost is O(1) per draw, which is the only tractable route when
  E[K] is astronomically large.  The work runs in cache-sized blocks
  over a thread pool of the call's own, one helper per further CPU: the
  caller's thread draws from the generator block by block, in the order
  of two whole-array calls; helpers run the blocks drawn, and the
  caller's thread draws their uniforms and finishes them, in order.  The
  results do not depend on how many CPUs there are.  An exception
  cancels the blocks not yet started and reaches the caller once the
  started ones are done.  At every draw count, K comes from
  a squeeze (Marsaglia 1977; Devroye 1986, section II.5): K =
  max(ceil(x / t), 1) with x = log(1 - v) and t = log(1 - beta), and x /
  t = -x exp(ell - g) with g = log(-t) + ell, a function of ell = log
  r(u) alone.  g is the sum of ell + log beta, which never falls in ell,
  and log(-t / beta), which never rises, so a table on evenly spaced
  nodes of ell bounds g at a point from its parts at the two nodes
  around it, widened by margins that bound their rounding errors.  In
  units of K that bracket is about as wide as the node spacing at every
  K, heavy pairs included.  Where the gap from its lower end up to the
  next integer is wider, that integer is K, and beta is worked out only
  at the other points, so every index keeps the bits it has without the
  table.

``index_pmf`` integrates the conditional geometric law against the
target density on one quadrature grid shared by every k, reporting the
truncated pmf and the exact tail mass.  ``IndexPmf`` alone decides about
the untruncated tail: whether it is dust, and a bound on its power sums
from checkpoint probabilities and moment bounds that ``index_pmf``
attaches.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import DistributionPair, Gaussian, renyi_divergence
from .errors import (
    DomainError, IndexOverflowError, IterationCapError, NegativeTailError, NonConvergenceError
)
from .numerics import LOG2E, QuadratureSpec, log2_sum_exp, quadrature_grid, write_text

#: The least index past the unsigned 64-bit range (2**64 - 1 has no float).
_UINT64_END = 2.0**64

#: Moment orders whose bounds ``index_pmf`` attaches to an IndexPmf.
_CERT_MOMENT_ORDERS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Tail checkpoints past n_max grow by this ratio, up to this index.
_CERT_RATIO, _CERT_MAX_K = 2.0**0.25, 1e12

#: Tail mass at or below this level is renormalization dust (floating-point
#: residue of an exact pmf), not genuine tail.
_DUST_TAIL = 1e-12


def derive_stream(root_seed: int, i: int) -> np.random.Generator:
    """Stream i of a batch: seeded by root_seed XOR i.

    This is the definition of stream i: ``run_pfr_many`` seeds a chunk of
    streams in one array pass and gets exactly these generators.
    """
    if root_seed < 0 or i < 0:
        raise DomainError("root_seed and i must be >= 0")
    return np.random.default_rng(root_seed ^ i)


# numpy's SeedSequence hash on its default pool of four 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k <= n, as a uint32 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _WORD)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` with constants ``consts[j]`` and ``consts[j + 1]`` on row j."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of pool words x and hashed words y."""
    r = x * _MIX_L - y * _MIX_R
    r ^= r >> 16
    return r


class _GivenState(ISeedSequence):
    """A seed sequence that generates one given row: PCG64 asks it for four uint64 words."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _chunk_streams(root_seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """``derive_stream(root_seed, i)`` for start <= i < stop, seeded in one array pass.

    PCG64 seeds from ``SeedSequence(root_seed ^ i).generate_state(4, np.uint64)``.
    That hash runs here on every stream at once, in uint32 arithmetic: its
    hash constants are the same for every stream.  Entropy shorter than the
    pool hashes as if padded with zero words.  A root of 2**128 or more
    takes one more mixing round per word beyond four, and ``i`` < 2**64
    leaves its word count alone.
    """
    i = np.arange(start, stop, dtype=np.uint64)
    n_words = max(4, -(-root_seed.bit_length() // 32))
    entropy = np.empty((n_words, i.size), dtype=np.uint32)
    for j in range(n_words):
        entropy[j] = root_seed >> (32 * j) & _WORD
    entropy[0] ^= (i & _WORD).astype(np.uint32)
    entropy[1] ^= (i >> 32).astype(np.uint32)
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * n_words + 4)
    pool = _hashmix(entropy[:4], consts[:5])
    k = 4
    for src in range(4):  # every pool word into every other
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    for src in range(4, n_words):  # entropy beyond the pool into every pool word
        pool = _mix(pool, _hashmix(entropy[src], consts[k : k + 5]))
        k += 4
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    state = (words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32).T.copy()
    return [np.random.Generator(np.random.PCG64(_GivenState(row))) for row in state]


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


@dataclass
class IndexPmf:
    """Truncated index distribution: P(K=k) for k=1..N plus explicit tail mass.

    The tail beyond N is bounded here alone.  ``index_pmf`` attaches
    ``_checkpoints``, (k, P(K=k)) on a geometric ladder beyond N, and
    ``_moment_log2_bounds``, (r, log2 B_r) with E[K^r] <= B_r from
    closed-form divergences; a pmf built without them bounds no tail that
    is not dust.
    """

    probs: np.ndarray
    tail_mass: float
    _checkpoints: tuple[tuple[int, float], ...] = field(default=(), repr=False)
    _moment_log2_bounds: tuple[tuple[float, float], ...] = field(default=(), repr=False)

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

    @property
    def tail_is_dust(self) -> bool:
        """Whether the tail mass is floating-point residue (at most 1e-12), not genuine tail."""
        return self.tail_mass <= _DUST_TAIL

    def tail_power_sum_bound(self, alpha: float) -> float:
        """Upper bound on sum_{k > n_max} P(K=k)**alpha, for 0 < alpha < 1.

        0.0 for a dust tail, and +inf for any other tail without checkpoints.
        Otherwise monotonicity makes each checkpoint block at most (block
        width) times the leading checkpoint probability to the alpha; the
        remainder past the last checkpoint M combines Holder's inequality
        with a moment bound:  sum p^a <= (E[K^r 1{K>M}])^a (sum_{k>M} k^-s)^(1-a),
        s = r a / (1-a) > 1.
        """
        if self.tail_is_dust:
            return 0.0
        if not self._checkpoints:
            return math.inf
        ks = [self.n_max] + [k for k, _ in self._checkpoints]
        ps = [float(self.probs[-1])] + [p for _, p in self._checkpoints]
        total = 0.0
        for (ka, pa), kb in zip(zip(ks, ps), ks[1:]):
            if kb > ka and pa > 0.0:
                total += (kb - ka) * pa**alpha
        log2m = math.log2(ks[-1])
        best = math.inf
        for r, log2_moment in self._moment_log2_bounds:
            s = r * alpha / (1.0 - alpha)
            if s <= 1.0 + 1e-9:
                continue
            log2_rem = alpha * log2_moment + (1.0 - alpha) * (
                (1.0 - s) * log2m - math.log2(s - 1.0)
            )
            best = min(best, log2_rem)
        if not best < 1024.0:  # 2**best overflows a double
            return math.inf
        return total + 2.0**best

    def to_csv(self, f) -> None:
        """Write rows ``k,prob`` followed by a final ``tail,<tail_mass>`` row."""
        rows = [f"{k},{p:.17g}\n" for k, p in enumerate(self.probs.tolist(), start=1)]
        write_text(f, "".join(["k,prob\n", *rows, f"tail,{self.tail_mass:.17g}\n"]))


#: log(1 - beta) at beta == 1, standing in for -inf.
_LOG1M_FLOOR = -1e300


def _log1m_from_log_beta(log_beta_vals: np.ndarray) -> np.ndarray:
    """log(1 - beta) from log(beta); ``_LOG1M_FLOOR`` stands in for -inf at beta == 1."""
    b = np.exp(np.minimum(log_beta_vals, 0.0))
    with np.errstate(divide="ignore"):
        out = np.log1p(-b)
    # log1p(-b) is -inf or above about -745, so the floor changes only -inf
    return np.maximum(out, _LOG1M_FLOOR, out=out)


def _log1m_beta(pair: DistributionPair, u) -> np.ndarray:
    """log(1 - beta(u)) on an array, -1e300 standing in for -inf at beta == 1."""
    return _log1m_from_log_beta(log_beta(pair, u))


def log_beta(pair: DistributionPair, u):
    """Natural log of the geometric success probability beta(u).

    beta(u)^-1 = E_{U~Q} max{r(u), r(U)} = r(u) Q(r <= r(u)) + P(r > r(u))
    for the density ratio r = dP/dQ, from the masses of its superlevel set
    at r(u) (``DistributionPair.superlevel_masses``), which have a closed
    form for every kind.  Accepts scalars or arrays; finite pairs take
    support indices.
    """
    # finite pairs: once per support point, then gathered
    if pair.is_finite_kind:
        return _log_beta_at(pair, pair.support_log_ratios())[0][np.asarray(u, dtype=int)]
    return _log_beta_at(pair, pair.log_ratio(u))[0]


def _log_beta_at(pair: DistributionPair, log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log beta at the level log r = ``log_c``, and log P(r > c) there.

    beta depends on u only through r(u), so ``log_beta`` is this function
    of ``log_ratio(u)``, and the squeeze table takes it at its nodes.
    """
    log_p, log_q = pair.superlevel_masses(log_c)
    with np.errstate(divide="ignore"):
        a = log_c + np.log(-np.expm1(log_q))
    del log_q  # large batches: keep few full-size arrays alive at once
    # np.logaddexp, written out: several times faster on arrays
    return -(np.maximum(a, log_p) + np.log1p(np.exp(-np.abs(a - log_p)))), log_p


#: Points per block of ``sample_indices``.  A block's arrays are 256 kB,
#: so its temporaries stay near a core's cache, and the fixed cost of its
#: few dozen numpy calls stays a few percent of its work.  2**14 and 2**16
#: were no faster on ``verify``.
_BLOCK = 2**15


#: Nodes of a squeeze table at most: its 2 * nodes + 1 float64 entries
#: fit in 512 kB.  At a power-of-two spacing, a table holds between half
#: and all of them.
_SQUEEZE_NODES = 2**15 - 1

#: A pair whose table leaves a larger share undecided keeps the exact path.
_SQUEEZE_MAX_SHARE = 0.25

#: A node whose relative margin would exceed this is left undecided.
_SQUEEZE_MAX_MARGIN = 1e-6

#: Nodes per pass of the table's build: its temporaries stay small.
_BUILD_CHUNK = 2**12

_EPS = float(np.finfo(float).eps)


class _Squeeze(NamedTuple):
    """Upper bounds on g = log(-t) + ell, t = log(1 - beta), on nodes and cells of ell = log r.

    Node j, 1 <= j <= N, sits at ell = (base + j) / scale; ``scale`` is a
    power of two, so ell * scale is exact and so is a point's place.  The
    sampler's x / t is -x exp(ell - g), and g = a + b, where a never falls
    in ell and b never rises (``_g_parts``), so between two nodes g lies
    below a at the right node plus b at the left, and on a node, the cell
    from the node to itself, below a plus b there (``_bounds``).
    ``g[2j - 1]`` bounds g at points on node j, ``g[2j]`` between nodes j
    and j + 1, and ``g[0]`` and ``g[2N]`` stand for the points below and
    above the nodes.  An entry holds its bound where the bracket it gives
    on e = exp(ell - g) = -1 / t is at most ``width`` wide; elsewhere it
    is +inf, which decides nothing.
    """

    scale: float
    base: float
    g: np.ndarray
    width: float

    def ends(self, log_r: np.ndarray, out: np.ndarray) -> None:
        """Each point's lower end e = exp(ell - g) into ``out``, from ell = ``log_r``."""
        # floor + ceil of the place, less 2 base + 1: 2j - 1 on node j, 2j
        # between nodes j and j + 1
        pos = np.multiply(log_r, self.scale, out=out)
        # fmax sends nan below the first node
        np.fmax(pos, self.base + 0.5, out=pos)
        np.fmin(pos, self.base + len(self.g) // 2 + 0.5, out=pos)
        places = np.floor(pos)
        np.ceil(pos, out=pos)
        places += pos
        places -= 2.0 * self.base + 1.0
        # one temporary: the indices go into ``out``, the entries into ``places``
        index = out.view(np.intp)
        index[...] = places
        g = np.take(self.g, index, out=places, mode="clip")  # "raise" would buffer
        np.exp(np.subtract(log_r, g, out=g), out=out)

    def decide(self, ends: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ceil(x / t) from the lower ends of e = -1 / t, and where they leave it open; uses ``ends``.

        With x = log(1 - v) <= 0, -x e lies at most -x ``width`` below
        x / t.  Where the gap from -x e up to its ceiling K is wider, K is
        ceil(x / t) as the exact path rounds it.
        """
        m = x * ends  # -(-x e)
        k = np.floor(m)  # -K
        gap = np.subtract(m, k, out=m)
        reach = np.multiply(x, -self.width, out=ends)
        undecided = np.flatnonzero(gap <= reach)  # +inf entries: e = 0, no gap
        return np.negative(k, out=k), undecided


class _Parts(NamedTuple):
    """The parts of g = log(-t) + ell at levels ell, and bounds on their errors (``_g_parts``)."""

    ell: np.ndarray
    a: np.ndarray  # ell + log beta: never falls in ell
    b: np.ndarray  # log(-t / beta): never rises
    err_a: np.ndarray
    err_b: np.ndarray
    err_lb: np.ndarray  # of log beta
    gain: np.ndarray  # dg / d(log beta) = beta / ((1 - beta) (-t)), at least 1; 0 at the floor
    rest: np.ndarray  # the relative error of t that log beta's error does not cause
    log_p: np.ndarray  # log P(r > c)


def _g_parts(pair: DistributionPair, ell: np.ndarray) -> _Parts:
    """The parts of g = log(-t) + ell at the levels ``ell``, and bounds on their errors.

    a = ell + log beta never falls in ell, since e^-a = Q(r <= c) + P(r >
    c) / c falls with c = e^ell; b = log(-t / beta) never rises, since
    -log(1 - beta) / beta rises with beta, which falls.  log beta sums
    terms of the size of ell, log beta and log P(r > c), each to a few
    ulps.  g = ell + F(log beta) with F' = ``gain``, so an error of log
    beta moves log(-t) by ``gain`` times it, a by itself, and b by only
    ``gain`` - 1 times it, about beta / 2 of it.  1 - beta also takes an
    ulp of a subnormal beta; the relative error of t grows as beta nears 1
    and 1 - beta cancels.  At the floor (beta == 1) ``gain`` and ``rest``
    are 0, before b's error is formed: no computed t lies lower, so t's
    error counts as 0 there.  Where twice t's relative error, ``gain``
    times log beta's plus ``rest``, would exceed ``_SQUEEZE_MAX_MARGIN``
    (1 - beta cancels, or beta underflows), every bound is +inf.
    """
    lb, log_p = _log_beta_at(pair, ell)
    t = _log1m_from_log_beta(lb)
    log_t = np.log(-t)
    err_lb = 64.0 * _EPS * (1.0 + np.abs(ell) + np.abs(lb) + np.where(log_p > -math.inf, -log_p, 0.0))
    one_minus = np.exp(t) * -t  # (1 - beta) (-t)
    gain = np.exp(np.minimum(lb, 0.0)) / one_minus
    rest = 2.0**-1074 / one_minus + 4.0 * _EPS
    floor = t == _LOG1M_FLOOR
    gain[floor] = rest[floor] = 0.0
    a, b = ell + lb, log_t - lb
    err_a = err_lb + 2.0 * _EPS * (1.0 + np.abs(a))
    err_b = np.abs(gain - 1.0) * err_lb + rest + 4.0 * _EPS * (1.0 + np.abs(log_t) + np.abs(b))
    bad = ~(2.0 * (gain * err_lb + rest) <= _SQUEEZE_MAX_MARGIN)
    for x in (err_a, err_b, gain, rest):
        x[bad] = math.inf
    return _Parts(ell, a, b, err_a, err_b, err_lb, gain, rest, log_p)


def _bounds(parts: _Parts, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on g and their widths in units of exp(ell - g), node, cell, node, ..., node.

    Entry e spans nodes i = floor(e / 2) and j = ceil(e / 2): a node is
    the cell from a node to itself.  There g lies between a at i plus b at
    j and a at j plus b at i, each within its error, and the point's
    log(-t) within ``gain`` times log beta's error, plus the rest, of g:
    neither is above its larger value at the two nodes (|ell| by at most h
    where j > i).  Each bound also covers its own rounding and the
    sampler's, of ell - g and of exp.  A width also covers the product
    with x and the rounding of the gap.
    """
    p = parts
    e = np.arange(2 * p.ell.size - 1)
    i, j = e // 2, (e + 1) // 2
    point = (np.maximum(p.gain[i], p.gain[j]) * (np.maximum(p.err_lb[i], p.err_lb[j]) + 64.0 * _EPS * h * (j - i))
             + np.maximum(p.rest[i], p.rest[j]))
    right = p.ell[j]
    hi = p.a[j] + p.b[i] + (p.err_a[j] + p.err_b[i] + point)
    lo = p.a[i] + p.b[j] - (p.err_a[i] + p.err_b[j] + point)
    # rounding: of the bounds and of g's own sum, at most 2 ulps each
    hi += 4.0 * _EPS * (1.0 + np.abs(hi) + np.abs(right))
    lo -= 4.0 * _EPS * (1.0 + np.abs(lo) + np.abs(right))
    slack = 8.0 * _EPS * (2.0 + h + np.abs(right) + np.abs(hi))  # ell - g and exp
    hi += slack
    width = np.exp(right - hi + slack) * (np.expm1(hi - lo + slack) + 64.0 * _EPS)
    width *= 1.0 + 64.0 * _EPS
    drop = ~(width < math.inf)  # nan too
    hi[drop], width[drop] = math.inf, math.inf
    return hi, width


@lru_cache(maxsize=64)
def _squeeze_table(pair: DistributionPair) -> _Squeeze | None:
    """The pair's squeeze table, or None where the exact path stays.

    The nodes cover the values of ell on all but about 2e-9 of P's mass,
    at most ``_SQUEEZE_NODES`` of them at a power-of-two spacing h.  g
    comes from the pair alone, in chunks of ``_BUILD_CHUNK`` nodes; no
    generator draws.  An entry decides nothing where a node's margin
    exceeds ``_SQUEEZE_MAX_MARGIN`` (``_g_parts``), below the last node at
    the floor and in the cell above it (where beta is 1, a computed t may
    lie above the floor, and log(-t) is infinite), and where its width
    exceeds the table's.  That width is the power of two w that minimizes
    the predicted undecided share, w P(width <= w) + P(width > w), then
    narrowed to the widest entry it keeps.  -x is 1 on average, and a
    cell's width is about h (P(r > c) + beta / 2), so the share is near h
    at every K: the bracket on K does not widen with it.  A table whose
    predicted share exceeds ``_SQUEEZE_MAX_SHARE`` is not kept.  Cached,
    as ``_stop_delta`` is.

    Finite pairs read their support table instead.  Gaussian pairs of
    unequal variances keep the exact path: their level sets take a square
    root that loses half the digits near the ratio's extremum, an error
    that this margin does not bound.
    """
    p, q = pair.p, pair.q
    if pair.is_finite_kind or isinstance(p, Gaussian) and p.sigma != q.sigma:
        return None
    with np.errstate(all="ignore"):
        # all but about 2e-9 of P's mass, and the locations, where a Laplace ratio bends
        if isinstance(p, Gaussian):
            span, bends = p.transform(np.array([-6.0, 6.0])), []
        else:
            span, bends = p.transform(np.array([1e-9, 1.0 - 1e-9])), [p.theta, q.theta]
        ell = pair.log_ratio(np.clip([*span, *bends], span[0], span[1]))
        ell_lo, ell_hi = float(ell.min()), float(ell.max())
        if not (math.isfinite(ell_lo) and math.isfinite(ell_hi)):
            return None
        h = 2.0 ** math.ceil(math.log2(max(ell_hi - ell_lo, 1e-200) / (_SQUEEZE_NODES - 3)))
        if not max(-ell_lo, ell_hi) / h < 2.0**50:  # node numbers exact in a double
            return None
        first = math.floor(ell_lo / h)
        size = math.ceil(ell_hi / h) - first + 1
        # node i (from 0) at entry 2i + 1, the cell above it at 2i + 2
        table, width = np.full(2 * size + 1, math.inf), np.full(2 * size + 1, math.inf)
        above = np.empty(size)  # P(ell > node)
        floor = -1  # the last node at the floor
        for start in range(0, size, _BUILD_CHUNK):
            stop = min(start + _BUILD_CHUNK, size)
            nodes = np.arange(first + start, first + min(stop + 1, size)) * h  # and the next node
            parts = _g_parts(pair, nodes)
            hi, wide = _bounds(parts, h)
            n = stop - start
            m = min(hi.size, 2 * n)  # not the next chunk's first node
            table[2 * start + 1 : 2 * start + 1 + m], width[2 * start + 1 : 2 * start + 1 + m] = hi[:m], wide[:m]
            above[start:stop] = np.exp(parts.log_p[:n])
            at_floor = np.flatnonzero(parts.gain[:n] == 0.0)
            if at_floor.size:
                floor = start + int(at_floor[-1])
        if floor >= 0:
            table[: 2 * floor + 1] = width[: 2 * floor + 1] = math.inf
            table[2 * floor + 2] = width[2 * floor + 2] = math.inf
        w = _table_width(width, above)
        if w is None:
            return None
        table[width > w] = math.inf
    return _Squeeze(1.0 / h, first - 1.0, table, float(np.max(width, where=width <= w, initial=0.0)))


def _table_width(width: np.ndarray, above: np.ndarray) -> float | None:
    """The power of two w that minimizes the predicted undecided share, or None where it is too large.

    ``width`` holds the entries' widths, ``above`` P(ell > node).  A point
    between nodes i - 1 and i, or on node i, is decided with chance 1 -
    w -x at most where both entries are at most w wide (-x being 1 on
    average), and never elsewhere; the points on the first node and below
    are counted with that node, and the points above the last as
    undecided.
    """
    mass = np.maximum(np.subtract(np.concatenate(([1.0], above[:-1])), above), 0.0)
    wider = np.maximum(width[0:-1:2], width[1::2])
    wider[0] = width[1]
    exponent = np.frexp(np.maximum(wider, 2.0**-1022))[1]
    kept = wider <= 1.0  # a wider entry decides hardly any point
    if not kept.any():  # every point undecided
        return None if 1.0 > _SQUEEZE_MAX_SHARE else 0.0
    low = int(exponent[kept].min())
    share = np.cumsum(np.bincount(exponent[kept] - low, weights=mass[kept]))
    w = np.ldexp(1.0, np.arange(low, low + share.size))
    share = w * share + (1.0 - share)
    best = int(np.argmin(share))
    if share[best] > _SQUEEZE_MAX_SHARE:
        return None
    return float(w[best])


def _helpers() -> int:
    """The CPUs this process may run on, besides the caller's thread."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # not on every platform
        return (os.cpu_count() or 1) - 1


def _run_blocks(
    n_blocks: int,
    fill: Callable[[int], None],
    run_block: Callable[[int], None],
    finish: Callable[[int], None],
) -> None:
    """Call ``fill(i)``, ``run_block(i)`` and ``finish(i)`` once for each i < n_blocks.

    The caller's thread calls ``fill(i)`` for each i in order, and then
    ``finish(i)`` for each i in order once block i has run.  With two
    blocks or more and a spare CPU, helpers run the blocks: a pool of the
    call's own, one helper per further CPU, gets ``run_block(i)`` once
    block i is filled.  Otherwise the caller's thread runs each block
    just before finishing it.  An exception cancels the blocks not
    started and reaches the caller once the started ones are done.
    """
    helpers = _helpers() if n_blocks > 1 else 0
    if helpers < 1:
        for i in range(n_blocks):
            fill(i)
        for i in range(n_blocks):
            run_block(i)
            finish(i)
        return
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms to import (logging among it)

    pool = ThreadPoolExecutor(helpers, thread_name_prefix="pfrsim-block")
    try:
        futures = []
        for i in range(n_blocks):
            fill(i)
            futures.append(pool.submit(run_block, i))
        for i, future in enumerate(futures):
            future.result()  # a helper's exception, raised here
            finish(i)
    finally:
        pool.shutdown(cancel_futures=True)


def sample_indices(
    pair: DistributionPair, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact sampler: n draws of (K, U_K).

    The generator draws as two whole-array calls would, ``pair.p.raw``
    for all n accepted samples and then ``random(n)`` for the geometric
    draws, but in blocks of ``_BLOCK`` points on the caller's thread:
    numpy fills an array in order, so the draws and the final generator
    state are the same.  The rest is elementwise and runs per block on a
    thread pool of the call's own (see ``_run_blocks``).  Once a block's
    samples are drawn, a helper runs its transform and log(1 - beta)
    while the generator draws on, log(1 - beta) going into the block's
    slice of the index array; then the caller's thread draws the block's
    uniforms into one reused buffer and turns them into its indices.
    Each block runs under the sampler's own numpy error state rather than
    the caller's, and every entry gets the bits it gets alone, whatever
    the CPU count.  beta is in closed form for every pair, so the cost is
    O(1) per draw; a finite pair's is worked out once per support point,
    on the caller's thread, and gathered.

    At every draw count, the pair's squeeze table (``_squeeze_table``:
    built once per pair on the caller's thread, at its first draw, and
    None where it does not pay) replaces most of that work.  The helpers
    then write each point's lower end of -1 / t, exp(ell - g) with g read
    from the table at ell = log r(u), into the block's slice of the index
    array in place of log(1 - beta).  The caller's thread takes K where
    the gap from -x times that end up to the next integer is wider than
    -x times the table's width.  At the other points alone it computes
    log(1 - beta), after drawing the block's uniforms; beta's underflow
    shows there, since no entry decides a point where it underflows.
    Nothing the table computes outlives its block.

    Indices are returned as float64 (they can exceed int64 for heavy
    pairs).  ``IndexOverflowError`` is raised once every block has
    finished: first where beta underflows, else where an index exceeds
    the unsigned 64-bit range.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    table = _squeeze_table(pair) if n else None
    # beta takes one value per support point of a finite pair: worked out
    # once, on the caller's thread, and gathered in each block
    support = _log1m_beta(pair, np.arange(len(pair.p.probs))) if pair.is_finite_kind else None
    u, k = np.empty(n), np.empty(n)
    v = np.empty(min(n, _BLOCK))  # one block's uniforms at a time
    n_blocks = -(-n // _BLOCK)
    underflow, overflow = [False] * n_blocks, [False] * n_blocks
    # the sampler's own error state, whichever thread runs a block;
    # overflow only makes the +inf indices of a subnormal beta
    errstate = dict(divide="warn", over="ignore", under="ignore", invalid="warn")

    def fill(i: int) -> None:
        pair.p.raw(rng, u[i * _BLOCK : (i + 1) * _BLOCK])

    def run_block(i: int) -> None:
        s = slice(i * _BLOCK, (i + 1) * _BLOCK)
        with np.errstate(**errstate):
            ub = pair.p.transform(u[s])
            if table is not None:
                table.ends(pair.log_ratio(ub), k[s])
            else:
                k[s] = _log1m_beta(pair, ub) if support is None else support[ub]
                underflow[i] = (k[s] == 0.0).any()
        u[s] = ub

    def finish(i: int) -> None:
        s = slice(i * _BLOCK, (i + 1) * _BLOCK)
        ks = k[s]
        vb = rng.random(out=v[: ks.size])
        if underflow[i]:
            return
        # out of place: the same bits in place left glibc's heap fragmented
        # across calls, and the peak RSS of repeated ``verify`` runs 6 MB higher
        with np.errstate(**errstate):
            x = np.log(1.0 - vb)
            if table is None:
                kb = np.ceil(x / ks)
            else:
                kb, undecided = table.decide(ks, x)
                if undecided.size:  # the exact path, on these points alone
                    t = _log1m_beta(pair, u[s][undecided])
                    if (t == 0.0).any():
                        underflow[i] = True
                        return
                    kb[undecided] = np.ceil(x[undecided] / t)
        overflow[i] = (kb >= _UINT64_END).any()
        np.maximum(kb, 1.0, out=ks)

    _run_blocks(n_blocks, fill, run_block, finish)
    if any(underflow):
        raise IndexOverflowError("beta underflows double precision")
    if any(overflow):
        raise IndexOverflowError("a geometric index exceeds the unsigned 64-bit range")
    return k, u


@lru_cache(maxsize=64)
def _stop_delta(pair: DistributionPair, delta: float) -> float | None:
    """The delta of the pair's stop test, or None where a bounded ratio stops exactly.

    Unbounded ratios without a finite E_Q[r^2] raise DomainError up front.
    Cached, because ``run_pfr`` draws once per call, and a loop of draws on
    one pair should pay for the setup (a divergence evaluation among it) once.
    """
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if math.isfinite(pair.log_ratio_sup()):
        return None
    if not math.isfinite(renyi_divergence(pair, 2.0)):
        raise DomainError(
            "unbounded density ratio with no finite ratio moment: "
            "no stopping rule applies (use sample_indices)"
        )
    return delta


#: Streams that ``run_pfr_many`` runs side by side, and the most candidates
#: it draws in one step (streams times block size).  They bound its
#: working memory to about a megabyte; larger values are no faster.
_BATCH_STREAMS = 256
_BATCH_CANDIDATES = 64 * _BATCH_STREAMS


def _select(
    pair: DistributionPair, delta: float | None, rngs: list[np.random.Generator], max_candidates: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """The selection rule on each generator of ``rngs``, side by side; a None ``delta`` stops exactly.

    Yields (streams, index, accepted, candidates examined) as streams stop,
    ``streams`` being positions in ``rngs``; streams capped by
    ``max_candidates`` come last, with index and accepted 0.  Per block,
    each generator draws its ``b`` arrival gaps, then its ``b`` raw
    reference draws, as it would alone; the arithmetic after the draws is
    one array pass over the live streams, whose state is compacted when
    some stop.  The block size depends only on the block count.
    """
    q, log_rmax = pair.q, pair.log_ratio_sup()
    live = np.arange(len(rngs))
    # last arrival time and best candidate so far; a +inf score (P zero at
    # every draw) never wins and passes no stop test
    t_last = np.zeros(live.size)
    best_score = np.full(live.size, np.inf)  # natural log of min T_i / r(U_i)
    best_index = np.zeros(live.size, dtype=np.int64)
    best_u = np.zeros(live.size, dtype=np.int64 if pair.is_finite_kind else float)
    m, block = 0, 64
    while m < max_candidates:
        b = min(block, max_candidates - m)
        step = _BATCH_CANDIDATES // b  # streams per step; b <= 8192
        for lo in range(0, live.size, step):
            rows = slice(lo, lo + step)
            ids = live[rows].tolist()
            times, raw = np.empty((2, len(ids), b))
            for j, s in enumerate(ids):
                rngs[s].standard_exponential(out=times[j])
                q.raw(rngs[s], raw[j])
            np.add.accumulate(times, axis=1, out=times)
            times += t_last[rows, None]
            t_last[rows] = times[:, -1]
            us = q.transform(raw)
            scores = np.log(times, out=times)
            scores -= pair.log_ratio(us)
            i = scores.argmin(axis=1)
            # a candidate replaces the best only with a lower score
            score = np.minimum.reduce(scores, axis=1)
            won = (score < best_score[rows]).nonzero()[0]
            if won.size:
                at, i = won + lo, i[won]
                best_score[at] = score[won]
                best_index[at] = i + (m + 1)
                best_u[at] = us[won, i]
        m += b
        block = min(block * 2, 8192)
        log_t = np.log(t_last)
        if delta is None:
            stop = log_t - log_rmax >= best_score
        else:
            # S P(r > c) - T Q(r > c) <= delta with c = T / S, tested as
            # S P <= delta + T Q in logs
            log_p, log_q = pair.superlevel_masses(log_t - best_score)
            stop = best_score + log_p <= np.logaddexp(math.log(delta), log_t + log_q)
        stopped = np.count_nonzero(stop)
        if stopped == live.size:
            yield live, best_index, best_u, m
            return
        if stopped:
            yield live[stop], best_index[stop], best_u[stop], m
            keep = ~stop
            live, t_last, best_score, best_index, best_u = (
                a[keep] for a in (live, t_last, best_score, best_index, best_u)
            )
    yield live, np.zeros_like(best_index), np.zeros_like(best_u), m


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
    Unbounded ratios without a finite E_Q[r^2] raise DomainError up front,
    and reaching ``max_candidates`` raises IterationCapError.  This is the
    one-generator case of the loop ``run_pfr_many`` runs.
    """
    delta = _stop_delta(pair, delta)
    _, index, accepted, examined = next(_select(pair, delta, [rng], max_candidates))
    if index.item() == 0:
        raise IterationCapError(f"no stopping decision after {examined} candidates")
    termination = "exact" if delta is None else "approximate"
    return PfrOutcome(index.item(), accepted.item(), examined, termination, delta)


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
    max_candidates)``: the streams run side by side in chunks of
    ``_BATCH_STREAMS``, each making the draws it makes alone.  Each chunk's
    generators are seeded in one array pass, which computes numpy's seed
    hash for every stream at once and yields exactly ``derive_stream``'s
    streams, at a fraction of its cost.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    root_seed = operator.index(root_seed)
    if root_seed < 0:
        raise DomainError("root_seed must be >= 0")
    delta = _stop_delta(pair, delta)
    index = np.zeros(n, dtype=np.int64)
    accepted = np.zeros(n, dtype=np.int64 if pair.is_finite_kind else float)
    examined = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BATCH_STREAMS):
        rngs = _chunk_streams(root_seed, start, min(start + _BATCH_STREAMS, n))
        for streams, *results in _select(pair, delta, rngs, max_candidates):
            index[start + streams], accepted[start + streams], examined[start + streams] = results
    termination = "exact" if delta is None else "approximate"
    return PfrBatch(index, accepted, examined, index == 0, termination, delta)


def _certificate_checkpoints(n_max: int):
    ks, k = [n_max], float(n_max)
    while k < _CERT_MAX_K:
        k *= _CERT_RATIO
        ks.append(max(int(math.ceil(k)), ks[-1] + 1))
    return ks[1:]


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
    return IndexPmf(probs, tail, _checkpoints=checkpoints,
                    _moment_log2_bounds=_moment_bounds_log2(pair))
