"""Distribution pairs with density ratios and Renyi divergences.

Three kinds are supported: Gaussian, Laplace (both on R) and finite
discrete laws on {0, .., n-1}.  Closed-form divergences take an array of
orders, are evaluated in nats and converted at the boundary; every public
return value is in bits.  They use numpy's ufuncs, which give a value the
same bits alone as inside an array, so an array of orders gets, entry by
entry, the bits of each order alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import AbsoluteContinuityError, DomainError, OrderError, UnsupportedKindError
from .numerics import LN2, QuadratureSpec, integrate

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class _Special:
    """Stands in for scipy.special until first used, then binds it in its place.

    Python's import lock makes a thread that arrives during another's
    import wait for it, so the blocks of the exact sampler may race here
    when they compute beta.  A squeeze table is built on the calling
    thread at a pair's first draw, before any block runs, so a Gaussian
    pair that has one loads scipy there whatever the draw count.
    """

    def __getattr__(self, name: str):
        global _special
        import scipy.special

        _special = scipy.special
        return getattr(scipy.special, name)


_special = _Special()


class _Law:
    """What the three laws share; sampling is a raw draw, then a transform.

    A block of rows filled by ``raw`` from several generators transforms
    in one pass to the values each generator's ``sample`` gives.
    """

    @staticmethod
    def raw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` from one generator call (uniform on [0, 1) by default)."""
        return rng.random(out=out)

    def sample(self, rng: np.random.Generator, n: int):
        """n draws: ``transform`` of one ``raw`` call on a new array."""
        return self.transform(self.raw(rng, np.empty(n)))

    def density(self, u):
        return np.exp(self.log_density(u))

    def __post_init__(self) -> None:
        # the two fields of a continuous law: a location, then a scale
        (a, loc), (b, scale) = vars(self).items()
        if not (math.isfinite(loc) and 0.0 < scale < math.inf):
            raise DomainError(f"{a} and {b} must be finite, {b} > 0; got {loc}, {scale}")


@dataclass(frozen=True)
class Gaussian(_Law):
    """Normal law with mean mu and standard deviation sigma."""

    mu: float
    sigma: float

    def log_density(self, u):
        z = (np.asarray(u, dtype=float) - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _HALF_LOG_2PI

    @staticmethod
    def _standard_log_cdf(z):
        return _special.log_ndtr(z)

    @staticmethod
    def raw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return rng.standard_normal(out=out)

    def transform(self, z):
        return self.mu + self.sigma * z


@dataclass(frozen=True)
class Laplace(_Law):
    """Laplace law with location theta and scale lam (variance 2*lam**2)."""

    theta: float
    lam: float

    def log_density(self, u):
        z = np.abs(np.asarray(u, dtype=float) - self.theta) / self.lam
        return -z - math.log(2.0 * self.lam)

    @staticmethod
    def _standard_log_cdf(z):
        # log(e^z / 2) below 0, log(1 - e^-z / 2) above it, without a
        # branch: one temporary fewer than a select, which matters for the
        # million-point arrays of the exact sampler
        return np.log1p(-0.5 * np.exp(-np.maximum(z, 0.0))) + np.minimum(z, 0.0)

    def transform(self, v):
        # inverse CDF; the 1-2|c| term is floored to keep endpoint draws finite
        c = v - 0.5
        mag = np.maximum(1.0 - 2.0 * np.abs(c), 5e-324)
        return self.theta + self.lam * np.copysign(np.log(mag), c)


#: ``Finite.transform`` counts comparisons up to this many support points, and searches beyond.
_FINITE_COUNTED = 16


@dataclass(frozen=True)
class Finite(_Law):
    """Discrete law on support indices 0..len(probs)-1."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.size == 0 or not np.all(np.isfinite(p) & (p >= 0.0)):
            raise DomainError("probabilities must be finite, nonnegative and nonempty")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probs", tuple(float(x) for x in p))
        object.__setattr__(self, "_cumulative", np.cumsum(p))

    def density(self, i):
        return np.asarray(self.probs)[np.asarray(i, dtype=int)]

    def transform(self, v):
        # the count of cumulative entries at or below v, searchsorted's
        # side="right" index capped at the last point: on a few support
        # points, a comparison per entry costs a fraction of a search
        if len(self.probs) > _FINITE_COUNTED:
            return np.minimum(np.searchsorted(self._cumulative, v, side="right"), len(self.probs) - 1)
        idx = np.zeros(np.shape(v), dtype=np.intp)
        for c in self._cumulative[:-1].tolist():
            idx += v >= c
        return idx


Distribution = Union[Gaussian, Laplace, Finite]


def parse_distribution(text: str) -> Distribution:
    """Parse CLI syntax: normal:mu,sigma | laplace:theta,lambda | finite:p1,p2,..."""
    kind, _, args = text.partition(":")
    kind = kind.strip().lower()
    try:
        values = [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise DomainError(f"cannot parse distribution {text!r}") from exc
    if kind == "normal":
        if len(values) != 2:
            raise DomainError("normal takes exactly mu,sigma")
        return Gaussian(values[0], values[1])
    if kind == "laplace":
        if len(values) != 2:
            raise DomainError("laplace takes exactly theta,lambda")
        return Laplace(values[0], values[1])
    if kind == "finite":
        return Finite(tuple(values))
    raise DomainError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class DistributionPair:
    """A target/reference pair (P, Q) of the same kind with P << Q."""

    p: Distribution
    q: Distribution

    def __post_init__(self) -> None:
        if type(self.p) is not type(self.q):
            raise UnsupportedKindError(
                f"pair kinds differ: {type(self.p).__name__} vs {type(self.q).__name__}"
            )
        if isinstance(self.p, Finite):
            if len(self.p.probs) != len(self.q.probs):
                raise UnsupportedKindError("finite supports differ in size")
            for pi, qi in zip(self.p.probs, self.q.probs):
                if qi == 0.0 and pi > 0.0:
                    raise AbsoluteContinuityError(
                        "P is not absolutely continuous w.r.t. Q"
                    )
        else:
            # the closed forms and the ratio square each location, the gap, these over
            # a scale, each scale and the scale ratio, and divide by the last two
            (mp, sp), (mq, sq) = (vars(d).values() for d in (self.p, self.q))
            with np.errstate(all="ignore"):
                scales = np.array([sp, sq, sp / sq])
                locations = np.outer([mp, mq, mp - mq], [1.0, 1.0 / sp, 1.0 / sq])
                squares = np.square([*locations.flat, *scales, *(1.0 / scales)])
            if not np.isfinite(squares).all():
                raise DomainError(f"{self.p} and {self.q}: a squared location, scale, "
                                  "scale ratio or location gap leaves the double range")

    @property
    def is_finite_kind(self) -> bool:
        return isinstance(self.p, Finite)

    def mutually_absolutely_continuous(self) -> bool:
        if not self.is_finite_kind:
            return True
        return all(
            not (pi == 0.0 and qi > 0.0)
            for pi, qi in zip(self.p.probs, self.q.probs)
        )

    def log_ratio(self, u):
        """Natural log of dP/dQ at u (index for finite kinds)."""
        u = np.asarray(u, dtype=int if self.is_finite_kind else float)
        if self.is_finite_kind and np.any(np.asarray(self.q.probs)[u] == 0.0):
            raise AbsoluteContinuityError("point outside the support of Q")
        return self._ratio.log(u)

    def support_log_ratios(self) -> np.ndarray:
        """log dP/dQ at each support point of a finite pair; -inf where Q is zero."""
        p, q = np.asarray(self.p.probs), np.asarray(self.q.probs)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q > 0.0, np.log(p / q), -math.inf)

    def superlevel_masses(self, log_c):
        """Masses of the ratio's superlevel set {u : dP/dQ(u) > c}, c = exp(log_c).

        Returns ``(log P(r > c), log Q(r > c))`` entry by entry over ``log_c``;
        points where the ratio equals c lie outside the set.  The set is a
        half-line when the ratio is monotone, an interval around the peak
        of a bounded non-monotone ratio, and the complement of an interval
        around the trough of an unbounded one.  Finite pairs rank the
        support by ratio and sum.
        """
        p, q = self.p, self.q
        if self.is_finite_kind:
            lr = self.support_log_ratios()
            order = np.argsort(lr)
            j = np.searchsorted(lr[order], log_c, side="right")
            # mass of the support points ranked j and above
            tails = [np.cumsum(np.asarray(d.probs)[order][::-1])[::-1] for d in (p, q)]
            with np.errstate(divide="ignore"):
                return tuple(np.log(np.append(t, 0.0)[j]) for t in tails)
        r = self._ratio
        shape, lo, hi = r.level_set(log_c)
        return tuple(_log_mass(d, s, r.peak, shape, lo, hi) for d, s in zip((p, q), r.shifts))

    def log_ratio_sup(self) -> float:
        """Natural log of sup_u dP/dQ(u); may be +inf."""
        return self._ratio.sup

    @cached_property
    def _ratio(self) -> _Ratio:
        """The density ratio, worked out once from (p, q); each of its shapes is here.

        Each continuous ratio is written about its centre: a (centre, slope
        or curvature, top) triple gives its level sets and its sup, and far
        from the origin log r errs by no more than the rounding of a centre
        moves it.  No coefficient or level-set edge is in absolute
        coordinates: an edge is an offset from the centre (see ``_log_mass``).

        * Equal scales (``_line``): centre the midpoint of the locations,
          slope (mu_p - mu_q) / sigma^2 or +-2 / lambda, top the bound at
          which a Laplace ratio is flat beyond the locations (+inf for
          Gaussians).  The triple gives log r too.
        * Gaussians of unequal scales: centre the narrower law's location,
          curvature (1 / sigma_q^2 - 1 / sigma_p^2) / 2, top log r at the
          vertex, held as its offset from the centre.  A level set's edge
          beyond the vertex is the vertex plus a width; the edge nearer the
          centre is the product of the two offsets over that one, since the
          vertex minus the width cancels when nearly equal scales send the
          vertex far from both locations.
        * Laplace laws of unequal scales: centre the narrower law's
          location, slope 1 / lambda_narrow + 1 / lambda_wide up to the
          other location and 1 / lambda_narrow - 1 / lambda_wide beyond it,
          top log r at the centre.

        Continuous level sets {r > c} are (shape, lo, hi), the edges offsets
        from the centre: "below" is (-inf, hi), "above" is (lo, inf),
        "inside" is (lo, hi) and "outside" is the complement of [lo, hi].
        """
        p, q = self.p, self.q
        if self.is_finite_kind:
            lr = self.support_log_ratios()
            return _Ratio(lr.take, float(np.max(lr)), None)
        if p == q:

            def level_set(log_c):
                edge = np.where(np.asarray(log_c) < 0.0, math.inf, -math.inf)
                return "below", edge, edge

            return _Ratio(lambda u: np.zeros_like(u), 0.0, level_set, (0.0, 0.0))
        if isinstance(p, Gaussian):
            gap = p.mu - q.mu
            # sq^2 - sp^2 without the cancellation of the squares
            spread = (q.sigma - p.sigma) * (q.sigma + p.sigma)
            a = -0.5 * spread / q.sigma**2 / p.sigma**2
            if a == 0.0:
                return _line(0.5 * (p.mu + q.mu), 0.5 * gap, gap / p.sigma**2, math.inf)
            log_scales = math.log(q.sigma / p.sigma)
            # log r about the narrower law's location: each term is then at most
            # about |log p| + |log q|, where a (u - pivot)^2 + top cancels once
            # nearly equal scales send the vertex far from both locations
            if p.sigma < q.sigma:
                centre, slope, at_centre = p.mu, gap / q.sigma**2, log_scales + 0.5 * (gap / q.sigma) ** 2
            else:
                centre, slope, at_centre = q.mu, gap / p.sigma**2, log_scales - 0.5 * (gap / p.sigma) ** 2
            shifts = (0.0, gap) if p.sigma < q.sigma else (-gap, 0.0)
            # the vertex as an offset from the centre, the squared gap halved before it
            # is divided: neither mu_p sq^2 nor 2 (sq^2 - sp^2), which may overflow
            vertex = gap * (min(p.sigma, q.sigma) ** 2 / spread)
            top = log_scales + 0.5 * gap * gap / spread
            if not (math.isfinite(centre + vertex) and math.isfinite(top)):
                raise DomainError(f"{p} and {q}: the vertex of the log ratio leaves the double range")

            def log_r(u):
                x = u - centre
                return (a * x + slope) * x + at_centre

            curv, side = abs(a), math.copysign(1.0, vertex)

            def edges(log_c, drop):
                # the root beyond the vertex, then the one nearer the centre as the
                # product of the roots over it: vertex -+ width cancels once the
                # vertex runs far from both locations
                width = np.sqrt(drop / curv)
                far = vertex + side * width
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    vieta = (at_centre - log_c) / (a * far)
                near = np.where((drop > 0.0) & np.isfinite(far), vieta, vertex - side * width)
                return (near, far) if side > 0.0 else (far, near)

            return _around(log_r, top, a < 0.0, edges, shifts, vertex)
        gap = p.theta - q.theta
        if p.lam == q.lam:
            return _line(0.5 * (p.theta + q.theta), 0.5 * gap, math.copysign(2.0 / p.lam, gap), abs(gap) / p.lam)
        # two kinks, with the extremum at the narrower law's location
        c = math.log(q.lam / p.lam)
        far = math.inf if q.lam < p.lam else -math.inf  # the narrower law's term wins

        def log_r(u):
            # far out, both terms overflow and their difference is inf - inf
            with np.errstate(invalid="ignore"):
                out = np.abs(u - q.theta) / q.lam - np.abs(u - p.theta) / p.lam + c
            lost = np.isnan(out)
            if lost.any():
                out = np.where(lost & ~np.isnan(u), far, out)
            return out

        peaked = p.lam < q.lam
        shifts = (0.0, gap) if peaked else (-gap, 0.0)
        gap = abs(gap)
        top = c + gap / q.lam if peaked else c - gap / p.lam
        narrow, wide = sorted((p.lam, q.lam))
        steep, shallow = 1.0 / narrow + 1.0 / wide, 1.0 / narrow - 1.0 / wide
        other_right = sum(shifts) <= 0.0  # the other location, at or right of the extremum

        def edges(log_c, drop):
            # past the other location's kink the slope flattens
            toward = np.maximum(drop / steep, gap + (drop - steep * gap) / shallow)
            away = drop / shallow
            left, right = (away, toward) if other_right else (toward, away)
            return -left, right

        return _around(log_r, top, peaked, edges, shifts, 0.0)


class _Ratio(NamedTuple):
    """A pair's density ratio r = dP/dQ, from ``DistributionPair._ratio``."""

    log: Callable[[np.ndarray], np.ndarray]  # log r on arrays
    sup: float  # log sup r; may be +inf
    level_set: Callable | None  # log c -> {r > c} as (shape, lo, hi); None for finite pairs
    shifts: tuple[float, float] | None = None  # the centre less each law's location
    peak: float = 0.0  # the extremum's offset from the centre, where there is one


def _line(mid: float, half_gap: float, slope: float, bound: float) -> _Ratio:
    """log r = slope * (u - mid), clipped to [-bound, bound]; its top is bound.

    The centre ``mid`` sits -half_gap from P's location and half_gap from
    Q's.  No point exceeds a level at or above +bound, and every point exceeds
    one below -bound.  There the offset from the midpoint is divided by
    zero, which sends the edge to the infinity of its sign, without a data
    branch.  An unbounded line (bound +inf) clips nothing.
    """
    shape = "below" if slope < 0.0 else "above"

    def level_set(log_c):
        with np.errstate(divide="ignore"):
            offset = np.divide(log_c / slope, (log_c < bound) & (log_c >= -bound))
        return shape, offset, offset

    def log_r(u):
        # in place: one new array instead of four, for the exact sampler's blocks
        x = np.subtract(u, mid, out=np.empty(np.shape(u)))
        x *= slope
        np.maximum(x, -bound, out=x)
        return np.minimum(x, bound, out=x)

    return _Ratio(log_r, bound, level_set, (-half_gap, half_gap))


def _around(log_r, top: float, peaked: bool, edges, shifts: tuple[float, float], peak: float) -> _Ratio:
    """A ratio monotone on each side of its extremum: a peak (``peaked``) or a trough.

    log r is ``top`` at the extremum; ``edges(log_c, drop)`` gives the two
    points (lo, hi) where log r = log_c, that is where it has moved by
    ``drop`` from ``top``, and the extremum twice where ``drop`` is 0, as
    offsets from the centre, as ``peak`` is the extremum's.
    """
    shape = "inside" if peaked else "outside"

    def level_set(log_c):
        drop = np.maximum(top - log_c if peaked else log_c - top, 0.0)
        return (shape, *edges(log_c, drop))

    return _Ratio(log_r, top if peaked else math.inf, level_set, shifts, peak)


def _log_mass(d: Gaussian | Laplace, shift: float, peak: float, shape: str, lo, hi):
    """log of the mass d puts on the level set (shape, lo, hi) of ``_Ratio``.

    An edge x, an offset from the centre, is at d's location plus shift +
    x, so no location cancels.  An interval around the peak is measured by
    the tails on the peak's side of d's location, which do not both round
    to 1 when it lies far out in a tail.
    """
    _, scale = vars(d).values()

    def below(x):  # log d((-inf, x])
        return d._standard_log_cdf((x + shift) / scale)

    def above(x):  # log d((x, inf))
        return d._standard_log_cdf((-shift - x) / scale)

    if shape == "below":
        return below(hi)
    if shape == "above":
        return above(lo)
    if shape == "outside":  # two tails that sum to 1 may round above it
        return np.minimum(np.logaddexp(below(lo), above(hi)), 0.0)
    # log(e^b - e^a): the log tails keep the masses' digits, and so does this
    a, b = (above(hi), above(lo)) if peak + shift > 0.0 else (below(lo), below(hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a < b, b + np.log(-np.expm1(a - b)), -math.inf)


def _gaussian_renyi_nats(p: Gaussian, q: Gaussian, a: np.ndarray) -> np.ndarray:
    # s^2 = a sq^2 + (1 - a) sp^2 = sq^2 (1 + x): log(sq^2 / s^2) as -log1p(x)
    # keeps its precision as the order nears 1, where x vanishes.  x
    # overflows only below -1, where the divergence is infinite; where the
    # location term's product with the order overflows, it is taken with
    # a / s^2 instead, and is infinite only past the double range
    shift = 0.5 * (p.mu - q.mu) ** 2 / q.sigma**2
    with np.errstate(over="ignore"):
        x = (1.0 - a) * ((p.sigma / q.sigma) ** 2 - 1.0)
        s2 = 1.0 + x  # s^2 / sq^2
        infinite = s2 <= 0.0
        x[infinite], s2[infinite] = 0.0, 1.0
        located = shift * a / s2
        over = np.isinf(located)
        located[over] = shift * (a[over] / s2[over])
    d = math.log(q.sigma / p.sigma) - np.log1p(x) / (2.0 * (a - 1.0)) + located
    d[infinite] = math.inf
    return d


def _laplace_renyi_nats(p: Laplace, q: Laplace, a: np.ndarray) -> np.ndarray:
    l1, l2 = p.lam, q.lam
    dtheta = abs(p.theta - q.theta)
    # the integral of p^a q^(1-a) is (l2 / l1)^(a-1) h / (a + (1 - a) l1 / l2),
    # where h = (r e^-s - s e^-r) / (r - s) with r = a dtheta / l1 and
    # s = (1 - a) dtheta / l2.  h is symmetric in r and s; written as
    # e^-m (1 + m (1 - e^-d) / d), m = min(r, s) and d = |r - s|, it neither
    # overflows at any order nor cancels near order 1, and it is e^-m (1 + m)
    # at r = s, the removable singularity a = l1 / (l1 + l2).  Every order is
    # evaluated; those with a l2 + (1 - a) l1 <= 0 then take the infinite
    # value, a test written as l1 + a (l2 - l1) to be exact at equal scales.
    # Where r and s both overflow, m is infinite and the value is its limit
    # log(l2 / l1) + dtheta / l2 (order above 1, m = s = -inf) or +inf (order
    # below 1): the rest is O(log(a) / a) against a term above one nat
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r, s = a * dtheta / l1, (1.0 - a) * dtheta / l2
        m, d = np.minimum(r, s), np.abs(r - s)
        damp = np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d != 0.0)
        log_ratio = np.log1p(m * damp) - m - np.log1p((1.0 - a) * (l1 / l2 - 1.0))
        nats = math.log(l2 / l1) + log_ratio / (a - 1.0)
    both = np.isinf(m)
    if both.any():
        nats[both] = np.where(a[both] > 1.0, math.log(l2 / l1) + dtheta / l2, math.inf)
    return np.where(l1 + a * (l2 - l1) > 0.0, nats, math.inf)


def _finite_renyi_nats(p: Finite, q: Finite, a: np.ndarray) -> np.ndarray:
    """log(sum p**a * q**(1 - a)) / (a - 1).

    With t = (a - 1) log(p / q) the sum is 1 + sum p expm1(t); orders with
    every |t| < 1 take log1p of that, which keeps its precision as the order
    nears 1.  The other orders sum in log space: the terms are exponentiated
    after the largest log term is taken out, so that none overflows at large
    orders.  P << Q, so q > 0 wherever p > 0 and every log term is finite;
    log p and log q are taken apart, so that p / q cannot overflow.  Sums
    run down the support one point after another, whatever the number of
    orders, so that an array entry has the bits of its order alone.
    """
    pi, qi = np.asarray(p.probs), np.asarray(q.probs)
    support = pi > 0.0
    pi, log_p, log_q = pi[support], np.log(pi[support]), np.log(qi[support])
    log_r = log_p - log_q
    near = np.abs(a - 1.0) * np.abs(log_r).max() < 1.0
    out = np.empty(a.shape)
    t = np.outer(log_r, a[near] - 1.0)
    out[near] = np.log1p(np.cumsum(pi[:, None] * np.expm1(t), axis=0)[-1]) / (a[near] - 1.0)
    far = a[~near]
    terms = np.outer(log_p, far) + np.outer(log_q, 1.0 - far)
    top = terms.max(axis=0)
    out[~near] = (top + np.log(np.cumsum(np.exp(terms - top), axis=0)[-1])) / (far - 1.0)
    return out


def renyi_divergence(pair: DistributionPair, order):
    """Renyi divergence D_order(P||Q) in bits; +inf when divergent.

    ``order`` is a float, or an array of orders for one value per entry;
    a float order gives a float.  Every entry has the bits that its order
    alone gives.  Closed forms for all three kinds, and the KL divergence
    at order 1; ``numeric_renyi_divergence`` is the quadrature reference.
    """
    shape = np.shape(order)
    a = np.asarray(order, dtype=float).reshape(-1)
    if np.count_nonzero((a > 0.0) & (a < math.inf)) != a.size:
        raise OrderError(f"divergence order must be positive and finite, got {order}")
    one = a == 1.0
    if np.count_nonzero(one):
        bits = np.full(a.shape, kl_divergence(pair))
        rest = ~one
        if np.count_nonzero(rest):
            bits[rest] = renyi_divergence(pair, a[rest])
    elif isinstance(pair.p, Gaussian):
        bits = _gaussian_renyi_nats(pair.p, pair.q, a) / LN2
    elif isinstance(pair.p, Laplace):
        bits = _laplace_renyi_nats(pair.p, pair.q, a) / LN2
    else:
        bits = _finite_renyi_nats(pair.p, pair.q, a) / LN2
    return float(bits[0]) if shape == () else bits.reshape(shape)


def numeric_renyi_divergence(
    pair: DistributionPair, order: float, spec: QuadratureSpec | None = None
) -> float:
    """D_order(P||Q) in bits by quadrature.

    An independent reference for the continuous closed forms of
    ``renyi_divergence``, which it returns as they are for finite pairs
    and at order 1.  The integral of p**order * q**(1 - order) is
    1 + (order - 1) I, with I the integral of p expm1(t) / (order - 1) at
    t = (order - 1) log r, a term of the size of the KL integrand; so
    log1p((order - 1) I) / (order - 1) keeps its precision as the order
    nears 1, where the log of the first integral would lose it.  Where the
    closed form is +inf the integral diverges, and the quadrature raises a
    PfrsimError.
    """
    if pair.is_finite_kind or not (0.0 < order < math.inf and order != 1.0):
        return renyi_divergence(pair, order)  # the closed form, or its OrderError
    a1 = float(order) - 1.0

    def integrand(x: np.ndarray) -> np.ndarray:
        t = a1 * pair.log_ratio(x)
        # p |expm1(t)| as one exp of log p + log|expm1(t)|, the latter as
        # max(t, 0) + log(1 - e^-|t|): no 0 * inf where p underflows
        with np.errstate(over="ignore", divide="ignore"):  # inf raises NonFiniteError
            log_size = pair.p.log_density(x) + np.maximum(t, 0.0) + np.log(-np.expm1(-np.abs(t)))
            return np.sign(t) * np.exp(log_size) / a1

    return math.log1p(a1 * integrate(integrand, spec)) / (a1 * LN2)


def kl_divergence(pair: DistributionPair) -> float:
    """Kullback-Leibler divergence D(P||Q) in bits."""
    p, q = pair.p, pair.q
    if isinstance(p, Gaussian):
        nats = (
            math.log(q.sigma / p.sigma)
            + (p.sigma**2 + (p.mu - q.mu) ** 2) / (2.0 * q.sigma**2)
            - 0.5
        )
    elif isinstance(p, Laplace):
        dtheta = abs(p.theta - q.theta)
        nats = (
            math.log(q.lam / p.lam)
            + (p.lam * math.exp(-dtheta / p.lam) + dtheta) / q.lam
            - 1.0
        )
    else:
        nats = 0.0
        for pi, qi in zip(p.probs, q.probs):
            if pi > 0.0:
                nats += pi * math.log(pi / qi)
    return nats / LN2

