"""Norm balls, gauges, volumes, sensitivities, and containment checks.

A norm ball is a convex, bounded, absorbing, origin-symmetric subset of R^m.
Balls are either analytic lp bodies (p in [1, inf], radius r) or oracle
bodies given by a vectorized membership predicate plus an exact vectorized
gauge, both at unit scale, an l-infinity bounding radius and, if known, an
exact volume. An oracle body with structure may also carry its own exact
uniform sampler, which returns the points it has once its proposal budget
is spent, and its own estimate of the fraction of its bounding box it
fills; samplers and volume estimates use them in place of box rejection
and hit-or-miss. The hull bodies k2, k3 and kt<p> are described by one
table of slot weights, from which they take their membership, sampler and
box-fraction estimate (see _hull_ball). Every value here is immutable after
construction and every operation is a pure function of its inputs plus an
explicit seed, so everything is safe to use concurrently.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NormBall",
    "ScaledBall",
    "ContainmentVerdict",
    "lp_norm",
    "k2_member",
    "k3_member",
    "k2_ball",
    "k3_ball",
    "volume_lp",
    "volume_monte_carlo",
    "ball_containment",
    "quadratic_pair_sensitivity",
]

_CONTAIN_TOL = 1e-9
#: boundary points ball_containment samples when it cannot decide exactly
_CONTAIN_DIRECTIONS = 512


def lp_norm(x, p):
    """lp norm of a vector, or row-wise norms of a 2-d array.

    p may be any value >= 1 or math.inf. Raises ValueError for an empty
    vector or p < 1.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0 or x.shape[-1] == 0:
        raise ValueError("lp_norm: empty vector")
    if p != math.inf and p < 1:
        raise ValueError(f"lp_norm: p must be >= 1 or inf, got {p}")
    a = np.abs(x)
    if p == math.inf:
        return a.max(axis=-1)
    if p == 1:
        return a.sum(axis=-1)
    if p == 2:
        return np.sqrt((a * a).sum(axis=-1))
    # rescale by the max to avoid overflow for large p
    mx = a.max(axis=-1, keepdims=True)
    safe = np.where(mx > 0, mx, 1.0)
    out = safe[..., 0] * ((a / safe) ** p).sum(axis=-1) ** (1.0 / p)
    return np.where(mx[..., 0] > 0, out, 0.0)


@dataclass(frozen=True)
class NormBall:
    """A symmetric convex body, analytic (lp) or oracle-defined.

    For the lp kind, ``p`` and ``radius`` are set and membership/gauge are
    closed form. For the oracle kind, ``member`` is a predicate taking an
    (n, m) array of points and returning an (n,) boolean array of unit-scale
    membership, ``gauge_fn`` maps the same array to the (n,) exact gauges,
    and ``linf_bound`` bounds the l-infinity norm of every member point.
    ``volume`` is an oracle body's exact unit-scale volume, if known (lp
    balls ignore it: their volume is the closed form; see ``log_volume``).
    ``uniform_fn(rng, n, max_attempts)``, if given, returns exact uniform
    points of the unit-scale body and its (accepted, proposals) counts: n
    points, or the fewer it has once max_attempts proposals are spent;
    ``box_fraction_fn(rng, n)``, if given, returns an unbiased n-sample
    estimate of the fraction of the [-linf_bound, linf_bound]^m box the body
    fills, and its standard error. The hull bodies set both (_hull_ball);
    from_oracle balls have neither.
    Oracle balls are identified by ``name``: equality ignores the predicate,
    gauge and hook objects, so give distinct bodies distinct names.
    """

    dimension: int
    p: Optional[float] = None
    radius: float = 1.0
    member: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    gauge_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    linf_bound: Optional[float] = None
    name: str = ""
    volume: Optional[float] = None
    uniform_fn: Optional[Callable] = field(default=None, compare=False)
    box_fraction_fn: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.p is not None:
            if not self.p >= 1:  # also rejects nan
                raise ValueError(f"p must be >= 1 or inf, got {self.p}")
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise ValueError(f"radius must be positive, got {self.radius}")
        else:
            if self.member is None or self.gauge_fn is None:
                raise ValueError("oracle ball requires a membership predicate and a gauge")
            if self.linf_bound is None or not (
                self.linf_bound > 0 and math.isfinite(self.linf_bound)
            ):
                raise ValueError("oracle ball requires a positive linf bound")
            if self.volume is not None and not 0.0 < self.volume < math.inf:
                raise ValueError(f"volume must be positive and finite, got {self.volume}")

    @classmethod
    def lp(cls, p, radius, dimension, name=""):
        return cls(dimension=dimension, p=float(p), radius=float(radius), name=name)

    @classmethod
    def from_oracle(cls, member, gauge, linf_bound, dimension, name="", volume=None):
        """Oracle ball with no sampler or box-fraction estimator of its own, so
        sampled by box rejection and measured by hit-or-miss; ``volume`` is its
        exact unit-scale volume, if known."""
        return cls(dimension=dimension, member=member, gauge_fn=gauge,
                   linf_bound=float(linf_bound), name=name, volume=volume)

    @property
    def is_lp(self):
        return self.p is not None

    @property
    def linf_radius(self):
        """l-infinity bounding radius of the body."""
        return self.radius if self.is_lp else self.linf_bound

    def log_volume(self):
        """Log unit-scale volume (finite at any dimension), or None if unknown."""
        if self.is_lp:
            return _log_volume_lp(self.p, self.dimension, self.radius)
        return None if self.volume is None else math.log(self.volume)

    def label(self):
        if self.name:
            return self.name
        p = "inf" if self.p == math.inf else f"{self.p:g}"
        return f"l{p}" if self.radius == 1.0 else f"l{p}(r={self.radius:g})"

    def _check_width(self, points):
        if points.shape[-1] != self.dimension:
            raise ValueError(
                f"dimension mismatch ({points.shape[-1]} != {self.dimension})"
            )

    def member_many(self, points):
        """Unit-scale membership for an (n, m) array of points."""
        points = np.asarray(points, dtype=float)
        self._check_width(points)
        if self.is_lp:
            return lp_norm(points, self.p) <= self.radius
        return np.asarray(self.member(points), dtype=bool)

    def gauge_many(self, points):
        """Minkowski gauge of each row of an (n, m) array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("gauge: non-finite input")
        self._check_width(points)
        if self.is_lp:
            return lp_norm(points, self.p) / self.radius
        return np.asarray(self.gauge_fn(points), dtype=float)

    def gauge(self, x):
        """Minkowski gauge ||x||_K of a single vector."""
        return float(self.gauge_many(np.asarray(x, dtype=float)[None, :])[0])


def _k2_cap(a):
    # the parabola bounding the (sum, doubled square) hull for |u1| in [1, 2]
    return 2.0 - 2.0 * (a - 1.0) ** 2


def _k2_gauge(s, q):
    """Elementwise k2 gauge of (sum, doubled square) absolute values.

    Scaled by c, the cap reads c(4s - q) >= 2s^2 where s > c; it binds
    below s only where q < 2s, at c = s*(2s/(4s - q)). Written so, it stays
    exact at scales where 2s^2/(4s - q) underflows or overflows.
    """
    den = 4.0 * s - np.minimum(q, 2.0 * s)  # 2s where the cap does not bind
    cap = s * np.divide(2.0 * s, den, out=np.ones_like(s), where=den > 0)
    return np.maximum(np.maximum(s, q) / 2.0, cap)


def _k3_gauge(a, b, c):
    """Elementwise k3 gauge of (sum x, sum y, sum xy) absolute values."""
    return np.maximum(np.maximum(np.maximum(a, b), c) / 2.0, ((a + b) + c) / 4.0)


def _k2_weight(a):
    """Length of a k2 piece's square interval over the box's 4, at sum
    magnitudes a in [0, 2]: 1 where a <= 1, else a(2 - a) = 1 - (a - 1)^2.

    Where a > 1 twice this is _k2_cap(a) bit for bit (doubling commutes with
    rounding).
    """
    w = np.maximum(a, 1.0)
    w -= 1.0
    np.square(w, out=w)
    return np.subtract(1.0, w, out=w)


def _k3_weights(x, pieces):
    """Length of each k3 piece's slot interval over the box's 4, min(1, (4 -
    x_j - x_k)/2), at (sums, k) sum magnitudes x in [0, 2], one row per piece."""
    # computed as 2 - (x_j + x_k)/2, which is exact wherever it is below 1
    # (Sterbenz), so twice it is 4 - (x_j + x_k) there
    w = x[pieces.pair_j]
    w += x[pieces.pair_k]
    w *= 0.5
    np.subtract(2.0, w, out=w)
    return np.minimum(w, 1.0, out=w)


def _k3_kernel(x, pieces):
    """Product of the k3 piece weights at (sums, k) sum magnitudes x."""
    return _k3_weights(x, pieces).prod(axis=0)


def _k2_sum_quantile(u):
    # inverse CDF of the density proportional to _k2_weight on [0, 2]: the
    # mass is 1 on [0, 1] and 2/3 on [1, 2], so v = 5u/3 is a itself up to 1;
    # above, v = 1/3 + a^2 - a^3/3, whose root in [1, 2] is trigonometric:
    # a = 1 + 2 cos(arccos((3 - 3v)/2)/3 - 2 pi/3)
    a = u * (5.0 / 3.0)
    above = a > 1.0
    c = np.maximum((3.0 - 3.0 * a[above]) / 2.0, -1.0)
    a[above] = np.minimum(1.0 + 2.0 * np.cos(np.arccos(c) / 3.0 - 2.0 * math.pi / 3.0), 2.0)
    return a


def _hull_member_many(pieces, U):
    """Membership of the rows of U in the hull body of a piece table (see
    _hull_ball): every sum is at most 2 and every other slot lies within
    twice its piece weight."""
    # abs per slot group, as a full abs(U) copy of a large chunk costs memory
    U = np.atleast_2d(np.asarray(U, dtype=float))
    s = np.abs(U[:, pieces.sum_slots]).T
    ok = (s <= 2.0).all(axis=0)
    # the weights only matter where every sum is at most 2: clipping keeps
    # huge sums from overflowing
    s = np.minimum(s, 2.0)
    if len(pieces.squares):
        w = _k2_weight(s[:len(pieces.squares)])
        ok &= (np.abs(U[:, pieces.squares]).T <= 2.0 * w).all(axis=0)
    if len(pieces.pair_slots):
        w = _k3_weights(s, pieces)
        ok &= (np.abs(U[:, pieces.pair_slots]).T <= 2.0 * w).all(axis=0)
    return ok


def _hull_gauge_many(pieces, U):
    """Exact gauge of the rows of U for the hull body of a piece table: the
    max of the piece gauges, as the body is the intersection of its pieces."""
    U = np.abs(U)
    s = U[:, pieces.sum_slots]
    g = 0.0
    if len(pieces.squares):
        g = _k2_gauge(s[:, :len(pieces.squares)], U[:, pieces.squares]).max(axis=1)
    if len(pieces.pair_slots):
        g3 = _k3_gauge(s[:, pieces.pair_j], s[:, pieces.pair_k], U[:, pieces.pair_slots])
        g = np.maximum(g, g3.max(axis=1))
    return g


def _hull_chunk(pieces):
    # proposals per chunk: the (pieces, chunk) weight array stays near 256 kB,
    # in cache and below the size at which every allocation faults in fresh pages
    return max(64, (1 << 15) // (len(pieces.pair_j) + 1))


def _hull_uniform(pieces, dimension, rng, n, max_attempts):
    """Exact uniform points of the hull body of a piece table, from its sum
    slots (see _hull_ball).

    Each proposal draws the sum magnitudes of the k2 pieces from the k2
    profile by inverse CDF and the other sums uniform on [0, 2], and is
    accepted with probability _k3_kernel; a body with no k3 pieces accepts
    every proposal. Accepted sums get random signs and every other slot is
    filled uniformly on its interval. Chunks start at 64 proposals and grow
    4x after a chunk with no acceptance, then follow the observed rate;
    proposals are independent, so the first n accepted have the same law
    under any chunking. Returns (points, (accepted, proposals)): n points,
    or the fewer accepted once max_attempts proposals are spent.
    """
    n_sq = len(pieces.squares)
    has_k3 = len(pieces.pair_slots) > 0
    sums = np.empty((len(pieces.sum_slots), n))
    got = accepted = proposals = 0
    chunk = 64
    while got < n:
        k = chunk if not accepted else -(-(n - got) * proposals // accepted)
        k = min(max(k, 64), _hull_chunk(pieces), max_attempts - proposals)
        if k <= 0:
            break
        x = np.empty((len(sums), k))
        if n_sq:
            x[:n_sq] = _k2_sum_quantile(rng.random((n_sq, k)))
        x[n_sq:] = rng.uniform(0.0, 2.0, (len(x) - n_sq, k))
        if has_k3:
            x = x[:, rng.random(k) < _k3_kernel(x, pieces)]
        proposals += k
        accepted += x.shape[1]
        if not x.shape[1]:
            chunk *= 4
        take = min(x.shape[1], n - got)
        sums[:, got:got + take] = x[:, :take]
        got += take
    sums = sums[:, :got]
    u = rng.uniform(-1.0, 1.0, size=(got, dimension))
    out = np.empty_like(u)
    out[:, pieces.sum_slots] = np.copysign(sums.T, u[:, pieces.sum_slots])
    if n_sq:
        out[:, pieces.squares] = 2.0 * _k2_weight(sums[:n_sq]).T * u[:, pieces.squares]
    if has_k3:
        out[:, pieces.pair_slots] = (
            2.0 * _k3_weights(sums, pieces).T * u[:, pieces.pair_slots])
    return out, (accepted, proposals)


def _hull_box_fraction(pieces, rng, n):
    """Fraction of the [-2, 2]^d box that the hull body of a piece table
    fills, and its standard error.

    The mean of w, the product of every piece weight, over n sum magnitudes
    uniform on [0, 2]^(sums): w is the chance that a uniform box point with
    those sums lies in the body, so this is hit-or-miss with every other
    slot integrated out exactly.
    """
    n_sq = len(pieces.squares)
    total = total_sq = 0.0
    chunk = _hull_chunk(pieces)
    for start in range(0, n, chunk):
        x = rng.uniform(0.0, 2.0, size=(len(pieces.sum_slots), min(chunk, n - start)))
        w = _k3_kernel(x, pieces) if len(pieces.pair_slots) else 1.0
        if n_sq:
            w = w * _k2_weight(x[:n_sq]).prod(axis=0)
        total += w.sum()
        total_sq += np.square(w).sum()
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)


def _hull_ball(pieces, dimension, name, volume=None):
    """Oracle ball of the hull body of a piece table, with its exact sampler
    and box-fraction estimator.

    The first len(``squares``) of the table's ``sum_slots`` pair with the
    ``squares`` in k2 pieces, and its sums ``pair_j``/``pair_k`` (indices
    into ``sum_slots``) with the ``pair_slots`` in k3 pieces. The body is
    the points whose sums are at most 2 in magnitude, whose squares lie
    within twice the _k2_weight of their sums, and whose k3 slots lie
    within twice their _k3_weights. Every slot that is not a sum sits in
    exactly one piece, so given the sums those slots are independent and
    uniform on their intervals under a uniform point of the body: the
    marginal of the sum magnitudes has density proportional to the product
    of the piece weights. Membership, the sampler and the estimator all
    read these weights.
    """
    return NormBall(
        dimension=dimension, name=name, volume=volume, linf_bound=2.0,
        member=functools.partial(_hull_member_many, pieces),
        gauge_fn=functools.partial(_hull_gauge_many, pieces),
        uniform_fn=functools.partial(_hull_uniform, pieces, dimension),
        box_fraction_fn=functools.partial(_hull_box_fraction, pieces))


_NO_SLOTS = np.empty(0, dtype=np.intp)
#: k2 is one (sum, doubled square) piece, and k3 one (sum x, sum y, sum xy) piece
_K2_PIECES = SimpleNamespace(sum_slots=np.array([0]), squares=np.array([1]),
                             pair_j=_NO_SLOTS, pair_k=_NO_SLOTS, pair_slots=_NO_SLOTS)
_K3_PIECES = SimpleNamespace(sum_slots=np.array([0, 1]), squares=_NO_SLOTS,
                             pair_j=np.array([0]), pair_k=np.array([1]),
                             pair_slots=np.array([2]))


def k2_member(u) -> bool:
    """Membership in the parabola-capped hull for (sum x, 2*sum x^2) pairs.

    The body is [-2,2]^2 cut down, for |u1| > 1, to |u2| <= 2 - 2(|u1|-1)^2.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise ValueError("k2_member expects a 2-vector")
    return bool(k2_ball().member_many(u[None, :])[0])


def k3_member(u) -> bool:
    """Membership in the cube-truncated cross body for (sum x, sum y, sum xy)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("k3_member expects a 3-vector")
    return bool(k3_ball().member_many(u[None, :])[0])


def k2_ball() -> NormBall:
    """The 2-d hull for the (sum, scaled sum of squares) statistic pair."""
    # volume per quadrant: the 1 x 2 strip, and 4/3 under the cap
    return _hull_ball(_K2_PIECES, 2, "k2", volume=4.0 * 10.0 / 3.0)


def k3_ball() -> NormBall:
    """The 3-d hull for a (sum x, sum y, sum xy) cross-product triple."""
    # volume per octant: [0, 2]^3 less the a + b + c > 4 corner
    return _hull_ball(_K3_PIECES, 3, "k3", volume=8.0 * (8.0 - 4.0 / 3.0))


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp_or_inf(log_x):
    # exp that reads inf past the float range instead of raising OverflowError
    return math.exp(log_x) if log_x < _LOG_FLOAT_MAX else math.inf


def _log_volume_lp(p, m, r):
    # log of (2r)^m Gamma(1 + 1/p)^m / Gamma(1 + m/p); at p = inf, 1/p = 0
    return m * math.log(2.0 * r) + m * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + m / p)


def volume_lp(p, m, r=1.0):
    """Lebesgue volume of the lp ball of radius r in R^m; inf past the float
    range, 0.0 below it."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    try:
        if p == math.inf:
            return (2.0 * r) ** m
        unit = 2.0**m * math.gamma(1.0 + 1.0 / p) ** m / math.gamma(1.0 + m / p)
        return unit * r**m
    except OverflowError:
        return _exp_or_inf(_log_volume_lp(p, m, r))


def volume_monte_carlo(ball: NormBall, scale=1.0, n_samples=100_000, seed=0):
    """Monte Carlo volume estimate of scale*K over its bounding box.

    Returns (estimate, standard_error): the estimated fraction of the box
    that K fills, and its standard error, times the box volume. A ball with
    a ``box_fraction_fn`` estimates the fraction itself; for any other it is
    the hit-or-miss proportion with its binomial standard error. Either
    estimate is unbiased. The box volume is applied in log form, so both
    values read inf past the float range instead of raising.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    if scale <= 0:
        raise ValueError("scale must be positive")
    b = ball.linf_radius
    if b is None or b <= 0:
        raise ValueError("degenerate bounding box")
    m = ball.dimension
    rng = np.random.default_rng(seed)
    if ball.box_fraction_fn is not None:
        frac, se = ball.box_fraction_fn(rng, n_samples)
    else:
        hits = 0
        done = 0
        chunk = 1 << 17
        while done < n_samples:
            k = min(chunk, n_samples - done)
            pts = rng.uniform(-b, b, size=(k, m))
            hits += int(ball.member_many(pts).sum())
            done += k
        frac = hits / n_samples
        se = math.sqrt(frac * (1.0 - frac) / n_samples)
    log_box = m * math.log(2.0 * b * scale)
    return tuple(_exp_or_inf(math.log(x) + log_box) if x > 0 else 0.0 for x in (frac, se))


@dataclass(frozen=True)
class ScaledBall:
    """A norm ball dilated by a positive sensitivity scale."""

    ball: NormBall
    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def dimension(self):
        return self.ball.dimension

    def gauge_many(self, points):
        return self.ball.gauge_many(points) / self.scale


@dataclass(frozen=True)
class ContainmentVerdict:
    """Outcome of a containment check: contained / not_contained / undetermined."""

    status: str
    witness: Optional[np.ndarray] = None

    @property
    def is_contained(self):
        return self.status == "contained"


def _lp_extremal_ratio(pa, pb, m):
    # max of ||u||_pb over the unit pa-sphere
    if pa <= pb:
        return 1.0
    return m ** (1.0 / pb - 1.0 / pa)


def _lp_vertices(ball: NormBall):
    # exact vertex lists for the polytope lp balls
    m, r = ball.dimension, ball.radius
    if ball.p == 1:
        eye = np.eye(m)
        return np.vstack([r * eye, -r * eye])
    if ball.p == math.inf and m <= 16:
        # row i, column j is +1 where bit j of i is set
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        return r * np.where(bits, 1.0, -1.0)
    return None


def ball_containment(a: ScaledBall, b: ScaledBall, seed=0,
                     vertices=None) -> ContainmentVerdict:
    """Decide whether scale_a*K_a is contained in scale_b*K_b.

    lp-vs-lp pairs are decided analytically from the extremal norm ratio,
    and a body whose l-infinity bounding radius fits inside an l-infinity
    ball b is contained in it. If ``vertices`` (points of a's unit-scale
    ball) are supplied, or a is a polytope lp ball with a tractable vertex
    list, vertex checking is exact.
    Otherwise the check samples 512 boundary points of a: any
    point falling outside b is a witness for not_contained, while no
    violation only yields "undetermined" (probabilistic evidence).
    """
    if a.dimension != b.dimension:
        raise ValueError("ball_containment: dimension mismatch")
    m = a.dimension

    # anonymous oracle balls never compare equal: the name is the identity
    same_body = a.ball is b.ball or (
        a.ball == b.ball and (a.ball.is_lp or a.ball.name)
    )
    if same_body:
        # dilations of one body nest exactly by scale
        if a.scale <= b.scale * (1.0 + 1e-12):
            return ContainmentVerdict("contained")
        e1 = np.zeros(m)
        e1[0] = 1.0
        witness = a.scale * e1 / a.ball.gauge(e1)
        return ContainmentVerdict("not_contained", witness)

    if a.ball.is_lp and b.ball.is_lp:
        ra = a.scale * a.ball.radius
        rb = b.scale * b.ball.radius
        c = _lp_extremal_ratio(a.ball.p, b.ball.p, m)
        if ra * c <= rb * (1.0 + 1e-12):
            return ContainmentVerdict("contained")
        if a.ball.p <= b.ball.p:
            witness = np.zeros(m)
            witness[0] = ra
        else:
            witness = np.full(m, ra * m ** (-1.0 / a.ball.p))
        return ContainmentVerdict("not_contained", witness)

    # every body lies in its own l-infinity bounding box
    if b.ball.p == math.inf and (
        a.scale * a.ball.linf_radius <= b.scale * b.ball.radius * (1.0 + 1e-12)
    ):
        return ContainmentVerdict("contained")

    if vertices is None and a.ball.is_lp:
        vertices = _lp_vertices(a.ball)

    if vertices is not None:
        pts = a.scale * np.asarray(vertices, dtype=float)
        g = b.gauge_many(pts)
        bad = g > 1.0 + _CONTAIN_TOL
        if bad.any():
            return ContainmentVerdict("not_contained", pts[np.argmax(g)])
        return ContainmentVerdict("contained")

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((_CONTAIN_DIRECTIONS, m))
    ga = a.ball.gauge_many(dirs)
    keep = ga > 0
    boundary = a.scale * dirs[keep] / ga[keep, None]
    g = b.gauge_many(boundary)
    bad = g > 1.0 + _CONTAIN_TOL
    if bad.any():
        return ContainmentVerdict("not_contained", boundary[np.argmax(g)])
    return ContainmentVerdict("undetermined")


def _golden_max(f, lo, hi, tol=1e-10):
    # golden-section maximization on [lo, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def quadratic_pair_sensitivity(p):
    """lp sensitivity of the statistic (sum x_i, 2 sum x_i^2) on [-1,1]^n.

    Maximizes ||(u, 2 - 2(u-1)^2)||_p over u in [0, 2]; by symmetry of the
    difference set this covers all of it. The objective is multimodal for
    large p, so a grid scan brackets the global maximum before
    golden-section refinement.
    """
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    grid = np.linspace(0.0, 2.0, 2001)
    pts = np.stack([grid, _k2_cap(grid)], axis=1)
    vals = lp_norm(pts, p)
    i = int(np.argmax(vals))

    def f(u):
        return float(lp_norm(np.array([u, _k2_cap(u)]), p))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    return max(float(vals[i]), _golden_max(f, lo, hi))
