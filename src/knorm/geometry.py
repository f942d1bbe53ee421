"""Norm balls, gauges, volumes, sensitivities, and containment checks.

A norm ball is a convex, bounded, absorbing, origin-symmetric subset of R^m.
Every ball is one of two kinds: a unit lp ball (p in [1, inf]) with a
closed-form volume and no uniform sampler (the sampling module draws its
noise in closed or polar form), or one of the paper's hull bodies
k2, k3 and kt<p>, described by a table of slot weights (see NormBall) from
which it takes its membership, exact gauge, exact uniform sampler and
box-fraction volume estimate. Every value here is immutable after
construction and every operation is a pure function of its inputs plus an
explicit seed, so everything is safe to use concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

__all__ = [
    "NormBall",
    "ScaledBall",
    "ContainmentVerdict",
    "lp_norm",
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


# The input rules, each written once; every module and the CLI call these.
# Each comparison is written so that nan fails it.

def _check_integer(name, value, low=1):
    """value as an int: a whole number >= low, else ValueError (inf too)."""
    if not (value >= low and value % 1 == 0):
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)


def _check_p(p):
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")


def _check_positive(name, value, error=ValueError):
    """A positive, finite scale; budget callers pass error=BudgetError."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def _check_unit(name, value):
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def _check_mechanism(mech, table):
    if mech not in table:
        *names, last = table
        raise ValueError(f"unknown mechanism {mech!r}; use {', '.join(names)}, or {last}")


def _reduce_rows(ufunc, a, initial=None):
    """ufunc.reduce(a, axis=-1), with initial if given, bit for bit.

    numpy makes one inner-loop call per row, slow on short rows, so 64 or
    more rows of 1 to 7 entries reduce column by column from initial or the
    ufunc's identity. That is exact: maximum is exact in any order, and
    numpy adds a row of up to 7 entries left to right from add's identity
    0.0 (a row of -0.0 sums to 0.0). From 8 entries on it sums pairwise,
    with other bits, so wider rows keep the row reduce, as do fewer rows.
    """
    if a.ndim != 2 or a.shape[0] < 64 or not 0 < a.shape[1] < 8:
        return ufunc.reduce(a, axis=-1, **({} if initial is None else {"initial": initial}))
    start = ufunc.identity if initial is None else initial
    out = a[:, 0].copy() if start is None else ufunc(start, a[:, 0])
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def _symmetric_uniform(g, shape, out=None):
    """Draws uniform on [-1, 1] from g, into out (a C-contiguous array of
    that shape) if given: g.uniform(-1.0, 1.0, shape) bit for bit, and g
    ends where that call leaves it, as uniform computes -1 + 2u of the same
    draws u and doubling is exact."""
    x = g.random(shape, out=out)
    x *= 2.0
    x -= 1.0
    return x


def lp_norm(x, p):
    """lp norm of a vector, or row-wise norms of a 2-d array.

    p may be any value >= 1 or math.inf. An empty batch of rows gives an
    empty result. Raises ValueError for a zero-width vector or p < 1. At
    p = 1, 2 and inf the rows reduce by _reduce_rows, bit for bit as numpy.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("lp_norm: empty vector")
    _check_p(p)
    a = np.abs(x)
    if p == math.inf:
        return _reduce_rows(np.maximum, a)
    if p == 1:
        return _reduce_rows(np.add, a)
    if p == 2:
        return np.sqrt(_reduce_rows(np.add, a * a))
    # rescale by the max to avoid overflow for large p
    mx = a.max(axis=-1, keepdims=True)
    safe = np.where(mx > 0, mx, 1.0)
    out = safe[..., 0] * ((a / safe) ** p).sum(axis=-1) ** (1.0 / p)
    return np.where(mx[..., 0] > 0, out, 0.0)


@dataclass(frozen=True)
class NormBall:
    """A symmetric convex body: an lp ball or the hull body of a piece table.

    An lp ball sets ``p``: the unit ball, scaled by a mechanism's Delta
    alone. Its membership, gauge and volume are closed form (volume_lp; no
    ``volume``, no box-fraction estimate), and it has no uniform sampler:
    sampling.sample_noise draws its noise in closed or polar form.

    A hull ball sets ``pieces`` instead, and lies in the [-2, 2]^m box. The
    first len(``squares``) of the table's ``sum_slots`` pair with the
    ``squares`` in k2 pieces, and its sums ``pair_j``/``pair_k`` (indices into
    ``sum_slots``) with the ``pair_slots`` in k3 pieces. The body is the points
    whose sums are at most 2 in magnitude, whose squares lie within twice the
    _k2_weight of their sums, and whose k3 slots lie within twice the
    _k3_weights of their half sums. Every slot that is not a sum sits in exactly
    one piece, so given the sums those slots are independent and uniform on
    their intervals under a uniform point of the body: the marginal of the sum
    magnitudes has density proportional to the product of the piece weights.
    Membership, the sampler and the box-fraction estimator all read these
    weights (_hull_member_many, _hull_uniform, _hull_box_fraction), and the
    gauge is the max of the piece gauges (_hull_gauge_many). Each reads both
    piece groups: a table without k2 or k3 pieces has empty index arrays
    there, whose (0, n) weight rows have product 1 and add no gauge.
    ``volume`` is a hull's exact unit-scale volume if known: k2, k3, kt1-kt3.

    Two hull balls are equal only if they share one piece table object, as
    the tables compare by identity.
    """

    dimension: int
    p: Optional[float] = None
    pieces: Optional[object] = None
    name: str = ""
    volume: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", _check_integer("dimension", self.dimension))
        if (self.p is None) == (self.pieces is None):
            raise ValueError("a norm ball has exactly one of p (lp) and pieces (hull)")
        if self.p is not None:
            _check_p(self.p)
            if self.volume is not None:
                raise ValueError("an lp ball takes no volume: it is volume_lp's closed form")
        elif self.volume is not None:
            _check_positive("volume", self.volume)

    @classmethod
    def lp(cls, p, radius, dimension):
        if radius != 1:
            raise ValueError(f"an lp ball has radius 1, got {radius}: put the scale in delta")
        return cls(dimension=dimension, p=float(p))

    @property
    def is_lp(self):
        return self.p is not None

    @property
    def linf_radius(self):
        """l-infinity bounding radius of the body."""
        return 1.0 if self.is_lp else 2.0

    def log_volume(self):
        """Log unit-scale volume (finite at any dimension), or None if unknown."""
        if self.is_lp:
            return _log_volume_lp(self.p, self.dimension, 1.0)
        return None if self.volume is None else math.log(self.volume)

    def label(self):
        """The ball's name: a hull's own, or l<p> with p exact (linf, l2, l1.5),
        so that distinct balls get distinct labels."""
        if self.name:
            return self.name
        # repr keeps every digit of p; a whole number drops its ".0"
        if self.p == math.inf or self.p % 1:
            return f"l{self.p!r}"
        return f"l{int(self.p)}"

    def _rows(self, points):
        # one point or an (n, m) array, as (n, m) floats of this ball's width
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[-1] != self.dimension:
            raise ValueError(
                f"dimension mismatch ({points.shape[-1]} != {self.dimension})"
            )
        return points

    def member_many(self, points):
        """Unit-scale membership of each row of an (n, m) array, or of one
        point, as an (n,) boolean array."""
        points = self._rows(points)
        if self.is_lp:
            return lp_norm(points, self.p) <= 1.0
        return _hull_member_many(self.pieces, points)

    def gauge_many(self, points):
        """Minkowski gauge of each row of an (n, m) array, or of one point,
        as an (n,) array."""
        points = self._rows(points)
        if not np.all(np.isfinite(points)):
            raise ValueError("gauge: non-finite input")
        if self.is_lp:
            return lp_norm(points, self.p)
        return _hull_gauge_many(self.pieces, points)

    def gauge(self, x):
        """Minkowski gauge ||x||_K of a single vector."""
        return float(self.gauge_many(x)[0])

    def uniform(self, rngs, n, max_proposals):
        """Exact uniform points of the unit-scale hull body from each
        generator of rngs, drawn side by side (_hull_uniform), as one stack
        of every generator's points in turn and one (accepted, proposals) per
        generator. An lp ball's noise is closed or polar form, so it raises
        ValueError naming sample_noise."""
        if self.is_lp:
            raise ValueError(f"{self.label()} has no uniform sampler: use sample_noise")
        return _hull_uniform(self.pieces, self.dimension, rngs, n, max_proposals)

    def box_fraction(self, rng, n):
        """Unbiased n-sample estimate of the fraction of the [-2, 2]^m box
        that a hull body fills, and its standard error. An lp ball's volume
        is closed form, so it raises ValueError naming volume_lp."""
        if self.is_lp:
            raise ValueError(f"{self.label()} has a closed-form volume: use volume_lp")
        return _hull_box_fraction(self.pieces, rng, n)


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
    Twice it is the parabola 2 - 2(a - 1)^2 that caps the k2 square above
    a = 1, bit for bit (doubling commutes with rounding)."""
    w = np.maximum(a, 1.0)
    w -= 1.0
    np.square(w, out=w)
    return np.subtract(1.0, w, out=w)


def _k3_weights(h, pieces):
    """Length of each k3 piece's slot interval over the box's 4, one row per
    piece: min(1, 2 - h_j - h_k) at (sums, k) half sum magnitudes h = x/2."""
    # exact wherever it is below 1 (Sterbenz), so twice it is 4 - (x_j + x_k)
    # there; halving commutes with rounding, so it is 2 - (x_j + x_k)/2 bit for bit
    w = h[pieces.pair_j]
    w += h[pieces.pair_k]
    np.subtract(2.0, w, out=w)
    return np.minimum(w, 1.0, out=w)


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
    NormBall): every sum is at most 2 and every other slot lies within
    twice its piece weight."""
    # abs per slot group, as a full abs(U) copy of a large chunk costs memory
    s = np.abs(U[:, pieces.sum_slots]).T
    ok = (s <= 2.0).all(axis=0)
    # the weights only matter where every sum is at most 2: clipping keeps
    # huge sums from overflowing
    s = np.minimum(s, 2.0)
    w = _k2_weight(s[:len(pieces.squares)])
    ok &= (np.abs(U[:, pieces.squares]).T <= 2.0 * w).all(axis=0)
    # a subnormal half cannot move a weight, which is 1 unless h_j + h_k > 1
    w = _k3_weights(np.multiply(s, 0.5, out=s), pieces)
    ok &= (np.abs(U[:, pieces.pair_slots]).T <= 2.0 * w).all(axis=0)
    return ok


def _hull_gauge_many(pieces, U):
    """Exact gauge of the rows of U for the hull body of a piece table: the
    max of the piece gauges, as the body is the intersection of its pieces."""
    U = np.abs(U)
    s = U[:, pieces.sum_slots]
    g2 = _k2_gauge(s[:, :len(pieces.squares)], U[:, pieces.squares])
    g3 = _k3_gauge(s[:, pieces.pair_j], s[:, pieces.pair_k], U[:, pieces.pair_slots])
    return np.maximum(_reduce_rows(np.maximum, g2, 0.0), _reduce_rows(np.maximum, g3, 0.0))


def _hull_chunk(pieces):
    # proposals per chunk, which fixes the sum each draw goes to, and columns per
    # _hull_uniform pass: the (pieces, chunk) half-sum weights stay near 256 kB, in
    # cache. That is above glibc's default 128 kB mmap threshold, so it avoids
    # fresh-page faults only once the threshold has risen past it, which glibc
    # does after freeing a block of that size
    return max(64, (1 << 15) // (len(pieces.pair_j) + 1))


class _HullStream:
    """One generator's place in _hull_uniform: its n columns of half sums,
    its counts, and its chunk size while it has accepted nothing."""

    __slots__ = ("rng", "halves", "accepted", "proposals", "chunk")

    def __init__(self, rng, halves):
        self.rng = rng
        self.halves = halves
        self.accepted = self.proposals = 0
        self.chunk = 64


def _hull_uniform(pieces, dimension, rngs, n, max_proposals):
    """Exact uniform points of the hull body of a piece table, from its sum
    slots (see NormBall): n points from each generator of rngs.

    Each proposal draws the sum magnitudes of the k2 pieces from the k2
    profile by inverse CDF and the other sums uniform on [0, 2], as half
    sums (2u of a random() draw u is uniform(0, 2) bit for bit), and is
    accepted with probability the product of the _k3_weights; a body with
    no k3 pieces accepts every proposal and draws no accept variate.
    Accepted sums get random signs and every other slot is filled uniformly
    on its interval. Chunks start at 64 proposals and grow
    4x after a chunk with no acceptance, then follow the observed rate;
    proposals are independent, so the first n accepted have the same law
    under any chunking.

    Every stream keeps its own chunks, budget and draw order: a chunk's k2
    sums, its other sums, its accept draws, and after the last chunk the
    fill of the other slots. So each stream's points and final generator
    state are those of a run on that generator alone. The kernels run once
    per round on the chunks of the unfinished streams side by side, in
    passes of at most one chunk's columns (about 256 kB of piece weights;
    larger passes fault in fresh pages once many streams run side by side),
    each writing accepted half sums into its stream's columns of one buffer.
    Returns (points, counts): the streams' points in turn, in one array that
    their fills are drawn into and scaled in place, n each or, once
    max_proposals proposals are spent, the accepted ones, and one
    (accepted, proposals) per stream.
    """
    halves = np.empty((len(pieces.sum_slots), len(rngs) * n))
    streams = [_HullStream(rng, halves[:, i * n:(i + 1) * n]) for i, rng in enumerate(rngs)]
    limit = _hull_chunk(pieces)
    live = streams if n else []
    while live:
        chunks = []
        for s in live:
            k = s.chunk if not s.accepted else -(-(n - s.accepted) * s.proposals // s.accepted)
            k = min(max(k, 64), limit, max_proposals - s.proposals)
            if k > 0:
                chunks.append((s, k))
        # streams in passes: a pass holds at least one chunk, and more while
        # their columns fit in one chunk's budget
        start = 0
        while start < len(chunks):
            stop, columns = start + 1, chunks[start][1]
            while stop < len(chunks) and columns + chunks[stop][1] <= limit:
                columns += chunks[stop][1]
                stop += 1
            _hull_pass(pieces, chunks[start:stop], n)
            start = stop
        live = [s for s, _ in chunks if s.accepted < n]
    kept = [min(s.accepted, n) for s in streams]
    if sum(kept) < halves.shape[1]:  # a stream ran out of budget: its filled columns only
        halves = np.concatenate([s.halves[:, :k] for s, k in zip(streams, kept)], axis=1)
    points = np.empty((sum(kept), dimension))
    for s, rows in zip(streams, np.split(points, np.cumsum(kept)[:-1])):
        _symmetric_uniform(s.rng, rows.shape, out=rows)
    # each slot group reads its own uniforms, then writes its points over them
    sums = 2.0 * halves
    points[:, pieces.sum_slots] = np.copysign(sums.T, points[:, pieces.sum_slots])
    points[:, pieces.squares] *= 2.0 * _k2_weight(sums[:len(pieces.squares)]).T
    points[:, pieces.pair_slots] *= 2.0 * _k3_weights(halves, pieces).T
    return points, [(s.accepted, s.proposals) for s in streams]


def _hull_pass(pieces, chunks, n):
    """Draw one chunk of k proposals for each (stream, k) of chunks, run the
    kernels on all of them at once, and write each stream's accepted sums,
    up to n, into its columns."""
    n_sq = len(pieces.squares)
    # the one rule on piece groups: a body without k3 pieces accepts every
    # proposal, so it draws no accept variate
    has_k3 = len(pieces.pair_slots) > 0
    sq, rest, accept = [], [], []
    for s, k in chunks:
        # each stream draws its chunk's k2 sums, other sums and accept draws;
        # a zero-size draw leaves a generator as it was
        sq.append(s.rng.random((n_sq, k)))
        rest.append(s.rng.random((len(s.halves) - n_sq, k)))
        if has_k3:
            accept.append(s.rng.random(k))
    rest = _side_by_side(rest)
    h = np.empty((len(rest) + n_sq, rest.shape[1]))
    np.multiply(_k2_sum_quantile(_side_by_side(sq)), 0.5, out=h[:n_sq])
    h[n_sq:] = rest
    w = _k3_weights(h, pieces).prod(axis=0)
    keep = _side_by_side(accept) < w if has_k3 else np.ones(len(w), dtype=bool)
    start = 0
    for s, k in chunks:
        hs = h[:, start:start + k][:, keep[start:start + k]]
        start += k
        filled = s.accepted  # below n, as the stream is live
        s.proposals += k
        s.accepted += hs.shape[1]
        if not hs.shape[1]:
            s.chunk *= 4
        s.halves[:, filled:s.accepted] = hs[:, :n - filled]  # both sides stop at n


def _side_by_side(parts):
    # one array, or the columns of several side by side
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _hull_box_fraction(pieces, rng, n):
    """Fraction of the [-2, 2]^d box that the hull body of a piece table
    fills, and its standard error.

    The mean of w, the product of every piece weight, over n sum magnitudes
    uniform on [0, 2]^(sums), drawn as half sums: w is the chance that a
    uniform box point with those sums lies in the body, so this is
    hit-or-miss with every other slot integrated out exactly.
    """
    total = total_sq = 0.0
    chunk = _hull_chunk(pieces)
    for start in range(0, n, chunk):
        h = rng.random((len(pieces.sum_slots), min(chunk, n - start)))
        # the k3 product first: allocating the k2 weights before it measured
        # slower, from where the temporaries land
        w = _k3_weights(h, pieces).prod(axis=0)
        w *= _k2_weight(2.0 * h[:len(pieces.squares)]).prod(axis=0)
        total += w.sum()
        total_sq += np.square(w).sum()
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)


def _read_only(table):
    # table, with its index arrays read-only, so that every ball built on it can share it
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return table


class _PieceTable(SimpleNamespace):
    # compared and hashed by identity, as a layout is: one table is one body
    __eq__ = object.__eq__
    __hash__ = object.__hash__


_NO_SLOTS = np.empty(0, dtype=np.intp)
#: k2 is one (sum, doubled square) piece, and k3 one (sum x, sum y, sum xy) piece
_K2_PIECES = _read_only(_PieceTable(sum_slots=np.array([0]), squares=np.array([1]),
                                    pair_j=_NO_SLOTS, pair_k=_NO_SLOTS, pair_slots=_NO_SLOTS))
_K3_PIECES = _read_only(_PieceTable(sum_slots=np.array([0, 1]), squares=_NO_SLOTS,
                                    pair_j=np.array([0]), pair_k=np.array([1]),
                                    pair_slots=np.array([2])))


def k2_ball() -> NormBall:
    """The 2-d hull for the (sum, scaled sum of squares) statistic pair: the
    [-2, 2]^2 box cut down, for |u1| > 1, to |u2| <= 2 - 2(|u1| - 1)^2."""
    # volume per quadrant: the 1 x 2 strip, and 4/3 under the cap
    return NormBall(dimension=2, pieces=_K2_PIECES, name="k2", volume=4.0 * 10.0 / 3.0)


def k3_ball() -> NormBall:
    """The 3-d hull for a (sum x, sum y, sum xy) cross-product triple: the
    [-2, 2]^3 box cut down to |u1| + |u2| + |u3| <= 4."""
    # volume per octant: [0, 2]^3 less the a + b + c > 4 corner
    return NormBall(dimension=3, pieces=_K3_PIECES, name="k3",
                    volume=8.0 * (8.0 - 4.0 / 3.0))


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp_or_inf(log_x):
    # exp that reads inf past the float range instead of raising OverflowError
    return math.exp(log_x) if log_x < _LOG_FLOAT_MAX else math.inf


def _log_volume_lp(p, m, r):
    # log of (2r)^m Gamma(1 + 1/p)^m / Gamma(1 + m/p); at p = inf, 1/p = 0
    return m * math.log(2.0 * r) + m * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + m / p)


def volume_lp(p, m, r=1.0):
    """Lebesgue volume of the lp ball of radius r in R^m; inf past the float
    range, 0.0 below it. m must be an integer >= 1, r positive and finite
    and p >= 1 or inf."""
    m = _check_integer("m", m)
    _check_positive("r", r)
    _check_p(p)
    try:
        if p == math.inf:
            return (2.0 * r) ** m
        unit = 2.0**m * math.gamma(1.0 + 1.0 / p) ** m / math.gamma(1.0 + m / p)
        return unit * r**m
    except OverflowError:
        return _exp_or_inf(_log_volume_lp(p, m, r))


def volume_monte_carlo(ball: NormBall, scale=1.0, n_samples=100_000, seed=0):
    """Monte Carlo volume estimate of scale*K over its bounding box, for a
    hull body K; an lp ball raises ValueError (its volume is volume_lp).

    Returns (estimate, standard_error): the ball's unbiased estimate of the
    fraction of the box that K fills (NormBall.box_fraction), and its
    standard error, times the box volume. The box volume is applied in log
    form, so both values read inf past the float range instead of raising.
    n_samples must be an integer >= 1000, scale positive and finite, and
    seed an integer >= 0.
    """
    n_samples = _check_integer("n_samples", n_samples, 1000)
    _check_positive("scale", scale)
    seed = _check_integer("seed", seed, 0)
    m = ball.dimension
    frac, se = ball.box_fraction(np.random.default_rng(seed), n_samples)
    log_box = m * math.log(2.0 * ball.linf_radius * scale)
    return tuple(_exp_or_inf(math.log(x) + log_box) if x > 0 else 0.0 for x in (frac, se))


@dataclass(frozen=True)
class ScaledBall:
    """A norm ball dilated by a positive sensitivity scale."""

    ball: NormBall
    scale: float

    def __post_init__(self):
        _check_positive("scale", self.scale)

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
    """One vertex of each sign class of a polytope lp ball, or None for any
    other ball: the m vertices e_i of an l1 ball and the corner (-1, ..., -1)
    of an l-infinity box.

    The rule needs a gauge that reads |x| only, as every gauge here does
    (lp_norm and _hull_gauge_many both begin with an abs): such a gauge takes
    the same value, bit for bit, at -e_i as at e_i and at all 2^m
    corners of a box. A body whose gauge is not sign symmetric slot by slot
    needs the full vertex list.
    """
    if ball.p == 1:
        return np.eye(ball.dimension)
    if ball.p == math.inf:
        return np.full((1, ball.dimension), -1.0)
    return None


def ball_containment(a: ScaledBall, b: ScaledBall, seed=0) -> ContainmentVerdict:
    """Decide whether scale_a*K_a is contained in scale_b*K_b.

    lp-vs-lp pairs are decided analytically from the extremal norm ratio,
    and a body whose l-infinity bounding radius fits inside an l-infinity
    ball b is contained in it. If a is a polytope lp ball, vertex checking
    is exact at any m: an l-infinity box is decided at its one corner
    (-1, ..., -1) and an l1 ball at its m vertices e_i, times scale_a, which
    stand for every vertex because b's gauge reads |x| only (see
    _lp_vertices); the witness is the first vertex of largest gauge. For
    every other kind of ball a the check samples 512 boundary points of a:
    any point falling outside b is a witness for not_contained, while no
    violation only yields "undetermined" (probabilistic evidence). seed,
    which only that sampling reads, must be an integer >= 0 for every pair.
    """
    seed = _check_integer("seed", seed, 0)
    if a.dimension != b.dimension:
        raise ValueError("ball_containment: dimension mismatch")
    m = a.dimension

    if a.ball == b.ball:
        # dilations of one body nest exactly by scale
        if a.scale <= b.scale * (1.0 + 1e-12):
            return ContainmentVerdict("contained")
        e1 = np.zeros(m)
        e1[0] = 1.0
        witness = a.scale * e1 / a.ball.gauge(e1)
        return ContainmentVerdict("not_contained", witness)

    if a.ball.is_lp and b.ball.is_lp:
        c = _lp_extremal_ratio(a.ball.p, b.ball.p, m)
        if a.scale * c <= b.scale * (1.0 + 1e-12):
            return ContainmentVerdict("contained")
        if a.ball.p <= b.ball.p:
            witness = np.zeros(m)
            witness[0] = a.scale
        else:
            witness = np.full(m, a.scale * m ** (-1.0 / a.ball.p))
        return ContainmentVerdict("not_contained", witness)

    # every body lies in its own l-infinity bounding box
    if b.ball.p == math.inf and a.scale * a.ball.linf_radius <= b.scale * (1.0 + 1e-12):
        return ContainmentVerdict("contained")

    vertices = _lp_vertices(a.ball)
    if vertices is not None:
        pts = a.scale * vertices
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


def quadratic_pair_sensitivity(p):
    """lp sensitivity of the statistic (sum x_i, 2 sum x_i^2) on [-1,1]^n.

    Maximizes ||(u, 2 _k2_weight(u))||_p, the k2 body's corner over its sum
    magnitude u in [0, 2]; by symmetry of the difference set this covers all
    of it. (Below u = 1 the square's bound is 2, and (1, 2) dominates every
    such point.) The objective is multimodal for large p, so a grid scan
    brackets the global maximum before scipy's bounded scalar search refines
    it; scipy.optimize is imported here, at the first call.
    """
    _check_p(p)
    from scipy.optimize import minimize_scalar

    def corner_norm(u):
        return lp_norm(np.stack([u, 2.0 * _k2_weight(u)], axis=-1), p)

    grid = np.linspace(0.0, 2.0, 2001)
    vals = corner_norm(grid)
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda u: -corner_norm(np.array([u]))[0], method="bounded",
                          bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                          options={"xatol": 1e-12})
    return max(float(vals[i]), -float(res.fun))
