"""Norm balls, gauges, volumes, sensitivities, and containment checks.

A norm ball is a convex, bounded, absorbing, origin-symmetric subset of R^m.
Balls are either analytic lp bodies (p in [1, inf], radius r) or oracle
bodies given by a vectorized membership predicate at unit scale together
with an l-infinity bounding radius. Every value here is immutable after
construction and every operation is a pure function of its inputs plus an
explicit seed, so everything is safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NormBall",
    "ScaledBall",
    "ContainmentVerdict",
    "lp_norm",
    "gauge",
    "k2_member",
    "k3_member",
    "k2_ball",
    "k3_ball",
    "volume_lp",
    "volume_monte_carlo",
    "ball_containment",
    "quadratic_pair_sensitivity",
]

_GAUGE_REL_TOL = 1e-10
_CONTAIN_TOL = 1e-9


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
    membership, and ``linf_bound`` bounds the l-infinity norm of every
    member point. Oracle balls are identified by ``name``: equality ignores
    the predicate object, so give distinct bodies distinct names.
    """

    dimension: int
    p: Optional[float] = None
    radius: float = 1.0
    member: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    linf_bound: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.p is not None:
            if not self.p >= 1:  # also rejects nan
                raise ValueError(f"p must be >= 1 or inf, got {self.p}")
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise ValueError(f"radius must be positive, got {self.radius}")
        else:
            if self.member is None:
                raise ValueError("oracle ball requires a membership predicate")
            if self.linf_bound is None or not (
                self.linf_bound > 0 and math.isfinite(self.linf_bound)
            ):
                raise ValueError("oracle ball requires a positive linf bound")

    @classmethod
    def lp(cls, p, radius, dimension, name=""):
        return cls(dimension=dimension, p=float(p), radius=float(radius), name=name)

    @classmethod
    def from_oracle(cls, member, linf_bound, dimension, name=""):
        return cls(
            dimension=dimension,
            member=member,
            linf_bound=float(linf_bound),
            name=name,
        )

    @property
    def is_lp(self):
        return self.p is not None

    @property
    def linf_radius(self):
        """l-infinity bounding radius of the body."""
        return self.radius if self.is_lp else self.linf_bound

    def label(self):
        if self.name:
            return self.name
        p = "inf" if self.p == math.inf else f"{self.p:g}"
        return f"l{p}" if self.radius == 1.0 else f"l{p}(r={self.radius:g})"

    def member_many(self, points):
        """Unit-scale membership for an (n, m) array of points."""
        points = np.asarray(points, dtype=float)
        if self.is_lp:
            return lp_norm(points, self.p) <= self.radius
        return np.asarray(self.member(points), dtype=bool)

    def gauge_many(self, points):
        """Minkowski gauge of each row of an (n, m) array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("gauge: non-finite input")
        if points.shape[1] != self.dimension:
            raise ValueError(
                f"gauge: dimension mismatch ({points.shape[1]} != {self.dimension})"
            )
        if self.is_lp:
            return lp_norm(points, self.p) / self.radius
        return self._oracle_gauge(points)

    def gauge(self, x):
        """Minkowski gauge ||x||_K of a single vector."""
        return float(self.gauge_many(np.asarray(x, dtype=float)[None, :])[0])

    def _oracle_gauge(self, points):
        # Bisection along the ray through each point: member(x/c) is
        # monotone in c, true exactly for c >= gauge(x).
        n, m = points.shape
        out = np.zeros(n)
        amax = np.abs(points).max(axis=1)
        live = amax > 0
        if not live.any():
            return out
        unit = points[live] / amax[live, None]
        hi = np.full(unit.shape[0], 2.0 * self.linf_bound * math.sqrt(m))
        for _ in range(80):
            outside = ~self.member_many(unit / hi[:, None])
            if not outside.any():
                break
            hi[outside] *= 2.0
        else:
            raise ValueError("gauge: could not bracket the boundary (ball not absorbing?)")
        lo = np.zeros_like(hi)
        while np.any(hi - lo > _GAUGE_REL_TOL * hi):
            mid = 0.5 * (lo + hi)
            inside = self.member_many(unit / mid[:, None])
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
        out[live] = 0.5 * (lo + hi) * amax[live]
        return out


def gauge(ball: NormBall, x) -> float:
    """Minkowski gauge ||x||_K = inf{c >= 0 : x in c*K}."""
    return ball.gauge(x)


def _k2_member_many(u):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    a1 = np.abs(u[:, 0])
    a2 = np.abs(u[:, 1])
    cap = 2.0 - 2.0 * (a1 - 1.0) ** 2
    return (a1 <= 2.0) & (a2 <= 2.0) & ((a1 <= 1.0) | (a2 <= cap))


def _k3_member_many(u):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    a = np.abs(u)
    return (a <= 2.0).all(axis=1) & (a.sum(axis=1) <= 4.0)


def k2_member(u) -> bool:
    """Membership in the parabola-capped hull for (sum x, 2*sum x^2) pairs.

    The body is [-2,2]^2 cut down, for |u1| > 1, to |u2| <= 2 - 2(|u1|-1)^2.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise ValueError("k2_member expects a 2-vector")
    return bool(_k2_member_many(u[None, :])[0])


def k3_member(u) -> bool:
    """Membership in the cube-truncated cross body for (sum x, sum y, sum xy)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("k3_member expects a 3-vector")
    return bool(_k3_member_many(u[None, :])[0])


def k2_ball() -> NormBall:
    """The 2-d hull for the (sum, scaled sum of squares) statistic pair."""
    return NormBall.from_oracle(_k2_member_many, linf_bound=2.0, dimension=2, name="k2")


def k3_ball() -> NormBall:
    """The 3-d hull for a (sum x, sum y, sum xy) cross-product triple."""
    return NormBall.from_oracle(_k3_member_many, linf_bound=2.0, dimension=3, name="k3")


def volume_lp(p, m, r=1.0):
    """Lebesgue volume of the lp ball of radius r in R^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if p == math.inf:
        return (2.0 * r) ** m
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    try:
        unit = 2.0**m * math.gamma(1.0 + 1.0 / p) ** m / math.gamma(1.0 + m / p)
        return unit * r**m
    except OverflowError:
        logv = (
            m * math.log(2.0 * r)
            + m * math.lgamma(1.0 + 1.0 / p)
            - math.lgamma(1.0 + m / p)
        )
        return math.exp(logv)


def volume_monte_carlo(ball: NormBall, scale=1.0, n_samples=100_000, seed=0):
    """Hit-or-miss volume estimate of scale*K over its bounding box.

    Returns (estimate, standard_error); the estimate is unbiased and the
    standard error comes from the binomial hit proportion.
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
    hits = 0
    done = 0
    chunk = 1 << 17
    while done < n_samples:
        k = min(chunk, n_samples - done)
        pts = rng.uniform(-b, b, size=(k, m))
        hits += int(ball.member_many(pts).sum())
        done += k
    box = (2.0 * b * scale) ** m
    phat = hits / n_samples
    est = box * phat
    se = box * math.sqrt(phat * (1.0 - phat) / n_samples)
    return est, se


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
    inv_b = 0.0 if pb == math.inf else 1.0 / pb
    inv_a = 0.0 if pa == math.inf else 1.0 / pa
    return m ** (inv_b - inv_a)


def _lp_vertices(ball: NormBall):
    # exact vertex lists for the polytope lp balls
    m, r = ball.dimension, ball.radius
    if ball.p == 1:
        eye = np.eye(m)
        return np.vstack([r * eye, -r * eye])
    if ball.p == math.inf and m <= 16:
        corners = np.array(
            [[1 if (i >> j) & 1 else -1 for j in range(m)] for i in range(1 << m)],
            dtype=float,
        )
        return r * corners
    return None


def ball_containment(a: ScaledBall, b: ScaledBall, n_directions=512, seed=0,
                     vertices=None) -> ContainmentVerdict:
    """Decide whether scale_a*K_a is contained in scale_b*K_b.

    lp-vs-lp pairs are decided analytically from the extremal norm ratio.
    If ``vertices`` (points of a's unit-scale ball) are supplied, or a is a
    polytope lp ball with a tractable vertex list, vertex checking is exact.
    Otherwise the check samples ``n_directions`` boundary points of a: any
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
            inv_a = 0.0 if a.ball.p == math.inf else 1.0 / a.ball.p
            witness = np.full(m, ra * m ** (-inv_a))
        return ContainmentVerdict("not_contained", witness)

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
    dirs = rng.standard_normal((n_directions, m))
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
    pts = np.column_stack([grid, 2.0 - 2.0 * (grid - 1.0) ** 2])
    vals = lp_norm(pts, p)
    i = int(np.argmax(vals))

    def f(u):
        return float(lp_norm(np.array([u, 2.0 - 2.0 * (u - 1.0) ** 2]), p))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    return max(float(vals[i]), _golden_max(f, lo, hi))
