"""Exact samplers for K-norm noise mechanisms.

The noise density is f(v) proportional to exp(-(eps/Delta)*||v||_K).
Closed forms cover the l1 (independent Laplace), l2 (gamma radius times a
spherical direction) and l-infinity (gamma radius times a box direction)
balls, and every other lp ball through the polar form: a gamma radius
times G/||G||_p for G with iid coordinates of density proportional to
exp(-|g|^p). Arbitrary balls go through a uniform point on K, from the
ball's own exact sampler if it has one and by rejection from its bounding
box otherwise, followed by an independent Gamma(m+1) radius. In every case
the gauge of the noise is marginally Gamma(m, eps/Delta).

Samplers are pure given an explicit generator; parallel replicates should
use distinct RngStream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, lp_norm

__all__ = [
    "RngStream",
    "MechanismConfig",
    "SamplerError",
    "sample_gamma_int",
    "sample_l1_mech",
    "sample_l2_mech",
    "sample_linf_mech",
    "sample_lp_mech",
    "sample_k_mech_rejection",
    "sample_noise",
]


class SamplerError(RuntimeError):
    """Raised when rejection sampling exhausts its proposal budget."""


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream id) -> generator.

    Identical (seed, stream) pairs reproduce identical sample sequences
    bit for bit across runs.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.stream < 0:
            raise ValueError("stream id must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy budget, sensitivity and norm ball of one K-norm mechanism."""

    epsilon: float
    delta: float
    ball: NormBall
    label: str = ""

    def __post_init__(self):
        _check_positive("epsilon", self.epsilon)
        _check_positive("delta", self.delta)
        if not self.label:
            object.__setattr__(self, "label", f"{self.ball.label()}:d={self.delta:g}")

    @property
    def dimension(self):
        return self.ball.dimension

    @property
    def rate(self):
        """Rate eps/Delta of the Gamma(m, rate) gauge marginal."""
        return self.epsilon / self.delta


def _check_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def sample_gamma_int(shape, rate, rng, size=None):
    """Gamma(shape, rate) draw(s) for integer shape, as a sum of exponentials."""
    if int(shape) != shape or shape <= 0:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    _check_positive("rate", rate)
    k = int(shape)
    if size is None:
        return float(rng.standard_exponential(k).sum() / rate)
    return rng.standard_exponential((size, k)).sum(axis=1) / rate


def _laplace_inverse_cdf(u, scale):
    # u in (0,1); median u=1/2 maps to exactly 0
    half = u - 0.5
    return -scale * np.sign(half) * np.log1p(-2.0 * np.abs(half))


def sample_l1_mech(T, delta1, epsilon, rng, size=None):
    """l1-mechanism output T + V, V iid Laplace(delta1/epsilon) per coordinate."""
    _check_positive("delta1", delta1)
    _check_positive("epsilon", epsilon)
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    scale = delta1 / epsilon
    shape = (m,) if size is None else (size, m)
    u = rng.random(shape)
    # u = 0 maps to -inf; redrawing it conditions u onto (0, 1), which keeps
    # the draw exact and leaves every stream without an exact 0 unchanged
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    v = _laplace_inverse_cdf(u, scale)
    return T + v


def sample_l2_mech(T, delta2, epsilon, rng, size=None):
    """l2-mechanism output T + r*Z/||Z||_2 with r ~ Gamma(m, eps/delta2)."""
    _check_positive("delta2", delta2)
    _check_positive("epsilon", epsilon)
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    n = 1 if size is None else size
    z = rng.standard_normal((n, m))
    norms = lp_norm(z, 2)[:, None]
    # a zero normal vector has probability zero; guard the division anyway
    norms[norms == 0.0] = 1.0
    r = sample_gamma_int(m, epsilon / delta2, rng, size=n)
    v = r[:, None] * z / norms
    return T + (v[0] if size is None else v)


def sample_linf_mech(T, delta_inf, epsilon, rng, size=None):
    """l-infinity mechanism output T + r*U, U iid Uniform(-1,1), r ~ Gamma(m+1, eps/delta)."""
    _check_positive("delta_inf", delta_inf)
    _check_positive("epsilon", epsilon)
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    n = 1 if size is None else size
    u = rng.uniform(-1.0, 1.0, size=(n, m))
    r = sample_gamma_int(m + 1, epsilon / delta_inf, rng, size=n)
    v = r[:, None] * u
    return T + (v[0] if size is None else v)


def sample_lp_mech(T, p, delta_p, epsilon, rng, size=None):
    """lp-mechanism output T + r*G/||G||_p with r ~ Gamma(m, eps/delta_p), any p >= 1.

    G has iid coordinates with density proportional to exp(-|g|^p), so
    G/||G||_p follows the cone measure of the unit lp sphere and is
    independent of ||G||_p (Barthe, Guedon, Mendelson & Naor, Ann. Prob.
    2005). Each coordinate is drawn as Gamma(1 + 1/p)^(1/p) * U with U
    uniform on (-1, 1): since Gamma(a) = Gamma(a + 1) * U^(1/a) in law, this
    is +-Gamma(1/p)^(1/p), without the underflow of Gamma(1/p) for large p.
    """
    _check_positive("delta_p", delta_p)
    _check_positive("epsilon", epsilon)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    n = 1 if size is None else size
    u = rng.uniform(-1.0, 1.0, size=(n, m))
    g = rng.standard_gamma(1.0 + 1.0 / p, size=(n, m)) ** (1.0 / p) * u
    norms = lp_norm(g, p)[:, None]
    # an all-zero G has probability zero; guard the division anyway
    norms[norms == 0.0] = 1.0
    r = sample_gamma_int(m, epsilon / delta_p, rng, size=n)
    v = r[:, None] * g / norms
    return T + (v[0] if size is None else v)


def sample_uniform_ball(ball: NormBall, rng, size=None, max_attempts=10**6):
    """Uniform draw(s) on the unit-scale ball: by the ball's own sampler if
    it has one, otherwise by rejection from its box.

    Returns (samples, (accepted, proposals)): the requested points plus the
    total acceptance counts over all proposals (accepted can exceed the
    request; extras are discarded). Raises SamplerError, reporting the
    observed acceptance rate, if the proposal budget runs out first; this is
    the one place that raises it, as a ball's own sampler returns the points
    it has when its budget runs out.
    """
    n = 1 if size is None else size
    if ball.uniform_fn is not None:
        out, (accepted, proposals) = ball.uniform_fn(rng, n, max_attempts)
        got = len(out)
    else:
        b = ball.linf_radius
        out = np.empty((n, ball.dimension))
        got = proposals = accepted = 0
        while got < n:
            chunk = min(max(256, 2 * (n - got)), 1 << 16, max_attempts - proposals)
            if chunk <= 0:
                break
            pts = rng.uniform(-b, b, size=(chunk, ball.dimension))
            proposals += chunk
            acc = pts[ball.member_many(pts)]
            accepted += len(acc)
            take = min(len(acc), n - got)
            out[got : got + take] = acc[:take]
            got += take
    if got < n:
        rate = accepted / proposals if proposals else 0.0
        raise SamplerError(
            f"rejection sampling failed: {got}/{n} accepted after "
            f"{proposals} proposals (acceptance rate {rate:.3g})"
        )
    return (out[0] if size is None else out), (accepted, proposals)


def sample_k_mech_rejection(T, ball: NormBall, delta_k, epsilon, rng,
                            max_attempts=10**6, size=None, return_stats=False):
    """K-norm mechanism for an arbitrary ball: T + r*U.

    U is uniform on the unit-scale ball (the ball's own sampler, or
    rejection from the bounding box; see sample_uniform_ball) and
    r ~ Gamma(m+1, eps/delta_k) independent, which yields the target
    density proportional to exp(-(eps/delta_k)*||v||_K).

    With return_stats, also returns a dict with proposal counts and the
    acceptance rate.
    """
    _check_positive("delta_k", delta_k)
    _check_positive("epsilon", epsilon)
    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    if ball.dimension != m:
        raise ValueError("ball dimension does not match T")
    n = 1 if size is None else size
    u, (accepted, proposals) = sample_uniform_ball(
        ball, rng, size=n, max_attempts=max_attempts
    )
    r = sample_gamma_int(m + 1, epsilon / delta_k, rng, size=n)
    v = r[:, None] * u
    out = T + (v[0] if size is None else v)
    if return_stats:
        stats = {
            "accepted": accepted,
            "proposals": proposals,
            "acceptance_rate": accepted / proposals,
        }
        return out, stats
    return out


def sample_noise(config: MechanismConfig, rng, size=None, max_attempts=10**6):
    """Noise draw(s) from a mechanism config, dispatching on the ball kind.

    The gauge here is the ball's own Minkowski functional, so an lp ball of
    radius r uses the effective per-norm scale delta*r.
    """
    ball = config.ball
    m = ball.dimension
    zero = np.zeros(m)
    if ball.is_lp:
        # gauge = lp_norm/r, so the density in the lp norm has scale delta*r
        delta_eff = config.delta * ball.radius
        if ball.p == 1:
            return sample_l1_mech(zero, delta_eff, config.epsilon, rng, size=size)
        if ball.p == 2:
            return sample_l2_mech(zero, delta_eff, config.epsilon, rng, size=size)
        if ball.p == math.inf:
            return sample_linf_mech(zero, delta_eff, config.epsilon, rng, size=size)
        return sample_lp_mech(zero, ball.p, delta_eff, config.epsilon, rng, size=size)
    return sample_k_mech_rejection(
        zero, ball, config.delta, config.epsilon, rng,
        max_attempts=max_attempts, size=size,
    )
