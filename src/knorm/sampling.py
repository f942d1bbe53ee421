"""Exact samplers for K-norm noise mechanisms.

The noise density is f(v) proportional to exp(-(eps/Delta)*||v||_K).
Closed forms cover the l1 (independent Laplace), l2 (gamma radius times a
spherical direction) and l-infinity (gamma radius times a box direction)
balls, and every other lp ball through the polar form: a gamma radius
times G/||G||_p for G with iid coordinates of density proportional to
exp(-|g|^p) (_lp_stack). The hull balls k2, k3 and kt<p> take one kernel:
exact uniform points of K from one NormBall.uniform call for all of a
ball's generators, within MAX_PROPOSALS proposals each, times independent
Gamma(m+1) radii. In every case the gauge of the noise is marginally
Gamma(m, eps/Delta). _noise is the one sampler of every ball, and runs
its arithmetic once on the rows of all its generators: sample_noise is its
one-pair case, sample_noise_rows calls it once per ball, and
sample_k_mech_rejection adds its draw to T and reads its proposal counts.
The workflows draw through sample_noise_rows (erm.objective_perturbation_rows
and harness._private_estimates, one call per replicate or block) or
sample_noise (linreg.sanitize_statistic, harness.run_diagnostics and the
CLI's sample).

A release T + V is finite for every T whose entries are at most
sys.float_info.max - B in magnitude, where B = (m + 1)*745*linf_radius*
Delta/eps bounds every noise coordinate and _check_budget keeps B finite.
A larger T is not refused, as the refusal would then depend on the data,
and T + V may overflow.

Samplers are pure given an explicit generator; parallel replicates should
use distinct RngStream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, _check_integer, _check_positive, _reduce_rows, lp_norm

__all__ = [
    "RngStream",
    "MechanismConfig",
    "SamplerError",
    "BudgetError",
    "sample_l1_mech",
    "sample_l2_mech",
    "sample_linf_mech",
    "sample_lp_mech",
    "sample_k_mech_rejection",
    "sample_noise",
    "sample_noise_rows",
]


#: proposals each NormBall.uniform draw may spend per generator; read at call time
MAX_PROPOSALS = 10**6


class SamplerError(RuntimeError):
    """Raised when rejection sampling exhausts its proposal budget."""


class BudgetError(ValueError):
    """Raised, before any draw, for a privacy budget that is refused."""


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream id) -> generator.

    Identical (seed, stream) pairs reproduce identical sample sequences
    bit for bit across runs. Both must be integers >= 0; an integer-valued
    float is kept as its int.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))
        object.__setattr__(self, "stream", _check_integer("stream", self.stream, 0))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy budget, sensitivity and norm ball of one K-norm mechanism.

    A budget whose noise could be non-finite is refused here, before any
    draw (_check_budget)."""

    epsilon: float
    delta: float
    ball: NormBall
    label: str = ""

    def __post_init__(self):
        _check_budget(self.epsilon, self.delta, self.ball)
        if not self.label:
            # every digit of delta, as NormBall.label writes p
            delta = repr(float(self.delta)).removesuffix(".0")
            object.__setattr__(self, "label", f"{self.ball.label()}:d={delta}")

    @property
    def dimension(self):
        return self.ball.dimension

    @property
    def rate(self):
        """Rate eps/Delta of the Gamma(m, rate) gauge marginal."""
        return self.epsilon / self.delta


#: above -log of the smallest positive float, so above every standard
#: exponential draw and every -log1p term of a Laplace draw
_MAX_LOG_DRAW = 745.0


def _coordinate_bound(ball, rate):
    """(m + 1)*745*linf_radius/rate, above every coordinate of the noise of
    a ball at that rate: a Gamma(m + 1) radius is a sum of m + 1
    exponentials, each below 745, as is each -log1p term of a Laplace draw."""
    return (ball.dimension + 1) * _MAX_LOG_DRAW * ball.linf_radius / rate


def _check_budget(epsilon, delta, ball):
    """Refuse, from public parameters alone, a budget whose noise could be
    non-finite: epsilon and delta must be positive and finite, and so must
    the rate epsilon/delta, delta*linf_radius (an lp ball's noise scale is
    delta) and the bound _coordinate_bound on every noise coordinate."""
    _check_positive("epsilon", epsilon, BudgetError)
    _check_positive("delta", delta, BudgetError)
    rate = epsilon / delta
    if not (rate > 0 and math.isfinite(rate)
            and math.isfinite(delta * ball.linf_radius)
            and math.isfinite(_coordinate_bound(ball, rate))):
        raise BudgetError(
            f"epsilon={epsilon!r} and delta={delta!r} can give non-finite noise "
            f"for {ball.label()} at m={ball.dimension} (rate epsilon/delta = {rate!r})")


def _stack(draws, shape, name, *args):
    """One draw per (MechanismConfig, generator) pair of draws, as the slabs
    of a (len(draws), *shape) stack: slab i is getattr(rng_i, name)(*args,
    shape), which leaves generator i where that call does."""
    if len(draws) == 1:  # the same draws, in the stack's shape, with no copy
        return getattr(draws[0][1], name)(*args, (1, *shape))
    return np.stack([getattr(rng, name)(*args, shape) for _, rng in draws])


def _per_slab(values, ndim):
    """One value per slab of a stack of ndim axes, shaped to broadcast over
    it; a lone slab's value stays a float, which numpy applies faster than
    a one-element array."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * (ndim - 1))


def _gamma_radii(shape, draws, n):
    """(k, n) Gamma(shape, rate) radii for integer shape, one row per
    (MechanismConfig, generator) pair of draws at its rate eps/delta, as
    sums of shape exponentials: the row sums (_reduce_rows) and rate
    divisions run once on the stack."""
    e = _stack(draws, (n, shape), "standard_exponential")
    r = _reduce_rows(np.add, e.reshape(-1, shape)).reshape(len(draws), n)
    r /= _per_slab([config.rate for config, _ in draws], 2)
    return r


def _lp_stack(p, m, draws, n):
    """(k, n, m) draws for the k (MechanismConfig, generator) pairs of draws,
    slab i with density proportional to exp(-(epsilon_i/delta_i)*||v||_p)
    from generator i.

    Each generator draws in the order a run on it alone would, and the
    arithmetic runs once on the stack, with each pair's scale broadcast
    over its slab. l1 takes iid Laplace coordinates, l-infinity a
    Gamma(m+1) radius times a uniform point of the box, and any other p a
    Gamma(m) radius times G/||G||_p, which follows the cone measure of the
    unit lp sphere independently of ||G||_p when G has iid coordinates of
    density proportional to exp(-c|g|^p) (Barthe, Guedon, Mendelson & Naor,
    Ann. Prob. 2005): standard normal at p = 2, else the polar form
    Gamma(1 + 1/p)^(1/p) * U with U uniform on (-1, 1), which is
    +-Gamma(1/p)^(1/p) in law (Gamma(a) = Gamma(a + 1) * U^(1/a)) without
    the underflow of Gamma(1/p) at large p.
    """
    if p == 1:
        u = _stack(draws, (n, m), "random")
        # u = 0 maps to -inf; redrawing it conditions u onto (0, 1), which keeps
        # the draw exact and leaves every stream without an exact 0 unchanged
        if (u == 0.0).any():
            for (_, rng), slab in zip(draws, u):
                zero = slab == 0.0
                while zero.any():
                    slab[zero] = rng.random(int(zero.sum()))
                    zero = slab == 0.0
        # Laplace inverse CDF -(delta/epsilon)*sign(u - 1/2)*log1p(-2|u - 1/2|),
        # in place in that operation order; the median u = 1/2 maps to exactly 0
        u -= 0.5
        scale = np.sign(u)
        scale *= _per_slab([-(config.delta / config.epsilon) for config, _ in draws], 3)
        np.abs(u, out=u)
        u *= -2.0
        return np.multiply(scale, np.log1p(u, out=u), out=u)
    if p == math.inf:
        u = _stack(draws, (n, m), "uniform", -1.0, 1.0)
        u *= _gamma_radii(m + 1, draws, n)[:, :, None]
        return u
    if p == 2:
        g = _stack(draws, (n, m), "standard_normal")
    else:
        u = _stack(draws, (n, m), "uniform", -1.0, 1.0)
        g = _stack(draws, (n, m), "standard_gamma", 1.0 + 1.0 / p) ** (1.0 / p) * u
    norms = lp_norm(g.reshape(-1, m), p).reshape(len(draws), n, 1)
    # an all-zero G has probability zero; guard the division anyway
    norms[norms == 0.0] = 1.0
    r = _gamma_radii(m, draws, n)
    return r[:, :, None] * g / norms


def sample_l1_mech(T, delta1, epsilon, rng, size=None):
    """l1-mechanism output T + V, V iid Laplace(delta1/epsilon) per coordinate."""
    return sample_lp_mech(T, 1, delta1, epsilon, rng, size)


def sample_l2_mech(T, delta2, epsilon, rng, size=None):
    """l2-mechanism output T + r*Z/||Z||_2 with r ~ Gamma(m, eps/delta2)."""
    return sample_lp_mech(T, 2, delta2, epsilon, rng, size)


def sample_linf_mech(T, delta_inf, epsilon, rng, size=None):
    """l-infinity mechanism output T + r*U, U iid Uniform(-1,1), r ~ Gamma(m+1, eps/delta)."""
    return sample_lp_mech(T, math.inf, delta_inf, epsilon, rng, size)


def sample_lp_mech(T, p, delta_p, epsilon, rng, size=None):
    """lp-mechanism output T + V, V with density proportional to
    exp(-(epsilon/delta_p)*||V||_p), any p >= 1 (see _lp_stack)."""
    T = np.asarray(T, dtype=float)
    config = MechanismConfig(epsilon, delta_p, NormBall.lp(p, 1.0, T.shape[-1]))
    return T + sample_noise(config, rng, size=size)


def _noise(ball, draws, n):
    """n noise draws of a ball for each (MechanismConfig, generator) pair of
    draws, as a (len(draws)*n, m) array, and each pair's (accepted,
    proposals) counts: an lp ball's closed or polar form (_lp_stack) at
    scale delta, counted as (n, n), or a hull's exact uniform points, stacked
    by one NormBall.uniform call for every generator, times the stacked
    independent Gamma(m+1, eps/delta) radii. Every pair needs its own
    generator, which draws in the order a run on that pair alone would,
    while the arithmetic runs once on all pairs' rows.
    Raises SamplerError, reporting the observed acceptance rate, for a hull
    pair whose MAX_PROPOSALS run out first."""
    m = ball.dimension
    if ball.is_lp:
        return _lp_stack(ball.p, m, draws, n).reshape(-1, m), [(n, n)] * len(draws)
    noise, counts = ball.uniform([rng for _, rng in draws], n, MAX_PROPOSALS)
    for accepted, proposals in counts:
        if accepted < n:
            raise SamplerError(
                f"rejection sampling failed: {accepted}/{n} accepted after {proposals} "
                f"proposals (acceptance rate {accepted / proposals if proposals else 0.0:.3g})")
    noise *= _gamma_radii(m + 1, draws, n).reshape(-1, 1)
    # 0.0 + v turns each -0.0 of v into 0.0, as T + v does with a zero T
    return np.add(0.0, noise, out=noise), counts


def sample_k_mech_rejection(T, ball: NormBall, delta_k, epsilon, rng, size=None,
                            return_stats=False):
    """K-norm mechanism for any norm ball: T + V, with V the draw that
    sample_noise makes (see _noise), after MechanismConfig's budget check;
    see the module docstring for the range of T. With return_stats, also
    returns a dict of _noise's proposal counts and the acceptance rate."""
    config = MechanismConfig(epsilon, delta_k, ball)
    T = np.asarray(T, dtype=float)
    if ball.dimension != T.shape[-1]:
        raise ValueError("ball dimension does not match T")
    v, [(accepted, proposals)] = _noise(ball, [(config, rng)], 1 if size is None else size)
    out = T + (v[0] if size is None else v)
    if return_stats:
        return out, {"accepted": accepted, "proposals": proposals,
                     "acceptance_rate": accepted / proposals if proposals else 0.0}
    return out


def sample_noise(config: MechanismConfig, rng, size=None):
    """Noise draw(s) from a mechanism config: one (m,) draw, or (size, m);
    the one-pair case of _noise."""
    v, _ = _noise(config.ball, [(config, rng)], 1 if size is None else size)
    return v[0] if size is None else v


def sample_noise_rows(draws):
    """One noise draw per (MechanismConfig, generator) pair of draws, as the
    rows of a (len(draws), m) array; the configs share one dimension m and
    every pair has its own generator.

    Row i is sample_noise(*draws[i]) bit for bit, and each generator ends
    where that call leaves it: the pairs of each ball take one _noise call,
    so a hull's pairs draw their uniform points side by side (the stacked
    _hull_uniform), then each its Gamma(m+1) radius, and the arithmetic of
    every ball runs once on all of its pairs' rows. Raises SamplerError, as
    sample_noise does, for a pair whose proposal budget runs out.
    """
    if len({id(rng) for _, rng in draws}) < len(draws):
        raise ValueError("sample_noise_rows: every draw needs its own generator")
    dims = {config.dimension for config, _ in draws}
    if len(dims) > 1:
        raise ValueError(f"sample_noise_rows: configs of dimensions {sorted(dims)}")
    out = np.empty((len(draws), dims.pop() if dims else 0))
    groups = {}
    for i, (config, _) in enumerate(draws):
        groups.setdefault(config.ball, []).append(i)
    for ball, rows in groups.items():
        out[rows], _ = _noise(ball, [draws[i] for i in rows], 1)
    return out
