"""Comparison framework for K-norm mechanisms.

Two mechanisms at the same privacy budget are compared through the
containment of their scaled norm balls (equivalently: stochastic tightness,
dispersion, and directional conditional variance) and through the volume of
those balls (equivalently: entropy and scatter). Containment is a partial
order; volume is a total order extending it. The CDF and quantiles of the
Gamma(m, eps/Delta) gauge marginal come from scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammainc, gammaincinv

from .geometry import ScaledBall, ball_containment, volume_lp, volume_monte_carlo
from .sampling import MechanismConfig

__all__ = [
    "ComparisonReport",
    "gamma_cdf",
    "gamma_quantile",
    "entropy",
    "concentration_radius",
    "stochastic_tightness",
    "depth",
    "conditional_variance",
    "compare",
]


def gamma_cdf(x, shape, rate):
    """CDF of Gamma(shape, rate) at x (rate parameterization)."""
    if shape <= 0:
        raise ValueError("shape must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if x <= 0:
        return 0.0
    return float(gammainc(shape, rate * x))


def gamma_quantile(alpha, shape, rate):
    """alpha-quantile of Gamma(shape, rate)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if shape <= 0:
        raise ValueError("shape must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    return float(gammaincinv(shape, alpha)) / rate


def entropy(config: MechanismConfig, ball_volume=None):
    """Differential entropy of the mechanism's noise distribution.

    Equals log((delta*e/eps)^m * m! * vol(K)). The unit-ball volume is
    computed analytically for lp balls; oracle balls must supply
    ``ball_volume`` (e.g. a Monte Carlo estimate) or a ValueError is raised.
    """
    ball = config.ball
    m = ball.dimension
    if ball_volume is None:
        if not ball.is_lp:
            raise ValueError("entropy: unknown volume for oracle ball; pass ball_volume")
        ball_volume = volume_lp(ball.p, m, ball.radius)
    return (
        m * (1.0 + math.log(config.delta / config.epsilon))
        + math.lgamma(m + 1)
        + math.log(ball_volume)
    )


def concentration_radius(config: MechanismConfig, alpha):
    """Radius t such that t*K is the alpha-concentration set of the noise.

    t is the alpha-quantile of the Gamma(m, eps/delta) gauge marginal.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return gamma_quantile(alpha, config.dimension, config.rate)


def depth(config: MechanismConfig, v):
    """Center-outward depth of a point under the mechanism's noise law.

    Returns 1 - F(||v||_K) with F the Gamma(m, eps/delta) CDF; depends on v
    only through its gauge, is 1 at the origin and decreases along rays.
    """
    g = config.ball.gauge(np.asarray(v, dtype=float))
    return 1.0 - gamma_cdf(g, config.dimension, config.rate)


def conditional_variance(config: MechanismConfig, e):
    """Variance of |V^T e| conditional on the noise V lying in span(e).

    For a unit l2 direction e the conditional law is Gamma(m,
    (eps/delta)*||e||_K) scaled into the line, with variance
    m*delta^2 / (eps^2 * ||e||_K^2), the gauge taken on the unit-scale ball.
    """
    e = np.asarray(e, dtype=float)
    n2 = float(np.sqrt((e * e).sum()))
    if abs(n2 - 1.0) > 1e-10:
        raise ValueError(f"e must be an l2 unit vector, got norm {n2}")
    g = config.ball.gauge(e)
    if g <= 0:
        raise ValueError("zero direction")
    m = config.dimension
    return m * config.delta**2 / (config.epsilon**2 * g**2)


def _require_comparable(a: MechanismConfig, b: MechanismConfig):
    if a.dimension != b.dimension:
        raise ValueError("mechanisms have different dimensions")
    if a.epsilon != b.epsilon:
        raise ValueError("tightness comparison requires equal epsilon")


def _tightness_verdict(a, b, n_directions, seed):
    sa = ScaledBall(a.ball, a.delta)
    sb = ScaledBall(b.ball, b.delta)
    ab = ball_containment(sa, sb, n_directions=n_directions, seed=seed)
    ba = ball_containment(sb, sa, n_directions=n_directions, seed=seed + 1)
    witness = ab.witness if ab.status == "not_contained" else ba.witness
    if ab.is_contained and ba.is_contained:
        return "tie", witness
    if ab.is_contained:
        return "a_tighter", witness
    if ba.is_contained:
        return "b_tighter", witness
    if ab.status == "not_contained" and ba.status == "not_contained":
        return "incomparable", witness
    return "undetermined", witness


def stochastic_tightness(a: MechanismConfig, b: MechanismConfig,
                         n_directions=512, seed=0):
    """Containment-order verdict between two mechanisms at equal budget.

    Returns "a_tighter", "b_tighter", "tie", "incomparable", or
    "undetermined" (oracle pairs where sampling found no witness).
    """
    _require_comparable(a, b)
    return _tightness_verdict(a, b, n_directions, seed)[0]


@dataclass(frozen=True)
class ComparisonReport:
    """Joint outcome of the containment and volume decision rules."""

    label_a: str
    label_b: str
    containment: str
    containment_witness: Optional[np.ndarray]
    volume_a: float
    volume_b: float
    volume_se_a: float
    volume_se_b: float
    entropy_a: float
    entropy_b: float
    preferred_by_containment: str
    preferred_by_volume: str

    def as_dict(self):
        w = self.containment_witness
        return {
            "mech_a": self.label_a,
            "mech_b": self.label_b,
            "containment": self.containment,
            "containment_witness": "" if w is None else " ".join(repr(float(x)) for x in w),
            "volume_a": repr(self.volume_a),
            "volume_b": repr(self.volume_b),
            "volume_se_a": repr(self.volume_se_a),
            "volume_se_b": repr(self.volume_se_b),
            "entropy_a": repr(self.entropy_a),
            "entropy_b": repr(self.entropy_b),
            "preferred_by_containment": self.preferred_by_containment,
            "preferred_by_volume": self.preferred_by_volume,
        }


def _scaled_volume(config: MechanismConfig, n_mc, seed):
    ball = config.ball
    if ball.is_lp:
        return volume_lp(ball.p, ball.dimension, ball.radius) * config.delta**ball.dimension, 0.0
    return volume_monte_carlo(ball, scale=config.delta, n_samples=n_mc, seed=seed)


def compare(a: MechanismConfig, b: MechanismConfig, seed=0, n_mc=1_000_000,
            n_directions=512) -> ComparisonReport:
    """Full decision report between two mechanisms at equal budget.

    Volumes of the scaled balls come from the closed form when analytic,
    else hit-or-miss Monte Carlo with the given seed; entropies follow from
    the volumes; the containment verdict comes from stochastic_tightness.
    """
    _require_comparable(a, b)
    va, se_a = _scaled_volume(a, n_mc, seed)
    vb, se_b = _scaled_volume(b, n_mc, seed + 1)
    m = a.dimension
    # H = log((e/eps)^m m! vol(delta*K)); volumes above are already scaled
    ent_a = m * (1.0 - math.log(a.epsilon)) + math.lgamma(m + 1) + math.log(va)
    ent_b = m * (1.0 - math.log(b.epsilon)) + math.lgamma(m + 1) + math.log(vb)

    verdict, witness = _tightness_verdict(a, b, n_directions, seed)
    preferred_containment = {
        "tie": "tie",
        "a_tighter": a.label,
        "b_tighter": b.label,
        "incomparable": "incomparable",
        "undetermined": "undetermined",
    }[verdict]

    se_comb = math.hypot(se_a, se_b)
    tie = abs(va - vb) <= 4.0 * se_comb if se_comb > 0 else va == vb
    if tie:
        preferred_volume = "tie"
    else:
        preferred_volume = a.label if va < vb else b.label

    return ComparisonReport(
        label_a=a.label,
        label_b=b.label,
        containment=verdict,
        containment_witness=witness,
        volume_a=va,
        volume_b=vb,
        volume_se_a=se_a,
        volume_se_b=se_b,
        entropy_a=ent_a,
        entropy_b=ent_b,
        preferred_by_containment=preferred_containment,
        preferred_by_volume=preferred_volume,
    )
