"""Comparison framework for K-norm mechanisms.

Two mechanisms at the same privacy budget are compared through the
containment of their scaled norm balls (equivalently: stochastic tightness,
dispersion, and directional conditional variance) and through the volume of
those balls (equivalently: entropy and scatter). Containment is a partial
order; volume is a total order extending it. The CDF and quantiles of the
Gamma(m, eps/Delta) gauge marginal come from scipy.special, imported at
first use so that importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    ScaledBall, _check_integer, _check_positive, _check_unit, _exp_or_inf, ball_containment,
    volume_lp, volume_monte_carlo,
)
from .sampling import MechanismConfig

__all__ = [
    "ComparisonReport",
    "gamma_cdf",
    "gamma_quantile",
    "concentration_radius",
    "depth",
    "conditional_variance",
    "compare",
]


def gamma_cdf(x, shape, rate):
    """CDF of Gamma(shape, rate) at a scalar or array x (rate parameterization)."""
    _check_positive("shape", shape)
    _check_positive("rate", rate)
    from scipy.special import gammainc

    f = gammainc(shape, rate * np.maximum(x, 0.0))
    return float(f) if np.ndim(f) == 0 else f


def gamma_quantile(alpha, shape, rate):
    """alpha-quantile of Gamma(shape, rate)."""
    _check_unit("alpha", alpha)
    _check_positive("shape", shape)
    _check_positive("rate", rate)
    from scipy.special import gammaincinv

    return float(gammaincinv(shape, alpha)) / rate


def _entropy(config: MechanismConfig, log_vol):
    # entropy from the log unit-ball volume, finite at any dimension
    m = config.dimension
    return (
        m * (1.0 + math.log(config.delta / config.epsilon))
        + math.lgamma(m + 1)
        + log_vol
    )


def concentration_radius(config: MechanismConfig, alpha):
    """Radius t such that t*K is the alpha-concentration set of the noise.

    t is the alpha-quantile of the Gamma(m, eps/delta) gauge marginal.
    """
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
        raise ValueError("compare requires equal epsilon")


def _tightness_verdict(a, b, seed):
    sa = ScaledBall(a.ball, a.delta)
    sb = ScaledBall(b.ball, b.delta)
    ab = ball_containment(sa, sb, seed=seed)
    ba = ball_containment(sb, sa, seed=seed + 1)
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
    preferred_by_volume: str

    @property
    def preferred_by_containment(self):
        """The tighter mechanism's label, else the containment verdict."""
        return {"a_tighter": self.label_a, "b_tighter": self.label_b}.get(
            self.containment, self.containment)

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


def _scaled_volume(config: MechanismConfig, n_mc, seed, estimate=None):
    """Volume of delta*K and its standard error, then K's log volume and the
    relative standard error (0.0 for an exact volume: only an unknown one
    runs the n_mc-point estimate, unless estimate already gives K's
    (log volume, relative standard error))."""
    ball, delta, m = config.ball, config.delta, config.dimension
    if ball.is_lp:
        return volume_lp(ball.p, m, delta), 0.0, ball.log_volume(), 0.0
    if ball.volume is not None:
        return ball.volume * delta**m, 0.0, ball.log_volume(), 0.0
    if estimate is None:
        # K shrunk into the unit cube: its volume is the fraction of its
        # bounding box that it fills, finite at any dimension
        box = 2.0 * ball.linf_radius
        frac, se = volume_monte_carlo(ball, scale=1.0 / box, n_samples=n_mc, seed=seed)
        if frac == 0.0:
            raise ValueError(f"no Monte Carlo point hit {config.label} in "
                             f"{n_mc} samples; raise n_mc (--mc-samples)")
        estimate = math.log(frac) + m * math.log(box), se / frac
    log_vol, rel = estimate
    volume = _exp_or_inf(log_vol + m * math.log(delta))
    # an estimate whose weights are all equal has rel 0, also at inf volume
    return volume, rel * volume if rel else 0.0, log_vol, rel


def compare(a: MechanismConfig, b: MechanismConfig, seed=0,
            n_mc=1_000_000) -> ComparisonReport:
    """Full decision report between two mechanisms at equal budget.

    Scaled-ball volumes are exact when the ball knows its volume (lp, k2,
    k3, kt<p> at p <= 3); an n_mc-point Monte Carlo estimate
    (volume_monte_carlo, with the given seed) runs only when it is unknown.
    One body on both sides is estimated once, so the volumes' ratio is
    exactly (delta_a/delta_b)^m. Entropies are in log form and at equal
    budget differ exactly as the log-volumes do, so they decide the volume
    verdict; a volume past the float range prints as inf. The containment
    verdict (stochastic tightness) is "a_tighter", "b_tighter", "tie",
    "incomparable" or "undetermined" (sampling found no witness). seed must
    be an integer >= 0, and is refused before any estimate runs.
    """
    _require_comparable(a, b)
    seed = _check_integer("seed", seed, 0)
    one_body = a.ball == b.ball
    va, se_a, log_a, rel_a = _scaled_volume(a, n_mc, seed)
    vb, se_b, log_b, rel_b = _scaled_volume(b, n_mc, seed + 1,
                                            (log_a, rel_a) if one_body else None)
    ent_a, ent_b = _entropy(a, log_a), _entropy(b, log_b)

    verdict, witness = _tightness_verdict(a, b, seed)

    # the 4-SE tie rule on both volumes divided by the larger one, which
    # their entropy difference gives at any dimension
    top = max(ent_a, ent_b)
    ra, rb = math.exp(ent_a - top), math.exp(ent_b - top)
    se_comb = 0.0 if one_body else math.hypot(rel_a * ra, rel_b * rb)
    if abs(ra - rb) <= 4.0 * se_comb if se_comb > 0 else ent_a == ent_b:
        preferred_volume = "tie"
    else:
        preferred_volume = a.label if ent_a < ent_b else b.label

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
        preferred_by_volume=preferred_volume,
    )
