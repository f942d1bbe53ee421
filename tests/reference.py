"""Independent references that the tests compare the library against, and
the helpers that several test modules share."""

import math

import numpy as np

from knorm import sampling
from knorm.geometry import lp_norm


def summary_value(table, epsilon, mechanism, metric):
    """The value of a harness.ResultTable's summary row for one cell and metric."""
    for eps, mech, met, value in table.summary_rows:
        if eps == epsilon and mech == mechanism and met == metric:
            return value
    raise KeyError((epsilon, mechanism, metric))


def hit_or_miss(ball, rng, n):
    """Fraction of n uniform points of a ball's bounding box that lie in
    it, and its binomial standard error."""
    b = ball.linf_radius
    hits = 0
    done = 0
    chunk = 1 << 17
    while done < n:
        k = min(chunk, n - done)
        pts = rng.uniform(-b, b, size=(k, ball.dimension))
        hits += int(ball.member_many(pts).sum())
        done += k
    frac = hits / n
    return frac, math.sqrt(frac * (1.0 - frac) / n)


def kt_box_fraction(p):
    """Fraction of the [-2, 2]^d box that the regression body K_T fills, by
    nested piecewise Gauss-Legendre over its p + 1 sum magnitudes.

    Under a uniform box point the sum magnitudes s are uniform on [0, 2],
    and given them every other slot is uniform on [-2, 2] and lies in the
    body with probability its interval length over 4: a predictor's doubled
    square |q| <= 2 - 2(max(s_j, 1) - 1)^2 gives 1 - (max(s_j, 1) - 1)^2,
    and a cross or predictor-response slot |c| <= min(2, 4 - s_j - s_k)
    gives min(2, 4 - s_j - s_k) / 2. The integrand is the product of these
    weights, a polynomial of total degree 2p + p(p + 1)/2 between kinks at
    s = 1, s_a = s_b and s_a + s_b = 2, so each variable is split at 1 and
    at the outer variables' s and 2 - s. Inner integrals then add at most
    one degree per variable (15 at p = 3), which 8 nodes integrate exactly.
    """
    x, w = np.polynomial.legendre.leggauss(8)
    sums = np.empty((1, 0))  # the outer variables' values, one row per node
    weight = np.ones(1)
    for i in range(p + 1):
        cuts = np.concatenate([np.broadcast_to([0.0, 1.0, 2.0], (len(sums), 3)),
                               sums, 2.0 - sums], axis=1)
        cuts.sort(axis=1)
        lo, hi = cuts[:, :-1, None], cuts[:, 1:, None]
        s = (lo + hi) / 2 + (hi - lo) / 2 * x
        # the density of a uniform sum magnitude on [0, 2] is 1/2
        f = (hi - lo) / 4 * w
        if i < p:  # a predictor sum, paired with its doubled square
            f = f * (1.0 - (np.maximum(s, 1.0) - 1.0) ** 2)
        for j in range(i):
            f = f * np.minimum(2.0, 4.0 - sums[:, j, None, None] - s) / 2.0
        k = s.shape[1] * s.shape[2]
        sums = np.concatenate([np.repeat(sums, k, axis=0), s.reshape(-1, 1)], axis=1)
        weight = np.repeat(weight, k) * f.ravel()
    return float(weight.sum())


def box_rejection(ball, rng, n, max_proposals):
    """Uniform points of a ball by rejection from its bounding box, with
    their (accepted, proposals) counts: n points, or the fewer accepted once
    max_proposals proposals are spent."""
    b = ball.linf_radius
    out = np.empty((n, ball.dimension))
    got = proposals = accepted = 0
    while got < n:
        chunk = min(max(256, 2 * (n - got)), 1 << 16, max_proposals - proposals)
        if chunk <= 0:
            break
        pts = rng.uniform(-b, b, size=(chunk, ball.dimension))
        proposals += chunk
        acc = pts[ball.member_many(pts)]
        accepted += len(acc)
        take = min(len(acc), n - got)
        out[got : got + take] = acc[:take]
        got += take
    return out[:got], (accepted, proposals)


def uniform_points(ball, rng, n):
    """n exact uniform points of a ball from its own sampler, and their
    (accepted, proposals) counts."""
    pts, [counts] = ball.uniform([rng], n, sampling.MAX_PROPOSALS)
    assert len(pts) == n
    return pts, counts


def gamma_radius(shape, rate, rng, n):
    """n Gamma(shape, rate) draws for integer shape from one generator: numpy's
    row sums of shape exponentials, over rate."""
    return rng.standard_exponential((n, shape)).sum(axis=1) / rate


def lp_noise_one_pair(p, m, delta, epsilon, rng, n):
    """(n, m) lp noise from one generator, each array computed for this pair
    alone: the closed and polar forms as the library drew them pair by pair,
    before their arithmetic ran on the rows of every pair at once."""
    if p == 1:
        u = rng.random((n, m))
        zero = u == 0.0
        while zero.any():
            u[zero] = rng.random(int(zero.sum()))
            zero = u == 0.0
        u -= 0.5
        scale = np.sign(u)
        scale *= -(delta / epsilon)
        np.abs(u, out=u)
        u *= -2.0
        return np.multiply(scale, np.log1p(u, out=u), out=u)
    if p == math.inf:
        u = rng.uniform(-1.0, 1.0, size=(n, m))
        u *= gamma_radius(m + 1, epsilon / delta, rng, n)[:, None]
        return u
    if p == 2:
        g = rng.standard_normal((n, m))
    else:
        u = rng.uniform(-1.0, 1.0, size=(n, m))
        g = rng.standard_gamma(1.0 + 1.0 / p, size=(n, m)) ** (1.0 / p) * u
    norms = lp_norm(g, p)[:, None]
    norms[norms == 0.0] = 1.0
    r = gamma_radius(m, epsilon / delta, rng, n)
    return r[:, None] * g / norms


def noise_pair_by_pair(ball, draws, n):
    """n noise draws of a ball for each (MechanismConfig, generator) pair of
    draws, as a (len(draws)*n, m) array, pair by pair: lp_noise_one_pair for
    an lp ball, or a hull's uniform points (one NormBall.uniform call for
    every generator, whose stack holds each pair's n points in turn) times
    a Gamma(m+1) radius drawn and scaled per pair."""
    if ball.is_lp:
        return np.concatenate([
            lp_noise_one_pair(ball.p, ball.dimension, config.delta, config.epsilon, rng, n)
            for config, rng in draws])
    points, counts = ball.uniform([rng for _, rng in draws], n, 10**6)
    assert len(points) == len(draws) * n and all(accepted >= n for accepted, _ in counts)
    noise = np.empty((len(draws) * n, ball.dimension))
    for i, (config, rng) in enumerate(draws):
        rows = slice(i * n, (i + 1) * n)
        r = gamma_radius(ball.dimension + 1, config.rate, rng, n)
        np.multiply(r[:, None], points[rows], out=noise[rows])
    return 0.0 + noise
