"""Independent references that the statistical tests compare the library against."""

import math

import numpy as np


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
