"""Independent references that the statistical tests compare the library against."""

import math


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
