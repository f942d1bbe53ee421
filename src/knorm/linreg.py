"""Private linear regression by sanitized sufficient statistics.

The statistic vector collects the unique non-constant entries of X'X and
X'y for a design with an all-ones first column and entries in [-1, 1],
with squared-column slots doubled so every slot has sensitivity 2. Noise
from the l1, l-infinity, or hull mechanism is added to the whole vector at
once, and the coefficient estimate is recovered by a pseudoinverse solve,
which is pure post-processing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, _hull_ball, k2_ball, k3_ball
from .sampling import MechanismConfig, _budget_exhausted, sample_noise

# unused here, but perfbench/spans.py rebinds these names in this module
from .sampling import sample_k_mech_rejection, sample_l1_mech, sample_linf_mech  # noqa: F401

__all__ = [
    "StatisticLayout",
    "StatisticVector",
    "RegressionDataset",
    "ball_from_name",
    "build_statistic",
    "kT_member",
    "kt_ball",
    "statistic_dimension",
    "sanitize_statistic",
    "dp_estimate",
    "dp_estimates",
    "preprocess",
]

#: per-slot sensitivity after the doubling rescale
SLOT_SENSITIVITY = 2.0


def statistic_dimension(p):
    """Length of the statistic vector for p predictors."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return (p * p + 5 * p + 2) // 2


class StatisticLayout:
    """Slot ordering of the sufficient-statistic vector, as index arrays.

    Order: the p column sums (slots ``sums``); the lower triangle of the
    predictor Gram block in ``np.tril_indices(p)`` order, (0,0), (1,0),
    (1,1), (2,0), ..., at entries ``gram_rows``/``gram_cols`` times
    ``gram_scale``, so the ``squares`` slots are doubled and the ``cross``
    slots hold predictors ``cross_j < cross_k`` (0-based); the response sum
    (slot ``ysum``); and the p predictor-response sums (slots ``xy``).
    ``sum_slots`` holds the p + 1 sums of K_T, the predictor sums and then
    the response sum. The layout is K_T's piece table (see
    geometry._hull_ball): each square is a k2 piece with the predictor sum
    of the same index, and the k3 pieces, as indices into ``sum_slots``,
    are the pairs ``pair_j``/``pair_k``, each bounding slot ``pair_slots``:
    the cross pairs, then the (predictor, response) pairs. The index arrays
    are read-only, so one layout per p can be shared.
    """

    def __init__(self, p):
        self.p = int(p)
        self.d = statistic_dimension(p)
        self.gram_rows, self.gram_cols = np.tril_indices(self.p)
        diag = self.gram_rows == self.gram_cols
        self.gram_scale = np.where(diag, 2.0, 1.0)
        self.sums = np.arange(self.p)
        self.squares = self.p + np.flatnonzero(diag)
        self.cross = self.p + np.flatnonzero(~diag)
        self.cross_j = self.gram_cols[~diag]
        self.cross_k = self.gram_rows[~diag]
        self.ysum = self.p + len(diag)
        self.xy = self.ysum + 1 + self.sums
        self.sum_slots = np.append(self.sums, self.ysum)
        self.pair_j = np.concatenate([self.cross_j, self.sums])
        self.pair_k = np.concatenate([self.cross_k, np.full(self.p, self.p)])
        self.pair_slots = np.concatenate([self.cross, self.xy])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


#: one layout per predictor count, built once: every sanitize and solve asks for it
_shared_layout = functools.lru_cache(maxsize=None)(StatisticLayout)


@dataclass(frozen=True)
class StatisticVector:
    """Statistic values together with the predictor count fixing their layout."""

    values: np.ndarray
    p: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (statistic_dimension(self.p),):
            raise ValueError(
                f"expected {statistic_dimension(self.p)} slots for p={self.p}, "
                f"got {values.shape}"
            )

    @property
    def layout(self):
        return _shared_layout(self.p)


class RegressionDataset:
    """Design matrix with ones column and response, both bounded by [-1, 1].

    Validation enforces the range constraints the sensitivity bounds rely
    on; simulation code that deliberately generates unbounded responses may
    pass validate=False.
    """

    def __init__(self, design, response, validate=True):
        design = np.asarray(design, dtype=float)
        response = np.asarray(response, dtype=float)
        if design.ndim != 2 or response.ndim != 1:
            raise ValueError("design must be 2-d and response 1-d")
        if design.shape[0] != response.shape[0]:
            raise ValueError("design and response row counts differ")
        if design.shape[1] < 2:
            raise ValueError("design needs the ones column plus >= 1 predictor")
        if validate:
            if not np.all(design[:, 0] == 1.0):
                raise ValueError("first design column must be all ones")
            # written so that a NaN entry fails the check
            if not np.abs(design[:, 1:]).max() <= 1.0 + 1e-12:
                raise ValueError("design entries must lie in [-1, 1]")
            if not np.abs(response).max() <= 1.0 + 1e-12:
                raise ValueError("response entries must lie in [-1, 1]")
        self.design = design
        self.response = response

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def p(self):
        return self.design.shape[1] - 1


def build_statistic(data: RegressionDataset) -> StatisticVector:
    """Sufficient-statistic vector of a dataset in the fixed slot order."""
    X = data.design[:, 1:]
    y = data.response
    layout = _shared_layout(data.p)
    gram = X.T @ X
    values = np.concatenate([
        X.sum(axis=0),
        gram[layout.gram_cols, layout.gram_rows] * layout.gram_scale,
        [y.sum()],
        X.T @ y,
    ])
    return StatisticVector(values, data.p)


def _k2_weight(a):
    """Length of the k2 piece's square interval over the box's 4, at sum
    magnitudes a in [0, 2]: 1 where a <= 1, else a(2 - a) = 1 - (a - 1)^2.

    Where a > 1 this is half of geometry._k2_cap(a) bit for bit (halving
    commutes with rounding), so twice the weight is the bound the k2
    predicate tests.
    """
    w = np.maximum(a, 1.0)
    w -= 1.0
    np.square(w, out=w)
    return np.subtract(1.0, w, out=w)


def _kt_pair_weights(x, layout: StatisticLayout):
    """Length of each k3 piece's interval over the box's 4, min(1, (4 - x_j -
    x_k)/2), at the (p + 1, k) sum magnitudes x, one row per layout pair."""
    # computed as 2 - (x_j + x_k)/2, which is exact wherever it is below 1
    # (Sterbenz), so a slot drawn within twice the weight passes the k3
    # predicate's (a + b) + c <= 4
    w = x[layout.pair_j]
    w += x[layout.pair_k]
    w *= 0.5
    np.subtract(2.0, w, out=w)
    return np.minimum(w, 1.0, out=w)


def _kt_kernel(x, layout: StatisticLayout):
    """Product of the k3 piece weights of K_T at (p + 1, k) sum magnitudes.

    Rows 0..p-1 of x hold the predictor sums |s_j| and row p the response
    sum |t|, each in [0, 2]. Every slot of K_T that is not a sum sits in
    exactly one piece: a square with its own sum (k2 piece), a cross slot
    with two predictor sums, a response slot with one predictor sum and t
    (k3 pieces). Given the sums, each such slot therefore ranges over an
    interval of its own, independently of the others: each square within
    +-2 _k2_weight(|s_j|) and each cross or response slot within +-2 times
    its pair weight. The volume of that fibre is 4^(d - p - 1) times the
    product of the weights, so the marginal of the sums under a uniform
    point of K_T has density proportional to prod_j _k2_weight(|s_j|)
    times this kernel, and, given the sums, the other slots are
    independent and uniform on their intervals. Both the exact sampler and
    the volume estimator of kt_ball rest on this factorization.
    """
    return _kt_pair_weights(x, layout).prod(axis=0)


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


def _kt_chunk(layout: StatisticLayout):
    # proposals per chunk: the (pairs, chunk) weight array stays near 256 kB,
    # in cache and below the size at which every allocation faults in fresh pages
    return max(64, (1 << 15) // (len(layout.pair_j) + 1))


def _kt_uniform(layout: StatisticLayout, rng, n, max_attempts):
    """n exact uniform points of K_T, from its sum slots (see _kt_kernel).

    Each proposal draws the p predictor sum magnitudes from the k2 profile
    by inverse CDF and the response sum magnitude uniform on [0, 2], and is
    accepted with probability _kt_kernel. Accepted sums get random signs and
    every other slot is filled uniformly on its interval. Chunks start at
    64 proposals and grow 4x after a chunk with no acceptance, then follow
    the observed rate; proposals are independent, so the first n accepted
    have the same law under any chunking. Returns (points, (accepted,
    proposals)); raises SamplerError once max_attempts proposals are spent.
    """
    p = layout.p
    sums = np.empty((p + 1, n))
    got = accepted = proposals = 0
    chunk = 64
    while got < n:
        k = chunk if not accepted else -(-(n - got) * proposals // accepted)
        k = min(max(k, 64), _kt_chunk(layout), max_attempts - proposals)
        if k <= 0:
            raise _budget_exhausted(got, n, accepted, proposals)
        x = np.empty((p + 1, k))
        x[:p] = _k2_sum_quantile(rng.random((p, k)))
        x[p] = rng.uniform(0.0, 2.0, k)
        x = x[:, rng.random(k) < _kt_kernel(x, layout)]
        proposals += k
        accepted += x.shape[1]
        if not x.shape[1]:
            chunk *= 4
        take = min(x.shape[1], n - got)
        sums[:, got:got + take] = x[:, :take]
        got += take
    u = rng.uniform(-1.0, 1.0, size=(n, layout.d))
    out = np.empty_like(u)
    out[:, layout.sum_slots] = np.copysign(sums.T, u[:, layout.sum_slots])
    out[:, layout.squares] = 2.0 * _k2_weight(sums[:p]).T * u[:, layout.squares]
    out[:, layout.pair_slots] = (
        2.0 * _kt_pair_weights(sums, layout).T * u[:, layout.pair_slots])
    return out, (accepted, proposals)


def _kt_box_fraction(layout: StatisticLayout, rng, n):
    """Fraction of the [-2, 2]^d box that K_T fills, and its standard error.

    The mean of w = _kt_kernel * prod_j _k2_weight over n sum magnitudes
    uniform on [0, 2]^(p + 1): w is the chance that a uniform box point
    with those sums lies in K_T, so this is hit-or-miss with the other
    d - p - 1 slots integrated out exactly.
    """
    p = layout.p
    total = total_sq = 0.0
    chunk = _kt_chunk(layout)
    for start in range(0, n, chunk):
        x = rng.uniform(0.0, 2.0, size=(p + 1, min(chunk, n - start)))
        w = _kt_kernel(x, layout) * _k2_weight(x[:p]).prod(axis=0)
        total += w.sum()
        total_sq += np.square(w).sum()
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)


def kT_member(u, p) -> bool:
    """Membership of a statistic-difference vector in the hull body K_T.

    The body is the [-2, 2]^d box intersected with the parabola-capped hull
    on every (sum, doubled square) pair and the cross body on every
    cross-product and response triple. It contains every single-row
    difference of statistic vectors, so the hull mechanism uses scale 1.
    """
    u = np.asarray(u, dtype=float)
    d = statistic_dimension(p)
    if u.shape != (d,):
        raise ValueError(f"expected a {d}-vector for p={p}, got shape {u.shape}")
    return bool(kt_ball(p).member_many(u[None, :])[0])


def kt_ball(p) -> NormBall:
    """Norm ball of the regression hull body at predictor count p: the K_T
    predicate plus its exact gauge, the max of the piece gauges, with the
    exact sampler and box-fraction estimator of its sum-slot factorization
    (_kt_kernel)."""
    layout = _shared_layout(p)
    return _hull_ball(
        layout, layout.d, f"kt{p}",
        uniform=functools.partial(_kt_uniform, layout),
        box_fraction=functools.partial(_kt_box_fraction, layout),
    )


def ball_from_name(token, m):
    """The unit ball named l1, l2, linf, l<p> (any p >= 1), k2, k3 or kt<p>.

    lp balls get dimension m; k2, k3 and kt<p> have their own dimension.
    """
    if token == "k2":
        return k2_ball()
    if token == "k3":
        return k3_ball()
    try:
        if token.startswith("kt"):
            return kt_ball(int(token[2:]))
        if token.startswith("l"):
            # float("inf") reads the "linf" name
            return NormBall.lp(float(token[1:]), 1.0, m)
    except ValueError as exc:
        raise ValueError(f"bad ball name {token!r}: {exc}") from None
    raise ValueError(f"unknown ball {token!r}")


#: sensitivity Delta of the whole statistic vector in each mechanism's unit ball
_MECH_DELTAS = {
    "l1": lambda d: SLOT_SENSITIVITY * d,
    "linf": lambda d: SLOT_SENSITIVITY,
    "kt": lambda d: 1.0,
}


def sanitize_statistic(stat: StatisticVector, mech, epsilon, rng,
                       max_attempts=10**6) -> StatisticVector:
    """Add K-norm noise to the whole statistic vector.

    mech is "l1" (Delta = 2d), "linf" (Delta = 2) or "kt" (hull body,
    Delta = 1). Rejection-sampler failures for "kt" propagate.
    """
    if mech not in _MECH_DELTAS:
        raise ValueError(f"unknown mechanism {mech!r}; use l1, linf, or kt")
    d = stat.layout.d
    # "kt" is the hull body of this statistic's predictor count
    ball = ball_from_name(f"kt{stat.p}" if mech == "kt" else mech, d)
    config = MechanismConfig(epsilon, _MECH_DELTAS[mech](d), ball)
    noise = sample_noise(config, rng, max_attempts=max_attempts)
    return StatisticVector(stat.values + noise, stat.p)


def dp_estimate(stat: StatisticVector, n_rows):
    """Coefficient estimate from (possibly noisy) sufficient statistics.

    Reassembles (X'X)* and (X'y)*, halving the doubled diagonal slots and
    restoring the constant n entry, then solves with the Moore-Penrose
    pseudoinverse, dropping singular values at or below
    (p+1) * machine epsilon * sigma_max. Total: indefinite or singular
    reconstructions still produce an estimate.
    """
    return dp_estimates([stat], n_rows)[0]


def dp_estimates(stats, n_rows):
    """dp_estimate of each statistic vector in a sequence sharing one p, as
    rows of one array, from one pseudoinverse call on the stack of
    reassembled systems; each row is bit-identical to dp_estimate's."""
    if not stats:
        return np.empty((0, 0))
    p = stats[0].p
    layout = _shared_layout(p)
    v = np.stack([stat.values for stat in stats])
    xtx = np.empty((len(v), p + 1, p + 1))
    xtx[:, 0, 0] = n_rows
    xtx[:, 0, 1:] = xtx[:, 1:, 0] = v[:, layout.sums]
    rows, cols = 1 + layout.gram_rows, 1 + layout.gram_cols
    xtx[:, rows, cols] = xtx[:, cols, rows] = v[:, p:layout.ysum] / layout.gram_scale
    xty = v[:, layout.ysum:, None]
    rcond = (p + 1) * np.finfo(float).eps
    return (np.linalg.pinv(xtx, rcond=rcond) @ xty)[:, :, 0]


def preprocess(columns, response, log_columns=(), lower_q=0.0001,
               upper_q=0.9999) -> RegressionDataset:
    """Normalize a table of numeric columns into a RegressionDataset.

    Applies a natural log to the configured columns (which must be strictly
    positive), clamps every used column to its empirical [lower_q, upper_q]
    quantiles (linear interpolation between order statistics), and maps the
    clamped range affinely onto [-1, 1]. The response column is named;
    every other column becomes a predictor in table order; an all-ones
    column is prepended. A column that is constant after clamping is
    rejected by name.
    """
    if response not in columns:
        raise ValueError(f"response column {response!r} not in table")
    unknown = set(log_columns) - set(columns)
    if unknown:
        raise ValueError(f"log columns not in table: {sorted(unknown)}")

    def transform(name):
        col = np.asarray(columns[name], dtype=float)
        if name in log_columns:
            if col.min() <= 0:
                raise ValueError(f"column {name!r} must be positive for log transform")
            col = np.log(col)
        lo, hi = np.quantile(col, [lower_q, upper_q])
        col = np.clip(col, lo, hi)
        mn, mx = col.min(), col.max()
        if mx - mn <= 0:
            raise ValueError(f"column {name!r} is constant after clamping")
        return 2.0 * (col - mn) / (mx - mn) - 1.0

    predictor_names = [name for name in columns if name != response]
    n = len(np.asarray(columns[response]))
    design = np.empty((n, len(predictor_names) + 1))
    design[:, 0] = 1.0
    for i, name in enumerate(predictor_names, start=1):
        design[:, i] = transform(name)
    y = transform(response)
    return RegressionDataset(design, y)
