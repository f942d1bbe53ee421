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
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, _hull_ball, k2_ball, k3_ball
from .sampling import MechanismConfig, sample_noise

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
    """Norm ball of the regression hull body K_T at predictor count p, whose
    piece table is its statistic layout (see geometry._hull_ball)."""
    layout = _shared_layout(p)
    return _hull_ball(layout, layout.d, f"kt{p}")


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
