"""Private linear regression by sanitized sufficient statistics.

The statistic vector collects the unique non-constant entries of X'X and
X'y for a design with an all-ones first column and entries in [-1, 1],
with squared-column slots doubled so every slot has sensitivity 2. Noise
from the l1, l-infinity, or hull mechanism is added to the whole vector at
once, and the coefficient estimate is recovered by a Moore-Penrose solve of
the reassembled system (a checked ``np.linalg.inv``, or ``np.linalg.pinv``
where the check fails), which is pure post-processing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import NormBall, _check_integer, _check_mechanism, _read_only, k2_ball, k3_ball
from .sampling import MechanismConfig, sample_noise

# unused here, but perfbench/spans.py rebinds these names in this module
from .sampling import sample_k_mech_rejection, sample_l1_mech, sample_linf_mech  # noqa: F401

__all__ = [
    "StatisticLayout",
    "StatisticVector",
    "RegressionDataset",
    "ball_from_name",
    "build_statistic",
    "statistic_from_gram",
    "kt_ball",
    "statistic_dimension",
    "statistic_mechanism",
    "sanitize_statistic",
    "dp_estimate",
    "dp_estimates",
    "preprocess",
]

#: per-slot sensitivity after the doubling rescale
SLOT_SENSITIVITY = 2.0


def statistic_dimension(p):
    """Length of the statistic vector for p predictors, an integer >= 1."""
    p = _check_integer("p", p)
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
    geometry.NormBall): each square is a k2 piece with the predictor sum
    of the same index, and the k3 pieces, as indices into ``sum_slots``,
    are the pairs ``pair_j``/``pair_k``, each bounding slot ``pair_slots``:
    the cross pairs, then the (predictor, response) pairs. The index arrays
    are read-only, so one layout per p can be shared.
    """

    def __init__(self, p):
        self.d = statistic_dimension(p)
        self.p = int(p)
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
        _read_only(self)


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
            # written so that a NaN entry fails the check, with no slack past 1
            if not np.abs(design[:, 1:]).max() <= 1.0:
                raise ValueError("design entries must lie in [-1, 1]")
            if not np.abs(response).max() <= 1.0:
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
    design = data.design
    return statistic_from_gram(design.T @ design, design.T @ data.response)


def statistic_from_gram(xtx, xty) -> StatisticVector:
    """Sufficient-statistic vector read from D'D and D'y of a design D whose
    first column is all ones, so D'D's first row past n holds the sums."""
    p = len(xtx) - 1
    layout = _shared_layout(p)
    rows, cols = 1 + layout.gram_rows, 1 + layout.gram_cols
    values = np.concatenate([xtx[0, 1:], xtx[cols, rows] * layout.gram_scale, xty])
    return StatisticVector(values, p)


#: the fraction of the [-2, 2]^d box that K_T fills, for p <= 3: the integral
#: over half sums h in [0, 1]^(p+1) of the product of the piece weights,
#: 1 - (max(2h_j, 1) - 1)^2 per predictor sum and min(1, 2 - h_j - h_k) per
#: pair of sums. Every kink lies on h = 1/2, h_a = h_b or h_a + h_b = 1, so
#: nested Gauss-Legendre with those breakpoints is exact up to rounding
#: (tests/reference.py kt_box_fraction; run at 30 digits, then rounded). kt1
#: is 117/160 by hand. The kt4 nest has about 10^8 nodes: p >= 4 stays estimated.
_KT_BOX_FRACTIONS = {1: 117 / 160, 2: 0.510823757164903, 3: 0.3447051227963042}


def kt_ball(p) -> NormBall:
    """Norm ball of the regression body K_T at predictor count p, whose
    piece table is its statistic layout (see geometry.NormBall).

    K_T is the [-2, 2]^d box intersected with the parabola-capped hull on
    every (sum, doubled square) pair and the cross body on every
    cross-product and response triple. It contains every single-row
    difference of statistic vectors, so the kt mechanism uses scale 1, but
    it is an outer body, larger than their hull conv S: h_K/h_S has median
    1.07 and max 1.33 at p = 1 (1.23 / 1.66 at p = 2), and its entropy is
    at least 0.163 nats above conv S's at p = 1 (0.207 at p = 2). Its
    volume is exact for p <= 3 and unknown (None) above.
    """
    layout = _shared_layout(p)
    fraction = _KT_BOX_FRACTIONS.get(layout.p)
    return NormBall(dimension=layout.d, pieces=layout, name=f"kt{layout.p}",
                    volume=None if fraction is None else fraction * 4.0**layout.d)


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


#: the Delta at d slots of each statistic mechanism (see statistic_mechanism)
_STATISTIC_DELTAS = {"l1": lambda d: SLOT_SENSITIVITY * d, "linf": lambda d: SLOT_SENSITIVITY,
                     "kt": lambda d: 1.0}


def statistic_mechanism(mech, p, epsilon) -> MechanismConfig:
    """The K-norm mechanism mech on the statistic vector for p predictors at
    budget epsilon: "l1" (Delta = 2d for d slots), "linf" (Delta = 2) or
    "kt" (Delta = 1), with ball_from_name's ball, reading "kt" as kt<p>. The
    l1 Delta is a per-slot bound: the largest l1 norm of a single-row
    difference on a grid is 6 / 11 / 17 at p = 1 / 2 / 3, against 2d = 8 / 16 / 26.
    """
    d = statistic_dimension(p)
    _check_mechanism(mech, _STATISTIC_DELTAS)
    ball = ball_from_name(f"kt{int(p)}" if mech == "kt" else mech, d)
    return MechanismConfig(epsilon, _STATISTIC_DELTAS[mech](d), ball)


def sanitize_statistic(stat: StatisticVector, mech, epsilon, rng) -> StatisticVector:
    """Add the noise of statistic_mechanism(mech, stat.p, epsilon) to the
    whole statistic vector. Rejection-sampler failures for "kt" propagate.
    """
    config = statistic_mechanism(mech, stat.p, epsilon)
    noise = sample_noise(config, rng)
    return StatisticVector(stat.values + noise, stat.p)


def dp_estimate(stat: StatisticVector, n_rows):
    """Coefficient estimate from (possibly noisy) sufficient statistics.

    Reassembles (X'X)* and (X'y)*, halving the doubled diagonal slots and
    restoring the constant n entry, into an exactly symmetric system, and
    returns its Moore-Penrose solution at pinv's cutoff: each eigenvalue
    with |lambda| at or below (p+1) * machine epsilon * max |lambda| is
    dropped, as a symmetric matrix's singular values are its |lambda| (see
    dp_estimates for the solve). Total: indefinite or singular
    reconstructions still produce an estimate, and a non-finite statistic
    a non-finite one, without a numpy warning.
    """
    return dp_estimates(stat.values[None, :], stat.p, n_rows)[0]


def dp_estimates(values, p, n_rows):
    """dp_estimate of each row of a (k, d) array of statistic values for p
    predictors, as the rows of a (k, p + 1) array; each row is bit-identical
    to dp_estimate's on that row alone.

    One ``np.linalg.inv`` on the stack of systems A x = b gives each row
    A^-1 b, which it keeps when ||A||_F ||A^-1||_F <= 1e-3 / ((p+1) eps).
    That bounds cond_2(A) = max |lambda| / min |lambda| three orders of
    magnitude below the cutoff's 1 / ((p+1) eps), so pinv would drop no
    eigenvalue and A^-1 b is the Moore-Penrose solution. A row without that
    certificate, because it is near-singular, exactly singular (its ``inv``
    raises) or non-finite, takes ``np.linalg.pinv(A, hermitian=True)`` b at
    the cutoff instead; a non-finite A, whose pinv does not exist, gives NaN.
    """
    v = np.asarray(values, dtype=float)
    layout = _shared_layout(p)
    if v.ndim != 2 or v.shape[1] != layout.d:
        raise ValueError(f"expected (k, {layout.d}) statistic values for p={p}, "
                         f"got {v.shape}")
    xtx = np.empty((len(v), p + 1, p + 1))
    xtx[:, 0, 0] = n_rows
    xtx[:, 0, 1:] = xtx[:, 1:, 0] = v[:, layout.sums]
    rows, cols = 1 + layout.gram_rows, 1 + layout.gram_cols
    xtx[:, rows, cols] = xtx[:, cols, rows] = v[:, p:layout.ysum] / layout.gram_scale
    xty = v[:, layout.ysum:, None]
    rcond = (p + 1) * np.finfo(float).eps
    # a huge or non-finite inverse overflows its squared certificate, which refuses the row
    with np.errstate(all="ignore"):
        inv = _inverse(xtx)
        beta = (inv @ xty)[:, :, 0]
        squared = np.einsum("kij,kij->k", xtx, xtx) * np.einsum("kij,kij->k", inv, inv)
        refused = ~(squared <= (1e-3 / rcond) ** 2)
        if refused.any():
            beta[refused] = np.nan
            finite = refused & np.isfinite(xtx).all(axis=(1, 2))
            beta[finite] = (np.linalg.pinv(xtx[finite], rcond=rcond, hermitian=True)
                            @ xty[finite])[:, :, 0]
    return beta


def _inverse(a):
    """inv of a matrix or of each matrix of a stack, NaN where inv raises on one."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.stack([_inverse(one) for one in a]) if a.ndim > 2 else np.full_like(a, np.nan)


def _check_quantiles(lower_q, upper_q):
    if not 0.0 <= lower_q < upper_q <= 1.0:  # also rejects nan
        raise ValueError(f"quantiles must satisfy 0 <= lower_q < upper_q <= 1, "
                         f"got {lower_q} and {upper_q}")


def preprocess(columns, response, log_columns, lower_q, upper_q) -> RegressionDataset:
    """Normalize a table of numeric columns into a RegressionDataset.

    Applies a natural log to the configured columns (which must be strictly
    positive), clamps every used column to its empirical [lower_q, upper_q]
    quantiles (linear interpolation between order statistics), and maps the
    clamped range affinely onto [-1, 1]. The response column is named;
    every other column becomes a predictor in table order; an all-ones
    column is prepended. A column that is constant after clamping is
    rejected by name. The quantiles and the min/max are read from this
    private table, so the slot sensitivity of 2 holds under "replace one
    row" between outputs, not between raw tables, and a release built on the
    output is not eps-DP with respect to the table: at n = 1000, setting one
    row of a U(1, 2) predictor to 100 moved one slot by 1302.6, not 2.
    The quantiles must satisfy 0 <= lower_q < upper_q <= 1. No setting has
    a default: the CLI holds the only copy.
    """
    _check_quantiles(lower_q, upper_q)
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
