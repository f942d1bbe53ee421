"""Objective perturbation for empirical risk minimization with K-norm noise.

The private estimate minimizes

    (1/n) sum_i loss(theta; x_i, y_i) + gamma/(2n) theta'theta + V'theta/n

where gamma = lambda/(exp(eps*(1-q)) - 1) for a Hessian eigenvalue bound
lambda, and V is drawn with density proportional to
exp(-(eps*q/Delta)*||V||_K) for a bound Delta on the K-gauge of
per-example gradient differences. The domain is all of R^m and no extra
regularizer is used. Instantiated here for logistic regression.

objective_perturbation_rows fits several (config, generator) runs on one
design: it draws every V in one sampling.sample_noise_rows call, then fits
each run from one shared start; objective_perturbation is its one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import NormBall, _check_integer, _check_positive, _check_unit
from .sampling import BudgetError, MechanismConfig, _coordinate_bound, sample_noise_rows

# unused here, but perfbench/spans.py rebinds this name in this module
from .sampling import sample_noise  # noqa: F401

__all__ = [
    "LossSpec",
    "ObjPertConfig",
    "OptimizerError",
    "StartPoint",
    "evaluate",
    "logistic_sensitivity",
    "logistic_loss_spec",
    "minimize_erm",
    "objective_perturbation",
    "objective_perturbation_rows",
]


#: minimize_erm stops once the gradient l2 norm of the mean-scaled objective is at
#: most GRAD_TOL, within MAX_NEWTON_STEPS steps; both are read at call time
GRAD_TOL = 1e-8
MAX_NEWTON_STEPS = 500


class OptimizerError(RuntimeError):
    """Raised when the inner optimizer fails to reach its gradient tolerance."""


@dataclass(frozen=True)
class LossSpec:
    """A smooth convex per-example loss with the bounds Algorithm-style DP needs.

    loss_and_grad(theta, X, y, work=None) returns (loss, grad, curvature):
    the loss summed over examples, the summed gradient, and whatever
    per-example curvature the Hessian at theta is built from (for logistic,
    the weights sig * (1 - sig)). hess(theta, X, y, curvature=None,
    work=None) returns the summed Hessian; a given curvature must come from
    loss_and_grad at the same theta, and without one hess works it out from
    theta itself. work is a start's workspace (see StartPoint): a kernel
    may write its intermediates there, and the curvature it returns may be
    one of them, valid until the next kernel call with that workspace.
    Without one each call allocates its own arrays, with the same values.
    Both are called with positional arguments only. eigen_bound bounds the
    eigenvalues of every per-example Hessian, and (grad_ball, grad_delta)
    bound the gauge of any per-example gradient difference; theta has the
    ball's dimension. validate(X, y) checks dataset preconditions;
    evaluate runs it once per design.
    """

    eigen_bound: float
    grad_ball: NormBall
    grad_delta: float
    loss_and_grad: Callable[..., tuple]
    hess: Callable[..., np.ndarray]
    validate: Callable[[np.ndarray, np.ndarray], None]

    @property
    def dimension(self):
        return self.grad_ball.dimension


@dataclass(frozen=True)
class ObjPertConfig:
    """Budget eps, split q in (0,1), and the loss being minimized.

    noise is the mechanism V is drawn from, resolved once here: budget
    eps*q on the loss's gradient-sensitivity ball and bound. A budget is
    refused with BudgetError, from these fields alone, when V's squared
    norm can overflow: every coordinate of V is below B = (m + 1)*745*
    linf_radius*Delta/(eps*q) (sampling._coordinate_bound), and m*B^2 must
    be finite. Past that bound ||V||^2, and with it the squared gradient
    of the fit at theta = 0, can overflow whatever the data.
    """

    epsilon: float
    q: float
    loss: LossSpec
    noise: MechanismConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("epsilon", self.epsilon, BudgetError)
        _check_unit("q", self.q)
        try:
            _check_gamma(self.gamma)
        except ValueError:
            raise BudgetError(f"epsilon={self.epsilon!r} and q={self.q!r} give an invalid "
                              f"regularization weight gamma={self.gamma}") from None
        noise = MechanismConfig(
            epsilon=self.epsilon * self.q,
            delta=self.loss.grad_delta,
            ball=self.loss.grad_ball,
        )
        m = noise.dimension
        bound = math.sqrt(m) * _coordinate_bound(noise.ball, noise.rate)
        if not math.isfinite(bound * bound):
            raise BudgetError(f"epsilon={self.epsilon!r} and q={self.q!r} give noise whose "
                              f"squared norm can overflow (||V|| up to {bound!r} at m={m})")
        object.__setattr__(self, "noise", noise)

    @property
    def gamma(self):
        """lambda/(exp(eps*(1-q)) - 1): 0 once that overflows, inf where eps*(1-q) is 0."""
        try:
            return self.loss.eigen_bound / math.expm1(self.epsilon * (1.0 - self.q))
        except OverflowError:
            return 0.0
        except ZeroDivisionError:
            return math.inf


def _check_gamma(gamma):
    if not (gamma >= 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")


def _check_vector(name, value, m):
    """value as a new float array of m finite entries, else ValueError."""
    v = np.array(value, dtype=float)
    if v.shape != (m,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must be {m} finite numbers, got {v.tolist()}")
    return v


def _aligned_empty(shape, dtype=float):
    """An uninitialized C-ordered array whose data starts on a 64-byte line.

    numpy's allocator gives 16-byte lines, and the AVX-512 loops and BLAS
    calls of the kernels run up to 2x slower on arrays that start off one.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    skip = -raw.ctypes.data % 64
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


class _Workspace:
    """The arrays the logistic kernels write, for one n x m design.

    Four n-long float slots, a mask and the m x n weighted design of the
    Hessian, each on a 64-byte line. A slot is rewritten once its value is
    dead, which keeps the kernels' arrays in cache: z holds X theta, then
    the softplus terms; e holds exp(-|z|), then the curvature; sig holds the
    sigmoid; scratch holds 1 + e, then log1p(e), then the residual.
    _Workspace() holds None in every slot, so numpy allocates each result
    afresh: a kernel called without a workspace runs on that one.
    """

    def __init__(self, n=None, m=None):
        def slot(*shape, dtype=float):
            return None if n is None else _aligned_empty(shape, dtype)

        self.z, self.e, self.sig, self.scratch = (slot(n) for _ in range(4))
        self.mask = slot(n, dtype=bool)
        self.weighted = slot(m, n)


def _sigmoid_from_exp(z, e, work=None):
    # e = exp(-|z|) never overflows: 1/(1+e) for z >= 0, e/(1+e) below, the
    # same exp argument and division as the two-branch masked formula. The
    # numerator max(z >= 0, e) is 1 for z >= 0 (where e <= 1), else e, and
    # stays nan for nan z
    work = _Workspace() if work is None else work
    num = np.maximum(np.greater_equal(z, 0, out=work.mask), e, out=work.sig)
    return np.divide(num, np.add(1.0, e, out=work.scratch), out=work.sig)


def _sigmoid(z):
    return _sigmoid_from_exp(z, np.exp(-np.abs(z)))


def _sigmoid_terms(theta, X, work):
    # z = X theta, e = exp(-|z|) and the sigmoid of z, each into its slot of work
    z = np.matmul(X, theta, out=work.z)
    e = np.exp(np.negative(np.abs(z, out=work.e), out=work.e), out=work.e)
    return z, e, _sigmoid_from_exp(z, e, work)


def _curvature(sig, work):
    # sig * (1 - sig), into the slot of e, which is dead once sig is taken
    return np.multiply(sig, np.subtract(1.0, sig, out=work.e), out=work.e)


#: the Delta of each logistic mechanism at dimension m, by name: 2 max ||x|| on [-1, 1]^m
_LOGISTIC_DELTAS = {"l1": lambda m: 2.0 * m, "l2": lambda m: 2.0 * math.sqrt(m),
                    "linf": lambda m: 2.0}


def logistic_sensitivity(m, p):
    """Gauge bound on logistic gradient differences: 2, 2*sqrt(m), 2m for
    p=inf,2,1, at an integer dimension m >= 1."""
    m = _check_integer("m", m)
    for name, delta in _LOGISTIC_DELTAS.items():
        if float(name[1:]) == p:  # the p of the name, as ball_from_name reads it
            return delta(m)
    raise ValueError(f"unsupported p for logistic sensitivity: {p}")


def _logistic_validate(X, y):
    # min and max propagate nan, and every comparison with nan is False, so
    # this rejects nan and +-inf as well as entries outside [-1, 1]: the
    # logistic Delta and eigen_bound hold on [-1, 1] exactly, with no slack
    if not (X.min() >= -1.0 and X.max() <= 1.0):
        raise ValueError("design matrix entries must be finite and lie in [-1, 1]")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0/1")


def _logistic_loss_and_grad(theta, X, y, work=None):
    work = _Workspace() if work is None else work
    z, e, sig = _sigmoid_terms(theta, X, work)
    yz = y @ z
    # softplus log(1 + exp(z)) from the sigmoid's exp, over z once y'z is taken
    softplus = np.add(np.maximum(z, 0.0, out=work.z), np.log1p(e, out=work.scratch),
                      out=work.z)
    loss = float(softplus.sum() - yz)
    grad = X.T @ np.subtract(sig, y, out=work.scratch)
    return loss, grad, _curvature(sig, work)


def _logistic_hess(theta, X, y, curvature=None, work=None):
    work = _Workspace() if work is None else work
    if curvature is None:
        curvature = _curvature(_sigmoid_terms(theta, X, work)[2], work)
    # weight along the n-long axis into one C-ordered m x n array; the
    # products and the GEMM are those of (X * curvature[:, None]).T @ X
    return np.multiply(X.T, curvature, out=work.weighted, order="C") @ X


def logistic_loss_spec(m, p=math.inf) -> LossSpec:
    """Logistic-regression LossSpec with the lp gradient-sensitivity ball."""
    return LossSpec(
        eigen_bound=m / 4.0,
        grad_ball=NormBall.lp(p, 1.0, m),
        grad_delta=logistic_sensitivity(m, p),
        loss_and_grad=_logistic_loss_and_grad,
        hess=_logistic_hess,
        validate=_logistic_validate,
    )


@dataclass(frozen=True)
class StartPoint:
    """A LossSpec evaluated at theta on one dataset: where minimize_erm starts.

    Holds theta (read-only), the loss value and gradient there and the
    Hessian, the column-major float design X and float labels y it was
    evaluated on, the loss itself, and the workspace the kernels of every
    fit from it write their intermediates to. A fit from this start is
    passed these very X and y and a loss with the same kernels. The
    workspace is one per start, so fits sharing a start run one at a time;
    no kernel writes to the start's own value, grad or hessian.
    """

    theta: np.ndarray
    value: float
    grad: np.ndarray
    hessian: np.ndarray
    X: np.ndarray
    y: np.ndarray
    loss: LossSpec
    workspace: _Workspace = field(repr=False, compare=False)


def evaluate(loss: LossSpec, X, y, theta=None) -> StartPoint:
    """Validate the data and evaluate loss, gradient and Hessian at theta
    (default zeros), a vector of loss.dimension finite numbers.

    X is copied into a column-major float array, so that the kernels read
    contiguous columns, and y into a float array, both starting on a 64-byte
    line, and the start gets a workspace on such lines for the kernels'
    intermediates (see _Workspace), on which its own evaluation runs too.
    loss.validate runs here, once for every fit that shares the start.
    Every fit from the start must be passed its X and y.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != loss.dimension:
        raise ValueError(f"design matrix must be n x {loss.dimension}, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("design matrix has no rows")
    if y.shape != X.shape[:1]:
        raise ValueError(f"labels must be one per design row ({len(X)}), got shape {y.shape}")
    n, m = X.shape
    aligned_X, aligned_y = _aligned_empty((m, n)).T, _aligned_empty((n,))
    aligned_X[...], aligned_y[...] = X, y
    X, y = aligned_X, aligned_y
    loss.validate(X, y)
    theta = _check_vector("theta", np.zeros(m) if theta is None else theta, m)
    theta.flags.writeable = False
    work = _Workspace(n, m)
    value, grad, curvature = loss.loss_and_grad(theta, X, y, work)
    hessian = loss.hess(theta, X, y, curvature, work)
    return StartPoint(theta, value, grad, hessian, X, y, loss, work)


def _start_for(loss, X, y, start):
    # evaluate(loss, X, y) without a start, else the start once X, y and loss are its own
    if start is None:
        return evaluate(loss, X, y)
    if not (X is start.X and y is start.y and start.loss.dimension == loss.dimension
            and start.loss.loss_and_grad is loss.loss_and_grad
            and start.loss.hess is loss.hess and start.loss.validate is loss.validate):
        raise ValueError("start was evaluated on other data or with another loss")
    return start


def minimize_erm(loss: LossSpec, X, y, gamma=0.0, linear=None, start=None):
    """Minimize (1/n)[sum loss + gamma/2 theta'theta + linear'theta].

    Damped Newton with Armijo backtracking (constant 1e-4, halving), falling
    back to a gradient step when the Hessian solve fails or produces a
    non-descent direction. A full step that fails the Armijo test is still
    taken when it raises f by no more than rounding error (1e-12 relative)
    and halves the gradient norm. Converges when the gradient l2 norm of the
    mean-scaled objective is at most GRAD_TOL; raises OptimizerError with
    diagnostics after MAX_NEWTON_STEPS iterations, and in place of numpy's
    warning once an overflow or invalid value leaves the fit without a
    finite objective or gradient.

    The fit starts from start, a StartPoint from evaluate(loss, X, y,
    theta), or from evaluate(loss, X, y) at theta = 0 when start is None;
    evaluate validates the data, so a shared start validates it once. One
    start can be shared by any number of fits on the same data with
    different gamma and linear: X and y must be the start's own start.X and
    start.y (identity), and loss must have the start's loss_and_grad, hess
    and validate, or a ValueError is raised. The arrays must not be changed
    in place after evaluate, which cannot detect it. gamma must be
    nonnegative and finite, and linear (default zeros) a vector of
    loss.dimension finite numbers; both are checked before any kernel call.

    Every kernel call passes the start's workspace as work, so fits sharing
    a start run one at a time. The first step uses the start's Hessian.
    Each later step takes its Hessian at the accepted line-search trial,
    whose loss was just evaluated, so it passes that evaluation's
    curvature: loss.hess(theta, X, y, curvature, work). The loss is called
    once per evaluation and hess once per step after the first.
    """
    _check_gamma(gamma)
    m = loss.dimension
    v = np.zeros(m) if linear is None else _check_vector("linear", linear, m)
    start = _start_for(loss, X, y, start)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _newton(loss, start, gamma, v)
    except FloatingPointError as exc:
        raise OptimizerError(f"the objective left the floating-point range ({exc})") from None


def _newton(loss, start, gamma, v):
    # minimize_erm's Newton loop from start, with its constants hoisted out
    # of the loop and the line search
    X, y, work = start.X, start.y, start.workspace
    n = len(X)
    half_gamma, ridge = 0.5 * gamma, gamma * np.eye(len(v))
    loss_and_grad, hess_at = loss.loss_and_grad, loss.hess

    theta = start.theta.copy()
    f = (start.value + half_gamma * (theta @ theta) + v @ theta) / n
    g = (start.grad + gamma * theta + v) / n
    w, hess = None, start.hessian  # the start's Hessian needs no curvature
    for _ in range(MAX_NEWTON_STEPS):
        gg = g @ g
        gnorm = float(np.sqrt(gg))
        if gnorm <= GRAD_TOL:
            return theta
        if hess is None:
            hess = hess_at(theta, X, y, w, work)
        H = (hess + ridge) / n
        try:
            step = np.linalg.solve(H, -g)
            if not np.isfinite(step).all() or g @ step >= 0:
                step = -g
        except np.linalg.LinAlgError:
            step = -g
        gd = float(g @ step)
        t_step = 1.0
        while True:
            trial = theta + t_step * step
            base, grad, wt = loss_and_grad(trial, X, y, work)
            ft = (base + half_gamma * (trial @ trial) + v @ trial) / n
            gt = (grad + gamma * trial + v) / n
            if ft <= f + 1e-4 * t_step * gd:
                break
            # near the minimizer the true decrease of a full step can fall
            # below the rounding error of f, so Armijo alone would stall
            if t_step == 1.0 and ft - f <= 1e-12 * (1.0 + abs(f)) and gt @ gt < 0.25 * gg:
                break
            t_step *= 0.5
            if t_step < 2.0**-60:
                raise OptimizerError(
                    f"line search stalled at gradient norm {gnorm:.3e}"
                )
        theta, f, g, w, hess = trial, ft, gt, wt, None
    gnorm = float(np.sqrt(g @ g))
    if gnorm <= GRAD_TOL:
        return theta
    raise OptimizerError(
        f"no convergence after {MAX_NEWTON_STEPS} iterations; gradient norm {gnorm:.3e}"
    )


def objective_perturbation(config: ObjPertConfig, X, y, rng):
    """Private ERM estimate via the extended objective-perturbation mechanism.

    Sets gamma from the budget split, draws V with density proportional to
    exp(-(eps*q/Delta)*||V||_K) through the sampling module, and minimizes
    the perturbed objective. The eps-DP guarantee for the loss's stated
    sensitivity bounds holds for the exact minimizer; the returned theta
    only meets ||grad J||_2 <= GRAD_TOL (1e-8), and nothing here bounds the
    difference.

    evaluate(config.loss, X, y) builds the start at theta = 0, checking the
    data before any noise is drawn, so a refused call leaves rng as it was.
    The one-pair case of objective_perturbation_rows, which also takes a
    shared start.
    """
    return objective_perturbation_rows([(config, rng)], X, y)[0]


def objective_perturbation_rows(runs, X, y, start=None):
    """objective_perturbation for each (ObjPertConfig, generator) pair of
    runs on one design, as the rows of a (len(runs), m) array.

    Row i is objective_perturbation(config_i, X, y, rng_i) bit for bit, and
    each generator ends where that call leaves it. start, if given, is
    minimize_erm's start, with X and y its own start.X and start.y, and must
    sit at theta = 0: a data-dependent start (such as the MLE) is refused
    with a ValueError. Every config's loss is checked against the start (the
    one given, or evaluate(runs[0][0].loss, X, y), which validates the data)
    before any draw, so a refused call leaves every generator as it was; so
    does a generator that appears twice (sample_noise_rows refuses it). Then
    every V is drawn in one sample_noise_rows call on the configs' noise,
    and each row is fitted from the shared start, one at a time.
    """
    if not runs:
        raise ValueError("objective_perturbation_rows needs at least one run")
    if start is None:
        start = evaluate(runs[0][0].loss, X, y)
        X, y = start.X, start.y
    for config, _ in runs:
        _start_for(config.loss, X, y, start)
    if np.any(start.theta):
        raise ValueError("objective perturbation must start at theta = 0")
    noise = sample_noise_rows([(config.noise, rng) for config, rng in runs])
    out = np.empty_like(noise)
    for i, (config, _) in enumerate(runs):
        out[i] = minimize_erm(config.loss, X, y, gamma=config.gamma, linear=noise[i],
                              start=start)
    return out
