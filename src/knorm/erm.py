"""Objective perturbation for empirical risk minimization with K-norm noise.

The private estimate minimizes

    (1/n) sum_i loss(theta; x_i, y_i) + gamma/(2n) theta'theta + V'theta/n

where gamma = lambda/(exp(eps*(1-q)) - 1) for a Hessian eigenvalue bound
lambda, and V is drawn with density proportional to
exp(-(eps*q/Delta)*||V||_K) for a bound Delta on the K-gauge of
per-example gradient differences. The domain is all of R^m and no extra
regularizer is used. Instantiated here for logistic regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import NormBall, _check_integer, _check_positive, _check_unit
from .sampling import BudgetError, MechanismConfig, sample_noise

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

    loss_and_grad(theta, X, y) returns (loss, grad, curvature): the loss
    summed over examples, the summed gradient, and whatever per-example
    curvature the Hessian at theta is built from (for logistic, the weights
    sig * (1 - sig)). hess(theta, X, y, curvature=None) returns the summed
    Hessian; a given curvature must come from loss_and_grad at the same
    theta, and without one hess works it out from theta itself. Both are
    called with positional arguments only. eigen_bound bounds the
    eigenvalues of every per-example Hessian, and (grad_ball, grad_delta)
    bound the gauge of any per-example gradient difference; theta has the
    ball's dimension. validate(X, y) checks dataset preconditions;
    evaluate runs it once per design.
    """

    eigen_bound: float
    grad_ball: NormBall
    grad_delta: float
    loss_and_grad: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    hess: Callable[..., np.ndarray]
    validate: Callable[[np.ndarray, np.ndarray], None]

    @property
    def dimension(self):
        return self.grad_ball.dimension


@dataclass(frozen=True)
class ObjPertConfig:
    """Budget eps, split q in (0,1), and the loss being minimized.

    noise is the mechanism V is drawn from, resolved once here: budget
    eps*q on the loss's gradient-sensitivity ball and bound.
    """

    epsilon: float
    q: float
    loss: LossSpec
    noise: MechanismConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("epsilon", self.epsilon, BudgetError)
        _check_unit("q", self.q)
        g = self.gamma
        if not (g >= 0 and math.isfinite(g)):
            raise BudgetError(f"epsilon={self.epsilon!r} and q={self.q!r} give an invalid "
                              f"regularization weight gamma={g}")
        object.__setattr__(self, "noise", MechanismConfig(
            epsilon=self.epsilon * self.q,
            delta=self.loss.grad_delta,
            ball=self.loss.grad_ball,
        ))

    @property
    def gamma(self):
        """Quadratic weight lambda/(exp(eps*(1-q)) - 1); underflows to 0 for huge eps."""
        try:
            return self.loss.eigen_bound / math.expm1(self.epsilon * (1.0 - self.q))
        except OverflowError:
            return 0.0


def _sigmoid_from_exp(z, e):
    # e = exp(-|z|) never overflows: 1/(1+e) for z >= 0, e/(1+e) below, the
    # same exp argument and division as the two-branch masked formula. The
    # numerator max(z >= 0, e) is 1 for z >= 0 (where e <= 1), else e, and
    # stays nan for nan z
    return np.maximum(z >= 0, e) / (1.0 + e)


def _sigmoid(z):
    return _sigmoid_from_exp(z, np.exp(-np.abs(z)))


def logistic_sensitivity(m, p):
    """Gauge bound on logistic gradient differences: 2, 2*sqrt(m), 2m for
    p=inf,2,1, at an integer dimension m >= 1."""
    m = _check_integer("m", m)
    if p == math.inf:
        return 2.0
    if p == 2:
        return 2.0 * math.sqrt(m)
    if p == 1:
        return 2.0 * m
    raise ValueError(f"unsupported p for logistic sensitivity: {p}")


def _logistic_validate(X, y):
    # min and max propagate nan, and every comparison with nan is False, so
    # this rejects nan and +-inf as well as entries outside [-1, 1]
    bound = 1.0 + 1e-12
    if not (X.min() >= -bound and X.max() <= bound):
        raise ValueError("design matrix entries must be finite and lie in [-1, 1]")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")


def _logistic_loss_and_grad(theta, X, y):
    z = X @ theta
    e = np.exp(-np.abs(z))
    # softplus log(1 + exp(z)) from the sigmoid's exp
    loss = float((np.maximum(z, 0.0) + np.log1p(e)).sum() - y @ z)
    sig = _sigmoid_from_exp(z, e)
    grad = X.T @ (sig - y)
    return loss, grad, sig * (1.0 - sig)


def _logistic_hess(theta, X, y, curvature=None):
    if curvature is None:
        sig = _sigmoid(X @ theta)
        curvature = sig * (1.0 - sig)
    # weight along the n-long axis into one C-ordered m x n array; the
    # products and the GEMM are those of (X * curvature[:, None]).T @ X
    return np.multiply(X.T, curvature, order="C") @ X


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

    Holds theta (read-only), loss_and_grad's (value, grad, curvature) there
    and hess built from that curvature, the column-major float design X and
    float labels y it was evaluated on, and the loss itself. A fit from this
    start is passed these very X and y and a loss with the same kernels.
    """

    theta: np.ndarray
    value: float
    grad: np.ndarray
    curvature: object
    hessian: np.ndarray
    X: np.ndarray
    y: np.ndarray
    loss: LossSpec


def evaluate(loss: LossSpec, X, y, theta=None) -> StartPoint:
    """Validate the data and evaluate loss, gradient, curvature and Hessian at
    theta (default zeros).

    X is converted to a column-major float array, so that the kernels read
    contiguous columns (no copy when X already is one), and y to a float
    array. loss.validate runs here, once for every fit that shares the
    start. Every fit from the start must be passed its X and y.
    """
    X = np.asfortranarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != loss.dimension:
        raise ValueError(f"design matrix must be n x {loss.dimension}, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("design matrix has no rows")
    if y.shape != X.shape[:1]:
        raise ValueError(f"labels must be one per design row ({len(X)}), got shape {y.shape}")
    loss.validate(X, y)
    theta = np.zeros(loss.dimension) if theta is None else np.array(theta, dtype=float)
    theta.flags.writeable = False
    value, grad, curvature = loss.loss_and_grad(theta, X, y)
    hessian = loss.hess(theta, X, y, curvature)
    return StartPoint(theta, value, grad, curvature, hessian, X, y, loss)


def _start_for(loss, X, y, start):
    # evaluate(loss, X, y) without a start, else the start once X, y and loss are its own
    if start is None:
        return evaluate(loss, X, y)
    if not (X is start.X and y is start.y
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
    diagnostics after MAX_NEWTON_STEPS iterations.

    The fit starts from start, a StartPoint from evaluate(loss, X, y,
    theta), or from evaluate(loss, X, y) at theta = 0 when start is None;
    evaluate validates the data, so a shared start validates it once. One
    start can be shared by any number of fits on the same data with
    different gamma and linear: X and y must be the start's own start.X and
    start.y (identity), and loss must have the start's loss_and_grad, hess
    and validate, or a ValueError is raised. The arrays must not be changed
    in place after evaluate, which cannot detect it.

    Each Newton step takes its Hessian at a point whose loss was just
    evaluated (the start, or the accepted line-search trial), so it passes
    that evaluation's curvature: loss.hess(theta, X, y, curvature). The
    loss is called once per evaluation and hess once per step; the first
    step uses the start's Hessian.
    """
    start = _start_for(loss, X, y, start)
    X, y = start.X, start.y
    n, m = X.shape
    v = np.zeros(m) if linear is None else np.asarray(linear, dtype=float)
    ridge = gamma * np.eye(m)

    def objective(t, base, grad):
        f = (base + 0.5 * gamma * (t @ t) + v @ t) / n
        g = (grad + gamma * t + v) / n
        return f, g

    def value_and_grad(t):
        base, grad, curvature = loss.loss_and_grad(t, X, y)
        return (*objective(t, base, grad), curvature)

    theta = start.theta.copy()
    f, g = objective(theta, start.value, start.grad)
    w, hess = start.curvature, start.hessian
    for _ in range(MAX_NEWTON_STEPS):
        gnorm = float(np.sqrt(g @ g))
        if gnorm <= GRAD_TOL:
            return theta
        if hess is None:
            hess = loss.hess(theta, X, y, w)
        H = (hess + ridge) / n
        try:
            step = np.linalg.solve(H, -g)
            if not np.all(np.isfinite(step)) or g @ step >= 0:
                step = -g
        except np.linalg.LinAlgError:
            step = -g
        gd = float(g @ step)
        t_step = 1.0
        while True:
            trial = theta + t_step * step
            ft, gt, wt = value_and_grad(trial)
            if ft <= f + 1e-4 * t_step * gd:
                break
            # near the minimizer the true decrease of a full step can fall
            # below the rounding error of f, so Armijo alone would stall
            if (t_step == 1.0 and ft - f <= 1e-12 * (1.0 + abs(f))
                    and gt @ gt < 0.25 * (g @ g)):
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


def objective_perturbation(config: ObjPertConfig, X, y, rng, start=None):
    """Private ERM estimate via the extended objective-perturbation mechanism.

    Sets gamma from the budget split, draws V with density proportional to
    exp(-(eps*q/Delta)*||V||_K) through the sampling module, and minimizes
    the perturbed objective. The eps-DP guarantee for the loss's stated
    sensitivity bounds holds for the exact minimizer; the returned theta
    only meets ||grad J||_2 <= GRAD_TOL (1e-8), and nothing here bounds the
    difference.

    start, if given, is minimize_erm's start, with X and y its own start.X
    and start.y, and must sit at theta = 0: a data-dependent start (such as
    the MLE) is refused with a ValueError. Without one,
    evaluate(config.loss, X, y) builds it. The data and the start are
    checked before any noise is drawn, so a refused call leaves rng as it was.
    """
    start = _start_for(config.loss, X, y, start)
    if np.any(start.theta):
        raise ValueError("objective perturbation must start at theta = 0")
    v = sample_noise(config.noise, rng)
    return minimize_erm(config.loss, start.X, start.y, gamma=config.gamma, linear=v, start=start)
