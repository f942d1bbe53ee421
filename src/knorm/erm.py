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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import NormBall
from .sampling import MechanismConfig, sample_noise

__all__ = [
    "LossSpec",
    "ObjPertConfig",
    "OptimizerError",
    "logistic_sensitivity",
    "logistic_loss_spec",
    "minimize_erm",
    "objective_perturbation",
]


class OptimizerError(RuntimeError):
    """Raised when the inner optimizer fails to reach its gradient tolerance."""


@dataclass(frozen=True)
class LossSpec:
    """A smooth convex per-example loss with the bounds Algorithm-style DP needs.

    loss_and_grad(theta, X, y) returns the loss summed over examples and the
    summed gradient; hess(theta, X, y) the summed Hessian. eigen_bound
    bounds the eigenvalues of every per-example Hessian, and
    (grad_ball, grad_delta) bound the gauge of any per-example gradient
    difference. validate, if set, checks dataset preconditions.
    """

    dimension: int
    eigen_bound: float
    grad_ball: NormBall
    grad_delta: float
    loss_and_grad: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    hess: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    validate: Optional[Callable[[np.ndarray, np.ndarray], None]] = None
    name: str = "loss"


@dataclass(frozen=True)
class ObjPertConfig:
    """Budget eps, split q in (0,1), and the loss being minimized."""

    epsilon: float
    q: float
    loss: LossSpec

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q}")
        g = self.gamma
        if not (g >= 0 and math.isfinite(g)):
            raise ValueError(f"invalid regularization weight gamma={g}")

    @property
    def gamma(self):
        """Quadratic weight lambda/(exp(eps*(1-q)) - 1); underflows to 0 for huge eps."""
        try:
            return self.loss.eigen_bound / math.expm1(self.epsilon * (1.0 - self.q))
        except OverflowError:
            return 0.0


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_sensitivity(m, p):
    """Gauge bound on logistic gradient differences: 2, 2*sqrt(m), 2m for p=inf,2,1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if p == math.inf:
        return 2.0
    if p == 2:
        return 2.0 * math.sqrt(m)
    if p == 1:
        return 2.0 * m
    raise ValueError(f"unsupported p for logistic sensitivity: {p}")


def _logistic_validate(X, y):
    if np.abs(X).max() > 1.0 + 1e-12:
        raise ValueError("design matrix entries must lie in [-1, 1]")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")


def _logistic_loss_and_grad(theta, X, y):
    z = X @ theta
    loss = float(np.logaddexp(0.0, z).sum() - y @ z)
    grad = X.T @ (_sigmoid(z) - y)
    return loss, grad


def _logistic_hess(theta, X, y):
    z = X @ theta
    sig = _sigmoid(z)
    w = sig * (1.0 - sig)
    return (X * w[:, None]).T @ X


def logistic_loss_spec(m, p=math.inf) -> LossSpec:
    """Logistic-regression LossSpec with the lp gradient-sensitivity ball."""
    return LossSpec(
        dimension=m,
        eigen_bound=m / 4.0,
        grad_ball=NormBall.lp(p, 1.0, m),
        grad_delta=logistic_sensitivity(m, p),
        loss_and_grad=_logistic_loss_and_grad,
        hess=_logistic_hess,
        validate=_logistic_validate,
        name="logistic",
    )


def minimize_erm(loss: LossSpec, X, y, gamma=0.0, linear=None, theta0=None,
                 grad_tol=1e-8, max_iter=500):
    """Minimize (1/n)[sum loss + gamma/2 theta'theta + linear'theta].

    Damped Newton with Armijo backtracking (constant 1e-4, halving), falling
    back to a gradient step when the Hessian solve fails or produces a
    non-descent direction. A full step that fails the Armijo test is still
    taken when it raises f by no more than rounding error (1e-12 relative)
    and halves the gradient norm. Converges when the gradient l2 norm of the
    mean-scaled objective is at most grad_tol; raises OptimizerError with
    diagnostics after max_iter iterations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    if m != loss.dimension:
        raise ValueError("design matrix width does not match loss dimension")
    v = np.zeros(m) if linear is None else np.asarray(linear, dtype=float)
    theta = np.zeros(m) if theta0 is None else np.array(theta0, dtype=float)

    def value_and_grad(t):
        base, grad = loss.loss_and_grad(t, X, y)
        f = (base + 0.5 * gamma * (t @ t) + v @ t) / n
        g = (grad + gamma * t + v) / n
        return f, g

    f, g = value_and_grad(theta)
    for _ in range(max_iter):
        gnorm = float(np.sqrt(g @ g))
        if gnorm <= grad_tol:
            return theta
        H = (loss.hess(theta, X, y) + gamma * np.eye(m)) / n
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
            ft, gt = value_and_grad(trial)
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
        theta, f, g = trial, ft, gt
    gnorm = float(np.sqrt(g @ g))
    if gnorm <= grad_tol:
        return theta
    raise OptimizerError(
        f"no convergence after {max_iter} iterations; gradient norm {gnorm:.3e}"
    )


def objective_perturbation(config: ObjPertConfig, X, y, rng):
    """Private ERM estimate via the extended objective-perturbation mechanism.

    Sets gamma from the budget split, draws V with density proportional to
    exp(-(eps*q/Delta)*||V||_K) through the sampling module, and returns the
    unique minimizer of the perturbed objective. Satisfies eps-DP for the
    loss's stated sensitivity bounds.
    """
    loss = config.loss
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if loss.validate is not None:
        loss.validate(X, y)
    noise_cfg = MechanismConfig(
        epsilon=config.epsilon * config.q,
        delta=loss.grad_delta,
        ball=loss.grad_ball,
    )
    v = sample_noise(noise_cfg, rng)
    return minimize_erm(loss, X, y, gamma=config.gamma, linear=v)
