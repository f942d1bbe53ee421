import math

import numpy as np
import pytest
import scipy.optimize as spo

from knorm.erm import (
    ObjPertConfig,
    OptimizerError,
    logistic_loss_spec,
    logistic_sensitivity,
    minimize_erm,
    objective_perturbation,
)
from knorm.sampling import RngStream

INF = math.inf
BETA = np.array([0.0, -1.0, -0.5, -0.25, 0.0, 0.75, 1.5])


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def make_data(n, m, rng, beta=None):
    beta = BETA[:m] if beta is None else beta
    X = rng.uniform(-1.0, 1.0, size=(n, m))
    y = (rng.random(n) < sigmoid(X @ beta)).astype(float)
    return X, y


def one_example(spec, theta, x, y):
    """Loss, gradient and Hessian of a loss spec at the single example (x, y)."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(x, dtype=float)[None, :]
    Y = np.array([float(y)])
    loss, grad = spec.loss_and_grad(theta, X, Y)
    return loss, grad, spec.hess(theta, X, Y)


class TestLogisticParts:
    def test_loss_at_zero(self):
        spec = logistic_loss_spec(3)
        loss, _, _ = one_example(spec, np.zeros(3), [0.5, -1.0, 0.0], 1)
        assert math.isclose(loss, math.log(2), rel_tol=1e-12)

    def test_gradient_at_zero(self):
        spec = logistic_loss_spec(3)
        x = np.array([0.5, -1.0, 0.25])
        for y in (0, 1):
            _, grad, _ = one_example(spec, np.zeros(3), x, y)
            assert np.allclose(grad, (0.5 - y) * x, atol=1e-12)

    def test_hessian_eigen_bound(self):
        rng = np.random.default_rng(60)
        m = 7
        spec = logistic_loss_spec(m)
        worst = 0.0
        for _ in range(10_000):
            theta = rng.standard_normal(m) * rng.uniform(0, 3)
            x = rng.uniform(-1, 1, m)
            _, _, hess = one_example(spec, theta, x, rng.integers(0, 2))
            # rank-one Hessian: top eigenvalue is its trace
            worst = max(worst, np.trace(hess))
        assert worst <= spec.eigen_bound + 1e-12
        assert spec.eigen_bound == m / 4

    def test_out_of_range_feature(self):
        spec = logistic_loss_spec(2)
        with pytest.raises(ValueError):
            spec.validate(np.array([[1.5, 0.0]]), np.array([1.0]))

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(61)
        spec = logistic_loss_spec(4)
        for _ in range(200):
            x = rng.uniform(-1, 1, 4)
            y = int(rng.integers(0, 2))
            t1 = rng.standard_normal(4) * 2
            t2 = rng.standard_normal(4) * 2
            l1, _, _ = one_example(spec, t1, x, y)
            l2, _, _ = one_example(spec, t2, x, y)
            lm, _, _ = one_example(spec, 0.5 * (t1 + t2), x, y)
            assert lm <= 0.5 * (l1 + l2) + 1e-12


class TestLogisticSensitivity:
    def test_values_m7(self):
        assert logistic_sensitivity(7, INF) == 2.0
        assert math.isclose(logistic_sensitivity(7, 2), 2 * math.sqrt(7))
        assert logistic_sensitivity(7, 1) == 14.0

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            logistic_sensitivity(7, 3)

    def test_gradient_differences_within_gauge(self):
        # sampled per-example gradient differences never exceed the bound
        rng = np.random.default_rng(62)
        m = 5
        for p in (1, 2, INF):
            spec = logistic_loss_spec(m, p)
            worst = 0.0
            for _ in range(2000):
                theta = rng.standard_normal(m) * rng.uniform(0, 4)
                xa, ya = rng.uniform(-1, 1, m), int(rng.integers(0, 2))
                xb, yb = rng.uniform(-1, 1, m), int(rng.integers(0, 2))
                _, ga, _ = one_example(spec, theta, xa, ya)
                _, gb, _ = one_example(spec, theta, xb, yb)
                worst = max(worst, spec.grad_ball.gauge(ga - gb))
            assert worst <= spec.grad_delta + 1e-9


class TestObjPertConfig:
    def test_gamma_example(self):
        config = ObjPertConfig(1.0, 0.5, logistic_loss_spec(7))
        assert math.isclose(config.gamma, 1.75 / (math.exp(0.5) - 1), rel_tol=1e-12)
        assert math.isclose(config.gamma, 2.6976, rel_tol=1e-4)

    def test_gamma_underflows_for_huge_eps(self):
        config = ObjPertConfig(1e6, 0.5, logistic_loss_spec(3))
        assert config.gamma == 0.0

    def test_invalid_q(self):
        spec = logistic_loss_spec(3)
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ObjPertConfig(1.0, q, spec)


class TestMinimizeErm:
    def test_unperturbed_matches_independent_mle(self):
        rng = RngStream(63, 0).generator()
        X, y = make_data(3000, 7, rng)
        spec = logistic_loss_spec(7)
        ours = minimize_erm(spec, X, y, grad_tol=1e-8)

        def f(theta):
            z = X @ theta
            return float(np.logaddexp(0, z).sum() - y @ z)

        ref = spo.minimize(f, np.zeros(7), method="BFGS",
                           options={"gtol": 1e-6 * len(y)})
        assert np.linalg.norm(ours - ref.x) < 1e-4

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(64, 0).generator()
        X, y = make_data(200, 4, rng, beta=np.array([0.3, -0.7, 1.0, 0.0]))
        spec = logistic_loss_spec(4)
        n = len(y)
        probes = RngStream(64, 1).generator()
        for _ in range(100):
            theta = probes.standard_normal(4) * 2
            _, grad = spec.loss_and_grad(theta, X, y)
            for j in range(4):
                h = 1e-6
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (spec.loss_and_grad(tp, X, y)[0]
                      - spec.loss_and_grad(tm, X, y)[0]) / (2 * h)
                # compare on the mean-objective scale
                assert abs(fd - grad[j]) / n <= 1e-6 * max(1.0, abs(grad[j]) / n)

    def test_restarts_agree(self):
        rng = RngStream(65, 0).generator()
        X, y = make_data(1000, 5, rng, beta=np.array([0.5, -1.0, 0.0, 1.0, -0.5]))
        spec = logistic_loss_spec(5)
        v = RngStream(65, 1).generator().standard_normal(5) * 3
        sols = []
        starts = RngStream(65, 2).generator()
        for _ in range(5):
            theta0 = starts.standard_normal(5) * 4
            sols.append(minimize_erm(spec, X, y, gamma=2.0, linear=v, theta0=theta0))
        base = sols[0]
        for s in sols[1:]:
            assert np.linalg.norm(s - base) < 1e-6

    def test_converges_when_decrease_is_below_rounding(self):
        # simulate-logistic --n 10000 --reps 2 --seed 1078913183, second
        # replicate, eps = 1/64 with the l1 ball: the gradient norm stalled at
        # 1.18e-8 because every Newton step's decrease was below the rounding
        # error of f, so Armijo backtracking never accepted it
        seed, rep = 1078913183, 1
        g = RngStream(seed, rep).generator()
        X = g.uniform(-1.0, 1.0, size=(10_000, 7))
        y = (g.random(10_000) < sigmoid(X @ BETA)).astype(float)
        config = ObjPertConfig(1 / 64, 0.5, logistic_loss_spec(7, 1.0))
        # the harness's noise stream for eps index 0, mechanism index 0
        noise = RngStream(seed, 2 + rep).generator()
        theta = objective_perturbation(config, X, y, noise)
        assert np.all(np.isfinite(theta))

    def test_nonconvergence_raises_with_diagnostics(self):
        rng = RngStream(66, 0).generator()
        X, y = make_data(500, 3, rng, beta=np.array([1.0, -1.0, 0.5]))
        spec = logistic_loss_spec(3)
        with pytest.raises(OptimizerError, match="gradient norm"):
            minimize_erm(spec, X, y, max_iter=1)


class TestObjectivePerturbation:
    def test_eps_to_infinity_recovers_mle(self):
        rng = RngStream(67, 0).generator()
        X, y = make_data(2000, 7, rng)
        spec = logistic_loss_spec(7)
        mle = minimize_erm(spec, X, y)
        config = ObjPertConfig(1e6, 0.5, spec)
        hits = 0
        for rep in range(100):
            noise_rng = RngStream(67, 100 + rep).generator()
            theta = objective_perturbation(config, X, y, noise_rng)
            if np.linalg.norm(theta - mle) < 1e-3:
                hits += 1
        assert hits >= 99

    def test_out_of_range_data_rejected(self):
        spec = logistic_loss_spec(2)
        config = ObjPertConfig(1.0, 0.5, spec)
        X = np.array([[1.5, 0.0]])
        with pytest.raises(ValueError):
            objective_perturbation(config, X, np.array([1.0]),
                                   RngStream(0, 0).generator())

    def test_monotone_utility_in_eps(self):
        # median error non-increasing across a 16x budget range
        spec = logistic_loss_spec(7)
        medians = []
        for ei, eps in enumerate((0.25, 1.0, 4.0)):
            config = ObjPertConfig(eps, 0.5, spec)
            errs = []
            for rep in range(100):
                data_rng = RngStream(68, rep).generator()
                X, y = make_data(800, 7, data_rng)
                noise_rng = RngStream(68, 1000 + ei * 100 + rep).generator()
                theta = objective_perturbation(config, X, y, noise_rng)
                errs.append(float(np.linalg.norm(theta - BETA)))
            medians.append(sorted(errs)[(len(errs) - 1) // 2])
        assert medians[0] >= medians[1] >= medians[2]

    def test_separable_examples_have_finite_minimizer(self):
        # two separable examples: gamma > 0 keeps the minimizer finite
        X = np.array([[0.5, -0.25], [-1.0, 0.0]])
        y = np.array([1.0, 0.0])
        config = ObjPertConfig(1.0, 0.5, logistic_loss_spec(2))
        theta = objective_perturbation(config, X, y, RngStream(70, 0).generator())
        assert theta.shape == (2,)
        assert np.all(np.isfinite(theta))

    def test_perturbed_solution_uniqueness_under_noise(self):
        rng = RngStream(69, 0).generator()
        X, y = make_data(1500, 7, rng)
        spec = logistic_loss_spec(7, 1.0)
        config = ObjPertConfig(0.5, 0.5, spec)
        noise_rng = RngStream(69, 1).generator()
        a = objective_perturbation(config, X, y, noise_rng)
        # same stream replays the same noise; optimizer is deterministic
        noise_rng = RngStream(69, 1).generator()
        b = objective_perturbation(config, X, y, noise_rng)
        assert np.array_equal(a, b)
