import dataclasses
import math
import re
import sys

import numpy as np
import pytest
import scipy.optimize as spo
from hypothesis import given, settings, strategies as st

from knorm.erm import (
    LossSpec,
    ObjPertConfig,
    OptimizerError,
    _sigmoid,
    evaluate,
    logistic_loss_spec,
    logistic_sensitivity,
    minimize_erm,
    objective_perturbation,
    objective_perturbation_rows,
)
from knorm import erm
from knorm.geometry import NormBall
from knorm.harness import DEFAULT_LOGISTIC_EPS, simulate_logistic, SimulationConfig
from knorm.sampling import (BudgetError, MechanismConfig, RngStream, sample_noise,
                            sample_noise_rows)

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
    loss, grad, curvature = spec.loss_and_grad(theta, X, Y)
    return loss, grad, spec.hess(theta, X, Y, curvature)


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

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_non_finite_feature(self, bad):
        spec = logistic_loss_spec(2)
        X = np.array([[0.5, 0.0], [bad, -0.25]])
        y = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            spec.validate(X, y)
        # rejected before the optimizer sees it (numpy warnings are errors here)
        with pytest.raises(ValueError, match="finite"):
            objective_perturbation(ObjPertConfig(1.0, 0.5, spec), X, y,
                                   RngStream(0, 0).generator())

    def test_boundary_features_accepted(self):
        # [-1, 1] exactly: the logistic Delta and eigen_bound cover no slack
        spec = logistic_loss_spec(2)
        y = np.array([1.0, 0.0])
        spec.validate(np.array([[1.0, -1.0], [-1.0, 1.0]]), y)
        for bad in (1.0 + 1e-13, -1.0 - 1e-13):
            with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
                spec.validate(np.array([[1.0, -1.0], [bad, 0.5]]), y)

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


# Reference logistic kernels: the masked two-branch sigmoid, the
# np.logaddexp loss and the row-weighted Hessian that the one-exp kernels
# in knorm.erm replaced. The sigmoid, gradient and Hessian must match them
# bit for bit; the loss only up to rounding. ref_hess recomputes the
# weights from theta and ignores any curvature it is passed, and both
# ignore the workspace minimize_erm passes them.
def ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_loss_and_grad(theta, X, y, work=None):
    z = X @ theta
    loss = float(np.logaddexp(0.0, z).sum() - y @ z)
    sig = ref_sigmoid(z)
    grad = X.T @ (sig - y)
    return loss, grad, sig * (1.0 - sig)


def ref_hess(theta, X, y, curvature=None, work=None):
    z = X @ theta
    sig = ref_sigmoid(z)
    w = sig * (1.0 - sig)
    return (X * w[:, None]).T @ X


class TestKernelsMatchReference:
    def test_sigmoid_bit_identical(self):
        edges = np.array([0.0, 1e-300, 36.0, 709.0, 745.0, INF])
        rng = np.random.default_rng(71)
        for z in [np.concatenate([edges, -edges, [np.nan]])] + [
            rng.standard_normal(10_000) * scale for scale in (1.0, 40.0, 800.0)
        ]:
            assert np.array_equal(_sigmoid(z), ref_sigmoid(z), equal_nan=True)

    def test_gradient_hessian_bit_identical_loss_within_rounding(self):
        rng = RngStream(72, 0).generator()
        X, y = make_data(5000, 7, rng)
        spec = logistic_loss_spec(7)
        probes = RngStream(72, 1).generator()
        for _ in range(20):
            theta = probes.standard_normal(7) * probes.uniform(0.0, 20.0)
            loss, grad, curvature = spec.loss_and_grad(theta, X, y)
            ref_loss, ref_grad, ref_curvature = ref_loss_and_grad(theta, X, y)
            assert np.array_equal(grad, ref_grad)
            assert np.array_equal(curvature, ref_curvature)
            hess = ref_hess(theta, X, y)
            assert np.array_equal(spec.hess(theta, X, y), hess)
            assert np.array_equal(spec.hess(theta, X, y, curvature), hess)
            softplus = np.logaddexp(0.0, X @ theta).sum()
            assert abs(loss - ref_loss) <= 8 * np.finfo(float).eps * softplus

    def test_fits_match_reference_spec(self):
        # the MLE and the default eps x mechanism fits of one simulate-logistic
        # replicate, with the kernels and with the reference formulas
        g = RngStream(73, 0).generator()
        X = g.uniform(-1.0, 1.0, size=(10_000, 7))
        y = (g.random(10_000) < ref_sigmoid(X @ BETA)).astype(float)
        specs = [logistic_loss_spec(7, p) for p in (1.0, 2.0, INF)]
        refs = [dataclasses.replace(s, loss_and_grad=ref_loss_and_grad, hess=ref_hess)
                for s in specs]
        assert np.allclose(minimize_erm(specs[2], X, y), minimize_erm(refs[2], X, y),
                           rtol=0.0, atol=1e-12)
        stream = 1
        for eps in DEFAULT_LOGISTIC_EPS:
            for spec, ref in zip(specs, refs):
                fits = [objective_perturbation(ObjPertConfig(eps, 0.5, s), X, y,
                                               RngStream(73, stream).generator())
                        for s in (spec, ref)]
                assert np.allclose(fits[0], fits[1], rtol=0.0, atol=1e-12)
                stream += 1


class TestFusedHessian:
    def test_fits_equal_hessian_recomputed_from_theta(self):
        # minimize_erm hands hess the curvature of the loss evaluation at the
        # same theta; a spec whose hess drops it and recomputes from theta
        # must give the same bits for the MLE and the default eps x mechanism
        # fits of one simulate-logistic replicate; it recomputes into the
        # workspace it is passed
        g = RngStream(74, 0).generator()
        X = g.uniform(-1.0, 1.0, size=(10_000, 7))
        y = (g.random(10_000) < sigmoid(X @ BETA)).astype(float)
        specs = [logistic_loss_spec(7, p) for p in (1.0, 2.0, INF)]

        def recomputing(spec):
            return dataclasses.replace(
                spec, hess=lambda t, X, y, curvature, work=None: spec.hess(t, X, y, None, work))

        recs = [recomputing(s) for s in specs]
        assert np.array_equal(minimize_erm(specs[2], X, y), minimize_erm(recs[2], X, y))
        assert len(DEFAULT_LOGISTIC_EPS) == 8
        stream = 1
        for eps in DEFAULT_LOGISTIC_EPS:
            for spec, rec in zip(specs, recs):
                fits = [objective_perturbation(ObjPertConfig(eps, 0.5, s), X, y,
                                               RngStream(74, stream).generator())
                        for s in (spec, rec)]
                assert np.array_equal(fits[0], fits[1])
                stream += 1


class TestSharedStart:
    @staticmethod
    def replicate(seed):
        g = RngStream(seed, 0).generator()
        X = g.uniform(-1.0, 1.0, size=(10_000, 7))
        y = (g.random(10_000) < sigmoid(X @ BETA)).astype(float)
        return X, y

    def test_fits_equal_unshared(self):
        # simulate-logistic shares one evaluation at theta = 0 between the MLE
        # and the default eps x mechanism fits of a replicate; each must give
        # the bits of the same fit started on its own
        X, y = self.replicate(75)
        specs = [logistic_loss_spec(7, p) for p in (1.0, 2.0, INF)]
        start = evaluate(specs[2], X, y)
        assert np.array_equal(minimize_erm(specs[2], start.X, start.y, start=start),
                              minimize_erm(specs[2], X, y))
        stream = 1
        for eps in DEFAULT_LOGISTIC_EPS:
            for spec in specs:
                config = ObjPertConfig(eps, 0.5, spec)
                shared = objective_perturbation(config, start.X, start.y,
                                                RngStream(75, stream).generator(), start=start)
                alone = objective_perturbation(config, X, y, RngStream(75, stream).generator())
                assert np.array_equal(shared, alone)
                stream += 1
        assert stream == 25

    @pytest.mark.parametrize("other", ["X copy", "X column-major copy", "y copy",
                                       "loss_and_grad", "hess", "validate", "evaluated again"])
    def test_start_from_other_data_or_loss_rejected(self, other):
        # the fits are passed the arrays of a start on this data; the start
        # they are given differs from it in one array or one kernel, or is
        # a second evaluation, which holds copies of its own
        X, y = self.replicate(76)
        spec = logistic_loss_spec(7)
        start = evaluate(spec, X, y)
        X, y = start.X, start.y

        def with_loss(**kernel):
            return dataclasses.replace(start, loss=dataclasses.replace(spec, **kernel))

        elsewhere = {
            "X copy": lambda: dataclasses.replace(start, X=X.copy(order="C")),
            "X column-major copy": lambda: dataclasses.replace(start, X=X.copy(order="F")),
            "y copy": lambda: dataclasses.replace(start, y=y.copy()),
            "loss_and_grad": lambda: with_loss(loss_and_grad=ref_loss_and_grad),
            "hess": lambda: with_loss(hess=ref_hess),
            "validate": lambda: with_loss(validate=lambda *data: spec.validate(*data)),
            "evaluated again": lambda: evaluate(spec, X, y),
        }[other]()
        assert (elsewhere.X is X) == (other not in ("X copy", "X column-major copy",
                                                    "evaluated again"))
        assert (elsewhere.y is y) == (other not in ("y copy", "evaluated again"))
        with pytest.raises(ValueError, match="start"):
            minimize_erm(spec, X, y, start=elsewhere)
        # the refused call draws no noise: the caller's generator is untouched
        rng = RngStream(76, 1).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="start"):
            objective_perturbation(ObjPertConfig(1.0, 0.5, spec), X, y, rng, start=elsewhere)
        assert rng.bit_generator.state == state

    def test_objective_perturbation_refuses_nonzero_start(self):
        # a data-dependent start such as the MLE needs the exact-minimizer
        # bound first; minimize_erm itself accepts any start
        X, y = self.replicate(77)
        spec = logistic_loss_spec(7)
        mle = minimize_erm(spec, X, y)
        start = evaluate(spec, X, y, mle)
        assert np.array_equal(minimize_erm(spec, start.X, start.y, start=start), mle)
        with pytest.raises(ValueError, match="theta = 0"):
            objective_perturbation(ObjPertConfig(1.0, 0.5, spec), start.X, start.y,
                                   RngStream(77, 1).generator(), start=start)

    def test_start_is_read_only_and_fits_return_their_own_theta(self, monkeypatch):
        X, y = self.replicate(78)
        spec = logistic_loss_spec(7)
        start = evaluate(spec, X, y)
        with pytest.raises(ValueError):
            start.theta[0] = 1.0
        with pytest.raises(ValueError, match="n x 7"):
            evaluate(spec, X[:, :3], y)
        monkeypatch.setattr(erm, "GRAD_TOL", INF)
        fit = minimize_erm(spec, start.X, start.y, start=start)
        assert np.array_equal(fit, np.zeros(7)) and fit.flags.writeable

    def test_start_holds_its_data_and_its_loss(self):
        X, y = self.replicate(86)
        spec = logistic_loss_spec(7)
        start = evaluate(spec, X, y)
        assert [f.name for f in dataclasses.fields(start)] == [
            "theta", "value", "grad", "hessian", "X", "y", "loss", "workspace"]
        # the labels are the start's own copy, as the design is
        assert start.loss is spec and start.y is not y and np.array_equal(start.y, y)

    @pytest.mark.parametrize("fit", ["evaluate", "minimize_erm", "objective_perturbation"])
    def test_design_without_rows_rejected(self, fit):
        spec = logistic_loss_spec(7)
        X, y = np.zeros((0, 7)), np.zeros(0)
        with pytest.raises(ValueError, match="no rows"):
            if fit == "evaluate":
                evaluate(spec, X, y)
            elif fit == "minimize_erm":
                minimize_erm(spec, X, y)
            else:
                objective_perturbation(ObjPertConfig(1.0, 0.5, spec), X, y,
                                       RngStream(87, 0).generator())


class TestLayout:
    """Fits run on a column-major copy of the design, made once by evaluate,
    so theta does not depend on the layout of the X a caller passes, and a
    fit from a start is passed the start's own arrays."""

    replicate = staticmethod(TestSharedStart.replicate)

    def test_fits_bit_identical_for_c_and_f_order(self):
        X, y = self.replicate(80)
        F = np.asfortranarray(X)
        assert X.flags.c_contiguous and F.flags.f_contiguous and not F.flags.c_contiguous
        spec = logistic_loss_spec(7)
        assert np.array_equal(minimize_erm(spec, X, y), minimize_erm(spec, F, y))
        stream = 1
        for eps in (0.25, 4.0):
            for p in (1.0, 2.0, INF):
                config = ObjPertConfig(eps, 0.5, logistic_loss_spec(7, p))
                fits = [objective_perturbation(config, D, y,
                                               RngStream(80, stream).generator())
                        for D in (X, F)]
                assert np.array_equal(fits[0], fits[1])
                stream += 1

    def test_evaluate_keeps_a_column_major_design(self):
        X, y = self.replicate(81)
        spec = logistic_loss_spec(7)
        start = evaluate(spec, X, y)
        assert start.X.flags.f_contiguous and start.X is not X
        assert np.array_equal(start.X, X)
        # a column-major float design is copied too, onto a 64-byte line
        F = np.asfortranarray(X)
        copied = evaluate(spec, F, y).X
        assert copied is not F and np.array_equal(copied, F) and copied.flags.f_contiguous
        assert copied.ctypes.data % 64 == 0
        # other inputs are converted to float first
        ints = evaluate(spec, np.ones((3, 7), dtype=int), [0, 1, 1])
        assert ints.X.dtype == float and ints.X.flags.f_contiguous

    def test_start_from_c_order_refuses_that_x(self):
        # a start built from a C-order X serves only fits passed its own
        # column-major X; those give the bits of a start-less fit on X
        X, y = self.replicate(82)
        spec = logistic_loss_spec(7)
        start = evaluate(spec, X, y)
        config = ObjPertConfig(1.0, 0.5, spec)
        with pytest.raises(ValueError, match="start"):
            minimize_erm(spec, X, y, start=start)
        with pytest.raises(ValueError, match="start"):
            objective_perturbation(config, X, y, RngStream(82, 1).generator(), start=start)
        # int labels are converted by evaluate, so only start.y is accepted
        ints = evaluate(spec, X, y.astype(int))
        with pytest.raises(ValueError, match="start"):
            minimize_erm(spec, ints.X, y.astype(int), start=ints)
        assert np.array_equal(minimize_erm(spec, start.X, start.y, start=start),
                              minimize_erm(spec, X, y))
        assert np.array_equal(
            objective_perturbation(config, start.X, start.y, RngStream(82, 1).generator(),
                                   start=start),
            objective_perturbation(config, X, y, RngStream(82, 1).generator()))

    def test_startless_objective_perturbation_converts_once(self):
        # int labels, a float32 design and Python lists are converted by
        # evaluate alone, so the fit gets the same theta as on float64 arrays
        X, y = self.replicate(85)
        X32 = X.astype(np.float32)
        config = ObjPertConfig(1.0, 0.5, logistic_loss_spec(7))
        want = objective_perturbation(config, X32.astype(float), y,
                                      RngStream(85, 1).generator())
        for D, labels in ((X32, y.astype(int)), (X32, y.astype(bool)),
                          (X32.tolist(), y.astype(int).tolist())):
            got = objective_perturbation(config, D, labels,
                                         RngStream(85, 1).generator())
            assert np.array_equal(got, want)


def offset_copy(a, order, offset):
    """a copied in the given order into a buffer, starting offset bytes past a 64-byte line."""
    raw = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start:start + a.nbytes].view(float)
    out = out.reshape(a.shape[::-1]).T if order == "F" else out.reshape(a.shape)
    out[...] = a
    return out


def without_workspace(spec):
    """spec with kernels that drop the workspace, so each call allocates afresh."""
    return dataclasses.replace(
        spec,
        loss_and_grad=lambda theta, X, y, work=None: spec.loss_and_grad(theta, X, y),
        hess=lambda theta, X, y, curvature=None, work=None: spec.hess(theta, X, y, curvature))


class TestAlignedWorkspace:
    # hypothesis imports a module that warns when it reports a failing example;
    # under filterwarnings=error that ends the session instead of failing this test
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(1, 300), m=st.integers(1, 8), order=st.sampled_from("CF"),
           offset=st.sampled_from(range(0, 64, 8)), seed=st.integers(0, 2**32 - 1))
    def test_aligned_and_bit_identical(self, n, m, order, offset, seed):
        g = np.random.default_rng(seed)
        X = offset_copy(g.uniform(-1.0, 1.0, size=(n, m)), order, offset)
        y = offset_copy((g.random(n) < 0.5).astype(float), "C", offset)
        assert X.ctypes.data % 64 == y.ctypes.data % 64 == offset
        spec = logistic_loss_spec(m)
        start = evaluate(spec, X, y)
        assert np.array_equal(start.X, X) and np.array_equal(start.y, y)
        assert start.X.flags.f_contiguous
        buffers = [start.X, start.y, *vars(start.workspace).values()]
        assert all(b.ctypes.data % 64 == 0 for b in buffers)
        # the kernels give the same bits with the workspace as without one
        work = start.workspace
        for theta in (np.zeros(m), g.standard_normal(m) * g.uniform(0.0, 20.0)):
            loss, grad, curvature = spec.loss_and_grad(theta, start.X, start.y)
            got = spec.loss_and_grad(theta, start.X, start.y, work)
            assert got[0] == loss and np.array_equal(got[1], grad)
            assert np.array_equal(got[2], curvature)
            hess = spec.hess(theta, start.X, start.y, curvature)
            assert np.array_equal(spec.hess(theta, start.X, start.y, got[2], work), hess)
            assert np.array_equal(spec.hess(theta, start.X, start.y, None, work), hess)
            assert np.array_equal(spec.hess(theta, start.X, start.y), hess)
            if order == "F":
                # and on the caller's column-major X, wherever it starts
                loss_at, grad_at, curvature_at = spec.loss_and_grad(theta, X, y)
                assert loss_at == loss and np.array_equal(grad_at, grad)
                assert np.array_equal(curvature_at, curvature)
                assert np.array_equal(spec.hess(theta, X, y, curvature_at), hess)
        # and a fit gives the bits of a fit whose kernels allocate afresh
        gamma, linear = g.uniform(0.5, 5.0), g.standard_normal(m) * 10
        fit = minimize_erm(spec, start.X, start.y, gamma, linear, start=start)
        assert np.array_equal(fit, minimize_erm(without_workspace(spec), X, y, gamma, linear))
        # the start's own evaluation is untouched by the fit
        again = evaluate(spec, X, y)
        assert start.value == again.value and np.array_equal(start.grad, again.grad)
        assert np.array_equal(start.hessian, again.hessian)


class TestValidation:
    """evaluate validates the data, so fits sharing a start skip it, and a
    fit without a start still refuses bad data before any noise is drawn."""

    BAD = {
        "nan": (np.nan, 1.0),
        "inf": (INF, 1.0),
        "-inf": (-INF, 1.0),
        "out of range": (1.5, 1.0),
        "label 2": (0.5, 2.0),
        "label 0.5": (0.5, 0.5),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("fit", ["minimize_erm", "objective_perturbation"])
    def test_startless_fit_rejects_bad_data(self, fit, bad):
        feature, label = self.BAD[bad]
        X = np.array([[0.5, -0.25], [feature, 0.0], [-1.0, 1.0]])
        y = np.array([1.0, label, 0.0])
        spec = logistic_loss_spec(2)
        rng = RngStream(83, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite" if label in (0.0, 1.0) else "0/1"):
            if fit == "minimize_erm":
                minimize_erm(spec, X, y)
            else:
                objective_perturbation(ObjPertConfig(1.0, 0.5, spec), X, y, rng)
        assert rng.bit_generator.state == state
        # the same data in C or F order, and through evaluate
        with pytest.raises(ValueError):
            evaluate(spec, np.asfortranarray(X), y)

    @pytest.mark.parametrize("labels", ["first 10", "one more", "column"])
    @pytest.mark.parametrize("fit", ["evaluate", "minimize_erm", "objective_perturbation"])
    def test_labels_one_per_row(self, fit, labels):
        X, y = make_data(50, 3, np.random.default_rng(88))
        y = {"first 10": y[:10], "one more": np.append(y, 1.0), "column": y[:, None]}[labels]
        spec = logistic_loss_spec(3)
        rng = RngStream(88, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"labels must be one per design row \(50\)"):
            if fit == "evaluate":
                evaluate(spec, X, y)
            elif fit == "minimize_erm":
                minimize_erm(spec, X, y)
            else:
                objective_perturbation(ObjPertConfig(1.0, 0.5, spec), X, y, rng)
        assert rng.bit_generator.state == state

    #: each refused before any kernel call: (call, message)
    BAD_SETTINGS = {
        "theta of length 2": (lambda spec, X, y: evaluate(spec, X, y, theta=[1, 2]),
                              "theta must be 3 finite numbers, got [1.0, 2.0]"),
        "nan theta": (lambda spec, X, y: evaluate(spec, X, y, theta=[np.nan, 0, 0]),
                      "theta must be 3 finite numbers, got [nan, 0.0, 0.0]"),
        "gamma -1": (lambda spec, X, y: minimize_erm(spec, X, y, gamma=-1),
                     "gamma must be nonnegative and finite, got -1"),
        "nan gamma": (lambda spec, X, y: minimize_erm(spec, X, y, gamma=np.nan),
                      "gamma must be nonnegative and finite, got nan"),
        "inf gamma": (lambda spec, X, y: minimize_erm(spec, X, y, gamma=INF),
                      "gamma must be nonnegative and finite, got inf"),
        "linear of length 4": (lambda spec, X, y: minimize_erm(spec, X, y, linear=np.ones(4)),
                               "linear must be 3 finite numbers, got [1.0, 1.0, 1.0, 1.0]"),
        "inf linear": (lambda spec, X, y: minimize_erm(spec, X, y, linear=[0, INF, 0]),
                       "linear must be 3 finite numbers, got [0.0, inf, 0.0]"),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_SETTINGS))
    def test_bad_theta_gamma_or_linear_refused_before_any_kernel(self, bad):
        # they raised numpy's matmul error, or ran 500 Newton steps (gamma -1)
        # or stalled at gradient norm nan (nan theta, nan gamma)
        call, message = self.BAD_SETTINGS[bad]
        X, y = make_data(50, 3, np.random.default_rng(89))

        def kernel(*args):
            raise AssertionError("a kernel ran")

        spec = dataclasses.replace(logistic_loss_spec(3), loss_and_grad=kernel, hess=kernel)
        with pytest.raises(ValueError) as exc:
            call(spec, X, y)
        assert str(exc.value) == message

    def test_shared_start_validates_once(self, monkeypatch):
        calls = []
        validate = erm._logistic_validate
        monkeypatch.setattr(erm, "_logistic_validate",
                            lambda X, y: (calls.append(X), validate(X, y))[1])
        X, y = TestSharedStart.replicate(84)
        specs = [logistic_loss_spec(7, p) for p in (1.0, 2.0, INF)]
        start = evaluate(specs[2], X, y)
        assert len(calls) == 1 and calls[0] is start.X
        minimize_erm(specs[2], start.X, start.y, start=start)
        for i, spec in enumerate(specs):
            objective_perturbation(ObjPertConfig(1.0, 0.5, spec), start.X, start.y,
                                   RngStream(84, 1 + i).generator(), start=start)
        assert len(calls) == 1
        # without a start, each fit validates its own data
        objective_perturbation(ObjPertConfig(1.0, 0.5, specs[0]), X, y,
                               RngStream(84, 1).generator())
        minimize_erm(specs[0], X, y)
        assert len(calls) == 3


class TestLossSpec:
    def test_dimension_is_the_gradient_balls(self):
        spec = logistic_loss_spec(7, 2.0)
        assert [f.name for f in dataclasses.fields(spec)] == [
            "eigen_bound", "grad_ball", "grad_delta", "loss_and_grad", "hess", "validate"]
        assert spec.dimension == spec.grad_ball.dimension == 7
        # there is no second dimension that could disagree with the ball's
        with pytest.raises(TypeError, match="dimension"):
            LossSpec(dimension=7, eigen_bound=spec.eigen_bound,
                     grad_ball=NormBall.lp(2, 1.0, 5), grad_delta=spec.grad_delta,
                     loss_and_grad=spec.loss_and_grad, hess=spec.hess,
                     validate=spec.validate)
        five = dataclasses.replace(spec, grad_ball=NormBall.lp(2, 1.0, 5))
        assert five.dimension == 5
        assert sample_noise(ObjPertConfig(1.0, 0.5, five).noise,
                            RngStream(88, 0).generator()).shape == (5,)
        X, y = make_data(20, 7, RngStream(88, 1).generator())
        with pytest.raises(ValueError, match="n x 5"):
            evaluate(five, X, y)


class TestLogisticSensitivity:
    def test_values_m7(self):
        assert logistic_sensitivity(7, INF) == 2.0
        assert math.isclose(logistic_sensitivity(7, 2), 2 * math.sqrt(7))
        assert logistic_sensitivity(7, 1) == 14.0

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            logistic_sensitivity(7, 3)

    @pytest.mark.parametrize("m, p", [(7.5, 2), (INF, 1), (0, INF), (math.nan, 2)])
    def test_non_integer_dimension_refused(self, m, p):
        # (7.5, 2) used to give 5.477 and (inf, 1) inf
        with pytest.raises(ValueError) as exc:
            logistic_sensitivity(m, p)
        assert str(exc.value) == f"m must be an integer >= 1, got {m}"

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

    @pytest.mark.parametrize("epsilon, q", [(5e-324, 0.5), (1e-310, 1 - 2**-53)])
    def test_zero_budget_for_gamma_refused(self, epsilon, q):
        # eps*(1 - q) rounds to 0, so gamma = lambda/expm1(0) is inf; the
        # division raised ZeroDivisionError
        assert epsilon * (1 - q) == 0.0
        with pytest.raises(BudgetError) as exc:
            ObjPertConfig(epsilon, q, logistic_loss_spec(3))
        assert str(exc.value) == (f"epsilon={epsilon!r} and q={q!r} give an invalid "
                                  f"regularization weight gamma=inf")

    def test_invalid_q(self):
        spec = logistic_loss_spec(3)
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ObjPertConfig(1.0, q, spec)

    #: sample_noise draws on RngStream(79, 1) at eps * q = 0.5 * 0.3, m = 7,
    #: taken when objective_perturbation built the MechanismConfig per fit
    NOISE_DRAWS = {
        1.0: [20.715803946534272, -74.9743654188715, 104.11379769252362,
              -206.6024627724232, -63.088310005006385, 5.15745336479806,
              59.05196729730545],
        2.0: [-31.03279373505011, -98.98103252187252, 40.926206483851864,
              33.161126623460284, -2.4908139979469737, 14.92755751254154,
              122.0762615757363],
        INF: [15.045161644422903, -41.73444993198976, 50.81227677458999,
              -67.32337327220199, -37.1369836028511, 4.063424939591018,
              35.43774666857697],
    }

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_noise_mechanism_resolved_once_with_pinned_draw(self, p, monkeypatch):
        spec = logistic_loss_spec(7, p)
        config = ObjPertConfig(0.5, 0.3, spec)
        assert config.noise == MechanismConfig(0.5 * 0.3, spec.grad_delta, spec.grad_ball)
        assert np.array_equal(sample_noise(config.noise, RngStream(79, 1).generator()),
                              self.NOISE_DRAWS[p])
        # replace re-resolves it from the new fields
        assert dataclasses.replace(config, q=0.5).noise.epsilon == 0.25
        # a fit draws V from config.noise and builds no mechanism of its own
        X, y = TestSharedStart.replicate(79)
        drawn = []

        def recording(draws):
            drawn.extend(cfg for cfg, _ in draws)
            return sample_noise_rows(draws)

        def refused(*args, **kwargs):
            raise AssertionError("objective_perturbation built a MechanismConfig")

        monkeypatch.setattr(erm, "sample_noise_rows", recording)
        monkeypatch.setattr(erm, "MechanismConfig", refused)
        objective_perturbation(config, X, y, RngStream(79, 1).generator())
        assert len(drawn) == 1 and drawn[0] is config.noise


class TestMinimizeErm:
    def test_unperturbed_matches_independent_mle(self):
        rng = RngStream(63, 0).generator()
        X, y = make_data(3000, 7, rng)
        spec = logistic_loss_spec(7)
        ours = minimize_erm(spec, X, y)

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
            _, grad, _ = spec.loss_and_grad(theta, X, y)
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
            start = evaluate(spec, X, y, starts.standard_normal(5) * 4)
            sols.append(minimize_erm(spec, start.X, start.y, gamma=2.0, linear=v,
                                     start=start))
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

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        rng = RngStream(66, 0).generator()
        X, y = make_data(500, 3, rng, beta=np.array([1.0, -1.0, 0.5]))
        spec = logistic_loss_spec(3)
        monkeypatch.setattr(erm, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(OptimizerError, match="gradient norm"):
            minimize_erm(spec, X, y)


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


class TestObjectivePerturbationRows:
    """objective_perturbation_rows draws every run's V in one stack and fits
    each row from one start: row i and generator i end as the one-pair call
    leaves them, and a refused call draws nothing."""

    #: (eps, p) of the runs: l1, l2 and linf at several budgets, a ball twice
    RUNS = [(1 / 16, 1.0), (0.5, 2.0), (2.0, INF), (1.0, 1.0), (1 / 4, INF), (4.0, 2.0)]

    @staticmethod
    def runs(seed, q=0.4):
        specs = {p: logistic_loss_spec(7, p) for p in (1.0, 2.0, INF)}
        return [(ObjPertConfig(eps, q, specs[p]), RngStream(seed, 1 + i).generator())
                for i, (eps, p) in enumerate(TestObjectivePerturbationRows.RUNS)]

    @pytest.mark.parametrize("shared", [False, True])
    def test_rows_and_generators_are_the_one_pair_calls(self, shared):
        X, y = TestSharedStart.replicate(90)
        start = evaluate(logistic_loss_spec(7), X, y) if shared else None
        data = (start.X, start.y) if shared else (X, y)
        runs, alone = self.runs(90), self.runs(90)
        rows = objective_perturbation_rows(runs, *data, start=start)
        assert rows.shape == (len(runs), 7)
        for row, (_, rng), (config, rng_alone) in zip(rows, runs, alone):
            theta = objective_perturbation(config, *data, rng_alone, start=start)
            assert np.array_equal(row, theta)
            assert rng.bit_generator.state == rng_alone.bit_generator.state

    def test_draws_once_and_builds_no_mechanism(self, monkeypatch):
        X, y = TestSharedStart.replicate(91)
        runs = self.runs(91)
        calls = []

        def recording(draws):
            calls.append([cfg for cfg, _ in draws])
            return sample_noise_rows(draws)

        def refused(*args, **kwargs):
            raise AssertionError("objective_perturbation_rows built a MechanismConfig")

        monkeypatch.setattr(erm, "sample_noise_rows", recording)
        monkeypatch.setattr(erm, "MechanismConfig", refused)
        objective_perturbation_rows(runs, X, y)
        assert len(calls) == 1
        assert all(cfg is config.noise for cfg, (config, _) in zip(calls[0], runs))

    @pytest.mark.parametrize("refusal", ["foreign start", "nonzero start", "out of range",
                                         "repeated generator", "no runs"])
    def test_refused_call_leaves_every_generator(self, refusal):
        X, y = TestSharedStart.replicate(92)
        spec = logistic_loss_spec(7)
        start, at = evaluate(spec, X, y), evaluate(spec, X, y, np.full(7, 0.1))
        bad = X.copy()
        bad[5, 3] = 1.5
        runs = self.runs(92)
        args, message = {
            "foreign start": ((runs, X, y, start), "start"),
            "nonzero start": ((runs, at.X, at.y, at), "theta = 0"),
            "out of range": ((runs, bad, y), "[-1, 1]"),
            "repeated generator": ((runs + [(runs[0][0], runs[2][1])], start.X, start.y, start),
                                   "own generator"),
            "no runs": (([], start.X, start.y, start), "at least one run"),
        }[refusal]
        states = [rng.bit_generator.state for _, rng in runs]
        with pytest.raises(ValueError, match=re.escape(message)):
            objective_perturbation_rows(*args)
        assert [rng.bit_generator.state for _, rng in runs] == states

    def test_loss_of_another_dimension_refused_before_any_draw(self):
        X, y = TestSharedStart.replicate(93)
        start = evaluate(logistic_loss_spec(7), X, y)
        rng = RngStream(93, 1).generator()
        state = rng.bit_generator.state
        config = ObjPertConfig(1.0, 0.5, logistic_loss_spec(3))
        with pytest.raises(ValueError, match="start"):
            objective_perturbation_rows([(config, rng)], start.X, start.y, start=start)
        assert rng.bit_generator.state == state


class TestBudgetOverflow:
    """ObjPertConfig refuses a budget whose V can have a squared norm past
    the float range: m*B^2 must be finite for the coordinate bound
    B = (m + 1)*745*linf_radius*Delta/(eps*q), before any draw."""

    @staticmethod
    def edge(p, q):
        # (least accepted eps, the float below it) at split q: eps*q within
        # 1e-11 of sqrt(m)*(m + 1)*745*Delta/sqrt(max float), the formula's edge
        spec = logistic_loss_spec(7, p)

        def accepted(eps):
            try:
                ObjPertConfig(eps, q, spec)
            except BudgetError:
                return False
            return True

        formula = math.sqrt(7) * 8 * 745.0 * spec.grad_delta / math.sqrt(sys.float_info.max) / q
        inside = formula * (1 - 1e-12)
        assert not accepted(inside)
        while not accepted(inside):
            inside = math.nextafter(inside, INF)
        assert math.isclose(inside, formula, rel_tol=1e-11)
        return inside, math.nextafter(inside, 0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_budget_just_inside_runs_without_warning(self, p):
        inside, outside = self.edge(p, 0.5)
        ObjPertConfig(inside, 0.5, logistic_loss_spec(7, p))
        with pytest.raises(BudgetError, match="squared norm can overflow"):
            ObjPertConfig(outside, 0.5, logistic_loss_spec(7, p))
        # a fit at the inside edge converges or raises OptimizerError, with no
        # numpy warning (an error under this suite's filterwarnings)
        mech = {1.0: "l1", 2.0: "l2", INF: "linf"}[p]
        for n in (2, 50):
            config = SimulationConfig(eps=(inside,), mechanisms=(mech,), reps=1, seed=0)
            try:
                simulate_logistic(config, n=n, q=0.5)
            except OptimizerError:
                pass

    @pytest.mark.parametrize("eps, q", [(1e-155, 0.5), (1e-300, 0.5), (1.0, 1e-300)])
    def test_budget_outside_refused_before_any_draw(self, eps, q):
        rng = RngStream(94, 1).generator()
        state = rng.bit_generator.state
        X, y = make_data(50, 7, RngStream(94, 0).generator())
        with pytest.raises(BudgetError, match="squared norm can overflow") as exc:
            objective_perturbation(ObjPertConfig(eps, q, logistic_loss_spec(7, 1.0)), X, y, rng)
        assert str(exc.value).startswith(f"epsilon={eps!r} and q={q!r} give noise")
        assert rng.bit_generator.state == state

    def test_fit_that_overflows_raises_optimizer_error(self):
        # eps = 10 at the least accepted q: V is far from the data, where the
        # logistic curvature is 0, so the Newton step -g*n/gamma leaves the
        # float range; the fit reports it in place of numpy's warning
        spec = logistic_loss_spec(7, 2.0)
        q = 1e-150
        ObjPertConfig(10.0, q, spec)
        X, y = make_data(50, 7, RngStream(95, 0).generator())
        with pytest.raises(OptimizerError, match="left the floating-point range"):
            objective_perturbation(ObjPertConfig(10.0, q, spec), X, y,
                                   RngStream(95, 1).generator())
