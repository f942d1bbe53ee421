import math

import numpy as np
import pytest

from knorm.geometry import (
    ContainmentVerdict,
    NormBall,
    ScaledBall,
    ball_containment,
    gauge,
    k2_ball,
    k2_member,
    k3_ball,
    k3_member,
    lp_norm,
    quadratic_pair_sensitivity,
    volume_lp,
    volume_monte_carlo,
)

INF = math.inf


def l2_oracle(radius=1.0, m=2):
    return NormBall.from_oracle(
        lambda pts: lp_norm(pts, 2) <= radius, linf_bound=radius, dimension=m,
        name="l2-oracle",
    )


def linf_oracle(radius=1.0, m=2):
    return NormBall.from_oracle(
        lambda pts: np.abs(pts).max(axis=1) <= radius, linf_bound=radius,
        dimension=m, name="linf-oracle",
    )


class TestLpNorm:
    def test_examples(self):
        assert lp_norm([3, 4], 1) == 7
        assert lp_norm([3, 4], 2) == 5
        assert lp_norm([3, -4], INF) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lp_norm([], 2)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            lp_norm([1.0], 0.5)

    def test_rowwise(self):
        out = lp_norm(np.array([[3.0, 4.0], [1.0, 1.0]]), 2)
        assert np.allclose(out, [5.0, math.sqrt(2)])

    def test_general_p_no_overflow(self):
        x = np.full(3, 1e200)
        assert np.isfinite(lp_norm(x, 7))


class TestGauge:
    def test_k2_origin(self):
        assert gauge(k2_ball(), [0.0, 0.0]) == 0.0

    def test_k2_vertex(self):
        # (1, 2) sits on the boundary: scaling by 1 +/- 1e-6 flips membership
        assert k2_member(np.array([1.0, 2.0]) * (1 - 1e-6))
        assert not k2_member(np.array([1.0, 2.0]) * (1 + 1e-6))
        assert abs(gauge(k2_ball(), [1.0, 2.0]) - 1.0) < 1e-8

    def test_k2_half_vertex(self):
        assert abs(gauge(k2_ball(), [0.5, 1.0]) - 0.5) < 1e-8

    def test_lp_gauge_is_scaled_norm(self):
        ball = NormBall.lp(2, 2.5, 3)
        assert math.isclose(ball.gauge([3.0, 0.0, 4.0]), 2.0)

    def test_oracle_matches_analytic(self):
        ball = l2_oracle(radius=1.5, m=3)
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3))
        exact = lp_norm(pts, 2) / 1.5
        assert np.abs(ball.gauge_many(pts) - exact).max() < 1e-8

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gauge(k2_ball(), [np.nan, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gauge(k2_ball(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "ball",
    [
        NormBall.lp(1, 1.0, 2),
        NormBall.lp(2, 0.7, 3),
        NormBall.lp(INF, 2.0, 2),
        k2_ball(),
        k3_ball(),
        l2_oracle(1.0, 2),
    ],
    ids=lambda b: b.label(),
)
class TestGaugeProperties:
    def test_homogeneity(self, ball):
        rng = np.random.default_rng(11)
        m = ball.dimension
        for _ in range(1000):
            x = rng.uniform(-3, 3, m)
            c = rng.uniform(0, 5)
            gx = ball.gauge(x)
            gcx = ball.gauge(c * x)
            assert abs(gcx - c * gx) <= 1e-8 * (1 + c * gx)

    def test_symmetry(self, ball):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-3, 3, (200, ball.dimension))
        assert np.abs(ball.gauge_many(pts) - ball.gauge_many(-pts)).max() < 1e-10

    def test_triangle_inequality(self, ball):
        rng = np.random.default_rng(13)
        m = ball.dimension
        x = rng.uniform(-3, 3, (300, m))
        y = rng.uniform(-3, 3, (300, m))
        gx = ball.gauge_many(x)
        gy = ball.gauge_many(y)
        gxy = ball.gauge_many(x + y)
        assert (gxy <= gx + gy + 1e-8).all()

    def test_star_shaped(self, ball):
        # members scaled toward the origin stay members
        rng = np.random.default_rng(14)
        b = ball.linf_radius
        pts = rng.uniform(-b, b, (500, ball.dimension))
        inside = pts[ball.member_many(pts)]
        for c in (0.25, 0.5, 0.9):
            assert ball.member_many(c * inside).all()


class TestK2K3:
    def test_k2_examples(self):
        assert k2_member((1.0, 2.0))
        assert not k2_member((2.0, 0.1))
        assert k2_member((0.0, 0.0))

    def test_k3_examples(self):
        assert k3_member((2.0, 2.0, 0.0))
        assert not k3_member((2.0, 2.0, 1.0))
        assert k3_member((0.0, 0.0, 0.0))

    def test_quadratic_difference_set_inside_k2(self):
        # differences of (sum x, 2 sum x^2) under a one-row change
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-1, 1, 5000)
        x2 = rng.uniform(-1, 1, 5000)
        u = np.column_stack([x1 - x2, 2 * x1**2 - 2 * x2**2])
        assert k2_ball().member_many(u).all()

    def test_cross_difference_set_inside_k3(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (5000, 2))
        b = rng.uniform(-1, 1, (5000, 2))
        u = np.column_stack(
            [a[:, 0] - b[:, 0], a[:, 1] - b[:, 1],
             a[:, 0] * a[:, 1] - b[:, 0] * b[:, 1]]
        )
        assert k3_ball().member_many(u).all()


class TestVolumeLp:
    def test_examples(self):
        assert math.isclose(volume_lp(2, 2, 1), math.pi, rel_tol=1e-12)
        assert volume_lp(INF, 2, 2) == 16
        assert volume_lp(1, 2, 3.125) == 19.53125

    def test_sphere_volumes(self):
        for m in range(1, 11):
            expected = math.pi ** (m / 2) / math.gamma(1 + m / 2)
            assert math.isclose(volume_lp(2, m, 1), expected, rel_tol=1e-10)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            volume_lp(2, 0, 1)
        with pytest.raises(ValueError):
            volume_lp(2, 2, 0)


class TestVolumeMonteCarlo:
    def test_k2_hull_volume(self):
        est, se = volume_monte_carlo(k2_ball(), 1.0, 1_000_000, seed=7)
        assert abs(est - 40.0 / 3.0) <= 3 * se

    def test_linf_oracle_square(self):
        est, se = volume_monte_carlo(linf_oracle(1.0, 2), 2.0, 100_000, seed=8)
        assert abs(est - 16.0) <= 3 * se + 1e-9

    def test_l2_oracle_disk(self):
        est, se = volume_monte_carlo(l2_oracle(1.0, 2), 1.0, 100_000, seed=9)
        assert abs(est - math.pi) <= 3 * se

    @pytest.mark.parametrize("p", [1, 2, INF])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_analytic(self, p, m):
        ball = NormBall.lp(p, 1.3, m)
        est, se = volume_monte_carlo(ball, 1.0, 200_000, seed=int(p if p != INF else 99) + m)
        assert abs(est - volume_lp(p, m, 1.3)) <= 4 * se + 1e-9

    def test_scaling_invariant(self):
        # volume(delta*K) = delta^m * volume(K)
        est1, se1 = volume_monte_carlo(k2_ball(), 1.0, 200_000, seed=3)
        est2, se2 = volume_monte_carlo(k2_ball(), 2.0, 200_000, seed=4)
        assert abs(est2 - 4 * est1) <= 4 * math.hypot(4 * se1, se2)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            volume_monte_carlo(k2_ball(), 1.0, 10, seed=0)


class TestContainment:
    def test_approx_radii_contained(self):
        a = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        b = ScaledBall(NormBall.lp(2, 1, 2), math.sqrt(8))
        assert ball_containment(a, b).status == "contained"
        c = ScaledBall(NormBall.lp(1, 1, 2), 4.0)
        assert ball_containment(b, c).status == "contained"

    def test_exact_radii_incomparable_with_witness(self):
        a = ScaledBall(NormBall.lp(1, 1, 2), 3.125)
        b = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        verdict = ball_containment(a, b)
        assert verdict.status == "not_contained"
        assert np.allclose(verdict.witness, [3.125, 0.0])
        assert ball_containment(b, a).status == "not_contained"

    def test_reflexive(self):
        for ball in (ScaledBall(NormBall.lp(2, 1, 3), 1.7), ScaledBall(k2_ball(), 2.0)):
            assert ball_containment(ball, ball).status == "contained"

    def test_anonymous_oracles_not_conflated(self):
        # identical metadata but different bodies: no same-body shortcut
        small = NormBall.from_oracle(
            lambda pts: lp_norm(pts, 2) <= 1.0, linf_bound=2.0, dimension=2
        )
        big = NormBall.from_oracle(
            lambda pts: lp_norm(pts, 2) <= 2.0, linf_bound=2.0, dimension=2
        )
        verdict = ball_containment(ScaledBall(big, 1.0), ScaledBall(small, 1.0), seed=0)
        assert verdict.status == "not_contained"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ball_containment(
                ScaledBall(NormBall.lp(1, 1, 2), 1.0),
                ScaledBall(NormBall.lp(1, 1, 3), 1.0),
            )

    def test_oracle_vs_lp_witness(self):
        # the box corner sticks out of the parabola-capped hull
        a = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        b = ScaledBall(k2_ball(), 1.0)
        verdict = ball_containment(a, b)
        assert verdict.status == "not_contained"
        assert not k2_member(verdict.witness)

    def test_sampled_check_undetermined(self):
        # hull inside the linf box: sampling finds no witness, stays undetermined
        a = ScaledBall(k2_ball(), 1.0)
        b = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        assert ball_containment(a, b, seed=1).status == "undetermined"

    def test_transitivity_spot_check(self):
        # analytically contained chain; the sampled check on (A, C) never
        # returns a witness
        a = ScaledBall(linf_oracle(1.0, 2), 2.0)
        c = ScaledBall(NormBall.lp(1, 1, 2), 4.0)
        b = ScaledBall(NormBall.lp(2, 1, 2), math.sqrt(8))
        assert ball_containment(
            ScaledBall(NormBall.lp(INF, 1, 2), 2.0), b
        ).status == "contained"
        assert ball_containment(b, c).status == "contained"
        for seed in range(5):
            assert ball_containment(a, c, seed=seed).status != "not_contained"

    def test_supplied_vertices_exact(self):
        square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        a = ScaledBall(linf_oracle(1.0, 2), 2.0)
        b = ScaledBall(NormBall.lp(2, 1, 2), math.sqrt(8))
        assert ball_containment(a, b, vertices=square).status == "contained"
        tight = ScaledBall(NormBall.lp(2, 1, 2), 2.0)
        assert ball_containment(a, tight, vertices=square).status == "not_contained"


class TestQuadraticPairSensitivity:
    def test_paper_values(self):
        assert abs(quadratic_pair_sensitivity(1) - 3.125) < 1e-8
        expected = 0.25 * math.sqrt(71 + 8 * math.sqrt(2))
        assert abs(quadratic_pair_sensitivity(2) - expected) < 1e-8
        assert abs(quadratic_pair_sensitivity(INF) - 2.0) < 1e-8

    def test_bad_p(self):
        with pytest.raises(ValueError):
            quadratic_pair_sensitivity(0.3)


class TestHullOptimality:
    def test_hull_volume_smallest(self):
        est, se = volume_monte_carlo(k2_ball(), 1.0, 400_000, seed=21)
        for vol in (19.53125, volume_lp(2, 2, quadratic_pair_sensitivity(2)), 16.0):
            assert est + 4 * se < vol

    def test_hull_boundary_inside_each_lp_ball(self):
        rng = np.random.default_rng(22)
        dirs = rng.standard_normal((400, 2))
        ball = k2_ball()
        g = ball.gauge_many(dirs)
        boundary = dirs / g[:, None]
        deltas = {
            1: quadratic_pair_sensitivity(1),
            2: quadratic_pair_sensitivity(2),
            INF: quadratic_pair_sensitivity(INF),
        }
        for p, delta in deltas.items():
            assert (lp_norm(boundary, p) <= delta * (1 + 1e-9)).all()
