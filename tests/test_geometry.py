import math
import warnings

import numpy as np
import pytest

from knorm.geometry import (
    _k2_gauge,
    _k3_gauge,
    ContainmentVerdict,
    NormBall,
    ScaledBall,
    ball_containment,
    k2_ball,
    k2_member,
    k3_ball,
    k3_member,
    lp_norm,
    quadratic_pair_sensitivity,
    volume_lp,
    volume_monte_carlo,
)
from knorm.linreg import kT_member, kt_ball
from knorm.sampling import RngStream, SamplerError, sample_uniform_ball

INF = math.inf


def l2_oracle(radius=1.0, m=2):
    return NormBall.from_oracle(
        lambda pts: lp_norm(pts, 2) <= radius, lambda pts: lp_norm(pts, 2) / radius,
        linf_bound=radius, dimension=m, name="l2-oracle",
    )


def linf_oracle(radius=1.0, m=2):
    return NormBall.from_oracle(
        lambda pts: np.abs(pts).max(axis=1) <= radius,
        lambda pts: lp_norm(pts, INF) / radius,
        linf_bound=radius, dimension=m, name="linf-oracle",
    )


def bisection_gauge_reference(ball, points, rel_tol=1e-10):
    """The gauge found from membership alone: bracket the boundary along
    the ray through each point, then bisect. The generic oracle gauge
    before the hull gauges were written in closed form."""
    n, m = points.shape
    out = np.zeros(n)
    amax = np.abs(points).max(axis=1)
    live = amax > 0
    if not live.any():
        return out
    unit = points[live] / amax[live, None]
    hi = np.full(unit.shape[0], 2.0 * ball.linf_bound * math.sqrt(m))
    for _ in range(80):
        outside = ~ball.member_many(unit / hi[:, None])
        if not outside.any():
            break
        hi[outside] *= 2.0
    else:
        raise ValueError("could not bracket the boundary")
    lo = np.zeros_like(hi)
    while np.any(hi - lo > rel_tol * hi):
        mid = 0.5 * (lo + hi)
        inside = ball.member_many(unit / mid[:, None])
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    out[live] = 0.5 * (lo + hi) * amax[live]
    return out


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
        assert k2_ball().gauge([0.0, 0.0]) == 0.0

    def test_k2_vertex(self):
        # (1, 2) sits on the boundary: scaling by 1 +/- 1e-6 flips membership
        assert k2_member(np.array([1.0, 2.0]) * (1 - 1e-6))
        assert not k2_member(np.array([1.0, 2.0]) * (1 + 1e-6))
        assert k2_ball().gauge([1.0, 2.0]) == 1.0

    def test_k2_half_vertex(self):
        assert k2_ball().gauge([0.5, 1.0]) == 0.5

    def test_lp_gauge_is_scaled_norm(self):
        ball = NormBall.lp(2, 2.5, 3)
        assert math.isclose(ball.gauge([3.0, 0.0, 4.0]), 2.0)

    def test_oracle_gauge_is_its_own(self):
        # the gauge never falls back on the membership predicate
        def no_member(pts):
            raise AssertionError("membership called for a gauge")

        ball = NormBall.from_oracle(
            no_member, lambda pts: lp_norm(pts, 2) / 1.5, linf_bound=1.5, dimension=3
        )
        pts = np.random.default_rng(0).standard_normal((50, 3))
        assert np.array_equal(ball.gauge_many(pts), lp_norm(pts, 2) / 1.5)

    def test_oracle_requires_gauge(self):
        def member(pts):
            return lp_norm(pts, 2) <= 1.0

        with pytest.raises(ValueError, match="gauge"):
            NormBall.from_oracle(member, None, linf_bound=1.0, dimension=2)
        with pytest.raises(ValueError, match="gauge"):
            NormBall(dimension=2, member=member, linf_bound=1.0)
        with pytest.raises(TypeError):
            NormBall.from_oracle(member, linf_bound=1.0, dimension=2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            k2_ball().gauge([np.nan, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            k2_ball().gauge([1.0, 2.0, 3.0])


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


HULLS = {
    "k2": k2_ball,
    "k3": k3_ball,
    **{f"kt{p}": (lambda p=p: kt_ball(p)) for p in (1, 2, 3, 5, 12)},
}


def hull_directions(m, n=2000, seed=0):
    # n random directions, n more with a third of their coordinates zeroed
    # so the axes and the s = 0 and q = 0 faces of the pieces are hit, and
    # the origin last
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((2 * n, m))
    dirs[n:] *= rng.random((n, m)) < 2.0 / 3.0
    return np.vstack([dirs, np.zeros((1, m))])


@pytest.mark.parametrize("name", list(HULLS))
class TestHullGauges:
    def test_matches_bisection_reference(self, name):
        ball = HULLS[name]()
        dirs = hull_directions(ball.dimension)
        g = ball.gauge_many(dirs)
        ref = bisection_gauge_reference(ball, dirs)
        assert g[-1] == 0.0
        assert np.all(np.abs(g - ref) <= 1e-9 * ref)

    def test_homogeneous_and_finite_at_extreme_scales(self, name):
        ball = HULLS[name]()
        dirs = hull_directions(ball.dimension, seed=1)
        g = ball.gauge_many(dirs)
        for scale in (1e-300, 1e300):
            gs = ball.gauge_many(scale * dirs)
            assert np.isfinite(gs).all()
            assert np.all(np.abs(gs - scale * g) <= 1e-12 * scale * g)

    def test_unit_sublevel_set_is_the_body(self, name):
        # gauge <= 1 and the predicate agree away from the boundary
        ball = HULLS[name]()
        rng = np.random.default_rng(2)
        dirs = hull_directions(ball.dimension, seed=2)
        dirs = dirs[np.abs(dirs).max(axis=1) > 0]
        pts = dirs / ball.gauge_many(dirs)[:, None] * rng.uniform(0.5, 1.5, (len(dirs), 1))
        g = ball.gauge_many(pts)
        clear = np.abs(g - 1.0) > 1e-9
        assert np.array_equal((g <= 1.0)[clear], ball.member_many(pts)[clear])
        assert 0.3 < clear.mean() and (g[clear] <= 1.0).mean() > 0.3


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

    def test_huge_sums_rejected_without_overflow(self):
        # the k2 cap is never squared for a sum its s <= 2 test already rejects
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not k2_member((1e300, 0.0))
            assert not kT_member(np.full(4, 1e200), 1)
            # nor are two huge sums added for a k3 piece
            assert not k3_member((1e308, 1e308, 0.0))
            assert not kT_member(np.full(4, 1e308), 1)


@pytest.mark.parametrize("ball, row", [
    (NormBall.lp(2, 1.0, 2), [0.1, 0.1, 0.1]),
    (NormBall.lp(INF, 1.0, 3), [0.1, 0.1]),
    (k2_ball(), [0.5, 0.5, 99.0]),
    (k3_ball(), [0.5, 0.5]),
    (kt_ball(1), [0.5, 0.5, 0.5, 0.5, 99.0]),
], ids=["l2", "linf", "k2", "k3", "kt1"])
def test_member_many_checks_width_as_gauge_many_does(ball, row):
    for method in (ball.member_many, ball.gauge_many):
        with pytest.raises(ValueError,
                           match=rf"dimension mismatch \({len(row)} != {ball.dimension}\)"):
            method([row])


class TestHullSampler:
    """The exact conditional sampler and box-fraction estimator that k2 and
    k3 take from their piece tables. Each statistical check allows 4
    binomial (or estimated) standard errors: a false-alarm rate of 6e-5."""

    N = 200_000

    def test_k2_sum_profile_without_accept_draw(self):
        # the k2 profile puts mass 1 of its 5/3 on |u1| <= 1: share 3/5
        u, (accepted, proposals) = sample_uniform_ball(
            k2_ball(), RngStream(340, 0).generator(), size=self.N)
        share = (np.abs(u[:, 0]) <= 1.0).mean()
        assert abs(share - 0.6) <= 4.0 * math.sqrt(0.6 * 0.4 / self.N)
        # no k3 pieces, so every proposal is accepted
        assert accepted == proposals == self.N

    def test_k3_slot_share_and_acceptance(self):
        # per octant, c <= 1 holds on volume 23/6 of 20/3: share 23/40
        u, (accepted, proposals) = sample_uniform_ball(
            k3_ball(), RngStream(341, 0).generator(), size=self.N)
        share = (np.abs(u[:, 2]) <= 1.0).mean()
        assert abs(share - 23 / 40) <= 4.0 * math.sqrt(23 / 40 * 17 / 40 / self.N)
        # uniform sums are accepted with the mean k3 weight, the box fraction 5/6
        rate = accepted / proposals
        assert abs(rate - 5 / 6) <= 4.0 * math.sqrt(5 / 6 / 6 / proposals)

    @pytest.mark.parametrize("make", [k2_ball, k3_ball])
    def test_box_fraction_is_five_sixths(self, make):
        frac, se = make().box_fraction_fn(RngStream(342, 0).generator(), self.N)
        assert abs(frac - 5 / 6) <= 4.0 * se

    @pytest.mark.parametrize("ball", [k2_ball(), k3_ball(), kt_ball(1), kt_ball(5)],
                             ids=["k2", "k3", "kt1", "kt5"])
    def test_every_point_is_a_member(self, ball):
        pts, _ = sample_uniform_ball(ball, RngStream(343, ball.dimension).generator(),
                                     size=5000)
        assert pts.shape == (5000, ball.dimension)
        assert ball.member_many(pts).all()

    @pytest.mark.parametrize("make", [k2_ball, k3_ball])
    def test_budget_exhaustion_raises(self, make):
        with pytest.raises(SamplerError, match="acceptance rate"):
            sample_uniform_ball(make(), RngStream(344, 0).generator(), size=1000,
                                max_attempts=100)


def k2_member_reference(U):
    a1, a2 = np.abs(U[:, 0]), np.abs(U[:, 1])
    cap = 2.0 - 2.0 * (a1 - 1.0) ** 2
    return (a1 <= 2.0) & (a2 <= 2.0) & ((a1 <= 1.0) | (a2 <= cap))


def k3_member_reference(U):
    a = np.abs(U)
    return (a <= 2.0).all(axis=1) & (a.sum(axis=1) <= 4.0)


@pytest.mark.parametrize("make, member_reference, piece_gauge", [
    (k2_ball, k2_member_reference, _k2_gauge),
    (k3_ball, k3_member_reference, _k3_gauge),
])
class TestK2K3PieceTables:
    """k2 and k3 through the shared piece-table functions, bit for bit
    against their single piece written out."""

    def test_membership_matches_piece_reference(self, make, member_reference, piece_gauge):
        # also on a quarter grid, whose points land exactly on piece boundaries
        ball = make()
        rng = np.random.default_rng(30 + ball.dimension)
        for scale in (2.0, 1.6, 1.0, 0.5):
            U = rng.uniform(-scale, scale, (4096, ball.dimension))
            U[:1024] = np.round(4 * U[:1024]) / 4
            got = ball.member_many(U)
            assert np.array_equal(got, member_reference(U))
        assert got.all()

    def test_gauge_is_the_piece_gauge(self, make, member_reference, piece_gauge):
        ball = make()
        dirs = hull_directions(ball.dimension, seed=3)
        dirs[:500] = np.round(4 * dirs[:500]) / 4
        for scale in (1e-300, 0.5, 1.0, 2.0, 1e300):
            U = scale * dirs
            assert np.array_equal(ball.gauge_many(U), piece_gauge(*np.abs(U).T))


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

    @pytest.mark.parametrize("p, m, r", [(INF, 1126, 1.0), (1, 600, 1200.0), (45, 1126, 2.0)])
    def test_overflow_reads_inf(self, p, m, r):
        assert volume_lp(p, m, r) == math.inf

    def test_underflow_reads_zero(self):
        assert volume_lp(1, 250, 1.0) == 0.0
        assert volume_lp(INF, 1126, 0.25) == 0.0


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


class TestExactVolumes:
    @pytest.mark.parametrize("make, exact, seed", [(k2_ball, 40.0 / 3.0, 31),
                                                   (k3_ball, 160.0 / 3.0, 32)])
    def test_hull_volume_matches_monte_carlo(self, make, exact, seed):
        ball = make()
        assert ball.volume == exact
        assert ball.log_volume() == math.log(exact)
        est, se = volume_monte_carlo(ball, 1.0, 2_000_000, seed=seed)
        assert abs(est - exact) <= 4 * se

    def test_kt_volume_unknown(self):
        assert kt_ball(3).volume is None
        assert kt_ball(3).log_volume() is None

    @pytest.mark.parametrize("p", [1, 1.5, 2, 7, INF])
    @pytest.mark.parametrize("m, r", [(1, 1.0), (3, 2.0), (6, 0.4)])
    def test_lp_log_volume_is_log_of_closed_form(self, p, m, r):
        log_v = NormBall.lp(p, r, m).log_volume()
        assert math.isclose(log_v, math.log(volume_lp(p, m, r)), rel_tol=1e-12, abs_tol=1e-12)

    def test_lp_log_volume_at_regression_dimensions(self):
        # the l-inf volume overflows a float from m = 1024 and reads inf; its log does not
        assert volume_lp(INF, 1126) == math.inf
        assert NormBall.lp(INF, 1.0, 1126).log_volume() == 1126 * math.log(2.0)
        # the p = 16 regression statistic has d = 154, sanitized in lp balls up to p = 45
        assert math.isfinite(NormBall.lp(45, 1.0, 1126).log_volume())
        log_v = NormBall.lp(1, 308.0, 154).log_volume()
        assert math.isclose(log_v, 154 * math.log(616.0) - math.lgamma(155.0), rel_tol=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, INF, math.nan])
    def test_oracle_volume_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="volume"):
            NormBall.from_oracle(lambda pts: lp_norm(pts, 2) <= 1.0,
                                 lambda pts: lp_norm(pts, 2), linf_bound=1.0,
                                 dimension=2, volume=bad)


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
            lambda pts: lp_norm(pts, 2) <= 1.0, lambda pts: lp_norm(pts, 2),
            linf_bound=2.0, dimension=2,
        )
        big = NormBall.from_oracle(
            lambda pts: lp_norm(pts, 2) <= 2.0, lambda pts: lp_norm(pts, 2) / 2.0,
            linf_bound=2.0, dimension=2,
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
        # the paper's example: the hull lies in its own linf bounding box
        a = ScaledBall(k2_ball(), 1.0)
        b = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        assert ball_containment(a, b, seed=1).status == "contained"
        assert ball_containment(a, ScaledBall(b.ball, 1.9)).status == "not_contained"
        # hull inside the l2 ball through the box corners: sampling finds
        # no witness, so the verdict stays undetermined
        l2 = ScaledBall(NormBall.lp(2, 1, 2), math.sqrt(8))
        assert ball_containment(a, l2, seed=1).status == "undetermined"

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
