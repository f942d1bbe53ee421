import ast
import copy
import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from knorm import sampling
from knorm.geometry import (
    _hull_chunk,
    _reduce_rows,
    _hull_uniform,
    _k2_gauge,
    _k2_sum_quantile,
    _k2_weight,
    _k3_gauge,
    ContainmentVerdict,
    NormBall,
    ScaledBall,
    ball_containment,
    k2_ball,
    k3_ball,
    lp_norm,
    quadratic_pair_sensitivity,
    volume_lp,
    volume_monte_carlo,
)
from knorm.linreg import ball_from_name, kt_ball
from knorm.sampling import (
    MechanismConfig,
    RngStream,
    SamplerError,
    sample_noise,
)
from reference import gamma_radius, hit_or_miss, kt_box_fraction, uniform_points

INF = math.inf


def bisection_gauge_reference(ball, points, rel_tol=1e-10):
    """The gauge found from membership alone: bracket the boundary along
    the ray through each point, then bisect."""
    n, m = points.shape
    out = np.zeros(n)
    amax = np.abs(points).max(axis=1)
    live = amax > 0
    if not live.any():
        return out
    unit = points[live] / amax[live, None]
    hi = np.full(unit.shape[0], 2.0 * ball.linf_radius * math.sqrt(m))
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

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, INF])
    def test_empty_batch(self, p):
        # no rows of a nonzero width give no norms; zero width stays an error
        assert lp_norm(np.zeros((0, 3)), p).shape == (0,)
        with pytest.raises(ValueError, match="empty"):
            lp_norm(np.zeros((3, 0)), p)

    def test_rowwise(self):
        out = lp_norm(np.array([[3.0, 4.0], [1.0, 1.0]]), 2)
        assert np.allclose(out, [5.0, math.sqrt(2)])

    def test_general_p_no_overflow(self):
        x = np.full(3, 1e200)
        assert np.isfinite(lp_norm(x, 7))


def row_reduce_inputs(rows, width, seed):
    """A (rows, width) array of wide-range normals with about a third of its
    entries replaced by nan, +-inf, +-0.0 and subnormals."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    special = np.array([np.nan, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-315])
    pick = rng.random((rows, width)) < 0.3
    a[pick] = rng.choice(special, pick.sum())
    # some rows of signed zeros only, whose sum's sign the start value sets
    a[::7] = rng.choice(np.array([0.0, -0.0]), a[::7].shape)
    return a


class TestReduceRows:
    """_reduce_rows is ufunc.reduce over the last axis, byte for byte, on
    both sides of its 64-row and 8-entry bounds."""

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("width", range(13))
    def test_matches_row_reduce(self, ufunc, width):
        for rows in (1, 63, 64, 10_000):
            a = row_reduce_inputs(rows, width, seed=width)
            with np.errstate(invalid="ignore", over="ignore"):
                for initial in (None, 0.0):
                    kwargs = {} if initial is None else {"initial": initial}
                    try:
                        want = ufunc.reduce(a, axis=-1, **kwargs)
                    except ValueError:
                        # maximum of an empty row without initial
                        with pytest.raises(ValueError):
                            _reduce_rows(ufunc, a, initial)
                        continue
                    assert same_bytes(_reduce_rows(ufunc, a, initial), want)

    def test_empty_piece_group_reads_initial(self):
        # a table without k3 pieces has a (n, 0) group of k3 gauges
        assert same_bytes(_reduce_rows(np.maximum, np.empty((10_000, 0)), 0.0),
                          np.zeros(10_000))

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_lp_norm_matches_numpy_rows(self, p):
        a = np.abs(row_reduce_inputs(10_000, 3, seed=1))
        with np.errstate(invalid="ignore", over="ignore"):
            want = {1: a.sum(axis=-1), 2: np.sqrt((a * a).sum(axis=-1)),
                    INF: a.max(axis=-1)}[p]
            assert same_bytes(lp_norm(a, p), want)


class TestGauge:
    def test_k2_origin(self):
        assert k2_ball().gauge([0.0, 0.0]) == 0.0

    def test_k2_vertex(self):
        # (1, 2) sits on the boundary: scaling by 1 +/- 1e-6 flips membership
        inside = k2_ball().member_many(np.outer([1 - 1e-6, 1 + 1e-6], [1.0, 2.0]))
        assert inside.tolist() == [True, False]
        assert k2_ball().gauge([1.0, 2.0]) == 1.0

    def test_k2_half_vertex(self):
        assert k2_ball().gauge([0.5, 1.0]) == 0.5

    def test_lp_gauge_is_scaled_norm(self):
        ball = ScaledBall(NormBall.lp(2, 1, 3), 2.5)
        assert math.isclose(ball.gauge_many([3.0, 0.0, 4.0])[0], 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            k2_ball().gauge([np.nan, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            k2_ball().gauge([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "body",
    [
        ScaledBall(NormBall.lp(1, 1.0, 2), 1.0),
        ScaledBall(NormBall.lp(2, 1, 3), 0.7),
        ScaledBall(NormBall.lp(INF, 1, 2), 2.0),
        ScaledBall(k2_ball(), 1.0),
        ScaledBall(k3_ball(), 1.0),
        ScaledBall(NormBall.lp(2, 1.0, 2), 1.0),
    ],
    # an id's r is the scale: the body of radius r is r times the unit ball
    ids=lambda s: s.ball.label() + ("" if s.scale == 1.0 else f"(r={s.scale:g})"),
)
class TestGaugeProperties:
    def test_homogeneity(self, body):
        rng = np.random.default_rng(11)
        m = body.dimension
        for _ in range(1000):
            x = rng.uniform(-3, 3, m)
            c = rng.uniform(0, 5)
            gx = body.gauge_many(x)[0]
            gcx = body.gauge_many(c * x)[0]
            assert abs(gcx - c * gx) <= 1e-8 * (1 + c * gx)

    def test_symmetry(self, body):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-3, 3, (200, body.dimension))
        assert np.abs(body.gauge_many(pts) - body.gauge_many(-pts)).max() < 1e-10

    def test_triangle_inequality(self, body):
        rng = np.random.default_rng(13)
        m = body.dimension
        x = rng.uniform(-3, 3, (300, m))
        y = rng.uniform(-3, 3, (300, m))
        gx = body.gauge_many(x)
        gy = body.gauge_many(y)
        gxy = body.gauge_many(x + y)
        assert (gxy <= gx + gy + 1e-8).all()

    def test_star_shaped(self, body):
        # members scaled toward the origin stay members; x is in r*K where
        # x/r is in K
        rng = np.random.default_rng(14)
        ball, r = body.ball, body.scale
        b = r * ball.linf_radius
        pts = rng.uniform(-b, b, (500, ball.dimension))
        inside = pts[ball.member_many(pts / r)]
        for c in (0.25, 0.5, 0.9):
            assert ball.member_many(c * inside / r).all()


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
    def test_piece_arrays_are_read_only(self, name):
        # every ball of a kind shares its piece table, so no caller may write to it
        arrays = [v for v in vars(HULLS[name]().pieces).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 5
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

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
        inside = k2_ball().member_many([(1.0, 2.0), (2.0, 0.1), (0.0, 0.0)])
        assert inside.tolist() == [True, False, True]

    def test_k3_examples(self):
        inside = k3_ball().member_many([(2.0, 2.0, 0.0), (2.0, 2.0, 1.0), (0.0, 0.0, 0.0)])
        assert inside.tolist() == [True, False, True]

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
            assert not k2_ball().member_many((1e300, 0.0)).any()
            assert not kt_ball(1).member_many(np.full(4, 1e200)).any()
            # nor are two huge sums added for a k3 piece
            assert not k3_ball().member_many((1e308, 1e308, 0.0)).any()
            assert not kt_ball(1).member_many(np.full(4, 1e308)).any()


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


@pytest.mark.parametrize("ball", [NormBall.lp(2, 1.0, 2), NormBall.lp(INF, 1.0, 2), k2_ball()],
                         ids=["l2", "linf", "k2"])
def test_member_many_reads_one_point_as_one_row(ball):
    # as gauge_many does, for both kinds of ball
    assert ball.member_many([0.1, 0.1]).shape == ball.gauge_many([0.1, 0.1]).shape == (1,)
    assert ball.member_many([[0.1, 0.1], [5.0, 5.0]]).tolist() == [True, False]


class TestBallKinds:
    @pytest.mark.parametrize("dimension", [2.0, np.int64(2), True],
                             ids=["float", "int64", "bool"])
    def test_dimension_is_stored_as_int(self, dimension):
        ball = NormBall.lp(2, 1.0, dimension)
        assert type(ball.dimension) is int and ball.dimension == int(dimension)
        assert ball == NormBall.lp(2, 1.0, int(dimension))
        noise = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(9, 0).generator(),
                             size=3)
        assert noise.shape == (3, int(dimension)) and np.isfinite(noise).all()

    def test_exactly_one_of_p_and_pieces(self):
        pieces = k2_ball().pieces
        with pytest.raises(ValueError, match="exactly one"):
            NormBall(dimension=2, p=2.0, pieces=pieces)
        with pytest.raises(ValueError, match="exactly one"):
            NormBall(dimension=2)

    def test_distinct_lp_balls_get_distinct_labels(self):
        # the label names the ball in BudgetError messages and in
        # MechanismConfig's default label; ":g" read l1 for p = 1.0000001
        ps = [1, 1.0000001, 1.5, 2, 2.0000000000000004, 3, 1e6, 1000001, 1e20, INF]
        balls = [NormBall.lp(p, 1.0, 3) for p in ps]
        labels = [ball.label() for ball in balls]
        assert len(set(balls)) == len(set(labels)) == len(ps)
        assert [labels[i] for i in (0, 2, 3, 5, 9)] == ["l1", "l1.5", "l2", "l3", "linf"]
        # each label reads back as its own ball
        assert [ball_from_name(label, 3) for label in labels] == balls

    def test_hull_equality_is_table_identity(self):
        assert k2_ball() == k2_ball() and kt_ball(3) == kt_ball(3)
        assert len({k2_ball(), k2_ball(), k3_ball(), kt_ball(3), kt_ball(3)}) == 3
        k2 = k2_ball()
        copy = type(k2.pieces)(**vars(k2.pieces))
        assert dataclasses.replace(k2, pieces=copy) != k2
        same = ScaledBall(k2, 1.0)
        assert ball_containment(same, ScaledBall(k2_ball(), 0.5)).status == "not_contained"
        assert ball_containment(same, ScaledBall(k2_ball(), 1.0)).status == "contained"


class TestHullSampler:
    """The exact conditional sampler and box-fraction estimator that k2 and
    k3 take from their piece tables. Each statistical check allows 4
    binomial (or estimated) standard errors: a false-alarm rate of 6e-5."""

    N = 200_000

    def test_k2_sum_profile_without_accept_draw(self):
        # the k2 profile puts mass 1 of its 5/3 on |u1| <= 1: share 3/5
        u, (accepted, proposals) = uniform_points(k2_ball(), RngStream(340, 0).generator(),
                                                  self.N)
        share = (np.abs(u[:, 0]) <= 1.0).mean()
        assert abs(share - 0.6) <= 4.0 * math.sqrt(0.6 * 0.4 / self.N)
        # no k3 pieces, so every proposal is accepted
        assert accepted == proposals == self.N

    def test_k3_slot_share_and_acceptance(self):
        # per octant, c <= 1 holds on volume 23/6 of 20/3: share 23/40
        u, (accepted, proposals) = uniform_points(k3_ball(), RngStream(341, 0).generator(),
                                                  self.N)
        share = (np.abs(u[:, 2]) <= 1.0).mean()
        assert abs(share - 23 / 40) <= 4.0 * math.sqrt(23 / 40 * 17 / 40 / self.N)
        # uniform sums are accepted with the mean k3 weight, the box fraction 5/6
        rate = accepted / proposals
        assert abs(rate - 5 / 6) <= 4.0 * math.sqrt(5 / 6 / 6 / proposals)

    @pytest.mark.parametrize("make", [k2_ball, k3_ball])
    def test_box_fraction_is_five_sixths(self, make):
        frac, se = make().box_fraction(RngStream(342, 0).generator(), self.N)
        assert abs(frac - 5 / 6) <= 4.0 * se

    @pytest.mark.parametrize("ball", [k2_ball(), k3_ball(), kt_ball(1), kt_ball(5)],
                             ids=["k2", "k3", "kt1", "kt5"])
    def test_every_point_is_a_member(self, ball):
        pts, _ = uniform_points(ball, RngStream(343, ball.dimension).generator(), 5000)
        assert pts.shape == (5000, ball.dimension)
        assert ball.member_many(pts).all()

    @pytest.mark.parametrize("make", [k2_ball, k3_ball])
    def test_budget_exhaustion_raises(self, make, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", 100)
        with pytest.raises(SamplerError, match="acceptance rate"):
            sample_noise(MechanismConfig(1.0, 1.0, make()), RngStream(344, 0).generator(),
                         size=1000)

    @pytest.mark.parametrize("name", ["l1", "l2", "linf", "l1.5"])
    def test_lp_ball_has_no_uniform_sampler(self, name):
        # an lp ball's noise is closed or polar form, with no uniform points
        rng = RngStream(345, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample_noise"):
            ball_from_name(name, 3).uniform([rng], 10, 10**6)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", ["k2", "k3", "kt3", "kt12"])
class TestUniformStack:
    """NormBall.uniform returns one stack: the points of every generator in
    turn, each generator's rows and end state those of a call on it alone,
    and one (accepted, proposals) per generator."""

    #: (n, budget) at which the generators of RngStream(9, 0..4) fall short:
    #: all of k2's (it accepts every proposal), some of the others'
    SHORT = {"k2": (200, 100), "k3": (245, 300), "kt3": (185, 300), "kt12": (12, 300)}

    @staticmethod
    def _check(ball, rngs, n, budget):
        alone = copy.deepcopy(rngs)
        points, counts = ball.uniform(rngs, n, budget)
        want = [ball.uniform([rng], n, budget) for rng in alone]
        assert same_bytes(points, np.concatenate([pts for pts, _ in want]))
        assert counts == [c for _, [c] in want]
        for a, b in zip(rngs, alone):
            assert a.bit_generator.state == b.bit_generator.state
        return points, counts

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("n", [1, 7])
    def test_stack_is_the_one_generator_calls(self, name, count, n):
        ball = HULLS[name]()
        rngs = [RngStream(40 + n, i).generator() for i in range(count)]
        points, counts = self._check(ball, rngs, n, 10**6)
        assert points.shape == (count * n, ball.dimension) and len(counts) == count

    def test_short_generators_add_only_their_accepted_rows(self, name):
        ball = HULLS[name]()
        n, budget = self.SHORT[name]
        rngs = [RngStream(9, i).generator() for i in range(5)]
        points, counts = self._check(ball, rngs, n, budget)
        kept = [min(accepted, n) for accepted, _ in counts]
        assert len(points) == sum(kept) and min(kept) < n
        assert (max(kept) == n) == (name != "k2")

    def test_no_generators(self, name):
        ball = HULLS[name]()
        points, counts = ball.uniform([], 3, 10**6)
        assert points.shape == (0, ball.dimension) and counts == []


def full_sum_k3_weights(x, pieces):
    # the k3 weights on full sums x: 2 - (x_j + x_k)/2, capped at 1
    w = x[pieces.pair_j] + x[pieces.pair_k]
    w *= 0.5
    return np.minimum(2.0 - w, 1.0)


def full_sum_member_many(pieces, U):
    # hull membership with the k3 weights of the clipped full sums
    s = np.abs(U[:, pieces.sum_slots]).T
    ok = (s <= 2.0).all(axis=0)
    s = np.minimum(s, 2.0)
    if len(pieces.squares):
        w = _k2_weight(s[:len(pieces.squares)])
        ok &= (np.abs(U[:, pieces.squares]).T <= 2.0 * w).all(axis=0)
    if len(pieces.pair_slots):
        w = full_sum_k3_weights(s, pieces)
        ok &= (np.abs(U[:, pieces.pair_slots]).T <= 2.0 * w).all(axis=0)
    return ok


def full_sum_uniform(pieces, dimension, rng, n, max_attempts):
    # the hull sampler drawing full sums, uniform(0, 2) past the k2 pieces
    n_sq = len(pieces.squares)
    has_k3 = len(pieces.pair_slots) > 0
    sums = np.empty((len(pieces.sum_slots), n))
    got = accepted = proposals = 0
    chunk = 64
    while got < n:
        k = chunk if not accepted else -(-(n - got) * proposals // accepted)
        k = min(max(k, 64), _hull_chunk(pieces), max_attempts - proposals)
        if k <= 0:
            break
        x = np.empty((len(sums), k))
        if n_sq:
            x[:n_sq] = _k2_sum_quantile(rng.random((n_sq, k)))
        x[n_sq:] = rng.uniform(0.0, 2.0, (len(x) - n_sq, k))
        if has_k3:
            x = x[:, rng.random(k) < full_sum_k3_weights(x, pieces).prod(axis=0)]
        proposals += k
        accepted += x.shape[1]
        if not x.shape[1]:
            chunk *= 4
        take = min(x.shape[1], n - got)
        sums[:, got:got + take] = x[:, :take]
        got += take
    sums = sums[:, :got]
    u = rng.uniform(-1.0, 1.0, size=(got, dimension))
    out = np.empty_like(u)
    out[:, pieces.sum_slots] = np.copysign(sums.T, u[:, pieces.sum_slots])
    if n_sq:
        out[:, pieces.squares] = 2.0 * _k2_weight(sums[:n_sq]).T * u[:, pieces.squares]
    if has_k3:
        out[:, pieces.pair_slots] = (
            2.0 * full_sum_k3_weights(sums, pieces).T * u[:, pieces.pair_slots])
    return out, (accepted, proposals)


def full_sum_box_fraction(pieces, rng, n):
    # the box-fraction estimate over full sums drawn by uniform(0, 2)
    n_sq = len(pieces.squares)
    total = total_sq = 0.0
    chunk = _hull_chunk(pieces)
    for start in range(0, n, chunk):
        x = rng.uniform(0.0, 2.0, size=(len(pieces.sum_slots), min(chunk, n - start)))
        w = full_sum_k3_weights(x, pieces).prod(axis=0) if len(pieces.pair_slots) else 1.0
        if n_sq:
            w = w * _k2_weight(x[:n_sq]).prod(axis=0)
        total += w.sum()
        total_sq += np.square(w).sum()
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(HULLS))
class TestHalfSumKernels:
    """The hull kernels read half sums h = x/2, drawn as random() where the
    full sums were uniform(0, 2): every output and every generator state is
    the full-sum reference's, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_box_fraction(self, name, seed):
        ball = HULLS[name]()
        # a partial last chunk, and a run shorter than one chunk
        for n in (3 * _hull_chunk(ball.pieces) + 17, 1000):
            new, old = RngStream(seed, n).generator(), RngStream(seed, n).generator()
            assert same_bytes(ball.box_fraction(new, n),
                              full_sum_box_fraction(ball.pieces, old, n))
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_uniform_points(self, name, seed):
        ball = HULLS[name]()
        for n in (1, 2, 257):
            new, old = RngStream(seed, n).generator(), RngStream(seed, n).generator()
            pts, [counts] = ball.uniform([new], n, 10**6)
            want, want_counts = full_sum_uniform(ball.pieces, ball.dimension, old, n, 10**6)
            assert same_bytes(pts, want) and counts == want_counts
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("count", [1, 2, 7, 70])
    def test_stacked_streams(self, name, count):
        # every stream of a stack gets the points, counts and end state of
        # the full-sum reference on its generator alone, its rows in turn
        ball = HULLS[name]()
        for n in (0, 1, 3):
            new = [RngStream(count, i).generator() for i in range(count)]
            old = [RngStream(count, i).generator() for i in range(count)]
            points, counts = _hull_uniform(ball.pieces, ball.dimension, new, n, 10**6)
            want = [full_sum_uniform(ball.pieces, ball.dimension, b, n, 10**6) for b in old]
            assert same_bytes(points, np.concatenate([pts for pts, _ in want]))
            assert counts == [c for _, c in want]
            for a, b in zip(new, old):
                assert a.bit_generator.state == b.bit_generator.state

    def test_stacked_budget_runs_out(self, name):
        # a stream out of budget adds the points it has, beside full streams
        ball = HULLS[name]()
        new = [RngStream(9, i).generator() for i in range(5)]
        old = [RngStream(9, i).generator() for i in range(5)]
        points, counts = _hull_uniform(ball.pieces, ball.dimension, new, 200, 300)
        want = [full_sum_uniform(ball.pieces, ball.dimension, b, 200, 300) for b in old]
        assert same_bytes(points, np.concatenate([pts for pts, _ in want]))
        assert counts == [c for _, c in want]
        for a, b in zip(new, old):
            assert a.bit_generator.state == b.bit_generator.state

    def test_single_noise_draws(self, name):
        ball = HULLS[name]()
        config = MechanismConfig(0.5, 3.0, ball)
        for seed in range(5):
            got = sample_noise(config, RngStream(seed, 1).generator())
            old = RngStream(seed, 1).generator()
            u, _ = full_sum_uniform(ball.pieces, ball.dimension, old, 1, 10**6)
            r = gamma_radius(ball.dimension + 1, config.rate, old, 1)
            assert same_bytes(got, np.zeros(ball.dimension) + (r[:, None] * u)[0])

    def test_membership_at_edge_sums(self, name):
        # sums at 0, 2, subnormal and past 2, with the other slots on their
        # interval ends, just past them, or random
        ball = HULLS[name]()
        pieces = ball.pieces
        rng = np.random.default_rng(50 + ball.dimension)
        edge = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 2.0,
                         np.nextafter(2.0, 3.0), 3.0, 1e308, INF])
        n = 4000
        U = rng.uniform(-2.0, 2.0, (n, ball.dimension))
        sums = rng.choice(edge, (n, len(pieces.sum_slots)))
        sums[n // 2:] = np.where(rng.random(sums[n // 2:].shape) < 0.5, sums[n // 2:],
                                 rng.uniform(0.0, 2.0, sums[n // 2:].shape))
        U[:, pieces.sum_slots] = sums * rng.choice([-1.0, 1.0], sums.shape)
        s = np.minimum(sums.T, 2.0)
        rows = np.arange(n) % 3
        for slots, w in ((pieces.squares, _k2_weight(s[:len(pieces.squares)])),
                         (pieces.pair_slots, full_sum_k3_weights(s, pieces))):
            if len(slots):
                ends = 2.0 * w.T
                on_end = np.where(rows[:, None] == 0, ends, U[:, slots])
                U[:, slots] = np.where(rows[:, None] == 1, np.nextafter(ends, INF), on_end)
        got = ball.member_many(U)
        assert same_bytes(got, full_sum_member_many(pieces, U))
        assert got.any() and not got.all()


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


@pytest.mark.parametrize("call, match", [
    (lambda: lp_norm([1.0, 2.0], math.nan), "p must be"),
    (lambda: volume_lp(math.nan, 3), "p must be"),
    (lambda: volume_lp(2, 3, math.nan), "r must be"),
    (lambda: volume_lp(2, 2, INF), "r must be positive and finite, got inf"),
    (lambda: volume_lp(2, 2.5), "m must be"),
    (lambda: volume_lp(2, math.nan), "m must be"),
    (lambda: volume_lp(2, INF), "m must be"),
    (lambda: quadratic_pair_sensitivity(math.nan), "p must be"),
    (lambda: volume_monte_carlo(kt_ball(1), scale=math.nan), "scale must be"),
    (lambda: volume_monte_carlo(kt_ball(1), scale=INF), "scale must be"),
    (lambda: volume_monte_carlo(k2_ball(), n_samples=1000.5),
     r"n_samples must be an integer >= 1000, got 1000\.5"),
    (lambda: NormBall.lp(2, INF, 2), "radius 1, got inf: put the scale in delta"),
    (lambda: NormBall.lp(2, 2.0, 3), "radius 1, got 2.0: put the scale in delta"),
    (lambda: NormBall.lp(2, 1.0, 2.5), "dimension must be"),
    (lambda: NormBall.lp(2, 1.0, math.nan), "dimension must be"),
], ids=["lp_norm-p", "volume_lp-p", "volume_lp-r", "volume_lp-inf-r", "volume_lp-fractional-m",
        "volume_lp-nan-m", "volume_lp-inf-m", "quadratic_pair_sensitivity-p",
        "volume_monte_carlo-nan-scale", "volume_monte_carlo-inf-scale",
        "volume_monte_carlo-fractional-n", "NormBall-inf-radius", "NormBall-radius-2",
        "NormBall-fractional-dimension", "NormBall-nan-dimension"])
def test_invalid_parameters_refused(call, match):
    # each check is written so that nan fails it, where a nan compared with
    # < or <= slipped through to a nan or (inf, inf) result; inf and
    # fractions fail the rules that need a finite or a whole value
    with pytest.raises(ValueError, match=match):
        call()


#: a phrase of each input rule's message, and the one function that raises it;
#: "must be >= " also catches a copy of the whole-number rule without its whole half
_RULE_RAISERS = {
    "must be an integer >=": ["geometry._check_integer"],
    "must be >= ": ["geometry._check_p"],
    "must be positive and finite": ["geometry._check_positive"],
    "must be in (0, 1)": ["geometry._check_unit"],
}


def _raises(node, where):
    """(enclosing function name, raise statement) of every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
        elif isinstance(child, ast.Raise):
            yield where, child
        else:
            yield from _raises(child, where)


def test_each_input_rule_is_raised_from_one_function():
    # every module calls geometry's helper for these rules; a copy written
    # back into src/knorm raises the message from a second function
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "knorm")
    raisers = {phrase: [] for phrase in _RULE_RAISERS}
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename)) as fh:
            tree = ast.parse(fh.read())
        for where, node in _raises(tree, "<module>"):
            text = "".join(c.value for c in ast.walk(node)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            for phrase, found in raisers.items():
                if phrase in text:
                    found.append(f"{filename[:-3]}.{where}")
    assert raisers == _RULE_RAISERS


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

    @staticmethod
    def _reference(ball, scale, n, seed):
        # an lp ball's volume is volume_lp's closed form, which the tests
        # check against hit-or-miss over its bounding box
        box = (2.0 * ball.linf_radius * scale) ** ball.dimension
        frac, se = hit_or_miss(ball, np.random.default_rng(seed), n)
        return box * frac, box * se

    def test_lp_linf_square(self):
        est, se = self._reference(NormBall.lp(INF, 1.0, 2), 2.0, 100_000, seed=8)
        assert abs(est - volume_lp(INF, 2, 2.0)) <= 3 * se + 1e-9

    def test_lp_l2_disk(self):
        est, se = self._reference(NormBall.lp(2, 1.0, 2), 1.0, 100_000, seed=9)
        assert abs(est - volume_lp(2, 2)) <= 3 * se

    @pytest.mark.parametrize("p", [1, 2, INF])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_analytic(self, p, m):
        ball = NormBall.lp(p, 1, m)
        est, se = self._reference(ball, 1.3, 200_000, seed=int(p if p != INF else 99) + m)
        assert abs(est - volume_lp(p, m, 1.3)) <= 4 * se + 1e-9

    @pytest.mark.parametrize("name", ["l1", "l2", "linf", "l1.5"])
    def test_lp_ball_refused(self, name):
        # an lp ball's volume is closed form, with no Monte Carlo estimate
        ball = ball_from_name(name, 3)
        with pytest.raises(ValueError, match="volume_lp"):
            volume_monte_carlo(ball, 1.0, 100_000, seed=0)
        with pytest.raises(ValueError, match="volume_lp"):
            ball.box_fraction(np.random.default_rng(0), 1000)

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
        # exact volumes stop at p = 3; kt4 and above keep the estimator
        assert kt_ball(4).volume is None
        assert kt_ball(4).log_volume() is None

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kt_volume_is_the_reference_quadrature(self, p):
        ball = kt_ball(p)
        fraction = ball.volume / 4.0**ball.dimension
        assert math.isclose(kt_box_fraction(p), fraction, rel_tol=1e-14)
        assert ball.log_volume() == math.log(ball.volume)

    def test_kt1_fraction_is_117_160(self):
        assert kt_ball(1).volume == 4.0**4 * 117 / 160 == 187.2
        assert math.isclose(kt_box_fraction(1), 117 / 160, rel_tol=1e-15)

    @pytest.mark.parametrize("p, seed", [(1, 41), (2, 42), (3, 43)])
    def test_kt_volume_matches_hit_or_miss(self, p, seed):
        # the membership predicate on 10^6 box points; a two-sided 4.5-SE
        # bound falsely fails a correct volume with probability 6.8e-6 each
        ball = kt_ball(p)
        frac, se = hit_or_miss(ball, np.random.default_rng(seed), 1_000_000)
        assert abs(frac - ball.volume / 4.0**ball.dimension) <= 4.5 * se

    @pytest.mark.parametrize("p", [1, 1.5, 2, 7, INF])
    @pytest.mark.parametrize("m, r", [(1, 1.0), (3, 2.0), (6, 0.4)])
    def test_lp_log_volume_is_log_of_closed_form(self, p, m, r):
        # the log volume of r*K is K's plus m log r
        log_v = NormBall.lp(p, 1, m).log_volume() + m * math.log(r)
        assert math.isclose(log_v, math.log(volume_lp(p, m, r)), rel_tol=1e-12, abs_tol=1e-12)

    def test_lp_log_volume_at_regression_dimensions(self):
        # the l-inf volume overflows a float from m = 1024 and reads inf; its log does not
        assert volume_lp(INF, 1126) == math.inf
        assert NormBall.lp(INF, 1.0, 1126).log_volume() == 1126 * math.log(2.0)
        # the p = 16 regression statistic has d = 154, sanitized in lp balls up to p = 45
        assert math.isfinite(NormBall.lp(45, 1.0, 1126).log_volume())
        log_v = NormBall.lp(1, 1, 154).log_volume() + 154 * math.log(308.0)
        assert math.isclose(log_v, 154 * math.log(616.0) - math.lgamma(155.0), rel_tol=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, INF, math.nan])
    def test_hull_volume_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="volume"):
            NormBall(dimension=2, pieces=k2_ball().pieces, volume=bad)

    def test_lp_ball_takes_no_volume(self):
        # log_volume reads the closed form, so a stored volume would contradict it
        with pytest.raises(ValueError, match="takes no volume"):
            NormBall(dimension=2, p=2.0, volume=3.0)


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ball_containment(
                ScaledBall(NormBall.lp(1, 1, 2), 1.0),
                ScaledBall(NormBall.lp(1, 1, 3), 1.0),
            )

    def test_lp_box_vs_hull_witness(self):
        # the box corner sticks out of the parabola-capped hull
        a = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        b = ScaledBall(k2_ball(), 1.0)
        verdict = ball_containment(a, b)
        assert verdict.status == "not_contained"
        assert not k2_ball().member_many(verdict.witness).any()

    @pytest.mark.parametrize("hull", [k2_ball, k3_ball])
    def test_lp_polytope_in_hull_decided_by_vertices(self, hull):
        # the l1 ball of radius 2 touches the hull at +-2 e_i, where a sampled
        # check finds no witness; its vertex list makes the verdict exact
        body = hull()
        l1 = NormBall.lp(1, 1, body.dimension)
        assert ball_containment(ScaledBall(l1, 2.0), ScaledBall(body, 1.0)).status == "contained"
        verdict = ball_containment(ScaledBall(l1, 2.1), ScaledBall(body, 1.0))
        assert verdict.status == "not_contained"
        assert np.count_nonzero(verdict.witness) == 1

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
        # a contained chain, decided by the bounding box and analytically;
        # the sampled check on (A, C) never returns a witness
        a = ScaledBall(k2_ball(), 1.0)
        box = ScaledBall(NormBall.lp(INF, 1, 2), 2.0)
        c = ScaledBall(NormBall.lp(1, 1, 2), 4.0)
        b = ScaledBall(NormBall.lp(2, 1, 2), math.sqrt(8))
        assert ball_containment(a, box).status == "contained"
        assert ball_containment(box, b).status == "contained"
        assert ball_containment(b, c).status == "contained"
        for seed in range(5):
            assert ball_containment(a, c, seed=seed).status != "not_contained"


def all_vertices(ball):
    """Every vertex of a polytope lp ball: the 2^m corners of a box, row i
    +1 in slot j where bit j of i is set and -1 elsewhere, or the 2m vertices
    +-e_i of an l1 ball."""
    m = ball.dimension
    if ball.p == INF:
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        return np.where(bits, 1.0, -1.0)
    eye = np.eye(m)
    return np.vstack([eye, -eye])


def brute_force_containment(a, b):
    """(status, witness) of scale_a*K_a in scale_b*K_b from every vertex of
    the polytope a: the first vertex of largest gauge is the witness."""
    pts = a.scale * all_vertices(a.ball)
    g = b.gauge_many(pts)
    if (g > 1.0 + 1e-9).any():
        return "not_contained", pts[np.argmax(g)]
    return "contained", None


#: the hull bodies of at most 13 slots, whose 2^m box corners can be listed
SMALL_HULLS = ["k2", "k3", "kt1", "kt2", "kt3"]
ALL_BALL_NAMES = ["l1", "l2", "linf", "l1.5", "k2", "k3", "kt1", "kt2", "kt3", "kt4"]


class TestVertexRule:
    """ball_containment decides a polytope lp ball a from one vertex per
    sign class (the box corner (-1, ..., -1), the l1 vertices e_i). That
    stands for every vertex only because every gauge reads |x| alone, which
    test_gauge_is_sign_symmetric checks ball by ball."""

    @pytest.mark.parametrize("name", SMALL_HULLS)
    @pytest.mark.parametrize("p", [1, INF])
    def test_matches_every_vertex(self, name, p):
        body = ball_from_name(name, 0)
        poly = NormBall.lp(p, 1.0, body.dimension)
        for scale_b in (1.0, 1.5):
            b = ScaledBall(body, scale_b)
            # the scale of a at which its farthest vertex lands on b's boundary
            edge = 1.0 / b.gauge_many(all_vertices(poly)).max()
            statuses = set()
            for scale_a in (edge * (1.0 - 1e-6), edge, edge * (1.0 + 1e-6)):
                a = ScaledBall(poly, scale_a)
                verdict = ball_containment(a, b)
                status, witness = brute_force_containment(a, b)
                assert verdict.status == status
                if witness is None:
                    assert verdict.witness is None
                else:
                    assert verdict.witness.tobytes() == witness.tobytes()
                statuses.add(status)
            assert statuses == {"contained", "not_contained"}

    @pytest.mark.parametrize("name, m", [("kt3", 13), ("kt4", 19)])
    def test_box_check_evaluates_one_row(self, name, m, monkeypatch):
        body = ball_from_name(name, 0)
        assert body.dimension == m
        rows = []
        gauge_many = NormBall.gauge_many

        def counted(self, points):
            rows.append(len(np.atleast_2d(points)))
            return gauge_many(self, points)

        monkeypatch.setattr(NormBall, "gauge_many", counted)
        box = NormBall.lp(INF, 1.0, m)
        verdict = ball_containment(ScaledBall(box, 2.0), ScaledBall(body, 1.0))
        assert rows == [1]
        assert verdict.status == "not_contained"
        assert verdict.witness.tobytes() == np.full(m, -2.0).tobytes()
        rows.clear()
        assert ball_containment(ScaledBall(box, 1.0), ScaledBall(body, 1.0)).is_contained
        assert rows == [1]

    @pytest.mark.parametrize("name", ALL_BALL_NAMES)
    def test_gauge_is_sign_symmetric(self, name):
        ball = ball_from_name(name, 5)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-2.5, 2.5, size=(400, ball.dimension))
        pts[::7] *= 1e-3  # some points deep inside the body
        g = ball.gauge_many(pts)
        for _ in range(10):
            flips = np.where(rng.random(pts.shape) < 0.5, -1.0, 1.0)
            assert ball.gauge_many(flips * pts).tobytes() == g.tobytes()
        # box corners share the gauge of (-1, ..., -1)
        corners = np.where(rng.random((64, ball.dimension)) < 0.5, -1.0, 1.0)
        assert (ball.gauge_many(corners) == ball.gauge(-np.ones(ball.dimension))).all()


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
