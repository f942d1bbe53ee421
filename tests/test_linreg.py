import dataclasses
import math

import numpy as np
import pytest
import scipy.stats as sps
from scipy.special import ndtri

from knorm.geometry import (
    _k2_cap,
    _k2_gauge,
    _k2_sum_quantile,
    _k2_weight,
    _k3_gauge,
    _k3_kernel,
    _k3_weights,
    volume_monte_carlo,
)
from knorm.linreg import (
    RegressionDataset,
    _shared_layout,
    StatisticLayout,
    StatisticVector,
    ball_from_name,
    build_statistic,
    dp_estimate,
    dp_estimates,
    kT_member,
    kt_ball,
    preprocess,
    sanitize_statistic,
    statistic_dimension,
)
from knorm.sampling import (
    MechanismConfig, RngStream, SamplerError, sample_k_mech_rejection, sample_noise,
    sample_uniform_ball,
)


def single_row_dataset(row, y):
    design = np.concatenate([[1.0], row])[None, :]
    return RegressionDataset(design, [y])


class ReferenceSlots:
    """Per-slot index formulas of the statistic layout, 1-based predictors."""

    def __init__(self, p):
        self.p = p
        self.ysum = p + p * (p + 1) // 2

    def sum(self, j):
        return j - 1

    def sq(self, j):
        return self.p + (j - 1) * j // 2 + (j - 1)

    def cross(self, j, k):
        return self.p + (k - 1) * k // 2 + (j - 1)

    def xy(self, j):
        return self.ysum + j


def kt_member_reference(U, p):
    """K_T membership piece by piece, one (sum, square) pair and one cross
    or response triple at a time."""
    slots = ReferenceSlots(p)

    def k2(u1, u2):
        a1, a2 = np.abs(u1), np.abs(u2)
        cap = 2.0 - 2.0 * (a1 - 1.0) ** 2
        return (a1 <= 2.0) & (a2 <= 2.0) & ((a1 <= 1.0) | (a2 <= cap))

    def k3(u1, u2, u3):
        a = np.abs(np.column_stack([u1, u2, u3]))
        return (a <= 2.0).all(axis=1) & (a.sum(axis=1) <= 4.0)

    ok = (np.abs(U) <= 2.0).all(axis=1)
    sums = [U[:, slots.sum(j)] for j in range(1, p + 1)]
    for j in range(1, p + 1):
        ok &= k2(sums[j - 1], U[:, slots.sq(j)])
        ok &= k3(sums[j - 1], U[:, slots.ysum], U[:, slots.xy(j)])
        for i in range(1, j):
            ok &= k3(sums[i - 1], sums[j - 1], U[:, slots.cross(i, j)])
    return ok


def kt_gauge_reference(U, p):
    """K_T gauge piece by piece: the running max of the k2 and k3 piece
    gauges, one (sum, square) pair and one cross or response triple at a
    time."""
    slots = ReferenceSlots(p)
    A = np.abs(U)
    g = np.zeros(len(A))
    for j in range(1, p + 1):
        s = A[:, slots.sum(j)]
        g = np.maximum(g, _k2_gauge(s, A[:, slots.sq(j)]))
        g = np.maximum(g, _k3_gauge(s, A[:, slots.ysum], A[:, slots.xy(j)]))
        for i in range(1, j):
            g = np.maximum(g, _k3_gauge(A[:, slots.sum(i)], s, A[:, slots.cross(i, j)]))
    return g


def random_dataset(rng, n, p):
    X0 = rng.uniform(-1, 1, (n, p))
    y = rng.uniform(-1, 1, n)
    design = np.column_stack([np.ones(n), X0])
    return RegressionDataset(design, y)


class TestLayout:
    def test_lengths(self):
        assert statistic_dimension(1) == 4
        assert statistic_dimension(5) == 26
        assert statistic_dimension(2) == 8

    def test_names_cover_all_slots(self):
        # the slot groups hit every slot exactly once
        for p in (1, 2, 3, 5):
            layout = StatisticLayout(p)
            slots = np.concatenate([layout.sums, layout.squares, layout.cross,
                                    [layout.ysum], layout.xy])
            assert sorted(slots.tolist()) == list(range(layout.d))
            assert len(layout.cross_j) == len(layout.cross) == p * (p - 1) // 2
            assert (layout.cross_j < layout.cross_k).all()

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 12])
    def test_matches_per_slot_formulas(self, p):
        # the index arrays keep the slot order of the per-slot formulas
        layout = StatisticLayout(p)
        slots = ReferenceSlots(p)
        js = range(1, p + 1)
        pairs = [(j, k) for k in js for j in range(1, k)]
        assert layout.sums.tolist() == [slots.sum(j) for j in js]
        assert layout.squares.tolist() == [slots.sq(j) for j in js]
        assert layout.cross.tolist() == [slots.cross(j, k) for j, k in pairs]
        assert list(zip(layout.cross_j + 1, layout.cross_k + 1)) == pairs
        assert layout.ysum == slots.ysum
        assert layout.sum_slots.tolist() == [slots.sum(j) for j in js] + [slots.ysum]
        assert layout.xy.tolist() == [slots.xy(j) for j in js]
        assert layout.gram_scale[layout.squares - p].tolist() == [2.0] * p
        assert (layout.gram_scale[layout.cross - p] == 1.0).all()


NAMED_DIMENSIONS = {"l1": 4, "l2": 4, "linf": 4, "l1.5": 4, "k2": 2, "k3": 3, "kt3": 13}


class TestBallFromName:
    @pytest.mark.parametrize("name", NAMED_DIMENSIONS)
    def test_named_ball(self, name):
        ball = ball_from_name(name, 4)
        assert ball.dimension == NAMED_DIMENSIONS[name]
        assert ball.label() == name

    @pytest.mark.parametrize("name", ["mystery", "gauss", "kt", "l0.5", "lnan"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError):
            ball_from_name(name, 4)


class TestBuildStatistic:
    def test_single_row_p1(self):
        stat = build_statistic(single_row_dataset(np.array([0.5]), -1.0))
        assert np.allclose(stat.values, [0.5, 0.5, -1.0, -0.5])

    def test_deterministic(self):
        rng = np.random.default_rng(70)
        data = random_dataset(rng, 50, 3)
        a = build_statistic(data).values
        b = build_statistic(data).values
        assert np.array_equal(a, b)

    def test_matches_gram_matrix(self):
        rng = np.random.default_rng(71)
        data = random_dataset(rng, 40, 3)
        stat = build_statistic(data)
        layout = stat.layout
        X0 = data.design[:, 1:]
        gram = X0.T @ X0
        assert np.allclose(stat.values[layout.sums], X0.sum(axis=0))
        assert np.allclose(stat.values[layout.squares], 2 * np.diag(gram))
        assert np.allclose(stat.values[layout.cross],
                           gram[layout.cross_j, layout.cross_k])
        assert math.isclose(stat.values[layout.ysum], data.response.sum())
        assert np.allclose(stat.values[layout.xy], X0.T @ data.response)

    def test_statistic_vector_length_checked(self):
        with pytest.raises(ValueError):
            StatisticVector(np.zeros(5), 1)


class TestDatasetValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RegressionDataset(np.array([[1.0, 1.5]]), [0.0])
        with pytest.raises(ValueError):
            RegressionDataset(np.array([[1.0, 0.5]]), [2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="design entries"):
            RegressionDataset(np.array([[1.0, 0.5], [1.0, np.nan]]), [0.0, 0.0])
        with pytest.raises(ValueError, match="response entries"):
            RegressionDataset(np.array([[1.0, 0.5], [1.0, 0.5]]), [0.0, np.nan])

    def test_rejects_missing_ones_column(self):
        with pytest.raises(ValueError):
            RegressionDataset(np.array([[0.5, 0.5]]), [0.0])

    def test_unvalidated_constructor(self):
        data = RegressionDataset(np.array([[1.0, 0.5]]), [3.0], validate=False)
        assert data.n == 1 and data.p == 1


class TestKTMember:
    def test_zero_vector(self):
        for p in (1, 2, 5):
            assert kT_member(np.zeros(statistic_dimension(p)), p)

    def test_pair_violation(self):
        layout = StatisticLayout(1)
        u = np.zeros(layout.d)
        u[layout.sums[0]] = 2.0
        u[layout.squares[0]] = 0.1
        assert not kT_member(u, 1)

    def test_box_violation(self):
        u = np.zeros(statistic_dimension(2))
        u[-1] = 2.5
        assert not kT_member(u, 2)

    def test_cross_triple_violation(self):
        layout = StatisticLayout(2)
        u = np.zeros(layout.d)
        u[layout.sums] = 2.0
        u[layout.cross[0]] = 1.0
        assert not kT_member(u, 2)
        u[layout.cross[0]] = 0.0
        assert kT_member(u, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kT_member(np.zeros(5), 1)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 12, 16])
    def test_matches_piece_by_piece_reference(self, p):
        # bit-identical to the loop over pieces, also on points of a
        # quarter grid that land exactly on piece boundaries
        rng = np.random.default_rng(80 + p)
        layout = StatisticLayout(p)
        for scale in (2.0, 1.6, 1.0, 0.5):
            U = rng.uniform(-scale, scale, (4096, layout.d))
            U[:1024] = np.round(4 * U[:1024]) / 4
            got = kt_ball(p).member_many(U)
            assert np.array_equal(got, kt_member_reference(U, p))
        assert got.all()

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_gauge_matches_piece_by_piece_reference(self, p):
        # kt1 has no cross pairs; quarter-grid rows tie pieces exactly
        rng = np.random.default_rng(90 + p)
        ball = kt_ball(p)
        U = rng.standard_normal((4096, ball.dimension))
        U[1024:2048] *= rng.random((1024, ball.dimension)) < 0.5
        U[:1024] = np.round(4 * U[:1024]) / 4
        for scale in (1e-300, 0.5, 1.0, 2.0, 1e300):
            assert np.array_equal(ball.gauge_many(scale * U), kt_gauge_reference(scale * U, p))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_single_row_differences_inside(self, p):
        rng = np.random.default_rng(72 + p)
        ball = kt_ball(p)
        rows_a = rng.uniform(-1, 1, (10_000, p + 1))
        rows_b = rng.uniform(-1, 1, (10_000, p + 1))
        diffs = np.empty((10_000, ball.dimension))
        for i in range(10_000):
            sa = build_statistic(single_row_dataset(rows_a[i, :p], rows_a[i, p]))
            sb = build_statistic(single_row_dataset(rows_b[i, :p], rows_b[i, p]))
            diffs[i] = sa.values - sb.values
        assert np.abs(diffs).max() <= 2.0 + 1e-12
        assert ball.member_many(diffs).all()

    def test_row_substitution_slot_sensitivity(self):
        # swapping one row of a real dataset moves every slot by at most 2
        rng = np.random.default_rng(90)
        p = 3
        data = random_dataset(rng, 40, p)
        base = build_statistic(data).values
        ball = kt_ball(p)
        for _ in range(300):
            i = int(rng.integers(0, data.n))
            design = data.design.copy()
            response = data.response.copy()
            design[i, 1:] = rng.uniform(-1, 1, p)
            response[i] = rng.uniform(-1, 1)
            swapped = build_statistic(RegressionDataset(design, response)).values
            diff = swapped - base
            assert np.abs(diff).max() <= 2.0 + 1e-12
            assert ball.member_many(diff[None, :])[0]

    def test_members_respect_box(self):
        # rejection-sampled members always stay inside the bounding box
        from knorm.sampling import sample_uniform_ball
        rng = RngStream(73, 0).generator()
        pts, _ = sample_uniform_ball(kt_ball(2), rng, size=2000)
        assert np.abs(pts).max() <= 2.0


def box_rejection(ball):
    """The same body without its own sampler and estimator."""
    return dataclasses.replace(ball, uniform_fn=None, box_fraction_fn=None)


def k2_profile_cdf(a):
    # CDF of the density proportional to _k2_weight on [0, 2] (total mass 5/3)
    return np.where(a <= 1.0, 3.0 * a / 5.0, (1.0 + 3.0 * a**2 - a**3) / 5.0)


class EdgeRng:
    """Real uniforms for the sums and the acceptance test, but every
    uniform(lo, hi) draw at lo or hi: filled slots land on their interval
    ends and the response sum at 0 or 2."""

    def __init__(self, seed):
        self.g = np.random.default_rng(seed)

    def random(self, size):
        return self.g.random(size)

    def uniform(self, lo, hi, size):
        return np.where(self.g.random(size) < 0.5, lo, hi)


class TestKtFactorization:
    """The piece weights of K_T given its sum slots (_k3_kernel, _k2_weight)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_pairs_are_the_k3_pieces(self, p):
        layout = StatisticLayout(p)
        slots = ReferenceSlots(p)
        expected = {slots.cross(j + 1, k + 1): (j, k)
                    for j, k in zip(layout.cross_j, layout.cross_k)}
        expected.update({slots.xy(j): (j - 1, p) for j in range(1, p + 1)})
        got = {int(slot): (int(j), int(k))
               for slot, j, k in zip(layout.pair_slots, layout.pair_j, layout.pair_k)}
        assert got == expected

    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_kernel_is_product_of_interval_lengths(self, p):
        layout = StatisticLayout(p)
        x = np.random.default_rng(300 + p).uniform(0.0, 2.0, size=(p + 1, 500))
        want = np.ones(500)
        for j in range(p):
            want *= np.minimum(2.0, 4.0 - x[j] - x[p]) / 2.0
            for k in range(j + 1, p):
                want *= np.minimum(2.0, 4.0 - x[j] - x[k]) / 2.0
        assert np.allclose(_k3_kernel(x, layout), want, rtol=1e-12, atol=0.0)

    def test_k2_weight_is_half_the_cap(self):
        a = np.random.default_rng(301).uniform(0.0, 2.0, 100_000)
        a[:3] = (0.0, 1.0, 2.0)
        w = _k2_weight(a)
        above = a > 1.0
        # bit for bit, so twice the weight is the parabola cap that bounds the k2 square
        assert np.array_equal(2.0 * w[above], _k2_cap(a[above]))
        assert (w[~above] == 1.0).all()
        assert np.allclose(w[above], a[above] * (2.0 - a[above]), rtol=0.0, atol=4e-16)

    @pytest.mark.parametrize("seed", range(4))
    def test_weight_is_hit_chance_given_the_sums(self, seed):
        # the factorization itself: with the sum slots fixed, a uniform box
        # point lies in K_T with chance _k3_kernel * prod _k2_weight;
        # four 4-SE checks, family level 3e-4
        p = 2
        layout = StatisticLayout(p)
        rng = np.random.default_rng(310 + seed)
        signs = rng.choice([-1.0, 1.0], p + 1)
        x = rng.uniform(0.5, 2.0, size=(p + 1, 1))
        w = float(_k3_kernel(x, layout)[0] * _k2_weight(x[:p, 0]).prod())
        n = 200_000
        pts = rng.uniform(-2.0, 2.0, size=(n, layout.d))
        pts[:, layout.sums] = signs[:p] * x[:p, 0]
        pts[:, layout.ysum] = signs[p] * x[p, 0]
        hits = kt_ball(p).member_many(pts).mean()
        assert abs(hits - w) <= 4.0 * math.sqrt(w * (1.0 - w) / n)

    def test_sum_quantile_follows_k2_profile(self):
        a = _k2_sum_quantile(np.random.default_rng(302).random(50_000))
        assert (a >= 0.0).all() and (a <= 2.0).all()
        assert sps.kstest(a, k2_profile_cdf).pvalue > 0.01
        assert _k2_sum_quantile(np.array([0.0, 0.6]))[0] == 0.0
        assert abs(_k2_sum_quantile(np.array([0.6]))[0] - 1.0) < 1e-15


class TestKtSampler:
    """The exact conditional K_T sampler behind kt_ball."""

    # two-sample KS of each slot and of the gauge against box rejection on
    # the same body, Bonferroni-corrected to a family false-alarm rate of 0.01
    FAMILY_LEVEL = 0.01
    PS = (1, 2, 3)
    N_TESTS = sum(statistic_dimension(p) + 1 for p in PS)

    @pytest.mark.parametrize("p", PS)
    def test_matches_box_rejection_two_sample_ks(self, p):
        ball = kt_ball(p)
        n = 20_000
        cond, _ = sample_uniform_ball(ball, RngStream(420, p).generator(), size=n)
        box, _ = sample_uniform_ball(box_rejection(ball), RngStream(421, p).generator(),
                                     size=n)
        columns = [(cond[:, j], box[:, j]) for j in range(ball.dimension)]
        columns.append((ball.gauge_many(cond), ball.gauge_many(box)))
        for a, b in columns:
            assert sps.ks_2samp(a, b).pvalue > self.FAMILY_LEVEL / self.N_TESTS

    def test_kt12_gamma_marginal(self):
        # one test at level 0.01
        config = MechanismConfig(1.0, 1.0, kt_ball(12))
        v = sample_noise(config, RngStream(322, 0).generator(), size=5000)
        g = config.ball.gauge_many(v)
        assert sps.kstest(g, sps.gamma(config.dimension, scale=1.0).cdf).pvalue > 0.01

    def test_kt12_unbiased(self):
        # |mean|/SE per coordinate, Bonferroni over the 103 coordinates to a
        # family false-alarm rate of 0.01
        config = MechanismConfig(1.0, 1.0, kt_ball(12))
        v = sample_noise(config, RngStream(323, 0).generator(), size=5000)
        z = np.abs(v.mean(axis=0)) / (v.std(axis=0, ddof=1) / math.sqrt(len(v)))
        assert z.max() <= ndtri(1.0 - 0.01 / (2 * config.dimension))

    @pytest.mark.parametrize("p", [20, 28])
    def test_single_draw_within_default_budget(self, p):
        # box rejection exhausts the default 1e6 proposals near p = 28
        ball = kt_ball(p)
        v = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(324, p).generator())
        assert v.shape == (ball.dimension,) and np.isfinite(v).all()
        u, (accepted, proposals) = sample_uniform_ball(ball, RngStream(325, p).generator())
        assert ball.member_many(u[None, :]).all()
        assert 1 <= accepted <= proposals <= 10**6

    @pytest.mark.parametrize("p, n", [(1, 3000), (2, 3000), (3, 3000), (5, 2000),
                                      (12, 1000), (20, 200)])
    def test_every_point_is_a_member(self, p, n):
        layout = _shared_layout(p)
        ball = kt_ball(p)
        pts, _ = sample_uniform_ball(ball, RngStream(326, p).generator(), size=n)
        assert ball.member_many(pts).all()
        # filled slots exactly on their interval ends stay inside too
        edge, _ = sample_uniform_ball(ball, EdgeRng(327 + p), size=n)
        assert ball.member_many(edge).all()
        sums = np.abs(edge[:, layout.sum_slots]).T
        assert np.array_equal(np.abs(edge[:, layout.squares]), 2.0 * _k2_weight(sums[:p]).T)
        assert np.array_equal(np.abs(edge[:, layout.pair_slots]),
                              2.0 * _k3_weights(sums, layout).T)

    def test_box_rejection_never_reached(self):
        def refuse(pts):
            raise AssertionError("membership oracle called")

        ball = dataclasses.replace(kt_ball(3), member=refuse)
        v = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(328, 0).generator(),
                         size=100)
        assert v.shape == (100, 13)
        est, se = volume_monte_carlo(ball, n_samples=1000)
        assert est > 0.0 and se > 0.0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SamplerError, match="acceptance rate"):
            sample_uniform_ball(kt_ball(28), RngStream(329, 0).generator(), size=10,
                                max_attempts=100)

    def test_stats_count_conditional_proposals(self):
        # a proposal is accepted with mean _k3_kernel under the k2 profile,
        # which is the box fraction times (6/5)^p; one 4-SE check
        p = 3
        ball = kt_ball(p)
        _, stats = sample_k_mech_rejection(np.zeros(ball.dimension), ball, 1.0, 1.0,
                                           RngStream(330, 0).generator(), size=20_000,
                                           return_stats=True)
        frac, frac_se = volume_monte_carlo(ball, scale=0.25, n_samples=2_000_000, seed=5)
        expected = frac * 1.2**p
        se = math.hypot(math.sqrt(expected * (1.0 - expected) / stats["proposals"]),
                        frac_se * 1.2**p)
        assert abs(stats["acceptance_rate"] - expected) <= 4.0 * se


class TestKtVolume:
    """The (p + 1)-dim box-fraction estimator behind volume_monte_carlo for kt<p>."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_agrees_with_hit_or_miss(self, p):
        # 4 combined SE per p: family level about 2e-4
        ball = kt_ball(p)
        est, se = volume_monte_carlo(ball, n_samples=1_000_000, seed=p)
        ref, ref_se = volume_monte_carlo(box_rejection(ball), n_samples=1_000_000,
                                         seed=10 + p)
        assert abs(est - ref) <= 4.0 * math.hypot(se, ref_se)
        assert 0.0 < se < ref_se

    def test_log_form_past_float_range(self):
        # (2 * 2 * 2)^526 overflows a float; the box fraction does not
        ball = kt_ball(30)
        assert volume_monte_carlo(ball, scale=2.0, n_samples=1000) == (math.inf, math.inf)
        frac, se = volume_monte_carlo(ball, scale=0.25, n_samples=1000)
        assert 0.0 < frac < 1.0 and 0.0 < se


class TestSanitize:
    def test_huge_eps_is_identity(self):
        rng = np.random.default_rng(74)
        stat = build_statistic(random_dataset(rng, 100, 2))
        for mech in ("l1", "linf", "kt"):
            g = RngStream(74, 1).generator()
            noisy = sanitize_statistic(stat, mech, 1e9, g)
            assert np.abs(noisy.values - stat.values).max() < 1e-6

    def test_linf_noise_gamma_marginal(self):
        rng = np.random.default_rng(75)
        stat = build_statistic(random_dataset(rng, 50, 1))
        d = stat.layout.d
        assert d == 4
        g = RngStream(75, 0).generator()
        eps = 1.0
        draws = np.empty(10_000)
        for i in range(10_000):
            noisy = sanitize_statistic(stat, "linf", eps, g)
            draws[i] = np.abs(noisy.values - stat.values).max()
        stat_ks = sps.kstest(draws, sps.gamma(d, scale=2.0 / eps).cdf)
        assert stat_ks.pvalue > 0.01

    def test_unbiasedness_per_slot(self):
        rng = np.random.default_rng(76)
        stat = build_statistic(random_dataset(rng, 30, 1))
        g = RngStream(76, 0).generator()
        reps = 10_000
        out = np.empty((reps, stat.layout.d))
        for i in range(reps):
            out[i] = sanitize_statistic(stat, "l1", 2.0, g).values
        se = out.std(axis=0, ddof=1) / math.sqrt(reps)
        assert (np.abs(out.mean(axis=0) - stat.values) <= 4 * se).all()

    def test_unknown_mechanism(self):
        rng = np.random.default_rng(77)
        stat = build_statistic(random_dataset(rng, 10, 1))
        with pytest.raises(ValueError):
            sanitize_statistic(stat, "gauss", 1.0, RngStream(0, 0).generator())

    def test_rejection_failure_propagates(self):
        rng = np.random.default_rng(78)
        stat = build_statistic(random_dataset(rng, 10, 2))
        # a spent budget fails whatever the acceptance rate
        with pytest.raises(SamplerError):
            sanitize_statistic(stat, "kt", 1.0, RngStream(0, 0).generator(),
                               max_attempts=0)


def per_call_estimate(stat, n_rows):
    """One pinv call per statistic, on a system built slot by slot."""
    p, slots = stat.p, ReferenceSlots(stat.p)
    v = stat.values
    xtx = np.empty((p + 1, p + 1))
    xtx[0, 0] = n_rows
    for j in range(1, p + 1):
        xtx[0, j] = xtx[j, 0] = v[slots.sum(j)]
        xtx[j, j] = v[slots.sq(j)] / 2.0
        for i in range(1, j):
            xtx[i, j] = xtx[j, i] = v[slots.cross(i, j)]
    xty = v[slots.ysum:]
    return np.linalg.pinv(xtx, rcond=(p + 1) * np.finfo(float).eps) @ xty


class TestDpEstimate:
    def test_stacked_solve_is_bit_identical(self):
        # one pinv call on the stack gives each row's per-call bits
        rng = np.random.default_rng(340)
        for p in (1, 2, 5, 12):
            d = statistic_dimension(p)
            stats = [StatisticVector(rng.normal(size=d) * scale, p)
                     for scale in (1.0, 100.0, 1e4) for _ in range(7)]
            stacked = dp_estimates(stats, 5000)
            assert stacked.shape == (21, p + 1)
            for stat, row in zip(stats, stacked):
                assert np.array_equal(row, per_call_estimate(stat, 5000))
                assert np.array_equal(row, dp_estimate(stat, 5000))
        assert dp_estimates([], 5000).shape == (0, 0)

    def test_zero_noise_equals_ols(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(50, 300))
            p = int(rng.integers(1, 6))
            data = random_dataset(rng, n, p)
            stat = build_statistic(data)
            beta = dp_estimate(stat, n)
            ols, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
            assert np.abs(beta - ols).max() < 1e-8

    def test_all_zero_statistics(self):
        stat = StatisticVector(np.zeros(statistic_dimension(2)), 2)
        beta = dp_estimate(stat, 0)
        assert np.array_equal(beta, np.zeros(3))

    def test_indefinite_reconstruction_is_total(self):
        # heavy noise can make (X'X)* indefinite; the solve must not fail
        rng = np.random.default_rng(80)
        stat = build_statistic(random_dataset(rng, 5, 2))
        g = RngStream(80, 0).generator()
        noisy = sanitize_statistic(stat, "l1", 0.01, g)
        beta = dp_estimate(noisy, 5)
        assert np.all(np.isfinite(beta))


class TestPreprocess:
    def test_affine_endpoints(self):
        cols = {"x": np.linspace(0, 1, 500), "y": np.linspace(-5, 5, 500)}
        data = preprocess(cols, response="y")
        assert data.design[:, 1].min() == -1.0
        assert data.design[:, 1].max() == 1.0
        assert data.response.min() == -1.0
        assert data.response.max() == 1.0

    def test_outlier_clamped(self):
        rng = np.random.default_rng(81)
        base = rng.uniform(10.0, 20.0, 20_000)
        base[0] = 1e9
        cols = {"x": base, "y": rng.uniform(-1, 1, 20_000)}
        data = preprocess(cols, response="y")
        # without clamping the outlier would crush everything else to -1
        inner = np.sort(data.design[:, 1])[:-1]
        assert inner.max() > 0.99

    def test_round_trip_affine(self):
        rng = np.random.default_rng(82)
        x = rng.uniform(-1, 1, 5000)
        data = preprocess({"x": x, "y": rng.uniform(-1, 1, 5000)}, response="y")
        lo, hi = np.quantile(x, [0.0001, 0.9999])
        clipped = np.clip(x, lo, hi)
        expected = 2 * (clipped - clipped.min()) / (clipped.max() - clipped.min()) - 1
        assert np.abs(data.design[:, 1] - expected).max() < 1e-12

    def test_second_application_nearly_fixed_point(self):
        # clamping is idempotent up to interpolation drift at the boundary ties
        rng = np.random.default_rng(83)
        cols = {"x": rng.standard_normal(50_000) * 3, "y": rng.uniform(-1, 1, 50_000)}
        once = preprocess(cols, response="y")
        twice = preprocess(
            {"x": once.design[:, 1], "y": once.response}, response="y"
        )
        # interpolation at the clamp boundaries moves the re-estimated
        # quantiles by O(order-statistic gap), so allow a tiny restretch
        assert np.abs(twice.design[:, 1] - once.design[:, 1]).max() < 1e-4

    def test_clip_operator_idempotent(self):
        rng = np.random.default_rng(84)
        x = rng.standard_normal(10_000)
        lo, hi = np.quantile(x, [0.0001, 0.9999])
        clipped = np.clip(x, lo, hi)
        assert np.array_equal(np.clip(clipped, lo, hi), clipped)

    def test_log_columns(self):
        rng = np.random.default_rng(85)
        x = rng.lognormal(0.0, 1.0, 5000)
        cols = {"x": x, "y": rng.uniform(-1, 1, 5000)}
        data = preprocess(cols, response="y", log_columns=("x",))
        lo, hi = np.quantile(np.log(x), [0.0001, 0.9999])
        clipped = np.clip(np.log(x), lo, hi)
        expected = 2 * (clipped - clipped.min()) / (clipped.max() - clipped.min()) - 1
        assert np.abs(data.design[:, 1] - expected).max() < 1e-12

    def test_log_requires_positive(self):
        cols = {"x": np.array([1.0, -2.0, 3.0]), "y": np.array([0.1, 0.2, 0.3])}
        with pytest.raises(ValueError, match="'x'"):
            preprocess(cols, response="y", log_columns=("x",))

    def test_constant_column_rejected_by_name(self):
        cols = {"flat": np.ones(100), "y": np.linspace(-1, 1, 100)}
        with pytest.raises(ValueError, match="'flat'"):
            preprocess(cols, response="y")

    def test_missing_response(self):
        with pytest.raises(ValueError):
            preprocess({"x": np.ones(5)}, response="y")
