import math

import numpy as np
import pytest
import scipy.stats as sps

from knorm.linreg import (
    RegressionDataset,
    _kt_member_many,
    StatisticLayout,
    StatisticVector,
    ball_from_name,
    build_statistic,
    dp_estimate,
    kT_member,
    kt_ball,
    preprocess,
    sanitize_statistic,
    statistic_dimension,
)
from knorm.sampling import RngStream, SamplerError


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
            got = _kt_member_many(U, layout)
            assert np.array_equal(got, kt_member_reference(U, p))
        assert got.all()

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
        with pytest.raises(SamplerError):
            sanitize_statistic(stat, "kt", 1.0, RngStream(0, 0).generator(),
                               max_attempts=3)


class TestDpEstimate:
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
