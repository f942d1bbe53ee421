import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats as sps

from knorm import geometry, sampling
from knorm.geometry import NormBall, k2_ball, lp_norm
from knorm.linreg import ball_from_name, statistic_mechanism
from knorm.ordering import compare
from knorm.sampling import (
    _gamma_radii,
    _lp_stack,
    MechanismConfig,
    RngStream,
    SamplerError,
    sample_k_mech_rejection,
    sample_l1_mech,
    sample_l2_mech,
    sample_linf_mech,
    sample_lp_mech,
    sample_noise,
    sample_noise_rows,
)
from reference import box_rejection, gamma_radius, lp_noise_one_pair, noise_pair_by_pair

INF = math.inf
KS_LEVEL = 0.01


def gamma_cdf_oracle(shape, rate):
    return sps.gamma(shape, scale=1.0 / rate).cdf


def box_noise(ball, rng, n):
    """n K-norm noise draws of a ball at eps/Delta = 1 by a path independent
    of the library's samplers: box rejection's uniform points times
    numpy's Gamma(m + 1) radii."""
    u, _ = box_rejection(ball, rng, n, 10**7)
    assert len(u) == n
    return u * rng.gamma(ball.dimension + 1, 1.0, size=n)[:, None]


def rate_config(rate):
    """A mechanism config whose Gamma rate eps/delta is rate."""
    return MechanismConfig(rate, 1.0, NormBall.lp(2, 1, 1))


class TestGammaInt:
    """_gamma_radii, the library's one integer-shape Gamma draw."""

    @pytest.mark.parametrize("shape", [3, 9])
    def test_stack_is_the_reference_bit_for_bit(self, shape):
        # shape 3 sums column by column in _reduce_rows, shape 9 row by row
        rates = (2.0, 0.5, 7.25)
        new = [RngStream(5, i).generator() for i in range(len(rates))]
        old = [RngStream(5, i).generator() for i in range(len(rates))]
        got = _gamma_radii(shape, [(rate_config(r), rng) for r, rng in zip(rates, new)], 100)
        assert got.shape == (len(rates), 100)
        for row, rate, a, b in zip(got, rates, new, old):
            assert row.tobytes() == gamma_radius(shape, rate, b, 100).tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    def test_mean(self):
        rng = RngStream(1, 0).generator()
        draws = _gamma_radii(3, [(rate_config(2.0), rng)], 100_000)[0]
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.5) <= 4 * se

    def test_variance(self):
        rng = RngStream(1, 1).generator()
        draws = _gamma_radii(3, [(rate_config(2.0), rng)], 100_000)[0]
        s2 = draws.var(ddof=1)
        m4 = ((draws - draws.mean()) ** 4).mean()
        se = math.sqrt((m4 - s2**2) / len(draws))
        assert abs(s2 - 0.75) <= 4 * se

    def test_ks_against_gamma_cdf(self):
        rng = RngStream(1, 2).generator()
        draws = _gamma_radii(3, [(rate_config(2.0), rng)], 10_000)[0]
        stat = sps.kstest(draws, gamma_cdf_oracle(3, 2.0))
        assert stat.pvalue > KS_LEVEL


class TestL1Mech:
    def test_median_deviate_returns_t(self):
        class Median:
            def random(self, shape):
                return np.full(shape, 0.5)

        out = sample_l1_mech(np.array([3.0, -1.0]), 1.0, 1.0, Median())
        assert np.all(out == [3.0, -1.0])

    def test_zero_uniform_redrawn(self):
        # random() returns exactly 0.0 with probability 2^-53 per coordinate,
        # and the inverse CDF maps 0 to -inf
        class ZeroFirst:
            calls = 0

            def random(self, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls == 1 else np.full(shape, 0.25)

        out = sample_l1_mech(np.zeros(3), 1.0, 1.0, ZeroFirst(), size=2)
        assert np.all(np.isfinite(out))
        # the redrawn u = 1/4 is the Laplace(1) quantile -log 2
        assert np.allclose(out, -math.log(2.0))

    def test_unbiased(self):
        rng = RngStream(2, 0).generator()
        out = sample_l1_mech(np.zeros(2), 1.0, 1.0, rng, size=100_000)
        se = out.std(axis=0, ddof=1) / math.sqrt(len(out))
        assert (np.abs(out.mean(axis=0)) <= 4 * se).all()

    def test_l1_norm_gamma_marginal(self):
        rng = RngStream(2, 1).generator()
        v = sample_l1_mech(np.zeros(2), 1.0, 1.0, rng, size=10_000)
        stat = sps.kstest(lp_norm(v, 1), gamma_cdf_oracle(2, 1.0))
        assert stat.pvalue > KS_LEVEL

    def test_bad_args(self):
        rng = RngStream(2, 2).generator()
        with pytest.raises(ValueError):
            sample_l1_mech(np.zeros(2), -1.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_l1_mech(np.zeros(2), 1.0, 0.0, rng)


@pytest.mark.parametrize("p", [1, INF])
class TestInPlaceNoise:
    """The l1 and l-infinity draws, computed in place on the stack, are the
    bytes of their one-pair reference."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_batches(self, p, seed):
        for m, n, delta, epsilon in ((1, 100_000, 1.0, 1.0), (7, 1001, 14.0, 0.3),
                                     (103, 3, 0.5, 4.0)):
            new, one = (RngStream(seed, m).generator() for _ in range(2))
            config = MechanismConfig(epsilon, delta, NormBall.lp(p, 1, m))
            got = _lp_stack(p, m, [(config, new)], n)[0]
            want = lp_noise_one_pair(p, m, delta, epsilon, one, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert new.bit_generator.state == one.bit_generator.state

    def test_single_draws(self, p):
        config = MechanismConfig(0.25, 6.0, NormBall.lp(p, 1, 7))
        for seed in range(20):
            got = sample_noise(config, RngStream(seed, 2).generator())
            want = lp_noise_one_pair(p, 7, 6.0, 0.25, RngStream(seed, 2).generator(), 1)
            assert got.shape == (7,) and got.tobytes() == want[0].tobytes()


class TestL2Mech:
    def test_l2_norm_gamma_marginal(self):
        rng = RngStream(3, 0).generator()
        v = sample_l2_mech(np.zeros(2), 1.0, 1.0, rng, size=10_000)
        stat = sps.kstest(lp_norm(v, 2), gamma_cdf_oracle(2, 1.0))
        assert stat.pvalue > KS_LEVEL

    def test_direction_mean_zero(self):
        rng = RngStream(3, 1).generator()
        v = sample_l2_mech(np.zeros(2), 1.0, 1.0, rng, size=10_000)
        dirs = v / lp_norm(v, 2)[:, None]
        se = dirs.std(axis=0, ddof=1) / math.sqrt(len(dirs))
        assert (np.abs(dirs.mean(axis=0)) <= 4 * se).all()

    def test_unbiased_about_t(self):
        rng = RngStream(3, 2).generator()
        t = np.array([1.0, -2.0])
        out = sample_l2_mech(t, 1.5, 1.0, rng, size=100_000)
        se = out.std(axis=0, ddof=1) / math.sqrt(len(out))
        assert (np.abs(out.mean(axis=0) - t) <= 4 * se).all()


class TestLinfMech:
    def test_linf_norm_gamma_marginal(self):
        # Gamma(m+1) radius times the max of m uniforms has a Gamma(m) max norm
        rng = RngStream(4, 0).generator()
        v = sample_linf_mech(np.zeros(2), 1.0, 1.0, rng, size=10_000)
        stat = sps.kstest(lp_norm(v, INF), gamma_cdf_oracle(2, 1.0))
        assert stat.pvalue > KS_LEVEL

    def test_unbiased_about_t(self):
        rng = RngStream(4, 1).generator()
        t = np.array([0.5, 0.5, -0.5])
        out = sample_linf_mech(t, 1.0, 2.0, rng, size=100_000)
        se = out.std(axis=0, ddof=1) / math.sqrt(len(out))
        assert (np.abs(out.mean(axis=0) - t) <= 4 * se).all()

    def test_direction_coordinates_bounded(self):
        rng = RngStream(4, 2).generator()
        v = sample_linf_mech(np.zeros(3), 1.0, 1.0, rng, size=5000)
        unit = v / lp_norm(v, INF)[:, None]
        assert (np.abs(unit) <= 1.0 + 1e-12).all()


class TestRejectionMech:
    def test_matches_linf_sampler_two_sample_ks(self):
        # box rejection on the l-infinity ball, against its closed form
        box = NormBall.lp(INF, 1.0, 2)
        v_rej = box_noise(box, RngStream(5, 0).generator(), 10_000)
        rng2 = RngStream(5, 1).generator()
        v_cf = sample_linf_mech(np.zeros(2), 1.0, 1.0, rng2, size=10_000)
        stat = sps.ks_2samp(lp_norm(v_rej, INF), lp_norm(v_cf, INF))
        assert stat.pvalue > KS_LEVEL

    def test_k2_gauge_gamma_marginal(self):
        ball = k2_ball()
        rng = RngStream(5, 2).generator()
        v = sample_k_mech_rejection(np.zeros(2), ball, 1.0, 1.0, rng, size=10_000)
        stat = sps.kstest(ball.gauge_many(v), gamma_cdf_oracle(2, 1.0))
        assert stat.pvalue > KS_LEVEL

    def test_k2_acceptance_rate(self):
        # box rejection on the k2 membership test accepts its exact volume over the box's
        rng = RngStream(5, 3).generator()
        _, (accepted, proposals) = box_rejection(k2_ball(), rng, 10_000, 10**6)
        expected = (40.0 / 3.0) / 16.0
        se = math.sqrt(expected * (1 - expected) / proposals)
        assert abs(accepted / proposals - expected) <= 4 * se

    @pytest.mark.parametrize("name", ["l1", "l2", "linf", "l1.5", "k2", "k3", "kt3"])
    def test_is_sample_noise_plus_counts(self, monkeypatch, name):
        # one sampler per ball: with a zero T the release is sample_noise's
        # draw bit for bit (a zero T turns each -0.0 into 0.0, as 0.0 + v
        # does), and the generator ends where sample_noise leaves it
        ball = ball_from_name(name, 3)
        config = MechanismConfig(0.5, 2.0, ball)
        rng, alone = RngStream(5, 7).generator(), RngStream(5, 7).generator()
        out, stats = sample_k_mech_rejection(np.zeros(ball.dimension), ball, 2.0, 0.5, rng,
                                             size=40, return_stats=True)
        assert out.tobytes() == (0.0 + sample_noise(config, alone, size=40)).tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state
        assert 40 <= stats["accepted"] <= stats["proposals"]
        if ball.is_lp:
            # an lp ball draws no proposals, so no budget binds it
            assert stats["accepted"] == stats["proposals"] == 40
            monkeypatch.setattr(sampling, "MAX_PROPOSALS", 0)
            _, stats = sample_k_mech_rejection(np.zeros(ball.dimension), ball, 2.0, 0.5, rng,
                                               size=40, return_stats=True)
            assert stats == {"accepted": 40, "proposals": 40, "acceptance_rate": 1.0}

    def test_dimension_mismatch(self):
        rng = RngStream(5, 5).generator()
        with pytest.raises(ValueError):
            sample_k_mech_rejection(np.zeros(3), k2_ball(), 1.0, 1.0, rng)

    @pytest.mark.parametrize("ball", [k2_ball(), NormBall.lp(2, 1.0, 2)], ids=["k2", "l2"])
    def test_zero_draws_report_zero_acceptance(self, ball):
        # no proposals: the rate reads 0.0, as the budget error's does
        out, stats = sample_k_mech_rejection(np.zeros(2), ball, 1.0, 1.0,
                                             RngStream(5, 6).generator(), size=0,
                                             return_stats=True)
        assert out.shape == (0, 2)
        assert stats == {"accepted": 0, "proposals": 0, "acceptance_rate": 0.0}


class TestLpMech:
    # Two-sample KS of the polar sampler against box rejection times a
    # Gamma(m + 1) radius on the same ball: each coordinate and the max norm,
    # 10 tests over the three (p, m) cases, Bonferroni-corrected to a family
    # false-alarm rate of 0.01
    FAMILY_LEVEL = 0.01
    CASES = ((1.5, 2), (1.5, 3), (3.0, 2))
    N_TESTS = sum(m + 1 for _, m in CASES)

    @pytest.mark.parametrize("case", range(3))
    def test_matches_box_rejection_two_sample_ks(self, case):
        p, m = self.CASES[case]
        ball = NormBall.lp(p, 1.0, m)
        polar = sample_noise(MechanismConfig(1.0, 1.0, ball),
                             RngStream(10, 2 * case).generator(), size=40_000)
        box = box_noise(ball, RngStream(10, 2 * case + 1).generator(), 40_000)
        columns = [(polar[:, j], box[:, j]) for j in range(m)]
        columns.append((lp_norm(polar, INF), lp_norm(box, INF)))
        for a, b in columns:
            assert sps.ks_2samp(a, b).pvalue > self.FAMILY_LEVEL / self.N_TESTS

    def test_lp_norm_gamma_marginal_at_large_p(self):
        # Gamma(1/p) underflows to 0 for p = 1000; the U-times-Gamma(1 + 1/p)
        # form leaves no coordinate at exactly 0
        rng = RngStream(11, 0).generator()
        v = sample_lp_mech(np.zeros(3), 1000.0, 2.0, 1.0, rng, size=10_000)
        assert np.all(v != 0.0)
        stat = sps.kstest(lp_norm(v, 1000.0), gamma_cdf_oracle(3, 0.5))
        assert stat.pvalue > KS_LEVEL

    def test_single_draw_shape(self):
        config = MechanismConfig(1.0, 2.0, NormBall.lp(1.5, 1, 4))
        v = sample_noise(config, RngStream(11, 1).generator())
        assert v.shape == (4,) and np.all(np.isfinite(v))

    def test_bad_args(self):
        rng = RngStream(11, 3).generator()
        with pytest.raises(ValueError):
            sample_lp_mech(np.zeros(2), 0.5, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_lp_mech(np.zeros(2), 1.5, 0.0, 1.0, rng)


_STREAM_IDS = {"l1": 1, "l2": 2, "linf": 3, "k2": 4, "l1.5": 5, "l3": 6}


def _noise_config(name):
    if name == "l1":
        return MechanismConfig(1.0, 1.0, NormBall.lp(1, 1, 2))
    if name == "l2":
        return MechanismConfig(1.0, 1.0, NormBall.lp(2, 1, 2))
    if name == "linf":
        return MechanismConfig(1.0, 1.0, NormBall.lp(INF, 1, 2))
    # Delta != 1: the gauge ||v||_p is Gamma(m, eps/Delta)
    if name == "l1.5":
        return MechanismConfig(0.7, 3.0, NormBall.lp(1.5, 1, 3))
    if name == "l3":
        return MechanismConfig(2.0, 0.5, NormBall.lp(3, 1, 2))
    return MechanismConfig(1.0, 1.0, k2_ball())


@pytest.mark.parametrize("name", ["l1", "l2", "linf", "k2", "l1.5", "l3"])
class TestSamplerInvariants:
    def test_unbiasedness(self, name):
        config = _noise_config(name)
        rng = RngStream(6, _STREAM_IDS[name]).generator()
        v = sample_noise(config, rng, size=100_000)
        se = v.std(axis=0, ddof=1) / math.sqrt(len(v))
        assert (np.abs(v.mean(axis=0)) <= 4 * se).all()

    def test_gamma_marginal(self, name):
        config = _noise_config(name)
        rng = RngStream(7, _STREAM_IDS[name]).generator()
        v = sample_noise(config, rng, size=10_000)
        g = config.ball.gauge_many(v)
        stat = sps.kstest(g, gamma_cdf_oracle(config.dimension, config.rate))
        assert stat.pvalue > KS_LEVEL

    def test_norm_direction_independence(self, name):
        config = _noise_config(name)
        rng = RngStream(8, _STREAM_IDS[name]).generator()
        v = sample_noise(config, rng, size=20_000)
        g = config.ball.gauge_many(v)
        unit = v / g[:, None]
        n = len(g)
        for j in range(v.shape[1]):
            corr = np.corrcoef(g, unit[:, j])[0, 1]
            assert abs(corr) <= 4 / math.sqrt(n)


class TestDpRatio:
    def test_laplace_histogram_ratio(self):
        eps, n = 1.0, 100_000
        rng = RngStream(9, 0).generator()
        s0 = sample_l1_mech(np.zeros(1), 1.0, eps, rng, size=n)[:, 0]
        s1 = sample_l1_mech(np.ones(1), 1.0, eps, rng, size=n)[:, 0]
        edges = np.arange(-8.0, 9.01, 0.5)
        c0, _ = np.histogram(s0, bins=edges)
        c1, _ = np.histogram(s1, bins=edges)
        checked = 0
        for a, b in zip(c0, c1):
            if a >= 100 and b >= 100:
                ratio = max(a / b, b / a)
                slack = 1.0 + 5.0 * math.sqrt(1.0 / a + 1.0 / b)
                assert ratio <= math.exp(eps) * slack
                checked += 1
        assert checked >= 10


@pytest.mark.parametrize("name", ["l1", "l2", "linf", "l3", "k2", "k3", "kt2"])
def test_zero_draws_have_zero_rows(name):
    # size=0 is an empty (0, m) batch for every ball kind, with empty gauges
    ball = ball_from_name(name, 3)
    draws = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(9, 0).generator(), size=0)
    assert draws.shape == (0, ball.dimension)
    assert ball.gauge_many(draws).shape == (0,)


class TestReproducibility:
    def test_bit_for_bit(self):
        for config in map(_noise_config, ["l1", "l2", "linf", "k2", "l1.5"]):
            a = sample_noise(config, RngStream(123, 7).generator(), size=50)
            b = sample_noise(config, RngStream(123, 7).generator(), size=50)
            assert np.array_equal(a, b)

    def test_streams_differ(self):
        config = _noise_config("l1")
        a = sample_noise(config, RngStream(123, 0).generator(), size=50)
        b = sample_noise(config, RngStream(123, 1).generator(), size=50)
        assert not np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            RngStream(-1, 0)

    @pytest.mark.parametrize("seed, stream, err", [
        (1.5, 0, "seed must be an integer >= 0, got 1.5"),
        (0, 0.5, "stream must be an integer >= 0, got 0.5"),
    ])
    def test_fractional_seed_or_stream_rejected(self, seed, stream, err):
        # 1.5 used to get through to SeedSequence's TypeError
        with pytest.raises(ValueError) as exc:
            RngStream(seed, stream)
        assert str(exc.value) == err

    def test_integer_valued_float_seed_is_the_int(self):
        a, b = RngStream(3.0, 2.0), RngStream(3, 2)
        assert (a.seed, a.stream) == (3, 2) and type(a.seed) is type(a.stream) is int
        assert a.generator().random() == b.generator().random()


class TestMechanismConfig:
    def test_validation(self):
        ball = NormBall.lp(1, 1, 2)
        with pytest.raises(ValueError):
            MechanismConfig(0.0, 1.0, ball)
        with pytest.raises(ValueError):
            MechanismConfig(1.0, math.inf, ball)

    def test_rate_and_label(self):
        config = MechanismConfig(2.0, 4.0, NormBall.lp(1, 1, 2))
        assert config.rate == 0.5
        assert config.label == "l1:d=4"

    def test_default_labels_keep_every_digit_of_delta(self):
        # close sensitivities get distinct labels, so compare names the
        # tighter config unambiguously
        ball = NormBall.lp(1, 1, 2)
        close, whole = MechanismConfig(1.0, 1.9999999, ball), MechanismConfig(1.0, 2, ball)
        assert (close.label, whole.label) == ("l1:d=1.9999999", "l1:d=2")
        assert compare(whole, close).preferred_by_containment == "l1:d=1.9999999"
        assert MechanismConfig(1.0, 1e200, ball).label == "l1:d=1e+200"

    def test_budget_error_is_exported(self):
        # every release path refuses a budget with it, so callers can catch it
        from knorm import BudgetError

        assert BudgetError is sampling.BudgetError and issubclass(BudgetError, ValueError)
        with pytest.raises(BudgetError, match="epsilon must be positive"):
            MechanismConfig(0.0, 1.0, NormBall.lp(1, 1, 2))


#: (epsilon, delta) at the ends of the float range (subnormal, 1e+-300 and
#: their quotients) whose noise could overflow for every ball, and pairs
#: near them whose noise stays finite
REFUSED_BUDGETS = [(5e-324, 1.0), (1e-200, 1e200), (1e-300, 1e300), (1e300, 1e-300)]
FINITE_BUDGETS = [(1e-303, 1.0), (1e-150, 1e150), (1e300, 1e300), (5e-324, 5e-324)]
BALL_NAMES = ["l1", "l2", "linf", "l1.5", "k2", "k3", "kt1", "kt2", "kt3", "kt4"]


def assert_refused(call, rng):
    # a ValueError naming both budget parameters, before rng draws anything
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as exc:
        call()
    assert "epsilon" in str(exc.value) and "delta" in str(exc.value)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", BALL_NAMES)
class TestExtremeBudgets:
    """No budget releases a non-finite value: a budget whose noise could
    overflow is refused before any draw, from public parameters alone."""

    @pytest.mark.parametrize("epsilon, delta", REFUSED_BUDGETS)
    def test_refused(self, name, epsilon, delta):
        ball = ball_from_name(name, 3)
        rng = RngStream(31, 0).generator()
        assert_refused(lambda: MechanismConfig(epsilon, delta, ball), rng)
        assert_refused(lambda: sample_k_mech_rejection(np.zeros(ball.dimension), ball, delta,
                                                       epsilon, rng), rng)

    @pytest.mark.parametrize("epsilon, delta", FINITE_BUDGETS)
    def test_finite(self, name, epsilon, delta):
        ball = ball_from_name(name, 3)
        config = MechanismConfig(epsilon, delta, ball)
        rngs = [RngStream(31, i).generator() for i in range(3)]
        assert np.isfinite(sample_noise(config, rngs[0], size=50)).all()
        assert np.isfinite(sample_noise_rows([(config, rng) for rng in rngs])).all()
        assert np.isfinite(sample_k_mech_rejection(np.zeros(ball.dimension), ball, delta,
                                                   epsilon, rngs[0], size=20)).all()


@pytest.mark.parametrize("name", ["k2", "k3", "kt2"])
def test_hull_scale_overflow_refused(name):
    # delta*linf_radius overflows here (a hull's linf_radius is 2), although
    # epsilon/delta and the noise bound are finite
    ball = ball_from_name(name, 3)
    assert_refused(lambda: MechanismConfig(1e300, 1e308, ball), RngStream(32, 0).generator())


class TestStackedDraws:
    """sample_noise_rows draws every (config, generator) pair of a list at
    once: each row, and each generator's end state, is that of sample_noise
    on the pair alone. Rows are compared as bytes, as np.array_equal does
    not see the sign of a zero."""

    #: seed at which kt12 stream 4 of 7 accepts nothing in its first 64
    #: proposals (it takes 64 + 256) while the other six finish in 64
    EMPTY_FIRST_CHUNK_SEED = 404

    @staticmethod
    def _configs(names, count):
        # budgets and sensitivities vary along the list, balls cycle through
        # names; lp balls take k3's dimension
        balls = [ball_from_name(name, 3) for name in names]
        return [MechanismConfig(0.25 * (1 + i % 5), 1.0 + i % 3, balls[i % len(balls)])
                for i in range(count)]

    @staticmethod
    def _draws(configs, seed):
        return [(config, RngStream(seed, i).generator()) for i, config in enumerate(configs)]

    def _check(self, configs, seed):
        stacked, single = self._draws(configs, seed), self._draws(configs, seed)
        rows = sample_noise_rows(stacked)
        assert rows.shape == (len(configs), configs[0].dimension)
        for row, (_, rng), (config, alone) in zip(rows, stacked, single):
            want = sample_noise(config, alone)
            assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
            assert rng.bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("count", [1, 2, 7, 70])
    @pytest.mark.parametrize("name", ["k2", "k3", "kt1", "kt2", "kt5", "kt12"])
    def test_rows_are_the_per_pair_draws(self, name, count):
        self._check(self._configs([name], count), seed=count)

    @pytest.mark.parametrize("p", [2, 12])
    def test_mixed_cells_in_cell_order(self, p):
        # the coverage grid: every epsilon with l1, linf and kt
        configs = [statistic_mechanism(mech, p, eps)
                   for eps in (0.0625, 0.5, 4.0) for mech in ("l1", "linf", "kt")]
        self._check(configs, seed=p)

    def test_mixed_balls(self):
        self._check(self._configs(["k3", "l1", "k3", "l2", "l1.5", "linf"], 12), seed=5)

    def test_a_stream_with_an_empty_first_chunk(self):
        config = statistic_mechanism("kt", 12, 1.0)
        proposals = [
            sample_k_mech_rejection(np.zeros(config.dimension), config.ball, 1.0, 1.0, rng,
                                    return_stats=True)[1]["proposals"]
            for _, rng in self._draws([config] * 7, self.EMPTY_FIRST_CHUNK_SEED)]
        assert proposals == [64, 64, 64, 64, 320, 64, 64]
        self._check([config] * 7, self.EMPTY_FIRST_CHUNK_SEED)

    def test_budget_failure_in_one_stream(self, monkeypatch):
        # with 64 proposals each, stream 4 alone runs out: the stack raises
        # that stream's own error
        monkeypatch.setattr(sampling, "MAX_PROPOSALS", 64)
        configs = [statistic_mechanism("kt", 12, 1.0)] * 7
        errors = []
        for config, rng in self._draws(configs, self.EMPTY_FIRST_CHUNK_SEED):
            try:
                sample_noise(config, rng)
            except SamplerError as exc:
                errors.append(str(exc))
        assert errors == ["rejection sampling failed: 0/1 accepted after 64 proposals "
                          "(acceptance rate 0)"]
        with pytest.raises(SamplerError) as exc:
            sample_noise_rows(self._draws(configs, self.EMPTY_FIRST_CHUNK_SEED))
        assert str(exc.value) == errors[0]

    def test_streams_in_several_passes(self, monkeypatch):
        # 70 kt12 first chunks of 64 make 4480 columns, past one pass's
        # (1 << 15) // 79 = 414, the chunk budget: a pass holds 6 chunks, so
        # the first round takes 12 passes, and every pass stays within it
        passes = []
        hull_pass = geometry._hull_pass

        def counted(pieces, chunks, *args):
            passes.append(sum(k for _, k in chunks))
            return hull_pass(pieces, chunks, *args)

        monkeypatch.setattr(geometry, "_hull_pass", counted)
        self._check(self._configs(["kt12"], 70), seed=6)
        assert len(passes) > 12 and max(passes) <= (1 << 15) // 79
        assert sum(passes[:12]) == 70 * 64

    def test_empty_list(self):
        assert sample_noise_rows([]).shape == (0, 0)

    def test_shared_generator_rejected(self):
        rng = RngStream(7, 0).generator()
        config = _noise_config("k2")
        with pytest.raises(ValueError, match="its own generator"):
            sample_noise_rows([(config, rng), (config, rng)])

    def test_mixed_dimensions_rejected(self):
        configs = self._configs(["k2", "k3"], 2)
        with pytest.raises(ValueError, match="dimensions"):
            sample_noise_rows(self._draws(configs, 8))


class ZeroAt:
    """A generator whose first random() draw holds an exact 0.0 at one flat
    index; every other draw is the wrapped generator's."""

    def __init__(self, rng, index):
        self.rng, self.index = rng, index

    def random(self, size):
        u = self.rng.random(size)
        if self.index is not None:
            u.flat[self.index], self.index = 0.0, None
        return u

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestStackedNoise:
    """_noise runs its arithmetic once on the rows of every pair: each row,
    and each generator's end state, is that of the pair-by-pair reference
    (tests/reference.py), compared as bytes so that the sign of a zero
    counts."""

    @staticmethod
    def _pairs(ball, k, seed, wrap=lambda i, rng: rng):
        # budgets and sensitivities vary along the list, so every pair has its own scales
        return [(MechanismConfig(0.25 * (1 + i % 5), 1.0 + i % 3, ball),
                 wrap(i, RngStream(seed, i).generator())) for i in range(k)]

    def _check(self, ball, k, n, seed, wrap=lambda i, rng: rng):
        stacked, alone = self._pairs(ball, k, seed, wrap), self._pairs(ball, k, seed, wrap)
        got, counts = sampling._noise(ball, stacked, n)
        want = noise_pair_by_pair(ball, alone, n)
        assert got.shape == (k * n, ball.dimension) and got.tobytes() == want.tobytes()
        for (_, a), (_, b) in zip(stacked, alone):
            assert a.bit_generator.state == b.bit_generator.state
        if ball.is_lp:
            assert counts == [(n, n)] * k
        return got

    @pytest.mark.parametrize("k", [1, 3, 70])
    @pytest.mark.parametrize("p", [1, 1.5, 2, INF])
    def test_lp_rows_are_the_per_pair_draws(self, p, k):
        for m, n in ((1, 5), (4, 1), (13, 20)):
            self._check(NormBall.lp(p, 1, m), k, n, seed=k)

    @pytest.mark.parametrize("k", [1, 3, 70])
    @pytest.mark.parametrize("name", ["k2", "kt2"])
    def test_hull_radii_are_the_per_pair_radii(self, name, k):
        self._check(ball_from_name(name, 2), k, 3, seed=k)

    def test_zero_uniform_in_a_middle_l1_pair(self):
        # pair 1 of 3 meets an exact 0.0 at its row 2, column 1, and redraws
        # it from its own generator after every pair has drawn
        def wrap(i, rng):
            return ZeroAt(rng, 2 * 4 + 1) if i == 1 else rng

        ball = NormBall.lp(1, 1, 4)
        got = self._check(ball, 3, 5, seed=8, wrap=wrap)
        assert np.isfinite(got).all()
        plain, _ = sampling._noise(ball, self._pairs(ball, 3, 8), 5)
        # only the zeroed entry of pair 1 moved
        moved = got != plain
        assert moved.sum() == 1 and moved[5 + 2, 1]


class TestOneHullPath:
    """Every hull draw goes through one kernel: one NormBall.uniform call
    for all of a ball's generators and at most one budget check, an lp
    draw makes no uniform call, and sample_noise never reaches
    sample_k_mech_rejection."""

    @staticmethod
    def _count(monkeypatch):
        # configs are built before this, so their own budget checks are not
        # counted; the tests call sample_k_mech_rejection by their own name
        calls = Counter()
        uniform, check_budget = NormBall.uniform, sampling._check_budget

        def counted_uniform(self, *args):
            calls[f"uniform[{self.label()}]"] += 1
            return uniform(self, *args)

        def counted_check(*args):
            calls["check_budget"] += 1
            return check_budget(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("sample_k_mech_rejection reached")

        monkeypatch.setattr(NormBall, "uniform", counted_uniform)
        monkeypatch.setattr(sampling, "_check_budget", counted_check)
        monkeypatch.setattr(sampling, "sample_k_mech_rejection", refuse)
        return calls

    @pytest.mark.parametrize("name", ["k2", "k3", "kt3"])
    @pytest.mark.parametrize("size", [None, 1, 40])
    def test_sample_noise(self, monkeypatch, name, size):
        config = MechanismConfig(1.0, 2.0, ball_from_name(name, 3))
        calls = self._count(monkeypatch)
        sample_noise(config, RngStream(33, 0).generator(), size=size)
        assert calls == {f"uniform[{name}]": 1}

    def test_sample_noise_lp_draws_no_uniform_points(self, monkeypatch):
        config = MechanismConfig(1.0, 2.0, NormBall.lp(1.5, 1.0, 3))
        calls = self._count(monkeypatch)
        sample_noise(config, RngStream(33, 1).generator(), size=10)
        assert calls == {}

    def test_sample_noise_rows(self, monkeypatch):
        # one uniform call for all the pairs of a hull ball; none for lp balls
        configs = TestStackedDraws._configs(["k3", "l1", "k3", "l1.5", "linf"], 12)
        draws = TestStackedDraws._draws(configs, 34)
        calls = self._count(monkeypatch)
        sample_noise_rows(draws)
        assert calls == {"uniform[k3]": 1}

    @pytest.mark.parametrize("name", ["k2", "kt3", "l1.5"])
    def test_sample_k_mech_rejection(self, monkeypatch, name):
        ball = ball_from_name(name, 3)
        calls = self._count(monkeypatch)
        sample_k_mech_rejection(np.zeros(ball.dimension), ball, 2.0, 1.0,
                                RngStream(35, 0).generator(), size=20)
        want = {"check_budget": 1} if ball.is_lp else {f"uniform[{name}]": 1, "check_budget": 1}
        assert calls == want
