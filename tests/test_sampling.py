import dataclasses
import math

import numpy as np
import pytest
import scipy.stats as sps

from knorm.geometry import NormBall, k2_ball, lp_norm
from knorm.sampling import (
    MechanismConfig,
    RngStream,
    SamplerError,
    sample_gamma_int,
    sample_k_mech_rejection,
    sample_l1_mech,
    sample_l2_mech,
    sample_linf_mech,
    sample_lp_mech,
    sample_noise,
)

INF = math.inf
KS_LEVEL = 0.01


def gamma_cdf_oracle(shape, rate):
    return sps.gamma(shape, scale=1.0 / rate).cdf


class TestGammaInt:
    def test_mean(self):
        rng = RngStream(1, 0).generator()
        draws = sample_gamma_int(3, 2.0, rng, size=100_000)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.5) <= 4 * se

    def test_variance(self):
        rng = RngStream(1, 1).generator()
        draws = sample_gamma_int(3, 2.0, rng, size=100_000)
        s2 = draws.var(ddof=1)
        m4 = ((draws - draws.mean()) ** 4).mean()
        se = math.sqrt((m4 - s2**2) / len(draws))
        assert abs(s2 - 0.75) <= 4 * se

    def test_ks_against_gamma_cdf(self):
        rng = RngStream(1, 2).generator()
        draws = sample_gamma_int(3, 2.0, rng, size=10_000)
        stat = sps.kstest(draws, gamma_cdf_oracle(3, 2.0))
        assert stat.pvalue > KS_LEVEL

    def test_scalar_draw(self):
        rng = RngStream(1, 3).generator()
        x = sample_gamma_int(2, 1.0, rng)
        assert isinstance(x, float) and x > 0

    def test_bad_args(self):
        rng = RngStream(1, 4).generator()
        with pytest.raises(ValueError):
            sample_gamma_int(0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma_int(2.5, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma_int(2, -1.0, rng)


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
        box = NormBall.from_oracle(
            lambda pts: np.abs(pts).max(axis=1) <= 1.0, lambda pts: lp_norm(pts, INF),
            linf_bound=1.0, dimension=2, name="box",
        )
        rng = RngStream(5, 0).generator()
        v_rej = sample_k_mech_rejection(np.zeros(2), box, 1.0, 1.0, rng, size=10_000)
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
        # box rejection on the k2 predicate accepts its exact volume over the box's
        box = dataclasses.replace(k2_ball(), uniform_fn=None, box_fraction_fn=None)
        rng = RngStream(5, 3).generator()
        _, stats = sample_k_mech_rejection(
            np.zeros(2), box, 1.0, 1.0, rng, size=10_000, return_stats=True
        )
        expected = (40.0 / 3.0) / 16.0
        se = math.sqrt(expected * (1 - expected) / stats["proposals"])
        assert abs(stats["acceptance_rate"] - expected) <= 4 * se

    def test_max_attempts_fails_loudly(self):
        thin = NormBall.from_oracle(
            lambda pts: lp_norm(pts, 2) <= 0.01, lambda pts: lp_norm(pts, 2) / 0.01,
            linf_bound=1.0, dimension=2, name="thin",
        )
        rng = RngStream(5, 4).generator()
        with pytest.raises(SamplerError, match="acceptance rate"):
            sample_k_mech_rejection(
                np.zeros(2), thin, 1.0, 1.0, rng, size=5000, max_attempts=2000
            )

    def test_dimension_mismatch(self):
        rng = RngStream(5, 5).generator()
        with pytest.raises(ValueError):
            sample_k_mech_rejection(np.zeros(3), k2_ball(), 1.0, 1.0, rng)


class TestLpMech:
    # Two-sample KS of the polar sampler against box rejection on the same
    # ball: each coordinate and the max norm, 10 tests over the three
    # (p, m) cases, Bonferroni-corrected to a family false-alarm rate of 0.01
    FAMILY_LEVEL = 0.01
    CASES = ((1.5, 2), (1.5, 3), (3.0, 2))
    N_TESTS = sum(m + 1 for _, m in CASES)

    @pytest.mark.parametrize("case", range(3))
    def test_matches_box_rejection_two_sample_ks(self, case):
        p, m = self.CASES[case]
        ball = NormBall.lp(p, 1.0, m)
        polar = sample_noise(MechanismConfig(1.0, 1.0, ball),
                             RngStream(10, 2 * case).generator(), size=40_000)
        box = sample_k_mech_rejection(np.zeros(m), ball, 1.0, 1.0,
                                      RngStream(10, 2 * case + 1).generator(),
                                      size=40_000)
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
        config = MechanismConfig(1.0, 1.0, NormBall.lp(1.5, 2.0, 4))
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
    # radius != 1: the gauge ||v||_p / r is Gamma(m, eps/Delta)
    if name == "l1.5":
        return MechanismConfig(0.7, 1.5, NormBall.lp(1.5, 2.0, 3))
    if name == "l3":
        return MechanismConfig(2.0, 1.0, NormBall.lp(3, 0.5, 2))
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
        assert config.label
