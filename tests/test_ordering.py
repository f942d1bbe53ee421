import math

import numpy as np
import pytest
import scipy.stats as sps

from knorm import gamma_cdf, gamma_quantile
from knorm import ordering
from knorm.geometry import (
    NormBall, ScaledBall, ball_containment, k2_ball, k3_ball, volume_lp, volume_monte_carlo,
)
from knorm.linreg import kt_ball
from knorm.ordering import (
    compare,
    concentration_radius,
    conditional_variance,
    depth,
    entropy,
    stochastic_tightness,
)
from knorm.sampling import MechanismConfig, RngStream, sample_noise
from reference import kt_box_fraction

INF = math.inf

L1_EXACT = 3.125
L2_EXACT = 0.25 * math.sqrt(71 + 8 * math.sqrt(2))
LINF_EXACT = 2.0


def lp_config(p, delta, m=2, eps=1.0, label=None):
    return MechanismConfig(
        eps, delta, NormBall.lp(p, 1.0, m), label=label or f"l{p}"
    )


class TestIncompleteGamma:
    @pytest.mark.parametrize("shape", [0.5, 1, 2, 3, 7, 26, 50])
    def test_matches_scipy(self, shape):
        rate = 0.5
        xs = np.linspace(0.01, 4 * shape, 200) / rate
        ours = np.array([gamma_cdf(x, shape, rate) for x in xs])
        ref = sps.gamma.cdf(xs, shape, scale=1.0 / rate)
        assert np.abs(ours - ref).max() < 1e-12
        assert gamma_cdf(0.0, shape, rate) == gamma_cdf(-1.0, shape, rate) == 0.0

    def test_quantile_matches_scipy(self):
        for shape, rate, alpha in [(2, 1, 0.5), (7, 0.125, 0.9), (1, 1, 0.6321), (26, 2, 0.05)]:
            ours = gamma_quantile(alpha, shape, rate)
            ref = sps.gamma.ppf(alpha, shape, scale=1.0 / rate)
            assert math.isclose(ours, ref, rel_tol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_cdf(1.0, -1, 1.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, 2, 0.0)
        with pytest.raises(ValueError):
            gamma_quantile(1.5, 2, 1)
        with pytest.raises(ValueError):
            gamma_quantile(0.5, 2, -1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, INF, -INF])
    @pytest.mark.parametrize("which", ["shape", "rate"])
    def test_shape_and_rate_must_be_positive_and_finite(self, which, bad):
        # a NaN fails no "<= 0" test, so it used to come back as a nan result,
        # and an infinite rate as a 0.0 quantile
        args = {"shape": 2.0, "rate": 1.0, which: bad}
        with pytest.raises(ValueError, match=f"{which} must be positive and finite"):
            gamma_cdf(1.0, args["shape"], args["rate"])
        with pytest.raises(ValueError, match=f"{which} must be positive and finite"):
            gamma_quantile(0.5, args["shape"], args["rate"])

    def test_valid_inputs_are_scipy_special_bit_for_bit(self):
        from scipy.special import gammainc, gammaincinv

        xs = np.linspace(0.0, 20.0, 101)
        for shape, rate in [(0.5, 0.5), (2, 1.0), (7, 0.125), (26, 2.0)]:
            assert np.array_equal(gamma_cdf(xs, shape, rate), gammainc(shape, rate * xs))
            for alpha in (0.05, 0.5, 0.99):
                assert gamma_quantile(alpha, shape, rate) == float(gammaincinv(shape, alpha)) / rate


class TestEntropy:
    def test_laplace_1d(self):
        config = MechanismConfig(1.0, 1.0, NormBall.lp(1, 1, 1))
        assert math.isclose(entropy(config), math.log(2 * math.e), rel_tol=1e-12)

    def test_linf_2d(self):
        config = MechanismConfig(1.0, 2.0, NormBall.lp(INF, 1, 2))
        assert math.isclose(entropy(config), math.log(32 * math.e**2), rel_tol=1e-12)

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 1), (INF, 1), (1, 2), (2, 2), (INF, 2)])
    def test_monte_carlo_agreement(self, p, m):
        # E[-log f(V)] over draws matches the closed form within 4 SE
        config = MechanismConfig(1.0, 1.5, NormBall.lp(p, 1.0, m))
        rng = RngStream(31, m * 10 + (7 if p == INF else int(p))).generator()
        v = sample_noise(config, rng, size=100_000)
        g = config.ball.gauge_many(v)
        log_norm = (
            config.dimension * math.log(config.delta / config.epsilon)
            + math.lgamma(config.dimension + 1)
            + math.log(volume_lp(p, m, 1.0))
        )
        neg_log_f = log_norm + config.rate * g
        se = neg_log_f.std(ddof=1) / math.sqrt(len(neg_log_f))
        assert abs(neg_log_f.mean() - entropy(config)) <= 4 * se

    def test_exact_radii_entropy_ordering(self):
        h_inf = entropy(lp_config(INF, LINF_EXACT))
        h_2 = entropy(lp_config(2, L2_EXACT))
        h_1 = entropy(lp_config(1, L1_EXACT))
        assert h_inf < h_2 < h_1

    def test_hull_entropy_needs_volume_unless_exact(self):
        # k2 and kt1-kt3 carry their exact volumes; kt4 and above have none,
        # so they still need one
        config = MechanismConfig(1.0, 1.0, k2_ball())
        h = entropy(config)
        assert abs(h - entropy(config, ball_volume=40.0 / 3.0)) <= 1e-12
        assert abs(h - (2.0 + math.log(2.0) + math.log(40.0 / 3.0))) <= 1e-12
        assert h < entropy(lp_config(INF, LINF_EXACT))
        kt3 = MechanismConfig(1.0, 1.0, kt_ball(3))
        h3 = 13.0 + math.lgamma(14.0) + math.log(kt_box_fraction(3)) + 13 * math.log(4.0)
        assert math.isclose(entropy(kt3), h3, rel_tol=1e-14)
        assert entropy(kt3) == entropy(kt3, ball_volume=kt3.ball.volume)
        kt4 = MechanismConfig(1.0, 1.0, kt_ball(4))
        with pytest.raises(ValueError):
            entropy(kt4)
        assert math.isfinite(entropy(kt4, ball_volume=2.0))


class TestConcentrationRadius:
    def test_exponential_quantile(self):
        config = MechanismConfig(1.0, 1.0, NormBall.lp(1, 1, 1))
        t = concentration_radius(config, 1 - math.exp(-1))
        assert math.isclose(t, 1.0, rel_tol=1e-9)

    def test_gamma2_median(self):
        config = MechanismConfig(1.0, 1.0, NormBall.lp(1, 1, 2))
        t = concentration_radius(config, 0.5)
        # root of the Gamma(2,1) CDF at 1/2, found independently by bisection
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 1 - (1 + mid) * math.exp(-mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert math.isclose(t, 0.5 * (lo + hi), rel_tol=1e-8)
        assert round(t, 4) == 1.6783

    def test_monotone_in_alpha(self):
        config = MechanismConfig(0.7, 2.0, NormBall.lp(2, 1, 3))
        radii = [concentration_radius(config, a) for a in (0.1, 0.5, 0.9, 0.99)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_alpha_domain(self):
        config = MechanismConfig(1.0, 1.0, NormBall.lp(1, 1, 1))
        with pytest.raises(ValueError):
            concentration_radius(config, 0.0)
        with pytest.raises(ValueError):
            concentration_radius(config, 1.0)


class TestStochasticTightness:
    def test_approx_radii_chain(self):
        a = lp_config(INF, 2.0, label="linf")
        b = lp_config(2, math.sqrt(8), label="l2")
        c = lp_config(1, 4.0, label="l1")
        assert stochastic_tightness(a, b) == "a_tighter"
        assert stochastic_tightness(b, c) == "a_tighter"
        assert stochastic_tightness(c, a) == "b_tighter"

    def test_exact_radii_incomparable(self):
        assert stochastic_tightness(
            lp_config(1, L1_EXACT), lp_config(INF, LINF_EXACT)
        ) == "incomparable"

    def test_identical_tie(self):
        a = lp_config(2, 1.5)
        assert stochastic_tightness(a, lp_config(2, 1.5)) == "tie"

    def test_requires_equal_epsilon(self):
        with pytest.raises(ValueError):
            stochastic_tightness(lp_config(1, 1.0, eps=1.0), lp_config(1, 1.0, eps=2.0))

    def test_requires_equal_dimension(self):
        with pytest.raises(ValueError):
            stochastic_tightness(lp_config(1, 1.0, m=2), lp_config(1, 1.0, m=3))


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize("call", ["volume_monte_carlo", "ball_containment",
                                  "stochastic_tightness", "compare"])
def test_bad_seed_refused_with_the_shared_message(call, seed, monkeypatch):
    # numpy raised its own ValueError for -1 and a TypeError for 1.5; compare
    # refuses it before kt4's Monte Carlo volume, and ball_containment for
    # every pair, also one that never samples
    def estimate(*args, **kwargs):
        raise AssertionError("the volume was estimated before the seed was checked")

    monkeypatch.setattr(ordering, "volume_monte_carlo", estimate)
    l2 = NormBall.lp(2, 1.0, 2)
    k2 = MechanismConfig(1.0, 1.0, k2_ball())
    kt4 = MechanismConfig(1.0, 1.0, kt_ball(4), label="kt4")
    with pytest.raises(ValueError) as exc:
        {
            "volume_monte_carlo": lambda: volume_monte_carlo(k2_ball(), 1.0, 1000, seed),
            "ball_containment": lambda: ball_containment(ScaledBall(l2, 1.0),
                                                         ScaledBall(l2, 2.0), seed),
            "stochastic_tightness": lambda: stochastic_tightness(lp_config(2, 1.0), k2, seed),
            "compare": lambda: compare(lp_config(INF, 2.0, m=kt4.dimension), kt4, seed),
        }[call]()
    assert str(exc.value) == f"seed must be an integer >= 0, got {seed}"


class TestDepth:
    def test_max_at_center(self):
        config = lp_config(2, 1.0)
        assert depth(config, [0.0, 0.0]) == 1.0

    def test_median_gauge_depth_half(self):
        config = lp_config(2, 2.0, eps=0.5)
        t = gamma_quantile(0.5, config.dimension, config.rate)
        v = np.array([t * config.ball.radius, 0.0])
        assert abs(depth(config, v) - 0.5) < 1e-9

    def test_decreasing_along_rays(self):
        config = lp_config(1, 1.3)
        rng = np.random.default_rng(40)
        for _ in range(50):
            v = rng.uniform(-2, 2, 2)
            assert depth(config, 2 * v) <= depth(config, v) + 1e-12

    def test_depends_only_on_gauge(self):
        config = MechanismConfig(1.0, 1.0, k2_ball())
        # (1,2) and (-1,2) share gauge 1 by symmetry
        assert math.isclose(
            depth(config, [1.0, 2.0]), depth(config, [-1.0, 2.0]), rel_tol=1e-9
        )


class TestConditionalVariance:
    def test_l2_example(self):
        config = lp_config(2, 1.0)
        for e in ([1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]):
            assert math.isclose(conditional_variance(config, e), 2.0, rel_tol=1e-9)

    def test_contained_pair_ordering_and_values(self):
        inner = lp_config(INF, 2.0)
        outer = lp_config(2, math.sqrt(8))
        e = [1.0, 0.0]
        v_in = conditional_variance(inner, e)
        v_out = conditional_variance(outer, e)
        assert math.isclose(v_in, 8.0, rel_tol=1e-9)
        assert math.isclose(v_out, 16.0, rel_tol=1e-9)
        assert v_in <= v_out

    def test_delta_scaling(self):
        e = [0.6, 0.8]
        v1 = conditional_variance(lp_config(1, 1.0), e)
        v2 = conditional_variance(lp_config(1, 2.0), e)
        assert math.isclose(v2, 4 * v1, rel_tol=1e-12)

    def test_unit_norm_required(self):
        with pytest.raises(ValueError):
            conditional_variance(lp_config(2, 1.0), [1.0, 1.0])

    def test_monte_carlo_gamma_representation(self):
        # |V'e| given V in span(e) is (1/||e||_K) Gamma(m, eps/delta)
        config = lp_config(INF, 2.0)
        e = np.array([1.0, 0.0])
        g = config.ball.gauge(e)
        rng = RngStream(41, 0).generator()
        draws = rng.standard_exponential((100_000, 2)).sum(axis=1) / (config.rate * g)
        s2 = draws.var(ddof=1)
        m4 = ((draws - draws.mean()) ** 4).mean()
        se = math.sqrt((m4 - s2**2) / len(draws))
        assert abs(s2 - conditional_variance(config, e)) <= 4 * se

    def test_fifty_directions_contained_pair(self):
        inner = lp_config(INF, 2.0)
        outer = lp_config(2, math.sqrt(8))
        rng = np.random.default_rng(42)
        for _ in range(50):
            e = rng.standard_normal(2)
            e /= math.sqrt(e @ e)
            assert conditional_variance(inner, e) <= conditional_variance(outer, e) + 1e-9


def random_lp_config(rng, m, eps):
    p = rng.choice([1.0, 1.5, 2.0, 3.0, INF])
    radius = rng.uniform(0.5, 2.5)
    delta = rng.uniform(0.5, 2.5)
    return MechanismConfig(eps, delta, NormBall.lp(p, radius, m))


class TestOrderConsistency:
    def test_containment_implies_volume_and_entropy(self):
        rng = np.random.default_rng(50)
        checked = 0
        for trial in range(20):
            m = int(rng.integers(2, 5))
            a = random_lp_config(rng, m, eps=1.0)
            b = random_lp_config(rng, m, eps=1.0)
            verdict = stochastic_tightness(a, b)
            va = volume_lp(a.ball.p, m, a.ball.radius) * a.delta**m
            vb = volume_lp(b.ball.p, m, b.ball.radius) * b.delta**m
            if verdict == "a_tighter":
                assert va <= vb * (1 + 1e-12)
                assert entropy(a) <= entropy(b) + 1e-12
                checked += 1
            elif verdict == "b_tighter":
                assert vb <= va * (1 + 1e-12)
                assert entropy(b) <= entropy(a) + 1e-12
                checked += 1
        assert checked >= 3

    def test_entropy_volume_equivalence(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            a = random_lp_config(rng, m, eps=1.0)
            b = random_lp_config(rng, m, eps=1.0)
            va = volume_lp(a.ball.p, m, a.ball.radius) * a.delta**m
            vb = volume_lp(b.ball.p, m, b.ball.radius) * b.delta**m
            assert (entropy(a) <= entropy(b)) == (va <= vb)


class TestCompare:
    def test_exact_radii_prefers_linf_by_volume(self):
        report = compare(lp_config(1, L1_EXACT, label="l1"),
                         lp_config(INF, LINF_EXACT, label="linf"), seed=1)
        assert report.preferred_by_containment == "incomparable"
        assert report.preferred_by_volume == "linf"
        assert report.containment_witness is not None
        report2 = compare(lp_config(2, L2_EXACT, label="l2"),
                          lp_config(INF, LINF_EXACT, label="linf"), seed=2)
        assert report2.preferred_by_volume == "linf"

    def test_approx_radii_containment_chain(self):
        r1 = compare(lp_config(INF, 2.0, label="linf"),
                     lp_config(2, math.sqrt(8), label="l2"), seed=3)
        assert r1.preferred_by_containment == "linf"
        r2 = compare(lp_config(2, math.sqrt(8), label="l2"),
                     lp_config(1, 4.0, label="l1"), seed=4)
        assert r2.preferred_by_containment == "l2"

    def test_hull_beats_every_exact_lp_ball_by_volume(self):
        hull = MechanismConfig(1.0, 1.0, k2_ball(), label="hull")
        for p, delta in [(1, L1_EXACT), (2, L2_EXACT), (INF, LINF_EXACT)]:
            report = compare(hull, lp_config(p, delta), seed=5, n_mc=400_000)
            assert report.preferred_by_volume == "hull"

    def test_containment_implies_volume_within_error(self):
        report = compare(lp_config(INF, 2.0, label="linf"),
                         lp_config(2, math.sqrt(8), label="l2"), seed=6)
        se = math.hypot(report.volume_se_a, report.volume_se_b)
        assert report.volume_a <= report.volume_b + 4 * se

    def test_volume_preference_never_incomparable(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            a = random_lp_config(rng, 2, 1.0)
            b = random_lp_config(rng, 2, 1.0)
            report = compare(a, b, seed=7)
            assert report.preferred_by_volume != "incomparable"

    def test_identical_mechanisms_tie(self):
        a = lp_config(2, 1.0, label="a")
        b = MechanismConfig(1.0, 1.0, NormBall.lp(2, 1.0, 2), label="b")
        report = compare(a, b, seed=8)
        assert report.preferred_by_containment == "tie"
        assert report.preferred_by_volume == "tie"

    def test_known_volumes_are_exact(self):
        hull = MechanismConfig(1.0, 0.5, k2_ball(), label="hull")
        report = compare(hull, lp_config(INF, 2.0), seed=9)
        assert report.volume_a == (40.0 / 3.0) * 0.25 and report.volume_se_a == 0.0
        assert report.volume_b == 16.0 and report.volume_se_b == 0.0
        assert report.entropy_a == entropy(hull)
        assert report.preferred_by_volume == "hull"

    def test_monte_carlo_only_for_unknown_volumes(self, monkeypatch):
        calls = []
        real = ordering.volume_monte_carlo

        def spy(ball, **kwargs):
            calls.append(ball.name)
            return real(ball, **kwargs)

        monkeypatch.setattr(ordering, "volume_monte_carlo", spy)
        k3 = MechanismConfig(1.0, 1.0, k3_ball(), label="k3")
        compare(k3, lp_config(INF, 2.0, m=3), seed=10)
        compare(MechanismConfig(1.0, 1.0, k2_ball()), lp_config(2, 3.0), seed=11)
        for p in (1, 2, 3):
            kt = MechanismConfig(1.0, 1.0, kt_ball(p), label=f"kt{p}")
            report = compare(kt, lp_config(INF, 2.0, m=kt.dimension), seed=12)
            assert report.volume_se_a == 0.0
        assert calls == []
        kt4 = MechanismConfig(1.0, 1.0, kt_ball(4), label="kt4")
        report = compare(kt4, lp_config(INF, 2.0, m=19), seed=12, n_mc=20_000)
        assert calls == ["kt4"]
        assert report.volume_se_a > 0.0
        assert report.preferred_by_volume == "kt4"

    def test_zero_hit_monte_carlo_names_ball_and_budget(self):
        # the piece-weight products of kt140 underflow to 0 at every one of
        # 1000 uniform sums, so its box-fraction estimate is exactly 0
        ball = kt_ball(140)
        config = MechanismConfig(1.0, 1.0, ball, label="kt140:1")
        with pytest.raises(ValueError, match=r"kt140:1 .*raise n_mc"):
            compare(config, lp_config(INF, 2.0, m=ball.dimension), seed=0, n_mc=1000)

    def test_volume_verdict_past_float_range(self):
        # kt20 at Delta 20 has a volume past the float range, l-inf radius 2
        # at m = 251 does not; the estimate (relative SE about 0.06 here) is
        # far from a tie, even though its standard error also reads inf
        kt20 = MechanismConfig(1.0, 20.0, kt_ball(20), label="kt20:20")
        linf = lp_config(INF, 2.0, m=251, label="linf:2")
        report = compare(kt20, linf, seed=0, n_mc=100_000)
        assert report.volume_a == math.inf and math.isfinite(report.volume_b)
        assert math.isfinite(report.entropy_a) and report.entropy_a > report.entropy_b
        assert report.preferred_by_volume == "linf:2"

    def test_kt20_estimates_its_own_volume(self):
        # kt20 fills about 1e-18 of its box; its box-fraction weights are
        # positive almost surely, so 1000 samples give a finite entropy
        kt20 = MechanismConfig(1.0, 1.0, kt_ball(20), label="kt20:1")
        report = compare(kt20, lp_config(INF, 2.0, m=251), seed=0, n_mc=1000)
        assert 0.0 < report.volume_a < report.volume_b
        assert math.isfinite(report.entropy_a)
        assert report.preferred_by_volume == "kt20:1"
