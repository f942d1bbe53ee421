"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats as sps

from knorm.geometry import NormBall, k2_ball, lp_norm, volume_lp, volume_monte_carlo
from knorm.harness import SimulationConfig, simulate_coverage, simulate_logistic
from knorm.linreg import RegressionDataset, build_statistic, dp_estimate, kt_ball
from knorm.ordering import compare, conditional_variance
from knorm.sampling import (
    MechanismConfig,
    RngStream,
    sample_k_mech_rejection,
    sample_l1_mech,
    sample_l2_mech,
    sample_linf_mech,
    sample_noise,
)
from knorm import quadratic_pair_sensitivity
from reference import summary_value

INF = math.inf
L2_EXACT = 0.25 * math.sqrt(71 + 8 * math.sqrt(2))


def report(number, name, ok, detail, started, limit):
    elapsed = time.time() - started
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {number:02d}] {name}: {verdict} "
          f"({detail}; {elapsed:.1f}s of {limit:.0f}s budget)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded runtime budget"


def test_c01_sensitivity_exactness():
    t0 = time.time()
    got = [quadratic_pair_sensitivity(p) for p in (1, 2, INF)]
    want = [3.125, L2_EXACT, 2.0]
    errs = [abs(g - w) for g, w in zip(got, want)]
    report(1, "sensitivity exactness", max(errs) < 1e-8,
           f"errors {['%.2e' % e for e in errs]}", t0, 1.0)


def test_c02_volume_reproduction():
    t0 = time.time()
    v1 = volume_lp(1, 2, 3.125)
    vinf = volume_lp(INF, 2, 2)
    v2 = volume_lp(2, 2, L2_EXACT)
    est, se = volume_monte_carlo(k2_ball(), 1.0, 1_000_000, seed=7)
    ok = (v1 == 19.53125 and vinf == 16.0 and abs(v2 - 16.162) < 1e-3
          and abs(est - 40.0 / 3.0) <= 3 * se)
    report(2, "volume reproduction", ok,
           f"l1={v1} linf={vinf} l2={v2:.4f} hull={est:.4f}+/-{se:.4f}", t0, 10.0)


def test_c03_gamma_marginal():
    t0 = time.time()
    n = 10_000
    level = 0.01
    fails = []
    for ci, (m, delta, eps) in enumerate([(2, 1.0, 1.0), (7, 2.0, 0.25)]):
        # k2 through the hull kernel, the l1.5 ball through the polar form
        k_ball = k2_ball() if m == 2 else NormBall.lp(1.5, 1.0, m)
        samplers = {
            "l1": lambda rng: (sample_l1_mech(np.zeros(m), delta, eps, rng, size=n),
                               lambda v: lp_norm(v, 1)),
            "l2": lambda rng: (sample_l2_mech(np.zeros(m), delta, eps, rng, size=n),
                               lambda v: lp_norm(v, 2)),
            "linf": lambda rng: (sample_linf_mech(np.zeros(m), delta, eps, rng, size=n),
                                 lambda v: lp_norm(v, INF)),
            "k_mech": lambda rng: (
                sample_k_mech_rejection(np.zeros(m), k_ball, delta, eps, rng, size=n),
                k_ball.gauge_many,
            ),
        }
        cdf = sps.gamma(m, scale=delta / eps).cdf
        for si, (name, draw) in enumerate(samplers.items()):
            rng = RngStream(300, ci * 10 + si).generator()
            v, gauge_of = draw(rng)
            p = sps.kstest(gauge_of(v), cdf).pvalue
            if p <= level:
                fails.append(f"{name}@m={m}:p={p:.4f}")
    report(3, "gamma gauge marginal", not fails,
           "all KS p-values > 0.01" if not fails else f"failed: {fails}", t0, 30.0)


def test_c04_entropy_formula():
    t0 = time.time()
    worst = 0.0
    for m in (1, 2):
        for p in (1, 2, INF):
            config = MechanismConfig(0.8, 1.7, NormBall.lp(p, 1.0, m))
            rng = RngStream(400, m * 10 + (9 if p == INF else int(p))).generator()
            v = sample_noise(config, rng, size=100_000)
            g = config.ball.gauge_many(v)
            log_norm = (m * math.log(config.delta / config.epsilon)
                        + math.lgamma(m + 1) + math.log(volume_lp(p, m, 1.0)))
            neg_log_f = log_norm + config.rate * g
            se = neg_log_f.std(ddof=1) / math.sqrt(len(neg_log_f))
            dev = abs(neg_log_f.mean() - compare(config, config).entropy_a) / se
            worst = max(worst, dev)
    report(4, "entropy closed form vs Monte Carlo", worst <= 4.0,
           f"worst deviation {worst:.2f} SE", t0, 30.0)


def test_c05_order_consistency():
    t0 = time.time()
    rng = np.random.default_rng(500)
    violations = 0
    contained_seen = 0
    for _ in range(20):
        m = int(rng.integers(2, 5))
        configs = []
        for _ in range(2):
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
            # a ball of radius r at sensitivity delta is the unit ball at delta*r
            delta = float(rng.uniform(0.5, 2.5))
            radius = float(rng.uniform(0.5, 2.5))
            configs.append(MechanismConfig(1.0, delta * radius, NormBall.lp(p, 1, m)))
        a, b = configs
        result = compare(a, b)
        if result.containment in ("a_tighter", "b_tighter", "tie"):
            contained_seen += 1
            sides = [(a, result.entropy_a), (b, result.entropy_b)]
            if result.containment == "b_tighter":
                sides.reverse()
            (inner, ent_in), (outer, ent_out) = sides
            vol_in = volume_lp(inner.ball.p, m) * inner.delta**m
            vol_out = volume_lp(outer.ball.p, m) * outer.delta**m
            if vol_in > vol_out * (1 + 1e-12):
                violations += 1
            if ent_in > ent_out + 1e-12:
                violations += 1
    report(5, "containment implies volume and entropy order",
           violations == 0 and contained_seen >= 3,
           f"{contained_seen}/20 pairs ordered, {violations} violations", t0, 30.0)


def test_c06_conditional_variance_ordering():
    t0 = time.time()
    inner = MechanismConfig(1.0, 2.0, NormBall.lp(INF, 1.0, 2))
    outer = MechanismConfig(1.0, math.sqrt(8), NormBall.lp(2, 1.0, 2))
    rng = np.random.default_rng(600)
    ok = True
    for _ in range(50):
        e = rng.standard_normal(2)
        e /= math.sqrt(e @ e)
        if conditional_variance(inner, e) > conditional_variance(outer, e) + 1e-9:
            ok = False
    # Monte Carlo check of the Gamma representation for one direction
    e = np.array([1.0, 0.0])
    g = inner.ball.gauge(e)
    draws = RngStream(600, 1).generator().standard_exponential((200_000, 2)).sum(axis=1)
    draws = draws / (inner.rate * g)
    s2 = draws.var(ddof=1)
    m4 = ((draws - draws.mean()) ** 4).mean()
    se = math.sqrt((m4 - s2**2) / len(draws))
    mc_ok = abs(s2 - conditional_variance(inner, e)) <= 4 * se
    report(6, "conditional variance ordering", ok and mc_ok,
           f"50 directions ordered; MC dev {abs(s2 - conditional_variance(inner, e)) / se:.2f} SE",
           t0, 30.0)


def test_c07_logistic_ordering():
    t0 = time.time()
    config = SimulationConfig(
        eps=(1 / 16, 1 / 8), reps=100, mechanisms=("l1", "l2", "linf"), seed=70,
    )
    table = simulate_logistic(config, n=10_000, q=0.5)
    ok = True
    detail = []
    for eps in config.eps:
        m1 = summary_value(table, eps, "l1", "median_l2_error")
        m2 = summary_value(table, eps, "l2", "median_l2_error")
        minf = summary_value(table, eps, "linf", "median_l2_error")
        detail.append(f"eps={eps:g}: linf={minf:.3f} l2={m2:.3f} l1={m1:.3f}")
        if not (minf < m2 < m1):
            ok = False
    report(7, "logistic median error ordering linf < l2 < l1", ok,
           "; ".join(detail), t0, 1200.0)


def test_c08_coverage_ordering():
    t0 = time.time()
    eps_grid = (0.25, 0.5, 1.0)
    config = SimulationConfig(
        eps=eps_grid, reps=200, mechanisms=("l1", "linf", "kt"), seed=80,
    )
    table = simulate_coverage(config, n=10_000, p=5)
    cov = {
        (eps, mech): summary_value(table, eps, mech, "mean_coverage")
        for eps in eps_grid for mech in config.mechanisms
    }
    ok = True
    detail = []
    for eps in (0.25, 0.5):
        lhs = cov[(eps, "linf")]
        rhs = cov[(2 * eps, "l1")]
        detail.append(f"linf@{eps:g}={lhs:.3f} vs l1@{2*eps:g}={rhs:.3f}")
        if lhs < rhs - 0.05:
            ok = False
    for eps in eps_grid:
        gap = abs(cov[(eps, "kt")] - cov[(eps, "linf")])
        detail.append(f"|kt-linf|@{eps:g}={gap:.3f}")
        if gap > 0.05:
            ok = False
    report(8, "coverage: linf matches l1 at half budget; hull tracks linf", ok,
           "; ".join(detail), t0, 1200.0)


def test_c09_dp_ratio_smoke():
    t0 = time.time()
    eps, n = 1.0, 100_000
    rng = RngStream(900, 0).generator()
    s0 = sample_l1_mech(np.zeros(1), 1.0, eps, rng, size=n)[:, 0]
    s1 = sample_l1_mech(np.ones(1), 1.0, eps, rng, size=n)[:, 0]
    edges = np.arange(-8.0, 9.01, 0.5)
    c0, _ = np.histogram(s0, bins=edges)
    c1, _ = np.histogram(s1, bins=edges)
    ok = True
    checked = 0
    worst = 0.0
    for a, b in zip(c0, c1):
        if a >= 100 and b >= 100:
            checked += 1
            ratio = max(a / b, b / a)
            bound = math.exp(eps) * (1 + 5 * math.sqrt(1 / a + 1 / b))
            worst = max(worst, ratio / bound)
            if ratio > bound:
                ok = False
    report(9, "Laplace histogram ratio bound", ok and checked >= 10,
           f"{checked} bins checked, worst ratio/bound {worst:.3f}", t0, 30.0)


def test_c10_exact_statistics_regression():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(50, 400))
        p = int(rng.integers(1, 6))
        design = np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, p))])
        y = rng.uniform(-1, 1, n)
        data = RegressionDataset(design, y)
        beta = dp_estimate(build_statistic(data), n)
        ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        worst = max(worst, float(np.abs(beta - ols).max()))
    report(10, "zero-noise estimate equals OLS", worst < 1e-8,
           f"worst deviation {worst:.2e}", t0, 5.0)


def test_c11_sensitivity_space_containment():
    t0 = time.time()
    rng = np.random.default_rng(1100)
    ok = True
    detail = []
    for p in (1, 2, 5):
        ball = kt_ball(p)
        n_trials = 10_000
        rows_a = rng.uniform(-1, 1, (n_trials, p + 1))
        rows_b = rng.uniform(-1, 1, (n_trials, p + 1))
        diffs = np.empty((n_trials, ball.dimension))
        for i in range(n_trials):
            da = RegressionDataset(
                np.concatenate([[1.0], rows_a[i, :p]])[None, :], rows_a[i, p:])
            db = RegressionDataset(
                np.concatenate([[1.0], rows_b[i, :p]])[None, :], rows_b[i, p:])
            diffs[i] = build_statistic(da).values - build_statistic(db).values
        slot_max = float(np.abs(diffs).max())
        inside = bool(ball.member_many(diffs).all())
        detail.append(f"p={p}: max slot {slot_max:.4f}, inside={inside}")
        if slot_max > 2.0 + 1e-12 or not inside:
            ok = False
    report(11, "single-row differences stay in the hull body", ok,
           "; ".join(detail), t0, 120.0)
