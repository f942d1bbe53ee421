"""Per-layer metrics: public functions of each knorm module timed on fixed inputs.

Every input comes from a fixed seed, so the work is identical on every run
and the counts (Newton iterations, loss evaluations, rejection proposals,
kt acceptance) repeat exactly. Times are medians over batches after a
warm-up call.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from time import perf_counter

import numpy as np

from knorm import (
    MechanismConfig,
    NormBall,
    ObjPertConfig,
    RegressionDataset,
    RngStream,
    ScaledBall,
    ball_containment,
    build_statistic,
    compare,
    concentration_radius,
    depth,
    dp_estimate,
    gamma_cdf,
    gamma_quantile,
    k2_ball,
    k3_ball,
    kt_ball,
    logistic_loss_spec,
    logistic_sensitivity,
    minimize_erm,
    objective_perturbation,
    sample_k_mech_rejection,
    sample_noise,
    sanitize_statistic,
    volume_monte_carlo,
)
from knorm.harness import DEFAULT_LOGISTIC_EPS, LOGISTIC_BETA, ks_statistic, run_diagnostics

#: uniform [-2,2]^d points per p in the kt acceptance sweep
KT_SWEEP_POINTS = 1 << 17
KT_SWEEP_CHUNK = 1 << 14
LINF = math.inf


def per_call(fn, budget=0.25, batches=5):
    """Median seconds per call of fn, over batches sized to fill about budget seconds."""
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    n = max(1, int(budget / batches / max(first, 1e-7)))
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples)


def geometry_metrics():
    rng = np.random.default_rng(11)
    out = {}
    kt12 = kt_ball(12)
    pts = rng.uniform(-2.0, 2.0, size=(KT_SWEEP_CHUNK, kt12.dimension))
    out["geometry.kt12_member_pts_per_s"] = len(pts) / per_call(lambda: kt12.member_many(pts))
    for name, ball, n in (("k2", k2_ball(), 4096), ("k3", k3_ball(), 4096),
                          ("kt5", kt_ball(5), 256)):
        dirs = rng.standard_normal((n, ball.dimension))
        out[f"geometry.{name}_gauge_pts_per_s"] = n / per_call(lambda: ball.gauge_many(dirs))
    k2 = k2_ball()
    x = rng.standard_normal(2)
    out["geometry.k2_gauge_single_us"] = 1e6 * per_call(lambda: k2.gauge(x))
    kt3 = kt_ball(3)
    n = 1 << 17
    out["geometry.kt3_mc_volume_pts_per_s"] = n / per_call(
        lambda: volume_monte_carlo(kt3, n_samples=n, seed=0), batches=3)
    a = ScaledBall(k2, 1.0)
    b = ScaledBall(NormBall.lp(LINF, 1.0, 2), 2.0)
    out["geometry.k2_linf_containment_ms"] = 1e3 * per_call(lambda: ball_containment(a, b))
    return out


def sampling_metrics():
    out = {}
    for name, p in (("l1", 1), ("l2", 2), ("linf", LINF)):
        # the noise objective_perturbation draws for m = 7, eps*q = 0.5
        cfg = MechanismConfig(epsilon=0.5, delta=logistic_sensitivity(7, p),
                              ball=NormBall.lp(p, 1.0, 7))
        g = RngStream(12, 0).generator()
        out[f"sampling.{name}_m7_draw_us"] = 1e6 * per_call(lambda: sample_noise(cfg, g))

    # single draws, as sanitize_statistic makes them
    kt12 = kt_ball(12)
    zero = np.zeros(kt12.dimension)
    per_draw, proposals, draws = [], 0, 0
    for stream in range(3):
        g = RngStream(13, stream).generator()
        t0 = perf_counter()
        for _ in range(100):
            _, stats = sample_k_mech_rejection(zero, kt12, 1.0, 1.0, g, return_stats=True)
            proposals += stats["proposals"]
            draws += 1
        per_draw.append((perf_counter() - t0) / 100)
    out["sampling.kt12_draw_ms"] = 1e3 * statistics.median(per_draw)
    out["sampling.kt12_proposals_per_draw"] = proposals / draws
    out["sampling.kt12_useful_ratio"] = draws / proposals

    k2 = k2_ball()
    g = RngStream(14, 0).generator()
    out["sampling.k2_draws_per_s"] = 10_000 / per_call(
        lambda: sample_k_mech_rejection(np.zeros(2), k2, 1.0, 1.0, g, size=10_000))

    l1p5 = NormBall.lp(1.5, 1.0, 10)
    g = RngStream(15, 0).generator()
    per_draw, accepted, proposals = [], 0, 0
    for _ in range(3):
        t0 = perf_counter()
        _, stats = sample_k_mech_rejection(np.zeros(10), l1p5, 1.0, 1.0, g, size=100,
                                           return_stats=True)
        per_draw.append((perf_counter() - t0) / 100)
        accepted += stats["accepted"]
        proposals += stats["proposals"]
    out["sampling.l1p5_m10_accept"] = accepted / proposals
    out["sampling.l1p5_m10_draw_ms"] = 1e3 * statistics.median(per_draw)

    out.update(kt_acceptance_sweep())
    return out


def kt_acceptance_sweep():
    """Fraction of uniform [-2,2]^d points inside kt_ball(p), p = 1..16, with standard errors."""
    out = {}
    for p in range(1, 17):
        ball = kt_ball(p)
        rng = np.random.default_rng([16, p])
        hits = 0
        for _ in range(KT_SWEEP_POINTS // KT_SWEEP_CHUNK):
            pts = rng.uniform(-2.0, 2.0, size=(KT_SWEEP_CHUNK, ball.dimension))
            hits += int(ball.member_many(pts).sum())
        rate = hits / KT_SWEEP_POINTS
        out[f"sampling.kt_accept_p{p}"] = rate
        out[f"sampling.kt_accept_se_p{p}"] = math.sqrt(rate * (1.0 - rate) / KT_SWEEP_POINTS)
    return out


def _counting(fn, counter, key):
    def counted(*args):
        counter[key] += 1
        return fn(*args)
    return counted


def erm_metrics():
    out = {}
    g = RngStream(17, 0).generator()
    m = len(LOGISTIC_BETA)
    X = g.uniform(-1.0, 1.0, size=(10_000, m))
    y = (g.random(10_000) < 1.0 / (1.0 + np.exp(-(X @ LOGISTIC_BETA)))).astype(float)
    specs = {p: logistic_loss_spec(m, p) for p in (1, 2, LINF)}
    configs = [ObjPertConfig(epsilon=eps, q=0.5, loss=specs[p])
               for eps in DEFAULT_LOGISTIC_EPS for p in specs]

    def fit_all(configs):
        for i, cfg in enumerate(configs):
            objective_perturbation(cfg, X, y, RngStream(17, 1 + i).generator())

    counts = {"loss": 0, "hess": 0}
    counted = [
        dataclasses.replace(cfg, loss=dataclasses.replace(
            cfg.loss,
            loss_and_grad=_counting(cfg.loss.loss_and_grad, counts, "loss"),
            hess=_counting(cfg.loss.hess, counts, "hess"),
        ))
        for cfg in configs
    ]
    fit_all(counted)
    # minimize_erm evaluates the Hessian once per Newton step
    out["erm.newton_iters_per_fit"] = counts["hess"] / len(configs)
    out["erm.loss_evals_per_fit"] = counts["loss"] / len(configs)
    out["erm.fit_ms"] = 1e3 * per_call(lambda: fit_all(configs), batches=3) / len(configs)
    spec = specs[LINF]
    out["erm.mle_fit_ms"] = 1e3 * per_call(lambda: minimize_erm(spec, X, y))
    theta = LOGISTIC_BETA.copy()
    out["erm.loss_grad_ms"] = 1e3 * per_call(lambda: spec.loss_and_grad(theta, X, y))
    out["erm.hess_ms"] = 1e3 * per_call(lambda: spec.hess(theta, X, y))
    return out


def linreg_metrics():
    out = {}
    p, n = 12, 10_000
    g = RngStream(18, 0).generator()
    X = np.empty((n, p + 1))
    X[:, 0] = 1.0
    X[:, 1:] = g.uniform(-1.0, 1.0, size=(n, p))
    beta = np.concatenate([[0.0], np.linspace(-1.5, 1.5, p)])
    data = RegressionDataset(X, X @ beta + g.standard_normal(n), validate=False)
    out["linreg.build_statistic_ms"] = 1e3 * per_call(lambda: build_statistic(data))
    stat = build_statistic(data)
    g = RngStream(18, 1).generator()
    for mech in ("l1", "linf", "kt"):
        out[f"linreg.sanitize_{mech}_ms"] = 1e3 * per_call(
            lambda: sanitize_statistic(stat, mech, 1.0, g))
    noisy = sanitize_statistic(stat, "linf", 1.0, g)
    out["linreg.dp_estimate_us"] = 1e6 * per_call(lambda: dp_estimate(noisy, n))
    return out


def ordering_metrics():
    out = {}
    k2 = MechanismConfig(epsilon=1.0, delta=1.0, ball=k2_ball(), label="k2:1")
    linf2 = MechanismConfig(epsilon=1.0, delta=2.0, ball=NormBall.lp(LINF, 1.0, 2))
    out["ordering.compare_k2_linf_ms"] = 1e3 * per_call(lambda: compare(k2, linf2))
    kt3 = MechanismConfig(epsilon=1.0, delta=1.0, ball=kt_ball(3))
    linf13 = MechanismConfig(epsilon=1.0, delta=2.0, ball=NormBall.lp(LINF, 1.0, 13))
    out["ordering.compare_kt3_linf_ms"] = 1e3 * per_call(lambda: compare(kt3, linf13),
                                                         batches=3)
    out["ordering.concentration_radius_us"] = 1e6 * per_call(
        lambda: concentration_radius(k2, 0.95))
    v = np.array([0.5, 0.5])
    out["ordering.depth_us"] = 1e6 * per_call(lambda: depth(k2, v))
    return out


def incgamma_metrics():
    xs = np.random.default_rng(19).uniform(0.0, 10.0, 10_000).tolist()
    per = per_call(lambda: [gamma_cdf(x, 2, 1.0) for x in xs], batches=3)
    return {
        "incgamma.gamma_cdf_per_s": len(xs) / per,
        "incgamma.gamma_quantile_us": 1e6 * per_call(lambda: gamma_quantile(0.95, 7, 1.0)),
    }


def harness_metrics():
    gauges = np.random.default_rng(20).gamma(2.0, 1.0, 10_000)
    return {
        "harness.ks_statistic_ms": 1e3 * per_call(
            lambda: ks_statistic(gauges, lambda x: gamma_cdf(x, 2, 1.0)), batches=3),
        "harness.run_diagnostics_s": per_call(run_diagnostics, batches=3),
    }


def all_metrics():
    out = {}
    for measure in (geometry_metrics, sampling_metrics, erm_metrics, linreg_metrics,
                    ordering_metrics, incgamma_metrics, harness_metrics):
        out.update(measure())
    return out
