"""Simulation drivers, statistical self-tests, and CSV output.

Each driver returns a ResultTable carrying a config echo, a long-form
table (epsilon, mechanism, replicate, metric, value) and a summary table.
Replicates use independent RngStream ids, so identical configs reproduce
byte-identical CSVs regardless of execution order.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import kolmogi, stdtrit

from .erm import (
    ObjPertConfig,
    _sigmoid,
    logistic_loss_spec,
    minimize_erm,
    objective_perturbation,
)
from .linreg import (
    RegressionDataset,
    ball_from_name,
    build_statistic,
    dp_estimates,
    preprocess,
    sanitize_statistic,
)
from .ordering import gamma_cdf
from .sampling import MechanismConfig, RngStream, sample_l1_mech, sample_noise

# unused here, but perfbench/spans.py rebinds these names in this module
from .geometry import lp_norm  # noqa: F401
from .linreg import dp_estimate  # noqa: F401
from .sampling import sample_k_mech_rejection, sample_l2_mech, sample_linf_mech  # noqa: F401

__all__ = [
    "SimulationConfig",
    "ResultTable",
    "DiagnosticCheck",
    "DiagnosticsReport",
    "simulate_logistic",
    "simulate_coverage",
    "run_regression_file",
    "run_diagnostics",
    "read_table",
    "lower_median",
    "ks_statistic",
    "ks_critical",
]

#: true coefficient vector of the logistic simulation protocol
LOGISTIC_BETA = np.array([0.0, -1.0, -0.5, -0.25, 0.0, 0.75, 1.5])

DEFAULT_LOGISTIC_EPS = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0)
DEFAULT_COVERAGE_EPS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0, 4.0)
DEFAULT_REGRESSION_EPS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """One experiment run: epsilon grid, sample size n, predictor count p,
    replicate count, mechanisms, objective-perturbation q, seed, and the CSV
    input of run_regression_file (path, response, log columns, quantiles).
    Epsilons and mechanisms must each be distinct: summaries are per cell."""

    eps: tuple = ()
    n: int = 10_000
    p: int = 5
    reps: int = 100
    mechanisms: tuple = ()
    q: float = 0.5
    seed: int = 0
    csv_path: Optional[str] = None
    response: Optional[str] = None
    log_columns: tuple = ()
    lower_q: float = 0.0001
    upper_q: float = 0.9999

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("replicate count must be >= 1")
        if any(e <= 0 for e in self.eps):
            raise ValueError("epsilon values must be positive")
        # a repeated cell would be pooled with its twin in every summary row
        for name, values in (("epsilon", self.eps), ("mechanism", self.mechanisms)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {name} in {', '.join(map(str, values))}")


def lower_median(values):
    """Median with the lower of the two central order statistics for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


LONG_HEADER = ("epsilon", "mechanism", "replicate", "metric", "value")
SUMMARY_HEADER = ("epsilon", "mechanism", "metric", "value")


@dataclass
class ResultTable:
    """Config echo plus long-form and summary rows, written as CSV."""

    config_echo: dict
    long_rows: list = field(default_factory=list)
    summary_rows: list = field(default_factory=list)

    def _csv(self, header, rows):
        buf = io.StringIO()
        for key, value in self.config_echo.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        return buf.getvalue()

    def long_csv(self):
        return self._csv(LONG_HEADER, self.long_rows)

    def summary_csv(self):
        return self._csv(SUMMARY_HEADER, self.summary_rows)

    def summary_value(self, epsilon, mechanism, metric):
        for eps, mech, met, value in self.summary_rows:
            if eps == epsilon and mech == mechanism and met == metric:
                return value
        raise KeyError((epsilon, mechanism, metric))


def _echo(experiment, config: SimulationConfig, **extra):
    echo = {
        "experiment": experiment,
        "seed": config.seed,
        "n": config.n,
        "reps": config.reps,
        "eps": ",".join(_fmt(float(e)) for e in config.eps),
        "mechanisms": ",".join(config.mechanisms),
    }
    echo.update(extra)
    return echo


def _cells(config):
    """(eps index, eps, mechanism index, mechanism) of every cell, in output order."""
    for ei, eps in enumerate(config.eps):
        for ki, mech in enumerate(config.mechanisms):
            yield ei, eps, ki, mech


def _noise_rng(config, ei, ki, rep):
    """Noise generator of one cell and replicate."""
    # data streams occupy [0, reps); noise streams are disjoint by construction
    cell = ei * len(config.mechanisms) + ki
    return RngStream(config.seed, config.reps + cell * config.reps + rep).generator()


def _summarize(table, config, metric, reduce, baselines=()):
    """Append a summary row reducing the long-row values of each baseline
    mechanism (epsilon "") and then of each cell."""
    values = defaultdict(list)
    for eps, mech, _, _, value in table.long_rows:
        values[(eps, mech)].append(value)
    keys = [("", mech) for mech in baselines]
    keys += [(float(eps), mech) for _, eps, _, mech in _cells(config)]
    for eps, mech in keys:
        table.summary_rows.append((eps, mech, metric, reduce(values[(eps, mech)])))


def simulate_logistic(config: SimulationConfig) -> ResultTable:
    """Private logistic regression on synthetic data.

    Per replicate, draws a uniform design on [-1,1]^(n x 7) and Bernoulli
    responses from the fixed coefficient vector, fits the non-private MLE,
    and runs objective perturbation for every (epsilon, mechanism),
    recording the l2 distance to the true coefficients. Summaries are
    lower medians per cell.
    """
    beta = LOGISTIC_BETA
    m = len(beta)
    losses = {}
    for mech in config.mechanisms:
        ball = ball_from_name(mech, m)
        if not ball.is_lp:
            raise ValueError(f"logistic regression needs an lp ball, got {mech!r}")
        # logistic_sensitivity rejects an lp ball other than l1, l2 or linf
        losses[mech] = logistic_loss_spec(m, ball.p)
    table = ResultTable(_echo("logistic", config, q=_fmt(float(config.q)), m=m))
    for rep in range(config.reps):
        g = RngStream(config.seed, rep).generator()
        X = g.uniform(-1.0, 1.0, size=(config.n, m))
        u = g.random(config.n)
        y = (u < _sigmoid(X @ beta)).astype(float)

        mle = minimize_erm(logistic_loss_spec(m), X, y)
        mle_err = float(np.linalg.norm(mle - beta))
        table.long_rows.append(("", "mle", rep, "l2_error", mle_err))

        for ei, eps, ki, mech in _cells(config):
            cfg = ObjPertConfig(epsilon=eps, q=config.q, loss=losses[mech])
            theta = objective_perturbation(cfg, X, y, _noise_rng(config, ei, ki, rep))
            err = float(np.linalg.norm(theta - beta))
            table.long_rows.append((float(eps), mech, rep, "l2_error", err))

    table.summary_rows.append(("", "zero", "l2_error", float(np.linalg.norm(beta))))
    _summarize(table, config, "median_l2_error", lower_median, baselines=("mle",))
    return table


def simulate_coverage(config: SimulationConfig) -> ResultTable:
    """Confidence-interval coverage of private linear-regression estimates.

    Per replicate, simulates a Gaussian-error regression with unit variance
    and coefficients spaced over [-1.5, 1.5], builds classical 95%
    t-intervals from the least-squares fit, and records the fraction of the
    last p coordinates of each private estimate falling inside; the
    replicate's private estimates are solved as one stack. Summaries
    are means per cell; "true_beta" rows record the intervals' own coverage
    of the true coefficients.
    """
    p = config.p
    beta = np.concatenate([[0.0], np.linspace(-1.5, 1.5, p)])
    table = ResultTable(_echo("coverage", config, p=p))
    n = config.n
    tcrit = float(stdtrit(n - p - 1, 0.975))
    for rep in range(config.reps):
        g = RngStream(config.seed, rep).generator()
        X = np.empty((n, p + 1))
        X[:, 0] = 1.0
        X[:, 1:] = g.uniform(-1.0, 1.0, size=(n, p))
        y = X @ beta + g.standard_normal(n)

        xtx = X.T @ X
        beta_hat = np.linalg.solve(xtx, X.T @ y)
        resid = y - X @ beta_hat
        s2 = float(resid @ resid) / (n - p - 1)
        se = np.sqrt(s2 * np.diag(np.linalg.inv(xtx)))
        lo = beta_hat - tcrit * se
        hi = beta_hat + tcrit * se

        cov_true = float(np.mean((beta[1:] >= lo[1:]) & (beta[1:] <= hi[1:])))
        table.long_rows.append(("", "true_beta", rep, "coverage", cov_true))

        # the protocol's Gaussian responses are unbounded, so skip range checks
        data = RegressionDataset(X, y, validate=False)
        stat = build_statistic(data)
        cells = list(_cells(config))
        noisy = [sanitize_statistic(stat, mech, eps, _noise_rng(config, ei, ki, rep))
                 for ei, eps, ki, mech in cells]
        for (_, eps, _, mech), beta_dp in zip(cells, dp_estimates(noisy, n)):
            cov = float(np.mean((beta_dp[1:] >= lo[1:]) & (beta_dp[1:] <= hi[1:])))
            table.long_rows.append((float(eps), mech, rep, "coverage", cov))

    _summarize(table, config, "mean_coverage", lambda v: float(np.mean(v)),
               baselines=("true_beta",))
    return table


def read_table(path):
    """Read a CSV of finite numbers with a header row into a dict of column arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        columns = {name: [] for name in header}
        if len(columns) != len(header):
            raise ValueError(f"{path}: duplicate column names in header")
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {i}, column {name!r}: not a finite number: {cell!r}"
                    )
                columns[name].append(value)
    if not any(columns.values()):
        raise ValueError(f"{path}: no data rows")
    return {name: np.array(vals) for name, vals in columns.items()}


def run_regression_file(config: SimulationConfig) -> ResultTable:
    """Private regression on a CSV file, measured against its own MLE.

    Preprocesses the table (log transforms, quantile clamping, affine map
    to [-1,1]), computes the least-squares fit, and for every (epsilon,
    mechanism, replicate) records the l2 distance between the private
    estimate and that fit, solving all private estimates as one stack. The
    zero-vector baseline ||beta_mle||_2 is echoed in the header.
    """
    if config.csv_path is None or config.response is None:
        raise ValueError("run-regression requires a csv path and response column")
    columns = read_table(config.csv_path)
    data = preprocess(
        columns,
        config.response,
        log_columns=config.log_columns,
        lower_q=config.lower_q,
        upper_q=config.upper_q,
    )
    beta_mle, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    baseline = float(np.linalg.norm(beta_mle))
    stat = build_statistic(data)
    table = ResultTable(_echo(
        "regression-file", config, n=data.n, p=data.p, csv=config.csv_path,
        response=config.response, baseline_l2=_fmt(baseline),
    ))
    runs = [(ei, eps, ki, mech, rep) for ei, eps, ki, mech in _cells(config)
            for rep in range(config.reps)]
    noisy = [sanitize_statistic(stat, mech, eps, _noise_rng(config, ei, ki, rep))
             for ei, eps, ki, mech, rep in runs]
    for (_, eps, _, mech, rep), beta_dp in zip(runs, dp_estimates(noisy, data.n)):
        dist = float(np.linalg.norm(beta_dp - beta_mle))
        table.long_rows.append((float(eps), mech, rep, "l2_distance_to_mle", dist))
    table.summary_rows.append(("", "zero", "l2_distance_to_mle", baseline))
    _summarize(table, config, "median_l2_distance_to_mle", lower_median)
    return table


# -- statistical self-tests ------------------------------------------------

def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov distance against a vectorized CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def ks_critical(n, alpha=0.01):
    """Critical KS distance at level alpha (asymptotic Kolmogorov law)."""
    return float(kolmogi(alpha)) / math.sqrt(n)


@dataclass(frozen=True)
class DiagnosticCheck:
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass
class DiagnosticsReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def format_lines(self):
        lines = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(
                f"{verdict} {c.name}: statistic={c.statistic:.6g} "
                f"threshold={c.threshold:.6g}{extra}"
            )
        return lines


def _dp_ratio_check(epsilon, n, seed):
    """Histogram density-ratio bound for the 1-d Laplace mechanism."""
    rng = RngStream(seed, 900_000).generator()
    s0 = sample_l1_mech(np.zeros(1), 1.0, epsilon, rng, size=n)[:, 0]
    s1 = sample_l1_mech(np.ones(1), 1.0, epsilon, rng, size=n)[:, 0]
    edges = np.arange(-8.0, 9.0 + 1e-9, 0.5)
    c0, _ = np.histogram(s0, bins=edges)
    c1, _ = np.histogram(s1, bins=edges)
    use = (c0 >= 100) & (c1 >= 100)
    worst = 0.0
    bound_hit = 1.0
    for a, b in zip(c0[use], c1[use]):
        ratio = max(a / b, b / a)
        slack = 1.0 + 5.0 * math.sqrt(1.0 / a + 1.0 / b)
        rel = ratio / (math.exp(epsilon) * slack)
        if rel > worst:
            worst = rel
            bound_hit = ratio
    return worst, bound_hit, int(use.sum())


def run_diagnostics(mechanisms=("l1", "l2", "linf", "k2"), n_draws=10_000,
                    seed=0, fault=None) -> DiagnosticsReport:
    """Run the sampler self-tests and collect per-check verdicts.

    Mechanisms are ball names as ball_from_name reads them, with Delta = 1
    and eps = 1; lp balls are 2-dimensional, the hull bodies keep their own
    dimension. Each mechanism draws n_draws noise vectors through
    sample_noise. Checks per mechanism: Kolmogorov-Smirnov test of the noise
    gauge against its Gamma(m, eps/Delta) marginal at level 0.01, and a
    4-standard-error unbiasedness check per coordinate. The l1 entry adds
    the Laplace histogram ratio bound; every hull with a known volume (k2,
    k3) adds a 4-standard-error check of its own n_draws-point box-fraction
    estimate, drawn from the mechanism's stream after the noise, against
    its exact volume / bounding-box volume ratio. An empty
    mechanism list yields an empty report. ``fault`` deliberately breaks a
    sampler to demonstrate detection (testing aid): "laplace-scale" halves
    the l1 scale.

    With several simultaneous 0.01-level tests the false-alarm rate is a
    few percent (no Bonferroni correction); the default seed is known-good.
    """
    delta, epsilon = 1.0, 1.0
    balls = [ball_from_name(mech, 2) for mech in mechanisms]
    checks = []
    for idx, (mech, ball) in enumerate(zip(mechanisms, balls)):
        m = ball.dimension
        rng = RngStream(seed, 1000 + idx).generator()
        faulty = fault == "laplace-scale" and mech == "l1"
        draw_delta = delta / 2.0 if faulty else delta
        v = sample_noise(MechanismConfig(epsilon, draw_delta, ball), rng, size=n_draws)
        gauges = ball.gauge_many(v)
        rate = epsilon / delta
        d = ks_statistic(gauges, lambda x: gamma_cdf(x, m, rate))
        crit = ks_critical(n_draws, 0.01)
        checks.append(
            DiagnosticCheck(
                name=f"gamma-marginal-ks[{mech}]",
                statistic=d,
                threshold=crit,
                passed=d < crit,
                detail=f"m={m} delta={delta} eps={epsilon} n={n_draws}",
            )
        )
        se = v.std(axis=0, ddof=1) / math.sqrt(n_draws)
        worst = float(np.max(np.abs(v.mean(axis=0)) / se))
        checks.append(
            DiagnosticCheck(
                name=f"unbiasedness[{mech}]",
                statistic=worst,
                threshold=4.0,
                passed=worst <= 4.0,
                detail="max |mean|/SE over coordinates",
            )
        )
        if ball.volume is not None:
            expected = ball.volume / (2.0 * ball.linf_bound) ** m
            frac, se_frac = ball.box_fraction_fn(rng, n_draws)
            dev = abs(frac - expected) / se_frac
            checks.append(
                DiagnosticCheck(
                    name=f"box-fraction[{mech}]",
                    statistic=frac,
                    threshold=4.0,
                    passed=dev <= 4.0,
                    detail=f"expected {expected:.4f}, deviation {dev:.2f} SE",
                )
            )
        if mech == "l1":
            worst_rel, ratio, n_bins = _dp_ratio_check(epsilon, 100_000, seed)
            checks.append(
                DiagnosticCheck(
                    name="dp-ratio[laplace]",
                    statistic=worst_rel,
                    threshold=1.0,
                    passed=worst_rel <= 1.0,
                    detail=f"worst bin ratio {ratio:.3f} over {n_bins} bins",
                )
            )
    return DiagnosticsReport(checks)
