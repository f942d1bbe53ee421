"""Simulation drivers, statistical self-tests, and CSV output.

Each driver returns a ResultTable carrying a config echo, a long-form
table (epsilon, mechanism, replicate, metric, value) and a summary table.
Replicates use independent RngStream ids, so identical configs reproduce
byte-identical CSVs regardless of execution order.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .erm import (_LOGISTIC_DELTAS, ObjPertConfig, _sigmoid, evaluate, logistic_loss_spec,
                  minimize_erm, objective_perturbation_rows)
from .geometry import _check_integer, _check_mechanism, _check_positive, _check_unit
from .linreg import (_STATISTIC_DELTAS, _check_quantiles, ball_from_name, build_statistic,
                     dp_estimates, preprocess, statistic_from_gram, statistic_mechanism)
from .ordering import gamma_cdf
from .sampling import (BudgetError, MechanismConfig, RngStream, sample_l1_mech, sample_noise,
                       sample_noise_rows)

# unused here, but perfbench/spans.py rebinds these names in this module
from .erm import objective_perturbation  # noqa: F401
from .geometry import lp_norm  # noqa: F401
from .linreg import dp_estimate, sanitize_statistic  # noqa: F401
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
DEFAULT_DIAGNOSTIC_MECHS = ("l1", "l2", "linf", "k2")
DEFAULT_DIAGNOSTIC_DRAWS = 10_000


@dataclass(frozen=True)
class SimulationConfig:
    """The run grid every driver reads: epsilon grid, mechanisms, replicate
    count and seed, with no defaults (the CLI holds the only copy). Each
    driver takes the settings only it reads (n, p, q, the CSV input) as
    keyword arguments and checks them itself. reps must be an integer >= 1,
    seed an integer >= 0, and epsilons positive and finite, as in a
    MechanismConfig, and distinct, as must mechanisms: summaries are per
    cell. An integer-valued float runs as its int, here and in the drivers."""

    eps: tuple
    mechanisms: tuple
    reps: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "reps", _check_integer("reps", self.reps))
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))
        for e in self.eps:
            _check_positive("epsilon", e, BudgetError)
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


def _echo(experiment, config: SimulationConfig, n, **extra):
    echo = {
        "experiment": experiment,
        "seed": config.seed,
        "n": n,
        "reps": config.reps,
        "eps": ",".join(_fmt(float(e)) for e in config.eps),
        "mechanisms": ",".join(config.mechanisms),
    }
    echo.update(extra)
    return echo


def _cells(config):
    """(cell index, eps, mechanism) of every cell, in output order."""
    return [(cell, eps, mech) for cell, (eps, mech)
            in enumerate(itertools.product(config.eps, config.mechanisms))]


def _noise_rng(config, cell, rep):
    """Noise generator of one cell and replicate."""
    # data streams occupy [0, reps); noise streams are disjoint by construction
    return RngStream(config.seed, config.reps + cell * config.reps + rep).generator()


def _design(g, shape, out=None):
    """A design uniform on [-1, 1] from g, drawn into out (a C-contiguous
    array of that shape) if given: g.uniform(-1.0, 1.0, shape) bit for bit,
    and g ends where that call leaves it, as uniform computes -1 + 2u of the
    same draws u and doubling is exact."""
    x = g.random(shape, out=out)
    x *= 2.0
    x -= 1.0
    return x


#: noise streams per block of a run: a block draws its noise in one
#: sample_noise_rows call and solves it in one dp_estimates call, so a run's
#: memory is bounded by a block, whatever its replicate count
_BLOCK_STREAMS = 1024


def _blocks(items, streams_each):
    """Consecutive slices of items, each of at most _BLOCK_STREAMS noise
    streams for items that take streams_each streams each, and of at least
    one item."""
    size = max(1, _BLOCK_STREAMS // max(streams_each, 1))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _private_estimates(config, stats, p, runs, n_rows):
    """Private estimates of one block: a noisy copy of the statistic values
    for p predictors per (MechanismConfig, cell, replicate) of runs, each
    row of stats serving an equal share of consecutive runs. The noise is
    drawn as one stack (sample_noise_rows) from the runs' noise streams,
    whose generators live only for that call, and the estimates are solved
    as one stack (dp_estimates)."""
    stats = np.asarray(stats)
    d = stats.shape[1]
    noise = (sample_noise_rows([(mechanism, _noise_rng(config, cell, rep))
                                for mechanism, cell, rep in runs])
             if runs else np.empty((0, d)))
    # noise + stat in place, row by row of stats: addition commutes bit for bit
    noisy = noise.reshape(len(stats), len(runs) // len(stats), d)
    noisy += stats[:, None]
    return dp_estimates(noise, p, n_rows)


def _summarize(table, config, metric, reduce, baselines=()):
    """Append a summary row reducing the long-row values of each baseline
    mechanism (epsilon "") and then of each cell."""
    values = defaultdict(list)
    for eps, mech, _, _, value in table.long_rows:
        values[(eps, mech)].append(value)
    keys = [("", mech) for mech in baselines]
    keys += [(float(eps), mech) for _, eps, mech in _cells(config)]
    for eps, mech in keys:
        table.summary_rows.append((eps, mech, metric, reduce(values[(eps, mech)])))


def simulate_logistic(config: SimulationConfig, *, n, q) -> ResultTable:
    """Private logistic regression on synthetic data.

    Per replicate, draws a uniform design on [-1,1]^(n x 7) and Bernoulli
    responses from the fixed coefficient vector, fits the non-private MLE,
    and runs objective perturbation for every (epsilon, mechanism) with
    budget split q, recording the l2 distance to the true coefficients:
    one objective_perturbation_rows call per replicate draws every cell's
    noise in one sample_noise_rows call and fits the cells one at a time.
    Summaries are lower medians per cell. n must be an integer >= 1, q in
    (0, 1) (as in an ObjPertConfig) and each mechanism l1, l2 or linf; all
    three are checked before any stream is drawn.
    """
    n = _check_integer("n", n)
    _check_unit("q", q)
    beta = LOGISTIC_BETA
    m = len(beta)
    mle_loss = logistic_loss_spec(m)
    losses = {}
    for mech in config.mechanisms:
        _check_mechanism(mech, _LOGISTIC_DELTAS)
        losses[mech] = replace(mle_loss, grad_ball=ball_from_name(mech, m),
                               grad_delta=_LOGISTIC_DELTAS[mech](m))
    cells = [(cell, eps, mech, ObjPertConfig(epsilon=eps, q=q, loss=losses[mech]))
             for cell, eps, mech in _cells(config)]
    table = ResultTable(_echo("logistic", config, n, q=_fmt(float(q)), m=m))
    for rep in range(config.reps):
        g = RngStream(config.seed, rep).generator()
        X = _design(g, (n, m))
        u = g.random(n)
        y = (u < _sigmoid(X @ beta)).astype(float)

        # every fit of the replicate starts at theta = 0 on this X, y with the
        # same logistic kernels, so one evaluation there (and one validation)
        # serves all of them, on the start's column-major copy of the design
        start = evaluate(mle_loss, X, y)
        X, y = start.X, start.y
        mle = minimize_erm(mle_loss, X, y, start=start)
        mle_err = float(np.linalg.norm(mle - beta))
        table.long_rows.append(("", "mle", rep, "l2_error", mle_err))

        thetas = objective_perturbation_rows(
            [(objpert, _noise_rng(config, cell, rep)) for cell, _, _, objpert in cells],
            X, y, start=start)
        for (_, eps, mech, _), theta in zip(cells, thetas):
            err = float(np.linalg.norm(theta - beta))
            table.long_rows.append((float(eps), mech, rep, "l2_error", err))

    table.summary_rows.append(("", "zero", "l2_error", float(np.linalg.norm(beta))))
    _summarize(table, config, "median_l2_error", lower_median, baselines=("mle",))
    return table


def simulate_coverage(config: SimulationConfig, *, n, p) -> ResultTable:
    """Confidence-interval coverage of private linear-regression estimates.

    Per replicate, simulates a Gaussian-error regression of n rows with
    unit variance and p coefficients spaced over [-1.5, 1.5], builds
    classical 95% t-intervals from the least-squares fit, and records the
    fraction of the last p coordinates of each private estimate falling
    inside. Replicates run in blocks (_blocks) on one design buffer, and a
    block's cells are drawn, solved and scored as one stack: one
    sample_noise_rows call, one dp_estimates solve and one comparison
    against the intervals. Streams are independent, so the blocks change no
    byte. Summaries are means per cell; "true_beta" rows
    record the intervals' own coverage of the true coefficients. p must be
    an integer >= 1 and n an integer > p + 1, checked with the mechanisms
    before any stream is drawn or scipy.special loaded.
    """
    p = _check_integer("p", p)
    if n <= p + 1:
        raise ValueError(f"coverage needs n > p + 1 for its t-intervals' "
                         f"n - p - 1 degrees of freedom, got n={n}, p={p}")
    n = _check_integer("n", n, p + 2)
    cells = [(cell, eps, mech, statistic_mechanism(mech, p, eps))
             for cell, eps, mech in _cells(config)]
    from scipy.special import stdtrit

    beta = np.concatenate([[0.0], np.linspace(-1.5, 1.5, p)])
    table = ResultTable(_echo("coverage", config, n, p=p))
    tcrit = float(stdtrit(n - p - 1, 0.975))
    # one design and one draw buffer serve every replicate, so that no
    # replicate allocates an n x p array
    X, uniforms = np.empty((n, p + 1)), np.empty((n, p))
    X[:, 0] = 1.0
    for reps in _blocks(range(config.reps), len(cells)):
        stats, lo, hi, cov_true = [], [], [], []
        for rep in reps:
            g = RngStream(config.seed, rep).generator()
            X[:, 1:] = _design(g, (n, p), out=uniforms)
            y = X @ beta + g.standard_normal(n)

            xtx, xty = X.T @ X, X.T @ y
            beta_hat = np.linalg.solve(xtx, xty)
            resid = y - X @ beta_hat
            s2 = float(resid @ resid) / (n - p - 1)
            se = np.sqrt(s2 * np.diag(np.linalg.inv(xtx)))
            lo.append((beta_hat - tcrit * se)[1:])
            hi.append((beta_hat + tcrit * se)[1:])
            cov_true.append(float(np.mean((beta[1:] >= lo[-1]) & (beta[1:] <= hi[-1]))))
            stats.append(statistic_from_gram(xtx, xty).values)

        runs = [(mechanism, cell, rep) for rep in reps for cell, _, _, mechanism in cells]
        est = _private_estimates(config, stats, p, runs, n)
        est = est.reshape(len(reps), len(cells), p + 1)[:, :, 1:]
        inside = (est >= np.array(lo)[:, None]) & (est <= np.array(hi)[:, None])
        covered = inside.mean(axis=2).tolist()
        for rep, cov, row in zip(reps, cov_true, covered):
            table.long_rows.append(("", "true_beta", rep, "coverage", cov))
            table.long_rows += [(float(eps), mech, rep, "coverage", c)
                                for (_, eps, mech, _), c in zip(cells, row)]

    _summarize(table, config, "mean_coverage", lambda v: float(np.mean(v)),
               baselines=("true_beta",))
    return table


def read_table(path):
    """Read a CSV of finite numbers with a header row into a dict of column arrays."""
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports begin with
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def run_regression_file(config: SimulationConfig, *, csv_path, response, log_columns,
                        lower_q, upper_q) -> ResultTable:
    """Private regression on a CSV file, measured against its own MLE: an
    evaluation, not a release, so its output is not to be published.

    Preprocesses the table at csv_path (log transforms of log_columns,
    clamping to its lower_q and upper_q quantiles, affine map to [-1,1]),
    computes the least-squares fit of the response column, and for every
    (epsilon, mechanism, replicate) records the l2 distance between the
    private estimate and that fit, drawing and solving the estimates in
    blocks of one stack each (_blocks). The zero-vector baseline
    ||beta_mle||_2 is echoed in the
    header. The preprocessing bounds are read from the private table, and
    the sensitivities hold under "replace one row" of the preprocessed
    table, so the estimates are not eps-DP with respect to the CSV: one
    changed row moved a slot by 1302.6 against the assumed 2 (see
    preprocess). The table also holds non-private values, baseline_l2 and
    the distances to beta_mle, and its noise is a function of the echoed
    seed. An unknown mechanism and quantiles outside preprocess's
    0 <= lower_q < upper_q <= 1 are refused before the CSV is read.
    """
    for mech in config.mechanisms:
        _check_mechanism(mech, _STATISTIC_DELTAS)
    _check_quantiles(lower_q, upper_q)
    columns = read_table(csv_path)
    data = preprocess(columns, response, log_columns=log_columns, lower_q=lower_q,
                      upper_q=upper_q)
    cells = [(cell, eps, mech, statistic_mechanism(mech, data.p, eps))
             for cell, eps, mech in _cells(config)]
    beta_mle, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    baseline = float(np.linalg.norm(beta_mle))
    stat = build_statistic(data)
    table = ResultTable(_echo(
        "regression-file", config, data.n, p=data.p, csv=csv_path, response=response,
        baseline_l2=_fmt(baseline),
    ))
    runs = [(*cell, rep) for cell in cells for rep in range(config.reps)]
    for block in _blocks(runs, 1):
        block_runs = [(mechanism, cell, rep) for cell, _, _, mechanism, rep in block]
        estimates = _private_estimates(config, [stat.values], stat.p, block_runs, data.n)
        for (_, eps, mech, _, rep), beta_dp in zip(block, estimates):
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
    """Critical KS distance at level alpha in (0, 1) for an integer sample
    size n >= 1 (asymptotic Kolmogorov law)."""
    _check_unit("alpha", alpha)
    n = _check_integer("n", n)
    from scipy.special import kolmogi

    return float(kolmogi(alpha)) / math.sqrt(n)


@dataclass(frozen=True)
class DiagnosticCheck:
    """One self-test, which passes iff its statistic is at most its
    threshold: the two numbers its line prints."""

    name: str
    statistic: float
    threshold: float
    detail: str = ""

    @property
    def passed(self):
        return self.statistic <= self.threshold


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
    if not use.any():
        return 0.0, 1.0, 0
    a, b = c0[use], c1[use]
    ratio = np.maximum(a / b, b / a)
    slack = 1.0 + 5.0 * np.sqrt(1.0 / a + 1.0 / b)
    rel = ratio / (math.exp(epsilon) * slack)
    worst = int(np.argmax(rel))  # the first bin of largest rel
    return float(rel[worst]), float(ratio[worst]), len(a)


def run_diagnostics(mechanisms=DEFAULT_DIAGNOSTIC_MECHS, n_draws=DEFAULT_DIAGNOSTIC_DRAWS,
                    seed=0) -> DiagnosticsReport:
    """Run the sampler self-tests and collect per-check verdicts.

    Mechanisms are ball names as ball_from_name reads them, with Delta = 1
    and eps = 1; lp balls are 2-dimensional, the hull bodies keep their own
    dimension. Each mechanism draws n_draws (an integer >= 50) noise vectors
    through sample_noise. A check passes iff its statistic is at most its
    threshold. Checks per mechanism: the Kolmogorov-Smirnov distance of the
    noise gauge from its Gamma(m, eps/Delta) marginal against the level-0.01
    critical value, and the largest |mean|/SE over coordinates against 4.
    The l1 entry adds the Laplace histogram ratio bound; every hull with a
    known volume (k2, k3, kt1-kt3) adds the deviation, in standard errors,
    of its own n_draws-point box-fraction estimate, drawn from the
    mechanism's stream after the noise, from its exact volume /
    bounding-box volume ratio, against 4; when every one of its draws gets
    the same weight (sample SE 0) the deviation is in the null SE
    sqrt(p(1-p)/n) of that ratio p instead. An empty mechanism list yields
    an empty report.

    The 4-SE checks rest on normal approximations, which fail correct
    samplers at a few draws: over 200 seeds of l2, linf, k2 and k3, 172
    seeds failed at 2 draws, 26 at 10 and 5 at 50. From 50 draws up, every
    failure but one was a 0.01-level KS check, which is its stated rate.
    With several simultaneous 0.01-level tests the false-alarm rate is a
    few percent (no Bonferroni correction); the default seed is known-good.
    """
    n_draws = _check_integer("n_draws", n_draws, 50)
    delta, epsilon = 1.0, 1.0
    balls = [ball_from_name(mech, 2) for mech in mechanisms]
    ks_crit = ks_critical(n_draws, 0.01)
    checks = []

    def check(kind, target, statistic, threshold, detail):
        checks.append(DiagnosticCheck(f"{kind}[{target}]", float(statistic), threshold, detail))

    for idx, (mech, ball) in enumerate(zip(mechanisms, balls)):
        m = ball.dimension
        rng = RngStream(seed, 1000 + idx).generator()
        v = sample_noise(MechanismConfig(epsilon, delta, ball), rng, size=n_draws)
        d = ks_statistic(ball.gauge_many(v), lambda x: gamma_cdf(x, m, epsilon / delta))
        check("gamma-marginal-ks", mech, d, ks_crit,
              f"m={m} delta={delta} eps={epsilon} n={n_draws}")
        # per coordinate over contiguous rows, which numpy reduces pairwise
        cols = np.ascontiguousarray(v.T)
        se = cols.std(axis=1, ddof=1) / math.sqrt(n_draws)
        check("unbiasedness", mech, np.max(np.abs(cols.mean(axis=1)) / se), 4.0,
              "max |mean|/SE over coordinates")
        if ball.volume is not None:
            expected = ball.volume / (2.0 * ball.linf_radius) ** m
            frac, se_frac = ball.box_fraction(rng, n_draws)
            if se_frac == 0.0:
                # the null SE, which bounds that of any mean of [0, 1]
                # weights with mean `expected`
                se_frac = math.sqrt(expected * (1.0 - expected) / n_draws)
            check("box-fraction", mech, abs(frac - expected) / se_frac, 4.0,
                  f"expected {expected:.4f}, estimate {frac:.6g}")
        if mech == "l1":
            worst_rel, ratio, n_bins = _dp_ratio_check(epsilon, 100_000, seed)
            check("dp-ratio", "laplace", worst_rel, 1.0,
                  f"worst bin ratio {ratio:.3f} over {n_bins} bins")
    return DiagnosticsReport(checks)
