"""Command-line interface: simulations, comparison, sampling, diagnostics."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import SimulationConfig
from .linreg import ball_from_name
from .ordering import compare
from .sampling import MechanismConfig, RngStream, sample_noise

# unused here, but perfbench/spans.py rebinds this name in this module
from .linreg import kt_ball  # noqa: F401


def _parse_eps(text):
    values = tuple(float(tok) for tok in text.split(",") if tok)
    if not values:
        raise argparse.ArgumentTypeError("empty epsilon list")
    return values


def _parse_list(text):
    return tuple(tok for tok in text.split(",") if tok)


def _parse_mechanism(spec, m, epsilon):
    """Mechanism spec "<ball>:<delta>", e.g. "linf:2" or "k2:1"."""
    ball_token, _, delta_token = spec.partition(":")
    if not delta_token:
        raise ValueError(f"mechanism spec needs <ball>:<delta>, got {spec!r}")
    ball = ball_from_name(ball_token, m)
    return MechanismConfig(
        epsilon=epsilon, delta=float(delta_token), ball=ball, label=spec
    )


def _write_table(table, config):
    if config.out:
        with open(config.out, "w") as fh:
            table.write_long(fh)
    else:
        sys.stdout.write(table.long_csv())
    if config.summary_out:
        with open(config.summary_out, "w") as fh:
            table.write_summary(fh)
    else:
        sys.stdout.write(table.summary_csv())


def _add_common(sub, default_eps, default_mechs, default_n, default_reps):
    sub.add_argument("--eps", type=_parse_eps, default=default_eps,
                     help="comma list of privacy budgets")
    sub.add_argument("--n", type=int, default=default_n)
    sub.add_argument("--reps", type=int, default=default_reps)
    sub.add_argument("--mech", type=_parse_list, default=default_mechs,
                     help="comma list of mechanisms")
    sub.add_argument("--q", type=float, default=0.5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="long-form CSV path (default stdout)")
    sub.add_argument("--summary", help="summary CSV path (default stdout)")


def _cmd_simulate_logistic(args):
    config = SimulationConfig(
        experiment="logistic", eps=args.eps, n=args.n, reps=args.reps,
        mechanisms=args.mech, q=args.q, seed=args.seed,
        out=args.out, summary_out=args.summary,
    )
    _write_table(harness.simulate_logistic(config), config)
    return 0


def _cmd_simulate_coverage(args):
    config = SimulationConfig(
        experiment="coverage", eps=args.eps, n=args.n, p=args.p,
        reps=args.reps, mechanisms=args.mech, q=args.q, seed=args.seed,
        out=args.out, summary_out=args.summary,
    )
    _write_table(harness.simulate_coverage(config), config)
    return 0


def _cmd_run_regression(args):
    config = SimulationConfig(
        experiment="regression-file", eps=args.eps, reps=args.reps,
        mechanisms=args.mech, q=args.q, seed=args.seed,
        csv_path=args.csv, response=args.response,
        log_columns=args.log_cols, lower_q=args.lower_q, upper_q=args.upper_q,
        out=args.out, summary_out=args.summary,
    )
    _write_table(harness.run_regression_file(config), config)
    return 0


def _cmd_compare(args):
    mech_a = _parse_mechanism(args.a, args.m, args.eps)
    mech_b = _parse_mechanism(args.b, args.m, args.eps)
    report = compare(mech_a, mech_b, seed=args.seed, n_mc=args.mc_samples)
    items = report.as_dict()
    for key, value in items.items():
        sys.stdout.write(f"{key}={value}\n")
    sys.stdout.write(",".join(items.keys()) + "\n")
    sys.stdout.write(",".join(str(v) for v in items.values()) + "\n")
    return 0


def _cmd_sample(args):
    ball = ball_from_name(args.ball, args.m)
    config = MechanismConfig(epsilon=args.eps, delta=args.delta, ball=ball)
    rng = RngStream(args.seed, 0).generator()
    draws = sample_noise(config, rng, size=args.reps)
    gauges = ball.gauge_many(draws)
    lines = [f"# seed={args.seed}", f"# ball={args.ball}",
             f"# delta={args.delta!r}", f"# eps={args.eps!r}"]
    header = ["replicate"] + [f"v{i+1}" for i in range(ball.dimension)] + ["gauge"]
    lines.append(",".join(header))
    for i, (row, g) in enumerate(zip(draws, gauges)):
        cells = [str(i)] + [repr(float(x)) for x in row] + [repr(float(g))]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diagnostics(args):
    report = harness.run_diagnostics(
        mechanisms=args.mech, n_draws=args.draws, seed=args.seed,
        fault=args.inject_fault,
    )
    for line in report.format_lines():
        sys.stdout.write(line + "\n")
    if not report.checks:
        sys.stdout.write("no checks requested\n")
        return 0
    sys.stdout.write(("ALL PASS" if report.all_passed else "FAILURES") + "\n")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knorm",
        description="K-norm mechanisms: simulations, comparison, sampling, diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate-logistic",
                       help="private logistic regression on synthetic data")
    _add_common(s, harness.DEFAULT_LOGISTIC_EPS, ("l1", "l2", "linf"), 10_000, 100)
    s.set_defaults(func=_cmd_simulate_logistic)

    s = sub.add_parser("simulate-coverage",
                       help="CI coverage of private linear regression")
    _add_common(s, harness.DEFAULT_COVERAGE_EPS, ("l1", "linf", "kt"), 10_000, 200)
    s.add_argument("--p", type=int, default=5)
    s.set_defaults(func=_cmd_simulate_coverage)

    s = sub.add_parser("run-regression",
                       help="private regression on a CSV file")
    _add_common(s, harness.DEFAULT_REGRESSION_EPS, ("l1", "linf"), 0, 100)
    s.add_argument("--csv", required=True)
    s.add_argument("--response", required=True)
    s.add_argument("--log-cols", type=_parse_list, default=(),
                   help="columns to log-transform")
    s.add_argument("--lower-q", type=float, default=0.0001)
    s.add_argument("--upper-q", type=float, default=0.9999)
    s.set_defaults(func=_cmd_run_regression)

    s = sub.add_parser("compare", help="compare two mechanisms")
    s.add_argument("--a", required=True, help="mechanism spec <ball>:<delta>")
    s.add_argument("--b", required=True, help="mechanism spec <ball>:<delta>")
    s.add_argument("--m", type=int, required=True, help="dimension")
    s.add_argument("--eps", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mc-samples", type=int, default=1_000_000)
    s.set_defaults(func=_cmd_compare)

    s = sub.add_parser("sample", help="emit raw mechanism noise draws as CSV")
    s.add_argument("--ball", required=True, help="l1|l2|linf|l<p>|k2|k3|kt<p>")
    s.add_argument("--m", type=int, default=2, help="dimension for lp balls")
    s.add_argument("--delta", type=float, default=1.0)
    s.add_argument("--eps", type=float, default=1.0)
    s.add_argument("--reps", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sample)

    s = sub.add_parser("diagnostics", help="sampler statistical self-tests")
    s.add_argument("--mech", type=_parse_list, default=("l1", "l2", "linf", "k2"),
                   help="comma list of ball names, as for sample --ball")
    s.add_argument("--draws", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--inject-fault", choices=("laplace-scale",),
                   help="testing aid: deliberately mis-scale a sampler")
    s.set_defaults(func=_cmd_diagnostics)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
