"""Command-line interface: simulations, comparison, sampling, diagnostics."""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness
from .geometry import _check_integer
from .harness import SimulationConfig
from .linreg import ball_from_name
from .ordering import compare
from .sampling import BudgetError, MechanismConfig, RngStream, sample_noise

# unused here, but perfbench/spans.py rebinds this name in this module
from .linreg import kt_ball  # noqa: F401


def _parse_eps(text):
    values = tuple(float(tok) for tok in text.split(",") if tok)
    if not values:
        raise argparse.ArgumentTypeError("empty epsilon list")
    return values


def _parse_list(text):
    return tuple(tok for tok in text.split(",") if tok)


def _budget(options, build):
    """build(), with a budget it refuses (BudgetError) reported under the
    options that set it."""
    try:
        return build()
    except BudgetError as exc:
        raise ValueError(f"{options}: {exc}") from None


def _parse_mechanism(option, spec, m, epsilon):
    """Mechanism spec "<ball>:<delta>", e.g. "linf:2" or "k2:1", of an option."""
    ball_token, _, delta_token = spec.partition(":")
    if not delta_token:
        raise ValueError(f"mechanism spec needs <ball>:<delta>, got {spec!r}")
    ball = ball_from_name(ball_token, m)
    return _budget(f"{option} {spec} at --eps {epsilon!r}", lambda: MechanismConfig(
        epsilon=epsilon, delta=float(delta_token), ball=ball, label=spec))


def _emit(text, path):
    """Write text to path, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _simulate(driver, args, **settings):
    """Run a simulation driver on the run grid of the shared flags and on its
    own settings (a refused budget names --q too for the driver that takes
    it); write both tables."""
    table = _budget("--eps/--q" if "q" in settings else "--eps", lambda: driver(SimulationConfig(
        eps=args.eps, mechanisms=args.mech, reps=args.reps, seed=args.seed), **settings))
    _emit(table.long_csv(), args.out)
    _emit(table.summary_csv(), args.summary)
    return 0


def _add_common(sub, default_eps, default_mechs, default_reps):
    sub.add_argument("--eps", type=_parse_eps, default=default_eps,
                     help="comma list of privacy budgets")
    sub.add_argument("--reps", type=int, default=default_reps)
    sub.add_argument("--mech", type=_parse_list, default=default_mechs,
                     help="comma list of mechanisms")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="long-form CSV path (default stdout)")
    sub.add_argument("--summary", help="summary CSV path (default stdout)")


def _cmd_simulate_logistic(args):
    return _simulate(harness.simulate_logistic, args, n=args.n, q=args.q)


def _cmd_simulate_coverage(args):
    return _simulate(harness.simulate_coverage, args, n=args.n, p=args.p)


def _cmd_run_regression(args):
    return _simulate(
        harness.run_regression_file, args, csv_path=args.csv, response=args.response,
        log_columns=args.log_cols, lower_q=args.lower_q, upper_q=args.upper_q,
    )


def _cmd_compare(args):
    _check_integer("--m", args.m)
    _check_integer("--mc-samples", args.mc_samples, 1000)
    mech_a = _parse_mechanism("--a", args.a, args.m, args.eps)
    mech_b = _parse_mechanism("--b", args.b, args.m, args.eps)
    report = compare(mech_a, mech_b, seed=args.seed, n_mc=args.mc_samples)
    items = report.as_dict()
    for key, value in items.items():
        sys.stdout.write(f"{key}={value}\n")
    sys.stdout.write(",".join(items.keys()) + "\n")
    sys.stdout.write(",".join(str(v) for v in items.values()) + "\n")
    return 0


def _cmd_sample(args):
    _check_integer("--reps", args.reps, 0)
    _check_integer("--m", args.m)
    ball = ball_from_name(args.ball, args.m)
    config = _budget("--eps/--delta", lambda: MechanismConfig(args.eps, args.delta, ball))
    rng = RngStream(args.seed, 0).generator()
    draws = sample_noise(config, rng, size=args.reps)
    gauges = ball.gauge_many(draws)
    lines = [f"# seed={args.seed}", f"# ball={args.ball}",
             f"# delta={args.delta!r}", f"# eps={args.eps!r}"]
    header = ["replicate"] + [f"v{i+1}" for i in range(ball.dimension)] + ["gauge"]
    lines.append(",".join(header))
    # repr of the Python floats tolist gives, not of one numpy scalar at a time
    for i, (row, g) in enumerate(zip(draws.tolist(), gauges.tolist())):
        lines.append(",".join([str(i), *map(repr, row), repr(g)]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagnostics(args):
    report = harness.run_diagnostics(mechanisms=args.mech, n_draws=args.draws, seed=args.seed)
    for line in report.format_lines():
        sys.stdout.write(line + "\n")
    if not report.checks:
        sys.stdout.write("no checks requested\n")
        return 0
    sys.stdout.write(("ALL PASS" if report.all_passed else "FAILURES") + "\n")
    return 0 if report.all_passed else 1


@functools.cache
def _parser():
    """The argparse tree, built on the first main call and kept for later ones."""
    parser = argparse.ArgumentParser(
        prog="knorm",
        description="K-norm mechanisms: simulations, comparison, sampling, diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate-logistic",
                       help="private logistic regression on synthetic data")
    _add_common(s, harness.DEFAULT_LOGISTIC_EPS, ("l1", "l2", "linf"), 100)
    s.add_argument("--n", type=int, default=10_000)
    s.add_argument("--q", type=float, default=0.5)
    s.set_defaults(func=_cmd_simulate_logistic)

    s = sub.add_parser("simulate-coverage",
                       help="CI coverage of private linear regression")
    _add_common(s, harness.DEFAULT_COVERAGE_EPS, ("l1", "linf", "kt"), 200)
    s.add_argument("--n", type=int, default=10_000)
    s.add_argument("--p", type=int, default=5)
    s.set_defaults(func=_cmd_simulate_coverage)

    s = sub.add_parser("run-regression",
                       help="evaluate private regression on a CSV file "
                            "(an evaluation, not a release: do not publish its output)")
    _add_common(s, harness.DEFAULT_REGRESSION_EPS, ("l1", "linf"), 100)
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
    s.add_argument("--mech", type=_parse_list, default=harness.DEFAULT_DIAGNOSTIC_MECHS,
                   help="comma list of ball names, as for sample --ball")
    s.add_argument("--draws", type=int, default=harness.DEFAULT_DIAGNOSTIC_DRAWS)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_diagnostics)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every subcommand reads --seed
        _check_integer("--seed", args.seed, 0)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
