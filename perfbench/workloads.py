"""The three benchmark workloads: CLI invocations per pass and checks on their output.

A pass is a fixed batch of `knorm` CLI invocations, run in-process through
`knorm.cli.main` with stdout captured. Each pass is checked: every released
value finite, long-CSV row counts equal eps x mechanisms x reps plus the
`mle`/`true_beta` rows, and every subcommand exiting 0. An op that exits
nonzero has failed; one whose output breaks a check has also released a
wrong output. Paper results that the program gets wrong today are checked
apart from the ops, by `paper_defects`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from knorm import cli, harness

#: seed of the canonical pass whose output digests are recorded
CANONICAL_SEED = 0

LOGISTIC_REPS = 2
COVERAGE_REPS = 10
COVERAGE_P = 12
N_ROWS = 10_000


def run_cli(argv):
    """Run one `knorm` invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _csv_rows(text):
    """Data rows of one CSV block: echo lines dropped, header row dropped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(lines[1:]))


def _split_tables(stdout):
    # the CLI writes the long table then the summary table, each opening
    # with the same "# experiment=" echo line
    cut = stdout.find("# experiment=", 1)
    return (stdout, "") if cut < 0 else (stdout[:cut], stdout[cut:])


@dataclass
class PassResult:
    """Per-op wall and CPU seconds and check outcome of one pass."""

    op_seconds: list = field(default_factory=list)
    op_cpu_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def time(self, argv, probe=None):
        """Run and time one invocation, after calling probe if given; returns
        (exit code, stdout, stderr)."""
        if probe is not None:
            probe()
        t0, c0 = perf_counter(), process_time()
        result = run_cli(argv)
        self.op_seconds.append(perf_counter() - t0)
        self.op_cpu_seconds.append(process_time() - c0)
        return result


class Simulation:
    """`simulate-logistic` or `simulate-coverage`; one op is one long-CSV row."""

    def __init__(self, name, subcommand, extra, n_eps, n_mech, n_extra_summary, reps,
                 pass_seed_count):
        self.name = name
        self.pass_seed_count = pass_seed_count
        self.subcommand = subcommand
        self.extra = list(extra)
        self.reps = reps
        self.expected_long = reps * (n_eps * n_mech + 1)
        self.expected_summary = n_eps * n_mech + n_extra_summary
        self.ops_per_pass = self.expected_long

    def argv(self, seed):
        return [self.subcommand, *self.extra, "--n", str(N_ROWS),
                "--reps", str(self.reps), "--seed", str(seed)]

    def run_pass(self, seed, digest=False, probe=None):
        res = PassResult(attempted=self.expected_long)
        argv = self.argv(seed)
        rc, out, err = res.time(argv, probe)
        if rc != 0:
            res.failed = self.expected_long
            res.errors.append(f"knorm {' '.join(argv)} exited {rc}: {err.strip()}")
            return res
        long_text, summary_text = _split_tables(out)
        rows = _csv_rows(long_text)
        good = sum(1 for row in rows if row and _finite(row[-1]))
        failed = max(self.expected_long - good, 0) + max(len(rows) - self.expected_long, 0)
        summary = _csv_rows(summary_text)
        bad_summary = sum(1 for row in summary if not (row and _finite(row[-1])))
        bad_summary += abs(len(summary) - self.expected_summary)
        res.failed = res.wrong = min(self.expected_long, failed + bad_summary)
        if res.failed:
            res.errors.append(
                f"knorm {' '.join(argv)}: {res.failed} bad rows ({len(rows)} long rows, "
                f"{len(summary)} summary rows)"
            )
        if digest:
            res.digests = {
                f"{self.name}.long_csv": sha256(long_text),
                f"{self.name}.summary_csv": sha256(summary_text),
            }
        return res


def _check_compare(out):
    items = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    numbers = ("volume_a", "volume_b", "entropy_a", "entropy_b")
    verdicts = ("tie", "a_tighter", "b_tighter", "incomparable", "undetermined")
    return all(_finite(items.get(k, "")) for k in numbers) and (
        items.get("containment") in verdicts
    ), items


def _check_sample(out, reps):
    lines = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    return len(lines) == reps + 1 and all(
        len(row) == len(lines[0]) and all(_finite(c) for c in row) for row in lines[1:]
    )


class ChooseMech:
    """The paper's ball-choice invocations; one op is one subcommand invocation.

    compare and sample take the pass seed; diagnostics runs with its
    defaults, because its several 0.01-level tests have a few-percent
    false-alarm rate per seed.
    """

    name = "choose-mech"
    pass_seed_count = 1
    OPS = (
        ("compare_k2_linf", ["compare", "--a", "k2:1", "--b", "linf:2", "--m", "2"]),
        ("compare_k2_l2", ["compare", "--a", "k2:1", "--b", "l2:2.8284271247461903",
                           "--m", "2"]),
        ("compare_kt3_linf", ["compare", "--a", "kt3:1", "--b", "linf:2", "--m", "13"]),
        ("sample_kt5", ["sample", "--ball", "kt5"]),
        ("sample_k3", ["sample", "--ball", "k3"]),
        ("sample_l1p5_m10", ["sample", "--ball", "l1.5", "--m", "10"]),
        ("diagnostics", ["diagnostics"]),
    )
    SAMPLE_REPS = 100  # the CLI default
    ops_per_pass = len(OPS)

    def _argv(self, argv, seed):
        return argv if argv[0] == "diagnostics" else [*argv, "--seed", str(seed)]

    def run_pass(self, seed, digest=False, probe=None):
        res = PassResult(attempted=len(self.OPS))
        for name, argv in self.OPS:
            argv = self._argv(argv, seed)
            rc, out, err = res.time(argv, probe)
            ok = rc == 0
            if ok and argv[0] == "compare":
                ok = _check_compare(out)[0]
            elif ok and argv[0] == "sample":
                ok = _check_sample(out, self.SAMPLE_REPS)
            elif ok and argv[0] == "diagnostics":
                ok = out.rstrip().endswith("ALL PASS")
            if not ok:
                res.failed += 1
                res.wrong += rc == 0
                res.errors.append(f"knorm {' '.join(argv)} (exit {rc}): {err.strip()}")
            if digest:
                res.digests[f"{self.name}.{name}"] = sha256(out)
        return res


def paper_defects(seed):
    """Paper results the program gets wrong today, as messages; empty once both are fixed.

    - The paper proves the k2 ball (Delta 1) lies inside the l-inf ball of
      radius 2, so compare must say a_tighter and prefer k2:1 by volume.
    - l1.5 at m=10 accepts 1.4e-4 of box proposals, so the 1e6-proposal
      budget yields about 140 draws and 1000 draws raise SamplerError.
    """
    defects = set()
    argv = ["compare", "--a", "k2:1", "--b", "linf:2", "--m", "2", "--seed", str(seed)]
    rc, out, err = run_cli(argv)
    items = _check_compare(out)[1] if rc == 0 else {}
    if items.get("containment") != "a_tighter" or items.get("preferred_by_volume") != "k2:1":
        defects.add(f"knorm {' '.join(argv)}: exit {rc}, containment="
                    f"{items.get('containment')}, volume prefers "
                    f"{items.get('preferred_by_volume')} (paper: a_tighter, k2:1)")
    argv = ["sample", "--ball", "l1.5", "--m", "10", "--reps", "1000", "--seed", str(seed)]
    rc, _, err = run_cli(argv)
    if rc != 0:
        defects.add(f"knorm {' '.join(argv)} exits {rc}: {err.strip()}")
    return defects


WORKLOADS = {
    "logistic": Simulation(
        "logistic", "simulate-logistic", [],
        n_eps=len(harness.DEFAULT_LOGISTIC_EPS), n_mech=3, n_extra_summary=2,
        reps=LOGISTIC_REPS, pass_seed_count=3,
    ),
    "coverage-kt12": Simulation(
        "coverage-kt12", "simulate-coverage", ["--p", str(COVERAGE_P)],
        n_eps=len(harness.DEFAULT_COVERAGE_EPS), n_mech=3, n_extra_summary=1,
        reps=COVERAGE_REPS, pass_seed_count=6,
    ),
    "choose-mech": ChooseMech(),
}


def pass_seeds(workload, seed):
    """The run's fixed list of pass seeds, drawn from the run seed."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(1, 2**31, size=workload.pass_seed_count)]
