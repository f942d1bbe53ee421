import ast
import copy
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import io
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import knorm
from knorm import cli, erm, harness, linreg, ordering
from knorm.cli import main
from knorm.erm import (
    ObjPertConfig,
    OptimizerError,
    logistic_loss_spec,
    minimize_erm,
    objective_perturbation,
)
from knorm.geometry import NormBall, k2_ball
from knorm.linreg import ball_from_name, kt_ball
from knorm.sampling import MechanismConfig, RngStream, sample_k_mech_rejection, sample_noise
from knorm.harness import (
    DEFAULT_COVERAGE_EPS,
    DEFAULT_REGRESSION_EPS,
    LOGISTIC_BETA,
    SimulationConfig,
    ks_critical,
    ks_statistic,
    lower_median,
    read_table,
    run_diagnostics,
    run_regression_file,
    simulate_coverage,
    simulate_logistic,
)
from reference import summary_value


#: run_diagnostics() format_lines() with every default, as knorm diagnostics prints it
DEFAULT_DIAGNOSTICS = """\
PASS gamma-marginal-ks[l1]: statistic=0.00643813 threshold=0.0162762 (m=2 delta=1.0 eps=1.0 n=10000)
PASS unbiasedness[l1]: statistic=1.78997 threshold=4 (max |mean|/SE over coordinates)
PASS dp-ratio[laplace]: statistic=0.933682 threshold=1 (worst bin ratio 2.713 over 20 bins)
PASS gamma-marginal-ks[l2]: statistic=0.00866318 threshold=0.0162762 (m=2 delta=1.0 eps=1.0 n=10000)
PASS unbiasedness[l2]: statistic=0.628182 threshold=4 (max |mean|/SE over coordinates)
PASS gamma-marginal-ks[linf]: statistic=0.00776139 threshold=0.0162762 (m=2 delta=1.0 eps=1.0 n=10000)
PASS unbiasedness[linf]: statistic=2.09543 threshold=4 (max |mean|/SE over coordinates)
PASS gamma-marginal-ks[k2]: statistic=0.00917696 threshold=0.0162762 (m=2 delta=1.0 eps=1.0 n=10000)
PASS unbiasedness[k2]: statistic=1.38833 threshold=4 (max |mean|/SE over coordinates)
PASS box-fraction[k2]: statistic=0.197395 threshold=4 (expected 0.8333, estimate 0.833863)
"""


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def no_stream(*args, **kwargs):
    """Patched over RngStream.generator or harness.read_table, where a
    refusal must come before any stream or CSV read."""
    raise AssertionError("read the CSV or drew a stream before refusing the settings")


def refusal(call):
    """The message of the ValueError that call() raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def grid(reps):
    """A run grid of one cell, eps 1 and l1, with reps replicates."""
    return SimulationConfig(eps=(1.0,), mechanisms=("l1",), reps=reps, seed=0)


#: the settings run-regression passes its driver when no flag sets them
REGRESSION_DEFAULTS = dict(log_columns=(), lower_q=0.0001, upper_q=0.9999)


def synthetic_regression_csv(path, n=2000, p=5, seed=0):
    rng = np.random.default_rng(seed)
    beta = np.concatenate([[0.0], np.linspace(-1.5, 1.5, p)])
    X0 = rng.uniform(-1, 1, (n, p))
    y = np.column_stack([np.ones(n), X0]) @ beta + rng.standard_normal(n)
    header = [f"x{j}" for j in range(1, p + 1)] + ["y"]
    rows = np.column_stack([X0, y])
    write_csv(path, header, rows.tolist())


class TestLowerMedian:
    def test_odd(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_takes_lower(self):
        assert lower_median([1.0, 2.0]) == 1.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            lower_median([])


class TestKsHelpers:
    def test_critical_value_close_to_known(self):
        # asymptotic 0.01-level constant is about 1.6276/sqrt(n)
        assert math.isclose(ks_critical(10_000, 0.01), 1.6276 / 100.0, rel_tol=1e-3)

    def test_statistic_detects_wrong_cdf(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, 5000)
        good = ks_statistic(x, lambda v: 1 - np.exp(-v))
        bad = ks_statistic(x, lambda v: 1 - np.exp(-2 * v))
        assert good < ks_critical(5000, 0.01) < bad

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_critical_value_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            ks_critical(100, alpha)

    @pytest.mark.parametrize("n", [0, -5, math.nan, 50.5, math.inf])
    def test_critical_value_rejects_empty_sample(self, n):
        # a sample size is a whole number: 50.5 used to give a critical value
        assert refusal(lambda: ks_critical(n, 0.01)) == f"n must be an integer >= 1, got {n}"


class TestSimulateLogistic:
    def test_baseline_and_high_eps(self):
        config = SimulationConfig(eps=(1e6,), reps=5, mechanisms=("l1", "linf"), seed=3)
        table = simulate_logistic(config, n=2000, q=0.5)
        zero = summary_value(table, "", "zero", "l2_error")
        assert math.isclose(zero, math.sqrt(1 + 0.25 + 1 / 16 + 9 / 16 + 9 / 4),
                            rel_tol=1e-12)
        mle_median = summary_value(table, "", "mle", "median_l2_error")
        for mech in ("l1", "linf"):
            med = summary_value(table, 1e6, mech, "median_l2_error")
            assert abs(med - mle_median) < 0.05

    def test_unknown_mechanism_rejected(self):
        config = SimulationConfig(eps=(1.0,), reps=1, mechanisms=("kt",), seed=0)
        with pytest.raises(ValueError):
            simulate_logistic(config, n=100, q=0.5)

    def test_q_refused_without_mechanisms(self, monkeypatch):
        # q used to be checked only by ObjPertConfig, which no mechanism builds
        monkeypatch.setattr(RngStream, "generator", no_stream)
        config = SimulationConfig(eps=(1.0,), reps=1, mechanisms=(), seed=0)
        assert refusal(lambda: simulate_logistic(config, n=50, q=5.0)) == (
            "q must be in (0, 1), got 5.0")

    def test_integer_valued_float_settings_run_as_their_ints(self):
        # the echo prints the int, so the bytes are those of the int run
        a = simulate_logistic(SimulationConfig(eps=(1.0,), mechanisms=("l1",), reps=1.0,
                                               seed=2.0), n=50.0, q=0.5)
        b = simulate_logistic(SimulationConfig(eps=(1.0,), mechanisms=("l1",), reps=1,
                                               seed=2), n=50, q=0.5)
        assert a.long_csv() == b.long_csv()
        assert "# seed=2\n# n=50\n# reps=1\n" in a.long_csv()

    def test_long_rows_complete(self):
        config = SimulationConfig(eps=(1.0, 2.0), reps=3, mechanisms=("l2",), seed=4)
        table = simulate_logistic(config, n=500, q=0.5)
        mech_rows = [r for r in table.long_rows if r[1] == "l2"]
        assert len(mech_rows) == 6
        mle_rows = [r for r in table.long_rows if r[1] == "mle"]
        assert len(mle_rows) == 3


class TestSimulateCoverage:
    def test_true_beta_coverage_near_nominal(self):
        config = SimulationConfig(eps=(0.5,), reps=60, mechanisms=(), seed=5)
        table = simulate_coverage(config, n=2000, p=5)
        cov = summary_value(table, "", "true_beta", "mean_coverage")
        assert abs(cov - 0.95) < 0.05

    def test_high_budget_large_n_near_nominal(self):
        config = SimulationConfig(eps=(4.0,), reps=10, mechanisms=("l1", "linf", "kt"), seed=6)
        table = simulate_coverage(config, n=1_000_000, p=5)
        for mech in ("l1", "linf", "kt"):
            cov = summary_value(table, 4.0, mech, "mean_coverage")
            # vanishing noise pushes the estimate onto the CI center, so the
            # band [0.90, 1.00] is reached from the top end
            assert 0.90 <= cov <= 1.0

    def test_linf_beats_l1_at_moderate_budget(self):
        config = SimulationConfig(eps=(0.5,), reps=50, mechanisms=("l1", "linf"), seed=7)
        table = simulate_coverage(config, n=10_000, p=5)
        assert (summary_value(table, 0.5, "linf", "mean_coverage")
                > summary_value(table, 0.5, "l1", "mean_coverage"))

    @pytest.mark.parametrize("n, p", [(13, 12), (3, 2), (5, 12)])
    def test_n_at_most_p_plus_one_rejected(self, n, p):
        # the t-intervals have n - p - 1 degrees of freedom: zero divided by
        # zero at n = p + 1, and fewer rows than coefficients below it
        config = SimulationConfig(eps=(1.0,), reps=1, mechanisms=("linf",), seed=0)
        with pytest.raises(ValueError, match=f"got n={n}, p={p}"):
            simulate_coverage(config, n=n, p=p)

    def test_p_refused_without_mechanisms(self, monkeypatch):
        # p used to be checked only by statistic_mechanism, which no mechanism
        # calls; the replicate then died in numpy
        monkeypatch.setattr(RngStream, "generator", no_stream)
        config = SimulationConfig(eps=(1.0,), reps=1, mechanisms=(), seed=0)
        assert refusal(lambda: simulate_coverage(config, n=50, p=0)) == (
            "p must be an integer >= 1, got 0")

    def test_smallest_n_runs(self):
        config = SimulationConfig(eps=(1.0,), reps=2, mechanisms=("linf",), seed=0)
        table = simulate_coverage(config, n=4, p=2)
        assert 0.0 <= summary_value(table, 1.0, "linf", "mean_coverage") <= 1.0


class TestRunRegressionFile:
    def test_vanishing_noise_and_baseline(self, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_regression_csv(path, n=500, p=3, seed=8)
        config = SimulationConfig(eps=(1e9,), reps=3, mechanisms=("l1", "linf", "kt"), seed=8)
        table = run_regression_file(config, csv_path=str(path), response="y", **REGRESSION_DEFAULTS)
        for mech in ("l1", "linf", "kt"):
            assert summary_value(table, 1e9, mech, "median_l2_distance_to_mle") <= 1e-4
        baseline = summary_value(table, "", "zero", "l2_distance_to_mle")
        assert baseline > 0
        assert "baseline_l2" in table.config_echo

    def test_linf_beats_l1_ordering(self, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_regression_csv(path, n=2000, p=5, seed=9)
        config = SimulationConfig(eps=(1 / 16, 1 / 4, 1.0), reps=200, mechanisms=("l1", "linf"),
                                  seed=9)
        table = run_regression_file(config, csv_path=str(path), response="y", **REGRESSION_DEFAULTS)
        for eps in (1 / 16, 1 / 4, 1.0):
            d_inf = summary_value(table, eps, "linf", "median_l2_distance_to_mle")
            d_1 = summary_value(table, eps, "l1", "median_l2_distance_to_mle")
            assert d_inf < d_1

    def test_requires_path_and_response(self, monkeypatch):
        # the signature requires every setting, so a call without one of them
        # is refused before any file is read or stream drawn
        def refused(*args, **kwargs):
            raise AssertionError("read a file or drew a stream before refusing the call")

        monkeypatch.setattr(harness, "read_table", refused)
        monkeypatch.setattr(RngStream, "generator", refused)
        settings = dict(csv_path="data.csv", response="y", **REGRESSION_DEFAULTS)
        config = SimulationConfig(eps=(1.0,), mechanisms=("l1",), reps=1, seed=0)
        for name in settings:
            with pytest.raises(TypeError, match=f"'{name}'"):
                run_regression_file(config, **{k: v for k, v in settings.items() if k != name})


class TestReadTable:
    def test_reads_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        cols = read_table(path)
        assert list(cols) == ["a", "b"]
        assert np.array_equal(cols["b"], [2.0, 4.0])

    def test_reports_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, "oops"]])
        with pytest.raises(ValueError, match="row 3, column 'b'"):
            read_table(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, cell]])
        with pytest.raises(ValueError, match="row 3, column 'b': not a finite number"):
            read_table(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [])
        with pytest.raises(ValueError, match="no data rows"):
            read_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            read_table(path)


def mis_scale_laplace(monkeypatch):
    """Stub harness.sample_noise so that every l1 ball draws at half its
    Delta: a mis-scaled Laplace sampler that the diagnostics must catch."""
    draw = harness.sample_noise

    def half_delta(config, rng, size=None):
        if config.ball.p == 1:
            config = MechanismConfig(config.epsilon, config.delta / 2.0, config.ball)
        return draw(config, rng, size=size)

    monkeypatch.setattr(harness, "sample_noise", half_delta)


class TestDiagnostics:
    def test_default_all_pass(self):
        report = run_diagnostics(n_draws=4000, seed=0)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert any("gamma-marginal" in n for n in names)
        assert any("dp-ratio" in n for n in names)
        assert any("box-fraction" in n for n in names)

    def test_default_output_pinned(self):
        assert run_diagnostics().format_lines() == DEFAULT_DIAGNOSTICS.splitlines()

    @pytest.mark.parametrize("n", [50, 10_000])
    @pytest.mark.parametrize("mech", ["l1", "l2", "linf", "k2", "k3", "kt1"])
    def test_unbiasedness_matches_per_column_formula(self, mech, n):
        # the statistic reduces contiguous coordinate rows, which numpy sums
        # pairwise, so it may differ from the column reduce in its last bits
        ball = ball_from_name(mech, 2)
        v = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(0, 1000).generator(),
                         size=n)
        se = v.std(axis=0, ddof=1) / math.sqrt(n)
        want = float(np.max(np.abs(v.mean(axis=0)) / se))
        report = run_diagnostics(mechanisms=(mech,), n_draws=n, seed=0)
        got = next(c.statistic for c in report.checks if c.name == f"unbiasedness[{mech}]")
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("n", [50, 20_000])
    def test_dp_ratio_check_matches_a_loop_over_bins(self, epsilon, n):
        # the worst bin is the first of largest relative ratio, as a strict
        # > scan over the used bins picks; no used bin reads (0, 1, 0)
        for seed in range(4):
            rng = RngStream(seed, 900_000).generator()
            s0 = harness.sample_l1_mech(np.zeros(1), 1.0, epsilon, rng, size=n)[:, 0]
            s1 = harness.sample_l1_mech(np.ones(1), 1.0, epsilon, rng, size=n)[:, 0]
            edges = np.arange(-8.0, 9.0 + 1e-9, 0.5)
            c0, c1 = np.histogram(s0, bins=edges)[0], np.histogram(s1, bins=edges)[0]
            worst, hit, bins = 0.0, 1.0, 0
            for a, b in zip(c0, c1):
                if a >= 100 and b >= 100:
                    bins += 1
                    ratio = max(a / b, b / a)
                    rel = ratio / (math.exp(epsilon) * (1.0 + 5.0 * math.sqrt(1.0 / a + 1.0 / b)))
                    if rel > worst:
                        worst, hit = rel, ratio
            assert harness._dp_ratio_check(epsilon, n, seed) == (worst, hit, bins)

    def test_acceptance_check_for_every_hull_with_a_volume(self):
        report = run_diagnostics(mechanisms=("k3", "kt1", "kt4"), n_draws=2000, seed=0)
        assert report.all_passed
        checks = {c.name: c for c in report.checks}
        # the k3 hull fills 5/6 of its box and kt1 117/160; kt4 has no known volume
        assert "expected 0.8333," in checks["box-fraction[k3]"].detail
        assert "expected 0.7312," in checks["box-fraction[kt1]"].detail
        assert "box-fraction[kt4]" not in checks

    def test_kt_volumes_pass_at_the_defaults(self, capsys):
        assert main(["diagnostics", "--mech", "kt1,kt2,kt3"]) == 0
        out = capsys.readouterr().out
        for p in (1, 2, 3):
            assert f"PASS box-fraction[kt{p}]" in out

    def test_wrong_kt_volume_fails_its_box_fraction_check(self, monkeypatch):
        # a kt3 box fraction 10% too large sits about 10 SE from the estimate
        fractions = linreg._KT_BOX_FRACTIONS
        monkeypatch.setitem(fractions, 3, 1.1 * fractions[3])
        report = run_diagnostics(mechanisms=("kt3",), seed=0)
        checks = {c.name: c for c in report.checks}
        box = checks["box-fraction[kt3]"]
        assert not box.passed
        assert box.statistic > box.threshold == 4.0
        assert checks["gamma-marginal-ks[kt3]"].passed

    @pytest.mark.parametrize("fault", ["none", "laplace-scale", "kt3-volume"])
    def test_each_printed_verdict_follows_its_printed_numbers(self, capsys, monkeypatch,
                                                              fault):
        # PASS iff the statistic a line prints is at most the threshold it
        # prints, on a clean run and on two that must fail
        if fault == "laplace-scale":
            mis_scale_laplace(monkeypatch)
        if fault == "kt3-volume":
            monkeypatch.setitem(linreg._KT_BOX_FRACTIONS, 3,
                                1.1 * linreg._KT_BOX_FRACTIONS[3])
        argv = {"none": [], "laplace-scale": ["--mech", "l1"], "kt3-volume": ["--mech", "kt3"]}
        code = main(["diagnostics", *argv[fault]])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("ALL PASS" if fault == "none" else "FAILURES")
        assert code == (fault != "none")
        verdicts = []
        for line in lines[:-1]:
            m = re.fullmatch(r"(PASS|FAIL) \S+: statistic=(\S+) threshold=(\S+) \(.*\)", line)
            assert m, line
            verdicts.append(m[1])
            assert (m[1] == "PASS") == (float(m[2]) <= float(m[3])), line
        assert ("FAIL" in verdicts) == (fault != "none")

    def test_fault_injection_detected(self, monkeypatch):
        mis_scale_laplace(monkeypatch)
        report = run_diagnostics(mechanisms=("l1",), n_draws=4000, seed=0)
        ks_checks = [c for c in report.checks if "gamma-marginal" in c.name]
        assert ks_checks and not ks_checks[0].passed
        assert not report.all_passed

    def test_any_ball_name(self):
        report = run_diagnostics(mechanisms=("k3", "l1.5"), n_draws=2000, seed=0)
        assert report.all_passed
        ks = {c.name: c for c in report.checks if "gamma-marginal" in c.name}
        # hull bodies keep their own dimension, lp balls are 2-dimensional
        assert "m=3 " in ks["gamma-marginal-ks[k3]"].detail
        assert "m=2 " in ks["gamma-marginal-ks[l1.5]"].detail

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="gauss"):
            run_diagnostics(mechanisms=("l1", "gauss"), n_draws=100, seed=0)

    def test_empty_mechanisms_empty_report(self):
        report = run_diagnostics(mechanisms=(), seed=0)
        assert report.checks == []
        assert report.all_passed

    @pytest.mark.parametrize("n_draws", [49, 1, 0, -3])
    def test_too_few_draws_rejected(self, n_draws):
        # below 50 draws the normal approximations behind the 4-SE checks
        # fail correct samplers; zero or fewer used to fail deep in lp_norm
        # or numpy
        assert refusal(lambda: run_diagnostics(n_draws=n_draws)) == (
            f"n_draws must be an integer >= 50, got {n_draws}")


class TestDeterminismAndEcho:
    def test_byte_identical_output(self):
        config = SimulationConfig(eps=(0.5, 1.0), reps=3, mechanisms=("l1", "linf"), seed=11)
        a, b = (simulate_logistic(config, n=300, q=0.5) for _ in range(2))
        assert a.long_csv() == b.long_csv()
        assert a.summary_csv() == b.summary_csv()

    def test_mechanism_order_changes_streams_not_results_shape(self):
        base = SimulationConfig(eps=(1.0,), reps=2, mechanisms=("l1", "linf"), seed=12)
        swapped = SimulationConfig(eps=(1.0,), reps=2, mechanisms=("linf", "l1"), seed=12)
        a, b = (simulate_logistic(config, n=300, q=0.5) for config in (base, swapped))
        assert a.long_csv() != b.long_csv()
        assert len(a.long_rows) == len(b.long_rows)

    def test_config_echo_rows(self):
        config = SimulationConfig(eps=(1.0,), reps=2, mechanisms=("linf",), seed=13)
        text = simulate_coverage(config, n=500, p=2).long_csv()
        for key in ("seed=13", "n=500", "eps=1.0", "mechanisms=linf"):
            assert f"# " in text and key in text
        # coverage reads no q, so only simulate-logistic echoes it
        assert "# q=" not in text
        logistic = simulate_logistic(SimulationConfig(
            eps=(1.0,), reps=1, mechanisms=("linf",), seed=13), n=200, q=0.5)
        assert "# q=0.5\n" in logistic.long_csv()

    def test_config_holds_only_the_run_grid(self):
        # each driver takes the settings only it reads as keywords
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "eps", "mechanisms", "reps", "seed"]

    @pytest.mark.parametrize("fn", [SimulationConfig, linreg.preprocess],
                             ids=["SimulationConfig", "preprocess"])
    def test_no_library_defaults(self, fn):
        # the CLI's argparse defaults are the only copy of the run settings
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []

    @pytest.mark.parametrize("driver, settings", [
        (simulate_logistic, dict(n=200, q=0.5, p=2)),
        (simulate_coverage, dict(n=300, p=2, q=0.5)),
        (run_regression_file, dict(csv_path="data.csv", response="y", n=300,
                                   **REGRESSION_DEFAULTS)),
    ])
    def test_driver_refuses_a_setting_it_does_not_read(self, driver, settings):
        with pytest.raises(TypeError, match="unexpected keyword"):
            driver(SimulationConfig(eps=(1.0,), mechanisms=("l1",), reps=1, seed=0), **settings)

    @pytest.mark.parametrize("argv, driver, grid, settings", [
        (["simulate-logistic"], "simulate_logistic",
         dict(eps=harness.DEFAULT_LOGISTIC_EPS, mechanisms=("l1", "l2", "linf"), reps=100),
         dict(n=10_000, q=0.5)),
        (["simulate-coverage"], "simulate_coverage",
         dict(eps=DEFAULT_COVERAGE_EPS, mechanisms=("l1", "linf", "kt"), reps=200),
         dict(n=10_000, p=5)),
        (["run-regression", "--csv", "data.csv", "--response", "y"], "run_regression_file",
         dict(eps=harness.DEFAULT_REGRESSION_EPS, mechanisms=("l1", "linf"), reps=100),
         dict(csv_path="data.csv", response="y", **REGRESSION_DEFAULTS)),
    ], ids=["simulate-logistic", "simulate-coverage", "run-regression"])
    def test_cli_defaults_reach_the_driver(self, monkeypatch, argv, driver, grid, settings):
        # the subcommand's argparse defaults are the only copy of them
        calls = []

        def record(config, **kwargs):
            calls.append((config, kwargs))
            return harness.ResultTable({})

        monkeypatch.setattr(harness, driver, record)
        assert main(argv) == 0
        assert calls == [(SimulationConfig(seed=0, **grid), settings)]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(eps=(0.0,), mechanisms=(), reps=1, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(eps=(1.0,), mechanisms=(), reps=0, seed=0)

    @pytest.mark.parametrize("field, values", [
        ("eps", (1.0, 1.0)), ("eps", (0.5, 1.0, 0.5)), ("mechanisms", ("linf", "l1", "linf")),
    ])
    def test_repeated_cell_rejected(self, field, values):
        # a repeated cell used to be pooled with its twin in every summary row
        with pytest.raises(ValueError, match="repeated"):
            SimulationConfig(**{"eps": (), "mechanisms": (), field: values}, reps=1, seed=0)

    @pytest.mark.parametrize("flag, value", [("--eps", "1,1"), ("--mech", "linf,linf")])
    def test_repeated_cell_exits_2(self, capsys, flag, value):
        argv = ["simulate-coverage", "--eps", "1", "--n", "300", "--p", "2", "--reps", "2",
                "--mech", "linf", "--seed", "2", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "repeated" in captured.err and captured.out == ""


class TestCli:
    def test_simulate_logistic_writes_files(self, tmp_path):
        out = tmp_path / "long.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "simulate-logistic", "--eps", "1.0", "--n", "300", "--reps", "2",
            "--mech", "l1", "--seed", "1", "--out", str(out),
            "--summary", str(summary),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# experiment=logistic")
        assert "epsilon,mechanism,replicate,metric,value" in text
        assert "median_l2_error" in summary.read_text()

    def test_help_calls_run_regression_an_evaluation(self, capsys, monkeypatch):
        # as README and run_regression_file say: its output is not to be published
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["--help"])
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.split()[:1] == ["run-regression"])
        assert "an evaluation, not a release: do not publish its output" in line

    def test_cli_outputs_reproducible(self, tmp_path):
        args = ["simulate-coverage", "--eps", "1.0", "--n", "400", "--p", "2",
                "--reps", "2", "--mech", "linf", "--seed", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--summary", str(tmp_path / "s1")]) == 0
        assert main(args + ["--out", str(out2), "--summary", str(tmp_path / "s2")]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("ball", ["l1", "l2", "linf", "l3", "k2", "k3", "kt2"])
    def test_sample_zero_reps_prints_the_header(self, capsys, ball):
        assert main(["sample", "--ball", ball, "--m", "3", "--reps", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1].startswith("replicate,v1,")
        assert lines[-1].endswith(",gauge")

    @pytest.mark.parametrize("reps", [0, 3])
    def test_sample_rows_format_as_repr_of_each_float(self, capsys, monkeypatch, reps):
        # tolist gives the same doubles, so repr gives the same strings as
        # repr(float(x)) of each numpy scalar
        rows = np.array([[-0.0, 5e-324, 1e16, 1e-7, 0.1],
                         [0.1, -0.0, 5e-324, 1e16, 1e-7],
                         [1e-7, 0.1, -0.0, 5e-324, 1e16]])
        monkeypatch.setattr(cli, "sample_noise", lambda config, rng, size: rows[:size])
        assert main(["sample", "--ball", "l2", "--m", "5", "--reps", str(reps)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "replicate,v1,v2,v3,v4,v5,gauge"
        gauges = NormBall.lp(2, 1.0, 5).gauge_many(rows[:reps])
        assert lines[5:] == [
            ",".join([str(i)] + [repr(float(x)) for x in row] + [repr(float(g))])
            for i, (row, g) in enumerate(zip(rows[:reps], gauges))
        ]

    def test_sample_negative_reps_exits_2(self, capsys):
        assert main(["sample", "--ball", "l2", "--reps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --reps must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--ball", "l2"],
        ["compare", "--a", "l1:1", "--b", "linf:2", "--m", "3"],
        ["diagnostics", "--mech", "l2", "--draws", "100"],
        ["simulate-logistic", "--n", "200", "--reps", "1", "--eps", "1"],
        ["simulate-coverage", "--n", "300", "--p", "2", "--reps", "1", "--eps", "1"],
        ["run-regression", "--csv", "missing.csv", "--response", "y"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, capsys, argv):
        # named as the option, before any stream is drawn
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--ball", "l2"],
        ["sample", "--ball", "k2"],
        ["compare", "--a", "l1:1", "--b", "linf:2"],
        ["compare", "--a", "k2:1", "--b", "linf:2"],
    ])
    def test_zero_dimension_exits_2(self, capsys, argv):
        # named as the option, not as the ball name
        assert main(argv + ["--m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --m must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("argv, err", [
        (["sample", "--ball", "l2", "--eps", "5e-324"],
         "--eps/--delta: epsilon=5e-324 and delta=1.0 can give non-finite noise for l2 "
         "at m=2 (rate epsilon/delta = 5e-324)"),
        (["sample", "--ball", "kt2", "--eps", "1e-200", "--delta", "1e200"],
         "--eps/--delta: epsilon=1e-200 and delta=1e+200 can give non-finite noise for kt2 "
         "at m=8 (rate epsilon/delta = 0.0)"),
        (["compare", "--a", "k2:1", "--b", "linf:2", "--m", "2", "--eps", "5e-324"],
         "--a k2:1 at --eps 5e-324: epsilon=5e-324 and delta=1.0 can give non-finite noise "
         "for k2 at m=2 (rate epsilon/delta = 5e-324)"),
        (["compare", "--a", "l1:1", "--b", "linf:0", "--m", "2"],
         "--b linf:0 at --eps 1.0: delta must be positive and finite, got 0.0"),
        (["simulate-logistic", "--eps", "1,1e-320", "--n", "100", "--reps", "1"],
         "--eps/--q: epsilon=1e-320 and q=0.5 give an invalid regularization weight gamma=inf"),
        (["simulate-logistic", "--eps", "5e-324", "--n", "100", "--reps", "1"],
         "--eps/--q: epsilon=5e-324 and q=0.5 give an invalid regularization weight gamma=inf"),
        (["simulate-coverage", "--eps", "1e-320", "--n", "100", "--p", "2", "--reps", "1"],
         "--eps: epsilon=1e-320 and delta=16.0 can give non-finite noise for l1 at m=8 "
         "(rate epsilon/delta = 6.23e-322)"),
        (["run-regression", "--csv", "missing.csv", "--response", "y", "--eps", "1,0"],
         "--eps: epsilon must be positive and finite, got 0.0"),
        (["run-regression", "--csv", "missing.csv", "--response", "y", "--eps", "nan"],
         "--eps: epsilon must be positive and finite, got nan"),
        (["run-regression", "--csv", "missing.csv", "--response", "y", "--eps", "inf"],
         "--eps: epsilon must be positive and finite, got inf"),
        (["simulate-logistic", "--eps", "inf", "--n", "100", "--reps", "1"],
         "--eps/--q: epsilon must be positive and finite, got inf"),
        (["simulate-coverage", "--eps", "1,nan", "--n", "100", "--p", "2", "--reps", "1"],
         "--eps: epsilon must be positive and finite, got nan"),
        (["simulate-logistic", "--n", "50", "--reps", "1", "--eps", "1", "--q", "1e-150",
          "--mech", "l1"],
         "--eps/--q: epsilon=1.0 and q=1e-150 give noise whose squared norm can overflow "
         "(||V|| up to 2.207614893952294e+155 at m=7)"),
    ], ids=["sample-subnormal", "sample-rate-underflow", "compare-a", "compare-b",
            "simulate-logistic", "simulate-logistic-zero-gamma", "simulate-coverage",
            "run-regression", "run-regression-nan", "run-regression-inf",
            "simulate-logistic-inf", "simulate-coverage-nan", "simulate-logistic-q"])
    def test_refused_budget_names_its_options(self, capsys, monkeypatch, argv, err):
        # refused from the options alone, before the CSV is read or any stream drawn
        def refused(*args, **kwargs):
            raise AssertionError("read the CSV or drew a stream before checking the budget")

        monkeypatch.setattr(harness, "read_table", refused)
        monkeypatch.setattr(RngStream, "generator", refused)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("argv, err", [
        (["simulate-logistic", "--mech", "k2"], "unknown mechanism 'k2'; use l1, l2, or linf"),
        (["simulate-logistic", "--mech", "l3"], "unknown mechanism 'l3'; use l1, l2, or linf"),
        (["simulate-coverage", "--mech", "l2"], "unknown mechanism 'l2'; use l1, linf, or kt"),
        (["run-regression", "--csv", "missing.csv", "--response", "y", "--mech", "l2"],
         "unknown mechanism 'l2'; use l1, linf, or kt"),
    ], ids=["simulate-logistic-k2", "simulate-logistic-l3", "simulate-coverage",
            "run-regression"])
    def test_refused_mechanism_names_one_rule(self, capsys, monkeypatch, argv, err):
        # one check per driver, from the names alone, before the CSV is read
        # or any stream drawn
        def refused(*args, **kwargs):
            raise AssertionError("read the CSV or drew a stream before checking the names")

        monkeypatch.setattr(harness, "read_table", refused)
        monkeypatch.setattr(RngStream, "generator", refused)
        assert main(argv + ["--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("pair", [("kt3:1", "linf:2"), ("l1:1", "l2:1")])
    def test_compare_too_few_mc_samples_exits_2(self, pair, capsys):
        # named as the option, also for a pair whose volumes are exact
        a, b = pair
        assert main(["compare", "--a", a, "--b", b, "--m", "13", "--mc-samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --mc-samples must be an integer >= 1000, got 10\n"

    def test_simulate_logistic_without_rows_exits_2(self, capsys, monkeypatch):
        # simulate_logistic's own message, not the design matrix a replicate builds
        monkeypatch.setattr(RngStream, "generator", no_stream)
        err = refusal(lambda: simulate_logistic(grid(1), n=0, q=0.5))
        assert err == "n must be an integer >= 1, got 0"
        assert main(["simulate-logistic", "--n", "0", "--reps", "1", "--eps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("lower, upper", [("0.9", "0.1"), ("nan", "0.9999"),
                                              ("0.0001", "nan"), ("-0.5", "0.5"),
                                              ("0.5", "2")])
    def test_regression_quantiles_named_before_the_csv(self, capsys, monkeypatch,
                                                       lower, upper):
        # run_regression_file's message, which names the keywords, as the CLI prints it
        monkeypatch.setattr(harness, "read_table", no_stream)
        monkeypatch.setattr(RngStream, "generator", no_stream)
        err = refusal(lambda: run_regression_file(
            grid(1), csv_path="missing.csv", response="y", log_columns=(),
            lower_q=float(lower), upper_q=float(upper)))
        assert err == ("quantiles must satisfy 0 <= lower_q < upper_q <= 1, "
                       f"got {float(lower)} and {float(upper)}")
        argv = ["run-regression", "--csv", "missing.csv", "--response", "y",
                "--lower-q", lower, "--upper-q", upper]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("argv, call, err", [
        (["simulate-logistic", "--n", "-3", "--reps", "1"],
         lambda: simulate_logistic(grid(1), n=-3, q=0.5), "n must be an integer >= 1, got -3"),
        (["simulate-logistic", "--n", "200", "--reps", "0"],
         lambda: simulate_logistic(grid(0), n=200, q=0.5), "reps must be an integer >= 1, got 0"),
        (["simulate-coverage", "--n", "0", "--p", "2", "--reps", "1"],
         lambda: simulate_coverage(grid(1), n=0, p=2),
         "coverage needs n > p + 1 for its t-intervals' n - p - 1 degrees of freedom, "
         "got n=0, p=2"),
        (["simulate-coverage", "--n", "300", "--p", "0", "--reps", "1"],
         lambda: simulate_coverage(grid(1), n=300, p=0), "p must be an integer >= 1, got 0"),
        (["simulate-coverage", "--n", "300", "--p", "2", "--reps", "0"],
         lambda: simulate_coverage(grid(0), n=300, p=2), "reps must be an integer >= 1, got 0"),
        (["run-regression", "--csv", "missing.csv", "--response", "y", "--reps", "-1"],
         lambda: run_regression_file(grid(-1), csv_path="missing.csv", response="y",
                                     **REGRESSION_DEFAULTS),
         "reps must be an integer >= 1, got -1"),
        (["simulate-logistic", "--n", "200", "--reps", "1", "--q", "1.5"],
         lambda: simulate_logistic(grid(1), n=200, q=1.5), "q must be in (0, 1), got 1.5"),
        (["simulate-logistic", "--n", "200", "--reps", "1", "--q", "nan"],
         lambda: simulate_logistic(grid(1), n=200, q=math.nan), "q must be in (0, 1), got nan"),
        (["simulate-logistic", "--n", "200", "--reps", "1", "--q", "0"],
         lambda: simulate_logistic(grid(1), n=200, q=0.0), "q must be in (0, 1), got 0.0"),
        # argv None: the flags are read as int, so these have no CLI form
        (None, lambda: simulate_logistic(grid(1), n=50.5, q=0.5),
         "n must be an integer >= 1, got 50.5"),
        (None, lambda: simulate_coverage(grid(1), n=50.5, p=2),
         "n must be an integer >= 4, got 50.5"),
        (None, lambda: grid(2.5), "reps must be an integer >= 1, got 2.5"),
        (None, lambda: grid(math.inf), "reps must be an integer >= 1, got inf"),
        (None, lambda: SimulationConfig(eps=(1.0,), mechanisms=(), reps=1, seed=2.5),
         "seed must be an integer >= 0, got 2.5"),
        (None, lambda: run_diagnostics(n_draws=50.5), "n_draws must be an integer >= 50, got 50.5"),
    ], ids=["logistic-n", "logistic-reps", "coverage-n", "coverage-p", "coverage-reps",
            "regression-reps", "logistic-q", "logistic-q-nan", "logistic-q-zero",
            "logistic-fractional-n", "coverage-fractional-n", "fractional-reps", "inf-reps",
            "fractional-seed", "diagnostics-fractional-draws"])
    def test_simulation_ranges_named_before_any_stream(self, capsys, monkeypatch, argv, call,
                                                       err):
        # the harness function's message, which names the keyword (the flag's word),
        # as the CLI prints it; neither draws a stream or reads the CSV first
        monkeypatch.setattr(harness, "read_table", no_stream)
        monkeypatch.setattr(RngStream, "generator", no_stream)
        assert refusal(call) == err
        if argv is None:
            return
        assert main(argv + ["--eps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_sample_schema(self, tmp_path, capsys):
        code = main(["sample", "--ball", "k2", "--reps", "5", "--seed", "4"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "replicate,v1,v2,gauge"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_sample_l1p5_m10(self, capsys):
        # box rejection accepts 1.4e-4 of proposals here, so 1000 draws used
        # to exhaust the proposal budget and raise SamplerError
        code = main(["sample", "--ball", "l1.5", "--m", "10", "--reps", "1000",
                     "--seed", "0"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        rows = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        assert rows.shape == (1000, 12)
        assert np.all(np.isfinite(rows))

    # sha256 of stdout at --seed 0; like the TestRunLayer pins, these bytes
    # hold for one numpy SIMD target and BLAS kernel (ROADMAP item 9)
    @pytest.mark.parametrize("argv, digest", [
        ("compare --a k2:1 --b linf:2 --m 2",
         "0157cdc66002193273790f665852b82ede1217b8478b8d953fdbf25a83014651"),
        ("compare --a k2:1 --b l2:2.8284271247461903 --m 2",
         "07887f1c1099da49552bdd9376c2d0131d96b3d2fa1f80cc30966035fb3dacfb"),
        ("compare --a kt3:1 --b linf:2 --m 13",
         "706164d76f79e5ece05bf6b621b96e12d5b5ade13a0e0c395d28f8f0113a5b7b"),
        ("sample --ball kt5",
         "e18d7ba303760f93e23ef2314e68555183b631612eddab312f72e38eb612ed7c"),
        ("sample --ball k3",
         "ad7cae0e542bed0cff554df1ce809de961b0af99f4de8f9b99346f31b85c5991"),
        ("sample --ball l1.5 --m 10",
         "49a98b4a28a4d714999a3fae5acd415000577e768388724541f489c94a951379"),
        ("sample --ball l1 --m 4",
         "53b967b4aa7cd448090de69a4a2baa804b363d1af62627b2ee14e1c2a5da059a"),
        ("sample --ball l2 --m 4",
         "bff21e9d3cd6cbeebbfbfc0a2ff4d4d77b0d7d6741884ea9d8f45f61dfe407c4"),
        ("sample --ball linf --m 4",
         "9d5ecfc5762cb5b8a87f88cfca7fc37dc5dd0848c4b6f21fed72516fd6335dd7"),
        # every hull with a known volume but k2, whose line DEFAULT_DIAGNOSTICS pins
        ("diagnostics --mech k3,kt1,kt2,kt3 --draws 2000",
         "4c47836cadc73c0593a756db1f2664c37c473fe9cda77300f712b17d758563ff"),
    ])
    def test_compare_and_sample_bytes_pinned(self, capsys, argv, digest):
        assert main(argv.split() + ["--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_compare_stdout(self, capsys):
        code = main(["compare", "--a", "linf:2", "--b", "l2:2.8284271247461903",
                     "--m", "2", "--eps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "preferred_by_containment=linf:2" in out
        assert "preferred_by_volume=linf:2" in out

    @staticmethod
    def _compare(capsys, *argv):
        code = main(["compare", *argv])
        out, err = capsys.readouterr()
        return code, dict(line.split("=", 1) for line in out.splitlines() if "=" in line), err

    @pytest.mark.parametrize("argv, winner", [
        # the p = 16 statistic's l1 mechanism: 308**154 overflows a float power
        (("--a", "l1:308", "--b", "linf:2", "--m", "154"), "linf:2"),
        # the l1 volume underflows to 0.0 at m = 250; its log does not
        (("--a", "l1:1", "--b", "linf:1", "--m", "250"), "l1:1"),
    ])
    def test_compare_at_regression_dimensions(self, capsys, argv, winner):
        code, items, err = self._compare(capsys, *argv)
        assert code == 0, err
        assert math.isfinite(float(items["entropy_a"]))
        assert math.isfinite(float(items["entropy_b"]))
        assert items["preferred_by_containment"] == winner
        assert items["preferred_by_volume"] == winner

    @pytest.mark.parametrize("argv", [
        ("--a", "linf:2", "--b", "l1:1200", "--m", "600"),
        # the p = 45 regression statistic's dimension
        ("--a", "linf:2", "--b", "l1:2252", "--m", "1126"),
    ])
    def test_compare_past_float_range(self, capsys, argv):
        # both scaled volumes pass the float range; entropies stay in log form
        code, items, err = self._compare(capsys, *argv)
        assert code == 0, err
        assert items["volume_a"] == "inf"
        assert math.isfinite(float(items["entropy_a"]))
        assert math.isfinite(float(items["entropy_b"]))
        assert items["containment"] == "a_tighter"
        assert items["preferred_by_volume"] == "linf:2"

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kt_compared_with_itself_reads_one_volume(self, capsys, p):
        # an exact volume, so both sides print it whatever their seeds
        code, items, err = self._compare(capsys, "--a", f"kt{p}:1", "--b", f"kt{p}:1",
                                         "--m", "8")
        assert code == 0, err
        assert items["volume_a"] == items["volume_b"] == repr(kt_ball(p).volume)
        assert items["volume_se_a"] == items["volume_se_b"] == "0.0"
        assert items["entropy_a"] == items["entropy_b"]
        assert items["preferred_by_containment"] == items["preferred_by_volume"] == "tie"

    def test_kt_compared_with_itself_estimates_once(self, capsys, monkeypatch):
        # kt4's volume is unknown: both sides scale one estimate, so their
        # ratio is exact and the entropies alone decide
        calls = []
        real = ordering.volume_monte_carlo

        def spy(ball, **kwargs):
            calls.append(ball.name)
            return real(ball, **kwargs)

        monkeypatch.setattr(ordering, "volume_monte_carlo", spy)
        code, items, err = self._compare(capsys, "--a", "kt4:1", "--b", "kt4:1", "--m", "8",
                                         "--mc-samples", "20000")
        assert code == 0, err
        assert calls == ["kt4"]
        assert items["volume_a"] == items["volume_b"]
        assert items["volume_se_a"] == items["volume_se_b"] != "0.0"
        assert items["entropy_a"] == items["entropy_b"]
        assert items["preferred_by_volume"] == "tie"
        code, items, err = self._compare(capsys, "--a", "kt4:1", "--b", "kt4:2", "--m", "8",
                                         "--mc-samples", "20000")
        assert code == 0, err
        assert calls == ["kt4", "kt4"]
        assert float(items["volume_b"]) == pytest.approx(2.0**19 * float(items["volume_a"]))
        assert items["preferred_by_volume"] == "kt4:1"

    def test_compare_zero_monte_carlo_hits(self, capsys):
        # the piece-weight products of kt140 underflow to 0 at every one of
        # 1000 uniform sums, so its box-fraction estimate is exactly 0
        code, _, err = self._compare(capsys, "--a", "kt140:1", "--b", "linf:2",
                                     "--m", "10151", "--mc-samples", "1000")
        assert code == 2
        assert "no Monte Carlo point hit kt140:1" in err and "--mc-samples" in err

    @pytest.mark.parametrize("name", ["l1", "l2", "linf", "l1.5", "k2", "k3", "kt3"])
    def test_named_balls_skip_box_rejection_and_hit_or_miss(self, capsys, monkeypatch,
                                                             name):
        # every ball a name builds is drawn and measured without box
        # rejection: closed forms for lp balls, the piece table for hulls.
        # Any rejection from the box tests membership, so none may run
        def refuse(*args):
            raise AssertionError("membership test reached")

        monkeypatch.setattr(NormBall, "member_many", refuse)
        ball = ball_from_name(name, 3)
        v = sample_noise(MechanismConfig(1.0, 1.0, ball), RngStream(0, 0).generator(), size=50)
        assert v.shape == (50, ball.dimension)
        v = sample_k_mech_rejection(np.zeros(ball.dimension), ball, 1.0, 1.0,
                                    RngStream(0, 1).generator(), size=50)
        assert v.shape == (50, ball.dimension)
        code, _, err = self._compare(capsys, "--a", f"{name}:1", "--b", "linf:2",
                                     "--m", str(ball.dimension), "--mc-samples", "1000")
        assert code == 0, err

    def test_compare_kt20_estimates_its_own_volume(self, capsys):
        # kt20 fills about 1e-18 of its box, so hit-or-miss on 1000 points
        # never hit it; its box-fraction estimator has positive weights
        code, items, err = self._compare(capsys, "--a", "kt20:1", "--b", "linf:2",
                                         "--m", "251", "--mc-samples", "1000")
        assert code == 0, err
        assert 0.0 < float(items["volume_a"]) < float(items["volume_b"])
        assert math.isfinite(float(items["entropy_a"]))
        assert items["containment"] == "a_tighter"
        assert items["preferred_by_volume"] == "kt20:1"

    @pytest.mark.parametrize("a, b", [("kt30:1", "linf:2"), ("kt30:2", "linf:4")])
    def test_compare_kt_past_float_range(self, capsys, a, b):
        # 4^526 overflows; the kt30:2 volume passes the float range, and the
        # kt30:1 one sits near it
        code, items, err = self._compare(capsys, "--a", a, "--b", b, "--m", "526",
                                         "--mc-samples", "1000")
        assert code == 0, err
        assert float(items["volume_a"]) > 0.0
        if a == "kt30:2":
            assert items["volume_a"] == "inf"
        assert math.isfinite(float(items["entropy_a"]))
        assert math.isfinite(float(items["entropy_b"]))
        assert items["containment"] == "a_tighter"
        assert items["preferred_by_volume"] == a

    def test_readme_library_example(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            readme = fh.read()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "hull" in run.stdout

    def test_diagnostics_exit_codes(self, capsys, monkeypatch):
        assert main(["diagnostics", "--mech", "l2", "--draws", "2000"]) == 0
        mis_scale_laplace(monkeypatch)
        assert main(["diagnostics", "--mech", "l1", "--draws", "4000"]) == 1

    def test_diagnostics_has_no_fault_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnostics", "--inject-fault", "laplace-scale"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["49", "0", "-3"])
    def test_diagnostics_too_few_draws(self, capsys, monkeypatch, draws):
        # run_diagnostics' message, as the CLI prints it, before any stream
        monkeypatch.setattr(RngStream, "generator", no_stream)
        err = refusal(lambda: run_diagnostics(n_draws=int(draws)))
        assert err == f"n_draws must be an integer >= 50, got {draws}"
        assert main(["diagnostics", "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("seed", range(8))
    def test_diagnostics_two_draws(self, capsys, monkeypatch, seed):
        # draws that all get the same box-fraction weight have a sample SE
        # of 0 (two draws did at seeds 1 and 2 with k2); with that SE
        # stubbed, the check uses the null SE of the 5/6 that k2 and k3
        # fill instead of dividing by 0
        fracs = []
        box_fraction = NormBall.box_fraction

        def zero_se(self, rng, n):
            frac, _ = box_fraction(self, rng, n)
            fracs.append(frac)
            return frac, 0.0

        monkeypatch.setattr(NormBall, "box_fraction", zero_se)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["diagnostics", "--mech", "k2,k3", "--draws", "50",
                         "--seed", str(seed)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "inf" not in out and "nan" not in out
        null_se = math.sqrt(5 / 6 * (1 / 6) / 50)
        assert len(fracs) == 2
        for name, frac in zip(("k2", "k3"), fracs):
            dev = abs(frac - 5 / 6) / null_se
            verdict = "PASS" if dev <= 4.0 else "FAIL"
            assert (f"{verdict} box-fraction[{name}]: statistic={dev:.6g} threshold=4 "
                    f"(expected 0.8333, estimate {frac:.6g})") in out

    def test_coverage_needs_n_above_p_plus_one(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew data before checking n and p")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        assert main(["simulate-coverage", "--n", "13", "--p", "12", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coverage needs n > p + 1")
        assert err.endswith("got n=13, p=12\n")

    def test_regression_cli(self, tmp_path):
        path = tmp_path / "d.csv"
        synthetic_regression_csv(path, n=300, p=2, seed=5)
        out = tmp_path / "out.csv"
        code = main([
            "run-regression", "--csv", str(path), "--response", "y",
            "--eps", "1e9", "--reps", "2", "--mech", "linf", "--seed", "3",
            "--out", str(out), "--summary", str(tmp_path / "s.csv"),
        ])
        assert code == 0
        assert "l2_distance_to_mle" in out.read_text()

    def test_cli_import_skips_scipy_stats(self):
        # scipy.stats takes several times as long to import as knorm.cli
        # itself, and every CLI call would pay for it; scipy.optimize is read
        # only by quadratic_pair_sensitivity, at its first call (the control)
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = """if True:
            import sys

            def loaded():
                return [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]

            import knorm
            assert not loaded(), ("import knorm", loaded())
            import knorm.cli
            assert not loaded(), ("import knorm.cli", loaded())
            knorm.quadratic_pair_sensitivity(2)
            assert loaded() == ["scipy.optimize"], loaded()
            """
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr

    def test_cli_import_leaves_parser_unbuilt(self):
        # the argparse tree is built by the first main call, not on import
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import knorm.cli as c; assert c._parser.cache_info().currsize == 0"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_consecutive_calls_print_what_separate_processes_print(self, capsys,
                                                                   monkeypatch):
        # main reuses one parser across calls; a run of different subcommands,
        # help and argparse errors in one process prints, byte for byte, what
        # each prints in a fresh process
        runs = [
            ["sample", "--ball", "k2", "--reps", "3", "--seed", "4"],
            ["--help"],
            ["simulate-logistic", "--n", "100", "--reps", "1", "--eps", "1"],
            ["sample", "--ball", "l2", "--p", "3"],
            ["compare", "--a", "linf:2", "--b", "l2:2.8284271247461903", "--m", "2"],
            ["sample", "--help"],
            ["compare", "--a", "linf:2"],
            ["sample", "--ball", "l1", "--m", "3", "--reps", "2"],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, knorm.cli; sys.exit(knorm.cli.main(sys.argv[1:]))"
        statuses = set()
        for argv in runs:
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (status, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            statuses.add(status)
        assert statuses == {0, 2}

    def test_cli_import_and_light_commands_skip_scipy_special(self):
        # scipy.special took about 60% of `import knorm.cli` when it was a
        # module-level import; now only the gamma helpers, the KS critical
        # value and the coverage t-quantile load it
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = """if True:
            import contextlib, io, sys

            def loaded():
                return "scipy.special" in sys.modules

            import knorm
            assert not loaded(), "import knorm"
            import knorm.cli
            assert not loaded(), "import knorm.cli"
            for argv in (["sample", "--ball", "kt3", "--reps", "5"],
                         ["compare", "--a", "k2:1", "--b", "linf:2", "--m", "2"],
                         ["simulate-logistic", "--n", "500", "--reps", "1", "--eps", "1"],
                         ["diagnostics", "--mech", "l2", "--draws", "100"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert knorm.cli.main(argv) == 0, argv
                # diagnostics is the control: its KS check does load it
                assert loaded() == (argv[0] == "diagnostics"), argv
            """
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_refused_coverage_skips_scipy_special(self):
        # the t-quantile import comes after simulate_coverage's checks; a run that
        # passes them is the control
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = """if True:
            import contextlib, io, sys
            import knorm.cli

            argv = ["simulate-coverage", "--n", "2", "--p", "5"]
            with contextlib.redirect_stderr(io.StringIO()):
                assert knorm.cli.main(argv) == 2
            assert "scipy.special" not in sys.modules
            argv = ["simulate-coverage", "--n", "50", "--p", "2", "--reps", "1", "--eps", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert knorm.cli.main(argv) == 0
            assert "scipy.special" in sys.modules
            """
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_error_exit_code(self, capsys):
        code = main(["run-regression", "--csv", "/nonexistent.csv",
                     "--response", "y"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def positive_regression_csv(path, n=200, seed=21):
    """A table whose column "a" is positive, for --log-cols runs."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 4.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    y = np.log(a) - 0.5 * b + 0.1 * rng.standard_normal(n)
    write_csv(path, ["a", "b", "y"], np.column_stack([a, b, y]).tolist())


def _sha256(table):
    return hashlib.sha256((table.long_csv() + table.summary_csv()).encode()).hexdigest()


def _assert_values_within_rounding(table, stored, long_step=1):
    """Every value of the long and summary CSVs, or of the long CSV only every
    long_step-th, sits within 1e-12 relative of the stored (long values,
    summary values)."""
    for text, want, step in zip((table.long_csv(), table.summary_csv()), stored,
                                (long_step, 1)):
        rows = list(csv.reader(line for line in io.StringIO(text)
                               if not line.startswith("#")))
        assert rows[0][-1] == "value"
        values = [float(row[-1]) for row in rows[1:]][::step]
        assert len(values) == len(want)
        assert np.allclose(values, want, rtol=1e-12, atol=0.0)


class TestRunLayer:
    """The three drivers share one cell grid, noise-stream map and CSV writer.
    The digests pin every byte of a small run of each driver."""

    @staticmethod
    def _logistic():
        return simulate_logistic(SimulationConfig(
            eps=(0.5, 1.0), reps=2, mechanisms=("l1", "l2", "linf"), seed=5), n=200, q=0.3)

    #: the values of that run when the fits read the C-order design, before
    #: they moved to its column-major copy: (long rows, summary rows)
    _LOGISTIC_ROW_MAJOR_VALUES = (
        [1.1137172291055697, 44.50751507492196, 26.602790025128115, 40.30648609424319,
         26.74462991113619, 165.40349154238365, 4.048194698495308,
         0.5608728308395512, 16.407758846633204, 36.62858148478839, 22.697854324624803,
         156.57050123300996, 38.5159904449963, 34.87355570686915],
        [2.03100960115899, 0.5608728308395512, 16.407758846633204, 26.602790025128115,
         22.697854324624803, 26.74462991113619, 38.5159904449963, 4.048194698495308],
    )

    def test_logistic_bytes_pinned(self):
        assert _sha256(self._logistic()) == (
            "9d24c985eec91a075557280c1ecd285af995310b56252bca8dac6e21de0ef546")

    def test_logistic_values_within_rounding_of_row_major_fits(self):
        # the column-major fits moved the pinned bytes above at rounding level
        # only: every value sits within 1e-12 relative of the row-major run
        _assert_values_within_rounding(self._logistic(),
                                       self._LOGISTIC_ROW_MAJOR_VALUES)

    def test_coverage_bytes_pinned(self):
        # the kt cells draw from the conditional K_T sampler
        assert _sha256(self._coverage(("l1", "linf", "kt"))) == (
            "87d0b9872ceabdf11868813e881bd36a27f41f08ab96bc079ff75e4c94e57aef")

    #: the values behind the three coverage digests: (long rows, summary rows)
    _COVERAGE_VALUES = {
        ("l1", "linf", "kt"): (
            [1.0, 0.0, 0.5, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0, 1.0, 1.0],
            [1.0, 0.25, 0.75, 0.0, 1.0, 1.0, 1.0],
        ),
        ("l1", "linf"): (
            [1.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0],
            [1.0, 0.25, 0.75, 0.5, 1.0],
        ),
        "benchmark_shape": (
            [11 / 12, 0.0, 0.0, 1 / 12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2 / 12,
             1 / 12, 4 / 12, 7 / 12, 3 / 12, 2 / 12, 3 / 12, 3 / 12, 10 / 12, 1.0,
             1.0, 1 / 12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
             2 / 12, 4 / 12, 4 / 12, 2 / 12, 7 / 12, 5 / 12, 3 / 12, 5 / 12, 10 / 12],
            [23 / 24, 1 / 24, 0.0, 1 / 24, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
             2 / 24, 3 / 24, 8 / 24, 11 / 24, 5 / 24, 9 / 24, 8 / 24, 6 / 24, 15 / 24,
             22 / 24],
        ),
    }

    @pytest.mark.parametrize("mechanisms", [("l1", "linf", "kt"), ("l1", "linf")])
    def test_coverage_values_within_rounding(self, mechanisms):
        _assert_values_within_rounding(self._coverage(mechanisms),
                                       self._COVERAGE_VALUES[mechanisms])

    def test_coverage_benchmark_shape_values_within_rounding(self):
        _assert_values_within_rounding(self._coverage_benchmark_shape(),
                                       self._COVERAGE_VALUES["benchmark_shape"])

    def test_regression_file_bytes_pinned(self, tmp_path, monkeypatch):
        table = self._regression_file(tmp_path, monkeypatch, ("l1", "linf", "kt"))
        assert _sha256(table) == (
            "0b5502af5e1657a46bb57662b52aa4f1d676bb814e8834adeeffe8d074780f6c")

    #: the values behind the two run-regression digests, as the stacked eigh
    #: solve wrote them; the checked inverse moved them by at most 4e-15
    #: relative: (long rows, summary rows)
    _REGRESSION_VALUES = {
        ("l1", "linf", "kt"): (
            [3.29765782349707, 1.197895639020949, 1.1908554701456546, 0.7193371745468213,
             1.4075998075239746, 0.5425386892126083, 1.4605146076078743,
             0.4444199138313359, 0.10340832603108538, 0.14622582579743282,
             0.10952223582044514, 0.1850870657236859],
            [0.7941934888129962, 1.197895639020949, 0.7193371745468213,
             0.5425386892126083, 0.4444199138313359, 0.10340832603108538,
             0.10952223582044514],
        ),
        ("l1", "linf"): (
            [3.29765782349707, 1.197895639020949, 1.1908554701456546, 0.7193371745468213,
             1.044019623285263, 0.5727220737648803, 0.3649971151214071,
             0.32720916337858424],
            [0.7941934888129962, 1.197895639020949, 0.7193371745468213,
             0.5727220737648803, 0.32720916337858424],
        ),
    }

    @pytest.mark.parametrize("mechanisms", [("l1", "linf", "kt"), ("l1", "linf")])
    def test_regression_file_values_within_rounding(self, tmp_path, monkeypatch, mechanisms):
        # a BLAS that rounds differently moves the digests but not the values:
        # the spread measured across builds so far is at most 2.1e-13 relative
        table = self._regression_file(tmp_path, monkeypatch, mechanisms)
        _assert_values_within_rounding(table,
                                       self._REGRESSION_VALUES[mechanisms])

    @staticmethod
    def _coverage_benchmark_shape():
        # the coverage-kt12 workload's shape: p = 12 and n = 10^4
        return simulate_coverage(SimulationConfig(
            eps=DEFAULT_COVERAGE_EPS, reps=2, mechanisms=("l1", "linf", "kt"), seed=0),
            n=10_000, p=12)

    def test_coverage_benchmark_shape_bytes_pinned(self):
        assert _sha256(self._coverage_benchmark_shape()) == (
            "4eb18e7fa43d2a440b71f81d2921478ba9e8e57a5f6bda21cd14c237ff1b9fbf")

    # l1/linf coverage bytes are those of the per-cell pinv solves, less the "# q=0.5" echo

    def test_coverage_l1_linf_bytes_pinned(self):
        assert _sha256(self._coverage(("l1", "linf"))) == (
            "05bc9b0796f576c255fbee8b5726a501da778ce2118a49b8ec08c419e4d3c4f5")

    def test_regression_file_l1_linf_bytes_pinned(self, tmp_path, monkeypatch):
        table = self._regression_file(tmp_path, monkeypatch, ("l1", "linf"))
        assert _sha256(table) == (
            "82b3b304edad572f4935ab38805583352b8eff5cb57bc96766c1da977e0c9297")

    @staticmethod
    def _coverage(mechanisms):
        return simulate_coverage(SimulationConfig(eps=(0.5, 2.0), reps=2,
                                                  mechanisms=mechanisms, seed=6), n=300, p=2)

    @staticmethod
    def _regression_file(tmp_path, monkeypatch, mechanisms):
        # the csv path is echoed, so run from the table's directory
        monkeypatch.chdir(tmp_path)
        positive_regression_csv("data.csv")
        return run_regression_file(
            SimulationConfig(eps=(0.5, 1.0), reps=2, mechanisms=mechanisms, seed=7),
            csv_path="data.csv", response="y", log_columns=("a",), lower_q=0.0001,
            upper_q=0.9999)

    @pytest.mark.parametrize("argv", [
        ["simulate-logistic", "--eps", "1.0", "--n", "200", "--reps", "2", "--mech", "l1,linf"],
        ["simulate-coverage", "--eps", "1.0", "--n", "300", "--p", "2", "--reps", "2"],
        ["run-regression", "--csv", "data.csv", "--response", "y", "--log-cols", "a",
         "--reps", "2"],
    ])
    def test_files_equal_stdout(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        positive_regression_csv("data.csv")
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", "long.csv", "--summary", "summary.csv"]) == 0
        assert capsys.readouterr().out == ""
        files = (tmp_path / "long.csv").read_text() + (tmp_path / "summary.csv").read_text()
        assert files == stdout

    @pytest.mark.parametrize("argv", [
        ["run-regression", "--csv", "d.csv", "--response", "y", "--n", "5"],
        ["run-regression", "--csv", "d.csv", "--response", "y", "--q", "0.3"],
        ["simulate-coverage", "--q", "0.3"],
    ])
    def test_options_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_csv_with_byte_order_mark(self, tmp_path, capsys, monkeypatch):
        # a spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order
        # mark, here before the response's name; the file reads as it does
        # without one
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (300, 2))
        rows = np.column_stack([x @ [1.0, -0.5] + rng.standard_normal(300), x]).tolist()
        outputs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / name / "d.csv"
            path.parent.mkdir()
            write_csv(path, ["y", "x1", "x2"], rows)
            path.write_bytes(bom + path.read_bytes())
            # the same relative path, as the CSV header echoes it
            monkeypatch.chdir(path.parent)
            assert list(read_table("d.csv")) == ["y", "x1", "x2"]
            assert main(["run-regression", "--csv", "d.csv", "--response", "y",
                         "--eps", "1", "--reps", "2", "--mech", "linf"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1].err == "" and outputs[1].out == outputs[0].out

    def test_non_finite_csv_cell_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"], [[0.1, 0.2], [0.3, "nan"], [0.5, 0.1]])
        code = main(["run-regression", "--csv", str(path), "--response", "y"])
        assert code == 2
        assert "row 3, column 'y': not a finite number" in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestMechanismResolution:
    """Each driver turns every (epsilon, mechanism) cell into its config
    once, before the first replicate draws data or noise."""

    @staticmethod
    def _counting(monkeypatch, cls):
        count = []
        post_init = cls.__post_init__

        def counted(self):
            count.append(1)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        return count

    @pytest.mark.parametrize("reps", [1, 3])
    def test_one_config_per_cell(self, tmp_path, monkeypatch, reps):
        positive_regression_csv(tmp_path / "data.csv")
        eps, mechs = (0.5, 1.0), ("l1", "linf")
        runs = [
            (simulate_logistic, ObjPertConfig, dict(n=200, q=0.5)),
            (simulate_coverage, MechanismConfig, dict(n=300, p=2)),
            (run_regression_file, MechanismConfig,
             dict(csv_path=str(tmp_path / "data.csv"), response="y", **REGRESSION_DEFAULTS)),
        ]
        for driver, cls, settings in runs:
            with monkeypatch.context() as patch:
                count = self._counting(patch, cls)
                driver(SimulationConfig(eps=eps, reps=reps, mechanisms=mechs, seed=3),
                       **settings)
            assert len(count) == len(eps) * len(mechs), driver.__name__

    @pytest.mark.parametrize("driver, fields", [
        (simulate_logistic, dict(n=200, q=0.5, mechanisms=("l1", "gauss"))),
        # q must lie in (0, 1)
        (simulate_logistic, dict(n=200, q=1.0, mechanisms=("l1",))),
        (simulate_coverage, dict(n=300, p=2, mechanisms=("l1", "gauss"))),
        (run_regression_file, dict(csv_path="data.csv", response="y", **REGRESSION_DEFAULTS,
                                   mechanisms=("l1", "gauss"))),
    ])
    def test_bad_cell_rejected_before_any_stream(self, tmp_path, monkeypatch,
                                                 driver, fields):
        settings = dict(fields)
        mechanisms = settings.pop("mechanisms")
        monkeypatch.chdir(tmp_path)
        positive_regression_csv("data.csv")
        streams = []
        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator",
                            lambda self: streams.append(self) or generator(self))
        with pytest.raises(ValueError):
            driver(SimulationConfig(eps=(0.5, 1.0), mechanisms=mechanisms, reps=2, seed=3),
                   **settings)
        assert streams == []


class TestBlocks:
    """simulate_coverage and run_regression_file draw and solve their noise
    streams in blocks of at most harness._BLOCK_STREAMS. Streams are
    independent, so the bytes of a run that spans several blocks are those
    of one stack: the coverage digest was taken before the drivers drew in
    blocks. The run-regression digest was taken again when the solve moved
    from a stacked eigh to a checked inverse, which moved its values by at
    most 1.1e-13 relative; the values stored beside it are the eigh solve's."""

    #: every 250th long value and every summary value of the run-regression
    #: run below, from the stacked eigh solve
    _REGRESSION_VALUES = (
        [4.604663132015533, 1.025831074658823, 1.6089415646775893, 11.695422581155592,
         2.1762095245179527, 0.3887092807528075, 1.0643707416467016, 0.23285640815239048,
         0.43945962749826656],
        [0.7941934888129962, 1.989230080414423, 2.178534281449355, 2.381085419895951,
         2.0513477444749046, 1.7921652954602036, 2.017974808682897, 1.8655853285336648,
         1.634600642961064, 1.1946912088348935, 1.2725291029503998, 0.550858178994767,
         0.5824319503492668, 0.5449479755394628, 0.26217290018831796, 0.22126063486468964],
    )

    @staticmethod
    def _spy(monkeypatch):
        sizes = []
        draw = harness.sample_noise_rows

        def spy(draws):
            sizes.append(len(draws))
            return draw(draws)

        monkeypatch.setattr(harness, "sample_noise_rows", spy)
        return sizes

    def test_coverage_across_blocks(self, monkeypatch):
        # 21 cells and 100 replicates: blocks of 48, 48 and 4 replicates
        sizes = self._spy(monkeypatch)
        table = simulate_coverage(SimulationConfig(
            eps=DEFAULT_COVERAGE_EPS, reps=100, mechanisms=("l1", "linf", "kt"), seed=3),
            n=40, p=2)
        assert len(sizes) >= 3 and max(sizes) <= harness._BLOCK_STREAMS
        assert sum(sizes) == 100 * 21
        assert _sha256(table) == (
            "fd4aeb8cdd3f791e1165af8d2da5955215fdd57dcd3eed4b272adefbc17a2599")

    def test_regression_file_across_blocks(self, tmp_path, monkeypatch):
        # 15 cells and 150 replicates: 2250 streams in blocks of 1024, 1024 and 202
        monkeypatch.chdir(tmp_path)
        positive_regression_csv("data.csv")
        sizes = self._spy(monkeypatch)
        table = run_regression_file(
            SimulationConfig(eps=DEFAULT_REGRESSION_EPS, reps=150,
                             mechanisms=("l1", "linf", "kt"), seed=9),
            csv_path="data.csv", response="y", log_columns=("a",), lower_q=0.0001,
            upper_q=0.9999)
        assert len(sizes) >= 3 and max(sizes) <= harness._BLOCK_STREAMS
        assert sum(sizes) == 150 * 15
        # the values first, so that a failed digest shows whether they moved
        # beyond rounding
        _assert_values_within_rounding(table, self._REGRESSION_VALUES, long_step=250)
        assert _sha256(table) == (
            "a135d1e5d271d3cd5ca93f7a5c76e487fcd6734253265964a4bd0e1c9c38a9a4")


class TestBenchmarkHooks:
    def test_every_tracing_target_resolves(self):
        # perfbench/spans.py rebinds these names to time each layer; a rename in
        # src would otherwise only show as a failed traced benchmark run
        spans = _perfbench_spans()
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _ in spans.TARGETS if not hasattr(owner, attr)]
        assert missing == []
        assert {layer for _, _, layer in spans.TARGETS} <= set(spans.LAYERS)

    def test_spans_only_imports_are_exactly_spans_targets(self):
        # src keeps a "noqa: F401" import only so that perfbench/spans.py can
        # rebind the name in that module; each one must be a TARGETS entry
        targets = {(owner.__name__, attr) for owner, attr, _ in _perfbench_spans().TARGETS}
        src = os.path.join(ROOT, "src", "knorm")
        unused = []
        for filename in sorted(os.listdir(src)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(src, filename)) as fh:
                text = fh.read()
            lines = text.splitlines()
            module = "knorm" if filename == "__init__.py" else f"knorm.{filename[:-3]}"
            for node in ast.walk(ast.parse(text)):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and "# noqa: F401" in lines[node.end_lineno - 1]):
                    unused += [(module, alias.asname or alias.name) for alias in node.names]
        assert unused
        assert [name for name in unused if name not in targets] == []

    def test_every_name_layers_imports_resolves(self):
        # perfbench/layers.py times public names of knorm; read it, do not run it
        with open(os.path.join(ROOT, "perfbench", "layers.py")) as fh:
            tree = ast.parse(fh.read())
        imports = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "knorm" for alias in node.names]
        assert ("knorm", "volume_monte_carlo") in imports
        missing = [f"{module}.{name}" for module, name in imports
                   if not hasattr(importlib.import_module(module), name)]
        assert missing == []

    def test_erm_counters_layers_wraps(self, monkeypatch):
        # perfbench/layers.py erm_metrics swaps in counting wrappers that
        # forward positional arguments only, and reads the hess count as the
        # number of Newton steps and the loss count as loss evaluations
        g = RngStream(19, 0).generator()
        X = g.uniform(-1.0, 1.0, size=(2000, 7))
        y = (g.random(2000) < 1.0 / (1.0 + np.exp(-(X @ LOGISTIC_BETA)))).astype(float)
        for p in (1, 2, math.inf):
            cfg = ObjPertConfig(epsilon=1.0, q=0.5, loss=logistic_loss_spec(7, p))
            calls = {"loss": [], "hess": []}

            def counting(fn, key):
                def counted(*args):
                    out = fn(*args)
                    # copy the curvature passed or returned: a fit's lives in
                    # the workspace, which its later calls rewrite
                    kept = np.copy(args[3] if key == "hess" else out[2])
                    calls[key].append((args, kept))
                    return out
                return counted

            counted = dataclasses.replace(cfg, loss=dataclasses.replace(
                cfg.loss,
                loss_and_grad=counting(cfg.loss.loss_and_grad, "loss"),
                hess=counting(cfg.loss.hess, "hess"),
            ))
            plain = objective_perturbation(cfg, X, y, RngStream(19, 1).generator())
            fit = objective_perturbation(counted, X, y, RngStream(19, 1).generator())
            assert np.array_equal(fit, plain)
            # one hess call per Newton step: the fewest steps that converge
            v = sample_noise(MechanismConfig(cfg.epsilon * cfg.q, cfg.loss.grad_delta,
                                             cfg.loss.grad_ball),
                             RngStream(19, 1).generator())
            def converges_within(steps):
                monkeypatch.setattr(erm, "MAX_NEWTON_STEPS", steps)
                try:
                    again = minimize_erm(cfg.loss, X, y, gamma=cfg.gamma, linear=v)
                except OptimizerError:
                    return False
                assert np.array_equal(again, plain)
                return True

            steps = next(k for k in range(50) if converges_within(k))
            assert len(calls["hess"]) == steps
            # one loss call per evaluation: no theta is evaluated twice, and
            # each Newton step is taken at an evaluated theta with its curvature
            thetas = [args[0].tobytes() for args, _ in calls["loss"]]
            assert len(set(thetas)) == len(thetas) > steps
            curvature = {args[0].tobytes(): kept for args, kept in calls["loss"]}
            for args, kept in calls["hess"]:
                assert np.array_equal(kept, curvature[args[0].tobytes()])
            # every call, evaluate's two among them, gets the start's one
            # workspace
            work = {args[3] for args, _ in calls["loss"]}
            assert len(work) == 1 and all(len(args) == 4 for args, _ in calls["loss"])
            for args, _ in calls["hess"]:
                assert len(args) == 5 and args[4] in work

    def test_logistic_evaluates_start_once_per_replicate(self, monkeypatch):
        # simulate_logistic evaluates theta = 0 once per replicate and hands it
        # to all the replicate's fits; each of them then makes one loss and
        # one hess call fewer than the same fit started on its own (whose
        # hess count is its number of Newton steps) and gives the same bits
        log = []

        def counting(fn, kind):
            def counted(*args):
                log.append((kind, args[0].tobytes()))
                return fn(*args)
            return counted

        monkeypatch.setattr(erm, "_logistic_loss_and_grad",
                            counting(erm._logistic_loss_and_grad, "loss"))
        monkeypatch.setattr(erm, "_logistic_hess", counting(erm._logistic_hess, "hess"))
        zero = np.zeros(len(LOGISTIC_BETA)).tobytes()
        starts = []
        # the calls of each fit that objective_perturbation_rows makes
        fits = []
        minimize = erm.minimize_erm

        def segmented(*args, **kwargs):
            mark = len(log)
            theta = minimize(*args, **kwargs)
            fits.append(Counter(kind for kind, _ in log[mark:]))
            return theta
        monkeypatch.setattr(erm, "minimize_erm", segmented)

        def alone_calls(fn, *args):
            # the bits and the calls of a fit started on its own, off the log
            mark, first = len(log), len(fits)
            theta = fn(*copy.deepcopy(args))
            calls = Counter(kind for kind, _ in log[mark:])
            del log[mark:], fits[first:]
            return theta, calls

        def mle_sharing(fn):
            def fit(*args, start):
                alone, calls_alone = alone_calls(fn, *args)
                mark = len(log)
                theta = fn(*args, start=start)
                assert np.array_equal(theta, alone)
                assert ("loss", zero) not in log[mark:]
                assert Counter(kind for kind, _ in log[mark:]) == calls_alone - Counter(
                    loss=1, hess=1)
                starts.append(start)
                return theta
            return fit

        def rows_sharing(fn):
            def fit(runs, X, y, *, start):
                alone = [alone_calls(erm.objective_perturbation, config, X, y, rng)
                         for config, rng in runs]
                mark, first = len(log), len(fits)
                thetas = fn(runs, X, y, start=start)
                assert ("loss", zero) not in log[mark:]
                assert len(fits) - first == len(runs)
                for theta, shared_calls, (theta_alone, calls_alone) in zip(
                        thetas, fits[first:], alone):
                    assert np.array_equal(theta, theta_alone)
                    assert shared_calls == calls_alone - Counter(loss=1, hess=1)
                starts.extend([start] * len(runs))
                return thetas
            return fit

        monkeypatch.setattr(harness, "minimize_erm", mle_sharing(harness.minimize_erm))
        monkeypatch.setattr(harness, "objective_perturbation_rows",
                            rows_sharing(harness.objective_perturbation_rows))
        config = SimulationConfig(eps=(0.5, 1.0), reps=2, mechanisms=("l1", "l2", "linf"),
                                  seed=5)
        simulate_logistic(config, n=200, q=0.3)
        assert len(starts) == config.reps * (1 + 2 * 3)
        assert len({id(s) for s in starts}) == config.reps
        assert log.count(("loss", zero)) == log.count(("hess", zero)) == config.reps

    def test_logistic_validates_once_per_replicate_on_column_major_data(self, monkeypatch):
        # evaluate validates the replicate's design once for all its fits, on
        # the column-major copy that every fit reads and is passed
        seen = []

        def recording(X, y):
            seen.append((X, y))
            return validate(X, y)

        validate = erm._logistic_validate
        monkeypatch.setattr(erm, "_logistic_validate", recording)
        calls = Counter()

        def on_start_data(fn, kind):
            def fit(first, X, y, *args, start):
                assert X is start.X is seen[-1][0] and y is start.y is seen[-1][1]
                # the MLE's first argument is its loss, the rows' their runs
                calls[kind] += len(first) if kind == "objpert" else 1
                return fn(first, X, y, *args, start=start)
            return fit

        monkeypatch.setattr(harness, "minimize_erm",
                            on_start_data(harness.minimize_erm, "mle"))
        monkeypatch.setattr(harness, "objective_perturbation_rows",
                            on_start_data(harness.objective_perturbation_rows, "objpert"))
        config = SimulationConfig(eps=(0.5, 1.0), reps=2, mechanisms=("l1", "l2", "linf"),
                                  seed=5)
        simulate_logistic(config, n=200, q=0.3)
        assert len(seen) == config.reps
        assert calls == Counter(mle=config.reps, objpert=config.reps * 2 * 3)
        for rep, (X, y) in enumerate(seen):
            g = RngStream(config.seed, rep).generator()
            drawn = g.uniform(-1.0, 1.0, size=(200, len(LOGISTIC_BETA)))
            u = g.random(200)
            assert X.flags.f_contiguous and not X.flags.c_contiguous
            assert np.array_equal(X, drawn)
            assert np.array_equal(y, (u < harness._sigmoid(drawn @ LOGISTIC_BETA)))

    def test_sampler_calls_layers_times_run(self):
        # the three sample_k_mech_rejection calls of perfbench/layers.py, at
        # small sizes, with the stats keys it reads
        kt12 = kt_ball(12)
        _, stats = sample_k_mech_rejection(np.zeros(kt12.dimension), kt12, 1.0, 1.0,
                                           RngStream(13, 0).generator(), return_stats=True)
        assert stats["proposals"] >= 1
        v = sample_k_mech_rejection(np.zeros(2), k2_ball(), 1.0, 1.0,
                                    RngStream(14, 0).generator(), size=100)
        assert v.shape == (100, 2)
        _, stats = sample_k_mech_rejection(np.zeros(10), NormBall.lp(1.5, 1.0, 10), 1.0, 1.0,
                                           RngStream(15, 0).generator(), size=5,
                                           return_stats=True)
        assert 5 <= stats["accepted"] <= stats["proposals"]
