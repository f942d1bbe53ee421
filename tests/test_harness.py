import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import knorm
from knorm.cli import main
from knorm.harness import (
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


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
        good = ks_statistic(x, lambda v: 1 - math.exp(-v))
        bad = ks_statistic(x, lambda v: 1 - math.exp(-2 * v))
        assert good < ks_critical(5000, 0.01) < bad


class TestSimulateLogistic:
    def test_baseline_and_high_eps(self):
        config = SimulationConfig(
            experiment="logistic", eps=(1e6,), n=2000, reps=5,
            mechanisms=("l1", "linf"), q=0.5, seed=3,
        )
        table = simulate_logistic(config)
        zero = table.summary_value("", "zero", "l2_error")
        assert math.isclose(zero, math.sqrt(1 + 0.25 + 1 / 16 + 9 / 16 + 9 / 4),
                            rel_tol=1e-12)
        mle_median = table.summary_value("", "mle", "median_l2_error")
        for mech in ("l1", "linf"):
            med = table.summary_value(1e6, mech, "median_l2_error")
            assert abs(med - mle_median) < 0.05

    def test_unknown_mechanism_rejected(self):
        config = SimulationConfig(
            experiment="logistic", eps=(1.0,), n=100, reps=1,
            mechanisms=("kt",), seed=0,
        )
        with pytest.raises(ValueError):
            simulate_logistic(config)

    def test_long_rows_complete(self):
        config = SimulationConfig(
            experiment="logistic", eps=(1.0, 2.0), n=500, reps=3,
            mechanisms=("l2",), seed=4,
        )
        table = simulate_logistic(config)
        mech_rows = [r for r in table.long_rows if r[1] == "l2"]
        assert len(mech_rows) == 6
        mle_rows = [r for r in table.long_rows if r[1] == "mle"]
        assert len(mle_rows) == 3


class TestSimulateCoverage:
    def test_true_beta_coverage_near_nominal(self):
        config = SimulationConfig(
            experiment="coverage", eps=(0.5,), n=2000, p=5, reps=60,
            mechanisms=(), seed=5,
        )
        table = simulate_coverage(config)
        cov = table.summary_value("", "true_beta", "mean_coverage")
        assert abs(cov - 0.95) < 0.05

    def test_high_budget_large_n_near_nominal(self):
        config = SimulationConfig(
            experiment="coverage", eps=(4.0,), n=1_000_000, p=5, reps=10,
            mechanisms=("l1", "linf", "kt"), seed=6,
        )
        table = simulate_coverage(config)
        for mech in ("l1", "linf", "kt"):
            cov = table.summary_value(4.0, mech, "mean_coverage")
            # vanishing noise pushes the estimate onto the CI center, so the
            # band [0.90, 1.00] is reached from the top end
            assert 0.90 <= cov <= 1.0

    def test_linf_beats_l1_at_moderate_budget(self):
        config = SimulationConfig(
            experiment="coverage", eps=(0.5,), n=10_000, p=5, reps=50,
            mechanisms=("l1", "linf"), seed=7,
        )
        table = simulate_coverage(config)
        assert (table.summary_value(0.5, "linf", "mean_coverage")
                > table.summary_value(0.5, "l1", "mean_coverage"))


class TestRunRegressionFile:
    def test_vanishing_noise_and_baseline(self, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_regression_csv(path, n=500, p=3, seed=8)
        config = SimulationConfig(
            experiment="regression-file", eps=(1e9,), reps=3,
            mechanisms=("l1", "linf", "kt"), seed=8, csv_path=str(path),
            response="y",
        )
        table = run_regression_file(config)
        for mech in ("l1", "linf", "kt"):
            assert table.summary_value(1e9, mech, "median_l2_distance_to_mle") <= 1e-4
        baseline = table.summary_value("", "zero", "l2_distance_to_mle")
        assert baseline > 0
        assert "baseline_l2" in table.config_echo

    def test_linf_beats_l1_ordering(self, tmp_path):
        path = tmp_path / "data.csv"
        synthetic_regression_csv(path, n=2000, p=5, seed=9)
        config = SimulationConfig(
            experiment="regression-file", eps=(1 / 16, 1 / 4, 1.0), reps=200,
            mechanisms=("l1", "linf"), seed=9, csv_path=str(path), response="y",
        )
        table = run_regression_file(config)
        for eps in (1 / 16, 1 / 4, 1.0):
            d_inf = table.summary_value(eps, "linf", "median_l2_distance_to_mle")
            d_1 = table.summary_value(eps, "l1", "median_l2_distance_to_mle")
            assert d_inf < d_1

    def test_requires_path_and_response(self):
        config = SimulationConfig(experiment="regression-file", eps=(1.0,))
        with pytest.raises(ValueError):
            run_regression_file(config)


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

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            read_table(path)


class TestDiagnostics:
    def test_default_all_pass(self):
        report = run_diagnostics(n_draws=4000, seed=0)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert any("gamma-marginal" in n for n in names)
        assert any("dp-ratio" in n for n in names)
        assert any("rejection-acceptance" in n for n in names)

    def test_fault_injection_detected(self):
        report = run_diagnostics(mechanisms=("l1",), n_draws=4000, seed=0,
                                 fault="laplace-scale")
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


class TestDeterminismAndEcho:
    def test_byte_identical_output(self):
        config = SimulationConfig(
            experiment="logistic", eps=(0.5, 1.0), n=300, reps=3,
            mechanisms=("l1", "linf"), q=0.5, seed=11,
        )
        a, b = simulate_logistic(config), simulate_logistic(config)
        assert a.long_csv() == b.long_csv()
        assert a.summary_csv() == b.summary_csv()

    def test_mechanism_order_changes_streams_not_results_shape(self):
        base = SimulationConfig(
            experiment="logistic", eps=(1.0,), n=300, reps=2,
            mechanisms=("l1", "linf"), seed=12,
        )
        swapped = SimulationConfig(
            experiment="logistic", eps=(1.0,), n=300, reps=2,
            mechanisms=("linf", "l1"), seed=12,
        )
        a, b = simulate_logistic(base), simulate_logistic(swapped)
        assert a.long_csv() != b.long_csv()
        assert len(a.long_rows) == len(b.long_rows)

    def test_config_echo_rows(self):
        config = SimulationConfig(
            experiment="coverage", eps=(1.0,), n=500, p=2, reps=2,
            mechanisms=("linf",), seed=13,
        )
        text = simulate_coverage(config).long_csv()
        for key in ("seed=13", "n=500", "eps=1.0", "mechanisms=linf", "q=0.5"):
            assert f"# " in text and key in text

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(experiment="logistic", eps=(0.0,), reps=1)
        with pytest.raises(ValueError):
            SimulationConfig(experiment="logistic", eps=(1.0,), reps=0)


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

    def test_cli_outputs_reproducible(self, tmp_path):
        args = ["simulate-coverage", "--eps", "1.0", "--n", "400", "--p", "2",
                "--reps", "2", "--mech", "linf", "--seed", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--summary", str(tmp_path / "s1")]) == 0
        assert main(args + ["--out", str(out2), "--summary", str(tmp_path / "s2")]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_schema(self, tmp_path, capsys):
        code = main(["sample", "--ball", "k2", "--reps", "5", "--seed", "4"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "replicate,v1,v2,gauge"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_compare_stdout(self, capsys):
        code = main(["compare", "--a", "linf:2", "--b", "l2:2.8284271247461903",
                     "--m", "2", "--eps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "preferred_by_containment=linf:2" in out
        assert "preferred_by_volume=linf:2" in out

    def test_diagnostics_exit_codes(self, capsys):
        assert main(["diagnostics", "--mech", "l2", "--draws", "2000"]) == 0
        assert main(["diagnostics", "--mech", "l1", "--draws", "4000",
                     "--inject-fault", "laplace-scale"]) == 1

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
        # importing scipy.stats costs about a second of CLI start-up
        src = os.path.dirname(os.path.dirname(knorm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import knorm.cli, sys; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_error_exit_code(self, capsys):
        code = main(["run-regression", "--csv", "/nonexistent.csv",
                     "--response", "y"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
