import ast
import csv
import hashlib
import importlib
import importlib.util
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import knorm
from knorm import cli
from knorm.cli import main
from knorm.geometry import NormBall, lp_norm
from knorm.linreg import ball_from_name
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
PASS box-fraction[k2]: statistic=0.833863 threshold=4 (expected 0.8333, deviation 0.20 SE)
"""


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
        good = ks_statistic(x, lambda v: 1 - np.exp(-v))
        bad = ks_statistic(x, lambda v: 1 - np.exp(-2 * v))
        assert good < ks_critical(5000, 0.01) < bad


class TestSimulateLogistic:
    def test_baseline_and_high_eps(self):
        config = SimulationConfig(
            eps=(1e6,), n=2000, reps=5,
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
            eps=(1.0,), n=100, reps=1,
            mechanisms=("kt",), seed=0,
        )
        with pytest.raises(ValueError):
            simulate_logistic(config)

    def test_long_rows_complete(self):
        config = SimulationConfig(
            eps=(1.0, 2.0), n=500, reps=3,
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
            eps=(0.5,), n=2000, p=5, reps=60,
            mechanisms=(), seed=5,
        )
        table = simulate_coverage(config)
        cov = table.summary_value("", "true_beta", "mean_coverage")
        assert abs(cov - 0.95) < 0.05

    def test_high_budget_large_n_near_nominal(self):
        config = SimulationConfig(
            eps=(4.0,), n=1_000_000, p=5, reps=10,
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
            eps=(0.5,), n=10_000, p=5, reps=50,
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
            eps=(1e9,), reps=3,
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
            eps=(1 / 16, 1 / 4, 1.0), reps=200,
            mechanisms=("l1", "linf"), seed=9, csv_path=str(path), response="y",
        )
        table = run_regression_file(config)
        for eps in (1 / 16, 1 / 4, 1.0):
            d_inf = table.summary_value(eps, "linf", "median_l2_distance_to_mle")
            d_1 = table.summary_value(eps, "l1", "median_l2_distance_to_mle")
            assert d_inf < d_1

    def test_requires_path_and_response(self):
        config = SimulationConfig(eps=(1.0,))
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

    def test_acceptance_check_for_every_hull_with_a_volume(self):
        report = run_diagnostics(mechanisms=("k3", "kt1"), n_draws=2000, seed=0)
        assert report.all_passed
        checks = {c.name: c for c in report.checks}
        # the k3 hull fills 5/6 of its box; kt1 has no known volume
        assert "expected 0.8333," in checks["box-fraction[k3]"].detail
        assert "box-fraction[kt1]" not in checks

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
            eps=(0.5, 1.0), n=300, reps=3,
            mechanisms=("l1", "linf"), q=0.5, seed=11,
        )
        a, b = simulate_logistic(config), simulate_logistic(config)
        assert a.long_csv() == b.long_csv()
        assert a.summary_csv() == b.summary_csv()

    def test_mechanism_order_changes_streams_not_results_shape(self):
        base = SimulationConfig(
            eps=(1.0,), n=300, reps=2,
            mechanisms=("l1", "linf"), seed=12,
        )
        swapped = SimulationConfig(
            eps=(1.0,), n=300, reps=2,
            mechanisms=("linf", "l1"), seed=12,
        )
        a, b = simulate_logistic(base), simulate_logistic(swapped)
        assert a.long_csv() != b.long_csv()
        assert len(a.long_rows) == len(b.long_rows)

    def test_config_echo_rows(self):
        config = SimulationConfig(
            eps=(1.0,), n=500, p=2, reps=2,
            mechanisms=("linf",), seed=13,
        )
        text = simulate_coverage(config).long_csv()
        for key in ("seed=13", "n=500", "eps=1.0", "mechanisms=linf"):
            assert f"# " in text and key in text
        # coverage reads no q, so only simulate-logistic echoes it
        assert "# q=" not in text
        logistic = simulate_logistic(SimulationConfig(
            eps=(1.0,), n=200, reps=1, mechanisms=("linf",), q=0.5, seed=13))
        assert "# q=0.5\n" in logistic.long_csv()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(eps=(0.0,), reps=1)
        with pytest.raises(ValueError):
            SimulationConfig(eps=(1.0,), reps=0)

    @pytest.mark.parametrize("field, values", [
        ("eps", (1.0, 1.0)), ("eps", (0.5, 1.0, 0.5)), ("mechanisms", ("linf", "l1", "linf")),
    ])
    def test_repeated_cell_rejected(self, field, values):
        # a repeated cell used to be pooled with its twin in every summary row
        with pytest.raises(ValueError, match="repeated"):
            SimulationConfig(reps=1, **{field: values})

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

    def test_compare_zero_monte_carlo_hits(self, capsys, monkeypatch):
        # every named ball now has an exact volume or, for kt<p>, its own
        # estimator, so a thin oracle disc takes the hit-or-miss path
        thin = NormBall.from_oracle(
            lambda pts: lp_norm(pts, 2) <= 1e-3, lambda pts: lp_norm(pts, 2) / 1e-3,
            linf_bound=1.0, dimension=2, name="thin",
        )
        monkeypatch.setattr(cli, "ball_from_name",
                            lambda token, m: thin if token == "thin" else ball_from_name(token, m))
        code, _, err = self._compare(capsys, "--a", "thin:1", "--b", "linf:2",
                                     "--m", "2", "--mc-samples", "1000")
        assert code == 2
        assert "thin:1" in err and "--mc-samples" in err

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


def positive_regression_csv(path, n=200, seed=21):
    """A table whose column "a" is positive, for --log-cols runs."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 4.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    y = np.log(a) - 0.5 * b + 0.1 * rng.standard_normal(n)
    write_csv(path, ["a", "b", "y"], np.column_stack([a, b, y]).tolist())


def _sha256(table):
    return hashlib.sha256((table.long_csv() + table.summary_csv()).encode()).hexdigest()


class TestRunLayer:
    """The three drivers share one cell grid, noise-stream map and CSV writer.
    The digests pin every byte of a small run of each driver."""

    def test_logistic_bytes_pinned(self):
        config = SimulationConfig(eps=(0.5, 1.0), n=200, reps=2,
                                  mechanisms=("l1", "l2", "linf"), q=0.3, seed=5)
        assert _sha256(simulate_logistic(config)) == (
            "d81fc5edeaf25b3d4f90dc2ca8a73a7d4e0fd118bbeec9dce16c7c0eadbbd8d0")

    def test_coverage_bytes_pinned(self):
        # the kt cells draw from the conditional K_T sampler
        assert _sha256(simulate_coverage(self._coverage(("l1", "linf", "kt")))) == (
            "87d0b9872ceabdf11868813e881bd36a27f41f08ab96bc079ff75e4c94e57aef")

    def test_regression_file_bytes_pinned(self, tmp_path, monkeypatch):
        config = self._regression_file(tmp_path, monkeypatch, ("l1", "linf", "kt"))
        assert _sha256(run_regression_file(config)) == (
            "56e9cf24dcf5f0df52c82d1cfba6cd4a6df3b06b1111d11d92083751562ca248")

    # l1/linf bytes are those of the per-cell pinv solves, less the "# q=0.5" echo

    def test_coverage_l1_linf_bytes_pinned(self):
        assert _sha256(simulate_coverage(self._coverage(("l1", "linf")))) == (
            "05bc9b0796f576c255fbee8b5726a501da778ce2118a49b8ec08c419e4d3c4f5")

    def test_regression_file_l1_linf_bytes_pinned(self, tmp_path, monkeypatch):
        config = self._regression_file(tmp_path, monkeypatch, ("l1", "linf"))
        assert _sha256(run_regression_file(config)) == (
            "6f583256e5692de169f433eba0b516507591b6dce0bc1b332e5630e41779df55")

    @staticmethod
    def _coverage(mechanisms):
        return SimulationConfig(eps=(0.5, 2.0), n=300, p=2, reps=2,
                                mechanisms=mechanisms, seed=6)

    @staticmethod
    def _regression_file(tmp_path, monkeypatch, mechanisms):
        # the csv path is echoed, so run from the table's directory
        monkeypatch.chdir(tmp_path)
        positive_regression_csv("data.csv")
        return SimulationConfig(eps=(0.5, 1.0), reps=2, mechanisms=mechanisms,
                                seed=7, csv_path="data.csv", response="y",
                                log_columns=("a",))

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

    def test_non_finite_csv_cell_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"], [[0.1, 0.2], [0.3, "nan"], [0.5, 0.1]])
        code = main(["run-regression", "--csv", str(path), "--response", "y"])
        assert code == 2
        assert "row 3, column 'y': not a finite number" in capsys.readouterr().err


class TestBenchmarkHooks:
    def test_every_tracing_target_resolves(self):
        # perfbench/spans.py rebinds these names to time each layer; a rename in
        # src would otherwise only show as a failed traced benchmark run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _ in spans.TARGETS if not hasattr(owner, attr)]
        assert missing == []
        assert {layer for _, _, layer in spans.TARGETS} <= set(spans.LAYERS)

    def test_every_name_layers_imports_resolves(self):
        # perfbench/layers.py times public names of knorm; read it, do not run it
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "layers.py")) as fh:
            tree = ast.parse(fh.read())
        imports = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "knorm" for alias in node.names]
        assert ("knorm", "volume_monte_carlo") in imports
        missing = [f"{module}.{name}" for module, name in imports
                   if not hasattr(importlib.import_module(module), name)]
        assert missing == []
