"""End-to-end tests for the command-line interface."""

import csv
import functools
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copula_rank.cli as cli
from copula_rank import (exchangeable, lower_triangle_pairs, ple_estimate,
                         rank_transform, sample_copula, toeplitz,
                         validate_output)
from copula_rank.estimators import normal_scores_matrix
from copula_rank.exceptions import McExperimentError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sample_csv(path, n=120, theta=0.5, p=3, seed=33, header=True):
    r = np.full((p, p), theta)
    np.fill_diagonal(r, 1.0)
    u = sample_copula(r, n, seed=seed)
    with open(path, "w") as f:
        if header:
            f.write(",".join(f"u{j}" for j in range(p)) + "\n")
        for row in u:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    return u


class TestBound:
    def test_exchangeable_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "exchangeable",
                               "--p", "3", "--theta", "0.5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("bound", obj)
        assert_allclose(obj["efficient_info_inv"], [[1.0 / 3.0]], rtol=1e-9)
        assert_allclose(obj["fisher_info"], [[4.5]], rtol=1e-9)

    def test_circular_independence(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "circular",
                               "--theta", "0", "--format", "json")
        assert code == 0
        assert_allclose(json.loads(out)["efficient_info_inv"], [[0.25]],
                        rtol=1e-12)

    def test_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--family", "exchangeable",
                               "--p", "3", "--theta", "-0.6")
        assert code == 2
        assert "domain" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "exchangeable",
                               "--p", "3", "--theta", "0.5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["matrix", "row", "col", "value"]
        assert len(rows) == 4  # header + 3 single-entry matrices

    def test_theta_token_splitting(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "toeplitz",
                               "--p", "3", "--theta", "0.5 0.3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["theta"] == [0.5, 0.3]


class TestCheck:
    def test_toeplitz4_not_efficient(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "toeplitz",
                               "--p", "4", "--theta",
                               "0.4945460 -0.4592764 -0.8462492",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("check", obj)
        assert obj["ple_efficient"] is False
        assert obj["regular"] is True
        assert obj["assumption1_ok"] is True

    def test_independence_adaptive(self, capsys):
        for family, extra in (("exchangeable", ["--p", "3", "--theta", "0"]),
                              ("circular", ["--theta", "0"])):
            code, out, _ = run_cli(capsys, "check", "--family", family,
                                   *extra, "--format", "json")
            assert code == 0
            assert json.loads(out)["adaptive"] is True

    def test_factor_efficient(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "factor",
                               "--p", "4", "--q", "1",
                               "--theta", "0.61 -0.33 0.52 0.24",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["ple_efficient"] is True

    def test_factor_rank_deficient_regularity_skipped(self, capsys):
        theta = " ".join(map(str, [0.5, 0.0, 0.2, 0.4, -0.3,
                                   0.1, 0.4, 0.2, -0.2, 0.3]))
        code, out, _ = run_cli(capsys, "check", "--family", "factor",
                               "--p", "5", "--q", "2", "--theta", theta,
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("check", obj)
        assert obj["regular"] is None
        assert obj["ple_efficient"] is True  # rank-revealing span solve
        assert obj["assumption1_ok"] is False  # dependent derivatives

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "circular",
                               "--theta", "0.5")
        assert code == 0
        assert "not_efficient" in out
        assert "assumption 1: pass" in out


class TestEstimate:
    def test_unrestricted_closed_form(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        u = write_sample_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", "--family", "unrestricted",
                               "--p", "3", "--data", str(path),
                               "--method", "ple", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("estimate", obj)
        rhat = normal_scores_matrix(rank_transform(u))
        expected = [rhat[i, j] for i, j in lower_triangle_pairs(3)]
        assert_allclose(obj["theta_hat"], expected, rtol=1e-12)
        assert obj["method"] == "ple"
        assert obj["converged"] is True

    def test_monotone_transform_identical_bytes(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        u = write_sample_csv(str(raw))
        out1 = run_cli(capsys, "estimate", "--family", "exchangeable",
                       "--p", "3", "--data", str(raw), "--format", "json")[1]
        transformed = tmp_path / "exp.csv"
        x = u.copy()
        x[:, 1] = np.exp(x[:, 1])
        np.savetxt(str(transformed), x, delimiter=",")
        out2 = run_cli(capsys, "estimate", "--family", "exchangeable",
                       "--p", "3", "--data", str(transformed),
                       "--format", "json")[1]
        assert out1 == out2

    def test_single_row_exit_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0.1,0.2,0.3\n")
        code, _, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path))
        assert code == 2
        assert "2 observations" in err

    def test_bad_cell_named(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0.1,0.2,0.3\n0.4,oops,0.6\n")
        code, _, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path))
        assert code == 2
        assert "line 3" in err

    def test_wrong_width(self, capsys, tmp_path):
        path = tmp_path / "narrow.csv"
        write_sample_csv(str(path), p=2)
        code, _, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path))
        assert code == 2
        assert "columns" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", "/no/such/file.csv")
        assert code == 2

    def test_ple_non_convergence_exit_3(self, capsys, tmp_path, monkeypatch):
        theta = [0.4945460, -0.4592764, -0.8462492]
        path = tmp_path / "toep.csv"
        np.savetxt(str(path), sample_copula(toeplitz(4).r_of_theta(theta), 250,
                                            seed=6), delimiter=",")
        monkeypatch.setattr(cli, "ple_estimate",
                            functools.partial(ple_estimate, max_iter=1))
        code, _, err = run_cli(capsys, "estimate", "--family", "toeplitz",
                               "--p", "4", "--data", str(path),
                               "--method", "ple")
        assert code == 3
        assert "last iterate:" in err

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        write_sample_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path),
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["component", "theta_hat", "std_error"]
        assert len(rows) == 2


class TestAre:
    def test_toeplitz4_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "are", "--family", "toeplitz", "--p",
                               "4", "--theta", "0.4945460 -0.4592764 -0.8462492",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("are", obj)
        assert_allclose(obj["are"], [0.183, 0.198, 0.969], atol=5e-4)

    def test_circular_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "are", "--family", "circular",
                               "--theta", "0.5", "--format", "json")
        assert_allclose(json.loads(out)["are"], [0.98632], atol=1e-4)

    def test_efficient_family_unit_are(self, capsys):
        code, out, _ = run_cli(capsys, "are", "--family", "exchangeable",
                               "--p", "4", "--theta", "0.3", "--format", "json")
        assert_allclose(json.loads(out)["are"], [1.0], atol=1e-9)


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        config = {"model": {"family": "exchangeable", "p": 3},
                  "theta_true": [0.5], "n": 50, "replications": 6,
                  "estimators": ["one_step"], "seed": 7}
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_smoke_and_outputs(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(out_dir), "--workers", "1")
        assert code == 0
        assert "workers=1" in out
        report = json.loads((out_dir / "report.json").read_text())
        validate_output("mc_report", report)
        assert (out_dir / "errors.csv").exists()
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 2

    def test_seed_override_and_determinism(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        d1, d2, d3 = (tmp_path / x for x in ("a", "b", "c"))
        run_cli(capsys, "simulate", "--config", str(path), "--out-dir",
                str(d1), "--workers", "1")
        run_cli(capsys, "simulate", "--config", str(path), "--out-dir",
                str(d2), "--workers", "2")
        run_cli(capsys, "simulate", "--config", str(path), "--out-dir",
                str(d3), "--workers", "1", "--seed", "8")
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "report.json").read_bytes() != (d3 / "report.json").read_bytes()

    def test_theta_grid(self, capsys, tmp_path):
        path = self.write_config(tmp_path, theta_grid=[0.2, 0.5, 0.8],
                                 replications=3)
        config = json.loads(path.read_text())
        del config["theta_true"]
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "grid"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(out_dir), "--workers", "1")
        assert code == 0
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 4  # header + one row per grid point
        reports = json.loads((out_dir / "report.json").read_text())
        assert [r["config"]["lane"] for r in reports] == [0, 1, 2]

    def test_env_workers_fallback(self, capsys, tmp_path, monkeypatch):
        path = self.write_config(tmp_path)
        monkeypatch.setenv("COPULA_RANK_WORKERS", "3")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "env"))
        assert code == 0
        assert "workers=3" in out

    def test_bad_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 2
        path.write_text(json.dumps({"model": {"family": "exchangeable",
                                              "p": 3}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "theta_true" in err

    def test_experiment_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        path = self.write_config(tmp_path)

        def boom(config):
            raise McExperimentError("estimator 'ple' failed in 6/6 "
                                    "replications", failures={"ple": 6})

        monkeypatch.setattr(cli, "run_experiment", boom)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 3
        assert "failed" in err


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copula_rank.cli", "bound", "--family",
             "circular", "--theta", "0.5", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert_allclose(json.loads(proc.stdout)["efficient_info_inv"],
                        [[0.140625]], rtol=1e-9)

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copula_rank.cli", "bound"],
            capture_output=True, text=True)
        assert proc.returncode == 2
