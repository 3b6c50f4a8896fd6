"""End-to-end tests for the command-line interface."""

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copula_rank
import copula_rank.cli as cli
import copula_rank.estimators as estimators
import copula_rank.geometry as geometry
import copula_rank.mc as mc
from copula_rank import (efficiency_bundle, eval_geometry, exchangeable, gram,
                         pilot_moment, ple_estimate, rank_transform, sample_copula,
                         score_generators, toeplitz, unrestricted,
                         validate_output)
from copula_rank.exceptions import McExperimentError
from copula_rank.models import FAMILIES


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

    @pytest.mark.parametrize("generators", [5, "abc"])
    def test_malformed_generators_exit_2(self, capsys, tmp_path, generators):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"family": "custom_affine", "p": 3,
                                    "generators": generators}))
        code, _, err = run_cli(capsys, "bound", "--model", str(path), "--theta", "0.1")
        assert code == 2
        assert err.startswith("error: generators: ")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "exchangeable",
                               "--p", "3", "--theta", "0.5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["matrix", "row", "col", "value"]
        assert len(rows) == 4  # header + 3 single-entry matrices

    def test_unparseable_theta_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--family", "toeplitz", "--p", "3",
                                 "--theta", "0.5 abc")
        assert (code, out) == (2, "")
        assert err == "error: theta: cannot parse 'abc'\n"

    def test_theta_token_splitting(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--family", "toeplitz",
                               "--p", "3", "--theta", "0.5 0.3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["theta"] == [0.5, 0.3]


class TestModelFlags:
    @pytest.mark.parametrize("flags,message", [
        (["--family", "toeplitz"], "p: required for family toeplitz"),
        (["--family", "factor", "--p", "4"], "q: required for family factor"),
    ], ids=["p", "q"])
    def test_missing_flag_named(self, capsys, flags, message):
        code, _, err = run_cli(capsys, "bound", *flags, "--theta", "0.3")
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--model", "model.json", "--family", "circular"],
         "model: give either --model or --family, not both"),
        ([], "model: provide --model FILE or --family NAME"),
    ], ids=["both", "neither"])
    def test_model_source_named(self, capsys, flags, message):
        code, _, err = run_cli(capsys, "bound", *flags, "--theta", "0.3")
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["bound", "check", "estimate", "are"])
    def test_family_choices_are_the_flag_expressible_families(self, command):
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {opt: action for action in subparsers.choices[command]._actions
                   for opt in action.option_strings}
        expected = [fam for fam, (_, fields) in FAMILIES.items()
                    if all(f"--{key}" in options for key in fields)]
        assert options["--family"].choices == expected
        assert expected == ["unrestricted", "exchangeable", "toeplitz", "circular",
                            "factor", "adaptivity_demo"]


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

    def test_factor_rank_deficient_verdict_at_seeded_points(self, capsys):
        # factor(5, 2) loadings are identified only up to a rotation, so the
        # information matrices have rank 9 of 10 at every theta: check skips
        # regularity, and bound and are report singular information.
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = " ".join(repr(float(v)) for v in rng.uniform(-0.5, 0.5, 10))
            flags = ["--family", "factor", "--p", "5", "--q", "2",
                     "--theta", theta, "--format", "json"]
            code, out, err = run_cli(capsys, "check", *flags)
            assert code == 0, err
            obj = json.loads(out)
            assert obj["regular"] is None
            assert obj["ple_efficient"] is True
            for command in ("bound", "are"):
                code, _, err = run_cli(capsys, command, *flags)
                assert code == 3
                assert "not positive definite" in err

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "circular",
                               "--theta", "0.5")
        assert code == 0
        assert "not_efficient" in out
        assert "assumption 1: pass" in out


class TestInformationPass:
    THETA = "0.4945460 -0.4592764 -0.8462492"

    @pytest.mark.parametrize("command", ["check", "bound"])
    def test_one_generator_solve_fisher_gram_efficient_gram(
            self, capsys, monkeypatch, command):
        geom = eval_geometry(toeplitz(4), [float(v) for v in self.THETA.split()])
        expected = efficiency_bundle(geom)
        calls = {"score_generators": 0, "_spd_inverse": 0, "gram": []}
        spd_inverse = geometry._spd_inverse

        def counted_generators(*args):
            calls["score_generators"] += 1
            return score_generators(*args)

        def counted_inverse(*args):
            calls["_spd_inverse"] += 1
            return spd_inverse(*args)

        def counted_gram(*args):
            out = gram(*args)
            calls["gram"].append(out)
            return out

        monkeypatch.setattr(geometry, "score_generators", counted_generators)
        monkeypatch.setattr(geometry, "gram", counted_gram)
        monkeypatch.setattr(geometry, "_spd_inverse", counted_inverse)
        code, _, err = run_cli(capsys, command, "--family", "toeplitz", "--p", "4",
                               "--theta", self.THETA, "--format", "json")
        assert code == 0, err
        assert calls["score_generators"] == 1
        assert calls["_spd_inverse"] == 1
        assert len(calls["gram"]) == 2
        for matrix in (expected.fisher, expected.eff_info):
            assert any(np.array_equal(g, matrix) for g in calls["gram"])


class TestEstimate:
    def test_unrestricted_ple(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        u = write_sample_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", "--family", "unrestricted",
                               "--p", "3", "--data", str(path),
                               "--method", "ple", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("estimate", obj)
        expected = ple_estimate(unrestricted(3), rank_transform(u))
        assert obj["theta_hat"] == expected.theta_hat.tolist()
        assert obj["method"] == "ple"
        assert obj["converged"] is True

    def test_pilot_moment(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        u = write_sample_csv(str(path))
        code, out, _ = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path),
                               "--method", "pilot_moment", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        validate_output("estimate", obj)
        assert obj == pilot_moment(exchangeable(3), rank_transform(u)).to_dict()
        assert obj["method"] == "pilot_moment"

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

    def test_blank_lines_skipped(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_sample_csv(str(path))
        lines = path.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join(lines[:3] + ["", " , , "] + lines[3:] + [""]) + "\n")
        outs = [run_cli(capsys, "estimate", "--family", "exchangeable", "--p", "3",
                        "--data", str(data), "--format", "json")
                for data in (path, spaced)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("text,message", [
        ("u0,u1,u2\n\n", "data: no numeric rows in "),
        ("0.1,0.2,0.3\n0.4,0.5\n", "data: ragged row 2 (2 fields, expected 3)"),
    ], ids=["no-numeric-rows", "ragged"])
    def test_unusable_csv_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                               "--p", "3", "--data", str(path))
        assert code == 2
        assert err.startswith(f"error: {message}")

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
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
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

    def test_env_var_does_not_set_workers(self, capsys, tmp_path, monkeypatch):
        # The worker count comes from --workers, then the config, then the
        # logical core count; no environment variable is a fourth source.
        path = self.write_config(tmp_path)
        monkeypatch.setenv("COPULA_RANK_WORKERS", "3")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "env"))
        assert code == 0
        assert "workers=1" in out

    @pytest.mark.parametrize("cores", [2, 64])
    def test_prints_the_workers_that_ran(self, capsys, tmp_path, monkeypatch,
                                         serial_pool, cores):
        # 6 replications: the pool holds min(workers, replications, cores).
        path = self.write_config(tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "out"), "--workers", "100000")
        assert code == 0
        assert serial_pool == [min(6, cores)]
        assert f"workers={min(6, cores)}\n" in out

    def test_bad_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 2
        path.write_text(json.dumps({"model": {"family": "exchangeable",
                                              "p": 3}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "theta_true" in err

    def test_config_not_an_object_exit_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"model": {"family": "circular"}}]))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--out-dir", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert err == "error: config: expected a JSON object\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("grid", [["abc"], 5], ids=["string-point", "number"])
    def test_malformed_theta_grid_exit_2(self, capsys, tmp_path, grid):
        path = self.write_config(tmp_path, theta_grid=grid)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: theta_grid: ")
        assert not (tmp_path / "x").exists()

    def test_malformed_theta_true_exit_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path, theta_true="abc")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: theta_true: ")

    @pytest.mark.parametrize("field,value", [
        ("lane", "x"), ("lane", -1), ("lane", 1.7), ("lane", True),
        ("seed", True), ("n", True), ("replications", True), ("workers", True),
        ("workers", None), ("seed", 2**64), ("lane", 2**64),
    ])
    def test_bad_integer_field_exit_2(self, capsys, tmp_path, field, value):
        path = self.write_config(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith(f"error: {field}: ")

    def test_seed_flag_beyond_64_bits_exit_2(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"), "--seed", str(2**64))
        assert code == 2
        assert err.startswith("error: seed: ")
        assert not (tmp_path / "x").exists()

    def test_out_dir_checked_before_running(self, capsys, tmp_path, monkeypatch):
        def replicate(config, reps):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(mc, "_replicate", replicate)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = command_argv("simulate", tmp_path)[:-1] + [str(blocker)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("field,value", [
        ("output", 5), ("margins", []), ("estimators", ["one_step", "one_step"]),
        ("keep_errors", False), ("margins", "user"),
    ])
    def test_malformed_field_exit_2(self, capsys, tmp_path, field, value):
        path = self.write_config(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith(f"error: {field}: ")
        assert not (tmp_path / "x").exists()

    def test_experiment_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        path = self.write_config(tmp_path)

        def boom(config):
            raise McExperimentError("estimator 'ple' failed in 6/6 "
                                    "replications", failures={"ple": 6})

        monkeypatch.setattr(mc, "run_experiment", boom)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out-dir", str(tmp_path / "x"))
        assert code == 3
        assert "failed" in err


def command_argv(command, tmp_path):
    """The arguments of a successful call of `command`, before --format."""
    if command == "estimate":
        path = tmp_path / "data.csv"
        write_sample_csv(str(path))
        return ["estimate", "--family", "exchangeable", "--p", "3", "--data", str(path)]
    if command == "simulate":
        path = TestSimulate().write_config(tmp_path)
        return ["simulate", "--config", str(path), "--workers", "1",
                "--out-dir", str(tmp_path / "out")]
    return [command, "--family", "toeplitz", "--p", "4",
            "--theta", TestInformationPass.THETA]


class TestOutput:
    SCHEMAS = {"bound": "bound", "check": "check", "estimate": "estimate",
               "are": "are", "simulate": "mc_report"}

    @pytest.mark.parametrize("command,fmt", [
        (command, fmt) for command in ("bound", "check", "estimate", "are")
        for fmt in ("json", "csv", "pretty")
    ] + [("simulate", "json"), ("simulate", "pretty")])
    def test_every_command_in_every_format(self, capsys, tmp_path, command, fmt):
        code, out, err = run_cli(capsys, *command_argv(command, tmp_path),
                                 "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            validate_output(self.SCHEMAS[command], json.loads(out))
        elif fmt == "csv":
            header, *rows = csv.reader(io.StringIO(out))
            assert rows and all(len(row) == len(header) for row in rows)
        else:
            assert out.strip()

    def test_simulate_has_no_csv(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *command_argv("simulate", tmp_path),
                                 "--format", "csv")
        assert (code, out) == (2, "")
        assert "invalid choice: 'csv'" in err
        assert not (tmp_path / "out").exists()

    def test_only_main_reads_format_or_prints(self):
        # One output path: the cmd_* functions return what they computed,
        # and main alone chooses the format and writes stdout.
        with open(cli.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        commands = {fn.name for fn in functions if fn.name.startswith("cmd_")}
        assert commands == {"cmd_bound", "cmd_check", "cmd_estimate", "cmd_are",
                            "cmd_simulate"}
        readers, writers = set(), set()
        for fn in functions:
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Attribute, ast.Call)):
                    continue
                if isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Name) and node.func.id == "print":
                        writers.add(fn.name)
                elif isinstance(node.value, ast.Name) and (
                        (node.value.id, node.attr) == ("args", "format")):
                    readers.add(fn.name)
                elif isinstance(node.value, ast.Name) and (
                        (node.value.id, node.attr) == ("sys", "stdout")):
                    writers.add(fn.name)
        assert readers == {"main"}
        assert not writers & commands


class TestExitContract:
    @pytest.mark.parametrize("probe", ["config-directory", "out-dir-file",
                                       "data-directory", "data-not-utf8"])
    def test_unusable_path_exit_2(self, capsys, tmp_path, probe):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("a,b,\xe9\n0.1,0.2,0.3\n".encode("latin-1"))
        exch3 = ["estimate", "--family", "exchangeable", "--p", "3", "--data"]
        argv = {
            "config-directory": ["simulate", "--config", str(tmp_path)],
            "out-dir-file": command_argv("simulate", tmp_path)[:-1] + [str(blocker)],
            "data-directory": exch3 + [str(tmp_path)],
            "data-not-utf8": exch3 + [str(latin1)],
        }[probe]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-3", "inf"])
    def test_check_tolerance_finite_nonnegative(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "check", "--family", "circular",
                                 "--theta", "0.5", f"--tolerance={tolerance}",
                                 "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance: ")

    def test_tie_warning_printed_by_main(self, capsys, tmp_path):
        u = sample_copula(exchangeable(3).r_of_theta([0.5]), 60, seed=4)
        u[:5, 0] = 0.5
        path = tmp_path / "tied.csv"
        np.savetxt(str(path), u, delimiter=",")
        code, out, err = run_cli(capsys, "estimate", "--family", "exchangeable",
                                 "--p", "3", "--data", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["tie_warning"] is True
        assert err == "warning: ties in column(s) [0]; average ranks used\n"


def child_env():
    """The environment with the directory holding this copula_rank package
    first on PYTHONPATH, so child interpreters import the code under test."""
    src = os.path.dirname(os.path.dirname(copula_rank.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copula_rank.cli", "bound", "--family",
             "circular", "--theta", "0.5", "--format", "json"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert_allclose(json.loads(proc.stdout)["efficient_info_inv"],
                        [[0.140625]], rtol=1e-9)

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "copula_rank.cli", "bound"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2, proc.stderr


class TestImportSet:
    def test_cli_import_leaves_heavy_modules_unloaded(self, capsys):
        # scipy.stats and jsonschema cost most of a CLI call's start-up and
        # no command needs them; validate_output imports jsonschema itself.
        code, out, _ = run_cli(capsys, "bound", "--family", "circular",
                               "--theta", "0.5", "--format", "json")
        assert code == 0
        script = textwrap.dedent("""
            import json, sys
            import copula_rank.cli
            heavy = ("scipy.stats", "scipy.optimize", "jsonschema")
            loaded = [m for m in heavy if m in sys.modules]
            from copula_rank import validate_output
            obj = json.load(sys.stdin)
            validate_output("bound", obj)
            import jsonschema
            del obj["fisher_info"]
            try:
                validate_output("bound", obj)
                rejected = False
            except jsonschema.ValidationError:
                rejected = True
            print(json.dumps({"loaded": loaded, "rejected": rejected}))
        """)
        proc = subprocess.run([sys.executable, "-c", script], input=out,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result == {"loaded": [], "rejected": True}
