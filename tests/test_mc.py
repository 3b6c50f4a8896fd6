"""Tests for the Monte Carlo harness."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import copula_rank
import copula_rank.cli as cli
import copula_rank.estimators as estimators
import copula_rank.geometry as geometry
import copula_rank.mc as mc
import copula_rank.sampler as sampler
from copula_rank import (McConfig, run_experiment, run_grid, summarize,
                         validate_output, write_errors_csv, write_report_json,
                         write_summary_csv)
from copula_rank.exceptions import (ConfigError, ConvergenceError, McExperimentError,
                                   ShapeError)
from copula_rank.validation import load_schema

BASE = {
    "model": {"family": "exchangeable", "p": 3},
    "theta_true": [0.5],
    "n": 40,
    "replications": 12,
    "estimators": ["ple", "one_step"],
    "seed": 99,
}
MISSING = object()  # a patch value that removes the field


class TestConfig:
    def test_config_not_an_object(self):
        with pytest.raises(ConfigError, match="^config: expected a JSON object$"):
            McConfig.from_dict([])

    def test_defaults(self):
        config = McConfig.from_dict({**BASE, "estimators": ["one_step"]})
        assert config.workers == 1
        assert config.lane == 0

    # A `margins` entry, whatever its value, is an unexpected field: a run
    # ranks the latent normals.
    @pytest.mark.parametrize("patch,field", [
        ({"bogus": 1}, "bogus"),
        ({"model": MISSING}, "model"),
        ({"theta_true": MISSING}, "theta_true"),
        ({"theta_true": [2.0]}, "theta_true"),
        ({"n": 1}, "n"),
        ({"n": 2.5}, "n"),
        ({"replications": 0}, "replications"),
        ({"estimators": ["mle"]}, "estimators"),
        ({"estimators": []}, "estimators"),
        ({"seed": -4}, "seed"),
        ({"margins": "user"}, "margins"),
        ({"workers": 0}, "workers"),
        ({"theta_true": "abc"}, "theta_true"),
        ({"theta_true": {"a": 1}}, "theta_true"),
        ({"theta_true": [0.5, 0.5]}, "theta_true"),
        ({"margins": 5}, "margins"),
        ({"margins": None}, "margins"),
        ({"estimators": 5}, "estimators"),
        ({"keep_errors": "no"}, "keep_errors"),
        ({"theta_grid": ["abc"]}, "theta_grid"),
        ({"theta_grid": 5}, "theta_grid"),
        ({"theta_grid": []}, "theta_grid"),
        ({"theta_grid": [2.0]}, "theta_grid"),
        ({"theta_grid": [[0.1, 0.2]]}, "theta_grid"),
        ({"theta_grid": [0.2, None]}, "theta_grid"),
        ({"margins": []}, "margins"),
        ({"margins": ["uniform", "gaussian"]}, "margins"),
        ({"estimators": ["ple", "ple"]}, "estimators"),
        ({"output": 5}, "output"),
        ({"output": None}, "output"),
        ({"model": {"family": "exchangeable", "p": 3, "zeta": 1, "alpha": 2}},
         "^zeta: unexpected field"),
        ({"model": {"family": ("x",)}}, "^family: unknown family"),
        ({"workers": None}, "^workers: "),
        ({"seed": 2**64}, "^seed: "),
        ({"lane": 2**64}, "^lane: "),
        # a grid's point i runs on lane + i, which must be a 64-bit word too
        ({"theta_grid": [0.2, 0.5], "lane": 2**64 - 1}, "^lane: "),
    ])
    def test_validation_names_field(self, patch, field):
        raw = {**BASE, **patch}
        for key, value in patch.items():
            if value is MISSING:
                raw.pop(key)
        with pytest.raises(ConfigError, match=field):
            McConfig.from_dict(raw)

    # Probes on which the shipped schema and from_dict must agree.  A run
    # ranks the latent normals, so `margins` is no config field.
    @pytest.mark.parametrize("patch,valid", [
        ({"margins": "uniform"}, False),
        ({"estimators": ["pilot_moment"]}, True),
        ({"theta_grid": [0.2, [0.5]]}, True),
        ({"estimators": ["ple", "ple"]}, False),
        ({"estimators": ["one_step", "ple", "pilot_moment"]}, True),
        ({"output": 5}, False),
        ({"output": None}, False),
        ({"output": "results"}, True),
        ({"workers": None}, False),
        ({"workers": 2}, True),
        ({"n": 2.0}, True),
        ({"lane": 1.0}, True),
        ({"replications": 3.0}, True),
        ({"seed": 7.0}, True),
        ({"workers": 2.0}, True),
        ({"n": 2.5}, False),
        ({"n": True}, False),
        ({"lane": False}, False),
        ({"theta_grid": []}, False),
        ({"seed": -1}, False),
        ({"replications": 0}, False),
        ({"n": 1}, False),
        ({"estimators": "ple"}, False),
        ({"theta_true": 0.5}, True),
        ({"seed": 2**64 - 1, "lane": 2**64 - 1}, True),
        ({"seed": 2**64}, False),
        ({"lane": 2**64}, False),
    ])
    def test_schema_and_from_dict_agree(self, patch, valid):
        import jsonschema

        raw = {**BASE, **patch}
        try:
            jsonschema.validate(raw, load_schema("mc_config"))
            schema_valid = True
        except jsonschema.ValidationError:
            schema_valid = False
        try:
            McConfig.from_dict(raw)
            config_valid = True
        except ConfigError:
            config_valid = False
        assert schema_valid == config_valid == valid

    def test_margins_is_no_config_field(self):
        # A run ranks the latent normals, so no config names margins; the
        # report still echoes the uniform margins its ranks belong to.
        for value in ("uniform", ["gaussian"]):
            with pytest.raises(ConfigError, match="^margins: unexpected config field$"):
                McConfig.from_dict({**BASE, "margins": value})
        assert McConfig.from_dict(BASE).echo()["margins"] == ["uniform"]

    def test_estimator_names_agree(self):
        # The harness, `estimate --method` and both schemas name the same
        # estimators in the same order.
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in subparsers.choices["estimate"]._actions
                      if "--method" in a.option_strings)
        names = [list(mc._ESTIMATORS), method.choices,
                 load_schema("estimate")["properties"]["method"]["enum"],
                 load_schema("mc_config")["properties"]["estimators"]["items"]["enum"]]
        assert all(other == names[0] for other in names[1:]), names

    def test_theta_grid_points(self):
        raw = {key: v for key, v in BASE.items() if key != "theta_true"}
        config = McConfig.from_dict({**raw, "theta_grid": [0.2, [0.5]]})
        assert config.theta_true is None
        assert [t.tolist() for t in config.theta_grid] == [[0.2], [0.5]]
        with pytest.raises(ConfigError, match="theta_true"):
            run_experiment(config)

    def test_grid_config_without_its_grid_has_no_truth(self):
        # A grid config stripped of its grid still has no theta_true to run.
        raw = {key: v for key, v in BASE.items() if key != "theta_true"}
        config = dataclasses.replace(McConfig.from_dict({**raw, "theta_grid": [0.2]}),
                                     theta_grid=())
        message = (r"^theta_true: missing required field "
                   r"\(a theta_grid config runs through run_grid\)$")
        with pytest.raises(ConfigError, match=message):
            run_experiment(config)

    def test_grid_config_runs_only_through_run_grid(self):
        # run_experiment would run theta_true alone and echo the whole grid.
        raw = {**BASE, "theta_true": 0.3, "theta_grid": [0.2, 0.4], "replications": 2}
        message = (r"^theta_grid: run_experiment runs one theta_true "
                   r"\(a theta_grid config runs through run_grid\)$")
        for config in (raw, McConfig.from_dict(raw)):
            with pytest.raises(ConfigError, match=message):
                run_experiment(config)
        assert [report.config["theta_true"] for report in run_grid(raw)] == [[0.2], [0.4]]

    @pytest.mark.parametrize("patch,field", [
        ({"margins": [[0.5]]}, "margins"),
        ({"margins": [{}]}, "margins"),
        ({"theta_true": False}, "theta_true"),
        ({"theta_true": [False]}, "theta_true"),
        ({"theta_true": "0.5"}, "theta_true"),
        ({"theta_grid": [False]}, "theta_grid"),
        ({"model": 5}, "model"),
        ({"model": {"family": [1]}}, "family"),
    ])
    def test_schema_rejected_value_raises_config_error(self, patch, field):
        # Values the schema rejects: none may run as a number (a bool, a
        # numeric string) or raise TypeError inside the config check.
        with pytest.raises(ConfigError, match=f"^{field}: "):
            McConfig.from_dict({**BASE, **patch})

    def test_echo_excludes_execution_details(self):
        config = McConfig.from_dict({**BASE, "workers": 7})
        echo = config.echo()
        assert "workers" not in echo
        assert echo["seed"] == 99
        assert echo["lane"] == 0

    def test_echo_of_a_grid_config(self):
        # A grid config echoes its points; each point's report echoes its
        # own theta_true and lane, and no grid.
        raw = {key: v for key, v in BASE.items() if key != "theta_true"}
        config = McConfig.from_dict({**raw, "replications": 2, "theta_grid": [0.2, 0.5]})
        echo = config.echo()
        assert echo["theta_true"] is None and echo["theta_grid"] == [[0.2], [0.5]]
        del echo["theta_grid"]
        assert [report.config for report in run_grid(config)] == [
            {**echo, "theta_true": [0.2], "lane": 0}, {**echo, "theta_true": [0.5], "lane": 1}]

    def test_model_held_as_a_json_copy(self):
        # The config holds its own copy of the descriptor in JSON types: a
        # caller that changes its generators afterwards changes no run, and
        # ndarray generators echo as lists.
        gens = [[[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]]
        raw = {**BASE, "model": {"family": "custom_affine", "p": 3, "generators": gens},
               "theta_true": 0.9, "replications": 2}
        config = McConfig.from_dict(raw)
        expected = run_experiment(raw).to_json()
        gens[0][0][1] = gens[0][1][0] = 3.0
        assert config.model["generators"][0][0] == [0.0, 0.5, 0.0]
        assert run_experiment(config).to_json() == expected
        array = {**raw["model"], "generators": np.array([[[0.0, 0.5, 0.0], [0.5, 0.0, 0.0],
                                                         [0.0, 0.0, 0.0]]])}
        assert run_experiment({**raw, "model": array}).to_json() == expected

    def test_model_not_json_raises_config_error(self):
        # Entries json cannot encode: the model's own error where it does not
        # build, else one naming the model.
        with pytest.raises(ConfigError, match="^p: expected an integer"):
            McConfig.from_dict({**BASE, "model": {"family": "exchangeable",
                                                  "p": np.int64(3)}})
        gens = [[list(row) for row in np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])]]
        with pytest.raises(ConfigError, match="^model: expected a JSON descriptor"):
            McConfig.from_dict({**BASE, "model": {"family": "custom_affine", "p": 3,
                                                  "generators": gens}})


def _json_values():
    """Values of every JSON type, nested: bools, integral and non-integral
    floats, NaN and infinity, the largest 64-bit word and one past it, None,
    strings, lists and objects."""
    scalars = st.one_of(
        st.booleans(), st.none(),
        st.sampled_from([0, 1, 2, 3, -1, 0.0, 1.0, 2.0, -1.0, 0.25, -0.4, 2.5,
                         1e-3, math.nan, math.inf, 2**64 - 1, 2**64]),
        st.sampled_from(["", "abc", "0.5", "uniform", "gaussian", "user", "ple",
                         "one_step", "exchangeable", "circular"]))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["family", "p", "q", "x"]), inner,
                        max_size=3)), max_leaves=6)


class TestConfigContract:
    """`McConfig.from_dict` against `schemas/mc_config.schema.json`, on
    valid configs with one field replaced by a drawn value or removed."""

    VALID = [
        BASE,
        {"model": {"family": "toeplitz", "p": 3}, "n": 10, "replications": 2,
         "theta_grid": [[0.2, 0.1], [0.3, -0.1]]},
        {"model": {"family": "circular"}, "theta_true": 0.3, "theta_grid": [0.1],
         "n": 2, "replications": 1, "estimators": ["ple", "pilot_moment"],
         "seed": 0, "workers": 2, "output": "out", "lane": 1},
    ]
    FIELDS = sorted(load_schema("mc_config")["properties"]) + ["bogus"]

    @staticmethod
    def domain_rule_rejects(raw):
        """True when a rule the schema cannot express rejects `raw`: a model
        that does not build, a theta of the wrong length or outside the
        domain, or a grid whose last point's lane, lane + len(theta_grid) - 1,
        is past 2**64 - 1."""
        try:
            model = copula_rank.build_model(raw["model"])
        except ConfigError:
            return True
        grid = raw.get("theta_grid", [])
        if raw.get("lane", 0) + len(grid) - 1 > 2**64 - 1:
            return True
        points = [raw["theta_true"]] if "theta_true" in raw else []
        return not all(model.domain_check(t) for t in points + grid)

    def test_valid_configs_accepted(self):
        import jsonschema

        for raw in self.VALID:
            jsonschema.validate(raw, load_schema("mc_config"))
            McConfig.from_dict(raw)

    @given(base=st.sampled_from(range(len(VALID))), field=st.sampled_from(FIELDS),
           value=st.one_of(st.just(MISSING), _json_values()))
    @settings(max_examples=400, deadline=None)
    def test_from_dict_agrees_with_schema(self, base, field, value):
        import jsonschema

        raw = dict(self.VALID[base])
        if value is MISSING:
            raw.pop(field, None)
        else:
            raw[field] = value
        schema_valid = jsonschema.Draft202012Validator(
            load_schema("mc_config")).is_valid(raw)
        try:
            McConfig.from_dict(raw)
        except ConfigError as exc:
            if schema_valid:
                assert self.domain_rule_rejects(raw), exc
                return
            names = ({"theta_true", "theta_grid"}
                     if value is MISSING and field in ("theta_true", "theta_grid")
                     else {field})
            assert str(exc).split(":")[0] in names, exc
        else:
            assert schema_valid, f"accepted a config the schema rejects: {raw!r}"


class TestRunExperiment:
    def test_largest_seed_and_lane_run(self):
        report = run_experiment({**BASE, "replications": 2, "seed": 2**64 - 1,
                                 "lane": 2**64 - 1})
        assert report.n_success == {"ple": 2, "one_step": 2}

    def test_single_replication(self):
        report = run_experiment({**BASE, "replications": 1})
        for est in ("ple", "one_step"):
            assert report.n_success[est] == 1
            assert_allclose(report.variance[est], [0.0])
            assert np.isfinite(report.bias[est]).all()

    def test_bounds_at_truth(self):
        report = run_experiment({**BASE, "replications": 2})
        assert_allclose(report.eff_bound, [1.0 / 3.0], rtol=1e-9)
        assert_allclose(report.ple_bound, [1.0 / 3.0], rtol=1e-9)
        circ = run_experiment({"model": {"family": "circular"},
                               "theta_true": [0.5], "n": 40,
                               "replications": 2, "estimators": ["ple"],
                               "seed": 1})
        assert_allclose(circ.eff_bound, [0.140625], rtol=1e-9)
        assert_allclose(circ.ple_bound, [0.142578125], rtol=1e-9)

    def test_byte_determinism_same_config(self):
        a = run_experiment(dict(BASE))
        b = run_experiment(dict(BASE))
        assert a.to_json() == b.to_json()

    def test_byte_determinism_across_worker_counts(self):
        serial = run_experiment({**BASE, "workers": 1})
        parallel = run_experiment({**BASE, "workers": 2})
        assert serial.to_json() == parallel.to_json()

    def test_equality_is_identity(self):
        # Their fields hold arrays, so `==` compares identity and returns a
        # bool, for k = 1 and k = 2 alike.
        raw = {**BASE, "model": {"family": "toeplitz", "p": 3}, "theta_true": [0.3, 0.1]}
        configs = [McConfig.from_dict(raw) for _ in range(2)]
        reports = [run_experiment(dict(BASE, replications=3)) for _ in range(2)]
        model = copula_rank.toeplitz(3)
        sample = estimators.rank_transform(
            sampler.sample_copula(model.r_of_theta([0.3, 0.1]), 40, seed=1))
        results = [estimators.ple_estimate(model, sample) for _ in range(2)]
        for first, second in (configs, reports, results):
            assert (first == second) is False and (first != second) is True
            assert (first == first) is True
        assert reports[0].to_json() == reports[1].to_json()

    def test_schema_roundtrip(self):
        report = run_experiment(dict(BASE))
        validate_output("mc_report", report.to_dict())

    def test_failures_counted_and_excluded(self, monkeypatch):
        clean = run_experiment({**BASE, "replications": 30})
        real = mc._replicate

        def flaky(config, reps):
            errors, failures = real(config, reps)
            if 3 in reps:
                errors[reps.index(3), config.estimators.index("ple")] = np.nan
                failures.append((3, "ple", "ConvergenceError: forced"))
            return errors, failures

        monkeypatch.setattr(mc, "_replicate", flaky)
        report = run_experiment({**BASE, "replications": 30})
        assert report.failures["ple"] == 1
        assert report.n_success["ple"] == 29
        assert report.failures["one_step"] == 0
        # the failed replication is excluded, so the mean shifts
        assert report.bias["ple"][0] != clean.bias["ple"][0]
        assert report.bias["one_step"][0] == clean.bias["one_step"][0]

    def test_failure_threshold_aborts(self, monkeypatch):
        real = mc._replicate

        def broken(config, reps):
            errors, failures = real(config, reps)
            for i, rep in enumerate(reps):
                if rep % 2 == 0:
                    errors[i, config.estimators.index("one_step")] = np.nan
                    failures.append((rep, "one_step", "SingularityError: forced"))
            return errors, failures

        monkeypatch.setattr(mc, "_replicate", broken)
        with pytest.raises(McExperimentError) as exc:
            run_experiment({**BASE, "replications": 20})
        assert exc.value.failures["one_step"] == 10
        # the first five failures, in replication order
        first = [f"rep {rep}: SingularityError: forced" for rep in (0, 2, 4, 6, 8)]
        assert str(exc.value).endswith(f"first failures: {first}")

    def test_real_failure_same_through_the_pool(self):
        # factor(5, 1)'s PLE fails in replication 75 at this seed, and
        # pilot_moment, which is the same solve there, fails with it.
        config = {"model": {"family": "factor", "p": 5, "q": 1},
                  "theta_true": [0.5, 0.4, 0.3, 0.6, 0.2], "n": 250,
                  "replications": 76, "estimators": ["ple", "one_step", "pilot_moment"],
                  "seed": 20260814}
        serial = run_experiment({**config, "workers": 1})
        assert serial.failures == dict.fromkeys(config["estimators"], 1)
        assert serial.n_success == dict.fromkeys(config["estimators"], 75)
        assert np.isnan(serial.errors[75]).all()
        assert not np.isnan(serial.errors[:75]).any()
        pooled = run_experiment({**config, "workers": 2})
        assert pooled.to_json() == serial.to_json()
        assert np.array_equal(pooled.errors, serial.errors, equal_nan=True)

    def test_failure_values_counted_whatever_their_type(self, monkeypatch):
        # A core returns a row's failure as a value, beside its NaN row, and
        # the block's record takes any error it finds there as that
        # estimator's failure.
        real = mc._one_step_update

        def one_forced(model, samples, pilots, sums):
            theta, clamped, failures = real(model, samples, pilots, sums)
            theta[1], failures[1] = np.nan, ShapeError("forced")
            return theta, clamped, failures

        monkeypatch.setattr(mc, "_one_step_update", one_forced)
        config = McConfig.from_dict({**BASE, "replications": 30})
        errors, failures = mc._replicate(config, range(3))
        assert failures == [(1, "one_step", "ShapeError: forced")]
        assert errors.shape == (3, 2, 1)
        assert np.argwhere(np.isnan(errors)).tolist() == [[1, 1, 0]]
        report = run_experiment(config)
        assert report.failures == {"ple": 0, "one_step": 1}
        assert report.n_success == {"ple": 30, "one_step": 29}

    @pytest.mark.parametrize("block,error", [("_ple_solve", RuntimeError),
                                             ("_ple_solve", ConvergenceError),
                                             ("_one_step_update", RuntimeError)],
                             ids=["ple_estimate_block-RuntimeError",
                                  "ple_estimate_block-ConvergenceError",
                                  "one_step_block-RuntimeError"])
    def test_a_raising_block_aborts_the_run(self, monkeypatch, block, error):
        # What a block's core raises, rather than returns, is never a failure
        # count.
        def raising(*args):
            raise error("raised by the block")

        monkeypatch.setattr(mc, block, raising)
        with pytest.raises(error, match="^raised by the block$"):
            run_experiment({**BASE, "replications": 30})

    def test_one_ple_solve_without_a_moment_map(self, monkeypatch):
        # factor(5, 1) has no moment map, so pilot_moment is the PLE from the
        # same start: one solve per replication serves all three estimators.
        calls = []
        solve = estimators._ple_solve

        def counted(model, samples, sums):
            calls.extend(samples)
            return solve(model, samples, sums)

        monkeypatch.setattr(mc, "_ple_solve", counted)
        monkeypatch.setattr(estimators, "_ple_solve", counted)
        config = {"model": {"family": "factor", "p": 5, "q": 1},
                  "theta_true": [0.5, 0.4, 0.3, 0.6, 0.2], "n": 250,
                  "replications": 10, "seed": 20260814}
        both = run_experiment({**config, "estimators": ["ple", "one_step", "pilot_moment"]})
        assert len(calls) == 10
        assert np.array_equal(both.errors[:, 2], both.errors[:, 0])
        calls.clear()
        alone = run_experiment({**config, "estimators": ["pilot_moment"]})
        assert len(calls) == 10
        assert np.array_equal(alone.errors[:, 0], both.errors[:, 2])

    @pytest.mark.parametrize("cores", [None, 1, 2, 64])
    def test_pool_size_bounded(self, monkeypatch, serial_pool, cores):
        # A process pool forks all its workers at the first submit, so no
        # more start than there are replications or logical cores.
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        config = {**BASE, "replications": 3}
        serial = run_experiment({**config, "workers": 1})
        report = run_experiment({**config, "workers": 10**6})
        assert serial_pool == ([min(3, cores)] if cores and cores > 1 else [])
        assert mc.pool_size(McConfig.from_dict({**config, "workers": 10**6})) == min(
            3, cores or 1)
        assert report.to_json() == serial.to_json()
        assert np.array_equal(report.errors, serial.errors)


# Source of a fresh interpreter that runs one config and prints its report
# and error matrix.
FRESH_RUN = """
import json, sys
from copula_rank import run_experiment
report = run_experiment(json.loads(sys.argv[1]))
print(json.dumps([report.to_json(), report.errors.tolist()]))
"""


def child_env(**overrides):
    """The environment with this copula_rank package first on PYTHONPATH,
    and `overrides` applied: a None value removes the variable."""
    src = os.path.dirname(os.path.dirname(copula_rank.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return env


def fresh_process_report(config):
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(config)],
                          capture_output=True, text=True, env=child_env(), check=True)
    return json.loads(proc.stdout)


# Source of a fresh interpreter that times criterion 8's config
# (exchangeable(100), n = 50, one_step + ple, one worker, 40 replications)
# after one warm-up run, and prints the fastest of three runs in seconds.
TIMED_RUN = """
import time
from copula_rank import run_experiment
config = {"model": {"family": "exchangeable", "p": 100}, "theta_true": [0.25],
          "n": 50, "replications": 40, "estimators": ["one_step", "ple"],
          "seed": 20240607, "workers": 1}
run_experiment(config)
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    run_experiment(config)
    best = min(best, time.perf_counter() - start)
print(best)
"""
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class TestBlasThreads:
    def test_default_threads_cost_about_one_thread(self):
        # At BLAS's default thread count a p = 100 replication once ran ~6x
        # slower than at one thread: numpy sent zhat' zhat to threaded dsyrk,
        # and every LAPACK call after it woke a second thread pool.
        unset = dict.fromkeys(BLAS_THREAD_VARIABLES)
        seconds = {}
        for label, env in (("default", child_env(**unset)),
                           ("one", child_env(**{**unset, "OPENBLAS_NUM_THREADS": "1"}))):
            proc = subprocess.run([sys.executable, "-c", TIMED_RUN], capture_output=True,
                                  text=True, env=env, check=True)
            seconds[label] = float(proc.stdout)
        assert seconds["default"] <= 2.5 * seconds["one"], seconds


class TestModelCache:
    def test_model_built_once_per_experiment(self, monkeypatch):
        calls = []
        build = mc.build_model

        def counted(descriptor):
            calls.append(descriptor)
            return build(descriptor)

        monkeypatch.setattr(mc, "build_model", counted)
        config = McConfig.from_dict({**BASE, "replications": 6})
        run_experiment(config)
        assert calls == [BASE["model"]]
        run_experiment(config)
        assert len(calls) == 1

    def test_bad_model_built_once(self, monkeypatch):
        # A descriptor that serialises but does not build raises from the
        # one cached build, not from a second build as given.
        calls = counter(monkeypatch, mc.build_model, mc)
        with pytest.raises(ConfigError, match="^p: "):
            McConfig.from_dict({**BASE, "model": {"family": "toeplitz", "p": "x"}})
        assert len(calls) == 1

    def test_cached_models_match_fresh_processes(self):
        configs = [{**BASE, "replications": 6},
                   {"model": {"family": "toeplitz", "p": 4},
                    "theta_true": [0.4, 0.1, -0.2], "n": 60, "replications": 4,
                    "estimators": ["ple", "one_step"], "seed": 5}]
        in_process = []
        for config in configs + configs:
            report = run_experiment(config)
            in_process.append([report.to_json(), report.errors.tolist()])
        fresh = [fresh_process_report(config) for config in configs]
        assert in_process == fresh + fresh


class TestFixedCosts:
    """A config computes its cache key once, and a process checks a truth's
    domain once; a rejected truth is checked again on every call."""

    def test_key_computed_once(self, monkeypatch):
        calls = counter(monkeypatch, mc._canonical, mc)
        config = McConfig.from_dict({**BASE, "replications": 3})
        assert len(calls) == 1  # from_dict's own, which the config keeps as its key
        direct = McConfig(model={"family": "circular"}, theta_true=np.array([0.25]), n=40,
                          replications=3, estimators=("ple", "one_step"), seed=2)
        replaced = dataclasses.replace(config, theta_true=np.array([0.25]), lane=1)
        for made, dumps in ((config, 0), (direct, 1), (replaced, 1)):
            before = len(calls)
            for _ in range(2):
                run_experiment(made)
            assert len(calls) - before == dumps
            assert made._key is made._key
            assert made._key == mc._keys(made)  # one more call, from scratch
        assert replaced._key == (config._key[0], (0.25,))
        grid = McConfig.from_dict({**BASE, "replications": 2, "theta_grid": [0.1, 0.2]})
        before = len(calls)
        run_grid(grid)
        assert len(calls) - before == 2  # one key per point

    @pytest.mark.parametrize("model,theta", [
        ({"family": "exchangeable", "p": 3}, [1.5]),
        ({"family": "exchangeable", "p": 3}, [0.5, 0.1]),
        ({"family": "toeplitz", "p": 4}, [0.9, 0.0, -0.9]),
        ({"family": "toeplitz", "p": 4}, 0.5),
    ])
    def test_rejected_truth_checked_every_call(self, monkeypatch, model, theta):
        checks = []
        check = copula_rank.CorrelationModel.domain_check

        def counted(self, point):
            checks.append(point)
            return check(self, point)

        monkeypatch.setattr(copula_rank.CorrelationModel, "domain_check", counted)
        texts = []
        for _ in range(3):
            with pytest.raises(ConfigError, match="^theta_true: ") as exc:
                McConfig.from_dict({**BASE, "model": model, "theta_true": theta})
            texts.append(str(exc.value))
        assert texts == texts[:1] * 3
        assert mc._truth.cache_info().currsize == 0
        assert len(checks) == (3 if "outside the domain" in texts[0] else 0)

    def test_accepted_truth_checked_once(self, monkeypatch):
        config = {**CRITERION_CONFIGS["toeplitz4"], "replications": 1, "seed": 1}
        checks = counter(monkeypatch, mc._truth, mc)
        eigen = counter(monkeypatch, copula_rank.models.sym_eig, copula_rank.models)
        first = McConfig.from_dict(config)
        assert len(eigen) == 1  # toeplitz has no box: the check is an eigen-solve
        second = McConfig.from_dict({**config, "lane": 3})
        assert len(checks) == 2 and len(eigen) == 1

        # Equal truths, and arrays of their own.
        assert np.array_equal(first.theta_true, second.theta_true)
        assert not np.shares_memory(first.theta_true, second.theta_true)
        first.theta_true[0] = 0.0
        assert second.theta_true[0] == config["theta_true"][0]

    def test_each_config_keeps_its_own_zero(self):
        # 0.0 and -0.0 share a cache key, but each config echoes its own.
        plus = McConfig.from_dict({**BASE, "theta_true": [0.0]})
        minus = McConfig.from_dict({**BASE, "theta_true": [-0.0]})
        assert plus._key == minus._key
        assert [math.copysign(1.0, c.echo()["theta_true"][0]) for c in (plus, minus)] == [
            1.0, -1.0]

    def test_serial_pool_size_asks_no_core_count(self, monkeypatch, serial_pool):
        def no_count():
            raise AssertionError("os.cpu_count called")

        monkeypatch.setattr(os, "cpu_count", no_count)
        for workers, reps in ((1, 3), (1, 1), (4, 1)):
            config = McConfig.from_dict({**BASE, "replications": reps, "workers": workers})
            assert mc.pool_size(config) == 1
            assert run_experiment(config).n_success == {"ple": reps, "one_step": reps}
        assert serial_pool == []


def counter(monkeypatch, fn, *modules):
    """Replace `fn` by a counting wrapper in each module; returns the calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestComputedOnce:
    def test_copula_factor_once_per_run(self, monkeypatch):
        calls = counter(monkeypatch, sampler._copula_factor, sampler, mc)
        run_experiment({**BASE, "replications": 6})
        assert len(calls) == 1

    def test_failing_ple_solved_once_per_replication(self, monkeypatch):
        # one_step takes its pilot from the PLE: a failed solve fails both
        # estimators, each with the solve's own message, and is not repeated.
        calls = []

        def failing(model, samples, sums):
            calls.extend(samples)
            return (np.full((len(samples), model.k), np.nan), np.zeros(len(samples), dtype=int),
                    {row: ConvergenceError("forced") for row in range(len(samples))})

        monkeypatch.setattr(mc, "_ple_solve", failing)
        config = McConfig.from_dict({**BASE, "seed": 1, "estimators": ["one_step", "ple"]})
        errors, failures = mc._replicate(config, range(1))
        assert errors.shape == (1, 2, 1) and np.isnan(errors).all()
        assert failures == [(0, "one_step", "ConvergenceError: forced"),
                            (0, "ple", "ConvergenceError: forced")]
        assert len(calls) == 1
        with pytest.raises(McExperimentError) as exc:
            run_experiment({**BASE, "replications": 6, "estimators": ["one_step", "ple"]})
        assert exc.value.failures == {"one_step": 6, "ple": 6}
        assert len(calls) == 1 + 6

    def test_moment_pilot_alone_solves_no_ple(self, monkeypatch):
        def no_ple(model, samples, sums):
            raise AssertionError("a PLE was solved")

        monkeypatch.setattr(mc, "_ple_solve", no_ple)
        report = run_experiment({**BASE, "replications": 3, "estimators": ["pilot_moment"]})
        assert report.failures == {"pilot_moment": 0}
        model = copula_rank.exchangeable(3)
        for rep in range(3):
            sample = estimators.rank_transform(
                sampler.sample_copula(model.r_of_theta([0.5]), 40, seed=99, rep=rep))
            expected = estimators.pilot_moment(model, sample).theta_hat - 0.5
            assert np.array_equal(report.errors[rep, 0], expected)

    def test_ple_estimate_checked_once_per_replication(self, monkeypatch):
        # toeplitz(4) has no box, so a domain test is an eigen-solve.  A
        # replication checks the PLE's start and estimate and the one-step
        # update, each in a test of the block's rows and none by a per-row
        # domain_check; the update does not check the PLE's estimate again.
        config = McConfig.from_dict({**CRITERION_CONFIGS["toeplitz4"], "replications": 8,
                                     "seed": 20260814})
        rows, per_row = [], []
        check_block = copula_rank.CorrelationModel.domain_check_block
        check = copula_rank.CorrelationModel.domain_check

        def counted(self, thetas):
            rows.append(len(thetas))
            return check_block(self, thetas)

        monkeypatch.setattr(copula_rank.CorrelationModel, "domain_check_block", counted)
        monkeypatch.setattr(copula_rank.CorrelationModel, "domain_check",
                            lambda self, theta: per_row.append(theta) or check(self, theta))
        errors, failures = mc._replicate(config, range(8))
        assert failures == [] and not np.isnan(errors).any()
        assert sum(rows) / 8 == 3.0
        assert rows[0] == rows[-1] == 8 and per_row == []

    @pytest.mark.parametrize("name,per_replication", [
        ("exchangeable3", 0), ("circular", 0), ("exchangeable100", 0), ("toeplitz4", 1)])
    def test_one_step_geometry_per_replication(self, monkeypatch, name, per_replication):
        # A balanced spectrum updates in closed form, with no geometry and no
        # generator solve; toeplitz(4) builds one of each per replication,
        # from one call of the block producer per block, and none through
        # the per-point eval_geometry and score_generators.
        config = McConfig.from_dict({**CRITERION_CONFIGS[name], "replications": 6,
                                     "seed": 20260814})
        blocks = counter(monkeypatch, estimators._efficient_block, estimators)
        geometries = counter(monkeypatch, geometry._geometry_at, geometry)
        generators = counter(monkeypatch, geometry._generators, geometry)
        per_point = [counter(monkeypatch, estimators.eval_geometry, estimators, mc),
                     counter(monkeypatch, geometry.score_generators, geometry)]
        errors, failures = mc._replicate(config, range(6))
        assert failures == [] and not np.isnan(errors).any()
        assert [len(thetas) for _, thetas in blocks] == [6] * per_replication
        assert len(geometries) == len(generators) == 6 * per_replication
        assert per_point == [[], []]

    def test_one_bit_generator_per_block(self, monkeypatch):
        # Each replication draws from its own stream, keyed (seed, rep,
        # lane), through one Philox whose counter is reset per replication.
        made = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            made.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        config = McConfig.from_dict({**BASE, "replications": 70})
        mc._replicate(config, range(64))
        assert len(made) == 1
        run_experiment(config)  # blocks of 64 and 6
        assert len(made) == 3

    @pytest.mark.parametrize("name", ["circular", "exchangeable100"])
    def test_group_sums_once_per_sample(self, monkeypatch, name):
        # The eigen-group sums are formed in one pass per block, for all its
        # samples in one stacked product, and the PLE descent, its moment
        # start and the one-step update all read that one array.
        made, read = [], {}
        group_sums = estimators._group_sums

        def recorded(spectrum, samples):
            made.append(group_sums(spectrum, samples))
            return made[-1]

        def reader(module, name, position):
            fn = getattr(module, name)

            def spied(*args):
                read.setdefault(name, []).append(args[position])
                return fn(*args)

            monkeypatch.setattr(module, name, spied)

        monkeypatch.setattr(estimators, "_group_sums", recorded)
        reader(estimators, "_spectral_descent", 1)
        reader(estimators, "_moment_fits", 2)
        reader(mc, "_one_step_update", 3)
        config = McConfig.from_dict({**CRITERION_CONFIGS[name], "replications": 6,
                                     "seed": 20260814})
        errors, failures = mc._replicate(config, range(6))
        assert failures == [] and not np.isnan(errors).any()
        assert len(made) == 1
        assert made[0].shape == (6, len(mc._truth(*config._key)[0].spectrum.sizes))
        assert sorted(read) == ["_moment_fits", "_one_step_update", "_spectral_descent"]
        assert all(len(arrays) == 1 and arrays[0] is made[0] for arrays in read.values())

    def test_exchangeable_block_solves_and_factors_nothing(self, eigensolves,
                                                           factorizations):
        # exchangeable(100) declares its two eigen-groups exactly, so once its
        # truth is cached (by from_dict) a block projects zhat on the one
        # column 1/sqrt(p), with no eigen-solve, factorization or p x p
        # product.
        config = McConfig.from_dict({**CRITERION_CONFIGS["exchangeable100"],
                                     "replications": 8, "seed": 20260814})
        model = mc._truth(*config._key)[0]
        assert model.spectrum.columns.shape == (100, 1)
        eigensolves.clear()
        factorizations.clear()
        errors, failures = mc._replicate(config, range(8))
        assert failures == [] and not np.isnan(errors).any()
        assert eigensolves == [] and factorizations == []

    def test_rhat_once_per_replication(self, monkeypatch):
        # A spectral family reads d from zhat and never forms Rhat; a matrix
        # family forms it once per replication for the PLE and the one-step.
        calls = counter(monkeypatch, estimators.normal_scores_matrix, estimators)
        for name, per_replication in [("exchangeable3", 0), ("circular", 0),
                                      ("exchangeable100", 0), ("toeplitz4", 1)]:
            calls.clear()
            config = McConfig.from_dict({**CRITERION_CONFIGS[name], "replications": 6,
                                         "seed": 20260814})
            errors, failures = mc._replicate(config, range(6))
            assert failures == [] and not np.isnan(errors).any()
            assert len(calls) == 6 * per_replication, name

    def test_bounds_once_per_truth(self, monkeypatch):
        calls = counter(monkeypatch, mc.efficiency_bundle, mc)
        first = run_experiment({**BASE, "replications": 2})
        second = run_experiment({**BASE, "replications": 3, "seed": 5, "lane": 1})
        assert len(calls) == 1
        assert np.array_equal(second.eff_bound, first.eff_bound)
        assert np.array_equal(second.ple_bound, first.ple_bound)

    def test_replication_skips_bounds(self, monkeypatch):
        # Worker processes run only `_replicate`; the bounds are the
        # aggregating process's.
        calls = counter(monkeypatch, mc.efficiency_bundle, mc)
        mc._replicate(McConfig.from_dict({**BASE, "seed": 1}), range(1))
        assert calls == []

    @pytest.mark.parametrize("config", [
        {"model": {"family": "exchangeable", "p": 3}, "theta_true": [0.5], "n": 250,
         "estimators": ["one_step"]},
        {"model": {"family": "circular"}, "theta_true": [0.5], "n": 250,
         "estimators": ["one_step", "ple"]},
        {"model": {"family": "toeplitz", "p": 4},
         "theta_true": [0.4945460, -0.4592764, -0.8462492], "n": 250,
         "estimators": ["one_step", "ple"]},
        {"model": {"family": "exchangeable", "p": 100}, "theta_true": [0.25], "n": 50,
         "estimators": ["one_step", "ple"]},
    ], ids=["exchangeable3", "circular", "toeplitz4", "exchangeable100"])
    def test_replication_avoids_numpy_linalg(self, monkeypatch, config):
        # Past the first run of a config, a replication reaches LAPACK only
        # through numcore, never through numpy.linalg's per-call wrappers.
        run_experiment({**config, "replications": 1, "seed": 3})

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg called in a replication")

        for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        report = run_experiment({**config, "replications": 1, "seed": 4})
        assert all(report.n_success[e] == 1 for e in config["estimators"])

    def test_cached_arrays_read_only(self):
        first = run_experiment({**BASE, "replications": 2})
        for bound in (first.eff_bound, first.ple_bound):
            bound[0] = 0.0  # the report holds its own copies
        second = run_experiment({**BASE, "replications": 2})
        assert_allclose(second.eff_bound, [1.0 / 3.0], rtol=1e-9)
        key = (mc._canonical(BASE["model"]), (0.5,))
        cached = [mc._truth(*key)[1], *mc._bounds_at(*key)]
        assert not any(a.flags.writeable for a in cached)

    def test_every_process_cache_cleared(self, clear_process_caches):
        # The autouse fixture finds the package's caches; it lists none by hand.
        assert mc._truth in clear_process_caches
        assert estimators._score_grid in clear_process_caches


# The configs of acceptance criteria 6, 7 and 8.
CRITERION_CONFIGS = {
    "exchangeable3": {"model": {"family": "exchangeable", "p": 3}, "theta_true": [0.5],
                      "n": 250, "estimators": ["one_step"]},
    "circular": {"model": {"family": "circular"}, "theta_true": [0.5], "n": 250,
                 "estimators": ["one_step", "ple"]},
    "toeplitz4": {"model": {"family": "toeplitz", "p": 4},
                  "theta_true": [0.4945460, -0.4592764, -0.8462492], "n": 250,
                  "estimators": ["one_step", "ple"]},
    "exchangeable100": {"model": {"family": "exchangeable", "p": 100},
                        "theta_true": [0.25], "n": 50, "estimators": ["one_step", "ple"]},
}


# The criterion configs and circular with all three estimators.
BLOCK_CONFIGS = {**CRITERION_CONFIGS, "circular-all": {
    **CRITERION_CONFIGS["circular"], "estimators": ["one_step", "ple", "pilot_moment"]}}


class TestBlocks:
    """`_replicate` runs a block of consecutive replications and solves their
    PLEs in one call; no row of its record depends on the block."""

    def test_block_sizes(self):
        def sizes(reps, workers):
            blocks = mc._blocks(reps, workers)
            assert [r for block in blocks for r in block] == list(range(reps))
            return [len(block) for block in blocks]

        assert sizes(70, 1) == [64, 6]
        assert sizes(1, 1) == [1]
        assert sizes(70, 2) == [4] * 17 + [2]
        assert sizes(70, 3) == [2] * 35
        assert sizes(10, 3) == [1] * 10
        assert set(sizes(10_000, 2)) == {64, 16}

    @pytest.mark.parametrize("name", ["exchangeable3", "circular", "toeplitz4",
                                      "exchangeable100", "circular-all"])
    def test_reports_do_not_depend_on_blocks(self, monkeypatch, serial_pool, name):
        # Workers 1, 2 and 3 cut 70 replications into blocks of 64, 4 and
        # 2; a 10-replication run solves its rows in one block of 10.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        config = {**BLOCK_CONFIGS[name], "n": 60, "replications": 70, "seed": 7}
        reports = [run_experiment({**config, "workers": w}) for w in (1, 2, 3)]
        assert serial_pool == [2, 3]
        for report in reports[1:]:
            assert report.to_json() == reports[0].to_json()
            assert np.array_equal(report.errors, reports[0].errors, equal_nan=True)
        short = run_experiment({**config, "replications": 10})
        assert np.array_equal(short.errors, reports[0].errors[:10], equal_nan=True)

    @pytest.mark.parametrize("name", list(CRITERION_CONFIGS))
    def test_blocks_raise_no_warning(self, name):
        # A block runs under no warning filter, so one that warned would
        # reach the caller; the acceptance configs raise none.
        config = McConfig.from_dict({**CRITERION_CONFIGS[name], "replications": 64,
                                     "seed": 20260814})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors, failures = mc._replicate(config, range(64))
        assert failures == [] and not np.isnan(errors).any()

    @pytest.mark.parametrize("name", list(CRITERION_CONFIGS))
    def test_runs_rank_the_latent_normals(self, monkeypatch, name):
        # A run applies neither Phi nor a margin transform: it ranks Z.
        def boom(*args):
            raise AssertionError("Phi or a margin transform ran")

        monkeypatch.setattr(sampler, "norm_cdf", boom)
        for kind in sampler._MARGINS:
            monkeypatch.setitem(sampler._MARGINS, kind, boom)
        report = run_experiment({**CRITERION_CONFIGS[name], "n": 60, "replications": 10,
                                 "seed": 20260814})
        assert report.failures == dict.fromkeys(report.estimators, 0)

    @pytest.mark.parametrize("names,batch,batches,iterations", [
        (["exchangeable3", "circular"], 10, 20, 1271),
        (["toeplitz4"], 1, 40, 181),
        (["exchangeable100"], 2, 20, 160),
    ], ids=["mc-smallp", "mc-toeplitz4", "mc-highdim"])
    def test_iterations_per_row(self, monkeypatch, names, batch, batches, iterations):
        # The PLE solves of the benchmark's traced runs (lanes 0.. of the
        # acceptance seed, `batch` replications per experiment): the same
        # Newton iterations per row as one solve per replication took, a
        # mean of 3.1775, 4.525 and 4.0.
        rows = []
        solve = estimators._ple_solve

        def counted(model, samples, sums):
            theta, iterations, failures = solve(model, samples, sums)
            assert not failures
            rows.extend(iterations.tolist())
            return theta, iterations, failures

        monkeypatch.setattr(mc, "_ple_solve", counted)
        for lane in range(batches):
            for name in names:
                run_experiment({**CRITERION_CONFIGS[name], "replications": batch,
                                "seed": 20260814, "lane": lane})
        assert len(rows) == batches * batch * len(names)
        assert sum(rows) == iterations


# Criteria 6-8's configs (circular with all three estimators), and factor(5,
# 1), whose PLE fails in replication 75 at the acceptance seed: each with the
# block of replications it runs here.
CORE_CONFIGS = {
    "exchangeable3": (CRITERION_CONFIGS["exchangeable3"], range(16)),
    "circular-all": (BLOCK_CONFIGS["circular-all"], range(16)),
    "toeplitz4": (CRITERION_CONFIGS["toeplitz4"], range(8)),
    "exchangeable100": (CRITERION_CONFIGS["exchangeable100"], range(8)),
    "factor51": ({"model": {"family": "factor", "p": 5, "q": 1},
                  "theta_true": [0.5, 0.4, 0.3, 0.6, 0.2], "n": 250,
                  "estimators": ["ple", "one_step", "pilot_moment"]}, range(70, 76)),
}


class TestArrayCores:
    """A Monte Carlo block reads the estimators' array cores: its rows are the
    public calls' to the bit, and it builds no EstimateResult."""

    @pytest.mark.parametrize("name", list(CORE_CONFIGS))
    def test_rows_equal_the_public_calls(self, name):
        raw, reps = CORE_CONFIGS[name]
        config = McConfig.from_dict({**raw, "replications": reps.stop, "seed": 20260814})
        errors, failures = mc._replicate(config, reps)
        model = mc._truth(*config._key)[0]
        truth = config.theta_true
        expected_errors, expected_failures = [], []
        for rep in reps:
            sample = estimators.rank_transform(sampler.sample_copula(
                model.r_of_theta(truth), config.n, seed=config.seed, rep=rep))
            try:
                ple = estimators.ple_estimate(model, sample)
            except ConvergenceError as exc:  # a failed PLE fails the update from it
                outcomes = {"ple": exc, "one_step": exc}
            else:
                outcomes = {"ple": ple, "one_step": estimators.one_step(
                    model, sample, pilot=ple.theta_hat)}
            outcomes["pilot_moment"] = (outcomes["ple"] if model.moment_map is None
                                        else estimators.pilot_moment(model, sample))
            row = np.full((len(config.estimators), model.k), np.nan)
            for j, est in enumerate(config.estimators):
                if isinstance(outcomes[est], Exception):
                    exc = outcomes[est]
                    expected_failures.append((rep, est, f"{type(exc).__name__}: {exc}"))
                else:
                    row[j] = outcomes[est].theta_hat - truth
            expected_errors.append(row)
        assert errors.tobytes() == np.array(expected_errors).tobytes()
        assert failures == expected_failures
        assert bool(failures) == (name == "factor51")

    @pytest.mark.parametrize("name", ["exchangeable3", "circular", "toeplitz4",
                                      "exchangeable100"])
    def test_block_builds_no_estimate_result(self, monkeypatch, name):
        built = []
        init = estimators.EstimateResult.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(estimators.EstimateResult, "__init__", counted)
        config = McConfig.from_dict({**CRITERION_CONFIGS[name], "replications": 64,
                                     "seed": 20260814})
        errors, failures = mc._replicate(config, range(64))
        assert failures == [] and not np.isnan(errors).any()
        assert built == []
        model = mc._truth(*config._key)[0]
        sample = estimators.rank_transform(sampler.sample_copula(np.eye(model.p), 50, seed=1))
        estimators.pilot_moment(model, sample)
        assert len(built) == 1  # the counter sees a public call's result

    @pytest.mark.parametrize("name", ["exchangeable3", "circular", "exchangeable100",
                                      "circular-all"])
    def test_one_box_test_per_converging_round(self, monkeypatch, name):
        # A box family's block tests its moment fits, each round's converged
        # PLE rows and the one-step updates a block at a time, and never a
        # row at a time.  The PLE's starts and the moment pilots share the
        # fits' one test.
        sizes, rows = [], []
        check_block = copula_rank.CorrelationModel.domain_check_block
        solve = estimators._ple_solve

        def block_counted(self, thetas):
            sizes.append(len(thetas))
            return check_block(self, thetas)

        def per_row(self, theta):
            raise AssertionError("a per-row domain_check")

        def solved(model, samples, sums):
            theta, iterations, failures = solve(model, samples, sums)
            rows.extend(iterations.tolist())
            return theta, iterations, failures

        config = McConfig.from_dict({**BLOCK_CONFIGS[name], "replications": 64,
                                     "seed": 20260814})
        monkeypatch.setattr(copula_rank.CorrelationModel, "domain_check_block", block_counted)
        monkeypatch.setattr(copula_rank.CorrelationModel, "domain_check", per_row)
        monkeypatch.setattr(mc, "_ple_solve", solved)
        errors, failures = mc._replicate(config, range(64))
        assert failures == [] and not np.isnan(errors).any()
        rounds = sorted(set(rows))
        assert sizes == [64] + [rows.count(r) for r in rounds] + [64]


class TestGridAndSummaries:
    def test_run_grid_lanes(self):
        raw = {**BASE, "replications": 4, "estimators": ["one_step"],
               "theta_grid": [0.2, 0.5]}
        reports = run_grid(raw)
        assert [r.config["lane"] for r in reports] == [0, 1]
        # point i of a grid runs on lane + i, as its own experiment would
        shifted = run_grid({**raw, "lane": 7})
        assert [r.config["lane"] for r in shifted] == [7, 8]
        for report, theta, lane in zip(shifted, (0.2, 0.5), (7, 8)):
            point = run_experiment({**BASE, "replications": 4, "estimators": ["one_step"],
                                    "theta_true": theta, "lane": lane})
            assert report.to_json() == point.to_json()
            assert np.array_equal(report.errors, point.errors)
        assert not np.array_equal(shifted[0].errors, reports[0].errors)
        last = run_grid({**raw, "lane": 2**64 - 2})
        assert [r.config["lane"] for r in last] == [2**64 - 2, 2**64 - 1]
        assert [r.config["theta_true"] for r in reports] == [[0.2], [0.5]]
        rows = summarize(reports)
        assert len(rows) == 2
        assert rows[0]["theta"] == [0.2]
        assert rows[1]["estimator"] == "one_step"
        assert rows[0]["n_success"] == 4

    def test_run_grid_point_config(self):
        # A config without a grid runs its one experiment, on its own lane.
        raw = {**BASE, "replications": 4, "lane": 3}
        [report] = run_grid(raw)
        expected = run_experiment(raw)
        assert report.config["lane"] == 3
        assert report.to_json() == expected.to_json()
        np.testing.assert_array_equal(report.errors, expected.errors)
        assert run_grid(McConfig.from_dict(raw))[0].to_json() == report.to_json()

    def test_summarize_single_and_empty(self):
        report = run_experiment({**BASE, "replications": 2})
        rows = summarize([report])
        assert len(rows) == 2  # one per estimator
        assert {row["estimator"] for row in rows} == {"ple", "one_step"}
        assert summarize([]) == []

    def test_summarize_rejects_mixed_reports(self):
        a = run_experiment({**BASE, "replications": 2})
        b = run_experiment({**BASE, "replications": 2,
                            "model": {"family": "exchangeable", "p": 4},
                            "theta_true": [0.3]})
        with pytest.raises(ShapeError):
            summarize([a, b])
        c = run_experiment({**BASE, "replications": 2,
                            "estimators": ["one_step"]})
        with pytest.raises(ShapeError):
            summarize([a, c])


class TestWriters:
    def test_report_json(self, tmp_path):
        report = run_experiment({**BASE, "replications": 2})
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        import json
        obj = json.loads(text)
        assert obj["config"]["seed"] == 99
        write_report_json([report, report], str(path))
        assert isinstance(json.loads(path.read_text()), list)

    def test_errors_csv(self, tmp_path):
        report = run_experiment({**BASE, "replications": 3})
        path = tmp_path / "errors.csv"
        write_errors_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lane,replication,estimator,err_1"
        assert len(lines) == 1 + 3 * 2  # header + reps x estimators
        assert lines[1].startswith("0,0,ple,")

    def test_singular_bounds_report(self, tmp_path):
        # Raw factor(4, 2) loadings are not identifiable, so the information
        # at the truth is singular: the report carries no bounds, and the
        # summary leaves their cells blank.
        report = run_experiment({
            "model": {"family": "factor", "p": 4, "q": 2},
            "theta_true": [0.7, 0.0, 0.6, 0.1, 0.5, 0.2, 0.4, -0.1], "n": 250,
            "replications": 20, "estimators": ["ple"], "seed": 7, "workers": 1})
        assert report.eff_bound is None and report.ple_bound is None
        assert report.n_success["ple"] + report.failures["ple"] == 20
        validate_output("mc_report", report.to_dict())
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize([report]), str(path))
        header, row = [line.split(",") for line in path.read_text().splitlines()]
        bounds = [v for key, v in zip(header, row) if "bound" in key]
        assert len(bounds) == 16 and set(bounds) == {""}

    def test_summary_csv(self, tmp_path):
        rows = summarize([run_experiment({**BASE, "replications": 2})])
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == ["n", "estimator", "theta_1",
                                           "bias_1"]
        assert len(lines) == 3
        write_summary_csv([], str(path))
        assert path.read_text() == ""
