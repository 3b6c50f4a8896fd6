"""Replicated simulation harness.

Each replication r of an experiment draws its sample from the Philox
stream keyed (seed, r, lane) and estimates with every requested estimator.
A block of replications returns one record: its (B, n_estimators, k) array
of errors theta_hat - theta_true and its list of failures.  It reads the
estimators' array cores, not the public calls, so it builds no
EstimateResult: each core returns a (B, k) array of estimates with a NaN
row per failed row (solver non-convergence, singular I*) and those rows'
errors as values, and each estimator's error column is one subtraction, the
NaN rows kept.  Failures are counted and excluded, never imputed, and
more than 5% for any estimator aborts the experiment, as does anything a
core raises.  A run concatenates its
blocks' arrays in replication order and reduces that one array in order, so
reports are byte-identical no matter how many workers ran the blocks.

A config computes its cache key, its descriptor JSON and theta_true as a
tuple of floats, once, and `McConfig.from_dict` hands over the key it read.
A process builds each model once per descriptor, for `McConfig.from_dict`
and every replication.  One cache entry per (descriptor, theta_true) holds
the truth's domain check and the sampler's factor of R(theta_true) (a truth
that fails is checked again on every call); the process that aggregates
also forms the bounds at the truth.  Each config still holds its own
theta_true array.  A replication pays only for what its sample changes:
the draw, the ranks, the estimates, and the statistic they read: on a
spectral family the eigen-group sums D_g = tr(Q_g' Rhat Q_g), which the
block forms once, as one (B, G) array, from its stacked zhat with no Rhat
(on exchangeable(p) from its rows' sums and sum zhat^2, with no
eigen-solve), and Rhat on any other.

Replications run in blocks of consecutive indices: at most 64 in a serial
run, which bounds the samples held at once, and max(1, replications //
(8 workers)), capped at 64, per process-pool task.  A block draws the
latent normals Z of its samples as one (B, n, p) stack
(`sampler._sample_block`: one bit generator reset to each replication's
stream, one matmul with the factor) and ranks the stack with one argsort
(`estimators._rank_block`).  The estimators read only ranks, and Phi and
every margin transform are strictly increasing, so a run applies neither:
the ranks of Z are those of the copula sample, save where Phi would round
distinct extreme draws to one float (1.0 for z >= 8.3) and make a tie.  A
block then solves the PLEs of its replications in one `_ple_solve`
descent, whose rows that converge in one round take one domain test, and
updates from the solved rows of its estimates in one `_one_step_update`
call, in closed form on the eigenvalues where the model's spectrum is
balanced, else through one call of the block producer of A* and I*^-1, and
one domain test.  The moment fits and their domain test are formed once per
block and shared by the PLE's starts and the moment pilots.  No row of any
stage depends on the block, so a block never changes a number.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .estimators import (_BlockStats, _moment_pilot, _one_step_update, _ple_solve,
                         _rank_block)
from .exceptions import ConfigError, McExperimentError, ShapeError, SingularityError
from .geometry import efficiency_bundle
from .models import build_model, eval_geometry
from .sampler import _WORD_MAX, _copula_factor, _int_in, _sample_block

__all__ = [
    "McConfig",
    "McReport",
    "pool_size",
    "run_experiment",
    "run_grid",
    "summarize",
    "write_report_json",
    "write_errors_csv",
    "write_summary_csv",
]

_ESTIMATORS = ("ple", "one_step", "pilot_moment")
_FAILURE_LIMIT = 0.05
# Most replications one `_replicate` call runs: a block holds its samples at
# once, so this bounds the memory of a run.
_BLOCK = 64


def _canonical(descriptor):
    """A model descriptor's JSON, keys in the given order: the cache key."""
    return json.dumps(descriptor, default=np.ndarray.tolist)


def _keys(config):
    """The cache keys of a config's model and truth: its descriptor JSON and
    theta_true as a tuple of floats."""
    return _canonical(config.model), tuple(float(v) for v in config.theta_true)


@lru_cache(maxsize=8)
def _model(descriptor_json):
    """The model of a descriptor JSON, built once per process."""
    return build_model(json.loads(descriptor_json))


@lru_cache(maxsize=8)
def _truth(descriptor_json, theta):
    """The descriptor's model and the sampler's read-only factor of
    R(theta), once per process for each point `theta`, a tuple of floats,
    that the model's `require` passes.  A point it rejects raises on every
    call: lru_cache keeps no exception."""
    model = _model(descriptor_json)
    theta = np.array(theta)
    model.require(theta)
    return model, _copula_factor(model.r_of_theta(theta))


def _theta_point(descriptor_json, key, value):
    """`value`, a number or a list of numbers, as a validated theta in the
    domain of the descriptor's model, a tuple of floats, else ConfigError
    naming `key`.  As in JSON Schema, a bool is not a number."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        raise ConfigError(f"{key}: expected a number or a list of numbers, got {value!r}")
    try:
        theta = tuple(float(v) for v in items)
        _truth(descriptor_json, theta)
    except (TypeError, ValueError) as exc:  # ShapeError, DomainError included
        raise ConfigError(f"{key}: {exc}") from exc
    return theta


def _theta_grid(descriptor_json, value):
    """`value` as a tuple of theta vectors: a nonempty list of numbers (k = 1)
    or of length-k lists, each in the domain; else ConfigError naming
    theta_grid."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"theta_grid: expected a nonempty list, got {value!r}")
    return tuple(np.array(_theta_point(descriptor_json, "theta_grid", theta))
                 for theta in value)


@dataclass(frozen=True, eq=False)
class McConfig:
    """One experiment.  A config read with a `theta_grid` holds its
    validated points, and `run_grid(config)` runs one experiment per point;
    then theta_true is None unless the raw config gave it."""

    model: dict
    theta_true: np.ndarray
    n: int
    replications: int
    estimators: tuple
    seed: int
    workers: int = 1
    lane: int = 0
    theta_grid: tuple = ()

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        known = {"model", "theta_true", "n", "replications", "estimators",
                 "seed", "workers", "output", "theta_grid", "lane"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unexpected config field")
        if "model" not in raw:
            raise ConfigError("model: missing required field")
        if not isinstance(raw["model"], dict):
            raise ConfigError(f"model: expected a JSON object, got {raw['model']!r}")
        try:
            descriptor = _canonical(raw["model"])
        except (TypeError, ValueError) as exc:  # not JSON: built for its own error text
            build_model(raw["model"])
            raise ConfigError(f"model: expected a JSON descriptor ({exc})") from exc
        _model(descriptor)  # a descriptor that does not build fails first
        grid = _theta_grid(descriptor, raw["theta_grid"]) if "theta_grid" in raw else ()
        if "theta_true" in raw:
            theta = _theta_point(descriptor, "theta_true", raw["theta_true"])
        elif grid:
            theta = None
        else:
            raise ConfigError("theta_true: missing required field")
        n = _int_in("n", raw.get("n"), 2)
        reps = _int_in("replications", raw.get("replications"), 1)
        ests = raw.get("estimators", ["one_step"])
        if (not isinstance(ests, (list, tuple)) or not ests
                or not all(e in _ESTIMATORS for e in ests)
                or len(set(ests)) < len(ests)):
            raise ConfigError(f"estimators: expected a nonempty subset of "
                              f"{_ESTIMATORS}, each named once, got {ests!r}")
        seed = _int_in("seed", raw.get("seed", 0), 0, _WORD_MAX)
        if not isinstance(raw.get("output", ""), str):
            raise ConfigError(f"output: expected a directory path string, "
                              f"got {raw['output']!r}")
        lane = _int_in("lane", raw.get("lane", 0), 0, _WORD_MAX)
        if lane + len(grid) - 1 > _WORD_MAX:  # a grid's point i runs on lane + i
            raise ConfigError(f"lane: {len(grid)} theta_grid points from {lane} pass 2**64 - 1")
        config = cls(model=json.loads(descriptor),
                     theta_true=None if theta is None else np.array(theta), n=n,
                     replications=reps, estimators=tuple(ests), seed=seed,
                     workers=_int_in("workers", raw.get("workers", 1), 1),
                     lane=lane, theta_grid=grid)
        if theta is not None:  # the key `_keys` would compute, with no second json.dumps
            config.__dict__["_key"] = (descriptor, theta)
        return config

    # The (descriptor JSON, theta_true) cache key, computed once per config.
    _key = cached_property(_keys)

    def echo(self):
        """The experiment parameters (not execution details like workers):
        theta_true is None where a grid config gave none, and `theta_grid`
        is listed only where the config has one."""
        echo = {
            "model": self.model,
            "theta_true": None if self.theta_true is None
            else [float(v) for v in self.theta_true],
            "n": self.n,
            "replications": self.replications,
            "estimators": list(self.estimators),
            "seed": self.seed,
            "margins": ["uniform"],  # a run ranks Z, whose ranks are those of Phi(Z)
            "lane": self.lane,
        }
        if self.theta_grid:
            echo["theta_grid"] = [[float(v) for v in theta] for theta in self.theta_grid]
        return echo


@dataclass(frozen=True, eq=False)
class McReport:
    config: dict
    estimators: tuple
    k: int
    bias: dict
    variance: dict
    n_variance: dict
    n_success: dict
    failures: dict
    eff_bound: object
    ple_bound: object
    errors: np.ndarray = field(repr=False)

    def to_dict(self):
        def per_est(table):
            return {e: [float(v) for v in table[e]] for e in self.estimators}

        return {
            "config": self.config,
            "k": self.k,
            "bias": per_est(self.bias),
            "variance": per_est(self.variance),
            "n_variance": per_est(self.n_variance),
            "n_success": {e: int(self.n_success[e]) for e in self.estimators},
            "failures": {e: int(self.failures[e]) for e in self.estimators},
            "eff_bound": None if self.eff_bound is None
            else [float(v) for v in self.eff_bound],
            "ple_bound": None if self.ple_bound is None
            else [float(v) for v in self.ple_bound],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@lru_cache(maxsize=8)
def _bounds_at(descriptor_json, theta_true):
    """diag(I*^-1) and diag(PLE covariance) at theta_true as read-only views,
    or (None, None) where singular; once per process."""
    try:
        bundle = efficiency_bundle(eval_geometry(_model(descriptor_json), theta_true))
        return np.diag(bundle.eff_info_inv), np.diag(bundle.ple_cov)
    except (SingularityError, np.linalg.LinAlgError):
        return None, None


def _replicate(config, reps):
    """Run the block of consecutive replications `reps` (a range) of the
    McConfig `config` and return its record (errors, failures): the
    (len(reps), n_estimators, k) array of theta_hat - theta_true, a NaN row
    per failed estimator, and the (replication, estimator, "Type: message")
    entries in replication order.  The block is drawn and ranked as one
    stack, its group sums and moment fits formed once (`_BlockStats`) and
    handed to every estimator core, its PLEs solved in one `_ple_solve` call
    and the one-step updates from the rows whose PLE succeeded in one
    `_one_step_update` call; each estimator core returns a
    (B, k) array with a NaN row per failed row and those rows' errors as
    values, and whatever a core raises aborts the run.  No row depends on
    the block.  Top-level so process pools can pickle it."""
    model, chol = _truth(*config._key)
    estimators = config.estimators
    samples = _rank_block(_sample_block(chol, config.n, config.seed, reps, config.lane))
    stats = _BlockStats(model, samples)
    sums = stats.sums
    theta, failed = {}, {}
    # The one-step update is pinned to a pseudo-likelihood pilot: in high
    # dimensions a moment pilot leaves a visible finite-sample bias that the
    # single update does not remove, while the update from the PLE re-centers
    # the estimate.  The PLE solve, or its failure, is shared by every
    # estimator that needs it; for a family with no moment map `pilot_moment`
    # is that same solve from the same start.
    pilot_is_ple = model.moment_map is None
    if pilot_is_ple or "ple" in estimators or "one_step" in estimators:
        theta["ple"], _, failed["ple"] = _ple_solve(model, samples, stats)
    if "pilot_moment" in estimators:
        if pilot_is_ple:
            theta["pilot_moment"], failed["pilot_moment"] = theta["ple"], failed["ple"]
        else:
            theta["pilot_moment"], failed["pilot_moment"] = _moment_pilot(model, samples,
                                                                          stats)[0], {}
    if "one_step" in estimators:
        # a failed PLE fails its row's update; it checked every pilot's domain
        ple, ple_failed = theta["ple"], failed["ple"]
        if ple_failed:
            solved = [i for i in range(len(samples)) if i not in ple_failed]
            update, _, update_failed = _one_step_update(
                model, [samples[i] for i in solved], ple[solved],
                None if sums is None else sums[solved])
            theta["one_step"] = np.full(ple.shape, np.nan)
            theta["one_step"][solved] = update
            failed["one_step"] = {**ple_failed,
                                  **{solved[j]: exc for j, exc in update_failed.items()}}
        else:
            theta["one_step"], _, failed["one_step"] = _one_step_update(model, samples, ple,
                                                                        sums)
    errors = np.empty((len(reps), len(estimators), len(config.theta_true)))
    for j, est in enumerate(estimators):
        np.subtract(theta[est], config.theta_true, out=errors[:, j])
    failures = sorted((i, j, exc) for j, est in enumerate(estimators)
                      for i, exc in failed[est].items())
    return errors, [(reps[i], estimators[j], f"{type(exc).__name__}: {exc}")
                    for i, j, exc in failures]


def _blocks(reps, workers):
    """Consecutive blocks of range(reps): at most _BLOCK replications in one
    process, and max(1, reps // (8 workers)), capped at _BLOCK, per pool
    task."""
    size = _BLOCK if workers == 1 else min(_BLOCK, max(1, reps // (8 * workers)))
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def pool_size(config):
    """The worker processes `run_experiment` starts for an McConfig:
    min(workers, replications, logical cores); 1 runs in the caller, and
    asks for no core count."""
    workers = min(config.workers, config.replications)
    return workers if workers == 1 else min(workers, os.cpu_count() or 1)


def run_experiment(config):
    """Run a replicated experiment and aggregate into an McReport.

    `config` may be an McConfig or a raw dict.  Results are deterministic
    given the config, independently of the worker count.  At most
    min(workers, replications, logical cores) worker processes run.  A
    config with a `theta_grid` raises ConfigError: it runs through
    `run_grid`.
    """
    if isinstance(config, dict):
        config = McConfig.from_dict(config)
    if config.theta_grid:
        raise ConfigError("theta_grid: run_experiment runs one theta_true "
                          "(a theta_grid config runs through run_grid)")
    if config.theta_true is None:
        raise ConfigError("theta_true: missing required field "
                          "(a theta_grid config runs through run_grid)")
    reps = config.replications
    workers = pool_size(config)
    blocks = _blocks(reps, workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(partial(_replicate, config), blocks))
    else:
        done = [_replicate(config, block) for block in blocks]

    k = len(config.theta_true)
    errs = np.concatenate([errors for errors, _ in done])
    failed = np.isnan(errs[:, :, 0])
    failures = dict(zip(config.estimators, failed.sum(axis=0).tolist()))

    for est, count in failures.items():
        if count > _FAILURE_LIMIT * reps:
            first = [f"rep {rep}: {text}" for _, listed in done
                     for rep, name, text in listed if name == est][:5]
            raise McExperimentError(
                f"estimator {est!r} failed in {count}/{reps} replications "
                f"(> {_FAILURE_LIMIT:.0%}); first failures: {first}",
                failures=failures)

    bias, variance, n_variance, n_success = {}, {}, {}, {}
    for idx, est in enumerate(config.estimators):
        good = errs[~failed[:, idx], idx]
        count = n_success[est] = good.shape[0]
        # good.mean(axis=0) and good.var(axis=0, ddof=1) to the bit, in the
        # operations numpy's own reductions make.
        bias[est] = good.sum(axis=0) / count if count else np.full(k, np.nan)
        if count > 1:
            dev = good - bias[est]
            variance[est] = (dev * dev).sum(axis=0) / (count - 1)
        else:
            variance[est] = np.zeros(k)
        n_variance[est] = config.n * variance[est]

    eff_bound, ple_bound = (None if b is None else b.copy()
                            for b in _bounds_at(*config._key))
    return McReport(
        config=config.echo(), estimators=config.estimators, k=k,
        bias=bias, variance=variance, n_variance=n_variance,
        n_success=n_success, failures=failures,
        eff_bound=eff_bound, ple_bound=ple_bound,
        errors=errs,
    )


def run_grid(config):
    """Run a config, an McConfig or a raw dict, and return its list of
    McReports: one experiment per `theta_grid` point, point i on lane
    `config.lane + i`, or, without a grid, the config's one experiment on its
    own lane.  The whole config, grid included, is validated before the
    first point runs."""
    if isinstance(config, dict):
        config = McConfig.from_dict(config)
    if not config.theta_grid:
        return [run_experiment(config)]
    return [run_experiment(replace(config, theta_true=theta, lane=config.lane + i,
                                   theta_grid=()))
            for i, theta in enumerate(config.theta_grid)]


def summarize(reports):
    """Flatten reports into comparison rows keyed by (theta, n, estimator).

    All reports must share the model and estimator set.
    """
    rows = []
    if not reports:
        return rows
    first = reports[0]
    for rep in reports:
        if rep.config["model"] != first.config["model"]:
            raise ShapeError("summarize: reports mix different models")
        if tuple(rep.estimators) != tuple(first.estimators) or rep.k != first.k:
            raise ShapeError("summarize: reports mix estimator sets or shapes")
        for est in rep.estimators:
            rows.append({
                "theta": list(rep.config["theta_true"]),
                "n": rep.config["n"],
                "estimator": est,
                "bias": [float(v) for v in rep.bias[est]],
                "n_variance": [float(v) for v in rep.n_variance[est]],
                "eff_bound": None if rep.eff_bound is None
                else [float(v) for v in rep.eff_bound],
                "ple_bound": None if rep.ple_bound is None
                else [float(v) for v in rep.ple_bound],
                "failures": int(rep.failures[est]),
                "n_success": int(rep.n_success[est]),
            })
    return rows


def write_report_json(reports, path):
    """Write one report (dict) or a list of reports as deterministic JSON."""
    if isinstance(reports, McReport):
        obj = reports.to_dict()
    else:
        obj = [r.to_dict() for r in reports]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def write_errors_csv(reports, path):
    """Per-replication error matrix: lane, replication, estimator, err_1..err_k."""
    if isinstance(reports, McReport):
        reports = [reports]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if reports:
            k = reports[0].k
            writer.writerow(["lane", "replication", "estimator"]
                            + [f"err_{m + 1}" for m in range(k)])
        for rep_obj in reports:
            lane = rep_obj.config.get("lane", 0)
            for r in range(rep_obj.errors.shape[0]):
                for idx, est in enumerate(rep_obj.estimators):
                    vals = rep_obj.errors[r, idx, :]
                    out = ["" if np.isnan(v) else repr(float(v)) for v in vals]
                    writer.writerow([lane, r, est] + out)


def write_summary_csv(rows, path):
    """Comparison table as CSV, one row per (theta, n, estimator)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if not rows:
            return
        k = len(rows[0]["theta"])
        header = (["n", "estimator"]
                  + [f"theta_{m + 1}" for m in range(k)]
                  + [f"bias_{m + 1}" for m in range(k)]
                  + [f"n_var_{m + 1}" for m in range(k)]
                  + [f"eff_bound_{m + 1}" for m in range(k)]
                  + [f"ple_bound_{m + 1}" for m in range(k)]
                  + ["failures", "n_success"])
        writer.writerow(header)
        for row in rows:
            bounds = row["eff_bound"] if row["eff_bound"] is not None else [""] * k
            plev = row["ple_bound"] if row["ple_bound"] is not None else [""] * k
            writer.writerow([row["n"], row["estimator"]]
                            + [repr(float(v)) for v in row["theta"]]
                            + [repr(float(v)) for v in row["bias"]]
                            + [repr(float(v)) for v in row["n_variance"]]
                            + [v if v == "" else repr(float(v)) for v in bounds]
                            + [v if v == "" else repr(float(v)) for v in plev]
                            + [row["failures"], row["n_success"]])
