"""Workload definitions shared by run.py, its child process, the reference
recorder and the self-test.

Every input is derived from the run seed; the package under test only
receives the generated configs, argument lists and CSV files.
"""

from __future__ import annotations

import json
import os

import numpy as np

ACCEPTANCE_SEED = 20260814
THETA_STAR = [0.4945460, -0.4592764, -0.8462492]

# Monte Carlo configs of acceptance criteria 6, 7 and 8 (minus the
# replication count, seed and lane, which the benchmark sets per batch).
EXCH3 = {"model": {"family": "exchangeable", "p": 3}, "theta_true": [0.5],
         "n": 250, "estimators": ["one_step"]}
CIRC = {"model": {"family": "circular"}, "theta_true": [0.5],
        "n": 250, "estimators": ["one_step", "ple"]}
TOEP4 = {"model": {"family": "toeplitz", "p": 4}, "theta_true": THETA_STAR,
         "n": 250, "estimators": ["one_step", "ple"]}
EXCH100 = {"model": {"family": "exchangeable", "p": 100}, "theta_true": [0.25],
           "n": 50, "estimators": ["one_step", "ple"]}

# Per MC workload: the configs run back to back in one batch, the
# replications per config in a batch (`batch`), the batches of the traced
# run (`trace_batches`) and the replications per config of the correctness
# gate at the acceptance seed (`gate`).  Batches of 0.07-0.11 s give a run
# 55-90 samples for the latency percentiles; on mc-toeplitz4 one
# replication per batch halved the run-to-run spread of rep_ms.p75.
MC_WORKLOADS = {
    "mc-smallp": {"configs": {"exch3": EXCH3, "circ": CIRC},
                  "batch": 10, "trace_batches": 20, "gate": 40},
    "mc-toeplitz4": {"configs": {"toep4": TOEP4},
                     "batch": 1, "trace_batches": 40, "gate": 10},
    "mc-highdim": {"configs": {"exch100": EXCH100},
                   "batch": 2, "trace_batches": 20, "gate": 10},
}
WORKLOADS = tuple(MC_WORKLOADS) + ("cli",)

# Short mc-smallp configs for the untimed worker-determinism check.
DETERMINISM_REPS = 24

# The cli workload runs CLI_CYCLES cycles of the invocations below, so a run
# has at least 40 invocations and at least 10 of them lie beyond p75.
CLI_CYCLES = 5
CLI_SIM_REPS = 20
_THETA_STAR_ARG = " ".join(repr(v) for v in THETA_STAR)
CLI_FIXED = [
    ("bound", ["bound", "--family", "toeplitz", "--p", "4",
               "--theta", _THETA_STAR_ARG, "--format", "json"]),
    ("check", ["check", "--family", "toeplitz", "--p", "4",
               "--theta", _THETA_STAR_ARG, "--format", "json"]),
    ("are", ["are", "--family", "circular", "--theta", "0.5", "--format", "json"]),
    ("check", ["check", "--family", "exchangeable", "--p", "100",
               "--theta", "0.25", "--format", "json"]),
    ("bound", ["bound", "--family", "circular", "--theta", "0.5",
               "--format", "json"]),
]


def _exchangeable_r(p, rho):
    return (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))


def _toeplitz_r(lags):
    p = len(lags) + 1
    r = np.eye(p)
    for lag, value in enumerate(lags, start=1):
        for i in range(p - lag):
            r[i, i + lag] = r[i + lag, i] = value
    return r


# Data sets for `estimate`: (name, true R, n, model flags, method).  Margins
# are strictly increasing transforms, which the rank-based estimators ignore.
CLI_DATA = [
    ("toep4", _toeplitz_r(THETA_STAR), 250,
     ["--family", "toeplitz", "--p", "4"], "ple"),
    ("exch100", _exchangeable_r(100, 0.25), 50,
     ["--family", "exchangeable", "--p", "100"], "one_step"),
]


def _write_data(path, r, n, rng):
    z = rng.standard_normal((n, r.shape[0])) @ np.linalg.cholesky(r).T
    x = z.copy()
    x[:, 0::3] = np.exp(z[:, 0::3])
    x[:, 1::3] = z[:, 1::3] ** 3
    header = ",".join(f"x{j + 1}" for j in range(r.shape[0]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


def cli_invocations(seed, work_dir):
    """Write the seed's input files under work_dir and return the argument
    lists of one cli run as (schema name, argv) pairs."""
    os.makedirs(work_dir, exist_ok=True)
    calls = []
    for cycle in range(CLI_CYCLES):
        calls.extend((name, list(argv)) for name, argv in CLI_FIXED)
        for idx, (name, r, n, flags, method) in enumerate(CLI_DATA):
            rng = np.random.default_rng([seed, cycle, idx])
            path = os.path.join(work_dir, f"{name}-{cycle}.csv")
            _write_data(path, r, n, rng)
            calls.append(("estimate", ["estimate", *flags, "--data", path,
                                       "--method", method, "--format", "json"]))
        config = dict(EXCH3, replications=CLI_SIM_REPS,
                      seed=(seed + cycle) % 2**32)
        config_path = os.path.join(work_dir, f"sim-{cycle}.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        calls.append(("mc_report", ["simulate", "--config", config_path,
                                    "--workers", "1", "--out-dir",
                                    os.path.join(work_dir, f"sim-{cycle}"),
                                    "--format", "json"]))
    return calls
