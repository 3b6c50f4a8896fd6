"""Correctness gate of the benchmark.

`reference.json` holds outputs recorded by record_reference.py at the
commit that defined the benchmark, all at the acceptance seed:

- per MC workload and config, the error vector of every replication of one
  gate batch (lane 0), `n_success`, `failures` and the bounds at the truth;
- the JSON output of every invocation of the cli workload.

Numbers must agree within ABS_TOL + REL_TOL * |reference|; every other
value (keys, lengths, strings, booleans, nulls) must agree exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import workloads as wl

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
ABS_TOL = 1e-6
REL_TOL = 1e-6
SEED_DEPENDENT = ("estimate", "mc_report")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def src_digest(root):
    """sha256 over the package sources, standing in for a commit id where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def compare(obs, ref, path="$"):
    """List of mismatches between an output and its reference."""
    num = (int, float)
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if obs == ref and type(obs) is type(ref) else [
            f"{path}: {obs!r} != {ref!r}"]
    if isinstance(ref, num):
        if isinstance(obs, bool) or not isinstance(obs, num):
            return [f"{path}: {obs!r} is not a number"]
        if abs(obs - ref) <= ABS_TOL + REL_TOL * abs(ref):
            return []
        return [f"{path}: {obs!r} differs from {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            return [f"{path}: keys {sorted(obs) if isinstance(obs, dict) else obs!r}"
                    f" != {sorted(ref)}"]
        return [m for key in sorted(ref)
                for m in compare(obs[key], ref[key], f"{path}.{key}")]
    if not isinstance(obs, list) or len(obs) != len(ref):
        return [f"{path}: length or type differs from the reference"]
    return [m for i, (o, r) in enumerate(zip(obs, ref))
            for m in compare(o, r, f"{path}[{i}]")]


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def mc_gate_outputs(workload):
    """Run the workload's gate batch at the acceptance seed."""
    import numpy as np
    from copula_rank import run_experiment

    spec = wl.MC_WORKLOADS[workload]
    out = {}
    for name, config in spec["configs"].items():
        report = run_experiment(dict(config, replications=spec["gate"],
                                     seed=wl.ACCEPTANCE_SEED, lane=0, workers=1))
        errors = np.where(np.isnan(report.errors), None, report.errors)
        summary = report.to_dict()
        out[name] = {"errors": errors.tolist(),
                     "n_success": summary["n_success"],
                     "failures": summary["failures"],
                     "eff_bound": summary["eff_bound"],
                     "ple_bound": summary["ple_bound"]}
    return out


def workers_deterministic(seed):
    """McReport.to_json() of short mc-smallp configs must be byte-identical
    at workers=1 and workers=nproc."""
    from copula_rank import run_experiment

    nproc = os.cpu_count() or 1
    for config in wl.MC_WORKLOADS["mc-smallp"]["configs"].values():
        texts = [run_experiment(dict(config, replications=wl.DETERMINISM_REPS,
                                     seed=seed, workers=w)).to_json()
                 for w in (1, nproc)]
        if texts[0] != texts[1]:
            return False
    return True


def check_mc(workload, gate_outputs, reference):
    return compare(gate_outputs, reference["mc"][workload], f"mc.{workload}")


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

def run_inprocess(argv):
    """cli.main(argv) in this process; returns (exit code, stdout)."""
    from copula_rank import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse(code, stdout, schema):
    """The validated JSON output of one invocation, or a failure message."""
    from jsonschema import ValidationError

    from copula_rank import validate_output

    if code != 0:
        return None, f"exit code {code}"
    try:
        obj = json.loads(stdout)
        validate_output(schema, obj)
    except (json.JSONDecodeError, ValidationError) as exc:
        return None, f"invalid output: {str(exc).splitlines()[0]}"
    return obj, None


def cli_reference_outputs(seed, work_dir):
    """Outputs of the seed's cli invocations, run in-process."""
    outputs = []
    for schema, argv in wl.cli_invocations(seed, work_dir):
        obj, problem = _parse(*run_inprocess(argv), schema)
        if problem:
            raise RuntimeError(f"{' '.join(argv[:3])}: {problem}")
        outputs.append(obj)
    return outputs


def check_cli(results, seed, work_dir, reference):
    """Per-invocation problems (empty list: correct) for the (exit code,
    stdout) pairs of one cli run, which repeats the seed's invocation list,
    plus problems of the in-process chain.

    Seed-independent invocations are compared with the reference directly.
    At another seed than the acceptance seed, the seed-dependent ones
    (estimate, simulate) are compared with in-process runs on the same
    files, and those in-process runs are tied to the reference by running
    the acceptance seed's inputs in-process as well."""
    calls = wl.cli_invocations(seed, work_dir)
    ref = reference["cli"]
    expected = list(ref)
    chain = []
    if seed != wl.ACCEPTANCE_SEED:
        acc_dir = os.path.join(work_dir, "acceptance")
        for i, (schema, argv) in enumerate(wl.cli_invocations(wl.ACCEPTANCE_SEED,
                                                              acc_dir)):
            if schema in SEED_DEPENDENT:
                obj, problem = _parse(*run_inprocess(argv), schema)
                chain += [problem] if problem else compare(obj, ref[i],
                                                           f"cli[{i}]@acceptance")
        for i, (schema, argv) in enumerate(calls):
            if schema in SEED_DEPENDENT:
                expected[i], problem = _parse(*run_inprocess(argv), schema)
                if problem:
                    chain.append(f"cli[{i}] in-process: {problem}")
    problems = []
    for i, (code, stdout) in enumerate(results):
        schema, argv = calls[i % len(calls)]
        obj, problem = _parse(code, stdout, schema)
        problems.append([problem] if problem else compare(
            obj, expected[i % len(calls)], f"cli[{i}] {argv[0]}"))
    return problems, chain

