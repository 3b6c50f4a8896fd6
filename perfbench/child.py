"""Measuring child process of the benchmark (started by run.py).

Protocol: the child imports the package, warms up (one replication of each
config on the MC workloads), prints `ready` and reads one line from stdin.
On `exit` it stops there, so run.py can time set-up alone; on `go` it runs
the measurement the spec asks for and prints one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

import gate
import workloads as wl
from calib import Timeline
from tracing import Tracer


def _import_package(root):
    import copula_rank
    import copula_rank.cli  # noqa: F401  (the cli workload and the tracer need it)

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(copula_rank.__file__), src]) != src:
        raise SystemExit(f"copula_rank imported from {copula_rank.__file__}, "
                         f"not from {src}")
    return copula_rank


def _blas_facts():
    """Loaded OpenBLAS libraries with their thread counts, read through
    the libraries' own getters."""
    import ctypes

    libs = {}
    with open("/proc/self/maps", encoding="utf-8") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and ".so" in path:
                libs[path] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                libs[path] = getter()
                break
    return {os.path.basename(path): threads for path, threads in libs.items()}


def machine_facts():
    import scipy

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": f"{blas.get('name')} {blas.get('version')}",
                 "scipy": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
                 "threads": _blas_facts()},
    }


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _run_batch(pkg, spec, seed, lane, reps):
    """Run every config of the workload once with `reps` replications on
    RNG lane `lane`; returns (estimator calls, failed calls)."""
    calls = failed = 0
    for config in spec["configs"].values():
        n_est = len(config["estimators"])
        calls += reps * n_est
        try:
            report = pkg.run_experiment(dict(config, replications=reps,
                                             seed=seed, lane=lane, workers=1))
        except pkg.McExperimentError:
            failed += reps * n_est
            continue
        failed += int(np.sum(~np.all(np.isfinite(report.errors), axis=2)))
    return calls, failed


def _units(spec, batches):
    return batches * spec["batch"] * len(spec["configs"])


def mc_timed(pkg, spec, seed, seconds):
    timeline = Timeline()
    timeline.mark()
    raw = []
    calls = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        c, f = _run_batch(pkg, spec, seed, len(raw), spec["batch"])
        raw.append(time.perf_counter() - t0)
        timeline.mark()
        calls, failed = calls + c, failed + f
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_unit = spec["batch"] * len(spec["configs"])
    return {"units": _units(spec, len(raw)), "calls": calls, "failed": failed,
            "batch_s": [timeline.scaled(i, t) for i, t in enumerate(raw)],
            "raw_batch_s": raw, "per_unit": per_unit,
            "kernel_ms": timeline.kernels, "peak_rss_kb": peak}


def mc_traced(pkg, spec, seed):
    batches = spec["trace_batches"]

    def one_pass(tracer=None):
        calls = failed = 0
        t0 = time.perf_counter()
        for lane in range(batches):
            if tracer is not None:
                tracer.unit = lane
            c, f = _run_batch(pkg, spec, seed, lane, spec["batch"])
            calls, failed = calls + c, failed + f
        return time.perf_counter() - t0, calls, failed

    return _traced_passes(one_pass, _units(spec, batches))


# ---------------------------------------------------------------------------
# cli workload, traced: cli.main(argv) in-process
# ---------------------------------------------------------------------------

def cli_traced(seed, work_dir):
    calls = wl.cli_invocations(seed, work_dir)
    for _, argv in calls[:len(calls) // wl.CLI_CYCLES]:  # warm-up: one cycle
        gate.run_inprocess(argv)
    outputs = []

    def one_pass(tracer=None):
        outputs.clear()
        t0 = time.perf_counter()
        for idx, (_, argv) in enumerate(calls):
            if tracer is not None:
                tracer.unit = idx
            outputs.append(gate.run_inprocess(argv))
        return time.perf_counter() - t0, len(calls), 0

    result = _traced_passes(one_pass, len(calls))
    result["outputs"] = list(outputs)
    return result


def _traced_passes(one_pass, units):
    """Four passes of the same work, alternating untraced and traced so that
    a drift in machine speed does not read as tracing overhead.  The first
    traced pass gives the per-layer numbers; the second must repeat its
    work counters exactly."""
    untraced_s, calls, failed = one_pass()
    tracer = Tracer().install()
    try:
        traced_s, _, _ = one_pass(tracer)
    finally:
        tracer.uninstall()
    untraced_s += one_pass()[0]
    repeat = Tracer().install()
    try:
        repeat_s, _, _ = one_pass(repeat)
    finally:
        repeat.uninstall()
    return {"units": units, "traced_s": traced_s,
            "overhead": 1.0 - untraced_s / (traced_s + repeat_s),
            "counters": tracer.work_counters(),
            "repeat_counters": repeat.work_counters(),
            "self_s": dict(tracer.self_times()), "calls": calls,
            "failed": failed, "tracer": tracer}


# ---------------------------------------------------------------------------

def main():
    spec = json.loads(sys.argv[1])
    root = spec["root"]
    pkg = _import_package(root)
    workload = spec["workload"]
    mc_spec = wl.MC_WORKLOADS.get(workload)
    if mc_spec is not None:
        _run_batch(pkg, mc_spec, wl.ACCEPTANCE_SEED, 0, 1)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    out = {"facts": machine_facts()}
    if spec["trace"]:
        if mc_spec is not None:
            res = mc_traced(pkg, mc_spec, spec["seed"])
        else:
            res = cli_traced(spec["seed"], spec["work_dir"])
        res.pop("tracer").write(spec["trace_out"])
        out.update(res)
    elif mc_spec is not None:
        out.update(mc_timed(pkg, mc_spec, spec["seed"], spec["seconds"]))
    if mc_spec is not None:
        out["gate"] = gate.mc_gate_outputs(workload)
        if workload == "mc-smallp":
            out["deterministic"] = gate.workers_deterministic(spec["seed"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
