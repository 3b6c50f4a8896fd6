"""copula-rank benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mc-toeplitz4 --seed 20260814 \\
        --seconds 6 --trace 0

Run it from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  The line before it holds the machine
and run facts.  The exit code is 0 only when every correctness check
passed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads as wl
from calib import SPAWN_NOMINAL_MS, Timeline, spawn_ms
from tracing import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
# What the `copula-rank` console script runs (pyproject: copula_rank.cli:main).
CONSOLE_SCRIPT = "import sys; from copula_rank.cli import main; sys.exit(main())"
# One BLAS thread per process: the numbers are single-core throughput.  With
# the default (one thread per CPU) on a 2-CPU machine, p=100 replications ran
# 2x slower and their run-to-run spread was 17% instead of 7%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MODULES = ("sampler", "estimators", "models", "geometry", "numcore", "mc", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.out_dir = os.path.join(root, ".perfbench")
        self.work_dir = os.path.join(self.out_dir, f"work-{os.getpid()}")
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, **BLAS_ENV,
                        PYTHONPATH=src if not path else src + os.pathsep + path)
        self.problems = []
        self.raw = {}

    def spawn_timeline(self):
        return Timeline(lambda: spawn_ms(self.env), SPAWN_NOMINAL_MS)

    # -- child processes ---------------------------------------------------

    def start_child(self):
        """Start child.py; returns (process, seconds until it was ready)."""
        spec = {"root": self.root, "workload": self.args.workload,
                "seed": self.args.seed, "seconds": self.args.seconds,
                "trace": self.args.trace, "work_dir": self.work_dir,
                "trace_out": os.path.join(
                    self.out_dir, f"trace-{self.args.workload}-{self.args.seed}.json")}
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=self.root,
            env=self.env, text=True)
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            proc.communicate()
            raise RuntimeError("benchmark child failed during set-up")
        return proc, ready_s

    @staticmethod
    def finish_child(proc, command):
        try:
            out, _ = proc.communicate(command + "\n", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if command == "go" else None

    def setup_and_go(self):
        """Set up SETUP_RUNS fresh interpreters, timing each; the last one
        goes on to measure.  Returns (child result, median set-up seconds)."""
        timeline = self.spawn_timeline()
        timeline.mark()
        setups = []
        for i in range(SETUP_RUNS):
            proc, ready_s = self.start_child()
            timeline.mark()
            setups.append(timeline.scaled(i, ready_s))
            self.raw.setdefault("setup_s", []).append(ready_s)
            if i < SETUP_RUNS - 1:
                self.finish_child(proc, "exit")
        self.raw["setup_spawn_ms"] = timeline.kernels
        return self.finish_child(proc, "go"), statistics.median(setups)

    def timing_metrics(self, piece_s, raw_piece_s, per_unit, setup_s):
        """End-to-end timing metrics from the rescaled time of each piece of
        work (a batch of `per_unit` replications, or one invocation)."""
        unit_ms = [1000.0 * t / per_unit for t in piece_s]
        raw_ms = [1000.0 * t / per_unit for t in raw_piece_s]
        units = per_unit * len(piece_s)
        self.raw.update({"reps_per_s": units / sum(raw_piece_s),
                         "rep_ms.p50": statistics.median(raw_ms),
                         "rep_ms.p75": _p75(raw_ms), "samples": len(piece_s)})
        return {"reps_per_s": (units / sum(piece_s), "rep/s"),
                "rep_ms.p50": (statistics.median(unit_ms), "ms"),
                "rep_ms.p75": (_p75(unit_ms), "ms"),
                "setup_s": (setup_s, "s")}

    # -- workloads ---------------------------------------------------------

    def run_mc(self):
        res, setup_s = self.setup_and_go()
        attempted, failed = self.check_mc(res, res["calls"], res["failed"])
        self.raw["compute_ms.median"] = statistics.median(res["kernel_ms"])
        metrics = self.timing_metrics(res["batch_s"], res["raw_batch_s"],
                                      res["per_unit"], setup_s)
        metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024.0, "MB")
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
        return res["facts"], attempted, failed, metrics

    def check_mc(self, res, attempted, failed):
        spec = wl.MC_WORKLOADS[self.args.workload]
        gate_calls = spec["gate"] * sum(len(c["estimators"])
                                        for c in spec["configs"].values())
        mismatches = gate.check_mc(self.args.workload, res["gate"],
                                   gate.load_reference())
        self.problems += mismatches
        attempted += gate_calls
        failed += min(gate_calls, len(mismatches))
        if "deterministic" in res:
            attempted += 1
            if not res["deterministic"]:
                failed += 1
                self.problems.append("McReport.to_json() differs between "
                                     "workers=1 and workers=nproc")
        return attempted, failed

    def run_cli(self):
        calls = wl.cli_invocations(self.args.seed, self.work_dir)
        facts, setup_s = self.setup_and_go()
        timeline = self.spawn_timeline()
        timeline.mark()
        results, raw = [], []
        start = time.perf_counter()
        while len(results) < len(calls) or time.perf_counter() - start < self.args.seconds:
            argv = calls[len(results) % len(calls)][1]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            raw.append(time.perf_counter() - t0)
            timeline.mark()
            results.append((proc.returncode, proc.stdout))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        failed = self.check_cli(results)
        self.raw["spawn_ms.median"] = statistics.median(timeline.kernels)
        metrics = self.timing_metrics(
            [timeline.scaled(i, t) for i, t in enumerate(raw)], raw, 1, setup_s)
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        metrics["ok_frac"] = (1.0 - failed / len(results), "ratio")
        return facts["facts"], len(results), failed, metrics

    def check_cli(self, results):
        problems, chain = gate.check_cli(results, self.args.seed, self.work_dir,
                                         gate.load_reference())
        self.problems += [p for ps in problems for p in ps] + chain
        return sum(1 for ps in problems if ps)

    def run_traced(self):
        proc, _ = self.start_child()
        res = self.finish_child(proc, "go")
        if res["counters"] != res["repeat_counters"]:
            self.problems.append("work counters differ between two traced "
                                 "passes of the same work")
        attempted, failed = res["calls"], res["failed"]
        if self.args.workload == "cli":
            failed = self.check_cli(res["outputs"])
        else:
            attempted, failed = self.check_mc(res, attempted, failed)
        metrics = per_layer_metrics(res)
        for name, value in self.import_times().items():
            metrics[f"import.{name}.ms"] = (value, "ms")
        return res["facts"], attempted, failed, metrics

    def import_times(self):
        """Cumulative import time of each package module, in ms, from
        `python -X importtime` (a module imported earlier by another one
        is charged to the first importer)."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import copula_rank.cli"], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1000.0
        return {mod: cumulative[f"copula_rank.{mod}"] for mod in MODULES}

    def facts(self, child_facts):
        commit = None
        if os.path.isdir(os.path.join(self.root, ".git")):
            try:
                commit = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=self.root, text=True,
                    capture_output=True, check=True).stdout.strip()
            except (OSError, subprocess.CalledProcessError):
                pass
        return dict(child_facts, workload=self.args.workload, seed=self.args.seed,
                    seconds=self.args.seconds, trace=bool(self.args.trace),
                    git_commit=commit, src_sha256=gate.src_digest(self.root),
                    raw=self.raw)


def _p75(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def per_layer_metrics(res):
    """Per-layer metrics of one traced pass.  A unit is one replication
    (MC workloads) or one invocation (cli)."""
    units, wall = res["units"], res["traced_s"]
    counters, self_s = res["counters"], res["self_s"]
    metrics = {}
    for name in SPAN_NAMES:
        calls = counters[name]
        own = self_s.get(name, 0.0)
        metrics[f"{name}.calls"] = (calls / units, "count")
        metrics[f"{name}.self_us"] = (1e6 * own / calls if calls else 0.0, "us")
        metrics[f"{name}.share"] = (own / wall, "ratio")
    ple_calls = counters["estimators.ple_estimate"]
    metrics["estimators.ple_estimate.iterations"] = (
        counters["ple_iterations"] / ple_calls if ple_calls else 0.0, "count")
    metrics["estimators.ple_estimate.fallbacks"] = (
        counters["fallbacks"] / ple_calls if ple_calls else 0.0, "count")
    metrics["estimators.clamped"] = (counters["clamped"], "count")
    metrics["linalg.factorizations"] = (
        counters["linalg.factorizations"] / units, "count")
    metrics["trace.overhead"] = (res["overhead"], "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "copula_rank", "__init__.py")):
        print("error: run from the repository root; src/copula_rank is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # for the output checks
    bench = Bench(args, root)
    os.makedirs(bench.work_dir, exist_ok=True)
    try:
        if args.trace:
            child_facts, attempted, failed, metrics = bench.run_traced()
        elif args.workload == "cli":
            child_facts, attempted, failed, metrics = bench.run_cli()
        else:
            child_facts, attempted, failed, metrics = bench.run_mc()
        facts = bench.facts(child_facts)
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    for problem in bench.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    correct = not bench.problems
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
