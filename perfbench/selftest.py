"""Self-test of the benchmark's correctness gate: it passes on the recorded
reference and trips when the reference or an output is perturbed.

    python3 perfbench/selftest.py        # from the repository root

Exit code 0 when every check behaves as expected.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def perturbed(reference, path, delta):
    """A copy of the reference with the number at `path` moved by `delta`."""
    ref = copy.deepcopy(reference)
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return ref


def main():
    reference = gate.load_reference()
    checks = []

    outputs = gate.mc_gate_outputs("mc-smallp")
    checks.append(("mc gate passes on the reference",
                   not gate.check_mc("mc-smallp", outputs, reference)))
    for what, path, delta in [
            ("an error vector entry moved by 1e-4",
             ["mc", "mc-smallp", "circ", "errors", 3, 1, 0], 1e-4),
            ("n_success off by one",
             ["mc", "mc-smallp", "exch3", "n_success", "one_step"], -1),
            ("the efficiency bound moved by 1e-5",
             ["mc", "mc-smallp", "exch3", "eff_bound", 0], 1e-5)]:
        bad = perturbed(reference, path, delta)
        checks.append((f"mc gate trips on {what}",
                       bool(gate.check_mc("mc-smallp", outputs, bad))))

    work_dir = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        for seed in (wl.ACCEPTANCE_SEED, 7):
            calls = wl.cli_invocations(seed, work_dir)
            results = [gate.run_inprocess(argv) for _, argv in calls]
            problems, chain = gate.check_cli(results, seed, work_dir, reference)
            checks.append((f"cli gate passes at seed {seed}",
                           not any(problems) and not chain))

        calls = wl.cli_invocations(wl.ACCEPTANCE_SEED, work_dir)
        results = [gate.run_inprocess(argv) for _, argv in calls]
        bad = perturbed(reference, ["cli", 0, "efficient_info", 0, 0], 0.1)
        problems, _ = gate.check_cli(results, wl.ACCEPTANCE_SEED, work_dir, bad)
        checks.append(("cli gate trips on a perturbed bound output",
                       bool(problems[0]) and not any(problems[1:])))
        bad = perturbed(reference, ["cli", 5, "theta_hat", 0], 1e-4)
        problems, _ = gate.check_cli(results, wl.ACCEPTANCE_SEED, work_dir, bad)
        checks.append(("cli gate trips on a perturbed estimate",
                       bool(problems[5])))
        broken = list(results)
        broken[2] = (0, '{"are": "not a list"}')
        broken[3] = (3, "")
        problems, _ = gate.check_cli(broken, wl.ACCEPTANCE_SEED, work_dir,
                                     reference)
        checks.append(("cli gate trips on a schema-invalid output and a "
                       "non-zero exit", bool(problems[2]) and bool(problems[3])))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
