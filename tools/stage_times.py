"""Per-stage cost of a Monte Carlo replication, in microseconds.

    python tools/stage_times.py                      # every config, B = 1 and 64
    python tools/stage_times.py --configs toeplitz4 --sizes 1 --rounds 5

For each criterion config (acceptance criteria 6, 7 and 8) and block size B,
the script runs `--blocks` blocks of B consecutive replications and times the
calls `mc._replicate` makes on each block, one by one: the draw
(`sampler._sample_block`), the ranks (`estimators._rank_block`), the group
sums (`estimators._BlockStats`), the PLE solve (`estimators._ple_solve`) and
the one-step update (`estimators._one_step_update`, from the PLE's whole
output).  "total" is one `mc._replicate` call on the same block.  Each
figure is the best of `--rounds` rounds, divided by the replications timed,
and the script runs at one BLAS thread.  It prints one markdown table.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from copula_rank import McConfig, estimators, mc, sampler  # noqa: E402

THETA_STAR = [0.4945460, -0.4592764, -0.8462492]
CONFIGS = {
    "exchangeable3": {"model": {"family": "exchangeable", "p": 3}, "theta_true": [0.5],
                      "n": 250, "estimators": ["one_step"]},
    "circular": {"model": {"family": "circular"}, "theta_true": [0.5], "n": 250,
                 "estimators": ["one_step", "ple"]},
    "exchangeable100": {"model": {"family": "exchangeable", "p": 100}, "theta_true": [0.25],
                        "n": 50, "estimators": ["one_step", "ple"]},
    "toeplitz4": {"model": {"family": "toeplitz", "p": 4}, "theta_true": THETA_STAR,
                  "n": 250, "estimators": ["one_step", "ple"]},
}
STAGES = ("draw", "rank", "sums", "PLE", "one-step", "total")
SEED = 20260814


def stage_times(config, reps):
    """The seconds each stage takes on the block of replications `reps`."""
    model, chol = mc._truth(*config._key)
    clock = [time.perf_counter()]
    z = sampler._sample_block(chol, config.n, config.seed, reps, config.lane)
    clock.append(time.perf_counter())
    samples = estimators._rank_block(z)
    clock.append(time.perf_counter())
    stats = estimators._BlockStats(model, samples)
    clock.append(time.perf_counter())
    theta, _, _ = estimators._ple_solve(model, samples, stats)
    clock.append(time.perf_counter())
    estimators._one_step_update(model, samples, theta, stats.sums)
    clock.append(time.perf_counter())
    mc._replicate(config, reps)
    clock.append(time.perf_counter())
    return [b - a for a, b in zip(clock, clock[1:])]


def table_row(name, size, blocks, rounds):
    """The stages' microseconds per replication for one config and block size."""
    config = McConfig.from_dict({**CONFIGS[name], "replications": size * blocks,
                                 "seed": SEED, "workers": 1})
    stage_times(config, range(size))  # warm the process caches
    best = [float("inf")] * len(STAGES)
    for _ in range(rounds):
        spent = [0.0] * len(STAGES)
        for block in range(blocks):
            for stage, seconds in enumerate(stage_times(config, range(block * size,
                                                                      (block + 1) * size))):
                spent[stage] += seconds
        best = [min(b, s) for b, s in zip(best, spent)]
    return [1e6 * seconds / (size * blocks) for seconds in best]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", nargs="+", choices=list(CONFIGS), default=list(CONFIGS))
    parser.add_argument("--sizes", nargs="+", type=int, default=[1, 64],
                        help="block sizes B (default: 1 64)")
    parser.add_argument("--blocks", type=int, default=20, help="blocks per round (default: 20)")
    parser.add_argument("--rounds", type=int, default=3, help="rounds; the best is kept "
                        "(default: 3)")
    args = parser.parse_args(argv)
    if min(args.sizes) < 1 or args.blocks < 1 or args.rounds < 1:
        parser.error("--sizes, --blocks and --rounds must be >= 1")
    print("| config | B | " + " | ".join(STAGES) + " |")
    print("|---|---|" + "---|" * len(STAGES))
    for name in args.configs:
        for size in args.sizes:
            row = table_row(name, size, args.blocks, args.rounds)
            print(f"| {name} | {size} | " + " | ".join(f"{v:.0f}" for v in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
