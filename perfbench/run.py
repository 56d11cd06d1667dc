"""ntnmc benchmark entry point.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

The package is imported from the checkout's `src/`, so this runs from any
working directory. Exits with status 2, printing no result, when those
sources are missing. See perfbench/README.md for workloads and metrics.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists is part of its definition. Every workload's
# inputs are fixed by --seed, used as the campaign seed (`base_seed`);
# each policy runs once, with run seed 1 under it. Without `jobs`, one
# Scenario is driven directly, without the campaign driver. Runs are
# shorter than the default 5 s so that repeats fit in a run; the anchor
# queue cap is scaled by the same factor, so queues fill (and `bo` adds,
# and packets drop) at the same point of the run as in a default run.
WORKLOADS = {
    # The user's real path: every policy through run_campaign and
    # emit_results. Timed repeats run inline; the untimed count repeat runs
    # through the process pool with `pool_jobs` workers, and every inline
    # repeat must reproduce its results bit for bit.
    "campaign": dict(policies=("mcs", "rsrp", "bo", "off"), jobs=1,
                     pool_jobs=2,
                     overrides=dict(sim_duration_s=2.0, warmup_s=1.0,
                                    ue_queue_bytes=560_000)),
    # Every eligible UE bound: secondary scheduler, split-bearer forwarding
    # and PDCP reordering do the most work. Far short of the pass time at
    # which the satellite drops below the horizon.
    "split-heavy": dict(policies=("rsrp",),
                        overrides=dict(sim_duration_s=4.0, warmup_s=2.0,
                                       ue_queue_bytes=1_120_000)),
    # Single connectivity with 3x the UEs: engine heap, CBR ingest and the
    # anchor scheduler dominate; mc_control and useful forwarding never run.
    "single-dense": dict(policies=("off",),
                         overrides=dict(n_ue_per_sector=30, sim_duration_s=2.0,
                                        warmup_s=1.0, ue_queue_bytes=560_000)),
}

# Seed value reserved for verifying a claimed gain after the change is
# written; do not use it while developing or tuning a change.
HELD_OUT_SEED = 9973


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Host-time benchmark of the ntnmc simulator.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int,
                   help="campaign seed the workload's inputs derive from; "
                        f"{HELD_OUT_SEED} is held out for verifying claims")
    p.add_argument("--seconds", required=True, type=float,
                   help="measuring time; repeats stop before exceeding it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-module metrics")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ntnmc" / "__init__.py").is_file():
        print(f"error: ntnmc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.run(args, WORKLOADS[args.workload], ROOT)


if __name__ == "__main__":
    sys.exit(main())
