"""Interleaved A/B of two revisions on the checked-in benchmark.

    python3 tools/ab.py --base HEAD~1 --change HEAD \\
        --workloads single-dense campaign split-heavy \\
        --pairs 10 --seed 1 --out BENCH_<n>.json [--trace 1]

Exports each revision with `git archive` into a temporary directory and
runs each side's own `perfbench/run.py --seconds 35` on each workload,
`--pairs` times, alternating which side runs first: the parent in even
pairs, the change in odd ones. Each invocation becomes one record of the
checked-in `BENCH_<n>.json` files (see `tools/bench_summary.py`): its
side, the short commit, workload, pair, run order, seed and trace flag,
its `counters` and `digest` lines and its final JSON line as `result`,
tagged `final`, or `trace` for traced runs and `held-out` at the
benchmark's held-out seed. The records are appended to `--out`, so one
file collects several calls.

Then, for each workload and end-to-end metric of `BENCHMARK.json`, it
prints both sides' medians, the parent's interquartile range over its
median (marked unresolved where it exceeds the metric's bound), the pairs
the change won, and whether every invocation was correct and both sides
gave the same digest and work counters; counters that differ are listed.
An invocation with no final JSON line, as from a tree that fails to
import, is recorded as incorrect with no metrics. The report names every
incorrect invocation and takes the rest over the correct ones.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SECONDS = 35
HELD_OUT_SEED = 9973        # reserved by `perfbench/run.py` for claims


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The tree of `rev` under `dest`; returns its short commit."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def perfbench(tree, workload, seed, trace):
    """The standard output of one `perfbench/run.py` invocation in `tree`;
    an incorrect run exits 1 and still prints its record."""
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=tree, capture_output=True,
                          text=True).stdout


def parse(output):
    """The `counters` and `digest` lines and the final JSON line; without
    a final JSON line, an incorrect result with no metrics."""
    lines = output.strip().splitlines()
    parsed = {"counters": None, "digest": None}
    for line in lines:
        if line.startswith("counters "):
            parsed["counters"] = {k: int(v) for k, v in (
                item.split("=") for item in line.split()[1:])}
        elif line.startswith("digest "):
            parsed["digest"] = line.split()[1]
    last = lines[-1] if lines else ""
    parsed["result"] = (json.loads(last) if last.startswith("{")
                        else {"correct": False, "metrics": {}})
    return parsed


def tag(seed, trace):
    if trace:
        return "trace"
    return "held-out" if seed == HELD_OUT_SEED else "final"


def run_pairs(sides, workloads, pairs, seed, trace, run=perfbench):
    """Yields one record per invocation, as it completes. `sides` maps
    each side to its (tree, commit); `run(tree, workload, seed, trace)`
    returns an invocation's output."""
    for workload in workloads:
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for run_order, side in enumerate(order):
                tree, commit = sides[side]
                yield dict(ab=tag(seed, trace), commit=commit, side=side,
                           workload=workload, pair=pair, run_order=run_order,
                           seed=seed, trace=trace,
                           **parse(run(tree, workload, seed, trace)))


def report(records):
    """The summary lines of `records`, by workload and metric."""
    end_to_end = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        rs = [r for r in records if r["workload"] == workload]
        by_side = {s: [r for r in rs if r["side"] == s] for s in SIDES}
        bad = [f"{r['side']} pair {r['pair']}" for r in rs
               if not r["result"]["correct"]]
        lines.append(f"{workload}: {len(by_side['parent'])} parent and "
                     f"{len(by_side['change'])} change runs, all correct: "
                     f"{not bad}")
        if bad:
            lines.append("  incorrect: " + ", ".join(bad))
        n_pairs = len({r["pair"] for r in rs})
        # An incorrect run may lack counters, digest and metrics.
        rs = [r for r in rs if r["result"]["correct"]]
        by_side = {s: [r for r in rs if r["side"] == s] for s in SIDES}
        if not all(by_side.values()):
            continue
        lines.append(f"  digests match: {len({r['digest'] for r in rs}) == 1}")
        counters = {json.dumps(r["counters"], sort_keys=True) for r in rs}
        first = [by_side[s][0]["counters"] for s in SIDES]
        lines.append(f"  counters match: {len(counters) == 1}" + "".join(
            f", {k} {first[0][k]} -> {first[-1][k]}"
            for k in first[0] if first[0][k] != first[-1][k]))
        pairs = {}
        for r in rs:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        for metric in end_to_end:
            name = metric["name"]
            if not all(name in r["result"]["metrics"] for r in rs):
                continue
            value = {s: [r["result"]["metrics"][name]["value"]
                         for r in by_side[s]] for s in SIDES}
            parent, change = (statistics.median(value[s]) for s in SIDES)
            q1, _, q3 = (statistics.quantiles(value["parent"], n=4,
                                              method="inclusive")
                         if len(value["parent"]) > 1 else (parent,) * 3)
            spread = (q3 - q1) / parent
            sign = 1 if metric["better"] == "lower" else -1
            won = sum(1 for p in pairs.values() if len(p) == 2 and sign * (
                p["change"]["result"]["metrics"][name]["value"]
                - p["parent"]["result"]["metrics"][name]["value"]) < 0)
            lines.append(
                f"  {name:<12} parent {parent:.4f} change {change:.4f} "
                f"({change / parent - 1.0:+.1%}), parent IQR/median "
                f"{spread:.1%}"
                + (" (unresolved)" if spread > metric["bound"] else "")
                + f", change won {won} of {n_pairs} pairs")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="changed revision")
    p.add_argument("--workloads", required=True, nargs="+")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, type=Path,
                   help="BENCH_<n>.json to append the records to")
    args = p.parse_args(argv)
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in zip(SIDES, (args.base, args.change)):
            tree = Path(tmp) / side
            sides[side] = (tree, export(rev, tree))
        new = []
        for record in run_pairs(sides, args.workloads, args.pairs,
                                args.seed, args.trace):
            new.append(record)
            print(f"{record['workload']} pair {record['pair']} "
                  f"{record['side']}: correct {record['result']['correct']}",
                  file=sys.stderr)
            # Written after every invocation, so a stopped call keeps its
            # records.
            args.out.write_text(json.dumps(records + new, indent=1) + "\n")
    print("\n".join(report(new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
