"""Medians of the checked-in A/B records, by record.

    python3 tools/bench_summary.py

Reads every `BENCH_<n>.json` at the repository root, the A/B record of
change n. Each file is a list of `perfbench/run.py` invocations, one
record per invocation, with its `side` (`parent` or `change`), workload,
seed, whether it was traced, an optional `ab` tag and its final JSON
line as `result`. For each file and workload this prints the parent and
change medians of every end-to-end metric that `BENCHMARK.json` lists,
over the plain (untraced) invocations tagged `final`; files written before
the tags existed count as `final`. Held-out seed runs and the `commits`,
`water-fill`, `held-out` and `trace` tags are left out, so each median is
over the claim's own seeds only. Runs no benchmark.
"""

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 9973        # reserved by `perfbench/run.py` for claims
SIDES = ("parent", "change")
METRICS = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def bench_files(root):
    """{n: path} of every BENCH_<n>.json under `root`."""
    out = {}
    for path in Path(root).glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            out[int(m.group(1))] = path
    return dict(sorted(out.items()))


def is_final_plain(record):
    return (record.get("ab", "final") == "final" and record["trace"] == 0
            and record["seed"] != HELD_OUT_SEED
            and record["side"] in SIDES)


def medians(records, metric):
    """{workload: {side: (median, n)}} of `metric` over the final plain
    records; an incorrect one has no metrics and is left out."""
    values = {}
    for r in filter(is_final_plain, records):
        if not r["result"]["correct"]:
            continue
        value = r["result"]["metrics"][metric]["value"]
        values.setdefault(r["workload"], {}).setdefault(r["side"], []).append(
            value)
    return {w: {side: (statistics.median(v), len(v))
                for side, v in sorted(by_side.items())}
            for w, by_side in sorted(values.items())}


def summary(root, metric):
    """{n: medians(..., metric)} of every BENCH file under `root`."""
    return {n: medians(json.loads(path.read_text()), metric)
            for n, path in bench_files(root).items()}


def main():
    """One line per file and workload: the pairs, then under each metric
    its parent median, its change median and the relative change."""
    by_metric = {metric: summary(ROOT, metric) for metric in METRICS}
    print((f"{'n':>3}  {'workload':<13}{'pairs':>6}"
           + "".join(f"  {metric:<25}" for metric in METRICS)).rstrip())
    for n, by_workload in by_metric[METRICS[0]].items():
        for workload, by_side in by_workload.items():
            cells = []
            for metric in METRICS:
                sides = by_metric[metric][n][workload]
                (parent, _), (change, _) = sides["parent"], sides["change"]
                cells.append(f"  {parent:>8.3f} {change:>8.3f} "
                             f"{change / parent - 1.0:>+7.1%}")
            print(f"{n:>3}  {workload:<13}{by_side['parent'][1]:>6}"
                  + "".join(cells))


if __name__ == "__main__":
    main()
