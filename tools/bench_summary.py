"""Medians of the checked-in A/B records, by record.

    python3 tools/bench_summary.py

Reads every `BENCH_<n>.json` at the repository root, the A/B record of
change n. Each file is a list of `perfbench/run.py` invocations, one
record per invocation, with its `side` (`parent` or `change`), workload,
seed, whether it was traced, an optional `ab` tag and its final JSON
line as `result`. For each file and workload this prints the parent and
change medians of `wall_s`, the metric the claims are made on, over the
plain (untraced) invocations tagged `final`; files written before the
tags existed count as `final`. Held-out seed runs and the `commits`, `water-fill`,
`held-out` and `trace` tags are left out, so each median is over the
claim's own seeds only. Runs no benchmark.
"""

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 9973        # reserved by `perfbench/run.py` for claims
SIDES = ("parent", "change")
METRIC = "wall_s"


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


def medians(records):
    """{workload: {side: (median, n)}} of `METRIC` over the final plain
    records."""
    values = {}
    for r in filter(is_final_plain, records):
        value = r["result"]["metrics"][METRIC]["value"]
        values.setdefault(r["workload"], {}).setdefault(r["side"], []).append(
            value)
    return {w: {side: (statistics.median(v), len(v))
                for side, v in sorted(by_side.items())}
            for w, by_side in sorted(values.items())}


def summary(root):
    """{n: medians(...)} of every BENCH file under `root`."""
    return {n: medians(json.loads(path.read_text()))
            for n, path in bench_files(root).items()}


def main():
    print(f"{'n':>3}  {'workload':<13}{'pairs':>6}  {'parent':>9}  "
          f"{'change':>9}  {'delta':>7}")
    for n, by_workload in summary(ROOT).items():
        for workload, by_side in by_workload.items():
            (parent, pairs), (change, _) = by_side["parent"], by_side["change"]
            print(f"{n:>3}  {workload:<13}{pairs:>6}  {parent:>9.3f}  "
                  f"{change:>9.3f}  {change / parent - 1.0:>+7.1%}")


if __name__ == "__main__":
    main()
