"""`tools/bench_summary.py` on the checked-in A/B records; runs no
benchmark. The medians it gives must be those CHANGES.md and ROADMAP.md
quote: `BENCH_9.json`'s `campaign` `wall_s` and `cpu_s`, from the ten
plain `final` pairs at seeds 1-10 without the held-out seed and the
`commits` and `water-fill` tags, the change-side `wall_s` medians of
`BENCH_16.json` to `BENCH_20.json`, `BENCH_22.json`'s fresh-run
memory drop on `single-dense`, and the `single-dense` `wall_s` medians of
the later speed records."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

CHANGE_WALL_S = {
    "campaign": [2.401, 2.342, 2.386, 2.328, 2.344],
    "split-heavy": [1.577, 1.541, 1.387, 1.487, 1.393],
    "single-dense": [1.176, 1.170, 0.815, 0.821, 0.738],
}

# Parent and change `single-dense` `wall_s` medians, by record.
SINGLE_DENSE_WALL_S = {
    23: (0.497, 0.463),
    26: (0.460, 0.339),
    27: (0.339, 0.304),
    28: (0.304, 0.277),
}


def _medians(got, n, workload):
    sides = got[n][workload]
    return tuple(round(sides[side][0], 3) for side in ("parent", "change"))


def test_summary_reproduces_the_quoted_medians():
    got = bench_summary.summary(ROOT, "wall_s")
    parent, change = got[9]["campaign"]["parent"], got[9]["campaign"]["change"]
    assert (round(parent[0], 3), parent[1]) == (3.859, 10)
    assert (round(change[0], 3), change[1]) == (2.931, 10)
    for workload, medians in CHANGE_WALL_S.items():
        assert [round(got[n][workload]["change"][0], 3)
                for n in range(16, 21)] == medians, workload
    cpu_s = bench_summary.summary(ROOT, "cpu_s")
    assert _medians(cpu_s, 9, "campaign") == (3.850, 2.914)
    peak_rss_mb = bench_summary.summary(ROOT, "peak_rss_mb")
    assert _medians(peak_rss_mb, 22, "single-dense") == (31.887, 25.055)
    for n, medians in SINGLE_DENSE_WALL_S.items():
        assert _medians(got, n, "single-dense") == medians, n


def test_summary_prints_every_file(capsys):
    bench_summary.main()
    lines = capsys.readouterr().out.splitlines()
    files = {int(line.split()[0]) for line in lines[1:]}
    assert files == set(bench_summary.bench_files(ROOT))
    assert len(lines) == 1 + 3 * len(files)
