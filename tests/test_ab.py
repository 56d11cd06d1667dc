"""`tools/ab.py` on captured `perfbench/run.py` output; runs no benchmark.

The records it builds must carry the counters, digest and final JSON line
of each invocation, alternate which side runs first, and read back through
`tools/bench_summary.py` as the checked-in records do."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _tool("ab")
bench_summary = _tool("bench_summary")

# A `single-dense` invocation at seed 1, `--seconds 3`, cut to the lines
# that matter and the ones around them.
CAPTURED = """\
workload single-dense seed 1: 1 count, 3 plain, 0 trace repeats
count repeats, host wall_s x scale: 0.4416x1.000
plain repeats, host wall_s x scale: 0.3416x1.028 0.2971x1.427 0.3050x1.512
trace repeats, host wall_s x scale:
fingerprint off: mean_kbps=864.444444 p5_kbps=0.000000 adds=0.00 releases=0.00
counters engine.events={events} dataplane.schedule_tti.calls=20010 \
traffic_split.drain_forward.calls=0 mc_control.admission.calls=0
digest 4385049bc27a3a67628ade06027776240733f4010f0b571b231fd04149a0dc6e
failed_frac 0.000000 (0 of 4 runs)
run_s: 3 runs, too few for a percentile with 10 beyond
wall_s {wall_s} s
{{"correct": true, "attempted": 4, "failed": 0, "metrics": {{"wall_s": \
{{"value": {wall_s}, "unit": "s"}}, "peak_rss_mb": {{"value": 23.5859375, \
"unit": "MB"}}}}}}
"""
OUTPUT = {"parent": dict(events=9030, wall_s=0.42),
          "change": dict(events=4524, wall_s=0.32)}


def _records():
    calls = []

    def run(tree, workload, seed, trace):
        calls.append(tree)
        return CAPTURED.format(**OUTPUT[tree])

    sides = {side: (side, side[:3]) for side in ab.SIDES}
    records = list(ab.run_pairs(sides, ["single-dense"], 3, 1, 0, run))
    return records, calls


def test_records_carry_each_invocation_and_alternate_the_sides():
    records, calls = _records()
    assert calls == ["parent", "change", "change", "parent",
                     "parent", "change"]
    assert [(r["pair"], r["run_order"], r["side"]) for r in records] == [
        (0, 0, "parent"), (0, 1, "change"), (1, 0, "change"),
        (1, 1, "parent"), (2, 0, "parent"), (2, 1, "change")]
    first = records[0]
    assert first["ab"] == "final" and first["commit"] == "par"
    assert first["counters"] == {
        "engine.events": 9030, "dataplane.schedule_tti.calls": 20010,
        "traffic_split.drain_forward.calls": 0,
        "mc_control.admission.calls": 0}
    assert first["digest"].startswith("4385049b")
    assert first["result"]["correct"] is True
    assert first["result"]["metrics"]["wall_s"]["value"] == 0.42


def test_tags_follow_the_trace_flag_and_the_held_out_seed():
    assert ab.tag(1, 0) == "final"
    assert ab.tag(ab.HELD_OUT_SEED, 0) == "held-out"
    assert ab.tag(1, 1) == "trace"


def test_report_gives_medians_pairs_won_and_what_matched():
    records, _ = _records()
    lines = ab.report(records)
    assert lines[0] == ("single-dense: 3 parent and 3 change runs, "
                        "all correct: True")
    assert lines[1] == "  digests match: True"
    assert lines[2] == "  counters match: False, engine.events 9030 -> 4524"
    wall_s = next(line for line in lines if "wall_s" in line)
    assert "parent 0.4200 change 0.3200 (-23.8%)" in wall_s
    assert "parent IQR/median 0.0%" in wall_s
    assert wall_s.endswith("change won 3 of 3 pairs")


def test_bench_summary_reads_the_records_back(tmp_path):
    records, _ = _records()
    (tmp_path / "BENCH_99.json").write_text(json.dumps(records))
    got = bench_summary.summary(tmp_path, "wall_s")
    assert got == {99: {"single-dense": {"parent": (0.42, 3),
                                         "change": (0.32, 3)}}}


# A `single-dense` invocation whose count repeat raised, `--seconds 3`:
# no counters, digest or metrics.
COUNT_REPEAT_FAILED = """\
FAIL repeat 1 (count): raised ConservationError: ue 0: 0 bits unaccounted \
at t=2000000000
workload single-dense seed 1: 1 count, 0 plain, 0 trace repeats
count repeats, host wall_s x scale: 0.3129x1.000
plain repeats, host wall_s x scale:
trace repeats, host wall_s x scale:
failed_frac 1.000000 (1 of 1 runs)
{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}
"""


def test_a_failed_invocation_is_recorded_as_incorrect():
    # A count repeat that raised prints no counters or digest; a tree that
    # fails to import prints nothing on standard output.
    for output in (COUNT_REPEAT_FAILED, ""):
        parsed = ab.parse(output)
        assert parsed["counters"] is None and parsed["digest"] is None
        assert parsed["result"]["correct"] is False
        assert parsed["result"]["metrics"] == {}


def test_report_and_medians_name_and_skip_failed_invocations():
    records, _ = _records()
    records[1] = dict(records[1], **ab.parse(COUNT_REPEAT_FAILED))
    records.append(dict(records[-1], pair=3, **ab.parse("")))
    lines = ab.report(records)
    assert lines[:4] == [
        "single-dense: 3 parent and 4 change runs, all correct: False",
        "  incorrect: change pair 0, change pair 3",
        "  digests match: True",
        "  counters match: False, engine.events 9030 -> 4524"]
    wall_s = next(line for line in lines if "wall_s" in line)
    assert "parent 0.4200 change 0.3200 (-23.8%)" in wall_s
    assert wall_s.endswith("change won 2 of 4 pairs")
    assert bench_summary.medians(records, "wall_s") == {
        "single-dense": {"change": (0.32, 2), "parent": (0.42, 3)}}
