import json

import pytest

from ntnmc.config import ScenarioConfig
from ntnmc.simulation import RunResult
from ntnmc.stats import (cdf_points, emit_results, ensure_writable_dir, mean,
                         percentile, summarize_setting)


def test_percentile_linear_interpolation():
    assert percentile([10.0, 20.0, 30.0, 40.0], 50.0) == 25.0
    assert percentile([float(v) for v in range(1, 101)], 5.0) == 5.95


def test_percentile_edges():
    vals = [3.0, 1.0, 2.0]
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 100.0) == 3.0
    assert percentile([42.0], 5.0) == 42.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)
    with pytest.raises(ValueError):
        percentile([1.0], 100.5)


def test_mean():
    assert mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ValueError):
        mean([])


def test_cdf_points_collapse_duplicates_and_end_at_one():
    pts = cdf_points([3.0, 1.0, 3.0, 2.0])
    assert pts == [(1.0, 0.25), (2.0, 0.5), (3.0, 1.0)]
    xs = [x for x, _ in pts]
    fs = [f for _, f in pts]
    assert xs == sorted(xs)
    assert fs == sorted(fs)
    assert fs[-1] == 1.0


def _result(policy, seed, tp, adds=0, releases=0):
    counters = dict(sn_adds=adds, sn_releases=releases, sn_rejects=1,
                    distinct_bound_ues=adds, eligible_ues=len(tp),
                    grant_windows=10, grant_violations=0, grant_max_used=0.5,
                    generated_bits=1000, dropped_bits=50, dropped_pdus=1,
                    delivered_bits=900, skipped_sns=0)
    return RunResult(policy=policy, seed=seed,
                     ue_ids=list(range(len(tp))), throughput_kbps=list(tp),
                     events=[(0, "ADD", 0, "tn0", "ntn", "admitted")],
                     counters=counters)


def test_summarize_pools_per_ue_records():
    runs = [_result("mcs", 1, [100.0, 200.0], adds=2),
            _result("mcs", 2, [300.0, 400.0], adds=4)]
    s = summarize_setting("mcs", runs)
    assert s.pooled_kbps == [100.0, 200.0, 300.0, 400.0]
    assert s.mean_kbps == 250.0
    assert s.p5_kbps == percentile([100.0, 200.0, 300.0, 400.0], 5.0)
    assert s.avg_sn_adds == 3.0


def test_summarize_rejects_ragged_runs():
    runs = [_result("mcs", 1, [100.0, 200.0]),
            _result("mcs", 2, [300.0])]
    with pytest.raises(ValueError):
        summarize_setting("mcs", runs)


def test_ensure_writable_dir(tmp_path):
    target = tmp_path / "out" / "nested"
    ensure_writable_dir(str(target))
    assert target.is_dir()
    assert list(target.iterdir()) == []  # probe file cleaned up
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(OSError):
        ensure_writable_dir(str(blocker / "sub"))


def test_emit_results_is_deterministic(tmp_path):
    cfg = ScenarioConfig()
    runs = [_result("mcs", 1, [100.0, 200.0], adds=2, releases=1),
            _result("mcs", 2, [300.0, 400.0], adds=4, releases=2)]
    summaries = [summarize_setting("mcs", runs)]

    def emit(d):
        emit_results(str(d), cfg, ["mcs"], [1, 2], summaries, runs)
        return {p.name: p.read_bytes() for p in d.iterdir()}

    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    files1, files2 = emit(d1), emit(d2)
    assert files1 == files2
    assert set(files1) == {"summary.csv", "cdf_mcs.csv", "events_mcs_1.csv",
                           "events_mcs_2.csv", "manifest.json"}
    header = files1["summary.csv"].decode().splitlines()[0]
    assert header == "setting,mean_kbps,p5_kbps,avg_sn_adds,avg_sn_releases"
    manifest = json.loads(files1["manifest.json"])
    assert manifest["runs"] == [dict(r.counters, setting=r.policy, seed=r.seed)
                                for r in runs]
