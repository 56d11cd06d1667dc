"""End-to-end acceptance checks on the default campaign.

The module fixture runs the full default campaign (four settings, seeds
1..15) once, over two worker processes; the comparative tests read from
it. Expect a minute or two of wall time for this module.
"""

import dataclasses
import os
import random
import time

import pytest

from ntnmc.cli import main
from ntnmc.config import load_config
from ntnmc.campaign import run_campaign
from ntnmc.dataplane import PdcpPdu
from ntnmc.engine import Simulator, millis, seconds
from ntnmc.simulation import Scenario

from test_dataplane import RecordingReceiver

SETTINGS = ("off", "rsrp", "bo", "mcs")
SEEDS = list(range(1, 16))


@pytest.fixture(scope="module")
def campaign():
    cfg = load_config(None, environ={})
    t0 = time.monotonic()
    summaries, results = run_campaign(cfg, list(SETTINGS), SEEDS, jobs=2)
    elapsed = time.monotonic() - t0
    by_setting = {s.setting: s for s in summaries}
    runs = {p: [r for r in results if r.policy == p] for p in SETTINGS}
    return cfg, by_setting, runs, elapsed


def test_campaign_completes_within_budget(campaign):
    _cfg, _by, runs, elapsed = campaign
    assert elapsed < 600.0
    for p in SETTINGS:
        assert len(runs[p]) == len(SEEDS)


def test_mean_throughput_ordering_across_settings(campaign):
    _cfg, by, _runs, _el = campaign
    means = {p: by[p].mean_kbps for p in SETTINGS}
    assert means["mcs"] > means["bo"] > means["rsrp"] > means["off"]


def test_tail_throughput_ordering_across_settings(campaign):
    _cfg, by, _runs, _el = campaign
    p5 = {p: by[p].p5_kbps for p in SETTINGS}
    assert p5["mcs"] > p5["rsrp"] > p5["bo"] > p5["off"]


def test_mean_gain_over_single_connectivity_is_sane(campaign):
    _cfg, by, _runs, _el = campaign
    ratio = by["mcs"].mean_kbps / by["off"].mean_kbps
    assert 1.10 <= ratio <= 1.60


def test_coverage_policy_binds_nearly_every_eligible_ue(campaign):
    _cfg, _by, runs, _el = campaign
    for r in runs["rsrp"]:
        assert r.counters["eligible_ues"] > 0
        assert (r.counters["distinct_bound_ues"]
                >= 0.9 * r.counters["eligible_ues"])


def test_link_quality_policy_adds_more_than_occupancy_policy(campaign):
    _cfg, by, _runs, _el = campaign
    assert by["mcs"].avg_sn_adds > by["bo"].avg_sn_adds


def test_only_the_preempting_policy_releases(campaign):
    _cfg, by, runs, _el = campaign
    assert by["mcs"].avg_sn_releases > 0.0
    for p in ("bo", "rsrp", "off"):
        for r in runs[p]:
            assert r.counters["sn_releases"] == 0
    for r in runs["off"]:
        assert r.counters["sn_adds"] == 0


def test_every_grant_window_is_respected(campaign):
    _cfg, _by, runs, _el = campaign
    for p in SETTINGS:
        for r in runs[p]:
            c = r.counters
            assert c["grant_violations"] == 0
            assert c["grant_max_used"] <= 1.0 + 1e-12
            if p == "off":
                assert c["grant_windows"] == 0
            else:
                assert c["grant_windows"] > 0


# --- determinism ---------------------------------------------------------------


ARTIFACTS = ("summary.csv", "cdf_mcs.csv", "events_mcs_1.csv",
             "events_mcs_2.csv", "events_mcs_3.csv", "manifest.json")


def test_repeated_runs_write_identical_artifacts(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("SIM_"):
            monkeypatch.delenv(key)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, jobs in zip(dirs, ("1", "1", "2")):
        rc = main(["run", "--out", str(d), "--policies", "mcs",
                   "--seeds", "1..3", "--jobs", jobs])
        assert rc == 0
    for name in ARTIFACTS:
        blobs = [(d / name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2], name


# --- long-run accounting -------------------------------------------------------


def test_bits_conserved_at_every_checkpoint_of_a_long_run():
    cfg = dataclasses.replace(load_config(None, environ={}),
                              sim_duration_s=30.0, policy="mcs")
    sc = Scenario(cfg, 101)
    step = millis(100.0)
    t = 0
    while t < seconds(30.0):
        t += step
        sc.sim.run_until(t)
        sc.check_conservation()
    result = sc.finish()
    assert result.counters["generated_bits"] > 0
    assert result.counters["sn_adds"] > 0


def test_reordering_survives_randomized_dual_path_arrivals():
    rng = random.Random(8)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        arrivals = []
        for sn in range(n):
            sent = sn * 1_000_000
            delay = (rng.randint(400_000, 700_000) if rng.random() < 0.5
                     else rng.randint(3_500_000, 4_500_000))
            arrivals.append((sent + delay, rng.random(), sn))
        arrivals.sort()

        rx = RecordingReceiver(Simulator())
        for t, _tie, sn in arrivals:
            rx.receive(PdcpPdu(sn, 8, 0), t)
        rx.flush(arrivals[-1][0])
        delivered = [sn for sn, _t in rx.delivered]
        assert delivered == sorted(delivered)
        assert rx.delivered_pdus + rx.stale_pdus + rx.duplicate_pdus == n
        assert rx.buffered_bits == 0

