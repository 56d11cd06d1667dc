"""End-to-end acceptance checks on the default campaign.

The module fixture runs the full default campaign (four settings, seeds
1..15) once, over two worker processes; the comparative tests read from
it. Expect a minute or two of wall time for this module.
"""

import dataclasses
import math
import os
import random
import time

import pytest

from ntnmc.channel import McsTable, ntn_fspl_db
from ntnmc.cli import main
from ntnmc.config import ScenarioConfig, load_config
from ntnmc.campaign import run_campaign
from ntnmc.dataplane import Node, PdcpPdu, PdcpReceiver
from ntnmc.engine import Simulator, millis, seconds
from ntnmc.geometry import slant_range_m
from ntnmc.mc_control import (ACK, PREEMPTIVE, REJECT, AnchorState,
                              CandidateState, Measurement, evaluate_mcs_based,
                              handle_sn_addition_request, release_secondary)
from ntnmc.simulation import Scenario
from ntnmc.traffic_split import compute_request_amount

SETTINGS = ("off", "rsrp", "bo", "mcs")
SEEDS = list(range(1, 16))
TABLE = McsTable.default()


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


# --- request-amount formula --------------------------------------------------


def _sn_node(n_secondary):
    node = Node(52, TABLE, 100)
    for ue in range(1, n_secondary + 1):
        node.add_ue(ue, 22)
    return node


def test_request_amount_matches_closed_form():
    cfg = ScenarioConfig()
    window_s = (cfg.split_delta_ms + cfg.split_toff_ms) * 1e-3
    bandwidth_hz = cfg.bandwidth_mhz * 1e6
    rng = random.Random(12345)
    for _ in range(1000):
        n_s = rng.randint(1, 20)
        sinr_db = rng.uniform(-10.0, 25.0)
        node = _sn_node(n_s)
        for _ in range(rng.randint(0, 100)):
            k = rng.randint(0, node.n_res)
            node.load.record(k)
        want = (cfg.split_alpha / n_s * bandwidth_hz
                * math.log2(1.0 + 10.0 ** (sinr_db / 10.0)) * window_s)
        got = compute_request_amount(node, sinr_db, cfg)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-9)

    # amount halves when the served set doubles
    a = compute_request_amount(_sn_node(3), 10.0, cfg)
    b = compute_request_amount(_sn_node(6), 10.0, cfg)
    assert a == pytest.approx(2.0 * b, rel=1e-12)

    with pytest.raises(ValueError):
        compute_request_amount(Node(52, TABLE, 100), 0.0, cfg)


# --- scripted control-plane decisions ----------------------------------------


def _anchor_with_reports(reports, mcs_by_ue):
    return AnchorState("tn0", {
        ue: Measurement(-millis(age_ms), rsrp, 0.0, mcs_by_ue.get(ue))
        for ue, (age_ms, rsrp) in reports.items()})


def _cand_at_load(fraction):
    node = Node(52, TABLE, 100)
    node.load.record(round(fraction * node.n_res))
    return node


def test_scripted_anchor_evaluations():
    cfg = ScenarioConfig()

    healthy = _anchor_with_reports({u: (50, -110.0) for u in range(4)},
                                   {u: 16 for u in range(4)})
    assert evaluate_mcs_based(healthy, None, list(range(4)), 0, cfg) is None

    no_single = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(no_single, None, [], 0, cfg) is None

    weak = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(weak, None, [1], 0, cfg) == 1

    faint = _anchor_with_reports({1: (50, -112.0)}, {1: 3})
    assert evaluate_mcs_based(faint, None, [1], 0, cfg) is None


def test_scripted_candidate_decisions():
    cfg = ScenarioConfig()
    anchor = Node(52, TABLE, 100)

    def admit(load, mcs_by_bound_ue, t_ns, last_ack_ns=None):
        """Admission of UE 7 at anchor MCS 5; the UEs of `mcs_by_bound_ue`
        are served at both nodes, as in a scenario."""
        cand = _cand_at_load(load)
        ctrl = CandidateState({7: Measurement(0, -110.0, 0.0, 5)})
        ctrl.last_ack_ns = last_ack_ns
        for ue, mcs in mcs_by_bound_ue.items():
            anchor.add_ue(ue, 10)
            cand.add_ue(ue, 22)
            ctrl.reports[ue] = Measurement(0, -110.0, 0.0, mcs)
        d = handle_sn_addition_request(cand, ctrl, 7, t_ns, cfg, PREEMPTIVE)
        if d.victim is not None:
            release_secondary(cand, anchor, d.victim)
        return d, cand

    d, _ = admit(0.5, {}, 0)
    assert (d.verdict, d.cause) == (ACK, "headroom")

    d, _ = admit(0.1, {}, millis(50), last_ack_ns=0)
    assert (d.verdict, d.cause) == (REJECT, "recent-ack")

    d, crowded = admit(1.0, {3: 20}, 0)
    assert (d.verdict, d.cause) == (ACK, "preempted-weakest")
    assert 3 not in crowded.queues

    d, hopeless = admit(1.0, {3: 3}, 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")
    assert 3 in hopeless.queues


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

        sim = Simulator()
        delivered = []
        rx = PdcpReceiver(1, sim, millis(100.0), 1000,
                          lambda pdu, t: delivered.append(pdu.sn))
        for t, _tie, sn in arrivals:
            rx.receive(PdcpPdu(1, sn, 8, 0), t)
        rx.flush(arrivals[-1][0])
        assert delivered == sorted(delivered)
        assert rx.delivered_pdus + rx.stale_pdus + rx.duplicate_pdus == n
        assert rx.buffered_bits == 0


# --- physical anchors -----------------------------------------------------------


def test_geometry_and_link_budget_anchor_values():
    assert abs(slant_range_m(math.radians(30.0), 600_000.0) - 1_075_100.0) <= 500.0
    assert slant_range_m(math.pi / 2.0, 600_000.0) == 600_000.0
    assert abs(ntn_fspl_db(600_000.0, 2.0) - 154.03) <= 0.01
