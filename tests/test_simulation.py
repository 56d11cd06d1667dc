import dataclasses
import gc
import hashlib
import weakref

import pytest

from ntnmc import simulation, traffic_split
from ntnmc.config import POLICIES, load_config
from ntnmc.engine import Simulator, millis
from ntnmc.simulation import NTN_CELL_ID, Scenario, run_single

from test_golden import SMALL, TEN_MS_CTRL_LATENCY, TWO_SECONDS


def _tiny(policy="mcs"):
    return load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                       n_ue_per_sector=2, policy=policy)


def test_scenario_builds_expected_population():
    sc = Scenario(_tiny(), 1)
    assert len(sc.ues) == 18
    assert len(sc.nodes) == 9
    assert sc.ntn_node not in sc.nodes
    # every UE anchors at a terrestrial sector, whose node holds its queue
    for ue in sc.ues.values():
        assert ue.mn_node_id in range(9)
        assert ue.ue_id in sc.nodes[ue.mn_node_id].queues


@pytest.mark.parametrize("policy", POLICIES)
def test_finished_run_is_freed_without_the_cycle_collector(policy):
    # A run left as cyclic garbage keeps every queue and PDU alive until a
    # full collection, which a campaign of many runs pays for in memory.
    sc = Scenario(_tiny(policy), 1)
    gc.disable()
    try:
        sc.run_to_end()
        refs = [weakref.ref(sc), weakref.ref(sc.sim),
                weakref.ref(next(iter(sc.ues.values()))),
                weakref.ref(sc.nodes[0]), weakref.ref(sc.ntn_node)]
        del sc
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_run_result_shape():
    r = run_single(_tiny("off"), 2)
    assert r.policy == "off"
    assert r.seed == 2
    assert r.ue_ids == sorted(r.ue_ids)
    assert len(r.throughput_kbps) == len(r.ue_ids) == 18
    assert r.counters["generated_bits"] > 0
    assert r.counters["delivered_bits"] > 0


def test_single_connectivity_setting_touches_no_secondary_machinery():
    r = run_single(_tiny("off"), 2)
    c = r.counters
    assert c["sn_adds"] == c["sn_releases"] == c["sn_rejects"] == 0
    assert c["distinct_bound_ues"] == 0
    assert r.events == []
    assert c["grant_windows"] == 0


def test_same_seed_same_result_at_library_level():
    a = run_single(_tiny(), 7)
    b = run_single(_tiny(), 7)
    assert a == b


def test_channel_realization_does_not_depend_on_policy():
    # paired comparison across settings relies on shared randomness
    off = Scenario(_tiny("off"), 9)
    mcs = Scenario(_tiny("mcs"), 9)
    for ue_id in off.ues:
        u0, u1 = off.ues[ue_id], mcs.ues[ue_id]
        assert (u0.pos.lat_deg, u0.pos.lon_deg) == (u1.pos.lat_deg, u1.pos.lon_deg)
        assert u0.mn_node_id == u1.mn_node_id
        assert u0.tn_sinr_db == u1.tn_sinr_db


def test_different_seeds_give_different_drops():
    a = Scenario(_tiny(), 1)
    b = Scenario(_tiny(), 2)
    assert any(a.ues[u].pos.lat_deg != b.ues[u].pos.lat_deg for u in a.ues)


def test_events_are_time_ordered_and_well_formed():
    cfg = dataclasses.replace(_tiny("rsrp"), sim_duration_s=1.2, warmup_s=0.3)
    r = run_single(cfg, 3)
    assert r.counters["sn_adds"] > 0
    times = [e[0] for e in r.events]
    assert times == sorted(times)
    for _t, kind, ue, mn, sn, _cause in r.events:
        assert kind in ("ADD", "RELEASE", "REJECT")
        assert ue in r.ue_ids
        assert mn in range(9)
        assert sn == NTN_CELL_ID


def test_periodic_events_keep_their_same_instant_order(monkeypatch):
    # The data-request cycle is scheduled after the TTIs at t = 0, and 25 ms
    # ahead of the TTIs at every later multiple of 25 ms; CBR arrivals are
    # scheduled 3.75 ms ahead, so at t = 15 ms they precede the TTI.
    log = []
    for name, kind in (("_on_tti", "tti"), ("_on_arrival", "arrival"),
                       ("_on_data_request_cycle", "request")):
        def recorded(self, *args, _orig=getattr(Scenario, name), _kind=kind):
            log.append((self.sim.now, _kind))
            return _orig(self, *args)
        monkeypatch.setattr(Scenario, name, recorded)
    cfg = dataclasses.replace(_tiny("rsrp"), sim_duration_s=0.03,
                              warmup_s=0.01)
    Scenario(cfg, 1).run_to_end()

    def kinds_at(ms):
        return [kind for t, kind in log if t == millis(ms)]

    assert kinds_at(0) == ["arrival", "tti", "request"]
    assert kinds_at(15) == ["arrival", "tti"]
    assert kinds_at(25) == ["request", "tti"]
    assert kinds_at(30) == ["arrival", "tti"]
    assert [t for t, kind in log if kind == "tti"] == [
        millis(ms) for ms in range(31)]


def test_each_ue_alternates_add_and_release():
    # A UE gets a secondary leg only while it has none and no
    # reconfiguration is pending, so its ADD and RELEASE events alternate,
    # starting with ADD. With a 40 ms control latency, the three-message
    # reconfiguration outlasts the 100 ms request gate, and an anchor asks
    # for a UE again while its reconfiguration is pending.
    for latency_ms in (TEN_MS_CTRL_LATENCY["ctrl_latency_ms"], 40.0):
        for policy in POLICIES:
            cfg = load_config(None, environ={}, policy=policy,
                              **dict(TEN_MS_CTRL_LATENCY,
                                     ctrl_latency_ms=latency_ms))
            r = run_single(cfg, 1)
            legs = {}
            for _t, kind, ue, _mn, _sn, _cause in r.events:
                if kind != "REJECT":
                    legs.setdefault(ue, []).append(kind)
            for ue, kinds in legs.items():
                want = ["ADD", "RELEASE"] * len(kinds)
                assert kinds == want[:len(kinds)], (latency_ms, policy, ue)
            if policy == "mcs":
                assert r.counters["sn_releases"] > 0, latency_ms


def test_run_ledger_has_one_key_set_and_counts_whole_pdus():
    # Every PDU carries one app packet of one size, so each bit total is
    # its PDU total times the packet size. A small anchor queue makes `mcs`
    # and `off` drop packets within the run.
    key_sets, dropped = set(), 0
    for policy in POLICIES:
        cfg = dataclasses.replace(_tiny(policy), ue_queue_bytes=60_000)
        r = run_single(cfg, 1)
        c = r.counters
        key_sets.add(frozenset(c))
        packet_bits = cfg.packet_bytes * 8
        for kind in ("dropped", "delivered", "stale"):
            assert c[f"{kind}_bits"] == c[f"{kind}_pdus"] * packet_bits
        assert c["delivered_pdus"] > 0
        dropped += c["dropped_pdus"]
        # every REJECT names one of the two causes a candidate refuses with
        assert c["rejects_recent_ack"] + c["rejects_overloaded"] == c["sn_rejects"]
        assert c["zero_throughput_ues"] == r.throughput_kbps.count(0.0)
    assert len(key_sets) == 1
    assert dropped > 0


def test_end_of_run_flush_skips_no_sequence_number():
    # At the end of a run every gap below a buffered SN is a PDU still in
    # flight or queued at a node, so the flush must not count it as skipped.
    cfg = dataclasses.replace(_tiny("rsrp"), sim_duration_s=1.0, warmup_s=0.5)
    sc = Scenario(cfg, 1)
    sc.sim.run_until(sc.end_ns)
    assert any(ue.receiver.buffer for ue in sc.ues.values())
    skipped = sum(ue.receiver.skipped_sns for ue in sc.ues.values())
    assert sc.finish().counters["skipped_sns"] == skipped


def test_ingest_drains_only_when_a_pdu_can_move(monkeypatch):
    # A drain at ingest runs only when the grant covers the packet just
    # admitted, and then it moves at least that packet's PDU.
    moved, ingesting = [], []

    def drain(*args, _orig=traffic_split.drain_forward):
        n = _orig(*args)
        if ingesting:
            moved.append(n)
        return n

    def ingest(self, *args, _orig=Scenario._on_arrival):
        ingesting.append(True)
        try:
            return _orig(self, *args)
        finally:
            ingesting.pop()

    monkeypatch.setattr(traffic_split, "drain_forward", drain)
    monkeypatch.setattr(Scenario, "_on_arrival", ingest)
    Scenario(_tiny("rsrp"), 1).run_to_end()
    assert moved and min(moved) >= 1


def test_beam_load_window_holds_the_beams_last_grants(monkeypatch):
    # After every TTI, the beam's admission state holds the REs the beam
    # granted in each of its last `window` TTIs, idle TTIs (0 REs) included;
    # no sector's grants reach it.
    beam = []

    def schedule(node, _orig=simulation.schedule_tti):
        out = _orig(node)
        if node is sc.ntn_node:
            beam.append(out)
        return out

    def on_tti(self, _orig=Scenario._on_tti):
        _orig(self)
        assert list(self.cand.granted) == beam[-self.cand.window:]

    monkeypatch.setattr(simulation, "schedule_tti", schedule)
    monkeypatch.setattr(Scenario, "_on_tti", on_tti)
    sc = Scenario(dataclasses.replace(_tiny("rsrp"), load_window_ms=20.0), 1)
    sc.run_to_end()
    assert sc.cand.window == 20
    assert len(beam) == 601
    assert 0 in beam[20:] and max(beam) > 0


RUN_END_VARIANTS = {"two-seconds": TWO_SECONDS,
                    "ctrl-latency": TEN_MS_CTRL_LATENCY}


@pytest.mark.parametrize("variant", sorted(RUN_END_VARIANTS))
@pytest.mark.parametrize("policy", POLICIES)
def test_no_handler_fires_after_the_run_end(monkeypatch, policy, variant):
    # `run_until` ends the run: a handler may schedule past the end, but
    # nothing past it fires, everything due at the end does, and `finish`
    # leaves the queue empty.
    fired = []

    def schedule_at(sim, t, fn, *args, _orig=Simulator.schedule_at):
        def handler(*a):
            fired.append(sim.now)
            return fn(*a)
        return _orig(sim, t, handler, *args)

    monkeypatch.setattr(Simulator, "schedule_at", schedule_at)
    cfg = load_config(None, environ={}, policy=policy,
                      **RUN_END_VARIANTS[variant])
    sc = Scenario(cfg, 1)
    sc.run_to_end()
    assert max(fired) == sc.end_ns
    assert sc.sim._queue == []


GRANT_TIMINGS = {"default": TWO_SECONDS,
                 "short-offset": dict(TWO_SECONDS, split_toff_ms=0.001),
                 "ctrl-latency": TEN_MS_CTRL_LATENCY}


@pytest.mark.parametrize("timing", sorted(GRANT_TIMINGS))
@pytest.mark.parametrize("policy", ["mcs", "rsrp", "bo"])
def test_every_drain_uses_a_grant_of_the_current_cycle(monkeypatch, policy,
                                                       timing):
    # Only the data-request cycle issues grants, and each cycle replaces the
    # grant of every bound UE, so no drain sees a grant older than delta_t,
    # even when t_offset is the smallest that `validate` accepts.
    cfg = load_config(None, environ={}, policy=policy,
                      **GRANT_TIMINGS[timing])
    sc = Scenario(cfg, 1)
    issued, ages = {}, []   # id(grant) -> (grant, issue time); drain ages

    def send(*args, _orig=traffic_split.send_periodic_requests):
        grants = _orig(*args)
        for grant in grants:
            issued[id(grant)] = grant, sc.sim.now
        return grants

    def drain(mn, sn, grant, *args, _orig=traffic_split.drain_forward):
        ages.append(sc.sim.now - issued[id(grant)][1])
        return _orig(mn, sn, grant, *args)

    monkeypatch.setattr(traffic_split, "send_periodic_requests", send)
    monkeypatch.setattr(traffic_split, "drain_forward", drain)
    sc.run_to_end()
    assert 0 < max(ages) <= millis(cfg.split_delta_ms)


def test_in_flight_ledger_matches_pending_deliveries():
    # The conservation ledger books every launched PDU until its delivery
    # fires: at each step its bits per UE are those of the PDUs in the
    # delivery events still queued. Only a beam block can land later than
    # the terrestrial latency, so those events show that some are counted.
    beam_steps = 0
    for policy in POLICIES:
        sc = Scenario(load_config(None, environ={}, policy=policy, **SMALL),
                      1)
        for t in range(millis(10), sc.end_ns + 1, millis(10)):
            sc.sim.run_until(t)
            pending = dict.fromkeys(sc.ues, 0)
            late = False
            for t_ev, _seq, ev in sc.sim._queue:
                if ev.fn == sc._deliver_tb and not ev.cancelled:
                    for ue_id, pdus in ev.args[0]:
                        pending[ue_id] += sum(pdu.bits for pdu in pdus)
                    late |= t_ev > t + sc.tn_latency_ns
            assert sc.in_flight_bits() == pending
            sc.check_conservation()
            beam_steps += late
    assert beam_steps > 0


# The SHA-256 of every UE's end-of-run ingest ledger, below.
INGEST_LEDGER_SHA256 = (
    "18b6d3e5b2ed7a0587ff7f2485b8fba84b74410b2bc2f6eeb3c49529b9786c78")


def test_every_ue_ends_with_its_pinned_ingest_ledger():
    # Each UE's dropped PDUs, next SN to admit and anchor backlog at the
    # end, under every policy at a cap that drops packets, and under `off`
    # at a cap below one packet, where every packet drops. The SMALL cap
    # is no whole number of packets, so a drop exactly at it is left to
    # `tests/test_dataplane.py`.
    runs = [(p, SMALL) for p in POLICIES]
    runs.append(("off", dict(SMALL, ue_queue_bytes=1000)))
    ledger = []
    for policy, overrides in runs:
        sc = Scenario(load_config(None, environ={}, policy=policy,
                                  **overrides), 1)
        sc.run_to_end()
        rows = []
        for ue in sc.ues.values():
            q = ue.mn_queue
            rows.append((ue.ue_id, q.dropped_pdus, q.run_sn + len(q.run),
                         q.queued_bits))
        ledger.append(rows)
    assert ledger[-1][0][1:] == (sc.cbr_instants, 0, 0)
    digest = hashlib.sha256(repr(ledger).encode()).hexdigest()
    assert digest == INGEST_LEDGER_SHA256
