import dataclasses

import pytest

from ntnmc import mc_control, simulation
from ntnmc.channel import MCS_THRESHOLDS_DB
from ntnmc.config import POLICIES, ScenarioConfig, load_config
from ntnmc.dataplane import Node, PdcpPdu
from ntnmc.engine import Simulator, millis
from ntnmc.mc_control import (ACK, COVERAGE, GATED, PREEMPTIVE, REJECT,
                              AnchorState, CandidateState, Measurement,
                              complete_reconfiguration, evaluate_bo_based,
                              evaluate_mcs_based, evaluate_rsrp_based,
                              handle_sn_addition_request, policy_for,
                              release_secondary, request_gate_open)
from ntnmc.simulation import Scenario

CFG = ScenarioConfig()


def _report(mn_mcs, t_ns=0, rsrp_dbm=-110.0):
    return Measurement(t_ns, rsrp_dbm, 0.0, mn_mcs)


def _anchor_with_reports(reports, mcs_by_ue, t=0):
    """Anchor state preloaded with reports, given per UE as
    (age_ms, rsrp_dbm) plus the anchor MCS in `mcs_by_ue` (None if absent)."""
    return AnchorState("tn0", {
        ue: _report(mcs_by_ue.get(ue), t - millis(age_ms), rsrp)
        for ue, (age_ms, rsrp) in reports.items()})


def _candidate(fraction, mcs_by_bound_ue=None):
    """The satellite beam, serving a secondary leg for each UE of
    `mcs_by_bound_ue`, and its admission state, whose load reads
    `fraction` and whose reports give each of those UEs that anchor MCS."""
    node = Node(52)
    ctrl = CandidateState({}, 100, node.n_res)
    ctrl.load.record(round(fraction * node.n_res))
    assert ctrl.load.fraction() == pytest.approx(fraction, abs=1e-3)
    for ue, mcs in (mcs_by_bound_ue or {}).items():
        node.add_ue(ue, 22)
        ctrl.reports[ue] = _report(mcs)
    return node, ctrl


def _req(ctrl, ue=7, mn_mcs=5):
    """A request for `ue`, whose latest report gives anchor MCS `mn_mcs`."""
    ctrl.reports[ue] = _report(mn_mcs)
    return ue


def _admit(cand, ctrl, ue_id, t_ns, mode=PREEMPTIVE):
    """Admission as a scenario runs it: the anchor also serves every UE
    bound at the candidate, and the victim an ACK names is released through
    `release_secondary`."""
    anchor = Node(52)
    for ue in cand.queues:
        anchor.add_ue(ue, 10)
    d = handle_sn_addition_request(cand, ctrl, ue_id, t_ns, CFG, mode)
    if d.victim is not None:
        release_secondary(cand, anchor, d.victim)
    return d


def _anchor_with_occupancy(occupancy):
    """Anchor node whose transmit queues are filled to the given fractions
    of the configured cap."""
    node = Node(52)
    for ue, frac in occupancy.items():
        node.add_ue(ue, 20)
        node.queues[ue].push(PdcpPdu(ue, 0, round(frac * CFG.ue_queue_bytes) * 8, 0))
    return node


# --- anchor-side evaluation ------------------------------------------------

def test_no_requests_when_all_links_are_healthy():
    ctrl = _anchor_with_reports({u: (50, -110.0) for u in range(4)},
                                {u: 16 for u in range(4)})
    assert evaluate_mcs_based(ctrl, None, list(range(4)), 0, CFG) is None


def test_no_requests_without_single_connectivity_ues():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [], 0, CFG) is None


def test_weak_ue_with_qualified_candidate_triggers_one_request():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) == 1
    assert ctrl.last_request_ns == 0


def test_weak_ue_with_faint_candidate_stays_single():
    ctrl = _anchor_with_reports({1: (50, -112.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) is None
    # the faint candidate must not burn the request gate
    assert ctrl.last_request_ns is None


def test_rsrp_floor_is_inclusive():
    ctrl = _anchor_with_reports({1: (50, CFG.rsrp_min_dbm)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) == 1


def test_measurement_staleness_boundary():
    fresh = _anchor_with_reports({1: (CFG.meas_staleness_ms, -110.0)}, {1: 3})
    assert evaluate_mcs_based(fresh, None, [1], 0, CFG) == 1
    stale = AnchorState("tn0", {
        1: _report(3, -millis(CFG.meas_staleness_ms) - 1)})
    assert evaluate_mcs_based(stale, None, [1], 0, CFG) is None


def test_request_gate_blocks_repeat_asks_to_same_cell():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert request_gate_open(ctrl, 0, CFG)
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) == 1
    at_gate = millis(CFG.request_gate_ms)
    assert not request_gate_open(ctrl, millis(50), CFG)
    assert not request_gate_open(ctrl, at_gate - 1, CFG)
    assert request_gate_open(ctrl, at_gate, CFG)


def test_weakest_reported_ue_goes_first():
    ctrl = _anchor_with_reports({u: (10, -110.0) for u in (1, 2, 3)},
                                {1: 5, 3: 3})  # ue 2 has no decodable anchor link
    # the unreported UE ranks below every decodable anchor link
    assert evaluate_mcs_based(ctrl, None, [1, 2, 3], 0, CFG) == 2
    assert ctrl.reports[2].mn_mcs is None


def test_rsrp_policy_asks_for_every_covered_ue():
    ctrl = _anchor_with_reports({1: (10, -110.0), 2: (10, -112.0)},
                                {1: 20, 2: 20})
    assert evaluate_rsrp_based(ctrl, None, [1, 2], 0, CFG) == 1


def test_bo_policy_prefers_the_most_backlogged():
    ctrl = _anchor_with_reports({u: (10, -110.0) for u in (1, 2, 3)},
                                {u: 20 for u in (1, 2, 3)})
    anchor = _anchor_with_occupancy({1: 0.85, 2: 0.99, 3: 0.2})
    assert evaluate_bo_based(ctrl, anchor, [1, 2, 3], 0, CFG) == 2


def test_bo_policy_ignores_queues_below_threshold():
    ctrl = _anchor_with_reports({1: (10, -110.0)}, {1: 20})
    anchor = _anchor_with_occupancy({1: 0.5})
    assert evaluate_bo_based(ctrl, anchor, [1], 0, CFG) is None


@pytest.mark.parametrize("evaluate", [evaluate_mcs_based,
                                      evaluate_rsrp_based, evaluate_bo_based])
@pytest.mark.parametrize("top_report", [
    (CFG.meas_staleness_ms + 1, -110.0),
    (10, CFG.rsrp_min_dbm - 0.5),
], ids=["stale", "below-rsrp-floor"])
def test_ineligible_top_ranked_ue_passes_the_ask_on(evaluate, top_report):
    # UE 1 ranks first under every policy: lower MCS, lower id, fuller
    # queue. When its report rules it out, UE 2 is asked for instead.
    ctrl = _anchor_with_reports({1: top_report, 2: (10, -110.0)},
                                {1: 2, 2: 3})
    anchor = _anchor_with_occupancy({1: 0.99, 2: 0.9})
    assert evaluate(ctrl, anchor, [2, 1], 0, CFG) == 2
    assert ctrl.last_request_ns == 0


# --- candidate-side admission ----------------------------------------------

def test_ack_when_candidate_has_headroom():
    node, ctrl = _candidate(0.5)
    d = _admit(node, ctrl, _req(ctrl), 0)
    assert (d.verdict, d.cause) == (ACK, "headroom")
    assert ctrl.last_ack_ns == 0


def test_recent_ack_gates_regardless_of_load():
    node, ctrl = _candidate(0.1)
    ctrl.last_ack_ns = 0
    d = _admit(node, ctrl, _req(ctrl), millis(50))
    assert (d.verdict, d.cause) == (REJECT, "recent-ack")
    assert ctrl.last_ack_ns == 0


def test_add_gate_boundary_is_inclusive():
    node, ctrl = _candidate(0.1)
    ctrl.last_ack_ns = 0
    at_gate = millis(CFG.add_gate_ms)
    d = _admit(node, ctrl, _req(ctrl), at_gate)
    assert d.cause == "recent-ack"
    d = _admit(node, ctrl, _req(ctrl), at_gate + 1)
    assert (d.verdict, d.cause) == (ACK, "headroom")


def test_overloaded_candidate_preempts_strongest_served_ue():
    node, ctrl = _candidate(1.0, {3: 20, 4: 8})
    d = _admit(node, ctrl, _req(ctrl, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause, d.victim) == (ACK, "preempted-weakest", 3)
    assert 3 not in node.queues  # released through release_secondary
    assert 4 in node.queues
    assert ctrl.last_ack_ns == 0


def test_preemption_names_its_victim_and_ends_no_binding():
    node, ctrl = _candidate(1.0, {3: 20})
    d = handle_sn_addition_request(node, ctrl, _req(ctrl, ue=7, mn_mcs=5),
                                   0, CFG, PREEMPTIVE)
    assert (d.verdict, d.victim) == (ACK, 3)
    assert 3 in node.queues   # only the caller's release ends a binding


def test_overloaded_candidate_refuses_when_requester_is_not_weaker():
    node, ctrl = _candidate(1.0, {3: 3})
    d = _admit(node, ctrl, _req(ctrl, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")
    assert 3 in node.queues
    assert ctrl.last_ack_ns is None


def test_equal_mcs_does_not_preempt():
    node, ctrl = _candidate(1.0, {3: 5})
    d = _admit(node, ctrl, _req(ctrl, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")


@pytest.mark.parametrize("mode, verdict, cause, released, acked_at", [
    (COVERAGE, ACK, "coverage", None, None),
    (GATED, REJECT, "overloaded", None, None),
    (PREEMPTIVE, ACK, "preempted-weakest", 3, 0),
])
def test_admission_modes_on_overloaded_candidate(mode, verdict, cause,
                                                 released, acked_at):
    node, ctrl = _candidate(1.0, {3: 20})
    d = _admit(node, ctrl, _req(ctrl, ue=7, mn_mcs=5), 0, mode=mode)
    assert (d.verdict, d.cause) == (verdict, cause)
    assert ctrl.last_ack_ns == acked_at
    assert sorted(node.queues) == ([3] if released is None else [])


def test_duplicate_binding_rejected_before_anything_else():
    # Admission does not look for an existing binding: a UE with a secondary
    # leg or a pending reconfiguration is left out before evaluation, and a
    # second binding is refused before it changes any state.
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=3, policy="rsrp")
    sc = Scenario(cfg, 1)
    bound, pending, free = sorted(sc.nodes[0].queues)
    ue = sc.ues[bound]
    ue.pending_reconfig = True
    sc._finalize_binding(ue)
    sc.ues[pending].pending_reconfig = True
    asked = []
    sc.policy = dataclasses.replace(
        sc.policy, evaluate=lambda a, n, single, t, c: asked.extend(single))
    sc._on_eval(sc.anchors[0], 0)
    assert asked == [free]

    before = (dict(sc.ntn_node.queues), list(sc.events),
              sc.ues[bound].pending_reconfig)
    with pytest.raises(AssertionError):
        sc._finalize_binding(ue)
    assert (dict(sc.ntn_node.queues), list(sc.events),
            sc.ues[bound].pending_reconfig) == before


def test_policy_table_covers_every_setting(monkeypatch):
    records = {name: policy_for(name) for name in POLICIES}
    assert [n for n, r in records.items() if r.evaluate is None] == ["off"]
    # evaluators are looked up when a record is built, not at import
    sentinel = object()
    monkeypatch.setattr(mc_control, "evaluate_bo_based", sentinel)
    assert policy_for("bo").evaluate is sentinel


# --- clocks, reconfiguration, release --------------------------------------

class _StubRng:
    def __init__(self, values):
        self._vals = list(values)

    def random(self):
        return self._vals.pop(0)


def test_eval_clock_jitter_resampled_each_period(monkeypatch):
    # One draw per sector at build, in sector order, then one per
    # evaluation, including the draws for the grid point past the end.
    stub = _StubRng([0.25] * 3 + [0.75] * 3 + [0.5] * 3 + [0.0] * 3
                    + [0.9] * 3)
    streams = simulation.RngStreams.stream
    monkeypatch.setattr(
        simulation.RngStreams, "stream",
        lambda rngs, name: stub if name == "eval-jitter"
        else streams(rngs, name))
    fired = []
    original = Scenario._on_eval

    def on_eval(sc, anchor, grid_ns):
        fired.append((sc.sim.now, anchor.node_id))
        original(sc, anchor, grid_ns)

    monkeypatch.setattr(Scenario, "_on_eval", on_eval)
    cfg = load_config(None, environ={}, n_sites=1, sim_duration_s=0.035,
                      warmup_s=0.01, eval_period_ms=10.0, eval_jitter_ms=1.0)
    Scenario(cfg, 1).run_to_end()
    # period anchors at multiples of 10 ms, jitter re-drawn each time
    assert fired == [(millis(t), s) for t in (0.25, 10.75, 20.5, 30.0)
                     for s in range(3)]
    assert stub._vals == []


def test_reconfiguration_completes_after_three_message_delays():
    sim = Simulator()
    done = []
    complete_reconfiguration(sim, millis(2.0), lambda: done.append(sim.now))
    sim.run_until(millis(5.0))
    assert done == []
    sim.run_until(millis(10.0))
    assert done == [millis(6.0)]


def test_zero_latency_reconfiguration_completes_same_timestamp():
    sim = Simulator()
    done = []
    complete_reconfiguration(sim, 0, lambda: done.append(sim.now))
    sim.run_until(0)
    assert done == [0]


def test_release_moves_leftover_pdus_back_to_anchor():
    cand = Node(52)
    anchor = Node(52)
    anchor.add_ue(1, 10)
    cand.add_ue(1, 22)
    for i in range(3):
        cand.queues[1].push(PdcpPdu(1, i, 12000, 0))
    n = release_secondary(cand, anchor, 1)
    assert n == 3
    assert 1 not in cand.queues
    q = anchor.queues[1]
    assert q.queued_bits - q.served_bits == 36000


def test_anchor_mcs_refresh_reaches_binding():
    # Preemption compares the victim's latest report, not the one it was
    # bound with: a bound UE whose anchor MCS falls from 10 to 2 is no
    # longer preempted by a requester at MCS 5.
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=2, policy="mcs",
                      meas_error_sigma_db=0.0)
    sc = Scenario(cfg, 1)
    bound, requester = sorted(sc.nodes[0].queues)
    ue = sc.ues[bound]
    ue.tn_sinr_db = MCS_THRESHOLDS_DB[10]
    sc._on_measurement(ue, millis(cfg.meas_period_ms))
    ue.pending_reconfig = True
    sc._finalize_binding(ue)
    sc.reports[requester] = _report(5)
    sc.cand.load.record(sc.ntn_node.n_res)

    def admit():
        d = handle_sn_addition_request(sc.ntn_node, sc.cand, requester, 0,
                                       cfg, PREEMPTIVE)
        if d.victim is not None:
            sc._release(d.victim, "preempted")
        return d

    ue.tn_sinr_db = MCS_THRESHOLDS_DB[2]
    sc._on_measurement(ue, millis(cfg.meas_period_ms))
    assert sc.reports[bound].mn_mcs == 2
    d = admit()
    assert (d.verdict, d.cause) == (REJECT, "overloaded")
    assert bound in sc.ntn_node.queues

    ue.tn_sinr_db = MCS_THRESHOLDS_DB[10]
    sc._on_measurement(ue, millis(cfg.meas_period_ms))
    d = admit()
    assert (d.verdict, d.cause) == (ACK, "preempted-weakest")
    assert bound not in sc.ntn_node.queues
