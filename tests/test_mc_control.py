import dataclasses

import pytest

from ntnmc import mc_control
from ntnmc.channel import McsTable
from ntnmc.config import POLICIES, ScenarioConfig, load_config
from ntnmc.dataplane import Node, PdcpPdu
from ntnmc.engine import Simulator, millis
from ntnmc.mc_control import (ACK, COVERAGE, GATED, PREEMPTIVE, REJECT,
                              AnchorState, CandidateState, Measurement,
                              SnAdditionRequest, advance_eval_clock,
                              complete_reconfiguration, evaluate_bo_based,
                              evaluate_mcs_based, evaluate_rsrp_based,
                              handle_sn_addition_request, init_eval_clock,
                              policy_for, release_secondary, update_mn_mcs)
from ntnmc.simulation import Scenario

CFG = ScenarioConfig()
TABLE = McsTable.default()


def _anchor_with_reports(reports, mcs_by_ue, t=0):
    """Anchor state preloaded with satellite-beam measurements, given per UE
    as (age_ms, rsrp_dbm)."""
    anchor = AnchorState("tn0")
    for ue, (age_ms, rsrp) in reports.items():
        anchor.reports[ue] = Measurement(t - millis(age_ms), rsrp)
    anchor.reported_mcs.update(mcs_by_ue)
    return anchor


def _cand_at_load(fraction, n_prb=52):
    """Candidate node whose tracked load reads exactly `fraction`."""
    node = Node(n_prb, TABLE, 100)
    node.load.record(round(fraction * node.n_res))
    assert node.load.fraction() == pytest.approx(fraction, abs=1e-3)
    return node


def _req(ue=7, mn_mcs=5):
    return SnAdditionRequest(ue, "tn0", mn_mcs)


def _admit(cand, ctrl, req, t_ns, mode=PREEMPTIVE):
    """Admission as a scenario runs it: the candidate and the anchor serve
    every bound UE, and a preempted binding ends through
    `release_secondary`."""
    anchor = Node(52, TABLE, 100)
    for ue in ctrl.bindings:
        anchor.add_ue(ue, 10)
        cand.add_ue(ue, 22)
    return handle_sn_addition_request(
        cand, ctrl, req, t_ns, CFG, mode,
        lambda ue, cause: release_secondary(cand, ctrl, anchor, ue))


def _anchor_with_occupancy(occupancy):
    """Anchor node whose transmit queues are filled to the given fractions
    of the configured cap."""
    node = Node(52, TABLE, 100)
    for ue, frac in occupancy.items():
        node.add_ue(ue, 20)
        node.queues[ue].push(PdcpPdu(ue, 0, round(frac * CFG.ue_queue_bytes) * 8, 0))
    return node


# --- anchor-side evaluation ------------------------------------------------

def test_no_requests_when_all_links_are_healthy():
    ctrl = _anchor_with_reports({u: (50, -110.0) for u in range(4)},
                                {u: 16 for u in range(4)})
    assert evaluate_mcs_based(ctrl, None, list(range(4)), 0, CFG) == []


def test_no_requests_without_single_connectivity_ues():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [], 0, CFG) == []


def test_weak_ue_with_qualified_candidate_triggers_one_request():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3})
    reqs = evaluate_mcs_based(ctrl, None, [1], 0, CFG)
    assert len(reqs) == 1
    req = reqs[0]
    assert (req.ue_id, req.mn_node_id, req.mn_mcs) == (1, "tn0", 3)
    assert ctrl.last_request_ns == 0


def test_weak_ue_with_faint_candidate_stays_single():
    ctrl = _anchor_with_reports({1: (50, -112.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) == []
    # the faint candidate must not burn the request gate
    assert ctrl.last_request_ns is None


def test_rsrp_floor_is_inclusive():
    ctrl = _anchor_with_reports({1: (50, CFG.rsrp_min_dbm)}, {1: 3})
    assert len(evaluate_mcs_based(ctrl, None, [1], 0, CFG)) == 1


def test_measurement_staleness_boundary():
    fresh = _anchor_with_reports({1: (CFG.meas_staleness_ms, -110.0)}, {1: 3})
    assert len(evaluate_mcs_based(fresh, None, [1], 0, CFG)) == 1
    stale = AnchorState("tn0")
    stale.reports[1] = Measurement(-millis(CFG.meas_staleness_ms) - 1, -110.0)
    stale.reported_mcs[1] = 3
    assert evaluate_mcs_based(stale, None, [1], 0, CFG) == []


def test_request_gate_blocks_repeat_asks_to_same_cell():
    ctrl = _anchor_with_reports({1: (50, -110.0)}, {1: 3, 2: 3})
    assert len(evaluate_mcs_based(ctrl, None, [1], 0, CFG)) == 1
    later = millis(50)
    ctrl.reports[2] = Measurement(later, -110.0)
    assert evaluate_mcs_based(ctrl, None, [2], later, CFG) == []
    at_gate = millis(CFG.request_gate_ms)
    ctrl.reports[2] = Measurement(at_gate, -110.0)
    assert len(evaluate_mcs_based(ctrl, None, [2], at_gate, CFG)) == 1


def test_weakest_reported_ue_goes_first():
    ctrl = _anchor_with_reports({u: (10, -110.0) for u in (1, 2, 3)},
                                {1: 5, 3: 3})  # ue 2 has no decodable anchor link
    reqs = evaluate_mcs_based(ctrl, None, [1, 2, 3], 0, CFG)
    # one cell, so the gate leaves exactly one request: the unreported UE
    assert [r.ue_id for r in reqs] == [2]
    assert reqs[0].mn_mcs is None


def test_rsrp_policy_asks_for_every_covered_ue():
    ctrl = _anchor_with_reports({1: (10, -110.0), 2: (10, -112.0)},
                                {1: 20, 2: 20})
    reqs = evaluate_rsrp_based(ctrl, None, [1, 2], 0, CFG)
    assert [r.ue_id for r in reqs] == [1]


def test_bo_policy_prefers_the_most_backlogged():
    ctrl = _anchor_with_reports({u: (10, -110.0) for u in (1, 2, 3)},
                                {u: 20 for u in (1, 2, 3)})
    anchor = _anchor_with_occupancy({1: 0.85, 2: 0.99, 3: 0.2})
    reqs = evaluate_bo_based(ctrl, anchor, [1, 2, 3], 0, CFG)
    assert [r.ue_id for r in reqs] == [2]  # gate spent on the fullest queue


def test_bo_policy_ignores_queues_below_threshold():
    ctrl = _anchor_with_reports({1: (10, -110.0)}, {1: 20})
    anchor = _anchor_with_occupancy({1: 0.5})
    assert evaluate_bo_based(ctrl, anchor, [1], 0, CFG) == []


# --- candidate-side admission ----------------------------------------------

def test_ack_when_candidate_has_headroom():
    ctrl = CandidateState()
    d = _admit(_cand_at_load(0.5), ctrl, _req(), 0)
    assert (d.verdict, d.cause) == (ACK, "headroom")
    assert ctrl.last_ack_ns == 0


def test_recent_ack_gates_regardless_of_load():
    ctrl = CandidateState()
    ctrl.last_ack_ns = 0
    d = _admit(_cand_at_load(0.1), ctrl, _req(), millis(50))
    assert (d.verdict, d.cause) == (REJECT, "recent-ack")
    assert ctrl.last_ack_ns == 0


def test_add_gate_boundary_is_inclusive():
    ctrl = CandidateState()
    ctrl.last_ack_ns = 0
    at_gate = millis(CFG.add_gate_ms)
    d = _admit(_cand_at_load(0.1), ctrl, _req(), at_gate)
    assert d.cause == "recent-ack"
    d = _admit(_cand_at_load(0.1), ctrl, _req(), at_gate + 1)
    assert (d.verdict, d.cause) == (ACK, "headroom")


def test_overloaded_candidate_preempts_strongest_served_ue():
    ctrl = CandidateState()
    ctrl.bindings[3] = 20
    ctrl.bindings[4] = 8
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (ACK, "preempted-weakest")
    assert 3 not in ctrl.bindings  # released through release_secondary
    assert 4 in ctrl.bindings
    assert ctrl.last_ack_ns == 0


def test_preemption_calls_release_hook_when_given():
    ctrl = CandidateState()
    ctrl.bindings[3] = 20
    released = []
    d = handle_sn_addition_request(_cand_at_load(1.0), ctrl,
                                   _req(ue=7, mn_mcs=5), 0, CFG, PREEMPTIVE,
                                   lambda ue, cause:
                                   released.append((ue, cause)))
    assert d.verdict == ACK
    assert released == [(3, "preempted")]
    assert 3 in ctrl.bindings   # only the hook ends a binding


def test_overloaded_candidate_refuses_when_requester_is_not_weaker():
    ctrl = CandidateState()
    ctrl.bindings[3] = 3
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")
    assert 3 in ctrl.bindings
    assert ctrl.last_ack_ns is None


def test_equal_mcs_does_not_preempt():
    ctrl = CandidateState()
    ctrl.bindings[3] = 5
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")


@pytest.mark.parametrize("mode, verdict, cause, released, acked_at", [
    (COVERAGE, ACK, "coverage", None, None),
    (GATED, REJECT, "overloaded", None, None),
    (PREEMPTIVE, ACK, "preempted-weakest", 3, 0),
])
def test_admission_modes_on_overloaded_candidate(mode, verdict, cause,
                                                 released, acked_at):
    ctrl = CandidateState()
    ctrl.bindings[3] = 20
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0, mode=mode)
    assert (d.verdict, d.cause) == (verdict, cause)
    assert ctrl.last_ack_ns == acked_at
    assert sorted(ctrl.bindings) == ([3] if released is None else [])


def test_duplicate_binding_rejected_before_anything_else():
    # Admission does not look for an existing binding: a UE with a secondary
    # leg or a pending reconfiguration is left out before evaluation, and a
    # second binding is refused before it changes any state.
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=3, policy="rsrp")
    sc = Scenario(cfg, 1)
    bound, pending, free = sorted(sc.nodes[0].queues)
    req = SnAdditionRequest(bound, 0, sc.anchors[0].reported_mcs.get(bound))
    sc.ues[bound].pending_reconfig = True
    sc._finalize_binding(req)
    sc.ues[pending].pending_reconfig = True
    asked = []
    sc.policy = dataclasses.replace(
        sc.policy, evaluate=lambda a, n, single, t, c: asked.extend(single) or [])
    sc._on_eval(sc.anchors[0], millis(cfg.eval_period_ms), 0)
    assert asked == [free]

    before = (dict(sc.cand.bindings), dict(sc.ntn_node.queues),
              list(sc.events), sc.ues[bound].pending_reconfig)
    with pytest.raises(AssertionError):
        sc._finalize_binding(req)
    assert (dict(sc.cand.bindings), dict(sc.ntn_node.queues),
            list(sc.events), sc.ues[bound].pending_reconfig) == before


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


def test_eval_clock_jitter_resampled_each_period():
    ctrl = AnchorState("tn0")
    init_eval_clock(ctrl, millis(1.0), _StubRng([0.25, 0.75]))
    assert ctrl.next_eval_ns == 250_000
    advance_eval_clock(ctrl, millis(10.0), millis(1.0), _StubRng([0.75]))
    # period anchors at multiples of 10 ms, jitter re-drawn each time
    assert ctrl.next_eval_ns == 10_750_000


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
    cand = Node(52, TABLE, 100)
    anchor = Node(52, TABLE, 100)
    anchor.add_ue(1, 10)
    cand.add_ue(1, 22)
    for i in range(3):
        cand.queues[1].push(PdcpPdu(1, i, 12000, 0))
    ctrl = CandidateState()
    ctrl.bindings[1] = 10
    n = release_secondary(cand, ctrl, anchor, 1)
    assert n == 3
    assert 1 not in ctrl.bindings
    assert 1 not in cand.queues
    assert anchor.queues[1].remaining_bits() == 36000


def test_anchor_mcs_refresh_reaches_binding():
    ctrl = CandidateState()
    ctrl.bindings[1] = 10
    update_mn_mcs(ctrl, 1, 2)
    assert ctrl.bindings[1] == 2
    update_mn_mcs(ctrl, 2, 9)  # unbound UE, silently ignored
    assert 2 not in ctrl.bindings
