import pytest

from ntnmc import mc_control
from ntnmc.channel import McsTable
from ntnmc.config import POLICIES, ScenarioConfig
from ntnmc.dataplane import Node, PdcpPdu, ROLE_MN, ROLE_SN, compute_load
from ntnmc.engine import Simulator, millis
from ntnmc.mc_control import (ACK, COVERAGE, GATED, PREEMPTIVE, REJECT,
                              ControllerState, Measurement,
                              SnAdditionRequest, advance_eval_clock,
                              complete_reconfiguration, evaluate_bo_based,
                              evaluate_mcs_based, evaluate_rsrp_based,
                              handle_sn_addition_request, init_eval_clock,
                              on_measurement_report, policy_for,
                              release_secondary, update_mn_mcs)

CFG = ScenarioConfig()
TABLE = McsTable.default()
NTN_CELL = 100


def _ctrl_with_reports(reports, mcs_by_ue, t=0):
    """Anchor controller preloaded with candidate measurements."""
    ctrl = ControllerState("tn0")
    for (ue, cell), (age_ms, rsrp) in reports.items():
        ctrl.reports[(ue, cell)] = Measurement(t - millis(age_ms), rsrp, 10.0)
    ctrl.reported_mcs.update(mcs_by_ue)
    return ctrl


def _cand_at_load(fraction, n_prb=52):
    """Candidate node whose tracked load reads exactly `fraction`."""
    node = Node("ntn", "ntn_beam", n_prb, TABLE, 100)
    node.load.record(round(fraction * node.n_res), 0)
    assert compute_load(node) == pytest.approx(fraction, abs=1e-3)
    return node


def _req(ue=7, mn_mcs=5):
    return SnAdditionRequest(ue, "tn0", NTN_CELL, mn_mcs)


def _admit(cand, ctrl, req, t_ns, mode=PREEMPTIVE):
    """Admission as a scenario runs it: a preempted binding ends through
    `release_secondary`."""
    anchor = Node("tn0", "tn_sector", 52, TABLE, 100)
    return handle_sn_addition_request(
        cand, ctrl, req, t_ns, CFG, mode,
        lambda ue, cause: release_secondary(cand, ctrl, anchor, ue, cause))


def _anchor_with_occupancy(occupancy):
    """Anchor node whose transmit queues are filled to the given fractions
    of the configured cap."""
    node = Node("tn0", "tn_sector", 52, TABLE, 100)
    for ue, frac in occupancy.items():
        node.add_ue(ue, ROLE_MN, 20)
        node.queues[ue].push(PdcpPdu(ue, 0, round(frac * CFG.ue_queue_bytes) * 8, 0))
    return node


# --- anchor-side evaluation ------------------------------------------------

def test_no_requests_when_all_links_are_healthy():
    ctrl = _ctrl_with_reports({(u, NTN_CELL): (50, -110.0) for u in range(4)},
                              {u: 16 for u in range(4)})
    assert evaluate_mcs_based(ctrl, None, list(range(4)), 0, CFG) == []


def test_no_requests_without_single_connectivity_ues():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [], 0, CFG) == []


def test_weak_ue_with_qualified_candidate_triggers_one_request():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (50, -110.0)}, {1: 3})
    reqs = evaluate_mcs_based(ctrl, None, [1], 0, CFG)
    assert len(reqs) == 1
    req = reqs[0]
    assert (req.ue_id, req.candidate_cell, req.mn_mcs) == (1, NTN_CELL, 3)
    assert ctrl.last_request[NTN_CELL] == 0


def test_weak_ue_with_faint_candidate_stays_single():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (50, -112.0)}, {1: 3})
    assert evaluate_mcs_based(ctrl, None, [1], 0, CFG) == []
    # the faint candidate must not burn the per-cell request gate
    assert NTN_CELL not in ctrl.last_request


def test_rsrp_floor_is_inclusive():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (50, CFG.rsrp_min_dbm)}, {1: 3})
    assert len(evaluate_mcs_based(ctrl, None, [1], 0, CFG)) == 1


def test_measurement_staleness_boundary():
    fresh = _ctrl_with_reports({(1, NTN_CELL): (CFG.meas_staleness_ms, -110.0)},
                               {1: 3})
    assert len(evaluate_mcs_based(fresh, None, [1], 0, CFG)) == 1
    stale = ControllerState("tn0")
    stale.reports[(1, NTN_CELL)] = Measurement(-millis(CFG.meas_staleness_ms) - 1,
                                               -110.0, 10.0)
    stale.reported_mcs[1] = 3
    assert evaluate_mcs_based(stale, None, [1], 0, CFG) == []


def test_request_gate_blocks_repeat_asks_to_same_cell():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (50, -110.0)}, {1: 3, 2: 3})
    assert len(evaluate_mcs_based(ctrl, None, [1], 0, CFG)) == 1
    later = millis(50)
    ctrl.reports[(2, NTN_CELL)] = Measurement(later, -110.0, 10.0)
    assert evaluate_mcs_based(ctrl, None, [2], later, CFG) == []
    at_gate = millis(CFG.request_gate_ms)
    ctrl.reports[(2, NTN_CELL)] = Measurement(at_gate, -110.0, 10.0)
    assert len(evaluate_mcs_based(ctrl, None, [2], at_gate, CFG)) == 1


def test_weakest_reported_ue_goes_first():
    ctrl = _ctrl_with_reports({(u, NTN_CELL): (10, -110.0) for u in (1, 2, 3)},
                              {1: 5, 3: 3})  # ue 2 has no decodable anchor link
    reqs = evaluate_mcs_based(ctrl, None, [1, 2, 3], 0, CFG)
    # one cell, so the gate leaves exactly one request: the unreported UE
    assert [r.ue_id for r in reqs] == [2]
    assert reqs[0].mn_mcs is None


def test_rsrp_policy_asks_for_every_covered_ue():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (10, -110.0),
                               (2, NTN_CELL): (10, -112.0)},
                              {1: 20, 2: 20})
    reqs = evaluate_rsrp_based(ctrl, None, [1, 2], 0, CFG)
    assert [r.ue_id for r in reqs] == [1]


def test_bo_policy_prefers_the_most_backlogged():
    ctrl = _ctrl_with_reports({(u, NTN_CELL): (10, -110.0) for u in (1, 2, 3)},
                              {u: 20 for u in (1, 2, 3)})
    anchor = _anchor_with_occupancy({1: 0.85, 2: 0.99, 3: 0.2})
    reqs = evaluate_bo_based(ctrl, anchor, [1, 2, 3], 0, CFG)
    assert [r.ue_id for r in reqs] == [2]  # gate spent on the fullest queue


def test_bo_policy_ignores_queues_below_threshold():
    ctrl = _ctrl_with_reports({(1, NTN_CELL): (10, -110.0)}, {1: 20})
    anchor = _anchor_with_occupancy({1: 0.5})
    assert evaluate_bo_based(ctrl, anchor, [1], 0, CFG) == []


def test_unknown_ue_report_is_dropped_and_counted():
    ctrl = ControllerState("tn0")
    ok = on_measurement_report(ctrl, {1}, 2, NTN_CELL,
                               Measurement(0, -110.0, 10.0))
    assert ok is False
    assert ctrl.unknown_ue_reports == 1
    assert ctrl.reports == {}
    assert on_measurement_report(ctrl, {1}, 1, NTN_CELL,
                                 Measurement(0, -110.0, 10.0)) is True
    assert (1, NTN_CELL) in ctrl.reports


# --- candidate-side admission ----------------------------------------------

def test_ack_when_candidate_has_headroom():
    ctrl = ControllerState("ntn")
    d = _admit(_cand_at_load(0.5), ctrl, _req(), 0)
    assert (d.verdict, d.cause) == (ACK, "headroom")
    assert ctrl.last_ack_ns == 0


def test_recent_ack_gates_regardless_of_load():
    ctrl = ControllerState("ntn")
    ctrl.last_ack_ns = 0
    d = _admit(_cand_at_load(0.1), ctrl, _req(), millis(50))
    assert (d.verdict, d.cause) == (REJECT, "recent-ack")
    assert ctrl.last_ack_ns == 0


def test_add_gate_boundary_is_inclusive():
    ctrl = ControllerState("ntn")
    ctrl.last_ack_ns = 0
    at_gate = millis(CFG.add_gate_ms)
    d = _admit(_cand_at_load(0.1), ctrl, _req(), at_gate)
    assert d.cause == "recent-ack"
    d = _admit(_cand_at_load(0.1), ctrl, _req(), at_gate + 1)
    assert (d.verdict, d.cause) == (ACK, "headroom")


def test_overloaded_candidate_preempts_strongest_served_ue():
    ctrl = ControllerState("ntn")
    ctrl.bindings[3] = 20
    ctrl.bindings[4] = 8
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause, d.released_ue) == (ACK, "preempted-weakest", 3)
    assert 3 not in ctrl.bindings  # released through release_secondary
    assert 4 in ctrl.bindings
    assert ctrl.last_ack_ns == 0


def test_preemption_calls_release_hook_when_given():
    ctrl = ControllerState("ntn")
    ctrl.bindings[3] = 20
    released = []
    d = handle_sn_addition_request(_cand_at_load(1.0), ctrl,
                                   _req(ue=7, mn_mcs=5), 0, CFG, PREEMPTIVE,
                                   lambda ue, cause:
                                   released.append((ue, cause)))
    assert d.released_ue == 3
    assert released == [(3, "preempted")]
    assert 3 in ctrl.bindings   # only the hook ends a binding


def test_overloaded_candidate_refuses_when_requester_is_not_weaker():
    ctrl = ControllerState("ntn")
    ctrl.bindings[3] = 3
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause, d.released_ue) == (REJECT, "overloaded", None)
    assert 3 in ctrl.bindings
    assert ctrl.last_ack_ns is None


def test_equal_mcs_does_not_preempt():
    ctrl = ControllerState("ntn")
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
    ctrl = ControllerState("ntn")
    ctrl.bindings[3] = 20
    d = _admit(_cand_at_load(1.0), ctrl, _req(ue=7, mn_mcs=5), 0, mode=mode)
    assert (d.verdict, d.cause, d.released_ue) == (verdict, cause, released)
    assert ctrl.last_ack_ns == acked_at
    assert (3 in ctrl.bindings) == (released is None)

    bound = ControllerState("ntn")
    bound.bindings[7] = 5
    d = _admit(_cand_at_load(1.0), bound, _req(ue=7), 0, mode=mode)
    assert (d.verdict, d.cause) == (REJECT, "already-bound")


def test_policy_table_covers_every_setting(monkeypatch):
    records = {name: policy_for(name) for name in POLICIES}
    assert [n for n, r in records.items() if r.evaluate is None] == ["off"]
    # evaluators are looked up when a record is built, not at import
    sentinel = object()
    monkeypatch.setattr(mc_control, "evaluate_bo_based", sentinel)
    assert policy_for("bo").evaluate is sentinel


def test_duplicate_binding_rejected_before_anything_else():
    ctrl = ControllerState("ntn")
    ctrl.bindings[7] = 5
    d = _admit(_cand_at_load(0.1), ctrl, _req(ue=7), 0)
    assert (d.verdict, d.cause) == (REJECT, "already-bound")
    assert ctrl.last_ack_ns is None


# --- clocks, reconfiguration, release --------------------------------------

class _StubRng:
    def __init__(self, values):
        self._vals = list(values)

    def random(self):
        return self._vals.pop(0)


def test_eval_clock_jitter_resampled_each_period():
    ctrl = ControllerState("tn0")
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
    cand = Node("ntn", "ntn_beam", 52, TABLE, 100)
    anchor = Node("tn0", "tn_sector", 52, TABLE, 100)
    anchor.add_ue(1, ROLE_MN, 10)
    cand.add_ue(1, ROLE_SN, 22)
    for i in range(3):
        cand.queues[1].push(PdcpPdu(1, i, 12000, 0))
    ctrl = ControllerState("ntn")
    ctrl.bindings[1] = 10
    n = release_secondary(cand, ctrl, anchor, 1, "preempted")
    assert n == 3
    assert 1 not in ctrl.bindings
    assert 1 not in cand.roles
    assert anchor.queues[1].remaining_bits() == 36000


def test_release_of_unbound_ue_is_counted_noop():
    cand = Node("ntn", "ntn_beam", 52, TABLE, 100)
    anchor = Node("tn0", "tn_sector", 52, TABLE, 100)
    ctrl = ControllerState("ntn")
    assert release_secondary(cand, ctrl, anchor, 9, "preempted") is None
    assert ctrl.noop_releases == 1


def test_anchor_mcs_refresh_reaches_binding():
    ctrl = ControllerState("ntn")
    ctrl.bindings[1] = 10
    update_mn_mcs(ctrl, 1, 2)
    assert ctrl.bindings[1] == 2
    update_mn_mcs(ctrl, 2, 9)  # unbound UE, silently ignored
    assert 2 not in ctrl.bindings
