import dataclasses
import math

import pytest

from ntnmc import mc_control, simulation
from ntnmc.channel import MCS_THRESHOLDS_DB
from ntnmc.config import POLICIES, ScenarioConfig, load_config
from ntnmc.dataplane import Node, PdcpPdu, schedule_tti
from ntnmc.engine import Simulator, millis
from ntnmc.mc_control import (ACK, COVERAGE, GATED, PREEMPTIVE, REJECT,
                              CandidateState, Measurement,
                              complete_reconfiguration, evaluate_bo_based,
                              evaluate_mcs_based, evaluate_rsrp_based,
                              handle_sn_addition_request, policy_for,
                              release_secondary)
from ntnmc.simulation import Scenario

CFG = ScenarioConfig()
# The oldest report time still fresh for an evaluation at t = 0.
FRESH = -millis(CFG.meas_staleness_ms)
GATE_NS = millis(CFG.add_gate_ms)


def _report(mn_mcs, t_ns=0, rsrp_dbm=-110.0):
    return Measurement(t_ns, rsrp_dbm, 0.0, mn_mcs)


def _reports(reports, mcs_by_ue, t=0):
    """Latest reports, given per UE as (age_ms, rsrp_dbm) plus the anchor
    MCS in `mcs_by_ue` (None if absent)."""
    return {ue: _report(mcs_by_ue.get(ue), t - millis(age_ms), rsrp)
            for ue, (age_ms, rsrp) in reports.items()}


def _candidate(fraction, mcs_by_bound_ue=None):
    """The satellite beam, serving a secondary leg for each UE of
    `mcs_by_bound_ue`; its admission state, whose load reads `fraction`;
    and reports that give each of those UEs that anchor MCS."""
    node = Node(52)
    ctrl = CandidateState(100, node.n_res, GATE_NS)
    ctrl.record(round(fraction * node.n_res))
    assert ctrl.load_fraction() == pytest.approx(fraction, abs=1e-3)
    reports = {}
    for ue, mcs in (mcs_by_bound_ue or {}).items():
        node.add_ue(ue, 22)
        reports[ue] = _report(mcs)
    return node, ctrl, reports


def _req(reports, ue=7, mn_mcs=5):
    """A request for `ue`, whose latest report gives anchor MCS `mn_mcs`."""
    reports[ue] = _report(mn_mcs)
    return ue


def _admit(cand, ctrl, reports, ue_id, t_ns, mode=PREEMPTIVE):
    """Admission as a scenario runs it: the anchor also serves every UE
    bound at the candidate, and the victim an ACK names is released through
    `release_secondary`."""
    anchor = Node(52)
    for ue in cand.queues:
        anchor.add_ue(ue, 10)
    d = handle_sn_addition_request(cand, ctrl, reports, ue_id, t_ns, CFG,
                                   mode)
    if d.victim is not None:
        release_secondary(cand, anchor, d.victim)
    return d


def _anchor_with_occupancy(occupancy):
    """Anchor node whose transmit queues are filled to the given fractions
    of the configured cap."""
    node = Node(52)
    for ue, frac in occupancy.items():
        node.add_ue(ue, 20)
        node.queues[ue].push(PdcpPdu(0, round(frac * CFG.ue_queue_bytes) * 8, 0))
    return node


# --- anchor-side evaluation ------------------------------------------------

def test_no_requests_when_all_links_are_healthy():
    reports = _reports({u: (50, -110.0) for u in range(4)},
                       {u: 16 for u in range(4)})
    assert evaluate_mcs_based(reports, None, list(range(4)), FRESH,
                              CFG) is None


def test_no_requests_without_single_connectivity_ues():
    reports = _reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(reports, None, [], FRESH, CFG) is None


def test_weak_ue_with_qualified_candidate_triggers_one_request():
    reports = _reports({1: (50, -110.0)}, {1: 3})
    assert evaluate_mcs_based(reports, None, [1], FRESH, CFG) == 1


def test_weak_ue_with_faint_candidate_stays_single():
    reports = _reports({1: (50, -112.0)}, {1: 3})
    assert evaluate_mcs_based(reports, None, [1], FRESH, CFG) is None


def test_rsrp_floor_is_inclusive():
    reports = _reports({1: (50, CFG.rsrp_min_dbm)}, {1: 3})
    assert evaluate_mcs_based(reports, None, [1], FRESH, CFG) == 1


def test_measurement_staleness_boundary():
    fresh = _reports({1: (CFG.meas_staleness_ms, -110.0)}, {1: 3})
    assert evaluate_mcs_based(fresh, None, [1], FRESH, CFG) == 1
    stale = {1: _report(3, -millis(CFG.meas_staleness_ms) - 1)}
    assert evaluate_mcs_based(stale, None, [1], FRESH, CFG) is None


def test_weakest_reported_ue_goes_first():
    reports = _reports({u: (10, -110.0) for u in (1, 2, 3)},
                       {1: 5, 3: 3})  # ue 2: no decodable anchor link
    # the unreported UE ranks below every decodable anchor link
    assert evaluate_mcs_based(reports, None, [1, 2, 3], FRESH, CFG) == 2
    assert reports[2].mn_mcs is None


def test_rsrp_policy_asks_for_every_covered_ue():
    reports = _reports({1: (10, -110.0), 2: (10, -112.0)},
                       {1: 20, 2: 20})
    assert evaluate_rsrp_based(reports, None, [1, 2], FRESH, CFG) == 1


def test_bo_policy_prefers_the_most_backlogged():
    reports = _reports({u: (10, -110.0) for u in (1, 2, 3)},
                       {u: 20 for u in (1, 2, 3)})
    anchor = _anchor_with_occupancy({1: 0.85, 2: 0.99, 3: 0.2})
    assert evaluate_bo_based(reports, anchor, [1, 2, 3], FRESH, CFG) == 2


def test_bo_policy_ignores_queues_below_threshold():
    reports = _reports({1: (10, -110.0)}, {1: 20})
    anchor = _anchor_with_occupancy({1: 0.5})
    assert evaluate_bo_based(reports, anchor, [1], FRESH, CFG) is None


def test_bo_evaluator_reads_the_exact_occupancy_fraction():
    # 400,000 of 1,000,000 queued bytes is 0.4 exactly, an empty queue 0.0
    anchor = Node(52)
    anchor.add_ue(1, 10)
    anchor.add_ue(2, 10)
    anchor.queues[1].push(PdcpPdu(0, 400_000 * 8, 0))
    reports = _reports({1: (10, -110.0), 2: (10, -110.0)}, {})

    def named(single, threshold):
        cfg = dataclasses.replace(CFG, ue_queue_bytes=1_000_000,
                                  bo_threshold_frac=threshold)
        return evaluate_bo_based(reports, anchor, single, FRESH, cfg)

    assert named([1, 2], 0.4) == 1
    assert named([1, 2], math.nextafter(0.4, 1.0)) is None
    assert named([2], math.ulp(0.0)) is None


@pytest.mark.parametrize("evaluate", [evaluate_mcs_based,
                                      evaluate_rsrp_based, evaluate_bo_based])
@pytest.mark.parametrize("top_report", [
    (CFG.meas_staleness_ms + 1, -110.0),
    (10, CFG.rsrp_min_dbm - 0.5),
], ids=["stale", "below-rsrp-floor"])
def test_ineligible_top_ranked_ue_passes_the_ask_on(evaluate, top_report):
    # UE 1 ranks first under every policy: lower MCS, lower id, fuller
    # queue. When its report rules it out, UE 2 is asked for instead.
    reports = _reports({1: top_report, 2: (10, -110.0)},
                       {1: 2, 2: 3})
    anchor = _anchor_with_occupancy({1: 0.99, 2: 0.9})
    assert evaluate(reports, anchor, [2, 1], FRESH, CFG) == 2


# --- request gate, held by the scenario --------------------------------------

def _gate_scenario():
    """An `mcs` scenario, built and not run, that records the requests its
    evaluations send instead of dispatching them."""
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=2, policy="mcs")
    sc = Scenario(cfg, 1)
    sent = []
    sc._dispatch_request = lambda ue_id, t_ns: sent.append((ue_id, t_ns))
    return sc, sent


def _eval_at(sc, sector_id, t_ns):
    """The evaluation of `sector_id` for grid point `t_ns`, fired then."""
    sc.sim.now = t_ns
    sc._on_eval(sector_id, t_ns)


def test_named_ue_closes_its_sectors_request_gate():
    sc, sent = _gate_scenario()
    unreported, weak = sorted(sc.nodes[4].queues)
    t = millis(30)
    sc.reports.update(_reports({weak: (10, -110.0)}, {weak: 3}, t))
    _eval_at(sc, 4, t)
    assert sent == [(weak, t)]
    assert sc.last_request_ns == [None] * 4 + [t] + [None] * 4


def test_faint_or_stale_ues_leave_the_request_gate_open():
    sc, sent = _gate_scenario()
    faint, stale = sorted(sc.nodes[0].queues)
    t = millis(500)
    sc.reports.update(_reports(
        {faint: (10, CFG.rsrp_min_dbm - 0.5),
         stale: (CFG.meas_staleness_ms + 1, -110.0)}, {faint: 3, stale: 3}, t))
    _eval_at(sc, 0, t)
    assert sent == []
    assert sc.last_request_ns == [None] * 9


def test_request_gate_blocks_repeat_asks_to_same_cell():
    sc, _sent = _gate_scenario()
    asked = []
    sc.policy = dataclasses.replace(
        sc.policy,
        evaluate=lambda r, node, single, fresh, c: asked.append(
            (sc.nodes.index(node), sc.sim.now)))
    sc.last_request_ns[0] = 0
    at_gate = millis(sc.cfg.request_gate_ms)
    for sector_id, t in ((0, millis(50)), (1, millis(50)), (0, at_gate - 1),
                         (0, at_gate)):
        _eval_at(sc, sector_id, t)
    # a closed gate skips the evaluator; another sector's gate is its own
    assert asked == [(1, millis(50)), (0, at_gate)]


# --- candidate-side admission ----------------------------------------------

def test_ack_when_candidate_has_headroom():
    node, ctrl, reports = _candidate(0.5)
    d = _admit(node, ctrl, reports, _req(reports), 0)
    assert (d.verdict, d.cause) == (ACK, "headroom")
    assert ctrl.last_ack_ns == 0


def test_recent_ack_gates_regardless_of_load():
    node, ctrl, reports = _candidate(0.1)
    ctrl.last_ack_ns = 0
    d = _admit(node, ctrl, reports, _req(reports), millis(50))
    assert (d.verdict, d.cause) == (REJECT, "recent-ack")
    assert ctrl.last_ack_ns == 0


def test_add_gate_boundary_is_inclusive():
    node, ctrl, reports = _candidate(0.1)
    ctrl.last_ack_ns = 0
    at_gate = millis(CFG.add_gate_ms)
    d = _admit(node, ctrl, reports, _req(reports), at_gate)
    assert d.cause == "recent-ack"
    d = _admit(node, ctrl, reports, _req(reports), at_gate + 1)
    assert (d.verdict, d.cause) == (ACK, "headroom")


def test_overloaded_candidate_preempts_strongest_served_ue():
    node, ctrl, reports = _candidate(1.0, {3: 20, 4: 8})
    d = _admit(node, ctrl, reports, _req(reports, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause, d.victim) == (ACK, "preempted-weakest", 3)
    assert 3 not in node.queues  # released through release_secondary
    assert 4 in node.queues
    assert ctrl.last_ack_ns == 0


def test_preemption_names_its_victim_and_ends_no_binding():
    node, ctrl, reports = _candidate(1.0, {3: 20})
    d = handle_sn_addition_request(node, ctrl, reports,
                                   _req(reports, ue=7, mn_mcs=5), 0, CFG,
                                   PREEMPTIVE)
    assert (d.verdict, d.victim) == (ACK, 3)
    assert 3 in node.queues   # only the caller's release ends a binding


def test_overloaded_candidate_refuses_when_requester_is_not_weaker():
    node, ctrl, reports = _candidate(1.0, {3: 3})
    d = _admit(node, ctrl, reports, _req(reports, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")
    assert 3 in node.queues
    assert ctrl.last_ack_ns is None


def test_equal_mcs_does_not_preempt():
    node, ctrl, reports = _candidate(1.0, {3: 5})
    d = _admit(node, ctrl, reports, _req(reports, ue=7, mn_mcs=5), 0)
    assert (d.verdict, d.cause) == (REJECT, "overloaded")


@pytest.mark.parametrize("mode, verdict, cause, released, acked_at", [
    (COVERAGE, ACK, "coverage", None, None),
    (GATED, REJECT, "overloaded", None, None),
    (PREEMPTIVE, ACK, "preempted-weakest", 3, 0),
])
def test_admission_modes_on_overloaded_candidate(mode, verdict, cause,
                                                 released, acked_at):
    node, ctrl, reports = _candidate(1.0, {3: 20})
    d = _admit(node, ctrl, reports, _req(reports, ue=7, mn_mcs=5), 0,
               mode=mode)
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
    sc._on_eval(0, 0)
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

    def on_eval(sc, sector_id, grid_ns):
        fired.append((sc.sim.now, sector_id))
        original(sc, sector_id, grid_ns)

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
        cand.queues[1].push(PdcpPdu(i, 12000, 0))
    n = release_secondary(cand, anchor, 1)
    assert n == 3
    assert 1 not in cand.queues
    q = anchor.queues[1]
    assert q.queued_bits - q.served_bits == 36000


def test_empty_queues_leave_load_at_zero():
    node = Node(52)
    node.add_ue(1, 10)
    # the REs granted in an idle TTI, as a scenario records them at the beam
    cand = CandidateState(100, node.n_res, GATE_NS)
    cand.record(schedule_tti(node))
    assert cand.load_fraction() == 0.0


def test_load_window_fractions_and_eviction():
    cand = CandidateState(100, 8736, GATE_NS)
    assert cand.load_fraction() == 0.0
    for _ in range(50):
        cand.record(8736)
    for _ in range(50):
        cand.record(0)
    assert cand.load_fraction() == 0.5

    small = CandidateState(4, 8736, GATE_NS)
    for _ in range(4):
        small.record(8736)
    assert small.load_fraction() == 1.0
    for _ in range(4):
        small.record(0)
    assert small.load_fraction() == 0.0


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
    sc.cand.record(sc.ntn_node.n_res)

    def admit():
        d = handle_sn_addition_request(sc.ntn_node, sc.cand, sc.reports,
                                       requester, 0, cfg, PREEMPTIVE)
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
