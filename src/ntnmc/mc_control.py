"""Secondary-node addition control: measurement store, the three addition
policies and the table that names them, candidate-side admission,
reconfiguration and release.

Requester side (anchor gNB): stores measurement reports per (UE, cell),
evaluates its single-connectivity UEs on a jittered period and issues
addition requests, at most one per candidate cell per request-gate period.

Candidate side (the satellite beam): refuses anything within the add-gate of
its previous acknowledgement, admits freely while its load leaves headroom,
and above that may free a slot by releasing the served secondary whose
anchor-link MCS is highest, provided it strictly exceeds the requester's.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .dataplane import buffer_occupancy, compute_load
from .engine import millis

ACK = "ACK"
REJECT = "REJECT"

# Event-log labels.
EV_ADD = "ADD"
EV_RELEASE = "RELEASE"
EV_REJECT = "REJECT"

# Candidate-side admission modes (see `handle_sn_addition_request`).
COVERAGE = "COVERAGE"
GATED = "GATED"
PREEMPTIVE = "PREEMPTIVE"


def _mcs_key(mcs):
    # UEs whose anchor link is below the MCS table floor sort before MCS 0.
    return -1 if mcs is None else mcs


@dataclass(frozen=True)
class Measurement:
    t_ns: int
    rsrp_dbm: float
    sinr_db: float


@dataclass
class SnAdditionRequest:
    ue_id: int
    mn_node_id: int
    candidate_cell: int
    mn_mcs: Optional[int]


@dataclass
class Decision:
    verdict: str
    cause: str
    released_ue: Optional[int] = None


class ControllerState:
    """Per-gNB dual-connectivity control state (requester and candidate)."""

    def __init__(self, node_id):
        self.node_id = node_id
        # requester side
        self.reports = {}        # (ue_id, cell_id) -> Measurement
        self.reported_mcs = {}   # ue_id -> anchor-link MCS from the last report
        self.last_request = {}   # cell_id -> time the last addition request was sent
        self.next_eval_ns = 0
        self.t_prev_ns = 0
        self.unknown_ue_reports = 0
        # candidate side
        self.last_ack_ns = None
        # ue_id -> last-known anchor-link MCS of every UE this cell serves as
        # a secondary; the one record of who has a secondary leg
        self.bindings = {}
        self.aborted_reconfigs = 0
        self.noop_releases = 0


def on_measurement_report(ctrl, served_ues, ue_id, cell_id, meas):
    """Store a report, newest per (UE, cell) wins; reports for UEs this gNB
    does not serve are dropped and counted."""
    if ue_id not in served_ues:
        ctrl.unknown_ue_reports += 1
        return False
    ctrl.reports[(ue_id, cell_id)] = meas
    return True


def init_eval_clock(ctrl, jitter_ns, rng):
    t_del = round(rng.random() * jitter_ns)
    ctrl.next_eval_ns = t_del
    ctrl.t_prev_ns = t_del


def advance_eval_clock(ctrl, period_ns, jitter_ns, rng):
    """next = t + period - t_prev + t_del: the fresh jitter replaces the old
    one so evaluation k fires at k*period + t_del_k and jitter never drifts."""
    t_del = round(rng.random() * jitter_ns)
    ctrl.next_eval_ns += period_ns - ctrl.t_prev_ns + t_del
    ctrl.t_prev_ns = t_del


def _best_candidate(ctrl, ue_id, t_ns, cfg):
    """Freshest-known candidate cell with the highest RSRP among cells not
    asked within the request gate. Returns (cell_id, rsrp_dbm) or None."""
    stale_ns = millis(cfg.meas_staleness_ms)
    gate_ns = millis(cfg.request_gate_ms)
    best = None
    for (u, cell_id), meas in ctrl.reports.items():
        if u != ue_id:
            continue
        if t_ns - meas.t_ns > stale_ns:
            continue
        last = ctrl.last_request.get(cell_id)
        if last is not None and t_ns - last < gate_ns:
            continue
        if best is None or (meas.rsrp_dbm, -cell_id) > (best[1], -best[0]):
            best = (cell_id, meas.rsrp_dbm)
    return best


def _try_request(ctrl, ue_id, t_ns, cfg):
    best = _best_candidate(ctrl, ue_id, t_ns, cfg)
    if best is None:
        return None
    cell_id, rsrp = best
    if rsrp < cfg.rsrp_min_dbm:
        return None
    ctrl.last_request[cell_id] = t_ns
    return SnAdditionRequest(ue_id, ctrl.node_id, cell_id,
                             ctrl.reported_mcs.get(ue_id))


def evaluate_mcs_based(ctrl, node, single_ues, t_ns, cfg):
    """Scan single-connectivity UEs in ascending anchor-MCS order (ties by
    UE id) and stop at the first whose MCS exceeds the threshold."""
    requests = []
    order = sorted(single_ues,
                   key=lambda u: (_mcs_key(ctrl.reported_mcs.get(u)), u))
    for ue_id in order:
        if _mcs_key(ctrl.reported_mcs.get(ue_id)) > cfg.mcs_threshold:
            break
        req = _try_request(ctrl, ue_id, t_ns, cfg)
        if req is not None:
            requests.append(req)
    return requests


def evaluate_rsrp_based(ctrl, node, single_ues, t_ns, cfg):
    """Request a secondary for every single-connectivity UE with a fresh
    candidate at or above the RSRP floor."""
    requests = []
    for ue_id in sorted(single_ues):
        req = _try_request(ctrl, ue_id, t_ns, cfg)
        if req is not None:
            requests.append(req)
    return requests


def evaluate_bo_based(ctrl, node, single_ues, t_ns, cfg):
    """Like the RSRP policy but only for UEs whose transmit queue at the
    anchor `node` has filled past the occupancy threshold, most backlogged
    first."""
    occupancy = {u: buffer_occupancy(node, u, cfg.ue_queue_bytes)
                 for u in single_ues}
    crossed = [u for u in single_ues if occupancy[u] >= cfg.bo_threshold_frac]
    requests = []
    for ue_id in sorted(crossed, key=lambda u: (-occupancy[u], u)):
        req = _try_request(ctrl, ue_id, t_ns, cfg)
        if req is not None:
            requests.append(req)
    return requests


@dataclass(frozen=True)
class Policy:
    """One setting of the comparison, as the scenario wires it.

    `evaluate(ctrl, node, single_ues, t_ns, cfg)` is the anchor-side
    evaluator; None (`off`) disables evaluation and data requests entirely.
    `admission` is the candidate-side mode. The MCS policy goes through the
    full admission (add gate, load headroom, preemptive release). The
    occupancy policy uses the same admission without preemption, so it never
    releases. The RSRP policy is plain coverage-triggered addition: the
    candidate accepts every first request for a UE, which is what lets it
    reach the whole eligible population within a short run. `add_cause`
    labels the setting's ADD events.
    """
    evaluate: Optional[Callable]
    admission: Optional[str]
    add_cause: Optional[str]


def policy_for(name):
    """The record of setting `name`, one of `config.POLICIES`.

    Built on each call from this module's attributes, so an evaluator that
    is replaced at run time (say, by a wrapper that counts its calls) is the
    one a scenario built afterwards uses.
    """
    return {
        "mcs": Policy(evaluate_mcs_based, PREEMPTIVE, "admitted"),
        "rsrp": Policy(evaluate_rsrp_based, COVERAGE, "coverage"),
        "bo": Policy(evaluate_bo_based, GATED, "admitted"),
        "off": Policy(None, None, None),
    }[name]


def handle_sn_addition_request(cand_node, ctrl, req, t_ns, cfg, mode,
                               release_fn):
    """Candidate-side admission for one addition request.

    Every mode first refuses a UE that is already bound. `COVERAGE` then
    accepts without load or add-gate checks and leaves the add gate alone.
    `GATED` and `PREEMPTIVE` check, in order, the recent-ack gate, load
    headroom and, for `PREEMPTIVE` only, preemption; an overloaded `GATED`
    candidate simply refuses. Only their ACKs re-arm the add gate.
    `release_fn(ue_id, cause)` tears down a preempted binding; it must end
    in `release_secondary`.
    """
    if req.ue_id in ctrl.bindings:
        return Decision(REJECT, "already-bound")
    if mode == COVERAGE:
        return Decision(ACK, "coverage")
    if (ctrl.last_ack_ns is not None
            and t_ns - ctrl.last_ack_ns <= millis(cfg.add_gate_ms)):
        return Decision(REJECT, "recent-ack")
    if compute_load(cand_node) <= cfg.load_ack_max:
        ctrl.last_ack_ns = t_ns
        return Decision(ACK, "headroom")
    if mode == PREEMPTIVE and ctrl.bindings:
        victim_id, victim_mcs = max(
            ctrl.bindings.items(),
            key=lambda kv: (_mcs_key(kv[1]), -kv[0]))
        if _mcs_key(victim_mcs) > _mcs_key(req.mn_mcs):
            release_fn(victim_id, "preempted")
            ctrl.last_ack_ns = t_ns
            return Decision(ACK, "preempted-weakest", victim_id)
    return Decision(REJECT, "overloaded")


def complete_reconfiguration(sim, latency_ns, finalize, *args):
    """Three-message reconfiguration (anchor->UE, UE->anchor,
    anchor->secondary); the binding activates with the last message, which
    calls `finalize(*args)`. `finalize` must itself abort if the UE got a
    secondary in the meantime.

    Each message is sent when the one before it arrives, so the last one
    fires after every event of its instant that was scheduled before it was
    sent. One event scheduled 3 * `latency_ns` ahead would fire before those
    scheduled in the meantime; with zero evaluation jitter and a latency of
    10 ms that moves a binding ahead of a data-request cycle and changes the
    results."""
    def msg3():
        finalize(*args)

    def msg2():
        sim.schedule_in(latency_ns, msg3)

    def msg1():
        sim.schedule_in(latency_ns, msg2)

    sim.schedule_in(latency_ns, msg1)


def release_secondary(cand_node, ctrl, mn_node, ue_id, cause):
    """Tear down one binding; secondary-queued PDUs go back to the anchor.
    Releasing an unbound UE is a counted no-op. Returns the number of PDUs
    returned to the anchor, or None if there was nothing to release."""
    from .traffic_split import reroute_secondary_queue

    if ue_id not in ctrl.bindings:
        ctrl.noop_releases += 1
        return None
    ctrl.bindings.pop(ue_id)
    requeued = reroute_secondary_queue(cand_node, mn_node, ue_id)
    cand_node.remove_ue(ue_id)
    return requeued


def update_mn_mcs(ctrl, ue_id, mcs):
    """Anchor-link MCS refresh for a served secondary (sent by the anchor on
    change); feeds the preemption comparison."""
    if ue_id in ctrl.bindings:
        ctrl.bindings[ue_id] = mcs
