"""Secondary-node addition control: measurement store, the three addition
policies and the table that names them, candidate-side admission,
reconfiguration and release.

Both sides read the scenario's one map of each UE's latest `Measurement`. A
UE has a secondary leg if and only if the satellite beam's node has its
queue.

Requester side: an evaluator ranks one anchor sector's single-connectivity
UEs and names at most one to ask a secondary leg for. The scenario runs the
evaluations on a jittered period and holds each sector's request gate.

Candidate side (`CandidateState`, the satellite beam, the only candidate
cell): refuses anything within the add-gate of its previous acknowledgement,
admits freely while the beam's load over its trailing window leaves
headroom, and above that may free a slot by naming for release the served
secondary whose reported anchor-link MCS is highest, provided it strictly
exceeds the requester's.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

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


def _mcs_key(report):
    # Unreported UEs and anchor links below the MCS floor sort before MCS 0.
    return -1 if report is None or report.mn_mcs is None else report.mn_mcs


@dataclass(frozen=True)
class Measurement:
    """One UE report: satellite-beam RSRP and SINR, anchor-link MCS."""
    t_ns: int
    rsrp_dbm: float
    sinr_db: float
    mn_mcs: Optional[int]


@dataclass
class Decision:
    verdict: str
    cause: str
    victim: Optional[int] = None    # the UE whose leg an ACK preempts


class CandidateState:
    """Admission state of the satellite beam, the one candidate cell: the
    time of its last acknowledgement and the add gate of `add_gate_ns`
    after it, and its load, the REs of `n_res` per TTI it granted in each
    of its last `window` TTIs. The scenario calls `record` once every TTI,
    idle ones included, so the window is always densely populated."""

    def __init__(self, window_ttis, n_res, add_gate_ns):
        self.last_ack_ns = None
        self.add_gate_ns = add_gate_ns
        self.window = window_ttis
        self.n_res = n_res
        self.granted = deque()      # REs granted per TTI, oldest first
        self.granted_sum = 0

    def record(self, granted):
        self.granted.append(granted)
        self.granted_sum += granted
        if len(self.granted) > self.window:
            self.granted_sum -= self.granted.popleft()

    def load_fraction(self):
        """Fraction of the beam's REs granted over the window so far."""
        avail = len(self.granted) * self.n_res
        return self.granted_sum / avail if avail else 0.0


def _first_eligible(reports, ue_ids, fresh_ns, cfg):
    """The first UE of `ue_ids` whose latest report is fresh (taken at or
    after `fresh_ns`) and at or above the RSRP floor, or None."""
    for ue_id in ue_ids:
        meas = reports.get(ue_id)
        if (meas is not None and meas.t_ns >= fresh_ns
                and meas.rsrp_dbm >= cfg.rsrp_min_dbm):
            return ue_id
    return None


def evaluate_mcs_based(reports, node, single_ues, fresh_ns, cfg):
    """The first eligible UE whose anchor MCS is at or below the threshold,
    in ascending MCS order (ties by UE id)."""
    weak = [u for u in single_ues
            if _mcs_key(reports.get(u)) <= cfg.mcs_threshold]
    weak.sort(key=lambda u: (_mcs_key(reports.get(u)), u))
    return _first_eligible(reports, weak, fresh_ns, cfg)


def evaluate_rsrp_based(reports, node, single_ues, fresh_ns, cfg):
    """The eligible UE of lowest id."""
    return _first_eligible(reports, sorted(single_ues), fresh_ns, cfg)


def evaluate_bo_based(reports, node, single_ues, fresh_ns, cfg):
    """The first eligible UE whose transmit queue at the anchor `node` has
    filled past the occupancy threshold (a fraction of the queue cap), most
    backlogged first."""
    queues = node.queues
    occupancy = {u: queues[u].queued_bits / 8.0 / cfg.ue_queue_bytes
                 for u in single_ues}
    crossed = [u for u in single_ues if occupancy[u] >= cfg.bo_threshold_frac]
    crossed.sort(key=lambda u: (-occupancy[u], u))
    return _first_eligible(reports, crossed, fresh_ns, cfg)


@dataclass(frozen=True)
class Policy:
    """One setting of the comparison, as the scenario wires it.

    `evaluate(reports, node, single_ues, fresh_ns, cfg)` is the anchor-side
    evaluator; None (`off`) disables measurements, evaluation and data
    requests entirely, since nothing else reads a report.
    It ranks the `single_ues` of the anchor `node` and returns the first
    whose report in `reports` is fresh (taken at or after `fresh_ns`) and
    at or above the RSRP floor, or None, and changes no state. The caller
    runs it only while the sector's request gate is open, and closes the
    gate when it names a UE.
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


def handle_sn_addition_request(cand_node, cand, reports, ue_id, t_ns, cfg,
                               mode):
    """Candidate-side admission for one addition request, made for `ue_id`,
    which is unbound and has no reconfiguration pending; preemption compares
    the latest anchor-link MCS in `reports`.

    `COVERAGE` accepts without load or add-gate checks and leaves the add
    gate alone. `GATED` and `PREEMPTIVE` check, in order, the recent-ack
    gate, load headroom and, for `PREEMPTIVE` only, preemption; an
    overloaded `GATED` candidate simply refuses. Only their ACKs re-arm the
    add gate. A preemptive ACK names its `victim`, whose binding the caller
    releases; admission itself ends no binding.
    """
    if mode == COVERAGE:
        return Decision(ACK, "coverage")
    if (cand.last_ack_ns is not None
            and t_ns - cand.last_ack_ns <= cand.add_gate_ns):
        return Decision(REJECT, "recent-ack")
    if cand.load_fraction() <= cfg.load_ack_max:
        cand.last_ack_ns = t_ns
        return Decision(ACK, "headroom")
    if mode == PREEMPTIVE and cand_node.queues:
        victim_id = max(cand_node.queues,
                        key=lambda u: (_mcs_key(reports[u]), -u))
        if _mcs_key(reports[victim_id]) > _mcs_key(reports[ue_id]):
            cand.last_ack_ns = t_ns
            return Decision(ACK, "preempted-weakest", victim_id)
    return Decision(REJECT, "overloaded")


def complete_reconfiguration(sim, latency_ns, finalize, *args):
    """Three-message reconfiguration (anchor->UE, UE->anchor,
    anchor->secondary); the binding activates with the last message, which
    calls `finalize(*args)`.

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


def release_secondary(cand_node, mn_node, ue_id):
    """Tear down the binding of `ue_id`, which must be bound: the beam drops
    its queue, and every PDU on it, the one on the air included, goes back
    to the front of the anchor queue, oldest first and ahead of younger
    anchor traffic (the queue cap does not apply, since these bits were
    admitted once). Returns their number."""
    pdus = cand_node.remove_ue(ue_id).drain_all()
    dst = mn_node.queues[ue_id]
    for pdu in reversed(pdus):
        dst.push_front(pdu)
    return len(pdus)
