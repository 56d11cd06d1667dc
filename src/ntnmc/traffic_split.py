"""Split-bearer traffic steering between the anchor and the secondary node.

Every delta_t the secondary node tells each served UE's anchor how many bits
it is willing to absorb over the next delta_t + t_offset:

    D = alpha * (1 - L_pr) / n_s * B * log2(1 + SINR) * (delta_t + t_offset)

with L_pr the load of the UEs the secondary anchors itself, n_s its current
number of secondary UEs, B its bandwidth and SINR its latest reported
downlink SINR toward the UE. The satellite beam anchors no UE here, so
L_pr = 0. A fresh request replaces the previous one (allowances do not
accumulate). The anchor forwards whole untouched PDUs from the queue head
while the live allowance covers them; everything else stays on the anchor.
"""

import math
from dataclasses import dataclass

from .channel import db_to_linear
from .dataplane import PATH_MN, PATH_SN
from .engine import millis

FORWARD = "forward"
SEND_LOCAL = "send_local"


def compute_request_amount(sn_node, ue_id, t_ns, params):
    """Bits the secondary node requests for one UE for the next window.

    Raises if the node currently serves no secondary UEs (callers only issue
    requests on behalf of served UEs).
    """
    n_s = len(sn_node.queues)
    if n_s <= 0:
        raise ValueError("request amount undefined with no secondary UEs")
    sinr = db_to_linear(sn_node.ue_sinr_db[ue_id])
    window_s = (params.split_delta_ms + params.split_toff_ms) * 1e-3
    bandwidth_hz = params.bandwidth_mhz * 1e6
    return (params.split_alpha / n_s
            * bandwidth_hz * math.log2(1.0 + sinr) * window_s)


@dataclass
class DataRequest:
    ue_id: int
    amount_bits: float
    issued_ns: int
    expires_ns: int


def send_periodic_requests(sn_node, t_ns, params):
    """One request per served secondary UE, valid for delta_t + t_offset."""
    out = []
    horizon = millis(params.split_delta_ms + params.split_toff_ms)
    for ue_id in sorted(sn_node.queues):
        amount = compute_request_amount(sn_node, ue_id, t_ns, params)
        out.append(DataRequest(ue_id, amount, t_ns, t_ns + horizon))
    return out


class _Grant:
    __slots__ = ("amount_bits", "remaining_bits", "forwarded_bits",
                 "issued_ns", "expires_ns")

    def __init__(self, req):
        self.amount_bits = req.amount_bits
        self.remaining_bits = req.amount_bits
        self.forwarded_bits = 0
        self.issued_ns = req.issued_ns
        self.expires_ns = req.expires_ns


class GrantBook:
    """Per-UE forwarding allowances held at an anchor node.

    Tracks, for every allowance window, how many bits were actually forwarded
    against it; `windows_checked`/`violations` feed the soundness audit that
    forwarded bits never exceed the granted amount.
    """

    def __init__(self):
        self._grants = {}
        self.windows_checked = 0
        self.violations = 0
        self.max_used_fraction = 0.0

    def _finalize(self, grant):
        self.windows_checked += 1
        if grant.forwarded_bits > grant.amount_bits:
            self.violations += 1
        if grant.amount_bits > 0:
            used = grant.forwarded_bits / grant.amount_bits
            if used > self.max_used_fraction:
                self.max_used_fraction = used

    def replace(self, req):
        old = self._grants.pop(req.ue_id, None)
        if old is not None:
            self._finalize(old)
        self._grants[req.ue_id] = _Grant(req)

    def cancel(self, ue_id):
        old = self._grants.pop(ue_id, None)
        if old is not None:
            self._finalize(old)

    def close(self):
        for ue_id in list(self._grants):
            self.cancel(ue_id)

    def live_grant(self, ue_id, t_ns):
        grant = self._grants.get(ue_id)
        if grant is None or t_ns > grant.expires_ns:
            return None
        return grant


def mn_forwarding_decision(book, pdu, t_ns):
    """Route one PDU: forward against a live allowance or keep it local.

    Only whole PDUs are forwarded; a PDU larger than the remaining allowance
    stays on the anchor.
    """
    grant = book.live_grant(pdu.ue_id, t_ns)
    if grant is None or grant.remaining_bits < pdu.bits:
        return SEND_LOCAL
    grant.remaining_bits -= pdu.bits
    grant.forwarded_bits += pdu.bits
    return FORWARD


def drain_forward(mn_node, sn_node, book, ue_id, t_ns):
    """Move whole pending PDUs of bound UE `ue_id` from the anchor queue to
    the secondary node while the live allowance covers them. The PDU
    currently on the air is never taken."""
    src = mn_node.queues[ue_id]
    dst = sn_node.queues[ue_id]
    moved = 0
    while src.pending and mn_forwarding_decision(book, src.pending[0], t_ns) == FORWARD:
        pdu = src.pop_pending()
        pdu.path = PATH_SN
        dst.push(pdu)
        moved += 1
    return moved


def reroute_secondary_queue(sn_node, mn_node, ue_id):
    """On release, send every secondary-queued PDU back to the anchor queue
    front (oldest first, ahead of younger anchor traffic; the cap does not
    apply because these bits were already admitted once)."""
    pdus = sn_node.queues[ue_id].drain_all()
    dst = mn_node.queues[ue_id]
    for pdu in reversed(pdus):
        pdu.path = PATH_MN
        dst.push_front(pdu)
    return len(pdus)
