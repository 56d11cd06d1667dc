"""Split-bearer traffic steering between the anchor and the secondary node.

Every delta_t the secondary node tells each served UE's anchor how many bits
it is willing to absorb over the next delta_t + t_offset:

    D = alpha * (1 - L_pr) / n_s * B * log2(1 + SINR) * (delta_t + t_offset)

with L_pr the load of the UEs the secondary anchors itself, n_s its current
number of secondary UEs, B its bandwidth and SINR the UE's latest reported
downlink SINR. The satellite beam anchors no UE here, so L_pr = 0. A grant
(`Grant`) lives until the next request replaces it, or a release cancels
it: allowances do not accumulate, and the t_offset margin only sizes D.
The anchor forwards whole untouched PDUs from the queue head while the live
grant covers them; everything else stays on the anchor.
"""

import math
from dataclasses import dataclass

from .channel import db_to_linear


def compute_request_amount(sn_node, sinr_db, params):
    """Bits the secondary node requests for the next window for one UE
    that reported `sinr_db`.

    Raises if the node currently serves no secondary UEs (callers only issue
    requests on behalf of served UEs).
    """
    n_s = len(sn_node.queues)
    if n_s <= 0:
        raise ValueError("request amount undefined with no secondary UEs")
    sinr = db_to_linear(sinr_db)
    window_s = (params.split_delta_ms + params.split_toff_ms) * 1e-3
    bandwidth_hz = params.bandwidth_mhz * 1e6
    return (params.split_alpha / n_s
            * bandwidth_hz * math.log2(1.0 + sinr) * window_s)


@dataclass(slots=True)
class Grant:
    """One data request: up to `amount_bits` of `ue_id`'s PDUs may be
    forwarded until the next request replaces it; `forwarded_bits` have
    been."""
    ue_id: int
    amount_bits: float
    forwarded_bits: int = 0

    def covers(self, bits):
        """Whether a whole PDU of `bits` may still be forwarded."""
        return self.amount_bits - self.forwarded_bits >= bits


def send_periodic_requests(sn_node, reports, params):
    """One grant per served secondary UE, sized from its latest report in
    `reports`; each replaces the UE's previous grant."""
    out = []
    for ue_id in sorted(sn_node.queues):
        amount = compute_request_amount(sn_node, reports[ue_id].sinr_db,
                                        params)
        out.append(Grant(ue_id, amount))
    return out


class GrantBook:
    """Per-UE forwarding allowances held at an anchor node; only a bound UE
    has one, since a release cancels it.

    Tracks, for every allowance window, how many bits were actually forwarded
    against it; `windows_checked`/`violations` feed the soundness audit that
    forwarded bits never exceed the granted amount.
    """

    def __init__(self):
        self.grants = {}        # ue_id -> its latest Grant
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

    def replace(self, grant):
        self.cancel(grant.ue_id)
        self.grants[grant.ue_id] = grant

    def cancel(self, ue_id):
        old = self.grants.pop(ue_id, None)
        if old is not None:
            self._finalize(old)

    def close(self):
        for ue_id in list(self.grants):
            self.cancel(ue_id)


def drain_forward(mn_node, sn_node, grant):
    """Move whole pending PDUs of the grant's UE from the anchor queue to
    the secondary node while the grant covers them. The PDU currently on
    the air is never taken."""
    src = mn_node.queues[grant.ue_id]
    dst = sn_node.queues[grant.ue_id]
    moved = 0
    bits = src.head_bits()
    while bits is not None and grant.covers(bits):
        grant.forwarded_bits += bits
        dst.push(src.pop_pending())
        moved += 1
        bits = src.head_bits()
    return moved
