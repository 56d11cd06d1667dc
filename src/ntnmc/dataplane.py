"""RAN data plane: PDCP PDUs, per-UE transmit queues, the TTI scheduler,
receive-side reordering and CBR sources.

Time granularity is one 1 ms TTI (numerology 0). A 10 MHz carrier carries
52 PRBs, so one TTI holds 52 * 12 * 14 = 8736 resource elements. A
transport block is floor(efficiency * REs) bits, floored to whole bytes;
PDUs may be segmented across TTIs and count as delivered when their last
byte arrives.
"""

from collections import deque
from dataclasses import dataclass
from math import ceil

from .channel import MCS_EFFICIENCIES, SUBCARRIERS_PER_PRB, SYMBOLS_PER_TTI
from .engine import NS_PER_MS, seconds

TTI_NS = NS_PER_MS


def res_per_tti(n_prb):
    return n_prb * SUBCARRIERS_PER_PRB * SYMBOLS_PER_TTI


class PdcpPdu:
    """One PDCP PDU; the leg it travels is the queue or transport block
    that holds it."""

    __slots__ = ("sn", "bits", "created_ns")

    def __init__(self, sn, bits, created_ns):
        self.sn = sn
        self.bits = bits
        self.created_ns = created_ns

    def __repr__(self):
        return f"PdcpPdu(sn={self.sn}, bits={self.bits})"


class UeTxQueue:
    """FIFO of whole PDUs plus the single PDU currently on the air, sent
    over a link of MCS `mcs` (None = below the table floor, never served).

    The head PDU being transmitted is held apart from `pending` so that
    forwarding to a secondary node can only take untouched whole PDUs.
    `queued_bits` counts every PDU still owned by the queue, including the
    partially sent one.
    """

    __slots__ = ("mcs", "pending", "in_service", "served_bits", "queued_bits")

    def __init__(self, mcs):
        self.mcs = mcs
        self.pending = deque()
        self.in_service = None
        self.served_bits = 0
        self.queued_bits = 0

    def push(self, pdu):
        self.pending.append(pdu)
        self.queued_bits += pdu.bits

    def push_front(self, pdu):
        self.pending.appendleft(pdu)
        self.queued_bits += pdu.bits

    def pop_pending(self):
        pdu = self.pending.popleft()
        self.queued_bits -= pdu.bits
        return pdu

    def take(self, budget_bits):
        """Consume up to `budget_bits`; returns the PDUs completed."""
        done = []
        while budget_bits > 0:
            if self.in_service is None:
                if not self.pending:
                    break
                self.in_service = self.pending.popleft()
                self.served_bits = 0
            rest = self.in_service.bits - self.served_bits
            if budget_bits >= rest:
                budget_bits -= rest
                self.queued_bits -= self.in_service.bits
                done.append(self.in_service)
                self.in_service = None
                self.served_bits = 0
            else:
                self.served_bits += budget_bits
                budget_bits = 0
        return done

    def drain_all(self):
        """Remove every PDU (service slot first), e.g. on secondary release."""
        out = []
        if self.in_service is not None:
            out.append(self.in_service)
            self.queued_bits -= self.in_service.bits
            self.in_service = None
            self.served_bits = 0
        while self.pending:
            out.append(self.pop_pending())
        return out


class Node:
    """One downlink transmitter serving one class of UEs: a terrestrial
    sector serves the UEs anchored at it, the satellite beam the UEs it
    holds a secondary leg for.

    The keys of `queues` are the node's UEs, in the order they were added;
    each queue carries its UE's true link MCS, which the scheduler reads.
    """

    def __init__(self, n_prb):
        self.n_res = res_per_tti(n_prb)
        self.queues = {}
        self._rr = 0

    def add_ue(self, ue_id, mcs):
        self.queues[ue_id] = UeTxQueue(mcs)

    def queued_bits(self, ue_id):
        q = self.queues.get(ue_id)
        return q.queued_bits if q else 0


def max_min_share(needs, total, first):
    """Max-min fair split of `total` REs over UEs whose needs in REs are
    `needs`; returns the grants in the same order.

    Walking the needs in ascending order, a need is granted in full while
    it fits under the equal share of what is left (`need * left <=
    remaining`). The UEs whose needs do not fit split the rest equally, and
    the REs that do not divide go one each to the first of them in cyclic
    order from position `first`. When the smallest need exceeds the equal
    share of `total`, no need fits and the sort is skipped.
    """
    n = left = len(needs)
    remaining = total
    if min(needs) * n <= total:
        for need in sorted(needs):
            if need * left > remaining:
                break
            remaining -= need
            left -= 1
        else:
            return list(needs)
    # Granted needs are at or below `share`, the others above it.
    share, extra = divmod(remaining, left)
    grants = [need if need <= share else share for need in needs]
    j = first
    while extra:
        if needs[j] > share:
            grants[j] += 1
            extra -= 1
        j = (j + 1) % n
    return grants


def schedule_tti(node):
    """Run one TTI of max-min fair scheduling at `node`.

    Each backlogged UE needs ceil(unsent bits / efficiency) REs, and
    `max_min_share` splits the node's REs over those needs, the remainder
    starting at a position that advances by one every TTI. Returns
    [(ue_id, n_res, completed_pdus)], one entry per UE granted REs; an
    idle TTI returns an empty list.
    """
    eff = MCS_EFFICIENCIES
    hungry = []             # (ue_id, queue, mcs) of each backlogged UE
    needs = []
    for ue_id, q in node.queues.items():
        mcs = q.mcs
        if mcs is None:
            continue
        bits = q.queued_bits - q.served_bits
        if bits <= 0:
            continue
        hungry.append((ue_id, q, mcs))
        needs.append(ceil(bits / eff[mcs]))
    if not hungry:
        return []

    alloc = max_min_share(needs, node.n_res, node._rr % len(hungry))
    node._rr += 1
    out = []
    for (ue_id, q, mcs), n_res in zip(hungry, alloc):
        if n_res <= 0:
            continue
        tb_bits = (int(eff[mcs] * n_res) // 8) * 8
        head = q.in_service
        if head is not None and q.served_bits + tb_bits < head.bits:
            # The PDU in service does not complete: the common case.
            q.served_bits += tb_bits
            out.append((ue_id, n_res, ()))
        else:
            out.append((ue_id, n_res, q.take(tb_bits)))
    return out


class PdcpReceiver:
    """UE-side reordering entity with a t-Reordering style timer.

    PDUs older than the delivery edge are discarded as stale; everything else
    is buffered and released in sequence. When the timer fires, buffered PDUs
    below the reordering edge are released in order and the gaps are counted
    as skipped. The buffer is bounded; overflow forces delivery of the oldest
    buffered run.
    """

    def __init__(self, ue_id, sim, timer_ns, max_buffer_pdus, deliver_cb):
        self.ue_id = ue_id
        self.sim = sim
        self.timer_ns = timer_ns
        self.max_buffer = max_buffer_pdus
        self.deliver_cb = deliver_cb
        self.rx_deliv = 0
        self.rx_next = 0
        self.rx_reord = 0
        self.buffer = {}
        self.buffered_bits = 0
        self._timer_ev = None
        self.delivered_pdus = 0
        self.delivered_bits = 0
        self.stale_pdus = 0
        self.stale_bits = 0
        self.duplicate_pdus = 0
        self.skipped_sns = 0
        self.last_delivered_sn = -1

    def _deliver(self, pdu, t_ns):
        if pdu.sn <= self.last_delivered_sn:
            raise AssertionError(
                f"out-of-order delivery for ue {self.ue_id}: {pdu.sn} after {self.last_delivered_sn}")
        self.last_delivered_sn = pdu.sn
        self.delivered_pdus += 1
        self.delivered_bits += pdu.bits
        self.deliver_cb(pdu, t_ns)

    def _deliver_from_buffer(self, sn, t_ns):
        pdu = self.buffer.pop(sn)
        self.buffered_bits -= pdu.bits
        self._deliver(pdu, t_ns)

    def _drain_in_order(self, t_ns):
        while self.rx_deliv in self.buffer:
            self._deliver_from_buffer(self.rx_deliv, t_ns)
            self.rx_deliv += 1

    def _stop_timer(self):
        if self._timer_ev is not None:
            self._timer_ev.cancel()
            self._timer_ev = None

    def _update_timer(self):
        if self._timer_ev is not None and self.rx_deliv >= self.rx_reord:
            self._stop_timer()
        if self._timer_ev is None and self.rx_deliv < self.rx_next:
            self.rx_reord = self.rx_next
            self._timer_ev = self.sim.schedule_in(self.timer_ns, self._on_timer)

    def receive(self, pdu, t_ns):
        if pdu.sn < self.rx_deliv:
            self.stale_pdus += 1
            self.stale_bits += pdu.bits
            return
        if pdu.sn in self.buffer:
            self.duplicate_pdus += 1
            return
        self.buffer[pdu.sn] = pdu
        self.buffered_bits += pdu.bits
        if pdu.sn >= self.rx_next:
            self.rx_next = pdu.sn + 1
        if pdu.sn == self.rx_deliv:
            self._drain_in_order(t_ns)
        if len(self.buffer) > self.max_buffer:
            self._force_oldest_run(t_ns)
        self._update_timer()

    def _force_oldest_run(self, t_ns):
        while len(self.buffer) > self.max_buffer:
            first = min(self.buffer)
            self.skipped_sns += first - self.rx_deliv
            self.rx_deliv = first
            self._drain_in_order(t_ns)

    def _on_timer(self):
        self._timer_ev = None
        t_ns = self.sim.now
        below = sorted(sn for sn in self.buffer if sn < self.rx_reord)
        for sn in below:
            self._deliver_from_buffer(sn, t_ns)
        # Whatever was missing in [rx_deliv, rx_reord) is given up on.
        self.skipped_sns += (self.rx_reord - self.rx_deliv) - len(below)
        self.rx_deliv = self.rx_reord
        self._drain_in_order(t_ns)
        self._update_timer()

    def flush(self, t_ns):
        """End of run: release everything still buffered, in sequence order.

        A gap below a buffered SN is a PDU still in flight or queued at a
        node, where the conservation ledger books it, so none is skipped.
        """
        self._stop_timer()
        for sn in sorted(self.buffer):
            self._deliver_from_buffer(sn, t_ns)


class CbrFlow:
    """Constant-bit-rate source: one fixed-size packet every packet_bits/rate.

    The interval is rounded to integer nanoseconds once (1500 B at 3.2 Mb/s
    gives exactly 3.75 ms) so arrivals never drift. The first packet arrives
    at t = 0.
    """

    def __init__(self, packet_bytes, rate_bps):
        self.packet_bits = packet_bytes * 8
        self.interval_ns = seconds(self.packet_bits / rate_bps)


@dataclass
class UeCounters:
    """Per-UE bit conservation ledger, kept in exact integer bits."""
    generated_bits: int = 0
    dropped_bits: int = 0
    dropped_pdus: int = 0
    in_flight_bits: int = 0
    post_warmup_bits: int = 0           # delivered in order after warmup
