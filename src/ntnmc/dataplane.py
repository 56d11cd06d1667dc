"""RAN data plane: PDCP PDUs, per-UE transmit queues, the TTI scheduler
and receive-side reordering.

Time granularity is one 1 ms TTI (numerology 0). A 10 MHz carrier carries
52 PRBs, so one TTI holds 52 * 12 * 14 = 8736 resource elements. A
transport block is floor(efficiency * REs) bits, floored to whole bytes;
PDUs may be segmented across TTIs and count as delivered when their last
byte arrives.
"""

from collections import deque
from math import ceil
from operator import attrgetter

from .channel import MCS_EFFICIENCIES, SUBCARRIERS_PER_PRB, SYMBOLS_PER_TTI
from .engine import NS_PER_MS

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

    The waiting PDUs are `pending`, then the fresh run. `pending` holds
    explicit PDUs: those a release sends back (`push_front`) and those
    pushed by forwarding (`push`). The fresh run holds the PDUs admitted
    at ingest (`admit`): consecutive SNs from `run_sn`, all of `run_bits`,
    kept as their ingest stamps in `run`, oldest first, so a waiting PDU
    costs one deque slot and no object. A `PdcpPdu` is built only when one
    leaves the run, so its `created_ns` is the stamp it was admitted with.

    The head PDU being transmitted is held apart from the waiting ones so
    that forwarding to a secondary node can only take untouched whole PDUs.
    `queued_bits` counts every PDU still owned by the queue, including the
    partially sent one.

    While the queue's node holds a `SaturatedEpoch`, `member` is the
    queue's record in it, whose served bits may lag. A push or an
    admission leaves the epoch open; forwarding (`pop_pending`) ends it.
    """

    __slots__ = ("mcs", "pending", "run", "run_sn", "run_bits", "in_service",
                 "served_bits", "queued_bits", "member")

    def __init__(self, mcs):
        self.mcs = mcs
        self.pending = deque()
        self.run = deque()
        self.run_sn = 0
        self.run_bits = 0
        self.in_service = None
        self.served_bits = 0
        self.queued_bits = 0
        self.member = None

    def admit(self, sn, bits, t_ns):
        """Append PDU `sn` of `bits`, ingested at `t_ns`, to the fresh run;
        it must continue the run's SNs and size."""
        run = self.run
        if not run:
            self.run_sn = sn
            self.run_bits = bits
        elif bits != self.run_bits or sn != self.run_sn + len(run):
            raise ValueError(f"PDU ({sn}, {bits} bits) does not continue the "
                             f"run of {self.run_bits}-bit PDUs from "
                             f"{self.run_sn}")
        run.append(t_ns)
        self.queued_bits += bits

    def push(self, pdu):
        if self.run:
            raise ValueError("a push behind a fresh run would reorder it")
        self.pending.append(pdu)
        self.queued_bits += pdu.bits

    def push_front(self, pdu):
        self.pending.appendleft(pdu)
        self.queued_bits += pdu.bits

    def head_bits(self):
        """The size of the oldest waiting PDU, None if none waits."""
        if self.pending:
            return self.pending[0].bits
        return self.run_bits if self.run else None

    def _next(self):
        """Remove and return the oldest waiting PDU, None if none waits."""
        if self.pending:
            return self.pending.popleft()
        if self.run:
            sn = self.run_sn
            self.run_sn = sn + 1
            return PdcpPdu(sn, self.run_bits, self.run.popleft())
        return None

    def pop_pending(self):
        """Remove and return the oldest waiting PDU, for forwarding."""
        if self.member is not None:
            self.member.epoch.end()
        pdu = self._next()
        self.queued_bits -= pdu.bits
        return pdu

    def take(self, budget_bits):
        """Consume up to `budget_bits`; returns the PDUs completed."""
        done = []
        while budget_bits > 0:
            if self.in_service is None:
                self.in_service = self._next()
                if self.in_service is None:
                    break
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
        """Remove every PDU (service slot first), e.g. on secondary release,
        from a queue no open epoch holds (see `Node.remove_ue`)."""
        out = []
        if self.in_service is not None:
            out.append(self.in_service)
            self.queued_bits -= self.in_service.bits
            self.in_service = None
            self.served_bits = 0
        while self.pending or self.run:
            out.append(self.pop_pending())
        return out


class Node:
    """One downlink transmitter serving one class of UEs: a terrestrial
    sector serves the UEs anchored at it, the satellite beam the UEs it
    holds a secondary leg for.

    The keys of `queues` are the node's UEs, in the order they were added;
    each queue carries its UE's true link MCS, which the scheduler reads.
    `completed` holds the (ue_id, PDUs) completed in the last TTI. A UE
    joins through `add_ue` and leaves through `remove_ue`, and its MCS
    changes through `set_mcs`; each of these ends an open `epoch`, as does
    forwarding from one of the node's queues.
    """

    def __init__(self, n_prb):
        self.n_res = res_per_tti(n_prb)
        self.queues = {}
        self.completed = []
        self.epoch = None
        self._rr = 0

    def add_ue(self, ue_id, mcs):
        """Give `ue_id` a queue of link MCS `mcs` and return it."""
        self.settle()
        q = self.queues[ue_id] = UeTxQueue(mcs)
        return q

    def remove_ue(self, ue_id):
        """Drop the queue of `ue_id` and return it, PDUs and all."""
        self.settle()
        return self.queues.pop(ue_id)

    def set_mcs(self, ue_id, mcs):
        """Set the link MCS of `ue_id` (None: below the table floor); a
        change ends the open epoch."""
        q = self.queues[ue_id]
        if mcs != q.mcs:
            self.settle()
            q.mcs = mcs

    def settle(self):
        """End the open epoch, if any, bringing every served count up to
        date."""
        if self.epoch is not None:
            self.epoch.end()

    def served_bits(self, ue_id):
        """The bits sent of the PDU on the air of `ue_id`, up to date even
        inside an epoch, which this leaves open."""
        q = self.queues[ue_id]
        m = q.member
        return q.served_bits if m is None else m.epoch.served(m, self._rr)


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


def _epoch_pays(node, needs):
    """Whether an epoch at `node` is likely to last long enough to pay for
    its O(n) opening: every need is above 8 equal shares."""
    return min(needs) * len(needs) > 8 * node.n_res


def schedule_tti(node):
    """Run one TTI of max-min fair scheduling at `node`.

    Each backlogged UE needs ceil(unsent bits / efficiency) REs, and
    `max_min_share` splits the node's REs over those needs, the remainder
    starting at a position that advances by one every TTI. Returns the
    number of REs granted, 0 for an idle TTI, and leaves the PDUs it
    completed in `node.completed`. A saturated TTI at which every UE with
    an MCS is backlogged may open a `SaturatedEpoch`, which serves the TTIs
    after it while they stay saturated.
    """
    epoch = node.epoch
    if epoch is not None and epoch.tti():
        return node.n_res
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
    node.completed = out = []
    if not hungry:
        return 0

    n = len(hungry)
    total = node.n_res
    # Nothing tells an epoch of a push or an admission, which would move
    # the allocation at an idle UE with an MCS; at a member it only delays
    # the fall.
    if (min(needs) * n > total and _epoch_pays(node, needs)
            and n == sum(q.mcs is not None for q in node.queues.values())):
        node.epoch = SaturatedEpoch(node, hungry, *divmod(total, n))
        node.epoch.tti()
        return total
    alloc = max_min_share(needs, total, node._rr % n)
    node._rr += 1
    for (ue_id, q, mcs), n_res in zip(hungry, alloc):
        if n_res <= 0:
            continue
        tb_bits = (int(eff[mcs] * n_res) // 8) * 8
        head = q.in_service
        if head is not None and q.served_bits + tb_bits < head.bits:
            # The PDU in service does not complete: the common case.
            q.served_bits += tb_bits
        else:
            done = q.take(tb_bits)
            if done:
                out.append((ue_id, done))
    return sum(alloc)


class _Member:
    """One backlogged UE of a `SaturatedEpoch`: its position `i`, its TB
    sizes at `share` and `share + 1` REs, the backlog at or below which it
    could need no more than `share` REs (`low_bits`), the TTI at which its
    queue's `served_bits` is up to date (`base`), and the TTIs at which its
    head PDU completes (`done`) and its backlog could fall to the share
    (`fall`), None for never. It is woken at the earlier of the two, its
    one slot in the epoch's calendar."""

    __slots__ = ("epoch", "i", "off", "ue_id", "q", "eff", "tb0", "tb1",
                 "low_bits", "base", "done", "fall")


_INDEX = attrgetter("i")


class SaturatedEpoch:
    """TTIs of a node at which every backlogged UE needs more than the
    equal share of the REs, served in closed form.

    Then `max_min_share` grants each of the n backlogged UEs (the members,
    in queue order) `share` REs, plus one to member i when (i - k) mod n <
    `extra` at rotation counter k. So a member's served bits at any TTI
    follow by arithmetic from those at its base TTI: TTIs times the TB at
    `share`, plus the TTIs with the extra RE times the TB difference. A
    member is woken, from a calendar keyed by rotation counter, only at the
    TTI its head PDU completes and at the first TTI its backlog could fall
    to `share` REs; there it runs exactly the eager step. If a woken
    member's need has fallen to the share, the TTI is not saturated: the
    epoch ends and the TTI runs eagerly. Only `served_bits` lags.

    It opens only where every UE with an MCS is a member, and `add_ue`,
    `remove_ue`, `set_mcs` and a member's `pop_pending` (forwarding) end
    it. So a push or an admission, which can only reach a member and only
    move its backlog's fall later, is the one outside change an open epoch
    survives. Nothing re-plans a member between its wakes: it holds one
    calendar slot, at opening and again at each wake for a later TTI.
    """

    def __init__(self, node, hungry, share, extra):
        self.node = node
        self.n = n = len(hungry)
        self.share = share
        self.extra = extra
        self.calendar = {}          # rotation counter -> members to wake
        self.members = []
        for i, (ue_id, q, mcs) in enumerate(hungry):
            m = _Member()
            m.epoch, m.i, m.ue_id, m.q = self, i, ue_id, q
            m.off = (extra - 1 - i) % n     # extra RE at k: (k + off) % n
            m.base = node._rr
            m.eff = eff = MCS_EFFICIENCIES[mcs]
            m.tb0 = int(eff * share) // 8 * 8
            m.tb1 = int(eff * (share + 1)) // 8 * 8
            # Above this backlog, ceil(bits / eff) > share beyond float error.
            m.low_bits = int(eff * share) + 1
            q.member = m
            self.members.append(m)
            m.done = self._done(m)
            m.fall = self._fall(m)
            self._wake_at_next(m)

    def served(self, m, k):
        """Served bits of m's head PDU at the start of TTI k, if it does
        not complete before."""
        ttis = k - m.base
        bits = m.q.served_bits + ttis * m.tb0
        if m.tb1 != m.tb0:
            n, extra = self.n, self.extra
            y = (m.base + m.off) % n
            wrap = y + ttis
            bits += ((wrap // n * extra + min(wrap % n, extra)
                      - min(y, extra)) * (m.tb1 - m.tb0))
        return bits

    def _ttis(self, m, bits):
        """The fewest TTIs from m's base whose TBs add up to `bits` > 0, or
        None if they never do."""
        tb0, tb1, extra = m.tb0, m.tb1, self.extra
        if tb1 == tb0 or not extra:
            return -(-bits // tb0) if tb0 else None
        n = self.n
        cycles, rest = divmod(bits - 1, n * tb0 + extra * (tb1 - tb0))
        rest += 1
        y = (m.base + m.off) % n
        if y < extra:
            runs = ((extra - y, tb1), (n - extra, tb0), (y, tb1))
        else:
            runs = ((n - y, tb0), (extra, tb1), (y - extra, tb0))
        ttis = cycles * n
        for length, tb in runs:
            if tb * length >= rest:
                return ttis - (-rest // tb)
            rest -= tb * length
            ttis += length

    def _done(self, m):
        # With no PDU in service, the eager step at the base starts one.
        q = m.q
        if q.in_service is None:
            return m.base
        ttis = self._ttis(m, q.in_service.bits - q.served_bits)
        return None if ttis is None else m.base + ttis - 1

    def _fall(self, m):
        # Grants take exactly their TB off the backlog while it lasts, so
        # pushes, admissions and completions can only leave it above this
        # estimate.
        q = m.q
        over = q.queued_bits - q.served_bits - m.low_bits
        if over <= 0:
            return m.base
        ttis = self._ttis(m, over)
        return None if ttis is None else m.base + ttis

    def _wake_at_next(self, m):
        done, fall = m.done, m.fall
        k = done if fall is None else fall if done is None else min(done, fall)
        if k is not None:
            self.calendar.setdefault(k, []).append(m)

    def _catch_up(self, m, k):
        m.q.served_bits = self.served(m, k)
        m.base = k

    def end(self):
        node = self.node
        for m in self.members:
            self._catch_up(m, node._rr)
            m.q.member = None
        node.epoch = None
        # The members point back at the epoch and the epoch at the node:
        # dropping them lets reference counting free a finished run.
        self.members = ()
        self.calendar.clear()

    def tti(self):
        """Serve the node's next TTI; False, having ended the epoch, when
        that TTI is not saturated."""
        node = self.node
        k = node._rr
        node.completed = out = []
        due = self.calendar.pop(k, None)
        if due:
            woken = sorted(due, key=_INDEX)
            for m in woken:
                self._catch_up(m, k)
                q = m.q
                bits = q.queued_bits - q.served_bits
                if bits <= m.low_bits and ceil(bits / m.eff) <= self.share:
                    self.end()
                    return False
            n, extra = self.n, self.extra
            for m in woken:
                done = m.q.take(m.tb1 if (k + m.off) % n < extra else m.tb0)
                if done:
                    out.append((m.ue_id, done))
                # The closed form runs on from the new base; only what
                # was due at k needs working out again.
                m.base = k + 1
                if m.done == k:
                    m.done = self._done(m)
                if m.fall == k:
                    m.fall = self._fall(m)
                self._wake_at_next(m)
        node._rr = k + 1
        return True


class PdcpReceiver:
    """UE-side reordering entity with a t-Reordering style timer.

    PDUs older than the delivery edge are discarded as stale; everything else
    is buffered and released in sequence. The next PDU in sequence skips the
    buffer when it is empty, since it would leave it at once. When the timer
    fires, buffered PDUs below the reordering edge are released in order and
    the gaps are counted as skipped; a buffer past its bound skips the same
    way to its oldest PDU.
    The receiver counts what it delivers, and as `post_warmup_bits` the bits
    it delivers at or after `warmup_ns`, flush included.
    """

    def __init__(self, ue_id, sim, timer_ns, max_buffer_pdus, warmup_ns):
        self.ue_id = ue_id
        self.sim = sim
        self.timer_ns = timer_ns
        self.max_buffer = max_buffer_pdus
        self.warmup_ns = warmup_ns
        self.rx_deliv = 0
        self.rx_next = 0
        self.rx_reord = 0
        self.buffer = {}
        self.buffered_bits = 0
        self._timer_ev = None
        self.delivered_pdus = 0
        self.delivered_bits = 0
        self.post_warmup_bits = 0
        self.stale_pdus = 0
        self.stale_bits = 0
        self.duplicate_pdus = 0
        self.skipped_sns = 0
        self.last_delivered_sn = -1

    def _deliver(self, pdu, t_ns):
        """The one delivery step, from the buffer or straight through."""
        sn = pdu.sn
        if sn <= self.last_delivered_sn:
            raise AssertionError(
                f"out-of-order delivery for ue {self.ue_id}: {sn} after {self.last_delivered_sn}")
        bits = pdu.bits
        self.last_delivered_sn = sn
        self.delivered_pdus += 1
        self.delivered_bits += bits
        if t_ns >= self.warmup_ns:
            self.post_warmup_bits += bits

    def _deliver_from_buffer(self, sn, t_ns):
        pdu = self.buffer.pop(sn)
        self.buffered_bits -= pdu.bits
        self._deliver(pdu, t_ns)

    def _drain_in_order(self, t_ns):
        while self.rx_deliv in self.buffer:
            self._deliver_from_buffer(self.rx_deliv, t_ns)
            self.rx_deliv += 1

    def _skip_to(self, edge, t_ns):
        """Give up on every SN below `edge` that is not buffered: release
        the buffered ones in order, count the rest as skipped, then deliver
        in order from `edge`."""
        below = sorted(sn for sn in self.buffer if sn < edge)
        for sn in below:
            self._deliver_from_buffer(sn, t_ns)
        self.skipped_sns += (edge - self.rx_deliv) - len(below)
        self.rx_deliv = edge
        self._drain_in_order(t_ns)

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
        sn = pdu.sn
        if sn == self.rx_deliv and not self.buffer:
            # In order with nothing waiting. Until `flush` ends the run, an
            # empty buffer means that rx_next == rx_deliv and that no timer
            # runs, so the PDU is delivered at once and nothing else moves.
            self._deliver(pdu, t_ns)
            self.rx_deliv = self.rx_next = sn + 1
            return
        if sn < self.rx_deliv:
            self.stale_pdus += 1
            self.stale_bits += pdu.bits
            return
        if sn in self.buffer:
            self.duplicate_pdus += 1
            return
        self.buffer[sn] = pdu
        self.buffered_bits += pdu.bits
        if sn >= self.rx_next:
            self.rx_next = sn + 1
        if sn == self.rx_deliv:
            self._drain_in_order(t_ns)
        while len(self.buffer) > self.max_buffer:
            self._skip_to(min(self.buffer), t_ns)
        self._update_timer()

    def _on_timer(self):
        self._timer_ev = None
        self._skip_to(self.rx_reord, self.sim.now)
        self._update_timer()

    def flush(self, t_ns):
        """End of run: release everything still buffered, in sequence order.

        A gap below a buffered SN is a PDU still in flight or queued at a
        node, where the conservation ledger books it, so none is skipped.
        """
        self._stop_timer()
        for sn in sorted(self.buffer):
            self._deliver_from_buffer(sn, t_ns)
