import tracemalloc

import pytest

from ntnmc.dataplane import (Node, PdcpPdu, PdcpReceiver, UeTxQueue,
                             res_per_tti, schedule_tti)
from ntnmc.engine import Simulator, millis


def test_resource_grid_size():
    assert res_per_tti(52) == 8736


def _backlog(node, ue_id, n_pdus=20, bits=12000):
    for i in range(n_pdus):
        node.queues[ue_id].push(PdcpPdu(i, bits, 0))


def _sent(node, ue_id, n_pdus=20, bits=12000):
    """Bits sent to `ue_id` of a backlog made by `_backlog`."""
    return (n_pdus * bits - node.queues[ue_id].queued_bits
            + node.served_bits(ue_id))


def test_two_backlogged_ues_split_the_grid_evenly():
    for mcs, tb_bits in ((10, 7400), (26, 25728)):
        node = Node(52)
        node.add_ue(1, mcs)
        node.add_ue(2, mcs)
        _backlog(node, 1)
        _backlog(node, 2)
        assert schedule_tti(node) == 8736
        # MCS 10: int(1.6953 * 4368) = 7405 bits, floored to a whole byte.
        # MCS 26 sends 25720, 25728 and 25736 bits on 4367, 4368 and 4369
        # REs, so its served bits pin the 4368/4368 split.
        assert [_sent(node, ue) for ue in (1, 2)] == [tb_bits] * 2


def test_equal_share_remainder_rotates():
    # 8736 = 5 * 1747 + 1. At MCS 11, 1747 REs carry 3336 bits and 1748
    # REs 3344, so the bits each TTI sends show who got the extra RE.
    node = Node(52)
    ues = (1, 2, 3, 4, 5)
    for ue in ues:
        node.add_ue(ue, 11)
        _backlog(node, ue, n_pdus=200)

    def sent():
        return {ue: _sent(node, ue, n_pdus=200) for ue in ues}

    extra = []
    totals = {ue: 0 for ue in ues}
    for _ in range(5):
        before = sent()
        assert schedule_tti(node) == 8736
        step = {ue: bits - before[ue] for ue, bits in sent().items()}
        assert sorted(step.values()) == [3336] * 4 + [3344]
        extra += [ue for ue, bits in step.items() if bits == 3344]
        totals = {ue: totals[ue] + step[ue] for ue in ues}
    # over 5 TTIs the +1 visits every UE once
    assert sorted(extra) == list(ues)
    assert set(totals.values()) == {4 * 3336 + 3344}


def test_ue_without_mcs_is_never_scheduled():
    node = Node(52)
    node.add_ue(1, None)
    _backlog(node, 1)
    assert schedule_tti(node) == 0
    assert node.completed == []
    assert node.served_bits(1) == 0


def test_tx_queue_segmentation_and_accounting():
    q = UeTxQueue(10)
    a = PdcpPdu(0, 12000, 0)
    b = PdcpPdu(1, 12000, 0)
    q.push(a)
    q.push(b)
    assert q.queued_bits - q.served_bits == 24000

    done = q.take(15000)
    assert done == [a]
    assert q.in_service is b
    assert q.queued_bits - q.served_bits == 9000

    done = q.take(9000)
    assert done == [b]
    assert q.queued_bits - q.served_bits == 0
    assert q.in_service is None


def test_tx_queue_drain_returns_service_slot_first():
    q = UeTxQueue(10)
    pdus = [PdcpPdu(i, 12000, 0) for i in range(3)]
    for p in pdus:
        q.push(p)
    q.take(3000)  # partially serve pdus[0]
    assert q.drain_all() == pdus
    assert q.queued_bits - q.served_bits == 0


def test_tx_queue_push_front_orders_ahead():
    q = UeTxQueue(10)
    late = PdcpPdu(5, 12000, 0)
    q.push(late)
    early = PdcpPdu(2, 12000, 0)
    q.push_front(early)
    assert q.drain_all() == [early, late]


def test_tx_queue_builds_a_pdu_only_when_it_leaves_the_fresh_run():
    q = UeTxQueue(10)
    for sn in range(3):
        q.admit(sn, 12000, 100 + sn)
    early = PdcpPdu(0, 8, 0)
    q.push_front(early)
    assert q.queued_bits == 3 * 12000 + 8
    assert q.head_bits() == 8
    assert q.pop_pending() is early
    assert q.head_bits() == 12000
    done = q.take(15000)
    assert [(p.sn, p.bits, p.created_ns) for p in done] == [(0, 12000, 100)]
    assert (q.in_service.sn, q.in_service.created_ns) == (1, 101)
    assert [(p.sn, p.created_ns) for p in q.drain_all()] == [(1, 101),
                                                            (2, 102)]
    assert q.head_bits() is None and q.queued_bits == 0


def test_tx_queue_refuses_what_would_break_the_fresh_run():
    q = UeTxQueue(10)
    q.admit(4, 12000, 0)
    with pytest.raises(ValueError):
        q.push(PdcpPdu(5, 12000, 0))
    with pytest.raises(ValueError):
        q.admit(5, 8000, 0)
    with pytest.raises(ValueError):
        q.admit(6, 12000, 0)
    assert q.queued_bits == 12000
    q.admit(5, 12000, 1)
    q.take(24000)
    q.admit(9, 8000, 2)     # an emptied run starts afresh
    assert [(p.sn, p.bits) for p in q.take(8000)] == [(9, 8000)]


def test_a_waiting_pdu_costs_no_object():
    # An admitted PDU waits as one deque slot holding the caller's stamp,
    # so admitting builds nothing per PDU; an object per PDU would cost
    # some 90 B.
    n = 10_000
    stamps = [10**9 + i for i in range(n)]
    q = UeTxQueue(10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sn, t in enumerate(stamps):
            q.admit(sn, 12000, t)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert q.queued_bits == n * 12000
    assert grown <= 16 * n, grown


class RecordingReceiver(PdcpReceiver):
    """The receiver of UE 1, which records the (SN, time) of each PDU it
    delivers in `delivered`."""

    def __init__(self, sim, max_buffer=1000, warmup_ns=0,
                 timer_ns=millis(100.0)):
        super().__init__(1, sim, timer_ns, max_buffer, warmup_ns)
        self.delivered = []

    def _deliver(self, pdu, t_ns):
        super()._deliver(pdu, t_ns)
        self.delivered.append((pdu.sn, t_ns))


def test_in_order_pdus_flow_straight_through():
    sim = Simulator()
    rx = RecordingReceiver(sim)
    for sn in range(3):
        rx.receive(PdcpPdu(sn, 12000, 0), sn)
    assert [sn for sn, _t in rx.delivered] == [0, 1, 2]
    assert rx.delivered_pdus == 3
    assert rx.buffered_bits == 0


def test_gap_resolved_by_reordering_timer():
    sim = Simulator()
    rx = RecordingReceiver(sim)
    rx.receive(PdcpPdu(0, 12000, 0), sim.now)
    rx.receive(PdcpPdu(2, 12000, 0), sim.now)  # sn 1 missing, timer arms
    assert [sn for sn, _t in rx.delivered] == [0]
    sim.run_until(millis(200.0))
    assert [sn for sn, _t in rx.delivered] == [0, 2]
    assert rx.skipped_sns == 1
    assert rx.rx_deliv == 3
    # the straggler is now stale
    rx.receive(PdcpPdu(1, 12000, 0), sim.now)
    assert rx.stale_pdus == 1
    assert rx.stale_bits == 12000
    assert [sn for sn, _t in rx.delivered] == [0, 2]


def test_duplicate_while_gapped_is_counted_once():
    sim = Simulator()
    rx = RecordingReceiver(sim)
    rx.receive(PdcpPdu(2, 12000, 0), 0)
    rx.receive(PdcpPdu(2, 12000, 0), 0)
    assert rx.duplicate_pdus == 1
    assert rx.delivered == []


def test_late_arrival_before_timer_drains_in_order():
    sim = Simulator()
    rx = RecordingReceiver(sim)
    rx.receive(PdcpPdu(1, 12000, 0), sim.now)
    sim.run_until(millis(10.0))
    rx.receive(PdcpPdu(0, 12000, 0), sim.now)
    assert [sn for sn, _t in rx.delivered] == [0, 1]
    assert rx.skipped_sns == 0
    # timer must not fire later and skip anything
    sim.run_until(millis(300.0))
    assert rx.skipped_sns == 0


def test_buffer_overflow_forces_oldest_run_out():
    sim = Simulator()
    rx = RecordingReceiver(sim, max_buffer=3)
    for sn in (1, 2, 3, 4):  # sn 0 never arrives
        rx.receive(PdcpPdu(sn, 12000, 0), 0)
    assert [sn for sn, _t in rx.delivered] == [1, 2, 3, 4]
    assert rx.skipped_sns == 1
    assert rx.delivered_pdus == 4


def test_flush_delivers_the_buffer_without_skipping():
    sim = Simulator()
    rx = RecordingReceiver(sim)
    rx.receive(PdcpPdu(5, 12000, 0), 0)
    rx.receive(PdcpPdu(7, 12000, 0), 0)
    rx.flush(0)
    assert [sn for sn, _t in rx.delivered] == [5, 7]
    assert rx.skipped_sns == 0  # sns 0-4 and 6 are still on their way
    assert rx.buffered_bits == 0


def test_post_warmup_bits_count_deliveries_from_warmup_on():
    sim = Simulator()
    warmup = millis(50.0)
    rx = RecordingReceiver(sim, warmup_ns=warmup)
    rx.receive(PdcpPdu(0, 8, 0), warmup - 1)
    assert (rx.delivered_bits, rx.post_warmup_bits) == (8, 0)
    rx.receive(PdcpPdu(1, 16, 0), warmup)
    rx.receive(PdcpPdu(3, 32, 0), warmup)   # sn 2 missing, timer arms
    assert (rx.delivered_bits, rx.post_warmup_bits) == (24, 16)
    sim.run_until(millis(200.0))
    assert rx.delivered == [(0, warmup - 1), (1, warmup), (3, millis(100.0))]
    assert (rx.delivered_bits, rx.post_warmup_bits) == (56, 48)
    rx.receive(PdcpPdu(5, 64, 0), sim.now)  # sn 4 missing
    rx.flush(sim.now)
    assert [sn for sn, _t in rx.delivered] == [0, 1, 3, 5]
    assert (rx.delivered_bits, rx.post_warmup_bits) == (120, 112)


def test_a_push_leaves_an_open_epoch_and_forwarding_ends_it():
    node = Node(52)
    for ue in range(30):
        node.add_ue(ue, 10)
        _backlog(node, ue, n_pdus=200)
    schedule_tti(node)
    epoch = node.epoch
    assert epoch is not None
    node.queues[0].push(PdcpPdu(200, 12000, 0))
    schedule_tti(node)
    assert node.epoch is epoch
    node.queues[1].pop_pending()
    assert node.epoch is None
    assert all(q.member is None for q in node.queues.values())
