import math
import random

import pytest

from ntnmc.config import ScenarioConfig
from ntnmc.dataplane import Node, PdcpPdu
from ntnmc.mc_control import Measurement, release_secondary
from ntnmc.traffic_split import (Grant, GrantBook, compute_request_amount,
                                 drain_forward, send_periodic_requests)

CFG = ScenarioConfig()


def _sn_node(n_secondary):
    node = Node(CFG.n_prb)
    for ue in range(1, n_secondary + 1):
        node.add_ue(ue, 22)
    return node


def _reports(n_secondary, sinr_db):
    return {ue: Measurement(0, -110.0, sinr_db, 10)
            for ue in range(1, n_secondary + 1)}


def _mn_sn_pair():
    mn = Node(CFG.n_prb)
    sn = Node(CFG.n_prb)
    mn.add_ue(1, 10)
    sn.add_ue(1, 22)
    return mn, sn


def request_amount_oracle(alpha, n_s, bandwidth_hz, sinr_db, window_s):
    share = alpha / n_s
    rate = bandwidth_hz * math.log2(1.0 + 10.0 ** (sinr_db / 10.0))
    return share * rate * window_s


def test_request_amount_fixed_point():
    # two served UEs, 0 dB link:
    # 0.6 / 2 * 1e7 * log2(2) * 0.05 s = 150000 bits
    node = _sn_node(2)
    got = compute_request_amount(node, 0.0, CFG)
    assert isinstance(got, float)
    assert got == pytest.approx(150_000.0, rel=1e-12)


def test_request_amount_matches_oracle_on_random_draws():
    rng = random.Random(12345)
    window_s = (CFG.split_delta_ms + CFG.split_toff_ms) * 1e-3
    for _ in range(1000):
        n_s = rng.randint(1, 20)
        sinr_db = rng.uniform(-10.0, 25.0)
        node = _sn_node(n_s)
        want = request_amount_oracle(CFG.split_alpha, n_s,
                                     CFG.bandwidth_mhz * 1e6, sinr_db, window_s)
        got = compute_request_amount(node, sinr_db, CFG)
        assert got == pytest.approx(want, rel=1e-9)


def test_request_amount_requires_served_ues():
    node = Node(CFG.n_prb)
    with pytest.raises(ValueError):
        compute_request_amount(node, 0.0, CFG)


def test_request_amount_after_release_and_re_add():
    # the amount comes from the UE's report, which outlives its binding
    node, reports = _sn_node(1), _reports(1, 10.0)
    [before] = send_periodic_requests(node, reports, CFG)
    del node.queues[1]      # a release drops the leg's queue
    node.add_ue(1, 22)
    [after] = send_periodic_requests(node, reports, CFG)
    assert after.amount_bits == before.amount_bits


def test_request_amount_halves_when_membership_doubles():
    a = compute_request_amount(_sn_node(3), 10.0, CFG)
    b = compute_request_amount(_sn_node(6), 10.0, CFG)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_periodic_requests_cover_every_secondary():
    node = _sn_node(3)
    reqs = send_periodic_requests(node, _reports(3, 10.0), CFG)
    assert sorted(r.ue_id for r in reqs) == [1, 2, 3]
    for r in reqs:
        assert r.amount_bits == compute_request_amount(node, 10.0, CFG)
        assert r.forwarded_bits == 0


def test_forwarding_decision_decrements_and_stops():
    mn, sn = _mn_sn_pair()
    grant = Grant(1, 30_000.0)
    moved = []
    for i in range(4):
        mn.queues[1].push(PdcpPdu(i, 12_000, 0))
        moved.append(drain_forward(mn, sn, grant))
    # 6000 bits left after two, a 12000-bit unit no longer fits
    assert moved == [1, 1, 0, 0]
    assert grant.forwarded_bits == 24_000


def test_grant_audit_tracks_usage_fraction():
    mn, sn = _mn_sn_pair()
    mn.queues[1].push(PdcpPdu(0, 12_000, 0))
    book = GrantBook()
    book.replace(Grant(1, 24_000.0))
    drain_forward(mn, sn, book.grants[1])
    book.close()
    assert book.windows_checked == 1
    assert book.violations == 0
    assert book.max_used_fraction == pytest.approx(0.5)


def test_drain_forward_moves_whole_pdus_up_to_grant():
    mn, sn = _mn_sn_pair()
    for i in range(4):
        mn.queues[1].push(PdcpPdu(i, 12_000, 0))
    moved = drain_forward(mn, sn, Grant(1, 30_000.0))
    assert moved == 2
    assert [p.sn for p in sn.queues[1].pending] == [0, 1]
    assert [p.sn for p in mn.queues[1].pending] == [2, 3]


def test_drain_forward_leaves_in_service_pdu_alone():
    mn, sn = _mn_sn_pair()
    for i in range(3):
        mn.queues[1].push(PdcpPdu(i, 12_000, 0))
    mn.queues[1].take(3_000)  # pdu 0 now partially transmitted
    moved = drain_forward(mn, sn, Grant(1, 100_000.0))
    assert moved == 2
    assert mn.queues[1].in_service.sn == 0
    assert [p.sn for p in sn.queues[1].pending] == [1, 2]


def test_reroute_returns_pdus_to_anchor_in_order():
    mn, sn = _mn_sn_pair()
    mn.queues[1].push(PdcpPdu(9, 12_000, 0))
    for i in (1, 2, 3):
        sn.queues[1].push(PdcpPdu(i, 12_000, 0))
    sn.queues[1].take(3_000)  # pdu 1 mid-flight at the beam, still rerouted
    n = release_secondary(sn, mn, 1)
    assert n == 3
    assert 1 not in sn.queues
    q = mn.queues[1]
    # oldest first, ahead of the anchor's own younger PDU
    assert [p.sn for p in q.pending] == [1, 2, 3, 9]
    assert q.queued_bits - q.served_bits == 48_000


def test_replacing_a_grant_finalizes_the_old_window():
    mn, sn = _mn_sn_pair()
    mn.queues[1].push(PdcpPdu(0, 12_000, 0))
    book = GrantBook()
    book.replace(Grant(1, 12_000.0))
    assert drain_forward(mn, sn, book.grants[1]) == 1
    book.replace(Grant(1, 12_000.0))
    book.close()
    assert book.windows_checked == 2
    assert book.violations == 0
    assert book.max_used_fraction == pytest.approx(1.0)
