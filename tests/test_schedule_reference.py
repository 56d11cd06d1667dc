"""`schedule_tti` against a plain max-min fair oracle.

`max_min_oracle` water-fills in rounds, written for clarity rather than
speed; `reference_schedule_tti` computes each backlogged UE's need in REs,
asks the oracle for the grants, and sends a whole-byte transport block per
grant through `take`. The property drives the scheduler and the reference
on equal copies of a random node for several TTIs and requires the same
grants, the same queue state and the same rotation counter.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ntnmc.channel import MCS_EFFICIENCIES
from ntnmc.dataplane import (Node, PdcpPdu, max_min_share, res_per_tti,
                             schedule_tti)

def max_min_oracle(needs, total, first):
    """Max-min fair grants of `total` REs over `needs`, by rounds: each
    round gives every UE still short of its need an equal share of the REs
    left, capped at what it still needs. When the REs left are fewer than
    the UEs short, they go one each to those UEs in cyclic order from
    position `first`."""
    n = len(needs)
    grants = [0] * n
    left = total
    while left > 0:
        short = [j for j in range(n) if grants[j] < needs[j]]
        if not short:
            break
        share = left // len(short)
        if share == 0:
            short.sort(key=lambda j: (j - first) % n)
            for j in short[:left]:
                grants[j] += 1
            break
        for j in short:
            give = min(share, needs[j] - grants[j])
            grants[j] += give
            left -= give
    return grants


def reference_schedule_tti(node):
    """One TTI at `node`, the grants taken from `max_min_oracle`."""
    eff = MCS_EFFICIENCIES
    hungry, needs = [], []
    for ue, q in node.queues.items():
        bits = q.queued_bits - q.served_bits
        if q.mcs is not None and bits > 0:
            hungry.append(ue)
            needs.append(math.ceil(bits / eff[q.mcs]))
    out = []
    if hungry:
        alloc = max_min_oracle(needs, node.n_res, node._rr % len(hungry))
        node._rr += 1
        for ue, n_res in zip(hungry, alloc):
            if n_res <= 0:
                continue
            mcs = node.queues[ue].mcs
            tb_bits = int(eff[mcs] * n_res) // 8 * 8
            out.append((ue, n_res, node.queues[ue].take(tb_bits)))
    return out


# PDU sizes: the CBR packet, sizes small enough that a UE's need falls to
# or below the equal share (water-filling), and anything in between.
PDU_BITS = st.one_of(st.sampled_from([8, 96, 1_000, 12_000]),
                     st.integers(8, 40_000))


@st.composite
def node_specs(draw):
    """A node as plain data: REs per TTI, rotation counter, and per UE its
    MCS (None below the table floor), PDU sizes and the bits already sent
    of its first PDU."""
    n_res = draw(st.sampled_from([1, 7, 40, res_per_tti(1), res_per_tti(25),
                                  res_per_tti(52), res_per_tti(106)]))
    rr = draw(st.integers(0, 50))
    ues = []
    for _ in range(draw(st.integers(0, 40))):
        mcs = draw(st.one_of(st.none(),
                             st.integers(0, len(MCS_EFFICIENCIES) - 1)))
        pdus = draw(st.lists(PDU_BITS, max_size=6))
        sent = draw(st.integers(0, pdus[0] - 1)) if pdus else 0
        ues.append((mcs, pdus, sent))
    return n_res, rr, ues


def build_node(spec):
    n_res, rr, ues = spec
    node = Node(52)
    node.n_res = n_res
    node._rr = rr
    for ue_id, (mcs, pdus, sent) in enumerate(ues):
        node.add_ue(ue_id, mcs)
        q = node.queues[ue_id]
        for sn, bits in enumerate(pdus):
            q.push(PdcpPdu(sn, bits, 0))
        if sent:
            q.take(sent)        # the first PDU in service, partly sent
    return node


def _pdus(pdus):
    return [(p.sn, p.bits) for p in pdus]


def grants(out):
    return [(ue, n_res, _pdus(done)) for ue, n_res, done in out]


def state(node):
    queues = {ue: (q.served_bits, q.queued_bits,
                   None if q.in_service is None else _pdus([q.in_service]),
                   _pdus(q.pending))
              for ue, q in node.queues.items()}
    return queues, node._rr


@settings(deadline=None, max_examples=200)
@given(node_specs(), st.integers(1, 6))
def test_schedule_tti_matches_reference(spec, n_ttis):
    node, ref = build_node(spec), build_node(spec)
    for _ in range(n_ttis):
        got = schedule_tti(node)
        want = reference_schedule_tti(ref)
        assert grants(got) == grants(want)
        assert state(node) == state(ref)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=12),
       st.integers(0, 300), st.integers(0, 11))
def test_max_min_share_matches_oracle(needs, total, first):
    first %= len(needs)
    assert (max_min_share(needs, total, first)
            == max_min_oracle(needs, total, first))
