"""`schedule_tti` against a reference copy of the scheduler.

`reference_schedule_tti` and `reference_equal_share` are the scheduler as
it stood before the one-pass rewrite, copied verbatim: one loop building
each backlogged UE's need in REs, a rotated order, the equal share
(single round or water-filling) in a dict, and `take` for every grant. The
property drives both on equal copies of a random node for several TTIs and
requires the same grants, the same queue state, the same rotation counter
and the same load window.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ntnmc.channel import McsTable
from ntnmc.dataplane import (Node, PdcpPdu, res_per_tti, schedule_tti,
                             transport_block_bits)

TABLE = McsTable.default()


def reference_equal_share(order, needs, total):
    """Split `total` REs equally over `order`, capped by per-UE need.

    The integer remainder goes to the earliest entries of `order`; callers
    rotate `order` across TTIs so the remainder circulates and any two
    backlogged UEs stay within one RE of each other over a 10 TTI window.
    """
    if order:
        # Common round: every need exceeds the first equal share, so the
        # water-filling below would end after one round with this result.
        share, extra = divmod(total, len(order))
        if min(needs[u] for u in order) > share:
            return {ue: share + (i < extra) for i, ue in enumerate(order)}
    alloc = dict.fromkeys(order, 0)
    active = [u for u in order if needs[u] > 0]
    remaining = total
    while remaining > 0 and active:
        share, extra = divmod(remaining, len(active))
        if share == 0 and extra == 0:
            break
        still = []
        for i, ue in enumerate(active):
            give = min(needs[ue] - alloc[ue], share + (1 if i < extra else 0))
            alloc[ue] += give
            remaining -= give
            if alloc[ue] < needs[ue]:
                still.append(ue)
        if len(still) == len(active):
            break
        active = still
    return alloc


def reference_schedule_tti(node, t_ns):
    """Run one TTI of round-robin scheduling at `node`.

    Backlogged UEs split the node's REs equally with the remainder rotating.
    Returns [(ue_id, n_res, mcs, completed_pdus)] and records this TTI in
    the node's load tracker.
    """
    queues = node.queues
    ue_mcs = node.ue_mcs
    eff = node.mcs_table.efficiencies
    hungry = []
    needs = {}
    for ue_id, q in queues.items():
        mcs = ue_mcs[ue_id]
        if mcs is None:
            continue
        bits = q.remaining_bits()
        if bits <= 0:
            continue
        hungry.append(ue_id)
        needs[ue_id] = math.ceil(bits / eff[mcs])

    out = []
    granted = 0
    if hungry:
        cur = node._rr % len(hungry)
        node._rr += 1
        order = hungry[cur:] + hungry[:cur]
        alloc = reference_equal_share(order, needs, node.n_res)
        for ue_id in hungry:
            n_res = alloc[ue_id]
            if n_res <= 0:
                continue
            granted += n_res
            mcs = ue_mcs[ue_id]
            tb_bits = transport_block_bits(eff[mcs], n_res)
            done = queues[ue_id].take(tb_bits)
            out.append((ue_id, n_res, mcs, done))
    node.load.record(granted)
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
                             st.integers(0, len(TABLE.efficiencies) - 1)))
        pdus = draw(st.lists(PDU_BITS, max_size=6))
        sent = draw(st.integers(0, pdus[0] - 1)) if pdus else 0
        ues.append((mcs, pdus, sent))
    return n_res, rr, ues


def build_node(spec):
    n_res, rr, ues = spec
    node = Node(52, TABLE, 10)
    node.n_res = n_res
    node._rr = rr
    for ue_id, (mcs, pdus, sent) in enumerate(ues):
        node.add_ue(ue_id, mcs)
        q = node.queues[ue_id]
        for sn, bits in enumerate(pdus):
            q.push(PdcpPdu(ue_id, sn, bits, 0))
        if sent:
            q.take(sent)        # the first PDU in service, partly sent
    return node


def _pdus(pdus):
    return [(p.ue_id, p.sn, p.bits) for p in pdus]


def grants(out):
    return [(ue, n_res, mcs, _pdus(done)) for ue, n_res, mcs, done in out]


def state(node):
    queues = {ue: (q.served_bits, q.queued_bits,
                   None if q.in_service is None else _pdus([q.in_service]),
                   _pdus(q.pending))
              for ue, q in node.queues.items()}
    return queues, node._rr, node.load._sum, list(node.load._hist)


@settings(deadline=None, max_examples=200)
@given(node_specs(), st.integers(1, 6))
def test_schedule_tti_matches_reference(spec, n_ttis):
    node, ref = build_node(spec), build_node(spec)
    for tti in range(n_ttis):
        got = schedule_tti(node, tti)
        want = reference_schedule_tti(ref, tti)
        assert grants(got) == grants(want)
        assert state(node) == state(ref)
