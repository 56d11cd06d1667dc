"""`schedule_tti` against a plain max-min fair oracle.

`max_min_oracle` water-fills in rounds, written for clarity rather than
speed; `reference_schedule_tti` computes each backlogged UE's need in REs,
asks the oracle for the grants, and sends a whole-byte transport block per
grant through `take`, every TTI and for every UE. The properties drive the
scheduler and the reference on equal copies of a random node, holding the
same PDU objects, and require the same REs granted, the same completions,
the same queue state and the same rotation counter. The second one mixes
the changes a run makes between TTIs into the TTIs, on nodes drawn to
saturate, so that the scheduler serves them in saturated epochs.
"""

import math
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ntnmc import dataplane
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
    """One TTI at `node`, the grants taken from `max_min_oracle`; returns
    the REs granted and leaves the completions in `node.completed`, as
    `schedule_tti` does."""
    eff = MCS_EFFICIENCIES
    hungry, needs = [], []
    for ue, q in node.queues.items():
        bits = q.queued_bits - q.served_bits
        if q.mcs is not None and bits > 0:
            hungry.append(ue)
            needs.append(math.ceil(bits / eff[q.mcs]))
    node.completed = []
    if not hungry:
        return 0
    alloc = max_min_oracle(needs, node.n_res, node._rr % len(hungry))
    node._rr += 1
    for ue, n_res in zip(hungry, alloc):
        if n_res <= 0:
            continue
        q = node.queues[ue]
        done = q.take(int(eff[q.mcs] * n_res) // 8 * 8)
        if done:
            node.completed.append((ue, done))
    return sum(alloc)


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


def build_nodes(spec):
    """Two equal nodes from `spec`, holding the same PDU objects."""
    n_res, rr, ues = spec
    nodes = Node(52), Node(52)
    for node in nodes:
        node.n_res = n_res
        node._rr = rr
    for ue_id, (mcs, pdus, sent) in enumerate(ues):
        pdus = [PdcpPdu(sn, bits, 0) for sn, bits in enumerate(pdus)]
        for node in nodes:
            node.add_ue(ue_id, mcs)
            q = node.queues[ue_id]
            for pdu in pdus:
                q.push(pdu)
            if sent:
                q.take(sent)    # the first PDU in service, partly sent
    return nodes


def state(node):
    """Every queue's state and the rotation counter, read without ending
    an open epoch."""
    epoch = node.epoch
    queues = {ue: (node.served_bits(ue), q.queued_bits, q.in_service,
                   list(q.pending), q.mcs)
              for ue, q in node.queues.items()}
    assert node.epoch is epoch
    return queues, node._rr


def same_tti(node, ref):
    assert schedule_tti(node) == reference_schedule_tti(ref)
    assert node.completed == ref.completed      # the same PDU objects
    assert state(node) == state(ref)


@settings(deadline=None, max_examples=200)
@given(node_specs(), st.integers(1, 6))
def test_schedule_tti_matches_reference(spec, n_ttis):
    node, ref = build_nodes(spec)
    for _ in range(n_ttis):
        same_tti(node, ref)


MCS = st.one_of(st.none(), st.integers(0, len(MCS_EFFICIENCIES) - 1))
# A UE added or removed is drawn less often than a change to one queue.
KINDS = (["push", "pop", "set_mcs"] * 3 + ["push_front"] * 2
         + ["add_ue", "remove_ue"])


@st.composite
def steps(draw):
    """A change between TTIs, made on the UE at a drawn position of the
    node's list: a PDU pushed, up to a number of PDUs forwarded, an MCS
    set, a UE added or removed."""
    kind = draw(st.sampled_from(KINDS))
    if kind in ("push", "push_front"):
        arg = draw(PDU_BITS)
    elif kind == "pop":
        arg = draw(st.integers(1, 8))
    else:
        arg = draw(st.one_of(st.integers(0, len(MCS_EFFICIENCIES) - 1), MCS))
    return kind, draw(st.integers(0, 99)), arg


@st.composite
def saturating_specs(draw):
    """A node whose UEs mostly hold backlogs far above their equal share,
    so that its TTIs saturate."""
    n_res = draw(st.sampled_from([7, 40, 873, res_per_tti(52)]))
    rr = draw(st.integers(0, 50))
    ues = []
    for _ in range(draw(st.integers(1, 12))):
        mcs = draw(st.one_of(st.integers(0, len(MCS_EFFICIENCIES) - 1), MCS))
        idle = draw(st.integers(0, 3)) == 0
        pdus = draw(st.lists(st.one_of(st.integers(4_000, 40_000), PDU_BITS),
                             min_size=0 if idle else 1, max_size=8))
        sent = draw(st.integers(0, pdus[0] - 1)) if pdus else 0
        ues.append((mcs, pdus, sent))
    return n_res, rr, ues


def _apply(step, nodes):
    """Make `step` on both nodes alike."""
    kind, pos, arg = step
    ues = list(nodes[0].queues)
    if kind == "add_ue":
        for node in nodes:
            node.add_ue(max(ues, default=-1) + 1, arg)
        return
    if not ues:
        return
    ue = ues[pos % len(ues)]
    if kind in ("push", "push_front"):
        pdu = PdcpPdu(-1, arg, 0)
        for node in nodes:
            getattr(node.queues[ue], kind)(pdu)
    elif kind == "pop":
        for _ in range(min(arg, len(nodes[0].queues[ue].pending))):
            a, b = (node.queues[ue].pop_pending() for node in nodes)
            assert a is b
    elif kind == "set_mcs":
        for node in nodes:
            node.set_mcs(ue, arg)
    else:
        a, b = (node.remove_ue(ue).drain_all() for node in nodes)
        assert a == b


def _backlogged(*mcs_and_pdus):
    """A full grid over UEs of 12,000-bit PDUs, given as (MCS, count)."""
    return (res_per_tti(52), 0,
            [(mcs, [12_000] * count, 0) for mcs, count in mcs_and_pdus])


@settings(deadline=None, max_examples=300)
@given(saturating_specs(), st.sampled_from([True, True, False]),
       st.integers(1, 30),
       st.lists(st.tuples(steps(), st.integers(0, 20)), max_size=30))
# Forwarding most of a member's backlog ends the epoch, and the TTIs after
# it run eagerly from served counts brought up to date. In the second case
# it leaves 7,403 bits at MCS 10, which need 4,367 REs, one below the
# share, so the next TTI is not saturated; the other UE then gets 4,369
# REs, which at MCS 26 carry 8 bits more than 4,368.
@example(_backlogged((10, 10), (10, 10)), True, 2,
         [(("pop", 0, 8), 12)])
@example((res_per_tti(52), 0, [(10, [14_803] + [12_000] * 9, 0),
                               (26, [12_000] * 10, 0)]), True, 1,
         [(("pop", 0, 9), 3)])
# No epoch opens beside an idle UE that has an MCS, even with the cost
# rule skipped: nothing would tell the epoch of a PDU put back at its front.
@example(_backlogged((10, 10), (10, 10), (10, 0)), True, 2,
         [(("push_front", 2, 12_000), 3)])
# Adding a UE ends the open epoch, which would never serve the UE once a
# PDU reaches it.
@example(_backlogged((10, 10), (10, 10)), True, 2,
         [(("add_ue", 0, 10), 0), (("push", 2, 12_000), 3)])
# A member's own push moves its fall later: at the old fall it is checked
# and passes, and its next fall is planned from there.
@example(_backlogged((10, 3), (10, 20)), True, 1,
         [(("push", 0, 12_000), 12)])
def test_saturated_epochs_match_reference(spec, forced, first, script):
    # `first` TTIs, then each change of the script followed by its number
    # of TTIs. With `forced`, the cost rule is skipped: every saturated TTI
    # at which every UE with an MCS is backlogged opens an epoch, not only
    # one likely to last.
    node, ref = build_nodes(spec)
    opened = 0
    rule = (lambda node, needs: True) if forced else dataplane._epoch_pays
    with mock.patch.object(dataplane, "_epoch_pays", rule):
        for step, ttis in [(None, first)] + script:
            if step is not None:
                _apply(step, (node, ref))
                assert state(node) == state(ref)
            for _ in range(ttis):
                same_tti(node, ref)
                opened += node.epoch is not None
    event(f"epoch TTIs: {min(opened, 10)}{'+' if opened > 10 else ''}")
    node.settle()
    assert node.epoch is None
    assert ([q.served_bits for q in node.queues.values()]
            == [q.served_bits for q in ref.queues.values()])


def test_drawn_nodes_open_epochs():
    # The property above is only worth its examples if they reach epochs.
    opened = []

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(saturating_specs())
    def run(spec):
        node, ref = build_nodes(spec)
        for _ in range(3):
            same_tti(node, ref)
        opened.append(node.epoch is not None)

    run()
    assert sum(opened) >= 25, sum(opened)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=12),
       st.integers(0, 300), st.integers(0, 11))
def test_max_min_share_matches_oracle(needs, total, first):
    first %= len(needs)
    assert (max_min_share(needs, total, first)
            == max_min_oracle(needs, total, first))
