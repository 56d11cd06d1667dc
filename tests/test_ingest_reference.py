"""CBR ingest against a reference: the loop that admits or drops each UE's
packet and, right after admitting it, drains the UE's grant if it covers
the packet, one UE at a time in `Scenario.ues` order.

`ReferenceIngest` is a `Scenario` whose `_on_arrival` is that loop. Each
case runs it and the shipped scenario on one config and requires equal
result digests and an equal number of `drain_forward` calls and of PDUs
they move, since a drain that moves nothing changes no result. The cases
cover every policy at a cap that drops packets, every policy at a cap
below one packet, so that every packet drops, and `mcs` at a run length at
which it releases legs, so that PDUs go back to the anchor queue.
"""

from unittest import mock

import pytest

from ntnmc import traffic_split as ts
from ntnmc.config import load_config
from ntnmc.simulation import Scenario

from test_golden import SMALL, TWO_SECONDS, result_digest

POLICIES = ["mcs", "rsrp", "bo", "off"]
BELOW_ONE_PACKET = dict(SMALL, ue_queue_bytes=1000)


class ReferenceIngest(Scenario):
    def _on_arrival(self):
        t = self.sim.now
        cfg = self.cfg
        bits = cfg.packet_bits
        cap = cfg.ue_queue_bytes * 8
        grants = self.book.grants
        self.cbr_instants += 1
        for ue in self.ues.values():
            q = ue.mn_queue
            if q.queued_bits + bits > cap:
                ue.dropped_pdus += 1
                continue
            q.admit(ue.next_sn, bits, t)
            ue.next_sn += 1
            grant = grants.get(ue.ue_id)
            if grant is not None and grant.covers(bits):
                ts.drain_forward(self.nodes[ue.mn_node_id], self.ntn_node,
                                 grant)
        self.sim.schedule_in(cfg.cbr_interval_ns, self._on_arrival)


def _run(scenario_cls, cfg):
    """The run's result and its drain calls and PDUs moved."""
    drains = [0, 0]

    def counted(mn_node, sn_node, grant, _drain=ts.drain_forward):
        moved = _drain(mn_node, sn_node, grant)
        drains[0] += 1
        drains[1] += moved
        return moved

    with mock.patch.object(ts, "drain_forward", counted):
        result = scenario_cls(cfg, 1).run_to_end()
    return result, tuple(drains)


def _same_as_reference(policy, overrides):
    cfg = load_config(None, environ={}, policy=policy, **overrides)
    ref, ref_drains = _run(ReferenceIngest, cfg)
    got, got_drains = _run(Scenario, cfg)
    assert result_digest(got) == result_digest(ref)
    assert got_drains == ref_drains
    return got, got_drains


@pytest.mark.parametrize("policy", POLICIES)
def test_ingest_matches_the_reference_where_queues_fill(policy):
    r, (calls, moved) = _same_as_reference(policy, SMALL)
    assert r.counters["dropped_pdus"] > 0
    if policy in ("mcs", "rsrp", "bo"):
        assert moved > 0
    else:
        assert calls == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_ingest_matches_the_reference_when_every_packet_drops(policy):
    r, (_calls, moved) = _same_as_reference(policy, BELOW_ONE_PACKET)
    assert r.counters["dropped_bits"] == r.counters["generated_bits"] > 0
    assert moved == 0


def test_ingest_matches_the_reference_across_releases():
    r, (_calls, moved) = _same_as_reference("mcs", TWO_SECONDS)
    assert r.counters["sn_releases"] > 0 and moved > 0
