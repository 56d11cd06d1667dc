"""What one run must give relative to another.

Golden digests pin what the program did; these relations say what it must
do. A secondary leg can change a UE's throughput only through the PDUs
forwarded to it, so a run in which no UE is eligible, or in which no grant
covers a PDU, delivers to every UE exactly what a run without
multi-connectivity (`off`) delivers. Those runs use the golden campaign's
1 s config at seed 1, whose anchor queue cap is scaled to the run length,
so that queues fill and every policy binds UEs and, with normal grants,
moves their throughput away from `off`'s. The beam's load window is read
only where admission checks the load. Only a policy that evaluates
measures, while which UEs reach the RSRP floor is a property of the
layout and the satellite pass, the same under every policy. Under light
load, 2 s runs at seeds 1-3, every UE that its anchor can serve gets
every packet.
"""

from functools import cache

import pytest

from ntnmc.config import load_config
from ntnmc.simulation import Scenario

from test_golden import SMALL, TWO_SECONDS, result_digest
from test_measurement_reference import SPLITTING_FLOOR_DBM

MC_POLICIES = ["mcs", "rsrp", "bo"]


@cache
def _scenario(policy, **overrides):
    """The run at seed 1, as the scenario after it and its result."""
    cfg = load_config(None, environ={}, policy=policy, **SMALL, **overrides)
    sc = Scenario(cfg, 1)
    return sc, sc.run_to_end()


def _run(policy, **overrides):
    return _scenario(policy, **overrides)[1]


@pytest.mark.parametrize("policy", MC_POLICIES)
def test_no_eligible_ue_runs_as_off(policy):
    # Nobody clears an RSRP floor of 1000 dBm, so nobody is added.
    r, off = _run(policy, rsrp_min_dbm=1000.0), _run("off")
    assert r.throughput_kbps == off.throughput_kbps
    assert r.counters["eligible_ues"] == 0 < off.counters["eligible_ues"]
    assert (dict(r.counters, eligible_ues=0)
            == dict(off.counters, eligible_ues=0))


@pytest.mark.parametrize("policy", MC_POLICIES)
def test_a_starved_split_runs_as_off(policy):
    # A grant of split_alpha = 1e-9 never covers a PDU, so UEs are bound
    # but nothing is forwarded.
    r, off = _run(policy, split_alpha=1e-9), _run("off")
    assert r.throughput_kbps == off.throughput_kbps
    assert r.counters["sn_adds"] > 0
    assert _run(policy).throughput_kbps != off.throughput_kbps


@pytest.mark.parametrize("policy", MC_POLICIES + ["off"])
def test_the_load_window_reaches_only_gated_admission(policy):
    # `mcs` and `bo` admit a leg only with load headroom over the window;
    # `rsrp` admits on the add gate alone, and `off` admits nobody.
    one, hundred = _run(policy, load_window_ms=1.0), _run(policy)
    if policy in ("rsrp", "off"):
        assert result_digest(one) == result_digest(hundred)
    else:
        assert (one.counters["rejects_overloaded"]
                > hundred.counters["rejects_overloaded"])


def test_eligibility_does_not_depend_on_the_policy():
    eligible = {p: _run(p, rsrp_min_dbm=SPLITTING_FLOOR_DBM)
                .counters["eligible_ues"] for p in MC_POLICIES + ["off"]}
    assert set(eligible.values()) == {45}, eligible


def test_only_a_policy_that_evaluates_measures():
    assert _scenario("off")[0].reports == {}
    sc = _scenario("mcs")[0]
    assert set(sc.reports) == set(sc.ues)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("policy", MC_POLICIES + ["off"])
def test_light_load_delivers_every_packet_a_ue_can_be_sent(policy, seed):
    # At 100 kb/s (one packet per 120 ms) an anchor queue empties between
    # arrivals, so the 1 s window after warmup holds 8 arrivals, and a
    # ninth when the one before the window lands after warmup.
    cfg = load_config(None, environ={}, policy=policy, cbr_rate_bps=100e3,
                      **TWO_SECONDS)
    sc = Scenario(cfg, seed)
    sc.run_to_end()
    packet_bits = cfg.packet_bytes * 8
    unserved = {u for u, ue in sc.ues.items() if ue.mn_queue.mcs is None}
    assert unserved
    for u, ue in sc.ues.items():
        if u not in unserved:
            assert ue.receiver.post_warmup_bits in (8 * packet_bits,
                                                    9 * packet_bits), u
    if policy in ("off", "bo"):
        # `bo` binds nobody: in 2 s no queue fills to its threshold.
        assert {u for u, ue in sc.ues.items()
                if ue.receiver.post_warmup_bits == 0} == unserved
