"""What one run must give relative to another.

Golden digests pin what the program did; these relations say what it must
do. A secondary leg can change a UE's throughput only through the PDUs
forwarded to it, so a run in which no UE is eligible, or in which no grant
covers a PDU, delivers to every UE exactly what a run without
multi-connectivity (`off`) delivers. Runs use the golden campaign's 1 s
config at seed 1, whose anchor queue cap is scaled to the run length, so
that queues fill and every policy binds UEs and, with normal grants, moves
their throughput away from `off`'s.
"""

from functools import cache

import pytest

from ntnmc.config import load_config
from ntnmc.simulation import run_single

from test_golden import SMALL

MC_POLICIES = ["mcs", "rsrp", "bo"]


@cache
def _run(policy, **overrides):
    cfg = load_config(None, environ={}, policy=policy, **SMALL, **overrides)
    return run_single(cfg, 1)


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
