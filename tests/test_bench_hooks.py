"""The benchmark's layer probes (perfbench/probes.py) patch functions of the
package by name; these runs check that every probe behind an exact work
counter, and the reconfiguration event kind, still sees calls."""

import importlib.util
from pathlib import Path

import pytest

from ntnmc import dataplane, simulation
from ntnmc.config import load_config

PROBES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes",
                                                  PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("policy", ["rsrp", "mcs"])
def test_probes_see_every_work_counter(policy):
    probes = _load_probes()
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=2, policy=policy)
    tracer = probes.Tracer(timed=True)
    with probes.Probes(tracer):
        simulation.run_single(cfg, 1)
    counters = probes.work_counters(tracer.records)
    assert all(calls > 0 for calls in counters.values()), counters
    # three reconfiguration messages for every ACK
    acks = tracer.records["mc_control.admission"][1]
    assert tracer.records["simulation.reconfig"][0] == 3 * acks > 0
    assert simulation.schedule_tti is dataplane.schedule_tti
