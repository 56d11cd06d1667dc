"""The benchmark (perfbench/) patches functions of the package by name and
reads fields of its results. These runs check that every probe behind an
exact work counter, and the reconfiguration event kind, still sees calls,
that a `schedule_tti` call counts as a hit exactly when its node granted
REs, and that the benchmark's result path (`bench.run_repeat`,
`Checker.check`, `fingerprint`) runs on the package as it is."""

import importlib.util
from pathlib import Path

import pytest

from ntnmc import dataplane, simulation
from ntnmc.config import load_config

from test_schedule_reference import reference_schedule_tti

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_probes():
    return _load("probes")


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


def test_schedule_tti_hits_are_busy_node_ttis(monkeypatch):
    # `dataplane.schedule_tti.idle_frac` reads a call whose result is falsy
    # as an idle node-TTI. On a saturated run, with sectors in saturated
    # epochs, the hits must be the node-TTIs the eager reference finds
    # busy.
    cfg = load_config(None, environ={}, sim_duration_s=0.4, warmup_s=0.2,
                      n_ue_per_sector=30, policy="off")
    sectors, opened = [], []

    def build(self, _orig=simulation.Scenario._build):
        _orig(self)
        sectors[:] = self.nodes

    class Recorded(dataplane.SaturatedEpoch):
        def __init__(self, node, *args):
            opened.append(node)
            super().__init__(node, *args)

    monkeypatch.setattr(simulation.Scenario, "_build", build)
    monkeypatch.setattr(dataplane, "SaturatedEpoch", Recorded)
    probes = _load_probes()
    tracer = probes.Tracer(timed=False)
    with probes.Probes(tracer):
        simulation.run_single(cfg, 1)
    calls, hits = tracer.records["dataplane.schedule_tti"][:2]
    assert any(node in sectors for node in opened)

    busy = []

    def eager(node):
        granted = reference_schedule_tti(node)
        busy.append(granted > 0)
        return granted

    monkeypatch.setattr(simulation, "schedule_tti", eager)
    simulation.run_single(cfg, 1)
    assert (calls, hits) == (len(busy), sum(busy))
    assert 0 < hits < calls      # the beam serves no one under `off`


def test_benchmark_result_path(tmp_path, monkeypatch):
    # bench.py imports probes.py by plain name, as perfbench/run.py runs it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = _load("bench")
    spec = dict(policies=("mcs", "off"), jobs=1,
                overrides=dict(sim_duration_s=0.6, warmup_s=0.3,
                               n_ue_per_sector=2))
    rep = bench.run_repeat(spec, 1, bench.COUNT, 1, tmp_path)
    assert rep.error is None
    checker = bench.Checker(len(spec["policies"]) * len(bench.RUN_SEEDS))
    checker.check("count", rep)
    assert (checker.attempted, checker.failed) == (2, 0), checker.notes
    assert [f[0] for f in bench.fingerprint(spec, rep)] == ["mcs", "off"]
