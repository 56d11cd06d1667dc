"""Measurements and eligibility against a reference: the chain that measures
every UE's satellite link at each of its instants under every policy,
`off` included, and counts a UE eligible when its best RSRP, the one at
attach or a higher measured one, reaches `rsrp_min_dbm`.

`ReferenceMeasurements` is a `Scenario` with that chain. Each case runs it
and the shipped scenario, which measures only under a policy that reads
reports and checks the floor once per UE at the end, and requires equal
result digests. The cases cover every policy at the default floor, which
every UE clears at attach, and at a floor that about half of the UEs
reach, most of them only after attach, so that the count depends on the
instants after attach. A last case moves every UE's instants so that one
falls on the run's end, and sets the floor that one UE first reaches there.
"""

import pytest

from ntnmc.config import load_config
from ntnmc.simulation import Scenario

from test_golden import SMALL, result_digest

POLICIES = ["mcs", "rsrp", "bo", "off"]
# At seed 1, 45 of the 90 UEs of `SMALL` reach this floor, 21 at attach.
SPLITTING_FLOOR_DBM = -109.985677


class ReferenceMeasurements(Scenario):
    def _build(self):
        self.attach_rsrp_dbm = {}
        self.best_rsrp_dbm = {}
        self.measurements = 0
        super()._build()
        if self.policy.evaluate is None:
            # Where the parent's `_build` schedules them: after the arrival
            # and TTI chains, and `off` schedules nothing after those.
            self._schedule_measurements()

    def _add_ue(self, ue_id, sector_id, pos):
        super()._add_ue(ue_id, sector_id, pos)
        rsrp = self.ntn.link_state(self.ues[ue_id].ntn_terms, 0)[0]
        self.attach_rsrp_dbm[ue_id] = self.best_rsrp_dbm[ue_id] = rsrp

    def _on_measurement(self, ue, period):
        self.measurements += 1
        rsrp = self.ntn.link_state(ue.ntn_terms, self.sim.now)[0]
        if rsrp > self.best_rsrp_dbm[ue.ue_id]:
            self.best_rsrp_dbm[ue.ue_id] = rsrp
        super()._on_measurement(ue, period)

    def _reaches_rsrp_floor(self, ue):
        return self.best_rsrp_dbm[ue.ue_id] >= self.cfg.rsrp_min_dbm


def _same_as_reference(policy, **overrides):
    cfg = load_config(None, environ={}, policy=policy, **SMALL, **overrides)
    ref = ReferenceMeasurements(cfg, 1)
    want = ref.run_to_end()
    got = Scenario(cfg, 1).run_to_end()
    assert result_digest(got) == result_digest(want)
    assert ref.measurements > 0
    return ref, got


@pytest.mark.parametrize("policy", POLICIES)
def test_measurements_match_the_reference_at_the_default_floor(policy):
    ref, got = _same_as_reference(policy)
    floor = ref.cfg.rsrp_min_dbm
    assert all(r >= floor for r in ref.attach_rsrp_dbm.values())
    assert got.counters["eligible_ues"] == len(ref.ues)


@pytest.mark.parametrize("policy", POLICIES)
def test_measurements_match_the_reference_where_the_floor_splits(policy):
    ref, got = _same_as_reference(policy, rsrp_min_dbm=SPLITTING_FLOOR_DBM)
    at_attach = sum(r >= SPLITTING_FLOOR_DBM
                    for r in ref.attach_rsrp_dbm.values())
    eligible = got.counters["eligible_ues"]
    assert 0 < at_attach < eligible < len(ref.ues)


def test_a_floor_reached_only_at_the_end_counts(monkeypatch):
    # `run_until` fires the events at the end instant, so a UE that first
    # reaches the floor at a measurement there is eligible.
    add_ue = Scenario._add_ue

    def measured_at_the_end(self, ue_id, sector_id, pos):
        add_ue(self, ue_id, sector_id, pos)
        self.ues[ue_id].meas_phase_ns = self.end_ns % self.ns["meas_period_ms"]

    monkeypatch.setattr(Scenario, "_add_ue", measured_at_the_end)
    sc = Scenario(load_config(None, environ={}, policy="off", **SMALL), 1)
    period = sc.ns["meas_period_ms"]
    instants = [0, *range(sc.end_ns % period, sc.end_ns + 1, period)]
    rsrps = [[sc.ntn.link_state(ue.ntn_terms, t)[0] for t in instants]
             for ue in sc.ues.values()]
    floor = max(r[-1] for r in rsrps if r[-1] > max(r[:-1]))
    _ref, got = _same_as_reference("off", rsrp_min_dbm=floor)
    assert got.counters["eligible_ues"] == sum(max(r) >= floor for r in rsrps)
