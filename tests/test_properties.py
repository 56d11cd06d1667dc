"""Invariant checks on randomized inputs (hypothesis)."""

import math
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from ntnmc import simulation
from ntnmc.config import (BOUNDS, PERIODS_MS, POLICIES,
                          PRBS_BY_BANDWIDTH_MHZ, ConfigError, ScenarioConfig,
                          interval_ends, load_config)
from ntnmc.dataplane import Node, PdcpPdu, UeTxQueue, max_min_share
from ntnmc.engine import Simulator, millis, seconds
from ntnmc.mc_control import (ACK, PREEMPTIVE, CandidateState, Measurement,
                              handle_sn_addition_request, release_secondary)
from ntnmc.simulation import Scenario
from ntnmc.stats import percentile

from test_dataplane import RecordingReceiver

CFG = ScenarioConfig()


def _admit(cand, ctrl, reports, ue_id, t_ns):
    """Admission as a scenario runs it: the anchor also serves every UE
    bound at the candidate, and the victim an ACK names is released through
    `release_secondary`."""
    anchor = Node(52)
    for ue in cand.queues:
        anchor.add_ue(ue, 10)
    d = handle_sn_addition_request(cand, ctrl, reports, ue_id, t_ns, CFG,
                                   PREEMPTIVE)
    if d.victim is not None:
        release_secondary(cand, anchor, d.victim)
    return d


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 4)),
                max_size=30))
def test_events_dispatch_in_time_then_insertion_order(spec):
    sim = Simulator()
    fired = []
    for i, (t, _pad) in enumerate(spec):
        sim.schedule_at(t, lambda i=i: fired.append(i))
    sim.run_until(10_001)
    want = sorted(range(len(spec)), key=lambda i: (spec[i][0], i))
    assert fired == want


def _pdus(pdus):
    return [(p.sn, p.bits, p.created_ns) for p in pdus]


def _queue_state(q):
    head = q.in_service
    return (q.queued_bits, q.served_bits, q.head_bits(),
            None if head is None else _pdus([head])[0])


QUEUE_OPS = st.lists(st.one_of(
    # PDUs to admit; the SN gap and the size apply only to an empty run.
    st.tuples(st.just("admit"), st.integers(1, 4), st.integers(0, 3),
              st.sampled_from([8, 96, 12_000])),
    st.tuples(st.just("take"), st.integers(0, 30_000)),
    st.tuples(st.just("pop"), st.integers(1, 3)),
    st.tuples(st.just("push_front"), st.integers(1, 3)),
    st.tuples(st.just("drain"))), max_size=40)


@settings(deadline=None, max_examples=200)
@given(QUEUE_OPS)
def test_fresh_run_queue_matches_a_queue_of_pushed_pdus(ops):
    # One queue is fed by `admit`, the other by `push` of the same PDUs;
    # every PDU gets its own stamp.
    run_q, pdu_q = UeTxQueue(10), UeTxQueue(10)
    next_sn = stamp = 0
    left = []           # PDUs out of the queues, for `push_front`
    for op in ops:
        kind = op[0]
        if kind == "admit":
            bits = run_q.run_bits
            if not run_q.run:
                next_sn += op[2]
                bits = op[3]
            for _ in range(op[1]):
                stamp += 1
                run_q.admit(next_sn, bits, stamp)
                pdu_q.push(PdcpPdu(next_sn, bits, stamp))
                next_sn += 1
            with pytest.raises(ValueError):
                run_q.push(PdcpPdu(next_sn, bits, stamp))
        elif kind == "take":
            got = [q.take(op[1]) for q in (run_q, pdu_q)]
            assert _pdus(got[0]) == _pdus(got[1])
            left += got[1]
        elif kind == "pop":
            for _ in range(op[1]):
                if pdu_q.head_bits() is None:
                    break
                got = [q.pop_pending() for q in (run_q, pdu_q)]
                assert _pdus(got[:1]) == _pdus(got[1:])
                left.append(got[1])
        elif kind == "push_front":
            back, left = left[-op[1]:], left[:-op[1]]
            for pdu in reversed(back):
                run_q.push_front(pdu)
                pdu_q.push_front(pdu)
        else:
            got = [q.drain_all() for q in (run_q, pdu_q)]
            assert _pdus(got[0]) == _pdus(got[1])
            left += got[1]
        assert _queue_state(run_q) == _queue_state(pdu_q)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 30), max_size=40))
def test_receiver_accounts_for_every_pdu(sns):
    sim = Simulator()
    rx = RecordingReceiver(sim)
    for i, sn in enumerate(sns):
        sim.run_until(millis(float(i)))
        rx.receive(PdcpPdu(sn, 8, 0), sim.now)
    sim.run_until(millis(float(len(sns)) + 200.0))
    rx.flush(sim.now)
    delivered = [sn for sn, _t in rx.delivered]
    # strictly-increasing app-level delivery, no PDU lost or double-counted
    assert all(a < b for a, b in zip(delivered, delivered[1:]))
    assert rx.delivered_pdus + rx.stale_pdus + rx.duplicate_pdus == len(sns)
    assert rx.buffered_bits == 0
    assert rx.delivered_pdus == len(delivered)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 250_000_000),  # gap to next request
                          st.floats(0.0, 1.0),          # candidate load
                          st.integers(0, 5),            # requesting ue
                          st.integers(0, 31)),          # its anchor mcs
                max_size=40))
def test_acks_never_violate_the_add_gate(reqs):
    node = Node(52)
    gate_ns = millis(CFG.add_gate_ms)
    ctrl = CandidateState(100, node.n_res, gate_ns)
    reports = {}
    t = 0
    ack_times = []
    for dt, load, ue, mcs in reqs:
        t += dt
        ctrl.record(round(load * node.n_res))
        reports[ue] = Measurement(t, -110.0, 0.0, mcs)
        d = _admit(node, ctrl, reports, ue, t)
        if d.verdict == ACK:
            ack_times.append(t)
            node.add_ue(ue, 22)
    for a, b in zip(ack_times, ack_times[1:]):
        assert b - a > gate_ns


class _RequestLedger(Scenario):
    """A scenario that notes every addition request that reaches admission
    for a UE already holding a secondary leg or a pending reconfiguration."""

    def _build(self):
        self.engaged_requests = []
        super()._build()

    def _dispatch_request(self, ue_id, t_ns):
        if ue_id in self.ntn_node.queues or self.ues[ue_id].pending_reconfig:
            self.engaged_requests.append((t_ns, ue_id))
        super()._dispatch_request(ue_id, t_ns)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(["mcs", "rsrp", "bo"]),
       st.sampled_from([0.0, 10.0, 40.0, 60.0]),   # control latency, ms
       st.integers(10, 100),                       # request gate, ms
       st.integers(1, 1000))                       # seed
def test_bound_ue_never_gets_a_second_ack(policy, latency_ms, gate_ms, seed):
    # Admission does not check for a binding, so a UE must never be asked
    # for while it has one or while its reconfiguration is pending; a
    # control latency above a third of the request gate is where the
    # pending check matters.
    cfg = load_config(None, environ={}, sim_duration_s=0.6, warmup_s=0.3,
                      n_ue_per_sector=2, policy=policy,
                      ctrl_latency_ms=latency_ms,
                      request_gate_ms=float(gate_ms))
    sc = _RequestLedger(cfg, seed)
    sc.run_to_end()
    assert sc.engaged_requests == []
    legs = {}
    for _t, kind, ue, _mn, _sn, _cause in sc.events:
        if kind != "REJECT":
            legs.setdefault(ue, []).append(kind)
    for kinds in legs.values():
        assert kinds == (["ADD", "RELEASE"] * len(kinds))[:len(kinds)]


@st.composite
def share_inputs(draw):
    """(needs, total, first) with needs drawn freely or right at the equal
    share of `total`, where granting a need in full and splitting equally
    could part."""
    n = draw(st.integers(1, 12))
    total = draw(st.integers(0, 30_000))
    share = total // n
    near = st.sampled_from([max(0, share - 1), share, share + 1])
    needs = draw(st.lists(st.one_of(st.integers(0, 20_000), near),
                          min_size=n, max_size=n))
    return needs, total, draw(st.integers(0, n - 1))


@settings(deadline=None, max_examples=300)
@given(share_inputs())
@example(([1, 100, 100, 100], 11, 0))
@example(([924, 926, 925, 926, 926], 4_626, 3))
def test_max_min_share_is_feasible_and_fair(case):
    needs, total, first = case
    grants = max_min_share(needs, total, first)
    assert len(grants) == len(needs)
    assert all(0 <= g <= need for g, need in zip(grants, needs))
    assert sum(grants) == min(total, sum(needs))
    # max-min: a UE left short of its need is at most one RE below any grant
    top = max(grants)
    assert all(g >= top - 1 for g, need in zip(grants, needs) if g < need)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12), st.integers(0, 30_000), st.integers(1, 10_000))
def test_max_min_share_rotates_the_remainder(n, total, above):
    # n equal needs above the share: over n calls with `first` rotating,
    # each UE takes the remainder RE equally often.
    needs = [total // n + above] * n
    totals = [0] * n
    for first in range(n):
        for j, g in enumerate(max_min_share(needs, total, first)):
            totals[j] += g
    assert totals == [total] * n


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                max_size=50),
       st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_percentile_bounded_and_monotone(values, p1, p2):
    lo, hi = sorted((p1, p2))
    a, b = percentile(values, lo), percentile(values, hi)
    assert min(values) <= a <= b <= max(values)


# --- every config that validates runs to completion ---------------------------

# Closed ranges inside a key's `BOUNDS` interval that stand in for an
# infinite end, or keep a run short: periods of 0.5 ms or more (the 1 us
# floor has its own test), runs of 0.3 s or less with 1-3 UEs per sector.
CAPS = {"sim_duration_s": (0.001, 0.3), "n_ue_per_sector": (1, 3),
        "isd_m": (1.0, 20_000.0), "ntn_beam_radius_m": (1_000.0, 100_000.0),
        "ue_drop_min_m": (0.0, 3000.0), "packet_bytes": (1, 9000),
        "tn_latency_ms": (0.0, 50.0), "ctrl_latency_ms": (0.0, 50.0),
        "sat_speed_ms": (0.0, 8000.0), "ue_queue_bytes": (1, 2_000_000),
        "pdcp_reorder_buffer_pdus": (1, 2000),
        **{name: (0.5, 150.0) for name in PERIODS_MS}}
# Keys drawn at times at or just past the edge of another rule that binds
# them, as `config_overrides` shows, rather than from `in_bounds` alone.
NEAR_RULES = PERIODS_MS + ("load_window_ms", "eval_jitter_ms",
                           "cbr_rate_bps", "isd_m", "ntn_beam_radius_m",
                           "sat_epoch_lat_deg", "sat_epoch_lon_deg",
                           "warmup_s")


def _edge_or(valid, *edges, one_in=16):
    """Mostly `valid`; in one draw of `one_in`, one of `edges`, the values
    at or just past a validation edge. At the rates `config_overrides`
    uses, 42-63% of examples passed every rule and ran, and the whole
    load window rule was the first to reject 3-14% (hypothesis seeds 0-5,
    200 examples each)."""
    return st.integers(1, one_in).flatmap(
        lambda k: st.sampled_from(edges) if k == one_in else valid)


def in_bounds(name):
    """Values of `name` in its `BOUNDS` interval, or in its cap; the closed
    ends of either are accepted values and come one draw in sixteen."""
    lo, hi, lo_closed, hi_closed = interval_ends(BOUNDS[name])
    if name in CAPS:
        (lo, hi), lo_closed, hi_closed = CAPS[name], True, True
    if isinstance(getattr(CFG, name), int):
        lo, hi = int(lo), int(hi)
        valid = st.integers(lo, hi)
    else:
        valid = st.floats(lo, hi, exclude_min=not lo_closed,
                          exclude_max=not hi_closed)
    ends = [end for end, closed in ((lo, lo_closed), (hi, hi_closed))
            if closed]
    return _edge_or(valid, *ends) if ends else valid


@st.composite
def config_overrides(draw):
    """Every field with a validation rule: each `BOUNDS` key from
    `in_bounds`, and at times at or just past the edge of a rule that binds
    a key to another key or a table. Values past a `BOUNDS` end are left to
    `test_config.test_every_bound_edge`, which tries each one every run."""
    o = {name: draw(in_bounds(name)) for name in BOUNDS
         if name not in NEAR_RULES}
    o["policy"] = draw(st.sampled_from(POLICIES))
    # just under the 1 us floor; one draw in 64, as eight keys share it
    for name in PERIODS_MS:
        o[name] = draw(_edge_or(in_bounds(name), 0.0009, one_in=64))
    # a whole number of TTIs, or 2.5, which is not one
    o["load_window_ms"] = draw(_edge_or(st.integers(1, 150).map(float),
                                        2.5))
    period = o["eval_period_ms"]
    o["eval_jitter_ms"] = draw(_edge_or(
        st.floats(0.0, 1.0).map(lambda f: f * period),
        period, math.nextafter(period, 0.0)))

    bits = o["packet_bytes"] * 8
    o["cbr_rate_bps"] = draw(_edge_or(
        st.floats(0.5e-3, 0.1).map(lambda interval_s: bits / interval_s),
        bits / 0.999e-6))

    # the satellite pass rule binds the epoch subpoint to the center
    for axis in ("lat", "lon"):
        near = o[f"center_{axis}_deg"]
        lo, hi = interval_ends(BOUNDS[f"sat_epoch_{axis}_deg"])[:2]
        o[f"sat_epoch_{axis}_deg"] = draw(st.floats(-30.0, 30.0).map(
            lambda d: min(max(near + d, lo), hi)))

    o["bandwidth_mhz"] = draw(_edge_or(
        st.sampled_from(sorted(PRBS_BY_BANDWIDTH_MHZ)).map(float),
        0.0, 7.0, 10.5))

    duration = o["sim_duration_s"]
    o["warmup_s"] = draw(_edge_or(
        st.floats(0.0, 1.0).map(lambda f: f * duration), duration))
    o["ue_drop_max_m"] = o["ue_drop_min_m"] + draw(_edge_or(
        st.floats(1.0, 5000.0), 0.0, -1e-6))
    # 1e-300 and 1e300 lie far past any layout or beam that fits
    for name in ("isd_m", "ntn_beam_radius_m"):
        o[name] = draw(_edge_or(in_bounds(name), 1e-300, 1e300, one_in=64))
    return o


def event_bound(cfg):
    """Twice the most events a run of `cfg` can schedule: a TTI event per
    TTI and a transport block per UE and node in it, an arrival event per
    CBR interval and a reordering timer per PDU received, a measurement per
    UE and period, a reordering timer per UE and timer period, an
    evaluation per sector and period plus the three reconfiguration
    messages of the one request it may send, and a data-request cycle per
    period. Periods count as no shorter than 0.5 ms, the shortest valid one
    drawn, so a shorter period that `validate` lets through fails fast."""
    end = seconds(cfg.sim_duration_s)

    def ticks(period_ns):
        return end // max(period_ns, millis(0.5)) + 1

    n_sectors = 3 * cfg.n_sites
    n_ue = n_sectors * cfg.n_ue_per_sector
    arrivals = ticks(cfg.cbr_interval_ns)
    return 2 * (ticks(millis(1.0)) * (1 + 2 * n_ue)
                + arrivals * (1 + n_ue)
                + n_ue * ticks(millis(cfg.meas_period_ms))
                + n_ue * ticks(millis(cfg.pdcp_reorder_timer_ms))
                + 4 * n_sectors * ticks(millis(cfg.eval_period_ms))
                + ticks(millis(cfg.split_delta_ms)))


def bounded_simulator(limit):
    """A `Simulator` that fails once it is asked to schedule more than
    `limit` events, so a run that would never end fails fast."""
    class BoundedSimulator(Simulator):
        def __init__(self):
            super().__init__()
            self.scheduled = 0

        def schedule_at(self, t, fn, *args):
            self.scheduled += 1
            if self.scheduled > limit:
                raise AssertionError(f"more than {limit} events scheduled")
            return super().schedule_at(t, fn, *args)
    return BoundedSimulator


@settings(deadline=None, max_examples=200)
@given(config_overrides())
# a layout centred on a pole put sites past it
@example(dict(center_lat_deg=90.0, sat_epoch_lat_deg=89.0, n_ue_per_sector=1,
              sim_duration_s=0.01, warmup_s=0.0))
def test_every_accepted_config_runs_to_completion(overrides):
    try:
        cfg = load_config(None, environ={}, **overrides)
    except ConfigError as exc:
        event(f"rejected: {str(exc).split()[0]}")
        return
    event("accepted")
    with mock.patch.object(simulation, "Simulator",
                           bounded_simulator(event_bound(cfg))):
        sc = Scenario(cfg, 1)
        sc.run_to_end()     # checks conservation at the end
    # no site or UE placed past a pole
    for pos in ([s.position for s in sc.sectors]
                + [ue.pos for ue in sc.ues.values()]):
        assert -90.0 <= pos.lat_deg <= 90.0
