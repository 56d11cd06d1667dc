"""One simulation run: builds the scenario, wires the control loops and data
plane onto the event queue, and collects per-UE results.

Layout: n_sites tri-sector sites around the scenario center, 10 UEs dropped
per sector and anchored to it, one earth-fixed satellite beam steered at the
center with the six co-channel beams of a reuse-3 lattice as pure
interference.
Terrestrial link state is drawn once per run (drop-time realization). The
satellite link is recomputed only where a policy measures it, and once per
UE in `finish`, up to the first instant it reaches the RSRP floor.

The policy under test is one `mc_control.Policy` record, looked up when the
scenario is built: its evaluator, its candidate-side admission mode and the
cause of its ADD events. The scenario holds the one map of the UEs' latest
reports and each sector's request gate, the time of its last addition
request, which an evaluation checks and closes.

Event design: one event per periodic instant. Every UE runs the same CBR
flow (start 0, one interval), so a single arrival event ingests one packet
for every UE, a sector at a time; a single TTI event per millisecond runs
the scheduler at every sector, in `self.nodes` order, then at the beam and
records the beam's grants in its load window. Events of one instant
fire in the order they were scheduled (see `engine`): at t = 0 the
data-request cycle is scheduled after the TTIs and fires after them, while
at every later multiple of 25 ms it was scheduled 25 ms earlier and fires
before them. With a terrestrial latency of exactly one TTI, the deliveries
launched in a TTI fire before the next TTI event, at the same instant; the
two commute, because a delivery touches only the UE's receiver and a TTI
only the nodes' queues.

Every sector has the same latency, so the transport blocks the sectors
complete in one TTI all land at one instant; they travel as one delivery
event, scheduled after the last sector and before the beam's blocks. One
event per block would take consecutive sequence numbers from that point
on, since the sectors' scheduling schedules nothing: no other event could
fire between them, and whatever a delivery schedules for their instant
fires after the last of them either way. So one event that delivers them
in launch order fires the same calls in the same order. The beam's blocks
keep one event each, because their delay is per UE. Each batch stays in
`in_flight`, the conservation ledger's bits in flight, until it is
delivered: the event queue cannot stand in for it, since a wrapper (the
benchmark's probes) may hide which handler an event calls.

The run's end is decided in one place, `run_until(end_ns)`. Each periodic
chain (arrivals, TTIs, measurements, evaluations, data requests)
reschedules itself unconditionally, so each leaves its next event past the
end. Such events never fire, and `finish` drops them, as it drops late
deliveries, reordering timers and reconfiguration messages. Scheduling
them shifts later sequence numbers but not their order, so the events that
do fire keep theirs.
"""

from dataclasses import dataclass

from . import mc_control as mc
from . import traffic_split as ts
from .channel import NtnChannel, TnChannel, mcs_for_sinr
from .config import ScenarioConfig
from .dataplane import TTI_NS, Node, PdcpReceiver, ingest, schedule_tti
from .engine import RngStreams, Simulator
from .geometry import (GroundPosition, SatelliteTrack, build_tn_layout,
                       drop_ues_in_sector, ntn_beam_grid)

NTN_CELL_ID = 100
BEAM_PITCH_OVER_RADIUS = 3.0 ** 0.5  # adjacent-beam spacing / beam radius

# Run totals summed by name over every UE's `PdcpReceiver`.
RECEIVER_COUNTERS = ("delivered_bits", "delivered_pdus", "stale_bits",
                     "stale_pdus", "duplicate_pdus", "skipped_sns")


class ConservationError(AssertionError):
    pass


@dataclass
class UeState:
    ue_id: int
    mn_node_id: int
    # The anchor's queue, fixed for the run; with its backlog it holds the
    # UE's dropped PDUs, an entry of the bit conservation ledger.
    mn_queue: object
    pos: object
    ntn_terms: tuple                    # `NtnChannel.ue_terms(pos)`
    tn_sinr_db: float
    meas_phase_ns: int                  # its first measurement instant
    ntn_sinr_db: float                  # as of the latest measurement
    ntn_delay_ns: int
    receiver: PdcpReceiver
    pending_reconfig: bool = False


@dataclass
class RunResult:
    policy: str
    seed: int
    ue_ids: list
    throughput_kbps: list
    events: list                        # (t_ns, kind, ue, mn, sn, cause)
    counters: dict                      # run totals by name, see `finish`

    @property
    def grant_violations(self):
        return self.counters["grant_violations"]


class Scenario:
    """A fully wired single run; `run_to_end` drives it and returns results."""

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.policy = mc.policy_for(cfg.policy)
        self.sim = Simulator()
        self.rngs = RngStreams(cfg.base_seed, seed)
        self.ns = cfg.durations_ns()        # the values `validate` checked
        self.end_ns = self.ns["sim_duration_s"]
        self.tn_latency_ns = self.ns["tn_latency_ms"]
        self.events = []
        self.in_flight = {}     # id(batch) -> batch launched, not delivered
        self._build()

    # ---- construction -------------------------------------------------

    def _build(self):
        cfg = self.cfg
        center = GroundPosition(cfg.center_lat_deg, cfg.center_lon_deg)
        self.sectors = build_tn_layout(center, cfg.isd_m, cfg.n_sites)

        self.tn = TnChannel(cfg, self.sectors, self.rngs.stream("tn-channel"))
        track = SatelliteTrack(
            GroundPosition(cfg.sat_epoch_lat_deg, cfg.sat_epoch_lon_deg),
            cfg.sat_altitude_m, cfg.sat_speed_ms, cfg.sat_heading_deg)
        beams = ntn_beam_grid(center, BEAM_PITCH_OVER_RADIUS * cfg.ntn_beam_radius_m)
        self.ntn = NtnChannel(cfg, track, beams)

        self.nodes = [Node(cfg.n_prb) for _ in self.sectors]  # by sector id
        self.ntn_node = Node(cfg.n_prb)

        self.reports = {}       # ue_id -> latest mc.Measurement
        self.last_request_ns = [None] * len(self.sectors)   # by sector id
        self.cand = mc.CandidateState(
            cfg.load_window_ttis, self.ntn_node.n_res,
            self.ns["add_gate_ms"])
        self.book = ts.GrantBook()

        drop_rng = self.rngs.stream("ue-drop")
        self.ues = {}
        ue_id = 0
        for sec in self.sectors:
            for pos in drop_ues_in_sector(sec, drop_rng, cfg.n_ue_per_sector,
                                          cfg.ue_drop_min_m, cfg.ue_drop_max_m):
                self._add_ue(ue_id, sec.sector_id, pos)
                ue_id += 1

        # Every UE gets one packet of the CBR flow at each of its instants.
        self.cbr_instants = 0
        self.sim.schedule_at(0, self._on_arrival)
        self.sim.schedule_at(0, self._on_tti)
        # Only the evaluators, admission and data requests read reports.
        if self.policy.evaluate is not None:
            self._schedule_measurements()
            self._schedule_evaluations()
            self.sim.schedule_at(0, self._on_data_request_cycle,
                                 self.ns["split_delta_ms"])

    def _add_ue(self, ue_id, sector_id, pos):
        cfg = self.cfg
        sinr = self.tn.attach_ue(pos)[sector_id]
        mn_queue = self.nodes[sector_id].add_ue(ue_id, mcs_for_sinr(sinr))
        terms = self.ntn.ue_terms(pos)
        receiver = PdcpReceiver(
            ue_id, self.sim, self.ns["pdcp_reorder_timer_ms"],
            cfg.pdcp_reorder_buffer_pdus, self.ns["warmup_s"])
        # Drawn under every policy, so the measurement instants are too.
        phase = round(self.rngs.stream("meas-phase").random()
                      * self.ns["meas_period_ms"])
        self.ues[ue_id] = UeState(ue_id, sector_id, mn_queue, pos, terms, sinr,
                                  phase, *self.ntn.link_state(terms, 0)[1:],
                                  receiver)

    # ---- traffic ------------------------------------------------------

    def _on_arrival(self):
        """Admit one app packet per UE at its anchor, a sector at a time,
        or drop it if the anchor queue cannot take it (packets are only
        sequence numbered once admitted, so drops never punch holes at the
        receiver); then let the forwarding rule steer the admitted ones."""
        t = self.sim.now
        cfg = self.cfg
        bits = cfg.packet_bits
        cap = cfg.ue_queue_bytes * 8
        self.cbr_instants += 1
        for node in self.nodes:
            ingest(node.queues.values(), bits, t, cap)
        # Every drain leaves the queue empty or the grant short of one PDU,
        # all PDUs have one size, and only the data-request cycle, which
        # drains at once, refills a grant. So a holder whose grant covers a
        # packet and whose anchor queue has one waiting was admitted one
        # just now, and since drains of different UEs touch disjoint
        # queues, draining here moves what a drain right after each
        # admission would.
        ues = self.ues
        for ue_id, grant in self.book.grants.items():
            if grant.covers(bits):
                ue = ues[ue_id]
                if ue.mn_queue.head_bits() is not None:
                    ts.drain_forward(self.nodes[ue.mn_node_id], self.ntn_node,
                                     grant)
        self.sim.schedule_in(cfg.cbr_interval_ns, self._on_arrival)

    # ---- air interface ------------------------------------------------

    def _on_tti(self):
        tbs = []
        for node in self.nodes:
            schedule_tti(node)
            tbs += node.completed
        if tbs:
            self._launch(self.tn_latency_ns, tbs)
        beam = self.ntn_node
        granted = schedule_tti(beam)
        for tb in beam.completed:
            self._launch(self.ues[tb[0]].ntn_delay_ns, [tb])
        self.cand.record(granted)
        self.sim.schedule_in(TTI_NS, self._on_tti)

    def _launch(self, delay_ns, tbs):
        """Send the batch `tbs` of (ue_id, PDUs) blocks, to be delivered
        after `delay_ns`, and book it in flight until then."""
        self.in_flight[id(tbs)] = tbs
        self.sim.schedule_in(delay_ns, self._deliver_tb, tbs)

    def _deliver_tb(self, tbs):
        del self.in_flight[id(tbs)]
        t = self.sim.now
        for ue_id, pdus in tbs:
            receiver = self.ues[ue_id].receiver
            for pdu in pdus:
                receiver.receive(pdu, t)

    # ---- measurements -------------------------------------------------

    def _schedule_measurements(self):
        period = self.ns["meas_period_ms"]
        self._meas_err = self.rngs.stream("meas-error")
        for ue in self.ues.values():
            self.sim.schedule_at(ue.meas_phase_ns, self._on_measurement, ue,
                                 period)

    def _on_measurement(self, ue, period):
        t = self.sim.now
        cfg = self.cfg
        rsrp, sinr, delay = self.ntn.link_state(ue.ntn_terms, t)
        ue.ntn_sinr_db, ue.ntn_delay_ns = sinr, delay

        # One channel-estimation error per report, applied coherently to the
        # quantities derived from it; schedulers keep using the true link.
        e_ntn = self._meas_err.gauss(0.0, cfg.meas_error_sigma_db)
        e_tn = self._meas_err.gauss(0.0, cfg.meas_error_sigma_db)
        self.reports[ue.ue_id] = mc.Measurement(
            t, rsrp + e_ntn, sinr + e_ntn,
            mcs_for_sinr(ue.tn_sinr_db + e_tn))
        if ue.ue_id in self.ntn_node.queues:
            self.ntn_node.set_mcs(ue.ue_id, mcs_for_sinr(sinr))
        self.sim.schedule_in(period, self._on_measurement, ue, period)

    # ---- secondary-node control ----------------------------------------

    def _schedule_evaluations(self):
        self._eval_rng = self.rngs.stream("eval-jitter")
        for sector_id in range(len(self.nodes)):
            self._schedule_eval(sector_id, 0)

    def _schedule_eval(self, sector_id, grid_ns):
        """The evaluation of grid point `grid_ns` fires after a fresh jitter,
        so evaluation k fires at k * period + jitter_k and never drifts."""
        t = grid_ns + round(self._eval_rng.random()
                            * self.ns["eval_jitter_ms"])
        self.sim.schedule_at(t, self._on_eval, sector_id, grid_ns)

    def _on_eval(self, sector_id, grid_ns):
        # The request gate lets one request out per gate period; while it is
        # closed an evaluation could change nothing, so none is run.
        t = self.sim.now
        cfg = self.cfg
        last = self.last_request_ns[sector_id]
        if last is None or t - last >= self.ns["request_gate_ms"]:
            node = self.nodes[sector_id]
            single = [u for u in node.queues if u not in self.ntn_node.queues
                      and not self.ues[u].pending_reconfig]
            ue_id = self.policy.evaluate(self.reports, node, single,
                                         t - self.ns["meas_staleness_ms"], cfg)
            if ue_id is not None:
                self.last_request_ns[sector_id] = t     # closes the gate
                self._dispatch_request(ue_id, t)
        # Every evaluation draws its next jitter, gate open or not.
        self._schedule_eval(sector_id, grid_ns + self.ns["eval_period_ms"])

    def _dispatch_request(self, ue_id, t_ns):
        decision = mc.handle_sn_addition_request(
            self.ntn_node, self.cand, self.reports, ue_id, t_ns, self.cfg,
            self.policy.admission)
        ue = self.ues[ue_id]
        if decision.verdict == mc.ACK:
            if decision.victim is not None:
                self._release(decision.victim, "preempted")
            ue.pending_reconfig = True
            mc.complete_reconfiguration(
                self.sim, self.ns["ctrl_latency_ms"],
                self._finalize_binding, ue)
        else:
            self._log(mc.EV_REJECT, ue, decision.cause)

    def _finalize_binding(self, ue):
        # `_on_eval` asks only for UEs that are unbound and not pending.
        assert ue.ue_id not in self.ntn_node.queues
        ue.pending_reconfig = False
        self.ntn_node.add_ue(ue.ue_id, mcs_for_sinr(ue.ntn_sinr_db))
        self._log(mc.EV_ADD, ue, self.policy.add_cause)

    def _release(self, ue_id, cause):
        ue = self.ues[ue_id]
        mc.release_secondary(self.ntn_node, self.nodes[ue.mn_node_id], ue_id)
        self.book.cancel(ue_id)
        self._log(mc.EV_RELEASE, ue, cause)

    # ---- data requests -------------------------------------------------

    def _on_data_request_cycle(self, period):
        for grant in ts.send_periodic_requests(self.ntn_node, self.reports,
                                               self.cfg):
            self.book.replace(grant)
            mn = self.nodes[self.ues[grant.ue_id].mn_node_id]
            ts.drain_forward(mn, self.ntn_node, grant)
        self.sim.schedule_in(period, self._on_data_request_cycle, period)

    # ---- bookkeeping ----------------------------------------------------

    def _log(self, kind, ue, cause):
        self.events.append((self.sim.now, kind, ue.ue_id, ue.mn_node_id,
                            NTN_CELL_ID, cause))

    def in_flight_bits(self):
        """The bits of the blocks launched and not delivered, by UE id."""
        bits = dict.fromkeys(self.ues, 0)
        for tbs in self.in_flight.values():
            for ue_id, pdus in tbs:
                bits[ue_id] += sum(pdu.bits for pdu in pdus)
        return bits

    def conservation_defect_bits(self, ue_id, in_flight_bits):
        """generated - (accounted everywhere); zero when no bit is lost."""
        ue = self.ues[ue_id]
        sn_q = self.ntn_node.queues.get(ue_id)
        rx = ue.receiver
        bits = self.cfg.packet_bits
        return (self.cbr_instants * bits
                - ue.mn_queue.dropped_pdus * bits
                - rx.delivered_bits
                - rx.stale_bits
                - in_flight_bits
                - rx.buffered_bits
                - ue.mn_queue.queued_bits
                - (sn_q.queued_bits if sn_q else 0))

    def check_conservation(self):
        in_flight = self.in_flight_bits()
        for ue_id in self.ues:
            defect = self.conservation_defect_bits(ue_id, in_flight[ue_id])
            if defect != 0:
                raise ConservationError(
                    f"ue {ue_id}: {defect} bits unaccounted at t={self.sim.now}")

    def _reaches_rsrp_floor(self, ue):
        """Whether the UE's satellite RSRP reaches `rsrp_min_dbm` at attach
        or at one of its measurement instants up to the end, which are the
        same under every policy, measured or not."""
        floor = self.cfg.rsrp_min_dbm
        instants = range(ue.meas_phase_ns, self.end_ns + 1,
                         self.ns["meas_period_ms"])
        return any(self.ntn.link_state(ue.ntn_terms, t)[0] >= floor
                   for t in (0, *instants))

    def run_to_end(self):
        self.sim.run_until(self.end_ns)
        return self.finish()

    def finish(self):
        # The events past the end hold bound methods of this scenario;
        # dropping them lets reference counting free the run.
        self.sim.drop_pending()
        cfg = self.cfg
        for node in self.nodes + [self.ntn_node]:
            node.settle()
        for ue in self.ues.values():
            ue.receiver.flush(self.sim.now)
        self.book.close()
        self.check_conservation()

        window_s = cfg.sim_duration_s - cfg.warmup_s
        ue_ids = sorted(self.ues)
        throughput = [self.ues[u].receiver.post_warmup_bits / window_s / 1000.0
                      for u in ue_ids]
        ues = self.ues.values()
        kinds = [ev[1] for ev in self.events]
        reject_causes = [ev[5] for ev in self.events if ev[1] == mc.EV_REJECT]
        counters = {
            "sn_adds": kinds.count(mc.EV_ADD),
            "sn_releases": kinds.count(mc.EV_RELEASE),
            "sn_rejects": len(reject_causes),
            "rejects_recent_ack": reject_causes.count("recent-ack"),
            "rejects_overloaded": reject_causes.count("overloaded"),
            "distinct_bound_ues": len({ev[2] for ev in self.events
                                       if ev[1] == mc.EV_ADD}),
            "eligible_ues": sum(1 for ue in ues
                                if self._reaches_rsrp_floor(ue)),
            "grant_windows": self.book.windows_checked,
            "grant_violations": self.book.violations,
            "grant_max_used": self.book.max_used_fraction,
            "zero_throughput_ues": sum(1 for ue in ues
                                       if ue.receiver.post_warmup_bits == 0),
        }
        bits = cfg.packet_bits
        dropped_pdus = sum(ue.mn_queue.dropped_pdus for ue in ues)
        counters["generated_bits"] = len(self.ues) * self.cbr_instants * bits
        counters["dropped_bits"] = dropped_pdus * bits
        counters["dropped_pdus"] = dropped_pdus
        for name in RECEIVER_COUNTERS:
            counters[name] = sum(getattr(ue.receiver, name) for ue in ues)
        return RunResult(cfg.policy, self.seed, ue_ids, throughput,
                         sorted(self.events), counters)


def run_single(cfg: ScenarioConfig, seed: int) -> RunResult:
    return Scenario(cfg, seed).run_to_end()
