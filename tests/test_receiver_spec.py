"""`PdcpReceiver` against the reception procedures of TS 38.323.

`SpecReceiver` transcribes §5.2.2.2 (a PDCP Data PDU received from lower
layers) and §5.2.2.3 (t-Reordering expiry) on COUNTs, step by step in the
order the specification writes them, for in-order delivery. Two rules of
the model are stated additions: the reception buffer holds at most
`max_buffer` SDUs, and `flush` ends a run by delivering what is stored.
A property drives the transcription and the receiver with the same
arrivals on one `Simulator` and compares them after every step.
"""

from hypothesis import given, settings, strategies as st

from ntnmc.dataplane import PdcpPdu
from ntnmc.engine import Simulator

from test_dataplane import RecordingReceiver


class SpecReceiver:
    """The receiving PDCP entity of TS 38.323 §5.2.2, on COUNTs."""

    def __init__(self, sim, t_reordering_ns, max_buffer):
        self.sim = sim
        self.t_reordering_ns = t_reordering_ns
        self.max_buffer = max_buffer
        self.RX_NEXT = 0
        self.RX_DELIV = 0
        self.RX_REORD = 0
        self.stored = set()         # COUNTs of the SDUs in the buffer
        self.received = set()       # COUNTs of every SDU ever stored
        self.delivered = []         # (COUNT, time) in delivery order
        self._delivered = set()
        self.t_reordering = None    # the running timer's event, if any
        self.expiry_ns = None
        self.discarded_stale = 0
        self.discarded_duplicate = 0
        self.skipped = 0

    def _deliver(self, count, t_ns):
        self.stored.remove(count)
        self.delivered.append((count, t_ns))
        self._delivered.add(count)

    def _deliver_consecutive_from(self, count, t_ns):
        """Deliver the stored SDUs with consecutive COUNTs from `count`;
        returns the first COUNT not delivered."""
        while count in self.stored:
            self._deliver(count, t_ns)
            count += 1
        return count

    def _set_rx_deliv(self, count):
        # The COUNTs RX_DELIV passes over without delivering are skipped.
        self.skipped += sum(1 for c in range(self.RX_DELIV, count)
                            if c not in self._delivered)
        self.RX_DELIV = count

    def _start_t_reordering(self):
        self.expiry_ns = self.sim.now + self.t_reordering_ns
        self.t_reordering = self.sim.schedule_at(self.expiry_ns, self.expire)

    def _stop_t_reordering(self):
        self.t_reordering.cancel()
        self.t_reordering = None
        self.expiry_ns = None

    def _deliver_below_then_from(self, edge, t_ns):
        """§5.2.2.3's delivery: every stored SDU below `edge`, then those
        with consecutive COUNTs from `edge`; RX_DELIV becomes the first
        COUNT >= `edge` not delivered."""
        for count in sorted(c for c in self.stored if c < edge):
            self._deliver(count, t_ns)
        self._set_rx_deliv(self._deliver_consecutive_from(edge, t_ns))

    def receive(self, rcvd_count, t_ns):
        """§5.2.2.2."""
        # if RCVD_COUNT < RX_DELIV, or the PDU with COUNT = RCVD_COUNT has
        # been received before: discard the PDCP Data PDU.
        if rcvd_count < self.RX_DELIV:
            self.discarded_stale += 1
            return
        if rcvd_count in self.received:
            self.discarded_duplicate += 1
            return
        # store the resulting PDCP SDU in the reception buffer;
        self.stored.add(rcvd_count)
        self.received.add(rcvd_count)
        # if RCVD_COUNT >= RX_NEXT: update RX_NEXT to RCVD_COUNT + 1.
        if rcvd_count >= self.RX_NEXT:
            self.RX_NEXT = rcvd_count + 1
        # if RCVD_COUNT = RX_DELIV: deliver all stored SDUs with consecutive
        # COUNTs from RX_DELIV; update RX_DELIV to the COUNT of the first
        # SDU not delivered with COUNT > current RX_DELIV.
        if rcvd_count == self.RX_DELIV:
            self._set_rx_deliv(
                self._deliver_consecutive_from(self.RX_DELIV, t_ns))
        # Addition: past its bound, the buffer gives up on the COUNTs below
        # its lowest SDU, as t-Reordering expiry does below RX_REORD.
        while len(self.stored) > self.max_buffer:
            self._deliver_below_then_from(min(self.stored), t_ns)
        # if t-Reordering is running, and RX_DELIV >= RX_REORD: stop and
        # reset t-Reordering.
        if self.t_reordering is not None and self.RX_DELIV >= self.RX_REORD:
            self._stop_t_reordering()
        # if t-Reordering is not running, and RX_DELIV < RX_NEXT: update
        # RX_REORD to RX_NEXT; start t-Reordering.
        if self.t_reordering is None and self.RX_DELIV < self.RX_NEXT:
            self.RX_REORD = self.RX_NEXT
            self._start_t_reordering()

    def expire(self):
        """§5.2.2.3."""
        self.t_reordering = None
        self.expiry_ns = None
        # deliver the stored SDUs below RX_REORD, then those with
        # consecutive COUNTs from RX_REORD; update RX_DELIV.
        self._deliver_below_then_from(self.RX_REORD, self.sim.now)
        # if RX_DELIV < RX_NEXT: update RX_REORD to RX_NEXT; start
        # t-Reordering.
        if self.RX_DELIV < self.RX_NEXT:
            self.RX_REORD = self.RX_NEXT
            self._start_t_reordering()

    def flush(self, t_ns):
        """Addition: the end of a run delivers every stored SDU in COUNT
        order and skips nothing."""
        if self.t_reordering is not None:
            self._stop_t_reordering()
        for count in sorted(self.stored):
            self._deliver(count, t_ns)


def assert_same_state(rx, spec):
    assert rx.delivered == spec.delivered
    assert (rx.rx_next, rx.rx_deliv, rx.rx_reord) == (
        spec.RX_NEXT, spec.RX_DELIV, spec.RX_REORD)
    assert (rx._timer_ev is not None) == (spec.t_reordering is not None)
    assert sorted(rx.buffer) == sorted(spec.stored)
    assert (rx.stale_pdus, rx.duplicate_pdus, rx.skipped_sns) == (
        spec.discarded_stale, spec.discarded_duplicate, spec.skipped)


# When the next PDU arrives: some ns after the last one, or one ns before,
# at or after the running timer's expiry (at once if no timer runs).
WHEN = st.one_of(st.tuples(st.just("after"), st.integers(0, 30_000)),
                 st.tuples(st.just("expiry"), st.sampled_from((-1, 0, 1))))
# Which COUNT it carries, picked from the state: the next one (in order
# when nothing waits), one past a gap, one that fills a gap, one below
# RX_DELIV, or one received before.
WHAT = st.sampled_from(("next", "next", "next", "ahead", "fill", "stale",
                        "again"))


def _pick(what, k, spec, last):
    if what == "next":
        return spec.RX_NEXT
    if what == "ahead":
        return spec.RX_NEXT + 1 + k
    if what == "fill":
        return min(spec.RX_DELIV + k, max(spec.RX_NEXT - 1, spec.RX_DELIV))
    if what == "stale":
        return max(spec.RX_DELIV - 1 - k, 0)
    return last


@settings(deadline=None, max_examples=400)
@given(st.integers(1, 5), st.integers(1, 20).map(lambda k: k * 1000),
       st.lists(st.tuples(WHEN, WHAT, st.integers(0, 3)), max_size=50))
def test_receiver_follows_ts_38_323(max_buffer, timer_ns, steps):
    sim = Simulator()
    rx = RecordingReceiver(sim, max_buffer=max_buffer, timer_ns=timer_ns)
    spec = SpecReceiver(sim, timer_ns, max_buffer)
    last = 0
    for (when, dt), what, k in steps:
        if when == "expiry" and spec.expiry_ns is not None:
            sim.run_until(spec.expiry_ns + dt)
        elif when == "after":
            sim.run_until(sim.now + dt)
        assert_same_state(rx, spec)
        last = count = _pick(what, k, spec, last)
        rx.receive(PdcpPdu(count, 8, 0), sim.now)
        spec.receive(count, sim.now)
        assert_same_state(rx, spec)
    sim.run_until(sim.now + 3 * timer_ns)
    assert_same_state(rx, spec)
    rx.flush(sim.now)
    spec.flush(sim.now)
    assert_same_state(rx, spec)
