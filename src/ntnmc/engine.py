"""Discrete-event core: integer-nanosecond clock, ordered event queue, RNG streams.

All simulation time is kept in integer nanoseconds so periodic schedules
(1 ms TTIs, 3.75 ms packet arrivals, 10/25/100/120 ms timers) never drift.

Ordering rule: events fire in (time, sequence number) order, where the
sequence number counts `schedule_at` calls. Events for the same instant
therefore fire in the order they were scheduled, whatever the handlers and
their arguments are. The queue holds `(time, seq, event)` tuples, so the
heap compares two ints and never reaches the event itself.
"""

import hashlib
import heapq
import random

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def seconds(x):
    return round(x * NS_PER_S)


def millis(x):
    return round(x * NS_PER_MS)


class SchedulingError(Exception):
    """Raised when an event is scheduled before the current simulation time."""


class Event:
    """Handle of one scheduled call; `cancel` keeps it from firing."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Simulator:
    """Event queue with a monotonic integer clock.

    Events fire in (time, insertion order). `run_until` dispatches every
    event with time <= t_end and leaves the clock exactly at t_end.
    """

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def schedule_at(self, t, fn, *args):
        if t < self.now:
            raise SchedulingError(
                f"cannot schedule at {t} ns; clock already at {self.now} ns")
        ev = Event(fn, args)
        heapq.heappush(self._queue, (t, self._seq, ev))
        self._seq += 1
        return ev

    def schedule_in(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def run_until(self, t_end):
        if t_end < self.now:
            raise SchedulingError(
                f"run_until({t_end}) is before current time {self.now}")
        q = self._queue
        pop = heapq.heappop
        while q and q[0][0] <= t_end:
            t, _seq, ev = pop(q)
            if ev.cancelled:
                continue
            self.now = t
            ev.fn(*ev.args)
        self.now = t_end

    def drop_pending(self):
        """Discard every event not yet fired."""
        self._queue.clear()


def _derive_seed(campaign_seed, run_index, name):
    # SHA-256 keyed by (campaign seed, run, stream name): platform-stable and
    # immune to the ordering in which streams are created or consumed.
    material = f"{campaign_seed}/{run_index}/{name}".encode()
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


class RngStreams:
    """Named, mutually independent random streams for one simulation run."""

    def __init__(self, campaign_seed, run_index):
        self.campaign_seed = campaign_seed
        self.run_index = run_index
        self._streams = {}

    def stream(self, name):
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.campaign_seed, self.run_index, name))
            self._streams[name] = rng
        return rng
