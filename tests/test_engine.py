import pytest

from ntnmc.engine import (NS_PER_S, RngStreams, SchedulingError, Simulator,
                          millis, seconds)


def live_events(sim):
    """Events queued and not cancelled."""
    return sum(1 for _t, _seq, ev in sim._queue if not ev.cancelled)


def test_time_helpers_round_to_integer_ns():
    assert seconds(5.0) == 5 * NS_PER_S
    assert millis(2.5) == 2_500_000
    assert millis(0.5) == 500_000
    assert isinstance(seconds(0.1), int)


def test_events_fire_in_time_then_insertion_order():
    # Neither the handlers nor `object()` support `<`, so a queue that fell
    # back to comparing what it schedules would raise TypeError on a tie.
    sim = Simulator()
    fired = []

    def record(tag, _unorderable):
        fired.append(tag)

    sim.schedule_at(10, record, "a", object())
    sim.schedule_at(5, record, "b", object())
    sim.schedule_at(10, record, "c", object())
    sim.schedule_at(10, lambda tag, _u: fired.append(tag), "d", object())
    sim.run_until(20)
    assert fired == ["b", "a", "c", "d"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule_at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.schedule_at(50, lambda: None)


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run_until(1234)
    assert sim.now == 1234


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(10, fired.append, "x")
    sim.schedule_at(10, fired.append, "y")
    assert live_events(sim) == 2
    ev.cancel()
    assert live_events(sim) == 1
    sim.run_until(20)
    assert fired == ["y"]
    assert live_events(sim) == 0


def test_handler_can_schedule_at_current_time():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule_in(0, fired.append, "second")

    sim.schedule_at(10, first)
    sim.run_until(10)
    assert fired == ["first", "second"]
    assert sim.now == 10


def test_run_until_does_not_dispatch_future_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(10, fired.append, "now")
    sim.schedule_at(30, fired.append, "later")
    sim.run_until(20)
    assert fired == ["now"]
    assert live_events(sim) == 1


def test_rng_streams_are_reproducible_and_independent():
    a1 = RngStreams(1, 2).stream("drop").random()
    a2 = RngStreams(1, 2).stream("drop").random()
    b = RngStreams(1, 2).stream("chan").random()
    c = RngStreams(1, 3).stream("drop").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rng_stream_is_cached_per_name():
    streams = RngStreams(7, 1)
    assert streams.stream("x") is streams.stream("x")
