"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import NodeCrashedError, SimulationError
from repro.sim import Event, SimLoop


def test_initial_time_is_zero():
    assert SimLoop().now == 0.0


def test_schedule_and_run_single_event():
    loop = SimLoop()
    fired = []
    loop.schedule(1.5, lambda: fired.append(loop.now))
    loop.run()
    assert fired == [1.5]


def test_events_fire_in_time_order():
    loop = SimLoop()
    order = []
    loop.schedule(3.0, lambda: order.append("c"))
    loop.schedule(1.0, lambda: order.append("a"))
    loop.schedule(2.0, lambda: order.append("b"))
    loop.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    loop = SimLoop()
    order = []
    for tag in ("first", "second", "third"):
        loop.schedule(1.0, lambda t=tag: order.append(t))
    loop.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    loop = SimLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    loop = SimLoop()
    seen = []
    loop.schedule_at(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]


def test_schedule_at_past_rejected():
    loop = SimLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    loop = SimLoop()
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    loop.run()
    assert fired == []


def test_cancel_is_idempotent():
    loop = SimLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert event.cancelled


def test_cancel_owned_by_cancels_only_that_owner():
    loop = SimLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append("a"), owner="node-a")
    loop.schedule(1.0, lambda: fired.append("b"), owner="node-b")
    assert loop.pending() == 2
    loop.cancel_owned_by("node-a")
    assert loop.pending() == 1
    loop.run()
    assert fired == ["b"]


def test_cancelled_reads_true_for_swept_events_only():
    loop = SimLoop()
    fired = loop.schedule_at(1.0, lambda: None, owner="x")
    loop.run()
    queued = [loop.schedule_at(2.0 + i, lambda: None, owner="x")
              for i in range(3)]
    other = loop.schedule_at(2.0, lambda: None, owner="y")
    loop.cancel_owned_by("x")
    later = loop.schedule_at(2.5, lambda: None, owner="x")
    assert [e.cancelled for e in queued] == [True, True, True]
    assert not fired.cancelled and not other.cancelled and not later.cancelled
    assert all("cancelled" in repr(e) for e in queued)
    loop.run(until=2.0)  # the first swept event surfaces and is purged
    assert queued[0].cancelled and not queued[0]._in_loop
    loop._compact()  # the rest are dropped without surfacing
    assert len(loop._queue) == 1 and all(e.cancelled for e in queued)
    loop.run()
    assert loop.events_processed == 3  # fired, other, later
    assert not fired.cancelled and not other.cancelled and not later.cancelled


def test_run_until_deadline_advances_clock():
    loop = SimLoop()
    loop.schedule(10.0, lambda: None)
    loop.run(until=5.0)
    assert loop.now == 5.0
    assert loop.pending() == 1


def test_run_until_deadline_then_continue():
    loop = SimLoop()
    fired = []
    loop.schedule(10.0, lambda: fired.append(1))
    loop.run(until=5.0)
    loop.run()
    assert fired == [1]
    assert loop.now == 10.0


def test_stop_when_predicate_stops_early_without_advancing():
    loop = SimLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(2.0, lambda: fired.append(2))
    loop.run(until=100.0, stop_when=lambda: bool(fired))
    assert fired == [1]
    assert loop.now == pytest.approx(1.0)


def test_stop_method_halts_outer_run():
    loop = SimLoop()
    fired = []

    def first():
        fired.append(1)
        loop.stop()

    loop.schedule(1.0, first)
    loop.schedule(2.0, lambda: fired.append(2))
    loop.run()
    assert fired == [1]


def test_events_scheduled_during_run_are_processed():
    loop = SimLoop()
    order = []

    def outer():
        order.append("outer")
        loop.schedule(0.5, lambda: order.append("inner"))

    loop.schedule(1.0, outer)
    loop.run()
    assert order == ["outer", "inner"]
    assert loop.now == pytest.approx(1.5)


def test_event_budget_exceeded_raises():
    loop = SimLoop()

    def rearm():
        loop.schedule(0.001, rearm)

    loop.schedule(0.001, rearm)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


def test_pump_processes_bounded_window():
    loop = SimLoop()
    order = []

    def handler():
        order.append("handler-start")
        loop.pump(1.0)
        order.append("handler-end")

    loop.schedule(1.0, handler)
    loop.schedule(1.5, lambda: order.append("during-pump"))
    loop.schedule(3.0, lambda: order.append("after-pump"))
    loop.run()
    assert order == ["handler-start", "during-pump", "handler-end", "after-pump"]


def test_pump_advances_clock_to_window_end():
    loop = SimLoop()
    times = []

    def handler():
        loop.pump(2.0)
        times.append(loop.now)

    loop.schedule(1.0, handler)
    loop.run()
    assert times == [pytest.approx(3.0)]


def test_pump_negative_duration_rejected():
    loop = SimLoop()
    with pytest.raises(SimulationError):
        loop.pump(-1.0)


def test_pump_reentrancy_limit():
    loop = SimLoop()

    def recurse():
        loop.schedule(0.01, recurse)
        loop.pump(0.1)

    loop.schedule(0.01, recurse)
    with pytest.raises(SimulationError):
        loop.run()


def test_node_crashed_error_is_swallowed():
    loop = SimLoop()
    fired = []

    def dies():
        fired.append("pre")
        raise NodeCrashedError("n1")

    loop.schedule(1.0, dies)
    loop.schedule(2.0, lambda: fired.append("post"))
    loop.run()
    assert fired == ["pre", "post"]


def test_other_exceptions_propagate_without_handler():
    loop = SimLoop()
    loop.schedule(1.0, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        loop.run()


def test_exception_handler_can_consume():
    loop = SimLoop()
    seen = []
    loop.exception_handler = lambda event, exc: (seen.append(type(exc).__name__), True)[1]
    loop.schedule(1.0, lambda: 1 / 0)
    loop.schedule(2.0, lambda: seen.append("after"))
    loop.run()
    assert seen == ["ZeroDivisionError", "after"]


def test_events_processed_counter():
    loop = SimLoop()
    for i in range(5):
        loop.schedule(float(i + 1), lambda: None)
    loop.run()
    assert loop.events_processed == 5


def test_event_repr_mentions_state():
    event = Event(1.0, lambda: None, owner="x", kind="timer")
    assert "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


def test_quiescent_run_with_until_advances_to_deadline():
    loop = SimLoop()
    loop.run(until=7.0)
    assert loop.now == 7.0
