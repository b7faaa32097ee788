"""Scale-kernel behaviour: (time, seq) order, tombstone compaction.

``SimLoop`` keeps pending events in one ``(time, seq, event)`` heap with
lazy tombstone purging and threshold compaction (see DESIGN.md "Scale
kernel").  These tests were written against the three-structure queue
(monotonic tail, out-of-order heap, same-instant batch) that PR 9 built
and PR 13 retired; their names still say where the boundaries were, and
they pin what any queue layout must keep: total (time, seq) order,
cancel/pump semantics in the middle of an instant, tombstones
actually dropped, nothing stranded across drives.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.loop import SimLoop


def test_interleaved_tail_and_heap_schedules_fire_in_time_seq_order():
    loop = SimLoop()
    fired = []
    # monotonic appends (tail), then earlier times (heap), interleaved
    times = [5.0, 5.0, 7.0, 2.0, 9.0, 1.0, 9.0, 3.0, 2.0]
    for i, t in enumerate(times):
        loop.schedule_at(t, (lambda i=i, t=t: fired.append((t, i))))
    loop.run()
    assert fired == sorted(fired, key=lambda item: (item[0], item[1]))
    assert len(fired) == len(times)
    assert loop.pending() == 0


def test_same_instant_run_dispatches_in_schedule_order_with_midfire_inserts():
    loop = SimLoop()
    fired = []

    def first():
        fired.append("first")
        # same-instant event scheduled while the batch is firing: it must
        # run after the already-popped batch members (higher seq)
        loop.schedule(0.0, lambda: fired.append("late"))

    loop.schedule_at(1.0, first)
    loop.schedule_at(1.0, lambda: fired.append("second"))
    loop.schedule_at(1.0, lambda: fired.append("third"))
    loop.run()
    assert fired == ["first", "second", "third", "late"]


def test_cancelling_a_batched_event_midfire_prevents_it():
    loop = SimLoop()
    fired = []
    victim = {}

    def first():
        fired.append("first")
        victim["e"].cancel()

    loop.schedule_at(1.0, first)
    victim["e"] = loop.schedule_at(1.0, lambda: fired.append("victim"))
    loop.schedule_at(1.0, lambda: fired.append("third"))
    loop.run()
    assert fired == ["first", "third"]


def test_deadline_break_does_not_strand_future_events_in_the_batch():
    # regression: a refill can pop an event beyond `until`; it must be
    # flushed back so later, earlier schedules still precede it
    loop = SimLoop()
    fired = []
    loop.schedule_at(1.0, lambda: fired.append("a"))
    loop.schedule_at(2.0, lambda: fired.append("b"))
    loop.run(until=1.0)
    assert fired == ["a"] and loop.now == 1.0
    loop.schedule_at(1.5, lambda: fired.append("between"))
    loop.run()
    assert fired == ["a", "between", "b"]


def test_pump_inside_batch_delivers_remaining_batch_members():
    loop = SimLoop()
    fired = []

    def first():
        fired.append("first")
        loop.schedule(0.5, lambda: fired.append("pumped"))
        loop.pump(1.0)
        fired.append("resumed")

    loop.schedule_at(1.0, first)
    loop.schedule_at(1.0, lambda: fired.append("second"))
    loop.run()
    # the same-instant sibling falls inside the pump window (<= deadline)
    assert fired == ["first", "second", "pumped", "resumed"]


def test_pump_deadline_flushes_unfired_members_for_the_outer_run():
    loop = SimLoop()
    fired = []

    def first():
        fired.append("first")
        loop.pump(0.0)  # zero-width pump: siblings at t=1.0 still fire
        fired.append("resumed")

    loop.schedule_at(1.0, first)
    loop.schedule_at(1.0, lambda: fired.append("second"))
    loop.run()
    assert fired == ["first", "second", "resumed"]


def test_tombstones_are_compacted_past_the_threshold():
    loop = SimLoop()
    keep = [loop.schedule_at(10.0 + i, lambda: None) for i in range(8)]
    victims = [loop.schedule_at(20.0 + i, lambda: None)
               for i in range(4 * SimLoop.COMPACT_MIN)]
    for v in victims:
        v.cancel()
    # compaction ran: almost all dead events are physically gone — at most
    # a sub-threshold straggler tail may still sit tombstoned in place
    assert len(loop._queue) <= len(keep) + SimLoop.COMPACT_MIN
    assert loop._tombstones <= SimLoop.COMPACT_MIN
    assert loop.pending() == len(keep)
    loop.run()
    assert loop.pending() == 0


def test_cancel_owned_by_compacts_and_counts_once():
    loop = SimLoop()
    fired = []
    n = 4 * SimLoop.COMPACT_MIN
    for i in range(n):
        loop.schedule_at(5.0 + i, lambda: fired.append("doomed"), owner="doomed")
    survivor = loop.schedule_at(1.0, lambda: fired.append("fine"), owner="fine")
    loop.cancel_owned_by("doomed")
    assert loop.pending() == 1
    loop.cancel_owned_by("doomed")  # idempotent
    assert loop.pending() == 1
    # swept entries are no tombstones; the next compaction drops them all
    assert loop._tombstones == 0
    extra = [loop.schedule_at(2.0, lambda: None) for _ in range(n + 1)]
    for event in extra:
        event.cancel()  # the last cancel reaches the trigger
    assert len(loop._queue) == 1 and loop._tombstones == 0
    assert not survivor.cancelled
    loop.run()
    assert fired == ["fine"]


def test_cancel_after_fire_does_not_skew_tombstone_count():
    loop = SimLoop()
    events = []
    for i in range(5):
        events.append(loop.schedule_at(float(i), lambda: None))
    loop.run()
    for e in events:
        e.cancel()  # already fired: must not count as queued tombstones
    assert loop._tombstones == 0


def test_seed_scale_never_compacts():
    # seed-sized runs stay below COMPACT_MIN, so dispatch order is
    # trivially identical to the pre-compaction kernel
    loop = SimLoop()
    victims = [loop.schedule_at(5.0, lambda: None) for i in range(64)]
    for v in victims:
        v.cancel()
    assert loop._tombstones == len(victims)  # still tombstoned in place


def test_schedule_past_still_rejected_and_negative_delay():
    loop = SimLoop()
    loop.schedule_at(5.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule(-0.1, lambda: None)


def test_heavy_same_instant_burst_is_ordered():
    # a 100x-style t=0 burst: thousands of same-instant events dispatch as
    # one batch, in seq order, interleaved with a later tail
    loop = SimLoop()
    fired = []
    n = 5000
    for i in range(n):
        loop.schedule_at(0.0, (lambda i=i: fired.append(i)))
    loop.schedule_at(1.0, lambda: fired.append("tail"))
    loop.run()
    assert fired[:n] == list(range(n))
    assert fired[-1] == "tail"
