"""``SimLoop`` against a deliberately naive reference queue.

The reference keeps pending events in one sorted list and removes a
cancelled event on the spot — no heap, no tombstones, no compaction, no
seq floor.  A hypothesis state machine drives both loops through the
same random interleaving of schedules, cancels, owner sweeps, runs to a
deadline and reentrant pumps — including all of those issued from inside
a firing handler — and requires the identical fire order, clock,
processed count, pending count and ``cancelled`` flag of every handle
after every step.
"""

import bisect
import itertools
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.sim.loop import SimLoop


class ReferenceLoop:
    """Sorted list of ``(time, seq, owner, callback, handle)``, eager
    cancellation; a handle reads cancelled once ``cancel()`` ran or a sweep
    dropped it."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.queue = []
        self._seq = itertools.count()

    def schedule(self, delay, callback, owner=None):
        return self.schedule_at(self.now + delay, callback, owner=owner)

    def schedule_at(self, time, callback, owner=None):
        handle = SimpleNamespace(cancelled=False)
        entry = (time, next(self._seq), owner, callback, handle)
        bisect.insort(self.queue, entry)  # seq is unique: ties stop there
        handle.cancel = lambda: self._drop([entry])
        return handle

    def _drop(self, entries):
        for entry in entries:
            entry[4].cancelled = True
        self.queue = [e for e in self.queue if e not in entries]

    def cancel_owned_by(self, owner):
        self._drop([e for e in self.queue if e[2] == owner])

    def pending(self):
        return len(self.queue)

    def run(self, until=None):
        while self.queue and (until is None or self.queue[0][0] <= until):
            self.now, _, _, callback, _ = self.queue.pop(0)
            self.events_processed += 1
            callback()
        if until is not None and self.now < until:
            self.now = until

    def pump(self, duration):
        self.run(until=self.now + duration)


class Driver:
    """Runs action programs against one loop and logs what it observes.

    A program is a list of actions; a scheduled event carries the program
    it runs when it fires, so mid-fire inserts, cancels and pumps come
    out of the same generator as top-level ones.
    """

    MAX_PUMP_NESTING = 3  # well inside SimLoop.MAX_PUMP_DEPTH

    def __init__(self, loop):
        self.loop = loop
        self.log = []
        self.handles = []
        self._pumps = 0
        self._ids = itertools.count()

    def _callback(self, program):
        ident = next(self._ids)

        def fire():
            self.log.append((ident, self.loop.now))
            self.execute(program)

        return fire

    def execute(self, program):
        loop = self.loop
        for op, *args in program:
            if op == "schedule":
                delay, owner, child = args
                self.handles.append(
                    loop.schedule(delay, self._callback(child), owner=owner))
            elif op == "schedule_at":
                time, owner, child = args
                if time >= loop.now:
                    self.handles.append(
                        loop.schedule_at(time, self._callback(child), owner=owner))
            elif op == "cancel":
                if self.handles:
                    self.handles[args[0] % len(self.handles)].cancel()
            elif op == "cancel_owned_by":
                loop.cancel_owned_by(args[0])
                self.log.append(("swept", args[0]))
            else:
                assert op == "pump"
                if self._pumps < self.MAX_PUMP_NESTING:
                    self._pumps += 1
                    try:
                        loop.pump(args[0])
                    finally:
                        self._pumps -= 1


# a coarse grid, so same-instant ties and exact deadline hits are common
_grid = st.integers(min_value=0, max_value=8).map(lambda n: n * 0.5)
_owners = st.sampled_from([None, "a", "b"])
_leaf_actions = st.one_of(
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("cancel_owned_by"), st.sampled_from(["a", "b"])),
    st.tuples(st.just("pump"), _grid),
    st.tuples(st.just("schedule"), _grid, _owners, st.just([])),
)
_programs = st.recursive(
    st.lists(_leaf_actions, max_size=3),
    lambda children: st.lists(
        st.one_of(
            _leaf_actions,
            st.tuples(st.just("schedule"), _grid, _owners, children),
            st.tuples(st.just("schedule_at"), _grid.map(lambda t: 2 * t),
                      _owners, children),
        ),
        max_size=4,
    ),
    max_leaves=12,
)


class LoopAgainstReference(RuleBasedStateMachine):
    @initialize(compact_min=st.sampled_from([1, SimLoop.COMPACT_MIN]))
    def build(self, compact_min):
        loop = SimLoop()
        # an instance attribute shadows the class threshold: compaction
        # engages on queues of a handful of events
        loop.COMPACT_MIN = compact_min
        self.real = Driver(loop)
        self.ref = Driver(ReferenceLoop())

    @rule(program=_programs)
    def execute(self, program):
        self.real.execute(program)
        self.ref.execute(program)

    @rule()
    def run_to_quiescence(self):
        self.real.loop.run()
        self.ref.loop.run()

    @rule(delta=_grid)
    def run_until(self, delta):
        # both clocks agree (invariant), so this is one deadline
        until = self.ref.loop.now + delta
        self.real.loop.run(until=until)
        self.ref.loop.run(until=until)

    @invariant()
    def observably_identical(self):
        real, ref = self.real.loop, self.ref.loop
        assert self.real.log == self.ref.log
        assert real.now == ref.now
        assert real.events_processed == ref.events_processed
        assert real.pending() == ref.pending()
        assert ([h.cancelled for h in self.real.handles]
                == [h.cancelled for h in self.ref.handles])
        # the tombstone tally is exactly the individually cancelled
        # entries still queued; a swept one is dead by its seq floor alone
        assert real._tombstones == sum(
            1 for _, _, e in real._queue if e._cancelled)


LoopAgainstReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
test_sim_loop_matches_reference_queue = LoopAgainstReference.TestCase
