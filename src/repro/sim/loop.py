"""The discrete-event simulation loop.

:class:`SimLoop` is the single source of time for a simulated cluster.  It
holds pending :class:`~repro.sim.events.Event` objects and runs each
event's callback to completion, in ``(time, seq)`` order, which makes
every run deterministic.

Two driving modes exist:

* :meth:`SimLoop.run` — the outer driver, used by workload runners.  It
  processes events until a deadline, an event budget, or quiescence.
* :meth:`SimLoop.pump` — a *reentrant* driver used by the fault-injection
  trigger at pre-read crash points.  The paper's instrumentation blocks the
  reading thread for a wait period while the shutdown of the target node is
  handled by other threads; in a single-threaded discrete-event world the
  equivalent is to pump the loop for a bounded simulated duration from
  inside the currently-running handler, then resume it.

Queue layout (see DESIGN.md "Scale kernel"): pending events live in one
binary heap of ``(time, seq, event)`` triples, so every sift compares
plain tuples at C speed — ``seq`` is globally unique, so the comparison
never reaches the event (which defines no ordering of its own).  The drivers pop the
head once it is due (:meth:`SimLoop._pop_due`); a handler that schedules,
cancels or pumps therefore always sees the whole pending set in the one
structure.

Cancelled events are tombstones: they stay in place and are skipped when
they surface.  Each loop counts its tombstones (events notify the loop via
a backref when cancelled while queued) and compacts the heap once
tombstones pass :data:`SimLoop.COMPACT_MIN` *and* outnumber half the
pending events, so a long run that cancels millions of timers keeps pop
cost flat without re-heapifying on every cancel.

Bulk cancellation (:meth:`SimLoop.cancel_owned_by`, fired on every node
crash, shutdown or abort) is a watermark: event ``seq`` only grows, so
"everything the owner has queued now" is exactly "the owner's events with
a ``seq`` below the next one".  The sweep records that floor and costs
O(1); a floor-dead event is skipped where it surfaces, like a tombstone,
and dropped by the next compaction.

Exception policy: callbacks that raise :class:`NodeCrashedError` are
treated as expected teardown (the handler's node was crashed mid-flight by
injection).  Any other exception is passed to the loop's ``crash_handler``
(installed by :class:`repro.cluster.cluster.Cluster`); if none is installed
the exception propagates, which is the correct behaviour for unit tests of
the kernel itself.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NodeCrashedError, SimulationError
from repro.obs.context import NULL_OBS, Observability
from repro.sim.events import Event, next_seq

# Type of the hook invoked when a callback raises a non-crash exception.
# Receives (event, exception); returns True if the exception was consumed.
ExceptionHandler = Callable[[Event, BaseException], bool]


class SimLoop:
    """Deterministic discrete-event loop with reentrant pumping."""

    #: hard cap on pump() reentrancy to catch accidental recursion
    MAX_PUMP_DEPTH = 8

    #: tombstone floor below which compaction never runs — seed-sized
    #: workloads (a few hundred events) never compact, so their dispatch
    #: order is trivially byte-identical to the pre-compaction kernel
    COMPACT_MIN = 512

    def __init__(self) -> None:
        # heap of (time, seq, event): tuple comparison stays in C
        self._queue: List[Tuple[float, int, Event]] = []
        # owner -> seq floor: its events below it were swept while queued
        self._floor: Dict[str, int] = {}
        self._tombstones = 0
        self._now = 0.0
        self._events_processed = 0
        self._pump_depth = 0
        self._stopped = False
        self.exception_handler: Optional[ExceptionHandler] = None
        #: observability sink; Cluster installs the ambient context here.
        #: Observation must never schedule events or consume RNG — the
        #: determinism tests compare runs with this on and off.
        self.obs: Observability = NULL_OBS
        # Per-kind telemetry cache for _fire: instrument handles are
        # resolved once per (observability context, event kind) instead of
        # formatting f"sim.events.{kind}" and walking the registry on
        # every event.  Rebuilt whenever the installed context changes.
        self._telemetry_obs: Optional[Observability] = None
        self._kind_counters: Dict[str, Any] = {}
        self._events_counter: Any = None
        self._queue_depth_histogram: Any = None

    # ------------------------------------------------------------------
    # time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        owner: Optional[str] = None,
        kind: str = "call",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        event = Event(self._now + delay, callback, owner, kind)
        event._loop = self
        event._in_loop = True
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        owner: Optional[str] = None,
        kind: str = "call",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        event = Event(time, callback, owner, kind)
        event._loop = self
        event._in_loop = True
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def cancel_owned_by(self, owner: str) -> None:
        """Cancel every event ``owner`` has queued now; later ones live."""
        self._floor[owner] = next_seq()

    def _swept(self, event: Event) -> bool:
        """Whether ``event`` was queued when its owner was swept."""
        return event.seq < self._floor.get(event.owner, -1)

    def pending(self) -> int:
        """Number of live (neither cancelled nor swept) events still queued."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def stop(self) -> None:
        """Cut the run after the current event, for good.

        The handler that calls it runs to its end; then the :meth:`run`
        or :meth:`pump` in progress returns, and so does every later one
        without dispatching an event — a stop issued before the loop
        started, or inside a pump, still holds when the outer ``run``
        resumes.
        """
        self._stopped = True

    # ------------------------------------------------------------------
    # tombstone accounting and compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event sits queued."""
        self._tombstones += 1
        t = self._tombstones
        if t >= self.COMPACT_MIN and 2 * t >= len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and floor-dead event from the heap in one pass."""
        live: List[Tuple[float, int, Event]] = []
        for entry in self._queue:
            event = entry[2]
            if event.cancelled:
                event._cancelled = True
                event._in_loop = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._tombstones = 0

    # ------------------------------------------------------------------
    # dispatch core
    # ------------------------------------------------------------------
    def _pop_due(self, deadline: Optional[float]) -> Optional[Event]:
        """Pop the earliest live event, unless it lies beyond ``deadline``.

        Purges the tombstones and floor-dead events that surface above it;
        returns None when nothing live is due (the queue is empty, or its
        head is later).
        """
        queue = self._queue
        floor = self._floor
        while queue:
            event = queue[0][2]
            if event._cancelled:
                heapq.heappop(queue)
                event._in_loop = False
                self._tombstones -= 1
                continue
            if event.seq < floor.get(event.owner, -1):
                heapq.heappop(queue)
                event._in_loop = False
                event._cancelled = True  # stays cancelled once it surfaced
                continue
            if deadline is not None and event.time > deadline:
                return None
            heapq.heappop(queue)
            event._in_loop = False
            return event
        return None

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 5_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Process events in order until quiescence, a deadline, or a predicate.

        Args:
            until: stop once simulated time would exceed this deadline; the
                clock is advanced to ``until`` on return so that timeouts
                relative to the deadline are observable.
            max_events: safety budget; exceeding it raises SimulationError
                (a runaway simulation is a harness bug, not a system bug).
            stop_when: checked after every event; return True to stop.
        """
        processed = 0
        stopped_by_predicate = False
        while not self._stopped and self._queue:
            event = self._pop_due(until)
            if event is None:
                break
            self._fire(event)
            processed += 1
            if processed > max_events:
                raise SimulationError(f"event budget exceeded ({max_events})")
            if stop_when is not None and stop_when():
                stopped_by_predicate = True
                break
        # On deadline or quiescence the clock advances to the deadline
        # (so timeout-relative behaviour is observable); an early
        # predicate stop must leave the clock at the stopping event.
        if (
            until is not None
            and self._now < until
            and not stopped_by_predicate
            and not self._stopped
        ):
            self._now = until

    def pump(self, duration: float, max_events: int = 200_000) -> None:
        """Reentrantly process events for ``duration`` simulated seconds.

        Used by the injection trigger to model a blocking wait inside a
        handler: events scheduled by other "threads" (the shutdown
        handshake of the target node) are delivered while the current
        handler is paused, then control returns to it.  Pops from the same
        heap as the interrupted :meth:`run`, so the rest of the current
        instant is delivered in order if it falls inside the pump window.
        """
        if duration < 0:
            raise SimulationError(f"negative pump duration {duration!r}")
        if self._pump_depth >= self.MAX_PUMP_DEPTH:
            raise SimulationError("pump() reentrancy too deep")
        self._pump_depth += 1
        try:
            deadline = self._now + duration
            processed = 0
            while not self._stopped:
                event = self._pop_due(deadline)
                if event is None:
                    break
                self._fire(event)
                processed += 1
                if processed > max_events:
                    raise SimulationError(f"pump event budget exceeded ({max_events})")
            if self._now < deadline and not self._stopped:
                self._now = deadline
        finally:
            self._pump_depth -= 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fire(self, event: Event) -> None:
        if event.time < self._now:
            raise SimulationError(
                f"time went backwards: event at {event.time} < now {self._now}"
            )
        self._now = event.time
        self._events_processed += 1
        obs = self.obs
        if obs.enabled:
            if obs is not self._telemetry_obs:
                self._telemetry_obs = obs
                self._kind_counters = {}
                self._events_counter = obs.metrics.counter("sim.events_processed")
                self._queue_depth_histogram = obs.metrics.histogram("sim.queue_depth")
            kind_counter = self._kind_counters.get(event.kind)
            if kind_counter is None:
                kind_counter = self._kind_counters[event.kind] = (
                    obs.metrics.counter(f"sim.events.{event.kind}")
                )
            self._events_counter.inc()
            kind_counter.inc()
            self._queue_depth_histogram.observe(len(self._queue))
        try:
            event.callback()
        except NodeCrashedError:
            # Expected: the running handler's node was crashed by injection.
            pass
        except Exception as exc:  # noqa: BLE001 - policy decision is delegated
            handled = False
            if self.exception_handler is not None:
                handled = self.exception_handler(event, exc)
            if not handled:
                raise
