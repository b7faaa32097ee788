"""Event objects for the discrete-event simulation kernel.

An :class:`Event` is a callback scheduled at a simulated time.  The loop
orders events by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, which makes every simulation run deterministic for
a fixed seed and schedule order.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

_SEQ = itertools.count()


def next_seq() -> int:
    """A seq no event holds: every event made before it is lower, every
    later one higher."""
    return next(_SEQ)


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulated time at which the callback fires.
        seq: global tie-breaker; earlier-scheduled events fire first.
        callback: zero-argument callable (arguments are bound at schedule
            time) run when the event fires.
        owner: opaque label (usually a node name) used for diagnostics and
            for cancelling all events of a crashed owner.
        kind: free-form category (``"timer"``, ``"message"``, ``"call"``)
            used by traces and tests.
    """

    __slots__ = ("time", "seq", "callback", "owner", "kind", "_cancelled",
                 "_loop", "_in_loop")

    def __init__(
        self,
        time: float,
        callback: Callable[[], Any],
        owner: Optional[str] = None,
        kind: str = "call",
    ):
        self.time = float(time)
        self.seq = next(_SEQ)
        self.callback = callback
        self.owner = owner
        self.kind = kind
        self._cancelled = False
        # Tombstone accounting backref: the owning SimLoop sets these at
        # schedule time so cancel() can report "a tombstone now sits in
        # your queue" without the loop scanning for it.  `_in_loop` is
        # True only while the event sits in the loop's heap awaiting
        # dispatch (cleared on pop), so cancelling an already-fired timer
        # never skews the count.
        self._loop = None
        self._in_loop = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._in_loop and self._loop is not None:
            self._loop._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire: cancelled itself, or
        swept with its owner while queued (a fired event never is)."""
        return self._cancelled or (self._in_loop and self._loop._swept(self))

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} kind={self.kind} owner={self.owner} {state}>"
