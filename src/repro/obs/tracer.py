"""Span tracing over *simulated* time.

A :class:`Tracer` records nested spans — workload -> RPC -> recovery
action -> injection — stamped with the simulated clock of the active
cluster (see :mod:`repro.runtime`), so a trace of a run reads like the
timeline the paper's testers reconstruct from per-node log files.

The default tracer installed everywhere is :class:`NullTracer`, whose
every operation is a no-op on shared singletons: instrumented hot paths
(the event loop, message delivery) first check ``obs.enabled`` and pay a
single attribute read when observability is off, which keeps the
simulator's determinism *and* its speed independent of tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import runtime


@dataclass
class SpanRecord:
    """One finished (or still-open) span, stamped in simulated seconds."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    node: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=data["start"],
            end=data.get("end"),
            node=data.get("node"),
            attrs=dict(data.get("attrs", {})),
        )


class _OpenSpan:
    """Context manager handle for one in-flight span."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: Any) -> "_OpenSpan":
        """Attach attributes to the span while it is open."""
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._finish(self.record)


class Tracer:
    """Collects nested spans and point events over simulated time.

    ``max_spans`` bounds memory for long campaigns (an unbounded YARN
    campaign trace holds ~170k RPC spans): past the cap, finished spans
    are counted in :attr:`dropped` instead of stored, and the exporter
    surfaces that count so a truncated trace never reads as a full one.
    """

    enabled = True

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self.spans: List[SpanRecord] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._stack: List[SpanRecord] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a span; use as a context manager so it always closes."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=runtime.current_time(),
            node=runtime.current_node(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        return _OpenSpan(self, record)

    def _store(self, record: SpanRecord) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
        else:
            self.spans.append(record)

    def event(self, name: str, **attrs: Any) -> SpanRecord:
        """Record an instantaneous event (a zero-duration span)."""
        now = runtime.current_time()
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=now,
            end=now,
            node=runtime.current_node(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._store(record)
        return record

    # ------------------------------------------------------------------
    def _finish(self, record: SpanRecord) -> None:
        record.end = runtime.current_time()
        # Close any spans left open by an exception unwinding past them.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
            top.end = record.end
            self._store(top)
        self._store(record)

    # ------------------------------------------------------------------
    # worker-trace adoption (the parallel campaign executor)
    # ------------------------------------------------------------------
    def ids_allocated(self) -> int:
        """How many span ids this tracer has handed out so far."""
        return self._next_id - 1

    def adopt(
        self,
        span_dicts: List[Dict[str, Any]],
        allocated: int,
        reparent_to: Optional[int] = None,
    ) -> None:
        """Graft spans recorded by a worker's private tracer into this one.

        ``span_dicts`` are :meth:`SpanRecord.to_dict` records whose ids
        were allocated from 1 by the worker; ``allocated`` is the worker
        tracer's :meth:`ids_allocated`.  Ids are shifted past this
        tracer's, root spans are reparented to ``reparent_to``, and the
        records are stored in the given order through the ``max_spans``
        cap — so adopting per-point worker traces in point order yields
        the byte-identical span list, ids included, that a sequential
        campaign records directly.
        """
        offset = self._next_id - 1
        for data in span_dicts:
            record = SpanRecord.from_dict(data)
            record.span_id += offset
            if record.parent_id is None:
                record.parent_id = reparent_to
            else:
                record.parent_id += offset
            self._store(record)
        self._next_id += max(0, allocated)

    # ------------------------------------------------------------------
    # queries used by reports and tests
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpan:
    """Shared do-nothing span handle."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every call is a no-op on shared objects."""

    enabled = False
    spans: List[SpanRecord] = []  # shared, always empty
    dropped = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def ids_allocated(self) -> int:
        return 0

    def adopt(self, span_dicts: List[Dict[str, Any]], allocated: int,
              reparent_to: Optional[int] = None) -> None:
        return None

    def named(self, name: str) -> List[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0
