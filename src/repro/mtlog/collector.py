"""Per-cluster log collection.

:class:`LogCollector` plays the role of the per-node log files plus the
Logstash agents of the paper's deployment: every record is appended to the
emitting node's stream and to a global stream, and live subscribers (the
online log analysis of the injection phase) are notified in FIFO order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.mtlog.records import LogRecord

Subscriber = Callable[[LogRecord], None]


class LogCollector:
    """Accumulates log records for one cluster run."""

    def __init__(self) -> None:
        self.records: List[LogRecord] = []
        self.by_node: Dict[str, List[LogRecord]] = defaultdict(list)
        self._subscribers: List[Subscriber] = []
        #: (subscriber, record, exception) for every isolated failure
        self.subscriber_errors: List[Tuple[Subscriber, LogRecord, BaseException]] = []

    def collect(self, record: LogRecord) -> None:
        self.records.append(record)
        self.by_node[record.node].append(record)
        # A subscriber is a live tail, not part of the system under test:
        # one raising must neither abort the remaining subscribers nor
        # leak into the logging node's handler (where the node's exception
        # policy would misattribute it as a system failure).
        for subscriber in list(self._subscribers):
            try:
                subscriber(record)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.subscriber_errors.append((subscriber, record, exc))

    def subscribe(self, subscriber: Subscriber) -> None:
        """Attach a live tail (e.g. the online log analysis agent)."""
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.remove(subscriber)

    # ------------------------------------------------------------------
    # query helpers used by oracles and tests.  Records render their
    # message lazily (see LogRecord): these text-side helpers are the
    # places that force rendering, which is fine off the hot path —
    # the per-record cache means each record formats at most once.
    # ------------------------------------------------------------------
    def errors(self) -> List[LogRecord]:
        """All records at level error or fatal."""
        return [r for r in self.records if r.is_error]

    def messages(self) -> List[str]:
        return [r.message for r in self.records]

    def grep(self, needle: str) -> List[LogRecord]:
        return [r for r in self.records if needle in r.message]

    def __len__(self) -> int:
        return len(self.records)
