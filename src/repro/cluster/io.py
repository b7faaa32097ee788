"""Simulated IO streams: the substrate behind the IO-fault-injection baseline.

The paper's strongest baseline (Section 4.2.2) injects crashes around *IO
points*: call sites to ``read``/``write``/``flush``/``close`` methods of
classes implementing ``java.io.Closeable``.  For that comparison to be
meaningful here, the systems under test must actually perform their
persistence and transfer through stream classes with that shape — so this
module provides them, backed by an in-memory simulated disk per node.

Every public method of a :class:`Closeable` subclass named with one of the
four keywords is an IO point; calls emit on :data:`IO_BUS` (when enabled)
so the baseline can count dynamic IO points and arm injections, exactly
parallel to the meta-info :class:`~repro.cluster.state.AccessBus`.

IO faults: reading a corrupt/truncated stream raises
:class:`CorruptStreamError`, which the systems handle the way the real ones
do — with recovery code and logged, *handled* exceptions (the paper found
IO faults are usually tolerated; Section 4.2.2 discusses the HDFS
``LogHeaderCorruptException`` example).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import runtime

_THIS_MODULE = __name__


class CorruptStreamError(Exception):
    """A stream was cut short by a crash; readers must handle this."""


@dataclass(frozen=True)
class IOEvent:
    """One runtime call to an IO method.

    Two events fire per call: ``phase="before"`` just before the operation
    and ``phase="after"`` just after it, so fault injection can crash the
    machine on either side of the IO *instruction* (Section 4.2.2).
    """

    cls: str
    method: str
    path: str
    location: Tuple[str, int]
    node: str
    time: float
    stack: Tuple[str, ...] = ()
    phase: str = "before"


class IOBus:
    """Global dispatch for IO events (off by default)."""

    STACK_DEPTH = 5

    def __init__(self) -> None:
        self.enabled = False
        self.capture_stacks = False
        self._hooks: List[Callable[[IOEvent], None]] = []

    def add_hook(self, hook: Callable[[IOEvent], None]) -> None:
        self._hooks.append(hook)
        self.enabled = True

    def remove_hook(self, hook: Callable[[IOEvent], None]) -> None:
        self._hooks.remove(hook)
        if not self._hooks:
            self.enabled = False

    def reset(self) -> None:
        self._hooks.clear()
        self.enabled = False
        self.capture_stacks = False

    def emit(self, cls: str, method: str, path: str, phase: str = "before") -> None:
        from repro.cluster.state import capture_caller

        location, stack = capture_caller(
            _THIS_MODULE, self.capture_stacks, self.STACK_DEPTH, skip=2
        )
        event = IOEvent(
            cls=cls,
            method=method,
            path=path,
            location=location,
            node=runtime.current_node() or "",
            time=runtime.current_time(),
            stack=stack,
            phase=phase,
        )
        for hook in list(self._hooks):
            hook(event)


IO_BUS = IOBus()


class SimDisk:
    """In-memory file store for one node."""

    def __init__(self) -> None:
        self.files: Dict[str, List[Any]] = {}
        self.truncated: Dict[str, bool] = {}

    def truncate_open_files(self) -> None:
        """Model a crash mid-write: every open file loses its tail marker."""
        for path in self.files:
            self.truncated[path] = True


class Closeable:
    """Base for IO streams, the analogue of ``java.io.Closeable``."""

    def __init__(self, disk: SimDisk, path: str):
        self._disk = disk
        self.path = path
        self.closed = False

    def _io(self, method: str) -> None:
        if IO_BUS.enabled:
            IO_BUS.emit(f"{type(self).__module__}.{type(self).__qualname__}",
                        method, self.path, phase="before")

    def _io_done(self, method: str) -> None:
        if IO_BUS.enabled:
            IO_BUS.emit(f"{type(self).__module__}.{type(self).__qualname__}",
                        method, self.path, phase="after")

    def close(self) -> None:
        self._io("close")
        self.closed = True
        self._io_done("close")


class FileOutputStream(Closeable):
    """Append-only writer to a simulated file."""

    def __init__(self, disk: SimDisk, path: str):
        super().__init__(disk, path)
        disk.files.setdefault(path, [])
        disk.truncated[path] = False

    def write(self, record: Any) -> None:
        self._io("write")
        self._disk.files[self.path].append(record)
        self._io_done("write")

    def flush(self) -> None:
        self._io("flush")
        self._disk.truncated[self.path] = False
        self._io_done("flush")


class FileInputStream(Closeable):
    """Reader over a simulated file."""

    def __init__(self, disk: SimDisk, path: str):
        super().__init__(disk, path)
        self._pos = 0

    def read(self) -> Optional[Any]:
        """Next record, or None at EOF.  Raises on a truncated tail."""
        self._io("read")
        records = self._disk.files.get(self.path)
        if records is None:
            raise CorruptStreamError(f"missing file {self.path}")
        if self._pos >= len(records):
            if self._disk.truncated.get(self.path):
                raise CorruptStreamError(f"truncated tail in {self.path}")
            return None
        record = records[self._pos]
        self._pos += 1
        self._io_done("read")
        return record

    def read_all(self) -> List[Any]:
        self._io("read_all")
        out: List[Any] = []
        while True:
            record = self.read()
            if record is None:
                self._io_done("read_all")
                return out
            out.append(record)
