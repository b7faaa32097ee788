"""Simulated IO streams: the substrate behind the IO-fault-injection baseline.

The paper's strongest baseline (Section 4.2.2) injects crashes around *IO
points*: call sites to ``read``/``write``/``flush``/``close`` methods of
classes implementing ``java.io.Closeable``.  The systems under test do
their persistence and transfer through the stream classes here, backed by
an in-memory simulated disk per node.

Every public method of a :class:`Closeable` subclass whose name starts
with one of :data:`IO_METHOD_PREFIXES` is an IO method.  A call to one
emits two events on the access bus (:data:`~repro.cluster.state.BUS`),
keyed ``(FieldKey(<stream class>, <method>), phase)``: ``"before"`` just
before the operation and ``"after"`` once it has completed, so fault
injection can crash the machine on either side of the IO *instruction*.
A call that raises, or a ``read`` at EOF, has no ``"after"`` event.  The
bus skips this module's frames, so an event's location is the system's
call site, also for the ``read`` calls ``read_all`` makes on its behalf;
:func:`io_keys` names the pairs a hook can key to.

IO faults: reading a corrupt/truncated stream raises
:class:`CorruptStreamError`, which the systems handle the way the real ones
do — with recovery code and logged, *handled* exceptions (the paper found
IO faults are usually tolerated; Section 4.2.2 discusses the HDFS
``LogHeaderCorruptException`` example).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Type

from repro.cluster.state import BUS, BusKey, FieldKey

#: name prefixes that make a stream method an IO method
IO_METHOD_PREFIXES = ("read", "write", "flush", "close")


class CorruptStreamError(Exception):
    """A stream was cut short by a crash; readers must handle this."""


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

    #: this class's IO methods' bus fields, by method name
    _io_keys: Dict[str, FieldKey]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._io_keys = _method_keys(cls)

    def __init__(self, disk: SimDisk, path: str):
        self._disk = disk
        self.path = path
        self.closed = False

    def _io(self, method: str) -> None:
        if BUS.enabled:
            BUS.emit(self._io_keys[method], "before", method, (self.path,))

    def _io_done(self, method: str) -> None:
        if BUS.enabled:
            BUS.emit(self._io_keys[method], "after", method, (self.path,))

    def close(self) -> None:
        self._io("close")
        self.closed = True
        self._io_done("close")


def _method_keys(cls: type) -> Dict[str, FieldKey]:
    name = f"{cls.__module__}.{cls.__qualname__}"
    return {method: FieldKey(name, method) for method in dir(cls)
            if method.startswith(IO_METHOD_PREFIXES)}


Closeable._io_keys = _method_keys(Closeable)


def io_keys(phase: str, method: Optional[str] = None) -> FrozenSet[BusKey]:
    """The bus pairs of ``phase`` events of IO method ``method`` (of every
    IO method when None) on every stream class."""
    keys: Set[FieldKey] = set()
    classes: List[Type[Closeable]] = [Closeable]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        keys.update(key for name, key in cls._io_keys.items()
                    if method in (None, name))
    return frozenset((key, phase) for key in keys)


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
