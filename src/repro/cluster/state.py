"""Tracked heap state: the substrate's equivalent of bytecode instrumentation.

In the paper, Javassist rewrites the Java systems so that every getField /
putField of a meta-info field, and every collection read/write (Table 3),
can be observed and a crash injected exactly *before a read* or *after a
write*.  In this Python substrate the systems store high-level state in
*tracked* fields and containers declared at class level::

    class YarnScheduler(Node):
        nodes: Dict[NodeId, SchedulerNode] = tracked_dict()
        current_attempt: Optional[ApplicationAttemptId] = tracked_ref()

which gives exactly the same two observation channels:

* the **static** channel — the declarations carry ordinary type
  annotations, so the AST analysis (``repro.core.analysis``) can read field
  types and find access sites, just as WALA reads JVM types and getField /
  putField instructions;
* the **dynamic** channel — every access emits an :class:`AccessEvent` on
  the global :class:`AccessBus` (when a hook wants it), carrying the access
  site's source location, a bounded call stack, the executing node, and
  the stringified runtime values involved.  Pre-read hooks run *before*
  the value is (re-)read; post-write hooks run *after* the store.

The bus is the one instrumentation agent: the IO streams of
:mod:`repro.cluster.io` emit on it too, keyed by stream class and IO
method, with ``op`` the side of the call.  Invariants (DESIGN.md "Access
bus dispatch"):

* with no hook installed an access or IO call costs one boolean check;
* every hook in ``src/`` is keyed to the ``(field, op)`` pairs it can act
  on, and an access on any other pair costs one set lookup and builds no
  event;
* a keyed hook receives exactly the wildcard stream filtered to its pairs
  (a ``keys=None`` wildcard exists as the tests' reference);
* every event carries its location and its bounded call stack.

Important honesty note: tracking a field does **not** make it meta-info.
The systems also track plenty of non-meta-info state (metrics, queues of
plain strings); whether an access site is a crash point is decided purely
by the log-based + type-based analysis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import runtime

#: modules whose frames emit bus events on a caller's behalf
_INSTRUMENTATION_MODULES = frozenset({__name__, "repro.cluster.io"})

#: module prefixes whose frames are substrate machinery, not system code
_SUBSTRATE_PREFIXES = (
    "repro.sim",
    "repro.net",
    "repro.cluster",
    "repro.mtlog",
    "repro.runtime",
    "repro.core",
    "repro.systems.base",
)


_SUBSTRATE_MODULE_CACHE: Dict[str, bool] = {}


def _is_substrate_module(module: str) -> bool:
    cached = _SUBSTRATE_MODULE_CACHE.get(module)
    if cached is None:
        cached = _SUBSTRATE_MODULE_CACHE[module] = any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _SUBSTRATE_PREFIXES
        )
    return cached


# Per-callsite memoization for the frame walk below, which runs for every
# access event the bus emits (the profiler's hottest path).  A frame's
# module is constant per code object, and its line is constant per
# (code object, instruction offset) — so neither f_globals lookups nor
# f_lineno computations (CPython derives the line from the line table on
# every read) need to happen more than once per call site.
_FRAME_MODULE_CACHE: Dict[Any, str] = {}
_SITE_CACHE: Dict[Tuple[Any, int], Tuple[str, int]] = {}
_STACK_ENTRY_CACHE: Dict[Tuple[Any, int], str] = {}


def _frame_module(frame: Any) -> str:
    code = frame.f_code
    module = _FRAME_MODULE_CACHE.get(code)
    if module is None:
        module = _FRAME_MODULE_CACHE[code] = frame.f_globals.get("__name__", "?")
    return module


def capture_caller(depth: int) -> Tuple[Tuple[str, int], Tuple[str, ...]]:
    """Locate the access site and its bounded call string.

    Frames of the instrumentation itself (this module's containers and the
    IO library's streams) are skipped, so the site is the system code that
    made the access or the IO call.  The call string contains
    system-under-test frames only — substrate dispatch frames
    (node._enter, the event loop) are as meaningless to a tester as
    JVM-internal frames were to the paper's tool.  Each entry is
    ``module.qualname:line``; for caller frames the line is the call site,
    which is what lets promoted crash points match their call sites.
    """
    frame = sys._getframe(2)  # the emitter's caller
    while frame is not None and _frame_module(frame) in _INSTRUMENTATION_MODULES:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return ("?", 0), ()
    site = (frame.f_code, frame.f_lasti)
    location = _SITE_CACHE.get(site)
    if location is None:
        location = _SITE_CACHE[site] = (_frame_module(frame), frame.f_lineno)
    stack: List[str] = []
    f: Any = frame
    while f is not None and len(stack) < depth:
        module = _frame_module(f)
        if _is_substrate_module(module):
            # The dispatch frame (node._enter, the event loop) is the end
            # of the logical thread: frames above it belong to the harness
            # that drives the simulation, not to the system under test.
            break
        site = (f.f_code, f.f_lasti)
        entry = _STACK_ENTRY_CACHE.get(site)
        if entry is None:
            code = f.f_code
            qualname = getattr(code, "co_qualname", code.co_name)
            entry = _STACK_ENTRY_CACHE[site] = f"{module}.{qualname}:{f.f_lineno}"
        stack.append(entry)
        f = f.f_back
    return location, tuple(stack)


# ---------------------------------------------------------------------------
# access events and the bus
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldKey:
    """Identity of a tracked field: owning class qualname + field name."""

    cls: str
    name: str

    def __str__(self) -> str:
        return f"{self.cls}.{self.name}"


@dataclass(frozen=True)
class AccessEvent:
    """One runtime access to a tracked field or container, or one side of
    an IO call (:mod:`repro.cluster.io`).

    Attributes:
        field: which field was accessed; for an IO call, the stream class
            and the IO method (``FieldKey(<stream class>, "read_all")``).
        op: ``"read"`` or ``"write"``; for an IO call, ``"before"`` or
            ``"after"`` the operation.
        method: the concrete operation: ``getfield``/``putfield`` for
            scalar refs, the collection method name (``get``, ``put``,
            ``remove``, ...) for containers, the IO method for a stream.
        values: stringified runtime values involved (keys and values, or
            a stream's path), used by the online analysis to find the
            target node.
        location: ``(module, lineno)`` of the *access site* (the caller).
        node: name of the node executing the access ("" outside a handler).
        time: simulated time.
        stack: bounded call-string (innermost first), system frames only.
    """

    field: FieldKey
    op: str
    method: str
    values: Tuple[str, ...]
    location: Tuple[str, int]
    node: str
    time: float
    stack: Tuple[str, ...] = ()


Hook = Callable[[AccessEvent], None]

#: what a keyed hook can act on: one tracked field, read or written, or
#: one stream class's IO method, before or after the operation
BusKey = Tuple[FieldKey, str]


class AccessBus:
    """Global dispatch point for tracked-state access events.

    A hook is either *keyed* — installed with the ``(field, op)`` pairs it
    can act on, and handed only events on those pairs — or a *wildcard*
    (``keys=None``), handed every event.  An access pays for building an
    event (the frame walk, the values' ``str()``, the :class:`AccessEvent`)
    only when some installed hook is keyed to its pair or is a wildcard;
    otherwise :meth:`emit` returns after one set lookup.

    Accesses made while the bus builds an event (the ``str()`` of a value
    whose ``__str__`` reads tracked state) emit nothing, so what a keyed
    hook receives never depends on which other pairs happen to be built.
    Accesses made while a hook runs (a firing trigger pumping the loop)
    emit as usual.
    """

    #: paper Section 3.1.3: call strings are bounded to depth 5
    STACK_DEPTH = 5

    def __init__(self) -> None:
        self.enabled = False
        #: installed hooks in installation order, each with its keys
        #: (``None`` for a wildcard)
        self._hooks: List[Tuple[Hook, Optional[FrozenSet[BusKey]]]] = []
        self._wildcard = False
        #: every keyed hook's pairs
        self._watched: FrozenSet[BusKey] = frozenset()
        self._building = False

    def add_hook(self, hook: Hook, keys: Optional[Iterable[BusKey]] = None) -> None:
        """Install ``hook`` for the ``(field, op)`` pairs in ``keys``, or
        for every access when ``keys`` is None."""
        self._hooks.append((hook, None if keys is None else frozenset(keys)))
        self._refresh()

    def remove_hook(self, hook: Hook) -> None:
        for i, (installed, _) in enumerate(self._hooks):
            if installed == hook:
                del self._hooks[i]
                break
        else:
            raise ValueError(f"{hook!r} is not installed")
        self._refresh()

    def reset(self) -> None:
        self._hooks.clear()
        self._refresh()

    def _refresh(self) -> None:
        self.enabled = bool(self._hooks)
        self._wildcard = any(keys is None for _, keys in self._hooks)
        self._watched = frozenset().union(
            *(keys for _, keys in self._hooks if keys is not None))

    # ------------------------------------------------------------------
    def emit(self, key: FieldKey, op: str, method: str, values: Iterable[Any]) -> None:
        """Build an event from the caller's frame and run the hooks that
        want it; return at once when none does."""
        pair = (key, op)
        if self._building or not (self._wildcard or pair in self._watched):
            return
        self._building = True
        try:
            location, stack = capture_caller(self.STACK_DEPTH)
            event = AccessEvent(
                field=key,
                op=op,
                method=method,
                values=tuple(str(v) for v in values if v is not None),
                location=location,
                node=runtime.current_node() or "",
                time=runtime.current_time(),
                stack=stack,
            )
        finally:
            self._building = False
        for hook, keys in list(self._hooks):
            if keys is None or pair in keys:
                hook(event)


#: The process-global bus, mirroring the single instrumentation agent.
BUS = AccessBus()


# ---------------------------------------------------------------------------
# scalar tracked fields (getField / putField)
# ---------------------------------------------------------------------------
class tracked_ref:
    """Data descriptor for a scalar tracked field.

    Reads emit a ``getfield`` event *before* the value is loaded (the load
    is re-done after hooks run, so a hook that changes system state — e.g.
    by crashing a node whose recovery rewrites the field — is observed by
    the reader, exactly as in the paper's pre-read scenario).  Writes store
    first, then emit ``putfield``.
    """

    def __init__(self, default: Any = None):
        self._default = default
        self._key: Optional[FieldKey] = None
        self._attr = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._key = FieldKey(f"{owner.__module__}.{owner.__qualname__}", name)
        self._attr = f"_tracked_{name}"

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        if BUS.enabled:
            current = getattr(obj, self._attr, self._default)
            BUS.emit(self._key, "read", "getfield", (current,))
        return getattr(obj, self._attr, self._default)

    def __set__(self, obj: Any, value: Any) -> None:
        setattr(obj, self._attr, value)
        if BUS.enabled:
            BUS.emit(self._key, "write", "putfield", (value,))


# ---------------------------------------------------------------------------
# tracked collections (Table 3 operations)
# ---------------------------------------------------------------------------
class _TrackedCollection:
    """Shared machinery: every container knows its field identity."""

    def __init__(self, key: FieldKey):
        self._key = key

    def _read(self, method: str, *values: Any) -> None:
        if BUS.enabled:
            BUS.emit(self._key, "read", method, values)

    def _write(self, method: str, *values: Any) -> None:
        if BUS.enabled:
            BUS.emit(self._key, "write", method, values)


class TrackedDict(_TrackedCollection):
    """A map with Java-collection-flavoured accessors.

    Method names are chosen from the paper's Table 3 keyword lists so the
    static analysis's keyword matching and the runtime emission agree.
    ``size`` is deliberately *not* an access point (it matches no keyword).
    """

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: Dict[Any, Any] = {}

    # reads ---------------------------------------------------------------
    def get(self, k: Any, default: Any = None) -> Any:
        # Emit first with the *current* mapping; re-read after hooks so a
        # hook-triggered recovery (removal/reset) is visible to the caller.
        self._read("get", k, self._data.get(k))
        return self._data.get(k, default)

    def contains(self, k: Any) -> bool:
        self._read("contains", k)
        return k in self._data

    def values(self) -> List[Any]:
        self._read("values")
        return list(self._data.values())

    def is_empty(self) -> bool:
        self._read("is_empty")
        return not self._data

    # writes --------------------------------------------------------------
    def put(self, k: Any, v: Any) -> Any:
        old = self._data.get(k)
        self._data[k] = v
        self._write("put", k, v)
        return old

    def remove(self, k: Any) -> Any:
        old = self._data.pop(k, None)
        self._write("remove", k)
        return old

    def clear(self) -> None:
        self._data.clear()
        self._write("clear")

    # untracked helpers (no Table 3 keyword → no access point) -------------
    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> Dict[Any, Any]:
        """Untracked copy for assertions in tests and oracles only."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)


class TrackedSet(_TrackedCollection):
    """A set with Table 3 accessors."""

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: set = set()

    def add(self, v: Any) -> None:
        self._data.add(v)
        self._write("add", v)

    def remove(self, v: Any) -> bool:
        present = v in self._data
        self._data.discard(v)
        self._write("remove", v)
        return present

    def contains(self, v: Any) -> bool:
        self._read("contains", v)
        return v in self._data

    def values(self) -> List[Any]:
        self._read("values")
        return list(self._data)

    def is_empty(self) -> bool:
        self._read("is_empty")
        return not self._data

    def clear(self) -> None:
        self._data.clear()
        self._write("clear")

    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> set:
        return set(self._data)

    def __len__(self) -> int:
        return len(self._data)


class TrackedList(_TrackedCollection):
    """A list with Table 3 accessors."""

    def __init__(self, key: FieldKey):
        super().__init__(key)
        self._data: List[Any] = []

    def add(self, v: Any) -> None:
        self._data.append(v)
        self._write("add", v)

    def remove(self, v: Any) -> bool:
        try:
            self._data.remove(v)
        except ValueError:
            self._write("remove", v)
            return False
        self._write("remove", v)
        return True

    def get(self, index: int) -> Any:
        value = self._data[index] if 0 <= index < len(self._data) else None
        self._read("get", value)
        return self._data[index]

    def contains(self, v: Any) -> bool:
        self._read("contains", v)
        return v in self._data

    def values(self) -> List[Any]:
        self._read("values")
        return list(self._data)

    def is_empty(self) -> bool:
        self._read("is_empty")
        return not self._data

    def clear(self) -> None:
        self._data.clear()
        self._write("clear")

    def size(self) -> int:
        return len(self._data)

    def snapshot(self) -> List[Any]:
        return list(self._data)

    def __len__(self) -> int:
        return len(self._data)


class _tracked_collection_descriptor:
    """Class-level declaration of a per-instance tracked container.

    Reading the attribute returns the instance's container (created on
    first use) without emitting an event — the access points are the
    container *operations*, per Table 3.  Assignment is forbidden: systems
    mutate their collections, they don't swap them.
    """

    container_cls: type = TrackedDict

    def __init__(self) -> None:
        self._key: Optional[FieldKey] = None
        self._attr = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self._key = FieldKey(f"{owner.__module__}.{owner.__qualname__}", name)
        self._attr = f"_tracked_{name}"

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        container = obj.__dict__.get(self._attr)
        if container is None:
            assert self._key is not None
            container = self.container_cls(self._key)
            obj.__dict__[self._attr] = container
        return container

    def __set__(self, obj: Any, value: Any) -> None:
        raise TypeError(f"tracked collection {self._key} cannot be reassigned")


class tracked_dict(_tracked_collection_descriptor):
    container_cls = TrackedDict


class tracked_set(_tracked_collection_descriptor):
    container_cls = TrackedSet


class tracked_list(_tracked_collection_descriptor):
    container_cls = TrackedList


__all__ = [
    "AccessBus",
    "AccessEvent",
    "BUS",
    "BusKey",
    "FieldKey",
    "TrackedDict",
    "TrackedList",
    "TrackedSet",
    "tracked_dict",
    "tracked_list",
    "tracked_ref",
    "tracked_set",
]
