"""SLF4J-style template loggers.

Systems under test log exactly as the Java systems in the paper do::

    LOG = get_logger(__name__)
    LOG.info("NodeManager from {} registered as {}", host, node_id)

The literal template plus the runtime values of the logged variables are
both preserved on the :class:`LogRecord`, because CrashTuner's offline log
analysis needs the template (to build patterns) and its online analysis
needs the values (to map meta-info to nodes).

Loggers are module-level singletons, like ``static final Logger LOG`` in
Java; the emitting *node* is read from the ambient runtime context.

Emit-path cost model: every simulated run logs thousands of records, so
``_emit`` avoids per-call work that only ever produces per-callsite
constants.  The ``(module, lineno)`` location is resolved once per call
site and memoized keyed on ``(code object, instruction offset)`` — the
pair that uniquely identifies a call site without computing ``f_lineno``
(which CPython derives from the line table on every access) or touching
``f_globals``.  Rendering is deferred entirely: the record is created
with a lazy message (see :class:`~repro.mtlog.records.LogRecord`).
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Tuple

from repro import runtime
from repro.mtlog.records import LEVELS, LogRecord, render, render_exc

_REGISTRY: Dict[str, "Logger"] = {}

#: (f_code, f_lasti) -> (module, lineno); one entry per logging call site
_LOCATION_CACHE: Dict[Tuple[object, int], Tuple[str, int]] = {}


class Logger:
    """A named logger with the six Log4j interface methods."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _emit(self, level: str, template: str, args: tuple, exc: Optional[BaseException]) -> None:
        cluster = runtime.active_cluster()
        if cluster is None:
            return  # logging outside a simulation is a no-op
        frame = sys._getframe(2)
        key = (frame.f_code, frame.f_lasti)
        location = _LOCATION_CACHE.get(key)
        if location is None:
            location = (frame.f_globals.get("__name__", "?"), frame.f_lineno)
            _LOCATION_CACHE[key] = location
        record = LogRecord(
            time=cluster.loop.now,
            node=runtime.current_node() or "",
            component=self.name,
            level=level,
            template=template,
            args=tuple(str(a) for a in args),
            location=location,
            exc=render_exc(exc) if exc is not None else None,
        )
        cluster.log_collector.collect(record)

    # The six interface names from Section 3.1.1.  Defined explicitly (not
    # generated) so the AST log-statement scanner sees ordinary methods and
    # call sites read naturally.
    def trace(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("trace", template, args, exc)

    def debug(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("debug", template, args, exc)

    def info(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("info", template, args, exc)

    def warn(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("warn", template, args, exc)

    def error(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("error", template, args, exc)

    def fatal(self, template: str, *args, exc: Optional[BaseException] = None) -> None:
        self._emit("fatal", template, args, exc)


def get_logger(name: str) -> Logger:
    """Return the module-level logger for ``name`` (created on first use)."""
    logger = _REGISTRY.get(name)
    if logger is None:
        logger = Logger(name)
        _REGISTRY[name] = logger
    return logger


__all__ = ["Logger", "get_logger", "render", "LEVELS"]
