"""Log records and levels for the logging substrate."""

from __future__ import annotations

from typing import Optional, Tuple

#: Ordered severity levels, mirroring the Log4j/SLF4J interface names the
#: paper's log analysis keys on (Section 3.1.1).
LEVELS = ("trace", "debug", "info", "warn", "error", "fatal")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

_ERROR_RANK = _LEVEL_RANK["error"]


def level_rank(level: str) -> int:
    """Numeric rank of a level name (trace=0 ... fatal=5)."""
    return _LEVEL_RANK[level]


def render(template: str, args: tuple) -> str:
    """Substitute ``{}`` placeholders left-to-right, SLF4J style.

    Extra placeholders render as ``{}``; extra args are appended — both are
    logging bugs in the system under test, not reasons to fail a run.
    """
    parts = template.split("{}")
    out = []
    for i, part in enumerate(parts):
        out.append(part)
        if i < len(parts) - 1:
            out.append(args[i] if i < len(args) else "{}")
    if len(args) > len(parts) - 1:
        out.append(" " + " ".join(args[len(parts) - 1:]))
    return "".join(out)


#: clauses some interpreters append to a built-in exception's message and
#: others do not (3.13: an ``AttributeError`` on an object without __dict__)
_INTERPRETER_CLAUSES = (" and no __dict__ for setting new attributes",)


def render_exc(exc: BaseException) -> str:
    """``Type: message``, without the clauses only some interpreters add."""
    text = f"{type(exc).__name__}: {exc}"
    for clause in _INTERPRETER_CLAUSES:
        if text.endswith(clause):
            text = text[:-len(clause)]
    return text


class LogRecord:
    """One runtime log instance.

    The rendered ``message`` is computed lazily on first access and then
    cached: with template-identity matching (see
    :class:`repro.core.analysis.patterns.PatternIndex`) most records are
    matched straight off ``(template, location, args)`` and nobody ever
    formats them, so the emit path skips :func:`render` entirely.  Records
    built from rendered text only (foreign logs, tests) may pass
    ``message`` explicitly.

    Attributes:
        time: simulated timestamp.
        node: name of the node that emitted the record ("" outside nodes).
        component: logger name, typically the emitting module.
        level: one of :data:`LEVELS`.
        template: the literal format string from the logging statement,
            with ``{}`` placeholders (SLF4J style).  This is what offline
            log analysis turns into a log pattern.
        args: rendered (stringified) runtime values of the logged variables,
            in placeholder order.
        message: the fully rendered message (lazy, cached).
        location: ``(module, lineno)`` of the logging statement, letting the
            analysis tie a runtime instance back to its statement exactly.
        exc: rendered exception (type and message) if one was attached.
    """

    __slots__ = ("time", "node", "component", "level", "template", "args",
                 "location", "exc", "_message")

    def __init__(
        self,
        time: float,
        node: str,
        component: str,
        level: str,
        template: str,
        args: Tuple[str, ...],
        message: Optional[str] = None,
        location: Tuple[str, int] = ("?", 0),
        exc: Optional[str] = None,
    ):
        self.time = time
        self.node = node
        self.component = component
        self.level = level
        self.template = template
        self.args = args
        self.location = location
        self.exc = exc
        self._message = message

    @property
    def message(self) -> str:
        msg = self._message
        if msg is None:
            msg = self._message = render(self.template, self.args)
        return msg

    @property
    def is_error(self) -> bool:
        return _LEVEL_RANK[self.level] >= _ERROR_RANK

    def signature(self) -> Tuple[str, str, str, Optional[str]]:
        """Stable identity of *what* was logged, ignoring runtime values.

        Used by the uncommon-exception oracle to compare a test run against
        clean baseline runs.
        """
        exc_type = self.exc.split(":", 1)[0] if self.exc else None
        return (self.component, self.level, self.template, exc_type)

    def _identity(self) -> Tuple:
        # the rendered-message cache is derived state, not identity
        return (self.time, self.node, self.component, self.level,
                self.template, self.args, self.location, self.exc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (f"LogRecord(time={self.time!r}, node={self.node!r}, "
                f"component={self.component!r}, level={self.level!r}, "
                f"template={self.template!r}, args={self.args!r}, "
                f"location={self.location!r}, exc={self.exc!r})")

    def __str__(self) -> str:
        base = f"[{self.time:10.4f}] {self.node or '-'} {self.level.upper():5s} {self.component}: {self.message}"
        if self.exc:
            base += f" !{self.exc}"
        return base
