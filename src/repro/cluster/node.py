"""Node base class: lifecycle, message dispatch, timers, exception policy.

A :class:`Node` is one simulated machine/process.  Subclasses (the roles of
the five systems under test) implement ``on_start``, ``on_shutdown`` and
``on_<method>`` message handlers.  All handler execution flows through
:meth:`Node._enter`, which:

* tags the ambient runtime context so logs and access events attribute to
  this node;
* applies the node's **exception policy** — the paper's bug symptoms
  ("cluster down", "startup failure", "abort") come from how the real
  daemons react to unhandled exceptions: masters typically abort the whole
  process, workers log and limp on.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro import runtime
from repro.cluster.ids import NodeId
from repro.errors import NodeCrashedError
from repro.mtlog import get_logger
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.net.message import Message

_LIFECYCLE_LOG = get_logger("repro.cluster.lifecycle")


class NodeState(enum.Enum):
    NEW = "new"
    STARTING = "starting"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting_down"
    STOPPED = "stopped"
    CRASHED = "crashed"
    ABORTED = "aborted"


#: states in which the process exists and can receive RPCs
_ACCEPTING = (NodeState.STARTING, NodeState.RUNNING, NodeState.SHUTTING_DOWN)
#: terminal states
_DEAD = (NodeState.STOPPED, NodeState.CRASHED, NodeState.ABORTED)


class Node:
    """One simulated process on one simulated machine."""

    #: human-readable role ("resourcemanager", "datanode", ...)
    role: str = "node"
    #: "abort" (unhandled handler exception kills the process — master
    #: daemons) or "log" (logged and tolerated — worker daemons)
    exception_policy: str = "abort"
    #: aborting a critical node is a cluster-down symptom
    critical: bool = False
    #: default RPC port for the role, overridable per instance
    default_port: int = 42349

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        port: Optional[int] = None,
        host: Optional[str] = None,
    ):
        self.cluster = cluster
        self.name = name
        # A node is a *process*; several processes can share a machine
        # (host) — e.g. an ApplicationMaster container on a NodeManager's
        # machine.  Faults are machine-level, per the paper.
        self.host = host if host is not None else name
        self.port = port if port is not None else self.default_port
        self.node_id = NodeId(self.host, self.port)
        self.state = NodeState.NEW
        cluster.add_node(self)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return str(self.node_id)

    def is_running(self) -> bool:
        return self.state is NodeState.RUNNING

    def is_dead(self) -> bool:
        return self.state in _DEAD

    def accepting_messages(self) -> bool:
        return self.state in _ACCEPTING

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the process: run ``on_start`` under this node's context."""
        if self.state is not NodeState.NEW:
            return
        self.state = NodeState.STARTING
        _LIFECYCLE_LOG.info("Starting {} on {}", self.role, self.node_id)
        self._enter(self.on_start)
        if self.state is NodeState.STARTING:
            self.state = NodeState.RUNNING

    def crash(self) -> None:
        """Abrupt process kill: pending timers and undelivered messages die."""
        if self.is_dead():
            return
        self.state = NodeState.CRASHED
        self.cluster.loop.cancel_owned_by(self.name)
        self.cluster.record_crash(self)

    def begin_shutdown(self) -> None:
        """Graceful shutdown script: announce departure, then stop.

        This is the paper's "shutdown script" used at pre-read points so
        the cluster learns of the departure without waiting for a liveness
        timeout (Section 2.1).
        """
        if self.state not in (NodeState.STARTING, NodeState.RUNNING):
            return
        self.state = NodeState.SHUTTING_DOWN
        _LIFECYCLE_LOG.info("Shutting down {} on {}", self.role, self.node_id)
        self._enter(self.on_shutdown)
        self.cluster.loop.schedule(0.01, self._finish_shutdown, owner=self.name, kind="timer")

    def _finish_shutdown(self) -> None:
        if self.state is NodeState.SHUTTING_DOWN:
            self.state = NodeState.STOPPED
            self.cluster.loop.cancel_owned_by(self.name)
            self.cluster.record_shutdown(self)

    def abort(self, cause: BaseException) -> None:
        """The process dies on an unhandled exception."""
        self.state = NodeState.ABORTED
        self.cluster.loop.cancel_owned_by(self.name)
        self.cluster.record_abort(self, cause)

    # hooks for subclasses ------------------------------------------------
    def on_start(self) -> None:
        """Role bring-up: register with masters, start timers."""

    def on_shutdown(self) -> None:
        """Role announce-departure: unregister RPCs go here."""

    # ------------------------------------------------------------------
    # messaging and timers
    # ------------------------------------------------------------------
    def send(self, dst: str, method: str, **payload: Any) -> None:
        """Send an RPC to the node named ``dst``."""
        self.cluster.network.send(self.name, dst, method, **payload)

    def dispatch_message(self, msg: "Message") -> None:
        handler = getattr(self, f"on_{msg.method}", None)
        if handler is None:
            _LIFECYCLE_LOG.warn("No handler for {} on {}", msg.method, self.name)
            return
        self._enter(handler, msg.src, **msg.payload)

    def set_timer(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        periodic: Optional[float] = None,
    ) -> Event:
        """Run ``fn`` under this node's context after ``delay`` seconds.

        With ``periodic=interval`` the timer re-arms while the node runs.
        Timers are owned by the node: a crash or stop cancels them.
        """

        def fire() -> None:
            if self.state in _DEAD:
                return
            self._enter(fn, *args)
            if periodic is not None and self.state not in _DEAD:
                # a fresh closure each period: one that rescheduled itself
                # would be a cycle, left to pile up while a run pauses gc
                self.set_timer(periodic, fn, *args, periodic=periodic)

        return self.cluster.loop.schedule(delay, fire, owner=self.name, kind="timer")

    # ------------------------------------------------------------------
    # execution context + exception policy
    # ------------------------------------------------------------------
    def _enter(self, fn: Callable[..., None], *args: Any, **kwargs: Any) -> None:
        if self.state in _DEAD:
            return
        # runtime.push_node / pop_node, inlined: this brackets every handler
        stack = runtime._node_stack
        stack.append(self.name)
        try:
            fn(*args, **kwargs)
        except NodeCrashedError as crash:
            if crash.node_name != self.name:
                raise  # not ours: propagate to the loop (defensive)
        except Exception as exc:  # noqa: BLE001 - policy applied below
            self._handle_handler_exception(exc)
        finally:
            if stack:
                stack.pop()

    def _handle_handler_exception(self, exc: BaseException) -> None:
        if self.exception_policy == "abort":
            _LIFECYCLE_LOG.fatal(
                "Unhandled exception in {}; aborting process {}", self.role, self.node_id, exc=exc
            )
            self.abort(exc)
        else:
            _LIFECYCLE_LOG.error(
                "Unhandled exception in {} handler on {}", self.role, self.node_id, exc=exc
            )
