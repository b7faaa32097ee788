"""The Cluster: nodes + loop + network + logs + fault script library.

One :class:`Cluster` instance is one deployment of a system under test.
It owns the event loop, the network, the RNG and the log collector, and
exposes the two fault primitives the paper's Control Center script library
drives: :meth:`crash` (kill -9) and :meth:`shutdown` (the system's graceful
shutdown script).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import runtime
from repro.cluster.node import Node, NodeState
from repro.errors import SimulationError
from repro.mtlog import LogCollector
from repro.net.network import Network
from repro.obs.context import get_obs
from repro.sim import SimLoop, SimRandom


class Cluster:
    """A named set of nodes sharing one simulated world."""

    def __init__(self, name: str = "cluster", seed: int = 0, config: Optional[Dict[str, Any]] = None):
        self.name = name
        self.obs = get_obs()  # the ambient observability context, if any
        self.loop = SimLoop()
        self.loop.obs = self.obs
        self.random = SimRandom(seed)
        self.network = Network(self)
        self.config: Dict[str, Any] = dict(config or {})
        # The only ``log_*`` keys there ever were put the collector on a
        # disk-backed stream; both were retired in 1.8.0.  Reject them
        # rather than let a run that relied on the memory bound silently
        # hold every record.
        retired = sorted(k for k in self.config if k.startswith("log_"))
        if retired:
            raise ValueError(
                f"cluster config key(s) {retired} were removed in 1.8.0: "
                "the log collector is always in-memory"
            )
        self.log_collector = LogCollector()
        self.nodes: Dict[str, Node] = {}
        # fault bookkeeping, read by oracles and tests
        self.crashes: List[Tuple[float, str]] = []
        self.shutdowns: List[Tuple[float, str]] = []
        self.aborts: List[Tuple[float, str, BaseException]] = []
        # recovery bookkeeping, read by the injection campaign to decide
        # how long a flagged hang is worth driving (DESIGN.md "One
        # timeline"): the longest ``expiry + interval`` of any
        # LivenessMonitor built on this cluster, and the last instant a
        # guard was armed or tripped or a node died
        self.longest_guard = 0.0
        self.last_recovery = 0.0

    # ------------------------------------------------------------------
    # configuration: the "patched" switchboard for seeded bugs
    # ------------------------------------------------------------------
    def is_patched(self, bug_id: str) -> bool:
        """True if the seeded bug ``bug_id`` should behave as fixed.

        Config key ``"patched_bugs"`` is a collection of JIRA ids, or the
        string ``"all"`` to run every system with all patches applied.
        """
        patched = self.config.get("patched_bugs", ())
        if patched == "all":
            return True
        return bug_id in patched

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def node_by_address(self, address: str) -> Optional[Node]:
        """Find a node by its ``host:port`` rendering, or by bare host."""
        for node in self.nodes.values():
            if node.address == address or node.host == address:
                return node
        return None

    def hosts(self) -> List[str]:
        return list(self.nodes)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> "Cluster":
        """Install this cluster as the ambient one (see repro.runtime)."""
        runtime.activate_cluster(self)
        return self

    def deactivate(self) -> None:
        if runtime.active_cluster() is self:
            runtime.activate_cluster(None)

    def __enter__(self) -> "Cluster":
        return self.activate()

    def __exit__(self, *exc_info: Any) -> None:
        self.deactivate()

    def start_all(self) -> None:
        """Start every NEW node, in insertion order (masters first by
        convention of the system builders)."""
        for node in list(self.nodes.values()):
            node.start()

    def run(self, until: Optional[float] = None, **kwargs: Any) -> None:
        self.loop.run(until=until, **kwargs)

    # ------------------------------------------------------------------
    # the script library (paper Figure 7, line 5)
    # ------------------------------------------------------------------
    def crash(self, name: str) -> None:
        """kill -9 the node: abrupt, no announcements."""
        self.nodes[name].crash()

    def shutdown(self, name: str) -> None:
        """Run the system's graceful shutdown script on the node."""
        self.nodes[name].begin_shutdown()

    def processes_on(self, host: str) -> List[Node]:
        return [n for n in self.nodes.values() if n.host == host]

    def crash_host(self, host: str) -> List[str]:
        """Machine failure: kill every process on ``host``.

        The paper injects *node* (machine) crashes; co-located processes
        (an AM container on a NodeManager machine) die together.
        """
        killed = []
        for node in self.processes_on(host):
            if not node.is_dead():
                node.crash()
                killed.append(node.name)
        return killed

    def shutdown_host(self, host: str) -> List[str]:
        """Graceful machine departure: run every process's shutdown script."""
        stopped = []
        for node in self.processes_on(host):
            if node.state in (NodeState.STARTING, NodeState.RUNNING):
                node.begin_shutdown()
                stopped.append(node.name)
        return stopped

    # ------------------------------------------------------------------
    # fault bookkeeping
    # ------------------------------------------------------------------
    def record_crash(self, node: Node) -> None:
        self.crashes.append((self.loop.now, node.name))
        self.last_recovery = self.loop.now
        if self.obs.enabled:
            self.obs.metrics.counter("fault.crashes").inc()
            self.obs.tracer.event("fault.crash", node=node.name, host=node.host)

    def record_shutdown(self, node: Node) -> None:
        self.shutdowns.append((self.loop.now, node.name))
        self.last_recovery = self.loop.now
        if self.obs.enabled:
            self.obs.metrics.counter("fault.shutdowns").inc()
            self.obs.tracer.event("fault.shutdown", node=node.name, host=node.host)

    def record_abort(self, node: Node, cause: BaseException) -> None:
        self.aborts.append((self.loop.now, node.name, cause))
        self.last_recovery = self.loop.now
        if self.obs.enabled:
            self.obs.metrics.counter("fault.aborts").inc()
            self.obs.tracer.event(
                "fault.abort", node=node.name, cause=type(cause).__name__,
                critical=node.critical,
            )

    def critical_aborts(self) -> List[Tuple[float, str, BaseException]]:
        """Aborts of critical (master) nodes — the cluster-down symptom."""
        return [(t, n, e) for (t, n, e) in self.aborts if self.nodes[n].critical]
