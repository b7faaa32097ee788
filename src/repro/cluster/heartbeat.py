"""Heartbeat and liveness-monitoring helpers.

Every master role in the five systems runs some variant of YARN's
``AbstractLivelinessMonitor``: workers ping periodically; a monitor thread
expires entries that have not pinged within a timeout and hands them to a
recovery callback (the LOST/EXPIRE path in Figures 2 and 9).  These helpers
capture that shared machinery so each system's code stays focused on its
own recovery logic — which is where the seeded bugs live.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.cluster.node import Node
from repro.mtlog import get_logger

LOG = get_logger(__name__)


class LivenessMonitor:
    """Expires registered entities that stop pinging.

    Args:
        owner: the node hosting the monitor (the master).
        expiry: seconds without a ping after which an entity is expired.
        interval: how often the monitor thread scans.
        on_expire: callback invoked (under the owner's context, from the
            monitor timer) with the expired entity's key.
    """

    def __init__(
        self,
        owner: Node,
        expiry: float,
        interval: float,
        on_expire: Callable[[Hashable], None],
        name: str = "liveness",
    ):
        self.owner = owner
        self.expiry = expiry
        self.interval = interval
        self.on_expire = on_expire
        self.name = name
        self._last_ping: Dict[Hashable, float] = {}
        self._started = False
        # the longest a registered entity can stay silent before this
        # monitor acts on it: what a flagged hang must outlive
        cluster = owner.cluster
        cluster.longest_guard = max(cluster.longest_guard, expiry + interval)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.owner.set_timer(self.interval, self._scan, periodic=self.interval)

    def register(self, key: Hashable) -> None:
        cluster = self.owner.cluster
        self._last_ping[key] = cluster.last_recovery = cluster.loop.now

    def ping(self, key: Hashable) -> None:
        if key in self._last_ping:
            self._last_ping[key] = self.owner.cluster.loop.now

    def unregister(self, key: Hashable) -> None:
        self._last_ping.pop(key, None)

    def tracked(self) -> List[Hashable]:
        return list(self._last_ping)

    def _scan(self) -> None:
        now = self.owner.cluster.loop.now
        obs = self.owner.cluster.obs
        expired = [k for k, t in self._last_ping.items() if now - t > self.expiry]
        for key in expired:
            del self._last_ping[key]
            self.owner.cluster.last_recovery = now
            LOG.info("{} monitor expired {}", self.name, key)
            if obs.enabled:
                obs.metrics.counter("cluster.heartbeats_missed").inc()
                with obs.tracer.span(f"recovery.{self.name}", key=str(key),
                                     owner=self.owner.name):
                    self.on_expire(key)
            else:
                self.on_expire(key)


class HeartbeatSender:
    """Periodic heartbeat from a worker to a master node."""

    def __init__(
        self,
        owner: Node,
        master: str,
        method: str,
        interval: float,
        payload: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.owner = owner
        self.master = master
        self.method = method
        self.interval = interval
        self.payload = payload or (lambda: {})

    def start(self) -> None:
        self.owner.set_timer(self.interval, self._beat, periodic=self.interval)

    def _beat(self) -> None:
        if not self.owner.is_running():
            return
        self.owner.send(self.master, self.method, **self.payload())
