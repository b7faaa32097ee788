"""Mini Cassandra: gossip membership, token ring, quorum writes, hints.

Decentralized: every node is a seed, a coordinator, and a replica.  Gossip
heartbeats maintain the endpoint map; a convicted (silent for too long) or
gracefully departing endpoint is removed, which is the state CA-15131
races with.

Bug site seeded here:

* CA-15131 (pre-read InetAddressAndPort) — the coordinator builds the
  replica plan from a ring snapshot, then dereferences each endpoint's
  state; an endpoint removed in between fails the request.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster import Node, tracked_dict
from repro.cluster.ids import InetAddressAndPort
from repro.cluster.io import FileOutputStream, SimDisk
from repro.mtlog import get_logger

LOG = get_logger("cassandra.node")


class PendingRequest:
    """Coordinator-side bookkeeping for one client request."""

    def __init__(self, client: str, key: str, needed_acks: int):
        self.client = client
        self.key = key
        self.needed_acks = needed_acks
        self.acks = 0
        self.replied = False


class CassandraNode(Node):
    """One Cassandra node (they are all equal)."""

    role = "cassandra"
    critical = False
    exception_policy = "log"
    default_port = 7000

    endpoints: Dict[InetAddressAndPort, str] = tracked_dict()  # ep -> status
    store: Dict[str, str] = tracked_dict()
    hints: Dict[str, str] = tracked_dict()  # key -> value awaiting dead replica

    def __init__(self, cluster, name, peers: List[str], rf: int = 3, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.peers = [p for p in peers if p != name]
        self.rf = rf
        self.endpoint = InetAddressAndPort(self.host, self.port)
        self.convict_after = cluster.config.get("cassandra.convict_after", 2.0)
        self.disk = SimDisk()
        self._commitlog = FileOutputStream(self.disk, f"/cassandra/commitlog/{name}")
        self._last_seen: Dict[InetAddressAndPort, float] = {}
        self._pending: Dict[int, PendingRequest] = {}
        self._req_seq = 0

    # ------------------------------------------------------------------
    # gossip
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.endpoints.put(self.endpoint, "NORMAL")
        for peer in self.peers:
            ep = InetAddressAndPort(peer, self.default_port)
            self.endpoints.put(ep, "NORMAL")
            self._last_seen[ep] = self.cluster.loop.now
        LOG.info("Node {} joining ring with {} seeds", self.endpoint, len(self.peers))
        self.set_timer(0.5, self._gossip, periodic=0.5)

    def on_shutdown(self) -> None:
        for peer in self.peers:
            self.send(peer, "gossip_shutdown", endpoint=self.endpoint)

    def _gossip(self) -> None:
        for peer in self.peers:
            self.send(peer, "gossip_heartbeat", endpoint=self.endpoint)
        now = self.cluster.loop.now
        for ep, seen in list(self._last_seen.items()):
            if now - seen > self.convict_after and self.endpoints.contains(ep):
                LOG.warn("InetAddress {} is now DOWN; removing from ring", ep)
                self.endpoints.remove(ep)
                self.cluster.last_recovery = now  # a guard trip (pinned line numbers: no blank)
    def on_gossip_heartbeat(self, src: str, endpoint: InetAddressAndPort) -> None:
        self._last_seen[endpoint] = self.cluster.loop.now
        if not self.endpoints.contains(endpoint):
            LOG.info("InetAddress {} is now UP", endpoint)
            self.endpoints.put(endpoint, "NORMAL")

    def on_gossip_shutdown(self, src: str, endpoint: InetAddressAndPort) -> None:
        LOG.info("InetAddress {} announced shutdown", endpoint)
        if self.endpoints.contains(endpoint):
            self.endpoints.remove(endpoint)
        self._last_seen.pop(endpoint, None)

    # ------------------------------------------------------------------
    # the ring
    # ------------------------------------------------------------------
    @staticmethod
    def _token(value: str) -> int:
        return sum(ord(c) * (i + 7) for i, c in enumerate(value)) % 1024

    def _replica_plan(self, key: str) -> List[InetAddressAndPort]:
        ring = sorted(self.endpoints.snapshot(), key=lambda e: (self._token(str(e)), str(e)))
        if not ring:
            return []
        start = self._token(key) % len(ring)
        plan = []
        for i in range(min(self.rf, len(ring))):
            plan.append(ring[(start + i) % len(ring)])
        return plan

    # ------------------------------------------------------------------
    # coordination
    # ------------------------------------------------------------------
    def on_coordinate_write(self, src: str, key: str, value: str) -> None:
        try:
            plan = self._replica_plan(key)
            quorum = self.rf // 2 + 1
            if len(plan) < quorum:
                self.send(src, "request_error", key=key, reason="UnavailableException")
                return
            self._req_seq += 1
            req_id = self._req_seq
            self._pending[req_id] = PendingRequest(src, key, quorum)
            for ep in plan:
                # BUG:CA-15131 — the endpoint may have been removed between
                # planning and this read; the unpatched code dereferences it.
                state = self.endpoints.get(ep)
                if self.cluster.is_patched("CA-15131") and state is None:
                    LOG.warn("Endpoint {} left ring mid-request; hinting", ep)
                    self.hints.put(key, value)
                    continue
                if not state.startswith("NORMAL"):  # AttributeError when removed
                    self.hints.put(key, value)
                    continue
                self.send(ep.host, "mutate", key=key, value=value, req_id=req_id,
                          coordinator=self.name)
            self.set_timer(1.0, self._check_request, req_id)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            LOG.error("Unexpected exception during write of {}", key, exc=exc)
            self.send(src, "request_error", key=key, reason=str(exc))

    def on_mutate(self, src: str, key: str, value: str, req_id: int, coordinator: str) -> None:
        self._commitlog.write((key, value))
        self._commitlog.flush()
        self.store.put(key, value)
        self.send(coordinator, "mutate_ack", req_id=req_id)

    def on_mutate_ack(self, src: str, req_id: int) -> None:
        request = self._pending.get(req_id)
        if request is None or request.replied:
            return
        request.acks += 1
        if request.acks >= request.needed_acks:
            request.replied = True
            self.send(request.client, "write_ok", key=request.key)

    def _check_request(self, req_id: int) -> None:
        request = self._pending.pop(req_id, None)
        if request is None or request.replied:
            return
        LOG.warn("Write of {} timed out at quorum {} with {} acks",
                 request.key, request.needed_acks, request.acks)
        self.send(request.client, "request_timeout", key=request.key)

    def on_coordinate_read(self, src: str, key: str) -> None:
        try:
            plan = self._replica_plan(key)
            for ep in plan:
                state = self.endpoints.get(ep)
                if state is None or not state.startswith("NORMAL"):
                    continue
                self.send(ep.host, "read_row", key=key, client=src)
                return
            self.send(src, "request_error", key=key, reason="no live replica")
        except Exception as exc:  # noqa: BLE001
            LOG.error("Unexpected exception during read of {}", key, exc=exc)
            self.send(src, "request_error", key=key, reason=str(exc))

    def on_read_row(self, src: str, key: str, client: str) -> None:
        self.send(client, "read_ok", key=key, value=self.store.get(key))
