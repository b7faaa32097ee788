"""The simulated network: message delivery with latency and crash semantics.

Delivery rules (chosen to match what fault injection needs to observe):

* messages experience a small random latency drawn from a dedicated RNG
  stream, so event interleavings are realistic but deterministic per seed;
* a message already in flight when its *sender* crashes is still delivered
  (the packet left the machine);
* a message whose *destination* is not accepting (crashed, stopped, or not
  yet started) is dropped at delivery time — exactly how a TCP connection
  to a dead node fails;
* dropped deliveries are counted and traceable for tests.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.cluster.node import _ACCEPTING
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


class Network:
    """Delivers messages between the nodes of one cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        min_latency: float = 0.0005,
        max_latency: float = 0.0020,
    ):
        self.cluster = cluster
        self.min_latency = min_latency
        self.max_latency = max_latency
        self._obs = cluster.obs
        self._rng = cluster.random.stream("network-latency")
        self.delivered = 0
        self.dropped: List[Tuple[str, str]] = []  # (dst, method) of drops
        # Per-connection FIFO: like TCP, two messages on the same (src, dst)
        # channel never reorder, while different channels race freely.
        self._last_delivery: dict = {}

    def send(self, src: str, dst: str, method: str, **payload: Any) -> Message:
        """Queue a message for delivery after a latency delay."""
        loop = self.cluster.loop
        now = loop._now
        msg = Message(src=src, dst=dst, method=method, payload=payload,
                      send_time=now)
        if self._obs.enabled:
            self._obs.metrics.counter("net.rpcs_sent").inc()
        # what random.uniform computes, without its call
        lo = self.min_latency
        deliver_at = now + (lo + (self.max_latency - lo) * self._rng.random())
        channel = (src, dst)
        floor = self._last_delivery.get(channel, 0.0)
        if deliver_at <= floor:
            deliver_at = floor + 1e-9
        self._last_delivery[channel] = deliver_at
        loop.schedule_at(deliver_at, partial(self._deliver, msg),
                         owner=dst, kind="message")
        return msg

    def in_flight(self, src: str, dst: str) -> bool:
        """Whether a message ``src`` sent to ``dst`` is undelivered (read
        between events: the channel's FIFO floor is its last delivery)."""
        return self._last_delivery.get((src, dst), 0.0) > self.cluster.loop.now

    def _deliver(self, msg: Message) -> None:
        obs = self._obs
        node = self.cluster.nodes.get(msg.dst)
        if node is None or node.state not in _ACCEPTING:
            self.dropped.append((msg.dst, msg.method))
            if obs.enabled:
                obs.metrics.counter("net.rpcs_dropped").inc()
                obs.tracer.event("rpc.drop", src=msg.src, dst=msg.dst,
                                 method=msg.method)
            return
        self.delivered += 1
        if obs.enabled:
            obs.metrics.counter("net.rpcs_delivered").inc()
            with obs.tracer.span("rpc", src=msg.src, dst=msg.dst,
                                 method=msg.method):
                node.dispatch_message(msg)
        else:
            node.dispatch_message(msg)

    def broadcast(self, src: str, dsts: List[str], method: str, **payload: Any) -> None:
        for dst in dsts:
            self.send(src, dst, method, **payload)
