"""Online log analysis (paper Sections 3.2.1 and 3.3, Figure 6).

A light-weight agent tails every node's log stream (the Logstash role),
extracts only the runtime values of known meta-info variables (the filter
derived from offline analysis), and maintains the store of Figure 6:

* a HashSet of node values (values matching a configured host), and
* a HashMap associating every other meta-info value to a node, built in
  FIFO order from co-occurrence in single log instances.

The agent sits on the simulator's hottest path — it is called for every
record of every injection run — so it early-outs on the per-agent set of
*interesting templates* (statements with at least one meta slot) before
touching the index or the store, and resolves the rest by template
identity (``record.args`` are the slot values; no rendering, no regex)
unless :func:`~repro.core.analysis.patterns.fast_lane` forces the
paper-faithful rendered-text path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.analysis.log_analysis import SlotKey
from repro.core.analysis.meta_graph import HostMatcher
from repro.core.analysis.patterns import PatternIndex, fast_lane_enabled
from repro.mtlog import LogCollector
from repro.mtlog.records import LogRecord
from repro.obs.context import get_obs

#: cache-miss sentinel — ``None`` is a legitimate (and common) cached result
_MISS = object()


class OnlineMetaStore:
    """The custom stash: HashSet of nodes + HashMap value -> node.

    Values are normalized (whitespace-stripped) exactly once, at the
    store's public boundary: :meth:`process` normalizes an instance's
    values on entry, and :meth:`query` normalizes the probe it receives
    from the trigger.  Everything held in ``node_set`` / ``value_node``
    is therefore already normalized — no internal path re-strips.

    Scale kernel (DESIGN.md): the host filter is memoized per store,
    keyed on the normalized value — ``hosts`` is construction-fixed, so
    the filter is a pure function of the value and heavy-traffic runs
    that re-log the same ids by the thousand resolve them with one dict
    probe.  ``value_node`` is a plain dict at every world size.
    """

    def __init__(self, hosts: Sequence[str]):
        self.hosts = list(hosts)
        self.node_set: Set[str] = set()
        self.value_node: Dict[str, str] = {}
        self._matcher = HostMatcher(self.hosts)
        self._host_cache: Dict[str, Optional[str]] = {}

    @staticmethod
    def normalize(value: str) -> str:
        """The store's single normalization: strip surrounding whitespace."""
        return value.strip()

    def _host_for(self, value: str) -> Optional[str]:
        """Memoized host filter over an already-normalized value."""
        cached = self._host_cache.get(value, _MISS)
        if cached is not _MISS:
            return cached
        host = self._host_cache[value] = self._matcher(value)
        return host

    def process(self, values: Iterable[str]) -> None:
        """Process one instance's meta-info values in FIFO order."""
        values = [v for v in (self.normalize(v) for v in values) if v]
        value_node = self.value_node
        for value in values:
            host = self._host_for(value)
            if host is not None:
                self.node_set.add(value)
                value_node.setdefault(value, host)
        anchor: Optional[str] = None
        for value in values:
            anchor = value_node.get(value)
            if anchor is not None:
                break
        if anchor is None:
            return  # values unassociated to any node are discarded
        for value in values:
            value_node.setdefault(value, anchor)

    def query(self, value: str) -> Optional[str]:
        """The host to crash for a runtime meta-info value, if known."""
        value = self.normalize(value)
        host = self.value_node.get(value)
        if host is not None:
            return host
        # toString() forms often embed the node id directly
        # (DatanodeInfoWithStorage[node2:9866,...]): fall back to the same
        # host filter the node set uses.
        return self._host_for(value)

    def size(self) -> int:
        return len(self.value_node)


class OnlineLogAgent:
    """Subscribes to the cluster's log stream and feeds the store.

    The filter: only the (pattern, slot) pairs that offline analysis found
    to be meta-info variables are extracted and shipped (Section 3.2.1,
    "only the runtime values of meta-info variables are sent out").
    """

    def __init__(
        self,
        index: PatternIndex,
        meta_slots: Set[SlotKey],
        store: OnlineMetaStore,
    ):
        self.index = index
        self.meta_slots = meta_slots
        self.store = store
        self.records_seen = 0
        self.values_shipped = 0
        self._obs = get_obs()
        # Precomputed early-out: the templates of statements with at least
        # one meta slot.  A record whose template is not here can never
        # ship a value, so the fast lane drops it after one set probe —
        # the vast majority of records, since meta statements are a small
        # fraction of a system's logging vocabulary.
        meta_keys = {key for key, _slot in meta_slots}
        self._interesting_templates: Set[str] = {
            pattern.template
            for pattern in index.patterns
            if pattern.statement.key() in meta_keys
        }

    def __call__(self, record: LogRecord) -> None:
        self.records_seen += 1
        if fast_lane_enabled() and record.template not in self._interesting_templates:
            return
        hit = self.index.match_record(record)
        if hit is None:
            return
        pattern, values = hit
        key = pattern.statement.key()
        shipped: List[str] = []
        for slot, value in enumerate(values):
            if (key, slot) in self.meta_slots:
                shipped.append(value)
        if not shipped:
            return
        self.values_shipped += len(shipped)
        self.store.process(shipped)
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("onlinelog.values_shipped").inc(len(shipped))
            metrics.gauge("onlinelog.store_size").set(self.store.size())
            metrics.gauge("onlinelog.node_set_size").set(len(self.store.node_set))

    def attach(self, collector: LogCollector) -> None:
        collector.subscribe(self)
        # replay anything logged before the agent attached
        for record in collector.records:
            self(record)
