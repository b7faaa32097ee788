"""The runtime meta-info graph (paper Figures 1 and 5(d)).

Vertices are runtime values extracted from matched log instances.  Values
whose text contains a configured host name are *node-referencing*; values
co-occurring in one log instance are related; every value transitively
related to a node-referencing value is meta-info and maps to that node.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: maximal alphanumeric runs — the only positions where a purely
#: alphanumeric host name can satisfy either host pattern's boundaries
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


class HostMatcher:
    """Compiled host-occurrence matching, semantics of :func:`host_in_value`.

    At 100x world scale the naive matcher is the hottest code in the
    online pipeline: it compiled two regexes per configured host for
    *every* value of every matched record.  This class keeps the exact
    decision procedure — first host in configuration order with a
    ``host:port`` occurrence wins; otherwise the first host in
    configuration order with a bare word-bounded occurrence — but

    * compiles each host's ``(port, bare)`` pattern pair once per distinct
      hosts tuple (process-wide cache), and
    * prefilters purely-alphanumeric hosts through the value's token set:
      both pattern forms require the host to appear as a maximal
      alphanumeric run, so one linear tokenization of the value replaces
      the per-host regex scans — the common record mentions no host at
      all and exits after set probes.  Hosts containing non-alphanumeric
      characters cannot be judged by tokens and always fall through to
      their compiled patterns.
    """

    _COMPILED: Dict[tuple, list] = {}

    def __init__(self, hosts: Sequence[str]):
        self.hosts = tuple(hosts)
        entry = HostMatcher._COMPILED.get(self.hosts)
        if entry is None:
            entry = []
            for host in self.hosts:
                escaped = re.escape(host)
                entry.append((
                    host,
                    re.compile(rf"(?<![A-Za-z0-9]){escaped}:\d+"),
                    re.compile(rf"(?<![A-Za-z0-9]){escaped}(?![A-Za-z0-9])"),
                    host.isalnum(),
                ))
            HostMatcher._COMPILED[self.hosts] = entry
        self._compiled = entry
        self._alnum_hosts = frozenset(c[0] for c in entry if c[3])
        self._all_alnum = len(self._alnum_hosts) == len(entry)

    def __call__(self, value: str) -> Optional[str]:
        tokens = None
        if self._all_alnum:
            tokens = set(_TOKEN_RE.findall(value))
            if not tokens & self._alnum_hosts:
                return None
        bare_match: Optional[str] = None
        for host, port_re, bare_re, is_alnum in self._compiled:
            if is_alnum:
                if tokens is None:
                    tokens = set(_TOKEN_RE.findall(value))
                if host not in tokens:
                    continue
            if port_re.search(value) is not None:
                return host
            if bare_match is None and bare_re.search(value) is not None:
                bare_match = host
        return bare_match


_MATCHERS: Dict[tuple, HostMatcher] = {}


def host_in_value(value: str, hosts: Sequence[str]) -> Optional[str]:
    """The configured host whose name occurs in ``value``.

    Matches use word boundaries (``node1`` does not match inside
    ``node10``).  A ``host:port`` occurrence — the form node addresses
    take in the systems' configuration files — wins over a bare host-name
    occurrence: an HDFS ``BPOfferService`` renders both the block pool id
    (which embeds the NameNode host) and the datanode address, and the
    address is the node the value belongs to.

    Delegates to a :class:`HostMatcher` cached per distinct hosts tuple,
    so repeat callers share the compiled patterns.
    """
    key = tuple(hosts)
    matcher = _MATCHERS.get(key)
    if matcher is None:
        matcher = _MATCHERS[key] = HostMatcher(key)
    return matcher(value)


class MetaInfoGraph:
    """Co-occurrence graph over runtime log values."""

    def __init__(self, hosts: Sequence[str]):
        self.hosts = list(hosts)
        self.node_values: Set[str] = set()  # e.g. {"node1:42349", ...}
        self.edges: Dict[str, Set[str]] = defaultdict(set)
        self._node_of: Dict[str, str] = {}

    def add_instance(self, values: Iterable[str]) -> None:
        """Relate all values of one log instance (Figure 5(c) -> 5(d))."""
        values = [v for v in (v.strip() for v in values) if v]
        for value in values:
            host = host_in_value(value, self.hosts)
            if host is not None:
                self.node_values.add(value)
                self._node_of[value] = host
        for a in values:
            for b in values:
                if a != b:
                    self.edges[a].add(b)
        # FIFO association, as the online store does (Figure 6): any value
        # co-occurring with an already-associated value inherits its node.
        known = [v for v in values if v in self._node_of]
        if known:
            host = self._node_of[known[0]]
            for value in values:
                self._node_of.setdefault(value, host)

    def finalize(self) -> None:
        """Propagate node association transitively (offline only — the
        online store is single-pass FIFO and deliberately weaker)."""
        frontier: List[str] = list(self._node_of)
        while frontier:
            value = frontier.pop()
            host = self._node_of[value]
            for neighbour in self.edges.get(value, ()):
                if neighbour not in self._node_of:
                    self._node_of[neighbour] = host
                    frontier.append(neighbour)

    # ------------------------------------------------------------------
    def node_of(self, value: str) -> Optional[str]:
        """The host a runtime value is associated with, if any."""
        if value in self._node_of:
            return self._node_of[value]
        return host_in_value(value, self.hosts)

    def is_meta_value(self, value: str) -> bool:
        return value in self._node_of

    def meta_values(self) -> Set[str]:
        return set(self._node_of)

    def to_dot(self) -> str:
        """Graphviz rendering of the high-level view (Figure 1)."""
        lines = ["graph meta_info {"]
        for value in sorted(self._node_of):
            shape = "box" if value in self.node_values else "ellipse"
            lines.append(f'  "{value}" [shape={shape}];')
        seen: Set[Tuple[str, str]] = set()
        for a, neighbours in sorted(self.edges.items()):
            for b in sorted(neighbours):
                if (b, a) in seen or a not in self._node_of or b not in self._node_of:
                    continue
                seen.add((a, b))
                lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines)
