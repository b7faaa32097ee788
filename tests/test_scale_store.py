"""Scale-store contracts: the memoized host filter.

Two guarantees from the scale kernel (DESIGN.md "Scale kernel"):

* the per-store memoized host filter is invisible — a real workload run
  feeds a memoized store and an uncached reference store byte-identical
  contents (the satellite regression pin);
* :class:`HostMatcher` implements exactly the `host_in_value` decision
  procedure, prefilter and compiled patterns notwithstanding (property
  test against a naive reimplementation).
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.meta_graph import HostMatcher, host_in_value
from repro.core.injection.online_log import OnlineLogAgent, OnlineMetaStore
from repro.systems.base import run_workload
from tests.conftest import prepared


def _naive_host_in_value(value, hosts):
    # the pre-scale-kernel reference implementation, verbatim semantics
    bare_match = None
    for host in hosts:
        escaped = re.escape(host)
        if re.search(rf"(?<![A-Za-z0-9]){escaped}:\d+", value):
            return host
        if bare_match is None and re.search(
            rf"(?<![A-Za-z0-9]){escaped}(?![A-Za-z0-9])", value
        ):
            bare_match = host
    return bare_match


class _UncachedStore(OnlineMetaStore):
    """Reference store: no memo, no compiled matcher."""

    def _host_for(self, value):
        return _naive_host_in_value(value, self.hosts)


# ---------------------------------------------------------------------------
# satellite regression: memoized == uncached on a real run, byte for byte
# ---------------------------------------------------------------------------
def test_memoized_store_byte_identical_to_uncached_on_real_yarn_run():
    system, analysis, profile, _ = prepared("yarn")
    memoized = OnlineMetaStore(analysis.hosts)
    reference = _UncachedStore(analysis.hosts)
    agents = [
        OnlineLogAgent(analysis.index, analysis.log_result.meta_slots, memoized),
        OnlineLogAgent(analysis.index, analysis.log_result.meta_slots, reference),
    ]

    def before_run(cluster, workload):
        for agent in agents:
            agent.attach(cluster.log_collector)

    run_workload(system, seed=7, before_run=before_run)
    assert memoized.size() > 0, "the run must actually exercise the store"
    assert memoized.node_set == reference.node_set
    assert memoized.value_node == reference.value_node
    # the memo actually engaged, and resolves every seen value identically
    assert memoized._host_cache
    for value in list(memoized.value_node) + sorted(memoized.node_set):
        assert memoized.query(value) == reference.query(value)


# ---------------------------------------------------------------------------
# HostMatcher == naive host_in_value, any hosts, any value
# ---------------------------------------------------------------------------
_hosts_st = st.lists(
    st.sampled_from(
        ["node1", "node2", "node10", "rm", "nn", "zk1", "node-a",
         "10.0.0.1", "host_x", "n"]
    ),
    min_size=1, max_size=6, unique=True,
)
_value_st = st.lists(
    st.sampled_from(
        ["node1", "node2", "node10", "rm", "n", ":8031", ":", " ", "[", "]",
         "-", "_", ".", "10.0.0.1", "x", "1", "host_x", "node-a"]
    ),
    min_size=0, max_size=8,
).map("".join)


@given(_hosts_st, _value_st)
@settings(max_examples=300, deadline=None)
def test_host_matcher_equals_naive_reference(hosts, value):
    assert HostMatcher(hosts)(value) == _naive_host_in_value(value, hosts)
    assert host_in_value(value, hosts) == _naive_host_in_value(value, hosts)


def test_host_matcher_port_form_beats_bare_and_respects_order():
    hosts = ["node2", "node1"]
    # node1 has the port form, node2 only the bare form: port wins even
    # though node2 comes first in configuration order
    assert HostMatcher(hosts)("node2 spoke to node1:8031") == "node1"
    # two bare forms: configuration order wins
    assert HostMatcher(hosts)("node1 and node2") == "node2"
    # word boundaries: node1 must not match inside node10
    assert HostMatcher(["node1"])("node10:42349") is None
