"""Unit tests for the profiler and the injection machinery."""

import pytest

from repro.core.injection import OnlineMetaStore
from repro.core.injection.online_log import OnlineLogAgent
from repro.core.injection.oracles import Baseline, evaluate_run
from repro.core.profiler import DynamicCrashPoint, PointIndex
from repro.systems.base import RunReport
from tests.conftest import prepared

HOSTS = ["node1", "node2", "node3", "rm"]


# ---------------------------------------------------------------------------
# profiler
# ---------------------------------------------------------------------------
def test_profiler_finds_dynamic_points_with_stacks():
    _, analysis, profile, _ = prepared("yarn")
    assert profile.dynamic_points
    for dpoint in profile.dynamic_points:
        assert dpoint.stack, "every dynamic point carries a call string"
        assert len(dpoint.stack) <= 5


def test_describe_includes_full_stack():
    _, _, profile, _ = prepared("yarn")
    deep = [d for d in profile.dynamic_points if len(d.stack) >= 2]
    assert deep, "yarn profile should reach nested call strings"
    for dpoint in deep:
        text = dpoint.describe()
        for frame in dpoint.stack:
            assert frame in text
        assert " > ".join(dpoint.stack) in text


def test_profiler_discards_unexecuted_static_points():
    _, analysis, profile, _ = prepared("yarn")
    executed = {(d.point.module, d.point.lineno, d.point.op)
                for d in profile.dynamic_points}
    for point in profile.unexecuted:
        assert (point.module, point.lineno, point.op) not in executed


def test_profiler_converges_within_three_iterations():
    _, _, profile, _ = prepared("yarn")
    assert 1 <= profile.iterations <= 3


def test_point_index_matches_by_location_field_and_op():
    _, analysis, profile, _ = prepared("yarn")
    index = PointIndex(analysis.crash.crash_points)
    # every profiled point must be matchable through the index again
    assert all(d.point in analysis.crash.crash_points for d in profile.dynamic_points)


# ---------------------------------------------------------------------------
# the online store (Figure 6)
# ---------------------------------------------------------------------------
def test_store_node_values_join_hashset():
    store = OnlineMetaStore(HOSTS)
    store.process(["node3:42349"])
    assert "node3:42349" in store.node_set
    assert store.query("node3:42349") == "node3"


def test_store_associates_by_cooccurrence_fifo():
    store = OnlineMetaStore(HOSTS)
    store.process(["container_3", "node3:42349"])
    store.process(["attempt_3", "container_3"])
    assert store.query("container_3") == "node3"
    assert store.query("attempt_3") == "node3"


def test_store_discards_unassociated_values():
    store = OnlineMetaStore(HOSTS)
    store.process(["orphan_value"])
    assert store.query("orphan_value") is None
    assert store.size() == 0


def test_store_first_association_wins():
    store = OnlineMetaStore(HOSTS)
    store.process(["v", "node1:42349"])
    store.process(["v", "node2:42349"])
    assert store.query("v") == "node1"


def test_store_query_falls_back_to_host_filter():
    store = OnlineMetaStore(HOSTS)
    assert store.query("MetricsRegionServer for node2,16020,1") == "node2"
    assert store.query("completely unknown") is None


def test_agent_ships_only_meta_slots():
    from repro.core.analysis import PatternIndex
    from repro.core.analysis.logging_statements import LogStatement
    from repro.mtlog.records import LogRecord

    stmt = LogStatement("m", 1, "info", "Assigned {} on {}", ("c", "n"))
    index = PatternIndex.from_statements([stmt])
    store = OnlineMetaStore(HOSTS)
    # only slot 1 (the node) is a meta-info variable
    agent = OnlineLogAgent(index, {((stmt.module, stmt.lineno), 1)}, store)
    agent(LogRecord(1.0, "rm", "c", "info", "Assigned {} on {}",
                    ("c_1", "node1:42349"), "Assigned c_1 on node1:42349", ("m", 1)))
    assert store.query("node1:42349") == "node1"
    assert store.query("c_1") is None  # slot 0 was filtered out
    assert agent.values_shipped == 1


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
def _report(**kw) -> RunReport:
    base = dict(system="x", seed=0, completed=True, succeeded=True,
                duration=1.0, deadline=4.0, wall_seconds=0.0)
    base.update(kw)
    return RunReport(**base)


def _baseline() -> Baseline:
    return Baseline(system="x", signatures=set(), mean_duration=1.0, runs=3)


def test_oracle_clean_run_not_flagged():
    verdict = evaluate_run(_report(), _baseline())
    assert not verdict.flagged


def test_oracle_job_failure():
    verdict = evaluate_run(_report(succeeded=False), _baseline())
    assert verdict.job_failure and verdict.flagged
    assert verdict.kinds() == ["job-failure"]


def test_oracle_hang():
    verdict = evaluate_run(_report(completed=False, succeeded=False), _baseline())
    assert verdict.hang and verdict.flagged


def test_oracle_uncommon_exception_vs_baseline():
    from repro.mtlog import LogCollector
    from repro.mtlog.records import LogRecord

    log = LogCollector()
    record = LogRecord(1.0, "rm", "comp", "error", "bad {}", ("x",), "bad x",
                       ("m", 1), exc="ValueError: x")
    log.collect(record)
    verdict = evaluate_run(_report(log=log), _baseline())
    assert verdict.uncommon_exceptions
    # ... but a baseline containing the signature silences it
    seen = Baseline(system="x", signatures={record.signature()},
                    mean_duration=1.0, runs=3)
    verdict2 = evaluate_run(_report(log=log), seen)
    assert not verdict2.uncommon_exceptions


def test_oracle_critical_abort_is_cluster_down():
    verdict = evaluate_run(_report(critical_aborts=["rm:Boom"]), _baseline())
    assert verdict.critical_aborts and "cluster-down" in verdict.kinds()


# ---------------------------------------------------------------------------
# trigger matching discipline
# ---------------------------------------------------------------------------
def test_trigger_fires_exactly_once_per_run():
    from repro.bugs import matcher_for_system
    from repro.core.injection import run_one_injection
    from tests.conftest import find_dpoints

    system, analysis, profile, baseline = prepared("yarn")
    dpoint = find_dpoints(profile, "on_register_node", field="nodes", op="write")[0]
    outcome = run_one_injection(system, analysis, dpoint, baseline,
                                matcher=matcher_for_system("yarn"))
    assert outcome.fired
    assert outcome.injection is not None
    # exactly one fault injected even though registration happens 3 times
    assert outcome.diagnosis.hits == 1
    assert outcome.injection.kind in ("crash", "shutdown")


def test_fired_trigger_stops_listening():
    from repro.cluster.state import BUS
    from repro.core.injection.campaign import _arm
    from repro.core.injection.trigger import Trigger
    from repro.systems import run_workload
    from tests.conftest import find_dpoints

    system, analysis, profile, _ = prepared("yarn")
    dpoint = find_dpoints(profile, "on_register_node", field="nodes", op="write")[0]
    armed = {}

    def before_run(cluster, workload):
        _, center = _arm(cluster, analysis, wait=1.0)
        armed["trigger"] = Trigger(dpoint, center)
        armed["trigger"].install()
        assert BUS.enabled

    run_workload(system, before_run=before_run)
    trigger = armed["trigger"]
    assert trigger.fired and trigger.hits == 1
    # nobody called uninstall(): the hook came off the bus at the fire,
    # so the rest of the run emitted no access events
    assert not BUS.enabled
    trigger.uninstall()  # still safe — multi-crash's finally relies on it
