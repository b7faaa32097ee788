"""Tests for campaign result structures and analysis facade helpers."""

from repro.core.analysis import analysis_modules, analyze_system, cluster_hosts
from repro.systems import get_system, run_workload
from tests.conftest import campaign, prepared, reference


def test_analysis_modules_include_shared_id_records():
    names = [s.name for s in analysis_modules(get_system("cassandra"))]
    assert "repro.cluster.ids" in names
    assert "repro.systems.cassandra.node" in names


def test_cluster_hosts_exclude_clients():
    report = run_workload(get_system("hdfs"))
    hosts = cluster_hosts(report)
    assert "client" not in hosts
    assert "nn" in hosts and "node1" in hosts


def test_analysis_report_totals_consistency():
    _, analysis, _, _ = prepared("hbase")
    totals = analysis.totals()
    assert totals["meta_types"] <= totals["types"]
    assert totals["meta_fields"] <= totals["fields"]
    assert totals["meta_access_points"] <= totals["access_points"]
    assert totals["static_crash_points"] <= totals["meta_access_points"]
    assert analysis.timings["run"] > 0


def test_campaign_result_shape_and_dedup():
    result = reference("cassandra")
    assert result.system == "cassandra"
    assert len(result.outcomes) == len(prepared("cassandra")[2].dynamic_points)
    assert result.sim_seconds > 0
    detected = result.detected_bugs()
    for bug_id, outcomes in detected.items():
        assert all(bug_id in o.matched_bugs for o in outcomes)
    assert set(o.dpoint.key() for o in result.flagged()) <= {
        o.dpoint.key() for o in result.outcomes
    }


def test_campaign_is_deterministic():
    a, b = reference("cassandra"), campaign("cassandra")
    assert [(o.fired, tuple(o.matched_bugs), o.verdict.kinds())
            for o in a.outcomes] == \
        [(o.fired, tuple(o.matched_bugs), o.verdict.kinds()) for o in b.outcomes]


def test_unfired_outcomes_are_never_flagged_by_injection():
    for outcome in reference("zookeeper").outcomes:
        if not outcome.fired:
            assert outcome.injection is None


def test_baseline_mean_duration_positive():
    _, _, _, baseline = prepared("kube")
    assert baseline.mean_duration > 0
    assert baseline.runs == 5
