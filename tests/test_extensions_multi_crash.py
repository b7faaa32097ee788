"""Tests for the multi-crash extension (the paper's future work)."""

from repro.bugs import matcher_for_system
from repro.core.extensions import run_multi_crash_campaign
from repro.core.extensions.multi_crash import select_pairs
from tests.conftest import prepared


def test_select_pairs_is_ordered_cross_method_and_capped():
    _, _, profile, _ = prepared("hdfs")
    pairs = select_pairs(profile.dynamic_points, max_pairs=7)
    assert 0 < len(pairs) <= 7
    for pair in pairs:
        assert pair.first is not pair.second
        assert pair.first.point.enclosing != pair.second.point.enclosing


def test_multi_crash_campaign_runs_and_chains():
    system, analysis, profile, baseline = prepared("hdfs")
    result = run_multi_crash_campaign(
        system, analysis, profile.dynamic_points,
        baseline=baseline, matcher=matcher_for_system("hdfs"), max_pairs=6,
    )
    assert result.outcomes
    for outcome in result.outcomes:
        # the second trigger can only have fired after the first
        if outcome.diagnosis.hits == 2:
            assert outcome.fired


def test_multi_crash_finds_at_least_single_crash_bugs():
    system, analysis, profile, baseline = prepared("cassandra")
    result = run_multi_crash_campaign(
        system, analysis, profile.dynamic_points,
        baseline=baseline, matcher=matcher_for_system("cassandra"), max_pairs=6,
    )
    # pairs subsume single injections when the first fault is survivable;
    # the known single-crash bug appears among the pair runs too
    assert "CA-15131" in result.detected_bugs() or result.flagged()
