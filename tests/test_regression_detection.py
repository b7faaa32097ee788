"""Regression pins: the exact detection results of the full pipeline.

The simulation is deterministic, so the set of bugs each campaign detects
is a stable artifact — any unintended change to the substrate, the
analysis, or the systems shows up here first.
"""

import pytest

from repro.bugs import seeded_bugs
from tests.conftest import reference

EXPECTED = {
    "yarn": {
        "MR-3858", "MR-7178", "TO-YARN-1", "TO-YARN-2", "YARN-5918",
        "YARN-8649", "YARN-8650", "YARN-9164", "YARN-9165", "YARN-9193",
        "YARN-9194", "YARN-9201", "YARN-9238", "YARN-9248",
    },
    "hdfs": {"HDFS-14216", "HDFS-14372", "HDFS-6231"},
    "hbase": {
        "HBASE-21740", "HBASE-22017", "HBASE-22023", "HBASE-22041",
        "HBASE-22050", "HBASE-3617", "TO-HBASE-1",
    },
    "zookeeper": set(),
    "cassandra": {"CA-15131"},
    "kube": {"kube-53647", "kube-68173"},
}


@pytest.mark.parametrize("system_name", sorted(EXPECTED))
def test_campaign_detects_exactly_the_seeded_bugs(system_name):
    assert set(reference(system_name).detected_bugs()) == EXPECTED[system_name]


def test_expected_sets_cover_every_matchable_seeded_bug():
    for system_name, expected in EXPECTED.items():
        matchable = {b.id for b in seeded_bugs(system_name) if b.matcher is not None}
        assert expected == matchable, system_name
