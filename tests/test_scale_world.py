"""Heavy-traffic worlds: the ``world_scale`` knob and its contracts.

The scale kernel (DESIGN.md "Scale kernel") grows the simulated world by
a ``world_scale`` factor: cluster width multiplies, offered load squares,
and per-node load stays constant.  These tests pin the contracts that let
the knob coexist with the determinism guarantees:

* ``world_scale=1`` builds a world byte-identical to the default
  construction (same records, same durations) for both generator systems;
* the scaled worlds actually scale (topology, jobs, rows) and still run
  their workloads to success;
* the scheduler's heap index — which only engages past
  ``yarn.sched_scan_max`` registered nodes — picks exactly the node the
  seed-scale linear scan picks, forced on at seed scale via config;
* a scaled campaign killed mid-run resumes from its journal to the same
  bug set and outcome fingerprint as an uninterrupted run.
"""

from typing import Optional

import pytest

from repro.bugs import matcher_for_system
from repro.core.analysis import analyze_system
from repro.core.injection import CampaignConfig, build_baseline, run_campaign
from repro.core.profiler import profile_system
from repro.systems import get_system, run_workload
from repro.systems.hbase.system import HBaseSystem
from repro.systems.yarn.system import YarnSystem
from tests.conftest import outcome_dicts


def _records(report):
    return [(r.time, r.node, r.level, r.message) for r in report.log.records]


# ----------------------------------------------------------------------
# world_scale=1 is the seed world, byte for byte
# ----------------------------------------------------------------------

@pytest.mark.parametrize("system_cls", [YarnSystem, HBaseSystem])
def test_world_scale_one_is_byte_identical_to_default(system_cls):
    plain = run_workload(system_cls(), seed=0, keep_cluster=True)
    scaled = run_workload(system_cls(world_scale=1), seed=0, keep_cluster=True)
    assert scaled.succeeded and plain.succeeded
    assert scaled.duration == plain.duration
    assert scaled.cluster.loop.events_processed == plain.cluster.loop.events_processed
    assert _records(scaled) == _records(plain)


def test_get_system_world_scale_dispatch():
    assert get_system("yarn", world_scale=10).world_scale == 10
    assert get_system("hbase", world_scale=4).world_scale == 4
    assert get_system("yarn").world_scale == 1
    with pytest.raises(ValueError, match="heavy-traffic"):
        get_system("zookeeper", world_scale=10)


# ----------------------------------------------------------------------
# the scaled worlds scale, and still pass their workloads
# ----------------------------------------------------------------------

def test_yarn_10x_world_topology_and_success():
    system = YarnSystem(world_scale=10)
    report = run_workload(system, seed=0, keep_cluster=True)
    assert report.completed and report.succeeded
    nms = [n for n in report.cluster.nodes.values() if n.role == "nodemanager"]
    assert len(nms) == 30  # 3 NodeManagers x world_scale
    # offered load squares: 100 jobs, each with its own AM node
    client = report.cluster.nodes["client"]
    assert len(client.submitted) == 100
    assert client.jobs_done() == 100
    assert report.cluster.loop.events_processed > 10_000


def test_hbase_scaled_world_runs_both_pe_passes():
    system = HBaseSystem(world_scale=4)
    report = run_workload(system, seed=0, keep_cluster=True)
    assert report.completed and report.succeeded
    rs = [n for n in report.cluster.nodes.values() if n.role == "regionserver"]
    assert len(rs) == 12  # 3 RegionServers x world_scale
    client = report.cluster.nodes["client"]
    assert client.status_rows == 8 * 4 * 4  # rows square with world_scale
    assert client.verified_rows == client.status_rows
    assert client.phase == 2  # the rolling-restart re-verify pass ran


# ----------------------------------------------------------------------
# the scheduler index picks what the linear scan picks
# ----------------------------------------------------------------------

def test_scheduler_index_matches_linear_scan_at_seed():
    # sched_scan_max=0 forces the indexed path for every placement; the
    # seed default never engages it.  Same seed, same world: every
    # container must land on the same host at the same time.
    scan = run_workload(YarnSystem(), seed=0, keep_cluster=True)
    indexed = run_workload(YarnSystem(), seed=0, keep_cluster=True,
                           config={"yarn.sched_scan_max": 0})
    assert scan.succeeded and indexed.succeeded
    assert indexed.duration == scan.duration

    def assignments(report):
        return [(t, m) for (t, _, _, m) in _records(report)
                if "Assigned container" in m]

    assert assignments(indexed) == assignments(scan)
    assert len(assignments(scan)) > 0


# ----------------------------------------------------------------------
# scaled campaign: kill mid-run, resume from the journal, same answer
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def prepared_10x():
    """(system, analysis, profile, baseline) for the 10x yarn world."""
    system = YarnSystem(world_scale=10)
    analysis = analyze_system(system)
    profile = profile_system(system, analysis, max_iterations=1)
    return system, analysis, profile, build_baseline(system, seeds=[0])


def _campaign_10x(prepared_10x, journal_path: Optional[str] = None):
    system, analysis, profile, baseline = prepared_10x
    cfg = CampaignConfig(journal_path=journal_path, classify_timeouts=False)
    return run_campaign(
        system, analysis, profile.dynamic_points[:3], campaign=cfg,
        baseline=baseline, matcher=matcher_for_system("yarn"),
    )


def test_scaled_campaign_profile_finds_points(prepared_10x):
    assert len(prepared_10x[2].dynamic_points) >= 3


def test_scaled_campaign_journal_kill_and_resume(tmp_path, prepared_10x):
    journal = tmp_path / "campaign10x.jsonl"

    full = _campaign_10x(prepared_10x, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    assert len(lines) == 3 + 1  # meta + one line per point

    # simulate a kill after the first completed point, mid-write of the 2nd
    journal.write_text("\n".join(lines[:2]) + "\n" + lines[2][:29])

    resumed = _campaign_10x(prepared_10x, journal_path=str(journal))
    assert resumed.resumed == 1
    assert outcome_dicts(resumed) == outcome_dicts(full)
    assert sorted(resumed.detected_bugs()) == sorted(full.detected_bugs())
