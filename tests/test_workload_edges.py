"""Edge-case tests for workload drivers and run_workload mechanics."""

import pytest

from repro.systems import all_systems, get_system, run_workload
from repro.systems.base import RunReport


def test_run_report_properties():
    base = dict(system="x", seed=0, duration=1.0, deadline=4.0, wall_seconds=0.1)
    ok = RunReport(completed=True, succeeded=True, **base)
    assert not ok.hang and not ok.job_failure
    failed = RunReport(completed=True, succeeded=False, **base)
    assert failed.job_failure and not failed.hang
    hung = RunReport(completed=False, succeeded=False, **base)
    assert hung.hang and not hung.job_failure


def test_keep_cluster_false_drops_heavy_state():
    report = run_workload(get_system("cassandra"), keep_cluster=False)
    assert report.succeeded
    assert report.cluster is None and report.log is None


def test_explicit_deadline_overrides_factor():
    report = run_workload(get_system("cassandra"), deadline=0.05)
    assert not report.completed
    assert report.deadline == 0.05
    assert report.duration == 0.05


def test_extend_continues_the_same_run_to_a_later_deadline():
    plain = run_workload(get_system("cassandra"), seed=0)
    steps = iter([0.2, 0.4, plain.deadline])
    seen = []

    def extend(report):
        seen.append((report.completed, report.duration, report.cluster))
        return next(steps)

    extended = run_workload(get_system("cassandra"), seed=0, deadline=0.05,
                            extend=extend)
    # consulted at each deadline the run missed, with the run as it stood
    # there...
    assert [(c, d) for c, d, _ in seen] == [
        (False, 0.05), (False, 0.2), (False, 0.4)]
    # ...and every time the cluster it saw was driven on: one timeline, the
    # same events a run started with the final deadline processes
    assert all(cluster is extended.cluster for _, _, cluster in seen)
    assert extended.completed and extended.deadline == plain.deadline
    assert extended.duration == plain.duration
    assert extended.cluster.loop.events_processed == \
        plain.cluster.loop.events_processed
    assert [str(r) for r in extended.log.records] == \
        [str(r) for r in plain.log.records]


def test_extend_is_consulted_until_it_declines():
    answers = [0.2, 0.4, None]
    seen = []

    def extend(report):
        seen.append(report.deadline)
        return answers[len(seen) - 1]

    report = run_workload(get_system("cassandra"), deadline=0.05, extend=extend)
    assert seen == [0.05, 0.2, 0.4]
    assert not report.completed and report.deadline == report.duration == 0.4


@pytest.mark.parametrize("answer", [0.4, 0.05, 0.01])
def test_extend_that_does_not_move_the_deadline_ends_the_extension(answer):
    # a constant-returning extend must not spin: a deadline that is not
    # strictly later than the one just reached is a decline
    seen = []

    def extend(report):
        seen.append(report.deadline)
        return answer

    report = run_workload(get_system("cassandra"), deadline=0.05, extend=extend)
    assert seen == ([0.05, 0.4] if answer == 0.4 else [0.05])
    assert report.deadline == report.duration == max(answer, 0.05)
    assert report.cluster.loop.now == report.deadline


def test_extend_may_decline_and_is_skipped_when_the_run_finishes():
    calls = []
    declined = run_workload(get_system("cassandra"), deadline=0.05,
                            extend=lambda report: calls.append(report))
    assert len(calls) == 1 and not declined.completed
    assert declined.deadline == declined.duration == 0.05
    finished = run_workload(get_system("cassandra"), extend=calls.append)
    assert len(calls) == 1 and finished.completed


def test_cooldown_extends_observation_not_duration():
    plain = run_workload(get_system("cassandra"), seed=0)
    cooled = run_workload(get_system("cassandra"), seed=0, cooldown=5.0)
    assert cooled.duration == pytest.approx(plain.duration)
    assert len(cooled.log.records) >= len(plain.log.records)


def test_before_run_hook_sees_installed_workload():
    seen = {}

    def hook(cluster, workload):
        seen["nodes"] = set(cluster.nodes)
        seen["workload"] = workload.name

    run_workload(get_system("hdfs"), before_run=hook)
    assert "client" in seen["nodes"] and "nn" in seen["nodes"]
    assert seen["workload"] == "TestDFSIO+curl"


def test_every_workload_reports_failures_when_unfinished():
    for system in all_systems():
        report = run_workload(system, deadline=0.05)
        assert not report.succeeded
        workload_failures = report.failures
        assert workload_failures, f"{system.name} reported no failure detail"


def test_scaled_workloads_have_more_work_units():
    report1 = run_workload(get_system("hdfs"), scale=1)
    report2 = run_workload(get_system("hdfs"), scale=2)
    files1 = len(report1.cluster.nodes["nn"].files.snapshot())
    files2 = len(report2.cluster.nodes["nn"].files.snapshot())
    assert files2 == 2 * files1


def test_wall_seconds_recorded():
    report = run_workload(get_system("zookeeper"))
    assert report.wall_seconds > 0
