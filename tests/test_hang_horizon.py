"""The hang horizon against its oracle, the flat 400x run.

A flagged hang is driven until the system has outlived every wait it
configured (DESIGN.md "One timeline"); before 1.16.0 it was driven to a
flat ``400 x base_runtime``.  The flat run lives on here, as the oracle:
with every ``recovery_horizon`` patched to infinity the horizon is the
400x cap, and each cell below holds the shipped run's ``outcome_digest``
to it — at seeds 1-3 through the pins, which are its digests.  What the
flat run completes, the horizon must complete — so a wait left out of a
declaration shows up as a ``timeout`` turned ``hang``.

The flat run also judges no run doomed (``Workload.doomed``): a run the
shipped campaign stops at its deadline because it can no longer finish
must not complete by the cap either, or the digests part.

``python -m tests.test_hang_horizon`` (CI's ``hang-horizon`` step) prints
the same comparison for six systems x seeds 0-7, yarn and hbase (the
workloads that declare ``doomed``) on to seed 15, and yarn's 10x world.
"""

import ast
import contextlib
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CampaignConfig,
    Observability,
    build_baseline,
    get_system,
    matcher_for_system,
    outcome_digest,
    run_campaign,
    run_workload,
)
from repro.cluster import Cluster, LivenessMonitor, Node
from repro.core.injection import run_one_injection
from repro.core.injection.campaign import EXTENDED_FACTOR, _Judge
from repro.mtlog import LogCollector
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.hbase.client import PEWorkload
from tests.conftest import PINS, prepared, reference

SYSTEMS = ("yarn", "hbase", "hdfs", "kube", "cassandra", "zookeeper")
#: the systems whose workload declares when its run can no longer finish
DOOMABLE = ("yarn", "hbase")


@contextlib.contextmanager
def flat_horizon():
    """The pre-1.16.0 run: every flagged hang is driven to the 400x cap."""
    with contextlib.ExitStack() as stack:
        for name in SYSTEMS:
            stack.enter_context(mock.patch.object(
                type(get_system(name)), "recovery_horizon",
                lambda self, config: math.inf))
        for name in DOOMABLE:
            stack.enter_context(mock.patch.object(
                type(get_system(name).create_workload()), "doomed",
                Workload.doomed))
        yield


@contextlib.contextmanager
def counting_stops(name):
    """Yield a list that gets the simulated time of every run ``name``'s
    ``doomed`` stops (the flat run's: none)."""
    workload = type(get_system(name).create_workload())
    doomed, stops = workload.doomed, []

    def counted(self, cluster):
        answer = doomed(self, cluster)
        if answer:
            stops.append(cluster.loop.now)
        return answer

    with mock.patch.object(workload, "doomed", counted):
        yield stops


@pytest.fixture
def flat():
    with flat_horizon():
        yield


def _setup(name, seed):
    """Phase 1 at ``seed``, shared with the session."""
    return prepared(name, seed=seed)[1:]


def run(name, seed=0, config=None, points=None, observed=False,
        world_scale=1):
    """One campaign's row: what the two arms of a cell are compared on, and
    (observed, for the extension's length) what the CI sweep prints.  A
    ``world_scale`` world is injected at the seed world's points."""
    analysis, profile, baseline = _setup(name, seed)
    system = get_system(name, world_scale=world_scale)
    if world_scale > 1:
        baseline = build_baseline(system, config=config)
    with counting_stops(name) as stops:
        result = run_campaign(
            system, analysis,
            profile.dynamic_points if points is None else points,
            campaign=CampaignConfig(seed=seed), config=config,
            baseline=baseline, matcher=matcher_for_system(name),
            obs=Observability() if observed else None)
    row = {
        "digest": outcome_digest(result.outcomes),
        "hangs": sum(o.verdict.hang for o in result.outcomes),
        "timeouts": sum(o.verdict.timeout_issue for o in result.outcomes),
        "stopped": len(stops),
    }
    if observed:
        row["extension_sim_s"] = result.metrics["counters"].get(
            "campaign.extension_sim_seconds", 0)
    return row


def hang_points(name):
    """The seed-0 points whose run is unfinished at its 4x deadline: the
    only runs the horizon can touch."""
    return [o.dpoint for o in reference(name).outcomes
            if o.verdict.hang or o.verdict.timeout_issue]


def assert_same_as_flat(name, seed=0, config=None, points=None):
    shipped = run(name, seed, config, points)
    with flat_horizon():
        oracle = run(name, seed, config, points)
    assert dict(shipped, stopped=0) == oracle
    return shipped


# ---------------------------------------------------------------------------
# differential: the shipped run against the flat run
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", SYSTEMS)
def test_seed_campaign_equals_the_flat_run_and_the_pin(name, flat):
    oracle = run(name)
    assert oracle["digest"] == PINS[name][0]
    assert outcome_digest(reference(name).outcomes) == PINS[name][0]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["yarn", "hbase", "kube"])
def test_other_seeds_equal_the_flat_run(name, seed):
    # the pin is the flat run's digest (the CI step runs it live)
    assert outcome_digest(reference(name, seed=seed).outcomes) == PINS[name][seed]


#: guards and retry budgets moved well off their defaults, on the points
#: that hang at seed 0; value = the timeouts the flat run finds (None:
#: whatever it finds)
PERTURBATIONS = [
    ("yarn", {"yarn.am_launch_expiry": 50}, None),
    ("yarn", {"yarn.am_launch_expiry": 100}, None),
    ("yarn", {"yarn.am_launch_expiry": 1500}, None),
    ("yarn", {"yarn.max_fetch_retries": 5}, None),
    ("yarn", {"yarn.max_fetch_retries": 40}, None),
    ("yarn", {"yarn.max_app_attempts": 5, "yarn.am_launch_expiry": 200}, None),
    ("hbase", {"hbase.assign_timeout": 30}, None),
    ("hbase", {"hbase.assign_timeout": 60}, None),
    ("hbase", {"hbase.assign_timeout": 1200}, None),
    ("hbase", {"hbase.client_retries": 10}, None),
    ("hbase", {"hbase.client_retries": 150}, None),
    # the probe for the client budget: a fourth run completes, when the
    # client gives up after 800 s — beyond every guard
    ("hbase", {"hbase.client_retries": 400}, 4),
]


@pytest.mark.parametrize(
    "name, config, timeouts", PERTURBATIONS,
    ids=[",".join(f"{k}={v}" for k, v in c.items()) for _, c, _ in PERTURBATIONS])
def test_perturbed_guards_equal_the_flat_run(name, config, timeouts):
    shipped = assert_same_as_flat(name, config=config, points=hang_points(name))
    if timeouts is not None:
        assert shipped["timeouts"] == timeouts


#: a guard stretched past the 4x deadline turns a recovery into a timeout
#: issue on the systems whose campaigns cost milliseconds
_CHEAP = {
    "kube": {"kube.node_expiry": st.sampled_from([0.5, 2.0, 11.0, 20.0, 45.0])},
    "hdfs": {"hdfs.dn_expiry": st.sampled_from([1.0, 19.5, 40.0]),
             "hdfs.write_retries": st.integers(0, 12),
             "hdfs.read_retries": st.integers(0, 12)},
    "cassandra": {"cassandra.convict_after": st.sampled_from([1.0, 19.5, 40.0]),
                  "cassandra.client_retries": st.integers(0, 30)},
    "zookeeper": {"zk.session_expiry": st.sampled_from([1.0, 15.5, 40.0]),
                  "zk.peer_expiry": st.sampled_from([0.5, 15.5, 40.0]),
                  "zk.client_retries": st.integers(0, 30)},
}


@st.composite
def _cheap_cells(draw):
    name = draw(st.sampled_from(sorted(_CHEAP)))
    config = {key: draw(values) for key, values in _CHEAP[name].items()
              if draw(st.booleans())}
    n_points = len(prepared(name)[2].dynamic_points)
    picks = draw(st.lists(st.integers(0, n_points - 1), min_size=1, max_size=5))
    return name, config, picks


@given(_cheap_cells())
@settings(max_examples=30, deadline=None)
def test_generated_points_and_guards_equal_the_flat_run(cell):
    name, config, picks = cell
    points = prepared(name)[2].dynamic_points
    assert_same_as_flat(name, config=config, points=[points[i] for i in picks])


# ---------------------------------------------------------------------------
# the declarations are complete
# ---------------------------------------------------------------------------
_SOURCES = Path(__file__).parent.parent / "src" / "repro" / "systems"
_READ = re.compile(r'\b(?:config|cfg)\.get\(\s*"([^"]+)"\s*,\s*([^,)]+)')
_WAITISH = re.compile(
    r"expiry|timeout|retries|retry|interval|limit|convict"
    r"|heartbeat|ping|delay|duration|max")

#: config keys that look like a wait and are not one, with the decision
NOT_A_WAIT = {
    "yarn.nm_heartbeat": "a sender's period; the wait is the monitor's expiry",
    "hdfs.dn_heartbeat": "a sender's period; the wait is the monitor's expiry",
    "kube.heartbeat": "a sender's period; the wait is the monitor's expiry",
    "hbase.rs_session_ping": "a sender's period; the wait is the session expiry",
    "yarn.sched_scan_max": "a cluster-size threshold, not a time",
    "yarn.max_app_attempts": "each attempt registers with AMLaunchMonitor, "
                             "which re-arms the horizon",
    "yarn.am_spawn_delay": "service time of every clean run (base_runtime)",
    "yarn.map_duration": "service time of every clean run (base_runtime)",
    "yarn.reduce_duration": "service time of every clean run (base_runtime)",
    "yarn.commit_duration": "service time of every clean run (base_runtime)",
    "hdfs.block_write_delay": "service time of every clean run (base_runtime)",
}


def _config_reads(name, declaration=None):
    """``{key: default}`` of every waitish config read in a system's code
    (``declaration``: only in — True — or only outside ``system.py``)."""
    reads = {}
    for path in sorted((_SOURCES / name).glob("*.py")):
        if declaration in (None, path.name == "system.py"):
            for key, default in _READ.findall(path.read_text()):
                if _WAITISH.search(key.split(".", 1)[1]):
                    reads[key] = default.strip()
    return reads


def _wait(name, config):
    """What a flagged hang on ``name`` must outlive under ``config``."""
    system = get_system(name)
    return max(system.build(config=config).longest_guard,
               system.recovery_horizon(config))


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_configured_wait_is_declared_or_decided(name):
    reads = _config_reads(name)
    assert reads, f"no config read found under {_SOURCES / name}"
    default_wait = _wait(name, {})
    for key, default in reads.items():
        try:
            stretched = {key: ast.literal_eval(default) * 10_000}
        except ValueError:  # a named constant: never a duration
            assert key in NOT_A_WAIT, f"{key} defaults to {default}: decide"
            continue
        moved = _wait(name, stretched) != default_wait
        if key in NOT_A_WAIT:
            assert not moved, f"{key} moves the horizon: it is a wait"
        else:
            assert moved, (
                f"{key} is read by {name} and looks like a wait, but neither "
                f"a LivenessMonitor nor {name}'s recovery_horizon follows it: "
                f"declare it there, or list it in NOT_A_WAIT with the reason")


@pytest.mark.parametrize("name", [n for n in SYSTEMS if n != "kube"])
def test_a_declaration_follows_only_keys_the_code_reads(name):
    # (kube's nodes and its declaration share one module)
    declared = _config_reads(name, declaration=True)
    assert declared and declared.items() <= _config_reads(
        name, declaration=False).items()


def test_not_a_wait_lists_only_keys_the_code_reads():
    read = set().union(*(_config_reads(name) for name in SYSTEMS))
    assert set(NOT_A_WAIT) <= read


@pytest.mark.parametrize("name", SYSTEMS)
def test_longest_guard_is_the_longest_monitor_the_cluster_holds(name):
    cluster = get_system(name).build()
    monitors = [value for node in cluster.nodes.values()
                for value in vars(node).values()
                if isinstance(value, LivenessMonitor)]
    assert cluster.longest_guard == max(
        (m.expiry + m.interval for m in monitors), default=0.0)
    assert cluster.last_recovery == 0.0


def test_recovery_horizon_cannot_be_inherited():
    class Undeclared(type(get_system("kube"))):
        recovery_horizon = SystemUnderTest.recovery_horizon

    assert "recovery_horizon" in SystemUnderTest.__abstractmethods__
    with pytest.raises(TypeError, match="recovery_horizon"):
        Undeclared()


# ---------------------------------------------------------------------------
# what re-arms the horizon: a toy lease service
# ---------------------------------------------------------------------------
class _LeaseMaster(Node):
    """Takes a lease at ``acquire_at`` that nobody renews; ``settle``
    seconds after the monitor expires it, the lease is released."""

    role = "master"

    def __init__(self, cluster, name, expiry, acquire_at=1e9, settle=0.0):
        super().__init__(cluster, name)
        self.acquire_at, self.settle = acquire_at, settle
        self.released = False
        self.leases = LivenessMonitor(self, expiry, 1.0, self._expired)

    def on_start(self):
        self.leases.start()
        self.set_timer(self.acquire_at, self.leases.register, "lease")

    def _expired(self, key):
        self.set_timer(self.settle, setattr, self, "released", True)


class _LeaseWorkload(Workload):
    """Waits for the release."""

    def install(self, cluster):
        pass

    def finished(self, cluster):
        return cluster.node("master").released

    succeeded = finished


class _LeaseSystem(SystemUnderTest):
    name = "lease"

    def __init__(self, **lease):
        self.lease = lease

    def build(self, seed=0, config=None):
        cluster = Cluster("lease", seed=seed, config=config)
        _LeaseMaster(cluster, "master", **self.lease)
        return cluster

    def create_workload(self, scale=1):
        return _LeaseWorkload()

    def source_modules(self):
        return []

    def base_runtime(self):
        return 2.5  # a 10 s budget

    def recovery_horizon(self, config):
        return 0.0


def _extended(**lease):
    """Drive a lease system as a flagged hang's run is: a judge already
    past its first consultation answers the seam."""
    system = _LeaseSystem(**lease)
    judge = _Judge(system, SimpleNamespace(scale=1), None, CampaignConfig(), None)
    judge.outcome, judge.budget = object(), 10.0
    seen = []

    def extend(report):
        seen.append(report.deadline)
        return judge.at_deadline(report)

    return run_workload(system, extend=extend), seen


def test_a_hang_ends_once_the_system_outlived_its_guards():
    # never acquired: nothing is armed, so one guard + one budget decides
    report, seen = _extended(expiry=50.0)
    assert seen == [10.0, 10.0 + 51.0 + 10.0]
    assert not report.completed and report.duration == 71.0


def test_a_guard_armed_after_the_deadline_rearms_the_horizon():
    # taken 30 s after the deadline and expired 51 s later, at 91: beyond
    # 71, where the judge finds the guard armed at 40 and grants 101
    report, seen = _extended(expiry=50.0, acquire_at=40.0)
    assert seen == [10.0, 71.0]
    assert report.completed and report.duration == 91.0


def test_a_trip_gets_one_ordinary_budget_to_finish_what_it_started():
    # taken at 9, the expiry lands exactly on the scan at 12 (3 s is not
    # *more* than 3 s), so the trip is the scan at 13 — and the release it
    # sets in motion takes 8 s more, twice the guard: the trailing budget
    report, seen = _extended(expiry=3.0, acquire_at=9.0, settle=8.0)
    assert seen == [10.0]  # granted 10 + 4 + 10
    assert report.completed and report.duration == 21.0


def test_the_horizon_never_exceeds_the_cap():
    cap = 2.5 * EXTENDED_FACTOR
    report, seen = _extended(expiry=5000.0, acquire_at=1.0)
    assert seen == [10.0, cap]
    assert not report.completed and report.duration == cap


def test_monitor_stamps_recovery_when_armed_and_tripped_not_when_pinged():
    cluster = Cluster("stamps")
    master = _LeaseMaster(cluster, "master", expiry=3.0, acquire_at=2.0)
    assert cluster.longest_guard == 4.0
    cluster.start_all()
    cluster.run(until=4.0)
    assert cluster.last_recovery == 2.0
    master.leases.ping("lease")
    assert cluster.last_recovery == 2.0
    cluster.run(until=20.0)
    assert master.released and cluster.last_recovery == 8.0
    master.crash()
    assert cluster.last_recovery == 20.0


def test_a_peer_ping_that_drops_a_dead_peer_stamps_recovery():
    from repro.systems.zookeeper.server import ZKServer

    cluster = Cluster("zk-stamps")
    server = ZKServer(cluster, "zk1", sid=1, peers=[])
    server._last_peer_seen.update({2: 0.0, 3: 0.9})
    cluster.run(until=1.0)
    server._peer_ping()  # both peers are inside the 1.5 s expiry
    assert cluster.last_recovery == 0.0 and set(server._last_peer_seen) == {2, 3}
    cluster.run(until=2.0)
    server._peer_ping()
    assert cluster.last_recovery == 2.0 and set(server._last_peer_seen) == {3}


def test_a_gossip_round_that_convicts_stamps_recovery():
    from repro.cluster.ids import InetAddressAndPort
    from repro.systems.cassandra.node import CassandraNode

    cluster = Cluster("cassandra-stamps")
    node = CassandraNode(cluster, "ca1", peers=[])
    silent = InetAddressAndPort("ca2", 7000)
    node.endpoints.put(silent, "NORMAL")
    node._last_seen[silent] = 0.0
    cluster.run(until=1.5)
    node._gossip()  # inside the 2 s conviction window
    assert cluster.last_recovery == 0.0 and node.endpoints.contains(silent)
    cluster.run(until=2.5)
    node._gossip()
    assert cluster.last_recovery == 2.5 and not node.endpoints.contains(silent)


def test_a_chore_that_force_reassigns_stamps_recovery(monkeypatch):
    # hbase seed 1: with RegionServer.metrics' putfield crashed, the
    # assignment chore force-reassigns a stuck region every 610 s; each
    # reassign is a trip, so the horizon follows it to the completion
    from repro.systems.hbase.master import META_REGION, HMaster

    system, analysis, profile, baseline = prepared("hbase", seed=1)
    (dpoint,) = [d for d in profile.dynamic_points
                 if d.point.field_name == "metrics" and d.point.op == "write"]
    trips = []
    chore = HMaster._assignment_chore

    def observed_chore(self):
        now = self.cluster.loop.now
        tripped = any(now - since > self.assign_timeout and region != META_REGION
                      for region, since in self._transition_since.items())
        chore(self)
        if tripped:
            trips.append((now, self.cluster.last_recovery))

    monkeypatch.setattr(HMaster, "_assignment_chore", observed_chore)
    outcome = run_one_injection(system, analysis, dpoint, baseline,
                                campaign=CampaignConfig(seed=1),
                                matcher=matcher_for_system("hbase"))
    assert trips == [(610.0, 610.0), (1220.0, 1220.0), (1830.0, 1830.0)]
    assert outcome.verdict.timeout_issue and "TO-HBASE-1" in outcome.matched_bugs
    assert round(outcome.duration, 1) == 1830.9


# ---------------------------------------------------------------------------
# the seam, as the judge answers it
# ---------------------------------------------------------------------------
def test_judge_unsubscribes_the_log_agent_on_the_first_consultation_only(
        monkeypatch):
    # a true hang is consulted at least twice (deadline, then horizon);
    # LogCollector.unsubscribe is list.remove: a second call would raise
    # ValueError inside the run
    system, analysis, _, baseline = prepared("kube")
    (hang,) = hang_points("kube")
    consults, unsubscribed = [], []
    at_deadline, unsubscribe = _Judge.at_deadline, LogCollector.unsubscribe

    def counted_consult(self, report):
        consults.append(report.deadline)
        return at_deadline(self, report)

    def counted_unsubscribe(self, sink):
        unsubscribed.append(sink)
        return unsubscribe(self, sink)

    monkeypatch.setattr(_Judge, "at_deadline", counted_consult)
    monkeypatch.setattr(LogCollector, "unsubscribe", counted_unsubscribe)
    outcome = run_one_injection(system, analysis, hang, baseline)
    assert outcome.verdict.hang and not outcome.verdict.timeout_issue
    assert len(consults) == 2 and consults[0] < consults[1]
    assert len(unsubscribed) == 1


# ---------------------------------------------------------------------------
# a run that can no longer finish stops at its deadline
# ---------------------------------------------------------------------------
def test_a_dead_senders_message_in_flight_keeps_the_run_undoomed():
    # the network still delivers what a node sent before it died, so the
    # RM's last word to the client can still finish the job
    system = get_system("yarn")
    cluster = system.build()
    workload = system.create_workload()
    workload.install(cluster)
    cluster.start_all()
    cluster.run(until=2.0)
    rm, network = cluster.node("rm"), cluster.network
    assert not network.in_flight("rm", "client")
    rm.send("client", "web_response", apps=[], nodes=0)
    rm.crash()
    assert rm.is_dead() and network.in_flight("rm", "client")
    assert not workload.doomed(cluster)
    answered = cluster.node("client").web_responses
    cluster.run(until=2.1)
    assert cluster.node("client").web_responses == answered + 1
    assert workload.doomed(cluster)


def test_a_master_dead_after_the_rows_exist_does_not_doom_the_run(
        monkeypatch):
    # hbase, seed 14: the master aborts at this read once the client holds
    # its 8 rows; a row's retries run out at ~2 005 s and the run completes
    # as a job failure.  So "master dead" alone would be unsound.
    system, analysis, profile, baseline = prepared("hbase")
    (dpoint,) = [d for d in profile.dynamic_points
                 if d.point.describe().endswith("hbase.master:295")]
    seen = []
    doomed = PEWorkload.doomed

    def observed_doomed(self, cluster):
        seen.append((cluster.loop.now, cluster.node("hmaster").is_dead(),
                     cluster.node("client").status_rows,
                     doomed(self, cluster)))
        return seen[-1][-1]

    monkeypatch.setattr(PEWorkload, "doomed", observed_doomed)
    outcome = run_one_injection(system, analysis, dpoint, baseline,
                                campaign=CampaignConfig(seed=14),
                                matcher=matcher_for_system("hbase"))
    assert seen == [(24.0, True, 8, False)]
    assert outcome.verdict.timeout_issue and outcome.verdict.job_failure
    assert round(outcome.duration) == 2005


# ---------------------------------------------------------------------------
# CI's hang-horizon step
# ---------------------------------------------------------------------------
def stopped_points(name, seed):
    """The points whose seed-world run the shipped rule stops."""
    analysis, profile, baseline = _setup(name, seed)
    points = []

    def note(index, outcome):
        if len(stops) > len(points):
            points.append(profile.dynamic_points[index])

    with counting_stops(name) as stops:
        run_campaign(get_system(name), analysis, profile.dynamic_points,
                     campaign=CampaignConfig(seed=seed), baseline=baseline,
                     matcher=matcher_for_system(name), on_outcome=note)
    return points


#: the sweep: (system, world_scale, seeds, points: None for all, N for the
#: first N, "stopped" for those stopped_points names)
SWEEP = ([(name, 1, range(16 if name in DOOMABLE else 8), None)
          for name in SYSTEMS]
         + [("yarn", 10, range(2), 12), ("yarn", 10, range(1), "stopped")])


def main(sweep=SWEEP):
    print("system, seed, hangs, timeouts, extension sim-s flat -> horizon, "
          "stopped early, digest equal")
    failed, stopped = False, {}
    for name, scale, seeds, select in sweep:
        label = name if scale == 1 else f"{name}-{scale}x"
        if select is not None:
            label += f" ({select})" if select == "stopped" else f" (first {select})"
        # the 10x flat run's trace would take a gigabyte: unobserved
        observed = scale == 1
        for seed in seeds:
            points = (None if select is None
                      else stopped_points(name, seed) if select == "stopped"
                      else _setup(name, seed)[1].dynamic_points[:select])
            shipped = run(name, seed, points=points, observed=observed,
                          world_scale=scale)
            with flat_horizon():
                oracle = run(name, seed, points=points, observed=observed,
                             world_scale=scale)
            same = shipped["digest"] == oracle["digest"]
            stopped[label] = stopped.get(label, 0) + shipped["stopped"]
            extension = (f"{oracle['extension_sim_s']} -> "
                         f"{shipped['extension_sim_s']}" if observed else "-")
            print(f"{label}, {seed}, {oracle['hangs']}, {oracle['timeouts']}, "
                  f"{extension}, {shipped['stopped']}, "
                  f"{'yes' if same else 'NO'}", flush=True)
            failed |= not same
    print("stopped early: " + ", ".join(
        f"{label} {count}" for label, count in stopped.items()))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
