"""Integration tests for the miniature ZooKeeper ensemble."""

from repro.systems import get_system, run_workload
from repro.systems.zookeeper.server import ZKServer
from tests.conftest import prepared, reference


def run_zk(seed=0, config=None, before_run=None, deadline=None):
    return run_workload(get_system("zookeeper"), seed=seed, config=config,
                        before_run=before_run, deadline=deadline)


def test_clean_smoketest_succeeds():
    report = run_zk()
    assert report.succeeded
    assert report.log.errors() == []


def test_lowest_sid_leads():
    report = run_zk()
    servers = [report.cluster.nodes[f"zk{i}"] for i in (1, 2, 3)]
    assert all(s.leader_sid == 1 for s in servers)
    assert servers[0].is_leader()


def test_writes_replicated_to_followers():
    report = run_zk()
    # every smoke znode was deleted at the end; write a fresh one
    cluster = report.cluster
    with cluster:
        cluster.nodes["client"].send("zk2", "zk_create", path="/x", data="v")
        cluster.run(until=cluster.loop.now + 1.0)
        for name in ("zk1", "zk2", "zk3"):
            record = cluster.nodes[name].znodes.get("/x")
            assert record is not None and record.data == "v"


def test_leader_crash_triggers_reelection_and_service_continues():
    report = run_zk(
        seed=1,
        before_run=lambda c, w: c.loop.schedule(0.25, lambda: c.crash("zk1")),
        deadline=60.0,
    )
    assert report.succeeded
    assert any("now LEADING (leader is 2)" in r.message for r in report.log.records)


def test_follower_crash_tolerated():
    report = run_zk(
        seed=1,
        before_run=lambda c, w: c.loop.schedule(0.25, lambda: c.crash("zk3")),
        deadline=60.0,
    )
    assert report.succeeded


def test_session_expiry_deletes_ephemerals():
    report = run_zk()
    cluster = report.cluster
    with cluster:
        client = cluster.nodes["client"]
        client.send("zk1", "create_session")
        cluster.run(until=cluster.loop.now + 0.5)
        zk1: ZKServer = cluster.nodes["zk1"]
        session_id = next(iter(zk1.sessions.snapshot()))
        client.send("zk1", "zk_create", path="/eph", data="d",
                    session_id=session_id, ephemeral=True)
        cluster.run(until=cluster.loop.now + 0.5)
        assert zk1.znodes.contains("/eph")
        # stop pinging: the session expires and the ephemeral goes away
        cluster.run(until=cluster.loop.now + 5.0)
        assert not zk1.znodes.contains("/eph")


def test_watches_fire_on_delete():
    report = run_zk()
    cluster = report.cluster
    with cluster:
        client = cluster.nodes["client"]
        events = []
        client.on_zk_event = lambda src, path, event, data: events.append((path, event))
        client.send("zk1", "zk_watch", prefix="/w/")
        client.send("zk1", "zk_create", path="/w/a", data="1")
        client.send("zk1", "zk_delete", path="/w/a")
        cluster.run(until=cluster.loop.now + 1.0)
        assert ("/w/a", "created") in events
        assert ("/w/a", "deleted") in events


def test_txn_log_replay_on_restart_semantics():
    # The transaction log is written on create; a fresh server replaying it
    # reconstructs the znodes (tested at the store level).
    report = run_zk()
    zk1 = report.cluster.nodes["zk1"]
    logged = [op for op in zk1.disk.files["/zk/version-2/log.1"] if op[0] == "create"]
    assert logged  # smoke creates went through the leader's log


def test_paper_negative_result_few_meta_info_types():
    """Section 3.4: ZooKeeper's sparse, Integer-typed logging yields very
    few meta-info variables — the paper found no new bugs here."""
    _, analysis, profile, _ = prepared("zookeeper")
    assert analysis.totals()["meta_types"] <= 3
    assert len(profile.dynamic_points) <= 5


def test_zookeeper_campaign_finds_no_new_bugs():
    assert reference("zookeeper").detected_bugs() == {}
