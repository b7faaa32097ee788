"""Unit tests for the network and node lifecycle layers."""

from typing import Dict

import pytest

from repro.cluster import Cluster, Node, NodeState, tracked_dict
from repro.mtlog import get_logger

LOG = get_logger("tests.netnodes")


class Echo(Node):
    role = "echo"
    exception_policy = "log"

    def __init__(self, cluster, name, **kw):
        super().__init__(cluster, name, **kw)
        self.received = []

    def on_ping(self, src, tag):
        self.received.append((src, tag))

    def on_boom(self, src):
        raise ValueError("boom")


class FragileMaster(Echo):
    role = "master"
    critical = True
    exception_policy = "abort"


def make_cluster(seed=0, config=None):
    return Cluster("t", seed=seed, config=config)


def test_message_delivered_with_latency():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        a.send("b", "ping", tag=1)
        c.run()
        assert b.received == [("a", 1)]
        assert c.loop.now > 0


def test_per_channel_fifo_ordering():
    c = make_cluster(seed=5)
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        for i in range(20):
            a.send("b", "ping", tag=i)
        c.run()
        assert [t for (_, t) in b.received] == list(range(20))


def test_messages_to_dead_node_dropped():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        c.crash("b")
        a.send("b", "ping", tag=1)
        c.run()
        assert b.received == []
        assert ("b", "ping") in c.network.dropped


def test_crash_boundary_queued_deliveries_die_later_ones_drop():
    # a crash kills what its target has queued: a delivery to b sent
    # before b.crash() is never dispatched (no drop, no event), one sent
    # after it is dispatched and dropped
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        c.run()
        base = c.loop.events_processed
        a.send("b", "ping", tag="before")
        b.crash()
        c.run()
        assert c.network.dropped == []
        assert c.loop.events_processed == base
        a.send("b", "ping", tag="after")
        c.run()
        assert c.network.dropped == [("b", "ping")]
        assert c.loop.events_processed == base + 1
        assert b.received == []


def test_timer_set_in_on_shutdown_dies_at_finish_shutdown():
    class Lingering(Echo):
        def on_shutdown(self):
            self.set_timer(1.0, lambda: self.received.append("late"))

    c = make_cluster()
    with c:
        a = Lingering(c, "a")
        a.start()
        c.run()
        base = c.loop.events_processed
        a.begin_shutdown()
        c.run()
        assert a.state is NodeState.STOPPED
        assert a.received == []
        assert c.loop.events_processed == base + 1  # _finish_shutdown only


def test_in_flight_message_from_crashed_sender_still_delivered():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        a.send("b", "ping", tag=1)
        c.crash("a")  # packet already left the machine
        c.run()
        assert b.received == [("a", 1)]


def test_broadcast_reaches_all():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        d = Echo(c, "d")
        c.start_all()
        c.network.broadcast("a", ["b", "d"], "ping", tag=9)
        c.run()
        assert b.received == [("a", 9)]
        assert d.received == [("a", 9)]


def test_unknown_handler_logs_warning():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        a.send("b", "no_such_method")
        c.run()
        assert any("No handler" in r.message for r in c.log_collector.records)


def test_node_lifecycle_states():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        assert a.state is NodeState.NEW
        a.start()
        assert a.state is NodeState.RUNNING
        a.begin_shutdown()
        assert a.state is NodeState.SHUTTING_DOWN
        c.run()
        assert a.state is NodeState.STOPPED


def test_crash_is_abrupt_and_cancels_timers():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        fired = []
        a.start()
        a.set_timer(1.0, lambda: fired.append(1))
        a.crash()
        c.run()
        assert a.state is NodeState.CRASHED
        assert fired == []
        assert c.crashes and c.crashes[0][1] == "a"


def test_graceful_shutdown_recorded():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        a.start()
        c.shutdown("a")
        c.run()
        assert [n for _, n in c.shutdowns] == ["a"]


def test_periodic_timer_reschedules_until_death():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        a.start()
        ticks = []
        a.set_timer(1.0, lambda: ticks.append(c.loop.now), periodic=1.0)
        c.run(until=3.5)
        a.crash()
        c.run(until=10.0)
        assert len(ticks) == 3


def test_worker_exception_policy_logs_and_survives():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        a.send("b", "boom")
        c.run()
        assert b.state is NodeState.RUNNING
        assert c.aborts == []
        assert any(r.level == "error" for r in c.log_collector.records)


def test_master_exception_policy_aborts_process():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        m = FragileMaster(c, "m")
        c.start_all()
        a.send("m", "boom")
        c.run()
        assert m.state is NodeState.ABORTED
        assert len(c.aborts) == 1
        assert c.critical_aborts()


def test_dead_node_ignores_messages_and_timers():
    c = make_cluster()
    with c:
        a = Echo(c, "a")
        b = Echo(c, "b")
        c.start_all()
        b.crash()
        a.send("b", "ping", tag=1)
        c.run()
        assert b.received == []


def test_host_level_crash_kills_colocated_processes():
    c = make_cluster()
    with c:
        nm = Echo(c, "node1")
        am = Echo(c, "am-1", host="node1", port=43001)
        other = Echo(c, "node2")
        c.start_all()
        killed = c.crash_host("node1")
        assert sorted(killed) == ["am-1", "node1"]
        assert nm.is_dead() and am.is_dead()
        assert other.is_running()


def test_host_level_shutdown_graceful():
    c = make_cluster()
    with c:
        nm = Echo(c, "node1")
        am = Echo(c, "am-1", host="node1", port=43001)
        c.start_all()
        stopped = c.shutdown_host("node1")
        c.run()
        assert sorted(stopped) == ["am-1", "node1"]
        assert nm.state is NodeState.STOPPED
        assert am.state is NodeState.STOPPED


def test_node_by_address_resolves_host_port_and_bare_host():
    c = make_cluster()
    with c:
        a = Echo(c, "a", port=1234)
        assert c.node_by_address("a:1234") is a
        assert c.node_by_address("a") is a
        assert c.node_by_address("zzz") is None


def test_duplicate_node_name_rejected():
    c = make_cluster()
    with c:
        Echo(c, "a")
        with pytest.raises(Exception):
            Echo(c, "a")


def test_is_patched_switchboard():
    c = make_cluster(config={"patched_bugs": {"BUG-1"}})
    assert c.is_patched("BUG-1")
    assert not c.is_patched("BUG-2")
    assert Cluster("x", config={"patched_bugs": "all"}).is_patched("ANY")
    assert not Cluster("y").is_patched("BUG-1")


def test_same_seed_same_simulation():
    def run_once():
        c = make_cluster(seed=11)
        with c:
            a = Echo(c, "a")
            b = Echo(c, "b")
            c.start_all()
            for i in range(10):
                a.send("b", "ping", tag=i)
            c.run()
            return c.loop.now, [t for _, t in b.received]

    assert run_once() == run_once()
