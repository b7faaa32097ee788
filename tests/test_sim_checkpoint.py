"""Kernel and substrate checkpoint/restore — the snapshot mode's bedrock.

The snapshot executor forks whole processes, but its integrity manifests
and its determinism argument rest on the state captured here behaving
exactly as documented: a :class:`LoopCheckpoint` is immutable and
restorable any number of times, cloning a queue never perturbs event
ordering, and the substrate stores (access bus, log collector, online meta store) round-trip
through their checkpoints.
"""

import pytest

from repro.cluster.state import AccessBus
from repro.core.injection.online_log import OnlineMetaStore
from repro.errors import SimulationError
from repro.mtlog.collector import LogCollector
from repro.mtlog.records import LogRecord
from repro.sim.loop import SimLoop
from repro.sim.rng import SimRandom


def _record(node="node1", message="m", args=()):
    return LogRecord(time=0.0, node=node, component="c", level="info",
                     template="m", args=tuple(args), message=message,
                     location=("mod", 1))


# ----------------------------------------------------------------------
# SimLoop
# ----------------------------------------------------------------------

def test_loop_checkpoint_restores_clock_counter_and_queue():
    loop = SimLoop()
    trace = []
    loop.schedule(1.0, lambda: trace.append("a"))
    loop.schedule(2.0, lambda: trace.append("b"))
    loop.run(until=1.0)
    cp = loop.checkpoint()
    assert cp.manifest() == {
        "time": 1.0, "events_processed": 1, "pending_events": 1,
    }

    loop.run()  # drain: "b" fires, state moves past the checkpoint
    assert trace == ["a", "b"]
    loop.restore(cp)
    assert loop.now == 1.0 and loop.events_processed == 1
    loop.run()
    assert trace == ["a", "b", "b"]  # the restored queue replays "b"


def test_loop_checkpoint_supports_repeated_restores():
    loop = SimLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(loop.now))
    cp = loop.checkpoint()
    for _ in range(3):
        loop.restore(cp)
        loop.run()
    assert fired == [1.0, 1.0, 1.0]
    assert cp.pending() == 1  # restores never mutate the checkpoint


def test_loop_checkpoint_preserves_cancellation_and_order():
    loop = SimLoop()
    trace = []
    loop.schedule(1.0, lambda: trace.append("a"))
    doomed = loop.schedule(1.0, lambda: trace.append("doomed"))
    loop.schedule(1.0, lambda: trace.append("c"))
    doomed.cancel()
    cp = loop.checkpoint()
    assert cp.pending() == 2

    loop.restore(cp)
    loop.run()
    # cancellation survived, and same-time events kept their seq order
    assert trace == ["a", "c"]


def test_clone_does_not_consume_the_event_sequence():
    loop = SimLoop()
    trace = []
    loop.schedule(1.0, lambda: trace.append("first"))
    loop.checkpoint()  # clones the queue
    # an event scheduled *after* the checkpoint at the same time must
    # still sort after the earlier one
    loop.schedule(1.0, lambda: trace.append("second"))
    loop.run()
    assert trace == ["first", "second"]


def test_restore_inside_handler_is_refused():
    loop = SimLoop()
    cp = loop.checkpoint()
    failures = []

    def bad():
        try:
            loop.restore(cp)
        except SimulationError as exc:
            failures.append(str(exc))

    loop.schedule(1.0, bad)
    loop.run()
    assert failures and "running handler" in failures[0]


# ----------------------------------------------------------------------
# SimRandom
# ----------------------------------------------------------------------

def test_rng_checkpoint_round_trips_the_root_stream():
    rng = SimRandom(seed=7)
    rng.uniform(0, 1)
    cp = rng.checkpoint()
    first = [rng.randint(0, 10**9) for _ in range(5)]
    rng.restore(cp)
    assert [rng.randint(0, 10**9) for _ in range(5)] == first


def test_rng_checkpoint_refuses_foreign_seed():
    cp = SimRandom(seed=1).checkpoint()
    with pytest.raises(ValueError, match="seed 1"):
        SimRandom(seed=2).restore(cp)


def test_rng_digest_distinguishes_states():
    rng = SimRandom(seed=3)
    before = rng.checkpoint().digest()
    assert rng.checkpoint().digest() == before  # digest is a pure function
    rng.uniform(0, 1)
    assert rng.checkpoint().digest() != before


# ----------------------------------------------------------------------
# substrate stores
# ----------------------------------------------------------------------

def test_access_bus_checkpoint_round_trips_configuration():
    bus = AccessBus()
    hook = lambda event: None  # noqa: E731
    bus.add_hook(hook)
    bus.capture_stacks = True
    cp = bus.checkpoint()
    bus.reset()
    assert not bus.enabled
    bus.restore(cp)
    assert bus.enabled and bus.capture_stacks
    bus.remove_hook(hook)
    assert not bus.enabled


def test_log_collector_checkpoint_truncates_streams():
    collector = LogCollector()
    tailed = []
    tail = tailed.append
    collector.subscribe(tail)
    collector.collect(_record(node="n1"))
    cp = collector.checkpoint()

    collector.unsubscribe(tail)
    collector.collect(_record(node="n1", message="later"))
    collector.collect(_record(node="n2"))
    assert len(collector.records) == 3 and "n2" in collector.by_node

    collector.restore(cp)
    assert len(collector.records) == 1
    assert list(collector.by_node) == ["n1"]
    # the subscriber list rewound too: the tail is live again
    collector.collect(_record(node="n1", message="after-restore"))
    assert [r.message for r in tailed] == ["m", "after-restore"]


def test_online_meta_store_checkpoint_round_trips():
    store = OnlineMetaStore(hosts=["node1", "node2"])
    store.process(["node1", "app_01"])
    cp = store.checkpoint()
    store.process(["node2", "app_02"])
    assert store.query("app_02") == "node2"
    store.restore(cp)
    assert store.query("app_01") == "node1"
    assert store.query("app_02") is None
    assert store.size() == len(cp["value_node"])
