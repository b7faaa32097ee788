"""Unit tests for the logging substrate and the simulated IO streams."""

import pytest

from repro.cluster import Cluster, Node
from repro.cluster.io import (
    CorruptStreamError,
    FileInputStream,
    FileOutputStream,
    SimDisk,
    io_keys,
)
from repro.cluster.state import BUS, FieldKey
from repro.core.baselines.io_injection import IOFault, _IOTrigger
from repro.core.baselines.io_points import DynamicIOPoint, StaticIOPoint
from repro.mtlog import LogCollector, LogRecord, get_logger, level_rank, render

LOG = get_logger("tests.mtlog")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def test_render_substitutes_in_order():
    assert render("a {} c {}", ("b", "d")) == "a b c d"


def test_render_no_placeholders():
    assert render("plain", ()) == "plain"


def test_render_extra_placeholder_left_visible():
    assert render("x {} y {}", ("1",)) == "x 1 y {}"


def test_render_extra_args_appended():
    assert render("x {}", ("1", "2")) == "x 1 2"


def test_level_rank_ordering():
    assert level_rank("trace") < level_rank("debug") < level_rank("info")
    assert level_rank("warn") < level_rank("error") < level_rank("fatal")


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------
class Talker(Node):
    role = "talker"
    exception_policy = "log"

    def on_say(self, src, what):
        LOG.info("{} says {}", self.name, what)


def test_records_capture_template_args_and_node():
    c = Cluster("t")
    with c:
        a = Talker(c, "a")
        b = Talker(c, "b")
        c.start_all()
        a.send("b", "say", what="hello")
        c.run()
        records = [r for r in c.log_collector.records if r.component == "tests.mtlog"]
    assert len(records) == 1
    record = records[0]
    assert record.template == "{} says {}"
    assert record.args == ("b", "hello")
    assert record.message == "b says hello"
    assert record.node == "b"
    assert record.location[0] == __name__


def test_logging_outside_simulation_is_noop():
    LOG.info("nobody is listening {}", 1)  # must not raise


def test_collector_by_node_and_grep():
    c = Cluster("t")
    with c:
        a = Talker(c, "a")
        b = Talker(c, "b")
        c.start_all()
        a.send("b", "say", what="needle")
        c.run()
        assert c.log_collector.grep("needle")
        assert any(r.node == "b" for r in c.log_collector.by_node["b"])


def test_collector_subscribers_see_live_records():
    c = Cluster("t")
    seen = []
    c.log_collector.subscribe(seen.append)
    with c:
        a = Talker(c, "a")
        c.start_all()
    assert seen  # lifecycle records flowed through


def test_collector_isolates_raising_subscribers():
    """Regression: one raising subscriber must not starve the others.

    Before the fix, the exception aborted notification of every later
    subscriber and escaped into the logging node's handler, where the
    node's exception policy would misread it as a system failure.
    """
    c = Cluster("t")
    notified = []

    def bad(record):
        raise RuntimeError("tail agent bug")

    c.log_collector.subscribe(bad)
    c.log_collector.subscribe(notified.append)
    with c:
        a = Talker(c, "a")
        c.start_all()
        a.send("a", "say", what="still-collected")
        c.run()
    # collection bookkeeping and later subscribers were unaffected
    assert c.log_collector.grep("still-collected")
    assert len(notified) == len(c.log_collector.records)
    # every failure was recorded against the offending subscriber
    assert c.log_collector.subscriber_errors
    for subscriber, record, exc in c.log_collector.subscriber_errors:
        assert subscriber is bad
        assert isinstance(exc, RuntimeError)
    # the log stream itself shows no abort: the node kept running
    assert a.is_running()


def test_default_collector_layout_is_unchanged():
    record = LogRecord(
        time=0.0, node="node1", component="comp.mod", level="info",
        template="event {} on {}", args=("0", "node1"),
        location=("comp.mod", 10),
    )
    collector = LogCollector()
    assert type(collector.records) is list
    collector.collect(record)
    assert collector.by_node["node1"] == [record]


@pytest.mark.parametrize("key", ["log_spill_threshold", "log_spill_dir"])
def test_retired_spill_config_keys_are_rejected_at_construction(key):
    # the disk-backed collector is gone; a config that asked for its
    # memory bound must fail loudly, not silently hold every record
    with pytest.raises(ValueError, match=f"{key}.*removed in 1.8.0"):
        Cluster("t", config={key: 32})
    assert type(Cluster("t", config={"patched_bugs": "all"})
                .log_collector.records) is list


def test_error_records_and_signature():
    c = Cluster("t")
    with c:
        a = Talker(c, "a")
        a.start()
        try:
            raise ValueError("oops")
        except ValueError as exc:
            from repro import runtime
            runtime.push_node("a")
            LOG.error("failed doing {}", "thing", exc=exc)
            runtime.pop_node()
        errors = c.log_collector.errors()
    assert len(errors) == 1
    sig = errors[0].signature()
    assert sig[1] == "error"
    assert sig[3] == "ValueError"
    assert "ValueError: oops" in str(errors[0])


def test_signature_ignores_runtime_values():
    r1 = LogRecord(1.0, "n1", "c", "error", "x {}", ("1",), "x 1", ("m", 1))
    r2 = LogRecord(9.0, "n2", "c", "error", "x {}", ("2",), "x 2", ("m", 1))
    assert r1.signature() == r2.signature()


# ---------------------------------------------------------------------------
# IO streams
# ---------------------------------------------------------------------------
def test_write_then_read_roundtrip():
    disk = SimDisk()
    out = FileOutputStream(disk, "/f")
    out.write("a")
    out.write("b")
    out.flush()
    out.close()
    stream = FileInputStream(disk, "/f")
    assert stream.read_all() == ["a", "b"]
    stream.close()
    assert stream.closed


def test_unflushed_tail_is_corrupt_after_crash():
    disk = SimDisk()
    out = FileOutputStream(disk, "/f")
    out.write("a")
    out.flush()
    out.write("b")  # never flushed
    disk.truncate_open_files()  # the machine crashed
    stream = FileInputStream(disk, "/f")
    assert stream.read() == "a"
    assert stream.read() == "b"
    with pytest.raises(CorruptStreamError):
        stream.read()


def test_missing_file_read_raises():
    with pytest.raises(CorruptStreamError):
        FileInputStream(SimDisk(), "/nope").read()


def test_io_bus_emits_events_with_locations():
    events = []
    BUS.add_hook(events.append)
    try:
        disk = SimDisk()
        out = FileOutputStream(disk, "/f")
        out.write("x")
        out.flush()
        out.close()
    finally:
        BUS.remove_hook(events.append)
    before = [e.method for e in events if e.op == "before"]
    after = [e.method for e in events if e.op == "after"]
    assert before == ["write", "flush", "close"]
    assert after == ["write", "flush", "close"]  # each op also emits post-op
    assert all(e.location[0] == __name__ for e in events)
    assert all(e.field == FieldKey("repro.cluster.io.FileOutputStream", e.method)
               for e in events)
    assert all(e.values == ("/f",) and e.stack for e in events)


def test_read_all_emits_its_own_after_event():
    disk = SimDisk()
    FileOutputStream(disk, "/f").write("x")
    FileOutputStream(disk, "/empty").close()
    events = []
    BUS.add_hook(events.append)
    try:
        assert FileInputStream(disk, "/f").read_all() == ["x"]
        assert FileInputStream(disk, "/empty").read_all() == []
    finally:
        BUS.remove_hook(events.append)
    # an IO fault "after" read_all needs the op's own post-op event, even
    # for a file with nothing in it
    calls = [e.op for e in events if e.method == "read_all"]
    assert calls == ["before", "after", "before", "after"]


class _NoNodes:
    """A control center whose cluster has no nodes: a fire delivers nothing."""

    class cluster:
        nodes = {}


def _read_all(disk):
    return FileInputStream(disk, "/f").read_all()


def test_after_fault_on_read_all_fires_once_read_all_has_returned():
    disk = SimDisk()
    out = FileOutputStream(disk, "/f")
    out.write("a")
    out.write("b")
    sites, log, trigger = [], [], None

    def site(event):
        sites.append((event.location, event.stack))

    def observe(event):
        log.append((event.method, event.op, trigger.fired))

    for armed in (False, True):  # one call site: profiled, then armed
        if armed:
            (location, stack), = sites
            point = StaticIOPoint(location[0], location[1], "read_all", "_read_all")
            trigger = _IOTrigger(IOFault(DynamicIOPoint(point, stack), "after"),
                                 _NoNodes())
            BUS.add_hook(observe)
        else:
            BUS.add_hook(site, keys=io_keys("before", "read_all"))
        try:
            assert _read_all(disk) == ["a", "b"]
        finally:
            BUS.remove_hook(observe if armed else site)
            if armed:
                trigger.uninstall()  # a no-op once it has fired
    # the inner reads' events carry read_all's site and stack, and their
    # "after" events come first: the fault waits for read_all's own
    assert log == [
        ("read_all", "before", False),
        ("read", "before", False), ("read", "after", False),
        ("read", "before", False), ("read", "after", False),
        ("read", "before", False),
        ("read_all", "after", True),
    ]


def test_io_bus_disabled_is_silent(monkeypatch):
    def boom(*args):
        raise AssertionError("an IO call emitted with no hook installed")

    monkeypatch.setattr(BUS, "emit", boom)
    disk = SimDisk()
    out = FileOutputStream(disk, "/f")
    out.write("x")  # no hooks: one enabled check, nothing more
    assert FileInputStream(disk, "/f").read_all() == ["x"]
    assert not BUS.enabled
