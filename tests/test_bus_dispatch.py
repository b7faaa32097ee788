"""Keyed access-bus dispatch against the wildcard reference.

An injection trigger keys its hook to one ``(field, op)`` pair, and the bus
then builds events for that pair only.  That is sound only if a keyed hook
receives exactly what a wildcard hook would have handed it on that pair:
the same events, field for field, in the same order.  These tests hold the
bus to that on every system's clean seed-0 run, across a hook that pumps
the loop inside its dispatch, and against values whose ``__str__`` reads
tracked state (the bus's own reads, which must reach no hook).
"""

from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.api import get_system
from repro.cluster import state
from repro.cluster.state import BUS, AccessEvent, BusKey, FieldKey, tracked_dict, tracked_ref
from repro.sim.loop import SimLoop
from repro.systems.base import run_workload

SYSTEMS = ("cassandra", "hbase", "hdfs", "kube", "yarn", "zookeeper")


def _record(system: Any, keys: Optional[List[BusKey]]) -> List[AccessEvent]:
    """One clean seed-0 run with a single recorder, keyed or wildcard."""
    events: List[AccessEvent] = []
    BUS.capture_stacks = True
    BUS.add_hook(events.append, keys=keys)
    try:
        run_workload(system, seed=0, keep_cluster=False)
    finally:
        BUS.remove_hook(events.append)
        BUS.capture_stacks = False
    return events


@pytest.mark.parametrize("name", SYSTEMS)
def test_keyed_stream_is_the_wildcard_stream_filtered(name):
    system = get_system(name)
    reference = _record(system, None)
    by_key: Dict[BusKey, List[AccessEvent]] = {}
    for event in reference:
        by_key.setdefault((event.field, event.op), []).append(event)
    assert len(by_key) > 1
    for key, expected in by_key.items():
        # alone on the bus, so nothing but this pair is ever built
        assert _record(system, [key]) == expected, f"{name}: {key[0]} {key[1]}"


class Holder:
    name: Optional[str] = tracked_ref()
    peers: Dict[str, str] = tracked_dict()


NAME_WRITE = (FieldKey(f"{__name__}.Holder", "name"), "write")
PEERS_WRITE = (FieldKey(f"{__name__}.Holder", "peers"), "write")


def test_keyed_hook_sees_accesses_made_inside_another_hooks_pump():
    # a firing trigger pumps the loop from inside its hook (the
    # instrumented wait); a second trigger keyed to what that pump touches
    # must still see it, as the second point of a crash pair does
    loop = SimLoop()
    holder = Holder()
    loop.schedule(1.0, lambda: holder.peers.put("k", "v"))
    seen: List[Tuple[str, str]] = []

    def pumping(event: AccessEvent) -> None:
        seen.append(("pump-start", event.field.name))
        loop.pump(5.0)
        seen.append(("pump-end", event.field.name))

    def second(event: AccessEvent) -> None:
        seen.append(("second", f"{event.field.name}.{event.method}"))

    BUS.add_hook(pumping, keys=[NAME_WRITE])
    BUS.add_hook(second, keys=[PEERS_WRITE])
    try:
        holder.name = "n"
    finally:
        BUS.remove_hook(pumping)
        BUS.remove_hook(second)
    assert seen == [("pump-start", "name"), ("second", "peers.put"),
                    ("pump-end", "name")]


class Named:
    """A value whose ``__str__`` reads tracked state, like a yarn record."""

    ident: Optional[str] = tracked_ref()

    def __init__(self, ident: str):
        self.ident = ident

    def __str__(self) -> str:
        return str(self.ident)


IDENT_READ = (FieldKey(f"{__name__}.Named", "ident"), "read")


def test_the_bus_str_of_a_value_reaches_no_hook():
    holder, value = Holder(), Named("n1")
    wildcard: List[AccessEvent] = []
    keyed: List[AccessEvent] = []
    BUS.add_hook(wildcard.append)
    BUS.add_hook(keyed.append, keys=[IDENT_READ])
    try:
        holder.name = value  # the bus stringifies value: reads ident
        assert [(e.field.name, e.op, e.values) for e in wildcard] == [
            ("name", "write", ("n1",))]
        assert keyed == []
        value.ident  # a read by the system itself is an access as ever
    finally:
        BUS.remove_hook(wildcard.append)
        BUS.remove_hook(keyed.append)
    assert [(e.field.name, e.op) for e in keyed] == [("ident", "read")]
    assert len(wildcard) == 2


class Broken:
    def __str__(self) -> str:
        raise RuntimeError("unprintable")


def test_a_raising_str_leaves_the_bus_emitting():
    holder = Holder()
    events: List[AccessEvent] = []
    BUS.add_hook(events.append)
    try:
        with pytest.raises(RuntimeError):
            holder.name = Broken()
        holder.name = "after"
    finally:
        BUS.remove_hook(events.append)
    assert [e.values for e in events] == [("after",)]


def test_unwatched_accesses_build_no_event(monkeypatch):
    built: List[str] = []

    def counting(**fields: Any) -> AccessEvent:
        built.append(fields["field"].name)
        return AccessEvent(**fields)

    monkeypatch.setattr(state, "AccessEvent", counting)
    holder = Holder()
    events: List[AccessEvent] = []
    BUS.add_hook(events.append, keys=[PEERS_WRITE])
    try:
        holder.name = "unwatched"
        holder.peers.get("k")  # a read of the watched field: another pair
        holder.peers.put("k", "v")
    finally:
        BUS.remove_hook(events.append)
    assert built == ["peers"]
    assert [(e.field.name, e.method) for e in events] == [("peers", "put")]
    assert not BUS.enabled
