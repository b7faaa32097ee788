"""Unit tests for tracked heap state and the access bus."""

import importlib
import inspect
import pkgutil
import sys
import types
from types import CodeType
from typing import Dict, List, Optional, Set

import pytest

import repro.systems

from repro.cluster import (
    BUS,
    Cluster,
    Node,
    tracked_dict,
    tracked_list,
    tracked_ref,
    tracked_set,
)
from repro.cluster.ids import NodeId
from repro.cluster.state import qualname_index


class Holder:
    name: Optional[str] = tracked_ref()
    peers: Dict[str, str] = tracked_dict()
    tags: Set[str] = tracked_set()
    items: List[str] = tracked_list()

    def __init__(self):
        self.name = None


@pytest.fixture(autouse=True)
def reset_bus():
    BUS.reset()
    yield
    BUS.reset()


def capture():
    events = []
    BUS.add_hook(events.append)
    return events


# ---------------------------------------------------------------------------
# scalar refs
# ---------------------------------------------------------------------------
def test_ref_roundtrip():
    h = Holder()
    h.name = "x"
    assert h.name == "x"


def test_ref_default_none():
    assert Holder().name is None


def test_ref_instances_independent():
    a, b = Holder(), Holder()
    a.name = "a"
    assert b.name is None


def test_ref_write_emits_after_store():
    h = Holder()
    seen = []

    def hook(event):
        # the raw storage is consulted, not the descriptor, to avoid
        # re-entrant read events; the value is already stored at emit time
        seen.append((event.op, getattr(h, "_tracked_name", None)))

    BUS.add_hook(hook)
    h.name = "fresh"
    assert ("write", "fresh") in seen


def test_ref_read_emits_before_load_and_reloads_after_hooks():
    h = Holder()
    h2 = Holder()
    BUS.reset()
    h.name = "stale"

    def hook(event):
        if event.op == "read":
            # a hook-triggered recovery rewrites the field...
            object.__setattr__(h, "_tracked_name", "recovered")

    BUS.add_hook(hook)
    # ...and the reader observes the post-hook value (pre-read semantics)
    assert h.name == "recovered"
    del h2


def test_events_carry_field_identity():
    h = Holder()
    events = capture()
    h.name = "v"
    assert events[-1].field.name == "name"
    assert events[-1].field.cls.endswith("Holder")


def test_events_carry_location_of_access_site():
    h = Holder()
    events = capture()
    h.name = "v"  # the access site is THIS line
    module, lineno = events[-1].location
    assert module == __name__
    assert lineno > 0


# ---------------------------------------------------------------------------
# tracked dict
# ---------------------------------------------------------------------------
def test_dict_put_get_remove():
    h = Holder()
    h.peers.put("a", "1")
    assert h.peers.get("a") == "1"
    assert h.peers.get("missing") is None
    assert h.peers.get("missing", "dflt") == "dflt"
    h.peers.remove("a")
    assert h.peers.get("a") is None


def test_dict_contains_values_is_empty_size():
    h = Holder()
    assert h.peers.is_empty()
    h.peers.put("a", "1")
    h.peers.put("b", "2")
    assert h.peers.contains("a")
    assert sorted(h.peers.values()) == ["1", "2"]
    assert h.peers.size() == 2
    assert len(h.peers) == 2
    h.peers.clear()
    assert h.peers.is_empty()


def test_dict_put_returns_old_value():
    h = Holder()
    assert h.peers.put("k", "1") is None
    assert h.peers.put("k", "2") == "1"


def test_dict_snapshot_is_untracked_copy():
    h = Holder()
    h.peers.put("a", "1")
    events = capture()
    snap = h.peers.snapshot()
    assert snap == {"a": "1"}
    assert events == []  # snapshot is not an access point
    snap["b"] = "2"
    assert not h.peers.contains("b")


def test_dict_ops_emit_table3_method_names():
    h = Holder()
    events = capture()
    h.peers.put("k", "v")
    h.peers.get("k")
    h.peers.contains("k")
    h.peers.values()
    h.peers.is_empty()
    h.peers.remove("k")
    h.peers.clear()
    assert [(e.op, e.method) for e in events] == [
        ("write", "put"), ("read", "get"), ("read", "contains"),
        ("read", "values"), ("read", "is_empty"),
        ("write", "remove"), ("write", "clear"),
    ]


def test_dict_size_is_not_an_access_point():
    h = Holder()
    events = capture()
    h.peers.size()
    assert events == []


def test_dict_get_emits_key_and_current_mapping():
    h = Holder()
    h.peers.put("k", "v")
    events = capture()
    h.peers.get("k")
    assert events[-1].values == ("k", "v")


def test_dict_read_reloads_after_hooks():
    h = Holder()
    h.peers.put("k", "old")

    def hook(event):
        if event.method == "get":
            h.peers._data.pop("k", None)  # recovery removes the entry

    BUS.add_hook(hook)
    assert h.peers.get("k") is None  # the read observes the removal


def test_collection_field_cannot_be_reassigned():
    h = Holder()
    with pytest.raises(TypeError):
        h.peers = {}


def test_collection_instances_independent():
    a, b = Holder(), Holder()
    a.peers.put("x", "1")
    assert b.peers.is_empty()


# ---------------------------------------------------------------------------
# tracked set / list
# ---------------------------------------------------------------------------
def test_set_ops():
    h = Holder()
    h.tags.add("a")
    assert h.tags.contains("a")
    assert not h.tags.is_empty()
    assert h.tags.values() == ["a"]
    assert h.tags.remove("a")
    assert not h.tags.remove("a")  # already gone
    h.tags.add("b")
    h.tags.clear()
    assert h.tags.size() == 0


def test_list_ops():
    h = Holder()
    h.items.add("a")
    h.items.add("b")
    assert h.items.get(0) == "a"
    assert h.items.contains("b")
    assert h.items.values() == ["a", "b"]
    assert h.items.remove("a")
    assert not h.items.remove("zz")
    assert not h.items.is_empty()
    h.items.clear()
    assert h.items.size() == 0


def test_values_stringified_and_none_filtered():
    h = Holder()
    events = capture()
    h.peers.put(NodeId("node1", 42349), None)
    assert events[-1].values == ("node1:42349",)


# ---------------------------------------------------------------------------
# the bus
# ---------------------------------------------------------------------------
def test_bus_disabled_when_no_hooks():
    assert not BUS.enabled
    h = Holder()
    h.name = "quiet"  # must not raise or record anything


def test_bus_hook_removal_disables():
    events = capture()
    BUS.remove_hook(events.append)
    assert not BUS.enabled


def test_stack_capture_bounded_and_innermost_first():
    h = Holder()
    events = capture()

    def inner():
        h.name = "deep"

    def outer():
        inner()

    outer()
    stack = events[-1].stack
    assert 0 < len(stack) <= BUS.STACK_DEPTH
    assert "inner" in stack[0]
    assert "outer" in stack[1]
    assert all(":" in frame for frame in stack)  # every frame carries a line


def _functions_in(code):
    """Every function, lambda and comprehension code object nested in
    ``code``, as the compiler builds it (class bodies are not functions)."""
    pending = [code]
    while pending:
        code = pending.pop()
        for const in code.co_consts:
            if isinstance(const, CodeType):
                pending.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS:
                    yield const


def _assert_index_is_co_qualname(module, code):
    index = qualname_index(module)
    assert all(c.co_qualname == q for c, q in index.items()), module.__name__
    compiled = sorted((c.co_firstlineno, c.co_qualname) for c in _functions_in(code))
    indexed = sorted((c.co_firstlineno, q) for c, q in index.items()
                     if c.co_flags & inspect.CO_NEWLOCALS)
    assert indexed == compiled, module.__name__
    return [q for _, q in compiled]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_pre_311_qualname_index_is_co_qualname_under_repro_systems():
    # the call string's qualname on 3.9/3.10 comes from this index; it
    # must be the compiler's co_qualname for every system function
    names = set()
    for info in pkgutil.walk_packages(repro.systems.__path__, "repro.systems."):
        module = importlib.import_module(info.name)
        code = compile(inspect.getsource(module), module.__file__, "exec")
        names.update(q.rpartition(".")[2]
                     for q in _assert_index_is_co_qualname(module, code))
    assert {"<listcomp>", "<genexpr>", "<lambda>"} <= names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_pre_311_qualname_index_names_code_nested_in_comprehensions_and_classes():
    # shapes no system module has: scopes nested in a comprehension or in
    # a class defined inside a function
    source = (
        "def f():\n"
        "    return [lambda: i for i in range(2)]\n"
        "class C:\n"
        "    @staticmethod\n"
        "    def m():\n"
        "        class D:\n"
        "            def n(self):\n"
        "                return {k: (lambda: k) for k in ()}\n"
        "        return D\n"
        "    @property\n"
        "    def p(self):\n"
        "        return (x for x in ())\n")
    module = types.ModuleType("qualname_probe")
    module.__file__ = "<qualname-probe>"
    code = compile(source, module.__file__, "exec")
    exec(code, module.__dict__)
    assert "C.m.<locals>.D.n" in _assert_index_is_co_qualname(module, code)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_pre_311_qualname_index_looks_through_decorators():
    # the module's name for a decorated function is its wrapper, whose
    # code is contextlib's or the decorator's own
    source = (
        "import contextlib, functools\n"
        "def traced(f):\n"
        "    @functools.wraps(f)\n"
        "    def wrapper(*args):\n"
        "        return f(*args)\n"
        "    return wrapper\n"
        "class C:\n"
        "    @traced\n"
        "    def m(self):\n"
        "        return [x for x in ()]\n"
        "@traced\n"
        "def g():\n"
        "    return 1\n"
        "@contextlib.contextmanager\n"
        "def scope():\n"
        "    yield\n")
    module = types.ModuleType("decorated_probe")
    module.__file__ = "<decorated-probe>"
    code = compile(source, module.__file__, "exec")
    exec(code, module.__dict__)
    names = _assert_index_is_co_qualname(module, code)
    assert {"traced.<locals>.wrapper", "C.m", "g", "scope"} <= set(names)


def test_node_attribution_inside_cluster():
    class StatefulNode(Node):
        role = "w"
        exception_policy = "log"
        data: Dict[str, str] = tracked_dict()

        def on_store(self, src, k, v):
            self.data.put(k, v)

    c = Cluster("t")
    with c:
        a = StatefulNode(c, "a")
        b = StatefulNode(c, "b")
        c.start_all()
        events = capture()
        a.send("b", "store", k="k", v="v")
        c.run()
    writers = [e.node for e in events if e.method == "put"]
    assert writers == ["b"]
