"""Property-based tests (hypothesis) for the core data structures."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.state import BUS, FieldKey, TrackedDict, TrackedList, TrackedSet
from repro.core.analysis.logging_statements import LogStatement
from repro.core.analysis.meta_graph import MetaInfoGraph, host_in_value
from repro.core.analysis.patterns import PatternIndex, pattern_for
from repro.core.analysis.static_points import AccessPoint
from repro.core.injection import InjectionRecord, OnlineMetaStore
from repro.core.injection.campaign import suffix_key
from repro.core.profiler import DynamicCrashPoint
from repro.mtlog.logger import render
from repro.obs.features import point_tokens
from repro.sim import SimLoop, stable_hash

keys = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
vals = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)

_KEY = FieldKey("prop.Test", "f")


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_loop_fires_in_nondecreasing_time_order(delays):
    loop = SimLoop()
    fired = []
    for d in delays:
        loop.schedule(d, lambda: fired.append(loop.now))
    loop.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=10, allow_nan=False),
                          st.booleans()), max_size=30))
def test_loop_cancelled_events_never_fire(items):
    loop = SimLoop()
    fired = []
    events = []
    for i, (delay, cancel) in enumerate(items):
        events.append((loop.schedule(delay, lambda i=i: fired.append(i)), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    loop.run()
    expected = {i for i, (event, cancel) in enumerate(events) if not cancel}
    assert set(fired) == expected


# ---------------------------------------------------------------------------
# tracked containers behave like their plain counterparts
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from(["put", "remove", "clear"]), keys, vals),
                max_size=50))
def test_tracked_dict_equivalent_to_dict(ops):
    BUS.reset()
    tracked = TrackedDict(_KEY)
    model = {}
    for op, k, v in ops:
        if op == "put":
            tracked.put(k, v)
            model[k] = v
        elif op == "remove":
            tracked.remove(k)
            model.pop(k, None)
        else:
            tracked.clear()
            model.clear()
        assert tracked.snapshot() == model
        assert tracked.size() == len(model)
        assert tracked.is_empty() == (not model)
    for k in model:
        assert tracked.get(k) == model[k]
        assert tracked.contains(k)


@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]), keys), max_size=50))
def test_tracked_set_equivalent_to_set(ops):
    BUS.reset()
    tracked = TrackedSet(_KEY)
    model = set()
    for op, k in ops:
        if op == "add":
            tracked.add(k)
            model.add(k)
        else:
            tracked.remove(k)
            model.discard(k)
        assert tracked.snapshot() == model


@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]), keys), max_size=50))
def test_tracked_list_equivalent_to_list(ops):
    BUS.reset()
    tracked = TrackedList(_KEY)
    model = []
    for op, k in ops:
        if op == "add":
            tracked.add(k)
            model.append(k)
        else:
            removed = tracked.remove(k)
            if k in model:
                model.remove(k)
                assert removed
        assert tracked.snapshot() == model


# ---------------------------------------------------------------------------
# logging round trips
# ---------------------------------------------------------------------------
@given(st.lists(vals, max_size=4), st.lists(st.text(
    alphabet=string.ascii_letters + " .,:;-", min_size=1, max_size=12), min_size=1,
    max_size=5))
def test_pattern_matches_rendered_template(args, parts):
    template = "{}".join(parts)
    slots = len(parts) - 1
    args = (args + [""] * slots)[:slots]
    message = render(template, tuple(args))
    stmt = LogStatement("m", 1, "info", template, tuple("x" for _ in range(slots)))
    pattern = pattern_for(stmt)
    matched = pattern.match(message)
    assert matched is not None
    assert render(template, matched) == message


@given(st.text(max_size=40))
def test_stable_hash_total_and_stable(text):
    assert stable_hash(text) == stable_hash(text)
    assert 0 <= stable_hash(text) < 2 ** 32


# ---------------------------------------------------------------------------
# meta-info graph and online store agree on direct associations
# ---------------------------------------------------------------------------
hostnames = st.sampled_from(["node1", "node2", "node3"])


@given(st.lists(st.tuples(hostnames, vals), min_size=1, max_size=20))
def test_store_and_graph_agree_on_pairwise_instances(instances):
    hosts = ["node1", "node2", "node3"]
    graph = MetaInfoGraph(hosts)
    store = OnlineMetaStore(hosts)
    for host, value in instances:
        pair = [f"{host}:7000", f"v-{value}"]
        graph.add_instance(pair)
        store.process(pair)
    graph.finalize()
    for host, value in instances:
        v = f"v-{value}"
        assert store.query(v) == graph.node_of(v)


@given(vals, hostnames)
def test_host_in_value_never_false_positive_on_foreign_text(value, host):
    # values synthesized without any hostname token never resolve
    assert host_in_value(f"zz-{value}-zz", ["node1", "node2", "node3"]) is None or (
        "node1" in value or "node2" in value or "node3" in value
    )


# the "never node-referencing" guarantee needs values that cannot spell
# a hostname — `vals` alone can generate the literal string "node1"
_noise = vals.filter(lambda v: "node1" not in v)


@given(st.lists(st.tuples(_noise, _noise), min_size=1, max_size=15))
def test_store_is_insensitive_to_unrelated_noise(pairs):
    store = OnlineMetaStore(["node1"])
    for a, b in pairs:
        store.process([f"x-{a}", f"y-{b}"])  # never node-referencing
    assert store.size() == 0


# ---------------------------------------------------------------------------
# the suffix key: never wider than the argument next to suffix_key
# ---------------------------------------------------------------------------
_fire = st.one_of(
    st.none(),                        # no value resolved
    st.tuples(hostnames, st.sampled_from(["shutdown", "crash"]),
              # a coarse grid plus its 1 ns successors: equal fire times
              # are common, and so are the network's FIFO neighbours
              st.builds(lambda tick, bump: tick / 4 + bump * 1e-9,
                        st.integers(min_value=0, max_value=8),
                        st.integers(min_value=0, max_value=1))),
)


@st.composite
def _fires(draw):
    """``(dpoint, injection, ordinal)`` per fire of a campaign."""
    specs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.sampled_from(["read", "write"]), _fire,
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=25))
    out = []
    for n, (slot, op, fire, ordinal) in enumerate(specs):
        point = AccessPoint(
            module=f"mod{slot}", lineno=10 + slot, field_cls=f"mod{slot}.Cls",
            field_name=f"field{slot}", op=op, via="getfield",
            enclosing=f"Cls.m{slot}",
        )
        dpoint = DynamicCrashPoint(
            point=point, stack=(f"mod{slot}.Cls.m{slot}:{20 + n % 3}",),
            scale=1 + slot % 2)
        injection = None if fire is None else InjectionRecord(
            kind=fire[1], target_host=fire[0], value="v", time=fire[2])
        out.append((dpoint, injection, ordinal))
    return out


@given(_fires())
@settings(max_examples=60)
def test_a_class_shares_one_injection_and_a_shutdown_class_one_position(fires):
    # a class: the fires one suffix key groups
    classes = {}
    for fire in fires:
        classes.setdefault(suffix_key(*fire), []).append(fire)
    for members in classes.values():
        injections = {(d.scale, None) if i is None
                      else (d.scale, i.kind, i.target_host, i.time, ordinal)
                      for d, i, ordinal in members}
        assert len(injections) == 1
        injection = members[0][1]
        if injection is not None and injection.kind == "shutdown":
            assert len({point_tokens(d) for d, _, _ in members}) == 1
