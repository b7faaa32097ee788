"""The log hot-path fast lane's contract: fast lane == slow lane, only faster.

Template-identity matching, lazy rendering, and the online agent's
interesting-template early-out must be *invisible* in every report
surface.  The whole-campaign half of that claim is the ``slow-log-lane``
row of the matrix in ``tests/test_outcome_identity.py``; this module
holds the per-record cross-check and the lane's edge cases.  CI runs
both and fails the build if any of it is skipped — the identity is the
whole justification for keeping the fast lane.
"""

from repro import get_system
from repro.core.analysis import analyze_system
from repro.core.analysis.logging_statements import LogStatement
from repro.core.analysis.patterns import (
    PatternIndex,
    fast_lane,
    fast_lane_enabled,
)
from repro.core.injection.online_log import OnlineMetaStore
from repro.mtlog.records import LogRecord
from repro.systems.base import run_workload


def test_fast_lane_flag_nests_and_restores():
    assert fast_lane_enabled()
    with fast_lane(False):
        assert not fast_lane_enabled()
        with fast_lane(True):
            assert fast_lane_enabled()
        assert not fast_lane_enabled()
    assert fast_lane_enabled()


# ----------------------------------------------------------------------
# per-record cross-check: identity and regex agree on real workload logs
# ----------------------------------------------------------------------

def test_identity_and_rendered_fallback_agree_on_every_yarn_record():
    system = get_system("yarn")
    analysis = analyze_system(system)
    records = run_workload(system, seed=0).cluster.log_collector.records
    assert records
    index = analysis.index
    for record in records:
        with fast_lane(True):
            via_identity = index.match_record(record)
        with fast_lane(False):
            via_regex = index.match_record(record)
        key = lambda hit: (hit[0].statement.key(), tuple(hit[1])) if hit else None
        assert key(via_identity) == key(via_regex), record.message


# ----------------------------------------------------------------------
# PatternIndex edge cases
# ----------------------------------------------------------------------

def _stmt(module, lineno, template):
    return LogStatement(module, lineno, "info",
                        template, tuple("a" * (template.count("{}"))))


def _record(template, args, location, message=None):
    return LogRecord(time=0.0, node="n1", component="c", level="info",
                     template=template, args=tuple(args), message=message,
                     location=location)


def test_candidate_tie_breaking_is_deterministic():
    # ten+ statements with identical token overlap: candidate order (and
    # therefore which regex wins) must be stable across index rebuilds
    stmts = [_stmt("m", i, f"tied common tokens variant{i} {{}}") for i in range(15)]
    message = "tied common tokens variant3 v"
    orders = []
    for _ in range(3):
        index = PatternIndex.from_statements(stmts)
        orders.append([p.statement.lineno for p in index.candidates(message)])
    assert orders[0] == orders[1] == orders[2]
    ranked = orders[0]
    # the exact-token statement outscores the tied rest...
    assert ranked[0] == 3
    # ...and the tied remainder ranks by insertion (statement) order
    assert ranked[1:] == sorted(ranked[1:])


def test_shared_template_disambiguated_by_location():
    shared = "Removing {} from the queue"
    stmts = [_stmt("mod.a", 10, shared), _stmt("mod.b", 99, shared)]
    index = PatternIndex.from_statements(stmts)
    hit = index.match_identity(shared, ("mod.b", 99), ("item7",))
    assert hit is not None
    pattern, values = hit
    assert pattern.statement.key() == ("mod.b", 99)
    assert values == ("item7",)
    # a location that is not one of the sharing statements cannot decide:
    # identity refuses and match_record falls back to the scored regex
    assert index.match_identity(shared, ("mod.c", 1), ("item7",)) is None
    record = _record(shared, ("item7",), ("mod.c", 1))
    fallback = index.match_record(record)
    assert fallback is not None and fallback[1] == ("item7",)


def test_identity_refuses_unknown_template_and_arity_mismatch():
    stmts = [_stmt("m", 1, "Assigned {} to {}")]
    index = PatternIndex.from_statements(stmts)
    assert index.match_identity("some foreign line", ("m", 1), ()) is None
    # logging bug in the system under test: extra arg is appended to the
    # rendered text, so only the regex lane reproduces the slow answer
    assert index.match_identity("Assigned {} to {}", ("m", 1),
                                ("t1", "n1", "extra")) is None
    record = _record("Assigned {} to {}", ("t1", "n1", "extra"), ("m", 1))
    hit = index.match_record(record)
    assert hit is not None
    assert hit[1] == ("t1", "n1 extra")  # the regex lane's reading


def test_match_record_on_rendered_text_only_record():
    # foreign record: a template that is really a rendered line, no args
    stmts = [_stmt("m", 1, "Worker {} joined pool {}")]
    index = PatternIndex.from_statements(stmts)
    record = _record("Worker w1 joined pool p2", (), ("other", 5),
                     message="Worker w1 joined pool p2")
    hit = index.match_record(record)
    assert hit is not None
    assert hit[1] == ("w1", "p2")


# ----------------------------------------------------------------------
# lazy rendering
# ----------------------------------------------------------------------

def test_record_message_rendered_lazily_and_cached():
    record = _record("x {} y {}", ("1", "2"), ("m", 1))
    assert record._message is None  # nothing rendered yet
    assert record.message == "x 1 y 2"
    assert record._message == "x 1 y 2"  # cached
    assert record.message is record._message


def test_record_explicit_message_wins_over_rendering():
    record = _record("x {}", ("1",), ("m", 1), message="pre-rendered")
    assert record.message == "pre-rendered"


def test_record_equality_ignores_render_cache():
    a = _record("x {}", ("1",), ("m", 1))
    b = _record("x {}", ("1",), ("m", 1))
    assert a == b and hash(a) == hash(b)
    _ = a.message  # render one of them
    assert a == b and hash(a) == hash(b)


# ----------------------------------------------------------------------
# OnlineMetaStore: one normalization at the boundary
# ----------------------------------------------------------------------

def test_store_normalizes_padded_values_once_at_the_boundary():
    store = OnlineMetaStore(hosts=["node1", "node2"])
    store.process(["  node1:8031  ", "\tapp_0001 ", "   "])
    # stored keys are the normalized forms, exactly once
    assert set(store.value_node) == {"node1:8031", "app_0001"}
    assert store.value_node["app_0001"] == "node1"
    # padded probes hit the same entries
    assert store.query("app_0001") == "node1"
    assert store.query("  app_0001\t") == "node1"
    assert store.query(" node1:8031 ") == "node1"
    assert store.node_set == {"node1:8031"}
