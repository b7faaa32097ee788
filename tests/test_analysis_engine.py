"""Tests for the interprocedural analysis engine: summaries, provenance,
superset equivalence with the single-shot path, and incremental caching."""

import ast
import textwrap
import types as types_mod
from types import SimpleNamespace

import pytest

from repro.core.analysis import (
    AnalysisEngine,
    analyze_system,
    compute_crash_points,
    compute_summaries,
    infer_meta_info,
    load_sources,
    point_key,
)
from repro.core.analysis.logging_statements import ModuleSource
from repro.core.analysis.static_points import MetaInfoTypes, extract_access_points
from repro.core.analysis.types import ExprTyper, TypeModel, TypeRef
from repro.systems import get_system
from tests.conftest import prepared


def make_source(name: str, code: str) -> ModuleSource:
    code = textwrap.dedent(code)
    return ModuleSource(module=types_mod.ModuleType(name), name=name,
                        source=code, tree=ast.parse(code))


EMPTY_LOGS = SimpleNamespace(meta_slots=set())


# ---------------------------------------------------------------------------
# superset equivalence: engine-on ⊇ engine-off, identical Table 12
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("system_name", ["yarn", "hbase"])
def test_engine_is_strict_superset_of_single_shot(system_name):
    _, on, _, _ = prepared(system_name)
    # the single-shot oracle: the original intraprocedural pipeline, run
    # stage by stage over the same sources, statements and log analysis
    model = TypeModel.build(on.sources)
    extraction = extract_access_points(model, on.sources, patched=frozenset())
    meta = infer_meta_info(model, on.log_result, on.statements, extraction)
    off = compute_crash_points(model, extraction, meta)

    off_keys = {point_key(p) for p in off.crash_points}
    intra = [p for p in on.crash.crash_points if p.lane == "intra"]
    inter = [p for p in on.crash.crash_points if p.lane == "inter"]

    # the engine's intra lane IS the single-shot result
    assert {point_key(p) for p in intra} == off_keys
    # and every point the engine adds is genuinely new
    assert not off_keys & {point_key(p) for p in inter}
    # pruning statistics (Table 12) are byte-identical to engine-off
    assert on.crash.pruned_constructor == off.pruned_constructor
    assert on.crash.pruned_unused == off.pruned_unused
    assert on.crash.pruned_sanity == off.pruned_sanity
    assert on.crash.promoted == off.promoted

    # at least one interprocedurally discovered crash point per system,
    # with a complete provenance chain back to a seed logging statement
    assert inter, f"no interprocedural crash points found in {system_name}"
    for point in inter:
        key = point_key(point)
        assert on.engine.provenance.reaches_seed(key)
        chain = on.engine.provenance.chain_for(key)
        assert any("log statement" in line for line in chain)


def test_engine_extras_extend_meta_access_points():
    _, on, _, _ = prepared("yarn")
    inter = [p for p in on.crash.crash_points if p.lane == "inter"]
    meta_keys = {point_key(p) for p in on.crash.meta_access_points}
    # Table 10's invariant survives the merge: crash points ⊆ meta accesses
    assert all(point_key(p) in meta_keys for p in inter)
    assert on.totals()["static_crash_points"] <= on.totals()["meta_access_points"]


# ---------------------------------------------------------------------------
# summary fixpoint units
# ---------------------------------------------------------------------------
SUMMARY_CODE = """
    from typing import Dict, List
    from repro.cluster.ids import NodeId

    class Helper:
        def __init__(self, node_id: NodeId):
            self.node = node_id

        def fetch(self):
            return self.node

    class User:
        def __init__(self):
            self.h = Helper(NodeId("h", 1))
            self.nodes: List[NodeId] = []

        def use(self):
            n = self.h.fetch()
            return n

        def give(self):
            self._take(self.h)

        def _take(self, helper):
            return helper.node

        def scan(self):
            for w in self.nodes:
                yield w
"""


@pytest.fixture(scope="module")
def summary_model():
    from repro.cluster import ids

    sources = [make_source("summod", SUMMARY_CODE)] + load_sources([ids])
    model = TypeModel.build(sources)
    table, iterations = compute_summaries(model)
    return model, table, iterations


def test_return_type_inferred_from_return_expressions(summary_model):
    model, table, iterations = summary_model
    assert iterations >= 1
    assert table.return_type("Helper", "fetch") == TypeRef("NodeId")
    # the summary feeds back into expression typing
    user = model.classes["User"]
    typer = ExprTyper(model, user, user.methods["use"], summaries=table)
    call = ast.parse("self.h.fetch()", mode="eval").body
    assert typer.type_of(call) == TypeRef("NodeId")
    # without summaries the same expression is untypeable
    bare = ExprTyper(model, user, user.methods["use"])
    assert bare.type_of(call) is None


def test_argument_types_propagate_into_unannotated_params(summary_model):
    model, table, _ = summary_model
    assert table.param_type("User", "_take", "helper") == TypeRef("Helper")
    user = model.classes["User"]
    typer = ExprTyper(model, user, user.methods["_take"], summaries=table)
    read = ast.parse("helper.node", mode="eval").body
    assert typer.type_of(read) == TypeRef("NodeId")


def test_loop_targets_are_element_typed(summary_model):
    model, table, _ = summary_model
    user = model.classes["User"]
    typer = ExprTyper(model, user, user.methods["scan"], summaries=table)
    assert typer.type_of(ast.parse("w", mode="eval").body) == TypeRef("NodeId")
    # element typing is an engine-lane feature: baseline stays blind
    bare = ExprTyper(model, user, user.methods["scan"])
    assert bare.type_of(ast.parse("w", mode="eval").body) is None


def test_summary_use_recording_drains_facts(summary_model):
    model, table, _ = summary_model
    user = model.classes["User"]
    table.record_uses = True
    table.drain_uses()
    typer = ExprTyper(model, user, user.methods["_take"], summaries=table)
    typer.type_of(ast.parse("helper.node", mode="eval").body)
    facts = table.drain_uses()
    table.record_uses = False
    assert ("User", "_take", "param", "helper") in facts


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------
MOD_A = """
    class Alpha:
        def __init__(self):
            self.beta = Beta()

        def run(self):
            return self.beta.ping()
"""
MOD_B = """
    class Beta:
        def __init__(self):
            self.count = 0

        def ping(self):
            return self.count
"""
MOD_C = """
    class Gamma:
        def __init__(self):
            self.tag = "g"

        def label(self):
            return self.tag
"""


def _cache_sources(touch=()):
    out = []
    for name, code in (("mod_a", MOD_A), ("mod_b", MOD_B), ("mod_c", MOD_C)):
        code = textwrap.dedent(code)
        if name in touch:
            code = code + "\n# touched\n"
        out.append(make_source(name, code))
    return out


def test_incremental_cache_reextracts_only_dependents():
    engine = AnalysisEngine()
    r1 = engine.analyze(_cache_sources(), [], EMPTY_LOGS)
    assert r1.stats["modules_reextracted"] == 3
    assert r1.stats["modules_cached"] == 0

    # identical sources: everything comes from the cache
    r2 = engine.analyze(_cache_sources(), [], EMPTY_LOGS)
    assert r2.stats["modules_changed"] == 0
    assert r2.stats["modules_reextracted"] == 0
    assert r2.stats["modules_cached"] == 3

    # mod_c shares no call edges: touching it re-extracts only mod_c
    r3 = engine.analyze(_cache_sources(touch={"mod_c"}), [], EMPTY_LOGS)
    assert r3.stats["modules_changed"] == 1
    assert r3.stats["modules_reextracted"] == 1

    # mod_b is called from mod_a (Alpha -> Beta), so touching mod_b
    # invalidates both; mod_c (unchanged since r3) stays cached
    r4 = engine.analyze(_cache_sources(touch={"mod_c", "mod_b"}), [], EMPTY_LOGS)
    assert r4.stats["modules_changed"] == 1
    assert r4.stats["modules_reextracted"] == 2
    assert r4.stats["modules_cached"] == 1


def test_patched_switchboard_change_flushes_cache():
    engine = AnalysisEngine()
    engine.analyze(_cache_sources(), [], EMPTY_LOGS)
    r = engine.analyze(_cache_sources(), [], EMPTY_LOGS,
                       patched=frozenset({"BUG-1"}))
    assert r.stats["modules_reextracted"] == 3


def test_cached_run_equals_cold_run_on_real_system():
    system = get_system("yarn")
    cold = analyze_system(system, engine=AnalysisEngine())
    engine = AnalysisEngine()
    engine.analyze(cold.sources, cold.statements, cold.log_result)
    warm = analyze_system(system, engine=engine)
    assert warm.engine.stats["modules_reextracted"] == 0
    assert ([point_key(p) for p in warm.crash.crash_points]
            == [point_key(p) for p in cold.crash.crash_points])


# ---------------------------------------------------------------------------
# promotion dispatches through subtype receivers
# ---------------------------------------------------------------------------
PROMOTE_CODE = """
    from typing import Dict, Optional
    from repro.cluster import Node, tracked_dict
    from repro.cluster.ids import NodeId

    class BaseMaster(Node):
        d: Dict[NodeId, str] = tracked_dict()

        def lookup(self, k: NodeId):
            return self.d.get(k)

    class SubMaster(BaseMaster):
        pass

    class Driver:
        def drive(self, m: SubMaster, k: NodeId):
            v = m.lookup(k)
            return len(str(v))
"""


def test_return_only_promotion_through_subtype_receiver():
    from repro.cluster import ids

    sources = [make_source("promomod", PROMOTE_CODE)] + load_sources([ids])
    model = TypeModel.build(sources)
    extraction = extract_access_points(model, sources)
    meta = MetaInfoTypes(
        logged_types={"NodeId"},
        types={"NodeId"},
        fields={("BaseMaster", "d")},
        logged_base_fields=set(),
    )
    result = compute_crash_points(model, extraction, meta)
    promoted = [p for p in result.crash_points if p.promoted]
    # the call site types its receiver as the subtype, but promotion
    # dispatches the return-only read through subtypes_of(BaseMaster)
    assert any(p.enclosing == "Driver.drive" for p in promoted)
