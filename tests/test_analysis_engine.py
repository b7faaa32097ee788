"""Tests for the interprocedural analysis engine: summaries, provenance,
superset equivalence with the single-shot path, and statelessness."""

import ast
import textwrap
import types as types_mod
from types import SimpleNamespace

import pytest

from repro.core.analysis import (
    AnalysisEngine,
    compute_crash_points,
    compute_summaries,
    infer_meta_info,
    load_sources,
    point_key,
)
from repro.core.analysis.logging_statements import ModuleSource
from repro.core.analysis.static_points import MetaInfoTypes, extract_access_points
from repro.core.analysis.types import ExprTyper, TypeModel, TypeRef
from tests.conftest import prepared


def make_source(name: str, code: str) -> ModuleSource:
    code = textwrap.dedent(code)
    return ModuleSource(module=types_mod.ModuleType(name), name=name,
                        source=code, tree=ast.parse(code))


EMPTY_LOGS = SimpleNamespace(meta_slots=set())


# ---------------------------------------------------------------------------
# superset equivalence: engine-on ⊇ engine-off, identical Table 12
# ---------------------------------------------------------------------------
#: inter-lane crash points per system: what the augmented pass adds
INTER_POINTS = {"yarn": 5, "hdfs": 0, "hbase": 1, "zookeeper": 0,
                "cassandra": 0, "kube": 2}


@pytest.mark.parametrize("system_name", list(INTER_POINTS))
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

    # the augmented pass's extras, each with a complete provenance chain
    # back to a seed logging statement
    assert len(inter) == INTER_POINTS[system_name]
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
# statelessness: a reused engine answers as a fresh one
# ---------------------------------------------------------------------------
MOD_X_V1 = """
    class Foo:
        def __init__(self):
            self.tag = "x"
"""
MOD_X_V2 = """
    from repro.cluster.ids import NodeId

    class Foo:
        def __init__(self, owner: NodeId):
            self.tag = "x"
            self.owner = owner
"""
# Bar.f is typed only by its __init__ parameter's annotation: mod_y has
# no call edge into mod_x and no base class there
MOD_Y = """\
    from mod_x import Foo

    class Bar:
        def __init__(self, f: Foo):
            self.f = f

        def peek(self):
            return self.f.owner
"""


def _extracted(result):
    return sorted((p.module, p.lineno, p.field_cls, p.field_name, p.op)
                  for p in result.extraction.points)


def test_reused_engine_sees_a_field_added_in_another_module():
    def sources(mod_x):
        return [make_source("mod_x", mod_x), make_source("mod_y", MOD_Y)]

    engine = AnalysisEngine()
    engine.analyze(sources(MOD_X_V1), [], EMPTY_LOGS)
    reused = engine.analyze(sources(MOD_X_V2), [], EMPTY_LOGS)
    fresh = AnalysisEngine().analyze(sources(MOD_X_V2), [], EMPTY_LOGS)

    assert ("mod_y", 8, "mod_x.Foo", "owner", "read") in _extracted(fresh)
    assert _extracted(reused) == _extracted(fresh)


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
