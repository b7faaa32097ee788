"""Phase 1's output, pinned; and the body index it is computed from.

``tests/data/phase1_digests.json`` holds one digest per system and seed
over everything the static stage decides: the crash points (with lane
and ``promoted_from``) and their provenance chains, the extraction's
points and call sites, Table 12's pruning counts, the meta-info types and
fields, and the engine's stats.  A change that means to move phase 1
regenerates the file with ``python -m tests.test_phase1_identity``
(``python -m tests.pins`` checks it, with the outcome pins, without pytest).

Every pass of the static stage reads a method body through its
:class:`~repro.core.analysis.types.BodyIndex`; the tests below hold the
index to :func:`ast.walk` and to "one build per body per analysis".
"""

import ast
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.core.analysis import analysis_modules, analyze_system
from repro.core.analysis import types as analysis_types
from repro.core.analysis.summaries import _own_returns
from repro.core.analysis.types import BodyIndex, TypeModel
from repro.systems import bundled_systems, get_system
from tests.conftest import prepared
from tests.pins import phase1_digest

PIN_FILE = Path(__file__).parent / "data" / "phase1_digests.json"
SYSTEMS = tuple(system.name for system in bundled_systems())
SEEDS = (0, 1)
#: node classes the parser shares between parents (Load(), Add(), ...)
SHARED = (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_phase1_output_equals_the_pin(name, seed):
    pins = json.loads(PIN_FILE.read_text())
    got = phase1_digest(prepared(name, seed=seed)[1])
    assert got == pins[name][str(seed)], f"{name}: pinned {pins[name][str(seed)]}, got {got}"


def test_analysis_builds_one_index_per_function_body(monkeypatch):
    built = []

    class CountingIndex(BodyIndex):
        __slots__ = ()

        def __init__(self, root):
            built.append(root)
            super().__init__(root)

    monkeypatch.setattr(analysis_types, "BodyIndex", CountingIndex)
    report = analyze_system(get_system("yarn"))
    bodies = [m.node for c in report.model.classes.values()
              for m in c.methods.values()]
    assert len(bodies) > 100
    assert sorted(map(id, built)) == sorted(map(id, bodies))


def _yarn_model():
    return TypeModel.build(analysis_modules(get_system("yarn")))


def test_body_index_is_the_ast_walk():
    model = _yarn_model()
    for cls in model.classes.values():
        for method in cls.methods.values():
            index = model.body(method)
            assert index.nodes == list(ast.walk(method.node))
            for parent in index.nodes:
                for child in ast.iter_child_nodes(parent):
                    if not isinstance(child, SHARED):
                        assert index.parent[child] is parent
            loads = {}
            for node in index.nodes:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id, []).append(node)
            assert index.loads == loads
            assert index.of(ast.Call) == [n for n in index.nodes
                                          if isinstance(n, ast.Call)]


def test_own_returns_skip_nested_scopes_last_first():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    def g():\n"
        "        return 2\n"
        "    h = lambda: 3\n"
        "    return 4\n")
    root = tree.body[0]
    own = _own_returns(BodyIndex(root), root)
    assert [ret.value.value for ret in own] == [4, 1]


def test_pickling_drops_the_body_indexes():
    model = _yarn_model()  # building it indexed every body
    indexed = pickle.dumps(model)
    model.release_bodies()
    assert pickle.dumps(model) == indexed
    assert b"BodyIndex" not in indexed
    assert pickle.loads(indexed)._bodies == {}


def main() -> int:
    """Print the digests of the current tree, in the pin file's shape."""
    pins = {name: {str(seed): phase1_digest(analyze_system(get_system(name), seed=seed))
                   for seed in SEEDS} for name in SYSTEMS}
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
