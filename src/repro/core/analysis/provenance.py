"""Provenance for the static analysis: *why* is this a crash point?

Every conclusion the analysis draws — a type is meta-info, a field is
meta-info, an access point is a crash point — is recorded as a node in a
small directed graph whose edges point from a conclusion to the facts it
was derived from.  Walking the edges from a crash point therefore yields
the full derivation chain the paper describes informally in Section 3.1:

    crash point  →  meta-info field  →  meta-info type  →  (closure
    rules: subtype / containing class)  →  logged type  →  the seed
    logging statement whose runtime values were node-related.

Interprocedurally discovered points carry extra ``summary`` nodes naming
the inferred method summaries (parameter/return/element types) that made
the receiver typeable at all.

Keys are plain tuples whose first element is the node kind:

* ``("stmt", module, lineno, slot)`` — a logging-statement placeholder
  (the roots: every complete chain ends in one of these),
* ``("type", name)`` — a meta-info type,
* ``("field", owner, name)`` — a meta-info field,
* ``("point", module, lineno, op, via, field_cls, field_name)`` — an
  access/crash point,
* ``("summary", owner, method, kind, name)`` — one inferred summary fact.

The graph is append-only and JSON-serializable; the report CLI renders
:meth:`Provenance.chain_for` under each crash point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

Key = Tuple[Any, ...]


def point_key(point: Any) -> Key:
    """The provenance key of an :class:`AccessPoint`."""
    return ("point", point.module, point.lineno, point.op, point.via,
            point.field_cls, point.field_name)


class Provenance:
    """Append-only derivation graph over analysis conclusions."""

    def __init__(self) -> None:
        #: node key -> human-readable label
        self.labels: Dict[Key, str] = {}
        #: child key -> [(parent key, rule), ...] in insertion order
        self.parents: Dict[Key, List[Tuple[Key, str]]] = {}
        self._edge_seen: Set[Tuple[Key, Key, str]] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def node(self, key: Key, label: str) -> Key:
        self.labels.setdefault(key, label)
        return key

    def edge(self, child: Key, parent: Key, rule: str) -> None:
        """Record "``child`` holds because of ``parent`` (by ``rule``)"."""
        token = (child, parent, rule)
        if token in self._edge_seen:
            return
        self._edge_seen.add(token)
        self.parents.setdefault(child, []).append((parent, rule))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def chain_for(self, key: Key, max_steps: int = 40) -> List[str]:
        """The derivation chain of ``key``, rendered one step per line.

        Depth-first from the conclusion toward its seeds; every node is
        visited once, so shared sub-derivations (a type justified by two
        statements) appear under their first parent only.
        """
        lines: List[str] = []
        visited: Set[Key] = set()

        def visit(node: Key, rule: Optional[str], depth: int) -> None:
            if len(lines) >= max_steps:
                return
            label = self.labels.get(node, "/".join(str(p) for p in node))
            prefix = "  " * depth + ("<- " if depth else "")
            suffix = f"  [{rule}]" if rule else ""
            lines.append(f"{prefix}{label}{suffix}")
            if node in visited:
                return
            visited.add(node)
            for parent, edge_rule in self.parents.get(node, ()):
                visit(parent, edge_rule, depth + 1)

        visit(key, None, 0)
        return lines

    def reaches_seed(self, key: Key) -> bool:
        """True if the derivation of ``key`` reaches a logging statement."""
        stack: List[Key] = [key]
        visited: Set[Key] = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            if node[0] == "stmt":
                return True
            stack.extend(parent for parent, _ in self.parents.get(node, ()))
        return False

    # ------------------------------------------------------------------
    # serialization (for the report CLI's --json dumps)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "nodes": [
                {"key": list(key), "label": label}
                for key, label in sorted(self.labels.items(), key=lambda kv: str(kv[0]))
            ],
            "edges": [
                {"child": list(child), "parent": list(parent), "rule": rule}
                for child, edges in sorted(self.parents.items(), key=lambda kv: str(kv[0]))
                for parent, rule in edges
            ],
        }


def describe_stmt(statement: Any, slot: int) -> str:
    """Label for a seed logging-statement node."""
    template = statement.template if statement is not None else "?"
    where = (f"{statement.module}:{statement.lineno}"
             if statement is not None else "?")
    return f"log statement {where} slot {slot}: {template!r}"
