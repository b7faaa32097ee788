"""Find logging statements in system source (paper Section 3.1.1, step 1).

Exactly as the paper does for Log4j/SLF4J, logging statements are found by
*name matching alone*: any call whose method name is one of the six logging
interface names (``fatal error warn info debug trace``) and whose first
argument is a string literal is a logging statement.  No knowledge of the
``repro.mtlog`` package is used — a system could ship its own logger and
still be analysed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import textwrap
from dataclasses import dataclass, field
from types import ModuleType
from typing import List, Optional, Tuple

from repro.mtlog.records import LEVELS


@dataclass(frozen=True)
class LogStatement:
    """One logging call site in system source."""

    module: str
    lineno: int
    level: str
    template: str
    #: source text of each placeholder argument, e.g. ("node_id.host", "node_id")
    arg_sources: Tuple[str, ...]

    def key(self) -> Tuple[str, int]:
        return (self.module, self.lineno)


@dataclass
class ModuleSource:
    """Parsed source of one system module, shared by all analyses."""

    module: ModuleType
    name: str
    source: str
    tree: ast.AST

    @classmethod
    def load(cls, module: ModuleType) -> "ModuleSource":
        source = textwrap.dedent(inspect.getsource(module))
        return cls(module=module, name=module.__name__, source=source,
                   tree=ast.parse(source))

    def __reduce__(self):
        # neither a module nor its AST pickles usefully: round-trip by
        # name and re-parse (the setup cache keys on the source digest)
        return _load_named, (self.name,)


def _load_named(name: str) -> ModuleSource:
    return ModuleSource.load(importlib.import_module(name))


def load_sources(modules: List[ModuleType]) -> List[ModuleSource]:
    return [ModuleSource.load(m) for m in modules]


class _LogVisitor(ast.NodeVisitor):
    def __init__(self, module_name: str):
        self.module_name = module_name
        self.statements: List[LogStatement] = []

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in LEVELS:
            return
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        args = tuple(ast.unparse(a) for a in node.args[1:])
        self.statements.append(
            LogStatement(
                module=self.module_name,
                lineno=node.lineno,
                level=func.attr,
                template=first.value,
                arg_sources=args,
            )
        )


def find_logging_statements(sources: List[ModuleSource]) -> List[LogStatement]:
    """All logging statements across the given modules, in source order."""
    out: List[LogStatement] = []
    for src in sources:
        visitor = _LogVisitor(src.name)
        visitor.visit(src.tree)
        out.extend(visitor.statements)
    return out
