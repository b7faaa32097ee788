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
import hashlib
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from functools import cached_property
from types import ModuleType
from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError
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


class ModuleSource:
    """Source of one system module, shared by all analyses.

    Pickled, it is its ``name`` and ``digest`` (a sha256 of ``source``)
    and nothing else: a loaded copy imports ``module``, reads ``source``
    and parses ``tree`` on first access, and raises
    :class:`~repro.errors.AnalysisError` if the source on disk no longer
    has that digest (DESIGN.md "Setup artefact").
    """

    def __init__(self, module: ModuleType, name: str, source: str,
                 tree: Optional[ast.AST] = None) -> None:
        self.name = name
        self.digest = _sha256(source)
        self.module = module
        self.source = source
        if tree is not None:
            self.tree = tree

    @classmethod
    def load(cls, module: ModuleType) -> "ModuleSource":
        return cls(module, module.__name__,
                   textwrap.dedent(inspect.getsource(module)))

    def __reduce__(self):
        return _saved_source, (self.name, self.digest)

    @cached_property
    def module(self) -> ModuleType:
        return importlib.import_module(self.name)

    @cached_property
    def source(self) -> str:
        source = textwrap.dedent(inspect.getsource(self.module))
        if _sha256(source) != self.digest:
            raise AnalysisError(
                f"{self.name}: the source on disk is not the source that "
                f"was analysed (sha256 {self.digest[:16]}...)")
        return source

    @cached_property
    def tree(self) -> ast.AST:
        return ast.parse(self.source)

    def function_at(self, lineno: int) -> ast.FunctionDef:
        """The function whose ``def`` is on line ``lineno``."""
        return self._functions[lineno]

    @cached_property
    def _functions(self) -> Dict[int, ast.FunctionDef]:
        return {node.lineno: node for node in ast.walk(self.tree)
                if isinstance(node, ast.FunctionDef)}


def _sha256(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def _saved_source(name: str, digest: str) -> ModuleSource:
    src = ModuleSource.__new__(ModuleSource)
    src.name, src.digest = name, digest
    return src


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
