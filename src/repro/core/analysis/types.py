"""A type model of the system under test, built from its Python AST.

This plays the role WALA's class-hierarchy and type information play in the
paper: it knows every class, every field and its declared type, every
method's parameter/return annotations, and in which methods each field is
assigned (for Definition 2's "only set in the constructors" rule).

It also provides a small expression typer, used to answer the two
questions the analyses ask:

* what is the static type of a logged variable (``LOG.info("... {}", x)``)?
* what is the static type of an access-site receiver (``x.field``)?

The typer is deliberately modest — annotations, constructor calls, field
and method lookups — mirroring the paper's choice of a cheap type-based
analysis over a precise pointer analysis (Section 3.1.2).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.analysis.logging_statements import ModuleSource

#: Base types excluded from Definition 2's generalization rules
#: (the paper's Integer, String, Enum, byte[], File).
BASE_TYPE_NAMES = {
    "str", "int", "float", "bool", "bytes", "object", "Any", "None",
    "Enum", "File",
}

#: Names that denote collections (the paper's "collection types").
COLLECTION_TYPE_NAMES = {"Dict", "List", "Set", "Tuple", "dict", "list", "set", "tuple"}

#: Wrappers to look through when judging a type.
TRANSPARENT_TYPE_NAMES = {"Optional", "Union"}


@dataclass(frozen=True)
class TypeRef:
    """A resolved type reference, e.g. ``Dict[NodeId, SchedulerNode]``."""

    name: str
    args: Tuple["TypeRef", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}[{', '.join(str(a) for a in self.args)}]"

    @property
    def is_collection(self) -> bool:
        return self.name in COLLECTION_TYPE_NAMES

    @property
    def is_base(self) -> bool:
        return self.name in BASE_TYPE_NAMES

    def leaves(self) -> List["TypeRef"]:
        """The concrete type names this reference mentions (through
        Optional/Union wrappers and collection parameters)."""
        if self.name in TRANSPARENT_TYPE_NAMES or self.is_collection:
            out: List[TypeRef] = []
            for arg in self.args:
                out.extend(arg.leaves())
            return out
        return [self]


@dataclass
class FieldInfo:
    """One declared field of a class."""

    name: str
    owner: str
    type: Optional[TypeRef]
    #: "ref" (tracked scalar), "collection" (tracked container), "plain"
    kind: str
    #: method names in which the field is assigned ("<class>" = class body)
    assigned_in: Set[str] = field(default_factory=set)

    def constructor_only(self) -> bool:
        return self.assigned_in <= {"__init__", "<class>"}

    @property
    def is_collection(self) -> bool:
        return self.kind == "collection" or (self.type is not None and self.type.is_collection)


@dataclass
class MethodInfo:
    """One method: annotations plus its AST for the expression typer.

    Pickling drops ``node``; a loaded method re-finds it in its
    ``source``'s tree on first read.
    """

    name: str
    owner: str
    params: Dict[str, Optional[TypeRef]]
    returns: Optional[TypeRef]
    node: ast.FunctionDef
    lineno: int
    end_lineno: int
    source: ModuleSource = field(repr=False, compare=False)

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "node"}

    def __getattr__(self, name: str) -> Any:
        # reached only for an attribute not set: ``node`` after a load
        if name != "node":
            raise AttributeError(name)
        self.node = self.source.function_at(self.lineno)
        return self.node


@dataclass
class ClassInfo:
    name: str
    module: str
    bases: List[str]
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    lineno: int = 0
    end_lineno: int = 0


def _annotation_to_typeref(node: Optional[ast.AST]) -> Optional[TypeRef]:
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            try:
                return _annotation_to_typeref(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                return None
        if node.value is None:
            return TypeRef("None")
        return None
    if isinstance(node, ast.Name):
        return TypeRef(node.id)
    if isinstance(node, ast.Attribute):
        return TypeRef(node.attr)
    if isinstance(node, ast.Subscript):
        base = _annotation_to_typeref(node.value)
        if base is None:
            return None
        slc = node.slice
        arg_nodes = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        args = tuple(
            a for a in (_annotation_to_typeref(n) for n in arg_nodes) if a is not None
        )
        return TypeRef(base.name, args)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | Y
        left = _annotation_to_typeref(node.left)
        right = _annotation_to_typeref(node.right)
        args = tuple(a for a in (left, right) if a is not None)
        return TypeRef("Union", args)
    return None


class BodyIndex:
    """One function body, walked once.

    ``nodes`` is the body in :func:`ast.walk`'s breadth-first order (the
    typer's prepass depends on it: the first assignment wins),
    ``parent`` maps each node to its parent, and ``loads`` maps an
    identifier to its Load-context ``Name`` uses, in walk order.
    """

    __slots__ = ("nodes", "parent", "loads", "_kinds")

    def __init__(self, root: ast.AST) -> None:
        nodes: List[ast.AST] = [root]
        parent: Dict[ast.AST, ast.AST] = {}
        loads: Dict[str, List[ast.Name]] = {}
        for node in nodes:  # grows while iterated: breadth-first
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    nodes.append(value)
                    parent[value] = node
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            nodes.append(item)
                            parent[item] = node
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
        self.nodes = nodes
        self.parent = parent
        self.loads = loads
        self._kinds: Dict[Tuple[type, ...], List[Any]] = {}

    def of(self, *kinds: type) -> List[Any]:
        """The nodes that are instances of ``kinds``, in walk order."""
        if kinds not in self._kinds:
            self._kinds[kinds] = [n for n in self.nodes if isinstance(n, kinds)]
        return self._kinds[kinds]

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        parent = self.parent
        while node in parent:
            node = parent[node]
            yield node


#: declaration kinds recognized in class bodies
_TRACKED_DECLS = {
    "tracked_ref": "ref",
    "tracked_dict": "collection",
    "tracked_set": "collection",
    "tracked_list": "collection",
}


class TypeModel:
    """All classes of a system, with lookup helpers."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        #: method node -> its body index, built on first use; the engine
        #: releases them when its analysis ends and pickling drops them,
        #: so a later reader (or a setup-cache hit) rebuilds on demand
        self._bodies: Dict[ast.AST, BodyIndex] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "_bodies"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state, _bodies={})

    def body(self, method: MethodInfo) -> BodyIndex:
        """The body index of ``method``, built on first use."""
        if method.node not in self._bodies:
            self._bodies[method.node] = BodyIndex(method.node)
        return self._bodies[method.node]

    def release_bodies(self) -> None:
        """Drop the body indexes; a later reader rebuilds them."""
        self._bodies.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: List[ModuleSource]) -> "TypeModel":
        model = cls()
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    model._add_class(src, node)
        return model

    def _add_class(self, src: ModuleSource, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        info = ClassInfo(
            name=node.name, module=src.name, bases=bases,
            lineno=node.lineno, end_lineno=node.end_lineno or node.lineno,
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                kind = "plain"
                if isinstance(stmt.value, ast.Call) and isinstance(stmt.value.func, ast.Name):
                    kind = _TRACKED_DECLS.get(stmt.value.func.id, "plain")
                info.fields[stmt.target.id] = FieldInfo(
                    name=stmt.target.id, owner=node.name,
                    type=_annotation_to_typeref(stmt.annotation),
                    kind=kind, assigned_in={"<class>"},
                )
            elif isinstance(stmt, ast.FunctionDef):
                self._add_method(info, stmt, src)
        self.classes[node.name] = info

    def _add_method(self, cls_info: ClassInfo, node: ast.FunctionDef,
                    src: ModuleSource) -> None:
        params: Dict[str, Optional[TypeRef]] = {}
        for arg in node.args.args + node.args.kwonlyargs:
            params[arg.arg] = _annotation_to_typeref(arg.annotation)
        method = MethodInfo(
            name=node.name, owner=cls_info.name, params=params,
            returns=_annotation_to_typeref(node.returns), node=node,
            lineno=node.lineno, end_lineno=node.end_lineno or node.lineno,
            source=src,
        )
        cls_info.methods[node.name] = method

        def infer_value_type(value: Optional[ast.AST]) -> Optional[TypeRef]:
            # `self.x = x` with an annotated parameter is the dominant
            # constructor idiom; fall back to literal/constructor inference.
            if isinstance(value, ast.Name) and value.id in params:
                return params[value.id]
            return _literal_type(value)
        # record field assignments (`self.x = ...` / `self.x: T = ...`)
        for sub in self.body(method).of(ast.Assign, ast.AnnAssign):
            target: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, annotation, value = sub.target, sub.annotation, sub.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            fname = target.attr
            existing = cls_info.fields.get(fname)
            if existing is None:
                cls_info.fields[fname] = FieldInfo(
                    name=fname, owner=cls_info.name,
                    type=_annotation_to_typeref(annotation) or infer_value_type(value),
                    kind="plain", assigned_in={node.name},
                )
            else:
                existing.assigned_in.add(node.name)
                if existing.type is None:
                    existing.type = _annotation_to_typeref(annotation) or infer_value_type(value)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup_field(self, class_name: str, field_name: str) -> Optional[FieldInfo]:
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            if field_name in info.fields:
                return info.fields[field_name]
            stack.extend(info.bases)
        return None

    def lookup_method(self, class_name: str, method_name: str) -> Optional[MethodInfo]:
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            if method_name in info.methods:
                return info.methods[method_name]
            stack.extend(info.bases)
        return None

    def subtypes_of(self, type_name: str) -> Set[str]:
        """Transitive subtypes (by bare class name) of ``type_name``."""
        out: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                if info.name in out:
                    continue
                if any(b == type_name or b in out for b in info.bases):
                    out.add(info.name)
                    changed = True
        return out

    def context_of(self, module: str, lineno: int) -> Tuple[Optional[ClassInfo], Optional[MethodInfo]]:
        """The (class, method) whose source range contains the line."""
        best_cls: Optional[ClassInfo] = None
        for info in self.classes.values():
            if info.module == module and info.lineno <= lineno <= info.end_lineno:
                if best_cls is None or info.lineno > best_cls.lineno:
                    best_cls = info
        if best_cls is None:
            return None, None
        best_m: Optional[MethodInfo] = None
        for method in best_cls.methods.values():
            if method.lineno <= lineno <= method.end_lineno:
                if best_m is None or method.lineno > best_m.lineno:
                    best_m = method
        return best_cls, best_m

    def all_fields(self) -> List[FieldInfo]:
        return [f for c in self.classes.values() for f in c.fields.values()]


def _literal_type(value: Optional[ast.AST]) -> Optional[TypeRef]:
    if isinstance(value, ast.Constant):
        if isinstance(value.value, bool):
            return TypeRef("bool")
        if isinstance(value.value, int):
            return TypeRef("int")
        if isinstance(value.value, float):
            return TypeRef("float")
        if isinstance(value.value, str):
            return TypeRef("str")
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return TypeRef(value.func.id)
    return None


class ExprTyper:
    """Types expressions inside one method, from annotations outward.

    With ``summaries`` (a
    :class:`~repro.core.analysis.summaries.SummaryTable`), the typer also
    consults interprocedurally inferred facts wherever annotations come up
    empty — unannotated parameters, unannotated returns — and types
    loop/comprehension targets from their iterable's element type.  The
    default (``summaries=None``) is byte-identical to the paper-faithful
    intraprocedural typer.
    """

    def __init__(
        self,
        model: TypeModel,
        cls: Optional[ClassInfo],
        method: Optional[MethodInfo],
        summaries: Optional[Any] = None,
    ):
        self.model = model
        self.cls = cls
        self.method = method
        self.summaries = summaries
        self._locals: Dict[str, Optional[TypeRef]] = {}
        #: locals typed from an iterable's element type (engine lane only)
        self._element_locals: Set[str] = set()
        if method is not None:
            self._locals.update(method.params)
            # one prepass over local assignments (flow-insensitive)
            bindings = model.body(method).of(
                ast.Assign, ast.AnnAssign, ast.For, ast.comprehension)
            for sub in bindings:
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    tgt = sub.targets[0]
                    if isinstance(tgt, ast.Name) and tgt.id not in self._locals:
                        self._locals[tgt.id] = self.type_of(sub.value)
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    self._locals[sub.target.id] = _annotation_to_typeref(sub.annotation)
                elif summaries is not None and isinstance(sub, ast.For):
                    self._type_loop_target(sub.target, sub.iter)
                elif summaries is not None and isinstance(sub, ast.comprehension):
                    self._type_loop_target(sub.target, sub.iter)

    # -- engine lane: element types for loop/comprehension targets -------
    def _type_loop_target(self, target: ast.AST, iterable: ast.AST) -> None:
        elem = self._element_type(iterable)
        if elem is None:
            return
        if isinstance(target, ast.Name):
            if self._locals.get(target.id) is None:
                self._locals[target.id] = elem
                self._element_locals.add(target.id)
        elif isinstance(target, ast.Tuple) and elem.name == "Tuple":
            for part, ref in zip(target.elts, elem.args):
                if isinstance(part, ast.Name) and self._locals.get(part.id) is None:
                    self._locals[part.id] = ref
                    self._element_locals.add(part.id)

    def _element_type(self, iterable: ast.AST) -> Optional[TypeRef]:
        ref = self.type_of(iterable)
        if ref is None:
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id in ("list", "sorted", "set", "tuple", "iter", "reversed")
                and iterable.args
            ):
                return self._element_type(iterable.args[0])
            return None
        if ref.is_collection and ref.args:
            if ref.name in ("Dict", "dict"):
                return ref.args[0]  # iterating a mapping yields its keys
            return ref.args[-1]
        return None

    def type_of(self, node: ast.AST) -> Optional[TypeRef]:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return TypeRef(self.cls.name)
            ref = self._locals.get(node.id)
            if ref is None and self.summaries is not None and self.method is not None:
                if node.id in self.method.params:
                    return self.summaries.param_type(
                        self.method.owner, self.method.name, node.id
                    )
            if (
                ref is not None
                and node.id in self._element_locals
                and self.summaries is not None
                and self.method is not None
            ):
                self.summaries.note_element(self.method.owner, self.method.name, node.id)
            return ref
        if isinstance(node, ast.Attribute):
            receiver = self.type_of(node.value)
            if receiver is None:
                return None
            field_info = self.model.lookup_field(receiver.name, node.attr)
            if field_info is not None:
                return field_info.type
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("str", "repr", "format"):
                    return TypeRef("str")
                if func.id in ("len", "int", "hash"):
                    return TypeRef("int")
                if func.id in self.model.classes:
                    return TypeRef(func.id)
                return None
            if isinstance(func, ast.Attribute):
                receiver = self.type_of(func.value)
                if receiver is None:
                    return None
                method = self.model.lookup_method(receiver.name, func.attr)
                if method is not None:
                    if method.returns is not None:
                        return method.returns
                    if self.summaries is not None:
                        return self.summaries.return_type(method.owner, method.name)
                    return None
                # collection accessors: m.get(k) on Dict[K, V] -> V
                if receiver.is_collection and len(receiver.args) >= 1:
                    if func.attr in ("get", "remove", "pop"):
                        return receiver.args[-1]
                    if self.summaries is not None:
                        # tracked-container views (engine lane only)
                        if func.attr in ("snapshot", "copy"):
                            return receiver
                        if func.attr == "values":
                            return TypeRef("List", (receiver.args[-1],))
                        if func.attr == "keys":
                            return TypeRef("List", (receiver.args[0],))
                        if func.attr == "items" and len(receiver.args) == 2:
                            return TypeRef("List", (TypeRef("Tuple", tuple(receiver.args)),))
                return None
            return None
        if isinstance(node, ast.JoinedStr):
            return TypeRef("str")
        if isinstance(node, ast.Constant):
            return _literal_type(node)
        if isinstance(node, ast.Subscript):
            receiver = self.type_of(node.value)
            if receiver is not None and receiver.is_collection and receiver.args:
                return receiver.args[-1]
            return None
        return None
