"""Static crash-point analysis (paper Section 3.1.2).

Pipeline:

1. **Access-point extraction** — every getfield/putfield (attribute
   load/store on a known class field) and every collection operation whose
   method name matches a Table 3 keyword, with the usage classification
   the optimizations need (unused / logging-only / sanity-checked /
   return-only).
2. **Meta-info inference** — seed meta-info types from the logged
   meta-info variables, then apply the Definition 2 closure: subtypes,
   collection types, and containing classes whose meta-typed field is only
   set in constructors.  Base types (str/int/bytes/Enum/File) never
   generalize; logged base-typed *fields* are handled via their containing
   class.
3. **Crash points** — meta-info access points, pruned by the three
   optimizations and with return-only reads promoted to their call sites.

The ``patched`` configuration matters statically: a sanity check guarded by
``cluster.is_patched("X")`` only exists in builds where X is patched, so
the analysis honours the same switchboard the runtime does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.analysis.log_analysis import LogAnalysisResult
from repro.core.analysis.logging_statements import LogStatement, ModuleSource
from repro.core.analysis.provenance import Provenance, describe_stmt
from repro.core.analysis.types import (
    BASE_TYPE_NAMES,
    ClassInfo,
    ExprTyper,
    FieldInfo,
    MethodInfo,
    TypeModel,
)
from repro.mtlog.records import LEVELS

# ---------------------------------------------------------------------------
# Table 3: keywords of read and write operations for collection types
# ---------------------------------------------------------------------------
READ_KEYWORDS = (
    "get", "peek", "poll", "clone", "at", "element", "index",
    "toArray", "sub", "contain", "isEmpty", "exist", "values",
)
WRITE_KEYWORDS = (
    "add", "clear", "remove", "retain", "put", "insert", "set",
    "replace", "offer", "push", "pop", "copyInto",
)


def _norm(name: str) -> str:
    return name.replace("_", "").lower()


_READ_NORM = tuple(_norm(k) for k in READ_KEYWORDS)
_WRITE_NORM = tuple(_norm(k) for k in WRITE_KEYWORDS)


def collection_op_kind(method_name: str) -> Optional[str]:
    """"read"/"write" if the method name matches a Table 3 keyword."""
    name = _norm(method_name)
    for kw in _WRITE_NORM:
        if name.startswith(kw):
            return "write"
    for kw in _READ_NORM:
        if name.startswith(kw):
            return "read"
    return None


# ---------------------------------------------------------------------------
# access points
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AccessPoint:
    """One static access to a field (paper: getField/putField/collection op)."""

    module: str
    lineno: int
    field_cls: str  # runtime-compatible: "<module>.<Class>"
    field_name: str
    op: str  # "read" | "write"
    via: str  # "getfield", "putfield", or the collection method name
    enclosing: str  # "Class.method" (diagnostics)
    #: usage flags (reads only)
    unused: bool = False
    sanity_checked: bool = False
    return_only: bool = False
    #: for promoted points: the location of the original in-method read
    promoted_from: Optional[Tuple[str, int]] = None
    #: discovery lane: "intra" (the paper-faithful single-shot pass) or
    #: "inter" (only reachable through the engine's method summaries);
    #: excluded from equality so lane tagging never perturbs dedup
    lane: str = field(default="intra", compare=False)

    @property
    def location(self) -> Tuple[str, int]:
        return (self.module, self.lineno)

    @property
    def promoted(self) -> bool:
        return self.promoted_from is not None

    def describe(self) -> str:
        star = "*" if self.promoted else ""
        tag = " [inter]" if self.lane == "inter" else ""
        return (f"{self.op}{star} {self.field_cls.rsplit('.', 1)[-1]}.{self.field_name} "
                f"via {self.via} at {self.module}:{self.lineno}{tag}")


#: the usage flags of a write (only reads are classified)
_NO_FLAGS = (False, False, False)


def _is_patched_guard(call: ast.Call) -> bool:
    """Is this an ``is_patched("X")`` call (a switchboard guard)?"""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "is_patched"
        and bool(call.args)
        and isinstance(call.args[0], ast.Constant)
    )


class _MethodExtractor:
    """Extracts and classifies access points within one function body."""

    def __init__(
        self,
        model: TypeModel,
        module: str,
        cls: Optional[ClassInfo],
        method: MethodInfo,
        patched: FrozenSet[str],
        summaries: Optional[Any] = None,
    ):
        self.model = model
        self.module = module
        self.enclosing = f"{cls.name if cls else '?'}.{method.name}"
        self.patched = patched
        self.typer = ExprTyper(model, cls, method, summaries=summaries)
        self.body = model.body(method)
        self.guards = [c for c in self.body.of(ast.Call) if _is_patched_guard(c)]
        self.points: List[AccessPoint] = []
        #: method-call sites inside this body, for promotion pass 2:
        #: (callee name, receiver type name, call node, usage flags)
        self.calls: List[Tuple[str, Optional[str], ast.Call, Tuple[bool, bool, bool]]] = []

    # -- field resolution ------------------------------------------------
    def _field_of(self, node: ast.Attribute):
        receiver = self.typer.type_of(node.value)
        if receiver is None:
            return None
        return self.model.lookup_field(receiver.name, node.attr)

    # -- main walk ---------------------------------------------------------
    def run(self) -> None:
        consumed: Set[int] = set()
        for node in self.body.of(ast.Call):
            self._handle_call(node, consumed)
        for node in self.body.of(ast.Attribute):
            if id(node) not in consumed:
                self._handle_attribute(node)

    def _handle_call(self, node: ast.Call, consumed: Set[int]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver_type = self.typer.type_of(func.value)
        # classify how the call's result is used, so promoted crash points
        # can be pruned at their call sites like any other read
        flags = self._classify_read(node)
        self.calls.append((func.attr, receiver_type.name if receiver_type else None, node, flags))
        # collection op on a field?
        if not isinstance(func.value, ast.Attribute):
            return
        field_info = self._field_of(func.value)
        if field_info is None:
            return
        if not field_info.is_collection:
            return
        kind = collection_op_kind(func.attr)
        consumed.add(id(func.value))  # the bare attribute is not a point
        if kind is None:
            return
        self._emit(node, field_info, kind, func.attr,
                   flags if kind == "read" else _NO_FLAGS)

    def _handle_attribute(self, node: ast.Attribute) -> None:
        parent = self.body.parent.get(node)
        if isinstance(parent, ast.Call) and parent.func is node:
            return  # method reference, not a field access
        field_info = self._field_of(node)
        if field_info is None:
            return
        if field_info.is_collection:
            return  # collection fields are accessed through their ops
        if isinstance(parent, ast.AugAssign) and parent.target is node:
            # `self.count += 1` both reads and writes the field: emit a
            # classified read alongside the putfield
            self._emit(node, field_info, "read", "getfield", self._classify_read(node))
            self._emit(node, field_info, "write", "putfield", _NO_FLAGS)
        elif isinstance(node.ctx, ast.Store):
            self._emit(node, field_info, "write", "putfield", _NO_FLAGS)
        elif isinstance(node.ctx, ast.Load):
            self._emit(node, field_info, "read", "getfield", self._classify_read(node))

    def _emit(self, node: ast.AST, field_info: FieldInfo, op: str, via: str,
              flags: Tuple[bool, bool, bool]) -> None:
        owner = self.model.classes.get(field_info.owner)
        unused, sanity, return_only = flags
        self.points.append(AccessPoint(
            module=self.module, lineno=node.lineno,
            field_cls=f"{owner.module}.{owner.name}" if owner else field_info.owner,
            field_name=field_info.name, op=op, via=via, enclosing=self.enclosing,
            unused=unused, sanity_checked=sanity, return_only=return_only,
        ))

    # -- usage classification (Section 3.1.2 optimizations) ---------------
    def _classify_read(self, value_node: ast.AST) -> Tuple[bool, bool, bool]:
        """``(unused, sanity_checked, return_only)`` for a read's value."""
        unused = False
        sanity = False
        return_only = False
        parent = self.body.parent.get(value_node)
        # climb through trivial wrappers (str(x), f-strings)
        while isinstance(parent, (ast.FormattedValue, ast.JoinedStr)) or (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("str", "repr", "hash")
        ):
            value_node = parent
            parent = self.body.parent.get(value_node)

        if isinstance(parent, ast.Expr):
            unused = True
        elif self._inside_logging_call(value_node):
            unused = True
        elif isinstance(parent, ast.Return):
            return_only = True
        elif self._inside_if_test(value_node):
            sanity = self._check_counts(value_node)
        elif isinstance(parent, ast.Assign) and len(parent.targets) == 1 and isinstance(
            parent.targets[0], ast.Name
        ):
            unused, sanity, return_only = self._classify_local(parent.targets[0].id, parent)
        return unused, sanity, return_only

    def _inside_logging_call(self, node: ast.AST) -> bool:
        for ancestor in self.body.ancestors(node):
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Attribute)
                and ancestor.func.attr in LEVELS
            ):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
        return False

    def _inside_if_test(self, node: ast.AST, stop: Any = ast.stmt) -> bool:
        """Is ``node`` inside an if/while test, below any ``stop`` node?"""
        child = node
        for ancestor in self.body.ancestors(node):
            if isinstance(ancestor, (ast.If, ast.While)) and ancestor.test is child:
                return True
            if isinstance(ancestor, stop):
                return False
            child = ancestor
        return False

    def _check_counts(self, node: ast.AST) -> bool:
        """Does the enclosing if-test count as a sanity check under the
        analysed configuration (the is_patched switchboard rule)?"""
        for ancestor in self.body.ancestors(node):
            if isinstance(ancestor, ast.If):
                test = ancestor.test
                guard_ids = [g.args[0].value for g in self.guards
                             if g is test or test in self.body.ancestors(g)]
                if guard_ids and not all(g in self.patched for g in guard_ids):
                    return False
        return True

    def _classify_local(self, name: str, assign: ast.stmt) -> Tuple[bool, bool, bool]:
        """Classify uses of a local holding the read value."""
        uses = self.body.loads.get(name, [])
        real_uses = 0
        checked = False
        returns = 0
        for use in uses:
            if self._inside_logging_call(use):
                continue
            # the value itself is tested (x is None / not x / bare x), as
            # opposed to dereferenced (x.attr)
            if self._inside_if_test(use, stop=(ast.stmt, ast.Attribute)):
                if self._check_counts(use):
                    checked = True
                continue
            if isinstance(self.body.parent.get(use), ast.Return):
                returns += 1
                continue
            real_uses += 1
        if real_uses == 0 and returns == 0:
            return True, False, False  # unused (or logging-only)
        if checked:
            return False, True, False
        if real_uses == 0 and returns > 0:
            return False, False, True
        return False, False, False


# ---------------------------------------------------------------------------
# whole-system extraction
# ---------------------------------------------------------------------------
@dataclass
class ExtractionResult:
    """Merged extraction output across every analysed module.

    ``call_sites`` maps ``(receiver class name, method name)`` to the call
    sites that statically dispatch there, each recorded as
    ``(module, lineno, "Class.method" enclosing, usage flags)`` where the
    flags are the ``(unused, sanity_checked, return_only)`` classification
    of the call *result* — return-only promotion reuses them to prune
    promoted points at their destination.  ``external_writes`` holds
    ``(field_cls, field_name)`` pairs written outside their owning class,
    which disqualifies the field from the constructor-only rule.
    ``used_facts`` maps ``(module, "Class.method")`` to the summary facts
    consulted while typing that method; it is filled only when
    extraction runs with summaries, and feeds the provenance of
    inter-lane crash points.
    """

    points: List[AccessPoint]
    call_sites: Dict[Tuple[str, str], List[Tuple[str, int, str, Tuple[bool, bool, bool]]]]
    external_writes: Set[Tuple[str, str]]
    used_facts: Dict[Tuple[str, str], FrozenSet[Tuple[str, str, str, str]]] = field(
        default_factory=dict)


def extract_access_points(
    model: TypeModel,
    sources: Sequence[ModuleSource],
    patched: FrozenSet[str] = frozenset(),
    summaries: Optional[Any] = None,
) -> ExtractionResult:
    """All access points in the system, with usage flags."""
    points: List[AccessPoint] = []
    call_sites: Dict[Tuple[str, str], List[Tuple[str, int, str, Tuple[bool, bool, bool]]]] = {}
    used_facts: Dict[Tuple[str, str], FrozenSet[Tuple[str, str, str, str]]] = {}
    for src in sources:
        for cls_info in model.classes.values():
            if cls_info.module != src.name:
                continue
            for method in cls_info.methods.values():
                if summaries is not None:
                    summaries.record_uses = True
                    summaries.drain_uses()
                extractor = _MethodExtractor(
                    model, src.name, cls_info, method, patched, summaries=summaries
                )
                extractor.run()
                if summaries is not None:
                    facts = frozenset(summaries.drain_uses())
                    summaries.record_uses = False
                    if facts:
                        used_facts[(src.name, extractor.enclosing)] = facts
                points.extend(extractor.points)
                for callee, recv_type, call, flags in extractor.calls:
                    if recv_type is None:
                        continue
                    call_sites.setdefault((recv_type, callee), []).append(
                        (src.name, call.lineno, extractor.enclosing, flags)
                    )
    external_writes = {
        (p.field_cls, p.field_name)
        for p in points
        if p.op == "write" and not p.enclosing.startswith(p.field_cls.rsplit(".", 1)[-1] + ".")
    }
    return ExtractionResult(points=points, call_sites=call_sites,
                            external_writes=external_writes, used_facts=used_facts)


# ---------------------------------------------------------------------------
# Definition 2: meta-info types
# ---------------------------------------------------------------------------
@dataclass
class MetaInfoTypes:
    """The inferred meta-info universe for one system."""

    #: class names seeded directly from logs (annotated * in Table 2)
    logged_types: Set[str]
    #: full closure (logged + derived)
    types: Set[str]
    #: (class, field) pairs that are meta-info fields
    fields: Set[Tuple[str, str]]
    #: base-typed fields found meta via logs, e.g. ("NodeId", "host")
    logged_base_fields: Set[Tuple[str, str]]

    def is_meta_field(self, owner_bare: str, name: str) -> bool:
        return (owner_bare, name) in self.fields


def infer_meta_info(
    model: TypeModel,
    log_result: LogAnalysisResult,
    statements: Sequence[LogStatement],
    extraction: ExtractionResult,
    summaries: Optional[Any] = None,
    provenance: Optional[Provenance] = None,
) -> MetaInfoTypes:
    by_key = {s.key(): s for s in statements}
    logged_types: Set[str] = set()
    logged_base_fields: Set[Tuple[str, str]] = set()
    prov = provenance if provenance is not None else Provenance()

    # 1. seed from logged meta-info variables
    for (key, slot) in sorted(log_result.meta_slots):
        stmt = by_key.get(key)
        if stmt is None or slot >= len(stmt.arg_sources):
            continue
        try:
            expr = ast.parse(stmt.arg_sources[slot], mode="eval").body
        except SyntaxError:
            continue
        cls_info, method = model.context_of(stmt.module, stmt.lineno)
        typer = ExprTyper(model, cls_info, method, summaries=summaries)
        tref = typer.type_of(expr)
        if tref is None:
            continue
        stmt_key = ("stmt", stmt.module, stmt.lineno, slot)
        for leaf in tref.leaves():
            if not leaf.is_base:
                logged_types.add(leaf.name)
                prov.node(stmt_key, describe_stmt(stmt, slot))
                tkey = prov.node(("type", leaf.name), f"meta-info type {leaf.name}")
                prov.edge(tkey, stmt_key, "logged value is node-related (seed)")
                continue
            # base-typed logged value: if it is a field read, the field is
            # meta-info and its containing class becomes a meta-info type
            if isinstance(expr, ast.Attribute):
                receiver = typer.type_of(expr.value)
                if receiver is not None and receiver.name in model.classes:
                    logged_base_fields.add((receiver.name, expr.attr))
                    logged_types.add(receiver.name)
                    prov.node(stmt_key, describe_stmt(stmt, slot))
                    fkey = prov.node(("field", receiver.name, expr.attr),
                                     f"meta-info field {receiver.name}.{expr.attr}")
                    tkey = prov.node(("type", receiver.name),
                                     f"meta-info type {receiver.name}")
                    prov.edge(fkey, stmt_key, "logged base-typed field (seed)")
                    prov.edge(tkey, fkey, "contains a logged base-typed field")

    # 2. the Definition 2 closure
    meta_types = set(logged_types) - BASE_TYPE_NAMES
    changed = True
    while changed:
        changed = False
        # subtypes
        for name in list(meta_types):
            for sub in model.subtypes_of(name):
                if sub not in meta_types:
                    meta_types.add(sub)
                    changed = True
                    skey = prov.node(("type", sub), f"meta-info type {sub}")
                    prov.edge(skey, ("type", name),
                              "subtype of a meta-info type (Definition 2)")
        # containing classes: C.f of meta type, f only set in constructors
        for cls_info in model.classes.values():
            if cls_info.name in meta_types:
                continue
            for field_info in cls_info.fields.values():
                if field_info.type is None:
                    continue
                if (f"{cls_info.module}.{cls_info.name}", field_info.name) in extraction.external_writes:
                    continue
                if not field_info.constructor_only():
                    continue
                leaf_names = {l.name for l in field_info.type.leaves()}
                if leaf_names & meta_types and not leaf_names & BASE_TYPE_NAMES:
                    meta_types.add(cls_info.name)
                    changed = True
                    witness = sorted(leaf_names & meta_types)[0]
                    ckey = prov.node(("type", cls_info.name),
                                     f"meta-info type {cls_info.name}")
                    prov.edge(
                        ckey, ("type", witness),
                        f"constructor-only field '{field_info.name}' holds a "
                        "meta-info type (Definition 2)",
                    )
                    break

    # 3. meta-info fields: declared type mentions a meta type (collection
    # types of T are meta-info types), plus the logged base-typed fields
    meta_fields: Set[Tuple[str, str]] = set(logged_base_fields)
    for cls_info in model.classes.values():
        for field_info in cls_info.fields.values():
            if field_info.type is None:
                continue
            leaf_names = {l.name for l in field_info.type.leaves()}
            if leaf_names & meta_types:
                meta_fields.add((cls_info.name, field_info.name))
                witness = sorted(leaf_names & meta_types)[0]
                fkey = prov.node(("field", cls_info.name, field_info.name),
                                 f"meta-info field {cls_info.name}.{field_info.name}")
                prov.edge(fkey, ("type", witness),
                          "declared type mentions a meta-info type")

    return MetaInfoTypes(
        logged_types={t for t in logged_types if t in model.classes},
        types={t for t in meta_types if t in model.classes},
        fields=meta_fields,
        logged_base_fields=logged_base_fields,
    )


# ---------------------------------------------------------------------------
# crash points + optimizations (Section 3.1.2, Table 12)
# ---------------------------------------------------------------------------
@dataclass
class CrashPointResult:
    crash_points: List[AccessPoint]
    meta_access_points: List[AccessPoint]
    pruned_constructor: int
    pruned_unused: int
    pruned_sanity: int
    promoted: int


def compute_crash_points(
    model: TypeModel,
    extraction: ExtractionResult,
    meta: MetaInfoTypes,
) -> CrashPointResult:
    meta_points = [
        p for p in extraction.points
        if meta.is_meta_field(p.field_cls.rsplit(".", 1)[-1], p.field_name)
    ]

    pruned_constructor = pruned_unused = pruned_sanity = 0
    survivors: List[AccessPoint] = []
    for point in meta_points:
        owner_bare = point.field_cls.rsplit(".", 1)[-1]
        field_info = model.lookup_field(owner_bare, point.field_name)
        # The constructor-only rule concerns scalar reference fields: a
        # collection field is "set" once but its *contents* change, and its
        # operations are exactly the Table 3 access points.
        ctor_only = (
            point.via in ("getfield", "putfield")
            and field_info is not None
            and field_info.constructor_only()
            and (point.field_cls, point.field_name) not in extraction.external_writes
        )
        if ctor_only:
            pruned_constructor += 1
            continue
        if point.op == "read" and point.unused:
            pruned_unused += 1
            continue
        if point.op == "read" and point.sanity_checked:
            pruned_sanity += 1
            continue
        survivors.append(point)

    # return promotion — each call site is classified like any other read,
    # so the optimizations prune promoted points too (the paper's YARN-9164
    # walkthrough: 43 call sites, 30 pruned as unused or sanity-checked).
    final: List[AccessPoint] = []
    promoted = 0
    for point in survivors:
        if point.op != "read" or not point.return_only:
            final.append(point)
            continue
        cls_name, method_name = point.enclosing.split(".", 1)
        receivers = {cls_name} | model.subtypes_of(cls_name)
        sites: List[Tuple[str, int, str, Tuple[bool, bool, bool]]] = []
        for receiver in receivers:
            sites.extend(extraction.call_sites.get((receiver, method_name), []))
        if not sites:
            final.append(point)  # nowhere to promote to: keep in place
            continue
        for (module, lineno, enclosing, (unused, sanity, _ret)) in sites:
            if unused:
                pruned_unused += 1
                continue
            if sanity:
                pruned_sanity += 1
                continue
            promoted += 1
            final.append(
                replace(
                    point,
                    module=module,
                    lineno=lineno,
                    enclosing=enclosing,
                    return_only=False,
                    promoted_from=point.location,
                )
            )

    # promoted duplicates (several reads promoted to the same site) collapse
    unique: Dict[Tuple, AccessPoint] = {}
    for point in final:
        key = (point.module, point.lineno, point.field_cls, point.field_name, point.op)
        unique.setdefault(key, point)
    return CrashPointResult(
        crash_points=sorted(unique.values(), key=lambda p: (p.module, p.lineno, p.op)),
        meta_access_points=meta_points,
        pruned_constructor=pruned_constructor,
        pruned_unused=pruned_unused,
        pruned_sanity=pruned_sanity,
        promoted=promoted,
    )
