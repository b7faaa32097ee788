"""Interprocedural method summaries (the engine's fixpoint, part 1).

The paper's type-based analysis reads declared types off the class
hierarchy; our Python counterpart reads annotations.  Helper methods in
real systems are frequently *unannotated*, which makes every field access
reached through them invisible to the intraprocedural pass.  This module
closes that gap with classic bottom-up/top-down summary propagation:

* **return inference** (bottom-up): an unannotated method's return type
  is the join of the static types of its ``return`` expressions;
* **argument propagation** (top-down): an unannotated parameter's type is
  the join of the static types of the arguments passed at its call sites,
  dispatched through receiver types and their subtypes.

Both feed back into :class:`~repro.core.analysis.types.ExprTyper` (which
consults the table wherever annotations come up empty), so each fixpoint
round types strictly more expressions than the last.  Joins produce
bounded ``Union`` types; when a join exceeds :data:`MAX_UNION` members the
summary collapses to unknown, which keeps the lattice finite and the
fixpoint terminating even without the iteration cap.

A :class:`SummaryTable` also records which facts each client *used*
(``record_uses``), which is how interprocedurally discovered crash points
get their "why was this receiver typeable" provenance.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.analysis.types import (
    BodyIndex,
    ClassInfo,
    ExprTyper,
    MethodInfo,
    TypeModel,
    TypeRef,
)

#: a join wider than this collapses to the absorbing top (``Any``)
MAX_UNION = 4

#: the lattice top: "typeable, but too imprecise to name"
ANY = TypeRef("Any")

#: one used-summary fact: (owner, method, kind, name); kind is
#: "param" | "return" | "element" — name is the parameter/local name
Fact = Tuple[str, str, str, str]


def join_typerefs(a: Optional[TypeRef], b: Optional[TypeRef]) -> Optional[TypeRef]:
    """The least upper bound of two inferred types.

    ``None`` is bottom (nothing known yet), :data:`ANY` is the absorbing
    top; in between, joins build a deduplicated ``Union`` of at most
    :data:`MAX_UNION` members.  The lattice is finite, so repeated joins
    terminate — which is what makes the fixpoint converge.
    """
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a == ANY or b == ANY:
        return ANY
    members: List[TypeRef] = []
    seen: Set[str] = set()
    for ref in (a, b):
        parts = ref.args if ref.name == "Union" else (ref,)
        for part in parts:
            if str(part) not in seen:
                seen.add(str(part))
                members.append(part)
    if len(members) > MAX_UNION:
        return ANY
    members.sort(key=str)
    return TypeRef("Union", tuple(members))


@dataclass
class MethodSummary:
    """Inferred types for one method (supplementing its annotations)."""

    owner: str
    name: str
    returns: Optional[TypeRef] = None
    #: inferred types for unannotated parameters
    params: Dict[str, TypeRef] = field(default_factory=dict)
    #: (module, lineno) evidence: where each inference was witnessed
    return_witness: Optional[Tuple[str, int]] = None
    param_witness: Dict[str, Tuple[str, int]] = field(default_factory=dict)


class SummaryTable:
    """(owner class, method) -> :class:`MethodSummary`, with use tracking."""

    def __init__(self) -> None:
        self._summaries: Dict[Tuple[str, str], MethodSummary] = {}
        #: facts consulted since the last :meth:`drain_uses` (only while
        #: ``record_uses`` is on — the fixpoint itself keeps it off)
        self.record_uses = False
        self._used: Set[Fact] = set()

    # ------------------------------------------------------------------
    def _ensure(self, owner: str, method: str) -> MethodSummary:
        key = (owner, method)
        if key not in self._summaries:
            self._summaries[key] = MethodSummary(owner=owner, name=method)
        return self._summaries[key]

    # -- lookups used by ExprTyper --------------------------------------
    def return_type(self, owner: str, method: str) -> Optional[TypeRef]:
        summary = self._summaries.get((owner, method))
        if summary is None or summary.returns is None:
            return None
        if self.record_uses:
            self._used.add((owner, method, "return", ""))
        return summary.returns

    def param_type(self, owner: str, method: str, name: str) -> Optional[TypeRef]:
        summary = self._summaries.get((owner, method))
        if summary is None:
            return None
        ref = summary.params.get(name)
        if ref is not None and self.record_uses:
            self._used.add((owner, method, "param", name))
        return ref

    def note_element(self, owner: str, method: str, name: str) -> None:
        """Record that a loop/comprehension target was element-typed."""
        if self.record_uses:
            self._used.add((owner, method, "element", name))

    def drain_uses(self) -> Set[Fact]:
        used, self._used = self._used, set()
        return used

    # ------------------------------------------------------------------
    def counts(self) -> Tuple[int, int]:
        """(#inferred returns, #inferred params) across all summaries."""
        returns = sum(1 for s in self._summaries.values() if s.returns is not None)
        params = sum(len(s.params) for s in self._summaries.values())
        return returns, params

    def describe_fact(self, fact: Fact) -> str:
        owner, method, kind, name = fact
        summary = self._summaries.get((owner, method))
        if kind == "return":
            ref = summary.returns if summary else None
            witness = summary.return_witness if summary else None
            what = f"return type of {owner}.{method} inferred as {ref}"
        elif kind == "param":
            ref = summary.params.get(name) if summary else None
            witness = summary.param_witness.get(name) if summary else None
            what = f"parameter '{name}' of {owner}.{method} inferred as {ref}"
        else:
            witness = None
            what = f"loop variable '{name}' in {owner}.{method} element-typed from its iterable"
        if witness:
            what += f" (witness {witness[0]}:{witness[1]})"
        return what


def _dispatch_targets(
    model: TypeModel, receiver: str, method_name: str
) -> List[MethodInfo]:
    """Receiver-type dispatch: the static target plus subtype overrides."""
    targets: List[MethodInfo] = []
    static = model.lookup_method(receiver, method_name)
    if static is not None:
        targets.append(static)
    for sub in sorted(model.subtypes_of(receiver)):
        override = model.classes[sub].methods.get(method_name)
        if override is not None and override is not static:
            targets.append(override)
    return targets


def _bind_arguments(
    call: ast.Call, target: MethodInfo
) -> List[Tuple[str, ast.AST]]:
    """Bind call arguments to the target's parameter names (methods only:
    the first positional parameter — ``self`` — is the receiver)."""
    names = list(target.params)
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    bound: List[Tuple[str, ast.AST]] = []
    for name, arg in zip(names, call.args):
        if isinstance(arg, ast.Starred):
            break
        bound.append((name, arg))
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in target.params:
            bound.append((kw.arg, kw.value))
    return bound


def compute_summaries(
    model: TypeModel,
    max_iterations: int = 10,
) -> Tuple[SummaryTable, int]:
    """Iterate method summaries to a fixpoint over the whole model.

    Returns the table and the number of rounds it took to converge.
    """
    table = SummaryTable()
    iterations = 0
    changed = True
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        for cls_info in model.classes.values():
            for method in cls_info.methods.values():
                typer = ExprTyper(model, cls_info, method, summaries=table)
                if _infer_return(model, cls_info, method, typer, table):
                    changed = True
                if _propagate_arguments(model, cls_info, method, typer, table):
                    changed = True
    return table, iterations


def _infer_return(
    model: TypeModel,
    cls_info: ClassInfo,
    method: MethodInfo,
    typer: ExprTyper,
    table: SummaryTable,
) -> bool:
    if method.returns is not None:
        return False
    joined: Optional[TypeRef] = None
    witness: Optional[Tuple[str, int]] = None
    for ret in _own_returns(model.body(method), method.node):
        if ret.value is None:
            continue
        ref = typer.type_of(ret.value)
        if ref is not None:
            joined = join_typerefs(joined, ref)
            if witness is None:
                witness = (cls_info.module, ret.lineno)
    if joined is None:
        return False
    summary = table._ensure(method.owner, method.name)
    new_value = join_typerefs(summary.returns, joined)
    if new_value == summary.returns:
        return False
    summary.returns = new_value
    summary.return_witness = summary.return_witness or witness
    return True


def _own_returns(body: BodyIndex, root: ast.AST) -> List[ast.Return]:
    """``return`` statements of this function, excluding nested defs,
    last in the source first (so the witness is the last typed one)."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    own = [ret for ret in body.of(ast.Return)
           if not any(isinstance(a, nested) for a in body.ancestors(ret) if a is not root)]
    return sorted(own, key=lambda ret: (ret.lineno, ret.col_offset), reverse=True)


def _propagate_arguments(
    model: TypeModel,
    cls_info: ClassInfo,
    method: MethodInfo,
    typer: ExprTyper,
    table: SummaryTable,
) -> bool:
    changed = False
    for sub in model.body(method).of(ast.Call):
        if not isinstance(sub.func, ast.Attribute):
            continue
        receiver = typer.type_of(sub.func.value)
        if receiver is None or receiver.name not in model.classes:
            continue
        for target in _dispatch_targets(model, receiver.name, sub.func.attr):
            for pname, arg in _bind_arguments(sub, target):
                if target.params.get(pname) is not None:
                    continue  # annotated parameters need no inference
                ref = typer.type_of(arg)
                if ref is None:
                    continue
                summary = table._ensure(target.owner, target.name)
                joined = join_typerefs(summary.params.get(pname), ref)
                if joined == summary.params.get(pname):
                    continue
                summary.params[pname] = joined
                summary.param_witness.setdefault(
                    pname, (cls_info.module, sub.lineno)
                )
                changed = True
    return changed
