"""Deterministic feature vectors over per-injection evidence.

The failure-mode analytics layer (:mod:`repro.obs.analytics`) reasons
about injections as sparse token sets: every injection — and every
still-untested dynamic crash point — is rendered into a ``frozenset`` of
namespaced string tokens, and distance between injections is Jaccard
distance over those sets.  Token sets are a deliberate choice over dense
numeric vectors: the evidence is categorical (meta-info field, crash-point
location, oracle verdict, matched bugs, span names), the representation is
byte-stable across runs and platforms, and no numeric library is needed.

Two namespaces exist:

* **static** tokens (``op:``, ``field:``, ``via:``, ``module:``, ``loc:``,
  ``lane:``, ``enclosing:``, ``scale:``, ``stack*:``, ``promoted:``)
  describe the crash point itself and are derivable *before* the
  injection runs — :func:`point_tokens` builds them from a
  ``DynamicCrashPoint`` and :func:`static_tokens` rebuilds the identical
  set from a finished :class:`~repro.obs.diagnosis.InjectionDiagnosis`,
  which is what lets the novelty scheduler compare pending points against
  already-observed failure modes in one feature space;
* **dynamic** tokens (``fired:``, ``action:``, ``outcome:``,
  ``resolution:``, ``verdict:``, ``bug:``, ``template:``, ``hits:``,
  ``dur:``, ``events:``, ``span:``) describe what the injection actually
  did — the fire neighborhood, the oracle verdict, the anomalous-log
  template set, trace-relative duration/event deltas, and the span-shape
  signature of the run's trace subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.obs.diagnosis import InjectionDiagnosis
from repro.obs.tracer import SpanRecord

#: prefixes of the static namespace (shared by points and diagnoses)
STATIC_PREFIXES: Tuple[str, ...] = (
    "op:", "field:", "via:", "module:", "loc:", "lane:", "enclosing:",
    "scale:", "stack", "promoted:",
)


@dataclass(frozen=True)
class InjectionFeatures:
    """One injection, featurized: its trace index, point id, and tokens."""

    index: int
    point: str
    tokens: FrozenSet[str]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------
def jaccard_distance(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """1 - |A ∩ B| / |A ∪ B|; 0.0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def _bucket(count: int) -> int:
    """Round a count up to the next power of two (log-scale robustness)."""
    b = 1
    while b < count:
        b *= 2
    return b


# ---------------------------------------------------------------------------
# static tokens
# ---------------------------------------------------------------------------
def _stack_tokens(stack: Sequence[str]) -> List[str]:
    """Fire-neighborhood tokens: positional + unordered caller frames."""
    out: List[str] = []
    for j, frame in enumerate(stack[:4]):
        fn = frame.rsplit(":", 1)[0]  # drop the line number
        out.append(f"stack{j}:{fn}")
        out.append(f"stackfn:{fn}")
    return out


def point_tokens(dpoint) -> FrozenSet[str]:
    """Static tokens of a ``DynamicCrashPoint`` (duck-typed; no import)."""
    point = dpoint.point
    short_cls = point.field_cls.rsplit(".", 1)[-1]
    tokens = [
        f"op:{point.op}",
        f"field:{short_cls}.{point.field_name}",
        f"via:{point.via}",
        f"module:{point.module}",
        f"loc:{point.module}:{point.lineno}",
        f"lane:{point.lane}",
        f"enclosing:{point.enclosing}",
        f"scale:{dpoint.scale}",
        f"promoted:{'yes' if point.promoted else 'no'}",
    ]
    tokens.extend(_stack_tokens(dpoint.stack))
    return frozenset(tokens)


def _parse_point(point: str) -> Dict[str, str]:
    """Invert ``AccessPoint.describe()``:

    ``"op[*] Cls.field via VIA at module:line[ [inter]]"``.
    """
    s = point
    lane = "intra"
    if s.endswith(" [inter]"):
        lane = "inter"
        s = s[: -len(" [inter]")]
    head, _, loc = s.rpartition(" at ")
    body, _, via = head.rpartition(" via ")
    op_star, _, field = body.partition(" ")
    module, _, lineno = loc.rpartition(":")
    return {
        "op": op_star.rstrip("*"),
        "promoted": "yes" if op_star.endswith("*") else "no",
        "field": field,
        "via": via,
        "module": module,
        "lineno": lineno,
        "lane": lane,
    }


def static_tokens(diagnosis: InjectionDiagnosis) -> FrozenSet[str]:
    """The static tokens of a finished injection.

    Byte-identical to :func:`point_tokens` of the ``DynamicCrashPoint``
    that was tested — the contract that puts pending points and observed
    injections in one feature space (pinned by a regression test).
    """
    p = _parse_point(diagnosis.point)
    tokens = [
        f"op:{p['op']}",
        f"field:{p['field']}",
        f"via:{p['via']}",
        f"module:{p['module']}",
        f"loc:{p['module']}:{p['lineno']}",
        f"lane:{p['lane']}",
        f"enclosing:{diagnosis.enclosing}",
        f"scale:{diagnosis.scale}",
        f"promoted:{p['promoted']}",
    ]
    tokens.extend(_stack_tokens(diagnosis.stack))
    return frozenset(tokens)


def is_static(token: str) -> bool:
    return token.startswith(STATIC_PREFIXES)


def static_only(tokens: Iterable[str]) -> FrozenSet[str]:
    """Project a token set onto the static namespace (for scheduling)."""
    return frozenset(t for t in tokens if is_static(t))


# ---------------------------------------------------------------------------
# dynamic tokens
# ---------------------------------------------------------------------------
def _outcome_tokens(diagnosis: InjectionDiagnosis) -> List[str]:
    d = diagnosis
    tokens = [
        f"fired:{'yes' if d.fired else 'no'}",
        f"action:{d.action or 'none'}",
        f"outcome:{d.outcome()}",
    ]
    if not d.fired:
        tokens.append("resolution:none")
    elif d.via_fallback:
        tokens.append("resolution:fallback")
    elif d.target_host:
        tokens.append("resolution:store")
    else:
        tokens.append("resolution:unresolved")
    tokens.extend(f"verdict:{kind}" for kind in d.verdict_kinds)
    tokens.extend(f"bug:{bug}" for bug in d.matched_bugs)
    tokens.extend(f"template:{t}" for t in d.uncommon_templates)
    if d.hits:
        tokens.append(f"hits:{_bucket(d.hits)}")
    if d.unresolved_values:
        tokens.append("unresolved-values:yes")
    return tokens


def _relative_token(name: str, value: float, median: float) -> str:
    """Bucket a per-injection measurement against the trace median."""
    if median <= 0:
        return f"{name}:mid"
    ratio = value / median
    if ratio > 2.0:
        return f"{name}:hi"
    if ratio < 0.5:
        return f"{name}:lo"
    return f"{name}:mid"


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# span-shape signatures
# ---------------------------------------------------------------------------
def _subtree_tokens(root: SpanRecord,
                    children: Dict[Optional[int], List[SpanRecord]]) -> List[str]:
    counts: Dict[str, int] = {}
    queue = [root]
    while queue:
        span = queue.pop()
        counts[span.name] = counts.get(span.name, 0) + 1
        queue.extend(children.get(span.span_id, ()))
    return [f"span:{name}~{_bucket(n)}" for name, n in sorted(counts.items())]


def span_shapes(
    spans: Sequence[SpanRecord],
    diagnoses: Sequence[InjectionDiagnosis],
) -> Optional[List[List[str]]]:
    """Per-injection span-shape tokens, or ``None`` when unattributable.

    A campaign emits one top-level ``workload`` span per injection, in
    point order, below the ``campaign`` span (a flagged hang's extension
    under ``classify_timeouts`` continues the same run, hence the same
    span); baseline runs sit under the ``baseline`` span and are excluded.

    When the arithmetic does not add up — a resumed campaign whose spans
    died with the interrupted process, a snapshot-mode trace whose
    recording passes are shared, a hand-built trace — span features are
    dropped for the whole trace rather than misattributed, and the
    analytics report says so.
    """
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    excluded: set = set()
    queue = [s for s in spans if s.name == "baseline"]
    while queue:
        span = queue.pop()
        excluded.add(span.span_id)
        queue.extend(children.get(span.span_id, ()))
    # a full-pipeline trace also carries the analysis/profiling phases'
    # workload runs; only the campaign span's own test runs are the ones
    # diagnoses attribute to
    campaign_ids = {s.span_id for s in spans if s.name == "campaign"}
    roots = [
        s for s in spans
        if s.name == "workload" and s.span_id not in excluded
        and (not campaign_ids or s.parent_id in campaign_ids)
    ]
    if len(roots) != len(diagnoses):
        return None
    return [_subtree_tokens(root, children) for root in roots]


# ---------------------------------------------------------------------------
# the featurizer
# ---------------------------------------------------------------------------
def featurize(
    diagnoses: Sequence[InjectionDiagnosis],
    spans: Optional[Sequence[SpanRecord]] = None,
) -> Tuple[List[InjectionFeatures], bool]:
    """Featurize every injection of one campaign trace.

    Returns ``(features, span_features)`` where ``span_features`` reports
    whether span-shape tokens could be attributed (see :func:`span_shapes`).
    Deterministic: same diagnoses and spans -> identical token sets.
    """
    shapes = span_shapes(spans, diagnoses) if spans else None
    median_dur = _median([d.duration for d in diagnoses])
    median_events = _median([float(d.events_processed) for d in diagnoses])
    out: List[InjectionFeatures] = []
    for i, diagnosis in enumerate(diagnoses):
        tokens = set(static_tokens(diagnosis))
        tokens.update(_outcome_tokens(diagnosis))
        tokens.add(_relative_token("dur", diagnosis.duration, median_dur))
        tokens.add(_relative_token(
            "events", float(diagnosis.events_processed), median_events))
        if shapes is not None:
            tokens.update(shapes[i])
        out.append(InjectionFeatures(index=i, point=diagnosis.point,
                                     tokens=frozenset(tokens)))
    return out, shapes is not None
