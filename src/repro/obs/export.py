"""JSONL trace export and import.

One trace file carries one run (or one campaign): a ``meta`` line, the
finished spans, one ``metrics`` snapshot, and one ``diagnosis`` line per
dynamic crash point tested.  Each line is a self-describing JSON object
(``{"type": ..., ...}``), so files concatenate, stream, and grep cleanly
— the format *Fault Injection Analytics* argues fault-injection tooling
should emit instead of aggregate counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable import atomic_write
from repro.obs.context import Observability
from repro.obs.diagnosis import InjectionDiagnosis
from repro.obs.tracer import SpanRecord


@dataclass
class TraceData:
    """A parsed trace file."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    diagnoses: List[InjectionDiagnosis] = field(default_factory=list)


def write_trace_jsonl(
    path: Union[str, Path],
    obs: Optional[Observability] = None,
    diagnoses: Optional[List[InjectionDiagnosis]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one run's telemetry as JSONL; returns the path written.

    ``diagnoses`` defaults to the ones collected on ``obs``.
    """
    path = Path(path)
    if diagnoses is None:
        diagnoses = list(obs.diagnoses) if obs is not None else []
    meta = dict(meta or {})
    if obs is not None and obs.tracer.dropped:
        # a capped tracer must never read as a complete trace
        meta.setdefault("dropped_spans", obs.tracer.dropped)
    lines = [{"type": "meta", **meta}]
    if obs is not None:
        lines += [{"type": "span", **s.to_dict()} for s in obs.tracer.spans]
        lines.append({"type": "metrics", "data": obs.metrics.snapshot()})
    lines += [{"type": "diagnosis", **d.to_dict()} for d in diagnoses]
    atomic_write(path, "".join(json.dumps(line) + "\n" for line in lines)
                 .encode("utf-8"))
    return path


def read_trace_jsonl(path: Union[str, Path]) -> TraceData:
    """Parse a trace file back into typed records.

    :func:`write_trace_jsonl` publishes a trace whole, so there is no torn
    tail to forgive: any malformed line raises :class:`ValueError`.
    """
    trace = TraceData()
    with Path(path).open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        kind = record.pop("type", None)
        try:
            if kind == "meta":
                trace.meta.update(record)
            elif kind == "span":
                trace.spans.append(SpanRecord.from_dict(record))
            elif kind == "metrics":
                trace.metrics = record.get("data", {})
            elif kind == "diagnosis":
                trace.diagnoses.append(InjectionDiagnosis.from_dict(record))
            else:
                raise ValueError(f"{path}:{lineno}: unknown trace line type {kind!r}")
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}:{lineno}: malformed {kind} record: {exc!r}"
            ) from exc
    return trace
