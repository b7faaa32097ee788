"""Per-injection diagnosis records.

One :class:`InjectionDiagnosis` is built for every dynamic crash point a
campaign tests, whether or not the point fired.  It captures the whole
causal chain the paper's evaluation reasons about informally: which
static point was armed, what runtime values the access observed, how the
online store resolved value -> node (including the random-node fallback),
what fault the control center actually delivered, what the oracles saw,
and which seeded bug (if any) the symptom was attributed to.

Records are plain dataclasses with lossless ``to_dict``/``from_dict``,
so they ship through the JSONL exporter (:mod:`repro.obs.export`) and
back; :func:`format_diagnoses` renders the human-readable table the
report CLI prints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class InjectionDiagnosis:
    """The full story of one dynamic crash point's test run."""

    # the armed point
    system: str
    point: str  # AccessPoint.describe() — op/field/via/location
    op: str  # "read" | "write"
    field_name: str
    enclosing: str
    stack: List[str] = field(default_factory=list)
    scale: int = 1
    # what the trigger saw
    fired: bool = False
    hits: int = 0
    # value -> node resolution (Figure 6 store)
    values: List[str] = field(default_factory=list)
    resolved_value: str = ""
    target_host: str = ""
    via_fallback: bool = False
    unresolved_values: List[str] = field(default_factory=list)
    store_size: int = 0
    # what the control center did
    action: str = ""  # "shutdown" | "crash" | "" (never fired / unresolved)
    injection_time: float = 0.0
    killed: List[str] = field(default_factory=list)
    # what the oracles saw
    verdict_kinds: List[str] = field(default_factory=list)
    flagged: bool = False
    matched_bugs: List[str] = field(default_factory=list)
    #: anomalous-log template set: signatures of error records never seen
    #: in clean baseline runs ("component|level|template|exc"), sorted —
    #: the failure-mode featurizer's strongest symptom tokens
    uncommon_templates: List[str] = field(default_factory=list)
    # run accounting (simulated time + event count pin determinism)
    duration: float = 0.0
    events_processed: int = 0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InjectionDiagnosis":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py39 compat
        return cls(**{k: v for k, v in data.items() if k in known})

    # ------------------------------------------------------------------
    def outcome(self) -> str:
        """One-word outcome for tables: flagged kinds, ok, or not-fired."""
        if not self.fired:
            return "not-fired"
        if not self.action:
            return "unresolved"
        if self.flagged:
            return "+".join(self.verdict_kinds) or "flagged"
        return "ok"

    def resolution(self) -> str:
        """How value -> node resolved, for tables."""
        if not self.fired:
            return "-"
        if self.via_fallback:
            return f"fallback->{self.target_host}"
        if self.target_host:
            return f"{self.resolved_value or '?'}->{self.target_host}"
        return "unresolved"


def format_diagnoses(
    diagnoses: List[InjectionDiagnosis],
    title: Optional[str] = "Injection diagnoses",
) -> str:
    """Render the per-injection table the report CLI prints."""
    # Imported here, not at module level: repro.core imports the simulator,
    # and the simulator imports repro.obs — the package must stay leaf-like.
    from repro.core.report import format_table

    headers = ["#", "point", "stack-top", "resolution", "action", "outcome", "bugs"]
    rows = []
    for i, d in enumerate(diagnoses):
        rows.append([
            i,
            d.point,
            d.stack[0] if d.stack else "?",
            d.resolution(),
            d.action or "-",
            d.outcome(),
            ",".join(d.matched_bugs) or "-",
        ])
    return format_table(headers, rows, title=title)
