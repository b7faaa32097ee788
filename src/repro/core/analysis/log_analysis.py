"""Offline log analysis (paper Section 3.1.1).

Input: runtime log instances, the pattern index built from the system's
logging statements, and the cluster host list from the deployment
configuration.  Matching takes the template-identity fast lane when a
record carries its statement identity (our own loggers always do) and
falls back to the paper's rendered-text scored-regex scheme otherwise —
see :mod:`repro.core.analysis.patterns` for why both lanes are kept.

Output: the meta-info graph, plus the set of *logged meta-info variables*
— (logging statement, placeholder slot) pairs whose runtime values turned
out to be node-referencing or related to a node.  The static analysis
turns those into meta-info types.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.analysis.meta_graph import MetaInfoGraph
from repro.core.analysis.patterns import PatternIndex
from repro.mtlog.records import LogRecord

#: identifies one logged variable: ((module, lineno), slot index)
SlotKey = Tuple[Tuple[str, int], int]


@dataclass
class LogAnalysisResult:
    graph: MetaInfoGraph
    #: every (statement, slot) observed, with its runtime values
    slot_values: Dict[SlotKey, Set[str]] = field(default_factory=dict)
    #: the subset holding meta-info values
    meta_slots: Set[SlotKey] = field(default_factory=set)
    matched: int = 0
    unmatched: int = 0


def analyze_logs(
    records: Sequence[LogRecord],
    index: PatternIndex,
    hosts: Sequence[str],
) -> LogAnalysisResult:
    """Match every instance to a pattern and build the meta-info graph."""
    graph = MetaInfoGraph(hosts)
    slot_values: Dict[SlotKey, Set[str]] = defaultdict(set)
    instances: List[Tuple[Tuple[str, int], Tuple[str, ...]]] = []
    matched = unmatched = 0
    for record in records:
        # template-identity fast lane when the record carries its statement
        # identity; scored regex over the rendered message otherwise
        hit = index.match_record(record)
        if hit is None:
            unmatched += 1
            continue
        matched += 1
        pattern, values = hit
        key = pattern.statement.key()
        for slot, value in enumerate(values):
            slot_values[(key, slot)].add(value.strip())
        graph.add_instance(values)
        instances.append((key, values))
    graph.finalize()

    meta_slots: Set[SlotKey] = set()
    for key, values in instances:
        for slot, value in enumerate(values):
            if graph.is_meta_value(value.strip()):
                meta_slots.add((key, slot))

    return LogAnalysisResult(
        graph=graph,
        slot_values=dict(slot_values),
        meta_slots=meta_slots,
        matched=matched,
        unmatched=unmatched,
    )
