"""CrashTuner phase 1, step 1-2: log analysis + static crash point analysis.

:func:`analyze_system` is the facade: run the workload once to collect
logs, mine them for meta-info variables, build the type model, close over
Definition 2 and emit the optimized static crash points — everything in
the top-left half of the paper's Figure 4.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.analysis.engine import AnalysisEngine, EngineResult
from repro.core.analysis.log_analysis import LogAnalysisResult, analyze_logs
from repro.core.analysis.logging_statements import (
    LogStatement,
    ModuleSource,
    find_logging_statements,
    load_sources,
)
from repro.core.analysis.meta_graph import MetaInfoGraph, host_in_value
from repro.core.analysis.patterns import (
    LogPattern,
    PatternIndex,
    fast_lane,
    fast_lane_enabled,
    pattern_for,
)
from repro.core.analysis.provenance import Provenance, point_key
from repro.core.analysis.static_points import (
    AccessPoint,
    CrashPointResult,
    ExtractionResult,
    MetaInfoTypes,
    READ_KEYWORDS,
    WRITE_KEYWORDS,
    collection_op_kind,
    compute_crash_points,
    extract_access_points,
    infer_meta_info,
)
from repro.core.analysis.summaries import SummaryTable, compute_summaries
from repro.core.analysis.types import TypeModel, TypeRef
from repro.systems.base import RunReport, SystemUnderTest, run_workload, world_scope


def analysis_modules(system: SystemUnderTest) -> List[ModuleSource]:
    """The system's own modules plus the shared id-records library (the
    equivalent of ``yarn.api.records`` — part of the analysed program)."""
    from repro.cluster import ids

    return load_sources(system.source_modules() + [ids])


def cluster_hosts(report: RunReport) -> List[str]:
    """The deployment's host list, as a tester reads it from the config
    file (clients are not cluster members)."""
    assert report.cluster is not None
    return sorted({
        node.host for node in report.cluster.nodes.values() if node.role != "client"
    })


@dataclass
class AnalysisReport:
    """Everything phase 1's analyses produced for one system."""

    system: str
    sources: List[ModuleSource]
    statements: List[LogStatement]
    index: PatternIndex
    model: TypeModel
    log_result: LogAnalysisResult
    meta: MetaInfoTypes
    extraction: ExtractionResult
    crash: CrashPointResult
    hosts: List[str]
    #: the interprocedural engine's run: summaries, provenance, stats
    engine: EngineResult
    #: wall-clock seconds: {"run": .., "log_analysis": .., "static": ..}
    timings: Dict[str, float] = field(default_factory=dict)

    # Table 10 helpers ------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        return {
            "types": len(self.model.classes),
            "fields": len(self.model.all_fields()),
            "access_points": len(self.extraction.points),
            "meta_types": len(self.meta.types),
            "meta_fields": len(self.meta.fields),
            "meta_access_points": len(self.crash.meta_access_points),
            "static_crash_points": len(self.crash.crash_points),
        }


def analyze_system(
    system: SystemUnderTest,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    scale: int = 1,
    engine: Optional[AnalysisEngine] = None,
) -> AnalysisReport:
    """Run phase 1's analyses (Figure 4, top) for one system.

    The static stage runs on an interprocedural :class:`AnalysisEngine`
    (the ``engine`` passed, else a fresh one; it keeps no state, so the
    two agree).  Its output is a strict superset of the original
    single-shot intraprocedural pipeline's; the extras carry
    ``lane == "inter"``.
    """
    with world_scope():  # only world-free values leave it
        t0 = _wallclock.perf_counter()
        report = run_workload(system, seed=seed, config=config, scale=scale)
        t_run = _wallclock.perf_counter() - t0

        t0 = _wallclock.perf_counter()
        sources = analysis_modules(system)
        statements = find_logging_statements(sources)
        index = PatternIndex.from_statements(statements)
        hosts = cluster_hosts(report)
        assert report.log is not None
        log_result = analyze_logs(report.log.records, index, hosts)
        del report
        t_log = _wallclock.perf_counter() - t0

    t0 = _wallclock.perf_counter()
    patched = frozenset(
        (config or {}).get("patched_bugs", ())
        if (config or {}).get("patched_bugs") != "all"
        else ("all",)
    )
    engine_result = (engine or AnalysisEngine()).analyze(
        sources, statements, log_result, patched=patched
    )
    t_static = _wallclock.perf_counter() - t0

    return AnalysisReport(
        system=system.name,
        sources=sources,
        statements=statements,
        index=index,
        model=engine_result.model,
        log_result=log_result,
        meta=engine_result.meta,
        extraction=engine_result.extraction,
        crash=engine_result.crash,
        hosts=hosts,
        engine=engine_result,
        timings={"run": t_run, "log_analysis": t_log, "static": t_static},
    )


__all__ = [
    "AccessPoint",
    "AnalysisEngine",
    "AnalysisReport",
    "CrashPointResult",
    "EngineResult",
    "ExtractionResult",
    "LogAnalysisResult",
    "LogPattern",
    "LogStatement",
    "MetaInfoGraph",
    "MetaInfoTypes",
    "ModuleSource",
    "PatternIndex",
    "Provenance",
    "READ_KEYWORDS",
    "SummaryTable",
    "TypeModel",
    "TypeRef",
    "WRITE_KEYWORDS",
    "analysis_modules",
    "analyze_logs",
    "analyze_system",
    "cluster_hosts",
    "collection_op_kind",
    "compute_crash_points",
    "compute_summaries",
    "extract_access_points",
    "find_logging_statements",
    "host_in_value",
    "infer_meta_info",
    "load_sources",
    "pattern_for",
    "point_key",
]
