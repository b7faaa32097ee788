"""The interprocedural analysis engine: phase 1's static stage.

Wraps the paper-faithful single-shot analysis in two capabilities:

1. **Interprocedural typing** — a method-summary fixpoint with
   receiver-type dispatch (return inference bottom-up, argument
   propagation top-down, element typing for loop targets).  The summaries
   feed :class:`~repro.core.analysis.types.ExprTyper` so field accesses in
   unannotated helper code become visible.
2. **Provenance** — every meta-info conclusion and crash point records why
   it holds, as a graph whose roots are seed logging statements; rendered
   by ``python -m repro analysis report``.

:meth:`AnalysisEngine.analyze` is a function of its arguments: it keeps no
state between calls, so a fresh engine and a reused one agree.

Superset guarantee
------------------

Summary-augmented typing is *not* monotone for the meta-info closure: a
newly visible external write can disqualify a containing class.  The
engine therefore runs **two** passes — a *baseline* pass byte-identical to
the engine-off path, and an *augmented* pass with summaries enabled — and
merges them: final crash points are the baseline's (lane ``"intra"``) plus
the augmented-only extras (lane ``"inter"``).  Pruning statistics are the
baseline's, so Table 12 is unchanged by construction, and engine-on output
is a strict superset of engine-off output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Sequence, Tuple

from repro.core.analysis.log_analysis import LogAnalysisResult
from repro.core.analysis.logging_statements import LogStatement, ModuleSource
from repro.core.analysis.provenance import Provenance, point_key
from repro.core.analysis.static_points import (
    AccessPoint,
    CrashPointResult,
    ExtractionResult,
    MetaInfoTypes,
    compute_crash_points,
    extract_access_points,
    infer_meta_info,
)
from repro.core.analysis.summaries import SummaryTable, compute_summaries
from repro.core.analysis.types import TypeModel
from repro.obs import get_obs


@dataclass
class EngineResult:
    """Everything one :meth:`AnalysisEngine.analyze` run produced."""

    model: TypeModel
    #: merged extraction: baseline points plus augmented-only extras
    extraction: ExtractionResult
    #: the baseline (engine-off-equivalent) meta-info universe
    meta: MetaInfoTypes
    #: merged crash points — baseline lane "intra" plus extras lane
    #: "inter"; pruning statistics are the baseline's
    crash: CrashPointResult
    provenance: Provenance
    summaries: SummaryTable
    #: plain-dict metrics (fixpoint_iterations, inter_crash_points, ...)
    stats: Dict[str, Any] = field(default_factory=dict)


class AnalysisEngine:
    """The static-stage driver: both lanes, merged, with provenance."""

    def analyze(
        self,
        sources: Sequence[ModuleSource],
        statements: Sequence[LogStatement],
        log_result: LogAnalysisResult,
        patched: FrozenSet[str] = frozenset(),
    ) -> EngineResult:
        obs = get_obs()
        with obs.tracer.span("analysis.engine", modules=len(sources)):
            with obs.tracer.span("analysis.engine.model"):
                model = TypeModel.build(sources)
            with obs.tracer.span("analysis.engine.fixpoint"):
                summaries, iterations = compute_summaries(model)
            with obs.tracer.span("analysis.engine.extract"):
                base_ext = extract_access_points(model, sources, patched)
                aug_ext = extract_access_points(model, sources, patched,
                                                summaries=summaries)

            provenance = Provenance()
            with obs.tracer.span("analysis.engine.infer"):
                base_meta = infer_meta_info(
                    model, log_result, statements, base_ext,
                    provenance=provenance,
                )
                base_crash = compute_crash_points(model, base_ext, base_meta)
                aug_meta = infer_meta_info(
                    model, log_result, statements, aug_ext,
                    summaries=summaries, provenance=provenance,
                )
                aug_crash = compute_crash_points(model, aug_ext, aug_meta)

            crash, extraction = _merge(base_ext, aug_ext, base_crash, aug_crash)
            _record_point_provenance(
                provenance, crash.crash_points, summaries, aug_ext.used_facts
            )

            returns, params = summaries.counts()
            stats: Dict[str, Any] = {
                "modules_total": len(sources),
                "fixpoint_iterations": iterations,
                "summary_returns": returns,
                "summary_params": params,
                "baseline_crash_points": len(base_crash.crash_points),
                "inter_crash_points": sum(
                    1 for p in crash.crash_points if p.lane == "inter"
                ),
            }
            model.release_bodies()  # one index per body per analysis
            obs.metrics.counter("analysis.engine.runs").inc()
            obs.metrics.counter("analysis.engine.inter_points").inc(
                stats["inter_crash_points"]
            )

        return EngineResult(
            model=model,
            extraction=extraction,
            meta=base_meta,
            crash=crash,
            provenance=provenance,
            summaries=summaries,
            stats=stats,
        )


def _merge(
    base_ext: ExtractionResult,
    aug_ext: ExtractionResult,
    base_crash: CrashPointResult,
    aug_crash: CrashPointResult,
) -> Tuple[CrashPointResult, ExtractionResult]:
    """Baseline ∪ augmented-extras, with the extras tagged lane="inter"."""
    base_keys = {point_key(p) for p in base_crash.crash_points}
    extras = sorted(
        (replace(p, lane="inter") for p in aug_crash.crash_points
         if point_key(p) not in base_keys),
        key=lambda p: (p.module, p.lineno, p.op),
    )
    base_meta_keys = {point_key(p) for p in base_crash.meta_access_points}
    meta_extras = [
        replace(p, lane="inter") for p in aug_crash.meta_access_points
        if point_key(p) not in base_meta_keys
    ]
    crash = CrashPointResult(
        crash_points=base_crash.crash_points + extras,
        meta_access_points=base_crash.meta_access_points + meta_extras,
        pruned_constructor=base_crash.pruned_constructor,
        pruned_unused=base_crash.pruned_unused,
        pruned_sanity=base_crash.pruned_sanity,
        promoted=base_crash.promoted,
    )
    extraction = ExtractionResult(
        points=base_ext.points + meta_extras,
        call_sites=base_ext.call_sites,
        external_writes=base_ext.external_writes,
        used_facts=aug_ext.used_facts,
    )
    return crash, extraction


def _record_point_provenance(
    provenance: Provenance,
    crash_points: Sequence[AccessPoint],
    summaries: SummaryTable,
    used_facts: Dict[Tuple[str, str], FrozenSet],
) -> None:
    """Hang every crash point off its meta-info field (and, for inter
    points, off the summary facts that made the receiver typeable)."""
    for point in crash_points:
        pkey = provenance.node(
            point_key(point), f"crash point: {point.describe()}"
        )
        fkey = ("field", point.field_cls.rsplit(".", 1)[-1], point.field_name)
        provenance.edge(pkey, fkey, "access to a meta-info field survives pruning")
        if point.promoted_from is not None:
            origin = ("point", point.promoted_from[0], point.promoted_from[1],
                      point.op, point.via, point.field_cls, point.field_name)
            provenance.node(
                origin,
                f"return-only read of {point.field_cls.rsplit('.', 1)[-1]}."
                f"{point.field_name} at "
                f"{point.promoted_from[0]}:{point.promoted_from[1]}",
            )
            provenance.edge(pkey, origin,
                            "promoted from a return-only read to this call site")
            provenance.edge(origin, fkey, "access to a meta-info field")
        if point.lane != "inter":
            continue
        for fact in sorted(used_facts.get((point.module, point.enclosing), ())):
            skey = provenance.node(
                ("summary",) + tuple(fact), summaries.describe_fact(fact)
            )
            provenance.edge(
                pkey, skey, "receiver typeable only via an inferred summary"
            )
