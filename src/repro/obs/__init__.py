"""Observability over simulated time: spans, metrics, diagnosis, export.

The subsystem the campaign pipeline threads through every layer:

* :class:`Observability` — tracer + metrics + diagnosis sink, installed
  as the ambient context via ``with``; :data:`NULL_OBS` is the zero-cost
  default (see :mod:`repro.obs.context`),
* :class:`Tracer` / :class:`SpanRecord` — nested spans keyed by sim time,
* :class:`MetricsRegistry` — counters/gauges/histograms with snapshots,
* :class:`InjectionDiagnosis` — one record per dynamic crash point tested,
* :func:`write_trace_jsonl` / :func:`read_trace_jsonl` — the JSONL trace
  format consumed by ``python -m repro report``,
* :class:`AnalyticsReport` / :func:`analyze_trace` — post-hoc failure-mode
  analytics (clustering, detection dedup, anomaly ranking, novelty
  scheduling), the ``python -m repro analytics`` CLI's engine.
"""

from repro.obs.context import NULL_OBS, Observability, get_obs
from repro.obs.diagnosis import InjectionDiagnosis, format_diagnoses
from repro.obs.export import TraceData, read_trace_jsonl, write_trace_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, NullMetricsRegistry
from repro.obs.tracer import NullTracer, SpanRecord, Tracer


def __getattr__(name: str):
    # lazy: keeps `python -m repro.obs.analytics` from re-executing a
    # module this package already imported (the runpy double-import warning)
    if name in ("AnalyticsReport", "analyze_trace"):
        from repro.obs import analytics

        return getattr(analytics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NULL_OBS",
    "AnalyticsReport",
    "Counter",
    "Gauge",
    "Histogram",
    "InjectionDiagnosis",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "SpanRecord",
    "TraceData",
    "Tracer",
    "analyze_trace",
    "format_diagnoses",
    "get_obs",
    "read_trace_jsonl",
    "write_trace_jsonl",
]
