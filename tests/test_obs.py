"""Unit tests for repro.obs: tracer, metrics, context, export, report CLI."""

import json
import os

import pytest

from repro.cluster import Cluster
from repro.obs import (
    NULL_OBS,
    InjectionDiagnosis,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Observability,
    SpanRecord,
    Tracer,
    format_diagnoses,
    get_obs,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.report import diff, main, summarize, summarize_json


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_spans_nest_and_record_parents():
    tracer = Tracer()
    with tracer.span("outer", a=1) as outer:
        tracer.event("inside")
        with tracer.span("inner"):
            pass
        outer.set(b=2)
    assert [s.name for s in tracer.spans] == ["inside", "inner", "outer"]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["inside"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert by_name["outer"].attrs == {"a": 1, "b": 2}


def test_spans_are_stamped_with_simulated_time():
    tracer = Tracer()
    cluster = Cluster("t")
    with cluster:
        with tracer.span("run") as span:
            cluster.loop.schedule(5.0, lambda: tracer.event("tick"))
            cluster.run()
    record = tracer.named("run")[0]
    assert record.start == 0.0
    assert record.end == 5.0
    assert record.duration == 5.0
    assert tracer.named("tick")[0].start == 5.0


def test_exception_unwinding_closes_open_spans():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            inner = tracer.span("inner")  # deliberately not used as a ctx
            assert inner.record.name == "inner"
            raise RuntimeError("boom")
    assert {s.name for s in tracer.spans} == {"outer", "inner"}
    assert all(s.end is not None for s in tracer.spans)


def test_tracer_max_spans_counts_drops():
    tracer = Tracer(max_spans=2)
    for i in range(5):
        tracer.event("e", i=i)
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3


def test_null_tracer_is_inert():
    tracer = NullTracer()
    with tracer.span("anything", x=1) as span:
        span.set(y=2)
    tracer.event("nothing")
    assert len(tracer) == 0
    assert tracer.spans == []
    assert not tracer.enabled


def test_span_record_roundtrip():
    record = SpanRecord(span_id=3, parent_id=1, name="rpc", start=1.5,
                        end=2.0, node="nm1", attrs={"method": "ping"})
    assert SpanRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_metrics_registry_counters_gauges_histograms():
    metrics = MetricsRegistry()
    metrics.counter("c").inc()
    metrics.counter("c").inc(4)
    metrics.gauge("g").set(7.5)
    for v in (1.0, 3.0, 2.0):
        metrics.histogram("h").observe(v)
    snap = metrics.snapshot()
    assert snap["counters"] == {"c": 5}
    assert snap["gauges"] == {"g": 7.5}
    assert snap["histograms"]["h"] == {
        "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
    }


def test_metrics_instruments_are_memoized():
    metrics = MetricsRegistry()
    assert metrics.counter("x") is metrics.counter("x")
    assert metrics.histogram("x") is metrics.histogram("x")


def test_empty_histogram_summary_is_zeroed():
    assert MetricsRegistry().histogram("h").summary()["min"] == 0.0


def test_null_registry_is_inert():
    metrics = NullMetricsRegistry()
    metrics.counter("c").inc()
    metrics.gauge("g").set(1)
    metrics.histogram("h").observe(1)
    assert metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert not metrics.enabled


# ----------------------------------------------------------------------
# ambient context
# ----------------------------------------------------------------------
def test_default_context_is_null_and_disabled():
    assert get_obs() is NULL_OBS
    assert not NULL_OBS.enabled
    assert not NULL_OBS.tracer.enabled
    assert not NULL_OBS.metrics.enabled


def test_context_installs_and_restores():
    obs = Observability()
    with obs:
        assert get_obs() is obs
        assert get_obs().enabled
    assert get_obs() is NULL_OBS


def test_context_reentry_restores_correctly():
    obs = Observability()
    with obs:
        with obs:  # crashtuner() around run_campaign() re-enters
            assert get_obs() is obs
        assert get_obs() is obs
    assert get_obs() is NULL_OBS


def test_cluster_snapshots_ambient_context_at_construction():
    obs = Observability()
    with obs:
        cluster = Cluster("t")
    assert cluster.obs is obs
    assert cluster.loop.obs is obs
    assert Cluster("u").obs is NULL_OBS


# ----------------------------------------------------------------------
# export + report CLI
# ----------------------------------------------------------------------
def _sample_obs():
    obs = Observability()
    with obs:
        with obs.tracer.span("workload", system="toy"):
            obs.tracer.event("fault.crash", node="n1")
        obs.metrics.counter("net.rpcs_sent").inc(3)
        obs.metrics.histogram("sim.queue_depth").observe(4.0)
        obs.diagnoses.append(InjectionDiagnosis(
            system="toy", point="read F.x via getfield at m:1", op="read",
            field_name="x", enclosing="F.f", stack=["m.F.f:1"], fired=True,
            values=["v1"], resolved_value="v1", target_host="n1",
            action="shutdown", verdict_kinds=["hang"], flagged=True,
            matched_bugs=["TOY-1"], duration=2.0, events_processed=10,
        ))
    return obs


def test_trace_jsonl_roundtrip(tmp_path):
    obs = _sample_obs()
    path = write_trace_jsonl(tmp_path / "t.jsonl", obs=obs,
                             meta={"system": "toy", "seed": 3})
    trace = read_trace_jsonl(path)
    assert trace.meta == {"system": "toy", "seed": 3}
    assert [s.name for s in trace.spans] == [s.name for s in obs.tracer.spans]
    assert trace.spans[0].to_dict() == obs.tracer.spans[0].to_dict()
    assert trace.metrics == obs.metrics.snapshot()
    assert len(trace.diagnoses) == 1
    assert trace.diagnoses[0] == obs.diagnoses[0]


def test_trace_jsonl_surfaces_dropped_spans(tmp_path):
    obs = Observability(tracer=Tracer(max_spans=1))
    with obs:
        obs.tracer.event("a")
        obs.tracer.event("b")
    trace = read_trace_jsonl(write_trace_jsonl(tmp_path / "t.jsonl", obs=obs))
    assert trace.meta["dropped_spans"] == 1


def test_trace_jsonl_rejects_unknown_line_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "mystery"}) + "\n")
    with pytest.raises(ValueError, match="mystery"):
        read_trace_jsonl(path)


def test_diagnosis_outcome_and_resolution_labels():
    d = InjectionDiagnosis(system="s", point="p", op="read", field_name="f",
                           enclosing="C.m")
    assert d.outcome() == "not-fired" and d.resolution() == "-"
    d.fired = True
    assert d.outcome() == "unresolved" and d.resolution() == "unresolved"
    d.action = "crash"
    d.resolved_value, d.target_host = "v", "n2"
    assert d.outcome() == "ok" and d.resolution() == "v->n2"
    d.via_fallback = True
    assert d.resolution() == "fallback->n2"
    d.flagged, d.verdict_kinds = True, ["hang", "timeout"]
    assert d.outcome() == "hang+timeout"


def test_format_diagnoses_renders_table():
    obs = _sample_obs()
    text = format_diagnoses(obs.diagnoses)
    assert "Injection diagnoses" in text
    assert "v1->n1" in text
    assert "TOY-1" in text


def test_summarize_and_diff(tmp_path):
    obs = _sample_obs()
    trace = read_trace_jsonl(write_trace_jsonl(tmp_path / "a.jsonl", obs=obs,
                                               meta={"system": "toy"}))
    text = summarize(trace)
    assert "workload" in text and "net.rpcs_sent" in text and "hang" in text

    other = _sample_obs()
    other.metrics.counter("net.rpcs_sent").inc(2)
    other.diagnoses[0].matched_bugs = []
    other.diagnoses[0].verdict_kinds = []
    other.diagnoses[0].flagged = False
    trace_b = read_trace_jsonl(write_trace_jsonl(tmp_path / "b.jsonl", obs=other))
    delta = diff(trace, trace_b)
    assert "net.rpcs_sent" in delta and "+2" in delta
    assert "hang" in delta and "TOY-1" in delta


def test_report_cli_summarize_and_diff(tmp_path, capsys):
    obs = _sample_obs()
    a = str(write_trace_jsonl(tmp_path / "a.jsonl", obs=obs))
    b = str(write_trace_jsonl(tmp_path / "b.jsonl", obs=_sample_obs()))
    assert main([a]) == 0
    assert "Injection diagnoses" in capsys.readouterr().out
    assert main([a, b]) == 0
    assert "No diagnosis changes" in capsys.readouterr().out
    # explicit subcommands mean the same thing as the legacy spellings
    assert main(["summarize", a]) == 0
    assert "Injection diagnoses" in capsys.readouterr().out
    assert main(["diff", a, b]) == 0
    assert "No diagnosis changes" in capsys.readouterr().out


def test_report_cli_summarize_json(tmp_path, capsys):
    obs = _sample_obs()
    a = str(write_trace_jsonl(tmp_path / "a.jsonl", obs=obs,
                              meta={"system": "toy"}))
    assert main(["summarize", a, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"] == {"system": "toy"}
    assert payload["outcomes"] == {"hang": 1}
    assert payload["bugs"] == {"TOY-1": 1}
    assert payload["spans"]["workload"]["count"] == 1
    assert payload["diagnoses"][0]["point"] == obs.diagnoses[0].point
    # the function behind the flag is the payload diff() consumes
    assert payload == summarize_json(read_trace_jsonl(a))

    dump = tmp_path / "summary.json"
    assert main(["summarize", a, "--json", str(dump)]) == 0
    assert f"wrote {dump}" in capsys.readouterr().out
    assert json.loads(dump.read_text()) == payload


def test_report_cli_errors_cleanly_on_missing_and_corrupt(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert main([missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"type": "meta"}\nnot json at all\n{"type": "meta"}\n')
    assert main(["summarize", str(corrupt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not JSON" in err and ":2" in err

    assert main(["diff", missing, missing]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------
# round-trip edges (empty, unicode, killed writer, forward compatibility)
# ----------------------------------------------------------------------
def test_empty_trace_roundtrip(tmp_path, capsys):
    path = write_trace_jsonl(tmp_path / "empty.jsonl", diagnoses=[])
    trace = read_trace_jsonl(path)
    assert trace.meta == {} and trace.spans == []
    assert trace.metrics == {} and trace.diagnoses == []
    assert main([str(path)]) == 0
    assert "(empty trace)" in capsys.readouterr().out


def test_unicode_survives_the_roundtrip(tmp_path):
    obs = Observability()
    with obs:
        with obs.tracer.span("workload", note="héârtbeat – 心跳 ✓"):
            pass
        obs.diagnoses.append(InjectionDiagnosis(
            system="toy", point="read F.x via getfield at m:1", op="read",
            field_name="x", enclosing="F.f", fired=True,
            values=["ünïcode-väl", "节点-1"], resolved_value="节点-1",
            target_host="nœud-1",
            uncommon_templates=["nm|ERROR|lost node {} ümlaut|KeyError"],
        ))
    trace = read_trace_jsonl(write_trace_jsonl(tmp_path / "u.jsonl", obs=obs))
    assert trace.spans[0].attrs["note"] == "héârtbeat – 心跳 ✓"
    assert trace.diagnoses[0] == obs.diagnoses[0]


def test_a_trace_write_killed_at_rename_leaves_the_previous_trace(
        tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(path, meta={"system": "previous"})
    previous = path.read_bytes()

    def killed(src, dst):
        raise OSError("killed at rename")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", killed)
        for target in (path, tmp_path / "fresh.jsonl"):
            with pytest.raises(OSError, match="killed at rename"):
                write_trace_jsonl(target, obs=_sample_obs())
    # the previous trace, whole, or no trace at all — and no temp file
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]

    # a reader never meets a torn trace, so it forgives none
    whole = write_trace_jsonl(path, obs=_sample_obs()).read_text()
    path.write_text(whole[:-9])
    last = whole.count("\n")
    with pytest.raises(ValueError, match=f":{last}: not JSON"):
        read_trace_jsonl(path)


def test_diagnosis_from_dict_ignores_forward_keys(tmp_path):
    d = _sample_obs().diagnoses[0]
    data = d.to_dict()
    data["added_in_a_future_release"] = {"nested": True}
    assert InjectionDiagnosis.from_dict(data) == d
    # and a whole trace line carrying unknown keys reads fine
    path = tmp_path / "fwd.jsonl"
    path.write_text(json.dumps({"type": "diagnosis", **data}) + "\n")
    assert read_trace_jsonl(path).diagnoses == [d]


def test_malformed_record_reports_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "span", "nonsense": 1}\n{"type": "meta"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed span"):
        read_trace_jsonl(path)
