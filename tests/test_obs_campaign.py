"""Campaign-level observability: diagnoses, metrics, traces, and the CLI.

Covers the acceptance criterion: a YARN campaign run with observability
enabled emits a JSONL trace and metrics snapshot with one diagnosis
record per dynamic crash point tested — point id, value -> node
resolution, action taken, and oracle verdict.
"""

import pytest

from repro.obs import Observability, read_trace_jsonl, write_trace_jsonl
from repro.obs.report import main as report_main
from tests.conftest import campaign, reference

#: enough YARN points to cover unresolved, crash, shutdown, and flagged runs
N_POINTS = 12


@pytest.fixture(scope="module")
def traced_with_fallback():
    obs = Observability()
    # classification off: targeting ignores it, hang extensions cost seconds
    campaign("yarn", N_POINTS, random_fallback=True, classify_timeouts=False,
             obs=obs)
    return obs


def test_campaign_emits_one_diagnosis_per_point():
    result, obs = reference("yarn", traced=True, n_points=N_POINTS)
    assert len(obs.diagnoses) == N_POINTS
    assert len(result.diagnoses()) == N_POINTS
    for outcome, diagnosis in zip(result.outcomes, result.diagnoses()):
        assert diagnosis.point == outcome.dpoint.point.describe()
        assert diagnosis.fired == outcome.fired
        assert diagnosis.flagged == outcome.flagged
        assert diagnosis.verdict_kinds == outcome.verdict.kinds()
        assert diagnosis.matched_bugs == outcome.matched_bugs
        assert diagnosis.duration == outcome.duration
        if outcome.injection is not None:
            assert diagnosis.action == outcome.injection.kind
            assert diagnosis.target_host == outcome.injection.target_host
            assert diagnosis.injection_time == outcome.injection.time
        else:
            assert diagnosis.action == ""
        assert diagnosis.events_processed > 0


def test_campaign_metrics_snapshot_covers_every_layer():
    result, obs = reference("yarn", traced=True, n_points=N_POINTS)
    counters = result.metrics["counters"]
    # sim kernel, network, injection, oracle — every layer reported in
    assert counters["sim.events_processed"] > 0
    assert counters["net.rpcs_sent"] > 0
    assert counters["net.rpcs_delivered"] > 0
    assert counters["inject.crash_points_visited"] > 0
    assert counters["oracle.flagged"] + counters["oracle.clean"] >= N_POINTS
    assert counters["fault.crashes"] + counters["fault.shutdowns"] > 0
    assert result.metrics["histograms"]["sim.queue_depth"]["count"] == \
        counters["sim.events_processed"]
    assert result.metrics["gauges"]["onlinelog.store_size"] > 0


def test_one_injection_is_counted_once_whatever_its_verdict():
    # a flagged hang's extension continues its own run, so classifying
    # timeouts adds no second injection, crash or workload span (a re-run
    # used to: hbase reported 35 visits for 28 fired points)
    runs = {}
    for classify in (True, False):
        if classify:
            result, obs = reference("hbase", traced=True)
        else:
            obs = Observability()
            result = campaign("hbase", classify_timeouts=False, obs=obs)
        runs[classify] = counters = result.metrics["counters"]
        fired = sum(o.fired for o in result.outcomes)
        assert counters["inject.crash_points_visited"] == fired
        (root,) = [s for s in obs.tracer.spans if s.name == "campaign"]
        workloads = [s for s in obs.tracer.spans
                     if s.name == "workload" and s.parent_id == root.span_id]
        assert len(workloads) == len(result.outcomes)
        if classify:  # the case is live: some run was extended and completed
            assert any("timeout" in o.verdict.kinds() for o in result.outcomes)
    assert runs[True]["fault.crashes"] == runs[False]["fault.crashes"]
    assert runs[True]["inject.crashes"] == runs[False]["inject.crashes"]


def _extensions(result, obs):
    """(the two extension counters, each extended run's span attributes)."""
    counters = result.metrics["counters"]
    return (
        counters["campaign.hangs_extended"],
        counters["campaign.extension_sim_seconds"],
        [{k: s.attrs[k] for k in ("completed", "extended_until",
                                  "extension_consults")}
         for s in obs.tracer.named("workload") if "extended_until" in s.attrs],
    )


def test_hang_extensions_say_how_far_they_ran_and_why_they_stopped():
    result, obs = reference("yarn", traced=True, n_points=N_POINTS)
    extended, sim_seconds, spans = _extensions(result, obs)
    # one true hang (the commit livelock) and two timeout issues
    kinds = [o.verdict.kinds() for o in result.outcomes]
    assert extended == len(spans) == 3 == sum(
        "hang" in k or "timeout" in k for k in kinds)
    (hang,) = [s for s in spans if not s["completed"]]
    # it stopped where yarn had outlived its longest wait (the reduce
    # fetch budget) with nothing recovering: consulted at the deadline,
    # and once more there — far below the 400x cap
    assert hang == {"completed": False, "extended_until": 32.0 + 700.0 + 32.0,
                    "extension_consults": 2}
    assert hang["extended_until"] < 8.0 * 400
    assert all(s["extension_consults"] == 1 for s in spans if s["completed"])
    assert sim_seconds == round(764.0 - 32.0) + sum(
        round(o.duration - 32.0) for o in result.outcomes
        if o.verdict.timeout_issue)
    # a snapshot child answers the seam through the same judge
    obs_snap = Observability()
    snap = campaign("yarn", N_POINTS, execution="snapshot", obs=obs_snap)
    assert _extensions(snap, obs_snap) == (extended, sim_seconds, spans)


def test_hbase_true_hangs_still_run_to_the_cap():
    # its client's retry budget (1 501 x 4 s) is a configured wait longer
    # than 400x one run, so the cap decides — but not for a doomed run:
    # HBASE-22017's master is dead before the client holds a row, and is
    # judged at its deadline without an extension
    result, obs = reference("hbase", traced=True)
    extended, _, spans = _extensions(result, obs)
    hangs = [s for s in spans if not s["completed"]]
    assert extended == 6 and len(hangs) == 3
    assert all(s["extended_until"] == 6.0 * 400 for s in hangs)
    (root,) = obs.tracer.named("campaign")
    runs = [s for s in obs.tracer.named("workload")
            if s.parent_id == root.span_id]
    assert len(runs) == len(result.outcomes)
    (doomed,) = [(o, s) for o, s in zip(result.outcomes, runs)
                 if s.attrs.get("doomed")]
    outcome, span = doomed
    assert outcome.verdict.hang and "HBASE-22017" in outcome.matched_bugs
    assert "extended_until" not in span.attrs


def test_campaign_trace_spans_cover_workload_rpc_recovery_injection():
    _, obs = reference("yarn", traced=True, n_points=N_POINTS)
    names = {s.name for s in obs.tracer.spans}
    assert "workload" in names
    assert "rpc" in names
    assert "injection" in names
    assert any(n.startswith("recovery.") for n in names)
    # every injection span sits somewhere below a workload span (directly
    # for timer-context triggers, via an rpc span for handler-context ones)
    by_id = {s.span_id: s for s in obs.tracer.spans}
    workload_ids = {s.span_id for s in obs.tracer.named("workload")}

    def has_workload_ancestor(span):
        parent = span.parent_id
        while parent is not None:
            if parent in workload_ids:
                return True
            parent = by_id[parent].parent_id
        return False

    injections = obs.tracer.named("injection")
    assert injections
    assert all(has_workload_ancestor(s) for s in injections)


def test_resolution_fields_distinguish_store_hits_from_fallback(
        traced_with_fallback):
    _, obs = reference("yarn", traced=True, n_points=N_POINTS)
    resolved = [d for d in obs.diagnoses if d.fired and d.action]
    assert resolved, "expected some points to resolve via the online store"
    for diagnosis in resolved:
        assert diagnosis.resolved_value != ""
        assert not diagnosis.via_fallback
        assert diagnosis.target_host
    unresolved = [d for d in obs.diagnoses if d.fired and not d.action]
    assert unresolved, "expected some early-startup points to be unresolvable"

    fallback = [d for d in traced_with_fallback.diagnoses if d.via_fallback]
    assert fallback, "random fallback should target unresolvable points"
    for diagnosis in fallback:
        assert diagnosis.resolved_value == ""
        assert diagnosis.target_host
        assert diagnosis.action


def test_campaign_trace_jsonl_and_cli(tmp_path, capsys, traced_with_fallback):
    result, obs = reference("yarn", traced=True, n_points=N_POINTS)
    path = write_trace_jsonl(tmp_path / "yarn.jsonl", obs=obs,
                             meta={"system": "yarn"})
    trace = read_trace_jsonl(path)
    assert len(trace.diagnoses) == N_POINTS
    assert trace.metrics == result.metrics
    assert len(trace.spans) == len(obs.tracer.spans)

    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "Injection diagnoses" in out
    assert "sim.events_processed" in out

    path_fb = write_trace_jsonl(tmp_path / "yarn-fb.jsonl",
                                obs=traced_with_fallback)
    assert report_main([str(path), str(path_fb)]) == 0
    out = capsys.readouterr().out
    assert "Metric deltas" in out


def test_observability_off_still_populates_diagnoses():
    result = campaign("yarn", 4)
    assert result.metrics is None
    assert len(result.diagnoses()) == 4
