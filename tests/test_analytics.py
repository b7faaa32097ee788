"""Failure-mode analytics: featurizer, clustering, dedup, novelty scheduling.

Covers the acceptance criteria: dedup groups every detection of each
seeded bug into one canonical detection (pinned against the bug catalog),
``point_order="novelty"`` reaches the first detection in strictly fewer
injections than point order on the seeded yarn campaign, the analytics
pass is byte-deterministic, and running it leaves the campaign's outputs
untouched.
"""

import json

import pytest

from repro.bugs import seeded_bugs
from repro.core.injection import CampaignConfig, JournalMismatch
from repro.obs import Observability, read_trace_jsonl, write_trace_jsonl
from repro.obs.analytics import (
    analyze_diagnoses,
    analyze_trace,
    cluster_modes,
    main as analytics_main,
    novelty_order,
    observed_from_analytics,
    order_points,
)
from repro.obs.features import (
    featurize,
    jaccard_distance,
    point_tokens,
    static_only,
    static_tokens,
)
from tests.conftest import campaign, prepared, reference

@pytest.fixture(scope="module")
def full_analytics():
    """``name ->`` the analytics pass over that traced reference's evidence."""
    reports = {}
    for name in ("yarn", "hbase"):
        result, obs = reference(name, traced=True)
        reports[name] = analyze_diagnoses(result.diagnoses(), spans=obs.tracer.spans)
    return reports


# ----------------------------------------------------------------------
# featurizer
# ----------------------------------------------------------------------
def test_static_tokens_identical_from_point_and_diagnosis():
    # the contract putting pending points and finished injections in one
    # feature space: point_tokens (pre-run) == static_tokens (post-run)
    result, obs = reference("yarn", traced=True)
    assert len(obs.diagnoses) == len(result.outcomes)
    for outcome, diagnosis in zip(result.outcomes, obs.diagnoses):
        assert point_tokens(outcome.dpoint) == static_tokens(diagnosis)


def test_featurize_tokens_are_static_plus_dynamic():
    result, obs = reference("yarn", traced=True)
    features, span_features = featurize(obs.diagnoses, spans=obs.tracer.spans)
    assert span_features
    for feat, diagnosis in zip(features, obs.diagnoses):
        assert static_only(feat.tokens) == static_tokens(diagnosis)
        assert f"outcome:{diagnosis.outcome()}" in feat.tokens
        for bug in diagnosis.matched_bugs:
            assert f"bug:{bug}" in feat.tokens
        if span_features:
            assert any(t.startswith("span:") for t in feat.tokens)


def test_span_features_survive_unclassified_hangs():
    # one workload span per injection whatever the verdict: fired hangs
    # that never got an extension used to be booked as two runs each,
    # which dropped span features for the whole trace
    obs = Observability()
    campaign("hbase", classify_timeouts=False, obs=obs)
    assert any(d.fired and "hang" in d.verdict_kinds for d in obs.diagnoses)
    features, span_features = featurize(obs.diagnoses, spans=obs.tracer.spans)
    assert span_features
    assert all(any(t.startswith("span:") for t in f.tokens) for f in features)


def test_span_features_dropped_when_unattributable():
    _, obs = reference("yarn", traced=True)
    # hand the featurizer a span set that cannot add up (no spans at all,
    # then a truncated one): it must degrade, not misattribute
    _, ok = featurize(obs.diagnoses, spans=None)
    assert not ok
    _, ok = featurize(obs.diagnoses, spans=obs.tracer.spans[: len(obs.tracer.spans) // 2])
    assert not ok


def test_jaccard_distance_bounds():
    a = frozenset({"x", "y"})
    assert jaccard_distance(a, a) == 0.0
    assert jaccard_distance(a, frozenset()) == 1.0
    assert jaccard_distance(frozenset(), frozenset()) == 0.0


# ----------------------------------------------------------------------
# clustering
# ----------------------------------------------------------------------
def test_cluster_modes_partition_and_threshold_extremes(full_analytics):
    _, obs = reference("yarn", traced=True)
    rep = full_analytics["yarn"]
    covered = sorted(i for m in rep.modes for i in m.members)
    assert covered == list(range(len(obs.diagnoses)))
    for mode in rep.modes:
        assert mode.medoid in mode.members
        assert mode.members == sorted(mode.members)

    features, _ = featurize(obs.diagnoses, spans=obs.tracer.spans)
    singletons = cluster_modes(features, obs.diagnoses, threshold=-1.0)
    assert len(singletons) == len(obs.diagnoses)
    merged = cluster_modes(features, obs.diagnoses, threshold=1.0)
    assert len(merged) == 1


def test_analytics_json_is_byte_deterministic(tmp_path, full_analytics):
    _, obs = reference("yarn", traced=True)
    path = write_trace_jsonl(tmp_path / "yarn.jsonl", obs=obs)
    once = analyze_trace(read_trace_jsonl(path)).to_json()
    again = analyze_trace(read_trace_jsonl(path)).to_json()
    assert once == again
    # and the in-process report (computed from live objects) agrees
    assert full_analytics["yarn"].to_json() == once


# ----------------------------------------------------------------------
# detection dedup (pinned against the bug catalog)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["yarn", "hbase"])
def test_dedup_collapses_every_seeded_bug(name, full_analytics):
    _, obs = reference(name, traced=True)
    rep = full_analytics[name]
    raw = {}
    for i, diagnosis in enumerate(obs.diagnoses):
        for bug in diagnosis.matched_bugs:
            raw.setdefault(bug, []).append(i)
    assert raw, f"the seeded {name} campaign must detect bugs"
    # one canonical detection per bug, carrying every detecting index
    assert {c.bug for c in rep.dedup} == set(raw)
    catalog = {b.id for b in seeded_bugs(name)}
    assert set(raw) <= catalog
    for canonical in rep.dedup:
        assert canonical.members == raw[canonical.bug]
        assert canonical.canonical == min(raw[canonical.bug])
        assert canonical.point == obs.diagnoses[canonical.canonical].point
        assert canonical.modes  # every member sits in some mode
    # ordered by first detection
    firsts = [c.canonical for c in rep.dedup]
    assert firsts == sorted(firsts)


# ----------------------------------------------------------------------
# novelty-first scheduling
# ----------------------------------------------------------------------
def test_novelty_order_is_deterministic_permutation():
    sets = [frozenset({"a"}), frozenset({"a", "b"}), frozenset({"c"}),
            frozenset({"c", "d"}), frozenset({"a"})]
    order = novelty_order(sets)
    assert sorted(order) == list(range(len(sets)))
    assert order == novelty_order(sets)
    assert novelty_order([]) == []
    assert novelty_order([frozenset({"x"})]) == [0]


def test_novelty_order_starts_far_from_observed():
    sets = [frozenset({"a", "b"}), frozenset({"c", "d"})]
    # with {a,b} already observed, the first pick must be the c/d point
    assert novelty_order(sets, observed=[frozenset({"a", "b"})])[0] == 1


def test_novelty_reaches_first_detection_sooner_on_yarn():
    first_point = reference("yarn").first_detection()
    assert first_point  # point order does not detect at its very first point
    # the acceptance criterion: strictly fewer injections to first detection
    by_novelty = campaign("yarn", point_order="novelty", max_points=first_point)
    assert by_novelty.point_order == "novelty"
    assert by_novelty.first_detection() is not None
    # hbase's point order already detects at its second point: there
    # novelty order must at least never schedule the detection later
    hbase_first = reference("hbase").first_detection()
    hbase_novelty = campaign("hbase", point_order="novelty",
                             max_points=hbase_first + 1)
    assert hbase_novelty.first_detection() is not None


def test_novelty_order_applies_before_max_points_cap():
    capped = campaign("yarn", point_order="novelty", max_points=6)
    points = prepared("yarn")[2].dynamic_points
    assert [o.dpoint.key() for o in capped.outcomes] == \
        [p.key() for p in order_points(points)[:6]]
    assert [p.key() for p in order_points(points)[:6]] != \
        [p.key() for p in points[:6]]


def test_order_points_consumes_prior_analytics(tmp_path, full_analytics):
    system, analysis, profile, baseline = prepared("yarn")
    points = list(profile.dynamic_points)
    dump = tmp_path / "analytics.json"
    dump.write_text(full_analytics["yarn"].to_json() + "\n")

    seeded = order_points(points, analytics_path=dump)
    assert sorted(p.key() for p in seeded) == sorted(p.key() for p in points)
    observed = observed_from_analytics(json.loads(dump.read_text()))
    assert observed
    # the first scheduled point maximizes the min distance to the
    # observed mode medoids (the feedback loop's defining property)
    token_sets = [static_only(point_tokens(p)) for p in points]
    floors = [min(jaccard_distance(t, o) for o in observed) for t in token_sets]
    first = seeded[0]
    assert floors[[p.key() for p in points].index(first.key())] == max(floors)

    # a campaign handed the seeded order visits the points in it
    ran = campaign("yarn", points=seeded, max_points=4)
    assert [o.dpoint.key() for o in ran.outcomes] == \
        [p.key() for p in seeded[:4]]


def test_novelty_campaign_journal_pins_order(tmp_path):
    journal = tmp_path / "journal.jsonl"
    first = campaign("yarn", point_order="novelty", max_points=5,
                     journal_path=str(journal))
    resumed = campaign("yarn", point_order="novelty", max_points=5,
                       journal_path=str(journal))
    assert [o.dpoint.key() for o in resumed.outcomes] == \
        [o.dpoint.key() for o in first.outcomes]
    assert [o.matched_bugs for o in resumed.outcomes] == \
        [o.matched_bugs for o in first.outcomes]
    # a journal written under one order must refuse another
    with pytest.raises(JournalMismatch):
        campaign("yarn", max_points=5, journal_path=str(journal))


def test_point_order_is_validated():
    with pytest.raises(ValueError, match="point_order"):
        CampaignConfig(point_order="random")


# ----------------------------------------------------------------------
# campaign outputs are untouched by analytics
# ----------------------------------------------------------------------
def test_analytics_flag_leaves_campaign_outputs_identical(tmp_path):
    diagnoses = reference("yarn").diagnoses()[:12]
    a = write_trace_jsonl(tmp_path / "plain.jsonl", diagnoses=diagnoses)
    assert analyze_diagnoses(diagnoses).modes
    b = write_trace_jsonl(tmp_path / "analyzed.jsonl", diagnoses=diagnoses)
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
def _trace_path(tmp_path):
    # twelve points hold every mode the subcommands render
    _, obs = reference("yarn", traced=True, n_points=12)
    return str(write_trace_jsonl(tmp_path / "yarn.jsonl", obs=obs,
                                 meta={"system": "yarn"}))


def test_cli_modes_dedup_rank(tmp_path, capsys):
    trace = _trace_path(tmp_path)
    assert analytics_main(["modes", trace]) == 0
    out = capsys.readouterr().out
    assert "Failure modes" in out and "span features on" in out

    assert analytics_main(["dedup", trace]) == 0
    out = capsys.readouterr().out
    assert "Canonical detections" in out

    assert analytics_main(["rank", trace, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "Anomaly ranking" in out
    assert out.count("\n") < 10


def test_cli_modes_json_and_diff(tmp_path, capsys):
    trace = _trace_path(tmp_path)
    dump = tmp_path / "modes.json"
    assert analytics_main(["modes", trace, "--json", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert payload["injections"] > 0 and payload["modes"]

    # --json - twice: byte-identical (the determinism contract's surface)
    assert analytics_main(["modes", trace, "--json", "-"]) == 0
    first = capsys.readouterr().out
    assert analytics_main(["modes", trace, "--json", "-"]) == 0
    assert capsys.readouterr().out == first

    # diffing a dump against its own trace reports no changes
    assert analytics_main(["modes", trace, "--diff", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "+0 / -0 / 0 resized" in out

    # a coarser threshold shows up as mode churn
    assert analytics_main(["modes", trace, "--threshold", "1.0",
                           "--diff", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "+0 / -0 / 0 resized" not in out


def test_cli_errors_cleanly(tmp_path, capsys):
    assert analytics_main(["modes", str(tmp_path / "missing.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "meta"}\n{"type": "mystery"}\n{"type": "meta"}\n')
    assert analytics_main(["rank", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_diagnoses_empty_trace():
    rep = analyze_diagnoses([])
    assert rep.injections == 0
    assert rep.modes == [] and rep.dedup == [] and rep.ranking == []
    assert json.loads(rep.to_json())["modes"] == []
