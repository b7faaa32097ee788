"""Representative-point execution (``point_select="representative"``).

The campaign clusters its dynamic crash points into equivalence classes
keyed on the profiler's predicted injection, executes one representative
per class (plus an audit draw), and propagates the representative's
outcome to the rest.  The contract under test:

* **no missed bugs** — on the seeded yarn and hbase systems, with
  observability on, representative mode detects the identical bug set
  full execution does (the headline gate, also enforced in CI);
* **real savings** — at the default ``audit_fraction=0.1`` the two
  systems together execute at most 60% of their dynamic points;
* **honest bookkeeping** — propagated outcomes carry their own point
  identity but the representative's evidence, flagged so analytics
  never double-counts them;
* **the audit lane works** — a member disagreeing with its
  representative promotes the whole class to full execution;
* **determinism** — sequential, parallel, and snapshot paths agree
  byte-for-byte; journals resume exactly and mismatch on plan drift.
"""

import json

import pytest

from tests.conftest import N_CHEAP, PINS, campaign, outcome_dicts
from tests.conftest import prepared, reference
from repro.core.injection import (
    CampaignConfig,
    JournalMismatch,
    build_classes,
    outcome_digest,
)
from repro.core.injection import executor as executor_mod
from repro.core.injection.classes import PointClass, SelectionPlan
from repro.core.injection.executor import _behavior
from repro.obs import Observability


@pytest.fixture(scope="module")
def representative():
    """``name -> (result, obs)`` of the traced representative campaigns."""
    runs = {}
    for name in ("yarn", "hbase"):
        obs = Observability()
        runs[name] = (campaign(name, point_select="representative", obs=obs), obs)
    return runs


# ---------------------------------------------------------------------------
# the headline gate: no missed bugs, real savings
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("system_name", ["yarn", "hbase"])
def test_representative_detects_identical_bug_set(system_name, representative):
    full = reference(system_name)
    rep, _ = representative[system_name]
    assert outcome_digest(rep.outcomes) == PINS[system_name]["representative"]
    full_bugs = sorted(full.detected_bugs())
    rep_bugs = sorted(rep.detected_bugs())
    assert full_bugs, "seeded system detected nothing under full execution"
    assert rep_bugs == full_bugs
    # and not just the bug *set*: every point's verdict + attribution is
    # identical, propagated or executed
    assert ([_behavior(o) for o in rep.outcomes]
            == [_behavior(o) for o in full.outcomes])
    assert rep.point_select == "representative"
    assert rep.classes["executed"] < len(full.outcomes)
    assert (rep.classes["executed"] + rep.classes["propagated"]
            == len(full.outcomes))


def test_aggregate_execution_fraction_at_most_60_percent(representative):
    executed = total = 0
    for system_name in ("yarn", "hbase"):
        rep, _ = representative[system_name]
        executed += rep.classes["executed"]
        total += len(rep.outcomes)
    assert executed / total <= 0.60, (
        f"representative mode executed {executed}/{total} points "
        f"({executed / total:.0%}) across yarn+hbase"
    )


# ---------------------------------------------------------------------------
# the class plan
# ---------------------------------------------------------------------------
def test_class_plan_partitions_points():
    _, _, profile, _ = prepared("yarn")
    points = profile.dynamic_points
    plan = build_classes(points, 0.1)
    seen = sorted(i for cls in plan.classes for i in cls.members)
    assert seen == list(range(len(points)))
    for cls in plan.classes:
        keys = [points[i].key() for i in cls.members]
        assert keys == sorted(keys)
        assert cls.representative == cls.members[0]
        assert cls.representative not in cls.audited
        for i in cls.members:
            assert plan.class_of[i] == cls.class_id
    assert plan.digest() == build_classes(points, 0.1).digest()
    assert plan.digest() != build_classes(points, 0.5).digest()


def test_propagated_outcomes_carry_own_identity(representative):
    rep, _ = representative["yarn"]
    _, _, profile, _ = prepared("yarn")
    points = profile.dynamic_points
    by_class = {}
    for outcome in rep.outcomes:
        if not outcome.propagated:
            by_class.setdefault(outcome.class_id, outcome)
    propagated = [(i, o) for i, o in enumerate(rep.outcomes) if o.propagated]
    assert propagated, "yarn has duplicate classes; something must propagate"
    for index, outcome in propagated:
        dpoint = points[index]
        representative = by_class[outcome.class_id]
        # its own identity...
        assert outcome.dpoint is dpoint
        assert outcome.diagnosis.point == dpoint.point.describe()
        assert outcome.diagnosis.stack == list(dpoint.stack)
        assert outcome.diagnosis.propagated
        assert outcome.diagnosis.point_class == outcome.class_id
        # ...the representative's evidence...
        assert _behavior(outcome) == _behavior(representative)
        assert outcome.fired == representative.fired
        # ...and no cost of its own
        assert outcome.wall_seconds == 0.0
        assert outcome.duration == 0.0


def test_full_mode_dicts_unchanged_by_new_fields():
    for data in outcome_dicts(reference("yarn")):
        assert "class_id" not in data
        assert "propagated" not in data


def test_diagnoses_rejoin_in_point_order(representative):
    rep, obs_rep = representative["yarn"]
    assert len(obs_rep.diagnoses) == len(rep.outcomes)
    assert [d.point for d in obs_rep.diagnoses] == [
        o.dpoint.point.describe() for o in rep.outcomes
    ]
    assert ([d.propagated for d in obs_rep.diagnoses]
            == [o.propagated for o in rep.outcomes])


def test_purity_counters_in_metrics_registry(representative):
    rep, obs_rep = representative["yarn"]
    counters = obs_rep.metrics.snapshot()["counters"]
    assert counters["campaign.classes"] == rep.classes["classes"]
    assert counters["campaign.classes_promoted"] == rep.classes["promoted"]
    assert counters["campaign.points_audited"] == rep.classes["audited"]
    assert counters["campaign.points_propagated"] == rep.classes["propagated"]
    gauges = obs_rep.metrics.snapshot()["gauges"]
    assert gauges["campaign.class_purity"] == pytest.approx(
        1.0 - rep.classes["promoted"] / rep.classes["classes"]
    )


# ---------------------------------------------------------------------------
# the audit lane: disagreement promotes the whole class
# ---------------------------------------------------------------------------
def test_audit_disagreement_promotes_class(monkeypatch):
    full = reference("yarn").outcomes[:N_CHEAP]
    points = [o.dpoint for o in full]
    behaviors = {_behavior(o) for o in full}
    assert len(behaviors) > 1, "subset too uniform to force a disagreement"

    def one_impure_class(pts, audit_fraction=0.1):
        # every point in one class, every non-representative audited:
        # some audited member must disagree with the representative
        members = tuple(sorted(range(len(pts)), key=lambda i: pts[i].key()))
        cls = PointClass(class_id="deadbeef0000", signature=("forced",),
                        members=members, representative=members[0],
                        audited=members[1:])
        return SelectionPlan(
            classes=[cls],
            class_of={i: cls.class_id for i in members},
            representatives=[cls.representative],
            audited=list(cls.audited),
        )

    monkeypatch.setattr(executor_mod, "build_classes", one_impure_class)
    rep = campaign("yarn", points=points, point_select="representative")
    assert rep.classes["promoted"] == 1
    assert rep.classes["propagated"] == 0
    assert rep.classes["executed"] == len(points)
    # a promoted class is fully executed: behavior-identical to full mode
    assert ([_behavior(o) for o in rep.outcomes]
            == [_behavior(o) for o in full])
    assert all(not o.propagated for o in rep.outcomes)


# ---------------------------------------------------------------------------
# execution paths and resume
# ---------------------------------------------------------------------------
def _representative(**knobs):
    return campaign("yarn", N_CHEAP, point_select="representative", **knobs)


def test_sequential_parallel_snapshot_identical():
    sequential = _representative()
    parallel = _representative(workers=2)
    snapshot = _representative(execution="snapshot")
    assert parallel.workers_realized == 2  # round 1 is >= 2 * workers points
    assert outcome_dicts(parallel) == outcome_dicts(sequential)
    assert outcome_dicts(snapshot) == outcome_dicts(sequential)
    assert snapshot.snapshot_stats is not None
    assert snapshot.classes == sequential.classes


def test_journal_resume_is_exact(tmp_path):
    points = prepared("yarn")[2].dynamic_points[:N_CHEAP]
    journal = tmp_path / "journal.jsonl"
    one = _representative(journal_path=journal)
    meta = json.loads(journal.read_text().splitlines()[0])
    assert meta["point_select"] == "representative"
    assert meta["classes"] == build_classes(points, 0.1).digest()

    # interrupt after six outcomes (meta line + 6), then resume
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:7]) + "\n")
    two = _representative(journal_path=journal)
    assert two.resumed == 6
    assert outcome_dicts(two) == outcome_dicts(one)


def test_journal_mismatches_on_plan_drift(tmp_path):
    journal = tmp_path / "journal.jsonl"
    _representative(journal_path=journal)
    # a different audit fraction is a different selection plan
    with pytest.raises(JournalMismatch):
        _representative(journal_path=journal, audit_fraction=0.9)
    # and so is a full-mode journal resumed under representative mode
    full_journal = tmp_path / "full.jsonl"
    campaign("yarn", N_CHEAP, journal_path=full_journal)
    with pytest.raises(JournalMismatch):
        _representative(journal_path=full_journal)


# ---------------------------------------------------------------------------
# config validation and point identity
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="point_select"):
        CampaignConfig(point_select="sampled")
    with pytest.raises(ValueError, match="audit_fraction"):
        CampaignConfig(point_select="representative", audit_fraction=1.5)
    with pytest.raises(ValueError, match="random_fallback"):
        CampaignConfig(point_select="representative", random_fallback=True)


def test_describe_includes_full_stack():
    _, _, profile, _ = prepared("yarn")
    deep = [d for d in profile.dynamic_points if len(d.stack) >= 2]
    assert deep, "yarn profile should reach nested call strings"
    for dpoint in deep:
        text = dpoint.describe()
        for frame in dpoint.stack:
            assert frame in text
        assert " > ".join(dpoint.stack) in text


def test_fire_fields_do_not_change_point_identity():
    _, _, profile, _ = prepared("yarn")
    dpoint = profile.dynamic_points[0]
    twin = type(dpoint)(point=dpoint.point, stack=dpoint.stack,
                        scale=dpoint.scale)
    assert twin == dpoint
    assert twin.key() == dpoint.key()
    assert hash(twin) == hash(dpoint)
