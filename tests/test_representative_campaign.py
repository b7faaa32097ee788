"""Representative-point execution (``point_select="representative"``).

The campaign clusters its dynamic crash points into equivalence classes
keyed on the profiler's predicted injection, executes one representative
per class, and propagates the representative's outcome to the rest.  The
contract under test:

* **pure classes** — in the *full* campaign, where every point is run
  on its own, all members of a class behave alike (verdict kinds +
  matched bugs): on all six systems at seed 0, and at yarn's seed 1,
  where a remote pre-read shutdown was once merged with its neighbour
  1 ns later and ``YARN-9238`` was lost;
* **no missed bugs** — on the seeded yarn and hbase systems, with
  observability on, representative mode detects the identical bug set
  full execution does (the headline gate, also enforced in CI);
* **real savings** — the two systems together execute at most 60% of
  their dynamic points;
* **honest bookkeeping** — propagated outcomes carry their own point
  identity but the representative's evidence, flagged so analytics
  never double-counts them;
* **determinism** — sequential, parallel, and snapshot paths agree
  byte-for-byte; journals resume exactly and mismatch on plan drift.
"""

import json

import pytest

from tests.conftest import N_CHEAP, PINS, behavior, campaign, outcome_dicts
from tests.conftest import prepared, reference
from repro.core.injection import (
    CampaignConfig,
    JournalMismatch,
    build_classes,
    outcome_digest,
)
from repro.obs import Observability

SYSTEMS = ["yarn", "hbase", "hdfs", "kube", "cassandra", "zookeeper"]


#: what a propagated outcome carries that is its representative's and not
#: its own: the meta-info values read at the representative's access
BORROWED = {"injection.value", "injection.resolved_value",
            "diagnosis.values", "diagnosis.resolved_value",
            "diagnosis.unresolved_values"}
#: and what marks it as propagated, at no cost of its own
STAMPS = {"class_id", "propagated", "duration",
          "diagnosis.point_class", "diagnosis.propagated"}


def _flat(data, prefix=""):
    out = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


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
    rep, obs = representative[system_name]
    assert outcome_digest(rep.outcomes) == PINS[system_name]["representative"]
    full_bugs = sorted(full.detected_bugs())
    rep_bugs = sorted(rep.detected_bugs())
    assert full_bugs, "seeded system detected nothing under full execution"
    assert rep_bugs == full_bugs
    # and not just the bug *set*: every point's verdict + attribution is
    # identical, propagated or executed
    assert ([behavior(o) for o in rep.outcomes]
            == [behavior(o) for o in full.outcomes])
    # nor just verdict + attribution: a propagated record is the one the
    # member's own run writes, bar the values its representative read
    for own, got in zip(outcome_dicts(full), outcome_dicts(rep)):
        own, got = _flat(own), _flat(got)
        moved = {key for key in own.keys() | got.keys()
                 if own.get(key) != got.get(key)}
        allowed = (BORROWED | STAMPS if got.get("propagated")
                   else {"class_id", "diagnosis.point_class"})
        assert moved <= allowed, (got["point"], sorted(moved - allowed))
    assert rep.point_select == "representative"
    assert rep.classes["executed"] < len(full.outcomes)
    assert (rep.classes["executed"] + rep.classes["propagated"]
            == len(full.outcomes))
    counters = obs.metrics.snapshot()["counters"]
    assert counters["campaign.classes"] == rep.classes["classes"]
    assert counters["campaign.points_propagated"] == rep.classes["propagated"]


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
    plan = build_classes(points)
    seen = sorted(i for cls in plan.classes for i in cls.members)
    assert seen == list(range(len(points)))
    for cls in plan.classes:
        keys = [points[i].key() for i in cls.members]
        assert keys == sorted(keys)
        assert cls.representative == cls.members[0]
        for i in cls.members:
            assert plan.class_of[i] == cls.class_id
    assert plan.representatives == [cls.representative for cls in plan.classes]
    assert plan.digest() == build_classes(points).digest()
    assert plan.digest() != build_classes(points[:-1]).digest()


# ---------------------------------------------------------------------------
# class purity: checked exhaustively here, not sampled at run time
# ---------------------------------------------------------------------------
def _impure_classes(full):
    """The classes of ``full``'s points whose members, each run on its own
    by that full campaign, do not all behave alike."""
    points = [o.dpoint for o in full.outcomes]
    impure = {}
    for cls in build_classes(points).classes:
        seen = {behavior(full.outcomes[i]) for i in cls.members}
        if len(seen) > 1:
            impure[cls.class_id] = {
                points[i].describe(): behavior(full.outcomes[i])
                for i in cls.members}
    return impure


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_every_class_is_pure_at_seed_0(system_name):
    assert _impure_classes(reference(system_name)) == {}


def test_yarn_seed_1_keeps_the_shutdowns_1ns_apart_in_separate_classes():
    # points 39 (on_am_register:278) and 40 (on_allocate:308) are both
    # pre-read "shutdown node1", fired 1 ns apart on one channel; they end
    # in YARN-9165 against YARN-9238 + YARN-9248
    setup = prepared("yarn", seed=1)[1:]
    full = campaign("yarn", setup=setup, seed=1)
    assert "YARN-9238" in full.detected_bugs()
    assert _impure_classes(full) == {}
    rep = campaign("yarn", setup=setup, seed=1, point_select="representative")
    assert rep.classes["executed"] < len(full.outcomes)
    assert sorted(rep.detected_bugs()) == sorted(full.detected_bugs())
    assert ([behavior(o) for o in rep.outcomes]
            == [behavior(o) for o in full.outcomes])


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
        assert behavior(outcome) == behavior(representative)
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


# ---------------------------------------------------------------------------
# execution paths and resume
# ---------------------------------------------------------------------------
def _points():
    """The nine cheap points and the next two that do not hang: four
    classes, so two workers have ``workers * 2`` representatives to pool."""
    points = prepared("yarn")[2].dynamic_points
    return points[:N_CHEAP] + points[N_CHEAP + 1:N_CHEAP + 3]


def _representative(**knobs):
    return campaign("yarn", points=_points(), point_select="representative",
                    **knobs)


def test_sequential_parallel_snapshot_identical():
    sequential = _representative()
    parallel = _representative(workers=2)
    snapshot = _representative(execution="snapshot")
    assert sequential.classes["executed"] == 4
    assert parallel.workers_realized == 2
    assert outcome_dicts(parallel) == outcome_dicts(sequential)
    assert outcome_dicts(snapshot) == outcome_dicts(sequential)
    assert snapshot.snapshot_stats is not None
    assert snapshot.classes == sequential.classes


def test_journal_resume_is_exact(tmp_path):
    journal = tmp_path / "journal.jsonl"
    one = _representative(journal_path=journal)
    meta = json.loads(journal.read_text().splitlines()[0])
    assert meta["point_select"] == "representative"
    assert meta["classes"] == build_classes(_points()).digest()

    # interrupt after six outcomes (meta line + 6), then resume
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:7]) + "\n")
    two = _representative(journal_path=journal)
    assert two.resumed == 6
    assert outcome_dicts(two) == outcome_dicts(one)


def test_journal_mismatches_on_plan_drift(tmp_path):
    journal = tmp_path / "journal.jsonl"
    _representative(journal_path=journal)
    # a <= 1.14.0 journal drew an audit lane into its plan: its meta pins
    # the fraction, and a class digest that covered the draw
    meta, *outcomes = journal.read_text().splitlines()
    old_meta = dict(json.loads(meta), audit_fraction=0.1,
                    classes="38ff5d538fd6519d")
    journal.write_text("\n".join([json.dumps(old_meta), *outcomes]) + "\n")
    with pytest.raises(JournalMismatch):
        _representative(journal_path=journal)
    # and so is a full-mode journal resumed under representative mode
    full_journal = tmp_path / "full.jsonl"
    campaign("yarn", points=_points(), journal_path=full_journal)
    with pytest.raises(JournalMismatch):
        _representative(journal_path=full_journal)


# ---------------------------------------------------------------------------
# config validation and point identity
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="point_select"):
        CampaignConfig(point_select="sampled")
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
