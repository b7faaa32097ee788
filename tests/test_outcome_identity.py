"""One outcome identity, pinned; every cheaper way to run a campaign held to it.

CrashTuner tests each dynamic crash point in exactly one run, so a pool,
a fork or a resumed journal is trusted only because it yields the
outcomes of the plain seed-0 replay campaign.
``outcome_digest`` names those, ``tests/data/outcome_digests.json`` pins
them, and the matrix compares each variant to the pin — not to a
reference of its own.  A PR that means to move an outcome edits the pin
file (the failing cell prints ``system: pinned X, got Y``); one that
leaves it alone has shown that nothing moved.
"""

import copy
import json
import os
import random
import subprocess
import sys

import pytest

from repro.core.analysis.patterns import fast_lane
from repro.core.injection import outcome_digest
from repro.core.pipeline import prepare
from repro.obs import Observability
from repro.systems import get_system
from tests.conftest import PINS, campaign, outcome_dicts, prepared, reference

SYSTEMS = ["yarn", "hbase", "hdfs", "kube", "cassandra", "zookeeper"]


# ----------------------------------------------------------------------
# the identity itself
# ----------------------------------------------------------------------
def test_digest_ignores_wall_clock_row_order_and_representation():
    result = reference("hdfs")
    rows = [o.to_dict() for o in result.outcomes]
    digest = outcome_digest(result.outcomes)
    assert digest == outcome_digest(rows) == outcome_digest(iter(rows))
    assert digest == outcome_digest(outcome_dicts(result))  # no wall_seconds
    assert digest == outcome_digest(dict(r, wall_seconds=9.9) for r in rows)
    shuffled = random.Random(0).sample(rows, len(rows))
    assert shuffled != rows and outcome_digest(shuffled) == digest
    assert outcome_digest(rows[::-1]) == digest


def _fired_and_flagged(rows):
    return next(r for r in rows if r["fired"] and r["matched_bugs"])


MUTATIONS = {
    "fired": lambda rows: _fired_and_flagged(rows).update(fired=False),
    "matched-bug": lambda rows: _fired_and_flagged(rows)["matched_bugs"].pop(),
    "duration": lambda rows: rows[0].update(duration=rows[0]["duration"] + 1e-9),
    "events-processed":
        lambda rows: rows[-1]["diagnosis"].update(
            events_processed=rows[-1]["diagnosis"]["events_processed"] + 1),
    "injection-time":
        lambda rows: _fired_and_flagged(rows)["injection"].update(time=0.0),
    "verdict-kind":
        lambda rows: _fired_and_flagged(rows)["verdict"].update(hang=True),
    "dropped-row": lambda rows: rows.pop(),
    "duplicated-row": lambda rows: rows.append(rows[0]),
}


@pytest.mark.parametrize("what", MUTATIONS)
def test_digest_moves_with(what):
    # a digest that cannot move pins nothing
    rows = outcome_dicts(reference("hdfs"))
    mutated = copy.deepcopy(rows)
    MUTATIONS[what](mutated)
    assert mutated != rows
    assert outcome_digest(mutated) != outcome_digest(rows)


# ----------------------------------------------------------------------
# the matrix: variant x system, each against the pin
# ----------------------------------------------------------------------
class _Killed(Exception):
    pass


def _interrupted(system_name, tmp_path, **then):
    """A journaled replay campaign killed half way, mid-write of the next
    line, and resumed under the ``then`` knobs."""
    journal = tmp_path / "campaign.jsonl"
    half = len(prepared(system_name)[2].dynamic_points) // 2
    seen = []

    def kill(index, outcome):
        seen.append(index)
        if len(seen) == half:
            raise _Killed

    with pytest.raises(_Killed):
        campaign(system_name, journal_path=journal, on_outcome=kill)
    with journal.open("a") as fh:
        fh.write('{"type": "outcome", "index": ')
    result = campaign(system_name, journal_path=journal, **then)
    assert result.resumed == half
    return result.outcomes


def _knobs(**knobs):
    def run(system_name, tmp_path):
        result = campaign(system_name, **knobs)
        # the variant really ran: a silent fallback to plain replay would
        # match the pin just as well
        assert result.execution == knobs.get("execution", "replay")
        assert result.point_order == knobs.get("point_order", "point")
        assert (result.snapshot_stats or {}).get("fallback_points", 0) == 0
        if len(result.outcomes) >= 2 * knobs.get("workers", 1):
            assert result.workers_realized == knobs.get("workers", 1)
        return result.outcomes
    return run


def _obs_on(system_name, tmp_path):
    result, obs = reference(system_name, traced=True)
    assert len(obs.diagnoses) == len(result.outcomes) and obs.tracer.spans
    return result.outcomes


def _slow_log_lane(system_name, tmp_path):
    """Phase 1 and a traced campaign down the scored-regex lane: the same
    analysis, and the telemetry of the shared traced reference."""
    system, analysis, profile, _ = prepared(system_name)
    _, obs_fast = reference(system_name, traced=True)
    obs = Observability()
    with fast_lane(False):
        slow_analysis, slow_profile, baseline = prepare(system)
        result = campaign(system_name, obs=obs,
                          setup=(slow_analysis, slow_profile, baseline))
    fast_log, slow_log = analysis.log_result, slow_analysis.log_result
    assert (slow_log.matched, slow_log.unmatched) == \
        (fast_log.matched, fast_log.unmatched)
    assert sorted(map(repr, slow_log.meta_slots)) == \
        sorted(map(repr, fast_log.meta_slots))
    assert slow_analysis.totals() == analysis.totals()
    assert [d.key() for d in slow_profile.dynamic_points] == \
        [d.key() for d in profile.dynamic_points]
    assert obs.metrics.snapshot() == obs_fast.metrics.snapshot()
    assert [d.to_dict() for d in obs.diagnoses] == \
        [d.to_dict() for d in obs_fast.diagnoses]
    return result.outcomes


def _setup_cache_hit(system_name, tmp_path):
    info = {}
    prepare(get_system(system_name), cache_dir=tmp_path)
    loaded = prepare(get_system(system_name), cache_dir=tmp_path, info=info)
    assert info["cache"] == "hit"
    return campaign(system_name, setup=loaded).outcomes


def _hash_seed_through_the_cli(system_name, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", system_name,
         "--json", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONHASHSEED="12345"),
        capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["digest"] == outcome_digest(payload["outcomes"])
    assert payload["digest"] in proc.stdout
    return payload["outcomes"]


#: the systems whose campaigns are long enough to interrupt, pool and hang
#: (the other four hold their pin: more cells, little more evidence)
HEAVY = ["yarn", "hbase"]

#: variant -> (how to run it, the systems it runs on)
VARIANTS = {
    "reference": (lambda s, tmp: reference(s).outcomes, SYSTEMS),
    "obs-on": (_obs_on, HEAVY),
    "pooled": (_knobs(workers=2), HEAVY),
    "snapshot": (_knobs(execution="snapshot"), HEAVY),
    "snapshot+pooled": (_knobs(execution="snapshot", workers=2), HEAVY),
    "novelty-order": (_knobs(point_order="novelty"), HEAVY),
    "resumed-torn-tail": (_interrupted, HEAVY),
    "resumed-under-snapshot":
        (lambda s, tmp: _interrupted(s, tmp, execution="snapshot"), HEAVY),
    "slow-log-lane": (_slow_log_lane, HEAVY),
    "setup-cache-hit": (_setup_cache_hit, HEAVY),
    "hashseed-12345-cli": (_hash_seed_through_the_cli, HEAVY),
}


@pytest.mark.parametrize(
    "variant, system_name",
    [(variant, system_name) for variant, (_, systems) in VARIANTS.items()
     for system_name in systems])
def test_variant_matches_the_pin(variant, system_name, tmp_path):
    run, _ = VARIANTS[variant]
    pinned = PINS[system_name][0]
    got = outcome_digest(run(system_name, tmp_path))
    assert got == pinned, f"{system_name}: pinned {pinned}, got {got}"
