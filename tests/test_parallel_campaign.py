"""The parallel campaign executor's contract: parallel == sequential.

A campaign run with ``CampaignConfig(workers=N)`` must be outcome- and
report-identical to the same campaign run sequentially — same outcomes in
the same (point) order, same matched bugs, same merged metrics, same
re-stitched trace, same diagnoses — with only wall-clock times allowed to
differ.  Plus the journal: a campaign killed mid-run resumes from its
``journal_path`` without re-running completed points, and a journal
written under a different campaign identity is refused.  Plus the
``on_outcome`` checkpoint hook: what it sees, when, and that raising
from it aborts a pooled campaign without draining the queue.
"""

import os
import warnings

import pytest

from repro.bugs import matcher_for_system
from repro.core.injection import (
    CampaignConfig,
    JournalMismatch,
    run_campaign,
)
from repro.core.injection import executor as executor_mod
from repro.durable import WriteAheadLog
from repro.obs import Observability
from tests.conftest import N_CHEAP, campaign, outcome_dicts
from tests.conftest import prepared, reference, span_dicts

N_POINTS = 12


def _campaign(workers, n_points=N_POINTS, **knobs):
    return campaign("yarn", n_points, workers=workers, **knobs)


# ----------------------------------------------------------------------
# determinism: workers=4 is byte-identical to workers=1
# ----------------------------------------------------------------------

def test_parallel_campaign_identical_to_sequential():
    seq, obs_seq = reference("yarn", traced=True, n_points=N_POINTS)
    obs_par = Observability()
    par = _campaign(4, obs=obs_par)

    assert par.workers == 4 and seq.workers == 1
    assert outcome_dicts(par) == outcome_dicts(seq)
    assert sorted(par.detected_bugs()) == sorted(seq.detected_bugs())
    assert par.sim_seconds == seq.sim_seconds
    # merged metrics are exactly the sequential snapshot
    assert obs_par.metrics.snapshot() == obs_seq.metrics.snapshot()
    # re-stitched trace: same spans, same ids, same parentage, same order
    assert span_dicts(obs_par) == span_dicts(obs_seq)
    assert obs_par.tracer.dropped == obs_seq.tracer.dropped
    # diagnoses are the report surface: identical, in point order
    assert [d.to_dict() for d in obs_par.diagnoses] == \
        [d.to_dict() for d in obs_seq.diagnoses]


def test_parallel_campaign_without_obs_matches_sequential():
    par = _campaign(3, n_points=6)
    assert outcome_dicts(par) == outcome_dicts(reference("yarn"))[:6]
    assert len(par.diagnoses()) == 6


def test_speedup_reports_realized_parallelism():
    result = _campaign(2, n_points=4)
    assert result.speedup == pytest.approx(
        sum(o.wall_seconds for o in result.outcomes) / result.wall_seconds
    )


# ----------------------------------------------------------------------
# journal: kill mid-campaign, resume, finish — same answer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("resume_workers", [1, 2])
def test_journal_resume_after_partial_run(tmp_path, resume_workers):
    expected = outcome_dicts(reference("yarn"))[:N_CHEAP]
    journal = tmp_path / "campaign.jsonl"

    full = _campaign(1, N_CHEAP, journal_path=str(journal))
    assert outcome_dicts(full) == expected
    lines = journal.read_text().splitlines()
    assert len(lines) == N_CHEAP + 1  # meta + one line per point

    # simulate a kill after 4 completed points, mid-write of the 5th
    journal.write_text("\n".join(lines[:5]) + "\n" + lines[5][:37])

    resumed = _campaign(resume_workers, N_CHEAP, journal_path=str(journal))
    assert resumed.resumed == 4
    assert resumed.workers_realized == resume_workers
    assert outcome_dicts(resumed) == expected
    # the journal is whole again: a further re-run replays everything
    replay = _campaign(1, N_CHEAP, journal_path=str(journal))
    assert replay.resumed == N_CHEAP
    assert outcome_dicts(replay) == expected
    # ``reused`` counts restored points too, and a rerun that ran
    # nothing did no work in parallel.  Pool workers reuse in maps of
    # their own, so a pooled resume reuses no more than one process does
    assert replay.reused == resumed.reused
    if resume_workers == 1:
        assert resumed.reused == full.reused
    else:
        assert resumed.reused <= full.reused
    assert replay.speedup == 0.0


@pytest.mark.parametrize("execution", ["snapshot", "replay"])
def test_campaign_whose_journal_holds_every_point_runs_nothing(
        tmp_path, monkeypatch, execution):
    from repro.core.injection import campaign as campaign_mod
    from repro.core.injection import snapshot as snapshot_mod

    journal = str(tmp_path / "campaign.jsonl")
    full = _campaign(1, 4, journal_path=journal)
    runs = []
    for module in (campaign_mod, snapshot_mod):
        def counted(*args, _real=module.run_workload, **kwargs):
            runs.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "run_workload", counted)

    rerun = _campaign(2, 4, journal_path=journal, execution=execution)
    assert rerun.resumed == 4 and rerun.execution == execution
    # nothing ran, so nothing ran in parallel and the engine did nothing
    assert rerun.workers_realized == 1
    assert rerun.snapshot_stats == (dict.fromkeys((
        "recording_runs", "resumed_points", "never_fired", "reclassified",
        "fallback_points"), 0) if execution == "snapshot" else None)
    assert runs == []
    assert outcome_dicts(rerun) == outcome_dicts(full)


def test_journal_resume_restores_diagnoses_in_point_order(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    _campaign(1, N_CHEAP, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:6]) + "\n")  # meta + 5 outcomes
    obs = Observability()
    resumed = _campaign(2, N_CHEAP, journal_path=str(journal), obs=obs)
    assert resumed.resumed == 5
    # journaled points keep their diagnosis records, in point order
    assert [d.to_dict() for d in obs.diagnoses] == \
        [o.diagnosis.to_dict() for o in reference("yarn").outcomes[:N_CHEAP]]


def test_journal_refuses_mismatched_campaign(tmp_path):
    # the identity pin must hold however the file started out: absent,
    # empty, or torn by a kill during the very first (meta) write
    for n, stub in enumerate([None, "", '{"type": "campaign-me']):
        journal = tmp_path / f"campaign-{n}.jsonl"
        if stub is not None:
            journal.write_text(stub)
        _campaign(1, journal_path=str(journal), n_points=4)
        with pytest.raises(JournalMismatch):
            _campaign(1, journal_path=str(journal), n_points=4, wait=2.0)
        with pytest.raises(JournalMismatch):
            _campaign(1, journal_path=str(journal), n_points=3)
    # outcome lines that lost their meta line are pinned to nothing
    assert WriteAheadLog(journal).replay()[0]["type"] == "campaign-meta"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(JournalMismatch, match="campaign-meta"):
        _campaign(1, journal_path=str(journal), n_points=4)


# ----------------------------------------------------------------------
# the on_outcome checkpoint hook
# ----------------------------------------------------------------------

@pytest.mark.parametrize("journaled", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("execution", ["replay", "snapshot"])
def test_on_outcome_contract(tmp_path, execution, workers, journaled):
    """Once per point tested in this process — restored points never —
    under the *campaign* index, with that index's journal line already on
    disk."""
    points = prepared("hdfs")[2].dynamic_points[:10]
    journal = tmp_path / "campaign.jsonl" if journaled else None

    def run(on_outcome=None):
        return campaign("hdfs", 10, on_outcome=on_outcome, execution=execution,
                        workers=workers, journal_path=journal)

    restored = set()
    if journaled:
        # an earlier run, killed after its third checkpoint
        run()
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")
        restored = {rec["index"] for rec in WriteAheadLog(journal).replay()[1:]}

    calls = []

    def hook(index, outcome):
        assert outcome.dpoint.key() == points[index].key()
        if journaled:
            last = WriteAheadLog(journal).replay()[-1]
            assert (last["type"], last["index"]) == ("outcome", index)
            assert last["data"] == outcome.to_dict()
        calls.append(index)

    result = run(hook)
    assert result.resumed == len(restored)
    assert sorted(calls) == [i for i in range(len(points)) if i not in restored]
    if workers == 2:
        assert result.workers_realized == 2


def test_raising_hook_aborts_pool_without_draining_queue(tmp_path, monkeypatch):
    ran = tmp_path / "ran"
    real = executor_mod._run_injection

    def counted(*args, **kwargs):
        # O_APPEND: one atomic byte per point, from whichever forked worker
        fd = os.open(ran, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b".")
        finally:
            os.close(fd)
        return real(*args, **kwargs)

    def abort(index, outcome):
        raise RuntimeError("stop at the first checkpoint")

    # pool workers inherit the patched module through fork
    monkeypatch.setattr(executor_mod, "_run_injection", counted)
    with pytest.raises(RuntimeError, match="first checkpoint"):
        campaign("yarn", 24, workers=2, on_outcome=abort)
    assert 1 <= ran.stat().st_size < 24


# ----------------------------------------------------------------------
# the PR-2 deprecation shims are gone: old loose kwargs are a TypeError
# ----------------------------------------------------------------------

def test_legacy_kwargs_raise_type_error():
    system, analysis, profile, baseline = prepared("yarn")
    points = profile.dynamic_points[:4]
    with pytest.raises(TypeError):
        run_campaign(system, analysis, points, baseline=baseline,
                     classify_timeouts=False,
                     matcher=matcher_for_system("yarn"))
    with pytest.raises(TypeError):
        run_campaign(system, analysis, points, baseline=baseline,
                     seed=1, matcher=matcher_for_system("yarn"))
    from repro.core.injection import run_one_injection
    with pytest.raises(TypeError):
        run_one_injection(system, analysis, points[0], baseline, wait=2.0)


def test_legacy_positional_seed_raises_type_error():
    from repro import crashtuner, get_system
    with pytest.raises(TypeError, match="CampaignConfig"):
        crashtuner(get_system("cassandra"), 0, run_injection=False)


def test_campaign_config_is_frozen_and_replaceable():
    cfg = CampaignConfig(workers=4)
    with pytest.raises(Exception):
        cfg.workers = 8
    assert cfg.replace(seed=7) == CampaignConfig(workers=4, seed=7)
    # no-op replace returns an equal config
    assert cfg.replace() == cfg


def test_new_api_emits_no_deprecation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        campaign("yarn", 2)
