"""The setup artefact: ``prepare()`` and its content-addressed cache.

Four properties hold the design together, and each gets its own block:

* **hit == miss** — a campaign run over an unpickled triple is
  outcome-identical to one run over a freshly built triple;
* **an entry holds facts, not syntax** — a campaign over a hit parses
  nothing, and syntax read later is re-derived equal to a fresh
  analysis's, or refused when the source on disk has changed;
* **the key is the identity** — anything the triple is a function of
  changes the key (and the journal's idea of "the same campaign" agrees);
* **the cache only ever saves time** — the publish protocol (tmp, write,
  fsync, rename) is enumerated crash state by crash state, in the manner
  of "Scalable and Accurate Application-Level Crash-Consistency Testing
  via Representative Testing": every state a kill, a torn write, a full
  disk or a stray file can leave behind ends in a rebuilt, republished
  entry and a ``done`` job.
"""

import ast
import errno
import importlib
import json
import multiprocessing
import os
import pickle
import shutil
import sys
from pathlib import Path

import pytest

import repro
from repro import durable
from repro.core import pipeline
from repro.core.analysis import ModuleSource
from repro.core.baselines import find_io_points
from repro.core.injection import (
    CampaignConfig,
    CampaignJournal,
    JournalMismatch,
    outcome_digest,
    run_campaign,
)
from repro.core.pipeline import prepare, setup_key, source_digest
from repro.errors import AnalysisError
from repro.obs import read_trace_jsonl
from repro.service import CampaignDaemon, ServiceClient
from repro.service.jobs import JobSpec
from repro.service.sentinel import Sentinel
from repro.service.worker import SENTINEL_NAME, TRACE_NAME, run_job
from repro.systems import bundled_systems, get_system
from tests.conftest import PINS, campaign, outcome_dicts, prepared, reference

FAST = "cassandra"  # 3 points, ~0.1 s per job: the protocol tests' subject


def _prepare(system_name, cache_dir, **kwargs):
    info = {}
    setup = prepare(get_system(system_name), cache_dir=cache_dir, info=info,
                    **kwargs)
    return setup, info


def _entries(cache_dir, suffix=".pkl"):
    return sorted(p.name for p in Path(cache_dir).iterdir()
                  if p.suffix == suffix)


# ----------------------------------------------------------------------
# hit == miss
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "system_name", ["yarn", "hdfs", "hbase", "zookeeper", "cassandra"])
def test_hit_is_outcome_identical_to_miss(tmp_path, system_name):
    built, miss = _prepare(system_name, tmp_path)
    loaded, hit = _prepare(system_name, tmp_path)
    assert (miss["cache"], hit["cache"]) == ("miss", "hit")
    assert miss["key"] == hit["key"] and _entries(tmp_path) == [hit["key"] + ".pkl"]
    assert loaded[0] is not built[0], "a hit is a fresh object graph"
    # one pickle: the profile's points are the analysis's own objects
    static = {id(p) for p in loaded[0].crash.crash_points}
    assert all(id(d.point) in static for d in loaded[1].dynamic_points)
    # nine points of it here; the whole campaign over a hit is a row of
    # the matrix in test_outcome_identity.py
    assert outcome_dicts(campaign(system_name, 9, setup=loaded)) == \
        outcome_dicts(reference(system_name))[:9]


def test_no_cache_dir_touches_no_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    info = {}
    prepare(get_system(FAST), info=info)
    assert info["cache"] == "off" and info["key"] == ""
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# an entry holds phase 1's facts, not its syntax
# ----------------------------------------------------------------------
SIX = [system.name for system in bundled_systems()]


def _publish_prepared(system_name, cache_dir):
    """Publish this session's ``prepared(system_name)`` as the entry a
    ``prepare`` miss would have published (without rebuilding it)."""
    key = setup_key(get_system(system_name), 0, None)
    pipeline._publish(Path(cache_dir) / f"{key}.pkl",
                      (key, *prepared(system_name)[1:]))


def _count_syntax_reads(monkeypatch):
    """Counts of module parses and method-node re-finds from now on."""
    counts = {"parses": 0, "nodes": 0}
    real_parse, real_find = ast.parse, ModuleSource.function_at

    def parse(*args, **kwargs):
        counts["parses"] += 1
        return real_parse(*args, **kwargs)

    def function_at(self, lineno):
        counts["nodes"] += 1
        return real_find(self, lineno)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(ModuleSource, "function_at", function_at)
    return counts


def _methods(analysis):
    return [method for info in analysis.model.classes.values()
            for method in info.methods.values()]


@pytest.mark.parametrize(
    "system_name", ["yarn", "hdfs", "hbase", "zookeeper", "cassandra"])
def test_a_whole_campaign_over_a_hit_reads_no_syntax(
        tmp_path, monkeypatch, system_name):
    _publish_prepared(system_name, tmp_path)
    counts = _count_syntax_reads(monkeypatch)
    loaded, info = _prepare(system_name, tmp_path)
    assert info["cache"] == "hit"
    result = campaign(system_name, setup=loaded)
    assert outcome_digest(result.outcomes) == PINS[system_name][0]
    assert counts == {"parses": 0, "nodes": 0}
    # the counter is live: a first read of one method node parses once
    _methods(loaded[0])[0].node
    assert counts == {"parses": 1, "nodes": 1}


@pytest.mark.parametrize("system_name", SIX)
def test_loaded_syntax_equals_a_fresh_analysis(tmp_path, system_name):
    fresh = prepared(system_name)[1]
    _publish_prepared(system_name, tmp_path)
    (loaded, _, _), info = _prepare(system_name, tmp_path)
    assert info["cache"] == "hit"
    assert [s.name for s in loaded.sources] == [s.name for s in fresh.sources]
    for ours, theirs in zip(loaded.sources, fresh.sources):
        assert ast.dump(ours.tree, include_attributes=True) == \
            ast.dump(theirs.tree, include_attributes=True)
    ours, theirs = _methods(loaded), _methods(fresh)
    assert [(m.owner, m.name) for m in ours] == \
        [(m.owner, m.name) for m in theirs]
    for method, reference in zip(ours, theirs):
        assert ast.dump(method.node, include_attributes=True) == \
            ast.dump(reference.node, include_attributes=True)
        # re-found in the loaded module's own tree, not parsed apart
        assert any(node is method.node
                   for node in ast.walk(method.source.tree))
    assert {id(m.source) for m in ours} <= {id(s) for s in loaded.sources}


@pytest.mark.parametrize("system_name", ["yarn", "hdfs"])
def test_find_io_points_agrees_on_a_loaded_analysis(tmp_path, system_name):
    fresh = prepared(system_name)[1]
    _publish_prepared(system_name, tmp_path)
    loaded = _prepare(system_name, tmp_path)[0][0]
    report = find_io_points(loaded)
    assert report.static_points, "a vacuous comparison"
    assert report == find_io_points(fresh)


def test_a_module_edited_between_load_and_first_read_raises(
        tmp_path, monkeypatch):
    path = tmp_path / "edited_after_load.py"
    path.write_text("class A:\n    def f(self):\n        return 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module(path.stem)
    monkeypatch.setitem(sys.modules, path.stem, module)
    saved = pickle.dumps(ModuleSource.load(module))
    intact = pickle.loads(saved)
    assert ast.dump(intact.tree) == ast.dump(ast.parse(path.read_text()))

    loaded = pickle.loads(saved)
    path.write_text(path.read_text() + "# edited\n")
    for _ in range(2):  # a failed read leaves nothing behind to return
        with pytest.raises(AnalysisError, match=path.stem):
            loaded.tree
    assert "tree" not in vars(loaded) and "source" not in vars(loaded)


# ----------------------------------------------------------------------
# the key is the identity
# ----------------------------------------------------------------------
def test_key_is_sensitive_to_everything_the_triple_depends_on():
    yarn = get_system("yarn")
    base = setup_key(yarn, 0, None)
    assert setup_key(get_system("yarn"), 0, {}) == base  # and deterministic
    variants = {
        "seed": setup_key(yarn, 1, None),
        "patched_bugs": setup_key(yarn, 0, {"patched_bugs": {"YARN-9194"}}),
        "world_scale": setup_key(get_system("yarn", world_scale=10), 0, None),
        "system": setup_key(get_system("hbase"), 0, None),
    }
    assert len({base, *variants.values()}) == 1 + len(variants), variants
    # the code digest leads, so entries of one code version share a prefix
    assert {k.split("-")[0] for k in variants.values()} == {base.split("-")[0]}
    assert base.startswith(source_digest()[:16])


def test_each_changed_input_misses(tmp_path):
    assert _prepare(FAST, tmp_path)[1]["cache"] == "miss"
    assert _prepare(FAST, tmp_path)[1]["cache"] == "hit"
    assert _prepare(FAST, tmp_path, seed=1)[1]["cache"] == "miss"
    patched = {"patched_bugs": {"CA-15131"}}
    assert _prepare(FAST, tmp_path, config=patched)[1]["cache"] == "miss"
    assert _prepare(FAST, tmp_path, config=patched)[1]["cache"] == "hit"
    assert len(_entries(tmp_path)) == 3


def test_one_byte_edit_to_a_system_module_misses(tmp_path, monkeypatch):
    # digest a copy of the tree, so the edit is to the copy
    tree = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert source_digest() == _digest_of(tree, monkeypatch)
    cache = tmp_path / "cache"
    assert _prepare(FAST, cache)[1]["cache"] == "miss"
    assert _prepare(FAST, cache)[1]["cache"] == "hit"
    module = tree / "systems" / "cassandra" / "node.py"
    module.write_bytes(module.read_bytes() + b"#")
    assert _prepare(FAST, cache)[1]["cache"] == "miss"
    assert len({name.split("-")[0] for name in _entries(cache)}) == 2


def _digest_of(tree, monkeypatch):
    monkeypatch.setattr(pipeline, "__file__", str(tree / "core" / "pipeline.py"))
    return source_digest()


def test_journal_identity_includes_world_scale(tmp_path):
    # the hole the setup key would otherwise disagree with: same name,
    # seed, n_points and point keys — a different world
    system, analysis, profile, baseline = prepared("yarn")
    points = profile.dynamic_points[:2]
    cfg = CampaignConfig(journal_path=str(tmp_path / "j.jsonl"),
                         classify_timeouts=False)
    run_campaign(system, analysis, points, campaign=cfg, baseline=baseline)
    with pytest.raises(JournalMismatch, match="world_scale"):
        run_campaign(get_system("yarn", world_scale=10), analysis, points,
                     campaign=cfg, baseline=baseline)
    # omitted at 1: journals written before the key existed stay valid
    assert "world_scale" not in CampaignJournal.meta_for(system, points, cfg, None)
    assert run_campaign(system, analysis, points, campaign=cfg,
                        baseline=baseline).resumed == 2


# ----------------------------------------------------------------------
# the publish protocol, crash state by crash state
# ----------------------------------------------------------------------
class _Killed(BaseException):
    """SIGKILL stand-in: passes through every ``except Exception``."""


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """``(entry name, entry bytes)`` of one good publish of FAST."""
    cache = tmp_path_factory.mktemp("published")
    _, info = _prepare(FAST, cache)
    name = info["key"] + ".pkl"
    return name, (cache / name).read_bytes()


class _PublisherOs:
    """``repro.durable``'s view of ``os``, with some calls replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(os, name)


def _syscall_trace(monkeypatch, kill_at=None):
    """Shim the publisher's durability calls; optionally die at one."""
    trace = []

    def shim(name):
        def call(*args):
            if kill_at == name:
                raise _Killed(name)
            trace.append((name,) + args)
            return getattr(os, name)(*args)
        return call

    monkeypatch.setattr(durable, "os", _PublisherOs(
        fsync=shim("fsync"), replace=shim("replace")))
    return trace


def test_publish_is_write_fsync_rename_in_one_directory(tmp_path, monkeypatch):
    trace = _syscall_trace(monkeypatch)
    _, info = _prepare(FAST, tmp_path)
    assert [op[0] for op in trace] == ["fsync", "replace"]
    _, tmp, entry = trace[1]
    assert Path(tmp).parent == Path(entry).parent == tmp_path
    assert tmp.endswith(".tmp") and Path(entry).name == info["key"] + ".pkl"
    assert _entries(tmp_path, ".tmp") == []


def _crash_states(published):
    """name -> a function leaving ``cache`` as that crash left it.

    The protocol is create-tmp, write, fsync, rename; a kill lands before,
    inside or after each step.  Torn files are cut at one representative
    of each byte class: empty, inside the pickle's protocol header, inside
    the first frame, mid-body, one byte short.
    """
    name, data = published
    cuts = {"empty": 0, "in-header": 1, "in-frame": 7,
            "mid-body": len(data) // 2, "one-short": len(data) - 1}
    states = {"killed-before-create": lambda cache: None}
    for label, cut in cuts.items():
        # killed mid-write: a torn tmp, no entry
        states[f"tmp-{label}"] = (
            lambda cache, cut=cut: (cache / "x.tmp").write_bytes(data[:cut]))
        # what a lying disk or a stray ``cp`` leaves: a torn entry
        states[f"entry-{label}"] = (
            lambda cache, cut=cut: (cache / name).write_bytes(data[:cut]))
    states["entry-garbage"] = (
        lambda cache: (cache / name).write_bytes(os.urandom(4096)))
    states["entry-wrong-shape"] = (
        lambda cache: (cache / name).write_bytes(pickle.dumps(42)))

    def foreign(cache):
        # a well-formed entry of another key, copied over this one's name
        stamp, *triple = pickle.loads(data)
        (cache / name).write_bytes(pickle.dumps(("0" * 49, *triple)))

    states["entry-foreign"] = foreign
    return states


def _job(job_id="j1", trace=False):
    return JobSpec(job_id=job_id, system=FAST, trace=trace)


STATE_NAMES = sorted(_crash_states(("n", b"x" * 16)))


@pytest.mark.parametrize("state", STATE_NAMES)
def test_every_crash_state_rebuilds_republishes_and_finishes(
        tmp_path, published, state):
    cache = tmp_path / "setup-cache"
    cache.mkdir()
    _crash_states(published)[state](cache)

    first = run_job(_job("a"), tmp_path / "a", cache_dir=cache)
    assert first["state"] == "done", first.get("traceback")
    assert first["setup"]["cache"] == "miss"
    # republished: the entry is whole again — the next job hits it
    second = run_job(_job("b"), tmp_path / "b", cache_dir=cache)
    assert second["state"] == "done"
    assert second["setup"]["cache"] == "hit"
    assert second["fingerprint"] == first["fingerprint"]


@pytest.mark.parametrize("kill_at", ["fsync", "replace"])
def test_killed_publisher_leaves_a_tmp_and_the_next_job_recovers(
        tmp_path, monkeypatch, kill_at):
    # the two states only the live protocol can produce: data written but
    # not yet durable, and durable but not yet renamed
    with monkeypatch.context() as patch:
        _syscall_trace(patch, kill_at=kill_at)
        with pytest.raises(_Killed):
            _prepare(FAST, tmp_path)
    assert _entries(tmp_path) == [] and len(_entries(tmp_path, ".tmp")) == 1
    assert _prepare(FAST, tmp_path)[1]["cache"] == "miss"
    assert _prepare(FAST, tmp_path)[1]["cache"] == "hit"


def test_after_rename_is_the_one_state_that_hits(tmp_path, published):
    (tmp_path / published[0]).write_bytes(published[1])
    assert _prepare(FAST, tmp_path)[1]["cache"] == "hit"


@pytest.mark.parametrize("failure", ["enospc", "not-a-directory"])
def test_failed_publish_degrades_to_building_in_place(
        tmp_path, monkeypatch, failure):
    cache = tmp_path / "cache"
    if failure == "enospc":
        def full(fd):
            # the cache's disk is full; the job directory's is not
            if any(os.fstat(fd).st_ino == tmp.stat().st_ino
                   for tmp in cache.glob("*.tmp")):
                raise OSError(errno.ENOSPC, "No space left on device")
            return os.fsync(fd)
        monkeypatch.setattr(durable, "os", _PublisherOs(fsync=full))
    else:
        cache.write_text("a file where the directory should be")
    payload = run_job(_job(), tmp_path / "job", cache_dir=cache)
    assert payload["state"] == "done" and payload["setup"]["cache"] == "miss"
    assert payload["fingerprint"] == PINS[FAST][0]
    if failure == "enospc":
        assert list(cache.iterdir()) == [], "a failed publish leaves nothing"


def test_two_workers_publishing_one_key_concurrently(tmp_path, monkeypatch):
    context = multiprocessing.get_context("fork")
    both_missed = context.Barrier(2)
    real = pipeline.analyze_system

    def analyze_after_both_missed(*args, **kwargs):
        both_missed.wait(timeout=30)  # neither has published yet
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_system", analyze_after_both_missed)
    cache = tmp_path / "setup-cache"

    def worker(job_id):
        payload = run_job(_job(job_id), tmp_path / job_id, cache_dir=cache)
        os._exit(0 if payload["state"] == "done" else 1)

    procs = [context.Process(target=worker, args=(job_id,))
             for job_id in ("a", "b")]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    results = [json.loads((tmp_path / j / "result.json").read_text())
               for j in ("a", "b")]
    assert [r["setup"]["cache"] for r in results] == ["miss", "miss"]
    assert results[0]["fingerprint"] == results[1]["fingerprint"]
    # last rename wins; whichever it was, the entry is whole
    assert len(_entries(cache)) == 1 and _entries(cache, ".tmp") == []
    monkeypatch.undo()
    assert _prepare(FAST, cache)[1]["cache"] == "hit"


# ----------------------------------------------------------------------
# the service: sweep, counters, sentinel, trace
# ----------------------------------------------------------------------
def _drain(service_dir):
    daemon = CampaignDaemon(service_dir, workers=1, poll_interval=0.01,
                            fsync=False)
    ServiceClient(service_dir).drain()
    daemon.run()
    return daemon


def test_daemon_start_sweeps_foreign_digests_and_stray_tmps(tmp_path, published):
    cache = tmp_path / "setup-cache"
    cache.mkdir()
    (cache / published[0]).write_bytes(published[1])
    (cache / ("0" * 16 + "-" + "0" * 32 + ".pkl")).write_bytes(published[1])
    (cache / "tmpabc.tmp").write_bytes(published[1][:100])
    daemon = CampaignDaemon(tmp_path, workers=1)
    daemon.start()
    daemon.close()
    assert [p.name for p in cache.iterdir()] == [published[0]]


def test_second_job_hits_and_the_daemon_counts_it(tmp_path):
    client = ServiceClient(tmp_path)
    jobs = [client.submit(FAST, CampaignConfig()) for _ in range(3)]
    _drain(tmp_path)
    results = [client.result(job_id) for job_id in jobs]
    # one worker slot: whichever job ran first built, the others loaded
    assert sorted(r["setup"]["cache"] for r in results) == ["hit", "hit", "miss"]
    assert {r["fingerprint"] for r in results} == {PINS[FAST][0]}
    for result in results:
        assert set(result["setup"]) == {"cache", "key", "seconds"}
        assert (tmp_path / "setup-cache" / (result["setup"]["key"] + ".pkl")).exists()
    counters = client.metrics()["counters"]
    assert counters["service.setup_cache_misses"] == 1
    assert counters["service.setup_cache_hits"] == 2
    assert client.status()["metrics"]["counters"] == counters


def test_worker_beats_setup_and_traces_one_setup_span(tmp_path):
    cache = tmp_path / "setup-cache"
    for job_id, expected in (("a", "miss"), ("b", "hit")):
        job_dir = tmp_path / job_id
        payload = run_job(_job(job_id, trace=True), job_dir, cache_dir=cache)
        assert payload["setup"]["cache"] == expected
        # beat() keeps earlier keys: the setup beat's verdict stays readable
        assert Sentinel(job_dir / SENTINEL_NAME).read()["cache"] == expected
        spans = [s for s in read_trace_jsonl(job_dir / TRACE_NAME).spans
                 if s.name == "setup"]
        assert len(spans) == 1 and spans[0].parent_id is None
        assert spans[0].attrs["cache"] == expected
        assert spans[0].attrs["key"] == payload["setup"]["key"]
        assert spans[0].attrs["system"] == FAST


def test_sentinel_passes_through_the_setup_phase(tmp_path, monkeypatch):
    seen = []
    real = Sentinel.beat

    def spy(self, **extra):
        seen.append(extra)
        return real(self, **extra)

    monkeypatch.setattr(Sentinel, "beat", spy)
    run_job(_job(), tmp_path / "job", cache_dir=tmp_path / "cache")
    assert [e for e in seen if e.get("phase") == "setup"] == \
        [{"phase": "setup", "cache": "miss"}]
