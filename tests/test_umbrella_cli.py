"""``python -m repro`` is the front door; the old doors are now closed.

The umbrella CLI must list every subcommand and pass arguments through
to each tool's own parser.  The legacy module entry points
(``python -m repro.obs.report`` etc.) served one release as deprecated
aliases and were removed in 1.5.0: they must fail fast with a pointer
to the replacement on stderr, never stdout — CI pipes stdout into
``json.loads``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.durable import WriteAheadLog, encode_frame
from tests.conftest import PINS
from tests.test_campaign_kill import _alive_in_session

SUBCOMMANDS = ("campaign", "daemon", "report", "analytics", "analysis")

LEGACY = (
    "repro.obs",
    "repro.obs.report",
    "repro.obs.analytics",
    "repro.core.analysis",
)


def run_module(module, *args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_help_lists_every_subcommand():
    proc = run_module("repro", "--help")
    assert proc.returncode == 0, proc.stderr
    for name in SUBCOMMANDS:
        assert name in proc.stdout


def test_no_args_prints_usage_and_succeeds():
    proc = run_module("repro")
    assert proc.returncode == 0
    assert "usage: python -m repro" in proc.stdout


def test_unknown_subcommand_fails_with_usage():
    proc = run_module("repro", "teleport")
    assert proc.returncode == 2
    assert "unknown command" in proc.stderr


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_passes_through(name):
    proc = run_module("repro", name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    assert f"python -m repro {name}" in proc.stdout


def test_campaign_subcommand_runs_one_campaign():
    proc = run_module("repro", "campaign", "cassandra", "--json", "-")
    assert proc.returncode == 0, proc.stderr
    assert "campaign cassandra" in proc.stdout
    payload = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert payload["system"] == "cassandra"
    assert payload["n_points"] == 3
    assert "CA-15131" in payload["detected_bugs"]


def test_campaign_survives_early_closed_stdout():
    # `python -m repro campaign ... | head` must exit 0 quietly, like the
    # report CLI does — no BrokenPipeError traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "cassandra"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # reader goes away before the summary is printed
    err = proc.stderr.read()
    assert proc.wait(timeout=240) == 0, err
    assert "Traceback" not in err


def test_campaign_subcommand_rejects_unknown_system():
    proc = run_module("repro", "campaign", "hadoop-classic")
    assert proc.returncode == 2
    assert "unknown system" in proc.stderr


def _main(capsys, *argv):
    """``python -m repro ARGV`` in this process: (exit code, stdout, stderr)."""
    from repro.__main__ import main

    code = main(list(argv))
    return (code, *capsys.readouterr())


def test_campaign_subcommand_runs_kube_to_its_pin(capsys):
    # kube is bundled beside Table 4's five; its campaign is pinned too
    code, out, err = _main(capsys, "campaign", "kube")
    assert (code, err) == (0, ""), err
    assert out.rstrip().splitlines()[-1].split()[-1] == PINS["kube"][0]


def test_campaign_answers_bad_knobs_and_journals_in_one_line(tmp_path, capsys):
    campaign = ["campaign", "cassandra"]
    journal = str(tmp_path / "capped.jsonl")
    assert _main(capsys, *campaign, "--journal", journal, "--points", "2")[0] == 0
    # the identity records of representative journals: 1.14.0's plan had
    # an audit draw, 1.17.0's did not
    meta = {"type": "campaign-meta", "version": 1, "system": "cassandra",
            "seed": 0, "wait": 1.0, "random_fallback": False,
            "classify_timeouts": True, "n_points": 3, "config": "",
            "point_select": "representative"}
    old_journals = {
        "1.14.0": dict(meta, audit_fraction=0.1, classes="38ff5d538fd6519d"),
        "1.17.0": dict(meta, classes="bad8731a77cf8c44"),
    }
    for version, line in old_journals.items():
        (tmp_path / f"rep-{version}.jsonl").write_bytes(encode_frame(line))
    for argv, exit_code, needle in [
        (campaign + ["--workers", "0"], 2, "workers must be >= 1"),
        (campaign + ["--journal", str(tmp_path)], 2, "is a directory"),
        (campaign + ["--journal", journal], 1, "written by a different campaign"),
        *((campaign + ["--journal", str(tmp_path / f"rep-{version}.jsonl")],
           1, "written by a different campaign") for version in old_journals),
        # "inside" a regular file: no directory to create the journal in
        (campaign + ["--journal", journal + "/j.jsonl"], 1, "Not a directory"),
        (["daemon", "submit", str(tmp_path / "svc"), "cassandra",
          "--campaign-workers", "0"], 2, "workers must be >= 1"),
    ]:
        code, out, err = _main(capsys, *argv)
        assert (code, out) == (exit_code, ""), argv
        assert err.startswith("error: ") and needle in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_outcomes_with_1_17_0_diagnosis_keys_resume_every_point(
        tmp_path, capsys):
    journal = tmp_path / "full.jsonl"
    argv = ["campaign", "cassandra", "--journal", str(journal),
            "--json", str(tmp_path / "out.json")]
    assert _main(capsys, *argv)[0] == 0
    # 1.17.0's diagnoses carried two more keys, both constant
    records = WriteAheadLog(journal).replay()
    for record in records[1:]:
        record["data"]["diagnosis"].update(point_class="", propagated=False)
    journal.write_bytes(b"".join(map(encode_frame, records)))
    assert _main(capsys, *argv)[0] == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["resumed"] == payload["n_points"] == 3
    assert payload["digest"] == PINS["cassandra"][0]


def test_interrupted_unjournaled_campaign_says_how_to_make_it_resumable(
        capsys, monkeypatch):
    import repro.api

    def interrupted(*args, on_outcome, **kwargs):
        on_outcome(0, None)
        on_outcome(1, None)
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.api, "run_campaign", interrupted)
    assert _main(capsys, "campaign", "cassandra") == (
        130, "", "interrupted after 2 of 3 points — nothing was kept; "
        "pass --journal PATH to make a run resumable\n")


@pytest.mark.parametrize("mode", [[], ["--execution", "snapshot"],
                                  ["--workers", "2"]],
                         ids=["replay", "snapshot", "pooled"])
def test_sigint_ends_in_one_line_and_the_journal_resumes_to_the_pin(
        tmp_path, mode):
    journal = tmp_path / "hbase.jsonl"
    command = [sys.executable, "-m", "repro", "campaign", "hbase",
               "--journal", str(journal), *mode]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    while not (journal.exists() and journal.read_text().count("\n") >= 2):
        assert proc.poll() is None, proc.stderr.read()
        time.sleep(0.01)
    os.killpg(proc.pid, signal.SIGINT)  # what a terminal's Ctrl-C does
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (130, ""), err
    match = re.fullmatch(
        r"interrupted after (\d+) of 28 points — rerun with --journal "
        + re.escape(str(journal)) + r" to resume\n", err)
    assert match, err
    assert not _alive_in_session(proc.pid)
    journaled = journal.read_text().count("\n") - 1
    assert 1 <= int(match.group(1)) <= journaled < 28

    rerun = subprocess.run(
        command + ["--json", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONHASHSEED="7"),
        capture_output=True, text=True, timeout=240)
    assert rerun.returncode == 0, rerun.stderr
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["resumed"] == journaled
    assert payload["digest"] == PINS["hbase"][0]


def test_daemon_subcommand_round_trip(tmp_path):
    service_dir = str(tmp_path / "svc")
    submit = run_module("repro", "daemon", "submit", service_dir,
                        "cassandra")
    assert submit.returncode == 0, submit.stderr
    job_id = submit.stdout.strip()
    assert job_id.startswith("cassandra-")

    start = run_module("repro", "daemon", "start", service_dir,
                       "--workers", "1", "--poll", "0.02", "--no-fsync",
                       "--drain")
    assert start.returncode == 0, start.stderr

    wait = run_module("repro", "daemon", "wait", service_dir, job_id,
                      "--json", "-")
    assert wait.returncode == 0, wait.stderr
    assert json.loads(wait.stdout)["state"] == "done"

    status = run_module("repro", "daemon", "status", service_dir,
                        "--json", "-")
    payload = json.loads(status.stdout)
    assert payload["daemon_alive"] is False
    assert payload["counts"]["done"] == 1


@pytest.mark.parametrize("view", ["status", "queue", "recovery", "metrics"])
def test_daemon_views_before_any_daemon_fail_in_one_line(tmp_path, view, capsys):
    from repro.service.cli import main

    assert main([view, str(tmp_path / "never-served"), "--json", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "status.json" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "never-served").exists()


def test_front_door_advertises_a_real_analytics_subcommand(capsys):
    import repro.__main__ as front
    from repro.obs.analytics import main

    example = next(line for line in front.__doc__.splitlines()
                   if "python -m repro analytics" in line)
    subcommand = example.split("repro analytics")[1].split()[0]
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--help"])
    assert exit_.value.code == 0
    assert "trace" in capsys.readouterr().out
    assert "journal" not in front.COMMANDS["analytics"][1]


def test_front_door_advertises_a_real_analysis_command(capsys):
    import repro.__main__ as front
    from repro.core.analysis.__main__ import main

    example = next(line for line in front.__doc__.splitlines()
                   if "python -m repro analysis" in line)
    args = example.split("repro analysis")[1].split()[:2]
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--help"])
    assert exit_.value.code == 0
    assert "--diff" in capsys.readouterr().out


def test_analysis_report_dumps_and_diffs_crash_points(tmp_path):
    dump = tmp_path / "kube.json"
    proc = run_module("repro", "analysis", "report", "kube",
                      "--provenance", "0", "--json", str(dump))
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(dump.read_text())["systems"]
    points = entry["crash_points"]
    assert entry["system"] == "kube" and len(points) == 22
    inter = [p for p in points if p["lane"] == "inter"]
    assert len(inter) == 2 and all(p["provenance"] for p in inter)

    same = run_module("repro", "analysis", "report", "kube",
                      "--provenance", "0", "--diff", str(dump))
    assert same.returncode == 0, same.stderr
    assert "kube: +0 / -0 crash points" in same.stdout

    gone = inter[0]
    entry["crash_points"].remove(gone)
    older = tmp_path / "older.json"
    older.write_text(json.dumps({"systems": [entry]}))
    diff = run_module("repro", "analysis", "report", "kube",
                      "--provenance", "0", "--diff", str(older))
    assert diff.returncode == 0, diff.stderr
    assert "kube: +1 / -0 crash points" in diff.stdout
    assert (f"  + {gone['op']} {gone['field_cls']}.{gone['field_name']} "
            f"via {gone['via']} at {gone['module']}:{gone['lineno']} [inter]"
            in diff.stdout)


def test_analysis_report_defaults_to_every_bundled_system(tmp_path, capsys):
    from repro.core.analysis.__main__ import main

    dump = tmp_path / "all.json"
    assert main(["report", "--provenance", "0", "--json", str(dump)]) == 0
    systems = json.loads(dump.read_text())["systems"]
    inter = {entry["system"]: sum(p["lane"] == "inter" for p in entry["crash_points"])
             for entry in systems}
    assert inter == {"yarn": 5, "hdfs": 0, "hbase": 1, "zookeeper": 0,
                     "cassandra": 0, "kube": 2}


@pytest.mark.parametrize("module", LEGACY)
def test_legacy_entry_point_is_removed(module):
    proc = run_module(module, "--help")
    assert proc.returncode == 2
    # the tombstone points at the replacement on stderr only — stdout
    # stays empty so a mis-piped invocation cannot half-work
    assert "removed in 1.5.0" in proc.stderr
    assert "python -m repro " in proc.stderr
    assert proc.stdout == ""
