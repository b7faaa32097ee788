"""The examples are part of the public surface: they must keep running."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_quickstart_runs_and_reports_a_bug():
    proc = run_example("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert "CA-15131" in proc.stdout
    assert "dynamic crash pts" in proc.stdout


def test_quickstart_on_zookeeper_reports_none():
    proc = run_example("quickstart.py", "zookeeper")
    assert proc.returncode == 0, proc.stderr
    assert "No bugs detected" in proc.stdout


def test_meta_info_explorer_runs(tmp_path):
    dot = tmp_path / "g.dot"
    proc = run_example("meta_info_explorer.py", "hdfs", "--dot", str(dot))
    assert proc.returncode == 0, proc.stderr
    assert "Table 2" in proc.stdout
    assert dot.read_text().startswith("graph meta_info")


def test_multi_crash_extension_runs():
    proc = run_example("multi_crash_extension.py", "cassandra", "4")
    assert proc.returncode == 0, proc.stderr
    assert "pair runs" in proc.stdout


def test_trace_campaign_writes_and_summarizes_a_trace(tmp_path):
    out = tmp_path / "trace.jsonl"
    proc = run_example("trace_campaign.py", "yarn", "--points", "10",
                       "--out", str(out), "--diff-fallback")
    assert proc.returncode == 0, proc.stderr
    assert "Injection diagnoses" in proc.stdout
    assert "Metric deltas" in proc.stdout
    assert out.exists() and out.read_text().count('"diagnosis"') == 10


def test_trace_campaign_analytics_and_novelty_order(tmp_path):
    out = tmp_path / "trace.jsonl"
    proc = run_example("trace_campaign.py", "yarn", "--points", "10",
                       "--order", "novelty", "--analytics", "--rank",
                       "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Failure modes" in proc.stdout
    assert "Canonical detections" in proc.stdout
    assert "Anomaly ranking" in proc.stdout
    assert "first detection at injection 0 (novelty order)" in proc.stdout


def test_trace_campaign_help_documents_campaign_knobs():
    proc = run_example("trace_campaign.py", "--help")
    assert proc.returncode == 0, proc.stderr
    for flag in ("--workers", "--journal", "--order", "--analytics", "--rank"):
        assert flag in proc.stdout
    assert "resumes where it left off" in proc.stdout


@pytest.mark.slow
def test_find_yarn_bugs_runs_end_to_end():
    proc = run_example("find_yarn_bugs.py", timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "14 detected / 14 seeded" in proc.stdout
    assert "prunes" in proc.stdout


@pytest.mark.slow
def test_compare_baselines_runs():
    proc = run_example("compare_baselines.py", "cassandra", "6")
    assert proc.returncode == 0, proc.stderr
    assert "CA-15131" in proc.stdout
    for approach in ("CrashTuner", "Random crash", "IO fault"):
        assert approach in proc.stdout
