"""The write-ahead log's contract: every acknowledged frame survives a kill.

:class:`repro.durable.WriteAheadLog` carries the service queue and every
campaign journal.  It may lose at most the one frame being written at the
instant of a SIGKILL (torn tail, truncated on the next open); any frame
whose append returned must replay, and damage anywhere *other* than the
last line must refuse to replay rather than silently drop acknowledged
work — for the journal, a refusal the campaign reports as
:class:`JournalMismatch`, never a resume that forgets checkpoints.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.injection import CampaignConfig, JournalMismatch
from repro.durable import (
    WalCorrupt,
    WriteAheadLog,
    atomic_write_json,
    encode_frame,
    frame_crc,
    read_json,
)
from repro.service import CampaignDaemon, ServiceClient
from repro.service.worker import JOURNAL_NAME
from tests.conftest import PINS, campaign
from tests.test_umbrella_cli import _main


def _records(n):
    return [{"type": "transition", "job_id": f"job-{i}", "state": "queued",
             "at": float(i), "extra": {}} for i in range(n)]


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
def test_append_replay_roundtrip(tmp_path):
    path = tmp_path / "wal.jsonl"
    records = _records(25)
    with WriteAheadLog(path) as wal:
        for rec in records:
            wal.append(rec)
    assert WriteAheadLog(path).replay() == records


def test_replay_missing_file_is_empty(tmp_path):
    wal = WriteAheadLog(tmp_path / "absent.jsonl")
    assert wal.replay() == []
    wal.open_append()
    wal.append({"k": 1})
    wal.close()
    assert WriteAheadLog(wal.path).replay() == [{"k": 1}]


def test_frames_are_crc_checked(tmp_path):
    path = tmp_path / "wal.jsonl"
    rec = {"type": "submit", "job": {"job_id": "j1"}}
    path.write_text(json.dumps({"crc": frame_crc(rec), "rec": rec}) + "\n")
    assert WriteAheadLog(path).replay() == [rec]
    # same line, wrong checksum: the frame is dead
    path.write_text(json.dumps({"crc": frame_crc(rec) ^ 1, "rec": rec}) + "\n")
    assert WriteAheadLog(path).replay() == []


# ----------------------------------------------------------------------
# torn tails
# ----------------------------------------------------------------------
def _write_frames(path, records):
    with WriteAheadLog(path) as wal:
        for rec in records:
            wal.append(rec)


@pytest.mark.parametrize("tear", [
    lambda raw: raw[:-3],                      # kill mid-line
    lambda raw: raw + b'{"crc": 1, "rec"',     # kill mid-next-frame
    lambda raw: raw + b"garbage not json\n",   # junk appended
])
def test_torn_tail_truncated_on_open(tmp_path, tear):
    path = tmp_path / "wal.jsonl"
    records = _records(10)
    _write_frames(path, records)
    path.write_bytes(tear(path.read_bytes()))

    wal = WriteAheadLog(path)
    replayed = wal.replay()
    assert replayed == records[:len(replayed)]
    assert len(replayed) >= 9
    assert wal.torn_frames == 1
    wal.open_append()
    wal.append({"post": "recovery"})
    wal.close()
    # the torn bytes are gone; old frames + the new one replay cleanly
    assert WriteAheadLog(path).replay() == replayed + [{"post": "recovery"}]


def test_a_final_frame_missing_only_its_newline_is_dropped(tmp_path):
    # its append never returned, so it was never acknowledged: a frame
    # that parses but lacks its newline is torn like any other
    path = tmp_path / "wal.jsonl"
    _write_frames(path, [{"a": 1}, {"a": 2}])
    path.write_bytes(path.read_bytes()[:-1])

    wal = WriteAheadLog(path)
    assert wal.replay() == [{"a": 1}]
    assert wal.torn_frames == 1
    wal.open_append()
    wal.append({"a": 3})  # on a line of its own, not glued onto {"a": 2}
    wal.close()
    wal = WriteAheadLog(path)
    assert wal.replay() == [{"a": 1}, {"a": 3}]
    assert wal.torn_frames == 0


def test_frame_bytes_are_pinned():
    # the encoding every existing service directory and journal holds:
    # sorted, compact JSON of {"crc", "rec"}, one line
    rec = {"type": "transition", "job_id": "j-1", "state": "queued",
           "at": 1.5, "extra": {"pid": 42, "note": "\u00e9"}}
    assert encode_frame(rec) == (
        b'{"crc":1550161542,"rec":{"at":1.5,"extra":{"note":"\\u00e9",'
        b'"pid":42},"job_id":"j-1","state":"queued","type":"transition"}}\n')
    assert encode_frame(rec) == (json.dumps(
        {"crc": frame_crc(rec), "rec": rec}, sort_keys=True,
        separators=(",", ":")) + "\n").encode()


def test_valid_frame_after_bad_frame_refuses(tmp_path):
    path = tmp_path / "wal.jsonl"
    _write_frames(path, _records(5))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"damaged mid-log\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(WalCorrupt):
        WriteAheadLog(path).replay()


def test_sigkill_mid_append_loses_at_most_one_frame(tmp_path):
    """A real kill -9 against a busy appender: the prefix survives."""
    path = tmp_path / "wal.jsonl"
    script = textwrap.dedent(f"""
        import sys
        from repro.service import WriteAheadLog
        wal = WriteAheadLog({str(path)!r}, fsync=False)
        wal.replay(); wal.open_append()
        i = 0
        while True:
            wal.append({{"seq": i, "pad": "x" * 512}})
            i += 1
            if i == 50:
                print("warm", flush=True)
    """)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE)
    assert proc.stdout.readline().strip() == b"warm"
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    wal = WriteAheadLog(path)
    replayed = wal.replay()  # must not raise: only the tail may be torn
    assert wal.torn_frames <= 1
    assert [rec["seq"] for rec in replayed] == list(range(len(replayed)))
    assert len(replayed) >= 50
    wal.open_append()
    wal.append({"seq": len(replayed), "pad": ""})
    wal.close()
    assert WriteAheadLog(path).replay()[-1]["seq"] == len(replayed)


# ----------------------------------------------------------------------
# atomic JSON documents
# ----------------------------------------------------------------------
def test_atomic_write_json_roundtrip_and_no_temp_litter(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"a": 1})
    atomic_write_json(path, {"a": 2}, fsync=False)
    assert read_json(path) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert read_json(tmp_path / "missing.json") is None


# ----------------------------------------------------------------------
# the campaign journal is a WAL: damage is refused, never resumed past
# ----------------------------------------------------------------------
def _assert_refused(capsys, journal, needle):
    """The journal is refused by the API and the CLI, and left as it was."""
    before = journal.read_bytes()
    with pytest.raises(JournalMismatch, match=needle) as refused:
        campaign("hdfs", 8, journal_path=journal)
    assert str(journal) in str(refused.value)
    code, out, err = _main(capsys, "campaign", "hdfs", "--points", "8",
                           "--journal", str(journal))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(journal) in err and "delete it to start over" in err
    assert journal.read_bytes() == before


def _as_1_19_0(journal):
    """Rewrite a journal as 1.19.0 wrote it: plain JSON lines, version 1."""
    records = WriteAheadLog(journal).replay()
    records[0]["version"] = 1
    journal.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def test_a_corrupt_middle_line_refuses_the_journal(tmp_path, capsys):
    journal = tmp_path / "hdfs.jsonl"
    campaign("hdfs", 8, journal_path=journal)
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) == 9  # the meta record and 8 outcomes
    lines[2] = b"{garbage\n"  # the second outcome
    journal.write_bytes(b"".join(lines))
    # resuming 1 of 8 would drop the 6 checkpoints after the bad line
    _assert_refused(capsys, journal, "bad frame before the last line")


def test_a_1_19_0_journal_is_refused_not_emptied(tmp_path, capsys):
    journal = tmp_path / "hdfs.jsonl"
    campaign("hdfs", 8, journal_path=journal)
    _as_1_19_0(journal)
    _assert_refused(capsys, journal, "bad frame before the last line")


def test_a_job_holding_a_1_19_0_journal_fails_alone(tmp_path):
    journal = tmp_path / "jobs" / "legacy" / JOURNAL_NAME
    journal.parent.mkdir(parents=True)
    campaign("cassandra", journal_path=journal)
    _as_1_19_0(journal)
    before = journal.read_bytes()
    client = ServiceClient(tmp_path)
    for job_id in ("legacy", "fresh"):
        client.submit("cassandra", CampaignConfig(), job_id=job_id)
    daemon = CampaignDaemon(tmp_path, workers=1, poll_interval=0.01,
                            fsync=False)
    client.drain()
    daemon.run()

    legacy = client.result("legacy")
    assert legacy["state"] == "failed"
    assert legacy["error"].startswith("JournalMismatch: ")
    assert "delete it to start over" in legacy["error"]
    assert journal.read_bytes() == before
    fresh = client.result("fresh")
    assert fresh["state"] == "done"
    assert fresh["fingerprint"] == PINS["cassandra"][0]
