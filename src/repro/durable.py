"""Everything the tool persists, through two primitives.

A file the tool *appends to over time* — the campaign service's queue
(``wal.jsonl``) and every campaign journal — is a :class:`WriteAheadLog`:
one CRC-framed JSON line per record, each appended with one ``write`` +
``flush`` (+ ``fsync`` unless ``fsync=False``)::

    {"crc":3735928559,"rec":{"type":"submit",...}}

``crc`` is the CRC-32 of the canonical (sorted-keys, compact) JSON
encoding of ``rec``, and the frame is exactly those bytes wrapped once,
so a line is the sorted, compact encoding of ``{"crc", "rec"}``.

One writer appends one frame per write, so a kill can damage only the
last line.  :meth:`WriteAheadLog.replay` therefore has one torn-tail
rule: the last line is torn when it fails to parse, fails its CRC, or
lacks its newline — its ``append`` had not returned, so it was never
acknowledged — and :meth:`~WriteAheadLog.open_append` truncates it.  A
bad line anywhere else raises :class:`WalCorrupt` rather than drop the
acknowledged frames after it.

A file the tool *writes whole* — sentinels, status snapshots, spool
submissions, results, traces, setup-cache entries — goes through
:func:`atomic_write`: a temp file in the same directory, fsync, rename.
Readers never observe a torn document, only the old version or the new.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


def _canonical(rec: Dict[str, Any]) -> bytes:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode("utf-8")


def frame_crc(rec: Dict[str, Any]) -> int:
    """CRC-32 of a record's canonical JSON encoding."""
    return zlib.crc32(_canonical(rec)) & 0xFFFFFFFF


def encode_frame(rec: Dict[str, Any]) -> bytes:
    """One record's WAL line, newline included (its canonical JSON is
    encoded once; ``"crc"`` sorts before ``"rec"``)."""
    canonical = _canonical(rec)
    return b'{"crc":%d,"rec":%s}\n' % (zlib.crc32(canonical) & 0xFFFFFFFF,
                                      canonical)


def _decode_frame(line: bytes) -> Optional[Dict[str, Any]]:
    """The record of one whole, CRC-correct frame, else ``None``."""
    try:
        frame = json.loads(line)
        rec = frame["rec"]
        if isinstance(rec, dict) and frame["crc"] == frame_crc(rec):
            return rec
    except (ValueError, KeyError, TypeError):
        pass
    return None


def atomic_write(path: Union[str, Path], data: bytes,
                 fsync: bool = True) -> None:
    """Replace ``path`` with ``data``, atomically (tmp + fsync + rename).

    An exception removes the temp file; a kill leaves it behind, as
    SIGKILL would, and no reader ever opens it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except Exception:
        Path(tmp).unlink(missing_ok=True)
        raise


def atomic_write_json(path: Union[str, Path], data: Any,
                      fsync: bool = True) -> None:
    """Replace ``path`` with ``data`` as JSON, atomically."""
    atomic_write(path, json.dumps(data, sort_keys=True).encode("utf-8"), fsync)


def read_json(path: Union[str, Path]) -> Optional[Any]:
    """Load a JSON document written by :func:`atomic_write_json`.

    Returns ``None`` when the file is missing — thanks to the atomic
    rename there is no torn-read case to handle.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


class WalCorrupt(ValueError):
    """A bad frame *before* the last line: the log was edited or mis-written."""


class WriteAheadLog:
    """Append-only, CRC-framed JSONL log with torn-tail repair.

    Usage: :meth:`replay` once (it notes where the valid prefix ends),
    then :meth:`open_append` (it truncates anything past that point) and
    :meth:`append` per frame.  ``fsync=False`` trades durability of the
    last frames across a machine crash for speed: the campaign journal,
    tests and benchmarks use it; the daemon defaults to fsync'd frames.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None
        self._keep_bytes: Optional[int] = None
        #: frames dropped by the last replay's torn-tail truncation (0 or 1)
        self.torn_frames = 0

    def replay(self) -> List[Dict[str, Any]]:
        """Every acknowledged record, in append order.

        A torn last line is left out, and its offset remembered so
        :meth:`open_append` truncates it; any other bad line raises
        :class:`WalCorrupt`.  Replay itself never writes.
        """
        self.torn_frames, self._keep_bytes = 0, None
        if not self.path.exists():
            return []
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        terminated = not lines[-1]
        if terminated:
            lines.pop()  # ``raw`` ends in a newline: no unterminated tail
        records: List[Dict[str, Any]] = []
        offset = 0
        for lineno, line in enumerate(lines, 1):
            rec = _decode_frame(line)
            if lineno == len(lines) and (rec is None or not terminated):
                self.torn_frames, self._keep_bytes = 1, offset
                break
            if rec is None:
                raise WalCorrupt(
                    f"{self.path}:{lineno}: bad frame before the last line — "
                    f"only the last can be torn; refusing to drop the "
                    f"acknowledged frames after it")
            records.append(rec)
            offset += len(line) + 1
        return records

    def open_append(self) -> None:
        """Open for appending, truncating the torn tail replay found."""
        if self._keep_bytes is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(self._keep_bytes)
            self._keep_bytes = None
        self._fh = self.path.open("ab")

    def append(self, rec: Dict[str, Any]) -> None:
        """Append one record: one frame, one write, one flush (+ fsync)."""
        assert self._fh is not None, "WAL not opened for append"
        self._fh.write(encode_frame(rec))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        self.replay()
        self.open_append()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
