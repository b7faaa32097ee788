"""Heartbeat/pid sentinel files: SIGKILL-safe liveness and takeover.

Every worker (and the daemon itself) maintains one sentinel file —
atomically rewritten JSON carrying its pid and a wall-clock heartbeat.
A fresh heartbeat from a live pid means "reattach, don't restart"; a
stale heartbeat (or a dead pid) means the owner is gone and its work is
up for grabs.

The takeover itself must be race-free: after a daemon crash *two*
recovering daemons can observe the same stale sentinel, and exactly one
may requeue the job (double-dispatch would run the same campaign twice
against the same journal).  Arbitration is one atomic ``os.rename`` of
the sentinel to a claimer-unique name: POSIX rename succeeds for exactly
one caller — the loser's rename raises ``FileNotFoundError`` and it
backs off.  No locks, no fcntl, crash-safe at every instruction.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.durable import atomic_write_json, read_json

#: sentinel verdicts
ALIVE = "alive"      #: pid up, heartbeat fresh — reattach
STALE = "stale"      #: heartbeat too old (pid may be up but hung) — takeover
MISSING = "missing"  #: no sentinel on disk — never started, or claimed


def pid_alive(pid: int) -> bool:
    """Is a process with this pid running (signal-0 probe)?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists under another uid
        return True
    return True


def _read_record(path: Path) -> Optional[Dict[str, Any]]:
    """A sentinel record; ``None`` when missing, ``{}`` when unreadable.

    An empty or half-written file is a kill inside the daemon lock's
    create-then-write window.  An empty record (no pid, no heartbeat)
    reads as stale, so a successor claims it — and must be able to read
    what it claimed.
    """
    try:
        return read_json(path)
    except ValueError:
        return {}


class Sentinel:
    """One heartbeat/pid file, atomically rewritten on every beat."""

    def __init__(self, path: Union[str, Path], owner: str = ""):
        self.path = Path(path)
        self.owner = owner

    # ------------------------------------------------------------------
    # the owner side
    # ------------------------------------------------------------------
    def write(self, **extra: Any) -> None:
        """Create/refresh the sentinel for the calling process."""
        atomic_write_json(self.path, {
            "owner": self.owner,
            "pid": os.getpid(),
            "started_at": extra.pop("started_at", time.time()),
            "heartbeat_at": time.time(),
            **extra,
        })

    def beat(self, **extra: Any) -> None:
        """Refresh the heartbeat, preserving the rest of the record."""
        data = self.read() or {"owner": self.owner, "pid": os.getpid(),
                               "started_at": time.time()}
        data.update(extra)
        data["heartbeat_at"] = time.time()
        atomic_write_json(self.path, data, fsync=False)

    def clear(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # the prober side
    # ------------------------------------------------------------------
    def read(self) -> Optional[Dict[str, Any]]:
        return _read_record(self.path)

    def status(self, timeout: float) -> str:
        """``alive`` / ``stale`` / ``missing`` under a heartbeat timeout.

        ``alive`` requires *both* a running pid and a heartbeat younger
        than ``timeout`` seconds: a live-but-silent pid is a hung worker
        and reads as ``stale`` (the daemon kills and requeues it), while
        a fresh file from a dead pid (kill between beat and probe) reads
        as ``stale`` too.
        """
        data = self.read()
        if data is None:
            return MISSING
        fresh = (time.time() - data.get("heartbeat_at", 0.0)) < timeout
        return ALIVE if (fresh and pid_alive(data.get("pid", 0))) else STALE

    # ------------------------------------------------------------------
    # takeover arbitration
    # ------------------------------------------------------------------
    def claim(self, claimer: str) -> Optional[Dict[str, Any]]:
        """Atomically take ownership of a (presumed stale) sentinel.

        Renames the sentinel to ``<name>.claimed-<claimer>``; exactly one
        concurrent claimer's rename succeeds.  Returns the claimed record
        (the loser gets ``None`` and must not touch the job).  The winner
        should :meth:`release_claim` once the takeover is durably
        recorded, or simply overwrite with :meth:`write` when it becomes
        the new owner.
        """
        claimed_path = self.path.with_name(self.path.name + f".claimed-{claimer}")
        try:
            os.rename(self.path, claimed_path)
        except FileNotFoundError:
            return None
        data = _read_record(claimed_path) or {}
        data["claimed_by"] = claimer
        return data

    def release_claim(self, claimer: str) -> None:
        """Drop the claim marker left by a successful :meth:`claim`."""
        claimed_path = self.path.with_name(self.path.name + f".claimed-{claimer}")
        try:
            claimed_path.unlink()
        except FileNotFoundError:
            pass
