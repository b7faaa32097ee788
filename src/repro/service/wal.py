"""Kept only for ``bench/probes.py``, which imports ``WriteAheadLog`` from
here; the primitives live in :mod:`repro.durable`."""

from repro.durable import WalCorrupt, WriteAheadLog, atomic_write_json, read_json

__all__ = ["WalCorrupt", "WriteAheadLog", "atomic_write_json", "read_json"]
