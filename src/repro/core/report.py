"""Plain-text table rendering for benchmarks and examples.

The benchmark harness prints the same rows the paper's tables report;
this module keeps the formatting in one place.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table.

    Ragged rows are tolerated: short rows are padded with empty cells and
    long rows widen the table (extra columns get empty headers), so
    callers feeding heterogeneous diagnostic rows never crash the report.
    """
    str_rows = [[str(c) for c in row] for row in rows]
    columns = max([len(headers)] + [len(r) for r in str_rows]) if headers or str_rows else 0
    padded_headers = list(headers) + [""] * (columns - len(headers))
    widths = [len(h) for h in padded_headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(padded_headers, widths)))
    lines.append(sep)
    for row in str_rows:
        padded = row + [""] * (columns - len(row))
        lines.append(" | ".join(c.ljust(w) for c, w in zip(padded, widths)))
    return "\n".join(lines)


def format_kv(title: str, mapping: "dict") -> str:
    """Render a small key/value block (the report CLI's stat sections)."""
    width = max((len(str(k)) for k in mapping), default=0)
    lines = [title]
    lines.extend(f"  {str(k).ljust(width)} : {v}" for k, v in mapping.items())
    return "\n".join(lines)


def write_json(payload: Any, dest: str) -> None:
    """A CLI's ``--json DEST``: sorted, indented JSON to a file (then a
    ``wrote DEST`` line) or, for ``-``, to stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {dest}")


def hours(sim_seconds: float) -> str:
    """Render simulated seconds as the paper's hour format."""
    return f"{sim_seconds / 3600.0:.2f}h"


def speedup(ratio: float) -> str:
    """Render a parallel-campaign speedup ratio (Table 11's new column)."""
    return f"{ratio:.2f}x"
