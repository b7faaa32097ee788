"""Plain-text rendering and flag plumbing the CLIs and benchmarks share.

The benchmark harness prints the same rows the paper's tables report;
this module keeps the formatting (and the campaign flags) in one place.
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


def format_summary(title: str, payload: "dict") -> str:
    """The block the ``campaign`` and ``daemon wait`` CLIs print for a
    ``CampaignResult.summary()`` payload or the ``result.json`` built on
    one (a failed job's holds little more than ``state`` and ``error``)."""
    rows = {key: payload[key] for key in ("state", "error") if payload.get(key)}
    # result.json calls it ``fingerprint`` (a list of outcomes up to 1.13.0)
    digest = payload.get("digest", payload.get("fingerprint"))
    n_points = payload.get("n_points", 0)
    rows.update({
        "points": n_points,
        "resumed": payload.get("resumed", 0),
        "reuse": f"{payload.get('reused', 0)} of {n_points} suffixes reused",
        "bugs": ", ".join(f"{bug}({n})" for bug, n in
                          sorted(payload.get("detected_bugs", {}).items())) or "-",
        "first_detection": payload.get("first_detection"),
        "sim_seconds": f"{payload.get('sim_seconds', 0.0):.1f}",
        "wall_seconds": f"{payload.get('wall_seconds', 0.0):.2f}",
        "digest": digest if isinstance(digest, str) else "-",
    })
    return format_kv(title, rows)


def add_campaign_knobs(parser: Any, workers_flag: str = "--workers") -> None:
    """The ``CampaignConfig`` flags ``campaign`` and ``daemon submit`` share."""
    parser.add_argument("--points", type=int, default=None,
                        help="cap the number of points tested")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(workers_flag, dest="workers", type=int, default=1,
                        help="the campaign's worker-pool size")
    parser.add_argument("--order", choices=("point", "novelty"), default="point")
    parser.add_argument("--execution", choices=("replay", "snapshot"),
                        default="replay")


def campaign_from_knobs(args: Any, journal_path: Optional[str] = None) -> Any:
    """The config those flags spell; ``ValueError`` names a bad one."""
    from repro.core.injection import CampaignConfig

    return CampaignConfig(
        max_points=args.points, seed=args.seed, workers=args.workers,
        point_order=args.order, execution=args.execution,
        journal_path=journal_path,
    )


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
