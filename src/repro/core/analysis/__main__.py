"""The analysis report CLI: ``python -m repro analysis report``.

Runs phase 1 over one or more bundled systems and renders the static
crash points, the Table-12-style pruning statistics, and (on request) the
full provenance chain of every point — from the crash point back through
the meta-info closure to the seed logging statement.

``--json`` dumps a machine-readable report; ``--diff PREVIOUS.json``
compares the current crash-point set against an earlier dump and prints
what appeared and what vanished, which is how a CI run shows the analysis
impact of a source change.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.core.analysis import AnalysisReport, analyze_system, point_key
from repro.core.report import format_kv, format_table, write_json
from repro.systems import bundled_systems, get_system


def _point_json(report: AnalysisReport, point: Any) -> Dict[str, Any]:
    return {
        "module": point.module,
        "lineno": point.lineno,
        "field_cls": point.field_cls,
        "field_name": point.field_name,
        "op": point.op,
        "via": point.via,
        "enclosing": point.enclosing,
        "lane": point.lane,
        "promoted_from": list(point.promoted_from) if point.promoted_from else None,
        "provenance": report.engine.provenance.chain_for(point_key(point)),
    }


def _report_json(report: AnalysisReport) -> Dict[str, Any]:
    return {
        "system": report.system,
        "totals": report.totals(),
        "pruning": {
            "constructor_only": report.crash.pruned_constructor,
            "unused_value": report.crash.pruned_unused,
            "sanity_checked": report.crash.pruned_sanity,
            "promoted": report.crash.promoted,
        },
        "crash_points": [
            _point_json(report, p) for p in report.crash.crash_points
        ],
        "engine": report.engine.stats,
    }


def _render(report: AnalysisReport, provenance_limit: int) -> None:
    totals = report.totals()
    print(f"== {report.system} ==")
    print(format_kv("totals", totals))
    print(format_kv("pruning (Table 12)", {
        "constructor-only": report.crash.pruned_constructor,
        "unused value": report.crash.pruned_unused,
        "sanity-checked": report.crash.pruned_sanity,
        "promoted": report.crash.promoted,
    }))
    print(format_kv("engine", report.engine.stats))
    rows = [
        [p.describe(), p.enclosing]
        for p in report.crash.crash_points
    ]
    print(format_table(["crash point", "enclosing"], rows,
                       title=f"{len(rows)} static crash points"))
    if provenance_limit:
        shown = 0
        # interprocedural discoveries first: their chains are the novel ones
        ordered = sorted(report.crash.crash_points,
                         key=lambda p: (p.lane != "inter", p.module, p.lineno))
        for point in ordered:
            if shown >= provenance_limit:
                break
            chain = report.engine.provenance.chain_for(point_key(point))
            print("\n".join(chain))
            print()
            shown += 1
    print()


def _diff(previous: Dict[str, Any], current: List[Dict[str, Any]]) -> int:
    """Print crash points gained/lost vs an earlier --json dump."""
    prev_by_system = {entry["system"]: entry for entry in previous.get("systems", [])}
    changed = 0

    def keys_of(entry: Dict[str, Any]) -> Dict[tuple, Dict[str, Any]]:
        return {
            (p["module"], p["lineno"], p["op"], p["via"],
             p["field_cls"], p["field_name"]): p
            for p in entry.get("crash_points", [])
        }

    for entry in current:
        name = entry["system"]
        old = prev_by_system.get(name)
        if old is None:
            print(f"{name}: no baseline in previous dump ({len(entry['crash_points'])} points now)")
            continue
        old_keys, new_keys = keys_of(old), keys_of(entry)
        added = sorted(set(new_keys) - set(old_keys))
        removed = sorted(set(old_keys) - set(new_keys))
        changed += len(added) + len(removed)
        print(f"{name}: +{len(added)} / -{len(removed)} crash points")
        for key in added:
            p = new_keys[key]
            print(f"  + {p['op']} {p['field_cls']}.{p['field_name']} via {p['via']} "
                  f"at {p['module']}:{p['lineno']} [{p['lane']}]")
        for key in removed:
            p = old_keys[key]
            print(f"  - {p['op']} {p['field_cls']}.{p['field_name']} via {p['via']} "
                  f"at {p['module']}:{p['lineno']}")
    return changed


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analysis",
        description="Static crash-point analysis reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="analyse systems and print crash points")
    rep.add_argument("systems", nargs="*", default=None,
                     help="systems to analyse (default: every bundled system)")
    rep.add_argument("--seed", type=int, default=0, help="workload seed")
    rep.add_argument("--json", metavar="PATH",
                     help="write a machine-readable report to PATH ('-' for stdout)")
    rep.add_argument("--diff", metavar="PATH",
                     help="compare against a previous --json dump")
    rep.add_argument("--provenance", type=int, default=3, metavar="N",
                     help="print derivation chains for up to N points per system "
                          "(0 disables; interprocedural points come first)")
    args = parser.parse_args(argv)

    names = args.systems or [system.name for system in bundled_systems()]
    entries: List[Dict[str, Any]] = []
    try:
        for name in names:
            report = analyze_system(get_system(name), seed=args.seed)
            _render(report, args.provenance)
            entries.append(_report_json(report))

        if args.json:
            write_json({"systems": entries}, args.json)

        if args.diff:
            with open(args.diff, "r", encoding="utf-8") as fh:
                previous = json.load(fh)
            _diff(previous, entries)
    except (OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # the one-release deprecation window for this alias ended in 1.5.0
    print("error: 'python -m repro.core.analysis' was removed in 1.5.0; "
          "use 'python -m repro analysis'", file=sys.stderr)
    sys.exit(2)
