"""Trace summarizing and diffing CLI.

Usage::

    python -m repro report summarize trace.jsonl       # one run
    python -m repro report summarize trace.jsonl --json -
    python -m repro report diff a.jsonl b.jsonl        # what changed

The bare legacy forms (``report trace.jsonl`` and ``report a b``) keep
working and mean ``summarize`` / ``diff`` respectively.

The diff pairs diagnoses by crash point (e.g. an A1-ablation run with an
optimization off against the default run) and reports metric deltas, so
"what changed when I turned X off" is one command instead of an
eyeballing session over two log directories.  ``--json`` emits the same
summary machine-readably (the payload :func:`diff` itself consumes),
mirroring ``python -m repro analysis report --json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.core.report import format_table, write_json
from repro.obs.diagnosis import format_diagnoses
from repro.obs.export import TraceData, read_trace_jsonl


def summarize(trace: TraceData) -> str:
    """Render one trace file for humans."""
    parts: List[str] = []
    if trace.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        parts.append(f"run: {meta}")

    if trace.spans:
        rollup: Dict[str, Tuple[int, float]] = defaultdict(lambda: (0, 0.0))
        for span in trace.spans:
            count, total = rollup[span.name]
            rollup[span.name] = (count + 1, total + span.duration)
        rows = [
            [name, count, f"{total:.4f}"]
            for name, (count, total) in sorted(rollup.items())
        ]
        parts.append(format_table(["span", "count", "sim-seconds"], rows,
                                  title=f"Spans ({len(trace.spans)} total)"))

    counters = trace.metrics.get("counters", {})
    gauges = trace.metrics.get("gauges", {})
    if counters or gauges:
        rows = [[k, v] for k, v in sorted(counters.items())]
        rows += [[k, v] for k, v in sorted(gauges.items())]
        parts.append(format_table(["metric", "value"], rows, title="Metrics"))
    histograms = trace.metrics.get("histograms", {})
    if histograms:
        rows = [
            [k, h["count"], f"{h['mean']:.2f}", f"{h['min']:.2f}", f"{h['max']:.2f}"]
            for k, h in sorted(histograms.items())
        ]
        parts.append(format_table(["histogram", "count", "mean", "min", "max"], rows))

    if trace.diagnoses:
        tally: Dict[str, int] = defaultdict(int)
        for diagnosis in trace.diagnoses:
            tally[diagnosis.outcome()] += 1
        outcomes = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
        parts.append(format_diagnoses(
            trace.diagnoses,
            title=f"Injection diagnoses ({len(trace.diagnoses)} points — {outcomes})",
        ))
    return "\n\n".join(parts) if parts else "(empty trace)"


def summarize_json(trace: TraceData) -> Dict[str, Any]:
    """The machine-readable summary (``--json`` payload).

    Carries everything :func:`diff` compares — the metrics snapshot plus
    one record per diagnosis keyed by crash point and stack — so a saved
    dump diffs the same way a re-read trace does.
    """
    rollup: Dict[str, Tuple[int, float]] = defaultdict(lambda: (0, 0.0))
    for span in trace.spans:
        count, total = rollup[span.name]
        rollup[span.name] = (count + 1, total + span.duration)
    tally: Dict[str, int] = defaultdict(int)
    bugs: Dict[str, int] = defaultdict(int)
    diagnoses: List[Dict[str, Any]] = []
    for d in trace.diagnoses:
        tally[d.outcome()] += 1
        for bug in d.matched_bugs:
            bugs[bug] += 1
        diagnoses.append({
            "point": d.point,
            "stack": list(d.stack),
            "fired": d.fired,
            "resolution": d.resolution(),
            "action": d.action,
            "outcome": d.outcome(),
            "matched_bugs": list(d.matched_bugs),
        })
    return {
        "meta": dict(sorted(trace.meta.items())),
        "spans": {
            name: {"count": count, "sim_seconds": round(total, 6)}
            for name, (count, total) in sorted(rollup.items())
        },
        "metrics": trace.metrics,
        "outcomes": dict(sorted(tally.items())),
        "bugs": dict(sorted(bugs.items())),
        "diagnoses": diagnoses,
    }


def diff(a: TraceData, b: TraceData) -> str:
    """Render what changed between two runs (a -> b)."""
    # both sides are compared through their --json summaries, so diffing
    # two live traces and diffing two saved dumps see identical data
    ja, jb = summarize_json(a), summarize_json(b)
    parts: List[str] = []

    counters_a = ja["metrics"].get("counters", {})
    counters_b = jb["metrics"].get("counters", {})
    rows = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0), counters_b.get(name, 0)
        if va != vb:
            rows.append([name, va, vb, f"{vb - va:+d}"])
    if rows:
        parts.append(format_table(["counter", "a", "b", "delta"], rows,
                                  title="Metric deltas"))

    def by_key(summary: Dict[str, Any]) -> Dict[Tuple, Dict[str, Any]]:
        return {(d["point"], tuple(d["stack"])): d for d in summary["diagnoses"]}

    by_key_a, by_key_b = by_key(ja), by_key(jb)
    rows = []
    for key in sorted(set(by_key_a) | set(by_key_b), key=str):
        da, db = by_key_a.get(key), by_key_b.get(key)
        outcome_a = da["outcome"] if da else "(absent)"
        outcome_b = db["outcome"] if db else "(absent)"
        bugs_a = ",".join(da["matched_bugs"]) if da else ""
        bugs_b = ",".join(db["matched_bugs"]) if db else ""
        if outcome_a != outcome_b or bugs_a != bugs_b:
            point = (da or db)["point"]
            rows.append([point, outcome_a, outcome_b,
                         f"{bugs_a or '-'} -> {bugs_b or '-'}"])
    if rows:
        parts.append(format_table(["point", "outcome a", "outcome b", "bugs"], rows,
                                  title="Diagnosis changes"))
    else:
        parts.append(
            f"No diagnosis changes across {len(a.diagnoses)} vs "
            f"{len(b.diagnoses)} points."
        )
    return "\n\n".join(parts)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Summarize one trace JSONL, or diff two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summ = sub.add_parser("summarize", help="render one trace for humans")
    summ.add_argument("trace", help="trace file written by repro.obs.export")
    summ.add_argument("--json", metavar="PATH", dest="json_path",
                      help="write a machine-readable summary to PATH "
                           "('-' for stdout)")
    dif = sub.add_parser("diff", help="what changed between two runs (a -> b)")
    dif.add_argument("trace", help="trace a")
    dif.add_argument("other", help="trace b")

    if argv is None:
        argv = sys.argv[1:]
    # legacy spellings: `report trace.jsonl` / `report a.jsonl b.jsonl`
    if argv and argv[0] not in ("summarize", "diff", "-h", "--help"):
        argv = (["summarize"] if len(argv) == 1 else ["diff"]) + list(argv)
    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            trace = read_trace_jsonl(args.trace)
            if args.json_path:
                write_json(summarize_json(trace), args.json_path)
            else:
                print(summarize(trace))
        else:
            print(diff(read_trace_jsonl(args.trace),
                       read_trace_jsonl(args.other)))
    except BrokenPipeError:
        # a downstream pager/head closed the pipe; suppress the shutdown
        # flush so the interpreter does not report the same break again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    # the one-release deprecation window for this alias ended in 1.5.0
    print("error: 'python -m repro.obs.report' was removed in 1.5.0; "
          "use 'python -m repro report'", file=sys.stderr)
    raise SystemExit(2)
