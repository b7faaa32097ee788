"""Failure-mode analytics over campaign traces.

A campaign's output is a pile of per-injection evidence — one
:class:`~repro.obs.diagnosis.InjectionDiagnosis` per dynamic crash point,
plus spans and metrics.  This module is the post-hoc layer that turns the
pile into something a human triages, the workflow of *Fault Injection
Analytics* (arXiv:2010.00331) applied to our JSONL exports:

* :func:`cluster_modes` — deterministic average-linkage agglomerative
  clustering of injections (Jaccard distance over the token sets of
  :mod:`repro.obs.features`) into named **failure modes**: "these 5
  injections are the same underlying recovery behavior";
* :func:`dedup_detections` — collapses every detection of the same
  seeded bug into one **canonical detection** with a members list, so 58
  yarn injections read as a handful of bugs, not a wall of flags;
* :func:`rank_anomalies` — scores each injection by how unlike its own
  mode it is, most anomalous first, so the odd one out is triaged first;
* :func:`novelty_order` — the scheduling feedback loop: orders pending
  crash points by distance from everything already observed (a greedy
  farthest-point traversal), so a time-boxed campaign under
  ``max_points`` tests novel-looking points first.  This is what
  ``CampaignConfig(point_order="novelty")`` consumes; the precomputed
  order is exactly the incremental re-rank after each injection, because
  the scheduling distance uses only static point features.

Everything is dependency-free and deterministic: same trace in, byte
identical ``modes --json`` out.  The CLI mirrors the analysis report CLI::

    python -m repro analytics modes trace.jsonl [--json -] [--diff PREV]
    python -m repro analytics dedup trace.jsonl [--json -]
    python -m repro analytics rank  trace.jsonl [--json -] [--top N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.obs.diagnosis import InjectionDiagnosis
from repro.obs.export import TraceData, read_trace_jsonl
from repro.obs.features import (
    InjectionFeatures,
    featurize,
    jaccard_distance,
    point_tokens,
    static_only,
)
from repro.obs.tracer import SpanRecord

#: default agglomerative merge ceiling: two clusters merge while their
#: average pairwise distance stays at or below this
DEFAULT_THRESHOLD = 0.6


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------
@dataclass
class FailureMode:
    """One cluster of injections exhibiting the same failure behavior."""

    mode_id: int
    name: str
    members: List[int]  # trace indices, ascending
    medoid: int  # the member minimizing summed distance to the rest
    outcomes: Dict[str, int]  # outcome label -> member count
    bugs: List[str]  # all bugs matched by members, sorted
    medoid_point: str
    medoid_tokens: List[str]  # sorted; static subset seeds novelty order

    @property
    def size(self) -> int:
        return len(self.members)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode_id": self.mode_id,
            "name": self.name,
            "size": self.size,
            "members": list(self.members),
            "medoid": self.medoid,
            "outcomes": dict(self.outcomes),
            "bugs": list(self.bugs),
            "medoid_point": self.medoid_point,
            "medoid_tokens": list(self.medoid_tokens),
        }


def cluster_modes(
    features: Sequence[InjectionFeatures],
    diagnoses: Sequence[InjectionDiagnosis],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[FailureMode]:
    """Group injections into failure modes, deterministically.

    Average-linkage agglomerative clustering: repeatedly merge the pair
    of clusters with the smallest mean pairwise Jaccard distance, until
    the smallest exceeds ``threshold``.  All ties break toward the lower
    member indices, so the same trace always yields the same modes.
    """
    n = len(features)
    if n == 0:
        return []
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = jaccard_distance(features[i].tokens, features[j].tokens)
            dist[i][j] = dist[j][i] = d

    # Average linkage, maintained incrementally: totals[a][b] is the summed
    # pairwise distance between clusters a and b, and a merge just adds the
    # absorbed cluster's row — O(n^3) overall instead of re-summing pairs.
    clusters: List[List[int]] = [[i] for i in range(n)]
    totals: List[List[float]] = [row[:] for row in dist]
    while len(clusters) > 1:
        best: Optional[Tuple[float, int, int]] = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                mean = totals[a][b] / (len(clusters[a]) * len(clusters[b]))
                key = (mean, a, b)
                if best is None or key < best:
                    best = key
        if best is None or best[0] > threshold:
            break
        _, a, b = best
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
        for c in range(len(totals)):
            totals[c][a] += totals[c][b]
            del totals[c][b]
        del totals[b]
        totals[a] = [totals[c][a] for c in range(len(totals))]

    clusters.sort(key=lambda c: c[0])
    modes: List[FailureMode] = []
    for mode_id, members in enumerate(clusters):
        medoid = min(
            members,
            key=lambda i: (sum(dist[i][j] for j in members), i),
        )
        outcomes: Dict[str, int] = {}
        bugs: set = set()
        enclosings: Dict[str, int] = {}
        for i in members:
            d = diagnoses[i]
            outcomes[d.outcome()] = outcomes.get(d.outcome(), 0) + 1
            bugs.update(d.matched_bugs)
            enclosings[d.enclosing] = enclosings.get(d.enclosing, 0) + 1
        top_outcome = max(sorted(outcomes), key=lambda k: outcomes[k])
        top_enclosing = max(sorted(enclosings), key=lambda k: enclosings[k])
        modes.append(FailureMode(
            mode_id=mode_id,
            name=f"{top_outcome} @ {top_enclosing}",
            members=list(members),
            medoid=medoid,
            outcomes={k: outcomes[k] for k in sorted(outcomes)},
            bugs=sorted(bugs),
            medoid_point=features[medoid].point,
            medoid_tokens=sorted(features[medoid].tokens),
        ))
    return modes


# ---------------------------------------------------------------------------
# detection dedup
# ---------------------------------------------------------------------------
@dataclass
class CanonicalDetection:
    """All detections of one bug, collapsed to a single canonical record."""

    bug: str
    canonical: int  # trace index of the first detection
    point: str  # the canonical detection's crash point
    members: List[int]  # every detecting trace index, ascending
    modes: List[int] = field(default_factory=list)  # mode ids involved

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bug": self.bug,
            "canonical": self.canonical,
            "point": self.point,
            "members": list(self.members),
            "modes": list(self.modes),
        }


def dedup_detections(
    diagnoses: Sequence[InjectionDiagnosis],
    modes: Sequence[FailureMode],
) -> List[CanonicalDetection]:
    """One canonical detection per bug, ordered by first detection."""
    mode_of: Dict[int, int] = {}
    for mode in modes:
        for i in mode.members:
            mode_of[i] = mode.mode_id
    by_bug: Dict[str, List[int]] = {}
    for i, diagnosis in enumerate(diagnoses):
        for bug in diagnosis.matched_bugs:
            by_bug.setdefault(bug, []).append(i)
    out = [
        CanonicalDetection(
            bug=bug,
            canonical=members[0],
            point=diagnoses[members[0]].point,
            members=members,
            modes=sorted({mode_of[i] for i in members if i in mode_of}),
        )
        for bug, members in by_bug.items()
    ]
    out.sort(key=lambda c: (c.canonical, c.bug))
    return out


# ---------------------------------------------------------------------------
# anomaly ranking
# ---------------------------------------------------------------------------
def rank_anomalies(
    features: Sequence[InjectionFeatures],
    modes: Sequence[FailureMode],
) -> List[Tuple[int, float]]:
    """(trace index, score) pairs, most anomalous first.

    An injection's score is its mean distance to the other members of its
    own mode; a singleton mode scores 1.0 — nothing else in the campaign
    looked like it, the strongest triage signal there is.
    """
    scores: List[Tuple[int, float]] = []
    for mode in modes:
        for i in mode.members:
            others = [j for j in mode.members if j != i]
            if not others:
                scores.append((i, 1.0))
                continue
            mean = sum(
                jaccard_distance(features[i].tokens, features[j].tokens)
                for j in others
            ) / len(others)
            scores.append((i, mean))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores


# ---------------------------------------------------------------------------
# novelty-first scheduling
# ---------------------------------------------------------------------------
def novelty_order(
    token_sets: Sequence[FrozenSet[str]],
    observed: Sequence[FrozenSet[str]] = (),
) -> List[int]:
    """Greedy farthest-point traversal over feature space.

    The first pick maximizes the distance to what is already ``observed``
    (a prior campaign's mode medoids) — or, with nothing observed, the
    summed distance to every other candidate (the biggest outlier).  Each
    later pick maximizes the minimum distance to everything selected or
    observed so far.  Because candidate features never change, emitting
    the whole order up front is identical to re-ranking the pending set
    after every injection — which is why the campaign scheduler can pin
    the order in its journal and still resume deterministically.

    Ties break toward the lower index, so the order is a deterministic
    permutation of ``range(len(token_sets))``.
    """
    n = len(token_sets)
    if n == 0:
        return []
    sums = [
        sum(jaccard_distance(token_sets[i], token_sets[j]) for j in range(n))
        for i in range(n)
    ]
    floor = [
        min((jaccard_distance(token_sets[i], o) for o in observed), default=None)
        for i in range(n)
    ]

    def seed_key(i: int) -> Tuple:
        if floor[i] is not None:
            return (floor[i], sums[i], -i)
        return (sums[i], -i)

    first = max(range(n), key=seed_key)
    order = [first]
    chosen = {first}
    nearest = [
        min(
            jaccard_distance(token_sets[i], token_sets[first]),
            floor[i] if floor[i] is not None else 2.0,
        )
        for i in range(n)
    ]
    while len(order) < n:
        best = max(
            (i for i in range(n) if i not in chosen),
            key=lambda i: (nearest[i], sums[i], -i),
        )
        order.append(best)
        chosen.add(best)
        for i in range(n):
            if i not in chosen:
                d = jaccard_distance(token_sets[i], token_sets[best])
                if d < nearest[i]:
                    nearest[i] = d
    return order


def observed_from_analytics(analytics: Dict[str, Any]) -> List[FrozenSet[str]]:
    """Mode medoids of a prior ``modes --json`` dump, static features only."""
    out: List[FrozenSet[str]] = []
    for mode in analytics.get("modes", []):
        tokens = static_only(mode.get("medoid_tokens", []))
        if tokens:
            out.append(tokens)
    return out


def order_points(
    dynamic_points: Sequence[Any],
    analytics_path: Optional[Any] = None,
) -> List[Any]:
    """Reorder dynamic crash points novelty-first (the scheduler hook).

    ``analytics_path`` may name a prior campaign's ``modes --json`` dump;
    its mode medoids seed the observed set, so a follow-up campaign
    starts from the points least like anything that campaign saw.
    """
    observed: List[FrozenSet[str]] = []
    if analytics_path is not None:
        with open(analytics_path, "r", encoding="utf-8") as fh:
            observed = observed_from_analytics(json.load(fh))
    token_sets = [static_only(point_tokens(p)) for p in dynamic_points]
    return [dynamic_points[i] for i in novelty_order(token_sets, observed)]


# ---------------------------------------------------------------------------
# the report object
# ---------------------------------------------------------------------------
@dataclass
class AnalyticsReport:
    """Everything the analytics pass derived from one campaign trace."""

    injections: int
    threshold: float
    span_features: bool
    modes: List[FailureMode]
    dedup: List[CanonicalDetection]
    ranking: List[Tuple[int, float]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "injections": self.injections,
            "threshold": self.threshold,
            "span_features": self.span_features,
            "modes": [m.to_dict() for m in self.modes],
            "dedup": [c.to_dict() for c in self.dedup],
            "ranking": [
                {"index": i, "score": round(score, 6)}
                for i, score in self.ranking
            ],
        }

    def to_json(self) -> str:
        """Byte-stable JSON (the determinism contract's surface)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def analyze_diagnoses(
    diagnoses: Sequence[InjectionDiagnosis],
    spans: Optional[Sequence[SpanRecord]] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> AnalyticsReport:
    """Run the full analytics pass over in-memory campaign evidence."""
    features, span_features = featurize(diagnoses, spans=spans)
    modes = cluster_modes(features, diagnoses, threshold=threshold)
    return AnalyticsReport(
        injections=len(diagnoses),
        threshold=threshold,
        span_features=span_features,
        modes=modes,
        dedup=dedup_detections(diagnoses, modes),
        ranking=rank_anomalies(features, modes),
    )


def analyze_trace(
    trace: TraceData,
    threshold: float = DEFAULT_THRESHOLD,
) -> AnalyticsReport:
    """Run the analytics pass over a parsed JSONL trace file."""
    return analyze_diagnoses(trace.diagnoses, spans=trace.spans,
                             threshold=threshold)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def format_modes(report: AnalyticsReport) -> str:
    # Imported lazily so repro.obs stays leaf-like (see diagnosis.py).
    from repro.core.report import format_table

    rows = [
        [m.mode_id, m.name, m.size,
         ",".join(f"{k}:{v}" for k, v in m.outcomes.items()),
         ",".join(m.bugs) or "-", m.medoid_point]
        for m in report.modes
    ]
    title = (f"Failure modes ({len(report.modes)} over {report.injections} "
             f"injections, threshold={report.threshold}, "
             f"span features {'on' if report.span_features else 'off'})")
    return format_table(["mode", "name", "size", "outcomes", "bugs", "medoid point"],
                        rows, title=title)


def format_dedup(report: AnalyticsReport) -> str:
    from repro.core.report import format_table

    rows = [
        [c.bug, c.canonical, c.point, len(c.members),
         ",".join(str(i) for i in c.members),
         ",".join(str(m) for m in c.modes) or "-"]
        for c in report.dedup
    ]
    raw = sum(len(c.members) for c in report.dedup)
    return format_table(
        ["bug", "first", "canonical point", "detections", "members", "modes"],
        rows, title=f"Canonical detections ({len(report.dedup)} bugs "
                    f"from {raw} raw detections)")


def format_rank(report: AnalyticsReport, top: Optional[int] = None) -> str:
    from repro.core.report import format_table

    mode_of = {i: m.mode_id for m in report.modes for i in m.members}
    ranking = report.ranking[:top] if top else report.ranking
    rows = []
    for rank, (i, score) in enumerate(ranking, 1):
        mode = next(m for m in report.modes if m.mode_id == mode_of[i])
        rows.append([rank, i, f"{score:.3f}",
                     f"{mode.mode_id} ({mode.size} members)",
                     mode.name])
    return format_table(["rank", "injection", "anomaly", "mode", "mode name"],
                        rows, title="Anomaly ranking (most novel first)")


def diff_modes(previous: Dict[str, Any], current: AnalyticsReport) -> int:
    """Print modes gained/lost vs an earlier ``modes --json`` dump."""
    def keyed(modes: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        return {m["name"]: m for m in modes}

    old = keyed(previous.get("modes", []))
    new = keyed([m.to_dict() for m in current.modes])
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    resized = sorted(
        name for name in set(new) & set(old)
        if new[name]["size"] != old[name]["size"]
    )
    print(f"modes: +{len(added)} / -{len(removed)} / {len(resized)} resized")
    for name in added:
        print(f"  + {name} ({new[name]['size']} members)")
    for name in removed:
        print(f"  - {name} ({old[name]['size']} members)")
    for name in resized:
        print(f"  ~ {name}: {old[name]['size']} -> {new[name]['size']} members")
    return len(added) + len(removed) + len(resized)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.report import write_json

    parser = argparse.ArgumentParser(
        prog="python -m repro analytics",
        description="Failure-mode analytics over a campaign trace JSONL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("modes", "cluster injections into failure modes"),
        ("dedup", "collapse duplicate detections of each bug"),
        ("rank", "rank injections by anomaly, most novel first"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("trace", help="trace file written by repro.obs.export")
        cmd.add_argument("--json", metavar="PATH",
                         help="write machine-readable output to PATH ('-' for stdout)")
        cmd.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                         help="agglomerative merge ceiling (default %(default)s)")
        if name == "modes":
            cmd.add_argument("--diff", metavar="PATH",
                             help="compare against a previous --json dump")
        if name == "rank":
            cmd.add_argument("--top", type=int, default=None,
                             help="show only the N most anomalous injections")
    args = parser.parse_args(argv)

    try:
        report = analyze_trace(read_trace_jsonl(args.trace),
                               threshold=args.threshold)
        if args.command == "modes":
            print(format_modes(report))
            if args.json:
                write_json(report.to_dict(), args.json)
            if args.diff:
                with open(args.diff, "r", encoding="utf-8") as fh:
                    diff_modes(json.load(fh), report)
        elif args.command == "dedup":
            print(format_dedup(report))
            if args.json:
                write_json([c.to_dict() for c in report.dedup], args.json)
        else:
            print(format_rank(report, top=args.top))
            if args.json:
                write_json(report.to_dict()["ranking"], args.json)
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
    print("error: 'python -m repro.obs.analytics' was removed in 1.5.0; "
          "use 'python -m repro analytics'", file=sys.stderr)
    sys.exit(2)
