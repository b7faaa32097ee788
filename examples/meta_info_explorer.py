#!/usr/bin/env python3
"""Explore the meta-info analysis on its own (Figures 1 and 5, Table 2).

Runs only phase 1 of CrashTuner over a system of your choice and shows the
intermediate artefacts: logging statements and their patterns, matched
instances, the runtime meta-info graph, the Definition-2 type closure, and
the resulting crash points with the per-optimization pruning.

    python examples/meta_info_explorer.py [system] [--dot out.dot]
"""

import sys

from repro.api import analyze_system, get_system, point_key


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    name = args[0] if args else "yarn"
    system = get_system(name)
    report = analyze_system(system)

    print(f"=== Meta-info analysis of {system.name} ===\n")
    print(f"-- Figure 5(a): {len(report.statements)} logging statements, e.g.")
    for stmt in report.statements[:5]:
        print(f"   [{stmt.level:5s}] {stmt.template!r}  args={stmt.arg_sources}")

    lr = report.log_result
    print(f"\n-- Figure 5(c): {lr.matched} runtime instances matched "
          f"({lr.unmatched} unmatched)")
    print(f"-- Figure 5(d): meta-info graph over {len(lr.graph.meta_values())} values; "
          f"node values: {sorted(lr.graph.node_values)[:5]}")
    for value in sorted(lr.graph.meta_values())[:8]:
        print(f"   {value:45s} -> {lr.graph.node_of(value)}")

    meta = report.meta
    print(f"\n-- Table 2: {len(meta.types)} meta-info types")
    for type_name in sorted(meta.types):
        marker = "*" if type_name in meta.logged_types else " "
        print(f"   {marker} {type_name}")
    print("   (* = identified by log analysis; others derived by Definition 2)")

    crash = report.crash
    print(f"\n-- Crash points: {len(crash.meta_access_points)} meta-info accesses")
    print(f"   pruned: constructor-only={crash.pruned_constructor}, "
          f"unused={crash.pruned_unused}, sanity-checked={crash.pruned_sanity}")
    print(f"   promoted to call sites: {crash.promoted}")
    print(f"   final static crash points: {len(crash.crash_points)}")
    for point in crash.crash_points[:10]:
        print(f"   {point.describe()}")

    inter = [p for p in crash.crash_points if p.lane == "inter"]
    stats = report.engine.stats
    print(f"\n-- Engine: {stats['fixpoint_iterations']} fixpoint round(s), "
          f"{stats['summary_returns']} return / {stats['summary_params']} "
          f"parameter summaries, {len(inter)} interprocedural crash point(s)")
    sample = inter[0] if inter else crash.crash_points[0] if crash.crash_points else None
    if sample is not None:
        print("   provenance of", sample.describe())
        for line in report.engine.provenance.chain_for(point_key(sample)):
            print(f"   {line}")

    if "--dot" in sys.argv:
        path = sys.argv[sys.argv.index("--dot") + 1]
        with open(path, "w") as fh:
            fh.write(lr.graph.to_dot())
        print(f"\nGraphviz rendering of the Figure 1 view written to {path}")


if __name__ == "__main__":
    main()
