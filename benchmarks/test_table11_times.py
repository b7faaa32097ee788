"""Table 11 — analysis, profiling, and testing times per system.

Absolute times are wall-clock on this machine plus summed simulated test
time; the paper's shape: analysis is minutes (seconds here), testing
dominates and scales with the number of dynamic crash points.
"""

from benchmarks.conftest import PAPER_SYSTEMS, full_result
from repro.core.report import format_table, hours, speedup


def build_table11():
    return {name: (full_result(name).table11_row(),
                   len(full_result(name).profile.dynamic_points))
            for name in PAPER_SYSTEMS}


def test_table11_times(benchmark, table_out):
    data = benchmark(build_table11)
    rows = []
    for name in PAPER_SYSTEMS:
        t, points = data[name]
        rows.append([
            name,
            t["analysis_mode"],
            f"{t['analysis_wall_s']:.2f}s",
            f"{t['profile_wall_s']:.2f}s",
            f"{t['test_wall_s']:.2f}s",
            hours(t["test_sim_s"]),
            points,
            t["workers"],
            speedup(t["test_speedup"]),
            t["execution"],
            t["point_order"],
        ])
    # analysis finishes within minutes (the paper: < 5 min per system)
    assert all(data[name][0]["analysis_wall_s"] < 300 for name in PAPER_SYSTEMS)
    # testing time scales with the number of dynamic crash points: the
    # largest system (yarn) spends the most simulated test time
    sim = {name: data[name][0]["test_sim_s"] for name in PAPER_SYSTEMS}
    points = {name: data[name][1] for name in PAPER_SYSTEMS}
    assert max(points, key=points.get) == "yarn"
    assert sim["yarn"] > sim["zookeeper"]
    table_out(format_table(
        ["System", "Engine", "Analysis (wall)", "Profile (wall)", "Test (wall)",
         "Test (sim)", "Dynamic CPs", "Workers", "Speedup", "Execution",
         "Order"], rows,
        title="Table 11: analysis and testing times",
    ))
