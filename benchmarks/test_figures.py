"""Figure reproductions.

* Figure 1 / 5(d) — the high-level meta-info view built from logs.
* Figure 5(a-c) — logging statements -> patterns -> matched instances.
* Figure 6 — the online meta-info store (HashSet + HashMap).
* Figures 2, 3, 8, 9, 10 — the five narrated bugs, reproduced by the tool.
"""

from benchmarks.conftest import full_result
from repro.bugs import matcher_for_system
from repro.core.injection import OnlineLogAgent, OnlineMetaStore, run_one_injection
from repro.core.report import format_table
from repro.systems import get_system, run_workload


def _inject(system_name, enclosing, field, op):
    result = full_result(system_name)
    dpoints = [
        d for d in result.profile.dynamic_points
        if enclosing in d.point.enclosing and d.point.field_name == field
        and d.point.op == op
    ]
    assert dpoints, f"missing dynamic point {enclosing}/{field}/{op}"
    return run_one_injection(
        get_system(system_name), result.analysis, dpoints[0],
        result.campaign.baseline, matcher=matcher_for_system(system_name),
    )


# ---------------------------------------------------------------------------
# Figure 1 / 5(d): the meta-info graph
# ---------------------------------------------------------------------------
def test_fig01_meta_info_graph(benchmark, table_out):
    result = benchmark(lambda: full_result("yarn"))
    graph = result.analysis.log_result.graph
    nodes = sorted(graph.node_values)
    assert any(v.endswith(":42349") for v in nodes)  # NodeManager addresses
    # meta_values() is a set: sort, or the sample follows PYTHONHASHSEED
    meta_values = sorted(graph.meta_values())
    container = next(v for v in meta_values if v.startswith("container_"))
    attempt = next(v for v in meta_values if v.startswith("attempt_"))
    assert graph.node_of(container) is not None
    assert graph.node_of(attempt) is not None
    dot = graph.to_dot()
    assert dot.startswith("graph meta_info")
    table_out(
        "Figure 1 / 5(d): high-level meta-info view of Hadoop2/Yarn\n"
        f"node values ({len(nodes)}): {', '.join(nodes[:6])}\n"
        f"meta values: {len(meta_values)}\n"
        f"sample associations: {container} -> {graph.node_of(container)}, "
        f"{attempt} -> {graph.node_of(attempt)}\n"
        f"dot rendering: {len(dot.splitlines())} lines"
    )


# ---------------------------------------------------------------------------
# Figure 5(a-c): statements, patterns, matched instances
# ---------------------------------------------------------------------------
def test_fig05_log_analysis(benchmark, table_out):
    result = benchmark(lambda: full_result("yarn"))
    statements = result.analysis.statements
    regs = [s for s in statements if "registered as" in s.template]
    assert regs, "the Figure 5(a) NodeManager registration statement exists"
    log_result = result.analysis.log_result
    assert log_result.matched > 0
    hit = result.analysis.index.match("NodeManager from node3 registered as node3:42349")
    assert hit is not None
    pattern, values = hit
    assert values == ("node3", "node3:42349")
    rows = [[s.template, s.level, f"{s.module.rsplit('.',1)[-1]}:{s.lineno}"]
            for s in statements[:10]]
    table_out(format_table(
        ["Template (Figure 5(a)->(b))", "Level", "Site"], rows,
        title=(f"Figure 5: {len(statements)} logging statements; "
               f"{log_result.matched} instances matched, "
               f"{log_result.unmatched} unmatched"),
    ))


# ---------------------------------------------------------------------------
# Figure 6: the online store
# ---------------------------------------------------------------------------
def test_fig06_online_store(benchmark, table_out):
    result = full_result("yarn")

    def build_store():
        store = OnlineMetaStore(result.analysis.hosts)
        agent = OnlineLogAgent(result.analysis.index,
                               result.analysis.log_result.meta_slots, store)
        report = run_workload(get_system("yarn"))
        for record in report.log.records:
            agent(record)
        return store

    store = benchmark(build_store)
    assert store.node_set, "the HashSet of node values is populated"
    containers = {v: n for v, n in store.value_node.items()
                  if v.startswith("container_")}
    attempts = {v: n for v, n in store.value_node.items()
                if v.startswith("attempt_")}
    assert containers and attempts
    rows = [[v, n] for v, n in sorted(store.value_node.items())[:12]]
    table_out(format_table(
        ["Value", "Node"], rows,
        title=(f"Figure 6: recorded runtime meta-info — HashSet {sorted(store.node_set)[:4]}..., "
               f"HashMap with {store.size()} entries"),
    ))


# ---------------------------------------------------------------------------
# the narrated bugs
# ---------------------------------------------------------------------------
def test_fig02_yarn5918(benchmark, table_out):
    outcome = benchmark.pedantic(
        lambda: _inject("yarn", "_pick_node", "nodes", "read"),
        rounds=1, iterations=1,
    )
    assert "YARN-5918" in outcome.matched_bugs
    assert outcome.verdict.job_failure
    table_out("Figure 2 (YARN-5918): crash of the node being read from `nodes` "
              f"-> {outcome.verdict.kinds()}; attributed: {outcome.matched_bugs}")


def test_fig03_mr3858(benchmark, table_out):
    outcome = benchmark.pedantic(
        lambda: _inject("yarn", "on_commit_pending", "commit_attempts", "write"),
        rounds=1, iterations=1,
    )
    assert "MR-3858" in outcome.matched_bugs
    table_out("Figure 3 (MR-3858): crash after commitPending records the attempt "
              f"-> {outcome.verdict.kinds()}; attributed: {outcome.matched_bugs}")


def test_fig08_yarn9238(benchmark, table_out):
    outcome = benchmark.pedantic(
        lambda: _inject("yarn", "on_allocate", "current_attempt", "read"),
        rounds=1, iterations=1,
    )
    assert "YARN-9238" in outcome.matched_bugs
    assert outcome.verdict.critical_aborts
    table_out("Figure 8 (YARN-9238): allocate on the recovered-but-uninitialized "
              f"attempt -> {outcome.verdict.kinds()}; attributed: {outcome.matched_bugs}")


def test_fig09_hbase22041(benchmark, table_out):
    outcome = benchmark.pedantic(
        lambda: _inject("hbase", "on_report_for_duty", "online_servers", "write"),
        rounds=1, iterations=1,
    )
    assert "HBASE-22041" in outcome.matched_bugs
    table_out("Figure 9 (HBASE-22041): RS dies between report_for_duty and its ZK "
              f"registration -> {outcome.verdict.kinds()}; attributed: {outcome.matched_bugs}")


def test_fig10_yarn9164(benchmark, table_out):
    outcome = benchmark.pedantic(
        lambda: _inject("yarn", "on_am_unregister", "nodes", "read"),
        rounds=1, iterations=1,
    )
    assert "YARN-9164" in outcome.matched_bugs
    assert outcome.verdict.critical_aborts
    table_out("Figure 10 (YARN-9164): job-finish release dereferences the removed "
              f"node -> {outcome.verdict.kinds()}; attributed: {outcome.matched_bugs}")
