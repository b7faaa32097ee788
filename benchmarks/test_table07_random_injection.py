"""Table 7 — results of random crash injection (baseline of Section 4.2.1).

The paper ran 3000 random injections per system and found 3 known/new bugs
total.  The default here is a scaled-down run count (raise it with
CRASHTUNER_BENCH_SCALE); the shape to reproduce: random injection finds at
most a handful of large-window bugs, far fewer than CrashTuner per run.
"""

from benchmarks.conftest import PAPER_SYSTEMS, bench_scale, full_result
from repro.bugs import matcher_for_system
from repro.core.baselines import counted_bugs, discounted, run_random_injection
from repro.core.report import format_table, hours
from repro.systems import get_system


def run_baseline():
    runs = 30 * bench_scale()
    results = {}
    for name in PAPER_SYSTEMS:
        results[name] = run_random_injection(
            get_system(name), runs=runs, matcher=matcher_for_system(name),
            baseline=full_result(name).campaign.baseline,
        )
    return results


def test_table07_random_injection(benchmark, table_out):
    results = benchmark(run_baseline)
    rows = []
    random_total = set()
    for name in PAPER_SYSTEMS:
        res = results[name]
        bugs = counted_bugs(res)
        random_total.update(bugs)
        rows.append([name, len(res.outcomes), hours(res.sim_seconds),
                     sum(o.flagged and not discounted(o) for o in res.outcomes),
                     " ".join(f"{b}({n})" for b, n in sorted(bugs.items())) or "-"])
    crashtuner_total = {
        bug for name in PAPER_SYSTEMS for bug in full_result(name).detected_bugs()
    }
    # the paper's shape: random finds a small subset of CrashTuner's bugs
    assert random_total <= crashtuner_total | set()
    assert len(random_total) < len(crashtuner_total)
    table_out(format_table(
        ["System", "Runs", "Sim time", "Flagged runs", "Bugs (times triggered)"],
        rows,
        title=(f"Table 7: random crash injection "
               f"(random: {len(random_total)} distinct bugs vs CrashTuner: "
               f"{len(crashtuner_total)})"),
    ))
