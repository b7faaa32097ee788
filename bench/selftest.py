"""``python -m bench --selftest``: the whole harness at toy sizes.

Runs every workload's untraced and traced round with ``--small`` (3
points, 3 jobs, a 3x world) and asserts what a later edit is most likely
to break: ``BENCHMARK.json`` passes the contract's validator, every
metric it declares is measured and carries a unit, names are well formed,
and each span tree is a tree whose self times sum to the traced wall.
Values are not judged here.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List

from bench import OUT_DIR, runner
from bench.spans import tree_problems


def problems(spec: Dict[str, Any]) -> List[str]:
    found: List[str] = []  # ``spec`` already passed runner.load_spec's validator
    probes = runner.run_child("probes", runner.workload_names(spec)[0], small=True)
    for workload in runner.workload_names(spec):
        values, attempted, failures, runs = runner.untraced_runs(
            workload, seed=1, seconds=0, small=True, min_units=1, setup_samples=1)
        results = [
            runner.result_of(workload, 1, spec["end_to_end"], values, attempted, failures),
            runner.result_of(workload, 1, spec["per_layer"], *runner.traced_round(
                workload, seed=1, small=True, plain=runs[0], probes=probes)),
        ]
        for result in results:
            found.extend(f"{workload}: {msg}" for msg in result["failures"])
            if result["attempted"] < 1:
                found.append(f"{workload}: nothing attempted")
            for name, metric in result["metrics"].items():
                if not runner.NAME_RE.match(name):
                    found.append(f"{workload}: bad metric name {name!r}")
                if not runner.UNIT_RE.match(metric["unit"]):
                    found.append(f"{workload}: {name} has no unit")
                if not isinstance(metric["value"], (int, float)):
                    found.append(f"{workload}: {name} is not a number")
        trace = json.loads((OUT_DIR / f"trace-{workload}.json").read_text())
        if not trace["spans"]:
            found.append(f"{workload}: traced round recorded no spans")
        found.extend(f"{workload}: {msg}" for msg in tree_problems(trace["spans"]))
        own = results[1]["metrics"]["trace.self_sum_frac"]["value"]
        if abs(own - 1.0) > 0.05:
            found.append(f"{workload}: self times sum to {own:.3f} of the traced wall")
    return found


def main(spec: Dict[str, Any]) -> int:
    t0 = time.perf_counter()
    found = problems(spec)
    for message in found:
        print(f"selftest: {message}")
    print(f"selftest: {'FAILED' if found else 'ok'} in {time.perf_counter() - t0:.1f}s")
    return 1 if found else 0
