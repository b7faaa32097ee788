"""The parent side: spawn fresh children, aggregate, print, compare.

Nothing here imports the program under test.  ``BENCHMARK.json`` is the
single declaration of workloads and metrics (name, unit, direction,
bound); every result is validated against it, so a metric the code
measures but the file does not declare — or the reverse — is an error,
not a silent gap.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import EXPECTED_PATH, REPO, SPEC_PATH

#: units per contract run at least: one disturbed unit must not be able
#: to set the run's value
MIN_UNITS = 2
#: set-ups per contract run whose median is ``setup_s`` (the units' own
#: set-ups count; set-up-only children make up the rest)
SETUP_SAMPLES = 3
#: a child that outlives this is killed and the run fails
CHILD_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(RuntimeError):
    """The benchmark itself could not run or disagrees with its spec."""


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def spec_problems(spec: Any) -> List[str]:
    """Every way ``spec`` breaks the ``BENCHMARK.json`` contract."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(spec, dict) or set(spec) != keys:
        return [f"top-level keys must be exactly {sorted(keys)}"]
    problems: List[str] = []
    names: List[str] = []
    for section, fields, low, high in (
        ("workloads", {"name", "why"}, 2, 8),
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ):
        entries = spec[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section}: {len(entries)} entries, allowed {low}..{high}")
        for entry in entries:
            if set(entry) != fields:
                problems.append(f"{section}: {entry!r} must have exactly {sorted(fields)}")
                continue
            names.append(entry["name"])
            if not NAME_RE.match(entry["name"]):
                problems.append(f"{section}: bad name {entry['name']!r}")
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"{entry['name']}: better must be lower|higher")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{entry['name']}: bound must be in (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"{entry['name']}: why must be one line of <= 200 chars")
    problems.extend(f"name {name!r} used twice"
                    for name in sorted(set(names)) if names.count(name) > 1)
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 1 <= len(spec["paths"]) <= 16:
        problems.append("paths: 1..16 directories")
    if len(spec["command"]) > 32 or any(len(part) > 200 for part in spec["command"]):
        problems.append("command: at most 32 strings of at most 200 characters")
    return problems


def load_spec() -> Dict[str, Any]:
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"{SPEC_PATH}: {exc}") from None
    problems = spec_problems(spec)
    if problems:
        raise BenchError(f"{SPEC_PATH}: " + "; ".join(problems))
    return spec


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(mode: str, workload: str, seed: int = 0, trace: bool = False,
              small: bool = False) -> Dict[str, Any]:
    """Start one fresh child, wait for it, return its JSON report.

    ``setup_s`` is added here: spawn to the child's "set-up done" stamp
    (``CLOCK_MONOTONIC`` is shared by all processes of one boot), so the
    interpreter start and every import are in it.  ``-B`` keeps the
    checkout free of bytecode and every start equally cold.
    """
    cmd = [sys.executable, "-B", "-m", "bench", "--child", mode,
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if small:
        cmd.append("--small")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child ({mode}) exceeded "
                         f"{CHILD_TIMEOUT_S}s and was killed") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child ({mode}) exited {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: child ({mode}) printed no report: "
                         f"{lines[-1][:200]!r}") from None
    if "t_ready" in report:
        report["setup_s"] = report["t_ready"] - t0
    return report


# ----------------------------------------------------------------------
# one contract run: --workload W --seed N --seconds S --trace T
# ----------------------------------------------------------------------
def measure(spec: Dict[str, Any], workload: str, seed: int, seconds: float,
            trace: bool, small: bool = False) -> Dict[str, Any]:
    """One result: ``correct``, ``attempted``, ``failed``, ``metrics``
    (every declared metric of the round, with its unit) and the failure
    messages behind ``failed``."""
    if workload not in workload_names(spec):
        raise BenchError(f"unknown workload {workload!r}; "
                         f"BENCHMARK.json declares {workload_names(spec)}")
    if trace:
        values, attempted, failures = traced_round(workload, seed, small)
        declared = spec["per_layer"]
    else:
        values, attempted, failures, _ = untraced_runs(workload, seed, seconds, small)
        declared = spec["end_to_end"]
    return result_of(workload, seed, declared, values, attempted, failures)


def result_of(workload: str, seed: int, declared: List[Dict[str, Any]],
              values: Dict[str, float], attempted: int,
              failures: List[str]) -> Dict[str, Any]:
    """Pair measured values with their declarations; both sides must
    name exactly the same metrics."""
    missing = sorted({m["name"] for m in declared} - set(values))
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"{workload}: measured metrics disagree with "
                         f"BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def untraced_runs(workload: str, seed: int, seconds: float, small: bool = False,
                  min_units: int = MIN_UNITS, setup_samples: int = SETUP_SAMPLES):
    """Fresh-process units until ``seconds`` of timed region are measured
    (at least ``min_units``).  Returns ``(values, attempted, failures, the
    units' raw reports)``.

    The run's timing metrics are those of its *fastest* unit: the work is
    fixed and deterministic, so on a shared host every deviation is a
    slowdown from outside, and the fastest unit is the least disturbed
    one (a 20-minute trace of this host: quartile spread of ten 25 s runs
    up to 0.12 with the median of 5 s units, at most 0.07 with their
    minimum).  ``setup_s`` and ``peak_rss_mb`` are medians.
    """
    runs: List[Dict[str, Any]] = []
    while len(runs) < min_units or sum(run["wall_s"] for run in runs) < seconds:
        runs.append(run_child("run", workload, seed, small=small))
    setups = [run["setup_s"] for run in runs]
    while len(setups) < setup_samples:
        setups.append(run_child("setup", workload, seed, small=small)["setup_s"])
    best = min(runs, key=lambda run: run["wall_s"])
    values = {
        "wall_s": best["wall_s"],
        "cpu_s": best["cpu_s"],
        "injections_per_s": best["injections"] / best["wall_s"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "setup_s": statistics.median(setups),
        "op_latency_p50_s": statistics.median(best["latencies"]),
    }
    return (values, sum(run["attempted"] for run in runs),
            [msg for run in runs for msg in run["failures"]], runs)


def traced_round(workload: str, seed: int, small: bool = False,
                 plain: Optional[Dict[str, Any]] = None,
                 probes: Optional[Dict[str, Any]] = None,
                 ) -> Tuple[Dict[str, float], int, List[str]]:
    """The traced round of one workload: an untraced unit for the
    overhead ratio, the traced unit, and the layer probes — each in its
    own fresh process (the self-test hands in units it already ran)."""
    plain = plain or run_child("run", workload, seed, small=small)
    traced = run_child("run", workload, seed, trace=True, small=small)
    probes = probes or run_child("probes", workload, small=small)
    values = {**traced["layer"], **probes["metrics"]}
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_x"] = traced["wall_s"] / plain["wall_s"]
    values["trace.setup_s"] = traced["setup_s"]
    # the tail of the untraced unit's operation latencies: too few samples
    # (12 to 86) for a steady end-to-end metric, so it is reported here
    values["latency.samples"] = len(plain["latencies"])
    values["latency.op_p90_s"] = statistics.quantiles(
        plain["latencies"], n=10, method="inclusive")[8]
    failures = list(traced["failures"])
    attempted = traced["attempted"]
    if plain["observed"] != traced["observed"]:
        failures.append("tracing changed the simulated statistics")
    if not small:
        pinned = json.loads(EXPECTED_PATH.read_text())["worlds"]
        for label, counts in probes["worlds"].items():
            attempted += 1
            if counts != pinned.get(label):
                failures.append(f"world {label}: got {counts}, pinned {pinned.get(label)}")
    return values, attempted, failures


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the one-line JSON result
    the driver reads (exactly ``correct, attempted, failed, metrics``)."""
    for message in result["failures"][:20]:
        print(f"FAILED {message}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:<18} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


# ----------------------------------------------------------------------
# the ledger: python -m bench [--rounds N] [--out FILE]
# ----------------------------------------------------------------------
def host_record() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def ledger(spec: Dict[str, Any], rounds: int, seed: int, seconds: float,
           out: Path) -> int:
    """All workloads, interleaved round-robin, then the traced round.

    Round ``r`` runs every workload once with seed ``seed + r``, so slow
    drift of the host lands on all workloads alike.  Writes medians,
    quartiles, n and the host record to ``out``; exits non-zero when any
    operation failed.
    """
    names = workload_names(spec)
    record: Dict[str, Any] = {
        "host": host_record(), "rounds": rounds, "seed": seed,
        "seconds": seconds, "end_to_end": {}, "per_layer": {}, "derived": {},
        "attempted": 0, "failed": 0, "failures": [],
    }
    samples: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}

    def tally(result: Dict[str, Any]) -> Dict[str, Any]:
        record["attempted"] += result["attempted"]
        record["failed"] += result["failed"]
        record["failures"].extend(result["failures"])
        return result["metrics"]

    for r in range(rounds):
        for name in names:
            metrics = tally(measure(spec, name, seed + r, seconds, trace=False))
            print(f"round {r + 1}/{rounds} {name}: "
                  f"wall_s {metrics['wall_s']['value']:.3f}", flush=True)
            for metric, entry in metrics.items():
                samples[name].setdefault(metric, []).append(entry["value"])
    for name in names:
        print(f"traced round {name}", flush=True)
        record["per_layer"][name] = tally(
            measure(spec, name, seed, seconds, trace=True))

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\nend to end (median [q1, q3] of n={rounds} fresh-process runs; "
          f"spread = (q3 - q1) / median)")
    for name in names:
        record["end_to_end"][name] = {}
        for metric, values in samples[name].items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            record["end_to_end"][name][metric] = {
                "unit": bounds[metric]["unit"], "median": median, "q1": q1,
                "q3": q3, "n": len(values), "values": values,
            }
            note = ("" if metric == "setup_s" or spread <= bounds[metric]["bound"] / 3
                    else "  <- spread above a third of the bound")
            print(f"{name:<18} {metric:<18} {median:>12.5g} "
                  f"[{q1:.5g}, {q3:.5g}] {bounds[metric]['unit']:<5} "
                  f"spread {spread:.3f} bound {bounds[metric]['bound']}{note}")
    print("\nper layer (traced round, one run per workload)")
    for name in names:
        for metric, entry in record["per_layer"][name].items():
            print(f"{name:<18} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    walls = {name: record["end_to_end"][name]["wall_s"]["median"] for name in names}
    for label, replay, snapshot in (("seed", "seed-replay", "seed-snapshot"),
                                    ("yarn-10x", "yarn-10x-replay", "yarn-10x-snapshot")):
        if replay in walls and snapshot in walls:
            key = f"snapshot.speedup_vs_replay.{label}"
            record["derived"][key] = {"value": walls[replay] / walls[snapshot], "unit": "x"}
            print(f"{'derived':<18} {key:<34} {walls[replay] / walls[snapshot]:>14.6g} x "
                  f"({walls[replay]:.3f} s / {walls[snapshot]:.3f} s)")
    failed_frac = record["failed"] / record["attempted"]
    print(f"\nops_failed_frac {failed_frac:.6g} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for message in record["failures"][:20]:
        print(f"FAILED {message}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if record["failed"] else 0


# ----------------------------------------------------------------------
# python -m bench --compare A.json B.json
# ----------------------------------------------------------------------
def compare(spec: Dict[str, Any], path_a: Path, path_b: Path) -> int:
    """B against A, per end-to-end metric and workload.

    ``within-bound``: B's median is no worse than A's by more than the
    metric's bound.  ``worse``: it is.  ``unresolved``: either side's
    quartile spread is wider than the bound, so the medians cannot tell —
    unless every run of B reads better than every run of A.  Counts of
    the traced round must be identical.  Exits 1 on any ``worse`` or any
    differing count.
    """
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bad = 0
    print(f"A = {path_a} (commit {a['host']['commit']}, n={a['rounds']})")
    print(f"B = {path_b} (commit {b['host']['commit']}, n={b['rounds']})")
    print(f"{'workload':<18} {'metric':<18} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'B worse by':>10} {'bound':>6}  verdict")
    for workload in workload_names(spec):
        for metric in spec["end_to_end"]:
            ea = a["end_to_end"].get(workload, {}).get(metric["name"])
            eb = b["end_to_end"].get(workload, {}).get(metric["name"])
            if ea is None or eb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (eb["median"] - ea["median"]) / ea["median"]
            spread = max((e["q3"] - e["q1"]) / e["median"] for e in (ea, eb))
            if sign > 0:
                b_always_better = max(eb["values"]) < min(ea["values"])
            else:
                b_always_better = min(eb["values"]) > max(ea["values"])
            if spread > metric["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
                bad += 1
            else:
                verdict = "within-bound"
            cells = [f"{e['median']:.5g} [{e['q1']:.5g}, {e['q3']:.5g}]" for e in (ea, eb)]
            print(f"{workload:<18} {metric['name']:<18} {cells[0]:<32} {cells[1]:<32} "
                  f"{worse_by:>+10.3f} {metric['bound']:>6}  {verdict}")
    differing = 0
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workload_names(spec):
        la, lb = a["per_layer"].get(workload, {}), b["per_layer"].get(workload, {})
        for name in counts:
            if name in la and name in lb and la[name]["value"] != lb[name]["value"]:
                differing += 1
                print(f"{workload:<18} {name}: count differs: "
                      f"A {la[name]['value']} != B {lb[name]['value']}")
    print(f"counts: {len(counts)} per workload, {differing} differ")
    return 1 if bad or differing else 0


# ----------------------------------------------------------------------
# python -m bench --write-expected
# ----------------------------------------------------------------------
def write_expected(spec: Dict[str, Any]) -> int:
    """Re-pin ``expected.json`` from one run of every workload.

    For the PR that *means* to change a simulated statistic; the diff of
    the file is then part of that PR's review.
    """
    campaigns: Dict[str, Any] = {}
    if not EXPECTED_PATH.exists():
        EXPECTED_PATH.write_text('{"campaigns": {}, "worlds": {}}\n')
    for name in workload_names(spec):
        run = run_child("run", name)
        for key, summary in run["observed"].items():
            if campaigns.setdefault(key, summary) != summary:
                raise BenchError(f"{name}: {key} disagrees with another workload's run")
    worlds = run_child("probes", workload_names(spec)[0])["worlds"]
    EXPECTED_PATH.write_text(json.dumps(
        {"campaigns": dict(sorted(campaigns.items())), "worlds": worlds},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0
