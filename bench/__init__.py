"""The repo's one benchmark: ``python -m bench`` (see ``bench/README.md``).

Five fixed-work workloads over the CrashTuner pipeline — two seed-scale
campaigns (replay / snapshot), two 10x-world campaigns, one burst through
the campaign daemon — each timed run in a fresh child process, plus a
traced round that attributes the wall to layers from *outside* the
program: spans around calls into each layer's public functions, a CPU
sampler bucketed by module, and micro-probes of single layers.

``BENCHMARK.json`` at the repo root declares the workloads, the metrics,
their units, directions and regression bounds; this package reads its
declarations from there and measures them.  Nothing under ``src/`` knows
this package exists.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SPEC_PATH = REPO / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: everything the benchmark writes: ledgers, traces, temporary directories
OUT_DIR = BENCH_DIR / "out"
