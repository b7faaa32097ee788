"""``python -m bench`` — the single command of the benchmark.

::

    python -m bench [--rounds N] [--seed S] [--out FILE]   all workloads + traced round
    python -m bench --workload W --seed S --seconds T --trace 0|1   one run, JSON last line
    python -m bench --compare A.json B.json                two ledgers, verdict per metric
    python -m bench --selftest                             shrunken sizes, < 30 s
    python -m bench --write-expected                       re-pin bench/expected.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import OUT_DIR, REPO, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and print one result")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the inputs' order (ledger: seed of round 1)")
    parser.add_argument("--seconds", type=float,
                        help="least timed-region seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced round, per-layer metrics")
    parser.add_argument("--rounds", type=int, default=5,
                        help="ledger: untraced rounds over all workloads")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "ledger.json",
                        help="ledger: where the result set is written")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--child", choices=("run", "setup", "probes"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"bench: {REPO / 'src' / 'repro'} is missing — there is "
              f"no program to measure", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(REPO / "src"))
        from bench import child

        return child.main(args.child, args.workload, args.seed,
                          bool(args.trace), args.small)
    try:
        spec = runner.load_spec()
        if args.compare:
            return runner.compare(spec, *args.compare)
        if args.selftest:
            from bench import selftest

            return selftest.main(spec)
        if args.write_expected:
            return runner.write_expected(spec)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload:
            result = runner.measure(spec, args.workload, args.seed, seconds,
                                    bool(args.trace))
            runner.print_result(result)
            return 0 if result["correct"] else 1
        return runner.ledger(spec, args.rounds, args.seed, seconds, args.out)
    except runner.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
