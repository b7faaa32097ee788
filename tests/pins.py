"""The pinned digests, checked without a test runner.

``python -m tests.pins`` runs the default campaign (replay, one worker,
point order) of each bundled system at seeds 0-3 and compares its
``outcome_digest`` to ``tests/data/outcome_digests.json``; then it
compares phase 1's digest at seeds 0-1 to ``tests/data/phase1_digests.json``.
It prints one line per cell and exits 1 on any miss.  It imports neither
pytest nor the suite's ``conftest``, so any interpreter the package runs
on can check the pins (CI's ``tier1`` legs run it after pytest).

Under an outcome miss it also prints the cell's manifest
(:func:`manifest`): one line per outcome row, each field digested on its
own, so that the output of two interpreters diffs to the point and field
that moved.
"""

import hashlib
import json
import platform
import sys
from dataclasses import asdict
from pathlib import Path

from repro.bugs import matcher_for_system
from repro.core.analysis import point_key
from repro.core.injection import CampaignConfig, outcome_digest, run_campaign
from repro.core.pipeline import prepare
from repro.systems import bundled_systems, get_system

DATA = Path(__file__).parent / "data"
OUTCOME_SEEDS = (0, 1, 2, 3)
PHASE1_SEEDS = (0, 1)


def phase1_digest(analysis) -> str:
    """sha256[:16] over what the static stage decided for one system."""
    crash = analysis.crash
    provenance = analysis.engine.provenance
    payload = {
        "crash_points": sorted(
            (asdict(p) for p in crash.crash_points),
            key=lambda d: json.dumps(d, sort_keys=True)),
        "chains": sorted(provenance.chain_for(point_key(p))
                         for p in crash.crash_points),
        "points": [asdict(p) for p in analysis.extraction.points],
        "call_sites": sorted([list(key), sites] for key, sites
                             in analysis.extraction.call_sites.items()),
        "pruning": [crash.pruned_constructor, crash.pruned_unused,
                    crash.pruned_sanity, crash.promoted],
        "meta_types": sorted(analysis.meta.types),
        "meta_fields": sorted(analysis.meta.fields),
        "engine": analysis.engine.stats,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def manifest(outcomes) -> list:
    """One line per outcome row: its index, ``describe()``, and a digest of
    each field of ``to_dict()`` that ``outcome_digest`` covers — the keys of
    ``verdict`` and ``diagnosis`` one level down."""
    lines = []
    for index, outcome in enumerate(outcomes):
        data = outcome.to_dict()
        data.pop("wall_seconds")
        fields = []
        for key, value in sorted(data.items()):
            if key in ("verdict", "diagnosis") and isinstance(value, dict):
                fields += [f"{key}.{sub}={_digest(value[sub])}"
                           for sub in sorted(value)]
            else:
                fields.append(f"{key}={_digest(value)}")
        lines.append(f"  {index:>3}  {outcome.dpoint.describe()}  "
                     + " ".join(fields))
    return lines


def main() -> int:
    outcome_pins = json.loads((DATA / "outcome_digests.json").read_text())
    phase1_pins = json.loads((DATA / "phase1_digests.json").read_text())
    print(f"python {platform.python_version()}")
    print(f"{'system':<10} {'seed':>4}  {'what':<7} {'pinned':<16}  "
          f"{'got':<16}  equal")
    misses = 0
    for name in (system.name for system in bundled_systems()):
        system = get_system(name)
        for seed in OUTCOME_SEEDS:
            analysis, profile, baseline = prepare(system, seed)
            outcomes = run_campaign(
                system, analysis, profile.dynamic_points,
                campaign=CampaignConfig(seed=seed), baseline=baseline,
                matcher=matcher_for_system(name)).outcomes
            cells = [("outcome", outcome_pins[name][str(seed)],
                      outcome_digest(outcomes))]
            if seed in PHASE1_SEEDS:
                cells.append(("phase1", phase1_pins[name][str(seed)],
                              phase1_digest(analysis)))
            for what, pinned, got in cells:
                misses += got != pinned
                print(f"{name:<10} {seed:>4}  {what:<7} {pinned:<16}  "
                      f"{got:<16}  {'yes' if got == pinned else 'NO'}",
                      flush=True)
                if what == "outcome" and got != pinned:
                    print("\n".join(manifest(outcomes)), flush=True)
    print(f"{misses} miss(es)")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
