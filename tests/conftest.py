"""Shared fixtures and helpers for the test suite."""

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.bugs import matcher_for_system
from repro.cluster.state import BUS
from repro.core.analysis import analyze_system
from repro.core.injection import (
    CampaignConfig,
    build_baseline,
    run_campaign,
    run_one_injection,
)
from repro.core.profiler import profile_system
from repro.obs import Observability
from repro.systems import get_system

#: system -> {seed -> outcome_digest} of the default campaign at seeds
#: 0-3; a PR that means to move an outcome edits the file
PINS: Dict[str, Dict[int, str]] = {
    name: {int(seed): digest for seed, digest in by_seed.items()}
    for name, by_seed in json.loads(
        (Path(__file__).parent / "data" / "outcome_digests.json").read_text()
    ).items()
}

#: yarn's first nine points hold no hang: journal and pool mechanics run
#: on them in milliseconds, and leave the hang extension of point 9 to the
#: full campaigns of the matrix in test_outcome_identity.py
N_CHEAP = 9

_CACHE: Dict[Tuple[str, Any], Tuple] = {}
_REFERENCES: Dict[Tuple[str, bool, Optional[int], int], Any] = {}


def _config_key(config: Optional[Dict[str, Any]]) -> Any:
    if not config:
        return None
    return tuple(sorted((k, tuple(sorted(v)) if isinstance(v, (set, frozenset)) else v)
                        for k, v in config.items()))


def prepared(system_name: str, config: Optional[Dict[str, Any]] = None,
             seed: int = 0):
    """(system, analysis, profile, baseline) for a config and phase-1
    seed, cached per session."""
    key = (system_name, _config_key(config), seed)
    if key not in _CACHE:
        system = get_system(system_name)
        analysis = analyze_system(system, seed=seed, config=config)
        profile = profile_system(system, analysis, seed=seed, config=config)
        baseline = build_baseline(system, config=config)
        _CACHE[key] = (system, analysis, profile, baseline)
    return _CACHE[key]


def campaign(system_name: str, n_points: Optional[int] = None, points=None,
             setup=None, obs=None, on_outcome=None, **knobs):
    """One campaign over the first ``n_points`` profiled points (or
    ``points``) of ``prepared(system_name)`` — or of ``setup``, another
    (analysis, profile, baseline); ``knobs`` are CampaignConfig fields."""
    system = get_system(system_name)
    analysis, profile, baseline = setup or prepared(system_name)[1:]
    if points is None:
        points = profile.dynamic_points[:n_points]
    return run_campaign(
        system, analysis, points, campaign=CampaignConfig(**knobs),
        baseline=baseline, matcher=matcher_for_system(system_name), obs=obs,
        on_outcome=on_outcome,
    )


def reference(system_name: str, traced: bool = False,
              n_points: Optional[int] = None, seed: int = 0):
    """The default campaign (replay, one worker, point order) at ``seed``
    over the first ``n_points`` points, run once per session: plain, the
    ``CampaignResult`` (``PINS[system][seed]`` pins the uncapped one);
    traced, ``(result, obs)``."""
    key = (system_name, traced, n_points, seed)
    if key not in _REFERENCES:
        obs = Observability() if traced else None
        result = campaign(system_name, n_points, obs=obs, seed=seed,
                          setup=prepared(system_name, seed=seed)[1:])
        _REFERENCES[key] = (result, obs) if traced else result
    return _REFERENCES[key]


def outcome_dicts(result):
    """A campaign's outcomes as dicts, wall-clock stripped."""
    dicts = [o.to_dict() for o in result.outcomes]
    for d in dicts:
        d.pop("wall_seconds")
    return dicts


def span_dicts(obs):
    """A traced campaign's spans as dicts, wall-clock-dependent attrs
    (``wall_seconds``, the pool width) stripped."""
    spans = [span.to_dict() for span in obs.tracer.spans]
    for span in spans:
        for attr in ("wall_seconds", "workers"):
            span.get("attrs", {}).pop(attr, None)
    return spans


def find_dpoints(profile, enclosing_frag: str, field: Optional[str] = None,
                 op: Optional[str] = None, via: Optional[str] = None):
    out = []
    for dpoint in profile.dynamic_points:
        point = dpoint.point
        if enclosing_frag not in point.enclosing:
            continue
        if field is not None and point.field_name != field:
            continue
        if op is not None and point.op != op:
            continue
        if via is not None and point.via != via:
            continue
        out.append(dpoint)
    return out


def inject_at(
    system_name: str,
    enclosing_frag: str,
    field: Optional[str] = None,
    op: Optional[str] = None,
    via: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    classify_timeouts: bool = True,
):
    """Run one CrashTuner injection at the (unique) matching dynamic point."""
    system, analysis, profile, baseline = prepared(system_name, config)
    dpoints = find_dpoints(profile, enclosing_frag, field=field, op=op, via=via)
    assert dpoints, f"no dynamic crash point matching {enclosing_frag}/{field}/{op}"
    return run_one_injection(
        system, analysis, dpoints[0], baseline, config=config,
        campaign=CampaignConfig(classify_timeouts=classify_timeouts),
        matcher=matcher_for_system(system_name),
    )


@pytest.fixture(autouse=True)
def _clean_access_bus():
    """No test may leak hooks into the global bus."""
    yield
    assert not BUS.enabled, "a test leaked access-bus hooks"
    BUS.reset()
