"""CampaignConfig cross-field validation and its WAL round trip.

Misconfigurations must fail at construction with one actionable message,
not deep inside the executor — and a config must survive the service's
to_dict/from_dict round trip exactly, because the write-ahead log is how
workers rehydrate what was submitted.
"""

import pytest

from repro.core.injection import CampaignConfig


# ----------------------------------------------------------------------
# single-field domains
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs, fragment", [
    ({"execution": "teleport"}, "execution"),
    ({"point_order": "random"}, "point_order"),
    ({"workers": 0}, "workers"),
    ({"workers": -2}, "workers"),
    ({"wait": -0.5}, "wait"),
    ({"max_points": -1}, "max_points"),
])
def test_bad_field_rejected(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        CampaignConfig(**kwargs)


# ----------------------------------------------------------------------
# cross-field combinations
# ----------------------------------------------------------------------
def test_journal_path_must_be_a_file(tmp_path):
    with pytest.raises(ValueError, match="journal_path"):
        CampaignConfig(journal_path="")
    with pytest.raises(ValueError, match="directory"):
        CampaignConfig(journal_path=str(tmp_path))
    CampaignConfig(journal_path=str(tmp_path / "campaign.jsonl"))


def test_boundary_values_accepted():
    CampaignConfig(wait=0.0, max_points=0, workers=1)


# ----------------------------------------------------------------------
# the WAL round trip
# ----------------------------------------------------------------------
def test_to_dict_from_dict_roundtrip(tmp_path):
    cfg = CampaignConfig(
        wait=2.5, random_fallback=True, classify_timeouts=False,
        max_points=7, seed=42, workers=3,
        journal_path=str(tmp_path / "j.jsonl"), execution="snapshot",
        point_order="novelty",
    )
    rebuilt = CampaignConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg
    # dict form is JSON-able: paths are strings
    import json
    json.dumps(cfg.to_dict())


def test_from_dict_rejects_unknown_keys():
    data = CampaignConfig().to_dict()
    data["warp_speed"] = True
    with pytest.raises(ValueError, match="warp_speed"):
        CampaignConfig.from_dict(data)


@pytest.mark.parametrize("value", [False, True])
def test_from_dict_drops_the_retired_force_workers_key(value):
    # 1.6.0 daemons persisted the knob in their WAL; it never changed
    # outcomes, so a 1.7 reader recovers those service dirs by dropping it
    data = CampaignConfig(workers=3).to_dict()
    assert "force_workers" not in data
    data["force_workers"] = value
    assert CampaignConfig.from_dict(data) == CampaignConfig(workers=3)


@pytest.mark.parametrize("value", [False, True])
def test_from_dict_drops_the_retired_analytics_keys(value):
    # what a 1.10.0 daemon persisted: the flag was strictly post-hoc, the
    # path at its default ordered nothing
    data = CampaignConfig(point_order="novelty").to_dict()
    assert "analytics" not in data and "analytics_path" not in data
    data.update(analytics=value, analytics_path=None)
    assert CampaignConfig.from_dict(data) == CampaignConfig(point_order="novelty")


@pytest.mark.parametrize("value", [0.0, 0.1, 1.0])
def test_from_dict_drops_the_retired_audit_fraction_key(value):
    # what a <= 1.14.0 daemon persisted in its WAL and spool: the size of
    # a verification lane that no longer runs
    data = CampaignConfig(seed=3).to_dict()
    assert "audit_fraction" not in data
    data["audit_fraction"] = value
    assert CampaignConfig.from_dict(data) == CampaignConfig(seed=3)


def test_from_dict_drops_a_persisted_full_point_select():
    # what a <= 1.17.0 daemon persisted: every point ran, as now
    data = CampaignConfig(seed=3).to_dict()
    assert "point_select" not in data and len(data) == 9
    data["point_select"] = "full"
    assert CampaignConfig.from_dict(data) == CampaignConfig(seed=3)


def test_from_dict_rejects_a_persisted_representative_point_select():
    # it ran one point per predicted class: dropping it would run another
    # campaign
    data = dict(CampaignConfig().to_dict(), point_select="representative")
    with pytest.raises(ValueError, match="removed in 1.18.0") as raised:
        CampaignConfig.from_dict(data)
    assert "\n" not in str(raised.value)


def test_from_dict_rejects_a_persisted_analytics_path():
    # it changed the point order, so dropping it would run another campaign
    data = CampaignConfig(point_order="novelty").to_dict()
    data["analytics_path"] = "modes.json"
    with pytest.raises(ValueError, match="analytics_path was removed"):
        CampaignConfig.from_dict(data)


def test_from_dict_revalidates():
    data = CampaignConfig().to_dict()
    data["workers"] = 0
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig.from_dict(data)


def test_replace_revalidates():
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig().replace(workers=0)
