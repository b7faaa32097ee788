"""Equivalence classes over dynamic crash points (representative execution).

A campaign's dynamic crash points are heavily redundant: many distinct
<P, Context> tuples, once armed, deliver the *same* fault — same target
host, same action, same simulated instant — into the same deterministic
world, and therefore produce the same verdict and the same matched bugs.
This module partitions a campaign's point list into equivalence classes
keyed on the **predicted-behavior signature**, so the executor can run
one representative per class and propagate its outcome to the rest
(``CampaignConfig(point_select="representative")``).

The signature is built from the profiler's fire prediction
(:class:`~repro.core.profiler.DynamicCrashPoint` ``fire_*`` fields — the
injection the campaign will deliver, resolved through a live meta-info
store at profile time), and a class is only as wide as the argument that
its members behave alike:

* ``fire_kind == ""`` — the point predates fire prediction (or none was
  possible): nothing is known about its behavior, so it is its own
  singleton class (full identity signature);
* ``fire_kind == "none"`` — no meta-info value resolves at the access,
  so the trigger fires but injects nothing; every such point replays the
  injection-free baseline run of its scale, one class per scale;
* ``fire_kind == "crash"`` — a crash is instantaneous and never pumps
  the event loop, and it always hits a node other than the executing one
  (a post-write self-target is downgraded to a shutdown).  The handler
  runs on to its end at the same simulated instant, and whatever it
  sends is delivered at least ``min_latency`` later, so whether a send
  precedes or follows the crash inside the handler is unobservable: the
  post-injection world is a function of (scale, target, exact fire
  time) alone, position-free;
* ``fire_kind == "shutdown"`` — the control center's shutdown RPC pumps
  ``wait`` simulated seconds *inside* the interrupted handler (pre-read,
  and post-write self-target), so the rest of the world runs on while
  the handler is suspended mid-statement, and *which* statement matters
  even when the target is remote.  The static token namespace
  (:func:`repro.obs.features.point_tokens`: meta-info field, access op,
  bounded stack suffix, location, lane) joins the fire-event base.

``fire_time`` is compared exactly: the network separates two deliveries
on one channel by ``1e-9``, so any rounding merges distinct events.
The argument is checked where it can be, exhaustively and off the run
path: ``tests/test_representative_campaign.py`` holds every class of
every seeded system behavior-homogeneous in the full campaign, and CI
sweeps six systems over eight seeds (DESIGN.md publishes the table).

Everything here is deterministic and input-order independent: class ids
are content digests of the signature, the representative is the member
with the minimal :meth:`DynamicCrashPoint.key`, and members are kept in
key order — the property suite pins permutation invariance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.obs.features import point_tokens


def class_signature(dpoint) -> Tuple:
    """The predicted-behavior signature of one dynamic crash point."""
    if not dpoint.fire_kind:
        return ("unknown",) + dpoint.key()
    if dpoint.fire_kind == "none":
        return ("none", dpoint.scale)
    base = ("fire", dpoint.scale, dpoint.fire_target, dpoint.fire_kind,
            dpoint.fire_time)
    if dpoint.fire_kind == "shutdown":
        return base + tuple(sorted(point_tokens(dpoint)))
    return base


@dataclass(frozen=True)
class PointClass:
    """One equivalence class: members are indices into the point list."""

    class_id: str
    signature: Tuple
    #: member indices, ordered by their point's ``key()``
    members: Tuple[int, ...]
    #: the member with the minimal ``key()`` — the one that executes
    representative: int


@dataclass
class SelectionPlan:
    """What a representative-mode campaign executes, and for whom."""

    classes: List[PointClass]
    #: point index -> class id, for every point
    class_of: Dict[int, str]
    representatives: List[int]
    #: content digest of the whole assignment (journal meta pin): class
    #: ids, membership and representative choices, all named by point
    #: *key* so the digest is input-order independent.  Resuming a
    #: journal under a drifted assignment (changed signature or point
    #: list) must mismatch rather than silently mix plans.
    plan_digest: str = ""

    def digest(self) -> str:
        return self.plan_digest


def build_classes(points: Sequence) -> SelectionPlan:
    """Partition ``points`` into equivalence classes.

    Deterministic for any input order of ``points``.
    """
    groups: Dict[Tuple, List[int]] = {}
    for i, dpoint in enumerate(points):
        groups.setdefault(class_signature(dpoint), []).append(i)

    classes: List[PointClass] = []
    for signature, members in groups.items():
        members = sorted(members, key=lambda i: points[i].key())
        classes.append(PointClass(
            class_id=hashlib.sha256(
                repr(signature).encode("utf-8")
            ).hexdigest()[:12],
            signature=signature,
            members=tuple(members),
            representative=members[0],
        ))
    classes.sort(key=lambda cls: cls.class_id)
    parts = [
        (
            cls.class_id,
            tuple(repr(points[i].key()) for i in cls.members),
            repr(points[cls.representative].key()),
        )
        for cls in classes
    ]
    return SelectionPlan(
        classes=classes,
        class_of={i: cls.class_id for cls in classes for i in cls.members},
        representatives=[cls.representative for cls in classes],
        plan_digest=hashlib.sha256(
            repr(parts).encode("utf-8")
        ).hexdigest()[:16],
    )
