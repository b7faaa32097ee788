"""One definition of "same suffix", used predicted and actual.

A campaign's dynamic crash points are heavily redundant: many distinct
<P, Context> tuples, once armed, deliver the *same* fault — same target
host, same action, same simulated instant — into the same deterministic
world, and therefore run the same suffix to the same verdict and the
same matched bugs.  :func:`fire_signature` says when two fires are the
same, and it has two uses:

* **predicted** — :func:`class_signature` applies it to the profiler's
  fire prediction (:class:`~repro.core.profiler.DynamicCrashPoint`
  ``fire_*`` fields: the injection the campaign will deliver, resolved
  through a live meta-info store at profile time), and
  :func:`build_classes` partitions the point list on it, so the executor
  can run one representative per class and propagate its outcome to the
  rest (``CampaignConfig(point_select="representative")``);
* **actual** — :func:`suffix_key` applies it to the injection a replay
  run really performed, plus the ordinal of the dispatched event the
  point fired in, so a replay campaign computes each distinct suffix
  once (DESIGN.md "Suffix reuse").  The runs of one campaign share seed,
  config and, per scale, the injection-free prefix, so one ordinal is
  one handler invocation of one world: the key is strictly finer than
  the class, never coarser.

A signature is only as wide as the argument that fires under it behave
alike:

* kind ``"none"`` — no meta-info value resolves at the access, so the
  trigger fires but injects nothing; the run is the injection-free run of
  its scale whenever that happened: one signature per scale, no
  ordinal;
* ``"crash"`` — a crash is instantaneous and never pumps the event
  loop, and it always hits a node other than the executing one (a
  post-write self-target is downgraded to a shutdown).  The handler runs
  on to its end at the same simulated instant, and whatever it sends is
  delivered at least ``min_latency`` later, so whether a send precedes
  or follows the crash inside the handler is unobservable: the
  post-injection world is a function of (scale, target, exact fire
  time) alone, position-free.  A crash that kills the executing node
  itself (``NodeCrashedError``) cuts the handler short where it stands,
  so it has a position and gets no key;
* ``"shutdown"`` — the control center's shutdown RPC pumps ``wait``
  simulated seconds *inside* the interrupted handler (pre-read, and
  post-write self-target), so the rest of the world runs on while the
  handler is suspended mid-statement, and *which* statement matters even
  when the target is remote.  The static token namespace
  (:func:`repro.obs.features.point_tokens`: meta-info field, access op,
  bounded stack suffix, location, lane) joins the fire-event base.

The fire time is compared exactly: the network separates two deliveries
on one channel by ``1e-9``, so any rounding merges distinct events.
The argument is checked where it can be, exhaustively and off the run
path: ``tests/test_representative_campaign.py`` holds every class of
every seeded system behavior-homogeneous in the full campaign,
``tests/test_suffix_reuse.py`` holds every reusing campaign to the same
campaign run without reuse, and CI sweeps both over six systems and
eight seeds (DESIGN.md publishes the tables).

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


def fire_signature(scale: int, kind: str, target: str, time: float,
                   dpoint) -> Tuple:
    """What a fire of ``dpoint`` delivering ``kind`` to ``target`` at
    ``time`` leaves behind, as far as the module's argument can tell."""
    if kind == "none":
        return ("none", scale)
    base = ("fire", scale, target, kind, time)
    if kind == "shutdown":
        return base + tuple(sorted(point_tokens(dpoint)))
    return base


def class_signature(dpoint) -> Tuple:
    """The predicted-behavior signature of one dynamic crash point."""
    if not dpoint.fire_kind:
        return ("unknown",) + dpoint.key()
    return fire_signature(dpoint.scale, dpoint.fire_kind, dpoint.fire_target,
                          dpoint.fire_time, dpoint)


def suffix_key(dpoint, injection, ordinal: int) -> Tuple:
    """The actual-behavior signature of one fire of ``dpoint``.

    ``injection`` is the :class:`~repro.core.injection.control_center.
    InjectionRecord` the fire produced (``None``: nothing resolved) and
    ``ordinal`` the dispatched event it fired in.
    """
    if injection is None:
        return fire_signature(dpoint.scale, "none", "", 0.0, dpoint)
    return fire_signature(dpoint.scale, injection.kind, injection.target_host,
                          injection.time, dpoint) + (ordinal,)


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
