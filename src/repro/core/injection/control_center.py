"""The Control Center (paper Figure 7).

Handles the shutdown/crash RPCs issued by the instrumented crash point:
dedupes (each dynamic crash point is exercised once), queries the online
meta-info store for the target node, and drives the script library —
``Cluster.shutdown_host`` / ``Cluster.crash_host``.

One adaptation, documented in DESIGN.md: a *post-write* injection whose
target is the machine currently executing cannot be a kill -9 delivered
from inside its own instruction stream; the tool uses the shutdown script
for self-targets (this is how the "shutdown during initialization" bugs of
Table 5 were exposed) and an abrupt crash for remote targets, raising
:class:`NodeCrashedError` when the executing process itself dies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.core.injection.online_log import OnlineMetaStore
from repro.errors import NodeCrashedError
from repro.mtlog import get_logger

LOG = get_logger("crashtuner.controlcenter")


@dataclass
class InjectionRecord:
    """What the control center actually did, for reports and tests."""

    kind: str  # "shutdown" | "crash"
    target_host: str
    value: str
    time: float
    killed: List[str] = field(default_factory=list)
    #: the meta-info value the online store resolved to target_host
    #: (empty when the random-node fallback picked the target)
    resolved_value: str = ""
    via_fallback: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InjectionRecord":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


class ControlCenter:
    """Executes at most one fault per test run."""

    def __init__(
        self,
        cluster: Cluster,
        store: Optional[OnlineMetaStore] = None,
        wait: float = 1.0,
        random_fallback: bool = False,
    ):
        self.cluster = cluster
        #: ``None``: empty, for faults whose target no meta-info resolves
        self.store = store if store is not None else OnlineMetaStore(())
        self.wait = wait
        self.random_fallback = random_fallback
        self.injection: Optional[InjectionRecord] = None
        self.unresolved_values: List[str] = []
        self._rng = cluster.random.stream("control-center-fallback")

    # ------------------------------------------------------------------
    def _resolve(
        self, values: List[str], executing: str
    ) -> Tuple[Optional[str], str, bool]:
        """Value -> node, via the online store or the random fallback.

        Returns ``(target_host, resolved_value, via_fallback)``; the
        resolved value is empty when the fallback picked the target.
        """
        for value in values:
            host = self.store.query(value)
            if host is not None:
                return host, value, False
        self.unresolved_values.extend(values)
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter("inject.unresolved_values").inc(len(values))
        if self.random_fallback:
            candidates = [
                n.host for n in self.cluster.nodes.values()
                if n.role != "client" and not n.is_dead()
            ]
            if candidates:
                target = self._rng.choice(sorted(set(candidates)))
                if obs.enabled:
                    obs.metrics.counter("inject.fallback_targets").inc()
                    obs.tracer.event("inject.fallback", target=target,
                                     values=list(values))
                return target, "", True
        return None, "", False

    def deliver(self, kind: str, target: str, values: Sequence[str] = (),
                resolved_value: str = "", via_fallback: bool = False) -> List[str]:
        """Crash (``kind="crash"``) or shut down ``target``'s machine and
        record it as this run's fault; returns the node ids killed."""
        killed = (self.cluster.crash_host if kind == "crash"
                  else self.cluster.shutdown_host)(target)
        self.injection = InjectionRecord(
            kind=kind, target_host=target,
            value=values[0] if values else "", time=self.cluster.loop.now,
            killed=killed, resolved_value=resolved_value,
            via_fallback=via_fallback,
        )
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter(
                "inject.crashes" if kind == "crash" else "inject.shutdowns"
            ).inc()
        return killed

    def shutdown_rpc(self, values: List[str], executing: str) -> bool:
        """Pre-read injection: graceful shutdown of the target + wait."""
        if self.injection is not None:
            return False
        target, resolved_value, via_fallback = self._resolve(values, executing)
        if target is None:
            return False
        LOG.info("CrashTuner shutting down {} (pre-read injection)", target)
        self.deliver("shutdown", target, values, resolved_value, via_fallback)
        # The instrumented wait: the reading thread blocks while the
        # departure is handled by the rest of the cluster.
        self.cluster.loop.pump(self.wait)
        return True

    def crash_rpc(self, values: List[str], executing: str) -> bool:
        """Post-write injection: crash the target."""
        if self.injection is not None:
            return False
        target, resolved_value, via_fallback = self._resolve(values, executing)
        if target is None:
            return False
        executing_host = ""
        if executing and executing in self.cluster.nodes:
            executing_host = self.cluster.nodes[executing].host
        if target == executing_host:
            # Self-target: delivered through the shutdown script (see the
            # module docstring); the write has already happened.
            LOG.info("CrashTuner shutting down {} (post-write self-target)", target)
            self.deliver("shutdown", target, values, resolved_value, via_fallback)
            self.cluster.loop.pump(self.wait)
            return True
        LOG.info("CrashTuner crashing {} (post-write injection)", target)
        if executing in self.deliver("crash", target, values, resolved_value,
                                     via_fallback):
            raise NodeCrashedError(executing)
        return True
