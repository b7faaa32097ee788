"""System-under-test interface and the single-run harness.

Every simulated system (YARN, HDFS, HBase, ZooKeeper, Cassandra, and the
mini-Kubernetes of Section 4.4) implements :class:`SystemUnderTest`, which
gives CrashTuner everything Table 4 lists: how to deploy a cluster, the
default workload, and — because our "static analysis" runs over Python
source — which modules constitute the system's code.

:func:`run_workload` is the shared one-run driver used by profiling, fault
injection, the baselines, and plain testing: build cluster, install
workload, run to completion or deadline, return a :class:`RunReport`.
"""

from __future__ import annotations

import abc
import functools
import gc
import time as _wallclock
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.cluster import Cluster
from repro.mtlog import LogCollector
from repro.mtlog.records import render_exc
from repro.obs.context import get_obs


class Workload(abc.ABC):
    """A driver that exercises a running cluster and knows when it is done."""

    name: str = "workload"

    @abc.abstractmethod
    def install(self, cluster: Cluster) -> None:
        """Create client node(s) and schedule the job submissions."""

    @abc.abstractmethod
    def finished(self, cluster: Cluster) -> bool:
        """True once the workload reached a terminal state (pass or fail)."""

    def doomed(self, cluster: Cluster) -> bool:
        """True only if no event the run can still process can make
        :meth:`finished` true (nodes never restart); a doomed hang is not
        driven past its deadline."""
        return False

    @abc.abstractmethod
    def succeeded(self, cluster: Cluster) -> bool:
        """True if the terminal state is success."""

    def failures(self, cluster: Cluster) -> List[str]:
        """Human-readable failure descriptions (empty on success)."""
        return []


class SystemUnderTest(abc.ABC):
    """One of the distributed systems CrashTuner tests (Table 4)."""

    #: short name, e.g. "yarn"
    name: str = "system"
    #: display version, mirroring Table 4's "Latest Version" column
    version: str = "0.0.0-SNAPSHOT"
    #: display workload name, mirroring Table 4's "Workload" column
    workload_name: str = "workload"
    #: heavy-traffic multiplier (DESIGN.md "Scale kernel"): 1 is the seed
    #: world; systems with generators (yarn, hbase) accept it in their
    #: constructor and widen the cluster / square the offered load
    world_scale: int = 1

    @abc.abstractmethod
    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        """Deploy a fresh cluster (nodes created, not yet started)."""

    @abc.abstractmethod
    def create_workload(self, scale: int = 1) -> Workload:
        """The system's default workload at a given size multiplier."""

    @abc.abstractmethod
    def source_modules(self) -> List[ModuleType]:
        """The modules that make up this system's code, for static analysis."""

    @abc.abstractmethod
    def base_runtime(self) -> float:
        """Expected clean-run duration in simulated seconds (workload scale 1).

        The injection campaign derives its hang deadline from this, using
        the paper's default threshold of 4x one run (Section 4.1.3).
        """

    @abc.abstractmethod
    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        """The longest wait this system configured that no
        :class:`~repro.cluster.LivenessMonitor` carries, in simulated
        seconds, derived from the same ``config`` keys its code reads.

        Two kinds of wait belong here: guards scanned by a chore
        (``expiry + scan period``) and bounded retry budgets *in full*
        (``limit x step``).  The injection campaign drives a flagged
        hang until the system has outlived this and every monitor
        (``Cluster.longest_guard``) with no recovery activity — past
        that, nothing the system set up can still turn the hang into a
        completion.  A system all of whose waits are monitors says so
        by returning 0; an unbounded loop is not a wait.
        """


@dataclass
class RunReport:
    """Everything observable from one cluster run, for oracles and tables."""

    system: str
    seed: int
    completed: bool
    succeeded: bool
    duration: float  # simulated seconds until terminal state (or deadline)
    deadline: float
    wall_seconds: float
    failures: List[str] = field(default_factory=list)
    aborts: List[str] = field(default_factory=list)  # "node:ExcType: msg"
    critical_aborts: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    shutdown_nodes: List[str] = field(default_factory=list)
    log: Optional[LogCollector] = None
    cluster: Optional[Cluster] = None

    @property
    def hang(self) -> bool:
        """The workload never reached a terminal state before the deadline."""
        return not self.completed

    @property
    def job_failure(self) -> bool:
        return self.completed and not self.succeeded


def run_workload(
    system: SystemUnderTest,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    scale: int = 1,
    deadline: Optional[float] = None,
    deadline_factor: float = 4.0,
    before_run: Optional[Callable[[Cluster, Workload], None]] = None,
    keep_cluster: bool = True,
    cooldown: float = 0.0,
    extend: Optional[Callable[[RunReport], Optional[float]]] = None,
) -> RunReport:
    """Run one workload to completion or deadline and report.

    Args:
        system: the system under test.
        seed: RNG seed; a (system, seed, config, injection) tuple is fully
            deterministic.
        config: cluster config; notably ``patched_bugs``.
        scale: workload size multiplier (the profiler doubles this).
        deadline: absolute simulated-time budget; defaults to
            ``base_runtime * deadline_factor * scale`` (paper: 4x one run).
        before_run: hook called after install, before driving — this is
            where fault-injection arms itself.
        keep_cluster: attach the cluster/logs to the report (disable for
            bulk campaigns that only need verdicts).
        extend: the continuation seam, consulted each time a deadline
            passes with the workload unfinished, not doomed, until it returns
            ``None``: given the report as it stands at that deadline it
            returns a later absolute deadline — the *same* cluster is
            then driven on to it — or ``None`` to stop there.  A return
            that is not strictly later than the deadline just reached
            ends the extension too.  This is how the injection campaign
            gives a flagged hang more time (paper Section 4.1.3) without
            a second run.
    """
    if deadline is None:
        deadline = system.base_runtime() * deadline_factor * max(1, scale)
    # bare callers get a paused run; pipeline callers read the report
    # inside their own scope, which frees the world it keeps
    with world_scope():
        return _run_workload(
            system, seed, config, scale, deadline, before_run, keep_cluster,
            cooldown, extend,
        )


@contextmanager
def world_scope() -> Iterator[None]:
    """Pause the cycle collector; on exit, free the world the scope built.

    A world is a web of reference cycles (nodes, handlers, log records)
    only the collector frees; a run's churn is acyclic.  Collections in a
    run would rescan every live record and event, and one that finds a
    world still referenced promotes it beyond all but a full pass.  So a
    pipeline run reads its report in one scope, and only world-free
    values leave it (DESIGN.md "A run's world is freed when that run
    returns"): the exit's young-generation pass frees that world, on that
    run's clock.  A no-op if the collector is off (host or outer scope).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(0)


def _run_workload(
    system: SystemUnderTest,
    seed: int,
    config: Optional[Dict[str, Any]],
    scale: int,
    deadline: float,
    before_run: Optional[Callable[[Cluster, Workload], None]],
    keep_cluster: bool,
    cooldown: float,
    extend: Optional[Callable[[RunReport], Optional[float]]],
) -> RunReport:
    wall_start = _wallclock.perf_counter()
    cluster = system.build(seed=seed, config=config)
    workload = system.create_workload(scale)

    finished = functools.partial(workload.finished, cluster)

    def report(deadline: float, completed: bool, succeeded: bool,
               finish_time: float) -> RunReport:
        return RunReport(
            system=system.name,
            seed=seed,
            completed=completed,
            succeeded=succeeded,
            duration=finish_time if completed else deadline,
            deadline=deadline,
            wall_seconds=_wallclock.perf_counter() - wall_start,
            failures=list(workload.failures(cluster)),
            aborts=[f"{n}:{render_exc(e)}" for (_, n, e) in cluster.aborts],
            critical_aborts=[
                f"{n}:{render_exc(e)}" for (_, n, e) in cluster.critical_aborts()
            ],
            crashed_nodes=[n for (_, n) in cluster.crashes],
            shutdown_nodes=[n for (_, n) in cluster.shutdowns],
            log=cluster.log_collector if keep_cluster else None,
            cluster=cluster if keep_cluster else None,
        )

    with cluster:
        with get_obs().tracer.span(
            "workload", system=system.name, workload=workload.name,
            seed=seed, scale=scale,
        ) as span:
            workload.install(cluster)
            if before_run is not None:
                before_run(cluster, workload)
            cluster.start_all()
            cluster.run(until=deadline, stop_when=finished)
            budget, consults = deadline, 0
            while extend is not None and not finished():
                if workload.doomed(cluster):
                    # it cannot finish: judged at its deadline, as a true hang
                    span.set(doomed=True)
                    break
                consults += 1
                later = extend(report(deadline, False, False, deadline))
                if later is None or later <= deadline:
                    break
                # one timeline: the run that just missed its deadline
                # *is* the prefix of the longer run, so keep driving it
                deadline = later
                cluster.run(until=deadline, stop_when=finished)
            if deadline > budget:
                span.set(extended_until=deadline, extension_consults=consults)
            completed = finished()
            succeeded = completed and workload.succeeded(cluster)
            finish_time = cluster.loop.now
            span.set(completed=completed, succeeded=succeeded)
        if completed and cooldown > 0.0:
            # Let delayed symptoms surface (stale timers, leak auditors):
            # a test run observes the cluster for a grace period after the
            # workload completes, exactly as a tester tails the logs.
            cluster.run(until=finish_time + cooldown)
            succeeded = workload.succeeded(cluster)
        return report(deadline, completed, succeeded, finish_time)
