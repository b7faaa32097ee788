"""YARN client node and the WordCount(+curl) workload of Table 4."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster import Cluster, Node, tracked_dict
from repro.cluster.ids import ApplicationId
from repro.mtlog import get_logger
from repro.systems.base import Workload

LOG = get_logger("yarn.client")


class YarnClient(Node):
    """Submits WordCount jobs and polls the RM web UI ("curl")."""

    role = "client"
    critical = False
    exception_policy = "log"
    default_port = 50100

    results: Dict[ApplicationId, str] = tracked_dict()

    def __init__(self, cluster, name, rm: str = "rm", jobs: int = 1,
                 num_maps: int = 4, num_reduces: int = 1,
                 submit_interval: float = 0.1, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.rm = rm
        self.jobs = jobs
        self.num_maps = num_maps
        self.num_reduces = num_reduces
        self.submit_interval = submit_interval
        self.submitted: List[ApplicationId] = []
        self.web_responses = 0
        # O(1) completion accounting for the workload's per-event stop
        # predicate: plain (untracked) mirrors of accept/result arrivals,
        # so a ten-thousand-job run never rescans the results map.
        self._accepted: set = set()
        self._resulted: set = set()
        self._done: set = set()

    def on_start(self) -> None:
        # Give the NodeManagers a moment to register before submitting.
        for i in range(self.jobs):
            self.set_timer(0.3 + self.submit_interval * i, self._submit)
        self.set_timer(1.0, self._curl, periodic=1.0)

    def _submit(self) -> None:
        LOG.info("Submitting WordCount job ({} maps, {} reduces)", self.num_maps, self.num_reduces)
        self.send(self.rm, "submit_application",
                  num_maps=self.num_maps, num_reduces=self.num_reduces)

    def _curl(self) -> None:
        self.send(self.rm, "web_request")

    def on_application_accepted(self, src: str, app_id: ApplicationId) -> None:
        self.submitted.append(app_id)
        self._accepted.add(app_id)
        self._note_done(app_id)
        LOG.info("Application {} accepted", app_id)

    def on_application_finished(self, src: str, app_id: ApplicationId, status: str) -> None:
        self.results.put(app_id, status)
        self._resulted.add(app_id)
        self._note_done(app_id)
        LOG.info("Application {} finished with status {}", app_id, status)

    def _note_done(self, app_id: ApplicationId) -> None:
        # robust to either arrival order: an app is done once it was both
        # accepted and resolved with a result
        if (app_id in self._accepted and app_id in self._resulted
                and app_id not in self._done):
            self._done.add(app_id)

    def jobs_done(self) -> int:
        """How many accepted applications have a result (O(1))."""
        return len(self._done)

    def on_web_response(self, src: str, apps: List[str], nodes: int) -> None:
        self.web_responses += 1


class WordCountWorkload(Workload):
    """WordCount + curl: the Hadoop2/Yarn row of Table 4."""

    name = "WordCount+curl"

    def __init__(self, jobs: int = 1, num_maps: int = 4, num_reduces: int = 1,
                 submit_interval: float = 0.1):
        self.jobs = jobs
        self.num_maps = num_maps
        self.num_reduces = num_reduces
        self.submit_interval = submit_interval
        self._client: Optional[YarnClient] = None

    def install(self, cluster: Cluster) -> None:
        self._client = YarnClient(
            cluster, "client", jobs=self.jobs,
            num_maps=self.num_maps, num_reduces=self.num_reduces,
            submit_interval=self.submit_interval,
        )

    def finished(self, cluster: Cluster) -> bool:
        client = self._client
        assert client is not None
        # Terminal once every submitted job has a result.  If the RM died
        # (critical abort), no result will ever come: that run hangs, which
        # is exactly the cluster-down symptom.  This is the per-event stop
        # predicate, so it reads the client's O(1) counters rather than
        # rescanning the results map for every simulated event.
        return (len(client.submitted) >= self.jobs
                and client.jobs_done() >= len(client.submitted))

    def succeeded(self, cluster: Cluster) -> bool:
        client = self._client
        assert client is not None
        return self.finished(cluster) and all(
            s == "SUCCEEDED" for s in client.results.snapshot().values()
        )

    def failures(self, cluster: Cluster) -> List[str]:
        client = self._client
        if client is None:
            return ["workload never installed"]
        if not client.submitted:
            return ["no application was ever accepted"]
        out = []
        results = client.results.snapshot()
        for app_id in client.submitted:
            status = results.get(app_id)
            if status is None:
                out.append(f"{app_id}: no result")
            elif status != "SUCCEEDED":
                out.append(f"{app_id}: {status}")
        return out

    def doomed(self, cluster: Cluster) -> bool:
        # only the RM accepts an application and reports its result (the
        # client by name: a read of self._client would be a crash point)
        client = cluster.nodes["client"]
        return (cluster.nodes[client.rm].is_dead()
                and not cluster.network.in_flight(client.rm, client.name))
