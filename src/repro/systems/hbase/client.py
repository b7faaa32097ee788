"""HBase client node and the PE(+curl) workload of Table 4."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster, Node, tracked_dict
from repro.cluster.ids import RegionInfo, ServerName
from repro.sim import stable_hash
from repro.mtlog import get_logger
from repro.systems.base import Workload

LOG = get_logger("hbase.client")


class HBaseClient(Node):
    """PerformanceEvaluation-style random writes/reads + master UI polls."""

    role = "client"
    critical = False
    exception_policy = "log"
    default_port = 50400

    op_status: Dict[str, str] = tracked_dict()  # row -> PUT/VERIFIED/FAILED

    def __init__(self, cluster, name, master: str = "hmaster", num_rows: int = 8,
                 rolling_stop: str = "node3", put_interval: float = 0.05, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.master = master
        self.num_rows = num_rows
        self.rolling_stop = rolling_stop
        self.put_interval = put_interval
        self.phase = 1  # 1 = initial PE pass, 2 = re-verify after rolling stop
        self.web_responses = 0
        self._assignments: List[Tuple[RegionInfo, ServerName]] = []
        self._retries: Dict[str, int] = {}
        # O(1) status accounting mirrored on every op_status write, so the
        # workload's per-event stop predicate and the roll check never
        # rescan tens of thousands of row statuses.
        self.status_rows = 0
        self.verified_rows = 0
        self.failed_rows = 0
        # PE keeps hammering a stuck region for a long time (the paper's
        # HBase timeout issue needs the workload to outlive the 10-minute
        # assignment chore, not fail fast).
        self._retry_limit = cluster.config.get("hbase.client_retries", 1500)

    def on_start(self) -> None:
        self.set_timer(0.3, self._locate)
        self.set_timer(1.0, self._curl, periodic=1.0)

    def _curl(self) -> None:
        self.send(self.master, "web_request")

    def on_web_response(self, src: str, servers: int, regions: int) -> None:
        self.web_responses += 1

    def _locate(self) -> None:
        self.send(self.master, "locate_regions")

    def _set_status(self, row: str, status: str) -> None:
        """Write a row's status through the tracked map, keeping counts.

        The tracked ``put`` (and its access-event emission) is unchanged;
        the counters ride on its returned previous value.
        """
        old = self.op_status.put(row, status)
        if old is None:
            self.status_rows += 1
        elif old == "VERIFIED":
            self.verified_rows -= 1
        elif old == "FAILED":
            self.failed_rows -= 1
        if status == "VERIFIED":
            self.verified_rows += 1
        elif status == "FAILED":
            self.failed_rows += 1

    def on_region_map(self, src: str, assignments: List[Tuple[RegionInfo, ServerName]]) -> None:
        if not assignments:
            self.set_timer(0.5, self._locate)
            return
        self._assignments = sorted(assignments, key=lambda a: str(a[0]))
        if self.status_rows == 0:
            for i in range(self.num_rows):
                row = f"row{i:04d}"
                self._set_status(row, "PUTTING")
                self.set_timer(self.put_interval * i, self._put, row)

    def _region_for(self, row: str) -> Optional[Tuple[RegionInfo, ServerName]]:
        if not self._assignments:
            return None
        index = stable_hash(row) % len(self._assignments)
        return self._assignments[index]

    def _put(self, row: str) -> None:
        placement = self._region_for(row)
        if placement is None:
            self._retry(row, "no region map")
            return
        region, server = placement
        if server is None:
            self._retry(row, f"region {region} has no open location")
            return
        self.send(server.host, "put", region=region, row=row, value=f"value-{row}")
        self.set_timer(2.0, self._check_progress, row)

    def on_put_ok(self, src: str, row: str) -> None:
        if self.op_status.get(row) != "PUTTING":
            return
        self._set_status(row, "GETTING")
        placement = self._region_for(row)
        if placement is None or placement[1] is None:
            self._retry(row, "no region map")
            return
        region, server = placement
        self.send(server.host, "get", region=region, row=row)

    def on_get_ok(self, src: str, row: str, value: Optional[str]) -> None:
        if self.op_status.get(row) != "GETTING":
            return
        if value != f"value-{row}":
            self._retry(row, f"wrong value {value!r}")
            return
        self._set_status(row, "VERIFIED")
        self._maybe_roll()

    def _maybe_roll(self) -> None:
        """After the first full PE pass, gracefully stop one region server
        (rolling maintenance) and re-verify every row — the pass that
        exercises the ServerCrashProcedure in every clean run."""
        if self.phase != 1:
            return
        if self.status_rows < self.num_rows or self.verified_rows != self.status_rows:
            return
        self.phase = 1.5
        LOG.info("PE pass 1 done; rolling restart of {}", self.rolling_stop)
        self.send(self.rolling_stop, "graceful_stop")
        self.set_timer(1.0, self._reverify)

    def _reverify(self) -> None:
        self._retries.clear()
        self._locate()
        for i, row in enumerate(sorted(self.op_status.snapshot())):
            self._set_status(row, "PUTTING")
            self.set_timer(0.3 + 0.4 * self.put_interval * i, self._put, row)
        self.phase = 2

    def on_op_error(self, src: str, row: str, reason: str) -> None:
        if self.op_status.get(row) in ("PUTTING", "GETTING"):
            self._retry(row, reason)

    def _check_progress(self, row: str) -> None:
        if self.op_status.get(row) in ("PUTTING", "GETTING"):
            self._retry(row, "operation stalled")

    def _retry(self, row: str, why: str) -> None:
        if self.op_status.get(row) in ("VERIFIED", "FAILED"):
            return
        retries = self._retries.get(row, 0) + 1
        self._retries[row] = retries
        if retries > self._retry_limit:
            self._set_status(row, "FAILED")
            LOG.error("PE op for {} failed permanently: {}", row, why)
            return
        LOG.warn("Retrying PE op for {} ({}); relocating regions", row, why)
        self._set_status(row, "PUTTING")
        self._locate()
        self.set_timer(2.0, self._put, row)


class PEWorkload(Workload):
    """PerformanceEvaluation + curl: the HBase row of Table 4."""

    name = "PE+curl"

    def __init__(self, num_rows: int = 8, put_interval: float = 0.05):
        self.num_rows = num_rows
        self.put_interval = put_interval
        self._client: Optional[HBaseClient] = None

    def install(self, cluster: Cluster) -> None:
        self._client = HBaseClient(cluster, "client", num_rows=self.num_rows,
                                   put_interval=self.put_interval)

    def _statuses(self) -> Dict[str, str]:
        assert self._client is not None
        return self._client.op_status.snapshot()

    def finished(self, cluster: Cluster) -> bool:
        # The per-event stop predicate: reads the client's O(1) status
        # counters instead of snapshotting every row status per event.
        client = self._client
        assert client is not None
        if client.status_rows < self.num_rows:
            return False
        if client.failed_rows > 0:
            return True
        return client.phase == 2 and client.verified_rows == client.status_rows

    def succeeded(self, cluster: Cluster) -> bool:
        client = self._client
        assert client is not None
        return (self.finished(cluster) and client.failed_rows == 0
                and client.verified_rows == client.status_rows)

    def failures(self, cluster: Cluster) -> List[str]:
        statuses = self._statuses()
        if not statuses:
            return ["no PE operation ever started (region map unavailable)"]
        assert self._client is not None
        out = [f"{r}: {s}" for r, s in sorted(statuses.items()) if s != "VERIFIED"]
        if not out and self._client.phase != 2:
            out.append("rolling-restart re-verification never completed")
        return out

    def doomed(self, cluster: Cluster) -> bool:
        # rows are created only from a region map, which only the master
        # sends; once rows exist, their retries can still end the run
        client = cluster.nodes["client"]
        return (client.status_rows == 0
                and cluster.nodes[client.master].is_dead()
                and not cluster.network.in_flight(client.master, client.name))
