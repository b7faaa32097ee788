"""The ZooKeeper system-under-test definition (Table 4, row 4)."""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.zookeeper.client import SmokeTestWorkload
from repro.systems.zookeeper.server import ZKServer


class ZooKeeperSystem(SystemUnderTest):
    """Cluster synchronization service ZooKeeper."""

    name = "zookeeper"
    version = "3.5.4-beta"
    workload_name = "SmokeTest+curl"

    def __init__(self, ensemble_size: int = 3):
        self.ensemble_size = ensemble_size

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("zookeeper", seed=seed, config=config)
        names = [f"zk{i}" for i in range(1, self.ensemble_size + 1)]
        for sid, name in enumerate(names, start=1):
            ZKServer(cluster, name, sid=sid, peers=names)
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        names = [f"zk{i}" for i in range(1, self.ensemble_size + 1)]
        return SmokeTestWorkload(num_znodes=4 * scale, servers=names)

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.zookeeper import client, server

        return [server, client]

    def base_runtime(self) -> float:
        return 4.0

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # The session tracker is a LivenessMonitor.  A silent peer is
        # dropped by the 0.5 s ping chore after peer_expiry, and the
        # smoke client re-creates a stalled znode every 2 s until
        # client_retries run out.
        return max(config.get("zk.peer_expiry", 1.5) + 0.5,
                   (config.get("zk.client_retries", 8) + 1) * 2.0)
