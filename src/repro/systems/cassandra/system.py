"""The Cassandra system-under-test definition (Table 4, row 5)."""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.cassandra.client import StressWorkload
from repro.systems.cassandra.node import CassandraNode


class CassandraSystem(SystemUnderTest):
    """Decentralized storage system Cassandra."""

    name = "cassandra"
    version = "3.11.4"
    workload_name = "Stress"

    def __init__(self, num_nodes: int = 3):
        self.num_nodes = num_nodes

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("cassandra", seed=seed, config=config)
        names = [f"node{i}" for i in range(1, self.num_nodes + 1)]
        for name in names:
            CassandraNode(cluster, name, peers=names, rf=min(3, self.num_nodes))
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        names = [f"node{i}" for i in range(1, self.num_nodes + 1)]
        return StressWorkload(num_keys=8 * scale, hosts=names)

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.cassandra import client, node

        return [node, client]

    def base_runtime(self) -> float:
        return 5.0

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # No LivenessMonitor here: the 0.5 s gossip round convicts an
        # endpoint silent for convict_after, and the stress client
        # rewrites a stalled key every 2 s until client_retries run out.
        return max(config.get("cassandra.convict_after", 2.0) + 0.5,
                   (config.get("cassandra.client_retries", 8) + 1) * 2.0)
