"""The HDFS system-under-test definition (Table 4, row 2)."""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.hdfs.client import TestDFSIOWorkload
from repro.systems.hdfs.datanode import DataNode
from repro.systems.hdfs.namenode import NameNode


class HdfsSystem(SystemUnderTest):
    """Scalable file system HDFS."""

    name = "hdfs"
    version = "3.3.0-SNAPSHOT"
    workload_name = "TestDFSIO+curl"

    def __init__(self, num_datanodes: int = 3):
        self.num_datanodes = num_datanodes

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("hdfs", seed=seed, config=config)
        NameNode(cluster, "nn")
        for i in range(1, self.num_datanodes + 1):
            DataNode(cluster, f"node{i}")
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        return TestDFSIOWorkload(num_files=2 * scale, blocks_per_file=2)

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.hdfs import client, datanode, namenode, records

        return [records, namenode, datanode, client]

    def base_runtime(self) -> float:
        return 5.0

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # The NameNode's heartbeat manager is a LivenessMonitor.  The
        # client notices a stalled write or read after 3 s and retries
        # until its budgets (one counter, spent by both phases) run out.
        return 3.0 * (config.get("hdfs.write_retries", 3) + 1
                      + config.get("hdfs.read_retries", 3) + 1)
