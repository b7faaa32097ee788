"""The HBase system-under-test definition (Table 4, row 3).

An HBase deployment embeds a ZooKeeper node, exactly as the paper's test
cluster did — several studied HBase bugs live in that lower layer
(Section 4.1.1's HBASE-7111/5722/5635 discussion).
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.hbase.client import PEWorkload
from repro.systems.hbase.master import HMaster
from repro.systems.hbase.regionserver import RegionServer
from repro.systems.zookeeper.server import ZKServer


class HBaseSystem(SystemUnderTest):
    """Distributed key-value store HBase.

    ``world_scale`` is the heavy-traffic knob (DESIGN.md "Scale kernel"):
    it multiplies the region servers (and the master's user regions) and
    squares into the PE row count, so per-server load stays constant
    while total traffic grows quadratically.  ``world_scale=1`` is
    byte-identical to the pre-knob system.
    """

    name = "hbase"
    version = "3.0.0-SNAPSHOT"
    workload_name = "PE+curl"

    def __init__(self, num_regionservers: int = 3, world_scale: int = 1):
        self.num_regionservers = num_regionservers
        self.world_scale = max(1, int(world_scale))

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("hbase", seed=seed, config=config)
        ZKServer(cluster, "zk1", sid=1, peers=["zk1"])
        HMaster(cluster, "hmaster", num_user_regions=4 * self.world_scale)
        for i in range(1, self.num_regionservers * self.world_scale + 1):
            RegionServer(cluster, f"node{i}")
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        rows = 8 * scale * self.world_scale * self.world_scale
        # Tighten the per-row submission stagger once the row count would
        # stretch the PE pass past ~20 sim-seconds (seed stagger: 0.05).
        return PEWorkload(num_rows=rows, put_interval=min(0.05, 20.0 / rows))

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.hbase import client, master, regionserver

        return [master, regionserver, client]

    def base_runtime(self) -> float:
        # Seed: 6.0.  A scaled world adds both PE passes' staggered
        # submission windows (pass 2 staggers at 0.4x the pass-1 rate).
        rows = 8 * self.world_scale * self.world_scale
        return 6.0 + 1.4 * (min(0.05 * rows, 20.0) - 0.4)

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # ZooKeeper's session tracker is a LivenessMonitor (the embedded
        # ensemble is one server, so no peer is ever convicted).  The
        # master's guards are chores: stuck transitions are reassigned
        # after assign_timeout by a 10 s chore, and — patched only — the
        # meta bootstrap gives up on a server after meta_retry_limit
        # checks.  The PE client retries a stuck row within 4 s of the
        # last try (2 s to re-put, 2 s to notice the stall) until
        # client_retries run out — often sooner, as op errors and stale
        # stall checks retry too: at seed 14 a row spent its 1 500 by
        # ~2 005 s.  So this is an upper bound, and the 400x cap binds.
        assign = config.get("hbase.assign_timeout", 600.0) + 10.0
        meta = ((config.get("hbase.meta_retry_limit", 10) + 1)
                * config.get("hbase.meta_retry_interval", 1.0))
        client = (config.get("hbase.client_retries", 1500) + 1) * 4.0
        return max(assign, meta, client)
