"""The Hadoop2/Yarn system-under-test definition (Table 4, row 1)."""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.systems.base import SystemUnderTest, Workload
from repro.systems.yarn.client import WordCountWorkload
from repro.systems.yarn.nodemanager import NodeManager
from repro.systems.yarn.resourcemanager import ResourceManager


class YarnSystem(SystemUnderTest):
    """Scale-out computing framework Hadoop2/Yarn (with MapReduce).

    ``world_scale`` is the heavy-traffic knob (DESIGN.md "Scale kernel"):
    it multiplies the cluster width (NodeManagers) and squares into the
    job count, so a 100x world runs hundreds of nodes and tens of
    thousands of WordCount jobs while the per-node load stays constant.
    ``world_scale=1`` is byte-identical to the pre-knob system.
    """

    name = "yarn"
    version = "3.3.0-SNAPSHOT"
    workload_name = "WordCount+curl"

    def __init__(self, num_nodes: int = 3, world_scale: int = 1):
        self.num_nodes = num_nodes
        self.world_scale = max(1, int(world_scale))

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("yarn", seed=seed, config=config)
        ResourceManager(cluster, "rm")
        for i in range(1, self.num_nodes * self.world_scale + 1):
            NodeManager(cluster, f"node{i}")
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        ws = self.world_scale
        return WordCountWorkload(
            jobs=ws * ws, num_maps=4 * scale, num_reduces=1,
            # Pace submissions so the offered load tracks the cluster's
            # drain rate: the seed interval up to 20x, then tightening so
            # a ws-x world submits its ws^2 jobs over ~2*ws sim-seconds.
            submit_interval=min(0.1, 2.0 / ws),
        )

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.yarn import (
            appmaster,
            client,
            nodemanager,
            records,
            resourcemanager,
        )

        return [records, resourcemanager, nodemanager, appmaster, client]

    def base_runtime(self) -> float:
        # One clean WordCount run (4 maps, 1 reduce, 3 NMs) finishes in
        # about 5 simulated seconds (2s AM spawn + task waves); keep
        # headroom for scheduler jitter.  A scaled world adds its paced
        # submission window (~2*ws) plus drain time on top.
        return 8.0 + 2.4 * (self.world_scale - 1)

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # The RM's three guards are LivenessMonitors.  What is left are
        # bounded retry budgets: a reduce gives up on a lost map output
        # after max_fetch_retries rounds of (timeout + back-off) — the
        # wait that rescues timeout issue TO-1 — and the AM fails a task
        # after task_fail_limit launch timeouts.
        fetch = config.get("yarn.max_fetch_retries", 20) * (
            config.get("yarn.fetch_timeout", 5.0)
            + config.get("yarn.fetch_retry_interval", 30.0))
        launch = (config.get("yarn.task_fail_limit", 4)
                  * config.get("yarn.launch_timeout", 2.5))
        return max(fetch, launch)
