"""Mini Kubernetes for the Section 4.4 study (Table 13).

A control plane (API server + scheduler + node controller in one process)
and kubelets.  Pods bind to nodes; the node controller evicts pods of dead
nodes and the scheduler rebinds them.  Two representative bugs from the
paper's Kubernetes study are seeded:

* kube-53647-class (pre-read Node meta-info) — binding dereferences a node
  removed between filtering and binding; the scheduler loop errors.
* kube-68173-class (pre-read Pod meta-info) — eviction dereferences a pod
  deleted concurrently; the controller errors.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster, HeartbeatSender, LivenessMonitor, Node, tracked_dict
from repro.cluster.ids import KubeNodeName, PodId
from repro.sim import stable_hash
from repro.mtlog import get_logger
from repro.systems.base import SystemUnderTest, Workload

LOG = get_logger("kube.controlplane")


class PodRecord:
    """One pod object in the API server."""

    def __init__(self, pod_id: PodId):
        self.pod_id = pod_id
        self.phase = "Pending"
        self.node: Optional[KubeNodeName] = None

    def __str__(self) -> str:
        return str(self.pod_id)


class ControlPlane(Node):
    """API server + scheduler + node controller."""

    role = "controlplane"
    critical = True
    exception_policy = "abort"
    default_port = 6443

    nodes: Dict[KubeNodeName, str] = tracked_dict()  # node -> Ready/NotReady
    pods: Dict[PodId, PodRecord] = tracked_dict()

    def __init__(self, cluster, name, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.node_expiry = cluster.config.get("kube.node_expiry", 2.0)
        self.node_monitor = LivenessMonitor(
            self, self.node_expiry, 0.5, self._on_node_expired, name="NodeController"
        )

    def on_start(self) -> None:
        LOG.info("Control plane started at {}", self.node_id)
        self.node_monitor.start()

    # node lifecycle ------------------------------------------------------
    def on_register_kubelet(self, src: str, node_name: KubeNodeName) -> None:
        self.nodes.put(node_name, "Ready")
        self.node_monitor.register(node_name)
        LOG.info("Node {} registered and Ready", node_name)
        self._schedule_pending()

    def on_kubelet_heartbeat(self, src: str, node_name: KubeNodeName) -> None:
        self.node_monitor.ping(node_name)

    def on_unregister_kubelet(self, src: str, node_name: KubeNodeName) -> None:
        LOG.info("Node {} drained and removed", node_name)
        self._remove_node(node_name)

    def _on_node_expired(self, node_name: KubeNodeName) -> None:
        LOG.warn("Node {} NotReady; evicting its pods", node_name)
        self._remove_node(node_name)

    def _remove_node(self, node_name: KubeNodeName) -> None:
        if not self.nodes.contains(node_name):
            return
        self.nodes.remove(node_name)
        self.node_monitor.unregister(node_name)
        for pod_id, record in list(self.pods.snapshot().items()):
            if record.node != node_name:
                continue
            # BUG:kube-68173-class — the pod can be deleted concurrently;
            # the unpatched eviction path dereferences it.
            pod = self.pods.get(pod_id)
            if self.cluster.is_patched("KUBE-68173") and pod is None:
                continue
            pod.phase = "Pending"  # AttributeError when deleted
            pod.node = None
            LOG.info("Evicted pod {}; rescheduling", pod_id)
        self._schedule_pending()

    # pod lifecycle -------------------------------------------------------
    def on_create_pod(self, src: str, pod_id: PodId) -> None:
        record = PodRecord(pod_id)
        record.client = src
        self.pods.put(pod_id, record)
        LOG.info("Created pod {}", pod_id)
        self._schedule_pending()

    def on_delete_pod(self, src: str, pod_id: PodId) -> None:
        if self.pods.contains(pod_id):
            self.pods.remove(pod_id)

    def _schedule_pending(self) -> None:
        for record in list(self.pods.values()):
            if record.phase != "Pending":
                continue
            candidates = sorted(self.nodes.snapshot(), key=str)
            if not candidates:
                continue
            chosen = candidates[stable_hash(str(record.pod_id)) % len(candidates)]
            try:
                # BUG:kube-53647-class — the chosen node can be removed
                # between filtering and binding.
                status = self.nodes.get(chosen)
                if self.cluster.is_patched("KUBE-53647") and status is None:
                    continue
                if not status.startswith("Ready"):  # AttributeError when removed
                    continue
            except AttributeError as exc:
                LOG.error("Scheduler failed binding pod {}", record.pod_id, exc=exc)
                continue
            record.node = chosen
            record.phase = "Scheduled"
            LOG.info("Bound pod {} to node {}", record.pod_id, chosen)
            self.send(str(chosen), "run_pod", pod_id=record.pod_id)

    def on_pod_running(self, src: str, pod_id: PodId) -> None:
        record = self.pods.get(pod_id)
        if record is None:
            return
        record.phase = "Running"
        LOG.info("Pod {} is Running on {}", pod_id, record.node)
        client = getattr(record, "client", None)
        if client:
            self.send(client, "pod_status", pod_id=pod_id, phase="Running")

    def on_drain_node(self, src: str, node_name: KubeNodeName) -> None:
        """kubectl drain: ask the kubelet to leave gracefully."""
        LOG.info("Draining node {}", node_name)
        self.send(str(node_name), "drain")

    def on_list_pods(self, src: str) -> None:
        listing = [
            (record.pod_id, record.phase, record.node)
            for record in self.pods.values()
        ]
        self.send(src, "pod_listing", listing=listing)


class Kubelet(Node):
    """A worker node agent."""

    role = "kubelet"
    critical = False
    exception_policy = "log"
    default_port = 10250

    pods: Dict[PodId, str] = tracked_dict()

    def __init__(self, cluster, name, cp: str = "cp", **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.cp = cp
        self.kube_name = KubeNodeName(name)
        self.heartbeat = HeartbeatSender(
            self, cp, "kubelet_heartbeat", cluster.config.get("kube.heartbeat", 0.5),
            payload=lambda: {"node_name": self.kube_name},
        )

    def on_start(self) -> None:
        self.send(self.cp, "register_kubelet", node_name=self.kube_name)
        self.heartbeat.start()

    def on_shutdown(self) -> None:
        self.send(self.cp, "unregister_kubelet", node_name=self.kube_name)

    def on_run_pod(self, src: str, pod_id: PodId) -> None:
        self.pods.put(pod_id, "Running")
        self.send(self.cp, "pod_running", pod_id=pod_id)

    def on_drain(self, src: str) -> None:
        self.begin_shutdown()


class Kubectl(Node):
    """The workload driver: deploy pods, then drain a node (rolling
    maintenance) and wait for the evicted pods to land elsewhere — the
    recovery path the studied Kubernetes bugs live on."""

    role = "client"
    critical = False
    exception_policy = "log"
    default_port = 50600

    pod_phase: Dict[PodId, str] = tracked_dict()

    def __init__(self, cluster, name, cp: str = "cp", num_pods: int = 3, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.cp = cp
        self.num_pods = num_pods
        self.rollout_pod = PodId("default", "web-0")
        self.replacement_pod = PodId("default", "web-0-v2")
        self.drain_target: Optional[KubeNodeName] = None
        self.drained = False
        self.settled = False

    def on_start(self) -> None:
        for i in range(self.num_pods):
            pod_id = PodId("default", f"web-{i}")
            self.pod_phase.put(pod_id, "Pending")
            self.set_timer(0.2 + 0.05 * i, self._create, pod_id)
        self.set_timer(0.5, self._poll, periodic=0.5)

    def _create(self, pod_id: PodId) -> None:
        self.send(self.cp, "create_pod", pod_id=pod_id)

    def on_pod_status(self, src: str, pod_id: PodId, phase: str) -> None:
        self.pod_phase.put(pod_id, phase)

    def _poll(self) -> None:
        self.send(self.cp, "list_pods")

    def on_pod_listing(self, src: str, listing) -> None:
        if len(listing) < self.num_pods:
            return
        all_running = all(phase == "Running" for _, phase, _ in listing)
        if not self.drained:
            if not all_running:
                return
            # Rolling maintenance: drain the node hosting web-0 while also
            # rolling web-0 to a new revision — the deletion races the
            # eviction exactly as in the studied Kubernetes bugs.
            target = next((node for pod, _, node in listing if pod == self.rollout_pod), None)
            if target is None:
                return
            self.drained = True
            self.drain_target = target
            LOG.info("All pods Running; draining {} and rolling {}", target, self.rollout_pod)
            self.send(self.cp, "drain_node", node_name=target)
            self.set_timer(0.5, self._roll_pod)
            return
        if not all_running:
            return
        if all(node != self.drain_target for _, _, node in listing):
            names = {str(pod) for pod, _, _ in listing}
            if str(self.replacement_pod) in names and str(self.rollout_pod) not in names:
                self.settled = True

    def _roll_pod(self) -> None:
        self.send(self.cp, "delete_pod", pod_id=self.rollout_pod)
        self.send(self.cp, "create_pod", pod_id=self.replacement_pod)


class DeployWorkload(Workload):
    """Deploy N pods and wait until all report Running."""

    name = "kubectl-deploy"

    def __init__(self, num_pods: int = 3):
        self.num_pods = num_pods
        self._client: Optional[Kubectl] = None

    def install(self, cluster: Cluster) -> None:
        self._client = Kubectl(cluster, "kubectl", num_pods=self.num_pods)

    def finished(self, cluster: Cluster) -> bool:
        assert self._client is not None
        return self._client.settled

    def succeeded(self, cluster: Cluster) -> bool:
        return self.finished(cluster)

    def failures(self, cluster: Cluster) -> List[str]:
        assert self._client is not None
        if self._client.settled:
            return []
        if not self._client.drained:
            return ["deployment never settled before drain"]
        return ["pods never resettled after drain"]


class KubeSystem(SystemUnderTest):
    """Mini Kubernetes (Section 4.4 discussion subject)."""

    name = "kube"
    version = "1.14-mini"
    workload_name = "kubectl-deploy"

    def __init__(self, num_kubelets: int = 3):
        self.num_kubelets = num_kubelets

    def build(self, seed: int = 0, config: Optional[Dict[str, Any]] = None) -> Cluster:
        cluster = Cluster("kube", seed=seed, config=config)
        ControlPlane(cluster, "cp")
        for i in range(1, self.num_kubelets + 1):
            Kubelet(cluster, f"node{i}")
        return cluster

    def create_workload(self, scale: int = 1) -> Workload:
        return DeployWorkload(num_pods=3 * scale)

    def source_modules(self) -> List[ModuleType]:
        from repro.systems.kube import system

        return [system]

    def base_runtime(self) -> float:
        return 3.0

    def recovery_horizon(self, config: Dict[str, Any]) -> float:
        # every wait here is the node controller's LivenessMonitor
        return 0.0
