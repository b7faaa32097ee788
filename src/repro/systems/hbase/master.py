"""The HMaster: startup, assignment manager, server crash procedure.

Bug sites seeded here:

* HBASE-22041 (post-write ServerName, Figure 9) — a region server that
  dies between ``report_for_duty`` and its ZooKeeper registration stays in
  ``online_servers`` forever; the startup thread retries reading from it
  without bound (the code's own ``// TODO: How many times should we
  retry`` comment is reproduced faithfully) and master startup hangs.
* HBASE-22017 (pre-read ServerName) — becoming active reads an online
  server that a concurrent expiry removed; the master aborts at startup.
* HBASE-22050 (pre-read RegionInfo) — a region-close ack races a
  concurrent transition cleanup; the procedure executor logs the abort and
  the region sticks in transition.
* HBASE-3617-class (studied, pre-read HRegionServer/ServerName) — the
  server crash procedure picks a reassignment target that can itself be
  removed before the dereference; the master aborts.
* Timeout issue (Section 4.1.3) — a region stuck OPENING is only reaped by
  the slow assignment-timeout chore.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster import Node, tracked_dict
from repro.cluster.ids import RegionInfo, ServerName
from repro.mtlog import get_logger

LOG = get_logger("hbase.master")

META_REGION = RegionInfo("hbase:meta", "", 1)


class ServerInfo:
    """The master's record of one online region server."""

    def __init__(self, server_name: ServerName):
        self.server_name = server_name
        self.load = 0
        # regions the server has reported open (ServerManager-style
        # bookkeeping; the ServerCrashProcedure consumes it)
        self.regions: Set[RegionInfo] = set()

    def __str__(self) -> str:
        return str(self.server_name)


class HMaster(Node):
    """HBase master daemon."""

    role = "hmaster"
    critical = True
    exception_policy = "abort"
    default_port = 16000

    online_servers: Dict[ServerName, ServerInfo] = tracked_dict()
    regions: Dict[RegionInfo, ServerName] = tracked_dict()  # assignments
    transitions: Dict[RegionInfo, str] = tracked_dict()  # region -> OPENING/CLOSING

    def __init__(self, cluster, name, zk: str = "zk1", num_user_regions: int = 4, **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.zk = zk
        self.num_user_regions = num_user_regions
        cfg = cluster.config
        self.min_servers: int = cfg.get("hbase.min_servers", 2)
        self.meta_retry_interval: float = cfg.get("hbase.meta_retry_interval", 1.0)
        self.meta_retry_limit: int = cfg.get("hbase.meta_retry_limit", 10)  # patched only
        self.assign_timeout: float = cfg.get("hbase.assign_timeout", 600.0)
        self.initialized = False
        self.meta_assigned = False
        self._balanced = False
        self._meta_target: Optional[ServerName] = None
        self._meta_retries = 0
        self._transition_since: Dict[RegionInfo, float] = {}
        self._server_of_region_plan: Dict[RegionInfo, ServerName] = {}

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        LOG.info("HMaster starting at {}", self.node_id)
        self.send(self.zk, "zk_watch", prefix="/hbase/rs/")
        self.set_timer(10.0, self._assignment_chore, periodic=10.0)
        self.set_timer(0.8, self._balancer_chore, periodic=5.0)

    def _balancer_chore(self) -> None:
        """Move one region from the most- to the least-loaded server.

        Runs in every clean run, which is what exercises the region
        close/reopen path (and HBASE-22050's crash point) under profiling.
        """
        if not self.meta_assigned or self._balanced:
            return
        load: Dict[ServerName, int] = {}
        for region, owner in self.regions.snapshot().items():
            if region != META_REGION:
                load[owner] = load.get(owner, 0) + 1
        if len(load) < 2:
            return
        busiest = max(load, key=lambda s: (load[s], str(s)))
        calmest = min(load, key=lambda s: (load[s], str(s)))
        if busiest == calmest:
            return
        self._balanced = True
        region = next(
            r for r, o in sorted(self.regions.snapshot().items(), key=lambda kv: str(kv[0]))
            if o == busiest and r != META_REGION
        )
        LOG.info("Balancer moving region {} from {} to {}", region, busiest, calmest)
        self.transitions.put(region, "CLOSING")
        self._transition_since[region] = self.cluster.loop.now
        self._server_of_region_plan[region] = calmest
        self.send(busiest.host, "close_region", region=region)

    def on_report_for_duty(self, src: str, server_name: ServerName) -> None:
        # BUG:HBASE-22041's post-write point (Figure 9, step 2): the server
        # joins `online_servers` *before* it exists in ZooKeeper.  If its
        # machine dies before the znode appears, nothing ever expires it.
        self.online_servers.put(server_name, ServerInfo(server_name))
        LOG.info("RegionServer {} reported for duty", server_name)
        self.send(src, "duty_ack", server_name=server_name)
        if not self.initialized and self.online_servers.size() >= self.min_servers:
            # Give the reported servers a moment to finish their own
            # bring-up (ZK registration) before activating.
            self.set_timer(0.5, self._become_active)

    def _become_active(self) -> None:
        if self.initialized:
            return
        self.initialized = True
        LOG.info("Master becoming active with {} servers", self.online_servers.size())
        # Verify each reported server while becoming active.
        total_load = 0
        for info in list(self.online_servers.values()):
            # BUG:HBASE-22017 — a server expired between the snapshot and
            # this read; the unpatched master dereferences None and aborts.
            entry = self.online_servers.get(info.server_name)
            if self.cluster.is_patched("HBASE-22017") and entry is None:
                LOG.warn("Server {} vanished while master became active", info.server_name)
                continue
            total_load += entry.load  # AttributeError when removed
        LOG.info("Active-master checks passed (aggregate load {})", total_load)
        self._assign_meta()

    def _assign_meta(self) -> None:
        target = self._pick_server(exclude=None)
        if target is None:
            self.set_timer(0.5, self._assign_meta)
            return
        self._meta_target = target
        self._meta_retries = 0
        self.transitions.put(META_REGION, "OPENING")
        self._transition_since[META_REGION] = self.cluster.loop.now
        LOG.info("Assigning {} to {}", META_REGION, target)
        self.send(target.host, "open_region", region=META_REGION)
        self.set_timer(self.meta_retry_interval, self._check_meta_assignment)

    def _check_meta_assignment(self) -> None:
        if self.meta_assigned:
            return
        self._meta_retries += 1
        # BUG:HBASE-22041 (Figure 9, step 6): the startup thread keeps
        # retrying the same "online" server forever.
        # TODO: How many times should we retry.
        if self.cluster.is_patched("HBASE-22041") and self._meta_retries > self.meta_retry_limit:
            LOG.warn("Meta assignment to {} timed out; choosing another server",
                     self._meta_target)
            dead = self._meta_target
            if dead is not None and self.online_servers.contains(dead):
                self._handle_server_crash(dead)
            self._assign_meta()
            return
        LOG.warn("Waiting on meta assignment to {} (retry {})",
                 self._meta_target, self._meta_retries)
        if self._meta_target is not None:
            self.send(self._meta_target.host, "open_region", region=META_REGION)
        self.set_timer(self.meta_retry_interval, self._check_meta_assignment)

    def _assign_user_regions(self) -> None:
        for i in range(1, self.num_user_regions + 1):
            region = RegionInfo("usertable", f"row{i:02d}", i)
            if self.regions.contains(region) or self.transitions.contains(region):
                continue
            self._assign_region(region, exclude=None)

    def _assign_region(self, region: RegionInfo, exclude: Optional[ServerName]) -> None:
        target = self._pick_server(exclude=exclude)
        if target is None:
            LOG.warn("No server available for {}; retrying", region)
            self.set_timer(0.5, self._assign_region, region, exclude)
            return
        # Logged before the transition record is written (as the real
        # AssignmentManager does), so the value is resolvable online.
        LOG.info("Assigning region {} to {}", region, target)
        self.transitions.put(region, "OPENING")
        self._transition_since[region] = self.cluster.loop.now
        self._server_of_region_plan[region] = target
        self.send(target.host, "open_region", region=region)

    def _pick_server(self, exclude: Optional[ServerName]) -> Optional[ServerName]:
        candidates = [
            info for info in self.online_servers.values()
            if exclude is None or info.server_name != exclude
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda s: (s.load, str(s.server_name)))
        best.load += 1
        return best.server_name

    # ------------------------------------------------------------------
    # region transition acks
    # ------------------------------------------------------------------
    def on_region_opened(self, src: str, region: RegionInfo, server_name: ServerName) -> None:
        if self.transitions.contains(region):
            self.transitions.remove(region)
        self._transition_since.pop(region, None)
        self.regions.put(region, server_name)
        info = self.online_servers.get(server_name)
        if info is not None:
            info.regions.add(region)
        LOG.info("Region {} now open on {}", region, server_name)
        if region == META_REGION and not self.meta_assigned:
            self.meta_assigned = True
            LOG.info("Meta region online; assigning user regions")
            self._assign_user_regions()

    def on_region_closed(self, src: str, region: RegionInfo, server_name: ServerName) -> None:
        try:
            # BUG:HBASE-22050 — the transition record can be removed by a
            # concurrent cleanup between the ack and this read; the
            # unpatched code dereferences it.
            state = self.transitions.get(region)
            if self.cluster.is_patched("HBASE-22050") and state is None:
                LOG.info("Ignoring close ack for untracked region {}", region)
                return
            normalized = state.lower()  # AttributeError when state is None
            LOG.info("Region {} closed while {} on {}", region, normalized, server_name)
            self.transitions.remove(region)
            if self.regions.get(region) == server_name:
                self.regions.remove(region)
            destination = self._server_of_region_plan.get(region)
            if destination is not None and self.online_servers.contains(destination):
                self._assign_region(region, exclude=server_name)
            else:
                self._assign_region(region, exclude=None)
        except AttributeError as exc:
            LOG.error("Procedure executor caught exception; region {} stuck in transition",
                      region, exc=exc)

    # ------------------------------------------------------------------
    # server crash procedure
    # ------------------------------------------------------------------
    def on_zk_event(self, src: str, path: str, event: str, data: Optional[str]) -> None:
        if not path.startswith("/hbase/rs/") or event != "deleted":
            return
        server_name = self._parse_server_name(path)
        if server_name is None:
            return
        LOG.warn("ZooKeeper session for {} lost; starting ServerCrashProcedure", server_name)
        self._handle_server_crash(server_name)

    def _parse_server_name(self, znode_path: str) -> Optional[ServerName]:
        raw = znode_path.rsplit("/", 1)[-1]
        parts = raw.split(",")
        if len(parts) != 3:
            return None
        return ServerName(parts[0], int(parts[1]), int(parts[2]))

    def _handle_server_crash(self, server_name: ServerName) -> None:
        if not self.online_servers.contains(server_name):
            return
        departed = self.online_servers.get(server_name)
        self.online_servers.remove(server_name)
        LOG.info("Removed {} from online servers; reassigning its regions", server_name)
        if self._meta_target == server_name and not self.meta_assigned:
            self._assign_meta()
        self._reassign_regions_of(departed, server_name)

    def _reassign_regions_of(self, departed, server_name: ServerName) -> None:
        # ServerCrashProcedure body: requeue every region the dead server
        # owned; departed is its ServerInfo snapshot, taken before the
        # server was dropped from the online map
        for region, owner in list(self.regions.snapshot().items()):
            if owner != server_name:
                continue
            self.regions.remove(region)
            target = self._pick_server(exclude=server_name)
            if target is None:
                LOG.warn("No server left for {}; parking it", region)
                continue
            # BUG:HBASE-3617-class (studied) — the chosen destination can be
            # removed before this dereference; the unpatched master aborts.
            entry = self.online_servers.get(target)
            if self.cluster.is_patched("HBASE-3617") and entry is None:
                LOG.warn("Reassignment target {} vanished; re-planning {}", target, region)
                self._assign_region(region, exclude=server_name)
                continue
            destination = entry.server_name  # AttributeError when removed
            self.transitions.put(region, "OPENING")
            self._transition_since[region] = self.cluster.loop.now
            LOG.info("Reassigning region {} from {} to {}", region, server_name, destination)
            self.send(destination.host, "open_region", region=region)
        if departed is not None:
            departed.regions.clear()  # the procedure consumed the report

    # ------------------------------------------------------------------
    # the slow assignment chore (the HBase timeout issue)
    # ------------------------------------------------------------------
    def _assignment_chore(self) -> None:
        now = self.cluster.loop.now
        for region, since in list(self._transition_since.items()):
            if now - since > self.assign_timeout:
                LOG.warn("Region {} stuck in transition for {}s; force reassigning",
                         region, int(now - since))
                if region == META_REGION:
                    # Meta bootstrap is the startup thread's own retry loop
                    # (Figure 9), never rescued here: HBASE-22041 hangs.
                    continue
                self.cluster.last_recovery = now  # a guard trip
                self._transition_since.pop(region, None)
                if self.transitions.contains(region):
                    self.transitions.remove(region)
                planned = self._server_of_region_plan.get(region)
                self._assign_region(region, exclude=planned)

    # ------------------------------------------------------------------
    # client-facing
    # ------------------------------------------------------------------
    def on_locate_regions(self, src: str) -> None:
        if not self.meta_assigned:
            self.send(src, "region_map", assignments=[])
            return
        # Every user region is reported, whether or not it is currently
        # open somewhere: a row's region is fixed by its key, so a region
        # stuck in transition means its rows are simply unavailable.
        open_regions = self.regions.snapshot()
        assignments = []
        for i in range(1, self.num_user_regions + 1):
            region = RegionInfo("usertable", f"row{i:02d}", i)
            assignments.append((region, open_regions.get(region)))
        self.send(src, "region_map", assignments=assignments)

    def on_web_request(self, src: str) -> None:
        LOG.info("Web request: {} online servers, {} regions open",
                 self.online_servers.size(), self.regions.size())
        self.send(src, "web_response", servers=self.online_servers.size(),
                  regions=self.regions.size())
