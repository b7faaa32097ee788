"""Mini ZooKeeper: ensemble, leader, sessions, ephemeral znodes, watches.

Faithful to the paper in an important *negative* way: ZooKeeper logs
sparsely and identifies peers with plain integer server ids, which is why
CrashTuner's log analysis finds only a handful of meta-info variables here
and no new bugs (Section 3.4, Section 4.1.2's discussion).  This miniature
reproduces that: peer identity is an ``int`` sid in logs, every injected
IO-style fault lands in handled exception paths, and the global state is
fully replicated on every member.

The one studied bug seeded here is ZK-569 (pre-read ZNode): a commit is
applied against a znode that a concurrent session expiry already deleted;
the server handles the error (the paper could reproduce the bug's crash
point; the symptom is a handled exception).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster import LivenessMonitor, Node, tracked_dict, tracked_ref
from repro.cluster.ids import NodeId, ZNodePath
from repro.cluster.io import CorruptStreamError, FileInputStream, FileOutputStream, SimDisk
from repro.mtlog import get_logger

LOG = get_logger("zookeeper.server")


class ZNodeRecord:
    """One znode: data plus the owning session for ephemerals."""

    def __init__(self, path: ZNodePath, data: str, ephemeral_owner: Optional[int] = None):
        self.path = path
        self.data = data
        self.ephemeral_owner = ephemeral_owner

    def __str__(self) -> str:
        return str(self.path)


class ZKServer(Node):
    """One ensemble member.  The lowest live sid leads."""

    role = "zkserver"
    critical = False
    exception_policy = "log"
    default_port = 2181

    znodes: Dict[str, ZNodeRecord] = tracked_dict()
    sessions: Dict[int, str] = tracked_dict()  # session id -> owner node name
    leader_address: Optional[NodeId] = tracked_ref()

    def __init__(self, cluster, name, sid: int, peers: List[str], **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.sid = sid
        self.peers = [p for p in peers if p != name]
        self.leader_sid: Optional[int] = None
        self._session_seq = sid * 1000
        self._watches: Dict[str, List[str]] = {}  # path prefix -> watcher nodes
        self._last_peer_seen: Dict[int, float] = {}
        self.disk = SimDisk()
        self._txn_log = FileOutputStream(self.disk, f"/zk/version-2/log.{sid}")
        self.session_expiry = cluster.config.get("zk.session_expiry", 2.0)
        self.peer_expiry = cluster.config.get("zk.peer_expiry", 1.5)
        self.session_monitor = LivenessMonitor(
            self, self.session_expiry, 0.5, self._on_session_expired, name="SessionTracker"
        )

    # ------------------------------------------------------------------
    # ensemble membership / leader election (simplified fast election)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        LOG.info("QuorumPeer {} starting", self.sid)
        # Recover from the (possibly truncated) transaction log, as the
        # real server replays its log directory at boot.
        try:
            replay = FileInputStream(self.disk, f"/zk/version-2/log.{self.sid}")
            for op in replay.read_all():
                if op[0] == "create":
                    self.znodes.put(op[1], ZNodeRecord(ZNodePath(op[1]), op[2]))
            replay.close()
        except CorruptStreamError as exc:
            LOG.warn("Dropping corrupt tail of the transaction log: {}", exc)
        self.session_monitor.start()
        self.set_timer(0.2, self._peer_ping, periodic=0.5)
        self._elect()

    def _peer_ping(self) -> None:
        for peer in self.peers:
            self.send(peer, "peer_ping", sid=self.sid)
        now = self.cluster.loop.now
        dead = [s for s, t in self._last_peer_seen.items() if now - t > self.peer_expiry]
        for sid in dead:
            del self._last_peer_seen[sid]
            self.cluster.last_recovery = now  # a guard trip
        # Re-run the (idempotent) election: a smaller sid deposes a bootstrap leader.
        self._elect()

    def on_peer_ping(self, src: str, sid: int) -> None:
        self._last_peer_seen[sid] = self.cluster.loop.now
        if self.leader_sid is None or sid < self.leader_sid:
            self._elect()  # a smaller sid deposes a bootstrap self-leader

    def _elect(self) -> None:
        known = set(self._last_peer_seen) | {self.sid}
        new_leader = min(known)
        if new_leader != self.leader_sid:
            self.leader_sid = new_leader
            state = "LEADING" if self.is_leader() else "FOLLOWING"
            LOG.info("Server {} now {} (leader is {})", self.sid, state, new_leader)
            leader_name = self._leader_name()
            if leader_name is not None:
                self.leader_address = NodeId(leader_name, self.default_port)
                LOG.info("Server {} connected to leader at {}", self.sid, self.leader_address)

    def is_leader(self) -> bool:
        return self.leader_sid == self.sid

    def _leader_name(self) -> Optional[str]:
        if self.leader_sid is None:
            return None
        if self.is_leader():
            return self.name
        for peer in self.peers + [self.name]:
            node = self.cluster.nodes.get(peer)
            if node is not None and getattr(node, "sid", None) == self.leader_sid:
                return peer
        return None

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def on_create_session(self, src: str) -> None:
        leader = self._leader_name()
        if leader is not None and leader != self.name:
            self.send(leader, "create_session_fwd", client=src)
            return
        self._create_session(src)

    def on_create_session_fwd(self, src: str, client: str) -> None:
        self._create_session(client)

    def _create_session(self, client: str) -> None:
        self._session_seq += 1
        session_id = self._session_seq
        self.sessions.put(session_id, client)
        self.session_monitor.register(session_id)
        LOG.info("Established session 0x{} for {}", f"{session_id:x}", client)
        self.send(client, "session_created", session_id=session_id, server=self.name)

    def on_session_ping(self, src: str, session_id: int) -> None:
        self.session_monitor.ping(session_id)

    def on_close_session(self, src: str, session_id: int) -> None:
        LOG.info("Processed session termination for 0x{}", f"{session_id:x}")
        self._expire_session(session_id)

    def _on_session_expired(self, session_id: int) -> None:
        LOG.info("Expiring session 0x{}", f"{session_id:x}")
        self._expire_session(session_id)

    def _expire_session(self, session_id: int) -> None:
        if self.sessions.contains(session_id):
            self.sessions.remove(session_id)
        self.session_monitor.unregister(session_id)
        for path, record in list(self.znodes.snapshot().items()):
            if record.ephemeral_owner == session_id:
                self._delete(path)
        self._replicate("expire_session", session_id=session_id)

    def on_expire_session(self, src: str, session_id: int) -> None:
        # Follower applying the leader's expiry: delete local ephemerals.
        for path, record in list(self.znodes.snapshot().items()):
            if record.ephemeral_owner == session_id:
                # BUG:ZK-569 (studied) — the znode may be gone already if a
                # direct delete raced the expiry; the server handles it.
                existing = self.znodes.get(path)
                if existing is None:
                    LOG.warn("Ignoring missing znode during session expiry")
                    continue
                self._delete(path)

    # ------------------------------------------------------------------
    # znode operations
    # ------------------------------------------------------------------
    def on_zk_create(self, src: str, path: str, data: str,
                     session_id: Optional[int] = None, ephemeral: bool = False,
                     client: Optional[str] = None) -> None:
        requester = client or src
        leader = self._leader_name()
        if leader is not None and leader != self.name:
            self.send(leader, "zk_create", path=path, data=data,
                      session_id=session_id, ephemeral=ephemeral, client=requester)
            return
        owner = session_id if ephemeral else None
        record = ZNodeRecord(ZNodePath(path), data, ephemeral_owner=owner)
        self._txn_log.write(("create", path, data))
        self._txn_log.flush()
        self.znodes.put(path, record)
        self._replicate("apply_create", path=path, data=data, owner=owner)
        self._notify_watchers(path, "created", data)
        self.send(requester, "zk_created", path=path)

    def on_apply_create(self, src: str, path: str, data: str, owner: Optional[int]) -> None:
        self.znodes.put(path, ZNodeRecord(ZNodePath(path), data, ephemeral_owner=owner))

    def on_zk_get(self, src: str, path: str) -> None:
        record = self.znodes.get(path)
        if record is None:
            self.send(src, "zk_value", path=path, data=None)
            return
        self.send(src, "zk_value", path=path, data=record.data)

    def on_zk_delete(self, src: str, path: str, client: Optional[str] = None) -> None:
        requester = client or src
        leader = self._leader_name()
        if leader is not None and leader != self.name:
            self.send(leader, "zk_delete", path=path, client=requester)
            return
        self._delete(path)
        self._replicate("apply_delete", path=path)
        self.send(requester, "zk_deleted", path=path)

    def on_apply_delete(self, src: str, path: str) -> None:
        if self.znodes.contains(path):
            self.znodes.remove(path)

    def _delete(self, path: str) -> None:
        if self.znodes.contains(path):
            self.znodes.remove(path)
        self._notify_watchers(path, "deleted", None)

    def on_zk_watch(self, src: str, prefix: str) -> None:
        self._watches.setdefault(prefix, [])
        if src not in self._watches[prefix]:
            self._watches[prefix].append(src)
        self._replicate("apply_watch", prefix=prefix, watcher=src)

    def on_apply_watch(self, src: str, prefix: str, watcher: str) -> None:
        self._watches.setdefault(prefix, [])
        if watcher not in self._watches[prefix]:
            self._watches[prefix].append(watcher)

    def on_zk_list(self, src: str, prefix: str) -> None:
        children = [p for p in self.znodes.snapshot() if p.startswith(prefix)]
        self.send(src, "zk_children", prefix=prefix, children=children)

    def _notify_watchers(self, path: str, event: str, data: Optional[str]) -> None:
        for prefix, watchers in self._watches.items():
            if path.startswith(prefix):
                for watcher in watchers:
                    self.send(watcher, "zk_event", path=path, event=event, data=data)

    def _replicate(self, method: str, **payload: Any) -> None:
        if not self.is_leader():
            return
        for peer in self.peers:
            self.send(peer, method, **payload)

    # ------------------------------------------------------------------
    # the 4-letter-word stat command ("curl" leg)
    # ------------------------------------------------------------------
    def on_stat_request(self, src: str) -> None:
        self.send(src, "stat_response", sid=self.sid,
                  znode_count=self.znodes.size(), leader=self.leader_sid)
