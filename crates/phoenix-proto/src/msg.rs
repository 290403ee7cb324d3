//! The kernel message set: every message exchanged between Phoenix
//! services, node daemons, user environments and clients.
//!
//! One enum keeps the simulator monomorphic (`World<KernelMsg>`); the
//! [`label`](KernelMsg::label) method buckets variants into traffic classes
//! so the experiments can attribute network load to heartbeats, bulletin
//! queries, polling, and so on.

use crate::bulletin::{BulletinEntry, BulletinQuery};
use crate::checkpoint::CheckpointData;
use crate::event::{ConsumerReg, Event, EventType};
use crate::ids::{JobId, PartitionId, RequestId, ServiceKind, UserId};
use crate::job::{JobSpec, JobState, TaskSpec};
use crate::security::{Action, AuthToken};
use crate::shared::Shared;
use crate::wire::encoded_size;
use crate::topology::ClusterTopology;
use phoenix_sim::{Diagnosis, Message, NicId, NodeId, Pid, ResourceUsage};

/// The per-partition service pids of one meta-group member, as carried in
/// membership broadcasts. Federation peers find each other through this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemberInfo {
    pub partition: PartitionId,
    /// Node currently hosting the partition services.
    pub node: NodeId,
    pub gsd: Pid,
    pub event: Pid,
    pub bulletin: Pid,
    pub checkpoint: Pid,
    /// PPM agent on the hosting node; ring neighbours probe it to
    /// distinguish a GSD process death from a node death.
    pub host_ppm: Pid,
}

impl MemberInfo {
    /// A partition whose service pids are not known yet (all `Pid(0)`).
    pub fn unwired(partition: PartitionId) -> MemberInfo {
        MemberInfo {
            partition,
            node: NodeId(0),
            gsd: Pid(0),
            event: Pid(0),
            bulletin: Pid(0),
            checkpoint: Pid(0),
            host_ppm: Pid(0),
        }
    }

    /// The partition's instance of a federated kernel service; `None` for
    /// every kind that has no per-partition slot here.
    pub fn service(&self, kind: ServiceKind) -> Option<Pid> {
        match kind {
            ServiceKind::Event => Some(self.event),
            ServiceKind::DataBulletin => Some(self.bulletin),
            ServiceKind::Checkpoint => Some(self.checkpoint),
            _ => None,
        }
    }

    /// The slot [`service`](Self::service) reads.
    pub fn service_mut(&mut self, kind: ServiceKind) -> Option<&mut Pid> {
        match kind {
            ServiceKind::Event => Some(&mut self.event),
            ServiceKind::DataBulletin => Some(&mut self.bulletin),
            ServiceKind::Checkpoint => Some(&mut self.checkpoint),
            _ => None,
        }
    }
}

/// Per-node daemon pids (watch daemon, detector, PPM agent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeServices {
    pub node: NodeId,
    pub wd: Pid,
    pub detector: Pid,
    pub ppm: Pid,
}

/// The cluster-wide service directory maintained by the configuration
/// service and distributed at boot.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ServiceDirectory {
    pub config: Pid,
    pub security: Pid,
    pub partitions: Vec<MemberInfo>,
    pub nodes: Vec<NodeServices>,
}

impl ServiceDirectory {
    /// Services of the partition, if known.
    pub fn partition(&self, id: PartitionId) -> Option<&MemberInfo> {
        self.partitions.iter().find(|m| m.partition == id)
    }

    /// Daemons of a node, if known. O(1) on the boot layout, where
    /// `nodes[i]` is node `i`; a scan once config's node restarts have
    /// moved rows to the end.
    pub fn node(&self, id: NodeId) -> Option<&NodeServices> {
        let at = self.nodes.get(id.0 as usize).filter(|n| n.node == id);
        at.or_else(|| self.nodes.iter().find(|n| n.node == id))
    }
}

/// A row in a queue-status reply.
#[derive(Clone, PartialEq, Debug)]
pub struct QueueRow {
    pub job: JobId,
    pub pool: String,
    pub user: UserId,
    pub state: JobState,
    pub nodes: Vec<NodeId>,
}

/// Administrative node operations (paper Fig 9: start/shutdown nodes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeOp {
    Start,
    Shutdown,
}

/// Every message in the Phoenix protocol.
#[derive(Clone, PartialEq, Debug)]
pub enum KernelMsg {
    // ---- boot / wiring -------------------------------------------------
    /// Initial wiring: the full service directory, sent to every service
    /// by the boot driver (the paper's "system construction tool").
    /// `Shared`: one directory is fanned out to every kernel process at
    /// boot, so each recipient's copy is a refcount bump, and the encoded
    /// size is computed once for the whole broadcast.
    Boot(Shared<ServiceDirectory>),

    // ---- group service: WD heartbeats and probing ("hb"/"probe") -------
    /// Watch-daemon heartbeat, sent over every NIC each interval.
    WdHeartbeat {
        node: NodeId,
        nic: NicId,
        seq: u64,
    },
    /// Liveness probe used during fault diagnosis.
    ProbeReq { req: RequestId },
    ProbeResp { req: RequestId },
    /// GSD acknowledgement of a WD heartbeat, echoed back over the same
    /// NIC the beat arrived on, only when NIC-health scoring is enabled.
    /// The WD discards it. It still flows because every cross-node send
    /// draws the world's RNG: removing the stream reshuffles every seeded
    /// hardened run, so it waits for a chaos re-baseline.
    WdHeartbeatAck { nic: NicId, seq: u64 },

    // ---- group service: meta-group ring ("meta") ------------------------
    /// Ring heartbeat from a GSD to its successor, sent over every NIC so
    /// the observer can tell a network failure from a daemon failure.
    /// `seq` counts beats (per sender) so a lossy network's duplicates and
    /// stragglers can be deduplicated; `epoch` only moves on membership
    /// changes.
    MetaHeartbeat {
        from_partition: PartitionId,
        nic: NicId,
        epoch: u64,
        seq: u64,
    },
    /// A (re)started GSD announces itself to the meta-group leader.
    MetaJoin { member: MemberInfo },
    /// Leader broadcast of the authoritative membership. The member list
    /// is `Shared`: one epoch's list goes to every meta-group peer.
    MetaMembership {
        epoch: u64,
        members: Shared<Vec<MemberInfo>>,
    },
    /// A GSD announces a peer's failure to the whole meta-group.
    MetaMemberDown {
        partition: PartitionId,
        diagnosis: Diagnosis,
    },

    // ---- group service: quorum regroup ("regroup") ----------------------
    /// Reachability probe of a regroup round (MSCS-style): a GSD that
    /// suspects its leader or lost a majority of beats pings every known
    /// peer to compute its connected component.
    RegroupPing {
        from_partition: PartitionId,
        /// Sender's regroup epoch (moves once per concluded round).
        epoch: u64,
        /// Round id, echoed in the ack so stale acks are discarded.
        round: u64,
        /// Sender's current witness partition (vote-table gossip; the
        /// higher `witness_epoch` wins on conflict). `PartitionId(0)` /
        /// epoch 0 when the sender runs without a vote table.
        witness: PartitionId,
        /// Witness generation: bumps on every witness failover.
        witness_epoch: u64,
    },
    /// Answer to a `RegroupPing`: the responder is reachable. Carries the
    /// responder's meta-group epoch and freeze state so a thawing minority
    /// can find the majority's authoritative side.
    RegroupAck {
        from_partition: PartitionId,
        epoch: u64,
        round: u64,
        frozen: bool,
        /// The responder's vote weight: always 1. The receiver tallies
        /// one vote per partition and doubles the witness's against its
        /// own witness view.
        weight: u32,
        /// The responder's witness view (same gossip as `RegroupPing`).
        witness: PartitionId,
        witness_epoch: u64,
    },
    /// GSD → its partition services (bulletin, detectors): enter or leave
    /// the frozen minority state. Frozen services answer queries as stale
    /// and stop publishing.
    RegroupFreeze { frozen: bool },
    /// Regroup round side-channel: a GSD asks the watch daemons on a
    /// silent partition's *configured home nodes* whether the GSD they
    /// track is still alive. Positive death reports from a partition's
    /// own nodes let the quorum math discount that partition from the
    /// denominator (a dead GSD cannot be a rival quorum participant) —
    /// and only its own nodes may testify, because they are exactly the
    /// nodes an in-place respawn would land on, so evidence and rescue
    /// cannot end up on opposite sides of a split.
    RegroupProbe { round: u64 },
    /// WD answer to a `RegroupProbe`: the GSD pid this daemon heartbeats
    /// for its partition, and whether that pid is currently alive (the
    /// sim shortcut for "K consecutive heartbeat acks missing").
    RegroupProbeAck {
        round: u64,
        partition: PartitionId,
        gsd: Pid,
        alive: bool,
    },
    /// Majority-side leader → config service: mark a partition's directory
    /// entry stale (its services sit on an unreachable island) or fresh
    /// again after the heal-time rejoin.
    DirectoryStale { partition: PartitionId, stale: bool },

    // ---- group service: fail-slow detection ("slow ≠ down") -------------
    /// Latency probe for the fail-slow detector. The sender remembers the
    /// send time locally, keyed by `seq`; the echo carries only the seq
    /// back, so measuring RTT needs no clocks on the wire.
    SlowPing { seq: u64 },
    /// Echo of a `SlowPing`, answered by WDs and GSDs alike.
    SlowPong { seq: u64 },
    /// Ring observer → current leader: "your latency profile reads Slow
    /// from here — yield." The leader, alive but degraded, quarantines
    /// itself and hands leadership to the next healthy partition; the
    /// regroup takeover machinery is never involved.
    SlowLeaderYield { from_partition: PartitionId },
    /// Leader broadcast of the authoritative quarantine set: partitions
    /// whose hosting node reads Slow lose leadership / meta-ring
    /// eligibility until reinstated. Epoch-guarded like membership
    /// updates so every view converges to the newest set.
    MetaQuarantine {
        epoch: u64,
        quarantined: Vec<PartitionId>,
    },

    // ---- group service: partition-local supervision ("svc") -------------
    /// A per-partition service registers with its GSD for supervision.
    /// `factory` names the respawn recipe in the GSD's factory registry
    /// ("register policies of how to deal with faults", paper Sec 4.4).
    SvcRegister {
        kind: ServiceKind,
        pid: Pid,
        factory: String,
    },
    /// Supervised-service heartbeat to the local GSD.
    SvcHeartbeat {
        kind: ServiceKind,
        pid: Pid,
        seq: u64,
    },
    /// GSD pushes the current meta-group view to partition services and
    /// node daemons (federation peers + replacement pids flow through it).
    /// The list is the GSD's own ring list, `Shared` with every recipient.
    PartitionView {
        members: Shared<Vec<MemberInfo>>,
        local: MemberInfo,
    },

    // ---- event service ("event") ----------------------------------------
    /// Register a consumer. `req` of zero keeps the legacy fire-and-forget
    /// behaviour; a non-zero `req` asks for an `EsRegisterAck` so the
    /// caller can retry registration over a lossy network.
    EsRegisterConsumer { req: RequestId, reg: ConsumerReg },
    EsUnregisterConsumer { consumer: Pid },
    EsRegisterSupplier {
        supplier: Pid,
        types: Vec<EventType>,
    },
    /// Publish an event (supplier → local ES).
    EsPublish { event: Event },
    /// Notification delivered to a consumer.
    EsNotify { event: Event },
    /// Federation forward to peer ES instances.
    EsFedForward { event: Event },
    /// Acknowledges an `EsRegisterConsumer` carrying a non-zero request id.
    EsRegisterAck { req: RequestId },

    // ---- data bulletin ("bulletin") --------------------------------------
    /// Detector export to its partition bulletin: the node's whole state,
    /// its `Resource` row first, then one `App` row per application the
    /// detector tracks. The bulletin replaces the node's `App` rows with
    /// the put's, so an application missing from it leaves the table.
    DbPut { entries: Vec<BulletinEntry> },
    /// Client query against any instance (the single access point).
    DbQuery {
        req: RequestId,
        query: BulletinQuery,
    },
    /// Reply to a client. `complete` is false if some partition of the
    /// federation could not answer (paper: "only the state of one
    /// partition can't be obtained").
    DbResp {
        req: RequestId,
        entries: Shared<Vec<BulletinEntry>>,
        complete: bool,
    },
    /// Federation-internal fan-out of a query.
    DbFedQuery {
        req: RequestId,
        query: BulletinQuery,
    },
    DbFedResp {
        req: RequestId,
        partition: PartitionId,
        entries: Vec<BulletinEntry>,
    },

    // ---- checkpoint service ("ckpt") -------------------------------------
    /// The one hop that carries the snapshot by value: the saver built it
    /// and the checkpoint instance moves it into the `Shared` that its
    /// store and every message below hand on by pointer.
    CkSave {
        service: ServiceKind,
        partition: PartitionId,
        data: CheckpointData,
    },
    CkLoad {
        req: RequestId,
        service: ServiceKind,
        partition: PartitionId,
    },
    CkLoadResp {
        req: RequestId,
        data: Option<Shared<CheckpointData>>,
    },
    CkDelete {
        service: ServiceKind,
        partition: PartitionId,
    },
    /// Replication of a save to federation peers.
    CkReplicate {
        service: ServiceKind,
        partition: PartitionId,
        data: Shared<CheckpointData>,
    },
    /// A freshly (re)started checkpoint instance pulls state from a peer.
    CkSyncReq { req: RequestId },
    CkSyncResp {
        req: RequestId,
        items: Vec<(ServiceKind, PartitionId, Shared<CheckpointData>)>,
    },

    // ---- configuration service ("config") --------------------------------
    CfgQueryTopology { req: RequestId },
    /// `Shared`: the topology config and the GSDs hold, not a copy.
    CfgTopology {
        req: RequestId,
        topology: Shared<ClusterTopology>,
    },
    CfgQueryDirectory { req: RequestId },
    CfgDirectory {
        req: RequestId,
        directory: Box<ServiceDirectory>,
    },
    /// Dynamic reconfiguration: set a named kernel parameter.
    CfgSetParam {
        req: RequestId,
        key: String,
        value: String,
    },
    CfgAck { req: RequestId, ok: bool },
    /// GSD → config service: a service was restarted/migrated.
    DirectoryUpdate {
        partition: PartitionId,
        member: MemberInfo,
    },
    /// Node daemons were (re)spawned (WD restart, node brought back up).
    DirectoryUpdateNode { services: NodeServices },
    /// Administrative node power operation.
    CfgNodeOp {
        req: RequestId,
        node: NodeId,
        op: NodeOp,
    },

    // ---- security service ("security") ------------------------------------
    SecLogin {
        req: RequestId,
        user: UserId,
        secret: String,
    },
    SecLoginResp {
        req: RequestId,
        token: Option<AuthToken>,
    },
    SecCheck {
        req: RequestId,
        token: AuthToken,
        action: Action,
    },
    SecCheckResp { req: RequestId, allowed: bool },

    // ---- parallel process management ("ppm"/"app") -------------------------
    /// Load a task on `targets`; forwarded down a binomial tree.
    PpmExec {
        req: RequestId,
        job: JobId,
        task: TaskSpec,
        targets: Vec<NodeId>,
        reply_to: Pid,
    },
    PpmExecAck {
        req: RequestId,
        job: JobId,
        node: NodeId,
        ok: bool,
    },
    /// Delete a job's task on `targets` (tree-forwarded) and clean up.
    PpmDelete {
        req: RequestId,
        job: JobId,
        targets: Vec<NodeId>,
        reply_to: Pid,
    },
    PpmDeleteAck {
        req: RequestId,
        job: JobId,
        node: NodeId,
    },
    /// Application process announces itself to the node's detector.
    AppStarted {
        job: JobId,
        pid: Pid,
        task: TaskSpec,
    },
    AppExited {
        job: JobId,
        pid: Pid,
        failed: bool,
    },

    // ---- PWS job management ("pws") -----------------------------------------
    PwsSubmit {
        req: RequestId,
        token: AuthToken,
        spec: JobSpec,
    },
    PwsSubmitResp {
        req: RequestId,
        accepted: bool,
        reason: String,
    },
    PwsCancel {
        req: RequestId,
        token: AuthToken,
        job: JobId,
    },
    PwsCancelResp { req: RequestId, ok: bool },
    PwsJobStatus { req: RequestId, job: JobId },
    PwsJobStatusResp {
        req: RequestId,
        state: Option<JobState>,
        nodes: Vec<NodeId>,
    },
    PwsQueueStatus {
        req: RequestId,
        pool: Option<String>,
    },
    PwsQueueStatusResp {
        req: RequestId,
        rows: Vec<QueueRow>,
    },
    /// Dynamic leasing between pool schedulers.
    PoolLeaseReq {
        req: RequestId,
        from_pool: String,
        nodes: u32,
    },
    PoolLeaseResp {
        req: RequestId,
        granted: Vec<NodeId>,
    },
    PoolLeaseReturn { nodes: Vec<NodeId> },

    // ---- PBS baseline ("pbs") -------------------------------------------------
    /// Central-server resource poll (the paper contrasts PBS's continuous
    /// polling with PWS's event-driven collection).
    PbsPoll { req: RequestId },
    PbsPollResp {
        req: RequestId,
        node: NodeId,
        usage: ResourceUsage,
        jobs: Vec<JobId>,
    },
}

impl Message for KernelMsg {
    const LABELS: &'static [&'static str] = &[
        "boot", "hb", "probe", "meta", "regroup", "slow", "svc", "event", "bulletin", "ckpt",
        "config", "security", "ppm", "app", "pws", "pbs",
    ];

    fn wire_size(&self) -> usize {
        // The encoder itself, counting instead of writing, so this is
        // `encode(self).len()` by construction. A `Shared` payload is
        // walked once per broadcast, not once per send.
        encoded_size(self)
    }

    /// Traffic class: the variants grouped by the subsystem that owns
    /// them, so experiments can break down wire load. The arms return
    /// their row of `LABELS` and run in its order.
    fn tag(&self) -> usize {
        use KernelMsg::*;
        match self {
            Boot(_) => 0,
            WdHeartbeat { .. } | WdHeartbeatAck { .. } => 1,
            ProbeReq { .. } | ProbeResp { .. } => 2,
            MetaHeartbeat { .. } | MetaJoin { .. } | MetaMembership { .. }
            | MetaMemberDown { .. } => 3,
            RegroupPing { .. } | RegroupAck { .. } | RegroupFreeze { .. }
            | RegroupProbe { .. } | RegroupProbeAck { .. } => 4,
            SlowPing { .. } | SlowPong { .. } | SlowLeaderYield { .. }
            | MetaQuarantine { .. } => 5,
            SvcRegister { .. } | SvcHeartbeat { .. } | PartitionView { .. } => 6,
            EsRegisterConsumer { .. }
            | EsUnregisterConsumer { .. }
            | EsRegisterSupplier { .. }
            | EsPublish { .. }
            | EsNotify { .. }
            | EsFedForward { .. }
            | EsRegisterAck { .. } => 7,
            DbPut { .. } | DbQuery { .. } | DbResp { .. } | DbFedQuery { .. }
            | DbFedResp { .. } => 8,
            CkSave { .. } | CkLoad { .. } | CkLoadResp { .. } | CkDelete { .. }
            | CkReplicate { .. } | CkSyncReq { .. } | CkSyncResp { .. } => 9,
            CfgQueryTopology { .. }
            | CfgTopology { .. }
            | CfgQueryDirectory { .. }
            | CfgDirectory { .. }
            | CfgSetParam { .. }
            | CfgAck { .. }
            | DirectoryUpdate { .. }
            | DirectoryUpdateNode { .. }
            | DirectoryStale { .. }
            | CfgNodeOp { .. } => 10,
            SecLogin { .. } | SecLoginResp { .. } | SecCheck { .. } | SecCheckResp { .. } => 11,
            PpmExec { .. } | PpmExecAck { .. } | PpmDelete { .. } | PpmDeleteAck { .. } => 12,
            AppStarted { .. } | AppExited { .. } => 13,
            PwsSubmit { .. }
            | PwsSubmitResp { .. }
            | PwsCancel { .. }
            | PwsCancelResp { .. }
            | PwsJobStatus { .. }
            | PwsJobStatusResp { .. }
            | PwsQueueStatus { .. }
            | PwsQueueStatusResp { .. }
            | PoolLeaseReq { .. }
            | PoolLeaseResp { .. }
            | PoolLeaseReturn { .. } => 14,
            PbsPoll { .. } | PbsPollResp { .. } => 15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_finds_rows_on_the_boot_layout_and_after_a_node_restart() {
        let row = |node: u32, wd: u64| NodeServices {
            node: NodeId(node),
            wd: Pid(wd),
            detector: Pid(0),
            ppm: Pid(0),
        };
        let mut dir = ServiceDirectory {
            nodes: (0..4).map(|i| row(i, 10 + i as u64)).collect(),
            ..ServiceDirectory::default()
        };
        assert_eq!(dir.node(NodeId(2)), Some(&row(2, 12)));
        // Config's node restart: the node's row leaves and is pushed last,
        // so `nodes[1]` is node 2 and node 1 sits at the end.
        dir.nodes.retain(|n| n.node != NodeId(1));
        dir.nodes.push(row(1, 99));
        for (node, wd) in [(0, 10), (1, 99), (2, 12), (3, 13)] {
            assert_eq!(dir.node(NodeId(node)), Some(&row(node, wd)), "node {node}");
        }
        assert_eq!(dir.node(NodeId(4)), None);
    }

    #[test]
    fn heartbeat_is_small() {
        let hb = KernelMsg::WdHeartbeat {
            node: NodeId(1),
            nic: NicId(0),
            seq: 42,
        };
        // tag + node(4) + nic(1) + seq(8)
        assert_eq!(hb.wire_size(), 4 + 4 + 1 + 8);
        assert_eq!(hb.label(), "hb");
    }

    #[test]
    fn bulletin_resp_size_scales_with_entries() {
        use crate::bulletin::{BulletinKey, BulletinValue};
        let entry = BulletinEntry {
            key: BulletinKey::Resource(NodeId(0)),
            value: BulletinValue::Resource(ResourceUsage::IDLE),
            stamp_ns: 0,
        };
        let small = KernelMsg::DbResp {
            req: RequestId(1),
            entries: vec![entry.clone()].into(),
            complete: true,
        };
        let big = KernelMsg::DbResp {
            req: RequestId(1),
            entries: vec![entry; 100].into(),
            complete: true,
        };
        assert!(big.wire_size() > small.wire_size() * 50);
    }

    #[test]
    fn labels_cover_major_groups() {
        assert_eq!(
            KernelMsg::MetaHeartbeat {
                from_partition: PartitionId(0),
                nic: NicId(0),
                epoch: 0,
                seq: 0
            }
            .label(),
            "meta"
        );
        assert_eq!(KernelMsg::PbsPoll { req: RequestId(0) }.label(), "pbs");
        assert_eq!(
            KernelMsg::CkSyncReq { req: RequestId(0) }.label(),
            "ckpt"
        );
    }

    #[test]
    fn directory_lookup() {
        let m = MemberInfo {
            partition: PartitionId(1),
            node: NodeId(17),
            gsd: Pid(1),
            event: Pid(2),
            bulletin: Pid(3),
            checkpoint: Pid(4),
            host_ppm: Pid(5),
        };
        let n = NodeServices {
            node: NodeId(5),
            wd: Pid(10),
            detector: Pid(11),
            ppm: Pid(12),
        };
        let dir = ServiceDirectory {
            config: Pid(100),
            security: Pid(101),
            partitions: vec![m],
            nodes: vec![n],
        };
        assert_eq!(dir.partition(PartitionId(1)).unwrap().gsd, Pid(1));
        assert!(dir.partition(PartitionId(9)).is_none());
        assert_eq!(dir.node(NodeId(5)).unwrap().ppm, Pid(12));
    }
}
