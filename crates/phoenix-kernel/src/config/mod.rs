//! The configuration service.
//!
//! Paper Sec 4.2: "It provides cluster-wide configuration information,
//! including information of physical resources, Phoenix kernel and user
//! environments. Configuration service has a self-introspection mechanism
//! to automatically find and diagnose cluster resources, and provides
//! documented interface for dynamic reconfiguration."
//!
//! One instance runs cluster-wide. It is the authoritative copy of the
//! topology and the live service directory (GSDs report every restart and
//! migration), answers queries, applies dynamic parameter changes, and
//! executes administrative node operations (paper Fig 9's start/shutdown
//! nodes), respawning node daemons when a node comes back up.

use crate::detect::Detector;
use crate::group::Wd;
use crate::params::{self, KernelParams, Rung};
use crate::ppm::PpmAgent;
use crate::rpc::DedupWindow;
use phoenix_proto::{
    ClusterTopology, Event, EventPayload, EventType, KernelMsg, NodeOp, NodeServices,
    RequestId, ServiceDirectory, Shared,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration, TraceEvent};
use std::collections::HashMap;

/// Under the lossy rung, a restarted node's wiring pushes (`Boot` to
/// its daemons, `DirectoryUpdateNode` to the GSD and PPM agents) are
/// re-asserted this many times: each push is fire-and-forget, and a single
/// lost `Boot` otherwise leaves the fresh WD pointed at `Pid(0)` forever.
/// Every push is idempotent, so blind re-sends are safe.
const REWIRE_RESENDS: u32 = 3;
/// Spacing between wiring re-assertions: 4× the lossy retry base keeps
/// them off the hot retry path but well inside the detection window.
const REWIRE_INTERVAL: SimDuration = SimDuration::from_millis(160);

/// Timer-token namespace for per-node rewire timers (token = base + node).
const REWIRE_TOK_BASE: u64 = 1 << 32;

/// The configuration-service actor.
pub struct ConfigService {
    /// The cluster's one topology, shared with the GSDs and every reply.
    topology: Shared<ClusterTopology>,
    params: KernelParams,
    directory: ServiceDirectory,
    /// Idempotency window for `CfgNodeOp`: `start_node` spawns daemons and
    /// fans directory updates cluster-wide, so a retried request must
    /// replay the cached ack instead of re-executing.
    node_ops_seen: DedupWindow<(Pid, RequestId), bool>,
    /// Remaining wiring re-assertions per recently started node.
    rewire: HashMap<NodeId, u32>,
    /// Partitions flagged by the majority side's regroup as unreachable:
    /// their directory entries are kept (for rescue hints) but marked
    /// stale — clients should not route to daemons nobody holding quorum
    /// can vouch for. Cleared by the partition's next `DirectoryUpdate`
    /// or an explicit `stale = false`.
    stale: std::collections::BTreeSet<phoenix_proto::PartitionId>,
    /// Latest witness identity reported by the majority side's regroup
    /// (`CfgSetParam` key `regroup_witness`, value `partition:epoch`).
    /// The higher witness epoch wins, mirroring the gossip rule, so
    /// replayed or reordered reports cannot roll the view back.
    witness: Option<(phoenix_proto::PartitionId, u64)>,
}

impl ConfigService {
    pub(crate) fn new(topology: Shared<ClusterTopology>, params: KernelParams) -> Self {
        ConfigService {
            topology,
            params,
            directory: ServiceDirectory::default(),
            node_ops_seen: DedupWindow::new(64),
            rewire: HashMap::new(),
            stale: std::collections::BTreeSet::new(),
            witness: None,
        }
    }

    /// Partitions currently flagged stale by a regroup round (sorted).
    pub fn stale_partitions(&self) -> Vec<phoenix_proto::PartitionId> {
        self.stale.iter().copied().collect()
    }

    /// (Re-)send the full wiring batch for a node's daemons: `Boot` with
    /// the current directory to WD/detector/PPM, and the directory update
    /// to the supervising GSD and every other PPM agent.
    fn wire_node(&self, ctx: &mut Ctx<'_, KernelMsg>, services: NodeServices) {
        let boot = KernelMsg::Boot(self.directory.clone().into());
        ctx.send(services.wd, boot.clone());
        ctx.send(services.detector, boot.clone());
        ctx.send(services.ppm, boot);
        if let Some(partition) = self.topology.partition_of(services.node) {
            if let Some(member) = self.directory.partition(partition) {
                ctx.send(member.gsd, KernelMsg::DirectoryUpdateNode { services });
            }
            // Vote-table profiles: every *other* GSD also learns the new
            // WD pids, because regroup rounds probe foreign home-node
            // WDs for dead-GSD testimony and a stale pid would silence a
            // repaired node's testimony forever. Gated so the rungs below
            // stay byte-identical.
            if self.params.ft.rung >= Rung::Quorum {
                for m in &self.directory.partitions {
                    if m.partition != partition && m.gsd != Pid(0) {
                        ctx.send(m.gsd, KernelMsg::DirectoryUpdateNode { services });
                    }
                }
            }
        }
        for ns in &self.directory.nodes {
            if ns.node != services.node {
                ctx.send(ns.ppm, KernelMsg::DirectoryUpdateNode { services });
            }
        }
    }

    /// Event service of the first known partition (used to publish
    /// configuration-change events).
    fn any_event_service(&self) -> Option<Pid> {
        self.directory
            .partitions
            .first()
            .map(|m| m.event)
            .filter(|&p| p != Pid(0))
    }

    /// Bring a node back: power it on and respawn its daemons, then tell
    /// the partition GSD and all PPM agents about the new pids.
    fn start_node(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId) -> bool {
        if !ctx.node_same_island(node) {
            // An island split separates us from the node's power controller:
            // the start request cannot reach it, so spawning daemons there
            // would plant processes across a severed link. Refuse; the
            // operator retries after the heal.
            phoenix_telemetry::counter_add("config.repair_unreachable", 1);
            ctx.trace(TraceEvent::Milestone {
                label: "node-start-unreachable",
                value: node.0 as f64,
            });
            return false;
        }
        ctx.set_node_power(node, true);
        let Some(partition) = self.topology.partition_of(node) else {
            return false;
        };
        let wd = ctx.spawn(
            node,
            Box::new(Wd::new(node, partition, self.params.ft.hb_interval)),
        );
        let detector = ctx.spawn(
            node,
            Box::new(Detector::new(node, partition, self.params.clone())),
        );
        let ppm = ctx.spawn(node, Box::new(PpmAgent::new(node)));
        let services = NodeServices {
            node,
            wd,
            detector,
            ppm,
        };
        // Update the directory.
        self.directory.nodes.retain(|n| n.node != node);
        self.directory.nodes.push(services);
        // Wire the new daemons: `Boot` for them, directory updates for the
        // supervising GSD (resumes monitoring, publishes NodeRecovery) and
        // every PPM agent (routing tables).
        self.wire_node(ctx, services);
        if self.params.ft.lossy() {
            // Lossy rung: any wiring push may be dropped; re-assert.
            self.rewire.insert(node, REWIRE_RESENDS);
            ctx.set_timer(REWIRE_INTERVAL, REWIRE_TOK_BASE + node.0 as u64);
        }
        ctx.trace(TraceEvent::Milestone {
            label: "node-started",
            value: node.0 as f64,
        });
        true
    }

    fn shutdown_node(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId) {
        self.rewire.remove(&node);
        ctx.set_node_power(node, false);
        ctx.trace(TraceEvent::Milestone {
            label: "node-shutdown",
            value: node.0 as f64,
        });
    }
}

impl Actor<KernelMsg> for ConfigService {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("config");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                self.directory = dir.unwrap_or_clone();
            }
            KernelMsg::CfgQueryTopology { req } => {
                let topology = Shared::clone(&self.topology);
                ctx.send(from, KernelMsg::CfgTopology { req, topology });
            }
            KernelMsg::CfgQueryDirectory { req } => {
                ctx.send(
                    from,
                    KernelMsg::CfgDirectory {
                        req,
                        directory: Box::new(self.directory.clone()),
                    },
                );
            }
            KernelMsg::CfgSetParam { req, key, value } => {
                ctx.send(from, KernelMsg::CfgAck { req, ok: true });
                // Dynamic reconfiguration: push tunables to the daemons
                // that consume them ("the interval for sending heartbeat
                // can be configured as a system parameter"), and keep the
                // new interval for the WDs a node repair starts later.
                if let Some(interval) = params::pushed_hb_interval(&key, &value) {
                    self.params.ft.hb_interval = interval;
                    let push = KernelMsg::CfgSetParam {
                        req: RequestId(0),
                        key: key.clone(),
                        value,
                    };
                    for m in &self.directory.partitions {
                        ctx.send(m.gsd, push.clone());
                    }
                    for n in &self.directory.nodes {
                        ctx.send(n.wd, push.clone());
                    }
                } else if key == "regroup_witness" {
                    // Majority-side witness failover report. Adopt only a
                    // higher witness epoch (gossip rule) so a delayed
                    // duplicate cannot roll the view back.
                    if let Some((p, e)) = value.split_once(':') {
                        if let (Ok(p), Ok(e)) = (p.parse::<u32>(), e.parse::<u64>()) {
                            if self.witness.map_or(true, |(_, cur)| e > cur) {
                                self.witness = Some((phoenix_proto::PartitionId(p), e));
                                phoenix_telemetry::counter_add("config.witness_reports", 1);
                            }
                        }
                    }
                }
                if let Some(es) = self.any_event_service() {
                    ctx.send(
                        es,
                        KernelMsg::EsPublish {
                            event: Event::new(
                                EventType::ConfigChange,
                                ctx.node(),
                                EventPayload::Text(key),
                            ),
                        },
                    );
                }
            }
            KernelMsg::DirectoryUpdate { partition, member } => {
                self.directory.partitions.retain(|m| m.partition != partition);
                self.directory.partitions.push(member);
                self.directory.partitions.sort_by_key(|m| m.partition);
                // A fresh entry is vouched-for again: whoever pushed it is
                // alive and reachable from us.
                self.stale.remove(&partition);
            }
            KernelMsg::DirectoryStale { partition, stale } => {
                if stale {
                    if self.stale.insert(partition) {
                        phoenix_telemetry::counter_add("config.stale_marks", 1);
                    }
                } else {
                    self.stale.remove(&partition);
                }
            }
            KernelMsg::DirectoryUpdateNode { services } => {
                self.directory.nodes.retain(|n| n.node != services.node);
                self.directory.nodes.push(services);
            }
            KernelMsg::CfgNodeOp { req, node, op } => {
                // Retried request (req 0 marks fire-and-forget callers that
                // never retry): replay the ack without re-running the op.
                if req != RequestId(0) {
                    if let Some(&ok) = self.node_ops_seen.replay(&(from, req)) {
                        ctx.send(from, KernelMsg::CfgAck { req, ok });
                        return;
                    }
                }
                let ok = match op {
                    NodeOp::Start => self.start_node(ctx, node),
                    NodeOp::Shutdown => {
                        self.shutdown_node(ctx, node);
                        true
                    }
                };
                // A refused op is not recorded as seen: the caller's retry
                // after the heal must re-execute it, not replay the refusal.
                if req != RequestId(0) && ok {
                    self.node_ops_seen.record((from, req), true);
                }
                ctx.send(from, KernelMsg::CfgAck { req, ok });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token < REWIRE_TOK_BASE {
            return;
        }
        let node = NodeId((token - REWIRE_TOK_BASE) as u32);
        let Some(left) = self.rewire.get_mut(&node) else {
            return;
        };
        *left -= 1;
        let again = *left > 0;
        if !again {
            self.rewire.remove(&node);
        }
        // Re-send with the *current* directory entry: the GSD may have
        // restarted the WD (new pid) since the node came up.
        let Some(services) = self.directory.node(node).copied() else {
            return;
        };
        self.wire_node(ctx, services);
        if again {
            ctx.set_timer(REWIRE_INTERVAL, token);
        }
    }

    fn name(&self) -> &str {
        "config"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::RequestId;
    use phoenix_sim::{ClusterBuilder, NodeSpec, SimDuration};

    #[test]
    fn topology_and_params_query() {
        let mut w = ClusterBuilder::new()
            .nodes(4, NodeSpec::default())
            .build::<KernelMsg>();
        let topo = ClusterTopology::uniform(2, 2, 1);
        let cfg = w.spawn(
            NodeId(0),
            Box::new(ConfigService::new(topo.clone().into(), KernelParams::fast())),
        );
        let client = ClientHandle::spawn(&mut w, NodeId(1));
        client.send(&mut w, cfg, KernelMsg::CfgQueryTopology { req: RequestId(1) });
        client.send(
            &mut w,
            cfg,
            KernelMsg::CfgSetParam {
                req: RequestId(2),
                key: "hb_interval".into(),
                value: "30s".into(),
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let msgs = client.drain();
        assert!(msgs.iter().any(|(_, m)| matches!(
            m,
            KernelMsg::CfgTopology { topology, .. } if **topology == topo
        )));
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, KernelMsg::CfgAck { ok: true, .. })));
    }

    #[test]
    fn witness_reports_adopt_higher_epoch_only() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let topo = ClusterTopology::uniform(2, 2, 1);
        let cfg = w.spawn(
            NodeId(0),
            Box::new(ConfigService::new(topo.into(), KernelParams::fast())),
        );
        let client = ClientHandle::spawn(&mut w, NodeId(1));
        let report = |val: &str| KernelMsg::CfgSetParam {
            req: RequestId(0),
            key: "regroup_witness".into(),
            value: val.into(),
        };
        client.send(&mut w, cfg, report("2:1"));
        w.run_for(SimDuration::from_millis(5));
        let svc = w.actor_as::<ConfigService>(cfg).unwrap();
        assert_eq!(svc.witness, Some((phoenix_proto::PartitionId(2), 1)));
        // A stale duplicate (same epoch) must not roll the view back.
        client.send(&mut w, cfg, report("0:1"));
        client.send(&mut w, cfg, report("garbage"));
        w.run_for(SimDuration::from_millis(5));
        let svc = w.actor_as::<ConfigService>(cfg).unwrap();
        assert_eq!(svc.witness, Some((phoenix_proto::PartitionId(2), 1)));
        client.send(&mut w, cfg, report("3:2"));
        w.run_for(SimDuration::from_millis(5));
        let svc = w.actor_as::<ConfigService>(cfg).unwrap();
        assert_eq!(svc.witness, Some((phoenix_proto::PartitionId(3), 2)));
    }

    #[test]
    fn shutdown_and_start_node_round_trip() {
        let mut w = ClusterBuilder::new()
            .nodes(4, NodeSpec::default())
            .build::<KernelMsg>();
        let topo = ClusterTopology::uniform(1, 4, 1);
        let cfg = w.spawn(
            NodeId(0),
            Box::new(ConfigService::new(topo.into(), KernelParams::fast())),
        );
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            cfg,
            KernelMsg::CfgNodeOp {
                req: RequestId(3),
                node: NodeId(3),
                op: NodeOp::Shutdown,
            },
        );
        w.run_for(SimDuration::from_millis(5));
        assert!(!w.node(NodeId(3)).up);
        client.send(
            &mut w,
            cfg,
            KernelMsg::CfgNodeOp {
                req: RequestId(4),
                node: NodeId(3),
                op: NodeOp::Start,
            },
        );
        w.run_for(SimDuration::from_millis(5));
        assert!(w.node(NodeId(3)).up);
        // Node daemons respawned: WD, detector, PPM live on node 3.
        assert_eq!(w.pids_on(NodeId(3)).len(), 3);
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::CfgAck { ok: true, .. }))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn duplicate_node_op_replays_ack_without_reexecuting() {
        let mut w = ClusterBuilder::new()
            .nodes(4, NodeSpec::default())
            .build::<KernelMsg>();
        let topo = ClusterTopology::uniform(1, 4, 1);
        let cfg = w.spawn(
            NodeId(0),
            Box::new(ConfigService::new(topo.into(), KernelParams::fast())),
        );
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let op = KernelMsg::CfgNodeOp {
            req: RequestId(7),
            node: NodeId(3),
            op: NodeOp::Start,
        };
        // The same request arrives twice (a retry after a lost ack).
        client.send(&mut w, cfg, op.clone());
        client.send(&mut w, cfg, op);
        w.run_for(SimDuration::from_millis(5));
        // Both copies are acked, but the node was started only once: a
        // re-executed start would spawn a second set of daemons.
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::CfgAck { ok: true, .. }))
            .count();
        assert_eq!(acks, 2);
        assert_eq!(w.pids_on(NodeId(3)).len(), 3);
        let starts = w.trace().count(|e| {
            matches!(e, phoenix_sim::TraceEvent::Milestone { label: "node-started", .. })
        });
        assert_eq!(starts, 1);
    }
}
