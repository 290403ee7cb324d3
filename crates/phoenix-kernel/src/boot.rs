//! The system construction tool ("behaves like the BIOS and kernel booting
//! module of a host operating system", paper Sec 3): builds a complete
//! Phoenix cluster inside a simulation world.
//!
//! Boot order: configuration + security services first, then per-partition
//! server-node services (GSD, event, bulletin, checkpoint), then per-node
//! daemons (WD, detector, PPM agent). Once every pid exists the driver
//! assembles the [`ServiceDirectory`] and delivers it to every service in a
//! `Boot` message; services wire themselves from it.

use crate::bulletin::DataBulletin;
use crate::checkpoint::CheckpointService;
use crate::config::ConfigService;
use crate::detect::Detector;
use crate::event::EventService;
use crate::group::gsd::BootMembers;
use crate::group::{kernel_factory_key, shared_registry, Gsd, SharedRegistry, Wd};
use crate::params::KernelParams;
use crate::ppm::PpmAgent;
use crate::security::SecurityService;
use phoenix_proto::{
    ClusterTopology, KernelMsg, MemberInfo, NodeServices, PartitionId, Role, ServiceDirectory,
    ServiceKind, Shared,
};
use phoenix_sim::{
    ClusterBuilder, NetParams, NodeId, NodeSpec, Pid, SchedulerKind, SimDuration, World,
};

/// Handle to a booted Phoenix cluster.
pub struct PhoenixCluster {
    /// The one topology config and every GSD hold.
    pub topology: Shared<ClusterTopology>,
    pub params: KernelParams,
    pub directory: ServiceDirectory,
    pub registry: SharedRegistry,
}

impl PhoenixCluster {
    /// Pid of the partition-0 data bulletin — a convenient single access
    /// point (any instance works).
    pub fn bulletin(&self) -> Pid {
        self.directory.partitions[0].bulletin
    }

    /// Pid of the partition-0 event service.
    pub fn event(&self) -> Pid {
        self.directory.partitions[0].event
    }

    /// Pid of a partition's GSD.
    pub fn gsd(&self, partition: usize) -> Pid {
        self.directory.partitions[partition].gsd
    }

    pub fn config(&self) -> Pid {
        self.directory.config
    }

    pub fn security(&self) -> Pid {
        self.directory.security
    }

    /// Link-level island (`Fault::Partition`) of every node of the given
    /// topology partitions. The mask has 64 bits; nodes past it stay out.
    pub fn island_mask(&self, parts: &[usize]) -> u64 {
        let mut mask = 0u64;
        for &p in parts {
            for n in self.topology.partitions[p].all_nodes() {
                mask |= 1u64.checked_shl(n.0).unwrap_or(0);
            }
        }
        mask
    }

    /// Every live GSD in `world`, by node then pid.
    pub fn live_gsds(world: &World<KernelMsg>) -> Vec<GsdView> {
        let nodes = (0..world.node_count()).map(|n| NodeId(n as u32));
        nodes
            .flat_map(|node| world.pids_on(node).into_iter().map(move |pid| (node, pid)))
            .filter_map(|(node, pid)| {
                let g = world.actor_as::<Gsd>(pid)?;
                Some(GsdView {
                    pid,
                    node,
                    partition: g.partition_id(),
                    role: g.role_name(),
                    leader: g.leader_view(),
                })
            })
            .collect()
    }

    /// The meta-group's steady state on the role level: one live GSD per
    /// partition, exactly one leader, nobody frozen.
    pub fn roles_converged(&self, world: &World<KernelMsg>) -> bool {
        let gsds = Self::live_gsds(world);
        let owners = |p| gsds.iter().filter(|g| g.partition == p).count();
        self.topology.partitions.iter().all(|p| owners(p.id) == 1)
            && gsds.iter().filter(|g| g.role == "leader").count() == 1
            && gsds.iter().all(|g| g.role != "frozen")
    }
}

/// A live GSD as the harnesses see it from outside the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GsdView {
    pub pid: Pid,
    pub node: NodeId,
    pub partition: PartitionId,
    /// `Gsd::role_name`: "leader" / "princess" / "member" / "orphan" /
    /// "frozen".
    pub role: &'static str,
    /// The partition this GSD believes leads the meta-group.
    pub leader: Option<PartitionId>,
}

/// Default user accounts installed at boot.
pub(crate) fn default_accounts() -> Vec<(&'static str, &'static str, Role)> {
    vec![
        ("constructor", "c0nstruct", Role::SystemConstructor),
        ("admin", "adm1n", Role::SystemAdministrator),
        ("alice", "alice-secret", Role::ScientificUser),
        ("bob", "bob-secret", Role::ScientificUser),
        ("webapp", "w3bapp", Role::BusinessUser),
    ]
}

/// Build a simulation world shaped like `topology` (3 NICs per node, like
/// the Dawning 4000A) and boot a full Phoenix kernel onto it.
pub fn boot_cluster(
    topology: ClusterTopology,
    params: KernelParams,
    seed: u64,
) -> (World<KernelMsg>, PhoenixCluster) {
    boot_cluster_with_net(topology, params, seed, NetParams::default())
}

/// [`boot_cluster`] with explicit interconnect parameters — the way lossy
/// experiments configure message loss, duplication and reorder jitter.
pub fn boot_cluster_with_net(
    topology: ClusterTopology,
    params: KernelParams,
    seed: u64,
    net: NetParams,
) -> (World<KernelMsg>, PhoenixCluster) {
    boot_cluster_custom(topology, params, seed, net, SchedulerKind::default(), false)
}

/// [`boot_cluster_with_net`], optionally recording the world's
/// dispatched-event stream (the differential suite checks and pins it).
/// Every world runs the timer wheel; the [`SchedulerKind`] argument has
/// one value and stays only because the benchmark passes it.
pub fn boot_cluster_custom(
    topology: ClusterTopology,
    params: KernelParams,
    seed: u64,
    net: NetParams,
    _scheduler: SchedulerKind,
    record_events: bool,
) -> (World<KernelMsg>, PhoenixCluster) {
    let mut world = ClusterBuilder::new()
        .nodes(topology.node_count(), NodeSpec::default())
        .net(net)
        .seed(seed)
        .record_events(record_events)
        .build::<KernelMsg>();
    let registry = shared_registry();
    let topology = Shared::new(topology);
    let boot_members = BootMembers::default();
    let security_key = 0x5EC0_0151;

    // Cluster-wide singletons live on the first server node.
    let first_server = topology.partitions[0].server;
    let config = world.spawn(
        first_server,
        Box::new(ConfigService::new(Shared::clone(&topology), params.clone())),
    );
    let security = world.spawn(
        first_server,
        Box::new(SecurityService::new(security_key, &default_accounts())),
    );

    // Per-partition services on each server node.
    let mut partitions: Vec<MemberInfo> = Vec::with_capacity(topology.partitions.len());
    for spec in &topology.partitions {
        let p = spec.id;
        let topo = Shared::clone(&topology);
        let gsd = Gsd::new(p, params.clone(), topo, config, registry.clone(), boot_members.clone());
        let gsd = world.spawn(spec.server, Box::new(gsd));
        let event = world.spawn(spec.server, Box::new(EventService::new(p, params.clone())));
        let bulletin = world.spawn(spec.server, Box::new(DataBulletin::new(p, params.clone())));
        let checkpoint = world.spawn(
            spec.server,
            Box::new(CheckpointService::new(p, params.clone())),
        );
        partitions.push(MemberInfo {
            partition: p,
            node: spec.server,
            gsd,
            event,
            bulletin,
            checkpoint,
            host_ppm: Pid(0), // patched below once PPM agents exist
        });
    }

    // Node daemons everywhere.
    let mut nodes: Vec<NodeServices> = Vec::with_capacity(topology.node_count());
    for spec in &topology.partitions {
        for node in spec.all_nodes() {
            let wd = world.spawn(node, Box::new(Wd::new(node, spec.id, params.ft.hb_interval)));
            let detector = world.spawn(
                node,
                Box::new(Detector::new(node, spec.id, params.clone())),
            );
            let ppm = world.spawn(node, Box::new(PpmAgent::new(node)));
            nodes.push(NodeServices {
                node,
                wd,
                detector,
                ppm,
            });
        }
    }

    // Patch host_ppm now that PPM agents exist.
    for m in &mut partitions {
        if let Some(ns) = nodes.iter().find(|n| n.node == m.node) {
            m.host_ppm = ns.ppm;
        }
    }

    let directory = ServiceDirectory {
        config,
        security,
        partitions,
        nodes,
    };

    // Register respawn factories for the per-partition kernel services.
    {
        let mut reg = registry.borrow_mut();
        for spec in &topology.partitions {
            let p = spec.id;
            reg.register(
                kernel_factory_key(ServiceKind::Event, p),
                Box::new(|args| Box::new(EventService::respawn(args))),
            );
            reg.register(
                kernel_factory_key(ServiceKind::DataBulletin, p),
                Box::new(|args| Box::new(DataBulletin::respawn(args))),
            );
            reg.register(
                kernel_factory_key(ServiceKind::Checkpoint, p),
                Box::new(|args| Box::new(CheckpointService::respawn(args))),
            );
        }
    }

    // Deliver the directory to every service; the GSDs share one ring list.
    let _ = boot_members.set(Shared::new(directory.partitions.clone()));
    let boot = KernelMsg::Boot(directory.clone().into());
    world.inject(config, boot.clone());
    for m in &directory.partitions {
        for pid in [m.gsd, m.event, m.bulletin, m.checkpoint] {
            world.inject(pid, boot.clone());
        }
    }
    for ns in &directory.nodes {
        for pid in [ns.wd, ns.detector, ns.ppm] {
            world.inject(pid, boot.clone());
        }
    }

    let cluster = PhoenixCluster {
        topology,
        params,
        directory,
        registry,
    };
    (world, cluster)
}

/// Boot and run the world briefly so every service finishes initializing.
pub fn boot_and_stabilize(
    topology: ClusterTopology,
    params: KernelParams,
    seed: u64,
) -> (World<KernelMsg>, PhoenixCluster) {
    let (mut world, cluster) = boot_cluster(topology, params, seed);
    world.run_for(SimDuration::from_millis(50));
    (world, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::TraceEvent;

    #[test]
    fn boot_brings_every_service_up() {
        let topo = ClusterTopology::uniform(2, 4, 1);
        let (w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 1);
        // 2 singletons + 2×4 partition services + 8×3 node daemons.
        assert_eq!(w.live_processes(), 2 + 8 + 24);
        assert_eq!(cluster.directory.partitions.len(), 2);
        assert_eq!(cluster.directory.nodes.len(), 8);
        let ups = w
            .trace()
            .count(|e| matches!(e, TraceEvent::ServiceUp { .. }));
        assert!(ups >= 2 + 8 + 24);
    }

    #[test]
    fn gsd_roles_assigned() {
        let topo = ClusterTopology::uniform(3, 3, 1);
        let (w, _cluster) = boot_and_stabilize(topo, KernelParams::fast(), 2);
        let leader = w
            .trace()
            .count(|e| matches!(e, TraceEvent::RoleChange { role: "leader", .. }));
        let princess = w
            .trace()
            .count(|e| matches!(e, TraceEvent::RoleChange { role: "princess", .. }));
        assert_eq!(leader, 1);
        assert_eq!(princess, 1);
    }

    #[test]
    fn heartbeats_flow_after_boot() {
        let topo = ClusterTopology::uniform(2, 3, 1);
        let (mut w, _cluster) = boot_and_stabilize(topo, KernelParams::fast(), 3);
        w.run_for(SimDuration::from_secs(3));
        let hb = w.metrics().label("hb");
        // 6 nodes × 3 NICs × ≥3 intervals.
        assert!(hb.sent >= 54, "wd heartbeats: {}", hb.sent);
        let meta = w.metrics().label("meta");
        assert!(meta.sent > 0, "ring heartbeats flow");
    }

    #[test]
    fn registry_has_factories_for_all_partitions() {
        let topo = ClusterTopology::uniform(4, 3, 1);
        let (_w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 4);
        let mut reg = cluster.registry.borrow_mut();
        for p in 0..4u32 {
            let partition = phoenix_proto::PartitionId(p);
            let local = *cluster.directory.partition(partition).unwrap();
            let action = phoenix_sim::RecoveryAction::RestartedInPlace;
            let list = phoenix_proto::Shared::new(vec![local]);
            let args = crate::federation::respawn_args(&local, &list, action, &cluster.params);
            for kind in [
                ServiceKind::Event,
                ServiceKind::DataBulletin,
                ServiceKind::Checkpoint,
            ] {
                let key = kernel_factory_key(kind, partition);
                assert!(reg.build(&key, &args).is_some(), "no factory for {key}");
            }
        }
    }
}
