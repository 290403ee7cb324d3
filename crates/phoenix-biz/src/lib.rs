//! # phoenix-biz — the business application runtime environment
//!
//! The fourth user environment the paper names (Sec 3): "Business
//! application runtime environment is the core of the business
//! application hosting environment. It manages multi-tier business
//! applications and guarantees their high-availability and
//! load-balancing." The paper evaluates the other environments; this one
//! demonstrates the same kernel interfaces carrying a 7×24 hosting
//! workload:
//!
//! * tiers are deployed through the kernel's **PPM** (tree fan-out);
//! * instance health arrives **event-driven** (the application-state
//!   detector publishes `AppStateChange`);
//! * failed instances are **re-placed** on the least-loaded healthy node
//!   (load balancing via the data bulletin's cluster-wide view);
//! * the runtime itself registers with the **group service** and is
//!   restarted by the GSD if it dies, restoring its deployment from the
//!   **checkpoint service**.

use phoenix_kernel::federation::Member;
use phoenix_kernel::group::RespawnArgs;
use phoenix_kernel::params::KernelParams;
use phoenix_kernel::ppm;
use phoenix_proto::{
    BulletinKey, BulletinQuery, BulletinValue, CheckpointData, ConsumerReg, EventFilter,
    EventPayload, EventType, JobId, KernelMsg, PartitionId, RequestId, ServiceDirectory,
    ServiceKind, TaskSpec,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, ResourceUsage, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Service name in traces, and registry key of the respawn factory.
const NAME: &str = "biz-runtime";
const TOK_RECONCILE: u64 = 2;

/// One tier of a multi-tier business application.
#[derive(Clone, Debug)]
pub struct TierSpec {
    pub(crate) name: &'static str,
    /// Job id namespace for this tier's instances (instance i runs as
    /// `JobId(base + i)`).
    pub(crate) job_base: u64,
    pub(crate) replicas: u32,
    pub(crate) task: TaskSpec,
}

impl TierSpec {
    pub fn new(name: &'static str, job_base: u64, replicas: u32, cpu_load: f64) -> TierSpec {
        TierSpec {
            name,
            job_base,
            replicas,
            task: TaskSpec {
                cpus: 1,
                cpu_load,
                mem_load: 0.15,
                duration_ns: None, // services run until stopped
            },
        }
    }
}

/// A deployed tier instance.
#[derive(Clone, Debug, PartialEq)]
struct Instance {
    job: JobId,
    node: NodeId,
    up: bool,
}

/// The business application runtime actor.
pub(crate) struct BizRuntime {
    member: Member,
    params: KernelParams,
    directory: ServiceDirectory,
    tiers: Vec<TierSpec>,
    /// Nodes the application may use.
    pool: Vec<NodeId>,

    instances: BTreeMap<JobId, Instance>,
    /// Latest resource view per pool node (from the bulletin).
    usage: HashMap<NodeId, ResourceUsage>,
    next_req: u64,
}

impl BizRuntime {
    pub(crate) fn new(
        partition: PartitionId,
        params: KernelParams,
        directory: ServiceDirectory,
        tiers: Vec<TierSpec>,
        pool: Vec<NodeId>,
    ) -> Self {
        let info = directory.partition(partition).copied().unwrap();
        BizRuntime {
            member: Member::new(ServiceKind::UserEnvironment, NAME, info, &params),
            params,
            directory,
            tiers,
            pool,
            instances: BTreeMap::new(),
            usage: HashMap::new(),
            next_req: 0,
        }
    }

    /// Respawned runtime: restores its deployment map from checkpoint.
    pub(crate) fn respawn(
        args: &RespawnArgs,
        directory: ServiceDirectory,
        tiers: Vec<TierSpec>,
        pool: Vec<NodeId>,
    ) -> Self {
        let mut s = Self::new(args.partition, args.params.clone(), directory, tiers, pool);
        s.member = Member::respawn(ServiceKind::UserEnvironment, NAME, args);
        s
    }

    fn req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Load balancing: pick the healthy pool node with the lowest CPU,
    /// breaking ties toward fewer of our own instances.
    fn pick_node(&self, ctx: &Ctx<'_, KernelMsg>, avoid: Option<NodeId>) -> Option<NodeId> {
        let mut best: Option<(f64, usize, NodeId)> = None;
        for &node in &self.pool {
            if Some(node) == avoid || !ctx.node_is_up(node) {
                continue;
            }
            let cpu = self.usage.get(&node).map(|u| u.cpu).unwrap_or(0.0);
            let mine = self.instances.values().filter(|i| i.node == node && i.up).count();
            let cand = (cpu, mine, node);
            best = match best {
                None => Some(cand),
                Some(b) if (cand.0, cand.1) < (b.0, b.1) => Some(cand),
                Some(b) => Some(b),
            };
        }
        best.map(|(_, _, n)| n)
    }

    fn launch(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, task: TaskSpec, node: NodeId) {
        let req = self.req();
        if ppm::exec(ctx, &self.directory, req, job, task, vec![node]) {
            self.instances.insert(
                job,
                Instance {
                    job,
                    node,
                    up: true,
                },
            );
        }
    }

    fn deploy_all(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let tiers = self.tiers.clone();
        for tier in &tiers {
            for r in 0..tier.replicas {
                let job = JobId(tier.job_base + r as u64);
                if self.instances.contains_key(&job) {
                    continue;
                }
                if let Some(node) = self.pick_node(ctx, None) {
                    self.launch(ctx, job, tier.task.clone(), node);
                }
            }
        }
        self.save_state(ctx);
    }

    fn tier_of(&self, job: JobId) -> Option<&TierSpec> {
        self.tiers
            .iter()
            .find(|t| job.0 >= t.job_base && job.0 < t.job_base + t.replicas as u64)
    }

    /// An instance went down: re-place it ("guarantees their
    /// high-availability").
    fn heal(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, failed_node: Option<NodeId>) {
        let Some(tier) = self.tier_of(job).cloned() else {
            return;
        };
        if let Some(inst) = self.instances.get_mut(&job) {
            inst.up = false;
        }
        if let Some(node) = self.pick_node(ctx, failed_node) {
            ctx.trace(TraceEvent::Milestone {
                label: "biz-instance-replaced",
                value: job.0 as f64,
            });
            self.launch(ctx, job, tier.task, node);
            self.save_state(ctx);
        }
    }

    fn save_state(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Reuse the scheduler checkpoint shape: jobs + their nodes.
        let running: Vec<(JobId, Vec<NodeId>)> = self
            .instances
            .values()
            .filter(|i| i.up)
            .map(|i| (i.job, vec![i.node]))
            .collect();
        let queued = vec![];
        let state = CheckpointData::Scheduler { queued, running };
        self.member.save(ctx, state);
    }

    /// Current endpoints per tier (the "router table" a front end would
    /// use); read by tests and examples through `EndpointsReport`.
    fn endpoints(&self) -> BTreeMap<&'static str, Vec<NodeId>> {
        let mut out: BTreeMap<&'static str, Vec<NodeId>> = BTreeMap::new();
        for tier in &self.tiers {
            let nodes: Vec<NodeId> = self
                .instances
                .values()
                .filter(|i| {
                    i.up && i.job.0 >= tier.job_base
                        && i.job.0 < tier.job_base + tier.replicas as u64
                })
                .map(|i| i.node)
                .collect();
            out.insert(tier.name, nodes);
        }
        out
    }

    /// Periodic reconcile: refresh the load view from the bulletin and
    /// report endpoints as a trace milestone (observability hook).
    fn reconcile(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let req = self.req();
        ctx.send(
            self.member.info().bulletin,
            KernelMsg::DbQuery {
                req,
                query: BulletinQuery::Resources,
            },
        );
        let up = self.instances.values().filter(|i| i.up).count();
        ctx.trace(TraceEvent::Milestone {
            label: "biz-endpoints-up",
            value: up as f64,
        });
        ctx.set_timer(self.params.detector_sample, TOK_RECONCILE);
    }
}

impl Actor<KernelMsg> for BizRuntime {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.member.start(ctx, NAME);
        ctx.send(
            self.member.info().event,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: ctx.pid(),
                    filter: EventFilter::types(&[
                        EventType::AppStateChange,
                        EventType::NodeFault,
                    ]),
                },
            },
        );
        if !self.member.restore(ctx) {
            self.deploy_all(ctx);
        }
        ctx.set_timer(self.params.detector_sample, TOK_RECONCILE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, _from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::EsNotify { event } => match event.payload {
                EventPayload::AppLifecycle {
                    job,
                    node,
                    up: false,
                } => {
                    // Only our jobs, and only if we believe it is up
                    // (deletion echoes are filtered by the up flag).
                    let known_up = self
                        .instances
                        .get(&job)
                        .map(|i| i.up && i.node == node)
                        .unwrap_or(false);
                    if known_up && self.tier_of(job).is_some() {
                        self.heal(ctx, job, Some(node));
                    }
                }
                EventPayload::Node(node) if event.etype == EventType::NodeFault => {
                    let affected: Vec<JobId> = self
                        .instances
                        .values()
                        .filter(|i| i.up && i.node == node)
                        .map(|i| i.job)
                        .collect();
                    for job in affected {
                        self.heal(ctx, job, Some(node));
                    }
                }
                _ => {}
            },
            KernelMsg::DbResp { entries, .. } => {
                for e in entries.iter() {
                    if let (BulletinKey::Resource(n), BulletinValue::Resource(u)) =
                        (&e.key, &e.value)
                    {
                        self.usage.insert(*n, *u);
                    }
                }
            }
            KernelMsg::CkLoadResp { data, .. } if self.member.restoring() => {
                if let Some(CheckpointData::Scheduler { running, .. }) =
                    self.member.recovered(ctx, data)
                {
                    for (job, nodes) in running {
                        if let Some(&node) = nodes.first() {
                            self.instances.insert(job, Instance { job, node, up: true });
                        }
                    }
                }
                // Fill any gaps (instances that died while we were down
                // get re-deployed by deploy_all's contains_key check —
                // dead ones are still in the map, so reconcile via
                // liveness events going forward).
                self.deploy_all(ctx);
            }
            // Queue-status style introspection: reuse PwsQueueStatus as the
            // endpoints query (the console asks "what's serving where").
            KernelMsg::PwsQueueStatus { req, .. } => {
                let rows: Vec<phoenix_proto::QueueRow> = self
                    .endpoints()
                    .into_iter()
                    .flat_map(|(tier, nodes)| {
                        let tier_spec = self.tiers.iter().find(|t| t.name == tier).unwrap();
                        nodes.into_iter().enumerate().map(move |(i, n)| {
                            phoenix_proto::QueueRow {
                                job: JobId(tier_spec.job_base + i as u64),
                                pool: tier.to_string(),
                                user: phoenix_proto::UserId::new("webapp"),
                                state: phoenix_proto::JobState::Running,
                                nodes: vec![n],
                            }
                        })
                    })
                    .collect();
                ctx.send(_from, KernelMsg::PwsQueueStatusResp { req, rows });
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_RECONCILE => self.reconcile(ctx),
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        NAME
    }
}

/// Install a business runtime on a partition server, with a respawn
/// factory registered so the GSD keeps it available.
pub fn install_biz(
    world: &mut phoenix_sim::World<KernelMsg>,
    cluster: &phoenix_kernel::PhoenixCluster,
    partition: PartitionId,
    tiers: Vec<TierSpec>,
    pool: Vec<NodeId>,
) -> Pid {
    {
        let tiers = tiers.clone();
        let pool = pool.clone();
        let directory = cluster.directory.clone();
        cluster.registry.borrow_mut().register(
            NAME,
            Box::new(move |args| {
                Box::new(BizRuntime::respawn(
                    args,
                    directory.clone(),
                    tiers.clone(),
                    pool.clone(),
                ))
            }),
        );
    }
    let server = cluster.topology.partitions[partition.index()].server;
    let rt = BizRuntime::new(
        partition,
        cluster.params.clone(),
        cluster.directory.clone(),
        tiers,
        pool,
    );
    world.spawn(server, Box::new(rt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::boot::boot_and_stabilize;
    use phoenix_kernel::client::ClientHandle;
    use phoenix_kernel::KernelParams;
    use phoenix_proto::ClusterTopology;
    use phoenix_sim::{Fault, SimDuration};

    fn app() -> Vec<TierSpec> {
        vec![
            TierSpec::new("web", 1_000, 2, 0.3),
            TierSpec::new("app", 2_000, 2, 0.4),
            TierSpec::new("db", 3_000, 1, 0.5),
        ]
    }

    fn endpoints(
        w: &mut phoenix_sim::World<KernelMsg>,
        client: &ClientHandle,
        rt: Pid,
    ) -> Vec<phoenix_proto::QueueRow> {
        client.send(
            w,
            rt,
            KernelMsg::PwsQueueStatus {
                req: RequestId(555),
                pool: None,
            },
        );
        w.run_for(SimDuration::from_millis(10));
        client
            .drain()
            .into_iter()
            .find_map(|(_, m)| match m {
                KernelMsg::PwsQueueStatusResp { rows, .. } => Some(rows),
                _ => None,
            })
            .unwrap_or_default()
    }

    #[test]
    fn deploys_all_tiers_spread_across_pool() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 5, 1), KernelParams::fast(), 61);
        let pool: Vec<NodeId> = cluster
            .topology
            .partitions
            .iter()
            .flat_map(|p| p.compute.iter().copied())
            .collect();
        let rt = install_biz(&mut w, &cluster, PartitionId(0), app(), pool.clone());
        w.run_for(SimDuration::from_secs(3));
        let client = ClientHandle::spawn(&mut w, pool[0]);
        let rows = endpoints(&mut w, &client, rt);
        assert_eq!(rows.len(), 5, "2 web + 2 app + 1 db instances: {rows:?}");
        // Load balancing: 5 instances over 6 nodes → no node hosts 3+.
        let mut per_node: HashMap<NodeId, usize> = HashMap::new();
        for r in &rows {
            *per_node.entry(r.nodes[0]).or_default() += 1;
        }
        assert!(per_node.values().all(|&c| c <= 2), "{per_node:?}");
    }

    #[test]
    fn instance_process_failure_is_replaced() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 5, 1), KernelParams::fast(), 62);
        let pool: Vec<NodeId> = cluster
            .topology
            .partitions
            .iter()
            .flat_map(|p| p.compute.iter().copied())
            .collect();
        let rt = install_biz(&mut w, &cluster, PartitionId(0), app(), pool.clone());
        w.run_for(SimDuration::from_secs(3));
        let client = ClientHandle::spawn(&mut w, pool[0]);
        let before = endpoints(&mut w, &client, rt);
        assert_eq!(before.len(), 5);

        // Kill one tier instance's process (the app proc is the newest
        // pid on its node beyond the three daemons).
        let victim_node = before[0].nodes[0];
        let victim = w.pids_on(victim_node).into_iter().max().unwrap();
        w.kill_process(victim);
        // The detector notices on its next scan, publishes the event, the
        // runtime re-places the instance.
        w.run_for(SimDuration::from_secs(4));
        let after = endpoints(&mut w, &client, rt);
        assert_eq!(after.len(), 5, "instance replaced: {after:?}");
        let replaced = w
            .trace()
            .count(|e| matches!(e, TraceEvent::Milestone { label: "biz-instance-replaced", .. }));
        assert!(replaced >= 1);
    }

    #[test]
    fn node_fault_relocates_instances() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 5, 1), KernelParams::fast(), 63);
        let pool: Vec<NodeId> = cluster
            .topology
            .partitions
            .iter()
            .flat_map(|p| p.compute.iter().copied())
            .collect();
        let rt = install_biz(&mut w, &cluster, PartitionId(0), app(), pool.clone());
        w.run_for(SimDuration::from_secs(3));
        let client = ClientHandle::spawn(&mut w, cluster.topology.partitions[0].server);
        let before = endpoints(&mut w, &client, rt);
        let victim_node = before[0].nodes[0];
        w.apply_fault(Fault::CrashNode(victim_node));
        w.run_for(SimDuration::from_secs(6));
        let after = endpoints(&mut w, &client, rt);
        assert_eq!(after.len(), 5, "all tiers serving again: {after:?}");
        assert!(
            after.iter().all(|r| r.nodes[0] != victim_node),
            "no endpoint on the dead node"
        );
    }

    #[test]
    fn runtime_itself_is_highly_available() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 5, 1), KernelParams::fast(), 64);
        let pool: Vec<NodeId> = cluster
            .topology
            .partitions
            .iter()
            .flat_map(|p| p.compute.iter().copied())
            .collect();
        let rt = install_biz(&mut w, &cluster, PartitionId(0), app(), pool.clone());
        w.run_for(SimDuration::from_secs(3));
        // Kill the runtime; the GSD restarts it from the factory and it
        // restores its deployment map from the checkpoint service.
        w.kill_process(rt);
        w.run_for(SimDuration::from_secs(4));
        // Find the replacement via ServiceUp traces.
        let new_rt = w
            .trace()
            .records()
            .iter()
            .rev()
            .find_map(|r| match r.event {
                TraceEvent::ServiceUp {
                    pid,
                    service: "biz-runtime",
                    ..
                } if pid != rt => Some(pid),
                _ => None,
            })
            .expect("runtime restarted");
        assert!(w.is_alive(new_rt));
        let client = ClientHandle::spawn(&mut w, pool[0]);
        let rows = endpoints(&mut w, &client, new_rt);
        assert_eq!(rows.len(), 5, "deployment restored from checkpoint");
    }
}
