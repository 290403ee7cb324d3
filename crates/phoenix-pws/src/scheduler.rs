//! The PWS pool scheduler.
//!
//! One scheduler actor per pool, hosted on a partition server node and
//! supervised by that partition's GSD (the paper's "scheduling service
//! group for different pools is created on the basis of group service with
//! high availability guaranteed"). Resource state arrives *event-driven*
//! through the kernel — an initial bulletin pull plus event-service
//! notifications — in contrast to PBS's continuous polling (paper Sec 5.4
//! property 2). Queue and placements are checkpointed so a restarted
//! scheduler resumes where it left off.

use crate::policy::{pick, PolicyCtx, PolicyKind};
use phoenix_kernel::federation::{Member, TOK_HB};
use phoenix_kernel::group::RespawnArgs;
use phoenix_kernel::params::KernelParams;
use phoenix_proto::{
    Action, AuthToken, CheckpointData, ConsumerReg, Event, EventFilter, EventPayload, EventType,
    JobId, JobSpec, KernelMsg, MemberInfo, PartitionId, QueueRow, RequestId, ServiceDirectory,
    ServiceKind, Shared,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration, TraceEvent};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

const TOK_TICK: u64 = 2;

/// Shared pool→scheduler-pid directory (a stand-in for a name service;
/// updated by each scheduler instance as it starts). Ordered by pool name:
/// lease requests go out in its iteration order.
pub type PoolDirectory = Rc<RefCell<BTreeMap<String, Pid>>>;

/// Create an empty pool directory.
pub fn pool_directory() -> PoolDirectory {
    Rc::new(RefCell::new(BTreeMap::new()))
}

/// Static configuration of one scheduling pool.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    pub name: String,
    /// Nodes the pool owns.
    pub nodes: Vec<NodeId>,
    pub policy: PolicyKind,
    /// Scheduling pass interval.
    pub tick: SimDuration,
    /// May this pool lease nodes from / lend nodes to others?
    pub leasing: bool,
}

impl PoolConfig {
    pub fn new(name: &str, nodes: Vec<NodeId>, policy: PolicyKind) -> PoolConfig {
        PoolConfig {
            name: name.to_string(),
            nodes,
            policy,
            tick: SimDuration::from_millis(500),
            leasing: true,
        }
    }
}

/// A dispatched job.
struct RunningJob {
    spec: JobSpec,
    nodes: Vec<NodeId>,
    /// Nodes whose task has not yet finished.
    outstanding: BTreeSet<NodeId>,
    /// Nodes borrowed from other pools for this job, to return on exit.
    leased: Vec<(String, Vec<NodeId>)>,
    /// Launch acks still missing.
    unacked: BTreeSet<NodeId>,
    /// Virtual time when the job must be presumed finished even if its
    /// completion events were lost (e.g. published into a migrating
    /// event service). `None` for unbounded services.
    reap_deadline_ns: Option<u64>,
    /// A reap sweep has been issued for this job.
    reaping: bool,
}

/// The PWS scheduler actor for one pool.
pub struct PwsScheduler {
    pool: PoolConfig,
    member: Member,
    params: KernelParams,
    directory: ServiceDirectory,
    pools: PoolDirectory,

    security: Pid,
    config: Pid,

    queued: Vec<JobSpec>,
    /// Ordered by job id: this is the order of the saved placements and of
    /// every sweep that sends.
    running: BTreeMap<JobId, RunningJob>,
    free: BTreeSet<NodeId>,
    /// Nodes lent out, by borrowing pool.
    lent: HashMap<String, Vec<NodeId>>,
    /// Nodes borrowed and not yet assigned to a job.
    borrowed_idle: HashMap<String, Vec<NodeId>>,
    usage: HashMap<phoenix_proto::UserId, f64>,
    dead_nodes: BTreeSet<NodeId>,

    pending_auth: HashMap<u64, (Pid, RequestId, JobSpec)>,
    pending_cancel: HashMap<u64, (Pid, RequestId, JobId)>,
    pending_lease: Option<u64>,
    next_req: u64,
}

impl PwsScheduler {
    /// Boot-time scheduler.
    pub fn new(
        pool: PoolConfig,
        partition: PartitionId,
        params: KernelParams,
        directory: ServiceDirectory,
        pools: PoolDirectory,
    ) -> Self {
        let info = directory.partition(partition).copied();
        let info = info.unwrap_or(MemberInfo::unwired(partition));
        let free: BTreeSet<NodeId> = pool.nodes.iter().copied().collect();
        let key = Self::factory_key(&pool.name);
        PwsScheduler {
            member: Member::new(ServiceKind::UserEnvironment, key, info),
            security: directory.security,
            config: directory.config,
            pool,
            params,
            directory,
            pools,
            queued: Vec::new(),
            running: BTreeMap::new(),
            free,
            lent: HashMap::new(),
            borrowed_idle: HashMap::new(),
            usage: HashMap::new(),
            dead_nodes: BTreeSet::new(),
            pending_auth: HashMap::new(),
            pending_cancel: HashMap::new(),
            pending_lease: None,
            next_req: 0,
        }
    }

    /// Respawned scheduler: restores queue/placements from checkpoint.
    pub fn respawn(
        pool: PoolConfig,
        args: &RespawnArgs,
        directory: ServiceDirectory,
        pools: PoolDirectory,
    ) -> Self {
        let key = Self::factory_key(&pool.name);
        let mut s = Self::new(pool, args.partition, args.params.clone(), directory, pools);
        s.member = Member::respawn(ServiceKind::UserEnvironment, key, args);
        s
    }

    fn req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Registry key of the respawn factory of the scheduler of `pool`.
    pub fn factory_key(pool: &str) -> String {
        format!("sched:{pool}")
    }

    fn save_state(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        let running: Vec<(JobId, Vec<NodeId>)> = self
            .running
            .iter()
            .map(|(&id, r)| (id, r.nodes.clone()))
            .collect();
        let queued = self.queued.clone();
        let state = CheckpointData::Scheduler { queued, running };
        self.member.save(ctx, state);
    }

    fn publish_job_event(&self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId) {
        ctx.send(
            self.member.info().event,
            KernelMsg::EsPublish {
                event: Event::new(
                    EventType::JobStateChange,
                    ctx.node(),
                    EventPayload::Job(job),
                ),
            },
        );
    }

    /// One scheduling pass: start as many jobs as the policy allows.
    fn schedule_pass(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        loop {
            let ctx_p = PolicyCtx {
                free_nodes: self.free.len(),
                usage: &self.usage,
            };
            let Some(i) = pick(self.pool.policy, &self.queued, &ctx_p) else {
                break;
            };
            let spec = self.queued.remove(i);
            self.dispatch(ctx, spec);
        }
        // Leasing: if the queue head still cannot run, ask peers for the
        // shortfall ("dynamic leasing among different pools").
        if self.pool.leasing && self.pending_lease.is_none() {
            if let Some(head) = self.queued.first() {
                let need = head.nodes as usize;
                if need > self.free.len() {
                    let shortfall = (need - self.free.len()) as u32;
                    self.request_lease(ctx, shortfall);
                }
            }
        }
    }

    fn request_lease(&mut self, ctx: &mut Ctx<'_, KernelMsg>, nodes: u32) {
        let peers: Vec<Pid> = {
            let dir = self.pools.borrow();
            dir.iter()
                .filter(|(name, _)| **name != self.pool.name)
                .map(|(_, &pid)| pid)
                .collect()
        };
        if peers.is_empty() {
            return;
        }
        let req = self.req();
        self.pending_lease = Some(req.0);
        for p in peers {
            ctx.send(
                p,
                KernelMsg::PoolLeaseReq {
                    req,
                    from_pool: self.pool.name.clone(),
                    nodes,
                },
            );
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, KernelMsg>, spec: JobSpec) {
        let n = spec.nodes as usize;
        // Prefer own nodes, then borrowed ones (tracked for return).
        let mut nodes: Vec<NodeId> = Vec::with_capacity(n);
        let mut leased: Vec<(String, Vec<NodeId>)> = Vec::new();
        while nodes.len() < n {
            if let Some(&node) = self.free.iter().next() {
                self.free.remove(&node);
                // Is this a borrowed node?
                let mut owner: Option<String> = None;
                for (pool, list) in &mut self.borrowed_idle {
                    if let Some(pos) = list.iter().position(|&x| x == node) {
                        list.remove(pos);
                        owner = Some(pool.clone());
                        break;
                    }
                }
                if let Some(pool) = owner {
                    match leased.iter_mut().find(|(p, _)| *p == pool) {
                        Some((_, l)) => l.push(node),
                        None => leased.push((pool, vec![node])),
                    }
                }
                nodes.push(node);
            } else {
                break;
            }
        }
        if nodes.len() < n {
            // Could not gather enough nodes after all; put the job back.
            for node in nodes {
                self.free.insert(node);
            }
            self.queued.insert(0, spec);
            return;
        }
        let req = self.req();
        let job = spec.id;
        // Launch through PPM: the tree fan-out starts at the first target.
        if let Some(first) = nodes.first().and_then(|n| self.directory.node(*n)) {
            phoenix_telemetry::counter_add("pws.jobs.dispatched", 1);
            // Each target measures its own tree-propagation latency when the
            // exec reaches it (ppm.fanout.flight in the PPM agent).
            for &node in &nodes {
                phoenix_telemetry::mark(
                    "ppm.fanout.flight",
                    phoenix_telemetry::key(&[req.0, job.0, node.0 as u64]),
                );
            }
            ctx.send(
                first.ppm,
                KernelMsg::PpmExec {
                    req,
                    job,
                    task: spec.task.clone(),
                    targets: nodes.clone(),
                    reply_to: ctx.pid(),
                },
            );
        }
        // Reap slack: the task's own duration plus enough to ride out an
        // event-service outage (a few heartbeat intervals).
        let reap_deadline_ns = spec.task.duration_ns.map(|d| {
            ctx.now().as_nanos() + d + 4 * self.params.ft.hb_interval.as_nanos() + 2_000_000_000
        });
        self.running.insert(
            job,
            RunningJob {
                spec,
                outstanding: nodes.iter().copied().collect(),
                unacked: nodes.iter().copied().collect(),
                nodes,
                leased,
                reap_deadline_ns,
                reaping: false,
            },
        );
        self.publish_job_event(ctx, job);
        self.save_state(ctx);
        ctx.trace(TraceEvent::Milestone {
            label: "job-dispatched",
            value: job.0 as f64,
        });
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, failed: bool) {
        let Some(r) = self.running.remove(&job) else {
            return;
        };
        // Account usage: nodes × requested duration (node-seconds).
        let dur = r
            .spec
            .task
            .duration_ns
            .map(|d| d as f64 / 1e9)
            .unwrap_or(0.0);
        *self.usage.entry(r.spec.user.clone()).or_default() += r.nodes.len() as f64 * dur;
        // Return leased nodes to their owners.
        for (pool, nodes) in &r.leased {
            let target = self.pools.borrow().get(pool).copied();
            if let Some(pid) = target {
                ctx.send(pid, KernelMsg::PoolLeaseReturn { nodes: nodes.clone() });
            }
        }
        // Own nodes go back to the free set (unless dead).
        let leased_flat: Vec<NodeId> = r
            .leased
            .iter()
            .flat_map(|(_, ns)| ns.iter().copied())
            .collect();
        for node in r.nodes {
            if !leased_flat.contains(&node) && !self.dead_nodes.contains(&node) {
                self.free.insert(node);
            }
        }
        self.publish_job_event(ctx, job);
        self.save_state(ctx);
        ctx.trace(TraceEvent::Milestone {
            label: if failed { "job-failed" } else { "job-completed" },
            value: job.0 as f64,
        });
        self.schedule_pass(ctx);
    }

    /// Completion-event safety net: tasks announce their exit through the
    /// event service, but an event published into a dead or migrating ES
    /// instance is lost. Jobs that are well past their run time are swept
    /// with an idempotent PPM delete, whose acks drive normal completion.
    fn reap_overdue(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now().as_nanos();
        let overdue: Vec<(JobId, Vec<NodeId>)> = self
            .running
            .iter()
            .filter(|(_, r)| !r.reaping && r.reap_deadline_ns.map(|d| now > d).unwrap_or(false))
            .map(|(&id, r)| (id, r.outstanding.iter().copied().collect()))
            .collect();
        for (job, outstanding) in overdue {
            ctx.trace(TraceEvent::Milestone {
                label: "job-reaped",
                value: job.0 as f64,
            });
            // Dead nodes can never ack the cleanup delete: count their
            // tasks as finished up front so the alive acks close the job.
            let alive: Vec<NodeId> = outstanding
                .iter()
                .copied()
                .filter(|n| !self.dead_nodes.contains(n) && ctx.node_is_up(*n))
                .collect();
            if let Some(r) = self.running.get_mut(&job) {
                r.reaping = true;
                r.outstanding = alive.iter().copied().collect();
            }
            if alive.is_empty() {
                self.finish_job(ctx, job, false);
                continue;
            }
            let req = self.req();
            if let Some(first) = alive.first().and_then(|n| self.directory.node(*n)) {
                ctx.send(
                    first.ppm,
                    KernelMsg::PpmDelete {
                        req,
                        job,
                        targets: alive,
                        reply_to: ctx.pid(),
                    },
                );
            } else {
                self.finish_job(ctx, job, false);
            }
        }
    }

    fn check_token(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        token: AuthToken,
        action: Action,
    ) -> RequestId {
        let req = self.req();
        ctx.send(
            self.security,
            KernelMsg::SecCheck { req, token, action },
        );
        req
    }
}

impl Actor<KernelMsg> for PwsScheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.member.started(ctx, "pws-sched");
        self.pools
            .borrow_mut()
            .insert(self.pool.name.clone(), ctx.pid());
        self.member.register(ctx);
        self.member.beat(ctx, self.params.ft.hb_interval);
        // Event-driven resource view: app lifecycle + node health.
        ctx.send(
            self.member.info().event,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: ctx.pid(),
                    filter: EventFilter::types(&[
                        EventType::AppStateChange,
                        EventType::NodeFault,
                        EventType::NodeRecovery,
                    ]),
                },
            },
        );
        ctx.set_timer(self.pool.tick, TOK_TICK);
        if self.member.restoring() {
            self.member.load(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::PartitionView { members, local } => {
                // On every view, unlike the kernel kinds: this registration
                // announces nothing, and it makes the GSD re-save its roster
                // to the checkpoint instance the view may have replaced.
                self.member.wire(local, &members);
                self.member.register(ctx);
            }
            KernelMsg::PwsSubmit { req, token, spec } => {
                let auth = self.check_token(ctx, token, Action::SubmitJob);
                self.pending_auth.insert(auth.0, (from, req, spec));
            }
            KernelMsg::PwsCancel { req, token, job } => {
                let auth = self.check_token(ctx, token, Action::CancelJob);
                self.pending_cancel.insert(auth.0, (from, req, job));
            }
            KernelMsg::SecCheckResp { req, allowed } => {
                if let Some((client, creq, mut spec)) = self.pending_auth.remove(&req.0) {
                    if allowed {
                        spec.submitted_ns = ctx.now().as_nanos();
                        self.queued.push(spec);
                        self.save_state(ctx);
                        ctx.send(
                            client,
                            KernelMsg::PwsSubmitResp {
                                req: creq,
                                accepted: true,
                                reason: String::new(),
                            },
                        );
                        self.schedule_pass(ctx);
                    } else {
                        ctx.send(
                            client,
                            KernelMsg::PwsSubmitResp {
                                req: creq,
                                accepted: false,
                                reason: "authorization denied".into(),
                            },
                        );
                    }
                } else if let Some((client, creq, job)) = self.pending_cancel.remove(&req.0) {
                    let mut ok = false;
                    if allowed {
                        if let Some(pos) = self.queued.iter().position(|j| j.id == job) {
                            self.queued.remove(pos);
                            ok = true;
                            self.save_state(ctx);
                        } else if let Some(nodes) =
                            self.running.get(&job).map(|r| r.nodes.clone())
                        {
                            // Tear the tasks down through PPM.
                            let req2 = self.req();
                            if let Some(first) =
                                nodes.first().and_then(|n| self.directory.node(*n))
                            {
                                ctx.send(
                                    first.ppm,
                                    KernelMsg::PpmDelete {
                                        req: req2,
                                        job,
                                        targets: nodes.clone(),
                                        reply_to: ctx.pid(),
                                    },
                                );
                            }
                            ok = true;
                        }
                    }
                    ctx.send(client, KernelMsg::PwsCancelResp { req: creq, ok });
                }
            }
            KernelMsg::PpmExecAck { job, node, ok, .. } => {
                let failed = !ok;
                if let Some(r) = self.running.get_mut(&job) {
                    r.unacked.remove(&node);
                    if failed {
                        // Launch failure: tear down and mark failed.
                        let nodes = r.nodes.clone();
                        let req2 = self.req();
                        if let Some(first) =
                            nodes.first().and_then(|n| self.directory.node(*n))
                        {
                            ctx.send(
                                first.ppm,
                                KernelMsg::PpmDelete {
                                    req: req2,
                                    job,
                                    targets: nodes,
                                    reply_to: ctx.pid(),
                                },
                            );
                        }
                        self.finish_job(ctx, job, true);
                    }
                }
            }
            KernelMsg::PpmDeleteAck { job, node, .. } => {
                let done = if let Some(r) = self.running.get_mut(&job) {
                    r.outstanding.remove(&node);
                    r.outstanding.is_empty()
                } else {
                    false
                };
                if done {
                    self.finish_job(ctx, job, false);
                }
            }
            KernelMsg::EsNotify { event } => match event.payload {
                EventPayload::AppLifecycle {
                    job,
                    node,
                    up: false,
                } => {
                    let done = if let Some(r) = self.running.get_mut(&job) {
                        r.outstanding.remove(&node);
                        r.outstanding.is_empty()
                    } else {
                        false
                    };
                    if done {
                        self.finish_job(ctx, job, false);
                    }
                }
                EventPayload::Node(node) if event.etype == EventType::NodeFault => {
                    self.free.remove(&node);
                    self.dead_nodes.insert(node);
                    // Jobs with a task on the dead node fail.
                    let affected: Vec<JobId> = self
                        .running
                        .iter()
                        .filter(|(_, r)| r.nodes.contains(&node))
                        .map(|(&id, _)| id)
                        .collect();
                    for job in affected {
                        if let Some(r) = self.running.get(&job) {
                            let others: Vec<NodeId> = r
                                .nodes
                                .iter()
                                .copied()
                                .filter(|&n| n != node)
                                .collect();
                            let req2 = self.req();
                            if let Some(first) =
                                others.first().and_then(|n| self.directory.node(*n))
                            {
                                ctx.send(
                                    first.ppm,
                                    KernelMsg::PpmDelete {
                                        req: req2,
                                        job,
                                        targets: others,
                                        reply_to: ctx.pid(),
                                    },
                                );
                            }
                        }
                        self.finish_job(ctx, job, true);
                    }
                }
                EventPayload::Node(node) if event.etype == EventType::NodeRecovery => {
                    if self.dead_nodes.remove(&node) && self.pool.nodes.contains(&node) {
                        self.free.insert(node);
                    }
                    // The returned node's daemons have fresh pids: refresh
                    // the directory before dispatching anything to it.
                    if self.config != Pid(0) {
                        let req = self.req();
                        ctx.send(self.config, KernelMsg::CfgQueryDirectory { req });
                    } else {
                        self.schedule_pass(ctx);
                    }
                }
                _ => {}
            },
            KernelMsg::PoolLeaseReq {
                req,
                from_pool,
                nodes,
            } => {
                // Grant from our own free nodes only (never re-lend).
                let own_free: Vec<NodeId> = self
                    .free
                    .iter()
                    .copied()
                    .filter(|n| self.pool.nodes.contains(n))
                    .take(nodes as usize)
                    .collect();
                for n in &own_free {
                    self.free.remove(n);
                }
                if !own_free.is_empty() {
                    self.lent
                        .entry(from_pool)
                        .or_default()
                        .extend(own_free.iter().copied());
                }
                ctx.send(from, KernelMsg::PoolLeaseResp { req, granted: own_free });
            }
            KernelMsg::PoolLeaseResp { req, granted } => {
                if self.pending_lease == Some(req.0) {
                    self.pending_lease = None;
                }
                if !granted.is_empty() {
                    // Find the lender's pool name for bookkeeping.
                    let lender = {
                        let dir = self.pools.borrow();
                        dir.iter()
                            .find(|(_, &pid)| pid == from)
                            .map(|(name, _)| name.clone())
                    };
                    if let Some(lender) = lender {
                        self.borrowed_idle
                            .entry(lender)
                            .or_default()
                            .extend(granted.iter().copied());
                        self.free.extend(granted);
                        self.schedule_pass(ctx);
                    }
                }
            }
            KernelMsg::PoolLeaseReturn { nodes } => {
                for node in nodes {
                    // Back from a borrower: only our own nodes return here.
                    for list in self.lent.values_mut() {
                        list.retain(|&n| n != node);
                    }
                    if self.pool.nodes.contains(&node) && !self.dead_nodes.contains(&node) {
                        self.free.insert(node);
                    }
                }
                self.schedule_pass(ctx);
            }
            KernelMsg::PwsJobStatus { req, job } => {
                let (state, nodes) = if self.queued.iter().any(|j| j.id == job) {
                    (Some(phoenix_proto::JobState::Queued), vec![])
                } else if let Some(r) = self.running.get(&job) {
                    (Some(phoenix_proto::JobState::Running), r.nodes.clone())
                } else {
                    (None, vec![])
                };
                ctx.send(from, KernelMsg::PwsJobStatusResp { req, state, nodes });
            }
            KernelMsg::PwsQueueStatus { req, .. } => {
                let mut rows: Vec<QueueRow> = self
                    .queued
                    .iter()
                    .map(|j| QueueRow {
                        job: j.id,
                        pool: self.pool.name.clone(),
                        user: j.user.clone(),
                        state: phoenix_proto::JobState::Queued,
                        nodes: vec![],
                    })
                    .collect();
                rows.extend(self.running.values().map(|r| QueueRow {
                    job: r.spec.id,
                    pool: self.pool.name.clone(),
                    user: r.spec.user.clone(),
                    state: phoenix_proto::JobState::Running,
                    nodes: r.nodes.clone(),
                }));
                rows.sort_by_key(|r| r.job);
                ctx.send(from, KernelMsg::PwsQueueStatusResp { req, rows });
            }
            KernelMsg::CfgDirectory { directory, .. } => {
                self.directory = *directory;
                self.schedule_pass(ctx);
            }
            KernelMsg::CkLoadResp { data, .. } => {
                if self.member.restoring() {
                    if let Some(CheckpointData::Scheduler { queued, running }) =
                        data.map(Shared::unwrap_or_clone)
                    {
                        self.queued = queued;
                        // Restored placements: assume still running; app
                        // exit events will complete them.
                        for (job, nodes) in running {
                            for n in &nodes {
                                self.free.remove(n);
                            }
                            // Restored across a restart: we no longer know
                            // the original duration, so give the job one
                            // generous reap window from now.
                            let reap_deadline_ns = Some(
                                ctx.now().as_nanos()
                                    + 8 * self.params.ft.hb_interval.as_nanos()
                                    + 10_000_000_000,
                            );
                            self.running.insert(
                                job,
                                RunningJob {
                                    spec: JobSpec::simple(job.0, "restored", &self.pool.name, 0),
                                    outstanding: nodes.iter().copied().collect(),
                                    unacked: BTreeSet::new(),
                                    nodes,
                                    leased: Vec::new(),
                                    reap_deadline_ns,
                                    reaping: false,
                                },
                            );
                        }
                    }
                    self.member.restored(ctx);
                    self.schedule_pass(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_HB => self.member.beat(ctx, self.params.ft.hb_interval),
            TOK_TICK => {
                self.reap_overdue(ctx);
                self.schedule_pass(ctx);
                ctx.set_timer(self.pool.tick, TOK_TICK);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "pws-sched"
    }
}
