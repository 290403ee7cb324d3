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
//!
//! The actor routes and the [`Pool`] decides: authorization round trips,
//! supervision, saves, traces, telemetry, timers and every send are here;
//! what is queued, what runs where and who holds which node are there.

use crate::policy::PolicyKind;
use crate::pool::{Lender, Placement, Pool};
use phoenix_kernel::federation::Member;
use phoenix_kernel::group::RespawnArgs;
use phoenix_kernel::params::KernelParams;
use phoenix_kernel::ppm;
use phoenix_proto::{
    Action, AuthToken, CheckpointData, ConsumerReg, Event, EventFilter, EventPayload, EventType, JobId,
    JobSpec, KernelMsg, MemberInfo, PartitionId, RequestId, ServiceDirectory, ServiceKind,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration, SimTime, TraceEvent};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

const TOK_TICK: u64 = 2;
/// Scheduling pass interval.
const TICK: SimDuration = SimDuration::from_millis(500);

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
    pub(crate) name: String,
    /// Nodes the pool owns.
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) policy: PolicyKind,
}

impl PoolConfig {
    pub fn new(name: &str, nodes: Vec<NodeId>, policy: PolicyKind) -> PoolConfig {
        PoolConfig {
            name: name.to_string(),
            nodes,
            policy,
        }
    }
}

/// What a client is waiting for while the security service checks its token.
enum Asked {
    Submit(JobSpec),
    Cancel(JobId),
}

/// The PWS scheduler actor for one pool.
pub struct PwsScheduler {
    cfg: PoolConfig,
    pool: Pool,
    member: Member,
    params: KernelParams,
    directory: ServiceDirectory,
    pools: PoolDirectory,

    security: Pid,
    config: Pid,

    /// Token checks in flight, by check id: who asked, under which request
    /// id, for what.
    pending_auth: HashMap<u64, (Pid, RequestId, Asked)>,
    pending_lease: Option<u64>,
    next_req: u64,
    /// Each running job's launch: when it went out, and the targets that
    /// have not acked it yet (`ppm.fanout.flight`).
    launches: HashMap<JobId, (SimTime, Vec<NodeId>)>,
}

impl PwsScheduler {
    /// Boot-time scheduler.
    pub(crate) fn new(
        cfg: PoolConfig,
        partition: PartitionId,
        params: KernelParams,
        directory: ServiceDirectory,
        pools: PoolDirectory,
    ) -> Self {
        let info = directory.partition(partition).copied();
        let info = info.unwrap_or(MemberInfo::unwired(partition));
        let key = Self::factory_key(&cfg.name);
        PwsScheduler {
            pool: Pool::new(&cfg.name, &cfg.nodes, cfg.policy),
            member: Member::new(ServiceKind::UserEnvironment, key, info, &params),
            security: directory.security,
            config: directory.config,
            cfg,
            params,
            directory,
            pools,
            pending_auth: HashMap::new(),
            pending_lease: None,
            next_req: 0,
            launches: HashMap::new(),
        }
    }

    /// Respawned scheduler: restores queue/placements from checkpoint.
    pub(crate) fn respawn(
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
    pub(crate) fn factory_key(pool: &str) -> String {
        format!("sched:{pool}")
    }

    fn save_state(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.member.save(ctx, self.pool.snapshot());
    }

    fn publish_job_event(&self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId) {
        let event = Event::new(EventType::JobStateChange, ctx.node(), EventPayload::Job(job));
        ctx.send(self.member.info().event, KernelMsg::EsPublish { event });
    }

    /// One scheduling pass: start as many jobs as the policy allows.
    fn schedule_pass(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Reap slack: the task's own duration plus enough to ride out an
        // event-service outage (a few heartbeat intervals).
        let slack = 4 * self.params.ft.hb_interval.as_nanos() + 2_000_000_000;
        while let Some(placed) = self.pool.place(ctx.now().as_nanos() + slack) {
            self.launch(ctx, placed);
        }
        // Leasing: if the queue head still cannot run, ask peers for the
        // shortfall ("dynamic leasing among different pools").
        if self.pending_lease.is_none() {
            let shortfall = self.pool.shortfall() as u32;
            if shortfall > 0 {
                self.request_lease(ctx, shortfall);
            }
        }
    }

    /// The other pools' schedulers, in pool-name order.
    fn peers(&self) -> Vec<Pid> {
        let dir = self.pools.borrow();
        let others = dir.iter().filter(|(name, _)| **name != self.cfg.name);
        others.map(|(_, &pid)| pid).collect()
    }

    fn request_lease(&mut self, ctx: &mut Ctx<'_, KernelMsg>, nodes: u32) {
        let peers = self.peers();
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
                    from_pool: self.cfg.name.clone(),
                    nodes,
                },
            );
        }
    }

    /// Launch a placement through PPM, announce it and save.
    fn launch(&mut self, ctx: &mut Ctx<'_, KernelMsg>, placed: Placement) {
        let (req, Placement { job, task, nodes }) = (self.req(), placed);
        if ppm::exec(ctx, &self.directory, req, job, task, nodes.clone()) {
            phoenix_telemetry::counter_add("pws.jobs.dispatched", 1);
            self.launches.insert(job, (ctx.now(), nodes));
        }
        self.publish_job_event(ctx, job);
        self.save_state(ctx);
        ctx.trace(TraceEvent::Milestone {
            label: "job-dispatched",
            value: job.0 as f64,
        });
    }

    /// Tear `job`'s tasks down on `targets` through PPM; false if no delete
    /// could be sent.
    fn delete(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, targets: Vec<NodeId>) -> bool {
        let req = self.req();
        ppm::delete(ctx, &self.directory, req, job, targets)
    }

    /// A task of `job` is gone from `node`; the last one out finishes the job.
    fn task_exited(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, node: NodeId) {
        if self.pool.exited(job, node) {
            self.finish_job(ctx, job, false);
        }
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, failed: bool) {
        self.launches.remove(&job);
        let Some(returns) = self.pool.finish(job) else {
            return;
        };
        // Leased nodes go back to their owners. A restart forgets who they
        // are: then every peer hears, and only the owner takes a node back.
        for (lender, nodes) in returns {
            let homes = match lender {
                Lender::Pool(name) => Vec::from_iter(self.pools.borrow().get(&name).copied()),
                Lender::Unknown => self.peers(),
            };
            for pid in homes {
                let nodes = nodes.clone();
                ctx.send(pid, KernelMsg::PoolLeaseReturn { nodes });
            }
        }
        self.publish_job_event(ctx, job);
        self.save_state(ctx);
        ctx.trace(TraceEvent::Milestone {
            label: if failed {
                "job-failed"
            } else {
                "job-completed"
            },
            value: job.0 as f64,
        });
        self.schedule_pass(ctx);
    }

    /// Completion-event safety net: tasks announce their exit through the
    /// event service, but an event published into a dead or migrating ES
    /// instance is lost. Jobs that are well past their run time are swept
    /// with an idempotent PPM delete, whose acks drive normal completion.
    fn reap_overdue(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        for job in self.pool.overdue(ctx.now().as_nanos()) {
            ctx.trace(TraceEvent::Milestone {
                label: "job-reaped",
                value: job.0 as f64,
            });
            let alive = self.pool.reap(job, |n| ctx.node_is_up(n));
            if alive.is_empty() || !self.delete(ctx, job, alive) {
                self.finish_job(ctx, job, false);
            }
        }
    }

    /// The security service answered the token check behind a submit or a
    /// cancel.
    /// Ask the security service whether `token` may do `action`; `asked`
    /// (who asked, under which request id, for what) waits for the answer.
    fn authorize(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        token: AuthToken,
        action: Action,
        asked: (Pid, RequestId, Asked),
    ) {
        let req = self.req();
        ctx.send(self.security, KernelMsg::SecCheck { req, token, action });
        self.pending_auth.insert(req.0, asked);
    }

    fn on_checked(&mut self, ctx: &mut Ctx<'_, KernelMsg>, check: RequestId, allowed: bool) {
        let Some((client, req, asked)) = self.pending_auth.remove(&check.0) else {
            return;
        };
        match asked {
            Asked::Submit(mut spec) => {
                if allowed {
                    spec.submitted_ns = ctx.now().as_nanos();
                    self.pool.submit(spec);
                    self.save_state(ctx);
                }
                let reason = if allowed { "" } else { "authorization denied" };
                ctx.send(
                    client,
                    KernelMsg::PwsSubmitResp {
                        req,
                        accepted: allowed,
                        reason: reason.into(),
                    },
                );
                if allowed {
                    self.schedule_pass(ctx);
                }
            }
            Asked::Cancel(job) => {
                let mut ok = false;
                if allowed {
                    if self.pool.cancel_queued(job) {
                        ok = true;
                        self.save_state(ctx);
                    } else if let Some(nodes) = self.pool.nodes_of(job) {
                        // Tear the tasks down through PPM.
                        self.delete(ctx, job, nodes);
                        ok = true;
                    }
                }
                ctx.send(client, KernelMsg::PwsCancelResp { req, ok });
            }
        }
    }

    /// The pool a scheduler pid belongs to, for lease bookkeeping.
    fn pool_of(&self, pid: Pid) -> Option<String> {
        let dir = self.pools.borrow();
        let found = dir.iter().find(|(_, &p)| p == pid);
        found.map(|(name, _)| name.clone())
    }
}

impl Actor<KernelMsg> for PwsScheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.pools
            .borrow_mut()
            .insert(self.cfg.name.clone(), ctx.pid());
        self.member.start(ctx, "pws-sched");
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
        ctx.set_timer(TICK, TOK_TICK);
        self.member.restore(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::PwsSubmit { req, token, spec } => {
                self.authorize(ctx, token, Action::SubmitJob, (from, req, Asked::Submit(spec)))
            }
            KernelMsg::PwsCancel { req, token, job } => {
                self.authorize(ctx, token, Action::CancelJob, (from, req, Asked::Cancel(job)))
            }
            KernelMsg::SecCheckResp { req, allowed } => self.on_checked(ctx, req, allowed),
            KernelMsg::PpmExecAck { job, node, ok: true, .. } => {
                // The exec reached `node` when its first ok ack left: that
                // is the tree fan-out's flight to it.
                if let Some((at, unacked)) = self.launches.get_mut(&job) {
                    let before = unacked.len();
                    unacked.retain(|&n| n != node);
                    if unacked.len() < before {
                        let sent = ctx.sent_at().0;
                        phoenix_telemetry::flight("ppm.fanout.flight", "ppm", node.0, at.0, sent);
                    }
                }
            }
            KernelMsg::PpmExecAck { job, ok: false, .. } => {
                // Launch failure: tear down and mark failed.
                if let Some(nodes) = self.pool.nodes_of(job) {
                    self.delete(ctx, job, nodes);
                    self.finish_job(ctx, job, true);
                }
            }
            KernelMsg::PpmDeleteAck { job, node, .. } => self.task_exited(ctx, job, node),
            KernelMsg::EsNotify { event } => match event.payload {
                EventPayload::AppLifecycle {
                    job,
                    node,
                    up: false,
                } => self.task_exited(ctx, job, node),
                EventPayload::Node(node) if event.etype == EventType::NodeFault => {
                    // A job with a task on the dead node fails.
                    if let Some((job, others)) = self.pool.node_down(node) {
                        self.delete(ctx, job, others);
                        self.finish_job(ctx, job, true);
                    }
                }
                EventPayload::Node(node) if event.etype == EventType::NodeRecovery => {
                    self.pool.node_up(node);
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
            KernelMsg::PoolLeaseReq { req, nodes, .. } => {
                let granted = self.pool.grant(nodes as usize);
                ctx.send(from, KernelMsg::PoolLeaseResp { req, granted });
            }
            KernelMsg::PoolLeaseResp { req, granted } => {
                if self.pending_lease == Some(req.0) {
                    self.pending_lease = None;
                }
                // Without the lender's name the nodes could never go home.
                let lender = if granted.is_empty() {
                    None
                } else {
                    self.pool_of(from)
                };
                if let Some(lender) = lender {
                    self.pool.borrow(&lender, &granted);
                    self.schedule_pass(ctx);
                }
            }
            KernelMsg::PoolLeaseReturn { nodes } => {
                self.pool.take_back(&nodes);
                self.schedule_pass(ctx);
            }
            KernelMsg::PwsJobStatus { req, job } => {
                let (state, nodes) = self.pool.status(job);
                ctx.send(from, KernelMsg::PwsJobStatusResp { req, state, nodes });
            }
            KernelMsg::PwsQueueStatus { req, .. } => {
                let rows = self.pool.rows();
                ctx.send(from, KernelMsg::PwsQueueStatusResp { req, rows });
            }
            KernelMsg::CfgDirectory { directory, .. } => {
                self.directory = *directory;
                self.schedule_pass(ctx);
            }
            KernelMsg::CkLoadResp { data, .. } if self.member.restoring() => {
                if let Some(CheckpointData::Scheduler { queued, running }) =
                    self.member.recovered(ctx, data)
                {
                    // Restored across a restart: we no longer know the
                    // original durations, so give every placement one
                    // generous reap window from now.
                    let window = 8 * self.params.ft.hb_interval.as_nanos() + 10_000_000_000;
                    self.pool
                        .restore(queued, running, ctx.now().as_nanos() + window);
                }
                self.schedule_pass(ctx);
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_TICK => {
                self.reap_overdue(ctx);
                self.schedule_pass(ctx);
                ctx.set_timer(TICK, TOK_TICK);
            }
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        "pws-sched"
    }
}
