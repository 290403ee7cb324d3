//! The PBS-style baseline (paper Fig 7).
//!
//! "Main modules of PBS include user interface, scheduling, resource
//! monitoring, configuration, parallel process management." This actor is
//! the monolithic central server the paper contrasts PWS against:
//!
//! * resource state is collected by **polling** every node continuously
//!   ("PBS needs polling continually and consumes network bandwidth"),
//! * scheduling is FIFO over one global pool,
//! * there is **no** high-availability support ("PBS doesn't guarantee
//!   it") — the server is not supervised by any GSD.
//!
//! Job launch reuses the same PPM agents so the comparison isolates the
//! resource-collection and HA design, which is what Sec 5.4 compares.

use crate::policy::PolicyKind;
use crate::pool::{Placement, Pool};
use phoenix_kernel::ppm;
use phoenix_proto::{JobId, KernelMsg, RequestId, ServiceDirectory};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, ResourceUsage, SimDuration, TraceEvent};
use std::collections::{BTreeMap, HashMap};

const TOK_POLL: u64 = 1;
const TOK_SCHED: u64 = 2;

/// The poll rounds that bracket a running job: it is complete when
/// consecutive polls show it nowhere.
struct PollStamp {
    started: u64,
    last_seen: u64,
}

/// The central PBS server actor.
pub struct PbsServer {
    directory: ServiceDirectory,
    nodes: Vec<NodeId>,
    poll_interval: SimDuration,
    sched_interval: SimDuration,

    usage: HashMap<NodeId, ResourceUsage>,
    /// Queue, placements and free nodes: one global pool, strict FIFO.
    pool: Pool,
    /// Ordered by job id, like the pool's running table: completion sends.
    stamps: BTreeMap<JobId, PollStamp>,
    poll_round: u64,
    next_req: u64,
}

impl PbsServer {
    pub(crate) fn new(
        directory: ServiceDirectory,
        nodes: Vec<NodeId>,
        poll_interval: SimDuration,
    ) -> Self {
        PbsServer {
            pool: Pool::new("pbs", &nodes, PolicyKind::Fifo),
            directory,
            nodes,
            poll_interval,
            sched_interval: SimDuration::from_millis(500),
            usage: HashMap::new(),
            stamps: BTreeMap::new(),
            poll_round: 0,
            next_req: 0,
        }
    }

    fn req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Poll every node's detector for resources and running jobs — the
    /// traffic the paper calls out.
    fn poll_all(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.poll_round += 1;
        let req = RequestId(self.poll_round);
        for &node in &self.nodes {
            if let Some(ns) = self.directory.node(node) {
                ctx.send(ns.detector, KernelMsg::PbsPoll { req });
            }
        }
        ctx.set_timer(self.poll_interval, TOK_POLL);
    }

    fn schedule_pass(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Completion is polled for: PBS never asks the pool what is overdue.
        while let Some(Placement { job, task, nodes }) = self.pool.place(ctx.now().as_nanos()) {
            let req = self.req();
            ppm::exec(ctx, &self.directory, req, job, task, nodes);
            ctx.trace(TraceEvent::Milestone {
                label: "pbs-job-dispatched",
                value: job.0 as f64,
            });
            let (started, last_seen) = (self.poll_round, self.poll_round);
            self.stamps.insert(job, PollStamp { started, last_seen });
        }
    }

    /// Completion detection by polling: a job unseen for two full poll
    /// rounds (after a warm-up round) is finished.
    fn reap(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let round = self.poll_round;
        let gone = |j: &PollStamp| round > j.started + 1 && round > j.last_seen + 1;
        let done = self
            .stamps
            .iter()
            .filter(|(_, j)| gone(j))
            .map(|(&id, _)| id);
        for id in done.collect::<Vec<JobId>>() {
            self.stamps.remove(&id);
            self.pool.finish(id);
            ctx.trace(TraceEvent::Milestone {
                label: "pbs-job-completed",
                value: id.0 as f64,
            });
        }
    }
}

impl Actor<KernelMsg> for PbsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("pbs-server");
        self.poll_all(ctx);
        ctx.set_timer(self.sched_interval, TOK_SCHED);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::PbsPollResp {
                node, usage, jobs, ..
            } => {
                self.usage.insert(node, usage);
                for job in jobs {
                    if let Some(j) = self.stamps.get_mut(&job) {
                        j.last_seen = self.poll_round;
                    }
                }
            }
            // PBS accepts submissions without the kernel security service
            // (its own simple ACL is out of scope for the comparison).
            KernelMsg::PwsSubmit { req, spec, .. } => {
                let mut spec = spec;
                spec.submitted_ns = ctx.now().as_nanos();
                self.pool.submit(spec);
                ctx.send(
                    from,
                    KernelMsg::PwsSubmitResp {
                        req,
                        accepted: true,
                        reason: String::new(),
                    },
                );
                self.schedule_pass(ctx);
            }
            KernelMsg::PwsQueueStatus { req, .. } => {
                let rows = self.pool.rows();
                ctx.send(from, KernelMsg::PwsQueueStatusResp { req, rows });
            }
            KernelMsg::PpmExecAck { .. } => {
                // Launch acks are informational for PBS (completion is
                // detected by polling).
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_POLL => {
                self.reap(ctx);
                self.poll_all(ctx);
            }
            TOK_SCHED => {
                self.schedule_pass(ctx);
                ctx.set_timer(self.sched_interval, TOK_SCHED);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "pbs-server"
    }
}
