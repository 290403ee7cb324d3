//! Parallel process management (PPM).
//!
//! Paper Sec 4.2: "Parallel process management service performs efficient
//! remote jobs loading, deleting, and resource cleaning up, which is a
//! basic module of Phoenix kernel."
//!
//! A `PpmAgent` runs on every node. Job loads and deletes are forwarded
//! down a binomial tree over the target set, so launching a task on `n`
//! nodes takes `O(log n)` message latency instead of `O(n)` sequential
//! sends — the "efficient remote jobs loading" of the paper. Each agent
//! acknowledges directly to the requester.
//!
//! The agent spawns [`AppProc`] actors: simulated application processes
//! that register with the node's application-state detector, drive their
//! configured resource load, and exit after their run time.

use crate::directory::NodeTable;
use crate::rpc::DedupWindow;
use phoenix_proto::{JobId, KernelMsg, RequestId, ServiceDirectory, TaskSpec};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration};
use std::collections::HashMap;

/// A simulated application process: one task of a job on one node.
pub(crate) struct AppProc {
    job: JobId,
    task: TaskSpec,
    detector: Pid,
    agent: Pid,
}

const TOK_DONE: u64 = 1;

impl Actor<KernelMsg> for AppProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.send(
            self.detector,
            KernelMsg::AppStarted {
                job: self.job,
                pid: ctx.pid(),
                task: self.task.clone(),
            },
        );
        if let Some(d) = self.task.duration_ns {
            ctx.set_timer(SimDuration::from_nanos(d), TOK_DONE);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, KernelMsg>, _from: Pid, _msg: KernelMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_DONE {
            let exited = KernelMsg::AppExited {
                job: self.job,
                pid: ctx.pid(),
                failed: false,
            };
            ctx.send(self.detector, exited.clone());
            ctx.send(self.agent, exited);
            ctx.kill(ctx.pid());
        }
    }

    fn name(&self) -> &str {
        "app"
    }
}

/// Client side of a load: start `task` of `job` on `targets`, each of which
/// acks to the caller. False, and nothing sent, when [`request`] finds no agent.
pub fn exec(
    ctx: &mut Ctx<'_, KernelMsg>,
    directory: &ServiceDirectory,
    req: RequestId,
    job: JobId,
    task: TaskSpec,
    targets: Vec<NodeId>,
) -> bool {
    let reply_to = ctx.pid();
    let load = KernelMsg::PpmExec {
        req,
        job,
        task,
        targets,
        reply_to,
    };
    request(ctx, directory, load)
}

/// Client side of a delete: kill `job`'s tasks on `targets` and clean up
/// (idempotent), each target acking to the caller. False as for [`exec`].
pub fn delete(
    ctx: &mut Ctx<'_, KernelMsg>,
    directory: &ServiceDirectory,
    req: RequestId,
    job: JobId,
    targets: Vec<NodeId>,
) -> bool {
    let reply_to = ctx.pid();
    let delete = KernelMsg::PpmDelete {
        req,
        job,
        targets,
        reply_to,
    };
    request(ctx, directory, delete)
}

/// Hand a load or delete to the agent of its first target, where the tree
/// fan-out starts. False, and nothing sent, when `directory` does not know
/// that node.
fn request(ctx: &mut Ctx<'_, KernelMsg>, directory: &ServiceDirectory, mut msg: KernelMsg) -> bool {
    let first = targets_mut(&mut msg).and_then(|targets| targets.first().copied());
    let Some(agent) = first.and_then(|node| directory.node(node)) else {
        return false;
    };
    ctx.send(agent.ppm, msg);
    true
}

/// The targets of a load or delete.
fn targets_mut(msg: &mut KernelMsg) -> Option<&mut Vec<NodeId>> {
    match msg {
        KernelMsg::PpmExec { targets, .. } | KernelMsg::PpmDelete { targets, .. } => Some(targets),
        _ => None,
    }
}

/// The ack an agent sent as a target, kept to replay for a duplicate: a
/// `KernelMsg` is 144 B, this is 24.
#[derive(Clone, Copy)]
enum Ack {
    Exec { req: RequestId, job: JobId, ok: bool },
    Delete { req: RequestId, job: JobId },
}

impl Ack {
    fn msg(self, node: NodeId) -> KernelMsg {
        match self {
            Ack::Exec { req, job, ok } => KernelMsg::PpmExecAck { req, job, node, ok },
            Ack::Delete { req, job } => KernelMsg::PpmDeleteAck { req, job, node },
        }
    }
}

/// The per-node PPM agent.
pub(crate) struct PpmAgent {
    node: NodeId,
    /// Every node's daemons: PPM agents for tree forwarding, this node's
    /// detector for the apps it starts.
    table: NodeTable,
    /// Local app processes by job.
    jobs: HashMap<JobId, Pid>,
    /// Requests already processed, with the ack sent for them (if this
    /// node was a target). A duplicated tree message replays the ack and
    /// is not re-executed or re-forwarded.
    seen: DedupWindow<(Pid, u64), Option<Ack>>,
}

impl PpmAgent {
    pub(crate) fn new(node: NodeId) -> Self {
        PpmAgent {
            node,
            table: NodeTable::default(),
            jobs: HashMap::new(),
            seen: DedupWindow::new(64),
        }
    }

    /// This node's detector, told about the apps the agent starts and kills.
    fn detector(&self) -> Pid {
        self.table.get(self.node).map_or(Pid(0), |ns| ns.detector)
    }

    /// A load or delete: this node's part if it is a target, acked to the
    /// requester, then the other targets down the binomial tree. A
    /// duplicate (network duplication or an upstream retry) gets its
    /// recorded ack replayed and is neither re-executed nor re-forwarded.
    fn on_request(&mut self, ctx: &mut Ctx<'_, KernelMsg>, mut msg: KernelMsg) {
        let (KernelMsg::PpmExec {
            req, job, reply_to, ..
        }
        | KernelMsg::PpmDelete {
            req, job, reply_to, ..
        }) = msg
        else {
            return;
        };
        if let Some(cached) = self.seen.replay(&(reply_to, req.0)) {
            if let Some(ack) = *cached {
                ctx.send(reply_to, ack.msg(self.node));
            }
            return;
        }
        let mut targets = targets_mut(&mut msg)
            .map(std::mem::take)
            .unwrap_or_default();
        let asked = targets.len();
        targets.retain(|&t| t != self.node);
        let node = self.node;
        let ack = (targets.len() < asked).then(|| {
            let ack = match &msg {
                KernelMsg::PpmExec { task, .. } => {
                    phoenix_telemetry::counter_add("ppm.execs.handled", 1);
                    let ok = !self.jobs.contains_key(&job);
                    if ok {
                        let (task, detector, agent) = (task.clone(), self.detector(), ctx.pid());
                        let app = AppProc {
                            job,
                            task,
                            detector,
                            agent,
                        };
                        self.jobs.insert(job, ctx.spawn(node, Box::new(app)));
                    }
                    Ack::Exec { req, job, ok }
                }
                _ => {
                    // Kill the task and clean up: the detector is told the
                    // app is gone so resource accounting resets.
                    if let Some(pid) = self.jobs.remove(&job) {
                        ctx.kill(pid);
                        let failed = false;
                        ctx.send(self.detector(), KernelMsg::AppExited { job, pid, failed });
                    }
                    Ack::Delete { req, job }
                }
            };
            ctx.send(reply_to, ack.msg(node));
            ack
        });
        self.seen.record((reply_to, req.0), ack);
        // Repeatedly delegate the far half to its first node.
        while !targets.is_empty() {
            let take = targets.len().div_ceil(2);
            let sub: Vec<NodeId> = targets.split_off(targets.len() - take);
            if let Some(head) = self.table.get(sub[0]) {
                phoenix_telemetry::counter_add("ppm.tree.forwards", 1);
                let mut forward = msg.clone();
                if let Some(targets) = targets_mut(&mut forward) {
                    *targets = sub;
                }
                ctx.send(head.ppm, forward);
            }
            // An unknown head silently drops that subtree; the requester's
            // ack count exposes the loss.
        }
    }
}

impl Actor<KernelMsg> for PpmAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("ppm");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => self.table.wire(dir),
            KernelMsg::DirectoryUpdateNode { services } => self.table.update(services),
            KernelMsg::ProbeReq { req } => {
                ctx.send(from, KernelMsg::ProbeResp { req });
            }
            KernelMsg::PpmExec { .. } | KernelMsg::PpmDelete { .. } => self.on_request(ctx, msg),
            KernelMsg::AppExited { job, .. } => {
                self.jobs.remove(&job);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "ppm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::{NodeServices, RequestId, ServiceDirectory};
    use phoenix_sim::{ClusterBuilder, NodeSpec, World};

    /// Build n nodes each with a PPM agent and a stub detector (client).
    fn setup(n: u32) -> (World<KernelMsg>, Vec<Pid>, ClientHandle) {
        let mut w = ClusterBuilder::new()
            .nodes(n as usize, NodeSpec::default())
            .build::<KernelMsg>();
        let det = ClientHandle::spawn(&mut w, NodeId(0));
        let agents: Vec<Pid> = (0..n)
            .map(|i| w.spawn(NodeId(i), Box::new(PpmAgent::new(NodeId(i)))))
            .collect();
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: vec![],
            nodes: (0..n)
                .map(|i| NodeServices {
                    node: NodeId(i),
                    wd: Pid(0),
                    detector: det.pid,
                    ppm: agents[i as usize],
                })
                .collect(),
        };
        for &a in &agents {
            w.inject(a, KernelMsg::Boot((dir.clone()).into()));
        }
        w.run_for(SimDuration::from_millis(5));
        (w, agents, det)
    }

    #[test]
    fn exec_fans_out_to_all_targets() {
        let (mut w, agents, _det) = setup(16);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let targets: Vec<NodeId> = (0..16).map(NodeId).collect();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(1),
                job: JobId(1),
                task: TaskSpec::default(),
                targets,
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmExecAck { ok: true, .. }))
            .count();
        assert_eq!(acks, 16);
    }

    /// A node's daemons restarted: the forward to its subtree goes to the
    /// agent config's `DirectoryUpdateNode` named, not the boot one.
    #[test]
    fn a_forward_after_a_directory_update_goes_to_the_new_head() {
        let (mut w, agents, det) = setup(4);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let new_head = ClientHandle::spawn(&mut w, NodeId(2));
        let services = NodeServices {
            node: NodeId(2),
            wd: Pid(0),
            detector: det.pid,
            ppm: new_head.pid,
        };
        w.inject(agents[0], KernelMsg::DirectoryUpdateNode { services });
        w.run_for(SimDuration::from_millis(5));
        let targets: Vec<NodeId> = (0..4).map(NodeId).collect();
        let exec = KernelMsg::PpmExec {
            req: RequestId(7),
            job: JobId(3),
            task: TaskSpec::default(),
            targets,
            reply_to: client.pid,
        };
        client.send(&mut w, agents[0], exec);
        w.run_for(SimDuration::from_millis(50));
        // Agent 0 keeps node 0, hands node 1 to agent 1, and nodes 2-3 to
        // whoever heads node 2 now.
        let forwarded: Vec<(Pid, Vec<NodeId>)> = new_head
            .drain()
            .into_iter()
            .filter_map(|(from, m)| match m {
                KernelMsg::PpmExec { targets, .. } => Some((from, targets)),
                _ => None,
            })
            .collect();
        assert_eq!(forwarded, vec![(agents[0], vec![NodeId(2), NodeId(3)])]);
        let mut acked: Vec<NodeId> = client
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                KernelMsg::PpmExecAck { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        acked.sort();
        assert_eq!(acked, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn exec_spawns_app_procs_that_register() {
        let (mut w, agents, det) = setup(4);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(2),
                job: JobId(9),
                task: TaskSpec {
                    duration_ns: Some(1_000_000_000),
                    ..TaskSpec::default()
                },
                targets: vec![NodeId(1), NodeId(2)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let started = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppStarted { job: JobId(9), .. }))
            .count();
        assert_eq!(started, 2);
        // After the task duration, both exit on their own.
        w.run_for(SimDuration::from_secs(2));
        let exited = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppExited { job: JobId(9), .. }))
            .count();
        assert_eq!(exited, 2);
    }

    #[test]
    fn delete_kills_running_tasks() {
        let (mut w, agents, det) = setup(4);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(3),
                job: JobId(5),
                task: TaskSpec {
                    duration_ns: None, // runs until deleted
                    ..TaskSpec::default()
                },
                targets: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let live_before = w.live_processes();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmDelete {
                req: RequestId(4),
                job: JobId(5),
                targets: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let del_acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmDeleteAck { .. }))
            .count();
        assert_eq!(del_acks, 4);
        assert_eq!(w.live_processes(), live_before - 4, "app procs killed");
        let _ = det.drain();
    }

    /// The acks a client received, by request id.
    fn acks(client: &ClientHandle) -> Vec<KernelMsg> {
        let mut acks: Vec<(u64, KernelMsg)> = (client.drain().into_iter())
            .filter_map(|(_, m)| match m {
                KernelMsg::PpmExecAck { req, .. } | KernelMsg::PpmDeleteAck { req, .. } => {
                    Some((req.0, m))
                }
                _ => None,
            })
            .collect();
        acks.sort_by_key(|&(req, _)| req);
        acks.into_iter().map(|(_, m)| m).collect()
    }

    /// Run job 1 on node 1 until deleted, acking to `client`.
    fn exec_job1(client: &ClientHandle, req: u64) -> KernelMsg {
        KernelMsg::PpmExec {
            req: RequestId(req),
            job: JobId(1),
            task: TaskSpec {
                duration_ns: None,
                ..TaskSpec::default()
            },
            targets: vec![NodeId(1)],
            reply_to: client.pid,
        }
    }

    /// A second exec of a running job is refused, and a duplicate of
    /// either request replays its own ack, `ok: true` and `ok: false`
    /// alike, field for field.
    #[test]
    fn duplicate_exec_rejected() {
        let (mut w, agents, _det) = setup(2);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        for req in [5u64, 6] {
            client.send(&mut w, agents[1], exec_job1(&client, req));
        }
        w.run_for(SimDuration::from_millis(50));
        let first = acks(&client);
        let ok = |m: &KernelMsg| matches!(m, KernelMsg::PpmExecAck { ok: true, .. });
        assert_eq!(first.len(), 2);
        assert!(ok(&first[0]) != ok(&first[1]), "one ran, one was refused: {first:?}");
        for req in [5u64, 6] {
            client.send(&mut w, agents[1], exec_job1(&client, req));
        }
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(acks(&client), first, "replayed acks equal the first copies");
    }

    /// A duplicated tree message (same req, e.g. network duplication or an
    /// upstream retry) replays the recorded ack without re-executing.
    #[test]
    fn duplicate_delivery_replays_ack_once() {
        let (mut w, agents, det) = setup(2);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let exec = exec_job1(&client, 5);
        client.send(&mut w, agents[1], exec.clone());
        client.send(&mut w, agents[1], exec);
        w.run_for(SimDuration::from_millis(50));
        // Both deliveries are acked (the retry got its answer), but the
        // app process was only spawned once and both acks are the same.
        let ok = KernelMsg::PpmExecAck {
            req: RequestId(5),
            job: JobId(1),
            node: NodeId(1),
            ok: true,
        };
        assert_eq!(acks(&client), vec![ok.clone(), ok]);
        let started = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppStarted { job: JobId(1), .. }))
            .count();
        assert_eq!(started, 1);
        // The same for a delete: one kill, two equal acks.
        let delete = KernelMsg::PpmDelete {
            req: RequestId(6),
            job: JobId(1),
            targets: vec![NodeId(1)],
            reply_to: client.pid,
        };
        client.send(&mut w, agents[1], delete.clone());
        client.send(&mut w, agents[1], delete);
        w.run_for(SimDuration::from_millis(50));
        let deleted = KernelMsg::PpmDeleteAck {
            req: RequestId(6),
            job: JobId(1),
            node: NodeId(1),
        };
        assert_eq!(acks(&client), vec![deleted.clone(), deleted]);
        let exited = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppExited { job: JobId(1), .. }))
            .count();
        assert_eq!(exited, 1);
        // What the window keeps per request.
        assert!(std::mem::size_of::<Option<Ack>>() <= 24);
    }

    #[test]
    fn fanout_message_depth_is_logarithmic() {
        // With 64 targets the exec wave should finish well before a
        // sequential 64-hop chain would.
        let (mut w, agents, _det) = setup(64);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let t0 = w.now();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(9),
                job: JobId(2),
                task: TaskSpec::default(),
                targets: (0..64).map(NodeId).collect(),
                reply_to: client.pid,
            },
        );
        // Each hop costs ≈150 µs; log2(64)=6 levels ≈ 1 ms; allow 4 ms.
        w.run_for(SimDuration::from_millis(4));
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmExecAck { .. }))
            .count();
        assert_eq!(acks, 64, "all acks within logarithmic time");
        assert!(w.now().since(t0) < SimDuration::from_millis(5));
    }
}
