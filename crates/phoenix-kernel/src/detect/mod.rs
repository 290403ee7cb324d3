//! Detector services.
//!
//! Paper Sec 4.2 names four detectors. This actor — one per node —
//! implements the two data-producing ones directly:
//!
//! * the **physical resource detector** samples CPU, memory, swap, disk and
//!   network I/O of its node ("fundamental for job management's
//!   schedulers") and exports them to the partition's data bulletin;
//! * the **application state detector** tracks the applications running on
//!   the node — resources consumed, living status, and SLA flag
//!   ("fundamental for business application runtime environment").
//!
//! The node-state and network-state detectors are realized by the watch
//! daemon / GSD heartbeat analysis in [`crate::group`], exactly as the
//! paper describes GSD "monitoring status of nodes and networks in a
//! partition" through heartbeat analysis.
//!
//! Each export is the node's whole state: the `Resource` row, then one
//! `App` row per application still tracked, and the bulletin replaces the
//! node's rows with it. An application is tracked from `AppStarted` until
//! the export that first reports it `Exited` or `Failed` (announced by
//! `AppExited`, or found by the liveness check when its process vanished),
//! so that export is its last row and the next one drops it.

use crate::params::KernelParams;
use phoenix_proto::{
    AppState, AppStatus, BulletinEntry, BulletinKey, BulletinValue, Event, EventPayload,
    EventType, JobId, KernelMsg, PartitionId, TaskSpec,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, ResourceUsage};
use std::collections::BTreeMap;

const TOK_SAMPLE: u64 = 1;

/// CPU fraction at or above which a node is overloaded: the detector
/// publishes a ResourceAlarm, and GridView counts the node in its banner.
pub const ALARM_CPU: f64 = 0.95;
/// Baseline OS load on an idle node (CPU fraction).
const BASE_CPU_LOAD: f64 = 0.02;
/// Baseline memory footprint of the OS (fraction).
const BASE_MEM_LOAD: f64 = 0.15;
/// Baseline swap usage (fraction); the paper's Fig 6 snapshot shows
/// 0.72 % average swap.
const BASE_SWAP_LOAD: f64 = 0.0072;

/// A tracked application instance on this node.
struct TrackedApp {
    pid: Pid,
    task: TaskSpec,
    status: AppStatus,
}

/// The per-node detector actor.
pub(crate) struct Detector {
    node: NodeId,
    partition: PartitionId,
    params: KernelParams,
    bulletin: Pid,
    event: Pid,
    /// By job: every walk (the usage sum, the export, a poll reply) goes
    /// in job order, whatever order jobs started in.
    apps: BTreeMap<JobId, TrackedApp>,
    alarm_active: bool,
    started: bool,
    /// Set by the GSD's `RegroupFreeze` while the partition sits on a
    /// minority island: samples are taken but not exported — a bulletin
    /// nobody holds quorum for must not look freshly authoritative.
    frozen: bool,
}

impl Detector {
    pub(crate) fn new(node: NodeId, partition: PartitionId, params: KernelParams) -> Self {
        Detector {
            node,
            partition,
            params,
            bulletin: Pid(0),
            event: Pid(0),
            apps: BTreeMap::new(),
            alarm_active: false,
            started: false,
            frozen: false,
        }
    }

    /// Self-introspection: compute the node's current resource usage from
    /// the OS baseline plus the load of every live application.
    fn compute_usage(&mut self, ctx: &mut Ctx<'_, KernelMsg>) -> ResourceUsage {
        // Small deterministic jitter models OS noise.
        let jitter = ctx.rng().gen_range(-0.005..0.005);
        let mut cpu = BASE_CPU_LOAD + jitter;
        let mut mem = BASE_MEM_LOAD;
        let swap = BASE_SWAP_LOAD;
        // Summed in job order: float addition is order-sensitive.
        for app in self.apps.values().filter(|app| app.status == AppStatus::Running) {
            cpu += app.task.cpu_load;
            mem += app.task.mem_load;
        }
        ResourceUsage {
            cpu,
            memory: mem,
            swap,
            disk_io: 0.01,
            net_io: 0.01,
        }
        .clamped()
    }

    /// Check liveness of tracked app processes: a process that vanished
    /// without announcing exit has failed. It stays tracked until the next
    /// export has reported it.
    fn check_app_liveness(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let mut failed: Vec<JobId> = Vec::new();
        for (&job, app) in &self.apps {
            if app.status == AppStatus::Running && !ctx.process_is_alive(app.pid) {
                failed.push(job);
            }
        }
        for job in failed {
            if let Some(app) = self.apps.get_mut(&job) {
                app.status = AppStatus::Failed;
            }
            self.publish_app_event(ctx, job, false);
        }
    }

    fn publish_app_event(&self, ctx: &mut Ctx<'_, KernelMsg>, job: JobId, up: bool) {
        let event = Event::new(
            EventType::AppStateChange,
            self.node,
            EventPayload::AppLifecycle {
                job,
                node: self.node,
                up,
            },
        );
        ctx.send(self.event, KernelMsg::EsPublish { event });
    }

    /// Export resource + application state to the partition bulletin.
    fn export(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let usage = self.compute_usage(ctx);
        ctx.set_usage(self.node, usage);
        let stamp_ns = ctx.now().as_nanos();
        let mut entries = vec![BulletinEntry {
            key: BulletinKey::Resource(self.node),
            value: BulletinValue::Resource(usage),
            stamp_ns,
        }];
        for (&job, app) in &self.apps {
            entries.push(BulletinEntry {
                key: BulletinKey::App(self.node, job),
                value: BulletinValue::App(AppState {
                    job,
                    node: self.node,
                    cpu: app.task.cpu_load,
                    memory: app.task.mem_load,
                    status: app.status,
                    sla_ok: app.status == AppStatus::Running,
                }),
                stamp_ns,
            });
        }
        ctx.send(self.bulletin, KernelMsg::DbPut { entries });

        // Resource alarming (GridView's "System Overload" banner).
        if usage.cpu >= ALARM_CPU && !self.alarm_active {
            self.alarm_active = true;
            let event = Event::new(
                EventType::ResourceAlarm,
                self.node,
                EventPayload::Metric(usage.cpu),
            );
            ctx.send(self.event, KernelMsg::EsPublish { event });
        } else if usage.cpu < ALARM_CPU {
            self.alarm_active = false;
        }
    }

    fn start_sampling(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.started {
            return;
        }
        self.started = true;
        // Stagger the first sample by node id so 640 detectors do not all
        // fire at the same virtual instant.
        let phase = (self.node.0 as u64 % 16) * (self.params.detector_sample.as_nanos() / 16);
        ctx.set_timer(phoenix_sim::SimDuration::from_nanos(phase.max(1)), TOK_SAMPLE);
    }
}

impl Actor<KernelMsg> for Detector {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("detector");
        if self.bulletin != Pid(0) {
            self.start_sampling(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                if let Some(me) = dir.partition(self.partition) {
                    self.bulletin = me.bulletin;
                    self.event = me.event;
                }
                self.start_sampling(ctx);
            }
            KernelMsg::PartitionView { local, .. } => {
                self.bulletin = local.bulletin;
                self.event = local.event;
            }
            KernelMsg::RegroupFreeze { frozen } => {
                if frozen && !self.frozen {
                    phoenix_telemetry::counter_add("detector.freezes", 1);
                }
                self.frozen = frozen;
            }
            KernelMsg::AppStarted { job, pid, task } => {
                self.apps.insert(
                    job,
                    TrackedApp {
                        pid,
                        task,
                        status: AppStatus::Running,
                    },
                );
                self.publish_app_event(ctx, job, true);
                self.export(ctx);
            }
            KernelMsg::AppExited { job, failed, .. } => {
                if let Some(app) = self.apps.get_mut(&job) {
                    app.status = if failed {
                        AppStatus::Failed
                    } else {
                        AppStatus::Exited
                    };
                }
                self.publish_app_event(ctx, job, false);
                self.export(ctx);
                // Exited apps drop out of tracking after their final export.
                self.apps.remove(&job);
            }
            KernelMsg::PbsPoll { req } => {
                // PBS-baseline resource poll: answer directly.
                let usage = self.compute_usage(ctx);
                let jobs: Vec<JobId> = self.apps.keys().copied().collect();
                ctx.send(
                    from,
                    KernelMsg::PbsPollResp {
                        req,
                        node: self.node,
                        usage,
                        jobs,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_SAMPLE {
            if !self.frozen {
                self.check_app_liveness(ctx);
                self.export(ctx);
                // Failed apps drop out of tracking after their final export.
                self.apps.retain(|_, app| app.status == AppStatus::Running);
            }
            ctx.set_timer(self.params.detector_sample, TOK_SAMPLE);
        }
    }

    fn name(&self) -> &str {
        "detector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::{BulletinQuery, MemberInfo, RequestId, ServiceDirectory};
    use phoenix_sim::{ClusterBuilder, NodeSpec, SimDuration, World};

    fn setup() -> (World<KernelMsg>, Pid, ClientHandle, ClientHandle) {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let det = w.spawn(
            NodeId(0),
            Box::new(Detector::new(NodeId(0), PartitionId(0), KernelParams::fast())),
        );
        // Stand-in bulletin and event sinks.
        let bulletin = ClientHandle::spawn(&mut w, NodeId(1));
        let event = ClientHandle::spawn(&mut w, NodeId(1));
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: vec![MemberInfo {
                partition: PartitionId(0),
                node: NodeId(1),
                gsd: Pid(0),
                event: event.pid,
                bulletin: bulletin.pid,
                checkpoint: Pid(0),
                host_ppm: Pid(0),
            }],
            nodes: vec![],
        };
        w.inject(det, KernelMsg::Boot((dir).into()));
        (w, det, bulletin, event)
    }

    #[test]
    fn periodic_export_reaches_bulletin() {
        let (mut w, _det, bulletin, _event) = setup();
        w.run_for(SimDuration::from_secs(2));
        let puts = bulletin
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::DbPut { .. }))
            .count();
        assert!(puts >= 2, "expected several samples, got {puts}");
    }

    #[test]
    fn app_lifecycle_updates_usage_and_events() {
        let (mut w, det, _bulletin, event) = setup();
        w.run_for(SimDuration::from_millis(700));
        w.inject(
            det,
            KernelMsg::AppStarted {
                job: JobId(7),
                pid: Pid(9999), // not alive; liveness check will flag it
                task: TaskSpec {
                    cpus: 2,
                    cpu_load: 0.6,
                    mem_load: 0.2,
                    duration_ns: None,
                },
            },
        );
        w.run_for(SimDuration::from_millis(100));
        // Node usage now reflects the app load.
        let u = w.node(NodeId(0)).usage;
        assert!(u.cpu > 0.5, "cpu={}", u.cpu);
        let evs = event.drain();
        assert!(evs.iter().any(|(_, m)| matches!(
            m,
            KernelMsg::EsPublish { event } if event.etype == EventType::AppStateChange
        )));
    }

    #[test]
    fn vanished_app_is_reported_failed() {
        let (mut w, det, _bulletin, event) = setup();
        w.inject(
            det,
            KernelMsg::AppStarted {
                job: JobId(1),
                pid: Pid(12345), // never existed → fails liveness
                task: TaskSpec::default(),
            },
        );
        w.run_for(SimDuration::from_secs(2));
        let evs = event.drain();
        let downs = evs
            .iter()
            .filter(|(_, m)| {
                matches!(m, KernelMsg::EsPublish { event }
                    if matches!(event.payload, EventPayload::AppLifecycle { up: false, .. }))
            })
            .count();
        assert!(downs >= 1, "app failure must be published");
    }

    #[test]
    fn pbs_poll_answers_with_usage() {
        let (mut w, det, _b, _e) = setup();
        let client = ClientHandle::spawn(&mut w, NodeId(1));
        client.send(&mut w, det, KernelMsg::PbsPoll { req: RequestId(4) });
        w.run_for(SimDuration::from_millis(5));
        let got = client.drain();
        assert!(matches!(
            got[0].1,
            KernelMsg::PbsPollResp {
                node: NodeId(0),
                ..
            }
        ));
    }

    /// A vanished app is reported `Failed` once, then leaves tracking: two
    /// samples after its pid dies, neither the bulletin nor a PBS poll
    /// names it.
    #[test]
    fn a_failed_app_is_exported_once_then_dropped() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let params = KernelParams::fast();
        let det = w.spawn(
            NodeId(0),
            Box::new(Detector::new(NodeId(0), PartitionId(0), params.clone())),
        );
        let bulletin = crate::bulletin::DataBulletin::new(PartitionId(0), params.clone());
        let bulletin = w.spawn(NodeId(1), Box::new(bulletin));
        let event = ClientHandle::spawn(&mut w, NodeId(1));
        let local = MemberInfo {
            event: event.pid,
            bulletin,
            ..MemberInfo::unwired(PartitionId(0))
        };
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: vec![local],
            nodes: vec![],
        };
        w.inject(det, KernelMsg::Boot(dir.into()));
        let app = ClientHandle::spawn(&mut w, NodeId(0));
        let task = TaskSpec::default();
        w.inject(det, KernelMsg::AppStarted { job: JobId(3), pid: app.pid, task });
        w.run_for(params.detector_sample);
        let client = ClientHandle::spawn(&mut w, NodeId(1));
        let tracked = |w: &mut World<KernelMsg>| {
            let query = BulletinQuery::Apps;
            client.send(w, bulletin, KernelMsg::DbQuery { req: RequestId(1), query });
            client.send(w, det, KernelMsg::PbsPoll { req: RequestId(2) });
            w.run_for(SimDuration::from_millis(10));
            let mut seen = (vec![], vec![]);
            for (_, m) in client.drain() {
                match m {
                    KernelMsg::DbResp { entries, .. } => {
                        seen.0 = entries.iter().map(|e| e.key).collect();
                    }
                    KernelMsg::PbsPollResp { jobs, .. } => seen.1 = jobs,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            seen
        };
        let row = BulletinKey::App(NodeId(0), JobId(3));
        assert_eq!(tracked(&mut w), (vec![row], vec![JobId(3)]));
        w.kill_process(app.pid);
        w.run_for(params.detector_sample * 2);
        assert_eq!(tracked(&mut w), (vec![], vec![]));
        let downs = (event.drain().iter())
            .filter(|(_, m)| {
                matches!(m, KernelMsg::EsPublish { event }
                    if matches!(event.payload, EventPayload::AppLifecycle { up: false, .. }))
            })
            .count();
        assert_eq!(downs, 1, "one down event for the failed app");
    }
}
