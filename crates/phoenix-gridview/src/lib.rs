//! # phoenix-gridview — the monitoring user environment
//!
//! Paper Sec 5.3: "GridView interacts with Phoenix kernel only through the
//! interfaces of data bulletin service and event service and configuration
//! service. GridView registers its interested event types to event
//! service, including node failure and network failure etc., and GridView
//! can get real-time notifications of these events. GridView collects
//! cluster-wide performance data by calling single interface of data
//! bulletin service federation, and visually displays cluster-wide
//! resources usage with a specific refreshing rate."
//!
//! [`GridView`] is that consumer: a single actor that pulls the bulletin
//! federation at a refresh rate, aggregates cluster-wide usage (the
//! paper's Fig 6 shows average memory / CPU / swap), keeps a rolling event
//! feed, and renders a text dashboard (our stand-in for the GUI).

pub(crate) mod dashboard;

use phoenix_kernel::ALARM_CPU;
use phoenix_proto::{
    BulletinKey, BulletinQuery, BulletinValue, ConsumerReg, EventFilter, EventType, KernelMsg,
    PartitionId, RequestId,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, ResourceUsage, SimDuration, SimTime, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const TOK_REFRESH: u64 = 1;

/// One dashboard snapshot: what Fig 6 displays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub nodes_reporting: usize,
    pub(crate) avg_cpu: f64,
    pub(crate) avg_memory: f64,
    pub(crate) avg_swap: f64,
    pub(crate) overloaded_nodes: usize,
    /// Whether the last federation pull was complete.
    pub complete: bool,
    pub(crate) running_apps: usize,
}

/// A line in the event feed.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedItem {
    pub(crate) at: SimTime,
    pub etype: EventType,
    pub(crate) origin: NodeId,
}

/// Shared state the driving code can read while the simulation runs.
#[derive(Default)]
pub(crate) struct GvState {
    pub(crate) snapshot: Snapshot,
    pub(crate) history: Vec<Snapshot>,
    pub(crate) feed: Vec<FeedItem>,
    pub(crate) refreshes: u64,
    pub(crate) events_received: u64,
}

/// Handle to a spawned GridView.
#[derive(Clone)]
pub struct GridViewHandle {
    state: Rc<RefCell<GvState>>,
}

impl GridViewHandle {
    /// The latest snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.state.borrow().snapshot.clone()
    }

    /// All snapshots taken so far.
    pub fn history(&self) -> Vec<Snapshot> {
        self.state.borrow().history.clone()
    }

    /// Event-feed copy.
    pub fn feed(&self) -> Vec<FeedItem> {
        self.state.borrow().feed.clone()
    }

    pub fn refreshes(&self) -> u64 {
        self.state.borrow().refreshes
    }

    pub fn events_received(&self) -> u64 {
        self.state.borrow().events_received
    }

    /// Render the current dashboard as text.
    pub fn render(&self) -> String {
        let st = self.state.borrow();
        dashboard::render(&st.snapshot, &st.feed)
    }

    /// Dashboard plus the kernel-telemetry panel (latency histograms and
    /// counters from this thread's `phoenix_telemetry` registry).
    pub fn render_full(&self) -> String {
        format!("{}{}", self.render(), dashboard::render_telemetry())
    }
}

/// The GridView actor.
pub struct GridView {
    bulletin: Pid,
    event: Pid,
    /// Configuration service; consulted to re-resolve bulletin/event pids
    /// when the current ones stop answering (after a service migration).
    config: Pid,
    home_partition: PartitionId,
    refresh: SimDuration,
    state: Rc<RefCell<GvState>>,
    next_req: u64,
    /// Refresh request currently awaiting a reply, and when it was sent.
    awaiting: Option<(u64, SimTime)>,
}

impl GridView {
    /// Spawn a GridView on `node`, pulling `bulletin` and subscribing at
    /// `event` with the given refresh rate.
    pub fn spawn(
        world: &mut phoenix_sim::World<KernelMsg>,
        node: NodeId,
        bulletin: Pid,
        event: Pid,
        refresh: SimDuration,
    ) -> GridViewHandle {
        Self::spawn_with_config(world, node, bulletin, event, Pid(0), PartitionId(0), refresh)
    }

    /// Spawn with a configuration-service pid so the console can survive
    /// bulletin/event-service migrations by re-resolving the directory.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_with_config(
        world: &mut phoenix_sim::World<KernelMsg>,
        node: NodeId,
        bulletin: Pid,
        event: Pid,
        config: Pid,
        home_partition: PartitionId,
        refresh: SimDuration,
    ) -> GridViewHandle {
        let state: Rc<RefCell<GvState>> = Rc::new(RefCell::new(GvState::default()));
        let gv = GridView {
            bulletin,
            event,
            config,
            home_partition,
            refresh,
            state: state.clone(),
            next_req: 0,
            awaiting: None,
        };
        world.spawn(node, Box::new(gv));
        GridViewHandle { state }
    }

    fn pull(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // If the previous refresh went unanswered, the bulletin we know is
        // gone (restarting instances answer late but do answer): ask the
        // configuration service for the current directory.
        if self.awaiting.take().is_some() && self.config != Pid(0) {
            self.next_req += 1;
            ctx.send(
                self.config,
                KernelMsg::CfgQueryDirectory {
                    req: RequestId(self.next_req),
                },
            );
        }
        self.next_req += 1;
        self.awaiting = Some((self.next_req, ctx.now()));
        phoenix_telemetry::counter_add("gridview.refreshes.requested", 1);
        ctx.send(
            self.bulletin,
            KernelMsg::DbQuery {
                req: RequestId(self.next_req),
                query: BulletinQuery::All,
            },
        );
        ctx.set_timer(self.refresh, TOK_REFRESH);
    }

    fn register_consumer(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.send(
            self.event,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: ctx.pid(),
                    filter: EventFilter::types(&[
                        EventType::NodeFault,
                        EventType::NodeRecovery,
                        EventType::NetworkFault,
                        EventType::NetworkRecovery,
                        EventType::ServiceFault,
                        EventType::ServiceRecovery,
                        EventType::ResourceAlarm,
                    ]),
                },
            },
        );
    }

    fn ingest(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        entries: Vec<phoenix_proto::BulletinEntry>,
        complete: bool,
    ) {
        let mut per_node: BTreeMap<NodeId, ResourceUsage> = BTreeMap::new();
        let mut running_apps = 0usize;
        for e in entries {
            match (e.key, e.value) {
                (BulletinKey::Resource(n), BulletinValue::Resource(u)) => {
                    per_node.insert(n, u);
                }
                (BulletinKey::App(..), BulletinValue::App(a)) => {
                    if a.status == phoenix_proto::AppStatus::Running {
                        running_apps += 1;
                    }
                }
                _ => {}
            }
        }
        let n = per_node.len().max(1) as f64;
        let sum = per_node.values().fold((0.0, 0.0, 0.0), |acc, u| {
            (acc.0 + u.cpu, acc.1 + u.memory, acc.2 + u.swap)
        });
        let snapshot = Snapshot {
            nodes_reporting: per_node.len(),
            avg_cpu: sum.0 / n,
            avg_memory: sum.1 / n,
            avg_swap: sum.2 / n,
            overloaded_nodes: per_node.values().filter(|u| u.cpu >= ALARM_CPU).count(),
            complete,
            running_apps,
        };
        let mut st = self.state.borrow_mut();
        st.refreshes += 1;
        st.snapshot = snapshot.clone();
        st.history.push(snapshot);
        drop(st);
        ctx.trace(TraceEvent::Milestone {
            label: "gridview-refresh",
            value: n,
        });
    }
}

impl Actor<KernelMsg> for GridView {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("gridview");
        // Register for the fault/recovery event classes Fig 6 displays.
        self.register_consumer(ctx);
        self.pull(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, _from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::DbResp {
                req,
                entries,
                complete,
            } => {
                if let Some((_, sent)) = self.awaiting.take_if(|(asked, _)| *asked == req.0) {
                    let (path, node, now) = ("gridview.refresh.pull", ctx.node().0, ctx.now().0);
                    phoenix_telemetry::flight(path, "gridview", node, sent.0, now);
                }
                self.ingest(ctx, entries.unwrap_or_clone(), complete);
            }
            KernelMsg::CfgDirectory { directory, .. } => {
                if let Some(m) = directory.partition(self.home_partition) {
                    if m.bulletin != self.bulletin || m.event != self.event {
                        self.bulletin = m.bulletin;
                        self.event = m.event;
                        self.register_consumer(ctx);
                    }
                }
            }
            KernelMsg::EsNotify { event } => {
                phoenix_telemetry::counter_add("gridview.events.received", 1);
                let mut st = self.state.borrow_mut();
                st.events_received += 1;
                st.feed.push(FeedItem {
                    at: ctx.now(),
                    etype: event.etype,
                    origin: event.origin,
                });
                // Bounded feed, newest kept.
                let overflow = st.feed.len().saturating_sub(256);
                if overflow > 0 {
                    st.feed.drain(..overflow);
                }
            }
            KernelMsg::PartitionView { local, .. } => {
                // Follow bulletin/event migrations.
                self.bulletin = local.bulletin;
                self.event = local.event;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_REFRESH {
            self.pull(ctx);
        }
    }

    fn name(&self) -> &str {
        "gridview"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::boot::boot_and_stabilize;
    use phoenix_kernel::KernelParams;
    use phoenix_proto::ClusterTopology;

    #[test]
    fn gridview_aggregates_cluster_usage() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 41);
        let gv = GridView::spawn(
            &mut w,
            NodeId(2),
            cluster.bulletin(),
            cluster.event(),
            SimDuration::from_millis(500),
        );
        // Give detectors time to sample and GridView to refresh a few times.
        w.run_for(SimDuration::from_secs(3));
        let snap = gv.snapshot();
        assert_eq!(snap.nodes_reporting, 8, "all nodes visible");
        assert!(snap.complete);
        assert!(snap.avg_memory > 0.1, "baseline memory visible");
        assert!(snap.avg_cpu < 0.1, "idle cluster");
        assert!(gv.refreshes() >= 3);
    }

    #[test]
    fn gridview_survives_service_migration() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 43);
        // Watch partition 1's instances; the config service (on partition
        // 0's server) survives the crash — the paper's config/security
        // singletons are single instances whose HA is out of scope.
        let member1 = cluster.directory.partitions[1];
        let gv = GridView::spawn_with_config(
            &mut w,
            NodeId(2), // a compute node, away from the server being crashed
            member1.bulletin,
            member1.event,
            cluster.config(),
            member1.partition,
            SimDuration::from_millis(500),
        );
        w.run_for(SimDuration::from_secs(2));
        let refreshes_before = gv.refreshes();
        assert!(refreshes_before >= 2);

        // Crash partition 1's server: the bulletin/event instances the
        // console was using die and migrate to the backup node.
        w.apply_fault(phoenix_sim::Fault::CrashNode(
            cluster.topology.partitions[1].server,
        ));
        w.run_for(SimDuration::from_secs(10));

        // The console re-resolved the directory and is refreshing again.
        let snap = gv.snapshot();
        assert!(
            gv.refreshes() > refreshes_before + 2,
            "refreshes resumed: {} -> {}",
            refreshes_before,
            gv.refreshes()
        );
        assert!(snap.nodes_reporting >= 7, "monitoring recovered: {snap:?}");
    }

    #[test]
    fn gridview_receives_fault_events() {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 42);
        let gv = GridView::spawn(
            &mut w,
            NodeId(2),
            cluster.bulletin(),
            cluster.event(),
            SimDuration::from_millis(500),
        );
        w.run_for(SimDuration::from_secs(2));
        w.apply_fault(phoenix_sim::Fault::CrashNode(NodeId(7)));
        w.run_for(SimDuration::from_secs(4));
        let feed = gv.feed();
        assert!(
            feed.iter()
                .any(|f| f.etype == EventType::NodeFault && f.origin == NodeId(7)),
            "node fault reached the monitoring console: {feed:?}"
        );
        let rendered = gv.render();
        assert!(rendered.contains("NodeFault"));
    }

    #[test]
    fn telemetry_panel_shows_refresh_latency() {
        phoenix_telemetry::reset();
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 44);
        let gv = GridView::spawn(
            &mut w,
            NodeId(2),
            cluster.bulletin(),
            cluster.event(),
            SimDuration::from_millis(500),
        );
        w.run_for(SimDuration::from_secs(3));
        let full = gv.render_full();
        assert!(full.contains("kernel telemetry"));
        assert!(full.contains("gridview.refresh.pull"));
        let count = phoenix_telemetry::with(|r| {
            r.histogram("gridview.refresh.pull").unwrap().summary().count
        });
        assert!(count >= 3, "refresh pulls measured: {count}");
        phoenix_telemetry::reset();
    }
}
