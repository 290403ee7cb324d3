//! Fault-tolerance experiment harness: regenerates the paper's Tables 1–3
//! on the paper's testbed shape — "136 nodes in Dawning 4000A with 16
//! computing nodes and 1 server node per partition, so it is divided into
//! 8 partitions. The interval for sending heartbeat ... 30 seconds is set
//! for testing."

use phoenix_kernel::boot::{boot_cluster, PhoenixCluster};
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{
    Diagnosis, Fault, FaultTarget, NicId, Pid, SimDuration, SimTime, TraceEvent, World,
};

/// Which daemon Tables 1–3 inject faults into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Watch daemon on a computing node (Table 1).
    Wd,
    /// Group service daemon of a partition (Table 2).
    Gsd,
    /// Event service of a partition (Table 3).
    Es,
}

/// The three "unhealthy situations" per component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    Process,
    Node,
    Network,
}

/// One row of a Table 1–3: seconds per phase.
#[derive(Clone, Debug)]
pub struct FtRow {
    pub(crate) component: Component,
    pub(crate) kind: FaultKind,
    pub(crate) detect_s: f64,
    pub(crate) diagnose_s: f64,
    pub(crate) recover_s: f64,
    pub sum_s: f64,
}

impl FtRow {
    fn fmt_secs(v: f64) -> String {
        if v == 0.0 {
            "0".to_string()
        } else if v < 0.001 {
            format!("{:.0}us", v * 1e6)
        } else if v < 1.0 {
            format!("{:.2}ms", v * 1e3)
        } else {
            format!("{v:.2}s")
        }
    }

    /// Render like the paper's table rows.
    pub(crate) fn render(&self) -> String {
        format!(
            "{:<8} {:>10} {:>12} {:>10} {:>10}",
            format!("{:?}", self.kind),
            Self::fmt_secs(self.detect_s),
            Self::fmt_secs(self.diagnose_s),
            Self::fmt_secs(self.recover_s),
            Self::fmt_secs(self.sum_s),
        )
    }
}

/// Paper-testbed parameters: 8 partitions × 17 nodes, 30 s heartbeats.
pub fn paper_testbed() -> (ClusterTopology, KernelParams) {
    (ClusterTopology::uniform(8, 17, 1), KernelParams::default())
}

struct Injection {
    fault: Fault,
    /// Trace filters for the three milestones.
    observer: Option<Pid>,
    detect_target: FaultTarget,
    diagnosis: Diagnosis,
}

/// Run one fault-injection experiment and extract the three phase times.
pub fn run_one(
    topology: ClusterTopology,
    params: KernelParams,
    component: Component,
    kind: FaultKind,
    seed: u64,
) -> FtRow {
    let hb = params.ft.hb_interval;
    let (mut world, cluster) = boot_cluster(topology, params, seed);
    // Stabilize for two heartbeat rounds.
    world.run_until(SimTime::ZERO + hb * 2 + SimDuration::from_millis(10));

    let inj = plan_injection(&cluster, component, kind);
    // Inject just after the heartbeat round at 2×interval, as the paper's
    // numbers imply (detecting time ≈ the full interval).
    let t0 = world.now();
    world.apply_fault(inj.fault);
    // Long enough for detection (1 interval) + diagnosis + recovery.
    world.run_for(hb * 2 + SimDuration::from_secs(8));

    extract_row(&world, t0, &inj, component, kind, &cluster)
}

/// The 3 × 3 plan of Tables 1–3: the component names the victim (process,
/// node, monitored NIC) and who observes it; the kind names the fault, what
/// is detected and the diagnosis.
fn plan_injection(cluster: &PhoenixCluster, component: Component, kind: FaultKind) -> Injection {
    // Partition 1's GSD; its ring observer is partition 2's GSD.
    let member = cluster.directory.partitions[1];
    let ring_observer = Some(cluster.directory.partitions[2].gsd);
    let (victim, node, nic, observer) = match (component, kind) {
        (Component::Wd, _) => {
            // A computing node of partition 0.
            let node = cluster.topology.partitions[0].compute[0];
            let wd = cluster.directory.node(node).unwrap().wd;
            (wd, node, NicId(1), None)
        }
        // Table 3's node row is Table 2's injection (the ES dies with its
        // node); recovery is the migrated ES coming up.
        (Component::Gsd, _) | (Component::Es, FaultKind::Node) => {
            (member.gsd, member.node, NicId(1), ring_observer)
        }
        // The local GSD watches its ES, and introspects its own node's NIC
        // (12 µs path).
        (Component::Es, _) => (member.event, member.node, NicId(2), Some(member.gsd)),
    };
    let (fault, detect_target, diagnosis) = match kind {
        FaultKind::Process => (
            Fault::KillProcess(victim),
            FaultTarget::Process(victim),
            Diagnosis::ProcessFailure,
        ),
        FaultKind::Node => (
            Fault::CrashNode(node),
            FaultTarget::Process(victim),
            Diagnosis::NodeFailure,
        ),
        FaultKind::Network => (
            Fault::NicDown(node, nic),
            FaultTarget::Nic(node, nic),
            Diagnosis::NetworkFailure,
        ),
    };
    Injection {
        fault,
        observer,
        detect_target,
        diagnosis,
    }
}

fn matches_observer(ev_observer: Pid, want: Option<Pid>) -> bool {
    want.map(|w| w == ev_observer).unwrap_or(true)
}

fn extract_row(
    world: &World<KernelMsg>,
    t0: SimTime,
    inj: &Injection,
    component: Component,
    kind: FaultKind,
    cluster: &PhoenixCluster,
) -> FtRow {
    let detect = world
        .trace()
        .find_after(t0, |e| {
            matches!(e, TraceEvent::FaultDetected { observer, target }
                if *target == inj.detect_target && matches_observer(*observer, inj.observer))
        })
        .map(|r| r.at)
        .unwrap_or_else(|| panic!("no detection for {component:?}/{kind:?}"));
    let diagnose = world
        .trace()
        .find_after(detect, |e| {
            matches!(e, TraceEvent::FaultDiagnosed { observer, diagnosis, .. }
                if *diagnosis == inj.diagnosis && matches_observer(*observer, inj.observer))
        })
        .map(|r| r.at)
        .unwrap_or_else(|| panic!("no diagnosis for {component:?}/{kind:?}"));

    // Recovery milestone depends on the component under test.
    let recover = match (component, kind) {
        // WD node/network and GSD/ES network rows: recovery is a no-op.
        (Component::Wd, FaultKind::Node)
        | (_, FaultKind::Network) => world
            .trace()
            .find_after(diagnose, |e| {
                matches!(
                    e,
                    TraceEvent::Recovered {
                        action: phoenix_sim::RecoveryAction::NoneNeeded,
                        ..
                    }
                )
            })
            .map(|r| r.at)
            .unwrap_or(diagnose),
        (Component::Es, FaultKind::Node) => {
            // The migrated ES announces itself: map pid via ServiceUp.
            let backup = cluster.topology.partitions[1].backups[0];
            let es_pid = world
                .trace()
                .find_after(diagnose, |e| {
                    matches!(e, TraceEvent::ServiceUp { service: "event", node, .. } if *node == backup)
                })
                .and_then(|r| match r.event {
                    TraceEvent::ServiceUp { pid, .. } => Some(pid),
                    _ => None,
                })
                .expect("migrated ES came up");
            world
                .trace()
                .find_after(diagnose, |e| {
                    matches!(e, TraceEvent::Recovered { target: FaultTarget::Process(p), .. } if *p == es_pid)
                })
                .map(|r| r.at)
                .expect("migrated ES recovered")
        }
        _ => world
            .trace()
            .find_after(diagnose, |e| {
                matches!(
                    e,
                    TraceEvent::Recovered {
                        target: FaultTarget::Process(_),
                        ..
                    }
                )
            })
            .map(|r| r.at)
            .expect("component recovered"),
    };

    let detect_s = detect.since(t0).as_secs_f64();
    let diagnose_s = diagnose.since(detect).as_secs_f64();
    let recover_s = recover.since(diagnose).as_secs_f64();
    FtRow {
        component,
        kind,
        detect_s,
        diagnose_s,
        recover_s,
        sum_s: recover.since(t0).as_secs_f64(),
    }
}

/// Regenerate a whole table (three rows) for one component.
pub(crate) fn run_table(
    topology: ClusterTopology,
    params: KernelParams,
    component: Component,
) -> Vec<FtRow> {
    [FaultKind::Process, FaultKind::Node, FaultKind::Network]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            run_one(
                topology.clone(),
                params.clone(),
                component,
                kind,
                100 + i as u64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller testbed for quick runs (same mechanism, less virtual time).
    fn small_testbed() -> (ClusterTopology, KernelParams) {
        (ClusterTopology::uniform(3, 5, 1), KernelParams::fast())
    }

    /// The full pipeline on the small testbed: sane phase ordering.
    #[test]
    fn small_testbed_wd_process_row() {
        let (topo, params) = small_testbed();
        let row = run_one(topo, params, Component::Wd, FaultKind::Process, 1);
        assert!(row.detect_s > 0.5 && row.detect_s < 1.5);
        assert!(row.diagnose_s < 0.2);
        assert!(row.recover_s < 0.1);
        assert!((row.sum_s - (row.detect_s + row.diagnose_s + row.recover_s)).abs() < 1e-9);
    }

    #[test]
    fn small_testbed_es_table_runs() {
        let (topo, params) = small_testbed();
        let rows = run_table(topo, params, Component::Es);
        assert_eq!(rows.len(), 3);
        // Node row includes migration: slowest recovery.
        let node = rows.iter().find(|r| r.kind == FaultKind::Node).unwrap();
        let net = rows.iter().find(|r| r.kind == FaultKind::Network).unwrap();
        assert!(node.recover_s > 1.0, "migration cost: {}", node.recover_s);
        assert_eq!(net.recover_s, 0.0, "network recovery is free");
    }
}
