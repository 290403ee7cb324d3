//! Failover planning: which node hosts a partition's replacement GSD, by
//! what recovery action and at what cost.
//!
//! Paper Sec 4.4 / Tables 2–3. A GSD is replaced for three reasons — its
//! ring successor diagnosed it (process or node failure), the leader found
//! its partition without a member at all (a rescue), or it is itself
//! handing a quarantined partition to a healthier node (a drain) — and
//! every one of them is placed by [`place`]: in place on the old host
//! while that can still run it, else on the partition's first live backup
//! or compute node, healthy ones first. [`rebuild_services`] is the
//! replacement's own question once it runs: adopt the partition's kernel
//! services, or start them again here. [`Failover`] remembers which
//! partitions a rescue is already under way for. No sends, no telemetry,
//! no simulator context.

use phoenix_proto::{MemberInfo, PartitionId, PartitionSpec};
use phoenix_sim::{Diagnosis, NodeId, Pid, RecoveryAction, SimDuration};
use std::collections::BTreeSet;

/// Cost to restart a GSD in place (Table 2 process row: 2.03 s).
const GSD_RESTART_COST: SimDuration = SimDuration::from_millis(2020);
/// Cost to migrate a GSD (and its partition services) to a backup node
/// (Tables 2–3 node rows: 2.95 s).
const GSD_MIGRATE_COST: SimDuration = SimDuration::from_millis(2930);
/// How long the leader leaves a memberless partition to whoever planned
/// its takeover before rescuing it: one in-place restart.
pub(crate) const RESCUE_AFTER: SimDuration = GSD_RESTART_COST;

/// Why a GSD is being replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Its ring successor's probe session resolved to this.
    Diagnosed(Diagnosis),
    /// Its partition has had no member for [`RESCUE_AFTER`]: whether the
    /// host survived is looked up now.
    Rescue,
    /// Nothing died: a quarantined GSD moves itself off its slow node.
    Drain,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) to: NodeId,
    pub(crate) action: RecoveryAction,
    /// Virtual time the recovery takes before the replacement starts.
    /// Zero for a rescue, which has waited already, and for a drain.
    pub(crate) cost: SimDuration,
}

/// Place the replacement of the GSD that ran on `host`, a node of `spec`.
/// `node_up` and `degraded` (read Slow by the fail-slow detector) are the
/// planner's view of the machines. A degraded node is still better than
/// no node when a partition has lost its GSD; a drain, which has a working
/// GSD to keep, only moves to a healthy one. `None`: nowhere to go.
pub(crate) fn place(
    spec: &PartitionSpec,
    host: NodeId,
    cause: Cause,
    node_up: impl Fn(NodeId) -> bool,
    degraded: impl Fn(NodeId) -> bool,
) -> Option<Placement> {
    let in_place = |cost| Placement {
        to: host,
        action: RecoveryAction::RestartedInPlace,
        cost,
    };
    let backup = |healthy_only: bool| {
        let mut nodes = spec.backups.iter().chain(spec.compute.iter()).copied();
        nodes.find(|&n| n != host && node_up(n) && !(healthy_only && degraded(n)))
    };
    let (to, cost) = match cause {
        Cause::Diagnosed(Diagnosis::NodeFailure) => {
            (backup(true).or_else(|| backup(false)), GSD_MIGRATE_COST)
        }
        Cause::Diagnosed(_) => return Some(in_place(GSD_RESTART_COST)),
        Cause::Rescue if node_up(host) => return Some(in_place(SimDuration::ZERO)),
        Cause::Rescue => (backup(true).or_else(|| backup(false)), SimDuration::ZERO),
        Cause::Drain => (backup(true), SimDuration::ZERO),
    };
    to.map(|to| Placement {
        to,
        action: RecoveryAction::Migrated(to),
        cost,
    })
}

/// Must a replacement GSD, started by `action` for the member `hint`
/// describes, rebuild the partition's kernel services on its own node —
/// or adopt the ones `hint` names? Migrated: the whole server node died,
/// and they with it. Restarted in place, they should have survived; but
/// when the host crashed and rebooted between diagnosis and respawn, the
/// old pids died with the node even though it reports up again. `alive`
/// is a liveness check of co-resident pids, not remote omniscience: in
/// place means they share the replacement's node.
pub(crate) fn rebuild_services(
    hint: &MemberInfo,
    action: RecoveryAction,
    alive: impl Fn(Pid) -> bool,
) -> bool {
    let services = [hint.checkpoint, hint.event, hint.bulletin];
    matches!(action, RecoveryAction::Migrated(_))
        || services.iter().any(|&pid| pid == Pid(0) || !alive(pid))
}

/// The planner's bookkeeping: the rescues under way.
#[derive(Default)]
pub(crate) struct Failover {
    rescuing: BTreeSet<PartitionId>,
}

impl Failover {
    /// Start a rescue of `partition` unless one is under way.
    pub(crate) fn begin_rescue(&mut self, partition: PartitionId) -> bool {
        self.rescuing.insert(partition)
    }

    /// The rescue of `partition` fired.
    pub(crate) fn end_rescue(&mut self, partition: PartitionId) {
        self.rescuing.remove(&partition);
    }

    /// The ring changed: a partition that is `present` again needs no
    /// rescue any more.
    pub(crate) fn forget_present(&mut self, present: impl Fn(PartitionId) -> bool) {
        self.rescuing.retain(|&p| !present(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Diagnosis::{NodeFailure, ProcessFailure};

    const HOST: NodeId = NodeId(10);

    /// Server 10, backup 11, compute 12 and 13.
    fn spec() -> PartitionSpec {
        PartitionSpec {
            id: PartitionId(2),
            server: HOST,
            backups: vec![NodeId(11)],
            compute: vec![NodeId(12), NodeId(13)],
        }
    }

    fn placed(cause: Cause, down: &[u32], slow: &[u32]) -> Option<(NodeId, RecoveryAction, u64)> {
        let up = |n: NodeId| !down.contains(&n.0);
        let degraded = |n: NodeId| slow.contains(&n.0);
        let p = place(&spec(), HOST, cause, up, degraded)?;
        Some((p.to, p.action, p.cost.as_nanos() / 1_000_000))
    }

    #[test]
    fn placement_table() {
        use Cause::*;
        let stay = |ms| Some((HOST, RecoveryAction::RestartedInPlace, ms));
        let go = |n, ms| Some((NodeId(n), RecoveryAction::Migrated(NodeId(n)), ms));
        // (cause, nodes down, nodes read slow, placement)
        let rows = [
            // Only the daemon died: restart it where it was.
            (Diagnosed(ProcessFailure), &[][..], &[][..], stay(2020)),
            // The host died: the first live node after it, backups first.
            (Diagnosed(NodeFailure), &[10], &[], go(11, 2930)),
            (Diagnosed(NodeFailure), &[10, 11], &[], go(12, 2930)),
            // Healthy nodes first, a degraded one over none at all.
            (Diagnosed(NodeFailure), &[10], &[11], go(12, 2930)),
            (Diagnosed(NodeFailure), &[10, 12, 13], &[11], go(11, 2930)),
            (Diagnosed(NodeFailure), &[10, 11, 12, 13], &[], None),
            // A rescue learns at fire time whether the host survived, and
            // has done its waiting.
            (Rescue, &[], &[], stay(0)),
            (Rescue, &[10], &[11], go(12, 0)),
            (Rescue, &[10], &[11, 12, 13], go(11, 0)),
            (Rescue, &[10, 11, 12, 13], &[], None),
            // A drain leaves a live host, and only for a healthy node.
            (Drain, &[], &[10], go(11, 0)),
            (Drain, &[11], &[10, 12], go(13, 0)),
            (Drain, &[], &[10, 11, 12, 13], None),
            (Drain, &[11, 12, 13], &[10], None),
        ];
        for (cause, down, slow, want) in rows {
            assert_eq!(
                placed(cause, down, slow),
                want,
                "{cause:?} {down:?} {slow:?}"
            );
        }
    }

    #[test]
    fn rebuild_services_table() {
        use RecoveryAction::{Migrated, RestartedInPlace};
        let hint = |checkpoint, event, bulletin| MemberInfo {
            checkpoint: Pid(checkpoint),
            event: Pid(event),
            bulletin: Pid(bulletin),
            ..MemberInfo::unwired(PartitionId(2))
        };
        // (action, hinted checkpoint / event / bulletin, dead pids, rebuild)
        let rows = [
            // Migrated: rebuilt whatever the hint says is alive.
            (Migrated(NodeId(11)), hint(5, 6, 7), &[][..], true),
            // In place and every hinted service alive: adopted.
            (RestartedInPlace, hint(5, 6, 7), &[], false),
            // In place, but one of them died with a rebooted host.
            (RestartedInPlace, hint(5, 6, 7), &[5], true),
            (RestartedInPlace, hint(5, 6, 7), &[6], true),
            (RestartedInPlace, hint(5, 6, 7), &[7], true),
            // A slot never filled is nothing to adopt.
            (RestartedInPlace, hint(5, 0, 7), &[], true),
            (RestartedInPlace, MemberInfo::unwired(PartitionId(2)), &[], true),
        ];
        for (action, hint, dead, want) in rows {
            let alive = |pid: Pid| !dead.contains(&pid.0);
            assert_eq!(
                rebuild_services(&hint, action, alive),
                want,
                "{action:?} {hint:?} dead {dead:?}"
            );
        }
    }

    #[test]
    fn a_partition_is_rescued_once_at_a_time() {
        let (p1, p2) = (PartitionId(1), PartitionId(2));
        let mut f = Failover::default();
        assert!(f.begin_rescue(p1));
        assert!(!f.begin_rescue(p1), "already under way");
        assert!(f.begin_rescue(p2));
        f.end_rescue(p1);
        assert!(f.begin_rescue(p1), "fired: may be rescued again");
        f.forget_present(|p| p == p2);
        assert!(f.begin_rescue(p2), "rejoined meanwhile: forgotten");
        assert!(!f.begin_rescue(p1));
    }
}
