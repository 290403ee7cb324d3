//! Structured trace log.
//!
//! Services emit [`TraceEvent`]s (fault detected, diagnosis completed,
//! service recovered, leader elected, ...) and the experiment harnesses mine
//! the log to compute the detecting / diagnosing / recovery times reported
//! in the paper's Tables 1–3.

use crate::ids::{NicId, NodeId, Pid};
use crate::time::SimTime;

/// What happened. The variants map onto the observable milestones of the
/// paper's fault-tolerance pipeline plus generic service lifecycle markers.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A failure was first noticed (a heartbeat deadline expired, a ring
    /// neighbour went silent, ...). `target` names the suspected entity.
    FaultDetected {
        observer: Pid,
        target: FaultTarget,
    },
    /// The failure was classified (process vs node vs network).
    FaultDiagnosed {
        observer: Pid,
        target: FaultTarget,
        diagnosis: Diagnosis,
    },
    /// The failed component is back in service (restarted or migrated, state
    /// restored).
    Recovered {
        target: FaultTarget,
        action: RecoveryAction,
    },
    /// A meta-group member took a new role.
    RoleChange {
        pid: Pid,
        role: &'static str,
    },
    /// Generic milestone with a label and an optional numeric payload;
    /// used by experiments that need custom markers.
    Milestone {
        label: &'static str,
        value: f64,
    },
    /// Service started serving (after spawn + initialization).
    ServiceUp {
        pid: Pid,
        service: &'static str,
        node: NodeId,
    },
}

/// The entity a fault event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    Process(Pid),
    Node(NodeId),
    Nic(NodeId, NicId),
}

/// Classification of an observed failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diagnosis {
    ProcessFailure,
    NodeFailure,
    NetworkFailure,
}

/// How the failure was repaired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restarted in place on the same node.
    RestartedInPlace,
    /// Migrated to another node and restarted there.
    Migrated(NodeId),
    /// No action required (e.g. one of several redundant networks failed,
    /// or the WD dies with its node and is meaningless to migrate).
    NoneNeeded,
}

/// A timestamped trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    pub at: SimTime,
    pub event: TraceEvent,
}

/// Append-only in-memory trace log.
#[derive(Debug, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    pub(crate) fn push(&mut self, at: SimTime, event: TraceEvent) {
        self.records.push(TraceRecord { at, event });
    }

    /// All records in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (cheap progress cursor for quiescence checks).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// First record (at or after `after`) matching `pred`.
    pub fn find_after<F>(&self, after: SimTime, mut pred: F) -> Option<&TraceRecord>
    where
        F: FnMut(&TraceEvent) -> bool,
    {
        self.records
            .iter()
            .find(|r| r.at >= after && pred(&r.event))
    }

    /// Number of records matching `pred`.
    pub fn count<F>(&self, mut pred: F) -> usize
    where
        F: FnMut(&TraceEvent) -> bool,
    {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }

    /// Drop all records (between experiment phases).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Render every record as one line of text. The format is stable and
    /// fully determined by the record contents (virtual time + `Debug` of
    /// the event), so two runs are trace-byte-identical iff their rendered
    /// logs are equal — the comparison stream of the differential harness.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{} {:?}", r.at.0, r.event);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_after_respects_time_and_pred() {
        let mut log = TraceLog::default();
        log.push(
            SimTime(10),
            TraceEvent::Milestone {
                label: "a",
                value: 1.0,
            },
        );
        log.push(
            SimTime(20),
            TraceEvent::Milestone {
                label: "b",
                value: 2.0,
            },
        );
        let hit = log
            .find_after(SimTime(15), |e| {
                matches!(e, TraceEvent::Milestone { label: "b", .. })
            })
            .unwrap();
        assert_eq!(hit.at, SimTime(20));
        assert!(log
            .find_after(SimTime(25), |e| matches!(e, TraceEvent::Milestone { .. }))
            .is_none());
    }

    #[test]
    fn count_filters() {
        let mut log = TraceLog::default();
        for i in 0..5 {
            log.push(
                SimTime(i),
                TraceEvent::Milestone {
                    label: "x",
                    value: i as f64,
                },
            );
        }
        assert_eq!(
            log.count(|e| matches!(e, TraceEvent::Milestone { value, .. } if *value >= 3.0)),
            2
        );
    }

    #[test]
    fn render_is_one_stable_line_per_record() {
        let mut log = TraceLog::default();
        log.push(
            SimTime(7),
            TraceEvent::Milestone {
                label: "x",
                value: 1.5,
            },
        );
        log.push(
            SimTime(9),
            TraceEvent::RoleChange {
                pid: Pid(3),
                role: "leader",
            },
        );
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("7 Milestone"));
        assert!(text.contains("9 RoleChange"));
    }

    #[test]
    fn clear_empties() {
        let mut log = TraceLog::default();
        log.push(
            SimTime(1),
            TraceEvent::Milestone {
                label: "x",
                value: 0.0,
            },
        );
        log.clear();
        assert!(log.records().is_empty());
    }
}
