//! Protocol-level identifiers (on top of the simulator's hardware ids).

use std::fmt;
use std::sync::Arc;

/// A cluster partition: one server node, at least one backup server node,
/// and a set of computing nodes (paper Sec 4.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part{}", self.0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part{}", self.0)
    }
}

/// The kinds of kernel service the paper's Figure 2 stacks on group service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ServiceKind {
    Configuration,
    Security,
    ParallelProcessManagement,
    Detector,
    Group,
    Checkpoint,
    Event,
    DataBulletin,
    WatchDaemon,
    /// User-environment services built on the kernel (PWS scheduler, ...).
    UserEnvironment,
}

impl ServiceKind {
    /// Short label used in traces and traffic tables.
    pub fn label(self) -> &'static str {
        match self {
            ServiceKind::Configuration => "config",
            ServiceKind::Security => "security",
            ServiceKind::ParallelProcessManagement => "ppm",
            ServiceKind::Detector => "detector",
            ServiceKind::Group => "group",
            ServiceKind::Checkpoint => "checkpoint",
            ServiceKind::Event => "event",
            ServiceKind::DataBulletin => "bulletin",
            ServiceKind::WatchDaemon => "wd",
            ServiceKind::UserEnvironment => "userenv",
        }
    }
}

/// A batch job handled by PPM / PWS.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A user principal known to the security service. The name is
/// reference-counted: every queued job carries one, and a checkpoint
/// snapshot copies the whole queue.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub Arc<str>);

impl UserId {
    pub fn new(name: impl Into<String>) -> UserId {
        UserId(Arc::from(name.into()))
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Correlates a request with its response across the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct RequestId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_labels_are_unique() {
        use ServiceKind::*;
        let all = [
            Configuration,
            Security,
            ParallelProcessManagement,
            Detector,
            Group,
            Checkpoint,
            Event,
            DataBulletin,
            WatchDaemon,
            UserEnvironment,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PartitionId(3).to_string(), "part3");
        assert_eq!(JobId(12).to_string(), "job12");
        assert_eq!(UserId::new("alice").to_string(), "alice");
    }
}
