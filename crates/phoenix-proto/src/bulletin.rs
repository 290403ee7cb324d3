//! Data-bulletin types: keys, values, and queries over the in-memory
//! cluster-state database (paper Sec 4.2: "an in-memory database which
//! stores the state of cluster-wide physical resource and application
//! state ... interfaces for non-persistent data storage and data query").

use crate::ids::{JobId, PartitionId};
use phoenix_sim::{NodeId, ResourceUsage};

/// Application liveness as seen by the application-state detector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppStatus {
    Running,
    Exited,
    Failed,
}

/// Application state exported by the application-state detector: resources
/// consumed by a specific application and its living status.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AppState {
    pub job: JobId,
    pub node: NodeId,
    pub cpu: f64,
    pub memory: f64,
    pub status: AppStatus,
}

/// Key of a bulletin entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BulletinKey {
    /// Physical resource gauges of a node.
    Resource(NodeId),
    /// State of one application instance on one node.
    App(NodeId, JobId),
}

impl BulletinKey {
    /// The node the entry describes.
    pub fn node(self) -> NodeId {
        match self {
            BulletinKey::Resource(n) => n,
            BulletinKey::App(n, _) => n,
        }
    }
}

/// Value of a bulletin entry.
#[derive(Clone, PartialEq, Debug)]
pub enum BulletinValue {
    Resource(ResourceUsage),
    App(AppState),
}

/// One row of the bulletin: key, value, and the virtual time (ns) the
/// reading was taken, so consumers can ignore stale data.
#[derive(Clone, PartialEq, Debug)]
pub struct BulletinEntry {
    pub key: BulletinKey,
    pub value: BulletinValue,
    pub stamp_ns: u64,
}

/// Query shapes accepted by the bulletin's single access point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BulletinQuery {
    /// Everything the federation knows (GridView's cluster-wide pull).
    All,
    /// All entries about one node.
    Node(NodeId),
    /// All entries published in one partition.
    Partition(PartitionId),
    /// Only physical-resource entries (cluster-wide).
    Resources,
    /// Only application-state entries (cluster-wide).
    Apps,
}

impl BulletinQuery {
    /// Does the query select entries from `partition` (true unless the
    /// query names a different partition)?
    pub fn wants_partition(self, partition: PartitionId) -> bool {
        match self {
            BulletinQuery::Partition(p) => p == partition,
            _ => true,
        }
    }

    /// Does the query select this entry (ignoring partition scope)?
    pub fn matches(self, entry: &BulletinEntry) -> bool {
        match self {
            BulletinQuery::All | BulletinQuery::Partition(_) => true,
            BulletinQuery::Node(n) => entry.key.node() == n,
            BulletinQuery::Resources => matches!(entry.key, BulletinKey::Resource(_)),
            BulletinQuery::Apps => matches!(entry.key, BulletinKey::App(..)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: BulletinKey) -> BulletinEntry {
        let value = match key {
            BulletinKey::Resource(_) => BulletinValue::Resource(ResourceUsage::IDLE),
            BulletinKey::App(n, j) => BulletinValue::App(AppState {
                job: j,
                node: n,
                cpu: 0.5,
                memory: 0.2,
                status: AppStatus::Running,
            }),
        };
        BulletinEntry {
            key,
            value,
            stamp_ns: 0,
        }
    }

    #[test]
    fn node_query_filters_by_node() {
        let q = BulletinQuery::Node(NodeId(3));
        assert!(q.matches(&entry(BulletinKey::Resource(NodeId(3)))));
        assert!(q.matches(&entry(BulletinKey::App(NodeId(3), JobId(1)))));
        assert!(!q.matches(&entry(BulletinKey::Resource(NodeId(4)))));
    }

    #[test]
    fn kind_queries_filter_by_kind() {
        assert!(BulletinQuery::Resources.matches(&entry(BulletinKey::Resource(NodeId(0)))));
        assert!(!BulletinQuery::Resources.matches(&entry(BulletinKey::App(NodeId(0), JobId(1)))));
        assert!(BulletinQuery::Apps.matches(&entry(BulletinKey::App(NodeId(0), JobId(1)))));
    }

    #[test]
    fn partition_scope() {
        assert!(BulletinQuery::All.wants_partition(PartitionId(2)));
        assert!(BulletinQuery::Partition(PartitionId(2)).wants_partition(PartitionId(2)));
        assert!(!BulletinQuery::Partition(PartitionId(2)).wants_partition(PartitionId(3)));
    }

    #[test]
    fn key_node_accessor() {
        assert_eq!(BulletinKey::Resource(NodeId(7)).node(), NodeId(7));
        assert_eq!(BulletinKey::App(NodeId(8), JobId(1)).node(), NodeId(8));
    }
}
