//! Cluster topology: the partition layout the group service is built on.
//!
//! Paper Sec 4.3: "the whole cluster system is divided into several cluster
//! partitions, each of which is composed of one server node, at least one
//! server backup node, and other computing nodes."

use crate::ids::PartitionId;
use phoenix_sim::NodeId;

/// One partition: a server node hosting the per-partition services (GSD,
/// event, bulletin, checkpoint), backup server nodes the GSD can migrate
/// to, and the computing nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartitionSpec {
    pub id: PartitionId,
    pub server: NodeId,
    pub backups: Vec<NodeId>,
    pub compute: Vec<NodeId>,
}

impl PartitionSpec {
    /// Every node in the partition: server, backups, then compute.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.backups.len() + self.compute.len());
        v.push(self.server);
        v.extend_from_slice(&self.backups);
        v.extend_from_slice(&self.compute);
        v
    }

    /// Number of nodes in the partition.
    pub(crate) fn len(&self) -> usize {
        1 + self.backups.len() + self.compute.len()
    }
}

/// The whole cluster layout.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ClusterTopology {
    pub partitions: Vec<PartitionSpec>,
}

impl ClusterTopology {
    /// Build a uniform topology: `partitions` partitions of
    /// `nodes_per_partition` nodes each; within a partition, node 0 is the
    /// server, the next `backups` nodes are backup servers, and the rest
    /// compute. Node ids are assigned contiguously.
    ///
    /// The paper's fault-tolerance testbed was `ClusterTopology::uniform(8,
    /// 17, 1)` (136 nodes, "16 computing nodes and 1 server node per
    /// partition" plus a backup drawn from the pool).
    pub fn uniform(partitions: usize, nodes_per_partition: usize, backups: usize) -> Self {
        assert!(
            nodes_per_partition >= 1 + backups,
            "partition too small for server + backups"
        );
        let mut out = Vec::with_capacity(partitions);
        let mut next = 0u32;
        for p in 0..partitions {
            let server = NodeId(next);
            next += 1;
            let backup_ids: Vec<NodeId> = (0..backups)
                .map(|_| {
                    let id = NodeId(next);
                    next += 1;
                    id
                })
                .collect();
            let compute: Vec<NodeId> = (0..nodes_per_partition - 1 - backups)
                .map(|_| {
                    let id = NodeId(next);
                    next += 1;
                    id
                })
                .collect();
            out.push(PartitionSpec {
                id: PartitionId(p as u32),
                server,
                backups: backup_ids,
                compute,
            });
        }
        ClusterTopology { partitions: out }
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// The partition a node belongs to.
    pub fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.partitions
            .iter()
            .find(|p| p.server == node || p.backups.contains(&node) || p.compute.contains(&node))
            .map(|p| p.id)
    }

    /// The spec of one partition.
    pub fn partition(&self, id: PartitionId) -> Option<&PartitionSpec> {
        self.partitions.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_assigns_contiguous_ids() {
        let t = ClusterTopology::uniform(2, 4, 1);
        assert_eq!(t.node_count(), 8);
        let p0 = &t.partitions[0];
        assert_eq!(p0.server, NodeId(0));
        assert_eq!(p0.backups, vec![NodeId(1)]);
        assert_eq!(p0.compute, vec![NodeId(2), NodeId(3)]);
        let p1 = &t.partitions[1];
        assert_eq!(p1.server, NodeId(4));
    }

    #[test]
    fn paper_testbed_shape() {
        // 136 nodes: 8 partitions of 17 (server + backup + 15 compute).
        let t = ClusterTopology::uniform(8, 17, 1);
        assert_eq!(t.node_count(), 136);
        assert_eq!(t.partitions.len(), 8);
    }

    #[test]
    fn partition_of_finds_all_roles() {
        let t = ClusterTopology::uniform(2, 4, 1);
        assert_eq!(t.partition_of(NodeId(0)), Some(PartitionId(0)));
        assert_eq!(t.partition_of(NodeId(1)), Some(PartitionId(0)));
        assert_eq!(t.partition_of(NodeId(3)), Some(PartitionId(0)));
        assert_eq!(t.partition_of(NodeId(4)), Some(PartitionId(1)));
        assert_eq!(t.partition_of(NodeId(99)), None);
    }

    #[test]
    #[should_panic(expected = "partition too small")]
    fn too_small_partition_panics() {
        ClusterTopology::uniform(1, 1, 1);
    }

    #[test]
    fn all_nodes_order() {
        let t = ClusterTopology::uniform(1, 5, 2);
        let p = &t.partitions[0];
        assert_eq!(
            p.all_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(p.len(), 5);
    }
}
