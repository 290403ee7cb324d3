//! The node rows an actor routes by: the cluster directory it was wired
//! from, shared with every other actor wired from the same one, plus the
//! rows that changed since.
//!
//! A boot directory lists every node's daemons, so a per-actor copy of it
//! grows the cluster's memory with the square of its size. [`NodeTable`]
//! holds the directory by `Shared` pointer (one allocation for the whole
//! cluster) and keeps the `DirectoryUpdateNode` pushes, and the GSD's own
//! watch-daemon restarts, in a small overlay. A row reads from the overlay
//! first: the latest word on a node wins, whichever way it came.

use phoenix_proto::{NodeServices, ServiceDirectory, Shared};
use phoenix_sim::NodeId;
use std::collections::BTreeMap;

#[derive(Default)]
pub(crate) struct NodeTable {
    /// The directory this actor was last wired from; `None` before wiring.
    wired: Option<Shared<ServiceDirectory>>,
    /// Rows that changed after (or arrived before) the wiring, by node.
    changed: BTreeMap<NodeId, NodeServices>,
}

impl NodeTable {
    /// Wire from `dir`: its rows replace every changed row it also lists.
    pub(crate) fn wire(&mut self, dir: Shared<ServiceDirectory>) {
        self.changed.retain(|&node, _| dir.node(node).is_none());
        self.wired = Some(dir);
    }

    /// A node's daemons changed.
    pub(crate) fn update(&mut self, services: NodeServices) {
        self.changed.insert(services.node, services);
    }

    /// The daemons of `node`, if known.
    pub(crate) fn get(&self, node: NodeId) -> Option<NodeServices> {
        self.changed
            .get(&node)
            .or_else(|| self.wired.as_ref()?.node(node))
            .copied()
    }

    /// Every known row, in ascending node order.
    pub(crate) fn rows(&self) -> Vec<NodeServices> {
        let wired = self.wired.iter().flat_map(|dir| &dir.nodes);
        let mut rows: Vec<NodeServices> = self.changed.values().chain(wired).copied().collect();
        // Stable: a changed row sorts ahead of the wired one it replaces.
        rows.sort_by_key(|ns| ns.node);
        rows.dedup_by_key(|ns| ns.node);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::Pid;

    fn row(node: u32, wd: u64) -> NodeServices {
        NodeServices {
            node: NodeId(node),
            wd: Pid(wd),
            detector: Pid(wd + 1),
            ppm: Pid(wd + 2),
        }
    }

    fn directory(rows: Vec<NodeServices>) -> Shared<ServiceDirectory> {
        Shared::new(ServiceDirectory {
            nodes: rows,
            ..ServiceDirectory::default()
        })
    }

    #[test]
    fn an_update_before_wiring_is_overwritten_by_the_directory() {
        let mut table = NodeTable::default();
        table.update(row(1, 90));
        table.update(row(7, 70));
        table.wire(directory(vec![row(0, 10), row(1, 20)]));
        assert_eq!(table.get(NodeId(1)), Some(row(1, 20)));
        // A node the directory does not list keeps what it was told.
        assert_eq!(table.get(NodeId(7)), Some(row(7, 70)));
        assert_eq!(table.get(NodeId(3)), None);
    }

    #[test]
    fn an_update_after_wiring_wins() {
        let mut table = NodeTable::default();
        table.wire(directory(vec![row(0, 10), row(1, 20)]));
        table.update(row(1, 90));
        assert_eq!(table.get(NodeId(0)), Some(row(0, 10)));
        assert_eq!(table.get(NodeId(1)), Some(row(1, 90)));
        // Wiring again from a directory that lists the node takes its row.
        table.wire(directory(vec![row(1, 40)]));
        assert_eq!(table.get(NodeId(1)), Some(row(1, 40)));
        assert_eq!(table.get(NodeId(0)), None);
    }

    #[test]
    fn rows_are_in_ascending_node_order() {
        let mut table = NodeTable::default();
        // Config's node restart leaves the restarted row last.
        table.wire(directory(vec![row(0, 10), row(2, 30), row(1, 20)]));
        table.update(row(5, 50));
        table.update(row(2, 90));
        let nodes: Vec<(u32, u64)> = table.rows().iter().map(|ns| (ns.node.0, ns.wd.0)).collect();
        assert_eq!(nodes, vec![(0, 10), (1, 20), (2, 90), (5, 50)]);
    }
}
