//! What a GSD still owes the configuration service's directory.
//!
//! A respawned GSD asks config for the directory until it is wired, and a
//! GSD that changed a directory entry — its own after a takeover or a
//! service restart, a node's after a watch-daemon restart — pushes the
//! change fire-and-forget. Under the lossy switch a lost push must not
//! leave the directory pointing at a dead pid for ever, so every change is
//! re-asserted for a bounded number of ticks. [`DirSync`] counts the
//! queries and the repeats still due. No sends, no telemetry, no simulator
//! context.

use phoenix_proto::NodeServices;
use phoenix_sim::NodeId;
use std::collections::BTreeMap;

/// Ticks over which a changed directory entry is re-asserted (~2 s at the
/// fast heartbeat interval — enough to straddle any loss burst a chaos
/// schedule can generate).
const RESEND_TICKS: u32 = 20;

pub(crate) struct DirSync {
    /// The lossy switch is on: repeats happen at all.
    retrying: bool,
    /// Directory queries sent so far, for the retry policy to count.
    pub(crate) queries: u32,
    /// Repeats of our own `DirectoryUpdate` still due.
    local_left: u32,
    /// Node entries this GSD changed, with the repeats still due.
    nodes: BTreeMap<NodeId, (NodeServices, u32)>,
}

impl DirSync {
    pub(crate) fn new(retrying: bool) -> DirSync {
        DirSync {
            retrying,
            queries: 0,
            local_left: 0,
            nodes: BTreeMap::new(),
        }
    }

    /// Our own directory entry was just pushed.
    pub(crate) fn local_changed(&mut self) {
        if self.retrying {
            self.local_left = RESEND_TICKS;
        }
    }

    /// A node's entry, as changed by this GSD, was just pushed.
    pub(crate) fn node_changed(&mut self, services: NodeServices) {
        if self.retrying {
            self.nodes.insert(services.node, (services, RESEND_TICKS));
        }
    }

    /// Config pushed a fresher entry for `node`: it supersedes ours.
    pub(crate) fn node_superseded(&mut self, node: NodeId) {
        self.nodes.remove(&node);
    }

    /// One tick: whether our own entry is due again, and the node entries
    /// that are, in node order.
    pub(crate) fn tick(&mut self) -> (bool, Vec<NodeServices>) {
        let local = self.local_left > 0;
        self.local_left = self.local_left.saturating_sub(1);
        let mut due = Vec::new();
        self.nodes.retain(|_, (services, left)| {
            due.push(*services);
            *left -= 1;
            *left > 0
        });
        (local, due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::Pid;

    fn services(node: u32, wd: u64) -> NodeServices {
        NodeServices {
            node: NodeId(node),
            wd: Pid(wd),
            detector: Pid(0),
            ppm: Pid(0),
        }
    }

    #[test]
    fn changes_are_repeated_a_bounded_number_of_ticks_in_node_order() {
        let mut d = DirSync::new(true);
        assert_eq!(d.tick(), (false, vec![]), "nothing changed, nothing due");
        d.local_changed();
        d.node_changed(services(7, 70));
        d.node_changed(services(3, 30));
        assert_eq!(d.tick(), (true, vec![services(3, 30), services(7, 70)]));
        d.node_changed(services(7, 71)); // restarted again: a fresh count
        d.node_superseded(NodeId(3));
        for _ in 1..RESEND_TICKS {
            assert_eq!(d.tick(), (true, vec![services(7, 71)]));
        }
        assert_eq!(d.tick(), (false, vec![services(7, 71)]));
        assert_eq!(d.tick(), (false, vec![]), "every repeat is spent");
    }

    #[test]
    fn a_single_shot_policy_repeats_nothing() {
        let mut d = DirSync::new(false);
        d.local_changed();
        d.node_changed(services(3, 30));
        assert_eq!(d.tick(), (false, vec![]));
    }
}
