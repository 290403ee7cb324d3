//! Identifiers for simulated hardware and software entities.

use std::fmt;

/// Identifies a physical node in the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index of this node.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Index of a network interface on a node. The Dawning 4000A nodes in the
/// paper each had three networks, so the default cluster uses NICs 0..3.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NicId(pub u8);

impl fmt::Debug for NicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nic{}", self.0)
    }
}

impl fmt::Display for NicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nic{}", self.0)
    }
}

/// Identifies a simulated process (an actor instance). Process ids are
/// unique for the lifetime of a simulation and never reused, so a stale
/// `Pid` can never be confused with a restarted service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u64);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Token identifying a timer registration; returned by `Ctx::set_timer` and
/// passed back to `Actor::on_timer`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerId(pub(crate) u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(7).to_string(), "node7");
        assert_eq!(NicId(2).to_string(), "nic2");
        assert_eq!(Pid(99).to_string(), "pid99");
    }

    #[test]
    fn node_index_round_trip() {
        assert_eq!(NodeId(41).index(), 41);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(Pid(1) < Pid(2));
        assert!(NicId(0) < NicId(1));
    }
}
