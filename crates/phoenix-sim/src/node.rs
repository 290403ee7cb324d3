//! Simulated nodes: power state, network interfaces, resource gauges.

use crate::ids::{NicId, NodeId};

/// Instantaneous resource readings on a node, as fractions in `0.0..=1.0`
/// (percentages / 100). These are the quantities the paper's physical
/// resource detector samples: CPU, memory, swap, disk I/O and network I/O.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ResourceUsage {
    pub cpu: f64,
    pub memory: f64,
    pub swap: f64,
    pub disk_io: f64,
    pub net_io: f64,
}

impl ResourceUsage {
    /// An idle node.
    pub const IDLE: ResourceUsage = ResourceUsage {
        cpu: 0.0,
        memory: 0.0,
        swap: 0.0,
        disk_io: 0.0,
        net_io: 0.0,
    };

    /// Clamp all gauges into `0.0..=1.0`.
    pub fn clamped(mut self) -> ResourceUsage {
        for v in [
            &mut self.cpu,
            &mut self.memory,
            &mut self.swap,
            &mut self.disk_io,
            &mut self.net_io,
        ] {
            *v = v.clamp(0.0, 1.0);
        }
        self
    }
}

/// Static description of a node used when building a cluster.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Number of network interfaces. The Dawning 4000A had three networks.
    pub(crate) nics: usize,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { nics: 3 }
    }
}

/// Mutable runtime state of a node inside the world.
#[derive(Debug)]
pub struct NodeState {
    pub id: NodeId,
    pub up: bool,
    pub nic_up: Vec<bool>,
    pub usage: ResourceUsage,
}

impl NodeState {
    pub fn new(id: NodeId, spec: NodeSpec) -> NodeState {
        NodeState {
            id,
            up: true,
            nic_up: vec![true; spec.nics],
            usage: ResourceUsage::IDLE,
        }
    }

    /// Is the given NIC present and healthy (node must be up too)?
    pub(crate) fn nic_healthy(&self, nic: NicId) -> bool {
        self.up && self.nic_up.get(nic.0 as usize).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_is_fully_up() {
        let n = NodeState::new(NodeId(0), NodeSpec::default());
        assert!(n.up);
        assert_eq!(n.nic_up.len(), 3);
        assert!((0..3).all(|i| n.nic_healthy(NicId(i))));
    }

    #[test]
    fn nic_failure_reroutes_first_healthy() {
        let mut n = NodeState::new(NodeId(0), NodeSpec::default());
        n.nic_up[0] = false;
        assert!(!n.nic_healthy(NicId(0)));
        assert!(n.nic_healthy(NicId(1)));
        n.nic_up[1] = false;
        n.nic_up[2] = false;
        assert!(!(0..3).any(|i| n.nic_healthy(NicId(i))));
    }

    #[test]
    fn downed_node_has_no_healthy_nic() {
        let mut n = NodeState::new(NodeId(0), NodeSpec::default());
        n.up = false;
        assert!(!(0..3).any(|i| n.nic_healthy(NicId(i))));
    }

    #[test]
    fn out_of_range_nic_is_unhealthy() {
        let n = NodeState::new(NodeId(0), NodeSpec::default());
        assert!(!n.nic_healthy(NicId(9)));
    }

    #[test]
    fn usage_clamps() {
        let u = ResourceUsage {
            cpu: 1.7,
            memory: -0.2,
            swap: 0.5,
            disk_io: 2.0,
            net_io: 0.0,
        }
        .clamped();
        assert_eq!(u.cpu, 1.0);
        assert_eq!(u.memory, 0.0);
        assert_eq!(u.swap, 0.5);
        assert_eq!(u.disk_io, 1.0);
    }
}
