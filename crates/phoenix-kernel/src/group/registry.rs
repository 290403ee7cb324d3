//! The respawn-factory registry.
//!
//! Paper Sec 4.4: services "call the interface of group service to create
//! service group and register policies of how to deal with faults." In
//! this reproduction the *policy* is a factory closure: given the respawn
//! context (node, partition, current membership, recovery action), it
//! builds a replacement actor. GSDs share one registry; the simulation is
//! single-threaded, so `Rc<RefCell<…>>` is the right tool.

use crate::params::KernelParams;
use phoenix_proto::{KernelMsg, MemberInfo, PartitionId, ServiceKind, Shared};
use phoenix_sim::{Actor, Pid, RecoveryAction};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Everything a factory needs to rebuild a service instance.
#[derive(Clone, Debug)]
pub struct RespawnArgs {
    pub partition: PartitionId,
    /// The supervising GSD.
    pub(crate) gsd: Pid,
    /// The partition's (possibly freshly spawned) checkpoint instance.
    pub(crate) checkpoint: Pid,
    /// The supervising GSD's ring list, shared (for federation peers).
    pub(crate) members: Shared<Vec<MemberInfo>>,
    pub(crate) action: RecoveryAction,
    pub params: KernelParams,
}

/// A respawn recipe.
pub type Factory = Box<dyn FnMut(&RespawnArgs) -> Box<dyn Actor<KernelMsg>>>;

/// Factory registry shared by every GSD (and by user environments that
/// want their services supervised).
#[derive(Default)]
pub struct FactoryRegistry {
    map: HashMap<String, Factory>,
}

impl FactoryRegistry {
    /// Register (or replace) a recipe under `key`.
    pub fn register(&mut self, key: impl Into<String>, factory: Factory) {
        self.map.insert(key.into(), factory);
    }

    /// Build a replacement actor, if a recipe exists.
    pub(crate) fn build(
        &mut self,
        key: &str,
        args: &RespawnArgs,
    ) -> Option<Box<dyn Actor<KernelMsg>>> {
        self.map.get_mut(key).map(|f| f(args))
    }
}

/// Shared handle to the registry.
pub type SharedRegistry = Rc<RefCell<FactoryRegistry>>;

/// Create an empty shared registry.
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(FactoryRegistry::default()))
}

/// Conventional factory keys for the per-partition kernel services:
/// `"event:p3"`, `"bulletin:p0"`, `"checkpoint:p1"`.
pub fn kernel_factory_key(kind: ServiceKind, partition: PartitionId) -> String {
    format!("{}:p{}", kind.label(), partition.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::Ctx;

    struct Nop;
    impl Actor<KernelMsg> for Nop {
        fn on_message(&mut self, _: &mut Ctx<'_, KernelMsg>, _: Pid, _: KernelMsg) {}
    }

    fn args() -> RespawnArgs {
        RespawnArgs {
            partition: PartitionId(0),
            gsd: Pid(1),
            checkpoint: Pid(2),
            members: Shared::default(),
            action: RecoveryAction::RestartedInPlace,
            params: KernelParams::fast(),
        }
    }

    #[test]
    fn register_and_build() {
        let reg = shared_registry();
        reg.borrow_mut()
            .register("event:p0", Box::new(|_| Box::new(Nop)));
        let built = reg.borrow_mut().build("event:p0", &args());
        assert!(built.is_some());
        assert!(reg.borrow_mut().build("missing", &args()).is_none());
    }

    #[test]
    fn keys_are_per_partition() {
        assert_ne!(
            kernel_factory_key(ServiceKind::Event, PartitionId(0)),
            kernel_factory_key(ServiceKind::Event, PartitionId(1))
        );
        assert_eq!(
            kernel_factory_key(ServiceKind::DataBulletin, PartitionId(3)),
            "bulletin:p3"
        );
    }
}
