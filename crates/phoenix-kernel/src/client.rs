//! Test/driver client: an actor that collects everything sent to it.
//!
//! Experiments and examples interact with the kernel the way the paper's
//! user environments do — by exchanging messages. `ClientHandle` spawns a
//! collector actor on a node and exposes its inbox to the driving code.

use phoenix_proto::KernelMsg;
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration, World};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

type Inbox = Rc<RefCell<VecDeque<(Pid, KernelMsg)>>>;

struct Collector {
    inbox: Inbox,
}

impl Actor<KernelMsg> for Collector {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        self.inbox.borrow_mut().push_back((from, msg));
    }
    fn name(&self) -> &str {
        "client"
    }
}

/// Handle to a spawned collector actor.
#[derive(Clone)]
pub struct ClientHandle {
    /// The collector's pid — use as the reply-to address.
    pub pid: Pid,
    inbox: Inbox,
}

impl ClientHandle {
    /// Spawn a client on `node`.
    pub fn spawn(world: &mut World<KernelMsg>, node: NodeId) -> ClientHandle {
        let inbox: Inbox = Rc::new(RefCell::new(VecDeque::new()));
        let pid = world.spawn(
            node,
            Box::new(Collector {
                inbox: inbox.clone(),
            }),
        );
        ClientHandle { pid, inbox }
    }

    /// Send `msg` to `to` with this client as the sender, so responses
    /// come back to the inbox.
    pub fn send(&self, world: &mut World<KernelMsg>, to: Pid, msg: KernelMsg) {
        world.send_from(self.pid, to, msg);
    }

    /// One question: send `msg` to `to`, run the world for `wait`, and give
    /// the first waiting reply `pick` accepts. Everything else that had
    /// arrived is dropped with it.
    pub fn ask<T>(
        &self,
        world: &mut World<KernelMsg>,
        to: Pid,
        msg: KernelMsg,
        wait: SimDuration,
        mut pick: impl FnMut(KernelMsg) -> Option<T>,
    ) -> Option<T> {
        self.send(world, to, msg);
        world.run_for(wait);
        self.drain().into_iter().find_map(|(_, m)| pick(m))
    }

    /// Take all received messages.
    pub fn drain(&self) -> Vec<(Pid, KernelMsg)> {
        self.inbox.borrow_mut().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::{ClusterBuilder, NodeSpec};

    struct EchoReq;
    impl Actor<KernelMsg> for EchoReq {
        fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
            ctx.send(from, msg);
        }
    }

    #[test]
    fn client_round_trip() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let echo = w.spawn(NodeId(1), Box::new(EchoReq));
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let probe = KernelMsg::ProbeReq {
            req: phoenix_proto::RequestId(5),
        };
        let echoed = client.ask(
            &mut w,
            echo,
            probe,
            SimDuration::from_millis(5),
            |m| match m {
                KernelMsg::ProbeReq { req } => Some(req),
                _ => None,
            },
        );
        assert_eq!(echoed, Some(phoenix_proto::RequestId(5)));
        assert!(client.drain().is_empty());
    }
}
