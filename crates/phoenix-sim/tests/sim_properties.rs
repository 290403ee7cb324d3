//! Property tests of the simulator substrate: conservation of messages,
//! FIFO delivery without jitter, and crash-safety of the world under
//! arbitrary fault sequences.
//!
//! Formerly proptest-based; the workspace now builds with no external
//! crates, so each property is exercised over a deterministic, seeded
//! sweep of inputs drawn from `SimRng` — same coverage intent, fully
//! reproducible, zero dependencies.

use phoenix_sim::{
    Actor, ClusterBuilder, Ctx, Fault, Message, NetParams, NicId, NodeId, NodeSpec, Pid, SimDuration,
    SimRng,
};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Seq(u64);
impl Message for Seq {
    const LABELS: &'static [&'static str] = &["seq"];
    fn wire_size(&self) -> usize {
        8
    }
}

struct Recorder {
    got: Rc<RefCell<Vec<u64>>>,
}
impl Actor<Seq> for Recorder {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Seq>, _from: Pid, msg: Seq) {
        self.got.borrow_mut().push(msg.0);
    }
}

struct Burst {
    to: Pid,
    count: u64,
}
impl Actor<Seq> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
        for i in 0..self.count {
            ctx.send(self.to, Seq(i));
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Seq>, _from: Pid, _msg: Seq) {}
}

/// Without jitter, a burst from one sender arrives in FIFO order.
#[test]
fn fifo_without_jitter() {
    let mut gen = SimRng::seed_from_u64(0xF1F0);
    for case in 0..64 {
        let count = if case < 4 { case + 1 } else { gen.gen_range(1u64..64) };
        let mut net = NetParams::default();
        net.jitter = SimDuration::ZERO;
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .net(net)
            .build::<Seq>();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = w.spawn(NodeId(1), Box::new(Recorder { got: got.clone() }));
        w.spawn(NodeId(0), Box::new(Burst { to: sink, count }));
        w.run_for(SimDuration::from_secs(1));
        let got = got.borrow();
        assert_eq!(got.len() as u64, count);
        assert!(got.windows(2).all(|p| p[0] < p[1]), "order (count={count}): {:?}", &*got);
    }
}

/// Message conservation: sent == delivered + dropped, and a dead receiver
/// or a fully dark NIC set means zero deliveries.
#[test]
fn messages_are_conserved() {
    let mut gen = SimRng::seed_from_u64(0xC0_15E2);
    for case in 0..64 {
        let count = gen.gen_range(1u64..50);
        let kill_receiver = case % 2 == 0;
        let nic_down = (case / 2) % 2 == 0;
        let mut w = ClusterBuilder::new().nodes(2, NodeSpec::default()).build::<Seq>();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = w.spawn(NodeId(1), Box::new(Recorder { got: got.clone() }));
        if nic_down {
            for i in 0..3 {
                w.apply_fault(Fault::NicDown(NodeId(1), NicId(i)));
            }
        }
        if kill_receiver {
            w.kill_process(sink);
        }
        w.spawn(NodeId(0), Box::new(Burst { to: sink, count }));
        w.run_for(SimDuration::from_secs(1));
        let m = w.metrics();
        assert_eq!(m.total.sent, count);
        assert_eq!(m.total.delivered + m.total.dropped, count);
        if kill_receiver || nic_down {
            assert_eq!(m.total.delivered, 0);
        } else {
            assert_eq!(m.total.delivered, count);
        }
    }
}

/// The world never panics and stays consistent under arbitrary fault
/// sequences.
#[test]
fn world_survives_arbitrary_faults() {
    let mut gen = SimRng::seed_from_u64(0xFA17);
    for _case in 0..32 {
        let mut w = ClusterBuilder::new().nodes(4, NodeSpec::default()).build::<Seq>();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = w.spawn(NodeId(0), Box::new(Recorder { got: got.clone() }));
        for n in 1..4u32 {
            w.spawn(NodeId(n), Box::new(Burst { to: sink, count: 5 }));
        }
        let ops = gen.gen_range(0usize..40);
        for _ in 0..ops {
            let op = gen.gen_range(0u8..6);
            let node = NodeId(gen.gen_range(0u32..4));
            let nic = gen.gen_range(0u8..3);
            match op {
                0 => w.apply_fault(Fault::CrashNode(node)),
                1 => w.apply_fault(Fault::RestartNode(node)),
                2 => w.apply_fault(Fault::NicDown(node, NicId(nic))),
                3 => w.apply_fault(Fault::NicUp(node, NicId(nic))),
                4 => w.apply_fault(Fault::PartitionLink(node, NodeId((node.0 + 1) % 4))),
                _ => w.apply_fault(Fault::HealLink(node, NodeId((node.0 + 1) % 4))),
            }
            w.run_for(SimDuration::from_millis(10));
        }
        w.run_for(SimDuration::from_secs(1));
        let m = w.metrics();
        assert!(m.total.delivered + m.total.dropped <= m.total.sent);
        for n in w.nodes() {
            assert_eq!(n.nic_up.len(), 3);
        }
    }
}

/// Same seed ⇒ bit-identical metrics; different seeds are allowed to differ.
#[test]
fn seeded_runs_are_reproducible() {
    let run = |seed: u64| {
        let mut w = ClusterBuilder::new()
            .nodes(3, NodeSpec::default())
            .seed(seed)
            .build::<Seq>();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = w.spawn(NodeId(0), Box::new(Recorder { got }));
        for n in 1..3u32 {
            w.spawn(NodeId(n), Box::new(Burst { to: sink, count: 10 }));
        }
        w.run_for(SimDuration::from_secs(1));
        (w.metrics().events_processed, w.metrics().total.delivered)
    };
    let mut gen = SimRng::seed_from_u64(0x5EED5);
    for _ in 0..16 {
        let seed = gen.next_u64();
        assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
    }
}

/// Every virtual millisecond, sends one `Seq` to each peer, cycling over
/// the three NICs, for `rounds` rounds.
struct Chatter {
    peers: Rc<RefCell<Vec<Pid>>>,
    round: u64,
    rounds: u64,
}
impl Actor<Seq> for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Seq>, _from: Pid, _msg: Seq) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Seq>, _token: u64) {
        let me = ctx.pid();
        for &peer in self.peers.borrow().iter().filter(|&&p| p != me) {
            ctx.send_via(peer, NicId((self.round % 3) as u8), Seq(self.round));
        }
        self.round += 1;
        if self.round < self.rounds {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// The registry's `sim.*` and `net.*` counters agree with the world's own
/// counts whenever control is back with the caller, whichever call
/// returned it: `run_until`, `step` or `send_from`.
#[test]
fn the_registry_mirrors_the_world_after_every_call() {
    phoenix_telemetry::reset();
    let mut w = ClusterBuilder::new()
        .nodes(3, NodeSpec::default())
        .net(NetParams::unreliable(200))
        .seed(0x3A1C)
        .build::<Seq>();
    let peers = Rc::new(RefCell::new(Vec::new()));
    for n in 0..3 {
        let pid = w.spawn(
            NodeId(n),
            Box::new(Chatter {
                peers: peers.clone(),
                round: 0,
                rounds: 40,
            }),
        );
        peers.borrow_mut().push(pid);
    }
    let (first, last) = (peers.borrow()[0], peers.borrow()[2]);
    // Every send crosses nodes and every target lives, so all sends are
    // routed and every drop is a random loss.
    let check = |w: &phoenix_sim::World<Seq>, after: &str| {
        let m = w.metrics();
        phoenix_telemetry::with(|r| {
            let routed: u64 = ["nic0", "nic1", "nic2", "nicN"]
                .iter()
                .map(|nic| r.counter(&format!("net.routed.{nic}")))
                .sum();
            assert_eq!(r.counter("sim.events.dispatched"), m.events_processed, "after {after}");
            assert_eq!(r.counter("net.loss.dropped"), m.total.dropped, "after {after}");
            assert_eq!(routed, m.total.sent, "after {after}");
        });
    };
    for i in 0..60 {
        w.run_until(w.now() + SimDuration::from_micros(700));
        check(&w, "run_until");
        for _ in 0..i % 4 {
            w.step();
            check(&w, "step");
        }
        w.send_from(first, last, Seq(i));
        check(&w, "send_from");
    }
    while w.step() {
        check(&w, "step");
    }
    let m = w.metrics();
    phoenix_telemetry::with(|r| {
        for nic in ["nic0", "nic1", "nic2"] {
            assert!(r.counter(&format!("net.routed.{nic}")) > 0, "{nic} carried traffic");
        }
        assert!(r.counter("net.loss.dropped") > 0 && r.counter("net.dup.delivered") > 0);
        assert_eq!(r.counter("net.dup.scheduled"), r.counter("net.dup.delivered"));
        assert_eq!(
            m.total.delivered + m.total.dropped,
            m.total.sent + r.counter("net.dup.delivered"),
            "drained: each send is lost or delivered, plus the duplicates"
        );
    });
}
