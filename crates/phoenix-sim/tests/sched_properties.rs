//! Property tests for the event queue.
//!
//! The determinism contract: for any interleaving of pushes and pops (with
//! `at` never below the last popped time — the only pattern the simulator
//! generates), the wheel must pop *exactly* the `(time, seq)` stream of the
//! reference `BinaryHeap` scheduler. These tests drive both through long
//! seeded random op sequences spanning every wheel region (same-tick ties,
//! sub-slot times, every level, the overflow heap) plus cancellation
//! patterns, and compare the streams element by element. The last one runs
//! a full actor workload on a world, which holds only the wheel, and checks
//! the contract on the event stream it recorded.

use phoenix_sim::sched::{HeapScheduler, Scheduler, WheelScheduler};
use phoenix_sim::{
    Actor, ClusterBuilder, Ctx, NodeId, NodeSpec, Pid, SimDuration, SimRng, SimTime,
};
use std::collections::HashSet;

/// Both schedulers under identical op streams.
struct Pair {
    heap: HeapScheduler<u64>,
    wheel: WheelScheduler<u64>,
    seq: u64,
    clock: u64,
    live: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            heap: HeapScheduler::new(),
            wheel: WheelScheduler::new(),
            seq: 0,
            clock: 0,
            live: 0,
        }
    }

    fn push(&mut self, at: u64) -> u64 {
        let at = at.max(self.clock);
        self.seq += 1;
        self.heap.push(SimTime(at), self.seq, self.seq);
        self.wheel.push(SimTime(at), self.seq, self.seq);
        self.live += 1;
        self.seq
    }

    /// Pop from both; assert agreement; advance the virtual clock.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let a = self.heap.pop();
        let b = self.wheel.pop();
        assert_eq!(a, b, "heap and wheel diverged at pop {}", self.seq);
        if let Some((at, seq, item)) = a {
            assert_eq!(seq, item);
            assert!(at.0 >= self.clock, "time went backwards");
            self.clock = at.0;
            self.live -= 1;
            Some((at.0, seq))
        } else {
            None
        }
    }

    fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64)> {
        let a = self.heap.pop_before(SimTime(deadline));
        let b = self.wheel.pop_before(SimTime(deadline));
        assert_eq!(a, b, "pop_before({deadline}) diverged");
        if let Some((at, seq, _)) = a {
            self.clock = at.0;
            self.live -= 1;
            Some((at.0, seq))
        } else {
            // Neither scheduler had an event by the deadline: the clock
            // advances to the deadline, exactly like World::run_until.
            self.clock = self.clock.max(deadline);
            None
        }
    }

    fn check_len(&self) {
        assert_eq!(self.heap.len(), self.live);
        assert_eq!(self.wheel.len(), self.live);
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.wheel.arena_stats().live, 0, "arena must drain");
    }
}

/// Draw a time offset spanning every region of the wheel: sub-slot (<65 µs),
/// level 0-1 (ms), level 2-3 (tens of ms to seconds), level 4 (~minutes to
/// hours), and past the 19.5 h horizon into the overflow heap.
fn draw_offset(rng: &mut SimRng) -> u64 {
    match rng.gen_range(0..100u64) {
        0..=29 => rng.gen_range(0..65_536u64),              // same/adjacent slot
        30..=54 => rng.gen_range(0..4_200_000u64),          // level 0-1
        55..=74 => rng.gen_range(0..270_000_000u64),        // level 2
        75..=89 => rng.gen_range(0..17_000_000_000u64),     // level 3
        90..=96 => rng.gen_range(0..1_100_000_000_000u64),  // level 4
        _ => rng.gen_range(0..200_000_000_000_000u64),      // overflow
    }
}

#[test]
fn random_push_pop_streams_are_identical() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut p = Pair::new();
        for _ in 0..3_000 {
            match rng.gen_range(0..10u64) {
                // Pushes outweigh pops so the structure stays populated.
                0..=5 => {
                    let at = p.clock + draw_offset(&mut rng);
                    p.push(at);
                }
                6 => {
                    // Same-tick tie burst: several events at one instant.
                    let at = p.clock + draw_offset(&mut rng);
                    for _ in 0..rng.gen_range(2..6u64) {
                        p.push(at);
                    }
                }
                7..=8 => {
                    p.pop();
                }
                _ => {
                    let deadline = p.clock + draw_offset(&mut rng);
                    while p.pop_before(deadline).is_some() {}
                }
            }
        }
        p.check_len();
        p.drain();
    }
}

#[test]
fn zero_delay_pushes_interleave_correctly() {
    // Handlers scheduling follow-ups at the current instant (local
    // latency 0 edge case): new events at exactly the popped time must
    // sort after already-pending same-tick events by seq.
    let mut p = Pair::new();
    let mut rng = SimRng::seed_from_u64(99);
    p.push(1_000);
    for _ in 0..500 {
        if p.live == 0 {
            p.push(p.clock + 1_000);
        }
        let (at, _) = p.pop().unwrap();
        // Push a few at the same instant and a few later.
        for _ in 0..rng.gen_range(1..4u64) {
            p.push(at);
        }
        p.push(at + rng.gen_range(1..100_000u64));
        // Drain a couple to keep the population bounded.
        p.pop();
        p.pop();
    }
    p.drain();
}

#[test]
fn cancellation_by_skip_set_matches_reference() {
    // The world cancels timers lazily: cancelled ids are skipped at pop
    // time. Model that on both schedulers with an identical skip set and
    // verify the surviving streams agree.
    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from_u64(0xCA11 ^ seed);
        let mut p = Pair::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut pending: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            match rng.gen_range(0..10u64) {
                0..=5 => {
                    let at = p.clock + draw_offset(&mut rng);
                    pending.push(p.push(at));
                }
                6 => {
                    if !pending.is_empty() {
                        let i = rng.gen_range(0..pending.len() as u64) as usize;
                        cancelled.insert(pending.swap_remove(i));
                    }
                }
                _ => {
                    // Pop through cancellations exactly like World::dispatch.
                    while let Some((_, seq)) = p.pop() {
                        if !cancelled.remove(&seq) {
                            pending.retain(|&s| s != seq);
                            break;
                        }
                    }
                }
            }
        }
        p.drain();
    }
}

#[test]
fn far_future_overflow_promotes_in_order() {
    // Events far past the wheel horizon must surface from the overflow
    // heap in global order even when near-term events keep arriving.
    let mut p = Pair::new();
    let mut rng = SimRng::seed_from_u64(7);
    let day = 86_400u64 * 1_000_000_000;
    for i in 0..50u64 {
        p.push(day + i * 7_919_111);
        p.push(day); // ties inside overflow
    }
    // Interleave near-term churn while overflow entries wait.
    for _ in 0..500 {
        p.push(p.clock + rng.gen_range(0..2_000_000_000u64));
        p.pop();
    }
    p.drain();
}

#[test]
fn big_time_jumps_cascade_correctly() {
    // Sparse far-apart events force multi-level cursor jumps and cascades.
    let mut p = Pair::new();
    let mut rng = SimRng::seed_from_u64(13);
    for _ in 0..300 {
        // Exponentially distributed gaps: many tiny, some enormous.
        let shift = rng.gen_range(0..47u64);
        p.push(p.clock + rng.gen_range(0..(2u64 << shift)));
        if rng.gen_range(0..3u64) == 0 {
            p.pop();
        }
    }
    p.drain();
}

// ---------------------------------------------------------------------------
// The contract on a world's recorded event stream
// ---------------------------------------------------------------------------

/// Actor driving a mixed timer + messaging load: periodic timers at a
/// pid-derived interval, each firing a message to a peer.
struct Worker {
    peer: Pid,
    interval: SimDuration,
    fires: u64,
}

impl Actor<u64> for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(self.interval, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
        self.fires += 1;
        ctx.send(self.peer, self.fires);
        if self.fires < 200 {
            ctx.set_timer(self.interval, 1);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Pid, msg: u64) {
        // Occasionally bounce back, creating message chains.
        if msg % 17 == 0 {
            ctx.send(from, msg + 1);
        }
    }
}

#[test]
fn full_actor_workload_pops_in_time_seq_order_and_drains() {
    let mut w = ClusterBuilder::new()
        .nodes(8, NodeSpec::default())
        .seed(0xD1FF)
        .record_events(true)
        .build::<u64>();
    for i in 0..32u64 {
        // Mixed intervals spread timers across wheel levels.
        let interval = match i % 4 {
            0 => SimDuration::from_micros(800),
            1 => SimDuration::from_millis(7),
            2 => SimDuration::from_millis(130),
            _ => SimDuration::from_secs(2),
        };
        w.spawn(
            NodeId((i % 8) as u32),
            Box::new(Worker {
                peer: Pid(1 + (i + 1) % 32),
                interval,
                fires: 0,
            }),
        );
    }
    // Long enough for every worker to hit its 200-fire cap (the slowest
    // reschedules every 2 s → 400 s), so the queue fully drains and the
    // arena must end empty.
    w.run_for(SimDuration::from_secs(450));
    assert_eq!(w.queue_len(), 0, "workload must drain completely");
    let events = w.metrics().events_processed;
    assert!(events > 5_000, "workload too small to be meaningful");

    // Each line starts `time seq`; the stream must ascend strictly.
    let log = w.take_event_log();
    let keys: Vec<(u64, u64)> = log
        .lines()
        .map(|l| {
            let mut f = l.split(' ').map(|x| x.parse::<u64>().unwrap());
            (f.next().unwrap(), f.next().unwrap())
        })
        .collect();
    assert_eq!(keys.len() as u64, events, "one log line per event");
    if let Some(i) = keys.windows(2).position(|p| p[0] >= p[1]) {
        let (a, b) = (keys[i], keys[i + 1]);
        panic!(
            "pops {} and {} out of (time, seq) order: {a:?} then {b:?}",
            i + 1,
            i + 2
        );
    }
    // Arena leak check after the full run: every slot returned.
    let pool = w.scheduler_stats();
    assert_eq!(pool.live, 0);
    assert_eq!(pool.allocs, pool.frees);
    assert!(pool.capacity > 0, "the pool was actually exercised");
}
