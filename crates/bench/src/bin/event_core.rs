//! Event-core microbench: heap baseline vs hierarchical timer wheel.
//!
//! Two parts, both feeding `results/BENCH_events.json`:
//!
//! 1. **Differential digest gate.** Replays pinned chaos scenarios under
//!    both schedulers with stream recording on, FNV-1a-digests every
//!    observable surface (event stream, structured trace, flight-recorder
//!    dump, telemetry registry JSON), and writes one digest line per seed
//!    to `results/event_core_heap.trace` / `results/event_core_wheel.trace`.
//!    The bin exits non-zero on any mismatch, and `scripts/verify.sh`
//!    additionally `cmp`s the two files — the serial-vs-parallel
//!    byte-identity gate applied to the scheduler axis.
//!
//! 2. **Raw throughput.** Drives each scheduler directly with an identical
//!    seeded timer-population workload (a large steady population of
//!    heartbeat-like periodic events, every pop rescheduling one push —
//!    the simulator's hot path with the dispatch cost stripped away) and
//!    reports events/sec for each plus the wheel-over-heap speedup. The
//!    popped `(time, seq)` streams are digest-compared, so the numbers are
//!    only reported for provably identical behaviour.
//!
//! ```text
//! event_core [--small]
//! ```

use std::time::Instant;

use phoenix_chaos::{flight_recorder_dump, run_schedule, ChaosConfig};
use phoenix_sim::sched::{HeapScheduler, Scheduler, WheelScheduler};
use phoenix_sim::{SchedulerKind, SimRng, SimTime};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::{BenchReport, Json};

// ---------------------------------------------------------------------------
// FNV-1a digests
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a_bytes(h, &v.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Part 1: differential digest gate over pinned chaos scenarios
// ---------------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    seed: u64,
    mask: u64,
    cfg: ChaosConfig,
}

fn scenarios(small: bool) -> Vec<Scenario> {
    let mut out = vec![
        Scenario {
            name: "lossy-shrunk-8:88",
            seed: 8,
            mask: 0x88,
            cfg: ChaosConfig::small_lossy(20),
        },
        Scenario {
            name: "nic-flap-4",
            seed: 4,
            mask: u64::MAX,
            cfg: ChaosConfig::small_lossy(20),
        },
    ];
    if !small {
        out.push(Scenario {
            name: "island-split-26",
            seed: 26,
            mask: u64::MAX,
            cfg: ChaosConfig::small_partition(),
        });
        out.push(Scenario {
            name: "lossy-178",
            seed: 178,
            mask: u64::MAX,
            cfg: ChaosConfig::small_lossy(20),
        });
    }
    out
}

/// One digest line per scenario: every observable surface of a run,
/// hashed. Byte-identical runs produce byte-identical lines.
fn digest_line(s: &Scenario, kind: SchedulerKind) -> String {
    phoenix_telemetry::reset();
    let mut cfg = s.cfg.clone();
    cfg.scheduler = kind;
    cfg.record_streams = true;
    let out = run_schedule(s.seed, &cfg, s.mask, false);
    let streams = out.streams.as_ref().expect("streams recorded");
    let flight = flight_recorder_dump(usize::MAX);
    let registry =
        phoenix_telemetry::with(|reg| BenchReport::new("event_core").to_json(reg).render());
    phoenix_telemetry::reset();
    assert!(
        out.violations.is_empty(),
        "{} violated invariants under {kind:?}: {:?}",
        s.name,
        out.violations
    );
    let ev = fnv1a_bytes(FNV_OFFSET, streams.events.as_bytes());
    let tr = fnv1a_bytes(FNV_OFFSET, streams.trace.as_bytes());
    let fl = fnv1a_bytes(FNV_OFFSET, flight.as_bytes());
    let rg = fnv1a_bytes(FNV_OFFSET, registry.as_bytes());
    format!(
        "{} seed={} mask={:x} virtual_ns={} events={:016x} trace={:016x} flight={:016x} registry={:016x}\n",
        s.name, s.seed, s.mask, out.virtual_ns, ev, tr, fl, rg
    )
}

// ---------------------------------------------------------------------------
// Part 2: raw scheduler throughput
// ---------------------------------------------------------------------------

/// Draw a heartbeat-like interval: mostly short regular timers (the
/// simulator's real mix), a tail of long retries/deadlines, and a sliver
/// of far-future events that exercise the overflow heap.
fn draw_interval(rng: &mut SimRng) -> u64 {
    match rng.gen_range(0..100u64) {
        0..=59 => 100_000 + rng.gen_range(0..10_000_000u64), // 0.1-10 ms
        60..=89 => rng.gen_range(10_000_000..500_000_000u64), // 10-500 ms
        90..=98 => rng.gen_range(1..30u64) * 1_000_000_000,  // 1-30 s
        _ => 80_000_000_000_000 + rng.gen_range(0..10_000_000_000_000u64), // ~a day
    }
}

/// Steady-population throughput: `population` pending events, `ops` pops,
/// every pop rescheduling one push at a drawn interval — the event loop of
/// a large cluster with dispatch stripped away. Returns a digest of the
/// popped `(time, seq)` stream.
fn drive(sched: &mut dyn Scheduler<u64>, population: usize, ops: u64, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut seq = 0u64;
    for _ in 0..population {
        seq += 1;
        sched.push(SimTime(draw_interval(&mut rng)), seq, seq);
    }
    let mut digest = FNV_OFFSET;
    for _ in 0..ops {
        let (at, s, _) = sched.pop().expect("population never drains");
        digest = fnv1a_u64(digest, at.0);
        digest = fnv1a_u64(digest, s);
        seq += 1;
        sched.push(SimTime(at.0 + draw_interval(&mut rng)), seq, seq);
    }
    digest
}

/// Best-of-two wall time for one scheduler; digests must agree between
/// repeats (they share the seed).
fn time_scheduler(make: impl Fn() -> Box<dyn Scheduler<u64>>, population: usize, ops: u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut digest = 0u64;
    for rep in 0..2 {
        let mut sched = make();
        let t0 = Instant::now();
        let d = drive(sched.as_mut(), population, ops, 0xE7E7);
        let wall = t0.elapsed().as_secs_f64();
        if rep == 0 {
            digest = d;
        } else {
            assert_eq!(digest, d, "repeat run diverged — nondeterministic scheduler");
        }
        best = best.min(wall);
    }
    (best, digest)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");

    // -- Part 1: differential byte-identity over pinned chaos scenarios --
    let scens = scenarios(small);
    let mut heap_lines = String::new();
    let mut wheel_lines = String::new();
    let mut identical = true;
    for s in &scens {
        let h = digest_line(s, SchedulerKind::Heap);
        let w = digest_line(s, SchedulerKind::Wheel);
        if h != w {
            identical = false;
            eprintln!("event_core: DIVERGENCE in {}:\n  heap:  {h}  wheel: {w}", s.name);
        } else {
            println!("  differential {:<18} identical ({})", s.name, h.split_whitespace().nth(4).unwrap_or(""));
        }
        heap_lines.push_str(&h);
        wheel_lines.push_str(&w);
    }
    let root = workspace_root();
    std::fs::create_dir_all(root.join("results")).expect("mkdir results");
    std::fs::write(root.join("results/event_core_heap.trace"), &heap_lines)
        .expect("write heap trace digests");
    std::fs::write(root.join("results/event_core_wheel.trace"), &wheel_lines)
        .expect("write wheel trace digests");

    // -- Part 2: raw scheduler throughput --------------------------------
    let population = if small { 100_000 } else { 200_000 };
    let ops: u64 = if small { 2_000_000 } else { 8_000_000 };
    let (heap_wall, heap_digest) =
        time_scheduler(|| Box::new(HeapScheduler::new()), population, ops);
    let (wheel_wall, wheel_digest) =
        time_scheduler(|| Box::new(WheelScheduler::new()), population, ops);
    assert_eq!(
        heap_digest, wheel_digest,
        "popped (time, seq) streams diverged between schedulers"
    );

    let heap_eps = ops as f64 / heap_wall;
    let wheel_eps = ops as f64 / wheel_wall;
    let speedup = wheel_eps / heap_eps;
    let heap_ms = (heap_wall * 1e3).round() as u64;
    let wheel_ms = (wheel_wall * 1e3).round() as u64;
    println!(
        "event_core wall-clock: heap {heap_ms} ms, wheel {wheel_ms} ms, speedup x{speedup:.2} \
         ({population} pending, {ops} ops)"
    );

    // -- Report ----------------------------------------------------------
    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("population", Json::Num(population as f64))
        .set("ops", Json::Num(ops as f64))
        .set("heap_events_per_sec", Json::Num(heap_eps.round()))
        .set("wheel_events_per_sec", Json::Num(wheel_eps.round()))
        .set("speedup", Json::Num((speedup * 100.0).round() / 100.0))
        .set("identical", Json::Bool(identical))
        .set(
            "differential_scenarios",
            Json::Arr(scens.iter().map(|s| Json::str(s.name)).collect()),
        );
    phoenix_telemetry::reset();
    let mut rep = BenchReport::new("event_core");
    rep.section("event_core", summary);
    let path = phoenix_telemetry::with(|reg| {
        rep.write_to(reg, root.join("results/BENCH_events.json"))
            .expect("write BENCH_events.json")
    });
    println!("report written: {}", path.display());

    if !identical {
        eprintln!("event_core: scheduler streams diverged — determinism gate failed");
        std::process::exit(1);
    }
    if speedup < 1.2 {
        eprintln!(
            "event_core: wheel speedup x{speedup:.2} below the x1.2 floor — \
             the timer wheel has regressed"
        );
        std::process::exit(1);
    }
}
