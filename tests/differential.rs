//! Differential regression suite: every pinned chaos scenario, replayed
//! once, against the event queue's contract and its golden digests.
//!
//! The event core's determinism contract: events pop in strictly ascending
//! `(time, seq)` order, so no caller can observe which queue runs. Every
//! world runs the timer wheel; the heap it replaced is the reference the
//! property tests (`phoenix-sim/tests/sched_properties.rs`) compare it to,
//! element by element. This suite replays each pinned chaos regression
//! scenario (including the shrunk lossy masks) and checks two things:
//!
//! * the contract on the run itself: each line of the recorded event
//!   stream starts `time seq`, the pairs ascend strictly line by line, and
//!   the event pool closes at the end (`live == queue_len`,
//!   `allocs - frees == live`: chaos invariant 7, `arena-leak`, which the
//!   run checks and this suite requires to be clean);
//! * a pinned FNV-1a digest per observable surface (see [`Golden`]): the
//!   event stream, the same stream with its wire sizes cut out, the
//!   structured trace, the flight-recorder spans and the telemetry
//!   registry. The digests pin the kernel across commits, so a change that
//!   moves behaviour fails here, and a change that only resizes messages
//!   moves the event digest alone.
//!
//! A contract failure names the first pair out of order, not the
//! multi-megabyte stream; a golden mismatch names every surface that moved.

use phoenix::chaos::{
    flight_recorder_dump, replay_command, run_schedule, ChaosConfig, RunOutcome, PRESETS,
};
use phoenix::telemetry::BenchReport;

/// Everything observable from one run: the chaos outcome, the recorded
/// streams, the flight-recorder dump, and the full telemetry registry
/// rendered to its BENCH JSON shape.
struct Observed {
    outcome: RunOutcome,
    flight: String,
    registry: String,
}

fn observe(seed: u64, mask: u64, mut cfg: ChaosConfig) -> Observed {
    phoenix::telemetry::reset();
    cfg.record_streams = true;
    let outcome = run_schedule(seed, &cfg, mask, false);
    let flight = flight_recorder_dump(usize::MAX);
    let registry = phoenix::telemetry::with(|reg| {
        BenchReport::new("differential").to_json(reg).render()
    });
    phoenix::telemetry::reset();
    Observed {
        outcome,
        flight,
        registry,
    }
}

/// The queue's contract on one run's recorded event stream: it pops in
/// strictly ascending `(time, seq)` order. Panics naming the first line out
/// of order.
fn check_ascending(seed: u64, events: &str) {
    let mut last = (0u64, 0u64);
    for (n, line) in events.lines().enumerate() {
        let mut fields = line.split(' ').map(str::parse::<u64>);
        let key = match (fields.next(), fields.next()) {
            (Some(Ok(at)), Some(Ok(seq))) => (at, seq),
            _ => panic!(
                "seed {seed}: event line {} does not start `time seq`: {line:?}",
                n + 1
            ),
        };
        assert!(
            last < key,
            "seed {seed}: event line {} pops out of (time, seq) order: {last:?} then {key:?}",
            n + 1
        );
        last = key;
    }
}

/// The event stream with every ` bytes=N` field removed: what was
/// delivered, to whom and when, but not how large it was on the wire.
fn event_order(events: &str) -> String {
    let mut out = String::with_capacity(events.len());
    let mut rest = events;
    while let Some(at) = rest.find(" bytes=") {
        out.push_str(&rest[..at]);
        rest = rest[at + " bytes=".len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a digests of one scenario's five surfaces, computed at the commit
/// that last changed behaviour on purpose. The contract check holds
/// *within* a run; these pin the kernel *across* commits, so a refactor
/// that moves any event fails here. A constant may change only together
/// with a CHANGES.md line saying which behaviour changed and why.
/// `event_order` is the event stream without wire sizes: a change that
/// only resizes messages moves `events` and leaves it alone.
struct Golden {
    events: u64,
    event_order: u64,
    trace: u64,
    flight: u64,
    registry: u64,
}

/// Replay `seed` (restricted to `mask`) of the preset `flag` names, check
/// the queue's contract on the run, and require every observable surface
/// to hash to its pinned `golden` digest.
fn assert_pinned(seed: u64, mask: u64, flag: &str, golden: Golden) {
    let preset = PRESETS.iter().find(|p| p.0 == flag).expect("a PRESETS flag");
    let run = observe(seed, mask, preset.1());
    let streams = run.outcome.streams.as_ref().expect("streams recorded");
    assert!(
        !streams.events.is_empty(),
        "seed {seed}: event stream is empty — recording is broken"
    );
    check_ascending(seed, &streams.events);

    let order = event_order(&streams.events);
    let moved: Vec<String> = [
        ("event", &streams.events, golden.events),
        ("event-order", &order, golden.event_order),
        ("trace", &streams.trace, golden.trace),
        ("flight-recorder", &run.flight, golden.flight),
        ("telemetry-registry", &run.registry, golden.registry),
    ]
    .into_iter()
    .filter_map(|(what, text, want)| {
        let now = fnv1a(text);
        (now != want).then(|| {
            format!(
                "  {what}: pinned {want:#018x}, now {now:#018x} ({} lines)",
                text.lines().count()
            )
        })
    })
    .collect();
    assert!(
        moved.is_empty(),
        "seed {seed}:{mask:x}: behaviour moved against the cross-commit golden:\n{}\nreplay: {}",
        moved.join("\n"),
        replay_command(seed, mask, run.outcome.total_steps, flag)
    );
    // These pinned scenarios are green in chaos_regressions; a violation
    // here means the event core broke something. `arena-leak` among them
    // is the pool not closing: `live != queue_len` or
    // `allocs - frees != live` once the run settled.
    assert!(
        run.outcome.violations.is_empty(),
        "seed {seed} violated invariants: {:?}",
        run.outcome.violations
    );
}

/// Pinned shrunk reproducer 8:88 (lossy): the minimal two-step subset of
/// seed 8's schedule that once broke loss tolerance.
#[test]
fn differential_lossy_shrunk_mask_8_88() {
    assert_pinned(
        8,
        0x88,
        "--lossy 20",
        Golden {
            events: 0xe82c_3181_60da_2d6f,
            event_order: 0x7a9c_e9a4_ed15_33c5,
            trace: 0x6fdc_043f_0dfa_5bfb,
            flight: 0x6932_0fbd_621a_d1b1,
            registry: 0x2450_a995_31eb_4fcb,
        },
    );
}

/// Pinned shrunk reproducer 15:5ee (lossy).
#[test]
fn differential_lossy_shrunk_mask_15_5ee() {
    assert_pinned(
        15,
        0x5ee,
        "--lossy 20",
        Golden {
            events: 0x3bc7_343f_0e7d_be05,
            event_order: 0x38c0_ba27_1391_6c42,
            trace: 0x7d45_f66c_aaac_d85f,
            flight: 0xac3d_e311_941a_f96f,
            registry: 0x290c_88f3_4385_8ce0,
        },
    );
}

/// Seed 26: island split storm overlapping a GSD kill (partition config).
#[test]
fn differential_partition_island_split_seed_26() {
    assert_pinned(
        26,
        u64::MAX,
        "--partition",
        Golden {
            events: 0x1ed0_ef45_0b33_0207,
            event_order: 0xb204_8a1a_1317_e55f,
            trace: 0x2270_0f07_a90e_2732,
            flight: 0x54ca_f09d_b2a4_d490,
            registry: 0x67f7_aea4_bc8b_b7b1,
        },
    );
}

/// Seed 4: the flapping-NIC storm pin (lossy config).
#[test]
fn differential_nic_flap_seed_4() {
    assert_pinned(
        4,
        u64::MAX,
        "--lossy 20",
        Golden {
            events: 0x82bb_64f9_44f8_2ab2,
            event_order: 0x811a_1d8e_15b5_a9e3,
            trace: 0x4a96_45ae_7fbc_ac15,
            flight: 0x4e4e_1827_6b4b_96eb,
            registry: 0x5cd8_703a_a1b0_fd13,
        },
    );
}

/// Seed 178: loss bursts plus a GSD kill on a 2% lossy network.
#[test]
fn differential_lossy_seed_178() {
    assert_pinned(
        178,
        u64::MAX,
        "--lossy 20",
        Golden {
            events: 0x9316_b6ad_3b42_9045,
            event_order: 0x60e2_a30f_059a_063a,
            trace: 0x79ad_ed7e_fe48_7ad1,
            flight: 0x8e43_ce99_f766_7946,
            registry: 0x9afb_6298_3e93_17f3,
        },
    );
}

/// Seed 21: the quorum profile's overlapping-takeover-plans scenario
/// (diagnose-migrate racing a rescue sweep across an even split) — the
/// pin that once clobbered per-plan takeover telemetry. Regroup probes,
/// home-node testimony and the weighted vote table all ride this replay.
#[test]
fn differential_quorum_even_split_seed_21() {
    assert_pinned(
        21,
        u64::MAX,
        "--quorum",
        Golden {
            events: 0x3475_7c16_4dd7_a128,
            event_order: 0x3cf7_4bd3_a7e4_a26a,
            trace: 0x2f84_cbb3_7d5f_bf62,
            flight: 0xf7a7_e29c_9362_b149,
            registry: 0x1907_74c8_24f5_4d6e,
        },
    );
}

/// Seed 1 (slow profile): both member-partition servers gray at once —
/// RTT scoring, quarantine broadcast, drain migration and reinstatement
/// all ride this replay.
#[test]
fn differential_slow_double_gray_seed_1() {
    assert_pinned(
        1,
        u64::MAX,
        "--slow",
        Golden {
            events: 0x1f1a_333d_59cf_9da6,
            event_order: 0x7303_16a4_042c_3317,
            trace: 0x5d4d_fdb5_dd6c_ee07,
            flight: 0x90c2_afec_7ddf_de8a,
            registry: 0xc5de_3de6_94cd_7aae,
        },
    );
}

/// The fail-slow storm stream rides its own salted RNG and is appended
/// after every other stream: turning it off must reproduce the exact
/// remaining schedule, byte for byte, for every seed. This is what keeps
/// all pre-slow pinned seeds (and their recorded streams) valid forever.
#[test]
fn slow_stream_is_rng_neutral() {
    use phoenix::chaos::{generate_schedule, slow_storms, Step, StepAction};
    use phoenix::sim::Fault;
    let mut storms_seen = 0usize;
    for seed in [1u64, 7, 21, 34, 43] {
        let cfg = ChaosConfig::small_slow();
        let (_world, cluster) =
            phoenix::kernel::boot_cluster(cfg.topology(), cfg.params.clone(), seed);
        let with_slow = generate_schedule(seed, &cfg, &cluster);
        let mut base = cfg.clone();
        base.params = phoenix::kernel::KernelParams::fast();
        let without = generate_schedule(seed, &base, &cluster);
        let filtered: Vec<Step> = with_slow
            .iter()
            .copied()
            .filter(|s| {
                !matches!(
                    s.action,
                    StepAction::Fault(Fault::SlowNode { .. } | Fault::SlowClear(_))
                )
            })
            .collect();
        assert_eq!(
            filtered, without,
            "seed {seed}: slow stream bled into the base schedule"
        );
        storms_seen += slow_storms(&with_slow);
    }
    assert!(storms_seen >= 5, "scan seeds no longer draw slow storms");
}
