//! Differential regression suite: heap vs wheel scheduler, byte for byte.
//!
//! The event core's determinism contract says the scheduler implementation
//! is *unobservable*: for any seed, the heap baseline and the timer wheel
//! must produce the same event stream, the same structured trace, the same
//! flight-recorder spans, and the same telemetry registry — byte for byte.
//! This suite replays every pinned chaos regression scenario (including
//! the shrunk lossy masks) once per scheduler and compares all four
//! surfaces. The serial-vs-parallel `cmp` gate from the sweep runner is
//! the template; here the axis is the scheduler, not the thread count.
//!
//! Each scenario also carries a pinned FNV-1a digest per surface (see
//! [`Golden`]): heap ≡ wheel cannot see a change that shifts both
//! schedulers the same way; the digests can.
//!
//! A divergence report names the first differing line, not the full
//! multi-megabyte streams; a golden mismatch names the surfaces that moved.

use phoenix::chaos::{
    flight_recorder_dump, replay_command, run_schedule, ChaosConfig, RunOutcome, PRESETS,
};
use phoenix::sim::SchedulerKind;
use phoenix::telemetry::BenchReport;

/// Everything observable from one run: the chaos outcome, the recorded
/// streams, the flight-recorder dump, and the full telemetry registry
/// rendered to its BENCH JSON shape.
struct Observed {
    outcome: RunOutcome,
    flight: String,
    registry: String,
}

fn observe(seed: u64, mask: u64, mut cfg: ChaosConfig, kind: SchedulerKind) -> Observed {
    phoenix::telemetry::reset();
    cfg.scheduler = kind;
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

/// One surface of one scenario: heap and wheel must agree byte for byte
/// (else panic with the first differing line, and which side still matches
/// the golden), and both must hash to `want` (else return a line saying so,
/// so the caller can name every surface that moved at once).
fn check_surface(what: &str, seed: u64, heap: &str, wheel: &str, want: u64) -> Option<String> {
    if heap == wheel {
        let now = fnv1a(heap);
        return (now != want).then(|| {
            format!(
                "  {what}: pinned {want:#018x}, now {now:#018x} ({} lines)",
                heap.lines().count()
            )
        });
    }
    let still = match (fnv1a(heap) == want, fnv1a(wheel) == want) {
        (true, _) => "heap still matches the golden",
        (_, true) => "wheel still matches the golden",
        _ => "neither matches the golden",
    };
    let mut h = heap.lines();
    let mut w = wheel.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (h.next(), w.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => panic!(
                "seed {seed}: {what} streams diverge at line {line} \
                 ({} vs {} total lines; {still})\n  heap:  {a:?}\n  wheel: {b:?}",
                heap.lines().count(),
                wheel.lines().count(),
            ),
        }
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a digests of one scenario's four surfaces, computed at the commit
/// that last changed behaviour on purpose. Heap ≡ wheel only proves the
/// scheduler is unobservable *within* a commit; these pin the kernel
/// *across* commits, so a refactor that shifts both schedulers the same
/// way fails here. A constant may change only together with a CHANGES.md
/// line saying which behaviour changed and why.
struct Golden {
    events: u64,
    trace: u64,
    flight: u64,
    registry: u64,
}

/// Replay `seed` (restricted to `mask`) of the preset `flag` names under
/// both schedulers and require byte-identity on every observable surface,
/// with each other and with the pinned `golden` digests.
fn assert_byte_identical(seed: u64, mask: u64, flag: &str, golden: Golden) {
    let preset = PRESETS.iter().find(|p| p.0 == flag).expect("a PRESETS flag");
    let cfg = preset.1();
    let heap = observe(seed, mask, cfg.clone(), SchedulerKind::Heap);
    let wheel = observe(seed, mask, cfg, SchedulerKind::Wheel);

    let hs = heap.outcome.streams.as_ref().expect("heap streams recorded");
    let ws = wheel
        .outcome
        .streams
        .as_ref()
        .expect("wheel streams recorded");
    assert!(
        !hs.events.is_empty(),
        "seed {seed}: event stream is empty — recording is broken"
    );
    let moved: Vec<String> = [
        ("event", &hs.events, &ws.events, golden.events),
        ("trace", &hs.trace, &ws.trace, golden.trace),
        (
            "flight-recorder",
            &heap.flight,
            &wheel.flight,
            golden.flight,
        ),
        (
            "telemetry-registry",
            &heap.registry,
            &wheel.registry,
            golden.registry,
        ),
    ]
    .into_iter()
    .filter_map(|(what, h, w, want)| check_surface(what, seed, h, w, want))
    .collect();
    assert!(
        moved.is_empty(),
        "seed {seed}:{mask:x}: behaviour moved against the cross-commit golden \
         (heap and wheel still agree):\n{}\nreplay: {}",
        moved.join("\n"),
        replay_command(seed, mask, heap.outcome.total_steps, flag)
    );

    // Scalar outcome fields must agree too (violations carry strings).
    assert_eq!(heap.outcome.virtual_ns, wheel.outcome.virtual_ns, "seed {seed}");
    assert_eq!(
        heap.outcome.faults_injected, wheel.outcome.faults_injected,
        "seed {seed}"
    );
    assert_eq!(heap.outcome.quiesced, wheel.outcome.quiesced, "seed {seed}");
    assert_eq!(
        heap.outcome.violations.len(),
        wheel.outcome.violations.len(),
        "seed {seed}: {:?} vs {:?}",
        heap.outcome.violations,
        wheel.outcome.violations
    );
    // These pinned scenarios are green in chaos_regressions; a violation
    // here means the scheduler (not the kernel) broke something.
    assert!(
        wheel.outcome.violations.is_empty(),
        "seed {seed} violated invariants under the wheel: {:?}",
        wheel.outcome.violations
    );
}

/// Pinned shrunk reproducer 8:88 (lossy): the minimal two-step subset of
/// seed 8's schedule that once broke loss tolerance.
#[test]
fn differential_lossy_shrunk_mask_8_88() {
    assert_byte_identical(
        8,
        0x88,
        "--lossy 20",
        Golden {
            events: 0x15c7_88d7_ca8b_3fe7,
            trace: 0x6fdc_043f_0dfa_5bfb,
            flight: 0x6932_0fbd_621a_d1b1,
            registry: 0xd7e1_e421_664c_d521,
        },
    );
}

/// Pinned shrunk reproducer 15:5ee (lossy).
#[test]
fn differential_lossy_shrunk_mask_15_5ee() {
    assert_byte_identical(
        15,
        0x5ee,
        "--lossy 20",
        Golden {
            events: 0x29e5_1362_e84b_6ed3,
            trace: 0x7d45_f66c_aaac_d85f,
            flight: 0xac3d_e311_941a_f96f,
            registry: 0xd088_83fa_1d9b_2bfc,
        },
    );
}

/// Seed 26: island split storm overlapping a GSD kill (partition config).
#[test]
fn differential_partition_island_split_seed_26() {
    assert_byte_identical(
        26,
        u64::MAX,
        "--partition",
        Golden {
            events: 0xb993_e699_b1af_c43e,
            trace: 0x2270_0f07_a90e_2732,
            flight: 0x54ca_f09d_b2a4_d490,
            registry: 0x269b_eaa7_03ff_50ee,
        },
    );
}

/// Seed 4: the flapping-NIC storm pin (lossy config).
#[test]
fn differential_nic_flap_seed_4() {
    assert_byte_identical(
        4,
        u64::MAX,
        "--lossy 20",
        Golden {
            events: 0xa36e_a42c_f8e5_f87c,
            trace: 0x4a96_45ae_7fbc_ac15,
            flight: 0x4e4e_1827_6b4b_96eb,
            registry: 0x4ee9_16a9_23f6_6395,
        },
    );
}

/// Seed 178: loss bursts plus a GSD kill on a 2% lossy network.
#[test]
fn differential_lossy_seed_178() {
    assert_byte_identical(
        178,
        u64::MAX,
        "--lossy 20",
        Golden {
            events: 0x93da_8e83_27f9_fff5,
            trace: 0x79ad_ed7e_fe48_7ad1,
            flight: 0x8e43_ce99_f766_7946,
            registry: 0xd1dc_ac30_7e12_1bd6,
        },
    );
}

/// Seed 21: the quorum profile's overlapping-takeover-plans scenario
/// (diagnose-migrate racing a rescue sweep across an even split) — the
/// pin that once clobbered per-plan takeover telemetry. Regroup probes,
/// home-node testimony and the weighted vote table all ride this replay.
#[test]
fn differential_quorum_even_split_seed_21() {
    assert_byte_identical(
        21,
        u64::MAX,
        "--quorum",
        Golden {
            events: 0x69a1_ad83_9707_2ae7,
            trace: 0x2f84_cbb3_7d5f_bf62,
            flight: 0xf7a7_e29c_9362_b149,
            registry: 0xa56d_d432_cc91_4830,
        },
    );
}

/// Seed 1 (slow profile): both member-partition servers gray at once —
/// RTT scoring, quarantine broadcast, drain migration and reinstatement
/// all ride this replay, and every one of them must be byte-identical
/// under either scheduler.
#[test]
fn differential_slow_double_gray_seed_1() {
    assert_byte_identical(
        1,
        u64::MAX,
        "--slow",
        Golden {
            events: 0xeff6_16f2_01e1_525a,
            trace: 0x5d4d_fdb5_dd6c_ee07,
            flight: 0x90c2_afec_7ddf_de8a,
            registry: 0x7c5c_d0a8_f180_1936,
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
