//! Asymmetric-NIC sweep: one lossy interface, the rest clean.
//!
//! The paper's testbed put three parallel networks in every node so the
//! kernel could tell a NIC failure from a node failure. This bench
//! degrades *one* of them (NIC 0 at 0–10% loss, NICs 1–2 clean) under the
//! loss-tolerant profile and measures what the adaptive multi-NIC routing
//! layer buys:
//!
//! * **spurious takeovers** — fault-free runs must record zero GSD
//!   takeovers at every swept rate: the clean interfaces keep carrying
//!   heartbeats, so one bad wire must never look like a dead node;
//! * **detection time** — a WD process is killed and the kill →
//!   `FaultDiagnosed` latency is mined from the trace; the acceptance bar
//!   is a mean within 25% of the clean (0‰) baseline, because detection
//!   rides the healthy interfaces;
//! * **routing shift** — per-NIC routed/dropped counters
//!   (`net.routed.nic*`, `net.loss.dropped.nic*`) and the GSD's demotion
//!   count show single-path traffic draining away from the sick interface.
//!
//! Results go to `results/BENCH_nic.json` (sections `nic`, `nic_curve`);
//! the exit status is non-zero if any spurious takeover fired or the
//! detection mean drifted past the 25% bar, which lets `scripts/verify.sh`
//! gate on it.
//!
//! All `(rate, seed)` runs execute through the parallel sweep runner
//! (`phoenix_bench::sweep`) with per-run registry shards merged in
//! work-item order; `--serial` runs the same items on one thread and
//! produces a byte-identical report.
//!
//! ```text
//! nic_asymmetry [--small] [--serial]
//! ```

use phoenix_bench::sweep::run_sweep;
use phoenix_kernel::boot::boot_cluster_with_net;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{FaultTarget, NetParams, NicId, SimDuration, TraceEvent, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

fn boot(seed: u64, nic0_permille: u16) -> (World<KernelMsg>, phoenix_kernel::PhoenixCluster) {
    let topo = ClusterTopology::uniform(3, 5, 1);
    // Baseline network is clean; only NIC 0 is degraded.
    let net = NetParams::unreliable(0).with_nic_loss(NicId(0), nic0_permille);
    boot_cluster_with_net(topo, KernelParams::fast_lossy(), seed, net)
}

/// Kill one WD and mine the trace for the kill → `FaultDiagnosed`
/// latency. Detection must ride the clean interfaces, so the diagnosis is
/// expected to land (and stay a process diagnosis) at every swept rate.
fn detection_ms(seed: u64, nic0_permille: u16) -> Option<f64> {
    let (mut w, cluster) = boot(seed, nic0_permille);
    w.run_for(SimDuration::from_secs(2));
    // A compute node's WD in partition 1 (not the meta leader's server).
    let victim = cluster.directory.nodes[6].wd;
    let victim_node = cluster.directory.nodes[6].node;
    let t_kill = w.now();
    w.kill_process(victim);
    w.run_for(SimDuration::from_secs(10));
    let hit = w.trace().records().iter().find(|r| {
        r.at >= t_kill
            && match r.event {
                TraceEvent::FaultDiagnosed { target: FaultTarget::Process(p), .. } => p == victim,
                TraceEvent::FaultDiagnosed { target: FaultTarget::Node(n), .. } => n == victim_node,
                _ => false,
            }
    });
    hit.map(|rec| rec.at.since(t_kill).as_nanos() as f64 / 1e6)
}

struct CleanStats {
    spurious_takeovers: u64,
    routed: [u64; 3],
    dropped_nic0: u64,
    demotions: u64,
    promotions: u64,
}

/// Run a fault-free cluster for 20 virtual seconds and read the counters.
fn fault_free(seed: u64, nic0_permille: u16) -> CleanStats {
    let (mut w, _cluster) = boot(seed, nic0_permille);
    w.run_for(SimDuration::from_secs(20));
    phoenix_telemetry::with(|reg| CleanStats {
        spurious_takeovers: reg.counter("gsd.takeovers")
            + reg.histogram("gsd.takeover").map(|h| h.count()).unwrap_or(0),
        routed: [
            reg.counter("net.routed.nic0"),
            reg.counter("net.routed.nic1"),
            reg.counter("net.routed.nic2"),
        ],
        dropped_nic0: reg.counter("net.loss.dropped.nic0"),
        demotions: reg.counter("gsd.nic.demotions"),
        promotions: reg.counter("gsd.nic.promotions"),
    })
}

/// One sweep work item: a seeded run at one NIC0 loss rate.
enum Job {
    Detect { rate: u16, seed: u64 },
    Clean { rate: u16, seed: u64 },
}

enum JobOut {
    Detect(Option<f64>),
    Clean(CleanStats),
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let serial = std::env::args().any(|a| a == "--serial");
    let rates: &[u16] = if small {
        &[0, 50, 100]
    } else {
        &[0, 25, 50, 75, 100]
    };
    let (detect_seeds, clean_seeds) = if small { (2u64, 3u64) } else { (5, 8) };
    println!(
        "nic_asymmetry: NIC0 loss {rates:?}‰ (NICs 1-2 clean), {detect_seeds} \
         detection seeds + {clean_seeds} fault-free seeds per rate \
         (15-node testbed, lossy profile)"
    );

    let mut jobs = Vec::new();
    for &rate in rates {
        for seed in 1..=detect_seeds {
            jobs.push(Job::Detect { rate, seed });
        }
        for seed in 100..100 + clean_seeds {
            jobs.push(Job::Clean { rate, seed });
        }
    }
    let outcome = run_sweep(&jobs, serial, |job| match *job {
        Job::Detect { rate, seed } => JobOut::Detect(detection_ms(seed, rate)),
        Job::Clean { rate, seed } => JobOut::Clean(fault_free(seed, rate)),
    });
    println!(
        "sweep: {} runs on {} thread(s), {} ms wall",
        jobs.len(),
        outcome.threads,
        outcome.wall.as_millis()
    );

    let mut curve = Vec::new();
    let mut total_spurious = 0u64;
    let mut baseline_ms = f64::NAN;
    let mut worst_ratio = 0.0f64;
    for &rate in rates {
        let mut detect: Vec<f64> = Vec::new();
        let mut missed = 0u64;
        let mut spurious = 0u64;
        let mut routed = [0u64; 3];
        let mut dropped = 0u64;
        let mut demotions = 0u64;
        let mut promotions = 0u64;
        for (job, out) in jobs.iter().zip(&outcome.results) {
            match (job, out) {
                (Job::Detect { rate: r, .. }, JobOut::Detect(ms)) if *r == rate => match ms {
                    Some(ms) => detect.push(*ms),
                    None => missed += 1,
                },
                (Job::Clean { rate: r, .. }, JobOut::Clean(s)) if *r == rate => {
                    spurious += s.spurious_takeovers;
                    for (acc, r) in routed.iter_mut().zip(s.routed) {
                        *acc += r;
                    }
                    dropped += s.dropped_nic0;
                    demotions += s.demotions;
                    promotions += s.promotions;
                }
                _ => {}
            }
        }
        let detect_mean = if detect.is_empty() {
            f64::NAN
        } else {
            detect.iter().sum::<f64>() / detect.len() as f64
        };
        if rate == 0 {
            baseline_ms = detect_mean;
        }
        let ratio = detect_mean / baseline_ms;
        worst_ratio = worst_ratio.max(ratio);
        total_spurious += spurious;
        let routed_total: u64 = routed.iter().sum();
        let nic0_share = if routed_total > 0 {
            routed[0] as f64 / routed_total as f64
        } else {
            f64::NAN
        };

        println!(
            "  nic0 {:>4}‰: detect {:>7.1} ms (x{:.2} of clean, n={}, missed={}) \
             | spurious {} | nic0 routed share {:>5.1}% | nic0 dropped {:>5} | \
             demote/promote {}/{}",
            rate,
            detect_mean,
            ratio,
            detect.len(),
            missed,
            spurious,
            nic0_share * 100.0,
            dropped,
            demotions,
            promotions
        );
        curve.push(
            Json::obj()
                .set("nic0_loss_permille", Json::Num(rate as f64))
                .set("detect_ms_mean", Json::Num(detect_mean))
                .set("detect_ratio_vs_clean", Json::Num(ratio))
                .set("detect_samples", Json::Num(detect.len() as f64))
                .set("detect_missed", Json::Num(missed as f64))
                .set("spurious_takeovers", Json::Num(spurious as f64))
                .set("nic0_routed_share", Json::Num(nic0_share))
                .set("nic0_dropped", Json::Num(dropped as f64))
                .set("nic_demotions", Json::Num(demotions as f64))
                .set("nic_promotions", Json::Num(promotions as f64)),
        );
    }

    // Acceptance bars: zero spurious takeovers across the sweep, and mean
    // detection within 25% of the clean baseline at every rate.
    let detect_ok = worst_ratio.is_finite() && worst_ratio <= 1.25;
    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set(
            "rates_permille",
            Json::Arr(rates.iter().map(|&r| Json::Num(r as f64)).collect()),
        )
        .set("detect_seeds_per_rate", Json::Num(detect_seeds as f64))
        .set("clean_seeds_per_rate", Json::Num(clean_seeds as f64))
        .set("baseline_detect_ms", Json::Num(baseline_ms))
        .set("worst_detect_ratio", Json::Num(worst_ratio))
        .set("detect_within_bar", Json::Bool(detect_ok))
        .set("spurious_takeovers", Json::Num(total_spurious as f64));

    let mut rep = phoenix_telemetry::BenchReport::new("nic_asymmetry");
    rep.section("nic", summary);
    rep.section("nic_curve", Json::Arr(curve));
    let path = rep
        .write_to(&outcome.merged, workspace_root().join("results/BENCH_nic.json"))
        .expect("write BENCH_nic.json");
    println!("report written: {}", path.display());

    if total_spurious > 0 {
        eprintln!(
            "nic_asymmetry: {total_spurious} spurious takeover(s) — one lossy \
             NIC must never look like a dead node"
        );
        std::process::exit(1);
    }
    if !detect_ok {
        eprintln!(
            "nic_asymmetry: detection degraded x{worst_ratio:.2} vs clean \
             baseline (bar: 1.25) — routing is not avoiding the sick interface"
        );
        std::process::exit(1);
    }
}
