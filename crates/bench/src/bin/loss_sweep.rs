//! Loss sweep: kernel behaviour as a function of network loss rate.
//!
//! The paper evaluated the kernel on reliable switched Ethernet; this
//! bench asks what the same protocols do when the wire drops, duplicates
//! and reorders messages. For each loss rate (0–10%) it measures, with
//! the loss-tolerant parameter profile (`KernelParams::fast_lossy`):
//!
//! * **detection time** — a WD process is killed and the virtual time
//!   until the supervising GSD diagnoses the failure is mined from the
//!   trace (averaged over several seeds);
//! * **spurious takeovers** — fault-free runs must record zero GSD
//!   takeovers at every swept rate (seq-dedup + K-of-N suspicion +
//!   probe-freshness aborts absorb random loss);
//! * **retry / dedup counters** — `rpc.retries`, `net.loss.dropped`,
//!   `net.dup.scheduled`/`net.dup.delivered` (delivered is counted at
//!   dispatch, so delivered ≤ scheduled is asserted per rate) and
//!   `gsd.dedup.dropped` per fault-free run.
//!
//! Results go to `results/BENCH_loss.json` (section `loss_curve`); the
//! exit status is non-zero if any spurious takeover fired, which lets
//! `scripts/verify.sh` gate on it.
//!
//! All `(rate, seed)` runs execute through the parallel sweep runner
//! (`phoenix_bench::sweep`): one registry shard per run, shards merged in
//! work-item order, so the report is byte-identical to `--serial` for the
//! same seed set (verify.sh diffs the two). Wall-clock and thread counts
//! go to stdout only.
//!
//! ```text
//! loss_sweep [--small] [--serial]
//! ```

use phoenix_bench::sweep::run_sweep;
use phoenix_kernel::boot::boot_cluster_with_net;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{FaultTarget, NetParams, SimDuration, TraceEvent, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

fn boot(seed: u64, loss_permille: u16) -> (World<KernelMsg>, phoenix_kernel::PhoenixCluster) {
    let topo = ClusterTopology::uniform(3, 5, 1);
    boot_cluster_with_net(
        topo,
        KernelParams::fast_lossy(),
        seed,
        NetParams::unreliable(loss_permille),
    )
}

/// Kill one WD and mine the trace for kill → `FaultDiagnosed` latency,
/// plus the `rpc.retries` the recovery needed (fault paths are where the
/// retrying request helpers actually fire). Under loss the diagnosis can
/// degrade from process-failure to node-failure (every probe reply for the
/// dead WD's node dropped), so both targets count as detection; the bool
/// reports whether the diagnosis degraded.
fn detection_ms(seed: u64, loss_permille: u16) -> (Option<f64>, bool, u64) {
    let (mut w, cluster) = boot(seed, loss_permille);
    w.run_for(SimDuration::from_secs(2));
    // A compute node's WD in partition 1 (not the meta leader's server).
    let victim = cluster.directory.nodes[6].wd;
    let victim_node = cluster.directory.nodes[6].node;
    let t_kill = w.now();
    w.kill_process(victim);
    w.run_for(SimDuration::from_secs(10));
    let retries = phoenix_telemetry::with(|reg| reg.counter("rpc.retries"));
    let hit = w.trace().records().iter().find(|r| {
        r.at >= t_kill
            && match r.event {
                TraceEvent::FaultDiagnosed { target: FaultTarget::Process(p), .. } => p == victim,
                TraceEvent::FaultDiagnosed { target: FaultTarget::Node(n), .. } => n == victim_node,
                _ => false,
            }
    });
    let ms = hit.map(|rec| rec.at.since(t_kill).as_nanos() as f64 / 1e6);
    let degraded = matches!(
        hit.map(|rec| &rec.event),
        Some(TraceEvent::FaultDiagnosed { target: FaultTarget::Node(_), .. })
    );
    (ms, degraded, retries)
}

struct FaultFreeStats {
    spurious_takeovers: u64,
    rpc_retries: u64,
    loss_dropped: u64,
    dup_scheduled: u64,
    dup_delivered: u64,
    dedup_dropped: u64,
}

/// Run a fault-free cluster for 20 virtual seconds and read the counters.
fn fault_free(seed: u64, loss_permille: u16) -> FaultFreeStats {
    let (mut w, _cluster) = boot(seed, loss_permille);
    w.run_for(SimDuration::from_secs(20));
    phoenix_telemetry::with(|reg| FaultFreeStats {
        spurious_takeovers: reg.counter("gsd.takeovers")
            + reg.histogram("gsd.takeover").map(|h| h.count()).unwrap_or(0),
        rpc_retries: reg.counter("rpc.retries"),
        loss_dropped: reg.counter("net.loss.dropped"),
        dup_scheduled: reg.counter("net.dup.scheduled"),
        dup_delivered: reg.counter("net.dup.delivered"),
        dedup_dropped: reg.counter("gsd.dedup.dropped"),
    })
}

/// One sweep work item: a seeded run at one loss rate.
enum Job {
    Detect { rate: u16, seed: u64 },
    Clean { rate: u16, seed: u64 },
}

enum JobOut {
    Detect { ms: Option<f64>, degraded: bool, retries: u64 },
    Clean(FaultFreeStats),
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let serial = std::env::args().any(|a| a == "--serial");
    let rates: &[u16] = if small {
        &[0, 20, 50]
    } else {
        &[0, 5, 10, 20, 50, 100]
    };
    let (detect_seeds, clean_seeds) = if small { (2u64, 3u64) } else { (5, 10) };
    println!(
        "loss_sweep: rates {rates:?}‰, {detect_seeds} detection seeds + \
         {clean_seeds} fault-free seeds per rate (15-node testbed, lossy profile)"
    );

    // Flatten the whole sweep into one work list; item order (not
    // completion order) drives the telemetry merge, so serial and
    // parallel runs produce byte-identical reports.
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
        Job::Detect { rate, seed } => {
            let (ms, degraded, retries) = detection_ms(seed, rate);
            JobOut::Detect { ms, degraded, retries }
        }
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
    for &rate in rates {
        // Detection time under loss: mean over seeds (a rate where the
        // diagnosis never lands would surface as a missing sample).
        let mut detect: Vec<f64> = Vec::new();
        let mut missed = 0u64;
        let mut degraded = 0u64;
        let mut detect_retries = 0u64;
        let mut spurious = 0u64;
        let mut retries = 0u64;
        let mut dropped = 0u64;
        let mut dups_scheduled = 0u64;
        let mut dups = 0u64;
        let mut dedup = 0u64;
        for (job, out) in jobs.iter().zip(&outcome.results) {
            match (job, out) {
                (Job::Detect { rate: r, .. }, JobOut::Detect { ms, degraded: deg, retries: rr })
                    if *r == rate =>
                {
                    detect_retries += rr;
                    degraded += *deg as u64;
                    match ms {
                        Some(ms) => detect.push(*ms),
                        None => missed += 1,
                    }
                }
                (Job::Clean { rate: r, .. }, JobOut::Clean(s)) if *r == rate => {
                    spurious += s.spurious_takeovers;
                    retries += s.rpc_retries;
                    dropped += s.loss_dropped;
                    dups_scheduled += s.dup_scheduled;
                    dups += s.dup_delivered;
                    dedup += s.dedup_dropped;
                }
                _ => {}
            }
        }
        let detect_mean = if detect.is_empty() {
            f64::NAN
        } else {
            detect.iter().sum::<f64>() / detect.len() as f64
        };
        total_spurious += spurious;

        println!(
            "  {:>4}‰: detect {:>8.1} ms (n={}, missed={}, node-diag={}) | \
             spurious {} | retries {:>4}+{} | dropped {:>6} | dup {:>4}/{:<4} | \
             hb-dedup {:>4}",
            rate,
            detect_mean,
            detect.len(),
            missed,
            degraded,
            spurious,
            retries,
            detect_retries,
            dropped,
            dups,
            dups_scheduled,
            dedup
        );
        // Pin the corrected accounting: `delivered` is now counted at
        // dispatch, so it can never exceed what the lossy links scheduled
        // (a dup whose destination died in flight is a drop, not a
        // delivery).
        assert!(
            dups <= dups_scheduled,
            "net.dup.delivered ({dups}) > net.dup.scheduled ({dups_scheduled}) at {rate}‰"
        );
        curve.push(
            Json::obj()
                .set("loss_permille", Json::Num(rate as f64))
                .set("detect_ms_mean", Json::Num(detect_mean))
                .set("detect_samples", Json::Num(detect.len() as f64))
                .set("detect_missed", Json::Num(missed as f64))
                .set("detect_node_diagnosed", Json::Num(degraded as f64))
                .set("spurious_takeovers", Json::Num(spurious as f64))
                .set("rpc_retries", Json::Num(retries as f64))
                .set("detect_rpc_retries", Json::Num(detect_retries as f64))
                .set("net_loss_dropped", Json::Num(dropped as f64))
                .set("net_dup_scheduled", Json::Num(dups_scheduled as f64))
                .set("net_dup_delivered", Json::Num(dups as f64))
                .set("gsd_dedup_dropped", Json::Num(dedup as f64)),
        );
    }

    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("rates_permille", Json::Arr(rates.iter().map(|&r| Json::Num(r as f64)).collect()))
        .set("detect_seeds_per_rate", Json::Num(detect_seeds as f64))
        .set("clean_seeds_per_rate", Json::Num(clean_seeds as f64))
        .set("spurious_takeovers", Json::Num(total_spurious as f64));

    let mut rep = phoenix_telemetry::BenchReport::new("loss_sweep");
    rep.section("loss", summary);
    rep.section("loss_curve", Json::Arr(curve));
    // The merged registry holds every run's telemetry (shards merged in
    // item order), not just the last run's — and is identical either way
    // the sweep was scheduled.
    let path = rep
        .write_to(&outcome.merged, workspace_root().join("results/BENCH_loss.json"))
        .expect("write BENCH_loss.json");
    println!("report written: {}", path.display());

    if total_spurious > 0 {
        eprintln!("loss_sweep: {total_spurious} spurious takeover(s) — loss hardening regressed");
        std::process::exit(1);
    }
}
