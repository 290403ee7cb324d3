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
//! ```text
//! nic_asymmetry [--small] [--serial]
//! ```

use phoenix_bench::episodes::rate_jobs;
use phoenix_bench::sweep::{self, Outcome, Plan, Report, Sweep};
use phoenix_sim::{NetParams, NicId};
use phoenix_telemetry::Json;

fn shape(small: bool) -> (&'static [u16], (u64, u64)) {
    if small {
        (&[0, 50, 100], (2, 3))
    } else {
        (&[0, 25, 50, 75, 100], (5, 8))
    }
}

const COUNTERS: &[&str] = &[
    "net.routed.nic0",
    "net.routed.nic1",
    "net.routed.nic2",
    "net.loss.dropped.nic0",
    "gsd.nic.demotions",
    "gsd.nic.promotions",
];

/// Baseline network is clean; only NIC 0 is degraded.
fn nic0_lossy(permille: u16) -> NetParams {
    NetParams::unreliable(0).with_nic_loss(NicId(0), permille)
}

fn plan(small: bool) -> Plan {
    let (rates, seeds) = shape(small);
    Plan {
        header: format!(
            "nic_asymmetry: NIC0 loss {rates:?}‰ (NICs 1-2 clean), {} \
             detection seeds + {} fault-free seeds per rate \
             (15-node testbed, lossy profile)",
            seeds.0, seeds.1
        ),
        jobs: rate_jobs(rates, seeds, nic0_lossy, COUNTERS),
    }
}

fn report(small: bool, o: &Outcome) -> Report {
    let (rates, (detect_seeds, clean_seeds)) = shape(small);
    let mut lines = Vec::new();
    let mut curve = Vec::new();
    // The first rate is 0‰: the clean baseline every other rate is held to.
    let baseline_ms = o.groups[0].mean("detect_ms");
    let mut worst_ratio = 0.0f64;
    for (g, &rate) in o.groups.iter().zip(rates) {
        let ratio = g.mean("detect_ms") / baseline_ms;
        worst_ratio = worst_ratio.max(ratio);
        let routed = [0, 1, 2].map(|nic| g.sum(COUNTERS[nic]));
        let routed_total: u64 = routed.iter().sum();
        let nic0_share =
            if routed_total > 0 { routed[0] as f64 / routed_total as f64 } else { f64::NAN };
        lines.push(format!(
            "  nic0 {:>4}‰: detect {:>7.1} ms (x{:.2} of clean, n={}, missed={}) \
             | spurious {} | nic0 routed share {:>5.1}% | nic0 dropped {:>5} | \
             demote/promote {}/{}",
            rate,
            g.mean("detect_ms"),
            ratio,
            g.n("detect_ms"),
            g.missing("detect_ms"),
            g.sum("spurious_takeovers"),
            nic0_share * 100.0,
            g.sum("net.loss.dropped.nic0"),
            g.sum("gsd.nic.demotions"),
            g.sum("gsd.nic.promotions")
        ));
        curve.push(
            Json::obj()
                .set("nic0_loss_permille", Json::Num(rate as f64))
                .set("detect_ms_mean", Json::Num(g.mean("detect_ms")))
                .set("detect_ratio_vs_clean", Json::Num(ratio))
                .set("detect_samples", Json::Num(g.n("detect_ms") as f64))
                .set("detect_missed", Json::Num(g.missing("detect_ms") as f64))
                .set("spurious_takeovers", Json::Num(g.sum("spurious_takeovers") as f64))
                .set("nic0_routed_share", Json::Num(nic0_share))
                .set("nic0_dropped", Json::Num(g.sum("net.loss.dropped.nic0") as f64))
                .set("nic_demotions", Json::Num(g.sum("gsd.nic.demotions") as f64))
                .set("nic_promotions", Json::Num(g.sum("gsd.nic.promotions") as f64)),
        );
    }

    // Acceptance bars: zero spurious takeovers across the sweep, and mean
    // detection within 25% of the clean baseline at every rate.
    let detect_ok = worst_ratio.is_finite() && worst_ratio <= 1.25;
    let spurious = o.all.sum("spurious_takeovers");
    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("rates_permille", Json::Arr(rates.iter().map(|&r| Json::Num(r as f64)).collect()))
        .set("detect_seeds_per_rate", Json::Num(detect_seeds as f64))
        .set("clean_seeds_per_rate", Json::Num(clean_seeds as f64))
        .set("baseline_detect_ms", Json::Num(baseline_ms))
        .set("worst_detect_ratio", Json::Num(worst_ratio))
        .set("detect_within_bar", Json::Bool(detect_ok))
        .set("spurious_takeovers", Json::Num(spurious as f64));
    let failure = if spurious > 0 {
        Some(format!(
            "{spurious} spurious takeover(s) — one lossy NIC must never look like a dead node"
        ))
    } else if !detect_ok {
        Some(format!(
            "detection degraded x{worst_ratio:.2} vs clean baseline (bar: 1.25) — routing \
             is not avoiding the sick interface"
        ))
    } else {
        None
    };
    Report { lines, sections: vec![("nic", summary), ("nic_curve", Json::Arr(curve))], failure }
}

fn main() {
    sweep::main(&Sweep {
        name: "nic_asymmetry",
        file: "BENCH_nic.json",
        noun: "runs",
        plan,
        report,
    });
}
