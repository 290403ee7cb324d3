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
//! the gate fails if any spurious takeover fired, or a rate missed a
//! detection or drifted past the 25% bar.

use phoenix_bench::episodes::rate_jobs;
use phoenix_bench::sweep::{Outcome, Plan, Report, Sweep};
use phoenix_sim::{NetParams, NicId};
use phoenix_telemetry::Json;

/// NIC 0's loss rates; the first, 0‰, is the clean baseline.
const RATES: [u16; 5] = [0, 25, 50, 75, 100];

/// Detection seeds, then fault-free seeds, per rate.
const SEEDS: (u64, u64) = (5, 8);

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

/// The detection bar, over each rate's (mean detection / clean mean,
/// missed detections): every detection run diagnosed its kill, and every
/// ratio is finite and within 1.25. A rate (or a baseline) with no sample
/// has a NaN ratio, which fails here; `f64::max` would have dropped it.
fn detect_within_bar(rates: &[(f64, u64)]) -> bool {
    rates.iter().all(|&(ratio, missed)| missed == 0 && ratio.is_finite() && ratio <= 1.25)
}

fn plan() -> Plan {
    Plan {
        header: format!(
            "nic_asymmetry: NIC0 loss {RATES:?}‰ (NICs 1-2 clean), {} \
             detection seeds + {} fault-free seeds per rate \
             (15-node testbed, lossy profile)",
            SEEDS.0, SEEDS.1
        ),
        jobs: rate_jobs(&RATES, SEEDS, nic0_lossy, COUNTERS),
    }
}

fn report(o: &Outcome) -> Report {
    let mut lines = Vec::new();
    let mut curve = Vec::new();
    let mut bar = Vec::new();
    let baseline_ms = o.groups[0].mean("detect_ms");
    let mut worst_ratio = 0.0f64;
    for (g, &rate) in o.groups.iter().zip(&RATES) {
        let ratio = g.mean("detect_ms") / baseline_ms;
        worst_ratio = worst_ratio.max(ratio);
        bar.push((ratio, g.missing("detect_ms")));
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
    let detect_ok = detect_within_bar(&bar);
    let spurious = o.all.sum("spurious_takeovers");
    let summary = Json::obj()
        .set("rates_permille", Json::Arr(RATES.iter().map(|&r| Json::Num(r as f64)).collect()))
        .set("detect_seeds_per_rate", Json::Num(SEEDS.0 as f64))
        .set("clean_seeds_per_rate", Json::Num(SEEDS.1 as f64))
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
            "detection outside the bar (worst x{worst_ratio:.2} vs clean baseline, bar 1.25; \
             {} missed) — routing is not avoiding the sick interface",
            o.all.missing("detect_ms")
        ))
    } else {
        None
    };
    Report { lines, sections: vec![("nic", summary), ("nic_curve", Json::Arr(curve))], failure }
}

pub const SWEEP: Sweep =
    Sweep { name: "nic_asymmetry", file: "BENCH_nic.json", noun: "runs", plan, report };

#[cfg(test)]
mod tests {
    use super::detect_within_bar;

    #[test]
    fn a_rate_that_detects_nothing_fails_the_bar() {
        assert!(detect_within_bar(&[(1.0, 0), (1.02, 0), (1.25, 0)]));
        assert!(!detect_within_bar(&[(1.0, 0), (1.3, 0)]), "past the bar");
        assert!(!detect_within_bar(&[(1.0, 0), (f64::NAN, 5)]), "a rate with no sample");
        assert!(!detect_within_bar(&[(f64::NAN, 5), (f64::NAN, 0)]), "a clean baseline with none");
        assert!(!detect_within_bar(&[(1.0, 0), (1.0, 1)]), "one missed detection");
        assert!(!detect_within_bar(&[(1.0, 0), (f64::INFINITY, 0)]), "a zero baseline");
    }
}
