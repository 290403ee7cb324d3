//! Loss sweep: kernel behaviour as a function of network loss rate.
//!
//! The paper evaluated the kernel on reliable switched Ethernet; this
//! bench asks what the same protocols do when the wire drops, duplicates
//! and reorders messages. For each loss rate (0–10%) it measures, with
//! the kernel at the lossy rung (`Rung::Lossy`):
//!
//! * **detection time** — a WD process is killed and the virtual time
//!   until the supervising GSD diagnoses the failure is mined from the
//!   trace (averaged over several seeds);
//! * **spurious takeovers** — fault-free runs must record zero GSD
//!   takeovers at every swept rate (seq-dedup + K-of-N suspicion +
//!   probe-freshness aborts absorb random loss);
//! * **retry / dedup counters** — `rpc.retries`, `net.loss.dropped`,
//!   `net.dup.scheduled`/`net.dup.delivered` (delivered is counted at
//!   dispatch, so delivered ≤ scheduled is gated per rate) and
//!   `gsd.dedup.dropped` per fault-free run.
//!
//! Results go to `results/BENCH_loss.json` (section `loss_curve`); the gate
//! fails if any spurious takeover fired or a rate delivered more dups than
//! it scheduled.

use phoenix_bench::episodes::rate_jobs;
use phoenix_bench::sweep::{Outcome, Plan, Report, Sweep};
use phoenix_sim::NetParams;
use phoenix_telemetry::Json;

const RATES: [u16; 6] = [0, 5, 10, 20, 50, 100];

/// Detection seeds, then fault-free seeds, per rate.
const SEEDS: (u64, u64) = (5, 10);

const COUNTERS: &[&str] = &[
    "rpc.retries",
    "net.loss.dropped",
    "net.dup.scheduled",
    "net.dup.delivered",
    "gsd.dedup.dropped",
];

fn plan() -> Plan {
    Plan {
        header: format!(
            "loss_sweep: rates {RATES:?}‰, {} detection seeds + \
             {} fault-free seeds per rate (15-node testbed, lossy profile)",
            SEEDS.0, SEEDS.1
        ),
        jobs: rate_jobs(&RATES, SEEDS, NetParams::unreliable, COUNTERS),
    }
}

fn report(o: &Outcome) -> Report {
    let mut lines = Vec::new();
    let mut curve = Vec::new();
    let mut failures = Vec::new();
    for (g, &rate) in o.groups.iter().zip(&RATES) {
        // Detection time under loss: mean over seeds (a rate where the
        // diagnosis never lands surfaces as a missing sample).
        let (dups, dups_scheduled) = (g.sum("net.dup.delivered"), g.sum("net.dup.scheduled"));
        lines.push(format!(
            "  {:>4}‰: detect {:>8.1} ms (n={}, missed={}, node-diag={}) | \
             spurious {} | retries {:>4}+{} | dropped {:>6} | dup {:>4}/{:<4} | \
             hb-dedup {:>4}",
            rate,
            g.mean("detect_ms"),
            g.n("detect_ms"),
            g.missing("detect_ms"),
            g.sum("node_diagnosed"),
            g.sum("spurious_takeovers"),
            g.sum("rpc.retries"),
            g.sum("detect_retries"),
            g.sum("net.loss.dropped"),
            dups,
            dups_scheduled,
            g.sum("gsd.dedup.dropped")
        ));
        // Pin the corrected accounting: `delivered` is counted at
        // dispatch, so it can never exceed what the lossy links scheduled
        // (a dup whose destination died in flight is a drop, not a
        // delivery).
        if dups > dups_scheduled {
            failures.push(format!(
                "net.dup.delivered ({dups}) > net.dup.scheduled ({dups_scheduled}) at {rate}‰"
            ));
        }
        curve.push(
            Json::obj()
                .set("loss_permille", Json::Num(rate as f64))
                .set("detect_ms_mean", Json::Num(g.mean("detect_ms")))
                .set("detect_samples", Json::Num(g.n("detect_ms") as f64))
                .set("detect_missed", Json::Num(g.missing("detect_ms") as f64))
                .set("detect_node_diagnosed", Json::Num(g.sum("node_diagnosed") as f64))
                .set("spurious_takeovers", Json::Num(g.sum("spurious_takeovers") as f64))
                .set("rpc_retries", Json::Num(g.sum("rpc.retries") as f64))
                .set("detect_rpc_retries", Json::Num(g.sum("detect_retries") as f64))
                .set("net_loss_dropped", Json::Num(g.sum("net.loss.dropped") as f64))
                .set("net_dup_scheduled", Json::Num(dups_scheduled as f64))
                .set("net_dup_delivered", Json::Num(dups as f64))
                .set("gsd_dedup_dropped", Json::Num(g.sum("gsd.dedup.dropped") as f64)),
        );
    }
    let spurious = o.all.sum("spurious_takeovers");
    if spurious > 0 {
        failures.push(format!("{spurious} spurious takeover(s) — loss hardening regressed"));
    }
    let summary = Json::obj()
        .set("rates_permille", Json::Arr(RATES.iter().map(|&r| Json::Num(r as f64)).collect()))
        .set("detect_seeds_per_rate", Json::Num(SEEDS.0 as f64))
        .set("clean_seeds_per_rate", Json::Num(SEEDS.1 as f64))
        .set("spurious_takeovers", Json::Num(spurious as f64));
    Report {
        lines,
        sections: vec![("loss", summary), ("loss_curve", Json::Arr(curve))],
        failure: (!failures.is_empty()).then(|| failures.join("; ")),
    }
}

pub const SWEEP: Sweep =
    Sweep { name: "loss_sweep", file: "BENCH_loss.json", noun: "runs", plan, report };
