//! Text rendering of the monitoring dashboard — our stand-in for the
//! paper's Fig 6 screenshot ("a snapshot of Dawning 4000A's monitoring
//! system under common load with … percent average memory usage, percent
//! average CPU usage and 0.72 percent average swap usage").

use crate::{FeedItem, Snapshot};
use std::fmt::Write as _;

/// Proportional bar of `frac` (0..=1), `width` cells wide.
fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '░' });
    }
    s
}

/// Render a snapshot and the tail of the event feed.
pub(crate) fn render(snapshot: &Snapshot, feed: &[FeedItem]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Phoenix GridView — system status ===");
    let _ = writeln!(
        out,
        "nodes reporting: {:<5} running apps: {:<5} federation: {}",
        snapshot.nodes_reporting,
        snapshot.running_apps,
        if snapshot.complete { "complete" } else { "PARTIAL" },
    );
    let _ = writeln!(
        out,
        "CPU    {:>6.2}%  {}",
        snapshot.avg_cpu * 100.0,
        bar(snapshot.avg_cpu, 30)
    );
    let _ = writeln!(
        out,
        "Memory {:>6.2}%  {}",
        snapshot.avg_memory * 100.0,
        bar(snapshot.avg_memory, 30)
    );
    let _ = writeln!(
        out,
        "Swap   {:>6.2}%  {}",
        snapshot.avg_swap * 100.0,
        bar(snapshot.avg_swap, 30)
    );
    if snapshot.overloaded_nodes > 0 {
        let _ = writeln!(
            out,
            "!! System Overload: {} node(s) above alarm threshold",
            snapshot.overloaded_nodes
        );
    }
    let _ = writeln!(out, "--- recent events ---");
    for item in feed.iter().rev().take(8) {
        let _ = writeln!(out, "{}  {:?} @ {}", item.at, item.etype, item.origin);
    }
    out
}

/// Render the kernel-telemetry panel from this thread's metrics registry:
/// one line per instrumented latency path (count, p50/p99 in µs) and one
/// per counter. The admin console view of `phoenix_telemetry`.
pub(crate) fn render_telemetry() -> String {
    phoenix_telemetry::with(|reg| {
        let mut out = String::new();
        let _ = writeln!(out, "--- kernel telemetry ---");
        let mut paths: Vec<_> = reg
            .histograms()
            .map(|(p, st)| (p, st.service, st.hist.summary()))
            .collect();
        paths.sort_by_key(|(p, ..)| *p);
        for (path, service, s) in paths {
            let _ = writeln!(
                out,
                "{path:<28} [{service:<8}] n={:<6} p50={:>8.1}us p99={:>8.1}us",
                s.count,
                s.p50_ns as f64 / 1_000.0,
                s.p99_ns as f64 / 1_000.0,
            );
        }
        let mut counters: Vec<_> = reg.counters().collect();
        counters.sort_by_key(|(n, _)| *n);
        for (name, v) in counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        // Per-NIC interface panel: EWMA health scores (gauges the GSD
        // publishes when adaptive multi-NIC routing is enabled) next to
        // the simulator's per-interface routed/dropped counters, so a
        // degraded interface is visible at a glance.
        const NIC_ROWS: [(&str, &str, &str, &str); 3] = [
            ("nic0", "nic.health.nic0", "net.routed.nic0", "net.loss.dropped.nic0"),
            ("nic1", "nic.health.nic1", "net.routed.nic1", "net.loss.dropped.nic1"),
            ("nic2", "nic.health.nic2", "net.routed.nic2", "net.loss.dropped.nic2"),
        ];
        let mut nic_lines = String::new();
        for (label, health, routed, dropped) in NIC_ROWS {
            let score = reg.gauge(health);
            let routed = reg.counter(routed);
            let dropped = reg.counter(dropped);
            if score.is_none() && routed == 0 && dropped == 0 {
                continue;
            }
            let score = score.unwrap_or(1.0);
            let _ = writeln!(
                nic_lines,
                "{label}  health {score:>5.3} {}  routed {routed:<8} dropped {dropped}",
                bar(score.clamp(0.0, 1.0), 10),
            );
        }
        if !nic_lines.is_empty() {
            let _ = writeln!(out, "--- network interfaces ---");
            out.push_str(&nic_lines);
        }
        // Node-health panel: the leader's fail-slow verdict per peer node
        // (0 = healthy, 1 = slow, 2 = dead) next to its slowness score
        // (smoothed RTT over own baseline; 1.0 = at baseline). Rows are
        // evidence-gated like the NIC panel: a cluster without the
        // detector enabled shows no panel, not a wall of "healthy".
        let mut health_lines = String::new();
        for node in 0..8u32 {
            let verdict = reg.gauge(&format!("slow.verdict.node{node}"));
            let score = reg.gauge(&format!("slow.score.node{node}"));
            if verdict.is_none() && score.is_none() {
                continue;
            }
            let label = match verdict.unwrap_or(0.0) as u32 {
                0 => "healthy",
                1 => "SLOW",
                _ => "DEAD",
            };
            let score = score.unwrap_or(1.0);
            let _ = writeln!(
                health_lines,
                "node{node}  verdict {label:<8} score {score:>6.2}x {}",
                bar((score / 8.0).clamp(0.0, 1.0), 10),
            );
        }
        if !health_lines.is_empty() {
            let _ = writeln!(out, "--- node health (fail-slow) ---");
            out.push_str(&health_lines);
            let _ = writeln!(
                out,
                "quarantined partitions {}  suspected {} reinstated {} drains {} \
                 leader-yields {} dead-vetoed {}",
                reg.gauge("gsd.slow.quarantined").unwrap_or(0.0),
                reg.counter("gsd.slow.suspected"),
                reg.counter("gsd.slow.reinstated"),
                reg.counter("gsd.slow.drains"),
                reg.counter("gsd.slow.leader_yields"),
                reg.counter("gsd.slow.dead_vetoed"),
            );
        }
        // Quorum panel: only rendered once the regroup layer has produced
        // evidence (a round, a freeze, or an epoch bump) — a cluster
        // without split-brain protection shows no panel, not a clean one.
        let epoch = reg.gauge("gsd.regroup.epoch");
        let frozen = reg.gauge("gsd.regroup.frozen").unwrap_or(0.0);
        let rounds = reg.counter("gsd.regroup.rounds");
        if epoch.is_some() || frozen > 0.0 || rounds > 0 {
            let _ = writeln!(out, "--- quorum / regroup ---");
            let _ = writeln!(
                out,
                "epoch {:<6} state {:<8} rounds {rounds:<6} freezes {} thaw-pending {}",
                epoch.unwrap_or(0.0),
                if frozen > 0.0 { "FROZEN" } else { "quorate" },
                reg.counter("gsd.regroup.freezes"),
                if frozen > 0.0 { "yes" } else { "no" },
            );
            let _ = writeln!(
                out,
                "takeovers suppressed {} deferred {} vetoed {}  directories marked stale {}",
                reg.counter("gsd.regroup.suppressed"),
                reg.counter("gsd.regroup.deferred"),
                reg.counter("gsd.regroup.vetoed"),
                reg.counter("config.stale_marks"),
            );
            // Vote-table sub-panel: only when a witness is designated
            // (the weighted-quorum profile); plain count-majority
            // clusters keep the two-line panel above.
            if let Some(w) = reg.gauge("gsd.regroup.witness") {
                let _ = writeln!(
                    out,
                    "witness p{} (epoch {})  takeover delay {:.0} ms (round latency {:.1} ms)",
                    w,
                    reg.gauge("gsd.regroup.witness_epoch").unwrap_or(0.0),
                    reg.gauge("gsd.regroup.takeover_delay").unwrap_or(0.0),
                    reg.gauge("gsd.regroup.round_latency").unwrap_or(0.0),
                );
                let _ = writeln!(
                    out,
                    "dead-partition discounts {}  witness failovers {}",
                    reg.counter("gsd.regroup.dead_discounts"),
                    reg.counter("gsd.regroup.witness_failover"),
                );
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_proto::EventType;
    use phoenix_sim::{NodeId, SimTime};

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10), "░░░░░░░░░░");
        assert_eq!(bar(1.0, 10), "██████████");
        assert_eq!(bar(0.5, 10).chars().filter(|&c| c == '█').count(), 5);
    }

    #[test]
    fn render_mentions_key_figures() {
        let snap = Snapshot {
            nodes_reporting: 640,
            avg_cpu: 0.19,
            avg_memory: 0.20,
            avg_swap: 0.0072,
            overloaded_nodes: 0,
            complete: true,
            running_apps: 3,
        };
        let feed = vec![FeedItem {
            at: SimTime(1_000_000_000),
            etype: EventType::NodeFault,
            origin: NodeId(5),
        }];
        let s = render(&snap, &feed);
        assert!(s.contains("640"));
        assert!(s.contains("0.72%"));
        assert!(s.contains("NodeFault"));
        assert!(s.contains("complete"));
    }

    #[test]
    fn telemetry_panel_renders_per_nic_health() {
        phoenix_telemetry::reset();
        phoenix_telemetry::gauge_set("nic.health.nic0", 0.412);
        phoenix_telemetry::gauge_set("nic.health.nic1", 1.0);
        phoenix_telemetry::counter_add("net.routed.nic0", 120);
        phoenix_telemetry::counter_add("net.loss.dropped.nic0", 13);
        let s = render_telemetry();
        assert!(s.contains("--- network interfaces ---"));
        assert!(s.contains("nic0  health 0.412"));
        assert!(s.contains("dropped 13"));
        assert!(s.contains("nic1  health 1.000"));
        // No evidence for nic2: the row is omitted, not rendered as clean.
        assert!(!s.contains("nic2"));
        phoenix_telemetry::reset();
    }

    #[test]
    fn telemetry_panel_renders_node_health() {
        phoenix_telemetry::reset();
        // No detector evidence → no panel.
        assert!(!render_telemetry().contains("node health"));
        phoenix_telemetry::gauge_set("slow.verdict.node2", 1.0);
        phoenix_telemetry::gauge_set("slow.score.node2", 12.4);
        phoenix_telemetry::gauge_set("slow.verdict.node3", 0.0);
        phoenix_telemetry::gauge_set("slow.score.node3", 1.02);
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", 1.0);
        phoenix_telemetry::counter_add("gsd.slow.suspected", 3);
        phoenix_telemetry::counter_add("gsd.slow.drains", 1);
        phoenix_telemetry::counter_add("gsd.slow.dead_vetoed", 4);
        let s = render_telemetry();
        assert!(s.contains("--- node health (fail-slow) ---"));
        assert!(s.contains("node2  verdict SLOW"));
        assert!(s.contains("12.40x"));
        assert!(s.contains("node3  verdict healthy"));
        // No evidence for node0: the row is omitted, not rendered clean.
        assert!(!s.contains("node0"));
        assert!(s.contains("quarantined partitions 1"));
        assert!(s.contains("suspected 3"));
        assert!(s.contains("dead-vetoed 4"));
        phoenix_telemetry::reset();
    }

    #[test]
    fn telemetry_panel_renders_quorum_state() {
        phoenix_telemetry::reset();
        // No regroup evidence → no panel.
        assert!(!render_telemetry().contains("quorum / regroup"));
        phoenix_telemetry::gauge_set("gsd.regroup.epoch", 3.0);
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 1.0);
        phoenix_telemetry::counter_add("gsd.regroup.rounds", 7);
        phoenix_telemetry::counter_add("gsd.regroup.freezes", 1);
        phoenix_telemetry::counter_add("gsd.regroup.suppressed", 2);
        phoenix_telemetry::counter_add("config.stale_marks", 4);
        let s = render_telemetry();
        assert!(s.contains("--- quorum / regroup ---"));
        assert!(s.contains("epoch 3"));
        assert!(s.contains("FROZEN"));
        assert!(s.contains("rounds 7"));
        assert!(s.contains("suppressed 2"));
        assert!(s.contains("stale 4"));
        // No witness designated → no vote-table sub-panel.
        assert!(!s.contains("witness"));
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 0.0);
        assert!(render_telemetry().contains("quorate"));
        phoenix_telemetry::reset();
    }

    #[test]
    fn telemetry_panel_renders_vote_table() {
        phoenix_telemetry::reset();
        phoenix_telemetry::gauge_set("gsd.regroup.epoch", 5.0);
        phoenix_telemetry::gauge_set("gsd.regroup.witness", 1.0);
        phoenix_telemetry::gauge_set("gsd.regroup.witness_epoch", 2.0);
        phoenix_telemetry::gauge_set("gsd.regroup.takeover_delay", 1580.0);
        phoenix_telemetry::gauge_set("gsd.regroup.round_latency", 4.8);
        phoenix_telemetry::counter_add("gsd.regroup.dead_discounts", 3);
        phoenix_telemetry::counter_add("gsd.regroup.witness_failover", 1);
        let s = render_telemetry();
        assert!(s.contains("witness p1 (epoch 2)"));
        assert!(s.contains("takeover delay 1580 ms"));
        assert!(s.contains("round latency 4.8 ms"));
        assert!(s.contains("dead-partition discounts 3"));
        assert!(s.contains("witness failovers 1"));
        phoenix_telemetry::reset();
    }

    #[test]
    fn overload_banner_appears() {
        let snap = Snapshot {
            overloaded_nodes: 2,
            ..Snapshot::default()
        };
        let s = render(&snap, &[]);
        assert!(s.contains("System Overload"));
    }
}
