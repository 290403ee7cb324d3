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

    /// Render the panel over exactly `counters` and check each is listed
    /// on a line of its own, `name value`.
    fn lists(counters: &[(&'static str, u64)]) {
        phoenix_telemetry::reset();
        for &(name, by) in counters {
            phoenix_telemetry::counter_add(name, by);
        }
        let s = render_telemetry();
        phoenix_telemetry::reset();
        for &(name, by) in counters {
            let row = [name.to_string(), by.to_string()];
            assert!(
                s.lines().any(|l| l.split_whitespace().eq(row.iter().map(String::as_str))),
                "{name} {by} listed: {s}"
            );
        }
    }

    #[test]
    fn telemetry_panel_renders_per_nic_health() {
        lists(&[("net.routed.nic0", 120), ("net.loss.dropped.nic0", 13)]);
    }

    #[test]
    fn telemetry_panel_renders_node_health() {
        lists(&[("gsd.slow.suspected", 3), ("gsd.slow.drains", 1), ("gsd.slow.dead_vetoed", 4)]);
    }

    #[test]
    fn telemetry_panel_renders_quorum_state() {
        lists(&[
            ("gsd.regroup.rounds", 7),
            ("gsd.regroup.freezes", 1),
            ("gsd.regroup.suppressed", 2),
            ("config.stale_marks", 4),
        ]);
    }

    #[test]
    fn telemetry_panel_renders_vote_table() {
        lists(&[("gsd.regroup.dead_discounts", 3), ("gsd.regroup.witness_failover", 1)]);
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
