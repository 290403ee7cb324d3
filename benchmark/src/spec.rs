//! The ledger's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repo root is [`render_benchmark_json`] written
//! to a file (`run.sh --print-spec`); a self-test holds the two equal, and
//! every run asserts it printed exactly these names.

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Steady640,
    Steady2560,
    FaultMix,
    PwsStream136,
    PwsBacklog136,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Steady640,
        Workload::Steady2560,
        Workload::FaultMix,
        Workload::PwsStream136,
        Workload::PwsBacklog136,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady640 => "steady_640",
            Workload::Steady2560 => "steady_2560",
            Workload::FaultMix => "fault_mix",
            Workload::PwsStream136 => "pws_stream_136",
            Workload::PwsBacklog136 => "pws_backlog_136",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the long form is in README.md).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady640 => {
                "Paper Sec 5.3 shape: 640 nodes, GridView at 1 s, fault-free; heartbeat-dominated, so the simulator substrate and the gsd/wd handlers do the work"
            }
            Workload::Steady2560 => {
                "Same code at 2,560 nodes: checkpoint federation and meta-group fan-out grow with partitions squared, bulk sizing and cache misses matter, boot shows in setup_s"
            }
            Workload::FaultMix => {
                "Seeded chaos schedules under the lossy, partition, quorum and slow presets: the only workload that runs suspicion, probe, regroup, takeover and quarantine code"
            }
            Workload::PwsStream136 => {
                "Paper Sec 5.4 job stream on 136 nodes, open loop at 73 % utilisation with a short queue: scheduler, ppm, event, security and bulletin share the work"
            }
            Workload::PwsBacklog136 => {
                "Same cluster and generator with 1,000 jobs queued at once: a deep queue makes checkpoint saves, policy scans and bulk sizing dominate"
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read off. `Host` is wall-clock of the process
/// and noisy; `Exact` covers the virtual clock and every count: seeded,
/// and identical whenever a seed is run again.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Host,
    Exact,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Exact => "exact",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, clock: Clock, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, clock: Clock, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        clock,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every workload with tracing off; the
/// bounds come from README, "Noise calibration". All five are on the host
/// clock. The benchmark driver wants every end-to-end metric from every
/// workload, never 0, and rejects one that reads the same on every run —
/// and the steady pair's counts are the same for every seed — so the exact
/// results are per-layer metrics and printed lines (README, "What the
/// contract moved").
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    use Clock::*;
    vec![
        e2e("setup_s", "s", Host, Lower, 0.25),
        e2e("events_per_s", "1/s", Host, Higher, 0.25),
        e2e("wall_ms_per_virtual_s", "ms", Host, Lower, 0.25),
        e2e("ops_per_s", "1/s", Host, Higher, 0.25),
        e2e("peak_rss_mb", "MB", Host, Lower, 0.25),
    ]
}

/// Actors, as `Actor::name` reports them, and the layer each belongs to.
pub const ACTOR_LAYERS: [(&str, &str); 12] = [
    ("gsd", "kernel.gsd"),
    ("wd", "kernel.wd"),
    ("detector", "kernel.detect"),
    ("bulletin", "kernel.bulletin"),
    ("checkpoint", "kernel.checkpoint"),
    ("event", "kernel.event"),
    ("config", "kernel.config"),
    ("security", "kernel.security"),
    ("ppm", "kernel.ppm"),
    ("app", "kernel.ppm"),
    ("pws-sched", "pws.scheduler"),
    ("gridview", "gridview"),
];

/// The step-attributed layers, in report order.
pub fn step_layers() -> Vec<&'static str> {
    let mut layers: Vec<&'static str> = Vec::new();
    for (_, l) in ACTOR_LAYERS {
        if !layers.contains(&l) {
            layers.push(l);
        }
    }
    layers
}

/// Traffic labels broken out as `net.<label>.sent` / `.bytes`.
pub const NET_LABELS: [&str; 12] = [
    "hb", "ckpt", "bulletin", "meta", "svc", "slow", "event", "ppm", "pws", "boot", "probe",
    "regroup",
];

/// Chaos presets of `fault_mix`, in run order.
pub const CHAOS_PRESETS: [&str; 4] = ["lossy", "partition", "quorum", "slow"];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload does not run, or that cannot be seen from outside on it,
/// reports 0.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    use Clock::*;
    let mut m = Vec::new();
    for l in step_layers() {
        m.push(layer(format!("{l}.steps"), "count", Exact, Lower));
        m.push(layer(format!("{l}.busy_ms"), "ms", Host, Lower));
    }
    m.push(layer("kernel.gsd.hb_mean_ns", "ns", Host, Lower));
    m.push(layer("kernel.checkpoint.save_mean_ns", "ns", Host, Lower));
    m.push(layer("kernel.gsd.step_p99_ns", "ns", Host, Lower));
    m.push(layer("pws.scheduler.step_p99_ns", "ns", Host, Lower));

    m.push(layer("sim.world.events", "count", Exact, Lower));
    m.push(layer("sim.world.timers_fired", "count", Exact, Lower));
    m.push(layer("sim.world.dropped", "count", Exact, Lower));
    m.push(layer("sim.sched.peak_queue_depth", "count", Exact, Lower));
    m.push(layer("sim.sched.arena_capacity", "count", Exact, Lower));
    for x in NET_LABELS {
        m.push(layer(format!("net.{x}.sent"), "count", Exact, Lower));
        m.push(layer(format!("net.{x}.bytes"), "B", Exact, Lower));
    }
    m.push(layer("msgs_per_node_virtual_s", "1/s", Exact, Lower));
    m.push(layer("bytes_per_node_virtual_s", "B/s", Exact, Lower));

    for (name, unit) in [
        ("sim.sched.wheel_replay_ns_per_event", "ns"),
        ("sim.sched.heap_replay_ns_per_event", "ns"),
        ("sim.world.null_dispatch_ns", "ns"),
        ("proto.wire.size_ns_hot", "ns"),
        ("proto.wire.size_ns_bulk", "ns"),
        ("proto.wire.encode_ns_per_kb", "ns"),
        ("proto.wire.decode_ns_per_kb", "ns"),
        ("proto.view.parse_ns_hot", "ns"),
        ("proto.msg.clone_ns_bulk", "ns"),
        ("kernel.regroup.round_ns", "ns"),
        ("kernel.slow_detect.observe_ns", "ns"),
        ("kernel.nic_health.observe_ns", "ns"),
        ("pws.policy.pick_ns_q10", "ns"),
        ("pws.policy.pick_ns_q1000", "ns"),
        ("telemetry.counter_add_ns", "ns"),
        ("telemetry.observe_ns", "ns"),
        ("telemetry.span_ns", "ns"),
    ] {
        m.push(layer(name, unit, Host, Lower));
    }

    // Protocol counters from the telemetry registry. Fault-path work
    // (lower is less of it) first, then completed user work.
    for name in [
        "kernel.gsd.takeovers",
        "kernel.gsd.suspicions_raised",
        "kernel.gsd.suspicions_aborted",
    ] {
        m.push(layer(name, "count", Exact, Lower));
    }
    m.push(layer(
        "kernel.gsd.suspicion_abort_share",
        "ratio",
        Exact,
        Lower,
    ));
    for name in [
        "kernel.gsd.probes_sent",
        "kernel.regroup.rounds",
        "kernel.regroup.freezes",
        "kernel.slow_detect.suspected",
        "kernel.rpc.retries",
        "kernel.rpc.dedup_hits",
    ] {
        m.push(layer(name, "count", Exact, Lower));
    }
    for name in [
        "kernel.ppm.execs",
        "pws.scheduler.dispatched",
        "gridview.refreshes",
    ] {
        m.push(layer(name, "count", Exact, Higher));
    }

    for p in CHAOS_PRESETS {
        m.push(layer(
            format!("chaos.{p}.schedule_ms_p50"),
            "ms",
            Host,
            Lower,
        ));
    }
    m.push(layer("chaos.violations", "count", Exact, Lower));
    m.push(layer("phase.boot.wall_ms", "ms", Host, Lower));
    m.push(layer("phase.cascade.wall_ms", "ms", Host, Lower));
    m.push(layer("trace.overhead_ratio", "ratio", Host, Lower));
    m.push(layer("trace.step_coverage", "ratio", Host, Higher));

    // Virtual-clock results a user sees. They repeat exactly for a seed,
    // and each exists on some workloads only, so they live here and not
    // among the bounded host metrics (see README, "What the contract moved").
    m.push(layer("failed_ops_share", "ratio", Exact, Lower));
    m.push(layer("takeover_virtual_ms_p50", "ms", Exact, Lower));
    m.push(layer("takeover_virtual_ms_p90", "ms", Exact, Lower));
    m.push(layer("job_wait_virtual_s_p50", "s", Exact, Lower));
    m.push(layer("job_wait_virtual_s_p99", "s", Exact, Lower));
    m.push(layer("makespan_virtual_s", "s", Exact, Lower));
    m.push(layer("paper_sum_err_pct_max", "%", Exact, Lower));
    m
}

/// The text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound"),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str(),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(end_to_end().into_iter().map(|m| m.name))
            .chain(per_layer().into_iter().map(|m| m.name));
        for n in names {
            assert!(well_formed(&n), "bad name {n}");
            assert!(seen.insert(n.clone()), "duplicate name {n}");
        }
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in end_to_end() {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(render_benchmark_json().len() < 64 * 1024);
    }
}
