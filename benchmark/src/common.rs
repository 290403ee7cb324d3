//! Helpers the world-owning workloads share: counter snapshots, the
//! exact-output digest, output checks on the meta-group, and the mapping
//! from tracer aggregates and telemetry counters to per-layer metrics.

use crate::report::Report;
use crate::spec::{step_layers, NET_LABELS};
use crate::stats::{self, Fnv};
use crate::tracer::{self, StepTracer};
use crate::{probes, Opts};
use phoenix_kernel::group::Gsd;
use phoenix_proto::{ClusterTopology, KernelMsg, PartitionId};
use phoenix_sim::{LabelStats, NodeId, Pid, World};
use std::collections::BTreeMap;

/// The world's counters at one instant; two snapshots bracket a section.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub by_label: BTreeMap<&'static str, LabelStats>,
    pub total: LabelStats,
    pub events: u64,
    pub timers_fired: u64,
    pub virtual_ns: u64,
}

impl Counters {
    pub fn of(world: &World<KernelMsg>) -> Counters {
        let m = world.metrics();
        Counters {
            by_label: m.by_label.clone(),
            total: m.total,
            events: m.events_processed,
            timers_fired: m.timers_fired,
            virtual_ns: world.now().as_nanos(),
        }
    }

    pub fn label(&self, label: &str) -> LabelStats {
        self.by_label.get(label).copied().unwrap_or_default()
    }
}

/// Fold a world's exact outputs into the digest: per-label `Metrics`,
/// events, timers, virtual time, rendered trace length and bytes.
pub fn digest_world(fnv: &mut Fnv, world: &World<KernelMsg>) {
    let m = world.metrics();
    for (label, s) in &m.by_label {
        fnv.str(label);
        for v in [
            s.sent,
            s.sent_bytes,
            s.delivered,
            s.delivered_bytes,
            s.dropped,
        ] {
            fnv.u64(v);
        }
    }
    fnv.u64(m.events_processed);
    fnv.u64(m.timers_fired);
    fnv.u64(world.now().as_nanos());
    let trace = world.trace().render();
    fnv.str(&trace);
}

/// Messages and bytes per node per virtual second over a section.
pub fn per_node_rates(report: &mut Report, before: &Counters, after: &Counters, nodes: usize) {
    let secs = (after.virtual_ns - before.virtual_ns) as f64 / 1e9;
    let per = |delta: u64| delta as f64 / nodes as f64 / secs;
    report.exact(
        "msgs_per_node_virtual_s",
        per(after.total.sent - before.total.sent),
        "1/s",
    );
    report.exact(
        "bytes_per_node_virtual_s",
        per(after.total.sent_bytes - before.total.sent_bytes),
        "B/s",
    );
}

/// The simulator counts of a traced section.
fn sim_counts(report: &mut Report, before: &Counters, after: &Counters) {
    report.metric(
        "sim.world.events",
        (after.events - before.events) as f64,
        "count",
    );
    report.metric(
        "sim.world.timers_fired",
        (after.timers_fired - before.timers_fired) as f64,
        "count",
    );
    report.metric(
        "sim.world.dropped",
        (after.total.dropped - before.total.dropped) as f64,
        "count",
    );
    for x in NET_LABELS {
        let (a, b) = (after.label(x), before.label(x));
        report.metric(&format!("net.{x}.sent"), (a.sent - b.sent) as f64, "count");
        report.metric(
            &format!("net.{x}.bytes"),
            (a.sent_bytes - b.sent_bytes) as f64,
            "B",
        );
    }
}

/// Least share of a traced run's timed phases that step spans must cover.
const MIN_STEP_COVERAGE: f64 = 0.9;

/// `L.steps`, `L.busy_ms` for every step-attributed layer, and the named
/// handlers.
fn step_metrics(report: &mut Report, tracer: &StepTracer) {
    for l in step_layers() {
        let agg = tracer.layer(l);
        report.metric(&format!("{l}.steps"), agg.count as f64, "count");
        report.metric(&format!("{l}.busy_ms"), agg.sum_ns as f64 / 1e6, "ms");
    }
    report.metric(
        "kernel.gsd.hb_mean_ns",
        tracer.handler("gsd", "hb").mean_ns(),
        "ns",
    );
    report.metric(
        "kernel.checkpoint.save_mean_ns",
        tracer.handler("checkpoint", "ckpt").mean_ns(),
        "ns",
    );
    report.metric(
        "kernel.gsd.step_p99_ns",
        tracer.layer("kernel.gsd").percentile_ns(99.0),
        "ns",
    );
    report.metric(
        "pws.scheduler.step_p99_ns",
        tracer.layer("pws.scheduler").percentile_ns(99.0),
        "ns",
    );
    let coverage = tracer.step_coverage();
    report.metric("trace.step_coverage", coverage, "ratio");
    report.check(coverage >= MIN_STEP_COVERAGE, || {
        format!("step spans cover {coverage:.3} of the timed phases (want {MIN_STEP_COVERAGE})")
    });
}

/// Telemetry-registry counter behind each protocol per-layer metric.
const PROTOCOL_COUNTERS: [(&str, &str); 12] = [
    ("kernel.gsd.takeovers", "gsd.takeovers"),
    ("kernel.gsd.suspicions_raised", "gsd.suspicion.raised"),
    ("kernel.gsd.suspicions_aborted", "gsd.suspicion.aborted"),
    ("kernel.gsd.probes_sent", "gsd.probes.sent"),
    ("kernel.regroup.rounds", "gsd.regroup.rounds"),
    ("kernel.regroup.freezes", "gsd.regroup.freezes"),
    ("kernel.slow_detect.suspected", "gsd.slow.suspected"),
    ("kernel.rpc.retries", "rpc.retries"),
    ("kernel.rpc.dedup_hits", "rpc.dedup.hits"),
    ("kernel.ppm.execs", "ppm.execs.handled"),
    ("pws.scheduler.dispatched", "pws.jobs.dispatched"),
    ("gridview.refreshes", "gridview.refreshes.requested"),
];

/// Sum of this thread's telemetry counters into `totals`.
pub fn harvest_counters(totals: &mut BTreeMap<&'static str, u64>) {
    phoenix_telemetry::with(|reg| {
        for (name, v) in reg.counters() {
            *totals.entry(name).or_default() += v;
        }
    });
}

fn protocol_metrics(report: &mut Report, counters: &BTreeMap<&'static str, u64>) {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    for (metric, counter) in PROTOCOL_COUNTERS {
        report.metric(metric, get(counter), "count");
    }
    let raised = get("gsd.suspicion.raised");
    let share = if raised > 0.0 {
        get("gsd.suspicion.aborted") / raised
    } else {
        0.0
    };
    report.metric("kernel.gsd.suspicion_abort_share", share, "ratio");
}

/// `gsd.takeover` mark→measure durations (virtual ns, ascending), read
/// from the flight recorder's span records, not histogram bucket bounds.
pub fn takeover_durations_ns() -> Vec<u64> {
    let mut v: Vec<u64> = phoenix_telemetry::with(|reg| {
        reg.recorder()
            .iter()
            .filter(|r| r.path == "gsd.takeover" && !r.aborted)
            .map(|r| r.duration_ns())
            .collect()
    });
    v.sort_unstable();
    v
}

pub fn takeover_metrics(report: &mut Report, sorted_ns: &[u64]) {
    let ms = |p| stats::percentile(sorted_ns, p) as f64 / 1e6;
    report.exact("takeover_virtual_ms_p50", ms(50.0), "ms");
    report.exact("takeover_virtual_ms_p90", ms(90.0), "ms");
    report.extra("takeover_samples", sorted_ns.len() as f64, "count");
}

/// A live GSD as seen from outside.
pub struct GsdView {
    pub pid: Pid,
    pub node: NodeId,
    pub partition: PartitionId,
    pub role: &'static str,
}

pub fn live_gsds(world: &World<KernelMsg>) -> Vec<GsdView> {
    let mut out = Vec::new();
    for n in 0..world.node_count() {
        let node = NodeId(n as u32);
        for pid in world.pids_on(node) {
            if let Some(g) = world.actor_as::<Gsd>(pid) {
                out.push(GsdView {
                    pid,
                    node,
                    partition: g.partition_id(),
                    role: g.role_name(),
                });
            }
        }
    }
    out
}

/// Exactly one meta-group leader and one live GSD per partition.
pub fn check_meta_group(
    report: &mut Report,
    world: &World<KernelMsg>,
    topo: &ClusterTopology,
    when: &str,
) {
    let gsds = live_gsds(world);
    let leaders = gsds.iter().filter(|g| g.role == "leader").count();
    report.check(leaders == 1, || {
        format!("{when}: {leaders} meta-group leaders (want 1)")
    });
    for p in &topo.partitions {
        let n = gsds.iter().filter(|g| g.partition == p.id).count();
        report.check(n == 1, || {
            format!("{when}: partition {} has {n} live GSDs (want 1)", p.id.0)
        });
    }
}

/// Where tracing output goes: `benchmark/results/`, next to the sources
/// when run from the repo root, else the current directory.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("benchmark/results");
    let dir = if dir.parent().is_some_and(|p| p.is_dir()) {
        dir.to_path_buf()
    } else {
        std::path::PathBuf::from("results")
    };
    dir.join(format!("trace-{workload}.json"))
}

/// Everything a world-owning traced run reads off its traced twin's
/// timed phases: simulator counts, per-node rates, step attribution.
pub fn traced_world_metrics(
    report: &mut Report,
    tracer: &StepTracer,
    (before, after): &(Counters, Counters),
    nodes: usize,
) {
    sim_counts(report, before, after);
    per_node_rates(report, before, after, nodes);
    step_metrics(report, tracer);
}

/// Close a traced run: protocol counters, the layer probes on `stream`,
/// `trace-<workload>.json`, and every unset per-layer metric as 0.
pub fn finish_traced(
    report: &mut Report,
    opts: &Opts,
    tracer: &StepTracer,
    call_spans: &[(String, u64, u64)],
    counters: &BTreeMap<&'static str, u64>,
    stream: &[(u64, u64)],
) {
    protocol_metrics(report, counters);
    probes::run(report, opts.seed, opts.smoke, stream);
    let text = tracer::render_trace_json(report.workload, opts.seed, tracer, call_spans, counters);
    let path = trace_path(report.workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    report.check(written.is_ok(), || {
        format!("cannot write {}: {:?}", path.display(), written)
    });
    report.finish_per_layer();
}
