//! `steady_640` and `steady_2560`: the paper's Sec 5.3 shape. A fault-free
//! cluster under the fully hardened profile with GridView pulling the
//! bulletin federation once a virtual second, cut into slices of equal
//! virtual time; then, untimed, a two-fault cascade (leader GSD killed,
//! princess server node crashed) must converge.

use crate::common::{self, Counters};
use crate::report::{self, Rep, Report, Slice};
use crate::spec::Workload;
use crate::stats::Fnv;
use crate::tracer::{Driver, StepTracer};
use crate::Opts;
use phoenix_gridview::{GridView, GridViewHandle};
use phoenix_kernel::boot::{boot_cluster_custom, PhoenixCluster};
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{Fault, NetParams, SchedulerKind, SimDuration, SimTime, World};
use std::collections::BTreeMap;
use std::time::Instant;

struct Shape {
    partitions: usize,
    nodes_per_partition: usize,
    slice: SimDuration,
    /// Slices of one replay, traced or not: the fixed work.
    slices: usize,
    /// Run the closing cascade in every run, traced or not. At 2,560 nodes
    /// one leader kill sets off 15 M regroup messages and 14 host seconds
    /// (README, "Sizing observations"): there it runs once, in the traced
    /// run's untraced twin, for `phase.cascade.wall_ms`.
    cascade_everywhere: bool,
}

fn shape(workload: Workload, smoke: bool) -> Shape {
    if smoke {
        return Shape {
            partitions: 3,
            nodes_per_partition: 4,
            slice: SimDuration::from_secs(2),
            slices: 2,
            cascade_everywhere: true,
        };
    }
    // Slices of 7-15 host ms: short enough that, of a handful of replays,
    // one often runs a given slice undisturbed (README, "Noise calibration").
    match workload {
        Workload::Steady640 => Shape {
            partitions: 40,
            nodes_per_partition: 16,
            slice: SimDuration::from_secs(1),
            slices: 300,
            cascade_everywhere: true,
        },
        _ => Shape {
            partitions: 160,
            nodes_per_partition: 16,
            slice: SimDuration::from_millis(200),
            slices: 150,
            cascade_everywhere: false,
        },
    }
}

const STABILISE: SimDuration = SimDuration::from_secs(2);
const REFRESH: SimDuration = SimDuration::from_secs(1);
/// Trace silence that ends the closing cascade, and how long to wait for it.
const QUIET_WINDOW: SimDuration = SimDuration::from_secs(8);
const QUIET_DEADLINE: SimDuration = SimDuration::from_secs(120);

struct Booted {
    world: World<KernelMsg>,
    cluster: PhoenixCluster,
    gv: GridViewHandle,
}

/// Boot the cluster and attach GridView. GridView lives on a compute node
/// of the last partition and pulls that partition's bulletin, so crashing
/// the leader's server node (partition 0 after a clean boot) leaves the
/// console and its access point alive.
fn boot(shape: &Shape, seed: u64, record_events: bool) -> Booted {
    // One registry per world: counters and takeover spans read at the end
    // belong to this world alone.
    phoenix_telemetry::reset();
    let topo = ClusterTopology::uniform(shape.partitions, shape.nodes_per_partition, 1);
    let (mut world, cluster) = boot_cluster_custom(
        topo,
        KernelParams::fast_slow(),
        seed,
        NetParams::default(),
        SchedulerKind::default(),
        record_events,
    );
    let home = cluster.topology.partitions.last().expect("no partitions");
    let member = cluster
        .directory
        .partition(home.id)
        .expect("home partition");
    let gv = GridView::spawn_with_config(
        &mut world,
        home.compute[0],
        member.bulletin,
        member.event,
        cluster.config(),
        home.id,
        REFRESH,
    );
    Booted { world, cluster, gv }
}

fn setup(shape: &Shape, seed: u64) -> Booted {
    let mut b = boot(shape, seed, false);
    b.world.run_for(STABILISE);
    b
}

/// Count refreshes in `history[from..]` and those that are incomplete or
/// miss a node.
fn check_refreshes(gv: &GridViewHandle, from: usize, want_nodes: usize) -> (u64, u64) {
    let history = gv.history();
    let new = &history[from.min(history.len())..];
    let bad = new
        .iter()
        .filter(|s| !s.complete || s.nodes_reporting < want_nodes)
        .count();
    (new.len() as u64, bad as u64)
}

/// The closing cascade, two faults one after the other, each followed by
/// `drive` advancing the world until the trace is quiet: kill the
/// meta-group leader's GSD process (the princess takes over, the GSD is
/// restarted in place), then crash the server node of the princess's
/// partition (its four services migrate to the backup node).
///
/// Not the leader's *node*: after a clean boot that node also hosts the
/// configuration service, which runs GSD rescue, and at the parent commit
/// crashing it never converges under any profile (README, "Known defects").
fn cascade(
    report: &mut Report,
    b: &mut Booted,
    mut drive: impl FnMut(&mut World<KernelMsg>, SimTime) -> bool,
) {
    for (stage, role) in ["leader", "princess"].into_iter().enumerate() {
        let Some(target) = common::live_gsds(&b.world)
            .into_iter()
            .find(|g| g.role == role)
        else {
            report.check(false, || {
                format!("no meta-group {role} before cascade stage {stage}")
            });
            return;
        };
        let fault = if stage == 0 {
            Fault::KillProcess(target.pid)
        } else {
            Fault::CrashNode(target.node)
        };
        b.world.apply_fault(fault);
        let deadline = b.world.now() + QUIET_DEADLINE;
        let quiet = drive(&mut b.world, deadline);
        report.check(quiet, || {
            format!("cascade stage {stage} ({fault:?}) never went quiet")
        });
    }
}

/// At the end: one leader, a live GSD per partition, and GridView
/// complete (again) with every node that is still up reporting.
fn check_after_cascade(report: &mut Report, b: &mut Booted, crashed_one: bool) {
    common::check_meta_group(report, &b.world, &b.cluster.topology, "at the end");
    let from = b.gv.history().len();
    b.world.run_for(REFRESH * 3);
    let nodes = b.cluster.topology.node_count() - crashed_one as usize;
    let (seen, bad) = check_refreshes(&b.gv, from, nodes);
    report.check(seen > 0 && bad == 0, || {
        format!("GridView at the end: {seen} refreshes, {bad} incomplete")
    });
}

/// One replay: set up, then the fixed slices. The first replay of a run
/// also reports the exact outputs and, untimed, runs the closing cascade.
fn replay(report: &mut Report, shape: &Shape, seed: u64, first: bool) -> Rep {
    let t = Instant::now();
    let mut b = setup(shape, seed);
    let setup_s = t.elapsed().as_secs_f64();
    let nodes = b.cluster.topology.node_count();

    let start = Counters::of(&b.world);
    let history_from = b.gv.history().len();
    let mut slices = Vec::with_capacity(shape.slices);
    let mut before = start.clone();
    for _ in 0..shape.slices {
        let refreshes = b.gv.refreshes();
        let t = Instant::now();
        b.world.run_for(shape.slice);
        let host_ns = t.elapsed().as_nanos() as u64;
        let after = Counters::of(&b.world);
        slices.push(Slice {
            host_ns,
            events: after.events - before.events,
            virtual_ns: after.virtual_ns - before.virtual_ns,
            ops: b.gv.refreshes() - refreshes,
        });
        before = after;
    }
    let mut fnv = Fnv::default();
    common::digest_world(&mut fnv, &b.world);
    let (attempted, failed) = check_refreshes(&b.gv, history_from, nodes);

    if first {
        common::per_node_rates(report, &start, &before, nodes);
        report.extra("queue_depth", b.world.queue_len() as f64, "count");
        if shape.cascade_everywhere {
            cascade(report, &mut b, |w, deadline| {
                Driver::Plain.until_quiet(w, QUIET_WINDOW, deadline)
            });
        }
        check_after_cascade(report, &mut b, shape.cascade_everywhere);
        common::takeover_metrics(report, &common::takeover_durations_ns());
    }
    Rep {
        setup_s,
        slices,
        attempted,
        failed,
        digest: fnv.hex(),
    }
}

pub fn run_e2e(opts: &Opts) -> Report {
    let shape = shape(opts.workload, opts.smoke);
    let mut report = Report::new(opts.workload, false);
    report::measure(&mut report, opts.seconds, |report, first| {
        replay(report, &shape, opts.seed, first)
    });
    let (attempted, failed) = (report.attempted, report.failed);
    report.check(failed == 0, || {
        format!("{failed} of {attempted} refreshes incomplete")
    });
    report
}

/// What one twin of the traced run measured.
struct Twin {
    boot_ns: u64,
    slices_ns: u64,
    cascade_ns: u64,
    counters: (Counters, Counters),
    digest: String,
    /// Telemetry counters and `gsd.takeover` durations, boot to cascade.
    telemetry: BTreeMap<&'static str, u64>,
    takeovers_ns: Vec<u64>,
}

/// The traced run's fixed work under one driver: boot, stabilise,
/// the slices, cascade.
fn twin(report: &mut Report, shape: &Shape, seed: u64, mut driver: Driver<'_>) -> (Twin, Booted) {
    let t_boot = Instant::now();
    driver.phase("boot", false);
    let mut b = boot(shape, seed, driver.is_traced());
    driver.phase("stabilise", false);
    driver.advance(&mut b.world, SimTime::ZERO + STABILISE);
    let boot_ns = t_boot.elapsed().as_nanos() as u64;
    b.world.take_event_log();

    let before = Counters::of(&b.world);
    let history_from = b.gv.history().len();
    let t_slices = Instant::now();
    let mut peak_queue = 0;
    for i in 0..shape.slices {
        driver.phase(&format!("slice.{i}"), true);
        let boundary = SimTime::ZERO + STABILISE + shape.slice * (i as u64 + 1);
        driver.advance(&mut b.world, boundary);
        peak_queue = peak_queue.max(b.world.queue_len());
        b.world.take_event_log();
    }
    driver.end_phase();
    let slices_ns = t_slices.elapsed().as_nanos() as u64;
    let after = Counters::of(&b.world);
    let mut fnv = Fnv::default();
    common::digest_world(&mut fnv, &b.world);

    let nodes = b.cluster.topology.node_count();
    let (attempted, failed) = check_refreshes(&b.gv, history_from, nodes);
    if driver.is_traced() {
        report.attempted = attempted;
        report.failed = failed;
        report.check(failed == 0, || {
            format!("{failed} of {attempted} refreshes incomplete")
        });
        report.failed_ops_share();
        report.metric("sim.sched.peak_queue_depth", peak_queue as f64, "count");
        report.metric(
            "sim.sched.arena_capacity",
            b.world.scheduler_stats().capacity as f64,
            "count",
        );
    }

    let t_cascade = Instant::now();
    if shape.cascade_everywhere || !driver.is_traced() {
        driver.phase("cascade", false);
        cascade(report, &mut b, |w, deadline| {
            driver.until_quiet(w, QUIET_WINDOW, deadline)
        });
        driver.end_phase();
    }
    let cascade_ns = t_cascade.elapsed().as_nanos() as u64;
    b.world.take_event_log();
    let mut telemetry = BTreeMap::new();
    common::harvest_counters(&mut telemetry);
    (
        Twin {
            boot_ns,
            slices_ns,
            cascade_ns,
            counters: (before, after),
            digest: fnv.hex(),
            telemetry,
            takeovers_ns: common::takeover_durations_ns(),
        },
        b,
    )
}

pub fn run_traced(opts: &Opts) -> Report {
    let shape = shape(opts.workload, opts.smoke);
    let mut report = Report::new(opts.workload, true);

    let (plain, plain_world) = twin(&mut report, &shape, opts.seed, Driver::Plain);
    drop(plain_world);
    let mut tracer = StepTracer::default();
    let (traced, mut b) = twin(&mut report, &shape, opts.seed, Driver::Traced(&mut tracer));
    report.check(plain.digest == traced.digest, || {
        format!(
            "tracing changed the run: digest {} vs {}",
            plain.digest, traced.digest
        )
    });
    check_after_cascade(&mut report, &mut b, shape.cascade_everywhere);

    let nodes = b.cluster.topology.node_count();
    drop(b);
    common::traced_world_metrics(&mut report, &tracer, &traced.counters, nodes);
    common::takeover_metrics(&mut report, &plain.takeovers_ns);
    report.metric("phase.boot.wall_ms", plain.boot_ns as f64 / 1e6, "ms");
    report.metric("phase.cascade.wall_ms", plain.cascade_ns as f64 / 1e6, "ms");
    report.metric(
        "trace.overhead_ratio",
        traced.slices_ns as f64 / plain.slices_ns as f64,
        "ratio",
    );
    report.digest = traced.digest;
    // Protocol counters come from the untraced twin: the same work, and
    // the one twin that always runs the cascade.
    common::finish_traced(
        &mut report,
        opts,
        &tracer,
        &[],
        &plain.telemetry,
        &tracer.first_slice_stream,
    );
    report
}
