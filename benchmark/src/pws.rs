//! `pws_stream_136` and `pws_backlog_136`: the paper's Sec 5.4 user
//! environment on the 8 × 17 testbed, one Backfill pool over the 120
//! compute nodes.
//!
//! The stream is an open loop on the virtual clock: each job is submitted
//! at its due instant whatever the queue holds, and waits are timed from
//! that instant. The backlog queues every job within seconds and drains.
//! Both are cut into slices of equal virtual time. The backlog's slices
//! differ in work as the queue decays, which is why a host rate is never
//! read off one slice: it compares the same slice across replays.

use crate::common::{self, Counters};
use crate::report::{self, Rep, Report, Slice};
use crate::spec::Workload;
use crate::stats::{self, Fnv};
use crate::tracer::{Driver, StepTracer};
use crate::Opts;
use phoenix_kernel::boot::{boot_cluster_custom, PhoenixCluster};
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::KernelParams;
use phoenix_proto::{AuthToken, ClusterTopology, KernelMsg, RequestId};
use phoenix_pws::workload::{generate, Arrival, WorkloadParams};
use phoenix_pws::{install_pws, login, PolicyKind, PoolConfig};
use phoenix_sim::{NetParams, NodeId, Pid, SchedulerKind, SimDuration, SimTime, TraceEvent, World};
use std::collections::BTreeMap;
use std::time::Instant;

struct Shape {
    partitions: usize,
    nodes_per_partition: usize,
    /// Arrivals generated: the stream's input cap, the backlog's size.
    jobs: usize,
    mean_interarrival_s: f64,
    /// Virtual time per slice.
    slice: SimDuration,
    /// Stream: slices per replay. Backlog: `None`, slices until every job
    /// has completed.
    slices: Option<usize>,
    /// Jobs of the traced run.
    traced_jobs: usize,
}

fn shape(workload: Workload, smoke: bool) -> Shape {
    let stream = workload == Workload::PwsStream136;
    if smoke {
        return Shape {
            partitions: 3,
            nodes_per_partition: 5,
            jobs: 24,
            mean_interarrival_s: if stream { 2.0 } else { 0.1 },
            slice: SimDuration::from_secs(12),
            slices: stream.then_some(2),
            traced_jobs: 12,
        };
    }
    if stream {
        Shape {
            partitions: 8,
            nodes_per_partition: 17,
            jobs: 3_000,
            mean_interarrival_s: 0.4,
            slice: SimDuration::from_secs(5),
            slices: Some(200),
            traced_jobs: 2_000,
        }
    } else {
        Shape {
            partitions: 8,
            nodes_per_partition: 17,
            jobs: 1_000,
            mean_interarrival_s: 0.02,
            slice: SimDuration::from_secs(2),
            slices: None,
            traced_jobs: 1_000,
        }
    }
}

const STABILISE: SimDuration = SimDuration::from_secs(2);
/// Drain in steps of this much virtual time, giving up after the limit.
const DRAIN_STEP: SimDuration = SimDuration::from_secs(1);
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(3_600);

struct Booted {
    world: World<KernelMsg>,
    cluster: PhoenixCluster,
    sched: Pid,
    client: ClientHandle,
    token: AuthToken,
    arrivals: Vec<Arrival>,
    /// Virtual instant arrival offsets count from.
    t_start: SimTime,
}

/// Boot, stabilise, install the pool, log in, generate the arrivals.
fn setup(shape: &Shape, seed: u64, record_events: bool) -> Booted {
    // One registry per world: counters read at the end are this world's.
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
    world.run_for(STABILISE);
    let compute: Vec<NodeId> = cluster
        .topology
        .partitions
        .iter()
        .flat_map(|p| p.compute.iter().copied())
        .collect();
    let pws = install_pws(
        &mut world,
        &cluster,
        vec![PoolConfig::new(
            "batch",
            compute.clone(),
            PolicyKind::Backfill,
        )],
    );
    world.run_for(SimDuration::from_millis(200));
    let sched = pws.scheduler("batch").expect("pool installed");
    let client = ClientHandle::spawn(&mut world, compute[0]);
    let token = login(&mut world, &cluster, &client, "alice", "alice-secret");
    let arrivals = generate(
        &WorkloadParams {
            mean_interarrival_s: shape.mean_interarrival_s,
            min_nodes: 1,
            max_nodes: 8,
            min_runtime_s: 2.0,
            max_runtime_s: 30.0,
            ..WorkloadParams::default()
        },
        shape.jobs,
        seed.wrapping_add(1),
    );
    let t_start = world.now();
    world.take_event_log();
    Booted {
        world,
        cluster,
        sched,
        client,
        token,
        arrivals,
        t_start,
    }
}

impl Booted {
    fn due(&self, i: usize) -> SimTime {
        SimTime(self.t_start.as_nanos() + self.arrivals[i].at_ns)
    }

    fn submit(&mut self, i: usize) {
        let spec = self.arrivals[i].spec.clone();
        self.client.send(
            &mut self.world,
            self.sched,
            KernelMsg::PwsSubmit {
                req: RequestId(10_000 + spec.id.0),
                token: self.token.clone(),
                spec,
            },
        );
    }
}

/// Job milestones read off the trace log, incrementally.
#[derive(Default)]
struct JobLog {
    cursor: usize,
    /// Virtual instant of each job's first dispatch, by job id.
    dispatched: BTreeMap<u64, u64>,
    completed: u64,
    failed: u64,
    last_completed_ns: u64,
}

impl JobLog {
    fn scan(&mut self, world: &World<KernelMsg>) {
        let records = world.trace().records();
        for r in &records[self.cursor..] {
            if let TraceEvent::Milestone { label, value } = r.event {
                match label {
                    "job-dispatched" => {
                        self.dispatched
                            .entry(value as u64)
                            .or_insert(r.at.as_nanos());
                    }
                    "job-completed" => {
                        self.completed += 1;
                        self.last_completed_ns = r.at.as_nanos();
                    }
                    "job-failed" => self.failed += 1,
                    _ => {}
                }
            }
        }
        self.cursor = records.len();
    }

    /// Waits (virtual ns, ascending) of every job dispatched so far:
    /// arrival instant → first `job-dispatched`.
    fn waits_ns(&self, b: &Booted) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .dispatched
            .iter()
            .map(|(&id, &at)| {
                // Job ids are 1-based positions in the arrival list.
                at.saturating_sub(b.due(id as usize - 1).as_nanos())
            })
            .collect();
        v.sort_unstable();
        v
    }
}

fn wait_metrics(report: &mut Report, waits_ns: &[u64]) {
    let secs = |p| stats::percentile(waits_ns, p) as f64 / 1e9;
    report.exact("job_wait_virtual_s_p50", secs(50.0), "s");
    report.exact("job_wait_virtual_s_p99", secs(99.0), "s");
    report.extra("job_wait_samples", waits_ns.len() as f64, "count");
}

fn makespan_metric(report: &mut Report, log: &JobLog, b: &Booted) {
    let ns = log.last_completed_ns.saturating_sub(b.due(0).as_nanos());
    report.exact("makespan_virtual_s", ns as f64 / 1e9, "s");
}

/// Check that every submitted job completed and none failed; returns
/// (attempted, failed).
fn check_jobs(report: &mut Report, log: &JobLog, submitted: u64) -> (u64, u64) {
    report.check(log.completed == submitted && log.failed == 0, || {
        format!(
            "{submitted} jobs submitted, {} completed, {} failed",
            log.completed, log.failed
        )
    });
    let failed = submitted - log.completed.min(submitted) + log.failed;
    (submitted, failed)
}

/// Advance until every submitted job has completed (or the limit passes).
fn drain(b: &mut Booted, log: &mut JobLog, submitted: u64, driver: &mut Driver<'_>) {
    let limit = b.world.now() + DRAIN_LIMIT;
    loop {
        log.scan(&b.world);
        if log.completed + log.failed >= submitted || b.world.now() >= limit {
            return;
        }
        let target = b.world.now() + DRAIN_STEP;
        driver.advance(&mut b.world, target);
    }
}

/// One replay: set up, then slices of equal virtual time, each job
/// submitted at its due instant. The stream runs its fixed count of slices
/// and then, untimed, drains what it submitted; the backlog runs slices
/// until every job has completed.
fn replay(report: &mut Report, shape: &Shape, seed: u64, first: bool) -> Rep {
    let t = Instant::now();
    let mut b = setup(shape, seed, false);
    let setup_s = t.elapsed().as_secs_f64();
    let nodes = b.cluster.topology.node_count();

    let start = Counters::of(&b.world);
    let mut log = JobLog::default();
    log.scan(&b.world);
    let most = shape
        .slices
        .unwrap_or((DRAIN_LIMIT.as_nanos() / shape.slice.as_nanos()) as usize);
    let mut slices = Vec::new();
    let mut before = start.clone();
    let mut next = 0;
    while slices.len() < most {
        let end =
            SimTime(b.t_start.as_nanos() + shape.slice.as_nanos() * (slices.len() as u64 + 1));
        let completed = log.completed;
        let t = Instant::now();
        while next < b.arrivals.len() && b.due(next) <= end {
            let due = b.due(next);
            b.world.run_until(due);
            b.submit(next);
            next += 1;
        }
        b.world.run_until(end);
        let host_ns = t.elapsed().as_nanos() as u64;
        let after = Counters::of(&b.world);
        log.scan(&b.world);
        b.client.drain();
        slices.push(Slice {
            host_ns,
            events: after.events - before.events,
            virtual_ns: after.virtual_ns - before.virtual_ns,
            ops: log.completed - completed,
        });
        before = after;
        let drained = next == b.arrivals.len() && log.completed + log.failed >= next as u64;
        if shape.slices.is_none() && drained {
            break;
        }
    }
    let mut fnv = Fnv::default();
    common::digest_world(&mut fnv, &b.world);
    if first {
        common::per_node_rates(report, &start, &before, nodes);
        wait_metrics(report, &log.waits_ns(&b));
        report.extra("jobs_submitted", next as f64, "count");
        report.extra("queue_depth", b.world.queue_len() as f64, "count");
        if shape.slices.is_none() {
            makespan_metric(report, &log, &b);
        }
    }
    let submitted = next as u64;
    drain(&mut b, &mut log, submitted, &mut Driver::Plain);
    let (attempted, failed) = check_jobs(report, &log, submitted);
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
    report
}

struct Twin {
    boot_ns: u64,
    timed_ns: u64,
    counters: (Counters, Counters),
    digest: String,
    log: JobLog,
    peak_queue: usize,
}

/// The traced run's fixed work under one driver: set up, submit the first
/// `traced_jobs` arrivals at their due instants, drain.
fn twin(shape: &Shape, seed: u64, mut driver: Driver<'_>) -> (Twin, Booted) {
    let t_boot = Instant::now();
    driver.phase("boot", false);
    let mut b = setup(shape, seed, driver.is_traced());
    let boot_ns = t_boot.elapsed().as_nanos() as u64;

    let before = Counters::of(&b.world);
    let mut log = JobLog::default();
    log.scan(&b.world);
    let jobs = shape.traced_jobs.min(b.arrivals.len());
    let mut peak_queue = 0;
    let t = Instant::now();
    let mut slice_no = 0;
    driver.phase("slice.0", true);
    for i in 0..jobs {
        let due = b.due(i);
        // A new phase every slice of virtual time.
        let n = (b.arrivals[i].at_ns / shape.slice.as_nanos()) as usize;
        if n > slice_no {
            slice_no = n;
            peak_queue = peak_queue.max(b.world.queue_len());
            b.world.take_event_log();
            driver.phase(&format!("slice.{n}"), true);
        }
        driver.advance(&mut b.world, due);
        b.submit(i);
    }
    peak_queue = peak_queue.max(b.world.queue_len());
    b.world.take_event_log();
    driver.phase("drain", true);
    drain(&mut b, &mut log, jobs as u64, &mut driver);
    driver.end_phase();
    let timed_ns = t.elapsed().as_nanos() as u64;
    b.world.take_event_log();
    b.client.drain();
    let after = Counters::of(&b.world);
    let mut fnv = Fnv::default();
    common::digest_world(&mut fnv, &b.world);
    (
        Twin {
            boot_ns,
            timed_ns,
            counters: (before, after),
            digest: fnv.hex(),
            log,
            peak_queue,
        },
        b,
    )
}

pub fn run_traced(opts: &Opts) -> Report {
    let shape = shape(opts.workload, opts.smoke);
    let mut report = Report::new(opts.workload, true);

    let (plain, plain_world) = twin(&shape, opts.seed, Driver::Plain);
    drop(plain_world);
    let mut tracer = StepTracer::default();
    let (traced, b) = twin(&shape, opts.seed, Driver::Traced(&mut tracer));
    report.check(plain.digest == traced.digest, || {
        format!(
            "tracing changed the run: digest {} vs {}",
            plain.digest, traced.digest
        )
    });

    let jobs = shape.traced_jobs.min(b.arrivals.len()) as u64;
    (report.attempted, report.failed) = check_jobs(&mut report, &traced.log, jobs);
    report.failed_ops_share();
    let nodes = b.cluster.topology.node_count();
    common::traced_world_metrics(&mut report, &tracer, &traced.counters, nodes);
    report.metric(
        "sim.sched.peak_queue_depth",
        traced.peak_queue as f64,
        "count",
    );
    report.metric(
        "sim.sched.arena_capacity",
        b.world.scheduler_stats().capacity as f64,
        "count",
    );
    wait_metrics(&mut report, &traced.log.waits_ns(&b));
    makespan_metric(&mut report, &traced.log, &b);
    report.metric("phase.boot.wall_ms", plain.boot_ns as f64 / 1e6, "ms");
    report.metric(
        "trace.overhead_ratio",
        traced.timed_ns as f64 / plain.timed_ns as f64,
        "ratio",
    );
    drop(b);

    // The registry still holds the traced twin's run, boot to drain.
    let mut counters = BTreeMap::new();
    common::harvest_counters(&mut counters);
    report.digest = traced.digest;
    common::finish_traced(
        &mut report,
        opts,
        &tracer,
        &[],
        &counters,
        &tracer.first_slice_stream,
    );
    report
}
