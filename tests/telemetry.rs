//! Workspace-level telemetry integration tests: the observability
//! subsystem measured against the live kernel rather than synthetic
//! inputs — shard-merge associativity of the histograms, bit-identical
//! span streams across identically seeded runs, no recorder writes from a
//! fault-free cluster in steady state, and flight-recorder eviction
//! behaviour at capacity.

use phoenix::kernel::boot::boot_and_stabilize;
use phoenix::kernel::KernelParams;
use phoenix::proto::ClusterTopology;
use phoenix::sim::{Fault, SimDuration, SimRng};
use phoenix::telemetry::{
    BenchReport, FlightRecorder, Histogram, MetricsRegistry, SpanRecord, SpanId,
};
use phoenix_bench::sweep::run_sweep;

/// Merging per-shard histograms must equal the histogram of the whole
/// stream: the property that makes per-node registries aggregatable.
#[test]
fn histogram_merge_of_shards_equals_whole() {
    let mut rng = SimRng::seed_from_u64(0x7E1E_0001);
    let samples: Vec<u64> = (0..4096).map(|_| rng.gen_range(1u64..100_000_000)).collect();

    let mut whole = Histogram::new();
    for &s in &samples {
        whole.record(s);
    }

    let mut shards = vec![Histogram::new(); 4];
    for (i, &s) in samples.iter().enumerate() {
        shards[i % 4].record(s);
    }
    let mut merged = Histogram::new();
    for sh in &shards {
        merged.merge(sh);
    }

    let (w, m) = (whole.summary(), merged.summary());
    assert_eq!(w.count, m.count);
    assert_eq!(w.sum_ns, m.sum_ns);
    assert_eq!(w.min_ns, m.min_ns);
    assert_eq!(w.max_ns, m.max_ns);
    assert_eq!(w.p50_ns, m.p50_ns);
    assert_eq!(w.p90_ns, m.p90_ns);
    assert_eq!(w.p99_ns, m.p99_ns);
}

/// One boot + fault + recovery scenario, returning the completed span
/// stream (path, node, start, end) the kernel instrumentation produced.
fn span_stream(seed: u64) -> Vec<(&'static str, u32, u64, u64)> {
    phoenix::telemetry::reset();
    let (mut w, cluster) = boot_and_stabilize(
        ClusterTopology::uniform(2, 4, 1),
        KernelParams::fast(),
        seed,
    );
    w.run_for(SimDuration::from_secs(2));
    let node = cluster.topology.partitions[0].compute[0];
    let wd = cluster.directory.node(node).unwrap().wd;
    w.apply_fault(Fault::KillProcess(wd));
    w.run_for(SimDuration::from_secs(5));
    let spans = phoenix::telemetry::with(|r| {
        r.recorder()
            .iter()
            .map(|rec| (rec.path, rec.node, rec.start_ns, rec.end_ns))
            .collect::<Vec<_>>()
    });
    phoenix::telemetry::reset();
    spans
}

/// The simulator is deterministic and spans are keyed to virtual time, so
/// two identically seeded runs must produce bit-identical span streams —
/// and a different seed must not (the stream carries real information).
#[test]
fn span_stream_is_deterministic_across_runs() {
    let a = span_stream(71);
    let b = span_stream(71);
    assert!(!a.is_empty(), "scenario produced spans");
    assert!(
        a.iter().any(|(p, ..)| *p == "gsd.detect_to_diagnose"),
        "the WD kill's detection episode present: {:?}",
        &a[..a.len().min(5)]
    );
    assert_eq!(a, b, "identical seeds → identical span streams");
    let c = span_stream(72);
    assert_ne!(a, c, "different seed → different span stream");
}

/// A fault-free cluster writes nothing to the flight recorder in steady
/// state: every accepted WD beat is one `wd.heartbeat.flight` histogram
/// sample and no record, so the recorder keeps its rings for episodes.
#[test]
fn a_fault_free_cluster_records_no_steady_state() {
    for params in [KernelParams::fast(), KernelParams::fast_slow()] {
        let shard = phoenix::telemetry::shard_begin();
        phoenix::telemetry::clock::set_now(0);
        let (mut w, _) = boot_and_stabilize(ClusterTopology::uniform(3, 5, 1), params, 7);
        w.run_for(SimDuration::from_secs(10));
        let settled = phoenix::telemetry::with(|r| r.recorder().len());
        w.run_for(SimDuration::from_secs(60));
        let reg = shard.take();
        assert_eq!(reg.recorder().len(), settled, "60 quiet seconds left records behind");
        let beats = reg.counter("gsd.wd_heartbeats.received");
        assert!(beats > 0, "the WDs beat");
        assert_eq!(reg.histogram("wd.heartbeat.flight").unwrap().count(), beats);
    }
}

/// Run one boot + WD-kill scenario against the live kernel, leaving its
/// telemetry in the current thread-local registry.
fn run_scenario(seed: u64) {
    let (mut w, cluster) = boot_and_stabilize(
        ClusterTopology::uniform(2, 4, 1),
        KernelParams::fast(),
        seed,
    );
    w.run_for(SimDuration::from_secs(2));
    let node = cluster.topology.partitions[0].compute[0];
    let wd = cluster.directory.node(node).unwrap().wd;
    w.apply_fault(Fault::KillProcess(wd));
    w.run_for(SimDuration::from_secs(5));
}

/// Shard-merge == whole for counters and histograms on real
/// kernel telemetry: two seeded runs recorded into one registry must equal
/// the same two runs recorded into per-run shards merged in run order.
#[test]
fn registry_merge_of_shards_equals_whole_on_kernel_runs() {
    let seeds = [71u64, 72];

    let whole_shard = phoenix::telemetry::shard_begin();
    for &seed in &seeds {
        phoenix::telemetry::clock::set_now(0);
        run_scenario(seed);
    }
    let whole = whole_shard.take();

    let mut merged = MetricsRegistry::new();
    for &seed in &seeds {
        let shard = phoenix::telemetry::shard_begin();
        phoenix::telemetry::clock::set_now(0);
        run_scenario(seed);
        merged.merge(&shard.take());
    }

    let counters: Vec<_> = whole.counters().collect();
    assert!(!counters.is_empty(), "scenario recorded counters");
    for (name, v) in counters {
        assert_eq!(merged.counter(name), v, "counter {name} must add across shards");
    }
    let mut hist_paths = 0;
    for (path, stats) in whole.histograms() {
        hist_paths += 1;
        let (w, m) = (stats.hist.summary(), merged.histogram(path).unwrap().summary());
        assert_eq!((w.count, w.sum_ns, w.min_ns, w.max_ns), (m.count, m.sum_ns, m.min_ns, m.max_ns),
            "histogram {path} must merge exactly");
    }
    assert!(hist_paths > 0, "scenario recorded histograms");
}

/// Flight-recorder shard merge interleaves rings by `start_ns`: merging
/// two shards whose spans alternate in time must dump exactly like one
/// registry fed the same spans in time order — down to the rendered
/// report bytes.
#[test]
fn recorder_merge_interleaves_shards_like_the_whole() {
    let span = |r: &mut MetricsRegistry, node: u32, t: u64| {
        phoenix::telemetry::clock::set_now(t);
        let id = r.span_start("interleave.test", "test", node, SpanId::NONE);
        phoenix::telemetry::clock::set_now(t + 10);
        r.span_end(id);
    };

    // Whole: all spans in time order.
    let mut whole = MetricsRegistry::new();
    for t in 0..8u64 {
        span(&mut whole, (t % 2) as u32, t * 100);
    }
    // Shards: even-numbered instants in shard A, odd in shard B.
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    for t in 0..8u64 {
        let shard = if t % 2 == 0 { &mut a } else { &mut b };
        span(shard, (t % 2) as u32, t * 100);
    }
    let mut merged = MetricsRegistry::new();
    merged.merge(&a);
    merged.merge(&b);

    let rep = BenchReport::new("interleave");
    assert_eq!(
        rep.to_json(&whole).render(),
        rep.to_json(&merged).render(),
        "merged flight-recorder dump must be byte-identical to the whole"
    );
}

/// The tentpole determinism gate in miniature: a small multi-seed sweep
/// over live kernel runs produces a byte-identical report whether it ran
/// serially or on forced worker threads.
#[test]
fn parallel_sweep_report_is_byte_identical_to_serial() {
    let seeds = [71u64, 72, 73];
    let job = |&seed: &u64| {
        run_scenario(seed);
        phoenix::telemetry::with(|r| r.counter("gsd.takeovers"))
    };

    std::env::set_var("PHOENIX_SWEEP_THREADS", "1");
    let serial = run_sweep(&seeds, job);
    std::env::set_var("PHOENIX_SWEEP_THREADS", "3");
    let parallel = run_sweep(&seeds, job);
    std::env::remove_var("PHOENIX_SWEEP_THREADS");

    assert_eq!((serial.threads, parallel.threads), (1, 3));
    assert_eq!(serial.results, parallel.results);
    let rep = BenchReport::new("sweep-gate");
    assert_eq!(
        rep.to_json(&serial.merged).render(),
        rep.to_json(&parallel.merged).render(),
        "parallel sweep report must be byte-identical to serial"
    );
}

/// The ring keeps the newest `capacity` records per node and counts what
/// it dropped.
#[test]
fn flight_recorder_evicts_oldest_at_capacity() {
    let mut ring = FlightRecorder::with_capacity(8);
    for i in 0..20u64 {
        ring.push(SpanRecord {
            id: SpanId(i),
            parent: SpanId::NONE,
            path: "test.path",
            service: "test",
            node: (i % 2) as u32,
            start_ns: i * 100,
            end_ns: i * 100 + 50,
            aborted: false,
        });
    }
    // 20 spans over 2 nodes: each node saw 10, keeps 8, evicted 2.
    assert_eq!(ring.len(), 16);
    assert_eq!(ring.evicted(), 4);
    let kept: Vec<u64> = ring.iter().map(|r| r.id.0).collect();
    assert!(
        !kept.contains(&0) && !kept.contains(&1),
        "oldest spans evicted: {kept:?}"
    );
    assert!(
        kept.contains(&18) && kept.contains(&19),
        "newest spans kept: {kept:?}"
    );
}
