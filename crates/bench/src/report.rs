//! Telemetry glue for the `paper` bin: a service-exercise pass that drives
//! every instrumented kernel path on one small cluster, the cross-check of
//! the Table 1–3 rows against the kernel's own histograms, and the
//! registry → `results/BENCH_kernel.json` dump.
//!
//! The fault-injection tables alone populate the heartbeat/probe/diagnosis
//! histograms; the exercise pass adds job fan-out (PWS → PPM tree) and a
//! federated bulletin query, so the report carries samples from every
//! instrumented service.

use phoenix_kernel::boot::boot_cluster;
use phoenix_kernel::client::ClientHandle;
use phoenix_proto::{BulletinQuery, JobSpec, KernelMsg, RequestId, TaskSpec};
use phoenix_pws::{install_pws, login, submit, PolicyKind, PoolConfig};
use phoenix_sim::{Fault, SimDuration};
use phoenix_telemetry::{BenchReport, Json};

use crate::compute_nodes;
use crate::ft::{small_testbed, Component, FaultKind, FtRow};

/// Drive every instrumented kernel path at least once — a PWS job workload
/// (PPM tree fan-out + heartbeats + federated job events), two fault
/// pipelines (probe RTT, detect→diagnose, GSD takeover), and a federated
/// bulletin query — all against ONE booted world. Earlier versions booted
/// four separate worlds for the same coverage; sharing the cluster cuts the
/// exercise pass to a quarter of the boots and keeps every path exercised
/// under realistic steady-state load (heartbeats from the job phase are
/// still flowing when the faults land).
pub(crate) fn exercise_services(seed: u64) {
    let wall = std::time::Instant::now();
    let (topo, params) = small_testbed();
    let hb = params.ft.hb_interval;
    let (mut w, cluster) = boot_cluster(topo, params, seed);
    w.run_for(SimDuration::from_millis(100));

    // 1. Jobs through PWS → PPM: ppm.fanout.flight, wd/meta heartbeats,
    //    job lifecycle events federated through the event service.
    let compute = compute_nodes(&cluster);
    let h = install_pws(
        &mut w,
        &cluster,
        vec![PoolConfig::new("batch", compute.clone(), PolicyKind::Backfill)],
    );
    w.run_for(SimDuration::from_millis(100));
    let scheduler = h.scheduler("batch").expect("batch scheduler");
    let client = ClientHandle::spawn(&mut w, compute[0]);
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    for i in 0..3u64 {
        let spec = JobSpec {
            task: TaskSpec {
                duration_ns: Some(2_000_000_000),
                ..TaskSpec::default()
            },
            ..JobSpec::simple(i + 1, "alice", "batch", 2)
        };
        submit(&mut w, &client, scheduler, token.clone(), spec);
    }
    w.run_for(SimDuration::from_secs(4)); // jobs run to completion

    // 2. Fault pipelines on the same (still-busy) cluster: a WD process
    //    kill (gsd.probe.rtt + gsd.detect_to_diagnose), then a GSD kill
    //    (ring detection + gsd.takeover).
    let victim_wd = cluster
        .directory
        .node(cluster.topology.partitions[0].compute[1])
        .expect("directory entry")
        .wd;
    w.apply_fault(Fault::KillProcess(victim_wd));
    w.run_for(hb * 2 + SimDuration::from_secs(2));
    let victim_gsd = cluster.directory.partitions[1].gsd;
    w.apply_fault(Fault::KillProcess(victim_gsd));
    w.run_for(hb * 2 + SimDuration::from_secs(6));

    // 3. Federated bulletin query: bulletin.query.fed.
    client.send(
        &mut w,
        cluster.directory.partitions[0].bulletin,
        KernelMsg::DbQuery {
            req: RequestId(1),
            query: BulletinQuery::Resources,
        },
    );
    w.run_for(SimDuration::from_millis(400));

    // The "1 world" marker and wall time are asserted by scripts/verify.sh
    // (the pre-refactor pass booted 4 worlds for the same path coverage).
    println!(
        "exercise pass: 1 world ({} nodes), {:.2}s virtual, {} ms wall",
        cluster.topology.node_count(),
        w.now().as_secs_f64(),
        wall.elapsed().as_millis()
    );
}

/// Cross-check the trace-extracted phase times of a fault-tolerance table
/// against the kernel's own telemetry histograms, panicking on divergence.
///
/// The trace milestones (`FaultDetected` → `FaultDiagnosed` → `Recovered`)
/// and the `gsd.detect_to_diagnose` / `gsd.takeover` histograms are
/// recorded by *independent* code paths in the GSD; agreement between them
/// is evidence the exported numbers mean what the tables claim. Histogram
/// percentiles are bucket-ceiling estimates on a log scale, so the check
/// allows one power-of-two of slack plus a small absolute epsilon.
///
/// Call this on a registry that holds the table's own faults and nothing
/// else: `paper` resets it before each artifact. Table 3 is left out: the
/// event service's own GSD sees it die without probing, so its process row
/// has no `gsd.detect_to_diagnose` sample to agree with.
pub(crate) fn cross_check_histograms(rows: &[FtRow], component: Component) {
    if component == Component::Es {
        return;
    }
    fn within_log_bucket(sample_ns: u64, lo_ns: u64, hi_ns: u64) -> bool {
        const EPS_NS: u64 = 2_000_000; // 2 ms absolute slack for tiny phases
        sample_ns.saturating_mul(2) + EPS_NS >= lo_ns
            && sample_ns <= hi_ns.saturating_mul(2) + EPS_NS
    }

    let (d2d, takeover) = phoenix_telemetry::with(|reg| {
        (
            reg.histogram("gsd.detect_to_diagnose").map(|h| h.summary()),
            reg.histogram("gsd.takeover").map(|h| h.summary()),
        )
    });

    // Process and node faults flow through the probe pipeline that feeds
    // gsd.detect_to_diagnose; network faults are diagnosed inline.
    let probed: Vec<&FtRow> = rows
        .iter()
        .filter(|r| matches!(r.kind, FaultKind::Process | FaultKind::Node))
        .collect();
    if !probed.is_empty() {
        let d2d = d2d.expect("trace shows probed diagnoses but gsd.detect_to_diagnose is empty");
        assert!(
            d2d.count >= probed.len() as u64,
            "gsd.detect_to_diagnose has {} samples for {} probed rows",
            d2d.count,
            probed.len()
        );
        for r in &probed {
            let ns = (r.diagnose_s * 1e9) as u64;
            assert!(
                within_log_bucket(ns, d2d.min_ns, d2d.max_ns),
                "trace diagnose time {ns}ns for {:?}/{:?} diverges from the \
                 gsd.detect_to_diagnose histogram [{}, {}]ns",
                r.component,
                r.kind,
                d2d.min_ns,
                d2d.max_ns
            );
        }
    }

    match component {
        Component::Gsd => {
            // Table 2's process and node rows each kill a GSD: the ring
            // must have recorded a takeover whose duration matches the
            // trace's diagnose→recover interval.
            let t = takeover.expect("a GSD died but gsd.takeover is empty");
            assert!(
                t.count >= probed.len() as u64,
                "gsd.takeover has {} samples for {} GSD deaths",
                t.count,
                probed.len()
            );
            for r in &probed {
                let ns = (r.recover_s * 1e9) as u64;
                assert!(
                    within_log_bucket(ns, t.min_ns, t.max_ns),
                    "trace takeover time {ns}ns for {:?}/{:?} diverges from \
                     the gsd.takeover histogram [{}, {}]ns",
                    r.component,
                    r.kind,
                    t.min_ns,
                    t.max_ns
                );
            }
        }
        Component::Wd | Component::Es => {
            // No GSD died in Table 1; a takeover sample here means the
            // ring produced a false positive.
            let n = takeover.map(|t| t.count).unwrap_or(0);
            assert_eq!(n, 0, "Table 1 killed no GSD; gsd.takeover has {n} samples");
        }
    }
    println!(
        "telemetry cross-check: {} trace rows agree with gsd.detect_to_diagnose/gsd.takeover",
        rows.len()
    );
}

/// Render fault-tolerance table rows as a JSON section.
pub(crate) fn table_json(rows: &[FtRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj()
                    .set("component", Json::str(format!("{:?}", r.component)))
                    .set("fault", Json::str(format!("{:?}", r.kind)))
                    .set("detect_s", Json::Num(r.detect_s))
                    .set("diagnose_s", Json::Num(r.diagnose_s))
                    .set("recover_s", Json::Num(r.recover_s))
                    .set("sum_s", Json::Num(r.sum_s))
            })
            .collect(),
    )
}

/// Dump this thread's registry (plus experiment-specific `sections`) to
/// `results/BENCH_kernel.json` and print a per-path latency summary.
pub(crate) fn write_report(name: &str, sections: Vec<(&str, Json)>) {
    let mut rep = BenchReport::new(name);
    for (k, v) in sections {
        rep.section(k, v);
    }
    let path = phoenix_telemetry::with(|reg| {
        let mut paths: Vec<_> = reg
            .histograms()
            .map(|(p, st)| (p, st.service, st.hist.summary()))
            .collect();
        paths.sort_by_key(|(p, ..)| *p);
        println!("\nTelemetry: {} instrumented paths", paths.len());
        for (p, service, s) in paths {
            println!(
                "  {p:<28} [{service:<8}] count={:<6} p50={}ns p90={}ns p99={}ns max={}ns",
                s.count, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns
            );
        }
        rep.write_default(reg)
    })
    .expect("write BENCH_kernel.json");
    println!("report written: {}", path.display());
}
