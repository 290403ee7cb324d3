//! Telemetry glue for the `paper` bin: the cross-check of the Table 1–3
//! rows against the kernel's own histograms, and the merged artifact
//! registries → `results/BENCH_kernel.json` dump.

use phoenix_telemetry::{BenchReport, Json, MetricsRegistry};

use crate::ft::{Component, FaultKind, FtRow};

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
/// else: `paper` runs each artifact on a registry shard of its own. Table 3 is left out: the
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

/// Dump `reg` (plus experiment-specific `sections`) to
/// `results/BENCH_kernel.json` and print a per-path latency summary.
pub(crate) fn write_report(name: &str, sections: Vec<(&str, Json)>, reg: &MetricsRegistry) {
    let mut rep = BenchReport::new(name);
    for (k, v) in sections {
        rep.section(k, v);
    }
    println!("\nTelemetry: {} instrumented paths", reg.histograms().count());
    for (p, st) in reg.histograms() {
        let (service, s) = (st.service, st.hist.summary());
        println!(
            "  {p:<28} [{service:<8}] count={:<6} p50={}ns p90={}ns p99={}ns max={}ns",
            s.count, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns
        );
    }
    let path = rep.write_default(reg).expect("write BENCH_kernel.json");
    println!("report written: {}", path.display());
}
