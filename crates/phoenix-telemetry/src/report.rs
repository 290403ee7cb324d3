//! Bench report writer: registry → `results/BENCH_kernel.json`.
//!
//! The report is the machine-readable face of the paper's tables: every
//! instrumented kernel path shows up with count + p50/p90/p99/max in
//! nanoseconds, alongside counters, gauges, and arbitrary
//! experiment-specific sections (e.g. a fault-tolerance table) attached
//! by the bench binary.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::registry::MetricsRegistry;

/// Default output path, relative to the workspace root.
pub(crate) const DEFAULT_PATH: &str = "results/BENCH_kernel.json";

/// Flight-recorder records a written report keeps (the newest ones), so the
/// committed `results/` files stay small enough to diff.
const WRITTEN_RECENT_CAP: usize = 256;

pub struct BenchReport {
    name: String,
    sections: Vec<(String, Json)>,
}

impl BenchReport {
    /// `name` identifies the experiment (e.g. `"table1_wd"`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport { name: name.into(), sections: Vec::new() }
    }

    /// Attach an experiment-specific section (rendered after the standard
    /// telemetry sections, in attachment order).
    pub fn section(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.sections.push((key.into(), value));
        self
    }

    /// Build the JSON document from a registry snapshot, flight recorder
    /// in full.
    pub fn to_json(&self, reg: &MetricsRegistry) -> Json {
        self.document(reg, usize::MAX)
    }

    /// The document with at most the `recent_cap` flight-recorder records
    /// that ended last, in end order; `retained` and `evicted` report the
    /// true counts either way.
    fn document(&self, reg: &MetricsRegistry, recent_cap: usize) -> Json {
        let mut hists = Json::obj();
        for (path, stats) in reg.histograms() {
            let s = stats.hist.summary();
            hists = hists.set(
                path,
                Json::obj()
                    .set("service", Json::str(stats.service))
                    .set("count", Json::UInt(s.count))
                    .set("min_ns", Json::UInt(s.min_ns))
                    .set("p50_ns", Json::UInt(s.p50_ns))
                    .set("p90_ns", Json::UInt(s.p90_ns))
                    .set("p99_ns", Json::UInt(s.p99_ns))
                    .set("max_ns", Json::UInt(s.max_ns))
                    .set("mean_ns", Json::Num(if s.count == 0 {
                        0.0
                    } else {
                        s.sum_ns as f64 / s.count as f64
                    })),
            );
        }

        let mut counters = Json::obj();
        for (name, v) in reg.counters() {
            counters = counters.set(name, Json::UInt(v));
        }
        let mut gauges = Json::obj();
        for (name, v) in reg.gauges() {
            gauges = gauges.set(name, Json::Num(v));
        }

        let mut flight = Vec::new();
        for rec in reg.recorder().newest(recent_cap) {
            flight.push(
                Json::obj()
                    .set("node", Json::UInt(rec.node as u64))
                    .set("path", Json::str(rec.path))
                    .set("service", Json::str(rec.service))
                    .set("start_ns", Json::UInt(rec.start_ns))
                    .set("end_ns", Json::UInt(rec.end_ns))
                    .set("aborted", Json::Bool(rec.aborted)),
            );
        }

        let mut doc = Json::obj()
            .set("bench", Json::str(self.name.clone()))
            .set("schema", Json::str("phoenix-telemetry/v1"))
            .set("histograms", hists)
            .set("counters", counters)
            .set("gauges", gauges)
            .set(
                "flight_recorder",
                Json::obj()
                    .set("retained", Json::UInt(reg.recorder().len() as u64))
                    .set("evicted", Json::UInt(reg.recorder().evicted()))
                    .set("recent", Json::Arr(flight)),
            );
        for (k, v) in &self.sections {
            doc = doc.set(k.clone(), v.clone());
        }
        doc
    }

    /// Write the report to `path`, creating parent directories; only the
    /// newest `WRITTEN_RECENT_CAP` flight-recorder records go to disk. Returns the path
    /// written.
    pub fn write_to(&self, reg: &MetricsRegistry, path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, self.document(reg, WRITTEN_RECENT_CAP).render())?;
        Ok(path.to_path_buf())
    }

    /// Write to [`DEFAULT_PATH`] under the [`workspace_root`].
    pub fn write_default(&self, reg: &MetricsRegistry) -> io::Result<PathBuf> {
        self.write_to(reg, workspace_root().join(DEFAULT_PATH))
    }
}

/// The workspace root: walks up from the current directory looking for the
/// directory that contains `Cargo.toml` with a `[workspace]` table, falling
/// back to the current directory (so `cargo run` from any crate dir and
/// direct binary invocation both land reports in the same place).
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;

    #[test]
    fn report_contains_histograms_counters_and_sections() {
        let mut reg = MetricsRegistry::new();
        clock::set_now(0);
        reg.counter_add("hb.sent", 7);
        reg.gauge_set("nodes.up", 5.0);
        reg.observe("wd.heartbeat.flight", "wd", 120_000);
        reg.observe("wd.heartbeat.flight", "wd", 130_000);
        reg.observe("gsd.scan", "gsd", 2_000_000);

        let mut rep = BenchReport::new("unit");
        rep.section("extra", Json::obj().set("rows", Json::UInt(3)));
        let text = rep.to_json(&reg).render();
        assert!(text.contains("\"bench\": \"unit\""));
        assert!(text.contains("\"wd.heartbeat.flight\""));
        assert!(text.contains("\"service\": \"wd\""));
        assert!(text.contains("\"count\": 2"));
        assert!(text.contains("\"hb.sent\": 7"));
        assert!(text.contains("\"nodes.up\": 5.0"));
        assert!(text.contains("\"extra\""));
    }

    #[test]
    fn write_to_creates_parent_dirs() {
        let reg = MetricsRegistry::new();
        let dir = std::env::temp_dir().join("phoenix-telemetry-test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        let written = BenchReport::new("t").write_to(&reg, &path).unwrap();
        let text = fs::read_to_string(&written).unwrap();
        assert!(text.contains("\"schema\": \"phoenix-telemetry/v1\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn written_report_keeps_the_newest_records_and_the_true_counts() {
        let mut reg = MetricsRegistry::new();
        let total = WRITTEN_RECENT_CAP as u64 + 44;
        for i in 0..total {
            clock::set_now(i);
            let span = reg.span_start("p", "svc", 0, crate::SpanId::NONE);
            reg.span_end(span);
        }
        let rep = BenchReport::new("t");
        let full = rep.to_json(&reg).render();
        assert_eq!(full.matches("\"start_ns\"").count() as u64, total);
        let written = rep.document(&reg, WRITTEN_RECENT_CAP).render();
        assert_eq!(written.matches("\"start_ns\"").count(), WRITTEN_RECENT_CAP);
        assert!(written.contains(&format!("\"retained\": {total}")));
        assert!(!written.contains("\"start_ns\": 43,"), "oldest dropped");
        assert!(written.contains(&format!("\"start_ns\": {}", total - 1)));
    }

    #[test]
    fn a_capped_report_keeps_the_records_that_ended_last_across_nodes() {
        let mut reg = MetricsRegistry::new();
        for (node, end) in [(1, 300), (1, 400), (2, 100), (2, 200)] {
            reg.flight("p", "svc", node, end - 10, end);
        }
        let text = BenchReport::new("t").document(&reg, 2).render();
        assert_eq!(text.matches("\"node\": 1,").count(), 2, "node 1 ended last: {text}");
        assert!(text.contains("\"end_ns\": 300") && text.contains("\"end_ns\": 400"));
        assert!(!text.contains("\"node\": 2,"), "node 2's records ended first");
    }
}
