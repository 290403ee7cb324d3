//! The paper's evaluation as two tables, and the one command that checks
//! the reproduction against both.
//!
//! * `ARTIFACTS`: every simulated table and figure of Sec 5, by the name
//!   of the `results/<name>.txt` it writes, with the function that writes
//!   its text. Table 4 is not here: it times real threads, so its numbers
//!   belong to the host (`table4_linpack`).
//! * `ROWS`: every number the paper prints that an artifact measures,
//!   with how far the measurement may stray from it.
//!
//! `paper` (the bin) runs every artifact in virtual time, writes each file
//! with the artifact's rows rendered at its foot, prints every row against
//! its measurement, writes `results/BENCH_kernel.json` from the telemetry
//! every artifact recorded, and exits 1 when a row is outside its tolerance
//! or was never measured.

use std::fs;
use std::time::Instant;

use phoenix_kernel::boot::{boot_and_stabilize, boot_cluster};
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::{KernelParams, Rung};
use phoenix_proto::{
    BulletinQuery, ClusterTopology, ConsumerReg, EventFilter, EventType, JobSpec, KernelMsg,
    NodeOp, RequestId, TaskSpec,
};
use phoenix_pws::workload::{generate, WorkloadParams};
use phoenix_pws::{install_pws, login, queue_status, submit, ui, PolicyKind, PoolConfig};
use phoenix_sim::{Fault, NodeId, Pid, RecoveryAction, SimDuration, SimTime, TraceEvent, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::{Json, MetricsRegistry};

use crate::compute_nodes;
use crate::ft::{paper_testbed, run_one, run_table, Component, FaultKind};
use crate::report::{cross_check_histograms, table_json, write_report};
use crate::scale::monitor_run;

/// What one artifact leaves: the text of its file, the measurements its
/// paper rows are judged by, and its sections of `BENCH_kernel.json`.
#[derive(Default)]
struct Out {
    text: String,
    measured: Vec<(String, f64)>,
    sections: Vec<(&'static str, Json)>,
}

impl Out {
    fn measure(&mut self, row: impl Into<String>, value: impl Into<f64>) {
        self.measured.push((row.into(), value.into()));
    }
}

/// `say!(out; format, args..)`: one line of an artifact's text, as
/// `println!` would print it. (The `;` keeps rustfmt from splitting a call
/// over four lines.)
macro_rules! say {
    ($o:expr) => {
        $o.text.push('\n')
    };
    ($o:expr; $($fmt:tt)*) => {{
        $o.text.push_str(&format!($($fmt)*));
        $o.text.push('\n');
    }};
}

/// An artifact: the name of its `results/` file, and the function that
/// writes its text.
type Artifact = (&'static str, fn(&mut Out));

/// Every simulated artifact, in the order `paper` runs them.
const ARTIFACTS: &[Artifact] = &[
    ("table1_wd", |o| table(o, Component::Wd)),
    ("table2_gsd", |o| table(o, Component::Gsd)),
    ("table3_es", |o| table(o, Component::Es)),
    ("sec51_interval_sweep", sec51),
    ("fig3_metagroup", fig3),
    ("fig4_es_group", fig4),
    ("fig5_federation", fig5),
    ("fig6_monitoring", fig6),
    ("fig78_pws_vs_pbs", fig78),
    ("fig9_pws_ui", fig9),
    ("throughput_churn", churn),
];

/// One number the paper prints: `Row(artifact, row, paper, tol)` — the
/// artifact that measures it, the row name it is measured under, the
/// paper's value, and the tolerance: relative, or absolute where the
/// paper's value is 0.
struct Row(&'static str, &'static str, f64, f64);

/// Tables 1–3: every phase within 2 % of the paper's…
const PHASE: f64 = 0.02;
/// …and a phase the paper gives as 0 within 1 ms of it.
const FREE: f64 = 0.001;
/// Sec 5.1: "the sum … is almost equal to the interval".
const ALMOST: f64 = 0.15;
/// A count or a yes (1) / no (0) the paper states: exactly.
const EXACT: f64 = 0.0;

/// Every paper row, in artifact order. Tables 1–3 are in seconds; Table
/// 1's process sum is its components' 30.29 s (the paper prints 30.39 s).
#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row("table1_wd", "Process detect (s)", 30.0, PHASE),
    Row("table1_wd", "Process diagnose (s)", 0.29, PHASE),
    Row("table1_wd", "Process recover (s)", 0.0, FREE),
    Row("table1_wd", "Process sum (s)", 30.29, PHASE),
    Row("table1_wd", "Node detect (s)", 30.0, PHASE),
    Row("table1_wd", "Node diagnose (s)", 2.0, PHASE),
    Row("table1_wd", "Node recover (s)", 0.0, FREE),
    Row("table1_wd", "Node sum (s)", 32.0, PHASE),
    Row("table1_wd", "Network detect (s)", 30.0, PHASE),
    Row("table1_wd", "Network diagnose (s)", 348e-6, PHASE),
    Row("table1_wd", "Network recover (s)", 0.0, FREE),
    Row("table1_wd", "Network sum (s)", 30.0, PHASE),
    Row("table2_gsd", "Process detect (s)", 30.0, PHASE),
    Row("table2_gsd", "Process diagnose (s)", 0.29, PHASE),
    Row("table2_gsd", "Process recover (s)", 2.03, PHASE),
    Row("table2_gsd", "Process sum (s)", 32.32, PHASE),
    Row("table2_gsd", "Node detect (s)", 30.0, PHASE),
    Row("table2_gsd", "Node diagnose (s)", 0.3, PHASE),
    Row("table2_gsd", "Node recover (s)", 2.95, PHASE),
    Row("table2_gsd", "Node sum (s)", 33.25, PHASE),
    Row("table2_gsd", "Network detect (s)", 30.0, PHASE),
    Row("table2_gsd", "Network diagnose (s)", 348e-6, PHASE),
    Row("table2_gsd", "Network recover (s)", 0.0, FREE),
    Row("table2_gsd", "Network sum (s)", 30.0, PHASE),
    Row("table3_es", "Process detect (s)", 30.0, PHASE),
    Row("table3_es", "Process diagnose (s)", 12e-6, PHASE),
    Row("table3_es", "Process recover (s)", 0.12, PHASE),
    Row("table3_es", "Process sum (s)", 30.12, PHASE),
    Row("table3_es", "Node detect (s)", 30.0, PHASE),
    Row("table3_es", "Node diagnose (s)", 0.3, PHASE),
    Row("table3_es", "Node recover (s)", 2.95, PHASE),
    Row("table3_es", "Node sum (s)", 33.25, PHASE),
    Row("table3_es", "Network detect (s)", 30.0, PHASE),
    Row("table3_es", "Network diagnose (s)", 12e-6, PHASE),
    Row("table3_es", "Network recover (s)", 0.0, FREE),
    Row("table3_es", "Network sum (s)", 30.0, PHASE),
    Row("sec51_interval_sweep", "sum/interval at 5 s", 1.0, ALMOST),
    Row("sec51_interval_sweep", "sum/interval at 10 s", 1.0, ALMOST),
    Row("sec51_interval_sweep", "sum/interval at 20 s", 1.0, ALMOST),
    Row("sec51_interval_sweep", "sum/interval at 30 s", 1.0, ALMOST),
    Row("sec51_interval_sweep", "sum/interval at 60 s", 1.0, ALMOST),
    Row("fig3_metagroup", "Princess takes over from the Leader", 1.0, EXACT),
    Row("fig3_metagroup", "next member takes over from the Princess", 1.0, EXACT),
    Row("fig3_metagroup", "ring members after the rejoin", 5.0, EXACT),
    Row("fig4_es_group", "consumer notified after restart", 1.0, EXACT),
    Row("fig4_es_group", "consumer notified after migration", 1.0, EXACT),
    Row("fig5_federation", "partitions lost with one instance down", 1.0, EXACT),
    Row("fig5_federation", "complete after the GSD restart", 1.0, EXACT),
    Row("fig6_monitoring", "nodes reporting", 640.0, EXACT),
    Row("fig78_pws_vs_pbs", "PWS survives a scheduler kill", 1.0, EXACT),
    Row("fig78_pws_vs_pbs", "PBS survives a scheduler kill", 0.0, EXACT),
];

/// Regenerate every artifact, judge every row, write the telemetry report;
/// exit 1 when a row is outside its tolerance or was never measured.
pub fn main() {
    let wall = Instant::now();
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results/");
    let (mut sections, mut failing) = (Vec::new(), 0);
    let mut merged = MetricsRegistry::new();
    for &(name, run) in ARTIFACTS {
        // Each artifact records on a fresh registry of its own; the report
        // merges them in table order.
        let shard = phoenix_telemetry::shard_begin();
        let mut o = Out::default();
        run(&mut o);
        merged.merge(&shard.take());
        let measured = |row: &str| o.measured.iter().find(|m| m.0 == row).map(|m| m.1);
        let judged: Vec<(String, bool)> = ROWS
            .iter()
            .filter(|r| r.0 == name)
            .map(|r| judge(r, measured(r.1)))
            .collect();
        if !judged.is_empty() {
            say!(o; "\nPaper reference:");
            say!(o; "  {HEADER}");
            for (line, _) in &judged {
                say!(o; "  {line}");
            }
        }
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, &o.text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        for (line, fails) in judged {
            println!("  {line}");
            failing += fails as usize;
        }
        sections.extend(o.sections);
    }
    write_report("paper", sections, &merged);
    let (n, rows, ms) = (ARTIFACTS.len(), ROWS.len(), wall.elapsed().as_millis());
    println!("paper: {n} artifacts, {rows} paper rows, {failing} outside tolerance, {ms} ms wall");
    if failing > 0 {
        std::process::exit(1);
    }
}

/// The columns of a judged row.
const HEADER: &str =
    "row                                          measured      paper     error    tol";

/// A paper row against its measurement: the line to print, and whether it
/// fails the run.
fn judge(&Row(_, row, paper, tol): &Row, measured: Option<f64>) -> (String, bool) {
    let Some(m) = measured else {
        return (format!("{row:<42} never measured  FAIL"), true);
    };
    let (fails, error, within) = if paper == 0.0 {
        (m.abs() > tol, num(m), format!("±{}", num(tol)))
    } else {
        let err = (m - paper) / paper;
        let (error, within) = (
            format!("{:+.2}%", err * 100.0),
            format!("±{}%", num(tol * 100.0)),
        );
        (err.abs() > tol, error, within)
    };
    let (m, paper, verdict) = (num(m), num(paper), if fails { "OUTSIDE" } else { "ok" });
    let line = format!("{row:<42} {m:>10} {paper:>10} {error:>9} {within:>6}  {verdict}");
    (line, fails)
}

/// Four significant digits, trailing zeros dropped.
fn num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    let s = format!("{v:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').into()
    } else {
        s
    }
}

/// Tables 1–3 on the paper's testbed: one component's three unhealthy
/// situations, each phase a row the paper prints.
fn table(o: &mut Out, component: Component) {
    let (title, section) = match component {
        Component::Wd => ("Table 1: Three Unhealthy Situations for WD", "table1"),
        Component::Gsd => ("Table 2: Three Unhealthy Situations for GSD", "table2"),
        Component::Es => ("Table 3: Three Unhealthy Situations for ES", "table3"),
    };
    let (topo, params) = paper_testbed();
    let (nodes, parts) = (topo.node_count(), topo.partitions.len());
    let hb = params.ft.hb_interval;
    say!(o; "Testbed: {nodes} nodes, {parts} partitions, heartbeat interval {hb}");
    let rows = run_table(topo, params, component);
    say!(o; "\n{title}");
    say!(o; "Fault     Detecting   Diagnosing   Recovery        Sum");
    for r in &rows {
        say!(o; "{}", r.render());
        let phases = ["detect", "diagnose", "recover", "sum"];
        let secs = [r.detect_s, r.diagnose_s, r.recover_s, r.sum_s];
        for (phase, secs) in phases.into_iter().zip(secs) {
            o.measure(format!("{:?} {phase} (s)", r.kind), secs);
        }
    }
    // The registry holds this table's faults alone: the trace-mined rows
    // must agree with the kernel's own histograms.
    cross_check_histograms(&rows, component);
    o.sections.push((section, table_json(&rows)));
}

/// Sec 5.1: "the sum of detecting time, diagnosing time and recovery time
/// is almost equal to the interval of sending heartbeat, while the interval
/// … can be configured as system parameter" — the WD process fault at five
/// intervals.
fn sec51(o: &mut Out) {
    say!(o; "Sec 5.1: failure-handling sum vs configured heartbeat interval");
    say!(o; "(WD process fault, 3 partitions x 5 nodes)\n");
    say!(o; "  interval     detect     diagnose    recover        sum  sum/int");
    for secs in [5u64, 10, 20, 30, 60] {
        let mut params = KernelParams::default();
        params.ft.hb_interval = SimDuration::from_secs(secs);
        let topo = ClusterTopology::uniform(3, 5, 1);
        let row = run_one(topo, params, Component::Wd, FaultKind::Process, 400 + secs);
        let (detect, diagnose) = (row.detect_s, row.diagnose_s);
        let (recover, sum, ratio) = (row.recover_s, row.sum_s, row.sum_s / secs as f64);
        let phases = format!("{detect:>9.2}s {diagnose:>11.3}s {recover:>9.2}s {sum:>9.2}s");
        say!(o; "{secs:>9}s {phases} {ratio:>7.2}x");
        o.measure(format!("sum/interval at {secs} s"), ratio);
    }
    say!(o; "\nThe sum tracks the interval (ratio → 1.0 as the interval grows):");
    say!(o; "fault-handling latency is a configuration choice, not a system constant —");
    say!(o; "exactly the paper's conclusion for Tables 1–3.");
}

/// Figure 3: a five-member meta-group ring driven through the paper's
/// takeover chain. "In case of failure of Leader, other members of
/// meta-group select Princess to take over it. If Princess fails, the next
/// member to Princess will take over it."
fn fig3(o: &mut Out) {
    let topo = ClusterTopology::uniform(5, 4, 1);
    let (mut w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 33);
    w.run_for(SimDuration::from_secs(2));
    say!(o; "Meta-group with five members (partitions 0..5); ring order = partition order.");
    let initial = roles(o, &w, "initial ring");

    say!(o; "\n>> killing the Leader (partition 0's GSD)...");
    w.kill_process(cluster.gsd(0));
    w.run_for(SimDuration::from_secs(3));
    let first = roles(o, &w, "after Leader failure: Princess took over");

    say!(o; "\n>> killing the new Leader (the old Princess)...");
    w.kill_process(cluster.gsd(1));
    w.run_for(SimDuration::from_secs(3));
    let second = roles(o, &w, "after Princess failure: next member took over");

    say!(o; "\n>> letting the restarted GSDs rejoin...");
    w.run_for(SimDuration::from_secs(8));
    let healed = roles(o, &w, "ring healed (restarted members rejoined)");

    let takeovers = w
        .trace()
        .count(|e| matches!(e, TraceEvent::RoleChange { role: "leader", .. }));
    say!(o; "\nleader role transitions observed: {takeovers}");
    let holder =
        |roles: &[(Pid, &str)], role: &str| roles.iter().find(|r| r.1 == role).map(|r| r.0);
    let took_over = |before: &[(Pid, &str)], after: &[(Pid, &str)]| {
        (holder(after, "leader") == holder(before, "princess")) as u8
    };
    let (princess, next) = (took_over(&initial, &first), took_over(&first, &second));
    o.measure("Princess takes over from the Leader", princess);
    o.measure("next member takes over from the Princess", next);
    o.measure("ring members after the rejoin", healed.len() as f64);
    let fig3 = Json::obj().set("leader_transitions", Json::UInt(takeovers as u64));
    o.sections.push(("fig3", fig3));
}

/// Print the live GSDs' latest roles under `title`, and return them.
fn roles(o: &mut Out, w: &World<KernelMsg>, title: &str) -> Vec<(Pid, &'static str)> {
    say!(o; "\n== {title} ==");
    let mut roles: Vec<(Pid, &'static str)> = Vec::new();
    for r in w.trace().records() {
        if let TraceEvent::RoleChange { pid, role } = r.event {
            roles.retain(|(p, _)| *p != pid);
            roles.push((pid, role));
        }
    }
    roles.sort();
    roles.retain(|(pid, _)| w.is_alive(*pid));
    for (pid, role) in &roles {
        say!(o; "  {pid}: {role}");
    }
    roles
}

/// Figure 4, the supervision story of Sec 4.4: "If one member of event
/// service group fails, GSD on the same host will … restart the failed
/// service. Recovered event service daemon will retrieve its state data
/// from the checkpoint service. If the node on which event service daemon
/// running fails, GSD member next to it in the ring structure will select a
/// new node for migrating GSD and then recovering event service." Phase 3
/// reads a split-brain episode back as a span waterfall.
fn fig4(o: &mut Out) {
    let topo = ClusterTopology::uniform(3, 4, 1);
    let (mut w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 34);

    // A consumer registered at partition 1's ES; its registration is the
    // state that must survive both failure modes.
    let es1 = cluster.directory.partitions[1].event;
    let consumer = ClientHandle::spawn(&mut w, NodeId(2));
    let reg = ConsumerReg {
        consumer: consumer.pid,
        filter: EventFilter::types(&[EventType::NodeFault, EventType::NodeRecovery]),
    };
    let req = RequestId(0);
    consumer.send(&mut w, es1, KernelMsg::EsRegisterConsumer { req, reg });
    w.run_for(SimDuration::from_secs(2));

    say!(o; "== phase 1: ES process failure → restart in place + checkpoint restore ==");
    w.kill_process(es1);
    w.run_for(SimDuration::from_secs(3));
    let restarted = recoveries(&w, RecoveryAction::RestartedInPlace);
    say!(o; "   in-place service recoveries so far: {restarted}");

    // Prove the restored registration still works.
    let _ = consumer.drain();
    w.apply_fault(Fault::CrashNode(NodeId(7))); // some compute node
    w.run_for(SimDuration::from_secs(3));
    let after_restart = notified(&consumer);
    say!(o; "   consumer notified after restart: {after_restart}");

    say!(o; "\n== phase 2: server-node failure → GSD migrates, ES recovered on backup ==");
    let server1 = cluster.topology.partitions[1].server;
    let backup1 = cluster.topology.partitions[1].backups[0];
    w.apply_fault(Fault::CrashNode(server1));
    w.run_for(SimDuration::from_secs(8));
    let migrated = recoveries(&w, RecoveryAction::Migrated(backup1));
    say!(o; "   services migrated to backup {backup1}: {migrated}");

    let _ = consumer.drain();
    w.apply_fault(Fault::CrashNode(NodeId(11)));
    w.run_for(SimDuration::from_secs(3));
    let after_migration = notified(&consumer);
    say!(o; "   consumer notified after migration: {after_migration}");
    o.measure("consumer notified after restart", after_restart as u8);
    o.measure("consumer notified after migration", after_migration as u8);

    say!(o; "\n== phase 3: island split → minority freeze → regroup → heal (post-mortem) ==");
    // A fresh cluster with the quorum-regroup layer enabled: cut the five
    // nodes of partition 0 (config service + meta leader) onto a minority
    // island, let the majority regroup, heal, and then read the episode
    // back out of the flight recorder as a parent/child span waterfall.
    phoenix_telemetry::reset();
    let topo = ClusterTopology::uniform(3, 4, 1);
    let (mut w, _cluster) = boot_and_stabilize(topo, KernelParams::fast_at(Rung::Partition), 34);
    let cut_ns = w.now().as_nanos();
    w.apply_fault(Fault::Partition { island: 0b1111 });
    w.run_for(SimDuration::from_secs(6));
    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    let end_ns = w.now().as_nanos();
    let (frozen_episodes, rounds) = phoenix_telemetry::with(|r| {
        let frozen = r
            .recorder()
            .iter()
            .filter(|s| s.path == "gsd.regroup.frozen");
        (frozen.count(), r.counter("gsd.regroup.rounds"))
    });
    say!(o; "   frozen episodes recorded: {frozen_episodes} ({rounds} regroup rounds)");
    say!(o; "   span waterfall, cut → post-heal (regroup spans only):");
    let full = phoenix_telemetry::with(|r| r.recorder().waterfall(cut_ns, end_ns, 48));
    for line in full.lines().filter(|l| l.contains("regroup")) {
        say!(o; "   {line}");
    }
    say!(o; "\nFig 4 reproduced: restart-in-place and migrate-with-GSD paths both keep");
    say!(o; "the event service group serving its consumers, and a split-brain episode");
    say!(o; "reads back as a freeze span with its heal-probing rounds nested inside.");
}

/// Whether `consumer` heard of a node fault since it was last drained.
fn notified(consumer: &ClientHandle) -> bool {
    consumer.drain().iter().any(|(_, m)| match m {
        KernelMsg::EsNotify { event } => event.etype == EventType::NodeFault,
        _ => false,
    })
}

/// How many recoveries in the trace took `how`.
fn recoveries(w: &World<KernelMsg>, how: RecoveryAction) -> usize {
    let took = |e: &TraceEvent| matches!(e, TraceEvent::Recovered { action, .. } if *action == how);
    w.trace().count(took)
}

/// Figure 5, the data bulletin federation: "The user can query any data
/// bulletin service to obtain cluster-wide information… If one data
/// bulletin service fails, only the state of one partition can't be
/// obtained. With the support of GSD, the failed data bulletin service will
/// be restarted and come to work in a short period of time."
fn fig5(o: &mut Out) {
    let (partitions, per_partition) = (8, 5);
    let topo = ClusterTopology::uniform(partitions, per_partition, 1);
    let n = topo.node_count();
    let (mut w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 35);
    w.run_for(SimDuration::from_secs(2)); // detectors populate

    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let query = |w: &mut World<KernelMsg>, db: Pid, req: u64| {
        let (req, query) = (RequestId(req), BulletinQuery::Resources);
        client.send(w, db, KernelMsg::DbQuery { req, query });
        w.run_for(SimDuration::from_millis(300));
        let resp = client.drain().into_iter().find_map(|(_, m)| match m {
            KernelMsg::DbResp {
                entries, complete, ..
            } => Some((entries.len(), complete)),
            _ => None,
        });
        resp.unwrap_or((0, false))
    };
    say!(o; "Federation of {partitions} data-bulletin instances over {n} nodes.\n");
    say!(o; "== single access point: query EVERY instance, expect the same answer ==");
    for (i, member) in cluster.directory.partitions.iter().enumerate() {
        let (rows, complete) = query(&mut w, member.bulletin, 100 + i as u64);
        say!(o; "  instance part{i}: {rows} resource rows, complete={complete}");
    }

    say!(o; "\n== failure: kill partition 3's bulletin ==");
    w.kill_process(cluster.directory.partitions[3].bulletin);
    let (rows, complete) = query(&mut w, cluster.bulletin(), 200);
    say!(o; "  query via part0: {rows} rows, complete={complete}  (one partition missing)");
    let lost = (n - rows) as f64 / per_partition as f64;
    o.measure("partitions lost with one instance down", lost);

    say!(o; "\n== recovery: GSD restarts the bulletin ==");
    w.run_for(SimDuration::from_secs(4));
    let (rows, complete) = query(&mut w, cluster.bulletin(), 201);
    say!(o; "  query via part0: {rows} rows, complete={complete}");
    o.measure("complete after the GSD restart", complete as u8);
    say!(o; "\nFig 5 reproduced: any instance answers cluster-wide; a failed instance");
    say!(o; "loses only its partition's state until the GSD restarts it.");
}

/// Figure 6 / Sec 5.3: GridView on the full 640-node Dawning 4000A shape
/// ("this system includes 640 nodes, and it proves the high scalability of
/// Phoenix kernel"), and the scalability sweep behind that claim.
fn fig6(o: &mut Out) {
    let topo = ClusterTopology::uniform(40, 16, 1); // 640 nodes
    let (mut w, cluster) = boot_cluster(topo, KernelParams::default(), 36);
    w.run_for(SimDuration::from_millis(200));
    let at = cluster.topology.partitions[0].compute[0];
    let (bulletin, event) = (cluster.bulletin(), cluster.event());
    let refresh = SimDuration::from_secs(10); // the paper's "specific refreshing rate"
    let gv = phoenix_gridview::GridView::spawn(&mut w, at, bulletin, event, refresh);
    w.run_for(SimDuration::from_secs(60));
    say!(o; "{}", gv.render());
    say!(o; "(paper Fig 6 snapshot: ~640 nodes, ~20% avg memory, ~19% avg CPU, 0.72% avg swap)\n");
    o.measure("nodes reporting", gv.snapshot().nodes_reporting as f64);

    say!(o; "Monitoring scalability sweep (30 virtual seconds each):");
    say!(o; "  nodes  partitions    ctl msgs/s   ctl bytes/s  refreshes  complete");
    for partitions in [4usize, 8, 16, 24, 40] {
        let p = monitor_run(partitions, 16, 30, KernelParams::default(), 37);
        let (nodes, msgs, bytes) = (p.nodes, p.msgs_per_sec, p.bytes_per_sec);
        let traffic = format!("{nodes:>7} {partitions:>11} {msgs:>13.1} {bytes:>13.0}");
        say!(o; "{traffic} {:>10} {:>9}", p.refreshes, p.last_complete);
    }
    say!(o; "\nControl traffic grows linearly in node count (heartbeats dominate), and");
    say!(o; "GridView keeps getting complete cluster-wide answers at 640 nodes — the");
    say!(o; "scalability claim of Sec 5.3.");
}

/// Figures 7–8 / Sec 5.4: the same jobs under the polling PBS baseline and
/// the event-driven PWS — collection traffic ("PBS needs polling
/// continually and consumes network bandwidth") and whether the scheduler
/// survives a process kill ("the scheduling service group … with high
/// availability guaranteed, while PBS doesn't guarantee it").
fn fig78(o: &mut Out) {
    use crate::pws_pbs::run;
    say!(o; "Workload: 6 single-node jobs × 2 s on 2 partitions × 8 nodes; 60 virtual s.\n");
    say!(o; "== collection traffic (no faults) ==");
    say!(o; "system     ctl msgs      ctl bytes  jobs done");
    let pws = run(false, 2, 8, 6, 60, false, 71);
    let pbs = run(true, 2, 8, 6, 60, false, 72);
    for s in [&pbs, &pws] {
        let (msgs, bytes, done) = (s.collection_msgs, s.collection_bytes, s.jobs_completed);
        say!(o; "{:>6} {msgs:>12} {bytes:>14} {done:>10}", s.system);
    }
    let ratio = pbs.collection_bytes as f64 / pws.collection_bytes.max(1) as f64;
    say!(o; "→ PBS uses {ratio:.1}× the collection bytes of PWS\n");

    say!(o; "== scheduler-process failure mid-run ==");
    let pws = run(false, 2, 8, 4, 30, true, 73).survived_scheduler_fault;
    let pbs = run(true, 2, 8, 4, 30, true, 74).survived_scheduler_fault;
    say!(o; "  PWS survives (GSD restarts the scheduler, queue restored): {pws}");
    say!(o; "  PBS survives (no supervision, server gone):                {pbs}");
    o.measure("PWS survives a scheduler kill", pws as u8);
    o.measure("PBS survives a scheduler kill", pbs as u8);
    say!(o; "\nSec 5.4 reproduced: event-driven collection beats polling, and only the");
    say!(o; "kernel-supervised PWS scheduler survives a process failure.");
}

/// Figure 9, the PWS web GUI's start/shutdown-nodes page as a text
/// console: the queue, the node board, and node operations through the
/// kernel's configuration service.
fn fig9(o: &mut Out) {
    let topo = ClusterTopology::uniform(2, 8, 1);
    let (mut w, cluster) = boot_and_stabilize(topo, KernelParams::fast(), 39);
    let pool = PoolConfig::new("batch", compute_nodes(&cluster), PolicyKind::Backfill);
    let pws = install_pws(&mut w, &cluster, vec![pool]);
    w.run_for(SimDuration::from_millis(200));
    let sched = pws.scheduler("batch").expect("batch scheduler");
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    // The GUI's admin buttons are config-service node operations; the
    // admin still logs in, as the console does.
    let _admin = login(&mut w, &cluster, &client, "admin", "adm1n");
    let user_token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    for i in 1..=3u64 {
        let spec = JobSpec {
            task: TaskSpec {
                duration_ns: Some(20_000_000_000),
                ..TaskSpec::default()
            },
            ..JobSpec::simple(i, "alice", "batch", 2)
        };
        submit(&mut w, &client, sched, user_token.clone(), spec);
    }
    w.run_for(SimDuration::from_secs(1));

    say!(o; "== Phoenix-PWS console: job queue ==");
    let rows = queue_status(&mut w, &client, sched);
    say!(o; "{}", ui::render_queue(&rows));
    say!(o; "== node board ==");
    say!(o; "{}", ui::render_node_board(w.nodes(), 16));

    let shutdown = ">> shutdown nodes 14 and 15 (admin operation via config service)";
    let start = ">> start them again";
    let steps = [
        (shutdown, NodeOp::Shutdown, 900, 1),
        (start, NodeOp::Start, 910, 2),
    ];
    for (title, op, req, secs) in steps {
        say!(o; "{title}");
        for (i, node) in [14u32, 15].into_iter().enumerate() {
            let (req, node) = (RequestId(req + i as u64), NodeId(node));
            let msg = KernelMsg::CfgNodeOp { req, node, op };
            client.send(&mut w, cluster.config(), msg);
        }
        w.run_for(SimDuration::from_secs(secs));
        say!(o; "{}", ui::render_node_board(w.nodes(), 16));
    }
    say!(o; "Fig 9 reproduced: start/shutdown-node operations flow through the kernel");
    say!(o; "(config service → node power + daemon respawn → NodeRecovery events).");
}

/// Beyond the paper: the PWS job manager under a Poisson job stream while
/// compute nodes crash and return — Sec 5's combined promise that the job
/// service stays available and fault tolerance costs little.
fn churn(o: &mut Out) {
    say!(o; "40 Poisson-arrival jobs on 15 compute nodes (3 partitions), PWS backfill.\n");
    say!(o; "     condition  completed   failed    virtual s     ctl msgs");
    for (churn, label) in [(false, "calm"), (true, "node churn")] {
        let (completed, failed, secs, msgs) = churn_run(churn, 90 + churn as u64);
        say!(o; "{label:>14} {completed:>10} {failed:>8} {secs:>12.0} {msgs:>12}");
    }
    say!(o; "\nUnder periodic node crashes the job service keeps draining the queue —");
    say!(o; "jobs caught on a dying node fail fast and the rest complete; the kernel's");
    say!(o; "detection/recovery machinery is the reason (Sec 5's combined story).");
}

/// One churn run: completed and failed jobs, virtual seconds, messages sent.
fn churn_run(churn: bool, seed: u64) -> (usize, usize, f64, u64) {
    let topo = ClusterTopology::uniform(3, 7, 1); // 21 nodes, 15 compute
    let (mut w, cluster) = boot_cluster(topo, KernelParams::fast(), seed);
    w.run_for(SimDuration::from_millis(200));
    let compute = compute_nodes(&cluster);
    let pool = PoolConfig::new("batch", compute.clone(), PolicyKind::Backfill);
    let pws = install_pws(&mut w, &cluster, vec![pool]);
    w.run_for(SimDuration::from_millis(200));
    let sched = pws.scheduler("batch").expect("batch scheduler");
    let client = ClientHandle::spawn(&mut w, compute[0]);
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    let stream = WorkloadParams {
        mean_interarrival_s: 3.0,
        max_nodes: 3,
        min_runtime_s: 2.0,
        max_runtime_s: 8.0,
        ..WorkloadParams::default()
    };
    let jobs = generate(&stream, 40, seed + 1);

    // Interleave arrivals with churn: every ~20 s crash a compute node,
    // bring it back ~8 s later through the configuration service.
    let t_start = w.now();
    let mut next_churn = SimTime(t_start.as_nanos() + 20_000_000_000);
    let mut churn_round = 0u64;
    let node_op = |w: &mut World<KernelMsg>, req: u64, node: NodeId, op: NodeOp| {
        let req = RequestId(req);
        client.send(w, cluster.config(), KernelMsg::CfgNodeOp { req, node, op });
    };
    for a in &jobs {
        let due = SimTime(t_start.as_nanos() + a.at_ns);
        while churn && next_churn < due {
            w.run_until(next_churn);
            let victim = compute[(churn_round as usize * 5 + 2) % compute.len()];
            w.apply_fault(Fault::CrashNode(victim));
            // Idempotent: the node is already down.
            node_op(&mut w, 5_000 + churn_round, victim, NodeOp::Shutdown);
            w.run_until(SimTime(next_churn.as_nanos() + 8_000_000_000));
            node_op(&mut w, 6_000 + churn_round, victim, NodeOp::Start);
            churn_round += 1;
            next_churn = SimTime(next_churn.as_nanos() + 20_000_000_000);
        }
        w.run_until(due);
        let (req, token, spec) = (
            RequestId(10_000 + a.spec.id.0),
            token.clone(),
            a.spec.clone(),
        );
        client.send(&mut w, sched, KernelMsg::PwsSubmit { req, token, spec });
    }
    w.run_for(SimDuration::from_secs(120)); // drain

    let milestones = |label: &str| {
        w.trace()
            .count(|e| matches!(e, TraceEvent::Milestone { label: l, .. } if *l == label))
    };
    let (completed, failed) = (milestones("job-completed"), milestones("job-failed"));
    // The scheduler's pid now, which follows any respawn.
    let now = pws.scheduler("batch").expect("batch scheduler");
    let leftover = queue_status(&mut w, &client, now);
    if !leftover.is_empty() {
        eprintln!("  leftover rows: {leftover:?}");
    }
    let (secs, msgs) = (w.now().as_secs_f64(), w.metrics().total.sent);
    (completed, failed, secs, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_measurement_outside_its_tolerance_fails_and_names_the_row() {
        let diagnose = Row("table1_wd", "Process diagnose (s)", 0.29, PHASE);
        let (line, fails) = judge(&diagnose, Some(0.30));
        assert!(fails, "{line}");
        assert!(
            line.contains("Process diagnose (s)") && line.contains("OUTSIDE"),
            "{line}"
        );
        // A phase the paper gives as 0 is judged in absolute terms.
        let recover = Row("table1_wd", "Process recover (s)", 0.0, FREE);
        let (line, fails) = judge(&recover, Some(0.002));
        assert!(fails && line.contains("Process recover (s)"), "{line}");
        // A row nobody measured fails too.
        let (line, fails) = judge(&recover, None);
        assert!(fails && line.contains("never measured"), "{line}");
    }

    #[test]
    fn a_measurement_inside_its_tolerance_passes() {
        let diagnose = Row("table1_wd", "Process diagnose (s)", 0.29, PHASE);
        let (line, fails) = judge(&diagnose, Some(0.28529));
        assert!(!fails, "{line}");
        assert!(line.ends_with("ok") && line.contains("-1.62%"), "{line}");
        let recover = Row("table1_wd", "Process recover (s)", 0.0, FREE);
        assert!(!judge(&recover, Some(0.0)).1);
        let survives = Row(
            "fig78_pws_vs_pbs",
            "PBS survives a scheduler kill",
            0.0,
            EXACT,
        );
        assert!(!judge(&survives, Some(0.0)).1);
        assert!(judge(&survives, Some(1.0)).1);
    }

    #[test]
    fn every_paper_row_names_an_artifact_the_table_runs() {
        for &Row(artifact, row, ..) in ROWS {
            let runs = ARTIFACTS.iter().any(|(name, _)| *name == artifact);
            assert!(runs, "{artifact} / {row}: no such artifact");
            let twins = ROWS.iter().filter(|r| r.0 == artifact && r.1 == row);
            assert_eq!(twins.count(), 1, "{artifact} / {row} twice");
        }
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(num(30.29), "30.29");
        assert_eq!(num(0.28527), "0.2853");
        assert_eq!(num(348e-6), "0.000348");
        assert_eq!(num(640.0), "640");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(-0.5), "-0.5");
    }
}
