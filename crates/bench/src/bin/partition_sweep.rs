//! Partition sweep: split-brain survival measured end to end.
//!
//! The paper's testbed never splits its switched Ethernet in half; this
//! bench asks what the regroup layer (`KernelParams::fast_partition`)
//! delivers when it does. For each seeded episode one whole topology
//! partition is severed onto an island (`Fault::Partition`) for six
//! virtual seconds and then healed, alternating which side is cut:
//!
//! * **minority freeze time** — cut → the minority island's GSD reports
//!   the `"frozen"` pseudo-role (suspicion + regroup round latency);
//! * **double-leader instants** — sampled every 20 ms across the split
//!   and the heal; any instant with two live unfrozen leaders is a
//!   split-brain violation and fails the run;
//! * **heal → convergence time** — heal → one live GSD per partition,
//!   exactly one leader, nobody frozen;
//! * **heal → directory convergence** — heal → the config service
//!   answers with a complete live directory and an empty stale set.
//!
//! Results go to `results/BENCH_partition.json` (sections `partition` and
//! `episodes`); the exit status is non-zero if any double-leader instant
//! was sampled, a minority failed to freeze, or an episode failed to
//! converge — which lets `scripts/verify.sh` gate on all three.
//!
//! All episodes run through the parallel sweep runner (one registry shard
//! per episode, merged in work-item order), so the report is
//! byte-identical to `--serial` for the same seed set.
//!
//! ```text
//! partition_sweep [--small] [--serial]
//! ```

use phoenix_bench::sweep::{mean, run_sweep};
use phoenix_kernel::boot::{boot_and_stabilize, GsdView};
use phoenix_kernel::config::ConfigService;
use phoenix_kernel::{ClientHandle, KernelParams, PhoenixCluster};
use phoenix_proto::{ClusterTopology, KernelMsg, RequestId};
use phoenix_sim::{Fault, SimDuration, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

fn boot(seed: u64) -> (World<KernelMsg>, PhoenixCluster) {
    boot_and_stabilize(
        ClusterTopology::uniform(3, 4, 1),
        KernelParams::fast_partition(),
        seed,
    )
}

/// How many of the live GSDs report the meta-leader role.
fn leaders(gsds: &[GsdView]) -> usize {
    gsds.iter().filter(|g| g.role == "leader").count()
}

/// Ask the config service for the directory and check it is complete,
/// live, and carries no stale marks. Spawns a throwaway client and runs
/// the world ~50 virtual ms for the answer.
fn directory_converged(w: &mut World<KernelMsg>, cluster: &PhoenixCluster, req: u64) -> bool {
    let client = ClientHandle::spawn(w, cluster.topology.partitions[1].server);
    client.send(w, cluster.config(), KernelMsg::CfgQueryDirectory { req: RequestId(req) });
    w.run_for(SimDuration::from_millis(50));
    let Some(dir) = client.drain().into_iter().find_map(|(_, m)| match m {
        KernelMsg::CfgDirectory { directory, .. } => Some(*directory),
        _ => None,
    }) else {
        return false;
    };
    let stale_clear = w
        .actor_as::<ConfigService>(cluster.config())
        .map(|c| c.stale_partitions().is_empty())
        .unwrap_or(false);
    dir.partitions.len() == cluster.topology.partitions.len()
        && dir.partitions.iter().all(|m| w.is_alive(m.gsd))
        && stale_clear
}

struct Episode {
    minority_froze: bool,
    freeze_ms: Option<f64>,
    double_leader_instants: u64,
    converge_ms: Option<f64>,
    dir_converge_ms: Option<f64>,
}

/// One partition → regroup → heal cycle: sever `minority`, sample across
/// the six-second split, heal, and time re-convergence.
fn episode(seed: u64, minority: usize) -> Episode {
    let (mut w, cluster) = boot(seed);
    w.run_for(SimDuration::from_secs(3));

    let t_cut = w.now();
    let island = cluster.island_mask(&[minority]);
    w.apply_fault(Fault::Partition { island });
    let mut freeze_ms = None;
    let mut double = 0u64;
    while w.now().since(t_cut) < SimDuration::from_secs(6) {
        w.run_for(SimDuration::from_millis(20));
        let gsds = PhoenixCluster::live_gsds(&w);
        let frozen = |g: &GsdView| g.partition.index() == minority && g.role == "frozen";
        if freeze_ms.is_none() && gsds.iter().any(frozen) {
            freeze_ms = Some(w.now().since(t_cut).as_nanos() as f64 / 1e6);
        }
        if leaders(&gsds) > 1 {
            double += 1;
        }
    }

    let t_heal = w.now();
    w.apply_fault(Fault::Heal);
    let mut converge_ms = None;
    let mut dir_converge_ms = None;
    let mut req = seed * 1_000;
    while w.now().since(t_heal) < SimDuration::from_secs(15) {
        w.run_for(SimDuration::from_millis(100));
        if leaders(&PhoenixCluster::live_gsds(&w)) > 1 {
            double += 1;
        }
        if converge_ms.is_none() && cluster.roles_converged(&w) {
            converge_ms = Some(w.now().since(t_heal).as_nanos() as f64 / 1e6);
        }
        if converge_ms.is_some() {
            req += 1;
            if directory_converged(&mut w, &cluster, req) {
                dir_converge_ms = Some(w.now().since(t_heal).as_nanos() as f64 / 1e6);
                break;
            }
        }
    }

    Episode {
        minority_froze: freeze_ms.is_some(),
        freeze_ms,
        double_leader_instants: double,
        converge_ms,
        dir_converge_ms,
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let serial = std::env::args().any(|a| a == "--serial");
    let seeds: u64 = if small { 4 } else { 10 };
    // Alternate which side is severed: partition 0 carries the meta
    // leader *and* the config service (the hard case); partition 2 is a
    // plain member whose directory entry must go stale and come back.
    let minorities = [0usize, 2];
    println!(
        "partition_sweep: {seeds} seeds x {} islands (15-node testbed, \
         regroup profile, 6 s split + heal per episode)",
        minorities.len()
    );

    let mut jobs = Vec::new();
    for seed in 1..=seeds {
        for &minority in &minorities {
            jobs.push((seed, minority));
        }
    }
    let outcome = run_sweep(&jobs, serial, |&(seed, minority)| episode(seed, minority));
    println!(
        "sweep: {} episodes on {} thread(s), {} ms wall",
        jobs.len(),
        outcome.threads,
        outcome.wall.as_millis()
    );

    let mut rows = Vec::new();
    let mut total_double = 0u64;
    let mut unfrozen = 0u64;
    let mut unconverged = 0u64;
    for &minority in &minorities {
        let mut freeze = Vec::new();
        let mut converge = Vec::new();
        let mut dir = Vec::new();
        for (&(seed, m), ep) in jobs.iter().zip(&outcome.results) {
            if m != minority {
                continue;
            }
            total_double += ep.double_leader_instants;
            unfrozen += !ep.minority_froze as u64;
            unconverged += ep.dir_converge_ms.is_none() as u64;
            freeze.extend(ep.freeze_ms);
            converge.extend(ep.converge_ms);
            dir.extend(ep.dir_converge_ms);
            rows.push(
                Json::obj()
                    .set("seed", Json::Num(seed as f64))
                    .set("minority_partition", Json::Num(minority as f64))
                    .set("freeze_ms", ep.freeze_ms.map(Json::Num).unwrap_or(Json::Null))
                    .set("heal_converge_ms", ep.converge_ms.map(Json::Num).unwrap_or(Json::Null))
                    .set(
                        "dir_converge_ms",
                        ep.dir_converge_ms.map(Json::Num).unwrap_or(Json::Null),
                    )
                    .set("double_leader_instants", Json::Num(ep.double_leader_instants as f64)),
            );
        }
        println!(
            "  island p{minority}: freeze {:>7.1} ms | heal->roles {:>7.1} ms | \
             heal->directory {:>7.1} ms  (n={})",
            mean(&freeze),
            mean(&converge),
            mean(&dir),
            converge.len()
        );
    }

    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("seeds", Json::Num(seeds as f64))
        .set("episodes", Json::Num(jobs.len() as f64))
        .set("double_leader_instants", Json::Num(total_double as f64))
        .set("unfrozen_minorities", Json::Num(unfrozen as f64))
        .set("unconverged_episodes", Json::Num(unconverged as f64));

    let mut rep = phoenix_telemetry::BenchReport::new("partition_sweep");
    rep.section("partition", summary);
    rep.section("episodes", Json::Arr(rows));
    let path = rep
        .write_to(&outcome.merged, workspace_root().join("results/BENCH_partition.json"))
        .expect("write BENCH_partition.json");
    println!("report written: {}", path.display());

    if total_double > 0 || unfrozen > 0 || unconverged > 0 {
        eprintln!(
            "partition_sweep: {total_double} double-leader instant(s), {unfrozen} \
             unfrozen minorit(ies), {unconverged} unconverged episode(s) — \
             split-brain survival regressed"
        );
        std::process::exit(1);
    }
}
