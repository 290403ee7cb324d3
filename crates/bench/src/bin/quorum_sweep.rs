//! Quorum sweep: even-split survival under the witness/weighted vote table.
//!
//! `partition_sweep` cuts one partition off and expects the *count*
//! majority to keep running — but a 2-vs-2 split of an even partition
//! count has no count majority, and the pre-vote-table protocol froze
//! both sides. This bench drives exactly those splits against the
//! `KernelParams::fast_quorum()` profile (per-partition weights, witness
//! vote doubled, adaptive takeover delay) and gates the tentpole claim:
//! **exactly one side stays alive through an even split**.
//!
//! Two split shapes per seed on the 4 × 3-node testbed (witness p1):
//!
//! * **witness-islanded** — island {p1, p2}: the witness is severed from
//!   the meta leader and the config service; its side must win the
//!   weighted vote and elect a replacement leader while {p0, p3} freezes;
//! * **leader-kept** — island {p2, p3}: witness and leader stay mainside;
//!   the island must freeze and the mainland must keep its leader.
//!
//! Sampled every 20 ms across the split and the heal:
//!
//! * **double-leader instants** — more than one live unfrozen leader;
//! * **both-frozen instants** — every live GSD frozen once the split has
//!   out-lived the freeze pipeline (the total outage the vote table
//!   exists to prevent);
//! * **decision time** — cut → losing side fully frozen *and* winning
//!   side led by exactly one unfrozen leader;
//! * **availability** — fraction of samples with a live unfrozen leader;
//! * **heal → convergence** — one live GSD per partition, one leader,
//!   nobody frozen.
//!
//! A second pass benches the adaptive takeover delay against the paper's
//! fixed 31 s constant: kill one GSD on a healthy cluster and time the
//! kill → replacement-live takeover under both settings. The adaptive
//! profile must stay within the fast-profile envelope; the fixed-31 s
//! run documents the MSCS-style worst case the adaptation removes.
//!
//! Results go to `results/BENCH_quorum.json` (sections `quorum`,
//! `episodes`, `takeover_ablation`); exit status is non-zero on any
//! double-leader instant, both-frozen instant, undecided split, or
//! unconverged heal — `scripts/verify.sh` gates on all four.
//!
//! ```text
//! quorum_sweep [--small] [--serial]
//! ```

use phoenix_bench::sweep::{mean, run_sweep};
use phoenix_kernel::boot::{boot_and_stabilize, GsdView};
use phoenix_kernel::{KernelParams, PhoenixCluster};
use phoenix_proto::{ClusterTopology, KernelMsg, PartitionId};
use phoenix_sim::{Fault, SimDuration, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

/// The quorum profile on the even testbed: 4 partitions × 3 nodes, the
/// witness designated away from the config partition (p1) so both split
/// shapes are interesting.
fn quorum_params(adaptive: bool) -> KernelParams {
    let mut params = KernelParams::fast_quorum();
    params.ft.regroup.votes.witness = Some(PartitionId(1));
    if !adaptive {
        // The paper-profile ablation: MSCS's fixed "wait out the regroup
        // period" constant instead of the latency-derived delay.
        params.ft.regroup.adaptive_delay = false;
        params.ft.regroup.takeover_delay = SimDuration::from_secs(31);
    }
    params
}

fn boot(seed: u64, adaptive: bool) -> (World<KernelMsg>, PhoenixCluster) {
    boot_and_stabilize(ClusterTopology::uniform(4, 3, 1), quorum_params(adaptive), seed)
}

/// One even-split shape: which partitions are severed, and whether the
/// severed island is the side the weighted vote keeps alive.
struct Shape {
    name: &'static str,
    island_parts: [usize; 2],
    island_wins: bool,
}

const SHAPES: [Shape; 2] = [
    Shape { name: "witness-islanded", island_parts: [1, 2], island_wins: true },
    Shape { name: "leader-kept", island_parts: [2, 3], island_wins: false },
];

struct SplitEpisode {
    decision_ms: Option<f64>,
    freeze_ms: Option<f64>,
    double_leader_instants: u64,
    both_frozen_instants: u64,
    availability: f64,
    converge_ms: Option<f64>,
}

/// One cut → weighted regroup → heal cycle of the given shape.
fn split_episode(seed: u64, shape: &Shape) -> SplitEpisode {
    let (mut w, cluster) = boot(seed, true);
    w.run_for(SimDuration::from_secs(3));

    let mask = cluster.island_mask(&shape.island_parts);
    let winning = |g: &&GsdView| ((mask >> g.node.0) & 1 == 1) == shape.island_wins;
    let t_cut = w.now();
    w.apply_fault(Fault::Partition { island: mask });

    let mut decision_ms = None;
    let mut freeze_ms = None;
    let mut double = 0u64;
    let mut both_frozen = 0u64;
    let mut samples = 0u64;
    let mut live_samples = 0u64;
    // The freeze pipeline: suspicion + a regroup round + fanout. Both-
    // frozen instants only count once the split out-lives it.
    let grace = SimDuration::from_secs(5);
    while w.now().since(t_cut) < SimDuration::from_secs(8) {
        w.run_for(SimDuration::from_millis(20));
        let views = PhoenixCluster::live_gsds(&w);
        let leaders = views.iter().filter(|g| g.role == "leader").count();
        samples += 1;
        live_samples += (leaders >= 1) as u64;
        if leaders > 1 {
            double += 1;
        }
        let losing: Vec<&GsdView> = views.iter().filter(|g| !winning(g)).collect();
        let losing_frozen = losing.iter().all(|g| g.role == "frozen");
        if freeze_ms.is_none() && losing_frozen && !losing.is_empty() {
            freeze_ms = Some(w.now().since(t_cut).as_nanos() as f64 / 1e6);
        }
        let leads = |g: &&GsdView| g.role == "leader";
        let winning_leaders = views.iter().filter(winning).filter(leads).count();
        if decision_ms.is_none() && losing_frozen && winning_leaders == 1 {
            decision_ms = Some(w.now().since(t_cut).as_nanos() as f64 / 1e6);
        }
        if w.now().since(t_cut) > grace
            && !views.is_empty()
            && views.iter().all(|g| g.role == "frozen")
        {
            both_frozen += 1;
        }
    }

    let t_heal = w.now();
    w.apply_fault(Fault::Heal);
    let mut converge_ms = None;
    while w.now().since(t_heal) < SimDuration::from_secs(15) {
        w.run_for(SimDuration::from_millis(100));
        let views = PhoenixCluster::live_gsds(&w);
        let leaders = views.iter().filter(|g| g.role == "leader").count();
        samples += 1;
        live_samples += (leaders >= 1) as u64;
        if leaders > 1 {
            double += 1;
        }
        if cluster.roles_converged(&w) {
            converge_ms = Some(w.now().since(t_heal).as_nanos() as f64 / 1e6);
            break;
        }
    }

    SplitEpisode {
        decision_ms,
        freeze_ms,
        double_leader_instants: double,
        both_frozen_instants: both_frozen,
        availability: live_samples as f64 / samples.max(1) as f64,
        converge_ms,
    }
}

struct TakeoverEpisode {
    takeover_ms: Option<f64>,
}

/// Kill one member GSD on a healthy cluster and time the replacement:
/// the regroup licence (held-majority × takeover delay) sits on this
/// path, so the adaptive-vs-fixed-31 s difference shows up directly.
fn takeover_episode(seed: u64, adaptive: bool) -> TakeoverEpisode {
    let (mut w, cluster) = boot(seed, adaptive);
    w.run_for(SimDuration::from_secs(3));
    let victim = PartitionId(2); // plain member: not leader (p0), not witness (p1)
    let gsds = PhoenixCluster::live_gsds(&w);
    let Some(pid) = gsds.iter().find(|g| g.partition == victim).map(|g| g.pid) else {
        return TakeoverEpisode { takeover_ms: None };
    };
    let t_kill = w.now();
    w.apply_fault(Fault::KillProcess(pid));
    let mut takeover_ms = None;
    while w.now().since(t_kill) < SimDuration::from_secs(45) {
        w.run_for(SimDuration::from_millis(50));
        let replaced = PhoenixCluster::live_gsds(&w)
            .iter()
            .any(|g| g.partition == victim && g.pid != pid);
        if replaced && cluster.roles_converged(&w) {
            takeover_ms = Some(w.now().since(t_kill).as_nanos() as f64 / 1e6);
            break;
        }
    }
    TakeoverEpisode { takeover_ms }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let serial = std::env::args().any(|a| a == "--serial");
    // ≥ 25 even-split episodes even in the small shape: the acceptance
    // gate is statistical (zero bad instants across the population).
    let split_seeds: u64 = if small { 13 } else { 25 };
    let ablation_seeds: u64 = if small { 3 } else { 6 };
    println!(
        "quorum_sweep: {split_seeds} seeds x {} even-split shapes + \
         {ablation_seeds} x 2 takeover ablations (12-node testbed, quorum \
         profile, witness p1, 8 s split + heal per episode)",
        SHAPES.len()
    );

    let mut split_jobs = Vec::new();
    for seed in 1..=split_seeds {
        for (si, _) in SHAPES.iter().enumerate() {
            split_jobs.push((seed, si));
        }
    }
    let split_out = run_sweep(&split_jobs, serial, |&(seed, si)| split_episode(seed, &SHAPES[si]));

    let mut abl_jobs = Vec::new();
    for seed in 1..=ablation_seeds {
        for adaptive in [true, false] {
            abl_jobs.push((seed, adaptive));
        }
    }
    let abl_out = run_sweep(&abl_jobs, serial, |&(seed, adaptive)| takeover_episode(seed, adaptive));

    println!(
        "sweep: {} episodes on {} thread(s), {} ms wall",
        split_jobs.len() + abl_jobs.len(),
        split_out.threads,
        (split_out.wall + abl_out.wall).as_millis()
    );

    let mut rows = Vec::new();
    let mut total_double = 0u64;
    let mut total_both_frozen = 0u64;
    let mut undecided = 0u64;
    let mut unconverged = 0u64;
    for (si, shape) in SHAPES.iter().enumerate() {
        let mut decide = Vec::new();
        let mut freeze = Vec::new();
        let mut converge = Vec::new();
        let mut avail = Vec::new();
        for (&(seed, s), ep) in split_jobs.iter().zip(&split_out.results) {
            if s != si {
                continue;
            }
            total_double += ep.double_leader_instants;
            total_both_frozen += ep.both_frozen_instants;
            undecided += ep.decision_ms.is_none() as u64;
            unconverged += ep.converge_ms.is_none() as u64;
            decide.extend(ep.decision_ms);
            freeze.extend(ep.freeze_ms);
            converge.extend(ep.converge_ms);
            avail.push(ep.availability);
            rows.push(
                Json::obj()
                    .set("seed", Json::Num(seed as f64))
                    .set("shape", Json::str(shape.name))
                    .set("decision_ms", ep.decision_ms.map(Json::Num).unwrap_or(Json::Null))
                    .set("freeze_ms", ep.freeze_ms.map(Json::Num).unwrap_or(Json::Null))
                    .set("heal_converge_ms", ep.converge_ms.map(Json::Num).unwrap_or(Json::Null))
                    .set("availability", Json::Num(ep.availability))
                    .set("double_leader_instants", Json::Num(ep.double_leader_instants as f64))
                    .set("both_frozen_instants", Json::Num(ep.both_frozen_instants as f64)),
            );
        }
        println!(
            "  {:>16}: decide {:>7.1} ms | freeze {:>7.1} ms | heal->roles \
             {:>7.1} ms | avail {:.3}  (n={})",
            shape.name,
            mean(&decide),
            mean(&freeze),
            mean(&converge),
            mean(&avail),
            decide.len()
        );
    }

    let mut abl_rows = Vec::new();
    let mut adaptive_ms = Vec::new();
    let mut fixed_ms = Vec::new();
    let mut unrecovered_adaptive = 0u64;
    for (&(seed, adaptive), ep) in abl_jobs.iter().zip(&abl_out.results) {
        if adaptive {
            unrecovered_adaptive += ep.takeover_ms.is_none() as u64;
            adaptive_ms.extend(ep.takeover_ms);
        } else {
            fixed_ms.extend(ep.takeover_ms);
        }
        abl_rows.push(
            Json::obj()
                .set("seed", Json::Num(seed as f64))
                .set("delay", Json::str(if adaptive { "adaptive" } else { "fixed_31s" }))
                .set("takeover_ms", ep.takeover_ms.map(Json::Num).unwrap_or(Json::Null)),
        );
    }
    println!(
        "  takeover ablation: adaptive {:>8.1} ms vs fixed-31s {:>8.1} ms \
         (n={}+{})",
        mean(&adaptive_ms),
        mean(&fixed_ms),
        adaptive_ms.len(),
        fixed_ms.len()
    );

    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("seeds", Json::Num(split_seeds as f64))
        .set("episodes", Json::Num(split_jobs.len() as f64))
        .set("double_leader_instants", Json::Num(total_double as f64))
        .set("both_frozen_instants", Json::Num(total_both_frozen as f64))
        .set("undecided_splits", Json::Num(undecided as f64))
        .set("unconverged_episodes", Json::Num(unconverged as f64))
        .set("availability_mean", {
            let a: Vec<f64> = split_out.results.iter().map(|e| e.availability).collect();
            Json::Num(mean(&a))
        })
        .set("takeover_adaptive_ms_mean", Json::Num(mean(&adaptive_ms)))
        .set("takeover_fixed31_ms_mean", Json::Num(mean(&fixed_ms)));

    let mut merged = split_out.merged;
    merged.merge(&abl_out.merged);
    let mut rep = phoenix_telemetry::BenchReport::new("quorum_sweep");
    rep.section("quorum", summary);
    rep.section("episodes", Json::Arr(rows));
    rep.section("takeover_ablation", Json::Arr(abl_rows));
    let path = rep
        .write_to(&merged, workspace_root().join("results/BENCH_quorum.json"))
        .expect("write BENCH_quorum.json");
    println!("report written: {}", path.display());

    if total_double > 0 || total_both_frozen > 0 || undecided > 0 || unconverged > 0
        || unrecovered_adaptive > 0
    {
        eprintln!(
            "quorum_sweep: {total_double} double-leader instant(s), \
             {total_both_frozen} both-frozen instant(s), {undecided} \
             undecided split(s), {unconverged} unconverged episode(s), \
             {unrecovered_adaptive} unrecovered adaptive takeover(s) — \
             even-split survival regressed"
        );
        std::process::exit(1);
    }
}
