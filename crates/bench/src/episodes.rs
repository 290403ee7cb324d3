//! The fault episodes the `sweep` bin's presets share, each one boot →
//! inject → sample → answer as [`Facts`]. Two families: a *rate* sweep
//! (`loss_sweep`, `nic_asymmetry`: the same two runs under a network the
//! preset builds from a rate) and a *split-and-heal* episode
//! (`partition_sweep`, `quorum_sweep`: the same cut, sampling and heal, told
//! which partitions to island and which side must win).

use phoenix_kernel::boot::{boot_and_stabilize, boot_cluster_with_net, GsdView};
use phoenix_kernel::config::ConfigService;
use phoenix_kernel::{ClientHandle, KernelParams, PhoenixCluster, Rung};
use phoenix_proto::{ClusterTopology, KernelMsg, RequestId};
use phoenix_sim::{Fault, FaultTarget, NetParams, SimDuration, SimTime, TraceEvent, World};

use crate::sweep::{Facts, Job};

/// Milliseconds from `from` to the world's now.
pub fn ms_since(w: &World<KernelMsg>, from: SimTime) -> f64 {
    w.now().since(from).as_nanos() as f64 / 1e6
}

/// How many of the live GSDs report the meta-leader role.
fn leaders(gsds: &[GsdView]) -> usize {
    gsds.iter().filter(|g| g.role == "leader").count()
}

// ---------------------------------------------------------------------------
// Rate sweeps: 15-node testbed, lossy rung, a network built from a rate
// ---------------------------------------------------------------------------

fn boot_lossy(seed: u64, net: NetParams) -> (World<KernelMsg>, PhoenixCluster) {
    let params = KernelParams::fast_at(Rung::Lossy);
    boot_cluster_with_net(ClusterTopology::uniform(3, 5, 1), params, seed, net)
}

/// Kill one WD and mine the trace for kill → `FaultDiagnosed` latency
/// (`detect_ms`), plus the `rpc.retries` the recovery needed (fault paths
/// are where the retrying request helpers actually fire). Under loss the
/// diagnosis can degrade from process-failure to node-failure (every probe
/// reply for the dead WD's node dropped), so both targets count as
/// detection; `node_diagnosed` reports whether it degraded.
fn detection(seed: u64, net: NetParams) -> Facts {
    let (mut w, cluster) = boot_lossy(seed, net);
    w.run_for(SimDuration::from_secs(2));
    // A compute node's WD in partition 1 (not the meta leader's server).
    let victim = cluster.directory.nodes[6].wd;
    let victim_node = cluster.directory.nodes[6].node;
    let t_kill = w.now();
    w.kill_process(victim);
    w.run_for(SimDuration::from_secs(10));
    let retries = phoenix_telemetry::with(|reg| reg.counter("rpc.retries"));
    let hit = w.trace().records().iter().find(|r| {
        r.at >= t_kill
            && match r.event {
                TraceEvent::FaultDiagnosed { target: FaultTarget::Process(p), .. } => p == victim,
                TraceEvent::FaultDiagnosed { target: FaultTarget::Node(n), .. } => n == victim_node,
                _ => false,
            }
    });
    let degraded = matches!(
        hit.map(|rec| &rec.event),
        Some(TraceEvent::FaultDiagnosed { target: FaultTarget::Node(_), .. })
    );
    vec![
        ("detect_ms", hit.map(|rec| rec.at.since(t_kill).as_nanos() as f64 / 1e6)),
        ("node_diagnosed", Some(degraded as u64 as f64)),
        ("detect_retries", Some(retries as f64)),
    ]
}

/// Run a fault-free cluster for 20 virtual seconds and read `counters`,
/// each a fact under its own name, after `spurious_takeovers`.
fn fault_free(seed: u64, net: NetParams, counters: &[&'static str]) -> Facts {
    let (mut w, _cluster) = boot_lossy(seed, net);
    w.run_for(SimDuration::from_secs(20));
    phoenix_telemetry::with(|reg| {
        let spurious = reg.counter("gsd.takeovers")
            + reg.histogram("gsd.takeover").map(|h| h.count()).unwrap_or(0);
        let mut facts = vec![("spurious_takeovers", Some(spurious as f64))];
        facts.extend(counters.iter().map(|&c| (c, Some(reg.counter(c) as f64))));
        facts
    })
}

/// The jobs of a rate sweep, one group per rate: `detect_seeds` detection
/// runs (seeds 1..) then `clean_seeds` fault-free runs (seeds 100..) under
/// `net(rate)`.
pub fn rate_jobs(
    rates: &[u16],
    (detect_seeds, clean_seeds): (u64, u64),
    net: fn(u16) -> NetParams,
    counters: &'static [&'static str],
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (group, &rate) in rates.iter().enumerate() {
        let job = |seed, run| Job { group, seed, labels: Vec::new(), run };
        for seed in 1..=detect_seeds {
            jobs.push(job(seed, Box::new(move |seed| detection(seed, net(rate)))));
        }
        for seed in 100..100 + clean_seeds {
            jobs.push(job(seed, Box::new(move |seed| fault_free(seed, net(rate), counters))));
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// Split and heal
// ---------------------------------------------------------------------------

/// One island split: what to boot, which topology partitions to sever,
/// whether the severed island is the side that must stay live, how long
/// the split stands, and whether the heal is timed up to a converged
/// directory (which costs the cluster a query per sample) or only up to
/// converged roles.
pub struct Split {
    pub topology: (usize, usize),
    pub params: fn() -> KernelParams,
    pub island: &'static [usize],
    pub island_wins: bool,
    pub hold: SimDuration,
    pub directory: bool,
}

/// Ask the config service for the directory and check it is complete,
/// live, and carries no stale marks. Spawns a throwaway client and runs
/// the world ~50 virtual ms for the answer.
fn directory_converged(w: &mut World<KernelMsg>, cluster: &PhoenixCluster, req: u64) -> bool {
    let client = ClientHandle::spawn(w, cluster.topology.partitions[1].server);
    let query = KernelMsg::CfgQueryDirectory { req: RequestId(req) };
    let answer = client.ask(w, cluster.config(), query, SimDuration::from_millis(50), |m| match m {
        KernelMsg::CfgDirectory { directory, .. } => Some(*directory),
        _ => None,
    });
    let Some(dir) = answer else {
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

/// One cut → regroup → heal cycle. Sampled every 20 ms across the split
/// and every 100 ms across the heal:
///
/// * `freeze_ms` — cut → every GSD on the losing side reports `"frozen"`;
/// * `decision_ms` — cut → that, *and* exactly one unfrozen leader on the
///   winning side;
/// * `double_leader_instants` — samples with more than one live leader;
/// * `both_frozen_instants` — samples with every live GSD frozen, once the
///   split has out-lived the freeze pipeline (suspicion + a regroup round
///   + fanout: 5 s);
/// * `availability` — share of samples with a live leader;
/// * `heal_converge_ms` — heal → `roles_converged`;
/// * `dir_converge_ms` — heal → a complete, live, unstale directory
///   (`directory` splits only).
pub fn split_and_heal(seed: u64, split: &Split) -> Facts {
    let (partitions, nodes) = split.topology;
    let topology = ClusterTopology::uniform(partitions, nodes, 1);
    let (mut w, cluster) = boot_and_stabilize(topology, (split.params)(), seed);
    w.run_for(SimDuration::from_secs(3));

    let mask = cluster.island_mask(split.island);
    let losing = |g: &&GsdView| ((mask >> g.node.0) & 1 == 1) != split.island_wins;
    let t_cut = w.now();
    w.apply_fault(Fault::Partition { island: mask });
    let (mut decision_ms, mut freeze_ms) = (None, None);
    let (mut double, mut both_frozen, mut samples, mut led) = (0u64, 0u64, 0u64, 0u64);
    let mut sample = |views: &[GsdView]| {
        samples += 1;
        led += (leaders(views) >= 1) as u64;
        double += (leaders(views) > 1) as u64;
    };
    while w.now().since(t_cut) < split.hold {
        w.run_for(SimDuration::from_millis(20));
        let views = PhoenixCluster::live_gsds(&w);
        sample(&views);
        let lost: Vec<&GsdView> = views.iter().filter(losing).collect();
        let lost_frozen = lost.iter().all(|g| g.role == "frozen");
        let won_leaders = views.iter().filter(|g| !losing(g) && g.role == "leader").count();
        if freeze_ms.is_none() && lost_frozen && !lost.is_empty() {
            freeze_ms = Some(ms_since(&w, t_cut));
        }
        if decision_ms.is_none() && lost_frozen && won_leaders == 1 {
            decision_ms = Some(ms_since(&w, t_cut));
        }
        let all_frozen = !views.is_empty() && views.iter().all(|g| g.role == "frozen");
        both_frozen += (w.now().since(t_cut) > SimDuration::from_secs(5) && all_frozen) as u64;
    }

    let t_heal = w.now();
    w.apply_fault(Fault::Heal);
    let (mut converge_ms, mut dir_converge_ms) = (None, None);
    let mut req = seed * 1_000;
    while w.now().since(t_heal) < SimDuration::from_secs(15) {
        w.run_for(SimDuration::from_millis(100));
        sample(&PhoenixCluster::live_gsds(&w));
        if converge_ms.is_none() && cluster.roles_converged(&w) {
            converge_ms = Some(ms_since(&w, t_heal));
        }
        if converge_ms.is_some() {
            if !split.directory {
                break;
            }
            req += 1;
            if directory_converged(&mut w, &cluster, req) {
                dir_converge_ms = Some(ms_since(&w, t_heal));
                break;
            }
        }
    }

    vec![
        ("decision_ms", decision_ms),
        ("freeze_ms", freeze_ms),
        ("heal_converge_ms", converge_ms),
        ("dir_converge_ms", dir_converge_ms),
        ("availability", Some(led as f64 / samples.max(1) as f64)),
        ("double_leader_instants", Some(double as f64)),
        ("both_frozen_instants", Some(both_frozen as f64)),
    ]
}
