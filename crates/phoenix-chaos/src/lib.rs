//! Deterministic chaos testing for the Phoenix kernel.
//!
//! The paper evaluates the kernel by injecting single, hand-picked faults
//! (Tables 1-3). This crate explores the space the paper could not: random
//! *schedules* of overlapping faults — process kills, node crashes and
//! restarts, NIC failures, link partitions and heals — generated from a
//! seed, applied to a booted simulated cluster, and checked against
//! kernel-level invariants while a split stands and once the fault cascade
//! quiesces.
//!
//! Because the simulator is fully deterministic (one `SimRng`, a virtual
//! clock, FIFO tie-breaking), a seed *is* a reproducer: any violation can
//! be replayed bit-for-bit with `chaos --replay SEED[:MASK]`, and a failing
//! schedule is greedily shrunk (drop one step at a time, keep the drop if
//! the violation persists) to a minimal mask before being reported.
//!
//! By layer:
//!
//! * this file — [`ChaosConfig`], the [`PRESETS`] table every front end
//!   names a configuration by, and the command line ([`parse_args`]) of
//!   both: `chaos_sweep`, the one seeded sweep, and `chaos`, which only
//!   replays;
//! * [`schedule`] — what a seed means: `generate_schedule` and the shape
//!   classifiers; runs no world;
//! * [`run`] — the only code that drives a world: `run_schedule` applies
//!   the steps, settles, questions the cluster and gathers an `Observed`;
//! * [`invariants`] — what must hold: one table of named, pure checks over
//!   an `Observed` (see [`invariants::INVARIANTS`] for the list);
//! * [`shrink`] — from a failing seed to a reproducer: `shrink`, the replay
//!   spec and command, and `run_seed`, the one per-seed sweep driver.

pub(crate) mod invariants;
pub(crate) mod run;
pub(crate) mod schedule;
pub mod shrink;

pub use invariants::Violation;
pub use run::{run_schedule, RunOutcome, RunStreams};
pub use schedule::{
    crash_repair_nodes, double_nic_nodes, full_mask, generate_schedule, gsd_kills,
    island_partitions, link_partitions, loss_bursts, nic_flaps, slow_storms, Step, StepAction,
    MAX_STEPS,
};
pub use shrink::{
    flight_recorder_dump, parse_replay, replay_command, run_seed, shrink, SeedRun, ShrinkOutcome,
};

use phoenix_kernel::{KernelParams, Rung};
use phoenix_proto::{ClusterTopology, PartitionId};
use phoenix_sim::{NetParams, SchedulerKind, SimDuration};

pub(crate) fn fmt_ns(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

/// Everything that shapes a chaos run besides the seed.
#[derive(Clone)]
pub struct ChaosConfig {
    pub partitions: usize,
    pub nodes_per_partition: usize,
    pub backups: usize,
    /// Upper bound on primary faults per schedule (repairs/heals ride along).
    pub max_faults: usize,
    /// Virtual-time window over which fault offsets are drawn.
    pub horizon: SimDuration,
    /// Trace-silence window that counts as quiescent.
    pub settle_window: SimDuration,
    /// Give up waiting for quiescence after this much extra virtual time.
    pub settle_deadline: SimDuration,
    /// The kernel's parameters. Its hardening rung also names the storms
    /// generated schedules carry beyond the base fault draw, each the
    /// adversary of that rung's layer (`schedule::generate_schedule`).
    pub params: KernelParams,
    /// Baseline network unreliability for the whole run (loss, duplication,
    /// reordering). All-zero by default, which keeps every pre-existing
    /// schedule byte-for-byte identical.
    pub net: NetParams,
    /// Which event-queue implementation the simulated world runs on. Runs
    /// must be byte-identical under every kind — the differential suite
    /// replays pinned seeds under each and compares the streams.
    pub scheduler: SchedulerKind,
    /// Record the per-event dispatch log and rendered trace into
    /// [`RunOutcome::streams`] for byte comparison. Off by default (the
    /// log allocates per event).
    pub record_streams: bool,
}

impl ChaosConfig {
    /// 3 partitions x 5 nodes, fast fault-tolerance parameters. This is the
    /// tier-1 / smoke configuration (`chaos --small`).
    pub fn small() -> ChaosConfig {
        ChaosConfig {
            partitions: 3,
            nodes_per_partition: 5,
            backups: 1,
            max_faults: 6,
            horizon: SimDuration::from_secs(10),
            settle_window: SimDuration::from_secs(8),
            settle_deadline: SimDuration::from_secs(120),
            params: KernelParams::fast(),
            net: NetParams::default(),
            scheduler: SchedulerKind::default(),
            record_streams: false,
        }
    }

    /// The small topology on an unreliable network: a baseline random-loss
    /// rate, loss-tolerant kernel parameters (retrying RPCs, K-of-N
    /// suspicion), and loss-burst steps mixed into the schedules.
    pub fn small_lossy(loss_permille: u16) -> ChaosConfig {
        ChaosConfig {
            params: KernelParams::fast_at(Rung::Lossy),
            net: NetParams::unreliable(loss_permille),
            ..ChaosConfig::small()
        }
    }

    /// The small topology with quorum regroup enabled and island-partition
    /// storms mixed into the schedules (`chaos --partition`). The horizon
    /// stretches so a storm's hold time (long enough for suspicion *and*
    /// the held-majority takeover delay to engage) plus the post-heal
    /// reconvergence fits before settling.
    pub fn small_partition() -> ChaosConfig {
        ChaosConfig {
            params: KernelParams::fast_at(Rung::Partition),
            horizon: SimDuration::from_secs(20),
            ..ChaosConfig::small()
        }
    }

    /// An even-partition-count topology (4 × 3 nodes) with the vote table
    /// and adaptive takeover delay on, and even-split storms in the
    /// schedules (`chaos --quorum`). The witness is designated away from
    /// the config partition (p1) so ordinary crash steps can also hit the
    /// witness's server, exercising rescue-under-witness and the
    /// witness-dead shapes.
    pub fn small_quorum() -> ChaosConfig {
        let mut params = KernelParams::fast_at(Rung::Quorum);
        params.ft.witness = Some(PartitionId(1));
        ChaosConfig {
            partitions: 4,
            nodes_per_partition: 3,
            backups: 1,
            max_faults: 5,
            horizon: SimDuration::from_secs(20),
            params,
            ..ChaosConfig::small()
        }
    }

    /// The small topology with the fail-slow detector on and gray-failure
    /// storms mixed into the schedules (`chaos --slow`). Slow nodes stay
    /// alive the whole time, so on top of the ordinary crash/kill shapes
    /// the run must show quarantine + drain + reinstatement converging —
    /// and never a dead verdict for a node that merely answered late.
    pub fn small_slow() -> ChaosConfig {
        ChaosConfig {
            params: KernelParams::fast_at(Rung::Slow),
            horizon: SimDuration::from_secs(20),
            ..ChaosConfig::small()
        }
    }

    /// The paper's testbed shape (8 partitions x 17 nodes) with the paper's
    /// 30 s heartbeat. Virtual time is cheap; wall-clock cost comes from
    /// node count, so this is the `--seeds`-few deep configuration.
    pub(crate) fn paper() -> ChaosConfig {
        ChaosConfig {
            partitions: 8,
            nodes_per_partition: 17,
            max_faults: 8,
            horizon: SimDuration::from_secs(120),
            settle_window: SimDuration::from_secs(70),
            settle_deadline: SimDuration::from_secs(1200),
            params: KernelParams::default(),
            ..ChaosConfig::small()
        }
    }

    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology::uniform(self.partitions, self.nodes_per_partition, self.backups)
    }
}

/// A named configuration: the command-line flag that selects it, and its
/// constructor. `chaos`, `chaos_sweep`, the differential suite and every
/// printed replay command name a configuration by its flag.
pub(crate) type Preset = (&'static str, fn() -> ChaosConfig);

/// `--lossy` takes its loss rate as an argument; the table lists it at the
/// one rate the pinned seeds, the ratchet and the benchmark use.
pub const PRESETS: &[Preset] = &[
    ("--small", ChaosConfig::small),
    ("--paper", ChaosConfig::paper),
    ("--lossy 20", || ChaosConfig::small_lossy(20)),
    ("--partition", ChaosConfig::small_partition),
    ("--quorum", ChaosConfig::small_quorum),
    ("--slow", ChaosConfig::small_slow),
];

/// A parsed `chaos` / `chaos_sweep` command line.
pub struct Cli {
    pub seeds: u64,
    pub seed_base: u64,
    /// The preset flag `cfg` was built from, as replay commands print it.
    pub flag: String,
    pub cfg: ChaosConfig,
    pub replay: Option<(u64, Option<u64>)>,
}

/// `[--seeds N] [--seed-base S] [PRESET] [--lossy PERMILLE]
/// [--replay SEED[:MASK_HEX]]` in any order. A preset flag names the whole
/// configuration: `--lossy` wins over any other, the last one given
/// otherwise, `--small` when none is. The seed range must be non-empty and
/// end at or below `u64::MAX`.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    }
    let (mut seeds, mut seed_base, mut replay) = (50, 1u64, None);
    let mut preset = &PRESETS[0];
    let mut lossy: Option<u16> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => seeds = number(arg, args.next())?,
            "--seed-base" => seed_base = number(arg, args.next())?,
            "--lossy" => lossy = Some(number(arg, args.next())?),
            "--replay" => {
                let spec = args.next().ok_or("--replay needs SEED[:MASK_HEX]")?;
                replay = Some(parse_replay(spec)?);
            }
            flag => {
                preset = PRESETS
                    .iter()
                    .find(|p| p.0 == flag)
                    .ok_or_else(|| format!("unknown argument {flag:?}"))?
            }
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if seed_base.checked_add(seeds - 1).is_none() {
        return Err(format!("{seeds} seeds from {seed_base} run past u64::MAX"));
    }
    let (flag, cfg) = match lossy {
        Some(permille) => (
            format!("--lossy {permille}"),
            ChaosConfig::small_lossy(permille),
        ),
        None => (preset.0.to_string(), preset.1()),
    };
    Ok(Cli {
        seeds,
        seed_base,
        flag,
        cfg,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::{boot_cluster, boot_cluster_with_net};

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = ChaosConfig::small();
        let (_w1, c1) = boot_cluster(cfg.topology(), cfg.params.clone(), 7);
        let (_w2, c2) = boot_cluster(cfg.topology(), cfg.params.clone(), 7);
        let s1 = generate_schedule(7, &cfg, &c1);
        let s2 = generate_schedule(7, &cfg, &c2);
        assert!(!s1.is_empty());
        assert_eq!(s1, s2);
        let other = generate_schedule(8, &cfg, &c1);
        assert_ne!(s1, other, "different seeds should differ");
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_lines_parse_or_say_why_not() {
        let cli = parse_args(&[]).unwrap();
        assert_eq!(
            (cli.seeds, cli.seed_base, cli.flag.as_str()),
            (50, 1, "--small")
        );
        assert!(cli.replay.is_none());
        let cli = parse_args(&args("--slow --seeds 7 --seed-base 40 --replay 9:1f")).unwrap();
        assert_eq!(
            (cli.seeds, cli.seed_base, cli.flag.as_str()),
            (7, 40, "--slow")
        );
        assert_eq!(cli.replay, Some((9, Some(0x1f))));
        for line in ["--quorum --lossy 20", "--lossy 20 --quorum"] {
            let cli = parse_args(&args(line)).unwrap();
            assert_eq!(
                cli.flag, "--lossy 20",
                "--lossy wins over another preset: {line}"
            );
            assert_eq!(cli.cfg.params.ft.rung, Rung::Lossy, "{line}");
        }
        for bad in [
            "--bogus",
            "--seeds",
            "--seeds x",
            "--lossy",
            "--replay",
            "--replay x",
            "--lossy 20 30",
            "--max-faults 3",
            "--seeds 0",
            "--seed-base 18446744073709551615 --seeds 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// Every table entry's flag parses back to the configuration its
    /// constructor builds: same schedules, same testbed, and the flag a
    /// replay command will print. (One boot per entry: a schedule names
    /// boot-time pids.)
    #[test]
    fn every_preset_flag_round_trips_through_the_command_line() {
        for &(flag, config) in PRESETS {
            let built = config();
            let cli = parse_args(&args(flag)).unwrap();
            assert_eq!(cli.flag, flag);
            assert_eq!(
                (
                    cli.cfg.partitions,
                    cli.cfg.nodes_per_partition,
                    cli.cfg.max_faults
                ),
                (
                    built.partitions,
                    built.nodes_per_partition,
                    built.max_faults
                ),
                "{}",
                flag
            );
            let (_world, cluster) =
                boot_cluster_with_net(built.topology(), built.params.clone(), 1, built.net.clone());
            for seed in 1..=5 {
                assert_eq!(
                    generate_schedule(seed, &cli.cfg, &cluster),
                    generate_schedule(seed, &built, &cluster),
                    "{} seed {seed}",
                    flag
                );
            }
            assert!(
                replay_command(3, 0b101, 4, flag).contains(&format!("-- {} --replay 3:5", flag))
            );
        }
    }

    #[test]
    fn empty_mask_runs_clean() {
        let cfg = ChaosConfig::small();
        let out = run_schedule(3, &cfg, 0, false);
        assert_eq!(out.faults_injected, 0);
        assert!(out.quiesced, "fault-free cluster must quiesce");
        assert!(
            out.violations.is_empty(),
            "fault-free run violated invariants: {:?}",
            out.violations
        );
    }

    #[test]
    fn replay_spec_round_trips() {
        assert_eq!(parse_replay("42").unwrap(), (42, None));
        assert_eq!(parse_replay("42:1f").unwrap(), (42, Some(0x1f)));
        assert_eq!(parse_replay("42:0x1f").unwrap(), (42, Some(0x1f)));
        assert!(parse_replay("x").is_err());
        assert!(parse_replay("1:zz").is_err());
    }

    /// Not a test: a helper scan for maintainers picking new pinned seeds
    /// for `tests/chaos_regressions.rs`. Run with
    /// `cargo test -p phoenix-chaos --release -- --ignored --nocapture scan`.
    #[test]
    #[ignore]
    fn scan_for_interesting_seeds() {
        let cfg = ChaosConfig::small();
        for seed in 1..=3000u64 {
            let (_w, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), seed);
            let steps = generate_schedule(seed, &cfg, &cluster);
            let gsd = gsd_kills(&steps, &cluster);
            let nic = double_nic_nodes(&steps, cfg.horizon);
            let links = link_partitions(&steps);
            let repairs = crash_repair_nodes(&steps);
            let mut tags = Vec::new();
            if gsd.contains(&PartitionId(0)) && gsd.len() >= 2 {
                tags.push("leader+gsd-kill".to_string());
            } else if gsd.contains(&PartitionId(0)) {
                tags.push("leader-kill".to_string());
            }
            if !nic.is_empty() {
                tags.push(format!("double-nic(n{})", nic[0].0));
            }
            if links >= 2 {
                tags.push(format!("links({links})"));
            }
            if !repairs.is_empty() {
                tags.push(format!("crash-repair({})", repairs.len()));
            }
            if !tags.is_empty() {
                println!("seed {seed:>4}: {} steps  {}", steps.len(), tags.join(" "));
            }
        }
    }

    /// Not a test: scan for lossy-mode pin candidates (a loss burst in the
    /// same schedule as a GSD kill). Run with
    /// `cargo test -p phoenix-chaos --release -- --ignored --nocapture lossy_scan`.
    #[test]
    #[ignore]
    fn lossy_scan_for_interesting_seeds() {
        let cfg = ChaosConfig::small_lossy(20);
        for seed in 1..=400u64 {
            let (_w, cluster) =
                boot_cluster_with_net(cfg.topology(), cfg.params.clone(), seed, cfg.net.clone());
            let steps = generate_schedule(seed, &cfg, &cluster);
            let gsd = gsd_kills(&steps, &cluster);
            let bursts = loss_bursts(&steps);
            if bursts > 0 && !gsd.is_empty() {
                println!(
                    "seed {seed:>4}: {} steps, {} burst(s), gsd kills {:?}",
                    steps.len(),
                    bursts,
                    gsd.iter().map(|p| p.0).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Not a test: scan for partition-storm pin candidates (an island
    /// storm in the same schedule as a GSD kill or node crash/repair).
    /// Run with
    /// `cargo test -p phoenix-chaos --release -- --ignored --nocapture partition_scan`.
    #[test]
    #[ignore]
    fn partition_scan_for_interesting_seeds() {
        let cfg = ChaosConfig::small_partition();
        for seed in 1..=400u64 {
            let (_w, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), seed);
            let steps = generate_schedule(seed, &cfg, &cluster);
            let storms = island_partitions(&steps);
            let gsd = gsd_kills(&steps, &cluster);
            let repairs = crash_repair_nodes(&steps);
            if storms >= 2 && (!gsd.is_empty() || !repairs.is_empty()) {
                println!(
                    "seed {seed:>4}: {} steps, {} storm(s), gsd kills {:?}, repairs {}",
                    steps.len(),
                    storms,
                    gsd.iter().map(|p| p.0).collect::<Vec<_>>(),
                    repairs.len()
                );
            }
        }
    }

    /// Lossy seed 347 fails `wd-convergence`. Dropping everything but step
    /// 7 (a `LossBurst` whose clearing step went with the rest) still
    /// fails, but as `quiescence`: a shrinker that accepts that reports a
    /// reproducer for another bug than the one it announced.
    #[test]
    fn a_shrunk_reproducer_reproduces_the_reported_invariant() {
        let cfg = ChaosConfig::small_lossy(20);
        let first = |out: &RunOutcome| out.violations.first().map(|v| v.invariant);
        let full = run_schedule(347, &cfg, u64::MAX, false);
        assert_eq!(
            first(&full),
            Some("wd-convergence"),
            "pin drifted: re-pick a seed"
        );
        let drifted = run_schedule(347, &cfg, 0x80, false);
        assert_eq!(
            first(&drifted),
            Some("quiescence"),
            "pin drifted: re-pick a mask"
        );
        let shrunk = shrink(&cfg, &full);
        assert!(shrunk.steps < full.total_steps, "nothing was dropped");
        assert_ne!(shrunk.mask, 0x80);
        let replayed = run_schedule(347, &cfg, shrunk.mask, false);
        assert_eq!(first(&replayed), first(&full));
    }

    #[test]
    fn full_mask_covers_schedule() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), u64::MAX);
    }
}
