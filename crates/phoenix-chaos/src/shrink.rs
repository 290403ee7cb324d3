//! From a failing seed to a reproducer: the greedy shrinker, the
//! `SEED[:MASK]` replay spec and command, the flight-recorder dump a replay
//! ends with, and [`run_seed`] — the one run → shrink → report sequence
//! behind `chaos_sweep`, the one seeded chaos sweep.

use std::fmt;

use phoenix_telemetry::Json;

use crate::{fmt_ns, full_mask, run_schedule, ChaosConfig, RunOutcome, MAX_STEPS};

/// Result of greedily shrinking a failing schedule.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkOutcome {
    /// Minimal failing mask found.
    pub(crate) mask: u64,
    /// Steps remaining in the minimal schedule.
    pub steps: usize,
    /// Schedule executions spent shrinking.
    pub runs: usize,
}

/// Greedy ddmin-lite over the failed run `failed` of `cfg`: repeatedly try
/// dropping one selected step; keep the drop if the run still fails *the
/// same way* — its first violation is of the invariant `failed`'s first
/// violation was of; stop at a fixpoint. The result is 1-minimal with
/// respect to single-step removal, and reproduces what was reported:
/// keeping any failing candidate drifts to other bugs, most often to
/// `quiescence` once the step that clears a loss burst or heals a link is
/// dropped.
pub fn shrink(cfg: &ChaosConfig, failed: &RunOutcome) -> ShrinkOutcome {
    let (seed, total_steps) = (failed.seed, failed.total_steps);
    let reported = failed.violations.first().map(|v| v.invariant);
    let mut mask = full_mask(total_steps);
    let mut runs = 0usize;
    loop {
        let mut improved = false;
        for i in 0..total_steps.min(MAX_STEPS) {
            let bit = 1u64 << i;
            if mask & bit == 0 {
                continue;
            }
            let candidate = mask & !bit;
            runs += 1;
            // A candidate's world is dropped with whatever spans it left
            // open, which the next candidate's telemetry-leak check would
            // count: give it a registry of its own (dropped with the shard;
            // the caller's registry is untouched).
            let _isolated = phoenix_telemetry::shard_begin();
            let out = run_schedule(seed, cfg, candidate, false);
            if out.failed() && out.violations.first().map(|v| v.invariant) == reported {
                mask = candidate;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    ShrinkOutcome {
        mask,
        steps: mask.count_ones() as usize,
        runs,
    }
}

/// One seed of a sweep: its full schedule run and, if that failed, the
/// shrunk reproducer with the command that replays it.
pub struct SeedRun {
    pub out: RunOutcome,
    pub shrunk: Option<(ShrinkOutcome, String)>,
}

/// Run `seed`'s whole schedule under `cfg` — the preset `flag` selects —
/// and shrink it if it fails. Records into the caller's telemetry registry,
/// which must be fresh: spans an earlier schedule's world was dropped with
/// would read as leaks to the telemetry-leak check.
pub fn run_seed(seed: u64, cfg: &ChaosConfig, flag: &str) -> SeedRun {
    let out = run_schedule(seed, cfg, u64::MAX, false);
    let shrunk = out.failed().then(|| {
        let s = shrink(cfg, &out);
        (s, replay_command(seed, s.mask, out.total_steps, flag))
    });
    SeedRun { out, shrunk }
}

/// The lines a sweep prints for this seed: none when it ran clean.
impl fmt::Display for SeedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let out = &self.out;
        let Some((s, replay)) = &self.shrunk else {
            return Ok(());
        };
        writeln!(
            f,
            "  seed {:>5}: FAIL ({} steps, {} faults) — {} violation(s):",
            out.seed,
            out.applied_steps,
            out.faults_injected,
            out.violations.len()
        )?;
        for v in &out.violations {
            writeln!(f, "      {v}")?;
        }
        writeln!(
            f,
            "      shrunk {} -> {} steps in {} runs; minimal mask {:#x}",
            out.total_steps, s.steps, s.runs, s.mask
        )?;
        writeln!(f, "      replay: {replay}")
    }
}

impl SeedRun {
    /// This seed's row of `BENCH_chaos.json`.
    pub fn json_row(&self) -> Json {
        let out = &self.out;
        let row = Json::obj()
            .set("seed", Json::Num(out.seed as f64))
            .set("steps", Json::Num(out.applied_steps as f64))
            .set("faults", Json::Num(out.faults_injected as f64))
            .set("gsd_died", Json::Bool(out.gsd_died))
            .set("quiesced", Json::Bool(out.quiesced))
            .set("virtual_s", Json::Num(out.virtual_ns as f64 / 1e9))
            .set("violations", Json::Num(out.violations.len() as f64));
        let Some((s, replay)) = &self.shrunk else {
            return row;
        };
        let details = out
            .violations
            .iter()
            .map(|v| Json::str(v.to_string()))
            .collect();
        row.set("violation_details", Json::Arr(details))
            .set("shrunk_mask", Json::str(format!("{:#x}", s.mask)))
            .set("shrunk_steps", Json::Num(s.steps as f64))
            .set("shrink_runs", Json::Num(s.runs as f64))
            .set("replay", Json::str(replay.clone()))
    }
}

/// Parse a `SEED` or `SEED:MASK_HEX` replay spec.
pub fn parse_replay(spec: &str) -> Result<(u64, Option<u64>), String> {
    let mut parts = spec.splitn(2, ':');
    let seed = parts
        .next()
        .unwrap_or("")
        .parse::<u64>()
        .map_err(|_| format!("bad seed in replay spec {spec:?}"))?;
    match parts.next() {
        None => Ok((seed, None)),
        Some(hex) => {
            let mask = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|_| format!("bad hex mask in replay spec {spec:?}"))?;
            Ok((seed, Some(mask)))
        }
    }
}

/// The exact command that reproduces a (possibly shrunk) failure. `flag`
/// is the [`crate::PRESETS`] flag selecting the configuration the failure
/// was found under (`"--small"`, `"--partition"`, `"--lossy 20"`, …).
pub fn replay_command(seed: u64, mask: u64, total_steps: usize, flag: &str) -> String {
    let spec = if mask == full_mask(total_steps) {
        format!("{seed}")
    } else {
        format!("{seed}:{mask:x}")
    };
    format!("cargo run --release -p phoenix-chaos --bin chaos -- {flag} --replay {spec}")
}

/// Render the tail of the telemetry flight recorder (most recent spans
/// last, in virtual-time order of span end) as one line per span. Also the
/// byte-comparison surface of the differential suite: two runs with
/// identical recorders render identically.
pub fn flight_recorder_dump(limit: usize) -> String {
    use std::fmt::Write as _;
    phoenix_telemetry::with(|reg| {
        let mut out = String::new();
        let spans = reg.recorder().newest(limit);
        let skip = reg.recorder().len() - spans.len();
        if skip > 0 || reg.recorder().evicted() > 0 {
            let _ = writeln!(
                out,
                "  ... ({} earlier spans not shown, {} evicted from rings)",
                skip,
                reg.recorder().evicted()
            );
        }
        for s in spans {
            let _ = writeln!(
                out,
                "  [{:>10} - {:>10}] node {:>2} {:<12} {}{}",
                fmt_ns(s.start_ns),
                fmt_ns(s.end_ns),
                s.node,
                s.service,
                s.path,
                if s.aborted {
                    " (aborted: node died)"
                } else {
                    ""
                }
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn seed_run(violations: Vec<Violation>, shrunk: Option<(ShrinkOutcome, String)>) -> SeedRun {
        let out = RunOutcome {
            seed: 347,
            total_steps: 9,
            applied_steps: 9,
            faults_injected: 6,
            gsd_died: true,
            quiesced: true,
            virtual_ns: 41_500_000_000,
            violations,
            streams: None,
        };
        SeedRun { out, shrunk }
    }

    /// The ratchet in scripts/verify.sh reads failing seeds off the
    /// `  seed N: FAIL` line, and a failure is only useful with its replay
    /// command: pin what a sweep prints, and that a clean seed prints
    /// nothing.
    #[test]
    fn a_failing_seed_prints_its_violations_and_replay_a_clean_one_nothing() {
        let shrunk = ShrinkOutcome {
            mask: 0x90,
            steps: 2,
            runs: 14,
        };
        let replay = replay_command(347, shrunk.mask, 9, "--lossy 20");
        let violation = Violation {
            invariant: "wd-convergence",
            detail: "node 4 has no live WD".into(),
        };
        let failing = seed_run(vec![violation], Some((shrunk, replay)));
        assert_eq!(
            failing.to_string(),
            "  seed   347: FAIL (9 steps, 6 faults) — 1 violation(s):\n\
             \x20     [wd-convergence] node 4 has no live WD\n\
             \x20     shrunk 9 -> 2 steps in 14 runs; minimal mask 0x90\n\
             \x20     replay: cargo run --release -p phoenix-chaos --bin chaos -- \
             --lossy 20 --replay 347:90\n"
        );
        assert_eq!(seed_run(Vec::new(), None).to_string(), "");
    }
}
