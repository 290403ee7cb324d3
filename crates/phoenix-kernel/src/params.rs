//! Kernel tuning parameters.
//!
//! The fault-tolerance timings are calibrated so that the default
//! configuration reproduces the timing pipeline of the paper's Tables 1–3:
//! detection ≈ heartbeat interval (30 s configured on the Dawning 4000A
//! testbed) and sub-second diagnosis. What a deployment tunes is a
//! parameter here — the paper says so of the heartbeat: "the interval for
//! sending heartbeat can be configured as a system parameter". What the
//! paper *measured* on that machine — analysis, restart and migration
//! costs — is a constant beside the code that spends it (`group::gsd`,
//! `group::failover`, `federation`), as are the regroup protocol's fixed
//! windows (`regroup`).

use crate::nic_health::NicHealthParams;
use crate::regroup::RegroupParams;
use crate::rpc::RetryPolicy;
use crate::slow_detect::SlowDetectParams;
use phoenix_sim::SimDuration;

/// Fault-tolerance timing parameters (paper Sec 5.1).
#[derive(Clone, Debug)]
pub struct FtParams {
    /// Watch-daemon / meta-group / service heartbeat interval.
    /// 30 s in the paper's testbed.
    pub hb_interval: SimDuration,
    /// Extra slack past the interval before a heartbeat counts as missed
    /// (absorbs network latency and jitter).
    pub(crate) hb_grace: SimDuration,
    /// How often a GSD scans its heartbeat deadlines.
    pub(crate) check_interval: SimDuration,
    /// Probe rounds used to confirm a process failure (node answers, the
    /// daemon does not).
    pub(crate) probe_rounds: u32,
    /// Spacing between probe rounds. `probe_rounds × spacing` reproduces
    /// the paper's ≈0.29 s process-fault diagnosing time.
    pub(crate) probe_round_interval: SimDuration,
    /// Silence window after which a WD-monitored node is declared dead
    /// (Table 1 node row: 2 s).
    pub(crate) wd_node_probe_timeout: SimDuration,
    /// Silence window for a meta-group neighbour's node (Tables 2–3 node
    /// rows: 0.3 s — the ring observer already has corroborating state).
    pub(crate) meta_node_probe_timeout: SimDuration,
    /// The loss-hardening rung, one switch for every layer it touches:
    /// K-of-N suspicion (`liveness::window`), probe-freshness aborts
    /// (`Probes`), per-NIC health scoring and routing (`NicHealth`),
    /// bounded retries with backoff on request/reply paths
    /// (`FtParams::retry`), and directory and wiring re-assertion
    /// (`DirSync`, config). Off by default so the paper pipeline stays
    /// byte-identical; `KernelParams::fast_lossy()` turns it on.
    pub(crate) lossy: bool,
    /// MSCS-style quorum regroup (epochs, majority quorum, minority
    /// freeze). Disabled by default so the paper pipeline stays
    /// byte-identical; partition-tolerant profiles opt in.
    pub regroup: RegroupParams,
    /// Fail-slow detection (per-peer RTT scores, three-state verdict,
    /// hysteretic quarantine). Disabled by default so the fail-stop
    /// pipeline stays byte-identical; `fast_slow()` opts in.
    pub slow: SlowDetectParams,
}

impl Default for FtParams {
    fn default() -> Self {
        FtParams {
            hb_interval: SimDuration::from_secs(30),
            hb_grace: SimDuration::from_millis(200),
            check_interval: SimDuration::from_millis(100),
            probe_rounds: 3,
            probe_round_interval: SimDuration::from_millis(95),
            wd_node_probe_timeout: SimDuration::from_secs(2),
            meta_node_probe_timeout: SimDuration::from_millis(295),
            lossy: false,
            regroup: RegroupParams::default(),
            slow: SlowDetectParams::default(),
        }
    }
}

impl FtParams {
    /// A fast profile for unit tests: second-scale heartbeats so tests run
    /// through failure→recovery cycles in little virtual time.
    pub fn fast() -> FtParams {
        FtParams {
            hb_interval: SimDuration::from_secs(1),
            hb_grace: SimDuration::from_millis(50),
            check_interval: SimDuration::from_millis(25),
            probe_rounds: 2,
            probe_round_interval: SimDuration::from_millis(20),
            wd_node_probe_timeout: SimDuration::from_millis(200),
            meta_node_probe_timeout: SimDuration::from_millis(100),
            ..FtParams::default()
        }
    }

    /// The per-NIC health layer, on with the lossy switch.
    pub(crate) fn nic_health(&self) -> NicHealthParams {
        NicHealthParams {
            enabled: self.lossy,
        }
    }

    /// The retry policy every kernel request/reply path follows.
    pub(crate) fn retry(&self) -> RetryPolicy {
        if self.lossy {
            RetryPolicy::lossy()
        } else {
            RetryPolicy::none()
        }
    }
}

/// The heartbeat interval a `CfgSetParam` push sets, if it sets one: key
/// `hb_interval_ms`, a whole number of milliseconds (0 reads as 1).
pub(crate) fn pushed_hb_interval(key: &str, value: &str) -> Option<SimDuration> {
    if key != "hb_interval_ms" {
        return None;
    }
    let ms: u64 = value.parse().ok()?;
    Some(SimDuration::from_millis(ms.max(1)))
}

/// All kernel parameters.
#[derive(Clone, Debug)]
pub struct KernelParams {
    pub ft: FtParams,
    /// How often detectors sample resources and export to the bulletin.
    pub detector_sample: SimDuration,
    /// How long a bulletin waits for federation peers before answering a
    /// query with `complete = false`.
    pub fed_query_timeout: SimDuration,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            ft: FtParams::default(),
            detector_sample: SimDuration::from_secs(10),
            fed_query_timeout: SimDuration::from_millis(500),
        }
    }
}

impl KernelParams {
    /// Fast profile for unit tests.
    pub fn fast() -> KernelParams {
        KernelParams {
            ft: FtParams::fast(),
            detector_sample: SimDuration::from_millis(500),
            fed_query_timeout: SimDuration::from_millis(100),
            ..KernelParams::default()
        }
    }

    /// Fast profile hardened for a lossy network: the `FtParams::lossy`
    /// switch on, and with it 3-beat suspicion, probe-freshness aborts,
    /// per-NIC health scoring and bounded retries with backoff on the
    /// checkpoint sync, directory query and bulletin federation paths.
    pub fn fast_lossy() -> KernelParams {
        let mut p = KernelParams::fast();
        p.ft.lossy = true;
        p
    }

    /// Lossy profile plus MSCS-style quorum regroup: partition faults
    /// freeze the minority side instead of letting it elect a leader. The
    /// regroup round must conclude well before a suspicion ripens into a
    /// takeover, so a minority side freezes before the majority elects a
    /// replacement leader.
    pub fn fast_partition() -> KernelParams {
        let mut p = KernelParams::fast_lossy();
        p.ft.regroup = RegroupParams::fast();
        p
    }

    /// Partition profile plus weighted/witness quorum and adaptive
    /// takeover delay: the configuration for every even-split scenario.
    pub fn fast_quorum() -> KernelParams {
        let mut p = KernelParams::fast_partition();
        p.ft.regroup = RegroupParams::quorum();
        p
    }

    /// Quorum profile plus fail-slow detection (per-peer RTT scoring,
    /// hysteretic quarantine and the slow-leader handoff): the
    /// configuration for every gray-failure scenario. The full
    /// regroup/vote machinery stays on so "slow ≠ down" is tested against
    /// the takeover licence, not in isolation.
    pub fn fast_slow() -> KernelParams {
        let mut p = KernelParams::fast_quorum();
        p.ft.slow = SlowDetectParams::slow();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let p = FtParams::default();
        assert_eq!(p.hb_interval, SimDuration::from_secs(30));
        assert_eq!(p.wd_node_probe_timeout, SimDuration::from_secs(2));
        // Process diagnosis ≈ probe_rounds × interval ≈ 0.29 s.
        let diag = p.probe_round_interval * p.probe_rounds as u64;
        assert!(diag.as_secs_f64() > 0.25 && diag.as_secs_f64() < 0.33);
    }

    #[test]
    fn fast_profile_is_faster() {
        let f = FtParams::fast();
        assert!(f.hb_interval < FtParams::default().hb_interval);
        assert!(f.wd_node_probe_timeout < FtParams::default().wd_node_probe_timeout);
    }

    /// What every layer derives from each named profile, one row per
    /// constructor: a rung change shows up as one row moving. The paper
    /// profiles (`default`, `fast`) must keep every hardening layer off so
    /// the paper pipeline stays byte-identical.
    #[test]
    fn every_profile_pins_what_each_layer_derives() {
        use crate::group::liveness::window;
        use crate::group::probe::Probes;
        use crate::nic_health::NicHealth;
        use KernelParams as K;
        // (suspicion window ms, abort on fresh beats, NIC health, send
        //  attempts, regroup, vote table, adaptive delay, fail-slow)
        type Row = (u64, bool, bool, u32, bool, bool, bool, bool);
        let rows: [(&str, fn() -> K, Row); 6] = [
            ("default", K::default, (30200, false, false, 1, false, false, false, false)),
            ("fast", K::fast, (1050, false, false, 1, false, false, false, false)),
            ("fast_lossy", K::fast_lossy, (3050, true, true, 4, false, false, false, false)),
            ("fast_partition", K::fast_partition, (3050, true, true, 4, true, false, false, false)),
            ("fast_quorum", K::fast_quorum, (3050, true, true, 4, true, true, true, false)),
            ("fast_slow", K::fast_slow, (3050, true, true, 4, true, true, true, true)),
        ];
        for (name, profile, want) in rows {
            let ft = &profile().ft;
            let got = (
                window(ft).as_nanos() / 1_000_000,
                Probes::new(ft).abort_on_fresh,
                NicHealth::new(ft.nic_health(), 0).enabled(),
                ft.retry().max_attempts,
                ft.regroup.enabled,
                ft.regroup.votes.enabled,
                ft.regroup.adaptive_delay,
                ft.slow.enabled,
            );
            assert_eq!(got, want, "{name}");
        }
    }
}
