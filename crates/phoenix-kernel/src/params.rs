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
    /// How many consecutive heartbeats must go missing (on every NIC)
    /// before the GSD suspects a peer. 1 reproduces the paper's
    /// single-deadline detector exactly; loss-tolerant profiles raise it so
    /// one dropped beat never starts a diagnosis.
    pub(crate) suspect_beats: u32,
    /// Re-check heartbeat freshness when a probe concludes and abort the
    /// diagnosis if beats resumed meanwhile (they were merely lost, not
    /// stopped). Off by default to keep the paper pipeline byte-identical.
    pub(crate) probe_abort_on_fresh: bool,
    /// Per-NIC health scoring and adaptive routing (heartbeat acks, EWMA
    /// scores, best-NIC preference for probes/meta-ring traffic). Disabled
    /// by default so the paper pipeline stays byte-identical.
    pub(crate) nic: NicHealthParams,
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
            suspect_beats: 1,
            probe_abort_on_fresh: false,
            nic: NicHealthParams::default(),
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
    /// Retry policy for kernel request/reply paths (config, checkpoint,
    /// bulletin federation, event registration). The default policy makes
    /// no retries, preserving the original single-shot behaviour.
    pub rpc: RetryPolicy,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            ft: FtParams::default(),
            detector_sample: SimDuration::from_secs(10),
            fed_query_timeout: SimDuration::from_millis(500),
            rpc: RetryPolicy::none(),
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

    /// Fast profile hardened for a lossy network: K-of-N suspicion,
    /// probe-freshness aborts, per-NIC health scoring and bounded retries
    /// with backoff on every request/reply path.
    pub fn fast_lossy() -> KernelParams {
        let mut p = KernelParams::fast();
        p.ft.suspect_beats = 3;
        p.ft.probe_abort_on_fresh = true;
        p.ft.nic = NicHealthParams::lossy();
        p.rpc = RetryPolicy::lossy();
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

    #[test]
    fn defaults_disable_loss_hardening() {
        // The paper pipeline must stay byte-identical: no K-of-N widening,
        // no probe aborts, no retries unless a lossy profile opts in.
        let p = KernelParams::default();
        assert_eq!(p.ft.suspect_beats, 1);
        assert!(!p.ft.probe_abort_on_fresh);
        assert!(!p.rpc.retries_enabled());
        assert!(!p.ft.nic.enabled, "NIC-health layer must default off");
        assert!(!p.ft.regroup.enabled, "regroup layer must default off");
        assert!(!KernelParams::fast().ft.nic.enabled);
        assert!(!KernelParams::fast().ft.regroup.enabled);
        let l = KernelParams::fast_lossy();
        assert!(l.ft.suspect_beats > 1);
        assert!(l.ft.probe_abort_on_fresh);
        assert!(l.rpc.retries_enabled());
        assert!(l.ft.nic.enabled);
        assert!(!l.ft.regroup.enabled, "lossy profile stays regroup-free");
        let q = KernelParams::fast_partition();
        assert!(q.ft.regroup.enabled);
        assert!(q.ft.nic.enabled, "partition profile keeps loss hardening");
        assert!(q.rpc.retries_enabled());
        // The vote table and adaptive delay are a further opt-in layer:
        // the partition profile (and every pinned seed that uses it)
        // must stay on plain count majority with the fixed delay.
        assert!(!q.ft.regroup.votes.enabled, "partition profile: no votes");
        assert!(!q.ft.regroup.adaptive_delay, "partition profile: fixed delay");
        let w = KernelParams::fast_quorum();
        assert!(w.ft.regroup.enabled);
        assert!(w.ft.regroup.votes.enabled);
        assert!(w.ft.regroup.adaptive_delay);
        assert!(w.ft.nic.enabled, "quorum profile keeps loss hardening");
        assert!(w.rpc.retries_enabled());
        // The fail-slow layer is a further opt-in: every profile below
        // fast_slow() (and every pinned seed using them) stays fail-stop.
        assert!(!p.ft.slow.enabled, "fail-slow layer must default off");
        assert!(!KernelParams::fast().ft.slow.enabled);
        assert!(!l.ft.slow.enabled);
        assert!(!q.ft.slow.enabled);
        assert!(!w.ft.slow.enabled, "quorum profile stays fail-stop");
        let s = KernelParams::fast_slow();
        assert!(s.ft.slow.enabled);
        assert!(s.ft.regroup.enabled, "slow profile keeps quorum regroup");
        assert!(s.ft.regroup.votes.enabled);
        assert!(s.ft.nic.enabled, "slow profile keeps loss hardening");
        assert!(s.rpc.retries_enabled());
    }
}
