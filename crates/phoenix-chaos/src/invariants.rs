//! Invariants: what must hold. One table — [`INVARIANTS`], `(name, when,
//! check)` — over one [`Observed`], the facts `run` read off the world for
//! this check. A check is a pure function of the observation: it drives
//! nothing, so every row is testable from a hand-built `Observed` and
//! reusable by anything that can fill one in. Violations go to one sink,
//! [`Violations`], which stamps them with the row's name.

use std::fmt;

use phoenix_kernel::boot::GsdView;
use phoenix_proto::{ClusterTopology, PartitionId, PartitionSpec};
use phoenix_sim::{ArenaStats, NodeId, Pid, SimDuration, SimTime};

use crate::fmt_ns;

/// A single invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Where checks report. [`check`] sets the invariant being checked; the
/// check only says what is wrong.
#[derive(Default)]
pub(crate) struct Violations {
    list: Vec<Violation>,
    invariant: &'static str,
}

impl Violations {
    pub(crate) fn fail(&mut self, detail: impl Into<String>) {
        self.list.push(Violation {
            invariant: self.invariant,
            detail: detail.into(),
        });
    }

    /// Report unless this invariant already has a violation in this run: a
    /// sampled invariant that breaks stays broken for many samples, and a
    /// run reports each once.
    pub(crate) fn fail_once(&mut self, detail: impl Into<String>) {
        if !self.list.iter().any(|v| v.invariant == self.invariant) {
            self.fail(detail);
        }
    }

    pub(crate) fn into_vec(self) -> Vec<Violation> {
        self.list
    }
}

/// When a row of the table is checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum When {
    /// Every 100 ms while an island split is active — a split brain is
    /// precisely a *transient* with two sides acting at once, which no
    /// post-quiescence check can see.
    Sampled,
    /// Once, after the fault cascade settled (or failed to).
    Quiesced,
}

/// A row of the table: the name violations are reported under, when it is
/// checked, and the check.
pub(crate) type Invariant = (&'static str, When, fn(&Observed, &mut Violations));

/// Every invariant, in the order a run reports them.
pub(crate) const INVARIANTS: &[Invariant] = &[
    ("split-brain", When::Sampled, split_brain),
    ("minority-leader", When::Sampled, minority_leader),
    ("quorum-dark", When::Sampled, quorum_dark),
    ("quiescence", When::Quiesced, quiescence),
    ("meta-leader", When::Quiesced, meta_leader),
    ("wd-convergence", When::Quiesced, wd_convergence),
    ("takeover", When::Quiesced, takeover),
    ("bulletin", When::Quiesced, bulletin),
    ("event-delivery", When::Quiesced, event_delivery),
    ("telemetry-leak", When::Quiesced, telemetry_leak),
    ("arena-leak", When::Quiesced, arena_leak),
    ("slow-not-dead", When::Quiesced, slow_not_dead),
    ("slow-quarantine", When::Quiesced, slow_quarantine),
];

/// Check every `when` row of the table against `obs`.
pub(crate) fn check(when: When, obs: &Observed, violations: &mut Violations) {
    for &(name, _, check) in INVARIANTS.iter().filter(|row| row.1 == when) {
        violations.invariant = name;
        check(obs, violations);
    }
}

// ---------------------------------------------------------------------------
// The observation
// ---------------------------------------------------------------------------

/// What one check reads: `split` for the [`When::Sampled`] rows, `settled`
/// for the [`When::Quiesced`] ones.
pub(crate) struct Observed<'a> {
    pub(crate) topology: &'a ClusterTopology,
    pub(crate) hb_interval: SimDuration,
    pub(crate) now: SimTime,
    /// Every live GSD, by node then pid.
    pub(crate) gsds: Vec<GsdView>,
    /// Sampled: the active island split.
    pub(crate) split: Option<Split>,
    /// Quiesced: what the settled (or unsettled) cluster answered.
    pub(crate) settled: Option<Settled>,
}

/// An active island split, as one sample sees it.
pub(crate) struct Split {
    /// Node `n` is on the island iff bit `n` is set.
    pub island: u64,
    /// How long the island has stood.
    pub(crate) held: SimDuration,
    /// Time since the last schedule step. The sampled checks grant the
    /// protocol a reaction window after *any* step, not just island
    /// formation: a GSD kill or node repair mid-split shifts the weighted
    /// verdict instantly in the oracle, while the cluster needs a detection
    /// pipeline to catch up.
    pub(crate) since_step: SimDuration,
    /// The weighted rule's inputs; `None` under the count rule.
    pub(crate) votes: Option<Votes>,
}

pub(crate) struct Votes {
    /// The witness may have failed over mid-run: the freshest witness view
    /// off the live GSDs, else the configured one.
    pub(crate) witness: PartitionId,
    /// Whether node `n` is up, by node id.
    pub(crate) up: Vec<bool>,
}

pub(crate) struct Settled {
    /// `Some((window, deadline))`: the trace never went quiet.
    pub(crate) unquiet: Option<(SimDuration, SimDuration)>,
    /// What followed a fresh directory from the config service; `None`
    /// when it never answered, which leaves invariants 2-7 unchecked.
    pub(crate) directory: Option<Answers>,
    pub(crate) slow_windows: Vec<SlowWindow>,
    /// Every `NodeFailure` diagnosis in the trace.
    pub(crate) dead_verdicts: Vec<(NodeId, SimTime)>,
    /// Each live GSD's quarantine view once all slowness healed (gathered
    /// only with the fail-slow detector on).
    pub(crate) quarantines: Vec<(PartitionId, Vec<PartitionId>)>,
}

pub(crate) struct Answers {
    /// Whom the WD of every up node heartbeats.
    pub(crate) wiring: Vec<(NodeId, Wiring)>,
    /// A step killed a live GSD (directly or by crashing its node).
    pub(crate) gsd_died: bool,
    /// No network fault and no baseline loss: nothing but a death may raise
    /// suspicion.
    pub(crate) clean_network: bool,
    /// Growth of the `gsd.takeover` histogram over the run.
    pub(crate) takeovers: u64,
    pub(crate) bulletin: Bulletin,
    /// Per partition with a live event service, whether its consumer got
    /// the published event.
    pub(crate) deliveries: Vec<(PartitionId, bool)>,
    /// Telemetry spans still open.
    pub(crate) open_spans: usize,
    pub(crate) pool: ArenaStats,
    pub(crate) queued: usize,
}

pub(crate) enum Wiring {
    /// The node is missing from the service directory.
    Unlisted,
    WdDead(Pid),
    /// The WD heartbeats `pid`, the live GSD of partition `gsd_of` (or not
    /// a live GSD at all).
    Heartbeats {
        pid: Pid,
        gsd_of: Option<PartitionId>,
    },
}

pub(crate) struct Bulletin {
    pub(crate) pid: Pid,
    /// `Some(complete)` of the last answer.
    pub(crate) answer: Option<bool>,
    /// Nodes with a resource entry in any answer.
    pub(crate) seen: Vec<NodeId>,
    /// Nodes up once the query was over.
    pub(crate) up: Vec<NodeId>,
}

/// One fail-slow episode as applied to the world. `clean` means no network
/// fault touched the node (or the whole network) while it was slow, so a
/// dead-diagnosis inside the window is unambiguously a false positive of
/// the fail-stop pipeline — the node was answering the whole time, late.
pub(crate) struct SlowWindow {
    pub(crate) node: NodeId,
    pub(crate) from: SimTime,
    pub(crate) to: Option<SimTime>,
    pub(crate) clean: bool,
}

// ---------------------------------------------------------------------------
// Sampled during an island split
// ---------------------------------------------------------------------------

fn leaders<'a>(obs: &'a Observed) -> Vec<&'a GsdView> {
    obs.gsds.iter().filter(|g| g.role == "leader").collect()
}

fn on_island(island: u64, n: NodeId) -> bool {
    n.0 < 64 && (island >> n.0) & 1 == 1
}

/// Never two simultaneous live meta-leaders.
fn split_brain(obs: &Observed, v: &mut Violations) {
    let leaders = leaders(obs);
    if leaders.len() > 1 {
        v.fail_once(format!(
            "{} simultaneous meta-leaders at {} during an island split \
             (partitions {:?})",
            leaders.len(),
            fmt_ns(obs.now.0),
            leaders.iter().map(|g| g.partition.0).collect::<Vec<_>>()
        ));
    }
}

/// The split, once it has out-lived `beats` heartbeat intervals since it
/// formed and since the last step.
fn outlived<'a>(obs: &'a Observed, beats: u64) -> Option<&'a Split> {
    let deadline = obs.hb_interval * beats;
    obs.split
        .as_ref()
        .filter(|s| s.held > deadline && s.since_step > deadline)
}

/// May the `inside` side of the split lead? Per-side verdict, mirroring
/// `Regroup::conclude` (witness doubled, ties to the witness side then the
/// lowest configured partition) including the home-node dead discount: a
/// partition with no live GSD anywhere is excluded from a side's quorum
/// denominator iff at least one of its home nodes is up on that side
/// (those WDs would testify its GSD dead in the side's regroup rounds). A
/// side's reachable votes come from the partitions whose live GSDs
/// actually sit on it — a migrated GSD votes where it runs, not where its
/// home server is.
pub(crate) fn side_wins(obs: &Observed, split: &Split, votes: &Votes, inside: bool) -> bool {
    let here = |n: NodeId| on_island(split.island, n) == inside;
    let weight = |p: PartitionId| -> u32 { if p == votes.witness { 2 } else { 1 } };
    let member = |p: &PartitionId| obs.gsds.iter().any(|g| g.partition == *p && here(g.node));
    let dead_for_side = |p: &PartitionSpec| {
        obs.gsds.iter().all(|g| g.partition != p.id)
            && p.all_nodes()
                .iter()
                .any(|&n| votes.up[n.0 as usize] && here(n))
    };
    let parts = obs.topology.partitions.iter();
    let live: Vec<PartitionId> = parts.filter(|p| !dead_for_side(p)).map(|p| p.id).collect();
    let lowest = live.first().copied().unwrap_or(PartitionId(0));
    let total: u32 = live.iter().map(|&p| weight(p)).sum();
    let mine: u32 = live.iter().filter(|p| member(p)).map(|&p| weight(p)).sum();
    2 * mine > total
        || (2 * mine == total && mine > 0 && (member(&votes.witness) || member(&lowest)))
}

/// Once the split has out-lived the worst-case detect→regroup→freeze
/// pipeline — suspicion (suspect-beats missed heartbeats plus one
/// in-flight interval) + a regroup round + freeze fanout; five heartbeat
/// intervals bounds it with margin for every profile — no leader at all on
/// a side that may not lead.
fn minority_leader(obs: &Observed, v: &mut Violations) {
    let Some(split) = outlived(obs, 5) else {
        return;
    };
    let side = |n: NodeId| on_island(split.island, n);
    if let Some(votes) = &split.votes {
        for g in leaders(obs) {
            if !side_wins(obs, split, votes, side(g.node)) {
                v.fail_once(format!(
                    "partition {}'s GSD still leads on the weighted-losing \
                     side at {} (witness {})",
                    g.partition.0,
                    fmt_ns(obs.now.0),
                    votes.witness.0
                ));
            }
        }
        return;
    }
    let total = obs.topology.partitions.len();
    let inside = obs
        .topology
        .partitions
        .iter()
        .filter(|p| side(p.server))
        .count();
    for g in leaders(obs) {
        let count = if side(g.node) { inside } else { total - inside };
        if 2 * count <= total {
            v.fail_once(format!(
                "partition {}'s GSD still leads on a minority island at {} \
                 ({count}/{total} partitions on its side)",
                g.partition.0,
                fmt_ns(obs.now.0)
            ));
        }
    }
}

/// Exactly-one-live-side, part 2: once past a full election pipeline
/// (suspicion + held-majority delay + takeover), the weighted winner's
/// side must not sit entirely frozen — that would be the very total-outage
/// the vote table exists to prevent. Gated on the winner side still
/// hosting a live GSD (a crash storm may have taken its daemons out
/// entirely).
fn quorum_dark(obs: &Observed, v: &mut Violations) {
    let Some(split) = outlived(obs, 8) else {
        return;
    };
    let Some(votes) = &split.votes else {
        return;
    };
    for inside in [true, false] {
        if !side_wins(obs, split, votes, inside) {
            continue;
        }
        let on_side: Vec<&GsdView> = obs
            .gsds
            .iter()
            .filter(|g| on_island(split.island, g.node) == inside)
            .collect();
        if !on_side.is_empty() && on_side.iter().all(|g| g.role == "frozen") {
            v.fail_once(format!(
                "the weighted-winning side (island={inside}) is \
                 entirely frozen at {} under witness {} — both \
                 sides of the split are dark",
                fmt_ns(obs.now.0),
                votes.witness.0
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// After quiescence
// ---------------------------------------------------------------------------

/// The cluster reaches trace silence at all: a cascade that never settles
/// is itself a bug.
fn quiescence(obs: &Observed, v: &mut Violations) {
    if let Some((window, deadline)) = obs.settled.as_ref().and_then(|s| s.unquiet) {
        v.fail(format!(
            "trace never went quiet for {} within {} after last step",
            fmt_ns(window.as_nanos()),
            fmt_ns(deadline.as_nanos())
        ));
    }
}

/// 1. Every partition runs exactly one live GSD, exactly one GSD in the
///    whole cluster holds the meta-group Leader role, and all live GSDs
///    agree on who that is.
fn meta_leader(obs: &Observed, v: &mut Violations) {
    for p in 0..obs.topology.partitions.len() {
        let n = obs
            .gsds
            .iter()
            .filter(|g| g.partition == PartitionId(p as u32))
            .count();
        if n != 1 {
            v.fail(format!("partition {p} has {n} live GSDs (want exactly 1)"));
        }
    }
    let leaders = leaders(obs);
    if leaders.len() != 1 {
        v.fail(format!(
            "{} meta-group leaders among {} live GSDs: {:?}",
            leaders.len(),
            obs.gsds.len(),
            leaders.iter().map(|g| g.partition.0).collect::<Vec<_>>()
        ));
        return;
    }
    let lead = leaders[0].partition;
    for g in &obs.gsds {
        if g.role == "orphan" {
            v.fail(format!(
                "GSD of partition {} (pid {} on node {}) is still an orphan \
                 after quiescence",
                g.partition.0, g.pid.0, g.node.0
            ));
        } else if g.leader != Some(lead) {
            v.fail(format!(
                "GSD of partition {} thinks leader is {:?}, cluster leader is {}",
                g.partition.0,
                g.leader.map(|p| p.0),
                lead.0
            ));
        }
    }
}

fn answers<'a>(obs: &'a Observed) -> Option<&'a Answers> {
    obs.settled.as_ref()?.directory.as_ref()
}

/// 2. The WD of every live node heartbeats a live GSD of its own partition
///    (detection would silently stop otherwise).
fn wd_convergence(obs: &Observed, v: &mut Violations) {
    let Some(settled) = &obs.settled else {
        return;
    };
    let Some(answers) = &settled.directory else {
        v.fail("config service did not answer CfgQueryDirectory");
        return;
    };
    for (node, wiring) in &answers.wiring {
        let part = obs.topology.partition_of(*node);
        match *wiring {
            Wiring::Unlisted => v.fail(format!(
                "live node {} missing from the service directory",
                node.0
            )),
            Wiring::WdDead(wd) => v.fail(format!("WD {} of live node {} is dead", wd.0, node.0)),
            Wiring::Heartbeats { pid, gsd_of: None } => v.fail(format!(
                "WD on node {} heartbeats pid {} which is not a live GSD",
                node.0, pid.0
            )),
            Wiring::Heartbeats {
                gsd_of: Some(p), ..
            } if Some(p) != part => v.fail(format!(
                "WD on node {} (partition {:?}) heartbeats the GSD of partition {}",
                node.0,
                part.map(|p| p.0),
                p.0
            )),
            Wiring::Heartbeats { .. } => {}
        }
    }
}

/// 3. The `gsd.takeover` histogram grew iff a GSD actually died (no missed
///    takeovers; no spurious ones on clean networks).
fn takeover(obs: &Observed, v: &mut Violations) {
    let Some(a) = answers(obs) else {
        return;
    };
    if a.gsd_died && a.takeovers == 0 {
        v.fail("a GSD died but the gsd.takeover histogram never grew");
    }
    // On a clean network a takeover without a GSD death is a false positive
    // in the detection pipeline. With NIC/link faults in the schedule,
    // takeovers triggered by (legitimate) network-failure suspicion are
    // expected, so the spurious check only runs on clean-network schedules.
    if !a.gsd_died && a.clean_network && a.takeovers > 0 {
        v.fail(format!(
            "{} takeover(s) recorded with no GSD death and no network faults",
            a.takeovers
        ));
    }
}

/// 4. The single-access-point resource query completes and covers every
///    live node.
fn bulletin(obs: &Observed, v: &mut Violations) {
    let Some(b) = answers(obs).map(|a| &a.bulletin) else {
        return;
    };
    match b.answer {
        Some(true) => {}
        Some(false) => v.fail(
            "single-access-point Resources query returned complete=false \
             after quiescence",
        ),
        None => {
            v.fail(format!(
                "bulletin {} never answered the Resources query",
                b.pid.0
            ));
            return;
        }
    }
    for node in b.up.iter().filter(|n| !b.seen.contains(n)) {
        v.fail(format!(
            "live node {} has no resource entry in the federated bulletin",
            node.0
        ));
    }
}

/// 5. A consumer registered on every partition's event service receives a
///    freshly published event (federation forwards it).
fn event_delivery(obs: &Observed, v: &mut Violations) {
    let Some(a) = answers(obs) else {
        return;
    };
    if a.deliveries.is_empty() {
        v.fail("no live event service found in any partition");
    }
    for (partition, _) in a.deliveries.iter().filter(|(_, got)| !got) {
        v.fail(format!(
            "consumer registered at partition {}'s event service missed the \
             published event",
            partition.0
        ));
    }
}

/// 6. The measurement layer itself must not leak across fault schedules:
///    every span is closed by the process that opened it or aborted when
///    that process was killed (post-quiescence no probe is legitimately
///    mid-flight). Flights are recorded whole, so nothing else can leak.
fn telemetry_leak(obs: &Observed, v: &mut Violations) {
    let Some(a) = answers(obs) else {
        return;
    };
    if a.open_spans != 0 {
        v.fail(format!(
            "{} span(s) still open after quiescence (a killed process's \
             spans must be aborted, not leaked)",
            a.open_spans
        ));
    }
}

/// 7. The event core's message pool must balance after a full schedule:
///    every pooled slot either holds a genuinely pending event or has been
///    returned to the free list. A mismatch means dispatched events leaked
///    their slots (or a slot was double-freed).
fn arena_leak(obs: &Observed, v: &mut Violations) {
    let Some(a) = answers(obs) else {
        return;
    };
    let pool = a.pool;
    if pool.live != a.queued || pool.allocs - pool.frees != pool.live as u64 {
        v.fail(format!(
            "event pool out of balance: {} live slots vs {} queued events \
             ({} allocs, {} frees)",
            pool.live, a.queued, pool.allocs, pool.frees
        ));
    }
}

/// 8. "slow ≠ down" — no node was ever diagnosed dead while fail-slow,
///    alive, and untouched by network faults. Slowness stretches latency;
///    it drops nothing — a dead verdict inside a clean window means the
///    fail-stop pipeline mistook lateness for death.
fn slow_not_dead(obs: &Observed, v: &mut Violations) {
    let Some(settled) = &obs.settled else {
        return;
    };
    for &(node, at) in &settled.dead_verdicts {
        let in_clean_window = settled
            .slow_windows
            .iter()
            .any(|w| w.clean && w.node == node && w.from <= at && at <= w.to.unwrap_or(at));
        if in_clean_window {
            v.fail_once(format!(
                "node {} diagnosed dead at {} while fail-slow but alive and \
                 answering (late)",
                node.0,
                fmt_ns(at.0)
            ));
        }
    }
}

/// 9. Every slow episode healed before settling, so every live GSD's
///    quarantine view must have warmed back to empty — the hysteresis must
///    not latch a recovered node out of the ring forever.
fn slow_quarantine(obs: &Observed, v: &mut Violations) {
    let Some(settled) = &obs.settled else {
        return;
    };
    for (partition, quarantined) in settled.quarantines.iter().filter(|(_, q)| !q.is_empty()) {
        v.fail(format!(
            "partition {}'s GSD still quarantines {:?} after quiescence \
             with all slowness healed",
            partition.0,
            quarantined.iter().map(|p| p.0).collect::<Vec<_>>()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::regroup::{AckInfo, Regroup, RegroupParams};
    use phoenix_proto::KernelMsg;

    const HB: SimDuration = SimDuration::from_secs(1);

    /// Partition `p`'s GSD on its own server, believing p0 leads.
    fn gsd(topology: &ClusterTopology, p: u32, role: &'static str) -> GsdView {
        let node = topology.partitions[p as usize].server;
        GsdView {
            pid: Pid(100 + p as u64),
            node,
            partition: PartitionId(p),
            role,
            leader: Some(PartitionId(0)),
        }
    }

    /// One GSD per partition, p0 leading.
    fn healthy_gsds(topology: &ClusterTopology) -> Vec<GsdView> {
        (0..topology.partitions.len() as u32)
            .map(|p| gsd(topology, p, if p == 0 { "leader" } else { "member" }))
            .collect()
    }

    /// A settled cluster with nothing wrong.
    fn clean(topology: &ClusterTopology) -> Observed<'_> {
        let nodes: Vec<NodeId> = topology
            .partitions
            .iter()
            .flat_map(|p| p.all_nodes())
            .collect();
        let gsds = healthy_gsds(topology);
        let wiring = nodes
            .iter()
            .map(|&n| {
                let p = topology.partition_of(n).unwrap();
                (
                    n,
                    Wiring::Heartbeats {
                        pid: gsds[p.index()].pid,
                        gsd_of: Some(p),
                    },
                )
            })
            .collect();
        Observed {
            topology,
            hb_interval: HB,
            now: SimTime(60_000_000_000),
            gsds,
            split: None,
            settled: Some(Settled {
                unquiet: None,
                directory: Some(Answers {
                    wiring,
                    gsd_died: false,
                    clean_network: true,
                    takeovers: 0,
                    bulletin: Bulletin {
                        pid: Pid(7),
                        answer: Some(true),
                        seen: nodes.clone(),
                        up: nodes.clone(),
                    },
                    deliveries: (0..3).map(|p| (PartitionId(p), true)).collect(),
                    open_spans: 0,
                    pool: ArenaStats {
                        live: 4,
                        capacity: 64,
                        allocs: 10,
                        frees: 6,
                    },
                    queued: 4,
                }),
                slow_windows: Vec::new(),
                dead_verdicts: Vec::new(),
                quarantines: vec![(PartitionId(0), Vec::new())],
            }),
        }
    }

    /// A sample of a split that has stood `held_s` seconds, nothing wrong:
    /// the island's GSDs frozen, p0 leading the rest.
    fn sample<'a>(
        topology: &'a ClusterTopology,
        island_parts: &[u32],
        held_s: u64,
        votes: Option<Votes>,
    ) -> Observed<'a> {
        let mut island = 0u64;
        let mut gsds = healthy_gsds(topology);
        for &p in island_parts {
            for n in topology.partitions[p as usize].all_nodes() {
                island |= 1 << n.0;
            }
            gsds[p as usize].role = "frozen";
        }
        Observed {
            topology,
            hb_interval: HB,
            now: SimTime(30_000_000_000),
            gsds,
            split: Some(Split {
                island,
                held: SimDuration::from_secs(held_s),
                since_step: SimDuration::from_secs(held_s),
                votes,
            }),
            settled: None,
        }
    }

    fn votes(witness: u32, nodes: usize) -> Votes {
        Votes {
            witness: PartitionId(witness),
            up: vec![true; nodes],
        }
    }

    fn answers_mut<'a>(obs: &'a mut Observed) -> &'a mut Answers {
        obs.settled.as_mut().unwrap().directory.as_mut().unwrap()
    }

    /// The invariant names `when`'s rows report for `obs`, in order.
    fn names(when: When, obs: &Observed) -> Vec<&'static str> {
        let mut v = Violations::default();
        check(when, obs, &mut v);
        v.into_vec().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn every_row_is_named_once_and_a_clean_cluster_passes_them_all() {
        let mut seen: Vec<&str> = INVARIANTS.iter().map(|r| r.0).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), INVARIANTS.len());

        let topo = ClusterTopology::uniform(3, 5, 1);
        assert_eq!(names(When::Quiesced, &clean(&topo)), Vec::<&str>::new());
        assert_eq!(
            names(When::Sampled, &sample(&topo, &[2], 20, None)),
            Vec::<&str>::new()
        );
        let quad = ClusterTopology::uniform(4, 3, 1);
        let weighted = sample(&quad, &[2, 3], 20, Some(votes(1, 12)));
        assert_eq!(names(When::Sampled, &weighted), Vec::<&str>::new());
    }

    #[test]
    fn quiesced_rows_report_by_name_in_table_order() {
        let topo = ClusterTopology::uniform(3, 5, 1);
        let row = |edit: &dyn Fn(&mut Observed)| {
            let mut obs = clean(&topo);
            edit(&mut obs);
            names(When::Quiesced, &obs)
        };

        // meta-leader: a partition without a GSD; two leaders; an orphan
        // and a GSD following the wrong leader.
        assert_eq!(row(&|o| o.gsds.truncate(2)), ["meta-leader"]);
        assert_eq!(row(&|o| o.gsds[1].role = "leader"), ["meta-leader"]);
        assert_eq!(
            row(&|o| {
                o.gsds[1].role = "orphan";
                o.gsds[2].leader = Some(PartitionId(2));
            }),
            ["meta-leader", "meta-leader"]
        );

        // wd-convergence: one violation per miswired node, in node order.
        assert_eq!(
            row(&|o| {
                let w = &mut answers_mut(o).wiring;
                w[0].1 = Wiring::Unlisted;
                w[1].1 = Wiring::WdDead(Pid(9));
                w[2].1 = Wiring::Heartbeats {
                    pid: Pid(9),
                    gsd_of: None,
                };
                w[3].1 = Wiring::Heartbeats {
                    pid: Pid(101),
                    gsd_of: Some(PartitionId(1)),
                };
            }),
            ["wd-convergence"; 4]
        );
        // A config service that never answers leaves 2-7 unchecked — even
        // a takeover miss — but not the slow rows.
        assert_eq!(
            row(&|o| {
                let settled = o.settled.as_mut().unwrap();
                settled.directory = None;
                settled.quarantines = vec![(PartitionId(1), vec![PartitionId(2)])];
            }),
            ["wd-convergence", "slow-quarantine"]
        );

        // takeover, both directions; network faults excuse a spurious one.
        assert_eq!(row(&|o| answers_mut(o).gsd_died = true), ["takeover"]);
        assert_eq!(row(&|o| answers_mut(o).takeovers = 2), ["takeover"]);
        let excused = row(&|o| {
            answers_mut(o).takeovers = 2;
            answers_mut(o).clean_network = false;
        });
        assert_eq!(excused, Vec::<&str>::new());

        // bulletin: silent; incomplete and missing a live node.
        assert_eq!(
            row(&|o| answers_mut(o).bulletin.answer = None),
            ["bulletin"]
        );
        assert_eq!(
            row(&|o| {
                answers_mut(o).bulletin.answer = Some(false);
                answers_mut(o).bulletin.seen.pop();
            }),
            ["bulletin", "bulletin"]
        );

        // event-delivery: no event service at all; one consumer missed it.
        assert_eq!(
            row(&|o| answers_mut(o).deliveries.clear()),
            ["event-delivery"]
        );
        assert_eq!(
            row(&|o| answers_mut(o).deliveries[1].1 = false),
            ["event-delivery"]
        );

        // telemetry-leak: an open span.
        assert_eq!(row(&|o| answers_mut(o).open_spans = 1), ["telemetry-leak"]);

        // arena-leak: a live slot nobody queued; a lost free.
        assert_eq!(row(&|o| answers_mut(o).queued = 3), ["arena-leak"]);
        assert_eq!(row(&|o| answers_mut(o).pool.frees = 5), ["arena-leak"]);

        // slow-not-dead: two dead verdicts inside a clean window report
        // once; a tainted window or a verdict after it closed, never.
        let window = |clean| SlowWindow {
            node: NodeId(6),
            from: SimTime(5),
            to: Some(SimTime(9)),
            clean,
        };
        let verdicts = vec![
            (NodeId(6), SimTime(6)),
            (NodeId(6), SimTime(7)),
            (NodeId(7), SimTime(6)),
        ];
        assert_eq!(
            row(&|o| {
                let settled = o.settled.as_mut().unwrap();
                settled.slow_windows = vec![window(true)];
                settled.dead_verdicts = verdicts.clone();
            }),
            ["slow-not-dead"]
        );
        assert_eq!(
            row(&|o| {
                let settled = o.settled.as_mut().unwrap();
                settled.slow_windows = vec![window(false)];
                settled.dead_verdicts = verdicts.clone();
            }),
            Vec::<&str>::new()
        );
        assert_eq!(
            row(&|o| {
                let settled = o.settled.as_mut().unwrap();
                settled.slow_windows = vec![window(true)];
                settled.dead_verdicts = vec![(NodeId(6), SimTime(10))];
            }),
            Vec::<&str>::new()
        );

        // slow-quarantine: one per GSD still quarantining somebody.
        assert_eq!(
            row(&|o| {
                let q = vec![PartitionId(2)];
                o.settled.as_mut().unwrap().quarantines =
                    vec![(PartitionId(0), q.clone()), (PartitionId(1), q)];
            }),
            ["slow-quarantine", "slow-quarantine"]
        );

        // quiescence reports first, whatever else is wrong.
        assert_eq!(
            row(&|o| {
                o.settled.as_mut().unwrap().unquiet = Some((HB * 8, HB * 120));
                answers_mut(o).queued = 3;
            }),
            ["quiescence", "arena-leak"]
        );
    }

    #[test]
    fn sampled_rows_report_by_name_once_per_run() {
        let topo = ClusterTopology::uniform(3, 5, 1);
        // split-brain needs no deadline: two leaders at any sample.
        let mut obs = sample(&topo, &[2], 1, None);
        obs.gsds[2].role = "leader";
        assert_eq!(names(When::Sampled, &obs), ["split-brain"]);
        // minority-leader, count rule: the island's leader gets five beats
        // to freeze, from the split and from the last step.
        let mut obs = sample(&topo, &[2], 6, None);
        obs.gsds[0].role = "member";
        obs.gsds[2].role = "leader";
        assert_eq!(names(When::Sampled, &obs), ["minority-leader"]);
        obs.split.as_mut().unwrap().since_step = HB * 5;
        assert_eq!(names(When::Sampled, &obs), Vec::<&str>::new());
        // Both at once, and sampled twice into one sink: each once.
        let mut obs = sample(&topo, &[2], 6, None);
        obs.gsds[2].role = "leader";
        let mut sink = Violations::default();
        check(When::Sampled, &obs, &mut sink);
        check(When::Sampled, &obs, &mut sink);
        let reported: Vec<_> = sink.into_vec().iter().map(|v| v.invariant).collect();
        assert_eq!(reported, ["split-brain", "minority-leader"]);

        // Weighted rule on the 4 x 3 quorum testbed, witness p1: {p2, p3}
        // loses 2 votes to 3, so its leader may not stand...
        let quad = ClusterTopology::uniform(4, 3, 1);
        let mut obs = sample(&quad, &[2, 3], 6, Some(votes(1, 12)));
        obs.gsds[0].role = "member";
        obs.gsds[2].role = "leader";
        assert_eq!(names(When::Sampled, &obs), ["minority-leader"]);
        // ...and {p1, p2} wins 3 to 2, so p0's must not.
        let obs = sample(&quad, &[1, 2], 6, Some(votes(1, 12)));
        assert_eq!(names(When::Sampled, &obs), ["minority-leader"]);
        // quorum-dark: the winning side entirely frozen, past eight beats.
        let mut obs = sample(&quad, &[2, 3], 9, Some(votes(1, 12)));
        obs.gsds[0].role = "frozen";
        obs.gsds[1].role = "frozen";
        assert_eq!(names(When::Sampled, &obs), ["quorum-dark"]);
        obs.split.as_mut().unwrap().held = HB * 8;
        assert_eq!(names(When::Sampled, &obs), Vec::<&str>::new());
    }

    /// `side_wins` says it mirrors `Regroup::conclude`. Hold it to that on
    /// the quorum testbed: for every witness, every way of putting whole
    /// partitions on the island and every set of partitions whose GSD is
    /// dead (all nodes up), the side's verdict must be the one a GSD on
    /// that side concludes from the same votes — acks from the live GSDs
    /// on its side, dead testimony from the home nodes on its side.
    #[test]
    fn side_wins_agrees_with_regroup_conclude_on_every_4x3_split() {
        let topo = ClusterTopology::uniform(4, 3, 1);
        let parts: Vec<PartitionId> = (0..4).map(PartitionId).collect();
        let now = SimTime(1_000_000_000);
        let mut compared = 0;
        for witness in 0..4u32 {
            let mut params = RegroupParams::quorum();
            params.witness = Some(PartitionId(witness));
            for (island_set, dead_set) in (0..16u32).flat_map(|i| (0..16u32).map(move |d| (i, d))) {
                let in_set = |set: u32, p: PartitionId| set >> p.0 & 1 == 1;
                let island_parts: Vec<u32> = parts
                    .iter()
                    .filter(|&&p| in_set(island_set, p))
                    .map(|p| p.0)
                    .collect();
                let mut obs = sample(&topo, &island_parts, 20, None);
                obs.gsds.retain(|g| !in_set(dead_set, g.partition));
                let split = obs.split.as_ref().unwrap();
                let votes = votes(witness, 12);
                for inside in [true, false] {
                    let on_side = |p: &&PartitionId| in_set(island_set, **p) == inside;
                    let (dead, live): (Vec<PartitionId>, Vec<PartitionId>) = parts
                        .iter()
                        .filter(on_side)
                        .partition(|&&p| in_set(dead_set, p));
                    let harness = side_wins(&obs, split, &votes, inside);
                    let Some((&me, peers)) = live.split_first() else {
                        assert!(!harness, "a side without a GSD cannot lead");
                        continue;
                    };
                    let mut regroup = Regroup::new(params.clone());
                    regroup.set_partitions(&parts);
                    let round = regroup.begin_round(now);
                    for &p in peers {
                        let info = AckInfo {
                            gsd: Pid(p.0 as u64),
                            epoch: 0,
                            frozen: false,
                            weight: 1,
                        };
                        regroup.on_ack(round, p, info, now);
                    }
                    for &partition in &dead {
                        let said = KernelMsg::RegroupProbeAck {
                            round,
                            partition,
                            gsd: Pid(0),
                            alive: false,
                        };
                        regroup.on_message(me, 0, Pid(0), &said, now);
                    }
                    let oracle = regroup.conclude(me, now).expect("a round is open").majority;
                    assert_eq!(
                        harness,
                        oracle,
                        "witness p{witness}, island {island_parts:?}, dead {dead:?} on the \
                         {} side of {live:?}: side_wins says {harness}, conclude says {oracle}",
                        if inside { "island" } else { "main" }
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 1_400, "sides with a live GSD, of 4 x 256 x 2");
    }
}
