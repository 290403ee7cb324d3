//! One scheduling pool: what is queued, what runs where, and who holds
//! each node.
//!
//! Both schedulers of this crate route over a `Pool` — the PWS scheduler of
//! paper Sec 5.4 ("multi-pools with customized scheduling policies", "dynamic
//! leasing among different pools") and the PBS-style baseline, which is the
//! same pool under strict FIFO. The pool decides and the scheduler talks: a
//! `Pool` sends nothing, reads no clock and names no simulator type, so every
//! answer here is a plain value a table test can check.
//!
//! Node ownership is one ledger with one record per node, as MSCS keeps one
//! ownership record per resource: a node the pool knows is in exactly one of
//! free / busy(job) / lent / dead, and a borrowed node carries its lender.

use crate::policy::{pick, PolicyCtx, PolicyKind};
use phoenix_proto::{CheckpointData, JobId, JobSpec, JobState, QueueRow, TaskSpec, UserId};
use phoenix_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What a node the pool knows is doing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Hold {
    Free,
    Busy(JobId),
    /// One of our own, out with a borrower.
    Lent,
    /// Down; a node comes back only as one of our own.
    Dead,
}

/// Where a borrowed node goes back to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Lender {
    Pool(String),
    /// Found under a restored placement: a snapshot does not say whose the
    /// nodes are.
    Unknown,
}

/// One ledger record.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Slot {
    hold: Hold,
    /// `None` on one of our own.
    lender: Option<Lender>,
}

/// A dispatched job.
struct Running {
    spec: JobSpec,
    nodes: Vec<NodeId>,
    /// Nodes whose task has not yet finished.
    outstanding: BTreeSet<NodeId>,
    /// Virtual time when the job must be presumed finished even if its
    /// completion events were lost (e.g. published into a migrating
    /// event service). `None` for unbounded services.
    reap_deadline_ns: Option<u64>,
    /// A reap sweep has been issued for this job.
    reaping: bool,
}

/// A job the pool has just placed: what to launch, and where.
#[derive(Clone, PartialEq, Debug)]
pub struct Placement {
    pub(crate) job: JobId,
    pub(crate) task: TaskSpec,
    pub(crate) nodes: Vec<NodeId>,
}

/// Queue, running table, per-user usage and node ledger of one pool.
pub struct Pool {
    name: String,
    policy: PolicyKind,
    queued: Vec<JobSpec>,
    /// Ordered by job id: this is the order of the saved placements, of the
    /// overdue sweep and of PBS completion.
    running: BTreeMap<JobId, Running>,
    usage: HashMap<UserId, f64>,
    /// Ordered by node id: nodes are taken lowest id first, own and borrowed
    /// alike.
    ledger: BTreeMap<NodeId, Slot>,
}

impl Pool {
    /// A pool owning `nodes`, all free.
    pub(crate) fn new(name: &str, nodes: &[NodeId], policy: PolicyKind) -> Pool {
        let own = Slot {
            hold: Hold::Free,
            lender: None,
        };
        Pool {
            name: name.to_string(),
            policy,
            queued: Vec::new(),
            running: BTreeMap::new(),
            usage: HashMap::new(),
            ledger: nodes.iter().map(|&n| (n, own.clone())).collect(),
        }
    }

    fn free(&self) -> impl Iterator<Item = NodeId> + '_ {
        let free = self.ledger.iter().filter(|(_, s)| s.hold == Hold::Free);
        free.map(|(&n, _)| n)
    }

    /// Append an accepted job to the queue.
    pub fn submit(&mut self, spec: JobSpec) {
        self.queued.push(spec);
    }

    /// Take a job that has not started out of the queue; false if none is
    /// queued under that id.
    pub(crate) fn cancel_queued(&mut self, job: JobId) -> bool {
        let pos = self.queued.iter().position(|j| j.id == job);
        pos.map(|i| self.queued.remove(i)).is_some()
    }

    /// Where `job` runs, if it does.
    pub(crate) fn nodes_of(&self, job: JobId) -> Option<Vec<NodeId>> {
        self.running.get(&job).map(|r| r.nodes.clone())
    }

    /// Start the next job the policy allows on the lowest free node ids. A
    /// bounded job is overdue once its own duration has passed after
    /// `reap_base_ns`. `None` when nothing may start now.
    pub(crate) fn place(&mut self, reap_base_ns: u64) -> Option<Placement> {
        let ctx = PolicyCtx {
            free_nodes: self.free().count(),
            usage: &self.usage,
        };
        let spec = self.queued.remove(pick(self.policy, &self.queued, &ctx)?);
        let nodes: Vec<NodeId> = self.free().take(spec.nodes as usize).collect();
        for n in &nodes {
            self.ledger
                .get_mut(n)
                .expect("a free node is ledgered")
                .hold = Hold::Busy(spec.id);
        }
        let placed = Placement {
            job: spec.id,
            task: spec.task.clone(),
            nodes: nodes.clone(),
        };
        let running = Running {
            reap_deadline_ns: spec.task.duration_ns.map(|d| reap_base_ns + d),
            outstanding: nodes.iter().copied().collect(),
            spec,
            nodes,
            reaping: false,
        };
        self.running.insert(placed.job, running);
        Some(placed)
    }

    /// How many nodes the queue head lacks ("dynamic leasing": what to ask
    /// the other pools for).
    pub(crate) fn shortfall(&self) -> usize {
        let need = self.queued.first().map_or(0, |head| head.nodes as usize);
        need.saturating_sub(self.free().count())
    }

    /// The task of `job` on `node` is gone. True when it was the last one
    /// outstanding: the job is over and the caller finishes it.
    pub(crate) fn exited(&mut self, job: JobId, node: NodeId) -> bool {
        let Some(r) = self.running.get_mut(&job) else {
            return false;
        };
        r.outstanding.remove(&node);
        r.outstanding.is_empty()
    }

    /// Drop `job` from the running table, charge its user nodes × requested
    /// duration (node-seconds) and free its nodes; a dead one stays dead.
    /// Borrowed nodes leave the ledger instead, and the answer lists them
    /// per lender, in the order first met. `None` if the job is not running.
    pub(crate) fn finish(&mut self, job: JobId) -> Option<Vec<(Lender, Vec<NodeId>)>> {
        let r = self.running.remove(&job)?;
        let secs = r.spec.task.duration_ns.map_or(0.0, |d| d as f64 / 1e9);
        *self.usage.entry(r.spec.user.clone()).or_default() += r.nodes.len() as f64 * secs;
        let mut returns: Vec<(Lender, Vec<NodeId>)> = Vec::new();
        for node in r.nodes {
            let Some(slot) = self.ledger.get_mut(&node) else {
                continue;
            };
            if let Some(lender) = slot.lender.take() {
                self.ledger.remove(&node);
                match returns.iter_mut().find(|(l, _)| *l == lender) {
                    Some((_, nodes)) => nodes.push(node),
                    None => returns.push((lender, vec![node])),
                }
            } else if slot.hold == Hold::Busy(job) {
                slot.hold = Hold::Free;
            }
        }
        Some(returns)
    }

    /// `node` went down. A job with a task there must fail: the answer is
    /// that job and its other nodes, for the caller to tear down and finish.
    pub(crate) fn node_down(&mut self, node: NodeId) -> Option<(JobId, Vec<NodeId>)> {
        let slot = self.ledger.get_mut(&node)?;
        let was = std::mem::replace(&mut slot.hold, Hold::Dead);
        let Hold::Busy(job) = was else {
            // An idle borrowed node is the lender's to take back.
            if slot.lender.is_some() {
                self.ledger.remove(&node);
            }
            return None;
        };
        let mut others = self.nodes_of(job)?;
        others.retain(|&n| n != node);
        Some((job, others))
    }

    /// `node` came back: one of our own that was dead is free again.
    pub(crate) fn node_up(&mut self, node: NodeId) {
        self.turn(node, Hold::Dead, Hold::Free);
    }

    /// Move one of our own nodes from `from` to `to`; anything else stays.
    fn turn(&mut self, node: NodeId, from: Hold, to: Hold) {
        if let Some(slot) = self.ledger.get_mut(&node) {
            if slot.lender.is_none() && slot.hold == from {
                slot.hold = to;
            }
        }
    }

    /// Lend up to `want` of our own free nodes, lowest id first. A borrowed
    /// node is never lent on.
    pub(crate) fn grant(&mut self, want: usize) -> Vec<NodeId> {
        let own_free = self.free().filter(|n| self.ledger[n].lender.is_none());
        let granted: Vec<NodeId> = own_free.take(want).collect();
        for &n in &granted {
            self.turn(n, Hold::Free, Hold::Lent);
        }
        granted
    }

    /// `nodes` arrived on lease from `lender`: free here until their job ends.
    pub(crate) fn borrow(&mut self, lender: &str, nodes: &[NodeId]) {
        for &n in nodes {
            let lender = Some(Lender::Pool(lender.to_string()));
            self.ledger.insert(
                n,
                Slot {
                    hold: Hold::Free,
                    lender,
                },
            );
        }
    }

    /// A borrower sent `nodes` home. Only what we lent comes back.
    pub(crate) fn take_back(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.turn(n, Hold::Lent, Hold::Free);
        }
    }

    /// Jobs past their reap deadline at `now_ns` with no sweep issued yet.
    pub(crate) fn overdue(&self, now_ns: u64) -> Vec<JobId> {
        let late = |r: &Running| !r.reaping && r.reap_deadline_ns.is_some_and(|d| now_ns > d);
        let jobs = self.running.iter().filter(|(_, r)| late(r));
        jobs.map(|(&id, _)| id).collect()
    }

    /// A sweep of overdue `job` begins. A node that is not `up` can never ack
    /// the cleanup: its task counts as finished up front. The answer is what
    /// stays outstanding — the nodes to sweep.
    pub(crate) fn reap(&mut self, job: JobId, up: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let Some(r) = self.running.get_mut(&job) else {
            return Vec::new();
        };
        r.reaping = true;
        r.outstanding.retain(|&n| up(n));
        r.outstanding.iter().copied().collect()
    }

    /// State and placement of `job`; `None` if the pool does not hold it.
    pub(crate) fn status(&self, job: JobId) -> (Option<JobState>, Vec<NodeId>) {
        if self.queued.iter().any(|j| j.id == job) {
            return (Some(JobState::Queued), vec![]);
        }
        match self.nodes_of(job) {
            Some(nodes) => (Some(JobState::Running), nodes),
            None => (None, vec![]),
        }
    }

    /// Every job the pool holds, sorted by job id.
    pub(crate) fn rows(&self) -> Vec<QueueRow> {
        let row = |spec: &JobSpec, state, nodes: &[NodeId]| QueueRow {
            job: spec.id,
            pool: self.name.clone(),
            user: spec.user.clone(),
            state,
            nodes: nodes.to_vec(),
        };
        let queued = self.queued.iter().map(|j| row(j, JobState::Queued, &[]));
        let running = self
            .running
            .values()
            .map(|r| row(&r.spec, JobState::Running, &r.nodes));
        let mut rows: Vec<QueueRow> = queued.chain(running).collect();
        rows.sort_by_key(|r| r.job);
        rows
    }

    /// What a restarted scheduler needs: the queue in order and every
    /// placement.
    pub(crate) fn snapshot(&self) -> CheckpointData {
        let placed = self.running.iter().map(|(&id, r)| (id, r.nodes.clone()));
        CheckpointData::Scheduler {
            queued: self.queued.clone(),
            running: placed.collect(),
        }
    }

    /// Take over a [`snapshot`](Self::snapshot). Restored placements are
    /// assumed still running — task exits will complete them — and, the
    /// original durations being lost, all become overdue at `reap_at_ns`. A
    /// placed node that is not one of ours is borrowed, from a lender unknown.
    pub(crate) fn restore(
        &mut self,
        queued: Vec<JobSpec>,
        running: Vec<(JobId, Vec<NodeId>)>,
        reap_at_ns: u64,
    ) {
        self.queued = queued;
        for (job, nodes) in running {
            for &n in &nodes {
                // Placed on a node that is not ours: it was on lease.
                let leased = Slot {
                    hold: Hold::Free,
                    lender: Some(Lender::Unknown),
                };
                self.ledger.entry(n).or_insert(leased).hold = Hold::Busy(job);
            }
            let restored = Running {
                spec: JobSpec::simple(job.0, "restored", &self.name, 0),
                outstanding: nodes.iter().copied().collect(),
                nodes,
                reap_deadline_ns: Some(reap_at_ns),
                reaping: false,
            };
            self.running.insert(job, restored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::SimRng;

    fn ids(ns: &[u32]) -> Vec<NodeId> {
        ns.iter().map(|&n| NodeId(n)).collect()
    }

    fn job(id: u64, user: &str, nodes: u32, prio: i32, at: u64) -> JobSpec {
        let mut j = JobSpec::simple(id, user, "p", nodes);
        j.priority = prio;
        j.submitted_ns = at;
        j.task.duration_ns = Some(10_000_000_000);
        j
    }

    /// Every placement the pool makes until nothing more may start.
    fn place_all(p: &mut Pool) -> Vec<(u64, Vec<NodeId>)> {
        std::iter::from_fn(|| p.place(0))
            .map(|pl| (pl.job.0, pl.nodes))
            .collect()
    }

    /// (free, busy, lent, dead) counts of the ledger.
    fn census(p: &Pool) -> [usize; 4] {
        let mut c = [0; 4];
        for s in p.ledger.values() {
            match s.hold {
                Hold::Free => c[0] += 1,
                Hold::Busy(_) => c[1] += 1,
                Hold::Lent => c[2] += 1,
                Hold::Dead => c[3] += 1,
            }
        }
        c
    }

    #[test]
    fn each_policy_places_its_pick_on_the_lowest_free_ids() {
        // Free nodes in id order: own 2, 5, 7 with borrowed 3, 6 between them.
        type Placements = &'static [(u64, &'static [u32])];
        let table: [(PolicyKind, Placements); 4] = [
            // The head needs 6 of 5 nodes: strict FIFO starts nothing.
            (PolicyKind::Fifo, &[]),
            // First that fits, again and again.
            (PolicyKind::Backfill, &[(1, &[2, 3, 5, 6]), (2, &[7])]),
            // Priority 9 twice, the earlier submission first; then job 1
            // (4 nodes) no longer fits.
            (PolicyKind::Priority, &[(3, &[2, 3]), (2, &[5])]),
            // alice has used nothing, bob less than carol.
            (PolicyKind::FairShare, &[(1, &[2, 3, 5, 6]), (2, &[7])]),
        ];
        for (policy, want) in table {
            let mut p = Pool::new("p", &ids(&[7, 2, 5]), policy);
            p.borrow("donor", &ids(&[6, 3]));
            p.usage.insert(UserId::new("bob"), 10.0);
            p.usage.insert(UserId::new("carol"), 50.0);
            p.submit(job(4, "alice", 6, 0, 0));
            p.submit(job(1, "alice", 4, 1, 10));
            p.submit(job(2, "bob", 1, 9, 20));
            p.submit(job(3, "carol", 2, 9, 5));
            let want: Vec<(u64, Vec<NodeId>)> = want.iter().map(|&(j, ns)| (j, ids(ns))).collect();
            assert_eq!(place_all(&mut p), want, "{policy:?}");
            assert_eq!(
                census(&p)[0],
                5 - want.iter().map(|w| w.1.len()).sum::<usize>()
            );
        }
    }

    #[test]
    fn exit_finish_node_down_node_up() {
        let mut p = Pool::new("p", &ids(&[1, 2, 3, 4]), PolicyKind::Fifo);
        p.submit(job(1, "alice", 2, 0, 0));
        assert_eq!(place_all(&mut p), vec![(1, ids(&[1, 2]))]);
        assert_eq!(p.status(JobId(1)), (Some(JobState::Running), ids(&[1, 2])));
        // The last task out ends the job, and only a running job has tasks.
        assert!(!p.exited(JobId(1), NodeId(1)));
        assert!(!p.exited(JobId(9), NodeId(1)));
        assert!(p.exited(JobId(1), NodeId(2)));
        assert_eq!(p.finish(JobId(1)), Some(vec![]));
        assert_eq!(p.finish(JobId(1)), None);
        assert_eq!(p.status(JobId(1)), (None, vec![]));
        assert_eq!(p.usage[&UserId::new("alice")], 20.0, "2 nodes x 10 s");
        assert_eq!(census(&p), [4, 0, 0, 0]);

        // A node dies under a job: the job fails, its other nodes are torn
        // down and freed, the dead one stays out until it comes back.
        p.submit(job(2, "alice", 2, 0, 0));
        assert_eq!(place_all(&mut p), vec![(2, ids(&[1, 2]))]);
        assert_eq!(p.node_down(NodeId(2)), Some((JobId(2), ids(&[1]))));
        assert_eq!(p.finish(JobId(2)), Some(vec![]));
        assert_eq!(census(&p), [3, 0, 0, 1]);
        p.submit(job(3, "alice", 2, 0, 0));
        assert_eq!(place_all(&mut p), vec![(3, ids(&[1, 3]))]);
        // An idle node dies quietly; a node the pool never knew is nothing.
        assert_eq!(p.node_down(NodeId(4)), None);
        assert_eq!(p.node_down(NodeId(99)), None);
        assert_eq!(census(&p), [0, 2, 0, 2]);
        // Only a dead node comes up: a busy one is not freed under its job.
        p.node_up(NodeId(1));
        p.node_up(NodeId(2));
        p.node_up(NodeId(99));
        assert_eq!(census(&p), [1, 2, 0, 1]);
        p.submit(job(4, "alice", 1, 0, 0));
        assert_eq!(place_all(&mut p), vec![(4, ids(&[2]))]);
    }

    #[test]
    fn overdue_jobs_are_swept_once_and_dead_nodes_count_as_done() {
        let mut p = Pool::new("p", &ids(&[1, 2, 3]), PolicyKind::Fifo);
        p.submit(job(1, "alice", 3, 0, 0));
        assert!(p.place(500).is_some());
        let deadline = 500 + 10_000_000_000;
        assert_eq!(p.overdue(deadline), vec![]);
        assert_eq!(p.overdue(deadline + 1), vec![JobId(1)]);
        assert_eq!(p.reap(JobId(1), |n| n != NodeId(2)), ids(&[1, 3]));
        assert_eq!(p.overdue(deadline + 1), vec![], "one sweep per job");
        assert!(!p.exited(JobId(1), NodeId(1)));
        assert!(
            p.exited(JobId(1), NodeId(3)),
            "node 2 was counted out up front"
        );
        // A service runs until deleted: never overdue.
        let mut service = job(2, "alice", 1, 0, 0);
        service.task.duration_ns = None;
        assert_eq!(p.finish(JobId(1)), Some(vec![]));
        p.submit(service);
        assert!(p.place(0).is_some());
        assert_eq!(p.overdue(u64::MAX), vec![]);
    }

    #[test]
    fn lease_round_trip_between_two_pools() {
        let mut lender = Pool::new("lender", &ids(&[1, 2, 3]), PolicyKind::Fifo);
        let mut other = Pool::new("other", &ids(&[20]), PolicyKind::Fifo);
        let mut short = Pool::new("short", &ids(&[10]), PolicyKind::Fifo);
        lender.submit(job(1, "alice", 1, 0, 0));
        assert_eq!(place_all(&mut lender), vec![(1, ids(&[1]))]);

        short.submit(job(7, "bob", 3, 0, 0));
        assert_eq!(short.place(0), None);
        assert_eq!(short.shortfall(), 2);
        // Only free nodes are lent, lowest id first, and no more than asked.
        assert_eq!(lender.grant(1), ids(&[2]));
        short.borrow("lender", &ids(&[2]));
        assert_eq!(other.grant(5), ids(&[20]));
        short.borrow("other", &ids(&[20]));
        assert_eq!(short.shortfall(), 0);
        // A borrowed node is never lent on: only node 10 is ours to give.
        assert_eq!(short.grant(5), ids(&[10]));
        assert_eq!(census(&short), [2, 0, 1, 0]);
        short.take_back(&ids(&[10]));

        assert_eq!(place_all(&mut short), vec![(7, ids(&[2, 10, 20]))]);
        // Each borrowed node goes back to its own lender; ours stays.
        let returns = short.finish(JobId(7)).unwrap();
        assert_eq!(
            returns,
            vec![
                (Lender::Pool("lender".to_string()), ids(&[2])),
                (Lender::Pool("other".to_string()), ids(&[20]))
            ]
        );
        assert_eq!(census(&short), [1, 0, 0, 0]);
        // Only what was lent comes back: not a stranger's node, not one of
        // ours that is busy.
        assert_eq!(census(&lender), [1, 1, 1, 0]);
        lender.take_back(&ids(&[2, 20, 1]));
        assert_eq!(census(&lender), [2, 1, 0, 0]);
        assert_eq!(lender.grant(5), ids(&[2, 3]));
    }

    #[test]
    fn snapshot_restore_keeps_queue_order_and_placements() {
        let mut p = Pool::new("p", &ids(&[1, 2, 3, 4]), PolicyKind::Backfill);
        for (id, nodes) in [(1, 2), (2, 1), (5, 9), (3, 8), (4, 7)] {
            p.submit(job(id, "alice", nodes, 0, id));
        }
        assert_eq!(place_all(&mut p), vec![(1, ids(&[1, 2])), (2, ids(&[3]))]);
        let saved = p.snapshot();
        let CheckpointData::Scheduler { queued, running } = saved.clone() else {
            panic!("a scheduler snapshot");
        };
        assert_eq!(queued.iter().map(|j| j.id.0).collect::<Vec<_>>(), [5, 3, 4]);

        let mut q = Pool::new("p", &ids(&[1, 2, 3, 4]), PolicyKind::Backfill);
        q.restore(queued, running, 1_000);
        assert_eq!(q.snapshot(), saved);
        assert_eq!(census(&q), [1, 3, 0, 0]);
        let held: Vec<(JobId, JobState)> = q.rows().iter().map(|r| (r.job, r.state)).collect();
        let (run, wait) = (JobState::Running, JobState::Queued);
        let want = [(1, run), (2, run), (3, wait), (4, wait), (5, wait)];
        assert_eq!(
            held,
            want.map(|(j, s)| (JobId(j), s)),
            "rows sort by job id"
        );
        // Restored placements run on, complete by task exit, and share one
        // reap deadline.
        assert_eq!(q.overdue(1_000), vec![]);
        assert_eq!(q.overdue(1_001), vec![JobId(1), JobId(2)]);
        assert!(q.exited(JobId(2), NodeId(3)));
        assert_eq!(q.finish(JobId(2)), Some(vec![]));
        q.submit(job(6, "bob", 2, 0, 6));
        assert_eq!(place_all(&mut q), vec![(6, ids(&[3, 4]))]);
    }

    #[test]
    fn restored_placement_on_a_foreign_node_is_a_lease_of_unknown_lender() {
        let mut p = Pool::new("p", &ids(&[1, 2]), PolicyKind::Fifo);
        p.restore(vec![], vec![(JobId(1), ids(&[1, 2, 9]))], 1_000);
        assert_eq!(census(&p), [0, 3, 0, 0]);
        // The node goes home when its job ends, and is never lent on or
        // placed on again.
        assert_eq!(p.finish(JobId(1)), Some(vec![(Lender::Unknown, ids(&[9]))]));
        assert_eq!(census(&p), [2, 0, 0, 0]);
        assert_eq!(p.grant(5), ids(&[1, 2]));
    }

    /// Two pools lease to each other under a few thousand random operations;
    /// after each one every ledger adds up and no node is usable twice.
    #[test]
    fn random_operations_keep_both_ledgers_whole() {
        const OWN: usize = 6;
        for seed in 1..=3u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pools = [
                Pool::new("a", &ids(&[0, 1, 2, 3, 4, 5]), PolicyKind::Backfill),
                Pool::new("b", &ids(&[6, 7, 8, 9, 10, 11]), PolicyKind::FairShare),
            ];
            let (mut next_job, mut now) = (0u64, 0u64);
            let mut down: BTreeSet<NodeId> = BTreeSet::new();
            // The router's part of a job's end: borrowed nodes go home.
            let finish = |pools: &mut [Pool; 2], at: usize, job: JobId| {
                for (lender, nodes) in pools[at].finish(job).unwrap_or_default() {
                    assert_eq!(lender, Lender::Pool(pools[1 - at].name.clone()));
                    pools[1 - at].take_back(&nodes);
                }
            };
            for step in 0..4_000 {
                let at = rng.gen_range(0..2usize);
                let node = NodeId(rng.gen_range(0..12u32));
                let running: Vec<JobId> = pools[at].running.keys().copied().collect();
                let some_job = running.get(rng.gen_range(0..running.len().max(1))).copied();
                now += 1_000_000_000;
                match rng.gen_range(0..9u32) {
                    0 | 1 => {
                        next_job += 1;
                        let user = ["alice", "bob"][rng.gen_range(0..2usize)];
                        pools[at].submit(job(next_job, user, rng.gen_range(1..5u32), 0, now));
                    }
                    2 => while pools[at].place(now).is_some() {},
                    3 => {
                        if let Some(job) = some_job.filter(|&j| pools[at].exited(j, node)) {
                            finish(&mut pools, at, job);
                        }
                    }
                    4 => some_job
                        .into_iter()
                        .for_each(|job| finish(&mut pools, at, job)),
                    // Node events reach every scheduler.
                    5 => {
                        down.insert(node);
                        for at in 0..2 {
                            if let Some((job, _)) = pools[at].node_down(node) {
                                finish(&mut pools, at, job);
                            }
                        }
                    }
                    6 => {
                        down.remove(&node);
                        pools.iter_mut().for_each(|p| p.node_up(node));
                    }
                    7 => {
                        let granted = pools[1 - at].grant(pools[at].shortfall());
                        let lender = pools[1 - at].name.clone();
                        pools[at].borrow(&lender, &granted);
                    }
                    _ => {
                        for job in pools[at].overdue(now) {
                            pools[at].reap(job, |n| n.0 % 2 == 0);
                        }
                    }
                }
                for (p, peer) in [(&pools[0], &pools[1]), (&pools[1], &pools[0])] {
                    let why = format!("seed {seed} step {step} pool {}", p.name);
                    let borrowed = p.ledger.values().filter(|s| s.lender.is_some()).count();
                    assert_eq!(
                        p.ledger.len(),
                        OWN + borrowed,
                        "{why}: own nodes never leave"
                    );
                    let [free, busy, lent, dead] = census(p);
                    assert_eq!(free + busy + lent + dead, OWN + borrowed, "{why}");
                    let on_lease = peer.ledger.values().filter(|s| s.lender.is_some()).count();
                    assert!(lent <= OWN && on_lease <= lent + dead, "{why}: lent {lent}");
                    for (n, s) in &p.ledger {
                        let usable = |s: &Slot| matches!(s.hold, Hold::Free | Hold::Busy(_));
                        let twice = usable(s) && peer.ledger.get(n).is_some_and(usable);
                        assert!(!twice, "{why}: {n:?} is usable in both pools");
                        assert!(!(usable(s) && down.contains(n)), "{why}: {n:?} is down");
                        let stray = s.lender.is_some() && !usable(s);
                        assert!(!stray, "{why}: borrowed {n:?} is {:?}", s.hold);
                        if let Hold::Busy(job) = s.hold {
                            let placed = p.nodes_of(job).is_some_and(|ns| ns.contains(n));
                            assert!(
                                placed,
                                "{why}: {n:?} is busy with {job:?}, which is not there"
                            );
                        }
                    }
                    let placed = p.running.values().map(|r| r.nodes.len()).sum::<usize>();
                    assert_eq!(busy, placed, "{why}: every placed node is busy, once");
                }
            }
            assert!(next_job > 500, "the loop did submit");
        }
    }
}
