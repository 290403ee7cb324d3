//! What one checkpoint save allocates, counted rather than timed.
//!
//! A snapshot is built once by the service that saves it and shared from
//! there: the checkpoint instance moves it into one `Shared`, and its store
//! and every replica hold that allocation by pointer. So the heap cost of a
//! scheduler save may grow with the depth of the queue by one copy of the
//! queue, the saver's, and by no allocation call per job or per replica.
//! This test measures one accepted submit at two queue depths on the
//! benchmark's PWS shape and bounds the difference; the counts are the same
//! on every machine. With a deep clone per replica it is one more copy of
//! the queue per replica, and with `String` job names some 16,000 calls.
//!
//! Its own test binary, and one `#[test]`: the allocator counts for the
//! whole process.

use phoenix::kernel::boot::boot_cluster;
use phoenix::kernel::client::ClientHandle;
use phoenix::kernel::{KernelParams, PhoenixCluster, Rung};
use phoenix::proto::{
    AuthToken, CheckpointData, ClusterTopology, JobSpec, KernelMsg, RequestId, ServiceKind,
};
use phoenix::pws::{install_pws, login, submit, PolicyKind, PoolConfig};
use phoenix::sim::{NodeId, Pid, SimDuration, SimTime, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The window one submit is measured over: the security check, the save and
/// the replication to the saver's three successors finish well inside it.
const WINDOW: SimDuration = SimDuration::from_millis(50);
/// Where in the virtual second a window opens. Every periodic sender
/// (heartbeats, detector samples, bulletin saves, the scheduler's tick) has
/// a period that divides one second, so two windows at one phase hold the
/// same background traffic.
const PHASE_NS: u64 = 300_000_000;

struct Pws {
    world: World<KernelMsg>,
    cluster: PhoenixCluster,
    client: ClientHandle,
    sched: Pid,
    token: AuthToken,
    submitted: u64,
}

impl Pws {
    /// Submit one job that can never start and report whether it was accepted.
    fn submit(&mut self) -> bool {
        self.submitted += 1;
        // One node more than the pool owns.
        let spec = JobSpec::simple(self.submitted, "alice", "batch", 121);
        let token = self.token.clone();
        submit(&mut self.world, &self.client, self.sched, token, spec)
    }

    /// Fill the queue to `depth`, wait for the next window phase, and count
    /// what one more accepted submit allocates: `(calls, bytes)`.
    fn submit_at_depth(&mut self, depth: u64) -> (u64, u64) {
        while self.submitted < depth {
            assert!(self.submit());
        }
        let second = 1_000_000_000;
        let now = self.world.now().as_nanos();
        let opens = SimTime((now / second + 2) * second + PHASE_NS);
        self.world.run_until(opens);
        let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
        let accepted = self.submit();
        self.world.run_until(opens + WINDOW);
        let after = (CALLS.load(Relaxed), BYTES.load(Relaxed));
        assert!(accepted, "submit {} was accepted", depth + 1);
        // The window reached the last replica: the saver (partition 0) and
        // its three successors hold the queue this submit saved, the other
        // four hold nothing.
        for member in &self.cluster.directory.partitions {
            let load = KernelMsg::CkLoad {
                req: RequestId(0),
                service: ServiceKind::UserEnvironment,
                partition: self.cluster.directory.partitions[0].partition,
            };
            self.client.send(&mut self.world, member.checkpoint, load);
        }
        self.world.run_for(SimDuration::from_millis(10));
        let answers = self.client.drain();
        let stored: Vec<Option<usize>> = (self.cluster.directory.partitions.iter())
            .map(|member| {
                answers.iter().find_map(|(from, m)| match m {
                    KernelMsg::CkLoadResp { data, .. } if *from == member.checkpoint => {
                        match data.as_deref() {
                            Some(CheckpointData::Scheduler { queued, .. }) => Some(queued.len()),
                            _ => None,
                        }
                    }
                    _ => None,
                })
            })
            .collect();
        let held = Some(depth as usize + 1);
        assert_eq!(
            stored,
            [[held; 4], [None; 4]].concat(),
            "replicas at depth {depth}, in partition order"
        );
        (after.0 - before.0, after.1 - before.1)
    }
}

#[test]
fn a_save_allocates_one_copy_of_the_queue_however_many_replicas() {
    // The benchmark's PWS shape (benchmark/src/pws.rs).
    let topo = ClusterTopology::uniform(8, 17, 1);
    let (mut world, cluster) = boot_cluster(topo, KernelParams::fast_at(Rung::Slow), 1);
    world.run_for(SimDuration::from_secs(2));
    let compute: Vec<NodeId> = cluster
        .topology
        .partitions
        .iter()
        .flat_map(|p| p.compute.iter().copied())
        .collect();
    assert_eq!(compute.len(), 120);
    let pool = PoolConfig::new("batch", compute.clone(), PolicyKind::Backfill);
    let pws = install_pws(&mut world, &cluster, vec![pool]);
    world.run_for(SimDuration::from_millis(200));
    let sched = pws.scheduler("batch").expect("pool installed");
    let client = ClientHandle::spawn(&mut world, compute[0]);
    let token = login(&mut world, &cluster, &client, "alice", "alice-secret");
    let mut pws = Pws {
        world,
        cluster,
        client,
        sched,
        token,
        submitted: 0,
    };

    // Depths off the doubling boundaries of the queue's `Vec` (128, 1,024):
    // neither measured push reallocates.
    let (shallow, deep) = (100, 1_000);
    let (calls_shallow, bytes_shallow) = pws.submit_at_depth(shallow);
    let (calls_deep, bytes_deep) = pws.submit_at_depth(deep);
    let extra_calls = calls_deep.saturating_sub(calls_shallow);
    let extra_bytes = bytes_deep.saturating_sub(bytes_shallow);
    println!(
        "depth {shallow}: {calls_shallow} calls, {bytes_shallow} B; \
         depth {deep}: {calls_deep} calls, {bytes_deep} B; \
         extra {extra_calls} calls, {extra_bytes} B"
    );

    let one_copy = (deep - shallow) * std::mem::size_of::<JobSpec>() as u64;
    assert!(
        extra_bytes <= one_copy * 3 / 2,
        "a save at depth {deep} allocated {extra_bytes} B more than at depth {shallow}: \
         over one copy of the extra queue ({one_copy} B), so a replica deep-copies it"
    );
    assert!(
        extra_calls < 1_000,
        "a save at depth {deep} made {extra_calls} more allocation calls than at depth \
         {shallow}: copying a JobSpec allocates"
    );
}
