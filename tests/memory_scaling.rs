//! What a cluster keeps on the heap, counted rather than sampled from the
//! operating system.
//!
//! A node adds a fixed set of daemons, so what the cluster holds per node
//! should not grow with the number of nodes: an actor that keeps its own
//! copy of the cluster directory makes it grow with the square of the
//! cluster instead. And a cluster in steady state holds what its pending
//! events and its actors need, so its live bytes should stay flat over
//! time: a buffer that keeps the capacity of the largest burst it ever held
//! makes them creep up. This test boots the benchmark's steady shape at 128
//! and 512 nodes and bounds both, then at 640 and 2,560 nodes, where a
//! per-actor copy of any cluster-wide list (the topology, the ring, a
//! service's peers) shows as the per-node figure growing with partitions,
//! and a message every partition sends to every other (a replica per peer)
//! shows as the messages and bytes each node sends growing with them. The
//! counts are the same on every machine.
//!
//! Its own test binary, and one `#[test]`: the allocator counts for the
//! whole process.

use phoenix::kernel::boot::boot_cluster;
use phoenix::kernel::KernelParams;
use phoenix::proto::ClusterTopology;
use phoenix::sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

struct Counting;

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a cluster holds and has sent by one virtual second.
#[derive(Clone, Copy)]
struct Sample {
    /// Live bytes.
    live: i64,
    /// Messages sent since boot.
    msgs: u64,
    /// Bytes sent since boot.
    sent: u64,
}

/// A cluster of `partitions` x 16 nodes at each virtual second in `at`
/// (ascending): `(nodes, samples)`.
fn live_bytes<const N: usize>(partitions: usize, at: [u64; N]) -> (usize, [Sample; N]) {
    let before = LIVE.load(Relaxed);
    let topology = ClusterTopology::uniform(partitions, 16, 1);
    let nodes = topology.node_count();
    let (mut world, cluster) = boot_cluster(topology, KernelParams::fast_slow(), 1);
    let samples = at.map(|secs| {
        world.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
        let total = &world.metrics().total;
        Sample {
            live: LIVE.load(Relaxed) - before,
            msgs: total.sent,
            sent: total.sent_bytes,
        }
    });
    drop((world, cluster));
    (nodes, samples)
}

fn per_node(bytes: i64, nodes: usize) -> f64 {
    bytes as f64 / nodes as f64
}

#[test]
fn live_bytes_are_flat_per_node_and_over_time() {
    let (small_nodes, [small]) = live_bytes(8, [2]);
    let (large_nodes, [large_2s, large_12s]) = live_bytes(32, [2, 12]);
    let (small, large_2s, large_12s) = (small.live, large_2s.live, large_12s.live);
    let (small_per, large_per) = (
        per_node(small, small_nodes),
        per_node(large_2s, large_nodes),
    );
    println!(
        "live bytes per node at 2 s: {small_nodes} nodes {:.1} KB, {large_nodes} nodes {:.1} KB; \
         {large_nodes} nodes at 2 s {:.2} MB, at 12 s {:.2} MB",
        small_per / 1e3,
        large_per / 1e3,
        large_2s as f64 / 1e6,
        large_12s as f64 / 1e6,
    );
    assert!(
        large_per <= 1.5 * small_per,
        "live bytes per node grow with the cluster: {small_per:.0} B at {small_nodes} nodes, \
         {large_per:.0} B at {large_nodes} (a per-actor copy of the directory?)"
    );
    assert!(
        large_12s as f64 <= 1.1 * large_2s as f64,
        "live bytes creep in steady state: {large_2s} B at 2 s, {large_12s} B at 12 s \
         (a buffer kept at its largest burst?)"
    );

    // The paper's 640-node shape and four times it, at 2 s, and what they
    // sent in the second before.
    let (n640, [s640_1, s640]) = live_bytes(40, [1, 2]);
    let (n2560, [s2560_1, s2560]) = live_bytes(160, [1, 2]);
    let (per_640, per_2560) = (per_node(s640.live, n640), per_node(s2560.live, n2560));
    println!(
        "live bytes per node at 2 s: {n640} nodes {:.2} KB ({:.2} MB), \
         {n2560} nodes {:.2} KB ({:.2} MB), x{:.2}",
        per_640 / 1e3,
        s640.live as f64 / 1e6,
        per_2560 / 1e3,
        s2560.live as f64 / 1e6,
        per_2560 / per_640,
    );
    assert!(
        per_2560 <= 1.1 * per_640,
        "live bytes per node grow with the cluster: {per_640:.0} B at {n640} nodes, \
         {per_2560:.0} B at {n2560} (a per-actor copy of a cluster-wide list?)"
    );

    // Control traffic is linear in nodes (paper Sec 5.3): what a node sends
    // per virtual second does not grow with the number of partitions.
    let sent_per_node = |from: Sample, to: Sample, nodes: usize| {
        let msgs = (to.msgs - from.msgs) as f64 / nodes as f64;
        (msgs, (to.sent - from.sent) as f64 / nodes as f64)
    };
    let (msgs_640, bytes_640) = sent_per_node(s640_1, s640, n640);
    let (msgs_2560, bytes_2560) = sent_per_node(s2560_1, s2560, n2560);
    println!(
        "sent per node per virtual s, 1-2 s: {n640} nodes {msgs_640:.2} msgs {bytes_640:.0} B, \
         {n2560} nodes {msgs_2560:.2} msgs {bytes_2560:.0} B"
    );
    assert!(
        msgs_2560 <= 1.05 * msgs_640 && bytes_2560 <= 1.05 * bytes_640,
        "traffic per node grows with the cluster: {msgs_640:.2} msgs and {bytes_640:.0} B \
         at {n640} nodes, {msgs_2560:.2} msgs and {bytes_2560:.0} B at {n2560} \
         (a send to every partition?)"
    );
}
