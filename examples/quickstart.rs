//! Quickstart: boot a Phoenix cluster, watch it run, break it, watch it
//! heal.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use phoenix::kernel::boot::boot_and_stabilize;
use phoenix::kernel::KernelParams;
use phoenix::proto::ClusterTopology;
use phoenix::sim::{Fault, NodeId, SimDuration, TraceEvent};

fn main() {
    // A cluster of 2 partitions × 4 nodes (server + backup + 2 compute),
    // 3 networks per node — a miniature Dawning 4000A.
    let topology = ClusterTopology::uniform(2, 4, 1);
    let params = KernelParams::fast(); // 1 s heartbeats for a quick demo
    let (mut world, cluster) = boot_and_stabilize(topology, params, 42);

    println!(
        "booted {} nodes / {} partitions; {} kernel processes live",
        cluster.topology.node_count(),
        cluster.topology.partitions.len(),
        world.live_processes()
    );

    // Let heartbeats and detector samples flow for a few virtual seconds.
    world.run_for(SimDuration::from_secs(3));
    println!(
        "after 3 virtual seconds: {} messages on the wire ({} bytes)",
        world.metrics().total.sent,
        world.metrics().total.sent_bytes
    );

    // Now the fun part: crash a compute node.
    println!("\ncrashing node3...");
    world.apply_fault(Fault::CrashNode(NodeId(3)));
    world.run_for(SimDuration::from_secs(4));

    // The group service detected, diagnosed, and published the fault.
    for r in world.trace().records() {
        match &r.event {
            TraceEvent::FaultDetected { target, .. } => {
                println!("  {}: detected  {target:?}", r.at)
            }
            TraceEvent::FaultDiagnosed { diagnosis, target, .. } => {
                println!("  {}: diagnosed {target:?} as {diagnosis:?}", r.at)
            }
            TraceEvent::Recovered { target, action } => {
                println!("  {}: recovered {target:?} via {action:?}", r.at)
            }
            _ => {}
        }
    }

    println!("\nper-class traffic:");
    println!("label                       sent     bytes  delivered   dropped");
    for (label, s) in &world.metrics().by_label {
        let (sent, bytes, del, drop) = (s.sent, s.sent_bytes, s.delivered, s.dropped);
        println!("{label:<24} {sent:>8} {bytes:>9} {del:>10} {drop:>9}");
    }
    println!();
    println!("quickstart done — see examples/hpc_batch_cluster.rs for jobs,");
    println!("examples/business_hosting.rs for the HA story, and");
    println!("examples/operations_console.rs for monitoring + node ops.");
}
