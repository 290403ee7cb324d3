//! Business-computing scenario: the 7×24 hosting story from the paper's
//! introduction ("cluster system software should provide high availability
//! support for business computing which promises delivering 7x24
//! service"). A three-tier application runs under the business
//! application runtime (`phoenix::biz`) and keeps serving while we kill
//! daemons, crash the server node hosting the partition services, and kill
//! a tier — the kernel detects, restarts and migrates, and the runtime
//! re-places the lost tier on a healthy node.
//!
//! ```sh
//! cargo run --example business_hosting
//! ```

use phoenix::biz::{install_biz, TierSpec};
use phoenix::kernel::boot::boot_and_stabilize;
use phoenix::kernel::client::ClientHandle;
use phoenix::kernel::KernelParams;
use phoenix::proto::{BulletinQuery, ClusterTopology, KernelMsg, PartitionId, QueueRow, RequestId};
use phoenix::sim::{Fault, NodeId, Pid, SimDuration, World};

/// Count running application instances visible through the bulletin's
/// single access point.
fn visible_apps(
    world: &mut World<KernelMsg>,
    client: &ClientHandle,
    bulletin: Pid,
    req: u64,
) -> (usize, bool) {
    let query = KernelMsg::DbQuery {
        req: RequestId(req),
        query: BulletinQuery::Apps,
    };
    client
        .ask(
            world,
            bulletin,
            query,
            SimDuration::from_millis(300),
            |m| match m {
                KernelMsg::DbResp {
                    entries, complete, ..
                } => {
                    let up = entries
                        .iter()
                        .filter(|e| {
                            matches!(
                                &e.value,
                                phoenix::proto::BulletinValue::App(a)
                                    if a.status == phoenix::proto::AppStatus::Running
                            )
                        })
                        .count();
                    Some((up, complete))
                }
                _ => None,
            },
        )
        .unwrap_or((0, false))
}

/// The runtime's endpoint table: one row per serving tier instance.
fn endpoints(
    world: &mut World<KernelMsg>,
    client: &ClientHandle,
    runtime: Pid,
    req: u64,
) -> Vec<QueueRow> {
    let query = KernelMsg::PwsQueueStatus {
        req: RequestId(req),
        pool: None,
    };
    client
        .ask(
            world,
            runtime,
            query,
            SimDuration::from_millis(10),
            |m| match m {
                KernelMsg::PwsQueueStatusResp { rows, .. } => Some(rows),
                _ => None,
            },
        )
        .unwrap_or_default()
}

fn main() {
    let topology = ClusterTopology::uniform(2, 5, 1);
    let (mut world, cluster) = boot_and_stabilize(topology, KernelParams::fast(), 99);
    let client = ClientHandle::spawn(&mut world, NodeId(3));

    // Deploy a three-tier "web application" through the business runtime:
    // one long-running instance per tier, each on the least-loaded compute
    // node of the pool.
    let pool: Vec<NodeId> = cluster
        .topology
        .partitions
        .iter()
        .flat_map(|p| p.compute.iter().copied())
        .collect();
    let tiers = vec![
        TierSpec::new("web", 100, 1, 0.35),
        TierSpec::new("app", 200, 1, 0.35),
        TierSpec::new("db", 300, 1, 0.35),
    ];
    let runtime = install_biz(&mut world, &cluster, PartitionId(0), tiers, pool);
    world.run_for(SimDuration::from_secs(2));

    let (up, complete) = visible_apps(&mut world, &client, cluster.bulletin(), 10);
    println!("deployed: {up}/3 tiers running (federation complete: {complete})");

    println!("\n>> killing the event service of partition 0 (process fault)...");
    world.kill_process(cluster.event());
    world.run_for(SimDuration::from_secs(4));
    let (up, complete) = visible_apps(&mut world, &client, cluster.bulletin(), 11);
    println!("   app still visible: {up}/3 tiers (complete: {complete}) — ES restarted");

    println!("\n>> crashing partition 1's server node (GSD + services die)...");
    let server1 = cluster.topology.partitions[1].server;
    world.apply_fault(Fault::CrashNode(server1));
    world.run_for(SimDuration::from_secs(8));
    let (up, complete) = visible_apps(&mut world, &client, cluster.bulletin(), 12);
    println!("   after migration to the backup node: {up}/3 tiers (complete: {complete})");

    println!("\n>> killing the app tier's process (app fault)...");
    let before = endpoints(&mut world, &client, runtime, 20);
    let Some(app) = before.iter().find(|r| r.pool == "app") else {
        println!("   the runtime reports no app tier: {before:?}");
        std::process::exit(1);
    };
    let tier_node = app.nodes[0];
    // The app process is the newest pid on its node (after WD, detector
    // and PPM).
    if let Some(victim) = world.pids_on(tier_node).into_iter().max() {
        world.kill_process(victim);
    }
    // The detector notices the vanished process and publishes the event;
    // the runtime re-places the tier on another healthy node.
    world.run_for(SimDuration::from_secs(4));
    let after = endpoints(&mut world, &client, runtime, 21);
    let moved = after.iter().find(|r| r.pool == "app").map(|r| r.nodes[0]);
    let (up, _) = visible_apps(&mut world, &client, cluster.bulletin(), 13);
    match moved {
        Some(node) if node != tier_node => println!(
            "   re-placed: app tier moved from node{} to node{}; {}/3 tiers serving, {up} running in the bulletin",
            tier_node.0,
            node.0,
            after.len()
        ),
        _ => {
            println!("   the app tier was not re-placed: {after:?}");
            std::process::exit(1);
        }
    }
    println!("\n7×24 story reproduced: every layer failure was absorbed or repaired");
    println!("through the kernel (supervision, migration, app-state detection, re-placement).");
}
