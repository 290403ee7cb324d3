//! Operations scenario: a system administrator's day. GridView monitoring
//! at a realistic scale, a resource alarm when a node saturates, and
//! start/shutdown node operations through the configuration service
//! (paper Figs 6 and 9 combined).
//!
//! ```sh
//! cargo run --example operations_console
//! ```

use phoenix::gridview::GridView;
use phoenix::kernel::boot::boot_and_stabilize;
use phoenix::kernel::client::ClientHandle;
use phoenix::kernel::KernelParams;
use phoenix::proto::{
    ClusterTopology, JobId, KernelMsg, NodeOp, RequestId, TaskSpec,
};
use phoenix::pws::ui;
use phoenix::sim::{NodeId, SimDuration};

fn main() {
    // 4 partitions × 9 nodes = 36 nodes.
    let topology = ClusterTopology::uniform(4, 9, 1);
    let (mut world, cluster) = boot_and_stabilize(topology, KernelParams::fast(), 13);
    let console_node = cluster.topology.partitions[0].compute[0];
    let gv = GridView::spawn(
        &mut world,
        console_node,
        cluster.bulletin(),
        cluster.event(),
        SimDuration::from_millis(800),
    );
    world.run_for(SimDuration::from_secs(3));
    println!("{}", gv.render());

    // A tenant saturates a node → ResourceAlarm reaches the console.
    println!(">> tenant workload saturates node20...");
    let client = ClientHandle::spawn(&mut world, console_node);
    let ppm20 = cluster.directory.node(NodeId(20)).unwrap().ppm;
    client.send(
        &mut world,
        ppm20,
        KernelMsg::PpmExec {
            req: RequestId(1),
            job: JobId(7),
            task: TaskSpec {
                cpus: 4,
                cpu_load: 0.99,
                mem_load: 0.6,
                duration_ns: None,
            },
            targets: vec![NodeId(20)],
            reply_to: client.pid,
        },
    );
    world.run_for(SimDuration::from_secs(3));
    println!("{}", gv.render());

    // The admin drains the node: delete the job, shut the node down.
    println!(">> admin deletes the job and shuts node20 down for service...");
    client.send(
        &mut world,
        ppm20,
        KernelMsg::PpmDelete {
            req: RequestId(2),
            job: JobId(7),
            targets: vec![NodeId(20)],
            reply_to: client.pid,
        },
    );
    world.run_for(SimDuration::from_millis(500));
    client.send(
        &mut world,
        cluster.config(),
        KernelMsg::CfgNodeOp {
            req: RequestId(3),
            node: NodeId(20),
            op: NodeOp::Shutdown,
        },
    );
    world.run_for(SimDuration::from_secs(4));
    println!("{}", ui::render_node_board(world.nodes(), 12));

    println!(">> maintenance done, node returns...");
    client.send(
        &mut world,
        cluster.config(),
        KernelMsg::CfgNodeOp {
            req: RequestId(4),
            node: NodeId(20),
            op: NodeOp::Start,
        },
    );
    world.run_for(SimDuration::from_secs(3));
    println!("{}", ui::render_node_board(world.nodes(), 12));
    println!("{}", gv.render_full());
    println!(
        "console saw {} kernel events in total",
        gv.events_received()
    );
}
