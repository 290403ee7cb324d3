//! The data bulletin holds current state only (paper Fig 2: an in-memory,
//! non-persistent store of the cluster's *current* resource and
//! application state).
//!
//! A PWS job stream runs on a small cluster for many job lifetimes, and at
//! several instants the test checks three things:
//!
//! * the federated `BulletinQuery::All` answer holds at most one row per
//!   node plus one per application instance still running or just
//!   finished;
//! * every `App` row names a job its node's detector still tracks (its
//!   `PbsPoll` answer lists the job), or was exported within the last
//!   `detector_sample`: the final row of an application that just ended,
//!   which its node's next export removes;
//! * each partition's bulletin checkpoint (a `CkLoad` of `(DataBulletin,
//!   p)`) stays under a size bound set by the partition's nodes, not by
//!   how many jobs have run.
//!
//! A bulletin that keeps a finished job's row forever fails all three once
//! enough jobs have finished.

use phoenix::kernel::boot::boot_cluster;
use phoenix::kernel::client::ClientHandle;
use phoenix::kernel::KernelParams;
use phoenix::proto::{
    BulletinKey, BulletinQuery, ClusterTopology, KernelMsg, RequestId, ServiceKind,
};
use phoenix::pws::workload::{generate, WorkloadParams};
use phoenix::pws::{install_pws, login, PolicyKind, PoolConfig};
use phoenix::sim::{Message, NodeId, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Virtual time the stream runs: about 25 lifetimes of its longest job.
const RUN: SimDuration = SimDuration::from_secs(240);
/// How often the three checks run.
const EVERY: SimDuration = SimDuration::from_secs(30);
/// A bulletin checkpoint's wire size per node of its partition. A row
/// encodes in about 61 B; a node holds its `Resource` row and, on a compute
/// node, the running job's `App` row, and for one sample after a job ends
/// its final row too. A table that keeps finished jobs passes this bound
/// within a few job lifetimes.
const SNAPSHOT_BYTES_PER_NODE: usize = 160;

#[test]
fn the_bulletin_holds_current_state_over_many_job_lifetimes() {
    let topo = ClusterTopology::uniform(3, 6, 1);
    let params = KernelParams::fast();
    let sample = params.detector_sample;
    let (mut world, cluster) = boot_cluster(topo, params, 7);
    world.run_for(SimDuration::from_secs(2));
    let compute: Vec<NodeId> = (cluster.topology.partitions.iter())
        .flat_map(|p| p.compute.iter().copied())
        .collect();
    let pool = PoolConfig::new("batch", compute.clone(), PolicyKind::Backfill);
    let pws = install_pws(&mut world, &cluster, vec![pool]);
    world.run_for(SimDuration::from_millis(200));
    let sched = pws.scheduler("batch").expect("pool installed");
    let client = ClientHandle::spawn(&mut world, compute[0]);
    let token = login(&mut world, &cluster, &client, "alice", "alice-secret");
    let workload = WorkloadParams {
        mean_interarrival_s: 1.5,
        min_nodes: 1,
        max_nodes: 4,
        min_runtime_s: 2.0,
        max_runtime_s: 10.0,
        ..WorkloadParams::default()
    };
    let arrivals = generate(&workload, 1_000, 3);
    let start = world.now();
    let dir = &cluster.directory;
    let nodes = dir.nodes.len();
    let (mut next, mut checked) = (0, 0);
    let mut at = start;
    while at.since(start) < RUN {
        at += EVERY;
        // Submit every arrival due before the next check, at its instant.
        while let Some(a) = arrivals
            .get(next)
            .filter(|a| start.as_nanos() + a.at_ns < at.0)
        {
            world.run_until(SimTime(start.as_nanos() + a.at_ns));
            let spec = a.spec.clone();
            let req = RequestId(spec.id.0);
            let token = token.clone();
            client.send(&mut world, sched, KernelMsg::PwsSubmit { req, token, spec });
            next += 1;
        }
        world.run_until(at);
        client.drain();

        // One instant: the cluster-wide table, every detector's apps, and
        // every partition's bulletin checkpoint.
        let query = BulletinQuery::All;
        let all = KernelMsg::DbQuery {
            req: RequestId(1),
            query,
        };
        client.send(&mut world, dir.partitions[0].bulletin, all);
        for ns in &dir.nodes {
            client.send(
                &mut world,
                ns.detector,
                KernelMsg::PbsPoll { req: RequestId(2) },
            );
        }
        for m in &dir.partitions {
            let (service, partition) = (ServiceKind::DataBulletin, m.partition);
            let load = KernelMsg::CkLoad {
                req: RequestId(3),
                service,
                partition,
            };
            client.send(&mut world, m.checkpoint, load);
        }
        world.run_for(SimDuration::from_millis(20));
        let now = world.now().as_nanos();
        let (mut rows, mut tracked, mut snapshots) = (None, BTreeSet::new(), vec![]);
        for (from, m) in client.drain() {
            match m {
                KernelMsg::DbResp {
                    entries, complete, ..
                } => {
                    assert!(complete, "every partition answered");
                    rows = Some(entries);
                }
                KernelMsg::PbsPollResp { node, jobs, .. } => {
                    tracked.extend(jobs.into_iter().map(|j| (node, j)));
                }
                m @ KernelMsg::CkLoadResp { .. } => {
                    let p = dir.partitions.iter().position(|m| m.checkpoint == from);
                    snapshots.push((p.expect("a checkpoint instance"), m.wire_size()));
                }
                _ => {}
            }
        }
        let rows = rows.expect("the bulletin answered");

        // Every App row is tracked, or a final row at most one sample old
        // (plus the 20 ms this instant's messages took).
        let fresh = now - (sample.as_nanos() + 20_000_000);
        let mut finishing = 0;
        for e in rows.iter() {
            if let BulletinKey::App(node, job) = e.key {
                if !tracked.contains(&(node, job)) {
                    assert!(
                        e.stamp_ns >= fresh,
                        "{job:?} on {node:?}: its detector no longer tracks it, \
                         and its row is {} ms old at {} s",
                        (now - e.stamp_ns) / 1_000_000,
                        at.since(start).as_secs_f64()
                    );
                    finishing += 1;
                }
            }
        }
        assert!(
            rows.len() <= nodes + tracked.len() + finishing,
            "{} rows for {nodes} nodes and {} running apps ({finishing} just ended)",
            rows.len(),
            tracked.len()
        );
        assert_eq!(
            snapshots.len(),
            dir.partitions.len(),
            "every checkpoint answered"
        );
        for (p, size) in snapshots {
            let bound = SNAPSHOT_BYTES_PER_NODE * cluster.topology.partitions[p].all_nodes().len();
            assert!(
                size < bound,
                "partition {p}'s snapshot is {size} B, over {bound} B"
            );
        }
        assert!(
            !tracked.is_empty(),
            "jobs are running at {} s",
            at.since(start).as_secs_f64()
        );
        checked += 1;
    }
    assert!(
        checked >= 8 && next > 100,
        "{checked} checks, {next} jobs submitted"
    );
}
