//! End-to-end PWS tests on a booted Phoenix cluster: submission through
//! the security service, PPM launch, event-driven completion, multi-pool
//! leasing, scheduler HA, and the PBS-baseline contrast of paper Sec 5.4.

use phoenix_kernel::boot::{boot_and_stabilize, boot_cluster_custom};
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, JobSpec, JobState, KernelMsg, TaskSpec};
use phoenix_pws::{
    install_pbs, install_pws, login, queue_status, submit, PolicyKind, PoolConfig,
};
use phoenix_sim::{
    Fault, NetParams, NodeId, SchedulerKind, SimDuration, TraceEvent, World,
};

fn cluster_2x4() -> (
    World<KernelMsg>,
    phoenix_kernel::PhoenixCluster,
) {
    boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 31)
}

/// Compute nodes of the topology (pool material).
fn compute_nodes(cluster: &phoenix_kernel::PhoenixCluster) -> Vec<NodeId> {
    cluster
        .topology
        .partitions
        .iter()
        .flat_map(|p| p.compute.iter().copied())
        .collect()
}

fn short_job(id: u64, user: &str, pool: &str, nodes: u32, secs: u64) -> JobSpec {
    JobSpec {
        task: TaskSpec {
            duration_ns: Some(secs * 1_000_000_000),
            ..TaskSpec::default()
        },
        ..JobSpec::simple(id, user, pool, nodes)
    }
}

#[test]
fn job_lifecycle_queued_running_completed() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster);
    let pws = install_pws(
        &mut w,
        &cluster,
        vec![PoolConfig::new("batch", nodes, PolicyKind::Fifo)],
    );
    w.run_for(SimDuration::from_millis(100));
    let sched = pws.scheduler("batch").unwrap();
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");

    assert!(submit(
        &mut w,
        &client,
        sched,
        token,
        short_job(1, "alice", "batch", 2, 3),
    ));
    // Scheduler tick dispatches; tasks run for 3 virtual seconds.
    w.run_for(SimDuration::from_secs(1));
    let rows = queue_status(&mut w, &client, sched);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].state, JobState::Running);
    assert_eq!(rows[0].nodes.len(), 2);

    w.run_for(SimDuration::from_secs(5));
    let rows = queue_status(&mut w, &client, sched);
    assert!(rows.is_empty(), "job completed and left the queue");
    let completed = w
        .trace()
        .count(|e| matches!(e, TraceEvent::Milestone { label: "job-completed", .. }));
    assert_eq!(completed, 1);
}

#[test]
fn unauthorized_submission_rejected() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster);
    let pws = install_pws(
        &mut w,
        &cluster,
        vec![PoolConfig::new("batch", nodes, PolicyKind::Fifo)],
    );
    w.run_for(SimDuration::from_millis(100));
    let sched = pws.scheduler("batch").unwrap();
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    // webapp is a BusinessUser: may not submit jobs.
    let token = login(&mut w, &cluster, &client, "webapp", "w3bapp");
    assert!(!submit(
        &mut w,
        &client,
        sched,
        token,
        short_job(1, "webapp", "batch", 1, 1),
    ));
}

#[test]
fn multi_pool_leasing_moves_nodes() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster); // 4 compute nodes
    let (a, b) = nodes.split_at(2);
    let pws = install_pws(
        &mut w,
        &cluster,
        vec![
            PoolConfig::new("small", a.to_vec(), PolicyKind::Fifo),
            PoolConfig::new("donor", b.to_vec(), PolicyKind::Fifo),
        ],
    );
    w.run_for(SimDuration::from_millis(100));
    let sched = pws.scheduler("small").unwrap();
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");

    // Pool "small" owns 2 nodes but the job needs 3 → must lease one.
    assert!(submit(
        &mut w,
        &client,
        sched,
        token,
        short_job(1, "alice", "small", 3, 3),
    ));
    w.run_for(SimDuration::from_secs(1));
    let rows = queue_status(&mut w, &client, sched);
    assert_eq!(rows.len(), 1, "job running on leased capacity");
    assert_eq!(rows[0].nodes.len(), 3);

    // After completion the leased node returns to the donor: a second
    // donor-pool job can use all of its nodes.
    w.run_for(SimDuration::from_secs(4));
    let donor = pws.scheduler("donor").unwrap();
    let token2 = login(&mut w, &cluster, &client, "bob", "bob-secret");
    assert!(submit(
        &mut w,
        &client,
        donor,
        token2,
        short_job(2, "bob", "donor", 2, 1),
    ));
    w.run_for(SimDuration::from_secs(2));
    let done = w
        .trace()
        .count(|e| matches!(e, TraceEvent::Milestone { label: "job-completed", value } if *value == 2.0));
    assert_eq!(done, 1, "donor pool regained its leased node");
}

/// A job runs on a leased node when its scheduler dies. The replacement
/// restores the placement from the checkpoint, which does not say whose the
/// nodes are: the node that is not its own must still go home when the job
/// ends, or the donor never sees it again.
#[test]
fn restored_job_returns_its_leased_node() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster);
    let (a, b) = nodes.split_at(2);
    let pws = install_pws(
        &mut w,
        &cluster,
        vec![
            PoolConfig::new("small", a.to_vec(), PolicyKind::Fifo),
            PoolConfig::new("donor", b.to_vec(), PolicyKind::Fifo),
        ],
    );
    w.run_for(SimDuration::from_millis(100));
    let sched = pws.scheduler("small").unwrap();
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    assert!(submit(
        &mut w,
        &client,
        sched,
        token,
        short_job(1, "alice", "small", 3, 6),
    ));
    w.run_for(SimDuration::from_secs(1));
    let rows = queue_status(&mut w, &client, sched);
    assert_eq!(rows[0].nodes.len(), 3, "job running on leased capacity");

    // The borrower's scheduler dies; its GSD respawns it from the registry.
    w.kill_process(sched);
    w.run_for(SimDuration::from_secs(4));
    let respawned = pws.scheduler("small").unwrap();
    assert_ne!(respawned, sched, "a replacement scheduler registered");
    let rows = queue_status(&mut w, &client, respawned);
    assert_eq!(rows[0].nodes.len(), 3, "the placement survived the restart");

    // The job ends under the replacement, and the donor can place a job
    // that needs every node it owns — on its own nodes, not on a lease taken
    // the other way.
    w.run_for(SimDuration::from_secs(4));
    assert!(queue_status(&mut w, &client, respawned).is_empty());
    let donor = pws.scheduler("donor").unwrap();
    let token2 = login(&mut w, &cluster, &client, "bob", "bob-secret");
    assert!(submit(
        &mut w,
        &client,
        donor,
        token2,
        short_job(2, "bob", "donor", 2, 3),
    ));
    w.run_for(SimDuration::from_secs(1));
    let rows = queue_status(&mut w, &client, donor);
    assert_eq!(rows[0].nodes, b, "donor pool regained its leased node");
}

#[test]
fn scheduler_failure_recovers_with_queue() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster);
    let pws = install_pws(
        &mut w,
        &cluster,
        vec![PoolConfig::new("batch", nodes, PolicyKind::Fifo)],
    );
    w.run_for(SimDuration::from_millis(100));
    let sched = pws.scheduler("batch").unwrap();
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");

    // A job too big to start stays queued (and checkpointed).
    assert!(submit(
        &mut w,
        &client,
        sched,
        token,
        short_job(9, "alice", "batch", 99, 1),
    ));
    w.run_for(SimDuration::from_millis(500));
    // Kill the scheduler; the GSD restarts it from the factory registry
    // and it restores the queue from the checkpoint service.
    w.kill_process(sched);
    w.run_for(SimDuration::from_secs(4));
    let new_sched = pws.scheduler("batch").unwrap();
    assert_ne!(new_sched, sched, "a replacement scheduler registered");
    let rows = queue_status(&mut w, &client, new_sched);
    assert_eq!(rows.len(), 1, "queued job survived the restart");
    assert_eq!(rows[0].job, phoenix_proto::JobId(9));
    assert_eq!(rows[0].state, JobState::Queued);
}

/// A starved pool asks its three peers for nodes. The requests leave in
/// pool-name order, so the run repeats exactly; in the iteration order of a
/// hash map they did not, and every later sequence number and latency draw
/// moved with them.
#[test]
fn lease_requests_go_out_in_pool_order() {
    let run = || {
        let (mut w, cluster) = boot_cluster_custom(
            ClusterTopology::uniform(2, 4, 1),
            KernelParams::fast(),
            31,
            NetParams::default(),
            SchedulerKind::default(),
            true,
        );
        w.run_for(SimDuration::from_millis(50));
        let nodes = compute_nodes(&cluster);
        let pools = ["a", "b", "c", "d"].iter().zip(&nodes);
        let pools = pools.map(|(name, &n)| PoolConfig::new(name, vec![n], PolicyKind::Fifo));
        let pws = install_pws(&mut w, &cluster, pools.collect());
        w.run_for(SimDuration::from_millis(100));
        let client = ClientHandle::spawn(&mut w, NodeId(2));
        let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
        // Pool "c" owns one node and the job needs two: it must lease.
        let sched = pws.scheduler("c").unwrap();
        assert!(submit(&mut w, &client, sched, token, short_job(1, "alice", "c", 2, 1)));
        w.run_for(SimDuration::from_secs(3));
        let done = |e: &TraceEvent| matches!(e, TraceEvent::Milestone { label: "job-completed", .. });
        assert_eq!(w.trace().count(done), 1, "the job ran on leased capacity");
        w.take_event_log()
    };
    let first = run();
    assert!(first.contains("pws"), "the log records the lease traffic");
    assert!(first == run(), "two runs of one seed dispatch the same events");
}

/// Two schedulers under one GSD. Its server node crashes, the ring
/// neighbour migrates the GSD to the backup node, and the migrated GSD
/// respawns both schedulers from the roster it had checkpointed. The
/// roster is in pid order, so the replacements come up in the order the
/// originals did, with the same pids on every run.
#[test]
fn migrated_gsd_respawns_its_schedulers_in_roster_order() {
    let run = || {
        let (mut w, cluster) = cluster_2x4();
        let nodes = compute_nodes(&cluster);
        // Pools go round-robin over the two partitions: b and d share p1.
        let pools = ["a", "b", "c", "d"].iter().zip(&nodes);
        let pools = pools.map(|(name, &n)| PoolConfig::new(name, vec![n], PolicyKind::Fifo));
        let pws = install_pws(&mut w, &cluster, pools.collect());
        w.run_for(SimDuration::from_secs(3));
        let before = (pws.scheduler("b").unwrap(), pws.scheduler("d").unwrap());
        w.apply_fault(Fault::CrashNode(cluster.topology.partitions[1].server));
        w.run_for(SimDuration::from_secs(12));
        let after = (pws.scheduler("b").unwrap(), pws.scheduler("d").unwrap());
        assert!(w.is_alive(after.0) && w.is_alive(after.1), "both schedulers are back");
        (before, after)
    };
    let (before, after) = run();
    assert!(before.0 < before.1, "b was installed before d");
    assert!(before.1 < after.0, "both are replacements");
    assert!(after.0 < after.1, "respawned in roster order, which is pid order");
    assert_eq!(run(), (before, after), "the same pids on every run");
}

#[test]
fn pbs_baseline_runs_jobs_by_polling() {
    let (mut w, cluster) = cluster_2x4();
    let nodes = compute_nodes(&cluster);
    let pbs = install_pbs(
        &mut w,
        &cluster,
        NodeId(0),
        nodes,
        SimDuration::from_millis(500),
    );
    w.run_for(SimDuration::from_millis(100));
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    assert!(submit(
        &mut w,
        &client,
        pbs,
        token,
        short_job(1, "alice", "pbs", 2, 1),
    ));
    w.run_for(SimDuration::from_secs(5));
    let completed = w
        .trace()
        .count(|e| matches!(e, TraceEvent::Milestone { label: "pbs-job-completed", .. }));
    assert_eq!(completed, 1);
    // And the poll traffic is nonzero — that's the cost the paper calls out.
    assert!(w.metrics().label("pbs").sent > nodes_len_for_doc());
}

fn nodes_len_for_doc() -> u64 {
    4
}

#[test]
fn pws_uses_less_collection_traffic_than_pbs() {
    // Same workload, same duration; compare resource-collection bytes.
    let workload = |use_pbs: bool| -> (u64, u64) {
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 77);
        let nodes = compute_nodes(&cluster);
        let client = ClientHandle::spawn(&mut w, NodeId(2));
        let target = if use_pbs {
            install_pbs(
                &mut w,
                &cluster,
                NodeId(0),
                nodes.clone(),
                SimDuration::from_millis(500),
            )
        } else {
            let pws = install_pws(
                &mut w,
                &cluster,
                vec![PoolConfig::new("batch", nodes.clone(), PolicyKind::Fifo)],
            );
            w.run_for(SimDuration::from_millis(100));
            pws.scheduler("batch").unwrap()
        };
        let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
        for i in 0..3u64 {
            submit(
                &mut w,
                &client,
                target,
                token.clone(),
                short_job(i + 1, "alice", "batch", 1, 2),
            );
        }
        w.run_for(SimDuration::from_secs(30));
        let m = w.metrics();
        let collection = if use_pbs {
            m.label("pbs").sent_bytes
        } else {
            // PWS's event-driven path: job events + pws control traffic.
            m.label("event").sent_bytes + m.label("pws").sent_bytes
        };
        (collection, m.total.sent_bytes)
    };
    let (pbs_bytes, _) = workload(true);
    let (pws_bytes, _) = workload(false);
    assert!(
        pws_bytes < pbs_bytes,
        "event-driven PWS ({pws_bytes} B) must beat polling PBS ({pbs_bytes} B)"
    );
}
