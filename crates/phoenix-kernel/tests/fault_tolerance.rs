//! End-to-end fault-tolerance tests: the failure pipelines of the paper's
//! Tables 1–3 (detect → diagnose → recover) and the meta-group takeover
//! chains of Fig 3, exercised on a fully booted Phoenix cluster with fast
//! heartbeat parameters.

use phoenix_kernel::boot::boot_and_stabilize;
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::group::Gsd;
use phoenix_kernel::KernelParams;
use phoenix_proto::{
    BulletinQuery, ClusterTopology, ConsumerReg, EventFilter, EventType, KernelMsg, PartitionId,
    RequestId,
};
use phoenix_sim::{
    Diagnosis, Fault, FaultTarget, NicId, NodeId, Pid, RecoveryAction, SimDuration, SimTime,
    TraceEvent, World,
};

/// Two partitions of four nodes (server + backup + 2 compute) — the
/// smallest cluster exercising every mechanism.
fn small() -> (World<KernelMsg>, phoenix_kernel::PhoenixCluster) {
    boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 11)
}

/// Three partitions for ring-takeover tests.
fn ring3() -> (World<KernelMsg>, phoenix_kernel::PhoenixCluster) {
    boot_and_stabilize(ClusterTopology::uniform(3, 3, 1), KernelParams::fast(), 12)
}

fn first_after<F>(w: &World<KernelMsg>, t0: SimTime, pred: F) -> Option<SimTime>
where
    F: FnMut(&TraceEvent) -> bool,
{
    let mut pred = pred;
    w.trace().find_after(t0, |e| pred(e)).map(|r| r.at)
}

#[test]
fn wd_process_failure_detected_diagnosed_restarted() {
    let (mut w, cluster) = small();
    // Let a couple of heartbeat rounds pass.
    w.run_for(SimDuration::from_millis(2500));
    let victim_node = NodeId(2); // compute node of partition 0
    let wd = cluster.directory.node(victim_node).unwrap().wd;
    let t0 = w.now();
    w.kill_process(wd);
    w.run_for(SimDuration::from_secs(4));

    let detected = first_after(&w, t0, |e| {
        matches!(e, TraceEvent::FaultDetected { target: FaultTarget::Process(p), .. } if *p == wd)
    })
    .expect("WD failure detected");
    let diagnosed = first_after(&w, t0, |e| {
        matches!(e,
            TraceEvent::FaultDiagnosed { target: FaultTarget::Process(p), diagnosis: Diagnosis::ProcessFailure, .. }
            if *p == wd)
    })
    .expect("diagnosed as process failure");
    let recovered = first_after(&w, diagnosed, |e| {
        matches!(
            e,
            TraceEvent::Recovered {
                action: RecoveryAction::RestartedInPlace,
                ..
            }
        )
    })
    .expect("WD restarted in place");

    assert!(detected >= t0 && diagnosed >= detected && recovered >= diagnosed);
    // Detection ≈ heartbeat interval (1 s fast profile), ± grace and phase.
    let detect_secs = detected.since(t0).as_secs_f64();
    assert!(
        detect_secs < 1.6,
        "detection took {detect_secs}s, expected ≈ interval"
    );
    // A replacement WD is heartbeating again: node is tracked healthy.
    w.run_for(SimDuration::from_secs(2));
    let nodefaults = w.trace().count(|e| {
        matches!(e, TraceEvent::FaultDiagnosed { diagnosis: Diagnosis::NodeFailure, .. })
    });
    assert_eq!(nodefaults, 0, "no false node-failure diagnosis");
}

#[test]
fn repeated_wd_restarts_leave_no_probe_session_behind() {
    let (mut w, _cluster) = small();
    let victim_node = NodeId(2);
    // Open probe sessions of every live GSD, in node order.
    let probes_in_flight = |w: &World<KernelMsg>| -> Vec<usize> {
        (0..w.node_count() as u32)
            .flat_map(|n| w.pids_on(NodeId(n)))
            .filter_map(|pid| w.actor_as::<Gsd>(pid))
            .map(Gsd::probes_in_flight)
            .collect()
    };
    for _ in 0..10 {
        let wd = w
            .pids_on(victim_node)
            .into_iter()
            .find(|&pid| w.actor(pid).is_some_and(|a| a.name() == "wd"))
            .expect("a WD runs on the victim node");
        w.kill_process(wd);
        let deadline = w.now() + SimDuration::from_secs(30);
        assert!(w.run_until_quiet(SimDuration::from_secs(3), deadline));
        assert_eq!(probes_in_flight(&w), vec![0, 0]);
    }
    let restarts = w.trace().count(|e| {
        matches!(
            e,
            TraceEvent::FaultDiagnosed {
                diagnosis: Diagnosis::ProcessFailure,
                ..
            }
        )
    });
    assert_eq!(restarts, 10, "every cycle ran a probe to its verdict");
}

/// Kill node 2's WD and run until partition 0's GSD probes for it: the
/// world, the GSD and its node, with the GSD's probe-session span open.
fn gsd_mid_probe() -> (World<KernelMsg>, Pid, NodeId) {
    let (mut w, cluster) = small();
    let gsd = cluster.directory.partition(PartitionId(0)).unwrap();
    let (pid, node) = (gsd.gsd, gsd.node);
    w.kill_process(cluster.directory.node(NodeId(2)).unwrap().wd);
    while w.actor_as::<Gsd>(pid).unwrap().probes_in_flight() == 0 {
        w.run_for(SimDuration::from_millis(10));
    }
    (w, pid, node)
}

#[test]
fn a_killed_gsd_aborts_its_probe_session_span() {
    for crash in [false, true] {
        phoenix_telemetry::reset();
        let (mut w, gsd, node) = gsd_mid_probe();
        let outside = phoenix_telemetry::span_start("test.outside", "test", node.0);
        let open = || phoenix_telemetry::with(|r| r.open_spans());
        assert_eq!(open(), 2, "the probe session and the driver's span");
        if crash {
            w.apply_fault(Fault::CrashNode(node));
        } else {
            w.kill_process(gsd);
        }
        assert_eq!(open(), 1, "crash {crash}: only the driver's span survives");
        let aborted: Vec<_> = phoenix_telemetry::with(|r| {
            let aborted = r.recorder().iter().filter(|s| s.aborted);
            aborted.map(|s| (s.path, s.node)).collect()
        });
        assert_eq!(aborted, [("gsd.probe.session", node.0)], "crash {crash}");
        phoenix_telemetry::span_end(outside);
        assert_eq!(open(), 0);
    }
}

#[test]
fn node_crash_diagnosed_as_node_failure_with_zero_recovery() {
    let (mut w, _cluster) = small();
    w.run_for(SimDuration::from_millis(2500));
    let victim = NodeId(3); // compute node
    let t0 = w.now();
    w.apply_fault(Fault::CrashNode(victim));
    w.run_for(SimDuration::from_secs(4));

    let diagnosed = first_after(&w, t0, |e| {
        matches!(e,
            TraceEvent::FaultDiagnosed { target: FaultTarget::Node(n), diagnosis: Diagnosis::NodeFailure, .. }
            if *n == victim)
    })
    .expect("node failure diagnosed");
    // Recovery is "none needed" and immediate (Table 1 node row).
    let recovered = first_after(&w, diagnosed, |e| {
        matches!(e,
            TraceEvent::Recovered { target: FaultTarget::Node(n), action: RecoveryAction::NoneNeeded }
            if *n == victim)
    })
    .expect("no-op recovery recorded");
    assert_eq!(recovered, diagnosed, "recovery time is 0");
}

#[test]
fn nic_failure_diagnosed_as_network_failure() {
    let (mut w, _cluster) = small();
    w.run_for(SimDuration::from_millis(2500));
    let victim = NodeId(2);
    let t0 = w.now();
    w.apply_fault(Fault::NicDown(victim, NicId(1)));
    w.run_for(SimDuration::from_secs(3));

    let diagnosed = first_after(&w, t0, |e| {
        matches!(e,
            TraceEvent::FaultDiagnosed { target: FaultTarget::Nic(n, nic), diagnosis: Diagnosis::NetworkFailure, .. }
            if *n == victim && nic.0 == 1)
    })
    .expect("network failure diagnosed");
    // Node itself must NOT be diagnosed dead (two NICs still fresh).
    let nodefaults = w.trace().count(|e| {
        matches!(e, TraceEvent::FaultDiagnosed { target: FaultTarget::Node(n), .. } if *n == victim)
    });
    assert_eq!(nodefaults, 0);
    // NIC repair is noticed (NetworkRecovery event published).
    w.apply_fault(Fault::NicUp(victim, NicId(1)));
    let t1 = w.now();
    w.run_for(SimDuration::from_secs(3));
    assert!(diagnosed > t0);
    let _ = t1;
}

#[test]
fn gsd_process_failure_restarts_in_place_and_rejoins() {
    let (mut w, cluster) = small();
    w.run_for(SimDuration::from_millis(2500));
    let gsd1 = cluster.gsd(1);
    let t0 = w.now();
    w.kill_process(gsd1);
    // Detection ≈1s + probe ≈40ms + restart cost ≈2s + rewire.
    w.run_for(SimDuration::from_secs(6));

    let diagnosed = first_after(&w, t0, |e| {
        matches!(e,
            TraceEvent::FaultDiagnosed { target: FaultTarget::Process(p), diagnosis: Diagnosis::ProcessFailure, .. }
            if *p == gsd1)
    })
    .expect("GSD process failure diagnosed by ring neighbour");
    let recovered = first_after(&w, diagnosed, |e| {
        matches!(
            e,
            TraceEvent::Recovered {
                action: RecoveryAction::RestartedInPlace,
                ..
            }
        )
    })
    .expect("GSD restarted in place");
    assert!(recovered > diagnosed);

    // The replacement resumed ring heartbeats: after another interval no
    // *new* fault against partition 1's GSD is diagnosed.
    w.trace_mut().clear();
    w.run_for(SimDuration::from_secs(3));
    let refaults = w
        .trace()
        .count(|e| matches!(e, TraceEvent::FaultDiagnosed { .. }));
    assert_eq!(refaults, 0, "ring stable after in-place GSD restart");
}

#[test]
fn server_node_crash_migrates_gsd_and_services_to_backup() {
    let (mut w, cluster) = small();
    // Register an event consumer at partition 1's ES so we can verify the
    // registration survives migration via the checkpoint federation.
    let es1 = cluster.directory.partitions[1].event;
    let consumer = ClientHandle::spawn(&mut w, NodeId(2));
    consumer.send(
        &mut w,
        es1,
        KernelMsg::EsRegisterConsumer {
            req: RequestId(0),
            reg: ConsumerReg {
                consumer: consumer.pid,
                filter: EventFilter::types(&[EventType::NodeRecovery]),
            },
        },
    );
    w.run_for(SimDuration::from_millis(2500));

    let server1 = cluster.topology.partitions[1].server;
    let backup1 = cluster.topology.partitions[1].backups[0];
    let t0 = w.now();
    w.apply_fault(Fault::CrashNode(server1));
    w.run_for(SimDuration::from_secs(8));

    // GSD migrated to the backup node.
    let migrated = first_after(&w, t0, |e| {
        matches!(e,
            TraceEvent::Recovered { action: RecoveryAction::Migrated(to), .. } if *to == backup1)
    });
    assert!(migrated.is_some(), "GSD migrated to backup node");
    // Partition services live again on the backup node (GSD + ES + DB + CK
    // + the node daemons that were already there).
    let pids_on_backup = w.pids_on(backup1).len();
    assert!(
        pids_on_backup >= 7,
        "backup hosts partition services, got {pids_on_backup}"
    );

    // The restored ES still knows its consumer: a NodeRecovery event for
    // the old server (when config brings it back) reaches the consumer.
    let _ = consumer.drain();
    let cfg = cluster.config();
    let admin = ClientHandle::spawn(&mut w, NodeId(2));
    admin.send(
        &mut w,
        cfg,
        KernelMsg::CfgNodeOp {
            req: RequestId(77),
            node: server1,
            op: phoenix_proto::NodeOp::Start,
        },
    );
    w.run_for(SimDuration::from_secs(3));
    let notified = consumer
        .drain()
        .iter()
        .any(|(_, m)| matches!(m, KernelMsg::EsNotify { event } if event.etype == EventType::NodeRecovery));
    assert!(
        notified,
        "consumer registration survived ES migration (checkpoint restore)"
    );
}

#[test]
fn leader_failure_promotes_princess() {
    let (mut w, cluster) = ring3();
    w.run_for(SimDuration::from_millis(2500));
    // Partition 0's GSD is the leader; partition 1's the princess.
    let leader = cluster.gsd(0);
    let t0 = w.now();
    w.kill_process(leader);
    w.run_for(SimDuration::from_secs(4));

    // Princess (partition 1's GSD) announces itself leader.
    let promoted = first_after(&w, t0, |e| {
        matches!(e, TraceEvent::RoleChange { role: "leader", pid } if *pid == cluster.gsd(1))
    });
    assert!(promoted.is_some(), "princess took over as leader");
    // And partition 2's GSD becomes princess.
    let new_princess = first_after(&w, t0, |e| {
        matches!(e, TraceEvent::RoleChange { role: "princess", pid } if *pid == cluster.gsd(2))
    });
    assert!(new_princess.is_some(), "next member became princess");

    // After the in-place restart, the old partition-0 GSD (new pid)
    // rejoins and reclaims leadership (lowest partition id).
    w.run_for(SimDuration::from_secs(6));
    let reclaimed = w.trace().records().iter().rev().find_map(|r| match r.event {
        TraceEvent::RoleChange { role: "leader", pid } => Some(pid),
        _ => None,
    });
    assert!(reclaimed.is_some());
    assert_ne!(reclaimed.unwrap(), cluster.gsd(0), "a fresh pid leads");
}

#[test]
fn es_process_failure_restarts_with_state() {
    let (mut w, cluster) = small();
    let es0 = cluster.event();
    // Register a consumer, then kill the ES.
    let consumer = ClientHandle::spawn(&mut w, NodeId(1));
    consumer.send(
        &mut w,
        es0,
        KernelMsg::EsRegisterConsumer {
            req: RequestId(0),
            reg: ConsumerReg {
                consumer: consumer.pid,
                filter: EventFilter::All,
            },
        },
    );
    w.run_for(SimDuration::from_millis(2500));
    let t0 = w.now();
    w.kill_process(es0);
    w.run_for(SimDuration::from_secs(4));

    let recovered = first_after(&w, t0, |e| {
        matches!(
            e,
            TraceEvent::Recovered {
                action: RecoveryAction::RestartedInPlace,
                target: FaultTarget::Process(_),
            }
        )
    });
    assert!(recovered.is_some(), "ES restarted");

    // The restarted instance must notify the old consumer for new events.
    let _ = consumer.drain();
    // Cause an event: crash a compute node in partition 0.
    w.apply_fault(Fault::CrashNode(NodeId(3)));
    w.run_for(SimDuration::from_secs(4));
    let got_fault = consumer
        .drain()
        .iter()
        .any(|(_, m)| matches!(m, KernelMsg::EsNotify { event } if event.etype == EventType::NodeFault));
    assert!(got_fault, "consumer survived ES restart via checkpoint");
}

/// A checkpoint instance restarted *in place* comes back empty like a
/// migrated one, so it too must pull the partition's state from the
/// federation: otherwise everything saved before the restart is gone for
/// the next service that restores from it.
#[test]
fn checkpoint_restart_in_place_keeps_partition_state() {
    let (mut w, cluster) = small();
    let es0 = cluster.event();
    let ck0 = cluster.directory.partitions[0].checkpoint;
    let consumer = ClientHandle::spawn(&mut w, NodeId(1));
    consumer.send(
        &mut w,
        es0,
        KernelMsg::EsRegisterConsumer {
            req: RequestId(0),
            reg: ConsumerReg {
                consumer: consumer.pid,
                filter: EventFilter::All,
            },
        },
    );
    w.run_for(SimDuration::from_millis(2500));

    let t0 = w.now();
    w.kill_process(ck0);
    w.run_for(SimDuration::from_secs(4));
    let new_ck = w
        .trace()
        .find_after(t0, |e| matches!(e, TraceEvent::ServiceUp { service: "checkpoint", .. }))
        .map(|r| match r.event {
            TraceEvent::ServiceUp { pid, .. } => pid,
            _ => unreachable!(),
        })
        .expect("checkpoint service restarted");
    let resynced = first_after(&w, t0, |e| {
        matches!(e, TraceEvent::Recovered {
            action: RecoveryAction::RestartedInPlace,
            target: FaultTarget::Process(p),
        } if *p == new_ck)
    });
    assert!(resynced.is_some(), "restarted checkpoint resynced from its peers");

    // The ES now restores from the restarted checkpoint instance.
    w.kill_process(es0);
    w.run_for(SimDuration::from_secs(4));
    let _ = consumer.drain();
    w.apply_fault(Fault::CrashNode(NodeId(3)));
    w.run_for(SimDuration::from_secs(4));
    let got_fault = consumer
        .drain()
        .iter()
        .any(|(_, m)| matches!(m, KernelMsg::EsNotify { event } if event.etype == EventType::NodeFault));
    assert!(got_fault, "consumer registration survived both restarts");
}

#[test]
fn bulletin_failure_partial_then_recovered_answers() {
    let (mut w, cluster) = small();
    // Wait for detectors to populate both partitions.
    w.run_for(SimDuration::from_secs(2));
    let db0 = cluster.bulletin();
    let db1 = cluster.directory.partitions[1].bulletin;

    // Baseline: full answer.
    let client = ClientHandle::spawn(&mut w, NodeId(1));
    client.send(
        &mut w,
        db0,
        KernelMsg::DbQuery {
            req: RequestId(1),
            query: BulletinQuery::Resources,
        },
    );
    w.run_for(SimDuration::from_millis(300));
    let full = match &client.drain()[..] {
        [(_, KernelMsg::DbResp { entries, complete, .. })] => {
            assert!(*complete);
            entries.len()
        }
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(full, 8, "resource rows for all 8 nodes");

    // Kill partition 1's bulletin: queries degrade to partial.
    w.kill_process(db1);
    client.send(
        &mut w,
        db0,
        KernelMsg::DbQuery {
            req: RequestId(2),
            query: BulletinQuery::Resources,
        },
    );
    w.run_for(SimDuration::from_millis(300));
    match &client.drain()[..] {
        [(_, KernelMsg::DbResp { entries, complete, .. })] => {
            assert!(!complete, "one partition's state unavailable");
            assert_eq!(entries.len(), 4, "only partition 0's nodes");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The timed-out query's timer had already fired: nothing to cancel.
    assert_eq!(w.cancelled_timers(), 0);

    // GSD restarts the bulletin; queries become complete again.
    w.run_for(SimDuration::from_secs(4));
    client.send(
        &mut w,
        db0,
        KernelMsg::DbQuery {
            req: RequestId(3),
            query: BulletinQuery::Resources,
        },
    );
    w.run_for(SimDuration::from_millis(600));
    match &client.drain()[..] {
        [(_, KernelMsg::DbResp { complete, .. })] => {
            assert!(*complete, "federation healed after bulletin restart");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn sum_of_phases_tracks_heartbeat_interval() {
    // The paper's headline claim (Sec 5.1): detect + diagnose + recover ≈
    // heartbeat interval. Verify with two different intervals.
    for (interval_ms, seed) in [(1_000u64, 21u64), (3_000, 22)] {
        let mut params = KernelParams::fast();
        params.ft.hb_interval = SimDuration::from_millis(interval_ms);
        let (mut w, cluster) =
            boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), params, seed);
        w.run_for(SimDuration::from_millis(4 * interval_ms));
        let wd = cluster.directory.node(NodeId(2)).unwrap().wd;
        let t0 = w.now();
        w.kill_process(wd);
        w.run_for(SimDuration::from_millis(3 * interval_ms + 2_000));
        let recovered = first_after(&w, t0, |e| {
            matches!(
                e,
                TraceEvent::Recovered {
                    action: RecoveryAction::RestartedInPlace,
                    ..
                }
            )
        })
        .expect("recovered");
        let sum = recovered.since(t0).as_secs_f64();
        let interval = interval_ms as f64 / 1_000.0;
        assert!(
            sum < interval * 1.5 + 0.5,
            "sum {sum:.2}s should track interval {interval}s"
        );
    }
}
