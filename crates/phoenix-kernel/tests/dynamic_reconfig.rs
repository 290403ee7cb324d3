//! Dynamic reconfiguration (paper Sec 4.2: the configuration service
//! "provides documented interface for dynamic reconfiguration"; Sec 5.1:
//! "the interval for sending heartbeat can be configured as a system
//! parameter"). Changing `hb_interval_ms` at runtime must retune the
//! live watch daemons and GSDs — and with them, the failure-detection
//! latency — without a reboot.

use phoenix_kernel::boot::boot_and_stabilize;
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg, NodeOp, RequestId};
use phoenix_sim::{Fault, FaultTarget, NodeId, SimDuration, TraceEvent};

#[test]
fn heartbeat_interval_reconfigures_at_runtime() {
    let (mut w, cluster) =
        boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 81);
    w.run_for(SimDuration::from_secs(2));

    // Raise the heartbeat interval from 1 s to 3 s cluster-wide.
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    client.send(
        &mut w,
        cluster.config(),
        KernelMsg::CfgSetParam {
            req: RequestId(1),
            key: "hb_interval_ms".into(),
            value: "3000".into(),
        },
    );
    w.run_for(SimDuration::from_millis(100));
    assert!(client
        .drain()
        .iter()
        .any(|(_, m)| matches!(m, KernelMsg::CfgAck { ok: true, .. })));

    // Heartbeat traffic rate drops ~3×: count WD beats over a window.
    // (One more old-cadence beat may still be in flight; allow slack.)
    w.run_for(SimDuration::from_secs(3)); // drain old-cadence timers
    let before = w.metrics().label("hb").sent;
    w.run_for(SimDuration::from_secs(9));
    let beats = w.metrics().label("hb").sent - before;
    // 8 nodes × 3 NICs × (9s / 3s) = 72 expected at the new cadence;
    // the old cadence would have produced ~216.
    assert!(
        beats <= 100,
        "heartbeat cadence must slow to the new interval, got {beats}"
    );
    assert!(beats >= 48, "heartbeats still flowing, got {beats}");

    // And no false failures were diagnosed during or after the switch.
    let faults = w
        .trace()
        .count(|e| matches!(e, TraceEvent::FaultDiagnosed { .. }));
    assert_eq!(faults, 0, "reconfiguration must not trip detectors");

    // Detection latency now tracks the NEW interval. Sync the kill to
    // land just after a heartbeat round (as the paper's fault injection
    // implicitly did: their detection times equal the full interval).
    let mut last = w.metrics().label("hb").sent;
    loop {
        w.run_for(SimDuration::from_millis(50));
        let cur = w.metrics().label("hb").sent;
        if cur > last {
            break;
        }
        last = cur;
    }
    let wd = cluster.directory.node(NodeId(3)).unwrap().wd;
    let t0 = w.now();
    w.kill_process(wd);
    w.run_for(SimDuration::from_secs(8));
    let detected = w
        .trace()
        .find_after(t0, |e| {
            matches!(e, TraceEvent::FaultDetected { target: FaultTarget::Process(p), .. } if *p == wd)
        })
        .map(|r| r.at)
        .expect("detected under new interval");
    let detect = detected.since(t0).as_secs_f64();
    assert!(
        detect > 1.5 && detect < 4.5,
        "detection ({detect:.2}s) should track the new 3s interval"
    );
}

/// Lowering the interval is the direction that can trip detectors: every
/// GSD judges from the change with the new, shorter window, while each
/// sender's pending beat was timed for the old cadence and supervised
/// services hear of the change only through their GSD. A fault-free
/// cluster must stay fault-free, and a real fault must still be caught
/// inside the new window.
#[test]
fn lowering_the_interval_trips_no_detector() {
    phoenix_telemetry::reset();
    let (mut w, cluster) =
        boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 81);
    w.run_for(SimDuration::from_secs(2));

    // Lower the heartbeat interval from 1 s to 300 ms cluster-wide.
    let client = ClientHandle::spawn(&mut w, NodeId(2));
    client.send(
        &mut w,
        cluster.config(),
        KernelMsg::CfgSetParam {
            req: RequestId(1),
            key: "hb_interval_ms".into(),
            value: "300".into(),
        },
    );
    w.run_for(SimDuration::from_secs(10));
    let detected = w
        .trace()
        .count(|e| matches!(e, TraceEvent::FaultDetected { .. }));
    let takeovers = phoenix_telemetry::with(|reg| reg.counter("gsd.takeovers"));
    assert_eq!(
        (detected, takeovers),
        (0, 0),
        "(faults detected, GSD takeovers) on a fault-free cluster after lowering the interval"
    );

    // A WD killed now is found within the new 350 ms window (300 ms plus
    // 50 ms grace) and one 25 ms scan, not the old 1.05 s one.
    let wd = cluster.directory.node(NodeId(3)).unwrap().wd;
    let t0 = w.now();
    w.kill_process(wd);
    w.run_for(SimDuration::from_secs(2));
    let detected = w
        .trace()
        .find_after(t0, |e| {
            matches!(e, TraceEvent::FaultDetected { target: FaultTarget::Process(p), .. } if *p == wd)
        })
        .map(|r| r.at)
        .expect("the killed WD is detected");
    let detect = detected.since(t0).as_secs_f64();
    assert!(
        detect < 0.4,
        "detection ({detect:.3}s) should track the new 300 ms interval"
    );
}

/// A node the configuration service brings back after the interval was
/// lowered runs WDs that beat at the new interval, so the GSD's new,
/// shorter window does not take its fresh WD for a dead one.
#[test]
fn a_node_repaired_after_lowering_beats_at_the_new_interval() {
    let (mut w, cluster) =
        boot_and_stabilize(ClusterTopology::uniform(2, 4, 1), KernelParams::fast(), 81);
    w.run_for(SimDuration::from_secs(2));
    let admin = ClientHandle::spawn(&mut w, NodeId(2));
    let set = KernelMsg::CfgSetParam {
        req: RequestId(1),
        key: "hb_interval_ms".into(),
        value: "300".into(),
    };
    admin.send(&mut w, cluster.config(), set);
    w.run_for(SimDuration::from_secs(1));

    let node = NodeId(7);
    w.apply_fault(Fault::CrashNode(node));
    w.run_for(SimDuration::from_secs(2));
    let start = KernelMsg::CfgNodeOp {
        req: RequestId(2),
        node,
        op: NodeOp::Start,
    };
    admin.send(&mut w, cluster.config(), start);
    let t0 = w.now();
    w.run_for(SimDuration::from_secs(5));
    let detected: Vec<_> = w
        .trace()
        .records()
        .iter()
        .filter(|r| r.at >= t0 && matches!(r.event, TraceEvent::FaultDetected { .. }))
        .collect();
    assert!(detected.is_empty(), "after the repair: {detected:?}");
}
