//! The watch daemon (WD).
//!
//! Paper Sec 4.3: "Within a partition, the daemons responsible for sending
//! heartbeat are watch daemons (WD) which reside on every node. WD sends
//! heartbeat to GSD periodically through all network interfaces of the
//! node. Through receiving and analyzing heartbeat from WD, GSD can
//! monitor status of nodes and networks in a partition."

use crate::params;
use phoenix_proto::{KernelMsg, PartitionId};
use phoenix_sim::{
    Actor, Ctx, FaultTarget, NicId, NodeId, Pid, RecoveryAction, SimDuration, TimerId, TraceEvent,
};

const TOK_HB: u64 = 1;

/// The watch-daemon actor. It only sends: the analysis is the GSD's, and
/// the heartbeat acks a lossy-profile GSD echoes back fall through the
/// catch-all arm unread.
pub struct Wd {
    node: NodeId,
    partition: PartitionId,
    gsd: Pid,
    hb_interval: SimDuration,
    seq: u64,
    /// The pending heartbeat timer, once the chain runs. `Boot` may arrive
    /// more than once (config re-asserts node wiring under a lossy
    /// profile); only the first may start the chain or beats double up.
    hb_timer: Option<TimerId>,
    /// Set on a respawned instance; emits the recovery trace on start.
    recovery: Option<RecoveryAction>,
}

impl Wd {
    /// Boot-time WD; the GSD pid arrives via `Boot`.
    pub(crate) fn new(node: NodeId, partition: PartitionId, hb_interval: SimDuration) -> Self {
        Wd {
            node,
            partition,
            gsd: Pid(0),
            hb_interval,
            seq: 0,
            hb_timer: None,
            recovery: None,
        }
    }

    /// A WD restarted by its GSD after a process failure.
    pub(crate) fn respawn(
        node: NodeId,
        partition: PartitionId,
        hb_interval: SimDuration,
        gsd: Pid,
        action: RecoveryAction,
    ) -> Self {
        let mut wd = Wd::new(node, partition, hb_interval);
        wd.gsd = gsd;
        wd.recovery = Some(action);
        wd
    }

    /// Send one heartbeat over every network interface of the node. The
    /// per-NIC fan-out is what lets the GSD distinguish a NIC failure
    /// (some interfaces silent) from a node failure (all silent).
    fn beat(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.seq += 1;
        let nics = ctx.nic_count(self.node);
        phoenix_telemetry::counter_add("wd.heartbeats.sent", nics as u64);
        for i in 0..nics {
            ctx.send_via(
                self.gsd,
                NicId(i as u8),
                KernelMsg::WdHeartbeat {
                    node: self.node,
                    nic: NicId(i as u8),
                    seq: self.seq,
                },
            );
        }
        self.hb_timer = Some(ctx.set_timer(self.hb_interval, TOK_HB));
    }

    /// The GSD this WD currently heartbeats (read-only introspection for
    /// the chaos harness's convergence invariant). `Pid(0)` before boot.
    pub fn gsd_pid(&self) -> Pid {
        self.gsd
    }
}

impl Actor<KernelMsg> for Wd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("wd");
        if let Some(action) = self.recovery.take() {
            ctx.trace(TraceEvent::Recovered {
                target: FaultTarget::Process(ctx.pid()),
                action,
            });
        }
        if self.gsd != Pid(0) {
            self.beat(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                if let Some(me) = dir.partition(self.partition) {
                    self.gsd = me.gsd;
                }
                if self.hb_timer.is_none() {
                    self.beat(ctx);
                }
            }
            KernelMsg::PartitionView { local, .. } => {
                // A restarted or migrated GSD announces itself here.
                self.gsd = local.gsd;
            }
            KernelMsg::ProbeReq { req } => {
                ctx.send(from, KernelMsg::ProbeResp { req });
            }
            KernelMsg::SlowPing { seq } => {
                // RTT echo for the fail-slow detector: the leader samples
                // placement-candidate nodes through their watch daemons.
                ctx.send(from, KernelMsg::SlowPong { seq });
            }
            KernelMsg::RegroupProbe { round } => {
                // Home-node testimony for a peer GSD's regroup round:
                // whether the GSD pid this daemon heartbeats is still
                // alive (the sim shortcut for "K consecutive
                // heartbeat acks missing"). An unbooted WD abstains: it
                // tracks no pid.
                if self.gsd != Pid(0) {
                    ctx.send(
                        from,
                        KernelMsg::RegroupProbeAck {
                            round,
                            partition: self.partition,
                            alive: ctx.process_is_alive(self.gsd),
                        },
                    );
                }
            }
            KernelMsg::CfgSetParam { key, value, .. } => {
                // Dynamic reconfiguration pushed by the config service.
                if let Some(interval) = params::pushed_hb_interval(&key, &value) {
                    self.hb_interval = interval;
                    // The pending beat was timed for the old cadence: beat
                    // now instead, and from now on at the new one.
                    if let Some(pending) = self.hb_timer {
                        ctx.cancel_timer(pending);
                        self.beat(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_HB {
            self.beat(ctx);
        }
    }

    fn name(&self) -> &str {
        "wd"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use crate::params::FtParams;
    use phoenix_sim::{ClusterBuilder, Fault, NodeSpec};

    #[test]
    fn heartbeats_flow_on_every_nic() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let gsd = ClientHandle::spawn(&mut w, NodeId(0));
        let wd = Wd::respawn(
            NodeId(1),
            PartitionId(0),
            FtParams::fast().hb_interval,
            gsd.pid,
            RecoveryAction::NoneNeeded,
        );
        w.spawn(NodeId(1), Box::new(wd));
        w.run_for(SimDuration::from_millis(2100));
        let beats: Vec<(NicId, u64)> = gsd
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                KernelMsg::WdHeartbeat { nic, seq, .. } => Some((nic, seq)),
                _ => None,
            })
            .collect();
        // 3 beats (t≈0, 1s, 2s) × 3 NICs.
        assert_eq!(beats.len(), 9);
        for nic in 0..3 {
            assert_eq!(beats.iter().filter(|(n, _)| n.0 == nic).count(), 3);
        }
    }

    #[test]
    fn nic_failure_silences_only_that_interface() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let gsd = ClientHandle::spawn(&mut w, NodeId(0));
        let wd = Wd::respawn(
            NodeId(1),
            PartitionId(0),
            FtParams::fast().hb_interval,
            gsd.pid,
            RecoveryAction::NoneNeeded,
        );
        w.spawn(NodeId(1), Box::new(wd));
        w.apply_fault(Fault::NicDown(NodeId(1), NicId(0)));
        w.run_for(SimDuration::from_millis(1100));
        let nics: Vec<u8> = gsd
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                KernelMsg::WdHeartbeat { nic, .. } => Some(nic.0),
                _ => None,
            })
            .collect();
        assert!(!nics.contains(&0), "NIC 0 heartbeats must be dropped");
        assert!(nics.contains(&1) && nics.contains(&2));
    }

    #[test]
    fn probe_is_answered() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let wd_pid = w.spawn(
            NodeId(1),
            Box::new(Wd::new(
                NodeId(1),
                PartitionId(0),
                FtParams::fast().hb_interval,
            )),
        );
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            wd_pid,
            KernelMsg::ProbeReq {
                req: phoenix_proto::RequestId(3),
            },
        );
        w.run_for(SimDuration::from_millis(5));
        assert!(matches!(
            client.drain()[..],
            [(_, KernelMsg::ProbeResp { .. })]
        ));
    }
}
