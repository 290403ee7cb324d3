//! The event service.
//!
//! Paper Sec 4.2: "Based on group service, event service plays the role of
//! communication channel of Phoenix kernel, and provides the following
//! interfaces: the registration of the event supplier and event types it
//! produces, the registration of the event consumer and event types it
//! feels interested in; plus these interfaces, event service also provides
//! functions like events filtering and real-time notification."
//!
//! One instance per partition, forming a federation: an event published at
//! any instance is forwarded to all peers, so a consumer registered at any
//! single access point observes cluster-wide events. Consumer
//! registrations and the publish cursor are checkpointed so a restarted or
//! migrated instance keeps serving its consumers (paper Fig 4).

use crate::federation::Member;
use crate::group::registry::{kernel_factory_key, RespawnArgs};
use crate::params::KernelParams;
use phoenix_proto::{
    CheckpointData, ConsumerReg, Event, KernelMsg, MemberInfo, PartitionId, RequestId, ServiceKind,
    Shared,
};
use phoenix_sim::{Actor, Ctx, Pid};

const KIND: ServiceKind = ServiceKind::Event;
const TOK_RESTORE_TIMEOUT: u64 = 2;

/// Save the cursor every this many publishes (registrations always save).
const SEQ_SAVE_STRIDE: u64 = 16;

/// The event-service actor.
pub(crate) struct EventService {
    member: Member,
    params: KernelParams,
    consumers: Vec<ConsumerReg>,
    next_seq: u64,
    /// Publishes held back while waiting for checkpoint state.
    queued: Vec<Event>,
}

impl EventService {
    /// Boot-time instance; wired by the `Boot` message.
    pub(crate) fn new(partition: PartitionId, params: KernelParams) -> Self {
        let key = kernel_factory_key(KIND, partition);
        let member = Member::new(KIND, key, MemberInfo::unwired(partition), &params);
        Self::with(member, params)
    }

    /// Respawned instance: restores registrations from the checkpoint
    /// service before resuming notification.
    pub(crate) fn respawn(args: &RespawnArgs) -> Self {
        let member = Member::respawn(KIND, kernel_factory_key(KIND, args.partition), args);
        Self::with(member, args.params.clone())
    }

    fn with(member: Member, params: KernelParams) -> Self {
        EventService {
            member,
            params,
            consumers: Vec::new(),
            next_seq: 1,
            queued: Vec::new(),
        }
    }

    fn save_state(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        let data = CheckpointData::EventService {
            consumers: self.consumers.clone(),
            next_seq: self.next_seq,
        };
        self.member.save(ctx, data);
    }

    /// Deliver to local consumers whose filter accepts the event.
    fn notify_local(&self, ctx: &mut Ctx<'_, KernelMsg>, event: &Event) {
        for reg in &self.consumers {
            if reg.filter.accepts(event) {
                phoenix_telemetry::counter_add("es.notifications.delivered", 1);
                ctx.send(
                    reg.consumer,
                    KernelMsg::EsNotify {
                        event: event.clone(),
                    },
                );
            } else {
                phoenix_telemetry::counter_add("es.notifications.filtered", 1);
            }
        }
    }

    fn publish(&mut self, ctx: &mut Ctx<'_, KernelMsg>, mut event: Event) {
        event.partition = self.member.partition();
        event.seq = self.next_seq;
        self.next_seq += 1;
        phoenix_telemetry::counter_add("es.events.published", 1);
        self.notify_local(ctx, &event);
        for (_, peer) in self.member.peers() {
            ctx.send(peer, KernelMsg::EsFedForward { event: event.clone() });
        }
        if self.next_seq % SEQ_SAVE_STRIDE == 0 {
            self.save_state(ctx);
        }
    }

    /// The restore is over, with `data` loaded or given up on: take up the
    /// saved registrations, then the publishes held back meanwhile.
    fn finish_restore(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        data: Option<Shared<CheckpointData>>,
    ) {
        if let Some(CheckpointData::EventService { consumers, next_seq }) =
            self.member.recovered(ctx, data)
        {
            self.consumers = consumers;
            self.next_seq = next_seq;
        }
        let queued = std::mem::take(&mut self.queued);
        for ev in queued {
            self.publish(ctx, ev);
        }
    }
}

impl Actor<KernelMsg> for EventService {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.member.start(ctx, "event");
        if self.member.restore(ctx) {
            ctx.set_timer(self.params.fed_query_timeout * 8, TOK_RESTORE_TIMEOUT);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::EsRegisterConsumer { req, reg } => {
                // Idempotent: re-registration replaces the previous filter,
                // so a retried registration is harmless.
                self.consumers.retain(|r| r.consumer != reg.consumer);
                self.consumers.push(reg);
                self.save_state(ctx);
                if req != RequestId(0) {
                    ctx.send(from, KernelMsg::EsRegisterAck { req });
                }
            }
            KernelMsg::EsUnregisterConsumer { consumer } => {
                self.consumers.retain(|r| r.consumer != consumer);
                self.save_state(ctx);
            }
            KernelMsg::EsPublish { event } => {
                if self.member.restoring() {
                    self.queued.push(event);
                } else {
                    self.publish(ctx, event);
                }
            }
            KernelMsg::EsFedForward { event } => {
                // Every receiver times its own forward: one sample per peer.
                let (node, sent, now) = (ctx.node().0, ctx.sent_at().0, ctx.now().0);
                phoenix_telemetry::flight("es.federation.flight", "es", node, sent, now);
                self.notify_local(ctx, &event);
            }
            KernelMsg::CkLoadResp { data, .. } if self.member.restoring() => {
                self.finish_restore(ctx, data)
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_RESTORE_TIMEOUT if self.member.restoring() => self.finish_restore(ctx, None),
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        "event"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::{EventFilter, EventPayload, EventType, MemberInfo, ServiceDirectory};
    use phoenix_sim::{ClusterBuilder, NodeId, NodeSpec, SimDuration, World};

    fn setup() -> (World<KernelMsg>, Pid, Pid) {
        let mut w = ClusterBuilder::new()
            .nodes(4, NodeSpec::default())
            .build::<KernelMsg>();
        let es0 = w.spawn(
            NodeId(0),
            Box::new(EventService::new(PartitionId(0), KernelParams::fast())),
        );
        let es1 = w.spawn(
            NodeId(1),
            Box::new(EventService::new(PartitionId(1), KernelParams::fast())),
        );
        let member = |p: u32, n: u32, es: Pid| MemberInfo {
            partition: PartitionId(p),
            node: NodeId(n),
            gsd: Pid(0),
            event: es,
            bulletin: Pid(0),
            checkpoint: Pid(0),
            host_ppm: Pid(0),
        };
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: vec![member(0, 0, es0), member(1, 1, es1)],
            nodes: vec![],
        };
        w.inject(es0, KernelMsg::Boot((dir.clone()).into()));
        w.inject(es1, KernelMsg::Boot((dir).into()));
        w.run_for(SimDuration::from_millis(5));
        (w, es0, es1)
    }

    #[test]
    fn consumer_gets_filtered_notifications() {
        let (mut w, es0, _es1) = setup();
        let client = ClientHandle::spawn(&mut w, NodeId(2));
        client.send(
            &mut w,
            es0,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: client.pid,
                    filter: EventFilter::types(&[EventType::NodeFault]),
                },
            },
        );
        w.run_for(SimDuration::from_millis(5));
        // Publish a matching and a non-matching event.
        w.inject(
            es0,
            KernelMsg::EsPublish {
                event: Event::new(EventType::NodeFault, NodeId(3), EventPayload::Node(NodeId(3))),
            },
        );
        w.inject(
            es0,
            KernelMsg::EsPublish {
                event: Event::new(EventType::ConfigChange, NodeId(0), EventPayload::None),
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let got = client.drain();
        assert_eq!(got.len(), 1);
        assert!(matches!(
            &got[0].1,
            KernelMsg::EsNotify { event } if event.etype == EventType::NodeFault
        ));
    }

    #[test]
    fn federation_forwards_to_remote_consumers() {
        let (mut w, es0, es1) = setup();
        // Consumer registered at instance 1, event published at instance 0.
        let client = ClientHandle::spawn(&mut w, NodeId(3));
        client.send(
            &mut w,
            es1,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: client.pid,
                    filter: EventFilter::All,
                },
            },
        );
        w.run_for(SimDuration::from_millis(5));
        w.inject(
            es0,
            KernelMsg::EsPublish {
                event: Event::new(EventType::NodeFault, NodeId(2), EventPayload::None),
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let got = client.drain();
        assert_eq!(got.len(), 1, "single access point: remote event arrives");
    }

    #[test]
    fn publish_assigns_monotone_seq() {
        let (mut w, es0, _) = setup();
        let client = ClientHandle::spawn(&mut w, NodeId(2));
        client.send(
            &mut w,
            es0,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: client.pid,
                    filter: EventFilter::All,
                },
            },
        );
        w.run_for(SimDuration::from_millis(5));
        for _ in 0..3 {
            w.inject(
                es0,
                KernelMsg::EsPublish {
                    event: Event::new(EventType::ResourceAlarm, NodeId(0), EventPayload::None),
                },
            );
        }
        w.run_for(SimDuration::from_millis(5));
        let mut seqs: Vec<u64> = client
            .drain()
            .into_iter()
            .map(|(_, m)| match m {
                KernelMsg::EsNotify { event } => event.seq,
                _ => panic!("unexpected message"),
            })
            .collect();
        // Delivery order may vary with network jitter, but the service
        // must have assigned three distinct consecutive sequence numbers.
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn unregister_stops_notifications() {
        let (mut w, es0, _) = setup();
        let client = ClientHandle::spawn(&mut w, NodeId(2));
        client.send(
            &mut w,
            es0,
            KernelMsg::EsRegisterConsumer {
                req: RequestId(0),
                reg: ConsumerReg {
                    consumer: client.pid,
                    filter: EventFilter::All,
                },
            },
        );
        w.run_for(SimDuration::from_millis(5));
        client.send(
            &mut w,
            es0,
            KernelMsg::EsUnregisterConsumer {
                consumer: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(5));
        w.inject(
            es0,
            KernelMsg::EsPublish {
                event: Event::new(EventType::NodeFault, NodeId(0), EventPayload::None),
            },
        );
        w.run_for(SimDuration::from_millis(5));
        assert!(client.drain().is_empty());
    }
}
