//! The checkpoint service.
//!
//! Paper Sec 4.2: "Based on group service, it provides interfaces for
//! upper-layer services to save system data, which means that upper-layer
//! services themselves are responsible for saving and deleting system state
//! by calling interface of checkpoint service."
//!
//! One instance runs per partition on the server node. Instances form a
//! federation: every save is replicated to the peers, so every respawned
//! instance — restarted in place after a process fault, or migrated to a
//! backup node after a server-node crash — starts empty and resynchronizes
//! the partition's state from any surviving peer (`CkSyncReq` /
//! `CkSyncResp`) before it answers a load.
//!
//! A snapshot is built once, by the service that saves it. `CkSave` is the
//! one hop that carries it by value; the instance that receives it moves it
//! into a `Shared<CheckpointData>`, and the store, every `CkReplicate`,
//! every `CkLoadResp` and every `CkSyncResp` item hold that one allocation
//! by pointer, sized once. Replicating to `n` peers costs `n` refcount
//! bumps, whatever the snapshot's depth.

use crate::federation::Member;
use crate::group::registry::{kernel_factory_key, RespawnArgs};
use crate::params::KernelParams;
use phoenix_proto::{
    CheckpointData, KernelMsg, MemberInfo, PartitionId, RequestId, ServiceKind, Shared,
};
use phoenix_sim::{Actor, Ctx, Pid};
use std::collections::BTreeMap;

const KIND: ServiceKind = ServiceKind::Checkpoint;
const TOK_SYNC_TIMEOUT: u64 = 2;
/// Backoff timer for re-sending `CkSyncReq` while still unsynced.
const TOK_SYNC_RETRY: u64 = 3;

/// Key of a checkpointed snapshot: which service instance saved it.
pub(crate) type CkKey = (ServiceKind, PartitionId);

/// The checkpoint-service actor.
pub(crate) struct CheckpointService {
    member: Member,
    params: KernelParams,
    store: BTreeMap<CkKey, Shared<CheckpointData>>,
    /// Respawned instances must pull state from a peer before answering.
    synced: bool,
    pending_loads: Vec<(Pid, RequestId, CkKey)>,
    /// Send attempts for the post-respawn sync fan-out (a lost request
    /// or reply is retried with backoff under the lossy rung).
    sync_attempts: u32,
}

impl CheckpointService {
    /// A boot-time instance: wired later by the `Boot` message; starts
    /// synced (there is nothing to recover).
    pub(crate) fn new(partition: PartitionId, params: KernelParams) -> Self {
        let key = kernel_factory_key(KIND, partition);
        let member = Member::new(KIND, key, MemberInfo::unwired(partition), &params);
        Self::with(member, params)
    }

    /// A respawned instance: the store starts empty and is pulled from the
    /// surviving federation members, if there are any.
    pub(crate) fn respawn(args: &RespawnArgs) -> Self {
        let member = Member::respawn(KIND, kernel_factory_key(KIND, args.partition), args);
        Self::with(member, args.params.clone())
    }

    fn with(member: Member, params: KernelParams) -> Self {
        CheckpointService {
            synced: !member.restoring() || member.peers().next().is_none(),
            member,
            params,
            store: BTreeMap::new(),
            pending_loads: Vec::new(),
            sync_attempts: 0,
        }
    }

    fn answer(&self, ctx: &mut Ctx<'_, KernelMsg>, to: Pid, req: RequestId, key: CkKey) {
        let data = self.store.get(&key).cloned();
        ctx.send(to, KernelMsg::CkLoadResp { req, data });
    }

    fn flush_pending(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let pending = std::mem::take(&mut self.pending_loads);
        for (to, req, key) in pending {
            self.answer(ctx, to, req, key);
        }
    }

    /// Fan the sync request to every surviving peer. Under a retrying
    /// policy the fan-out re-fires with backoff until a response lands or
    /// the attempt budget is spent; the give-up timer remains the final
    /// fallback either way.
    fn send_sync_reqs(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        for (_, p) in self.member.peers() {
            ctx.send(p, KernelMsg::CkSyncReq { req: RequestId(0) });
        }
        let retry = self.params.ft.retry();
        if let Some(delay) = retry.on_send(&mut self.sync_attempts, Some(ctx.rng())) {
            ctx.set_timer(delay, TOK_SYNC_RETRY);
        }
    }
}

impl Actor<KernelMsg> for CheckpointService {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.member.start(ctx, "checkpoint");
        if !self.synced {
            // Pull the federation's replicated state from every peer; the
            // first answer wins, the rest merge idempotently.
            self.send_sync_reqs(ctx);
            // Give up after a bounded wait (all peers dead): serve empty.
            ctx.set_timer(self.params.fed_query_timeout * 4, TOK_SYNC_TIMEOUT);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::CkSave {
                service,
                partition,
                data,
            } => {
                // Moved, never cloned: the store and every replica share
                // this one allocation and its memoized size.
                let data = Shared::new(data);
                for (_, p) in self.member.peers() {
                    ctx.send(
                        p,
                        KernelMsg::CkReplicate {
                            service,
                            partition,
                            data: data.clone(),
                        },
                    );
                }
                self.store.insert((service, partition), data);
            }
            KernelMsg::CkReplicate {
                service,
                partition,
                data,
            } => {
                self.store.insert((service, partition), data);
            }
            KernelMsg::CkLoad {
                req,
                service,
                partition,
            } => {
                let key = (service, partition);
                if self.synced {
                    self.answer(ctx, from, req, key);
                } else {
                    self.pending_loads.push((from, req, key));
                }
            }
            KernelMsg::CkDelete { service, partition } => {
                self.store.remove(&(service, partition));
                // Forward once; peers recognise each other and stop.
                if !self.member.peers().any(|(_, p)| p == from) {
                    for (_, p) in self.member.peers() {
                        ctx.send(p, KernelMsg::CkDelete { service, partition });
                    }
                }
            }
            KernelMsg::CkSyncReq { req } => {
                let items = self
                    .store
                    .iter()
                    .map(|(&(s, p), d)| (s, p, d.clone()))
                    .collect();
                ctx.send(from, KernelMsg::CkSyncResp { req, items });
            }
            KernelMsg::CkSyncResp { items, .. } => {
                for (s, p, d) in items {
                    self.store.entry((s, p)).or_insert(d);
                }
                if !self.synced {
                    self.synced = true;
                    self.flush_pending(ctx);
                    self.member.recovered(ctx, None);
                }
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_SYNC_TIMEOUT => {
                if !self.synced {
                    self.synced = true;
                    self.flush_pending(ctx);
                }
            }
            TOK_SYNC_RETRY => {
                if !self.synced {
                    self.send_sync_reqs(ctx);
                }
            }
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        "checkpoint"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use crate::federation::respawn_args;
    use phoenix_sim::{ClusterBuilder, NodeId, NodeSpec, RecoveryAction, SimDuration, World};

    const KEY: CkKey = (ServiceKind::Event, PartitionId(0));

    /// `n` instances on nodes `0..n`, wired to one another by hand (no full
    /// boot in a unit test), and a client on node `n`.
    fn federation(n: u32) -> (World<KernelMsg>, Vec<MemberInfo>, ClientHandle) {
        let mut w = ClusterBuilder::new()
            .nodes(n as usize + 1, NodeSpec::default())
            .build::<KernelMsg>();
        let members: Vec<MemberInfo> = (0..n)
            .map(|i| {
                let service = CheckpointService::new(PartitionId(i), KernelParams::fast());
                MemberInfo {
                    node: NodeId(i),
                    checkpoint: w.spawn(NodeId(i), Box::new(service)),
                    ..MemberInfo::unwired(PartitionId(i))
                }
            })
            .collect();
        rewire(&mut w, &members);
        let client = ClientHandle::spawn(&mut w, NodeId(n));
        (w, members, client)
    }

    fn rewire(w: &mut World<KernelMsg>, members: &[MemberInfo]) {
        let list = Shared::new(members.to_vec());
        for &local in members {
            let members = list.clone();
            w.inject(
                local.checkpoint,
                KernelMsg::PartitionView { members, local },
            );
        }
        w.run_for(SimDuration::from_millis(10));
    }

    fn save(w: &mut World<KernelMsg>, at: Pid, data: CheckpointData) {
        let (service, partition) = KEY;
        w.inject(
            at,
            KernelMsg::CkSave {
                service,
                partition,
                data,
            },
        );
        w.run_for(SimDuration::from_millis(10));
    }

    /// What every instance answers to a load of `KEY`, in member order.
    fn loads(
        w: &mut World<KernelMsg>,
        members: &[MemberInfo],
        client: &ClientHandle,
    ) -> Vec<Option<Shared<CheckpointData>>> {
        let (service, partition) = KEY;
        let load = |m: &MemberInfo| {
            let req = RequestId(9);
            client.send(
                w,
                m.checkpoint,
                KernelMsg::CkLoad {
                    req,
                    service,
                    partition,
                },
            );
            w.run_for(SimDuration::from_millis(10));
            match client.drain().pop() {
                Some((
                    from,
                    KernelMsg::CkLoadResp {
                        req: RequestId(9),
                        data,
                    },
                )) => {
                    assert_eq!(from, m.checkpoint);
                    data
                }
                other => panic!("no answer from {:?}: {other:?}", m.partition),
            }
        };
        members.iter().map(load).collect()
    }

    /// Drives a save and a load through a two-instance federation.
    #[test]
    fn save_replicates_to_peers() {
        let (mut w, members, client) = federation(2);
        save(
            &mut w,
            members[0].checkpoint,
            CheckpointData::Raw(vec![1, 2, 3]),
        );
        // Load from the *peer*: replication must have carried it over.
        let answers = loads(&mut w, &members[1..], &client);
        assert_eq!(answers, [Some(CheckpointData::Raw(vec![1, 2, 3]).into())]);
    }

    /// One snapshot through a three-instance federation: saved once and
    /// answered by every instance, pulled by a respawned instance from its
    /// peers, and deleted everywhere by one delete.
    #[test]
    fn a_snapshot_is_saved_resynced_and_deleted_across_three_instances() {
        let (mut w, mut members, client) = federation(3);
        let saved = CheckpointData::EventService {
            consumers: vec![phoenix_proto::ConsumerReg {
                consumer: Pid(70),
                filter: phoenix_proto::EventFilter::All,
            }],
            next_seq: 12,
        };
        save(&mut w, members[1].checkpoint, saved.clone());
        let everywhere = vec![Some(Shared::new(saved)); 3];
        assert_eq!(loads(&mut w, &members, &client), everywhere);

        // Partition 2's instance dies; its replacement starts empty and
        // answers only once a peer's `CkSyncResp` has filled it.
        w.kill_process(members[2].checkpoint);
        let action = RecoveryAction::RestartedInPlace;
        let list = Shared::new(members.clone());
        let args = respawn_args(&members[2], &list, action, &KernelParams::fast());
        let respawned = Box::new(CheckpointService::respawn(&args));
        members[2].checkpoint = w.spawn(NodeId(2), respawned);
        assert_eq!(loads(&mut w, &members, &client), everywhere);

        // Its peers learn the replacement's pid, so the delete reaches it.
        rewire(&mut w, &members);
        let (service, partition) = KEY;
        client.send(
            &mut w,
            members[0].checkpoint,
            KernelMsg::CkDelete { service, partition },
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(loads(&mut w, &members, &client), [None, None, None]);
    }
}
