//! The checkpoint service.
//!
//! Paper Sec 4.2: "Based on group service, it provides interfaces for
//! upper-layer services to save system data, which means that upper-layer
//! services themselves are responsible for saving and deleting system state
//! by calling interface of checkpoint service."
//!
//! One instance runs per partition on the server node. Instances form a
//! federation: every save is replicated to the instance's `SUCCESSORS`
//! successors, the peers after it in cyclic partition-id order, so every
//! respawned instance — restarted in place after a process fault, or
//! migrated to a backup node after a server-node crash — starts empty and
//! resynchronizes the partition's state from a surviving successor
//! (`CkSyncReq` / `CkSyncResp`) before it answers a load. With four
//! partitions or fewer the successors are every peer. Per-instance traffic
//! and storage stay flat as partitions are added.
//!
//! A snapshot is built once, by the service that saves it. `CkSave` is the
//! one hop that carries it by value; the instance that receives it moves it
//! into a `Shared<CheckpointData>`, and the store, every `CkReplicate`,
//! every `CkLoadResp` and every `CkSyncResp` item hold that one allocation
//! by pointer, sized once. Replicating to `n` successors costs `n` refcount
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
/// How many peers hold a replica of an instance's saves.
const SUCCESSORS: usize = 3;

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

    /// Where this instance's saves are replicated and deleted, and whom it
    /// asks for them when respawned: its successors, in wiring order.
    fn successors(&self) -> impl Iterator<Item = Pid> + '_ {
        let own = self.member.partition();
        let reach = reach(own, self.member.peers().map(|(p, _)| p));
        let near = move |(p, pid)| (after(own, p) <= reach).then_some(pid);
        self.member.peers().filter_map(near)
    }

    /// Whether this instance holds `of`'s saves: its own, or a partition's
    /// whose successor it is.
    fn keeps(&self, of: PartitionId) -> bool {
        let own = self.member.partition();
        let others = self.member.peers().map(|(p, _)| p).filter(|&p| p != of);
        of == own || after(of, own) <= reach(of, others.chain([own]))
    }

    fn answer(&self, ctx: &mut Ctx<'_, KernelMsg>, to: Pid, req: RequestId, key: CkKey) {
        let data = self.store.get(&key).cloned();
        ctx.send(to, KernelMsg::CkLoadResp { req, data });
    }

    /// The store is as complete as it will get: answer the loads that
    /// waited for it.
    fn sync_done(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.synced = true;
        for (to, req, key) in std::mem::take(&mut self.pending_loads) {
            self.answer(ctx, to, req, key);
        }
    }

    /// Fan the sync request to the successors, which hold this instance's
    /// saves. Under a retrying policy the fan-out re-fires with backoff
    /// until a response lands or the attempt budget is spent; the give-up
    /// timer remains the final fallback either way.
    fn send_sync_reqs(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        for p in self.successors() {
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
            // Pull the replicated state from the successors; the first
            // answer wins, the rest merge idempotently.
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
                for p in self.successors() {
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
                    for p in self.successors() {
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
                    if self.keeps(p) {
                        self.store.entry((s, p)).or_insert(d);
                    }
                }
                if !self.synced {
                    self.sync_done(ctx);
                    self.member.recovered(ctx, None);
                }
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_SYNC_TIMEOUT if !self.synced => self.sync_done(ctx),
            TOK_SYNC_RETRY if !self.synced => self.send_sync_reqs(ctx),
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        "checkpoint"
    }
}

/// Distance from partition `from` forward to `to` in cyclic partition-id
/// order.
fn after(from: PartitionId, to: PartitionId) -> u32 {
    to.0.wrapping_sub(from.0)
}

/// The distance after `of` within which `others` hold `of`'s replicas: the
/// `SUCCESSORS`-th smallest, or all of them when there are no more.
fn reach(of: PartitionId, others: impl Iterator<Item = PartitionId>) -> u32 {
    let mut near = [u32::MAX; SUCCESSORS];
    for d in others.map(|p| after(of, p)) {
        if d < near[SUCCESSORS - 1] {
            near[SUCCESSORS - 1] = d;
            near.sort_unstable();
        }
    }
    near[SUCCESSORS - 1]
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
            .record_events(true)
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
        save_as(w, at, KEY, data);
    }

    fn save_as(
        w: &mut World<KernelMsg>,
        at: Pid,
        (service, partition): CkKey,
        data: CheckpointData,
    ) {
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
        loads_of(w, members, client, KEY)
    }

    /// What every instance answers to a load of `(service, partition)`, in
    /// member order.
    fn loads_of(
        w: &mut World<KernelMsg>,
        members: &[MemberInfo],
        client: &ClientHandle,
        (service, partition): CkKey,
    ) -> Vec<Option<Shared<CheckpointData>>> {
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

    /// Which instances `from` sent checkpoint messages to, in send order
    /// (answers to the client left out), from the recorded event stream.
    fn ckpt_sends(w: &World<KernelMsg>, from: Pid, client: &ClientHandle) -> Vec<Pid> {
        let from = format!("from={} label=ckpt", from.0);
        let mut sends: Vec<(u64, Pid)> = w
            .event_log()
            .lines()
            .filter(|line| line.contains(&from))
            .map(|line| {
                let mut fields = line.split(' ').skip(1);
                let seq = fields.next().unwrap().parse().unwrap();
                let to = fields.nth(1).unwrap().trim_start_matches("to=");
                (seq, Pid(to.parse().unwrap()))
            })
            .filter(|&(_, to)| to != client.pid)
            .collect();
        sends.sort_unstable();
        sends.into_iter().map(|(_, to)| to).collect()
    }

    /// Six instances: a save at p0 is replicated to its three successors
    /// p1-p3 and nowhere else; one at p4 wraps round to p5, p0 and p1, sent
    /// in wiring order.
    #[test]
    fn a_save_is_replicated_to_the_three_successors_only() {
        let (mut w, members, client) = federation(6);
        let saved = Shared::new(CheckpointData::Raw(vec![6]));
        save(&mut w, members[0].checkpoint, (*saved).clone());
        let held = |at: &[usize]| {
            (0..6)
                .map(|i| at.contains(&i).then(|| saved.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(loads(&mut w, &members, &client), held(&[0, 1, 2, 3]));
        let replicas = [1, 2, 3].map(|i| members[i].checkpoint);
        assert_eq!(ckpt_sends(&w, members[0].checkpoint, &client), replicas);

        let key = (ServiceKind::Event, PartitionId(4));
        save_as(&mut w, members[4].checkpoint, key, (*saved).clone());
        assert_eq!(
            loads_of(&mut w, &members, &client, key),
            held(&[0, 1, 4, 5])
        );
        let replicas = [0, 1, 5].map(|i| members[i].checkpoint);
        assert_eq!(ckpt_sends(&w, members[4].checkpoint, &client), replicas);
    }

    /// Six instances: a respawned p0 asks only its successors p1-p3, keeps
    /// its own save and p3's (p0 succeeds p3) but not p1's, and answers the
    /// load that arrived before its state did.
    #[test]
    fn a_respawned_instance_resyncs_from_its_successors() {
        let (mut w, mut members, client) = federation(6);
        let data = |b| CheckpointData::Raw(vec![b]);
        let key = |p| (ServiceKind::Event, PartitionId(p));
        for p in [0, 1, 3] {
            save_as(
                &mut w,
                members[p as usize].checkpoint,
                key(p),
                data(p as u8),
            );
        }

        w.kill_process(members[0].checkpoint);
        let action = RecoveryAction::RestartedInPlace;
        let list = Shared::new(members.clone());
        let args = respawn_args(&members[0], &list, action, &KernelParams::fast());
        let respawned = w.spawn(NodeId(0), Box::new(CheckpointService::respawn(&args)));
        members[0].checkpoint = respawned;
        // Sent before the first `CkSyncResp` can land: held, then answered.
        let (service, partition) = key(0);
        let req = RequestId(5);
        let load = KernelMsg::CkLoad {
            req,
            service,
            partition,
        };
        client.send(&mut w, respawned, load);
        w.run_for(SimDuration::from_millis(10));
        match &client.drain()[..] {
            [(
                from,
                KernelMsg::CkLoadResp {
                    req: RequestId(5),
                    data: Some(d),
                },
            )] => {
                assert_eq!((*from, &**d), (respawned, &data(0)));
            }
            other => panic!("the held load was not answered: {other:?}"),
        }
        let successors = [1, 2, 3].map(|i| members[i].checkpoint);
        assert_eq!(ckpt_sends(&w, respawned, &client), successors);

        let at_p0 =
            |w: &mut World<KernelMsg>, p| loads_of(w, &members[..1], &client, key(p))[0].clone();
        assert_eq!(at_p0(&mut w, 3), Some(Shared::new(data(3))));
        assert_eq!(at_p0(&mut w, 1), None);
    }

    /// With four partitions the successors are every peer: a save reaches
    /// all three, sent in the order the instances were wired in.
    #[test]
    fn four_instances_replicate_to_every_peer_in_wiring_order() {
        let (mut w, members, client) = federation(4);
        let wiring: Vec<MemberInfo> = [2, 0, 3, 1].map(|i| members[i]).to_vec();
        rewire(&mut w, &wiring);
        save(&mut w, members[0].checkpoint, CheckpointData::Raw(vec![4]));
        let everywhere = vec![Some(Shared::new(CheckpointData::Raw(vec![4]))); 4];
        assert_eq!(loads(&mut w, &members, &client), everywhere);
        let replicas = [2, 3, 1].map(|i| members[i].checkpoint);
        assert_eq!(ckpt_sends(&w, members[0].checkpoint, &client), replicas);
    }
}
