//! Service federation: the supervision protocol between a partition's GSD
//! and the service instances it keeps alive — both ends, and nothing else.
//!
//! Paper Sec 4.4 / Fig 4: per-partition service instances form groups on
//! top of the group service; each instance registers with its partition's
//! GSD and heartbeats it, the GSD restarts or migrates an instance that
//! falls silent, and the replacement re-loads its state from the
//! checkpoint service. MSCS (Vogels et al.) runs every resource through
//! one small uniform interface; this file is that interface:
//!
//! * [`Member`] is the service's half. The three kernel services (event,
//!   bulletin, checkpoint) and the user-environment services embed one and
//!   hand it their start, the supervision messages and timer, and the end
//!   of a restore; it runs the conversation: the `ServiceUp` trace,
//!   `SvcRegister` and the first beat, wiring from `Boot` / `PartitionView`
//!   and when to re-register, the `SvcHeartbeat` timer at a cadence it
//!   holds (retuned by a runtime push), `CkSave` / `CkLoad` against the
//!   partition's checkpoint instance, the `Recovered` trace. Its peers are
//!   read from what it was last wired from, kept as it came: the boot
//!   directory every boot-time instance shares, or the supervising GSD's
//!   ring list (a view, or a replacement's respawn arguments). No instance
//!   keeps a peer list of its own.
//! * [`Supervisor`] is the GSD's half: who is registered, who displaced
//!   whom, who fell silent, what a restart costs, and the roster a migrated
//!   GSD rebuilds its user-environment services from. It takes no actor
//!   context and records no telemetry; the `Gsd` actor turns its answers
//!   into kills, spawns, timers and trace records.

use crate::group::liveness;
use crate::group::registry::RespawnArgs;
use crate::params::{self, KernelParams};
use phoenix_proto::{
    CheckpointData, KernelMsg, MemberInfo, PartitionId, RequestId, ServiceDirectory, ServiceKind,
    Shared,
};
use phoenix_sim::{
    Ctx, FaultTarget, Pid, RecoveryAction, SimDuration, SimTime, TimerId, TraceEvent,
};
use std::collections::BTreeMap;

/// Timer token of every member's supervision heartbeat.
const TOK_HB: u64 = 1;

/// What a member was last wired from: both hold every partition's
/// services, and both are shared with whoever else was wired from them.
enum Wiring {
    Boot(Shared<ServiceDirectory>),
    Ring(Shared<Vec<MemberInfo>>),
}

/// The member half: one supervised service instance's view of its
/// supervisor, its partition and its federation, and the whole supervision
/// conversation with that supervisor. The embedding actor hands it its
/// start, the supervision messages and timer, and the end of its restore;
/// `Member` decides what is sent when.
pub struct Member {
    kind: ServiceKind,
    /// Registry key the supervisor rebuilds this instance from.
    factory: String,
    /// The partition's services as the supervisor last announced them:
    /// `gsd` is whom to register with and heartbeat, `checkpoint` is where
    /// state is saved, the rest are the siblings.
    info: MemberInfo,
    /// Where [`peers`](Self::peers) are read from; `None` until wired.
    wiring: Option<Wiring>,
    /// The heartbeat cadence: the kernel parameters' interval until a
    /// runtime push retunes it.
    hb_interval: SimDuration,
    /// The pending heartbeat timer, once beats have started.
    hb_timer: Option<TimerId>,
    /// How this instance came back, until its state is back too.
    recovery: Option<RecoveryAction>,
}

impl Member {
    /// A boot-time instance: nothing to recover.
    pub fn new(
        kind: ServiceKind,
        factory: impl Into<String>,
        info: MemberInfo,
        params: &KernelParams,
    ) -> Member {
        Member {
            kind,
            factory: factory.into(),
            info,
            wiring: None,
            hb_interval: params.ft.hb_interval,
            hb_timer: None,
            recovery: None,
        }
    }

    /// A replacement built by a factory: wired from the supervisor's own
    /// view of the partition, with state still to restore.
    pub fn respawn(kind: ServiceKind, factory: impl Into<String>, args: &RespawnArgs) -> Member {
        let own = args.members.iter().find(|m| m.partition == args.partition);
        let mut info = own.copied().unwrap_or(MemberInfo::unwired(args.partition));
        info.gsd = args.gsd;
        info.checkpoint = args.checkpoint;
        Member {
            wiring: Some(Wiring::Ring(args.members.clone())),
            recovery: Some(args.action),
            ..Member::new(kind, factory, info, &args.params)
        }
    }

    pub(crate) fn partition(&self) -> PartitionId {
        self.info.partition
    }

    /// The partition's services as last announced.
    pub fn info(&self) -> &MemberInfo {
        &self.info
    }

    /// Same-kind instances of the other partitions, in wiring order (none
    /// for kinds that do not federate).
    pub(crate) fn peers(&self) -> impl Iterator<Item = (PartitionId, Pid)> + '_ {
        let members: &[MemberInfo] = match &self.wiring {
            Some(Wiring::Boot(dir)) => &dir.partitions,
            Some(Wiring::Ring(list)) => list,
            None => &[],
        };
        let (kind, own) = (self.kind, self.info.partition);
        let others = members.iter().filter(move |m| m.partition != own);
        others.filter_map(move |m| Some((m.partition, m.service(kind)?)))
    }

    /// Respawned and still waiting for its state.
    pub fn restoring(&self) -> bool {
        self.recovery.is_some()
    }

    /// The instance is up: trace it and, when it already knows its
    /// supervisor (a replacement does), register and send the first beat.
    /// Returns whether it did.
    pub fn start(&mut self, ctx: &mut Ctx<'_, KernelMsg>, service: &'static str) -> bool {
        ctx.service_up(service);
        let wired = self.info.gsd != Pid(0);
        if wired {
            self.register(ctx);
            self.beat(ctx);
        }
        wired
    }

    /// The supervision messages: `Boot`, `PartitionView` and the runtime
    /// heartbeat-interval push. Anything else is ignored, so an actor can
    /// hand over every message it does not handle itself.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, msg: KernelMsg) {
        match msg {
            // The boot directory: take up the partition's entry, register
            // and send the first beat.
            KernelMsg::Boot(dir) => {
                let local = dir.partition(self.info.partition).copied();
                self.wire(local.unwrap_or(self.info), Wiring::Boot(dir));
                self.register(ctx);
                self.beat(ctx);
            }
            KernelMsg::PartitionView { members, local } => {
                let supervisor_changed = self.wire(local, Wiring::Ring(members));
                // Kernel kinds register again only with a new supervisor:
                // an unconditional register would echo every view push into
                // another membership announcement. A user-environment
                // registration announces nothing, and it makes the GSD
                // re-save its roster to the checkpoint instance the view
                // may have replaced.
                if supervisor_changed || self.kind == ServiceKind::UserEnvironment {
                    self.register(ctx);
                }
            }
            KernelMsg::CfgSetParam { key, value, .. } => {
                let Some(interval) = params::pushed_hb_interval(&key, &value) else {
                    return;
                };
                self.hb_interval = interval;
                // The pending beat was timed for the old cadence: beat now
                // instead, and from now on at the new one.
                if let Some(pending) = self.hb_timer {
                    ctx.cancel_timer(pending);
                    self.beat(ctx);
                }
            }
            _ => {}
        }
    }

    /// The member's own timer (the next heartbeat); other tokens are
    /// ignored. Embedding actors number their own timers from 2.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_HB {
            self.beat(ctx);
        }
    }

    /// Checkpoint this instance's state under `(kind, partition)`.
    pub fn save(&self, ctx: &mut Ctx<'_, KernelMsg>, data: CheckpointData) {
        ck_save(ctx, &self.info, self.kind, data);
    }

    /// A respawned instance asks for the state [`save`](Self::save) stored;
    /// the reply goes to [`recovered`](Self::recovered). Returns whether it
    /// asked.
    pub fn restore(&self, ctx: &mut Ctx<'_, KernelMsg>) -> bool {
        if self.restoring() {
            ck_load(ctx, &self.info, self.kind);
        }
        self.restoring()
    }

    /// The restore is over, with `data` loaded (or given up on, `None`):
    /// trace `Recovered` once and hand the state back. `None` when no
    /// restore was under way.
    pub fn recovered(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        data: Option<Shared<CheckpointData>>,
    ) -> Option<CheckpointData> {
        let action = self.recovery.take()?;
        ctx.trace(TraceEvent::Recovered {
            target: FaultTarget::Process(ctx.pid()),
            action,
        });
        data.map(Shared::unwrap_or_clone)
    }

    /// Adopt the partition's services and the federation's membership.
    /// Returns whether the supervisor changed.
    fn wire(&mut self, local: MemberInfo, wiring: Wiring) -> bool {
        let supervisor_changed = self.info.gsd != local.gsd;
        self.info = local;
        self.wiring = Some(wiring);
        supervisor_changed
    }

    fn register(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.send(
            self.info.gsd,
            KernelMsg::SvcRegister {
                kind: self.kind,
                pid: ctx.pid(),
                factory: self.factory.clone(),
            },
        );
    }

    /// One heartbeat to the supervisor, and the timer for the next.
    fn beat(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.send(self.info.gsd, KernelMsg::SvcHeartbeat { pid: ctx.pid() });
        self.hb_timer = Some(ctx.set_timer(self.hb_interval, TOK_HB));
    }
}

/// Save `data` under `(kind, partition)` at the partition's checkpoint
/// instance.
pub(crate) fn ck_save(
    ctx: &mut Ctx<'_, KernelMsg>,
    local: &MemberInfo,
    kind: ServiceKind,
    data: CheckpointData,
) {
    ctx.send(
        local.checkpoint,
        KernelMsg::CkSave {
            service: kind,
            partition: local.partition,
            data,
        },
    );
}

/// Ask the partition's checkpoint instance for `(kind, partition)`.
pub(crate) fn ck_load(ctx: &mut Ctx<'_, KernelMsg>, local: &MemberInfo, kind: ServiceKind) {
    ctx.send(
        local.checkpoint,
        KernelMsg::CkLoad {
            req: RequestId(0),
            service: kind,
            partition: local.partition,
        },
    );
}

/// What a factory gets to rebuild a `kind` instance under the GSD
/// described by `local`.
pub(crate) fn respawn_args(
    local: &MemberInfo,
    members: &Shared<Vec<MemberInfo>>,
    action: RecoveryAction,
    params: &KernelParams,
) -> RespawnArgs {
    RespawnArgs {
        partition: local.partition,
        gsd: local.gsd,
        checkpoint: local.checkpoint,
        members: members.clone(),
        action,
        params: params.clone(),
    }
}

/// Cost to restart the event service in place (Table 3: 0.12 s).
pub(crate) const ES_RESTART_COST: SimDuration = SimDuration::from_millis(118);
/// Cost to restart a data-bulletin instance in place.
pub(crate) const DB_RESTART_COST: SimDuration = SimDuration::from_millis(150);
/// Cost to restart a checkpoint instance in place.
pub(crate) const CK_RESTART_COST: SimDuration = SimDuration::from_millis(150);
/// Cost to restart a user-environment service (PWS scheduler) in place.
pub(crate) const USERENV_RESTART_COST: SimDuration = SimDuration::from_millis(200);

/// Virtual time a restart of a `kind` instance takes (paper Table 3).
pub(crate) fn restart_cost(kind: ServiceKind) -> SimDuration {
    match kind {
        ServiceKind::Event => ES_RESTART_COST,
        ServiceKind::DataBulletin => DB_RESTART_COST,
        ServiceKind::Checkpoint => CK_RESTART_COST,
        _ => USERENV_RESTART_COST,
    }
}

struct Track {
    kind: ServiceKind,
    factory: String,
    last: SimTime,
}

/// A registered member whose heartbeats stopped.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Lapsed {
    pub(crate) pid: Pid,
    pub(crate) kind: ServiceKind,
    pub(crate) factory: String,
}

/// What a `SvcRegister` meant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Registered {
    /// Tracked; the partition's slots are unchanged.
    Tracked,
    /// An older instance than the live one holding the slot (left over
    /// from a false takeover): not tracked, to be killed — adopting it
    /// would flip-flop the slot and re-announce cluster-wide every flip.
    StaleDuplicate,
    /// Now the partition's instance of its kind. `displaced` is the live
    /// instance it replaces, to be killed.
    Adopted { displaced: Option<Pid> },
}

/// How a restored roster entry comes back under a respawned GSD.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Rejoin {
    /// The old instance survived: show it the partition view so it
    /// re-registers here.
    Rebind(Pid),
    /// It died with the old host: rebuild it from this factory.
    Respawn(String),
}

/// The supervisor half: the GSD's table of registered members, ordered by
/// pid — every answer that drives sends, kills or spawns comes out in pid
/// order, never in hash order.
#[derive(Default)]
pub(crate) struct Supervisor {
    tracks: BTreeMap<Pid, Track>,
    /// The user-environment roster changed since it was last checkpointed.
    roster_dirty: bool,
}

impl Supervisor {
    /// `pid` registers as a `kind` instance. For the federated kernel kinds
    /// the newest live pid owns the partition's slot in `local`.
    pub(crate) fn on_register(
        &mut self,
        local: &mut MemberInfo,
        kind: ServiceKind,
        pid: Pid,
        factory: String,
        now: SimTime,
        alive: impl Fn(Pid) -> bool,
    ) -> Registered {
        let track = Track {
            kind,
            factory,
            last: now,
        };
        self.tracks.insert(pid, track);
        self.roster_dirty |= kind == ServiceKind::UserEnvironment;
        let Some(slot) = local.service_mut(kind).filter(|slot| **slot != pid) else {
            return Registered::Tracked;
        };
        if pid < *slot && alive(*slot) {
            self.tracks.remove(&pid);
            return Registered::StaleDuplicate;
        }
        let old = std::mem::replace(slot, pid);
        let displaced = (old != Pid(0) && alive(old)).then_some(old);
        if let Some(old) = displaced {
            self.tracks.remove(&old);
        }
        Registered::Adopted { displaced }
    }

    pub(crate) fn on_heartbeat(&mut self, pid: Pid, now: SimTime) {
        if let Some(t) = self.tracks.get_mut(&pid) {
            t.last = now;
        }
    }

    /// Drop every member silent for longer than `window` and report it,
    /// in pid order.
    pub(crate) fn scan(&mut self, now: SimTime, window: SimDuration) -> Vec<Lapsed> {
        let mut lapsed = Vec::new();
        self.tracks.retain(|&pid, t| {
            let stale = liveness::stale(now, t.last, window);
            if stale {
                lapsed.push(Lapsed {
                    pid,
                    kind: t.kind,
                    factory: std::mem::take(&mut t.factory),
                });
            }
            !stale
        });
        lapsed
    }

    /// The cadence changed: restart every member's window at `now`, and
    /// name them, in pid order, to be told of the change.
    pub(crate) fn rebase(&mut self, now: SimTime) -> Vec<Pid> {
        self.tracks.values_mut().for_each(|t| t.last = now);
        self.pids().collect()
    }

    /// Every tracked member, in pid order.
    pub(crate) fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.tracks.keys().copied()
    }

    /// The tracked user-environment services, `(factory, pid)` in pid order.
    pub(crate) fn roster(&self) -> impl Iterator<Item = (&str, Pid)> {
        self.tracks
            .iter()
            .filter(|(_, t)| t.kind == ServiceKind::UserEnvironment)
            .map(|(&pid, t)| (t.factory.as_str(), pid))
    }

    /// The roster to checkpoint, if it changed since this was last asked.
    pub(crate) fn roster_to_save(&mut self) -> Option<CheckpointData> {
        std::mem::take(&mut self.roster_dirty).then(|| {
            let entries = self.roster().map(|(f, pid)| (f.to_string(), pid)).collect();
            CheckpointData::Supervision { entries }
        })
    }

    /// The steps that bring a checkpointed roster back, in roster order
    /// (none for a snapshot that is not a roster).
    pub(crate) fn rejoin(saved: &CheckpointData, alive: impl Fn(Pid) -> bool) -> Vec<Rejoin> {
        let CheckpointData::Supervision { entries } = saved else {
            return Vec::new();
        };
        let step = |(factory, pid): &(String, Pid)| match alive(*pid) {
            true => Rejoin::Rebind(*pid),
            false => Rejoin::Respawn(factory.clone()),
        };
        entries.iter().map(step).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use crate::params::FtParams;
    use phoenix_sim::{Actor, ClusterBuilder, NodeId, NodeSpec};

    const EVENT: ServiceKind = ServiceKind::Event;
    const USER: ServiceKind = ServiceKind::UserEnvironment;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn register_table() {
        use Registered::*;
        // (kind, registering pid, live pids, expected outcome, event slot after)
        let table = [
            (EVENT, 5, vec![5], Adopted { displaced: None }, 5),
            (EVENT, 5, vec![5], Tracked, 5),
            (
                EVENT,
                9,
                vec![5, 9],
                Adopted {
                    displaced: Some(Pid(5)),
                },
                9,
            ),
            (EVENT, 5, vec![5, 9], StaleDuplicate, 9),
            (USER, 7, vec![7, 9], Tracked, 9),
            (EVENT, 12, vec![12], Adopted { displaced: None }, 12),
            // Older than the slot's holder, but that one is dead: adopted.
            (EVENT, 5, vec![5], Adopted { displaced: None }, 5),
        ];
        let mut sup = Supervisor::default();
        let mut local = MemberInfo::unwired(PartitionId(0));
        for (row, (kind, pid, live, want, slot)) in table.into_iter().enumerate() {
            let alive = |p: Pid| live.contains(&p.0);
            let got = sup.on_register(&mut local, kind, Pid(pid), "f".into(), at(0), alive);
            assert_eq!(got, want, "row {row}");
            assert_eq!(local.event, Pid(slot), "row {row}");
            let tracked = sup.pids().any(|p| p == Pid(pid));
            assert_eq!(tracked, want != StaleDuplicate, "row {row}");
            if let Adopted {
                displaced: Some(old),
            } = want
            {
                assert!(
                    sup.pids().all(|p| p != old),
                    "row {row}: displaced pid dropped"
                );
            }
        }
        assert_eq!((local.bulletin, local.checkpoint), (Pid(0), Pid(0)));
    }

    #[test]
    fn scan_reports_lapsed_members_in_pid_order() {
        let ft = FtParams::fast();
        let window = liveness::window(&ft);
        let mut sup = Supervisor::default();
        let mut local = MemberInfo::unwired(PartitionId(3));
        let members = [
            (USER, 30, "sched:b"),
            (ServiceKind::Checkpoint, 10, "checkpoint:p3"),
            (EVENT, 20, "event:p3"),
        ];
        for (kind, pid, factory) in members {
            sup.on_register(&mut local, kind, Pid(pid), factory.into(), at(0), |_| true);
        }
        assert!(
            sup.scan(at(0) + window, window).is_empty(),
            "the window is inclusive"
        );
        sup.on_heartbeat(Pid(20), at(500));
        sup.on_heartbeat(Pid(99), at(500)); // never registered: ignored
        let lapsed = sup.scan(at(1) + window, window);
        let want = [
            (10, ServiceKind::Checkpoint, "checkpoint:p3"),
            (30, USER, "sched:b"),
        ];
        let want = want.map(|(pid, kind, factory)| Lapsed {
            pid: Pid(pid),
            kind,
            factory: factory.to_string(),
        });
        assert_eq!(lapsed, want);
        assert_eq!(
            sup.pids().collect::<Vec<_>>(),
            vec![Pid(20)],
            "lapsed members are dropped"
        );
        assert!(
            sup.scan(at(1) + window, window).is_empty(),
            "and reported once"
        );

        assert_eq!(restart_cost(EVENT), ES_RESTART_COST);
        assert_eq!(restart_cost(ServiceKind::DataBulletin), DB_RESTART_COST);
        assert_eq!(restart_cost(ServiceKind::Checkpoint), CK_RESTART_COST);
        assert_eq!(restart_cost(USER), USERENV_RESTART_COST);
    }

    #[test]
    fn roster_round_trip() {
        let mut sup = Supervisor::default();
        let mut local = MemberInfo::unwired(PartitionId(0));
        assert_eq!(
            sup.roster_to_save(),
            None,
            "nothing registered, nothing to save"
        );
        for (kind, pid, factory) in [
            (USER, 41, "sched:b"),
            (EVENT, 8, "event:p0"),
            (USER, 17, "biz"),
        ] {
            sup.on_register(&mut local, kind, Pid(pid), factory.into(), at(0), |_| true);
        }
        // Pid order, whatever order they registered in; kernel kinds are
        // not on the roster (the GSD rebuilds those itself).
        let roster = sup
            .roster_to_save()
            .expect("user-environment registrations dirty it");
        let entries = vec![
            ("biz".to_string(), Pid(17)),
            ("sched:b".to_string(), Pid(41)),
        ];
        assert_eq!(roster, CheckpointData::Supervision { entries });
        assert_eq!(sup.roster_to_save(), None, "saved once per change");
        sup.on_register(&mut local, USER, Pid(17), "biz".into(), at(5), |_| true);
        assert_eq!(
            sup.roster_to_save(),
            Some(roster.clone()),
            "a re-registration re-saves"
        );

        // Over the wire to the checkpoint service and back into a
        // respawned supervisor.
        let saved = phoenix_proto::wire::encode(&roster);
        let restored = phoenix_proto::wire::decode(&saved).expect("the roster decodes");
        let steps = Supervisor::rejoin(&restored, |p| p == Pid(41));
        assert_eq!(
            steps,
            vec![Rejoin::Respawn("biz".to_string()), Rejoin::Rebind(Pid(41))]
        );
        let other = CheckpointData::Raw(vec![1]);
        assert_eq!(Supervisor::rejoin(&other, |_| true), [], "not a roster");
    }

    /// The supervisor half behind the thinnest possible actor: it scans
    /// when probed, and also plays the partition's checkpoint instance,
    /// with nothing stored.
    struct Sup {
        sup: Supervisor,
        local: MemberInfo,
        lapsed: Vec<Lapsed>,
    }

    const WINDOW: SimDuration = SimDuration::from_millis(250);

    impl Actor<KernelMsg> for Sup {
        fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
            (self.local.gsd, self.local.checkpoint) = (ctx.pid(), ctx.pid());
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
            match msg {
                KernelMsg::SvcRegister { kind, pid, factory } => {
                    let alive = |p| ctx.process_is_alive(p);
                    let local = &mut self.local;
                    self.sup
                        .on_register(local, kind, pid, factory, ctx.now(), alive);
                }
                KernelMsg::SvcHeartbeat { pid } => self.sup.on_heartbeat(pid, ctx.now()),
                KernelMsg::ProbeReq { .. } => self.lapsed.extend(self.sup.scan(ctx.now(), WINDOW)),
                KernelMsg::CkLoad { req, .. } => {
                    ctx.send(from, KernelMsg::CkLoadResp { req, data: None })
                }
                _ => {}
            }
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// The member half behind the thinnest possible actor.
    struct Svc(Member);

    impl Actor<KernelMsg> for Svc {
        fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
            self.0.start(ctx, "svc");
            self.0.restore(ctx);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, _from: Pid, msg: KernelMsg) {
            match msg {
                KernelMsg::CkLoadResp { data, .. } => {
                    self.0.recovered(ctx, data);
                }
                other => self.0.on_message(ctx, other),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
            self.0.on_timer(ctx, token);
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    /// A boot directory holding `partitions`.
    fn boot(partitions: Vec<MemberInfo>) -> KernelMsg {
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions,
            nodes: vec![],
        };
        KernelMsg::Boot(dir.into())
    }

    /// Fast parameters beating every 100 ms, well inside `WINDOW`.
    fn beat_100ms() -> KernelParams {
        let mut params = KernelParams::fast();
        params.ft.hb_interval = SimDuration::from_millis(100);
        params
    }

    #[test]
    fn member_and_supervisor_meet_through_a_world() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let sup = Sup {
            sup: Supervisor::default(),
            local: MemberInfo::unwired(PartitionId(0)),
            lapsed: Vec::new(),
        };
        let sup = w.spawn(NodeId(0), Box::new(sup));
        let state = |w: &phoenix_sim::World<KernelMsg>| {
            let s = w.actor_as::<Sup>(sup).expect("supervisor introspectable");
            (s.local.event, s.sup.pids().collect::<Vec<_>>())
        };
        let scan = |w: &mut phoenix_sim::World<KernelMsg>| {
            w.inject(sup, KernelMsg::ProbeReq { req: RequestId(0) });
            w.run_for(SimDuration::from_millis(1));
            let s = w.actor_as::<Sup>(sup).expect("supervisor introspectable");
            s.lapsed.iter().map(|l| l.pid).collect::<Vec<_>>()
        };

        // A boot-time member: silent until the boot directory names its
        // supervisor.
        let params = beat_100ms();
        let unwired = Member::new(
            EVENT,
            "event:p0",
            MemberInfo::unwired(PartitionId(0)),
            &params,
        );
        let first = w.spawn(NodeId(1), Box::new(Svc(unwired)));
        w.run_for(SimDuration::from_millis(300));
        assert_eq!(state(&w), (Pid(0), vec![]));
        let local = w
            .actor_as::<Sup>(sup)
            .expect("supervisor introspectable")
            .local;
        assert_eq!((local.gsd, local.checkpoint), (sup, sup));
        let peer = MemberInfo {
            event: Pid(77),
            ..MemberInfo::unwired(PartitionId(1))
        };
        w.inject(first, boot(vec![local, peer]));
        w.run_for(SimDuration::from_millis(300));
        assert_eq!(state(&w), (first, vec![first]), "registered and adopted");
        let member = &w.actor_as::<Svc>(first).expect("member introspectable").0;
        assert!(member.peers().eq([(PartitionId(1), Pid(77))]));
        // A view naming the same supervisor: no second registration, beats
        // go on.
        let members = Shared::new(vec![local, peer]);
        w.inject(first, KernelMsg::PartitionView { members, local });
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(scan(&mut w), [], "heartbeats flow");

        // It dies and is found silent; a replacement is built the way a
        // factory would, restores (from an empty checkpoint), and takes
        // the slot.
        w.kill_process(first);
        w.run_for(SimDuration::from_millis(300));
        assert_eq!(scan(&mut w), [first]);
        assert_eq!(
            state(&w),
            (first, vec![]),
            "the track is gone, the slot waits"
        );
        let args = {
            let s = w.actor_as::<Sup>(sup).expect("supervisor introspectable");
            let action = RecoveryAction::RestartedInPlace;
            respawn_args(&s.local, &Shared::new(vec![s.local, peer]), action, &params)
        };
        assert_eq!(
            (args.gsd, args.checkpoint, args.partition),
            (sup, sup, PartitionId(0))
        );
        let second = w.spawn(
            NodeId(1),
            Box::new(Svc(Member::respawn(EVENT, "event:p0", &args))),
        );
        w.run_for(SimDuration::from_millis(300));
        assert_eq!(state(&w), (second, vec![second]));
        let member = &w.actor_as::<Svc>(second).expect("member introspectable").0;
        assert!(!member.restoring(), "the load reply ended the restore");
        assert!(member.peers().eq([(PartitionId(1), Pid(77))]));
        let recovered = w.trace().count(|e| {
            matches!(e, TraceEvent::Recovered { target: FaultTarget::Process(p), action }
                if *p == second && *action == RecoveryAction::RestartedInPlace)
        });
        assert_eq!(recovered, 1);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(
            scan(&mut w),
            [first],
            "the replacement beats at its arguments' cadence: only its predecessor lapsed"
        );
    }

    /// `SvcRegister`s each of `sups` received since last asked.
    fn registers(sups: &[&ClientHandle]) -> Vec<usize> {
        let register = |(_, m): &&(Pid, KernelMsg)| matches!(m, KernelMsg::SvcRegister { .. });
        sups.iter()
            .map(|s| s.drain().iter().filter(register).count())
            .collect()
    }

    /// Kernel kinds re-register only with a new supervisor; the
    /// user-environment kind on every view.
    #[test]
    fn each_kind_re_registers_by_its_own_policy() {
        // Registrations at (old, new) supervisor after boot, after a view
        // naming the same supervisor, after a view naming a new one.
        let kernel = [[1, 0], [0, 0], [0, 1]];
        let user = [[1, 0], [1, 0], [0, 1]];
        for (kind, want) in [(EVENT, kernel), (USER, user)] {
            let mut w = ClusterBuilder::new()
                .nodes(2, NodeSpec::default())
                .build::<KernelMsg>();
            let old = ClientHandle::spawn(&mut w, NodeId(0));
            let new = ClientHandle::spawn(&mut w, NodeId(0));
            let under = |gsd| MemberInfo {
                gsd,
                ..MemberInfo::unwired(PartitionId(0))
            };
            let view = |local| KernelMsg::PartitionView {
                members: Shared::new(vec![local]),
                local,
            };
            let member = Member::new(
                kind,
                "f",
                MemberInfo::unwired(PartitionId(0)),
                &beat_100ms(),
            );
            let svc = w.spawn(NodeId(1), Box::new(Svc(member)));
            let steps = [
                boot(vec![under(old.pid)]),
                view(under(old.pid)),
                view(under(new.pid)),
            ];
            for (step, want) in steps.into_iter().zip(want) {
                w.inject(svc, step);
                w.run_for(SimDuration::from_millis(10));
                assert_eq!(registers(&[&old, &new]), want, "{kind:?}");
            }
        }
    }

    /// A heartbeat-interval push retunes a beating member at once: one
    /// beat on arrival, then the new cadence, and the beat pending on the
    /// old cadence never fires.
    #[test]
    fn a_pushed_interval_replaces_the_pending_beat() {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<KernelMsg>();
        let sup = ClientHandle::spawn(&mut w, NodeId(0));
        let info = MemberInfo {
            gsd: sup.pid,
            ..MemberInfo::unwired(PartitionId(0))
        };
        let svc = w.spawn(
            NodeId(1),
            Box::new(Svc(Member::new(EVENT, "f", info, &beat_100ms()))),
        );
        w.run_for(SimDuration::from_millis(150));
        let beats = |sup: &ClientHandle| {
            let beat = |(_, m): &&(Pid, KernelMsg)| matches!(m, KernelMsg::SvcHeartbeat { .. });
            sup.drain().iter().filter(beat).count()
        };
        assert_eq!(beats(&sup), 2, "t = 0 and 100 ms");
        let push = |value: &str| KernelMsg::CfgSetParam {
            req: RequestId(0),
            key: "hb_interval_ms".into(),
            value: value.into(),
        };
        w.inject(svc, push("not a number"));
        w.inject(svc, push("1000"));
        w.run_for(SimDuration::from_millis(2_020));
        assert_eq!(beats(&sup), 3, "on arrival, then 1 s and 2 s later");
        assert_eq!(
            w.cancelled_timers(),
            0,
            "the replaced timer came due unfired"
        );
    }
}
