//! The meta-group ring: who is in it, in what order, in which role, and
//! who may come in.
//!
//! Paper Sec 4.4 / Fig 3. The GSDs of all partitions form a ring; the
//! first member is the Leader, the second the Princess, and every member
//! watches its predecessor and heartbeats its successor. [`Ring`] is the
//! only owner of that list. It holds it in ring order at all times —
//! quarantined (fail-slow) partitions at the tail so they can hold neither
//! leading seat, lowest partition first otherwise, one entry per
//! partition — together with the membership epoch, the quarantine set and
//! the last coordinates held for each partition that left, and it makes the
//! membership decisions: what a `MetaJoin` means here, and whether a
//! `MetaMembership` broadcast is to be adopted, ignored or yielded to.
//! No sends, no telemetry, no simulator context: the `Gsd` actor turns
//! the answers into messages, traces and re-armed watches.
//!
//! The list is `Shared` and never changed in place: a change builds a new
//! list (with a fresh wire-size memo), and a list that comes out as held
//! is not copied. So every GSD that adopted the same broadcast, or was
//! booted from the same directory, holds one list, and the views and
//! broadcasts built from it carry that list too.

use phoenix_proto::{MemberInfo, PartitionId, Shared};
use phoenix_sim::Pid;
use std::collections::{BTreeMap, BTreeSet};

/// A seat in the ring (paper Fig 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    Leader,
    Princess,
    Member,
    /// Not in the ring it holds (not wired yet).
    Orphan,
}

impl Role {
    fn at(index: Option<usize>) -> Role {
        match index {
            Some(0) => Role::Leader,
            Some(1) => Role::Princess,
            Some(_) => Role::Member,
            None => Role::Orphan,
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Princess => "princess",
            Role::Member => "member",
            Role::Orphan => "orphan",
        }
    }
}

/// What a `MetaJoin` means to the ring that received it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Join {
    /// Only the leader admits, and this member is not it: the leader it
    /// holds, if it holds any yet, should hear of it.
    Forward,
    /// The joiner is held exactly as it describes itself — or, under
    /// regroup at a non-leader, is the very instance held as leader.
    /// Nothing changes (no epoch bump, no rebroadcast: that damps
    /// membership wars); under regroup the joiner is answered with the
    /// membership, on which a frozen instance asking back in after a heal
    /// thaws.
    Unchanged,
    /// The entry held is newer than the joiner: a stale pre-partition
    /// instance asks back in after the majority replaced it. The newer
    /// pid stays; the membership it is answered with makes it yield.
    Superseded,
    /// Entered, under a bumped epoch. `displaced` is the instance it
    /// replaces: no longer a member, so a broadcast would miss it.
    Admitted { displaced: Option<Pid> },
}

/// What a `MetaMembership` broadcast means to the ring that received it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Adoption {
    /// The group installed a newer GSD for this partition (a rescue or a
    /// false takeover raced us): this instance must go.
    Yield,
    /// Older than the membership held: ignored.
    Stale,
    /// Adopted. `named_as` is the seat the sender's order gives this very
    /// instance when the broadcast names it — the majority vouching for
    /// us, the only thaw edge a frozen GSD accepts. `rejoin`: the
    /// broadcast had no entry for this partition, so the leader must hear
    /// from us again.
    Adopted {
        named_as: Option<Role>,
        rejoin: bool,
    },
}

/// A ring's member list, as held and handed on.
pub(crate) type Members = Shared<Vec<MemberInfo>>;

pub(crate) struct Ring {
    me: PartitionId,
    members: Members,
    epoch: u64,
    quarantined: BTreeSet<PartitionId>,
    /// Guards `MetaQuarantine` broadcasts: stale ones are ignored.
    quarantine_epoch: u64,
    /// The partitions that left the ring, with their coordinates as of the
    /// last settle: where a rescue restarts one and where a regroup round
    /// pings it. A settled ring holds no entry for a member.
    departed: BTreeMap<PartitionId, MemberInfo>,
}

impl Ring {
    pub(crate) fn new(me: PartitionId) -> Ring {
        Ring {
            me,
            members: Shared::default(),
            epoch: 0,
            quarantined: BTreeSet::new(),
            quarantine_epoch: 0,
            departed: BTreeMap::new(),
        }
    }

    /// Put the list back in ring order — a copy only when it is out of
    /// order — and forget the departure of every member.
    fn settle(&mut self) {
        let q = &self.quarantined;
        let key = |m: &MemberInfo| (q.contains(&m.partition), m.partition);
        if !self.members.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            let mut list = self.members.to_vec();
            list.sort_by_key(key);
            list.dedup_by_key(|m| m.partition);
            self.members = Shared::new(list);
        }
        self.departed
            .retain(|&p, _| self.members.iter().all(|m| m.partition != p));
    }

    /// Hold `list` from now on; whoever it leaves out departs. (A member's
    /// entry differs from its settled one only after `refresh_own`, which
    /// has kept the settled one already.)
    fn replace(&mut self, list: Members) {
        let left = |m: &&MemberInfo| list.iter().all(|n| n.partition != m.partition);
        for m in self.members.iter().filter(left) {
            self.departed.entry(m.partition).or_insert(*m);
        }
        self.members = list;
    }

    /// The list with `member` in its partition's entry, or added.
    fn with(&self, member: MemberInfo) -> Members {
        let mut list = self.members.to_vec();
        match self.index_of(member.partition) {
            Some(i) => list[i] = member,
            None => list.push(member),
        }
        Shared::new(list)
    }

    // ---- geometry ---------------------------------------------------------

    /// The members, in ring order: the list itself, to be handed on.
    pub(crate) fn members(&self) -> &Members {
        &self.members
    }

    /// Every member but this partition's own, in ring order.
    pub(crate) fn others(&self) -> impl Iterator<Item = &MemberInfo> {
        self.members.iter().filter(|m| m.partition != self.me)
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The leader announces a change of its own: a new epoch.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// A respawn takes up its rescuer's epoch, so that what it announces
    /// is credible: from epoch 0 every peer would discard it as stale.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn index_of(&self, partition: PartitionId) -> Option<usize> {
        self.members.iter().position(|m| m.partition == partition)
    }

    pub(crate) fn get(&self, partition: PartitionId) -> Option<MemberInfo> {
        self.index_of(partition).map(|i| self.members[i])
    }

    /// `partition`'s coordinates: as a member, else as last held.
    pub(crate) fn known(&self, partition: PartitionId) -> Option<MemberInfo> {
        self.get(partition)
            .or_else(|| self.departed.get(&partition).copied())
    }

    pub(crate) fn role(&self) -> Role {
        Role::at(self.index_of(self.me))
    }

    pub(crate) fn leader(&self) -> Option<MemberInfo> {
        self.members.first().copied()
    }

    pub(crate) fn princess(&self) -> Option<MemberInfo> {
        self.members.get(1).copied()
    }

    /// This member's index and the ring's size, when it has a neighbour.
    fn seat(&self) -> Option<(usize, usize)> {
        let (i, n) = (self.index_of(self.me)?, self.members.len());
        (n >= 2).then_some((i, n))
    }

    /// The next member round the ring (whom this one heartbeats).
    pub(crate) fn successor(&self) -> Option<MemberInfo> {
        let (i, n) = self.seat()?;
        Some(self.members[(i + 1) % n])
    }

    /// The previous member round the ring (whom this one watches).
    pub(crate) fn predecessor(&self) -> Option<MemberInfo> {
        let (i, n) = self.seat()?;
        Some(self.members[(i + n - 1) % n])
    }

    /// The `configured` partitions that have no member, in that order.
    pub(crate) fn missing(
        &self,
        configured: impl Iterator<Item = PartitionId>,
    ) -> Vec<PartitionId> {
        configured.filter(|&p| self.index_of(p).is_none()).collect()
    }

    pub(crate) fn quarantined(&self) -> &BTreeSet<PartitionId> {
        &self.quarantined
    }

    pub(crate) fn quarantine_epoch(&self) -> u64 {
        self.quarantine_epoch
    }

    // ---- changes ----------------------------------------------------------

    /// Start over from `members`, with `me` in.
    pub(crate) fn install(&mut self, members: Members, me: MemberInfo) {
        self.replace(members);
        self.upsert(me);
    }

    /// `member` takes its partition's entry, or enters.
    pub(crate) fn upsert(&mut self, member: MemberInfo) {
        if self.get(member.partition) != Some(member) {
            self.members = self.with(member);
        }
        self.settle();
    }

    /// Our own coordinates changed (a partition service was replaced): the
    /// entry held for ourselves, if there is one yet, follows. Until the
    /// next settle the coordinates it replaces stay what a removal keeps.
    pub(crate) fn refresh_own(&mut self, me: MemberInfo) {
        if let Some(old) = self.get(me.partition).filter(|&old| old != me) {
            self.departed.entry(me.partition).or_insert(old);
            self.members = self.with(me);
        }
    }

    pub(crate) fn remove(&mut self, partition: PartitionId) {
        self.retain(|m| m.partition != partition);
    }

    /// Shrink to ourselves: the group is rebuilt around this member.
    pub(crate) fn reseed_singleton(&mut self) {
        let me = self.me;
        self.retain(|m| m.partition == me);
    }

    fn retain(&mut self, keep: impl Fn(&MemberInfo) -> bool) {
        if !self.members.iter().all(&keep) {
            let kept = self.members.iter().copied().filter(keep).collect();
            self.replace(Shared::new(kept));
        }
    }

    /// Adopt the quarantine set broadcast under `epoch` and re-derive the
    /// ring order. False — and nothing changes — when the broadcast is
    /// older than the set held, or is the set held.
    pub(crate) fn set_quarantine(&mut self, epoch: u64, set: BTreeSet<PartitionId>) -> bool {
        if epoch < self.quarantine_epoch
            || (epoch == self.quarantine_epoch && set == self.quarantined)
        {
            return false;
        }
        self.quarantine_epoch = epoch;
        self.quarantined = set;
        self.settle();
        true
    }

    // ---- decisions --------------------------------------------------------

    /// `member` asks to be in the ring. `regroup` says whether the quorum
    /// layer is on: only then is a newer entry kept against an older
    /// joiner, and only then does anybody answer a join that changes
    /// nothing.
    pub(crate) fn on_join(&mut self, member: MemberInfo, regroup: bool) -> Join {
        if self.role() != Role::Leader {
            // A leader that froze on a minority island and asks back in
            // before any takeover ripened is still the leader every peer
            // holds. Forwarded, its join would come back to itself and be
            // dropped as frozen, for ever. Any unfrozen member may vouch
            // for it instead: the membership it holds names that pid.
            let is_leader = |l: MemberInfo| (l.partition, l.gsd) == (member.partition, member.gsd);
            if regroup && self.leader().is_some_and(is_leader) {
                return Join::Unchanged;
            }
            return Join::Forward;
        }
        let held = self.get(member.partition);
        if held == Some(member) {
            return Join::Unchanged;
        }
        if regroup && held.is_some_and(|old| old.gsd > member.gsd) {
            return Join::Superseded;
        }
        self.upsert(member);
        self.epoch += 1;
        let displaced = held.map(|old| old.gsd).filter(|&old| old != member.gsd);
        Join::Admitted { displaced }
    }

    /// The membership `members` was broadcast under `epoch`; `me` is this
    /// instance as it knows itself, which no broadcast overrides.
    pub(crate) fn on_membership(
        &mut self,
        epoch: u64,
        members: Members,
        me: MemberInfo,
    ) -> Adoption {
        // Duplicate resolution first, whatever the epoch.
        let mine = members.iter().position(|m| m.partition == me.partition);
        if mine.is_some_and(|i| members[i].gsd > me.gsd) {
            return Adoption::Yield;
        }
        if epoch < self.epoch {
            return Adoption::Stale;
        }
        let named_as = mine
            .filter(|&i| members[i].gsd == me.gsd)
            .map(|i| Role::at(Some(i)));
        self.epoch = epoch;
        self.install(members, me);
        Adoption::Adopted {
            named_as,
            rejoin: mine.is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sim::{NodeId, SimRng};

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const P2: PartitionId = PartitionId(2);
    const P3: PartitionId = PartitionId(3);

    fn member(p: PartitionId, gsd: u64) -> MemberInfo {
        MemberInfo {
            node: NodeId(p.0 * 4),
            gsd: Pid(gsd),
            ..MemberInfo::unwired(p)
        }
    }

    /// The ring of `me`, holding partitions `parts` with gsd pid 10 + id.
    fn ring(me: PartitionId, parts: &[PartitionId]) -> Ring {
        let mut r = Ring::new(me);
        let members: Vec<_> = parts.iter().map(|&p| member(p, 10 + p.0 as u64)).collect();
        r.install(members.into(), member(me, 10 + me.0 as u64));
        r
    }

    fn order(r: &Ring) -> Vec<PartitionId> {
        r.members().iter().map(|m| m.partition).collect()
    }

    #[test]
    fn role_follows_position_and_quarantine_sinks_to_the_tail() {
        use Role::*;
        let all = [P2, P0, P3, P1];
        for (me, want) in [(P0, Leader), (P1, Princess), (P2, Member), (P3, Member)] {
            let r = ring(me, &all);
            assert_eq!(order(&r), [P0, P1, P2, P3], "lowest partition first");
            assert_eq!(r.role(), want);
            assert_eq!(r.role().as_str(), want.as_str());
            assert_eq!(r.leader().map(|m| m.partition), Some(P0));
            assert_eq!(r.princess().map(|m| m.partition), Some(P1));
        }
        // Partition 0 quarantined: it can hold neither leading seat.
        for (me, want) in [(P0, Member), (P1, Leader), (P2, Princess), (P3, Member)] {
            let mut r = ring(me, &all);
            assert!(r.set_quarantine(1, BTreeSet::from([P0])));
            assert_eq!(order(&r), [P1, P2, P3, P0]);
            assert_eq!(r.role(), want);
        }
        assert_eq!(Ring::new(P1).role(), Orphan, "not wired: in no ring");
        assert_eq!(Orphan.as_str(), "orphan");
    }

    #[test]
    fn neighbours_wrap_round_the_ring() {
        let seat = |r: &Ring| {
            let partition = |m: Option<MemberInfo>| m.map(|m| m.partition);
            (partition(r.predecessor()), partition(r.successor()))
        };
        let all = [P0, P1, P2];
        assert_eq!(seat(&ring(P0, &all)), (Some(P2), Some(P1)));
        assert_eq!(seat(&ring(P1, &all)), (Some(P0), Some(P2)));
        assert_eq!(seat(&ring(P2, &all)), (Some(P1), Some(P0)));
        assert_eq!(seat(&ring(P0, &[P0, P1])), (Some(P1), Some(P1)));
        assert_eq!(seat(&ring(P0, &[P0])), (None, None), "alone: no neighbour");
        assert_eq!(seat(&Ring::new(P0)), (None, None));
    }

    #[test]
    fn quarantine_broadcasts_are_epoch_guarded() {
        let mut r = ring(P1, &[P0, P1, P2]);
        assert!(r.set_quarantine(2, BTreeSet::from([P0])));
        assert!(!r.set_quarantine(1, BTreeSet::new()), "older epoch");
        assert!(!r.set_quarantine(2, BTreeSet::from([P0])), "the set held");
        assert_eq!((r.quarantine_epoch(), order(&r)), (2, vec![P1, P2, P0]));
        assert!(
            r.set_quarantine(2, BTreeSet::new()),
            "same epoch, other set"
        );
        assert_eq!(order(&r), [P0, P1, P2]);
    }

    #[test]
    fn join_table() {
        use Join::*;
        // (me, joiner, regroup on, answer, epoch after, p2's gsd after)
        let rows = [
            // A non-leader passes the join to the leader it holds.
            (P1, member(P2, 40), true, Forward, 0, 12),
            (P1, member(P2, 40), false, Forward, 0, 12),
            // ...unless the joiner *is* that leader, frozen and asking back
            // in: forwarded, its join would only come back to it. Under
            // regroup any member vouches for it, whatever else it says of
            // itself; a newer instance of its partition is the leader's call.
            (
                P1,
                MemberInfo {
                    node: NodeId(9),
                    ..member(P0, 10)
                },
                true,
                Unchanged,
                0,
                12,
            ),
            (P1, member(P0, 10), false, Forward, 0, 12),
            (P1, member(P0, 40), true, Forward, 0, 12),
            // The leader: a joiner held as it describes itself.
            (P0, member(P2, 12), true, Unchanged, 0, 12),
            // A newer instance of a held partition displaces the old one.
            (
                P0,
                member(P2, 40),
                true,
                Admitted {
                    displaced: Some(Pid(12)),
                },
                1,
                40,
            ),
            // The same pid with other coordinates displaces nobody.
            (
                P0,
                MemberInfo {
                    node: NodeId(9),
                    ..member(P2, 12)
                },
                true,
                Admitted { displaced: None },
                1,
                12,
            ),
            // An older instance stays out under regroup, and only then.
            (P0, member(P2, 5), true, Superseded, 0, 12),
            (
                P0,
                member(P2, 5),
                false,
                Admitted {
                    displaced: Some(Pid(12)),
                },
                1,
                5,
            ),
        ];
        for (me, joiner, regroup, want, epoch, gsd) in rows {
            let mut r = ring(me, &[P0, P1, P2]);
            assert_eq!(
                r.on_join(joiner, regroup),
                want,
                "{me:?} {joiner:?} {regroup}"
            );
            assert_eq!(r.epoch(), epoch);
            assert_eq!(r.get(P2).map(|m| m.gsd), Some(Pid(gsd)));
        }
        let mut r = ring(P0, &[P0, P1]);
        assert_eq!(
            r.on_join(member(P2, 12), true),
            Admitted { displaced: None }
        );
        assert_eq!(order(&r), [P0, P1, P2], "a new partition enters in order");
        assert_eq!(Ring::new(P0).on_join(member(P1, 11), true), Forward);
    }

    #[test]
    fn membership_is_adopted_ignored_or_yielded_to() {
        use Adoption::*;
        let me = member(P1, 11);
        let list = |gsd1: u64| Shared::new(vec![member(P0, 10), member(P1, gsd1), member(P2, 12)]);
        let mut r = ring(P1, &[P0, P1, P2]);
        r.set_epoch(5);

        // A newer GSD for our partition wins whatever the epoch says.
        assert_eq!(r.on_membership(0, list(99), me), Yield);
        assert_eq!(r.on_membership(4, list(11), me), Stale);
        assert_eq!(r.epoch(), 5);

        let named = Adopted {
            named_as: Some(Role::Princess),
            rejoin: false,
        };
        assert_eq!(
            r.on_membership(5, list(11), me),
            named,
            "same epoch still adopts"
        );
        // An *older* GSD named for our partition: adopted, but it is not
        // us being vouched for, and our own entry stays ours.
        let unnamed = Adopted {
            named_as: None,
            rejoin: false,
        };
        assert_eq!(r.on_membership(6, list(3), me), unnamed);
        assert_eq!((r.epoch(), r.get(P1)), (6, Some(me)));

        // A broadcast that lost us: we stay in our own ring, and rejoin.
        let without = Shared::new(vec![member(P2, 12), member(P0, 10)]);
        let lost = Adopted {
            named_as: None,
            rejoin: true,
        };
        assert_eq!(r.on_membership(7, without, me), lost);
        assert_eq!(order(&r), [P0, P1, P2]);

        // The seat named is the one the *sender's* order gives us.
        let mut q = ring(P0, &[P0, P1]);
        let sent = Shared::new(vec![member(P1, 11), member(P0, 10)]);
        let tail = Adopted {
            named_as: Some(Role::Princess),
            rejoin: false,
        };
        assert_eq!(q.on_membership(1, sent, member(P0, 10)), tail);
        assert_eq!(q.role(), Role::Leader, "our own order seats us first");
    }

    #[test]
    fn missing_and_known_outlive_removal() {
        let mut r = ring(P0, &[P0, P1, P2]);
        let configured = || [P0, P1, P2, P3].into_iter();
        assert_eq!(r.missing(configured()), [P3]);
        r.remove(P1);
        assert_eq!(r.missing(configured()), [P1, P3]);
        assert_eq!(r.get(P1), None);
        assert_eq!(r.known(P1), Some(member(P1, 11)), "kept for the rescue");
        assert_eq!(r.known(P3), None, "never seen");
        r.upsert(member(P1, 50));
        assert_eq!(r.known(P1).map(|m| m.gsd), Some(Pid(50)));
        r.reseed_singleton();
        assert_eq!(order(&r), [P0]);
        assert_eq!(r.role(), Role::Leader);
        assert_eq!(r.others().count(), 0);
    }

    /// Every way a member leaves, and a return. `known` answers what a
    /// map written with every member at every settle, and never at a
    /// removal, answers: a removed partition's coordinates as last settled.
    /// A settled ring with nobody gone keeps no departure.
    #[test]
    fn known_keeps_the_settled_coordinates_of_whoever_left() {
        enum Op {
            Remove(PartitionId),
            Install(Vec<PartitionId>),
            Reseed,
            Join(MemberInfo),
            Refresh(MemberInfo),
        }
        use Op::*;
        let moved = |m: MemberInfo| MemberInfo {
            node: NodeId(99),
            ..m
        };
        let all = [P0, P1, P2, P3];
        // (me, operations, departures left)
        let rows = [
            (P0, vec![Remove(P1)], 1),
            (P0, vec![Remove(P1), Remove(P2), Remove(P1)], 2),
            (P1, vec![Install(vec![P0, P2])], 1),
            (P2, vec![Install(vec![P3, P2, P3])], 2),
            (P0, vec![Reseed], 3),
            (P0, vec![Remove(P2), Reseed, Join(member(P2, 50))], 2),
            (P0, vec![Remove(P2), Join(member(P2, 50))], 0),
            (
                P0,
                vec![Install(vec![P0]), Install(vec![P0, P1, P2, P3])],
                0,
            ),
            (P0, vec![Refresh(moved(member(P0, 10))), Remove(P0)], 1),
            (
                P0,
                vec![
                    Refresh(moved(member(P0, 10))),
                    Join(member(P2, 50)),
                    Remove(P0),
                ],
                1,
            ),
            (
                P3,
                vec![
                    Refresh(moved(member(P3, 13))),
                    Refresh(member(P3, 70)),
                    Remove(P3),
                ],
                1,
            ),
            (P1, vec![Refresh(member(P1, 11)), Remove(P2)], 1),
        ];
        for (row, (me, ops, left)) in rows.into_iter().enumerate() {
            let mut r = ring(me, &all);
            let mut list: Vec<MemberInfo> = r.members().to_vec();
            let mut full: BTreeMap<PartitionId, MemberInfo> = BTreeMap::new();
            let settled = |list: &Vec<MemberInfo>, full: &mut BTreeMap<_, _>| {
                full.extend(list.iter().map(|m| (m.partition, *m)));
            };
            settled(&list, &mut full);
            for op in ops {
                match op {
                    Remove(p) => {
                        r.remove(p);
                        list.retain(|m| m.partition != p);
                    }
                    Install(parts) => {
                        let members: Vec<_> =
                            parts.iter().map(|&p| member(p, 10 + p.0 as u64)).collect();
                        r.install(members.clone().into(), member(me, 10 + me.0 as u64));
                        list = members;
                        list.push(member(me, 10 + me.0 as u64));
                        list.sort_by_key(|m| m.partition);
                        list.dedup_by_key(|m| m.partition);
                        settled(&list, &mut full);
                    }
                    Reseed => {
                        r.reseed_singleton();
                        list.retain(|m| m.partition == me);
                    }
                    Join(m) => {
                        r.upsert(m);
                        list.retain(|x| x.partition != m.partition);
                        list.push(m);
                        list.sort_by_key(|m| m.partition);
                        settled(&list, &mut full);
                    }
                    Refresh(m) => {
                        r.refresh_own(m);
                        list.iter_mut()
                            .filter(|x| x.partition == me)
                            .for_each(|x| *x = m);
                    }
                }
                assert_eq!(**r.members(), list, "row {row}");
                for p in (0..5).map(PartitionId) {
                    let held = list.iter().find(|m| m.partition == p).copied();
                    let want = held.or_else(|| full.get(&p).copied());
                    assert_eq!(r.known(p), want, "row {row}: {p:?}");
                }
            }
            assert_eq!(r.departed.len(), left, "row {row}");
        }
    }

    /// 1,000 random operation sequences: the order the ring keeps is the
    /// order sorting the same list afresh would give.
    #[test]
    fn order_matches_a_fresh_sort_of_the_same_operations() {
        let mut rng = SimRng::seed_from_u64(18);
        for _ in 0..1000 {
            let mut ring = Ring::new(P0);
            let mut model: Vec<MemberInfo> = Vec::new();
            let mut quarantined: BTreeSet<PartitionId> = BTreeSet::new();
            for step in 0..rng.gen_range(1..40u64) {
                let p = PartitionId(rng.gen_range(0..6u32));
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        let m = member(p, step);
                        ring.upsert(m);
                        model.retain(|x| x.partition != p);
                        model.push(m);
                    }
                    2 => {
                        ring.remove(p);
                        model.retain(|x| x.partition != p);
                    }
                    _ => {
                        if !quarantined.remove(&p) {
                            quarantined.insert(p);
                        }
                        assert!(ring.set_quarantine(step, quarantined.clone()));
                    }
                }
                model.sort_by_key(|m| (quarantined.contains(&m.partition), m.partition));
                model.dedup_by_key(|m| m.partition);
                assert_eq!(**ring.members(), model);
            }
        }
    }
}
