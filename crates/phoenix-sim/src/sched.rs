//! The simulator's event queue and its reference.
//!
//! Every event in the world is keyed by `(SimTime, seq)` — virtual time
//! with FIFO tie-breaking by insertion sequence. That total order *is* the
//! determinism contract: a correct queue pops an identical stream for an
//! identical push stream, byte for byte, so no caller can tell which one
//! runs.
//!
//! * [`WheelScheduler`] — the queue every `World` runs, held by value. A
//!   hierarchical timer wheel: heartbeats and retry timers — the
//!   overwhelming majority of events — are regular and short-horizon, so
//!   they land in O(1) bucketed slots; only the events sharing the
//!   *current* slot pass through a ready queue kept in exact `(time, seq)`
//!   order. A push into that slot almost always sorts after everything
//!   queued (same instant, higher seq), so it appends in O(1); the rare
//!   earlier one shifts the shorter side. Far-future events cascade down
//!   from coarser levels; events beyond the wheel horizon wait in an
//!   overflow heap. Payloads are parked in a generation-checked
//!   [`EventArena`] so cascades move 24-byte references, not whole
//!   messages. A slot's buffer is freed when the slot drains (the level-0
//!   one becomes the ready queue's, whose own is freed), so the wheel
//!   holds memory for the events pending, not for the largest burst a slot
//!   ever held.
//! * [`HeapScheduler`] — one global `BinaryHeap`, O(log n) per operation.
//!   The reference implementation: the property tests
//!   (`tests/sched_properties.rs`) compare the wheel against it element by
//!   element, and the perf ledger's replay probe times both.

use crate::arena::{ArenaStats, EventArena, Handle};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The one event queue a world runs on. It stays only because the
/// benchmark passes `SchedulerKind::default()` to `boot_cluster_custom`;
/// it goes when the benchmark stops naming it (ROADMAP item 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel + message arena.
    #[default]
    Wheel,
}

/// What the wheel and its reference share, for the tests and the replay
/// probe that drive both. `seq` is assigned by the caller (one global
/// counter) — a scheduler must order by `(at, seq)` ascending and never
/// invent or drop entries.
pub trait Scheduler<T> {
    /// Insert an event. `at` is never earlier than the last popped time
    /// (the world only schedules with non-negative delays).
    fn push(&mut self, at: SimTime, seq: u64, item: T);

    /// Remove and return the earliest event.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;

    /// Remove and return the earliest event only if it is at or before
    /// `deadline` — the single-operation hot path of `run_until`.
    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// HeapScheduler — the original BinaryHeap event queue
// ---------------------------------------------------------------------------

struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first. Ties broken
        // by insertion order (seq), giving deterministic FIFO semantics.
        Reverse((self.at, self.seq)).cmp(&Reverse((other.at, other.seq)))
    }
}

/// The reference event queue: one global binary heap, which the wheel
/// must match pop for pop.
pub struct HeapScheduler<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> Default for HeapScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapScheduler<T> {
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Scheduler<T> for HeapScheduler<T> {
    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(HeapEntry { at, seq, item });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        match self.heap.peek() {
            Some(e) if e.at <= deadline => self.pop(),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// WheelScheduler — hierarchical timer wheel + arena
// ---------------------------------------------------------------------------

/// log2(slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level; occupancy is one `u64` bitmap per level.
const SLOTS: u64 = 1 << SLOT_BITS;
/// Level-0 slot granularity: 2^16 ns = 65.536 µs. Network latencies
/// (10–500 µs) spread over a few slots; millisecond heartbeat timers land
/// levels 1–2; the 30 s paper heartbeat lands level 3.
const G0_SHIFT: u32 = 16;
/// Levels in the wheel. Horizon = 2^(16 + 6·5) ns ≈ 19.5 virtual hours
/// ahead of the cursor; anything further waits in the overflow heap.
const LEVELS: usize = 5;

/// Compact reference moved through slots and heaps: the `(at, seq)` sort
/// key plus the arena handle of the payload. The derived order is the
/// contract's, ascending by time and FIFO on ties: `seq` is unique, so
/// `handle` never decides. The overflow heap wraps entries in `Reverse`
/// to pop the earliest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EntryRef {
    at: u64,
    seq: u64,
    handle: Handle,
}

/// Hierarchical timer wheel.
///
/// `cursor` is the absolute level-0 slot the wheel has drained up to.
/// Entries in slots at or before the cursor live in `ready` (a queue in
/// exact `(at, seq)` order, earliest at the front); wheel slots at every
/// level only hold entries strictly after the cursor, within 63 slots of it
/// at that level's granularity; everything past the top level's horizon
/// sits in `overflow`.
pub struct WheelScheduler<T> {
    cursor: u64,
    /// Entries at or before the cursor, sorted ascending by `(at, seq)`
    /// and popped from the front. Refilled in batch by `advance` (one
    /// sort); a push at or before the cursor appends when it sorts last,
    /// which every same-instant push does, else is inserted in place.
    ready: VecDeque<EntryRef>,
    slots: Vec<Vec<EntryRef>>,
    occ: [u64; LEVELS],
    overflow: BinaryHeap<Reverse<EntryRef>>,
    arena: EventArena<T>,
    len: usize,
}

#[inline]
fn slot0(at: u64) -> u64 {
    at >> G0_SHIFT
}

impl<T> Default for WheelScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WheelScheduler<T> {
    pub fn new() -> Self {
        WheelScheduler {
            cursor: 0,
            ready: VecDeque::new(),
            slots: (0..LEVELS as u64 * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: BinaryHeap::new(),
            arena: EventArena::new(),
            len: 0,
        }
    }

    /// Insert an entry whose level-0 slot is strictly after the cursor:
    /// pick the finest level where it is within one revolution (a sliding
    /// 63-slot window ahead of the cursor), else overflow. The highest bit
    /// where the entry's slot differs from the cursor bounds the level to
    /// two candidates, so placement is O(1) instead of a per-level scan:
    /// the sliding window at level L-1 may still hold an entry whose
    /// aligned window first matches at L (it straddles an alignment
    /// boundary), never one finer than that.
    fn insert(&mut self, e: EntryRef) {
        let s0 = slot0(e.at);
        debug_assert!(s0 > self.cursor);
        let aligned = (63 - (s0 ^ self.cursor).leading_zeros()) / SLOT_BITS;
        let mut lvl = (aligned as usize).min(LEVELS);
        if lvl > 0 {
            let shift = SLOT_BITS * (lvl as u32 - 1);
            if (s0 >> shift) - (self.cursor >> shift) < SLOTS {
                lvl -= 1;
            }
        }
        if lvl < LEVELS {
            let shift = SLOT_BITS * lvl as u32;
            let idx = ((s0 >> shift) & (SLOTS - 1)) as usize;
            self.slots[lvl * SLOTS as usize + idx].push(e);
            self.occ[lvl] |= 1 << idx;
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Re-home an entry after a cursor move: current slot → ready,
    /// future slot → wheel/overflow. `ready` additions are appended
    /// unsorted; callers outside `advance` must restore the sort order
    /// (see `place_sorted`).
    fn place(&mut self, e: EntryRef) {
        if slot0(e.at) <= self.cursor {
            self.ready.push_back(e);
        } else {
            self.insert(e);
        }
    }

    /// `place` for the public push path: keeps `ready` sorted. An entry
    /// after the back (the common case: seq only grows) is appended;
    /// anything else is inserted at its position, and `VecDeque::insert`
    /// shifts the shorter side.
    fn place_sorted(&mut self, e: EntryRef) {
        if slot0(e.at) <= self.cursor {
            if self.ready.back().is_none_or(|b| *b < e) {
                self.ready.push_back(e);
            } else {
                let pos = self.ready.partition_point(|r| *r < e);
                self.ready.insert(pos, e);
            }
        } else {
            self.insert(e);
        }
    }

    /// Move the cursor to the nearest occupied slot (any level, or the
    /// overflow minimum), cascading coarse slots downward. Guarantees
    /// progress: each call either fills `ready` or moves entries at least
    /// one level finer, so a `while ready.is_empty()` loop terminates in
    /// at most `LEVELS + 1` iterations.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty());
        debug_assert!(self.len > 0);

        // The nearest occupied slot per level, as an absolute level-0 slot
        // start; the global minimum among those (and overflow) is the only
        // place the next event can be.
        let mut best: Option<u64> = None;
        for lvl in 0..LEVELS {
            if self.occ[lvl] == 0 {
                continue;
            }
            let shift = SLOT_BITS * lvl as u32;
            let pos = ((self.cursor >> shift) & (SLOTS - 1)) as u32;
            // Rotate so bit 0 is the slot one past the cursor; occupied
            // slots are always 1..=63 slots ahead at their own level.
            let rot = self.occ[lvl].rotate_right((pos + 1) % SLOTS as u32);
            let dist = rot.trailing_zeros() as u64 + 1;
            let start = ((self.cursor >> shift) + dist) << shift;
            best = Some(best.map_or(start, |b| b.min(start)));
        }
        if let Some(Reverse(e)) = self.overflow.peek() {
            let start = slot0(e.at);
            best = Some(best.map_or(start, |b| b.min(start)));
        }
        self.cursor = best.expect("advance on an empty scheduler");

        // Overflow entries now within the top level's horizon join the
        // wheel (or `ready`, if the jump landed exactly on them).
        let top_shift = SLOT_BITS * (LEVELS as u32 - 1);
        while let Some(&Reverse(e)) = self.overflow.peek() {
            if (slot0(e.at) >> top_shift) - (self.cursor >> top_shift) < SLOTS {
                self.overflow.pop();
                self.place(e);
            } else {
                break;
            }
        }

        // Cascade every slot whose span now contains the cursor, coarsest
        // first so entries settle at their finest level in one pass. A
        // drained slot's buffer is freed with the drain: a slot that once
        // held a burst does not keep the burst's capacity, so the wheel's
        // memory follows the events pending, not the largest past burst.
        for lvl in (1..LEVELS).rev() {
            let shift = SLOT_BITS * lvl as u32;
            let idx = ((self.cursor >> shift) & (SLOTS - 1)) as usize;
            if self.occ[lvl] & (1 << idx) == 0 {
                continue;
            }
            self.occ[lvl] &= !(1 << idx);
            for e in std::mem::take(&mut self.slots[lvl * SLOTS as usize + idx]) {
                self.place(e);
            }
        }
        // `ready` takes over the level-0 slot's buffer and drops its own:
        // a queue that pops from the front walks its whole capacity, so a
        // buffer kept from a burst would stay resident for good.
        let idx0 = (self.cursor & (SLOTS - 1)) as usize;
        if self.occ[0] & (1 << idx0) != 0 {
            self.occ[0] &= !(1 << idx0);
            let slot = std::mem::take(&mut self.slots[idx0]);
            let cascaded = std::mem::replace(&mut self.ready, slot.into());
            self.ready.extend(cascaded);
        }
        // One batch sort instead of per-entry heap sifts; `ready` was empty
        // on entry, so everything in it arrived during this advance.
        self.ready.make_contiguous().sort_unstable();
    }

    fn fill_ready(&mut self) {
        while self.ready.is_empty() {
            self.advance();
        }
    }

    fn take(&mut self, e: EntryRef) -> (SimTime, u64, T) {
        self.len -= 1;
        (SimTime(e.at), e.seq, self.arena.take(e.handle))
    }

    /// The arena's accounting: `live` equals the pending events and
    /// `allocs - frees == live` while nothing leaks (the chaos
    /// `arena-leak` invariant and the leak tests read it).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

impl<T> Scheduler<T> for WheelScheduler<T> {
    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let handle = self.arena.alloc(item);
        self.len += 1;
        let e = EntryRef {
            at: at.0,
            seq,
            handle,
        };
        self.place_sorted(e);
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.fill_ready();
        let e = self.ready.pop_front().unwrap();
        Some(self.take(e))
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.fill_ready();
        if self.ready.front().unwrap().at > deadline.0 {
            return None;
        }
        let e = self.ready.pop_front().unwrap();
        Some(self.take(e))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(s: &mut WheelScheduler<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = s.pop() {
            out.push((at.0, seq));
        }
        out
    }

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut w = WheelScheduler::new();
        // Same tick, shuffled insertion; plus earlier and later events.
        w.push(SimTime(500), 1, "a");
        w.push(SimTime(500), 2, "b");
        w.push(SimTime(100), 3, "c");
        w.push(SimTime(900), 4, "d");
        w.push(SimTime(500), 5, "e");
        let popped: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        let order: Vec<_> = popped.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(order, ["c", "a", "b", "e", "d"]);
    }

    #[test]
    fn wheel_handles_far_future_and_overflow() {
        let mut w = WheelScheduler::new();
        let day = 86_400u64 * 1_000_000_000; // past the 19.5 h horizon
        w.push(SimTime(day), 1, ());
        w.push(SimTime(10), 2, ());
        w.push(SimTime(day * 2), 3, ());
        w.push(SimTime(3_000_000_000), 4, ()); // 3 s — level 3
        assert_eq!(drain(&mut w), vec![(10, 2), (3_000_000_000, 4), (day, 1), (day * 2, 3)]);
        assert_eq!(w.arena_stats().live, 0);
    }

    #[test]
    fn wheel_accepts_push_at_popped_time() {
        let mut w = WheelScheduler::new();
        w.push(SimTime(1_000_000), 1, "first");
        let (at, _, v) = w.pop().unwrap();
        assert_eq!(v, "first");
        // New work at exactly the popped instant (handlers scheduling
        // zero-delay follow-ups) must come before anything later.
        w.push(SimTime(5_000_000), 2, "later");
        w.push(at, 3, "same-tick");
        let (_, _, v) = w.pop().unwrap();
        assert_eq!(v, "same-tick");
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut w = WheelScheduler::new();
        w.push(SimTime(2_000_000), 1, ());
        assert!(w.pop_before(SimTime(1_000_000)).is_none());
        assert_eq!(w.len(), 1);
        assert!(w.pop_before(SimTime(2_000_000)).is_some());
        assert!(w.pop_before(SimTime(u64::MAX)).is_none());
    }

    /// The cursor can reach a slot through two levels at once: one entry
    /// filed at level 1 while the cursor was far, one at level 0 once it
    /// was near. `advance` must merge the cascaded entry into the level-0
    /// slot's buffer that `ready` takes over.
    #[test]
    fn a_slot_reached_from_two_levels_pops_both() {
        let mut w = WheelScheduler::new();
        let slot = |s: u64| s << G0_SHIFT;
        w.push(SimTime(slot(128) + 5), 1, "far");
        w.push(SimTime(slot(100)), 2, "near");
        assert_eq!(w.pop().map(|(_, _, v)| v), Some("near"));
        w.push(SimTime(slot(128) + 1), 3, "late");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, ["late", "far"]);
    }

    /// A burst passes through one slot per level on its way down; once it
    /// has drained, none of those slots keeps a buffer sized for it.
    #[test]
    fn a_drained_slot_keeps_no_capacity_for_its_burst() {
        let mut w = WheelScheduler::new();
        // One level-0 slot's worth of instants, 1 s ahead: a level-2 slot.
        for i in 0..10_000u64 {
            w.push(SimTime(1_000_000_000 + i), i, ());
        }
        let held = |w: &WheelScheduler<()>| w.slots.iter().map(Vec::capacity).max();
        assert!(held(&w) >= Some(10_000));
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 10_000);
        assert!(popped.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(held(&w), Some(0), "a drained slot kept its buffer");
        // The wheel still schedules after the slots let go.
        w.push(SimTime(2_000_000_000), 10_000, ());
        assert_eq!(drain(&mut w), vec![(2_000_000_000, 10_000)]);
    }

    /// Pushes into `ready` while it drains, which the interleaved test
    /// (every push before the first pop) never makes: a boot-sized burst
    /// at one instant, then pops that push zero-delay, sub-slot and
    /// next-slot follow-ups. A zero-delay push lands before a queued
    /// sub-slot one, so the out-of-order insert runs too.
    #[test]
    fn heap_and_wheel_agree_on_pushes_into_a_live_slot() {
        let mut h: HeapScheduler<u64> = HeapScheduler::new();
        let mut w: WheelScheduler<u64> = WheelScheduler::new();
        let (mut seq, mut appends, mut inserts) = (0u64, 0u32, 0u32);
        let mut push = |h: &mut HeapScheduler<u64>, w: &mut WheelScheduler<u64>, at: u64| {
            seq += 1;
            if slot0(at) <= w.cursor {
                match w.ready.back() {
                    Some(b) if (b.at, b.seq) > (at, seq) => inserts += 1,
                    Some(_) => appends += 1,
                    None => {}
                }
            }
            h.push(SimTime(at), seq, seq);
            w.push(SimTime(at), seq, seq);
        };
        let pop = |h: &mut HeapScheduler<u64>, w: &mut WheelScheduler<u64>| {
            let a = h.pop().map(|(t, s, v)| (t.0, s, v));
            assert_eq!(a, w.pop().map(|(t, s, v)| (t.0, s, v)));
            a
        };
        let t0 = 7 << G0_SHIFT;
        push(&mut h, &mut w, t0);
        pop(&mut h, &mut w);
        for _ in 0..20_000 {
            push(&mut h, &mut w, t0);
        }
        let mut popped = 0u64;
        while let Some((at, _, _)) = pop(&mut h, &mut w) {
            popped += 1;
            if popped <= 60_000 {
                match popped % 4 {
                    0 => push(&mut h, &mut w, at),
                    1 => push(&mut h, &mut w, at + 700),
                    2 => push(&mut h, &mut w, at + 100_000),
                    _ => {}
                }
            }
        }
        assert_eq!(popped, 20_000 + 45_000);
        assert!(appends >= 19_999, "appends {appends}");
        assert!(inserts > 0, "no push sorted before ready's back");
    }

    #[test]
    fn heap_and_wheel_agree_on_interleaved_ops() {
        let mut h: HeapScheduler<u64> = HeapScheduler::new();
        let mut w: WheelScheduler<u64> = WheelScheduler::new();
        let mut seq = 0u64;
        let mut push = |h: &mut HeapScheduler<u64>, w: &mut WheelScheduler<u64>, at: u64| {
            seq += 1;
            h.push(SimTime(at), seq, seq);
            w.push(SimTime(at), seq, seq);
        };
        for i in 0..1000u64 {
            // A mix of sub-slot, multi-level, and duplicate times.
            push(&mut h, &mut w, (i * 7919) % 50_000);
            push(&mut h, &mut w, i * 1_000_003);
            push(&mut h, &mut w, (i % 10) * 30_000_000_000);
        }
        loop {
            let a = h.pop();
            let b = w.pop();
            assert_eq!(
                a.as_ref().map(|(t, s, v)| (t.0, *s, *v)),
                b.as_ref().map(|(t, s, v)| (t.0, *s, *v))
            );
            if a.is_none() {
                break;
            }
        }
    }
}
