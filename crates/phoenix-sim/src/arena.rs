//! Generational slab arena for in-flight events.
//!
//! The hot path of the discrete-event core allocates one queue entry per
//! message/timer and frees it on dispatch. Round-tripping the global
//! allocator for every event is measurable at sweep scale, so the wheel
//! scheduler parks event payloads in this arena and moves only a compact
//! `(time, seq, Handle)` reference through its slots and heaps.
//!
//! Slots are recycled through a free list. Every slot carries a
//! **generation counter**, bumped on each free: a [`Handle`] is only valid
//! for the generation it was issued against, so a stale handle (a bug that
//! would silently alias a live event in a plain slab) is detected at
//! `take` time and panics instead of corrupting the simulation.

/// Reference to a live arena slot. Cheap to copy (8 bytes); invalidated by
/// `take`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Handle {
    idx: u32,
    gen: u32,
}

/// Allocation counters exposed for leak tests and the chaos `arena-leak`
/// invariant. For a healthy scheduler, `live` always equals the number of
/// pending events and `allocs - frees == live`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaStats {
    /// Slots currently holding a live event.
    pub live: usize,
    /// Total slots ever created (high-water mark of the pool).
    pub capacity: usize,
    /// Lifetime allocations served.
    pub allocs: u64,
    /// Lifetime frees (slots returned to the free list).
    pub frees: u64,
}

struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A slab with a free list and per-slot generation counters.
pub struct EventArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    allocs: u64,
    frees: u64,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        EventArena::new()
    }
}

impl<T> EventArena<T> {
    pub(crate) fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            allocs: 0,
            frees: 0,
        }
    }

    /// Store `val`, reusing a freed slot when one exists.
    pub(crate) fn alloc(&mut self, val: T) -> Handle {
        self.allocs += 1;
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.val.is_none(), "free-list slot still occupied");
                slot.val = Some(val);
                Handle {
                    idx,
                    gen: slot.gen,
                }
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, val: Some(val) });
                Handle { idx, gen: 0 }
            }
        }
    }

    /// Move the value out and return the slot to the free list. Panics on a
    /// stale or double-freed handle — a recycled slot must never alias a
    /// live event.
    pub(crate) fn take(&mut self, h: Handle) -> T {
        let slot = &mut self.slots[h.idx as usize];
        assert_eq!(
            slot.gen, h.gen,
            "stale arena handle: slot {} was recycled (gen {} != {})",
            h.idx, slot.gen, h.gen
        );
        let val = slot
            .val
            .take()
            .expect("arena handle taken twice (slot already freed)");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
        self.frees += 1;
        val
    }

    pub(crate) fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            capacity: self.slots.len(),
            allocs: self.allocs,
            frees: self.frees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_take_round_trips() {
        let mut a = EventArena::new();
        let h1 = a.alloc("one");
        let h2 = a.alloc("two");
        assert_eq!(a.stats().live, 2);
        assert_eq!(a.take(h1), "one");
        assert_eq!(a.take(h2), "two");
        assert_eq!(a.stats().live, 0);
        let s = a.stats();
        assert_eq!((s.allocs, s.frees, s.capacity), (2, 2, 2));
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut a = EventArena::new();
        for i in 0..100u64 {
            let h = a.alloc(i);
            assert_eq!(a.take(h), i);
        }
        let s = a.stats();
        assert_eq!(s.capacity, 1, "steady-state churn reuses one slot");
        assert_eq!(s.allocs, 100);
        assert_eq!(s.frees, 100);
    }

    #[test]
    fn recycled_slot_never_aliases_live_value() {
        let mut a = EventArena::new();
        let stale = a.alloc(111u64);
        assert_eq!(a.take(stale), 111);
        // The freed slot is reused for a new value with a bumped generation.
        let live = a.alloc(222u64);
        assert_eq!(live.idx, stale.idx, "slot must be recycled");
        assert_ne!(live.gen, stale.gen, "generation must advance");
        // The stale handle cannot reach the new occupant.
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.take(stale)));
        assert!(boom.is_err(), "stale handle must panic, not alias");
        // The live handle still yields its own value, untouched.
        assert_eq!(a.take(live), 222);
    }

    #[test]
    fn double_take_panics() {
        let mut a = EventArena::new();
        let h = a.alloc(1u64);
        assert_eq!(a.take(h), 1);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.take(h)));
        assert!(boom.is_err(), "double take must panic");
    }
}
