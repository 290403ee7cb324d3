//! Virtual-time source for spans, and the process that opens them.
//!
//! The simulator owns time; telemetry must not call wall-clock APIs or
//! determinism dies. `World::dispatch` publishes the virtual clock here
//! (nanoseconds) before every handler runs, and spans read it back. Beside
//! it the world publishes the pid whose handler is running, and 0 between
//! handlers; a span records it as its owner, so killing that process can
//! abort what it left open. Thread-local for the same reason the registry
//! is: one simulator per thread, zero cross-test pollution.

use std::cell::Cell;

thread_local! {
    static NOW: Cell<u64> = const { Cell::new(0) };
    static OWNER: Cell<u64> = const { Cell::new(0) };
}

/// Publish the current virtual time in nanoseconds. Called by the
/// simulator's dispatch loop; tests may call it directly.
pub fn set_now(nanos: u64) {
    NOW.with(|n| n.set(nanos));
}

/// The most recently published virtual time in nanoseconds.
pub(crate) fn now() -> u64 {
    NOW.with(|n| n.get())
}

/// Publish the pid whose handler is running, 0 when none is. Called by
/// the simulator around every handler.
pub fn set_owner(pid: u64) {
    OWNER.with(|o| o.set(pid));
}

/// The pid whose handler is running, 0 outside any handler.
pub(crate) fn owner() -> u64 {
    OWNER.with(|o| o.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_settable_and_monotone_free() {
        set_now(42);
        assert_eq!(now(), 42);
        // The clock is a plain register: rewinding is allowed (a fresh
        // World restarts at zero on the same thread).
        set_now(7);
        assert_eq!(now(), 7);
    }
}
