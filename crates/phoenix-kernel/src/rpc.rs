//! Loss-tolerant request/reply machinery shared by the kernel services.
//!
//! The paper's kernel ran over real Ethernet where requests and replies are
//! lost; every service therefore needs the same two ingredients:
//!
//! * a **retry policy** — bounded attempts with exponential backoff and
//!   seeded jitter (deterministic under the simulator's RNG); each client
//!   keeps its own send count and hands it to [`RetryPolicy::on_send`],
//!   the one place `rpc.retries` is counted;
//! * a **dedup window** — server-side request-id memory that replays the
//!   cached reply for a retried request instead of re-executing it, making
//!   non-idempotent operations (like `CfgNodeOp::Start`) safe to retry.
//!
//! The default policy performs no retries at all, so services adopting this
//! module behave exactly as before unless the lossy switch is on
//! (`FtParams::retry`, `KernelParams::fast_lossy`).

use phoenix_sim::{SimDuration, SimRng};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Bounded exponential backoff with seeded jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total send attempts (1 = the original send only, no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per subsequent attempt.
    pub(crate) base: SimDuration,
    /// Ceiling on any single backoff delay.
    pub(crate) max_backoff: SimDuration,
    /// Random jitter added on top of the delay, as a permille fraction of
    /// it (0 draws no randomness at all).
    pub(crate) jitter_permille: u16,
}

impl RetryPolicy {
    /// No retries: requests are sent exactly once (legacy behaviour).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter_permille: 0,
        }
    }

    /// The lossy-profile policy: up to 4 attempts, 40 ms → 80 ms → 160 ms
    /// (capped at 500 ms), each with up to +25% jitter.
    pub fn lossy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: SimDuration::from_millis(40),
            max_backoff: SimDuration::from_millis(500),
            jitter_permille: 250,
        }
    }

    /// Count one send of a request already sent `*sends` times, adding
    /// `rpc.retries` from the second send on, and say whether another may
    /// follow: `None` once the attempt budget is spent. A site that backs
    /// off passes `rng` and gets the backoff before the next send, drawn as
    /// [`RetryPolicy::delay`] draws it; a site on its own timer passes
    /// `None` and gets zero. `none()` allows no second send and never draws.
    pub(crate) fn on_send(&self, sends: &mut u32, rng: Option<&mut SimRng>) -> Option<SimDuration> {
        *sends += 1;
        if *sends > 1 {
            phoenix_telemetry::counter_add("rpc.retries", 1);
        }
        match rng {
            Some(rng) => self.delay(*sends, rng),
            None => (*sends < self.max_attempts).then_some(SimDuration::ZERO),
        }
    }

    /// Backoff before retry number `attempt` (1-based: attempt 1 is the
    /// first *re*try). Returns `None` once the attempt budget is spent.
    /// Jitter draws from `rng` only when configured, keeping zero-jitter
    /// policies off the random stream.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> Option<SimDuration> {
        if attempt + 1 > self.max_attempts {
            return None;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let ns = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff.as_nanos());
        let jitter = if self.jitter_permille == 0 || ns == 0 {
            0
        } else {
            let span = ns / 1000 * self.jitter_permille as u64;
            rng.gen_range(0..=span)
        };
        Some(SimDuration::from_nanos(ns + jitter))
    }
}

/// Server-side idempotency window: remembers the reply sent for each
/// recent request id and replays it for duplicates, evicting the oldest
/// entries beyond `capacity` (FIFO).
#[derive(Debug)]
pub struct DedupWindow<K: Hash + Eq + Clone, V> {
    capacity: usize,
    replies: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq + Clone, V> DedupWindow<K, V> {
    pub fn new(capacity: usize) -> DedupWindow<K, V> {
        DedupWindow {
            capacity: capacity.max(1),
            replies: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The reply previously recorded for `key`, if it is still in the
    /// window. A hit means the request is a duplicate: replay this instead
    /// of re-executing. Counts `rpc.dedup.hits` telemetry.
    pub fn replay(&self, key: &K) -> Option<&V> {
        let hit = self.replies.get(key);
        if hit.is_some() {
            phoenix_telemetry::counter_add("rpc.dedup.hits", 1);
        }
        hit
    }

    /// Record the reply for a freshly executed request.
    pub fn record(&mut self, key: K, reply: V) {
        if self.replies.insert(key.clone(), reply).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(p.delay(1, &mut rng), None);
    }

    fn retries() -> u64 {
        phoenix_telemetry::with(|reg| reg.counter("rpc.retries"))
    }

    #[test]
    fn on_send_counts_every_send_after_the_first() {
        for policy in [RetryPolicy::none(), RetryPolicy::lossy()] {
            phoenix_telemetry::reset();
            let mut sends = 0;
            for n in 1..=5u32 {
                let next = policy.on_send(&mut sends, None);
                assert_eq!((sends, retries()), (n, u64::from(n - 1)), "send {n}");
                let more = n < policy.max_attempts;
                assert_eq!(next, more.then_some(SimDuration::ZERO), "send {n}");
            }
        }
    }

    #[test]
    fn on_send_draws_what_delay_draws() {
        let seeded = SimRng::seed_from_u64(3);
        // `none()` allows no second send and leaves the stream untouched.
        let mut rng = seeded.clone();
        let mut sends = 0;
        for _ in 0..3 {
            assert_eq!(RetryPolicy::none().on_send(&mut sends, Some(&mut rng)), None);
        }
        assert_eq!(rng.next_u64(), seeded.clone().next_u64());
        // `lossy()` backs off by `delay(n)` drawn from the same stream.
        let p = RetryPolicy::lossy();
        let (mut rng, mut twin) = (seeded.clone(), seeded.clone());
        let mut sends = 0;
        for n in 1..=p.max_attempts + 1 {
            let next = p.on_send(&mut sends, Some(&mut rng));
            assert_eq!(next, p.delay(n, &mut twin), "send {n}");
            assert_eq!(next.is_some(), n < p.max_attempts, "send {n}");
        }
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn backoff_doubles_and_is_bounded() {
        let p = RetryPolicy {
            max_attempts: 16,
            base: SimDuration::from_millis(40),
            max_backoff: SimDuration::from_millis(500),
            jitter_permille: 0,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let d: Vec<u64> = (1..=8)
            .map(|a| p.delay(a, &mut rng).unwrap().as_nanos() / 1_000_000)
            .collect();
        assert_eq!(d, vec![40, 80, 160, 320, 500, 500, 500, 500]);
        // Attempt budget: with 16 attempts, the 16th retry is refused.
        assert!(p.delay(16, &mut rng).is_none());
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let p = RetryPolicy::lossy();
        let draw = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            (1..p.max_attempts)
                .map(|a| p.delay(a, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        // Deterministic per seed.
        assert_eq!(draw(7), draw(7));
        // Each delay stays within [pure, pure * 1.25].
        let mut rng = SimRng::seed_from_u64(9);
        let pure = RetryPolicy {
            jitter_permille: 0,
            ..p.clone()
        };
        for a in 1..p.max_attempts {
            let jittered = p.delay(a, &mut rng).unwrap().as_nanos();
            let base = pure.delay(a, &mut rng).unwrap().as_nanos();
            assert!(jittered >= base);
            assert!(jittered <= base + base / 4);
        }
    }

    #[test]
    fn dedup_window_replays_duplicates() {
        let mut w: DedupWindow<u64, &'static str> = DedupWindow::new(8);
        assert_eq!(w.replay(&1), None);
        w.record(1, "ack-1");
        assert_eq!(w.replay(&1), Some(&"ack-1"));
        // Re-recording the same key does not grow the window.
        w.record(1, "ack-1b");
        assert_eq!(w.order.len(), 1);
        assert_eq!(w.replay(&1), Some(&"ack-1b"));
    }

    #[test]
    fn dedup_window_evicts_oldest() {
        let mut w: DedupWindow<u64, u64> = DedupWindow::new(3);
        for k in 0..5u64 {
            w.record(k, k * 10);
        }
        assert_eq!(w.order.len(), 3);
        assert_eq!(w.replay(&0), None, "oldest evicted");
        assert_eq!(w.replay(&1), None);
        assert_eq!(w.replay(&2), Some(&20));
        assert_eq!(w.replay(&4), Some(&40));
    }
}
