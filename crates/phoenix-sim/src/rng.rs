//! Seeded, dependency-free PRNG for the simulator.
//!
//! The workspace must build with no network access, so `rand` is out; the
//! simulator only ever needed a deterministic seeded stream, not
//! cryptographic quality. `SimRng` is xoshiro256++ seeded via splitmix64
//! — fast, well-distributed, and fully reproducible from a `u64` seed.
//!
//! The API mirrors the subset of `rand` the codebase used:
//! `seed_from_u64`, `gen_range(lo..hi)` / `gen_range(lo..=hi)` for the
//! integer and float types in use, plus raw `next_u64`/`next_f64`.

use std::ops::{Range, RangeInclusive};

#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Deterministically expand a `u64` seed into the full state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly distributed bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range; panics on an empty range, like
    /// `rand::Rng::gen_range`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Ranges `SimRng::gen_range` accepts. Implemented for the exact range
/// types the codebase draws from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as u128 - self.start as u128) as u64;
                // Modulo bias is negligible for simulation spans (<< 2^64).
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as u128 - lo as u128).wrapping_add(1);
                if span == 0 || span > u64::MAX as u128 {
                    // Full u64 domain: every draw is in range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span as u64) as $t)
            }
        }
    )+};
}

int_sample_range!(u8, u16, u32, u64, usize);

// Signed ranges: shift into unsigned space, sample, shift back.
impl SampleRange for Range<i32> {
    type Output = i32;
    fn sample(self, rng: &mut SimRng) -> i32 {
        assert!(self.start < self.end, "gen_range on empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

impl SampleRange for RangeInclusive<i32> {
    type Output = i32;
    fn sample(self, rng: &mut SimRng) -> i32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        let span = (hi as i64 - lo as i64 + 1) as u64;
        (lo as i64 + (rng.next_u64() % span) as i64) as i32
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SimRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let v = rng.gen_range(0u64..=5);
            assert!(v <= 5);
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&f));
            let f = rng.gen_range(1.0f64..=2.0);
            assert!((1.0..=2.0).contains(&f));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
            let b = rng.gen_range(0u8..3);
            assert!(b < 3);
        }
    }

    #[test]
    fn degenerate_inclusive_range_returns_endpoint() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(rng.gen_range(4u32..=4), 4);
        assert_eq!(rng.gen_range(0u64..=0), 0);
        assert_eq!(rng.gen_range(2.0f64..=2.0), 2.0);
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} suspiciously far from 0.5");
    }
}
