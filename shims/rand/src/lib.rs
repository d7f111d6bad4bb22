//! Offline stand-in for the `rand` crate.
//!
//! [`StdRng`] is a xoshiro256++ generator seeded through SplitMix64 — a
//! high-quality, deterministic PRNG sufficient for the statistical tests in
//! this workspace. Implements the subset of the `rand 0.8` API in use:
//! `Rng::gen`, `Rng::gen_range`, `SeedableRng::seed_from_u64`, plus the
//! `rngs` and `distributions` module paths.

#![forbid(unsafe_code)]

/// A source of random 64-bit words; object-safe base trait.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable uniformly via [`Rng::gen`].
pub trait StandardSample: Sized {
    /// Draws one value from the generator.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection sampling to avoid modulo bias.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_u64(rng, span) as $t
            }
        }

        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                start + uniform_u64(rng, span) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, u8);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// Convenience extension over [`RngCore`]: the user-facing sampling API.
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from a range.
    fn gen_range<Rang: SampleRange>(&mut self, range: Rang) -> Rang::Output {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's standard generator: xoshiro256++.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Generator implementations, mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::StdRng;
}

/// Distribution abstraction, mirroring `rand::distributions`.
pub mod distributions {
    use crate::RngCore;

    /// A probability distribution samplable with any generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }
}

/// Commonly used items, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let n = rng.gen_range(3..10usize);
            assert!((3..10).contains(&n));
            let m = rng.gen_range(0u32..=u32::MAX);
            let _ = m;
            let x = rng.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn mean_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
