//! The part of `rand` 0.9 that `datagen` and the benchmark call:
//! `StdRng::seed_from_u64`, `random`, `random_range`, `random_bool`.
//! The generator is xoshiro256++ seeded through splitmix64, so streams
//! are a pure function of the seed but differ from the published crate.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::random` can produce.
pub trait Standard {
    fn from_bits(bits: u64) -> Self;
}

impl Standard for f64 {
    fn from_bits(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Standard for bool {
    fn from_bits(bits: u64) -> bool {
        bits >> 63 == 1
    }
}

/// Element types `Rng::random_range` can draw.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `lo..hi`, or `lo..=hi` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Ranges `Rng::random_range` accepts. One blanket impl per range type,
/// so an integer-literal range takes its type from the call site, as
/// with the published crate.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t, inclusive: bool) -> $t {
                // Widening multiply (Lemire, without the rejection step:
                // the bias is below 2^-32 for the spans used here).
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                let offset = (u128::from(rng.next_u64()) * span) >> 64;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64, _inclusive: bool) -> f64 {
        lo + (hi - lo) * f64::from_bits(rng.next_u64())
    }
}

pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
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
}
