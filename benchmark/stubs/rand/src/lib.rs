//! Offline stand-in for `rand` 0.8 (see `benchmark/README.md`, "Building
//! offline"). Only what the repository's non-test code calls: a seeded
//! `StdRng` (SplitMix64, not ChaCha12 — streams differ from the published
//! crate), `Rng::{gen, gen_range, gen_bool}` and `SliceRandom::shuffle`.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Values `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Integer types `gen_range` can sample.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform in `[lo, hi]`, both inclusive.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// `self - 1`, for turning a half-open range into an inclusive one.
    fn pred(self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = u128::from(rng.next_u64()) % span;
                (lo as i128 + r as i128) as $t
            }
            fn pred(self) -> Self {
                self - 1
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges `gen_range` accepts. One blanket impl per range shape keeps
/// integer-literal inference working (`gen_range(0..100u32)`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_inclusive(self.start, self.end.pred(), rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of any [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The named generators.
pub mod rngs {
    /// SplitMix64 under the published crate's `StdRng` name.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(u64);

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}
