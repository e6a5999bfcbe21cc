//! Offline shim for the `rand` crate.
//!
//! The build environment has no crates.io access, so this vendored crate
//! provides exactly the API surface the workspace uses: a seedable
//! deterministic generator ([`rngs::StdRng`]), [`Rng::gen_range`] over
//! integer and float ranges, and [`Rng::gen_bool`]. The generator is
//! xoshiro256++ seeded via splitmix64 — high-quality enough for synthetic
//! data generation, and stable across runs and platforms.

#![forbid(unsafe_code)]

/// Low-level entropy source.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random value generation, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform value in the given range (`a..b` or `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// A type with a uniform sampler over a bounded range.
///
/// Mirroring real rand's structure matters for type inference: a single
/// blanket `SampleRange` impl per range shape lets `Range<{integer}>` force
/// the output type (e.g. `i64 + rng.gen_range(1..120)` infers `i64`).
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// A uniform sample from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, *self.start(), *self.end(), true)
    }
}

/// Maps 64 random bits to `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    // 53 significant bits, as the real rand crate does.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128 - lo as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "empty gen_range");
                let v = (rng.next_u64() as u128) % (span as u128);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "empty gen_range");
                lo + (unit_f64(rng.next_u64()) as $t) * (hi - lo)
            }
        }
    )*};
}

float_sample_uniform!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, seeded via splitmix64 (the shim's stand-in for
    /// `rand::rngs::StdRng`). Deterministic and platform-independent.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000i64), b.gen_range(0..1_000_000i64));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same: Vec<i64> = (0..20).map(|_| c.gen_range(0..1_000_000i64)).collect();
        let mut d = StdRng::seed_from_u64(42);
        let other: Vec<i64> = (0..20).map(|_| d.gen_range(0..1_000_000i64)).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(5..10i64);
            assert!((5..10).contains(&v));
            let v = r.gen_range(3..=5u64);
            assert!((3..=5).contains(&v));
            let f = r.gen_range(-2.0..2.0f64);
            assert!((-2.0..2.0).contains(&f));
            let u = r.gen_range(0..7usize);
            assert!(u < 7);
        }
    }

    #[test]
    fn gen_bool_probabilities() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((1_800..3_200).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
