//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this vendored crate
//! provides the subset of the proptest API the workspace's property tests
//! use: the [`proptest!`] macro, [`Strategy`](strategy::Strategy) with `prop_map`, range and
//! tuple strategies, [`Just`](strategy::Just), [`prop_oneof!`], and the
//! `collection::{vec, btree_map, btree_set}` strategies.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of deterministically seeded cases (seeded from the test's name,
//! so failures are reproducible run-to-run).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Object-safe strategy, used by [`Union`] (`prop_oneof!`).
    pub trait DynStrategy<V> {
        /// Draws one value.
        fn dyn_generate(&self, rng: &mut StdRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut StdRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Uniform choice between heterogeneous strategies with one value type
    /// (the result of `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<Box<dyn DynStrategy<V>>>,
    }

    impl<V> Union<V> {
        /// A union of the given arms; panics on an empty list.
        pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut StdRng) -> V {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].dyn_generate(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Number-of-elements specification (`usize` or a `usize` range).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl SizeRange {
        fn sample(&self, rng: &mut StdRng) -> usize {
            if self.lo + 1 >= self.hi {
                self.lo
            } else {
                rng.gen_range(self.lo..self.hi)
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet` (size is an upper bound: duplicates collapse).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// The [`btree_set`] strategy.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap` (size is an upper bound: key clashes collapse).
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// The [`btree_map`] strategy.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-test RNG, seeded from the test's name.
pub fn test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the name: stable across runs, platforms, and compilers.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

pub mod prelude {
    //! The conventional `use proptest::prelude::*` import surface.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the standard form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0i64..100, v in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: one `fn` item per recursion step.
/// The argument list is captured as a token tree and re-parsed by
/// [`__proptest_bind!`], because `expr` fragments may not be followed by `)`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($args:tt)* ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            use $crate::strategy::Strategy as _;
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $crate::__proptest_bind! { __rng; $($args)* }
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: binds `name in strategy` args.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; ) => {};
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = ($strat).generate(&mut $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = ($strat).generate(&mut $rng);
        $crate::__proptest_bind! { $rng; $($rest)* }
    };
}

/// `assert!` under a property test (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$(Box::new($arm) as Box<dyn $crate::strategy::DynStrategy<_>>),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = i64> {
        (0i64..50).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_maps(x in 0i64..10, e in evens(), v in crate::collection::vec(0u64..4, 0..6)) {
            prop_assert!((0..10).contains(&x));
            prop_assert_eq!(e % 2, 0);
            prop_assert!(v.len() < 6);
            prop_assert!(v.iter().all(|&u| u < 4));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(-1i64), 0i64..5]) {
            prop_assert!(v == -1 || (0i64..5).contains(&v));
        }

        #[test]
        fn tuples(p in (0i64..3, 0u64..2, 1i64..4)) {
            prop_assert!(p.0 < 3 && p.1 < 2 && p.2 >= 1);
        }
    }

    #[test]
    fn deterministic_rng_per_name() {
        use rand::Rng;
        let a: Vec<u64> = {
            let mut r = crate::test_rng("x");
            (0..5).map(|_| r.gen_range(0..1000u64)).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::test_rng("x");
            (0..5).map(|_| r.gen_range(0..1000u64)).collect()
        };
        assert_eq!(a, b);
    }
}
