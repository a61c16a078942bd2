//! Offline, API-compatible subset of the `proptest` crate.
//!
//! Supports the surface this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), [`Strategy`]
//! with `prop_map`/`prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], [`Just`], and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//!
//! - **no shrinking** — a failing case reports the case number and seed,
//!   not a minimised input;
//! - generation is driven by the vendored deterministic `rand` shim, so
//!   every run explores the same cases (the per-test seed is derived from
//!   the test's name).

use std::ops::Range;

pub use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of type `Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy yielding a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case, reason = "the macro binds each tuple element to its type parameter's name")]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, G);

pub mod collection {
    use super::{Range, StdRng, Strategy};
    use rand::Rng;

    /// `vec(element, len_range)` — a `Vec` whose length is drawn from
    /// `len_range` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.random_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// FNV-1a over the test path — a stable per-test seed.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fresh deterministic RNG for case `case` of test `test_name`.
pub fn rng_for(test_name: &str, case: u32) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_name) ^ ((case as u64) << 32 | 0x9E37))
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
    pub use crate::collection;
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// The `proptest! { … }` test-suite macro: each `#[test] fn name(arg in
/// strategy, …) { body }` becomes a libtest `#[test]` that runs `body`
/// for `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident ($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)), __case);
                $crate::__proptest_bind! { __rng, $($params)* }
                $body
            }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident, $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(n in 1usize..50, x in -2.0f64..2.0) {
            prop_assert!((1..50).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        #[test]
        fn vec_respects_len_range(v in collection::vec(0u32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 10), "elements in range: {:?}", v);
        }

        #[test]
        fn flat_map_threads_outer_value(v in (2usize..8).prop_flat_map(|n| collection::vec(0usize..n, 1..4).prop_map(move |xs| (n, xs)))) {
            let (n, xs) = v;
            prop_assert!(xs.iter().all(|&x| x < n));
        }

        #[test]
        fn trailing_comma_and_tuples(
            t in (0u32..5, -1.0f64..1.0, 0usize..3),
        ) {
            prop_assert!(t.0 < 5 && t.2 < 3);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::Strategy;
        let s = crate::collection::vec(0u64..1000, 5..6);
        let a = s.generate(&mut crate::rng_for("t", 0));
        let b = s.generate(&mut crate::rng_for("t", 0));
        assert_eq!(a, b);
        let c = s.generate(&mut crate::rng_for("t", 1));
        assert_ne!(a, c);
    }
}
