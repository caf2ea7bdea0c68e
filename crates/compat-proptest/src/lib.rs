//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no crates.io mirror, so the real `proptest`
//! cannot be fetched. This crate keeps the dependent test sources unchanged:
//! it provides [`Strategy`] with `prop_map`/`prop_flat_map`, range / tuple /
//! [`Just`] / `collection::vec` / `bool::ANY` strategies, the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] / [`prop_assert_eq!`]
//! macros, and [`ProptestConfig`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (override with `PROPTEST_SEED`), and there is **no
//! shrinking** — a failure reports the raw generated input instead of a
//! minimized one.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, RngCore, SeedableRng};

/// Runner configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Source of randomness for strategies.
#[derive(Debug, Clone)]
pub struct TestRng(rand::rngs::StdRng);

impl TestRng {
    /// Deterministic generator derived from the test name, or from the
    /// `PROPTEST_SEED` environment variable when set.
    pub fn deterministic(test_name: &str) -> TestRng {
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(s) => s.parse::<u64>().unwrap_or(0),
            // FNV-1a over the test name: distinct tests get distinct streams.
            Err(_) => test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            }),
        };
        TestRng(rand::rngs::StdRng::seed_from_u64(seed))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A generator of test-case values (mirrors `proptest::strategy::Strategy`,
/// without shrinking).
pub trait Strategy {
    /// The value type generated.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: fmt::Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (backs [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: fmt::Debug> Union<T> {
    /// A union over `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Boxes a strategy (used by [`prop_oneof!`]; not public API upstream).
#[doc(hidden)]
pub fn __boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
    Box::new(s)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
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
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::*;

    /// Admissible length specifications for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (mirrors `proptest::bool`).
pub mod bool {
    use super::*;

    /// Strategy yielding `true` or `false` uniformly.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// Uniform boolean.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a test module typically imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Fails the enclosing property when `cond` is false (non-panicking: the
/// runner reports the generated input alongside the message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`", left, right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::core::result::Result::Err(
                format!("{}: `{:?}` != `{:?}`", format!($($fmt)+), left, right),
            );
        }
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::__boxed($s)),+])
    };
}

/// Declares property tests (mirrors `proptest::proptest!`).
///
/// Supports the `#![proptest_config(..)]` header and any number of
/// `#[test] fn name(pat in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(stringify!($name));
            let strategy = ($($strat,)+);
            for case in 0..config.cases {
                let value = $crate::Strategy::generate(&strategy, &mut rng);
                let repr = format!("{:?}", value);
                let ($($arg,)+) = value;
                let outcome: ::core::result::Result<(), ::std::string::String> =
                    (|| -> ::core::result::Result<(), ::std::string::String> {
                        $body;
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(msg) = outcome {
                    panic!(
                        "proptest '{}' failed at case {}/{}:\n{}\ninput: {}\n\
                         (re-run with PROPTEST_SEED to vary cases; no shrinking)",
                        stringify!($name), case, config.cases, msg, repr,
                    );
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone)]
    struct Pair {
        a: i64,
        b: i64,
    }

    fn pair() -> impl Strategy<Value = Pair> {
        (0i64..10, 0i64..=5).prop_map(|(a, b)| Pair { a, b })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(p in pair(), flag in crate::bool::ANY, v in crate::collection::vec(0u8..4, 1..=3)) {
            prop_assert!(p.a < 10 && p.b <= 5);
            prop_assert!(!v.is_empty() && v.len() <= 3);
            prop_assert!(v.iter().all(|&x| x < 4));
            prop_assert!(u8::from(flag) <= 1);
        }

        #[test]
        fn flat_map_nests(v in (1usize..4).prop_flat_map(|n| crate::collection::vec(0i64..8, n))) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }

        #[test]
        fn oneof_picks_from_options(x in prop_oneof![Just(1i64), Just(2i64), 10i64..12]) {
            prop_assert!(x == 1 || x == 2 || x == 10 || x == 11);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_input() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0i64..4) {
                prop_assert!(x < 0, "x was {}", x);
            }
        }
        always_fails();
    }
}
