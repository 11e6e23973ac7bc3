//! Pure-std stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to the crates.io registry, so this
//! crate reimplements the pieces the property suites rely on: the
//! [`proptest!`] macro, `prop_assert*` / [`prop_assume!`], numeric range
//! and tuple strategies, `any::<T>()`, `prop::collection::vec` and
//! `prop::sample::select`, plus [`ProptestConfig::with_cases`].
//!
//! Differences from upstream, by design:
//!
//! - no shrinking: a failing case panics with the regular assertion
//!   message (inputs are reconstructible from the deterministic stream);
//! - deterministic seeding: the stream is a pure function of the test
//!   name and case index, so failures reproduce exactly across runs;
//! - [`prop_assume!`] skips the current case instead of resampling.

use std::ops::{Range, RangeInclusive};

/// Runner configuration; only `cases` is consulted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // upstream defaults to 256; 64 keeps the single-core CI budget
        // reasonable while still exploring the space
        ProptestConfig { cases: 64 }
    }
}

/// Why a property body ended a case early.
///
/// Bodies run inside a closure returning `Result<(), TestCaseError>`,
/// which is what lets suites write `return Ok(())` and
/// [`prop_assume!`] mid-body, as they do with upstream proptest.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assumption failed; the case is skipped, not failed.
    Reject,
}

/// Deterministic test-stream machinery used by the [`proptest!`] macro.
pub mod test_runner {
    /// SplitMix64 stream for sampling strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A stream determined by `(name hash, case index)`.
        pub fn for_case(name_hash: u64, case: u64) -> Self {
            TestRng {
                state: name_hash ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)` without modulo bias.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample an empty range");
            let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }

    /// FNV-1a of the test name, the per-test half of the stream seed.
    pub fn hash_name(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

use test_runner::TestRng;

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

// --- numeric ranges ---------------------------------------------------

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_strategy!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + rng.unit_f64() as $t * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

impl_float_strategy!(f32, f64);

// --- any::<T>() -------------------------------------------------------

/// Marker returned by [`any`]; the strategy for "any value of `T`".
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The full-domain strategy for `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<u32> {
    type Value = u32;
    fn sample(&self, rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Strategy for Any<usize> {
    type Value = usize;
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

// --- references and tuples --------------------------------------------

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// --- the `prop` namespace ---------------------------------------------

/// Mirrors `proptest::prop` (`prop::collection`, `prop::sample`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Length specification for [`vec()`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                SizeRange {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        /// Strategy for vectors of `elem` values.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        /// Vectors whose length is drawn from `size` and whose elements
        /// are drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// Strategy drawing uniformly from a fixed list.
        #[derive(Debug, Clone)]
        pub struct Select<T: Clone> {
            items: Vec<T>,
        }

        /// One of `items`, uniformly.
        ///
        /// # Panics
        ///
        /// Panics when `items` is empty.
        pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
            assert!(!items.is_empty(), "select requires at least one item");
            Select { items }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn sample(&self, rng: &mut TestRng) -> T {
                self.items[rng.below(self.items.len() as u64) as usize].clone()
            }
        }
    }
}

// --- macros -----------------------------------------------------------

/// Defines property tests: each `fn` runs `config.cases` times with
/// fresh samples bound to its argument patterns.
#[macro_export]
macro_rules! proptest {
    // internal: config resolved, expand the test fns
    (
        @config($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let name_hash = $crate::test_runner::hash_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..u64::from(config.cases) {
                    let mut rng = $crate::test_runner::TestRng::for_case(name_hash, case);
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                    // bodies may `return Ok(())` or reject via prop_assume!
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match outcome {
                        Ok(()) | Err($crate::TestCaseError::Reject) => {}
                    }
                }
            }
        )+
    };
    // explicit per-block config
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest! { @config($cfg) $($rest)* }
    };
    // default config
    ($($rest:tt)*) => {
        $crate::proptest! { @config($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// `assert!` under a name the property suites expect.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` under a name the property suites expect.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// `assert_ne!` under a name the property suites expect.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Skips the current case when the assumption does not hold.
///
/// Property bodies run inside a `Result`-returning closure, so this
/// expands to an early `Err(Reject)` return, which the case loop
/// treats as a skip.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The glob import the suites start with.
pub mod prelude {
    pub use crate::prop;
    pub use crate::test_runner::TestRng;
    pub use crate::{any, Any, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_in_bounds(a in 3usize..9, b in -2.0f64..2.0, c in 1u32..=4) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
            prop_assert!((1..=4).contains(&c));
        }

        #[test]
        fn tuples_and_vecs((x, y) in (0usize..5, 0usize..5), v in prop::collection::vec(0.0f64..1.0, 1..10)) {
            prop_assert!(x < 5 && y < 5);
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|e| (0.0..1.0).contains(e)));
        }

        #[test]
        fn select_and_assume(n in prop::sample::select(vec![2usize, 4, 8]), m in 0usize..10) {
            prop_assume!(m > 0);
            prop_assert!(n.is_power_of_two());
            prop_assert_ne!(m, 0);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::for_case(1, 2);
        let mut b = TestRng::for_case(1, 2);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
