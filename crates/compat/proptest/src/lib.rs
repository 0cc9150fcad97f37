#![warn(missing_docs)]

//! Offline stand-in for the `proptest` crate.
//!
//! Implements the API subset this workspace's property tests use: range and
//! tuple strategies, `Just`, `prop_map`/`prop_flat_map`,
//! `collection::vec`, the `proptest!` macro with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`, and the
//! `prop_assert*`/`prop_assume!` macros. Differences from the real crate:
//! no shrinking (a failing case reports its seed rather than a minimal
//! counterexample) and a deterministic per-test RNG so failures reproduce.

/// Test-runner configuration and RNG.
pub mod test_runner {
    /// Configuration accepted by `proptest!`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run each property `cases` times.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic splitmix64 RNG used to drive strategies.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name so every test has a stable stream.
        pub fn from_name(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`.
        pub fn next_bounded(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            // Modulo bias is irrelevant for test-case generation.
            self.next_u64() % bound
        }

        /// Uniform draw in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then use it to build and sample a second strategy.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Types with an unconstrained whole-domain strategy, via [`any`].
pub trait Arbitrary {
    /// Draw one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The whole-domain strategy for `T`: `any::<bool>()`, `any::<u32>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_bounded(span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.next_bounded((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + rng.next_bounded(span) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.next_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: a fixed length or a range.
    pub trait VecLen {
        /// Draw a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl VecLen for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl VecLen for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + rng.next_bounded((self.end - self.start) as u64) as usize
        }
    }

    /// Vector of values drawn from `element`, with length from `len`.
    pub fn vec<S: Strategy, L: VecLen>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: VecLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, Strategy,
    };
}

/// Assert inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(args in strategies) { body }` runs
/// `cases` times with freshly sampled arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::Strategy as _;
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let strategies = ($($strat,)+);
                let mut rng =
                    $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    let ($($arg,)+) = strategies.sample(&mut rng);
                    let run = || { $body };
                    let outcome = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(run),
                    );
                    if let Err(payload) = outcome {
                        eprintln!(
                            "proptest stand-in: property `{}` failed on case {case}",
                            stringify!($name),
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..10, f in -2.0f64..2.0, n in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn combinators_compose(v in (1usize..5).prop_flat_map(|n| {
            (Just(n), collection::vec(0.0f64..1.0, n))
        })) {
            let (n, data) = v;
            prop_assert_eq!(data.len(), n);
        }

        #[test]
        fn assume_skips_cases(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}
