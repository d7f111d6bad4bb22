//! Offline stand-in for the `proptest` crate.
//!
//! Keeps the strategy/`proptest!` surface this workspace uses but replaces
//! shrinking and persistence with plain deterministic random generation: each
//! test gets an RNG seeded from its name, so failures reproduce exactly on
//! re-run. `prop_assert!`-style macros return `TestCaseError` through the
//! hidden `Result` the `proptest!` macro wraps around each body.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration, error type and the deterministic RNG.

    /// Error signalling a failed property case; propagated with `?` or via
    /// the `prop_assert!` macros.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        reason: String,
    }

    impl TestCaseError {
        /// Fails the current case with `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError {
                reason: reason.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.reason)
        }
    }

    /// Per-test configuration; only `cases` is interpreted.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic xoshiro256++ RNG used to drive strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// An RNG seeded deterministically from the test's name, so each
        /// property sees the same case sequence on every run.
        pub fn for_test(test_name: &str) -> Self {
            // FNV-1a over the name gives a stable per-test seed.
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut sm = hash;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// A uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform integer in `[0, span)`; rejection-sampled, no bias.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            let zone = u64::MAX - (u64::MAX - span + 1) % span;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % span;
                }
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating random values of one type.
    ///
    /// Object-safe so strategies can be boxed for [`Union`] / `prop_oneof!`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { base: self, f }
        }
    }

    /// Boxes a strategy, erasing its concrete type (`prop_oneof!` helper).
    pub fn boxed<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(strategy)
    }

    /// Strategy returning a fixed value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.generate(rng))
        }
    }

    /// Weighted choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` pairs.
        ///
        /// # Panics
        /// Panics if `options` is empty or all weights are zero.
        pub fn new_weighted(options: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            let total: u64 = options.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.options.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total);
            for (weight, strategy) in &self.options {
                if pick < *weight as u64 {
                    return strategy.generate(rng);
                }
                pick -= *weight as u64;
            }
            unreachable!("weights changed during generation")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "cannot sample empty range");
                    let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    start + rng.below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u64, u32, u8);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "cannot sample empty range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Bounds for a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length falls in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Items intended for glob import in property tests.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Module alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Weighted (or uniform) choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Declares property tests: each `fn` runs `config.cases` random cases with
/// its arguments drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg_pat:pat in $arg_strategy:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case_index in 0..config.cases {
                    let ($($arg_pat,)+) = ($(
                        $crate::strategy::Strategy::generate(&($arg_strategy), &mut rng),
                    )+);
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(err) = outcome {
                        panic!("property {} failed at case {}: {}", stringify!($name), case_index, err);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (u64, f64)> {
        (0u64..100, 0.0f64..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_respect_bounds(x in 5usize..10, y in 0u32..=u32::MAX, (a, b) in pair()) {
            prop_assert!((5..10).contains(&x));
            let _ = y;
            prop_assert!(a < 100);
            prop_assert!((0.0..1.0).contains(&b));
        }

        #[test]
        fn vec_and_oneof_compose(
            v in prop::collection::vec(prop_oneof![3 => 0u64..5, 1 => 100u64..105], 1..20),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for x in v {
                prop_assert!(x < 5 || (100..105).contains(&x), "got {x}");
            }
        }

        #[test]
        fn map_and_just(s in Just(7u64), d in (0u64..3).prop_map(|n| n * 2)) {
            prop_assert_eq!(s, 7);
            prop_assert!(d % 2 == 0 && d <= 4);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[allow(unnameable_test_items)]
    fn question_mark_propagates() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2))]
            #[test]
            fn inner(_x in 0u64..2) {
                Err::<(), _>(TestCaseError::fail("boom")).err();
            }
        }
        inner();
    }
}
