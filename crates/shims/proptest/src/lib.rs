//! Offline shim for `proptest`.
//!
//! Implements the strategy/`proptest!` subset this workspace's
//! property tests use: range and `Just` strategies, tuples,
//! `prop_map`/`prop_filter`, `prop_oneof!`, `proptest::collection`,
//! `prop_assert*!`, `prop_assume!`, and `ProptestConfig::with_cases`.
//! `ProptestConfig::default()` reads `PROPTEST_CASES`.
//! Sampling is deterministic (seeded from the test name); failing
//! inputs are reported but **not shrunk**.

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Deterministic per-test random source.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seed from a test name (stable across runs).
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed.
    Fail(String),
    /// The case was rejected by `prop_assume!`.
    Reject(String),
}

impl TestCaseError {
    /// Build a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "assertion failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runner configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
    /// Maximum consecutive `prop_assume!` rejections before the test
    /// errors out.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases, whatever `PROPTEST_CASES` says.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or `PROPTEST_CASES` when it is set to a number, as in
    /// real proptest.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig {
            cases,
            max_global_rejects: 4096,
        }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Reject generated values that fail the predicate (retries up to
    /// an internal bound, then panics).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            f,
        }
    }

    /// Type-erase the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
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
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter `{}` rejected 10000 consecutive samples",
            self.whence
        );
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A uniform choice among boxed strategies (what `prop_oneof!` builds).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.gen_index(self.0.len());
        self.0[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

/// Boolean strategies (subset of `proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Strategy producing uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generate `Vec`s of elements from `element` with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s (size is *at most* the drawn length,
    /// fewer after deduplication — matching proptest's semantics
    /// loosely).
    pub struct BTreeSetStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generate `BTreeSet`s of elements from `element`.
    pub fn btree_set<S: Strategy>(element: S, len: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, len }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The common imports (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Assert inside a proptest body (reports the failing case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{:?} == {:?}", l, r);
    }};
}

/// Skip cases that do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Define property tests (shim of proptest's runner macro).
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
    (
        cfg = ($cfg:expr);
        $(#[$attr:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut rejects: u32 = 0;
            let mut case: u32 = 0;
            while case < config.cases {
                let case_result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match case_result {
                    ::std::result::Result::Ok(()) => case += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(r)) => {
                        rejects += 1;
                        if rejects > config.max_global_rejects {
                            panic!(
                                "proptest {}: too many prop_assume! rejections ({}): {}",
                                stringify!($name), rejects, r
                            );
                        }
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed on case {}: {}",
                            stringify!($name), case, msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small() -> impl Strategy<Value = usize> {
        1usize..10
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_maps(x in small().prop_map(|v| v * 2), y in 0u64..5) {
            prop_assert!((2..20).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn oneof_and_filter(
            k in prop_oneof![Just(1usize), Just(2), Just(3)],
            v in (0usize..100).prop_filter("even", |v| v % 2 == 0),
        ) {
            prop_assert!((1..=3).contains(&k));
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n > 0);
            prop_assert_ne!(n, 0);
        }

        #[test]
        fn collections(v in crate::collection::vec(1usize..50, 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&e| (1..50).contains(&e)));
        }
    }
}
