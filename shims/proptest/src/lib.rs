//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the PAOTR test suites use as
//! a deterministic generate-and-check harness:
//!
//! * [`Strategy`] with `prop_map`, `prop_recursive`, `boxed`;
//! * strategies for numeric ranges, tuples, [`Just`], [`collection::vec`],
//!   [`option::of`], [`any`], and `prop_oneof!` unions;
//! * the [`proptest!`] macro with `#![proptest_config(...)]`,
//!   plus `prop_assert!`, `prop_assert_eq!`, `prop_assume!`.
//!
//! Differences from upstream: no shrinking (a failing case reports the
//! case number and message only), rejection via `prop_assume!` re-draws
//! without a global rejection cap, and the RNG seed is derived from the
//! test name so runs are reproducible.

#![forbid(unsafe_code)]
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Runtime configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 128 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case did not satisfy a `prop_assume!` precondition.
    Reject(String),
    /// The property failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(reason.into())
    }

    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            TestCaseError::Fail(r) => write!(f, "failed: {r}"),
        }
    }
}

/// A value generator. Unlike upstream proptest there is no shrinking, so a
/// strategy is simply a deterministic function of the RNG state.
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn gen_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Applies `f` to every generated value.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }

    /// Builds recursive structures: at each of `depth` levels the result is
    /// either a base value or one produced by `recurse` over the previous
    /// level. `_desired_size` and `_expected_branch_size` are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let base = self.boxed();
        let mut current = base.clone();
        for _ in 0..depth {
            let deeper = recurse(current).boxed();
            current = Union {
                choices: vec![base.clone(), deeper],
            }
            .boxed();
        }
        current
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        self.inner.gen_value(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn gen_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Uniform choice between same-typed strategies (`prop_oneof!`).
pub struct Union<T> {
    pub choices: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        Union { choices }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.choices.len());
        self.choices[i].gen_value(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! strategy_for_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(*self.start()..=*self.end())
            }
        }
    )*};
}
strategy_for_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! strategy_for_tuples {
    ($(($($s:ident $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )+};
}
strategy_for_tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized + 'static {
    fn arbitrary() -> BoxedStrategy<Self>;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary() -> BoxedStrategy<$t> {
                (<$t>::MIN..=<$t>::MAX).boxed()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary() -> BoxedStrategy<bool> {
        (0u8..=1).prop_map(|b| b == 1).boxed()
    }
}

impl Arbitrary for f64 {
    fn arbitrary() -> BoxedStrategy<f64> {
        // Finite values only; proptest's full-bit-pattern domain is more
        // exotic than any of our tests need.
        (-1e12f64..1e12).boxed()
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> BoxedStrategy<T> {
    T::arbitrary()
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Range, RangeInclusive, Rng, StdRng, Strategy};

    /// Acceptable size arguments for [`vec`](fn@vec): an exact size, `lo..hi`, or
    /// `lo..=hi`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Vector of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use super::{Rng, StdRng, Strategy};

    /// `None` a quarter of the time, `Some(inner)` otherwise (matching
    /// upstream's default Some-biased weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_range(0..4usize) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }
}

/// Deterministic per-test seed derived from the test's name (FNV-1a).
pub(crate) fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one `proptest!`-generated test body; used by the macro expansion.
pub fn run_cases<G, B>(test_name: &str, config: &ProptestConfig, mut generate_and_check: G)
where
    G: FnMut(&mut StdRng) -> B,
    B: Into<Result<(), TestCaseError>>,
{
    let mut rng = StdRng::seed_from_u64(seed_for(test_name));
    let mut accepted = 0u32;
    let mut attempts = 0u64;
    let max_attempts = u64::from(config.cases) * 20 + 100;
    while accepted < config.cases {
        attempts += 1;
        if attempts > max_attempts {
            panic!(
                "proptest `{test_name}`: too many rejected cases \
                 ({accepted}/{} accepted after {attempts} attempts)",
                config.cases
            );
        }
        match generate_and_check(&mut rng).into() {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{test_name}` failed on case {accepted}: {msg}")
            }
        }
    }
}

/// The main harness macro; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$attr:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), &config, |__rng| {
                    $(let $pat = $crate::Strategy::gen_value(&($strat), __rng);)+
                    let __out: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    __out
                });
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Rejects (re-draws) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice between strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($choice:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($choice)),+])
    };
}

pub mod prelude {
    pub use super::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
    /// Upstream proptest's prelude exposes the crate under the name
    /// `prop` (for `prop::collection::vec` and friends).
    pub use crate as prop;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples((a, b) in (0usize..5, 1u32..=3), x in 0.25f64..0.75) {
            prop_assert!(a < 5);
            prop_assert!((1..=3).contains(&b));
            prop_assert!((0.25..0.75).contains(&x));
        }

        #[test]
        fn vec_and_map(v in prop::collection::vec(0u8..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn assume_rejects(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf(u8),
            Node(Vec<T>),
        }
        let s = (0u8..10)
            .prop_map(T::Leaf)
            .prop_recursive(3, 12, 4, |inner| {
                prop::collection::vec(inner, 2..4).prop_map(T::Node)
            });
        let depth_of = |t: &T| {
            fn go(t: &T) -> usize {
                match t {
                    T::Leaf(b) => usize::from(*b < 10),
                    T::Node(cs) => 1 + cs.iter().map(go).max().unwrap_or(0),
                }
            }
            go(t)
        };
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut saw_node = false;
        let mut saw_leaf = false;
        for _ in 0..200 {
            let t = s.gen_value(&mut rng);
            assert!(depth_of(&t) <= 4, "recursion must respect the depth bound");
            match t {
                T::Leaf(_) => saw_leaf = true,
                T::Node(cs) => {
                    saw_node = true;
                    assert!(cs.len() >= 2 && cs.len() < 4);
                }
            }
        }
        assert!(saw_leaf && saw_node, "union should produce both arms");
    }

    #[test]
    #[should_panic(expected = "failed on case")]
    fn failures_panic() {
        proptest! {
            #[allow(unused)]
            fn always_fails(n in 0u32..10) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(super::seed_for("a"), super::seed_for("b"));
    }
}
