//! The workspace's property-test runner, imported everywhere as
//! `proptest` (the workspace dependency of that name points here).
//!
//! It implements the slice of the proptest 1 API the tests call, so every
//! `proptest!` block reads as it would against the crates.io crate:
//! `Strategy` (with `prop_map` / `boxed`), `Just`, numeric
//! `Range` / `RangeInclusive` strategies, tuples, `prop_oneof!`,
//! `proptest::collection::vec`, `ProptestConfig::with_cases` and the
//! `prop_assert*` / `prop_assume!` family.
//!
//! `proptest!` expands to a `#[test]` that runs its body for
//! `ProptestConfig::cases` cases (256 by default, proptest's own default).
//! Case `i` draws its arguments from a splitmix64 stream seeded by
//! [`case_seed`] from the test's name and `i`, so every run draws the
//! same values, and a failure names the test, the case and its seed. There
//! is no shrinking and no failure persistence: the failing case is
//! reported as drawn.

pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config` (re-exported from the
    /// prelude as `ProptestConfig`). Only `cases` exists.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    #[derive(Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail<S: Into<String>>(reason: S) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject<S: Into<String>>(reason: S) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }
}

pub mod strategy {
    /// The workspace's splitmix64 stream (`StdRng`'s step): tiny,
    /// full-period, and deterministic across runs and platforms.
    pub fn splitmix64(state: &mut u64) -> u64 {
        let out = cpt_rand::splitmix64(*state);
        *state = state.wrapping_add(cpt_rand::GOLDEN_GAMMA);
        out
    }

    /// Object-safe slice of proptest's `Strategy` trait: `generate`
    /// replaces its `new_tree` / `ValueTree` machinery (no shrinking).
    pub trait Strategy {
        type Value;

        fn generate(&self, state: &mut u64) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, state: &mut u64) -> V {
            (**self).generate(state)
        }
    }

    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _state: &mut u64) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, state: &mut u64) -> O {
            (self.f)(self.inner.generate(state))
        }
    }

    /// Backs `prop_oneof!`: uniform choice among boxed variants (the real
    /// macro supports weights; this repo only uses the unweighted form).
    pub struct OneOf<V>(pub Vec<BoxedStrategy<V>>);

    impl<V> Strategy for OneOf<V> {
        type Value = V;

        fn generate(&self, state: &mut u64) -> V {
            assert!(!self.0.is_empty(), "prop_oneof! needs at least one variant");
            let idx = (splitmix64(state) % self.0.len() as u64) as usize;
            self.0[idx].generate(state)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, state: &mut u64) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (splitmix64(state) as u128 % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, state: &mut u64) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let off = (splitmix64(state) as u128 % span) as i128;
                    (lo as i128 + off) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, state: &mut u64) -> $t {
                    assert!(self.start < self.end, "empty float range strategy");
                    // 53 uniform mantissa bits in [0, 1); the end stays open.
                    let frac = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
                    let v = self.start as f64 + frac * (self.end as f64 - self.start as f64);
                    v as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, state: &mut u64) -> $t {
                    let (lo, hi) = (*self.start() as f64, *self.end() as f64);
                    assert!(lo <= hi, "empty float range strategy");
                    let frac = (splitmix64(state) >> 10) as f64 / ((1u64 << 54) - 1) as f64;
                    (lo + frac * (hi - lo)) as $t
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident),+)),* $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, state: &mut u64) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(state),)+)
                }
            }
        )*};
    }

    tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));
}

pub mod collection {
    use crate::strategy::{splitmix64, Strategy};

    /// Mirror of `proptest::collection::SizeRange`: conversions exist only
    /// from usize ranges, which (as in the real crate) is what makes bare
    /// `0..40` literals in `vec(elem, 0..40)` infer as usize.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_incl: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(elem, len_range)` — the length is drawn
    /// uniformly from `size`, then that many elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, state: &mut u64) -> Vec<S::Value> {
            let span = (self.size.hi_incl - self.size.lo + 1) as u64;
            let len = self.size.lo + (splitmix64(state) % span) as usize;
            (0..len).map(|_| self.elem.generate(state)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// The seed case `case` of the test named `name` draws from: FNV-1a of
/// the name, mixed with the case index. Distinct tests and distinct cases
/// draw distinct streams, identically on every run.
pub fn case_seed(name: &str, case: u32) -> u64 {
    let h = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    cpt_rand::splitmix64(h ^ u64::from(case))
}

/// Runs `cases` cases of the test `name`: each gets its [`case_seed`],
/// from which `case` draws its arguments and runs the body. A failed
/// assertion or a panic in the body fails the test with a message naming
/// the test, the case and its seed.
#[doc(hidden)]
pub fn run_cases(
    name: &str,
    cases: u32,
    mut case: impl FnMut(&mut u64) -> Result<(), test_runner::TestCaseError>,
) {
    for i in 0..cases {
        let seed = case_seed(name, i);
        let mut state = seed;
        let where_ = || {
            format!(
                "proptest {name}: case {} of {cases} (seed {seed:#018x})",
                i + 1
            )
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut state))) {
            Ok(Ok(())) | Ok(Err(test_runner::TestCaseError::Reject(_))) => {}
            Ok(Err(e)) => panic!("{} failed: {e}", where_()),
            Err(payload) => {
                eprintln!("{} panicked", where_());
                std::panic::resume_unwind(payload)
            }
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        // The real macro passes `#[test]` through from the caller rather
        // than adding it; keep that so attribute sets match exactly.
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            $crate::run_cases(stringify!($name), __cfg.cases, |__state: &mut u64| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __state);)*
                (move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                    __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left != right`\n  both: `{:?}`", __l),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_proptests_256_cases() {
        assert_eq!(test_runner::Config::default().cases, 256);
    }

    #[test]
    fn a_failure_names_the_test_the_case_and_its_seed() {
        let seed = case_seed("demo", 2);
        let failed = std::panic::catch_unwind(|| {
            let mut seen = 0;
            run_cases("demo", 10, |_| {
                seen += 1;
                if seen == 3 {
                    Err(test_runner::TestCaseError::fail("boom"))
                } else {
                    Ok(())
                }
            })
        });
        let payload = failed.expect_err("the third case fails");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert_eq!(
            msg,
            &format!("proptest demo: case 3 of 10 (seed {seed:#018x}) failed: boom")
        );
    }

    #[test]
    fn cases_draw_from_their_own_seeds() {
        let mut draws = Vec::new();
        run_cases("demo", 3, |state| {
            draws.push((*state, strategy::Strategy::generate(&(0u64..1000), state)));
            Ok(())
        });
        let seeds: Vec<u64> = draws.iter().map(|d| d.0).collect();
        assert_eq!(
            seeds,
            (0..3).map(|i| case_seed("demo", i)).collect::<Vec<_>>()
        );
        let again = strategy::Strategy::generate(&(0u64..1000), &mut case_seed("demo", 1));
        assert_eq!(draws[1].1, again, "a case replays from its seed alone");
    }

    proptest! {
        #[test]
        fn the_macro_runs_every_case(x in 0u32..10, v in collection::vec(0u8..3, 1..4)) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }
}
