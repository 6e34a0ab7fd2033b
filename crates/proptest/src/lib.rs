//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses. The crates.io registry is unreachable in the build environment,
//! so the workspace resolves `proptest` to this path crate.
//!
//! Covered: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`]/[`prop_assume!`],
//! [`Strategy`] with `prop_map`, numeric range strategies, tuple
//! strategies (arity ≤ 8), `prop::collection::vec`, [`any`], [`Just`],
//! and character-class string patterns like `"[a-c]{1,3}"`.
//!
//! Differences from upstream: no shrinking (a failure reports the case
//! number, and generation is deterministic per test name, so failures
//! reproduce exactly), and no persisted failure seeds.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Deterministic per-case RNG: seeded from the test's module path, name,
/// and case index, so every run explores the same sequence and a failing
/// case number is reproducible.
pub fn case_rng(module: &str, name: &str, case: u64) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in module.bytes().chain([0x1f]).chain(name.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Test-loop configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried with new ones.
    Reject(String),
    /// An assertion failed.
    Fail(String),
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

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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

/// Strategy for any value of a samplable type: `any::<bool>()`.
pub struct Any<T>(PhantomData<T>);

/// Uniform strategy over a type's natural domain.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(PhantomData)
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen()
    }
}

/// String strategy from a restricted regex: one character class with an
/// optional repetition, e.g. `"[a-c]{1,3}"`, `"[a-d]{0,12}"`, `"xyz"`
/// (a literal). Anything fancier panics: extend the parser if a test
/// needs more.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_char_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
        let len = rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }
}

/// Parse `[class]{m,n}` / `[class]{n}` / `[class]` / literal.
/// Returns (alphabet, min_len, max_len); literals become a fixed
/// single-"choice" alphabet by being rejected here and handled above.
fn parse_char_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class, reps) = rest.split_once(']')?;
    let mut chars = Vec::new();
    let mut it = class.chars().peekable();
    while let Some(c) = it.next() {
        if it.peek() == Some(&'-') {
            let mut look = it.clone();
            look.next();
            if let Some(&end) = look.peek() {
                it.next();
                it.next();
                for v in c as u32..=end as u32 {
                    chars.extend(char::from_u32(v));
                }
                continue;
            }
        }
        chars.push(c);
    }
    if chars.is_empty() {
        return None;
    }
    let (lo, hi) = match reps.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
        None if reps.is_empty() => (1, 1),
        None => return None,
        Some(inner) => match inner.split_once(',') {
            Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
            None => {
                let n = inner.trim().parse().ok()?;
                (n, n)
            }
        },
    };
    Some((chars, lo, hi))
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive.
        hi: usize,
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
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `elem`-generated values.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` works as in upstream.
pub mod prop {
    pub use crate::collection;
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, case_rng, Just, ProptestConfig, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Fallible assertion: returns a `TestCaseError::Fail` from the enclosing
/// proptest case instead of panicking directly.
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

/// Equality assertion, `prop_assert!` flavored.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: `{:?} == {:?}`", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Inequality assertion, `prop_assert!` flavored.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: `{:?} != {:?}`", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, $($fmt)*);
    }};
}

/// Reject the current inputs; the runner draws fresh ones.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut ran: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while ran < cfg.cases {
                assert!(
                    rejected < cfg.cases.saturating_mul(16) + 1024,
                    "prop_assume rejected too many cases ({rejected})"
                );
                let mut rng = $crate::case_rng(::std::module_path!(), stringify!($name), case);
                let current = case;
                case += 1;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => ran += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => rejected += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest `{}` failed at case #{current}: {msg}",
                        stringify!($name)
                    ),
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_parses() {
        let (chars, lo, hi) = super::parse_char_class_pattern("[a-c]{1,3}").unwrap();
        assert_eq!(chars, vec!['a', 'b', 'c']);
        assert_eq!((lo, hi), (1, 3));
        let (chars, lo, hi) = super::parse_char_class_pattern("[xy]").unwrap();
        assert_eq!(chars, vec!['x', 'y']);
        assert_eq!((lo, hi), (1, 1));
        let (_, lo, hi) = super::parse_char_class_pattern("[a-z]{4}").unwrap();
        assert_eq!((lo, hi), (4, 4));
        assert!(super::parse_char_class_pattern("a+b").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_vecs_respect_bounds(
            x in 3usize..10,
            v in prop::collection::vec(0u8..5, 2..6),
            s in "[a-c]{1,3}",
            flag in any::<bool>(),
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 5));
            prop_assert!((1..=3).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let _ = flag;
        }

        #[test]
        fn prop_map_and_assume_work(pair in (0u8..10, 0u8..10).prop_map(|(a, b)| (a, b))) {
            prop_assume!(pair.0 != pair.1);
            prop_assert_ne!(pair.0, pair.1);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u8..10) {
                prop_assert!(x / 2 > x, "x was {x}");
            }
        }
        always_fails();
    }
}
