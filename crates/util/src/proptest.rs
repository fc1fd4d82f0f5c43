//! A tiny deterministic property-testing harness with the `proptest!`
//! macro surface the workspace's tests already use.
//!
//! Differences from the `proptest` crate, on purpose:
//!
//! * **Deterministic by default.** Cases derive from a fixed base seed
//!   (override with `CNET_PROPTEST_SEED`), so `cargo test` is replayable —
//!   the whole point of this workspace's consistency checkers. The base
//!   seed is logged to stderr at the start of every property run.
//! * **Shrinking-lite.** On failure the harness greedily tries a bounded
//!   set of structurally smaller inputs (range minimum / midpoint, shorter
//!   vectors, element-wise shrinks) and reports the smallest reproduction
//!   plus the case seed. No persistence files; regressions get pinned as
//!   explicit `#[test]`s instead.
//!
//! ```
//! use cnet_util::proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!     fn sum_is_commutative(a in 0u64..100, b in 0u64..100) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{mix_seed, Rng, SeedableRng, StdRng};

/// Fallback base seed when `CNET_PROPTEST_SEED` is unset.
const DEFAULT_BASE_SEED: u64 = 0x636e_6574_2d70_7431; // "cnet-pt1"

/// How many shrink-candidate executions a failing case may spend.
const SHRINK_BUDGET: usize = 128;

/// Run-count configuration for a property.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value;

    /// Draws one input from `rng`.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Structurally smaller variants of a failing input, most aggressive
    /// first. Default: no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// A strategy that post-processes generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// [`Strategy::prop_map`]'s adapter. Mapped values cannot shrink (the map
/// is not invertible), matching shrinking-lite's scope.
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

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2;
                    if mid != self.start && mid != *value {
                        out.push(mid);
                    }
                    if *value - 1 != self.start && Some(&(*value - 1)) != out.last() {
                        out.push(*value - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        if *value > self.start {
            out.push(self.start);
            let mid = self.start + (*value - self.start) / 2.0;
            if mid > self.start && mid < *value {
                out.push(mid);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone,)+
        {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::{StdRng, Strategy};
    use crate::rng::Rng;

    /// A uniformly random boolean.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The only boolean strategy: a fair coin.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.next_u64() & 1 == 1
        }

        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use crate::rng::Rng;
    use std::ops::Range;

    /// Length bounds for generated collections: `lo..hi` (half-open), or a
    /// single `usize` for an exact length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// A vector whose length is drawn from a [`SizeRange`] and whose
    /// elements come from an inner strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Shorter prefixes first (length is usually the dominant cost).
            if value.len() > self.size.lo {
                out.push(value[..self.size.lo].to_vec());
                let half = self.size.lo + (value.len() - self.size.lo) / 2;
                if half > self.size.lo && half < value.len() {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            for (i, item) in value.iter().enumerate() {
                for cand in self.element.shrink(item) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// The base seed for this process's property runs.
pub fn base_seed() -> u64 {
    std::env::var("CNET_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BASE_SEED)
}

enum CaseOutcome {
    Pass,
    Fail(String),
    Panic(Box<dyn std::any::Any + Send>),
}

fn run_one<V>(test: &mut impl FnMut(V) -> Result<(), String>, input: V) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(|| test(input))) {
        Ok(Ok(())) => CaseOutcome::Pass,
        Ok(Err(msg)) => CaseOutcome::Fail(msg),
        Err(payload) => CaseOutcome::Panic(payload),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

/// Drives one property: `config.cases` inputs drawn from `strategy`, each
/// from a seed derived deterministically from the base seed. On failure,
/// shrinks within `SHRINK_BUDGET` executions and panics with the
/// smallest reproduction found plus replay instructions.
///
/// This is the expansion target of the [`proptest!`](macro@crate::proptest)
/// macro; call it directly for custom harnesses.
pub fn run_with<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    mut test: impl FnMut(S::Value) -> Result<(), String>,
) where
    S::Value: Clone + Debug,
{
    let base = base_seed();
    eprintln!(
        "proptest {name}: {} cases from base seed {base} \
         (replay: CNET_PROPTEST_SEED={base})",
        config.cases
    );
    for case in 0..config.cases {
        let seed = mix_seed(base, case as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = strategy.generate(&mut rng);
        let outcome = run_one(&mut test, input.clone());
        let first_message = match outcome {
            CaseOutcome::Pass => continue,
            CaseOutcome::Fail(msg) => msg,
            CaseOutcome::Panic(payload) => panic_message(payload.as_ref()),
        };

        // Greedy shrink: repeatedly take the first failing candidate.
        let mut minimal = input;
        let mut message = first_message;
        let mut budget = SHRINK_BUDGET;
        'shrinking: while budget > 0 {
            for cand in strategy.shrink(&minimal) {
                budget -= 1;
                match run_one(&mut test, cand.clone()) {
                    CaseOutcome::Pass => {}
                    CaseOutcome::Fail(msg) => {
                        minimal = cand;
                        message = msg;
                        continue 'shrinking;
                    }
                    CaseOutcome::Panic(payload) => {
                        minimal = cand;
                        message = panic_message(payload.as_ref());
                        continue 'shrinking;
                    }
                }
                if budget == 0 {
                    break;
                }
            }
            break;
        }

        panic!(
            "property {name} failed at case {case} (case seed {seed}): {message}\n\
             minimal failing input: {minimal:?}\n\
             replay the full run with CNET_PROPTEST_SEED={base}"
        );
    }
}

/// Re-runs `payload` panics from user code transparently.
#[doc(hidden)]
pub fn repanic(payload: Box<dyn std::any::Any + Send>) -> ! {
    resume_unwind(payload)
}

/// Everything a property-test module needs:
/// `use cnet_util::proptest::prelude::*;` brings in the [`Strategy`]
/// trait, [`ProptestConfig`], the `proptest!`/`prop_assert*!` macros, and
/// the module itself under both `proptest` and `prop` so existing
/// `proptest::bool::ANY` / `prop::collection::vec` paths keep resolving.
pub mod prelude {
    #[doc(no_inline)]
    pub use crate::proptest;
    #[doc(no_inline)]
    pub use crate::proptest as prop;
    pub use crate::proptest::{ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     fn my_property(x in 0u64..10, v in prop::collection::vec(0u32..5, 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            $crate::proptest::ProptestConfig::default(); $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr;) => {};
    (
        $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __config: $crate::proptest::ProptestConfig = $cfg;
            let __strategy = ($($strat,)+);
            $crate::proptest::run_with(
                stringify!($name),
                &__config,
                &__strategy,
                |($($arg,)+)| {
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
}

/// `assert!` for property bodies: failures are reported through the
/// shrinking machinery instead of an immediate panic.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left == right`\n  left: {left:?}\n right: {right:?}"
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left == right` ({})\n  left: {left:?}\n right: {right:?}",
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `left != right`\n  both: {left:?}"
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    proptest! {
        fn ranges_respect_bounds(x in 3u64..17, y in 0.0..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&y), "y = {y}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn vec_lengths_respect_size_range(
            v in prop::collection::vec(0u32..5, 2..6),
            w in prop::collection::vec(0u32..5, 4),
            b in proptest::bool::ANY,
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 4);
            prop_assert!(v.iter().all(|&x| x < 5));
            let _ = b;
        }
    }

    proptest! {
        fn prop_map_transforms(n in (1usize..4, 1usize..4).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..=9).contains(&n));
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let strat = collection::vec(0u64..1000, 1..20);
        let a = strat.generate(&mut StdRng::seed_from_u64(5));
        let b = strat.generate(&mut StdRng::seed_from_u64(5));
        let c = strat.generate(&mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn failures_shrink_and_report_seed() {
        let config = ProptestConfig::with_cases(50);
        let strat = (0u64..1000,);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_with("doc_example", &config, &strat, |(x,)| {
                // Fails for all x >= 10; minimal reproduction is x == 10.
                if x >= 10 {
                    Err(format!("{x} too big"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(outcome.unwrap_err().as_ref());
        assert!(msg.contains("minimal failing input: (10,)"), "{msg}");
        assert!(msg.contains("CNET_PROPTEST_SEED"), "{msg}");
    }

    #[test]
    fn panics_inside_properties_are_reported_like_failures() {
        let config = ProptestConfig::with_cases(10);
        let strat = (0u64..100,);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_with("panicky", &config, &strat, |(x,)| {
                assert!(x > 1000, "x was {x}");
                Ok(())
            });
        }));
        let msg = panic_message(outcome.unwrap_err().as_ref());
        assert!(msg.contains("property panicky failed"), "{msg}");
        assert!(msg.contains("minimal failing input: (0,)"), "{msg}");
    }

    #[test]
    fn int_shrink_moves_toward_range_start() {
        let strat = 5u64..100;
        assert!(strat.shrink(&5).is_empty());
        let cands = strat.shrink(&80);
        assert_eq!(cands[0], 5);
        assert!(cands.iter().all(|&c| (5..80).contains(&c)));
    }
}
