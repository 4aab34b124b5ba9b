//! Minimal, dependency-free stand-in for the
//! [`proptest`](https://crates.io/crates/proptest) crate, providing the API
//! subset the `prf` workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`],
//! * the [`strategy::Strategy`] trait with `prop_map` and `prop_shuffle`,
//! * range strategies (`0.0f64..1.0`, `0u32..40`, `0.0f64..=1.0`, …) and
//!   tuple strategies up to arity 4,
//! * [`collection::vec`] and [`sample::subsequence`],
//! * [`test_runner::ProptestConfig`] (only `cases` is honoured).
//!
//! Semantics: each test runs `cases` deterministic random cases (seeded from
//! the test name, so failures reproduce across runs). Rejected cases
//! ([`prop_assume!`]) are retried up to a bounded number of extra attempts.
//! Failing cases are **shrunk** through [`strategy::ValueTree`]s: every
//! generated value carries its shrink state (range minima, per-element
//! subtrees, mapping closures), and the runner greedily re-runs the simpler
//! candidate trees (halving towards the range minimum for numbers,
//! halving/removal plus element-wise shrinking for vectors, component-wise
//! for tuples) and reports the minimal case's assertion message, together
//! with the raw case's. Mapped strategies
//! ([`strategy::Strategy::prop_map`]) shrink too: the tree shrinks the
//! *pre-map* value and re-applies the mapping, so no inverse is needed.

#![deny(missing_docs)]

pub mod strategy;

/// Strategies producing collections.
pub mod collection {
    use crate::strategy::{Shrinks, Strategy, ValueTree};
    use rand::{rngs::StdRng, Rng};
    use std::ops::Range;

    /// The admissible sizes of a generated collection.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// A strategy generating `Vec`s whose elements come from `element` and
    /// whose length is uniform over `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Creates a strategy generating vectors of values drawn from `element`,
    /// with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        type Tree = VecTree<S::Tree>;

        fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            VecTree {
                min_len: self.size.lo,
                elems: (0..len).map(|_| self.element.new_tree(rng)).collect(),
            }
        }
    }

    /// The tree of a [`VecStrategy`] value: one subtree per element plus
    /// the minimum admissible length, so structural shrinks never go below
    /// the strategy's size floor.
    #[derive(Clone, Debug)]
    pub struct VecTree<T> {
        min_len: usize,
        elems: Vec<T>,
    }

    impl<T: ValueTree> ValueTree for VecTree<T> {
        type Value = Vec<T::Value>;

        fn current(&self) -> Self::Value {
            self.elems.iter().map(ValueTree::current).collect()
        }

        fn shrink(&self) -> Shrinks<'_, Self> {
            let (n, min_len) = (self.elems.len(), self.min_len);
            let with = move |elems: Vec<T>| VecTree { min_len, elems };
            // Structural shrinks first (smaller vectors), then element-wise;
            // a candidate clones the vector only when the runner pulls it.
            let half = (n / 2).max(min_len);
            let halves = [0, n - half].into_iter().filter(move |_| half < n);
            let halves = halves.map(move |lo| with(self.elems[lo..lo + half].to_vec()));
            let removals = (0..n).filter(move |_| n > min_len).map(move |i| {
                let mut v = self.elems.clone();
                v.remove(i);
                with(v)
            });
            let elementwise = self.elems.iter().enumerate().flat_map(move |(i, elem)| {
                elem.shrink().map(move |cand| {
                    let mut v = self.elems.clone();
                    v[i] = cand;
                    with(v)
                })
            });
            Box::new(halves.chain(removals).chain(elementwise))
        }
    }
}

/// Strategies sampling from existing collections.
pub mod sample {
    use crate::strategy::Strategy;
    use rand::{rngs::StdRng, Rng};

    /// A strategy generating order-preserving subsequences of a fixed vector.
    #[derive(Clone, Debug)]
    pub struct Subsequence<T> {
        values: Vec<T>,
        len: usize,
    }

    /// Creates a strategy that picks a uniformly random subsequence of
    /// exactly `len` elements from `values`, preserving their order.
    ///
    /// # Panics
    /// Panics if `len > values.len()`.
    pub fn subsequence<T: Clone>(values: Vec<T>, len: usize) -> Subsequence<T> {
        assert!(
            len <= values.len(),
            "subsequence: requested {len} of {} elements",
            values.len()
        );
        Subsequence { values, len }
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;
        type Tree = crate::strategy::NoShrink<Vec<T>>;

        fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
            // Floyd's algorithm would avoid the index vec, but n is tiny in
            // practice; partial Fisher–Yates then sort keeps it simple.
            let n = self.values.len();
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..self.len {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            let mut chosen = idx[..self.len].to_vec();
            chosen.sort_unstable();
            crate::strategy::NoShrink(chosen.iter().map(|&i| self.values[i].clone()).collect())
        }
    }
}

/// Test-runner configuration and plumbing used by the [`proptest!`] macro.
pub mod test_runner {
    use rand::{rngs::StdRng, SeedableRng};

    /// Configuration for a `proptest!` block. Only `cases` is honoured by
    /// this shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A default configuration overriding the number of cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was vetoed by `prop_assume!` and should not be counted.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// Constructs a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Constructs a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Stable 64-bit FNV-1a, used to derive a per-test seed from its name so
    /// failures reproduce deterministically across runs.
    fn fnv1a(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Property evaluations one failure's shrinking may spend, passing
    /// candidates included — a deterministic budget, far above what the
    /// halving strategies need on the shim's own strategies.
    pub const MAX_SHRINK_EVALUATIONS: usize = 1024;

    /// A failing property case after shrinking.
    #[derive(Clone, Debug)]
    pub struct Failure {
        /// Seed of the originally failing case (re-seed [`StdRng`] with it
        /// to regenerate the raw value).
        pub seed: u64,
        /// 0-based index of the failing case within the run.
        pub case: u32,
        /// Number of successful shrink steps applied to the raw value.
        pub shrink_steps: usize,
        /// Property evaluations shrinking spent, at most
        /// [`MAX_SHRINK_EVALUATIONS`]; at the budget, `message` is the
        /// smallest failure found so far rather than a local minimum.
        pub shrink_evaluations: usize,
        /// The assertion message of the raw (as-generated) failing value.
        pub raw_message: String,
        /// The assertion message of the minimal (shrunk) failing value —
        /// equal to `raw_message` when nothing shrank.
        pub message: String,
    }

    /// Drives one property test and returns the shrunk failure instead of
    /// panicking — the testable core of [`run`], also used by the shim's
    /// own shrinking self-tests.
    pub fn run_collect<S: crate::strategy::Strategy>(
        config: &ProptestConfig,
        test_name: &str,
        strategy: &S,
        case: &mut impl FnMut(S::Value) -> Result<(), TestCaseError>,
    ) -> Result<(), Failure> {
        use crate::strategy::ValueTree;
        let base = fnv1a(test_name);
        let mut passed: u32 = 0;
        let mut rejected: u64 = 0;
        let max_rejects = (config.cases as u64) * 16 + 256;
        let mut attempt: u64 = 0;
        while passed < config.cases {
            let seed = base.wrapping_add(attempt);
            let mut rng = StdRng::seed_from_u64(seed);
            attempt += 1;
            let tree = strategy.new_tree(&mut rng);
            match case(tree.current()) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= max_rejects,
                        "proptest '{test_name}': too many prop_assume! rejections \
                         ({rejected} rejects for {passed} passes)"
                    );
                }
                Err(TestCaseError::Fail(raw_message)) => {
                    let (message, shrink_steps, shrink_evaluations) =
                        shrink_failure(tree, raw_message.clone(), case);
                    return Err(Failure {
                        seed,
                        case: passed,
                        shrink_steps,
                        shrink_evaluations,
                        raw_message,
                        message,
                    });
                }
            }
        }
        Ok(())
    }

    /// Greedy shrinking over [`crate::strategy::ValueTree`]s: repeatedly
    /// replace the failing tree by the first simpler candidate whose value
    /// still fails, until no candidate fails (a local minimum) or
    /// [`MAX_SHRINK_EVALUATIONS`] evaluations are spent. `prop_assume!`
    /// rejections and passing candidates are skipped, but count. Returns
    /// the smallest failure's message, the steps taken and the
    /// evaluations spent.
    fn shrink_failure<T: crate::strategy::ValueTree>(
        mut current: T,
        mut message: String,
        case: &mut impl FnMut(T::Value) -> Result<(), TestCaseError>,
    ) -> (String, usize, usize) {
        let (mut steps, mut evaluations) = (0usize, 0usize);
        loop {
            let mut failing = None;
            let mut candidates = current.shrink();
            while evaluations < MAX_SHRINK_EVALUATIONS {
                let Some(candidate) = candidates.next() else {
                    break;
                };
                evaluations += 1;
                if let Err(TestCaseError::Fail(msg)) = case(candidate.current()) {
                    failing = Some((candidate, msg));
                    break;
                }
            }
            drop(candidates);
            // No simpler candidate fails (a minimum), or the budget is spent.
            let Some((candidate, msg)) = failing else {
                break;
            };
            current = candidate;
            message = msg;
            steps += 1;
        }
        (message, steps, evaluations)
    }

    /// Drives one property test: runs `config.cases` cases (with a bounded
    /// retry budget for `prop_assume!` rejections), shrinks the first
    /// failing case to a minimal counterexample, and panics with both the
    /// minimal and the raw assertion messages.
    pub fn run<S: crate::strategy::Strategy>(
        config: &ProptestConfig,
        test_name: &str,
        strategy: &S,
        mut case: impl FnMut(S::Value) -> Result<(), TestCaseError>,
    ) {
        if let Err(f) = run_collect(config, test_name, strategy, &mut case) {
            if f.shrink_steps == 0 {
                panic!(
                    "proptest '{test_name}' failed at case #{case} (seed {seed:#x}): {msg}",
                    case = f.case,
                    seed = f.seed,
                    msg = f.message
                );
            }
            let budget = if f.shrink_evaluations == MAX_SHRINK_EVALUATIONS {
                " (shrink budget spent: smallest failure so far)"
            } else {
                ""
            };
            panic!(
                "proptest '{test_name}' failed at case #{case} (seed {seed:#x}), \
                 shrunk {steps} steps{budget}: {msg}\n(raw case: {raw})",
                case = f.case,
                seed = f.seed,
                steps = f.shrink_steps,
                msg = f.message,
                raw = f.raw_message
            );
        }
    }
}

/// Everything a property test normally imports.
pub mod prelude {
    pub use crate::strategy::{Strategy, ValueTree};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fails the current case unless `cond` holds.
///
/// Expands to an early `return Err(..)` inside the case closure generated by
/// [`proptest!`]; an optional trailing format string customises the message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right` ({})\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `left != right`\n  both: `{:?}`",
            l
        );
    }};
}

/// Rejects the current case (it is regenerated, not counted) unless `cond`
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, as in real
/// proptest) running many random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            // The arguments' strategies combine into one tuple strategy, so
            // the runner can regenerate *and shrink* whole argument sets.
            let __strategy = ($($strat,)+);
            $crate::test_runner::run(&__config, stringify!($name), &__strategy, |__value| {
                let ($($arg,)+) = __value;
                $body
                ::core::result::Result::Ok(())
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((x, y) in (0.0f64..1.0, 0u32..10), n in 1usize..5) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!(y < 10);
            prop_assert!((1..5).contains(&n));
        }

        #[test]
        fn vec_and_map(v in crate::collection::vec(0.0f64..=1.0, 2..6).prop_map(|v| v.len())) {
            prop_assert!((2..6).contains(&v));
        }

        #[test]
        fn subsequence_shuffle(s in crate::sample::subsequence((0u32..30).collect::<Vec<_>>(), 6).prop_shuffle()) {
            prop_assert_eq!(s.len(), 6);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), 6, "duplicates in subsequence {:?}", s);
        }

        #[test]
        fn assume_rejects(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic() {
        crate::test_runner::run(
            &ProptestConfig::with_cases(8),
            "always_fails",
            &crate::strategy::Just(0u32),
            |_| Err::<(), _>(TestCaseError::fail("nope")),
        );
    }

    // -----------------------------------------------------------------
    // Shrinking self-tests: deliberately failing seeded properties must
    // report strictly smaller counterexamples than the raw generated case.
    // -----------------------------------------------------------------

    fn collect_failure<S: Strategy>(
        name: &str,
        strategy: &S,
        mut case: impl FnMut(S::Value) -> Result<(), TestCaseError>,
    ) -> crate::test_runner::Failure
    where
        S::Value: Clone,
    {
        crate::test_runner::run_collect(&ProptestConfig::with_cases(64), name, strategy, &mut case)
            .expect_err("property is deliberately failing")
    }

    #[test]
    fn integer_failure_shrinks_to_exact_minimum() {
        // Fails iff n ≥ 1000; the raw case is a random value ≫ 1000, and
        // binary descent plus the predecessor candidate must land on the
        // *exact* smallest failing value.
        let strategy = (0u64..1_000_000,);
        let f = collect_failure("int_shrink", &strategy, |(n,)| {
            if n >= 1000 {
                Err(TestCaseError::fail(format!("n = {n}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "n = 1000", "raw case: {}", f.raw_message);
        assert!(f.shrink_steps > 0, "the raw case must actually shrink");
        assert_ne!(f.raw_message, f.message);
    }

    #[test]
    fn integer_shrinking_converges_logarithmically_to_distant_boundaries() {
        // The failure boundary sits ~half a million above the range start;
        // the power-of-two descent must still land on the exact minimum in
        // a logarithmic number of steps (a linear −1 walk would blow the
        // 1024-step backstop and report a barely-shrunk case).
        let strategy = (0u64..1_000_000,);
        let f = collect_failure("int_shrink_far", &strategy, |(n,)| {
            if n >= 500_000 {
                Err(TestCaseError::fail(format!("n = {n}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "n = 500000", "raw case: {}", f.raw_message);
        assert!(
            f.shrink_steps <= 64,
            "expected logarithmic convergence, took {} steps",
            f.shrink_steps
        );
    }

    #[test]
    fn vec_failure_shrinks_to_minimal_length() {
        let strategy = (crate::collection::vec(0u32..100, 0..30),);
        let f = collect_failure("vec_len_shrink", &strategy, |(v,)| {
            if v.len() >= 3 {
                Err(TestCaseError::fail(format!("len = {}", v.len())))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "len = 3", "raw case: {}", f.raw_message);
        assert!(f.shrink_steps > 0);
    }

    #[test]
    fn vec_elements_shrink_too() {
        // Fails iff any element ≥ 50: the minimal counterexample is the
        // one-element vector [50] — length shrinking *and* element
        // shrinking must both engage.
        let strategy = (crate::collection::vec(0u32..1000, 1..20),);
        let f = collect_failure("vec_elem_shrink", &strategy, |(v,)| {
            if v.iter().any(|&x| x >= 50) {
                Err(TestCaseError::fail(format!("{v:?}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "[50]", "raw case: {}", f.raw_message);
    }

    #[test]
    fn f64_failure_shrinks_towards_boundary() {
        // Fails iff x ≥ 0.5: the fraction-ladder bisection must close in
        // on the boundary (within a few percent), strictly below raw.
        let strategy = (0.0f64..1.0,);
        let f = collect_failure("f64_shrink", &strategy, |(x,)| {
            if x >= 0.5 {
                Err(TestCaseError::fail(format!("{x}")))
            } else {
                Ok(())
            }
        });
        let shrunk: f64 = f.message.parse().unwrap();
        let raw: f64 = f.raw_message.parse().unwrap();
        assert!((0.5..0.52).contains(&shrunk), "shrunk to {shrunk}");
        assert!(shrunk <= raw);
    }

    #[test]
    fn tuple_components_shrink_independently() {
        // Fails iff a + b ≥ 10 — both components must descend; the greedy
        // minimum pins one component at its range floor.
        let strategy = (0u32..100, 0u32..100);
        let f = collect_failure("tuple_shrink", &strategy, |(a, b)| {
            if a + b >= 10 {
                Err(TestCaseError::fail(format!("{a}+{b}")))
            } else {
                Ok(())
            }
        });
        let (a, b) = f.message.split_once('+').unwrap();
        let (a, b): (u32, u32) = (a.parse().unwrap(), b.parse().unwrap());
        assert_eq!(a + b, 10, "minimal failing sum; raw: {}", f.raw_message);
    }

    #[test]
    fn mapped_strategies_shrink_through_the_mapping() {
        // The mapping doubles the raw integer; shrinking must descend the
        // *pre-map* value and re-apply the map, landing on the exact
        // smallest failing output (2n ≥ 1000 ⇔ n ≥ 500 ⇒ minimal v = 1000)
        // — the old eager design reported the raw case unshrunk here.
        let strategy = ((0u64..1_000_000).prop_map(|n| n * 2),);
        let f = collect_failure("map_shrink", &strategy, |(v,)| {
            if v >= 1000 {
                Err(TestCaseError::fail(format!("v = {v}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "v = 1000", "raw case: {}", f.raw_message);
        assert!(f.shrink_steps > 0, "the mapped case must actually shrink");
    }

    #[test]
    fn mapped_collections_shrink_structurally_and_elementwise() {
        // A vec collapsed to its sum by prop_map: the tree must shrink the
        // underlying vector (length and elements) until the sum sits
        // exactly on the failure boundary.
        let strategy =
            (crate::collection::vec(0u32..1000, 1..20).prop_map(|v| v.iter().sum::<u32>()),);
        let f = collect_failure("map_vec_shrink", &strategy, |(sum,)| {
            if sum >= 50 {
                Err(TestCaseError::fail(format!("sum = {sum}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(f.message, "sum = 50", "raw case: {}", f.raw_message);
    }

    #[test]
    fn chained_maps_shrink_through_both_layers() {
        let strategy = ((0u64..1_000_000).prop_map(|n| n + 3).prop_map(|n| n * 10),);
        let f = collect_failure("map_chain_shrink", &strategy, |(v,)| {
            if v >= 1000 {
                Err(TestCaseError::fail(format!("{v}")))
            } else {
                Ok(())
            }
        });
        // 10·(n+3) ≥ 1000 ⇔ n ≥ 97 ⇒ minimal output 1000.
        assert_eq!(f.message, "1000", "raw case: {}", f.raw_message);
    }

    /// A countdown whose every shrink step offers many passing decoys
    /// before the one simpler failing value: `(n, decoy)`. Its clones are
    /// counted in [`CLONES`].
    struct Countdown(u64, bool);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Countdown {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Countdown(self.0, self.1)
        }
    }

    impl ValueTree for Countdown {
        type Value = (u64, bool);
        fn current(&self) -> (u64, bool) {
            (self.0, self.1)
        }
        fn shrink(&self) -> crate::strategy::Shrinks<'_, Self> {
            let next = self.0.saturating_sub(1);
            let decoys = (0..15).map(move |_| Countdown(next, true));
            Box::new(decoys.chain((self.0 > 0).then_some(Countdown(next, false))))
        }
    }

    struct CountdownFrom(u64);

    impl Strategy for CountdownFrom {
        type Value = (u64, bool);
        type Tree = Countdown;
        fn new_tree(&self, _: &mut rand::rngs::StdRng) -> Countdown {
            Countdown(self.0, false)
        }
    }

    #[test]
    fn shrinking_stops_at_its_evaluation_budget() {
        // Every non-decoy value fails, and each shrink step passes 15
        // decoys before it finds the next one: the local minimum lies
        // 1.6 million evaluations away. Shrinking must stop at the budget,
        // every evaluation counted, with the smallest failure so far.
        use crate::test_runner::MAX_SHRINK_EVALUATIONS;
        let mut evaluations = 0usize;
        let f = collect_failure("shrink_budget", &CountdownFrom(100_000), |(n, decoy)| {
            evaluations += 1;
            if decoy {
                Ok(())
            } else {
                Err(TestCaseError::fail(format!("n = {n}")))
            }
        });
        assert_eq!(evaluations, 1 + MAX_SHRINK_EVALUATIONS);
        assert_eq!(f.shrink_evaluations, MAX_SHRINK_EVALUATIONS);
        assert_eq!(f.shrink_steps, MAX_SHRINK_EVALUATIONS / 16);
        assert_eq!(f.message, format!("n = {}", 100_000 - f.shrink_steps));
        assert_eq!(f.raw_message, "n = 100000");

        // The same countdown in each of 500 elements, shrunk element-wise:
        // every candidate is a clone of the whole vector, and only the
        // candidates the budget evaluates are built.
        CLONES.with(|c| c.set(0));
        let mut evaluations = 0usize;
        let strategy = crate::collection::vec(CountdownFrom(100_000), 500);
        let f = collect_failure("shrink_budget_vec", &strategy, |v| {
            evaluations += 1;
            if v.iter().any(|&(_, decoy)| decoy) {
                Ok(())
            } else {
                Err(TestCaseError::fail(format!("head = {}", v[0].0)))
            }
        });
        assert_eq!(evaluations, 1 + MAX_SHRINK_EVALUATIONS);
        assert_eq!(f.shrink_steps, MAX_SHRINK_EVALUATIONS / 16);
        assert_eq!(f.message, format!("head = {}", 100_000 - f.shrink_steps));
        let built = CLONES.with(|c| c.get());
        assert_eq!(
            built,
            500 * MAX_SHRINK_EVALUATIONS,
            "one vector clone per candidate"
        );
    }

    #[test]
    fn passing_properties_do_not_shrink() {
        crate::test_runner::run_collect(
            &ProptestConfig::with_cases(16),
            "all_pass",
            &(0u32..10,),
            &mut |_| Ok(()),
        )
        .expect("no failure");
    }
}
