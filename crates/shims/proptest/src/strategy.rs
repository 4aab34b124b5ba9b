//! The [`Strategy`] trait, its combinators, and [`ValueTree`]-based
//! shrinking.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A generated value plus everything needed to simplify it: the shrinking
/// state lives in the tree (range minima, per-element subtrees, the mapping
/// closure), so combinators like [`Strategy::prop_map`] shrink by shrinking
/// their *inner* tree and re-deriving the output — no inverse of the
/// mapping required.
pub trait ValueTree: Clone {
    /// The type of the value this tree represents.
    type Value;

    /// The value the tree currently represents.
    fn current(&self) -> Self::Value;

    /// Proposes strictly simpler candidate trees, simplest first, built
    /// one at a time as the runner pulls them, so its evaluation budget
    /// also bounds how many are built. An empty iterator means the value is
    /// fully shrunk (the default, for values that cannot be simplified).
    fn shrink(&self) -> Shrinks<'_, Self> {
        Box::new(std::iter::empty())
    }
}

/// The lazy candidate stream of [`ValueTree::shrink`].
pub type Shrinks<'a, T> = Box<dyn Iterator<Item = T> + 'a>;

/// A recipe for generating random values of an output type.
///
/// A strategy deterministically produces a [`ValueTree`] from an
/// [`StdRng`] state, and the test runner
/// greedily re-runs the tree's shrink candidates, keeping the first one
/// that still fails, so reported counterexamples are (locally) minimal.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// The tree type carrying a generated value and its shrink state.
    type Tree: ValueTree<Value = Self::Value>;

    /// Generates one value together with its shrink state.
    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree;

    /// Generates one bare value (no shrink state) — convenience for code
    /// that never shrinks.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        self.new_tree(rng).current()
    }

    /// Maps generated values through `f`. Mapped strategies shrink by
    /// shrinking the *inner* value and re-applying `f` ([`MapTree`]), so
    /// counterexamples stay minimal through arbitrary constructions.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Uniformly permutes generated collections (Fisher–Yates).
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: Shuffleable,
    {
        Shuffle { inner: self }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    type Tree = MapTree<S::Tree, F>;

    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
        MapTree {
            inner: self.inner.new_tree(rng),
            f: Rc::clone(&self.f),
        }
    }
}

/// The tree of a mapped strategy: the inner tree plus the (shared) mapping.
/// Shrinking shrinks the inner tree and re-derives the output — the fix for
/// the old eager design, where mapped counterexamples were reported raw.
#[derive(Debug)]
pub struct MapTree<T, F> {
    inner: T,
    f: Rc<F>,
}

impl<T: Clone, F> Clone for MapTree<T, F> {
    fn clone(&self) -> Self {
        MapTree {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<T, O, F> ValueTree for MapTree<T, F>
where
    T: ValueTree,
    F: Fn(T::Value) -> O,
{
    type Value = O;

    fn current(&self) -> O {
        (self.f)(self.inner.current())
    }

    fn shrink(&self) -> Shrinks<'_, Self> {
        Box::new(self.inner.shrink().map(|t| MapTree {
            inner: t,
            f: Rc::clone(&self.f),
        }))
    }
}

/// A collection whose elements can be permuted in place.
pub trait Shuffleable {
    /// Permutes `self` uniformly at random.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

/// See [`Strategy::prop_shuffle`].
#[derive(Clone, Debug)]
pub struct Shuffle<S> {
    inner: S,
}

impl<S> Strategy for Shuffle<S>
where
    S: Strategy,
    S::Value: Shuffleable,
{
    type Value = S::Value;
    type Tree = ShuffleTree<S::Tree>;

    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
        ShuffleTree {
            inner: self.inner.new_tree(rng),
            seed: rng.gen(),
        }
    }
}

/// The tree of a shuffled strategy: the inner tree plus the permutation's
/// seed, so the same permutation replays on every [`ValueTree::current`].
/// Shrink candidates keep the seed; if the inner shrink changes the
/// collection's *length* the replayed permutation differs — acceptable, as
/// order is re-randomised rather than corrupted, and the candidate only
/// survives if it still fails.
#[derive(Clone, Debug)]
pub struct ShuffleTree<T> {
    inner: T,
    seed: u64,
}

impl<T> ValueTree for ShuffleTree<T>
where
    T: ValueTree,
    T::Value: Shuffleable,
{
    type Value = T::Value;

    fn current(&self) -> T::Value {
        let mut v = self.inner.current();
        v.shuffle(&mut StdRng::seed_from_u64(self.seed));
        v
    }

    fn shrink(&self) -> Shrinks<'_, Self> {
        Box::new(self.inner.shrink().map(|t| ShuffleTree {
            inner: t,
            seed: self.seed,
        }))
    }
}

/// A strategy that always yields clones of one value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    type Tree = NoShrink<T>;

    fn new_tree(&self, _rng: &mut StdRng) -> NoShrink<T> {
        NoShrink(self.0.clone())
    }
}

/// A tree holding a value with no shrink state ([`Just`], fixed samples).
#[derive(Clone, Debug)]
pub struct NoShrink<T>(pub(crate) T);

impl<T: Clone> ValueTree for NoShrink<T> {
    type Value = T;

    fn current(&self) -> T {
        self.0.clone()
    }
}

/// The tree of a numeric range strategy: the range minimum (the shrink
/// target) plus the current value.
#[derive(Clone, Copy, Debug)]
pub struct NumTree<T> {
    lo: T,
    current: T,
}

impl ValueTree for NumTree<f64> {
    type Value = f64;

    fn current(&self) -> f64 {
        self.current
    }

    /// Candidates for a failing `f64`: the range minimum, then a ladder of
    /// fractions of the distance to it (1/2, 3/4, 7/8, 15/16, 31/32). The
    /// greedy runner keeps the first candidate that still fails, so
    /// repeated shrinking bisects towards the failure boundary.
    fn shrink(&self) -> Shrinks<'_, Self> {
        let (lo, value) = (self.lo, self.current);
        // NaN (incomparable) and values at/below the minimum never shrink.
        if value.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Box::new(std::iter::empty());
        }
        let mut out = vec![NumTree { lo, current: lo }];
        for frac in [0.5, 0.75, 0.875, 0.9375, 0.96875] {
            let cand = lo + (value - lo) * frac;
            if cand > lo && cand < value {
                out.push(NumTree { lo, current: cand });
            }
        }
        Box::new(out.into_iter())
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    type Tree = NumTree<f64>;

    fn new_tree(&self, rng: &mut StdRng) -> NumTree<f64> {
        NumTree {
            lo: self.start,
            current: rng.gen_range(self.clone()),
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    type Tree = NumTree<f64>;

    fn new_tree(&self, rng: &mut StdRng) -> NumTree<f64> {
        NumTree {
            lo: *self.start(),
            current: rng.gen_range(self.clone()),
        }
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl ValueTree for NumTree<$t> {
            type Value = $t;

            fn current(&self) -> $t {
                self.current
            }

            fn shrink(&self) -> Shrinks<'_, Self> {
                let (lo, value) = (self.lo, self.current);
                let mut out: Vec<Self> = Vec::new();
                if value > lo {
                    // Simplest first: the minimum, then `value − 2^k` for
                    // descending k (ascending candidate values). The greedy
                    // runner keeps the smallest candidate that still fails,
                    // so the distance to the true failure boundary at least
                    // halves per step — logarithmic convergence onto the
                    // exact smallest failing value (the 2⁰ = 1 offset does
                    // the final step), from any distance.
                    out.push(NumTree { lo, current: lo });
                    let mut offsets: Vec<$t> = Vec::new();
                    let mut step: $t = 1;
                    loop {
                        match value.checked_sub(step) {
                            Some(c) if c > lo => offsets.push(c),
                            _ => break,
                        }
                        match step.checked_mul(2) {
                            Some(s) => step = s,
                            None => break,
                        }
                    }
                    out.extend(
                        offsets
                            .into_iter()
                            .rev()
                            .map(|current| NumTree { lo, current }),
                    );
                }
                Box::new(out.into_iter())
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;
            type Tree = NumTree<$t>;

            fn new_tree(&self, rng: &mut StdRng) -> NumTree<$t> {
                NumTree {
                    lo: self.start,
                    current: rng.gen_range(self.clone()),
                }
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            type Tree = NumTree<$t>;

            fn new_tree(&self, rng: &mut StdRng) -> NumTree<$t> {
                NumTree {
                    lo: *self.start(),
                    current: rng.gen_range(self.clone()),
                }
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_tuple {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            type Tree = ($($s::Tree,)+);

            fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
                ($(self.$idx.new_tree(rng),)+)
            }
        }

        impl<$($s: ValueTree),+> ValueTree for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn current(&self) -> Self::Value {
                ($(self.$idx.current(),)+)
            }

            fn shrink(&self) -> Shrinks<'_, Self> {
                // Shrink one component at a time, the others held fixed.
                let out = std::iter::empty();
                $(
                    let out = out.chain(self.$idx.shrink().map(move |cand| {
                        let mut next = self.clone();
                        next.$idx = cand;
                        next
                    }));
                )+
                Box::new(out)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}
