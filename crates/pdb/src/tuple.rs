//! Tuples: the unit of ranking.
//!
//! Each tuple carries a *score* (computed by an arbitrary scoring function
//! over its attributes — higher is better) and, in the tuple-independent
//! model, an *existence probability*. Under correlation models the marginal
//! probability is derived from the model instead.

use crate::PdbError;

/// Identifier of a tuple within one probabilistic relation.
///
/// Tuple ids are dense indices `0..n` assigned at construction time, which
/// lets the ranking algorithms use plain vectors as tuple-indexed maps.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A scored tuple with a marginal existence probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuple {
    /// Identity within the relation.
    pub id: TupleId,
    /// Ranking score; higher scores should rank higher in each world.
    pub score: f64,
    /// Marginal existence probability in `[0, 1]`.
    pub prob: f64,
}

impl Tuple {
    /// Creates a tuple after validating its score and probability.
    pub fn new(id: TupleId, score: f64, prob: f64) -> Result<Self, PdbError> {
        if score.is_nan() {
            return Err(PdbError::InvalidScore {
                context: format!("tuple {id}"),
            });
        }
        crate::check_probability(prob, || format!("tuple {id}"))?;
        Ok(Tuple { id, score, prob })
    }
}

/// The canonical ranking order as one `u128`: `key` descending in the high
/// word, `index` ascending in the low word, so ascending integer order is
/// "best first, ties by index".
///
/// The high word maps `key` order-reversingly onto `u64`: `-0.0` is
/// folded onto `0.0` first (the two compare equal, so they must tie by
/// index), then the sign-magnitude bits are remapped so that unsigned
/// order is float order, and complemented. `±∞` and subnormals keep their
/// place in the float order; NaN has none (callers reject it).
#[inline]
pub fn packed_desc(key: f64, index: usize) -> u128 {
    let bits = if key == 0.0 { 0 } else { key.to_bits() };
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(!ascending) << 64) | index as u128
}

/// The key [`packed_desc`] packed into `packed`'s high word, and the index
/// in its low word. Exact for every key but `-0.0`, which the packing folds
/// onto `0.0`.
#[inline]
pub fn unpack_desc(packed: u128) -> (f64, usize) {
    let ascending = !((packed >> 64) as u64);
    let bits = if ascending >> 63 == 1 {
        ascending & !(1 << 63)
    } else {
        !ascending
    };
    (f64::from_bits(bits), packed as u64 as usize)
}

/// How far one element may move in the bounded insertion of
/// [`push_sorted`] and [`sort_tail_within`].
const INSERTION_WINDOW: usize = 64;

/// Appends `packed` to `sorted`, an ascending stream being built, and
/// sorts each block of [`SORT_BLOCK`] entries into the rest by bounded
/// insertion as it fills, while it is still in cache. `false` once a key
/// would move further than the insertion window (`sorted` is then left in
/// some order). A walk that visits tuples in score order builds its sorted
/// ranking keys this way while they stay close to that order, and ends
/// with [`sort_tail_within`] over the last, partial block.
#[inline]
pub fn push_sorted(sorted: &mut Vec<u128>, packed: u128) -> bool {
    sorted.push(packed);
    let len = sorted.len();
    len % SORT_BLOCK != 0 || sort_tail_within(sorted, len - SORT_BLOCK)
}

/// How many entries [`push_sorted`] appends between two insertion passes.
pub const SORT_BLOCK: usize = 4096;

/// Sorts `v[from..]` into the ascending `v[..from]` by insertion: `true`
/// when no element moved further than a fixed window and `v` is sorted,
/// `false` (with `v` left in some order) as soon as one would.
pub fn sort_tail_within(v: &mut [u128], from: usize) -> bool {
    (from.max(1)..v.len()).all(|i| sift_within(v, i))
}

/// Moves `v[i]` down into the sorted `v[..i]`; gives up (leaving `v`
/// unchanged) when it would move more than the insertion window. `true`
/// when `v[..=i]` is sorted.
#[inline]
fn sift_within(v: &mut [u128], i: usize) -> bool {
    let x = v[i];
    if i == 0 || v[i - 1] <= x {
        return true;
    }
    // More than the window's worth of larger keys precede `x`.
    let floor = i.saturating_sub(INSERTION_WINDOW);
    if floor > 0 && v[floor - 1] > x {
        return false;
    }
    let window = &mut v[floor..=i];
    let mut j = window.len() - 1;
    while j > 0 && window[j - 1] > x {
        window[j] = window[j - 1];
        j -= 1;
    }
    window[j] = x;
    true
}

/// Indices of the `k` largest `keys`, best first: key descending, ties by
/// index ascending (a total order, so the result is deterministic). `k ≥
/// len` sorts everything; smaller `k` selects the best `k` with
/// `select_nth_unstable` and sorts only those, giving exactly the full
/// sort's prefix.
///
/// This is the workspace's one `f64` sort: every score order and every
/// ranking is built here, as an unstable sort of [`packed_desc`] keys, or
/// by the bounded insertion of this module.
/// Already-sorted input (score-sorted shards) costs one linear pass;
/// nearly sorted input does not, so a walk's ranking keys, nearly sorted
/// in the score order it visits, are sorted as they come instead
/// ([`push_sorted`]).
///
/// # Panics
/// Panics with `nan_message` when a key is NaN.
pub fn top_k_desc(keys: &[f64], k: usize, nan_message: &str) -> Vec<usize> {
    top_k_desc_of(keys.iter().copied().enumerate(), k).expect(nan_message)
}

/// [`top_k_desc`] over explicit `(index, key)` entries — a subset of the
/// indices, in any order — with the same `(key, index)` order, or `None`
/// when a key is NaN. Ranking a walk's visited score-order prefix (and
/// every query answer) uses it, so a computed NaN becomes an error rather
/// than a panic.
pub fn top_k_desc_of(
    entries: impl IntoIterator<Item = (usize, f64)>,
    k: usize,
) -> Option<Vec<usize>> {
    let mut nan = false;
    let mut packed: Vec<u128> = entries
        .into_iter()
        .map(|(i, key)| {
            nan |= key.is_nan();
            packed_desc(key, i)
        })
        .collect();
    if nan {
        return None;
    }
    if k < packed.len() {
        if k > 0 {
            packed.select_nth_unstable(k - 1);
        }
        packed.truncate(k);
    }
    packed.sort_unstable();
    Some(packed.into_iter().map(|p| p as u64 as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_validation() {
        assert!(Tuple::new(TupleId(0), 1.0, 0.5).is_ok());
        assert!(Tuple::new(TupleId(0), f64::NAN, 0.5).is_err());
        assert!(Tuple::new(TupleId(0), 1.0, -0.1).is_err());
        assert!(Tuple::new(TupleId(0), 1.0, 1.1).is_err());
        assert!(Tuple::new(TupleId(0), 1.0, f64::NAN).is_err());
        assert!(Tuple::new(TupleId(0), 1.0, 0.0).is_ok());
        assert!(Tuple::new(TupleId(0), 1.0, 1.0).is_ok());
    }

    #[test]
    fn sorting_is_deterministic_under_ties() {
        let scores = [5.0, 9.0, 5.0, 1.0];
        assert_eq!(top_k_desc(&scores, 4, "no NaN"), vec![1, 0, 2, 3]);
        assert_eq!(top_k_desc(&scores, 2, "no NaN"), vec![1, 0]);
        assert!(top_k_desc(&scores, 0, "no NaN").is_empty());
        // A subset keeps the index tie-break, whatever its entry order.
        let subset = [2, 0, 3].map(|i| (i, scores[i]));
        assert_eq!(top_k_desc_of(subset, 2), Some(vec![0, 2]));
        assert_eq!(top_k_desc_of([(0, 1.0), (1, f64::NAN)], 1), None);
    }

    #[test]
    fn packed_keys_follow_the_float_order() {
        let ascending = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(packed_desc(w[1], 0) < packed_desc(w[0], 0), "{w:?}");
        }
        // Signed zeros compare equal, so they tie by index.
        assert_eq!(packed_desc(-0.0, 3), packed_desc(0.0, 3));
        assert!(packed_desc(-0.0, 1) < packed_desc(0.0, 2));
    }

    #[test]
    fn insertion_moves_at_most_the_window() {
        // One key `d` places behind its sorted position.
        let displaced = |d: usize| {
            let mut v: Vec<u128> = (0..200).collect();
            v[100..=100 + d].rotate_left(1);
            v
        };
        for d in [INSERTION_WINDOW - 1, INSERTION_WINDOW] {
            let mut v = displaced(d);
            assert!(sort_tail_within(&mut v, 1), "displacement {d}");
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
        let mut v = displaced(INSERTION_WINDOW + 1);
        assert!(!sort_tail_within(&mut v, 1));
        // A stream keeps its blocks sorted and stops at the first far key.
        let mut stream = Vec::new();
        assert!((0..SORT_BLOCK as u128).all(|p| push_sorted(&mut stream, p ^ 1)));
        assert_eq!(stream, (0..SORT_BLOCK as u128).collect::<Vec<_>>());
        let mut stream = Vec::new();
        let last = SORT_BLOCK as u128 - 1;
        let far = (0..=last).map(|p| if p == last { 0 } else { p + 1 });
        assert!(!far.into_iter().all(|p| push_sorted(&mut stream, p)));
    }

    #[test]
    fn unpacking_inverts_the_packing() {
        let keys = [
            f64::NEG_INFINITY,
            -2.5,
            -5e-324,
            0.0,
            5e-324,
            1.0,
            f64::INFINITY,
        ];
        for (i, &k) in keys.iter().enumerate() {
            let (key, index) = unpack_desc(packed_desc(k, i));
            assert_eq!((key.to_bits(), index), (k.to_bits(), i));
        }
        // `-0.0` comes back as `0.0`; NaN stays NaN.
        assert_eq!(unpack_desc(packed_desc(-0.0, 3)).0.to_bits(), 0);
        assert!(unpack_desc(packed_desc(f64::NAN, 0)).0.is_nan());
    }

    #[test]
    #[should_panic(expected = "scores must not be NaN")]
    fn nan_keys_panic_with_the_given_message() {
        top_k_desc(&[1.0, f64::NAN], 2, "scores must not be NaN");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: a comparator sort on `(key desc, index asc)`, `None`
    /// when a key is NaN.
    fn comparator_top_k(entries: &[(usize, f64)], k: usize) -> Option<Vec<usize>> {
        if entries.iter().any(|(_, key)| key.is_nan()) {
            return None;
        }
        let mut sorted = entries.to_vec();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        Some(sorted.into_iter().take(k).map(|(i, _)| i).collect())
    }

    /// `n` entries of one input shape, from a seeded generator: keys in
    /// score order with indices shuffled in, so every shape also exercises
    /// ties broken by index.
    fn entries(shape: u32, n: usize, seed: u64) -> Vec<(usize, f64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0];
        let mut keys: Vec<f64> = match shape {
            // Sorted best first, reversed, random.
            0 => (0..n).map(|i| (n - i) as f64).collect(),
            1 => (0..n).map(|i| i as f64).collect(),
            2 => (0..n).map(|_| (next() % 1000) as f64 / 7.0).collect(),
            // Sorted, then one key displaced below, at or one past the
            // insertion window.
            3..=5 => {
                let mut keys: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
                let d = INSERTION_WINDOW - 4 + shape as usize;
                if n > d {
                    let at = (next() as usize) % (n - d);
                    keys[at..=at + d].rotate_left(1);
                }
                keys
            }
            // Few distinct keys: ties everywhere.
            6 => (0..n).map(|_| (next() % 3) as f64).collect(),
            // Signed zeros and infinities, sometimes a NaN.
            _ => {
                let mut keys: Vec<f64> = (0..n)
                    .map(|_| specials[(next() % specials.len() as u64) as usize])
                    .collect();
                if n > 0 && next() % 3 == 0 {
                    keys[(next() as usize) % n] = f64::NAN;
                }
                keys
            }
        };
        // Indices out of order: each key gets a shuffled index.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, (next() as usize) % (i + 1));
        }
        keys.truncate(n);
        ids.into_iter().zip(keys).collect()
    }

    proptest! {
        #[test]
        fn top_k_matches_a_comparator_sort(
            shape in 0u32..8,
            n in 0usize..300,
            seed in 0u64..1_000_000,
            k in 0usize..320,
        ) {
            let entries = entries(shape, n, seed);
            let want = comparator_top_k(&entries, k);
            prop_assert_eq!(top_k_desc_of(entries.iter().copied(), k), want);
        }

        #[test]
        fn a_kept_stream_matches_a_comparator_sort(
            shape in 0u32..7,
            n in 0usize..(3 * SORT_BLOCK),
            seed in 0u64..1_000_000,
        ) {
            let entries = entries(shape, n, seed);
            let mut stream = Vec::new();
            let pushed = entries
                .iter()
                .all(|&(i, key)| push_sorted(&mut stream, packed_desc(key, i)));
            let kept = pushed && sort_tail_within(&mut stream, n - n % SORT_BLOCK);
            // Sorted input, or one key displaced up to the window, is kept;
            // one key displaced past it is not.
            match shape {
                0 | 3 | 4 => prop_assert!(kept),
                5 if n > INSERTION_WINDOW + 1 => prop_assert!(!kept),
                _ => {}
            }
            if kept {
                let ids: Vec<usize> = stream.iter().map(|&p| p as u64 as usize).collect();
                prop_assert_eq!(Some(ids), comparator_top_k(&entries, n));
            }
        }
    }
}
