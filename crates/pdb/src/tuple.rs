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

/// Indices of the `k` largest `keys`, best first: key descending, ties by
/// index ascending (a total order, so the result is deterministic). `k ≥
/// len` sorts everything; smaller `k` selects the best `k` with
/// `select_nth_unstable` and sorts only those, giving exactly the full
/// sort's prefix.
///
/// This is the workspace's one `f64` sort: every score order and every
/// ranking is built here, as an unstable sort of [`packed_desc`] keys.
/// Already-sorted input (score-sorted shards) costs one linear pass.
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
    #[should_panic(expected = "scores must not be NaN")]
    fn nan_keys_panic_with_the_given_message() {
        top_k_desc(&[1.0, f64::NAN], 2, "scores must not be NaN");
    }
}
