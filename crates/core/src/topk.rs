//! Turning per-tuple Υ values into ranked answers.
//!
//! Definition 3: a top-k query returns the `k` tuples with the highest `|Υ|`
//! values. When Υ is real and non-negative (every classical special case),
//! `|Υ|` and `ℜ(Υ)` agree; PRFe-mixture approximations produce tiny spurious
//! imaginary parts and are ranked by real part instead ([`ValueOrder`]).

use prf_numeric::Complex;
use prf_pdb::tuple::{top_k_desc_of, unpack_desc};
use prf_pdb::TupleId;

/// How complex Υ values are mapped to the totally ordered ranking key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ValueOrder {
    /// Rank by `|Υ|` (the paper's Definition 3).
    #[default]
    Magnitude,
    /// Rank by `ℜ(Υ)` — appropriate for mixtures of conjugate PRFe terms,
    /// whose imaginary parts cancel up to rounding.
    RealPart,
}

impl ValueOrder {
    /// The ranking key of a Υ value.
    #[inline]
    pub fn key(self, v: Complex) -> f64 {
        match self {
            ValueOrder::Magnitude => v.abs(),
            ValueOrder::RealPart => v.re,
        }
    }
}

/// The panic message of the public constructors that rank NaN keys.
const NAN_KEYS: &str = "ranking keys must not be NaN";

/// A complete ranking of tuples by Υ value.
#[derive(Clone, Debug)]
pub struct Ranking {
    /// Tuple ids ordered best-first.
    order: Vec<TupleId>,
    /// The ranking key of each tuple in [`Ranking::order`]'s order.
    keys: Vec<f64>,
}

impl Ranking {
    /// Ranks tuples by the given Υ values (indexed by tuple id), using
    /// `order`'s key and breaking ties by tuple id for determinism.
    pub fn from_values(values: &[Complex], order: ValueOrder) -> Self {
        let keys_by_id: Vec<f64> = values.iter().map(|&v| order.key(v)).collect();
        Self::from_keys(&keys_by_id)
    }

    /// The top-`k` prefix of [`Ranking::from_values`], without sorting the
    /// other `n − k` tuples — the batch engine's `top_k` pushdown.
    /// Identical (order and keys) to `from_values` followed by
    /// [`Ranking::truncate`]`(k)`.
    ///
    /// # Panics
    /// Panics when a value's key is NaN.
    pub fn from_values_topk(values: &[Complex], order: ValueOrder, k: usize) -> Self {
        Self::select(values.len(), None, k, |i| order.key(values[i])).expect(NAN_KEYS)
    }

    /// Ranks tuples by pre-computed real keys (higher is better).
    pub fn from_keys(keys_by_id: &[f64]) -> Self {
        Self::from_keys_topk(keys_by_id, keys_by_id.len())
    }

    /// The top-`k` prefix of [`Ranking::from_keys`] via partial selection
    /// (`select_nth_unstable` + sorting only the selected prefix) —
    /// identical to the full sort followed by [`Ranking::truncate`]`(k)`
    /// because the order (key descending, ties by tuple id) is total. Both
    /// run [`prf_pdb::tuple::top_k_desc`]'s packed-key sort.
    ///
    /// # Panics
    /// Panics when a key is NaN.
    pub fn from_keys_topk(keys_by_id: &[f64], k: usize) -> Self {
        Self::select(keys_by_id.len(), None, k, |i| keys_by_id[i]).expect(NAN_KEYS)
    }

    /// The top-`k` of an `n`-tuple relation by `key(id)`, considering only
    /// `candidates` when given (every tuple otherwise). With candidates the
    /// result is the full ranking's prefix whenever every other tuple's key
    /// is strictly below the `k`-th best candidate's — the contract of a
    /// walk's visited prefix (see
    /// [`crate::query::ProbabilisticRelation::run_shared_walk`]).
    /// `None` when a considered key is NaN.
    pub(crate) fn select(
        n: usize,
        candidates: Option<&[TupleId]>,
        k: usize,
        key: impl Fn(usize) -> f64,
    ) -> Option<Self> {
        let idx = match candidates {
            Some(ids) => top_k_desc_of(ids.iter().map(|t| (t.index(), key(t.index()))), k),
            None => top_k_desc_of((0..n).map(|i| (i, key(i))), k),
        }?;
        Some(Ranking {
            keys: idx.iter().map(|&i| key(i)).collect(),
            order: idx.into_iter().map(|i| TupleId(i as u32)).collect(),
        })
    }

    /// The top-`k` of `sorted`, ascending
    /// [`prf_pdb::tuple::packed_desc`]`(key(id), id)` entries, unpacked
    /// straight into the ranking — identical to [`Ranking::select`] over
    /// the same tuples. `None` when a key is NaN.
    pub(crate) fn from_stream(
        sorted: &[u128],
        k: usize,
        key: impl Fn(usize) -> f64,
    ) -> Option<Self> {
        let mut order = Vec::with_capacity(k.min(sorted.len()));
        let mut keys = Vec::with_capacity(k.min(sorted.len()));
        for (rank, &p) in sorted.iter().enumerate() {
            let (packed_key, i) = unpack_desc(p);
            // The packing folds `-0.0` onto `0.0`: read a zero's sign back.
            let key = if packed_key == 0.0 {
                key(i)
            } else {
                debug_assert_eq!(
                    packed_key.to_bits(),
                    key(i).to_bits(),
                    "a stream packs the keys it is ranked by"
                );
                packed_key
            };
            if key.is_nan() {
                return None;
            }
            if rank < k {
                order.push(TupleId(i as u32));
                keys.push(key);
            }
        }
        Some(Ranking { order, keys })
    }

    /// Ranks tuples by arbitrary partially ordered keys (higher is better,
    /// ties by tuple id). `display` maps each key to the `f64` reported by
    /// [`Ranking::key_at`] — used with exponent-carrying keys such as
    /// [`prf_numeric::scaled::SignedLogKey`] that cannot be collapsed into a
    /// single `f64` without losing precision. Such keys do not pack into 64
    /// bits, so this constructor keeps a comparator sort.
    pub fn from_keys_by<K: PartialOrd + Copy>(
        keys_by_id: &[K],
        display: impl Fn(K) -> f64,
    ) -> Self {
        Self::from_keys_by_topk(keys_by_id, display, keys_by_id.len())
    }

    /// The top-`k` prefix of [`Ranking::from_keys_by`] via partial
    /// selection (see [`Ranking::from_keys_topk`]).
    pub fn from_keys_by_topk<K: PartialOrd + Copy>(
        keys_by_id: &[K],
        display: impl Fn(K) -> f64,
        k: usize,
    ) -> Self {
        Self::select_by(keys_by_id.len(), None, k, |i| keys_by_id[i], display)
    }

    /// [`Ranking::select`] for partially ordered keys (see
    /// [`Ranking::from_keys_by`]).
    pub(crate) fn select_by<K: PartialOrd>(
        n: usize,
        candidates: Option<&[TupleId]>,
        k: usize,
        key: impl Fn(usize) -> K,
        display: impl Fn(K) -> f64,
    ) -> Self {
        let entries = match candidates {
            Some(ids) => ids.iter().map(|t| (t.index(), key(t.index()))).collect(),
            None => (0..n).map(|i| (i, key(i))).collect(),
        };
        let (order, keys) = topk_entries_by(entries, k)
            .into_iter()
            .map(|(i, key)| (TupleId(i as u32), display(key)))
            .unzip();
        Ranking { order, keys }
    }

    /// Builds a ranking from an explicit order and per-position keys —
    /// used by semantics whose answer is *constructed* rather than sorted
    /// (U-Rank's per-position argmax, U-Top's most probable set), where the
    /// keys need not be monotone along the order.
    ///
    /// # Panics
    /// Panics if `order` and `keys` have different lengths.
    pub fn from_order_and_keys(order: Vec<TupleId>, keys: Vec<f64>) -> Self {
        assert_eq!(
            order.len(),
            keys.len(),
            "order and keys must be parallel vectors"
        );
        Ranking { order, keys }
    }

    /// Truncates the ranking to its best `k` entries (no-op when `k` is
    /// not smaller than the current length).
    pub fn truncate(&mut self, k: usize) {
        self.order.truncate(k);
        self.keys.truncate(k);
    }

    /// The full order, best first.
    pub fn order(&self) -> &[TupleId] {
        &self.order
    }

    /// The top-`k` tuple ids.
    pub fn top_k(&self, k: usize) -> &[TupleId] {
        &self.order[..k.min(self.order.len())]
    }

    /// The top-`k` as raw `u32` ids — the form the metrics crate consumes.
    pub fn top_k_u32(&self, k: usize) -> Vec<u32> {
        self.top_k(k).iter().map(|t| t.0).collect()
    }

    /// The ranking key of the tuple at `position` (0-based).
    pub fn key_at(&self, position: usize) -> f64 {
        self.keys[position]
    }

    /// Position (0-based) of a tuple in the ranking.
    pub fn position_of(&self, t: TupleId) -> Option<usize> {
        self.order.iter().position(|&x| x == t)
    }

    /// Number of ranked tuples.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no tuples were ranked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// [`prf_pdb::tuple::top_k_desc_of`] for keys that are only `PartialOrd`:
/// the best `k` of the `(index, key)` entries, best first, ties by index
/// ascending. Selection and sort use the *same* total comparator, so the
/// prefix is bitwise-identical to the full sort's.
fn topk_entries_by<K: PartialOrd>(mut entries: Vec<(usize, K)>, k: usize) -> Vec<(usize, K)> {
    let cmp = |a: &(usize, K), b: &(usize, K)| {
        b.1.partial_cmp(&a.1)
            .expect("ranking keys must be comparable")
            .then(a.0.cmp(&b.0))
    };
    if k < entries.len() {
        if k > 0 {
            // Partition so positions 0..k hold the best k (unordered).
            entries.select_nth_unstable_by(k - 1, cmp);
        }
        entries.truncate(k);
    }
    entries.sort_unstable_by(cmp);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_magnitude_with_id_ties() {
        let values = [
            Complex::real(1.0),
            Complex::real(-2.0), // |.|=2 ranks first
            Complex::real(1.0),  // ties with id 0 — id 0 wins
        ];
        let r = Ranking::from_values(&values, ValueOrder::Magnitude);
        assert_eq!(r.order(), &[TupleId(1), TupleId(0), TupleId(2)]);
        assert_eq!(r.top_k(2), &[TupleId(1), TupleId(0)]);
        assert_eq!(r.top_k_u32(2), vec![1, 0]);
        assert_eq!(r.key_at(0), 2.0);
        assert_eq!(r.position_of(TupleId(2)), Some(2));
    }

    #[test]
    fn real_part_order_differs_from_magnitude() {
        let values = [Complex::real(-2.0), Complex::real(1.0)];
        let mag = Ranking::from_values(&values, ValueOrder::Magnitude);
        let re = Ranking::from_values(&values, ValueOrder::RealPart);
        assert_eq!(mag.order()[0], TupleId(0));
        assert_eq!(re.order()[0], TupleId(1));
    }

    #[test]
    fn top_k_clamps() {
        let r = Ranking::from_keys(&[0.5, 0.2]);
        assert_eq!(r.top_k(10).len(), 2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn topk_constructors_agree_with_full_sort_then_truncate() {
        // Includes duplicate keys, so the id tie-break is exercised: the
        // partial selection must produce the exact same prefix the full
        // sort does.
        let keys = [0.3, 0.9, 0.3, 0.0, 0.9, 0.5, 0.3, 1.0, 0.0];
        for k in 0..=keys.len() + 2 {
            let fast = Ranking::from_keys_topk(&keys, k);
            let mut full = Ranking::from_keys(&keys);
            full.truncate(k);
            assert_eq!(fast.order(), full.order(), "k={k}");
            for pos in 0..fast.len() {
                assert_eq!(fast.key_at(pos), full.key_at(pos), "k={k} pos={pos}");
            }
        }
    }

    #[test]
    fn topk_from_values_and_keys_by_agree_with_full() {
        let values = [
            Complex::real(1.0),
            Complex::new(0.0, -2.0),
            Complex::real(1.0),
            Complex::real(-0.5),
        ];
        for order in [ValueOrder::Magnitude, ValueOrder::RealPart] {
            for k in 0..=values.len() {
                let fast = Ranking::from_values_topk(&values, order, k);
                let mut full = Ranking::from_values(&values, order);
                full.truncate(k);
                assert_eq!(fast.order(), full.order(), "{order:?} k={k}");
            }
        }
        // The generic-key constructor, with a display transform.
        let raw = [3i64, 1, 3, 2];
        for k in 0..=raw.len() {
            let fast = Ranking::from_keys_by_topk(&raw, |v| v as f64, k);
            let mut full = Ranking::from_keys_by(&raw, |v| v as f64);
            full.truncate(k);
            assert_eq!(fast.order(), full.order(), "k={k}");
            for pos in 0..fast.len() {
                assert_eq!(fast.key_at(pos), full.key_at(pos));
            }
        }
    }
}
