//! Tuple-independent probabilistic relations.
//!
//! The simplest and most common uncertainty model: every tuple exists
//! independently with its own probability. Most of the paper's experiments
//! (IIP, Syn-IND) use this model; the and/xor tree of [`crate::andxor`]
//! strictly generalises it.

use rand::Rng;

use crate::tuple::{packed_desc, top_k_desc, Tuple, TupleId};
use crate::worlds::{PossibleWorld, WorldEnumeration};
use crate::{check_probability, PdbError};

/// A probabilistic relation with mutually independent tuples.
///
/// The tuples are stored twice: in id order, and in the processing order
/// of every ranking algorithm, score descending with ties by id. The
/// second copy is sorted once at construction and kept exact by every
/// mutation, so a query scans it front to back instead of sorting. The
/// expected world size `Σ pᵢ` and a bound on the largest probability are
/// cached beside them.
#[derive(Clone, Debug, Default)]
pub struct IndependentDb {
    tuples: Vec<Tuple>,
    by_score: Vec<Tuple>,
    world_size: f64,
    max_prob: f64,
}

impl IndependentDb {
    /// Builds a relation from `(score, probability)` pairs, assigning dense
    /// tuple ids in input order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, PdbError> {
        let tuples = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (score, prob))| Tuple::new(TupleId(i as u32), score, prob))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_tuples(tuples))
    }

    /// Builds a relation from already-validated tuples.
    ///
    /// # Panics
    /// Panics in debug builds if tuple ids are not the dense range `0..n`,
    /// and in all builds if a score is NaN.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().enumerate().all(|(i, t)| t.id.index() == i));
        let scores: Vec<f64> = tuples.iter().map(|t| t.score).collect();
        let by_score = top_k_desc(&scores, scores.len(), "scores must not be NaN")
            .into_iter()
            .map(|i| tuples[i])
            .collect();
        let world_size = tuples.iter().map(|t| t.prob).sum();
        let max_prob = tuples.iter().map(|t| t.prob).fold(0.0, f64::max);
        IndependentDb {
            tuples,
            by_score,
            world_size,
            max_prob,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples, in id order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuple with the given id.
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.tuples[id.index()]
    }

    /// Scores indexed by tuple id.
    pub fn scores(&self) -> Vec<f64> {
        self.tuples.iter().map(|t| t.score).collect()
    }

    /// Probabilities indexed by tuple id.
    pub fn probabilities(&self) -> Vec<f64> {
        self.tuples.iter().map(|t| t.prob).collect()
    }

    /// All tuples sorted by score descending, ties by id — the processing
    /// order of every ranking algorithm, stored rather than recomputed.
    pub fn by_score(&self) -> &[Tuple] {
        &self.by_score
    }

    /// Where tuple `id` sits in [`Self::by_score`]: a binary search on its
    /// `(score, id)` key.
    fn score_position(&self, id: TupleId) -> usize {
        let key = packed_desc(self.tuples[id.index()].score, id.index());
        self.by_score
            .partition_point(|t| packed_desc(t.score, t.id.index()) < key)
    }

    /// Expected size of a possible world, `C = Σᵢ pᵢ` (used by expected
    /// ranks). Summed in id order at construction and kept current by every
    /// mutation, so reading it is `O(1)`.
    pub fn expected_world_size(&self) -> f64 {
        self.world_size
    }

    /// An upper bound on every tuple's probability: exact at construction,
    /// raised by [`Self::set_prob`] and [`Self::push_tuple`], and left alone
    /// by [`Self::remove_tuple`] (a stale-high value is still a bound).
    pub fn max_prob(&self) -> f64 {
        self.max_prob
    }

    /// Replaces the existence probability of tuple `id`, returning the old
    /// value. Scores (and therefore every cached score order) are untouched.
    pub fn set_prob(&mut self, id: TupleId, prob: f64) -> Result<f64, PdbError> {
        let idx = id.index();
        if idx >= self.tuples.len() {
            return Err(PdbError::Structure(format!("no tuple with id {idx}")));
        }
        check_probability(prob, || format!("tuple {idx}"))?;
        let pos = self.score_position(id);
        self.by_score[pos].prob = prob;
        let old = std::mem::replace(&mut self.tuples[idx].prob, prob);
        self.world_size += prob - old;
        self.max_prob = self.max_prob.max(prob);
        Ok(old)
    }

    /// Appends a new tuple with the next dense id, returning that id. The
    /// score order takes it by binary search plus a shift: `O(n)`.
    pub fn push_tuple(&mut self, score: f64, prob: f64) -> Result<TupleId, PdbError> {
        let id = TupleId(self.tuples.len() as u32);
        let tuple = Tuple::new(id, score, prob)?;
        self.tuples.push(tuple);
        self.world_size += prob;
        self.max_prob = self.max_prob.max(prob);
        let pos = self.score_position(id);
        self.by_score.insert(pos, tuple);
        Ok(id)
    }

    /// Removes tuple `id` and renumbers every larger id down by one so ids
    /// stay the dense range `0..n`. Returns the removed tuple.
    ///
    /// Renumbering preserves the relative `(score desc, id asc)` order of the
    /// survivors, so the score order is patched by one removal plus the
    /// same decrement, `O(n)`, instead of a re-sort.
    pub fn remove_tuple(&mut self, id: TupleId) -> Result<Tuple, PdbError> {
        let idx = id.index();
        if idx >= self.tuples.len() {
            return Err(PdbError::Structure(format!("no tuple with id {idx}")));
        }
        let pos = self.score_position(id);
        self.by_score.remove(pos);
        let removed = self.tuples.remove(idx);
        self.world_size -= removed.prob;
        for t in &mut self.tuples[idx..] {
            t.id = TupleId(t.id.0 - 1);
        }
        for t in &mut self.by_score {
            if t.id.0 > id.0 {
                t.id = TupleId(t.id.0 - 1);
            }
        }
        Ok(removed)
    }

    /// Draws one possible world.
    pub fn sample_world(&self, rng: &mut impl Rng) -> PossibleWorld {
        self.tuples
            .iter()
            .filter(|t| rng.gen::<f64>() < t.prob)
            .map(|t| t.id)
            .collect()
    }

    /// Enumerates all `2^n` possible worlds (skipping zero-probability ones).
    ///
    /// Intended for test oracles; fails when the world count would exceed
    /// `limit`.
    pub fn enumerate_worlds(&self, limit: usize) -> Result<WorldEnumeration, PdbError> {
        // Tuples with p=1 are always present and p=0 never; only uncertain
        // tuples multiply the world count.
        let uncertain: Vec<&Tuple> = self
            .tuples
            .iter()
            .filter(|t| t.prob > 0.0 && t.prob < 1.0)
            .collect();
        let certain: Vec<TupleId> = self
            .tuples
            .iter()
            .filter(|t| t.prob >= 1.0)
            .map(|t| t.id)
            .collect();
        let m = uncertain.len();
        if m >= usize::BITS as usize || (1usize << m) > limit {
            return Err(PdbError::TooManyWorlds { limit });
        }
        let mut worlds = Vec::with_capacity(1 << m);
        for mask in 0u64..(1u64 << m) {
            let mut prob = 1.0;
            let mut present = certain.clone();
            for (bit, t) in uncertain.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    prob *= t.prob;
                    present.push(t.id);
                } else {
                    prob *= 1.0 - t.prob;
                }
            }
            worlds.push((PossibleWorld::new(present), prob));
        }
        Ok(WorldEnumeration { worlds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db3() -> IndependentDb {
        // Example 1 of the paper: p = .5, .6, .4 with descending scores.
        IndependentDb::from_pairs([(30.0, 0.5), (20.0, 0.6), (10.0, 0.4)]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let db = db3();
        assert_eq!(db.len(), 3);
        assert_eq!(db.tuple(TupleId(1)).score, 20.0);
        assert_eq!(db.scores(), vec![30.0, 20.0, 10.0]);
        assert_eq!(db.probabilities(), vec![0.5, 0.6, 0.4]);
        assert!((db.expected_world_size() - 1.5).abs() < 1e-12);
        assert_eq!(db.by_score(), db.tuples());
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(IndependentDb::from_pairs([(1.0, 1.5)]).is_err());
        assert!(IndependentDb::from_pairs([(f64::NAN, 0.5)]).is_err());
    }

    #[test]
    fn enumeration_probabilities_sum_to_one() {
        let db = db3();
        let worlds = db.enumerate_worlds(1 << 20).unwrap();
        assert_eq!(worlds.len(), 8);
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        for (i, t) in db.tuples().iter().enumerate() {
            assert!(
                (worlds.marginal(TupleId(i as u32)) - t.prob).abs() < 1e-12,
                "marginal mismatch"
            );
        }
    }

    #[test]
    fn enumeration_rank_distribution_matches_example_1() {
        // Pr(r(t3)=1) = .08, =2 is .2, =3 is .12 (paper Example 1).
        let db = db3();
        let worlds = db.enumerate_worlds(1 << 20).unwrap();
        let scores = db.scores();
        let d = worlds.rank_distribution(TupleId(2), 3, &scores);
        assert!((d[0] - 0.08).abs() < 1e-12);
        assert!((d[1] - 0.20).abs() < 1e-12);
        assert!((d[2] - 0.12).abs() < 1e-12);
    }

    #[test]
    fn certain_tuples_do_not_blow_up_enumeration() {
        let db = IndependentDb::from_pairs([(3.0, 1.0), (2.0, 1.0), (1.0, 0.5)]).unwrap();
        let worlds = db.enumerate_worlds(16).unwrap();
        assert_eq!(worlds.len(), 2);
        assert!((worlds.marginal(TupleId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumeration_limit_enforced() {
        let db = IndependentDb::from_pairs((0..25).map(|i| (i as f64, 0.5))).unwrap();
        assert!(matches!(
            db.enumerate_worlds(1 << 20),
            Err(PdbError::TooManyWorlds { limit }) if limit == 1 << 20
        ));
    }

    #[test]
    fn mutations_keep_ids_dense_and_validate() {
        let mut db = db3();
        assert_eq!(db.set_prob(TupleId(1), 0.9).unwrap(), 0.6);
        assert_eq!(db.probabilities(), vec![0.5, 0.9, 0.4]);
        assert!(db.set_prob(TupleId(1), 1.5).is_err());
        assert!(db.set_prob(TupleId(9), 0.5).is_err());

        let id = db.push_tuple(25.0, 0.3).unwrap();
        assert_eq!(id, TupleId(3));
        let ids = |db: &IndependentDb| db.by_score().iter().map(|t| t.id).collect::<Vec<_>>();
        assert_eq!(
            ids(&db),
            vec![TupleId(0), TupleId(3), TupleId(1), TupleId(2)]
        );
        assert_eq!(
            db.by_score()[2].prob,
            0.9,
            "reweights reach the score order"
        );
        assert!(db.push_tuple(f64::NAN, 0.5).is_err());

        let removed = db.remove_tuple(TupleId(1)).unwrap();
        assert_eq!(removed.score, 20.0);
        assert_eq!(db.len(), 3);
        // Survivors are renumbered densely and keep their relative order.
        assert_eq!(db.scores(), vec![30.0, 10.0, 25.0]);
        assert!(db
            .tuples()
            .iter()
            .enumerate()
            .all(|(i, t)| t.id.index() == i));
        assert_eq!(ids(&db), vec![TupleId(0), TupleId(2), TupleId(1)]);
        assert!(db.remove_tuple(TupleId(3)).is_err());
    }

    #[test]
    fn cached_world_size_tracks_mutation_scripts() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut db =
            IndependentDb::from_pairs((0..200).map(|i| (f64::from(i % 17), rng.gen::<f64>())))
                .unwrap();
        let fresh = |db: &IndependentDb| db.tuples().iter().map(|t| t.prob).sum::<f64>();
        assert_eq!(db.expected_world_size().to_bits(), fresh(&db).to_bits());
        let probs = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5];
        for step in 0..1_000 {
            let p = match rng.gen_range(0..3) {
                0 => probs[rng.gen_range(0..probs.len())],
                _ => rng.gen::<f64>(),
            };
            match rng.gen_range(0..3) {
                0 if db.len() > 50 => {
                    let id = TupleId(rng.gen_range(0..db.len() as u32));
                    db.remove_tuple(id).unwrap();
                }
                1 => {
                    db.push_tuple(f64::from(rng.gen_range(0..17)), p).unwrap();
                }
                _ => {
                    let id = TupleId(rng.gen_range(0..db.len() as u32));
                    db.set_prob(id, p).unwrap();
                }
            }
            let (cached, want) = (db.expected_world_size(), fresh(&db));
            assert!(
                (cached - want).abs() <= 1e-12 * want,
                "step {step}: cached {cached} vs fresh {want}"
            );
        }
    }

    #[test]
    fn max_prob_bounds_every_probability_through_mutation_scripts() {
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let mut db = IndependentDb::from_pairs(
            (0..200).map(|i| (f64::from(i % 17), 0.9 * rng.gen::<f64>())),
        )
        .unwrap();
        let exact = |db: &IndependentDb| db.tuples().iter().map(|t| t.prob).fold(0.0, f64::max);
        assert_eq!(db.max_prob(), exact(&db), "exact at construction");
        let probs = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5];
        for step in 0..1_000 {
            let p = match rng.gen_range(0..3) {
                0 => probs[rng.gen_range(0..probs.len())],
                _ => rng.gen::<f64>(),
            };
            match rng.gen_range(0..3) {
                0 if db.len() > 50 => {
                    let id = TupleId(rng.gen_range(0..db.len() as u32));
                    db.remove_tuple(id).unwrap();
                }
                1 => {
                    db.push_tuple(f64::from(rng.gen_range(0..17)), p).unwrap();
                }
                _ => {
                    let id = TupleId(rng.gen_range(0..db.len() as u32));
                    db.set_prob(id, p).unwrap();
                }
            }
            assert!(
                db.tuples().iter().all(|t| t.prob <= db.max_prob()),
                "step {step}: max_prob {} below a probability",
                db.max_prob()
            );
        }
    }

    #[test]
    fn sampling_approximates_marginals() {
        let db = db3();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            let w = db.sample_world(&mut rng);
            for (i, c) in counts.iter_mut().enumerate() {
                if w.contains(TupleId(i as u32)) {
                    *c += 1;
                }
            }
        }
        for (i, t) in db.tuples().iter().enumerate() {
            let freq = counts[i] as f64 / trials as f64;
            assert!(
                (freq - t.prob).abs() < 0.02,
                "tuple {i}: {freq} vs {}",
                t.prob
            );
        }
    }
}
