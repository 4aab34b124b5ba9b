//! Possible worlds: instantiations of a probabilistic relation.
//!
//! A possible world is a deterministic subset of the tuples. The semantics of
//! every ranking function in the paper is defined over the distribution of
//! worlds; this module provides the world representation, in-world ranks
//! (`r_pw(t)`, with `∞` for absent tuples), and a small enumeration container
//! used by brute-force test oracles.

use crate::tuple::{top_k_desc, TupleId};

/// A single possible world: the set of present tuples.
///
/// Stored as a sorted vector of tuple ids for cheap set operations and
/// canonical equality.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PossibleWorld {
    present: Vec<TupleId>,
}

impl PossibleWorld {
    /// Creates a world from a list of present tuples (deduplicated, sorted).
    pub fn new(mut present: Vec<TupleId>) -> Self {
        present.sort_unstable();
        present.dedup();
        PossibleWorld { present }
    }

    /// The empty world.
    pub fn empty() -> Self {
        PossibleWorld::default()
    }

    /// Tuples present in this world, ascending by id.
    pub fn tuples(&self) -> &[TupleId] {
        &self.present
    }

    /// Number of tuples present.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// `true` when no tuple is present.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: TupleId) -> bool {
        self.present.binary_search(&t).is_ok()
    }

    /// The rank `r_pw(t)` of tuple `t` in this world given per-tuple scores:
    /// 1-based position when present tuples are sorted by score descending
    /// (ties broken by tuple id), or `None` when `t` is absent — the paper's
    /// `r_pw(t) = ∞`.
    pub fn rank_of(&self, t: TupleId, scores: &[f64]) -> Option<usize> {
        if !self.contains(t) {
            return None;
        }
        let mine = scores[t.index()];
        let mut rank = 1usize;
        for &other in &self.present {
            if other == t {
                continue;
            }
            let s = scores[other.index()];
            if s > mine || (s == mine && other < t) {
                rank += 1;
            }
        }
        Some(rank)
    }

    /// The present tuples ordered by rank (score descending, id ascending) —
    /// the world's deterministic top-list.
    pub fn ranked(&self, scores: &[f64]) -> Vec<TupleId> {
        self.top_k(scores, self.present.len())
    }

    /// The top-`k` prefix of [`PossibleWorld::ranked`].
    pub fn top_k(&self, scores: &[f64], k: usize) -> Vec<TupleId> {
        let local_scores: Vec<f64> = self.present.iter().map(|t| scores[t.index()]).collect();
        top_k_desc(&local_scores, k, "scores must not be NaN")
            .into_iter()
            .map(|i| self.present[i])
            .collect()
    }
}

impl FromIterator<TupleId> for PossibleWorld {
    fn from_iter<I: IntoIterator<Item = TupleId>>(iter: I) -> Self {
        PossibleWorld::new(iter.into_iter().collect())
    }
}

/// A finite enumeration of possible worlds with their probabilities.
///
/// Produced by the brute-force enumerators on [`crate::IndependentDb`] and
/// [`crate::AndXorTree`]; the test oracles compute every ranking semantics
/// directly from this representation.
#[derive(Clone, Debug, Default)]
pub struct WorldEnumeration {
    /// `(world, probability)` pairs; probabilities sum to 1 (within
    /// tolerance) and worlds are distinct.
    pub worlds: Vec<(PossibleWorld, f64)>,
}

impl WorldEnumeration {
    /// Total probability mass (should be ≈ 1).
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|(_, p)| p).sum()
    }

    /// Number of distinct worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// `true` when no worlds are stored.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Marginal probability of tuple `t`.
    pub fn marginal(&self, t: TupleId) -> f64 {
        self.worlds
            .iter()
            .filter(|(w, _)| w.contains(t))
            .map(|(_, p)| p)
            .sum()
    }

    /// Positional probability `Pr(r(t) = rank)` computed by brute force.
    pub fn positional_probability(&self, t: TupleId, rank: usize, scores: &[f64]) -> f64 {
        self.worlds
            .iter()
            .filter(|(w, _)| w.rank_of(t, scores) == Some(rank))
            .map(|(_, p)| p)
            .sum()
    }

    /// The full rank distribution `[Pr(r(t)=1), …, Pr(r(t)=n)]`.
    pub fn rank_distribution(&self, t: TupleId, n: usize, scores: &[f64]) -> Vec<f64> {
        let mut dist = vec![0.0; n];
        for (w, p) in &self.worlds {
            if let Some(r) = w.rank_of(t, scores) {
                dist[r - 1] += p;
            }
        }
        dist
    }

    /// Exact `E[dis_Δ(τ, τ_pw)]`, the expected symmetric difference between
    /// a candidate top-k answer `τ` and the top-k of a random world (both
    /// treated as sets; worlds with fewer than `k` tuples contribute their
    /// whole content). By Theorem 2 the PT(k) answer minimises it.
    pub fn expected_symmetric_difference(
        &self,
        answer: &[TupleId],
        k: usize,
        scores: &[f64],
    ) -> f64 {
        self.worlds
            .iter()
            .map(|(w, p)| {
                let top = w.top_k(scores, k);
                let in_both = top.iter().filter(|t| answer.contains(t)).count();
                let d = (top.len() - in_both) + (answer.len() - in_both);
                p * d as f64
            })
            .sum()
    }

    /// Exact `E[dis_ω(τ, τ_pw)] = Σ_pw Pr(pw)·Σᵢ ω(i)·δ(τ_pw(i) ∉ τ)`, the
    /// expected weighted symmetric difference (Definition 5), with
    /// `weights[i] = ω(i+1)` and `k = weights.len()`. By Theorem 3 the PRFω
    /// answer for the same weights minimises it.
    pub fn expected_weighted_symmetric_difference(
        &self,
        answer: &[TupleId],
        weights: &[f64],
        scores: &[f64],
    ) -> f64 {
        self.worlds
            .iter()
            .map(|(w, p)| {
                let penalty: f64 = w
                    .top_k(scores, weights.len())
                    .iter()
                    .zip(weights)
                    .filter(|(t, _)| !answer.contains(t))
                    .map(|(_, w)| w)
                    .sum();
                p * penalty
            })
            .sum()
    }

    /// Merges duplicate worlds, summing probabilities.
    pub fn normalized(mut self) -> Self {
        self.worlds.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(PossibleWorld, f64)> = Vec::with_capacity(self.worlds.len());
        for (w, p) in self.worlds {
            match merged.last_mut() {
                Some((lw, lp)) if *lw == w => *lp += p,
                _ => merged.push((w, p)),
            }
        }
        WorldEnumeration { worlds: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> TupleId {
        TupleId(i)
    }

    #[test]
    fn world_construction_dedups_and_sorts() {
        let w = PossibleWorld::new(vec![tid(3), tid(1), tid(3)]);
        assert_eq!(w.tuples(), &[tid(1), tid(3)]);
        assert_eq!(w.len(), 2);
        assert!(w.contains(tid(1)));
        assert!(!w.contains(tid(0)));
    }

    #[test]
    fn rank_within_world() {
        // scores: t0=10, t1=30, t2=20.
        let scores = [10.0, 30.0, 20.0];
        let w = PossibleWorld::new(vec![tid(0), tid(1), tid(2)]);
        assert_eq!(w.rank_of(tid(1), &scores), Some(1));
        assert_eq!(w.rank_of(tid(2), &scores), Some(2));
        assert_eq!(w.rank_of(tid(0), &scores), Some(3));
        let partial = PossibleWorld::new(vec![tid(0), tid(2)]);
        assert_eq!(partial.rank_of(tid(0), &scores), Some(2));
        assert_eq!(partial.rank_of(tid(1), &scores), None);
        assert_eq!(w.ranked(&scores), vec![tid(1), tid(2), tid(0)]);
        assert_eq!(w.top_k(&scores, 2), vec![tid(1), tid(2)]);
    }

    #[test]
    fn tie_breaking_by_id() {
        let scores = [5.0, 5.0];
        let w = PossibleWorld::new(vec![tid(0), tid(1)]);
        assert_eq!(w.rank_of(tid(0), &scores), Some(1));
        assert_eq!(w.rank_of(tid(1), &scores), Some(2));
    }

    #[test]
    fn enumeration_marginals_and_rank_dist() {
        let scores = [10.0, 20.0];
        let worlds = WorldEnumeration {
            worlds: vec![
                (PossibleWorld::new(vec![tid(0), tid(1)]), 0.4),
                (PossibleWorld::new(vec![tid(0)]), 0.3),
                (PossibleWorld::empty(), 0.3),
            ],
        };
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        assert!((worlds.marginal(tid(0)) - 0.7).abs() < 1e-12);
        assert!((worlds.marginal(tid(1)) - 0.4).abs() < 1e-12);
        assert!((worlds.positional_probability(tid(0), 1, &scores) - 0.3).abs() < 1e-12);
        assert!((worlds.positional_probability(tid(0), 2, &scores) - 0.4).abs() < 1e-12);
        assert_eq!(worlds.rank_distribution(tid(1), 2, &scores), vec![0.4, 0.0]);
    }

    #[test]
    fn normalization_merges_duplicates() {
        let worlds = WorldEnumeration {
            worlds: vec![
                (PossibleWorld::new(vec![tid(0)]), 0.25),
                (PossibleWorld::new(vec![tid(0)]), 0.25),
                (PossibleWorld::empty(), 0.5),
            ],
        }
        .normalized();
        assert_eq!(worlds.len(), 2);
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        assert!((worlds.marginal(tid(0)) - 0.5).abs() < 1e-12);
    }
}
