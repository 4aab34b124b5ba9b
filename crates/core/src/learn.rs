//! Learning ranking functions from user preferences (Section 5.2).
//!
//! Positional-probability features cannot be computed per tuple in
//! isolation, so the paper assumes the user ranks a small *sample* of the
//! relation; features are computed as if the sample were the whole relation
//! and the learned parameters are then applied to the full dataset.
//!
//! * [`learn_prfe_alpha`] — the paper's recursive grid search ("binary
//!   search-like heuristic") minimising the Kendall distance between the
//!   user's ranking of the sample and PRFe(α)'s. All the classical ranking
//!   functions produce uni-valley distance curves (Figure 7), for which the
//!   search finds the global optimum.
//! * [`learn_prf_omega`] — a linear pairwise ranking learner over the
//!   features `Pr(r(t) = i), i ≤ h`: L2-regularised hinge loss on
//!   preference pairs, optimised by seeded subgradient descent. This is the
//!   same objective SVM-light (the paper's tool) optimises in ranking
//!   mode.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prf_metrics::kendall_topk;
use prf_pdb::{IndependentDb, TupleId};

use crate::query::QueryError;
use crate::spectrum::prfe_ranking_at;

/// Rejects a user ranking the learners cannot use: an empty one, or one
/// naming a tuple id outside the sample.
fn check_user_ranking(sample: &IndependentDb, user_ranking: &[TupleId]) -> Result<(), QueryError> {
    if user_ranking.is_empty() {
        return Err(QueryError::InvalidParameter(
            "the user ranking must be non-empty".into(),
        ));
    }
    match user_ranking.iter().find(|t| t.index() >= sample.len()) {
        Some(t) => Err(QueryError::InvalidParameter(format!(
            "user ranking names tuple {t}, but the sample has {} tuples",
            sample.len()
        ))),
        None => Ok(()),
    }
}

/// Kendall distance between a user ranking and PRFe(α) on the sample,
/// compared over the top-`k` prefixes.
fn alpha_distance_topk(
    sample: &IndependentDb,
    user: &[u32],
    alpha: f64,
    k: usize,
) -> Result<f64, QueryError> {
    let mine: Vec<u32> = prfe_ranking_at(sample, alpha)?
        .iter()
        .map(|t| t.0)
        .collect();
    Ok(kendall_topk(user, &mine, k.max(1)))
}

/// Kendall distance between a user ranking and PRFe(α) on the sample (full
/// lists). Used by the tests; production callers go through the top-k form.
#[cfg(test)]
fn alpha_distance(sample: &IndependentDb, user: &[u32], alpha: f64) -> f64 {
    alpha_distance_topk(sample, user, alpha, user.len()).unwrap()
}

/// Learns the PRFe parameter `α ∈ [0, 1]` from a user-ranked sample by
/// recursive 10-way grid refinement of the Kendall distance (Section 5.2),
/// minimising the *full-list* distance on the sample.
///
/// `user_ranking` lists the sample's tuple ids best-first. `levels`
/// controls the refinement depth (each level shrinks the interval by 5×;
/// the paper's experiments correspond to 3–4 levels).
///
/// When the user's downstream interest is a top-k list, prefer
/// [`learn_prfe_alpha_topk`]: on large samples the full-list objective is
/// dominated by the (noise-ranked) tail of the distribution, which can pull
/// α far from the value that best reproduces the head.
///
/// Fails with [`QueryError::InvalidParameter`] when the ranking is empty or
/// names a tuple id `≥ sample.len()`.
pub fn learn_prfe_alpha(
    sample: &IndependentDb,
    user_ranking: &[TupleId],
    levels: usize,
) -> Result<f64, QueryError> {
    learn_prfe_alpha_topk(sample, user_ranking, levels, user_ranking.len())
}

/// Like [`learn_prfe_alpha`] but minimising the top-`focus_k` Kendall
/// distance on the sample — the protocol used for the Figure 9 experiments
/// (the evaluation is itself a top-k comparison). Fails like
/// [`learn_prfe_alpha`].
pub fn learn_prfe_alpha_topk(
    sample: &IndependentDb,
    user_ranking: &[TupleId],
    levels: usize,
    focus_k: usize,
) -> Result<f64, QueryError> {
    check_user_ranking(sample, user_ranking)?;
    let k = focus_k.clamp(1, user_ranking.len());
    let user: Vec<u32> = user_ranking.iter().map(|t| t.0).collect();
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut best = (f64::INFINITY, 0.5f64);
    for _ in 0..levels.max(1) {
        let width = hi - lo;
        // Probe the 9 interior grid points of [lo, hi].
        let mut level_best = (f64::INFINITY, 1usize);
        for i in 1..=9usize {
            let alpha = lo + i as f64 * width / 10.0;
            let d = alpha_distance_topk(sample, &user, alpha, k)?;
            if d < level_best.0 {
                level_best = (d, i);
            }
            if d < best.0 {
                best = (d, alpha);
            }
        }
        // Shrink to the two grid cells around the level's best point
        // (the paper's [max(L, L+(i−1)·w/10), min(U, L+(i+1)·w/10)]).
        let i = level_best.1 as f64;
        let new_lo = (lo + (i - 1.0) * width / 10.0).max(lo);
        let new_hi = (lo + (i + 1.0) * width / 10.0).min(hi);
        lo = new_lo;
        hi = new_hi;
    }
    Ok(best.1)
}

/// Configuration for the pairwise linear ranking learner.
#[derive(Clone, Copy, Debug)]
pub struct RankLearnConfig {
    /// Feature horizon `h`: weights are learned for ranks `1..=h`.
    pub h: usize,
    /// Number of epochs over the preference pairs.
    pub epochs: usize,
    /// Initial learning rate (decays as `1/√epoch`).
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub lambda: f64,
    /// RNG seed for pair shuffling.
    pub seed: u64,
}

impl Default for RankLearnConfig {
    fn default() -> Self {
        RankLearnConfig {
            h: 100,
            epochs: 60,
            learning_rate: 1.0,
            lambda: 1e-4,
            seed: 7,
        }
    }
}

/// Learns PRFω(h) weights from a user-ranked sample by pairwise hinge-loss
/// subgradient descent over positional-probability features.
///
/// Returns the weight table `w₁ … w_h` (feed into
/// [`crate::weights::TabulatedWeight`]); `h` is clamped to the sample
/// size. Adjacent preference pairs are used (tuple ranked `i` beats tuple
/// ranked `i+1`, plus a stride-spaced set of non-adjacent pairs), matching
/// the pairwise reduction of the learning-to-rank literature. Fails like
/// [`learn_prfe_alpha`].
pub fn learn_prf_omega(
    sample: &IndependentDb,
    user_ranking: &[TupleId],
    cfg: &RankLearnConfig,
) -> Result<Vec<f64>, QueryError> {
    check_user_ranking(sample, user_ranking)?;
    let m = sample.len();
    let h = cfg.h.min(m).max(1);
    // Features: rank distributions truncated to h, rescaled so entries are
    // O(1) (raw positional probabilities are O(1/m), which conditions the
    // fixed-margin hinge badly).
    let mut dists = crate::independent::rank_distributions(sample);
    let fmax = dists
        .iter()
        .flat_map(|d| d.iter().take(h))
        .fold(0.0f64, |a, &b| a.max(b.abs()))
        .max(1e-12);
    for d in &mut dists {
        for v in d.iter_mut() {
            *v /= fmax;
        }
    }
    let feature = |t: TupleId| -> &[f64] { &dists[t.index()][..h] };

    // Preference pairs (better, worse).
    let mut pairs: Vec<(TupleId, TupleId)> = Vec::new();
    for w in user_ranking.windows(2) {
        pairs.push((w[0], w[1]));
    }
    // Longer-range pairs give the learner global shape information.
    for stride in [2usize, 4, 8, 16] {
        let mut i = 0;
        while i + stride < user_ranking.len() {
            pairs.push((user_ranking[i], user_ranking[i + stride]));
            i += stride;
        }
    }

    let mut w = vec![0.0f64; h];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for epoch in 0..cfg.epochs {
        let rate = cfg.learning_rate / ((epoch + 1) as f64).sqrt();
        // Shuffle pairs.
        for i in (1..pairs.len()).rev() {
            let j = rng.gen_range(0..=i);
            pairs.swap(i, j);
        }
        for &(better, worse) in &pairs {
            let fb = feature(better);
            let fw = feature(worse);
            let margin: f64 = w
                .iter()
                .zip(fb.iter().zip(fw))
                .map(|(wi, (a, b))| wi * (a - b))
                .sum();
            // Subgradient of max(0, 1 − margin) + λ‖w‖².
            for (wi, (a, b)) in w.iter_mut().zip(fb.iter().zip(fw)) {
                let mut g = 2.0 * cfg.lambda * *wi;
                if margin < 1.0 {
                    g -= a - b;
                }
                *wi -= rate * g;
            }
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{Ranking, ValueOrder};
    use prf_datasets::syn_ind;

    /// The normalized Kendall distance (over the full list) between the
    /// user's order and the PRFω order induced by `weights` on `db`.
    fn omega_ranking_distance(
        db: &IndependentDb,
        weights: &[f64],
        user_ranking: &[TupleId],
    ) -> f64 {
        let w = crate::weights::TabulatedWeight::from_real(weights);
        let ups = crate::independent::prf_rank(db, &w);
        let mine = Ranking::from_values(&ups, ValueOrder::RealPart);
        let user: Vec<u32> = user_ranking.iter().map(|t| t.0).collect();
        kendall_topk(&user, &mine.top_k_u32(user.len()), user.len().max(1))
    }

    fn ranking_by_prfe(db: &IndependentDb, alpha: f64) -> Vec<TupleId> {
        prfe_ranking_at(db, alpha).unwrap()
    }

    #[test]
    fn recovers_planted_alpha() {
        let db = syn_ind(300, 5);
        let truth = 0.95;
        let user = ranking_by_prfe(&db, truth);
        let learned = learn_prfe_alpha(&db, &user, 4).unwrap();
        // The learned α must reproduce the user ranking (the α interval
        // producing the same ranking can be wide, so compare rankings, not
        // parameters).
        let d = alpha_distance(&db, &user.iter().map(|t| t.0).collect::<Vec<_>>(), learned);
        assert!(d < 1e-3, "distance {d} at learned α={learned}");
    }

    #[test]
    fn learns_pt_h_reasonably() {
        let db = syn_ind(400, 9);
        // User ranks by PT(40).
        let ups = crate::independent::prf_rank(&db, &crate::weights::StepWeight { h: 40 });
        let user = Ranking::from_values(&ups, ValueOrder::RealPart);
        let learned = learn_prfe_alpha(&db, user.order(), 4).unwrap();
        let d = alpha_distance(
            &db,
            &user.order().iter().map(|t| t.0).collect::<Vec<_>>(),
            learned,
        );
        // PRFe approximates PT(h) well but not perfectly (Figure 7); the
        // optimal α depends on h relative to n and need not be near 1.
        assert!(d < 0.12, "distance {d} at α={learned}");
    }

    #[test]
    fn omega_learner_fits_planted_step_weights() {
        let db = syn_ind(60, 11);
        let truth = crate::weights::StepWeight { h: 10 };
        let ups = crate::independent::prf_rank(&db, &truth);
        let user = Ranking::from_values(&ups, ValueOrder::RealPart);
        let w = learn_prf_omega(
            &db,
            user.order(),
            &RankLearnConfig {
                h: 20,
                epochs: 120,
                ..Default::default()
            },
        )
        .unwrap();
        let d = omega_ranking_distance(&db, &w, user.order());
        assert!(d < 0.1, "distance {d}; weights {w:?}");
    }

    #[test]
    fn omega_learner_on_prfe_teacher() {
        let db = syn_ind(60, 13);
        let user = ranking_by_prfe(&db, 0.9);
        let w = learn_prf_omega(
            &db,
            &user,
            &RankLearnConfig {
                h: 30,
                epochs: 120,
                ..Default::default()
            },
        )
        .unwrap();
        let d = omega_ranking_distance(&db, &w, &user);
        assert!(d < 0.1, "distance {d}");
    }

    #[test]
    fn grid_search_handles_degenerate_rankings() {
        // All-equal probabilities: every α gives the same ranking; the
        // search must terminate and return something in range.
        let db = IndependentDb::from_pairs((0..20).map(|i| (100.0 - i as f64, 0.5))).unwrap();
        let user = ranking_by_prfe(&db, 0.7);
        let a = learn_prfe_alpha(&db, &user, 3).unwrap();
        assert!((0.0..=1.0).contains(&a));
        let d = alpha_distance(&db, &user.iter().map(|t| t.0).collect::<Vec<_>>(), a);
        assert!(d < 1e-9);
    }
}
