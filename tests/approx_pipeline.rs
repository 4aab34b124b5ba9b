//! Integration tests: the approximation and learning pipeline end-to-end.

use prf::core::independent::{prf_rank, prfe_rank_log};
use prf::core::learn::{learn_prf_omega, learn_prfe_alpha_topk, RankLearnConfig};
use prf::core::mixture::{approximate_weights, DftApproxConfig};
use prf::core::query::{Algorithm, RankQuery};
use prf::core::{Ranking, TabulatedWeight, ValueOrder};
use prf::datasets::{subsample_independent, syn_ind};
use prf::metrics::kendall_topk;
use prf::pdb::IndependentDb;

/// The exact PT(h) ranking, pinned to the generating-function algorithm.
fn pt_ranking(db: &IndependentDb, h: usize) -> Ranking {
    RankQuery::pt(h)
        .algorithm(Algorithm::ExactGf)
        .run(db)
        .unwrap()
        .ranking
}

#[test]
fn mixture_reproduces_pt_ranking_cross_crate() {
    let db = syn_ind(5_000, 55);
    let h = 200;
    let k = 200;
    let exact = pt_ranking(&db, h).top_k_u32(k);
    let step = move |i: usize| if i < h { 1.0 } else { 0.0 };
    for (l, bound) in [(20usize, 0.12), (40, 0.08), (80, 0.05)] {
        let mix = approximate_weights(&step, h, &DftApproxConfig::refined(l));
        let approx = mix.ranking_independent(&db).top_k_u32(k);
        let d = kendall_topk(&exact, &approx, k);
        assert!(d < bound, "L = {l}: distance {d} ≥ {bound}");
    }
}

#[test]
fn mixture_reproduces_learned_omega() {
    // Learn ω from a PT teacher, then approximate the *learned* table by a
    // mixture — the full Section 5 workflow.
    let db = syn_ind(2_000, 56);
    let (sample, _) = subsample_independent(&db, 150, 57);
    let teacher = pt_ranking(&sample, 30);
    let weights = learn_prf_omega(
        &sample,
        teacher.order(),
        &RankLearnConfig {
            h: 60,
            epochs: 120,
            ..Default::default()
        },
    )
    .unwrap();
    // Exact learned ranking.
    let w = TabulatedWeight::from_real(&weights);
    let exact = Ranking::from_values(&prf_rank(&db, &w), ValueOrder::RealPart);
    // Mixture of the learned (possibly non-monotone) table.
    let table = weights.clone();
    let omega = move |i: usize| if i < table.len() { table[i] } else { 0.0 };
    let mix = approximate_weights(&omega, weights.len(), &DftApproxConfig::refined(40));
    let approx = mix.ranking_independent(&db);
    let k = 100;
    let d = kendall_topk(&exact.top_k_u32(k), &approx.top_k_u32(k), k);
    assert!(d < 0.15, "mixture of learned ω: distance {d}");
}

#[test]
fn alpha_learning_generalizes_from_sample_to_population() {
    let db = syn_ind(20_000, 58);
    let k = 100;
    // Teacher: PRFe(0.9).
    let truth = Ranking::from_keys(&prfe_rank_log(&db, 0.9).unwrap()).top_k_u32(k);
    let (sample, _) = subsample_independent(&db, 1_000, 59);
    let teacher_ranking = Ranking::from_keys(&prfe_rank_log(&sample, 0.9).unwrap());
    let alpha = learn_prfe_alpha_topk(&sample, teacher_ranking.order(), 4, k).unwrap();
    let learned = Ranking::from_keys(&prfe_rank_log(&db, alpha).unwrap()).top_k_u32(k);
    let d = kendall_topk(&learned, &truth, k);
    assert!(d < 0.05, "α̂ = {alpha}, distance {d}");
}

#[test]
fn mixture_weight_reconstruction_bounds() {
    // Weight-space sanity across several supports: the refined pipeline's
    // reconstruction error decreases with L and the tail stays controlled.
    for n in [100usize, 500, 2_000] {
        let step = move |i: usize| if i < n { 1.0 } else { 0.0 };
        let mut last = f64::INFINITY;
        for l in [10usize, 30, 60] {
            let mix = approximate_weights(&step, n, &DftApproxConfig::refined(l));
            let rms = mix.rms_error(&step, 2 * n);
            assert!(
                rms < last * 1.05,
                "n={n}: rms not improving: {rms} after {last}"
            );
            last = rms;
        }
        assert!(last < 0.12, "n={n}: final rms {last}");
    }
}
