//! Figure 9 — learning ranking functions from user preferences.
//!
//! (i) Learning PRFe's α: a "user" ranks a random sample of the dataset
//! with one of five functions; the grid-search learner fits α on the
//! sample; quality is the Kendall distance between PRFe(α̂)'s top-100 and
//! the user function's top-100 on the *full* dataset.
//!
//! (ii) Learning PRFω(h) weights from small samples (≤ 200, the scale at
//! which the paper's SVM-light stays tractable) with the pairwise
//! hinge-loss learner, evaluated the same way.

use prf_core::learn::{learn_prf_omega, learn_prfe_alpha_topk, RankLearnConfig};
use prf_core::query::{Algorithm, QueryBatch, RankQuery};
use prf_core::topk::ValueOrder;
use prf_core::weights::TabulatedWeight;
use prf_datasets::{iip_db, subsample_independent};
use prf_metrics::kendall_topk;
use prf_pdb::{IndependentDb, TupleId};

use crate::{fmt, header, Scale, SEED};

/// The five "user functions" of Figure 9 as full rankings of one relation,
/// computed with **one [`QueryBatch`]** per relation — the six underlying
/// queries (PT(100), log-domain PRFe(.95), E-Score, U-Rank + its PT
/// extension, E-Rank) share a single score-order walk.
pub fn user_rankings(db: &IndependentDb) -> Vec<(&'static str, Vec<TupleId>)> {
    // U-Rank produces a top-k list; extend it to a full ranking by
    // appending the rest in PT order (ties in practice immaterial for the
    // top-100 comparison).
    let ku = db.len().min(400);
    let results = QueryBatch::new()
        .add_query(RankQuery::pt(100.min(db.len().max(1))))
        .add_query(RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain))
        .add_query(RankQuery::escore())
        .add_query(RankQuery::urank(ku))
        .add_query(RankQuery::pt(ku.max(1)))
        .add_query(RankQuery::erank())
        .run(db)
        .expect("independent backend supports every semantics");
    let order_of = |i: usize| results[i].ranking.order().to_vec();
    let mut urank = order_of(3);
    let rest: Vec<TupleId> = order_of(4)
        .into_iter()
        .filter(|t| !urank.contains(t))
        .collect();
    urank.extend(rest);
    vec![
        ("PT(100)", order_of(0)),
        ("PRFe(.95)", order_of(1)),
        ("E-Score", order_of(2)),
        ("U-Rank", urank),
        ("E-Rank", order_of(5)),
    ]
}

/// Runs the Figure 9 experiments.
pub fn run(scale: Scale) {
    header("Figure 9(i): learning PRFe(α) from ranked samples");
    let n = scale.pick(100_000, 100_000);
    let k = 100;
    let db = iip_db(n, SEED);
    let sample_sizes = [1_000usize, 10_000, 100_000];
    // The full-dataset "truth" rankings: one batched walk, computed once.
    let truth_full = user_rankings(&db);

    print!("{:>10}", "samples");
    for (name, _) in &truth_full {
        print!("{name:>17}");
    }
    println!("   (Kendall distance of PRFe(α̂) top-100 to the user's top-100, full dataset)");
    for &m in &sample_sizes {
        let m = m.min(n);
        print!("{m:>10}");
        let (sample, _) = subsample_independent(&db, m, SEED + m as u64);
        // One batched walk per sample serves every user function.
        let user_samples = user_rankings(&sample);
        for ((_, user_sample), (_, truth_order)) in user_samples.iter().zip(&truth_full) {
            // Learn α against the top-k prefix of the sample ranking — the
            // quantity the evaluation measures (see EXPERIMENTS.md).
            let alpha = learn_prfe_alpha_topk(&sample, user_sample, 4, k)
                .expect("the sample ranking is non-empty and names sample tuples");
            let learned = RankQuery::prfe(alpha)
                .algorithm(Algorithm::LogDomain)
                .run(&db)
                .expect("log-domain PRFe")
                .ranking
                .top_k_u32(k);
            let truth: Vec<u32> = truth_order.iter().take(k).map(|t| t.0).collect();
            let d = kendall_topk(&learned, &truth, k);
            print!("{:>17}", format!("{} (α {:.3})", fmt(d), alpha));
        }
        println!();
    }

    header("Figure 9(ii): learning PRFω from small samples");
    let omega_samples = [50usize, 100, 200];
    print!("{:>10}", "samples");
    for (name, _) in &truth_full {
        print!("{name:>17}");
    }
    println!("   (Kendall distance of learned PRFω top-100 to the user's top-100)");
    for &m in &omega_samples {
        print!("{m:>10}");
        let (sample, _) = subsample_independent(&db, m, SEED + 31 + m as u64);
        let user_samples = user_rankings(&sample);
        for ((_, user_sample), (_, truth_order)) in user_samples.iter().zip(&truth_full) {
            let weights = learn_prf_omega(
                &sample,
                user_sample,
                &RankLearnConfig {
                    h: 100.min(m),
                    epochs: 80,
                    ..Default::default()
                },
            )
            .expect("the sample ranking is non-empty and names sample tuples");
            let learned = RankQuery::prf(TabulatedWeight::from_real(&weights))
                .value_order(ValueOrder::RealPart)
                .run(&db)
                .expect("exact PRFω")
                .ranking
                .top_k_u32(k);
            let truth: Vec<u32> = truth_order.iter().take(k).map(|t| t.0).collect();
            let d = kendall_topk(&learned, &truth, k);
            print!("{:>17}", fmt(d));
        }
        println!();
    }
    println!(
        "\nShape check (paper): PRFe-teacher is learned essentially perfectly; \
         PT(100)/U-Rank are learned well from modest samples; E-Rank is hard \
         for PRFe (its α valley is extremely narrow) and E-Score is unstable \
         at small sample sizes."
    );
}
