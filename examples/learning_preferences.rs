//! Learning a ranking function from user feedback (Section 5.2).
//!
//! A "user" ranks a small sample of the database according to their hidden
//! preference function; we fit (a) the single PRFe parameter α by grid
//! search and (b) a full PRFω(h) weight table by pairwise hinge-loss
//! descent, then check how well each learned function reproduces the user's
//! ranking on the complete database — the learned functions run through the
//! unified `RankQuery` engine like any built-in semantics.
//!
//! ```text
//! cargo run --release --example learning_preferences
//! ```

use prf::core::learn::{learn_prf_omega, learn_prfe_alpha_topk, RankLearnConfig};
use prf::datasets::{subsample_independent, syn_ind};
use prf::prelude::*;

fn main() {
    let n = 20_000;
    let db = syn_ind(n, 7);
    let k = 100;

    // The user's hidden preference: PT(100) semantics.
    let hidden = |db: &prf::pdb::IndependentDb| {
        RankQuery::pt(100.min(db.len()))
            .run(db)
            .expect("PT on independent data")
            .ranking
    };
    let truth_full = hidden(&db).top_k_u32(k);

    println!("hidden user preference: PT(100); database: Syn-IND-{n}");
    println!("\nsample size → learned-α quality and learned-ω quality (top-{k} Kendall):");
    println!(
        "{:>9}{:>10}{:>14}{:>14}",
        "sample", "α̂", "PRFe(α̂) dist", "PRFω dist"
    );

    for m in [100usize, 500, 2_000] {
        let (sample, _) = subsample_independent(&db, m, 1000 + m as u64);
        let user_ranking = hidden(&sample).order().to_vec();

        // (a) Fit α, focusing the objective on the top-k prefix the user
        // actually cares about (see `prf::core::learn`), then rank the full
        // relation with the learned PRFe(α̂).
        let alpha = learn_prfe_alpha_topk(&sample, &user_ranking, 4, k)
            .expect("the user ranks a non-empty sample");
        let learned_e = RankQuery::prfe(alpha)
            .run(&db)
            .expect("PRFe on independent data")
            .ranking
            .top_k_u32(k);
        let d_e = kendall_topk(&learned_e, &truth_full, k);

        // (b) Fit PRFω(h) weights and rank with the learned table.
        let weights = learn_prf_omega(
            &sample,
            &user_ranking,
            &RankLearnConfig {
                h: 100.min(m),
                epochs: 80,
                ..Default::default()
            },
        )
        .expect("the user ranks a non-empty sample");
        let learned_w = RankQuery::prf(TabulatedWeight::from_real(&weights))
            .value_order(ValueOrder::RealPart)
            .run(&db)
            .expect("PRFω on independent data")
            .ranking
            .top_k_u32(k);
        let d_w = kendall_topk(&learned_w, &truth_full, k);

        println!("{m:>9}{alpha:>10.4}{d_e:>14.4}{d_w:>14.4}");
    }

    println!(
        "\nReading: even modest samples pin down a PRFe(α) that reproduces \
         the user's PT(100) watchlist closely; the PRFω learner needs the \
         positional-probability features of only the sample, never the full \
         relation."
    );
}
