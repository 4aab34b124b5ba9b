//! Sharded-relation scaling — a Figure 11-style scenario for
//! [`ShardedRelation`].
//!
//! The IIP instance (score-descending) is split into 4 equal
//! score-contiguous `IndependentDb` shards and the fig 11(i) serving
//! batch — PRFe(0.95), PT(100), E-Rank as ONE `QueryBatch` — runs on a
//! sharded relation of `w` workers with `w` batch threads
//! (`QueryBatch::parallel(w)`, which fans the per-entry finalization out
//! over scoped threads).
//!
//! Every number is a measured wall, the best of 3 runs. The scaling
//! columns rank every tuple. The shards are walked one after another in
//! score order, so `ovh` (sharded over unsharded) is the monoid's extra
//! work: every shard but the last folds its presence GF into the prefix,
//! for PT a second pass over that shard. Independent shards walk on one
//! thread, so `w` moves only the finalization.
//!
//! The last columns truncate the batch to the top-100 answers a server
//! would return. That batch stops inside the first shard, so its sharded
//! wall tracks the unsharded one.

use std::sync::Arc;

use prf_core::query::{Algorithm, ProbabilisticRelation, QueryBatch, RankQuery};
use prf_core::{ShardHandle, ShardedRelation};
use prf_datasets::iip_db;
use prf_pdb::IndependentDb;

use crate::{header, timed, Scale, SEED};

const SHARDS: usize = 4;
const TOP_K: usize = 100;

fn secs(t: f64) -> String {
    if t < 0.001 {
        format!("{:.1}ms", t * 1000.0)
    } else if t < 1.0 {
        format!("{:.0}ms", t * 1000.0)
    } else {
        format!("{t:.2}s")
    }
}

/// The IIP instance's `(score, prob)` pairs, score-descending, so equal
/// slices are score-contiguous shards and shard-major ids match the
/// unsharded relation's.
fn sorted_pairs(n: usize) -> Vec<(f64, f64)> {
    let db = iip_db(n, SEED);
    let mut pairs: Vec<(f64, f64)> = db
        .tuple_scores()
        .into_iter()
        .zip(db.tuple_marginals())
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    pairs
}

fn slice_db(pairs: &[(f64, f64)]) -> IndependentDb {
    IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs")
}

fn equal_shards(pairs: &[(f64, f64)], k: usize) -> Vec<ShardHandle> {
    let n = pairs.len();
    (0..k)
        .map(|i| Arc::new(slice_db(&pairs[i * n / k..(i + 1) * n / k])) as ShardHandle)
        .collect()
}

/// The fig 11(i) serving batch: a point consumer, a coefficient consumer
/// and the E-Rank dual point, all off one shared walk, answering with the
/// top-100 prefix a server would return.
fn batch_queries() -> Vec<RankQuery> {
    vec![
        RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        RankQuery::pt(100),
        RankQuery::erank(),
    ]
}

/// The best wall of 3 timed batch runs (first-touch page faults and
/// allocator warm-up dominate a cold run at n = 10⁶), ranking every tuple
/// or, with `top_k`, that many.
fn time_batch(
    rel: &(impl ProbabilisticRelation + ?Sized),
    threads: usize,
    top_k: Option<usize>,
) -> f64 {
    let queries = batch_queries();
    (0..3)
        .map(|_| {
            timed(|| {
                let batch = QueryBatch::new().add_queries(queries.iter().cloned());
                top_k
                    .map_or(batch.clone(), |k| batch.top_k(k))
                    .parallel(threads)
                    .run(rel)
                    .expect("independent backends")
            })
            .1
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the sharded-scaling experiment.
pub fn run(scale: Scale) {
    header("Sharded relations: fig 11(i)-style scaling (IIP, 4 score-contiguous shards)");
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![100_000, 200_000],
        Scale::Full => vec![500_000, 1_000_000],
    };
    println!(
        "batch = PRFe(.95) + PT(100) + E-Rank as one QueryBatch ranking every\n\
         tuple; config w = w sharded-relation workers + parallel(w) batch\n\
         threads; every column is a measured wall (best of 3); 'top100' =\n\
         the same batch truncated to top-100, unsharded and on 4 shards with\n\
         2 workers"
    );
    println!(
        "{:>10}{:>11}{:>9}{:>9}{:>9}{:>7}{:>13}{:>12}",
        "n", "unsharded", "4sh/1w", "4sh/2w", "4sh/4w", "ovh", "top100 unsh", "top100 4sh"
    );
    for &n in &sizes {
        let pairs = sorted_pairs(n);
        let unsharded = slice_db(&pairs);
        let t_unsharded = time_batch(&unsharded, 1, None);
        let t_capped = time_batch(&unsharded, 2, Some(TOP_K));
        let mut walls = Vec::new();
        let mut t_capped_sharded = 0.0;
        for w in [1usize, 2, 4] {
            let sharded =
                ShardedRelation::new(equal_shards(&pairs, SHARDS), w).expect("contiguous");
            walls.push(time_batch(&sharded, w, None));
            if w == 2 {
                t_capped_sharded = time_batch(&sharded, w, Some(TOP_K));
            }
        }
        println!(
            "{n:>10}{:>11}{:>9}{:>9}{:>9}{:>7}{:>13}{:>12}",
            secs(t_unsharded),
            secs(walls[0]),
            secs(walls[1]),
            secs(walls[2]),
            format!("{:.2}x", walls[0] / t_unsharded),
            secs(t_capped),
            secs(t_capped_sharded),
        );
    }
    println!(
        "\n(ovh = 1-worker sharded wall vs unsharded on the full ranking — the\n\
         monoid's extra work, chiefly each earlier shard's presence-GF pass for\n\
         PT's coefficient prefix. The top-100 batch stops inside shard 0 and\n\
         folds no presence GF)"
    );
}
