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
//! Every number is a measured wall, the best of 3 runs. The scaling rows
//! rank every tuple, sharded and unsharded, both at `parallel(w)`: `w`
//! moves the finalization of both, so `ovh` (sharded over unsharded at
//! the same `w`) isolates the cost of sharding. The shards are walked one
//! after another in score order, so that cost is the monoid's extra work:
//! every shard but the last folds its presence GF into the prefix, for PT
//! a second pass over that shard.
//!
//! A second table truncates the batch to the top-100 answers a server
//! would return, at `w = 2`. That batch stops inside the first shard, so
//! its sharded wall tracks the unsharded one.

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
         tuple; w = sharded-relation workers and parallel(w) batch threads for\n\
         both columns; every wall is measured (best of 3); ovh = 4 shards vs\n\
         unsharded at the same w"
    );
    println!(
        "{:>10}{:>4}{:>11}{:>10}{:>7}",
        "n", "w", "unsharded", "4 shards", "ovh"
    );
    let mut capped = Vec::new();
    for &n in &sizes {
        let pairs = sorted_pairs(n);
        let unsharded = slice_db(&pairs);
        for w in [1usize, 2, 4] {
            let sharded =
                ShardedRelation::new(equal_shards(&pairs, SHARDS), w).expect("contiguous");
            let t_unsharded = time_batch(&unsharded, w, None);
            let t_sharded = time_batch(&sharded, w, None);
            println!(
                "{n:>10}{w:>4}{:>11}{:>10}{:>7}",
                secs(t_unsharded),
                secs(t_sharded),
                format!("{:.2}x", t_sharded / t_unsharded),
            );
            if w == 2 {
                capped.push((
                    n,
                    time_batch(&unsharded, w, Some(TOP_K)),
                    time_batch(&sharded, w, Some(TOP_K)),
                ));
            }
        }
    }
    println!(
        "\nthe same batch truncated to the top-100 answers, w = 2:\n{:>10}{:>11}{:>10}",
        "n", "unsharded", "4 shards"
    );
    for (n, t_unsharded, t_sharded) in capped {
        println!("{n:>10}{:>11}{:>10}", secs(t_unsharded), secs(t_sharded));
    }
    println!(
        "\n(ovh is the monoid's extra work, chiefly each earlier shard's\n\
         presence-GF pass for PT's coefficient prefix. The top-100 batch stops\n\
         inside shard 0 and folds no presence GF)"
    );
}
