//! Criterion benchmarks for [`ShardedRelation`]: the fig 11(i) serving
//! batch (PRFe(0.95) + PT(100) + E-Rank as one top-100 `QueryBatch`) on
//! the IIP instance, unsharded vs 4 score-contiguous shards, each
//! sharded configuration built with `w` workers and run with
//! `QueryBatch::parallel(w)` batch threads (which fan the per-entry
//! finalization out over scoped threads), plus the batch on one shard
//! alone and the uncapped batch unsharded and on 4 shards.
//!
//! Reading the numbers: the capped batch walks the shards in score order
//! and stops inside shard 0 (every entry's top 100 settles within a few
//! hundred to a few ten thousand tuples), so the `sharded_4x/*_workers`
//! rows sit near `unsharded`. Independent shards walk on one thread, so
//! the worker count moves only the per-entry finalization. The two
//! `uncapped` rows rank in full: the sharded one walks all 4 shards in
//! turn, folding each earlier shard's presence GFs into the prefix, so
//! their ratio is the monoid's work overhead on a full ranking.
//!
//! Measure mode runs the paper-scale n = 10⁶; smoke mode (CI test job)
//! shrinks to n = 20 000 so the debug-profile single pass stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use prf_core::query::{Algorithm, ProbabilisticRelation, QueryBatch, RankQuery};
use prf_core::{ShardHandle, ShardedRelation};
use prf_datasets::iip_db;
use prf_pdb::IndependentDb;

const SEED: u64 = 20090412;
const SHARDS: usize = 4;
const TOP_K: usize = 100;

fn measure_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

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

fn equal_shards(pairs: &[(f64, f64)]) -> Vec<ShardHandle> {
    let n = pairs.len();
    (0..SHARDS)
        .map(|i| Arc::new(slice_db(&pairs[i * n / SHARDS..(i + 1) * n / SHARDS])) as ShardHandle)
        .collect()
}

fn fig11_batch() -> Vec<RankQuery> {
    vec![
        RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        RankQuery::pt(100),
        RankQuery::erank(),
    ]
}

/// The batch, capped at `top_k` when given (else ranking every tuple).
fn run_batch(
    rel: &(impl ProbabilisticRelation + ?Sized),
    queries: &[RankQuery],
    threads: usize,
    top_k: Option<usize>,
) {
    let batch = QueryBatch::new().add_queries(queries.iter().cloned());
    let batch = match top_k {
        Some(k) => batch.top_k(k),
        None => batch,
    };
    black_box(
        batch
            .parallel(threads)
            .run(rel)
            .expect("independent backends"),
    );
}

fn bench_shard_scaling(c: &mut Criterion) {
    let n = if measure_mode() { 1_000_000 } else { 20_000 };
    let pairs = sorted_pairs(n);
    let queries = fig11_batch();
    let unsharded = slice_db(&pairs);
    let one_shard = slice_db(&pairs[..n / SHARDS]);

    let mut g = c.benchmark_group(format!("shard_scaling_iip_{n}"));
    g.sample_size(3);
    g.bench_function("unsharded", |b| {
        b.iter(|| run_batch(&unsharded, &queries, 1, Some(TOP_K)))
    });
    for workers in [1usize, 2, 4] {
        let sharded = ShardedRelation::new(equal_shards(&pairs), workers).expect("contiguous");
        g.bench_function(format!("sharded_4x/{workers}_workers"), |b| {
            b.iter(|| run_batch(&sharded, &queries, workers, Some(TOP_K)))
        });
    }
    // One quarter alone: the capped sharded rows less the shard overhead.
    g.bench_function("one_shard_standalone", |b| {
        b.iter(|| run_batch(&one_shard, &queries, 1, Some(TOP_K)))
    });
    g.bench_function("unsharded_uncapped", |b| {
        b.iter(|| run_batch(&unsharded, &queries, 2, None))
    });
    let sharded = ShardedRelation::new(equal_shards(&pairs), 2).expect("contiguous");
    g.bench_function("sharded_4x/2_workers_uncapped", |b| {
        b.iter(|| run_batch(&sharded, &queries, 2, None))
    });
    g.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
