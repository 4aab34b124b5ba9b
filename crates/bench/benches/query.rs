//! Criterion micro-benchmarks for the unified `RankQuery` engine.
//!
//! Two questions:
//! 1. **Builder overhead** — a `RankQuery` run must cost the same as the
//!    direct kernel call it wraps (the engine adds one enum dispatch, a
//!    couple of allocations for the report, and two `Instant::now` calls).
//! 2. **`Auto` selection** — what the heuristic picks on the Syn-IND /
//!    Syn-XOR generators, and that resolving the choice is effectively
//!    free.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prf_core::independent::{prf_rank, prfe_rank_log};
use prf_core::query::{Algorithm, ProbabilisticRelation, RankQuery};
use prf_core::topk::{Ranking, ValueOrder};
use prf_core::weights::StepWeight;
use prf_datasets::{syn_ind, syn_xor_tree};

fn bench_builder_overhead(c: &mut Criterion) {
    let db = syn_ind(20_000, 11);
    let mut g = c.benchmark_group("query_overhead_20k");
    g.sample_size(20);

    // PRFe(0.95) in the log domain: direct kernel + ranking vs engine.
    g.bench_function("prfe_log/direct", |b| {
        b.iter(|| black_box(Ranking::from_keys(&prfe_rank_log(&db, 0.95).unwrap())))
    });
    g.bench_function("prfe_log/engine", |b| {
        b.iter(|| {
            black_box(
                RankQuery::prfe(0.95)
                    .algorithm(Algorithm::LogDomain)
                    .run(&db)
                    .expect("log-domain PRFe"),
            )
        })
    });

    // PT(100): direct kernel + ranking vs engine.
    g.bench_function("pt100/direct", |b| {
        b.iter(|| {
            black_box(Ranking::from_values(
                &prf_rank(&db, &StepWeight { h: 100 }),
                ValueOrder::RealPart,
            ))
        })
    });
    g.bench_function("pt100/engine", |b| {
        b.iter(|| black_box(RankQuery::pt(100).run(&db).expect("exact PT")))
    });
    g.finish();
}

fn bench_auto_selection(c: &mut Criterion) {
    let ind = syn_ind(100_000, 13);
    let xor = syn_xor_tree(50_000, 13);
    // Document what Auto currently picks at these scales (printed once so
    // `cargo bench` output records the decision alongside the timings).
    let q = RankQuery::prfe(0.95);
    println!(
        "Auto picks for PRFe(0.95): Syn-IND-100k → {:?}, Syn-XOR-50k → {:?}",
        q.resolve_algorithm(&ind).expect("compatible"),
        q.resolve_algorithm(&xor).expect("compatible"),
    );

    let mut g = c.benchmark_group("query_auto");
    g.sample_size(20);
    // The resolution itself must be effectively free.
    g.bench_function("resolve/syn_ind_100k", |b| {
        b.iter(|| black_box(q.resolve_algorithm(&ind).expect("compatible")))
    });
    // End-to-end Auto vs the pinned algorithm it selects.
    g.bench_function("prfe_auto/syn_ind_100k", |b| {
        b.iter(|| black_box(RankQuery::prfe(0.95).run(&ind).expect("PRFe")))
    });
    g.bench_function("prfe_pinned_log/syn_ind_100k", |b| {
        b.iter(|| {
            black_box(
                RankQuery::prfe(0.95)
                    .algorithm(Algorithm::LogDomain)
                    .run(&ind)
                    .expect("PRFe"),
            )
        })
    });
    g.bench_function("prfe_auto/syn_xor_50k", |b| {
        b.iter(|| black_box(RankQuery::prfe(0.95).run(&xor).expect("PRFe")))
    });
    g.bench_function("pt100_auto/syn_xor_50k", |b| {
        b.iter(|| black_box(RankQuery::pt(100).run(&xor).expect("PT")))
    });
    let _ = ProbabilisticRelation::correlation_class(&xor);
    g.finish();
}

criterion_group!(benches, bench_builder_overhead, bench_auto_selection);
criterion_main!(benches);
