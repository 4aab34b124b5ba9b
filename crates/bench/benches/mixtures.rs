//! Criterion benchmarks for the PRFe-mixture pipeline (Figure 11(ii)
//! kernels) and the Kendall metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prf_core::mixture::{approximate_weights, DftApproxConfig};
use prf_core::query::{Algorithm, RankQuery};
use prf_core::topk::Ranking;
use prf_datasets::iip_db;
use prf_metrics::{kendall_topk, kendall_topk_naive};

/// The exact PT(h) ranking, pinned to the generating-function algorithm.
fn pt_ranking(db: &prf_pdb::IndependentDb, h: usize) -> Ranking {
    RankQuery::pt(h)
        .algorithm(Algorithm::ExactGf)
        .run(db)
        .expect("PT runs on independent relations")
        .ranking
}

fn bench_mixture_construction(c: &mut Criterion) {
    let h = 1000;
    let step = move |i: usize| if i < h { 1.0 } else { 0.0 };
    let mut g = c.benchmark_group("mixture_construction_h1000");
    g.sample_size(10);
    for l in [20usize, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, &l| {
            b.iter(|| black_box(approximate_weights(&step, h, &DftApproxConfig::refined(l))))
        });
    }
    g.finish();
}

fn bench_mixture_ranking(c: &mut Criterion) {
    let db = iip_db(50_000, 1);
    let h = 1000;
    let step = move |i: usize| if i < h { 1.0 } else { 0.0 };
    let mix = approximate_weights(&step, h, &DftApproxConfig::refined(20));
    let mut g = c.benchmark_group("rank_pt1000_50k");
    g.sample_size(10);
    g.bench_function("exact_pt", |b| b.iter(|| black_box(pt_ranking(&db, h))));
    g.bench_function("mixture_w20_scaled", |b| {
        b.iter(|| black_box(mix.ranking_independent(&db)))
    });
    g.bench_function("mixture_w20_fast", |b| {
        b.iter(|| black_box(mix.ranking_independent_fast(&db)))
    });
    g.finish();
}

fn bench_kendall(c: &mut Criterion) {
    let db = iip_db(30_000, 1);
    let a = pt_ranking(&db, 1000).top_k_u32(1000);
    let b_list = pt_ranking(&db, 10).top_k_u32(1000);
    let mut g = c.benchmark_group("kendall_top1000");
    g.sample_size(20);
    g.bench_function("fenwick_nlogn", |bch| {
        bch.iter(|| black_box(kendall_topk(&a, &b_list, 1000)))
    });
    g.bench_function("naive_quadratic", |bch| {
        bch.iter(|| black_box(kendall_topk_naive(&a, &b_list, 1000)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mixture_construction,
    bench_mixture_ranking,
    bench_kendall
);
criterion_main!(benches);
