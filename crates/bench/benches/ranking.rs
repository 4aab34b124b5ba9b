//! Criterion micro-benchmarks for the independent-tuple ranking kernels —
//! the algorithms behind Table 1 and Figure 11(i).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prf_core::independent::{prfe_rank, prfe_rank_log, prfe_rank_scaled};
use prf_core::query::{Algorithm, RankQuery};
use prf_datasets::iip_db;
use prf_numeric::Complex;

fn bench_prfe_variants(c: &mut Criterion) {
    let db = iip_db(20_000, 1);
    let mut g = c.benchmark_group("prfe_independent");
    g.sample_size(20);
    g.bench_function("plain_complex", |b| {
        b.iter(|| black_box(prfe_rank(&db, Complex::real(0.95))))
    });
    g.bench_function("log_space", |b| {
        b.iter(|| black_box(prfe_rank_log(&db, 0.95)))
    });
    g.bench_function("scaled", |b| {
        b.iter(|| black_box(prfe_rank_scaled(&db, Complex::real(0.95))))
    });
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let db = iip_db(20_000, 1);
    let mut g = c.benchmark_group("baselines_20k");
    g.sample_size(15);
    for h in [10usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::new("pt", h), &h, |b, &h| {
            b.iter(|| black_box(RankQuery::pt(h).algorithm(Algorithm::ExactGf).run(&db)))
        });
    }
    for k in [10usize, 100] {
        g.bench_with_input(BenchmarkId::new("urank", k), &k, |b, &k| {
            b.iter(|| black_box(RankQuery::urank(k).run(&db)))
        });
    }
    g.bench_function("erank", |b| {
        b.iter(|| black_box(RankQuery::erank().run(&db)))
    });
    g.bench_function("utop_k100", |b| {
        b.iter(|| black_box(RankQuery::utop(100).run(&db)))
    });
    g.finish();
}

fn bench_scaling_in_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("prfe_scaling");
    g.sample_size(10);
    for n in [10_000usize, 40_000, 160_000] {
        let db = iip_db(n, 1);
        g.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| black_box(prfe_rank_log(db, 0.95)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_prfe_variants,
    bench_baselines,
    bench_scaling_in_n
);
criterion_main!(benches);
