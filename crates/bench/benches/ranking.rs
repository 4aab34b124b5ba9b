//! Criterion micro-benchmarks for the independent-tuple ranking kernels —
//! the algorithms behind Table 1 and Figure 11(i).
//!
//! The `one_shot` group times relation construction apart from unprepared
//! queries at the paper's scale: an `IndependentDb` sorts its tuples by
//! score once, when it is built, so the sort shows up under
//! `construct_from_pairs` and the queries pay only the scan and the
//! ranking. The full PRFe(.95) ranking sorts the walk's score-order key
//! stream; PRFe(.999) and E-Rank keys stray too far from score order, so
//! those two rows time the by-id fallback. The top-100 queries stop their
//! scan once the answer is settled. Measure mode runs n = 10⁶ and prints the process's peak RSS;
//! smoke mode (CI test job) shrinks to n = 20 000.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prf_core::independent::{prfe_rank, prfe_rank_log, prfe_rank_scaled};
use prf_core::query::{Algorithm, RankQuery};
use prf_datasets::iip_db;
use prf_numeric::Complex;
use prf_pdb::IndependentDb;

fn measure_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// `VmHWM` of this process (Linux `/proc`), or `None` elsewhere.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

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

fn bench_one_shot(c: &mut Criterion) {
    let n = if measure_mode() { 1_000_000 } else { 20_000 };
    let db = iip_db(n, 1);
    let pairs: Vec<(f64, f64)> = db.tuples().iter().map(|t| (t.score, t.prob)).collect();
    let mut g = c.benchmark_group(format!("one_shot_iip_{n}"));
    g.sample_size(10);
    g.bench_function("construct_from_pairs", |b| {
        b.iter(|| black_box(IndependentDb::from_pairs(pairs.iter().copied())))
    });
    g.bench_function("prfe_0.95_log_full", |b| {
        b.iter(|| {
            black_box(
                RankQuery::prfe(0.95)
                    .algorithm(Algorithm::LogDomain)
                    .run(&db),
            )
        })
    });
    // Its keys drift too far from score order for the walk's stream: the
    // ranking falls back to the by-id sort, like E-Rank's.
    g.bench_function("prfe_0.999_log_full", |b| {
        b.iter(|| {
            black_box(
                RankQuery::prfe(0.999)
                    .algorithm(Algorithm::LogDomain)
                    .run(&db),
            )
        })
    });
    g.bench_function("erank_full", |b| {
        b.iter(|| black_box(RankQuery::erank().run(&db)))
    });
    g.bench_function("pt_100_top_100", |b| {
        b.iter(|| black_box(RankQuery::pt(100).top_k(100).run(&db)))
    });
    g.bench_function("prfe_0.9_top_100", |b| {
        b.iter(|| black_box(RankQuery::prfe(0.9).top_k(100).run(&db)))
    });
    g.bench_function("erank_top_100", |b| {
        b.iter(|| black_box(RankQuery::erank().top_k(100).run(&db)))
    });
    g.finish();
    if measure_mode() {
        match peak_rss_mb() {
            Some(mb) => println!("one_shot_iip_{n}/peak_rss {mb:.1} MB"),
            None => println!("one_shot_iip_{n}/peak_rss unavailable"),
        }
    }
}

criterion_group!(
    benches,
    bench_prfe_variants,
    bench_baselines,
    bench_scaling_in_n,
    bench_one_shot
);
criterion_main!(benches);
