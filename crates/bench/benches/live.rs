//! Criterion benchmarks for the live-relation mutation pipeline: a
//! single-tuple reweight followed by a PRFe(0.95) log-domain requery
//! through [`LiveRelation`] vs tearing the backend down and rebuilding it,
//! at n = 10⁴ (EXPERIMENTS.md "Live relations" records the numbers).
//!
//! A live requery takes the same score-order walk as a frozen relation:
//! the mutation patches the stored order in place, so the live path saves
//! the rebuild's construction sort. A full ranking still pays the walk and
//! the ranking sort; a top-100 requery stops its walk early and ranks only
//! the visited prefix.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prf_core::live::{LiveRelation, Mutation};
use prf_core::query::{Algorithm, RankQuery};
use prf_pdb::{IndependentDb, TupleId};

const N: usize = 10_000;
const ALPHA: f64 = 0.95;

/// Distinct scores, well-separated probabilities — the same shape the
/// `experiments live` scenario and tests/live_equivalence.rs use.
fn seeded_pairs(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            (
                n as f64 - i as f64,
                0.05 + 0.9 * ((i * 7919) % 997) as f64 / 997.0,
            )
        })
        .collect()
}

/// The reweight each iteration applies: cycle a deterministic tuple/prob
/// stream so the relation never drifts toward a degenerate state.
fn churn(step: usize) -> (usize, f64) {
    (
        (step * 4099) % N,
        0.02 + 0.95 * ((step * 131) % 89) as f64 / 89.0,
    )
}

fn bench_reweight_requery(c: &mut Criterion) {
    let full = RankQuery::prfe(ALPHA).algorithm(Algorithm::LogDomain);
    let queries = [("requery", full.clone()), ("top100", full.top_k(100))];
    let mut g = c.benchmark_group("live_reweight_10k");

    let live = LiveRelation::new(IndependentDb::from_pairs(seeded_pairs(N)).unwrap());
    for (name, query) in &queries {
        let mut step = 0usize;
        g.bench_function(format!("live_reweight_then_{name}"), |b| {
            b.iter(|| {
                let (t, p) = churn(step);
                step += 1;
                live.apply(&Mutation::Reweight(TupleId(t as u32), p))
                    .unwrap();
                black_box(query.run(&live).unwrap())
            })
        });
    }

    let mut pairs = seeded_pairs(N);
    for (name, query) in &queries {
        let mut step = 0usize;
        g.bench_function(format!("rebuild_then_{name}"), |b| {
            b.iter(|| {
                let (t, p) = churn(step);
                step += 1;
                pairs[t].1 = p;
                let db = IndependentDb::from_pairs(pairs.clone()).unwrap();
                black_box(query.run(&db).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reweight_requery);
criterion_main!(benches);
