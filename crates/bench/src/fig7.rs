//! Figure 7 — how the PRFe(α) spectrum relates to the other ranking
//! functions as `α = 1 − 0.9^i` sweeps towards 1.
//!
//! For each α on the sweep, the Kendall distance between PRFe(α)'s top-100
//! and each baseline's top-100. The paper's reading: PRFe starts near the
//! score/top-1 ranking for small α, ends at the probability ranking at
//! α = 1, and passes close to every other function somewhere in between —
//! with a "uni-valley" distance curve that justifies the grid-search
//! learner.

use prf_core::query::{Algorithm, QueryBatch, RankQuery, Semantics};
use prf_core::topk::Ranking;
use prf_datasets::{iip_db, syn_ind};
use prf_metrics::kendall_topk;
use prf_pdb::IndependentDb;

use crate::{fmt, header, Scale, SEED};

/// The baselines of Figure 7 as `(name, top-k ids)`. Four semantics run
/// through **one [`QueryBatch`]**: PT(h) and E-Rank share its score-order
/// walk, while E-Score (closed form) and U-Rank (candidate tables) ride
/// along as individually evaluated entries of the same call. Score/Prob,
/// the two deterministic endpoints, stay free functions, and U-Top (set
/// semantics) is evaluated separately so a missing set answer degrades
/// gracefully instead of failing the batch.
pub fn baselines(db: &IndependentDb, h: usize, k: usize) -> Vec<(&'static str, Vec<u32>)> {
    let batch = QueryBatch::new()
        .add(Semantics::EScore)
        .add(Semantics::Pt(h))
        .add(Semantics::URank(k))
        .add(Semantics::ERank)
        .run(db)
        .expect("independent backend supports every semantics");
    let mut tops = batch.into_iter().map(|r| r.ranking.top_k_u32(k));
    vec![
        ("Score", Ranking::from_keys(&db.scores()).top_k_u32(k)),
        ("Prob", Ranking::from_keys(&db.probabilities()).top_k_u32(k)),
        ("E-Score", tops.next().expect("4 batched answers")),
        ("PT(100)", tops.next().expect("4 batched answers")),
        ("U-Rank", tops.next().expect("4 batched answers")),
        ("E-Rank", tops.next().expect("4 batched answers")),
        (
            "U-Top",
            RankQuery::utop(k)
                .run(db)
                .ok()
                .and_then(|r| r.set)
                .map(|s| s.members.iter().map(|t| t.0).collect())
                .unwrap_or_default(),
        ),
    ]
}

/// One sweep: for each `i` in `points`, α = 1 − 0.9^i, the distances from
/// PRFe(α) to every baseline.
pub fn sweep(
    db: &IndependentDb,
    points: &[f64],
    k: usize,
) -> (Vec<&'static str>, Vec<(f64, Vec<f64>)>) {
    let base = baselines(db, k, k);
    let names: Vec<&'static str> = base.iter().map(|(n, _)| *n).collect();
    let mut rows = Vec::with_capacity(points.len());
    for &i in points {
        let alpha = (1.0 - 0.9f64.powf(i)).clamp(0.0, 1.0);
        let mine = RankQuery::prfe(alpha)
            .algorithm(Algorithm::LogDomain)
            .run(db)
            .expect("log-domain PRFe on independent data")
            .ranking
            .top_k_u32(k);
        let dists: Vec<f64> = base
            .iter()
            .map(|(_, b)| kendall_topk(&mine, b, k))
            .collect();
        rows.push((i, dists));
    }
    (names, rows)
}

fn print_sweep(title: &str, names: &[&str], rows: &[(f64, Vec<f64>)]) {
    println!("\n{title} (α = 1 − 0.9^i, top-100 Kendall distance to PRFe(α))");
    print!("{:>6}{:>8}", "i", "alpha");
    for n in names {
        print!("{n:>9}");
    }
    println!();
    for (i, dists) in rows {
        let alpha = 1.0 - 0.9f64.powf(*i);
        print!("{i:>6}{:>8}", format!("{alpha:.4}"));
        for d in dists {
            print!("{:>9}", fmt(*d));
        }
        println!();
    }
}

/// Runs the Figure 7 experiment.
pub fn run(scale: Scale) {
    header("Figure 7: PRFe(α) vs other ranking functions across the α sweep");
    let k = 100;
    let mut points: Vec<f64> = (0..=20).map(|j| j as f64 * 10.0).collect();
    points.extend([1.0, 3.0, 5.0, 15.0, 25.0]);
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    points.dedup();

    let n_iip = scale.pick(100_000, 100_000);
    let iip = iip_db(n_iip, SEED);
    let (names, rows) = sweep(&iip, &points, k);
    print_sweep(&format!("IIP-{n_iip}"), &names, &rows);
    summarize(&names, &rows);

    let syn = syn_ind(1000, SEED + 1);
    let (names2, rows2) = sweep(&syn, &points, k);
    print_sweep("Syn-IND-1000", &names2, &rows2);
    summarize(&names2, &rows2);
}

/// Prints, per baseline, the sweep position where PRFe comes closest —
/// the "PRFe can approximate each of them somewhere" reading of Figure 7.
fn summarize(names: &[&str], rows: &[(f64, Vec<f64>)]) {
    println!("closest approach per function:");
    for (j, name) in names.iter().enumerate() {
        let (best_i, best_d) = rows
            .iter()
            .map(|(i, d)| (*i, d[j]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty sweep");
        println!(
            "  {name:>8}: min distance {} at i = {best_i} (α = {:.4})",
            fmt(best_d),
            1.0 - 0.9f64.powf(best_i)
        );
    }
}
