//! Figure 11 — execution-time comparisons.
//!
//! (i) PRFe(0.95), PT(100), U-Rank (k ∈ {10, 50, 100}) and E-Rank on IIP
//! datasets of increasing size: PRFe and E-Rank are effectively linear
//! scans; PT(h)/U-Rank grow with h·n and k·n. The `build` column times
//! constructing the relation, which is where its score sort happens; the
//! query columns are scans of the stored order plus the ranking.
//!
//! (ii) Exact PT(h) vs its L-term PRFe-mixture approximations: at large h
//! the mixture is orders of magnitude faster — the paper's headline 1 hour
//! → 24 seconds anecdote.
//!
//! (iii) The same comparison on correlated data (Syn-XOR with the x-tuple
//! fast path, Syn-HIGH with the generic O(n²·h) expansion), plus the
//! incremental tree PRFe.

use prf_core::mixture::{approximate_weights, DftApproxConfig};
use prf_core::query::{Algorithm, QueryBatch, RankQuery};
use prf_datasets::{iip_db, syn_high_tree, syn_xor_tree};
use prf_pdb::IndependentDb;

use crate::{header, timed, Scale, SEED};

fn secs(t: f64) -> String {
    if t < 0.001 {
        format!("{:.1}ms", t * 1000.0)
    } else if t < 1.0 {
        format!("{:.0}ms", t * 1000.0)
    } else {
        format!("{t:.2}s")
    }
}

/// Runs the Figure 11 experiments.
pub fn run(scale: Scale) {
    header("Figure 11(i): execution time vs dataset size (IIP)");
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![20_000, 40_000, 60_000, 80_000, 100_000],
        Scale::Full => vec![200_000, 400_000, 600_000, 800_000, 1_000_000],
    };
    println!(
        "{:>10}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>8}",
        "n",
        "build",
        "PRFe(.95)",
        "PT(100)",
        "U-Rank k=10",
        "k=50",
        "k=100",
        "E-Rank",
        "batch",
        "ratio"
    );
    for &n in &sizes {
        let pairs: Vec<(f64, f64)> = iip_db(n, SEED)
            .tuples()
            .iter()
            .map(|t| (t.score, t.prob))
            .collect();
        let (db, t_build) = timed(|| {
            IndependentDb::from_pairs(pairs.iter().copied()).expect("generated pairs are valid")
        });
        // Every timing goes through the unified engine (LogDomain is what
        // Auto picks for real-α PRFe at these sizes).
        let queries = [
            RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
            RankQuery::pt(100),
            RankQuery::urank(10),
            RankQuery::urank(50),
            RankQuery::urank(100),
            RankQuery::erank(),
        ];
        let times: Vec<f64> = queries
            .iter()
            .map(|q| timed(|| q.run(&db).expect("independent backend")).1)
            .collect();
        // The same six queries as ONE batch over a shared walk — the
        // serving-workload amortization the batch engine exists for.
        let (_, t_batch) = timed(|| {
            QueryBatch::new()
                .add_queries(queries.iter().cloned())
                .run(&db)
                .expect("independent backend")
        });
        let t_seq: f64 = times.iter().sum();
        print!("{n:>10}{:>10}", secs(t_build));
        for t in &times {
            print!("{:>12}", secs(*t));
        }
        println!(
            "{:>12}{:>8}",
            secs(t_batch),
            format!("{:.2}x", t_batch / t_seq)
        );
    }
    println!(
        "(build = IndependentDb::from_pairs, which sorts by score once; batch = all six \
         queries in one QueryBatch; ratio vs their summed times)"
    );

    header("Figure 11(ii): exact PT(h) vs PRFe-mixture approximations");
    let hs: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 10_000],
        Scale::Full => vec![1_000, 10_000],
    };
    let sizes2: Vec<usize> = match scale {
        Scale::Quick => vec![50_000, 100_000],
        Scale::Full => vec![100_000, 500_000, 1_000_000],
    };
    for &h in &hs {
        println!("\nh = {h} (mixtures use the refined pipeline):");
        println!(
            "{:>10}{:>14}{:>10}{:>10}{:>10}",
            "n", "exact PT(h)", "w20", "w50", "w100"
        );
        // Mixture construction is independent of n; build once per L.
        let step = move |i: usize| if i < h { 1.0 } else { 0.0 };
        let mixes: Vec<_> = [20usize, 50, 100]
            .iter()
            .map(|&l| approximate_weights(&step, h, &DftApproxConfig::refined(l)))
            .collect();
        for &n in &sizes2 {
            let db = iip_db(n, SEED);
            let (_, t_exact) = timed(|| RankQuery::pt(h).run(&db).expect("exact PT"));
            let mut cells = vec![format!("{n:>10}"), format!("{:>14}", secs(t_exact))];
            for mix in &mixes {
                let (_, t) = timed(|| mix.ranking_independent_fast(&db));
                cells.push(format!("{:>10}", secs(t)));
            }
            println!("{}", cells.join(""));
        }
    }

    header("Figure 11(iii): correlated datasets (k = 1000 regime)");
    // Syn-XOR rides the O(n·h) x-tuple fast path; Syn-HIGH pays the generic
    // O(n²·h) expansion and is therefore run at smaller n (the paper's
    // qualitative point — exact PT on correlated data is orders of magnitude
    // slower than the mixture — shows regardless).
    let h3 = 1000;
    let xor_sizes: Vec<usize> = match scale {
        Scale::Quick => vec![20_000, 50_000, 100_000],
        Scale::Full => vec![20_000, 50_000, 100_000],
    };
    let step3 = move |i: usize| if i < h3 { 1.0 } else { 0.0 };
    let mix20 = approximate_weights(&step3, h3, &DftApproxConfig::refined(20));
    let mix50 = approximate_weights(&step3, h3, &DftApproxConfig::refined(50));
    println!(
        "{:>10}{:>10}{:>16}{:>10}{:>10}{:>10}",
        "dataset", "n", "exact PT(1000)", "w20", "w50", "PRFe"
    );
    for &n in &xor_sizes {
        let tree = syn_xor_tree(n, SEED);
        let (_, t_pt) = timed(|| RankQuery::pt(h3).run(&tree).expect("exact PT on trees"));
        let (_, t20) = timed(|| mix20.ranking_tree_fast(&tree));
        let (_, t50) = timed(|| mix50.ranking_tree_fast(&tree));
        let (_, t_pe) = timed(|| {
            RankQuery::prfe(0.95)
                .algorithm(Algorithm::Scaled)
                .run(&tree)
                .expect("scaled PRFe on trees")
        });
        println!(
            "{:>10}{n:>10}{:>16}{:>10}{:>10}{:>10}",
            "Syn-XOR",
            secs(t_pt),
            secs(t20),
            secs(t50),
            secs(t_pe)
        );
    }
    let high_sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 2_000],
        Scale::Full => vec![2_000, 5_000],
    };
    for &n in &high_sizes {
        let tree = syn_high_tree(n, SEED);
        let (_, t_pt) = timed(|| {
            RankQuery::pt(h3)
                .algorithm(Algorithm::ExactGf)
                .run(&tree)
                .expect("exact PT on trees")
        });
        let (_, t20) = timed(|| mix20.ranking_tree_fast(&tree));
        let (_, t50) = timed(|| mix50.ranking_tree_fast(&tree));
        let (_, t_pe) = timed(|| {
            RankQuery::prfe(0.95)
                .algorithm(Algorithm::Scaled)
                .run(&tree)
                .expect("scaled PRFe on trees")
        });
        println!(
            "{:>10}{n:>10}{:>16}{:>10}{:>10}{:>10}",
            "Syn-HIGH",
            secs(t_pt),
            secs(t20),
            secs(t50),
            secs(t_pe)
        );
    }
    println!(
        "\nShape check (paper): PRFe and the mixtures are near-linear and \
         orders of magnitude faster than exact PT at large h, on both \
         independent and correlated data."
    );
}
