//! Figure 8 — ranking quality of PRFe-mixture approximations.
//!
//! (i) Approximating PT(1000) (k = 1000): Kendall distance between the
//! exact PT top-k and the mixture top-k, per pipeline stage and number of
//! terms L. The paper's raw DFT sits near 0.8 (useless); the refined
//! pipeline drops under 0.1 by L ≈ 20.
//!
//! (ii) Quality vs L for three weight shapes — PT(1000), a smooth function
//! and a linear function — at two dataset sizes. Smooth functions need
//! fewer terms.

use prf_core::mixture::DftApproxConfig;
use prf_core::query::{Algorithm, RankQuery};
use prf_core::topk::ValueOrder;
use prf_core::weights::TabulatedWeight;
use prf_datasets::iip_db;
use prf_metrics::kendall_topk;
use prf_pdb::IndependentDb;

use crate::{fmt, header, Scale, SEED};

/// Distance between the exact ranking of `omega` (given as a table) and its
/// mixture approximation under `cfg` — the same PRFω query with the
/// `DftApprox` algorithm swapped in.
pub fn mixture_distance(
    db: &IndependentDb,
    omega_table: &[f64],
    exact_topk: &[u32],
    cfg: &DftApproxConfig,
    k: usize,
) -> f64 {
    let approx = RankQuery::prf(TabulatedWeight::from_real(omega_table))
        .algorithm(Algorithm::DftApprox(*cfg))
        .run(db)
        .expect("mixture PRFω on independent data")
        .ranking
        .top_k_u32(k);
    kendall_topk(exact_topk, &approx, k)
}

/// Exact PRFω(h) top-k for a weight table.
pub fn exact_topk(db: &IndependentDb, omega_table: &[f64], k: usize) -> Vec<u32> {
    RankQuery::prf(TabulatedWeight::from_real(omega_table))
        .value_order(ValueOrder::RealPart)
        .algorithm(Algorithm::ExactGf)
        .run(db)
        .expect("exact PRFω on independent data")
        .ranking
        .top_k_u32(k)
}

/// Runs the Figure 8 experiment.
#[allow(clippy::type_complexity)]
pub fn run(scale: Scale) {
    header("Figure 8(i): approximating PT(1000) with L PRFe terms");
    let n = scale.pick(100_000, 100_000);
    let h = 1000;
    let k = 1000;
    let db = iip_db(n, SEED);
    let step: Vec<f64> = vec![1.0; h];
    let exact = RankQuery::pt(h)
        .algorithm(Algorithm::ExactGf)
        .run(&db)
        .expect("exact PT")
        .ranking
        .top_k_u32(k);

    let terms = [10usize, 20, 40, 80, 120, 200];
    let stages: Vec<(&str, fn(usize) -> DftApproxConfig)> = vec![
        ("DFT", DftApproxConfig::dft_only),
        ("DFT+DF", DftApproxConfig::dft_df),
        ("DFT+DF+IS", DftApproxConfig::dft_df_is),
        ("DFT+DF+IS+ES", DftApproxConfig::full),
        ("refined(LS)", DftApproxConfig::refined),
    ];
    print!("{:>14}", "stage \\ L");
    for l in terms {
        print!("{l:>8}");
    }
    println!();
    for (name, mk) in &stages {
        print!("{name:>14}");
        for &l in &terms {
            let d = mixture_distance(&db, &step, &exact, &mk(l), k);
            print!("{:>8}", fmt(d));
        }
        println!();
    }

    header("Figure 8(ii): quality vs L for three weight shapes");
    let shapes: Vec<(&str, Vec<f64>)> = vec![
        ("PT(1000)", vec![1.0; h]),
        (
            "sfunc",
            (0..h)
                .map(|i| {
                    let t = i as f64 / h as f64;
                    0.5 * (1.0 + (std::f64::consts::PI * t).cos())
                })
                .collect(),
        ),
        (
            "linear",
            (0..h).map(|i| (h - i) as f64 / h as f64).collect(),
        ),
    ];
    let sizes = match scale {
        Scale::Quick => vec![n],
        Scale::Full => vec![100_000, 1_000_000],
    };
    for size in sizes {
        let db = iip_db(size, SEED);
        println!("\nn = {size}, k = {k} (refined pipeline):");
        print!("{:>10}", "shape \\ L");
        for l in terms {
            print!("{l:>8}");
        }
        println!();
        for (name, table) in &shapes {
            let exact = exact_topk(&db, table, k);
            print!("{name:>10}");
            for &l in &terms {
                let d = mixture_distance(&db, table, &exact, &DftApproxConfig::refined(l), k);
                print!("{:>8}", fmt(d));
            }
            println!();
        }
    }
    println!(
        "\nShape check (paper): L = 40 suffices for Kendall < 0.1 on every \
         shape; the smooth and linear functions converge fastest."
    );
}
