//! The `live` scenario: evidence for the live-relation subsystem.
//!
//! Three sections, each pinning a design decision with a measurement:
//!
//! 1. **PRFe underflow probe** — for each real α, the smallest `n` at
//!    which plain-complex PRFe *actually* diverges from scaled-arithmetic
//!    ground truth, next to the analytic bound `n ≈ 620 / (−ln α)` that
//!    `Auto`'s α-aware `AUTO_PRFE_EXACT_MAX` threshold implements.
//! 2. **Reweight-then-requery vs rebuild-then-query** — single-tuple
//!    mutation latency through a [`LiveRelation`] (stored score order
//!    patched in place, then the ordinary walk) against rebuilding the
//!    backend and walking from scratch, for a full PRFe(0.95) log-domain
//!    ranking and a top-100, at n = 10⁴.
//! 3. **Path-compression ablation** — per-update cost of the incremental
//!    engine on deep unary spines with the compressed plan
//!    ([`EvalPlan::new`]) vs the uncompressed one
//!    ([`EvalPlan::new_uncompressed`]).

use prf_core::live::{LiveRelation, Mutation};
use prf_core::query::{Algorithm, RankQuery};
use prf_core::EvalPlan;
use prf_pdb::{IndependentDb, NodeKind, TreeBuilder, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{fmt, header, timed, Scale, SEED};

fn seeded_pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (1e6 - i as f64, rng.gen_range(0.02..0.98)))
        .collect()
}

/// Smallest `n` (scanning geometrically up to `cap`) where plain-complex
/// PRFe(α) ranks differently from scaled arithmetic, or `None` if it never
/// diverges below the cap.
fn first_divergence(alpha: f64, cap: usize) -> Option<usize> {
    let mut n = 32usize;
    let mut last_good = None;
    while n <= cap {
        let db = IndependentDb::from_pairs(seeded_pairs(n, SEED ^ n as u64)).unwrap();
        let exact = RankQuery::prfe(alpha)
            .algorithm(Algorithm::ExactGf)
            .run(&db)
            .unwrap();
        let scaled = RankQuery::prfe(alpha)
            .algorithm(Algorithm::Scaled)
            .run(&db)
            .unwrap();
        if exact.ranking.order() != scaled.ranking.order() {
            // Refine linearly between the last agreeing size and this one.
            let lo = last_good.unwrap_or(1);
            let mut m = lo;
            while m <= n {
                let db = IndependentDb::from_pairs(seeded_pairs(m, SEED ^ m as u64)).unwrap();
                let exact = RankQuery::prfe(alpha)
                    .algorithm(Algorithm::ExactGf)
                    .run(&db)
                    .unwrap();
                let scaled = RankQuery::prfe(alpha)
                    .algorithm(Algorithm::Scaled)
                    .run(&db)
                    .unwrap();
                if exact.ranking.order() != scaled.ranking.order() {
                    return Some(m);
                }
                m += (lo / 20).max(1);
            }
            return Some(n);
        }
        last_good = Some(n);
        n = (n * 5) / 4;
    }
    None
}

fn underflow_probe(scale: Scale) {
    header("PRFe plain-complex underflow: measured divergence vs analytic bound");
    let cap = scale.pick(20_000, 60_000);
    println!(
        "{:>8} {:>16} {:>16}",
        "alpha", "bound 620/-ln a", "measured n*"
    );
    for alpha in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
        let bound = (620.0 / -f64::ln(alpha)) as usize;
        let measured = first_divergence(alpha, cap);
        println!(
            "{:>8} {:>16} {:>16}",
            alpha,
            bound.min(cap),
            measured.map_or_else(|| format!("> {cap}"), |n| n.to_string()),
        );
    }
    println!("(n* = smallest relation size where the plain-complex ranking");
    println!(" differs from scaled ground truth; Auto's threshold caps the");
    println!(" exact route at min(4096, 620/-ln a) for real a in (0,1).)");
}

fn reweight_vs_rebuild(scale: Scale) {
    header("live reweight-then-requery vs rebuild-then-query");
    let n = scale.pick(10_000, 100_000);
    let rounds = scale.pick(50, 200);
    let alpha = 0.95;
    let full = RankQuery::prfe(alpha).algorithm(Algorithm::LogDomain);
    println!("n = {n}, {rounds} single-tuple reweights, PRFe({alpha}) log-domain requery:");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "shape", "live s/mut", "rebuild s/mut", "speedup"
    );
    for (name, query) in [("full", full.clone()), ("top-100", full.top_k(100))] {
        let mut pairs = seeded_pairs(n, SEED);
        let live = LiveRelation::new(IndependentDb::from_pairs(pairs.clone()).unwrap());
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x11fe);
        let (mut live_s, mut rebuild_s) = (0.0, 0.0);
        for _ in 0..rounds {
            let t = rng.gen_range(0..n);
            let p = rng.gen_range(0.02..0.98);
            let (live_answer, s) = timed(|| {
                live.apply(&Mutation::Reweight(TupleId(t as u32), p))
                    .unwrap();
                query.run(&live).unwrap()
            });
            live_s += s;
            let (rebuilt, s) = timed(|| {
                pairs[t].1 = p;
                let db = IndependentDb::from_pairs(pairs.clone()).unwrap();
                query.run(&db).unwrap()
            });
            rebuild_s += s;
            assert_eq!(rebuilt.ranking.order(), live_answer.ranking.order());
        }
        let (per_live, per_rebuild) = (live_s / rounds as f64, rebuild_s / rounds as f64);
        println!(
            "{:>8} {:>16} {:>16} {:>7.1}x",
            name,
            fmt(per_live),
            fmt(per_rebuild),
            per_rebuild / per_live
        );
    }
}

/// A forest of `groups` unary spines of the given depth, one leaf each —
/// the worst case path compression exists for.
fn spine_forest(groups: usize, depth: usize) -> prf_pdb::AndXorTree {
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    for g in 0..groups {
        let mut cur = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        for d in 0..depth {
            let p = 0.995 - 0.0001 * ((g + d) % 7) as f64;
            cur = b.add_inner(cur, NodeKind::Xor, p).unwrap();
        }
        b.add_leaf(cur, 0.5, groups as f64 - g as f64).unwrap();
    }
    b.build().unwrap()
}

fn path_compression_ablation(scale: Scale) {
    header("EvalPlan path compression: per-update cost on unary spines");
    let groups = scale.pick(512, 2048);
    let updates = scale.pick(20_000, 100_000);
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "depth", "nodes(comp)", "nodes(flat)", "comp s/upd", "flat s/upd", "speedup"
    );
    for depth in [8usize, 32, 128] {
        let tree = spine_forest(groups, depth);
        let compressed = EvalPlan::new(&tree);
        let flat = EvalPlan::new_uncompressed(&tree);
        let mut rng = StdRng::seed_from_u64(SEED ^ depth as u64);
        let mut time_plan = |plan: &EvalPlan| {
            let mut gf = plan.evaluator(|_| 1.0f64);
            let mut sink = 0.0;
            let (_, s) = timed(|| {
                for _ in 0..updates {
                    let t = TupleId(rng.gen_range(0..groups) as u32);
                    gf.set_leaf(t, rng.gen_range(0.5..2.0));
                    sink += gf.root();
                }
            });
            (s / updates as f64, sink)
        };
        let (comp, sink_a) = time_plan(&compressed);
        let (unc, sink_b) = time_plan(&flat);
        assert!(sink_a.is_finite() && sink_b.is_finite());
        println!(
            "{:>6} {:>12} {:>12} {:>14} {:>14} {:>7.1}x",
            depth,
            compressed.node_count(),
            flat.node_count(),
            fmt(comp),
            fmt(unc),
            unc / comp
        );
    }
}

/// Runs the three live-relation measurements.
pub fn run(scale: Scale) {
    underflow_probe(scale);
    reweight_vs_rebuild(scale);
    path_compression_ablation(scale);
}
