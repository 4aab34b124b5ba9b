//! Differential tests for the incremental generating-function engine: the
//! incremental walks must agree, value-level within 1e-9 relative, with the
//! retained full-refold oracles (`prf_rank_tree_refold`,
//! `prfe_rank_tree_recompute`) for every tree-capable semantics × numeric
//! mode, on random and/xor trees and on the directed edge-case shapes the
//! engine's plan compiler handles specially (chains, single-child inner
//! nodes, zero-probability edges, ∨ slack, extreme truncations).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prf::core::parallel::{effective_walk_threads, PARALLEL_MIN_SHARD_TUPLES};
use prf::core::query::{Algorithm, PreparedRelation, QueryBatch, RankQuery, Semantics};
use prf::core::tree::{
    expected_ranks_tree, prf_rank_tree, prf_rank_tree_refold, prfe_rank_tree,
    prfe_rank_tree_recompute, prfe_rank_tree_scaled,
};
use prf::core::{ConstantWeight, ExponentialWeight, StepWeight};
use prf::numeric::Complex;
use prf::pdb::{AndXorTree, NodeKind, TreeBuilder, TupleId};

/// `|a − b| ≤ tol·(1 + max(|a|, |b|))` — the relative agreement the
/// acceptance criteria demand.
fn close_rel(a: Complex, b: Complex, tol: f64) -> bool {
    let scale = 1.0 + a.abs().max(b.abs());
    (a - b).abs() <= tol * scale
}

fn assert_all_close(got: &[Complex], want: &[Complex], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(close_rel(*g, *w, 1e-9), "{ctx} t{t}: {g} vs {w}");
    }
}

/// A random general and/xor tree driven by a seed (so proptest shrinks over
/// scalars, not tree structures).
fn random_tree(seed: u64, target_leaves: usize, max_depth: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let root_kind = if rng.gen_bool(0.5) {
        NodeKind::And
    } else {
        NodeKind::Xor
    };
    let mut b = TreeBuilder::new(root_kind);
    let mut frontier = vec![(b.root(), root_kind, 0usize, 1.0f64)];
    let mut leaves = 0usize;
    while leaves < target_leaves {
        let idx = rng.gen_range(0..frontier.len());
        let (node, kind, depth, budget) = frontier[idx];
        let is_xor = matches!(kind, NodeKind::Xor);
        let p = if is_xor {
            // Occasionally emit an exactly-zero edge probability.
            if rng.gen_bool(0.1) {
                0.0
            } else {
                let p = rng.gen_range(0.0..budget.min(0.5));
                frontier[idx].3 -= p;
                p
            }
        } else {
            1.0
        };
        if depth >= max_depth || rng.gen_bool(0.6) {
            b.add_leaf(node, p, rng.gen_range(0.0..100.0)).unwrap();
            leaves += 1;
        } else {
            let child_kind = if rng.gen_bool(0.5) {
                NodeKind::And
            } else {
                NodeKind::Xor
            };
            let child = b.add_inner(node, child_kind, p).unwrap();
            frontier.push((child, child_kind, depth + 1, 1.0));
        }
    }
    b.build().unwrap()
}

/// A caterpillar: an ∧/∨ spine of the given depth with one leaf hanging at
/// every level — leaf depths grow linearly, the worst case for per-tuple
/// path recombination.
fn chain_tree(levels: usize, seed: u64) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let mut cur = b.root();
    for i in 0..levels {
        b.add_leaf(cur, 1.0, rng.gen_range(0.0..100.0))
            .unwrap_or_else(|e| panic!("leaf {i}: {e:?}"));
        let xor = b.add_inner(cur, NodeKind::Xor, 1.0).unwrap();
        let p = rng.gen_range(0.3..0.9);
        b.add_leaf(xor, 1.0 - p, rng.gen_range(0.0..100.0)).unwrap();
        cur = b.add_inner(xor, NodeKind::And, p).unwrap();
    }
    b.add_leaf(cur, 1.0, rng.gen_range(0.0..100.0)).unwrap();
    b.build().unwrap()
}

/// Nested single-child ∧ chains (which the plan compiler collapses) around
/// ∨ nodes with slack and zero-probability edges.
fn degenerate_tree() -> AndXorTree {
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    // ∧ → ∧ → ∧ → leaf (single-child chain).
    let a1 = b.add_inner(root, NodeKind::And, 1.0).unwrap();
    let a2 = b.add_inner(a1, NodeKind::And, 1.0).unwrap();
    b.add_leaf(a2, 1.0, 50.0).unwrap();
    // ∨ with slack 0.4, one p = 0 edge, and a nested single-child ∧.
    let x = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x, 0.0, 60.0).unwrap();
    b.add_leaf(x, 0.35, 40.0).unwrap();
    let xa = b.add_inner(x, NodeKind::And, 0.25).unwrap();
    b.add_leaf(xa, 1.0, 55.0).unwrap();
    // A certain tuple (p = 1 through its ∨).
    let y = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(y, 1.0, 45.0).unwrap();
    b.build().unwrap()
}

/// A random x-tuple tree of `groups` exclusive groups (1–4 alternatives,
/// some saturating their group's probability mass).
fn random_xtuple_tree(seed: u64, groups: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec: Vec<Vec<(f64, f64)>> = (0..groups)
        .map(|g| {
            let alts = rng.gen_range(1..5);
            let mut budget = 1.0f64;
            (0..alts)
                .map(|j| {
                    let p = if g % 3 == 0 && j == alts - 1 {
                        budget
                    } else {
                        rng.gen_range(0.0..budget * 0.8)
                    };
                    budget -= p;
                    (rng.gen_range(0.0..1000.0), p)
                })
                .collect()
        })
        .collect();
    AndXorTree::from_x_tuples(&spec).expect("valid groups")
}

fn check_prf_all_truncations(tree: &AndXorTree, ctx: &str) {
    let n = tree.n_tuples();
    let hs = [1usize, 2, n.div_ceil(2), n];
    for &h in &hs {
        let w = StepWeight { h };
        assert_all_close(
            &prf_rank_tree(tree, &w),
            &prf_rank_tree_refold(tree, &w),
            &format!("{ctx} PT({h})"),
        );
    }
    // Untruncated, tuple-independent weight (full-degree expansion).
    let w = ExponentialWeight::real(0.85);
    assert_all_close(
        &prf_rank_tree(tree, &w),
        &prf_rank_tree_refold(tree, &w),
        &format!("{ctx} PRFe-as-PRFω"),
    );
    let w = ConstantWeight;
    assert_all_close(
        &prf_rank_tree(tree, &w),
        &prf_rank_tree_refold(tree, &w),
        &format!("{ctx} constant ω"),
    );
}

fn check_prfe_all_modes(tree: &AndXorTree, ctx: &str) {
    for alpha in [
        Complex::real(0.0),
        Complex::real(0.5),
        Complex::real(1.0),
        Complex::new(0.6, 0.35),
    ] {
        let inc = prfe_rank_tree(tree, alpha);
        let rec = prfe_rank_tree_recompute(tree, alpha);
        assert_all_close(&inc, &rec, &format!("{ctx} PRFe({alpha})"));
        // Scaled arithmetic agrees with plain at test scale.
        let scaled = prfe_rank_tree_scaled(tree, alpha);
        for (t, (s, p)) in scaled.iter().zip(&rec).enumerate() {
            assert!(
                close_rel(s.to_plain(), *p, 1e-9),
                "{ctx} scaled PRFe({alpha}) t{t}"
            );
        }
    }
}

#[test]
fn chain_trees_match_oracles() {
    for levels in [1usize, 2, 17, 60] {
        let tree = chain_tree(levels, levels as u64);
        check_prf_all_truncations(&tree, &format!("chain({levels})"));
        check_prfe_all_modes(&tree, &format!("chain({levels})"));
    }
}

#[test]
fn degenerate_shapes_match_oracles() {
    let tree = degenerate_tree();
    check_prf_all_truncations(&tree, "degenerate");
    check_prfe_all_modes(&tree, "degenerate");
    // Expected ranks agree with world enumeration on this shape too.
    let worlds = tree.enumerate_worlds(1 << 16).unwrap();
    let scores = tree.scores();
    let er = expected_ranks_tree(&tree);
    for (t, &er_t) in er.iter().enumerate() {
        let tid = TupleId(t as u32);
        let brute: f64 = worlds
            .worlds
            .iter()
            .map(|(w, p)| match w.rank_of(tid, scores) {
                Some(r) => p * r as f64,
                None => p * w.len() as f64,
            })
            .sum();
        assert!((er_t - brute).abs() < 1e-8, "t{t}: {er_t} vs {brute}");
    }
}

/// ≈ 200 tuples with marginals near 0.5 in a general (non-x-tuple) shape:
/// 66 ∨ groups under an ∧ root, each holding one leaf (p = .45) and one ∧
/// pair of ∨-guarded leaves (group edge .55, leaf p = .9). A tuple near the
/// bottom of the score order is in the top 5 only if at most 4 of the ~190
/// tuples above it are present, so its PT(5) value falls to ~1e-50.
fn deep_tail_tree(seed: u64) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    for _ in 0..66 {
        let group = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(group, 0.45, rng.gen_range(0.0..1000.0)).unwrap();
        let pair = b.add_inner(group, NodeKind::And, 0.55).unwrap();
        for _ in 0..2 {
            let guard = b.add_inner(pair, NodeKind::Xor, 1.0).unwrap();
            b.add_leaf(guard, 0.9, rng.gen_range(0.0..1000.0)).unwrap();
        }
    }
    b.build().unwrap()
}

/// The walk's tail values hold their **relative** precision across ~50
/// decades: every non-zero refold value is matched within 1e-9 of itself,
/// and no value goes negative. An absolute tolerance would pass anything
/// below 1e-9; updating ∧ products additively (`F += (x − 1)·G`) instead of
/// recomputing them fails here by cancellation.
#[test]
fn tail_values_keep_relative_precision() {
    for seed in 0..3u64 {
        let tree = deep_tail_tree(seed);
        let w = StepWeight { h: 5 };
        let oracle = prf_rank_tree_refold(&tree, &w);
        let tiniest = oracle
            .iter()
            .map(|v| v.re)
            .filter(|&v| v > 0.0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            tiniest < 1e-40,
            "seed {seed}: the tail must reach deep ({tiniest:e})"
        );
        let walked = prf_rank_tree(&tree, &w);
        let queried = RankQuery::pt(5)
            .algorithm(Algorithm::ExactGf)
            .run(&tree)
            .unwrap();
        let queried = queried.values.as_complex().unwrap();
        for (ctx, got) in [("walk", &walked[..]), ("query", queried)] {
            for (t, (g, o)) in got.iter().zip(&oracle).enumerate() {
                assert!(g.re >= 0.0, "seed {seed} {ctx} t{t}: negative {g}");
                assert!(
                    (*g - *o).abs() <= 1e-9 * o.abs(),
                    "seed {seed} {ctx} t{t}: {:e} vs {:e}",
                    g.re,
                    o.re
                );
            }
        }
    }
}

#[test]
fn parallel_shards_match_serial_on_general_trees() {
    // The engine shards a tree walk only from `PARALLEL_MIN_SHARD_TUPLES`
    // tuples per worker, so every thread count below really shards.
    let n = 8 * PARALLEL_MIN_SHARD_TUPLES;
    let tree = random_tree(0, n, 4);
    let w = StepWeight { h: 7 };
    let serial = prf_rank_tree(&tree, &w);
    for threads in [2usize, 3, 8] {
        assert_eq!(effective_walk_threads(n, Some(threads)), threads);
        let par = RankQuery::prf(w).parallel(threads).run(&tree).unwrap();
        let par = par.values.as_complex().unwrap();
        assert_all_close(par, &serial, &format!("threads {threads}"));
    }
}

#[test]
fn stats_peak_covers_resident_on_every_shape() {
    for seed in 0..4u64 {
        let tree = random_tree(seed, 30, 4);
        let report = RankQuery::pt(5).run(&tree).unwrap().report;
        let stats = report.memory.expect("a tree walk reports its memory");
        assert!(stats.plan_nodes >= tree.n_tuples());
        assert!(stats.peak_coefficients >= stats.resident_coefficients);
        assert!(stats.peak_bytes >= stats.peak_coefficients * 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental symbolic engine ≡ the literal Algorithm 2 refold for
    /// random trees × truncations.
    #[test]
    fn prf_incremental_equals_refold(seed in 0u64..5000, leaves in 3usize..16, h in 1usize..18) {
        let tree = random_tree(seed, leaves, 4);
        let w = StepWeight { h };
        let inc = prf_rank_tree(&tree, &w);
        let refold = prf_rank_tree_refold(&tree, &w);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], refold[t], 1e-9), "t{t}: {} vs {}", inc[t], refold[t]);
        }
    }

    /// The division-free incremental PRFe ≡ the per-tuple recompute oracle,
    /// real and complex α.
    #[test]
    fn prfe_incremental_equals_recompute(
        seed in 0u64..5000,
        leaves in 3usize..16,
        re in 0.0f64..1.0,
        im in 0.0f64..0.8,
    ) {
        let tree = random_tree(seed, leaves, 4);
        let alpha = Complex::new(re, im);
        let inc = prfe_rank_tree(&tree, alpha);
        let rec = prfe_rank_tree_recompute(&tree, alpha);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], rec[t], 1e-9), "t{t}: {} vs {}", inc[t], rec[t]);
        }
    }

    /// On x-tuple trees the walk answers truncated weights with the x-tuple
    /// kernel (no evaluator runs, so no memory is reported) — and those
    /// answers ≡ the refold oracle for every horizon h ∈ [1, n], alone,
    /// batched with a walk consumer, and through a prepared relation.
    #[test]
    fn xtuple_routed_walk_equals_refold(
        seed in 0u64..5000,
        groups in 1usize..9,
        frac in 0.0f64..1.0,
    ) {
        let tree = random_xtuple_tree(seed, groups);
        let n = tree.n_tuples();
        let h = 1 + ((n - 1) as f64 * frac) as usize;
        let oracle = prf_rank_tree_refold(&tree, &StepWeight { h });
        let single = RankQuery::pt(h).run(&tree).unwrap();
        prop_assert!(single.report.memory.is_none(), "PT({h}) must skip the walk");
        let batch = QueryBatch::new()
            .add(Semantics::Pt(h))
            .add(Semantics::ERank)
            .run(&tree)
            .unwrap();
        let prepared = PreparedRelation::from_relation(tree.clone());
        let served = RankQuery::prf(StepWeight { h }).run(&prepared).unwrap();
        for (ctx, got) in [("single", &single), ("batch", &batch[0]), ("prepared", &served)] {
            let got = got.values.as_complex().unwrap();
            for t in 0..n {
                prop_assert!(
                    close_rel(got[t], oracle[t], 1e-9),
                    "{ctx} h={h} t{t}: {} vs {}", got[t], oracle[t]
                );
            }
        }
    }

    /// Weight functions with arbitrary per-rank tables agree too (the
    /// general PRFω case, truncated at the table length).
    #[test]
    fn prf_tabulated_weights_agree(seed in 0u64..5000, table in proptest::collection::vec(-2.0f64..2.0, 1..10)) {
        let tree = random_tree(seed, 10, 3);
        let w = prf::core::TabulatedWeight::from_real(&table);
        let inc = prf_rank_tree(&tree, &w);
        let refold = prf_rank_tree_refold(&tree, &w);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], refold[t], 1e-9));
        }
    }
}
