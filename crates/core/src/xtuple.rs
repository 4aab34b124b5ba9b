//! `O(n·h·log n)` PRFω(h) / PT(h) for x-tuples — the height-2 and/xor
//! special case.
//!
//! For x-tuples (an ∧ root over ∨ groups of leaves) the number of
//! higher-scored present tuples from each group `g` is Bernoulli with
//! success probability `q_g = Σ_{t'∈g, t' above t} p(t')`, independently
//! across groups. The per-tuple generating function is therefore a product
//! of *linear* factors, one per group:
//!
//! ```text
//! Fᵗ(x) = p(t)·x · Π_{g' ≠ g(t)} ((1 − q_{g'}) + q_{g'}·x)
//! ```
//!
//! A tempting incremental algorithm maintains the truncated product across
//! the score sweep with one synthetic division + one multiplication per
//! step (`O(h)` each). That division is numerically **catastrophic**: its
//! error recursion amplifies by `q/(1−q)` per coefficient, i.e. by
//! `(q/(1−q))^h` overall — at `h = 64` a single `q = 0.9` group already
//! destroys all precision (verified by test below).
//!
//! Instead this module uses an offline divide-and-conquer over the sweep
//! timeline, the standard "product of all but the current factor" technique:
//! each group-factor *version* is active on an interval of sweep steps
//! (excluding the steps that query that group); intervals are distributed
//! segment-tree style over a recursion on the timeline, multiplying factors
//! into a cloned truncated product on the way down and evaluating Υ at the
//! leaves. No divisions ever happen, so the computation is unconditionally
//! stable; each of the `O(n + G)` versions is multiplied into `O(log n)`
//! node products, giving `O(n·h·log n)` time and `O(h·log n)` extra memory.

use prf_numeric::{Complex, Poly};
use prf_pdb::{AndXorTree, Tuple, TupleId};

use crate::tree::score_order;
use crate::weights::WeightFunction;

/// One group-factor version `(a + b·x)`, active for queries on the sweep
/// steps `lo..=hi`.
#[derive(Clone, Copy, Debug)]
struct FactorSpan {
    lo: usize,
    hi: usize,
    a: f64,
    b: f64,
}

/// Truncated PRFω(h) over an x-tuple tree, or `None` when the tree is not in
/// x-tuple form or the weight function has no truncation horizon.
///
/// Produces the same Υ values as [`crate::tree::prf_rank_tree`] but in
/// `O(n·h·log n)` instead of `O(n²·h)`.
pub fn prf_omega_rank_xtuple(
    tree: &AndXorTree,
    omega: &dyn WeightFunction,
) -> Option<Vec<Complex>> {
    let groups = tree.x_tuple_groups()?;
    let h = omega.truncation()?;
    let (order, pos) = score_order(tree);
    let marginals = tree.marginals();
    rank_groups(tree, &groups, &[(omega, h)], &order, &pos, &marginals).pop()
}

/// [`prf_omega_rank_xtuple`] for several truncated weights `(ω, h)` at
/// once, over the tree's x-tuple `groups`, given the score order, its
/// inverse permutation and the marginals — the form the tree walk calls
/// with its cached artifacts. One divide and conquer at the largest
/// horizon serves every weight as a truncation view: a truncated product's
/// low coefficients do not depend on the cap, so each answer is identical
/// to its own run.
pub(crate) fn rank_groups(
    tree: &AndXorTree,
    groups: &[Vec<TupleId>],
    weights: &[(&dyn WeightFunction, usize)],
    order: &[TupleId],
    pos: &[usize],
    marginals: &[f64],
) -> Vec<Vec<Complex>> {
    let n = tree.n_tuples();
    let mut out = vec![vec![Complex::ZERO; n]; weights.len()];
    let h = weights.iter().map(|&(_, h)| h).max().unwrap_or(0);
    if n == 0 || h == 0 {
        return out;
    }

    // Per group, the member steps in sweep order, and the factor versions.
    let mut spans: Vec<FactorSpan> = Vec::with_capacity(n + groups.len());
    for members in groups {
        let mut steps: Vec<usize> = members.iter().map(|t| pos[t.index()]).collect();
        steps.sort_unstable();
        let mut q = 0.0f64;
        for (j, &s) in steps.iter().enumerate() {
            q += marginals[order[s].index()];
            // This version is in force for queries strictly after step s and
            // up to (but excluding) the group's next own step; own steps are
            // excluded because the queried tuple's group factor is left out
            // of Fᵗ.
            let lo = s + 1;
            let hi = match steps.get(j + 1) {
                Some(&next) => next.saturating_sub(1),
                None => n - 1,
            };
            if lo <= hi {
                spans.push(FactorSpan {
                    lo,
                    hi,
                    a: (1.0 - q).max(0.0),
                    b: q.min(1.0),
                });
            }
        }
    }

    // Divide and conquer over the timeline.
    let acc = Poly::one();
    solve(
        tree, weights, h, order, marginals, 0, n, spans, &acc, &mut out,
    );
    out
}

/// Recursion over the step range `[lo, hi)`: multiplies spans covering the
/// whole range into (a clone of) `acc`, splits the rest between the halves,
/// and evaluates every weight's Υ at single-step leaves (`h` is the
/// largest horizon).
#[allow(clippy::too_many_arguments)]
fn solve(
    tree: &AndXorTree,
    weights: &[(&dyn WeightFunction, usize)],
    h: usize,
    order: &[TupleId],
    marginals: &[f64],
    lo: usize,
    hi: usize,
    spans: Vec<FactorSpan>,
    acc: &Poly,
    out: &mut [Vec<Complex>],
) {
    // Fold every fully-covering span into this node's product.
    let mut covering: Vec<&FactorSpan> = Vec::new();
    let mut rest: Vec<FactorSpan> = Vec::new();
    for s in &spans {
        if s.lo <= lo && s.hi >= hi - 1 {
            covering.push(s);
        } else {
            rest.push(*s);
        }
    }
    let local = if covering.is_empty() {
        None
    } else {
        let mut p = acc.clone();
        for s in covering {
            p.mul_linear_in_place(s.a, s.b, h);
        }
        Some(p)
    };
    let acc = local.as_ref().unwrap_or(acc);

    if hi - lo == 1 {
        // Leaf: step `lo` queries tuple order[lo]; `acc` is the product over
        // all groups except the tuple's own (its versions skip this step).
        debug_assert!(rest.is_empty());
        let t = order[lo];
        let p = marginals[t.index()];
        let tv = Tuple {
            id: t,
            score: tree.score(t),
            prob: p,
        };
        for (&(omega, h), out) in weights.iter().zip(out.iter_mut()) {
            let mut ups = Complex::ZERO;
            for j in 1..=h {
                let c = acc.coeff(j - 1);
                if c != 0.0 {
                    ups += omega.weight(&tv, j) * c;
                }
            }
            out[t.index()] = ups * p;
        }
        return;
    }

    let mid = lo + (hi - lo) / 2;
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for s in rest {
        if s.lo < mid {
            left.push(FactorSpan {
                hi: s.hi.min(mid - 1),
                ..s
            });
        }
        if s.hi >= mid {
            right.push(FactorSpan {
                lo: s.lo.max(mid),
                ..s
            });
        }
    }
    solve(tree, weights, h, order, marginals, lo, mid, left, acc, out);
    solve(tree, weights, h, order, marginals, mid, hi, right, acc, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::prf_rank_tree;
    use crate::weights::{PositionWeight, StepWeight, TabulatedWeight};
    use prf_pdb::AndXorTree;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_xtuples(seed: u64, n_groups: usize, saturate_some: bool) -> AndXorTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut groups = Vec::new();
        for gi in 0..n_groups {
            let size = rng.gen_range(1..=4);
            let mut g = Vec::new();
            let saturated = saturate_some && gi % 3 == 0 && size > 1;
            let mut budget = 1.0f64;
            for j in 0..size {
                let score = rng.gen_range(0.0..1000.0);
                let p = if saturated && j == size - 1 {
                    budget // exhaust the probability mass: q = 1 exactly
                } else {
                    let p = rng.gen_range(0.0..budget * 0.8);
                    budget -= p;
                    p
                };
                g.push((score, p));
            }
            groups.push(g);
        }
        AndXorTree::from_x_tuples(&groups).unwrap()
    }

    #[test]
    fn fast_path_matches_generic_tree_expansion() {
        for seed in 0..12u64 {
            let tree = random_xtuples(seed, 6, seed % 2 == 0);
            let w = StepWeight { h: 5 };
            let fast = prf_omega_rank_xtuple(&tree, &w).expect("x-tuple form");
            let slow = prf_rank_tree(&tree, &w);
            for t in 0..tree.n_tuples() {
                assert!(
                    fast[t].approx_eq(slow[t], 1e-8),
                    "seed {seed} t{t}: {} vs {}",
                    fast[t],
                    slow[t]
                );
            }
        }
    }

    #[test]
    fn stable_at_large_h_with_heavy_groups() {
        // The regression that killed the divide-based sweep: groups whose
        // probability mass above the line exceeds 0.5 amplify synthetic-
        // division error as (q/(1−q))^h. The D&C path must stay exact.
        let mut rng = StdRng::seed_from_u64(9);
        let mut groups = Vec::new();
        for _ in 0..60 {
            let size = rng.gen_range(2..=5);
            let total: f64 = rng.gen_range(0.5..0.999);
            let mut g = Vec::new();
            let mut left = total;
            for j in 0..size {
                let p = if j == size - 1 {
                    left
                } else {
                    let p = left * rng.gen_range(0.2..0.8);
                    left -= p;
                    p
                };
                g.push((rng.gen_range(0.0..1000.0), p));
            }
            groups.push(g);
        }
        let tree = AndXorTree::from_x_tuples(&groups).unwrap();
        for h in [64usize, 200] {
            let w = StepWeight { h };
            let fast = prf_omega_rank_xtuple(&tree, &w).unwrap();
            let slow = prf_rank_tree(&tree, &w);
            for t in 0..tree.n_tuples() {
                assert!(
                    (fast[t].re - slow[t].re).abs() < 1e-9,
                    "h={h} t{t}: {} vs {}",
                    fast[t].re,
                    slow[t].re
                );
            }
        }
    }

    #[test]
    fn fast_path_with_position_and_tabulated_weights() {
        let tree = random_xtuples(99, 5, true);
        for w in [
            Box::new(PositionWeight { j: 2 }) as Box<dyn WeightFunction>,
            Box::new(TabulatedWeight::from_real(&[1.0, 0.5, 0.25, 0.125])),
        ] {
            let fast = prf_omega_rank_xtuple(&tree, w.as_ref()).unwrap();
            let slow = prf_rank_tree(&tree, w.as_ref());
            for t in 0..tree.n_tuples() {
                assert!(
                    fast[t].approx_eq(slow[t], 1e-8),
                    "{} t{t}: {} vs {}",
                    w.name(),
                    fast[t],
                    slow[t]
                );
            }
        }
    }

    #[test]
    fn rejects_non_xtuple_trees() {
        use prf_pdb::{NodeKind, TreeBuilder};
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let and = b.add_inner(root, NodeKind::And, 0.5).unwrap();
        b.add_leaf(and, 1.0, 1.0).unwrap();
        b.add_leaf(and, 1.0, 2.0).unwrap();
        let tree = b.build().unwrap();
        assert!(prf_omega_rank_xtuple(&tree, &StepWeight { h: 2 }).is_none());
    }

    #[test]
    fn rejects_untruncated_weights() {
        let tree = random_xtuples(1, 3, false);
        assert!(prf_omega_rank_xtuple(&tree, &crate::weights::ConstantWeight).is_none());
    }

    #[test]
    fn independent_tuples_as_singleton_groups() {
        // Singleton groups = independent tuples; compare against the
        // independent-tuple algorithm.
        let pairs = [
            (50.0, 0.9),
            (40.0, 0.2),
            (30.0, 0.6),
            (20.0, 1.0),
            (10.0, 0.3),
        ];
        let groups: Vec<Vec<(f64, f64)>> = pairs.iter().map(|&p| vec![p]).collect();
        let tree = AndXorTree::from_x_tuples(&groups).unwrap();
        let db = prf_pdb::IndependentDb::from_pairs(pairs).unwrap();
        let w = StepWeight { h: 3 };
        let fast = prf_omega_rank_xtuple(&tree, &w).unwrap();
        let ind = crate::independent::prf_rank(&db, &w);
        for t in 0..db.len() {
            assert!(fast[t].approx_eq(ind[t], 1e-9), "t{t}");
        }
    }
}
