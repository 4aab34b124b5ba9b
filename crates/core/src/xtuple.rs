//! `O(n·h·log n)` PRFω(h) / PT(h) for x-tuples — the height-2 and/xor
//! special case — by blocks of the score order, so that a capped consumer
//! stops at the first block end where its top `k` is settled.
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
//! stable.
//!
//! **Blocks.** The timeline is cut into the fixed doubling blocks
//! `[0, 64)`, `[64, 128)`, `[128, 256)`, …, the last one clipped at `n`.
//! Each block starts from an *entering product*, rebuilt from scratch in
//! group order over every group with mass above the block and no own step
//! inside it: `O(s·h)` for a block starting at `s`, so `O(n·h)` in total.
//! The recursion then runs inside the block, its midpoints taken from the
//! block's full width. A tuple's value thus depends only on the score-order
//! prefix up to the end of its block, so a run that stops at a block end
//! computes every value it visits bit for bit as a run over all `n` tuples.
//! Each of the `O(n + G)` factor versions is multiplied into `O(log n)`
//! node products: `O(n·h·log n)` time and `O(h·log n)` extra memory.
//!
//! **Early stop.** At a block end `e`, let `P_e = Π_g (1 − q_g(e) + q_g(e)·x)`
//! be the presence distribution of the prefix. An unread tuple that is
//! present leaves its own group's prefix members absent, and every other
//! group counts at least as many present tuples above it as in the prefix;
//! dropping one group lowers the count by at most one. So with the
//! nonincreasing envelope `ω̂` of a real, non-negative, rank-only ω, every
//! unread `Υ ≤ Σ_{m ≤ h} ω̂(max(m, 1))·P_e[m]`. A capped consumer stops at
//! `e` once that bound, widened by `Cut::linear`, is below its `k`-th best
//! visited key; the kernel runs until every capped consumer has stopped.

use prf_numeric::{Complex, Poly};
use prf_pdb::{AndXorTree, Tuple, TupleId};

use crate::query::cut::Cut;
use crate::tree::score_order;
use crate::weights::WeightFunction;

/// Width of the first block; every later block is as wide as the prefix
/// above it.
const FIRST_BLOCK: usize = 64;

/// One group-factor version `(a + b·x)`, active for queries on the sweep
/// steps `lo..=hi`.
#[derive(Clone, Copy, Debug)]
struct FactorSpan {
    lo: usize,
    hi: usize,
    a: f64,
    b: f64,
}

impl FactorSpan {
    /// The factor of a group whose mass above is `q`, on `lo..=hi`.
    fn new(lo: usize, hi: usize, q: f64) -> Self {
        let (a, b) = factor(q);
        FactorSpan { lo, hi, a, b }
    }
}

/// The linear factor `(a, b)` of a group whose mass above is `q`, clamped
/// against rounding past 1.
fn factor(q: f64) -> (f64, f64) {
    ((1.0 - q).max(0.0), q.min(1.0))
}

/// One truncated weight consumer of [`rank_groups`]: ω, its horizon `h`
/// (the number of rank coefficients it reads), and, when capped, its
/// running cut with the envelope of ω over ranks `1..=h`
/// ([`crate::query::cut::envelope`]).
pub(crate) struct Consumer<'w> {
    pub(crate) omega: &'w dyn WeightFunction,
    pub(crate) h: usize,
    pub(crate) cut: Option<(Cut, Vec<f64>)>,
}

impl Consumer<'_> {
    fn walking(&self) -> bool {
        !self.cut.as_ref().is_some_and(|(cut, _)| cut.stopped())
    }
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
    let mut vals = None;
    prf_omega_rank_xtuple_each(tree, &[omega], |_, v| vals = Some(v))?;
    vals
}

/// How many values [`prf_omega_rank_xtuple_each`] holds at once: 16 MB of
/// `Complex` (64 KB in unit tests, so that small trees run in chunks).
const EACH_VALUES: usize = if cfg!(test) { 1 << 12 } else { 1 << 20 };

/// [`prf_omega_rank_xtuple`] for several truncated weights, each identical
/// to its own run: `each(i, values)` receives weight `i`'s values, in
/// order. The weights run in chunks, one run of the blocked kernel per
/// chunk, holding at most [`EACH_VALUES`] values (or one weight's) at
/// once. `None` when the tree is not in x-tuple form or a weight has no
/// truncation horizon.
pub(crate) fn prf_omega_rank_xtuple_each(
    tree: &AndXorTree,
    omegas: &[&dyn WeightFunction],
    mut each: impl FnMut(usize, Vec<Complex>),
) -> Option<()> {
    let groups = tree.x_tuple_groups()?;
    let horizons = omegas
        .iter()
        .map(|omega| omega.truncation())
        .collect::<Option<Vec<_>>>()?;
    let (order, _) = score_order(tree);
    let marginals = tree.marginals();
    let chunk = (EACH_VALUES / tree.n_tuples().max(1)).max(1);
    for (c, omegas) in omegas.chunks(chunk).enumerate() {
        let mut consumers: Vec<Consumer> = omegas
            .iter()
            .zip(&horizons[c * chunk..])
            .map(|(&omega, &h)| Consumer {
                omega,
                h,
                cut: None,
            })
            .collect();
        let vals = rank_groups(tree, &groups, &mut consumers, &order, &marginals, || false)?;
        for (i, v) in vals.into_iter().enumerate() {
            each(c * chunk + i, v);
        }
    }
    Some(())
}

/// The blocked kernel for several truncated weights at once, over the
/// tree's x-tuple `groups`, given the score order and the marginals — the
/// form the tree walk calls with its cached artifacts. One product at the
/// largest horizon still read serves every consumer as a truncation view:
/// a truncated product's low coefficients do not depend on the cap, so each
/// answer is identical to its own run.
///
/// Returns one `n`-length value vector per consumer. A capped consumer is
/// offered every value it visits and may stop at a block end (its cut's
/// `stop`); it gets no values past it, and holds zero there. `cancelled`
/// is polled between blocks; `None` once it reports `true`.
pub(crate) fn rank_groups(
    tree: &AndXorTree,
    groups: &[Vec<TupleId>],
    consumers: &mut [Consumer],
    order: &[TupleId],
    marginals: &[f64],
    cancelled: impl Fn() -> bool,
) -> Option<Vec<Vec<Complex>>> {
    let n = tree.n_tuples();
    let mut out = vec![vec![Complex::ZERO; n]; consumers.len()];
    let mut group_of = vec![0usize; n];
    for (g, members) in groups.iter().enumerate() {
        for t in members {
            group_of[t.index()] = g;
        }
    }
    // Per group: its mass above the current step, the start of the last
    // block with an own step, and its open span in the current block.
    let mut q = vec![0.0f64; groups.len()];
    let mut own = vec![usize::MAX; groups.len()];
    let mut open: Vec<Option<usize>> = vec![None; groups.len()];
    let mut start = 0;
    while start < n {
        if cancelled() {
            return None;
        }
        settle(consumers, &q, start, n);
        // The largest horizon still read; a zero horizon reads nothing and
        // leaves its values zero.
        let Some(h) = consumers
            .iter()
            .filter(|c| c.walking())
            .map(|c| c.h)
            .max()
            .filter(|&h| h > 0)
        else {
            break;
        };
        let end = (2 * start).max(FIRST_BLOCK);
        let stop = end.min(n);
        let block = &order[start..stop];
        for t in block {
            let g = group_of[t.index()];
            own[g] = start;
            open[g] = None;
        }
        let mut entering = Poly::one();
        for (g, &qg) in q.iter().enumerate() {
            if own[g] != start && qg > 0.0 {
                let (a, b) = factor(qg);
                entering.mul_linear_in_place(a, b, h);
            }
        }
        // The versions of the block's own groups: the one in force at the
        // block start, then one after each own step, each until the
        // group's next own step or the block's end.
        let mut spans: Vec<FactorSpan> = Vec::new();
        for (i, t) in (start..).zip(block) {
            let g = group_of[t.index()];
            match open[g] {
                Some(j) => spans[j].hi = i - 1,
                None if i > start && q[g] > 0.0 => spans.push(FactorSpan::new(start, i - 1, q[g])),
                None => {}
            }
            q[g] += marginals[t.index()];
            open[g] = (q[g] > 0.0).then(|| {
                spans.push(FactorSpan::new(i + 1, end - 1, q[g]));
                spans.len() - 1
            });
        }
        spans.retain(|s| s.lo <= s.hi);

        let mut block_run = Block {
            tree,
            order,
            marginals,
            n,
            h,
            weights: consumers
                .iter()
                .zip(out.iter_mut())
                .filter(|(c, _)| c.walking())
                .map(|(c, o)| (c.omega, c.h, o.as_mut_slice()))
                .collect(),
        };
        block_run.solve(start, end, spans, &entering);
        for (c, vals) in consumers.iter_mut().zip(&out) {
            if let Some((cut, _)) = c.cut.as_mut().filter(|(cut, _)| !cut.stopped()) {
                for t in block {
                    cut.offer(vals[t.index()].re, t.index());
                }
            }
        }
        start = stop;
    }
    Some(out)
}

/// Stops every walking capped consumer whose bound on the unread tuples at
/// score position `at` clears its `k`-th best key (see the module docs).
/// `q` holds every group's mass above `at`.
fn settle(consumers: &mut [Consumer], q: &[f64], at: usize, n: usize) {
    let Some(cap) = consumers
        .iter()
        .filter(|c| c.walking() && c.cut.is_some())
        .map(|c| c.h + 1)
        .max()
    else {
        return;
    };
    let mut presence = Poly::one();
    for &qg in q.iter().filter(|&&qg| qg > 0.0) {
        let (a, b) = factor(qg);
        presence.mul_linear_in_place(a, b, cap);
    }
    for c in consumers.iter_mut() {
        let h = c.h;
        if let Some((cut, envelope)) = c.cut.as_mut().filter(|(cut, _)| !cut.stopped()) {
            let bound = (0..=h)
                .map(|m| {
                    envelope
                        .get(m.max(1) - 1)
                        .map_or(0.0, |w| w * presence.coeff(m))
                })
                .sum();
            cut.stops_at(at, Cut::linear(bound, n + h));
        }
    }
}

/// One block's recursion: the walking consumers' `(ω, horizon, values)`
/// and the largest horizon `h`.
struct Block<'a> {
    tree: &'a AndXorTree,
    order: &'a [TupleId],
    marginals: &'a [f64],
    n: usize,
    h: usize,
    weights: Vec<(&'a dyn WeightFunction, usize, &'a mut [Complex])>,
}

impl Block<'_> {
    /// Recursion over the step range `[lo, hi)`: multiplies spans covering
    /// the whole range into (a clone of) `acc`, splits the rest between the
    /// halves, and evaluates every weight's Υ at single-step leaves. Steps
    /// at or past `n` (the clipped end of the last block) are skipped.
    fn solve(&mut self, lo: usize, hi: usize, spans: Vec<FactorSpan>, acc: &Poly) {
        if lo >= self.n {
            return;
        }
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
                p.mul_linear_in_place(s.a, s.b, self.h);
            }
            Some(p)
        };
        let acc = local.as_ref().unwrap_or(acc);

        if hi - lo == 1 {
            // Leaf: step `lo` queries tuple order[lo]; `acc` is the product
            // over all groups except the tuple's own (its versions skip
            // this step).
            debug_assert!(rest.is_empty());
            let t = self.order[lo];
            let p = self.marginals[t.index()];
            let tv = Tuple {
                id: t,
                score: self.tree.score(t),
                prob: p,
            };
            for (omega, h, out) in &mut self.weights {
                let mut ups = Complex::ZERO;
                for j in 1..=*h {
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
        self.solve(lo, mid, left, acc);
        self.solve(mid, hi, right, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{prf_rank_tree, prf_rank_tree_refold};
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

    /// A random x-tuple tree of exactly `n` tuples in groups of 1–5. Every
    /// third group holds its whole mass (`Σp = 1`) in multiples of 1/64, so
    /// that `1 − Σp` is an exact zero in the kernel and in the oracle alike.
    fn xtuples_of_size(seed: u64, n: usize) -> AndXorTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut groups = Vec::new();
        let mut left = n;
        while left > 0 {
            let size = rng.gen_range(1..=5usize).min(left);
            left -= size;
            let saturated = groups.len() % 3 == 0;
            let mut budget = if saturated {
                1.0
            } else {
                rng.gen_range(0.05..0.95)
            };
            let g: Vec<(f64, f64)> = (0..size)
                .map(|j| {
                    let p = match (j + 1 == size, saturated) {
                        (true, _) => budget,
                        (false, true) => {
                            (budget * 64.0 * rng.gen_range(0.1..0.7f64)).floor() / 64.0
                        }
                        (false, false) => budget * rng.gen_range(0.1..0.7),
                    };
                    budget -= p;
                    (rng.gen_range(0.0..1000.0), p)
                })
                .collect();
            groups.push(g);
        }
        AndXorTree::from_x_tuples(&groups).unwrap()
    }

    /// The blocked kernel against the full-refold oracle at sizes around
    /// the block boundaries 64 and 128, and past 256.
    #[test]
    fn blocked_kernel_matches_refold_oracle_around_block_boundaries() {
        let table: Vec<f64> = (0..12).map(|i| 0.9f64.powi(i) * (1.0 + i as f64)).collect();
        let weights: [Box<dyn WeightFunction>; 3] = [
            Box::new(StepWeight { h: 4 }),
            Box::new(StepWeight { h: 40 }),
            Box::new(TabulatedWeight::from_real(&table)),
        ];
        for (seed, n) in [63usize, 64, 65, 127, 128, 129, 300]
            .into_iter()
            .enumerate()
        {
            let tree = xtuples_of_size(seed as u64, n);
            assert_eq!(tree.n_tuples(), n);
            for w in &weights {
                let fast = prf_omega_rank_xtuple(&tree, w.as_ref()).unwrap();
                let oracle = prf_rank_tree_refold(&tree, w.as_ref());
                for (t, (f, o)) in fast.iter().zip(&oracle).enumerate() {
                    let err = (f.re - o.re).abs().max((f.im - o.im).abs());
                    assert!(err <= 1e-9 * o.abs(), "n={n} {} t{t}: {f} vs {o}", w.name());
                }
            }
        }
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
