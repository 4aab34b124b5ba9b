//! The thread-parallel tree walk.
//!
//! The score-order walk of the incremental engine looks inherently serial —
//! every step depends on the previous labelling — but the fold state at any
//! position `i` is a pure function of the *labels* (tuples before `i` carry
//! `x`, the rest `1`), so a worker can **fast-forward**: build its evaluator
//! directly in the shard-start labelling with one `O(tree)` fold, then walk
//! only its shard. All workers share one compiled
//! [`EvalPlan`](crate::incremental::EvalPlan); total work is one extra fold
//! per worker on top of the serial incremental cost.

use prf_pdb::AndXorTree;

use crate::incremental::GfStats;
use crate::query::batch::SharedAnswer;
use crate::query::CancelToken;
use crate::tree::{BatchConsumers, BatchWalkers, TreePrepared};

/// Minimum tuples **per shard** for the sharded batch walk to beat the
/// serial incremental walk.
///
/// Shard setup used to cost one full `O(tree)` fast-forward fold per
/// worker per evaluator — 1.5–2.5× *slower* than serial at `n = 10⁴`
/// on Syn-MED trees, which put the original floor at `2¹⁵`. The workers
/// now share the fold prefix (one all-ones fold, bulk-advanced one chunk
/// per shard boundary and cloned — see
/// [`crate::incremental::IncrementalGf::set_leaves_bulk`]), leaving only
/// the serial sweep, one snapshot copy per worker, and the merge:
/// measured 8–19% total-work overhead at 2–4 threads for shards of
/// 2¹¹–2¹⁴ tuples (Syn-MED, PT(50)), and a measured 1.6× wall speedup at
/// n ≥ 2¹⁴ on 2 cores (PT(50) top-10: 288 → 175 ms at 2¹⁴, 582 → 360 ms
/// at 2¹⁵). The floor drops 8× accordingly;
/// below 2¹² the per-shard walk no longer amortizes the snapshot copy
/// and scheduling granularity. An under-sharded walk merely runs serial
/// (correct, and still the faster choice on tiny batches).
pub const PARALLEL_MIN_SHARD_TUPLES: usize = 1 << 12;

/// The worker count a shared walk **actually** runs with once sharding is
/// gated on `n/threads` versus the fast-forward cost: the requested count
/// when every shard clears [`PARALLEL_MIN_SHARD_TUPLES`], serial (1)
/// otherwise. Exposed so callers (and the regression test pinning that
/// small-`n` batches resolve to the serial route) can inspect the decision
/// without running a walk.
pub fn effective_walk_threads(n: usize, requested: Option<usize>) -> usize {
    match requested {
        Some(t) if t > 1 && n / t >= PARALLEL_MIN_SHARD_TUPLES => t,
        _ => 1,
    }
}

/// The sharded walk of [`crate::tree::batch_walk_tree`]: every worker
/// fast-forwards the full consumer set (the shared polynomial evaluator
/// plus one scalar evaluator per PRFe/E-Rank request) into its shard-start
/// labelling over **one** compiled [`EvalPlan`](crate::incremental::EvalPlan),
/// walks only its shard, and the shards' answers are merged into
/// `answers` (whose shapes the shard-local buffers copy). Returns the merged
/// evaluator accounting, or `None` when any shard saw `cancel` tripped.
///
/// # Panics
/// Panics if `threads == 0` or the tree is empty (callers gate on `n > 0`).
pub(crate) fn walk_shards(
    tree: &AndXorTree,
    cancel: Option<&CancelToken>,
    consumers: &BatchConsumers,
    prep: &TreePrepared,
    threads: usize,
    answers: &mut [SharedAnswer],
) -> Option<GfStats> {
    assert!(threads > 0, "need at least one thread");
    let n = tree.n_tuples();
    let order = &prep.order;
    let pos = &prep.pos;
    let marginals = &prep.marginals;
    let plan = &prep.plan;

    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    // Shared fold prefix: ONE all-ones fast-forward, bulk-advanced one chunk
    // of `x`/`α` labels per shard boundary, with a snapshot cloned for each
    // worker — instead of every worker re-folding the full consumer set
    // from scratch (`threads ×` the setup work).
    let mut snapshots = Vec::with_capacity(threads);
    {
        let mut base = BatchWalkers::fast_forward(plan, consumers, |_| false);
        let mut prev_lo = 0usize;
        for w in 0..threads {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                continue; // rounding can leave trailing shards empty
            }
            if lo > prev_lo {
                base.advance_bulk(|u| {
                    let p = pos[u.index()];
                    prev_lo <= p && p < lo
                });
                prev_lo = lo;
            }
            snapshots.push((lo, hi, base.clone()));
        }
    }
    type Shard = Option<(usize, usize, Vec<SharedAnswer>, GfStats)>;
    let mut shards: Vec<Shard> = Vec::with_capacity(snapshots.len());
    let shapes: &[SharedAnswer] = answers;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(snapshots.len());
        for (lo, hi, mut walkers) in snapshots {
            let order = &order;
            let marginals = &marginals;
            handles.push(scope.spawn(move || {
                // Shard-sized buffers (position `i − lo`), not full-length
                // per worker.
                let mut local: Vec<SharedAnswer> =
                    shapes.iter().map(|a| a.zeroed(hi - lo)).collect();
                for (i, &t) in order.iter().enumerate().take(hi).skip(lo) {
                    // Cooperative cancellation: every shard polls, and any
                    // tripped poll abandons the whole walk after the join.
                    if (i - lo) & 0xFF == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
                        return None;
                    }
                    walkers.step(t);
                    let tv = crate::tree::tuple_view(tree, marginals, t);
                    walkers.extract(consumers, &tv, &mut local, i - lo);
                }
                Some((lo, hi, local, walkers.stats()))
            }));
        }
        for h in handles {
            shards.push(h.join().expect("worker panicked"));
        }
    });

    let mut stats = GfStats::default();
    for shard in shards {
        let (lo, hi, local, shard_stats) = shard?; // any cancelled shard abandons the walk
        for (j, &t) in order[lo..hi].iter().enumerate() {
            for (dst, src) in answers.iter_mut().zip(&local) {
                copy_answer_at(dst, src, t.index(), j);
            }
        }
        stats = stats.merge(shard_stats);
    }
    Some(stats)
}

/// Copies one tuple's value from a shard-local answer buffer (indexed by
/// shard position) into the merged buffer (indexed by tuple id).
fn copy_answer_at(dst: &mut SharedAnswer, src: &SharedAnswer, dst_idx: usize, src_idx: usize) {
    match (dst, src) {
        (SharedAnswer::Complex(d), SharedAnswer::Complex(s)) => d[dst_idx] = s[src_idx],
        (SharedAnswer::Log(d), SharedAnswer::Log(s)) => d[dst_idx] = s[src_idx],
        (SharedAnswer::Scaled(d), SharedAnswer::Scaled(s)) => d[dst_idx] = s[src_idx],
        (SharedAnswer::Ranks(d), SharedAnswer::Ranks(s)) => d[dst_idx] = s[src_idx],
        _ => unreachable!("shard buffers share the merged buffers' shapes"),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::query::batch::{SharedRequest, SharedWalkSpec};
    use crate::tree::prf_rank_tree;
    use crate::tree::tests::random_tree2;
    use crate::weights::StepWeight;
    use prf_numeric::Complex;

    /// PT(h) on `threads` workers of [`walk_shards`], with the merged
    /// accounting.
    fn parallel_pt(tree: &AndXorTree, h: usize, threads: usize) -> (Vec<Complex>, GfStats) {
        let spec = SharedWalkSpec {
            requests: vec![SharedRequest::Weight(Arc::new(StepWeight { h }))],
            threads: None,
            cancel: None,
        };
        let n = tree.n_tuples();
        let consumers = BatchConsumers::parse(&spec, n, false);
        let mut answers = spec.answer_buffers(n);
        let prep = TreePrepared::new(tree);
        let stats = walk_shards(tree, None, &consumers, &prep, threads, &mut answers)
            .expect("an uncancellable walk finishes");
        match answers.pop() {
            Some(SharedAnswer::Complex(vals)) => (vals, stats),
            _ => unreachable!("one weight answer"),
        }
    }

    fn assert_matches_serial(tree: &AndXorTree, h: usize, threads: &[usize], ctx: &str) {
        let serial = prf_rank_tree(tree, &StepWeight { h });
        for &threads in threads {
            let (par, _) = parallel_pt(tree, h, threads);
            for t in 0..tree.n_tuples() {
                assert!(
                    par[t].approx_eq(serial[t], 1e-12),
                    "{ctx} threads={threads} t={t}: {} vs {}",
                    par[t],
                    serial[t]
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let tree = AndXorTree::from_x_tuples(&[
            vec![(10.0, 0.4), (9.0, 0.3)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.5), (6.0, 0.2), (5.0, 0.1)],
            vec![(4.0, 1.0)],
        ])
        .unwrap();
        assert_matches_serial(&tree, 4, &[1, 2, 4, 16], "x-tuples");
    }

    #[test]
    fn parallel_shards_match_serial_on_general_trees() {
        // Below the `effective_walk_threads` floor, so only a direct call
        // shards these.
        for seed in 0..4u64 {
            let tree = random_tree2(seed, 40, 4);
            assert_matches_serial(&tree, 7, &[2, 3, 8], &format!("seed {seed}"));
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let tree = AndXorTree::from_x_tuples(&[vec![(1.0, 0.5)]]).unwrap();
        let (par, _) = parallel_pt(&tree, 1, 8);
        assert_eq!(par.len(), 1);
        assert!((par[0].re - 0.5).abs() < 1e-12);
    }
    #[test]
    fn sharding_gate_boundary() {
        // Below the per-shard floor the gate degrades to serial; at or
        // above it the requested count passes through. With the shared
        // fold prefix the floor sits at 2¹² tuples per shard, so n = 10⁴
        // now shards two ways (it used to lose outright) but still not
        // four.
        assert_eq!(effective_walk_threads(10_000, Some(4)), 1);
        assert_eq!(effective_walk_threads(10_000, Some(2)), 2);
        assert_eq!(
            effective_walk_threads(2 * PARALLEL_MIN_SHARD_TUPLES, Some(2)),
            2
        );
        assert_eq!(
            effective_walk_threads(2 * PARALLEL_MIN_SHARD_TUPLES - 1, Some(2)),
            1,
            "one tuple short of two full shards"
        );
        assert_eq!(
            effective_walk_threads(4 * PARALLEL_MIN_SHARD_TUPLES, Some(4)),
            4
        );
        // Serial requests and degenerate counts are untouched.
        assert_eq!(effective_walk_threads(usize::MAX, None), 1);
        assert_eq!(effective_walk_threads(usize::MAX, Some(1)), 1);
        assert_eq!(effective_walk_threads(0, Some(8)), 1);
    }

    #[test]
    fn parallel_stats_merge_shards() {
        let tree = AndXorTree::from_x_tuples(&[
            vec![(10.0, 0.4), (9.0, 0.3)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.5), (6.0, 0.2)],
        ])
        .unwrap();
        let (_, s1) = parallel_pt(&tree, 3, 1);
        let (_, s2) = parallel_pt(&tree, 3, 2);
        assert!(s1.plan_nodes > 0);
        // Two concurrent shards hold two evaluators.
        assert_eq!(s2.plan_nodes, 2 * s1.plan_nodes);
    }
}
