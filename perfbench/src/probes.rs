//! Layer probes of the traced run: each calls one layer's public function
//! directly, on the workload's own data, inside a span.
//!
//! Every traced run reports every per-layer metric. A metric the workload's
//! own ops already produced is kept; the probes fill the rest. They run on
//! the workload's independent relation (`direct-iip`: the IIP relation;
//! `serve-tree`: Syn-MED's tuples as independent; `live-churn`: the live
//! relation's final state) and on a prepared Syn-MED tree (`serve-tree`'s
//! own, otherwise one generated from the seed at n = 5·10³).

use std::sync::Arc;

use prf_core::query::batch::{SharedAnswer, SharedRequest, SharedWalkSpec};
use prf_core::query::{QueryBatch, RankQuery};
use prf_core::weights::StepWeight;
use prf_core::{LiveRelation, ProbabilisticRelation, Ranking, ShardHandle, ShardedRelation};
use prf_datasets::syn_med_tree;
use prf_pdb::{AndXorTree, IndependentDb};

use crate::direct::{self, Shape};
use crate::live_churn::{self, MutationGen};
use crate::trace::Tracer;
use crate::{stats, Config, Run};

/// Op ids of probe spans start here, apart from the workload's ops.
const PROBE_OP: u64 = 1 << 40;

fn walk_spec(request: SharedRequest) -> SharedWalkSpec {
    SharedWalkSpec {
        requests: vec![request],
        threads: None,
        cancel: None,
    }
}

/// Median milliseconds of `reps` spans named `name` around `f`.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut last = None;
    for r in 0..reps {
        last = Some(tracer.span(name, PROBE_OP + r as u64, None, |_| f()));
    }
    (
        stats::median(&tracer.durations_ms(name)),
        last.expect("reps > 0"),
    )
}

pub fn run_all(
    cfg: &Config,
    tracer: &Tracer,
    indep: &IndependentDb,
    tree: Option<&AndXorTree>,
    run: &mut Run,
) {
    let reps = cfg.size(3, 1);

    // Prepare, walk and finalize, one layer at a time.
    let (prepare_ms, prep) = timed(tracer, "probe.prepare", reps, || indep.prepare());
    run.fill("prepare.order_ms", "ms", prepare_ms);
    let spec = walk_spec(SharedRequest::PrfeLog(0.95));
    let (walk_ms, out) = timed(tracer, "probe.walk.independent", reps, || {
        indep.run_shared_walk_prepared(&spec, &prep)
    });
    run.fill("walk.independent_ms", "ms", walk_ms);
    let keys = match out.map(|o| o.answers.into_iter().next()) {
        Some(Some(SharedAnswer::Log(keys))) => keys,
        _ => panic!("the independent walk answers a log-domain request with keys"),
    };
    let (full_ms, _) = timed(tracer, "probe.finalize.full", reps, || {
        Ranking::from_keys(&keys)
    });
    run.fill("finalize.rank_full_ms", "ms", full_ms);
    let (top_ms, _) = timed(tracer, "probe.finalize.top100", reps, || {
        Ranking::from_keys_topk(&keys, 100)
    });
    run.fill("finalize.rank_top100_ms", "ms", top_ms);
    drop((prep, keys));

    let generated;
    let tree = match tree {
        Some(t) => t,
        None => {
            generated = syn_med_tree(cfg.size(5_000, 500), cfg.seed ^ 0x7EE);
            &generated
        }
    };
    let tree_prep = tree.prepare();
    let spec = walk_spec(SharedRequest::Weight(Arc::new(StepWeight { h: 100 })));
    let (tree_ms, _) = timed(tracer, "probe.walk.tree", reps, || {
        tree.run_shared_walk_prepared(&spec, &tree_prep)
    });
    run.fill("walk.tree_ms", "ms", tree_ms);

    // The direct single queries, for their reports.
    if !run.has("query.total_ms") {
        let alphas = direct::alpha_pool(cfg.seed);
        let (mut kernel, mut total, mut prfe_total) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            for shape in [Shape::PrfeFull, Shape::PrfeAuto(0), Shape::Pt, Shape::Erank] {
                let q = direct::single(shape, &alphas);
                let r = tracer.span("probe.query", PROBE_OP, None, |_| q.run(indep));
                let r = r.expect("the direct shapes run on independent relations");
                kernel.push(r.report.kernel_seconds * 1e3);
                total.push(r.report.total_seconds * 1e3);
                if shape == Shape::PrfeFull {
                    prfe_total.push(r.report.total_seconds * 1e3);
                }
            }
        }
        run.set("query.kernel_ms", "ms", stats::median(&kernel));
        run.set("query.total_ms", "ms", stats::median(&total));
        run.set("query.prfe_full_total_ms", "ms", stats::median(&prfe_total));
    }
    if !run.has("query.prfe_full_total_ms") {
        let q = direct::single(Shape::PrfeFull, &[]);
        let totals: Vec<f64> = (0..reps)
            .map(|_| {
                q.run(indep)
                    .map_or(f64::NAN, |r| r.report.total_seconds * 1e3)
            })
            .collect();
        run.set("query.prfe_full_total_ms", "ms", stats::median(&totals));
    }
    let prfe_total = run.get("query.prfe_full_total_ms").unwrap_or(f64::NAN);
    run.fill(
        "query.dispatch_ms",
        "ms",
        prfe_total - prepare_ms - walk_ms - full_ms,
    );

    // E-Rank top-100 as a batch of one against a single run.
    let single = RankQuery::erank().top_k(100);
    let (single_ms, _) = timed(tracer, "probe.erank.single", reps, || single.run(indep));
    let batch = QueryBatch::new().add_query(RankQuery::erank()).top_k(100);
    let (batch_ms, _) = timed(tracer, "probe.erank.batch_of_one", reps, || {
        batch.run(indep)
    });
    run.fill("query.batch_of_one_ratio", "ratio", batch_ms / single_ms);

    // The fig 11(i) batch on 2 shards against its unsharded twin.
    let (parts, _) = direct::score_contiguous(indep, 2);
    let twin = IndependentDb::from_pairs(
        parts
            .iter()
            .flat_map(|p| p.tuple_scores().into_iter().zip(p.tuple_marginals())),
    )
    .expect("tuples of a valid relation");
    let shards = parts
        .into_iter()
        .map(|p| Arc::new(p) as ShardHandle)
        .collect();
    let sharded = ShardedRelation::new(shards, 2).expect("score-contiguous shards");
    let (sharded_ms, results) = timed(tracer, "probe.shard.batch", reps, || {
        direct::fig11_batch().run(&sharded)
    });
    let (twin_ms, _) = timed(tracer, "probe.unsharded.batch", reps, || {
        direct::fig11_batch().run(&twin)
    });
    run.fill("shard.overhead_ratio", "ratio", sharded_ms / twin_ms);
    run.fill("op.batch_p50_ms", "ms", sharded_ms);
    if let Ok(results) = results {
        if let Some(cost) = results[0].report.batch {
            run.fill("shard.walk_ms", "ms", cost.walk_seconds * 1e3);
            run.fill("walk.consumers", "count", cost.consumers as f64);
        }
        run.fill(
            "shard.finalize_ms",
            "ms",
            direct::batch_finalize_ms(&results),
        );
    }
    drop((sharded, twin));

    // Mutations applied directly to a twin, its log-key cache warm.
    let twin = LiveRelation::new(indep.clone());
    let _ = live_churn::prfe_query().run(&twin);
    let mut muts = MutationGen::new(cfg.seed ^ 0x7A1, indep);
    let applies = cfg.size(40, 5);
    for i in 0..applies {
        let m = muts.next(twin.n_tuples());
        let _ = tracer.span("probe.live.apply_direct", PROBE_OP + i as u64, None, |_| {
            twin.apply(&m)
        });
    }
    let direct_ms = stats::median(&tracer.durations_ms("probe.live.apply_direct"));
    run.fill("live.apply_direct_us", "us", direct_ms * 1e3);
    drop(twin);

    // The live-churn cycle, where the workload has no server or no live
    // relation of its own.
    if !run.has("live.apply_ms") {
        if let Err(e) =
            live_churn::probe(indep.clone(), cfg.seed, cfg.size(5, 2) as u64, tracer, run)
        {
            run.mismatch(format!("live probe: {e}"));
        }
    }
}
