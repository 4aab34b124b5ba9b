//! `direct-iip`: library calls from one caller thread, closed loop, on the
//! IIP relation at n = 10⁶ as `iip_db` generates it (unsorted, unprepared).
//!
//! Four ops in five are single `RankQuery::run` calls — PRFe(.95)
//! log-domain with a full ranking, PRFe(α) `Auto` top-100 with α from a
//! seeded pool, PT(100) top-100 and E-Rank top-100. The fifth is the fig
//! 11(i) `QueryBatch` (PRFe(.95) + PT(100) + E-Rank, top-100,
//! `parallel(2)`) on a 2-shard `ShardedRelation` with 2 pool workers built
//! from the same tuples. Answers are kept per query shape and checked
//! after the window against the closed-form oracles.

use std::sync::Arc;
use std::time::Instant;

use prf_core::query::{Algorithm, QueryBatch, RankQuery, RankedResult};
use prf_core::{ProbabilisticRelation, ShardHandle, ShardedRelation, TupleId};
use prf_datasets::iip_db;
use prf_pdb::IndependentDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{self, Reference};
use crate::trace::Tracer;
use crate::{ms_since, probes, stats, Config, Run};

const TOP_K: usize = 100;
const PT_H: usize = 100;
const ALPHA_POOL: usize = 4;

/// The relation twice: as generated, and as 2 score-contiguous shards.
pub struct Fixture {
    pub db: IndependentDb,
    pub sharded: ShardedRelation,
    /// Original id of each sharded (score-order) id.
    pub sorted_ids: Vec<u32>,
}

/// Splits `db` into `parts` score-contiguous `IndependentDb`s; returns them
/// with the original id of each position of their concatenation.
pub fn score_contiguous(db: &IndependentDb, parts: usize) -> (Vec<IndependentDb>, Vec<u32>) {
    let (scores, probs) = (db.tuple_scores(), db.tuple_marginals());
    let order = oracle::score_order(&scores);
    let n = order.len();
    let shards = (0..parts)
        .map(|k| {
            let slice = &order[k * n / parts..(k + 1) * n / parts];
            IndependentDb::from_pairs(slice.iter().map(|&t| (scores[t], probs[t])))
                .expect("tuples of a valid relation")
        })
        .collect();
    (shards, order.into_iter().map(|t| t as u32).collect())
}

pub fn build(n: usize, seed: u64, tracer: &Tracer) -> Fixture {
    tracer.span("build.relation", 0, None, |_| {
        let db = iip_db(n, seed);
        let (parts, sorted_ids) = score_contiguous(&db, 2);
        let shards = parts
            .into_iter()
            .map(|p| Arc::new(p) as ShardHandle)
            .collect();
        let sharded = ShardedRelation::new(shards, 2).expect("score-contiguous shards");
        Fixture {
            db,
            sharded,
            sorted_ids,
        }
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    PrfeFull,
    PrfeAuto(usize),
    Pt,
    Erank,
    Batch,
}

impl Shape {
    fn index(self) -> usize {
        match self {
            Shape::PrfeFull => 0,
            Shape::Pt => 1,
            Shape::Erank => 2,
            Shape::Batch => 3,
            Shape::PrfeAuto(a) => 4 + a,
        }
    }
}

/// The single query of a shape (not `Batch`).
pub fn single(shape: Shape, alphas: &[f64]) -> RankQuery {
    match shape {
        Shape::PrfeFull => RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        Shape::PrfeAuto(a) => RankQuery::prfe(alphas[a]).top_k(TOP_K),
        Shape::Pt => RankQuery::pt(PT_H).top_k(TOP_K),
        Shape::Erank => RankQuery::erank().top_k(TOP_K),
        Shape::Batch => unreachable!("a batch is not a single query"),
    }
}

/// The fig 11(i) serving batch.
pub fn fig11_batch() -> QueryBatch {
    QueryBatch::new()
        .add_query(RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain))
        .add_query(RankQuery::pt(PT_H))
        .add_query(RankQuery::erank())
        .top_k(TOP_K)
        .parallel(2)
}

/// The per-entry finalize time of a batch answer: its largest
/// `total − kernel`.
pub fn batch_finalize_ms(results: &[RankedResult]) -> f64 {
    results
        .iter()
        .map(|r| (r.report.total_seconds - r.report.kernel_seconds) * 1e3)
        .fold(0.0, f64::max)
}

/// Answers kept for checking: ids per shape (batch entries concatenated).
type Answer = Vec<Vec<TupleId>>;

struct Window {
    single_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    busy_s: f64,
    ops: u64,
    errors: u64,
    /// First answer of each shape, and any later answer that differed.
    answers: Vec<(Shape, Answer)>,
}

fn window(fx: &Fixture, alphas: &[f64], seconds: f64, seed: u64, tracer: &Tracer) -> Window {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000D_1EC7);
    let mut w = Window {
        single_ms: Vec::new(),
        batch_ms: Vec::new(),
        busy_s: 0.0,
        ops: 0,
        errors: 0,
        answers: Vec::new(),
    };
    let mut first: Vec<Option<Answer>> = vec![None; 4 + alphas.len()];
    let mut prev_end = Instant::now();
    // The mix is dealt in rounds of the five op kinds in a seeded order, so
    // every window holds them in equal shares.
    let mut deck = Vec::new();
    while w.busy_s < seconds {
        if deck.is_empty() {
            deck = vec![
                Shape::PrfeFull,
                Shape::PrfeAuto(0),
                Shape::Pt,
                Shape::Erank,
                Shape::Batch,
            ];
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.gen_range(0..=i));
            }
        }
        let shape = match deck.pop().expect("refilled above") {
            Shape::PrfeAuto(_) => Shape::PrfeAuto(rng.gen_range(0..alphas.len())),
            s => s,
        };
        let op = w.ops;
        let start = Instant::now();
        tracer.sample(
            "loadgen.late_ms",
            op,
            (start - prev_end).as_secs_f64() * 1e3,
        );
        let answer = tracer.span("op", op, None, |parent| {
            if shape == Shape::Batch {
                let out = tracer.span("shard.batch", op, parent, |_| {
                    fig11_batch().run(&fx.sharded)
                });
                out.map(|results| {
                    if let Some(cost) = results[0].report.batch {
                        tracer.sample("shard.walk_ms", op, cost.walk_seconds * 1e3);
                        tracer.sample("walk.consumers", op, cost.consumers as f64);
                    }
                    tracer.sample("shard.finalize_ms", op, batch_finalize_ms(&results));
                    results
                        .iter()
                        .map(|r| r.ranking.order().to_vec())
                        .collect::<Answer>()
                })
            } else {
                let q = single(shape, alphas);
                let out = tracer.span("query.run", op, parent, |_| q.run(&fx.db));
                out.map(|r| {
                    tracer.sample("query.kernel_ms", op, r.report.kernel_seconds * 1e3);
                    tracer.sample("query.total_ms", op, r.report.total_seconds * 1e3);
                    if shape == Shape::PrfeFull {
                        tracer.sample("query.prfe_full_total_ms", op, r.report.total_seconds * 1e3);
                    }
                    vec![r.ranking.order().to_vec()]
                })
            }
        });
        let elapsed = ms_since(start);
        prev_end = Instant::now();
        w.busy_s += elapsed * 1e-3;
        w.ops += 1;
        match answer {
            Ok(ids) => {
                if shape == Shape::Batch {
                    w.batch_ms.push(elapsed);
                } else {
                    w.single_ms.push(elapsed);
                }
                let slot = &mut first[shape.index()];
                match slot {
                    None => {
                        w.answers.push((shape, ids.clone()));
                        *slot = Some(ids);
                    }
                    Some(seen) if *seen != ids => w.answers.push((shape, ids)),
                    Some(_) => {}
                }
            }
            Err(_) => w.errors += 1,
        }
    }
    w
}

/// Oracle references per shape, built on demand.
struct Oracles<'a> {
    db: &'a IndependentDb,
    alphas: &'a [f64],
    order: Vec<usize>,
    probs: Vec<f64>,
    cache: Vec<Option<Reference>>,
}

impl<'a> Oracles<'a> {
    fn new(db: &'a IndependentDb, alphas: &'a [f64]) -> Self {
        Oracles {
            db,
            alphas,
            order: oracle::score_order(&db.tuple_scores()),
            probs: db.tuple_marginals(),
            cache: (0..3 + alphas.len()).map(|_| None).collect(),
        }
    }

    /// 0: PRFe(.95), 1: PT(100), 2: E-Rank, 3 + a: PRFe(α_a).
    fn get(&mut self, which: usize) -> &Reference {
        let (order, probs, alphas) = (&self.order, &self.probs, self.alphas);
        self.cache[which].get_or_insert_with(|| {
            Reference::new(match which {
                0 => oracle::prfe_log_keys(order, probs, 0.95),
                1 => oracle::pt_values(order, probs, PT_H),
                2 => oracle::erank_keys(order, probs),
                a => oracle::prfe_log_keys(order, probs, alphas[a - 3]),
            })
        })
    }

    fn check(&mut self, shape: Shape, answer: &Answer, sorted_ids: &[u32]) -> Result<(), String> {
        let n = self.db.len();
        let by_id = |t: TupleId| t.index();
        match shape {
            Shape::PrfeFull => self.get(0).check(&answer[0], n, by_id),
            Shape::PrfeAuto(a) => self.get(3 + a).check(&answer[0], TOP_K, by_id),
            Shape::Pt => self.get(1).check(&answer[0], TOP_K, by_id),
            Shape::Erank => self.get(2).check(&answer[0], TOP_K, by_id),
            Shape::Batch => {
                let global = |t: TupleId| {
                    sorted_ids
                        .get(t.index())
                        .map_or(usize::MAX, |&o| o as usize)
                };
                if answer.len() != 3 {
                    return Err(format!("{} batch entries, 3 expected", answer.len()));
                }
                for (entry, ids) in answer.iter().enumerate() {
                    self.get(entry)
                        .check(ids, TOP_K, global)
                        .map_err(|e| format!("batch entry {entry}: {e}"))?;
                }
                Ok(())
            }
        }
    }
}

pub fn alpha_pool(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1FA);
    (0..ALPHA_POOL).map(|_| rng.gen_range(0.5..0.99)).collect()
}

pub fn run(cfg: &Config, tracer: &Tracer, run: &mut Run) {
    let n = cfg.size(1_000_000, 20_000);
    let alphas = alpha_pool(cfg.seed);
    run.stamp("n", n);
    run.stamp("shards", 2);
    let fx = crate::repeated_setup(run, || {
        let fx = build(n, cfg.seed, tracer);
        // Warm-up: one single query and one batch.
        let _ = single(Shape::PrfeFull, &alphas).run(&fx.db);
        let _ = fig11_batch().run(&fx.sharded);
        fx
    });
    if let Some(b) = stats::median_opt(&tracer.durations_ms("build.relation")) {
        run.set("build.relation_s", "s", b * 1e-3);
    }

    let windows = if cfg.trace {
        // Half untraced and half traced, for the tracing overhead.
        let plain = window(
            &fx,
            &alphas,
            cfg.seconds / 2.0,
            cfg.seed,
            &Tracer::new(false),
        );
        let traced = window(&fx, &alphas, cfg.seconds / 2.0, cfg.seed ^ 1, tracer);
        let (a, b) = (
            stats::median(&plain.single_ms),
            stats::median(&traced.single_ms),
        );
        run.set("trace.overhead_pct", "%", (b - a) / a * 100.0);
        vec![plain, traced]
    } else {
        vec![window(&fx, &alphas, cfg.seconds, cfg.seed, tracer)]
    };
    run.set("peak_rss_mb", "MB", crate::peak_rss_mb());
    let last = windows.last().expect("one window");
    run.set_query_latencies(&last.single_ms);
    run.set("ops_per_s", "1/s", last.ops as f64 / last.busy_s);
    run.set("batch_p50_ms", "ms", stats::median(&last.batch_ms));
    if cfg.trace {
        path_layer_metrics(tracer, last, run);
    }

    let mut oracles = Oracles::new(&fx.db, &alphas);
    for w in &windows {
        run.attempted += w.ops;
        run.failed += w.errors;
        for (shape, answer) in &w.answers {
            if let Err(e) = oracles.check(*shape, answer, &fx.sorted_ids) {
                run.mismatch(format!("direct-iip {shape:?}: {e}"));
            }
        }
    }
    drop(oracles);

    if cfg.trace {
        probes::run_all(cfg, tracer, &fx.db, None, run);
    }
}

fn path_layer_metrics(tracer: &Tracer, w: &Window, run: &mut Run) {
    let med = |name: &str| stats::median(&tracer.samples(name));
    run.set("query.kernel_ms", "ms", med("query.kernel_ms"));
    run.set("query.total_ms", "ms", med("query.total_ms"));
    if !w.batch_ms.is_empty() {
        run.set("op.batch_p50_ms", "ms", stats::median(&w.batch_ms));
        run.set("shard.walk_ms", "ms", med("shard.walk_ms"));
        run.set("shard.finalize_ms", "ms", med("shard.finalize_ms"));
        run.set(
            "walk.consumers",
            "count",
            stats::mean(&tracer.samples("walk.consumers")),
        );
    }
    if let Some(total) = stats::median_opt(&tracer.samples("query.prfe_full_total_ms")) {
        run.set("query.prfe_full_total_ms", "ms", total);
    }
    run.set(
        "loadgen.late_p95_ms",
        "ms",
        stats::tail(&tracer.samples("loadgen.late_ms")).0,
    );
    run.set("client.self_ms", "ms", stats::median(&tracer.self_ms("op")));
}

/// A correct answer with two ranks swapped must fail the check.
pub fn corrupted_answer_is_caught() -> Result<(), String> {
    let db = iip_db(5_000, 11);
    let alphas = alpha_pool(11);
    let mut oracles = Oracles::new(&db, &alphas);
    for shape in [Shape::PrfeFull, Shape::Pt, Shape::Erank, Shape::PrfeAuto(0)] {
        let mut ids = single(shape, &alphas)
            .run(&db)
            .map_err(|e| e.to_string())?
            .ranking
            .order()
            .to_vec();
        oracles
            .check(shape, &vec![ids.clone()], &[])
            .map_err(|e| format!("{shape:?}: correct answer rejected: {e}"))?;
        ids.swap(3, 60);
        if oracles.check(shape, &vec![ids], &[]).is_ok() {
            return Err(format!("{shape:?}: swapped ranks 3 and 60 were not caught"));
        }
    }
    Ok(())
}
