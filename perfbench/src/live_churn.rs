//! `live-churn`: one client, closed loop, on a `LiveRelation<IndependentDb>`
//! with n = 10⁵ registered with `register_live` (zero deadline, cache on),
//! with one standing PRFe(.95) top-100 subscription.
//!
//! Each cycle applies one mutation (reweight 50 %, insert 25 %, delete
//! 25 %, seeded ids) and waits for its ack and the subscription's delta,
//! then asks PRFe(.95) log-domain top-100 (a miss), the same query again
//! (a hit) and PT(50) top-50 (a miss). At checkpoints and at the end, the
//! answers are checked against the same queries on a rebuild of
//! `LiveRelation::snapshot_backend()`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prf_core::query::{Algorithm, RankQuery, RankedResult};
use prf_core::{LiveRelation, Mutation, ProbabilisticRelation, TupleId};
use prf_datasets::iip_db;
use prf_pdb::IndependentDb;
use prf_serve::{RankServer, RelationId, ServeConfig, SubscriptionHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{keys_of, Reference};
use crate::serve_tree::{counter_metrics, serve_layer_metrics};
use crate::trace::Tracer;
use crate::{ms_since, stats, Config, Run};

const CHECK_EVERY: u64 = 64;
const WAIT: Duration = Duration::from_secs(60);

pub fn prfe_query() -> RankQuery {
    RankQuery::prfe(0.95)
        .algorithm(Algorithm::LogDomain)
        .top_k(100)
}

pub fn pt_query() -> RankQuery {
    RankQuery::pt(50).top_k(50)
}

/// Seeded mutations: reweight 50 %, insert 25 %, delete 25 %.
pub struct MutationGen {
    rng: StdRng,
    score_range: (f64, f64),
}

impl MutationGen {
    pub fn new(seed: u64, db: &IndependentDb) -> Self {
        let scores = db.tuple_scores();
        let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        MutationGen {
            rng: StdRng::seed_from_u64(seed ^ 0x3A7E),
            score_range: (lo, hi.max(lo + 1.0)),
        }
    }

    pub fn next(&mut self, n: usize) -> Mutation {
        let u: f64 = self.rng.gen();
        let id = TupleId(self.rng.gen_range(0..n.max(1)) as u32);
        let prob = self.rng.gen_range(0.05..0.95);
        if u < 0.5 || n < 2 {
            Mutation::Reweight(id, prob)
        } else if u < 0.75 {
            let score = self.rng.gen_range(self.score_range.0..self.score_range.1);
            Mutation::Insert { score, prob }
        } else {
            Mutation::Delete(id)
        }
    }
}

/// A served live relation with its standing query.
pub struct Session {
    pub server: RankServer,
    rel: RelationId,
    pub live: Arc<LiveRelation<IndependentDb>>,
    sub: SubscriptionHandle,
    muts: MutationGen,
    /// The subscription's latest ranking.
    pub standing: Vec<TupleId>,
}

/// Latencies and report fields gathered over cycles.
#[derive(Default)]
pub struct CycleStats {
    pub miss_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub mutation_ms: Vec<f64>,
    pub cycles: u64,
    pub busy_s: f64,
    pub errors: u64,
    pub late_ms: Vec<f64>,
}

/// The answers of one cycle.
pub struct CycleAnswers {
    pub prfe: Vec<TupleId>,
    pub hit: Vec<TupleId>,
    pub pt: Vec<TupleId>,
}

impl Session {
    pub fn start(db: IndependentDb, seed: u64, tracer: &Tracer) -> Result<Session, String> {
        let muts = MutationGen::new(seed, &db);
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
        let (live, rel) = tracer.span("serve.register", 0, None, |_| {
            let live = Arc::new(LiveRelation::new(db));
            let rel = server.register_live("live", Arc::clone(&live));
            (live, rel)
        });
        let sub = server
            .subscribe(rel, prfe_query())
            .map_err(|e| e.to_string())?;
        let snapshot = sub.recv_timeout(WAIT).ok_or("no initial snapshot")?;
        let standing = snapshot
            .map_err(|e| e.to_string())?
            .ranking
            .order()
            .to_vec();
        Ok(Session {
            server,
            rel,
            live,
            sub,
            muts,
            standing,
        })
    }

    /// Submits `q` and waits for the answer; returns it with its latency.
    fn ask(
        &self,
        q: RankQuery,
        op: u64,
        parent: Option<usize>,
        tracer: &Tracer,
    ) -> Result<(RankedResult, f64), String> {
        tracer.span("serve.query", op, parent, |parent| {
            let t = Instant::now();
            let handle = tracer.span("serve.admit", op, parent, |_| {
                self.server.submit(self.rel, q)
            });
            let res = handle.and_then(|h| h.recv()).map_err(|e| e.to_string())?;
            Ok((res, ms_since(t)))
        })
    }

    /// Samples the serving report fields of an evaluated answer.
    fn sample_miss(res: &RankedResult, e2e_ms: f64, op: u64, tracer: &Tracer) {
        let Some(serve) = res.report.serve else {
            return;
        };
        let (queue, eval) = (serve.queue_seconds * 1e3, res.report.total_seconds * 1e3);
        tracer.sample("serve.queue_ms", op, queue);
        tracer.sample("serve.eval_ms", op, eval);
        tracer.sample("serve.deliver_ms", op, e2e_ms - queue - eval);
        tracer.sample("serve.flush_size", op, serve.flush_size as f64);
        if let Some(cost) = res.report.batch {
            tracer.sample("walk.consumers", op, cost.consumers as f64);
        }
    }

    /// One cycle: mutation, delta, miss, hit, miss.
    pub fn cycle(
        &mut self,
        op: u64,
        tracer: &Tracer,
        st: &mut CycleStats,
    ) -> Result<CycleAnswers, String> {
        let start = Instant::now();
        let out = tracer.span("op", op, None, |parent| {
            let m = self.muts.next(self.live.n_tuples());
            let t = Instant::now();
            let ack = tracer.span("live.apply_ack", op, parent, |_| {
                self.server
                    .apply(self.rel, m)
                    .and_then(|h| h.recv())
                    .map_err(|e| e.to_string())
            });
            let acked = Instant::now();
            ack?;
            st.mutation_ms.push((acked - t).as_secs_f64() * 1e3);
            let delta = tracer.span("live.delta_wait", op, parent, |_| {
                self.sub.recv_timeout(WAIT)
            });
            let delta = delta
                .ok_or("no delta after a mutation")?
                .map_err(|e| e.to_string())?;
            tracer.sample("live.delta_lag_ms", op, ms_since(acked));
            self.standing = delta.ranking.order().to_vec();

            let (prfe, ms) = self.ask(prfe_query(), op, parent, tracer)?;
            st.miss_ms.push(ms);
            tracer.sample(
                "live.requery_kernel_ms",
                op,
                prfe.report.kernel_seconds * 1e3,
            );
            Self::sample_miss(&prfe, ms, op, tracer);
            let (hit, ms) = self.ask(prfe_query(), op, parent, tracer)?;
            st.hit_ms.push(ms);
            let (pt, ms) = self.ask(pt_query(), op, parent, tracer)?;
            st.miss_ms.push(ms);
            Self::sample_miss(&pt, ms, op, tracer);
            Ok(CycleAnswers {
                prfe: prfe.ranking.order().to_vec(),
                hit: hit.ranking.order().to_vec(),
                pt: pt.ranking.order().to_vec(),
            })
        });
        st.busy_s += start.elapsed().as_secs_f64();
        st.cycles += 1;
        if out.is_err() {
            st.errors += 1;
        }
        out
    }

    /// Checks a cycle's answers against the same queries on a rebuild of
    /// the current backend.
    pub fn check(&self, a: &CycleAnswers) -> Result<(), String> {
        let rebuilt = self.live.snapshot_backend();
        let prfe = prfe_query().run(&rebuilt).map_err(|e| e.to_string())?;
        let pt = pt_query().run(&rebuilt).map_err(|e| e.to_string())?;
        let (prfe, pt) = (
            Reference::new(keys_of(&prfe.values)),
            Reference::new(keys_of(&pt.values)),
        );
        let by_id = |t: TupleId| t.index();
        prfe.check(&a.prfe, 100, by_id)
            .map_err(|e| format!("PRFe miss: {e}"))?;
        prfe.check(&a.hit, 100, by_id)
            .map_err(|e| format!("PRFe hit: {e}"))?;
        prfe.check(&self.standing, 100, by_id)
            .map_err(|e| format!("standing PRFe: {e}"))?;
        pt.check(&a.pt, 50, by_id)
            .map_err(|e| format!("PT(50): {e}"))
    }
}

/// Per-layer metrics of the traced cycles.
pub fn cycle_layer_metrics(tracer: &Tracer, st: &CycleStats, run: &mut Run) {
    serve_layer_metrics(tracer, run);
    let med = |name: &str| stats::median(&tracer.samples(name));
    run.fill(
        "live.apply_ms",
        "ms",
        stats::median(&tracer.durations_ms("live.apply_ack")),
    );
    run.fill("live.delta_lag_ms", "ms", med("live.delta_lag_ms"));
    run.fill(
        "live.requery_kernel_ms",
        "ms",
        med("live.requery_kernel_ms"),
    );
    run.fill("op.hit_p50_ms", "ms", stats::median(&st.hit_ms));
    run.fill("op.mutation_p50_ms", "ms", stats::median(&st.mutation_ms));
}

/// The cycle as a layer probe on another workload's independent relation:
/// `cycles` traced cycles, filling every metric not measured on the path.
pub fn probe(
    db: IndependentDb,
    seed: u64,
    cycles: u64,
    tracer: &Tracer,
    run: &mut Run,
) -> Result<(), String> {
    let mut s = Session::start(db, seed, tracer)?;
    let mut st = CycleStats::default();
    let before = s.server.metrics();
    for op in 0..cycles {
        s.cycle(1_000_000 + op, tracer, &mut st)?;
    }
    counter_metrics(&before, &s.server.metrics(), run);
    cycle_layer_metrics(tracer, &st, run);
    s.server.shutdown();
    Ok(())
}

/// Runs cycles for `seconds` of cycle time, checking every `CHECK_EVERY`
/// cycles and after the last one (checks are outside the timed region).
fn window(s: &mut Session, seconds: f64, op0: u64, tracer: &Tracer, run: &mut Run) -> CycleStats {
    let mut st = CycleStats::default();
    let mut prev_end = Instant::now();
    let mut last = None;
    while st.busy_s < seconds {
        let op = op0 + st.cycles;
        st.late_ms.push(ms_since(prev_end));
        let answers = s.cycle(op, tracer, &mut st);
        prev_end = Instant::now();
        match answers {
            Ok(a) => {
                if a.hit != a.prfe {
                    run.mismatch(format!("live-churn cycle {op}: the cached repeat differs"));
                }
                if st.cycles % CHECK_EVERY == 0 {
                    if let Err(e) = s.check(&a) {
                        run.mismatch(format!("live-churn cycle {op}: {e}"));
                    }
                    prev_end = Instant::now();
                    last = None;
                } else {
                    last = Some(a);
                }
            }
            Err(e) => eprintln!("live-churn cycle {op} failed: {e}"),
        }
    }
    if let Some(a) = last {
        if let Err(e) = s.check(&a) {
            run.mismatch(format!("live-churn final check: {e}"));
        }
    }
    // Each cycle is four ops: a mutation and three queries.
    run.attempted += 4 * st.cycles;
    run.failed += st.errors;
    st
}

pub fn run(cfg: &Config, tracer: &Tracer, run: &mut Run) {
    let n = cfg.size(100_000, 5_000);
    run.stamp("n", n);
    let session = crate::repeated_setup(run, || {
        let db = tracer.span("build.relation", 0, None, |_| iip_db(n, cfg.seed));
        let mut s = Session::start(db, cfg.seed, tracer).expect("live session starts");
        // Warm-up: one full cycle.
        let _ = s.cycle(u64::MAX, &Tracer::new(false), &mut CycleStats::default());
        s
    });
    let mut s = session;
    if let Some(b) = stats::median_opt(&tracer.durations_ms("build.relation")) {
        run.set("build.relation_s", "s", b * 1e-3);
    }

    let before = s.server.metrics();
    let st = if cfg.trace {
        let plain = window(&mut s, cfg.seconds / 2.0, 0, &Tracer::new(false), run);
        let before = s.server.metrics();
        let traced = window(&mut s, cfg.seconds / 2.0, 1 << 32, tracer, run);
        counter_metrics(&before, &s.server.metrics(), run);
        let (a, b) = (
            stats::median(&plain.miss_ms),
            stats::median(&traced.miss_ms),
        );
        run.set("trace.overhead_pct", "%", (b - a) / a * 100.0);
        traced
    } else {
        window(&mut s, cfg.seconds, 0, tracer, run)
    };
    let after = s.server.metrics();
    run.set("peak_rss_mb", "MB", crate::peak_rss_mb());
    run.set_query_latencies(&st.miss_ms);
    run.set("ops_per_s", "1/s", (4 * st.cycles) as f64 / st.busy_s);
    run.stamp("cycles", st.cycles);
    run.set("hit_p50_ms", "ms", stats::median(&st.hit_ms));
    run.set("mutation_p50_ms", "ms", stats::median(&st.mutation_ms));
    run.stamp("cache_hits", after.cache_hits - before.cache_hits);
    if cfg.trace {
        cycle_layer_metrics(tracer, &st, run);
        run.set("loadgen.late_p95_ms", "ms", stats::tail(&st.late_ms).0);
        run.set("client.self_ms", "ms", stats::median(&tracer.self_ms("op")));
        let db = s.live.snapshot_backend();
        s.server.shutdown();
        crate::probes::run_all(cfg, tracer, &db, None, run);
    } else {
        s.server.shutdown();
    }
}
