//! Differential suite for early-terminating top-k. A capped query on an
//! independent relation stops its score-order walk once no unread tuple
//! can enter its answer, and ranks only the visited prefix. That ranking
//! must be the uncapped query's ranking truncated to `k`, bit for bit in
//! `order()` and every `key_at`, for PT(h), a tabulated PRFω, real-α PRFe
//! in every numeric mode, E-Rank and value-order overrides, on degenerate
//! inputs: empty and one-tuple relations, tied scores, probabilities 0, 1,
//! 1e-300 and 1 − 1e-16, α ∈ {0, 1e-300, 1}, and k ∈ {0, 1, n, n + 5}.
//!
//! A `ShardedRelation` walks its shards in score order under a cap and
//! stops inside the first shard that settles every consumer. Its capped
//! answers must be its own uncapped answers truncated, bit for bit, over
//! 1–4 shards with empty and one-tuple shards, ties across a boundary and
//! a `k` that crosses one; a shard that cannot resume the walk (an x-tuple
//! tree) restarts it as a plain walk of every shard.
//!
//! An x-tuple tree stops a capped PT or PRFω consumer at a block end of
//! its x-tuple kernel (64, 128, 256, …). The same rule holds there, bit for
//! bit on the ranking and on every visited value, over 0–300 tuples with
//! tied scores across the block ends and groups whose mass is 1, 0 or
//! 1e-300.
//!
//! A capped query's values (exact on the visited prefix, worst beyond it)
//! must not depend on how it runs: alone, in a batch beside uncapped
//! entries, through a `PreparedRelation`, a mutated `LiveRelation` or a
//! `RankServer`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use prf::core::query::batch::{SharedWalkOut, SharedWalkSpec};
use prf::core::query::{PresenceGf, TopkCarry};
use prf::prelude::*;

/// Probabilities at the edges of the recurrences, picked by class.
const EDGE_PROBS: [f64; 4] = [0.0, 1.0, 1e-300, 1.0 - 1e-16];
/// PRFe bases at the edges of `[0, 1]`, picked by class.
const EDGE_ALPHAS: [f64; 3] = [0.0, 1e-300, 1.0];

/// Up to 24 `(score, probability)` pairs: scores from a few values (many
/// ties), probabilities either random or one of [`EDGE_PROBS`].
fn pairs() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0u8..6, 0usize..8, 0.0f64..=1.0), 0..24).prop_map(|rows| {
        rows.into_iter()
            .map(|(score, class, p)| {
                (
                    f64::from(score),
                    EDGE_PROBS.get(class).copied().unwrap_or(p),
                )
            })
            .collect()
    })
}

fn relation() -> impl Strategy<Value = IndependentDb> {
    pairs().prop_map(|pairs| IndependentDb::from_pairs(pairs).expect("generated pairs are valid"))
}

/// [`pairs`] in score order, cut into 1–4 shards at arbitrary points: a
/// shard may be empty or hold one tuple, and tied scores may straddle a
/// boundary. Returns each shard's pairs.
fn shard_pairs() -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    (pairs(), proptest::collection::vec(0usize..=24, 0..4)).prop_map(|(mut pairs, mut cuts)| {
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
        let n = pairs.len();
        cuts.iter_mut().for_each(|c| *c = (*c).min(n));
        cuts.sort_unstable();
        let bounds: Vec<usize> = std::iter::once(0).chain(cuts).chain([n]).collect();
        bounds
            .windows(2)
            .map(|w| pairs[w[0]..w[1]].to_vec())
            .collect()
    })
}

fn sharded(parts: &[Vec<(f64, f64)>]) -> ShardedRelation {
    let shards = parts
        .iter()
        .map(|p| Arc::new(IndependentDb::from_pairs(p.clone()).unwrap()) as ShardHandle)
        .collect();
    ShardedRelation::new(shards, 2).expect("score-contiguous shards")
}

/// Every query shape the walk can cut, plus the value-order overrides.
fn shapes(h: usize, alpha: f64) -> Vec<RankQuery> {
    let prfe = |algorithm| RankQuery::prfe(alpha).algorithm(algorithm);
    vec![
        RankQuery::pt(h),
        RankQuery::pt(h).value_order(ValueOrder::Magnitude),
        prfe(Algorithm::ExactGf),
        prfe(Algorithm::ExactGf).value_order(ValueOrder::RealPart),
        prfe(Algorithm::LogDomain),
        prfe(Algorithm::Scaled),
        prfe(Algorithm::Scaled).value_order(ValueOrder::RealPart),
        RankQuery::erank(),
        // Not monotone: the cut bounds it through its envelope.
        RankQuery::prf(TabulatedWeight::from_real(&[0.3, 1.0, 0.6, 0.6, 0.1])),
    ]
}

fn caps(n: usize) -> [usize; 5] {
    [0, 1, n / 2, n, n + 5]
}

/// [`caps`] with `n / 2` replaced by a `k` one past the first non-empty
/// shard, which no consumer can settle inside that shard.
fn shard_caps(parts: &[Vec<(f64, f64)>]) -> [usize; 5] {
    let n = parts.iter().map(Vec::len).sum();
    let first = parts.iter().map(Vec::len).find(|&len| len > 0).unwrap_or(0);
    [0, 1, first + 1, n, n + 5]
}

/// The ranking as comparable bits: ids and key bits, position by position.
fn ranking_bits(r: &RankedResult) -> Vec<(TupleId, u64)> {
    (0..r.ranking.len())
        .map(|pos| (r.ranking.order()[pos], r.ranking.key_at(pos).to_bits()))
        .collect()
}

/// The values as comparable bits.
fn value_bits(values: &Values) -> Vec<(u64, u64, i64)> {
    match values {
        Values::Complex(v) => v
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits(), 0))
            .collect(),
        Values::LogDomain(v) => v.iter().map(|k| (k.to_bits(), 0, 0)).collect(),
        Values::Scaled(v) => v
            .iter()
            .map(|s| (s.mantissa.re.to_bits(), s.mantissa.im.to_bits(), s.exp))
            .collect(),
    }
}

/// What must agree between two runs of one capped query: ranking bits,
/// value bits and positions scanned.
type Answer = (Vec<(TupleId, u64)>, Vec<(u64, u64, i64)>, Option<usize>);

fn answer(r: &RankedResult) -> Answer {
    (
        ranking_bits(r),
        value_bits(&r.values),
        r.report.tuples_scanned,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capped ≡ uncapped truncated, alone and in batches that mix capped
    /// and uncapped entries.
    #[test]
    fn capped_rankings_are_the_uncapped_prefix(
        db in relation(),
        h in 1usize..6,
        alpha_class in 0usize..5,
        alpha in 0.0f64..=1.0,
    ) {
        let n = db.len();
        let alpha = EDGE_ALPHAS.get(alpha_class).copied().unwrap_or(alpha);
        for q in shapes(h, alpha) {
            let full = q.run(&db).unwrap();
            prop_assert_eq!(full.report.tuples_scanned, Some(n));
            let full_bits = ranking_bits(&full);
            for k in caps(n) {
                let capped = q.clone().top_k(k).run(&db).unwrap();
                let ctx = format!("{} k={k}", full.report.semantics);
                prop_assert_eq!(&ranking_bits(&capped)[..], &full_bits[..k.min(n)], "{}", ctx);
                prop_assert_eq!(capped.values.len(), n, "{}", ctx);
                prop_assert!(capped.report.tuples_scanned.unwrap() <= n, "{}", ctx);
            }
        }
        // One batch: every shape twice, capped at alternating k and
        // uncapped, each entry identical to its own single run.
        let entries: Vec<RankQuery> = shapes(h, alpha)
            .into_iter()
            .zip(caps(n).into_iter().cycle())
            .flat_map(|(q, k)| [q.clone().top_k(k), q])
            .collect();
        let batch = QueryBatch::new().add_queries(entries.clone()).run(&db).unwrap();
        for (got, q) in batch.iter().zip(&entries) {
            let want = q.run(&db).unwrap();
            prop_assert_eq!(answer(got), answer(&want), "{}", want.report.semantics);
        }
    }

    /// A capped query's values and ranking are the same alone, prepared,
    /// batched with uncapped company and served.
    #[test]
    fn capped_answers_do_not_depend_on_the_route(
        db in relation(),
        h in 1usize..6,
        alpha in 0.0f64..=1.0,
        k in 0usize..8,
    ) {
        let prepared = PreparedRelation::new(std::sync::Arc::new(db.clone()));
        // A live relation after a no-op mutation and a warming uncapped
        // log-domain query: its capped answers still come from the walk.
        let live = LiveRelation::new(db.clone());
        if let Some(t) = db.tuples().first() {
            live.apply(&Mutation::Reweight(t.id, t.prob)).unwrap();
        }
        RankQuery::prfe(alpha).algorithm(Algorithm::LogDomain).run(&live).unwrap();
        let server = RankServer::new(ServeConfig::default());
        let id = server.register("db", db.clone());
        for q in shapes(h, alpha) {
            let q = q.top_k(k);
            let alone = answer(&q.run(&db).unwrap());
            let ctx = format!("{q:?}");
            prop_assert_eq!(&answer(&q.run(&prepared).unwrap()), &alone, "prepared {}", ctx);
            prop_assert_eq!(&answer(&q.run(&live).unwrap()), &alone, "live {}", ctx);
            let batch = QueryBatch::new()
                .add_query(RankQuery::pt(h))
                .add_query(q.clone())
                .add_query(RankQuery::erank())
                .run(&db)
                .unwrap();
            prop_assert_eq!(&answer(&batch[1]), &alone, "batched {}", ctx);
            let served = server.submit(id, q.clone()).unwrap().recv().unwrap();
            prop_assert_eq!(&answer(&served), &alone, "served {}", ctx);
        }
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharded: capped ≡ the sharded relation's own uncapped answer
    /// truncated, alone and in batches that mix capped and uncapped
    /// entries.
    #[test]
    fn capped_sharded_rankings_are_the_uncapped_prefix(
        parts in shard_pairs(),
        h in 1usize..6,
        alpha_class in 0usize..5,
        alpha in 0.0f64..=1.0,
    ) {
        let rel = sharded(&parts);
        let n = rel.n_tuples();
        let alpha = EDGE_ALPHAS.get(alpha_class).copied().unwrap_or(alpha);
        for q in shapes(h, alpha) {
            let full = q.run(&rel).unwrap();
            let full_bits = ranking_bits(&full);
            for k in shard_caps(&parts) {
                let capped = q.clone().top_k(k).run(&rel).unwrap();
                let ctx = format!("{} k={k} shards={:?}", full.report.semantics, parts);
                prop_assert_eq!(&ranking_bits(&capped)[..], &full_bits[..k.min(n)], "{}", ctx);
                prop_assert_eq!(capped.values.len(), n, "{}", ctx);
            }
        }
        let entries: Vec<RankQuery> = shapes(h, alpha)
            .into_iter()
            .zip(shard_caps(&parts).into_iter().cycle())
            .flat_map(|(q, k)| [q.clone().top_k(k), q])
            .collect();
        let batch = QueryBatch::new().add_queries(entries.clone()).run(&rel).unwrap();
        for (got, q) in batch.iter().zip(&entries) {
            let want = q.run(&rel).unwrap();
            prop_assert_eq!(&ranking_bits(got), &ranking_bits(&want), "{}", want.report.semantics);
        }
    }

    /// Sharded: a capped query's values and ranking are the same alone,
    /// prepared, batched with uncapped company and served.
    #[test]
    fn capped_sharded_answers_do_not_depend_on_the_route(
        parts in shard_pairs(),
        h in 1usize..6,
        alpha in 0.0f64..=1.0,
        k in 0usize..8,
    ) {
        let rel = Arc::new(sharded(&parts));
        let prepared = PreparedRelation::new(rel.clone());
        let server = RankServer::new(ServeConfig::default());
        let id = server.register_shared("sharded", rel.clone());
        for q in shapes(h, alpha) {
            let q = q.top_k(k);
            let alone = answer(&q.run(&*rel).unwrap());
            let ctx = format!("{q:?} shards={parts:?}");
            prop_assert_eq!(&answer(&q.run(&prepared).unwrap()), &alone, "prepared {}", ctx);
            let batch = QueryBatch::new()
                .add_query(RankQuery::pt(h))
                .add_query(q.clone())
                .add_query(RankQuery::erank().top_k(k))
                .run(&*rel)
                .unwrap();
            prop_assert_eq!(&answer(&batch[1]), &alone, "batched {}", ctx);
            let served = server.submit(id, q.clone()).unwrap().recv().unwrap();
            prop_assert_eq!(&answer(&served), &alone, "served {}", ctx);
        }
        server.shutdown();
    }
}

/// An x-tuple tree cannot resume a carried cut: placed first, it restarts
/// every capped walk as a plain walk of every shard; placed last, the walk
/// either settles before it or falls back. Either way capped ≡ uncapped
/// truncated.
#[test]
fn an_x_tuple_shard_falls_back_to_the_plain_walk() {
    let tree = || {
        AndXorTree::from_x_tuples(&[
            vec![(9.0, 0.4), (8.0, 0.3)],
            vec![(7.0, 0.9)],
            vec![(6.0, 0.5)],
        ])
        .unwrap()
    };
    let db = |scores: &[f64]| IndependentDb::from_pairs(scores.iter().map(|&s| (s, 0.6))).unwrap();
    let layouts: Vec<Vec<ShardHandle>> = vec![
        vec![Arc::new(tree()), Arc::new(db(&[5.0, 4.0, 3.0]))],
        vec![Arc::new(db(&[20.0, 15.0, 12.0, 10.0])), Arc::new(tree())],
    ];
    for (layout, shards) in layouts.into_iter().enumerate() {
        let rel = ShardedRelation::new(shards, 2).unwrap();
        let n = rel.n_tuples();
        for q in shapes(2, 0.8) {
            let full = ranking_bits(&q.run(&rel).unwrap());
            for k in [0, 1, 2, 5, n, n + 5] {
                let capped = q.clone().top_k(k).run(&rel).unwrap();
                assert_eq!(
                    ranking_bits(&capped),
                    full[..k.min(n)],
                    "layout {layout} {q:?} k={k}"
                );
                if layout == 0 && k > 0 && k < n {
                    assert_eq!(capped.report.tuples_scanned, Some(n), "fell back: {q:?}");
                }
            }
        }
    }
}

/// A shard that counts every walk and presence-GF call made on it.
struct Tripwire {
    inner: IndependentDb,
    touched: AtomicUsize,
}

impl Tripwire {
    fn touch(&self) {
        self.touched.fetch_add(1, Ordering::SeqCst);
    }
}

impl ProbabilisticRelation for Tripwire {
    fn n_tuples(&self) -> usize {
        self.inner.len()
    }
    fn tuple_scores(&self) -> Vec<f64> {
        self.inner.scores()
    }
    fn tuple_marginals(&self) -> Vec<f64> {
        self.inner.probabilities()
    }
    fn correlation_class(&self) -> CorrelationClass {
        CorrelationClass::Independent
    }
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        self.touch();
        self.inner.run_shared_walk(spec, carry, prep)
    }
    fn presence_gf(&self, cap: Option<usize>, alphas: &[Complex]) -> Option<PresenceGf> {
        self.touch();
        self.inner.presence_gf(cap, alphas)
    }
}

/// The fig 11(i) top-100 batch on a 2-shard IIP relation settles inside
/// shard 0: shard 1 is never walked and its presence GFs are never
/// computed, and every entry scans exactly as far as on the unsharded
/// relation.
#[test]
fn fig11_top100_batch_never_touches_the_second_shard() {
    let db = prf::datasets::iip_db(100_000, 7);
    let (scores, probs) = (db.tuple_scores(), db.tuple_marginals());
    let mut order: Vec<usize> = (0..db.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let pairs: Vec<(f64, f64)> = order.iter().map(|&t| (scores[t], probs[t])).collect();
    let half = pairs.len() / 2;
    let wires: Vec<Arc<Tripwire>> = [&pairs[..half], &pairs[half..]]
        .iter()
        .map(|p| {
            Arc::new(Tripwire {
                inner: IndependentDb::from_pairs(p.iter().copied()).unwrap(),
                touched: AtomicUsize::new(0),
            })
        })
        .collect();
    let shards = wires.iter().map(|w| w.clone() as ShardHandle).collect();
    let rel = ShardedRelation::new(shards, 2).unwrap();
    let before = wires[1].touched.load(Ordering::SeqCst); // construction validates
    let batch = || {
        QueryBatch::new()
            .add_query(RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain))
            .add_query(RankQuery::pt(100))
            .add_query(RankQuery::erank())
            .top_k(100)
            .parallel(2)
    };
    let got = batch().run(&rel).unwrap();
    assert_eq!(
        wires[1].touched.load(Ordering::SeqCst),
        before,
        "shard 1 touched"
    );
    assert!(
        wires[0].touched.load(Ordering::SeqCst) > 0,
        "shard 0 walked"
    );
    let unsharded = IndependentDb::from_pairs(pairs).unwrap();
    let want = batch().run(&unsharded).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g.report.tuples_scanned, w.report.tuples_scanned,
            "{}",
            w.report.semantics
        );
        assert!(
            g.report.tuples_scanned.unwrap() < half,
            "{}",
            w.report.semantics
        );
        assert_eq!(
            g.ranking.order(),
            w.ranking.order(),
            "{}",
            w.report.semantics
        );
    }
}

/// The suite above compares cut answers, not only full walks: on a
/// relation with a few likely top scorers every capped shape stops early.
#[test]
fn every_capped_shape_stops_early_on_iip() {
    let db = prf::datasets::iip_db(5_000, 3);
    for q in shapes(20, 0.9) {
        let capped = q.clone().top_k(10).run(&db).unwrap();
        let scanned = capped.report.tuples_scanned.unwrap();
        assert!(scanned < db.len(), "{q:?} scanned {scanned}");
        let full = q.run(&db).unwrap();
        assert_eq!(ranking_bits(&capped), ranking_bits(&full)[..10], "{q:?}");
    }
    // A lone capped log-domain PRFe query on a live relation takes the
    // same early-stopping walk.
    let live = LiveRelation::new(db.clone());
    let capped = RankQuery::prfe(0.9)
        .algorithm(Algorithm::LogDomain)
        .top_k(10)
        .run(&live)
        .unwrap();
    let scanned = capped.report.tuples_scanned.unwrap();
    assert!(scanned < db.len(), "live log PRFe scanned {scanned}");
}

// ---------------------------------------------------------------------
// x-tuple trees
// ---------------------------------------------------------------------

/// An x-tuple tree of 0–300 tuples in groups of 1–5 alternatives. Scores
/// come from 40 values, so runs of tied scores straddle the kernel's block
/// boundaries at 64, 128 and 256. A group's probabilities are random,
/// sum to 1, or take the edge values 0, 1 and 1e-300.
fn xtuple_tree() -> impl Strategy<Value = AndXorTree> {
    let group = (
        proptest::collection::vec((0u8..40, 0.0f64..=1.0), 1..6),
        0usize..4,
    );
    proptest::collection::vec(group, 0..101).prop_map(|groups| {
        let mut left = 300usize;
        let groups: Vec<Vec<(f64, f64)>> = groups
            .into_iter()
            .map_while(|(members, class)| {
                let members = &members[..members.len().min(left)];
                left -= members.len();
                (!members.is_empty()).then(|| xtuple_group(members, class))
            })
            .collect();
        AndXorTree::from_x_tuples(&groups).expect("generated groups are valid")
    })
}

/// One group's `(score, probability)` pairs from raw draws `(score, u)`:
/// class 0 and 1 scale the draws to a mass below 1, class 2 fills the
/// group's mass to 1, class 3 picks probabilities from {0, 1e-300} or one
/// certain member.
fn xtuple_group(members: &[(u8, f64)], class: usize) -> Vec<(f64, f64)> {
    let size = members.len() as f64;
    let mut mass = 0.0f64;
    members
        .iter()
        .enumerate()
        .map(|(j, &(score, u))| {
            let p = match class {
                2 if j + 1 == members.len() => (1.0 - mass).max(0.0),
                2 => u / size,
                3 if j == 0 && u > 0.8 => 1.0,
                3 if members[0].1 > 0.8 => 0.0,
                3 => [0.0, 1e-300][usize::from(u < 0.5)],
                _ => u / size,
            };
            mass += p;
            (f64::from(score), p)
        })
        .collect()
}

/// Tuple ids in score order (score descending, id ascending): the order a
/// walk visits them in.
fn visit_order(tree: &AndXorTree) -> Vec<usize> {
    let scores = tree.scores();
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// x-tuple trees: capped ≡ uncapped truncated, bit for bit on the
    /// ranking and on every visited value (an unvisited one is zero), alone
    /// and in batches that mix capped and uncapped entries.
    #[test]
    fn capped_x_tuple_rankings_are_the_uncapped_prefix(
        tree in xtuple_tree(),
        h in 1usize..40,
        k_small in 1usize..12,
        alpha in 0.0f64..=1.0,
    ) {
        let n = tree.n_tuples();
        let order = visit_order(&tree);
        let caps = [0, 1, k_small, n / 2, n, n + 5];
        for q in shapes(h, alpha) {
            let full = q.run(&tree).unwrap();
            let (full_bits, full_values) = (ranking_bits(&full), value_bits(&full.values));
            for k in caps {
                let capped = q.clone().top_k(k).run(&tree).unwrap();
                let ctx = format!("{} k={k} n={n}", full.report.semantics);
                prop_assert_eq!(&ranking_bits(&capped)[..], &full_bits[..k.min(n)], "{}", ctx);
                prop_assert_eq!(capped.values.len(), n, "{}", ctx);
                let scanned = capped.report.tuples_scanned.unwrap();
                prop_assert!(scanned <= n, "{}", ctx);
                let values = value_bits(&capped.values);
                for (i, &t) in order.iter().enumerate() {
                    let want = if i < scanned { full_values[t] } else { (0, 0, 0) };
                    prop_assert_eq!(values[t], want, "{} tuple {}", ctx, t);
                }
            }
        }
        let entries: Vec<RankQuery> = shapes(h, alpha)
            .into_iter()
            .zip(caps.into_iter().cycle())
            .flat_map(|(q, k)| [q.clone().top_k(k), q])
            .collect();
        let batch = QueryBatch::new().add_queries(entries.clone()).run(&tree).unwrap();
        for (got, q) in batch.iter().zip(&entries) {
            let want = q.run(&tree).unwrap();
            prop_assert_eq!(answer(got), answer(&want), "{}", want.report.semantics);
        }
    }

    /// x-tuple trees: a capped query's values, ranking and scan are the
    /// same alone, prepared, batched beside an uncapped larger-h PT and a
    /// PRFe, and served.
    #[test]
    fn capped_x_tuple_answers_do_not_depend_on_the_route(
        tree in xtuple_tree(),
        h in 1usize..40,
        alpha in 0.0f64..=1.0,
        k in 0usize..12,
    ) {
        let prepared = PreparedRelation::from_relation(tree.clone());
        let server = RankServer::new(ServeConfig::default());
        let id = server.register("xtuple", tree.clone());
        for q in shapes(h, alpha) {
            let q = q.top_k(k);
            let alone = answer(&q.run(&tree).unwrap());
            let ctx = format!("{q:?} n={}", tree.n_tuples());
            prop_assert_eq!(&answer(&q.run(&prepared).unwrap()), &alone, "prepared {}", ctx);
            let batch = QueryBatch::new()
                .add_query(RankQuery::pt(h + 10))
                .add_query(q.clone())
                .add_query(RankQuery::prfe(alpha))
                .run(&tree)
                .unwrap();
            prop_assert_eq!(&answer(&batch[1]), &alone, "batched {}", ctx);
            let served = server.submit(id, q.clone()).unwrap().recv().unwrap();
            prop_assert_eq!(&answer(&served), &alone, "served {}", ctx);
        }
        server.shutdown();
    }
}

/// The suites above compare cut answers, not only full walks: on 300-tuple
/// Syn-XOR trees, capped PT and PRFω consumers stop at each of the block
/// ends 64, 128 and 256, and nowhere else.
#[test]
fn x_tuple_stops_fall_on_block_ends() {
    let mut stops = std::collections::BTreeSet::new();
    for seed in 0..4 {
        let tree = prf::datasets::syn_xor_tree(300, seed);
        for h in [1, 5, 10, 20, 40, 80] {
            for k in [1, 10, 50] {
                for q in [
                    RankQuery::pt(h),
                    RankQuery::prf(TabulatedWeight::from_real(&vec![1.0; h])),
                ] {
                    let r = q.top_k(k).run(&tree).unwrap();
                    stops.insert(r.report.tuples_scanned.unwrap());
                }
            }
        }
    }
    assert!(stops.is_subset(&[64, 128, 256, 300].into()), "{stops:?}");
    for e in [64, 128, 256] {
        assert!(stops.contains(&e), "no stop at {e}: {stops:?}");
    }
}

/// `serve-tree`'s Syn-XOR tree (n = 5·10³, its dataset seed): a top-10
/// PT(100) settles within the first 1,024 tuples, and its ranking is the
/// uncapped one truncated.
#[test]
fn syn_xor_pt100_top10_reads_at_most_1024_tuples() {
    let tree = prf::datasets::syn_xor_tree(5_000, 20_090_413);
    let q = RankQuery::pt(100);
    let capped = q.clone().top_k(10).run(&tree).unwrap();
    let scanned = capped.report.tuples_scanned.unwrap();
    assert!(scanned <= 1024, "scanned {scanned}");
    let full = q.run(&tree).unwrap();
    assert_eq!(ranking_bits(&capped), ranking_bits(&full)[..10]);
}
