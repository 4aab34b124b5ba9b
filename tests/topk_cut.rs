//! Differential suite for early-terminating top-k. A capped query on an
//! independent relation stops its score-order walk once no unread tuple
//! can enter its answer, and ranks only the visited prefix. That ranking
//! must be the uncapped query's ranking truncated to `k`, bit for bit in
//! `order()` and every `key_at`, for PT(h), real-α PRFe in every numeric
//! mode, E-Rank and value-order overrides, on degenerate inputs: empty and
//! one-tuple relations, tied scores, probabilities 0, 1, 1e-300 and
//! 1 − 1e-16, α ∈ {0, 1e-300, 1}, and k ∈ {0, 1, n, n + 5}.
//!
//! A capped query's values (exact on the visited prefix, worst beyond it)
//! must not depend on how it runs: alone, in a batch beside uncapped
//! entries, through a `PreparedRelation`, or through a `RankServer`.

use proptest::prelude::*;

use prf::prelude::*;

/// Probabilities at the edges of the recurrences, picked by class.
const EDGE_PROBS: [f64; 4] = [0.0, 1.0, 1e-300, 1.0 - 1e-16];
/// PRFe bases at the edges of `[0, 1]`, picked by class.
const EDGE_ALPHAS: [f64; 3] = [0.0, 1e-300, 1.0];

/// A relation of up to 24 tuples: scores from a few values (many ties),
/// probabilities either random or one of [`EDGE_PROBS`].
fn relation() -> impl Strategy<Value = IndependentDb> {
    proptest::collection::vec((0u8..6, 0usize..8, 0.0f64..=1.0), 0..24).prop_map(|rows| {
        IndependentDb::from_pairs(rows.into_iter().map(|(score, class, p)| {
            (
                f64::from(score),
                EDGE_PROBS.get(class).copied().unwrap_or(p),
            )
        }))
        .expect("generated pairs are valid")
    })
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
    ]
}

fn caps(n: usize) -> [usize; 5] {
    [0, 1, n / 2, n, n + 5]
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
        let server = RankServer::new(ServeConfig::default());
        let id = server.register("db", db.clone());
        for q in shapes(h, alpha) {
            let q = q.top_k(k);
            let alone = answer(&q.run(&db).unwrap());
            let ctx = format!("{q:?}");
            prop_assert_eq!(&answer(&q.run(&prepared).unwrap()), &alone, "prepared {}", ctx);
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
}
