//! Differential suite for full rankings built from the walk's score-order
//! key stream. An uncapped consumer that ranks by its walk key (log-domain
//! PRFe, E-Rank, PT under its real-part order) has its keys sorted as the
//! walk visits them, falling back to the by-id sort once a key lands far
//! from its score position. Either way the ranking must equal the
//! closed-form kernel's `Ranking::from_keys` bit for bit, in `order()` and
//! every `key_at`: alone, through a `PreparedRelation`, a `LiveRelation`
//! and, against its own values, a 2-shard `ShardedRelation`, whose
//! shards' streams meet at the boundary — on an IIP relation of n = 10⁵ where
//! PRFe(.5) and PRFe(.95) keep the stream and PRFe(.999), E-Rank and
//! PT(100) fall back.

use std::sync::Arc;

use prf::core::independent::{prf_rank, prfe_rank_log};
use prf::core::query::kernels::expected_ranks_independent;
use prf::prelude::*;

const N: usize = 100_000;

/// Panics unless `got` and `want` agree in order and in every key's bits.
fn assert_bitwise(got: &Ranking, want: &Ranking, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    assert_eq!(got.order(), want.order(), "{what}: order");
    for i in 0..want.len() {
        assert_eq!(
            got.key_at(i).to_bits(),
            want.key_at(i).to_bits(),
            "{what}: key at {i}"
        );
    }
}

/// The relation as 2 score-contiguous shards.
fn two_shards(db: &IndependentDb) -> ShardedRelation {
    let (scores, probs) = (db.tuple_scores(), db.tuple_marginals());
    let order: Vec<usize> = db.by_score().iter().map(|t| t.id.index()).collect();
    let half = order.len() / 2;
    let shards = [&order[..half], &order[half..]]
        .into_iter()
        .map(|part| {
            let pairs = part.iter().map(|&t| (scores[t], probs[t]));
            Arc::new(IndependentDb::from_pairs(pairs).unwrap()) as ShardHandle
        })
        .collect();
    ShardedRelation::new(shards, 2).unwrap()
}

/// Runs `query` alone, prepared and live on `db` against `want`.
fn check(db: &IndependentDb, query: &RankQuery, want: &Ranking, what: &str) {
    let alone = query.run(db).unwrap();
    assert_bitwise(&alone.ranking, want, &format!("{what} alone"));
    let prepared = PreparedRelation::new(Arc::new(db.clone()));
    let got = query.run(&prepared).unwrap();
    assert_bitwise(&got.ranking, want, &format!("{what} prepared"));
    let live = LiveRelation::new(db.clone());
    let got = query.run(&live).unwrap();
    assert_bitwise(&got.ranking, want, &format!("{what} live"));
}

#[test]
fn full_log_prfe_rankings_match_the_closed_form_bitwise() {
    let db = prf::datasets::iip_db(N, 3);
    for alpha in [0.5, 0.95, 0.999] {
        let want = Ranking::from_keys(&prfe_rank_log(&db, alpha).unwrap());
        let query = RankQuery::prfe(alpha).algorithm(Algorithm::LogDomain);
        check(&db, &query, &want, &format!("PRFe({alpha})"));
    }
}

#[test]
fn full_erank_and_pt_rankings_match_the_closed_form_bitwise() {
    let db = prf::datasets::iip_db(N, 4);
    let er: Vec<f64> = expected_ranks_independent(&db)
        .into_iter()
        .map(|e| -e)
        .collect();
    check(&db, &RankQuery::erank(), &Ranking::from_keys(&er), "E-Rank");
    let pt = prf_rank(&db, &StepWeight { h: 100 });
    let want = Ranking::from_values(&pt, ValueOrder::RealPart);
    check(&db, &RankQuery::pt(100), &want, "PT(100)");
}

#[test]
fn sharded_streams_match_the_sharded_values_bitwise() {
    // Shard 1's keys carry shard 0's prefix state, so they match the
    // unsharded keys only to rounding: pin the ranking against the sharded
    // answer's own values instead.
    let db = prf::datasets::iip_db(N, 5);
    let sharded = two_shards(&db);
    for query in [
        RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        RankQuery::prfe(0.999).algorithm(Algorithm::LogDomain),
        RankQuery::erank(),
    ] {
        let got = query.run(&sharded).unwrap();
        let keys: Vec<f64> = match &got.values {
            Values::LogDomain(keys) => keys.clone(),
            Values::Complex(vals) => vals.iter().map(|v| v.re).collect(),
            Values::Scaled(_) => unreachable!("no scaled request here"),
        };
        let what = format!("{:?} on 2 shards", query.semantics());
        assert_bitwise(&got.ranking, &Ranking::from_keys(&keys), &what);
    }
}

#[test]
fn streamed_zero_keys_keep_their_sign() {
    // Every tuple is impossible, so every expected rank is 0 and every
    // E-Rank key is −0.0, which the packed stream holds as +0.0.
    let db = IndependentDb::from_pairs((0..50).map(|i| (f64::from(i % 7), 0.0))).unwrap();
    let er: Vec<f64> = expected_ranks_independent(&db)
        .into_iter()
        .map(|e| -e)
        .collect();
    assert!(er.iter().all(|k| k.to_bits() == (-0.0f64).to_bits()));
    check(
        &db,
        &RankQuery::erank(),
        &Ranking::from_keys(&er),
        "E-Rank of zeros",
    );
}

#[test]
fn batched_full_rankings_match_the_closed_form_bitwise() {
    // Serially each consumer may stream; under `parallel(2)` the finalizes
    // fan out and none does. Both must give the lone query's ranking.
    let db = prf::datasets::iip_db(N, 6);
    let queries = [
        RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        RankQuery::erank(),
        RankQuery::pt(100),
    ];
    let want: Vec<Ranking> = queries
        .iter()
        .map(|q| q.run(&db).unwrap().ranking)
        .collect();
    for threads in [1, 2] {
        let batch = queries
            .iter()
            .fold(QueryBatch::new(), |b, q| b.add_query(q.clone()))
            .parallel(threads);
        for (got, want) in batch.run(&db).unwrap().iter().zip(&want) {
            let what = format!("{:?} in a batch on {threads} threads", got.report.semantics);
            assert_bitwise(&got.ranking, want, &what);
        }
    }
}
