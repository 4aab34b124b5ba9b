//! Differential suite for sharded relations: a [`ShardedRelation`] over
//! score-contiguous shards must be **answer-equivalent to the unsharded
//! relation holding the same tuples** — same ranking order and
//! value-level agreement within 1e-9 — across semantics (PT, Consensus,
//! PRFω with rank-only and tuple-dependent weights, PRFe in every numeric
//! mode, E-Rank, E-Score, U-Rank) × backends (`IndependentDb`,
//! `AndXorTree` x-tuple shards, a mixed independent + x-tuple split, and
//! general trees large enough for the parallel tree walk)
//! × shard counts (1/2/4/7, uneven boundaries, empty shards, single-tuple
//! shards), plus proptest-generated random boundaries.
//!
//! Construction makes the comparison exact at the id level: tuples are
//! generated **score-descending** and shards are contiguous slices, so
//! the unsharded relation's tuple ids equal the shard-major concatenation
//! and every per-tuple value vector lines up index-for-index. The
//! unsharded side never routes through `prf_core::shard` (its kernels are
//! differential-tested against brute force elsewhere), so the comparison
//! is not circular.

use std::sync::Arc;
use std::time::Duration;

use prf::core::TopScoreWeight;
use prf::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Seeded instances: score-descending pairs and banded x-tuple groups
// ---------------------------------------------------------------------

/// Random `(score, prob)` pairs (including the 0.0 / 1.0 edge probs)
/// sorted score-descending, so any contiguous split is score-contiguous
/// and shard-major ids equal the unsharded insertion ids.
fn sorted_pairs(seed: u64, n: usize) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..1000.0),
                match rng.gen_range(0..10) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.01..1.0),
                },
            )
        })
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    pairs
}

fn db_from(pairs: &[(f64, f64)]) -> IndependentDb {
    IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs")
}

/// Splits score-descending `pairs` at the ascending `cuts` positions into
/// `IndependentDb` shard handles (repeated cuts produce empty shards).
fn shard_dbs(pairs: &[(f64, f64)], cuts: &[usize]) -> Vec<ShardHandle> {
    let mut shards: Vec<ShardHandle> = Vec::new();
    let mut lo = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&pairs.len())) {
        shards.push(Arc::new(db_from(&pairs[lo..cut])));
        lo = cut;
    }
    shards
}

/// Random x-tuple groups in non-overlapping, descending score bands
/// (group `g`'s scores all sit in `(990 − 10g, 1000 − 10g]`), so any
/// split into runs of whole consecutive groups is score-contiguous. The
/// first `singleton_prefix` groups have exactly one alternative, letting
/// the mixed-backend test carve them out as an `IndependentDb` shard.
fn banded_x_groups(seed: u64, groups: usize, singleton_prefix: usize) -> Vec<Vec<(f64, f64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..groups)
        .map(|g| {
            let hi = 1000.0 - 10.0 * g as f64;
            let alts = if g < singleton_prefix {
                1
            } else {
                rng.gen_range(1..4)
            };
            let mut budget = 1.0f64;
            (0..alts)
                .map(|_| {
                    let p = rng.gen_range(0.0..budget.min(0.7));
                    budget -= p;
                    (hi - rng.gen_range(0.0..9.9), p)
                })
                .collect()
        })
        .collect()
}

/// Shards a banded group spec into `AndXorTree`s of whole consecutive
/// groups, split at the ascending group-index `cuts`.
fn shard_trees(spec: &[Vec<(f64, f64)>], cuts: &[usize]) -> Vec<ShardHandle> {
    let mut shards: Vec<ShardHandle> = Vec::new();
    let mut lo = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&spec.len())) {
        shards.push(Arc::new(
            AndXorTree::from_x_tuples(&spec[lo..cut]).expect("valid groups"),
        ));
        lo = cut;
    }
    shards
}

// ---------------------------------------------------------------------
// Equivalence assertion (same shape as tests/batch_equivalence.rs)
// ---------------------------------------------------------------------

/// Ranking orders must agree — except across **exact value ties**, which
/// the sharded and unsharded folds may break differently (their
/// accumulation orders differ in the last ulp: PT(n) ties every prob-1
/// tuple at 1.0, E-Rank ties every prob-0 tuple, …). Where the orders
/// diverge, every position's ranking key must still agree within `TOL`,
/// so only tie permutations pass, never a genuine rank change.
fn assert_ranking_equivalent(got: &RankedResult, want: &RankedResult, ctx: &str) {
    let gorder = got.ranking.order();
    let worder = want.ranking.order();
    assert_eq!(gorder.len(), worder.len(), "{ctx}: ranking length");
    if gorder == worder {
        return;
    }
    let mut want_key = vec![f64::NAN; want.values.len()];
    for (pos, t) in worder.iter().enumerate() {
        want_key[t.index()] = want.ranking.key_at(pos);
    }
    for (pos, t) in gorder.iter().enumerate() {
        let wk = want_key[t.index()];
        let at = want.ranking.key_at(pos);
        let close = (wk - at).abs() <= TOL * at.abs().max(1.0)
            || (wk.is_infinite() && at.is_infinite() && wk == at);
        assert!(
            close,
            "{ctx}: position {pos}: tuple {t:?} (key {wk}) vs expected key {at} — \
             more than a tie flip"
        );
    }
}

fn assert_equivalent(got: &RankedResult, want: &RankedResult, ctx: &str) {
    assert_eq!(
        got.report.algorithm, want.report.algorithm,
        "{ctx}: resolved algorithm"
    );
    assert_eq!(
        got.report.numeric_mode, want.report.numeric_mode,
        "{ctx}: numeric mode"
    );
    assert_ranking_equivalent(got, want, ctx);
    match (&got.values, &want.values) {
        (Values::Complex(a), Values::Complex(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(x.approx_eq(*y, TOL), "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::LogDomain(a), Values::LogDomain(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let close = (x - y).abs() <= TOL * y.abs().max(1.0)
                    || (x.is_infinite() && y.is_infinite() && x == y);
                assert!(close, "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::Scaled(a), Values::Scaled(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let (kx, ky) = (x.magnitude_key(), y.magnitude_key());
                let close = (kx - ky).abs() <= TOL * ky.abs().max(1.0)
                    || (kx.is_infinite() && ky.is_infinite() && kx == ky);
                assert!(close, "{ctx}: tuple {t}: key {kx} vs {ky}");
            }
        }
        (g, w) => panic!(
            "{ctx}: value mode mismatch: sharded {:?} vs unsharded {:?}",
            g.numeric_mode(),
            w.numeric_mode()
        ),
    }
}

/// The semantics mix every split is checked under: rank-only and
/// tuple-dependent PRFω, every PRFe numeric mode, the closed-form
/// semantics, and U-Rank (which routes through positional PRF passes on
/// the sharded side).
fn shard_mix(n: usize) -> Vec<RankQuery> {
    let n = n.max(1);
    vec![
        RankQuery::pt(2.min(n)),
        RankQuery::pt(n),
        RankQuery::consensus(3.min(n)),
        RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.25, 0.125])),
        RankQuery::prf(TopScoreWeight),
        RankQuery::prfe(0.95),
        RankQuery::prfe(0.4).algorithm(Algorithm::LogDomain),
        RankQuery::prfe(0.8).algorithm(Algorithm::Scaled),
        RankQuery::prfe_complex(Complex::new(0.5, 0.3)).algorithm(Algorithm::ExactGf),
        RankQuery::erank(),
        RankQuery::escore(),
        RankQuery::urank(4.min(n)),
    ]
}

/// Runs every query singly *and* as one [`QueryBatch`] (the merged
/// shared-walk route) on the sharded relation and compares each result to
/// the same query run directly on the unsharded reference.
fn assert_sharded_equivalent(
    sharded: &ShardedRelation,
    reference: &(impl ProbabilisticRelation + ?Sized),
    queries: &[RankQuery],
    ctx: &str,
) {
    let wants: Vec<RankedResult> = queries
        .iter()
        .map(|q| q.run(reference).expect("reference query runs"))
        .collect();
    for (i, (q, want)) in queries.iter().zip(&wants).enumerate() {
        let got = q.run(sharded).expect("sharded query runs");
        assert_equivalent(
            &got,
            want,
            &format!("{ctx}[{i}] single {}", want.report.semantics),
        );
    }
    let batch = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .run(sharded)
        .expect("sharded batch runs");
    assert_eq!(batch.len(), queries.len(), "{ctx}: one result per query");
    for (i, (got, want)) in batch.iter().zip(&wants).enumerate() {
        assert_equivalent(
            got,
            want,
            &format!("{ctx}[{i}] batch {}", want.report.semantics),
        );
    }
}

// ---------------------------------------------------------------------
// IndependentDb shards: 1 / 2 / 4 / 7 shards, uneven, empty, singleton
// ---------------------------------------------------------------------

#[test]
fn sharded_equals_unsharded_on_independent() {
    let splits: &[(&str, &[usize])] = &[
        ("1 shard", &[]),
        ("2 even", &[20]),
        ("4 uneven", &[5, 19, 33]),
        // 7 shards: one empty (repeated cut), one single-tuple (39..40).
        ("7 degenerate", &[6, 6, 7, 20, 31, 39]),
    ];
    for seed in 0..3u64 {
        let pairs = sorted_pairs(seed, 40);
        let unsharded = db_from(&pairs);
        for (name, cuts) in splits {
            for workers in [1usize, 3] {
                let sharded =
                    ShardedRelation::new(shard_dbs(&pairs, cuts), workers).expect("contiguous");
                assert_eq!(sharded.shard_count(), cuts.len() + 1);
                assert_sharded_equivalent(
                    &sharded,
                    &unsharded,
                    &shard_mix(40),
                    &format!("independent seed {seed} {name} workers {workers}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// AndXorTree shards: x-tuple groups in disjoint score bands
// ---------------------------------------------------------------------

#[test]
fn sharded_equals_unsharded_on_xtuple_trees() {
    let splits: &[(&str, &[usize])] = &[("2 shards", &[5]), ("4 shards", &[2, 6, 11])];
    for seed in 0..3u64 {
        let spec = banded_x_groups(seed + 100, 12, 0);
        let unsharded = AndXorTree::from_x_tuples(&spec).expect("valid groups");
        let n = unsharded.n_tuples();
        for (name, cuts) in splits {
            let sharded = ShardedRelation::new(shard_trees(&spec, cuts), 2).expect("contiguous");
            assert_sharded_equivalent(
                &sharded,
                &unsharded,
                &shard_mix(n),
                &format!("xtuple seed {seed} {name}"),
            );
        }
    }
}

#[test]
fn mixed_backend_shards_match_one_tree() {
    // The leading band is all singleton groups — representable either as
    // part of the x-tuple tree (the unsharded reference) or as an
    // `IndependentDb` shard (the sharded side): the monoid merge is
    // backend-agnostic, so mixing shard backends must change nothing.
    for seed in 0..2u64 {
        let spec = banded_x_groups(seed + 200, 10, 4);
        let unsharded = AndXorTree::from_x_tuples(&spec).expect("valid groups");
        let singles: Vec<(f64, f64)> = spec[..4].iter().map(|g| g[0]).collect();
        let shards: Vec<ShardHandle> = vec![
            Arc::new(db_from(&singles)),
            Arc::new(AndXorTree::from_x_tuples(&spec[4..7]).expect("valid groups")),
            Arc::new(AndXorTree::from_x_tuples(&spec[7..]).expect("valid groups")),
        ];
        let sharded = ShardedRelation::new(shards, 2).expect("contiguous");
        assert_eq!(sharded.correlation_class(), CorrelationClass::XTuple);
        assert_sharded_equivalent(
            &sharded,
            &unsharded,
            &shard_mix(unsharded.n_tuples()),
            &format!("mixed seed {seed}"),
        );
    }
}

/// Adds `n` tuples under `parent`, scores in `band`: ∨ nodes over ∧ pairs
/// of leaves, a general and/xor tree (an x-tuple tree would answer PT(h)
/// without a walk).
fn grow_xor_of_pairs(
    b: &mut TreeBuilder,
    parent: prf::pdb::NodeId,
    rng: &mut StdRng,
    n: usize,
    band: (f64, f64),
) {
    let mut left = n;
    while left > 0 {
        let xor = b.add_inner(parent, NodeKind::Xor, 1.0).unwrap();
        for _ in 0..3 {
            let pair = b
                .add_inner(xor, NodeKind::And, rng.gen_range(0.05..0.33))
                .unwrap();
            for _ in 0..left.min(2) {
                b.add_leaf(pair, 1.0, rng.gen_range(band.0..band.1))
                    .unwrap();
                left -= 1;
            }
        }
    }
}

#[test]
fn tree_shards_take_the_parallel_tree_walk() {
    // The smallest shard the parallel tree walk takes at 2 workers.
    let per_shard = 2 * PARALLEL_MIN_SHARD_TUPLES;
    assert_eq!(effective_walk_threads(per_shard, Some(2)), 2);
    let bands = [(500.0, 1000.0), (0.0, 500.0)];
    let mut rng = StdRng::seed_from_u64(31);
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    for &band in &bands {
        grow_xor_of_pairs(&mut b, root, &mut rng, per_shard, band);
    }
    let unsharded = b.build().unwrap();
    // Each shard replays its share of the same seeded stream, so local ids
    // line up with the unsharded tree's.
    let mut rng = StdRng::seed_from_u64(31);
    let shards: Vec<ShardHandle> = bands
        .iter()
        .map(|&band| {
            let mut b = TreeBuilder::new(NodeKind::And);
            let root = b.root();
            grow_xor_of_pairs(&mut b, root, &mut rng, per_shard, band);
            Arc::new(b.build().unwrap()) as ShardHandle
        })
        .collect();
    let sharded = ShardedRelation::new(shards, 2).expect("contiguous");
    assert_sharded_equivalent(
        &sharded,
        &unsharded,
        &[RankQuery::pt(3), RankQuery::prfe(0.9)],
        "tree shards, 2 workers",
    );
}

// ---------------------------------------------------------------------
// Degenerate relations, validation errors, unsupported semantics
// ---------------------------------------------------------------------

#[test]
fn all_empty_shards_answer_emptily() {
    let sharded =
        ShardedRelation::new(vec![Arc::new(db_from(&[])), Arc::new(db_from(&[]))], 2).unwrap();
    assert_eq!(sharded.n_tuples(), 0);
    for q in [RankQuery::pt(3), RankQuery::prfe(0.6), RankQuery::erank()] {
        let res = q.run(&sharded).expect("empty relation answers");
        assert!(res.values.is_empty());
        assert!(res.ranking.is_empty());
    }
}

#[test]
fn overlapping_shards_are_rejected() {
    // Shard 1's max score (7) exceeds shard 0's min (5): interleaved.
    let hi = db_from(&[(10.0, 0.5), (5.0, 0.5)]);
    let lo = db_from(&[(7.0, 0.5), (1.0, 0.9)]);
    let err = ShardedRelation::new(vec![Arc::new(hi), Arc::new(lo)], 1).unwrap_err();
    match err {
        ShardError::NotContiguous {
            shard,
            upper_min,
            lower_max,
        } => {
            assert_eq!(shard, 1);
            assert_eq!(upper_min, 5.0);
            assert_eq!(lower_max, 7.0);
        }
        other => panic!("expected NotContiguous, got {other:?}"),
    }
    // Boundary ties are fine — they resolve by shard order like the sort.
    let hi = db_from(&[(10.0, 0.5), (5.0, 0.5)]);
    let lo = db_from(&[(5.0, 0.5), (1.0, 0.9)]);
    assert!(ShardedRelation::new(vec![Arc::new(hi), Arc::new(lo)], 1).is_ok());
}

#[test]
fn backends_without_gf_hooks_are_rejected() {
    use prf::graphical::{Factor, MarkovNetwork, VarId};
    let expect_unsupported = |err: ShardError, at: usize, want: CorrelationClass| match err {
        ShardError::Unsupported { shard, class } => assert_eq!((shard, class), (at, want)),
        other => panic!("expected Unsupported, got {other:?}"),
    };
    let net = MarkovNetwork::new(
        2,
        vec![Factor::new(
            vec![VarId(0), VarId(1)],
            vec![0.4, 0.3, 0.2, 0.1],
        )],
    );
    let rel = NetworkRelation::new(&net, vec![2.0, 1.0]).expect("valid scores");
    let err = ShardedRelation::new(vec![Arc::new(rel)], 1).unwrap_err();
    expect_unsupported(err, 0, CorrelationClass::Graphical);

    // Shards do not nest: a sharded relation has no presence hook.
    let pairs = sorted_pairs(9, 12);
    let nested = |pairs: &[(f64, f64)]| -> ShardHandle {
        Arc::new(ShardedRelation::new(shard_dbs(pairs, &[pairs.len() / 2]), 2).unwrap())
    };
    let flat = |pairs: &[(f64, f64)]| -> ShardHandle { Arc::new(db_from(pairs)) };
    let (hi, lo) = pairs.split_at(4);
    let err = ShardedRelation::new(vec![nested(hi), flat(lo)], 2).unwrap_err();
    expect_unsupported(err, 0, CorrelationClass::Independent);
    let server = RankServer::new(ServeConfig::new());
    let err = server.register_sharded("nested", vec![flat(hi), nested(lo)], 2);
    expect_unsupported(err.unwrap_err(), 1, CorrelationClass::Independent);
    server.shutdown();
}

#[test]
fn utop_is_pinned_unsupported_on_sharded() {
    // The most probable top-k *set* does not decompose over the prefix
    // monoid — the sharded backend must refuse rather than approximate.
    let pairs = sorted_pairs(5, 16);
    let sharded = ShardedRelation::new(shard_dbs(&pairs, &[8]), 2).unwrap();
    let err = RankQuery::utop(3).run(&sharded).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Unsupported {
                semantics: "U-Top",
                ..
            }
        ),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Live shards: in-band mutation, generation tracking
// ---------------------------------------------------------------------

#[test]
fn live_shard_mutations_stay_equivalent_and_bump_the_generation() {
    let mut pairs = sorted_pairs(7, 24);
    let (hi, lo) = (pairs[..12].to_vec(), pairs[12..].to_vec());
    let live = Arc::new(LiveRelation::new(db_from(&hi)));
    let handle: ShardHandle = live.clone();
    let sharded = ShardedRelation::new(vec![handle, Arc::new(db_from(&lo))], 2).unwrap();

    let g0 = sharded.generation();
    assert_sharded_equivalent(&sharded, &db_from(&pairs), &shard_mix(24), "live baseline");
    assert_eq!(sharded.generation(), g0, "queries alone never bump");

    // Reweight inside the live shard: the score band is untouched, the
    // sharded generation must move, and answers must match an unsharded
    // relation rebuilt with the new probability.
    live.apply(&Mutation::Reweight(TupleId(3), 0.123))
        .expect("reweight applies");
    assert!(sharded.generation() > g0, "mutation bumps the generation");
    pairs[3].1 = 0.123;
    assert_sharded_equivalent(
        &sharded,
        &db_from(&pairs),
        &shard_mix(24),
        "live reweighted",
    );
}

// ---------------------------------------------------------------------
// Serving: register_sharded ≡ direct unsharded evaluation
// ---------------------------------------------------------------------

#[test]
fn serve_register_sharded_matches_direct() {
    let pairs = sorted_pairs(11, 32);
    let unsharded = db_from(&pairs);
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
    let rel = server
        .register_sharded("sharded", shard_dbs(&pairs, &[10, 21]), 2)
        .expect("contiguous shards register");

    let queries = shard_mix(32);
    let handles: Vec<ResponseHandle> = queries
        .iter()
        .map(|q| server.submit(rel, q.clone()).expect("admitted"))
        .collect();
    for (i, (handle, q)) in handles.into_iter().zip(&queries).enumerate() {
        let got = handle.recv().expect("served answer");
        let want = q.run(&unsharded).expect("direct run");
        assert_equivalent(
            &got,
            &want,
            &format!("serve[{i}] {}", want.report.semantics),
        );
    }

    // A repeat of a cacheable query (possibly served from the result
    // cache — same generation, same key) must stay byte-equivalent.
    let q = RankQuery::prfe(0.95);
    let again = server.submit(rel, q.clone()).unwrap().recv().unwrap();
    assert_equivalent(&again, &q.run(&unsharded).unwrap(), "serve cache repeat");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Proptest: random shard boundaries (failures shrink to minimal splits)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_shard_boundaries_match_unsharded(
        seed in 0u64..5000,
        cuts in proptest::collection::vec(0usize..=24, 0..5),
        workers in 1usize..4,
    ) {
        let pairs = sorted_pairs(seed, 24);
        let mut cuts = cuts;
        cuts.sort_unstable();
        let sharded = ShardedRelation::new(shard_dbs(&pairs, &cuts), workers)
            .expect("sorted cuts of sorted pairs are contiguous");
        let unsharded = db_from(&pairs);
        let queries = [
            RankQuery::pt(5),
            RankQuery::prfe(0.9),
            RankQuery::prf(TopScoreWeight),
            RankQuery::erank(),
        ];
        for (i, q) in queries.iter().enumerate() {
            let got = q.run(&sharded).expect("sharded query runs");
            let want = q.run(&unsharded).expect("unsharded query runs");
            assert_equivalent(&got, &want, &format!("cuts {cuts:?} workers {workers} [{i}]"));
        }
    }
}
