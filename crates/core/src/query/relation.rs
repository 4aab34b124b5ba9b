//! The backend abstraction of the unified query engine.
//!
//! A [`ProbabilisticRelation`] is anything the engine can rank. Implementing
//! one takes **metadata plus one walk**: the scored-tuple view (`n_tuples`,
//! `tuple_scores`, `tuple_marginals`, `correlation_class`) and
//! [`ProbabilisticRelation::run_shared_walk`], which answers a list
//! of [`SharedRequest`]s — weight-based Υ, PRFe in any numeric mode,
//! expected ranks — from one pass over the relation. Every semantics of
//! [`super::Semantics`] is read off those answers by the batch executor
//! (single queries are batches of one), except three direct routes:
//! E-Score's closed form, U-Top ([`ProbabilisticRelation::most_probable_topk`])
//! and U-Rank ([`ProbabilisticRelation::positional_candidates`], whose
//! default is itself one walk).
//!
//! `prf-core` implements the trait for [`IndependentDb`] and [`AndXorTree`]
//! (plus the wrappers `PreparedRelation`, `LiveRelation` and
//! `ShardedRelation`). The minimal worked example is `prf-graphical`'s
//! `NetworkRelation`: its walk computes the junction-tree positional
//! probabilities once and reads every request off them, returning `None`
//! for expected ranks, which the engine reports as
//! [`QueryError::Unsupported`].

use std::sync::Arc;

use prf_numeric::{Complex, GfValue, RankPoly, Scaled};
use prf_pdb::{AndXorTree, IndependentDb, TupleId};

use super::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec};
use super::kernels;
use super::{PreparedState, QueryError, TopkCarry};
use crate::weights::PositionWeight;

/// How the tuples of a relation may be correlated — drives the `Auto`
/// algorithm heuristic and is echoed in the evaluation report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorrelationClass {
    /// Fully independent tuples.
    Independent,
    /// X-tuples: mutually exclusive groups, independent across groups
    /// (height-2 and/xor trees).
    XTuple,
    /// A general probabilistic and/xor tree.
    Tree,
    /// Arbitrary correlations through a graphical model.
    Graphical,
}

impl std::fmt::Display for CorrelationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CorrelationClass::Independent => "independent",
            CorrelationClass::XTuple => "x-tuple",
            CorrelationClass::Tree => "and/xor tree",
            CorrelationClass::Graphical => "graphical",
        };
        f.write_str(s)
    }
}

/// World-count budget for the exact enumerated U-Top path on correlated
/// backends; beyond it the query reports `Unsupported`.
const UTOP_WORLD_LIMIT: usize = 1 << 20;

/// A probabilistic relation the [`super::RankQuery`] engine can evaluate:
/// metadata plus one walk (see the module docs).
///
/// Only the four metadata methods and [`Self::run_shared_walk`] are
/// required. The provided methods are capability hooks with conservative
/// defaults: no cacheable preparation, no exact U-Top, U-Rank through one
/// walk of position-indicator weights, and no sharding support.
pub trait ProbabilisticRelation {
    /// Number of tuples.
    fn n_tuples(&self) -> usize;

    /// Tuple scores, indexed by tuple id.
    fn tuple_scores(&self) -> Vec<f64>;

    /// Tuple existence marginals `Pr(t ∈ pw)`, indexed by tuple id.
    fn tuple_marginals(&self) -> Vec<f64>;

    /// The correlation structure of this backend.
    fn correlation_class(&self) -> CorrelationClass;

    /// A monotone counter identifying the current *version* of the
    /// relation's data. Immutable backends return `0` forever (the
    /// default); mutable wrappers like [`crate::live::LiveRelation`] bump
    /// it on every applied [`crate::live::Mutation`]. A
    /// [`super::PreparedRelation`] compares this against the generation its
    /// cached state was built from and re-prepares on mismatch instead of
    /// silently serving a stale sort/plan/marginal cache.
    fn generation(&self) -> u64 {
        0
    }

    /// Builds the backend's reusable evaluation state — an and/xor tree's
    /// score order, compiled [`crate::incremental::EvalPlan`] and
    /// marginals, or whatever else the walk would rebuild per call. A
    /// [`super::PreparedRelation`] calls this **once** at registration and
    /// threads the result through every later walk. The default is the
    /// empty state, which every walk reads as "unprepared"; an
    /// [`IndependentDb`] keeps that default, because it stores its score
    /// order.
    fn prepare(&self) -> PreparedState {
        PreparedState::empty()
    }

    /// The engine's only evaluation method: serves every request of `spec`
    /// from **one** score-order walk — one sort, one compiled plan, one
    /// leaf-relabeling pass with a shared truncated-polynomial evaluator
    /// plus one scalar evaluator per PRFe/E-Rank request — and returns one
    /// [`SharedAnswer`] per request, in request order.
    ///
    /// `prep` is state built by [`Self::prepare`]; an empty state (or a
    /// foreign one, built by another backend) means "unprepared", and the
    /// walk builds what it needs itself. Return `None` when the walk was
    /// cancelled (poll [`SharedWalkSpec::is_cancelled`]) or when some
    /// request has no exact algorithm on this backend: the engine then
    /// retries each query alone and reports
    /// [`QueryError::Unsupported`] for the ones that still get `None`.
    ///
    /// `carry` holds each request's top-`k` and, between the shards of a
    /// [`crate::shard::ShardedRelation`], its running cut and the shard's
    /// prefix state ([`TopkCarry`]). A backend walking in score order may
    /// stop a capped consumer at the first position where no unread tuple
    /// can enter its top `k`, and report the visited prefix in
    /// [`SharedWalkOut::visits`]; that answer is exact on the prefix and
    /// holds the worst value of its shape beyond it. The stop point must
    /// depend only on the relation and the consumer's own request and `k`.
    ///
    /// A full walk is always a valid answer to a fresh carry
    /// ([`TopkCarry::is_fresh`]), so a backend may ignore the carry when it
    /// cannot be a shard (it has no [`Self::presence_gf`]): only a sharded
    /// walk passes any other carry. A shard backend that cannot resume a
    /// carry returns `None` for it. [`IndependentDb`] stops early and
    /// resumes. An [`AndXorTree`] in x-tuple form stops its capped
    /// truncated weight consumers (PT(h), PRFω(h)) at a block end of the
    /// x-tuple kernel ([`crate::xtuple`]) on a fresh carry, walks every
    /// other consumer in full, and cannot resume. Wrappers forward the
    /// carry.
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut>;

    /// [`Self::run_shared_walk`] with a fresh carry: every consumer walks
    /// in full. A shorthand; backends do not override it.
    fn run_shared_walk_prepared(
        &self,
        spec: &SharedWalkSpec,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        self.run_shared_walk(spec, &mut TopkCarry::default(), prep)
    }

    /// The most probable top-k *set* (score-descending members, ln
    /// probability). `Err(Unsupported)` when the backend has no exact
    /// algorithm; `Err(NoSetAnswer)` when `k` exceeds the relation or no
    /// set has positive probability.
    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        let _ = k;
        Err(QueryError::Unsupported {
            semantics: "U-Top",
            backend: self.correlation_class(),
        })
    }

    /// Bounded per-position candidate lists `Pr(r(t) = j)` for
    /// `j ≤ min(k, n)` — the substrate of U-Rank. The default runs **one**
    /// walk of `k` position-indicator weights `ω(i) = δ(i = j)` (the
    /// paper's reduction); backends override with single-pass kernels.
    fn positional_candidates(&self, k: usize) -> kernels::PositionalCandidates {
        let k = k.min(self.n_tuples());
        let mut table = kernels::PositionalCandidates::new(k);
        let spec = SharedWalkSpec {
            requests: (1..=k)
                .map(|j| SharedRequest::Weight(Arc::new(PositionWeight { j })))
                .collect(),
            threads: None,
            cancel: None,
        };
        if let Some(out) = self.run_shared_walk_prepared(&spec, &PreparedState::empty()) {
            for (j, answer) in out.answers.iter().enumerate() {
                if let SharedAnswer::Complex(vals) = answer {
                    for (t, v) in vals.iter().enumerate() {
                        table.push(j, v.re, TupleId(t as u32));
                    }
                }
            }
        }
        table
    }

    /// The presence-count generating function
    /// `G(x) = Σ_a Pr(|pw ∩ R| = a)·xᵃ` from one pass over the relation:
    /// with `cap`, its coefficients truncated to `cap` (degrees `< cap`;
    /// trailing zeros may be trimmed, missing entries are zero; empty
    /// without `cap`), and `G(α)` in scaled arithmetic at each of `alphas`,
    /// in order. This is the *monoid element* sharding composes: across
    /// independent score-contiguous shards the global GF is the product of
    /// the per-shard GFs, so [`crate::shard::ShardedRelation`] folds these
    /// to build each shard's incoming prefix state. `None` (the default)
    /// marks a backend that cannot be a shard.
    fn presence_gf(&self, cap: Option<usize>, alphas: &[Complex]) -> Option<PresenceGf> {
        let _ = (cap, alphas);
        None
    }
}

/// What [`ProbabilisticRelation::presence_gf`] returns: `G`'s truncated
/// coefficients and its scaled value at each requested point.
pub type PresenceGf = (Vec<f64>, Vec<Scaled<Complex>>);

impl ProbabilisticRelation for IndependentDb {
    fn n_tuples(&self) -> usize {
        self.len()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        self.scores()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.probabilities()
    }

    fn correlation_class(&self) -> CorrelationClass {
        CorrelationClass::Independent
    }

    /// The stored score order is the whole of the walk's setup, so there
    /// is nothing to prepare and `prep` is ignored.
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        crate::independent::batch_walk_independent(self, spec, carry)
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        kernels::most_probable_topk_independent(self, k).ok_or(QueryError::NoSetAnswer)
    }

    fn positional_candidates(&self, k: usize) -> kernels::PositionalCandidates {
        kernels::positional_candidates_independent(self, k)
    }

    /// One linear factor `(1 − p) + p·x` per tuple, in id order,
    /// multiplied into the coefficients and into every point.
    fn presence_gf(&self, cap: Option<usize>, alphas: &[Complex]) -> Option<PresenceGf> {
        let mut coeffs = prf_numeric::Poly::one();
        let mut points = vec![Scaled::<Complex>::one(); alphas.len()];
        for p in self.probabilities() {
            if let Some(cap) = cap {
                coeffs.mul_linear_in_place(1.0 - p, p, cap.max(1));
            }
            for (g, &alpha) in points.iter_mut().zip(alphas) {
                *g = g.mul(&Scaled::new(Complex::real(1.0 - p) + alpha * p));
            }
        }
        let coeffs = cap.map_or_else(Vec::new, |_| coeffs.coeffs().to_vec());
        Some((coeffs, points))
    }
}

impl ProbabilisticRelation for AndXorTree {
    fn n_tuples(&self) -> usize {
        AndXorTree::n_tuples(self)
    }

    fn tuple_scores(&self) -> Vec<f64> {
        AndXorTree::scores(self).to_vec()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.marginals()
    }

    fn correlation_class(&self) -> CorrelationClass {
        if self.is_x_tuple() {
            CorrelationClass::XTuple
        } else {
            CorrelationClass::Tree
        }
    }

    fn prepare(&self) -> PreparedState {
        if AndXorTree::n_tuples(self) == 0 {
            return PreparedState::empty();
        }
        PreparedState::tree(crate::tree::TreePrepared::new(self))
    }

    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        if !carry.is_fresh() {
            return None;
        }
        let start = std::time::Instant::now();
        let n = AndXorTree::n_tuples(self);
        let built;
        let tp = match prep.tree_prepared() {
            Some(tp) if tp.order.len() == n => tp,
            _ => {
                built = crate::tree::TreePrepared::new(self);
                &built
            }
        };
        crate::tree::batch_walk_tree(self, spec, carry, tp, start)
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        if k == 0 || k > AndXorTree::n_tuples(self) {
            return Err(QueryError::NoSetAnswer);
        }
        let worlds =
            self.enumerate_worlds(UTOP_WORLD_LIMIT)
                .map_err(|_| QueryError::Unsupported {
                    semantics: "U-Top (exact enumeration exceeds the world budget)",
                    backend: self.correlation_class(),
                })?;
        kernels::most_probable_topk_enumerated(&worlds, AndXorTree::scores(self), k)
            .ok_or(QueryError::NoSetAnswer)
    }

    fn positional_candidates(&self, k: usize) -> kernels::PositionalCandidates {
        kernels::positional_candidates_tree(self, k)
    }

    /// One bottom-up fold of the tree over `PresenceValue`s, so each
    /// output takes the floating-point operations of its own fold.
    fn presence_gf(&self, cap: Option<usize>, alphas: &[Complex]) -> Option<PresenceGf> {
        if AndXorTree::n_tuples(self) == 0 {
            let coeffs = cap.map_or_else(Vec::new, |_| vec![1.0]);
            return Some((coeffs, vec![Scaled::one(); alphas.len()]));
        }
        let x = RankPoly::x().with_cap(cap.unwrap_or(1).max(1));
        let leaf = PresenceValue(x, alphas.iter().map(|&a| Scaled::new(a)).collect());
        let g = self.generating_function(|_| leaf.clone());
        let coeffs = cap.map_or_else(Vec::new, |_| g.0.a.coeffs().to_vec());
        // The root sits above a leaf, so it holds one point per α.
        Some((coeffs, g.1))
    }
}

/// A tree's presence GF for every output at once: the coefficient
/// polynomial and one scaled point per α. A one-point vector is a scalar
/// broadcast over every α (the identities and the ∨ slack), so each point
/// takes exactly the operations of its own fold.
#[derive(Clone)]
struct PresenceValue(RankPoly, Vec<Scaled<Complex>>);

impl PresenceValue {
    /// `poly` beside the point-wise `f`, broadcasting a one-point side.
    fn zip(
        &self,
        rhs: &Self,
        poly: RankPoly,
        f: impl Fn(&Scaled<Complex>, &Scaled<Complex>) -> Scaled<Complex>,
    ) -> Self {
        let (a, b) = (&self.1, &rhs.1);
        let points = match (a.len(), b.len()) {
            (1, m) if m != 1 => b.iter().map(|b| f(&a[0], b)).collect(),
            (_, 1) => a.iter().map(|a| f(a, &b[0])).collect(),
            _ => a.iter().zip(b).map(|(a, b)| f(a, b)).collect(),
        };
        PresenceValue(poly, points)
    }
}

impl GfValue for PresenceValue {
    fn zero() -> Self {
        PresenceValue(RankPoly::zero(), vec![Scaled::zero()])
    }
    fn one() -> Self {
        PresenceValue(RankPoly::one(), vec![Scaled::one()])
    }
    fn from_scalar(c: f64) -> Self {
        PresenceValue(RankPoly::from_scalar(c), vec![Scaled::from_scalar(c)])
    }
    fn add(&self, rhs: &Self) -> Self {
        self.zip(rhs, self.0.add(&rhs.0), |a, b| a.add(b))
    }
    fn mul(&self, rhs: &Self) -> Self {
        self.zip(rhs, self.0.mul(&rhs.0), |a, b| a.mul(b))
    }
    fn scale(&self, c: f64) -> Self {
        PresenceValue(self.0.scale(c), self.1.iter().map(|a| a.scale(c)).collect())
    }
    fn add_scaled(&self, rhs: &Self, c: f64) -> Self {
        self.zip(rhs, self.0.add_scaled(&rhs.0, c), |a, b| a.add_scaled(b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::batch::probe;
    use crate::weights::StepWeight;

    #[test]
    fn backends_report_their_class() {
        let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4)]).unwrap();
        assert_eq!(db.correlation_class(), CorrelationClass::Independent);
        let xt = AndXorTree::from_x_tuples(&[vec![(10.0, 0.5), (5.0, 0.4)]]).unwrap();
        assert_eq!(
            ProbabilisticRelation::correlation_class(&xt),
            CorrelationClass::XTuple
        );
    }

    #[test]
    fn trait_and_inherent_views_agree() {
        let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4), (1.0, 1.0)]).unwrap();
        assert_eq!(ProbabilisticRelation::n_tuples(&db), 3);
        assert_eq!(db.tuple_scores(), vec![10.0, 5.0, 1.0]);
        let direct = crate::independent::prf_rank(&db, &StepWeight { h: 2 });
        assert_eq!(direct, probe::prf(&db, StepWeight { h: 2 }));
    }

    #[test]
    fn presence_gf_matches_world_enumeration() {
        let alphas = [0.0, 0.5, 1.0].map(Complex::real);
        let alphas = [&alphas[..], &[Complex::new(0.3, 0.4)]].concat();
        let pairs = [(9.0, 0.3), (8.0, 1.0), (7.0, 0.0), (6.0, 0.55), (5.0, 0.8)];
        let db = IndependentDb::from_pairs(pairs).unwrap();
        let groups = [
            vec![(10.0, 0.2), (4.0, 0.5)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.3), (1.0, 0.4)],
        ];
        let xt = AndXorTree::from_x_tuples(&groups).unwrap();
        let general = crate::tree::tests::random_tree2(1, 8, 3);
        assert_eq!(general.correlation_class(), CorrelationClass::Tree);
        let live = crate::live::LiveRelation::new(db.clone());
        let (empty_db, empty_tree) = (
            IndependentDb::from_pairs([]).unwrap(),
            AndXorTree::from_x_tuples(&[]).unwrap(),
        );
        let cases: [(&dyn ProbabilisticRelation, _); 6] = [
            (&db, db.enumerate_worlds(64)),
            (&xt, xt.enumerate_worlds(64)),
            (&general, general.enumerate_worlds(256)),
            (&live, db.enumerate_worlds(64)),
            (&empty_db, empty_db.enumerate_worlds(1)),
            (&empty_tree, empty_tree.enumerate_worlds(1)),
        ];
        for (case, (rel, worlds)) in cases.iter().enumerate() {
            // `Pr(|pw| = a)` for `a ≤ n`, by brute force.
            let mut g = vec![0.0; rel.n_tuples() + 1];
            for (world, p) in &worlds.as_ref().unwrap().worlds {
                g[world.len()] += p;
            }
            let (none, points) = rel.presence_gf(None, &alphas).expect("a shard backend");
            assert!(none.is_empty(), "case {case}: no cap, no coefficients");
            // A lone α takes the operations it takes among others.
            let lone = rel.presence_gf(None, &alphas[3..]).unwrap().1;
            assert_eq!(format!("{lone:?}"), format!("{:?}", &points[3..]));
            for (alpha, point) in alphas.iter().zip(&points) {
                let want = g
                    .iter()
                    .rev()
                    .fold(Complex::ZERO, |acc, &c| acc * *alpha + Complex::real(c));
                assert!(
                    point.to_plain().approx_eq(want, 1e-12),
                    "case {case} α={alpha}"
                );
            }
            for cap in [1, 3, g.len() + 1] {
                let (coeffs, capped_points) = rel.presence_gf(Some(cap), &alphas).unwrap();
                assert!(coeffs.len() <= cap, "case {case} cap={cap}");
                for a in 0..cap {
                    let got = coeffs.get(a).copied().unwrap_or(0.0);
                    let want = g.get(a).copied().unwrap_or(0.0);
                    assert!((got - want).abs() < 1e-12, "case {case} cap={cap} a={a}");
                }
                // The coefficients ride the same pass as the points.
                assert_eq!(format!("{capped_points:?}"), format!("{points:?}"));
                assert!(rel.presence_gf(Some(cap), &[]).unwrap().1.is_empty());
            }
        }
    }

    #[test]
    fn default_positional_candidates_match_specialised() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.4),
            (9.0, 0.45),
            (8.0, 0.8),
            (7.0, 0.95),
            (6.0, 0.3),
        ])
        .unwrap();
        // Compare the one-walk default against the single-pass kernel.
        struct Generic<'a>(&'a IndependentDb);
        impl ProbabilisticRelation for Generic<'_> {
            fn n_tuples(&self) -> usize {
                self.0.len()
            }
            fn tuple_scores(&self) -> Vec<f64> {
                self.0.scores()
            }
            fn tuple_marginals(&self) -> Vec<f64> {
                self.0.probabilities()
            }
            fn correlation_class(&self) -> CorrelationClass {
                CorrelationClass::Graphical
            }
            fn run_shared_walk(
                &self,
                spec: &SharedWalkSpec,
                _carry: &mut TopkCarry,
                prep: &PreparedState,
            ) -> Option<SharedWalkOut> {
                self.0.run_shared_walk_prepared(spec, prep)
            }
        }
        for k in [1usize, 3, 5, 99] {
            let fast = db.positional_candidates(k).select_distinct();
            let slow = Generic(&db).positional_candidates(k).select_distinct();
            assert_eq!(
                fast.iter().map(|c| c.1).collect::<Vec<_>>(),
                slow.iter().map(|c| c.1).collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }
}
