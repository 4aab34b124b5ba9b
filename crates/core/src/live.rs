//! Live relations: in-place mutations with incremental re-ranking.
//!
//! Every backend in this crate is frozen at construction — the right choice
//! for one-shot analytics, but a serving layer watching a feed of updates
//! cannot afford to rebuild the relation, re-sort the tuples, and recompile
//! the evaluation plan for every changed probability. The machinery to avoid
//! that already exists: the incremental generating-function engine
//! ([`crate::incremental`]) touches only one leaf-to-root path per tuple
//! during a walk, and the same plan admits *data* changes — a ∨ edge
//! update is a linear delta (edge probability and parent slack), and a new
//! leaf splices into its consuming ∨ group by re-emitting one leaf-to-root
//! chain at the plan tail. This module packages those patches behind a
//! mutation API:
//!
//! * [`Mutation`] / [`MutationEffect`] — the update vocabulary: insert a
//!   tuple, delete a tuple, reweight a tuple's existence probability;
//! * [`MutableRelation`] — a [`ProbabilisticRelation`] that can apply
//!   mutations to itself and (best effort) patch a cached
//!   [`PreparedState`] instead of forcing a rebuild; implemented for
//!   [`IndependentDb`] (whose stored score order every mutation keeps
//!   exact, so it has no prepared state to patch) and [`AndXorTree`];
//! * [`LiveRelation`] — a concurrency-safe wrapper holding the backend, its
//!   prepared state and a generation counter: [`LiveRelation::apply`]
//!   mutates, patches the prepared state (a tree's score order, marginals
//!   and compiled plan) and bumps the generation so any outer
//!   [`crate::query::PreparedRelation`] re-prepares instead of serving
//!   stale answers. Queries take the backend's own walk, so a capped query
//!   on a live [`IndependentDb`] stops as early as on a frozen one;
//! * [`LiveApply`] — the object-safe slice of the above that `prf-serve`
//!   uses to drive mutations through `dyn` relation handles.
//!
//! The correctness bar is *differential*: mutate-then-query must equal
//! rebuild-then-query to 1e-9 across backends, semantics, and numeric modes
//! (`tests/live_equivalence.rs` pins this; the in-module tests cover the
//! patch plumbing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use prf_numeric::Complex;
use prf_pdb::{AndXorTree, IndependentDb, NodeKind, PdbError, TupleId};

use crate::query::batch::{SharedWalkOut, SharedWalkSpec};
use crate::query::kernels;
use crate::query::{
    CorrelationClass, PreparedState, PresenceGf, ProbabilisticRelation, QueryError, TopkCarry,
};

/// Splice budget: after this many tail splices the compiled plan's stale
/// orphaned chains outweigh the patch savings and the next insert triggers
/// a fresh compile (resetting the count) instead of another splice.
const SPLICE_BUDGET: u32 = 64;

// ---------------------------------------------------------------------
// The mutation vocabulary
// ---------------------------------------------------------------------

/// One in-place change to a live relation.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Add a new tuple with the next dense id. On an [`IndependentDb`] the
    /// tuple is independent; on an [`AndXorTree`] it joins the root's
    /// exclusive group when the root is ∨, and forms a fresh independent
    /// singleton ∨ group when the root is ∧.
    Insert {
        /// Score of the new tuple.
        score: f64,
        /// Existence probability of the new tuple.
        prob: f64,
    },
    /// Remove a tuple; larger ids shift down by one so ids stay dense.
    Delete(TupleId),
    /// Replace a tuple's existence probability (its ∨ edge probability on a
    /// tree backend), keeping scores and topology fixed.
    Reweight(TupleId, f64),
}

/// What a successfully applied [`Mutation`] did, with enough detail to
/// patch caches (the old probability for reweights, the assigned id for
/// inserts).
#[derive(Clone, Debug, PartialEq)]
pub enum MutationEffect {
    /// A tuple was inserted and got this id (`n_tuples() - 1` post-insert).
    Inserted(TupleId),
    /// This tuple was deleted; survivors with larger ids shifted down.
    Deleted(TupleId),
    /// A tuple's probability changed.
    Reweighted {
        /// The reweighted tuple.
        tuple: TupleId,
        /// Probability before the mutation.
        old_prob: f64,
        /// Probability after the mutation.
        new_prob: f64,
    },
}

// ---------------------------------------------------------------------
// MutableRelation: backends that can absorb mutations
// ---------------------------------------------------------------------

/// A [`ProbabilisticRelation`] that supports in-place mutations and can
/// (best effort) patch a cached [`PreparedState`] built from its pre-mutation
/// self.
pub trait MutableRelation: ProbabilisticRelation {
    /// Applies `m` to the relation. On error the relation is unchanged.
    fn apply_mutation(&mut self, m: &Mutation) -> Result<MutationEffect, PdbError>;

    /// Patches `state` (built by [`ProbabilisticRelation::prepare`] *before*
    /// the mutation) to describe the post-mutation relation, returning
    /// `false` when the state must instead be rebuilt from scratch. Called
    /// with `self` already mutated. The default never patches.
    fn patch_prepared(&self, state: &mut PreparedState, effect: &MutationEffect) -> bool {
        let _ = (state, effect);
        false
    }
}

/// Insertion index into a `(score desc, id asc)` order for a tuple whose id
/// is larger than every existing one: after every tuple with a `>=` score.
fn insert_position(order: &[TupleId], scores: impl Fn(TupleId) -> f64, new_score: f64) -> usize {
    order.partition_point(|&o| scores(o) >= new_score)
}

impl MutableRelation for IndependentDb {
    fn apply_mutation(&mut self, m: &Mutation) -> Result<MutationEffect, PdbError> {
        match *m {
            Mutation::Insert { score, prob } => {
                Ok(MutationEffect::Inserted(self.push_tuple(score, prob)?))
            }
            Mutation::Delete(t) => {
                self.remove_tuple(t)?;
                Ok(MutationEffect::Deleted(t))
            }
            Mutation::Reweight(t, prob) => {
                let old = self.set_prob(t, prob)?;
                Ok(MutationEffect::Reweighted {
                    tuple: t,
                    old_prob: old,
                    new_prob: prob,
                })
            }
        }
    }
}

impl MutableRelation for AndXorTree {
    fn apply_mutation(&mut self, m: &Mutation) -> Result<MutationEffect, PdbError> {
        match *m {
            Mutation::Insert { score, prob } => {
                // Validate up front so a rejected insert cannot leave a
                // freshly spliced (empty) ∨ group behind.
                if !(0.0..=1.0).contains(&prob) {
                    return Err(PdbError::Structure(format!(
                        "insert probability {prob} outside [0, 1]"
                    )));
                }
                if score.is_nan() {
                    return Err(PdbError::Structure("insert score is NaN".to_string()));
                }
                let root = self.root();
                let group = match self.kind(root) {
                    NodeKind::Xor => root,
                    NodeKind::And => self.insert_inner(root, NodeKind::Xor, 1.0)?,
                    NodeKind::Leaf(_) => {
                        return Err(PdbError::Structure(
                            "cannot insert into a single-leaf tree".to_string(),
                        ))
                    }
                };
                Ok(MutationEffect::Inserted(
                    self.insert_leaf(group, prob, score)?,
                ))
            }
            Mutation::Delete(t) => {
                self.delete_leaf(t)?;
                Ok(MutationEffect::Deleted(t))
            }
            Mutation::Reweight(t, prob) => {
                let old = self.reweight_leaf(t, prob)?;
                Ok(MutationEffect::Reweighted {
                    tuple: t,
                    old_prob: old,
                    new_prob: prob,
                })
            }
        }
    }

    fn patch_prepared(&self, state: &mut PreparedState, effect: &MutationEffect) -> bool {
        let n = AndXorTree::n_tuples(self);
        let Some(tp) = state.tree_prepared_mut() else {
            return false;
        };
        match *effect {
            MutationEffect::Reweighted {
                tuple,
                old_prob,
                new_prob,
            } => {
                if tp.order.len() != n || !tp.plan.reweight_leaf(tuple, old_prob, new_prob) {
                    return false;
                }
                tp.marginals[tuple.index()] = self.marginal(tuple);
                true
            }
            MutationEffect::Inserted(t) => {
                if tp.order.len() + 1 != n
                    || t.index() != tp.order.len()
                    || tp.plan.splices() >= SPLICE_BUDGET
                    || !tp.plan.splice_insert(self, t)
                {
                    return false;
                }
                let score = self.score(t);
                let at = insert_position(&tp.order, |o| self.score(o), score);
                tp.order.insert(at, t);
                tp.pos = vec![0; tp.order.len()];
                for (i, o) in tp.order.iter().enumerate() {
                    tp.pos[o.index()] = i;
                }
                tp.marginals.push(self.marginal(t));
                tp.groups = std::sync::OnceLock::new();
                true
            }
            // Plan nodes cannot be unspliced cheaply; rebuild.
            MutationEffect::Deleted(_) => false,
        }
    }
}

// ---------------------------------------------------------------------
// LiveRelation
// ---------------------------------------------------------------------

struct LiveInner<B> {
    backend: B,
    prepared: PreparedState,
}

/// A mutable, concurrency-safe [`ProbabilisticRelation`]: a backend, its
/// prepared state (score order, marginals, compiled plan) kept current under
/// [`Mutation`]s by incremental patching, with a full rebuild as the
/// fallback, and a generation counter. Every query takes the backend's own
/// score-order walk over that state. Every query entry point —
/// [`RankQuery::run`](crate::query::RankQuery::run),
/// [`QueryBatch`](crate::query::QueryBatch), `prf-serve` registration —
/// accepts a `&LiveRelation<_>` or `Arc<LiveRelation<_>>` like any other
/// relation.
///
/// ```
/// use prf_core::live::{LiveRelation, Mutation};
/// use prf_core::query::RankQuery;
/// use prf_pdb::{IndependentDb, TupleId};
///
/// let db = IndependentDb::from_pairs([(10.0, 0.9), (5.0, 0.6)]).unwrap();
/// let live = LiveRelation::new(db);
/// let before = RankQuery::prfe(0.8).run(&live).unwrap();
/// assert_eq!(before.ranking.order()[0], TupleId(0));
///
/// // Tank tuple 0's probability; the ranking flips without a rebuild.
/// live.apply(&Mutation::Reweight(TupleId(0), 0.05)).unwrap();
/// let after = RankQuery::prfe(0.8).run(&live).unwrap();
/// assert_eq!(after.ranking.order()[0], TupleId(1));
/// ```
///
/// # Staleness and generations
///
/// Each applied mutation bumps [`ProbabilisticRelation::generation`], so an
/// outer [`crate::query::PreparedRelation`] (e.g. one created by `prf-serve`'s
/// registration) detects the change and re-prepares. `LiveRelation` itself
/// threads its *own* prepared state into every walk, so wrapping it is never
/// required for freshness — the generation counter exists for callers that
/// cache around it.
pub struct LiveRelation<B> {
    inner: RwLock<LiveInner<B>>,
    generation: AtomicU64,
    /// Chaos/test hook fired inside [`LiveRelation::apply`] between the
    /// prepared-plan patch and the generation bump; see
    /// [`LiveRelation::arm_mutation_probe`].
    #[cfg(any(test, feature = "chaos"))]
    mutation_probe: std::sync::Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
}

impl<B: MutableRelation> LiveRelation<B> {
    /// Wraps `backend`, building its prepared state once.
    pub fn new(backend: B) -> Self {
        let prepared = backend.prepare();
        LiveRelation {
            inner: RwLock::new(LiveInner { backend, prepared }),
            generation: AtomicU64::new(0),
            #[cfg(any(test, feature = "chaos"))]
            mutation_probe: std::sync::Mutex::new(None),
        }
    }

    /// Arms a probe invoked inside every subsequent [`LiveRelation::apply`],
    /// between the prepared-plan patch and the generation bump. A
    /// panicking probe models a crash mid-apply: the backend has mutated
    /// and the plan is patched, but the generation counter still describes
    /// the pre-mutation relation, so outer wrappers keep serving stale
    /// state — exactly the
    /// half-applied state [`LiveRelation::repair`] (driven by the serving
    /// layer's panic recovery) must fix before anything is served.
    /// Compiled only under `cfg(any(test, feature = "chaos"))`.
    #[cfg(any(test, feature = "chaos"))]
    pub fn arm_mutation_probe(&self, probe: impl Fn() + Send + Sync + 'static) {
        *self
            .mutation_probe
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(std::sync::Arc::new(probe));
    }

    #[cfg(any(test, feature = "chaos"))]
    fn fire_mutation_probe(&self) {
        let probe = self
            .mutation_probe
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some(p) = probe {
            p();
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, LiveInner<B>> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, LiveInner<B>> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Applies one mutation: mutates the backend, patches (or rebuilds) the
    /// prepared state, and bumps the generation. On error nothing changes.
    pub fn apply(&self, m: &Mutation) -> Result<MutationEffect, PdbError> {
        let mut inner = self.write();
        let effect = inner.backend.apply_mutation(m)?;
        let LiveInner { backend, prepared } = &mut *inner;
        if !backend.patch_prepared(prepared, &effect) {
            *prepared = backend.prepare();
        }
        // Chaos hook: a panic here models a crash between the plan patch
        // and the generation bump — the half-applied state `repair` fixes.
        #[cfg(any(test, feature = "chaos"))]
        self.fire_mutation_probe();
        self.generation.fetch_add(1, Ordering::Release);
        Ok(effect)
    }

    /// Rebuilds the prepared state from the backend and bumps the
    /// generation.
    ///
    /// This is the serving layer's recovery hook after a panic escaped from
    /// a flush that was applying mutations: [`MutableRelation::apply_mutation`]
    /// guarantees the *backend* is unchanged on error, but a panic between
    /// the backend mutation and the generation bump could leave `prepared`
    /// describing a relation that no longer exists, and outer wrappers
    /// holding state stamped with the old generation. Repairing re-derives
    /// the state from the (always-consistent) backend, so a recovered
    /// relation can never serve a half-patched ranking — pinned by the
    /// chaos differential suite (`tests/serve_chaos.rs`).
    pub fn repair(&self) {
        let mut inner = self.write();
        let LiveInner { backend, prepared } = &mut *inner;
        *prepared = backend.prepare();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// A clone of the current backend — the "rebuild from scratch" side of
    /// the differential tests, and a consistent snapshot for offline use.
    pub fn snapshot_backend(&self) -> B
    where
        B: Clone,
    {
        self.read().backend.clone()
    }

    /// The number of mutations applied so far (the generation counter).
    pub fn mutations_applied(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl<B: MutableRelation> std::fmt::Debug for LiveRelation<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.read();
        f.debug_struct("LiveRelation")
            .field("n_tuples", &inner.backend.n_tuples())
            .field("class", &inner.backend.correlation_class())
            .field("generation", &self.generation.load(Ordering::Acquire))
            .finish()
    }
}

impl<B: MutableRelation> ProbabilisticRelation for LiveRelation<B> {
    fn n_tuples(&self) -> usize {
        self.read().backend.n_tuples()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        self.read().backend.tuple_scores()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.read().backend.tuple_marginals()
    }

    fn correlation_class(&self) -> CorrelationClass {
        self.read().backend.correlation_class()
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn prepare(&self) -> PreparedState {
        // Self-preparing: the walk threads the internal state, so an outer
        // PreparedRelation has nothing further to cache.
        PreparedState::empty()
    }

    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        // Own state always wins: foreign state describes some past version.
        let inner = self.read();
        inner.backend.run_shared_walk(spec, carry, &inner.prepared)
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        self.read().backend.most_probable_topk(k)
    }

    fn positional_candidates(&self, k: usize) -> kernels::PositionalCandidates {
        self.read().backend.positional_candidates(k)
    }

    fn presence_gf(&self, cap: Option<usize>, alphas: &[Complex]) -> Option<PresenceGf> {
        // Forwarded so a live relation can serve as a shard of a
        // [`crate::shard::ShardedRelation`]. Mutations must then preserve
        // the shard's score band; the sharded walk itself is not atomic
        // with respect to concurrent mutations across shards.
        self.read().backend.presence_gf(cap, alphas)
    }
}

// ---------------------------------------------------------------------
// LiveApply: the object-safe mutation surface for servers
// ---------------------------------------------------------------------

/// The `dyn`-friendly mutation interface `prf-serve` drives: a relation
/// that is both queryable and mutable through shared references.
pub trait LiveApply: ProbabilisticRelation + Send + Sync {
    /// Applies one mutation (see [`LiveRelation::apply`]), mapping backend
    /// validation failures into [`QueryError::InvalidParameter`].
    fn apply_dyn(&self, m: &Mutation) -> Result<MutationEffect, QueryError>;

    /// Rebuilds all derived state from the backend (see
    /// [`LiveRelation::repair`]) — the serving layer's recovery hook after
    /// a panic escaped from a mutation-applying flush.
    fn repair_dyn(&self);
}

impl<B: MutableRelation + Send + Sync> LiveApply for LiveRelation<B> {
    fn apply_dyn(&self, m: &Mutation) -> Result<MutationEffect, QueryError> {
        self.apply(m)
            .map_err(|e| QueryError::InvalidParameter(e.to_string()))
    }

    fn repair_dyn(&self) {
        self.repair();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::batch::probe;
    use crate::query::{Algorithm, PreparedRelation, QueryBatch, RankQuery, Semantics};
    use prf_numeric::Complex;

    fn db5() -> IndependentDb {
        IndependentDb::from_pairs([
            (50.0, 0.9),
            (40.0, 0.2),
            (30.0, 0.7),
            (20.0, 0.45),
            (10.0, 0.85),
        ])
        .unwrap()
    }

    fn tree3() -> AndXorTree {
        AndXorTree::from_x_tuples(&[
            vec![(50.0, 0.4), (30.0, 0.3)],
            vec![(40.0, 0.8)],
            vec![(20.0, 0.5), (10.0, 0.25)],
        ])
        .unwrap()
    }

    fn assert_live_matches_rebuild<B: MutableRelation + Clone>(live: &LiveRelation<B>, ctx: &str) {
        let rebuilt = LiveRelation::new(live.snapshot_backend());
        for (a, b) in probe::prfe(live, Complex::real(0.8))
            .iter()
            .zip(probe::prfe(&rebuilt, Complex::real(0.8)))
        {
            assert!(a.approx_eq(b, 1e-9), "{ctx}: prfe {a} vs {b}");
        }
        let (wa, wb) = (
            probe::prf(live, crate::weights::StepWeight { h: 3 }),
            probe::prf(&rebuilt, crate::weights::StepWeight { h: 3 }),
        );
        for (a, b) in wa.iter().zip(wb) {
            assert!(a.approx_eq(b, 1e-9), "{ctx}: prf {a} vs {b}");
        }
        for (a, b) in probe::log_keys(live, 0.8)
            .iter()
            .zip(probe::log_keys(&rebuilt, 0.8))
        {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "{ctx}: log {a} vs {b}"
            );
        }
    }

    #[test]
    fn independent_mutations_match_rebuild() {
        let live = LiveRelation::new(db5());
        live.apply(&Mutation::Reweight(TupleId(1), 0.95)).unwrap();
        assert_live_matches_rebuild(&live, "reweight");
        live.apply(&Mutation::Insert {
            score: 35.0,
            prob: 0.6,
        })
        .unwrap();
        assert_live_matches_rebuild(&live, "insert");
        live.apply(&Mutation::Delete(TupleId(2))).unwrap();
        assert_live_matches_rebuild(&live, "delete");
        assert_eq!(live.mutations_applied(), 3);
        // A tuple that can no longer exist gets a −∞ log key, as in a rebuild.
        live.apply(&Mutation::Reweight(TupleId(3), 0.0)).unwrap();
        assert_live_matches_rebuild(&live, "reweight to zero");
    }

    #[test]
    fn tree_mutations_match_rebuild() {
        let live = LiveRelation::new(tree3());
        live.apply(&Mutation::Reweight(TupleId(2), 0.15)).unwrap();
        assert_live_matches_rebuild(&live, "reweight");
        live.apply(&Mutation::Insert {
            score: 45.0,
            prob: 0.35,
        })
        .unwrap();
        assert_live_matches_rebuild(&live, "insert");
        live.apply(&Mutation::Delete(TupleId(0))).unwrap();
        assert_live_matches_rebuild(&live, "delete");
    }

    #[test]
    fn failed_mutations_change_nothing() {
        let live = LiveRelation::new(db5());
        let before = probe::prfe(&live, Complex::real(0.9));
        assert!(live.apply(&Mutation::Reweight(TupleId(0), 1.5)).is_err());
        assert!(live.apply(&Mutation::Delete(TupleId(99))).is_err());
        assert!(live
            .apply(&Mutation::Insert {
                score: f64::NAN,
                prob: 0.5
            })
            .is_err());
        assert_eq!(live.mutations_applied(), 0);
        assert_eq!(probe::prfe(&live, Complex::real(0.9)), before);
    }

    #[test]
    fn queries_route_through_engine_unchanged() {
        let live = LiveRelation::new(db5());
        live.apply(&Mutation::Reweight(TupleId(0), 0.05)).unwrap();
        let direct = RankQuery::pt(3).run(&live.snapshot_backend()).unwrap();
        let via_live = RankQuery::pt(3).run(&live).unwrap();
        assert_eq!(direct.ranking.order(), via_live.ranking.order());
        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::ERank)
            .run(&live)
            .unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn wrapped_prepared_relation_tracks_generation() {
        use std::sync::Arc;
        let live = Arc::new(LiveRelation::new(db5()));
        let prepared = PreparedRelation::new(live.clone());
        let before = probe::prfe(&prepared, Complex::real(0.8));
        live.apply(&Mutation::Reweight(TupleId(0), 0.01)).unwrap();
        assert_eq!(ProbabilisticRelation::generation(&prepared), 1);
        let after = probe::prfe(&prepared, Complex::real(0.8));
        assert_ne!(before, after, "wrapper must not serve stale answers");
        let fresh = probe::prfe(&live.snapshot_backend(), Complex::real(0.8));
        assert_eq!(after, fresh);
    }

    #[test]
    fn explicit_algorithms_stay_consistent_after_mutation() {
        let live = LiveRelation::new(db5());
        live.apply(&Mutation::Reweight(TupleId(2), 0.02)).unwrap();
        live.apply(&Mutation::Insert {
            score: 25.0,
            prob: 0.4,
        })
        .unwrap();
        let orders: Vec<_> = [Algorithm::ExactGf, Algorithm::LogDomain, Algorithm::Scaled]
            .into_iter()
            .map(|alg| {
                RankQuery::prfe(0.8)
                    .algorithm(alg)
                    .run(&live)
                    .unwrap()
                    .ranking
                    .order()
                    .to_vec()
            })
            .collect();
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[0], orders[2]);
    }

    #[test]
    fn splice_budget_triggers_recompile() {
        let live = LiveRelation::new(tree3());
        for i in 0..(SPLICE_BUDGET + 8) {
            live.apply(&Mutation::Insert {
                score: 60.0 + i as f64,
                prob: 0.002,
            })
            .unwrap();
        }
        // After the budget the plan recompiled at least once, and answers
        // still match a rebuild.
        let inner = live.read();
        let tp_splices = inner
            .prepared
            .tree_prepared()
            .map(|tp| tp.plan.splices())
            .unwrap_or(0);
        assert!(tp_splices < SPLICE_BUDGET + 8, "budget must bound splices");
        drop(inner);
        assert_live_matches_rebuild(&live, "post-budget");
    }

    /// A panic between the plan patch and the generation bump (the armed
    /// mutation probe) leaves the backend mutated but the generation
    /// stale; [`LiveRelation::repair`] must restore full consistency with
    /// a rebuild.
    #[test]
    fn mid_apply_panic_repairs_to_rebuild() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let live = Arc::new(LiveRelation::new(db5()));
        let armed = Arc::new(AtomicBool::new(true));
        let once = armed.clone();
        live.arm_mutation_probe(move || {
            if once.swap(false, Ordering::SeqCst) {
                panic!("injected mid-apply fault");
            }
        });
        let gen_before = live.mutations_applied();
        let hit = catch_unwind(AssertUnwindSafe(|| {
            live.apply(&Mutation::Reweight(TupleId(0), 0.02))
        }));
        assert!(hit.is_err(), "the armed probe must escape apply");
        // Half-applied: the backend holds the new probability, but the
        // generation never bumped, so wrappers would serve stale state.
        assert_eq!(live.mutations_applied(), gen_before);
        live.repair();
        assert!(
            live.mutations_applied() > gen_before,
            "repair must advance the generation so wrappers re-prepare"
        );
        assert_live_matches_rebuild(&live, "post-repair");
        // The disarmed probe lets later mutations through unharmed.
        live.apply(&Mutation::Reweight(TupleId(1), 0.9)).unwrap();
        assert_live_matches_rebuild(&live, "after-repair mutation");
    }
}
