//! Live relations: in-place mutations with incremental re-ranking.
//!
//! Every backend in this crate is frozen at construction — the right choice
//! for one-shot analytics, but a serving layer watching a feed of updates
//! cannot afford to rebuild the relation, re-sort the tuples, and recompile
//! the evaluation plan for every changed probability. The machinery to avoid
//! that already exists: the incremental generating-function engine
//! ([`crate::incremental`]) recombines only two leaf-to-root paths per
//! relabel during a walk, and the same plan admits *data* changes — a ∨ edge
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
//! * [`LiveRelation`] — a concurrency-safe wrapper owning the backend plus
//!   its prepared state: [`LiveRelation::apply`] mutates, patches the
//!   caches (a tree's score order, marginals and compiled plan; the
//!   log-domain PRFe keys along an independent relation's stored order)
//!   and bumps a generation counter so any outer
//!   [`crate::query::PreparedRelation`] re-prepares instead of serving
//!   stale answers;
//! * [`LiveApply`] — the object-safe slice of the above that `prf-serve`
//!   uses to drive mutations through `dyn` relation handles.
//!
//! The correctness bar is *differential*: mutate-then-query must equal
//! rebuild-then-query to 1e-9 across backends, semantics, and numeric modes
//! (`tests/live_equivalence.rs` pins this; the in-module tests cover the
//! patch plumbing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use prf_numeric::{Complex, Scaled};
use prf_pdb::{AndXorTree, IndependentDb, NodeKind, PdbError, Tuple, TupleId};

use crate::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec};
use crate::query::kernels;
use crate::query::{CorrelationClass, PreparedState, ProbabilisticRelation, QueryError, TopkCarry};

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

    /// The tuples in score order (score descending, ties by id), when the
    /// backend stores them that way and keeps them exact under mutation.
    /// [`LiveRelation`]'s log-domain key cache patches itself along this
    /// order; without one (the default) the cache drops on every mutation.
    fn score_order(&self) -> Option<&[Tuple]> {
        None
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

    /// The stored score order, which every mutation keeps exact.
    fn score_order(&self) -> Option<&[Tuple]> {
        Some(self.by_score())
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
// Log-domain PRFe key cache
// ---------------------------------------------------------------------

/// Cached log-domain PRFe ranking keys for one `α`, patched in O(n) float
/// adds on every mutation kind instead of recomputed.
///
/// For independent tuples in score order, `key(t_k) = ln α + ln p_k +
/// Σ_{i<k} ln f_i` with `f = 1 − p + p·α`. All three mutations are local
/// in this form:
///
/// * **reweight** of the tuple at sorted position `k` shifts its own key
///   by `ln p_new − ln p_old` and every *later* key by `ln f_new − ln
///   f_old`; keys at `−∞` (zero-probability tuples) stay `−∞` under the
///   unconditional add;
/// * **insert** at sorted position `k` recovers the prefix sum `Σ_{i<k}
///   ln f_i` from the predecessor's key, forms the new key from it, and
///   shifts every later key by `+ln f_new`;
/// * **delete** from sorted position `k` shifts every later key by
///   `−ln f_old` and drops the tuple's own entry.
///
/// Coverage is guarded (`α > 0`, the probabilities a recovery divides by
/// strictly positive, shapes consistent); outside it the cache drops and
/// the next query recomputes — never patches with garbage.
struct PrfeLogCache {
    alpha: f64,
    keys: Vec<f64>,
    /// The ranking the keys induce (best first, ties by tuple id — the
    /// order [`Ranking::from_keys`] would produce), built lazily on the
    /// first [`ProbabilisticRelation::prfe_log_ranked`] call and then
    /// *merged* back into shape on each reweight instead of re-sorted.
    ranked: Option<Vec<TupleId>>,
}

impl PrfeLogCache {
    /// Patches the cache for a reweight of `t` (probability `old_p → new_p`)
    /// against the descending score order, or returns `false` when the
    /// closed form does not cover the case (zero probabilities or `α = 0`,
    /// where keys jump between finite and `−∞`) and the cache must drop.
    fn patch_reweight(&mut self, order: &[Tuple], t: TupleId, old_p: f64, new_p: f64) -> bool {
        // NaN-rejecting: any non-finite or non-positive input drops the
        // cache rather than patching with garbage.
        let covered = self.alpha > 0.0 && old_p > 0.0 && new_p > 0.0;
        if !covered || order.len() != self.keys.len() {
            return false;
        }
        let Some(k) = order.iter().position(|o| o.id == t) else {
            return false;
        };
        self.keys[t.index()] += new_p.ln() - old_p.ln();
        let df = (1.0 - new_p + new_p * self.alpha).ln() - (1.0 - old_p + old_p * self.alpha).ln();
        if df != 0.0 {
            for o in &order[k + 1..] {
                self.keys[o.id.index()] += df;
            }
        }
        self.remerge(order, k, t);
        true
    }

    /// Patches the cache for an insert of `t` (the relation's new largest
    /// id) into the post-insert descending score order `order`. The closed
    /// form extends one prefix product: the prefix sum `Σ_{i<k} ln f_i` is
    /// recovered from the predecessor's key (`key_v − ln α − ln p_v +
    /// ln f_v`), the new key is `ln α + ln p_t` plus that prefix, and
    /// every later key shifts by the shared constant `+ln f_t`. Returns
    /// `false` (cache must drop) when the recovery is not covered:
    /// `α = 0`, a zero-probability or `−∞`-keyed predecessor, or a shape
    /// mismatch.
    fn patch_insert(&mut self, order: &[Tuple], t: TupleId) -> bool {
        if self.alpha <= 0.0 || t.index() != self.keys.len() || order.len() != self.keys.len() + 1 {
            return false;
        }
        let Some(k) = order.iter().position(|o| o.id == t) else {
            return false;
        };
        let p_new = order[k].prob;
        if !(0.0..=1.0).contains(&p_new) {
            return false;
        }
        let prefix = if k == 0 {
            0.0
        } else {
            let v = &order[k - 1];
            let (p_v, key_v) = (v.prob, self.keys[v.id.index()]);
            if p_v <= 0.0 || p_v.is_nan() || !key_v.is_finite() {
                return false;
            }
            key_v - self.alpha.ln() - p_v.ln() + (1.0 - p_v + p_v * self.alpha).ln()
        };
        let df = (1.0 - p_new + p_new * self.alpha).ln();
        if df != 0.0 {
            for o in &order[k + 1..] {
                self.keys[o.id.index()] += df;
            }
        }
        self.keys.push(self.alpha.ln() + p_new.ln() + prefix);
        self.remerge(order, k, t);
        true
    }

    /// Patches the cache for a delete of old id `t` from sorted position
    /// `k_old` in the *pre-delete* order, with pre-delete probability
    /// `p_old`; `order` is the post-delete score order over renumbered
    /// ids. Every key after the vacated position shifts back by
    /// `−ln f_old`, the merged ranking drops `t` and renumbers, and the
    /// tuple's own key entry is removed. Covered only for `α > 0` (where
    /// `f_old > 0`) and a consistent shape.
    fn patch_delete(&mut self, order: &[Tuple], t: TupleId, k_old: usize, p_old: f64) -> bool {
        if self.alpha <= 0.0
            || !(0.0..=1.0).contains(&p_old)
            || order.len() + 1 != self.keys.len()
            || t.index() >= self.keys.len()
            || k_old > order.len()
        {
            return false;
        }
        let df = (1.0 - p_old + p_old * self.alpha).ln();
        if df != 0.0 {
            // `order` carries post-delete ids; keys are still indexed by
            // pre-delete ids, so map across the dense-id renumbering.
            for o in &order[k_old..] {
                let o = o.id.index();
                self.keys[o + (o >= t.index()) as usize] -= df;
            }
        }
        self.remerge_delete(order, k_old, t);
        self.keys.remove(t.index());
        true
    }

    /// Re-ranks after a mutation touching score position `k` in O(n), no
    /// sort: keys before `k` are untouched and keys after `k` all moved by
    /// the *same* constant, so the old ranked order restricted to either
    /// side is still sorted. The new order is the merge of the two sides
    /// plus one binary-search insert of `t` itself — which also covers
    /// inserts, where `t` is simply absent from the old ranking. (A
    /// uniform float shift can collapse a strict inequality into a tie,
    /// flipping an id-tiebreak relative to a fresh sort — the same sub-ulp
    /// ambiguity the patched keys already carry versus recomputed ones.)
    fn remerge(&mut self, order: &[Tuple], k: usize, t: TupleId) {
        let Some(old) = self.ranked.take() else {
            return;
        };
        let mut suffix = vec![false; old.len()];
        for o in &order[k + 1..] {
            if o.id != t {
                suffix[o.id.index()] = true;
            }
        }
        let mut merged = merge_ranked(&old, &self.keys, &suffix, t);
        let pos = merged.partition_point(|&o| ranks_before(&self.keys, o, t));
        merged.insert(pos, t);
        self.ranked = Some(merged);
    }

    /// Delete-side counterpart of [`PrfeLogCache::remerge`]: merges the
    /// prefix and (uniformly shifted) suffix sides of the old ranking,
    /// leaves the deleted tuple out, and renumbers surviving ids down
    /// across the vacated one. Runs against pre-delete keys — call before
    /// removing `t`'s key entry.
    fn remerge_delete(&mut self, order: &[Tuple], k_old: usize, t: TupleId) {
        let Some(old) = self.ranked.take() else {
            return;
        };
        let mut suffix = vec![false; old.len()];
        for o in &order[k_old..] {
            let o = o.id.index();
            suffix[o + (o >= t.index()) as usize] = true;
        }
        let mut merged = merge_ranked(&old, &self.keys, &suffix, t);
        for o in merged.iter_mut() {
            if o.0 > t.0 {
                *o = TupleId(o.0 - 1);
            }
        }
        self.ranked = Some(merged);
    }
}

/// `true` when `a` ranks strictly before `b` under `keys` (higher key
/// first, ties by tuple id) — the comparator [`crate::topk::Ranking::from_keys`]
/// uses, so merged orders match fresh sorts exactly.
fn ranks_before(keys: &[f64], a: TupleId, b: TupleId) -> bool {
    let (ka, kb) = (keys[a.index()], keys[b.index()]);
    ka > kb || (ka == kb && a < b)
}

/// Merges an old best-first ranking whose `suffix`-marked tuples all moved
/// by one shared key constant: both restrictions of `old` are still
/// sorted, so a single linear merge (on the already-patched `keys`)
/// rebuilds the order. `skip` is left out entirely — the mutated tuple,
/// re-inserted or dropped by the caller.
fn merge_ranked(old: &[TupleId], keys: &[f64], suffix: &[bool], skip: TupleId) -> Vec<TupleId> {
    let mut merged = Vec::with_capacity(old.len());
    let mut hi = old
        .iter()
        .copied()
        .filter(|&o| o != skip && !suffix[o.index()])
        .peekable();
    let mut lo = old
        .iter()
        .copied()
        .filter(|&o| o != skip && suffix[o.index()])
        .peekable();
    loop {
        match (hi.peek(), lo.peek()) {
            (Some(&x), Some(&y)) => {
                if ranks_before(keys, x, y) {
                    merged.push(x);
                    hi.next();
                } else {
                    merged.push(y);
                    lo.next();
                }
            }
            (Some(_), None) => {
                merged.extend(hi);
                break;
            }
            (None, Some(_)) => {
                merged.extend(lo);
                break;
            }
            (None, None) => break,
        }
    }
    merged
}

// ---------------------------------------------------------------------
// LiveRelation
// ---------------------------------------------------------------------

struct LiveInner<B> {
    backend: B,
    prepared: PreparedState,
    log_cache: Option<PrfeLogCache>,
}

impl<B: MutableRelation> LiveInner<B> {
    /// The log-key cache when it covers the whole spec and the carry is
    /// fresh (its answers are full rankings of this relation alone), else
    /// the backend's own walk, stopping capped consumers early where it
    /// can.
    fn walk(&self, spec: &SharedWalkSpec, carry: &mut TopkCarry) -> Option<SharedWalkOut> {
        if carry.is_fresh() {
            if let Some(out) = self.cached_walk(spec) {
                return Some(out);
            }
        }
        self.backend
            .run_shared_walk_topk(spec, carry, &self.prepared)
    }

    /// Serves a walk entirely from the log-key cache when every request is
    /// `PrfeLog` at the cached `α` — the post-mutation fast path of a
    /// standing log-domain query.
    fn cached_walk(&self, spec: &SharedWalkSpec) -> Option<SharedWalkOut> {
        let cache = self.log_cache.as_ref()?;
        if spec.requests.is_empty()
            || !spec
                .requests
                .iter()
                .all(|r| matches!(r, SharedRequest::PrfeLog(a) if *a == cache.alpha))
        {
            return None;
        }
        let start = Instant::now();
        let answers = spec
            .requests
            .iter()
            .map(|_| SharedAnswer::Log(cache.keys.clone()))
            .collect();
        Some(SharedWalkOut {
            answers,
            stats: None,
            walk_seconds: start.elapsed().as_secs_f64(),
            prefixes: Vec::new(),
        })
    }
}

/// A mutable, concurrency-safe [`ProbabilisticRelation`]: a backend plus its
/// prepared state (score order, marginals, compiled plan) kept current under
/// [`Mutation`]s by incremental patching, with a full rebuild as the
/// fallback. Every query entry point —
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
    /// prepared-plan patch and the log-key cache patch; see
    /// [`LiveRelation::arm_mutation_probe`].
    #[cfg(any(test, feature = "chaos"))]
    mutation_probe: std::sync::Mutex<Option<std::sync::Arc<dyn Fn() + Send + Sync>>>,
}

impl<B: MutableRelation> LiveRelation<B> {
    /// Wraps `backend`, building its prepared state once.
    pub fn new(backend: B) -> Self {
        let prepared = backend.prepare();
        LiveRelation {
            inner: RwLock::new(LiveInner {
                backend,
                prepared,
                log_cache: None,
            }),
            generation: AtomicU64::new(0),
            #[cfg(any(test, feature = "chaos"))]
            mutation_probe: std::sync::Mutex::new(None),
        }
    }

    /// Arms a probe invoked inside every subsequent [`LiveRelation::apply`],
    /// between the prepared-plan patch and the log-key cache patch. A
    /// panicking probe models a crash mid-apply: the backend has mutated
    /// and the plan is patched, but the key cache and the generation
    /// counter still describe the pre-mutation relation — exactly the
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
    /// prepared state and the log-key cache, and bumps the generation.
    /// On error nothing changes.
    pub fn apply(&self, m: &Mutation) -> Result<MutationEffect, PdbError> {
        let mut inner = self.write();
        // A delete's key patch needs the tuple's sorted position and
        // probability from the *pre-mutation* relation — both are gone
        // once the backend applies the delete — so capture them up front
        // (only when there is a cache to patch).
        let del_ctx = match (m, &inner.log_cache) {
            (Mutation::Delete(t), Some(_)) => inner.backend.score_order().and_then(|order| {
                let k = order.iter().position(|x| x.id == *t)?;
                Some((k, order[k].prob))
            }),
            _ => None,
        };
        let effect = inner.backend.apply_mutation(m)?;
        let LiveInner {
            backend,
            prepared,
            log_cache,
        } = &mut *inner;
        if !backend.patch_prepared(prepared, &effect) {
            *prepared = backend.prepare();
        }
        // Chaos hook: a panic here models a crash between the plan patch
        // and the key-cache patch — the half-applied state `repair` fixes.
        #[cfg(any(test, feature = "chaos"))]
        self.fire_mutation_probe();
        // The log-key closed form covers all three mutations along the
        // backend's stored score order (away from the α = 0 /
        // zero-probability edge cases each patch guards); anything else
        // invalidates the cache rather than patching with garbage.
        let patched = match (&effect, &mut *log_cache, backend.score_order()) {
            (_, None, _) => true,
            (_, Some(_), None) => false,
            (
                MutationEffect::Reweighted {
                    tuple,
                    old_prob,
                    new_prob,
                },
                Some(cache),
                Some(order),
            ) => cache.patch_reweight(order, *tuple, *old_prob, *new_prob),
            (MutationEffect::Inserted(t), Some(cache), Some(order)) => {
                cache.patch_insert(order, *t)
            }
            (MutationEffect::Deleted(t), Some(cache), Some(order)) => match del_ctx {
                Some((k_old, p_old)) => cache.patch_delete(order, *t, k_old, p_old),
                None => false,
            },
        };
        if !patched {
            *log_cache = None;
        }
        self.generation.fetch_add(1, Ordering::Release);
        Ok(effect)
    }

    /// Discards every piece of derived state — prepared walk artifacts and
    /// the log-key cache — and rebuilds the prepared state from the backend.
    ///
    /// This is the serving layer's recovery hook after a panic escaped from
    /// a flush that was applying mutations: [`MutableRelation::apply_mutation`]
    /// guarantees the *backend* is unchanged on error, but a panic between
    /// the backend mutation and the cache patches could leave `prepared` /
    /// `log_cache` describing a relation that no longer exists. Repairing
    /// re-derives both from the (always-consistent) backend, so a recovered
    /// relation can never serve a half-patched ranking — pinned by the
    /// chaos differential suite (`tests/serve_chaos.rs`).
    pub fn repair(&self) {
        let mut inner = self.write();
        let LiveInner {
            backend,
            prepared,
            log_cache,
        } = &mut *inner;
        *prepared = backend.prepare();
        *log_cache = None;
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
            .field("log_cache", &inner.log_cache.is_some())
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

    fn run_shared_walk_prepared(
        &self,
        spec: &SharedWalkSpec,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        // Own state always wins: foreign state describes some past version.
        self.read().walk(spec, &mut TopkCarry::default())
    }

    fn run_shared_walk_topk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        self.read().walk(spec, carry)
    }

    /// Keys plus their ranking, without a per-query sort: the order lives
    /// in the log-key cache, merged (not re-sorted) across reweights. This
    /// is the hook that makes requery-after-mutation O(n) end to end.
    /// An α outside `[0, 1]` (or NaN) has no cached answer: `None`.
    fn prfe_log_ranked(&self, alpha: f64) -> Option<(Vec<f64>, Vec<TupleId>)> {
        if !(0.0..=1.0).contains(&alpha) {
            return None;
        }
        {
            let inner = self.read();
            if let Some(c) = &inner.log_cache {
                if c.alpha == alpha {
                    if let Some(r) = &c.ranked {
                        return Some((c.keys.clone(), r.clone()));
                    }
                }
            }
        }
        // Miss (no cache, other α, or order not yet built): fill both
        // under the write lock so a mutation cannot interleave.
        let mut inner = self.write();
        if !matches!(&inner.log_cache, Some(c) if c.alpha == alpha) {
            let spec = SharedWalkSpec {
                requests: vec![SharedRequest::PrfeLog(alpha)],
                threads: None,
                cancel: None,
            };
            let Some(SharedAnswer::Log(keys)) = inner
                .walk(&spec, &mut TopkCarry::default())
                .and_then(|out| out.answers.into_iter().next())
            else {
                return None;
            };
            inner.log_cache = Some(PrfeLogCache {
                alpha,
                keys,
                ranked: None,
            });
        }
        let cache = inner.log_cache.as_mut().expect("just populated");
        if cache.ranked.is_none() {
            cache.ranked = Some(
                crate::topk::Ranking::from_keys(&cache.keys)
                    .order()
                    .to_vec(),
            );
        }
        Some((
            cache.keys.clone(),
            cache.ranked.clone().expect("just populated"),
        ))
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        self.read().backend.most_probable_topk(k)
    }

    fn positional_candidates(&self, k: usize) -> kernels::PositionalCandidates {
        self.read().backend.positional_candidates(k)
    }

    fn presence_gf_coeffs(&self, cap: usize) -> Option<Vec<f64>> {
        // Forwarded so a live relation can serve as a shard of a
        // [`crate::shard::ShardedRelation`]. Mutations must then preserve
        // the shard's score band; the sharded walk itself is not atomic
        // with respect to concurrent mutations across shards.
        self.read().backend.presence_gf_coeffs(cap)
    }

    fn presence_gf_point(&self, alpha: Complex) -> Option<Scaled<Complex>> {
        self.read().backend.presence_gf_point(alpha)
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

    /// Log-domain PRFe(α) keys through the ranked hook, which also fills
    /// the key cache.
    fn log_keys<B: MutableRelation>(live: &LiveRelation<B>, alpha: f64) -> Vec<f64> {
        live.prfe_log_ranked(alpha).expect("live relations rank").0
    }

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
        for (a, b) in log_keys(live, 0.8).iter().zip(log_keys(&rebuilt, 0.8)) {
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
    fn log_cache_patched_across_reweights() {
        let live = LiveRelation::new(db5());
        let _ = log_keys(&live, 0.7); // populate
        for (t, p) in [(0u32, 0.11), (4, 0.99), (2, 0.33)] {
            live.apply(&Mutation::Reweight(TupleId(t), p)).unwrap();
            assert!(live.read().log_cache.is_some(), "cache survives reweight");
            let fresh = log_keys(&LiveRelation::new(live.snapshot_backend()), 0.7);
            for (a, b) in log_keys(&live, 0.7).iter().zip(fresh) {
                assert!((a - b).abs() < 1e-9, "patched {a} vs fresh {b}");
            }
        }
        // Inserts and deletes are covered by the closed-form patch too.
        live.apply(&Mutation::Insert {
            score: 35.0,
            prob: 0.5,
        })
        .unwrap();
        assert!(live.read().log_cache.is_some(), "cache survives insert");
        let fresh = log_keys(&LiveRelation::new(live.snapshot_backend()), 0.7);
        for (a, b) in log_keys(&live, 0.7).iter().zip(fresh) {
            assert!((a - b).abs() < 1e-9, "insert-patched {a} vs fresh {b}");
        }
        live.apply(&Mutation::Delete(TupleId(1))).unwrap();
        assert!(live.read().log_cache.is_some(), "cache survives delete");
        let fresh = log_keys(&LiveRelation::new(live.snapshot_backend()), 0.7);
        for (a, b) in log_keys(&live, 0.7).iter().zip(fresh) {
            assert!((a - b).abs() < 1e-9, "delete-patched {a} vs fresh {b}");
        }
    }

    #[test]
    fn log_cache_drops_on_zero_probability_reweight() {
        let live = LiveRelation::new(db5());
        let _ = log_keys(&live, 0.7);
        live.apply(&Mutation::Reweight(TupleId(3), 0.0)).unwrap();
        assert!(live.read().log_cache.is_none(), "p→0 cannot be patched");
        let fresh = log_keys(&LiveRelation::new(live.snapshot_backend()), 0.7);
        for (a, b) in log_keys(&live, 0.7).iter().zip(fresh) {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "{a} vs {b}"
            );
        }
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

    /// The merged-in-place ranking must equal a fresh sort of the same
    /// keys after every reweight — across shifts up, down, to the top,
    /// and near-ties — and keys must track a rebuilt backend to 1e-9.
    #[test]
    fn ranked_cache_merge_matches_fresh_sort() {
        let n = 64;
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    1000.0 - i as f64,
                    0.05 + 0.9 * ((i * 7919) % 997) as f64 / 997.0,
                )
            })
            .collect();
        let live = LiveRelation::new(IndependentDb::from_pairs(pairs).unwrap());
        let alpha = 0.8;
        let (_, order0) = live.prfe_log_ranked(alpha).expect("live serves ranked");
        assert_eq!(
            order0,
            crate::topk::Ranking::from_keys(&log_keys(&live, alpha)).order(),
            "initial ranked cache must be the sorted order"
        );
        for step in 0..200usize {
            let t = TupleId(((step * 31) % n) as u32);
            let p = 0.02 + 0.95 * ((step * 131) % 89) as f64 / 89.0;
            live.apply(&Mutation::Reweight(t, p)).unwrap();
            let (keys, order) = live
                .prfe_log_ranked(alpha)
                .expect("cache survives reweight");
            let fresh = crate::topk::Ranking::from_keys(&keys);
            assert_eq!(
                order,
                fresh.order(),
                "step {step}: merged order must equal a fresh sort of the patched keys"
            );
            let rebuilt = probe::log_keys(&live.snapshot_backend(), alpha);
            for (a, b) in keys.iter().zip(rebuilt) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "step {step}: patched key {a} drifted from rebuilt {b}"
                );
            }
        }
    }

    /// The key cache (keys *and* merged ranking) must survive a mixed
    /// insert/delete/reweight churn: after every step the merged order
    /// equals a fresh sort of the patched keys, and the keys track a
    /// rebuilt backend to 1e-9 relative.
    #[test]
    fn ranked_cache_survives_insert_delete_churn() {
        let pairs: Vec<(f64, f64)> = (0..48)
            .map(|i| {
                (
                    1000.0 - 3.0 * i as f64,
                    0.05 + 0.9 * ((i * 7919) % 997) as f64 / 997.0,
                )
            })
            .collect();
        let live = LiveRelation::new(IndependentDb::from_pairs(pairs).unwrap());
        let alpha = 0.8;
        let _ = live.prfe_log_ranked(alpha).expect("live serves ranked");
        for step in 0..150usize {
            let n = live.n_tuples();
            match step % 3 {
                // Interior scores so inserts land at every sorted position.
                0 => {
                    live.apply(&Mutation::Insert {
                        score: 1000.0 - ((step * 41) % 160) as f64,
                        prob: 0.03 + 0.9 * ((step * 131) % 89) as f64 / 89.0,
                    })
                    .unwrap();
                }
                1 => {
                    live.apply(&Mutation::Delete(TupleId(((step * 13) % n) as u32)))
                        .unwrap();
                }
                _ => {
                    live.apply(&Mutation::Reweight(
                        TupleId(((step * 31) % n) as u32),
                        0.02 + 0.95 * ((step * 71) % 53) as f64 / 53.0,
                    ))
                    .unwrap();
                }
            }
            assert!(
                live.read().log_cache.is_some(),
                "step {step}: cache must survive covered mutations"
            );
            let (keys, order) = live.prfe_log_ranked(alpha).expect("cache present");
            let fresh = crate::topk::Ranking::from_keys(&keys);
            assert_eq!(
                order,
                fresh.order(),
                "step {step}: merged order must equal a fresh sort of the patched keys"
            );
            let rebuilt = probe::log_keys(&live.snapshot_backend(), alpha);
            assert_eq!(keys.len(), rebuilt.len(), "step {step}");
            for (a, b) in keys.iter().zip(rebuilt) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "step {step}: patched key {a} drifted from rebuilt {b}"
                );
            }
        }
    }

    /// A panic between the plan patch and the key-cache patch (the armed
    /// mutation probe) leaves the backend mutated but the generation and
    /// key cache stale; [`LiveRelation::repair`] must restore full
    /// consistency with a rebuild.
    #[test]
    fn mid_apply_panic_repairs_to_rebuild() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let live = Arc::new(LiveRelation::new(db5()));
        let _ = log_keys(&live, 0.7); // populate the key cache
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
            live.read().log_cache.is_none(),
            "repair discards derived state"
        );
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
