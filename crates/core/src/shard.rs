//! Sharded relations: score-contiguous shards merged as a GF monoid.
//!
//! The independent-db prefix walk is a prefix product of per-tuple
//! polynomials — an associative monoid — so a relation split into
//! score-contiguous shards can be walked shard by shard, each walk
//! starting from the product of the earlier shards' generating functions:
//! exactly the shape of the ∧ combine of PAPER.md Algorithm 2.
//!
//! # The monoid
//!
//! Let shard `k` hold the tuples ranked `k`-th by score block (every score
//! in shard `k` is ≥ every score in shard `k+1`), with the shards mutually
//! independent (each is its own [`IndependentDb`](prf_pdb::IndependentDb)
//! or [`AndXorTree`](prf_pdb::AndXorTree)). The *presence-count generating
//! function* of shard `k`,
//!
//! ```text
//! G_k(x) = Σ_a Pr(|pw ∩ shard_k| = a) · xᵃ,
//! ```
//!
//! factorizes the global one: `G(x) = Π_k G_k(x)`. Every PRF consumer of a
//! shared walk needs only its shard's **incoming prefix state** — the
//! product `P_k(x) = Π_{j<k} G_j(x)` of the *higher-scored* shards — and
//! that product is an associative fold:
//!
//! * **PRFω / PT / U-Rank** (coefficient consumers): shard `k` runs its
//!   ordinary local walk with the *shifted* weight
//!   `W_k(t, j) = Σ_a P_k[a] · ω(t, a + j)` — marginalizing the prefix's
//!   presence count into the weight — and its local answers *are* the
//!   global `Υ_ω` values. Truncation survives (`ω` zero beyond `h` makes
//!   `W_k` zero beyond `h`), so the `O(n·h)` paths stay `O(n·h)`.
//! * **PRFe(α)** (point consumers): the prefix collapses to the scalar
//!   `P_k(α)`, and global values are `local · P_k(α)` (log-domain: add
//!   `ln P_k(α)`).
//! * **E-Rank**: `er(t) = er_loc(t) + p_t·C_pre + (1−p_t)·(C − C_k)` with
//!   `C_pre`/`C_k`/`C` the expected world sizes of the prefix, the shard,
//!   and the whole relation — both closed-form terms decompose across
//!   independent shards.
//!
//! # Execution
//!
//! [`ShardedRelation`] walks its shards one at a time in score order and
//! folds a shard's monoid elements (`G_k` coefficients, `G_k(α)` points)
//! into the prefix state only once the walk goes past it. Each shard walk
//! gets a [`TopkCarry`]: every consumer's running cut (its `k` best global
//! keys; an uncapped consumer has none), the shard's prefix state and the
//! global answer buffers. The walk applies the prefix state to each value
//! as it computes it and writes straight into the global buffers, so a
//! cut sees global keys and a capped answer is the uncapped answer
//! truncated, bit for bit. The walk ends inside the first shard where
//! every consumer has stopped; the later shards are never read.
//!
//! A shard whose backend cannot resume a carry (an and/xor tree)
//! restarts the walk in *plain* mode: every shard runs its own full walk
//! on `workers` threads, the scalar consumers get the prefix state applied
//! afterwards with the same floating-point operations, and the local
//! answers are scattered into the global tuple-id space.
//!
//! Expected ranks need each shard's expected size `C_k` and largest
//! probability `p̂_k`; both are cached per shard generation. The
//! [`SharedWalkSpec`] consumer machinery is reused unchanged, so
//! [`QueryBatch`](crate::query::QueryBatch) and the `prf-serve` server
//! work against a sharded relation exactly as against any other backend.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use prf_numeric::{Complex, GfValue, Poly, Scaled};
use prf_pdb::tuple::sort_tail_within;
use prf_pdb::{Tuple, TupleId};

use crate::incremental::GfStats;
use crate::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec, Visit};
use crate::query::cut::{Cap, ShardCarry};
use crate::query::{CorrelationClass, PreparedState, ProbabilisticRelation, TopkCarry};
use crate::weights::{tabulate, TabulatedWeight, WeightFunction};

/// A shard handle: any backend that exposes the presence-GF monoid hook
/// [`ProbabilisticRelation::presence_gf`].
pub type ShardHandle = Arc<dyn ProbabilisticRelation + Send + Sync>;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a [`ShardedRelation`] could not be assembled.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardError {
    /// Consecutive shards overlap in score: every score of shard `k` must
    /// be ≥ every score of shard `k+1`, or the global score order would
    /// interleave shards and the prefix monoid would not apply.
    NotContiguous {
        /// Index of the lower (later, lower-scored) shard of the violating
        /// pair.
        shard: usize,
        /// Minimum score of the shard above the boundary.
        upper_min: f64,
        /// Maximum score of the shard below the boundary.
        lower_max: f64,
    },
    /// The shard's backend does not implement the presence-GF monoid hook
    /// [`ProbabilisticRelation::presence_gf`]: a graphical model, or a
    /// sharded relation (shards do not nest).
    Unsupported {
        /// Index of the offending shard.
        shard: usize,
        /// Its correlation class, for diagnostics.
        class: CorrelationClass,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotContiguous {
                shard,
                upper_min,
                lower_max,
            } => write!(
                f,
                "shards are not score-contiguous at boundary {shard}: \
                 min score {upper_min} above < max score {lower_max} below"
            ),
            ShardError::Unsupported { shard, class } => write!(
                f,
                "shard {shard} ({class} backend) lacks the presence-GF hook"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------
// Shifted weights: marginalizing the prefix into ω
// ---------------------------------------------------------------------

/// `W(t, j) = Σ_a P[a] · ω(t, a + j)` — the local weight that makes a
/// shard's walk produce *global* Υ values (the prefix's presence count is
/// independent of the shard's local rank, so the convolution is exact).
/// Tuple ids are shifted back to the global id space before `ω` sees them.
struct ShiftedWeight {
    inner: Arc<dyn WeightFunction + Send + Sync>,
    prefix: Vec<f64>,
    trunc: Option<usize>,
    id_offset: u32,
}

impl WeightFunction for ShiftedWeight {
    fn weight(&self, tuple: &Tuple, rank: usize) -> Complex {
        let global = Tuple {
            id: TupleId(tuple.id.0 + self.id_offset),
            score: tuple.score,
            prob: tuple.prob,
        };
        let cap = self.trunc.unwrap_or(usize::MAX);
        let mut acc = Complex::ZERO;
        for (a, &pa) in self.prefix.iter().enumerate() {
            let Some(global_rank) = rank.checked_add(a) else {
                break;
            };
            if global_rank > cap {
                break; // ω is zero beyond its truncation
            }
            if pa != 0.0 {
                acc += self.inner.weight(&global, global_rank) * pa;
            }
        }
        acc
    }
    fn truncation(&self) -> Option<usize> {
        self.trunc
    }
    fn name(&self) -> String {
        format!("shifted({})", self.inner.name())
    }
}

/// `true` when a prefix is the monoid identity `P(x) = 1` — the first
/// non-empty shard's case, where `ω` passes through unchanged.
fn is_identity_prefix(prefix: &[f64]) -> bool {
    prefix.len() == 1 && prefix[0] == 1.0
}

/// Materializes the shifted weight of a *rank-only* `ω` as an explicit
/// table `W[j−1] = Σ_a P[a]·ω(a+j)` of length `min(cap, max_len)`, read in
/// `O(1)` per rank at tabulation cost `O(len·|P|)`. Entries do not depend
/// on `max_len`: an uncapped walk of the shard reads `n_loc` of them, a
/// capped walk's envelope every rank of the shard and the later ones.
fn tabulate_shifted(
    omega: &(dyn WeightFunction + '_),
    prefix: &[f64],
    cap: usize,
    max_len: usize,
) -> TabulatedWeight {
    let len = cap.min(max_len);
    // ω values at global ranks 1 ..= len + |P| − 1 (zero beyond cap).
    let glob_len = cap.min(len + prefix.len().saturating_sub(1));
    let glob = tabulate(omega, glob_len);
    let mut table = vec![Complex::ZERO; len];
    for (j, slot) in table.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (a, &pa) in prefix.iter().enumerate() {
            let i = j + a; // 0-based index of global rank j+a+1
            if i >= glob_len {
                break;
            }
            if pa != 0.0 {
                acc += glob[i] * pa;
            }
        }
        *slot = acc;
    }
    TabulatedWeight::new(table)
}

// ---------------------------------------------------------------------
// ShardedRelation
// ---------------------------------------------------------------------

/// A relation assembled from score-contiguous, mutually independent
/// shards, walked in score order shard by shard and merged via the
/// presence-GF monoid (module docs).
///
/// Global tuple ids are shard-major: shard `k`'s local tuple `i` is global
/// tuple `offset_k + i`, with `offset_k = Σ_{j<k} n_j`. Because earlier
/// shards hold higher scores *and* lower global ids, the global score
/// order (score descending, id ascending) is exactly the concatenation of
/// the shards' local orders — ties at shard boundaries included.
///
/// `ShardedRelation` implements [`ProbabilisticRelation`], so it drops
/// into [`RankQuery`](crate::query::RankQuery),
/// [`QueryBatch`](crate::query::QueryBatch), and `prf-serve` registration
/// unchanged. U-Top (`most_probable_topk`) is the one unsupported
/// semantics: the most probable top-k *set* does not decompose over the
/// prefix monoid.
///
/// ```
/// use std::sync::Arc;
/// use prf_core::query::RankQuery;
/// use prf_core::shard::ShardedRelation;
/// use prf_pdb::IndependentDb;
///
/// // Two score-contiguous shards: scores [10, 8] ≥ [5, 3].
/// let hi = IndependentDb::from_pairs([(10.0, 0.5), (8.0, 0.7)]).unwrap();
/// let lo = IndependentDb::from_pairs([(5.0, 0.9), (3.0, 0.4)]).unwrap();
/// let sharded = ShardedRelation::new(vec![Arc::new(hi), Arc::new(lo)], 2)?;
/// let top = RankQuery::prfe(0.9).top_k(2).run(&sharded)?;
/// assert_eq!(top.ranking.order().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedRelation {
    shards: Vec<ShardHandle>,
    workers: usize,
    generations: Mutex<GenTracker>,
}

impl std::fmt::Debug for ShardedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRelation")
            .field("shards", &self.shards.len())
            .field("workers", &self.workers)
            .field("n_tuples", &self.n_tuples())
            .finish()
    }
}

struct GenTracker {
    last_seen: Vec<u64>,
    counter: u64,
    /// Per-shard prepared state, stamped with the shard generation it was
    /// built from. [`ShardedRelation::prepare`] consults this so a
    /// re-preparation after a mutation rebuilds **exactly** the changed
    /// shards' states and reuses the rest by `Arc` handle.
    prepared: Vec<Option<(u64, Arc<PreparedState>)>>,
    /// Per-shard [`ShardSummary`], stamped the same way.
    summaries: Vec<Option<(u64, ShardSummary)>>,
}

/// What expected ranks need of a shard besides its walk, cached per shard
/// generation.
#[derive(Clone, Copy, Debug, Default)]
struct ShardSummary {
    /// Expected present count `C_k`: the marginals summed in id order.
    world_size: f64,
    /// The largest marginal `p̂_k`.
    max_prob: f64,
}

impl ShardedRelation {
    /// Assembles a sharded relation over `shards` (highest-scored shard
    /// first) whose plain-mode shard walks (module docs) request `workers`
    /// threads each.
    ///
    /// Validates that every shard implements the presence-GF monoid hook
    /// and that consecutive non-empty shards are score-contiguous
    /// (`min score` above ≥ `max score` below — ties at the boundary are
    /// fine, they resolve by shard order exactly as the global sort
    /// would).
    pub fn new(shards: Vec<ShardHandle>, workers: usize) -> Result<Self, ShardError> {
        for (k, shard) in shards.iter().enumerate() {
            if shard.presence_gf(None, &[]).is_none() {
                return Err(ShardError::Unsupported {
                    shard: k,
                    class: shard.correlation_class(),
                });
            }
        }
        let mut prev_min: Option<(usize, f64)> = None;
        for (k, shard) in shards.iter().enumerate() {
            let scores = shard.tuple_scores();
            if scores.is_empty() {
                continue;
            }
            let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if let Some((_, upper_min)) = prev_min {
                if upper_min < max {
                    return Err(ShardError::NotContiguous {
                        shard: k,
                        upper_min,
                        lower_max: max,
                    });
                }
            }
            prev_min = Some((k, min));
        }
        let generations = Mutex::new(GenTracker {
            last_seen: shards.iter().map(|s| s.generation()).collect(),
            counter: 0,
            prepared: vec![None; shards.len()],
            summaries: vec![None; shards.len()],
        });
        Ok(ShardedRelation {
            shards,
            workers: workers.max(1),
            generations,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Threads each plain-mode shard walk requests.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Global id offsets per shard (exclusive prefix sums of shard sizes),
    /// recomputed per operation because live shards may resize.
    fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut acc = 0usize;
        for s in &self.shards {
            offsets.push(acc);
            acc += s.n_tuples();
        }
        offsets
    }

    /// Every shard's [`ShardSummary`], rebuilt only for the shards whose
    /// generation moved since it was cached (read before the marginals, as
    /// in [`ProbabilisticRelation::prepare`]).
    fn summaries(&self) -> Vec<ShardSummary> {
        let mut tracker = self.generations.lock().expect("generation tracker");
        self.shards
            .iter()
            .zip(tracker.summaries.iter_mut())
            .map(|(shard, slot)| {
                let generation = shard.generation();
                match slot {
                    Some((g, summary)) if *g == generation => *summary,
                    _ => {
                        let marginals = shard.tuple_marginals();
                        let summary = ShardSummary {
                            world_size: marginals.iter().sum(),
                            max_prob: marginals.iter().copied().fold(0.0, f64::max),
                        };
                        *slot = Some((generation, summary));
                        summary
                    }
                }
            })
            .collect()
    }

    /// The summaries when some request ranks by expected rank (the only
    /// reader), else zeros.
    fn erank_summaries(&self, spec: &SharedWalkSpec) -> Vec<ShardSummary> {
        if spec
            .requests
            .iter()
            .any(|r| matches!(r, SharedRequest::ExpectedRanks))
        {
            self.summaries()
        } else {
            vec![ShardSummary::default(); self.shards.len()]
        }
    }

    /// The score-order walk (module docs): shards one at a time, each
    /// consumer's cut carried across every boundary, values written
    /// straight into the global buffers. The walk ends inside the first
    /// shard where every consumer has stopped, and a shard's monoid
    /// elements join the prefix state only once the walk goes past it. In
    /// `plain` mode every shard runs its own full walk instead; the first
    /// shard that cannot resume the carry restarts the walk that way.
    fn walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        preps: Option<&[Arc<PreparedState>]>,
        plain: bool,
    ) -> Option<SharedWalkOut> {
        let start = Instant::now();
        let n = self.n_tuples();
        let offsets = self.offsets();
        let (alphas, alpha_of_request) = request_alphas(spec);
        let coeff_cap = coeff_cap(spec, n);
        let summaries = self.erank_summaries(spec);
        let c_total: f64 = summaries.iter().map(|s| s.world_size).sum();
        // p̂ of every shard after k, at k + 1.
        let mut tail_max_prob = vec![0.0f64; self.shards.len() + 1];
        for (k, summary) in summaries.iter().enumerate().rev() {
            tail_max_prob[k] = tail_max_prob[k + 1].max(summary.max_prob);
        }
        carry
            .requests
            .resize_with(spec.requests.len(), Default::default);

        let mut coeff_acc = Poly::one();
        let mut point_acc = vec![Scaled::<Complex>::one(); alphas.len()];
        let mut c_pre = 0.0f64;
        let mut answers = spec.answer_buffers(n);
        // A stream is every shard's, in shard order, sorted across each
        // boundary; plain shard walks keep none.
        let mut visits: Vec<Visit> = carry
            .requests
            .iter()
            .map(|rc| {
                if rc.stream && !plain {
                    Visit::Stream(Vec::new())
                } else {
                    Visit::All
                }
            })
            .collect();
        let mut stats: Option<GfStats> = None;
        let empty = PreparedState::empty();
        for (k, shard) in self.shards.iter().enumerate() {
            let (n_loc, offset) = (shard.n_tuples(), offsets[k]);
            if n_loc > 0 {
                // An uncapped weight reads the shard's ranks; a capped
                // one's envelope spans the ranks of every later shard too.
                let table_len = |i: usize| {
                    if plain || matches!(carry.requests[i].cap, Cap::Full) {
                        n_loc
                    } else {
                        n - offset
                    }
                };
                let local_spec = SharedWalkSpec {
                    requests: shifted_requests(
                        &spec.requests,
                        coeff_cap.map(|_| coeff_acc.coeffs()),
                        offset,
                        n,
                        table_len,
                    ),
                    threads: plain.then_some(self.workers),
                    cancel: spec.cancel.clone(),
                };
                let points: Vec<Option<Scaled<Complex>>> = alpha_of_request
                    .iter()
                    .map(|alpha| alpha.map(|i| point_acc[i]))
                    .collect();
                let c_other = c_total - summaries[k].world_size;
                let prep = preps.and_then(|p| p.get(k)).map_or(&empty, |p| &**p);
                if plain {
                    let mut out = shard.run_shared_walk_prepared(&local_spec, prep)?;
                    apply_prefix(&**shard, spec, &mut out.answers, &points, c_pre, c_other);
                    for (global, local) in answers.iter_mut().zip(out.answers) {
                        scatter(global, local, offset);
                    }
                    stats = merge_stats(stats, out.stats);
                } else {
                    for (rc, point) in carry.requests.iter_mut().zip(points) {
                        rc.point = point;
                    }
                    carry.shard = Some(ShardCarry {
                        answers,
                        offset,
                        tail: n - offset - n_loc,
                        tail_max_prob: tail_max_prob[k + 1],
                        c_pre,
                        c_other,
                    });
                    let Some(out) = shard.run_shared_walk(&local_spec, carry, prep) else {
                        carry.shard = None;
                        return if spec.is_cancelled() {
                            None
                        } else {
                            self.walk(spec, carry, preps, true)
                        };
                    };
                    answers = out.answers;
                    stats = merge_stats(stats, out.stats);
                    // A consumer that stopped here visited every earlier
                    // shard; a stream continues the earlier shards'.
                    let mut shard_visits = out.visits.into_iter();
                    for slot in &mut visits {
                        match (&mut *slot, shard_visits.next().unwrap_or_default()) {
                            (_, Visit::Prefix(visited)) => {
                                let ids = (0..offset as u32).map(TupleId).chain(visited);
                                *slot = Visit::Prefix(ids.collect());
                            }
                            (Visit::Stream(all), Visit::Stream(mut keys)) => {
                                let from = all.len();
                                all.append(&mut keys);
                                if !sort_tail_within(all, from) {
                                    *slot = Visit::All;
                                }
                            }
                            (Visit::Stream(_), _) => *slot = Visit::All,
                            _ => {}
                        }
                    }
                    if carry.settled() {
                        break;
                    }
                }
            }
            if k + 1 == self.shards.len() {
                break; // no later shard reads the fold
            }
            if coeff_cap.is_some() || !alphas.is_empty() {
                let (coeffs, points) = shard
                    .presence_gf(coeff_cap, &alphas)
                    .expect("validated at construction");
                if let Some(cap) = coeff_cap {
                    coeff_acc = coeff_acc.mul_truncated(&Poly::from_coeffs(coeffs), cap);
                }
                for (acc, g) in point_acc.iter_mut().zip(&points) {
                    *acc = acc.mul(g);
                }
            }
            c_pre += summaries[k].world_size;
        }
        Some(SharedWalkOut {
            answers,
            stats,
            walk_seconds: start.elapsed().as_secs_f64(),
            visits,
        })
    }
}

/// The largest coefficient cap of the spec's weight requests on an
/// `n`-tuple relation: how far the prefix fold must keep `P_k`.
fn coeff_cap(spec: &SharedWalkSpec, n: usize) -> Option<usize> {
    spec.requests
        .iter()
        .filter_map(|r| r.weight_cap(n))
        .max()
        .map(|c| c.max(1))
}

/// The distinct PRFe evaluation points of a spec, and each request's index
/// into them.
fn request_alphas(spec: &SharedWalkSpec) -> (Vec<Complex>, Vec<Option<usize>>) {
    let mut alphas: Vec<Complex> = Vec::new();
    let of_request = spec
        .requests
        .iter()
        .map(|req| {
            let alpha = match req {
                SharedRequest::PrfeComplex(a) | SharedRequest::PrfeScaled(a) => *a,
                SharedRequest::PrfeLog(a) => Complex::real(*a),
                _ => return None,
            };
            let key = (alpha.re.to_bits(), alpha.im.to_bits());
            Some(
                alphas
                    .iter()
                    .position(|b| (b.re.to_bits(), b.im.to_bits()) == key)
                    .unwrap_or_else(|| {
                        alphas.push(alpha);
                        alphas.len() - 1
                    }),
            )
        })
        .collect();
    (alphas, of_request)
}

fn merge_stats(a: Option<GfStats>, b: Option<GfStats>) -> Option<GfStats> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.merge(b)),
        (a, b) => a.or(b),
    }
}

/// Maps a spec's requests onto the shard at global `offset` whose
/// higher-scored shards have presence coefficients `coeffs` (`P_k`): a
/// weight becomes its shifted weight, tabulated (rank-only ω) to at most
/// `table_len(i)` ranks for request `i`; every other request is unchanged.
fn shifted_requests(
    requests: &[SharedRequest],
    coeffs: Option<&[f64]>,
    offset: usize,
    global_n: usize,
    table_len: impl Fn(usize) -> usize,
) -> Vec<SharedRequest> {
    requests
        .iter()
        .enumerate()
        .map(|(i, req)| match req {
            SharedRequest::Weight(w) => {
                let coeffs = coeffs.expect("coeffs requested");
                if is_identity_prefix(coeffs) && (offset == 0 || w.rank_only()) {
                    SharedRequest::Weight(Arc::clone(w))
                } else if w.rank_only() {
                    let cap = w.truncation().unwrap_or(global_n).min(global_n).max(1);
                    SharedRequest::Weight(Arc::new(tabulate_shifted(
                        &**w,
                        coeffs,
                        cap,
                        table_len(i),
                    )))
                } else {
                    SharedRequest::Weight(Arc::new(ShiftedWeight {
                        inner: Arc::clone(w),
                        prefix: coeffs.to_vec(),
                        trunc: w.truncation(),
                        id_offset: offset as u32,
                    }))
                }
            }
            other => other.clone(),
        })
        .collect()
}

/// Applies a shard's prefix state to the local answers of its plain-mode
/// walk, with the floating-point operations a carried walk applies inline:
/// PRFe values times `P_k(α)` (`points`, per request; log-domain: plus
/// `ln P_k(α)`), expected ranks plus `p·C_pre + (1 − p)·(C − C_k)`. Weight
/// answers are already global (shifted ω).
fn apply_prefix(
    shard: &(dyn ProbabilisticRelation + Send + Sync),
    spec: &SharedWalkSpec,
    answers: &mut [SharedAnswer],
    points: &[Option<Scaled<Complex>>],
    c_pre: f64,
    c_other: f64,
) {
    let marginals = if spec
        .requests
        .iter()
        .any(|r| matches!(r, SharedRequest::ExpectedRanks))
    {
        shard.tuple_marginals()
    } else {
        Vec::new()
    };
    for ((req, answer), point) in spec.requests.iter().zip(answers).zip(points) {
        match (req, answer, point) {
            (SharedRequest::PrfeComplex(_), SharedAnswer::Complex(vals), Some(point)) => {
                for v in vals.iter_mut() {
                    *v = Scaled::new(*v).mul(point).to_plain();
                }
            }
            (SharedRequest::PrfeScaled(_), SharedAnswer::Scaled(vals), Some(point)) => {
                for v in vals.iter_mut() {
                    *v = v.mul(point);
                }
            }
            (SharedRequest::PrfeLog(_), SharedAnswer::Log(vals), Some(point)) => {
                let ln_prefix = point.magnitude_key() * std::f64::consts::LN_2;
                for v in vals.iter_mut() {
                    *v += ln_prefix;
                }
            }
            (SharedRequest::ExpectedRanks, SharedAnswer::Ranks(vals), _) => {
                for (v, &p) in vals.iter_mut().zip(&marginals) {
                    *v += p * c_pre + (1.0 - p) * c_other;
                }
            }
            _ => {}
        }
    }
}

/// Copies a shard's local answer block into the global buffer at `offset`.
fn scatter(global: &mut SharedAnswer, local: SharedAnswer, offset: usize) {
    match (global, local) {
        (SharedAnswer::Complex(g), SharedAnswer::Complex(l)) => {
            g[offset..offset + l.len()].copy_from_slice(&l);
        }
        (SharedAnswer::Log(g), SharedAnswer::Log(l)) => {
            g[offset..offset + l.len()].copy_from_slice(&l);
        }
        (SharedAnswer::Scaled(g), SharedAnswer::Scaled(l)) => {
            g[offset..offset + l.len()].clone_from_slice(&l);
        }
        (SharedAnswer::Ranks(g), SharedAnswer::Ranks(l)) => {
            g[offset..offset + l.len()].copy_from_slice(&l);
        }
        _ => unreachable!("answer shape fixed by the request kind"),
    }
}

impl ProbabilisticRelation for ShardedRelation {
    fn n_tuples(&self) -> usize {
        self.shards.iter().map(|s| s.n_tuples()).sum()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_tuples());
        for s in &self.shards {
            out.extend(s.tuple_scores());
        }
        out
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_tuples());
        for s in &self.shards {
            out.extend(s.tuple_marginals());
        }
        out
    }

    fn correlation_class(&self) -> CorrelationClass {
        fn severity(c: CorrelationClass) -> u8 {
            match c {
                CorrelationClass::Independent => 0,
                CorrelationClass::XTuple => 1,
                CorrelationClass::Tree => 2,
                CorrelationClass::Graphical => 3,
            }
        }
        // Shards are mutually independent, so the union's class is the
        // worst shard's: all-independent unions stay independent, x-tuple
        // shards form one big x-tuple relation, and so on.
        self.shards
            .iter()
            .map(|s| s.correlation_class())
            .max_by_key(|&c| severity(c))
            .unwrap_or(CorrelationClass::Independent)
    }

    fn generation(&self) -> u64 {
        let mut tracker = self.generations.lock().expect("generation tracker");
        let current: Vec<u64> = self.shards.iter().map(|s| s.generation()).collect();
        if current != tracker.last_seen {
            tracker.last_seen = current;
            tracker.counter += 1;
        }
        tracker.counter
    }

    fn prepare(&self) -> PreparedState {
        // Incremental: rebuild only the shards whose generation moved
        // since their cached state was built (for immutable shards, never),
        // so a re-prepare after one live shard's mutation is `O(changed
        // shard)`, not `O(n)`. The generation is read *before* `prepare()`
        // (the same never-too-new invariant `PreparedRelation` keeps), so a
        // mutation racing the rebuild at worst causes one extra rebuild.
        let mut tracker = self.generations.lock().expect("generation tracker");
        let states: Vec<Arc<PreparedState>> = self
            .shards
            .iter()
            .zip(tracker.prepared.iter_mut())
            .map(|(shard, slot)| {
                let generation = shard.generation();
                match slot {
                    Some((g, state)) if *g == generation => Arc::clone(state),
                    _ => {
                        let state = Arc::new(shard.prepare());
                        *slot = Some((generation, Arc::clone(&state)));
                        state
                    }
                }
            })
            .collect();
        PreparedState::sharded(states)
    }

    /// Walks the shards in score order and stops early once every
    /// consumer is capped and has stopped. A sharded relation is never a
    /// shard itself (it has no presence hook), so its carry is fresh.
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        carry: &mut TopkCarry,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        let preps = prep
            .sharded_states()
            .filter(|states| states.len() == self.shards.len());
        if self.shards.len() == 1 {
            // One shard: the prefix is the identity, delegate wholesale.
            let prep = preps.and_then(|p| p.first());
            let empty = PreparedState::empty();
            return self.shards[0].run_shared_walk(spec, carry, prep.map_or(&empty, |p| &**p));
        }
        self.walk(spec, carry, preps, false)
    }
}
