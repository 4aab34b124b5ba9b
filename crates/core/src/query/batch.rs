//! The query executor: batches of queries answered from **one shared
//! score-order walk**.
//!
//! The paper's parameterized ranking function means every semantics —
//! PRFω(h)/PT(h), PRFe(α) at any α, expected ranks — is read off the *same*
//! generating function, walked over the *same* score order. A
//! [`QueryBatch`] exploits that: it compiles N queries against one
//! [`ProbabilisticRelation`] into a [`BatchPlan`] and answers every walk
//! consumer from **one** call to
//! [`ProbabilisticRelation::run_shared_walk`]. PRFe variants
//! become extra evaluation points of the shared generating function;
//! PT(h)/PRFω(h) variants become truncation views of one shared
//! truncated-polynomial evaluator; expected ranks ride along as a
//! dual-number evaluation point; a DFT mixture becomes its `L` scaled PRFe
//! points, summed at finalize. This is the engine's **only** executor:
//! [`RankQuery::run`] is a batch of one. The walk call carries each
//! consumer's `top_k`: a backend may stop a capped consumer once its answer
//! is settled, and finalize then ranks only the visited prefix.
//!
//! ```
//! use prf_core::query::{QueryBatch, RankQuery, Semantics};
//! use prf_pdb::IndependentDb;
//!
//! let db = IndependentDb::from_pairs([(100.0, 0.5), (50.0, 1.0), (80.0, 0.8)])?;
//! let results = QueryBatch::new()
//!     .add(Semantics::Pt(2))
//!     .add(Semantics::ERank)
//!     .add_query(RankQuery::prfe(0.9))
//!     .run(&db)?;
//! assert_eq!(results.len(), 3);
//! // Each result is exactly what the equivalent single query returns…
//! assert_eq!(
//!     results[0].ranking.order(),
//!     RankQuery::pt(2).run(&db)?.ranking.order()
//! );
//! // …and its report records the shared-walk cost attribution.
//! assert_eq!(results[0].report.batch.unwrap().consumers, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Three semantics have no walk form and take a **direct route**
//! ([`BatchRoute::Single`], reports carry `batch: None`): E-Score's closed
//! form, U-Top's set sweep ([`ProbabilisticRelation::most_probable_topk`])
//! and U-Rank's candidate tables
//! ([`ProbabilisticRelation::positional_candidates`]). Every other entry,
//! a lone log-domain PRFe query included, is a walk consumer. A walk that
//! returns `None` without being cancelled retries each of its entries
//! alone; an entry whose own walk still returns `None` fails with
//! [`QueryError::Unsupported`].

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use prf_numeric::{Complex, GfValue, Scaled};
use prf_pdb::TupleId;

use super::relation::{CorrelationClass, ProbabilisticRelation};
use super::{
    panic_reason, timed, Algorithm, CancelToken, EvalReport, NumericMode, PreparedState,
    QueryError, RankQuery, RankedResult, Semantics, TopSet, TopkCarry, Values,
};
use crate::incremental::GfStats;
use crate::mixture::{approximate_weights, DftApproxConfig, ExpMixture};
use crate::topk::{Ranking, ValueOrder};
use crate::weights::{tabulate, WeightFunction};

// ---------------------------------------------------------------------
// The shared-walk backend interface
// ---------------------------------------------------------------------

/// One consumer of a shared score-order walk — the backend-facing form of a
/// batched query, produced by [`QueryBatch`] compilation and consumed by
/// [`ProbabilisticRelation::run_shared_walk`].
#[derive(Clone)]
pub enum SharedRequest {
    /// Weight-based Υ extraction (PRFω/PT/Consensus): read the first
    /// `truncation` coefficients of the shared generating function.
    Weight(Arc<dyn WeightFunction + Send + Sync>),
    /// PRFe(α) in plain complex arithmetic — an extra evaluation point of
    /// the shared generating function.
    PrfeComplex(Complex),
    /// PRFe(α) log-domain keys (real `α ∈ [0, 1]`).
    PrfeLog(f64),
    /// PRFe(α) in scaled arithmetic.
    PrfeScaled(Complex),
    /// Expected ranks (lower is better), via a dual-number evaluation
    /// point at `α = 1`.
    ExpectedRanks,
}

impl SharedRequest {
    /// The shared-polynomial extraction cap of a weight request on an
    /// `n`-tuple relation (`None` for non-weight requests) — the single
    /// definition both the tree and independent batch walks parse with,
    /// matching the single kernels' `truncation().unwrap_or(n).min(n)`.
    pub(crate) fn weight_cap(&self, n: usize) -> Option<usize> {
        match self {
            SharedRequest::Weight(w) => Some(w.truncation().unwrap_or(n).min(n)),
            _ => None,
        }
    }
}

impl std::fmt::Debug for SharedRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedRequest::Weight(w) => write!(f, "Weight({})", w.name()),
            SharedRequest::PrfeComplex(a) => write!(f, "PrfeComplex({a})"),
            SharedRequest::PrfeLog(a) => write!(f, "PrfeLog({a})"),
            SharedRequest::PrfeScaled(a) => write!(f, "PrfeScaled({a})"),
            SharedRequest::ExpectedRanks => f.write_str("ExpectedRanks"),
        }
    }
}

/// Everything a backend needs to serve a batch from one walk.
#[derive(Clone, Debug)]
pub struct SharedWalkSpec {
    /// The consumers, in batch-entry order.
    pub requests: Vec<SharedRequest>,
    /// Worker threads requested for shard-parallel walks.
    pub threads: Option<usize>,
    /// Cooperative cancellation, polled between score steps. For a batch
    /// this is the **all-of** composite of the consumers' tokens (the walk
    /// serves everyone, so it only aborts once *every* consumer has given
    /// up); a tripped token makes the kernel return `None`, and each entry
    /// then reports its own [`QueryError::TimedOut`].
    pub cancel: Option<CancelToken>,
}

impl SharedWalkSpec {
    /// `true` once the walk's composite cancellation token has tripped —
    /// the kernels' periodic poll.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// One answer buffer per request, `n` worst values each (see
    /// [`SharedAnswer::zeroed`]) — what every walk fills in.
    pub(crate) fn answer_buffers(&self, n: usize) -> Vec<SharedAnswer> {
        self.requests
            .iter()
            .map(|req| req.answer_shape().zeroed(n))
            .collect()
    }
}

impl SharedRequest {
    /// An empty answer of the shape a walk fills for this request.
    fn answer_shape(&self) -> SharedAnswer {
        match self {
            SharedRequest::Weight(_) | SharedRequest::PrfeComplex(_) => {
                SharedAnswer::Complex(Vec::new())
            }
            SharedRequest::PrfeLog(_) => SharedAnswer::Log(Vec::new()),
            SharedRequest::PrfeScaled(_) => SharedAnswer::Scaled(Vec::new()),
            SharedRequest::ExpectedRanks => SharedAnswer::Ranks(Vec::new()),
        }
    }
}

/// The per-request answer of a shared walk, indexed by tuple id.
#[derive(Clone, Debug)]
pub enum SharedAnswer {
    /// Plain complex Υ values ([`SharedRequest::Weight`] /
    /// [`SharedRequest::PrfeComplex`]).
    Complex(Vec<Complex>),
    /// Log-domain keys ([`SharedRequest::PrfeLog`]).
    Log(Vec<f64>),
    /// Scaled Υ values ([`SharedRequest::PrfeScaled`]).
    Scaled(Vec<Scaled<Complex>>),
    /// Expected ranks, lower is better ([`SharedRequest::ExpectedRanks`]).
    Ranks(Vec<f64>),
}

impl SharedAnswer {
    /// `len` worst values in this answer's shape — zero Υ values, `-∞`
    /// log keys, `+∞` expected ranks — the buffer a walk (or one shard of
    /// it) fills, and what a consumer that stopped early leaves beyond its
    /// visited prefix.
    pub(crate) fn zeroed(&self, len: usize) -> Self {
        match self {
            SharedAnswer::Complex(_) => SharedAnswer::Complex(vec![Complex::ZERO; len]),
            SharedAnswer::Log(_) => SharedAnswer::Log(vec![f64::NEG_INFINITY; len]),
            SharedAnswer::Scaled(_) => SharedAnswer::Scaled(vec![Scaled::zero(); len]),
            SharedAnswer::Ranks(_) => SharedAnswer::Ranks(vec![f64::INFINITY; len]),
        }
    }

    /// Tuple `id`'s walk key: `ℜ(Υ)` of plain values, `ln Υ` of log keys,
    /// `log₂|Υ|` of scaled values, `−er` of expected ranks (negated so
    /// that, as everywhere, higher ranks better). A capped consumer's cut
    /// tracks it, a stream carries it, and finalize ranks by it unless
    /// [`value_order`] names another order of the values.
    #[inline]
    pub(crate) fn walk_key(&self, id: usize) -> f64 {
        match self {
            SharedAnswer::Complex(buf) => buf[id].re,
            SharedAnswer::Log(buf) => buf[id],
            SharedAnswer::Scaled(buf) => buf[id].magnitude_key(),
            SharedAnswer::Ranks(buf) => -buf[id],
        }
    }

    /// The per-tuple values a result reports; expected ranks are negated
    /// like their walk keys.
    fn into_values(self) -> Values {
        match self {
            SharedAnswer::Complex(vals) => Values::Complex(vals),
            SharedAnswer::Log(keys) => Values::LogDomain(keys),
            SharedAnswer::Scaled(vals) => Values::Scaled(vals),
            SharedAnswer::Ranks(er) => {
                Values::Complex(er.into_iter().map(|e| Complex::real(-e)).collect())
            }
        }
    }
}

/// What one shared walk produced.
#[derive(Clone, Debug)]
pub struct SharedWalkOut {
    /// Per-request answers, parallel to [`SharedWalkSpec::requests`].
    pub answers: Vec<SharedAnswer>,
    /// Merged memory accounting of the walk's incremental evaluators
    /// (`None` for closed-form backends).
    pub stats: Option<GfStats>,
    /// Wall-clock seconds of the whole walk, including any setup the
    /// backend built for this call (an unprepared tree's score sort and
    /// compiled plan; an independent relation's order is stored, so its
    /// walk is the scan alone).
    pub walk_seconds: f64,
    /// Per request, what its consumer visited (see [`Visit`]). Walks that
    /// visit every tuple and keep no order leave the vector empty.
    pub visits: Vec<Visit>,
}

/// What one walk consumer visited, as its finalize needs it.
#[derive(Clone, Debug, Default)]
pub enum Visit {
    /// Every tuple; finalize ranks the answer by id.
    #[default]
    All,
    /// Stopped early on its `top_k` (see
    /// [`ProbabilisticRelation::run_shared_walk`]): the ids of the
    /// score-order prefix it evaluated, in no particular order.
    Prefix(Vec<TupleId>),
    /// Every tuple, as [`prf_pdb::tuple::packed_desc`]`(walk key, id)`
    /// (`ℜ(Υ)`, `ln Υ`, `log₂|Υ|` or `−er`, by the answer's shape), sorted
    /// best first: a walk in score order sees its keys nearly sorted and
    /// sorts them as it goes. Only requests the carry marks as ranking by
    /// their walk key get one.
    Stream(Vec<u128>),
}

// ---------------------------------------------------------------------
// Cost attribution
// ---------------------------------------------------------------------

/// Cost attribution recorded in a walk-answered query's [`EvalReport`]:
/// how much walk time was shared, and between how many queries (a single
/// query reports `consumers: 1`). The entry's `kernel_seconds` is its
/// amortized share `walk_seconds / consumers`; direct-route entries carry
/// `batch: None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchCost {
    /// Total wall-clock seconds of the shared walk.
    pub walk_seconds: f64,
    /// Number of queries that shared that walk.
    pub consumers: usize,
}

impl BatchCost {
    /// This query's amortized share of the walk.
    pub fn amortized_seconds(&self) -> f64 {
        self.walk_seconds / self.consumers.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// The compiled plan
// ---------------------------------------------------------------------

/// How one batch entry is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchRoute {
    /// Served by the shared score-order walk.
    Shared,
    /// Answered directly, outside the walk: E-Score's closed form, U-Top
    /// and U-Rank.
    Single,
}

/// The compiled form of a [`QueryBatch`] against one backend: every entry's
/// resolved algorithm and execution route. Exposed so callers (and the
/// batch benchmarks) can inspect how much of a batch actually shares the
/// walk before running it.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    resolved: Vec<(Algorithm, BatchRoute)>,
}

impl BatchPlan {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// `true` when the batch has no entries (never produced by
    /// [`QueryBatch::compile`], which rejects empty batches).
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// The resolved algorithm of entry `i`.
    pub fn algorithm(&self, i: usize) -> Algorithm {
        self.resolved[i].0
    }

    /// The execution route of entry `i`.
    pub fn route(&self, i: usize) -> BatchRoute {
        self.resolved[i].1
    }

    /// How many entries share the walk.
    pub fn shared_consumers(&self) -> usize {
        self.resolved
            .iter()
            .filter(|(_, r)| *r == BatchRoute::Shared)
            .count()
    }
}

// ---------------------------------------------------------------------
// The batch builder
// ---------------------------------------------------------------------

/// A batch of ranking queries against one relation, answered from one
/// shared score-order walk wherever the semantics allow (see the module
/// docs for the sharing rules and the direct routes).
///
/// Entries are full [`RankQuery`]s, so per-entry algorithm, value order and
/// `top_k` overrides compose with the batch-level defaults
/// ([`QueryBatch::top_k`] and [`QueryBatch::parallel`] apply to entries
/// that did not set their own).
#[derive(Clone, Debug, Default)]
pub struct QueryBatch {
    entries: Vec<RankQuery>,
    top_k: Option<usize>,
    threads: Option<usize>,
}

impl QueryBatch {
    /// An empty batch. At least one entry must be added before
    /// [`QueryBatch::run`]; running an empty batch is an error
    /// ([`QueryError::EmptyBatch`]), not an empty answer.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Adds a semantics with default options ([`Algorithm::Auto`]).
    // Builder-style `add`, not arithmetic — the trait would be nonsense here.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, semantics: Semantics) -> Self {
        self.entries.push(RankQuery::new(semantics));
        self
    }

    /// Adds a fully configured query (per-entry algorithm, value order,
    /// `top_k`, …).
    pub fn add_query(mut self, query: RankQuery) -> Self {
        self.entries.push(query);
        self
    }

    /// Adds every query of an iterator.
    pub fn add_queries(mut self, queries: impl IntoIterator<Item = RankQuery>) -> Self {
        self.entries.extend(queries);
        self
    }

    /// Truncates every returned ranking to its best `k` entries (entries
    /// with their own `top_k` keep it).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Requests `threads` workers for the shared walk (a tree walk shards
    /// its score order, see [`crate::parallel`]) and for fanning out the
    /// per-entry finalization.
    ///
    /// This batch-level setting is the **only** control over the shared
    /// walk: a per-entry `RankQuery::parallel` cannot shard a walk it
    /// shares with other entries, so it is ignored inside a batch (reports
    /// echo the walk's actual thread count); [`RankQuery::run`] turns it
    /// into the batch-level setting of its batch of one.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in execution order.
    pub fn queries(&self) -> &[RankQuery] {
        &self.entries
    }

    /// Compiles the batch against a backend without running it: resolves
    /// every entry's algorithm (surfacing incompatibilities exactly like
    /// the equivalent single queries would) and decides which entries share
    /// the walk.
    pub fn compile(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<BatchPlan, QueryError> {
        if self.entries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        let mut resolved = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let algorithm = entry.resolve_algorithm(rel)?;
            resolved.push((algorithm, route(entry.semantics())));
        }
        Ok(BatchPlan { resolved })
    }

    /// Runs every query, sharing one score-order walk between the walk
    /// consumers. Results are in entry order and identical to running each
    /// entry as its own batch of one.
    ///
    /// Any per-entry failure fails the whole batch; serving layers that
    /// must keep one bad query from poisoning a flush use
    /// [`QueryBatch::run_isolated`] instead.
    pub fn run(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<Vec<RankedResult>, QueryError> {
        let plan = self.compile(rel)?;
        let resolved: Vec<_> = plan.resolved.iter().map(|&(a, _)| Ok(a)).collect();
        self.execute(rel, &resolved, false).into_iter().collect()
    }

    /// Runs every query with **per-entry error isolation**: each entry
    /// resolves and (when necessary) retries its walk independently, and
    /// evaluation panics are caught, so one incompatible, failing or
    /// panicking query yields an `Err` in *its* slot while every other
    /// entry still shares the walk. Results are in entry order; an empty
    /// batch returns an empty vector (a serving layer never flushes an
    /// empty queue, so there is no entry to report
    /// [`QueryError::EmptyBatch`] through).
    ///
    /// Ok entries are answer-identical to what [`QueryBatch::run`] produces
    /// for a batch containing only the valid queries.
    pub fn run_isolated(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Vec<Result<RankedResult, QueryError>> {
        let resolved: Vec<_> = self
            .entries
            .iter()
            .map(|e| e.resolve_algorithm(rel))
            .collect();
        self.execute(rel, &resolved, true)
    }

    /// The executor behind [`QueryBatch::run`] and
    /// [`QueryBatch::run_isolated`]. Entries whose resolution failed carry
    /// their error through; walk consumers share one walk; direct routes
    /// run in entry order afterwards. Without `isolate` panics propagate
    /// and evaluation stops at the first error (the all-or-nothing `run`
    /// discards everything after it anyway), leaving the vector short.
    fn execute(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
        resolved: &[Result<Algorithm, QueryError>],
        isolate: bool,
    ) -> Vec<Result<RankedResult, QueryError>> {
        let n = rel.n_tuples();
        let backend = rel.correlation_class();

        // Classify every entry and assemble the walk spec. Entries whose
        // token already tripped are answered `TimedOut` without joining
        // the walk (or evaluating at all).
        let mut spec = SharedWalkSpec {
            requests: Vec::new(),
            threads: self.threads,
            cancel: None,
        };
        // Per request, the top-k its consumer ranks: a lone request may stop
        // early (a DFT mixture sums several points, so it walks in full).
        // A lone request whose finalize ranks by its walk key may have its
        // keys streamed in visit order when it walks in full.
        let mut limits: Vec<Option<usize>> = Vec::new();
        let mut streams: Vec<bool> = Vec::new();
        let mut tokens: Vec<CancelToken> = Vec::new();
        let mut untracked = 0usize;
        let mut slots: Vec<Slot> = Vec::with_capacity(self.entries.len());
        for (entry, resolved) in self.entries.iter().zip(resolved) {
            let algorithm = match resolved {
                _ if entry.cancel.as_ref().is_some_and(CancelToken::is_cancelled) => {
                    slots.push(Slot::Done(Err(QueryError::TimedOut)));
                    continue;
                }
                Err(e) => {
                    slots.push(Slot::Done(Err(e.clone())));
                    continue;
                }
                Ok(a) => *a,
            };
            if route(&entry.semantics) == BatchRoute::Single {
                slots.push(Slot::Direct(algorithm));
                continue;
            }
            match walk_requests(entry, algorithm) {
                Ok((requests, mix)) => {
                    let first = spec.requests.len();
                    let limit = self.limit(entry, &mix);
                    let stream = mix.is_none()
                        && value_order(entry, &requests[0].answer_shape(), false).is_none();
                    spec.requests.extend(requests);
                    limits.resize(spec.requests.len(), limit);
                    streams.resize(spec.requests.len(), stream);
                    match &entry.cancel {
                        Some(token) => tokens.push(token.clone()),
                        None => untracked += 1,
                    }
                    slots.push(Slot::Walk {
                        algorithm,
                        requests: first..spec.requests.len(),
                        mix,
                    });
                }
                Err(e) => slots.push(Slot::Done(Err(e))),
            }
        }
        let consumers = slots.iter().filter(|s| s.walks()).count();
        // A stream moves its consumer's sort from finalize into the walk,
        // which is serial. When several consumers' finalizes fan out over
        // threads (see below), that can lengthen the walk by more than it
        // shortens the slowest finalize thread, so only a finalize that
        // runs on one thread gets streams.
        if crate::parallel::effective_walk_threads(n, self.threads).min(consumers) > 1 {
            streams.fill(false);
        }
        // The walk aborts only once *every* consumer has cancelled — with
        // any token-less consumer aboard it can never be abandoned.
        if untracked == 0 && !tokens.is_empty() {
            spec.cancel = Some(CancelToken::all_of(tokens));
        }

        // One walk serves every consumer. When it yields no answers (a
        // request this backend cannot serve, a panic under isolation, or
        // every consumer cancelled), each consumer retries alone so the
        // failure lands only on the entries that cause it.
        let walk = if consumers == 0 {
            Ok(None)
        } else {
            guarded(isolate, || {
                let mut carry = TopkCarry::new(&limits).streaming(&streams);
                Ok(rel.run_shared_walk(&spec, &mut carry, &PreparedState::empty()))
            })
        };
        let mut answered: Vec<Option<Result<Answered, QueryError>>> =
            slots.iter().map(|_| None).collect();
        match walk {
            Ok(Some(out)) => {
                let cost = BatchCost {
                    walk_seconds: out.walk_seconds,
                    consumers,
                };
                let mut answers: Vec<Option<SharedAnswer>> =
                    out.answers.into_iter().map(Some).collect();
                let mut visits = out.visits;
                for (slot, a) in slots.iter().zip(&mut answered) {
                    if let Slot::Walk { requests, .. } = slot {
                        let answers = answers[requests.clone()]
                            .iter_mut()
                            .map(|a| a.take().expect("one answer per request"))
                            .collect();
                        *a = Some(Ok(Answered {
                            answers,
                            cost,
                            stats: out.stats,
                            visit: visits
                                .get_mut(requests.start)
                                .map(std::mem::take)
                                .unwrap_or_default(),
                        }));
                    }
                }
            }
            // A lone consumer already had its walk: report, don't retry.
            failed if consumers == 1 => {
                let i = slots
                    .iter()
                    .position(Slot::walks)
                    .expect("one walk consumer");
                answered[i] = Some(Err(match failed {
                    Err(e) => e,
                    _ => walk_failure(&self.entries[i], backend),
                }));
            }
            _ => {
                for ((slot, a), entry) in slots.iter().zip(&mut answered).zip(&self.entries) {
                    if let Slot::Walk { requests, .. } = slot {
                        let carry = TopkCarry::new(&limits[requests.clone()])
                            .streaming(&streams[requests.clone()]);
                        let requests = spec.requests[requests.clone()].to_vec();
                        *a = Some(self.walk_alone(rel, entry, requests, carry, isolate));
                    }
                }
            }
        }

        // Finalize the walk answers — independent O(n)–O(n·log n) work per
        // entry that dominates the post-walk wall on multi-entry batches
        // over large relations, so it fans out over scoped threads under
        // the same opt-in contract as the sharded walk (`parallel(t)`
        // requested and every worker's share clearing the parallel floor).
        let mut walked: Vec<Option<Result<RankedResult, QueryError>>> =
            slots.iter().map(|_| None).collect();
        let mut jobs = Vec::new();
        for (i, (slot, a)) in slots.iter().zip(answered).enumerate() {
            if let Slot::Walk { algorithm, mix, .. } = slot {
                match a.expect("every walk consumer is answered or failed") {
                    Ok(a) => jobs.push((i, *algorithm, mix.as_deref(), a)),
                    Err(e) => walked[i] = Some(Err(e)),
                }
            }
        }
        let threads = crate::parallel::effective_walk_threads(n, self.threads).min(jobs.len());
        if threads > 1 {
            let mut buckets: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
            for (j, job) in jobs.into_iter().enumerate() {
                buckets[j % threads].push(job);
            }
            let outs = std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        scope.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(i, algorithm, mix, answered)| {
                                    let entry = &self.entries[i];
                                    (
                                        i,
                                        self.finalize(entry, algorithm, n, backend, mix, answered),
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(std::thread::ScopedJoinHandle::join)
                    .collect::<Vec<_>>()
            });
            for out in outs {
                // A panic in finalize is an internal bug and propagates
                // like the serial path's would.
                let list = out.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (i, r) in list {
                    walked[i] = Some(r);
                }
            }
        } else {
            for (i, algorithm, mix, answered) in jobs {
                let entry = &self.entries[i];
                walked[i] = Some(self.finalize(entry, algorithm, n, backend, mix, answered));
            }
        }

        // Assemble in entry order; direct routes evaluate here.
        let mut results = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let entry = &self.entries[i];
            let result = match slot {
                Slot::Done(r) => r,
                Slot::Direct(algorithm) => {
                    guarded(isolate, || self.direct(rel, entry, algorithm, backend))
                }
                Slot::Walk { .. } => walked[i].take().expect("every walk consumer is settled"),
            };
            let failed = result.is_err();
            results.push(result);
            if failed && !isolate {
                break;
            }
        }
        results
    }

    /// One entry's walk on its own — the retry after a shared walk yielded
    /// no answers. Its cost is its own (`consumers: 1`).
    fn walk_alone(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
        entry: &RankQuery,
        requests: Vec<SharedRequest>,
        mut carry: TopkCarry,
        isolate: bool,
    ) -> Result<Answered, QueryError> {
        let spec = SharedWalkSpec {
            requests,
            threads: self.threads,
            cancel: entry.cancel.clone(),
        };
        if spec.is_cancelled() {
            return Err(QueryError::TimedOut);
        }
        let out = guarded(isolate, || {
            Ok(rel.run_shared_walk(&spec, &mut carry, &PreparedState::empty()))
        })?;
        let mut out = out.ok_or_else(|| walk_failure(entry, rel.correlation_class()))?;
        Ok(Answered {
            answers: out.answers,
            cost: BatchCost {
                walk_seconds: out.walk_seconds,
                consumers: 1,
            },
            stats: out.stats,
            visit: out
                .visits
                .get_mut(0)
                .map(std::mem::take)
                .unwrap_or_default(),
        })
    }

    /// The report fields every route shares.
    fn report(
        &self,
        entry: &RankQuery,
        algorithm: Algorithm,
        backend: CorrelationClass,
        numeric_mode: NumericMode,
    ) -> EvalReport {
        EvalReport {
            semantics: entry.semantics.name(),
            backend,
            algorithm,
            auto_selected: matches!(entry.algorithm, Algorithm::Auto),
            numeric_mode,
            kernel_seconds: 0.0,
            total_seconds: 0.0,
            truncated_to: entry.top_k.or(self.top_k),
            threads: self.threads,
            memory: None,
            batch: None,
            tuples_scanned: None,
            serve: None,
        }
    }

    /// How much of an `n`-tuple ranking an entry materialises: its `top_k`
    /// (else the batch's) is **pushed down** into ranking construction —
    /// only the best-`k` prefix is selected and sorted, which is identical
    /// to sorting everything and truncating.
    fn cap(&self, entry: &RankQuery, n: usize) -> usize {
        entry.top_k.or(self.top_k).unwrap_or(n).min(n)
    }

    /// The `top_k` a walk consumer's single request passes to
    /// [`ProbabilisticRelation::run_shared_walk`]; `None` for an
    /// uncapped entry and for a DFT mixture (weights `mix`), whose points
    /// are summed before ranking.
    fn limit(&self, entry: &RankQuery, mix: &Option<Vec<Complex>>) -> Option<usize> {
        entry.top_k.or(self.top_k).filter(|_| mix.is_none())
    }

    /// Builds the [`RankedResult`] of a walk consumer from its answers (one
    /// per request; a DFT mixture's `L` scaled points are summed with the
    /// mixture weights `mix`). Per-tuple values keep length `n`; when the
    /// walk stopped the consumer early, only its visited prefix is ranked
    /// (see [`RankedResult::values`]). A NaN among the ranked values (a
    /// weight table holding NaN, say) fails the entry with
    /// [`QueryError::InvalidParameter`].
    fn finalize(
        &self,
        entry: &RankQuery,
        algorithm: Algorithm,
        n: usize,
        backend: CorrelationClass,
        mix: Option<&[Complex]>,
        answered: Answered,
    ) -> Result<RankedResult, QueryError> {
        let finalize_start = Instant::now();
        let cap = self.cap(entry, n);
        let visit = answered.visit;
        let scanned = match &visit {
            Visit::Prefix(ids) => ids.len(),
            _ => n,
        };
        let mut answers = answered.answers.into_iter();
        let (answer, mixture) = match mix {
            Some(weights) => {
                let mut acc = vec![Scaled::<Complex>::zero(); n];
                for (&u, answer) in weights.iter().zip(answers) {
                    let SharedAnswer::Scaled(vals) = answer else {
                        unreachable!("mixture points are scaled PRFe requests")
                    };
                    let us = Scaled::new(u);
                    for (a, v) in acc.iter_mut().zip(vals) {
                        *a = a.add(&v.mul(&us));
                    }
                }
                (SharedAnswer::Scaled(acc), true)
            }
            None => (answers.next().expect("one answer per request"), false),
        };
        let ranking = match value_order(entry, &answer, mixture) {
            None => rank_visited(&visit, n, cap, |i| answer.walk_key(i)),
            Some(order) => rank_by_order(&answer, order, &visit, cap),
        };
        let values = answer.into_values();
        let ranking = ranking.ok_or_else(|| {
            QueryError::InvalidParameter(format!(
                "{}: a computed value is NaN and has no rank",
                entry.semantics.name()
            ))
        })?;
        let amortized = answered.cost.amortized_seconds();
        let mut report = self.report(entry, algorithm, backend, values.numeric_mode());
        report.kernel_seconds = amortized;
        report.total_seconds = amortized + finalize_start.elapsed().as_secs_f64();
        report.memory = answered.stats;
        report.batch = Some(answered.cost);
        report.tuples_scanned = Some(scanned);
        Ok(RankedResult {
            values,
            ranking,
            set: None,
            report,
        })
    }

    /// The direct routes: E-Score's closed form, U-Top and U-Rank.
    fn direct(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
        entry: &RankQuery,
        algorithm: Algorithm,
        backend: CorrelationClass,
    ) -> Result<RankedResult, QueryError> {
        let start = Instant::now();
        let n = rel.n_tuples();
        let cap = self.cap(entry, n);
        let mut kernel_seconds = 0.0;
        let (values, mut ranking, set) = match &entry.semantics {
            Semantics::EScore => {
                // ω(t, i) = score(t) makes Υ = Pr(t)·score(t), O(n) in
                // closed form. An absent tuple expects nothing, even with an
                // infinite score (0·∞ would be NaN).
                let vals: Vec<Complex> = timed(&mut kernel_seconds, || {
                    rel.tuple_marginals()
                        .iter()
                        .zip(rel.tuple_scores())
                        .map(|(&p, s)| Complex::real(if p == 0.0 { 0.0 } else { p * s }))
                        .collect()
                });
                let order = entry.value_order.unwrap_or(ValueOrder::RealPart);
                let ranking = Ranking::from_values_topk(&vals, order, cap);
                (vals, ranking, None)
            }
            Semantics::URank(k) => {
                // Positions beyond n never get candidates.
                let k = (*k).min(n);
                let chosen =
                    timed(&mut kernel_seconds, || rel.positional_candidates(k)).select_distinct();
                let mut vals = vec![Complex::ZERO; n];
                for &(p, t) in &chosen {
                    vals[t.index()] = Complex::real(p);
                }
                let (keys, order): (Vec<f64>, Vec<TupleId>) = chosen.into_iter().unzip();
                (vals, Ranking::from_order_and_keys(order, keys), None)
            }
            Semantics::UTop(k) => {
                let (members, log_prob) =
                    timed(&mut kernel_seconds, || rel.most_probable_topk(*k))?;
                let scores = rel.tuple_scores();
                let mut vals = vec![Complex::ZERO; n];
                for &t in &members {
                    vals[t.index()] = Complex::ONE;
                }
                let keys: Vec<f64> = members.iter().map(|t| scores[t.index()]).collect();
                let ranking = Ranking::from_order_and_keys(members.clone(), keys);
                (vals, ranking, Some(TopSet { members, log_prob }))
            }
            sem => unreachable!("{sem:?} is answered by the walk"),
        };
        ranking.truncate(cap);
        let mut report = self.report(entry, algorithm, backend, NumericMode::Complex);
        report.kernel_seconds = kernel_seconds;
        report.total_seconds = start.elapsed().as_secs_f64();
        Ok(RankedResult {
            values: Values::Complex(values),
            ranking,
            set,
            report,
        })
    }
}

/// How one batch entry is answered.
// One short-lived slot per entry: boxing the settled result buys nothing.
#[allow(clippy::large_enum_variant)]
enum Slot {
    /// Settled before the walk: an error, or a direct log-domain ranking.
    Done(Result<RankedResult, QueryError>),
    /// A direct route, evaluated after the walk in entry order.
    Direct(Algorithm),
    /// A walk consumer owning `requests` of the walk spec; `mix` holds the
    /// DFT mixture weights that sum its scaled points.
    Walk {
        algorithm: Algorithm,
        requests: Range<usize>,
        mix: Option<Vec<Complex>>,
    },
}

impl Slot {
    fn walks(&self) -> bool {
        matches!(self, Slot::Walk { .. })
    }
}

/// A walk consumer's answers with their cost attribution, and what it
/// visited.
struct Answered {
    answers: Vec<SharedAnswer>,
    cost: BatchCost,
    stats: Option<GfStats>,
    visit: Visit,
}

/// The order finalize ranks `answer`, a walk answer of `entry`, by when
/// that is not its walk key ([`SharedAnswer::walk_key`]); `None` when it
/// is. Unless `entry` overrides the order, plain values rank by `ℜ(Υ)`,
/// their walk key, under the classical real-valued semantics (identical
/// to `|Υ|` for their non-negative values, and bitwise-stable for
/// differential comparisons) and by `|Υ|` under the others; scaled values
/// rank by magnitude, their walk key, except a DFT mixture's summed points
/// (`mixture`), which rank by the real part. Log keys and expected ranks
/// always rank by their walk key. The batch streams a request's walk keys
/// only where this is `None`, so this is the one place that choice is
/// made.
fn value_order(entry: &RankQuery, answer: &SharedAnswer, mixture: bool) -> Option<ValueOrder> {
    let (default, walk) = match answer {
        SharedAnswer::Complex(_) => {
            let default = match entry.semantics {
                Semantics::Pt(_) | Semantics::Consensus(_) => ValueOrder::RealPart,
                _ => ValueOrder::Magnitude,
            };
            (default, ValueOrder::RealPart)
        }
        SharedAnswer::Scaled(_) if mixture => (ValueOrder::RealPart, ValueOrder::Magnitude),
        SharedAnswer::Scaled(_) => (ValueOrder::Magnitude, ValueOrder::Magnitude),
        SharedAnswer::Log(_) | SharedAnswer::Ranks(_) => return None,
    };
    Some(entry.value_order.unwrap_or(default)).filter(|&order| order != walk)
}

/// Ranks `answer`'s values by `order`, which is not their walk key (see
/// [`value_order`]) — all of them, or the prefix its consumer visited —
/// materialising the best `k`. `None` when a key is NaN.
fn rank_by_order(
    answer: &SharedAnswer,
    order: ValueOrder,
    visit: &Visit,
    k: usize,
) -> Option<Ranking> {
    let prefix = match visit {
        Visit::All => None,
        Visit::Prefix(ids) => Some(&ids[..]),
        Visit::Stream(_) => unreachable!("only walk keys are streamed"),
    };
    match answer {
        SharedAnswer::Complex(vals) => {
            Ranking::select(vals.len(), prefix, k, |i| order.key(vals[i]))
        }
        // Scaled values rank by magnitude as their walk key, so this is the
        // real part.
        SharedAnswer::Scaled(vals) => Some(Ranking::select_by(
            vals.len(),
            prefix,
            k,
            |i| vals[i].real_part_key(),
            |k| k.display(),
        )),
        SharedAnswer::Log(_) | SharedAnswer::Ranks(_) => {
            unreachable!("log keys and expected ranks rank by their walk key")
        }
    }
}

/// Ranks an `n`-tuple walk answer by `key(id)` from what its consumer
/// visited, materialising the best `k`: a stream is already sorted by
/// `key`, a prefix is ranked alone (see [`Ranking::select`]). `None` when
/// a ranked key is NaN.
fn rank_visited(visit: &Visit, n: usize, k: usize, key: impl Fn(usize) -> f64) -> Option<Ranking> {
    match visit {
        Visit::All => Ranking::select(n, None, k, key),
        Visit::Prefix(ids) => Ranking::select(n, Some(ids), k, key),
        Visit::Stream(stream) => Ranking::from_stream(stream, k, key),
    }
}

/// Whether a semantics is answered by the walk or directly.
fn route(semantics: &Semantics) -> BatchRoute {
    match semantics {
        Semantics::EScore | Semantics::UTop(_) | Semantics::URank(_) => BatchRoute::Single,
        _ => BatchRoute::Shared,
    }
}

/// The walk requests of a walk-routed entry, plus the DFT mixture weights
/// that sum them at finalize (`None` for every other algorithm).
fn walk_requests(
    entry: &RankQuery,
    algorithm: Algorithm,
) -> Result<(Vec<SharedRequest>, Option<Vec<Complex>>), QueryError> {
    let one = |req| Ok((vec![req], None));
    match (&entry.semantics, algorithm) {
        (Semantics::Prfe(alpha), Algorithm::ExactGf) => one(SharedRequest::PrfeComplex(*alpha)),
        // Validated real ∈ [0, 1] by `resolve_algorithm`.
        (Semantics::Prfe(alpha), Algorithm::LogDomain) => one(SharedRequest::PrfeLog(alpha.re)),
        (Semantics::Prfe(alpha), _) => one(SharedRequest::PrfeScaled(*alpha)),
        (Semantics::ERank, _) => one(SharedRequest::ExpectedRanks),
        (sem, Algorithm::DftApprox(cfg)) => {
            let omega = sem.weight().expect("validated: weight-based semantics");
            let mix = dft_mixture(&*omega, &cfg)?;
            let requests = mix
                .terms
                .iter()
                .map(|&(_, alpha)| SharedRequest::PrfeScaled(alpha))
                .collect();
            Ok((requests, Some(mix.terms.iter().map(|&(u, _)| u).collect())))
        }
        (sem, _) => one(SharedRequest::Weight(
            sem.weight().expect("validated: weight-based semantics"),
        )),
    }
}

/// The PRFe mixture approximating a truncated rank-only `ω` (Section 5.1).
fn dft_mixture(
    omega: &(dyn WeightFunction + Send + Sync),
    cfg: &DftApproxConfig,
) -> Result<ExpMixture, QueryError> {
    let h = omega.truncation().expect("validated: truncated weight");
    if cfg.terms == 0 {
        return Err(QueryError::InvalidParameter(
            "DftApprox needs at least one mixture term".to_string(),
        ));
    }
    // The mixture can only represent *rank-only* weights. Probe ω with two
    // distinct tuples and reject tuple-dependent weight functions instead
    // of silently tabulating through one representative (which would zero
    // out e.g. a score-proportional ω).
    let probe_a = prf_pdb::Tuple {
        id: TupleId(0),
        score: 0.0,
        prob: 1.0,
    };
    let probe_b = prf_pdb::Tuple {
        id: TupleId(1),
        score: 1.0,
        prob: 0.5,
    };
    if (1..=h).any(|i| omega.weight(&probe_a, i) != omega.weight(&probe_b, i)) {
        return Err(QueryError::InvalidParameter(format!(
            "DftApprox requires a rank-only weight function; {} depends on the tuple",
            omega.name()
        )));
    }
    let tab: Vec<f64> = tabulate(omega, h).iter().map(|w| w.re).collect();
    if tab.iter().any(|w| !w.is_finite()) {
        return Err(QueryError::InvalidParameter(format!(
            "DftApprox cannot fit {}: it takes a non-finite value",
            omega.name()
        )));
    }
    Ok(approximate_weights(
        &|i| tab.get(i).copied().unwrap_or(0.0),
        h,
        cfg,
    ))
}

/// The error of a walk that returned `None`: cancelled, or a request this
/// backend has no exact algorithm for.
fn walk_failure(entry: &RankQuery, backend: CorrelationClass) -> QueryError {
    if entry.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        QueryError::TimedOut
    } else {
        QueryError::Unsupported {
            semantics: entry.semantics.family(),
            backend,
        }
    }
}

/// Runs `f`, converting a panic into [`QueryError::Internal`] when
/// `isolate` is set (and letting it unwind otherwise).
fn guarded<T>(isolate: bool, f: impl FnOnce() -> Result<T, QueryError>) -> Result<T, QueryError> {
    if !isolate {
        return f();
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(QueryError::Internal {
            reason: panic_reason(payload.as_ref()),
        })
    })
}

/// Single-request views of a relation's walk, for unit tests that compare
/// one kernel answer against an oracle.
#[cfg(test)]
pub(crate) mod probe {
    use super::*;

    fn one(rel: &(impl ProbabilisticRelation + ?Sized), req: SharedRequest) -> SharedAnswer {
        let spec = SharedWalkSpec {
            requests: vec![req],
            threads: None,
            cancel: None,
        };
        rel.run_shared_walk_prepared(&spec, &PreparedState::empty())
            .expect("the walk answers")
            .answers
            .remove(0)
    }

    /// Υ values of a weight request.
    pub(crate) fn prf(
        rel: &(impl ProbabilisticRelation + ?Sized),
        omega: impl WeightFunction + Send + Sync + 'static,
    ) -> Vec<Complex> {
        match one(rel, SharedRequest::Weight(Arc::new(omega))) {
            SharedAnswer::Complex(v) => v,
            other => panic!("weight request answered {other:?}"),
        }
    }

    /// Plain-complex PRFe(α) values.
    pub(crate) fn prfe(
        rel: &(impl ProbabilisticRelation + ?Sized),
        alpha: Complex,
    ) -> Vec<Complex> {
        match one(rel, SharedRequest::PrfeComplex(alpha)) {
            SharedAnswer::Complex(v) => v,
            other => panic!("PRFe request answered {other:?}"),
        }
    }

    /// Log-domain PRFe(α) keys.
    pub(crate) fn log_keys(rel: &(impl ProbabilisticRelation + ?Sized), alpha: f64) -> Vec<f64> {
        match one(rel, SharedRequest::PrfeLog(alpha)) {
            SharedAnswer::Log(v) => v,
            other => panic!("log request answered {other:?}"),
        }
    }

    /// Expected ranks.
    pub(crate) fn ranks(rel: &(impl ProbabilisticRelation + ?Sized)) -> Vec<f64> {
        match one(rel, SharedRequest::ExpectedRanks) {
            SharedAnswer::Ranks(v) => v,
            other => panic!("E-Rank request answered {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TabulatedWeight;
    use prf_pdb::{AndXorTree, IndependentDb};

    fn db() -> IndependentDb {
        IndependentDb::from_pairs([
            (10.0, 0.4),
            (9.0, 0.45),
            (8.0, 0.8),
            (7.0, 0.95),
            (6.0, 0.3),
            (5.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn empty_batch_is_an_error() {
        assert_eq!(
            QueryBatch::new().run(&db()).unwrap_err(),
            QueryError::EmptyBatch
        );
        assert_eq!(
            QueryBatch::new().compile(&db()).unwrap_err(),
            QueryError::EmptyBatch
        );
    }

    #[test]
    fn plan_routes_shared_and_single() {
        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::Prfe(Complex::real(0.9)))
            .add(Semantics::ERank)
            .add(Semantics::EScore)
            .add(Semantics::UTop(2))
            .add(Semantics::URank(2));
        let plan = batch.compile(&db()).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.route(0), BatchRoute::Shared);
        assert_eq!(plan.route(1), BatchRoute::Shared);
        assert_eq!(plan.route(2), BatchRoute::Shared);
        assert_eq!(plan.route(3), BatchRoute::Single);
        assert_eq!(plan.route(4), BatchRoute::Single);
        assert_eq!(plan.route(5), BatchRoute::Single);
        assert_eq!(plan.shared_consumers(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn batch_matches_single_queries_on_independent() {
        let db = db();
        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::Pt(4))
            .add_query(RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5])))
            .add_query(RankQuery::prfe(0.8))
            .add(Semantics::ERank)
            .add(Semantics::EScore);
        let results = batch.run(&db).unwrap();
        let singles = [
            RankQuery::pt(2),
            RankQuery::pt(4),
            RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5])),
            RankQuery::prfe(0.8),
            RankQuery::erank(),
            RankQuery::escore(),
        ];
        for (got, q) in results.iter().zip(&singles) {
            let want = q.run(&db).unwrap();
            assert_eq!(
                got.ranking.order(),
                want.ranking.order(),
                "{}",
                want.report.semantics
            );
            if let (Some(g), Some(w)) = (got.values.as_complex(), want.values.as_complex()) {
                assert_eq!(g, w, "{}", want.report.semantics);
            }
        }
        // Shared entries carry cost attribution; Single entries do not.
        assert!(results[0].report.batch.is_some());
        assert_eq!(results[0].report.batch.unwrap().consumers, 5);
        assert!(results[5].report.batch.is_none());
    }

    #[test]
    fn batch_matches_single_queries_on_trees() {
        use prf_pdb::{NodeKind, TreeBuilder};
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let a = b.add_inner(root, NodeKind::And, 0.6).unwrap();
        b.add_leaf(a, 1.0, 10.0).unwrap();
        b.add_leaf(a, 1.0, 9.0).unwrap();
        b.add_leaf(root, 0.4, 8.0).unwrap();
        let tree = b.build().unwrap();

        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::ExactGf))
            .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::Scaled))
            .add(Semantics::ERank);
        let results = batch.run(&tree).unwrap();
        let pt = RankQuery::pt(2).run(&tree).unwrap();
        assert_eq!(
            results[0].values.as_complex().unwrap(),
            pt.values.as_complex().unwrap()
        );
        let prfe = RankQuery::prfe(0.7)
            .algorithm(Algorithm::ExactGf)
            .run(&tree)
            .unwrap();
        for (g, w) in results[1]
            .values
            .as_complex()
            .unwrap()
            .iter()
            .zip(prfe.values.as_complex().unwrap())
        {
            assert!(g.approx_eq(*w, 1e-12));
        }
        let er = RankQuery::erank().run(&tree).unwrap();
        assert_eq!(results[3].ranking.order(), er.ranking.order());
        // The tree walk reports evaluator memory.
        assert!(results[0].report.memory.is_some());
    }

    #[test]
    fn batch_top_k_defaults_and_overrides() {
        let db = db();
        let results = QueryBatch::new()
            .add(Semantics::Pt(3))
            .add_query(RankQuery::prfe(0.9).top_k(1))
            .top_k(2)
            .run(&db)
            .unwrap();
        assert_eq!(results[0].ranking.len(), 2); // batch default
        assert_eq!(results[1].ranking.len(), 1); // entry override wins
        assert_eq!(results[0].report.truncated_to, Some(2));
        assert_eq!(results[1].report.truncated_to, Some(1));
    }

    #[test]
    fn run_isolated_isolates_bad_entries() {
        let db = db();
        let results = QueryBatch::new()
            .add(Semantics::Pt(2))
            // Incompatible: PT has no log-domain algorithm.
            .add_query(RankQuery::pt(2).algorithm(Algorithm::LogDomain))
            .add_query(RankQuery::prfe(0.9))
            // Fails at evaluation time: k > n has no set answer.
            .add(Semantics::UTop(99))
            .run_isolated(&db);
        assert_eq!(results.len(), 4);
        assert!(matches!(
            results[1],
            Err(QueryError::IncompatibleAlgorithm { .. })
        ));
        assert!(matches!(results[3], Err(QueryError::NoSetAnswer)));
        // The good entries still share the walk and match their single
        // queries exactly.
        let pt = RankQuery::pt(2).run(&db).unwrap();
        let prfe = RankQuery::prfe(0.9).run(&db).unwrap();
        let got_pt = results[0].as_ref().unwrap();
        let got_prfe = results[2].as_ref().unwrap();
        assert_eq!(got_pt.values.as_complex(), pt.values.as_complex());
        assert_eq!(got_prfe.ranking.order(), prfe.ranking.order());
        assert_eq!(got_pt.report.batch.unwrap().consumers, 2);
        // An empty batch has no entry to report an error through.
        assert!(QueryBatch::new().run_isolated(&db).is_empty());
    }

    #[test]
    fn parallel_finalize_matches_serial() {
        // Large enough that `parallel(2)` clears the per-worker floor, so
        // the shared entries' finalization actually fans out over scoped
        // threads — the results must be bit-identical to the serial
        // batch (same assembly code on the same walk answers).
        let n = 2 * crate::parallel::PARALLEL_MIN_SHARD_TUPLES;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let db = IndependentDb::from_pairs((0..n).map(|i| ((n - i) as f64, 0.05 + 0.9 * next())))
            .unwrap();
        assert_eq!(
            crate::parallel::effective_walk_threads(n, Some(2)),
            2,
            "gate must open at this size or the test exercises nothing"
        );
        let entries = || {
            vec![
                RankQuery::pt(3),
                RankQuery::prfe(0.9).algorithm(Algorithm::LogDomain),
                RankQuery::erank(),
            ]
        };
        let parallel = QueryBatch::new()
            .add_queries(entries())
            .parallel(2)
            .run(&db)
            .unwrap();
        let serial = QueryBatch::new().add_queries(entries()).run(&db).unwrap();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(
                p.ranking.order(),
                s.ranking.order(),
                "{}",
                s.report.semantics
            );
            for pos in 0..p.ranking.len() {
                assert_eq!(p.ranking.key_at(pos), s.ranking.key_at(pos));
            }
            assert_eq!(p.values.len(), s.values.len());
        }
    }

    #[test]
    fn batch_top_k_pushdown_agrees_with_full_rankings() {
        // Every entry requests top_k, so each shared ranking is built by
        // partial selection — the result must be identical to the full
        // ranking truncated afterwards, across every answer shape.
        let db = db();
        let tree = AndXorTree::from_independent(&db);
        let entries = || {
            vec![
                RankQuery::pt(3),
                RankQuery::prfe(0.8).algorithm(Algorithm::ExactGf),
                RankQuery::prfe(0.8).algorithm(Algorithm::Scaled),
                RankQuery::erank(),
            ]
        };
        for k in [1usize, 2, 4, 100] {
            let pushed = QueryBatch::new()
                .add_queries(entries())
                .top_k(k)
                .run(&db)
                .unwrap();
            let full = QueryBatch::new().add_queries(entries()).run(&db).unwrap();
            for (p, f) in pushed.iter().zip(&full) {
                let mut truncated = f.ranking.clone();
                truncated.truncate(k);
                assert_eq!(p.ranking.order(), truncated.order(), "k={k}");
                for pos in 0..p.ranking.len() {
                    assert_eq!(p.ranking.key_at(pos), truncated.key_at(pos), "k={k}");
                }
                assert_eq!(p.values.len(), db.len(), "values stay complete");
            }
            // Log-domain PRFe only routes shared on the independent
            // backend; trees cover the Complex/Scaled/Ranks shapes.
            let pushed = QueryBatch::new()
                .add_queries(entries())
                .top_k(k)
                .run(&tree)
                .unwrap();
            let full = QueryBatch::new().add_queries(entries()).run(&tree).unwrap();
            for (p, f) in pushed.iter().zip(&full) {
                let mut truncated = f.ranking.clone();
                truncated.truncate(k);
                assert_eq!(p.ranking.order(), truncated.order(), "tree k={k}");
            }
        }
        // Log-domain answer shape on the independent fast path.
        let pushed = QueryBatch::new()
            .add_query(
                RankQuery::prfe(0.7)
                    .algorithm(Algorithm::LogDomain)
                    .top_k(2),
            )
            .run(&db)
            .unwrap();
        let single = RankQuery::prfe(0.7)
            .algorithm(Algorithm::LogDomain)
            .run(&db)
            .unwrap();
        assert_eq!(pushed[0].ranking.order(), &single.ranking.order()[..2]);
    }

    #[test]
    fn capped_walks_scan_a_prefix_of_iip() {
        // The IIP shape: a few high-probability top scorers settle a
        // top-100 answer long before the order runs out.
        let db = prf_datasets::iip_db(100_000, 1);
        let n = db.len();
        let scanned = |q: RankQuery| q.run(&db).unwrap().report.tuples_scanned.unwrap();
        let pt = scanned(RankQuery::pt(100).top_k(100));
        let prfe = scanned(RankQuery::prfe(0.95).top_k(100));
        let erank = scanned(RankQuery::erank().top_k(100));
        assert!(pt < 1_000, "PT(100) top-100 scanned {pt}");
        assert!(prfe < 1_000, "PRFe(.95) top-100 scanned {prfe}");
        assert!(erank < n, "E-Rank top-100 scanned {erank}");
        assert_eq!(
            scanned(RankQuery::pt(100)),
            n,
            "an uncapped query scans all"
        );
        assert_eq!(
            RankQuery::escore().run(&db).unwrap().report.tuples_scanned,
            None
        );
    }

    #[test]
    fn incompatible_entry_fails_the_whole_batch() {
        let err = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add_query(RankQuery::pt(2).algorithm(Algorithm::LogDomain))
            .run(&db())
            .unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleAlgorithm { .. }));
    }

    #[test]
    fn auto_resolution_matches_single_queries() {
        let tree = AndXorTree::from_independent(&db());
        let batch = QueryBatch::new()
            .add(Semantics::Prfe(Complex::real(0.5)))
            .add(Semantics::Pt(3));
        let plan = batch.compile(&tree).unwrap();
        for (i, q) in batch.queries().iter().enumerate() {
            assert_eq!(plan.algorithm(i), q.resolve_algorithm(&tree).unwrap());
        }
    }
}
