//! The unified ranking query engine: **one entry point for every
//! semantics, backend, and numeric mode**.
//!
//! The paper's central claim is that PT(h), U-Rank, E-Score, E-Rank,
//! consensus top-k and friends are all instances of one parameterized
//! ranking function. This module makes the code embody that unification:
//! a [`RankQuery`] pairs a [`Semantics`] with an [`Algorithm`] and runs
//! against any [`ProbabilisticRelation`] backend — tuple-independent
//! relations, probabilistic and/xor trees, or (via `prf-graphical`'s
//! adapter) junction-tree-correlated relations.
//!
//! ```
//! use prf_core::query::{Algorithm, RankQuery, Semantics};
//! use prf_pdb::IndependentDb;
//!
//! let db = IndependentDb::from_pairs([(100.0, 0.5), (50.0, 1.0), (80.0, 0.8)])?;
//!
//! // PT(2): rank by the probability of making the top 2.
//! let pt = RankQuery::pt(2).run(&db)?;
//! assert_eq!(pt.ranking.len(), 3);
//!
//! // PRFe(0.9), letting the engine pick the numeric mode.
//! let prfe = RankQuery::prfe(0.9).algorithm(Algorithm::Auto).run(&db)?;
//! assert_eq!(prfe.report.algorithm, Algorithm::ExactGf); // small n → exact
//!
//! // The same query object is reusable across backends.
//! let q = RankQuery::new(Semantics::ERank);
//! let tree = prf_pdb::AndXorTree::from_independent(&db);
//! assert_eq!(q.run(&db)?.ranking.order(), q.run(&tree)?.ranking.order());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Semantics × algorithm compatibility
//!
//! | semantics | `ExactGf` | `LogDomain` | `Scaled` | `DftApprox` |
//! |---|---|---|---|---|
//! | `Prf(ω)` | ✓ | — | — | ✓ (rank-only ω with a truncation) |
//! | `Prfe(α)` | ✓ | ✓ (real α ∈ [0, 1]) | ✓ | — |
//! | `Pt(h)` / `Consensus(k)` | ✓ | — | — | ✓ |
//! | `UTop(k)` / `URank(k)` / `ERank` / `EScore` | ✓ | — | — | — |
//!
//! Incompatible pairs return [`QueryError::IncompatibleAlgorithm`] rather
//! than silently degrading (`DftApprox` additionally rejects
//! *tuple-dependent* weight functions, which a PRFe mixture cannot
//! represent); [`Algorithm::Auto`] (the default) always picks a compatible
//! member, and for PRFe keeps the plain-complex exact route only while the
//! walk provably stays clear of `f64` underflow (an α-aware threshold
//! `≈ 620/(−ln α)`, capped at 4096) before switching to the
//! underflow-free log-domain/scaled routes.

use std::sync::Arc;
use std::time::Instant;

use prf_numeric::{Complex, Scaled};
use prf_pdb::TupleId;

use crate::incremental::GfStats;
use crate::mixture::DftApproxConfig;
use crate::topk::{Ranking, ValueOrder};
use crate::weights::{StepWeight, WeightFunction};

pub mod batch;
pub(crate) mod cut;
pub mod kernels;
mod key;
mod prepared;
mod relation;

pub use batch::{BatchCost, BatchPlan, BatchRoute, QueryBatch};
pub use cut::TopkCarry;
pub use key::QueryKey;
pub use prepared::{PreparedRelation, PreparedState};
pub use relation::{CorrelationClass, PresenceGf, ProbabilisticRelation};

/// Fallback ceiling of [`auto_prfe_exact_max`] for complex or edge-case α
/// (`α ∉ (0, 1)`), where the per-tuple magnitude decay has no simple
/// closed form — the pre-profiling hand-set value, kept as the
/// conservative legacy bound.
const AUTO_PRFE_EXACT_MAX: usize = 1024;
/// Ceiling of [`auto_prfe_exact_max`] for well-conditioned α: past this
/// size the log-domain/scaled routes are just as fast, so there is nothing
/// to win by staying in plain complex arithmetic.
const AUTO_PRFE_EXACT_CAP: usize = 4096;
/// Magnitude budget (in nats) of the plain-complex PRFe walk: the walk's
/// running generating-function values decay at worst like `αᵏ`, and
/// `e^(−620) ≈ 10^(−269)` keeps them ~35 decades above `f64`'s subnormal
/// cliff (`≈ 4.9·10^(−324)`) where ranking keys lose all precision.
const AUTO_PRFE_LN_BUDGET: f64 = 620.0;

/// Largest `n` for which `Auto` keeps PRFe(α) in plain complex
/// arithmetic, α-aware: `min(4096, 620 / (−ln α))` for real `α ∈ (0, 1)`,
/// the legacy 1024 otherwise.
///
/// Profiled with the `live` experiment scenario (`cargo run --release -p
/// prf-bench --bin experiments -- live`), which finds the smallest `n*`
/// where the plain-complex ranking actually diverges from scaled ground
/// truth. Measured `n*` tracks `Θ(1/(−ln α))` and sits a 2.5–6× factor
/// above this bound (α = 0.01: bound 134, measured n* = 847; α = 0.1:
/// 269 vs 1015; α = 0.5: 894 vs 2473; α = 0.9: capped 4096 vs 14744) —
/// so the bound switches to the underflow-free routes well before
/// precision is lost, never after. The old hand-set threshold (1024) was
/// *unsafe* for α ≤ 0.05 (measured divergence at n* = 847 and 882, below
/// 1024) and needlessly conservative for α near 1.
fn auto_prfe_exact_max(alpha: Complex) -> usize {
    if alpha.im != 0.0 || !(alpha.re > 0.0 && alpha.re < 1.0) {
        return AUTO_PRFE_EXACT_MAX;
    }
    let bound = AUTO_PRFE_LN_BUDGET / -alpha.re.ln();
    (bound as usize).clamp(1, AUTO_PRFE_EXACT_CAP)
}
/// `Auto` switches PT(h)/Consensus(k) on *general* trees to the DFT
/// mixture approximation beyond this size. With the incremental engine the
/// old `O(n²·h)` wall is gone — both paths are near-linear in `n` (exact
/// pays one extra `log` factor) — so the floor only keeps small relations
/// exact unconditionally; it was raised from 2048 when incremental exact
/// evaluation landed.
const AUTO_DFT_MIN_N: usize = 4096;
/// …and this truncation depth. Measured on the incremental engine
/// (`cargo bench -p prf-bench --bench trees`, group `pt_exact_vs_dft_10k`,
/// Syn-MED n = 10⁴, 2026-07-30): exact 206 ms vs 40-term mixture 342 ms at
/// h = 128, 363 ms vs 354 ms at h = 256, 496 ms vs 343 ms at h = 512 — the
/// mixture's cost is h-independent while exact grows ~h², crossing at
/// h ≈ 256 (and slightly later for larger n). The previous hand-set value
/// (64) pre-dated the engine, when exact was `O(n²·h)`.
const AUTO_DFT_MIN_H: usize = 256;
/// Mixture size `Auto` uses for the DFT approximation.
const AUTO_DFT_TERMS: usize = 40;

/// A ranking semantics — every entry of the paper's taxonomy, expressed
/// through the PRF framework wherever the paper shows it is an instance.
#[derive(Clone)]
pub enum Semantics {
    /// PRFω with an arbitrary weight function `ω(t, i)` (Definition 3).
    Prf(Arc<dyn WeightFunction + Send + Sync>),
    /// PRFe(α): `ω(i) = αⁱ` with real or complex `α` (Section 4.3).
    Prfe(Complex),
    /// PT(h) / Global-Top-k: `ω(i) = δ(i ≤ h)` (Hua et al.).
    Pt(usize),
    /// U-Top: the most probable top-k *set* (Soliman et al.) — the one
    /// semantics outside the PRF family, kept for completeness.
    UTop(usize),
    /// U-Rank with distinct tuples: position `j`'s winner maximises
    /// `Pr(r(t) = j)` — PRF with `ω(i) = δ(i = j)` per position.
    URank(usize),
    /// Expected ranks (Cormode et al.), lower is better; ranked by `−er`.
    ERank,
    /// Expected score `p(t)·score(t)` — PRF with `ω(t, i) = score(t)`.
    EScore,
    /// Consensus top-k under symmetric difference ≡ PT(k) (Theorem 2).
    /// For the *weighted* symmetric difference use [`Semantics::Prf`] with
    /// a [`crate::weights::TabulatedWeight`] (Theorem 3).
    Consensus(usize),
}

impl Semantics {
    /// A short human-readable name (echoed in [`EvalReport`]).
    pub fn name(&self) -> String {
        match self {
            Semantics::Prf(w) => format!("PRFω[{}]", w.name()),
            Semantics::Prfe(a) => format!("PRFe({a})"),
            Semantics::Pt(h) => format!("PT({h})"),
            Semantics::UTop(k) => format!("U-Top({k})"),
            Semantics::URank(k) => format!("U-Rank({k})"),
            Semantics::ERank => "E-Rank".into(),
            Semantics::EScore => "E-Score".into(),
            Semantics::Consensus(k) => format!("Consensus({k})"),
        }
    }

    /// The semantics family without parameters — the static name an
    /// [`QueryError::Unsupported`] reports.
    fn family(&self) -> &'static str {
        match self {
            Semantics::Prf(_) => "PRFω",
            Semantics::Prfe(_) => "PRFe",
            Semantics::Pt(_) => "PT",
            Semantics::UTop(_) => "U-Top",
            Semantics::URank(_) => "U-Rank",
            Semantics::ERank => "E-Rank",
            Semantics::EScore => "E-Score",
            Semantics::Consensus(_) => "Consensus",
        }
    }

    /// The effective weight function for the weight-based semantics
    /// (`Prf`, `Pt`, `Consensus`), `None` otherwise.
    fn weight(&self) -> Option<Arc<dyn WeightFunction + Send + Sync>> {
        match self {
            Semantics::Prf(w) => Some(w.clone()),
            Semantics::Pt(h) => Some(Arc::new(StepWeight { h: *h })),
            Semantics::Consensus(k) => Some(Arc::new(StepWeight { h: *k })),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Semantics({})", self.name())
    }
}

/// Evaluation strategy selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// Let the engine choose, keyed on `n`, the backend's correlation
    /// class, and (for PRFe) α — plain-complex exact only while `n` is
    /// under the α-aware underflow threshold (`≈ 620/(−ln α)`, capped at
    /// 4096), the log-domain/scaled routes beyond it.
    Auto,
    /// The exact generating-function algorithms in plain complex
    /// arithmetic (Algorithms 1–3 of the paper).
    ExactGf,
    /// Log-space `f64` evaluation — the cheapest underflow-free mode;
    /// PRFe with real `α ∈ [0, 1]` only.
    LogDomain,
    /// Scaled-complex arithmetic (mantissa + chunked exponent): exact
    /// ranking keys at any scale, PRFe with any α.
    Scaled,
    /// Approximate a truncated rank-only weight function by a mixture of
    /// PRFe terms via the refined DFT pipeline (Section 5.1), then rank by
    /// the mixture's real part in scaled arithmetic.
    DftApprox(DftApproxConfig),
}

impl Algorithm {
    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::ExactGf => "exact-gf",
            Algorithm::LogDomain => "log-domain",
            Algorithm::Scaled => "scaled",
            Algorithm::DftApprox(_) => "dft-approx",
        }
    }
}

/// The numeric mode a query was evaluated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericMode {
    /// Plain complex (`f64` pairs).
    Complex,
    /// `ln Υ` keys in plain `f64`.
    LogDomain,
    /// Scaled-complex (mantissa + chunked exponent).
    Scaled,
}

/// Per-tuple Υ-like values in the numeric mode the engine evaluated in,
/// indexed by tuple id.
#[derive(Clone, Debug)]
pub enum Values {
    /// Plain complex Υ values. For `ERank` these hold `−er(t)` (so higher
    /// is better, like every other semantics); for `URank`/`UTop` they hold
    /// the winning positional probability / set membership indicator.
    Complex(Vec<Complex>),
    /// `ln Υ` keys (`-∞` where `Υ = 0`).
    LogDomain(Vec<f64>),
    /// Scaled complex Υ values.
    Scaled(Vec<Scaled<Complex>>),
}

impl Values {
    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        match self {
            Values::Complex(v) => v.len(),
            Values::LogDomain(v) => v.len(),
            Values::Scaled(v) => v.len(),
        }
    }

    /// `true` when the relation was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The numeric mode of these values.
    pub fn numeric_mode(&self) -> NumericMode {
        match self {
            Values::Complex(_) => NumericMode::Complex,
            Values::LogDomain(_) => NumericMode::LogDomain,
            Values::Scaled(_) => NumericMode::Scaled,
        }
    }

    /// The plain complex values, when evaluated in that mode.
    pub fn as_complex(&self) -> Option<&[Complex]> {
        match self {
            Values::Complex(v) => Some(v),
            _ => None,
        }
    }

    /// The log-domain keys, when evaluated in that mode.
    pub fn as_log(&self) -> Option<&[f64]> {
        match self {
            Values::LogDomain(v) => Some(v),
            _ => None,
        }
    }

    /// The scaled values, when evaluated in that mode.
    pub fn as_scaled(&self) -> Option<&[Scaled<Complex>]> {
        match self {
            Values::Scaled(v) => Some(v),
            _ => None,
        }
    }
}

/// A set-semantics answer (U-Top): the members (score-descending) and the
/// natural log of the set's probability of being the exact top-k.
#[derive(Clone, Debug)]
pub struct TopSet {
    /// The chosen tuples, best (highest-scored) first.
    pub members: Vec<TupleId>,
    /// `ln Pr(members is the exact top-k)`.
    pub log_prob: f64,
}

/// What fired a serving-layer batch flush — recorded by `prf-serve`'s
/// `RankServer` in [`ServeCost`] so every answer carries its scheduling
/// provenance. A relation waits its deadline for company unless its
/// previous flush carried a single submission; then it flushes at once
/// ([`FlushTrigger::Idle`]) until a flush carries two or more again. The
/// rule has no configuration option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The oldest pending query reached the configured deadline (a zero
    /// deadline flushes on the first wake-up after every submission).
    Deadline,
    /// The pending queue reached the configured maximum batch size.
    SizeLimit,
    /// The server was shut down and drained its in-flight queries.
    Shutdown,
    /// The relation's previous flush carried a single submission, so the
    /// server flushed at once instead of holding the queue for a deadline
    /// that gathered no company last time (work-conserving group commit:
    /// queries that arrive while this flush runs still coalesce into the
    /// next one). Displayed as `idle`.
    Idle,
}

impl std::fmt::Display for FlushTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlushTrigger::Deadline => "deadline",
            FlushTrigger::SizeLimit => "size-limit",
            FlushTrigger::Shutdown => "shutdown",
            FlushTrigger::Idle => "idle",
        })
    }
}

/// Serving-layer provenance recorded in a query's [`EvalReport`] by
/// `prf-serve`: how long the query waited in the server's pending queue,
/// what fired the flush that answered it, how many queries that flush
/// carried, and the admission-control counters of the relation's queue.
/// `None` for queries that did not go through a `RankServer`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeCost {
    /// Seconds between submission and the start of the flush that served
    /// this query.
    pub queue_seconds: f64,
    /// What fired the flush.
    pub trigger: FlushTrigger,
    /// Number of queries in the flush (all relations' entries that were
    /// compiled into the same [`QueryBatch`]).
    pub flush_size: usize,
    /// Depth of the relation's pending queue at the moment this query was
    /// admitted (including the query itself) — the backpressure signal.
    pub queue_depth: usize,
    /// Cumulative count of submissions **shed** from this relation's
    /// bounded queue ([`QueryError::Overloaded`]) up to the flush that
    /// served this query.
    pub shed: u64,
    /// `true` when this answer was served from the relation's result cache
    /// (same [`QueryKey`], same relation generation) instead of joining
    /// the flush's shared walk — the timing fields of the surrounding
    /// [`EvalReport`] then describe the evaluation that *populated* the
    /// cache, not this delivery.
    pub served_from_cache: bool,
}

/// What the engine actually did: echoed parameters, resolved choices, and
/// wall-clock timings.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Human-readable semantics name.
    pub semantics: String,
    /// The backend's correlation class.
    pub backend: CorrelationClass,
    /// The algorithm that ran — never [`Algorithm::Auto`].
    pub algorithm: Algorithm,
    /// `true` when [`Algorithm::Auto`] made the choice.
    pub auto_selected: bool,
    /// The numeric mode of the result values.
    pub numeric_mode: NumericMode,
    /// Seconds spent in the backend's evaluation kernels (value
    /// computation only — ranking construction and bookkeeping excluded).
    pub kernel_seconds: f64,
    /// Seconds for the whole query (kernels + ranking + bookkeeping).
    pub total_seconds: f64,
    /// The ranking was truncated to this many entries, if requested.
    pub truncated_to: Option<usize>,
    /// Worker threads requested for parallel-capable kernels.
    pub threads: Option<usize>,
    /// Memory accounting of the incremental generating-function evaluator
    /// — `Some` when the kernels ran it (exact PRFω/PRFe on and/xor
    /// trees), `None` for closed-form and non-tree kernels.
    pub memory: Option<GfStats>,
    /// Walk cost attribution — `Some` when this query was answered by a
    /// score-order walk (its `kernel_seconds` is then the amortized share;
    /// a single query reports `consumers: 1`), `None` for the direct
    /// routes (E-Score, U-Top and U-Rank).
    pub batch: Option<BatchCost>,
    /// Score-order positions the walk evaluated for this answer: `n` for a
    /// full walk, the visited prefix's length when a `top_k` query stopped
    /// early (see [`ProbabilisticRelation::run_shared_walk`]), `None`
    /// for the direct routes.
    pub tuples_scanned: Option<usize>,
    /// Serving-layer provenance — `Some` when this query was answered by a
    /// `prf-serve` `RankServer` flush (queue wait + flush trigger), `None`
    /// for queries run directly.
    pub serve: Option<ServeCost>,
}

/// The answer of a [`RankQuery`]: per-tuple values, the induced ranking,
/// the set answer for set semantics, and an evaluation report.
#[derive(Clone, Debug)]
pub struct RankedResult {
    /// Per-tuple Υ-like values (indexed by tuple id) in the numeric mode
    /// the engine chose, always one per tuple. A `top_k` query whose walk
    /// stopped early ([`EvalReport::tuples_scanned`] `< n`) holds exact
    /// values on the visited score-order prefix and the worst value beyond
    /// it: `0`, `−∞` log keys, or `−∞` for E-Rank's `−er`. The stop point
    /// depends only on the relation and the query, so a query gets the
    /// same values alone, in a batch, prepared or served.
    pub values: Values,
    /// The ranking, best first (truncated when `top_k` was requested).
    pub ranking: Ranking,
    /// The set answer — `Some` only for [`Semantics::UTop`].
    pub set: Option<TopSet>,
    /// What ran, in which mode, and how long it took.
    pub report: EvalReport,
}

/// Everything that can go wrong building or running a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The semantics has no exact algorithm on this backend.
    Unsupported {
        /// The semantics that was requested.
        semantics: &'static str,
        /// The backend it was requested on.
        backend: CorrelationClass,
    },
    /// The explicitly selected algorithm cannot evaluate this semantics.
    IncompatibleAlgorithm {
        /// The semantics name.
        semantics: String,
        /// The algorithm name.
        algorithm: &'static str,
    },
    /// A parameter is outside the algorithm's domain (e.g. log-domain
    /// PRFe with complex or out-of-range α).
    InvalidParameter(String),
    /// A set query (U-Top) has no answer: `k` exceeds the relation or no
    /// set has positive probability.
    NoSetAnswer,
    /// A [`QueryBatch`] was run with no entries.
    EmptyBatch,
    /// The query was submitted to (or still pending on) a `prf-serve`
    /// `RankServer` that shut down before it could be evaluated.
    Shutdown,
    /// The query was **shed** by a `prf-serve` `RankServer` under admission
    /// control: the target relation's bounded pending queue was full, and
    /// the submission reported overload instead of growing the queue.
    Overloaded,
    /// The query's deadline expired (or its [`CancelToken`] was tripped)
    /// before evaluation finished: enforced without evaluation at a
    /// `prf-serve` flush dequeue, and cooperatively mid-walk inside the
    /// shared-walk kernels.
    TimedOut,
    /// The evaluation **panicked** (or the serving layer hit an otherwise
    /// impossible state). A `prf-serve` `RankServer` catches the panic,
    /// delivers this error to the one affected handle, and keeps serving —
    /// the panic never takes down the worker pool or poisons shared state.
    Internal {
        /// Best-effort panic payload / diagnostic description.
        reason: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unsupported { semantics, backend } => {
                write!(
                    f,
                    "{semantics} has no exact algorithm on a {backend} backend"
                )
            }
            QueryError::IncompatibleAlgorithm {
                semantics,
                algorithm,
            } => write!(f, "algorithm '{algorithm}' cannot evaluate {semantics}"),
            QueryError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            QueryError::NoSetAnswer => {
                write!(f, "no set has positive probability of being the top-k")
            }
            QueryError::EmptyBatch => write!(f, "a query batch must contain at least one query"),
            QueryError::Shutdown => {
                write!(
                    f,
                    "the rank server shut down before the query was evaluated"
                )
            }
            QueryError::Overloaded => {
                write!(
                    f,
                    "the relation's pending queue is full; the query was shed"
                )
            }
            QueryError::TimedOut => {
                write!(f, "the query's deadline expired before it was evaluated")
            }
            QueryError::Internal { reason } => {
                write!(f, "internal evaluation failure: {reason}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A cooperative cancellation token checked by the query engine between
/// evaluation steps.
///
/// Three things can trip a token: an explicit [`CancelToken::cancel`]
/// (e.g. `prf-serve` trips a query's token when its `ResponseHandle` is
/// dropped — nobody is left to read the answer), an attached **deadline**
/// (the token reads as cancelled once the instant passes), or — for the
/// composite form built by [`CancelToken::all_of`] — *every* member token
/// being cancelled. The composite form is what a [`QueryBatch`] hands to a
/// shared score-order walk: the walk serves many consumers at once, so it
/// only aborts when **all** of them have given up.
///
/// Cancellation is cooperative and best-effort: kernels poll the token
/// every few hundred steps, so a cancelled query stops *promptly*, not
/// *instantly*. A tripped token surfaces as [`QueryError::TimedOut`].
///
/// ```
/// use prf_core::query::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// // The composite form trips only when every member has.
/// let (a, b) = (CancelToken::new(), CancelToken::new());
/// let walk = CancelToken::all_of(vec![a.clone(), b.clone()]);
/// a.cancel();
/// assert!(!walk.is_cancelled());
/// b.cancel();
/// assert!(walk.is_cancelled());
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: std::sync::atomic::AtomicBool,
    deadline: Option<Instant>,
    all_of: Vec<CancelToken>,
}

impl CancelToken {
    /// A fresh token with no deadline; trips only via [`Self::cancel`].
    pub fn new() -> Self {
        Self::build(None, Vec::new())
    }

    /// A token that additionally reads as cancelled once `deadline`
    /// passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::build(Some(deadline), Vec::new())
    }

    /// A composite token that reads as cancelled only when **all**
    /// `members` are cancelled (or it is cancelled directly). An empty
    /// member list never trips on its members' account.
    pub fn all_of(members: Vec<CancelToken>) -> Self {
        Self::build(None, members)
    }

    fn build(deadline: Option<Instant>, all_of: Vec<CancelToken>) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: std::sync::atomic::AtomicBool::new(false),
                deadline,
                all_of,
            }),
        }
    }

    /// Trips the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner
            .cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// `true` once the token is tripped, its deadline has passed, or (for
    /// the composite form) every member token is cancelled.
    pub fn is_cancelled(&self) -> bool {
        if self
            .inner
            .cancelled
            .load(std::sync::atomic::Ordering::Acquire)
        {
            return true;
        }
        if self.inner.deadline.is_some_and(|d| Instant::now() >= d) {
            // Latch, so later polls skip the clock read.
            self.cancel();
            return true;
        }
        !self.inner.all_of.is_empty() && self.inner.all_of.iter().all(|t| t.is_cancelled())
    }

    /// The deadline attached at construction, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder-style ranking query: a [`Semantics`], an [`Algorithm`], and
/// options — run against any [`ProbabilisticRelation`].
///
/// ```
/// use prf_core::query::{Algorithm, RankQuery};
/// use prf_core::StepWeight;
/// use prf_pdb::IndependentDb;
///
/// let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5)])?;
/// let result = RankQuery::prf(StepWeight { h: 2 })
///     .algorithm(Algorithm::ExactGf)
///     .top_k(2)
///     .run(&db)?;
/// assert_eq!(result.ranking.len(), 2);
/// assert!(result.report.total_seconds >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct RankQuery {
    semantics: Semantics,
    algorithm: Algorithm,
    top_k: Option<usize>,
    threads: Option<usize>,
    value_order: Option<ValueOrder>,
    cancel: Option<CancelToken>,
}

impl RankQuery {
    /// A query with the given semantics and default options
    /// ([`Algorithm::Auto`], full ranking, serial).
    pub fn new(semantics: Semantics) -> Self {
        RankQuery {
            semantics,
            algorithm: Algorithm::Auto,
            top_k: None,
            threads: None,
            value_order: None,
            cancel: None,
        }
    }

    /// PRFω with an arbitrary weight function.
    pub fn prf(omega: impl WeightFunction + Send + Sync + 'static) -> Self {
        Self::new(Semantics::Prf(Arc::new(omega)))
    }

    /// PRFω with a shared weight function.
    pub fn prf_shared(omega: Arc<dyn WeightFunction + Send + Sync>) -> Self {
        Self::new(Semantics::Prf(omega))
    }

    /// PRFe with a real base α.
    pub fn prfe(alpha: f64) -> Self {
        Self::new(Semantics::Prfe(Complex::real(alpha)))
    }

    /// PRFe with a complex base α.
    pub fn prfe_complex(alpha: Complex) -> Self {
        Self::new(Semantics::Prfe(alpha))
    }

    /// PT(h): rank by `Pr(r(t) ≤ h)`.
    pub fn pt(h: usize) -> Self {
        Self::new(Semantics::Pt(h))
    }

    /// U-Top: the most probable top-k set.
    pub fn utop(k: usize) -> Self {
        Self::new(Semantics::UTop(k))
    }

    /// U-Rank: per-position argmax of `Pr(r(t) = i)`, distinct tuples.
    pub fn urank(k: usize) -> Self {
        Self::new(Semantics::URank(k))
    }

    /// Expected ranks (lower is better; ranked by `−er`).
    pub fn erank() -> Self {
        Self::new(Semantics::ERank)
    }

    /// Expected score.
    pub fn escore() -> Self {
        Self::new(Semantics::EScore)
    }

    /// Consensus top-k under symmetric difference (≡ PT(k), Theorem 2).
    pub fn consensus(k: usize) -> Self {
        Self::new(Semantics::Consensus(k))
    }

    /// Selects the evaluation algorithm (default: [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Truncates the returned ranking to its best `k` entries.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Requests `threads` workers for parallel-capable kernels (currently
    /// the general-tree PRFω expansion, via [`crate::parallel`]).
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides how complex/scaled Υ values map to ranking keys
    /// (default: `|Υ|` for `Prf`/`Prfe` per Definition 3, real part for the
    /// real-valued classical semantics and DFT mixtures).
    pub fn value_order(mut self, order: ValueOrder) -> Self {
        self.value_order = Some(order);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: [`Self::run`] checks it up
    /// front (and the walk polls it), returning [`QueryError::TimedOut`]
    /// once it trips.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token_ref(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The configured semantics.
    pub fn semantics(&self) -> &Semantics {
        &self.semantics
    }

    /// Resolves [`Algorithm::Auto`] against a backend without running the
    /// query — exposed so callers (and benchmarks) can inspect the
    /// heuristic's choice. A PRFe base with a NaN or infinite component is
    /// rejected here, whatever the algorithm, as
    /// [`QueryError::InvalidParameter`].
    pub fn resolve_algorithm(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<Algorithm, QueryError> {
        if let Semantics::Prfe(alpha) = &self.semantics {
            if !(alpha.re.is_finite() && alpha.im.is_finite()) {
                return Err(QueryError::InvalidParameter(format!(
                    "PRFe requires a finite α, got {alpha}"
                )));
            }
        }
        let n = rel.n_tuples();
        let class = rel.correlation_class();
        if let Algorithm::Auto = self.algorithm {
            return Ok(match &self.semantics {
                Semantics::Prfe(alpha) => {
                    // Graphical backends stay exact: they have no native
                    // scaled kernel (the trait default merely wraps the
                    // plain values) and their junction-tree DP bounds
                    // feasible n far below the underflow regime anyway.
                    if n <= auto_prfe_exact_max(*alpha) || class == CorrelationClass::Graphical {
                        Algorithm::ExactGf
                    } else if alpha.im == 0.0
                        && (0.0..=1.0).contains(&alpha.re)
                        && class == CorrelationClass::Independent
                    {
                        Algorithm::LogDomain
                    } else {
                        Algorithm::Scaled
                    }
                }
                Semantics::Pt(h) | Semantics::Consensus(h) => {
                    // The exact expansion on a *general* tree is O(n²·h);
                    // beyond the thresholds the refined DFT mixture is the
                    // only practical evaluator (Figure 11(iii)).
                    if class == CorrelationClass::Tree && n > AUTO_DFT_MIN_N && *h > AUTO_DFT_MIN_H
                    {
                        Algorithm::DftApprox(DftApproxConfig::refined(AUTO_DFT_TERMS))
                    } else {
                        Algorithm::ExactGf
                    }
                }
                // Generic PRFω may be tuple-dependent, which the DFT
                // mixture cannot represent — Auto stays exact; callers opt
                // into DftApprox explicitly for rank-only weights.
                _ => Algorithm::ExactGf,
            });
        }
        self.validate_compat()?;
        Ok(self.algorithm)
    }

    fn validate_compat(&self) -> Result<(), QueryError> {
        let incompatible = || {
            Err(QueryError::IncompatibleAlgorithm {
                semantics: self.semantics.name(),
                algorithm: self.algorithm.name(),
            })
        };
        match (&self.semantics, &self.algorithm) {
            (_, Algorithm::Auto) | (_, Algorithm::ExactGf) => Ok(()),
            (Semantics::Prfe(alpha), Algorithm::LogDomain) => {
                if alpha.im == 0.0 && (0.0..=1.0).contains(&alpha.re) {
                    Ok(())
                } else {
                    Err(QueryError::InvalidParameter(format!(
                        "log-domain PRFe requires real α ∈ [0, 1], got {alpha}"
                    )))
                }
            }
            (Semantics::Prfe(_), Algorithm::Scaled) => Ok(()),
            (Semantics::Prfe(_), Algorithm::DftApprox(_)) => incompatible(),
            (sem, Algorithm::DftApprox(_)) => {
                // Weight-based semantics with a finite truncation horizon.
                match sem.weight().and_then(|w| w.truncation()) {
                    Some(h) if h > 0 => Ok(()),
                    _ => incompatible(),
                }
            }
            _ => incompatible(),
        }
    }

    /// Runs the query against a backend — as a [`QueryBatch`] of one, so a
    /// single query gets exactly the batch executor's routes, top-k
    /// pushdown and report (`batch: Some(BatchCost { consumers: 1, .. })`
    /// for walk-answered semantics). [`Self::parallel`] becomes the batch's
    /// walk thread count.
    pub fn run(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<RankedResult, QueryError> {
        let start = Instant::now();
        let mut batch = QueryBatch::new().add_query(self.clone());
        if let Some(threads) = self.threads {
            batch = batch.parallel(threads);
        }
        let mut result = batch.run(rel)?.pop().expect("a batch of one answers once");
        result.report.total_seconds = start.elapsed().as_secs_f64();
        Ok(result)
    }
}

/// Best-effort extraction of a panic payload's message — the `reason` a
/// caught evaluation panic surfaces through [`QueryError::Internal`].
/// Handles the two payload shapes `panic!` produces (`&'static str` and
/// formatted `String`); anything else gets a generic description.
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Accumulates the wall-clock cost of `f` into `acc` and returns its
/// result — the kernel-timing primitive of [`EvalReport::kernel_seconds`].
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{ExponentialWeight, TabulatedWeight};
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
    fn pt_query_matches_direct_prf() {
        let db = db();
        let direct = crate::independent::prf_rank(&db, &StepWeight { h: 2 });
        let result = RankQuery::pt(2).run(&db).unwrap();
        assert_eq!(result.values.as_complex().unwrap(), &direct[..]);
        assert_eq!(result.report.numeric_mode, NumericMode::Complex);
        assert!(result.report.auto_selected);
        assert_eq!(result.report.algorithm, Algorithm::ExactGf);
    }

    #[test]
    fn consensus_equals_pt() {
        let db = db();
        let pt = RankQuery::pt(3).run(&db).unwrap();
        let cons = RankQuery::consensus(3).run(&db).unwrap();
        assert_eq!(pt.ranking.order(), cons.ranking.order());
    }

    #[test]
    fn prfe_modes_agree_on_ranking() {
        let db = db();
        let exact = RankQuery::prfe(0.8)
            .algorithm(Algorithm::ExactGf)
            .run(&db)
            .unwrap();
        let log = RankQuery::prfe(0.8)
            .algorithm(Algorithm::LogDomain)
            .run(&db)
            .unwrap();
        let scaled = RankQuery::prfe(0.8)
            .algorithm(Algorithm::Scaled)
            .run(&db)
            .unwrap();
        assert_eq!(exact.ranking.order(), log.ranking.order());
        assert_eq!(exact.ranking.order(), scaled.ranking.order());
        assert_eq!(log.report.numeric_mode, NumericMode::LogDomain);
        assert_eq!(scaled.report.numeric_mode, NumericMode::Scaled);
    }

    #[test]
    fn top_k_truncates_ranking_and_reports() {
        let db = db();
        let r = RankQuery::escore().top_k(2).run(&db).unwrap();
        assert_eq!(r.ranking.len(), 2);
        assert_eq!(r.report.truncated_to, Some(2));
        assert_eq!(r.values.len(), db.len()); // values stay complete
    }

    #[test]
    fn utop_carries_set_answer() {
        let db = db();
        let r = RankQuery::utop(2).run(&db).unwrap();
        let set = r.set.expect("set semantics");
        assert_eq!(set.members.len(), 2);
        assert_eq!(r.ranking.order(), &set.members[..]);
        assert!(set.log_prob <= 0.0);
        // k > n has no answer.
        assert_eq!(
            RankQuery::utop(99).run(&db).unwrap_err(),
            QueryError::NoSetAnswer
        );
    }

    #[test]
    fn urank_orders_by_position() {
        let db = db();
        let r = RankQuery::urank(3).run(&db).unwrap();
        assert_eq!(r.ranking.len(), 3);
        // Every selected tuple's value is its winning positional
        // probability.
        for (pos, &t) in r.ranking.order().iter().enumerate() {
            let v = r.values.as_complex().unwrap()[t.index()];
            assert!((v.re - r.ranking.key_at(pos)).abs() < 1e-15);
        }
    }

    #[test]
    fn incompatible_combinations_error() {
        let db = db();
        let err = RankQuery::pt(2)
            .algorithm(Algorithm::LogDomain)
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleAlgorithm { .. }));
        let err = RankQuery::prfe_complex(Complex::new(0.5, 0.5))
            .algorithm(Algorithm::LogDomain)
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)));
        let err = RankQuery::erank()
            .algorithm(Algorithm::Scaled)
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleAlgorithm { .. }));
        let err = RankQuery::prfe(0.5)
            .algorithm(Algorithm::DftApprox(DftApproxConfig::refined(8)))
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleAlgorithm { .. }));
    }

    #[test]
    fn dft_approx_rejects_tuple_dependent_weights() {
        // ω(t, i) = score(t) for i ≤ h is truncated but tuple-dependent —
        // a PRFe mixture cannot represent it, so the engine must error
        // instead of silently tabulating zeros through a dummy tuple.
        let db = db();
        let err = RankQuery::prf(crate::weights::TopScoreWeight)
            .algorithm(Algorithm::DftApprox(DftApproxConfig::refined(8)))
            .run(&db)
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
        // Rank-only truncated weights pass the probe.
        RankQuery::pt(3)
            .algorithm(Algorithm::DftApprox(DftApproxConfig::refined(8)))
            .run(&db)
            .unwrap();
    }

    #[test]
    fn tree_queries_report_evaluator_memory() {
        let tree = figure_tree();
        let r = RankQuery::prfe(0.8)
            .algorithm(Algorithm::ExactGf)
            .run(&tree)
            .unwrap();
        let mem = r
            .report
            .memory
            .expect("tree kernels run the incremental engine");
        assert!(mem.plan_nodes > 0);
        assert!(mem.peak_bytes > 0);
        // PT on a general (non-x-tuple) tree also runs the engine…
        let r = RankQuery::pt(2).run(&tree).unwrap();
        let mem = r.report.memory.expect("general tree PT runs the engine");
        assert!(mem.peak_coefficients > 0);
        assert!(mem.peak_coefficients >= mem.resident_coefficients);
        // …and the scaled mode reports scalar-engine accounting: no heap
        // coefficients.
        let r = RankQuery::prfe(0.8)
            .algorithm(Algorithm::Scaled)
            .run(&tree)
            .unwrap();
        let mem = r.report.memory.expect("scaled tree PRFe runs the engine");
        assert!(mem.plan_nodes > 0);
        assert_eq!(mem.peak_coefficients, 0);
        assert!(mem.peak_bytes > 0);
        // Independent backends use closed-form kernels — no evaluator.
        let db = db();
        assert!(RankQuery::pt(2).run(&db).unwrap().report.memory.is_none());
        assert!(RankQuery::prfe(0.8)
            .run(&db)
            .unwrap()
            .report
            .memory
            .is_none());
    }

    #[test]
    fn kernel_time_excludes_ranking_and_is_bounded_by_total() {
        let db = db();
        let r = RankQuery::pt(2).run(&db).unwrap();
        assert!(r.report.kernel_seconds >= 0.0);
        assert!(r.report.kernel_seconds <= r.report.total_seconds);
    }

    #[test]
    fn auto_picks_log_domain_for_large_independent_prfe() {
        let db = IndependentDb::from_pairs(
            (0..2000).map(|i| ((2000 - i) as f64, 0.3 + 0.4 * ((i % 7) as f64 / 7.0))),
        )
        .unwrap();
        let q = RankQuery::prfe(0.5);
        assert_eq!(q.resolve_algorithm(&db).unwrap(), Algorithm::LogDomain);
        // Complex α cannot use the log domain.
        let q = RankQuery::prfe_complex(Complex::new(0.4, 0.3));
        assert_eq!(q.resolve_algorithm(&db).unwrap(), Algorithm::Scaled);
    }

    #[test]
    fn auto_picks_dft_for_deep_pt_on_general_trees() {
        // A correlation-class probe is enough — resolve without running.
        let tree = figure_tree();
        assert_eq!(
            ProbabilisticRelation::correlation_class(&tree),
            CorrelationClass::Tree
        );
        // Small tree: stays exact.
        assert_eq!(
            RankQuery::pt(100).resolve_algorithm(&tree).unwrap(),
            Algorithm::ExactGf
        );
    }

    /// A small tree that is *not* in x-tuple form (nested ∧ under ∨).
    fn figure_tree() -> AndXorTree {
        use prf_pdb::{NodeKind, TreeBuilder};
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let a = b.add_inner(root, NodeKind::And, 0.6).unwrap();
        b.add_leaf(a, 1.0, 10.0).unwrap();
        b.add_leaf(a, 1.0, 9.0).unwrap();
        b.add_leaf(root, 0.4, 8.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn weighted_consensus_via_prf_matches_tabulated_direct() {
        let db = db();
        let w = TabulatedWeight::from_real(&[2.0, 1.0, 0.5]);
        let direct = crate::independent::prf_rank(&db, &w);
        let r = RankQuery::prf(w)
            .value_order(ValueOrder::RealPart)
            .run(&db)
            .unwrap();
        assert_eq!(r.values.as_complex().unwrap(), &direct[..]);
    }

    #[test]
    fn prf_exponential_weight_equals_prfe() {
        let db = db();
        let via_prf = RankQuery::prf(ExponentialWeight::real(0.7))
            .run(&db)
            .unwrap();
        let via_prfe = RankQuery::prfe(0.7)
            .algorithm(Algorithm::ExactGf)
            .run(&db)
            .unwrap();
        let a = via_prf.values.as_complex().unwrap();
        let b = via_prfe.values.as_complex().unwrap();
        for t in 0..db.len() {
            assert!(a[t].approx_eq(b[t], 1e-10), "t{t}");
        }
        assert_eq!(via_prf.ranking.order(), via_prfe.ranking.order());
    }

    #[test]
    fn empty_relation() {
        let db = IndependentDb::from_pairs(std::iter::empty::<(f64, f64)>()).unwrap();
        let r = RankQuery::prfe(0.5).run(&db).unwrap();
        assert!(r.values.is_empty());
        assert!(r.ranking.is_empty());
    }

    /// The α-aware exact ceiling: `min(4096, 620/−ln α)` for real
    /// α ∈ (0, 1), the legacy 1024 otherwise — and `Auto` must route
    /// accordingly on independent relations.
    #[test]
    fn auto_prfe_threshold_is_alpha_aware() {
        assert_eq!(auto_prfe_exact_max(Complex::real(0.01)), 134);
        assert_eq!(auto_prfe_exact_max(Complex::real(0.1)), 269);
        assert_eq!(auto_prfe_exact_max(Complex::real(0.5)), 894);
        // Near 1 the bound grows past the cap; past 1 or complex α fall
        // back to the legacy ceiling.
        assert_eq!(auto_prfe_exact_max(Complex::real(0.9)), 4096);
        assert_eq!(auto_prfe_exact_max(Complex::real(1.5)), 1024);
        assert_eq!(auto_prfe_exact_max(Complex::new(0.5, 0.1)), 1024);

        // n = 500: plain complex is unsafe at α = 0.01 (divergence was
        // measured at n* = 847, the bound trips at 134) but fine at
        // α = 0.5 (bound 894).
        let db = IndependentDb::from_pairs((0..500).map(|i| (500.0 - i as f64, 0.5))).unwrap();
        let resolve = |a: f64| RankQuery::prfe(a).resolve_algorithm(&db).unwrap();
        assert_eq!(resolve(0.01), Algorithm::LogDomain);
        assert_eq!(resolve(0.5), Algorithm::ExactGf);
    }
}
