//! Parameterized ranking functions for probabilistic databases —
//! the core contribution of Li, Saha & Deshpande,
//! *“A Unified Approach to Ranking in Probabilistic Databases”* (VLDB 2009).
//!
//! # The PRF framework
//!
//! Ranking uncertain data is a multi-criteria problem: score and probability
//! trade off, and no single fixed ranking function fits every dataset or
//! user. The paper's answer is a *parameterized* family,
//!
//! ```text
//! Υ_ω(t) = Σ_{i>0} ω(t, i) · Pr(r(t) = i)
//! ```
//!
//! over the positional-probability features `Pr(r(t) = i)`, with a top-k
//! query returning the `k` tuples with the largest `|Υ_ω|`. Choosing `ω`
//! recovers ranking by probability, expected score, PT(h)/Global-top-k,
//! U-Rank, expected-rank-style functions and k-selection
//! ([`weights`]); two sub-families get special treatment:
//!
//! * **PRFω(h)** — arbitrary weights on ranks `≤ h`, evaluated in `O(n·h)`
//!   for independent tuples and `O(n·h·log n)` for x-tuples ([`xtuple`]);
//! * **PRFe(α)** — `ω(i) = αⁱ`, evaluated in `O(n log n)` even on
//!   correlated data modelled by probabilistic and/xor trees ([`tree`]),
//!   because `Υ = Fⁱ(α)` needs only the generating function's *value*.
//!
//! # The unified query engine
//!
//! All of the above is reachable through **one entry point**: the
//! [`query`] module's [`query::RankQuery`] builder pairs a
//! [`query::Semantics`] (PRFω, PRFe, PT(h), U-Top, U-Rank, E-Rank,
//! E-Score, Consensus) with an [`query::Algorithm`] (exact
//! generating functions, log-domain, scaled arithmetic, or the DFT
//! mixture approximation — or `Auto`) and runs against any
//! [`query::ProbabilisticRelation`] backend. Many queries against one
//! relation batch into **one shared score-order walk** via
//! [`query::QueryBatch`]. The per-algorithm kernels stay public at their
//! module paths (e.g. [`independent::prf_rank`], [`tree::prfe_rank_tree`]);
//! the crate root re-exports only types and the engine.
//!
//! # Module map
//!
//! * [`query`] — the unified `RankQuery` engine: one entry point for every
//!   semantics, backend, and numeric mode; [`query::kernels`] holds the
//!   set- and position-valued kernels (U-Top, U-Rank, E-Rank) and
//!   k-selection, the one prior semantics with no `RankQuery` form;
//! * [`weights`] — the `ω` families and the [`weights::WeightFunction`]
//!   trait;
//! * [`independent`] — Algorithm 1 (IND-PRF-RANK) and the PRFe/PRFω fast
//!   paths for tuple-independent data;
//! * [`incremental`] — the incremental generating-function engine: cached
//!   fold state over a binarised combine plan, one leaf-to-root gradient
//!   read and one path recombination per tuple, division-free, generic
//!   over the ring;
//! * [`live`] — live relations: insert/delete/reweight mutations patched
//!   into the cached score order, marginals, compiled plan, and log-domain
//!   keys, with generation counters for stale-cache invalidation;
//! * [`tree`] — Algorithms 2 and 3 on and/xor trees as walks of the
//!   incremental engine (full-refold oracles retained); expected ranks via
//!   dual numbers;
//! * [`xtuple`] — `O(n·h·log n)` PRFω(h) on x-tuples by a division-free
//!   divide-and-conquer over the score sweep;
//! * [`parallel`] — the thread-parallel tree walk and the
//!   [`parallel::effective_walk_threads`] gate that decides when it pays;
//! * [`shard`] — sharded relations: score-contiguous shards walked one at
//!   a time in score order and merged via the presence-GF monoid;
//! * [`attribute`] — ranking with uncertain scores (Section 4.4);
//! * [`mixture`] — DFT-based approximation of PRFω by PRFe mixtures
//!   (Section 5.1);
//! * [`learn`] — learning PRFe's `α` and PRFω(h)'s weights from a
//!   user-ranked sample (Section 5.2);
//! * [`spectrum`] — Theorem 4: the single-crossing structure of PRFe
//!   rankings as `α` sweeps 0→1;
//! * [`topk`] — turning Υ values into ranked answers.

#![deny(missing_docs)]

pub mod attribute;
pub mod incremental;
pub mod independent;
pub mod learn;
pub mod live;
pub mod mixture;
pub mod parallel;
pub mod query;
pub mod shard;
pub mod spectrum;
pub mod topk;
pub mod tree;
pub mod weights;
pub mod xtuple;

pub use incremental::{EvalPlan, GfStats, IncrementalGf};
pub use live::{LiveApply, LiveRelation, MutableRelation, Mutation, MutationEffect};
pub use mixture::{DftApproxConfig, ExpMixture};
pub use parallel::PARALLEL_MIN_SHARD_TUPLES;
pub use prf_pdb::TupleId;
pub use query::{
    Algorithm, BatchCost, BatchPlan, BatchRoute, CancelToken, CorrelationClass, EvalReport,
    NumericMode, PreparedRelation, PreparedState, ProbabilisticRelation, QueryBatch, QueryError,
    RankQuery, RankedResult, Semantics, TopSet, Values,
};
pub use shard::{ShardError, ShardHandle, ShardedRelation};
pub use spectrum::Crossing;
pub use topk::{Ranking, ValueOrder};
pub use weights::{
    ConstantWeight, DcgWeight, ExponentialWeight, LinearWeight, PositionWeight, ScoreWeight,
    StepWeight, TabulatedWeight, TopScoreWeight, WeightFunction,
};
