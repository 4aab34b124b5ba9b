//! # prf — A Unified Approach to Ranking in Probabilistic Databases
//!
//! A complete Rust implementation of Li, Saha & Deshpande's VLDB 2009 paper
//! *“A Unified Approach to Ranking in Probabilistic Databases”*
//! (arXiv:0904.1366): the **parameterized ranking function** (PRF) framework
//! and its two workhorse families **PRFω(h)** and **PRFe(α)**, together with
//! every substrate the paper builds on — probabilistic and/xor trees,
//! generating-function algorithms, DFT-based PRFe-mixture approximation,
//! preference learning, prior ranking semantics, junction-tree inference,
//! top-k distance metrics and seeded dataset generators.
//!
//! ## Thirty-second tour
//!
//! The library embodies the paper's unification: **one query engine**
//! ([`core::query::RankQuery`]) evaluates every ranking semantics on every
//! backend, picking the numeric mode automatically.
//!
//! ```
//! use prf::prelude::*;
//!
//! // A probabilistic relation: (score, existence probability).
//! let db = IndependentDb::from_pairs([
//!     (100.0, 0.5), // great score, coin-flip existence
//!     (50.0, 1.0),  // mediocre but certain
//!     (80.0, 0.8),
//! ]).unwrap();
//!
//! // PT(2): rank by the probability of making the top 2.
//! let pt = RankQuery::pt(2).run(&db)?;
//! assert_eq!(pt.ranking.order()[0], TupleId(2));
//!
//! // PRFe(0.9): the smooth member of the family — same entry point,
//! // different semantics; `Auto` picks the algorithm and numeric mode.
//! let prfe = RankQuery::prfe(0.9).run(&db)?;
//! assert_eq!(prfe.ranking.order()[0], TupleId(1));
//! assert_eq!(prfe.report.algorithm, Algorithm::ExactGf); // small n → exact
//!
//! // The identical query runs unchanged on correlated data.
//! let tree = AndXorTree::from_independent(&db);
//! let correlated = RankQuery::prfe(0.9).run(&tree)?;
//! assert_eq!(prfe.ranking.order(), correlated.ranking.order());
//! # Ok::<(), prf::core::query::QueryError>(())
//! ```
//!
//! A custom backend implements
//! [`ProbabilisticRelation`](core::query::ProbabilisticRelation) as its
//! metadata methods plus one walk, `run_shared_walk`.
//!
//! Each [`RankedResult`](core::query::RankedResult) carries the per-tuple
//! values, the [`Ranking`](core::topk::Ranking), the set answer for U-Top,
//! and an [`EvalReport`](core::query::EvalReport) stating which algorithm
//! and numeric mode actually ran, with timings.
//!
//! ## Crate map
//!
//! Seven library crates, each re-exported as a module of this facade:
//!
//! | module (re-export) | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `prf-numeric` | complex/dual/scaled scalars, FFT, polynomials |
//! | [`pdb`] | `prf-pdb` | tuples, possible worlds, and/xor trees, attribute uncertainty |
//! | [`core`] | `prf-core` | the unified `RankQuery` engine (every semantics: PRFω, PRFe, PT(h), U-Top, U-Rank, E-Rank, E-Score, consensus) and its kernels; k-selection, DFT-based PRFe mixtures, learning α / ω; `core::live` adds mutable relations with incrementally patched plans |
//! | [`graphical`] | `prf-graphical` | Markov networks, junction trees, §9 algorithms, `NetworkRelation` |
//! | [`metrics`] | `prf-metrics` | normalized Kendall top-k distance and friends |
//! | [`datasets`] | `prf-datasets` | simulated IIP, Syn-IND, Syn-XOR/LOW/MED/HIGH |
//! | [`serve`] | `prf-serve` | concurrent `RankServer`: deadline batching, flush worker pool, prepared relations, admission control, live mutations + standing queries |
//!
//! The experiment harness that regenerates every table and figure of the
//! paper lives in the `prf-bench` crate (`cargo run --release -p prf-bench
//! --bin experiments -- all`); EXPERIMENTS.md records paper-vs-measured
//! results.

#![deny(missing_docs)]

pub use prf_core as core;
pub use prf_datasets as datasets;
pub use prf_graphical as graphical;
pub use prf_metrics as metrics;
pub use prf_numeric as numeric;
pub use prf_pdb as pdb;
pub use prf_serve as serve;

/// The most commonly used items, for glob import:
/// `use prf::prelude::*;`.
pub mod prelude {
    pub use prf_core::parallel::effective_walk_threads;
    pub use prf_core::query::{
        Algorithm, BatchCost, BatchPlan, BatchRoute, CancelToken, CorrelationClass, EvalReport,
        FlushTrigger, NumericMode, PreparedRelation, PreparedState, ProbabilisticRelation,
        QueryBatch, QueryError, QueryKey, RankQuery, RankedResult, Semantics, ServeCost, TopSet,
        Values,
    };
    pub use prf_core::{
        ConstantWeight, ExponentialWeight, LinearWeight, PositionWeight, ScoreWeight, StepWeight,
        TabulatedWeight,
    };
    pub use prf_core::{
        DftApproxConfig, ExpMixture, Ranking, ValueOrder, WeightFunction, PARALLEL_MIN_SHARD_TUPLES,
    };
    pub use prf_core::{LiveApply, LiveRelation, MutableRelation, Mutation, MutationEffect};
    pub use prf_core::{ShardError, ShardHandle, ShardedRelation};
    pub use prf_graphical::NetworkRelation;
    pub use prf_metrics::kendall_topk;
    pub use prf_numeric::Complex;
    pub use prf_pdb::{AndXorTree, IndependentDb, NodeKind, TreeBuilder, Tuple, TupleId};
    pub use prf_serve::{
        MutationHandle, Priority, RankServer, RankingDelta, RelationId, ResponseHandle,
        ServeConfig, ServeMetrics, SubmitOptions, SubscriptionHandle,
    };
}
