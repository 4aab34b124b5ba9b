//! Experiment harness for the `prf` workspace.
//!
//! One module per table/figure of the paper's evaluation (Section 8 and the
//! Table 1 comparison of Section 3.2), plus shared scaffolding. Run via
//!
//! ```text
//! cargo run --release -p prf-bench --bin experiments -- <experiment> [--scale full]
//! ```
//!
//! where `<experiment>` ∈ `table1 | fig4 | fig5 | fig7 | fig8 | fig9 |
//! fig10 | fig11 | serve | live | shard | all`. The default `quick` scale
//! finishes in minutes and preserves every qualitative shape; `full`
//! matches the paper's dataset sizes (up to 10⁶ tuples) where that is
//! feasible. EXPERIMENTS.md records the outputs next to the paper's
//! numbers. The `serve`, `live` and `shard` scenarios go beyond the
//! paper: `serve` replays a mixed-semantics trace through `prf-serve`'s
//! deadline-batched `RankServer` and compares throughput with
//! single-query dispatch; `shard` measures the fig 11-style batch on a
//! 4-shard `ShardedRelation` against the unsharded relation.

#![deny(missing_docs)]

pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod live;
pub mod serve;
pub mod shard;
pub mod table1;

use std::time::Instant;

/// Experiment scale: `Quick` shrinks datasets so the whole suite runs in
/// minutes; `Full` reproduces the paper's sizes where feasible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly defaults.
    Quick,
    /// Paper-sized runs.
    Full,
}

impl Scale {
    /// Picks a size by scale.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a float for table output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

/// The seed used by every experiment (reproducibility).
pub const SEED: u64 = 20090412;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn timing_is_positive() {
        let (v, t) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0);
    }
}
