//! Weight functions `ω(t, i)` — the parameter of the PRF family.
//!
//! Definition 3 of the paper: `Υ_ω(t) = Σ_{i>0} ω(t, i)·Pr(r(t) = i)`, with a
//! top-k query returning the `k` tuples with the largest `|Υ_ω|`. Different
//! `ω` recover previously proposed ranking semantics:
//!
//! | `ω(t, i)`             | semantics                               |
//! |-----------------------|------------------------------------------|
//! | `1`                   | rank by existence probability            |
//! | `score(t)`            | expected score (E-Score)                 |
//! | `δ(i ≤ h)`            | probabilistic threshold PT(h)            |
//! | `δ(i = j)`            | U-Rank position `j`                      |
//! | `−i`                  | PRFℓ, the in-world part of expected rank |
//! | `δ(i = 1)·score(t)`   | k-selection                              |
//! | `αⁱ`                  | PRFe(α)                                  |
//! | learned `w_i`, `i ≤ h`| PRFω(h)                                  |

use prf_numeric::Complex;
use prf_pdb::Tuple;

/// A PRF weight function `ω : (tuple, rank) → ℂ`.
///
/// Ranks are 1-based. Implementations should be cheap (`O(1)`) per call; the
/// ranking algorithms may invoke them `O(n²)` times.
pub trait WeightFunction {
    /// The weight of `tuple` being ranked at (1-based) position `rank`.
    fn weight(&self, tuple: &Tuple, rank: usize) -> Complex;

    /// If `Some(h)`, the weight is guaranteed zero for every `rank > h`,
    /// enabling the truncated `O(n·h)` algorithms.
    fn truncation(&self) -> Option<usize> {
        None
    }

    /// `true` when the weight ignores its tuple argument (`ω(t, i) = ω(i)`).
    /// Rank-only weights can be materialised once with [`tabulate`] and
    /// shared across workers — [`crate::shard::ShardedRelation`] uses this
    /// to route PRFω queries through its parallel pool. Conservative
    /// default: `false` (tuple-dependent).
    fn rank_only(&self) -> bool {
        false
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> String {
        "ω".to_string()
    }
}

/// `ω(t, i) = 1` — Υ is the existence probability; ranks by probability.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstantWeight;

impl WeightFunction for ConstantWeight {
    fn weight(&self, _tuple: &Tuple, _rank: usize) -> Complex {
        Complex::ONE
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        "probability".into()
    }
}

/// `ω(t, i) = score(t)` — Υ is `Pr(t)·score(t)`, the expected score.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoreWeight;

impl WeightFunction for ScoreWeight {
    fn weight(&self, tuple: &Tuple, _rank: usize) -> Complex {
        Complex::real(tuple.score)
    }
    fn name(&self) -> String {
        "e-score".into()
    }
}

/// `ω(i) = δ(i ≤ h)` — Υ is `Pr(r(t) ≤ h)`; the PT(h) / Global-Top-k
/// semantics.
#[derive(Clone, Copy, Debug)]
pub struct StepWeight {
    /// The rank threshold `h`.
    pub h: usize,
}

impl WeightFunction for StepWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        if rank <= self.h {
            Complex::ONE
        } else {
            Complex::ZERO
        }
    }
    fn truncation(&self) -> Option<usize> {
        Some(self.h)
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        format!("PT({})", self.h)
    }
}

/// `ω(i) = δ(i = j)` — Υ is `Pr(r(t) = j)`; maximising it per `j` yields the
/// U-Rank answer.
#[derive(Clone, Copy, Debug)]
pub struct PositionWeight {
    /// The target (1-based) rank.
    pub j: usize,
}

impl WeightFunction for PositionWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        if rank == self.j {
            Complex::ONE
        } else {
            Complex::ZERO
        }
    }
    fn truncation(&self) -> Option<usize> {
        Some(self.j)
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        format!("rank={}", self.j)
    }
}

/// `ω(i) = −i` — PRFℓ; `−Υ` is the in-world contribution `er₁` of the
/// expected rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinearWeight;

impl WeightFunction for LinearWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        Complex::real(-(rank as f64))
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        "PRF-linear".into()
    }
}

/// `ω(i) = ln 2 / ln(i + 1)` — the DCG-style discount factor from
/// information retrieval cited in Section 3.3.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcgWeight;

impl WeightFunction for DcgWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        Complex::real(std::f64::consts::LN_2 / ((rank + 1) as f64).ln())
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        "discount".into()
    }
}

/// `ω(i) = αⁱ` — PRFe(α) with real or complex `α`.
///
/// Typically `|α| ≤ 1`: larger magnitudes would prefer *lower*-scored tuples.
#[derive(Clone, Copy, Debug)]
pub struct ExponentialWeight {
    /// The base `α`.
    pub alpha: Complex,
}

impl ExponentialWeight {
    /// PRFe with a real base.
    pub fn real(alpha: f64) -> Self {
        ExponentialWeight {
            alpha: Complex::real(alpha),
        }
    }
}

impl WeightFunction for ExponentialWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        self.alpha.powi(rank as i64)
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        format!("PRFe({})", self.alpha)
    }
}

/// `ω(t, i) = δ(i = 1)·score(t)` — the k-selection objective of Liu et al.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopScoreWeight;

impl WeightFunction for TopScoreWeight {
    fn weight(&self, tuple: &Tuple, rank: usize) -> Complex {
        if rank == 1 {
            Complex::real(tuple.score)
        } else {
            Complex::ZERO
        }
    }
    fn truncation(&self) -> Option<usize> {
        Some(1)
    }
    fn name(&self) -> String {
        "k-selection".into()
    }
}

/// An explicit weight table `w₁ … w_h` with `ω(i) = wᵢ` and zero beyond `h` —
/// the PRFω(h) family, typically with learned weights.
#[derive(Clone, Debug)]
pub struct TabulatedWeight {
    weights: Vec<Complex>,
}

impl TabulatedWeight {
    /// Builds a PRFω(h) weight from the table `w₁ … w_h` (index 0 is rank 1).
    pub fn new(weights: Vec<Complex>) -> Self {
        TabulatedWeight { weights }
    }

    /// Builds from real weights.
    pub fn from_real(weights: &[f64]) -> Self {
        TabulatedWeight {
            weights: weights.iter().map(|&w| Complex::real(w)).collect(),
        }
    }

    /// The truncation horizon `h`.
    pub fn h(&self) -> usize {
        self.weights.len()
    }

    /// The weight table (rank 1 first).
    pub fn weights(&self) -> &[Complex] {
        &self.weights
    }
}

impl WeightFunction for TabulatedWeight {
    fn weight(&self, _tuple: &Tuple, rank: usize) -> Complex {
        if rank == 0 || rank > self.weights.len() {
            Complex::ZERO
        } else {
            self.weights[rank - 1]
        }
    }
    fn truncation(&self) -> Option<usize> {
        Some(self.weights.len())
    }
    fn rank_only(&self) -> bool {
        true
    }
    fn name(&self) -> String {
        format!("PRFω({})", self.weights.len())
    }
}

/// Materialises any rank-only weight function as a table of length `h` —
/// convenient for feeding learned or analytic `ω` into the truncated
/// algorithms or the DFT approximation pipeline.
pub fn tabulate(omega: &dyn WeightFunction, h: usize) -> Vec<Complex> {
    // The tuple argument is ignored by rank-only weights; pass a dummy.
    let dummy = Tuple {
        id: prf_pdb::TupleId(0),
        score: 0.0,
        prob: 1.0,
    };
    (1..=h).map(|i| omega.weight(&dummy, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_pdb::TupleId;

    fn t(score: f64) -> Tuple {
        Tuple {
            id: TupleId(0),
            score,
            prob: 0.5,
        }
    }

    #[test]
    fn step_weight_matches_pt() {
        let w = StepWeight { h: 3 };
        assert_eq!(w.weight(&t(1.0), 1), Complex::ONE);
        assert_eq!(w.weight(&t(1.0), 3), Complex::ONE);
        assert_eq!(w.weight(&t(1.0), 4), Complex::ZERO);
        assert_eq!(w.truncation(), Some(3));
    }

    #[test]
    fn position_weight_is_indicator() {
        let w = PositionWeight { j: 2 };
        assert_eq!(w.weight(&t(1.0), 1), Complex::ZERO);
        assert_eq!(w.weight(&t(1.0), 2), Complex::ONE);
        assert_eq!(w.weight(&t(1.0), 3), Complex::ZERO);
    }

    #[test]
    fn exponential_weight_powers() {
        let w = ExponentialWeight::real(0.5);
        assert!(w.weight(&t(1.0), 1).approx_eq(Complex::real(0.5), 1e-12));
        assert!(w.weight(&t(1.0), 3).approx_eq(Complex::real(0.125), 1e-12));
        let wc = ExponentialWeight {
            alpha: Complex::new(0.0, 1.0),
        };
        assert!(wc.weight(&t(1.0), 2).approx_eq(Complex::real(-1.0), 1e-12));
    }

    #[test]
    fn score_and_top_score() {
        assert_eq!(ScoreWeight.weight(&t(42.0), 5), Complex::real(42.0));
        assert_eq!(TopScoreWeight.weight(&t(42.0), 1), Complex::real(42.0));
        assert_eq!(TopScoreWeight.weight(&t(42.0), 2), Complex::ZERO);
    }

    #[test]
    fn linear_weight_is_negated_rank() {
        assert_eq!(LinearWeight.weight(&t(0.0), 7), Complex::real(-7.0));
    }

    #[test]
    fn dcg_weight_decreases() {
        let w1 = DcgWeight.weight(&t(0.0), 1).re;
        let w2 = DcgWeight.weight(&t(0.0), 2).re;
        assert!((w1 - 1.0).abs() < 1e-12); // ln2/ln2 = 1
        assert!(w2 < w1);
    }

    #[test]
    fn tabulated_weight_bounds() {
        let w = TabulatedWeight::from_real(&[3.0, 2.0, 1.0]);
        assert_eq!(w.h(), 3);
        assert_eq!(w.weight(&t(0.0), 1), Complex::real(3.0));
        assert_eq!(w.weight(&t(0.0), 3), Complex::real(1.0));
        assert_eq!(w.weight(&t(0.0), 4), Complex::ZERO);
        assert_eq!(w.weight(&t(0.0), 0), Complex::ZERO);
    }

    #[test]
    fn tabulation_of_step() {
        let tab = tabulate(&StepWeight { h: 2 }, 4);
        assert_eq!(tab.len(), 4);
        assert_eq!(tab[0], Complex::ONE);
        assert_eq!(tab[1], Complex::ONE);
        assert_eq!(tab[2], Complex::ZERO);
    }
}
