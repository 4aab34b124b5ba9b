//! The PRFe spectrum: how the ranking evolves as `α` sweeps `0 → 1`
//! (Section 7, Theorem 4).
//!
//! For independent tuples, the ratio
//! `ρ_{j,i}(α) = Υ_α(t_j)/Υ_α(t_i) = (p_j/p_i)·Π_{l=i..j−1}(1 − p_l + p_l·α)`
//! (positions `i < j` in score order) is monotone in `α`, so any two tuples
//! swap relative order **at most once**: PRFe(α) interpolates between
//! `τ₀` (ranking by `Pr(r(t) = 1)`) at `α → 0` and `τ₁` (ranking by
//! probability) at `α = 1`, executing a bubble-sort-like sequence of
//! adjacent swaps. This module computes the crossing points and enumerates
//! the distinct rankings in the spectrum.

use prf_pdb::{IndependentDb, TupleId};

use crate::independent::prfe_rank_log;
use crate::query::QueryError;
use crate::topk::Ranking;

/// Relationship between two tuples across the PRFe spectrum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Crossing {
    /// The first tuple ranks above the second for every `α ∈ (0, 1]`.
    FirstAlways,
    /// The second tuple ranks above the first for every `α ∈ (0, 1]`.
    SecondAlways,
    /// They swap exactly once, at the given `β ∈ (0, 1)` (first above
    /// second for `α < β`, below for `α > β`).
    SwapAt(f64),
}

/// Where tuples `a` and `b` cross as `α` sweeps `(0, 1]` (Theorem 4).
///
/// Uses the closed-form monotone ratio and bisection to locate the crossing
/// to absolute precision `1e-12`. Tuples with zero probability never rank
/// above anything and are reported accordingly.
pub fn crossing_point(db: &IndependentDb, a: TupleId, b: TupleId) -> Crossing {
    assert_ne!(a, b, "crossing_point requires distinct tuples");
    let order = db.by_score();
    let pos_a = order.iter().position(|t| t.id == a).expect("tuple a");
    let pos_b = order.iter().position(|t| t.id == b).expect("tuple b");
    // Normalise so `hi` is the higher-scored tuple.
    let (hi, lo, hi_is_a) = if pos_a < pos_b {
        (pos_a, pos_b, true)
    } else {
        (pos_b, pos_a, false)
    };
    let p_hi = order[hi].prob;
    let p_lo = order[lo].prob;

    let verdict = |hi_above: bool| -> Crossing {
        match (hi_above, hi_is_a) {
            (true, true) | (false, false) => Crossing::FirstAlways,
            (true, false) | (false, true) => Crossing::SecondAlways,
        }
    };

    if p_lo == 0.0 {
        return verdict(true);
    }
    if p_hi == 0.0 {
        return verdict(false);
    }

    // log ρ(α) = ln p_lo − ln p_hi + Σ_{l=hi..lo−1} ln(1 − p_l + p_l α);
    // ρ is increasing in α. hi ranks above lo iff ρ < 1 (log ρ < 0).
    let middle: Vec<f64> = order[hi..lo].iter().map(|t| t.prob).collect();
    let log_rho = |alpha: f64| -> f64 {
        let mut lr = p_lo.ln() - p_hi.ln();
        for &p in &middle {
            lr += (1.0 - p + p * alpha).ln();
        }
        lr
    };

    let at0 = log_rho(0.0);
    let at1 = log_rho(1.0);
    if at1 <= 0.0 {
        // ρ stays below 1: hi above lo everywhere (ties resolve to the
        // higher-scored/lower-id tuple, matching Ranking's tie-break).
        return verdict(true);
    }
    if at0 >= 0.0 {
        return verdict(false);
    }
    // Bisection on the monotone log-ratio.
    let (mut lo_a, mut hi_a) = (0.0f64, 1.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo_a + hi_a);
        if log_rho(mid) < 0.0 {
            lo_a = mid;
        } else {
            hi_a = mid;
        }
        if hi_a - lo_a < 1e-13 {
            break;
        }
    }
    let beta = 0.5 * (lo_a + hi_a);
    if hi_is_a {
        Crossing::SwapAt(beta)
    } else {
        // From b's (the higher tuple's) perspective a is below before β;
        // as the *first* argument, a is below b for α < β and above after.
        Crossing::SwapAt(beta)
    }
}

/// One segment of the PRFe spectrum: a maximal interval of `α` values that
/// produce the same full ranking.
#[derive(Clone, Debug)]
pub struct SpectrumSegment {
    /// Left endpoint of the interval (exclusive at 0).
    pub alpha_lo: f64,
    /// Right endpoint.
    pub alpha_hi: f64,
    /// The ranking on this interval (best first).
    pub ranking: Vec<TupleId>,
}

/// Enumerates every distinct PRFe ranking as `α` sweeps `(0, 1]`, by
/// computing all pairwise crossing points (`O(n²)` pairs, each `O(n)`) and
/// sampling the ranking at interval midpoints.
///
/// Intended for analysis and tests at small `n`; the number of segments is
/// at most `1 + (number of crossings) ≤ 1 + n(n−1)/2` — the `O(n²)`
/// richness that Section 7 contrasts with PT(h)'s `n` rankings.
pub fn prfe_spectrum(db: &IndependentDb) -> Vec<SpectrumSegment> {
    let n = db.len();
    let mut cuts = vec![0.0, 1.0];
    for i in 0..n {
        for j in (i + 1)..n {
            if let Crossing::SwapAt(beta) = crossing_point(db, TupleId(i as u32), TupleId(j as u32))
            {
                cuts.push(beta);
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-10);

    let mut segments: Vec<SpectrumSegment> = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mid = 0.5 * (lo + hi);
        let keys = prfe_rank_log(db, mid).expect("cut midpoints lie in [0, 1]");
        let ranking = Ranking::from_keys(&keys).order().to_vec();
        match segments.last_mut() {
            Some(last) if last.ranking == ranking => last.alpha_hi = hi,
            _ => segments.push(SpectrumSegment {
                alpha_lo: lo,
                alpha_hi: hi,
                ranking,
            }),
        }
    }
    segments
}

/// The two endpoint rankings of the spectrum: `τ₀` (by `Pr(r(t) = 1)`) and
/// `τ₁` (by existence probability). PRFe(α) converges to these as `α → 0`
/// and `α = 1` respectively.
pub fn spectrum_endpoints(db: &IndependentDb) -> (Vec<TupleId>, Vec<TupleId>) {
    // τ₀: Pr(r(t)=1) = p_t · Π_{higher} (1 − p).
    let mut keys0 = vec![f64::NEG_INFINITY; db.len()];
    let mut log_none_above = 0.0f64;
    for t in db.by_score() {
        let p = t.prob;
        if p > 0.0 {
            keys0[t.id.index()] = log_none_above + p.ln();
        }
        log_none_above += (1.0 - p).ln();
    }
    let tau0 = Ranking::from_keys(&keys0).order().to_vec();
    let keys1: Vec<f64> = db.tuples().iter().map(|t| t.prob).collect();
    let tau1 = Ranking::from_keys(&keys1).order().to_vec();
    (tau0, tau1)
}

/// Convenience: the PRFe ranking at a given real `α`, computed in log space
/// (underflow-free). At `α = 0` it is the spectrum's `τ₀` endpoint. Fails
/// with [`QueryError::InvalidParameter`] for an `α` outside `[0, 1]` (or
/// NaN).
pub fn prfe_ranking_at(db: &IndependentDb, alpha: f64) -> Result<Vec<TupleId>, QueryError> {
    if alpha == 0.0 {
        return Ok(spectrum_endpoints(db).0);
    }
    let keys = prfe_rank_log(db, alpha).ok_or_else(|| {
        QueryError::InvalidParameter(format!("PRFe ranking needs α ∈ [0, 1], got {alpha}"))
    })?;
    Ok(Ranking::from_keys(&keys).order().to_vec())
}

/// Checks empirically that two tuples swap at most once over a grid of `α`
/// values — the statement of Theorem 4. Returns the number of order flips
/// observed. Exposed for tests and the examples.
pub fn count_order_flips(db: &IndependentDb, a: TupleId, b: TupleId, grid: usize) -> usize {
    let mut flips = 0;
    let mut last: Option<bool> = None;
    for g in 1..=grid {
        let alpha = g as f64 / grid as f64;
        let keys = prfe_rank_log(db, alpha).expect("grid points lie in (0, 1]");
        let a_above = keys[a.index()] > keys[b.index()];
        if let Some(prev) = last {
            if prev != a_above {
                flips += 1;
            }
        }
        last = Some(a_above);
    }
    flips
}

/// The PRFe values of Example 7 (four tuples), exposed for the
/// documentation example and tests.
pub fn example7_db() -> IndependentDb {
    IndependentDb::from_pairs([(100.0, 0.4), (80.0, 0.6), (50.0, 0.5), (30.0, 0.9)])
        .expect("valid example database")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent::prfe_rank;
    use prf_numeric::Complex;

    #[test]
    fn example_7_upsilon_formulas() {
        // Υα(t1) = .4α, Υα(t2) = (.6+.4α)·.6α, …
        let db = example7_db();
        for &alpha in &[0.2, 0.5, 0.8] {
            let u = prfe_rank(&db, Complex::real(alpha));
            assert!((u[0].re - 0.4 * alpha).abs() < 1e-12);
            assert!((u[1].re - (0.6 + 0.4 * alpha) * 0.6 * alpha).abs() < 1e-12);
            assert!(
                (u[2].re - (0.6 + 0.4 * alpha) * (0.4 + 0.6 * alpha) * 0.5 * alpha).abs() < 1e-12
            );
            assert!(
                (u[3].re
                    - (0.6 + 0.4 * alpha)
                        * (0.4 + 0.6 * alpha)
                        * (0.5 + 0.5 * alpha)
                        * 0.9
                        * alpha)
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn example_7_swap_around_t1_t4_intersection() {
        // Figure 6: ranking is {t2, t1, t4, t3} just before the f1/f4
        // intersection and {t2, t4, t1, t3} just after.
        let db = example7_db();
        let c = crossing_point(&db, TupleId(0), TupleId(3));
        let beta = match c {
            Crossing::SwapAt(b) => b,
            other => panic!("expected a swap, got {other:?}"),
        };
        let before = prfe_ranking_at(&db, beta - 1e-4).unwrap();
        let after = prfe_ranking_at(&db, beta + 1e-4).unwrap();
        assert_eq!(
            before,
            vec![TupleId(1), TupleId(0), TupleId(3), TupleId(2)],
            "before crossing"
        );
        assert_eq!(
            after,
            vec![TupleId(1), TupleId(3), TupleId(0), TupleId(2)],
            "after crossing"
        );
    }

    #[test]
    fn crossings_match_grid_flips() {
        let db = example7_db();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                let c = crossing_point(&db, TupleId(i), TupleId(j));
                let flips = count_order_flips(&db, TupleId(i), TupleId(j), 4000);
                match c {
                    Crossing::SwapAt(_) => assert_eq!(flips, 1, "pair ({i},{j})"),
                    _ => assert_eq!(flips, 0, "pair ({i},{j})"),
                }
            }
        }
    }

    #[test]
    fn theorem_4_no_double_swaps_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let db = IndependentDb::from_pairs(
                (0..8).map(|i| (100.0 - i as f64, rng.gen_range(0.05..1.0))),
            )
            .unwrap();
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    assert!(
                        count_order_flips(&db, TupleId(i), TupleId(j), 500) <= 1,
                        "pair ({i},{j}) swapped more than once"
                    );
                }
            }
        }
    }

    #[test]
    fn dominance_implies_fixed_order() {
        // t0 dominates t1 (higher score and probability) ⇒ always above.
        let db = IndependentDb::from_pairs([(10.0, 0.9), (5.0, 0.3)]).unwrap();
        assert_eq!(
            crossing_point(&db, TupleId(0), TupleId(1)),
            Crossing::FirstAlways
        );
        assert_eq!(
            crossing_point(&db, TupleId(1), TupleId(0)),
            Crossing::SecondAlways
        );
    }

    #[test]
    fn spectrum_connects_tau0_to_tau1() {
        let db = example7_db();
        let segments = prfe_spectrum(&db);
        assert!(!segments.is_empty());
        let (tau0, tau1) = spectrum_endpoints(&db);
        assert_eq!(segments.first().unwrap().ranking, tau0);
        assert_eq!(segments.last().unwrap().ranking, tau1);
        // Consecutive segments differ by exactly one adjacent transposition
        // (the bubble-sort picture of Section 7) — at least for this
        // example's non-degenerate crossing points.
        for w in segments.windows(2) {
            let a = &w[0].ranking;
            let b = &w[1].ranking;
            let diffs: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
            assert_eq!(diffs.len(), 2, "one swap between segments");
            assert_eq!(diffs[1], diffs[0] + 1, "swap is adjacent");
        }
    }

    #[test]
    fn zero_probability_tuples() {
        let db = IndependentDb::from_pairs([(10.0, 0.0), (5.0, 0.5)]).unwrap();
        assert_eq!(
            crossing_point(&db, TupleId(0), TupleId(1)),
            Crossing::SecondAlways
        );
    }
}
