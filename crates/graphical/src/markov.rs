//! Markov chains (Section 9.3) — the treewidth-1 special case.
//!
//! A finite Markov chain `Y₁ → Y₂ → … → Y_m` over binary tuple-existence
//! indicators. The partial-sum recursion maintains the joint
//! `Pr(Y_{j+1}, P_j)` where `P_j = Σ_{l ≤ j} δ_l·Y_l`, using the
//! conditional-independence of `P_{j−1}` and `Y_{j+1}` given `Y_j` — `O(m)`
//! states each carrying an `O(m)` distribution, i.e. `O(m²)` per query and
//! `O(m³)` to rank a whole chain-correlated relation.

#![allow(clippy::needless_range_loop)] // binary-state loops read clearer indexed

use prf_pdb::tuple::top_k_desc;
use prf_pdb::{PossibleWorld, TupleId, WorldEnumeration};

use crate::factor::{Factor, VarId};
use crate::network::MarkovNetwork;

/// A binary Markov chain given by the initial distribution of `Y₀` and the
/// per-step transition matrices.
#[derive(Clone, Debug)]
pub struct MarkovChain {
    /// `[Pr(Y₀ = 0), Pr(Y₀ = 1)]`.
    initial: [f64; 2],
    /// `transitions[j][y][y']` = `Pr(Y_{j+1} = y' | Y_j = y)`.
    transitions: Vec<[[f64; 2]; 2]>,
}

impl MarkovChain {
    /// Creates a chain, validating stochasticity.
    ///
    /// # Panics
    /// Panics if any distribution fails to sum to 1 (±1e-9) or has negative
    /// entries.
    pub fn new(initial: [f64; 2], transitions: Vec<[[f64; 2]; 2]>) -> Self {
        assert!((initial[0] + initial[1] - 1.0).abs() < 1e-9);
        assert!(initial.iter().all(|&p| p >= 0.0));
        for (j, t) in transitions.iter().enumerate() {
            for (y, row) in t.iter().enumerate() {
                assert!(
                    (row[0] + row[1] - 1.0).abs() < 1e-9,
                    "transition {j} from state {y} not stochastic"
                );
                assert!(row.iter().all(|&p| p >= 0.0));
            }
        }
        MarkovChain {
            initial,
            transitions,
        }
    }

    /// Number of variables in the chain.
    pub fn len(&self) -> usize {
        self.transitions.len() + 1
    }

    /// `true` for a single-variable chain with no transitions.
    pub fn is_empty(&self) -> bool {
        false // a chain always has at least the initial variable
    }

    /// Marginal `Pr(Y_j = 1)` for every position.
    pub fn marginals(&self) -> Vec<f64> {
        let mut dist = self.initial;
        let mut out = vec![dist[1]];
        for t in &self.transitions {
            dist = [
                dist[0] * t[0][0] + dist[1] * t[1][0],
                dist[0] * t[0][1] + dist[1] * t[1][1],
            ];
            out.push(dist[1]);
        }
        out
    }

    /// Probability of a full assignment (bit `j` of `mask` = `Y_j`).
    pub fn assignment_probability(&self, mask: u64) -> f64 {
        let mut p = self.initial[(mask & 1) as usize];
        let mut prev = (mask & 1) as usize;
        for (j, t) in self.transitions.iter().enumerate() {
            let cur = (mask >> (j + 1) & 1) as usize;
            p *= t[prev][cur];
            prev = cur;
        }
        p
    }

    /// Enumerates all possible worlds (present-tuple sets). Test oracle.
    ///
    /// # Panics
    /// Panics if the chain is longer than 24 variables.
    pub fn enumerate_worlds(&self) -> WorldEnumeration {
        let m = self.len();
        assert!(m <= 24, "enumeration oracle limited to 24 variables");
        let mut worlds = Vec::with_capacity(1 << m);
        for mask in 0..1u64 << m {
            let p = self.assignment_probability(mask);
            if p > 0.0 {
                let present: Vec<TupleId> = (0..m)
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| TupleId(j as u32))
                    .collect();
                worlds.push((PossibleWorld::new(present), p));
            }
        }
        WorldEnumeration { worlds }.normalized()
    }

    /// Converts to a general Markov network (pairwise factors), for
    /// cross-checking against the junction-tree algorithms.
    pub fn to_network(&self) -> MarkovNetwork {
        let mut factors = vec![Factor::new(
            vec![VarId(0)],
            vec![self.initial[0], self.initial[1]],
        )];
        for (j, t) in self.transitions.iter().enumerate() {
            factors.push(Factor::new(
                vec![VarId(j as u32), VarId((j + 1) as u32)],
                // bit 0 ↔ Y_j, bit 1 ↔ Y_{j+1}.
                vec![t[0][0], t[1][0], t[0][1], t[1][1]],
            ));
        }
        MarkovNetwork::new(self.len(), factors)
    }

    /// `Pr(Σ_j δ_j·Y_j = a ∧ Y_target = 1)` for all `a`, by the forward
    /// recursion of Section 9.3 with `Y_target` clamped to 1.
    ///
    /// `deltas[j]` flags whether `Y_j` contributes to the sum. `O(m²)`.
    pub fn clamped_sum_distribution(&self, deltas: &[bool], target: usize) -> Vec<f64> {
        let m = self.len();
        assert_eq!(deltas.len(), m);
        assert!(target < m);
        // state[y] = distribution over partial sums, jointly with Y_j = y
        // and the clamping event.
        let mut state = [vec![0.0; m + 1], vec![0.0; m + 1]];
        for y in 0..2 {
            if target == 0 && y == 0 {
                continue; // clamped to 1
            }
            let s = if deltas[0] && y == 1 { 1 } else { 0 };
            state[y][s] += self.initial[y];
        }
        for (j, t) in self.transitions.iter().enumerate() {
            let pos = j + 1;
            let mut next = [vec![0.0; m + 1], vec![0.0; m + 1]];
            for prev_y in 0..2 {
                for (a, &p) in state[prev_y].iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    for y in 0..2 {
                        if pos == target && y == 0 {
                            continue; // clamp
                        }
                        let a2 = a + usize::from(deltas[pos] && y == 1);
                        next[y][a2] += p * t[prev_y][y];
                    }
                }
            }
            state = next;
        }
        let mut out = vec![0.0; m + 1];
        for y in 0..2 {
            for (a, &p) in state[y].iter().enumerate() {
                out[a] += p;
            }
        }
        out
    }

    /// Positional probabilities `Pr(r(t) = j)` for every tuple of a
    /// chain-correlated relation (`scores[j]` is the score of the tuple
    /// whose indicator is `Y_j`). `O(m³)` total.
    pub fn rank_distributions(&self, scores: &[f64]) -> Vec<Vec<f64>> {
        let m = self.len();
        assert_eq!(scores.len(), m);
        let order = top_k_desc(scores, m, "scores must not be NaN");
        let mut pos = vec![0usize; m];
        for (i, &t) in order.iter().enumerate() {
            pos[t] = i;
        }
        let mut out = vec![vec![0.0; m]; m];
        for target in 0..m {
            // δ_l = 1 iff tuple l ranks above the target in the total order.
            let deltas: Vec<bool> = (0..m).map(|l| pos[l] < pos[target]).collect();
            let sums = self.clamped_sum_distribution(&deltas, target);
            for (a, &p) in sums.iter().enumerate() {
                if a < m {
                    out[target][a] += p; // rank = (#above) + 1 ⇒ index a
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> MarkovChain {
        MarkovChain::new(
            [0.4, 0.6],
            vec![
                [[0.7, 0.3], [0.2, 0.8]],
                [[0.5, 0.5], [0.9, 0.1]],
                [[0.25, 0.75], [0.6, 0.4]],
            ],
        )
    }

    #[test]
    fn marginals_match_enumeration() {
        let c = chain();
        let worlds = c.enumerate_worlds();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        let m = c.marginals();
        for j in 0..c.len() {
            let brute = worlds.marginal(TupleId(j as u32));
            assert!((m[j] - brute).abs() < 1e-12, "Y{j}: {} vs {brute}", m[j]);
        }
    }

    #[test]
    fn rank_distributions_match_enumeration() {
        let c = chain();
        let scores = [10.0, 40.0, 20.0, 30.0];
        let worlds = c.enumerate_worlds();
        let got = c.rank_distributions(&scores);
        for t in 0..c.len() {
            let brute = worlds.rank_distribution(TupleId(t as u32), c.len(), &scores);
            for r in 0..c.len() {
                assert!(
                    (got[t][r] - brute[r]).abs() < 1e-12,
                    "t{t} rank {}: {} vs {}",
                    r + 1,
                    got[t][r],
                    brute[r]
                );
            }
        }
    }

    #[test]
    fn clamped_sum_accounts_for_evidence() {
        let c = chain();
        // Σ over all four variables (all deltas on except the clamped one).
        let deltas = [true, false, true, true];
        let target = 1;
        let dist = c.clamped_sum_distribution(&deltas, target);
        // Total mass = Pr(Y1 = 1).
        let total: f64 = dist.iter().sum();
        assert!((total - c.marginals()[1]).abs() < 1e-12);
    }

    #[test]
    fn network_conversion_agrees() {
        let c = chain();
        let net = c.to_network();
        let joint = net.enumerate_joint();
        for mask in 0..1u64 << c.len() {
            let direct = c.assignment_probability(mask);
            assert!((joint[mask as usize] - direct).abs() < 1e-12, "mask {mask}");
        }
    }

    #[test]
    fn deterministic_transitions() {
        // A chain that copies: Y1 = Y0 with certainty.
        let c = MarkovChain::new([0.3, 0.7], vec![[[1.0, 0.0], [0.0, 1.0]]]);
        let worlds = c.enumerate_worlds();
        assert_eq!(worlds.len(), 2);
        let got = c.rank_distributions(&[5.0, 9.0]);
        // Both present together (p = .7): tuple 1 (score 9) rank 1, tuple 0
        // rank 2.
        assert!((got[1][0] - 0.7).abs() < 1e-12);
        assert!((got[0][1] - 0.7).abs() < 1e-12);
        assert!((got[0][0] - 0.0).abs() < 1e-12);
    }
}
