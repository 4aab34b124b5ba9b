//! Answer checks, independent of the engine's kernels.
//!
//! The small oracles evaluate PRFe, PT(h) and expected ranks on
//! tuple-independent data straight from their closed forms over the score
//! order (score descending, ties by tuple id — the order the engine uses).
//! [`Reference`] checks a returned top-k against reference keys: position
//! `i` of the answer must carry the `i`-th best reference key, so ties may
//! come in any order but nothing else may move.

use prf_core::query::Values;
use prf_core::TupleId;

/// Relative tolerance for matching keys at one ranking position.
pub const KEY_TOL: f64 = 1e-9;

/// Tuple ids by score descending, ties by id ascending.
pub fn score_order(scores: &[f64]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    ids.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    ids
}

/// `ln Υ` of PRFe(α) per tuple id: `ln p_t + ln α + Σ_{s above t} ln(1 − p_s + p_s·α)`.
pub fn prfe_log_keys(order: &[usize], probs: &[f64], alpha: f64) -> Vec<f64> {
    let mut keys = vec![f64::NEG_INFINITY; probs.len()];
    let mut prefix = 0.0f64;
    for &t in order {
        let p = probs[t];
        keys[t] = prefix + p.ln() + alpha.ln();
        prefix += (1.0 - p + p * alpha).ln();
    }
    keys
}

/// `Pr(r(t) ≤ h)` per tuple id: `p_t · Pr(fewer than h tuples above t are
/// present)`, by the presence-count DP truncated at `h` — `O(n·h)`.
pub fn pt_values(order: &[usize], probs: &[f64], h: usize) -> Vec<f64> {
    let mut out = vec![0.0; probs.len()];
    // dist[j] = Pr(exactly j of the tuples seen so far are present), j < h.
    let mut dist = vec![0.0f64; h.max(1)];
    dist[0] = 1.0;
    for &t in order {
        let p = probs[t];
        out[t] = p * dist.iter().sum::<f64>();
        for j in (1..dist.len()).rev() {
            dist[j] = dist[j] * (1.0 - p) + dist[j - 1] * p;
        }
        dist[0] *= 1.0 - p;
    }
    out
}

/// Negated expected ranks (higher is better): a present tuple's rank is one
/// plus the present tuples above it, an absent tuple's is the world size.
pub fn erank_keys(order: &[usize], probs: &[f64]) -> Vec<f64> {
    let world: f64 = probs.iter().sum();
    let mut keys = vec![0.0; probs.len()];
    let mut above = 0.0;
    for &t in order {
        let p = probs[t];
        keys[t] = -(p * (1.0 + above) + (1.0 - p) * (world - p));
        above += p;
    }
    keys
}

/// Ranking keys per tuple id of an engine answer's values, monotone in the
/// ranking order for semantics whose values are non-negative reals.
pub fn keys_of(values: &Values) -> Vec<f64> {
    match values {
        Values::Complex(v) => v.iter().map(|c| c.abs()).collect(),
        Values::LogDomain(v) => v.clone(),
        Values::Scaled(v) => v.iter().map(|s| s.magnitude_key()).collect(),
    }
}

/// Reference keys by tuple id, with the same keys sorted best first.
pub struct Reference {
    keys: Vec<f64>,
    sorted: Vec<f64>,
}

impl Reference {
    pub fn new(keys: Vec<f64>) -> Self {
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        Reference { keys, sorted }
    }

    /// Checks a top-`k` answer (`k ≥ n` for a full ranking); `map` turns an
    /// answer id into a reference id.
    pub fn check(
        &self,
        answer: &[TupleId],
        k: usize,
        map: impl Fn(TupleId) -> usize,
    ) -> Result<(), String> {
        let want = k.min(self.keys.len());
        if answer.len() != want {
            return Err(format!("{} ids returned, {want} expected", answer.len()));
        }
        let mut seen = vec![false; self.keys.len()];
        for (i, &t) in answer.iter().enumerate() {
            let id = map(t);
            if id >= self.keys.len() || std::mem::replace(&mut seen[id], true) {
                return Err(format!("position {i}: id {id} is out of range or repeated"));
            }
            let (got, best) = (self.keys[id], self.sorted[i]);
            let tol = KEY_TOL * best.abs().max(1.0);
            // Equal infinities have a NaN difference, so test equality first.
            let close = got == best || (got - best).abs() <= tol;
            if !close {
                return Err(format!(
                    "position {i}: id {id} has key {got}, the {i}-th best key is {best}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<TupleId> {
        v.iter().map(|&i| TupleId(i)).collect()
    }

    #[test]
    fn check_accepts_ties_in_any_order_and_rejects_swaps() {
        let r = Reference::new(vec![1.0, 3.0, 3.0, 2.0]);
        assert!(r.check(&ids(&[1, 2, 3]), 3, |t| t.index()).is_ok());
        assert!(r.check(&ids(&[2, 1, 3]), 3, |t| t.index()).is_ok());
        assert!(r.check(&ids(&[1, 3, 2]), 3, |t| t.index()).is_err());
        assert!(r.check(&ids(&[1, 2]), 3, |t| t.index()).is_err());
        assert!(r.check(&ids(&[1, 1, 3]), 3, |t| t.index()).is_err());
        assert!(r.check(&ids(&[2, 1, 3, 0]), 10, |t| t.index()).is_ok());
    }

    /// Brute force over the 2ⁿ possible worlds of a tiny relation.
    fn worlds(probs: &[f64], order: &[usize], mut visit: impl FnMut(f64, &[usize])) {
        let n = probs.len();
        for mask in 0u32..(1 << n) {
            let pr: f64 = (0..n)
                .map(|t| {
                    if mask >> t & 1 == 1 {
                        probs[t]
                    } else {
                        1.0 - probs[t]
                    }
                })
                .product();
            let present: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&t| mask >> t & 1 == 1)
                .collect();
            visit(pr, &present);
        }
    }

    #[test]
    fn closed_forms_match_possible_worlds() {
        let scores = [5.0, 9.0, 5.0, 1.0, 7.0];
        let probs = [0.3, 0.8, 0.6, 0.9, 0.5];
        let order = score_order(&scores);
        assert_eq!(order, vec![1, 4, 0, 2, 3]);
        let (alpha, h) = (0.7f64, 2);
        let (mut prfe, mut pt, mut er) = ([0.0; 5], [0.0; 5], [0.0; 5]);
        worlds(&probs, &order, |pr, present| {
            for t in 0..5 {
                match present.iter().position(|&s| s == t) {
                    Some(i) => {
                        prfe[t] += pr * alpha.powi(i as i32 + 1);
                        pt[t] += if i < h { pr } else { 0.0 };
                        er[t] += pr * (i + 1) as f64;
                    }
                    None => er[t] += pr * present.len() as f64,
                }
            }
        });
        let log = prfe_log_keys(&order, &probs, alpha);
        let ptv = pt_values(&order, &probs, h);
        let erk = erank_keys(&order, &probs);
        for t in 0..5 {
            assert!((log[t].exp() - prfe[t]).abs() < 1e-12);
            assert!((ptv[t] - pt[t]).abs() < 1e-12);
            assert!((erk[t] + er[t]).abs() < 1e-12);
        }
    }
}
