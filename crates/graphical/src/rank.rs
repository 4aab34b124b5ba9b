//! Rank distributions under arbitrary correlations (Sections 9.2 & 9.4).
//!
//! Reduction (Section 9.2): `Pr(r(t) = j) = Pr(X_t = 1)·Pr(P = j−1 | X_t=1)`
//! where `P = Σ_l δ_l·X_l` counts the higher-scored present tuples. After
//! conditioning the junction tree on `X_t = 1`, the distribution of `P` is
//! computed by a dynamic program over the tree (Section 9.4):
//!
//! * each clique `C` with parent separator `S` recursively produces
//!   `Pr(S, P_S)` — the joint of the separator assignment and the partial
//!   sum over the flagged variables strictly below `S`;
//! * child messages combine by convolution, justified by conditional
//!   independence given the separator (`Pr(C, P₁) =
//!   Pr(C)·Pr(S₁, P₁)/Pr(S₁)`, Markov property);
//! * the variables of `C` not shared with the parent contribute their own
//!   indicator bits — each variable is counted exactly once because clique
//!   subtrees containing a variable are connected (running intersection).
//!
//! Overall `O(n⁴·2^tw)` to rank a relation, matching the paper; the
//! treewidth-1 Markov-chain specialisation in [`crate::markov`] runs in
//! `O(n³)`.

use prf_core::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec};
use prf_core::query::{PreparedState, TopkCarry};
use prf_numeric::{Complex, Scaled};
use prf_pdb::tuple::top_k_desc;
use prf_pdb::{PdbError, Tuple, TupleId};

use crate::factor::VarId;
use crate::junction::JunctionTree;
use crate::markov::MarkovChain;
use crate::network::MarkovNetwork;

/// `Pr(Σ_v δ_v·X_v = a)` for the distribution represented by a calibrated
/// junction tree. Returns a vector of length `(#flagged) + 1`.
pub fn sum_distribution(jt: &JunctionTree, deltas: &[bool]) -> Vec<f64> {
    let max_sum = deltas.iter().filter(|&&d| d).count();
    if jt.n_cliques() == 0 {
        let mut out = vec![0.0; max_sum + 1];
        out[0] = 1.0;
        return out;
    }
    let msg = clique_message(jt, deltas, 0, None, max_sum);
    // Root message: indexed by the empty separator (single entry).
    debug_assert_eq!(msg.len(), 1);
    let mut out = msg.into_iter().next().expect("root message");
    out.resize(max_sum + 1, 0.0);
    out
}

/// Recursive DP step: returns, for each assignment `s` of the separator
/// towards the parent, the joint `Pr(S = s, P_S = a)` as `out[s][a]`.
/// `parent_edge == None` denotes the root (empty separator).
fn clique_message(
    jt: &JunctionTree,
    deltas: &[bool],
    clique: usize,
    parent_edge: Option<usize>,
    max_sum: usize,
) -> Vec<Vec<f64>> {
    let pot = jt.clique(clique);
    let cvars = pot.vars();
    let size = 1usize << cvars.len();

    // acc[x][a] = Pr(C = x, partial sums from processed children = a).
    let mut acc: Vec<Vec<f64>> = (0..size).map(|x| vec![pot.at(x)]).collect();

    for &(child, edge) in jt.neighbors(clique) {
        if Some(edge) == parent_edge {
            continue;
        }
        let child_msg = clique_message(jt, deltas, child, Some(edge), max_sum);
        let sep = jt.separator(edge);
        // Positions of the separator's variables inside this clique.
        let sep_positions: Vec<usize> = sep
            .vars()
            .iter()
            .map(|&v| pot.position_of(v).expect("separator ⊆ clique"))
            .collect();
        for (x, dist) in acc.iter_mut().enumerate() {
            let mut s = 0usize;
            for (bit, &p) in sep_positions.iter().enumerate() {
                if x >> p & 1 == 1 {
                    s |= 1 << bit;
                }
            }
            let denom = sep.at(s);
            if denom == 0.0 {
                // Pr(C = x) ≤ Pr(S = s) = 0; the entry carries no mass.
                for v in dist.iter_mut() {
                    *v = 0.0;
                }
                continue;
            }
            *dist = convolve_capped(dist, &child_msg[s], max_sum);
            for v in dist.iter_mut() {
                *v /= denom;
            }
        }
    }

    // Contributions of this clique's own variables (those not shared with
    // the parent — each variable is folded in exactly once, at the highest
    // clique containing it).
    let parent_sep_vars: Vec<VarId> = match parent_edge {
        Some(e) => jt.separator(e).vars().to_vec(),
        None => Vec::new(),
    };
    let own_positions: Vec<usize> = cvars
        .iter()
        .enumerate()
        .filter(|(_, v)| deltas[v.index()] && !parent_sep_vars.contains(v))
        .map(|(p, _)| p)
        .collect();

    // Marginalise onto the parent separator while shifting by the own-bit
    // count.
    let sep_positions: Vec<usize> = parent_sep_vars
        .iter()
        .map(|&v| pot.position_of(v).expect("separator ⊆ clique"))
        .collect();
    let out_size = 1usize << sep_positions.len();
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); out_size];
    for (x, dist) in acc.into_iter().enumerate() {
        let shift: usize = own_positions.iter().filter(|&&p| x >> p & 1 == 1).count();
        let mut s = 0usize;
        for (bit, &p) in sep_positions.iter().enumerate() {
            if x >> p & 1 == 1 {
                s |= 1 << bit;
            }
        }
        let slot = &mut out[s];
        if slot.len() < (dist.len() + shift).min(max_sum + 1) {
            slot.resize((dist.len() + shift).min(max_sum + 1), 0.0);
        }
        for (a, &p) in dist.iter().enumerate() {
            let a2 = a + shift;
            if a2 <= max_sum && p != 0.0 {
                slot[a2] += p;
            }
        }
    }
    // Ensure every separator assignment has a (possibly zero) distribution.
    for slot in &mut out {
        if slot.is_empty() {
            slot.push(0.0);
        }
    }
    out
}

fn convolve_capped(a: &[f64], b: &[f64], max_sum: usize) -> Vec<f64> {
    let n = (a.len() + b.len() - 1).min(max_sum + 1);
    let mut out = vec![0.0; n];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            if i + j < n {
                out[i + j] += x * y;
            }
        }
    }
    out
}

/// Positional probabilities `Pr(r(t) = j)` for every tuple of a relation
/// whose correlations are given by a calibrated junction tree over the
/// tuple-existence indicators (`X_i ↔ scores[i]`).
pub fn rank_distributions_junction(jt: &JunctionTree, scores: &[f64]) -> Vec<Vec<f64>> {
    let n = scores.len();
    assert_eq!(jt.n_vars(), n, "one variable per tuple");
    let order = top_k_desc(scores, n, "scores must not be NaN");
    let mut pos = vec![0usize; n];
    for (i, &t) in order.iter().enumerate() {
        pos[t] = i;
    }
    let mut out = vec![vec![0.0; n]; n];
    for t in 0..n {
        // Tuples that can never exist would make the conditioned model
        // degenerate (zero mass); their rank distribution is identically 0.
        if jt.marginal(VarId(t as u32)) <= 0.0 {
            continue;
        }
        let (cond, p_exists) = jt.conditioned(VarId(t as u32), true);
        let deltas: Vec<bool> = (0..n).map(|l| l != t && pos[l] < pos[t]).collect();
        let sums = sum_distribution(&cond, &deltas);
        for (a, &p) in sums.iter().enumerate() {
            if a < n {
                out[t][a] = p * p_exists;
            }
        }
    }
    out
}

/// Convenience: rank distributions straight from a Markov network.
pub fn rank_distributions_network(net: &MarkovNetwork, scores: &[f64]) -> Vec<Vec<f64>> {
    rank_distributions_junction(&net.junction_tree(), scores)
}

/// Υ values for every tuple of a junction-tree-correlated relation under an
/// arbitrary PRF weight function.
pub fn prf_rank_junction(
    jt: &JunctionTree,
    scores: &[f64],
    omega: &dyn prf_core::weights::WeightFunction,
) -> Vec<Complex> {
    let dists = rank_distributions_junction(jt, scores);
    upsilons_from_dists(&dists, scores, omega)
}

/// Υ values for a Markov-chain-correlated relation using the `O(n³)`
/// specialised algorithm of Section 9.3.
pub fn prf_rank_markov_chain(
    chain: &MarkovChain,
    scores: &[f64],
    omega: &dyn prf_core::weights::WeightFunction,
) -> Vec<Complex> {
    let dists = chain.rank_distributions(scores);
    upsilons_from_dists(&dists, scores, omega)
}

/// The ranking adapter plugging junction-tree-correlated relations into the
/// unified query engine: a calibrated [`JunctionTree`] over the
/// tuple-existence indicators plus the tuple scores.
///
/// Implements [`prf_core::query::ProbabilisticRelation`] — the minimal
/// backend: metadata plus one walk — so any PRFω/PRFe
/// [`prf_core::query::RankQuery`] runs on it unchanged; positional
/// probabilities come from the Section 9.4 partial-sum dynamic program.
/// The set semantics (U-Top) and E-Rank have no exact junction-tree
/// algorithm here and report `Unsupported`.
///
/// ```
/// use prf_core::query::RankQuery;
/// use prf_graphical::{Factor, MarkovNetwork, NetworkRelation, VarId};
///
/// // Two positively correlated tuples and an independent third.
/// let net = MarkovNetwork::new(
///     3,
///     vec![
///         Factor::new(vec![VarId(0), VarId(1)], vec![0.3, 0.1, 0.1, 0.5]),
///         Factor::new(vec![VarId(2)], vec![0.4, 0.6]),
///     ],
/// );
/// let rel = NetworkRelation::new(&net, vec![30.0, 20.0, 10.0])?;
/// let result = RankQuery::pt(2).run(&rel)?;
/// assert_eq!(result.ranking.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NetworkRelation {
    jt: JunctionTree,
    scores: Vec<f64>,
}

impl NetworkRelation {
    /// Builds the adapter from a Markov network (constructs and calibrates
    /// the junction tree) and per-tuple scores. Fails like
    /// [`Self::from_junction`].
    pub fn new(net: &MarkovNetwork, scores: Vec<f64>) -> Result<Self, PdbError> {
        Self::from_junction(net.junction_tree(), scores)
    }

    /// Builds the adapter from an already calibrated junction tree.
    ///
    /// Fails with [`PdbError::Structure`] when `scores` does not have one
    /// entry per variable, and with [`PdbError::InvalidScore`] when a
    /// score is NaN (scores must be totally ordered to rank).
    pub fn from_junction(jt: JunctionTree, scores: Vec<f64>) -> Result<Self, PdbError> {
        if jt.n_vars() != scores.len() {
            return Err(PdbError::Structure(format!(
                "{} scores for {} tuple variables",
                scores.len(),
                jt.n_vars()
            )));
        }
        if let Some(t) = scores.iter().position(|s| s.is_nan()) {
            return Err(PdbError::InvalidScore {
                context: format!("tuple {}", TupleId(t as u32)),
            });
        }
        Ok(NetworkRelation { jt, scores })
    }

    /// The underlying calibrated junction tree.
    pub fn junction_tree(&self) -> &JunctionTree {
        &self.jt
    }

    /// Positional probabilities `Pr(r(t) = j)` for every tuple.
    pub fn rank_distributions(&self) -> Vec<Vec<f64>> {
        rank_distributions_junction(&self.jt, &self.scores)
    }
}

impl prf_core::query::ProbabilisticRelation for NetworkRelation {
    fn n_tuples(&self) -> usize {
        self.scores.len()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        self.scores.clone()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        (0..self.scores.len())
            .map(|t| self.jt.marginal(VarId(t as u32)))
            .collect()
    }

    fn correlation_class(&self) -> prf_core::query::CorrelationClass {
        prf_core::query::CorrelationClass::Graphical
    }

    /// One junction-tree positional-probability table serves every
    /// request; expected ranks have no exact algorithm here, so a walk
    /// asking for them answers `None` (the engine reports `Unsupported`).
    /// A network is never a shard, so its carry is always fresh and every
    /// consumer walks in full.
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        _carry: &mut TopkCarry,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        let start = std::time::Instant::now();
        if spec.is_cancelled()
            || spec
                .requests
                .iter()
                .any(|r| matches!(r, SharedRequest::ExpectedRanks))
        {
            return None;
        }
        let dists = self.rank_distributions();
        let prfe = |alpha| {
            let omega = prf_core::weights::ExponentialWeight { alpha };
            upsilons_from_dists(&dists, &self.scores, &omega)
        };
        let answers = spec
            .requests
            .iter()
            .map(|req| match req {
                SharedRequest::Weight(w) => {
                    SharedAnswer::Complex(upsilons_from_dists(&dists, &self.scores, w.as_ref()))
                }
                SharedRequest::PrfeComplex(a) => SharedAnswer::Complex(prfe(*a)),
                SharedRequest::PrfeScaled(a) => {
                    SharedAnswer::Scaled(prfe(*a).into_iter().map(Scaled::new).collect())
                }
                SharedRequest::PrfeLog(a) => SharedAnswer::Log(
                    prfe(Complex::real(*a))
                        .into_iter()
                        .map(|v| Scaled::new(v).magnitude_key() * std::f64::consts::LN_2)
                        .collect(),
                ),
                SharedRequest::ExpectedRanks => unreachable!("rejected above"),
            })
            .collect();
        Some(SharedWalkOut {
            answers,
            stats: None,
            walk_seconds: start.elapsed().as_secs_f64(),
            visits: Vec::new(),
        })
    }
}

fn upsilons_from_dists(
    dists: &[Vec<f64>],
    scores: &[f64],
    omega: &dyn prf_core::weights::WeightFunction,
) -> Vec<Complex> {
    let marginals: Vec<f64> = dists.iter().map(|d| d.iter().sum()).collect();
    dists
        .iter()
        .enumerate()
        .map(|(t, dist)| {
            let tv = Tuple {
                id: TupleId(t as u32),
                score: scores[t],
                prob: marginals[t],
            };
            let mut acc = Complex::ZERO;
            for (j0, &p) in dist.iter().enumerate() {
                if p != 0.0 {
                    acc += omega.weight(&tv, j0 + 1) * p;
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays
mod tests {
    use super::*;
    use crate::factor::Factor;
    use prf_pdb::{PossibleWorld, WorldEnumeration};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Brute-force world enumeration for an arbitrary network.
    fn worlds_of(net: &MarkovNetwork) -> WorldEnumeration {
        let joint = net.enumerate_joint();
        let worlds = joint
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(mask, &p)| {
                let present: Vec<TupleId> = (0..net.n_vars())
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| TupleId(j as u32))
                    .collect();
                (PossibleWorld::new(present), p)
            })
            .collect();
        WorldEnumeration { worlds }.normalized()
    }

    fn random_network(seed: u64, n: usize, extra_edges: usize) -> MarkovNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut factors = Vec::new();
        // A random spanning tree plus `extra_edges` chords.
        for j in 1..n {
            let parent = rng.gen_range(0..j);
            factors.push(Factor::new(
                vec![v(parent as u32), v(j as u32)],
                (0..4).map(|_| rng.gen_range(0.05..1.0)).collect(),
            ));
        }
        for _ in 0..extra_edges {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                factors.push(Factor::new(
                    vec![v(a.min(b) as u32), v(a.max(b) as u32)],
                    (0..4).map(|_| rng.gen_range(0.05..1.0)).collect(),
                ));
            }
        }
        // Singleton biases.
        for j in 0..n {
            factors.push(Factor::new(
                vec![v(j as u32)],
                vec![rng.gen_range(0.2..1.0), rng.gen_range(0.2..1.0)],
            ));
        }
        MarkovNetwork::new(n, factors)
    }

    #[test]
    fn junction_rank_distributions_match_enumeration() {
        for seed in 0..6u64 {
            let n = 6;
            let net = random_network(seed, n, 2);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
            let got = rank_distributions_network(&net, &scores);
            let worlds = worlds_of(&net);
            for t in 0..n {
                let brute = worlds.rank_distribution(TupleId(t as u32), n, &scores);
                for r in 0..n {
                    assert!(
                        (got[t][r] - brute[r]).abs() < 1e-9,
                        "seed {seed} t{t} r{r}: {} vs {}",
                        got[t][r],
                        brute[r]
                    );
                }
            }
        }
    }

    #[test]
    fn markov_chain_specialisation_matches_junction_tree() {
        let chain = MarkovChain::new(
            [0.45, 0.55],
            vec![
                [[0.6, 0.4], [0.3, 0.7]],
                [[0.8, 0.2], [0.25, 0.75]],
                [[0.5, 0.5], [0.5, 0.5]],
                [[0.1, 0.9], [0.95, 0.05]],
            ],
        );
        let scores = [30.0, 10.0, 50.0, 20.0, 40.0];
        let via_chain = chain.rank_distributions(&scores);
        let via_jt = rank_distributions_network(&chain.to_network(), &scores);
        for t in 0..5 {
            for r in 0..5 {
                assert!(
                    (via_chain[t][r] - via_jt[t][r]).abs() < 1e-9,
                    "t{t} r{r}: {} vs {}",
                    via_chain[t][r],
                    via_jt[t][r]
                );
            }
        }
    }

    #[test]
    fn sum_distribution_over_independent_vars() {
        // Independent biased coins: the sum is Poisson-binomial.
        let ps = [0.3, 0.8, 0.5];
        let factors: Vec<Factor> = ps
            .iter()
            .enumerate()
            .map(|(i, &p)| Factor::new(vec![v(i as u32)], vec![1.0 - p, p]))
            .collect();
        let net = MarkovNetwork::new(3, factors);
        let jt = net.junction_tree();
        let dist = sum_distribution(&jt, &[true, true, true]);
        // Expand Π (1−p + p·x) by hand.
        let mut expect = vec![1.0];
        for &p in &ps {
            let mut next = vec![0.0; expect.len() + 1];
            for (i, &c) in expect.iter().enumerate() {
                next[i] += c * (1.0 - p);
                next[i + 1] += c * p;
            }
            expect = next;
        }
        for (a, &e) in expect.iter().enumerate() {
            assert!((dist[a] - e).abs() < 1e-12, "sum {a}: {} vs {e}", dist[a]);
        }
        // Partial flag sets restrict the sum.
        let partial = sum_distribution(&jt, &[false, true, false]);
        assert!((partial[0] - 0.2).abs() < 1e-12);
        assert!((partial[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prf_values_from_network_match_independent_algorithm() {
        // An independence network must reproduce prf-core's results.
        let ps = [0.3, 0.8, 0.5, 0.9];
        let scores = [40.0, 30.0, 20.0, 10.0];
        let factors: Vec<Factor> = ps
            .iter()
            .enumerate()
            .map(|(i, &p)| Factor::new(vec![v(i as u32)], vec![1.0 - p, p]))
            .collect();
        let net = MarkovNetwork::new(4, factors);
        let jt = net.junction_tree();
        let db = prf_pdb::IndependentDb::from_pairs(scores.iter().zip(&ps).map(|(&s, &p)| (s, p)))
            .unwrap();
        for w in [
            Box::new(prf_core::weights::StepWeight { h: 2 })
                as Box<dyn prf_core::weights::WeightFunction>,
            Box::new(prf_core::weights::ExponentialWeight::real(0.7)),
        ] {
            let a = prf_rank_junction(&jt, &scores, w.as_ref());
            let b = prf_core::independent::prf_rank(&db, w.as_ref());
            for t in 0..4 {
                assert!(
                    a[t].approx_eq(b[t], 1e-9),
                    "{} t{t}: {} vs {}",
                    w.name(),
                    a[t],
                    b[t]
                );
            }
        }
    }

    #[test]
    fn deterministic_evidence_is_skipped() {
        // A variable that never exists: Pr(r(t)=j) all zero.
        let factors = vec![
            Factor::new(vec![v(0)], vec![1.0, 0.0]),
            Factor::new(vec![v(1)], vec![0.5, 0.5]),
        ];
        let net = MarkovNetwork::new(2, factors);
        let got = rank_distributions_network(&net, &[10.0, 5.0]);
        assert!(got[0].iter().all(|&p| p == 0.0));
        assert!((got[1][0] - 0.5).abs() < 1e-12);
    }
}
