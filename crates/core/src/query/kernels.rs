//! Evaluation kernels for the set- and position-valued semantics of the
//! unified query engine ([`super::RankQuery`]), plus k-selection, which has
//! no `RankQuery` form.

use prf_numeric::Poly;
use prf_pdb::tuple::top_k_desc;
use prf_pdb::{AndXorTree, IndependentDb, TupleId, WorldEnumeration};

// ---------------------------------------------------------------------
// U-Rank: bounded per-position candidate lists
// ---------------------------------------------------------------------

/// Per-position bounded candidate lists: `candidates[j]` holds up to `k`
/// `(probability, tuple)` pairs with the largest `Pr(r(t) = j+1)`,
/// descending, ties broken by smaller tuple id.
///
/// `O(k²)` memory regardless of relation size: per position only the `k`
/// best candidates can ever be selected.
#[derive(Clone, Debug)]
pub struct PositionalCandidates {
    cap: usize,
    candidates: Vec<Vec<(f64, TupleId)>>,
}

impl PositionalCandidates {
    /// An empty table for `k` positions.
    pub fn new(k: usize) -> Self {
        PositionalCandidates {
            cap: k,
            candidates: vec![Vec::with_capacity(k + 1); k],
        }
    }

    /// Number of positions tracked.
    pub fn positions(&self) -> usize {
        self.candidates.len()
    }

    /// The candidate list of a (0-based) position, best first.
    pub fn at(&self, position: usize) -> &[(f64, TupleId)] {
        &self.candidates[position]
    }

    /// Records `Pr(r(t) = position+1) = prob`; zero-probability entries are
    /// ignored.
    pub fn push(&mut self, position: usize, prob: f64, t: TupleId) {
        if prob <= 0.0 {
            return;
        }
        let list = &mut self.candidates[position];
        // Insertion sort into a short descending list.
        let at = list
            .iter()
            .position(|&(p, tid)| (prob, std::cmp::Reverse(t)) > (p, std::cmp::Reverse(tid)))
            .unwrap_or(list.len());
        if at < self.cap {
            list.insert(at, (prob, t));
            list.truncate(self.cap);
        }
    }

    /// Greedy distinct selection (the Section 3.2 form of U-Rank): for each
    /// position in order, the best not-yet-used candidate, paired with its
    /// positional probability.
    pub fn select_distinct(&self) -> Vec<(f64, TupleId)> {
        let mut chosen: Vec<(f64, TupleId)> = Vec::with_capacity(self.candidates.len());
        for list in &self.candidates {
            if let Some(&(p, t)) = list
                .iter()
                .find(|&&(_, t)| !chosen.iter().any(|c| c.1 == t))
            {
                chosen.push((p, t));
            }
        }
        chosen
    }

    /// The raw per-position argmax (allowing duplicates) — the original
    /// U-Rank semantics. `None` when no tuple has positive probability at a
    /// position.
    pub fn select_with_duplicates(&self) -> Vec<Option<TupleId>> {
        self.candidates
            .iter()
            .map(|l| l.first().map(|&(_, t)| t))
            .collect()
    }
}

/// Candidate table for an independent relation: one `O(n·k)` pass of the
/// truncated prefix polynomial over the stored score order.
pub fn positional_candidates_independent(db: &IndependentDb, k: usize) -> PositionalCandidates {
    let mut table = PositionalCandidates::new(k);
    let mut g = Poly::one();
    for t in db.by_score() {
        for (m, &c) in g.coeffs().iter().enumerate().take(k) {
            table.push(m, c * t.prob, t.id);
        }
        g.mul_linear_in_place(1.0 - t.prob, t.prob, k);
    }
    table
}

/// Candidate table on an and/xor tree: on an x-tuple tree, runs of the
/// blocked x-tuple kernel serving many positions at once as truncation
/// views, otherwise one truncated symbolic expansion per tuple.
pub fn positional_candidates_tree(tree: &AndXorTree, k: usize) -> PositionalCandidates {
    use crate::weights::{PositionWeight, WeightFunction};
    let n = tree.n_tuples();
    let mut table = PositionalCandidates::new(k);
    if tree.is_x_tuple() {
        let weights: Vec<PositionWeight> = (1..=k).map(|j| PositionWeight { j }).collect();
        let omegas: Vec<&dyn WeightFunction> =
            weights.iter().map(|w| w as &dyn WeightFunction).collect();
        crate::xtuple::prf_omega_rank_xtuple_each(tree, &omegas, |j, vals| {
            for (t, v) in vals.iter().enumerate() {
                table.push(j, v.re, TupleId(t as u32));
            }
        })
        .expect("x-tuple form checked");
    } else {
        let (order, pos) = crate::tree::score_order(tree);
        for (i, &t) in order.iter().enumerate() {
            let gf = tree.generating_function(|u| {
                if u == t {
                    prf_numeric::RankPoly::y().with_cap(k)
                } else if pos[u.index()] < i {
                    prf_numeric::RankPoly::x().with_cap(k)
                } else {
                    prf_numeric::RankPoly::one().with_cap(k)
                }
            });
            for j in 1..=k.min(n) {
                table.push(j - 1, gf.rank_probability(j), t);
            }
        }
    }
    table
}

// ---------------------------------------------------------------------
// E-Rank: closed form for independent tuples
// ---------------------------------------------------------------------

/// Expected rank of every tuple in an independent relation (`O(n)` over the
/// stored score order):
/// `er(t) = er₁ + er₂` with `er₁(tᵢ) = pᵢ·(1 + Σ_{j<i} pⱼ)` and
/// `er₂(t) = (1−p_t)(C − p_t)`, `C = Σ pⱼ` (Cormode et al.; Section 3.3).
/// Lower is better.
pub fn expected_ranks_independent(db: &IndependentDb) -> Vec<f64> {
    let n = db.len();
    let mut er = vec![0.0; n];
    let c: f64 = db.expected_world_size();
    let mut prefix = 0.0f64; // Σ of probabilities of higher-scored tuples
    for t in db.by_score() {
        let er1 = t.prob * (1.0 + prefix);
        let er2 = (1.0 - t.prob) * (c - t.prob);
        er[t.id.index()] = er1 + er2;
        prefix += t.prob;
    }
    er
}

// ---------------------------------------------------------------------
// U-Top: most probable top-k set
// ---------------------------------------------------------------------

/// Maintains the sum of the `m` largest values in a growing multiset, with
/// `m` adjustable downwards — a pair of heaps ("top" min-heap, "rest"
/// max-heap).
struct TopM {
    m: usize,
    top: std::collections::BinaryHeap<std::cmp::Reverse<OrdF64>>,
    rest: std::collections::BinaryHeap<OrdF64>,
    top_sum: f64,
}

#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN keys")
    }
}

impl TopM {
    fn new(m: usize) -> Self {
        TopM {
            m,
            top: Default::default(),
            rest: Default::default(),
            top_sum: 0.0,
        }
    }

    fn rebalance(&mut self) {
        while self.top.len() > self.m {
            let std::cmp::Reverse(v) = self.top.pop().expect("non-empty");
            self.top_sum -= v.0;
            self.rest.push(v);
        }
        while self.top.len() < self.m {
            match self.rest.pop() {
                Some(v) => {
                    self.top_sum += v.0;
                    self.top.push(std::cmp::Reverse(v));
                }
                None => break,
            }
        }
    }

    fn insert(&mut self, v: f64) {
        self.top.push(std::cmp::Reverse(OrdF64(v)));
        self.top_sum += v;
        self.rebalance();
    }

    fn shrink_m(&mut self) {
        assert!(self.m > 0, "cannot shrink below zero");
        self.m -= 1;
        self.rebalance();
    }

    /// Sum of the top `min(m, len)` values.
    fn sum(&self) -> f64 {
        self.top_sum
    }

    fn len_total(&self) -> usize {
        self.top.len() + self.rest.len()
    }
}

/// The exact U-Top answer on an independent relation (Soliman et al.): the
/// top-k set (score-descending order) and the natural log of its probability
/// of being the exact top-k — the `O(n log n)` odds-ratio sweep over the
/// stored score order. Returns `None` when `k` exceeds the number of
/// tuples or no set has positive probability.
pub fn most_probable_topk_independent(db: &IndependentDb, k: usize) -> Option<(Vec<TupleId>, f64)> {
    let n = db.len();
    if k == 0 || k > n {
        return None;
    }
    let order = db.by_score();
    let probs: Vec<f64> = order.iter().map(|t| t.prob).collect();

    // Sweep the position of the lowest-scored member.
    let mut best: Option<(usize, f64)> = None; // (last position, log prob)
    let mut base = 0.0f64; // Σ_{j<i, p<1} ln(1−p_j)
    let mut forced = 0usize; // count of p=1 tuples above i
    let mut ratios = TopM::new(k - 1);

    for (i, &p_i) in probs.iter().enumerate() {
        if p_i > 0.0 && i + 1 >= k && forced < k {
            // Need k−1−forced optional members from the uncertain prefix.
            let need = k - 1 - forced;
            if ratios.len_total() >= need {
                // `ratios` is maintained with m = k−1−forced (see below), so
                // its sum is exactly what we need.
                debug_assert_eq!(ratios.m, need);
                let logp = base + ratios.sum() + p_i.ln();
                if best.is_none_or(|(_, b)| logp > b) {
                    best = Some((i, logp));
                }
            }
        }
        // Fold tuple i into the prefix structures.
        if p_i >= 1.0 {
            forced += 1;
            if forced > k - 1 {
                // Any further candidate set must include > k−1 certain
                // tuples above its last member — impossible; stop.
                break;
            }
            ratios.shrink_m();
        } else if p_i > 0.0 {
            base += (1.0 - p_i).ln();
            ratios.insert(p_i.ln() - (1.0 - p_i).ln());
        }
        // p_i == 0 tuples can never appear; they contribute nothing.
    }

    let (last_pos, logp) = best?;
    // Reconstruct: all certain tuples above last_pos, plus the top
    // (k−1−forced) odds ratios among uncertain ones, plus the last tuple.
    let mut forced_ids = Vec::new();
    let (mut odds, mut optional) = (Vec::new(), Vec::new());
    for (j, &p) in probs.iter().enumerate().take(last_pos) {
        if p >= 1.0 {
            forced_ids.push(j);
        } else if p > 0.0 {
            odds.push(p.ln() - (1.0 - p).ln());
            optional.push(j);
        }
    }
    let need = k - 1 - forced_ids.len();
    let mut members: Vec<usize> = forced_ids;
    members.extend(
        top_k_desc(&odds, need, "no NaN")
            .into_iter()
            .map(|i| optional[i]),
    );
    members.push(last_pos);
    members.sort_unstable();
    Some((members.into_iter().map(|pos| order[pos].id).collect(), logp))
}

/// Exact U-Top over an explicit world enumeration (the correlated-data
/// path): every world contributes its probability to its top-k set; the
/// highest-mass set wins, ties broken towards the lexicographically smaller
/// set. Returns the set (score-descending) and the ln of its probability.
pub fn most_probable_topk_enumerated(
    worlds: &WorldEnumeration,
    scores: &[f64],
    k: usize,
) -> Option<(Vec<TupleId>, f64)> {
    if k == 0 {
        return None;
    }
    let mut mass: std::collections::HashMap<Vec<TupleId>, f64> = std::collections::HashMap::new();
    for (w, p) in &worlds.worlds {
        if w.len() < k {
            continue;
        }
        *mass.entry(w.top_k(scores, k)).or_insert(0.0) += p;
    }
    mass.into_iter()
        .filter(|&(_, p)| p > 0.0)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(b.0.cmp(&a.0)))
        .map(|(set, p)| (set, p.ln()))
}

// ---------------------------------------------------------------------
// k-selection (Liu et al., DASFAA 2010): best expected max-score set
// ---------------------------------------------------------------------

/// The optimal k-selection set (score-descending order) and its expected
/// best-available score. Returns `None` for `k = 0` or an empty relation.
///
/// k-selection returns the *set* of `k` tuples maximising
/// `V(S) = E[max_{t ∈ S ∩ pw} score(t)]` (absent max contributes 0). For
/// independent tuples the optimal set satisfies a suffix recurrence over
/// tuples in score order —
/// `f(i, j) = max(f(i+1, j), pᵢ·sᵢ + (1−pᵢ)·f(i+1, j−1))` — an `O(n·k)`
/// dynamic program. Scores are assumed non-negative, matching the "best
/// available tuple" semantics of the original definition (an empty
/// selection scores 0).
pub fn k_selection(db: &IndependentDb, k: usize) -> Option<(Vec<TupleId>, f64)> {
    let n = db.len();
    if k == 0 || n == 0 {
        return None;
    }
    let k = k.min(n);
    let order = db.by_score();
    // f[j] after processing suffix i.. = best value choosing j from suffix.
    // choice[i][j] records whether tuple at sorted position i is taken when
    // j slots remain.
    let mut f = vec![0.0f64; k + 1];
    let mut choice = vec![false; n * (k + 1)];
    for i in (0..n).rev() {
        let t = &order[i];
        // Process j downwards so f[j-1] is still the i+1 suffix value.
        for j in (1..=k).rev() {
            let take = t.prob * t.score + (1.0 - t.prob) * f[j - 1];
            if take > f[j] {
                f[j] = take;
                choice[i * (k + 1) + j] = true;
            }
        }
    }
    // Reconstruct.
    let mut set = Vec::with_capacity(k);
    let mut j = k;
    for i in 0..n {
        if j == 0 {
            break;
        }
        if choice[i * (k + 1) + j] {
            set.push(order[i].id);
            j -= 1;
        }
    }
    Some((set, f[k]))
}

/// Evaluates the k-selection objective `V(S)` for an explicit selection
/// (any order):
/// `V(S) = Σ_{t ∈ S} score(t)·p(t)·Π_{t' ∈ S, score(t') > score(t)} (1 − p(t'))`.
pub fn selection_value(db: &IndependentDb, set: &[TupleId]) -> f64 {
    let mut members: Vec<TupleId> = set.to_vec();
    members.sort_unstable();
    let scores: Vec<f64> = members.iter().map(|&t| db.tuple(t).score).collect();
    let mut value = 0.0;
    let mut all_above_absent = 1.0;
    for i in top_k_desc(&scores, scores.len(), "no NaN scores") {
        let t = db.tuple(members[i]);
        value += t.score * t.prob * all_above_absent;
        all_above_absent *= 1.0 - t.prob;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xtuple_candidates_match_one_kernel_run_per_position() {
        use crate::weights::PositionWeight;
        for (n, seed) in [(0, 0), (1, 1), (300, 2), (700, 3)] {
            let tree = prf_datasets::syn_xor_tree(n, seed);
            for k in [0, 1, 7, 50] {
                let mut per_j = PositionalCandidates::new(k);
                for j in 1..=k {
                    let w = PositionWeight { j };
                    let vals = crate::xtuple::prf_omega_rank_xtuple(&tree, &w).unwrap();
                    for (t, v) in vals.iter().enumerate() {
                        per_j.push(j - 1, v.re, TupleId(t as u32));
                    }
                }
                let table = positional_candidates_tree(&tree, k);
                for pos in 0..k {
                    let bits = |l: &[(f64, TupleId)]| -> Vec<(u64, TupleId)> {
                        l.iter().map(|&(p, t)| (p.to_bits(), t)).collect()
                    };
                    assert_eq!(
                        bits(table.at(pos)),
                        bits(per_j.at(pos)),
                        "n {n} k {k} pos {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_table_caps_and_orders() {
        let mut t = PositionalCandidates::new(2);
        t.push(0, 0.3, TupleId(0));
        t.push(0, 0.5, TupleId(1));
        t.push(0, 0.4, TupleId(2));
        t.push(0, 0.0, TupleId(3)); // ignored
        assert_eq!(t.at(0), &[(0.5, TupleId(1)), (0.4, TupleId(2))]);
        assert_eq!(t.positions(), 2);
    }

    #[test]
    fn distinct_selection_skips_used_tuples() {
        let mut t = PositionalCandidates::new(2);
        t.push(0, 0.9, TupleId(7));
        t.push(1, 0.8, TupleId(7));
        t.push(1, 0.2, TupleId(3));
        assert_eq!(
            t.select_distinct(),
            vec![(0.9, TupleId(7)), (0.2, TupleId(3))]
        );
        assert_eq!(
            t.select_with_duplicates(),
            vec![Some(TupleId(7)), Some(TupleId(7))]
        );
    }

    #[test]
    fn k_selection_prefers_a_safe_score_for_one_slot() {
        // With one slot, a safe mid score can beat a risky high score.
        let db = IndependentDb::from_pairs([(100.0, 0.1), (40.0, 1.0)]).unwrap();
        let (set, v) = k_selection(&db, 1).unwrap();
        assert_eq!(set, vec![TupleId(1)]);
        assert!((v - 40.0).abs() < 1e-12);
        // With two slots we take both; the risky one shields nothing.
        let (set2, v2) = k_selection(&db, 2).unwrap();
        assert_eq!(set2.len(), 2);
        assert!((v2 - (0.1 * 100.0 + 0.9 * 40.0)).abs() < 1e-12);
    }

    #[test]
    fn k_selection_handles_zero_and_oversized_k() {
        let db = IndependentDb::from_pairs([(10.0, 0.5)]).unwrap();
        assert!(k_selection(&db, 0).is_none());
        let (set, _) = k_selection(&db, 5).unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn enumerated_utop_matches_independent_sweep() {
        let db =
            IndependentDb::from_pairs([(10.0, 0.4), (9.0, 0.9), (8.0, 0.5), (7.0, 0.7)]).unwrap();
        let worlds = db.enumerate_worlds(1 << 10).unwrap();
        let scores = db.scores();
        for k in 1..=3 {
            let (s1, lp1) = most_probable_topk_independent(&db, k).unwrap();
            let (s2, lp2) = most_probable_topk_enumerated(&worlds, &scores, k).unwrap();
            assert_eq!(s1, s2, "k={k}");
            assert!((lp1 - lp2).abs() < 1e-10, "k={k}: {lp1} vs {lp2}");
        }
    }
}
