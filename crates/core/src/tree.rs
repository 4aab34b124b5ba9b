//! Ranking over probabilistic and/xor trees (Sections 4.2–4.3).
//!
//! For a tuple `t` at sorted position `i`, label leaves of the tree as
//! follows: leaves ranked above `t` (higher score) get the variable `x`, the
//! leaf `t` itself gets `y`, everything else gets the constant `1`. By
//! Theorem 1 the resulting generating function `Fⁱ(x, y) = A(x) + B(x)·y`
//! satisfies `Pr(r(t) = j) = [x^{j−1}] B(x)`.
//!
//! The generating function is multilinear in its leaf labels, so `B` is
//! the gradient `∂F/∂leaf(t)`: the product of the ∨ edge probabilities and
//! the ∧ sibling values on `t`'s leaf-to-root path, with no `y` label
//! anywhere. Walking the tuples in score order flips one leaf `1 → x` per
//! step, so every walk here is an instantiation of the incremental engine
//! in [`crate::incremental`] — cached per-node fold state, one gradient
//! read and one path recombination per tuple
//! ([`IncrementalGf::gradient_step`]) — over a suitable ring:
//!
//! 1. [`prf_rank_tree`] — truncated bivariate polynomials
//!    ([`RankPoly`]): exact PRFω(h)/PT(h) on arbitrary trees in
//!    `O(depth·log fanout·h)` ring work per tuple instead of the
//!    `O(n·h)`-per-tuple full refold (Algorithm 2), which is retained as
//!    [`prf_rank_tree_refold`] — the differential-test oracle and the
//!    ablation baseline;
//! 2. [`prfe_rank_tree`] — scalars (ANDXOR-PRFe-RANK, Algorithm 3, made
//!    division-free): `O(Σᵢ dᵢ + n log n)` total, generic
//!    over any [`GfValue`] scalar — plain/complex, [`Scaled`], or dual
//!    numbers — with [`prfe_rank_tree_recompute`] as the full-refold
//!    oracle;
//! 3. [`prf_rank_tree_interp`] — evaluate the tree at the roots of unity
//!    and recover coefficients with one inverse FFT per tuple
//!    (Appendix B.2);
//! 4. [`expected_ranks_tree`] — the same machinery over dual numbers for
//!    expected ranks (Cormode et al.) on correlated data.

#![allow(clippy::needless_range_loop)] // index loops pair several parallel arrays

use std::sync::OnceLock;
use std::time::Instant;

use prf_numeric::fft::interpolate_from_roots_of_unity;
use prf_numeric::{Complex, Dual, GfValue, Poly, RankPoly, Scaled, YLin};
use prf_pdb::tuple::top_k_desc;
use prf_pdb::{AndXorTree, Tuple, TupleId};

use crate::incremental::{EvalPlan, GfStats, IncrementalGf};
use crate::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec, Visit};
use crate::query::cut::{envelope, Cap, Cut, TopkCarry};
use crate::weights::WeightFunction;

/// Tuple processing order (score descending, id ascending) and its inverse
/// permutation, shared by all tree algorithms. Public so that callers that
/// evaluate many PRFe instances over one tree (PRFe mixtures) can sort once.
pub fn score_order(tree: &AndXorTree) -> (Vec<TupleId>, Vec<usize>) {
    let scores = tree.scores();
    let order: Vec<TupleId> = top_k_desc(scores, scores.len(), "scores must not be NaN")
        .into_iter()
        .map(|i| TupleId(i as u32))
        .collect();
    let mut pos = vec![0usize; order.len()];
    for (i, t) in order.iter().enumerate() {
        pos[t.index()] = i;
    }
    (order, pos)
}

pub(crate) fn tuple_view(tree: &AndXorTree, marginals: &[f64], t: TupleId) -> Tuple {
    Tuple {
        id: t,
        score: tree.score(t),
        prob: marginals[t.index()],
    }
}

/// Cached per-relation walk artifacts — everything a tree walk otherwise
/// rebuilds on every call: the score order and its inverse permutation, the
/// tuple marginals, the compiled combine plan, and (built on first use by a
/// truncated weight request) the x-tuple groups. One `TreePrepared`
/// serves any number of serial, sharded, single-query, or batched walks
/// over the same tree (per-walk evaluator *state* is built fresh each walk;
/// only this immutable skeleton is shared), which is what lets a serving
/// layer amortize the `O(n log n)` sort and `O(tree)` plan compilation
/// across flushes instead of paying them per flush.
#[derive(Clone)]
pub(crate) struct TreePrepared {
    pub(crate) order: Vec<TupleId>,
    pub(crate) pos: Vec<usize>,
    pub(crate) marginals: Vec<f64>,
    pub(crate) plan: EvalPlan,
    /// [`AndXorTree::x_tuple_groups`], computed lazily; a structural
    /// mutation (insert) must reset it.
    pub(crate) groups: OnceLock<Option<Vec<Vec<TupleId>>>>,
}

impl TreePrepared {
    pub(crate) fn new(tree: &AndXorTree) -> Self {
        let (order, pos) = score_order(tree);
        TreePrepared {
            order,
            pos,
            marginals: tree.marginals(),
            plan: EvalPlan::new(tree),
            groups: OnceLock::new(),
        }
    }

    /// The tree's x-tuple groups, or `None` when it is not in x-tuple form.
    fn x_tuple_groups(&self, tree: &AndXorTree) -> Option<&[Vec<TupleId>]> {
        self.groups.get_or_init(|| tree.x_tuple_groups()).as_deref()
    }
}

/// `Υ(t) = Σ_{j ≤ cap} ω(t, j)·[x^{j−1}] B(x)` with `B = scale·b` — read
/// off a walk's gradient or a refolded generating function's `y` part.
pub(crate) fn upsilon_from_gf(
    b: &Poly,
    scale: f64,
    tv: &Tuple,
    omega: &dyn WeightFunction,
    cap: usize,
) -> Complex {
    let mut ups = Complex::ZERO;
    for (j0, &c) in b.coeffs().iter().enumerate().take(cap) {
        if c != 0.0 {
            ups += omega.weight(tv, j0 + 1) * (scale * c);
        }
    }
    ups
}

/// The serial score-order walk behind every single-consumer tree ranking:
/// all leaves start at `unprocessed`; at each tuple of `order`, `read`
/// sees its rank generating function as the gradient `(G, s)` (see
/// [`IncrementalGf::gradient`]) and its leaf then flips to `processed`.
pub(crate) fn gradient_walk<T: GfValue>(
    plan: &EvalPlan,
    order: &[TupleId],
    unprocessed: T,
    processed: &T,
    mut read: impl FnMut(TupleId, &T, f64),
) -> GfStats {
    let mut inc = plan.evaluator(|_| unprocessed.clone());
    for &t in order {
        inc.gradient_step(t, processed);
        let (g, s) = inc.gradient();
        read(t, g, s);
    }
    inc.stats()
}

// ---------------------------------------------------------------------
// 1. Symbolic expansion (Algorithm 2), incremental and full-refold
// ---------------------------------------------------------------------

/// Υ values for every tuple of a correlated relation under an arbitrary PRF
/// weight function (ANDXOR-PRF-RANK), via the incremental symbolic engine:
/// per tuple, one gradient read of its rank polynomial and one leaf
/// relabel, each `O(depth·log fanout)` truncated products, replace
/// Algorithm 2's full `O(tree size)` refold.
///
/// Respects [`WeightFunction::truncation`]: PT(h)/PRFω(h)/U-Rank only expand
/// the first `h` coefficients. Agreement with the literal Algorithm 2
/// ([`prf_rank_tree_refold`]) is enforced to 1e-9 by the differential suite
/// in `tests/incremental_engine.rs`.
pub fn prf_rank_tree(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    let cap = omega.truncation().unwrap_or(n).min(n);
    if cap == 0 {
        return out;
    }
    let prep = TreePrepared::new(tree);
    gradient_walk(
        &prep.plan,
        &prep.order,
        RankPoly::one().with_cap(cap),
        &RankPoly::x().with_cap(cap),
        |t, g, s| {
            let tv = tuple_view(tree, &prep.marginals, t);
            out[t.index()] = upsilon_from_gf(&g.a, s, &tv, omega, cap);
        },
    );
    out
}

/// The literal Algorithm 2: one full bottom-up refold of the entire tree
/// per tuple — `O(n²)`–`O(n²·h)` total. Retained as the differential-test
/// oracle for [`prf_rank_tree`] and as the ablation baseline the
/// `trees` criterion bench measures the incremental engine against.
pub fn prf_rank_tree_refold(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let cap = omega.truncation().unwrap_or(n).min(n);
    if cap == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    let marginals = tree.marginals();
    for (i, &t) in order.iter().enumerate() {
        let gf = tree.generating_function(|u| {
            if u == t {
                RankPoly::y().with_cap(cap)
            } else if pos[u.index()] < i {
                RankPoly::x().with_cap(cap)
            } else {
                RankPoly::one().with_cap(cap)
            }
        });
        let tv = tuple_view(tree, &marginals, t);
        out[t.index()] = upsilon_from_gf(&gf.b, 1.0, &tv, omega, cap);
    }
    out
}

/// The full positional-probability matrix on a tree:
/// `result[t][j−1] = Pr(r(t) = j)`. `O(n³)`-ish — test oracle scale.
pub fn rank_distributions_tree(tree: &AndXorTree) -> Vec<Vec<f64>> {
    let n = tree.n_tuples();
    let (order, pos) = score_order(tree);
    let mut out = vec![Vec::new(); n];
    for (i, &t) in order.iter().enumerate() {
        let gf = tree.generating_function(|u| {
            if u == t {
                RankPoly::y()
            } else if pos[u.index()] < i {
                RankPoly::x()
            } else {
                RankPoly::one()
            }
        });
        out[t.index()] = gf.rank_distribution(n);
    }
    out
}

// ---------------------------------------------------------------------
// 2. Roots-of-unity interpolation (Appendix B.2)
// ---------------------------------------------------------------------

/// Like [`prf_rank_tree`], but expands each `B(x)` by evaluating the tree at
/// the `m`-th roots of unity (`m` = next power of two `> n`) and applying one
/// inverse FFT — `O(n)` per evaluation point, `O(n²)` per tuple regardless of
/// tree shape (Appendix B.2, "Algorithm 2").
pub fn prf_rank_tree_interp(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    let marginals = tree.marginals();
    let m = (n + 1).next_power_of_two();
    // Precompute the m-th roots of unity ω^k (forward orientation e^{+2πi/m},
    // matching interpolate_from_roots_of_unity).
    let roots: Vec<Complex> = (0..m)
        .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / m as f64))
        .collect();
    let h = omega.truncation().unwrap_or(n).min(n);
    let mut bvals = vec![Complex::ZERO; m];
    for (i, &t) in order.iter().enumerate() {
        for (k, &x) in roots.iter().enumerate() {
            let v: YLin<Complex> = tree.generating_function(|u| {
                if u == t {
                    YLin::y()
                } else if pos[u.index()] < i {
                    YLin::pure(x)
                } else {
                    YLin::<Complex>::one()
                }
            });
            bvals[k] = v.b;
        }
        let coeffs = interpolate_from_roots_of_unity(&bvals);
        let tv = tuple_view(tree, &marginals, t);
        let mut ups = Complex::ZERO;
        for (j0, &c) in coeffs.iter().enumerate().take(h) {
            ups += omega.weight(&tv, j0 + 1) * c;
        }
        out[t.index()] = ups;
    }
    out
}

// ---------------------------------------------------------------------
// 3. Incremental PRFe (Algorithm 3, division-free)
// ---------------------------------------------------------------------

/// PRFe(α) over an and/xor tree — ANDXOR-PRFe-RANK (Algorithm 3) on the
/// division-free incremental engine, generic over any [`GfValue`] scalar.
///
/// Processed tuples' leaves carry `α`, the rest `1`; each step reads
/// `B(α)` as the current tuple's gradient, takes `Υ = B(α)·α`, and flips
/// the tuple's leaf to `α`. Total cost `O(Σᵢ dᵢ·log fanout + n log n)`
/// where `dᵢ` is the depth of tuple `i`. Use [`Complex`] / `f64` directly
/// at small scale, [`Scaled`] scalars (see [`prfe_rank_tree_scaled`]) when
/// products may underflow, or [`Dual`] for derivatives. Unlike the paper's formulation
/// there is **no division**: ∧ nodes recombine cached sibling products, so
/// `p = 1` leaves, zero-probability edges and `α = 0` need no zero-count
/// bookkeeping.
pub fn prfe_rank_tree<T: GfValue>(tree: &AndXorTree, alpha: T) -> Vec<T> {
    let n = tree.n_tuples();
    let mut out = vec![T::zero(); n];
    if n == 0 {
        return out;
    }
    let (order, _) = score_order(tree);
    let plan = EvalPlan::new(tree);
    gradient_walk(&plan, &order, T::one(), &alpha, |t, g, s| {
        // Υ(t) = B(α)·α.
        out[t.index()] = g.scale(s).mul(&alpha);
    });
    out
}

/// [`prfe_rank_tree`] in scaled-complex arithmetic — underflow-proof at any
/// scale; keys for ranking come from
/// [`Scaled::magnitude_key`](prf_numeric::Scaled::magnitude_key).
pub fn prfe_rank_tree_scaled(tree: &AndXorTree, alpha: Complex) -> Vec<Scaled<Complex>> {
    prfe_rank_tree(tree, Scaled::new(alpha))
}

/// Recompute-from-scratch PRFe on a tree: one full `O(node count)` fold per
/// tuple using [`YLin`] values. `O(n²)` total — the full-refold oracle that
/// the incremental engine is differential-tested (and benchmarked) against.
pub fn prfe_rank_tree_recompute(tree: &AndXorTree, alpha: Complex) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    for (i, &t) in order.iter().enumerate() {
        let v: YLin<Complex> = tree.generating_function(|u| {
            if u == t {
                YLin::y()
            } else if pos[u.index()] < i {
                YLin::pure(alpha)
            } else {
                YLin::<Complex>::one()
            }
        });
        // Υ = B(α)·α.
        out[t.index()] = v.b * alpha;
    }
    out
}

// ---------------------------------------------------------------------
// 4. Expected ranks on trees (dual numbers)
// ---------------------------------------------------------------------

/// Expected ranks over an and/xor tree, in `O(Σᵢ dᵢ + n log n)`:
/// `E-Rank(t) = er₁(t) + er₂(t)` with
///
/// * `er₁(t) = Σᵢ i·Pr(r(t) = i)` — the derivative at `α = 1` of the PRFe
///   value `Υ_α(t) = Σᵢ Pr(r(t)=i)·αⁱ`, obtained by running the incremental
///   engine over dual numbers;
/// * `er₂(t) = Σ_{pw: t∉pw} Pr(pw)·|pw|` — the derivative at `x = 1` of
///   `A(x) = F(x, y=0)` under the labelling that marks *every* other leaf
///   `x`, obtained from a second incremental pass.
///
/// Tuples absent from a world are charged that world's size, following
/// Cormode et al. Lower is better; callers typically rank by `−E-Rank`.
pub fn expected_ranks_tree(tree: &AndXorTree) -> Vec<f64> {
    let n = tree.n_tuples();
    if n == 0 {
        return Vec::new();
    }
    let alpha = Dual::variable(1.0);

    // er₁ via the incremental engine over duals.
    let er1: Vec<Dual> = prfe_rank_tree(tree, alpha);

    // er₂: all leaves labelled x = 1+ε, the target labelled y; read dA/dε
    // (shared with the batched walk).
    let plan = EvalPlan::new(tree);
    let er2 = erank_absent_term(&plan, n);

    (0..n).map(|t| er1[t].d + er2[t]).collect()
}

// ---------------------------------------------------------------------
// 5. Batched multi-query walk (one score order, one plan, one pass)
// ---------------------------------------------------------------------

/// The parsed consumer set of a batched walk: which
/// [`SharedRequest`]s read the shared truncated-polynomial evaluator
/// (weight-based semantics — truncation views of one polynomial capped at
/// the *largest* requested horizon), which ride along as scalar evaluation
/// points (PRFe per α, expected ranks via dual numbers), and — on x-tuple
/// trees — which truncated weights skip the walk for the
/// `O(n·h·log n)` x-tuple kernel.
pub(crate) struct BatchConsumers<'w> {
    /// `(request index, ω, extraction cap)` — all served by ONE polynomial
    /// evaluator.
    weights: Vec<(usize, &'w (dyn WeightFunction + Sync), usize)>,
    /// `(request index, ω, extraction cap)` — truncated weights answered
    /// by ONE run of [`crate::xtuple`]'s kernel instead of the walk
    /// (x-tuple trees only).
    xtuple: Vec<(usize, &'w (dyn WeightFunction + Sync), usize)>,
    /// `(request index, kind)` — one scalar evaluator each.
    scalars: Vec<(usize, ScalarKind)>,
    /// The shared polynomial cap (max over `weights`; 0 = no polynomial).
    cap: usize,
}

#[derive(Clone, Copy)]
enum ScalarKind {
    /// PRFe(α), plain complex.
    Complex(Complex),
    /// PRFe(α), scaled; `true` converts to log-domain keys at extraction.
    Scaled(Complex, bool),
    /// Expected ranks: the in-world term er₁ via `α = 1 + ε`.
    Erank,
}

impl<'w> BatchConsumers<'w> {
    /// Parses `spec`; with `xtuple` set, truncated weight requests are
    /// routed to the x-tuple kernel instead of the polynomial evaluator.
    pub(crate) fn parse(spec: &'w SharedWalkSpec, n: usize, xtuple: bool) -> Self {
        let mut weights = Vec::new();
        let mut xtuple_weights = Vec::new();
        let mut scalars = Vec::new();
        let mut cap = 0usize;
        for (i, req) in spec.requests.iter().enumerate() {
            match req {
                SharedRequest::Weight(w) => {
                    let c = req.weight_cap(n).expect("weight request has a cap");
                    if xtuple && w.truncation().is_some() {
                        xtuple_weights.push((i, w.as_ref() as _, c));
                    } else {
                        cap = cap.max(c);
                        weights.push((i, w.as_ref() as _, c));
                    }
                }
                SharedRequest::PrfeComplex(a) => scalars.push((i, ScalarKind::Complex(*a))),
                SharedRequest::PrfeLog(a) => {
                    scalars.push((i, ScalarKind::Scaled(Complex::real(*a), true)))
                }
                SharedRequest::PrfeScaled(a) => scalars.push((i, ScalarKind::Scaled(*a, false))),
                SharedRequest::ExpectedRanks => scalars.push((i, ScalarKind::Erank)),
            }
        }
        BatchConsumers {
            weights,
            xtuple: xtuple_weights,
            scalars,
            cap,
        }
    }

    /// `true` when an expected-ranks consumer is present (it needs the
    /// extra absent-worlds pass after the main walk).
    fn wants_erank(&self) -> bool {
        self.scalars
            .iter()
            .any(|(_, k)| matches!(k, ScalarKind::Erank))
    }
}

/// The mutable per-shard state of a batched walk: one polynomial evaluator
/// (if any weight consumer exists) plus one scalar evaluator per
/// PRFe/E-Rank consumer — all over ONE shared [`EvalPlan`].
/// Cloning snapshots every evaluator's fold state over the shared plan —
/// the parallel batch walk advances ONE walker set chunk by chunk and
/// clones a per-shard snapshot at each boundary.
#[derive(Clone)]
pub(crate) struct BatchWalkers<'p> {
    poly: Option<IncrementalGf<'p, RankPoly>>,
    scalars: Vec<ScalarWalker<'p>>,
    /// The polynomial evaluator's processed label: `x`, capped.
    x: RankPoly,
}

/// One scalar evaluator and its processed label `α`.
#[derive(Clone)]
enum ScalarWalker<'p> {
    Complex(IncrementalGf<'p, Complex>, Complex),
    Scaled(IncrementalGf<'p, Scaled<Complex>>, Scaled<Complex>, bool),
    Dual(IncrementalGf<'p, Dual>, Dual),
}

/// An evaluator whose leaves carry `x` where `processed` holds, `1`
/// elsewhere.
fn labelled<'p, T: GfValue>(
    plan: &'p EvalPlan,
    processed: &mut impl FnMut(TupleId) -> bool,
    one: T,
    x: &T,
) -> IncrementalGf<'p, T> {
    plan.evaluator(|t| if processed(t) { x.clone() } else { one.clone() })
}

impl<'p> BatchWalkers<'p> {
    /// Builds every evaluator directly in the labelling where tuples with
    /// `processed(t) == true` already carry their post-walk label (`x` /
    /// `α`) — the same fast-forward construction the sharded parallel walk
    /// uses for a single query.
    pub(crate) fn fast_forward(
        plan: &'p EvalPlan,
        consumers: &BatchConsumers,
        mut processed: impl FnMut(TupleId) -> bool,
    ) -> Self {
        let cap = consumers.cap;
        let x = RankPoly::x().with_cap(cap);
        let poly =
            (cap > 0).then(|| labelled(plan, &mut processed, RankPoly::one().with_cap(cap), &x));
        let scalars = consumers
            .scalars
            .iter()
            .map(|&(_, kind)| match kind {
                ScalarKind::Complex(a) => {
                    ScalarWalker::Complex(labelled(plan, &mut processed, Complex::ONE, &a), a)
                }
                ScalarKind::Scaled(a, log) => {
                    let a = Scaled::new(a);
                    ScalarWalker::Scaled(labelled(plan, &mut processed, Scaled::one(), &a), a, log)
                }
                ScalarKind::Erank => {
                    let a = Dual::variable(1.0);
                    ScalarWalker::Dual(labelled(plan, &mut processed, Dual::ONE, &a), a)
                }
            })
            .collect();
        BatchWalkers { poly, scalars, x }
    }

    /// Advances every evaluator so the leaves selected by `advance` carry
    /// their post-walk label (`x` / `α`), in one bulk bottom-up sweep per
    /// evaluator ([`IncrementalGf::set_leaves_bulk`]) — how the parallel
    /// batch walk extends the shared fold prefix from one shard boundary
    /// to the next before cloning a snapshot.
    pub(crate) fn advance_bulk(&mut self, mut advance: impl FnMut(TupleId) -> bool) {
        if let Some(inc) = &mut self.poly {
            inc.set_leaves_bulk(|t| advance(t).then(|| self.x.clone()));
        }
        for s in &mut self.scalars {
            match s {
                ScalarWalker::Complex(inc, a) => inc.set_leaves_bulk(|t| advance(t).then_some(*a)),
                ScalarWalker::Scaled(inc, a, _) => {
                    inc.set_leaves_bulk(|t| advance(t).then_some(*a))
                }
                ScalarWalker::Dual(inc, a) => inc.set_leaves_bulk(|t| advance(t).then_some(*a)),
            }
        }
    }

    /// One walk step at tuple `cur`, in every evaluator: read its gradient
    /// (for [`BatchWalkers::extract`]), then flip its leaf `1 → x`/`α`.
    pub(crate) fn step(&mut self, cur: TupleId) {
        if let Some(inc) = &mut self.poly {
            inc.gradient_step(cur, &self.x);
        }
        for s in &mut self.scalars {
            match s {
                ScalarWalker::Complex(inc, a) => inc.gradient_step(cur, a),
                ScalarWalker::Scaled(inc, a, _) => inc.gradient_step(cur, a),
                ScalarWalker::Dual(inc, a) => inc.gradient_step(cur, a),
            }
        }
    }

    /// Reads every consumer's Υ for the current tuple into position `at`
    /// of the answer buffers — `tv.id.index()` for full-length buffers
    /// (the serial walk), a shard-relative position for the parallel
    /// walk's shard-sized buffers.
    pub(crate) fn extract(
        &self,
        consumers: &BatchConsumers,
        tv: &Tuple,
        answers: &mut [SharedAnswer],
        at: usize,
    ) {
        let t = at;
        if let Some(inc) = &self.poly {
            let (g, s) = inc.gradient();
            for (req, w, cap) in &consumers.weights {
                if let SharedAnswer::Complex(buf) = &mut answers[*req] {
                    buf[t] = upsilon_from_gf(&g.a, s, tv, *w, *cap);
                }
            }
        }
        // Υ = B(α)·α, with B(α) = s·G.
        for ((req, _), walker) in consumers.scalars.iter().zip(&self.scalars) {
            match walker {
                ScalarWalker::Complex(inc, a) => {
                    if let SharedAnswer::Complex(buf) = &mut answers[*req] {
                        let (g, s) = inc.gradient();
                        buf[t] = g.scale(s).mul(a);
                    }
                }
                ScalarWalker::Scaled(inc, a, log) => {
                    let (g, s) = inc.gradient();
                    let v = g.scale(s).mul(a);
                    match (&mut answers[*req], log) {
                        (SharedAnswer::Log(buf), true) => {
                            buf[t] = v.magnitude_key() * std::f64::consts::LN_2;
                        }
                        (SharedAnswer::Scaled(buf), false) => buf[t] = v,
                        _ => unreachable!("buffer shape matches request shape"),
                    }
                }
                ScalarWalker::Dual(inc, a) => {
                    if let SharedAnswer::Ranks(buf) = &mut answers[*req] {
                        // er₁ for now; the absent-worlds term er₂ is added
                        // after the walk.
                        let (g, s) = inc.gradient();
                        buf[t] = g.scale(s).mul(a).d;
                    }
                }
            }
        }
    }

    /// Merged memory accounting across every live evaluator.
    pub(crate) fn stats(&self) -> GfStats {
        let mut stats = self
            .poly
            .as_ref()
            .map(IncrementalGf::stats)
            .unwrap_or_default();
        for s in &self.scalars {
            stats = stats.merge(match s {
                ScalarWalker::Complex(inc, _) => inc.stats(),
                ScalarWalker::Scaled(inc, _, _) => inc.stats(),
                ScalarWalker::Dual(inc, _) => inc.stats(),
            });
        }
        stats
    }
}

/// The absent-worlds term of expected ranks,
/// `er₂(t) = Σ_{pw: t∉pw} Pr(pw)·|pw|`, via a second leaf-relabeling pass
/// over the shared plan (every other leaf carries `1 + ε`; read `dA/dε`).
/// This pass keeps its `y` label: `A = F|leaf=0` taken as `F − label·G`
/// would cancel.
pub(crate) fn erank_absent_term(plan: &EvalPlan, n: usize) -> Vec<f64> {
    let alpha = Dual::variable(1.0);
    let mut er2 = vec![0.0f64; n];
    let mut inc = plan.evaluator(|_| YLin::pure(alpha));
    for t in 0..n {
        if t > 0 {
            inc.set_leaf(TupleId((t - 1) as u32), YLin::pure(alpha));
        }
        inc.set_leaf(TupleId(t as u32), YLin::y());
        er2[t] = inc.root().a.d;
    }
    er2
}

/// Adds er₂ into every expected-ranks answer buffer (which holds er₁ after
/// the main walk).
fn finish_erank_answers(
    consumers: &BatchConsumers,
    plan: &EvalPlan,
    n: usize,
    answers: &mut [SharedAnswer],
) {
    if !consumers.wants_erank() {
        return;
    }
    let er2 = erank_absent_term(plan, n);
    for (req, kind) in &consumers.scalars {
        if matches!(kind, ScalarKind::Erank) {
            if let SharedAnswer::Ranks(buf) = &mut answers[*req] {
                for (b, e) in buf.iter_mut().zip(&er2) {
                    *b += e;
                }
            }
        }
    }
}

/// Serves a whole [`SharedWalkSpec`] from **one** score-order walk over
/// **one** compiled plan: the batched form of [`prf_rank_tree`] /
/// [`prfe_rank_tree`] / [`expected_ranks_tree`]. The walk runs serially, or
/// sharded over `spec.threads` workers once every shard clears
/// [`crate::parallel::PARALLEL_MIN_SHARD_TUPLES`] (sharding below that
/// floor loses to serial outright, so it degrades to the serial route with
/// identical answers). On an x-tuple tree, truncated weight requests are
/// answered by [`crate::xtuple`]'s blocked kernel instead — chosen by the
/// tree's shape, one kernel run at the largest horizon for all of them —
/// and need no walk at all. A request that `carry` caps at `k` and whose
/// weight has an envelope stops at the first block end that settles its
/// top `k`, reported in [`SharedWalkOut::visits`]. `start` marks when the
/// caller began, so the reported walk time includes any preparation it
/// did.
///
/// Returns `None` when the spec's cancellation token trips mid-walk (every
/// consumer gave up — see `SharedWalkSpec::cancel`).
pub(crate) fn batch_walk_tree(
    tree: &AndXorTree,
    spec: &SharedWalkSpec,
    carry: &TopkCarry,
    prep: &TreePrepared,
    start: Instant,
) -> Option<SharedWalkOut> {
    let n = tree.n_tuples();
    let truncated = spec
        .requests
        .iter()
        .any(|r| matches!(r, SharedRequest::Weight(w) if w.truncation().is_some()));
    let groups = if n > 0 && truncated {
        prep.x_tuple_groups(tree)
    } else {
        None
    };
    let consumers = BatchConsumers::parse(spec, n, groups.is_some());
    let mut answers = spec.answer_buffers(n);
    let walks = consumers.cap > 0 || !consumers.scalars.is_empty();
    let stats = if n > 0 && walks {
        let stats = match crate::parallel::effective_walk_threads(n, spec.threads) {
            t if t > 1 => {
                let cancel = spec.cancel.as_ref();
                crate::parallel::walk_shards(tree, cancel, &consumers, prep, t, &mut answers)?
            }
            _ => walk_serial(tree, spec, &consumers, prep, &mut answers)?,
        };
        // The E-Rank absent-worlds pass holds one transient scalar
        // evaluator; it is not part of the reported walk accounting.
        finish_erank_answers(&consumers, &prep.plan, n, &mut answers);
        Some(stats)
    } else {
        None
    };
    let mut visits = Vec::new();
    if let Some(groups) = groups.filter(|_| !consumers.xtuple.is_empty()) {
        let mut xs: Vec<crate::xtuple::Consumer> = consumers
            .xtuple
            .iter()
            .map(|&(req, omega, h)| {
                let cut = match carry.requests.get(req).map(|r| &r.cap) {
                    Some(&Cap::Pending(k)) if k < n => envelope(omega, h).map(|e| (Cut::new(k), e)),
                    _ => None,
                };
                crate::xtuple::Consumer {
                    omega: omega as &dyn WeightFunction,
                    h,
                    cut,
                }
            })
            .collect();
        let vals = crate::xtuple::rank_groups(
            tree,
            groups,
            &mut xs,
            &prep.order,
            &prep.marginals,
            || spec.is_cancelled(),
        )?;
        visits = vec![Visit::All; spec.requests.len()];
        for ((&(req, _, _), v), x) in consumers.xtuple.iter().zip(vals).zip(xs) {
            answers[req] = SharedAnswer::Complex(v);
            if let Some(e) = x.cut.and_then(|(cut, _)| cut.stop) {
                visits[req] = Visit::Prefix(prep.order[..e].to_vec());
            }
        }
    }
    Some(SharedWalkOut {
        answers,
        stats,
        walk_seconds: start.elapsed().as_secs_f64(),
        visits,
    })
}

/// The serial walk of [`batch_walk_tree`]: every consumer's Υ extracted at
/// each score step. `None` when cancelled.
fn walk_serial(
    tree: &AndXorTree,
    spec: &SharedWalkSpec,
    consumers: &BatchConsumers,
    prep: &TreePrepared,
    answers: &mut [SharedAnswer],
) -> Option<GfStats> {
    let mut walkers = BatchWalkers::fast_forward(&prep.plan, consumers, |_| false);
    for (i, &t) in prep.order.iter().enumerate() {
        // Cooperative cancellation: abandon the walk once every consumer
        // has given up (polled every 256 score steps).
        if i & 0xFF == 0 && spec.is_cancelled() {
            return None;
        }
        walkers.step(t);
        let tv = tuple_view(tree, &prep.marginals, t);
        walkers.extract(consumers, &tv, answers, t.index());
    }
    Some(walkers.stats())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::weights::*;
    use prf_pdb::{IndependentDb, NodeKind, TreeBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Figure 1 tree (see prf-pdb tests for the construction).
    fn figure1_tree() -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x1, 0.4, 120.0).unwrap();
        let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x2, 0.7, 130.0).unwrap();
        b.add_leaf(x2, 0.3, 80.0).unwrap();
        let x3 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x3, 0.4, 95.0).unwrap();
        b.add_leaf(x3, 0.6, 110.0).unwrap();
        let x4 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x4, 1.0, 105.0).unwrap();
        b.build().unwrap()
    }

    /// A random and/xor tree with explicit kind tracking, for differential
    /// testing against brute-force world enumeration.
    pub(crate) fn random_tree2(seed: u64, target_leaves: usize, max_depth: usize) -> AndXorTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let root_kind = if rng.gen_bool(0.5) {
            NodeKind::And
        } else {
            NodeKind::Xor
        };
        let mut b = TreeBuilder::new(root_kind);
        // Frontier of (node, kind, depth, remaining xor budget).
        let mut frontier = vec![(b.root(), root_kind, 0usize, 1.0f64)];
        let mut leaves = 0usize;
        while leaves < target_leaves {
            let idx = rng.gen_range(0..frontier.len());
            let (node, kind, depth, budget) = frontier[idx];
            let is_xor = matches!(kind, NodeKind::Xor);
            // Probability for this child's edge.
            let p = if is_xor {
                let p = rng.gen_range(0.0..budget.min(0.6));
                frontier[idx].3 -= p;
                p
            } else {
                1.0
            };
            let make_leaf = depth >= max_depth || rng.gen_bool(0.65);
            if make_leaf {
                let score = rng.gen_range(0.0..100.0);
                b.add_leaf(node, p, score).unwrap();
                leaves += 1;
            } else {
                let child_kind = if rng.gen_bool(0.5) {
                    NodeKind::And
                } else {
                    NodeKind::Xor
                };
                let child = b.add_inner(node, child_kind, p).unwrap();
                frontier.push((child, child_kind, depth + 1, 1.0));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn symbolic_rank_distributions_match_enumeration() {
        for seed in 0..8u64 {
            let tree = random_tree2(seed, 7, 3);
            let worlds = tree.enumerate_worlds(1 << 18).unwrap();
            let scores = tree.scores();
            let dists = rank_distributions_tree(&tree);
            for t in 0..tree.n_tuples() {
                let brute = worlds.rank_distribution(TupleId(t as u32), tree.n_tuples(), scores);
                for j in 0..tree.n_tuples() {
                    assert!(
                        (dists[t][j] - brute[j]).abs() < 1e-9,
                        "seed {seed} tuple {t} rank {j}: {} vs {}",
                        dists[t][j],
                        brute[j]
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_example_4_rank_probability() {
        let tree = figure1_tree();
        let d = rank_distributions_tree(&tree);
        // Pr(r(t₄)=3) = 0.216 — t₄ is our TupleId(3) (score 95).
        assert!((d[3][2] - 0.216).abs() < 1e-12, "got {}", d[3][2]);
    }

    #[test]
    fn incremental_prf_matches_refold_oracle() {
        for seed in 0..10u64 {
            let tree = random_tree2(seed, 12, 4);
            let weights: Vec<Box<dyn WeightFunction>> = vec![
                Box::new(StepWeight { h: 1 }),
                Box::new(StepWeight { h: 4 }),
                Box::new(ConstantWeight),
                Box::new(PositionWeight { j: 2 }),
                Box::new(ExponentialWeight::real(0.8)),
            ];
            for w in &weights {
                let inc = prf_rank_tree(&tree, w.as_ref());
                let refold = prf_rank_tree_refold(&tree, w.as_ref());
                for t in 0..tree.n_tuples() {
                    assert!(
                        inc[t].approx_eq(refold[t], 1e-9),
                        "seed {seed} {} t{t}: {} vs {}",
                        w.name(),
                        inc[t],
                        refold[t]
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_prfe_matches_recompute() {
        for seed in 0..10u64 {
            let tree = random_tree2(seed, 12, 4);
            for &alpha in &[0.3, 0.9, 1.0] {
                let a = Complex::real(alpha);
                let inc = prfe_rank_tree(&tree, a);
                let rec = prfe_rank_tree_recompute(&tree, a);
                for t in 0..tree.n_tuples() {
                    assert!(
                        inc[t].approx_eq(rec[t], 1e-9),
                        "seed {seed} α={alpha} t{t}: {} vs {}",
                        inc[t],
                        rec[t]
                    );
                }
            }
            // Complex α.
            let a = Complex::new(0.5, 0.4);
            let inc = prfe_rank_tree(&tree, a);
            let rec = prfe_rank_tree_recompute(&tree, a);
            for t in 0..tree.n_tuples() {
                assert!(inc[t].approx_eq(rec[t], 1e-9));
            }
        }
    }

    #[test]
    fn incremental_prfe_matches_symbolic_oracle() {
        let tree = figure1_tree();
        let alpha = 0.6;
        let inc = prfe_rank_tree(&tree, Complex::real(alpha));
        let dists = rank_distributions_tree(&tree);
        for t in 0..tree.n_tuples() {
            let oracle: f64 = dists[t]
                .iter()
                .enumerate()
                .map(|(j0, &p)| p * alpha.powi(j0 as i32 + 1))
                .sum();
            assert!(
                (inc[t].re - oracle).abs() < 1e-10,
                "t{t}: {} vs {oracle}",
                inc[t].re
            );
        }
    }

    #[test]
    fn incremental_handles_certain_tuples_alpha_zero() {
        // p = 1 leaves make factors exactly zero at α = 0 — the division-
        // based formulation needed zero-count bookkeeping; the sibling-
        // product engine needs nothing special.
        let tree = figure1_tree(); // t6 has p = 1
        let inc = prfe_rank_tree(&tree, Complex::real(0.0));
        let rec = prfe_rank_tree_recompute(&tree, Complex::real(0.0));
        for t in 0..tree.n_tuples() {
            assert!(inc[t].approx_eq(rec[t], 1e-12), "t{t}");
        }
        for t in 0..tree.n_tuples() {
            assert!(!inc[t].is_nan(), "t{t} must not be NaN");
        }
    }

    #[test]
    fn interp_matches_symbolic() {
        for seed in [3u64, 11, 42] {
            let tree = random_tree2(seed, 9, 3);
            let w = StepWeight { h: 4 };
            let sym = prf_rank_tree(&tree, &w);
            let itp = prf_rank_tree_interp(&tree, &w);
            for t in 0..tree.n_tuples() {
                assert!(
                    sym[t].approx_eq(itp[t], 1e-8),
                    "seed {seed} t{t}: {} vs {}",
                    sym[t],
                    itp[t]
                );
            }
        }
    }

    #[test]
    fn tree_prf_matches_independent_prf_on_independent_data() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.9),
            (9.0, 0.1),
            (8.0, 0.5),
            (7.0, 1.0),
            (6.0, 0.25),
        ])
        .unwrap();
        let tree = AndXorTree::from_independent(&db);
        let weights: Vec<Box<dyn WeightFunction>> = vec![
            Box::new(StepWeight { h: 3 }),
            Box::new(ConstantWeight),
            Box::new(PositionWeight { j: 2 }),
            Box::new(ExponentialWeight::real(0.8)),
        ];
        for w in &weights {
            let via_tree = prf_rank_tree(&tree, w.as_ref());
            let via_ind = crate::independent::prf_rank(&db, w.as_ref());
            for t in 0..db.len() {
                assert!(
                    via_tree[t].approx_eq(via_ind[t], 1e-9),
                    "{} t{t}: {} vs {}",
                    w.name(),
                    via_tree[t],
                    via_ind[t]
                );
            }
        }
    }

    #[test]
    fn scaled_tree_prfe_matches_plain_at_small_scale() {
        let tree = figure1_tree();
        let alpha = Complex::real(0.85);
        let plain = prfe_rank_tree(&tree, alpha);
        let scaled = prfe_rank_tree_scaled(&tree, alpha);
        for t in 0..tree.n_tuples() {
            assert!((scaled[t].to_plain().re - plain[t].re).abs() < 1e-10);
        }
    }

    #[test]
    fn scaled_walk_keeps_edge_products_below_f64_range() {
        // Tuple 1's path crosses two ∨ edges of 1e-200 before its first ∧
        // level: their product, 1e-400, is below f64 range, but the scaled
        // ring carries its own exponent and must keep it.
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let outer = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(outer, 1e-200, 10.0).unwrap();
        let inner = b.add_inner(outer, NodeKind::Xor, 1e-200).unwrap();
        b.add_leaf(inner, 1e-200, 5.0).unwrap();
        b.add_leaf(inner, 0.5, 1.0).unwrap();
        b.add_leaf(root, 1.0, 0.0).unwrap();
        let tree = b.build().unwrap();
        let alpha = 0.5;
        let vals = prfe_rank_tree_scaled(&tree, Complex::real(alpha));
        // Tuple 1 is present with probability 1e-400, and then first: the
        // only tuple above it is exclusive with it. So Υ = 1e-400·α.
        let want = alpha.log2() - 400.0 * 10f64.log2();
        let got = vals[1].magnitude_key();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn expected_ranks_match_brute_force() {
        for seed in 0..6u64 {
            let tree = random_tree2(seed, 8, 3);
            let worlds = tree.enumerate_worlds(1 << 18).unwrap();
            let scores = tree.scores();
            let got = expected_ranks_tree(&tree);
            for t in 0..tree.n_tuples() {
                let tid = TupleId(t as u32);
                let brute: f64 = worlds
                    .worlds
                    .iter()
                    .map(|(w, p)| match w.rank_of(tid, scores) {
                        Some(r) => p * r as f64,
                        None => p * w.len() as f64,
                    })
                    .sum();
                assert!(
                    (got[t] - brute).abs() < 1e-8,
                    "seed {seed} t{t}: {} vs {brute}",
                    got[t]
                );
            }
        }
    }

    #[test]
    fn truncated_tree_prf_reads_only_low_ranks() {
        let tree = figure1_tree();
        let full = prf_rank_tree(&tree, &StepWeight { h: 2 });
        let dists = rank_distributions_tree(&tree);
        for t in 0..tree.n_tuples() {
            let expect: f64 = dists[t][..2].iter().sum();
            assert!((full[t].re - expect).abs() < 1e-10);
        }
    }
}
