//! Generating-function ranking over tuple-independent relations
//! (Section 4.1 and 4.3 of the paper).
//!
//! With tuples sorted by score descending (`t₁ … tₙ`) and
//! `Tᵢ = {t₁ … tᵢ}`, the generating function
//!
//! ```text
//! Fⁱ(x) = ( Π_{t ∈ Tᵢ₋₁} (1 − p(t) + p(t)·x) ) · p(tᵢ)·x
//! ```
//!
//! has `Pr(r(tᵢ) = j)` as its coefficient of `xʲ` (Algorithm 1). The prefix
//! product `Gᵢ(x) = Π_{t ∈ Tᵢ₋₁}(…)` is maintained incrementally — one
//! `O(i)` linear-factor multiplication per step — giving `O(n²)` for a
//! general PRF, `O(n·h)` for PRFω(h) (only the first `h` coefficients are
//! read), and `O(n)` for PRFe after sorting, since PRFe only needs the
//! *numeric value* `Gᵢ(α)`. The sort happens once, when the
//! [`IndependentDb`] is built: every kernel here scans its stored score
//! order ([`IndependentDb::by_score`]) front to back.
//!
//! Unlike Eq. (2) of the paper we never divide by `Pr(tᵢ₋₁)`, so zero
//! probabilities need no special-casing.

use prf_numeric::{Complex, GfValue, Poly, Scaled};
use prf_pdb::tuple::{packed_desc, push_sorted, sort_tail_within, SORT_BLOCK};
use prf_pdb::{IndependentDb, Tuple, TupleId};

use crate::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec, Visit};
use crate::query::cut::{envelope, Cap, Cut, TopkCarry};
use crate::weights::WeightFunction;

/// Υ values for every tuple under an arbitrary PRF weight function
/// (Algorithm 1, IND-PRF-RANK).
///
/// `O(n·h)` when [`WeightFunction::truncation`] gives `h` (coefficients of
/// rank `> h` are never materialised because `ω` vanishes there), the full
/// `O(n²)` expansion otherwise. The result is indexed by tuple id.
///
/// ```
/// use prf_core::independent::prf_rank;
/// use prf_core::StepWeight;
/// use prf_pdb::IndependentDb;
///
/// let db = IndependentDb::from_pairs([(30.0, 0.5), (20.0, 0.6), (10.0, 0.4)])?;
/// // PT(1): Υ(t) = Pr(r(t) = 1).
/// let v = prf_rank(&db, &StepWeight { h: 1 });
/// assert!((v[0].re - 0.5).abs() < 1e-12);          // top scorer: just its own probability
/// assert!((v[1].re - 0.5 * 0.6).abs() < 1e-12);    // needs t0 absent
/// # Ok::<(), prf_pdb::PdbError>(())
/// ```
pub fn prf_rank(db: &IndependentDb, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = db.len();
    let h = omega.truncation().unwrap_or(n);
    let mut result = vec![Complex::ZERO; n];
    if n == 0 || h == 0 {
        return result;
    }
    // G holds the first h coefficients of Π (1 − p + p·x) over tuples seen
    // so far.
    let mut g = Poly::one();
    for t in db.by_score() {
        // Υ(t) = p(t)·Σ_{j=1..h} ω(t, j)·G[j−1].
        let mut upsilon = Complex::ZERO;
        for (m, &c) in g.coeffs().iter().enumerate().take(h) {
            if c != 0.0 {
                upsilon += omega.weight(t, m + 1) * c;
            }
        }
        result[t.id.index()] = upsilon * t.prob;
        g.mul_linear_in_place(1.0 - t.prob, t.prob, h);
    }
    result
}

/// The full positional-probability matrix: `result[t][j−1] = Pr(r(t) = j)`.
///
/// `O(n²)` time **and** memory — intended for moderate `n` (test oracles,
/// feature extraction for learning-to-rank on samples).
pub fn rank_distributions(db: &IndependentDb) -> Vec<Vec<f64>> {
    let n = db.len();
    let mut result = vec![Vec::new(); n];
    let mut g = Poly::one();
    for t in db.by_score() {
        let mut dist = vec![0.0; n];
        for (m, &c) in g.coeffs().iter().enumerate() {
            if m < n {
                dist[m] = c * t.prob;
            }
        }
        result[t.id.index()] = dist;
        g.mul_linear_in_place(1.0 - t.prob, t.prob, n);
    }
    result
}

/// PRFe(α) with a complex base: `O(n)` over the stored score order
/// (Section 4.3).
///
/// Returns plain complex Υ values; for large `n` and `|α| < 1` these
/// underflow (they shrink like `|α|`-weighted products) — use
/// [`prfe_rank_scaled`] when the *full* ranking matters, not just the top.
///
/// ```
/// use prf_core::independent::prfe_rank;
/// use prf_numeric::Complex;
/// use prf_pdb::IndependentDb;
///
/// // Example 5 of the paper: Υ(t₃) = F³(0.6) = 0.14592.
/// let db = IndependentDb::from_pairs([(30.0, 0.5), (20.0, 0.6), (10.0, 0.4)])?;
/// let v = prfe_rank(&db, Complex::real(0.6));
/// assert!((v[2].re - 0.14592).abs() < 1e-12);
/// # Ok::<(), prf_pdb::PdbError>(())
/// ```
pub fn prfe_rank(db: &IndependentDb, alpha: Complex) -> Vec<Complex> {
    let n = db.len();
    let mut result = vec![Complex::ZERO; n];
    let mut g = Complex::ONE; // Gᵢ(α)
    for t in db.by_score() {
        result[t.id.index()] = g * alpha * t.prob;
        g *= Complex::real(1.0 - t.prob) + alpha * t.prob;
    }
    result
}

/// PRFe(α) in scaled arithmetic: immune to underflow at any `n`.
///
/// Returns `Scaled<Complex>` Υ values whose
/// [`magnitude_key`](Scaled::magnitude_key) /
/// [`real_part_key`](prf_numeric::Scaled::real_part_key) give exact ranking
/// keys.
pub fn prfe_rank_scaled(db: &IndependentDb, alpha: Complex) -> Vec<Scaled<Complex>> {
    let n = db.len();
    let mut result = vec![Scaled::<Complex>::zero(); n];
    let alpha_s = Scaled::new(alpha);
    let mut g = Scaled::<Complex>::one();
    for t in db.by_score() {
        result[t.id.index()] = g.mul(&alpha_s).scale(t.prob);
        let factor = Scaled::new(Complex::real(1.0 - t.prob) + alpha * t.prob);
        g = g.mul(&factor);
    }
    result
}

/// Real-α PRFe ranking keys in log space: `ln Υ(tᵢ) = ln pᵢ + ln α +
/// Σ_{j<i} ln(1 − pⱼ + pⱼα)` — the cheapest underflow-free form
/// for `α ∈ (0, 1]`.
///
/// Tuples with `p = 0` get `-∞` keys, and so does every tuple when
/// `α = 0`, since `Υ = p·α·G` vanishes. Returns keys indexed by tuple id;
/// higher key = better rank. `None` for an `α` outside `[0, 1]` (or NaN),
/// which the log form cannot express — the rule the shared walk applies.
pub fn prfe_rank_log(db: &IndependentDb, alpha: f64) -> Option<Vec<f64>> {
    if !(0.0..=1.0).contains(&alpha) {
        return None;
    }
    let n = db.len();
    let mut result = vec![f64::NEG_INFINITY; n];
    let mut log_g = 0.0f64;
    let ln_alpha = alpha.ln();
    for t in db.by_score() {
        if t.prob > 0.0 && alpha > 0.0 && log_g > f64::NEG_INFINITY {
            result[t.id.index()] = log_g + t.prob.ln() + ln_alpha;
        }
        let factor = 1.0 - t.prob + t.prob * alpha;
        log_g += factor.ln(); // ln(0) = -inf propagates correctly
    }
    Some(result)
}

/// Positional probabilities for *one* tuple (`O(n)` memory): used by
/// brute-force comparisons and by feature extraction.
pub fn rank_distribution_of(db: &IndependentDb, target: prf_pdb::TupleId) -> Vec<f64> {
    let n = db.len();
    let mut g = Poly::one();
    for t in db.by_score() {
        if t.id == target {
            let mut dist = vec![0.0; n];
            for (m, &c) in g.coeffs().iter().enumerate() {
                if m < n {
                    dist[m] = c * t.prob;
                }
            }
            return dist;
        }
        g.mul_linear_in_place(1.0 - t.prob, t.prob, n);
    }
    unreachable!("target tuple not in database");
}

/// Serves a whole batched-walk request set from **one** sequential scan of
/// the relation's stored score order ([`IndependentDb::by_score`]) — the
/// independent-relation counterpart of `crate::tree::batch_walk_tree`. One
/// prefix polynomial `G(x)` truncated at the *largest* weight horizon
/// (every PRFω/PT consumer reads its own prefix of the coefficients — a
/// truncation view), one `O(1)`-per-step numeric accumulator per PRFe
/// consumer in its requested mode, and one running prefix mass per
/// expected-ranks consumer. Answers are written by tuple id. No sort runs
/// here, so the reported walk time is the scan alone.
///
/// Per-consumer answers are bit-identical to the corresponding closed-form
/// kernels ([`prf_rank`], [`prfe_rank`], [`prfe_rank_log`],
/// [`prfe_rank_scaled`], `expected_ranks_independent`): the loop bodies
/// are the same operations in the same order.
///
/// `carry` caps consumers at a `top_k`. A capped consumer whose keys have
/// a bound ([`Cut`]: a real non-negative rank-only weight, real-α PRFe
/// (`α ∈ [0, 1]`, any mode) or expected ranks) stops at the first score
/// position whose bound on every unread tuple's ranking key is strictly
/// below its `k`-th best key so far; the walk ends once every consumer has
/// stopped or the order is exhausted. A stopped consumer's answer is exact
/// on its visited prefix, reported in [`SharedWalkOut::visits`], and
/// holds the worst value of its shape beyond it. The stop point depends
/// only on the relation and that consumer's request and `k`. An uncapped
/// consumer the carry marks as ranking by its walk key also gets its keys
/// sorted ([`Visit::Stream`]): they come in score order, nearly sorted, and
/// are sorted block by block as the walk goes, unless one lands too far
/// from its score position — finalize then sorts the by-id answer.
///
/// When the carry describes a shard of a larger relation, the walk
/// resumes the carried cuts, applies the shard's prefix state to each
/// value as it is computed (the same operations a plain sharded walk
/// applies afterwards) and writes into the carried global buffers at the
/// shard's offset; the prefixes it reports then hold global ids of this
/// shard's visited tuples, for the cuts that stopped here, and its streams
/// carry global ids too. An uncapped sharded walk takes this route, with
/// cuts that never stop.
///
/// Returns `None` when the spec's cancellation token trips mid-walk (every
/// consumer gave up — see `SharedWalkSpec::cancel`), and for a log-domain
/// request whose α is outside `[0, 1]` or NaN, which this recurrence
/// cannot serve.
pub(crate) fn batch_walk_independent(
    db: &IndependentDb,
    spec: &SharedWalkSpec,
    carry: &mut TopkCarry,
) -> Option<SharedWalkOut> {
    let start = std::time::Instant::now();
    let n = db.len();
    if spec
        .requests
        .iter()
        .any(|r| matches!(r, SharedRequest::PrfeLog(a) if !(0.0..=1.0).contains(a)))
    {
        return None;
    }
    let shard = carry.shard.take();
    let offset = shard.as_ref().map_or(0, |s| s.offset);
    // Ranks reach every tuple from here to the end of the relation, and a
    // computed key went through one rounding per tuple of it.
    let reach = n + shard.as_ref().map_or(0, |s| s.tail);
    let global_n = offset + reach;

    // Parse the requests into per-kind accumulators.
    let mut accs = Vec::with_capacity(spec.requests.len());
    let mut cuts = Vec::with_capacity(spec.requests.len());
    carry
        .requests
        .resize_with(spec.requests.len(), Default::default);
    let real_unit = |a: &Complex| a.im == 0.0 && (0.0..=1.0).contains(&a.re);
    let mut streams = Vec::with_capacity(spec.requests.len());
    for (req, rc) in spec.requests.iter().zip(&mut carry.requests) {
        let point = rc.point.filter(|_| shard.is_some());
        let cap = std::mem::take(&mut rc.cap);
        // A cap of the whole relation or more can never stop early.
        let capped = match cap {
            Cap::Full => false,
            Cap::Pending(k) => k < global_n,
            Cap::Cut(_) => true,
        };
        let (acc, bounded) = match req {
            SharedRequest::Weight(w) => {
                let cap = req.weight_cap(n).expect("weight request has a cap");
                let envelope = capped
                    .then(|| envelope(w.as_ref(), w.truncation().map_or(reach, |h| h.min(reach))))
                    .flatten();
                let bounded = envelope.is_some();
                (Acc::Weight(w.as_ref(), cap, envelope), bounded)
            }
            SharedRequest::PrfeComplex(a) => (Acc::Complex(Complex::ONE, *a, point), real_unit(a)),
            SharedRequest::PrfeLog(a) => {
                let shift = point.map(|p| p.magnitude_key() * std::f64::consts::LN_2);
                (Acc::Log(0.0, *a, a.ln(), shift), true)
            }
            SharedRequest::PrfeScaled(a) => (
                Acc::Scaled(Scaled::<Complex>::one(), Scaled::new(*a), *a, point),
                real_unit(a),
            ),
            SharedRequest::ExpectedRanks => {
                let ranks = Ranks {
                    mass: 0.0,
                    world_size: db.expected_world_size(),
                    shift: shard.as_ref().map(|s| (s.c_pre, s.c_other)),
                };
                (Acc::Ranks(ranks), true)
            }
        };
        accs.push(acc);
        streams.push((rc.stream && !capped).then(|| Vec::with_capacity(n)));
        // A cut carried in keeps its keys even where this walk has no
        // bound for it: it then never stops here.
        cuts.push(match cap {
            Cap::Pending(k) if capped && bounded => Some(Cut::new(k)),
            Cap::Cut(cut) => Some(cut),
            _ => None,
        });
    }
    let bound = Bound {
        ops: global_n,
        max_prob: db
            .max_prob()
            .max(shard.as_ref().map_or(0.0, |s| s.tail_max_prob)),
        cross: shard
            .as_ref()
            .map_or(0, |s| if s.tail > 0 { reach } else { 0 }),
    };
    let entered_stopped: Vec<bool> = cuts
        .iter()
        .map(|c| c.as_ref().is_some_and(Cut::stopped))
        .collect();
    let mut answers = match shard {
        Some(s) => s.answers,
        None => spec.answer_buffers(n),
    };
    // Uncapped walks (the common full ranking) compile without the cut
    // bookkeeping.
    let mut walk = Walk {
        accs: &mut accs,
        answers: &mut answers,
        cuts: &mut cuts,
        streams: &mut streams,
    };
    if walk.cuts.iter().any(Option::is_some) {
        walk.scan::<true>(db, spec, offset, &bound)?;
    } else {
        walk.scan::<false>(db, spec, offset, &bound)?;
    }

    let visits = cuts
        .iter()
        .zip(&entered_stopped)
        .zip(streams)
        .map(|((cut, &entered), stream)| {
            // The last block of a stream is still to be sorted in.
            if let Some(mut keys) = stream {
                let from = keys.len() - keys.len() % SORT_BLOCK;
                if sort_tail_within(&mut keys, from) {
                    return Visit::Stream(keys);
                }
            }
            match cut.as_ref().filter(|_| !entered).and_then(|c| c.stop) {
                Some(stop) => Visit::Prefix(
                    db.by_score()[..stop]
                        .iter()
                        .map(|t| TupleId((offset + t.id.index()) as u32))
                        .collect(),
                ),
                None => Visit::All,
            }
        })
        .collect();
    for (rc, cut) in carry.requests.iter_mut().zip(cuts) {
        rc.cap = cut.map_or(Cap::Full, Cap::Cut);
    }
    Some(SharedWalkOut {
        answers,
        stats: None, // closed-form kernels: no incremental evaluator
        walk_seconds: start.elapsed().as_secs_f64(),
        visits,
    })
}

/// The per-consumer state of one [`batch_walk_independent`] run, parallel
/// to the requests: running accumulators, answer buffers, cuts of capped
/// consumers and visit-order key streams.
struct Walk<'a, 'w> {
    accs: &'a mut [Acc<'w>],
    answers: &'a mut [SharedAnswer],
    cuts: &'a mut [Option<Cut>],
    streams: &'a mut [Option<Vec<u128>>],
}

impl Walk<'_, '_> {
    /// The score-order loop of [`batch_walk_independent`]: evaluates every
    /// consumer at every position, writing at `offset + id` and pushing
    /// streamed keys, stopping `CAPPED` consumers at their cuts and the
    /// loop once all have stopped. `None` when cancelled.
    fn scan<const CAPPED: bool>(
        &mut self,
        db: &IndependentDb,
        spec: &SharedWalkSpec,
        offset: usize,
        bound: &Bound,
    ) -> Option<()> {
        // The largest horizon a walking weight consumer reads.
        let poly_cap = |accs: &[Acc], cuts: &[Option<Cut>]| {
            accs.iter()
                .zip(cuts)
                .filter_map(|(acc, cut)| match acc {
                    Acc::Weight(_, cap, _) if !cut.as_ref().is_some_and(Cut::stopped) => Some(*cap),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        let mut cap_max = poly_cap(self.accs, self.cuts);
        let mut walking = self
            .cuts
            .iter()
            .filter(|c| !c.as_ref().is_some_and(Cut::stopped))
            .count();
        // The shared prefix polynomial, capped at the largest horizon still
        // read.
        let mut g_poly = Poly::one();
        for (step, t) in db.by_score().iter().enumerate() {
            if CAPPED && walking == 0 {
                break;
            }
            // Cooperative cancellation: abandon the walk once every consumer
            // has given up (polled every 256 score steps).
            if step & 0xFF == 0 && spec.is_cancelled() {
                return None;
            }
            let id = offset + t.id.index();
            let mut weight_stopped = false;
            let consumers = self
                .accs
                .iter_mut()
                .zip(self.answers.iter_mut())
                .zip(self.cuts.iter_mut())
                .zip(self.streams.iter_mut());
            for (((acc, answer), cut), stream) in consumers {
                if let (true, Some(cut)) = (CAPPED, &mut *cut) {
                    if cut.stopped() {
                        continue;
                    }
                    if cut.stops_at(step, acc.bound(&g_poly, bound)) {
                        walking -= 1;
                        weight_stopped |= matches!(acc, Acc::Weight(..));
                        continue;
                    }
                }
                acc.eval(answer, t, id, &g_poly);
                let key = answer.walk_key(id);
                // A key that lands far from its score position ends the
                // stream: sorting by id is then as good.
                if let Some(keys) = stream {
                    if !push_sorted(keys, packed_desc(key, id)) {
                        *stream = None;
                    }
                }
                if let (true, Some(cut)) = (CAPPED, cut) {
                    cut.offer(key, id);
                }
            }
            if weight_stopped {
                cap_max = poly_cap(self.accs, self.cuts);
            }
            if cap_max > 0 {
                g_poly.mul_linear_in_place(1.0 - t.prob, t.prob, cap_max);
            }
        }
        Some(())
    }
}

/// What a capped consumer's bound needs besides its own running state.
struct Bound {
    /// Roundings a computed key went through: the whole relation's size.
    ops: usize,
    /// A bound on the probability of every unread tuple (`p̂`).
    max_prob: f64,
    /// Unread tuples in later shards, whose mass above is summed apart.
    cross: usize,
}

/// One consumer's running state in [`batch_walk_independent`]. The
/// optional last fields hold a shard's prefix state: `P_k(α)` for PRFe
/// (log-domain: `ln P_k(α)`).
enum Acc<'w> {
    /// The weight, its extraction cap and, when capped, its envelope
    /// ([`envelope`]) — reads the shared prefix polynomial.
    Weight(
        &'w (dyn WeightFunction + Send + Sync),
        usize,
        Option<Vec<f64>>,
    ),
    /// Running `Gᵢ(α)` in plain complex arithmetic.
    Complex(Complex, Complex, Option<Scaled<Complex>>),
    /// Running `ln Gᵢ(α)`, then `α` and `ln α`.
    Log(f64, f64, f64, Option<f64>),
    /// Running `Gᵢ(α)` in scaled arithmetic.
    Scaled(
        Scaled<Complex>,
        Scaled<Complex>,
        Complex,
        Option<Scaled<Complex>>,
    ),
    /// Expected ranks.
    Ranks(Ranks),
}

/// An expected-ranks consumer's running state.
struct Ranks {
    /// Probability mass of the higher-scored tuples of this relation.
    mass: f64,
    /// Expected world size `C` of this relation.
    world_size: f64,
    /// A shard's `(C_pre, C − C_k)`.
    shift: Option<(f64, f64)>,
}

impl Acc<'_> {
    /// Evaluates tuple `t` into `answer[id]` and advances the running
    /// state; `g_poly` is the shared prefix polynomial, advanced by the
    /// caller. The same operations in the same order as the closed-form
    /// kernels, then, on a shard, as the sharded walk's prefix adjustment.
    #[inline(always)]
    fn eval(&mut self, answer: &mut SharedAnswer, t: &Tuple, id: usize, g_poly: &Poly) {
        match (self, answer) {
            (Acc::Weight(omega, cap, _), SharedAnswer::Complex(buf)) => {
                // Identical loop to `prf_rank`.
                let mut upsilon = Complex::ZERO;
                for (m, &c) in g_poly.coeffs().iter().enumerate().take(*cap) {
                    if c != 0.0 {
                        upsilon += omega.weight(t, m + 1) * c;
                    }
                }
                buf[id] = upsilon * t.prob;
            }
            (Acc::Complex(g, alpha, point), SharedAnswer::Complex(buf)) => {
                // Identical recurrence to `prfe_rank`.
                let v = *g * *alpha * t.prob;
                buf[id] = match point {
                    Some(point) => Scaled::new(v).mul(point).to_plain(),
                    None => v,
                };
                *g *= Complex::real(1.0 - t.prob) + *alpha * t.prob;
            }
            (Acc::Log(log_g, alpha, ln_alpha, shift), SharedAnswer::Log(buf)) => {
                // Identical recurrence to `prfe_rank_log`.
                if t.prob > 0.0 && *alpha > 0.0 && *log_g > f64::NEG_INFINITY {
                    let v = *log_g + t.prob.ln() + *ln_alpha;
                    buf[id] = shift.map_or(v, |s| v + s);
                }
                *log_g += (1.0 - t.prob + t.prob * *alpha).ln();
            }
            (Acc::Scaled(g, alpha_s, alpha, point), SharedAnswer::Scaled(buf)) => {
                // Identical recurrence to `prfe_rank_scaled`.
                let v = g.mul(alpha_s).scale(t.prob);
                buf[id] = match point {
                    Some(point) => v.mul(point),
                    None => v,
                };
                let factor = Scaled::new(Complex::real(1.0 - t.prob) + *alpha * t.prob);
                *g = g.mul(&factor);
            }
            (Acc::Ranks(r), SharedAnswer::Ranks(buf)) => {
                // Identical recurrence to `expected_ranks_independent`.
                let er1 = t.prob * (1.0 + r.mass);
                let er2 = (1.0 - t.prob) * (r.world_size - t.prob);
                let er = er1 + er2;
                buf[id] = match r.shift {
                    Some((c_pre, c_other)) => er + (t.prob * c_pre + (1.0 - t.prob) * c_other),
                    None => er,
                };
                r.mass += t.prob;
            }
            _ => unreachable!("accumulator shape matches answer shape"),
        }
    }

    /// A capped consumer's bound on the ranking key of the tuple at the
    /// current score position and of every later one (see [`Cut`]), from
    /// the same state and with the same prefix adjustment as its values:
    /// the envelope sum for a weight, the tuple's value before its `p`
    /// factor for PRFe, the mass above for expected ranks. `g_poly` is the
    /// shared prefix polynomial. A weight without an envelope never stops.
    fn bound(&self, g_poly: &Poly, b: &Bound) -> f64 {
        match self {
            Acc::Weight(_, cap, envelope) => envelope.as_deref().map_or(f64::INFINITY, |e| {
                Cut::linear(Cut::weight(e, g_poly.coeffs(), *cap), b.ops + cap)
            }),
            Acc::Complex(g, alpha, point) => {
                let v = *g * *alpha;
                let v = point
                    .as_ref()
                    .map_or(v, |p| Scaled::new(v).mul(p).to_plain());
                Cut::linear(v.re, b.ops)
            }
            Acc::Log(log_g, _, ln_alpha, shift) => {
                let v = log_g + ln_alpha;
                Cut::log(shift.map_or(v, |s| v + s), b.ops)
            }
            Acc::Scaled(g, alpha_s, _, point) => {
                let v = g.mul(alpha_s);
                let v = point.as_ref().map_or(v, |p| v.mul(p));
                Cut::log(v.magnitude_key(), b.ops)
            }
            Acc::Ranks(r) => match r.shift {
                Some((c_pre, c_other)) => {
                    Cut::ranks(c_pre + r.mass, r.world_size + c_other, b.max_prob, b.cross)
                }
                None => Cut::ranks(r.mass, r.world_size, b.max_prob, b.cross),
            },
        }
    }
}

/// Evaluates Υ from an explicit rank distribution — the textbook definition,
/// used as the oracle against the generating-function algorithms.
pub fn upsilon_from_distribution(
    tuple: &Tuple,
    dist: &[f64],
    omega: &dyn WeightFunction,
) -> Complex {
    let mut acc = Complex::ZERO;
    for (j0, &p) in dist.iter().enumerate() {
        if p != 0.0 {
            acc += omega.weight(tuple, j0 + 1) * p;
        }
    }
    acc
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays
mod tests {
    use super::*;
    use crate::weights::*;
    use prf_pdb::TupleId;

    fn example1_db() -> IndependentDb {
        IndependentDb::from_pairs([(30.0, 0.5), (20.0, 0.6), (10.0, 0.4)]).unwrap()
    }

    #[test]
    fn rank_distributions_match_example_1() {
        let db = example1_db();
        let d = rank_distributions(&db);
        // t3 (id 2): F³(x) = (.5+.5x)(.4+.6x)(.4x) → .08, .2, .12.
        assert!((d[2][0] - 0.08).abs() < 1e-12);
        assert!((d[2][1] - 0.20).abs() < 1e-12);
        assert!((d[2][2] - 0.12).abs() < 1e-12);
        // Each tuple's distribution sums to its probability.
        for (i, t) in db.tuples().iter().enumerate() {
            let sum: f64 = d[i].iter().sum();
            assert!((sum - t.prob).abs() < 1e-12);
        }
        // Single-tuple variant agrees.
        for i in 0..3 {
            let one = rank_distribution_of(&db, TupleId(i));
            assert_eq!(one, d[i as usize]);
        }
    }

    #[test]
    fn rank_distributions_match_brute_force() {
        let db = IndependentDb::from_pairs([
            (9.0, 0.3),
            (8.0, 1.0),
            (7.0, 0.0),
            (5.0, 0.9),
            (2.0, 0.55),
        ])
        .unwrap();
        let worlds = db.enumerate_worlds(1 << 20).unwrap();
        let scores = db.scores();
        let d = rank_distributions(&db);
        for i in 0..db.len() {
            let brute = worlds.rank_distribution(TupleId(i as u32), db.len(), &scores);
            for j in 0..db.len() {
                assert!(
                    (d[i][j] - brute[j]).abs() < 1e-12,
                    "tuple {i} rank {j}: {} vs {}",
                    d[i][j],
                    brute[j]
                );
            }
        }
    }

    #[test]
    fn prfe_matches_example_5() {
        // Example 5: Υ(t₃) = F³(0.6) = .14592 for ω(i) = .6^i.
        let db = example1_db();
        let u = prfe_rank(&db, Complex::real(0.6));
        assert!((u[2].re - 0.14592).abs() < 1e-12, "got {}", u[2].re);
        assert!(u[2].im.abs() < 1e-15);
    }

    #[test]
    fn prfe_agrees_with_generic_prf() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.9),
            (9.0, 0.1),
            (8.0, 0.5),
            (7.0, 1.0),
            (6.0, 0.25),
        ])
        .unwrap();
        for &alpha in &[0.0, 0.3, 0.95, 1.0] {
            let fast = prfe_rank(&db, Complex::real(alpha));
            let generic = prf_rank(&db, &ExponentialWeight::real(alpha));
            for i in 0..db.len() {
                assert!(
                    fast[i].approx_eq(generic[i], 1e-10),
                    "α={alpha} tuple {i}: {} vs {}",
                    fast[i],
                    generic[i]
                );
            }
        }
        // Complex α as well.
        let alpha = Complex::new(0.4, 0.3);
        let fast = prfe_rank(&db, alpha);
        let generic = prf_rank(&db, &ExponentialWeight { alpha });
        for i in 0..db.len() {
            assert!(fast[i].approx_eq(generic[i], 1e-10));
        }
    }

    #[test]
    fn truncated_matches_full_for_step_weight() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.9),
            (9.0, 0.1),
            (8.0, 0.5),
            (7.0, 1.0),
            (6.0, 0.25),
            (5.0, 0.66),
        ])
        .unwrap();
        let w = StepWeight { h: 3 };
        let trunc = prf_rank(&db, &w);
        // Oracle: Υ = Pr(r(t) ≤ 3) from the distribution matrix.
        let d = rank_distributions(&db);
        for (i, t) in db.tuples().iter().enumerate() {
            let expect: f64 = d[i][..3].iter().sum();
            assert!(
                (trunc[i].re - expect).abs() < 1e-12,
                "tuple {i}: {} vs {expect}",
                trunc[i].re
            );
            let _ = t;
        }
    }

    #[test]
    fn generic_prf_matches_distribution_oracle() {
        let db =
            IndependentDb::from_pairs([(4.0, 0.8), (3.0, 0.2), (2.0, 0.7), (1.0, 0.4)]).unwrap();
        let d = rank_distributions(&db);
        let weights: Vec<Box<dyn WeightFunction>> = vec![
            Box::new(ConstantWeight),
            Box::new(ScoreWeight),
            Box::new(LinearWeight),
            Box::new(DcgWeight),
            Box::new(PositionWeight { j: 2 }),
            Box::new(TopScoreWeight),
            Box::new(TabulatedWeight::from_real(&[0.9, 0.5, 0.1])),
        ];
        for w in &weights {
            let got = prf_rank(&db, w.as_ref());
            for (i, t) in db.tuples().iter().enumerate() {
                let want = upsilon_from_distribution(t, &d[i], w.as_ref());
                assert!(
                    got[i].approx_eq(want, 1e-10),
                    "{}: tuple {i}: {} vs {want}",
                    w.name(),
                    got[i]
                );
            }
        }
    }

    #[test]
    fn constant_weight_equals_probability() {
        let db = example1_db();
        let u = prf_rank(&db, &ConstantWeight);
        for (i, t) in db.tuples().iter().enumerate() {
            assert!((u[i].re - t.prob).abs() < 1e-12);
        }
    }

    #[test]
    fn escore_weight_equals_expected_score() {
        let db = example1_db();
        let u = prf_rank(&db, &ScoreWeight);
        for (i, t) in db.tuples().iter().enumerate() {
            assert!((u[i].re - t.prob * t.score).abs() < 1e-12);
        }
    }

    #[test]
    fn scaled_and_log_agree_with_plain_on_small_input() {
        let db = example1_db();
        let alpha = 0.7;
        let plain = prfe_rank(&db, Complex::real(alpha));
        let scaled = prfe_rank_scaled(&db, Complex::real(alpha));
        let logs = prfe_rank_log(&db, alpha).unwrap();
        for i in 0..db.len() {
            assert!((scaled[i].to_plain().re - plain[i].re).abs() < 1e-12);
            assert!((logs[i] - plain[i].re.ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_survives_underflow_scale() {
        // 20_000 tuples with α = 0.5: plain f64 underflows, scaled does not,
        // and the log variant agrees with the scaled keys.
        let n = 20_000;
        let db = IndependentDb::from_pairs(
            (0..n).map(|i| ((n - i) as f64, 0.3 + 0.4 * ((i % 7) as f64 / 7.0))),
        )
        .unwrap();
        let alpha = 0.5;
        let scaled = prfe_rank_scaled(&db, Complex::real(alpha));
        let logs = prfe_rank_log(&db, alpha).unwrap();
        let mut saw_underflow_region = false;
        for i in 0..n {
            let key = scaled[i].magnitude_key();
            assert!(key.is_finite(), "scaled key must stay finite");
            // log2 vs ln: convert.
            assert!(
                (key * std::f64::consts::LN_2 - logs[i]).abs() < 1e-6 * logs[i].abs().max(1.0),
                "tuple {i}: {} vs {}",
                key * std::f64::consts::LN_2,
                logs[i]
            );
            if logs[i] < -800.0 {
                saw_underflow_region = true;
            }
        }
        assert!(
            saw_underflow_region,
            "test must actually exercise underflow"
        );
    }

    #[test]
    fn zero_probability_tuples_are_handled() {
        let db = IndependentDb::from_pairs([(3.0, 0.0), (2.0, 0.5), (1.0, 0.8)]).unwrap();
        let u = prfe_rank(&db, Complex::real(0.5));
        assert_eq!(u[0], Complex::ZERO);
        // t with p=0 contributes nothing to later prefixes: t2's Υ treats it
        // as a (1−0+0·α)=1 factor.
        assert!((u[1].re - 0.5 * 0.5).abs() < 1e-12);
        let d = rank_distributions(&db);
        assert!(d[0].iter().all(|&p| p == 0.0));
    }

    #[test]
    fn walk_expected_ranks_match_closed_form_bitwise() {
        // Ties, certain and impossible tuples: the walk's in-loop expected
        // ranks must reproduce the closed-form oracle bit for bit.
        let db = IndependentDb::from_pairs([
            (5.0, 0.3),
            (9.0, 1.0),
            (5.0, 0.0),
            (7.0, 0.65),
            (1.0, 0.2),
            (9.0, 0.45),
        ])
        .unwrap();
        let walk = crate::query::batch::probe::ranks(&db);
        let oracle = crate::query::kernels::expected_ranks_independent(&db);
        assert_eq!(
            walk.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streams_survive_only_near_score_order() {
        // PRFe(.95) keys stay within the insertion window of their score
        // positions on IIP data; PRFe(.999) keys and PT(100) values do not.
        let db = prf_datasets::iip_db(20_000, 1);
        let visit = |req: SharedRequest| {
            let spec = SharedWalkSpec {
                requests: vec![req],
                threads: None,
                cancel: None,
            };
            let mut carry = TopkCarry::new(&[None]).streaming(&[true]);
            batch_walk_independent(&db, &spec, &mut carry)
                .expect("the walk answers")
                .visits
                .remove(0)
        };
        let Visit::Stream(keys) = visit(SharedRequest::PrfeLog(0.95)) else {
            panic!("PRFe(.95) keeps its stream");
        };
        let want = prfe_rank_log(&db, 0.95).unwrap();
        let order = prf_pdb::tuple::top_k_desc(&want, want.len(), "no NaN");
        let ids: Vec<usize> = keys.iter().map(|&p| p as u64 as usize).collect();
        assert_eq!(ids, order);
        assert!(matches!(visit(SharedRequest::PrfeLog(0.999)), Visit::All));
        let pt = SharedRequest::Weight(std::sync::Arc::new(StepWeight { h: 100 }));
        assert!(matches!(visit(pt), Visit::All));
    }

    #[test]
    fn empty_database() {
        let db = IndependentDb::from_pairs(std::iter::empty::<(f64, f64)>()).unwrap();
        assert!(prf_rank(&db, &ConstantWeight).is_empty());
        assert!(prfe_rank(&db, Complex::real(0.5)).is_empty());
    }
}
