//! The early-stop rule of capped walks, shared by every backend that walks
//! in score order.
//!
//! A consumer that ranks only its top `k` may stop at the first score
//! position where no unread tuple can enter its answer. The backend reports
//! its running prefix state (presence polynomial, PRFe point, mass above);
//! a [`Cut`] turns it into a bound on every unread key and decides. The
//! state a cut needs to carry on, across the boundary between two shards
//! of a [`crate::shard::ShardedRelation`], travels in a [`TopkCarry`].

use std::collections::BinaryHeap;

use prf_numeric::{Complex, Scaled};
use prf_pdb::tuple::packed_desc;

use super::batch::SharedAnswer;
use crate::weights::{tabulate, WeightFunction};

/// The top-k state of one walk call: per request its `k` and running cut
/// (its best keys so far), and, when the walk covers one shard of a larger
/// relation, that shard's incoming prefix state.
///
/// [`TopkCarry::new`] builds a *fresh* carry: caps only, no cut started, no
/// shard. A backend that cannot stop early may answer a fresh carry with a
/// full walk, which is always valid; a carry that is not fresh asks the
/// walk to resume cuts and write global values, so a shard backend that
/// cannot resume returns `None` from
/// [`ProbabilisticRelation::run_shared_walk`](super::ProbabilisticRelation::run_shared_walk).
#[derive(Debug, Default)]
pub struct TopkCarry {
    pub(crate) requests: Vec<RequestCarry>,
    pub(crate) shard: Option<ShardCarry>,
}

impl TopkCarry {
    /// A fresh carry: `limits` holds each request's `k` (parallel to the
    /// walk's requests; missing entries and `None` rank in full).
    pub fn new(limits: &[Option<usize>]) -> Self {
        TopkCarry {
            requests: limits
                .iter()
                .map(|k| RequestCarry {
                    cap: k.map_or(Cap::Full, Cap::Pending),
                    point: None,
                    stream: false,
                })
                .collect(),
            shard: None,
        }
    }

    /// Marks the requests whose finalize ranks by their walk key
    /// (`streams`, parallel to the requests): a walk that reads every tuple
    /// for one of them may report its keys in visit order
    /// ([`super::batch::Visit::Stream`]).
    pub(crate) fn streaming(mut self, streams: &[bool]) -> Self {
        for (rc, &stream) in self.requests.iter_mut().zip(streams) {
            rc.stream = stream;
        }
        self
    }

    /// `true` when no walk has started on this carry and it describes no
    /// shard — a full walk answers it correctly.
    pub fn is_fresh(&self) -> bool {
        self.shard.is_none() && !self.requests.iter().any(|r| matches!(r.cap, Cap::Cut(_)))
    }

    /// `true` once every request is capped and has stopped.
    pub(crate) fn settled(&self) -> bool {
        self.requests
            .iter()
            .all(|r| matches!(&r.cap, Cap::Cut(cut) if cut.stopped()))
    }
}

/// One request's share of a [`TopkCarry`].
#[derive(Debug, Default)]
pub(crate) struct RequestCarry {
    pub(crate) cap: Cap,
    /// `P_k(α)`, the PRFe point of the higher-scored shards, for a PRFe
    /// request walking a shard.
    pub(crate) point: Option<Scaled<Complex>>,
    /// Whether finalize ranks this request by its walk key.
    pub(crate) stream: bool,
}

/// Where a request stands in its capped walk.
#[derive(Debug, Default)]
pub(crate) enum Cap {
    /// Ranked in full: uncapped, or a cap no walk can bound.
    #[default]
    Full,
    /// A `top_k` no walk has started on.
    Pending(usize),
    /// The running cut.
    Cut(Cut),
}

/// The prefix state of the shard a walk covers (see
/// [`crate::shard::ShardedRelation`]'s module docs for the monoid).
#[derive(Debug)]
pub(crate) struct ShardCarry {
    /// The answer buffers of the whole relation; the walk writes its
    /// tuples' global values at `offset + local id`.
    pub(crate) answers: Vec<SharedAnswer>,
    /// Global id of the shard's first tuple.
    pub(crate) offset: usize,
    /// Number of tuples in the later shards.
    pub(crate) tail: usize,
    /// An upper bound on the probability of every tuple in the later
    /// shards.
    pub(crate) tail_max_prob: f64,
    /// Expected present count of the higher-scored shards (`C_pre`).
    pub(crate) c_pre: f64,
    /// Expected present count of every other shard (`C − C_k`).
    pub(crate) c_other: f64,
}

/// The early-termination state of one capped walk consumer: its `k` best
/// ranking keys so far, and where it stopped.
///
/// A consumer's *ranking key* here is the key finalization ranks by, or a
/// monotone function of it: `ℜ(Υ)` for plain values (the real, non-negative
/// Υ of a real non-negative weight and of real-α PRFe have `|Υ| = ℜ(Υ)`),
/// `log₂|Υ|` for scaled values (their real-part key orders the same),
/// `ln Υ` for log keys and `−er` for expected ranks. Bounds on the keys of
/// unread tuples, for a consumer at score position `i` with `Gᵢ` the
/// presence distribution of the tuples above it:
///
/// * a real, non-negative, rank-only weight ω: a present tuple at position
///   `j ≥ i` has at least as many present tuples above it as `Gᵢ` counts,
///   so with the nonincreasing envelope `ω̂(r) = max_{r' ≥ r} ω(r')`,
///   `Υ(tⱼ) ≤ Σ_m ω̂(m+1)·Gᵢ[m]` ([`Cut::weight`]). PT(h) is `ω̂ = 1` below
///   `h`;
/// * PRFe, real `α ∈ [0, 1]`: every factor `1 − p + pα` lies in `[α, 1]`,
///   so `Υ(tⱼ) = pⱼ·α·Gⱼ(α) ≤ α·Gᵢ(α)`;
/// * expected ranks: `erⱼ = C − pⱼ·(C − Aⱼ) + pⱼ² ≥ min(C, C − p̂·(C − Aᵢ))`,
///   with `Aⱼ ≥ Aᵢ` the mass above `tⱼ` and `p̂` a bound on every unread
///   probability.
///
/// Each bound is taken from the same floating-point state the values are
/// computed from and widened by an explicit rounding slack ([`Cut::linear`],
/// [`Cut::log`], [`Cut::ranks`]), so an unread tuple's *computed* key is
/// strictly below the `k`-th best visited one and the top `k` of the
/// visited prefix — ties by tuple id — is the top `k` of the relation.
#[derive(Debug)]
pub(crate) struct Cut {
    k: usize,
    /// Packed `(key, id)` ([`packed_desc`]) of the best `k` tuples so far,
    /// in a max-heap: the root is the `k`-th best.
    best: BinaryHeap<u128>,
    /// The score position of the current walk the consumer stopped at
    /// (tuples it evaluated there).
    pub(crate) stop: Option<usize>,
}

impl Cut {
    pub(crate) fn new(k: usize) -> Self {
        Cut {
            k,
            best: BinaryHeap::with_capacity(k),
            stop: None,
        }
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    /// Stops the consumer at `step` when `bound`, an upper bound on the
    /// key of the tuple at `step` and of every later one, is strictly
    /// below the `k`-th best key so far (at once for `k = 0`).
    pub(crate) fn stops_at(&mut self, step: usize, bound: f64) -> bool {
        // The high word of a packed key orders keys descending.
        let below_kth = |&kth: &u128| packed_desc(bound, 0) >> 64 > kth >> 64;
        if self.k == 0 || (self.best.len() == self.k && self.best.peek().is_some_and(below_kth)) {
            self.stop = Some(step);
        }
        self.stopped()
    }

    /// Records the key of a visited tuple (`id` global).
    pub(crate) fn offer(&mut self, key: f64, id: usize) {
        let packed = packed_desc(key, id);
        if self.best.len() < self.k {
            self.best.push(packed);
        } else if let Some(mut kth) = self.best.peek_mut() {
            if packed < *kth {
                *kth = packed;
            }
        }
    }

    /// A bound on linear values (weights, plain PRFe). The computed prefix
    /// state of later positions can exceed the exact one by a relative
    /// `(3n + h)·ε`-order error (one rounding per product and sum of the
    /// recurrence, each factor at most one ulp above 1) and by one
    /// subnormal step per operation once it underflows; `ops` counts
    /// those operations, and the slack is four times that.
    pub(crate) fn linear(bound: f64, ops: usize) -> f64 {
        let slack = (4 * ops + 16) as f64;
        bound * (1.0 + slack * f64::EPSILON) + slack * f64::from_bits(1)
    }

    /// The envelope bound `Σ_{m<cap} ω̂(m+1)·G[m]` of a weight consumer
    /// reading the first `cap` prefix coefficients `g`, before slack.
    pub(crate) fn weight(envelope: &[f64], g: &[f64], cap: usize) -> f64 {
        g.iter().take(cap).zip(envelope).map(|(g, w)| w * g).sum()
    }

    /// A bound on logarithmic keys (`ln Υ`, `log₂|Υ|`): up to `2ε` of drift
    /// per later factor, widened to `6ε`, plus the rounding of the key
    /// itself. An exact-zero bound (`−∞`) needs no slack.
    pub(crate) fn log(bound: f64, n: usize) -> f64 {
        if bound == f64::NEG_INFINITY {
            return bound;
        }
        bound + ((6 * n + 24) as f64 + 4.0 * bound.abs()) * f64::EPSILON
    }

    /// A bound on `−er` from the mass above position `i`, the expected
    /// world size `C` and the probability bound `p̂`: a handful of
    /// roundings on values of size `C + A`, taken sixteen times over, plus
    /// two per tuple in `cross` — the tuples of later shards, whose mass
    /// above and world size come from per-shard sums taken in another
    /// order.
    pub(crate) fn ranks(mass_above: f64, world_size: f64, max_prob: f64, cross: usize) -> f64 {
        let ulps = (16 + 2 * cross) as f64;
        let slack = ulps * f64::EPSILON * (world_size.abs() + mass_above + 4.0);
        let er_floor = world_size - max_prob * (world_size - mass_above);
        slack - world_size.min(er_floor)
    }
}

/// The nonincreasing envelope `ω̂(r) = max_{r' ≥ r} ω(r')` of a rank-only
/// weight over ranks `1 ..= len` (index `r − 1`), or `None` when ω is not
/// rank-only or takes a value that is not real and non-negative there — the
/// weights [`Cut::weight`] can bound.
pub(crate) fn envelope(omega: &dyn WeightFunction, len: usize) -> Option<Vec<f64>> {
    if !omega.rank_only() {
        return None;
    }
    let mut table = tabulate(omega, len)
        .into_iter()
        .map(|w| (w.im == 0.0 && w.re >= 0.0).then_some(w.re))
        .collect::<Option<Vec<f64>>>()?;
    for r in (1..table.len()).rev() {
        table[r - 1] = table[r - 1].max(table[r]);
    }
    Some(table)
}
