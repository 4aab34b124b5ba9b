//! The [`GfValue`] ring abstraction.
//!
//! Theorem 1 of the paper shows that every probability the ranking algorithms
//! need is a coefficient (or an evaluation) of one generating function,
//! computed by a single bottom-up fold over the and/xor tree:
//!
//! * evaluating over `f64` gives PRFe with real `α`,
//! * over [`Complex`] gives PRFe with complex `α` (needed by
//!   the DFT-based mixtures of Section 5.1),
//! * over [`Dual`] gives first derivatives (expected ranks),
//! * over [`RankPoly`](crate::RankPoly) gives the full symbolic expansion of
//!   Algorithm 2 — optionally truncated at degree `h` for PRFω(h).
//!
//! `GfValue` is the common interface that lets the fold be written once.

use crate::complex::Complex;
use crate::dual::Dual;

/// A commutative ring with a scalar action of `f64`, as required by
/// generating-function folds.
pub trait GfValue: Clone {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds an `f64` scalar into the ring.
    fn from_scalar(c: f64) -> Self;
    /// Ring addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Ring multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Scalar multiplication by an `f64`.
    fn scale(&self, c: f64) -> Self;

    /// `self + c·rhs` — the ∨-node combination step, provided as one method
    /// so implementations can avoid a temporary.
    fn add_scaled(&self, rhs: &Self, c: f64) -> Self {
        self.add(&rhs.scale(c))
    }

    /// In-place `self += c·rhs`. The default allocates through
    /// [`GfValue::add_scaled`]; heap-backed rings (truncated polynomials)
    /// override with a fused coefficient loop.
    fn add_scaled_assign(&mut self, rhs: &Self, c: f64) {
        *self = self.add_scaled(rhs, c);
    }

    /// In-place `self += c·(new − old)` — the ∨-node *delta* update of the
    /// incremental generating-function evaluator, fused so polynomial
    /// implementations touch each coefficient once and allocate nothing.
    fn add_scaled_diff_assign(&mut self, new: &Self, old: &Self, c: f64) {
        let delta = new.add_scaled(old, -1.0);
        self.add_scaled_assign(&delta, c);
    }

    /// `out ← self·rhs`. The default stores a fresh [`GfValue::mul`];
    /// heap-backed rings (truncated polynomials) override to write into
    /// `out`'s existing buffers, so a walk that reuses `out` allocates
    /// nothing.
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        *out = self.mul(rhs);
    }

    /// `self ← src`. The default clones; heap-backed rings override to copy
    /// into `self`'s existing buffers.
    fn assign_from(&mut self, src: &Self) {
        *self = src.clone();
    }

    /// Number of heap-allocated scalar coefficients this value currently
    /// retains — the unit of the incremental evaluator's memory accounting
    /// (peak polynomial footprint). Inline scalar rings report `0`.
    fn heap_coeffs(&self) -> usize {
        0
    }
}

impl GfValue for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_scalar(c: f64) -> Self {
        c
    }
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    #[inline]
    fn scale(&self, c: f64) -> Self {
        self * c
    }
}

impl GfValue for Complex {
    #[inline]
    fn zero() -> Self {
        Complex::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex::ONE
    }
    #[inline]
    fn from_scalar(c: f64) -> Self {
        Complex::real(c)
    }
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        *self + *rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self) -> Self {
        *self * *rhs
    }
    #[inline]
    fn scale(&self, c: f64) -> Self {
        *self * c
    }
}

impl GfValue for Dual {
    #[inline]
    fn zero() -> Self {
        Dual::ZERO
    }
    #[inline]
    fn one() -> Self {
        Dual::ONE
    }
    #[inline]
    fn from_scalar(c: f64) -> Self {
        Dual::constant(c)
    }
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        *self + *rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self) -> Self {
        *self * *rhs
    }
    #[inline]
    fn scale(&self, c: f64) -> Self {
        *self * c
    }
}

/// A field extension of [`GfValue`] for rings that also support division —
/// required by the incremental ∧-node updates of Algorithm 3 (which replace a
/// stale child factor by dividing it out of a cached product).
pub trait GfField: GfValue {
    /// Ring division. Callers must guarantee `rhs` is non-zero; the
    /// incremental algorithms maintain zero-count bookkeeping for exactly
    /// that purpose.
    fn div(&self, rhs: &Self) -> Self;
    /// `true` when the value is *exactly* zero (and would therefore poison a
    /// multiplicative cache).
    fn is_zero(&self) -> bool;
}

impl GfField for f64 {
    #[inline]
    fn div(&self, rhs: &Self) -> Self {
        self / rhs
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
}

impl GfField for Complex {
    #[inline]
    fn div(&self, rhs: &Self) -> Self {
        *self / *rhs
    }
    #[inline]
    fn is_zero(&self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
}

impl GfField for Dual {
    #[inline]
    fn div(&self, rhs: &Self) -> Self {
        *self / *rhs
    }
    #[inline]
    fn is_zero(&self) -> bool {
        Dual::is_zero(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_laws<T: GfValue + PartialEq + std::fmt::Debug>(a: T, b: T, c: T) {
        // Commutativity is exercised where cheap; associativity up to float
        // rounding is not asserted exactly (float add is not associative),
        // but the identities must hold exactly.
        assert_eq!(a.add(&T::zero()), a);
        assert_eq!(a.mul(&T::one()), a);
        assert_eq!(a.mul(&T::zero()), T::zero());
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        let _ = c;
    }

    #[test]
    fn f64_ring() {
        ring_laws(2.0f64, -3.5, 0.25);
        assert_eq!(2.0f64.add_scaled(&4.0, 0.5), 4.0);
    }

    #[test]
    fn complex_ring() {
        ring_laws(
            Complex::new(1.0, 2.0),
            Complex::new(-0.5, 0.25),
            Complex::new(0.0, 1.0),
        );
    }

    #[test]
    fn dual_ring() {
        ring_laws(
            Dual::new(1.0, 2.0),
            Dual::new(-0.5, 0.25),
            Dual::new(0.0, 1.0),
        );
    }

    #[test]
    fn field_division() {
        let a = Complex::new(3.0, -1.0);
        let b = Complex::new(0.5, 2.0);
        assert!(a.div(&b).mul(&b).approx_eq(a, 1e-12));
        assert!(Complex::ZERO.is_zero());
        assert!(!b.is_zero());
    }
}
