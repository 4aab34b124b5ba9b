//! The truncated bivariate generating function `F(x, y) = A(x) + B(x)·y`.
//!
//! Section 4.2 of the paper computes, for each tuple `t`, a generating
//! function over two variables: `x` marks tuples ranked above `t` and `y`
//! marks `t` itself. Because exactly one leaf carries the `y` label, every
//! generating function arising from an and/xor tree has `y`-degree at most
//! one, so it is fully described by the pair of univariate polynomials
//! `(A, B)`. The coefficient of `x^{j-1}` in `B` is `Pr(r(t) = j)`
//! (Theorem 1).
//!
//! [`RankPoly`] implements the ring operations needed by the bottom-up tree
//! fold, with an optional degree cap that truncates `x`-degrees `≥ cap` —
//! exactly the coefficients PRFω(h) never reads — turning the `O(n²)`
//! expansion into `O(n·h)` per tuple.
//!
//! The ∧-node product `(A₁+B₁y)(A₂+B₂y)` formally produces a `B₁B₂y²` term;
//! it is identically zero because the single `y` leaf lies in at most one
//! factor's subtree, so the product drops it. (Debug builds assert that one
//! of the `B` factors is zero.)

use crate::poly::Poly;
use crate::ring::GfValue;

/// A truncated bivariate polynomial `A(x) + B(x)·y` with shared degree cap.
///
/// The cap is carried in the value so that [`GfValue`]'s nullary
/// constructors (`zero`/`one`) can produce compatible values; `usize::MAX`
/// means "no truncation". Binary operations take the smaller cap of their
/// operands.
#[derive(Clone, Debug, PartialEq)]
pub struct RankPoly {
    /// The `y⁰` part.
    pub a: Poly,
    /// The `y¹` part.
    pub b: Poly,
    /// Number of `x` coefficients retained (`usize::MAX` = untruncated).
    pub cap: usize,
}

impl RankPoly {
    /// The zero polynomial with no truncation.
    pub fn zero() -> Self {
        RankPoly {
            a: Poly::zero(),
            b: Poly::zero(),
            cap: usize::MAX,
        }
    }

    /// The constant `1`.
    pub fn one() -> Self {
        RankPoly {
            a: Poly::one(),
            b: Poly::zero(),
            cap: usize::MAX,
        }
    }

    /// A constant `c` (pure `A` part).
    pub fn constant(c: f64) -> Self {
        RankPoly {
            a: Poly::constant(c),
            b: Poly::zero(),
            cap: usize::MAX,
        }
    }

    /// The monomial `x`.
    pub fn x() -> Self {
        RankPoly {
            a: Poly::linear(0.0, 1.0),
            b: Poly::zero(),
            cap: usize::MAX,
        }
    }

    /// The monomial `y`.
    pub fn y() -> Self {
        RankPoly {
            a: Poly::zero(),
            b: Poly::one(),
            cap: usize::MAX,
        }
    }

    /// Applies a degree cap, truncating existing coefficients if needed.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self.truncate();
        self
    }

    fn truncate(&mut self) {
        if self.cap == usize::MAX {
            return;
        }
        if self.a.coeffs().len() > self.cap {
            self.a = Poly::from_coeffs(self.a.coeffs()[..self.cap].to_vec());
        }
        if self.b.coeffs().len() > self.cap {
            self.b = Poly::from_coeffs(self.b.coeffs()[..self.cap].to_vec());
        }
    }

    /// `Pr(r(t) = j)` is the coefficient of `x^{j-1}·y`; ranks are 1-based.
    pub fn rank_probability(&self, j: usize) -> f64 {
        if j == 0 {
            return 0.0;
        }
        self.b.coeff(j - 1)
    }

    /// The rank distribution `Pr(r(t) = j)` for `j = 1..=len`, where `len` is
    /// the stored length of `B` (longer requests read zeros).
    pub fn rank_distribution(&self, n: usize) -> Vec<f64> {
        (1..=n).map(|j| self.rank_probability(j)).collect()
    }

    /// Evaluates at numeric `x`, `y`.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.a.eval(x) + self.b.eval(x) * y
    }
}

impl GfValue for RankPoly {
    fn zero() -> Self {
        RankPoly::zero()
    }

    fn one() -> Self {
        RankPoly::one()
    }

    fn from_scalar(c: f64) -> Self {
        RankPoly::constant(c)
    }

    fn add(&self, rhs: &Self) -> Self {
        let mut out = RankPoly {
            a: self.a.add(&rhs.a),
            b: self.b.add(&rhs.b),
            cap: self.cap.min(rhs.cap),
        };
        out.truncate();
        out
    }

    fn mul(&self, rhs: &Self) -> Self {
        let cap = self.cap.min(rhs.cap);
        debug_assert!(
            self.b.is_zero() || rhs.b.is_zero(),
            "RankPoly product would create a y² term: the y label must mark a single leaf"
        );
        let (a, b) = if cap == usize::MAX {
            (
                self.a.mul(&rhs.a),
                self.a.mul(&rhs.b).add(&self.b.mul(&rhs.a)),
            )
        } else {
            (
                self.a.mul_truncated(&rhs.a, cap),
                self.a
                    .mul_truncated(&rhs.b, cap)
                    .add(&self.b.mul_truncated(&rhs.a, cap)),
            )
        };
        RankPoly { a, b, cap }
    }

    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        let cap = self.cap.min(rhs.cap);
        if cap == usize::MAX || !(self.b.is_zero() || rhs.b.is_zero()) {
            *out = self.mul(rhs);
            return;
        }
        out.cap = cap;
        self.a.mul_truncated_into(&rhs.a, cap, &mut out.a);
        // B = A·B' + B·A' with at most one non-zero term.
        if self.b.is_zero() {
            self.a.mul_truncated_into(&rhs.b, cap, &mut out.b);
        } else {
            self.b.mul_truncated_into(&rhs.a, cap, &mut out.b);
        }
    }

    fn assign_from(&mut self, src: &Self) {
        self.a.assign_from(&src.a);
        self.b.assign_from(&src.b);
        self.cap = src.cap;
    }

    fn scale(&self, c: f64) -> Self {
        RankPoly {
            a: self.a.scale(c),
            b: self.b.scale(c),
            cap: self.cap,
        }
    }

    fn add_scaled(&self, rhs: &Self, c: f64) -> Self {
        let mut out = RankPoly {
            a: self.a.add_scaled(&rhs.a, c),
            b: self.b.add_scaled(&rhs.b, c),
            cap: self.cap.min(rhs.cap),
        };
        out.truncate();
        out
    }

    fn add_scaled_assign(&mut self, rhs: &Self, c: f64) {
        self.cap = self.cap.min(rhs.cap);
        let zero = Poly::zero();
        self.a.add_scaled_diff_in_place(&rhs.a, &zero, c, self.cap);
        self.b.add_scaled_diff_in_place(&rhs.b, &zero, c, self.cap);
    }

    fn add_scaled_diff_assign(&mut self, new: &Self, old: &Self, c: f64) {
        self.cap = self.cap.min(new.cap).min(old.cap);
        self.a.add_scaled_diff_in_place(&new.a, &old.a, c, self.cap);
        self.b.add_scaled_diff_in_place(&new.b, &old.b, c, self.cap);
    }

    fn heap_coeffs(&self) -> usize {
        self.a.coeffs().len() + self.b.coeffs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomials() {
        let x = RankPoly::x();
        let y = RankPoly::y();
        assert_eq!(x.a.coeffs(), &[0.0, 1.0]);
        assert!(x.b.is_zero());
        assert!(y.a.is_zero());
        assert_eq!(y.b.coeffs(), &[1.0]);
    }

    #[test]
    fn product_tracks_y_degree() {
        // (0.6 + 0.4x)(0.4x + 0.6y)·x from Example 4's structure.
        let f1 = RankPoly {
            a: Poly::linear(0.6, 0.4),
            b: Poly::zero(),
            cap: usize::MAX,
        };
        let f2 = RankPoly {
            a: Poly::linear(0.0, 0.4),
            b: Poly::constant(0.6),
            cap: usize::MAX,
        };
        let x = RankPoly::x();
        let p = f1.mul(&f2).mul(&x);
        // A = (0.6+0.4x)(0.4x)(x) = 0.24x² + 0.16x³
        assert!((p.a.coeff(2) - 0.24).abs() < 1e-12);
        assert!((p.a.coeff(3) - 0.16).abs() < 1e-12);
        // B = (0.6+0.4x)(0.6)(x) = 0.36x + 0.24x²
        assert!((p.b.coeff(1) - 0.36).abs() < 1e-12);
        assert!((p.b.coeff(2) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn rank_probability_reads_b() {
        let p = RankPoly {
            a: Poly::zero(),
            b: Poly::from_coeffs(vec![0.1, 0.3, 0.6]),
            cap: usize::MAX,
        };
        assert_eq!(p.rank_probability(1), 0.1);
        assert_eq!(p.rank_probability(2), 0.3);
        assert_eq!(p.rank_probability(3), 0.6);
        assert_eq!(p.rank_probability(4), 0.0);
        assert_eq!(p.rank_probability(0), 0.0);
        assert_eq!(p.rank_distribution(4), vec![0.1, 0.3, 0.6, 0.0]);
    }

    #[test]
    fn truncation_caps_growth() {
        let factor = RankPoly {
            a: Poly::linear(0.5, 0.5),
            b: Poly::zero(),
            cap: usize::MAX,
        };
        let mut acc = RankPoly::one().with_cap(3);
        for _ in 0..10 {
            acc = acc.mul(&factor);
        }
        assert!(acc.a.coeffs().len() <= 3);
        // Coefficients must match the untruncated product's low coefficients.
        let mut full = Poly::one();
        for _ in 0..10 {
            full = full.mul_naive(&Poly::linear(0.5, 0.5));
        }
        for i in 0..3 {
            assert!((acc.a.coeff(i) - full.coeff(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn add_scaled_combines_both_parts() {
        let p = RankPoly {
            a: Poly::constant(1.0),
            b: Poly::constant(2.0),
            cap: usize::MAX,
        };
        let q = RankPoly {
            a: Poly::linear(0.0, 1.0),
            b: Poly::constant(1.0),
            cap: usize::MAX,
        };
        let r = p.add_scaled(&q, 0.5);
        assert_eq!(r.a.coeffs(), &[1.0, 0.5]);
        assert_eq!(r.b.coeffs(), &[2.5]);
        assert!((r.eval(2.0, 1.0) - (1.0 + 0.5 * 2.0 + 2.5)).abs() < 1e-12);
    }
}
