//! Dense univariate polynomials with real coefficients.
//!
//! Provides the three multiplication strategies discussed in Appendix B.1 of
//! the paper — naive schoolbook, FFT-based, and the divide-and-conquer
//! product of *many* polynomials — plus evaluation, formal derivatives, and
//! the synthetic division by a linear factor that powers the x-tuple fast
//! path for PT(h).

use crate::complex::Complex;
use crate::fft::multiply_fft_real;

/// Degree threshold below which schoolbook multiplication beats the FFT.
///
/// Bench-backed (`cargo bench -p prf-bench --bench numeric`, group
/// `poly_pair_multiply`, equal-length operands, 2026-07-30): naive wins
/// 3.6 µs vs 12.8 µs at n = 128 and 53 µs vs 65 µs at n = 512; the FFT wins
/// 143 µs vs 221 µs at n = 1024 and 838 µs vs 5.04 ms at n = 4096. The
/// crossover sits between 512 and 1024, so the gate keeps schoolbook up to
/// min-length 512. (The previous value, 64, paid up to ~3.5× on
/// mid-size products.)
const FFT_CUTOFF: usize = 512;

/// A dense polynomial `c₀ + c₁x + c₂x² + …` (lowest degree first).
///
/// The zero polynomial is represented by an empty coefficient vector; all
/// constructors and operations normalise away trailing zero coefficients that
/// are *exactly* zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![1.0] }
    }

    /// A constant polynomial.
    pub fn constant(c: f64) -> Self {
        if c == 0.0 {
            Poly::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    /// Builds a polynomial from coefficients (lowest degree first).
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The linear polynomial `a + b·x`.
    pub fn linear(a: f64, b: f64) -> Self {
        Poly::from_coeffs(vec![a, b])
    }

    fn normalize(&mut self) {
        while self.coeffs.last() == Some(&0.0) {
            self.coeffs.pop();
        }
    }

    /// Coefficient slice (lowest degree first); empty for the zero polynomial.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The coefficient of `x^i` (zero beyond the stored degree).
    #[inline]
    pub fn coeff(&self, i: usize) -> f64 {
        self.coeffs.get(i).copied().unwrap_or(0.0)
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Horner evaluation at a real point.
    pub fn eval(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Horner evaluation at a complex point.
    pub fn eval_complex(&self, x: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + Complex::real(c);
        }
        acc
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        Poly::from_coeffs(
            self.coeffs[1..]
                .iter()
                .enumerate()
                .map(|(i, &c)| c * (i + 1) as f64)
                .collect(),
        )
    }

    /// Sum of two polynomials.
    pub fn add(&self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.coeff(i) + rhs.coeff(i);
        }
        Poly::from_coeffs(out)
    }

    /// In-place `self += c·(a − b)`, truncated to keep at most `cap`
    /// coefficients — the fused ∨-node delta update of the incremental
    /// tree evaluator. Touches each coefficient once and reallocates only
    /// when the result is longer than the current buffer.
    pub fn add_scaled_diff_in_place(&mut self, a: &Poly, b: &Poly, c: f64, cap: usize) {
        let n = self
            .coeffs
            .len()
            .max(a.coeffs.len())
            .max(b.coeffs.len())
            .min(cap);
        if self.coeffs.len() < n {
            self.coeffs.resize(n, 0.0);
        }
        for (i, o) in self.coeffs.iter_mut().enumerate().take(n) {
            *o += c * (a.coeff(i) - b.coeff(i));
        }
        self.coeffs.truncate(n);
        self.normalize();
    }

    /// `self + c·rhs`.
    pub fn add_scaled(&self, rhs: &Poly, c: f64) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.coeff(i) + c * rhs.coeff(i);
        }
        Poly::from_coeffs(out)
    }

    /// Scales every coefficient by `c`.
    pub fn scale(&self, c: f64) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&x| x * c).collect())
    }

    /// Schoolbook `O(nm)` product.
    pub fn mul_naive(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::from_coeffs(out)
    }

    /// FFT-based `O(n log n)` product.
    pub fn mul_fft(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        Poly::from_coeffs(multiply_fft_real(&self.coeffs, &rhs.coeffs))
    }

    /// Product that picks naive vs FFT depending on size.
    pub fn mul(&self, rhs: &Poly) -> Poly {
        if self.coeffs.len().min(rhs.coeffs.len()) <= FFT_CUTOFF {
            self.mul_naive(rhs)
        } else {
            self.mul_fft(rhs)
        }
    }

    /// Product truncated to degree `< cap` (keeping `cap` coefficients).
    ///
    /// Used by PRFω(h) computations where only ranks `≤ h` carry non-zero
    /// weight, giving `O(n·h)` overall work instead of `O(n²)`.
    pub fn mul_truncated(&self, rhs: &Poly, cap: usize) -> Poly {
        let mut out = Poly::zero();
        self.mul_truncated_into(rhs, cap, &mut out);
        out
    }

    /// [`Poly::mul_truncated`] written into `out`, reusing its buffer — the
    /// allocation-free product of the incremental tree walks. Bit-identical
    /// to `mul_truncated`: both run the same loop.
    ///
    /// The inner loop zips `out[i..]` with `rhs` instead of indexing
    /// `out[i + j]`, so it carries no bounds checks and vectorizes; each
    /// output coefficient still accumulates its terms in increasing `i`.
    pub fn mul_truncated_into(&self, rhs: &Poly, cap: usize, out: &mut Poly) {
        out.coeffs.clear();
        if self.is_zero() || rhs.is_zero() || cap == 0 {
            return;
        }
        let n = (self.coeffs.len() + rhs.coeffs.len() - 1).min(cap);
        out.coeffs.resize(n, 0.0);
        for (i, &a) in self.coeffs.iter().enumerate().take(n) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.coeffs[i..].iter_mut().zip(&rhs.coeffs) {
                *o += a * b;
            }
        }
        out.normalize();
    }

    /// `self ← src`, reusing `self`'s buffer.
    pub fn assign_from(&mut self, src: &Poly) {
        self.coeffs.clone_from(&src.coeffs);
    }

    /// Multiplies in place by the linear factor `a + b·x`, truncated to keep
    /// at most `cap` coefficients (`usize::MAX` for no truncation).
    pub fn mul_linear_in_place(&mut self, a: f64, b: f64, cap: usize) {
        if self.is_zero() {
            return;
        }
        let old_len = self.coeffs.len();
        let new_len = (old_len + 1).min(cap.max(1));
        self.coeffs.resize(new_len, 0.0);
        // Work from high to low so each original coefficient is read before
        // being overwritten.
        for i in (0..new_len).rev() {
            let lower = if i >= 1 && i - 1 < old_len {
                self.coeffs[i - 1]
            } else {
                0.0
            };
            let same = if i < old_len { self.coeffs[i] } else { 0.0 };
            self.coeffs[i] = a * same + b * lower;
        }
        self.normalize();
    }

    /// Divides in place by the linear factor `a + b·x`, assuming the division
    /// is exact over the *power series* up to the stored length (synthetic
    /// division). Requires `a != 0`.
    ///
    /// **Stability caveat:** the recurrence `qᵢ = (cᵢ − b·qᵢ₋₁)/a` amplifies
    /// rounding error by `|b/a|` per coefficient, so results are only
    /// trustworthy when `|b| ≤ |a|` or the degree is small. This is why the
    /// x-tuple ranking path (`prf-core::xtuple`) uses a division-free
    /// divide-and-conquer over its sweep timeline instead of the obvious
    /// divide-out/multiply-in update — see the regression test there.
    ///
    /// # Panics
    /// Panics if `a == 0`.
    pub fn div_linear_in_place(&mut self, a: f64, b: f64) {
        assert!(
            a != 0.0,
            "div_linear_in_place requires a non-zero constant term"
        );
        if self.is_zero() {
            return;
        }
        // q satisfies (a + b x)·q = self  ⇒  qᵢ = (selfᵢ − b·qᵢ₋₁)/a.
        let inv_a = 1.0 / a;
        let mut prev = 0.0;
        for c in self.coeffs.iter_mut() {
            let q = (*c - b * prev) * inv_a;
            *c = q;
            prev = q;
        }
        // Exact division shrinks the degree by one; drop the (numerically
        // tiny) top coefficient when the caller multiplied without truncation.
        self.normalize();
    }

    /// Divide-and-conquer product of many polynomials (Appendix B.1).
    ///
    /// Splits the factor list so both halves have roughly equal total degree,
    /// recursing and combining with [`Poly::mul`]. Total work is
    /// `O(D log D log k)` for total degree `D` over `k` factors.
    pub fn product(mut factors: Vec<Poly>) -> Poly {
        match factors.len() {
            0 => return Poly::one(),
            1 => return factors.pop().expect("non-empty"),
            _ => {}
        }
        if factors.iter().any(|f| f.is_zero()) {
            return Poly::zero();
        }
        fn rec(fs: &mut [Poly]) -> Poly {
            if fs.len() == 1 {
                return fs[0].clone();
            }
            // Split by cumulative degree so each half is ~D/2.
            let total: usize = fs.iter().map(|f| f.coeffs.len()).sum();
            let mut acc = 0usize;
            let mut split = 1;
            for (i, f) in fs.iter().enumerate() {
                acc += f.coeffs.len();
                if acc * 2 >= total {
                    split = (i + 1).min(fs.len() - 1).max(1);
                    break;
                }
            }
            let (l, r) = fs.split_at_mut(split);
            rec(l).mul(&rec(r))
        }
        rec(&mut factors)
    }

    /// Naive sequential product of many polynomials (for benchmarking against
    /// [`Poly::product`]).
    pub fn product_sequential(factors: &[Poly]) -> Poly {
        factors.iter().fold(Poly::one(), |acc, f| acc.mul_naive(f))
    }
}

impl std::fmt::Display for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}x")?,
                _ => write!(f, "{c}x^{i}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &Poly, b: &Poly, tol: f64) -> bool {
        let n = a.coeffs.len().max(b.coeffs.len());
        (0..n).all(|i| (a.coeff(i) - b.coeff(i)).abs() <= tol)
    }

    #[test]
    fn construction_normalises() {
        let p = Poly::from_coeffs(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert!(Poly::constant(0.0).is_zero());
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn eval_and_derivative() {
        let p = Poly::from_coeffs(vec![2.0, -3.0, 1.0]); // 2 - 3x + x²
        assert_eq!(p.eval(0.0), 2.0);
        assert_eq!(p.eval(2.0), 0.0);
        assert_eq!(p.derivative().coeffs(), &[-3.0, 2.0]);
        let z = p.eval_complex(Complex::new(0.0, 1.0)); // 2 - 3i + i² = 1 - 3i
        assert!(z.approx_eq(Complex::new(1.0, -3.0), 1e-12));
    }

    #[test]
    fn naive_mul() {
        let a = Poly::linear(1.0, 2.0);
        let b = Poly::linear(3.0, 1.0);
        assert_eq!(a.mul_naive(&b).coeffs(), &[3.0, 7.0, 2.0]);
        assert!(a.mul_naive(&Poly::zero()).is_zero());
    }

    #[test]
    fn fft_mul_matches_naive() {
        let a = Poly::from_coeffs((0..100).map(|i| (i as f64 * 0.37).sin()).collect());
        let b = Poly::from_coeffs((0..80).map(|i| (i as f64 * 0.11).cos()).collect());
        assert!(close(&a.mul_fft(&b), &a.mul_naive(&b), 1e-7));
    }

    #[test]
    fn truncated_mul() {
        let a = Poly::from_coeffs(vec![1.0; 10]);
        let b = Poly::from_coeffs(vec![1.0; 10]);
        let full = a.mul_naive(&b);
        let trunc = a.mul_truncated(&b, 5);
        for i in 0..5 {
            assert_eq!(full.coeff(i), trunc.coeff(i));
        }
        assert!(trunc.degree().unwrap() < 5);
    }

    /// The indexed schoolbook loop `mul_truncated` ran before its inner
    /// loop became a zip: the reference the rewrite must match bit for bit.
    fn mul_truncated_indexed(lhs: &Poly, rhs: &Poly, cap: usize) -> Poly {
        if lhs.is_zero() || rhs.is_zero() || cap == 0 {
            return Poly::zero();
        }
        let n = (lhs.coeffs.len() + rhs.coeffs.len() - 1).min(cap);
        let mut out = vec![0.0; n];
        for (i, &a) in lhs.coeffs.iter().enumerate().take(n) {
            if a == 0.0 {
                continue;
            }
            let jmax = (n - i).min(rhs.coeffs.len());
            for (j, &b) in rhs.coeffs.iter().enumerate().take(jmax) {
                out[i + j] += a * b;
            }
        }
        Poly::from_coeffs(out)
    }

    #[test]
    fn truncated_mul_into_is_bit_identical() {
        let a = Poly::from_coeffs((0..12).map(|i| (i as f64 * 0.71).sin()).collect());
        let b = Poly::from_coeffs(vec![0.0, 0.3, 0.0, -1.5, 2.25, 1e-300]);
        let operands = [Poly::zero(), Poly::one(), Poly::linear(0.0, 1.0), a, b];
        // A dirty, over-long buffer: every product must overwrite it.
        let mut out = Poly::from_coeffs(vec![9.0; 40]);
        for l in &operands {
            for r in &operands {
                let full = l.coeffs.len() + r.coeffs.len();
                for cap in [0usize, 1, 2, 7, full, full + 3, usize::MAX] {
                    l.mul_truncated_into(r, cap, &mut out);
                    let want = mul_truncated_indexed(l, r, cap);
                    for got in [&out, &l.mul_truncated(r, cap)] {
                        assert_eq!(got.coeffs.len(), want.coeffs.len(), "cap {cap}");
                        for (x, y) in got.coeffs.iter().zip(&want.coeffs) {
                            assert_eq!(x.to_bits(), y.to_bits(), "cap {cap}");
                        }
                    }
                    // Uncapped, the truncated product is the full product.
                    if cap >= full {
                        assert_eq!(out, l.mul_naive(r));
                    }
                }
            }
        }
    }

    #[test]
    fn linear_in_place_roundtrip() {
        let mut p = Poly::from_coeffs(vec![0.5, 0.25, -1.0, 2.0]);
        let original = p.clone();
        p.mul_linear_in_place(0.7, 0.3, usize::MAX);
        assert!(close(
            &p,
            &original.mul_naive(&Poly::linear(0.7, 0.3)),
            1e-12
        ));
        p.div_linear_in_place(0.7, 0.3);
        assert!(close(&p, &original, 1e-9));
    }

    #[test]
    fn linear_in_place_truncated() {
        let mut p = Poly::from_coeffs(vec![1.0, 1.0, 1.0]);
        p.mul_linear_in_place(1.0, 1.0, 3);
        // (1+x+x²)(1+x) = 1+2x+2x²+x³, truncated to 3 coefficients.
        assert_eq!(p.coeffs(), &[1.0, 2.0, 2.0]);
    }

    #[test]
    fn product_divide_and_conquer() {
        let factors: Vec<Poly> = (1..=6).map(|i| Poly::linear(i as f64, 1.0)).collect();
        let dc = Poly::product(factors.clone());
        let seq = Poly::product_sequential(&factors);
        assert!(close(&dc, &seq, 1e-9));
        assert_eq!(dc.degree(), Some(6));
        // Constant term = 6!, leading term = 1.
        assert!((dc.coeff(0) - 720.0).abs() < 1e-9);
        assert!((dc.coeff(6) - 1.0).abs() < 1e-9);
        assert_eq!(Poly::product(vec![]), Poly::one());
    }

    #[test]
    fn generating_function_probabilities() {
        // Example 1 of the paper: three independent tuples with p = .5,.6,.4;
        // F³(x) = (.5+.5x)(.4+.6x)(.4x) = .08x + .2x² + .12x³.
        let f = Poly::product(vec![
            Poly::linear(0.5, 0.5),
            Poly::linear(0.4, 0.6),
            Poly::linear(0.0, 0.4),
        ]);
        assert!((f.coeff(1) - 0.08).abs() < 1e-12);
        assert!((f.coeff(2) - 0.20).abs() < 1e-12);
        assert!((f.coeff(3) - 0.12).abs() < 1e-12);
        assert_eq!(f.coeff(0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn coeffs() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-3.0f64..3.0, 0..24)
    }

    proptest! {
        #[test]
        fn fft_mul_matches_naive(a in coeffs(), b in coeffs()) {
            let pa = Poly::from_coeffs(a);
            let pb = Poly::from_coeffs(b);
            let naive = pa.mul_naive(&pb);
            let fft = pa.mul_fft(&pb);
            let n = naive.coeffs().len().max(fft.coeffs().len());
            for i in 0..n {
                prop_assert!((naive.coeff(i) - fft.coeff(i)).abs() < 1e-7);
            }
        }

        #[test]
        fn truncated_mul_is_prefix_of_full(a in coeffs(), b in coeffs(), cap in 1usize..16) {
            let pa = Poly::from_coeffs(a);
            let pb = Poly::from_coeffs(b);
            let full = pa.mul_naive(&pb);
            let trunc = pa.mul_truncated(&pb, cap);
            for i in 0..cap {
                prop_assert!((full.coeff(i) - trunc.coeff(i)).abs() < 1e-10);
            }
            prop_assert!(trunc.coeffs().len() <= cap);
        }

        #[test]
        fn linear_roundtrip_in_stable_regime(
            coeffs in coeffs(),
            a in 0.5f64..2.0,
            ratio in -1.0f64..1.0,
        ) {
            // Synthetic division is stable only for |b| ≤ |a| (see the
            // method's stability caveat); the property holds exactly there.
            let b = a * ratio;
            let original = Poly::from_coeffs(coeffs);
            let mut p = original.clone();
            p.mul_linear_in_place(a, b, usize::MAX);
            p.div_linear_in_place(a, b);
            let n = original.coeffs().len().max(p.coeffs().len());
            for i in 0..n {
                prop_assert!((original.coeff(i) - p.coeff(i)).abs() < 1e-6);
            }
        }

        #[test]
        fn product_orders_are_equal(ps in proptest::collection::vec(0.0f64..1.0, 1..12)) {
            // Generating-function use case: product of (1-p + p·x).
            let factors: Vec<Poly> = ps.iter().map(|&p| Poly::linear(1.0 - p, p)).collect();
            let dc = Poly::product(factors.clone());
            let seq = Poly::product_sequential(&factors);
            for i in 0..=ps.len() {
                prop_assert!((dc.coeff(i) - seq.coeff(i)).abs() < 1e-9);
            }
            // Coefficients of a probability generating function sum to 1.
            let total: f64 = dc.coeffs().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn eval_consistent_with_coeffs(coeffs in coeffs(), x in -1.5f64..1.5) {
            let p = Poly::from_coeffs(coeffs.clone());
            let direct: f64 = coeffs.iter().enumerate().map(|(i, c)| c * x.powi(i as i32)).sum();
            prop_assert!((p.eval(x) - direct).abs() < 1e-7);
        }
    }
}
