//! Scaled floating point: values of the form `m · 2^e` with `m` an `f64` (or
//! [`Complex`]) mantissa and `e` an explicit `i64` exponent.
//!
//! PRFe values are products of up to `n` factors in `(0, 1]`; at paper scale
//! (`n = 10⁵`, `α = 0.95`) the true value is around `e^{-2500}`, far below
//! the smallest positive `f64`. A plain-float implementation silently
//! underflows to zero — harmless for a one-shot evaluation of the *top*
//! tuples, but fatal for the incremental ∧-node caches of Algorithm 3, which
//! divide stale factors back out of a running product: once the product
//! underflows it can never recover.
//!
//! [`Scaled`] keeps the mantissa within `2^{±512}` of 1 by shifting powers of
//! two into the exponent, so products of millions of probability factors stay
//! exact to `f64` relative precision. Ranking keys come out in log₂ space via
//! [`Scaled::log2_magnitude`] / [`Scaled::signed_log_key`].

use crate::complex::Complex;
use crate::ring::{GfField, GfValue};

/// Chunk by which mantissas are renormalised (2^512 is exactly
/// representable, and far from both f64 overflow and underflow).
const CHUNK: i64 = 512;
const CHUNK_UP: f64 = 1.3407807929942597e154; // 2^512
const CHUNK_DOWN: f64 = 7.458340731200207e-155; // 2^-512
/// Exponent gap beyond which the smaller addend cannot affect the sum.
const ADD_CUTOFF: i64 = 128;

/// Magnitude proxy used for normalisation decisions. Implemented for `f64`
/// and [`Complex`]; not intended for implementation outside this crate.
pub trait Mantissa: GfValue + Copy {
    /// Magnitude (absolute value / modulus) of the mantissa.
    fn mag(self) -> f64;
    /// Multiplies by `2^(CHUNK · chunks_up)` exactly.
    fn mul_pow2(self, chunks_up: i64) -> Self;
    /// Whether the value is exactly zero (no renormalisation possible).
    fn is_exact_zero(self) -> bool;
}

impl Mantissa for f64 {
    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn mul_pow2(self, chunks: i64) -> Self {
        match chunks.cmp(&0) {
            std::cmp::Ordering::Greater => {
                let mut v = self;
                for _ in 0..chunks {
                    v *= CHUNK_UP;
                }
                v
            }
            std::cmp::Ordering::Less => {
                let mut v = self;
                for _ in 0..-chunks {
                    v *= CHUNK_DOWN;
                }
                v
            }
            std::cmp::Ordering::Equal => self,
        }
    }
    #[inline]
    fn is_exact_zero(self) -> bool {
        self == 0.0
    }
}

impl Mantissa for Complex {
    #[inline]
    fn mag(self) -> f64 {
        // `f64::max` drops a NaN operand; the magnitude must keep it.
        if self.re.is_nan() || self.im.is_nan() {
            return f64::NAN;
        }
        self.re.abs().max(self.im.abs())
    }
    #[inline]
    fn mul_pow2(self, chunks: i64) -> Self {
        Complex::new(self.re.mul_pow2(chunks), self.im.mul_pow2(chunks))
    }
    #[inline]
    fn is_exact_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
}

/// A number `mantissa · 2^{CHUNK·exp_chunks}` with the mantissa held near 1.
///
/// The exponent is stored in units of 2^512 chunks; all arithmetic
/// renormalises eagerly so mantissas never overflow or underflow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scaled<T> {
    /// Mantissa, kept within `[2^-512, 2^512]` in magnitude (or exactly 0).
    pub mantissa: T,
    /// Exponent in chunks of 2^512.
    pub exp: i64,
}

impl<T: Mantissa> Scaled<T> {
    /// Wraps a plain value.
    pub fn new(value: T) -> Self {
        let mut s = Scaled {
            mantissa: value,
            exp: 0,
        };
        s.normalize();
        s
    }

    fn normalize(&mut self) {
        if self.mantissa.is_exact_zero() {
            self.exp = 0;
            return;
        }
        // A non-finite mantissa has no scale to move into the exponent (and
        // NaN fails both comparisons).
        let mut m = self.mantissa.mag();
        while m >= CHUNK_UP && m.is_finite() {
            self.mantissa = self.mantissa.mul_pow2(-1);
            self.exp += 1;
            m = self.mantissa.mag();
        }
        while m < CHUNK_DOWN {
            self.mantissa = self.mantissa.mul_pow2(1);
            self.exp -= 1;
            m = self.mantissa.mag();
        }
    }

    /// `log₂` of the magnitude; `f64::NEG_INFINITY` for zero. A monotone
    /// ranking key for magnitude ordering that never under/overflows.
    pub fn log2_magnitude(&self) -> f64 {
        if self.mantissa.is_exact_zero() {
            f64::NEG_INFINITY
        } else {
            self.mantissa.mag().log2() + (self.exp * CHUNK) as f64
        }
    }

    /// Lossy conversion back to the plain value (may under/overflow — only
    /// meaningful when the exponent is small).
    pub fn to_plain(&self) -> T {
        self.mantissa.mul_pow2(self.exp)
    }
}

/// A totally ordered key for comparing *signed* scaled values without ever
/// materialising them: compares by sign class first, then by (sign-adjusted)
/// log₂ magnitude. Derived `PartialOrd` is lexicographic, which is exactly
/// the required order.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct SignedLogKey {
    /// `-1`, `0` or `1`.
    pub sign: i8,
    /// `log₂|v|` for positive values, `−log₂|v|` for negative values
    /// (so that within each sign class larger keys mean larger values),
    /// `0` for zero.
    pub log: f64,
}

impl SignedLogKey {
    /// A strictly monotone, *bounded* `f64` projection of the key, suitable
    /// for display and reporting (e.g. `Ranking::key_at`): it preserves the
    /// key's total order across all three sign classes — negatives land in
    /// `(−3, −1)`, zero at `0`, positives in `(1, 3)` — but is **not** a
    /// magnitude; the underlying value may be far outside `f64` range.
    ///
    /// (A naive `sign · log` projection is wrong: for negatives `log` is
    /// already `−log₂|v|`, so the product collapses both signs onto
    /// `log₂|v|`.)
    pub fn display(self) -> f64 {
        // x ↦ x/(1+|x|) squashes ℝ monotonically into (−1, 1).
        let squash = self.log / (1.0 + self.log.abs());
        match self.sign.cmp(&0) {
            std::cmp::Ordering::Greater => 2.0 + squash,
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Less => -2.0 + squash,
        }
    }
}

impl Scaled<f64> {
    /// A strictly monotone key for ordering by *signed* value across the full
    /// scaled range: positive values compare above zero, larger magnitudes
    /// compare further from zero, negatives mirror.
    pub fn signed_log_key(&self) -> SignedLogKey {
        if self.mantissa == 0.0 {
            return SignedLogKey { sign: 0, log: 0.0 };
        }
        let l = self.log2_magnitude();
        if self.mantissa > 0.0 {
            SignedLogKey { sign: 1, log: l }
        } else {
            SignedLogKey { sign: -1, log: -l }
        }
    }
}

impl Scaled<Complex> {
    /// The signed-log key of the real part (ranking key for PRFe mixtures).
    pub fn real_part_key(&self) -> SignedLogKey {
        Scaled {
            mantissa: self.mantissa.re,
            exp: self.exp,
        }
        .signed_log_key()
    }

    /// The log₂-magnitude key (ranking key for `|Υ|` ordering).
    pub fn magnitude_key(&self) -> f64 {
        if self.mantissa.is_zero() {
            f64::NEG_INFINITY
        } else {
            // Use the true modulus for the key (mag() is the ∞-norm, fine
            // for normalisation but not a ranking key).
            self.mantissa.abs().log2() + (self.exp * CHUNK) as f64
        }
    }
}

impl<T: Mantissa> GfValue for Scaled<T> {
    fn zero() -> Self {
        Scaled {
            mantissa: T::zero(),
            exp: 0,
        }
    }

    fn one() -> Self {
        Scaled {
            mantissa: T::one(),
            exp: 0,
        }
    }

    fn from_scalar(c: f64) -> Self {
        Scaled::new(T::from_scalar(c))
    }

    fn add(&self, rhs: &Self) -> Self {
        if self.mantissa.is_exact_zero() {
            return *rhs;
        }
        if rhs.mantissa.is_exact_zero() {
            return *self;
        }
        // Align to the larger exponent; a gap beyond ADD_CUTOFF chunks means
        // the smaller addend is below one ulp of the larger.
        let (big, small) = if self.exp >= rhs.exp {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let gap = big.exp - small.exp;
        if gap > ADD_CUTOFF {
            return *big;
        }
        let mut out = Scaled {
            mantissa: big.mantissa.add(&small.mantissa.mul_pow2(-gap)),
            exp: big.exp,
        };
        out.normalize();
        out
    }

    fn mul(&self, rhs: &Self) -> Self {
        let mut out = Scaled {
            mantissa: self.mantissa.mul(&rhs.mantissa),
            exp: self.exp + rhs.exp,
        };
        out.normalize();
        if out.mantissa.is_exact_zero() {
            out.exp = 0;
        }
        out
    }

    fn scale(&self, c: f64) -> Self {
        let mut out = Scaled {
            mantissa: self.mantissa.scale(c),
            exp: self.exp,
        };
        out.normalize();
        out
    }
}

impl GfField for Scaled<f64> {
    fn div(&self, rhs: &Self) -> Self {
        let mut out = Scaled {
            mantissa: self.mantissa / rhs.mantissa,
            exp: self.exp - rhs.exp,
        };
        out.normalize();
        out
    }
    fn is_zero(&self) -> bool {
        self.mantissa == 0.0
    }
}

impl GfField for Scaled<Complex> {
    fn div(&self, rhs: &Self) -> Self {
        let mut out = Scaled {
            mantissa: self.mantissa / rhs.mantissa,
            exp: self.exp - rhs.exp,
        };
        out.normalize();
        out
    }
    fn is_zero(&self) -> bool {
        self.mantissa.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representable_roundtrip() {
        let x = Scaled::new(0.375f64);
        assert_eq!(x.to_plain(), 0.375);
        assert!((x.log2_magnitude() - 0.375f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn deep_product_does_not_underflow() {
        // 0.5^100000: log2 = -100000 — far below f64 range.
        let half = Scaled::new(0.5f64);
        let mut p = Scaled::one();
        for _ in 0..100_000 {
            p = p.mul(&half);
        }
        assert!((p.log2_magnitude() + 100_000.0).abs() < 1e-6);
        // Dividing back recovers 1.
        for _ in 0..100_000 {
            p = p.div(&half);
        }
        assert!((p.to_plain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn addition_with_aligned_exponents() {
        let a = Scaled::new(3.0f64);
        let b = Scaled::new(4.0f64);
        assert!((a.add(&b).to_plain() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_mantissas_stay_put() {
        // Normalisation used to loop forever on these: NaN read as
        // magnitude 0 and ∞ never drops below the chunk bound.
        let nan = Scaled::new(Complex::new(f64::NAN, 0.0));
        assert!(nan.mantissa.re.is_nan());
        let inf = Scaled::new(f64::INFINITY);
        assert_eq!((inf.mantissa, inf.exp), (f64::INFINITY, 0));
        assert!(Scaled::new(Complex::new(0.0, f64::NAN))
            .magnitude_key()
            .is_nan());
    }

    #[test]
    fn addition_across_magnitudes_keeps_dominant() {
        let mut big = Scaled::one();
        for _ in 0..1000 {
            big = big.mul(&Scaled::new(2.0f64));
        }
        let small = Scaled::new(1.0f64);
        let sum = big.add(&small);
        assert!((sum.log2_magnitude() - 1000.0).abs() < 1e-9);
        // Symmetric argument order.
        let sum2 = small.add(&big);
        assert!((sum2.log2_magnitude() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn signed_log_key_orders_values() {
        let values = [-8.0f64, -0.25, 0.0, 1e-200, 3.0, 1e200];
        let keys: Vec<SignedLogKey> = values
            .iter()
            .map(|&v| Scaled::new(v).signed_log_key())
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
        // Fine distinctions survive (this is why the key is a pair, not a
        // single biased f64).
        let a = Scaled::new(-8.0f64).signed_log_key();
        let b = Scaled::new(-8.000001f64).signed_log_key();
        assert!(b < a);
    }

    #[test]
    fn display_projection_is_monotone_and_bounded() {
        let values = [-1e200f64, -8.0, -0.25, 0.0, 1e-200, 0.25, 3.0, 1e200];
        let displays: Vec<f64> = values
            .iter()
            .map(|&v| Scaled::new(v).signed_log_key().display())
            .collect();
        for w in displays.windows(2) {
            assert!(w[0] < w[1], "{w:?} must be strictly increasing");
        }
        for d in &displays {
            assert!(d.is_finite() && d.abs() < 3.0);
        }
        // The naive sign·log projection would collapse ±x onto one value;
        // display keeps them apart and on the right sides of zero.
        let neg = Scaled::new(-0.25f64).signed_log_key().display();
        let pos = Scaled::new(0.25f64).signed_log_key().display();
        assert!(neg < 0.0 && pos > 0.0 && neg != pos);
    }

    #[test]
    fn complex_scaled_product() {
        let z = Scaled::new(Complex::new(0.6, 0.3));
        let mut p = Scaled::<Complex>::one();
        for _ in 0..10_000 {
            p = p.mul(&z);
        }
        // |z| = sqrt(0.45); log2|p| = 10000·log2|z|.
        let expect = 10_000.0 * 0.45f64.sqrt().log2();
        // log2_magnitude uses max(|re|,|im|), within 0.5 bit of the true
        // modulus.
        assert!((p.log2_magnitude() - expect).abs() < 1.0);
        assert!(!p.is_zero());
    }

    #[test]
    fn zero_propagates() {
        let z = Scaled::<f64>::zero();
        assert!(z.is_zero());
        assert_eq!(z.log2_magnitude(), f64::NEG_INFINITY);
        let one = Scaled::<f64>::one();
        assert!(z.mul(&one).is_zero());
        assert!((z.add(&one).to_plain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gf_ring_consistency_with_plain() {
        // Random-ish expression evaluated both ways.
        let xs = [0.3f64, 1.7, 0.9, 0.01];
        let mut plain = 1.0f64;
        let mut scaled = Scaled::<f64>::one();
        for &x in &xs {
            plain = plain * x + 0.5;
            scaled = scaled.mul(&Scaled::new(x)).add(&Scaled::from_scalar(0.5));
        }
        assert!((scaled.to_plain() - plain).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn agrees_with_plain_f64_in_range(
            xs in proptest::collection::vec(-4.0f64..4.0, 1..20)
        ) {
            // Random +,× expression chains stay representable: compare.
            let mut plain = 1.0f64;
            let mut scaled = Scaled::<f64>::one();
            for &x in &xs {
                if x > 0.0 {
                    plain *= x;
                    scaled = scaled.mul(&Scaled::new(x));
                } else {
                    plain += x;
                    scaled = scaled.add(&Scaled::new(x));
                }
            }
            prop_assert!((scaled.to_plain() - plain).abs() <= 1e-9 * plain.abs().max(1.0));
        }

        #[test]
        fn log_key_monotone(a in -1e3f64..1e3, b in -1e3f64..1e3) {
            let ka = Scaled::new(a).signed_log_key();
            let kb = Scaled::new(b).signed_log_key();
            if a < b {
                prop_assert!(ka <= kb, "{a} vs {b}");
            }
            if (a - b).abs() > 1e-9 {
                prop_assert!((ka < kb) == (a < b));
            }
        }

        #[test]
        fn mul_div_roundtrip(a in 0.01f64..100.0, chain in proptest::collection::vec(0.01f64..0.99, 1..200)) {
            let mut v = Scaled::new(a);
            for &f in &chain {
                v = v.mul(&Scaled::new(f));
            }
            for &f in &chain {
                v = v.div(&Scaled::new(f));
            }
            prop_assert!((v.to_plain() - a).abs() < 1e-9 * a);
        }
    }
}
