//! Order statistics and open-loop schedule accounting.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile a sample of `n` values supports: p95, or — when
/// fewer than `TAIL_BEYOND` samples would lie beyond p95 — the highest
/// percentile that still has `TAIL_BEYOND` samples beyond it. Below
/// `TAIL_BEYOND + 1` samples no tail is supported and the median is used.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= TAIL_BEYOND {
        return 0.5;
    }
    let supported = (n - TAIL_BEYOND) as f64 / n as f64;
    supported.clamp(0.5, 0.95)
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `values` (NaN-free). Empty input
/// gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, or `None` for an empty sample.
pub fn median_opt(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| median(values))
}

/// The tail value [`tail_quantile`] allows, with the quantile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let q = tail_quantile(values.len());
    (quantile(values, q), q)
}

/// Arithmetic mean; NaN for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A fixed-rate open-loop send schedule: request `i` is due at
/// `start + i / rate`, whether or not earlier requests have completed.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// How late request `i` was actually sent (zero if on time).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }

    /// Latency of request `i`, timed from when it was due — so a stalled
    /// generator charges its stall to every request it delayed.
    pub fn latency(&self, i: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p95_with_enough_samples() {
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(10_000), 0.95);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        for n in 20..400 {
            let q = tail_quantile(n);
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn tail_falls_back_to_median_on_tiny_samples() {
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(15), 0.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
        // 200 samples: p95 is the 190th value, and 10 values lie beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (190.0, 0.95));
    }

    #[test]
    fn on_time_requests_are_not_late() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0);
        assert_eq!(s.due(3), t0 + Duration::from_millis(30));
        assert_eq!(
            s.lateness(3, t0 + Duration::from_millis(20)),
            Duration::ZERO
        );
        assert_eq!(
            s.latency(3, t0 + Duration::from_millis(35)),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn a_stall_is_charged_to_every_delayed_request() {
        // 100 req/s; the generator stalls until 55 ms, then sends requests
        // 1..=5 (due at 10..50 ms) at once, each answered 1 ms later.
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0);
        let resume = t0 + Duration::from_millis(55);
        let lateness: Vec<u128> = (1..=5).map(|i| s.lateness(i, resume).as_millis()).collect();
        assert_eq!(lateness, vec![45, 35, 25, 15, 5]);
        let done = resume + Duration::from_millis(1);
        let latency: Vec<u128> = (1..=5).map(|i| s.latency(i, done).as_millis()).collect();
        assert_eq!(latency, vec![46, 36, 26, 16, 6]);
    }
}
