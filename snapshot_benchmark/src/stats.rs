//! Order statistics for latency samples: median, quartiles, and the
//! highest percentile a sample can support.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — a p99 over 50 samples is the maximum of noise, not a tail.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sample sorted once, queried many times.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaNs are dropped: they carry no order).
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// The sample count `n`.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`0.0..=1.0`) by linear interpolation between the
    /// two nearest order statistics; `0.0` for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// First and third quartile.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond the `percent`-th
    /// percentile's rank (whole percentiles, so the test is exact).
    pub fn supports(&self, percent: u32) -> bool {
        self.sorted.len() * (100 - percent.min(100) as usize) >= MIN_BEYOND * 100
    }

    /// The highest whole percentile in `50..=cap` with at least
    /// [`MIN_BEYOND`] samples beyond it, and its value: `(percent, value)`.
    /// A sample too small even for p50 reports its median as `(50, _)`.
    pub fn tail(&self, cap: u32) -> (u32, f64) {
        let percent = (50..=cap.max(50))
            .rev()
            .find(|&p| self.supports(p))
            .unwrap_or(50);
        (percent, self.quantile(percent as f64 / 100.0))
    }
}

/// Median of a slice (convenience for one-off use).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Sample::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quartiles(), (1.75, 3.25));
        assert_eq!(Sample::new(vec![7.0]).median(), 7.0);
        assert_eq!(Sample::new(vec![]).median(), 0.0);
    }

    #[test]
    fn nans_are_dropped() {
        let s = Sample::new(vec![f64::NAN, 1.0, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 50 samples: p99 would have half a sample beyond it; p80 has 10.
        let fifty = Sample::new((1..=50).map(f64::from).collect());
        assert!(!fifty.supports(99));
        assert!(!fifty.supports(95));
        assert!(fifty.supports(80));
        assert_eq!(fifty.tail(99).0, 80);
        // 200 samples carry a p95 (10 beyond) but no p99.
        let two_hundred = Sample::new((1..=200).map(f64::from).collect());
        assert!(two_hundred.supports(95));
        assert_eq!(two_hundred.tail(99).0, 95);
        assert_eq!(two_hundred.tail(90).0, 90);
        // 1000 samples carry a p99.
        let thousand = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(thousand.tail(99).0, 99);
        // Too small for anything: falls back to the median.
        let five = Sample::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(five.tail(99), (50, 3.0));
    }
}
