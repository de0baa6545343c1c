//! Sample summaries: medians and percentiles over timed operations.

/// Timed samples of one kind of operation, in the unit they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated between the
    /// two nearest ranks. `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// `n=… min … q1 … median … q3 … max …`, for the human-readable
    /// record: the spread inside one run.
    pub fn describe(&self) -> String {
        let q = |p: f64| self.quantile(p).map_or_else(|| "-".into(), |v| format!("{v:.4}"));
        format!(
            "n={} min {} q1 {} median {} q3 {} max {}",
            self.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        )
    }

    /// The 90th percentile, only when at least ten samples lie beyond
    /// it; fewer would make it the reading of a handful of outliers.
    pub fn p90(&self) -> Option<f64> {
        (self.0.len() >= 100).then(|| self.quantile(0.9)).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_p90_needs_a_hundred_samples() {
        let mut s = Samples::default();
        assert_eq!(s.median(), None);
        for v in [3.0, 1.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(2.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.p90(), None);
        for v in 0..96 {
            s.push(f64::from(v));
        }
        assert_eq!(s.len(), 100);
        assert!(s.p90().is_some());
    }
}
