//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is kept as a raw sample and ranked
//! here, so a percentile is one of the measured values, never a histogram
//! bucket bound.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q · n` samples at or below it. `0.0` for no samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A set of raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile `q` of the samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_samples_report_the_sample_not_a_bucket_bound() {
        let mut s: Samples = std::iter::repeat_n(10_000.0, 1000).collect();
        assert_eq!(s.quantile(0.99), 10_000.0);
        assert_eq!(s.median(), 10_000.0);
    }

    #[test]
    fn hand_checked_vector() {
        // Sorted: 1 2 3 5 8 13 21 34 55 89 (n = 10).
        let mut s: Samples = [55.0, 3.0, 89.0, 1.0, 21.0, 8.0, 2.0, 34.0, 13.0, 5.0]
            .into_iter()
            .collect();
        // p50: rank ceil(5.0) = 5 -> 8.
        assert_eq!(s.median(), 8.0);
        // p90: rank ceil(9.0) = 9 -> 55.
        assert_eq!(s.quantile(0.90), 55.0);
        // p99: rank ceil(9.9) = 10 -> 89.
        assert_eq!(s.quantile(0.99), 89.0);
        // p25: rank ceil(2.5) = 3 -> 3.
        assert_eq!(s.quantile(0.25), 3.0);
        // p0 and p100 are the extremes.
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 89.0);
    }

    #[test]
    fn ninety_ninth_percentile_of_one_to_a_thousand() {
        let mut s: Samples = (1..=1000).map(f64::from).collect();
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn empty_and_single_sample() {
        assert_eq!(Samples::new().quantile(0.99), 0.0);
        let mut one: Samples = [7.5].into_iter().collect();
        assert_eq!(one.quantile(0.01), 7.5);
        assert_eq!(one.quantile(0.99), 7.5);
    }

    #[test]
    fn pushing_after_a_query_resorts() {
        let mut s: Samples = [3.0, 1.0].into_iter().collect();
        assert_eq!(s.quantile(1.0), 3.0);
        s.push(0.5);
        s.push(9.0);
        assert_eq!(s.quantile(0.0), 0.5);
        assert_eq!(s.quantile(1.0), 9.0);
    }
}
