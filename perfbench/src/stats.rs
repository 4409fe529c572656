//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: f64 = 10.0;

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The nearest-rank quantile `q` in `0..=1` of ascending `sorted` values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it (the ladder's floor when `n` is smaller than that).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND - 1e-9)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// One repetition's median and tail (at [`tail_percentile`] of its own
/// sample count).
pub fn p50_and_tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len());
    (quantile(&sorted, 0.5), quantile(&sorted, p / 100.0))
}

/// A latency's median and tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
}

impl Latency {
    /// Median and tail of all samples of all sets together.
    pub fn pooled<S: AsRef<[f64]>>(sets: impl IntoIterator<Item = S>) -> Latency {
        let all: Vec<f64> = sets.into_iter().flat_map(|s| s.as_ref().to_vec()).collect();
        let (p50, tail) = p50_and_tail(&all);
        Latency { p50, tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(300), 96.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        let samples: Vec<f64> = (1..=300).map(f64::from).collect();
        let (p50, tail) = p50_and_tail(&samples);
        assert_eq!(p50, 150.0);
        assert_eq!(samples.iter().filter(|&&s| s > tail).count(), 12);
    }

    #[test]
    fn median_of_even_count_takes_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
