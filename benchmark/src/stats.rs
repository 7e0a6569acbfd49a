//! Order statistics over latency samples and over repetitions.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count). Empty input
/// reads 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric across a workload's repetitions: the reported value is the
/// median of the per-repetition values, min/max are its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcrossReps {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn across_reps(per_rep: &[f64]) -> AcrossReps {
    AcrossReps {
        median: median(per_rep),
        min: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
        max: per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn across_reps_reports_median_with_min_max_spread() {
        let r = across_reps(&[12.0, 10.0, 11.0]);
        assert_eq!(
            r,
            AcrossReps {
                median: 11.0,
                min: 10.0,
                max: 12.0
            }
        );
        // One outlier repetition moves the spread, not the value.
        assert_eq!(across_reps(&[10.0, 50.0, 11.0]).median, 11.0);
    }
}
