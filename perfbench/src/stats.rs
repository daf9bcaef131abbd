//! Order statistics over timing samples.

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5).value
}

/// A nearest-rank percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`, sorting
/// them in place. An empty slice yields a zero value over zero samples.
pub fn percentile(values: &mut [f64], q: f64) -> Percentile {
    let n = values.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: values[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&mut v, 0.9);
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(percentile(&mut [], 0.5).samples, 0);
    }
}
