//! Order statistics over a handful of repetitions.

/// Median, quartiles and sample count of one timing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 when the
    /// median is 0 or there are too few samples for quartiles).
    pub fn iqr_rel(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }
}

/// Quantile by linear interpolation at position `p * (n + 1)` of the
/// sorted sample (1-based, clamped to the ends) — the "exclusive"
/// method, which is what Python's `statistics.quantiles(v, n=4)` and
/// `statistics.median` use, so the spreads printed here read the same
/// as the driver's.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

/// Summarise a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Summary {
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[4.0]).iqr_rel(), 0.0);
    }
}
