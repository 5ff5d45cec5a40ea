//! Order statistics over a handful of samples.

/// Median, extremes and quartile spread of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
    /// Distance between the first and third quartile as a share of the
    /// median; 0 with fewer than two samples.
    pub spread: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let median = median_sorted(&v);
        let spread = match quartiles_sorted(&v) {
            Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
            _ => 0.0,
        };
        Some(Summary {
            median,
            min,
            max,
            n: v.len(),
            spread,
        })
    }
}

/// Median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

fn median_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so the spreads printed here are the
/// ones the acceptance driver recomputes.
fn quartiles_sorted(v: &[f64]) -> Option<(f64, f64)> {
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.median, 5.5);
        assert!((s.spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.0, 4.0, 3));
        assert!((s.spread - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[7.0]).unwrap().spread, 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
