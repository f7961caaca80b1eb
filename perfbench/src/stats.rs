//! Order statistics over latency samples.
//!
//! A failed operation is recorded as `f64::INFINITY`, so it sorts above
//! every measured latency and counts as over any limit.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// The `pct`-th percentile of `values` by nearest rank.
///
/// Refuses a percentile with fewer than ten samples above it: with `n`
/// samples the nearest-rank `p`-th percentile is sample
/// `ceil(p/100 * n)`, and `n - ceil(p/100 * n)` samples lie beyond it.
/// p99 therefore needs at least 1000 samples and p90 at least 100.
pub fn percentile(values: &[f64], pct: f64) -> Result<f64, String> {
    let n = values.len();
    if !(0.0..100.0).contains(&pct) {
        return Err(format!("percentile {pct} is outside [0, 100)"));
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if pct > 50.0 && beyond < 10 {
        return Err(format!(
            "p{pct} over {n} samples has only {beyond} sample(s) beyond it (need 10)"
        ));
    }
    if n == 0 {
        return Err("no samples".to_string());
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank.clamp(1, n) - 1])
}

/// Count of samples strictly above `limit` (failures included).
pub fn over(values: &[f64], limit: f64) -> usize {
    values.iter().filter(|v| **v > limit).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&v, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Ok(990.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 90.0).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
    }

    #[test]
    fn median_and_p50_agree_on_odd_counts() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 50.0), Ok(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_sort_above_every_latency() {
        let mut v: Vec<f64> = vec![1.0; 995];
        v.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&v, 99.0), Ok(1.0));
        v.extend([f64::INFINITY; 10]);
        assert_eq!(percentile(&v, 99.0), Ok(f64::INFINITY));
        assert_eq!(over(&v, 250.0), 15);
    }
}
