//! Order statistics and digests shared by the workloads and the report.

/// 64-bit FNV-1a over a sequence of `u64`s (little-endian bytes) — the
/// digest the benchmark prints so two commits can be diffed for
/// simulated-statistics identity.
pub fn fnv_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    mtb_bench::harness::fnv1a(&bytes)
}

/// The `q`-quantile (0 < q < 1) of `samples` by linear interpolation
/// between order statistics, refusing a tail estimate that has fewer than
/// ten samples beyond it: a p90 over 50 runs rests on five samples and
/// moves with every one of them.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() || !(0.0..1.0).contains(&q) {
        return Err(format!("percentile {q} of {} samples", samples.len()));
    }
    let last = samples.len() - 1;
    let pos = q * last as f64;
    let beyond = last - pos.floor() as usize;
    if q > 0.5 && beyond < 10 {
        return Err(format!(
            "p{:.0} over {} samples leaves {beyond} beyond it (need at least 10)",
            q * 100.0,
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).expect("median of a non-empty sample")
}

/// First and third quartiles, as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them, so the spread printed
/// by `--repeat` is the one the benchmark's acceptance check uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n as f64 + 1.0;
    let at = |j: usize| {
        // Position j/4 of the way through n + 1 slots, 1-based.
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        s[k - 1] + (s[k] - s[k - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_a_tail_of_fewer_than_ten_samples() {
        let ninety: Vec<f64> = (0..90).map(f64::from).collect();
        let err = percentile(&ninety, 0.9).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&hundred, 0.9).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9, "{p90}");
        assert_eq!(median(&hundred), 49.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(fnv_u64s([1, 2]), fnv_u64s([1, 2]));
        assert_ne!(fnv_u64s([1, 2]), fnv_u64s([2, 1]));
    }
}
