//! Order statistics and the process counters the benchmark reports.

/// Samples that must lie beyond a reported percentile: a percentile with
/// fewer than this many samples above it is read off a handful of points.
pub const MIN_TAIL: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL`] samples lie beyond the percentile
/// (for p90: fewer than 100 samples).
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{:.0} needs at least {MIN_TAIL} samples beyond it; {n} sample(s) leave {beyond}",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `samples` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ ticks (100 per
    // second on Linux). The command name (field 2) may hold spaces, so
    // split after its closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After the ')' the state is field 3, so utime (14) sits at index 11.
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).is_err());
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(89.0));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(50.0));
        assert!(percentile(&samples[..19], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_counters_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
