//! Order statistics for the printed metrics.

/// Fewest samples a p99 may come from: ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Nearest-rank percentile of `samples` (`q` in 0..=100), the rank rule
/// `cider_fleet::FleetReport` uses.
///
/// # Errors
///
/// No samples, or a p99 (or higher) from fewer than
/// [`MIN_P99_SAMPLES`] samples, which would leave fewer than ten beyond
/// it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{q} of no samples"));
    }
    if q >= 99.0 && samples.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "refusing p{q} from {} samples (need {MIN_P99_SAMPLES})",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 50.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| {
            v.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&v).unwrap(), 500.0);
        assert_eq!(percentile(&v, 99.0).unwrap(), 990.0);
        assert!(percentile(&v[..999], 99.0).is_err());
        assert_eq!(median(&[3.0]).unwrap(), 3.0);
    }
}
