//! Order statistics over latency samples.

/// How many samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (the mean of the two middle values for an
/// even count), or `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank value at whole percentile `pct` (1 to 100): the
/// smallest sample with at least `pct`% of the samples at or below it.
pub fn nearest_rank(samples: &[f64], pct: u32) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct)])
}

/// The highest whole percentile (at most 99) whose nearest-rank value
/// leaves at least [`MIN_BEYOND`] samples strictly beyond its rank, and
/// that value.  `None` when fewer than `2 × MIN_BEYOND` samples exist,
/// where such a percentile would lie at or below the median.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let pct = (1..=99u32)
        .rev()
        .find(|&pct| n - 1 - rank(n, pct) >= MIN_BEYOND)?;
    nearest_rank(samples, pct).map(|value| (pct, value))
}

/// The zero-based nearest-rank index of percentile `pct` among `n`
/// sorted samples: `ceil(pct · n / 100) − 1`, clamped to the samples.
fn rank(n: usize, pct: u32) -> usize {
    let position = (pct as usize * n).div_ceil(100);
    position.clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
