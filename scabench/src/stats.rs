//! Order statistics for latency samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent: `100 * (n - 10) / n`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Total sample count `n`.
    pub samples: usize,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// with `n` samples sorted ascending, the value at rank `n - 11`
/// (0-based), which has exactly ten samples after it, reported as the
/// `100 * (n - 10) / n`th percentile. `None` below eleven samples, where
/// no percentile has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// The tail rule applied to each consecutive slice of `window` samples
/// of `values` (in completion order), and the median of the per-window
/// tails.
///
/// The pooled tail is the eleventh-largest sample of the whole run: one
/// order statistic, which the delays a shared machine injects into a
/// few percent of requests decide on their own. Inside a window of
/// `window` samples the rule picks the `100 * (window - 10) / window`th
/// percentile, and the median over windows lets a burst move only the
/// windows it hits. The returned [`Tail`] carries that percentile and
/// the total sample count; samples after the last whole window fall in
/// none. `None` when `window` holds ten samples or fewer, or `values`
/// not even one window.
pub fn windowed_tail(values: &[f64], window: usize) -> Option<Tail> {
    if window <= TAIL_BEYOND {
        return None;
    }
    let tails: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| {
            tail(w)
                .expect("window holds more than TAIL_BEYOND samples")
                .value
        })
        .collect();
    Some(Tail {
        percentile: 100.0 * (window - TAIL_BEYOND) as f64 / window as f64,
        value: median(&tails)?,
        samples: values.len(),
    })
}

/// The calm windows of a run: indices, in time order, of the timing
/// windows whose host CPU steal is at most that of the window ranked
/// at the first quarter from the least stolen (`steal[i]` is window
/// `i`'s, in percent; an unreadable steal counts as none). That is at
/// least a quarter of the windows, and all of them when steal is even.
///
/// Steal is time the hypervisor gave other tenants while this machine's
/// CPUs wanted to run, so it inflates every timed metric in the windows
/// it hits without being the program's doing. On a shared host it
/// comes in episodes that start, stop and vary in strength mid-run;
/// timing over the calm windows keeps an episode that leaves a quarter
/// of the run alone out of the figures.
pub fn calm_windows(steal: &[Option<f64>]) -> Vec<usize> {
    let steal: Vec<f64> = steal.iter().map(|s| s.unwrap_or(0.0)).collect();
    let mut sorted = steal.clone();
    sorted.sort_by(f64::total_cmp);
    let Some(&limit) = sorted.get(steal.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}
