//! Summary statistics and process readings shared by both run modes.

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least [`TAIL_BEYOND`] samples above it (nearest-rank), so the
/// reported tail never rests on fewer than ten observations.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported, e.g. 82 for p82.
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The [`Tail`] of `xs`. With too few samples for ten beyond any rank,
/// the maximum (p100, nothing beyond) is returned and the caller flags it.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            percentile: 100,
            value: v.last().copied().unwrap_or(0.0),
            beyond: 0,
        };
    }
    // Highest q with rank ceil(q·n/100) ≤ n − 10.
    let q = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (q as usize * n).div_ceil(100).max(1);
    Tail {
        percentile: q,
        value: v[rank - 1],
        beyond: n - rank,
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `kB` field (`VmRSS`, `VmHWM`, …) of `/proc/self/status`, in bytes.
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: give free heap pages back to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free pages to the operating system, so the
/// resident set holds live data only. Without this, memory freed during
/// set-up stays resident, later queries reuse a seed-dependent share of
/// it, and the peak above the post-set-up resident set swings by 2-3x.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and may be called at any time;
    // it only releases pages the allocator already holds as free.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the peak resident set (`VmHWM`) to the current resident set, so
/// a later `VmHWM` reading covers only what ran after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=56).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 82);
        assert!(t.beyond >= TAIL_BEYOND, "{t:?}");
        assert_eq!(t.value, 46.0);
        assert_eq!(tail(&[3.0, 1.0]).percentile, 100);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
