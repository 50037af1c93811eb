//! Order statistics and process/disk measurements shared by the workloads.

use std::path::Path;

/// Percentiles the tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 when there are no samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// A latency summary: median plus a tail percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summary with the tail at `tail_pct`.
pub fn summarize_at(samples: &[f64], tail_pct: f64) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        tail_pct,
        tail: percentile(&s, tail_pct),
    }
}

/// Summary with the tail at the highest ladder percentile that still has
/// at least ten samples beyond it.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    let tail_pct = TAIL_LADDER
        .into_iter()
        .rev()
        .find(|p| n >= ((p / 100.0) * n as f64).ceil() as usize + 10)
        .unwrap_or(50.0);
    summarize_at(samples, tail_pct)
}

/// The number of samples a run needs so that percentile `pct` has at
/// least ten samples beyond it.
pub fn min_samples(pct: f64) -> usize {
    (10.0 / (1.0 - pct / 100.0)).ceil() as usize
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
