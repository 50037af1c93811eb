//! End-to-end tuning benchmark for PStorM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resubmit|store_mix|tenant_onboard> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets itself up several times (the median is `setup_s`),
//! runs a closed loop for `--seconds` through the public API, checks every
//! output, reopens its store and reads back every acknowledged profile.
//! With `--trace 1` it then replays a fixed prefix of the loop's
//! operations through the layer functions the daemon calls, one span per
//! call, and reports per-layer metrics instead of end-to-end ones. The
//! last line of standard output is one JSON object; see README.md.

mod layers;
mod pipeline;
mod resubmit;
mod stats;
mod store_mix;
mod tenant;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::{median, summarize_at, Summary};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Out {
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Out {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Print a latency summary under a workload-specific name, with the
    /// tail's percentile and the sample count.
    pub fn note_latency(&mut self, name: &str, unit: &str, s: &Summary) {
        self.note(format!(
            "{name}: p50 {:.4} {unit}, tail p{} {:.4} {unit} (n = {})",
            s.p50, s.tail_pct, s.tail, s.n
        ));
    }

    /// The end-to-end metrics every workload reports. The tail is taken
    /// at a fixed percentile per workload, and each workload runs until
    /// that percentile has ten samples beyond it, so that a faster
    /// program, which completes more operations, reports the same
    /// percentile as a slower one.
    #[allow(clippy::too_many_arguments)]
    pub fn common_e2e(
        &mut self,
        setup_s: &[f64],
        op_ms: &[f64],
        tail_pct: f64,
        loop_s: f64,
        matched_frac: f64,
        peak_rss_mb: f64,
        disk_bytes_per_profile: f64,
    ) {
        let s = summarize_at(op_ms, tail_pct);
        self.note(format!(
            "setup_s: median of {} set-ups {:?}",
            setup_s.len(),
            setup_s
        ));
        self.note_latency("op latency", "ms", &s);
        self.e2e("op_p50_ms", s.p50, "ms");
        self.e2e("op_tail_ms", s.tail, "ms");
        self.e2e("ops_per_s", op_ms.len() as f64 / loop_s, "1/s");
        self.e2e("matched_frac", matched_frac, "ratio");
        self.e2e("peak_rss_mb", peak_rss_mb, "MB");
        self.e2e("disk_bytes_per_profile", disk_bytes_per_profile, "B");
        self.e2e("setup_s", median(setup_s), "s");
    }
}

/// The directory a run keeps its stores in, under the working directory.
pub struct Work {
    pub root: PathBuf,
}

impl Work {
    fn new(args: &Args) -> std::io::Result<Work> {
        let root = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Work { root })
    }

    /// A fresh, empty directory `name` under the run's root.
    pub fn dir(&self, name: &str) -> PathBuf {
        let d = self.root.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Run `setup` `n` times, timing each; keep the last result.
pub fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        // Drop the previous set-up first, so two never hold memory at once.
        drop(last.take());
        let t = Instant::now();
        let v = setup(i)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn json_metrics(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match Work::new(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "resubmit" => resubmit::run(&args, &work),
        "store_mix" => store_mix::run(&args, &work),
        "tenant_onboard" => tenant::run(&args, &work),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            drop(work);
            std::process::exit(1);
        }
    };
    drop(work);

    for line in &out.notes {
        println!("# {line}");
    }
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for (name, value, unit) in metrics {
        println!("{name} = {value} {unit}");
    }
    let failed = out.failures.len() as u64;
    let nonfinite = metrics.iter().any(|(_, v, _)| !v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0 && !nonfinite && out.attempted > 0,
        out.attempted.max(1),
        failed,
        json_metrics(metrics)
    );
}
