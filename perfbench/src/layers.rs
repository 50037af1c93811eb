//! The traced replay's bookkeeping and the per-layer metrics derived
//! from its spans and from the program's own `obs` counters.

use std::collections::HashSet;
use std::path::Path;

use mrjobs::{Dataset, JobSpec};
use pstorm::ProfileStore;

use crate::stats::{median, ratio};
use crate::trace::{Analysis, Counters, SpanKind, Tracer};
use crate::Out;

/// Every replayed operation must be at least this well explained by the
/// self times of its layer spans.
const MIN_EXPLAINED: f64 = 0.95;

/// Service-level figures only the `tenant_onboard` workload has.
#[derive(Default)]
pub struct ServiceStats {
    /// Ticket latency minus the replayed pipeline time, per request.
    pub queue_wait_ms: Vec<f64>,
    pub peak_depth: f64,
    pub shed: f64,
}

pub struct Replay {
    pub t: Tracer,
    /// Attached to the replayed store (and the CBO) only in the replay.
    pub reg: obs::Registry,
    counters: Counters,
    /// `(job id, dataset name, records)` of every analysed input.
    analysed: HashSet<(String, String, usize)>,
    analyze_calls: usize,
    analyze_repeats: usize,
    ops: usize,
    pub failed_attempts: u64,
    pub speedups: Vec<f64>,
    /// Durations of `columnar_index` calls that rebuilt the index.
    rebuild_ms: Vec<f64>,
    /// WAL bytes the replayed store wrote.
    pub wal_bytes: u64,
}

fn key(spec: &JobSpec, ds: &Dataset) -> (String, String, usize) {
    (spec.job_id(), ds.name.clone(), ds.len())
}

impl Replay {
    pub fn new() -> Replay {
        Replay {
            t: Tracer::new(),
            reg: obs::Registry::new(),
            counters: Counters::default(),
            analysed: HashSet::new(),
            analyze_calls: 0,
            analyze_repeats: 0,
            ops: 0,
            failed_attempts: 0,
            speedups: Vec::new(),
            rebuild_ms: Vec::new(),
            wal_bytes: 0,
        }
    }

    /// Record that `(spec, ds)` was analysed before the replayed prefix
    /// (in set-up), so analysing it again counts as a repeat.
    pub fn analysed_before(&mut self, spec: &JobSpec, ds: &Dataset) {
        self.analysed.insert(key(spec, ds));
    }

    fn dur_ms(&self, op: usize, name: &str) -> Option<f64> {
        self.t
            .spans_of(op)
            .find(|s| s.name == name && s.kind == SpanKind::Layer)
            .map(|s| s.dur_ns() as f64 / 1e6)
    }

    /// Close the books on operation `op`, which ran against `store`:
    /// drain its counters, then time the steps inside `match_profile`
    /// that the benchmark cannot split (the emptiness scan and fetching
    /// the winner's profile) by repeating them on the same store state.
    pub fn after_op(
        &mut self,
        op: usize,
        store: &ProfileStore,
        input: Option<(&JobSpec, &Dataset)>,
        winner: Option<&str>,
    ) -> Result<(), String> {
        self.ops += 1;
        let added = self.counters.absorb(&self.reg);
        if added.get("store.index_rebuilds").is_some_and(|&n| n > 0) {
            if let Some(ms) = self.dur_ms(op, "pstorm.store.columnar_index") {
                self.rebuild_ms.push(ms);
            }
        }
        if let Some((spec, ds)) = input {
            let calls = self
                .t
                .spans_of(op)
                .filter(|s| s.name == "mrsim.analyze")
                .count();
            let first_time = self.analysed.insert(key(spec, ds));
            self.analyze_calls += calls;
            self.analyze_repeats += if first_time {
                calls.saturating_sub(1)
            } else {
                calls
            };
        }
        if self.dur_ms(op, "pstorm.match").is_none() {
            return Ok(());
        }
        self.t
            .call("pstorm.store.is_empty", || store.is_empty())
            .map_err(|e| format!("is_empty: {e}"))?;
        if let Some(job) = winner {
            let p = self
                .t
                .call("pstorm.store.get_profile", || store.get_profile(job))
                .map_err(|e| format!("get_profile({job}): {e}"))?;
            if p.is_none() {
                return Err(format!("match winner {job} has no stored profile"));
            }
        }
        // Drop what the probes counted.
        self.reg.reset();
        Ok(())
    }

    /// Emit every per-layer metric, run the coverage check, and write the
    /// spans to `dump`. `untraced_p50_ms` is the untraced run's median
    /// operation latency.
    pub fn finish(self, out: &mut Out, untraced_p50_ms: f64, service: ServiceStats, dump: &Path) {
        let a = Analysis::new(&self.t.spans);
        let c = &self.counters;
        let ops = self.ops as f64;
        let puts = c.get("store.put_profile");

        if a.min_explained() < MIN_EXPLAINED {
            out.fail(format!(
                "layer spans explain only {:.4} of one replayed operation (need {MIN_EXPLAINED})",
                a.min_explained()
            ));
        }
        if let Err(e) = self.t.dump(dump) {
            out.fail(format!("cannot write {}: {e}", dump.display()));
        }

        out.layer("mrsim.analyze.ms_p50", a.dur_p50_ms("mrsim.analyze"), "ms");
        out.layer("mrsim.analyze.share", a.share("mrsim.analyze"), "ratio");
        out.layer(
            "mrsim.analyze.calls_per_op",
            ratio(a.calls("mrsim.analyze") as f64, ops),
            "1/op",
        );
        out.layer(
            "mrsim.analyze.repeat_frac",
            ratio(self.analyze_repeats as f64, self.analyze_calls as f64),
            "ratio",
        );
        out.layer(
            "mrsim.simulate.ms_p50",
            a.dur_p50_ms("mrsim.simulate"),
            "ms",
        );
        out.layer("mrsim.simulate.share", a.share("mrsim.simulate"), "ratio");
        out.layer(
            "mrsim.failed_attempts_per_op",
            ratio(self.failed_attempts as f64, ops),
            "1/op",
        );

        out.layer(
            "profiler.probe.ms_p50",
            a.self_p50_ms("profiler.collect_sample_profile"),
            "ms",
        );
        out.layer(
            "profiler.probe.share",
            a.share("profiler.collect_sample_profile"),
            "ratio",
        );
        out.layer(
            "staticanalysis.extract.us_p50",
            a.dur_p50_ms("staticanalysis.extract") * 1e3,
            "us",
        );

        out.layer("pstorm.match.ms_p50", a.dur_p50_ms("pstorm.match"), "ms");
        out.layer("pstorm.match.share", a.share("pstorm.match"), "ratio");
        out.layer(
            "pstorm.store.is_empty.ms_p50",
            a.dur_p50_ms("pstorm.store.is_empty"),
            "ms",
        );
        // One emptiness probe follows every match call.
        out.layer(
            "pstorm.store.is_empty.share_of_match",
            ratio(
                a.dur_total_ns("pstorm.store.is_empty") as f64,
                a.dur_total_ns("pstorm.match") as f64,
            ),
            "ratio",
        );
        out.layer(
            "pstorm.store.columnar_index.ms_p50",
            median(&self.rebuild_ms),
            "ms",
        );
        out.layer(
            "pstorm.store.index_rebuilds_per_put",
            ratio(c.get("store.index_rebuilds"), puts),
            "ratio",
        );
        out.layer(
            "pstorm.store.get_profile.us_p50",
            a.dur_p50_ms("pstorm.store.get_profile") * 1e3,
            "us",
        );
        out.layer(
            "matcher.stage1.survivor_ratio",
            ratio(
                c.get("matcher.stage1.survivors"),
                c.get("matcher.stage1.candidates_in"),
            ),
            "ratio",
        );
        out.layer(
            "cfstore.cells_verified_per_match",
            ratio(
                c.get("cfstore.cells_verified"),
                a.calls("pstorm.match") as f64,
            ),
            "1/match",
        );
        out.layer(
            "cfstore.read_amp",
            ratio(
                c.get("cfstore.rows_scanned"),
                c.get("cfstore.rows_returned"),
            ),
            "ratio",
        );
        let (hits, misses) = (
            c.get("cfstore.block_cache.hits"),
            c.get("cfstore.block_cache.misses"),
        );
        out.layer(
            "cfstore.block_cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        out.layer(
            "cfstore.block_cache.evictions",
            c.get("cfstore.block_cache.evictions"),
            "count",
        );

        out.layer("optimizer.cbo.ms_p50", a.dur_p50_ms("optimizer.cbo"), "ms");
        out.layer("optimizer.cbo.share", a.share("optimizer.cbo"), "ratio");
        out.layer(
            "optimizer.cbo.memo_hit_ratio",
            ratio(c.get("cbo.memo_hits"), c.get("cbo.wif_calls")),
            "ratio",
        );
        out.layer(
            "optimizer.cbo.wif_calls_per_op",
            ratio(c.get("cbo.wif_calls"), ops),
            "1/op",
        );
        out.layer("optimizer.cbo.tuned_speedup", median(&self.speedups), "x");

        out.layer(
            "pstorm.store.put_profile.ms_p50",
            a.dur_p50_ms("pstorm.store.put_profile"),
            "ms",
        );
        out.layer(
            "pstorm.store.put_profile.share",
            a.share("pstorm.store.put_profile"),
            "ratio",
        );
        out.layer(
            "cfstore.wal_bytes_per_profile",
            ratio(self.wal_bytes as f64, puts),
            "B",
        );
        out.layer("cfstore.flushes", c.get("cfstore.flushes"), "count");
        out.layer(
            "cfstore.flush.segments_written",
            c.get("cfstore.flush.segments_written"),
            "count",
        );

        out.layer(
            "service.queue_wait_ms_p50",
            median(&service.queue_wait_ms),
            "ms",
        );
        out.layer("service.queue.peak_depth", service.peak_depth, "count");
        out.layer("service.admission.shed", service.shed, "count");

        let replay_p50 = median(&a.op_wall_ms);
        out.layer("trace.unexplained_share", a.unexplained_share(), "ratio");
        out.layer(
            "trace.overhead",
            ratio(replay_p50, untraced_p50_ms) - 1.0,
            "ratio",
        );
        out.note(format!(
            "trace: {} operations replayed, replay p50 {replay_p50:.4} ms against untraced p50 {untraced_p50_ms:.4} ms, \
             lowest explained share {:.4}, spans in {}",
            self.ops,
            a.min_explained(),
            dump.display()
        ));
    }
}
