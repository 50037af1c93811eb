//! `PStorM::submit`, replayed through the public layer functions it
//! calls, in the same order and with the same seeds, so that each layer
//! call can be timed from outside the program.
//!
//! The replay follows the daemon's two main branches: a match (CBO, then
//! the tuned production run) and no match (a profiled production run
//! whose profile is stored). Its degradation ladder is not replayed: a
//! submission that degrades makes the replay return an error, which the
//! fidelity check reports as a failure. Because the replay must take the
//! same branch as the submission it mirrors, with a bit-equal production
//! runtime, any drift between this file and the daemon shows up as a
//! failed check rather than as wrong per-layer numbers.

use mrjobs::{Dataset, JobSpec};
use mrsim::{analyze, simulate_with_dataflow, ClusterSpec, JobConfig};
use optimizer::{optimize_traced, CboOptions};
use profiler::{
    collect_full_profile, collect_sample_profile, profile_from_run, JobProfile, SampleSize,
};
use pstorm::daemon::{DegradationPolicy, SubmissionOutcome, SubmissionReport};
use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
use staticanalysis::StaticFeatures;

use crate::trace::Tracer;

/// Seed offsets the daemon applies to the tuned run and to the
/// profiling run.
const TUNED_RUN_SEED: u64 = 0x47;
const PROFILE_RUN_SEED: u64 = 0x48;

/// The seed of retry `i`, derived as the daemon derives it.
fn retry_seed(base: u64, i: u32) -> u64 {
    base.wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tuned,
    Profiled,
    Degraded,
}

/// The part of a submission's result the output checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub kind: Kind,
    pub map_source: Option<String>,
    pub reduce_source: Option<String>,
    /// `to_bits` of the production run's virtual runtime.
    pub runtime_bits: u64,
}

impl Outcome {
    pub fn of(report: &SubmissionReport) -> Outcome {
        let (kind, map_source, reduce_source) = match &report.outcome {
            SubmissionOutcome::Tuned { matched, .. } => (
                Kind::Tuned,
                Some(matched.map.source_job.clone()),
                matched.reduce.as_ref().map(|r| r.source_job.clone()),
            ),
            SubmissionOutcome::ProfiledAndStored { .. } => (Kind::Profiled, None, None),
            SubmissionOutcome::Degraded { .. } => (Kind::Degraded, None, None),
        };
        Outcome {
            kind,
            map_source,
            reduce_source,
            runtime_bits: report.run.runtime_ms.to_bits(),
        }
    }
}

/// One replayed submission.
pub struct Replayed {
    pub outcome: Outcome,
    /// Failed task attempts of the production run.
    pub failed_attempts: u32,
    /// Virtual runtime under the submitted configuration divided by the
    /// tuned production runtime (tuned submissions only).
    pub speedup: Option<f64>,
}

/// The daemon settings and store one replay runs against.
pub struct Pipeline<'a> {
    pub store: &'a ProfileStore,
    pub cluster: &'a ClusterSpec,
    pub matcher: MatcherConfig,
    pub cbo: CboOptions,
    pub policy: DegradationPolicy,
    /// The registry the CBO records into, as the daemon's does.
    pub reg: &'a obs::Registry,
}

impl Pipeline<'_> {
    /// Replay one submission as operation `op` of `t`.
    pub fn replay(
        &self,
        t: &mut Tracer,
        op: usize,
        spec: &JobSpec,
        ds: &Dataset,
        seed: u64,
    ) -> Result<Replayed, String> {
        // `collect_sample_profile` runs `analyze` on the same inputs as
        // the production run, but cannot be split from outside. An
        // identical `analyze` call made just before the operation, outside
        // its wall time, gives the length of the probe's analyze child.
        t.set_op(op);
        let twin = t.call("mrsim.analyze.twin", || analyze(spec, ds, self.cluster));
        let twin_id = t.spans.len() - 1;
        twin.map_err(|e| format!("analyze: {e}"))?;
        let (outcome, failed_attempts, flow) =
            t.op(op, "submit", |t| self.run(t, spec, ds, seed))?;
        let probes: Vec<usize> = t
            .spans_of(op)
            .filter(|s| s.name == "profiler.collect_sample_profile")
            .map(|s| s.id)
            .collect();
        for p in probes {
            t.estimate_child(p, twin_id, "mrsim.analyze");
        }

        let speedup = match outcome.kind {
            Kind::Tuned => simulate_with_dataflow(
                spec,
                &flow,
                &ds.name,
                self.cluster,
                &JobConfig::submitted(spec),
                seed ^ TUNED_RUN_SEED,
            )
            .ok()
            .map(|r| r.runtime_ms / f64::from_bits(outcome.runtime_bits)),
            _ => None,
        };
        Ok(Replayed {
            outcome,
            failed_attempts,
            speedup,
        })
    }

    fn run(
        &self,
        t: &mut Tracer,
        spec: &JobSpec,
        ds: &Dataset,
        seed: u64,
    ) -> Result<(Outcome, u32, mrsim::Dataflow), String> {
        let submitted = JobConfig::submitted(spec);
        let mut sample = None;
        for i in 0..=self.policy.sample_retries {
            let probe = t.call("profiler.collect_sample_profile", || {
                collect_sample_profile(
                    spec,
                    ds,
                    self.cluster,
                    &submitted,
                    SampleSize::OneTask,
                    retry_seed(seed, i),
                )
            });
            match probe {
                Ok(s) => {
                    sample = Some(s);
                    break;
                }
                Err(e) if e.is_fault() => {}
                Err(e) => return Err(format!("probe failed: {e}")),
            }
        }
        let sample =
            sample.ok_or("the probe kept faulting; the degraded branch is not replayed")?;
        let statics = t.call("staticanalysis.extract", || StaticFeatures::extract(spec));
        let q = SubmittedJob {
            spec: spec.clone(),
            statics,
            sample: sample.profile,
            input_bytes: ds.logical_bytes,
        };
        // `match_profile` starts by fetching the columnar index; fetching
        // it first makes a rebuild after a write visible as its own span
        // without adding work (the matcher's own fetch is then a hit).
        t.call("pstorm.store.columnar_index", || {
            self.store.columnar_index()
        })
        .map_err(|e| format!("columnar index: {e}"))?;
        let verdict = t
            .call("pstorm.match", || {
                match_profile(self.store, &q, &self.matcher)
            })
            .map_err(|e| format!("match_profile: {e}"))?;

        match verdict {
            Ok(matched) => {
                let rec = t
                    .call("optimizer.cbo", || {
                        optimize_traced(
                            spec,
                            &matched.profile,
                            ds.logical_bytes,
                            self.cluster,
                            &self.cbo,
                            self.reg,
                        )
                    })
                    .map_err(|e| format!("cbo: {e}"))?;
                let flow = t
                    .call("mrsim.analyze", || analyze(spec, ds, self.cluster))
                    .map_err(|e| format!("analyze: {e}"))?;
                let run = t
                    .call("mrsim.simulate", || {
                        simulate_with_dataflow(
                            spec,
                            &flow,
                            &ds.name,
                            self.cluster,
                            &rec.config,
                            seed ^ TUNED_RUN_SEED,
                        )
                    })
                    .map_err(|e| {
                        format!("tuned run failed ({e}); the degraded branch is not replayed")
                    })?;
                let outcome = Outcome {
                    kind: Kind::Tuned,
                    map_source: Some(matched.map.source_job.clone()),
                    reduce_source: matched.reduce.as_ref().map(|r| r.source_job.clone()),
                    runtime_bits: run.runtime_ms.to_bits(),
                };
                Ok((outcome, run.faults.failed_attempts, flow))
            }
            Err(_) => {
                for i in 0..=self.policy.run_retries {
                    let flow = t
                        .call("mrsim.analyze", || analyze(spec, ds, self.cluster))
                        .map_err(|e| format!("analyze: {e}"))?;
                    let run = t.call("mrsim.simulate", || {
                        simulate_with_dataflow(
                            spec,
                            &flow,
                            &ds.name,
                            self.cluster,
                            &submitted,
                            retry_seed(seed ^ PROFILE_RUN_SEED, i),
                        )
                    });
                    match run {
                        Ok(run) => {
                            let profile = t.call("profiler.profile_from_run", || {
                                profile_from_run(spec, &flow, &run)
                            });
                            t.call("pstorm.store.put_profile", || {
                                self.store.put_profile(&q.statics, &profile)
                            })
                            .map_err(|e| format!("put_profile: {e}"))?;
                            let outcome = Outcome {
                                kind: Kind::Profiled,
                                map_source: None,
                                reduce_source: None,
                                runtime_bits: run.runtime_ms.to_bits(),
                            };
                            return Ok((outcome, run.faults.failed_attempts, flow));
                        }
                        Err(e) if e.is_fault() => {}
                        Err(e) => return Err(format!("profiling run failed: {e}")),
                    }
                }
                Err("the profiling run kept faulting; the degraded branch is not replayed".into())
            }
        }
    }
}

/// The profile the daemon stores for a submission that found no match,
/// recomputed independently of the store (the expected value of the
/// read-back check).
pub fn expected_profile(
    spec: &JobSpec,
    ds: &Dataset,
    cluster: &ClusterSpec,
    policy: &DegradationPolicy,
    seed: u64,
) -> Result<JobProfile, String> {
    let submitted = JobConfig::submitted(spec);
    for i in 0..=policy.run_retries {
        match collect_full_profile(
            spec,
            ds,
            cluster,
            &submitted,
            retry_seed(seed ^ PROFILE_RUN_SEED, i),
        ) {
            Ok((profile, _)) => return Ok(profile),
            Err(e) if e.is_fault() => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("the profiling run kept faulting".into())
}

/// Whether two profiles are equal bit for bit: the same encoding (every
/// float compared by `to_bits`) and equal field by field.
pub fn same_profile(a: &JobProfile, b: &JobProfile) -> bool {
    pstorm::codec::encode_profile(a) == pstorm::codec::encode_profile(b) && a == b
}
