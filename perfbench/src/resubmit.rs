//! `resubmit`: the paper's steady state, where every job was seen before.
//!
//! Set-up submits the `SizeClass::Small` input of each of the 31 suite
//! jobs once through a durable, unsharded daemon, storing 31 profiles.
//! The timed loop, one closed-loop client, cycles through the same 31
//! pairs in a seed-shuffled order with fresh submission seeds; every
//! submission must resolve `Tuned` from its own stored profile. Nothing
//! is written, so this workload exercises the simulator and CBO on
//! repeated inputs and bypasses store writes.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use datagen::{input_for, SizeClass};
use mrjobs::{Dataset, JobSpec};
use pstorm::{PStorM, ProfileStore};
use rand::prelude::*;
use staticanalysis::StaticFeatures;

use crate::layers::{Replay, ServiceStats};
use crate::pipeline::{expected_profile, same_profile, Kind, Outcome, Pipeline};
use crate::stats::{dir_bytes, min_samples, peak_rss_mb, ratio, summarize_at};
use crate::{repeat_setup, Args, Out, Work};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed submissions replayed in the traced run: one full cycle.
const REPLAY_OPS: usize = 31;
/// The tail percentile of submission latency. With whole cycles over the
/// 31 jobs, the p85 rank falls inside one job's group of samples, not at
/// the edge between two jobs' groups (as p90's does), so it does not
/// swing with a single sample.
const TAIL_PCT: f64 = 85.0;

struct Op {
    pair: usize,
    seed: u64,
    ms: f64,
    outcome: Result<Outcome, String>,
}

pub fn run(args: &Args, work: &Work) -> Result<Out, String> {
    let mut out = Out::default();
    let pairs: Vec<(JobSpec, Dataset)> = mrjobs::jobs::standard_suite()
        .into_iter()
        .map(|spec| {
            let ds = input_for(&spec.name, SizeClass::Small);
            (spec, ds)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let setup_seeds: Vec<u64> = pairs.iter().map(|_| rng.gen()).collect();

    let mut loaded = BTreeSet::new();
    let ((dir, mut daemon), setup_s) = repeat_setup(SETUPS, |i| {
        loaded.clear();
        let dir = work.dir(&format!("store-{i}"));
        let (daemon, _) = PStorM::reopen(&dir).map_err(|e| format!("reopen: {e}"))?;
        for ((spec, ds), &seed) in pairs.iter().zip(&setup_seeds) {
            let report = daemon
                .submit(spec, ds, seed)
                .map_err(|e| format!("set-up submit {}: {e}", spec.job_id()))?;
            // Some first sightings match a similar job's profile instead
            // of storing their own; load their own profile explicitly so
            // that every job can later match itself.
            if Outcome::of(&report).kind != Kind::Profiled {
                let own = expected_profile(spec, ds, &daemon.cluster, &daemon.policy, seed)?;
                daemon
                    .load_profile(&StaticFeatures::extract(spec), &own)
                    .map_err(|e| format!("set-up load {}: {e}", spec.job_id()))?;
                loaded.insert(spec.job_id());
            }
        }
        Ok((dir, daemon))
    })?;

    // Timed loop: whole seed-shuffled cycles until the time is up.
    let mut ops: Vec<Op> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || ops.len() < min_samples(TAIL_PCT) {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(&mut rng);
        for pair in order {
            let seed: u64 = rng.gen();
            let (spec, ds) = &pairs[pair];
            let t0 = Instant::now();
            let report = daemon.submit(spec, ds, seed);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            ops.push(Op {
                pair,
                seed,
                ms,
                outcome: report.map(|r| Outcome::of(&r)).map_err(|e| e.to_string()),
            });
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let (mut tuned, mut profiled, mut degraded) = (0usize, 0usize, 0usize);
    for op in &ops {
        let id = pairs[op.pair].0.job_id();
        match &op.outcome {
            Ok(o) => {
                match o.kind {
                    Kind::Tuned => tuned += 1,
                    Kind::Profiled => profiled += 1,
                    Kind::Degraded => degraded += 1,
                }
                if o.kind != Kind::Tuned || o.map_source.as_deref() != Some(id.as_str()) {
                    out.fail(format!(
                        "{id} (seed {}): expected Tuned from itself, got {o:?}",
                        op.seed
                    ));
                }
            }
            Err(e) => out.fail(format!("{id} (seed {}): {e}", op.seed)),
        }
    }
    out.attempted = ops.len() as u64;
    daemon.store.flush().map_err(|e| format!("flush: {e}"))?;
    let disk = dir_bytes(&dir);

    let op_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let untraced = summarize_at(&op_ms, TAIL_PCT);
    if args.trace {
        let mut replay = Replay::new();
        let reg = replay.reg.clone();
        daemon.set_obs(reg.clone());
        for (spec, ds) in &pairs {
            replay.analysed_before(spec, ds);
        }
        let pipeline = Pipeline {
            store: &daemon.store,
            cluster: &daemon.cluster,
            matcher: daemon.matcher,
            cbo: daemon.cbo.clone(),
            policy: daemon.policy,
            reg: &reg,
        };
        for (i, op) in ops.iter().take(REPLAY_OPS).enumerate() {
            out.attempted += 1;
            let (spec, ds) = &pairs[op.pair];
            let replayed = match pipeline.replay(&mut replay.t, i, spec, ds, op.seed) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("replay of {} failed: {e}", spec.job_id()));
                    continue;
                }
            };
            if op.outcome.as_ref().ok() != Some(&replayed.outcome) {
                out.fail(format!(
                    "replay of {} took another branch: {:?} vs {:?}",
                    spec.job_id(),
                    replayed.outcome,
                    op.outcome
                ));
            }
            replay.failed_attempts += u64::from(replayed.failed_attempts);
            replay.speedups.extend(replayed.speedup);
            let winner = replayed.outcome.map_source.as_deref();
            if let Err(e) = replay.after_op(i, &daemon.store, Some((spec, ds)), winner) {
                out.fail(e);
            }
        }
        let dump = work
            .root
            .with_file_name(format!("spans-resubmit-{}.jsonl", args.seed));
        replay.finish(&mut out, untraced.p50, ServiceStats::default(), &dump);
    }
    drop(daemon);

    // Every acknowledged profile must survive a reopen bit for bit.
    let (store, _) =
        ProfileStore::reopen(&dir).map_err(|e| format!("reopen for read-back: {e}"))?;
    let cluster = mrsim::ClusterSpec::ec2_c1_medium_16();
    let policy = pstorm::daemon::DegradationPolicy::default();
    for ((spec, ds), &seed) in pairs.iter().zip(&setup_seeds) {
        let expected = expected_profile(spec, ds, &cluster, &policy, seed)?;
        match store.get_profile(&spec.job_id()) {
            Ok(Some(p)) if same_profile(&p, &expected) => {}
            Ok(Some(_)) => out.fail(format!("{}: profile read back differs", spec.job_id())),
            Ok(None) => out.fail(format!("{}: profile missing after reopen", spec.job_id())),
            Err(e) => out.fail(format!("{}: read-back failed: {e}", spec.job_id())),
        }
    }

    // Set-up submitted every pair once.
    let mut seen: HashSet<usize> = (0..pairs.len()).collect();
    let repeats = ops.iter().filter(|o| !seen.insert(o.pair)).count();
    let failed = out.failures.len() as f64;
    out.note(format!(
        "resubmit: {} submissions over {} (spec, dataset) pairs; repeat share {:.4}, write share {:.4}",
        ops.len(),
        pairs.len(),
        ratio(repeats as f64, ops.len() as f64),
        ratio(profiled as f64, ops.len() as f64)
    ));
    out.note(format!(
        "set-up: {} of {} first sightings matched another job and had their own profile loaded: {:?}",
        loaded.len(),
        pairs.len(),
        loaded
    ));
    out.note(format!(
        "store: {} profiles, {disk} bytes on disk against an 8 MiB block cache; flushed once after the run",
        pairs.len()
    ));
    out.note_latency(
        "submit latency (submit_p50_ms / submit_tail_ms)",
        "ms",
        &untraced,
    );
    out.note(format!(
        "failed_frac {:.4}, degraded_frac {:.4}, matched_frac {:.4}",
        ratio(failed, ops.len() as f64),
        ratio(degraded as f64, ops.len() as f64),
        ratio(tuned as f64, ops.len() as f64)
    ));
    out.common_e2e(
        &setup_s,
        &op_ms,
        TAIL_PCT,
        loop_s,
        ratio(tuned as f64, ops.len() as f64),
        rss,
        disk as f64 / pairs.len() as f64,
    );
    Ok(out)
}
