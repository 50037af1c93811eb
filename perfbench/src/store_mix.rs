//! `store_mix`: the profile store and the matcher alone, with no
//! simulator in the timed loop, on a store larger than its block cache.
//!
//! Set-up writes `BASE_PROFILES` variants of the suite's profiles (each
//! suite profile with a renamed job id and a slightly scaled map size
//! selectivity) into a durable, unsharded store with the background
//! flusher on, flushes, and reopens it, so reads go through segments and
//! the block cache. The timed loop is one closed-loop client sending 90%
//! `match_profile` calls with precomputed one-task probes of the suite
//! jobs and 10% `put_profile` calls that add new variants.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use cfstore::StoreOptions;
use datagen::{input_for, SizeClass};
use mrsim::{ClusterSpec, JobConfig};
use profiler::{collect_full_profile, collect_sample_profile, JobProfile, SampleSize};
use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
use rand::prelude::*;
use staticanalysis::StaticFeatures;

use crate::layers::{Replay, ServiceStats};
use crate::pipeline::same_profile;
use crate::stats::{dir_bytes, min_samples, peak_rss_mb, ratio, summarize, summarize_at};
use crate::{repeat_setup, Args, Out, Work};

/// Profiles written in set-up: about 9 MB on disk, more than the 8 MiB
/// block cache, so the emptiness scan cannot be served from the cache.
const BASE_PROFILES: usize = 4000;
/// The background flusher's WAL threshold.
const FLUSH_WAL_BYTES: u64 = 1 << 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Operations per block; each block has exactly one put at a seeded place.
const BLOCK: usize = 10;
/// Timed operations replayed in the traced run.
const REPLAY_OPS: usize = 200;
/// The tail percentile of operation latency.
const TAIL_PCT: f64 = 95.0;

fn options() -> StoreOptions {
    StoreOptions {
        background_flush_wal_bytes: Some(FLUSH_WAL_BYTES),
        ..StoreOptions::default()
    }
}

/// Variant `i` of the suite profiles, built as `perf_report` builds its
/// stores.
fn variant(bases: &[(StaticFeatures, JobProfile)], i: usize) -> (&StaticFeatures, JobProfile) {
    let (statics, profile) = &bases[i % bases.len()];
    let mut p = profile.clone();
    p.job_id = format!("{}#{}", p.job_id, i);
    p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
    (statics, p)
}

enum Op {
    Match {
        query: usize,
        ms: f64,
        winner: Result<Option<(String, Option<String>)>, String>,
    },
    Put {
        variant: usize,
        ms: f64,
        result: Result<(), String>,
    },
}

fn winners(r: &pstorm::MatchResult) -> (String, Option<String>) {
    (
        r.map.source_job.clone(),
        r.reduce.as_ref().map(|s| s.source_job.clone()),
    )
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &to.join(e.file_name()))?;
        } else {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

pub fn run(args: &Args, work: &Work) -> Result<Out, String> {
    let mut out = Out::default();
    let cluster = ClusterSpec::ec2_c1_medium_16();
    let mut rng = StdRng::seed_from_u64(args.seed);

    // Inputs: one full profile per suite job, and a one-task probe of
    // each as the match queries.
    let mut bases = Vec::new();
    let mut queries = Vec::new();
    for spec in mrjobs::jobs::standard_suite() {
        let ds = input_for(&spec.name, SizeClass::Small);
        let submitted = JobConfig::submitted(&spec);
        let (profile, _) = collect_full_profile(&spec, &ds, &cluster, &submitted, 5)
            .map_err(|e| format!("profile {}: {e}", spec.job_id()))?;
        let sample = collect_sample_profile(
            &spec,
            &ds,
            &cluster,
            &submitted,
            SampleSize::OneTask,
            rng.gen(),
        )
        .map_err(|e| format!("probe {}: {e}", spec.job_id()))?;
        let statics = StaticFeatures::extract(&spec);
        queries.push(SubmittedJob {
            spec: spec.clone(),
            statics: statics.clone(),
            sample: sample.profile,
            input_bytes: ds.logical_bytes,
        });
        bases.push((statics, profile));
    }

    let ((dir, store), setup_s) = repeat_setup(SETUPS, |i| {
        let dir = work.dir(&format!("store-{i}"));
        {
            let (store, _) = ProfileStore::reopen_with_opts(&dir, options())
                .map_err(|e| format!("open: {e}"))?;
            for v in 0..BASE_PROFILES {
                let (statics, p) = variant(&bases, v);
                store
                    .put_profile(statics, &p)
                    .map_err(|e| format!("set-up put: {e}"))?;
            }
            store.flush().map_err(|e| format!("set-up flush: {e}"))?;
        }
        let (store, _) =
            ProfileStore::reopen_with_opts(&dir, options()).map_err(|e| format!("reopen: {e}"))?;
        Ok((dir, store))
    })?;
    let replay_dir = work.dir("replay");
    if args.trace {
        copy_dir(&dir, &replay_dir).map_err(|e| format!("copy store: {e}"))?;
    }

    let matcher = MatcherConfig::default();
    let mut ops: Vec<Op> = Vec::new();
    let mut next_variant = BASE_PROFILES;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || ops.len() < min_samples(TAIL_PCT) {
        let put_at = rng.gen_range(0..BLOCK);
        for j in 0..BLOCK {
            if j == put_at {
                let (statics, p) = variant(&bases, next_variant);
                let t0 = Instant::now();
                let result = store.put_profile(statics, &p);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                ops.push(Op::Put {
                    variant: next_variant,
                    ms,
                    result: result.map_err(|e| e.to_string()),
                });
                next_variant += 1;
            } else {
                let query = rng.gen_range(0..queries.len());
                let t0 = Instant::now();
                let result = match_profile(&store, &queries[query], &matcher);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                ops.push(Op::Match {
                    query,
                    ms,
                    winner: result
                        .map(|v| v.ok().as_ref().map(winners))
                        .map_err(|e| e.to_string()),
                });
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    out.attempted = ops.len() as u64;

    // Checks: no errors, and every match winner decodes.
    let mut match_ms = Vec::new();
    let mut put_ms = Vec::new();
    let mut matched = 0usize;
    let mut seen_queries = HashSet::new();
    let mut repeated_queries = 0usize;
    let mut winner_ids = HashSet::new();
    for op in &ops {
        match op {
            Op::Match { query, ms, winner } => {
                match_ms.push(*ms);
                if !seen_queries.insert(*query) {
                    repeated_queries += 1;
                }
                match winner {
                    Ok(Some((map, reduce))) => {
                        matched += 1;
                        winner_ids.insert(map.clone());
                        winner_ids.extend(reduce.clone());
                    }
                    Ok(None) => {}
                    Err(e) => out.fail(format!("match_profile: {e}")),
                }
            }
            Op::Put { ms, result, .. } => {
                put_ms.push(*ms);
                if let Err(e) = result {
                    out.fail(format!("put_profile: {e}"));
                }
            }
        }
    }
    for id in &winner_ids {
        match store.get_profile(id) {
            Ok(Some(_)) => {}
            Ok(None) => out.fail(format!("match winner {id} has no stored profile")),
            Err(e) => out.fail(format!("match winner {id} does not decode: {e}")),
        }
    }
    store.flush().map_err(|e| format!("flush: {e}"))?;
    let disk = dir_bytes(&dir);
    drop(store);

    let all_ms: Vec<f64> = ops
        .iter()
        .map(|op| match op {
            Op::Match { ms, .. } | Op::Put { ms, .. } => *ms,
        })
        .collect();
    let untraced = summarize_at(&all_ms, TAIL_PCT);
    if args.trace {
        let mut replay = Replay::new();
        let (mut rstore, _) = ProfileStore::reopen_with_opts(&replay_dir, options())
            .map_err(|e| format!("open replay store: {e}"))?;
        rstore.set_obs(replay.reg.clone());
        let wal0 = rstore.inner().wal_bytes_written();
        for (i, op) in ops.iter().take(REPLAY_OPS).enumerate() {
            out.attempted += 1;
            match op {
                Op::Match { query, winner, .. } => {
                    let got = replay.t.op(i, "match", |t| {
                        t.call("pstorm.store.columnar_index", || rstore.columnar_index())
                            .map_err(|e| e.to_string())?;
                        t.call("pstorm.match", || {
                            match_profile(&rstore, &queries[*query], &matcher)
                        })
                        .map(|v| v.ok().as_ref().map(winners))
                        .map_err(|e| e.to_string())
                    });
                    if got.as_ref().ok() != winner.as_ref().ok() {
                        out.fail(format!("replayed match {i} differs: {got:?} vs {winner:?}"));
                    }
                    let w = got.ok().flatten().map(|(m, _)| m);
                    if let Err(e) = replay.after_op(i, &rstore, None, w.as_deref()) {
                        out.fail(e);
                    }
                }
                Op::Put { variant: v, .. } => {
                    let (statics, p) = variant(&bases, *v);
                    let r = replay.t.op(i, "put", |t| {
                        t.call("pstorm.store.put_profile", || {
                            rstore.put_profile(statics, &p)
                        })
                    });
                    if let Err(e) = r {
                        out.fail(format!("replayed put {i}: {e}"));
                    }
                    if let Err(e) = replay.after_op(i, &rstore, None, None) {
                        out.fail(e);
                    }
                }
            }
        }
        replay.wal_bytes = rstore.inner().wal_bytes_written() - wal0;
        let dump = work
            .root
            .with_file_name(format!("spans-store_mix-{}.jsonl", args.seed));
        replay.finish(&mut out, untraced.p50, ServiceStats::default(), &dump);
    }

    // Every acknowledged profile must survive a reopen bit for bit.
    let (store, _) = ProfileStore::reopen_with_opts(&dir, options())
        .map_err(|e| format!("reopen for read-back: {e}"))?;
    for v in 0..next_variant {
        let (_, expected) = variant(&bases, v);
        match store.get_profile(&expected.job_id) {
            Ok(Some(p)) if same_profile(&p, &expected) => {}
            Ok(Some(_)) => out.fail(format!("{}: profile read back differs", expected.job_id)),
            Ok(None) => out.fail(format!("{}: profile missing after reopen", expected.job_id)),
            Err(e) => out.fail(format!("{}: read-back failed: {e}", expected.job_id)),
        }
    }
    drop(store);

    let profiles = next_variant;
    let failed = out.failures.len() as f64;
    out.note(format!(
        "store_mix: {} operations, write share {:.4}, {} of {} match calls repeat an earlier query",
        ops.len(),
        ratio(put_ms.len() as f64, ops.len() as f64),
        repeated_queries,
        match_ms.len()
    ));
    out.note(format!(
        "store: {BASE_PROFILES} profiles after set-up ({} after the run), {disk} bytes on disk against an \
         8 MiB block cache; background flusher at {FLUSH_WAL_BYTES} WAL bytes",
        profiles
    ));
    let us = |v: &[f64]| -> Vec<f64> { v.iter().map(|ms| ms * 1e3).collect() };
    out.note_latency(
        "match_profile (match_p50_us / match_tail_us)",
        "us",
        &summarize(&us(&match_ms)),
    );
    out.note_latency(
        "put_profile (put_p50_us / put_tail_us)",
        "us",
        &summarize(&us(&put_ms)),
    );
    out.note(format!(
        "failed_frac {:.4}, matched_frac {:.4}",
        ratio(failed, ops.len() as f64),
        ratio(matched as f64, match_ms.len() as f64)
    ));
    out.common_e2e(
        &setup_s,
        &all_ms,
        TAIL_PCT,
        loop_s,
        ratio(matched as f64, match_ms.len() as f64),
        rss,
        disk as f64 / profiles as f64,
    );
    Ok(out)
}
