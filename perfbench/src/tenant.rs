//! `tenant_onboard`: the multi-tenant service path with no repeated
//! inputs.
//!
//! A `TuningService` with two workers runs over a sharded, replicated
//! store (`ProfileStore::reopen_sharded` defaults: 3 shards, 2 replicas).
//! Two closed-loop client threads each alternate between two tenants and
//! keep one submission outstanding. Every submission is `word_count`,
//! `grep`, `sort`, `inverted_index` or a PigMix query on a dataset
//! generated fresh from the seed, so no (spec, dataset) pair repeats. A
//! tenant is retired after `RETIRE_AFTER` submissions and a new namespace
//! takes its place, so first sightings (a profiled run plus a replicated
//! write) keep happening; one long-lived tenant submits on a flaky
//! cluster (`FaultSpec::flaky`). Set-up opens the store, starts the
//! service and serves one submission of each job kind for a tenant of
//! its own, so that `setup_s` times real work rather than a few
//! file-system calls.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use cfstore::ShardOptions;
use datagen::tables::{pigmix_rows, teragen};
use datagen::TextCorpusSpec;
use mrjobs::{jobs, Dataset, JobSpec};
use mrsim::{ClusterSpec, FaultSpec};
use pstorm::{
    ProfileStore, ProfileStoreError, ServiceConfig, ServiceOutcome, Ticket, TuningService,
};
use rand::prelude::*;

use crate::layers::{Replay, ServiceStats};
use crate::pipeline::{expected_profile, same_profile, Kind, Outcome, Pipeline};
use crate::stats::{dir_bytes, min_samples, peak_rss_mb, ratio, summarize_at};
use crate::{repeat_setup, Args, Out, Work};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Submissions a tenant makes before it is retired.
const RETIRE_AFTER: usize = 40;
/// Records in each generated dataset sample.
const RECORDS: usize = 2_000;
/// Logical size each generated dataset stands for.
const LOGICAL_BYTES: u64 = 1 << 30;
/// The job kinds: word count, grep, sort, inverted index, PigMix.
const KINDS: usize = 5;
const GREP_PATTERNS: [&str; 4] = ["ba", "qu", "ek", "zo"];
/// PigMix defines queries L1..L17.
const PIGMIX_QUERIES: usize = 17;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Submissions per client replayed in the traced run.
const REPLAY_PER_CLIENT: usize = 60;
/// The tail percentile of submission latency.
const TAIL_PCT: f64 = 95.0;
/// The tenant that submits on a flaky cluster and is never retired.
const FLAKY_TENANT: &str = "flaky";
/// The tenant set-up serves.
const WARMUP_TENANT: &str = "warmup";

/// One submission, reproducible from its fields alone.
#[derive(Clone)]
struct Request {
    tenant: String,
    faulty: bool,
    kind: usize,
    /// Pattern index for `grep`, query index for PigMix.
    param: usize,
    data_seed: u64,
    seed: u64,
}

impl Request {
    fn job(&self) -> (JobSpec, Dataset) {
        let name = format!("gen-{:016x}", self.data_seed);
        let text = || {
            let mut spec = TextCorpusSpec::random_text(&name, RECORDS, LOGICAL_BYTES);
            spec.seed = self.data_seed;
            spec
        };
        match self.kind {
            0 => (jobs::word_count(), text().generate()),
            1 => (jobs::grep(GREP_PATTERNS[self.param]), text().generate()),
            2 => (
                jobs::sort(),
                teragen(&name, RECORDS, self.data_seed, LOGICAL_BYTES),
            ),
            3 => (jobs::inverted_index(), text().generate_keyed_docs()),
            _ => (
                jobs::pigmix(1 + self.param),
                pigmix_rows(&name, RECORDS, self.data_seed, LOGICAL_BYTES),
            ),
        }
    }
}

/// The deterministic request stream of one client. Kinds, grep patterns
/// and PigMix queries are each drawn from seed-shuffled decks, so every
/// run submits them in the same proportions.
struct Client {
    id: usize,
    rng: StdRng,
    issued: usize,
    kinds: Deck,
    patterns: Deck,
    queries: Deck,
}

/// Draws `0..n` in a fresh random order, then reshuffles.
struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            n,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            self.left.shuffle(rng);
        }
        self.left.pop().expect("refilled above")
    }
}

impl Client {
    fn new(id: usize, seed: u64) -> Client {
        Client {
            id,
            rng: StdRng::seed_from_u64(seed ^ (id as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)),
            issued: 0,
            kinds: Deck::new(KINDS),
            patterns: Deck::new(GREP_PATTERNS.len()),
            queries: Deck::new(PIGMIX_QUERIES),
        }
    }

    fn next(&mut self) -> Request {
        let kind = self.kinds.draw(&mut self.rng);
        let param = match kind {
            1 => self.patterns.draw(&mut self.rng),
            4 => self.queries.draw(&mut self.rng),
            _ => 0,
        };
        let slot = self.issued % 2;
        let generation = (self.issued / 2) / RETIRE_AFTER;
        self.issued += 1;
        let faulty = self.id == 0 && slot == 0;
        let tenant = if faulty {
            FLAKY_TENANT.to_string()
        } else {
            format!("c{}s{slot}g{generation}", self.id)
        };
        Request {
            tenant,
            faulty,
            kind,
            param,
            data_seed: self.rng.gen(),
            seed: self.rng.gen(),
        }
    }
}

struct Op {
    req: Request,
    ms: f64,
    outcome: Result<Outcome, String>,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

fn cluster_for(faulty: bool) -> ClusterSpec {
    let mut c = ClusterSpec::ec2_c1_medium_16();
    if faulty {
        c.faults = FaultSpec::flaky();
    }
    c
}

/// Wait for a submission and keep what the checks compare.
fn resolve(ticket: Result<Ticket, ProfileStoreError>) -> Result<Outcome, String> {
    match ticket {
        Ok(ticket) => match ticket.wait() {
            ServiceOutcome::Served(report) => Ok(Outcome::of(&report)),
            ServiceOutcome::Failed { error, .. } => Err(format!("failed: {error}")),
            ServiceOutcome::Rejected { reason, .. } => Err(format!("rejected: {reason}")),
        },
        Err(e) => Err(format!("submit: {e}")),
    }
}

/// One client's closed loop: submit, prepare the next request while the
/// service works, wait, repeat until the time is up.
fn client_loop(svc: &TuningService, mut client: Client, seconds: f64, min_ops: usize) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut next = client.next();
    let mut job = next.job();
    while start.elapsed().as_secs_f64() < seconds || ops.len() < min_ops {
        let req = next;
        let (spec, ds) = job;
        let faults = req.faulty.then(FaultSpec::flaky);
        let t0 = Instant::now();
        let ticket = svc.submit_with_faults(&req.tenant, &spec, &ds, req.seed, faults);
        next = client.next();
        job = next.job();
        let outcome = resolve(ticket);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ops.push(Op { req, ms, outcome });
    }
    ops
}

/// Order-sensitive FNV-1a digest of each tenant's outcome sequence over
/// the first `n` submissions of every client.
fn digest(per_client: &[Vec<Op>], n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ops in per_client {
        for op in ops.iter().take(n) {
            let line = format!("{}|{:?}", op.req.tenant, op.outcome);
            for b in line.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

pub fn run(args: &Args, work: &Work) -> Result<Out, String> {
    let mut out = Out::default();
    let svc_reg = if args.trace {
        obs::Registry::new()
    } else {
        obs::Registry::disabled()
    };

    let mut rng = StdRng::seed_from_u64(args.seed);
    let warmup: Vec<Request> = (0..KINDS)
        .map(|kind| Request {
            tenant: WARMUP_TENANT.to_string(),
            faulty: false,
            kind,
            param: 0,
            data_seed: rng.gen(),
            seed: rng.gen(),
        })
        .collect();
    let warm_jobs: Vec<(JobSpec, Dataset)> = warmup.iter().map(Request::job).collect();

    let ((dir, svc, warm_outcomes), setup_s) = repeat_setup(SETUPS, |i| {
        let dir = work.dir(&format!("store-{i}"));
        let (store, _) =
            ProfileStore::reopen_sharded(&dir).map_err(|e| format!("open sharded: {e}"))?;
        let svc = TuningService::with_obs(
            store,
            ClusterSpec::ec2_c1_medium_16(),
            service_config(),
            svc_reg.clone(),
        );
        let outcomes: Vec<Result<Outcome, String>> = warmup
            .iter()
            .zip(&warm_jobs)
            .map(|(req, (spec, ds))| resolve(svc.submit(&req.tenant, spec, ds, req.seed)))
            .collect();
        Ok((dir, svc, outcomes))
    })?;

    let min_ops = min_samples(TAIL_PCT).div_ceil(CLIENTS);
    let start = Instant::now();
    let per_client: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = &svc;
                let client = Client::new(c, args.seed);
                s.spawn(move || client_loop(svc, client, args.seconds, min_ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    svc.quiesce();
    svc.flush().map_err(|e| format!("flush: {e}"))?;
    let disk = dir_bytes(&dir);
    let svc_snapshot = svc_reg.snapshot();
    drop(svc);

    // Checks; the stored profile of each (tenant, job) is the one its
    // last profiled submission wrote.
    let ops: Vec<&Op> = per_client.iter().flatten().collect();
    out.attempted = ops.len() as u64;
    let (mut tuned, mut profiled, mut degraded) = (0usize, 0usize, 0usize);
    let mut stored: HashMap<(String, String), &Request> = HashMap::new();
    for (req, outcome) in warmup.iter().zip(&warm_outcomes) {
        match outcome {
            Ok(o) if o.kind == Kind::Profiled => {
                stored.insert((req.tenant.clone(), req.job().0.job_id()), req);
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("set-up submission: {e}")),
        }
    }
    for op in &ops {
        match &op.outcome {
            Ok(o) => match o.kind {
                Kind::Tuned => tuned += 1,
                Kind::Profiled => {
                    profiled += 1;
                    stored.insert((op.req.tenant.clone(), op.req.job().0.job_id()), &op.req);
                }
                Kind::Degraded => degraded += 1,
            },
            Err(e) => out.fail(format!("tenant {}: {e}", op.req.tenant)),
        }
    }

    let op_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let untraced = summarize_at(&op_ms, TAIL_PCT);
    if args.trace {
        let mut replay = Replay::new();
        let reg = replay.reg.clone();
        let rdir = work.dir("replay");
        let (base, _) =
            ProfileStore::reopen_sharded_traced(&rdir, ShardOptions::default(), reg.clone())
                .map_err(|e| format!("open replay store: {e}"))?;
        let sharded = base.sharded().expect("opened sharded");
        let shards = ShardOptions::default().shards;
        let wal = || -> u64 {
            (0..shards)
                .map(|s| sharded.shard_wal_bytes_written(s))
                .sum()
        };
        let wal0 = wal();
        let mut views: HashMap<String, ProfileStore> = HashMap::new();
        let cfg = service_config();
        let clusters = [cluster_for(false), cluster_for(true)];
        let mut queue_wait_ms = Vec::new();
        let mut i = 0;
        for j in 0..REPLAY_PER_CLIENT {
            for client_ops in &per_client {
                let Some(op) = client_ops.get(j) else {
                    continue;
                };
                out.attempted += 1;
                let req = &op.req;
                if !views.contains_key(&req.tenant) {
                    let v = base
                        .tenant_view(&req.tenant)
                        .map_err(|e| format!("tenant view: {e}"))?;
                    views.insert(req.tenant.clone(), v);
                }
                let view = &views[&req.tenant];
                let pipeline = Pipeline {
                    store: view,
                    cluster: &clusters[usize::from(req.faulty)],
                    matcher: cfg.matcher,
                    cbo: cfg.cbo.clone(),
                    policy: cfg.policy,
                    reg: &reg,
                };
                let (spec, ds) = req.job();
                match pipeline.replay(&mut replay.t, i, &spec, &ds, req.seed) {
                    Ok(r) => {
                        if op.outcome.as_ref().ok() != Some(&r.outcome) {
                            out.fail(format!(
                                "tenant {} replay took another branch: {:?} vs {:?}",
                                req.tenant, r.outcome, op.outcome
                            ));
                        }
                        queue_wait_ms.push(op.ms - replay.t.op_wall_ms(i));
                        replay.failed_attempts += u64::from(r.failed_attempts);
                        replay.speedups.extend(r.speedup);
                        let winner = r.outcome.map_source.as_deref();
                        if let Err(e) = replay.after_op(i, view, Some((&spec, &ds)), winner) {
                            out.fail(e);
                        }
                    }
                    Err(e) => out.fail(format!("tenant {} replay failed: {e}", req.tenant)),
                }
                i += 1;
            }
        }
        replay.wal_bytes = wal() - wal0;
        let service = ServiceStats {
            queue_wait_ms,
            peak_depth: svc_snapshot
                .gauges
                .get("service.queue.peak_depth")
                .copied()
                .unwrap_or(0.0),
            shed: svc_snapshot
                .counters
                .get("service.admission.shed")
                .copied()
                .unwrap_or(0) as f64,
        };
        let dump = work
            .root
            .with_file_name(format!("spans-tenant_onboard-{}.jsonl", args.seed));
        replay.finish(&mut out, untraced.p50, service, &dump);
    }

    // Every acknowledged profile must survive a reopen bit for bit.
    let (base, _) =
        ProfileStore::reopen_sharded(&dir).map_err(|e| format!("reopen for read-back: {e}"))?;
    let policy = service_config().policy;
    for ((tenant, job_id), req) in &stored {
        let (spec, ds) = req.job();
        let expected = expected_profile(&spec, &ds, &cluster_for(req.faulty), &policy, req.seed)?;
        let got = base.tenant_view(tenant).and_then(|v| v.get_profile(job_id));
        match got {
            Ok(Some(p)) if same_profile(&p, &expected) => {}
            Ok(Some(_)) => out.fail(format!("{tenant}/{job_id}: profile read back differs")),
            Ok(None) => out.fail(format!("{tenant}/{job_id}: profile missing after reopen")),
            Err(e) => out.fail(format!("{tenant}/{job_id}: read-back failed: {e}")),
        }
    }
    drop(base);

    let n = ops.len() as f64;
    let tenants: HashSet<&str> = ops.iter().map(|o| o.req.tenant.as_str()).collect();
    let mut pairs = HashSet::new();
    let repeats = ops
        .iter()
        .filter(|o| !pairs.insert((o.req.kind, o.req.param, o.req.data_seed)))
        .count();
    out.note(format!(
        "tenant_onboard: {} submissions from {CLIENTS} clients over {} tenants; repeat share {:.4}, write share {:.4}",
        ops.len(),
        tenants.len(),
        ratio(repeats as f64, n),
        ratio(profiled as f64, n)
    ));
    out.note(format!(
        "store: {} profiles held, {disk} bytes on disk (3 shards, 2 replicas) against 8 MiB of block cache per shard; \
         flushed once after the run",
        stored.len()
    ));
    out.note(format!(
        "outcomes: {tuned} tuned, {profiled} profiled and stored, {degraded} degraded; per-tenant outcome digest of the \
         first {REPLAY_PER_CLIENT} submissions per client: {:016x}",
        digest(&per_client, REPLAY_PER_CLIENT)
    ));
    out.note_latency(
        "submit latency to Ticket::wait (submit_p50_ms / submit_tail_ms)",
        "ms",
        &untraced,
    );
    out.note(format!(
        "failed_frac {:.4}, degraded_frac {:.4}, matched_frac {:.4}",
        ratio(out.failures.len() as f64, n),
        ratio(degraded as f64, n),
        ratio(tuned as f64, n)
    ));
    out.common_e2e(
        &setup_s,
        &op_ms,
        TAIL_PCT,
        loop_s,
        ratio(tuned as f64, n),
        rss,
        ratio(disk as f64, stored.len() as f64),
    );
    Ok(out)
}
