//! The discrete-event job execution engine.
//!
//! Given a job, a dataset, a cluster, and a configuration, the engine:
//! 1. measures (or reuses) the config-independent dataflow,
//! 2. checks the reduce-side memory model,
//! 3. computes per-task phase costs with per-task node-utilization noise,
//! 4. schedules task attempts onto slots in waves (maps first; reducers
//!    gated by `mapred.reduce.slowstart.completed.maps` and by shuffle
//!    completion), retrying the attempts the cluster's fault model kills,
//! 5. returns a [`JobReport`] with everything the profiler needs.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrjobs::{Dataset, JobSpec, ValueType};

use crate::cluster::{ClusterSpec, CostRates};
use crate::config::JobConfig;
use crate::dataflow::{analyze, Dataflow, ReduceFlow, SplitFlow};
use crate::error::SimError;
use crate::faults::{FaultSpec, FaultStats};
use crate::phases::{
    map_task_costs, reduce_task_costs, MapTaskCosts, MapTaskInputs, ReducePhase, ReduceTaskCosts,
    ReduceTaskInputs,
};
use crate::report::{JobReport, MapTaskReport, ReduceTaskReport};

/// Fixed job-level overhead (submission, setup, commit), in ms.
const JOB_OVERHEAD_MS: f64 = 4_000.0;

/// Salt for the fault-decision RNG stream. Fault draws come from their own
/// stream (distinct from the `seed ^ 0x5eed` noise stream) so enabling
/// fault injection never perturbs the per-task noise sequence.
const FAULT_SEED_SALT: u64 = 0x00fa_17ed;

/// In-memory inflation of deserialized container values (Java object
/// overhead); drives the OOM model for Map/List-valued intermediate data.
const CONTAINER_INFLATION: f64 = 6.0;

/// Fraction of the child heap usable for materializing a reduce group.
const HEAP_USABLE_FRACTION: f64 = 0.75;

impl CostRates {
    /// Scale IO/network components by `io_f` and CPU components by `cpu_f`
    /// — one task's observed rates on a more- or less-loaded node.
    pub fn jittered(&self, io_f: f64, cpu_f: f64) -> CostRates {
        CostRates {
            read_hdfs_ns_per_byte: self.read_hdfs_ns_per_byte * io_f,
            write_hdfs_ns_per_byte: self.write_hdfs_ns_per_byte * io_f,
            read_local_ns_per_byte: self.read_local_ns_per_byte * io_f,
            write_local_ns_per_byte: self.write_local_ns_per_byte * io_f,
            network_ns_per_byte: self.network_ns_per_byte * io_f,
            cpu_ns_per_op: self.cpu_ns_per_op * cpu_f,
            sort_ns_per_record: self.sort_ns_per_record * cpu_f,
            serde_ns_per_byte: self.serde_ns_per_byte * cpu_f,
            compress_ns_per_byte: self.compress_ns_per_byte * cpu_f,
            decompress_ns_per_byte: self.decompress_ns_per_byte * cpu_f,
        }
    }
}

/// Simulate a job execution end to end (measures dataflow first).
pub fn simulate(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<JobReport, SimError> {
    let dataflow = analyze(spec, dataset, cluster)?;
    simulate_with_dataflow(spec, &dataflow, &dataset.name, cluster, config, seed)
}

/// Simulate a job execution from a pre-measured dataflow. Reusing the
/// dataflow across configurations is how speedup experiments evaluate many
/// configurations cheaply.
pub fn simulate_with_dataflow(
    spec: &JobSpec,
    dataflow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<JobReport, SimError> {
    config.validate()?;
    check_memory(spec, dataflow, cluster, config)?;
    let faults = cluster.faults.clamped();
    let mut chaos = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
    // Deaths are placed uniformly inside a rough fault-free makespan
    // estimate, computed only once a death is drawn; a death drawn past
    // the real end simply never fires.
    let mut est = None;
    let node_death: Vec<f64> = (0..cluster.workers.max(1))
        .map(|_| {
            if chaos.gen::<f64>() < faults.node_loss_prob {
                chaos.gen::<f64>()
                    * *est.get_or_insert_with(|| estimate_makespan_ms(dataflow, cluster, config))
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let stats = FaultStats {
        nodes_lost: node_death.iter().filter(|d| d.is_finite()).count() as u32,
        ..FaultStats::default()
    };
    Scheduler {
        spec,
        dataflow,
        cluster,
        config,
        faults,
        noise: StdRng::seed_from_u64(seed ^ 0x5eed),
        chaos,
        node_death,
        stats,
    }
    .run(dataset_name)
}

/// The job scheduler: map and reduce waves on slots, bounded task retries,
/// straggler nodes, whole-node loss with re-execution of lost map output,
/// and speculative backups for the slowest map stragglers.
///
/// Per-attempt noise comes from the `seed ^ 0x5eed` stream, two draws per
/// attempt; fault decisions come from a dedicated `chaos` stream. An inert
/// [`FaultSpec`] never fires, so every task runs exactly one attempt and
/// the noise sequence is the same as with no fault model at all — which is
/// what the pinned `to_bits` regression tests assert.
struct Scheduler<'a> {
    spec: &'a JobSpec,
    dataflow: &'a Dataflow,
    cluster: &'a ClusterSpec,
    config: &'a JobConfig,
    faults: FaultSpec,
    noise: StdRng,
    chaos: StdRng,
    /// When each worker node dies; `INFINITY` for nodes that survive.
    node_death: Vec<f64>,
    stats: FaultStats,
}

/// The current winning attempt of one map task.
struct MapWin {
    report: MapTaskReport,
    node: usize,
    final_uncomp: f64,
}

/// Map-side scheduling state.
struct MapWave {
    slot_free: Vec<f64>,
    /// Queued `(task, attempt)` pairs.
    pending: VecDeque<(u32, u32)>,
    /// The winning attempts, indexed by task once the queue drains.
    winners: Vec<MapWin>,
}

impl Scheduler<'_> {
    fn run(mut self, dataset_name: &str) -> Result<JobReport, SimError> {
        let m = self.dataflow.num_map_tasks;
        let mut maps = MapWave {
            slot_free: vec![0.0; self.cluster.map_slots().max(1) as usize],
            pending: (0..m).map(|t| (t, 1)).collect(),
            winners: Vec::with_capacity(m as usize),
        };
        self.drain_maps(&mut maps)?;
        if self.faults.speculation && m > 1 {
            self.speculate(&mut maps);
        }
        if self.dataflow.reduce.is_some() && self.stats.nodes_lost > 0 {
            self.reexecute_lost_maps(&mut maps)?;
        }

        let (maps_done_ms, reducers_eligible_ms) = map_gates(
            maps.winners.iter().map(|w| w.report.end_ms).collect(),
            self.config.reduce_slowstart,
        );
        let reduce_reports = match &self.dataflow.reduce {
            Some(red) => {
                let map_out = maps.winners.iter().map(|w| {
                    let r = &w.report;
                    (r.final_out_bytes, w.final_uncomp, r.final_out_records)
                });
                let total =
                    job_reduce_inputs(red, self.dataflow, self.cluster, self.config, map_out);
                self.reduce_wave(red, &total, maps_done_ms, reducers_eligible_ms)?
            }
            None => Vec::new(),
        };
        let last_end = reduce_reports
            .iter()
            .map(|t| t.end_ms)
            .fold(maps_done_ms, f64::max);

        // An inert spec on a uniform cluster schedules nothing through the
        // fault ledger: such a run reports the all-zero ledger.
        if self.cluster.faults.is_inert() && self.cluster.is_uniform_speed() {
            self.stats = FaultStats::default();
        }
        let map_tasks = maps.winners.into_iter().map(|w| w.report).collect();
        Ok(JobReport {
            job_id: self.spec.job_id(),
            dataset: dataset_name.to_string(),
            config: self.config.clone(),
            runtime_ms: last_end + JOB_OVERHEAD_MS,
            maps_done_ms,
            map_tasks,
            reduce_tasks: reduce_reports,
            faults: self.stats,
        })
    }

    /// The slot the next attempt of `{kind}-{task}` launches on: the
    /// earliest-free slot on a live node, once the task's attempt budget
    /// has been checked.
    fn launch_slot(
        &self,
        (kind, task, attempt): (&str, usize, u32),
        max_attempts: u32,
        slot_free: &[f64],
        slots_per_node: usize,
    ) -> Result<usize, SimError> {
        let job = || self.spec.job_id();
        if attempt > max_attempts {
            return Err(SimError::TaskAttemptsExhausted {
                job: job(),
                task: format!("{kind}-{task}"),
                attempts: max_attempts,
            });
        }
        let slot = earliest_alive_slot(slot_free, &self.node_death, slots_per_node);
        slot.ok_or_else(|| SimError::ClusterLost { job: job() })
    }

    /// One attempt's observed rates: fresh noise, scaled by its node's
    /// slowdown.
    fn attempt_rates(&mut self, node: usize) -> CostRates {
        let sigma = self.cluster.heterogeneity;
        let io_f = lognormal(&mut self.noise, sigma);
        let cpu_f = lognormal(&mut self.noise, sigma);
        let slow = self.cluster.node_slowdown_factor(node);
        self.cluster.rates.jittered(io_f * slow, cpu_f * slow)
    }

    /// Settle attempt `attempt` on `node`, which would run `(start, dur_ms,
    /// end)`: it may fail partway (injected) or be killed by its node dying.
    /// Sets when its slot frees and books lost time; the caller books a
    /// completed attempt. `Err` carries the retry's attempt number: a kill
    /// does not count against the budget (as in Hadoop).
    fn settle(
        &mut self,
        slot_free: &mut f64,
        (node, attempt): (usize, u32),
        (start, dur_ms, end): (f64, f64, f64),
    ) -> Result<(), u32> {
        self.stats.scheduled_attempts += 1;
        let death = self.node_death[node];
        let (retry, died_at) = if self.chaos.gen::<f64>() < self.faults.task_failure_prob {
            let died_at = (start + dur_ms * self.chaos.gen::<f64>()).min(death);
            (attempt + 1, died_at)
        } else if death < end {
            (attempt, death)
        } else {
            *slot_free = end;
            return Ok(());
        };
        self.stats.failed_attempts += 1;
        self.stats.wasted_ms += died_at - start;
        *slot_free = died_at;
        Err(retry)
    }

    /// Launch attempt `attempt` of map `task_id` on `node` at `start`.
    fn map_attempt(
        &mut self,
        slot_free: &mut f64,
        (node, task_id, attempt): (usize, u32, u32),
        start: f64,
        speculative: bool,
    ) -> Result<MapWin, u32> {
        let rates = self.attempt_rates(node);
        let dataflow = self.dataflow;
        let flow = &dataflow.per_task[task_id as usize % dataflow.per_task.len()];
        let costs = map_costs(dataflow, flow, self.config, &rates);
        let dur_ms = costs.total_ns() / 1e6;
        let end = start + dur_ms;
        self.settle(slot_free, (node, attempt), (start, dur_ms, end))?;
        Ok(MapWin {
            report: MapTaskReport {
                task_id,
                start_ms: start,
                end_ms: end,
                phases: costs.phases,
                input_records: flow.input_records,
                input_bytes: flow.input_bytes,
                out_records: flow.out_records,
                out_bytes: flow.out_bytes,
                final_out_records: costs.final_out_records,
                final_out_bytes: costs.final_out_bytes,
                num_spills: costs.num_spills,
                observed_rates: rates,
                map_cpu_ops: flow.map_ops,
                attempt,
                speculative,
            },
            node,
            final_uncomp: costs.final_out_bytes_uncompressed,
        })
    }

    /// Run queued map attempts until the queue is empty. A completed
    /// attempt becomes its task's winner; a lost one is retried.
    fn drain_maps(&mut self, maps: &mut MapWave) -> Result<(), SimError> {
        let spn = self.cluster.map_slots_per_node.max(1) as usize;
        let max_attempts = self.config.max_map_attempts;
        while let Some((task_id, attempt)) = maps.pending.pop_front() {
            let task = ("map", task_id as usize, attempt);
            let slot = self.launch_slot(task, max_attempts, &maps.slot_free, spn)?;
            let start = maps.slot_free[slot];
            let launch = (slot / spn, task_id, attempt);
            match self.map_attempt(&mut maps.slot_free[slot], launch, start, false) {
                Ok(win) => {
                    self.stats.successful_attempts += 1;
                    maps.winners.push(win);
                }
                Err(retry) => maps.pending.push_back((task_id, retry)),
            }
        }
        // Retried and re-executed tasks finish out of task order; sorting an
        // already sorted wave is a single pass.
        maps.winners.sort_unstable_by_key(|w| w.report.task_id);
        Ok(())
    }

    /// Speculative backups for map stragglers: tasks slower than
    /// `speculation_threshold` × the median duration get a backup attempt,
    /// slowest first and at most `speculation_cap` of them; the copy that
    /// finishes first wins.
    fn speculate(&mut self, maps: &mut MapWave) {
        let spn = self.cluster.map_slots_per_node.max(1) as usize;
        let m = maps.winners.len();
        let dur = |t: usize| maps.winners[t].report.duration_ms();
        let mut durs: Vec<f64> = (0..m).map(dur).collect();
        durs.sort_by(f64::total_cmp);
        let threshold = durs[m / 2] * self.faults.speculation_threshold;
        let max_backups = ((m as f64) * self.faults.speculation_cap).ceil() as usize;
        let mut stragglers: Vec<usize> = (0..m).filter(|&t| dur(t) > threshold).collect();
        stragglers.sort_by(|&a, &b| dur(b).total_cmp(&dur(a)));
        stragglers.truncate(max_backups);
        for t in stragglers {
            let orig = &maps.winners[t].report;
            let (orig_start, orig_end, orig_attempt) = (orig.start_ms, orig.end_ms, orig.attempt);
            let Some(slot) = earliest_alive_slot(&maps.slot_free, &self.node_death, spn) else {
                break; // cluster nearly gone; no capacity to speculate
            };
            let start = maps.slot_free[slot].max(orig_start);
            if start >= orig_end {
                continue; // original finished before a backup could launch
            }
            let launch = (slot / spn, t as u32, orig_attempt + 1);
            let Ok(backup) = self.map_attempt(&mut maps.slot_free[slot], launch, start, true)
            else {
                continue; // the original result stands
            };
            self.stats.speculative_kills += 1;
            if backup.report.end_ms < orig_end {
                // Backup wins: the backup counts as the success and the
                // original attempt — already tallied as a success when the
                // wave drained — is reclassified as the speculative kill,
                // so `successful_attempts` nets out unchanged.
                self.stats.speculative_wins += 1;
                self.stats.wasted_ms += backup.report.end_ms - orig_start;
                maps.winners[t] = backup;
            } else {
                // Original wins: the completed backup is discarded.
                self.stats.wasted_ms += backup.report.end_ms - start;
            }
        }
    }

    /// Map output lives on the local disk of the node that ran the task;
    /// when that node is (or will be) lost and a reduce phase still needs
    /// the output, the task re-executes elsewhere. Iterate until every
    /// winning attempt sits on a surviving node.
    fn reexecute_lost_maps(&mut self, maps: &mut MapWave) -> Result<(), SimError> {
        loop {
            maps.winners.retain(|w| {
                let lost = self.node_death[w.node].is_finite();
                if lost {
                    self.stats.map_tasks_reexecuted += 1;
                    self.stats.wasted_ms += w.report.duration_ms();
                    maps.pending.push_back((w.report.task_id, 1));
                }
                !lost
            });
            if maps.pending.is_empty() {
                return Ok(());
            }
            self.drain_maps(maps)?;
        }
    }

    /// Schedule the reduce tasks, each taking its partition share of the
    /// job's reduce input `total`, on slots that open once the slowstart
    /// fraction of maps has finished.
    fn reduce_wave(
        &mut self,
        red: &ReduceFlow,
        total: &ReduceTaskInputs,
        maps_done_ms: f64,
        reducers_eligible_ms: f64,
    ) -> Result<Vec<ReduceTaskReport>, SimError> {
        let shares = red.partition_shares(self.config.num_reduce_tasks, self.spec.partitioner);
        let spn = self.cluster.reduce_slots_per_node.max(1) as usize;
        let max_attempts = self.config.max_reduce_attempts;
        let mut slot_free = vec![reducers_eligible_ms; self.cluster.reduce_slots().max(1) as usize];
        let mut pending: VecDeque<(usize, u32)> = (0..shares.len()).map(|t| (t, 1)).collect();
        let mut reports = Vec::with_capacity(shares.len());
        while let Some((task_id, attempt)) = pending.pop_front() {
            let task = ("reduce", task_id, attempt);
            let slot = self.launch_slot(task, max_attempts, &slot_free, spn)?;
            let node = slot / spn;
            let start = slot_free[slot];
            let rates = self.attempt_rates(node);
            let inputs = share_of(total, shares[task_id]);
            let costs = reduce_task_costs(self.config, &rates, &inputs);
            let end = reduce_end(start, shuffle_split(&costs), maps_done_ms);
            let run = (start, end - start, end);
            match self.settle(&mut slot_free[slot], (node, attempt), run) {
                Ok(()) => {
                    self.stats.successful_attempts += 1;
                    reports.push(ReduceTaskReport {
                        task_id: task_id as u32,
                        start_ms: start,
                        end_ms: end,
                        phases: costs.phases,
                        shuffle_bytes: inputs.shuffle_bytes,
                        in_records: inputs.in_records,
                        out_records: inputs.out_records,
                        out_bytes: inputs.out_bytes,
                        observed_rates: rates,
                        reduce_ops_per_record: red.ops_per_record,
                        attempt,
                    });
                }
                Err(retry) => pending.push_back((task_id, retry)),
            }
        }
        reports.sort_by_key(|t| t.task_id);
        Ok(reports)
    }
}

/// The whole job's reduce input before partitioning, given the final output
/// of every map task as `(bytes on disk, bytes uncompressed, records)`.
/// Each reduce task takes [`share_of`] it.
fn job_reduce_inputs(
    red: &ReduceFlow,
    dataflow: &Dataflow,
    cluster: &ClusterSpec,
    config: &JobConfig,
    map_out: impl Iterator<Item = (f64, f64, f64)>,
) -> ReduceTaskInputs {
    let (mut bytes_disk, mut bytes, mut records) = (0.0, 0.0, 0.0);
    for (d, b, r) in map_out {
        bytes_disk += d;
        bytes += b;
        records += r;
    }
    // Reduce input records depend on whether the combiner ran.
    let in_records = if config.use_combiner && dataflow.combine.is_some() {
        records
    } else {
        red.in_records
    };
    // Aggregating reducers cannot emit more records than they consume;
    // the output estimate (distinct-key based) and the combined-input
    // estimate are extrapolated separately, so reconcile them here.
    let (out_records, out_bytes) =
        if red.out_records < red.in_records && red.out_records > in_records {
            (in_records, red.out_bytes * (in_records / red.out_records))
        } else {
            (red.out_records, red.out_bytes)
        };
    ReduceTaskInputs {
        shuffle_bytes_disk: bytes_disk,
        shuffle_bytes: bytes,
        in_records,
        num_segments: dataflow.num_map_tasks,
        reduce_ops_per_record: red.ops_per_record,
        out_bytes,
        out_records,
        heap_bytes: cluster.heap_bytes() as f64,
        map_compressed: config.compress_map_output,
    }
}

/// One reduce task's partition `share` of the job's reduce input.
fn share_of(total: &ReduceTaskInputs, share: f64) -> ReduceTaskInputs {
    ReduceTaskInputs {
        shuffle_bytes_disk: total.shuffle_bytes_disk * share,
        shuffle_bytes: total.shuffle_bytes * share,
        in_records: total.in_records * share,
        out_bytes: total.out_bytes * share,
        out_records: total.out_records * share,
        ..*total
    }
}

/// Price one map attempt over `flow` at `rates`.
fn map_costs(
    dataflow: &Dataflow,
    flow: &SplitFlow,
    config: &JobConfig,
    rates: &CostRates,
) -> MapTaskCosts {
    let inputs = MapTaskInputs {
        input_bytes: flow.input_bytes,
        input_records: flow.input_records,
        out_records: flow.out_records,
        out_bytes: flow.out_bytes,
        map_cpu_ops: flow.map_ops,
        combine: dataflow.combine,
    };
    map_task_costs(config, rates, &inputs)
}

/// A reduce task's `(shuffle, post-shuffle)` time in ns.
fn shuffle_split(costs: &ReduceTaskCosts) -> (f64, f64) {
    let shuffle_ns: f64 = costs
        .phases
        .iter()
        .filter(|(p, _)| matches!(p, ReducePhase::Shuffle))
        .map(|(_, t)| t)
        .sum();
    (shuffle_ns, costs.total_ns() - shuffle_ns)
}

/// When a reduce task started at `start` ends: its shuffle overlaps map
/// execution but cannot complete before the last map task finished
/// producing output.
fn reduce_end(start: f64, (shuffle_ns, post_shuffle_ns): (f64, f64), maps_done_ms: f64) -> f64 {
    (start + shuffle_ns / 1e6).max(maps_done_ms) + post_shuffle_ns / 1e6
}

/// `(maps_done_ms, reducers_eligible_ms)` from the map end times: the last
/// map's end, and the end of the map that completes the
/// `mapred.reduce.slowstart.completed.maps` fraction.
fn map_gates(mut map_ends: Vec<f64>, slowstart: f64) -> (f64, f64) {
    map_ends.sort_by(f64::total_cmp);
    let Some(&maps_done_ms) = map_ends.last() else {
        return (0.0, 0.0);
    };
    let n = map_ends.len();
    let slowstart_idx = ((slowstart * n as f64).ceil() as usize).clamp(1, n);
    (maps_done_ms, map_ends[slowstart_idx - 1])
}

/// Rough fault-free makespan estimate used to place node deaths inside
/// the job's lifetime. Accuracy only shapes *where* deaths land; any
/// deterministic estimate keeps the simulation reproducible.
fn estimate_makespan_ms(dataflow: &Dataflow, cluster: &ClusterSpec, config: &JobConfig) -> f64 {
    let rates = cluster.rates.jittered(1.0, 1.0);
    let per_flow: Vec<f64> = dataflow
        .per_task
        .iter()
        .map(|flow| map_costs(dataflow, flow, config, &rates).total_ns() / 1e6)
        .collect();
    let total: f64 = (0..dataflow.num_map_tasks)
        .map(|t| per_flow[t as usize % per_flow.len()])
        .sum();
    let wave = total / f64::from(cluster.map_slots().max(1));
    wave * if dataflow.reduce.is_some() { 3.0 } else { 1.5 } + JOB_OVERHEAD_MS
}

/// The earliest-free slot whose node is still alive when the slot frees;
/// `None` when every surviving node is gone.
fn earliest_alive_slot(slot_free: &[f64], node_death: &[f64], spn: usize) -> Option<usize> {
    let slot = earliest_slot(slot_free);
    if slot_free[slot] < node_death[slot / spn] {
        return Some(slot); // the common case: no node has died by then
    }
    let mut best: Option<usize> = None;
    for (i, t) in slot_free.iter().enumerate() {
        if node_death[i / spn] <= *t {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if *t < slot_free[b] => best = Some(i),
            _ => {}
        }
    }
    best
}

/// Predict only the job runtime (ms) from a pre-measured dataflow,
/// without materializing per-task reports.
///
/// For a deterministic cluster (`heterogeneity == 0`, inert faults, uniform
/// speed) this takes a fast path that prices each *distinct* per-task flow
/// once and replays the slot schedule arithmetically; the result is
/// bit-identical to `simulate_with_dataflow(..).runtime_ms` (asserted by
/// tests) because the scheduler draws no noise at zero heterogeneity, no
/// fault fires, and the fast path shares its pricing and gating helpers
/// and mirrors its accumulation order exactly. Other clusters fall back
/// to the full simulation. This is the What-If engine's hot path: the CBO
/// prices hundreds of configurations per search, and skipping 560
/// `MapTaskReport` allocations per call is most of the win.
pub fn simulate_runtime_ms(
    spec: &JobSpec,
    dataflow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<f64, SimError> {
    if cluster.heterogeneity > 0.0 || !cluster.faults.is_inert() || !cluster.is_uniform_speed() {
        return Ok(
            simulate_with_dataflow(spec, dataflow, dataset_name, cluster, config, seed)?.runtime_ms,
        );
    }
    config.validate()?;
    check_memory(spec, dataflow, cluster, config)?;

    // ---- Map wave: one cost computation per distinct flow --------------
    let rates = cluster.rates.jittered(1.0, 1.0);
    let flow_costs: Vec<(f64, MapTaskCosts)> = dataflow
        .per_task
        .iter()
        .map(|flow| {
            let costs = map_costs(dataflow, flow, config, &rates);
            (costs.total_ns() / 1e6, costs)
        })
        .collect();
    let task_cost = |t: u32| &flow_costs[t as usize % flow_costs.len()];
    let m = dataflow.num_map_tasks;
    let mut slot_free = vec![0.0f64; cluster.map_slots().max(1) as usize];
    let mut map_ends = Vec::with_capacity(m as usize);
    for task_id in 0..m {
        let slot = earliest_slot(&slot_free);
        let end = slot_free[slot] + task_cost(task_id).0;
        slot_free[slot] = end;
        map_ends.push(end);
    }
    let (maps_done_ms, reducers_eligible_ms) = map_gates(map_ends, config.reduce_slowstart);

    // ---- Reduce wave ----------------------------------------------------
    let mut last_end = maps_done_ms;
    if let Some(red) = &dataflow.reduce {
        let map_out = (0..m).map(|t| {
            let c = &task_cost(t).1;
            let uncompressed = c.final_out_bytes_uncompressed;
            (c.final_out_bytes, uncompressed, c.final_out_records)
        });
        let total = job_reduce_inputs(red, dataflow, cluster, config, map_out);
        let shares = red.partition_shares(config.num_reduce_tasks, spec.partitioner);
        let mut rslot_free = vec![reducers_eligible_ms; cluster.reduce_slots().max(1) as usize];
        // The what-if dataflow partitions uniformly (and real hash
        // partitions repeat shares), so identical shares produce identical
        // task costs — price each distinct share once and replay.
        let mut share_costs: Vec<(u64, (f64, f64))> = Vec::with_capacity(2);
        for &share in &shares {
            let bits = share.to_bits();
            let split = match share_costs.iter().find(|(b, _)| *b == bits) {
                Some(&(_, split)) => split,
                None => {
                    let costs = reduce_task_costs(config, &rates, &share_of(&total, share));
                    let split = shuffle_split(&costs);
                    share_costs.push((bits, split));
                    split
                }
            };
            let slot = earliest_slot(&rslot_free);
            let end = reduce_end(rslot_free[slot], split, maps_done_ms);
            rslot_free[slot] = end;
            last_end = last_end.max(end);
        }
    }

    Ok(last_end + JOB_OVERHEAD_MS)
}

/// The reduce-side memory model (see DESIGN.md): jobs with container-typed
/// intermediate values must materialize merged groups; if the largest
/// scaled group inflated by Java object overhead exceeds the usable heap,
/// the task dies with an OOM — as the co-occurrence stripes job did on the
/// 35 GB dataset in the paper.
fn check_memory(
    spec: &JobSpec,
    dataflow: &Dataflow,
    cluster: &ClusterSpec,
    config: &JobConfig,
) -> Result<(), SimError> {
    let Some(red) = &dataflow.reduce else {
        return Ok(());
    };
    if !matches!(spec.map_out_val, ValueType::Map | ValueType::List) {
        return Ok(());
    }
    let combine_shrink = match (config.use_combiner, dataflow.combine) {
        (true, Some(c)) => c.size_selectivity,
        _ => 1.0,
    };
    let needed = red.max_group_bytes * combine_shrink * CONTAINER_INFLATION;
    let budget = cluster.heap_bytes() as f64 * HEAP_USABLE_FRACTION;
    if needed > budget {
        return Err(SimError::OutOfMemory {
            job: spec.job_id(),
            task: "reduce".to_string(),
            needed_bytes: needed as u64,
            heap_bytes: cluster.heap_bytes(),
        });
    }
    Ok(())
}

fn earliest_slot(slots: &[f64]) -> usize {
    let mut best = 0;
    for (i, t) in slots.iter().enumerate() {
        if *t < slots[best] {
            best = i;
        }
    }
    best
}

/// A log-normal multiplicative noise factor with median 1.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;

    fn cluster() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    #[test]
    fn word_count_runs_and_is_deterministic() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let a = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 7).unwrap();
        let b = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 7).unwrap();
        assert_eq!(a.runtime_ms, b.runtime_ms);
        assert_eq!(a.map_tasks.len(), 16);
        assert_eq!(a.reduce_tasks.len(), 1);
        assert!(a.runtime_ms > JOB_OVERHEAD_MS);
    }

    #[test]
    fn different_seeds_jitter_runtimes() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let a = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 1).unwrap();
        let b = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 2).unwrap();
        assert_ne!(a.runtime_ms, b.runtime_ms);
        // ... but not wildly: same config, same data.
        let ratio = a.runtime_ms / b.runtime_ms;
        assert!((0.5..2.0).contains(&ratio));
    }

    #[test]
    fn more_reducers_speed_up_shuffle_heavy_jobs() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);
        let one = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 3).unwrap();
        let many = JobConfig {
            num_reduce_tasks: 27,
            ..JobConfig::default()
        };
        let tuned = simulate(&spec, &ds, &cluster(), &many, 3).unwrap();
        assert!(
            tuned.runtime_ms < one.runtime_ms / 2.0,
            "27 reducers {} vs 1 reducer {}",
            tuned.runtime_ms,
            one.runtime_ms
        );
    }

    #[test]
    fn slowstart_gates_reducer_start() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let eager = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 3).unwrap();
        let lazy_cfg = JobConfig {
            reduce_slowstart: 1.0,
            ..JobConfig::default()
        };
        let lazy = simulate(&spec, &ds, &cluster(), &lazy_cfg, 3).unwrap();
        let eager_start = eager.reduce_tasks[0].start_ms;
        let lazy_start = lazy.reduce_tasks[0].start_ms;
        assert!(lazy_start >= eager_start);
        assert!((lazy_start - lazy.maps_done_ms).abs() < 1e-6);
    }

    #[test]
    fn stripes_oom_on_large_data_but_not_small() {
        let spec = jobs::word_cooccurrence_stripes(2);
        let small = corpus::random_text_1g();
        let large = corpus::wikipedia_35g();
        let cl = cluster();
        assert!(simulate(&spec, &small, &cl, &JobConfig::default(), 1).is_ok());
        let err = simulate(&spec, &large, &cl, &JobConfig::default(), 1).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn map_only_scheduling_uses_waves() {
        let ds = corpus::wikipedia_35g(); // 560 tasks over 30 slots
        let spec = jobs::word_count();
        let rep = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 5).unwrap();
        assert_eq!(rep.map_tasks.len(), 560);
        // Later tasks start strictly after time 0 (waves).
        assert!(rep.map_tasks.iter().filter(|t| t.start_ms > 0.0).count() > 500);
    }

    #[test]
    fn runtime_only_path_is_bit_identical_on_deterministic_cluster() {
        let zero_het = ClusterSpec {
            heterogeneity: 0.0,
            ..ClusterSpec::ec2_c1_medium_16()
        };
        for (ds, spec) in [
            (corpus::random_text_1g(), jobs::word_count()),
            (corpus::random_text_1g(), jobs::word_cooccurrence_pairs(2)),
            (corpus::wikipedia_35g(), jobs::word_count()),
        ] {
            let dataflow = analyze(&spec, &ds, &zero_het).unwrap();
            for config in [
                JobConfig::default(),
                JobConfig {
                    num_reduce_tasks: 27,
                    use_combiner: false,
                    compress_map_output: false,
                    reduce_slowstart: 1.0,
                    ..JobConfig::default()
                },
            ] {
                let full =
                    simulate_with_dataflow(&spec, &dataflow, &ds.name, &zero_het, &config, 11)
                        .unwrap();
                let fast = simulate_runtime_ms(&spec, &dataflow, &ds.name, &zero_het, &config, 11)
                    .unwrap();
                assert_eq!(
                    full.runtime_ms.to_bits(),
                    fast.to_bits(),
                    "fast path diverged: {} vs {}",
                    full.runtime_ms,
                    fast
                );
            }
        }
    }

    #[test]
    fn runtime_only_path_falls_back_on_heterogeneous_cluster() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = cluster();
        assert!(cl.heterogeneity > 0.0);
        let dataflow = analyze(&spec, &ds, &cl).unwrap();
        let full =
            simulate_with_dataflow(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 7)
                .unwrap();
        let fast =
            simulate_runtime_ms(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 7).unwrap();
        assert_eq!(full.runtime_ms.to_bits(), fast.to_bits());
    }

    #[test]
    fn runtime_only_path_propagates_errors() {
        let spec = jobs::word_cooccurrence_stripes(2);
        let large = corpus::wikipedia_35g();
        let zero_het = ClusterSpec {
            heterogeneity: 0.0,
            ..ClusterSpec::ec2_c1_medium_16()
        };
        let dataflow = analyze(&spec, &large, &zero_het).unwrap();
        let err = simulate_runtime_ms(
            &spec,
            &dataflow,
            &large.name,
            &zero_het,
            &JobConfig::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ds = corpus::random_text_1g();
        let bad = JobConfig {
            num_reduce_tasks: 0,
            ..JobConfig::default()
        };
        let err = simulate(&jobs::word_count(), &ds, &cluster(), &bad, 1).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    /// Pinned pre-fault-injection outputs: `FaultSpec::default()` must keep
    /// `simulate()` bit-identical to the engine before the fault layer
    /// existed. The `to_bits` values were captured from that build; the
    /// map-only, multi-wave, multi-reducer and zero-heterogeneity cases
    /// (and every `maps_done_ms`) were captured from the separate fault-free
    /// scheduler the engine had before it was folded into the fault-aware
    /// one.
    #[test]
    fn inert_faults_are_bit_identical_to_pre_fault_engine() {
        let cl = cluster();
        assert!(cl.faults.is_inert() && cl.is_uniform_speed());
        let zero_het = ClusterSpec {
            heterogeneity: 0.0,
            ..cluster()
        };
        let mut map_only = jobs::grep("ba");
        map_only.reduce_udf = None;
        map_only.reducer_class = None;
        map_only.combine_udf = None;
        map_only.combiner_class = None;
        let tuned = JobConfig {
            io_sort_mb: 200,
            io_sort_factor: 25,
            use_combiner: false,
            compress_map_output: true,
            reduce_slowstart: 0.5,
            num_reduce_tasks: 27,
            ..JobConfig::default()
        };
        let default = JobConfig::default();
        // (spec, dataset, cluster, config, seed, runtime_ms bits, maps_done_ms bits)
        let cases: [(
            mrjobs::JobSpec,
            mrjobs::Dataset,
            &ClusterSpec,
            &JobConfig,
            u64,
            u64,
            u64,
        ); 9] = [
            (
                jobs::word_count(),
                corpus::random_text_1g(),
                &cl,
                &default,
                7,
                0x40e49dc854e6c38e,
                0x40e16f3bfc369f8a,
            ),
            (
                jobs::word_count(),
                corpus::random_text_1g(),
                &cl,
                &default,
                11,
                0x40e1d78e7dbfdb23,
                0x40dd524dd0719fcf,
            ),
            (
                jobs::word_cooccurrence_pairs(2),
                corpus::wikipedia_35g(),
                &cl,
                &default,
                3,
                0x419484c1f41df7fb,
                0x414ce20424c16ad7,
            ),
            (
                jobs::sort(),
                corpus::teragen_1g(),
                &cl,
                &default,
                5,
                0x40fe239266270300,
                0x40bea01bd5fa46bc,
            ),
            (
                jobs::join(),
                corpus::tpch_1g(),
                &cl,
                &default,
                13,
                0x410793788fc667a0,
                0x40c257bf3ce7c4b7,
            ),
            // Map-only job: no reduce wave at all.
            (
                map_only,
                corpus::random_text_1g(),
                &cl,
                &default,
                17,
                0x40bd55638d188816,
                0x40ab6ac71a31102b,
            ),
            // 560 maps over 30 slots (multi-wave) with the combiner on.
            (
                jobs::word_count(),
                corpus::wikipedia_35g(),
                &cl,
                &default,
                5,
                0x412215810698ed1c,
                0x41211eb028c4ad78,
            ),
            // 27 reducers under a non-default configuration.
            (
                jobs::word_cooccurrence_pairs(2),
                corpus::random_text_1g(),
                &cl,
                &tuned,
                19,
                0x4108b89be6e3a20e,
                0x41027153c350ca09,
            ),
            // Zero heterogeneity: the noise stream is never drawn.
            (
                jobs::inverted_index(),
                corpus::random_docs_1g(),
                &zero_het,
                &tuned,
                23,
                0x40e21abb892d39c2,
                0x40da7201d30dc47b,
            ),
        ];
        for (spec, ds, cl, config, seed, runtime_bits, maps_done_bits) in &cases {
            let rep = simulate(spec, ds, cl, config, *seed).unwrap();
            assert_eq!(
                (rep.runtime_ms.to_bits(), rep.maps_done_ms.to_bits()),
                (*runtime_bits, *maps_done_bits),
                "{} on {} seed {seed}: runtime {} maps done {} != pinned",
                spec.job_id(),
                ds.name,
                rep.runtime_ms,
                rep.maps_done_ms
            );
            assert_eq!(rep.faults, crate::faults::FaultStats::default());
        }
    }

    /// An inert spec on a cluster with a straggler node still books every
    /// attempt in the fault ledger: one scheduled, successful attempt per
    /// task and nothing else.
    #[test]
    fn straggler_only_run_books_one_attempt_per_task() {
        let mut slow = vec![1.0; 15];
        slow[3] = 2.5;
        let cl = ClusterSpec {
            node_slowdown: slow,
            ..cluster()
        };
        assert!(cl.faults.is_inert() && !cl.is_uniform_speed());
        let config = JobConfig {
            num_reduce_tasks: 4,
            ..JobConfig::default()
        };
        let rep = simulate(
            &jobs::word_count(),
            &corpus::random_text_1g(),
            &cl,
            &config,
            9,
        )
        .unwrap();
        let tasks = (rep.map_tasks.len() + rep.reduce_tasks.len()) as u32;
        assert_eq!(tasks, 16 + 4);
        assert_eq!(
            rep.faults,
            FaultStats {
                scheduled_attempts: tasks,
                successful_attempts: tasks,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn task_failures_are_retried_and_accounted() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.3,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let rep = simulate(&spec, &ds, &cl, &JobConfig::default(), 42).unwrap();
        assert!(rep.faults.failed_attempts > 0, "{:?}", rep.faults);
        assert!(rep.faults.wasted_ms > 0.0);
        assert!(rep.faults.is_conserved(), "{:?}", rep.faults);
        assert!(rep.map_tasks.iter().any(|t| t.attempt > 1));
        // All 16 map tasks still produced a winning attempt.
        assert_eq!(rep.map_tasks.len(), 16);
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.999,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let err = simulate(&spec, &ds, &cl, &JobConfig::default(), 1).unwrap_err();
        assert!(
            matches!(err, SimError::TaskAttemptsExhausted { .. }),
            "{err}"
        );
        assert!(err.is_fault());
    }

    #[test]
    fn losing_every_node_loses_the_cluster() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                node_loss_prob: 1.0,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let err = simulate(&spec, &ds, &cl, &JobConfig::default(), 2).unwrap_err();
        assert!(matches!(err, SimError::ClusterLost { .. }), "{err}");
        assert!(err.is_fault());
    }

    #[test]
    fn occasional_node_loss_reexecutes_lost_map_output() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        // Scan seeds for a run where a node dies *after* completing map
        // work, forcing re-execution of its lost output; a node that dies
        // before finishing any map triggers nothing (legitimately).
        let mut saw_reexecution = false;
        for seed in 0..64 {
            let cl = ClusterSpec {
                faults: crate::faults::FaultSpec {
                    node_loss_prob: 0.08,
                    ..crate::faults::FaultSpec::default()
                },
                ..cluster()
            };
            if let Ok(rep) = simulate(&spec, &ds, &cl, &JobConfig::default(), seed) {
                assert!(rep.faults.is_conserved(), "seed {seed}: {:?}", rep.faults);
                if rep.faults.map_tasks_reexecuted > 0 {
                    assert!(rep.faults.nodes_lost > 0, "{:?}", rep.faults);
                    assert!(rep.faults.wasted_ms > 0.0);
                    saw_reexecution = true;
                }
            }
        }
        assert!(
            saw_reexecution,
            "no seed in 0..64 re-executed lost map output"
        );
    }

    #[test]
    fn speculation_rescues_straggler_nodes() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let mut slow = vec![1.0; 15];
        slow[0] = 4.0; // slots 0 and 1 run 4x slower
        let base = ClusterSpec {
            node_slowdown: slow.clone(),
            heterogeneity: 0.0,
            ..cluster()
        };
        let spec_on = ClusterSpec {
            faults: crate::faults::FaultSpec {
                speculation: true,
                ..crate::faults::FaultSpec::default()
            },
            ..base.clone()
        };
        let plain = simulate(&spec, &ds, &base, &JobConfig::default(), 9).unwrap();
        let rescued = simulate(&spec, &ds, &spec_on, &JobConfig::default(), 9).unwrap();
        assert!(rescued.faults.speculative_wins > 0, "{:?}", rescued.faults);
        assert!(rescued.faults.is_conserved(), "{:?}", rescued.faults);
        assert!(
            rescued.maps_done_ms < plain.maps_done_ms,
            "speculation did not help: {} vs {}",
            rescued.maps_done_ms,
            plain.maps_done_ms
        );
        assert!(rescued.map_tasks.iter().any(|t| t.speculative));
    }

    #[test]
    fn runtime_only_path_falls_back_under_faults() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            heterogeneity: 0.0,
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.2,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let dataflow = analyze(&spec, &ds, &cl).unwrap();
        let full =
            simulate_with_dataflow(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 3)
                .unwrap();
        let fast =
            simulate_runtime_ms(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 3).unwrap();
        assert_eq!(full.runtime_ms.to_bits(), fast.to_bits());
        assert!(full.faults.scheduled_attempts > 0);
    }
}
