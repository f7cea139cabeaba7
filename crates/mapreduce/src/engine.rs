//! Job execution.
//!
//! Beyond the happy path (map → shuffle → reduce with exact byte
//! accounting), execution runs through the fault layer in `fault.rs`:
//! both phases share one fault path (stragglers, per-attempt failures with
//! retry/backoff, speculative backups), and scheduled machine losses
//! really lose the dead machine's map output — the engine re-executes the
//! map closure on a surviving machine and ships the regenerated output,
//! so exactly-once semantics under recovery are exercised for real, not
//! just charged to the cost model.
// Serving and output path: no panic source outside tests, and no hash
// order in reported output (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_types
)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use spcube_common::sync::{assert_unlocked, lock_or_recover};
use spcube_common::{Error, Result};
use spcube_obs::{names, FlightLabel, FlightName, FlightRec, ObsHandle, QueryCtx};

use crate::config::ClusterConfig;
use crate::context::{MapContext, ReduceContext};
use crate::fault::{Phase, PhaseFaults, RecoveryCounters};
use crate::job::{LargeGroupBehavior, MrJob};
use crate::metrics::{JobMetrics, Stopwatch};

/// One write-once output slot per task, claimed by worker threads.
type TaskSlots<T> = Vec<Mutex<Option<T>>>;

/// The outcome of one executed round: real reducer outputs plus metrics.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Output records, per reducer (index = reducer id).
    pub outputs: Vec<Vec<O>>,
    /// Counters and simulated times for the round.
    pub metrics: JobMetrics,
}

impl<O> JobResult<O> {
    /// Flatten all reducers' outputs into one vector (reducer order).
    pub fn into_flat_outputs(self) -> Vec<O> {
        self.outputs.into_iter().flatten().collect()
    }
}

struct MapTaskOut<K, V> {
    per_reducer: Vec<Vec<(K, V)>>,
    records_in: u64,
    records_out: u64,
    bytes_out: u64,
    work_units: u64,
}

impl<K, V> MapTaskOut<K, V> {
    /// Fault-free simulated seconds of this map task under `cost`.
    fn base_seconds(&self, cost: &crate::cost::CostModel) -> f64 {
        self.records_in as f64 * cost.map_cpu_per_record_s
            + self.work_units as f64 * cost.cpu_per_work_unit_s
            + self.records_out as f64 * cost.cpu_per_emit_s
            + self.bytes_out as f64 / cost.map_disk_bytes_per_s
    }
}

/// Execute one MapReduce round of `job` over `inputs` on the simulated
/// cluster, with `reducers` reduce tasks.
///
/// The input is split evenly across the cluster's `k` machines ("we assume
/// that the n tuples of the input are equally loaded to the machines",
/// Section 2.3). Map tasks run concurrently on host threads; all counters
/// and simulated times are independent of host scheduling.
pub fn run_job<J: MrJob>(
    cluster: &ClusterConfig,
    job: &J,
    inputs: &[J::Input],
    reducers: usize,
) -> Result<JobResult<J::Output>> {
    if reducers == 0 {
        return Err(Error::Config("job needs at least one reducer".into()));
    }
    cluster.validate()?;
    // One flight trace per round, kept here so that an error exit inside
    // `run_round` still leaves a whole trace, its open phase closed.
    let trace = RoundTrace::begin(&cluster.obs);
    let result = run_round(cluster, job, inputs, reducers, trace.as_ref());
    if let Some(trace) = trace {
        trace.keep(job.name(), reducers, &result);
    }
    result
}

/// The flight trace of one round on an obs-enabled cluster: a root
/// `engine.round` span tiled by a map and a reduce phase span, with the
/// recovery events under the phase they happened in. Every record is
/// written on the driver thread, so the trace is deterministic under the
/// mock clock.
pub(crate) struct RoundTrace<'a> {
    obs: &'a ObsHandle,
    ctx: QueryCtx,
    start_us: u64,
    /// The open phase: its name, flight span id and start.
    phase: Cell<(FlightName, u64, u64)>,
}

impl RoundTrace<'_> {
    /// Open the round and its map phase (`None` when obs is off).
    fn begin(obs: &ObsHandle) -> Option<RoundTrace<'_>> {
        let ctx = obs.flight_begin()?;
        let start_us = obs.flight_now_us();
        let map = (FlightName::MapPhase, obs.flight_span_id(), start_us);
        Some(RoundTrace {
            obs,
            ctx,
            start_us,
            phase: Cell::new(map),
        })
    }

    /// Close the open phase at `end_us`.
    fn close_phase(&self, end_us: u64) {
        let (name, id, start_us) = self.phase.get();
        let dur_us = end_us.saturating_sub(start_us);
        self.obs
            .flight_emit(FlightRec::span(&self.ctx, id, name, start_us, dur_us));
    }

    /// Close the map phase and open the reduce phase, which shuffle and
    /// sort count toward.
    fn enter_reduce(&self) {
        let now = self.obs.flight_now_us();
        self.close_phase(now);
        let id = self.obs.flight_span_id();
        self.phase.set((FlightName::ReducePhase, id, now));
    }

    /// Record `name` under the open phase, labelled with a task or
    /// machine index.
    pub(crate) fn event(&self, name: FlightName, key: FlightLabel, index: usize) {
        let parent = self.phase.get().1;
        let rec = FlightRec::event(&self.ctx, name, self.obs.flight_now_us());
        self.obs
            .flight_emit(rec.with_parent(parent).with_label(key, index as u64));
    }

    /// Close the open phase and the round, and keep the trace: the root
    /// carries the job and reducer count, and the simulated seconds or
    /// the error.
    fn keep<O>(self, job: String, reducers: usize, result: &Result<JobResult<O>>) {
        let end_us = self.obs.flight_now_us();
        self.close_phase(end_us);
        let outcome = match result {
            Ok(r) => ("sim_s", format!("{:.6}", r.metrics.simulated_seconds)),
            Err(e) => ("error", e.to_string()),
        };
        let dur_us = end_us.saturating_sub(self.start_us);
        let root = FlightRec::root(&self.ctx, FlightName::Round, self.start_us, dur_us);
        let labels = [("job", job), ("reducers", reducers.to_string())];
        self.obs.flight_keep(root, &labels, &[outcome]);
    }
}

fn run_round<J: MrJob>(
    cluster: &ClusterConfig,
    job: &J,
    inputs: &[J::Input],
    reducers: usize,
    trace: Option<&RoundTrace<'_>>,
) -> Result<JobResult<J::Output>> {
    let wall_start = Stopwatch::start();
    let name = job.name();
    let k = cluster.machines;
    let cost = &cluster.cost;
    let obs = &cluster.obs;
    let mut rec = RecoveryCounters::default();
    let faults = PhaseFaults {
        plan: &cluster.faults,
        retry: &cluster.retry,
        speculation: &cluster.speculation,
        job: &name,
        trace,
    };

    // ---- Map phase -------------------------------------------------------
    let chunk = inputs.len().div_ceil(k).max(1);
    let splits: Vec<&[J::Input]> = (0..k)
        .map(|i| {
            let lo = (i * chunk).min(inputs.len());
            let hi = ((i + 1) * chunk).min(inputs.len());
            inputs.get(lo..hi).unwrap_or(&[])
        })
        .collect();

    let map_slots: TaskSlots<MapTaskOut<J::Key, J::Value>> =
        (0..k).map(|_| Mutex::new(None)).collect();
    let next_task = AtomicUsize::new(0);
    let workers = cluster.threads.min(k).max(1);

    assert_unlocked();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let t = next_task.fetch_add(1, Ordering::Relaxed);
                let (Some(split), Some(slot)) = (splits.get(t), map_slots.get(t)) else {
                    break; // t >= k: no tasks left
                };
                let out = run_map_task(job, split, t, reducers);
                *lock_or_recover(slot) = Some(out);
            });
        }
    });

    let mut map_outs: Vec<MapTaskOut<J::Key, J::Value>> = Vec::with_capacity(k);
    for slot in map_slots {
        let out = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .ok_or_else(|| Error::Internal("map task produced no output".into()))?;
        map_outs.push(out);
    }

    // Unified fault path: stragglers, retries/backoff, speculation.
    let map_base: Vec<f64> = map_outs.iter().map(|o| o.base_seconds(cost)).collect();
    let mut map_times = faults.charge(Phase::Map, &map_base, &mut rec)?;

    // Machine loss during the map phase (Hadoop semantics): the dead
    // machine's completed map output lives on its local disk and is gone.
    // A surviving machine re-executes the task; the fresh output REPLACES
    // the lost one, so downstream state is exactly-once by construction.
    let lost_map = cluster.faults.lost_machines(&name, Phase::Map, k);
    if !lost_map.is_empty() {
        if lost_map.len() >= k {
            return Err(Error::Config(format!(
                "fault schedule kills all {k} machines during the map phase of `{name}`"
            )));
        }
        let mut busy = map_times.clone();
        for &m in &lost_map {
            // Machine ids from the fault plan are < k by construction;
            // `get` keeps a broken plan from crashing the run.
            let Some(split) = splits.get(m) else { continue };
            if let Some(t) = trace {
                t.event(FlightName::MachineLost, FlightLabel::Machine, m);
            }
            rec.tasks_lost += 1;
            rec.wasted_seconds += map_times.get(m).copied().unwrap_or(0.0);
            let host = (1..k)
                .map(|i| (m + i) % k)
                .find(|i| !lost_map.contains(i))
                .ok_or_else(|| Error::Internal("no surviving machine to re-execute on".into()))?;
            let out = run_map_task(job, split, m, reducers);
            let reexec_secs = out.base_seconds(cost);
            // The re-execution waits for the loss to be detected and for
            // the host to finish its own task, then runs at healthy speed.
            let start = (map_times.get(m).copied().unwrap_or(0.0) + cluster.faults.detection_s)
                .max(busy.get(host).copied().unwrap_or(0.0));
            let end = start + reexec_secs;
            if let Some(b) = busy.get_mut(host) {
                *b = end;
            }
            if let Some(t) = map_times.get_mut(m) {
                *t = end;
            }
            if let Some(o) = map_outs.get_mut(m) {
                *o = out;
            }
            rec.re_executions += 1;
        }
    }

    if let Some(t) = trace {
        t.enter_reduce();
    }

    // Machine loss during the reduce phase, part 1: the dead machine's map
    // output is lost mid-shuffle and must be regenerated before the
    // rescheduled consumers can proceed. Re-execute for real (the shuffle
    // below ships the regenerated output); time is charged in part 2.
    let lost_reduce = cluster.faults.lost_machines(&name, Phase::Reduce, k);
    let mut reduce_recovery = vec![0.0f64; k];
    for &m in &lost_reduce {
        let Some(split) = splits.get(m) else { continue };
        if let Some(t) = trace {
            t.event(FlightName::MachineLost, FlightLabel::Machine, m);
        }
        rec.tasks_lost += 1; // the lost map output
        let out = run_map_task(job, split, m, reducers);
        let reexec_secs = out.base_seconds(cost);
        let refetch_secs = out.bytes_out as f64 / cost.net_bytes_per_s;
        if let Some(r) = reduce_recovery.get_mut(m) {
            *r = cluster.faults.detection_s + reexec_secs + refetch_secs;
        }
        if let Some(o) = map_outs.get_mut(m) {
            *o = out;
        }
        rec.re_executions += 1;
    }

    let mut input_records = 0u64;
    let mut map_output_records = 0u64;
    let mut map_output_bytes = 0u64;
    for out in &map_outs {
        input_records += out.records_in;
        map_output_records += out.records_out;
        map_output_bytes += out.bytes_out;
    }

    // ---- Shuffle ---------------------------------------------------------
    // Receive each reducer's partitions in map-task order (deterministic).
    let mut reducer_inputs: Vec<Vec<(J::Key, J::Value)>> =
        (0..reducers).map(|_| Vec::new()).collect();
    for out in map_outs {
        for (r, part) in out.per_reducer.into_iter().enumerate() {
            if let Some(input) = reducer_inputs.get_mut(r) {
                input.extend(part);
            }
        }
    }
    let reducer_input_bytes: Vec<u64> = reducer_inputs
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .map(|(key, value)| job.key_bytes(key) + job.value_bytes(value))
                .sum()
        })
        .collect();
    let shuffle_seconds = reducer_input_bytes
        .iter()
        .map(|&b| b as f64 / cost.net_bytes_per_s)
        .fold(0.0f64, f64::max);

    // ---- Reduce phase ----------------------------------------------------
    struct ReduceTaskOut<O> {
        outputs: Vec<O>,
        out_bytes: u64,
        secs: f64,
        spilled: u64,
        largest_group: u64,
        failure: Option<Error>,
    }

    let reduce_slots: Vec<Mutex<Option<ReduceTaskOut<J::Output>>>> =
        (0..reducers).map(|_| Mutex::new(None)).collect();
    let reducer_inputs: TaskSlots<Vec<(J::Key, J::Value)>> = reducer_inputs
        .into_iter()
        .map(|v| Mutex::new(Some(v)))
        .collect();
    let next_red = AtomicUsize::new(0);
    let red_workers = cluster.threads.min(reducers).max(1);

    assert_unlocked();
    std::thread::scope(|scope| {
        for _ in 0..red_workers {
            scope.spawn(|| loop {
                let r = next_red.fetch_add(1, Ordering::Relaxed);
                let (Some(input_slot), Some(out_slot)) =
                    (reducer_inputs.get(r), reduce_slots.get(r))
                else {
                    break; // r >= reducers: no tasks left
                };
                let Some(pairs) = lock_or_recover(input_slot).take() else {
                    break; // input already claimed (can only happen on a bug)
                };
                let in_bytes = reducer_input_bytes.get(r).copied().unwrap_or(0);

                // Group values by key; BTreeMap gives the sorted key order
                // Hadoop guarantees to reducers.
                let mut groups: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
                let n_values = pairs.len() as u64;
                for (key, value) in pairs {
                    groups.entry(key).or_default().push(value);
                }

                // Memory model: whole-input overflow spills; an oversized
                // single group spills or kills the job, per the job policy.
                let mut spilled = in_bytes.saturating_sub(cluster.memory_bytes);
                let mut largest_group = 0u64;
                let mut failure = None;
                for (key, values) in &groups {
                    largest_group = largest_group.max(values.len() as u64);
                    let group_bytes: u64 =
                        values.iter().map(|v| job.value_bytes(v)).sum::<u64>() + job.key_bytes(key);
                    if group_bytes > cluster.memory_bytes {
                        match job.large_group_behavior() {
                            LargeGroupBehavior::Spill => {
                                // Aggregate through disk: write + read back.
                                spilled += 2 * group_bytes;
                            }
                            LargeGroupBehavior::Fail => {
                                failure = Some(Error::OutOfMemory {
                                    machine: r,
                                    detail: format!(
                                        "key group of {} bytes exceeds machine memory of {} bytes",
                                        group_bytes, cluster.memory_bytes
                                    ),
                                });
                                break;
                            }
                        }
                    }
                }

                let mut outputs = Vec::new();
                let mut work_units = 0u64;
                if failure.is_none() {
                    for (key, values) in groups {
                        let mut ctx = ReduceContext::new(&mut outputs, r);
                        job.reduce(&mut ctx, key, values);
                        work_units += ctx.work_units;
                    }
                }
                let out_bytes: u64 = outputs.iter().map(|o| job.output_bytes(o)).sum();
                // Fault-free base seconds; the shared fault path charges
                // stragglers/retries/speculation afterwards.
                let secs = n_values as f64
                    * (cost.sort_cpu_per_value_s + cost.reduce_cpu_per_value_s)
                    * job.reduce_cost_factor()
                    + work_units as f64 * cost.cpu_per_work_unit_s
                    + spilled as f64 / cost.spill_bytes_per_s
                    + out_bytes as f64 / cost.out_disk_bytes_per_s;
                *lock_or_recover(out_slot) = Some(ReduceTaskOut {
                    outputs,
                    out_bytes,
                    secs,
                    spilled,
                    largest_group,
                    failure,
                });
            });
        }
    });

    let mut outputs = Vec::with_capacity(reducers);
    let mut reducer_output_bytes = Vec::with_capacity(reducers);
    let mut reduce_base = Vec::with_capacity(reducers);
    let mut spilled_bytes = 0u64;
    let mut largest_group_values = 0u64;
    let mut output_records = 0u64;
    for slot in reduce_slots {
        let task = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .ok_or_else(|| Error::Internal("reduce task produced no output".into()))?;
        if let Some(err) = task.failure {
            return Err(err);
        }
        spilled_bytes += task.spilled;
        largest_group_values = largest_group_values.max(task.largest_group);
        output_records += task.outputs.len() as u64;
        reducer_output_bytes.push(task.out_bytes);
        reduce_base.push(task.secs);
        outputs.push(task.outputs);
    }

    // Same fault path as the map phase (stragglers, retries, speculation
    // apply to reduce tasks too).
    let mut reduce_times = faults.charge(Phase::Reduce, &reduce_base, &mut rec)?;

    // Machine loss during the reduce phase, part 2: the in-flight reduce
    // task dies halfway, waits for detection + map-output regeneration +
    // re-fetch (charged in part 1's `reduce_recovery`), then re-runs.
    let mut shuffle_recovery = 0.0f64;
    for &m in &lost_reduce {
        let recovery = reduce_recovery.get(m).copied().unwrap_or(0.0);
        if let Some(t) = reduce_times.get_mut(m) {
            let half_done = 0.5 * *t;
            rec.wasted_seconds += half_done;
            rec.tasks_lost += 1; // the killed reduce attempt
            rec.re_executions += 1;
            *t += half_done + recovery;
        } else {
            // No reduce task ran on the dead machine; the regeneration
            // still delays whichever reducers were fetching from it.
            shuffle_recovery = shuffle_recovery.max(recovery);
        }
    }

    let simulated_seconds = cost.round_overhead_s
        + map_times.iter().copied().fold(0.0f64, f64::max)
        + shuffle_seconds
        + shuffle_recovery
        + reduce_times.iter().copied().fold(0.0f64, f64::max);

    // Per-task simulated seconds, recorded post-phase on the driver.
    if obs.enabled() {
        for (phase, times) in [(Phase::Map, &map_times), (Phase::Reduce, &reduce_times)] {
            let labels = [("phase", phase.name().to_string())];
            if let Some(h) = obs.histogram(names::ENGINE_TASK_SECONDS, &labels) {
                times.iter().for_each(|&secs| h.record(secs));
            }
        }
    }

    Ok(JobResult {
        outputs,
        metrics: JobMetrics {
            name,
            map_tasks: k,
            reduce_tasks: reducers,
            input_records,
            map_output_records,
            map_output_bytes,
            reducer_input_bytes,
            reducer_output_bytes,
            output_records,
            spilled_bytes,
            task_retries: rec.task_retries,
            tasks_lost: rec.tasks_lost,
            re_executions: rec.re_executions,
            speculative_launches: rec.speculative_launches,
            wasted_seconds: rec.wasted_seconds,
            fallback_events: 0,
            largest_group_values,
            map_times,
            reduce_times,
            shuffle_seconds,
            simulated_seconds,
            wall_seconds: wall_start.seconds(),
        },
    })
}

fn run_map_task<J: MrJob>(
    job: &J,
    split: &[J::Input],
    task: usize,
    reducers: usize,
) -> MapTaskOut<J::Key, J::Value> {
    let mut buffer: Vec<(J::Key, J::Value)> = Vec::new();
    let mut ctx = MapContext::new(&mut buffer, task);
    job.map_split(&mut ctx, split);
    let work_units = ctx.work_units;

    // Combiner: fold each key's buffered values within this task, like
    // Hadoop's combiner running over the task's (sorted) spill output.
    let combined: Vec<(J::Key, J::Value)> = if job.has_combiner() {
        // BTreeMap: combined records leave the task in sorted key order,
        // independent of hasher state (DESIGN.md §8).
        let mut by_key: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
        for (key, value) in buffer {
            by_key.entry(key).or_default().push(value);
        }
        let mut flat = Vec::new();
        for (key, mut values) in by_key {
            job.combine(&key, &mut values);
            for value in values {
                flat.push((key.clone(), value));
            }
        }
        flat
    } else {
        buffer
    };

    let mut per_reducer: Vec<Vec<(J::Key, J::Value)>> = (0..reducers).map(|_| Vec::new()).collect();
    let mut bytes_out = 0u64;
    let records_out = combined.len() as u64;
    for (key, value) in combined {
        bytes_out += job.key_bytes(&key) + job.value_bytes(&value);
        let r = job.partition(&key, reducers);
        debug_assert!(r < reducers, "partitioner out of range");
        // An out-of-range partition is a job bug; `get_mut` keeps it from
        // crashing a release serving path (the debug_assert catches it in
        // tests).
        if let Some(bucket) = per_reducer.get_mut(r) {
            bucket.push((key, value));
        }
    }

    MapTaskOut {
        per_reducer,
        records_in: split.len() as u64,
        records_out,
        bytes_out,
        work_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LargeGroupBehavior;

    /// Word-count style job over integer inputs: key = value % buckets.
    struct ModCount {
        buckets: u64,
        combine: bool,
        fail_large: bool,
    }

    impl MrJob for ModCount {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        type Output = (u64, u64);

        fn name(&self) -> String {
            "mod-count".into()
        }

        fn map_split(&self, ctx: &mut MapContext<'_, u64, u64>, split: &[u64]) {
            for &x in split {
                ctx.emit(x % self.buckets, 1);
                ctx.charge(1);
            }
        }

        fn has_combiner(&self) -> bool {
            self.combine
        }

        fn combine(&self, _key: &u64, values: &mut Vec<u64>) {
            let total: u64 = values.iter().sum();
            values.clear();
            values.push(total);
        }

        fn reduce(&self, ctx: &mut ReduceContext<'_, (u64, u64)>, key: u64, values: Vec<u64>) {
            ctx.emit((key, values.iter().sum()));
        }

        fn key_bytes(&self, _k: &u64) -> u64 {
            8
        }

        fn value_bytes(&self, _v: &u64) -> u64 {
            8
        }

        fn output_bytes(&self, _o: &(u64, u64)) -> u64 {
            16
        }

        fn large_group_behavior(&self) -> LargeGroupBehavior {
            if self.fail_large {
                LargeGroupBehavior::Fail
            } else {
                LargeGroupBehavior::Spill
            }
        }
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(4, 1000)
    }

    #[test]
    fn counts_are_exact() {
        let inputs: Vec<u64> = (0..1000).collect();
        let job = ModCount {
            buckets: 7,
            combine: false,
            fail_large: false,
        };
        let res = run_job(&cluster(), &job, &inputs, 3).expect("run");
        let mut counts: Vec<(u64, u64)> = res.into_flat_outputs();
        counts.sort();
        let expect: Vec<(u64, u64)> = (0..7)
            .map(|b| (b, (0..1000u64).filter(|x| x % 7 == b).count() as u64))
            .collect();
        assert_eq!(counts, expect);
    }

    #[test]
    fn combiner_reduces_records_not_results() {
        let inputs: Vec<u64> = (0..1000).collect();
        let plain = ModCount {
            buckets: 7,
            combine: false,
            fail_large: false,
        };
        let comb = ModCount {
            buckets: 7,
            combine: true,
            fail_large: false,
        };
        let r1 = run_job(&cluster(), &plain, &inputs, 3).expect("run");
        let r2 = run_job(&cluster(), &comb, &inputs, 3).expect("run");
        assert_eq!(r1.metrics.map_output_records, 1000);
        // 4 map tasks × ≤7 keys each.
        assert!(r2.metrics.map_output_records <= 28);
        let mut a = r1.into_flat_outputs();
        let mut b = r2.into_flat_outputs();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn byte_accounting_matches_record_sizes() {
        let inputs: Vec<u64> = (0..100).collect();
        let job = ModCount {
            buckets: 5,
            combine: false,
            fail_large: false,
        };
        let res = run_job(&cluster(), &job, &inputs, 2).expect("run");
        assert_eq!(res.metrics.map_output_bytes, 100 * 16);
        assert_eq!(
            res.metrics.reducer_input_bytes.iter().sum::<u64>(),
            100 * 16
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let inputs: Vec<u64> = (0..5000).collect();
        let job = ModCount {
            buckets: 11,
            combine: true,
            fail_large: false,
        };
        let mut c1 = cluster();
        c1.threads = 1;
        let mut c8 = cluster();
        c8.threads = 8;
        let r1 = run_job(&c1, &job, &inputs, 5).expect("run");
        let r8 = run_job(&c8, &job, &inputs, 5).expect("run");
        assert_eq!(r1.metrics.map_output_bytes, r8.metrics.map_output_bytes);
        assert_eq!(r1.metrics.simulated_seconds, r8.metrics.simulated_seconds);
        assert_eq!(r1.into_flat_outputs(), r8.into_flat_outputs());
    }

    #[test]
    fn large_group_fail_policy_aborts() {
        // All inputs map to one key; memory is tiny.
        let inputs: Vec<u64> = vec![7; 5000];
        let job = ModCount {
            buckets: 1,
            combine: false,
            fail_large: true,
        };
        let mut c = cluster();
        c.memory_bytes = 64;
        let err = run_job(&c, &job, &inputs, 2).expect_err("must fail");
        assert!(matches!(err, Error::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn large_group_spill_policy_survives_and_charges() {
        let inputs: Vec<u64> = vec![7; 5000];
        let job = ModCount {
            buckets: 1,
            combine: false,
            fail_large: false,
        };
        let mut c = cluster();
        c.memory_bytes = 64;
        let res = run_job(&c, &job, &inputs, 2).expect("run");
        assert!(res.metrics.spilled_bytes > 0);
        assert_eq!(res.metrics.largest_group_values, 5000);
        let counts = res.into_flat_outputs();
        assert_eq!(counts, vec![(0, 5000)]);
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let job = ModCount {
            buckets: 3,
            combine: false,
            fail_large: false,
        };
        let res = run_job(&cluster(), &job, &[], 2).expect("run");
        assert_eq!(res.metrics.input_records, 0);
        assert_eq!(res.metrics.map_output_records, 0);
        assert!(res.into_flat_outputs().is_empty());
    }

    #[test]
    fn zero_reducers_rejected() {
        let job = ModCount {
            buckets: 3,
            combine: false,
            fail_large: false,
        };
        assert!(run_job(&cluster(), &job, &[1, 2], 0).is_err());
    }

    #[test]
    fn invalid_fault_config_rejected_at_run() {
        let job = ModCount {
            buckets: 3,
            combine: false,
            fail_large: false,
        };
        let bad = cluster().with_task_failures(f64::NAN);
        let err = run_job(&bad, &job, &[1, 2], 1).expect_err("must fail");
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn stragglers_scale_task_times() {
        let inputs: Vec<u64> = (0..10000).collect();
        let job = ModCount {
            buckets: 7,
            combine: false,
            fail_large: false,
        };
        let base = run_job(&cluster(), &job, &inputs, 3).expect("run");
        let slow_cluster = cluster().with_stragglers(1.0, 10.0);
        let slow = run_job(&slow_cluster, &job, &inputs, 3).expect("run");
        let base_max = base
            .metrics
            .map_times
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        let slow_max = slow
            .metrics
            .map_times
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!((slow_max / base_max - 10.0).abs() < 1e-6);
        // Reduce tasks go through the same fault path (prob 1.0 slows all).
        let base_red = base
            .metrics
            .reduce_times
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        let slow_red = slow
            .metrics
            .reduce_times
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!((slow_red / base_red - 10.0).abs() < 1e-6);
        assert_eq!(base.metrics.map_output_bytes, slow.metrics.map_output_bytes);
    }

    #[test]
    fn speculation_caps_straggler_cost_and_counts_waste() {
        let inputs: Vec<u64> = (0..10000).collect();
        let job = ModCount {
            buckets: 7,
            combine: false,
            fail_large: false,
        };
        // Mixed stragglers so the phase median stays healthy.
        let slow = cluster().with_stragglers(0.45, 10.0);
        let specd = cluster().with_stragglers(0.45, 10.0).with_speculation(1.5);
        let a = run_job(&slow, &job, &inputs, 3).expect("run");
        let b = run_job(&specd, &job, &inputs, 3).expect("run");
        assert_eq!(a.metrics.speculative_launches, 0);
        assert!(
            b.metrics.speculative_launches > 0,
            "stragglers should trigger backups"
        );
        assert!(b.metrics.wasted_seconds > 0.0);
        assert!(
            b.metrics.simulated_seconds < a.metrics.simulated_seconds,
            "backups should beat 10x stragglers: {} vs {}",
            b.metrics.simulated_seconds,
            a.metrics.simulated_seconds
        );
        // Results are identical either way.
        let (mut ra, mut rb) = (a.into_flat_outputs(), b.into_flat_outputs());
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn machine_loss_during_map_reexecutes_and_charges() {
        let inputs: Vec<u64> = (0..8000).collect();
        let job = ModCount {
            buckets: 7,
            combine: true,
            fail_large: false,
        };
        let clean = cluster();
        let lossy = cluster().with_machine_failure(Phase::Map, 1);
        let a = run_job(&clean, &job, &inputs, 3).expect("run");
        let b = run_job(&lossy, &job, &inputs, 3).expect("run");
        assert_eq!(b.metrics.tasks_lost, 1);
        assert_eq!(b.metrics.re_executions, 1);
        assert!(b.metrics.wasted_seconds > 0.0);
        assert!(b.metrics.simulated_seconds > a.metrics.simulated_seconds);
        // The regenerated map output replaces the lost one: same bytes,
        // same results.
        assert_eq!(a.metrics.map_output_bytes, b.metrics.map_output_bytes);
        let (mut ra, mut rb) = (a.into_flat_outputs(), b.into_flat_outputs());
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn machine_loss_during_reduce_reschedules_both_sides() {
        let inputs: Vec<u64> = (0..8000).collect();
        let job = ModCount {
            buckets: 7,
            combine: true,
            fail_large: false,
        };
        let clean = cluster();
        let lossy = cluster().with_machine_failure(crate::fault::Phase::Reduce, 0);
        let a = run_job(&clean, &job, &inputs, 3).expect("run");
        let b = run_job(&lossy, &job, &inputs, 3).expect("run");
        // Lost: machine 0's map output AND its in-flight reduce task.
        assert_eq!(b.metrics.tasks_lost, 2);
        assert_eq!(b.metrics.re_executions, 2);
        assert!(b.metrics.wasted_seconds > 0.0);
        assert!(b.metrics.reduce_times[0] > a.metrics.reduce_times[0]);
        let (mut ra, mut rb) = (a.into_flat_outputs(), b.into_flat_outputs());
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn machine_loss_on_non_reducer_machine_delays_shuffle_only() {
        let inputs: Vec<u64> = (0..8000).collect();
        let job = ModCount {
            buckets: 7,
            combine: true,
            fail_large: false,
        };
        // Machine 3 holds no reduce task (only 2 reducers).
        let lossy = cluster().with_machine_failure(crate::fault::Phase::Reduce, 3);
        let clean = cluster();
        let a = run_job(&clean, &job, &inputs, 2).expect("run");
        let b = run_job(&lossy, &job, &inputs, 2).expect("run");
        assert_eq!(b.metrics.tasks_lost, 1);
        assert_eq!(b.metrics.re_executions, 1);
        assert_eq!(b.metrics.reduce_times, a.metrics.reduce_times);
        assert!(b.metrics.simulated_seconds > a.metrics.simulated_seconds);
    }

    #[test]
    fn killing_every_machine_is_rejected() {
        let job = ModCount {
            buckets: 3,
            combine: false,
            fail_large: false,
        };
        let mut c = ClusterConfig::new(2, 100);
        c = c
            .with_machine_failure(Phase::Map, 0)
            .with_machine_failure(Phase::Map, 1);
        let err = run_job(&c, &job, &[1, 2, 3], 1).expect_err("must fail");
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn machine_loss_is_deterministic() {
        let inputs: Vec<u64> = (0..5000).collect();
        let job = ModCount {
            buckets: 11,
            combine: true,
            fail_large: false,
        };
        let mk = || {
            cluster()
                .with_machine_failure(Phase::Map, 2)
                .with_machine_failure(crate::fault::Phase::Reduce, 1)
                .with_stragglers(0.3, 4.0)
                .with_task_failures(0.2)
                .with_speculation(1.5)
        };
        let a = run_job(&mk(), &job, &inputs, 4).expect("run");
        let b = run_job(&mk(), &job, &inputs, 4).expect("run");
        assert_eq!(a.metrics.simulated_seconds, b.metrics.simulated_seconds);
        assert_eq!(a.metrics.wasted_seconds, b.metrics.wasted_seconds);
        assert_eq!(a.metrics.task_retries, b.metrics.task_retries);
        assert_eq!(a.into_flat_outputs(), b.into_flat_outputs());
    }

    #[test]
    fn values_arrive_in_map_task_order() {
        // Job that emits its task index; reducer sees task order.
        struct TaskOrder;
        impl MrJob for TaskOrder {
            type Input = u64;
            type Key = u8;
            type Value = usize;
            type Output = Vec<usize>;
            fn name(&self) -> String {
                "task-order".into()
            }
            fn map_split(&self, ctx: &mut MapContext<'_, u8, usize>, split: &[u64]) {
                if !split.is_empty() {
                    ctx.emit(0, ctx.task());
                }
            }
            fn reduce(&self, ctx: &mut ReduceContext<'_, Vec<usize>>, _k: u8, v: Vec<usize>) {
                ctx.emit(v);
            }
            fn key_bytes(&self, _: &u8) -> u64 {
                1
            }
            fn value_bytes(&self, _: &usize) -> u64 {
                8
            }
            fn output_bytes(&self, _: &Vec<usize>) -> u64 {
                8
            }
        }
        let inputs: Vec<u64> = (0..40).collect();
        let mut c = cluster();
        c.threads = 8;
        let res = run_job(&c, &TaskOrder, &inputs, 1).expect("run");
        let orders = res.into_flat_outputs();
        assert_eq!(orders, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn simulated_time_includes_round_overhead() {
        let job = ModCount {
            buckets: 3,
            combine: false,
            fail_large: false,
        };
        let c = cluster();
        let res = run_job(&c, &job, &[], 1).expect("run");
        assert!(res.metrics.simulated_seconds >= c.cost.round_overhead_s);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::context::{MapContext, ReduceContext};

    struct Sum;
    impl MrJob for Sum {
        type Input = u64;
        type Key = u8;
        type Value = u64;
        type Output = u64;
        fn name(&self) -> String {
            "sum".into()
        }
        fn map_split(&self, ctx: &mut MapContext<'_, u8, u64>, split: &[u64]) {
            for &x in split {
                ctx.emit((x % 3) as u8, x);
            }
        }
        fn reduce(&self, ctx: &mut ReduceContext<'_, u64>, _k: u8, values: Vec<u64>) {
            ctx.emit(values.iter().sum());
        }
        fn key_bytes(&self, _: &u8) -> u64 {
            1
        }
        fn value_bytes(&self, _: &u64) -> u64 {
            8
        }
        fn output_bytes(&self, _: &u64) -> u64 {
            8
        }
    }

    #[test]
    fn task_failures_are_retried_and_charged() {
        let inputs: Vec<u64> = (0..4000).collect();
        let clean = ClusterConfig::new(8, 1000);
        let mut flaky = ClusterConfig::new(8, 1000).with_task_failures(0.5);
        // Budget generous enough that no task plausibly exhausts it.
        flaky.retry.max_attempts = 16;
        let a = run_job(&clean, &Sum, &inputs, 3).expect("run");
        let b = run_job(&flaky, &Sum, &inputs, 3).expect("run");
        // Same results, more simulated time, retries recorded.
        assert!(
            b.metrics.task_retries > 0,
            "expected some retries at 50% failure rate"
        );
        assert!(
            b.metrics.wasted_seconds > 0.0,
            "failed attempts are wasted work"
        );
        assert!(b.metrics.simulated_seconds > a.metrics.simulated_seconds);
        let mut ra = a.into_flat_outputs();
        ra.sort();
        let mut rb = b.into_flat_outputs();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn exhausted_attempts_abort_the_job() {
        let inputs: Vec<u64> = (0..100).collect();
        let obs = ObsHandle::mock();
        let mut cluster = ClusterConfig::new(4, 100)
            .with_task_failures(0.999999)
            .with_obs(obs.clone());
        cluster.retry.max_attempts = 2;
        let err = run_job(&cluster, &Sum, &inputs, 2).expect_err("must fail");
        assert!(err.to_string().contains("failed 2 attempts"), "{err}");
        assert!(
            matches!(&err, Error::JobFailed { job, attempts: 2, .. } if job == "sum"),
            "{err}"
        );
        // The failed round still keeps a whole trace carrying the error:
        // the map phase it failed in closes the round and holds the
        // retries, and no reduce phase opened.
        let tree = spcube_obs::SpanTree::parse_jsonl(&obs.flight_jsonl()).expect("parse");
        tree.validate().expect("whole trace");
        let root = &tree.nodes[tree.roots[0]];
        assert_eq!(root.attrs, [("error".to_string(), err.to_string())]);
        let map = tree.spans_named(names::ENGINE_PHASE_MAP)[0];
        assert_eq!((map.end_us, map.events.len()), (root.end_us, 2));
        assert!(tree.spans_named(names::ENGINE_PHASE_REDUCE).is_empty());
        assert_eq!(tree.events_named(names::ENGINE_TASK_RETRY), 2);
    }

    #[test]
    fn reduce_tasks_share_the_fault_path() {
        // Scope probabilistic injection to the reduce phase by checking
        // the metrics: with failures on, reduce times grow too.
        let inputs: Vec<u64> = (0..4000).collect();
        let clean = ClusterConfig::new(4, 1000);
        let mut flaky = ClusterConfig::new(4, 1000).with_task_failures(0.5);
        flaky.retry.max_attempts = 16;
        let a = run_job(&clean, &Sum, &inputs, 16).expect("run");
        let b = run_job(&flaky, &Sum, &inputs, 16).expect("run");
        let grew = a
            .metrics
            .reduce_times
            .iter()
            .zip(&b.metrics.reduce_times)
            .any(|(x, y)| y > x);
        assert!(
            grew,
            "at 50% attempt failure some of 16 reduce tasks must retry"
        );
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let inputs: Vec<u64> = (0..4000).collect();
        let flaky = ClusterConfig::new(8, 1000).with_task_failures(0.3);
        let a = run_job(&flaky, &Sum, &inputs, 3).expect("run");
        let b = run_job(&flaky, &Sum, &inputs, 3).expect("run");
        assert_eq!(a.metrics.task_retries, b.metrics.task_retries);
        assert_eq!(a.metrics.simulated_seconds, b.metrics.simulated_seconds);
    }
}
