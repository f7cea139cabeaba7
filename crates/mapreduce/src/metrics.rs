//! Per-job and per-run metrics.

// The workspace's single wall-clock source now lives in `spcube-obs`
// (the flight recorder shares it); re-exported here so `spcube_mapreduce::
// Stopwatch` importers keep working.
pub use spcube_obs::Stopwatch;

/// Everything measured for one MapReduce round: exact record/byte counters
/// plus the simulated phase times derived from the cost model. These are
/// the quantities the paper reports — total running time, average map and
/// reduce time, and intermediate (map output) data size.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name.
    pub name: String,
    /// Number of map tasks (machines).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Input records across all map tasks.
    pub input_records: u64,
    /// Intermediate records after combining — what crosses the network.
    pub map_output_records: u64,
    /// Intermediate bytes after combining — the paper's "map output size".
    pub map_output_bytes: u64,
    /// Shuffle bytes received per reducer.
    pub reducer_input_bytes: Vec<u64>,
    /// Output bytes written per reducer — the load-balance measure of
    /// Section 6.2 ("reducers' output data files being of similar sizes").
    pub reducer_output_bytes: Vec<u64>,
    /// Output records across all reducers.
    pub output_records: u64,
    /// Bytes that had to be spilled to disk by overloaded reducers.
    pub spilled_bytes: u64,
    /// Failed task attempts that were re-executed (failure injection).
    pub task_retries: u64,
    /// Tasks (or completed task outputs) lost to machine failures.
    pub tasks_lost: u64,
    /// Tasks re-executed on a surviving machine after a machine loss.
    pub re_executions: u64,
    /// Speculative backup attempts launched for straggling tasks.
    pub speculative_launches: u64,
    /// Simulated seconds of discarded work: failed attempts, outputs lost
    /// with dead machines, and losing speculative twins.
    pub wasted_seconds: f64,
    /// Degraded-mode events: 1 when this round ran in a fallback mode
    /// (e.g. SP-Cube's hash-partitioned cube round after losing its
    /// sketch), 0 otherwise.
    pub fallback_events: u64,
    /// Largest single key group (in values) seen by any reducer.
    pub largest_group_values: u64,
    /// Simulated seconds of each map task.
    pub map_times: Vec<f64>,
    /// Simulated seconds of each reduce task.
    pub reduce_times: Vec<f64>,
    /// Simulated shuffle seconds (max over reducers of receive time).
    pub shuffle_seconds: f64,
    /// Simulated total for this round: overhead + max(map) + shuffle +
    /// max(reduce).
    pub simulated_seconds: f64,
    /// Host wall-clock seconds actually spent executing the round.
    pub wall_seconds: f64,
}

impl JobMetrics {
    /// Mean simulated map-task seconds.
    pub fn avg_map_time(&self) -> f64 {
        mean(&self.map_times)
    }

    /// Mean simulated reduce-task seconds.
    pub fn avg_reduce_time(&self) -> f64 {
        mean(&self.reduce_times)
    }

    /// Reducer output imbalance: max/mean of per-reducer output bytes
    /// (1.0 = perfectly balanced). Reducers with no output are included.
    pub fn reducer_imbalance(&self) -> f64 {
        let m = self.reducer_output_bytes.iter().copied().max().unwrap_or(0) as f64;
        let avg = mean(
            &self
                .reducer_output_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        );
        if avg == 0.0 {
            1.0
        } else {
            m / avg
        }
    }
}

/// Metrics of a full algorithm run (one or more MapReduce rounds).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-round metrics, in execution order.
    pub rounds: Vec<JobMetrics>,
}

impl RunMetrics {
    /// Record a finished round.
    pub fn push(&mut self, m: JobMetrics) {
        self.rounds.push(m);
    }

    /// Total simulated seconds across rounds — the paper's "running time".
    pub fn total_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.simulated_seconds).sum()
    }

    /// Total intermediate bytes across rounds — the paper's "intermediate
    /// data size" / "map output size".
    pub fn map_output_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.map_output_bytes).sum()
    }

    /// Total intermediate records across rounds.
    pub fn map_output_records(&self) -> u64 {
        self.rounds.iter().map(|r| r.map_output_records).sum()
    }

    /// Average map time of the dominant (largest map-output) round — the
    /// paper reports "the average running time of a mapper … in a single
    /// job", which for multi-round algorithms is the cube round.
    pub fn avg_map_time(&self) -> f64 {
        self.dominant().map_or(0.0, JobMetrics::avg_map_time)
    }

    /// Average reduce time of the dominant round.
    pub fn avg_reduce_time(&self) -> f64 {
        self.dominant().map_or(0.0, JobMetrics::avg_reduce_time)
    }

    /// Total spilled bytes across rounds.
    pub fn spilled_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.spilled_bytes).sum()
    }

    /// Number of rounds executed.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total failed task attempts that were retried, across rounds.
    pub fn task_retries(&self) -> u64 {
        self.rounds.iter().map(|r| r.task_retries).sum()
    }

    /// Total tasks (or task outputs) lost to machine failures.
    pub fn tasks_lost(&self) -> u64 {
        self.rounds.iter().map(|r| r.tasks_lost).sum()
    }

    /// Total tasks re-executed after machine losses.
    pub fn re_executions(&self) -> u64 {
        self.rounds.iter().map(|r| r.re_executions).sum()
    }

    /// Total speculative backup attempts launched.
    pub fn speculative_launches(&self) -> u64 {
        self.rounds.iter().map(|r| r.speculative_launches).sum()
    }

    /// Total simulated seconds of discarded (recovered-from) work.
    pub fn wasted_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.wasted_seconds).sum()
    }

    /// Total degraded-mode (fallback) events across rounds.
    pub fn fallback_events(&self) -> u64 {
        self.rounds.iter().map(|r| r.fallback_events).sum()
    }

    /// True when any round recovered from an injected fault or ran
    /// degraded — the quick "did the fault layer do anything" probe.
    pub fn saw_recovery(&self) -> bool {
        self.task_retries() > 0
            || self.tasks_lost() > 0
            || self.re_executions() > 0
            || self.speculative_launches() > 0
            || self.fallback_events() > 0
    }

    fn dominant(&self) -> Option<&JobMetrics> {
        self.rounds.iter().max_by_key(|r| r.map_output_bytes)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, out_bytes: u64, sim: f64) -> JobMetrics {
        JobMetrics {
            name: name.into(),
            map_tasks: 2,
            reduce_tasks: 2,
            input_records: 10,
            map_output_records: 20,
            map_output_bytes: out_bytes,
            reducer_input_bytes: vec![out_bytes / 2, out_bytes / 2],
            reducer_output_bytes: vec![30, 10],
            output_records: 4,
            spilled_bytes: 5,
            largest_group_values: 3,
            map_times: vec![1.0, 3.0],
            reduce_times: vec![2.0, 2.0],
            shuffle_seconds: 0.5,
            simulated_seconds: sim,
            wall_seconds: 0.01,
            ..JobMetrics::default()
        }
    }

    #[test]
    fn averages() {
        let m = sample("j", 100, 9.0);
        assert_eq!(m.avg_map_time(), 2.0);
        assert_eq!(m.avg_reduce_time(), 2.0);
        assert_eq!(m.reducer_imbalance(), 30.0 / 20.0);
    }

    #[test]
    fn run_totals_sum_rounds() {
        let mut run = RunMetrics::default();
        run.push(sample("a", 100, 5.0));
        run.push(sample("b", 300, 7.0));
        assert_eq!(run.total_seconds(), 12.0);
        assert_eq!(run.map_output_bytes(), 400);
        assert_eq!(run.spilled_bytes(), 10);
        assert_eq!(run.round_count(), 2);
        // Dominant round is "b" (300 bytes).
        assert_eq!(run.avg_map_time(), 2.0);
    }

    #[test]
    fn empty_run() {
        let run = RunMetrics::default();
        assert_eq!(run.total_seconds(), 0.0);
        assert_eq!(run.avg_map_time(), 0.0);
    }

    #[test]
    fn imbalance_of_empty_outputs_is_one() {
        let mut m = sample("j", 0, 1.0);
        m.reducer_output_bytes = vec![0, 0];
        assert_eq!(m.reducer_imbalance(), 1.0);
    }

    #[test]
    fn recovery_counters_sum_across_rounds() {
        let mut run = RunMetrics::default();
        assert!(!run.saw_recovery());
        let mut a = sample("a", 100, 5.0);
        a.task_retries = 2;
        a.tasks_lost = 1;
        a.re_executions = 1;
        a.wasted_seconds = 3.5;
        let mut b = sample("b", 300, 7.0);
        b.speculative_launches = 4;
        b.wasted_seconds = 1.5;
        b.fallback_events = 1;
        run.push(a);
        run.push(b);
        assert_eq!(run.task_retries(), 2);
        assert_eq!(run.tasks_lost(), 1);
        assert_eq!(run.re_executions(), 1);
        assert_eq!(run.speculative_launches(), 4);
        assert_eq!(run.wasted_seconds(), 5.0);
        assert_eq!(run.fallback_events(), 1);
        assert!(run.saw_recovery());
    }
}
