//! Uniform driver over the four algorithms.

use spcube_agg::AggSpec;
use spcube_baselines::{
    hive_cube, mr_cube, naive_mr_cube, top_down_cube, HiveConfig, MrCubeConfig,
};
use spcube_common::{Error, Relation};
use spcube_core::{SpCube, SpCubeConfig};
use spcube_mapreduce::ClusterConfig;

/// The algorithms the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's contribution.
    SpCube,
    /// MRCube as shipped in Pig (the paper's "Pig" curve).
    Pig,
    /// The Hive-style grouping-sets plan (the paper's "Hive" curve).
    Hive,
    /// Algorithm 1, for the Section 3 analysis.
    Naive,
    /// The top-down multi-round algorithm of \[25\], discussed (and excluded)
    /// in the paper's Section 7.
    TopDown,
    /// SP-Cube under an injected fault schedule (machine loss, flaky
    /// tasks, stragglers with speculation) — same algorithm, chaotic
    /// cluster; used by the `balance` experiment to show recovery cost.
    SpCubeFaulted,
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::SpCube => "SP-Cube",
            Algo::Pig => "Pig",
            Algo::Hive => "Hive",
            Algo::Naive => "Naive",
            Algo::TopDown => "TopDown",
            Algo::SpCubeFaulted => "SP-Cube/ft",
        }
    }

    /// The three algorithms every figure compares.
    pub fn paper_trio() -> [Algo; 3] {
        [Algo::Pig, Algo::Hive, Algo::SpCube]
    }
}

/// A relation plus the cluster it runs on — one X-axis point.
pub struct Workload {
    /// Human-readable dataset label.
    pub label: String,
    /// X-axis value (tuples in millions, or skewness percent).
    pub x: f64,
    /// The input relation.
    pub rel: Relation,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Map-side hash entries for the Hive-style baseline.
    pub hive_entries: usize,
    /// Non-cube payload attributes per row (charged to the Hive-style
    /// baseline's grouping-set expansion; see `HiveConfig::payload_attrs`).
    pub hive_payload: usize,
}

/// One measured `(algorithm, x)` point: everything any panel of any figure
/// plots. `total_seconds = None` records a failed run ("got stuck" in the
/// paper's terms — e.g. Hive reducers out of memory for p >= 0.4).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm display name.
    pub algo: &'static str,
    /// X-axis value.
    pub x: f64,
    /// Total simulated seconds (sum over rounds), `None` on failure.
    pub total_seconds: Option<f64>,
    /// Average simulated map-task seconds of the dominant round.
    pub avg_map_seconds: f64,
    /// Average simulated reduce-task seconds of the dominant round.
    pub avg_reduce_seconds: f64,
    /// Total intermediate (map output) data in MB.
    pub map_output_mb: f64,
    /// SP-Sketch serialized size in KB (SP-Cube only).
    pub sketch_kb: Option<f64>,
    /// MapReduce rounds executed.
    pub rounds: usize,
    /// Reducer spill traffic in MB.
    pub spilled_mb: f64,
    /// Reducer input (work) imbalance of the dominant round, excluding
    /// SP-Cube's skew reducer (max/mean; 1.0 = perfect).
    pub imbalance: f64,
    /// Number of c-groups produced (0 on failure).
    pub cube_groups: usize,
    /// Host wall-clock seconds spent simulating.
    pub wall_seconds: f64,
    /// Task attempts that failed and were retried.
    pub task_retries: u64,
    /// Tasks lost to machine failures.
    pub tasks_lost: u64,
    /// Map tasks re-executed after a machine loss.
    pub re_executions: u64,
    /// Speculative backup attempts launched for stragglers.
    pub speculative_launches: u64,
    /// Simulated seconds of discarded work (failed attempts, lost
    /// outputs, losing speculative twins).
    pub wasted_seconds: f64,
    /// Rounds that fell back to a degraded plan (SP-Cube: sketch rejected,
    /// cube round ran hash-partitioned).
    pub fallback_events: u64,
}

const MB: f64 = 1024.0 * 1024.0;

fn imbalance_of(bytes: &[u64]) -> f64 {
    if bytes.is_empty() {
        return 1.0;
    }
    let max = *bytes.iter().max().unwrap() as f64;
    let mean = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Execute `algo` on a workload and collect a [`Measurement`].
pub fn run_algo(algo: Algo, w: &Workload, agg: AggSpec) -> Measurement {
    let wall = spcube_mapreduce::Stopwatch::start();
    let outcome: Result<
        (
            spcube_cubealg::Cube,
            spcube_mapreduce::RunMetrics,
            Option<u64>,
        ),
        Error,
    > = match algo {
        Algo::SpCube | Algo::SpCubeFaulted => {
            let cfg = SpCubeConfig::new(agg);
            SpCube::run(&w.rel, &w.cluster, &cfg).map(|r| (r.cube, r.metrics, Some(r.sketch_bytes)))
        }
        Algo::Pig => {
            mr_cube(&w.rel, &w.cluster, &MrCubeConfig::new(agg)).map(|r| (r.cube, r.metrics, None))
        }
        Algo::Hive => {
            let cfg = HiveConfig {
                agg,
                map_hash_entries: w.hive_entries,
                payload_attrs: w.hive_payload,
            };
            hive_cube(&w.rel, &w.cluster, &cfg).map(|r| (r.cube, r.metrics, None))
        }
        Algo::Naive => naive_mr_cube(&w.rel, &w.cluster, agg).map(|r| (r.cube, r.metrics, None)),
        Algo::TopDown => top_down_cube(&w.rel, &w.cluster, agg).map(|r| (r.cube, r.metrics, None)),
    };

    match outcome {
        Ok((cube, metrics, sketch_bytes)) => {
            // Load balance of the dominant round's *range/hash* reducers,
            // measured on reducer input (the work each machine receives —
            // what the sketch's partition elements are designed to
            // equalize, Proposition 4.2). SP-Cube's reducer 0 only merges
            // skew partials; including it would distort the statistic.
            let skip = if matches!(algo, Algo::SpCube | Algo::SpCubeFaulted) {
                1
            } else {
                0
            };
            let dominant = metrics
                .rounds
                .iter()
                .max_by_key(|r| r.map_output_bytes)
                .map(|r| {
                    imbalance_of(&r.reducer_input_bytes[skip.min(r.reducer_input_bytes.len())..])
                })
                .unwrap_or(1.0);
            Measurement {
                algo: algo.name(),
                x: w.x,
                total_seconds: Some(metrics.total_seconds()),
                avg_map_seconds: metrics.avg_map_time(),
                avg_reduce_seconds: metrics.avg_reduce_time(),
                map_output_mb: metrics.map_output_bytes() as f64 / MB,
                sketch_kb: sketch_bytes.map(|b| b as f64 / 1024.0),
                rounds: metrics.round_count(),
                spilled_mb: metrics.spilled_bytes() as f64 / MB,
                imbalance: dominant,
                cube_groups: cube.len(),
                wall_seconds: wall.seconds(),
                task_retries: metrics.task_retries(),
                tasks_lost: metrics.tasks_lost(),
                re_executions: metrics.re_executions(),
                speculative_launches: metrics.speculative_launches(),
                wasted_seconds: metrics.wasted_seconds(),
                fallback_events: metrics.fallback_events(),
            }
        }
        Err(err) => {
            // "Got stuck": record the failure itself as the data point.
            let is_oom = matches!(err, Error::OutOfMemory { .. });
            assert!(is_oom, "unexpected failure in {}: {err}", algo.name());
            Measurement {
                algo: algo.name(),
                x: w.x,
                total_seconds: None,
                avg_map_seconds: 0.0,
                avg_reduce_seconds: 0.0,
                map_output_mb: 0.0,
                sketch_kb: None,
                rounds: 0,
                spilled_mb: 0.0,
                imbalance: 0.0,
                cube_groups: 0,
                wall_seconds: wall.seconds(),
                task_retries: 0,
                tasks_lost: 0,
                re_executions: 0,
                speculative_launches: 0,
                wasted_seconds: 0.0,
                fallback_events: 0,
            }
        }
    }
}
