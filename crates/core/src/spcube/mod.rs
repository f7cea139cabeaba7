//! The SP-Cube algorithm (Section 5).
//!
//! Two MapReduce rounds:
//!
//! 1. **Sketch round** (Algorithm 2) — build the [`SpSketch`] from a
//!    Bernoulli sample, then broadcast it to every machine through the DFS.
//! 2. **Cube round** (Algorithm 3) — mappers walk each tuple's lattice
//!    bottom-up: skewed nodes are partially aggregated in the mapper;
//!    the first non-skewed unmarked node becomes an *anchor*, the full
//!    tuple is emitted to the reducer owning the anchor's lexicographic
//!    range, and the anchor's ancestors are marked (they will be derived
//!    reducer-side). Reducer 0 merges the skew partials; every other
//!    reducer runs BUC over each anchor group it receives and keeps
//!    exactly the ancestors assigned to that anchor.
// Serving and output path (this module and `job`): no panic source
// outside tests, and no hash order in emitted output (DESIGN.md §8).
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

mod job;

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::{Error, Mask, Relation, Result};
use spcube_cubealg::Cube;
use spcube_mapreduce::{run_job, ClusterConfig, Dfs, RunMetrics, Stopwatch};
use spcube_obs::names;

use crate::sketch::{
    build_exact_sketch, build_sampled_sketch, build_sketch_from, SketchConfig, SpSketch,
};
use job::{DegradedCubeJob, SpCubeJob};

/// SP-Cube configuration.
#[derive(Debug, Clone)]
pub struct SpCubeConfig {
    /// The aggregate function to materialize.
    pub agg: AggSpec,
    /// Sketch-round parameters.
    pub sketch: SketchConfig,
    /// Use the exact (utopian) sketch instead of the sampled one. The exact
    /// sketch is built outside MapReduce and contributes no round metrics;
    /// used for validation and ablations.
    pub use_exact_sketch: bool,
    /// Compute each anchor's ancestors reducer-side via BUC (Observation
    /// 2.6). Disabling this ablation flag makes mappers emit every
    /// non-skewed lattice node separately — the traffic blow-up the anchor
    /// marking exists to avoid.
    pub factorize_ancestors: bool,
    /// Partially aggregate skewed c-groups map-side (Section 3.2).
    /// Disabling this ablation flag routes skewed groups through the range
    /// reducers like any other group, which overloads them.
    pub map_side_skew_aggregation: bool,
    /// Iceberg minimum support: only c-groups with at least this many
    /// contributing tuples are materialized (Fang et al., cited as \[22\]).
    /// Must not exceed the skew threshold `m + 1`: every skewed group has
    /// more than `m` tuples and passes trivially, and the reducers' BUC
    /// prunes the non-skewed side exactly. `1` materializes the full cube.
    pub min_support: usize,
}

impl SpCubeConfig {
    /// Paper-default configuration for an aggregate function.
    pub fn new(agg: AggSpec) -> SpCubeConfig {
        SpCubeConfig {
            agg,
            sketch: SketchConfig::default(),
            use_exact_sketch: false,
            factorize_ancestors: true,
            map_side_skew_aggregation: true,
            min_support: 1,
        }
    }
}

/// Everything a finished SP-Cube run produces.
#[derive(Debug)]
pub struct SpCubeRun {
    /// The materialized cube (exact, even in degraded runs).
    pub cube: Cube,
    /// Metrics of the executed MapReduce rounds (sketch round first).
    pub metrics: RunMetrics,
    /// The sketch used by the cube round. Empty when the run degraded (no
    /// usable sketch existed).
    pub sketch: SpSketch,
    /// Serialized size of the sketch as shipped through the DFS — the
    /// quantity of Figures 5c and 6c.
    pub sketch_bytes: u64,
    /// True when the cube round ran in degraded (hash-partitioned) mode
    /// because the sketch round failed permanently or the DFS copy of the
    /// sketch was rejected by checksum/invariant validation. Also visible
    /// as `fallback_events` in the cube round's metrics.
    pub degraded: bool,
}

/// The SP-Cube algorithm driver.
pub struct SpCube;

impl SpCube {
    /// Run SP-Cube on `rel` over the simulated `cluster`.
    pub fn run(rel: &Relation, cluster: &ClusterConfig, cfg: &SpCubeConfig) -> Result<SpCubeRun> {
        Self::run_on(rel, cluster, cfg, &Dfs::new())
    }

    /// [`SpCube::run`] against a caller-supplied DFS — the sketch is
    /// broadcast through `dfs`, so tests (and the chaos harness) can
    /// corrupt the stored sketch and observe the driver degrade.
    pub fn run_on(
        rel: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        dfs: &Dfs,
    ) -> Result<SpCubeRun> {
        let mut metrics = RunMetrics::default();
        let (sketch, sketch_bytes) = Self::sketch_round(rel, cluster, cfg, dfs, &mut metrics)?;
        let degraded = sketch.is_none();
        Self::record_sketch_obs(cluster, rel.arity(), sketch.as_ref(), &metrics);
        let cube = Self::cube_round(rel, cluster, cfg, sketch.as_ref(), &mut metrics)?;
        let sketch =
            sketch.unwrap_or_else(|| build_sketch_from(&[], rel.arity(), cluster.machines, 0.0));
        Ok(SpCubeRun {
            cube,
            metrics,
            sketch,
            sketch_bytes,
            degraded,
        })
    }

    /// Compute several aggregate functions over one relation, reusing a
    /// single SP-Sketch round — the paper notes the sketch "is independent
    /// of the aggregate function … once constructed, the same SP-Sketch can
    /// be used to efficiently compute multiple aggregate functions"
    /// (Section 4). Runs one cube round per function; the shared metrics
    /// contain the sketch round followed by the cube rounds in order.
    pub fn run_many(
        rel: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        aggs: &[AggSpec],
    ) -> Result<(Vec<(AggSpec, Cube)>, RunMetrics)> {
        let mut metrics = RunMetrics::default();
        let (sketch, _bytes) = Self::sketch_round(rel, cluster, cfg, &Dfs::new(), &mut metrics)?;
        Self::record_sketch_obs(cluster, rel.arity(), sketch.as_ref(), &metrics);
        let mut cubes = Vec::with_capacity(aggs.len());
        for &agg in aggs {
            let mut round_cfg = cfg.clone();
            round_cfg.agg = agg;
            let cube = Self::cube_round(rel, cluster, &round_cfg, sketch.as_ref(), &mut metrics)?;
            cubes.push((agg, cube));
        }
        Ok((cubes, metrics))
    }

    /// Round 1: build the sketch and broadcast it through the DFS (Section
    /// 4.2 — every machine caches a copy before the cube round starts).
    ///
    /// Returns `None` — degrade, don't die — in two cases the cube round
    /// must survive:
    ///
    /// * the sketch round failed *permanently* (a task exhausted its retry
    ///   budget, [`Error::JobFailed`]): the sketch is an optimization, so
    ///   losing it costs performance, never the answer;
    /// * the sketch read back from the DFS is rejected — checksum mismatch
    ///   (bit-rot in transit/storage) or a violated semantic invariant
    ///   ([`SpSketch::validate`]). Partitioning with a corrupt sketch
    ///   could silently split one c-group across reducers; refusing it and
    ///   falling back keeps the output exact.
    fn sketch_round(
        rel: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        dfs: &Dfs,
        metrics: &mut RunMetrics,
    ) -> Result<(Option<SpSketch>, u64)> {
        let sketch = if cfg.use_exact_sketch {
            build_exact_sketch(rel, cluster)
        } else {
            match build_sampled_sketch(rel, cluster, &cfg.sketch) {
                Ok((sketch, round)) => {
                    metrics.push(round);
                    sketch
                }
                Err(Error::JobFailed { .. }) => return Ok((None, 0)),
                Err(e) => return Err(e),
            }
        };
        dfs.put("sp-sketch", sketch.to_bytes()?);
        for _ in 0..cluster.machines {
            let _ = dfs.get("sp-sketch")?;
        }
        let sketch_bytes = dfs.len_of("sp-sketch").unwrap_or(0);
        // Each machine works from its cached DFS copy, so the driver trusts
        // the round-tripped bytes, not the in-memory builder output.
        match SpSketch::from_bytes(&dfs.get("sp-sketch")?) {
            Ok(s) if s.validate().is_ok() => Ok((Some(s), sketch_bytes)),
            _ => Ok((None, sketch_bytes)),
        }
    }

    /// Record sketch-phase telemetry: the sketch round's simulated build
    /// time and the skewed-group count the sketch recorded per cuboid.
    fn record_sketch_obs(
        cluster: &ClusterConfig,
        arity: usize,
        sketch: Option<&SpSketch>,
        metrics: &RunMetrics,
    ) {
        let obs = &cluster.obs;
        if !obs.enabled() {
            return;
        }
        if let Some(round) = metrics.rounds.iter().find(|r| r.name == "sp-sketch") {
            obs.gauge_set(names::SPCUBE_SKETCH_SECONDS, &[], round.simulated_seconds);
        }
        if let Some(sketch) = sketch {
            for mask in Mask::full(arity).subsets() {
                let skewed = sketch.node(mask).skew_count() as u64;
                if skewed > 0 {
                    obs.add(
                        names::SPCUBE_SKETCH_SKEWED,
                        &[("cuboid", mask.0.to_string())],
                        skewed,
                    );
                }
            }
        }
    }

    /// Round 2: compute the cube with `k` range reducers plus reducer 0 —
    /// or, without a usable sketch, the degraded hash-partitioned job
    /// (flagged in the round's `fallback_events`).
    fn cube_round(
        rel: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        sketch: Option<&SpSketch>,
        metrics: &mut RunMetrics,
    ) -> Result<Cube> {
        if cfg.min_support > cluster.skew_threshold() + 1 {
            return Err(Error::Config(format!(
                "iceberg min_support {} exceeds the skew threshold m+1 = {}; skewed groups \
                 could not be filtered exactly",
                cfg.min_support,
                cluster.skew_threshold() + 1
            )));
        }
        let obs = &cluster.obs;
        let mut result = match sketch {
            Some(sketch) => {
                let mut job = SpCubeJob::new(sketch, rel.arity(), cfg);
                job.anchor_hist = obs.histogram(names::SPCUBE_ANCHOR_LEVEL, &[]);
                run_job(cluster, &job, rel.tuples(), cluster.machines + 1)?
            }
            None => {
                let job = DegradedCubeJob::new(rel.arity(), cfg);
                run_job(cluster, &job, rel.tuples(), cluster.machines + 1)?
            }
        };
        if sketch.is_none() {
            result.metrics.fallback_events = 1;
            obs.inc(names::SPCUBE_DEGRADED, &[]);
        }
        if obs.enabled() {
            // Per-reducer tuple load and the max/mean imbalance ratio over
            // the range reducers — reducer 0 is the dedicated skew reducer
            // and is excluded when a sketch routed skews to it (matching
            // the benchmark's imbalance accounting).
            let loads = &result.metrics.reducer_input_bytes;
            for (r, &bytes) in loads.iter().enumerate() {
                obs.gauge_set(
                    names::SPCUBE_REDUCER_LOAD,
                    &[("reducer", r.to_string())],
                    bytes as f64,
                );
            }
            let skip = usize::from(sketch.is_some());
            let range = loads.get(skip..).unwrap_or(&[]);
            if !range.is_empty() {
                let max = range.iter().copied().max().unwrap_or(0) as f64;
                let mean = range.iter().map(|&b| b as f64).sum::<f64>() / range.len() as f64;
                let ratio = if mean == 0.0 { 1.0 } else { max / mean };
                obs.gauge_set(names::SPCUBE_REDUCER_IMBALANCE, &[], ratio);
            }
        }
        metrics.push(result.metrics.clone());
        Ok(Cube::from_pairs(result.into_flat_outputs()))
    }
}

/// Everything [`SpCube::run_and_store`] produces: the run itself plus the
/// store phase's write report.
#[derive(Debug)]
pub struct SpCubeStoreRun {
    /// The underlying two-round run.
    pub run: SpCubeRun,
    /// What the store phase wrote (segments, bytes, rows).
    pub report: spcube_cubestore::StoreWriteReport,
    /// The store prefix on the DFS (open with `CubeStore::open`).
    pub prefix: String,
}

impl SpCube {
    /// Run SP-Cube and then persist the cube as a columnar store under
    /// `prefix` on `dfs` — the final "store" phase of the pipeline
    /// (Section 3.1's one-file-per-cuboid output, made queryable).
    ///
    /// The phase is accounted as an extra `cube-store` round in the run
    /// metrics: its written bytes land in `reducer_output_bytes` (they
    /// also show up in the DFS `bytes_written` counter, alongside the
    /// sketch broadcast) and its rows in `output_records`, so benchmark
    /// CSVs pick the store phase up like any other round.
    pub fn run_and_store(
        rel: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        dfs: &Dfs,
        prefix: &str,
    ) -> Result<SpCubeStoreRun> {
        let mut run = Self::run_on(rel, cluster, cfg, dfs)?;
        let t0 = Stopwatch::start();
        let report = spcube_cubestore::write_store(
            dfs,
            prefix,
            &run.cube,
            rel.arity(),
            cfg.agg,
            cfg.min_support,
        )?;
        let round = spcube_mapreduce::JobMetrics {
            name: "cube-store".into(),
            reduce_tasks: 1,
            output_records: report.rows,
            reducer_output_bytes: vec![report.bytes],
            wall_seconds: t0.seconds(),
            ..Default::default()
        };
        run.metrics.push(round);
        Ok(SpCubeStoreRun {
            run,
            report,
            prefix: prefix.to_string(),
        })
    }
}

/// Everything [`SpCube::ingest_delta`] produces.
#[derive(Debug)]
pub struct SpCubeIngestRun {
    /// What the delta commit wrote (generation, chain, segments, bytes).
    pub report: spcube_cubestore::DeltaWriteReport,
    /// Rounds this ingest ran: empty + one `delta-ingest` round for the
    /// in-process path, or a full sketch/cube run followed by the
    /// `delta-ingest` round for a big batch routed through MapReduce.
    pub metrics: RunMetrics,
    /// Whether the batch was cubed through the SP-Sketch MapReduce path
    /// (large distributive batch) or the single in-process pass.
    pub via_mapreduce: bool,
    /// The store prefix on the DFS (open with `CubeStore::open`).
    pub prefix: String,
}

/// Batches at or below this many tuples are cubed by the single
/// in-process pass of [`spcube_cubestore::state_cube`]; larger batches of
/// a distributive aggregate go through the SP-Sketch MapReduce path so
/// the append cost keeps scaling with cluster size.
pub const DELTA_INPROCESS_MAX: usize = 32_768;

impl SpCube {
    /// Cube only the appended `batch` and publish it as a new delta layer
    /// under `prefix` on `dfs` — incremental maintenance instead of a
    /// full recompute. Layered reads merge this layer with the base
    /// bit-exactly (the merge laws of [`spcube_agg`]), so the answers
    /// equal a from-scratch rebuild over base + batch.
    ///
    /// Small batches take a single cheap in-process round; a batch larger
    /// than [`DELTA_INPROCESS_MAX`] with a distributive aggregate
    /// (COUNT/SUM/MIN/MAX, whose outputs convert losslessly to states)
    /// reuses the SP-Sketch path via [`SpCube::run_on`]. Requires
    /// `cfg.min_support == 1`: per-batch iceberg pruning would drop
    /// groups that only reach the support threshold across batches.
    pub fn ingest_delta(
        batch: &Relation,
        cluster: &ClusterConfig,
        cfg: &SpCubeConfig,
        dfs: &Dfs,
        prefix: &str,
    ) -> Result<SpCubeIngestRun> {
        if cfg.min_support != 1 {
            return Err(Error::Config(format!(
                "delta ingest requires min_support 1 (got {}): per-batch iceberg pruning \
                 would break layered bit-exactness",
                cfg.min_support
            )));
        }
        let t0 = Stopwatch::start();
        let distributive = matches!(
            cfg.agg,
            AggSpec::Count | AggSpec::Sum | AggSpec::Min | AggSpec::Max
        );
        let via_mapreduce = distributive && batch.len() > DELTA_INPROCESS_MAX;
        let mut metrics = RunMetrics::default();
        let report = if via_mapreduce {
            let run = Self::run_on(batch, cluster, cfg, dfs)?;
            metrics = run.metrics;
            let states = cube_states(&run.cube, cfg.agg)?;
            spcube_cubestore::ingest_states(dfs, prefix, batch.arity(), cfg.agg, states)?
        } else {
            spcube_cubestore::ingest_batch(dfs, prefix, batch, cfg.agg)?
        };
        let round = spcube_mapreduce::JobMetrics {
            name: "delta-ingest".into(),
            reduce_tasks: 1,
            output_records: report.rows,
            reducer_output_bytes: vec![report.bytes],
            wall_seconds: t0.seconds(),
            ..Default::default()
        };
        metrics.push(round);
        let obs = &cluster.obs;
        if obs.enabled() {
            obs.inc(names::STORE_DELTA_INGEST, &[]);
            obs.add(names::STORE_DELTA_ROWS, &[], report.rows);
            obs.hist_record(names::STORE_DELTA_INGEST_US, &[], t0.seconds() * 1e6);
            obs.gauge_set(names::STORE_LAYER_COUNT, &[], report.layers.len() as f64);
        }
        Ok(SpCubeIngestRun {
            report,
            metrics,
            via_mapreduce,
            prefix: prefix.to_string(),
        })
    }
}

/// Convert a materialized cube of a *distributive* aggregate into
/// mergeable per-cuboid states, losslessly (COUNT/SUM/MIN/MAX outputs
/// carry their whole state). The bridge that lets the SP-Sketch MapReduce
/// path feed [`spcube_cubestore::ingest_states`]; algebraic/holistic
/// aggregates must be cubed by `state_cube` instead and are rejected with
/// a typed error.
pub fn cube_states(cube: &Cube, spec: AggSpec) -> Result<spcube_cubestore::StateCube> {
    let mut states = spcube_cubestore::StateCube::new();
    for (g, v) in cube.iter() {
        let state = match (spec, v) {
            (AggSpec::Count, AggOutput::Number(x)) => AggState::Count(*x as u64),
            (AggSpec::Sum, AggOutput::Number(x)) => AggState::Sum(*x),
            (AggSpec::Min, AggOutput::Number(x)) => AggState::Min(*x),
            (AggSpec::Max, AggOutput::Number(x)) => AggState::Max(*x),
            _ => {
                return Err(Error::Config(format!(
                    "{spec:?} outputs are not losslessly convertible to states; \
                     cube the batch with state_cube instead"
                )))
            }
        };
        states
            .entry(g.mask)
            .or_default()
            .push((g.key.clone(), state));
    }
    Ok(states)
}

/// Convenience wrapper: run SP-Cube with default configuration.
pub fn sp_cube(rel: &Relation, cluster: &ClusterConfig, agg: AggSpec) -> Result<SpCubeRun> {
    SpCube::run(rel, cluster, &SpCubeConfig::new(agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::{Schema, Value};
    use spcube_cubealg::naive_cube;

    fn rel_with_skew(n: usize, hot: usize, d: usize) -> Relation {
        let mut r = Relation::empty(Schema::synthetic(d));
        for i in 0..n {
            let mut dims = Vec::with_capacity(d);
            if i < hot {
                // Heavy pattern: all dims equal 1.
                dims.resize(d, Value::Int(1));
            } else {
                for j in 0..d {
                    dims.push(Value::Int((i * (j + 3)) as i64 % 50));
                }
            }
            r.push_row(dims, (i % 7) as f64);
        }
        r
    }

    #[test]
    fn spcube_matches_naive_reference() {
        let rel = rel_with_skew(2000, 600, 3);
        let cluster = ClusterConfig::new(8, 150);
        for agg in [
            AggSpec::Count,
            AggSpec::Sum,
            AggSpec::Min,
            AggSpec::Max,
            AggSpec::Avg,
        ] {
            let run = sp_cube(&rel, &cluster, agg).expect("run");
            let expect = naive_cube(&rel, agg);
            assert!(
                run.cube.approx_eq(&expect, 1e-9),
                "{agg:?}: {:?}",
                run.cube.diff(&expect, 1e-9, 5)
            );
        }
    }

    #[test]
    fn spcube_with_exact_sketch_matches_naive() {
        let rel = rel_with_skew(1500, 500, 3);
        let cluster = ClusterConfig::new(5, 100);
        let mut cfg = SpCubeConfig::new(AggSpec::Sum);
        cfg.use_exact_sketch = true;
        let run = SpCube::run(&rel, &cluster, &cfg).expect("run");
        let expect = naive_cube(&rel, AggSpec::Sum);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
        // Exact sketch contributes no MR round: only the cube round.
        assert_eq!(run.metrics.round_count(), 1);
    }

    #[test]
    fn ablation_no_factorization_still_correct_but_heavier() {
        let rel = rel_with_skew(1200, 300, 3);
        let cluster = ClusterConfig::new(6, 100);
        let mut base = SpCubeConfig::new(AggSpec::Count);
        base.use_exact_sketch = true;
        let mut flat = base.clone();
        flat.factorize_ancestors = false;
        let run_base = SpCube::run(&rel, &cluster, &base).expect("run");
        let run_flat = SpCube::run(&rel, &cluster, &flat).expect("run");
        let expect = naive_cube(&rel, AggSpec::Count);
        assert!(run_flat.cube.approx_eq(&expect, 1e-9));
        assert!(
            run_flat.metrics.map_output_records() > run_base.metrics.map_output_records(),
            "factorization must reduce traffic: {} vs {}",
            run_flat.metrics.map_output_records(),
            run_base.metrics.map_output_records()
        );
    }

    #[test]
    fn ablation_no_map_side_skew_aggregation_still_correct() {
        let rel = rel_with_skew(1200, 500, 3);
        let cluster = ClusterConfig::new(6, 100);
        let mut cfg = SpCubeConfig::new(AggSpec::Sum);
        cfg.use_exact_sketch = true;
        cfg.map_side_skew_aggregation = false;
        let run = SpCube::run(&rel, &cluster, &cfg).expect("run");
        let expect = naive_cube(&rel, AggSpec::Sum);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
        // Without map-side aggregation the skewed groups overload reducers.
        assert!(
            run.metrics.spilled_bytes() > 0 || run.metrics.rounds[0].largest_group_values > 500
        );
    }

    #[test]
    fn two_rounds_and_small_sketch() {
        let rel = rel_with_skew(3000, 900, 4);
        let cluster = ClusterConfig::new(10, 200);
        let run = sp_cube(&rel, &cluster, AggSpec::Count).expect("run");
        assert_eq!(run.metrics.round_count(), 2);
        assert!(run.sketch_bytes > 0);
        assert!(
            run.sketch_bytes < rel.wire_bytes() / 5,
            "sketch must be small"
        );
        assert!(!run.degraded);
        assert_eq!(run.metrics.fallback_events(), 0);
    }

    #[test]
    fn run_and_store_persists_a_queryable_cube() {
        use spcube_cubealg::{CubeQuery, CubeRead};

        let rel = rel_with_skew(1500, 400, 3);
        let cluster = ClusterConfig::new(6, 120);
        let dfs = std::sync::Arc::new(Dfs::new());
        let cfg = SpCubeConfig::new(AggSpec::Sum);
        let stored = SpCube::run_and_store(&rel, &cluster, &cfg, &dfs, "cube").expect("run");

        // The store phase is accounted as its own metrics round.
        let last = stored
            .run
            .metrics
            .rounds
            .last()
            .expect("at least one round");
        assert_eq!(last.name, "cube-store");
        assert_eq!(last.output_records, stored.report.rows);
        assert_eq!(stored.report.rows as usize, stored.run.cube.len());
        assert!(stored.report.segments > 0);
        // Store bytes flow through the DFS byte accounting.
        assert!(dfs.bytes_written() >= stored.report.bytes);

        // The persisted store answers exactly like the in-memory index.
        let store = spcube_cubestore::CubeStore::open(
            dfs as std::sync::Arc<dyn spcube_cubestore::BlobStore>,
            "cube",
        )
        .expect("run");
        let q = CubeQuery::new(&stored.run.cube, rel.arity());
        for mask in spcube_common::Mask::full(rel.arity()).subsets() {
            assert_eq!(
                store.cuboid_len(mask).expect("cuboid_len"),
                q.cuboid_len(mask)
            );
        }
        let top_store = store.top(spcube_common::Mask(0b011), 5).expect("run");
        let top_mem = q.top(spcube_common::Mask(0b011), 5);
        assert_eq!(top_store.len(), top_mem.len());
        for ((g, x), (hg, hx)) in top_store.iter().zip(top_mem) {
            assert_eq!(g, hg);
            assert_eq!(*x, hx);
        }
    }

    #[test]
    fn corrupt_sketch_on_dfs_triggers_fallback_with_exact_output() {
        // One flipped bit in the stored sketch: the checksum rejects it and
        // the cube round degrades to hash partitioning — same cube.
        let rel = rel_with_skew(1500, 500, 3);
        let cluster = ClusterConfig::new(6, 120);
        let cfg = SpCubeConfig::new(AggSpec::Sum);
        let dfs = Dfs::new();
        dfs.corrupt_next_write("sp-sketch");
        let run = SpCube::run_on(&rel, &cluster, &cfg, &dfs).expect("run");
        assert!(run.degraded, "corrupt sketch must degrade the run");
        assert_eq!(run.metrics.fallback_events(), 1);
        assert_eq!(
            run.metrics.rounds.last().expect("at least one round").name,
            "sp-cube-degraded"
        );
        assert_eq!(
            run.sketch.skew_count(),
            0,
            "degraded run carries an empty sketch"
        );
        let expect = naive_cube(&rel, AggSpec::Sum);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
    }

    #[test]
    fn permanent_sketch_round_failure_degrades_instead_of_dying() {
        // Every sketch-round attempt fails and the retry budget runs out;
        // the cube round must still produce the exact cube, degraded.
        let rel = rel_with_skew(1200, 400, 3);
        let mut cluster = ClusterConfig::new(6, 100);
        cluster.faults.task_failure_prob = 0.999_999;
        cluster.faults.only_job = Some("sp-sketch".into());
        cluster.retry.max_attempts = 2;
        let run = SpCube::run(&rel, &cluster, &SpCubeConfig::new(AggSpec::Count)).expect("run");
        assert!(run.degraded);
        assert_eq!(run.metrics.fallback_events(), 1);
        assert_eq!(run.sketch_bytes, 0, "no sketch ever reached the DFS");
        let expect = naive_cube(&rel, AggSpec::Count);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
        // Only the degraded cube round ran to completion.
        assert_eq!(run.metrics.round_count(), 1);
        assert_eq!(run.metrics.rounds[0].name, "sp-cube-degraded");
    }

    #[test]
    fn degraded_mode_supports_every_aggregate() {
        let rel = rel_with_skew(800, 250, 3);
        let cluster = ClusterConfig::new(5, 80);
        for agg in [
            AggSpec::Count,
            AggSpec::Sum,
            AggSpec::Min,
            AggSpec::Max,
            AggSpec::Avg,
            AggSpec::CountDistinct,
            AggSpec::TopKFrequent(2),
        ] {
            let dfs = Dfs::new();
            dfs.corrupt_next_write("sp-sketch");
            let run = SpCube::run_on(&rel, &cluster, &SpCubeConfig::new(agg), &dfs).expect("run");
            assert!(run.degraded);
            let expect = naive_cube(&rel, agg);
            assert!(
                run.cube.approx_eq(&expect, 1e-9),
                "{agg:?}: {:?}",
                run.cube.diff(&expect, 1e-9, 5)
            );
        }
    }

    #[test]
    fn topk_holistic_aggregate_supported() {
        let rel = rel_with_skew(800, 200, 3);
        let cluster = ClusterConfig::new(4, 100);
        let run = sp_cube(&rel, &cluster, AggSpec::TopKFrequent(2)).expect("run");
        let expect = naive_cube(&rel, AggSpec::TopKFrequent(2));
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
    }

    #[test]
    fn single_machine_cluster_works() {
        let rel = rel_with_skew(300, 100, 2);
        let cluster = ClusterConfig::new(1, 50);
        let run = sp_cube(&rel, &cluster, AggSpec::Count).expect("run");
        let expect = naive_cube(&rel, AggSpec::Count);
        assert!(run.cube.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn run_many_shares_one_sketch_round() {
        let rel = rel_with_skew(1500, 400, 3);
        let cluster = ClusterConfig::new(6, 100);
        let cfg = SpCubeConfig::new(AggSpec::Count);
        let (cubes, metrics) = SpCube::run_many(
            &rel,
            &cluster,
            &cfg,
            &[AggSpec::Count, AggSpec::Sum, AggSpec::Avg],
        )
        .expect("run");
        // One sketch round + three cube rounds.
        assert_eq!(metrics.round_count(), 4);
        assert_eq!(metrics.rounds[0].name, "sp-sketch");
        for (agg, cube) in &cubes {
            let expect = naive_cube(&rel, *agg);
            assert!(cube.approx_eq(&expect, 1e-9), "{agg:?}");
        }
        // Cheaper than three independent runs (which would pay the sample
        // round thrice).
        let separate: f64 = [AggSpec::Count, AggSpec::Sum, AggSpec::Avg]
            .iter()
            .map(|&a| {
                sp_cube(&rel, &cluster, a)
                    .expect("run")
                    .metrics
                    .total_seconds()
            })
            .sum();
        assert!(metrics.total_seconds() < separate);
    }

    #[test]
    fn iceberg_min_support_filters_small_groups() {
        let rel = rel_with_skew(2000, 600, 3);
        let cluster = ClusterConfig::new(8, 150);
        let mut cfg = SpCubeConfig::new(AggSpec::Sum);
        cfg.min_support = 50;
        let run = SpCube::run(&rel, &cluster, &cfg).expect("run");
        // Reference: full cube filtered by exact cardinality >= 5.
        let counts = naive_cube(&rel, AggSpec::Count);
        let sums = naive_cube(&rel, AggSpec::Sum);
        let expect = spcube_cubealg::Cube::from_pairs(
            sums.iter()
                .filter(|(g, _)| counts.get(g).expect("count for group").number() >= 50.0)
                .map(|(g, v)| (g.clone(), v.clone())),
        );
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
        assert!(run.cube.len() < sums.len(), "iceberg must prune something");
    }

    #[test]
    fn iceberg_min_support_above_skew_threshold_rejected() {
        let rel = rel_with_skew(500, 100, 2);
        let cluster = ClusterConfig::new(4, 50);
        let mut cfg = SpCubeConfig::new(AggSpec::Count);
        cfg.min_support = 200;
        assert!(SpCube::run(&rel, &cluster, &cfg).is_err());
    }

    #[test]
    fn count_distinct_partially_algebraic_supported() {
        let rel = rel_with_skew(1000, 300, 3);
        let cluster = ClusterConfig::new(5, 80);
        let run = sp_cube(&rel, &cluster, AggSpec::CountDistinct).expect("run");
        let expect = naive_cube(&rel, AggSpec::CountDistinct);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
    }

    #[test]
    fn empty_relation_yields_empty_cube() {
        let rel = Relation::empty(Schema::synthetic(3));
        let cluster = ClusterConfig::new(4, 10);
        let run = sp_cube(&rel, &cluster, AggSpec::Count).expect("run");
        assert!(run.cube.is_empty());
    }

    #[test]
    fn string_dimensions_work_end_to_end() {
        let mut rel =
            Relation::empty(Schema::new(["name", "city", "year"], "sales").expect("schema"));
        let cities = ["Rome", "Paris", "London"];
        let products = ["laptop", "printer", "keyboard", "mouse"];
        for i in 0..600usize {
            // Make laptop/Rome heavily skewed.
            let (p, c) = if i % 2 == 0 {
                ("laptop", "Rome")
            } else {
                (products[i % 4], cities[i % 3])
            };
            rel.push_row(
                vec![p.into(), c.into(), Value::Int(2010 + (i % 5) as i64)],
                (i % 100) as f64,
            );
        }
        let cluster = ClusterConfig::new(5, 60);
        let run = sp_cube(&rel, &cluster, AggSpec::Sum).expect("run");
        let expect = naive_cube(&rel, AggSpec::Sum);
        assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "{:?}",
            run.cube.diff(&expect, 1e-9, 5)
        );
    }
}
