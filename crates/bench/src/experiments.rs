//! One entry per figure of the paper's evaluation (Section 6 + Appendix).
//!
//! Every experiment runs the real algorithms end-to-end on inputs scaled
//! down from the paper's by a fixed per-figure ratio, with the engine's
//! cost model scaled by the same ratio (`CostModel::paper_scale`), so the
//! X axes below are reported in *paper-equivalent* units (millions of
//! tuples / skewness percent) and the simulated seconds land in the
//! paper's range. See EXPERIMENTS.md for paper-vs-measured notes.

use std::path::PathBuf;

use spcube_agg::AggSpec;
use spcube_datagen as datagen;
use spcube_mapreduce::{ClusterConfig, CostModel};

use crate::report::{write_csv, Table};
use crate::runner::{run_algo, Algo, Measurement, Workload};

/// Paper cluster size (20 × m3.xlarge).
pub const K: usize = 20;

/// Harness options.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Multiplier on every dataset size (1.0 = quick defaults; 8–16 gets
    /// close to an overnight full run).
    pub size_factor: f64,
    /// Where CSVs are written.
    pub out_dir: PathBuf,
    /// Echo tables to stdout.
    pub verbose: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            size_factor: 1.0,
            out_dir: PathBuf::from("bench_results"),
            verbose: true,
        }
    }
}

impl ExpConfig {
    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.size_factor) as usize).max(100)
    }

    fn emit(&self, experiment: &str, rows: &[Measurement]) {
        if self.verbose {
            println!("{}", Table::new(experiment, rows).render());
        }
        let path = self.out_dir.join(format!("{experiment}.csv"));
        let _ = std::fs::remove_file(&path);
        write_csv(path, experiment, rows).expect("CSV write failed");
    }
}

fn cluster_for(n: usize, m: usize, paper_n: f64) -> ClusterConfig {
    let ratio = (paper_n / n as f64).max(1.0);
    ClusterConfig::new(K, m.max(1)).with_cost(CostModel::paper_scale(ratio))
}

/// Check that all algorithms that completed agree on the cube size — a
/// cheap cross-algorithm correctness guard run at every point.
fn assert_agreement(rows: &[Measurement], x: f64) {
    let sizes: Vec<usize> = rows
        .iter()
        .filter(|m| (m.x - x).abs() < 1e-9 && m.total_seconds.is_some())
        .map(|m| m.cube_groups)
        .collect();
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "algorithms disagree on cube size at x={x}: {sizes:?}"
    );
}

/// Figure 4 — Wikipedia Traffic Statistics: running time (4a), average
/// reduce time (4b), map output size (4c) as the input grows to 300 M
/// tuples (paper-equivalent).
pub fn fig4(cfg: &ExpConfig) -> Vec<Measurement> {
    let base = cfg.scaled(240_000);
    let paper_max = 300e6;
    let mut rows = Vec::new();
    for frac in [8usize, 4, 2, 1] {
        let n = base / frac;
        let rel = datagen::wikipedia_like(n, 0x41);
        // Skew threshold n/100: the planted 4–30 % groups are all skewed.
        let cluster = cluster_for(base, n / 100, paper_max);
        let x = (n as f64 / base as f64) * paper_max / 1e6;
        let w = Workload {
            label: "wikipedia".into(),
            x,
            rel,
            cluster,
            hive_entries: 4096,
            hive_payload: 0,
        };
        for algo in Algo::paper_trio() {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, x);
    }
    cfg.emit("fig4_wikipedia", &rows);
    rows
}

/// Figure 5 — USAGOV clicks: running time (5a), average map time (5b),
/// SP-Sketch size (5c), input up to 30 M tuples (paper-equivalent),
/// log-scale X.
pub fn fig5(cfg: &ExpConfig) -> Vec<Measurement> {
    let base = cfg.scaled(160_000);
    let paper_max = 30e6;
    let mut rows = Vec::new();
    for frac in [16usize, 8, 4, 2, 1] {
        let n = base / frac;
        let rel = datagen::usagov_like(n, 0x90);
        // The paper's m = n/k.
        let cluster = cluster_for(base, n / K, paper_max);
        let x = (n as f64 / base as f64) * paper_max / 1e6;
        // USAGOV rows carry 15 attributes, 4 of them cubed: Hive's
        // grouping-set expansion materializes all 15 per expanded row.
        let w = Workload {
            label: "usagov".into(),
            x,
            rel,
            cluster,
            hive_entries: 4096,
            hive_payload: 11,
        };
        for algo in Algo::paper_trio() {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, x);
    }
    cfg.emit("fig5_usagov", &rows);
    rows
}

/// Figure 6 — gen-binomial with varying skewness p: running time (6a), map
/// output size (6b), sketch size (6c). Hive is expected to get stuck for
/// p ≥ 0.4 (reducers out of memory), as in the paper.
pub fn fig6(cfg: &ExpConfig) -> Vec<Measurement> {
    let n = cfg.scaled(160_000);
    let paper_n = 300e6;
    let mut rows = Vec::new();
    for p_pct in [0u32, 10, 25, 40, 60, 75] {
        let p = p_pct as f64 / 100.0;
        let rel = datagen::gen_binomial(n, 4, p, 0xb1);
        // Threshold n/500: each planted pattern (p·n/20 tuples) is skewed
        // from p = 0.05 up. Memory bytes calibrated so the Hive baseline's
        // leaked hot groups cross it around p = 0.4 (see hive.rs).
        let cluster = cluster_for(n, n / 500, paper_n).with_memory_bytes((n as u64 / 500) * 64);
        let w = Workload {
            label: "gen-binomial".into(),
            x: p_pct as f64,
            rel,
            cluster,
            hive_entries: 256,
            hive_payload: 0,
        };
        for algo in Algo::paper_trio() {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, p_pct as f64);
    }
    cfg.emit("fig6_binomial_skew", &rows);
    rows
}

/// Figure 7 — gen-zipf: running time (7a), average reduce time (7b), map
/// output size (7c), input up to 150 M tuples (paper-equivalent).
pub fn fig7(cfg: &ExpConfig) -> Vec<Measurement> {
    let base = cfg.scaled(160_000);
    let paper_max = 150e6;
    let mut rows = Vec::new();
    for frac in [16usize, 4, 1] {
        let n = base / frac;
        let rel = datagen::gen_zipf(n, 4, 0x21f);
        let cluster = cluster_for(base, n / K, paper_max);
        let x = (n as f64 / base as f64) * paper_max / 1e6;
        let w = Workload {
            label: "gen-zipf".into(),
            x,
            rel,
            cluster,
            hive_entries: 4096,
            hive_payload: 0,
        };
        for algo in Algo::paper_trio() {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, x);
    }
    cfg.emit("fig7_zipf", &rows);
    rows
}

/// Figure 8 (appendix) — gen-binomial with p = 0.1 and growing input:
/// running time (8a), average map time (8b), map output size (8c).
pub fn fig8(cfg: &ExpConfig) -> Vec<Measurement> {
    let base = cfg.scaled(160_000);
    let paper_max = 300e6;
    let mut rows = Vec::new();
    for frac in [16usize, 4, 1] {
        let n = base / frac;
        let rel = datagen::gen_binomial(n, 4, 0.1, 0xb8);
        let cluster =
            cluster_for(base, n / 500, paper_max).with_memory_bytes((n as u64 / 500) * 64);
        let x = (n as f64 / base as f64) * paper_max / 1e6;
        let w = Workload {
            label: "gen-binomial-p01".into(),
            x,
            rel,
            cluster,
            hive_entries: 256,
            hive_payload: 0,
        };
        for algo in Algo::paper_trio() {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, x);
    }
    cfg.emit("fig8_binomial_growth", &rows);
    rows
}

/// Section 3 analysis — the naive algorithm's 2^d·n traffic versus
/// SP-Cube, on gen-zipf.
pub fn naive_traffic(cfg: &ExpConfig) -> Vec<Measurement> {
    let base = cfg.scaled(80_000);
    let mut rows = Vec::new();
    for frac in [4usize, 2, 1] {
        let n = base / frac;
        let rel = datagen::gen_zipf(n, 4, 0x3aa);
        let cluster = cluster_for(base, n / K, 150e6);
        let x = n as f64 / 1e6;
        let w = Workload {
            label: "gen-zipf".into(),
            x,
            rel,
            cluster,
            hive_entries: 4096,
            hive_payload: 0,
        };
        rows.push(run_algo(Algo::Naive, &w, AggSpec::Count));
        rows.push(run_algo(Algo::SpCube, &w, AggSpec::Count));
        assert_agreement(&rows, x);
    }
    cfg.emit("naive_traffic", &rows);
    rows
}

/// Theorem 5.3 / Propositions 5.5–5.6 — SP-Cube intermediate records per
/// tuple as d grows, on the adversarial small-domain relation (anchors at
/// level d/2+1: exponential) versus the benign apex-only relation
/// (anchors at level 1: at most d).
pub fn traffic_bounds(cfg: &ExpConfig) -> Vec<Measurement> {
    let n = cfg.scaled(40_000);
    let mut rows = Vec::new();
    for d in [4usize, 6, 8] {
        let m = n / 200;
        let (adv, _domain) = datagen::uniform_small_domain(n, d, m, 0xad);
        let cluster = ClusterConfig::new(K, m).with_cost(CostModel::paper_scale(1000.0));
        let w = Workload {
            label: format!("adversarial-d{d}"),
            x: d as f64,
            rel: adv,
            cluster: cluster.clone(),
            hive_entries: 4096,
            hive_payload: 0,
        };
        rows.push(run_algo(Algo::SpCube, &w, AggSpec::Count));

        let benign = datagen::apex_only_skew(n, d, 0xbe);
        let w = Workload {
            label: format!("benign-d{d}"),
            x: d as f64 + 0.5, // offset so both series fit one CSV
            rel: benign,
            cluster,
            hive_entries: 4096,
            hive_payload: 0,
        };
        rows.push(run_algo(Algo::SpCube, &w, AggSpec::Count));
    }
    cfg.emit("traffic_bounds", &rows);
    rows
}

/// Section 6.2 closing remark — reducer load balance: SP-Cube's per-reducer
/// output sizes should be similar (imbalance near 1), compared against the
/// hash-partitioned baselines on skewed data.
pub fn balance(cfg: &ExpConfig) -> Vec<Measurement> {
    use spcube_mapreduce::Phase;
    use spcube_obs::{names, ObsHandle};

    let n = cfg.scaled(120_000);
    let rel = datagen::gen_zipf(n, 4, 0x6a1);
    let cluster = cluster_for(n, n / K, 150e6);
    // The SP-Cube run carries an observability session so the per-reducer
    // load gauge cross-checks the imbalance column computed from metrics.
    let obs = ObsHandle::wall();
    let w = Workload {
        label: "gen-zipf".into(),
        x: n as f64 / 1e6,
        rel,
        cluster,
        hive_entries: 4096,
        hive_payload: 0,
    };
    let w_sp = Workload {
        label: w.label.clone(),
        x: w.x,
        rel: w.rel.clone(),
        cluster: w.cluster.clone().with_obs(obs.clone()),
        hive_entries: w.hive_entries,
        hive_payload: w.hive_payload,
    };
    let mut rows = vec![run_algo(Algo::SpCube, &w_sp, AggSpec::Count)];
    rows.extend(
        [Algo::Pig, Algo::Naive]
            .iter()
            .map(|&a| run_algo(a, &w, AggSpec::Count)),
    );
    // The gauge is written at the exact site the cube round finishes, from
    // the same reducer_input_bytes the Measurement derives its imbalance
    // column from — the two must agree to the bit.
    let gauge = obs
        .gauge_value(names::SPCUBE_REDUCER_IMBALANCE, &[])
        .expect("imbalance gauge not set by the SP-Cube run");
    assert!(
        (gauge - rows[0].imbalance).abs() < 1e-12,
        "obs gauge {gauge} disagrees with measured imbalance {}",
        rows[0].imbalance
    );

    // The same SP-Cube run on a chaotic cluster: one machine dies in each
    // phase, 5% of attempts fail, 10% of tasks straggle with speculative
    // backups. The cube (and hence the balance statistic's basis) must be
    // identical; only the recovery columns and total time change.
    let mut faulted = Workload {
        cluster: w
            .cluster
            .clone()
            .with_task_failures(0.05)
            .with_stragglers(0.1, 8.0)
            .with_speculation(1.5)
            .with_machine_failure(Phase::Map, 1)
            .with_machine_failure(Phase::Reduce, 2),
        label: "gen-zipf-faulted".into(),
        ..w
    };
    faulted.cluster.retry.max_attempts = 12;
    let chaotic = run_algo(Algo::SpCubeFaulted, &faulted, AggSpec::Count);
    assert_eq!(
        chaotic.cube_groups, rows[0].cube_groups,
        "fault recovery changed the cube"
    );
    assert!(
        chaotic.task_retries + chaotic.re_executions + chaotic.speculative_launches > 0,
        "the chaotic row exercised no recovery path"
    );
    rows.push(chaotic);
    cfg.emit("balance", &rows);
    rows
}

/// Section 7's round-count argument: the top-down algorithm of \[25\] needs
/// `d + 1` rounds and suffers on skew, which is why the paper excludes it
/// from its figures. Compare it against SP-Cube and Pig on the zipf
/// workload at two dimensionalities.
pub fn rounds(cfg: &ExpConfig) -> Vec<Measurement> {
    let n = cfg.scaled(80_000);
    let mut rows = Vec::new();
    for d in [4usize, 6] {
        let rel = datagen::gen_zipf(n, d, 0x5d);
        let cluster = cluster_for(n, n / K, 150e6);
        let w = Workload {
            label: format!("gen-zipf-d{d}"),
            x: d as f64,
            rel,
            cluster,
            hive_entries: 4096,
            hive_payload: 0,
        };
        for algo in [Algo::SpCube, Algo::Pig, Algo::TopDown] {
            rows.push(run_algo(algo, &w, AggSpec::Count));
        }
        assert_agreement(&rows, d as f64);
    }
    cfg.emit("rounds_topdown", &rows);
    rows
}

/// Ablations of SP-Cube's design choices (DESIGN.md §8): disable ancestor
/// factorization, disable map-side skew aggregation, and swap the anchored
/// partition-element strategy for the paper-literal one — each against the
/// full algorithm, on a skewed zipf workload.
pub fn ablations(cfg: &ExpConfig) -> Vec<Measurement> {
    use spcube_core::{PartitionStrategy, SpCube, SpCubeConfig};

    let n = cfg.scaled(120_000);
    let rel = datagen::gen_zipf(n, 4, 0xab1);
    let cluster = cluster_for(n, n / K, 150e6);

    let variants: Vec<(&str, SpCubeConfig)> = {
        let base = SpCubeConfig::new(AggSpec::Count);
        let mut no_fact = base.clone();
        no_fact.factorize_ancestors = false;
        let mut no_skew_agg = base.clone();
        no_skew_agg.map_side_skew_aggregation = false;
        let mut literal_partition = base.clone();
        literal_partition.sketch.partition = PartitionStrategy::AllTuples;
        vec![
            ("full", base),
            ("no-factorize", no_fact),
            ("no-map-skew-agg", no_skew_agg),
            ("def4.1-partition", literal_partition),
        ]
    };

    let mut rows = Vec::new();
    for (i, (name, sp_cfg)) in variants.iter().enumerate() {
        let run = SpCube::run(&rel, &cluster, sp_cfg).expect("ablation run failed");
        let cube_round = run.metrics.rounds.last().expect("cube round");
        let inputs = &cube_round.reducer_input_bytes[1..];
        let max = *inputs.iter().max().unwrap_or(&0) as f64;
        let mean = inputs.iter().sum::<u64>() as f64 / inputs.len().max(1) as f64;
        rows.push(Measurement {
            algo: Box::leak(format!("SP/{name}").into_boxed_str()),
            x: i as f64,
            total_seconds: Some(run.metrics.total_seconds()),
            avg_map_seconds: run.metrics.avg_map_time(),
            avg_reduce_seconds: run.metrics.avg_reduce_time(),
            map_output_mb: run.metrics.map_output_bytes() as f64 / (1024.0 * 1024.0),
            sketch_kb: Some(run.sketch_bytes as f64 / 1024.0),
            rounds: run.metrics.round_count(),
            spilled_mb: run.metrics.spilled_bytes() as f64 / (1024.0 * 1024.0),
            imbalance: if mean > 0.0 { max / mean } else { 1.0 },
            cube_groups: run.cube.len(),
            wall_seconds: 0.0,
            task_retries: run.metrics.task_retries(),
            tasks_lost: run.metrics.tasks_lost(),
            re_executions: run.metrics.re_executions(),
            speculative_launches: run.metrics.speculative_launches(),
            wasted_seconds: run.metrics.wasted_seconds(),
            fallback_events: run.metrics.fallback_events(),
            qps: None,
            p50_us: None,
            p99_us: None,
            cache_hit_rate: None,
            degraded_recomputes: None,
            deadline_miss_rate: None,
            hedge_win_rate: None,
            ingest_retries: None,
            scrub_repaired: None,
        });
    }
    // All variants must produce the same cube.
    let sizes: Vec<usize> = rows.iter().map(|m| m.cube_groups).collect();
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "ablations disagree: {sizes:?}"
    );
    cfg.emit("ablations", &rows);
    rows
}

/// Query-serving benchmark (tentpole read path): build a cube with
/// SP-Cube, persist it to the columnar CubeStore, then serve Zipf-skewed
/// query workloads of two skews through the concurrent [`CubeServer`] and
/// report QPS, p50/p99 latency, and segment-cache hit rate per skew. The
/// skewed workload concentrates on a few hot cuboids, so its cache hit
/// rate must be at least as good as the near-uniform one's.
///
/// A third row serves the same skewed workload after a hot segment blob
/// is corrupted in place: queries keep getting answered through the
/// store's degraded recompute, a scrub pass then repairs the blob, and
/// the row records how many recomputes the run cost and how many blobs
/// the scrub repaired.
///
/// [`CubeServer`]: spcube_cubestore::CubeServer
pub fn serve_bench(cfg: &ExpConfig) -> Vec<Measurement> {
    use std::sync::Arc;

    use spcube_common::Mask;
    use spcube_core::{SpCube, SpCubeConfig};
    use spcube_cubestore::{segment_path, BlobStore, CubeStore, ScrubConfig, Scrubber};
    use spcube_mapreduce::Dfs;

    use crate::serving::{run_serving, ServeBenchConfig};

    let n = cfg.scaled(20_000);
    let rel = datagen::gen_zipf(n, 4, 0x5e7);
    let cluster = cluster_for(n, n / K, 150e6);
    let dfs = Arc::new(Dfs::new());
    let stored = SpCube::run_and_store(
        &rel,
        &cluster,
        &SpCubeConfig::new(AggSpec::Count),
        &dfs,
        "serve",
    )
    .expect("build+store failed");
    let store = Arc::new(
        CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "serve")
            .expect("store open failed")
            .with_recovery(rel.clone())
            .with_cache_capacity(4),
    );

    let queries = n.clamp(1_000, 8_000);
    let serve_cfg = ServeBenchConfig::default();
    let measurement =
        |label: &'static str, x: f64, report: &crate::serving::ServingReport| Measurement {
            algo: label,
            x,
            total_seconds: Some(0.0),
            avg_map_seconds: 0.0,
            avg_reduce_seconds: 0.0,
            map_output_mb: 0.0,
            sketch_kb: None,
            rounds: stored.run.metrics.round_count(),
            spilled_mb: 0.0,
            imbalance: 1.0,
            cube_groups: stored.run.cube.len(),
            wall_seconds: report.served as f64 / report.qps.max(f64::MIN_POSITIVE),
            task_retries: 0,
            tasks_lost: 0,
            re_executions: 0,
            speculative_launches: 0,
            wasted_seconds: 0.0,
            fallback_events: 0,
            qps: Some(report.qps),
            p50_us: Some(report.p50_us),
            p99_us: Some(report.p99_us),
            cache_hit_rate: Some(report.cache_hit_rate),
            degraded_recomputes: Some(report.degraded_recomputes),
            deadline_miss_rate: Some(report.deadline_miss_rate),
            hedge_win_rate: Some(report.hedge_win_rate),
            ingest_retries: None,
            scrub_repaired: None,
        };
    let mut rows = Vec::new();
    for skew in [0.5f64, 1.5] {
        let workload = datagen::gen_query_workload(&rel, queries, skew, 0x9e + skew as u64);
        let report = run_serving(Arc::clone(&store), &workload, &serve_cfg);
        let label = if skew < 1.0 {
            "Serve/near-uniform"
        } else {
            "Serve/skewed"
        };
        rows.push(measurement(label, skew, &report));
    }
    let uniform_hit = rows[0].cache_hit_rate.unwrap();
    let skewed_hit = rows[1].cache_hit_rate.unwrap();
    assert!(
        skewed_hit >= uniform_hit - 1e-9,
        "skewed workload should cache at least as well: uniform {uniform_hit:.3} vs skewed {skewed_hit:.3}"
    );

    // Crash/degrade row: corrupt a segment the workload provably queries
    // and serve it with the recovery relation attached. Serving must not
    // fail a single query: the store degrades to a recompute. A scrub
    // pass then repairs exactly that blob, after which a reopened store
    // serves the same workload without recomputing anything.
    let workload = datagen::gen_query_workload(&rel, queries, 1.5, 0x9e + 1);
    let hot = workload
        .iter()
        .find_map(|q| match q {
            datagen::QuerySpec::Point { mask, .. }
            | datagen::QuerySpec::Slice { mask, .. }
            | datagen::QuerySpec::TopK { mask, .. }
            | datagen::QuerySpec::CuboidLen { mask } => (*mask != Mask(0)).then_some(*mask),
            datagen::QuerySpec::RollUp { .. } => None,
        })
        .expect("workload has a direct cuboid query");
    dfs.corrupt_byte(&segment_path("serve", stored.report.generation, 4, hot), 24)
        .expect("corrupting hot segment");
    let reopen = || {
        Arc::new(
            CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "serve")
                .expect("store reopen failed")
                .with_recovery(rel.clone())
                .with_cache_capacity(4),
        )
    };
    let report = run_serving(reopen(), &workload, &serve_cfg);
    assert_eq!(
        report.typed_errors, 0,
        "the corrupted segment failed a query"
    );
    assert!(
        report.degraded_recomputes >= 1,
        "corrupted segment never hit the degrade path"
    );
    let scrub = Scrubber::new(ScrubConfig::default())
        .with_recovery(rel.clone())
        .run(dfs.as_ref(), "serve")
        .expect("scrub failed");
    assert_eq!(
        (scrub.corrupt, scrub.repaired),
        (1, 1),
        "scrub must repair exactly the corrupted blob: {scrub:?}"
    );
    let healed = run_serving(reopen(), &workload, &serve_cfg);
    assert_eq!(
        healed.degraded_recomputes, 0,
        "the scrubbed store still degrades"
    );
    rows.push(Measurement {
        scrub_repaired: Some(scrub.repaired),
        ..measurement("Serve/crash-degrade", 1.5, &report)
    });

    // Chaos rows: the same skewed workload through a latency-spiking blob
    // layer (one segment read in ten stalls for 25ms), cache capacity 1
    // so queries actually hit storage, and only two client threads so
    // service latency rather than queueing dominates — first without
    // hedging, then with it. With ~4% of queries spiked (cache hits
    // skip the blob layer), spikes sit far above the 1% p99 cutoff,
    // while double spikes (primary *and* hedge both stalled, ~0.4%)
    // stay well below it. Unhedged, the p99 *is* the spike. Hedged,
    // the client fires a duplicate attempt once the hedge delay (capped
    // below the spike) expires and races the stalled read, so the
    // hedged p99 must not be worse than the unhedged one.
    {
        use spcube_cubestore::{FaultSchedule, FaultyBlobs};

        let chaos_queries = queries.min(1_000);
        let workload = datagen::gen_query_workload(&rel, chaos_queries, 1.5, 0x9e + 2);
        let spiky = Arc::new(FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            FaultSchedule {
                seed: 0xC405,
                latency_spike_prob: 0.10,
                spike_us: 25_000,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        ));
        let mut p99 = [0.0f64; 2];
        for (i, hedge) in [false, true].into_iter().enumerate() {
            let store = Arc::new(
                CubeStore::open(Arc::clone(&spiky) as Arc<dyn BlobStore>, "serve")
                    .expect("chaos store open failed")
                    .with_recovery(rel.clone())
                    .with_cache_capacity(1),
            );
            let report = run_serving(
                Arc::clone(&store),
                &workload,
                &ServeBenchConfig {
                    hedge,
                    deadline_us: Some(2_000_000),
                    clients: 2,
                    ..serve_cfg.clone()
                },
            );
            assert_eq!(
                report.served + report.typed_errors,
                chaos_queries as u64,
                "chaos run dropped queries"
            );
            if hedge {
                assert!(
                    report.hedges_fired > 0,
                    "hedging never engaged under spikes"
                );
            } else {
                assert_eq!(report.hedges_fired, 0, "unhedged run fired hedges");
            }
            p99[i] = report.p99_us;
            let label = if hedge {
                "Serve/chaos-hedged"
            } else {
                "Serve/chaos-unhedged"
            };
            rows.push(measurement(label, 1.5, &report));
        }
        // The acceptance bar: hedging under injected latency spikes keeps
        // p99 at or below the unhedged p99 (small tolerance for host
        // scheduling noise; when both attempts spike the two runs tie).
        assert!(
            p99[1] <= p99[0] * 1.10 + 2_000.0,
            "hedged p99 {:.0}us worse than unhedged {:.0}us",
            p99[1],
            p99[0]
        );
    }

    cfg.emit("serve_bench", &rows);
    rows
}

/// Incremental-maintenance benchmark (DESIGN.md §13): what does keeping a
/// cube fresh cost, delta ingest versus full rebuild, and what does a
/// growing layer chain do to serving latency?
///
/// Three timing rows first: `Store/full-rebuild` recubes base + batch
/// from scratch and writes a fresh store (the only option before the
/// delta subsystem), `Store/delta-ingest` publishes just the 10% batch as
/// a delta layer on the incremental store, and `Store/ingest-vs-rebuild`
/// records the speedup (its `wall_seconds` column is the ratio). The
/// acceptance bar asserted here: for a batch ≤10% of the base, delta
/// ingest must beat the full rebuild on wall clock.
///
/// Then the serve-under-ingest sweep: one row per ingest step with
/// open-loop queries racing the layer publication — `x` is the step,
/// `rounds` doubles as the live layer count, and p99 shows what readers
/// paid while the chain grew and the compactor folded it back down.
pub fn store_incremental(cfg: &ExpConfig) -> Vec<Measurement> {
    use std::sync::Arc;

    use spcube_common::retry::Backoff;
    use spcube_common::Relation;
    use spcube_cubealg::naive_cube;
    use spcube_cubestore::{
        ingest_batch, write_store, BlobStore, CompactionPolicy, FaultSchedule, FaultyBlobs,
        IngestConfig,
    };
    use spcube_mapreduce::{Dfs, Stopwatch};

    use crate::serving::{run_serving_under_ingest, IngestBenchConfig, ServeBenchConfig};

    let d = 4;
    let spec = AggSpec::Sum;
    let base_n = cfg.scaled(20_000);
    let batch_n = (base_n / 10).max(100);
    // One relation, cut into a base, the timed 10% batch, and four more
    // batches for the serving sweep — so every layer shares hot groups.
    let full = datagen::gen_zipf(base_n + 5 * batch_n, d, 0x1c5);
    let cut = |from: usize, to: usize| {
        let mut part = Relation::empty(full.schema().clone());
        for t in &full.tuples()[from..to] {
            part.push(t.clone()).expect("cut row");
        }
        part
    };
    let base = cut(0, base_n);
    let batch = cut(base_n, base_n + batch_n);

    let dfs: Arc<dyn BlobStore> = Arc::new(Dfs::new());
    ingest_batch(dfs.as_ref(), "inc", &base, spec).expect("seed base layer");

    // The pre-delta option: recube everything seen so far and write a
    // fresh store. Timed over cube + persist, the work a refresh costs.
    let t0 = Stopwatch::start();
    let rebuilt = naive_cube(&cut(0, base_n + batch_n), spec);
    write_store(dfs.as_ref(), "rebuild", &rebuilt, d, spec, 1).expect("full rebuild");
    let rebuild_wall = t0.seconds();

    let t0 = Stopwatch::start();
    let ingest_report = ingest_batch(dfs.as_ref(), "inc", &batch, spec).expect("delta ingest");
    let ingest_wall = t0.seconds();
    assert!(
        ingest_wall < rebuild_wall,
        "delta ingest of a {batch_n}-row batch ({ingest_wall:.3}s) must beat a \
         {}-row full rebuild ({rebuild_wall:.3}s)",
        base_n + batch_n
    );

    let batch_pct = 100.0 * batch_n as f64 / base_n as f64;
    let timing_row = |label: &'static str, wall: f64, groups: usize| Measurement {
        algo: label,
        x: batch_pct,
        total_seconds: Some(0.0),
        avg_map_seconds: 0.0,
        avg_reduce_seconds: 0.0,
        map_output_mb: 0.0,
        sketch_kb: None,
        rounds: 1,
        spilled_mb: 0.0,
        imbalance: 1.0,
        cube_groups: groups,
        wall_seconds: wall,
        task_retries: 0,
        tasks_lost: 0,
        re_executions: 0,
        speculative_launches: 0,
        wasted_seconds: 0.0,
        fallback_events: 0,
        qps: None,
        p50_us: None,
        p99_us: None,
        cache_hit_rate: None,
        degraded_recomputes: None,
        deadline_miss_rate: None,
        hedge_win_rate: None,
        ingest_retries: None,
        scrub_repaired: None,
    };
    let mut rows = vec![
        timing_row("Store/full-rebuild", rebuild_wall, rebuilt.len()),
        timing_row(
            "Store/delta-ingest",
            ingest_wall,
            ingest_report.rows as usize,
        ),
        timing_row(
            "Store/ingest-vs-rebuild",
            rebuild_wall / ingest_wall.max(f64::MIN_POSITIVE),
            rebuilt.len(),
        ),
    ];

    // Serving while ingesting: four more batches land behind an open-loop
    // query stream; the compactor holds the chain at three layers.
    let batches: Vec<Relation> = (1..5)
        .map(|i| cut(base_n + i * batch_n, base_n + (i + 1) * batch_n))
        .collect();
    let queries = (base_n / 20).clamp(200, 2_000);
    let workload = datagen::gen_query_workload(&base, queries * batches.len(), 1.5, 0x1c6);
    let reports = run_serving_under_ingest(
        &dfs,
        "inc",
        &batches,
        &workload,
        &IngestBenchConfig {
            serve: ServeBenchConfig::default(),
            queries_per_step: queries,
            spec,
            policy: Some(CompactionPolicy { max_layers: 3 }),
            ingest: IngestConfig::default(),
            scrub: false,
        },
    )
    .expect("serve-under-ingest sweep");
    assert!(
        reports.iter().any(|r| r.compacted),
        "the sweep never exercised the compactor"
    );
    for r in &reports {
        assert_eq!(
            r.serving.served + r.serving.typed_errors,
            queries as u64,
            "step {} dropped queries",
            r.step
        );
        rows.push(Measurement {
            algo: "Store/serve-under-ingest",
            x: r.step as f64,
            rounds: r.layers,
            wall_seconds: r.ingest_seconds,
            cube_groups: r.ingested_rows as usize,
            qps: Some(r.serving.qps),
            p50_us: Some(r.serving.p50_us),
            p99_us: Some(r.serving.p99_us),
            cache_hit_rate: Some(r.serving.cache_hit_rate),
            degraded_recomputes: Some(r.serving.degraded_recomputes),
            deadline_miss_rate: Some(r.serving.deadline_miss_rate),
            hedge_win_rate: Some(r.serving.hedge_win_rate),
            ..timing_row("Store/serve-under-ingest", 0.0, 0)
        });
    }

    // The same sweep on a write-chaotic blob layer: seeded put faults and
    // torn staged writes hit every layer publication, the ingest session
    // retries through them, and a repairing scrub after each step proves
    // the live chain readers see stayed byte-clean (`scrub_fix` must read
    // 0 — that is the claim, not a hope).
    let faulty: Arc<dyn BlobStore> = Arc::new(FaultyBlobs::new(
        Arc::clone(&dfs),
        FaultSchedule {
            seed: 0x1c7,
            put_transient_fail_prob: 0.08,
            torn_write_prob: 0.02,
            only_matching: Some("chaos-inc/".to_string()),
            ..FaultSchedule::default()
        },
    ));
    // Seed the base layer through the clean layer — the chaos schedule is
    // aimed at the sweep's publications, not the fixture setup.
    ingest_batch(dfs.as_ref(), "chaos-inc", &base, spec).expect("seed chaos base layer");
    let chaos_reports = run_serving_under_ingest(
        &faulty,
        "chaos-inc",
        &batches,
        &workload,
        &IngestBenchConfig {
            serve: ServeBenchConfig::default(),
            queries_per_step: queries,
            spec,
            policy: Some(CompactionPolicy { max_layers: 3 }),
            ingest: IngestConfig {
                max_attempts: 50,
                backoff: Backoff::Fixed(0.0005),
                ..IngestConfig::default()
            },
            scrub: true,
        },
    )
    .expect("chaos-ingest sweep");
    for r in &chaos_reports {
        assert_eq!(
            r.scrub_repaired, 0,
            "write chaos leaked corruption onto the live chain at step {}",
            r.step
        );
        rows.push(Measurement {
            algo: "Store/chaos-ingest",
            x: r.step as f64,
            rounds: r.layers,
            wall_seconds: r.ingest_seconds,
            cube_groups: r.ingested_rows as usize,
            qps: Some(r.serving.qps),
            p50_us: Some(r.serving.p50_us),
            p99_us: Some(r.serving.p99_us),
            cache_hit_rate: Some(r.serving.cache_hit_rate),
            degraded_recomputes: Some(r.serving.degraded_recomputes),
            deadline_miss_rate: Some(r.serving.deadline_miss_rate),
            hedge_win_rate: Some(r.serving.hedge_win_rate),
            ingest_retries: Some(r.ingest_retries),
            scrub_repaired: Some(r.scrub_repaired),
            ..timing_row("Store/chaos-ingest", 0.0, 0)
        });
    }
    cfg.emit("store_incremental", &rows);
    rows
}

/// Profiled serving experiment (DESIGN.md §16): the same store served
/// clean and under read chaos, but through the flight-recorder path, so
/// the p50/p99 latency of each run decomposes into queue-wait / blob-IO /
/// decode / merge / finalize columns. The chaos row's per-phase p99 is
/// where injected latency spikes and retries actually show up — blob-IO,
/// not queue — and the tail sampler persists a complete trace for every
/// errored or slow query (`kept` column).
pub fn serve_profile(cfg: &ExpConfig) -> Vec<(String, crate::serving::PhaseProfile)> {
    use std::sync::Arc;

    use spcube_core::{SpCube, SpCubeConfig};
    use spcube_cubestore::{BlobStore, CubeStore, FaultSchedule, FaultyBlobs};
    use spcube_mapreduce::Dfs;
    use spcube_obs::ObsHandle;

    use crate::report::{phase_table, write_phase_csv};
    use crate::serving::{run_serving, ServeBenchConfig};

    let n = cfg.scaled(10_000);
    let rel = datagen::gen_zipf(n, 4, 0x5e7);
    let cluster = cluster_for(n, n / K, 150e6);
    let dfs = Arc::new(Dfs::new());
    SpCube::run_and_store(
        &rel,
        &cluster,
        &SpCubeConfig::new(AggSpec::Count),
        &dfs,
        "profile",
    )
    .expect("build+store failed");
    let queries = n.clamp(500, 4_000);
    let workload = datagen::gen_query_workload(&rel, queries, 1.5, 0x11);
    let serve_cfg = ServeBenchConfig {
        clients: 2,
        profile: true,
        ..ServeBenchConfig::default()
    };

    let mut rows = Vec::new();
    // Clean run: a wall-clock obs handle per run keeps each run's
    // exemplars and persisted traces separate.
    let clean_obs = ObsHandle::wall();
    let store = Arc::new(
        CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "profile")
            .expect("store open failed")
            .with_cache_capacity(4)
            .with_obs(clean_obs),
    );
    let report = run_serving(Arc::clone(&store), &workload, &serve_cfg);
    assert_eq!(report.served + report.typed_errors, queries as u64);
    rows.push((
        "clean".to_string(),
        report.phases.expect("profiled run reports phases"),
    ));

    // Chaos run: latency spikes and transient read failures on segment
    // blobs, tiny cache so storage is actually exercised.
    let chaos_obs = ObsHandle::wall();
    let spiky = Arc::new(
        FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            FaultSchedule {
                seed: 0xF11,
                transient_fail_prob: 0.05,
                latency_spike_prob: 0.10,
                spike_us: 20_000,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        )
        .with_obs(chaos_obs.clone()),
    );
    let chaos_store = Arc::new(
        CubeStore::open(Arc::clone(&spiky) as Arc<dyn BlobStore>, "profile")
            .expect("chaos store open failed")
            .with_recovery(rel.clone())
            .with_cache_capacity(1)
            .with_obs(chaos_obs.clone()),
    );
    let report = run_serving(Arc::clone(&chaos_store), &workload, &serve_cfg);
    assert_eq!(report.served + report.typed_errors, queries as u64);
    let chaos_phases = report.phases.expect("profiled chaos run reports phases");
    rows.push(("chaos".to_string(), chaos_phases));
    // Under spiking storage the blob-IO p99 must dominate the queue p99:
    // phase attribution pointing anywhere else would be mislabeling.
    assert!(
        chaos_phases.io_p99_us > chaos_phases.queue_p50_us,
        "chaos blob-IO p99 implausibly small: {chaos_phases:?}"
    );

    if cfg.verbose {
        println!("{}", phase_table("serve_profile", &rows));
    }
    write_phase_csv(cfg.out_dir.join("serve_profile_phases.csv"), &rows)
        .expect("phase CSV write failed");
    rows
}

/// Run every experiment.
pub fn all(cfg: &ExpConfig) {
    fig4(cfg);
    fig5(cfg);
    fig6(cfg);
    fig7(cfg);
    fig8(cfg);
    naive_traffic(cfg);
    traffic_bounds(cfg);
    balance(cfg);
    ablations(cfg);
    rounds(cfg);
    serve_bench(cfg);
    serve_profile(cfg);
    store_incremental(cfg);
}
