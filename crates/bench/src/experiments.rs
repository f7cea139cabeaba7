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
}
