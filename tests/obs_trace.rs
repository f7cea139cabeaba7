//! End-to-end checks for the observability layer: trace determinism under
//! the mock clock, one flight trace per SP-Cube round, and the paper's
//! balance claim read straight off the per-reducer telemetry.

use sp_cube_repro::agg::AggSpec;
use sp_cube_repro::baselines::naive_mr_cube;
use sp_cube_repro::common::{Relation, Schema, Value};
use sp_cube_repro::core::{SpCube, SpCubeConfig, SpCubeRun};
use sp_cube_repro::datagen;
use sp_cube_repro::mapreduce::ClusterConfig;
use sp_cube_repro::obs::{names, ObsHandle, SpanNode, SpanTree};

/// One instrumented SP-Cube run on a fixed binomial workload.
fn traced_run(obs: &ObsHandle) -> SpCubeRun {
    let rel = datagen::gen_binomial(4_000, 3, 0.4, 0xb1);
    let cluster = ClusterConfig::new(8, 64).with_obs(obs.clone());
    SpCube::run(&rel, &cluster, &SpCubeConfig::new(AggSpec::Count)).expect("SP-Cube run failed")
}

/// The value of `key` among a span's labels or attrs.
fn pair<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The one span named `name` in a round's trace.
fn only(tree: &SpanTree, name: names::Name) -> &SpanNode {
    let spans = tree.spans_named(name);
    assert_eq!(spans.len(), 1, "one {name} per round");
    spans[0]
}

/// Two identical runs under the mock clock must produce byte-identical
/// traces *and* metric snapshots — the determinism acceptance criterion.
#[test]
fn mock_clock_traces_are_byte_identical() {
    let a = ObsHandle::mock();
    traced_run(&a);
    let b = ObsHandle::mock();
    traced_run(&b);
    let trace_a = a.flight_jsonl();
    assert!(
        !trace_a.is_empty(),
        "instrumented run must emit trace records"
    );
    assert_eq!(trace_a, b.flight_jsonl(), "traces diverged under MockClock");
    assert_eq!(
        a.prometheus(),
        b.prometheus(),
        "metric snapshots diverged under MockClock"
    );
}

/// Each round (sketch + cube) is one kept flight trace that validates:
/// its root carries the job, the reducer count and the simulated
/// seconds, and its map and reduce phase spans tile it. Per-task
/// simulated seconds live in the run's metrics.
#[test]
fn span_tree_covers_both_rounds_with_tasks() {
    let obs = ObsHandle::mock();
    let run = traced_run(&obs);
    let (traces, warnings) = SpanTree::parse_per_trace(&obs.flight_jsonl()).expect("parse");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(traces.len(), 2, "SP-Cube is a two-round algorithm");
    for ((_, tree), round) in traces.iter().zip(&run.metrics.rounds) {
        if let Err(problems) = tree.validate() {
            panic!("trace failed validation: {problems:?}");
        }
        let root = only(tree, names::ENGINE_ROUND);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(pair(&root.labels, "job"), Some(round.name.as_str()));
        let reducers = round.reduce_tasks.to_string();
        assert_eq!(pair(&root.labels, "reducers"), Some(reducers.as_str()));
        let sim_s = format!("{:.6}", round.simulated_seconds);
        assert_eq!(pair(&root.attrs, "sim_s"), Some(sim_s.as_str()));
        let (map, reduce) = (
            only(tree, names::ENGINE_PHASE_MAP),
            only(tree, names::ENGINE_PHASE_REDUCE),
        );
        assert_eq!(root.children.len(), 2, "the phases are the root's children");
        assert_eq!(map.start_us, root.start_us, "map opens the round");
        assert_eq!(map.end_us, Some(reduce.start_us), "reduce follows map");
        assert_eq!(reduce.end_us, root.end_us, "reduce closes the round");
        assert_eq!(round.map_times.len(), round.map_tasks);
        assert_eq!(round.reduce_times.len(), round.reduce_tasks);
    }
    let jobs: Vec<&str> = run.metrics.rounds.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(jobs, ["sp-sketch", "sp-cube"]);
    let rendered = SpanTree::parse_jsonl(&obs.flight_jsonl())
        .expect("parse")
        .render();
    assert!(
        rendered.contains("slowest path"),
        "render must flag the slowest path:\n{rendered}"
    );
}

/// A build keeps its traces without touching the serving sampler: no
/// latency sample, no exemplar, no kept/dropped counter.
#[test]
fn a_build_alone_leaves_the_tail_sampler_untouched() {
    let obs = ObsHandle::mock();
    traced_run(&obs);
    assert_eq!(obs.flight_kept().len(), 2, "both rounds kept");
    assert!(!obs.prometheus().contains("store_flight"));
    assert!(obs.flight_exemplars().is_empty());
    assert_eq!(obs.flight_latency_quantile(0.99), 0.0);
}

/// Half the input planted in one hot group: naive hashing piles it onto
/// one reducer, SP-Cube routes it to the skew reducer and splits it.
fn planted_skew_relation() -> Relation {
    let mut rel = Relation::empty(Schema::synthetic(3));
    for i in 0..3_000i64 {
        let (a, b, c) = if i % 2 == 0 {
            (7, 7, 7)
        } else {
            (i % 40, (i * 13 + 5) % 30, (i * 7 + 1) % 50)
        };
        rel.push_row(vec![Value::Int(a), Value::Int(b), Value::Int(c)], 1.0);
    }
    rel
}

fn max_over_mean(bytes: &[u64]) -> f64 {
    let max = bytes.iter().copied().max().unwrap_or(0) as f64;
    let mean = bytes.iter().map(|&b| b as f64).sum::<f64>() / bytes.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// The balance claim, read from the telemetry itself: under planted skew,
/// SP-Cube's reducer imbalance gauge is strictly lower than the naive
/// algorithm's max/mean on the same workload and cluster.
#[test]
fn spcube_imbalance_gauge_beats_naive_under_planted_skew() {
    let rel = planted_skew_relation();
    let obs = ObsHandle::mock();
    let cluster = ClusterConfig::new(8, 64).with_obs(obs.clone());
    let run = SpCube::run(&rel, &cluster, &SpCubeConfig::new(AggSpec::Count))
        .expect("SP-Cube run failed");
    assert!(!run.degraded, "skew test needs the sketch-guided plan");
    let sp_imbalance = obs
        .gauge_value(names::SPCUBE_REDUCER_IMBALANCE, &[])
        .expect("cube round must publish the imbalance gauge");

    let naive =
        naive_mr_cube(&rel, &ClusterConfig::new(8, 64), AggSpec::Count).expect("naive run failed");
    // Naive's dominant round: the one that shuffles the most bytes.
    let naive_imbalance = naive
        .metrics
        .rounds
        .iter()
        .max_by_key(|r| r.reducer_input_bytes.iter().sum::<u64>())
        .map(|r| max_over_mean(&r.reducer_input_bytes))
        .expect("naive run has at least one round");

    assert!(
        sp_imbalance < naive_imbalance,
        "planted skew: SP-Cube imbalance {sp_imbalance:.3} must be strictly \
         below naive's {naive_imbalance:.3}"
    );

    // The gauge is derived from the same per-reducer loads that are also
    // exported individually — every reducer must have a load gauge.
    let prom = obs.prometheus();
    assert!(
        prom.contains("spcube_reducer_load"),
        "per-reducer load gauges missing from snapshot:\n{prom}"
    );
}
