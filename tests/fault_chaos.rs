//! Chaos matrix: every fault scenario the execution layer models must be
//! invisible in the *answer*. Machine loss mid-round, flaky tasks, corrupt
//! sketches on the DFS, stragglers with speculative backups — in every case
//! the SP-Cube output must equal the sequential reference bit-for-bit
//! (within float tolerance), and the recovery counters must show the fault
//! was actually exercised, not silently skipped.

use proptest::prelude::*;

use sp_cube_repro::agg::AggSpec;
use sp_cube_repro::common::{Relation, Schema, Value};
use sp_cube_repro::core::{SpCube, SpCubeConfig, SpCubeRun};
use sp_cube_repro::cubealg::naive_cube;
use sp_cube_repro::mapreduce::{ClusterConfig, Dfs, Phase};

/// A deterministic mid-sized relation: 3 dims, clustered small domains so
/// every cuboid has shared groups, plus a hot key so the skew path runs.
fn chaos_relation() -> Relation {
    let mut rel = Relation::empty(Schema::synthetic(3));
    for i in 0..240i64 {
        let (a, b, c) = if i % 3 == 0 {
            (0, 0, 0) // hot group: a third of the input
        } else {
            (i % 5, (i * 7 + 3) % 4, (i * 11 + 1) % 6)
        };
        rel.push_row(
            vec![Value::Int(a), Value::Int(b), Value::Int(c)],
            ((i % 13) - 6) as f64,
        );
    }
    rel
}

/// Small cluster with small task memory so each phase has plenty of tasks
/// for faults to land on.
fn chaos_cluster() -> ClusterConfig {
    ClusterConfig::new(4, 16)
}

/// Run SP-Cube under `cluster`, optionally corrupting the sketch broadcast,
/// and assert the cube equals the sequential reference exactly.
fn run_and_check(cluster: &ClusterConfig, corrupt_sketch: bool, label: &str) -> SpCubeRun {
    let rel = chaos_relation();
    let cfg = SpCubeConfig::new(AggSpec::Sum);
    let dfs = Dfs::new();
    if corrupt_sketch {
        dfs.corrupt_next_write("sp-sketch");
    }
    let run = SpCube::run_on(&rel, cluster, &cfg, &dfs)
        .unwrap_or_else(|e| panic!("{label}: SP-Cube failed under faults: {e}"));
    let expect = naive_cube(&rel, AggSpec::Sum);
    assert!(
        run.cube.approx_eq(&expect, 1e-9),
        "{label}: cube diverged from sequential reference: {:?}",
        run.cube.diff(&expect, 1e-9, 5)
    );
    run
}

#[test]
fn baseline_no_faults_no_recovery() {
    let run = run_and_check(&chaos_cluster(), false, "baseline");
    assert!(!run.degraded);
    assert!(
        !run.metrics.saw_recovery(),
        "fault-free run must report zero recovery"
    );
    assert_eq!(run.metrics.fallback_events(), 0);
}

#[test]
fn machine_loss_during_map() {
    let cluster = chaos_cluster().with_machine_failure(Phase::Map, 1);
    let run = run_and_check(&cluster, false, "map loss");
    assert!(
        run.metrics.tasks_lost() > 0,
        "the dead machine held map tasks"
    );
    assert!(
        run.metrics.re_executions() > 0,
        "lost map output must be recomputed"
    );
    assert!(
        run.metrics.wasted_seconds() > 0.0,
        "lost work is charged as waste"
    );
    assert!(!run.degraded, "machine loss is recovered, not degraded");
}

#[test]
fn machine_loss_during_reduce() {
    let cluster = chaos_cluster().with_machine_failure(Phase::Reduce, 0);
    let run = run_and_check(&cluster, false, "reduce loss");
    assert!(run.metrics.tasks_lost() > 0);
    assert!(
        run.metrics.re_executions() > 0,
        "a reduce-phase loss re-executes the dead machine's map output"
    );
    assert!(run.metrics.saw_recovery());
    assert!(!run.degraded);
}

#[test]
fn flaky_tasks_are_retried_to_success() {
    let mut cluster = chaos_cluster().with_task_failures(0.3);
    // p=0.3 over many tasks: give the retry budget room so no task
    // deterministically exhausts it.
    cluster.retry.max_attempts = 12;
    let run = run_and_check(&cluster, false, "flaky p=0.3");
    assert!(
        run.metrics.task_retries() > 0,
        "p=0.3 across both rounds must retry"
    );
    assert!(
        run.metrics.wasted_seconds() > 0.0,
        "failed attempts are charged"
    );
    assert!(!run.degraded);
}

#[test]
fn corrupt_sketch_degrades_not_dies() {
    let obs = sp_cube_repro::obs::ObsHandle::mock();
    let run = run_and_check(
        &chaos_cluster().with_obs(obs.clone()),
        true,
        "corrupt sketch",
    );
    assert!(
        run.degraded,
        "a corrupt sketch must trigger the fallback plan"
    );
    assert_eq!(run.metrics.fallback_events(), 1);
    let degraded = sp_cube_repro::obs::names::SPCUBE_DEGRADED;
    assert_eq!(obs.counter_value(degraded, &[]), Some(1));
    assert_eq!(
        run.metrics.round_count(),
        2,
        "sketch round ran (and was discarded), cube round ran degraded"
    );
}

#[test]
fn stragglers_with_speculative_backups() {
    // Speculation detects stragglers against the phase *median*, so they
    // must be a minority: many tasks, low straggle probability.
    let slow = ClusterConfig::new(16, 16).with_stragglers(0.2, 10.0);
    let fast = slow.clone().with_speculation(1.5);
    let slow_run = run_and_check(&slow, false, "stragglers, no speculation");
    let fast_run = run_and_check(&fast, false, "stragglers + speculation");
    assert!(
        fast_run.metrics.speculative_launches() > 0,
        "backups must launch"
    );
    assert!(
        fast_run.metrics.wasted_seconds() > 0.0,
        "losing attempts are waste"
    );
    assert!(
        fast_run.metrics.total_seconds() < slow_run.metrics.total_seconds(),
        "speculation must beat the stragglers: {} vs {}",
        fast_run.metrics.total_seconds(),
        slow_run.metrics.total_seconds()
    );
}

#[test]
fn everything_at_once() {
    // The full storm: flaky tasks, stragglers with backups, a machine lost
    // in each phase, and a corrupt sketch forcing degraded mode.
    let mut cluster = chaos_cluster()
        .with_task_failures(0.2)
        .with_stragglers(0.3, 8.0)
        .with_speculation(1.5)
        .with_machine_failure(Phase::Map, 2)
        .with_machine_failure(Phase::Reduce, 0);
    cluster.retry.max_attempts = 12;
    let run = run_and_check(&cluster, true, "everything at once");
    assert!(run.degraded);
    assert_eq!(run.metrics.fallback_events(), 1);
    assert!(run.metrics.task_retries() > 0);
    assert!(run.metrics.tasks_lost() > 0);
    assert!(run.metrics.re_executions() > 0);
    assert!(run.metrics.speculative_launches() > 0);
    assert!(run.metrics.wasted_seconds() > 0.0);
}

#[test]
fn trace_events_match_recovery_counters_exactly() {
    use sp_cube_repro::obs::{names, ObsHandle, SpanTree};
    // Flaky tasks, stragglers with backups, and a machine loss — every
    // recovery action must appear in the trace exactly as often as the
    // JobMetrics counters say it happened.
    let obs = ObsHandle::mock();
    let mut cluster = chaos_cluster()
        .with_task_failures(0.3)
        .with_stragglers(0.3, 6.0)
        .with_speculation(1.5)
        .with_machine_failure(Phase::Map, 1)
        .with_obs(obs.clone());
    cluster.retry.max_attempts = 12;
    let run = run_and_check(&cluster, false, "traced chaos");
    assert!(run.metrics.task_retries() > 0, "scenario must retry");
    assert!(
        run.metrics.speculative_launches() > 0,
        "scenario must speculate"
    );

    let tree = SpanTree::parse_jsonl(&obs.flight_jsonl()).expect("trace must parse");
    if let Err(problems) = tree.validate() {
        panic!("trace failed validation: {problems:?}");
    }
    assert_eq!(
        tree.events_named(names::ENGINE_TASK_RETRY) as u64,
        run.metrics.task_retries(),
        "every retry increments the counter AND emits a trace event"
    );
    assert_eq!(
        tree.events_named(names::ENGINE_TASK_SPECULATE) as u64,
        run.metrics.speculative_launches(),
        "every speculative backup increments the counter AND emits a trace event"
    );
    assert!(
        tree.events_named(names::ENGINE_MACHINE_LOST) >= 1,
        "the planted machine loss must be visible in the trace"
    );
    // Every recovery event hangs off its phase span, labelled with the
    // task or machine it hit.
    let phases = [names::ENGINE_PHASE_MAP, names::ENGINE_PHASE_REDUCE].map(|n| n.as_str());
    for node in &tree.nodes {
        for ev in &node.events {
            assert!(
                phases.contains(&node.name.as_str()),
                "{} under {}",
                ev.name,
                node.name
            );
            let lost = ev.name == names::ENGINE_MACHINE_LOST.as_str();
            let key = if lost { "machine" } else { "task" };
            assert!(ev.labels.len() == 1 && ev.labels[0].0 == key, "{ev:?}");
        }
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let mut cluster = chaos_cluster()
        .with_task_failures(0.3)
        .with_stragglers(0.3, 6.0)
        .with_speculation(1.5)
        .with_machine_failure(Phase::Map, 1);
    cluster.retry.max_attempts = 12;
    let a = run_and_check(&cluster, false, "determinism A");
    let b = run_and_check(&cluster, false, "determinism B");
    assert_eq!(a.metrics.task_retries(), b.metrics.task_retries());
    assert_eq!(a.metrics.tasks_lost(), b.metrics.tasks_lost());
    assert_eq!(
        a.metrics.speculative_launches(),
        b.metrics.speculative_launches()
    );
    assert!((a.metrics.total_seconds() - b.metrics.total_seconds()).abs() < 1e-9);
}

/// Strategy shared with `proptest_cube`: small clustered relations where
/// groups collide across tuples.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=4, 1usize..=60).prop_flat_map(|(d, n)| {
        let tuple = proptest::collection::vec(0i64..4, d);
        proptest::collection::vec((tuple, -10i64..10), n).prop_map(move |rows| {
            let mut rel = Relation::empty(Schema::synthetic(d));
            for (dims, m) in rows {
                rel.push_row(dims.into_iter().map(Value::Int).collect(), m as f64);
            }
            rel
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any relation, any fault scenario: the cube is still exact.
    #[test]
    fn faults_never_change_the_answer(
        rel in arb_relation(),
        k in 2usize..6,
        seed in 0u64..1000,
    ) {
        let expect = naive_cube(&rel, AggSpec::Sum);
        let cfg = SpCubeConfig::new(AggSpec::Sum);

        let base = ClusterConfig::new(k, 8).with_fault_seed(seed);
        let mut flaky = base.clone().with_task_failures(0.3);
        flaky.retry.max_attempts = 12;
        let scenarios: Vec<(&str, ClusterConfig, bool)> = vec![
            ("map loss", base.clone().with_machine_failure(Phase::Map, 1), false),
            ("reduce loss", base.clone().with_machine_failure(Phase::Reduce, 1), false),
            ("flaky", flaky, false),
            ("corrupt sketch", base.clone(), true),
            (
                "stragglers+spec",
                base.clone().with_stragglers(0.4, 10.0).with_speculation(1.5),
                false,
            ),
        ];

        for (name, cluster, corrupt) in scenarios {
            let dfs = Dfs::new();
            if corrupt {
                dfs.corrupt_next_write("sp-sketch");
            }
            let run = SpCube::run_on(&rel, &cluster, &cfg, &dfs)
                .unwrap_or_else(|e| panic!("{name}: failed: {e}"));
            prop_assert!(
                run.cube.approx_eq(&expect, 1e-9),
                "{name} (k={k} seed={seed}): {:?}",
                run.cube.diff(&expect, 1e-9, 3)
            );
            if corrupt {
                prop_assert!(run.degraded);
                prop_assert_eq!(run.metrics.fallback_events(), 1);
            }
        }
    }
}
