//! Crash-consistency matrix of the generational CubeStore commit protocol.
//!
//! The contract under test: a store write interrupted at ANY point — after
//! any mutating blob operation, or mid-write with a torn fragment of any
//! prefix length, in both non-atomic (`Publish`) and atomic-rename
//! (`Stage`) media models — leaves the store openable without panic, and
//! every one of the 2^d cuboids answers bit-identically to either the
//! complete old generation or the complete new one. Never a blend, never
//! a wrong row, never a silent degrade.
//!
//! The crash schedules are derived by [`schedules`] from the writes a
//! [`FaultyBlobs`] with the default schedule logged during a clean run:
//! one boundary plan per operation plus torn-byte offsets inside every put
//! (dense — every 256 bytes — inside manifest blobs, whose integrity is
//! the commit point itself). Every plan is swept by a wrapper whose
//! schedule carries it as its crash; a failure names the plan so it
//! reproduces exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::common::{Error, Group, Mask, Relation, Schema, Value};
use sp_cube_repro::cubealg::{buc, BucConfig, Cube, CubeQuery, CubeRead};
use sp_cube_repro::cubestore::{
    manifest_path, schedules, segment_path, write_store, BlobStore, CrashPlan, CubeStore, DirBlobs,
    FaultSchedule, FaultyBlobs,
};
use sp_cube_repro::datagen;
use sp_cube_repro::mapreduce::Dfs;

/// Ground truth for one cube: every cuboid's full row set, in the same
/// shape [`CubeRead::cuboid_rows`] returns.
type Truth = BTreeMap<Mask, Vec<(Group, AggOutput)>>;

fn truth_of(cube: &Cube, d: usize) -> Truth {
    let q = CubeQuery::new(cube, d);
    Mask::full(d)
        .subsets()
        .map(|mask| {
            let rows = q
                .cuboid(mask)
                .iter()
                .map(|(g, v)| ((*g).clone(), (*v).clone()))
                .collect();
            (mask, rows)
        })
        .collect()
}

/// A wrapper over `inner` that crashes per `plan`.
fn crash_at(inner: Arc<dyn BlobStore>, plan: CrashPlan) -> FaultyBlobs {
    FaultyBlobs::new(
        inner,
        FaultSchedule {
            crash: Some(plan),
            ..FaultSchedule::default()
        },
    )
}

/// Assert `store` answers every cuboid bit-identically to `want`.
fn assert_matches(store: &CubeStore, want: &Truth, plan: CrashPlan) {
    for (mask, rows) in want {
        let got = store
            .cuboid_rows(*mask)
            .unwrap_or_else(|e| panic!("plan {plan:?}: cuboid {mask} unreadable: {e}"));
        assert_eq!(&got, rows, "plan {plan:?}: cuboid {mask} differs");
    }
}

/// Run one armed write of `cube` against a fork of `base`, then reopen and
/// check the store is exactly one of the expected generations. Returns the
/// generation the reopen chose.
fn crash_and_reopen(
    base: &Dfs,
    plan: CrashPlan,
    cube: &Cube,
    d: usize,
    expect: &BTreeMap<u64, &Truth>,
) -> u64 {
    let fork = Arc::new(base.fork());
    let armed = crash_at(Arc::clone(&fork) as Arc<dyn BlobStore>, plan);
    let err = match write_store(&armed, "c", cube, d, AggSpec::Count, 1) {
        Ok(_) => panic!("plan {plan:?}: armed write did not crash"),
        Err(e) => e,
    };
    assert!(
        matches!(err, Error::Injected(_)),
        "plan {plan:?}: crash surfaced as {err}, not an injected fault"
    );
    assert!(
        !err.is_data_loss(),
        "plan {plan:?}: injected crash classified as data loss"
    );
    assert_eq!(armed.stats().crash, 1, "plan {plan:?}: crash not counted");

    let store = CubeStore::open(fork as Arc<dyn BlobStore>, "c")
        .unwrap_or_else(|e| panic!("plan {plan:?}: reopen after crash failed: {e}"));
    let generation = store.generation();
    let want = expect.get(&generation).unwrap_or_else(|| {
        panic!(
            "plan {plan:?}: reopened generation {generation}, expected one of {:?}",
            expect.keys().collect::<Vec<_>>()
        )
    });
    assert_matches(&store, want, plan);
    assert_eq!(
        store.stats().degraded_recomputes,
        0,
        "plan {plan:?}: a sealed generation must serve from segments"
    );
    generation
}

/// Record a clean write of `cube` over a fork of `base` and derive the
/// crash schedules from its operation log.
fn plans_for(base: &Dfs, cube: &Cube, d: usize) -> Vec<CrashPlan> {
    let fork = Arc::new(base.fork());
    let recorder = FaultyBlobs::new(fork as Arc<dyn BlobStore>, FaultSchedule::default());
    write_store(&recorder, "c", cube, d, AggSpec::Count, 1).expect("clean recording write");
    let writes = recorder.writes();
    assert!(!writes.is_empty(), "a store write must log operations");
    schedules(&writes)
}

/// The tentpole sweep: generation 1 is committed, generation 2 crashes at
/// every derived crashpoint. Every reopen must be a complete generation 1
/// or a complete generation 2, and both outcomes must actually occur
/// across the sweep (else the schedule missed the commit point).
#[test]
fn every_crashpoint_of_a_rewrite_reopens_to_a_complete_generation() {
    let d = 3;
    let rel_a = datagen::gen_zipf(160, d, 0xc1);
    let rel_b = datagen::gen_binomial(160, d, 0.4, 0xc2);
    let cube_a = buc(&rel_a, AggSpec::Count, &BucConfig::default());
    let cube_b = buc(&rel_b, AggSpec::Count, &BucConfig::default());
    let truth_a = truth_of(&cube_a, d);
    let truth_b = truth_of(&cube_b, d);

    let base = Dfs::new();
    write_store(&base, "c", &cube_a, d, AggSpec::Count, 1).expect("seed generation 1");

    let plans = plans_for(&base, &cube_b, d);
    assert!(plans.len() > 20, "suspiciously thin schedule: {plans:?}");
    let expect: BTreeMap<u64, &Truth> = [(1, &truth_a), (2, &truth_b)].into();
    let mut seen = BTreeMap::new();
    for plan in plans {
        let generation = crash_and_reopen(&base, plan, &cube_b, d, &expect);
        *seen.entry(generation).or_insert(0u64) += 1;
    }
    assert!(
        seen.contains_key(&1) && seen.contains_key(&2),
        "sweep must cross the commit point: outcomes {seen:?}"
    );
}

/// Same sweep one rewrite later, so the crashing write's operation log
/// includes the garbage collection of generation 1. A crash mid-GC must
/// never drag the reopen below generation 2.
#[test]
fn crashes_during_garbage_collection_never_lose_the_committed_generation() {
    let d = 2;
    let rel_a = datagen::gen_zipf(80, d, 0xd1);
    let rel_b = datagen::gen_zipf(80, d, 0xd2);
    let rel_c = datagen::gen_binomial(80, d, 0.5, 0xd3);
    let cube_a = buc(&rel_a, AggSpec::Count, &BucConfig::default());
    let cube_b = buc(&rel_b, AggSpec::Count, &BucConfig::default());
    let cube_c = buc(&rel_c, AggSpec::Count, &BucConfig::default());
    let truth_b = truth_of(&cube_b, d);
    let truth_c = truth_of(&cube_c, d);

    let base = Dfs::new();
    write_store(&base, "c", &cube_a, d, AggSpec::Count, 1).expect("seed generation 1");
    write_store(&base, "c", &cube_b, d, AggSpec::Count, 1).expect("seed generation 2");

    let plans = plans_for(&base, &cube_c, d);
    let expect: BTreeMap<u64, &Truth> = [(2, &truth_b), (3, &truth_c)].into();
    for plan in plans {
        let generation = crash_and_reopen(&base, plan, &cube_c, d, &expect);
        assert!(
            generation >= 2,
            "plan {plan:?}: GC crash rolled back to generation {generation}"
        );
    }
}

/// The same sweep on the real filesystem through [`DirBlobs`], whose
/// atomic temp-file-and-rename put makes [`TornWrite::Stage`] the honest
/// media model (a crash strands `path.tmp`, never a half-written final
/// file) — but `Publish`-mode fragments at the final path must also
/// recover, since a recovering open cannot assume the medium.
#[test]
fn dirblobs_sweep_recovers_on_the_real_filesystem() {
    let d = 2;
    let rel_a = datagen::gen_zipf(60, d, 0xe1);
    let rel_b = datagen::gen_zipf(60, d, 0xe2);
    let cube_a = buc(&rel_a, AggSpec::Count, &BucConfig::default());
    let cube_b = buc(&rel_b, AggSpec::Count, &BucConfig::default());
    let truth_a = truth_of(&cube_a, d);
    let truth_b = truth_of(&cube_b, d);
    let expect: BTreeMap<u64, &Truth> = [(1, &truth_a), (2, &truth_b)].into();

    let root = std::env::temp_dir().join(format!("spcrash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Record the rewrite's operation log once, on a throwaway directory.
    let record_dir = root.join("record");
    let blobs = Arc::new(DirBlobs::new(&record_dir));
    write_store(blobs.as_ref(), "c", &cube_a, d, AggSpec::Count, 1).expect("seed");
    let recorder = FaultyBlobs::new(blobs as Arc<dyn BlobStore>, FaultSchedule::default());
    write_store(&recorder, "c", &cube_b, d, AggSpec::Count, 1).expect("recording write");
    let plans = schedules(&recorder.writes());

    for (i, plan) in plans.into_iter().enumerate() {
        let dir = root.join(format!("plan-{i}"));
        let blobs = Arc::new(DirBlobs::new(&dir));
        write_store(blobs.as_ref(), "c", &cube_a, d, AggSpec::Count, 1).expect("seed");
        let armed = crash_at(Arc::clone(&blobs) as Arc<dyn BlobStore>, plan);
        write_store(&armed, "c", &cube_b, d, AggSpec::Count, 1)
            .expect_err("armed write must crash");
        let store = CubeStore::open(blobs as Arc<dyn BlobStore>, "c")
            .unwrap_or_else(|e| panic!("plan {plan:?}: reopen failed: {e}"));
        let want = expect.get(&store.generation()).unwrap_or_else(|| {
            panic!(
                "plan {plan:?}: unexpected generation {}",
                store.generation()
            )
        });
        assert_matches(&store, want, plan);
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Double-open is safe: two handles over the same prefix are independent
/// read-only views that answer identically, and a rewrite committed while
/// both are open corrupts neither — each keeps serving the generation it
/// opened (GC retains the previous generation exactly for this), while a
/// fresh open sees the new one.
#[test]
fn concurrent_opens_are_consistent_read_only_views() {
    let d = 3;
    let rel_a = datagen::gen_zipf(200, d, 0xf1);
    let rel_b = datagen::gen_binomial(200, d, 0.4, 0xf2);
    let cube_a = buc(&rel_a, AggSpec::Count, &BucConfig::default());
    let cube_b = buc(&rel_b, AggSpec::Count, &BucConfig::default());
    let truth_a = truth_of(&cube_a, d);
    let truth_b = truth_of(&cube_b, d);

    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "c", &cube_a, d, AggSpec::Count, 1).expect("seed");

    let first = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "c").expect("first open");
    let second = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "c").expect("second open");
    assert_eq!(first.generation(), second.generation());
    for mask in Mask::full(d).subsets() {
        assert_eq!(
            first.cuboid_rows(mask).expect("first"),
            second.cuboid_rows(mask).expect("second"),
            "double-open views disagree on cuboid {mask}"
        );
    }

    write_store(dfs.as_ref(), "c", &cube_b, d, AggSpec::Count, 1).expect("rewrite");
    for plan in [&first, &second] {
        assert_eq!(plan.generation(), 1, "open views must stay pinned");
        for (mask, rows) in &truth_a {
            assert_eq!(&plan.cuboid_rows(*mask).expect("pinned read"), rows);
        }
    }
    let fresh = CubeStore::open(dfs as Arc<dyn BlobStore>, "c").expect("fresh open");
    assert_eq!(fresh.generation(), 2);
    for (mask, rows) in &truth_b {
        assert_eq!(&fresh.cuboid_rows(*mask).expect("fresh read"), rows);
    }
}

/// A torn root pointer plus orphaned partial segments — the messiest
/// single-crash aftermath — still reopens to the committed answers, and a
/// relation-armed store never needs the degraded path for them.
#[test]
fn torn_root_with_orphans_reopens_clean_and_quarantines() {
    let d = 2;
    let mut rel = Relation::empty(Schema::synthetic(d));
    for i in 0..40i64 {
        rel.push_row(vec![Value::Int(i % 4), Value::Int(i % 3)], 1.0);
    }
    let cube = buc(&rel, AggSpec::Count, &BucConfig::default());
    let truth = truth_of(&cube, d);

    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "c", &cube, d, AggSpec::Count, 1).expect("seed");
    // Orphans of an aborted generation 2, plus a torn root pointer.
    dfs.put(&segment_path("c", 2, d, Mask::full(d)), vec![0xAB; 37]);
    dfs.put(&manifest_path("c"), vec![0xCD; 9]);

    let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "c")
        .expect("recovering open")
        .with_recovery(rel);
    assert_eq!(store.generation(), 1);
    let stats = store.stats();
    assert_eq!(stats.torn_commits, 1, "torn root must be counted");
    assert!(stats.quarantined_blobs >= 1, "orphan must be quarantined");
    for (mask, rows) in &truth {
        assert_eq!(&store.cuboid_rows(*mask).expect("read"), rows);
    }
    assert_eq!(store.stats().degraded_recomputes, 0);
    // The repair is durable: a second open sees a clean store.
    let again = CubeStore::open(dfs as Arc<dyn BlobStore>, "c").expect("reopen");
    assert_eq!(again.stats().torn_commits, 0, "root repair must persist");
}
