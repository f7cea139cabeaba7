//! Crash-consistency and equivalence matrix of the delta-layer subsystem.
//!
//! Two contracts under test:
//!
//! 1. **Crash atomicity.** An `ingest_batch` or `compact` interrupted at
//!    ANY point — after any mutating blob operation, or mid-write with a
//!    torn fragment of any prefix length, in both media models — leaves
//!    the store openable without panic with EITHER the complete
//!    pre-commit chain or the complete post-commit chain. Never a torn
//!    merge, never a chain that references a missing layer, and whichever
//!    chain is chosen answers every cuboid bit-identically to a
//!    from-scratch rebuild of the rows that chain covers.
//!
//! 2. **Layered equivalence.** However an input relation is split into
//!    ingest batches (1..N layers), and whether or not the chain has been
//!    compacted in between, every cuboid answers bit-identically to a
//!    monolithic cube of the whole relation. Integer-valued measures make
//!    "bit-identical" literal even for SUM/AVG.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::common::{Error, Group, Mask, Relation, Schema, Value};
use sp_cube_repro::cubealg::{naive_cube, Cube, CubeQuery, CubeRead};
use sp_cube_repro::cubestore::{
    compact, ingest_batch, schedules, BlobStore, CompactionPolicy, CrashPlan, CubeStore, DirBlobs,
    FaultSchedule, FaultyBlobs, IngestConfig, IngestSession,
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

/// The first `n` rows of `rel` as their own relation.
fn head(rel: &Relation, n: usize) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    for t in &rel.tuples()[..n] {
        out.push(t.clone()).expect("push");
    }
    out
}

/// Cut `rel` into consecutive batches at the given (sorted) row indices.
fn split(rel: &Relation, at: &[usize]) -> Vec<Relation> {
    let mut parts = Vec::new();
    let mut start = 0;
    for &end in at.iter().chain(std::iter::once(&rel.len())) {
        let mut part = Relation::empty(rel.schema().clone());
        for t in &rel.tuples()[start..end] {
            part.push(t.clone()).expect("push");
        }
        parts.push(part);
        start = end;
    }
    parts
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
    assert_eq!(
        store.stats().degraded_recomputes,
        0,
        "plan {plan:?}: a sealed chain must serve from its layers"
    );
}

/// Arm `plan` over a fork of `base`, run the delta operation, and check
/// the reopened store is exactly one of the expected chains. Returns the
/// chain the reopen chose (keyed by its tip generation).
fn crash_and_reopen(
    base: &Dfs,
    plan: CrashPlan,
    op: &dyn Fn(&dyn BlobStore) -> Result<(), Error>,
    expect: &BTreeMap<u64, (&[u64], &Truth)>,
) -> u64 {
    let fork = Arc::new(base.fork());
    let armed = crash_at(Arc::clone(&fork) as Arc<dyn BlobStore>, plan);
    let err = match op(&armed) {
        Ok(()) => panic!("plan {plan:?}: armed delta operation did not crash"),
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

    let store = CubeStore::open(fork as Arc<dyn BlobStore>, "inc")
        .unwrap_or_else(|e| panic!("plan {plan:?}: reopen after crash failed: {e}"));
    let tip = store.generation();
    let (chain, want) = expect.get(&tip).unwrap_or_else(|| {
        panic!(
            "plan {plan:?}: reopened at generation {tip}, expected one of {:?}",
            expect.keys().collect::<Vec<_>>()
        )
    });
    assert_eq!(
        &store.layers(),
        chain,
        "plan {plan:?}: reopened to a chain that is neither pre- nor post-commit"
    );
    assert_matches(&store, want, plan);
    tip
}

/// Record a clean run of `op` over a fork of `base` and derive the crash
/// schedules from its operation log.
fn plans_for(base: &Dfs, op: &dyn Fn(&dyn BlobStore) -> Result<(), Error>) -> Vec<CrashPlan> {
    let fork = Arc::new(base.fork());
    let recorder = FaultyBlobs::new(fork as Arc<dyn BlobStore>, FaultSchedule::default());
    op(&recorder).expect("clean recording run");
    let writes = recorder.writes();
    assert!(!writes.is_empty(), "a delta commit must log operations");
    schedules(&writes)
}

/// The ingest sweep: a two-layer store takes a third batch, crashing at
/// every derived crashpoint. Every reopen must be the complete [1, 2]
/// chain answering for the first 24 rows or the complete [1, 2, 3] chain
/// answering for all 36, and both outcomes must occur across the sweep
/// (else the schedule missed the commit point).
#[test]
fn every_crashpoint_of_an_ingest_reopens_to_a_complete_chain() {
    let d = 3;
    let rel = datagen::gen_zipf(36, d, 0xb1);
    let parts = split(&rel, &[12, 24]);

    let base = Dfs::new();
    for part in &parts[..2] {
        ingest_batch(&base, "inc", part, AggSpec::Avg).expect("seed layer");
    }
    let pre = truth_of(&naive_cube(&head(&rel, 24), AggSpec::Avg), d);
    let post = truth_of(&naive_cube(&rel, AggSpec::Avg), d);

    let op =
        |blobs: &dyn BlobStore| ingest_batch(blobs, "inc", &parts[2], AggSpec::Avg).map(|_| ());
    let plans = plans_for(&base, &op);
    assert!(plans.len() > 20, "suspiciously thin schedule: {plans:?}");
    let pre_chain = [1u64, 2];
    let post_chain = [1u64, 2, 3];
    let expect: BTreeMap<u64, (&[u64], &Truth)> =
        [(2, (&pre_chain[..], &pre)), (3, (&post_chain[..], &post))].into();
    let mut seen = BTreeMap::new();
    for plan in plans {
        let tip = crash_and_reopen(&base, plan, &op, &expect);
        *seen.entry(tip).or_insert(0u64) += 1;
    }
    assert!(
        seen.contains_key(&2) && seen.contains_key(&3),
        "sweep must cross the commit point: outcomes {seen:?}"
    );
}

/// The compaction sweep: folding a four-layer chain down to two crashes at
/// every crashpoint. Both outcomes hold the same rows, so the answers are
/// identical either way — what the sweep checks is that the chain itself
/// is never torn: it is the full pre-compaction [1, 2, 3, 4] or the full
/// post-compaction [survivor, 5], and the victims are still readable in
/// the pre case (GC must not run before the commit point).
#[test]
fn every_crashpoint_of_a_compaction_reopens_to_a_complete_chain() {
    let d = 2;
    let rel = datagen::gen_binomial(40, d, 0.4, 0xb2);
    let base = Dfs::new();
    for part in split(&rel, &[10, 20, 30]) {
        ingest_batch(&base, "inc", &part, AggSpec::Avg).expect("seed layer");
    }
    let truth = truth_of(&naive_cube(&rel, AggSpec::Avg), d);

    let policy = CompactionPolicy { max_layers: 2 };
    let op = |blobs: &dyn BlobStore| {
        compact(blobs, "inc", &policy).map(|r| {
            r.map(|_| ()).expect("chain exceeds policy, must fold");
        })
    };
    // Learn the post-compaction chain from a clean run on a throwaway fork.
    let probe = base.fork();
    op(&probe).expect("clean probe run");
    let folded = CubeStore::open(Arc::new(probe) as Arc<dyn BlobStore>, "inc")
        .expect("probe open")
        .layers();
    assert_eq!(folded.len(), 2, "probe chain {folded:?}");
    assert_eq!(*folded.last().expect("tip"), 5);

    let pre_chain = [1u64, 2, 3, 4];
    let expect: BTreeMap<u64, (&[u64], &Truth)> =
        [(4, (&pre_chain[..], &truth)), (5, (&folded[..], &truth))].into();
    let mut seen = BTreeMap::new();
    for plan in plans_for(&base, &op) {
        let tip = crash_and_reopen(&base, plan, &op, &expect);
        *seen.entry(tip).or_insert(0u64) += 1;
    }
    assert!(
        seen.contains_key(&4) && seen.contains_key(&5),
        "sweep must cross the commit point: outcomes {seen:?}"
    );
}

/// The sweep one commit later: the ingest after a compaction garbage
/// collects the folded victims, and a crash anywhere in it — including
/// mid-GC — must never drag the store below the compacted chain or break
/// its answers.
#[test]
fn crashes_while_collecting_compaction_victims_lose_nothing() {
    let d = 2;
    let rel = datagen::gen_zipf(40, d, 0xb3);
    let parts = split(&rel, &[10, 20, 30]);
    let base = Dfs::new();
    for part in &parts[..3] {
        ingest_batch(&base, "inc", part, AggSpec::Sum).expect("seed layer");
    }
    compact(&base, "inc", &CompactionPolicy { max_layers: 1 })
        .expect("compact")
        .expect("folded");
    let pre = truth_of(&naive_cube(&head(&rel, 30), AggSpec::Sum), d);
    let post = truth_of(&naive_cube(&rel, AggSpec::Sum), d);

    let op =
        |blobs: &dyn BlobStore| ingest_batch(blobs, "inc", &parts[3], AggSpec::Sum).map(|_| ());
    let pre_chain = [4u64];
    let post_chain = [4u64, 5];
    let expect: BTreeMap<u64, (&[u64], &Truth)> =
        [(4, (&pre_chain[..], &pre)), (5, (&post_chain[..], &post))].into();
    for plan in plans_for(&base, &op) {
        let tip = crash_and_reopen(&base, plan, &op, &expect);
        assert!(
            tip >= 4,
            "plan {plan:?}: GC crash rolled back to generation {tip}"
        );
    }
}

/// The ingest sweep on the real filesystem through [`DirBlobs`]: both the
/// stranded-temp-file and final-path-fragment media models must reopen to
/// a complete chain.
#[test]
fn dirblobs_ingest_sweep_recovers_on_the_real_filesystem() {
    let d = 2;
    let rel = datagen::gen_zipf(30, d, 0xb4);
    let parts = split(&rel, &[15]);
    let pre = truth_of(&naive_cube(&parts[0], AggSpec::Avg), d);
    let post = truth_of(&naive_cube(&rel, AggSpec::Avg), d);

    let root = std::env::temp_dir().join(format!("spdelta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Record the second ingest's operation log once, on a throwaway dir.
    let blobs = Arc::new(DirBlobs::new(root.join("record")));
    ingest_batch(blobs.as_ref(), "inc", &parts[0], AggSpec::Avg).expect("seed");
    let recorder = FaultyBlobs::new(blobs as Arc<dyn BlobStore>, FaultSchedule::default());
    ingest_batch(&recorder, "inc", &parts[1], AggSpec::Avg).expect("recording run");
    let plans = schedules(&recorder.writes());

    for (i, plan) in plans.into_iter().enumerate() {
        let blobs = Arc::new(DirBlobs::new(root.join(format!("plan-{i}"))));
        ingest_batch(blobs.as_ref(), "inc", &parts[0], AggSpec::Avg).expect("seed");
        let armed = crash_at(Arc::clone(&blobs) as Arc<dyn BlobStore>, plan);
        ingest_batch(&armed, "inc", &parts[1], AggSpec::Avg).expect_err("armed ingest must crash");
        let store = CubeStore::open(blobs as Arc<dyn BlobStore>, "inc")
            .unwrap_or_else(|e| panic!("plan {plan:?}: reopen failed: {e}"));
        let want = match store.generation() {
            1 => &pre,
            2 => &post,
            g => panic!("plan {plan:?}: unexpected generation {g}"),
        };
        assert_matches(&store, want, plan);
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// A reader holds its snapshot through a concurrent ingest: a store
/// opened before an `IngestSession::ingest` answers every cuboid with the
/// pre-ingest truth, bit-exact, while the ingest commits on another
/// thread (its one-segment cache keeps sending reads to the blobs), and
/// a reopen sees the new layer.
#[test]
fn a_store_opened_before_a_concurrent_ingest_keeps_its_snapshot() {
    let d = 3;
    let rel = datagen::gen_zipf(600, d, 0xb5);
    let parts = split(&rel, &[300]);
    let blobs: Arc<dyn BlobStore> = Arc::new(Dfs::new());
    ingest_batch(blobs.as_ref(), "inc", &parts[0], AggSpec::Sum).expect("seed layer");
    let pre = truth_of(&naive_cube(&parts[0], AggSpec::Sum), d);
    let post = truth_of(&naive_cube(&rel, AggSpec::Sum), d);

    let reader = CubeStore::open(Arc::clone(&blobs), "inc")
        .expect("open")
        .with_cache_capacity(1);
    let reads_pre = |store: &CubeStore| {
        for (mask, rows) in &pre {
            let got = store.cuboid_rows(*mask).expect("snapshot read");
            assert_eq!(&got, rows, "cuboid {mask} left the pre-ingest snapshot");
        }
    };
    let session = IngestSession::new(
        Arc::clone(&blobs),
        "inc",
        AggSpec::Sum,
        IngestConfig::default(),
    )
    .expect("session");
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| session.ingest(&parts[1]));
        loop {
            reads_pre(&reader);
            if writer.is_finished() {
                break;
            }
        }
        writer.join().expect("ingest thread").expect("ingest");
    });
    reads_pre(&reader);

    let fresh = CubeStore::open(blobs, "inc").expect("reopen");
    assert_eq!(fresh.layer_count(), 2);
    for (mask, rows) in &post {
        let got = fresh.cuboid_rows(*mask).expect("layered read");
        assert_eq!(&got, rows, "cuboid {mask} after the ingest");
    }
}

/// Strategy: a small relation with clustered values (small domains force
/// groups shared across batches) and 1-3 dimensions. Integer measures keep
/// every aggregate bit-exact under any merge order.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=3, 2usize..=32).prop_flat_map(|(d, n)| {
        let tuple = proptest::collection::vec(0i64..3, d);
        proptest::collection::vec((tuple, -5i64..5), n).prop_map(move |rows| {
            let mut rel = Relation::empty(Schema::synthetic(d));
            for (dims, m) in rows {
                rel.push_row(dims.into_iter().map(Value::Int).collect(), m as f64);
            }
            rel
        })
    })
}

/// Strategy: a relation plus 0-3 random cut points inside it.
fn arb_split() -> impl Strategy<Value = (Relation, Vec<usize>)> {
    arb_relation().prop_flat_map(|rel| {
        let n = rel.len();
        proptest::collection::vec(0..n, 0..=3).prop_map(move |mut cuts| {
            cuts.sort_unstable();
            cuts.dedup();
            (rel.clone(), cuts)
        })
    })
}

/// Body of the property below (the vendored proptest shim only accepts
/// plain identifier arguments, so the tuple is destructured here).
fn check_layered_equals_monolithic(rel: &Relation, cuts: &[usize]) {
    let d = rel.arity();
    for spec in [AggSpec::Avg, AggSpec::CountDistinct, AggSpec::Sum] {
        let dfs = Arc::new(Dfs::new());
        for part in split(rel, cuts) {
            ingest_batch(dfs.as_ref(), "inc", &part, spec).expect("ingest");
        }
        let want = truth_of(&naive_cube(rel, spec), d);
        let store =
            CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open layered");
        assert_eq!(store.layer_count(), cuts.len() + 1);
        for (mask, rows) in &want {
            assert_eq!(
                &store.cuboid_rows(*mask).expect("layered read"),
                rows,
                "{spec:?} cuboid {mask} differs pre-compaction"
            );
        }
        if compact(dfs.as_ref(), "inc", &CompactionPolicy { max_layers: 1 })
            .expect("compact")
            .is_some()
        {
            let folded = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc")
                .expect("open folded");
            assert_eq!(folded.layer_count(), 1);
            for (mask, rows) in &want {
                assert_eq!(
                    &folded.cuboid_rows(*mask).expect("folded read"),
                    rows,
                    "{spec:?} cuboid {mask} differs post-compaction"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However the relation is split into layers, the layered store equals
    /// a monolithic cube of the whole relation — for a state-merging
    /// aggregate (AVG), a holistic one (COUNT-DISTINCT), and a
    /// distributive one (SUM) — and stays equal after compaction.
    #[test]
    fn layered_reads_equal_monolithic_rebuild(case in arb_split()) {
        let (rel, cuts) = case;
        check_layered_equals_monolithic(&rel, &cuts);
    }
}
