//! Store-vs-memory round-trip guarantees of the CubeStore subsystem.
//!
//! The contract under test: a cube persisted with [`write_store`] and read
//! back through [`CubeStore`]'s [`CubeRead`] interface answers every query
//! exactly as the in-memory [`CubeQuery`] over the original cube does —
//! across data families, aggregates, and iceberg thresholds — and a
//! corrupted segment degrades to a BUC recompute instead of a wrong (or
//! missing) answer. The lattice-edge tests pin down behaviour at the
//! degenerate ends of the cuboid lattice: the apex, the base cuboid, and
//! cuboids no group survives into.

use std::sync::Arc;

use proptest::prelude::*;

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::common::{Group, Mask, Relation, Schema, Value};
use sp_cube_repro::cubealg::{buc, naive_cube, BucConfig, Cube, CubeQuery, CubeRead};
use sp_cube_repro::cubestore::{ingest_batch, segment_path, write_store, BlobStore, CubeStore};
use sp_cube_repro::datagen;
use sp_cube_repro::mapreduce::Dfs;

/// Persist `rel`'s cube and open it back through the store.
fn stored(
    rel: &Relation,
    agg: AggSpec,
    min_support: usize,
) -> (sp_cube_repro::cubealg::Cube, CubeStore) {
    let cube = buc(rel, agg, &BucConfig { min_support });
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "t", &cube, rel.arity(), agg, min_support).unwrap();
    let store = CubeStore::open(dfs as Arc<dyn BlobStore>, "t").unwrap();
    (cube, store)
}

/// Assert the store and the in-memory view agree on every cuboid, every
/// point, and every top-k ranking.
fn assert_equivalent(rel: &Relation, agg: AggSpec, min_support: usize) {
    let (cube, store) = stored(rel, agg, min_support);
    let d = rel.arity();
    let mem = CubeQuery::new(&cube, d);
    assert_eq!(store.dims(), d);
    for mask in Mask::full(d).subsets() {
        let from_store = store.cuboid_rows(mask).unwrap();
        let from_mem: Vec<(Group, _)> = mem
            .cuboid(mask)
            .iter()
            .map(|(g, v)| ((*g).clone(), (*v).clone()))
            .collect();
        assert_eq!(from_store, from_mem, "cuboid {mask} differs");
        for (g, v) in &from_mem {
            assert_eq!(
                store.point(mask, &g.key).unwrap().as_ref(),
                Some(v),
                "point {g:?} differs"
            );
        }
        let ranked = store.top(mask, 5).unwrap();
        let expected: Vec<(Group, f64)> = mem
            .top(mask, 5)
            .into_iter()
            .map(|(g, s)| (g.clone(), s))
            .collect();
        assert_eq!(ranked, expected, "top-5 of {mask} differs");
    }
}

#[test]
fn round_trip_across_datagen_families() {
    let cases: Vec<Relation> = vec![
        datagen::gen_zipf(600, 3, 0xa1),
        datagen::gen_binomial(600, 3, 0.4, 0xa2),
        datagen::wikipedia_like(500, 0xa3),
        datagen::usagov_like(500, 0xa4),
        datagen::retail(400, 0.3, 0xa5),
        datagen::apex_only_skew(300, 3, 0xa6),
    ];
    for rel in &cases {
        assert_equivalent(rel, AggSpec::Count, 1);
    }
    // Iceberg threshold and a non-trivial aggregate on one skewed family.
    assert_equivalent(&datagen::gen_zipf(600, 3, 0xa7), AggSpec::Sum, 3);
    assert_equivalent(&datagen::gen_binomial(600, 3, 0.5, 0xa8), AggSpec::Avg, 2);
}

#[test]
fn corrupt_segment_degrades_to_recompute() {
    let rel = datagen::gen_zipf(500, 3, 0xbad);
    let cube = buc(&rel, AggSpec::Count, &BucConfig::default());
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "t", &cube, 3, AggSpec::Count, 1).unwrap();

    // Flip one bit in the base cuboid's segment: the checksum must catch
    // it and the store must fall back to recomputing from the relation.
    let victim = segment_path("t", 1, 3, Mask::full(3));
    dfs.corrupt_byte(&victim, 40).unwrap();
    let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "t")
        .unwrap()
        .with_recovery(rel.clone());

    let mem = CubeQuery::new(&cube, 3);
    let recomputed = store.cuboid_rows(Mask::full(3)).unwrap();
    let expected: Vec<(Group, _)> = mem
        .cuboid(Mask::full(3))
        .iter()
        .map(|(g, v)| ((*g).clone(), (*v).clone()))
        .collect();
    assert_eq!(
        recomputed, expected,
        "degraded answer differs from the truth"
    );
    assert_eq!(store.stats().degraded_recomputes, 1);

    // Without a recovery relation the corruption is a hard error.
    let blind = CubeStore::open(dfs as Arc<dyn BlobStore>, "t").unwrap();
    assert!(blind.cuboid_rows(Mask::full(3)).is_err());
}

#[test]
fn roll_up_at_the_apex_and_from_the_base() {
    let rel = datagen::retail(300, 0.2, 7);
    let (cube, store) = stored(&rel, AggSpec::Count, 1);
    let mem = CubeQuery::new(&cube, 3);

    // From the base cuboid (all bits set), rolling up any dimension
    // matches the in-memory answer.
    let base = Mask::full(3);
    let (g, _) = store.cuboid_rows(base).unwrap().into_iter().next().unwrap();
    for dim in 0..3 {
        let from_store = store.roll_up(&g, dim).unwrap();
        let from_mem = mem
            .roll_up(&g, dim)
            .unwrap()
            .map(|(rg, rv)| (rg.clone(), rv.clone()));
        assert_eq!(from_store, from_mem);
    }

    // At the apex there is nothing left to roll up: every dimension is
    // already ungrouped, so the call is an error on both backends.
    let apex = Group::new(Mask::EMPTY, Vec::new());
    for dim in 0..3 {
        assert!(store.roll_up(&apex, dim).is_err());
        assert!(mem.roll_up(&apex, dim).is_err());
    }
    // And a single-dimension group rolls up *to* the apex.
    let (g1, _) = store
        .cuboid_rows(Mask::single(0))
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let (apex_g, apex_v) = store.roll_up(&g1, 0).unwrap().expect("apex exists");
    assert_eq!(apex_g.mask, Mask::EMPTY);
    assert_eq!(Some(&apex_v), mem.group(Mask::EMPTY, &[]));
}

#[test]
fn drill_down_at_the_base_cuboid_is_an_error() {
    let rel = datagen::retail(300, 0.2, 7);
    let (cube, store) = stored(&rel, AggSpec::Count, 1);
    let mem = CubeQuery::new(&cube, 3);
    let base = Mask::full(3);
    let (g, _) = store.cuboid_rows(base).unwrap().into_iter().next().unwrap();
    // Every dimension is already grouped: no finer cuboid exists.
    for dim in 0..3 {
        assert!(store.drill_down(&g, dim).is_err());
        assert!(mem.drill_down(&g, dim).is_err());
    }
}

#[test]
fn slice_on_an_empty_cuboid_is_empty() {
    // With an iceberg threshold larger than any partition, fine cuboids
    // lose all their groups; slicing one must answer [] rather than err.
    let mut rel = Relation::empty(Schema::synthetic(2));
    for i in 0..6i64 {
        rel.push_row(vec![Value::Int(i), Value::Int(i)], 1.0);
    }
    let (cube, store) = stored(&rel, AggSpec::Count, 2);
    let base = Mask::full(2);
    assert_eq!(
        store.cuboid_len(base).unwrap(),
        0,
        "iceberg pruned the base cuboid"
    );
    assert!(store.slice(base, 0, &Value::Int(1)).unwrap().is_empty());
    assert!(CubeQuery::new(&cube, 2)
        .slice(base, 0, &Value::Int(1))
        .unwrap()
        .is_empty());
    // Slicing on an ungrouped dimension stays an error even when empty.
    assert!(store.slice(Mask::single(0), 1, &Value::Int(1)).is_err());
}

/// Assert the store's top-k kernel ranks every cuboid exactly as the
/// in-memory index: the same groups in the same order, and values with
/// the same bits, for every `n` around the cuboid's size.
fn assert_same_top(store: &CubeStore, mem: &CubeQuery<'_>, case: &str) {
    let bits = |ranked: Vec<(Group, f64)>| -> Vec<(Group, u64)> {
        ranked.into_iter().map(|(g, x)| (g, x.to_bits())).collect()
    };
    for mask in Mask::full(store.dims()).subsets() {
        let len = mem.cuboid_len(mask);
        for n in [0, 1, 10, len.saturating_sub(1), len, len + 1, usize::MAX] {
            let want = mem.top(mask, n).into_iter().map(|(g, x)| (g.clone(), x));
            assert_eq!(
                bits(store.top(mask, n).unwrap()),
                bits(want.collect()),
                "{case}: top-{n} of cuboid {mask}"
            );
        }
    }
}

/// Whether any cuboid's scalar outputs satisfy `pred`.
fn has_output(cube: &Cube, pred: impl Fn(f64) -> bool) -> bool {
    cube.iter()
        .any(|(_, v)| matches!(v, AggOutput::Number(x) if pred(*x)))
}

#[test]
fn top_k_matches_memory_on_ties_zeros_infinities_and_nan() {
    // SUM over measures that tie, cancel to NaN, and overflow to ±∞:
    // each of the 60 base groups gets 4 tuples, picked by its number.
    let mut rel = Relation::empty(Schema::synthetic(3));
    for i in 0..240i64 {
        let dims = vec![Value::Int(i % 4), Value::Int(i % 5), Value::Int(i % 6)];
        let m = match i % 60 % 8 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 if i < 60 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => f64::NAN,
            4 => -0.0,
            _ => (i % 3) as f64,
        };
        rel.push_row(dims, m);
    }
    let (cube, store) = stored(&rel, AggSpec::Sum, 1);
    assert!(has_output(&cube, |x| x == f64::INFINITY));
    assert!(has_output(&cube, |x| x == f64::NEG_INFINITY));
    assert!(has_output(&cube, f64::is_nan));
    assert_same_top(&store, &CubeQuery::new(&cube, 3), "sum");

    // SUM starts from +0.0, so no sum is -0.0: write both zeros, both NaN
    // signs and ties directly.
    let scores = [
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        5.0,
        -0.0,
        f64::INFINITY,
        5.0,
    ];
    let cube = Cube::from_pairs((0..40i64).map(|i| {
        let g = Group::new(Mask(0b11), vec![Value::Int(i % 8), Value::Int(i / 8)]);
        (g, AggOutput::Number(scores[i as usize % scores.len()]))
    }));
    assert!(has_output(&cube, |x| x == 0.0 && x.is_sign_negative()));
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "z", &cube, 2, AggSpec::Sum, 1).unwrap();
    let store = CubeStore::open(dfs as Arc<dyn BlobStore>, "z").unwrap();
    assert_same_top(&store, &CubeQuery::new(&cube, 2), "signed zeros");
}

#[test]
fn top_k_matches_memory_on_skipped_pruned_and_layered_cuboids() {
    let rel = datagen::gen_zipf(400, 3, 0x70b);

    // Top-k-frequent outputs are all skipped: every ranking is empty.
    let (cube, store) = stored(&rel, AggSpec::TopKFrequent(3), 1);
    assert!(store.top(Mask::full(3), usize::MAX).unwrap().is_empty());
    assert_same_top(&store, &CubeQuery::new(&cube, 3), "top-k-frequent");

    // An iceberg store in which some cuboid is not materialized at all.
    let (cube, store) = stored(&rel, AggSpec::Count, 40);
    assert!(Mask::full(3)
        .subsets()
        .any(|mask| store.manifest().entry(mask).is_none()));
    assert_same_top(&store, &CubeQuery::new(&cube, 3), "iceberg");

    // A layered delta store: three SUM layers of integer-valued measures
    // (so sums are exact) against the monolithic cube.
    let mut int_rel = Relation::empty(Schema::synthetic(3));
    let mut parts = vec![Relation::empty(Schema::synthetic(3)); 3];
    for (i, t) in rel.tuples().iter().enumerate() {
        let m = (i % 7) as f64;
        int_rel.push_row(t.dims.to_vec(), m);
        parts[i % 3].push_row(t.dims.to_vec(), m);
    }
    let dfs = Arc::new(Dfs::new());
    for part in &parts {
        ingest_batch(dfs.as_ref(), "inc", part, AggSpec::Sum).unwrap();
    }
    let store = CubeStore::open(dfs as Arc<dyn BlobStore>, "inc").unwrap();
    assert_eq!(store.layer_count(), 3);
    let cube = naive_cube(&int_rel, AggSpec::Sum);
    assert_same_top(&store, &CubeQuery::new(&cube, 3), "layered");
}

/// Strategy: a small relation with clustered values (small domains force
/// shared groups) and 1-3 dimensions.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=3, 1usize..=40).prop_flat_map(|(d, n)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_matches_memory_on_arbitrary_relations(rel in arb_relation()) {
        for (agg, ms) in [(AggSpec::Count, 1), (AggSpec::Sum, 1), (AggSpec::Max, 2)] {
            let (cube, store) = stored(&rel, agg, ms);
            let d = rel.arity();
            let mem = CubeQuery::new(&cube, d);
            for mask in Mask::full(d).subsets() {
                let got = store.cuboid_rows(mask).unwrap();
                let want: Vec<(Group, _)> = mem
                    .cuboid(mask)
                    .iter()
                    .map(|(g, v)| ((*g).clone(), (*v).clone()))
                    .collect();
                prop_assert_eq!(got, want, "{:?}/{} cuboid {} differs", agg, ms, mask);
            }
        }
        // And the sequential reference agrees that what we stored at
        // min_support 1 is the full cube.
        let (cube, _) = stored(&rel, AggSpec::Count, 1);
        prop_assert!(cube.approx_eq(&naive_cube(&rel, AggSpec::Count), 1e-9));
    }
}
