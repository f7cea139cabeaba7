//! Property-based tests: on arbitrary random relations, the distributed
//! algorithms agree with the sequential reference, and the core invariants
//! of the lattice/anchor machinery hold.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::baselines::{mr_cube, naive_mr_cube, MrCubeConfig};
use sp_cube_repro::common::{Group, Mask, Relation, Schema, Tuple, Value};
use sp_cube_repro::core::{build_exact_sketch, sp_cube};
use sp_cube_repro::cubealg::{buc, naive_cube, BucConfig, Cube};
use sp_cube_repro::lattice::{anchor_mask, is_anchor};
use sp_cube_repro::mapreduce::ClusterConfig;

/// Strategy: a small relation with clustered values (small domains force
/// shared groups and skew) and 1-4 dimensions.
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

type Pairs = Vec<(Group, AggOutput)>;

/// Strategy: `(group, output)` pairs over `d <= 5` dimensions, each key
/// slot an integer or a string, every fourth output a top-k list, plus a
/// second set of raw pairs and per-pair edits for building a neighbour.
/// Most of the `2^d` cuboids end up empty.
fn arb_pairs() -> impl Strategy<Value = (usize, Pairs, Pairs, Vec<u32>)> {
    (1usize..=5).prop_flat_map(|d| {
        let pairs = || {
            let pair = (
                0u32..32,
                proptest::collection::vec(0i64..6, 5),
                0u32..4,
                -4i64..4,
            );
            proptest::collection::vec(pair, 0..48)
        };
        let edits = proptest::collection::vec(0u32..4, 48);
        (pairs(), pairs(), edits).prop_map(move |(a, b, edits)| {
            let to_pair = |(m, raw, kind, x): (u32, Vec<i64>, u32, i64)| {
                let mask = Mask(m & Mask::full(d).0);
                let key = mask
                    .dims()
                    .map(|dim| match raw[dim] {
                        v if v % 2 == 0 => Value::Int(v - 2),
                        v => Value::str(format!("s{v}")),
                    })
                    .collect();
                let out = if kind == 0 {
                    AggOutput::TopK(vec![(x as f64, 2), (0.5, 1)])
                } else {
                    AggOutput::Number(x as f64)
                };
                (Group::new(mask, key), out)
            };
            let a = a.into_iter().map(to_pair).collect();
            let b = b.into_iter().map(to_pair).collect();
            (d, a, b, edits)
        })
    })
}

/// The first pair of each group, as the model cube.
fn model_of(pairs: Pairs) -> BTreeMap<Group, AggOutput> {
    let mut model = BTreeMap::new();
    for (g, v) in pairs {
        model.entry(g).or_insert(v);
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one cube constructor every algorithm goes through, against a
    /// sorted map of groups: contents, cuboid views, iteration order,
    /// `diff` and the duplicate check.
    #[test]
    fn cube_agrees_with_a_sorted_map_model(input in arb_pairs()) {
        let (d, a, b, edits) = input;
        let model = model_of(a);
        // Reversed, so the constructor has sorting to do.
        let cube = Cube::from_pairs(model.iter().rev().map(|(g, v)| (g.clone(), v.clone())));
        prop_assert_eq!(cube.len(), model.len());
        prop_assert_eq!(cube.is_empty(), model.is_empty());
        let walked: Vec<(&Group, &AggOutput)> = cube.iter().collect();
        let expect: Vec<(&Group, &AggOutput)> = model.iter().collect();
        prop_assert_eq!(walked, expect, "iter() runs in (mask, key) order");
        for mask in Mask::full(d).subsets() {
            let rows: Vec<(Group, AggOutput)> = model
                .iter()
                .filter(|(g, _)| g.mask == mask)
                .map(|(g, v)| (g.clone(), v.clone()))
                .collect();
            prop_assert_eq!(cube.cuboid_len(mask), rows.len());
            prop_assert_eq!(cube.cuboid(mask), rows.as_slice(), "cuboid {}", mask);
        }
        let masks: Vec<Mask> = cube.cuboids().map(|(m, _)| m).collect();
        let expect: Vec<Mask> = model.keys().map(|g| g.mask).collect::<BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(masks, expect);
        for (g, v) in model.iter() {
            prop_assert_eq!(cube.get(g), Some(v));
        }
        for (g, _) in b.iter() {
            prop_assert_eq!(cube.get(g), model.get(g));
        }

        // A neighbour: some groups dropped, some changed, some added.
        let mut other = BTreeMap::new();
        for ((g, v), edit) in model.iter().zip(edits.iter().cycle()) {
            match (edit, v) {
                (0, _) => {}
                (1, AggOutput::Number(x)) => drop(other.insert(g.clone(), AggOutput::Number(x + 1.0))),
                (1, AggOutput::TopK(_)) => drop(other.insert(g.clone(), AggOutput::TopK(Vec::new()))),
                _ => drop(other.insert(g.clone(), v.clone())),
            }
        }
        for (g, v) in model_of(b) {
            if !model.contains_key(&g) {
                other.insert(g, v);
            }
        }
        let other_cube = Cube::from_pairs(other.clone());
        let groups: BTreeSet<&Group> = model.keys().chain(other.keys()).collect();
        let expect: Vec<String> = groups
            .into_iter()
            .filter_map(|g| match (model.get(g), other.get(g)) {
                (Some(v), None) => Some(format!("missing in other: {g} = {v}")),
                (None, Some(_)) => Some(format!("extra in other: {g}")),
                (Some(v), Some(w)) if !v.approx_eq(w, 1e-9) => Some(format!("differs: {g}: {v} vs {w}")),
                _ => None,
            })
            .collect();
        prop_assert_eq!(&cube.diff(&other_cube, 1e-9, usize::MAX), &expect);
        prop_assert_eq!(cube.approx_eq(&other_cube, 1e-9), expect.is_empty());
        for cap in 1..=expect.len() {
            prop_assert_eq!(&cube.diff(&other_cube, 1e-9, cap)[..], &expect[..cap]);
        }

        // Any group given twice is refused, wherever the copies land.
        if let Some((g, v)) = model.iter().nth(edits[0] as usize % model.len().max(1)) {
            let mut twice: Pairs = model.clone().into_iter().collect();
            twice.push((g.clone(), v.clone()));
            let refused = catch_unwind(AssertUnwindSafe(|| Cube::from_pairs(twice)));
            let message = refused.err().and_then(|p| p.downcast::<String>().ok());
            prop_assert!(
                message.is_some_and(|m| m.contains("c-group emitted twice")),
                "a duplicate of {} must panic",
                g
            );
        }
    }

    /// The early-exit BFS walk picks what a scan of every subset picks:
    /// the smallest `(arity, mask)` among the non-skewed subsets.
    #[test]
    fn anchor_mask_equals_the_full_scan(
        h in 0u32..256,
        rolls in proptest::collection::vec(0u32..100, 256),
        density in 0u32..=100,
    ) {
        let oracle = |m: Mask| rolls[m.0 as usize] < density;
        let scanned = Mask(h)
            .subsets()
            .filter(|&sub| !oracle(sub))
            .min_by_key(|&sub| (sub.arity(), sub.0));
        prop_assert_eq!(anchor_mask(Mask(h), oracle), scanned);
    }

    #[test]
    fn buc_equals_naive(rel in arb_relation()) {
        for agg in [AggSpec::Count, AggSpec::Sum, AggSpec::Min, AggSpec::Max] {
            let a = buc(&rel, agg, &BucConfig::default());
            let b = naive_cube(&rel, agg);
            prop_assert!(a.approx_eq(&b, 1e-9), "{agg:?}: {:?}", a.diff(&b, 1e-9, 3));
        }
    }

    #[test]
    fn spcube_equals_naive(rel in arb_relation(), k in 1usize..8, m in 1usize..30) {
        let cluster = ClusterConfig::new(k, m);
        let run = sp_cube(&rel, &cluster, AggSpec::Sum).unwrap();
        let expect = naive_cube(&rel, AggSpec::Sum);
        prop_assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "k={k} m={m}: {:?}",
            run.cube.diff(&expect, 1e-9, 3)
        );
    }

    #[test]
    fn baselines_equal_naive(rel in arb_relation(), k in 1usize..6) {
        let cluster = ClusterConfig::new(k, 10);
        let expect = naive_cube(&rel, AggSpec::Count);
        let pig = mr_cube(&rel, &cluster, &MrCubeConfig::new(AggSpec::Count)).unwrap();
        prop_assert!(pig.cube.approx_eq(&expect, 1e-9));
        let nv = naive_mr_cube(&rel, &cluster, AggSpec::Count).unwrap();
        prop_assert!(nv.cube.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn exact_sketch_skews_are_exactly_the_large_groups(rel in arb_relation(), m in 1usize..20) {
        let cluster = ClusterConfig::new(4, m);
        let sketch = build_exact_sketch(&rel, &cluster);
        let counts = naive_cube(&rel, AggSpec::Count);
        for (g, out) in counts.iter() {
            let expected_skew = out.number() as usize > m;
            prop_assert_eq!(
                sketch.is_skewed_group(g),
                expected_skew,
                "group {} count {}",
                g,
                out.number()
            );
        }
    }

    #[test]
    fn group_projection_commutes(dims in proptest::collection::vec(0i64..5, 1..5)) {
        let d = dims.len();
        let t = Tuple::new(dims.into_iter().map(Value::Int).collect(), 1.0);
        for mask in Mask::full(d).subsets() {
            let g = Group::of_tuple(&t, mask);
            for sub in mask.subsets() {
                prop_assert_eq!(g.project(sub), Group::of_tuple(&t, sub));
            }
        }
    }

    #[test]
    fn anchor_assignment_is_consistent(skew_bits in 0u32..256) {
        // Treat the bitset as a skew oracle over a 3-bit lattice (8 masks).
        let oracle = |m: Mask| skew_bits & (1 << m.0) != 0;
        for h in (0u32..8).map(Mask) {
            if let Some(a) = anchor_mask(h, oracle) {
                // The anchor is a subset, non-skewed, and itself an anchor.
                prop_assert!(a.is_subset_of(h));
                prop_assert!(!oracle(a));
                prop_assert!(is_anchor(a, oracle));
                // No BFS-earlier non-skewed subset exists.
                for sub in h.subsets() {
                    if !oracle(sub) {
                        let key = |m: Mask| (m.arity(), m.0);
                        prop_assert!(key(a) <= key(sub));
                    }
                }
            } else {
                // Every subset (including h) is skewed.
                for sub in h.subsets() {
                    prop_assert!(oracle(sub));
                }
            }
        }
    }

    #[test]
    fn cube_group_count_is_sum_of_distinct_projections(rel in arb_relation()) {
        let cube = naive_cube(&rel, AggSpec::Count);
        let d = rel.arity();
        let expected: usize = Mask::full(d)
            .subsets()
            .map(|m| {
                let mut keys: Vec<_> = rel.tuples().iter().map(|t| t.project(m)).collect();
                keys.sort();
                keys.dedup();
                keys.len()
            })
            .sum();
        prop_assert_eq!(cube.len(), expected);
    }
}
