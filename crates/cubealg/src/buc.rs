//! Bottom-Up Cube (BUC), Beyer & Ramakrishnan, SIGMOD 1999.
//!
//! BUC computes the cube by recursive partitioning: aggregate the current
//! partition (emitting the group of the current mask), then for each
//! remaining free dimension, sort the partition by that dimension and
//! recurse into each run of equal values with the dimension added to the
//! mask. Taking the free dimensions in ascending-index order enumerates
//! every mask exactly once.
//!
//! [`buc_from`] generalizes the textbook algorithm for SP-Cube's reducers:
//! the recursion can start from a non-empty `fixed` mask (the anchor's
//! grouped dimensions, on which all input tuples agree), computing only the
//! cuboids that are supersets of `fixed` — exactly "compute BUC over
//! ancestors" from Algorithm 3.

use spcube_agg::{AggSpec, AggState};
use spcube_common::{Group, Mask, Relation, Tuple};

use crate::cube::Cube;

/// BUC tuning knobs.
#[derive(Debug, Clone)]
pub struct BucConfig {
    /// Iceberg minimum support: partitions with fewer tuples are pruned and
    /// none of their groups (nor their super-groups) are emitted. `1`
    /// computes the full cube.
    pub min_support: usize,
}

impl Default for BucConfig {
    fn default() -> Self {
        BucConfig { min_support: 1 }
    }
}

/// Compute the full cube of `rel` with BUC, collecting into a [`Cube`].
pub fn buc(rel: &Relation, spec: AggSpec, cfg: &BucConfig) -> Cube {
    let mut pairs = Vec::new();
    let mut refs: Vec<&Tuple> = rel.tuples().iter().collect();
    buc_from(
        &mut refs,
        rel.arity(),
        Mask::EMPTY,
        spec,
        cfg,
        &mut |g, s| pairs.push((g, s.finalize())),
    );
    Cube::from_pairs(pairs)
}

/// Run BUC over `tuples`, emitting one `(group, state)` per c-group whose
/// mask is a superset-or-equal of `fixed`.
///
/// Requirements: every tuple agrees with every other on the dimensions of
/// `fixed` (they belong to one c-group of that cuboid), and `d` is the total
/// dimension count. The slice is reordered in place (BUC sorts partitions).
///
/// The `emit` closure receives each group exactly once; SP-Cube's reducers
/// use it to apply the anchor-assignment filter before writing output.
pub fn buc_from(
    tuples: &mut [&Tuple],
    d: usize,
    fixed: Mask,
    spec: AggSpec,
    cfg: &BucConfig,
    emit: &mut impl FnMut(Group, AggState),
) {
    if tuples.is_empty() || tuples.len() < cfg.min_support {
        return;
    }
    let free: Vec<usize> = (0..d).filter(|&i| !fixed.contains(i)).collect();
    buc_rec(tuples, fixed, &free, spec, cfg, emit);
}

fn buc_rec(
    tuples: &mut [&Tuple],
    mask: Mask,
    free: &[usize],
    spec: AggSpec,
    cfg: &BucConfig,
    emit: &mut impl FnMut(Group, AggState),
) {
    debug_assert!(!tuples.is_empty());
    // Aggregate the whole partition: this is the c-group at `mask`.
    let mut state = spec.init();
    for t in tuples.iter() {
        state.update(t.measure);
    }
    emit(Group::of_tuple(tuples[0], mask), state);

    // Recurse: add each later free dimension, partitioning by its values.
    for (pos, &dim) in free.iter().enumerate() {
        tuples.sort_unstable_by(|a, b| a.dims[dim].cmp(&b.dims[dim]));
        let sub_free = &free[pos + 1..];
        let sub_mask = mask.with(dim);
        let mut start = 0;
        while start < tuples.len() {
            let val = &tuples[start].dims[dim];
            let mut end = start + 1;
            while end < tuples.len() && tuples[end].dims[dim] == *val {
                end += 1;
            }
            if end - start >= cfg.min_support {
                buc_rec(&mut tuples[start..end], sub_mask, sub_free, spec, cfg, emit);
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_cube;
    use spcube_common::{Schema, Value};

    fn small_rel(rows: &[(&[i64], f64)]) -> Relation {
        let d = rows[0].0.len();
        let mut r = Relation::empty(Schema::synthetic(d));
        for (dims, m) in rows {
            r.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), *m);
        }
        r
    }

    #[test]
    fn buc_matches_naive_on_small_relations() {
        let r = small_rel(&[
            (&[1, 1, 1], 1.0),
            (&[1, 1, 2], 2.0),
            (&[1, 2, 1], 3.0),
            (&[2, 2, 2], 4.0),
            (&[2, 2, 2], 5.0),
        ]);
        for spec in [
            AggSpec::Count,
            AggSpec::Sum,
            AggSpec::Min,
            AggSpec::Max,
            AggSpec::Avg,
        ] {
            let a = buc(&r, spec, &BucConfig::default());
            let b = naive_cube(&r, spec);
            assert!(a.approx_eq(&b, 1e-9), "{spec:?}: {:?}", a.diff(&b, 1e-9, 5));
        }
    }

    #[test]
    fn buc_emits_each_group_once() {
        // Cube::insert_state panics on duplicates, so a clean run proves
        // single emission; also check the count explicitly.
        let r = small_rel(&[(&[1, 2], 1.0), (&[1, 3], 1.0), (&[4, 2], 1.0)]);
        let c = buc(&r, AggSpec::Count, &BucConfig::default());
        assert_eq!(c.len(), naive_cube(&r, AggSpec::Count).len());
    }

    #[test]
    fn buc_from_fixed_mask_computes_only_ancestors() {
        // All tuples share d0 = 7; start from fixed mask {d0}.
        let r = small_rel(&[(&[7, 1, 2], 1.0), (&[7, 1, 3], 2.0), (&[7, 5, 2], 3.0)]);
        let mut refs: Vec<&Tuple> = r.tuples().iter().collect();
        let mut got = Vec::new();
        buc_from(
            &mut refs,
            3,
            Mask(0b001),
            AggSpec::Sum,
            &BucConfig::default(),
            &mut |g, s| {
                got.push((g, s));
            },
        );
        // Masks produced: 001, 011, 101, 111 — all supersets of 001.
        assert!(got.iter().all(|(g, _)| Mask(0b001).is_subset_of(g.mask)));
        let full = naive_cube(&r, AggSpec::Sum);
        for (g, s) in &got {
            assert!(
                full.get(g).unwrap().approx_eq(&s.finalize(), 1e-9),
                "group {g} wrong"
            );
        }
        // Exactly the ancestor groups of (7,*,*) present in the data.
        let expected = full
            .iter()
            .filter(|(g, _)| Mask(0b001).is_subset_of(g.mask))
            .count();
        assert_eq!(got.len(), expected);
    }

    #[test]
    fn iceberg_prunes_small_partitions() {
        let r = small_rel(&[(&[1], 1.0), (&[1], 1.0), (&[2], 1.0)]);
        let mut refs: Vec<&Tuple> = r.tuples().iter().collect();
        let mut groups = Vec::new();
        buc_from(
            &mut refs,
            1,
            Mask::EMPTY,
            AggSpec::Count,
            &BucConfig { min_support: 2 },
            &mut |g, _| groups.push(g),
        );
        // Apex (3 tuples) and (1) (2 tuples) survive; (2) is pruned.
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().any(|g| g.mask == Mask::EMPTY));
        assert!(groups
            .iter()
            .any(|g| g.mask == Mask(0b1) && g.key.as_ref() == [Value::Int(1)]));
    }

    #[test]
    fn empty_input_emits_nothing() {
        let mut refs: Vec<&Tuple> = Vec::new();
        let mut n = 0;
        buc_from(
            &mut refs,
            2,
            Mask::EMPTY,
            AggSpec::Count,
            &BucConfig::default(),
            &mut |_, _| n += 1,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn buc_handles_string_dimensions() {
        let mut r = Relation::empty(Schema::new(["name", "city"], "sales").unwrap());
        r.push_row(vec!["laptop".into(), "Rome".into()], 10.0);
        r.push_row(vec!["laptop".into(), "Paris".into()], 20.0);
        r.push_row(vec!["mouse".into(), "Rome".into()], 5.0);
        let a = buc(&r, AggSpec::Sum, &BucConfig::default());
        let b = naive_cube(&r, AggSpec::Sum);
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn buc_on_larger_random_relation_matches_naive() {
        // Deterministic pseudo-random relation, d=4, with repeats.
        let mut rows = Vec::new();
        let mut x: u64 = 42;
        for _ in 0..500 {
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 7) as i64
            };
            rows.push(([next(), next(), next(), next()], 1.0 + (x % 10) as f64));
        }
        let mut r = Relation::empty(Schema::synthetic(4));
        for (dims, m) in &rows {
            r.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), *m);
        }
        let a = buc(&r, AggSpec::Sum, &BucConfig::default());
        let b = naive_cube(&r, AggSpec::Sum);
        assert!(a.approx_eq(&b, 1e-9), "{:?}", a.diff(&b, 1e-9, 5));
    }
}
