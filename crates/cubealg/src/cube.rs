//! The materialized cube result type.
//!
//! A [`Cube`] holds one sorted run of rows per cuboid, which is how the
//! store persists it too (one segment per cuboid, rows sorted by key, the
//! paper's one-file-per-cuboid layout of Section 3.1). So a lookup is a
//! binary search, comparing two cubes is a merge walk, and the store's
//! write path encodes each cuboid straight from its rows.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::{Group, Mask};

/// A fully materialized data cube: every c-group of every cuboid with its
/// finalized aggregate value, held per cuboid with rows sorted by key.
///
/// By the definition in Section 2.1, each subset of tuples agreeing on the
/// group-by attributes contributes exactly one tuple (group) per cuboid, so
/// keys are unique by construction; [`Cube::from_pairs`], the only way to
/// build a cube, panics on a group emitted twice, which is how the
/// integration tests catch duplicate computation of shared ancestors.
#[derive(Debug, Clone)]
pub struct Cube {
    /// Non-empty cuboids only; each run sorted strictly ascending by key.
    cuboids: BTreeMap<Mask, Vec<(Group, AggOutput)>>,
}

impl Cube {
    /// Build from `(group, output)` pairs in any order: bucket them by
    /// cuboid and sort each cuboid once. Panics if a group occurs twice —
    /// each c-group must be computed exactly once.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Group, AggOutput)>) -> Cube {
        let mut cuboids: BTreeMap<Mask, Vec<(Group, AggOutput)>> = BTreeMap::new();
        for (g, o) in pairs {
            cuboids.entry(g.mask).or_default().push((g, o));
        }
        for rows in cuboids.values_mut() {
            rows.sort_unstable_by(|a, b| a.0.key.cmp(&b.0.key));
            if let Some(w) = rows.windows(2).find(|w| w[0].0.key == w[1].0.key) {
                panic!("c-group emitted twice: {}", w[0].0);
            }
        }
        Cube { cuboids }
    }

    /// Number of c-groups across all cuboids.
    pub fn len(&self) -> usize {
        self.cuboids.values().map(Vec::len).sum()
    }

    /// Whether the cube has no groups (only true for an empty relation).
    pub fn is_empty(&self) -> bool {
        self.cuboids.is_empty()
    }

    /// Look up a group's aggregate.
    pub fn get(&self, g: &Group) -> Option<&AggOutput> {
        let rows = self.cuboid(g.mask);
        rows.binary_search_by(|(h, _)| h.key.cmp(&g.key))
            .ok()
            .map(|i| &rows[i].1)
    }

    /// Iterate over all `(group, output)` pairs in `(mask, key)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&Group, &AggOutput)> {
        self.cuboids.values().flatten().map(|(g, v)| (g, v))
    }

    /// One cuboid's rows, sorted by key; empty if the cuboid has none.
    pub fn cuboid(&self, mask: Mask) -> &[(Group, AggOutput)] {
        self.cuboids.get(&mask).map_or(&[], Vec::as_slice)
    }

    /// The non-empty cuboids with their rows, in mask order.
    pub fn cuboids(&self) -> impl Iterator<Item = (Mask, &[(Group, AggOutput)])> {
        self.cuboids.iter().map(|(&m, rows)| (m, rows.as_slice()))
    }

    /// Number of groups in one cuboid.
    pub fn cuboid_len(&self, mask: Mask) -> usize {
        self.cuboid(mask).len()
    }

    /// Exhaustive comparison against another cube with a relative epsilon on
    /// scalar outputs. Returns a human-readable list of discrepancies
    /// (missing, extra, differing) in `(mask, key)` order, capped at
    /// `max_diffs`.
    pub fn diff(&self, other: &Cube, rel_eps: f64, max_diffs: usize) -> Vec<String> {
        let mut diffs = Vec::new();
        let masks: BTreeSet<Mask> = self
            .cuboids
            .keys()
            .chain(other.cuboids.keys())
            .copied()
            .collect();
        for mask in masks {
            let mut mine = self.cuboid(mask).iter().peekable();
            let mut theirs = other.cuboid(mask).iter().peekable();
            loop {
                let order = match (mine.peek(), theirs.peek()) {
                    (None, None) => break,
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (Some((g, _)), Some((h, _))) => g.key.cmp(&h.key),
                };
                match order {
                    Ordering::Less => {
                        if let Some((g, v)) = mine.next() {
                            diffs.push(format!("missing in other: {g} = {v}"));
                        }
                    }
                    Ordering::Greater => {
                        if let Some((h, _)) = theirs.next() {
                            diffs.push(format!("extra in other: {h}"));
                        }
                    }
                    Ordering::Equal => {
                        if let (Some((g, v)), Some((_, w))) = (mine.next(), theirs.next()) {
                            if !v.approx_eq(w, rel_eps) {
                                diffs.push(format!("differs: {g}: {v} vs {w}"));
                            }
                        }
                    }
                }
                if diffs.len() >= max_diffs {
                    return diffs;
                }
            }
        }
        diffs
    }

    /// Whether two cubes agree up to `rel_eps` on every group.
    pub fn approx_eq(&self, other: &Cube, rel_eps: f64) -> bool {
        self.len() == other.len() && self.diff(other, rel_eps, 1).is_empty()
    }
}

/// Accumulating cube builder keyed by group, for hash-based algorithms:
/// folds measures / merges partial states, finalizing at the end.
#[derive(Debug, Default)]
pub struct CubeBuilder {
    states: HashMap<Group, AggState>,
}

impl CubeBuilder {
    /// Empty builder.
    pub fn new() -> CubeBuilder {
        CubeBuilder::default()
    }

    /// Fold one measure into a group's state.
    pub fn update(&mut self, spec: AggSpec, g: Group, measure: f64) {
        self.states
            .entry(g)
            .or_insert_with(|| spec.init())
            .update(measure);
    }

    /// Merge a partial state into a group's state.
    pub fn merge(&mut self, spec: AggSpec, g: Group, partial: &AggState) {
        self.states
            .entry(g)
            .or_insert_with(|| spec.init())
            .merge(partial);
    }

    /// Number of groups currently held.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no group has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Finalize into a [`Cube`].
    pub fn finish(self) -> Cube {
        Cube::from_pairs(self.states.into_iter().map(|(g, s)| (g, s.finalize())))
    }

    /// Drain the raw states (used by combiners that ship states onward).
    pub fn into_states(self) -> impl Iterator<Item = (Group, AggState)> {
        self.states.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::Value;

    fn g(mask: u32, vals: &[i64]) -> Group {
        Group::new(Mask(mask), vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn n(x: f64) -> AggOutput {
        AggOutput::Number(x)
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_emission_panics() {
        Cube::from_pairs([(g(0b1, &[1]), n(1.0)), (g(0b1, &[1]), n(2.0))]);
    }

    #[test]
    fn diff_reports_missing_extra_differs() {
        let a = Cube::from_pairs([(g(0b1, &[1]), n(1.0)), (g(0b1, &[2]), n(5.0))]);
        let b = Cube::from_pairs([(g(0b1, &[2]), n(6.0)), (g(0b1, &[3]), n(1.0))]);
        let d = a.diff(&b, 1e-9, 10);
        assert_eq!(
            d,
            [
                "missing in other: m1[1] = 1",
                "differs: m1[2]: 5 vs 6",
                "extra in other: m1[3]"
            ]
        );
        assert_eq!(a.diff(&b, 1e-9, 2).len(), 2, "capped");
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn approx_eq_accepts_float_noise() {
        let a = Cube::from_pairs([(g(0b1, &[1]), n(3.0))]);
        let b = Cube::from_pairs([(g(0b1, &[1]), n(3.0 + 1e-12))]);
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn builder_folds_and_finalizes() {
        let mut b = CubeBuilder::new();
        b.update(AggSpec::Sum, g(0b1, &[1]), 2.0);
        b.update(AggSpec::Sum, g(0b1, &[1]), 3.0);
        b.update(AggSpec::Sum, g(0b1, &[2]), 1.0);
        assert_eq!(b.len(), 2);
        let c = b.finish();
        assert_eq!(c.get(&g(0b1, &[1])), Some(&AggOutput::Number(5.0)));
    }

    #[test]
    fn builder_merges_partials() {
        let mut b = CubeBuilder::new();
        b.merge(AggSpec::Count, g(0, &[]), &AggState::Count(4));
        b.merge(AggSpec::Count, g(0, &[]), &AggState::Count(6));
        let c = b.finish();
        assert_eq!(c.get(&g(0, &[])), Some(&AggOutput::Number(10.0)));
    }

    #[test]
    fn cuboids_are_sorted_runs_in_mask_order() {
        let c = Cube::from_pairs([
            (g(0b1, &[2]), n(1.0)),
            (g(0b0, &[]), n(2.0)),
            (g(0b1, &[1]), n(1.0)),
        ]);
        assert_eq!(c.cuboid_len(Mask(0b1)), 2);
        assert_eq!(c.cuboid_len(Mask(0b0)), 1);
        assert_eq!(c.cuboid_len(Mask(0b10)), 0);
        assert!(c.cuboid(Mask(0b10)).is_empty());
        let order: Vec<&Group> = c.iter().map(|(g, _)| g).collect();
        assert_eq!(order, [&g(0b0, &[]), &g(0b1, &[1]), &g(0b1, &[2])]);
        let masks: Vec<Mask> = c.cuboids().map(|(m, _)| m).collect();
        assert_eq!(masks, [Mask(0b0), Mask(0b1)]);
        assert_eq!(c.get(&g(0b1, &[2])), Some(&n(1.0)));
        assert_eq!(c.get(&g(0b1, &[3])), None);
    }
}
