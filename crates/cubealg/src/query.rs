//! Analyst-facing queries over a materialized cube.
//!
//! The cube exists so an analyst can "group the data by every combination
//! of attributes … and discover interesting trends as well as anomalies"
//! (Section 1). [`CubeQuery`] indexes a [`Cube`] by cuboid and provides the
//! classic OLAP moves — inspect a cuboid, slice on a dimension value, drill
//! down along the lattice, rank groups — plus per-cuboid export, mirroring
//! the paper's note that output can be organized as one file per cuboid
//! (Section 3.1).

use std::collections::HashMap;

use spcube_agg::AggOutput;
use spcube_common::{Error, Group, Mask, Result, Value};

use crate::cube::Cube;
use crate::read::check_dim;

/// A cuboid-indexed view over a [`Cube`].
#[derive(Debug)]
pub struct CubeQuery<'a> {
    d: usize,
    by_cuboid: HashMap<Mask, Vec<(&'a Group, &'a AggOutput)>>,
}

impl<'a> CubeQuery<'a> {
    /// Index a cube. `d` is the dimensionality of the source relation.
    pub fn new(cube: &'a Cube, d: usize) -> CubeQuery<'a> {
        let mut by_cuboid: HashMap<Mask, Vec<(&Group, &AggOutput)>> = HashMap::new();
        for (g, v) in cube.iter() {
            by_cuboid.entry(g.mask).or_default().push((g, v));
        }
        for entries in by_cuboid.values_mut() {
            entries.sort_by(|a, b| a.0.cmp(b.0));
        }
        CubeQuery { d, by_cuboid }
    }

    /// Dimensionality of the source relation.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// All groups of one cuboid, sorted by key.
    pub fn cuboid(&self, mask: Mask) -> &[(&'a Group, &'a AggOutput)] {
        self.by_cuboid.get(&mask).map_or(&[], Vec::as_slice)
    }

    /// Number of groups in one cuboid.
    pub fn cuboid_len(&self, mask: Mask) -> usize {
        self.cuboid(mask).len()
    }

    /// Look up a single group's aggregate.
    pub fn group(&self, mask: Mask, key: &[Value]) -> Option<&'a AggOutput> {
        let entries = self.cuboid(mask);
        entries
            .binary_search_by(|(g, _)| g.key.as_ref().cmp(key))
            .ok()
            .map(|i| entries[i].1)
    }

    /// Slice: the groups of `mask` whose value on dimension `dim` equals
    /// `value`. `dim` must be grouped in `mask`.
    pub fn slice(
        &self,
        mask: Mask,
        dim: usize,
        value: &Value,
    ) -> Result<Vec<(&'a Group, &'a AggOutput)>> {
        if !mask.contains(dim) {
            return Err(Error::Config(format!(
                "dimension {dim} is not grouped in cuboid {mask}"
            )));
        }
        let slot = mask.dims().position(|i| i == dim).expect("checked above");
        Ok(self
            .cuboid(mask)
            .iter()
            .filter(|(g, _)| g.key[slot] == *value)
            .copied()
            .collect())
    }

    /// Drill down: from a group `g`, the refined groups of the cuboid that
    /// additionally groups `dim` (Observation 2.5 read upward). Returns the
    /// groups of `g.mask + dim` that project back to `g`. `dim` must be a
    /// dimension of the cube that `g` does not group.
    pub fn drill_down(&self, g: &Group, dim: usize) -> Result<Vec<(&'a Group, &'a AggOutput)>> {
        check_dim(dim, self.d)?;
        if g.mask.contains(dim) {
            return Err(Error::Config(format!(
                "group already grouped on dimension {dim}"
            )));
        }
        let parent = g.mask.with(dim);
        Ok(self
            .cuboid(parent)
            .iter()
            .filter(|(h, _)| h.project(g.mask) == *g)
            .copied()
            .collect())
    }

    /// Roll up: the coarser group obtained by dropping `dim` from `g`.
    pub fn roll_up(&self, g: &Group, dim: usize) -> Result<Option<(&'a Group, &'a AggOutput)>> {
        if !g.mask.contains(dim) {
            return Err(Error::Config(format!(
                "group is not grouped on dimension {dim}"
            )));
        }
        let coarse = g.project(g.mask.without(dim));
        let entries = self.cuboid(coarse.mask);
        Ok(entries
            .binary_search_by(|(h, _)| h.key.cmp(&coarse.key))
            .ok()
            .map(|i| entries[i]))
    }

    /// The `n` largest groups of a cuboid by scalar aggregate, descending.
    /// Top-k outputs are skipped.
    ///
    /// The ranking is fully deterministic: values compare by IEEE-754 total
    /// order (so NaNs sort consistently instead of depending on input
    /// order) and tied values break by group key, ascending. Two runs —
    /// or an in-memory index and the on-disk store — always agree.
    pub fn top(&self, mask: Mask, n: usize) -> Vec<(&'a Group, f64)> {
        let mut scored: Vec<(&Group, f64)> = self
            .cuboid(mask)
            .iter()
            .filter_map(|(g, v)| match v {
                AggOutput::Number(x) => Some((*g, *x)),
                AggOutput::TopK(_) => None,
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        scored.truncate(n);
        scored
    }

    /// Export the cube as one TSV blob per cuboid (Section 3.1's "one file
    /// per cuboid"), keyed `"{prefix}/cuboid-{mask:0>width$b}.tsv"`. Returns
    /// the written paths.
    pub fn export_per_cuboid<W: FnMut(String, String)>(
        &self,
        prefix: &str,
        mut write: W,
    ) -> Vec<String> {
        let mut paths = Vec::new();
        let mut masks: Vec<Mask> = self.by_cuboid.keys().copied().collect();
        masks.sort();
        for mask in masks {
            let path = format!("{prefix}/cuboid-{:0>width$b}.tsv", mask.0, width = self.d);
            let mut body = String::new();
            for (g, v) in self.cuboid(mask) {
                body.push_str(&g.display(self.d));
                body.push('\t');
                body.push_str(&v.to_string());
                body.push('\n');
            }
            write(path.clone(), body);
            paths.push(path);
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_cube;
    use spcube_agg::AggSpec;
    use spcube_common::{Relation, Schema};

    fn cube_and_rel() -> (Cube, Relation) {
        let mut r = Relation::empty(Schema::new(["name", "city", "year"], "sales").unwrap());
        r.push_row(
            vec!["laptop".into(), "Rome".into(), Value::Int(2012)],
            2000.0,
        );
        r.push_row(
            vec!["laptop".into(), "Paris".into(), Value::Int(2012)],
            1500.0,
        );
        r.push_row(
            vec!["laptop".into(), "Rome".into(), Value::Int(2013)],
            900.0,
        );
        r.push_row(
            vec!["printer".into(), "Rome".into(), Value::Int(2011)],
            300.0,
        );
        let c = naive_cube(&r, AggSpec::Sum);
        (c, r)
    }

    #[test]
    fn cuboid_listing_is_sorted_and_complete() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let names = q.cuboid(Mask(0b001));
        assert_eq!(names.len(), 2);
        assert!(names[0].0.key < names[1].0.key);
        assert_eq!(q.cuboid_len(Mask(0b000)), 1);
        assert!(q.cuboid(Mask(0b1000)).is_empty());
    }

    #[test]
    fn group_lookup() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let v = q.group(Mask(0b001), &[Value::str("laptop")]).unwrap();
        assert_eq!(*v, AggOutput::Number(4400.0));
        assert!(q.group(Mask(0b001), &[Value::str("ghost")]).is_none());
    }

    #[test]
    fn slice_filters_on_dimension_value() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        // Cuboid (name, city): slice city = Rome.
        let rows = q.slice(Mask(0b011), 1, &Value::str("Rome")).unwrap();
        assert_eq!(rows.len(), 2); // laptop/Rome, printer/Rome
        assert!(q.slice(Mask(0b001), 1, &Value::str("Rome")).is_err());
    }

    #[test]
    fn drill_down_refines_a_group() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let g = Group::new(Mask(0b001), vec![Value::str("laptop")]);
        // Drill down on year (dim 2).
        let refined = q.drill_down(&g, 2).unwrap();
        assert_eq!(refined.len(), 2); // 2012 and 2013
        let total: f64 = refined.iter().map(|(_, v)| v.number()).sum();
        assert_eq!(total, 4400.0);
        assert!(q.drill_down(&g, 0).is_err());
        // A dimension outside the 3-d cube is refused, never shifted.
        for dim in [3, 40] {
            assert!(q.drill_down(&g, dim).is_err(), "dim {dim}");
        }
    }

    #[test]
    fn roll_up_coarsens_a_group() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let g = Group::new(Mask(0b011), vec![Value::str("laptop"), Value::str("Rome")]);
        let (coarse, v) = q.roll_up(&g, 1).unwrap().unwrap();
        assert_eq!(coarse.display(3), "(laptop,*,*)");
        assert_eq!(v.number(), 4400.0);
        assert!(q.roll_up(&g, 2).is_err());
    }

    #[test]
    fn top_ranks_by_value() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let top = q.top(Mask(0b001), 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0.display(3), "(laptop,*,*)");
        assert_eq!(top[0].1, 4400.0);
    }

    #[test]
    fn export_writes_one_blob_per_cuboid() {
        let (c, _) = cube_and_rel();
        let q = CubeQuery::new(&c, 3);
        let mut blobs: Vec<(String, String)> = Vec::new();
        let paths = q.export_per_cuboid("out", |p, b| blobs.push((p, b)));
        assert_eq!(paths.len(), 8);
        let apex = blobs
            .iter()
            .find(|(p, _)| p.ends_with("cuboid-000.tsv"))
            .unwrap();
        assert_eq!(apex.1.trim(), "(*,*,*)\t4700");
    }
}
