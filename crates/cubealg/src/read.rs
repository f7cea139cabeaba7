//! The storage-backed query interface.
//!
//! [`CubeRead`] abstracts "something that can answer OLAP queries about a
//! materialized cube" away from *where the cube lives*. The in-memory
//! [`CubeQuery`] index implements it, and so does the persistent columnar
//! store in `spcube-cubestore` — which is the point: the serving layer,
//! the CLI, and the round-trip tests are written once against this trait
//! and run unchanged over either backend, so "store answers == in-memory
//! answers" is checkable by construction.
//!
//! Methods return owned rows (a store decodes them from disk; holding
//! borrows across a cache would be unsound), and the lattice-edge error
//! semantics are fixed by the provided methods so every backend agrees:
//! slicing on an ungrouped dimension, drilling down on an already-grouped
//! dimension, or rolling up on an ungrouped dimension are errors — not
//! empty results — on every implementation.
// Serving path: no panic source outside tests (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use spcube_agg::AggOutput;
use spcube_common::{Error, Group, Mask, Result, Value};

use crate::query::CubeQuery;

/// Read-side OLAP operations over a materialized cube, independent of
/// whether the cube is in memory or on disk.
pub trait CubeRead {
    /// Dimensionality of the source relation.
    fn dims(&self) -> usize;

    /// All groups of one cuboid, sorted ascending by key. An empty (or
    /// absent) cuboid is an empty vector, not an error.
    fn cuboid_rows(&self, mask: Mask) -> Result<Vec<(Group, AggOutput)>>;

    /// Look up a single group's aggregate.
    fn point(&self, mask: Mask, key: &[Value]) -> Result<Option<AggOutput>>;

    /// Number of groups in one cuboid.
    fn cuboid_len(&self, mask: Mask) -> Result<usize> {
        Ok(self.cuboid_rows(mask)?.len())
    }

    /// Slice: the groups of `mask` whose value on dimension `dim` equals
    /// `value`. Errors if `dim` is not grouped in `mask`.
    fn slice(&self, mask: Mask, dim: usize, value: &Value) -> Result<Vec<(Group, AggOutput)>> {
        let slot = slice_slot(mask, dim)?;
        let mut rows = self.cuboid_rows(mask)?;
        rows.retain(|(g, _)| g.key.get(slot) == Some(value));
        Ok(rows)
    }

    /// Drill down: the groups of `g.mask + dim` that project back to `g`.
    /// Errors if `dim` is outside the cube or already grouped in `g`.
    fn drill_down(&self, g: &Group, dim: usize) -> Result<Vec<(Group, AggOutput)>> {
        check_dim(dim, self.dims())?;
        if g.mask.contains(dim) {
            return Err(Error::Config(format!(
                "group already grouped on dimension {dim}"
            )));
        }
        let mut rows = self.cuboid_rows(g.mask.with(dim))?;
        rows.retain(|(h, _)| h.project(g.mask) == *g);
        Ok(rows)
    }

    /// Roll up: the coarser group obtained by dropping `dim` from `g`.
    /// Errors if `g`'s cuboid is outside the cube or `dim` is not grouped
    /// in `g`.
    fn roll_up(&self, g: &Group, dim: usize) -> Result<Option<(Group, AggOutput)>> {
        check_cuboid(g.mask, self.dims())?;
        let coarse = g.project(roll_up_cuboid(g, dim)?);
        let found = self.point(coarse.mask, &coarse.key)?;
        Ok(found.map(|v| (coarse, v)))
    }

    /// The `n` largest groups of a cuboid by scalar aggregate, descending
    /// by IEEE-754 total order, ties broken by key ascending — the same
    /// deterministic order as [`CubeQuery::top`]. Top-k outputs are
    /// skipped.
    fn top(&self, mask: Mask, n: usize) -> Result<Vec<(Group, f64)>> {
        let mut scored: Vec<(Group, f64)> = self
            .cuboid_rows(mask)?
            .into_iter()
            .filter_map(|(g, v)| match v {
                AggOutput::Number(x) => Some((g, x)),
                AggOutput::TopK(_) => None,
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        Ok(scored)
    }
}

/// `Ok` when `mask` names a cuboid of a `dims`-dimensional cube, or the
/// shared out-of-range error: every read that names a cuboid refuses one
/// outside the cube rather than answering it as empty.
pub fn check_cuboid(mask: Mask, dims: usize) -> Result<()> {
    if mask.is_subset_of(Mask::full(dims)) {
        Ok(())
    } else {
        Err(Error::Config(format!(
            "cuboid {mask} is outside the store's {dims} dimensions"
        )))
    }
}

/// `Ok` when `dim` is a dimension of a `dims`-dimensional cube, or the
/// shared out-of-range error: a drill-down never builds a mask past the
/// cube (nor shifts past a mask's bits).
pub(crate) fn check_dim(dim: usize, dims: usize) -> Result<()> {
    if dim < dims {
        Ok(())
    } else {
        Err(Error::Config(format!(
            "dimension {dim} is outside the cube's {dims} dimensions"
        )))
    }
}

/// The key slot of dimension `dim` within `mask`, or the shared
/// slice-on-ungrouped-dimension error.
pub fn slice_slot(mask: Mask, dim: usize) -> Result<usize> {
    mask.dims()
        .position(|i| i == dim)
        .ok_or_else(|| Error::Config(format!("dimension {dim} is not grouped in cuboid {mask}")))
}

/// The coarser cuboid a roll-up of `g` on `dim` reads, or the shared
/// roll-up-on-ungrouped-dimension error.
pub fn roll_up_cuboid(g: &Group, dim: usize) -> Result<Mask> {
    if g.mask.contains(dim) {
        Ok(g.mask.without(dim))
    } else {
        Err(Error::Config(format!(
            "group is not grouped on dimension {dim}"
        )))
    }
}

impl CubeRead for CubeQuery<'_> {
    fn dims(&self) -> usize {
        CubeQuery::dims(self)
    }

    fn cuboid_rows(&self, mask: Mask) -> Result<Vec<(Group, AggOutput)>> {
        check_cuboid(mask, CubeQuery::dims(self))?;
        Ok(self
            .cuboid(mask)
            .iter()
            .map(|(g, v)| ((*g).clone(), (*v).clone()))
            .collect())
    }

    fn point(&self, mask: Mask, key: &[Value]) -> Result<Option<AggOutput>> {
        check_cuboid(mask, CubeQuery::dims(self))?;
        Ok(self.group(mask, key).cloned())
    }

    fn cuboid_len(&self, mask: Mask) -> Result<usize> {
        check_cuboid(mask, CubeQuery::dims(self))?;
        Ok(CubeQuery::cuboid_len(self, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_cube;
    use spcube_agg::AggSpec;
    use spcube_common::{Relation, Schema};

    fn sample() -> (crate::Cube, usize) {
        let mut r = Relation::empty(Schema::synthetic(3));
        for (dims, m) in [
            ([1i64, 1, 2], 1.0),
            ([1, 2, 2], 2.0),
            ([1, 1, 3], 3.0),
            ([2, 1, 2], 4.0),
        ] {
            r.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), m);
        }
        (naive_cube(&r, AggSpec::Sum), 3)
    }

    #[test]
    fn trait_answers_match_inherent_methods() {
        let (cube, d) = sample();
        let q = CubeQuery::new(&cube, d);
        let read: &dyn CubeRead = &q;
        for mask in Mask::full(d).subsets() {
            assert_eq!(read.cuboid_len(mask).expect("len"), q.cuboid_len(mask));
            let rows = read.cuboid_rows(mask).expect("rows");
            let inherent = q.cuboid(mask);
            assert_eq!(rows.len(), inherent.len());
            for ((g, v), (hg, hv)) in rows.iter().zip(inherent) {
                assert_eq!(g, *hg);
                assert_eq!(v, *hv);
                assert_eq!(read.point(mask, &g.key).expect("point").as_ref(), Some(*hv));
            }
            let top_t = read.top(mask, 3).expect("top");
            let top_i = q.top(mask, 3);
            assert_eq!(top_t.len(), top_i.len());
            for ((g, x), (hg, hx)) in top_t.iter().zip(top_i) {
                assert_eq!(g, hg);
                assert_eq!(*x, hx);
            }
        }
    }

    #[test]
    fn default_slice_and_lattice_moves_match() {
        let (cube, d) = sample();
        let q = CubeQuery::new(&cube, d);
        let read: &dyn CubeRead = &q;
        let mask = Mask(0b011);
        let sliced = read.slice(mask, 0, &Value::Int(1)).expect("slice");
        let inherent = q.slice(mask, 0, &Value::Int(1)).expect("slice");
        assert_eq!(sliced.len(), inherent.len());
        assert!(read.slice(mask, 2, &Value::Int(1)).is_err());

        let g = Group::new(Mask(0b001), vec![Value::Int(1)]);
        let down = read.drill_down(&g, 1).expect("drill");
        assert_eq!(down.len(), q.drill_down(&g, 1).expect("drill").len());
        assert!(read.drill_down(&g, 0).is_err());
        // A dimension outside the 3-d cube is refused, never shifted.
        for dim in [3, 40] {
            assert!(read.drill_down(&g, dim).is_err(), "dim {dim}");
        }

        let fine = Group::new(Mask(0b011), vec![Value::Int(1), Value::Int(1)]);
        let (coarse, v) = read.roll_up(&fine, 1).expect("roll").expect("group");
        let (cg, cv) = q.roll_up(&fine, 1).expect("roll").expect("group");
        assert_eq!(coarse, *cg);
        assert_eq!(v, *cv);
        assert!(read.roll_up(&fine, 2).is_err());
    }

    #[test]
    fn slice_slot_maps_dimensions_to_key_positions() {
        assert_eq!(slice_slot(Mask(0b101), 0).expect("slot"), 0);
        assert_eq!(slice_slot(Mask(0b101), 2).expect("slot"), 1);
        assert!(slice_slot(Mask(0b101), 1).is_err());
    }
}
