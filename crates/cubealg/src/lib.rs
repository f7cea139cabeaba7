//! Sequential (single-machine) cube machinery.
//!
//! Algorithms:
//!
//! * [`buc()`](buc::buc) — the classic Bottom-Up Cube of Beyer & Ramakrishnan
//!   (SIGMOD'99, cited as \[15\] in the paper), with iceberg (minimum
//!   support) pruning. The paper uses BUC twice: to cube the sample when
//!   building the SP-Sketch (Algorithm 2) and inside each SP-Cube reducer
//!   to compute a non-skewed anchor group together with its ancestors
//!   (Algorithm 3, line 30). Emits into a caller-supplied closure so
//!   reducers can filter emissions (the anchor-assignment check).
//! * [`pipesort()`](pipesort::pipesort) — the top-down pipelined alternative (Agarwal et al.,
//!   cited as \[12\]): an optimal symmetric-chain cover of the lattice, one
//!   sort + one scan per pipeline.
//! * [`naive_cube`] — a hash-based full-enumeration reference (`O(n·2^d)`),
//!   the ground truth every other algorithm in this workspace is tested
//!   against.
//!
//! Around them:
//!
//! * [`Cube`] / [`CubeBuilder`] — materialized results with exactly-once
//!   emission checks and approximate-equality diffing;
//! * [`CubeQuery`] — slice / drill-down / roll-up / top-k and per-cuboid
//!   export;
//! * [`CubeRead`] — the storage-backed query trait: the same OLAP moves
//!   answered by any backend (this in-memory index, or the persistent
//!   columnar store in `spcube-cubestore`);
//! * [`greedy_select`] — HRU partial-materialization view selection
//!   (cited as \[24\]).
// Serving-path crate: panic-free outside tests (see DESIGN.md and the
// spcheck gate). Clippy enforces the unwrap ban; spcheck covers the rest.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Concurrency discipline (PR 8): no mutex-wrapped scalars that should be
// atomics, and no lock guards living inside match/if-let scrutinees.
#![warn(clippy::mutex_atomic)]
#![warn(clippy::significant_drop_in_scrutinee)]

pub mod buc;
pub mod cube;
pub mod naive;
pub mod pipesort;
pub mod query;
pub mod read;
pub mod views;

pub use buc::{buc, buc_from, BucConfig};
pub use cube::{Cube, CubeBuilder};
pub use naive::naive_cube;
pub use pipesort::{pipesort, plan_pipelines, Pipeline};
pub use query::CubeQuery;
pub use read::{roll_up_cuboid, slice_slot, CubeRead};
pub use views::{best_ancestor, cuboid_sizes, greedy_select, CuboidSizes, ViewSelection};
