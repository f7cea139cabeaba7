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
//!   columnar store in `spcube-cubestore`).
// No `unwrap` outside tests; the serving modules arm the full panic set
// (DESIGN.md §8).
#![warn(clippy::unwrap_used)]

pub mod buc;
pub mod cube;
pub mod naive;
pub mod query;
pub mod read;

pub use buc::{buc, buc_from, BucConfig};
pub use cube::{Cube, CubeBuilder};
pub use naive::naive_cube;
pub use query::CubeQuery;
pub use read::{check_cuboid, roll_up_cuboid, slice_slot, CubeRead};
