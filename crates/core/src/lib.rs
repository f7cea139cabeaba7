//! SP-Sketch and SP-Cube — the paper's contribution.
//!
//! This crate implements, on top of the `spcube-mapreduce` engine:
//!
//! * the **SP-Sketch** (Section 4): a per-cuboid summary of the skewed
//!   c-groups and of `k-1` lexicographic partition elements, in an exact
//!   ("utopian") variant and the sampled variant of Algorithm 2;
//! * the **SP-Cube algorithm** (Section 5): a two-round MapReduce cube —
//!   round 1 builds the sketch, round 2 computes the cube with map-side
//!   partial aggregation of skewed groups, sketch-driven range
//!   partitioning, anchor marking to suppress redundant traffic, and
//!   reducer-side BUC over each anchor's ancestors.
//!
//! Entry point: [`SpCube::run`] (or [`sp_cube`] for defaults).
//!
//! ```
//! use spcube_core::{sp_cube, SpCubeConfig};
//! use spcube_mapreduce::ClusterConfig;
//! use spcube_agg::AggSpec;
//! use spcube_common::{Relation, Schema, Value};
//!
//! let mut rel = Relation::empty(Schema::new(["name", "city"], "sales").unwrap());
//! rel.push_row(vec!["laptop".into(), "Rome".into()], 2000.0);
//! rel.push_row(vec!["laptop".into(), "Paris".into()], 1500.0);
//! let cluster = ClusterConfig::new(4, 10);
//! let run = sp_cube(&rel, &cluster, AggSpec::Sum).unwrap();
//! assert_eq!(run.cube.len(), 6); // distinct groups across the 4 cuboids
//! ```
// No `unwrap` outside tests; the serving modules arm the full panic set
// (DESIGN.md §8).
#![warn(clippy::unwrap_used)]

pub mod analysis;
pub mod sketch;
pub mod spcube;

pub use analysis::{forecast_cube_round, TrafficForecast};
pub use sketch::{
    build_exact_sketch, build_sampled_sketch, PartitionStrategy, SketchConfig, SketchNode, SpSketch,
};
pub use spcube::{sp_cube, SpCube, SpCubeConfig, SpCubeRun, SpCubeStoreRun};
