//! Umbrella crate for the SP-Cube reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See the individual crates for the real APIs:
//! `spcube_core` holds the paper's contribution (SP-Sketch + SP-Cube);
//! `spcube_mapreduce` is the execution substrate; `spcube_baselines` has
//! the Pig/Hive/naive/top-down comparators; `spcube_cubestore` is the
//! persistent columnar cube store and its concurrent query server.

pub use spcube_agg as agg;
pub use spcube_baselines as baselines;
pub use spcube_common as common;
pub use spcube_core as core;
pub use spcube_cubealg as cubealg;
pub use spcube_cubestore as cubestore;
pub use spcube_datagen as datagen;
pub use spcube_lattice as lattice;
pub use spcube_mapreduce as mapreduce;
pub use spcube_obs as obs;

/// The server request for one generated query: the workload generator
/// in `datagen` knows nothing of the cube store's request type.
pub fn request_of(spec: &datagen::QuerySpec) -> cubestore::Request {
    use cubestore::Request;
    use datagen::QuerySpec;
    match spec {
        QuerySpec::Point { mask, key } => Request::Point {
            mask: *mask,
            key: key.clone(),
        },
        QuerySpec::Slice { mask, dim, value } => Request::Slice {
            mask: *mask,
            dim: *dim,
            value: value.clone(),
        },
        QuerySpec::TopK { mask, n } => Request::TopK { mask: *mask, n: *n },
        QuerySpec::RollUp { group, dim } => Request::RollUp {
            group: group.clone(),
            dim: *dim,
        },
        QuerySpec::CuboidLen { mask } => Request::CuboidLen { mask: *mask },
    }
}
