//! Benchmark harness regenerating the paper's evaluation (Section 6).
//!
//! The `figures` binary drives one [`experiments`] entry per paper figure;
//! each produces the same series the figure plots (running time, average
//! map/reduce time, map-output size, SP-Sketch size), prints them as
//! tables, and writes CSV rows under `bench_results/`. Wall-clock timings
//! of the build and serving layers live in the separate `cubebench`
//! workspace, the one harness that measures serving.
//!
//! Scaling: experiments run the real algorithms end-to-end on inputs scaled
//! down from the paper's (millions instead of hundreds of millions of
//! rows); the engine's cost model is scaled correspondingly (see
//! `spcube_mapreduce::CostModel::paper_scale`), so the reported "seconds"
//! are simulated cluster seconds whose *relative* behaviour is the
//! reproduction target. EXPERIMENTS.md records paper-vs-measured for every
//! figure.

pub mod experiments;
pub mod report;
pub mod runner;

pub use report::{write_csv, Table};
pub use runner::{run_algo, Algo, Measurement, Workload};
