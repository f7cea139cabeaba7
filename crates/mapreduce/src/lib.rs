//! A hand-rolled MapReduce execution engine.
//!
//! The paper's algorithms run on Hadoop over a 20-machine AWS cluster. This
//! crate reproduces the MapReduce *semantics* those algorithms rely on —
//! map tasks over input splits, a byte-accounted shuffle with pluggable
//! partitioning, optional combiners, sorted reduce-side grouping, and a
//! per-machine memory model — as a deterministic, multi-threaded,
//! in-process engine.
//!
//! Two kinds of results come out of a job:
//!
//! 1. **Real output** — jobs actually move `(key, value)` pairs and the
//!    reduce outputs are collected, so cube results are exact and testable.
//! 2. **Metrics** — every record and byte crossing the shuffle is counted,
//!    and a calibrated [`CostModel`] converts the counters into simulated
//!    cluster seconds (map time, shuffle time, reduce time, spill
//!    penalties, per-round startup overhead). Wall-clock of an in-process
//!    simulator cannot reflect network and disk effects, so the experiment
//!    harness reports these simulated seconds; see `DESIGN.md`.
//!
//! The memory model is the paper's: each of the `k` machines has `O(m)`
//! memory, `m = n/k` tuples. A reducer whose working set exceeds memory
//! *spills* (slow, charged to the cost model) — or *fails* if the job
//! declares large groups fatal, which models the Hive reducers that went
//! out of memory on heavily skewed synthetic data (Section 6.2).
// No `unwrap` outside tests; the serving modules arm the full panic set
// (DESIGN.md §8).
#![warn(clippy::unwrap_used)]

pub mod config;
pub mod context;
pub mod cost;
pub mod dfs;
pub mod engine;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod partition;

pub use config::ClusterConfig;
pub use context::{MapContext, ReduceContext};
pub use cost::CostModel;
pub use dfs::Dfs;
pub use engine::{run_job, JobResult};
pub use fault::{Backoff, FaultPlan, MachineFailure, Phase, RetryPolicy, SpeculationConfig};
pub use job::{LargeGroupBehavior, MrJob};
pub use metrics::{JobMetrics, RunMetrics, Stopwatch};
