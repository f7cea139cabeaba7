//! CubeStore: a persistent columnar cube store with a concurrent
//! query-serving front-end.
//!
//! SP-Cube materializes all `2^d` cuboids so that any group-by can be
//! answered instantly — but a cube that lives only in the memory of the
//! job that built it answers nothing once that job exits. This crate is
//! the missing read path, turning the cube into a serving substrate (the
//! framing of Sundararajan & Yan, arXiv:1709.10072, and Wang et al.,
//! arXiv:1311.5663):
//!
//! * **[`codec`]** — shared binary primitives in the SP-Sketch codec
//!   style: 5-byte magics, little-endian integers, tagged values, and a
//!   trailing 64-bit XXH64 checksum on every blob.
//! * **[`segment`]** — one columnar blob per cuboid (the paper's
//!   one-file-per-cuboid layout, Section 3.1): dictionary-encoded
//!   dimension columns, a sparse first-key index, and per-block zone
//!   maps.
//! * **[`manifest`]** — the commit metadata: cube shape, generation
//!   number, and the segment directory, checksummed like everything else.
//! * **[`blob`]** — storage behind it all (put/get/list/delete): the
//!   simulated DFS from `spcube-mapreduce` (store traffic lands in the
//!   same byte accounting as shuffle traffic, and its fault hooks inject
//!   corruption) or a real directory for the CLI, whose writes are
//!   crash-atomic via temp-file + fsync + rename.
//! * **[`store`]** — [`write_store`] persists a cube as a new
//!   **generation**, sealed by its own manifest and committed by one
//!   atomic root-manifest write — the commit routine every generation,
//!   delta layers included, goes through; [`CubeStore`] answers the
//!   [`CubeRead`](spcube_cubealg::CubeRead) OLAP operations from segments
//!   through an LRU hot-cuboid cache with hit/miss counters. A corrupt
//!   segment degrades to a cached recompute; the store never rewrites
//!   it — repair belongs to [`scrub`], and load shedding to [`client`].
//! * **[`recover`]** — crash recovery and the degraded path:
//!   [`scan_store`] picks the newest fully sealed generation, flags torn
//!   commits, and finds orphan blobs to quarantine; a segment that fails
//!   its checksum at query time is recomputed BUC-style from the raw
//!   relation instead of failing the query (the same
//!   graceful-degradation stance the SP-Cube driver takes when its
//!   sketch is lost).
//! * **[`server`]** — [`CubeServer`]: a fixed worker pool over a bounded
//!   request queue with typed overload rejection, serving point / slice /
//!   top-k / roll-up requests concurrently from one shared store.
//! * **[`delta`]** — incremental maintenance: [`ingest_batch`] cubes an
//!   appended batch and publishes it as a new delta **layer** (mergeable
//!   `AggState` segments, `DSEG1`) through the same commit routine;
//!   [`CubeStore`] merges states across the live chain at read
//!   time, bit-exact versus a from-scratch rebuild; a [`Compactor`] folds
//!   small layers back together under a size-tiered policy.
//!   [`ingest_batch_with_id`] adds exactly-once semantics — batch IDs
//!   ride the manifest chain and a replay is a typed
//!   [`IngestOutcome::AlreadyApplied`] no-op — and an [`IngestSession`]
//!   retries injected write faults and I/O errors with bounded backoff.
//! * **[`faults`]** — seeded, deterministic fault injection for both
//!   sides of the blob API: [`FaultyBlobs`], the one fault-injecting
//!   wrapper, draws transient failures, sticky outages (read and write),
//!   latency spikes, and torn staged writes from the pure `preview`
//!   functions it decides with, and can crash a write at one exact
//!   operation or byte offset per a [`CrashPlan`]; [`schedules`]
//!   enumerates every crash plan of a recorded commit for the crash
//!   matrices. Its oplog, stats and obs counters always agree.
//! * **[`scrub`]** — the background integrity scrubber: a [`Scrubber`]
//!   walks the live generation chain re-verifying every blob checksum
//!   and zone-map invariant, quarantines bit-rot (copy-aside, never
//!   delete), and repairs segments in place by recompute (Output stores)
//!   or intra-layer rollup (State stores).
// Serving-path crate: no panic source outside tests (DESIGN.md §8).
// `segment` opts out with a reasoned `expect`; this file is re-exports.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod blob;
pub mod cache;
pub mod client;
pub mod codec;
pub mod delta;
pub mod faults;
pub mod manifest;
pub mod recover;
pub mod scrub;
pub mod segment;
pub mod server;
pub mod store;

pub use blob::{BlobStore, DirBlobs};
pub use cache::SegmentCache;
pub use client::{ClientConfig, ClientStats, ResilientClient};
pub use delta::{
    batch_content_id, compact, ingest_batch, ingest_batch_with_id, ingest_states,
    ingest_states_with_id, merged_cuboid, state_cube, CompactReport, CompactionPolicy, Compactor,
    DeltaWriteReport, IngestConfig, IngestOutcome, IngestSession, IngestStats, StateCube,
    StateSegment,
};
pub use faults::{
    schedules, CrashPlan, FaultKind, FaultRecord, FaultSchedule, FaultStats, FaultyBlobs, OpKind,
    OpRecord, TornWrite,
};
pub use manifest::{
    gen_manifest_path, gen_prefix, manifest_path, parse_generation, quarantine_path, segment_path,
    state_segment_path, Manifest, ManifestEntry, StoreKind,
};
pub use recover::{recompute_cuboid, scan_store, GenerationInfo, ScanReport};
pub use scrub::{ScrubConfig, ScrubFinding, ScrubReport, Scrubber};
pub use segment::Segment;
pub use server::{
    answer, Answer, Attempt, CubeServer, Deadline, Request, Response, ServeError, ServerConfig,
    ServerStats,
};
pub use store::{write_store, CubeStore, StoreStats, StoreWriteReport, DEFAULT_CACHE_SEGMENTS};
