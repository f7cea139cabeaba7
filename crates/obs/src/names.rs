//! The instrument/span naming contract.
//!
//! Every obs name is a lowercase dotted identifier
//! (`[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*`) registered exactly once — as a
//! constant in this module. Call sites refer to the constants; spcheck's
//! `obs_naming` rule rejects string literals in obs-call position outside
//! this crate, so a name cannot quietly fork into two spellings. Keep
//! [`ALL`] in sync: the unit test below checks grammar and uniqueness of
//! everything listed there.

/// One MapReduce round (span; labels: `job`).
pub const ENGINE_ROUND: &str = "engine.round";
/// One simulated task (span; labels: `phase`, `task`; attrs: `sim_s`).
pub const ENGINE_TASK: &str = "engine.task";
/// Simulated task seconds (histogram; labels: `phase`).
pub const ENGINE_TASK_SECONDS: &str = "engine.task.seconds";
/// A failed attempt was retried (event; labels: `phase`, `task`).
pub const ENGINE_TASK_RETRY: &str = "engine.task.retry";
/// A speculative backup launched (event; labels: `phase`, `task`).
pub const ENGINE_TASK_SPECULATE: &str = "engine.task.speculate";
/// A machine was lost mid-round (event; labels: `phase`, `machine`).
pub const ENGINE_MACHINE_LOST: &str = "engine.machine.lost";

/// SP-Sketch build time in simulated seconds (gauge).
pub const SPCUBE_SKETCH_SECONDS: &str = "spcube.sketch.seconds";
/// Skewed groups the sketch found (counter; labels: `cuboid`).
pub const SPCUBE_SKETCH_SKEWED: &str = "spcube.sketch.skewed_groups";
/// Cuboid level (set-bit count) anchors were placed at (histogram).
pub const SPCUBE_ANCHOR_LEVEL: &str = "spcube.anchor.level";
/// Shuffle bytes a cube-round reducer received (gauge; labels: `reducer`).
pub const SPCUBE_REDUCER_LOAD: &str = "spcube.reducer.load";
/// Max/mean reducer load of the cube round, skew reducer excluded (gauge).
pub const SPCUBE_REDUCER_IMBALANCE: &str = "spcube.reducer.imbalance";
/// The driver fell back to the degraded hash-partitioned plan (event).
pub const SPCUBE_DEGRADED: &str = "spcube.degraded";

/// Query answered from a cached decoded segment (counter).
pub const STORE_CACHE_HIT: &str = "store.cache.hit";
/// Query had to fetch/decode or recompute a segment (counter).
pub const STORE_CACHE_MISS: &str = "store.cache.miss";
/// A segment was served via BUC recompute (event; labels: `cuboid`).
pub const STORE_DEGRADE_RECOMPUTE: &str = "store.degrade.recompute";
/// A torn root pointer was repaired at open (event).
pub const STORE_COMMIT_TORN: &str = "store.commit.torn";
/// An orphan blob was quarantined at open (event; labels: `path`).
pub const STORE_BLOB_QUARANTINED: &str = "store.blob.quarantined";
/// A CrashPoint fired (event; labels: `op`, `path`, `torn`).
pub const STORE_CRASH_INJECT: &str = "store.crash.inject";

/// Served query latency in microseconds (histogram).
pub const SERVE_QUERY_US: &str = "serve.query.us";
/// A query missed its deadline (counter + event; labels: `stage`).
pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline.exceeded";
/// The client launched a hedged second attempt (counter + event).
pub const SERVE_HEDGE_FIRED: &str = "serve.hedge.fired";
/// A hedged attempt answered before the primary (counter + event).
pub const SERVE_HEDGE_WON: &str = "serve.hedge.won";
/// A per-cuboid serve circuit breaker opened (counter + event; labels:
/// `cuboid`).
pub const SERVE_BREAKER_OPEN: &str = "serve.breaker.open";
/// An open serve circuit breaker refused a query without reaching the
/// server (counter + event; labels: `cuboid`).
pub const SERVE_BREAKER_SHED: &str = "serve.breaker.shed";
/// FaultyBlobs injected a read fault (counter + event; labels: `kind`,
/// `path`).
pub const STORE_FAULT_INJECTED: &str = "store.fault.injected";

/// Live layer count of an incremental store (gauge).
pub const STORE_LAYER_COUNT: &str = "store.layer.count";
/// A delta batch was ingested as a new layer (counter + event).
pub const STORE_DELTA_INGEST: &str = "store.delta.ingest";
/// Wall microseconds one delta ingest took, cube + commit (histogram).
pub const STORE_DELTA_INGEST_US: &str = "store.delta.ingest.us";
/// Rows written into a delta layer's state segments (counter).
pub const STORE_DELTA_ROWS: &str = "store.delta.rows";
/// A compaction folded delta layers into a new base (counter + event).
pub const STORE_COMPACT_RUN: &str = "store.compact.run";
/// Layers folded away by compactions (counter).
pub const STORE_COMPACT_FOLDED: &str = "store.compact.folded_layers";
/// Wall microseconds one compaction took, merge + commit (histogram).
pub const STORE_COMPACT_US: &str = "store.compact.us";

/// An IngestSession retried after a retryable failure (counter + event;
/// labels: `attempt`, `op`).
pub const STORE_INGEST_RETRY: &str = "store.ingest.retry";
/// A replayed batch ID was answered as a typed no-op (counter + event;
/// labels: `batch_id`, `generation`).
pub const STORE_INGEST_DEDUP: &str = "store.ingest.dedup";
/// A scrub pass over the live chain ran (counter + event; labels:
/// `generation`).
pub const STORE_SCRUB_RUN: &str = "store.scrub.run";
/// Blobs a scrub pass re-verified (counter).
pub const STORE_SCRUB_CHECKED: &str = "store.scrub.checked";
/// Blobs a scrub pass found corrupt (counter + event; labels: `path`,
/// `what`).
pub const STORE_SCRUB_CORRUPT: &str = "store.scrub.corrupt";
/// Corrupt blobs copied aside for post-mortem (counter; labels: `path`).
pub const STORE_SCRUB_QUARANTINED: &str = "store.scrub.quarantined";
/// Corrupt blobs repaired in place (counter + event; labels: `path`).
pub const STORE_SCRUB_REPAIRED: &str = "store.scrub.repaired";
/// Corrupt blobs the scrubber could not repair (counter; labels: `path`).
pub const STORE_SCRUB_UNREPAIRABLE: &str = "store.scrub.unrepairable";
/// Wall microseconds one scrub pass took (histogram).
pub const STORE_SCRUB_US: &str = "store.scrub.us";

/// Root span of one profiled query's flight trace (span).
pub const SERVE_PHASE_TOTAL: &str = "serve.phase.total";
/// Admission-to-dequeue wait in the bounded queue (span).
pub const SERVE_PHASE_QUEUE_WAIT: &str = "serve.phase.queue_wait";
/// Residual latency not charged to queue/IO/decode/merge (span).
pub const SERVE_PHASE_FINALIZE: &str = "serve.phase.finalize";
/// A profiled client attempt was retried (event; label: `attempt`).
pub const SERVE_PHASE_RETRY: &str = "serve.phase.retry";
/// A profiled query ended in a typed error (event).
pub const SERVE_PHASE_ERROR: &str = "serve.phase.error";
/// One blob fetch on the profiled read path (span; label: `cuboid` or
/// `layer`).
pub const STORE_FLIGHT_BLOB_IO: &str = "store.flight.blob_io";
/// One segment decode on the profiled read path (span).
pub const STORE_FLIGHT_DECODE: &str = "store.flight.decode";
/// One layered state merge on the profiled read path (span).
pub const STORE_FLIGHT_MERGE: &str = "store.flight.merge";
/// Tail-sampled flight traces persisted to the kept buffer (counter).
pub const STORE_FLIGHT_KEPT: &str = "store.flight.kept";
/// Finished flight traces dropped at ring granularity (counter).
pub const STORE_FLIGHT_DROPPED: &str = "store.flight.dropped";

/// Every registered name — the single source the naming test audits.
pub const ALL: &[&str] = &[
    ENGINE_ROUND,
    ENGINE_TASK,
    ENGINE_TASK_SECONDS,
    ENGINE_TASK_RETRY,
    ENGINE_TASK_SPECULATE,
    ENGINE_MACHINE_LOST,
    SPCUBE_SKETCH_SECONDS,
    SPCUBE_SKETCH_SKEWED,
    SPCUBE_ANCHOR_LEVEL,
    SPCUBE_REDUCER_LOAD,
    SPCUBE_REDUCER_IMBALANCE,
    SPCUBE_DEGRADED,
    STORE_CACHE_HIT,
    STORE_CACHE_MISS,
    STORE_DEGRADE_RECOMPUTE,
    STORE_COMMIT_TORN,
    STORE_BLOB_QUARANTINED,
    STORE_CRASH_INJECT,
    SERVE_QUERY_US,
    SERVE_DEADLINE_EXCEEDED,
    SERVE_HEDGE_FIRED,
    SERVE_HEDGE_WON,
    SERVE_BREAKER_OPEN,
    SERVE_BREAKER_SHED,
    STORE_FAULT_INJECTED,
    STORE_LAYER_COUNT,
    STORE_DELTA_INGEST,
    STORE_DELTA_INGEST_US,
    STORE_DELTA_ROWS,
    STORE_COMPACT_RUN,
    STORE_COMPACT_FOLDED,
    STORE_COMPACT_US,
    STORE_INGEST_RETRY,
    STORE_INGEST_DEDUP,
    STORE_SCRUB_RUN,
    STORE_SCRUB_CHECKED,
    STORE_SCRUB_CORRUPT,
    STORE_SCRUB_QUARANTINED,
    STORE_SCRUB_REPAIRED,
    STORE_SCRUB_UNREPAIRABLE,
    STORE_SCRUB_US,
    SERVE_PHASE_TOTAL,
    SERVE_PHASE_QUEUE_WAIT,
    SERVE_PHASE_FINALIZE,
    SERVE_PHASE_RETRY,
    SERVE_PHASE_ERROR,
    STORE_FLIGHT_BLOB_IO,
    STORE_FLIGHT_DECODE,
    STORE_FLIGHT_MERGE,
    STORE_FLIGHT_KEPT,
    STORE_FLIGHT_DROPPED,
];

/// Whether `s` is a lowercase dotted identifier:
/// `[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_matches_the_grammar_and_is_unique() {
        let mut seen = BTreeSet::new();
        for name in ALL {
            assert!(valid_name(name), "bad obs name: {name}");
            assert!(seen.insert(*name), "duplicate obs name: {name}");
        }
    }

    #[test]
    fn grammar_rejects_the_usual_suspects() {
        for bad in [
            "",
            "Engine.round",
            "engine..round",
            "engine.",
            ".round",
            "engine round",
            "engine.Röund",
            "9engine",
            "engine.9task",
            "a-b",
        ] {
            assert!(!valid_name(bad), "accepted bad name: {bad}");
        }
        for good in ["a", "a.b", "engine.task.retry", "a1.b_2"] {
            assert!(valid_name(good), "rejected good name: {good}");
        }
    }
}
