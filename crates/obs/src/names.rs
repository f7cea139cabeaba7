//! The instrument/span naming contract.
//!
//! Every obs name is a lowercase dotted identifier
//! (`[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*`) registered exactly once — as a
//! [`Name`] constant in this module. Every obs method takes a [`Name`],
//! and only this crate can make one, so a literal name at a call site
//! does not compile and a name cannot quietly fork into two spellings.
//! One macro defines the constants and [`ALL`] from the same list, so
//! the unit test below checks grammar and uniqueness of every name.

use std::fmt;

/// A registered instrument or span name. Its constructor is private to
/// this crate: outside it, the only names are the constants below.
///
/// ```compile_fail
/// spcube_obs::ObsHandle::default().inc("store.cache.hit", &[]);
/// ```
///
/// ```
/// use spcube_obs::{names, ObsHandle};
/// ObsHandle::default().inc(names::STORE_CACHE_HIT, &[]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(&'static str);

impl Name {
    /// A name outside the registry, for this crate's own tests.
    #[cfg(test)]
    pub(crate) const fn unregistered(s: &'static str) -> Name {
        Name(s)
    }

    /// The dotted name as text.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Define each name constant and [`ALL`] from one list.
macro_rules! define_names {
    ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $id: Name = Name($name);)*

        /// Every registered name — the single source the naming test audits.
        pub const ALL: &[Name] = &[$($id),*];
    };
}

define_names! {
    /// Root span of one MapReduce round's flight trace (labels: `job`,
    /// `reducers`; attrs: `sim_s`, or `error` when the round failed).
    ENGINE_ROUND = "engine.round";
    /// A round's map phase, map-side recovery included (flight span).
    ENGINE_PHASE_MAP = "engine.phase.map";
    /// A round's shuffle, sort and reduce phase (flight span).
    ENGINE_PHASE_REDUCE = "engine.phase.reduce";
    /// Simulated task seconds (histogram; labels: `phase`).
    ENGINE_TASK_SECONDS = "engine.task.seconds";
    /// A failed attempt was retried (flight event; label: `task`).
    ENGINE_TASK_RETRY = "engine.task.retry";
    /// A speculative backup launched (flight event; label: `task`).
    ENGINE_TASK_SPECULATE = "engine.task.speculate";
    /// A machine was lost mid-round (flight event; label: `machine`).
    ENGINE_MACHINE_LOST = "engine.machine.lost";

    /// SP-Sketch build time in simulated seconds (gauge).
    SPCUBE_SKETCH_SECONDS = "spcube.sketch.seconds";
    /// Skewed groups the sketch found (counter; labels: `cuboid`).
    SPCUBE_SKETCH_SKEWED = "spcube.sketch.skewed_groups";
    /// Cuboid level (set-bit count) anchors were placed at (histogram).
    SPCUBE_ANCHOR_LEVEL = "spcube.anchor.level";
    /// Shuffle bytes a cube-round reducer received (gauge; labels: `reducer`).
    SPCUBE_REDUCER_LOAD = "spcube.reducer.load";
    /// Max/mean reducer load of the cube round, skew reducer excluded (gauge).
    SPCUBE_REDUCER_IMBALANCE = "spcube.reducer.imbalance";
    /// The driver fell back to the degraded hash-partitioned plan (counter).
    SPCUBE_DEGRADED = "spcube.degraded";

    /// Query answered from a cached decoded segment (counter).
    STORE_CACHE_HIT = "store.cache.hit";
    /// Query had to fetch/decode or recompute a segment (counter).
    STORE_CACHE_MISS = "store.cache.miss";
    /// A segment was served via BUC recompute (counter).
    STORE_DEGRADE_RECOMPUTE = "store.degrade.recompute";
    /// A torn root pointer was repaired at open (counter).
    STORE_COMMIT_TORN = "store.commit.torn";
    /// An orphan blob was quarantined at open (counter).
    STORE_BLOB_QUARANTINED = "store.blob.quarantined";

    /// Served query latency in microseconds (histogram).
    SERVE_QUERY_US = "serve.query.us";
    /// A query missed its deadline (counter; flight event).
    SERVE_DEADLINE_EXCEEDED = "serve.deadline.exceeded";
    /// The client launched a hedged second attempt (counter; flight event).
    SERVE_HEDGE_FIRED = "serve.hedge.fired";
    /// A hedged attempt answered before the primary (counter; flight
    /// event).
    SERVE_HEDGE_WON = "serve.hedge.won";
    /// A per-cuboid serve circuit breaker opened (counter; flight event
    /// with label `cuboid`).
    SERVE_BREAKER_OPEN = "serve.breaker.open";
    /// An open serve circuit breaker refused a query without reaching the
    /// server (counter; flight event with label `cuboid`).
    SERVE_BREAKER_SHED = "serve.breaker.shed";
    /// FaultyBlobs injected a fault, a planned crash included (counter;
    /// labels: `kind`, `op`; flight event with label `kind` inside a
    /// recorded query).
    STORE_FAULT_INJECTED = "store.fault.injected";

    /// Live layer count of an incremental store (gauge).
    STORE_LAYER_COUNT = "store.layer.count";
    /// A delta batch was ingested as a new layer (counter).
    STORE_DELTA_INGEST = "store.delta.ingest";
    /// Wall microseconds one delta ingest took, cube + commit (histogram).
    STORE_DELTA_INGEST_US = "store.delta.ingest.us";
    /// Rows written into a delta layer's state segments (counter).
    STORE_DELTA_ROWS = "store.delta.rows";
    /// A compaction folded delta layers into a new base (counter).
    STORE_COMPACT_RUN = "store.compact.run";
    /// Layers folded away by compactions (counter).
    STORE_COMPACT_FOLDED = "store.compact.folded_layers";
    /// Wall microseconds one compaction took, merge + commit (histogram).
    STORE_COMPACT_US = "store.compact.us";

    /// An IngestSession retried after a retryable failure (counter).
    STORE_INGEST_RETRY = "store.ingest.retry";
    /// A replayed batch ID was answered as a typed no-op (counter).
    STORE_INGEST_DEDUP = "store.ingest.dedup";
    /// A scrub pass over the live chain ran (counter).
    STORE_SCRUB_RUN = "store.scrub.run";
    /// Blobs a scrub pass re-verified (counter).
    STORE_SCRUB_CHECKED = "store.scrub.checked";
    /// Blobs a scrub pass found corrupt (counter).
    STORE_SCRUB_CORRUPT = "store.scrub.corrupt";
    /// Corrupt blobs copied aside for post-mortem (counter; labels: `path`).
    STORE_SCRUB_QUARANTINED = "store.scrub.quarantined";
    /// Corrupt blobs repaired in place (counter).
    STORE_SCRUB_REPAIRED = "store.scrub.repaired";
    /// Corrupt blobs the scrubber could not repair (counter; labels: `path`).
    STORE_SCRUB_UNREPAIRABLE = "store.scrub.unrepairable";
    /// Wall microseconds one scrub pass took (histogram).
    STORE_SCRUB_US = "store.scrub.us";

    /// Root span of one profiled query's flight trace (span).
    SERVE_PHASE_TOTAL = "serve.phase.total";
    /// Admission-to-dequeue wait in the bounded queue (span).
    SERVE_PHASE_QUEUE_WAIT = "serve.phase.queue_wait";
    /// Residual latency not charged to queue/IO/decode/merge (span).
    SERVE_PHASE_FINALIZE = "serve.phase.finalize";
    /// A profiled client attempt was retried (flight event; label:
    /// `attempt`).
    SERVE_PHASE_RETRY = "serve.phase.retry";
    /// A profiled query ended in a typed error (flight event).
    SERVE_PHASE_ERROR = "serve.phase.error";
    /// One blob fetch on the profiled read path (span; label: `cuboid` or
    /// `layer`).
    STORE_FLIGHT_BLOB_IO = "store.flight.blob_io";
    /// One segment decode on the profiled read path (span).
    STORE_FLIGHT_DECODE = "store.flight.decode";
    /// One layered state merge on the profiled read path (span).
    STORE_FLIGHT_MERGE = "store.flight.merge";
    /// Tail-sampled flight traces persisted to the kept buffer (counter).
    STORE_FLIGHT_KEPT = "store.flight.kept";
    /// Finished flight traces dropped at ring granularity (counter).
    STORE_FLIGHT_DROPPED = "store.flight.dropped";
}

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
            assert!(valid_name(name.as_str()), "bad obs name: {name}");
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
