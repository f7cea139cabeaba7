//! Seeded fault injection for both halves of the storage path.
//!
//! [`FaultyBlobs`] wraps any [`BlobStore`] and injects faults into `get`
//! *and* `put` from a deterministic, seeded [`FaultSchedule`] — the
//! probabilistic sibling of [`crate::crashpoint::CrashPoint`], which
//! kills a write at an exact operation instead of drawing per-op. The
//! read side ships three fault kinds:
//!
//! * **transient failures** — a single read fails with
//!   [`Error::Injected`]; the next read of the same path may succeed.
//! * **sticky outages** — a seeded per-blob draw marks the blob out from
//!   the start; every read fails until `outage_heals_after` failures have
//!   been observed (0 = never heals). This is the "segment lost / replica
//!   down" shape that should trip the client's circuit breaker.
//! * **latency spikes** — a read sleeps `spike_us` before succeeding.
//!   Under a mock-clock [`ObsHandle`] the sleep is skipped (counted
//!   only), so deterministic tests stay instant.
//!
//! The write side mirrors it:
//!
//! * **transient put failures** — one put fails; a retry may land.
//! * **sticky write outages** — a seeded per-blob draw marks the path
//!   unwritable until `put_outage_heals_after` failed puts (0 = never).
//!   This is the "replica refuses writes" shape an ingest retry loop
//!   must ride out.
//! * **torn staged writes** — the put fails *and* a truncated fragment
//!   of the data lands at `path + ".tmp"` (the staging name a
//!   [`crate::blob::DirBlobs`] crash would strand), so recovery and GC
//!   see the same debris a real torn upload leaves. The final path is
//!   never touched — blob-level atomicity holds.
//!
//! Every draw is a hash of `(seed, kind, path, index)`, where the index
//! counts ops of that kind (reads or puts) on that path — the same idiom
//! as the engine's `FaultPlan` — so a schedule replays identically for a
//! given op sequence, regardless of wall time or threading. Fired faults
//! land in an op-kind-tagged oplog ([`FaultRecord`]) and per-kind
//! [`FaultStats`]; `list`/`delete` pass through untouched, which keeps
//! the wrapper composable with `CrashPoint` and `DirBlobs`/`Dfs`.
//!
//! [`Error::Injected`] is deliberately *not* classified as data loss
//! (`Error::is_data_loss`), so the store's degraded-recompute path does
//! not quietly absorb injected faults — they surface as typed errors for
//! the retry/hedging/breaker layers above (reads) and the
//! [`crate::delta::IngestSession`] retry loop (writes) to handle.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use spcube_common::sync::lock_or_recover;
use spcube_common::{Error, Result};
use spcube_obs::{ctx as flightctx, names, FlightLabel, FlightName, FlightRec, ObsHandle, SpanId};

use crate::blob::{BlobStore, TMP_SUFFIX};

/// A seeded schedule of read and write faults. Probabilities are in
/// `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Seed for every deterministic draw.
    pub seed: u64,
    /// Per-read probability of a one-shot injected failure.
    pub transient_fail_prob: f64,
    /// Per-blob probability (drawn once per path) of a sticky read
    /// outage.
    pub sticky_outage_prob: f64,
    /// Failed reads after which a sticky outage heals; 0 = never.
    pub outage_heals_after: u32,
    /// Per-read probability of a latency spike.
    pub latency_spike_prob: f64,
    /// Microseconds a latency spike sleeps (skipped under mock obs).
    pub spike_us: u64,
    /// Per-put probability of a one-shot injected write failure.
    pub put_transient_fail_prob: f64,
    /// Per-blob probability (drawn once per path) of a sticky write
    /// outage.
    pub put_sticky_outage_prob: f64,
    /// Failed puts after which a sticky write outage heals; 0 = never.
    pub put_outage_heals_after: u32,
    /// Per-put probability of a torn staged write: the put fails *and*
    /// a truncated fragment lands at `path + ".tmp"`.
    pub torn_write_prob: f64,
    /// Only paths containing this substring are faulted; `None` = all.
    pub only_matching: Option<String>,
}

impl Default for FaultSchedule {
    fn default() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            transient_fail_prob: 0.0,
            sticky_outage_prob: 0.0,
            outage_heals_after: 0,
            latency_spike_prob: 0.0,
            spike_us: 0,
            put_transient_fail_prob: 0.0,
            put_sticky_outage_prob: 0.0,
            put_outage_heals_after: 0,
            torn_write_prob: 0.0,
            only_matching: None,
        }
    }
}

impl FaultSchedule {
    /// Reject NaN or out-of-range probabilities.
    pub fn validate(&self) -> Result<()> {
        for (what, p) in [
            ("transient_fail_prob", self.transient_fail_prob),
            ("sticky_outage_prob", self.sticky_outage_prob),
            ("latency_spike_prob", self.latency_spike_prob),
            ("put_transient_fail_prob", self.put_transient_fail_prob),
            ("put_sticky_outage_prob", self.put_sticky_outage_prob),
            ("torn_write_prob", self.torn_write_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::Config(format!(
                    "fault schedule {what} must be in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }

    /// Does the schedule apply to `path` at all?
    fn applies(&self, path: &str) -> bool {
        match &self.only_matching {
            Some(m) => path.contains(m.as_str()),
            None => true,
        }
    }

    /// Deterministic uniform draw in `[0, 1)` for one (kind, path, n).
    fn draw(&self, kind: &str, path: &str, n: u32) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.seed, kind, path, n).hash(&mut h);
        (h.finish() % 1_000_000) as f64 / 1e6
    }

    /// Is `path` scheduled for a sticky read outage? Pure — derivable
    /// without a [`FaultyBlobs`] instance, which is what
    /// `inspect serve-faults` uses to render a schedule.
    pub fn sticky_out(&self, path: &str) -> bool {
        self.applies(path) && self.draw("sticky", path, 0) < self.sticky_outage_prob
    }

    /// Is `path` scheduled for a sticky write outage? Pure, drawn
    /// independently of [`Self::sticky_out`] — a blob can be unwritable
    /// yet readable, and vice versa.
    pub fn sticky_write_out(&self, path: &str) -> bool {
        self.applies(path) && self.draw("put-sticky", path, 0) < self.put_sticky_outage_prob
    }

    /// Pure preview of what per-path read `n` (0-based) would inject,
    /// assuming every earlier read of the path also reached the store
    /// (so the first `outage_heals_after` reads of a sticky-out path
    /// fail). Mirrors the decision order of the live wrapper: outage,
    /// then transient, then latency. `inspect serve-faults` renders
    /// schedules with this without constructing a [`FaultyBlobs`].
    pub fn preview(&self, path: &str, n: u32) -> Option<FaultKind> {
        if !self.applies(path) {
            return None;
        }
        if self.sticky_out(path) && (self.outage_heals_after == 0 || n < self.outage_heals_after) {
            return Some(FaultKind::Outage);
        }
        if self.draw("transient", path, n) < self.transient_fail_prob {
            return Some(FaultKind::Transient);
        }
        if self.draw("latency", path, n) < self.latency_spike_prob {
            return Some(FaultKind::Latency);
        }
        None
    }

    /// Pure preview of what per-path put `n` (0-based) would inject —
    /// the write-side mirror of [`Self::preview`], with the same
    /// decision order as the live wrapper: outage, then transient, then
    /// torn.
    pub fn preview_put(&self, path: &str, n: u32) -> Option<FaultKind> {
        if !self.applies(path) {
            return None;
        }
        if self.sticky_write_out(path)
            && (self.put_outage_heals_after == 0 || n < self.put_outage_heals_after)
        {
            return Some(FaultKind::Outage);
        }
        if self.draw("put-transient", path, n) < self.put_transient_fail_prob {
            return Some(FaultKind::Transient);
        }
        if self.draw("torn", path, n) < self.torn_write_prob {
            return Some(FaultKind::Torn);
        }
        None
    }

    /// Deterministic length of the fragment a torn staged write of
    /// `len` bytes leaves behind: strictly shorter than the data, so a
    /// decoder can never mistake the debris for the real blob.
    fn torn_fragment_len(&self, path: &str, n: u32, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let frac = self.draw("torn-len", path, n);
        ((frac * len as f64) as usize).min(len - 1)
    }
}

/// Which storage operation a fault fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A `get`.
    Read,
    /// A `put`.
    Put,
}

impl FaultOp {
    /// Lower-case label value.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Put => "put",
        }
    }
}

/// What kind of fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One-shot failure (read or put).
    Transient,
    /// Sticky per-blob outage (until healed).
    Outage,
    /// Latency spike (the read still succeeds).
    Latency,
    /// Torn staged write: the put fails and strands a fragment at the
    /// staging name.
    Torn,
}

impl FaultKind {
    /// Lower-case label value.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Outage => "outage",
            FaultKind::Latency => "latency",
            FaultKind::Torn => "torn",
        }
    }
}

/// One injected fault, in op order.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Global op index (reads and puts) at which the fault fired
    /// (0-based).
    pub op: u64,
    /// Which operation the fault fired on.
    pub op_kind: FaultOp,
    /// Blob path the op targeted.
    pub path: String,
    /// Which fault fired.
    pub kind: FaultKind,
    /// Per-path index of the faulted op among ops of the same kind
    /// (0-based; reads and puts count separately).
    pub index: u32,
}

/// Aggregate injected-fault counts, split by operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// One-shot read failures injected.
    pub read_transient: u64,
    /// Sticky read-outage failures injected.
    pub read_outage: u64,
    /// Latency spikes injected.
    pub read_latency: u64,
    /// One-shot put failures injected.
    pub put_transient: u64,
    /// Sticky write-outage failures injected.
    pub put_outage: u64,
    /// Torn staged writes injected.
    pub put_torn: u64,
}

impl FaultStats {
    /// Read faults that surfaced as errors (outages + transients).
    pub fn read_failures(&self) -> u64 {
        self.read_transient + self.read_outage
    }

    /// Put faults that surfaced as errors (all of them do).
    pub fn put_failures(&self) -> u64 {
        self.put_transient + self.put_outage + self.put_torn
    }

    /// Everything injected, spikes included.
    pub fn total(&self) -> u64 {
        self.read_transient
            + self.read_outage
            + self.read_latency
            + self.put_transient
            + self.put_outage
            + self.put_torn
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Reads observed per path (drives per-read draws).
    reads: BTreeMap<String, u32>,
    /// Puts observed per path (drives per-put draws).
    puts: BTreeMap<String, u32>,
    /// Failures charged against each sticky-out path (drives healing).
    outage_fails: BTreeMap<String, u32>,
    /// Failed puts charged against each sticky-write-out path.
    put_outage_fails: BTreeMap<String, u32>,
    /// Global op counter (reads and puts).
    ops: u64,
    /// Every fault fired, in order.
    oplog: Vec<FaultRecord>,
    stats: FaultStats,
}

/// A [`BlobStore`] wrapper that injects seeded read and write faults.
/// See the module docs for semantics.
pub struct FaultyBlobs {
    inner: Arc<dyn BlobStore>,
    schedule: FaultSchedule,
    state: Mutex<FaultState>,
    obs: ObsHandle,
}

impl std::fmt::Debug for FaultyBlobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBlobs")
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

impl FaultyBlobs {
    /// Wrap `inner` with `schedule`.
    pub fn new(inner: Arc<dyn BlobStore>, schedule: FaultSchedule) -> FaultyBlobs {
        FaultyBlobs {
            inner,
            schedule,
            state: Mutex::new(FaultState::default()),
            obs: ObsHandle::default(),
        }
    }

    /// Attach an observability handle; injected faults emit
    /// [`names::STORE_FAULT_INJECTED`] counters and events, and a
    /// mock-clock handle suppresses real latency-spike sleeps.
    pub fn with_obs(mut self, obs: ObsHandle) -> FaultyBlobs {
        self.obs = obs;
        self
    }

    /// The schedule this wrapper draws from.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Injected-fault counts so far.
    pub fn stats(&self) -> FaultStats {
        lock_or_recover(&self.state).stats
    }

    /// Every fault fired so far, in op order.
    pub fn oplog(&self) -> Vec<FaultRecord> {
        lock_or_recover(&self.state).oplog.clone()
    }

    /// Record one fault in the oplog and stats. Called with the state
    /// guard held; the matching obs emission is [`Self::emit`], which
    /// must run after the guard is released.
    fn record(
        &self,
        state: &mut FaultState,
        op_kind: FaultOp,
        path: &str,
        kind: FaultKind,
        index: u32,
    ) {
        state.oplog.push(FaultRecord {
            op: state.ops,
            op_kind,
            path: path.to_string(),
            kind,
            index,
        });
        match (op_kind, kind) {
            (FaultOp::Read, FaultKind::Transient) => state.stats.read_transient += 1,
            (FaultOp::Read, FaultKind::Outage) => state.stats.read_outage += 1,
            (FaultOp::Read, _) => state.stats.read_latency += 1,
            (FaultOp::Put, FaultKind::Transient) => state.stats.put_transient += 1,
            (FaultOp::Put, FaultKind::Outage) => state.stats.put_outage += 1,
            (FaultOp::Put, _) => state.stats.put_torn += 1,
        }
    }

    /// Emit the obs counter + event for a recorded fault. ObsHandle
    /// takes its own registry/trace locks, so this must never nest
    /// under the `faults.state` guard.
    fn emit(&self, op: FaultOp, path: &str, kind: FaultKind) {
        // Counter keyed by (op, kind) only (so per-kind counts are
        // assertable against stats); the event carries the path too.
        self.obs.inc(
            names::STORE_FAULT_INJECTED,
            &[
                ("kind", kind.name().to_string()),
                ("op", op.name().to_string()),
            ],
        );
        self.obs.event(
            names::STORE_FAULT_INJECTED,
            SpanId::ROOT,
            &[
                ("kind", kind.name().to_string()),
                ("op", op.name().to_string()),
                ("path", path.to_string()),
            ],
        );
        // If a profiled query's context is scoped on this thread, the
        // fault also lands in that query's flight trace, so a persisted
        // tail sample shows exactly which injected fault slowed it.
        if let Some(c) = self.obs.enabled().then(flightctx::current).flatten() {
            let code = match kind {
                FaultKind::Transient => 0,
                FaultKind::Outage => 1,
                FaultKind::Latency => 2,
                FaultKind::Torn => 3,
            };
            self.obs.flight_emit(
                FlightRec::event(&c, FlightName::FaultInjected, self.obs.flight_now_us())
                    .with_label(FlightLabel::Kind, code),
            );
        }
    }

    fn injected(what: String) -> Error {
        Error::Injected(format!("fault: {what}"))
    }
}

impl BlobStore for FaultyBlobs {
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()> {
        if !self.schedule.applies(path) {
            return self.inner.put(path, data);
        }
        // Same discipline as `get`: draw and record under the state
        // lock; obs emission, staging IO and error returns all happen
        // after the guard drops.
        enum Draw {
            Fail(FaultKind, String),
            /// Fail the put, stranding `data[..len]` at the staging name.
            Torn(String, usize),
            Clean,
        }
        let draw = {
            let mut state = lock_or_recover(&self.state);
            let n = {
                let slot = state.puts.entry(path.to_string()).or_insert(0);
                let n = *slot;
                *slot += 1;
                n
            };

            let mut draw = Draw::Clean;
            // Sticky write outage: drawn once per path, fails every put
            // until the healing budget is spent.
            if self.schedule.sticky_write_out(path) {
                let fails = state.put_outage_fails.get(path).copied().unwrap_or(0);
                let healed = self.schedule.put_outage_heals_after > 0
                    && fails >= self.schedule.put_outage_heals_after;
                if !healed {
                    state.put_outage_fails.insert(path.to_string(), fails + 1);
                    self.record(&mut state, FaultOp::Put, path, FaultKind::Outage, n);
                    draw = Draw::Fail(FaultKind::Outage, format!("sticky write outage on {path}"));
                }
            }
            if matches!(draw, Draw::Clean) {
                if self.schedule.draw("put-transient", path, n)
                    < self.schedule.put_transient_fail_prob
                {
                    self.record(&mut state, FaultOp::Put, path, FaultKind::Transient, n);
                    draw = Draw::Fail(
                        FaultKind::Transient,
                        format!("transient write failure on {path} (put {n})"),
                    );
                } else if self.schedule.draw("torn", path, n) < self.schedule.torn_write_prob {
                    self.record(&mut state, FaultOp::Put, path, FaultKind::Torn, n);
                    draw = Draw::Torn(
                        format!("torn staged write on {path} (put {n})"),
                        self.schedule.torn_fragment_len(path, n, data.len()),
                    );
                }
            }
            state.ops += 1;
            draw
        };
        match draw {
            Draw::Fail(kind, what) => {
                self.emit(FaultOp::Put, path, kind);
                Err(Self::injected(what))
            }
            Draw::Torn(what, frag_len) => {
                self.emit(FaultOp::Put, path, FaultKind::Torn);
                // Strand the fragment at the staging name, best-effort:
                // the final path is never touched, so blob-level
                // atomicity holds and recovery sees a stale `.tmp`.
                let fragment = data.get(..frag_len).unwrap_or(&[]).to_vec();
                let _ = self.inner.put(&format!("{path}{TMP_SUFFIX}"), fragment);
                Err(Self::injected(what))
            }
            Draw::Clean => self.inner.put(path, data),
        }
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        if !self.schedule.applies(path) {
            return self.inner.get(path);
        }
        // Draw the fault outcome and record oplog/stats under the state
        // lock; obs emission, sleeps and error returns all happen after
        // the guard drops (ObsHandle takes its own locks internally).
        enum Draw {
            Fail(FaultKind, String),
            Spike,
            Clean,
        }
        let draw = {
            let mut state = lock_or_recover(&self.state);
            let n = {
                let slot = state.reads.entry(path.to_string()).or_insert(0);
                let n = *slot;
                *slot += 1;
                n
            };

            let mut draw = Draw::Clean;
            // Sticky outage: drawn once per path, fails every read until
            // the healing budget is spent.
            if self.schedule.sticky_out(path) {
                let fails = state.outage_fails.get(path).copied().unwrap_or(0);
                let healed = self.schedule.outage_heals_after > 0
                    && fails >= self.schedule.outage_heals_after;
                if !healed {
                    state.outage_fails.insert(path.to_string(), fails + 1);
                    self.record(&mut state, FaultOp::Read, path, FaultKind::Outage, n);
                    draw = Draw::Fail(FaultKind::Outage, format!("sticky outage on {path}"));
                }
            }
            if matches!(draw, Draw::Clean) {
                // Transient failure: one read only.
                if self.schedule.draw("transient", path, n) < self.schedule.transient_fail_prob {
                    self.record(&mut state, FaultOp::Read, path, FaultKind::Transient, n);
                    draw = Draw::Fail(
                        FaultKind::Transient,
                        format!("transient read failure on {path} (read {n})"),
                    );
                } else if self.schedule.draw("latency", path, n) < self.schedule.latency_spike_prob
                {
                    // Latency spike: the read succeeds, late.
                    self.record(&mut state, FaultOp::Read, path, FaultKind::Latency, n);
                    draw = Draw::Spike;
                }
            }
            state.ops += 1;
            draw
        };
        match draw {
            Draw::Fail(kind, what) => {
                self.emit(FaultOp::Read, path, kind);
                Err(Self::injected(what))
            }
            Draw::Spike => {
                self.emit(FaultOp::Read, path, FaultKind::Latency);
                // Sleep outside the lock so concurrent clean reads don't
                // queue behind an injected spike. Mock-clock runs skip the
                // real sleep.
                if self.schedule.spike_us > 0 && !self.obs.is_mock() {
                    std::thread::sleep(std::time::Duration::from_micros(self.schedule.spike_us));
                }
                self.inner.get(path)
            }
            Draw::Clean => self.inner.get(path),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_mapreduce::Dfs;

    fn backing() -> Arc<dyn BlobStore> {
        let dfs = Dfs::new();
        BlobStore::put(&dfs, "s/a.cseg", vec![1, 2, 3]).unwrap();
        BlobStore::put(&dfs, "s/b.cseg", vec![4, 5]).unwrap();
        BlobStore::put(&dfs, "s/manifest", vec![9]).unwrap();
        Arc::new(dfs)
    }

    #[test]
    fn preview_matches_live_injection() {
        // The pure preview must agree read-for-read with what the live
        // wrapper actually injects, across all three read-fault kinds.
        let schedule = FaultSchedule {
            seed: 5,
            transient_fail_prob: 0.3,
            sticky_outage_prob: 0.5,
            outage_heals_after: 2,
            latency_spike_prob: 0.4,
            spike_us: 0,
            only_matching: Some(".cseg".to_string()),
            ..FaultSchedule::default()
        };
        let fb = FaultyBlobs::new(backing(), schedule.clone());
        for path in ["s/a.cseg", "s/b.cseg", "s/manifest"] {
            for n in 0..15u32 {
                let predicted = schedule.preview(path, n);
                let before = fb.oplog().len();
                let _ = fb.get(path);
                let fired = fb.oplog().get(before).map(|r| {
                    assert_eq!(r.path, path);
                    assert_eq!(r.op_kind, FaultOp::Read);
                    assert_eq!(r.index, n);
                    r.kind
                });
                assert_eq!(fired, predicted, "read {n} of {path}");
            }
        }
    }

    #[test]
    fn put_preview_matches_live_injection() {
        // Write-side mirror: preview_put must agree put-for-put with the
        // live wrapper across all three write-fault kinds.
        let schedule = FaultSchedule {
            seed: 11,
            put_transient_fail_prob: 0.3,
            put_sticky_outage_prob: 0.5,
            put_outage_heals_after: 2,
            torn_write_prob: 0.3,
            only_matching: Some(".cseg".to_string()),
            ..FaultSchedule::default()
        };
        let fb = FaultyBlobs::new(backing(), schedule.clone());
        for path in ["s/a.cseg", "s/b.cseg", "s/manifest"] {
            for n in 0..15u32 {
                let predicted = schedule.preview_put(path, n);
                let before = fb.oplog().len();
                let _ = fb.put(path, vec![0xAB; 16]);
                let fired = fb.oplog().get(before).map(|r| {
                    assert_eq!(r.path, path);
                    assert_eq!(r.op_kind, FaultOp::Put);
                    assert_eq!(r.index, n);
                    r.kind
                });
                assert_eq!(fired, predicted, "put {n} of {path}");
            }
        }
    }

    #[test]
    fn zero_schedule_is_transparent() {
        let fb = FaultyBlobs::new(backing(), FaultSchedule::default());
        for _ in 0..10 {
            assert_eq!(fb.get("s/a.cseg").unwrap(), vec![1, 2, 3]);
            fb.put("s/w.cseg", vec![6]).unwrap();
        }
        assert_eq!(fb.stats(), FaultStats::default());
        assert!(fb.oplog().is_empty());
    }

    #[test]
    fn transient_failures_are_seeded_and_replayable() {
        let schedule = FaultSchedule {
            seed: 7,
            transient_fail_prob: 0.5,
            ..FaultSchedule::default()
        };
        let run = |schedule: FaultSchedule| {
            let fb = FaultyBlobs::new(backing(), schedule);
            (0..20)
                .map(|_| fb.get("s/a.cseg").is_err())
                .collect::<Vec<_>>()
        };
        let a = run(schedule.clone());
        let b = run(schedule.clone());
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.iter().any(|&e| e), "p=0.5 over 20 reads should fail some");
        assert!(a.iter().any(|&e| !e), "and let some through");
        let c = run(FaultSchedule {
            seed: 8,
            ..schedule
        });
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn put_transient_failures_are_seeded_and_replayable() {
        let schedule = FaultSchedule {
            seed: 7,
            put_transient_fail_prob: 0.5,
            ..FaultSchedule::default()
        };
        let run = |schedule: FaultSchedule| {
            let fb = FaultyBlobs::new(backing(), schedule);
            (0..20)
                .map(|_| fb.put("s/a.cseg", vec![1]).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(schedule.clone());
        assert_eq!(a, run(schedule.clone()), "same seed must replay");
        assert!(a.iter().any(|&e| e), "p=0.5 over 20 puts should fail some");
        assert!(a.iter().any(|&e| !e), "and let some through");
    }

    #[test]
    fn injected_faults_are_not_data_loss() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                transient_fail_prob: 1.0,
                put_transient_fail_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        for err in [
            fb.get("s/a.cseg").unwrap_err(),
            fb.put("s/a.cseg", vec![1]).unwrap_err(),
        ] {
            assert!(matches!(err, Error::Injected(_)), "{err:?}");
            assert!(!err.is_data_loss(), "injected faults must not degrade");
        }
    }

    #[test]
    fn sticky_outage_heals_after_budget() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 1,
                sticky_outage_prob: 1.0,
                outage_heals_after: 3,
                ..FaultSchedule::default()
            },
        );
        for _ in 0..3 {
            assert!(fb.get("s/a.cseg").is_err());
        }
        assert_eq!(fb.get("s/a.cseg").unwrap(), vec![1, 2, 3], "healed");
        assert_eq!(fb.stats().read_outage, 3);
    }

    #[test]
    fn sticky_write_outage_heals_after_budget() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 1,
                put_sticky_outage_prob: 1.0,
                put_outage_heals_after: 3,
                ..FaultSchedule::default()
            },
        );
        for _ in 0..3 {
            assert!(fb.put("s/a.cseg", vec![7, 7]).is_err());
        }
        fb.put("s/a.cseg", vec![7, 7]).expect("healed");
        assert_eq!(fb.get("s/a.cseg").unwrap(), vec![7, 7]);
        assert_eq!(fb.stats().put_outage, 3);
    }

    #[test]
    fn sticky_outage_without_heal_budget_never_heals() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 1,
                sticky_outage_prob: 1.0,
                put_sticky_outage_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        for _ in 0..8 {
            assert!(fb.get("s/b.cseg").is_err());
            assert!(fb.put("s/b.cseg", vec![1]).is_err());
        }
    }

    #[test]
    fn torn_write_strands_a_fragment_at_the_staging_name() {
        let inner = backing();
        let fb = FaultyBlobs::new(
            Arc::clone(&inner),
            FaultSchedule {
                seed: 2,
                torn_write_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        let data = vec![0xCD; 64];
        let err = fb.put("s/new.cseg", data.clone()).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{err:?}");
        // The final path was never written; the staging name holds a
        // strictly shorter fragment that prefixes the data.
        assert!(inner.get("s/new.cseg").is_err(), "final path untouched");
        let frag = inner.get("s/new.cseg.tmp").expect("fragment stranded");
        assert!(frag.len() < data.len(), "fragment must be truncated");
        assert_eq!(&data[..frag.len()], &frag[..]);
        assert_eq!(fb.stats().put_torn, 1);
    }

    #[test]
    fn read_and_write_faults_do_not_cross_talk() {
        // A pure write-fault schedule must leave reads untouched, and a
        // pure read-fault schedule must leave writes untouched.
        let wf = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                put_transient_fail_prob: 1.0,
                put_sticky_outage_prob: 1.0,
                torn_write_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        assert_eq!(wf.get("s/a.cseg").unwrap(), vec![1, 2, 3]);
        assert!(wf.put("s/a.cseg", vec![1]).is_err());
        let rf = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                transient_fail_prob: 1.0,
                sticky_outage_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        rf.put("s/a.cseg", vec![8]).unwrap();
        assert!(rf.get("s/a.cseg").is_err());
    }

    #[test]
    fn only_matching_scopes_the_blast_radius() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                transient_fail_prob: 1.0,
                put_transient_fail_prob: 1.0,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        );
        assert!(fb.get("s/a.cseg").is_err());
        assert_eq!(fb.get("s/manifest").unwrap(), vec![9], "manifest exempt");
        assert!(fb.put("s/a.cseg", vec![1]).is_err());
        fb.put("s/manifest", vec![9]).expect("manifest exempt");
    }

    #[test]
    fn latency_spikes_count_but_do_not_sleep_under_mock() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                latency_spike_prob: 1.0,
                spike_us: 60_000_000, // would hang a real run for a minute
                ..FaultSchedule::default()
            },
        )
        .with_obs(ObsHandle::mock());
        assert_eq!(fb.get("s/a.cseg").unwrap(), vec![1, 2, 3]);
        assert_eq!(fb.stats().read_latency, 1);
    }

    #[test]
    fn obs_counters_and_events_match_stats() {
        let obs = ObsHandle::mock();
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 3,
                transient_fail_prob: 0.4,
                latency_spike_prob: 0.4,
                put_transient_fail_prob: 0.4,
                torn_write_prob: 0.4,
                ..FaultSchedule::default()
            },
        )
        .with_obs(obs.clone());
        for _ in 0..25 {
            let _ = fb.get("s/a.cseg");
            let _ = fb.put("s/a.cseg", vec![1, 2, 3]);
        }
        let stats = fb.stats();
        assert!(stats.read_failures() > 0);
        assert!(stats.put_failures() > 0);
        for (op, kind, want) in [
            (FaultOp::Read, FaultKind::Transient, stats.read_transient),
            (FaultOp::Read, FaultKind::Latency, stats.read_latency),
            (FaultOp::Put, FaultKind::Transient, stats.put_transient),
            (FaultOp::Put, FaultKind::Torn, stats.put_torn),
        ] {
            assert_eq!(
                obs.counter_value(
                    names::STORE_FAULT_INJECTED,
                    &[
                        ("kind", kind.name().to_string()),
                        ("op", op.name().to_string()),
                    ],
                )
                .unwrap_or(0),
                want,
                "counter drifted for {}/{}",
                op.name(),
                kind.name()
            );
        }
        let tree = spcube_obs::SpanTree::parse_jsonl(&obs.trace_jsonl()).expect("trace parses");
        assert_eq!(
            tree.events_named(names::STORE_FAULT_INJECTED) as u64,
            stats.total(),
            "events must match stats"
        );
        assert_eq!(fb.oplog().len() as u64, stats.total());
    }

    #[test]
    fn lists_and_deletes_pass_through() {
        let fb = FaultyBlobs::new(
            backing(),
            FaultSchedule {
                seed: 0,
                transient_fail_prob: 1.0,
                sticky_outage_prob: 1.0,
                put_transient_fail_prob: 1.0,
                ..FaultSchedule::default()
            },
        );
        assert!(!fb.list("s").unwrap().is_empty());
        fb.delete("s/b.cseg").unwrap();
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        assert!(FaultSchedule {
            transient_fail_prob: 1.5,
            ..FaultSchedule::default()
        }
        .validate()
        .is_err());
        assert!(FaultSchedule {
            latency_spike_prob: f64::NAN,
            ..FaultSchedule::default()
        }
        .validate()
        .is_err());
        assert!(FaultSchedule {
            torn_write_prob: -0.1,
            ..FaultSchedule::default()
        }
        .validate()
        .is_err());
        assert!(FaultSchedule {
            put_sticky_outage_prob: 2.0,
            ..FaultSchedule::default()
        }
        .validate()
        .is_err());
        assert!(FaultSchedule::default().validate().is_ok());
    }
}
