//! Seeded, deterministic fault injection for the storage path.
//!
//! [`FaultyBlobs`] is the one [`BlobStore`] wrapper that injects faults.
//! It injects into `get` *and* `put` from a seeded [`FaultSchedule`], and
//! — when the schedule carries a [`CrashPlan`] — kills a write at one
//! exact operation. The read side ships three fault kinds:
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
//! given op sequence, regardless of wall time or threading. The live
//! `get`/`put` take their decision from the pure [`FaultSchedule::preview`]
//! and [`FaultSchedule::preview_put`], so a preview of a schedule is
//! exactly what the wrapper injects.
//!
//! **Crashes** — a [`CrashPlan`] names one mutating operation (puts and
//! deletes in issue order, whatever `only_matching` says). That operation
//! does not take effect, apart from an optional torn fragment of its
//! first `j` bytes, and every later `get`/`put`/`list`/`delete` fails
//! with [`Error::Injected`]: the wrapped store is frozen exactly as a
//! machine loss would leave it. Reopening the *inner* store is the
//! recovery experiment, which the crash matrices (`tests/store_crash.rs`,
//! `tests/store_delta.rs`) run for every plan [`schedules`] derives from
//! a clean run's [`FaultyBlobs::writes`]. Torn fragments come in two
//! flavours, matching the two shipped media:
//!
//! * [`TornWrite::Publish`] — the truncated bytes land under the final
//!   path, modelling a medium without atomic replace (the simulated DFS).
//!   Torn offset 0 is the nastiest case: it truncates an existing blob —
//!   e.g. the root manifest — to nothing.
//! * [`TornWrite::Stage`] — the truncated bytes land under
//!   `path + ".tmp"`, modelling an atomic-rename medium ([`DirBlobs`]),
//!   through the same code as a torn staged write.
//!
//! Every fired fault, crashes included, lands in an op-kind-tagged log
//! ([`FaultRecord`]), per-kind [`FaultStats`], and the
//! [`names::STORE_FAULT_INJECTED`] counter and event. Every put and
//! delete also lands in the writes log; clean reads are not logged.
//!
//! [`Error::Injected`] is deliberately *not* classified as data loss
//! (`Error::is_data_loss`), so the store's degraded-recompute path does
//! not quietly absorb injected faults — they surface as typed errors for
//! the retry/hedging/breaker layers above (reads) and the
//! [`crate::delta::IngestSession`] retry loop (writes) to handle — and a
//! store that degrade-recomputed over a crash fails the crash matrices
//! loudly instead of masking a broken commit protocol.
//!
//! [`DirBlobs`]: crate::blob::DirBlobs
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use spcube_common::sync::lock_or_recover;
use spcube_common::{Error, Result};
use spcube_obs::{ctx as flightctx, names, FlightLabel, FlightName, FlightRec, ObsHandle};

use crate::blob::{BlobStore, TMP_SUFFIX};

/// A seeded schedule of read and write faults, plus at most one crash.
/// Probabilities are in `[0, 1]`.
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
    /// Only paths containing this substring draw faults; `None` = all.
    /// The crash plan ignores it.
    pub only_matching: Option<String>,
    /// Crash at one exact mutating operation; `None` = never.
    pub crash: Option<CrashPlan>,
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
            crash: None,
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
    /// without a [`FaultyBlobs`] instance.
    pub fn sticky_out(&self, path: &str) -> bool {
        self.applies(path) && self.draw("sticky", path, 0) < self.sticky_outage_prob
    }

    /// Is `path` scheduled for a sticky write outage? Pure, drawn
    /// independently of [`Self::sticky_out`] — a blob can be unwritable
    /// yet readable, and vice versa.
    pub fn sticky_write_out(&self, path: &str) -> bool {
        self.applies(path) && self.draw("put-sticky", path, 0) < self.put_sticky_outage_prob
    }

    /// What per-path read `n` (0-based) injects: outage, then transient,
    /// then latency. Every read of a path reaches this draw, so the first
    /// `outage_heals_after` reads of a sticky-out path fail. Pure: the
    /// live wrapper decides every read here, so a schedule can be
    /// previewed without constructing a [`FaultyBlobs`].
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

    /// What per-path put `n` (0-based) injects — the write-side mirror of
    /// [`Self::preview`]: outage, then transient, then torn. The crash
    /// plan is not a per-path draw and is decided by the wrapper.
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

/// Where the fragment of a torn write lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// Truncated bytes replace the blob at the final path (non-atomic
    /// medium). Offset 0 truncates an existing blob to nothing.
    Publish,
    /// Truncated bytes land at `path + ".tmp"`; the final path is
    /// untouched (atomic-rename medium).
    Stage,
}

/// One deterministic crash schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Index into the sequence of mutating operations (puts and deletes,
    /// in issue order) of the operation that crashes. That operation does
    /// not take effect.
    pub at_op: usize,
    /// For a `put` victim: leave the first `j` bytes of the payload
    /// behind, at the place [`TornWrite`] dictates. `None` crashes at the
    /// operation boundary — nothing of the victim lands at all.
    pub torn: Option<(usize, TornWrite)>,
}

/// Which storage operation a fault fired on or a write record logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A `get`.
    Read,
    /// A `put` (crashable at byte granularity).
    Put,
    /// A `delete` (crashable only at the boundary).
    Delete,
}

impl OpKind {
    /// Lower-case label value.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Put => "put",
            OpKind::Delete => "delete",
        }
    }
}

/// One mutating operation a [`FaultyBlobs`] saw, for crash-schedule
/// derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Put or delete.
    pub kind: OpKind,
    /// Blob path the operation targeted.
    pub path: String,
    /// Payload size for puts; 0 for deletes.
    pub bytes: u64,
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
    /// The planned crash: the put or delete fails, and so does every
    /// later operation.
    Crash,
}

impl FaultKind {
    /// Lower-case label value.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Outage => "outage",
            FaultKind::Latency => "latency",
            FaultKind::Torn => "torn",
            FaultKind::Crash => "crash",
        }
    }
}

/// One injected fault, in op order.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Global op index (gets, puts and deletes) at which the fault fired
    /// (0-based).
    pub op: u64,
    /// Which operation the fault fired on.
    pub op_kind: OpKind,
    /// Blob path the op targeted.
    pub path: String,
    /// Which fault fired.
    pub kind: FaultKind,
    /// Per-path index of the faulted op among ops of the same kind
    /// (0-based; each kind counts separately).
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
    /// Planned crashes fired (at most one per wrapper).
    pub crash: u64,
}

impl FaultStats {
    /// Read faults that surfaced as errors (outages + transients).
    pub fn read_failures(&self) -> u64 {
        self.read_transient + self.read_outage
    }

    /// Put faults that surfaced as errors (all of them do), the crash
    /// aside.
    pub fn put_failures(&self) -> u64 {
        self.put_transient + self.put_outage + self.put_torn
    }

    /// Everything injected, spikes and the crash included.
    pub fn total(&self) -> u64 {
        self.read_failures() + self.read_latency + self.put_failures() + self.crash
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Ops seen per (kind, path): the per-path index every draw takes.
    seen: BTreeMap<(OpKind, String), u32>,
    /// Global op counter (gets, puts and deletes).
    ops: u64,
    /// Every put and delete, in issue order.
    writes: Vec<OpRecord>,
    /// Whether the crash plan fired; every later op then fails.
    crashed: bool,
    /// Every fault fired, in order.
    oplog: Vec<FaultRecord>,
    stats: FaultStats,
}

/// A [`BlobStore`] wrapper that injects seeded read and write faults and
/// at most one planned crash. See the module docs for semantics.
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
    /// Wrap `inner` with `schedule`. With the default schedule the
    /// wrapper injects nothing and only logs [`Self::writes`].
    pub fn new(inner: Arc<dyn BlobStore>, schedule: FaultSchedule) -> FaultyBlobs {
        FaultyBlobs {
            inner,
            schedule,
            state: Mutex::new(FaultState::default()),
            obs: ObsHandle::default(),
        }
    }

    /// Attach an observability handle; injected faults bump
    /// [`names::STORE_FAULT_INJECTED`] counters (and are flight events
    /// inside a recorded query), and a mock-clock handle suppresses real
    /// latency-spike sleeps.
    pub fn with_obs(mut self, obs: ObsHandle) -> FaultyBlobs {
        self.obs = obs;
        self
    }

    /// Injected-fault counts so far.
    pub fn stats(&self) -> FaultStats {
        lock_or_recover(&self.state).stats
    }

    /// Every fault fired so far, in op order.
    pub fn oplog(&self) -> Vec<FaultRecord> {
        lock_or_recover(&self.state).oplog.clone()
    }

    /// Every put and delete so far, in issue order, the crash victim
    /// included — what [`schedules`] derives crash plans from.
    pub fn writes(&self) -> Vec<OpRecord> {
        lock_or_recover(&self.state).writes.clone()
    }

    /// Count one operation and decide its fault, under the state lock:
    /// the crash plan first (puts and deletes only), then the pure
    /// per-path preview. Fired faults are recorded here; their obs
    /// emission, staging IO and sleeps happen in the caller, after the
    /// guard drops. Every operation after a crash is refused.
    fn decide(&self, op: OpKind, path: &str, bytes: usize) -> Result<Option<(FaultKind, u32)>> {
        let mut guard = lock_or_recover(&self.state);
        let state = &mut *guard;
        if state.crashed {
            return Err(Self::refused(op.name(), path));
        }
        let n = {
            let slot = state.seen.entry((op, path.to_string())).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let mut crash = false;
        if op != OpKind::Read {
            crash = self
                .schedule
                .crash
                .is_some_and(|c| c.at_op == state.writes.len());
            state.writes.push(OpRecord {
                kind: op,
                path: path.to_string(),
                bytes: bytes as u64,
            });
        }
        let fault = match op {
            _ if crash => Some(FaultKind::Crash),
            OpKind::Read => self.schedule.preview(path, n),
            OpKind::Put => self.schedule.preview_put(path, n),
            OpKind::Delete => None,
        };
        if let Some(kind) = fault {
            state.crashed = crash;
            state.oplog.push(FaultRecord {
                op: state.ops,
                op_kind: op,
                path: path.to_string(),
                kind,
                index: n,
            });
            let stats = &mut state.stats;
            *match (op, kind) {
                (_, FaultKind::Crash) => &mut stats.crash,
                (OpKind::Read, FaultKind::Transient) => &mut stats.read_transient,
                (OpKind::Read, FaultKind::Outage) => &mut stats.read_outage,
                (OpKind::Read, _) => &mut stats.read_latency,
                (_, FaultKind::Transient) => &mut stats.put_transient,
                (_, FaultKind::Outage) => &mut stats.put_outage,
                (_, _) => &mut stats.put_torn,
            } += 1;
        }
        state.ops += 1;
        Ok(fault.map(|kind| (kind, n)))
    }

    /// Emit the obs counter (and, inside a profiled query, the flight
    /// event) for a recorded fault. ObsHandle takes its own registry
    /// lock, so this must never nest under the `faults.state` guard.
    fn emit(&self, op: OpKind, kind: FaultKind) {
        // Counter keyed by (op, kind), so per-kind counts are assertable
        // against stats.
        self.obs.inc(
            names::STORE_FAULT_INJECTED,
            &[
                ("kind", kind.name().to_string()),
                ("op", op.name().to_string()),
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
                FaultKind::Crash => 4,
            };
            self.obs.flight_emit(
                FlightRec::event(&c, FlightName::FaultInjected, self.obs.flight_now_us())
                    .with_label(FlightLabel::Kind, code),
            );
        }
    }

    /// Emit a fired fault and return the error it fails its op with.
    fn inject(&self, op: OpKind, path: &str, (kind, n): (FaultKind, u32)) -> Error {
        self.emit(op, kind);
        Error::Injected(format!(
            "fault: {} on {} {n} of {path}",
            kind.name(),
            op.name()
        ))
    }

    /// The error every operation after a crash fails with.
    fn refused(what: &str, path: &str) -> Error {
        Error::Injected(format!("fault: {what} {path} after a crash"))
    }
}

impl BlobStore for FaultyBlobs {
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()> {
        let Some(fault) = self.decide(OpKind::Put, path, data.len())? else {
            return self.inner.put(path, data);
        };
        let torn = match fault {
            (FaultKind::Torn, n) => Some((
                self.schedule.torn_fragment_len(path, n, data.len()),
                TornWrite::Stage,
            )),
            (FaultKind::Crash, _) => self.schedule.crash.and_then(|c| c.torn),
            _ => None,
        };
        let err = self.inject(OpKind::Put, path, fault);
        if let Some((len, mode)) = torn {
            let target = match mode {
                TornWrite::Publish => path.to_string(),
                TornWrite::Stage => format!("{path}{TMP_SUFFIX}"),
            };
            // The fragment lands although the put fails: that is the
            // whole point of a torn write. Best-effort — it is debris
            // either way.
            let fragment = data.get(..len.min(data.len())).unwrap_or_default();
            let _ = self.inner.put(&target, fragment.to_vec());
        }
        Err(err)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        match self.decide(OpKind::Read, path, 0)? {
            None => self.inner.get(path),
            Some((FaultKind::Latency, _)) => {
                self.emit(OpKind::Read, FaultKind::Latency);
                // Sleep outside the lock so concurrent clean reads don't
                // queue behind an injected spike. Mock-clock runs skip the
                // real sleep.
                if self.schedule.spike_us > 0 && !self.obs.is_mock() {
                    std::thread::sleep(std::time::Duration::from_micros(self.schedule.spike_us));
                }
                self.inner.get(path)
            }
            Some(fault) => Err(self.inject(OpKind::Read, path, fault)),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        if lock_or_recover(&self.state).crashed {
            return Err(Self::refused("list", prefix));
        }
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        match self.decide(OpKind::Delete, path, 0)? {
            None => self.inner.delete(path),
            Some(fault) => Err(self.inject(OpKind::Delete, path, fault)),
        }
    }
}

/// Every crash schedule worth sweeping for a recorded writes log:
///
/// * one boundary crash per mutating operation (the op never happens);
/// * for every `put`, torn writes at offsets 0, half, and last-byte of
///   the payload, each in both [`TornWrite`] modes;
/// * for manifest blobs (paths ending in `.cman` — the commit-critical
///   writes) additionally a torn write every 256 bytes, both modes.
///
/// Offsets are deduplicated, so tiny blobs do not produce redundant
/// schedules. The sweep is exhaustive over the protocol's structure, not
/// sampled: if any single crash point can corrupt the store, one of these
/// schedules exercises it.
pub fn schedules(writes: &[OpRecord]) -> Vec<CrashPlan> {
    let mut plans = Vec::new();
    for (idx, op) in writes.iter().enumerate() {
        plans.push(CrashPlan {
            at_op: idx,
            torn: None,
        });
        if op.kind != OpKind::Put {
            continue;
        }
        let len = op.bytes as usize;
        let mut offsets = BTreeSet::new();
        offsets.insert(0);
        if len > 0 {
            offsets.insert(len / 2);
            offsets.insert(len - 1);
        }
        if op.path.ends_with(".cman") {
            let mut j = 256;
            while j < len {
                offsets.insert(j);
                j += 256;
            }
        }
        for j in offsets {
            for mode in [TornWrite::Publish, TornWrite::Stage] {
                plans.push(CrashPlan {
                    at_op: idx,
                    torn: Some((j, mode)),
                });
            }
        }
    }
    plans
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

    fn dfs() -> Arc<Dfs> {
        Arc::new(Dfs::new())
    }

    /// A wrapper over `inner` armed to crash per `plan`.
    fn armed(inner: &Arc<Dfs>, plan: CrashPlan) -> FaultyBlobs {
        FaultyBlobs::new(
            Arc::clone(inner) as Arc<dyn BlobStore>,
            FaultSchedule {
                crash: Some(plan),
                ..FaultSchedule::default()
            },
        )
    }

    #[test]
    fn preview_matches_live_injection() {
        // The live wrapper decides through the pure previews, so they
        // agree op for op, across all three read and write fault kinds.
        let reads = FaultSchedule {
            seed: 5,
            transient_fail_prob: 0.3,
            sticky_outage_prob: 0.5,
            outage_heals_after: 2,
            latency_spike_prob: 0.4,
            only_matching: Some(".cseg".to_string()),
            ..FaultSchedule::default()
        };
        let puts = FaultSchedule {
            seed: 11,
            put_transient_fail_prob: 0.3,
            put_sticky_outage_prob: 0.5,
            put_outage_heals_after: 2,
            torn_write_prob: 0.3,
            only_matching: Some(".cseg".to_string()),
            ..FaultSchedule::default()
        };
        for (op, schedule) in [(OpKind::Read, reads), (OpKind::Put, puts)] {
            let fb = FaultyBlobs::new(backing(), schedule.clone());
            for path in ["s/a.cseg", "s/b.cseg", "s/manifest"] {
                for n in 0..15u32 {
                    let before = fb.oplog().len();
                    let predicted = if op == OpKind::Read {
                        let _ = fb.get(path);
                        schedule.preview(path, n)
                    } else {
                        let _ = fb.put(path, vec![0xAB; 16]);
                        schedule.preview_put(path, n)
                    };
                    let fired = fb.oplog().get(before).map(|r| {
                        assert_eq!((r.path.as_str(), r.op_kind, r.index), (path, op, n));
                        r.kind
                    });
                    assert_eq!(fired, predicted, "{} {n} of {path}", op.name());
                }
            }
        }
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
        // Inside a recorded query every fault is also a flight event.
        let query = obs.flight_begin().expect("enabled");
        flightctx::scope(&query, || {
            for _ in 0..25 {
                let _ = fb.get("s/a.cseg");
                let _ = fb.put("s/a.cseg", vec![1, 2, 3]);
            }
        });
        assert!(
            obs.flight_finish(&query, 0, 1, true, false),
            "errored: kept"
        );
        let stats = fb.stats();
        assert!(stats.read_failures() > 0);
        assert!(stats.put_failures() > 0);
        for (op, kind, want) in [
            (OpKind::Read, FaultKind::Transient, stats.read_transient),
            (OpKind::Read, FaultKind::Latency, stats.read_latency),
            (OpKind::Put, FaultKind::Transient, stats.put_transient),
            (OpKind::Put, FaultKind::Torn, stats.put_torn),
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
        let tree = spcube_obs::SpanTree::parse_jsonl(&obs.flight_jsonl()).expect("trace parses");
        tree.validate().expect("valid");
        assert_eq!(
            tree.events_named(names::STORE_FAULT_INJECTED) as u64,
            stats.total(),
            "flight events must match stats"
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

    #[test]
    fn recording_wrapper_passes_through_and_logs() {
        let inner = dfs();
        let fb = FaultyBlobs::new(
            Arc::clone(&inner) as Arc<dyn BlobStore>,
            FaultSchedule::default(),
        );
        fb.put("a", vec![1, 2, 3]).expect("put");
        assert_eq!(fb.get("a").expect("get"), vec![1, 2, 3]);
        fb.delete("a").expect("delete");
        fb.put("b", vec![4]).expect("put");
        assert_eq!(fb.stats(), FaultStats::default());
        assert!(fb.oplog().is_empty());
        // Puts and deletes only, in issue order; the read is not logged.
        assert_eq!(
            fb.writes(),
            vec![
                OpRecord {
                    kind: OpKind::Put,
                    path: "a".into(),
                    bytes: 3
                },
                OpRecord {
                    kind: OpKind::Delete,
                    path: "a".into(),
                    bytes: 0
                },
                OpRecord {
                    kind: OpKind::Put,
                    path: "b".into(),
                    bytes: 1
                },
            ]
        );
        assert_eq!(inner.get("b").expect("b"), vec![4]);
    }

    #[test]
    fn boundary_crash_swallows_the_victim_and_everything_after() {
        let inner = dfs();
        let obs = ObsHandle::mock();
        // Faults are scoped to segments, but the plan indexes every put
        // and delete: op 1 is a manifest write, and it crashes.
        let fb = FaultyBlobs::new(
            Arc::clone(&inner) as Arc<dyn BlobStore>,
            FaultSchedule {
                only_matching: Some(".cseg".to_string()),
                crash: Some(CrashPlan {
                    at_op: 1,
                    torn: None,
                }),
                ..FaultSchedule::default()
            },
        )
        .with_obs(obs.clone());
        fb.put("a", vec![1]).expect("op 0 is clean");
        let err = fb.put("b", vec![2]).expect_err("op 1 crashes");
        assert!(matches!(err, Error::Injected(_)), "{err:?}");
        assert!(!err.is_data_loss(), "a crash must not degrade");
        // The victim never landed; later ops of any kind fail.
        assert!(inner.get("b").is_err());
        assert!(matches!(fb.put("c", vec![3]), Err(Error::Injected(_))));
        assert!(matches!(fb.delete("a"), Err(Error::Injected(_))));
        assert!(matches!(fb.get("a"), Err(Error::Injected(_))));
        assert!(matches!(fb.list(""), Err(Error::Injected(_))));
        // The inner store still has the pre-crash state.
        assert_eq!(inner.get("a").expect("a"), vec![1]);
        // The crash is one fault like any other: one record, one count,
        // one `kind=crash` counter; the refused ops after it are none.
        let oplog = fb.oplog();
        assert_eq!(oplog.len(), 1);
        assert_eq!(
            (oplog[0].op_kind, oplog[0].kind, oplog[0].path.as_str()),
            (OpKind::Put, FaultKind::Crash, "b")
        );
        assert_eq!(fb.stats().crash, 1);
        assert_eq!(fb.stats().total(), 1);
        assert_eq!(
            obs.counter_value(
                names::STORE_FAULT_INJECTED,
                &[("kind", "crash".to_string()), ("op", "put".to_string())],
            ),
            Some(1)
        );
        assert_eq!(fb.writes().len(), 2, "the victim is logged, nothing after");
    }

    #[test]
    fn torn_crashes_leave_the_fragment_where_the_medium_would() {
        for mode in [TornWrite::Publish, TornWrite::Stage] {
            let inner = dfs();
            inner.put("a", vec![9; 8]); // pre-existing blob to be clobbered
            let fb = armed(
                &inner,
                CrashPlan {
                    at_op: 0,
                    torn: Some((3, mode)),
                },
            );
            assert!(fb.put("a", vec![1, 2, 3, 4]).is_err());
            match mode {
                // No atomic replace: the fragment truncates the blob.
                TornWrite::Publish => assert_eq!(inner.get("a").expect("torn"), vec![1, 2, 3]),
                // Atomic rename: a temp file is stranded, the blob spared.
                TornWrite::Stage => {
                    assert_eq!(inner.get("a").expect("intact"), vec![9; 8]);
                    assert_eq!(inner.get("a.tmp").expect("fragment"), vec![1, 2, 3]);
                }
            }
        }
    }

    #[test]
    fn boundary_crash_on_delete_preserves_the_blob() {
        let inner = dfs();
        inner.put("a", vec![7]);
        let fb = armed(
            &inner,
            CrashPlan {
                at_op: 0,
                torn: None,
            },
        );
        assert!(fb.delete("a").is_err());
        assert_eq!(inner.get("a").expect("survives"), vec![7]);
        assert_eq!(fb.oplog()[0].op_kind, OpKind::Delete);
    }

    #[test]
    fn schedules_cover_boundaries_offsets_and_dense_manifests() {
        let writes = vec![
            OpRecord {
                kind: OpKind::Put,
                path: "s/gen-00000001/cuboid-001.cseg".into(),
                bytes: 100,
            },
            OpRecord {
                kind: OpKind::Put,
                path: "s/manifest.cman".into(),
                bytes: 600,
            },
            OpRecord {
                kind: OpKind::Delete,
                path: "s/gen-old".into(),
                bytes: 0,
            },
        ];
        let plans = schedules(&writes);
        // Every op has a boundary schedule.
        for idx in 0..writes.len() {
            assert!(plans.contains(&CrashPlan {
                at_op: idx,
                torn: None
            }));
        }
        // The segment put gets {0, 50, 99} × 2 modes.
        let seg_torn: Vec<_> = plans
            .iter()
            .filter(|p| p.at_op == 0 && p.torn.is_some())
            .collect();
        assert_eq!(seg_torn.len(), 6);
        // The manifest put additionally gets 256 and 512 — offsets
        // {0, 256, 300, 512, 599} × 2 modes.
        let man_offsets: BTreeSet<usize> = plans
            .iter()
            .filter(|p| p.at_op == 1)
            .filter_map(|p| p.torn.map(|(j, _)| j))
            .collect();
        assert_eq!(
            man_offsets.into_iter().collect::<Vec<_>>(),
            vec![0, 256, 300, 512, 599]
        );
        // The delete only gets its boundary.
        assert_eq!(plans.iter().filter(|p| p.at_op == 2).count(), 1);
    }

    #[test]
    fn zero_length_put_gets_only_offset_zero() {
        let writes = vec![OpRecord {
            kind: OpKind::Put,
            path: "s/empty".into(),
            bytes: 0,
        }];
        let plans = schedules(&writes);
        // boundary + offset 0 in both modes
        assert_eq!(plans.len(), 3);
    }
}
