//! Per-thread lock-free span ring buffers and the flight recorder that
//! harvests them.
//!
//! Every thread that touches a recorded query or build round writes
//! complete-span records (written once, at span end — never a torn
//! half-open span) into its own single-producer [`Ring`] of
//! seqlock-guarded slots. The [`FlightRecorder`] hands each thread its
//! ring through a thread-local cache, allocates trace and span ids, and
//! — when a trace is kept (a serving query the tail sampler picks, or
//! any build round) — harvests every registered ring for that trace id
//! and serializes one complete JSONL trace.
//!
//! Memory model: every word of a slot is an `AtomicU64`, so concurrent
//! harvest is free of undefined behaviour by construction. The seqlock
//! word (odd while the owning thread is writing, bumped to even when
//! done) rejects records read mid-write; the only record a harvest can
//! lose is one overwritten after more than [`RING_CAPACITY`] newer
//! records — and the recorder harvests at query end, immediately after
//! the records were written, so a kept trace's records are still
//! resident.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spcube_common::sync::lock_or_recover;

use crate::clock::Clock;
use crate::ctx::{PhaseAcc, QueryCtx};
use crate::hist::Histogram;
use crate::names::{self, Name};
use crate::sampler::{self, TailSampler};

/// Records each per-thread ring holds before wrap-around overwrites the
/// oldest (dropping non-sampled traces at ring-buffer granularity).
pub const RING_CAPACITY: usize = 4096;

/// Samples the recorder's latency histogram needs before the rolling
/// p99 gate arms (everything tail-samples as "slow" against an empty
/// histogram).
const P99_WARMUP: u64 = 64;

/// What a flight record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A closed span: `start_us` + `dur_us`.
    Span,
    /// An instantaneous event at `start_us`.
    Event,
}

/// The closed table of names a flight record may carry. Records store
/// the declaration index, not a pointer, so a slot stays seven data
/// words; [`FlightName::name`] maps back to the registered obs name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightName {
    /// Root span of the whole query.
    QueryTotal,
    /// Admission-to-dequeue wait in the bounded queue.
    QueueWait,
    /// One blob fetch on the read path.
    BlobIo,
    /// One segment decode.
    Decode,
    /// One layered state merge.
    Merge,
    /// Residual latency (synthesized at finish).
    Finalize,
    /// The client retried an attempt.
    Retry,
    /// The client fired a hedged attempt.
    HedgeFired,
    /// The hedged attempt won.
    HedgeWon,
    /// A per-cuboid breaker opened.
    BreakerOpen,
    /// An open breaker refused the query.
    Shed,
    /// The query missed its deadline.
    DeadlineMiss,
    /// An injected read fault fired under this query.
    FaultInjected,
    /// The query ended in a typed error.
    Error,
    /// Root span of one MapReduce round.
    Round,
    /// The round's map phase, map-side recovery included.
    MapPhase,
    /// The round's shuffle, sort and reduce phase.
    ReducePhase,
    /// A failed task attempt was retried.
    TaskRetry,
    /// A speculative backup of a slow task launched.
    TaskSpeculate,
    /// A machine was lost mid-round.
    MachineLost,
}

impl FlightName {
    /// Every name, in declaration order: a record stores its index here.
    const ALL: [FlightName; 20] = [
        FlightName::QueryTotal,
        FlightName::QueueWait,
        FlightName::BlobIo,
        FlightName::Decode,
        FlightName::Merge,
        FlightName::Finalize,
        FlightName::Retry,
        FlightName::HedgeFired,
        FlightName::HedgeWon,
        FlightName::BreakerOpen,
        FlightName::Shed,
        FlightName::DeadlineMiss,
        FlightName::FaultInjected,
        FlightName::Error,
        FlightName::Round,
        FlightName::MapPhase,
        FlightName::ReducePhase,
        FlightName::TaskRetry,
        FlightName::TaskSpeculate,
        FlightName::MachineLost,
    ];

    /// The registered obs name this record renders as.
    pub fn name(self) -> Name {
        match self {
            FlightName::QueryTotal => names::SERVE_PHASE_TOTAL,
            FlightName::QueueWait => names::SERVE_PHASE_QUEUE_WAIT,
            FlightName::BlobIo => names::STORE_FLIGHT_BLOB_IO,
            FlightName::Decode => names::STORE_FLIGHT_DECODE,
            FlightName::Merge => names::STORE_FLIGHT_MERGE,
            FlightName::Finalize => names::SERVE_PHASE_FINALIZE,
            FlightName::Retry => names::SERVE_PHASE_RETRY,
            FlightName::HedgeFired => names::SERVE_HEDGE_FIRED,
            FlightName::HedgeWon => names::SERVE_HEDGE_WON,
            FlightName::BreakerOpen => names::SERVE_BREAKER_OPEN,
            FlightName::Shed => names::SERVE_BREAKER_SHED,
            FlightName::DeadlineMiss => names::SERVE_DEADLINE_EXCEEDED,
            FlightName::FaultInjected => names::STORE_FAULT_INJECTED,
            FlightName::Error => names::SERVE_PHASE_ERROR,
            FlightName::Round => names::ENGINE_ROUND,
            FlightName::MapPhase => names::ENGINE_PHASE_MAP,
            FlightName::ReducePhase => names::ENGINE_PHASE_REDUCE,
            FlightName::TaskRetry => names::ENGINE_TASK_RETRY,
            FlightName::TaskSpeculate => names::ENGINE_TASK_SPECULATE,
            FlightName::MachineLost => names::ENGINE_MACHINE_LOST,
        }
    }

    fn from_u8(v: u8) -> Option<FlightName> {
        FlightName::ALL.get(usize::from(v)).copied()
    }
}

/// The single optional numeric label a flight record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightLabel {
    /// Attempt number (retries, hedges).
    Attempt,
    /// Cuboid mask bits.
    Cuboid,
    /// Delta layer generation.
    Layer,
    /// Injected fault kind code.
    Kind,
    /// Map or reduce task index.
    Task,
    /// Machine index.
    Machine,
}

impl FlightLabel {
    /// Every label key, in declaration order: a record stores its index.
    const ALL: [FlightLabel; 6] = [
        FlightLabel::Attempt,
        FlightLabel::Cuboid,
        FlightLabel::Layer,
        FlightLabel::Kind,
        FlightLabel::Task,
        FlightLabel::Machine,
    ];

    /// Label key as rendered in the trace JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightLabel::Attempt => "attempt",
            FlightLabel::Cuboid => "cuboid",
            FlightLabel::Layer => "layer",
            FlightLabel::Kind => "kind",
            FlightLabel::Task => "task",
            FlightLabel::Machine => "machine",
        }
    }

    fn from_u8(v: u8) -> Option<FlightLabel> {
        FlightLabel::ALL.get(usize::from(v)).copied()
    }
}

/// One decoded flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRec {
    /// Which trace (query or build round) this record belongs to.
    pub trace_id: u64,
    /// Record id (unique per recorder for spans, from 1; events reuse 0).
    pub id: u64,
    /// Parent span id (0 for the root itself).
    pub parent: u64,
    /// Span or event.
    pub kind: FlightKind,
    /// Name (index into the closed flight-name table).
    pub name: FlightName,
    /// Start timestamp, µs on the recorder's clock.
    pub start_us: u64,
    /// Duration, µs (0 for events).
    pub dur_us: u64,
    /// Optional numeric label.
    pub label: Option<(FlightLabel, u64)>,
}

impl FlightRec {
    /// A closed span under `ctx`'s root.
    pub fn span(
        ctx: &QueryCtx,
        id: u64,
        name: FlightName,
        start_us: u64,
        dur_us: u64,
    ) -> FlightRec {
        FlightRec {
            trace_id: ctx.trace_id,
            id,
            parent: ctx.root,
            kind: FlightKind::Span,
            name,
            start_us,
            dur_us,
            label: None,
        }
    }

    /// An instantaneous event under `ctx`'s root.
    pub fn event(ctx: &QueryCtx, name: FlightName, ts_us: u64) -> FlightRec {
        FlightRec {
            trace_id: ctx.trace_id,
            id: 0,
            parent: ctx.root,
            kind: FlightKind::Event,
            name,
            start_us: ts_us,
            dur_us: 0,
            label: None,
        }
    }

    /// The root span of `ctx`'s trace: id `ctx.root`, parent 0.
    pub fn root(ctx: &QueryCtx, name: FlightName, start_us: u64, dur_us: u64) -> FlightRec {
        FlightRec {
            parent: 0,
            ..FlightRec::span(ctx, ctx.root, name, start_us, dur_us)
        }
    }

    /// Attach the record's one numeric label.
    pub fn with_label(mut self, key: FlightLabel, value: u64) -> FlightRec {
        self.label = Some((key, value));
        self
    }

    /// Parent the record under span `parent` instead of the root.
    pub fn with_parent(mut self, parent: u64) -> FlightRec {
        self.parent = parent;
        self
    }
}

const LABEL_NONE: u8 = 0xff;

/// Pack kind/name/label-key into the meta word.
fn pack_meta(rec: &FlightRec) -> u64 {
    let kind = match rec.kind {
        FlightKind::Span => 0u64,
        FlightKind::Event => 1,
    };
    let label_key = rec.label.map_or(LABEL_NONE, |(k, _)| k as u8);
    kind << 16 | (rec.name as u64) << 8 | u64::from(label_key)
}

fn unpack_meta(meta: u64) -> Option<(FlightKind, FlightName, Option<FlightLabel>)> {
    let kind = match (meta >> 16) & 0xff {
        0 => FlightKind::Span,
        1 => FlightKind::Event,
        _ => return None,
    };
    let name = FlightName::from_u8(((meta >> 8) & 0xff) as u8)?;
    let label_byte = (meta & 0xff) as u8;
    let label = if label_byte == LABEL_NONE {
        None
    } else {
        Some(FlightLabel::from_u8(label_byte)?)
    };
    Some((kind, name, label))
}

/// One ring slot: a seqlock word plus seven data words, all atomic.
#[derive(Debug)]
struct Slot {
    /// Odd while the owner writes, even when the record is consistent.
    seq: AtomicU64,
    /// trace_id, id, parent, packed meta, start_us, dur_us, label value.
    words: [AtomicU64; 7],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A single-producer span ring buffer. The owning thread pushes;
/// harvest may read from any thread concurrently.
#[derive(Debug)]
pub struct Ring {
    slots: Box<[Slot]>,
    /// Records ever pushed (the write cursor).
    head: AtomicU64,
}

impl Ring {
    /// A ring of `capacity` slots (at least 1).
    pub fn with_capacity(capacity: usize) -> Ring {
        let cap = capacity.max(1);
        Ring {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Records ever pushed (wrapped records are overwritten, not
    /// subtracted).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Push one record. Single producer: only the owning thread calls
    /// this; concurrent pushes from two threads would race the seqlock.
    pub fn push(&self, rec: &FlightRec) {
        let head = self.head.load(Ordering::Relaxed);
        let Some(slot) = self.slots.get(head as usize % self.slots.len()) else {
            return;
        };
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::SeqCst); // odd: write in progress
        let values = [
            rec.trace_id,
            rec.id,
            rec.parent,
            pack_meta(rec),
            rec.start_us,
            rec.dur_us,
            rec.label.map_or(0, |(_, v)| v),
        ];
        for (w, v) in slot.words.iter().zip(values) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq.wrapping_add(2), Ordering::SeqCst); // even: consistent
        self.head.store(head + 1, Ordering::Release);
    }

    /// Collect every resident record with `trace_id` into `out`.
    /// Records the owner is overwriting mid-read are skipped (their
    /// seqlock word is odd or moved), never returned torn.
    pub fn harvest(&self, trace_id: u64, out: &mut Vec<FlightRec>) {
        for slot in self.slots.iter() {
            for _attempt in 0..3 {
                let s1 = slot.seq.load(Ordering::SeqCst);
                if s1 == 0 || s1 & 1 == 1 {
                    break; // empty or mid-write
                }
                let mut values = [0u64; 7];
                for (v, w) in values.iter_mut().zip(slot.words.iter()) {
                    *v = w.load(Ordering::SeqCst);
                }
                let s2 = slot.seq.load(Ordering::SeqCst);
                if s1 != s2 {
                    continue; // overwritten under us: retry
                }
                let [trace, id, parent, meta, start_us, dur_us, label_val] = values;
                if trace == trace_id {
                    if let Some((kind, name, label_key)) = unpack_meta(meta) {
                        out.push(FlightRec {
                            trace_id: trace,
                            id,
                            parent,
                            kind,
                            name,
                            start_us,
                            dur_us,
                            label: label_key.map(|k| (k, label_val)),
                        });
                    }
                }
                break;
            }
        }
    }
}

/// Recorder instance counter, so the thread-local ring cache can tell
/// rings of different recorders (different `ObsHandle`s) apart.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ring per live recorder id.
    static LOCAL_RINGS: std::cell::RefCell<Vec<(u64, Arc<Ring>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The always-on flight recorder behind an enabled `ObsHandle`: owns
/// the per-thread rings, allocates trace/span ids, runs the tail
/// sampler, and keeps the persisted-trace buffer.
#[derive(Debug)]
pub struct FlightRecorder {
    id: u64,
    clock: Arc<Clock>,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    sampler: TailSampler,
    /// End-to-end latency of every finished flight query; the rolling
    /// p99 gate and the exemplar set live here.
    latency: Histogram,
    /// Kept traces: `(trace_id, jsonl)` in keep order.
    kept: Mutex<Vec<(u64, String)>>,
}

impl FlightRecorder {
    /// A recorder on the given clock.
    pub fn new(clock: Arc<Clock>) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            clock,
            rings: Mutex::new(Vec::new()),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            sampler: TailSampler::new(P99_WARMUP),
            latency: Histogram::new(),
            kept: Mutex::new(Vec::new()),
        }
    }

    /// Current time on the recorder's clock, µs.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Whether the recorder runs on the deterministic mock clock.
    pub fn is_mock(&self) -> bool {
        self.clock.is_mock()
    }

    /// Open a new query context.
    pub fn begin(&self) -> QueryCtx {
        QueryCtx {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
            root: self.span_id(),
            phases: Arc::new(PhaseAcc::default()),
        }
    }

    /// A fresh flight span id.
    pub fn span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// This thread's ring, created and registered on first touch.
    pub fn local_ring(&self) -> Arc<Ring> {
        let cached = LOCAL_RINGS
            .try_with(|cache| {
                cache
                    .borrow()
                    .iter()
                    .find(|(id, _)| *id == self.id)
                    .map(|(_, r)| Arc::clone(r))
            })
            .ok()
            .flatten();
        if let Some(ring) = cached {
            return ring;
        }
        let ring = Arc::new(Ring::with_capacity(RING_CAPACITY));
        lock_or_recover(&self.rings).push(Arc::clone(&ring));
        let _ = LOCAL_RINGS.try_with(|cache| {
            cache.borrow_mut().push((self.id, Arc::clone(&ring)));
        });
        ring
    }

    /// Write one record into this thread's ring.
    pub fn emit(&self, rec: FlightRec) {
        self.local_ring().push(&rec);
    }

    /// Finish a serving query: the tail sampler decides, with the
    /// query's latency entering the histogram either way (a kept query's
    /// trace id pinned there as an exemplar); a kept query then gets its
    /// residual finalize span and goes through [`FlightRecorder::keep`].
    /// Returns whether the trace was kept. `start_us`/`total_us` are on
    /// the recorder's clock.
    pub fn finish(
        &self,
        ctx: &QueryCtx,
        start_us: u64,
        total_us: u64,
        errored: bool,
        deadline_missed: bool,
    ) -> bool {
        let us = total_us as f64;
        if !self
            .sampler
            .keep(us, errored, deadline_missed, &self.latency)
        {
            self.latency.record(us);
            return false;
        }
        self.latency.record_with_exemplar(us, ctx.trace_id);
        let finalize_us = ctx.phases.breakdown(total_us).finalize_us;
        self.emit(FlightRec::span(
            ctx,
            self.span_id(),
            FlightName::Finalize,
            start_us + total_us.saturating_sub(finalize_us),
            finalize_us,
        ));
        let root = FlightRec::root(ctx, FlightName::QueryTotal, start_us, total_us);
        self.keep(root, &[], &[]);
        true
    }

    /// Persist one trace: add its `root` span to what every ring holds
    /// for the root's trace id, serialize, and store. `labels` and
    /// `attrs` are text for the root's `span_start` and `span_end`
    /// lines. Build rounds call this directly: their traces are never
    /// sampled and never enter the latency histogram.
    pub fn keep(&self, root: FlightRec, labels: &[(&str, String)], attrs: &[(&str, String)]) {
        let rings: Vec<Arc<Ring>> = lock_or_recover(&self.rings).clone();
        let mut recs = vec![root];
        for ring in &rings {
            ring.harvest(root.trace_id, &mut recs);
        }
        let jsonl = sampler::trace_jsonl(root.trace_id, &mut recs, labels, attrs);
        lock_or_recover(&self.kept).push((root.trace_id, jsonl));
    }

    /// All kept traces as one JSONL document, ordered by trace id.
    pub fn jsonl(&self) -> String {
        let mut kept = lock_or_recover(&self.kept).clone();
        kept.sort_by_key(|(id, _)| *id);
        kept.into_iter().map(|(_, j)| j).collect()
    }

    /// Trace ids of all kept traces, ascending.
    pub fn kept_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = lock_or_recover(&self.kept)
            .iter()
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The recorder's end-to-end latency histogram (p99 gate + exemplars).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(recorder: &FlightRecorder) -> QueryCtx {
        recorder.begin()
    }

    #[test]
    fn ring_round_trips_records() {
        let ring = Ring::with_capacity(8);
        let r = FlightRecorder::new(Arc::new(Clock::mock()));
        let c = ctx(&r);
        let rec = FlightRec::span(&c, r.span_id(), FlightName::BlobIo, 100, 40)
            .with_label(FlightLabel::Cuboid, 5);
        ring.push(&rec);
        ring.push(&FlightRec::event(&c, FlightName::HedgeFired, 120));
        let mut out = Vec::new();
        ring.harvest(c.trace_id, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&rec));
        // Other trace ids see nothing.
        let mut other = Vec::new();
        ring.harvest(c.trace_id + 1, &mut other);
        assert!(other.is_empty());
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let ring = Ring::with_capacity(4);
        let r = FlightRecorder::new(Arc::new(Clock::mock()));
        let c = ctx(&r);
        for i in 0..10u64 {
            ring.push(&FlightRec::span(&c, i + 1, FlightName::Decode, i, 1));
        }
        assert_eq!(ring.pushed(), 10);
        let mut out = Vec::new();
        ring.harvest(c.trace_id, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|rec| rec.id >= 7), "only the newest survive");
    }

    #[test]
    fn meta_packing_round_trips_every_name() {
        for v in 0..=u8::MAX {
            if let Some(name) = FlightName::from_u8(v) {
                assert_eq!(name as u8, v);
                let r = FlightRecorder::new(Arc::new(Clock::mock()));
                let c = ctx(&r);
                let rec = FlightRec::event(&c, name, 1).with_label(FlightLabel::Attempt, 2);
                let (kind, n2, label) = unpack_meta(pack_meta(&rec)).expect("meta");
                assert_eq!(kind, FlightKind::Event);
                assert_eq!(n2, name);
                assert_eq!(label, Some(FlightLabel::Attempt));
            }
            if let Some(key) = FlightLabel::from_u8(v) {
                assert_eq!(key as u8, v);
            }
        }
    }

    #[test]
    fn recorder_keeps_errored_queries_and_exposes_exemplars() {
        let r = FlightRecorder::new(Arc::new(Clock::mock()));
        let c = r.begin();
        r.emit(FlightRec::span(&c, r.span_id(), FlightName::BlobIo, 10, 5));
        let kept = r.finish(&c, 0, 100, true, false);
        assert!(kept, "errored queries always keep");
        assert_eq!(r.kept_ids(), vec![c.trace_id]);
        let exemplars = r.latency().exemplars();
        assert!(exemplars.iter().any(|e| e.trace_id == c.trace_id));
        let jsonl = r.jsonl();
        assert!(jsonl.contains("\"trace\":1"));
        assert!(jsonl.contains(names::SERVE_PHASE_TOTAL.as_str()));
        assert!(jsonl.contains(names::STORE_FLIGHT_BLOB_IO.as_str()));
        assert!(jsonl.contains(names::SERVE_PHASE_FINALIZE.as_str()));
    }

    #[test]
    fn recorder_drops_fast_clean_queries_after_warmup() {
        let r = FlightRecorder::new(Arc::new(Clock::mock()));
        // Warm the gate with slow queries, then finish a fast clean one.
        for _ in 0..(P99_WARMUP + 8) {
            let c = r.begin();
            r.finish(&c, 0, 100_000, false, false);
        }
        let fast = r.begin();
        assert!(!r.finish(&fast, 0, 10, false, false));
        assert!(!r.kept_ids().contains(&fast.trace_id));
    }

    #[test]
    fn local_rings_are_per_thread_and_all_harvested() {
        let r = Arc::new(FlightRecorder::new(Arc::new(Clock::mock())));
        let c = r.begin();
        r.emit(FlightRec::span(
            &c,
            r.span_id(),
            FlightName::QueueWait,
            0,
            1,
        ));
        let rc = Arc::clone(&r);
        let cc = c.clone();
        std::thread::spawn(move || {
            rc.emit(FlightRec::span(&cc, rc.span_id(), FlightName::BlobIo, 1, 1));
        })
        .join()
        .ok();
        assert!(r.finish(&c, 0, 50, true, false));
        let jsonl = r.jsonl();
        assert!(jsonl.contains(names::SERVE_PHASE_QUEUE_WAIT.as_str()));
        assert!(
            jsonl.contains(names::STORE_FLIGHT_BLOB_IO.as_str()),
            "cross-thread record harvested"
        );
    }
}
