//! Unified tracing + metrics for the SP-Cube workspace.
//!
//! Zero external dependencies, deterministic by construction:
//!
//! * [`Registry`] — typed counters, gauges, and log-bucketed histograms,
//!   addressable by [`Name`] + label set ([`names`] holds the contract:
//!   lowercase dotted idents, registered once, and no other way to make
//!   a [`Name`]).
//! * [`FlightRecorder`] — the one trace pipeline: fixed-size span and
//!   event records in bounded per-thread rings, timestamped by the
//!   workspace's single clock ([`Stopwatch`], or the deterministic
//!   [`Clock::mock`] that makes trace bytes reproducible). Serving
//!   queries are tail-sampled; every MapReduce round of an obs-enabled
//!   cluster is kept as one trace. Kept traces serialize to JSONL
//!   ([`sampler::trace_jsonl`]) and [`SpanTree`] parses and renders them.
//! * [`ObsHandle`] — the cheap clone-able handle the rest of the
//!   workspace threads through configs. A default handle is disabled and
//!   every operation on it is a no-op, so instrumented code pays one
//!   branch when observability is off and nothing is global (no
//!   cross-test pollution).
//!
//! Trace determinism contract: a build round's records are written on
//! the driver thread in deterministic order, and a kept trace is
//! serialized sorted by `(start, id)`; worker threads only touch
//! commutative atomic instruments (counters/histograms). Under
//! [`Clock::mock`] two identical runs therefore serialize byte-identical
//! traces.

// Serving and output path: no panic source outside tests, and no hash
// order in any exported trace or snapshot (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_types
)]

pub mod clock;
pub mod ctx;
pub mod hist;
pub mod names;
pub mod registry;
pub mod ring;
pub mod sampler;
pub mod tree;

use std::sync::Arc;

pub use clock::{Clock, Stopwatch, MOCK_STEP_US};
pub use ctx::{PhaseAcc, PhaseBreakdown, QueryCtx};
pub use hist::{Exemplar, Histogram};
pub use names::Name;
pub use registry::{Counter, Gauge, Registry};
pub use ring::{FlightKind, FlightLabel, FlightName, FlightRec, FlightRecorder, Ring};
pub use sampler::TailSampler;
pub use tree::{EventRec, SpanNode, SpanTree};

/// The full observability state behind an enabled [`ObsHandle`].
#[derive(Debug)]
pub struct Obs {
    /// Instrument registry.
    pub registry: Registry,
    /// The flight recorder: tail-sampled query traces and build rounds.
    pub flight: FlightRecorder,
}

/// A shareable handle to one observability session; the default handle
/// is disabled and every method is a no-op.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<Obs>>);

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(obs) if obs.flight.is_mock() => f.write_str("ObsHandle(mock)"),
            Some(_) => f.write_str("ObsHandle(wall)"),
            None => f.write_str("ObsHandle(off)"),
        }
    }
}

impl ObsHandle {
    /// An enabled handle timestamping with the host clock.
    pub fn wall() -> ObsHandle {
        ObsHandle::with_clock(Arc::new(Clock::wall()))
    }

    /// An enabled handle on the deterministic mock clock: trace output
    /// is byte-identical across identical runs.
    pub fn mock() -> ObsHandle {
        ObsHandle::with_clock(Arc::new(Clock::mock()))
    }

    /// An enabled handle whose flight recorder reads `clock`.
    pub fn with_clock(clock: Arc<Clock>) -> ObsHandle {
        ObsHandle(Some(Arc::new(Obs {
            registry: Registry::new(),
            flight: FlightRecorder::new(clock),
        })))
    }

    /// Whether instrumentation is live.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether this handle timestamps with the deterministic mock clock.
    /// Fault injectors use this to skip real sleeps in mock-clock tests;
    /// a disabled handle reports `false` (real time applies).
    pub fn is_mock(&self) -> bool {
        matches!(&self.0, Some(obs) if obs.flight.is_mock())
    }

    /// Add 1 to a counter.
    pub fn inc(&self, name: Name, labels: &[(&str, String)]) {
        self.add(name, labels, 1);
    }

    /// Add `n` to a counter.
    pub fn add(&self, name: Name, labels: &[(&str, String)], n: u64) {
        if let Some(obs) = &self.0 {
            obs.registry.counter(name, labels).add(n);
        }
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: Name, labels: &[(&str, String)], v: f64) {
        if let Some(obs) = &self.0 {
            obs.registry.gauge(name, labels).set(v);
        }
    }

    /// Record a histogram sample.
    pub fn hist_record(&self, name: Name, labels: &[(&str, String)], v: f64) {
        if let Some(obs) = &self.0 {
            obs.registry.histogram(name, labels).record(v);
        }
    }

    /// The histogram handle itself, for hot paths that record many
    /// samples (one registry lookup, then lock-free).
    pub fn histogram(&self, name: Name, labels: &[(&str, String)]) -> Option<Arc<Histogram>> {
        self.0
            .as_ref()
            .map(|obs| obs.registry.histogram(name, labels))
    }

    /// The counter handle itself, for hot paths (one registry lookup,
    /// then a relaxed atomic per increment).
    pub fn counter(&self, name: Name, labels: &[(&str, String)]) -> Option<Arc<Counter>> {
        self.0
            .as_ref()
            .map(|obs| obs.registry.counter(name, labels))
    }

    /// Current counter value (`None` when disabled).
    pub fn counter_value(&self, name: Name, labels: &[(&str, String)]) -> Option<u64> {
        self.0
            .as_ref()
            .map(|obs| obs.registry.counter(name, labels).get())
    }

    /// Current gauge value (`None` when disabled).
    pub fn gauge_value(&self, name: Name, labels: &[(&str, String)]) -> Option<f64> {
        self.0
            .as_ref()
            .map(|obs| obs.registry.gauge(name, labels).get())
    }

    /// Prometheus-style snapshot of all instruments (empty when disabled).
    pub fn prometheus(&self) -> String {
        self.0
            .as_ref()
            .map(|obs| obs.registry.prometheus_snapshot())
            .unwrap_or_default()
    }

    /// Open a flight-recorder query context (`None` when disabled).
    pub fn flight_begin(&self) -> Option<QueryCtx> {
        self.0.as_ref().map(|obs| obs.flight.begin())
    }

    /// Current time on the flight recorder's clock, µs (0 when disabled).
    pub fn flight_now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |obs| obs.flight.now_us())
    }

    /// A fresh flight span id (0 when disabled).
    pub fn flight_span_id(&self) -> u64 {
        self.0.as_ref().map_or(0, |obs| obs.flight.span_id())
    }

    /// Write one record into this thread's flight ring.
    pub fn flight_emit(&self, rec: FlightRec) {
        if let Some(obs) = &self.0 {
            obs.flight.emit(rec);
        }
    }

    /// Finish a flight query: tail-sample, and persist the harvested
    /// trace when kept. Bumps `store.flight.kept` / `store.flight.dropped`
    /// and returns whether the trace was kept (`false` when disabled).
    pub fn flight_finish(
        &self,
        ctx: &QueryCtx,
        start_us: u64,
        total_us: u64,
        errored: bool,
        deadline_missed: bool,
    ) -> bool {
        let Some(obs) = &self.0 else {
            return false;
        };
        let kept = obs
            .flight
            .finish(ctx, start_us, total_us, errored, deadline_missed);
        let name = if kept {
            names::STORE_FLIGHT_KEPT
        } else {
            names::STORE_FLIGHT_DROPPED
        };
        obs.registry.counter(name, &[]).inc();
        kept
    }

    /// Keep a trace without sampling it (builds): see
    /// [`FlightRecorder::keep`]. Touches no counter and no histogram.
    pub fn flight_keep(
        &self,
        root: FlightRec,
        labels: &[(&str, String)],
        attrs: &[(&str, String)],
    ) {
        if let Some(obs) = &self.0 {
            obs.flight.keep(root, labels, attrs);
        }
    }

    /// All kept flight traces as one JSONL document (empty when disabled).
    pub fn flight_jsonl(&self) -> String {
        self.0
            .as_ref()
            .map(|obs| obs.flight.jsonl())
            .unwrap_or_default()
    }

    /// Trace ids of all kept flight traces, ascending.
    pub fn flight_kept(&self) -> Vec<u64> {
        self.0
            .as_ref()
            .map(|obs| obs.flight.kept_ids())
            .unwrap_or_default()
    }

    /// Exemplars pinned to the flight latency histogram's buckets.
    pub fn flight_exemplars(&self) -> Vec<Exemplar> {
        self.0
            .as_ref()
            .map(|obs| obs.flight.latency().exemplars())
            .unwrap_or_default()
    }

    /// A quantile of the flight latency histogram (0 when disabled).
    pub fn flight_latency_quantile(&self, q: f64) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |obs| obs.flight.latency().quantile(q))
    }
}

/// Run `f` timed against the flight recorder. When obs is enabled and a
/// [`ctx::scope`] is active on this thread, the elapsed µs are charged
/// to the phase accumulator matching `name` (blob-IO, decode, or merge)
/// and emitted as a flight span; otherwise `f` runs untimed. This is the
/// one instrumentation point the storage layer needs — it reads the
/// context the serving worker scoped, so no signature grows a context
/// parameter.
pub fn flight_timed<T>(
    obs: &ObsHandle,
    name: FlightName,
    label: Option<(FlightLabel, u64)>,
    f: impl FnOnce() -> T,
) -> T {
    let Some(c) = obs.enabled().then(ctx::current).flatten() else {
        return f();
    };
    let t0 = obs.flight_now_us();
    let out = f();
    let dur_us = obs.flight_now_us().saturating_sub(t0);
    match name {
        FlightName::BlobIo => c.phases.add_io(dur_us),
        FlightName::Decode => c.phases.add_decode(dur_us),
        FlightName::Merge => c.phases.add_merge(dur_us),
        _ => {}
    }
    let mut rec = FlightRec::span(&c, obs.flight_span_id(), name, t0, dur_us);
    if let Some((key, value)) = label {
        rec = rec.with_label(key, value);
    }
    obs.flight_emit(rec);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_total_noop() {
        let obs = ObsHandle::default();
        assert!(!obs.enabled());
        obs.inc(names::STORE_CACHE_HIT, &[]);
        obs.gauge_set(names::SPCUBE_REDUCER_IMBALANCE, &[], 1.0);
        obs.hist_record(names::SERVE_QUERY_US, &[], 5.0);
        assert!(obs.histogram(names::SERVE_QUERY_US, &[]).is_none());
        assert_eq!(obs.counter_value(names::STORE_CACHE_HIT, &[]), None);
        assert!(obs.prometheus().is_empty());
        assert_eq!(format!("{obs:?}"), "ObsHandle(off)");
    }

    #[test]
    fn clones_share_one_session() {
        let obs = ObsHandle::mock();
        let other = obs.clone();
        obs.inc(names::STORE_CACHE_HIT, &[]);
        other.inc(names::STORE_CACHE_HIT, &[]);
        assert_eq!(obs.counter_value(names::STORE_CACHE_HIT, &[]), Some(2));
        assert_eq!(format!("{obs:?}"), "ObsHandle(mock)");
        assert_eq!(format!("{:?}", ObsHandle::wall()), "ObsHandle(wall)");
    }

    #[test]
    fn disabled_flight_api_is_a_noop() {
        let obs = ObsHandle::default();
        assert!(obs.flight_begin().is_none());
        assert_eq!(obs.flight_now_us(), 0);
        assert_eq!(obs.flight_span_id(), 0);
        assert!(obs.flight_jsonl().is_empty());
        assert!(obs.flight_kept().is_empty());
        assert!(obs.flight_exemplars().is_empty());
        assert_eq!(obs.flight_latency_quantile(0.99), 0.0);
    }

    #[test]
    fn flight_finish_bumps_kept_and_dropped_counters() {
        let obs = ObsHandle::mock();
        let ctx = obs.flight_begin().expect("enabled");
        obs.flight_emit(FlightRec::span(
            &ctx,
            obs.flight_span_id(),
            FlightName::BlobIo,
            0,
            3,
        ));
        assert!(obs.flight_finish(&ctx, 0, 10, true, false));
        assert_eq!(obs.counter_value(names::STORE_FLIGHT_KEPT, &[]), Some(1));
        assert_eq!(obs.flight_kept(), vec![ctx.trace_id]);
        let tree = SpanTree::parse_jsonl(&obs.flight_jsonl()).expect("parse");
        tree.validate().expect("valid");
        assert_eq!(tree.spans_named(names::SERVE_PHASE_TOTAL).len(), 1);
    }

    #[test]
    fn flight_timed_charges_phases_only_inside_a_scope() {
        let obs = ObsHandle::mock();
        let c = obs.flight_begin().expect("ctx");
        let out = ctx::scope(&c, || {
            flight_timed(
                &obs,
                FlightName::BlobIo,
                Some((FlightLabel::Cuboid, 3)),
                || 42,
            )
        });
        assert_eq!(out, 42);
        assert!(c.phases.breakdown(1_000_000).io_us > 0, "mock ticks charge");
        // Outside a scope the same call is untimed.
        flight_timed(&obs, FlightName::Decode, None, || ());
        assert_eq!(c.phases.breakdown(1_000_000).decode_us, 0);
    }
}
