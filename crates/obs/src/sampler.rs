//! Tail-based sampling policy and kept-trace serialization.
//!
//! Every finished flight query is offered to the [`TailSampler`]; only
//! the interesting tail is persisted — queries that errored, missed
//! their deadline, or landed at or above the rolling p99 of the
//! recorder's latency histogram (once it has warmed up). Everything
//! else is dropped at ring-buffer granularity: its records simply get
//! overwritten, costing nothing.
//!
//! Kept traces serialize to the exact JSONL schema
//! [`crate::trace::Tracer`] emits — [`crate::tree::SpanTree`] parses
//! them unmodified — plus one extra numeric `trace` field carrying the
//! trace id, which the tree parser ignores and `inspect -- flight`
//! groups by.

use crate::hist::Histogram;
use crate::ring::{FlightKind, FlightRec};
use crate::trace::escape;

/// The tail-sampling gate.
#[derive(Debug)]
pub struct TailSampler {
    /// Latency samples required before the p99 gate arms; before that,
    /// only errors and deadline misses keep.
    warmup: u64,
}

impl TailSampler {
    /// A sampler whose p99 gate arms after `warmup` samples.
    pub fn new(warmup: u64) -> TailSampler {
        TailSampler { warmup }
    }

    /// Whether a finished query's trace should be persisted. `latency`
    /// is the recorder's end-to-end histogram *before* this sample is
    /// recorded (the gate is rolling: it compares against what p99 was
    /// when the query finished).
    pub fn keep(
        &self,
        latency_us: f64,
        errored: bool,
        deadline_missed: bool,
        latency: &Histogram,
    ) -> bool {
        if errored || deadline_missed {
            return true;
        }
        latency.count() >= self.warmup && latency_us >= latency.quantile(0.99)
    }
}

/// Serialize one harvested trace as JSONL. Records are sorted by
/// `(start, id, name)` so the bytes are a pure function of the record
/// set — deterministic under the mock clock regardless of harvest
/// order. Spans emit a `span_start`/`span_end` pair; events emit one
/// `event` line.
pub fn trace_jsonl(trace_id: u64, recs: &mut [FlightRec]) -> String {
    recs.sort_by_key(|r| {
        (
            r.start_us,
            r.id,
            r.dur_us,
            r.name.name(),
            r.label.map(|(_, v)| v),
        )
    });
    let mut out = String::new();
    for rec in recs.iter() {
        let labels = match rec.label {
            Some((k, v)) => format!("{{\"{}\":\"{v}\"}}", escape(k.as_str())),
            None => "{}".to_string(),
        };
        match rec.kind {
            FlightKind::Span => {
                out.push_str(&format!(
                    "{{\"type\":\"span_start\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"ts_us\":{},\"trace\":{trace_id},\"labels\":{labels}}}\n",
                    rec.id,
                    rec.parent,
                    escape(rec.name.name().as_str()),
                    rec.start_us,
                ));
                out.push_str(&format!(
                    "{{\"type\":\"span_end\",\"id\":{},\"ts_us\":{},\"trace\":{trace_id},\"attrs\":{{}}}}\n",
                    rec.id,
                    rec.start_us.saturating_add(rec.dur_us),
                ));
            }
            FlightKind::Event => {
                out.push_str(&format!(
                    "{{\"type\":\"event\",\"name\":\"{}\",\"parent\":{},\"ts_us\":{},\"trace\":{trace_id},\"labels\":{labels}}}\n",
                    escape(rec.name.name().as_str()),
                    rec.parent,
                    rec.start_us,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{PhaseAcc, QueryCtx};
    use crate::ring::{FlightLabel, FlightName};
    use crate::tree::SpanTree;
    use std::sync::Arc;

    fn ctx() -> QueryCtx {
        QueryCtx {
            trace_id: 9,
            root: 1000,
            phases: Arc::new(PhaseAcc::default()),
        }
    }

    #[test]
    fn errors_and_misses_always_keep() {
        let s = TailSampler::new(4);
        let h = Histogram::new();
        assert!(s.keep(1.0, true, false, &h));
        assert!(s.keep(1.0, false, true, &h));
        assert!(!s.keep(1.0, false, false, &h), "gate unarmed, clean: drop");
    }

    #[test]
    fn p99_gate_arms_after_warmup() {
        let s = TailSampler::new(4);
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(100.0);
        }
        assert!(s.keep(200.0, false, false, &h), "above p99: keep");
        assert!(!s.keep(10.0, false, false, &h), "below p99: drop");
    }

    #[test]
    fn serialized_trace_parses_into_a_valid_tree() {
        let c = ctx();
        let mut recs = vec![
            FlightRec {
                trace_id: c.trace_id,
                id: c.root,
                parent: 0,
                kind: FlightKind::Span,
                name: FlightName::QueryTotal,
                start_us: 0,
                dur_us: 100,
                label: None,
            },
            FlightRec::span(&c, 1001, FlightName::BlobIo, 10, 30)
                .with_label(FlightLabel::Cuboid, 5),
            FlightRec::event(&c, FlightName::HedgeFired, 20).with_label(FlightLabel::Attempt, 2),
        ];
        let jsonl = trace_jsonl(c.trace_id, &mut recs);
        let tree = SpanTree::parse_jsonl(&jsonl).expect("parse");
        tree.validate().expect("valid");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.spans_named(FlightName::BlobIo.name()).len(), 1);
        assert_eq!(tree.events_named(FlightName::HedgeFired.name()), 1);
        assert!(jsonl.contains("\"trace\":9"));
        assert!(jsonl.contains("\"cuboid\":\"5\""));
    }

    #[test]
    fn serialization_is_order_independent() {
        let c = ctx();
        let a = FlightRec::span(&c, 1001, FlightName::BlobIo, 10, 30);
        let b = FlightRec::span(&c, 1002, FlightName::Decode, 40, 5);
        let mut fwd = vec![a, b];
        let mut rev = vec![b, a];
        assert_eq!(
            trace_jsonl(c.trace_id, &mut fwd),
            trace_jsonl(c.trace_id, &mut rev)
        );
    }
}
