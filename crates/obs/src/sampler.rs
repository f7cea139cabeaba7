//! Tail-based sampling policy and the one trace serializer.
//!
//! Every finished serving query is offered to the [`TailSampler`]; only
//! the interesting tail is persisted — queries that errored, missed
//! their deadline, or landed at or above the rolling p99 of the
//! recorder's latency histogram (once it has warmed up). Everything
//! else is dropped at ring-buffer granularity: its records simply get
//! overwritten, costing nothing. Build rounds skip the sampler: every
//! round's trace is kept.
//!
//! [`trace_jsonl`] writes every kept trace, query or build round, one
//! JSON object per line:
//!
//! ```json
//! {"type":"span_start","id":1,"parent":0,"name":"engine.round","ts_us":0,"trace":1,"labels":{"job":"sp-sketch","reducers":"8"}}
//! {"type":"span_end","id":1,"ts_us":9000,"trace":1,"attrs":{"sim_s":"1.250000"}}
//! {"type":"span_start","id":2,"parent":1,"name":"engine.phase.map","ts_us":0,"trace":1,"labels":{}}
//! {"type":"span_end","id":2,"ts_us":4000,"trace":1,"attrs":{}}
//! {"type":"event","name":"engine.task.retry","parent":2,"ts_us":3000,"trace":1,"labels":{"task":"2"}}
//! ```
//!
//! Parent 0 means "no parent": the trace's root. The numeric `trace`
//! field carries the trace id, and [`crate::tree::SpanTree`] parses the
//! format back, splitting a many-trace document per trace id.

use crate::hist::Histogram;
use crate::ring::{FlightKind, FlightLabel, FlightRec};

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
/// `event` line. The root (the span with parent 0) also carries
/// `root_labels` on its `span_start` and `root_attrs` on its `span_end`.
pub fn trace_jsonl(
    trace_id: u64,
    recs: &mut [FlightRec],
    root_labels: &[(&str, String)],
    root_attrs: &[(&str, String)],
) -> String {
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
        let (labels, attrs) = if rec.parent == 0 {
            (root_labels, root_attrs)
        } else {
            (&[][..], &[][..])
        };
        let labels = json_map(rec.label, labels);
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
                    "{{\"type\":\"span_end\",\"id\":{},\"ts_us\":{},\"trace\":{trace_id},\"attrs\":{}}}\n",
                    rec.id,
                    rec.start_us.saturating_add(rec.dur_us),
                    json_map(None, attrs),
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

/// A JSON object of string values: the record's numeric label, if any,
/// and the `text` pairs, sorted by key.
fn json_map(label: Option<(FlightLabel, u64)>, text: &[(&str, String)]) -> String {
    let mut pairs: Vec<(&str, String)> = text.to_vec();
    pairs.extend(label.map(|(k, v)| (k.as_str(), v.to_string())));
    pairs.sort();
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
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
        let jsonl = trace_jsonl(c.trace_id, &mut recs, &[], &[]);
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
            trace_jsonl(c.trace_id, &mut fwd, &[], &[]),
            trace_jsonl(c.trace_id, &mut rev, &[], &[])
        );
    }

    #[test]
    fn root_text_lands_on_the_root_lines_only_sorted_and_escaped() {
        let c = ctx();
        let mut recs = vec![
            FlightRec::root(&c, FlightName::Round, 0, 100),
            FlightRec::span(&c, 1001, FlightName::MapPhase, 0, 40),
        ];
        let labels = [("reducers", "8".into()), ("job", "a\"b".into())];
        let jsonl = trace_jsonl(c.trace_id, &mut recs, &labels, &[("sim_s", "1.5".into())]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].ends_with(r#""labels":{"job":"a\"b","reducers":"8"}}"#));
        assert!(lines[1].ends_with(r#""attrs":{"sim_s":"1.5"}}"#));
        assert!(lines[2].ends_with(r#""labels":{}}"#) && lines[3].ends_with(r#""attrs":{}}"#));
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
