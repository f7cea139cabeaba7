//! Span/event tracer with JSONL export.
//!
//! Spans record start/end timestamps and a parent; events are instants.
//! All recording appends to an in-memory log under a short mutex hold;
//! the JSONL serialization is produced on demand, one JSON object per
//! line:
//!
//! ```json
//! {"type":"span_start","id":1,"parent":0,"name":"engine.round","ts_us":0,"labels":{"job":"sp-sketch"}}
//! {"type":"span_end","id":1,"ts_us":5000,"attrs":{"sim_s":"1.250"}}
//! {"type":"event","name":"engine.task.retry","parent":1,"ts_us":3000,"labels":{"task":"2"}}
//! ```
//!
//! Parent id 0 is the root. Under [`Clock::mock`] the emitted bytes are
//! a pure function of the recording order, so two identical runs produce
//! byte-identical trace files.

use std::sync::{Arc, Mutex};

use spcube_common::sync::lock_or_recover;

use crate::clock::Clock;
use crate::names::Name;

/// Identifier of a recorded span; [`SpanId::ROOT`] (0) is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The implicit root: spans with this parent are top-level.
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
enum Record {
    SpanStart {
        id: u64,
        parent: u64,
        name: Name,
        ts_us: u64,
        labels: Vec<(String, String)>,
    },
    SpanEnd {
        id: u64,
        ts_us: u64,
        attrs: Vec<(String, String)>,
    },
    Event {
        name: Name,
        parent: u64,
        ts_us: u64,
        labels: Vec<(String, String)>,
    },
}

#[derive(Debug, Default)]
struct TraceState {
    next_id: u64,
    records: Vec<Record>,
}

/// The tracer: a clock plus an append-only record log. The clock is
/// shared (`Arc`) with the flight recorder of the same obs session, so
/// driver spans and flight records read one timeline.
#[derive(Debug)]
pub struct Tracer {
    clock: Arc<Clock>,
    state: Mutex<TraceState>,
}

impl Tracer {
    /// A tracer over the given clock.
    pub fn new(clock: Arc<Clock>) -> Tracer {
        Tracer {
            clock,
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Whether the tracer runs on the deterministic mock clock.
    pub fn is_mock(&self) -> bool {
        self.clock.is_mock()
    }

    /// Open a span. `labels` are sorted into the record for deterministic
    /// output.
    pub fn span(&self, name: Name, parent: SpanId, labels: &[(&str, String)]) -> SpanId {
        let ts_us = self.clock.now_us();
        let mut st = lock_or_recover(&self.state);
        st.next_id += 1;
        let id = st.next_id;
        st.records.push(Record::SpanStart {
            id,
            parent: parent.0,
            name,
            ts_us,
            labels: sorted(labels),
        });
        SpanId(id)
    }

    /// Close a span, attaching result attributes (e.g. simulated seconds).
    /// Closing [`SpanId::ROOT`] is a no-op.
    pub fn end(&self, id: SpanId, attrs: &[(&str, String)]) {
        if id == SpanId::ROOT {
            return;
        }
        let ts_us = self.clock.now_us();
        lock_or_recover(&self.state).records.push(Record::SpanEnd {
            id: id.0,
            ts_us,
            attrs: sorted(attrs),
        });
    }

    /// Record an instantaneous event under `parent`.
    pub fn event(&self, name: Name, parent: SpanId, labels: &[(&str, String)]) {
        let ts_us = self.clock.now_us();
        lock_or_recover(&self.state).records.push(Record::Event {
            name,
            parent: parent.0,
            ts_us,
            labels: sorted(labels),
        });
    }

    /// Serialize the log as JSONL (see module docs for the schema).
    pub fn jsonl(&self) -> String {
        let st = lock_or_recover(&self.state);
        let mut out = String::new();
        for rec in &st.records {
            match rec {
                Record::SpanStart {
                    id,
                    parent,
                    name,
                    ts_us,
                    labels,
                } => {
                    out.push_str(&format!(
                        "{{\"type\":\"span_start\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"ts_us\":{ts_us},\"labels\":{}}}\n",
                        escape(name.as_str()),
                        json_map(labels)
                    ));
                }
                Record::SpanEnd { id, ts_us, attrs } => {
                    out.push_str(&format!(
                        "{{\"type\":\"span_end\",\"id\":{id},\"ts_us\":{ts_us},\"attrs\":{}}}\n",
                        json_map(attrs)
                    ));
                }
                Record::Event {
                    name,
                    parent,
                    ts_us,
                    labels,
                } => {
                    out.push_str(&format!(
                        "{{\"type\":\"event\",\"name\":\"{}\",\"parent\":{parent},\"ts_us\":{ts_us},\"labels\":{}}}\n",
                        escape(name.as_str()),
                        json_map(labels)
                    ));
                }
            }
        }
        out
    }

    /// Number of records logged so far.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.state).records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn sorted(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, val)| ((*k).to_string(), val.clone()))
        .collect();
    v.sort();
    v
}

/// Serialize a label/attr map as a JSON object with string values.
fn json_map(pairs: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
    }
    out.push('}');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn escape(s: &str) -> String {
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

    #[test]
    fn mock_trace_is_byte_identical_across_runs() {
        let run = || {
            let t = Tracer::new(Arc::new(Clock::mock()));
            let [root, child, tick] = ["a.root", "a.child", "a.tick"].map(Name::unregistered);
            let a = t.span(root, SpanId::ROOT, &[("job", "x".into())]);
            let b = t.span(child, a, &[]);
            t.event(tick, b, &[("n", "1".into())]);
            t.end(b, &[("sim_s", "0.5".into())]);
            t.end(a, &[]);
            t.jsonl()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first.lines().count(), 5);
        assert!(first.starts_with(
            "{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"a.root\",\"ts_us\":0,\"labels\":{\"job\":\"x\"}}"
        ));
    }

    #[test]
    fn ending_the_root_is_a_noop() {
        let t = Tracer::new(Arc::new(Clock::mock()));
        t.end(SpanId::ROOT, &[]);
        assert!(t.is_empty());
    }

    #[test]
    fn labels_are_sorted_for_determinism() {
        let t = Tracer::new(Arc::new(Clock::mock()));
        let sx = Name::unregistered("s.x");
        let s = t.span(sx, SpanId::ROOT, &[("z", "1".into()), ("a", "2".into())]);
        t.end(s, &[]);
        assert!(t.jsonl().contains("\"labels\":{\"a\":\"2\",\"z\":\"1\"}"));
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
