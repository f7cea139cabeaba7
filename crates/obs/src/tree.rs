//! Span-tree reconstruction from a JSONL trace, plus the `inspect`
//! rendering and validation.
//!
//! The one trace parser: it accepts exactly the schema
//! [`crate::sampler::trace_jsonl`] writes (three record shapes,
//! string-valued label maps, a numeric `trace` id) and is panic-free:
//! malformed input comes back as a typed message, never a crash. Records
//! may arrive in any order — a child's `span_end` after its parent's
//! (out-of-order close) still reconstructs correctly, because ends are
//! matched to starts by id, not by position. A many-trace document
//! splits per trace id ([`SpanTree::parse_per_trace`]).

use std::collections::BTreeMap;

use crate::names::{valid_name, Name};

/// An event attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRec {
    /// Event name.
    pub name: String,
    /// Timestamp in µs.
    pub ts_us: u64,
    /// Sorted labels.
    pub labels: Vec<(String, String)>,
}

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id from the trace.
    pub id: u64,
    /// Span name.
    pub name: String,
    /// Start timestamp in µs.
    pub start_us: u64,
    /// End timestamp in µs; `None` when the span never closed.
    pub end_us: Option<u64>,
    /// Labels from `span_start`.
    pub labels: Vec<(String, String)>,
    /// Attributes from `span_end`.
    pub attrs: Vec<(String, String)>,
    /// Indices of child spans in [`SpanTree::nodes`].
    pub children: Vec<usize>,
    /// Events recorded under this span.
    pub events: Vec<EventRec>,
}

/// A many-trace document split per trace: `(trace id, forest)` pairs
/// ascending by id, and the document's parse warnings.
pub type PerTrace = (Vec<(u64, SpanTree)>, Vec<String>);

/// The reconstructed forest of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// All spans, in `span_start` order.
    pub nodes: Vec<SpanNode>,
    /// Indices of top-level spans (parent 0).
    pub roots: Vec<usize>,
    /// Structural problems found while parsing (unknown parents, events
    /// without a parent span, duplicate ids, ends without starts) —
    /// consulted by [`validate`].
    problems: Vec<String>,
    /// Non-fatal parse warnings (e.g. a torn final line from a writer
    /// killed mid-append). Not consulted by [`validate`]: a torn tail is
    /// an ingest artefact, not a structural error in what was recovered.
    warnings: Vec<String>,
}

impl SpanTree {
    /// Parse a JSONL trace into a span forest. Fails only on lines that
    /// are not valid JSON records; structural inconsistencies are kept
    /// for [`SpanTree::validate`]. One exception: a malformed *final*
    /// line of an unterminated file (no trailing newline) after at least
    /// one good record is treated as a torn tail — the partial write of
    /// a killed process — and comes back as a [`SpanTree::warnings`]
    /// entry instead of a parse failure.
    pub fn parse_jsonl(input: &str) -> Result<SpanTree, String> {
        let (lines, warnings) = parse_lines(input)?;
        let mut tree = SpanTree::build(lines.into_iter().map(|(_, _, rec)| rec));
        tree.warnings = warnings;
        Ok(tree)
    }

    /// Parse a document holding many traces (the flight recorder's) into
    /// one forest per `trace` id, ascending by id. A record without a
    /// trace id is an error. The torn-tail rule of
    /// [`SpanTree::parse_jsonl`] applies to the whole document, and its
    /// warning comes back once, beside the forests.
    pub fn parse_per_trace(input: &str) -> Result<PerTrace, String> {
        let (lines, warnings) = parse_lines(input)?;
        let mut groups: BTreeMap<u64, Vec<JsonRecord>> = BTreeMap::new();
        for (lineno, trace, rec) in lines {
            let trace = trace.ok_or_else(|| format!("line {lineno}: record has no trace id"))?;
            groups.entry(trace).or_default().push(rec);
        }
        let trees = groups
            .into_iter()
            .map(|(id, recs)| (id, SpanTree::build(recs)))
            .collect();
        Ok((trees, warnings))
    }

    /// Reconstruct the forest from records in any order: parents, ends
    /// and events are linked after every start is seen.
    fn build(records: impl IntoIterator<Item = JsonRecord>) -> SpanTree {
        let mut tree = SpanTree::default();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        // `(id, parent)` of each node, by node index.
        let mut links: Vec<(u64, u64)> = Vec::new();
        type EndRec = (u64, u64, Vec<(String, String)>);
        let mut ends: Vec<EndRec> = Vec::new();
        let mut events: Vec<(u64, EventRec)> = Vec::new();
        for rec in records {
            match rec {
                JsonRecord::SpanStart {
                    id,
                    parent,
                    name,
                    ts_us,
                    labels,
                } => {
                    if by_id.contains_key(&id) {
                        tree.problems.push(format!("duplicate span id {id}"));
                        continue;
                    }
                    by_id.insert(id, tree.nodes.len());
                    links.push((id, parent));
                    tree.nodes.push(SpanNode {
                        id,
                        name,
                        start_us: ts_us,
                        end_us: None,
                        labels,
                        attrs: Vec::new(),
                        children: Vec::new(),
                        events: Vec::new(),
                    });
                }
                JsonRecord::SpanEnd { id, ts_us, attrs } => ends.push((id, ts_us, attrs)),
                JsonRecord::Event {
                    name,
                    parent,
                    ts_us,
                    labels,
                } => events.push((
                    parent,
                    EventRec {
                        name,
                        ts_us,
                        labels,
                    },
                )),
            }
        }
        for (idx, (id, parent)) in links.into_iter().enumerate() {
            if parent == 0 {
                tree.roots.push(idx);
            } else if let Some(node) = by_id.get(&parent).and_then(|&p| tree.nodes.get_mut(p)) {
                node.children.push(idx);
            } else {
                tree.problems
                    .push(format!("span {id} references unknown parent {parent}"));
                tree.roots.push(idx);
            }
        }
        for (id, ts_us, attrs) in ends {
            match by_id.get(&id).and_then(|&idx| tree.nodes.get_mut(idx)) {
                Some(node) => {
                    if node.end_us.is_some() {
                        tree.problems.push(format!("span {id} closed twice"));
                    } else {
                        node.end_us = Some(ts_us);
                        node.attrs = attrs;
                    }
                }
                None => tree
                    .problems
                    .push(format!("span_end for unknown span id {id}")),
            }
        }
        for (parent, ev) in events {
            match by_id.get(&parent).and_then(|&p| tree.nodes.get_mut(p)) {
                Some(node) => node.events.push(ev),
                None => tree.problems.push(format!(
                    "event {} references unknown parent {parent}",
                    ev.name
                )),
            }
        }
        // Deterministic child order: by start timestamp, then id.
        let order: Vec<(usize, (u64, u64))> = tree
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i, (n.start_us, n.id)))
            .collect();
        let key = |i: usize| order.get(i).map_or((0, 0), |&(_, k)| k);
        for node in &mut tree.nodes {
            node.children.sort_by_key(|&c| key(c));
        }
        tree.roots.sort_by_key(|&r| key(r));
        tree
    }

    /// Non-fatal warnings collected during parsing (torn tails). Empty
    /// for a cleanly terminated trace.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Total duration of a span in µs: `end - start`, or 0 if unclosed
    /// or inverted.
    pub fn total_us(&self, idx: usize) -> u64 {
        self.nodes
            .get(idx)
            .and_then(|n| n.end_us.map(|e| e.saturating_sub(n.start_us)))
            .unwrap_or(0)
    }

    /// Self time of a span in µs: total minus the sum of child totals.
    pub fn self_us(&self, idx: usize) -> u64 {
        let children: u64 = self
            .nodes
            .get(idx)
            .map(|n| n.children.iter().map(|&c| self.total_us(c)).sum())
            .unwrap_or(0);
        self.total_us(idx).saturating_sub(children)
    }

    /// Spans with `name`, in start order.
    pub fn spans_named(&self, name: Name) -> Vec<&SpanNode> {
        let name = name.as_str();
        self.nodes.iter().filter(|n| n.name == name).collect()
    }

    /// Events with `name` anywhere in the tree.
    pub fn events_named(&self, name: Name) -> usize {
        let name = name.as_str();
        self.nodes
            .iter()
            .map(|n| n.events.iter().filter(|e| e.name == name).count())
            .sum()
    }

    /// Validate the trace: structural problems from parsing, unclosed or
    /// time-inverted spans, and names violating the lowercase-dotted
    /// grammar all fail validation.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = self.problems.clone();
        for n in &self.nodes {
            match n.end_us {
                None => errs.push(format!("span {} ({}) never closed", n.id, n.name)),
                Some(e) if e < n.start_us => errs.push(format!(
                    "span {} ({}) ends at {e}µs before it starts at {}µs",
                    n.id, n.name, n.start_us
                )),
                Some(_) => {}
            }
            if !valid_name(&n.name) {
                errs.push(format!(
                    "span name `{}` is not a lowercase dotted ident",
                    n.name
                ));
            }
            for ev in &n.events {
                if !valid_name(&ev.name) {
                    errs.push(format!(
                        "event name `{}` is not a lowercase dotted ident",
                        ev.name
                    ));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Render the forest as an indented tree with total/self times,
    /// flagging every span on the slowest root-to-leaf path.
    pub fn render(&self) -> String {
        let mut slow = vec![false; self.nodes.len()];
        // Slowest path: from the slowest root, repeatedly descend into
        // the slowest child.
        let mut cur = self.roots.iter().copied().max_by_key(|&r| {
            (
                self.total_us(r),
                std::cmp::Reverse(self.nodes.get(r).map_or(0, |n| n.id)),
            )
        });
        while let Some(idx) = cur {
            if let Some(flag) = slow.get_mut(idx) {
                *flag = true;
            }
            cur = self.nodes.get(idx).and_then(|n| {
                n.children.iter().copied().max_by_key(|&c| {
                    (
                        self.total_us(c),
                        std::cmp::Reverse(self.nodes.get(c).map_or(0, |n| n.id)),
                    )
                })
            });
        }
        let events: usize = self.nodes.iter().map(|n| n.events.len()).sum();
        let mut out = format!("trace: {} span(s), {} event(s)\n", self.nodes.len(), events);
        for &r in &self.roots {
            self.render_node(r, 0, &slow, &mut out);
        }
        out
    }

    fn render_node(&self, idx: usize, depth: usize, slow: &[bool], out: &mut String) {
        let Some(n) = self.nodes.get(idx) else { return };
        let indent = "  ".repeat(depth);
        let marker = if slow.get(idx).copied().unwrap_or(false) {
            "  <-- slowest path"
        } else {
            ""
        };
        let total = self.total_us(idx) as f64 / 1000.0;
        let self_t = self.self_us(idx) as f64 / 1000.0;
        out.push_str(&format!(
            "{indent}{}{} total {total:.3}ms self {self_t:.3}ms{}{marker}\n",
            n.name,
            fmt_pairs(&n.labels),
            fmt_attrs(&n.attrs),
        ));
        for ev in &n.events {
            out.push_str(&format!(
                "{indent}  ! {}{}\n",
                ev.name,
                fmt_pairs(&ev.labels)
            ));
        }
        for &c in &n.children {
            self.render_node(c, depth + 1, slow, out);
        }
    }
}

fn fmt_pairs(pairs: &[(String, String)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

fn fmt_attrs(pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(&format!(" {k}={v}"));
    }
    out
}

/// One parsed line: its 1-based number, its `trace` id if it has one,
/// and the record.
type Line = (usize, Option<u64>, JsonRecord);

/// Parse every line of a JSONL document, applying the torn-tail rule
/// (see [`SpanTree::parse_jsonl`]): a torn final line comes back as a
/// warning.
fn parse_lines(input: &str) -> Result<(Vec<Line>, Vec<String>), String> {
    let lines: Vec<(usize, &str)> = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let last = lines.last().map(|&(n, _)| n);
    let mut out = Vec::with_capacity(lines.len());
    for (lineno, line) in lines {
        match parse_record(line) {
            Ok((trace, rec)) => out.push((lineno, trace, rec)),
            // A torn tail: the file's final line, unterminated, after at
            // least one complete record. Anything else is a hard error.
            Err(e) if Some(lineno) == last && !out.is_empty() && !input.ends_with('\n') => {
                let warning = format!("torn tail: skipped truncated final line {lineno} ({e})");
                return Ok((out, vec![warning]));
            }
            Err(e) => return Err(format!("line {lineno}: {e}")),
        }
    }
    Ok((out, Vec::new()))
}

/// One parsed trace record.
enum JsonRecord {
    SpanStart {
        id: u64,
        parent: u64,
        name: String,
        ts_us: u64,
        labels: Vec<(String, String)>,
    },
    SpanEnd {
        id: u64,
        ts_us: u64,
        attrs: Vec<(String, String)>,
    },
    Event {
        name: String,
        parent: u64,
        ts_us: u64,
        labels: Vec<(String, String)>,
    },
}

/// Parse one JSONL line of the trace schema, with its `trace` id if the
/// line carries one.
fn parse_record(line: &str) -> Result<(Option<u64>, JsonRecord), String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let fields = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after JSON object".into());
    }
    let str_field = |k: &str| -> Result<String, String> {
        fields
            .iter()
            .find_map(|(key, v)| match v {
                JsonVal::Str(s) if key == k => Some(s.clone()),
                _ => None,
            })
            .ok_or_else(|| format!("missing string field `{k}`"))
    };
    let num_field = |k: &str| -> Result<u64, String> {
        fields
            .iter()
            .find_map(|(key, v)| match v {
                JsonVal::Num(n) if key == k => Some(*n),
                _ => None,
            })
            .ok_or_else(|| format!("missing numeric field `{k}`"))
    };
    let map_field = |k: &str| -> Result<Vec<(String, String)>, String> {
        fields
            .iter()
            .find_map(|(key, v)| match v {
                JsonVal::Map(m) if key == k => Some(m.clone()),
                _ => None,
            })
            .ok_or_else(|| format!("missing object field `{k}`"))
    };
    let rec = match str_field("type")?.as_str() {
        "span_start" => JsonRecord::SpanStart {
            id: num_field("id")?,
            parent: num_field("parent")?,
            name: str_field("name")?,
            ts_us: num_field("ts_us")?,
            labels: map_field("labels")?,
        },
        "span_end" => JsonRecord::SpanEnd {
            id: num_field("id")?,
            ts_us: num_field("ts_us")?,
            attrs: map_field("attrs")?,
        },
        "event" => JsonRecord::Event {
            name: str_field("name")?,
            parent: num_field("parent")?,
            ts_us: num_field("ts_us")?,
            labels: map_field("labels")?,
        },
        other => return Err(format!("unknown record type `{other}`")),
    };
    Ok((num_field("trace").ok(), rec))
}

enum JsonVal {
    Str(String),
    Num(u64),
    Map(Vec<(String, String)>),
}

/// A minimal, panic-free parser for the trace's JSON subset: one object
/// per line, string or unsigned-integer values, one level of nested
/// string-to-string object.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, JsonVal)>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            self.skip_ws();
            let val = match self.peek() {
                Some(b'"') => JsonVal::Str(self.string()?),
                Some(b'{') => JsonVal::Map(self.string_map()?),
                Some(b'0'..=b'9') => JsonVal::Num(self.number()?),
                _ => return Err(format!("unexpected value at byte {}", self.pos)),
            };
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(fields),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string_map(&mut self) -> Result<Vec<(String, String)>, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.string()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(pairs),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            let d = (d as char)
                                .to_digit(16)
                                .ok_or("bad hex digit in \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape in string".into()),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    let chunk = self.bytes.get(start..end).unwrap_or_default();
                    match std::str::from_utf8(chunk) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err("invalid UTF-8 in string".into()),
                    }
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or_default();
        std::str::from_utf8(digits)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{PhaseAcc, QueryCtx};
    use crate::names;
    use crate::ring::{FlightLabel, FlightName, FlightRec};
    use crate::sampler::trace_jsonl;
    use std::sync::Arc;

    /// One round's trace through the writer: a root, two phase spans,
    /// and a retry event under the map phase.
    fn round_trace(trace_id: u64, root: u64) -> String {
        let c = QueryCtx {
            trace_id,
            root,
            phases: Arc::new(PhaseAcc::default()),
        };
        let mut recs = vec![
            FlightRec::root(&c, FlightName::Round, 0, 3000),
            FlightRec::span(&c, root + 1, FlightName::MapPhase, 0, 1000),
            FlightRec::span(&c, root + 2, FlightName::ReducePhase, 1000, 2000),
            FlightRec::event(&c, FlightName::TaskRetry, 500)
                .with_parent(root + 1)
                .with_label(FlightLabel::Task, 1),
        ];
        let labels = [("job", "fig6".to_string())];
        trace_jsonl(trace_id, &mut recs, &labels, &[("sim_s", "1.5".into())])
    }

    #[test]
    fn round_trips_the_writer_output() {
        let tree = SpanTree::parse_jsonl(&round_trace(1, 1)).expect("parse");
        assert_eq!(tree.nodes.len(), 3);
        assert_eq!(tree.roots.len(), 1);
        tree.validate().expect("valid");
        assert_eq!(tree.spans_named(names::ENGINE_PHASE_MAP).len(), 1);
        assert_eq!(tree.events_named(names::ENGINE_TASK_RETRY), 1);
        let map = tree.spans_named(names::ENGINE_PHASE_MAP)[0];
        assert_eq!(map.events[0].labels, vec![("task".into(), "1".into())]);
        let render = tree.render();
        assert!(render.contains("engine.round{job=fig6}"));
        assert!(render.contains("<-- slowest path"));
        assert!(render.contains("sim_s=1.5"));
    }

    #[test]
    fn a_document_splits_per_trace_with_one_torn_tail_warning() {
        let mut doc = round_trace(1, 1) + &round_trace(2, 4);
        doc.push_str("{\"type\":\"span_start\",\"id\":9,\"par");
        let (traces, warnings) = SpanTree::parse_per_trace(&doc).expect("parse");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("torn tail"));
        let ids: Vec<u64> = traces.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2]);
        for (_, tree) in &traces {
            tree.validate().expect("each trace is whole");
            assert_eq!(tree.roots.len(), 1);
            assert_eq!(tree.nodes.len(), 3);
        }
        // A record without a trace id is an error, not a guess.
        let bare = "{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"a.b\",\"ts_us\":0,\"labels\":{}}\n";
        let err = SpanTree::parse_per_trace(bare).expect_err("no trace id");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn out_of_order_child_close_reconstructs() {
        // Child 2 closes after its parent's end record: reconstruction
        // must still attach and close it.
        let jsonl = "\
{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"a.b\",\"ts_us\":0,\"labels\":{}}
{\"type\":\"span_start\",\"id\":2,\"parent\":1,\"name\":\"a.c\",\"ts_us\":10,\"labels\":{}}
{\"type\":\"span_end\",\"id\":1,\"ts_us\":100,\"attrs\":{}}
{\"type\":\"span_end\",\"id\":2,\"ts_us\":90,\"attrs\":{\"k\":\"v\"}}
";
        let tree = SpanTree::parse_jsonl(jsonl).expect("parse");
        tree.validate().expect("valid");
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.nodes[tree.roots[0]];
        assert_eq!(root.children.len(), 1);
        let child = &tree.nodes[root.children[0]];
        assert_eq!(child.end_us, Some(90));
        assert_eq!(child.attrs, vec![("k".into(), "v".into())]);
        assert_eq!(tree.total_us(tree.roots[0]), 100);
        assert_eq!(tree.self_us(tree.roots[0]), 20);
    }

    #[test]
    fn unclosed_and_orphan_records_fail_validation() {
        let jsonl = r#"{"type":"span_start","id":1,"parent":0,"name":"a.b","ts_us":0,"labels":{}}
{"type":"span_end","id":9,"ts_us":5,"attrs":{}}
{"type":"span_start","id":1,"parent":0,"name":"a.c","ts_us":1,"labels":{}}
{"type":"span_start","id":2,"parent":7,"name":"a.d","ts_us":2,"labels":{}}
{"type":"span_end","id":2,"ts_us":5,"attrs":{}}
{"type":"event","name":"a.e","parent":0,"ts_us":3,"labels":{}}
"#;
        let tree = SpanTree::parse_jsonl(jsonl).expect("parse");
        assert_eq!(tree.nodes.len(), 2, "the duplicate start is dropped");
        assert_eq!(tree.nodes[0].name, "a.b", "the first start wins");
        assert_eq!(tree.roots.len(), 2, "an orphan span surfaces as a root");
        let errs = tree.validate().expect_err("invalid").join("\n");
        for want in [
            "unknown span id 9",
            "span 1 (a.b) never closed",
            "duplicate span id 1",
            "span 2 references unknown parent 7",
            "event a.e references unknown parent 0",
        ] {
            assert!(errs.contains(want), "{want} missing from {errs}");
        }
    }

    #[test]
    fn bad_names_fail_validation() {
        let jsonl = "\
{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"Bad.Name\",\"ts_us\":0,\"labels\":{}}
{\"type\":\"span_end\",\"id\":1,\"ts_us\":5,\"attrs\":{}}
";
        let tree = SpanTree::parse_jsonl(jsonl).expect("parse");
        let errs = tree.validate().expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("lowercase dotted")));
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        for bad in [
            "{",
            "{\"type\":\"span_start\"}",
            "not json at all",
            "{\"type\":\"mystery\",\"id\":1}",
            "{\"type\":\"span_end\",\"id\":1,\"ts_us\":5,\"attrs\":{}} trailing",
        ] {
            assert!(SpanTree::parse_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn torn_final_line_is_a_warning_not_an_error() {
        // A writer killed mid-append leaves a truncated, unterminated
        // final line. The recovered prefix must still parse + validate.
        let mut jsonl = round_trace(1, 1);
        jsonl.push_str("{\"type\":\"span_start\",\"id\":9,\"par");
        assert!(!jsonl.ends_with('\n'));
        let tree = SpanTree::parse_jsonl(&jsonl).expect("torn tail tolerated");
        tree.validate().expect("recovered prefix is valid");
        assert_eq!(tree.nodes.len(), 3);
        assert_eq!(tree.warnings().len(), 1);
        assert!(tree.warnings()[0].contains("torn tail"));
    }

    #[test]
    fn newline_terminated_garbage_is_still_a_hard_error() {
        // A *complete* (newline-terminated) malformed line is corruption,
        // not a torn tail.
        let mut jsonl = round_trace(1, 1);
        jsonl.push_str("{\"type\":\"span_start\",\"id\":9,\"par\n");
        assert!(SpanTree::parse_jsonl(&jsonl).is_err());
        // Likewise a torn line with nothing recovered before it.
        assert!(SpanTree::parse_jsonl("{\"type\":\"spa").is_err());
    }

    #[test]
    fn time_inverted_span_fails_validation() {
        let jsonl = "\
{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"a.b\",\"ts_us\":50,\"labels\":{}}
{\"type\":\"span_end\",\"id\":1,\"ts_us\":10,\"attrs\":{}}
";
        let tree = SpanTree::parse_jsonl(jsonl).expect("parse");
        let errs = tree.validate().expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("before it starts")));
    }
}
