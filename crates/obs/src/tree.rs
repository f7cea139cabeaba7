//! Span-tree reconstruction from a JSONL trace, plus the `inspect trace`
//! rendering and validation.
//!
//! The parser accepts exactly the schema [`crate::trace::Tracer`] emits
//! (three record shapes, string-valued label maps) and is panic-free:
//! malformed input comes back as a typed message, never a crash. Records
//! may arrive in any order — a child's `span_end` after its parent's
//! (out-of-order close) still reconstructs correctly, because ends are
//! matched to starts by id, not by position.

use std::collections::BTreeMap;

use crate::names::{valid_name, Name};

/// An event attached to a span (or to the root).
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

/// The reconstructed forest of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// All spans, in `span_start` order.
    pub nodes: Vec<SpanNode>,
    /// Indices of top-level spans (parent 0).
    pub roots: Vec<usize>,
    /// Events whose parent is the root.
    pub root_events: Vec<EventRec>,
    /// Structural problems found while parsing (unknown parents,
    /// duplicate ids, ends without starts) — consulted by [`validate`].
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
        let mut tree = SpanTree::default();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        // (parent, event) pairs and ends are applied after all lines are
        // read, so ordering between lines never matters.
        type EndRec = (u64, u64, Vec<(String, String)>);
        let mut ends: Vec<EndRec> = Vec::new();
        let mut events: Vec<(u64, EventRec)> = Vec::new();
        let lines: Vec<(usize, &str)> = input
            .lines()
            .enumerate()
            .map(|(i, l)| (i, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        let last_idx = lines.last().map(|&(i, _)| i);
        for (parsed, &(lineno, line)) in lines.iter().enumerate() {
            let rec = match parse_record(line) {
                Ok(rec) => rec,
                Err(e) => {
                    // A torn tail: the file's final line, unterminated,
                    // after at least one complete record. Anything else
                    // is a hard parse error.
                    if Some(lineno) == last_idx && parsed > 0 && !input.ends_with('\n') {
                        tree.warnings.push(format!(
                            "torn tail: skipped truncated final line {} ({e})",
                            lineno + 1
                        ));
                        break;
                    }
                    return Err(format!("line {}: {e}", lineno + 1));
                }
            };
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
                    // Parent linkage happens after all starts are seen.
                    let _ = parent;
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
        // Second pass over the raw lines for parent ids (starts only).
        let mut attached: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Ok(JsonRecord::SpanStart { id, parent, .. }) = parse_record(line) {
                if !attached.insert(id) {
                    continue; // duplicate id: already linked (and flagged)
                }
                let Some(&idx) = by_id.get(&id) else { continue };
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
            if parent == 0 {
                tree.root_events.push(ev);
            } else if let Some(node) = by_id.get(&parent).and_then(|&p| tree.nodes.get_mut(p)) {
                node.events.push(ev);
            } else {
                tree.problems.push(format!(
                    "event {} references unknown parent {parent}",
                    ev.name
                ));
                tree.root_events.push(ev);
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
        Ok(tree)
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
        self.root_events.iter().filter(|e| e.name == name).count()
            + self
                .nodes
                .iter()
                .map(|n| n.events.iter().filter(|e| e.name == name).count())
                .sum::<usize>()
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
        for ev in &self.root_events {
            if !valid_name(&ev.name) {
                errs.push(format!(
                    "event name `{}` is not a lowercase dotted ident",
                    ev.name
                ));
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
        let events: usize =
            self.root_events.len() + self.nodes.iter().map(|n| n.events.len()).sum::<usize>();
        let mut out = format!("trace: {} span(s), {} event(s)\n", self.nodes.len(), events);
        for &r in &self.roots {
            self.render_node(r, 0, &slow, &mut out);
        }
        for ev in &self.root_events {
            out.push_str(&format!("! {}{}\n", ev.name, fmt_pairs(&ev.labels)));
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

/// Parse one JSONL line of the trace schema.
fn parse_record(line: &str) -> Result<JsonRecord, String> {
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
    match str_field("type")?.as_str() {
        "span_start" => Ok(JsonRecord::SpanStart {
            id: num_field("id")?,
            parent: num_field("parent")?,
            name: str_field("name")?,
            ts_us: num_field("ts_us")?,
            labels: map_field("labels")?,
        }),
        "span_end" => Ok(JsonRecord::SpanEnd {
            id: num_field("id")?,
            ts_us: num_field("ts_us")?,
            attrs: map_field("attrs")?,
        }),
        "event" => Ok(JsonRecord::Event {
            name: str_field("name")?,
            parent: num_field("parent")?,
            ts_us: num_field("ts_us")?,
            labels: map_field("labels")?,
        }),
        other => Err(format!("unknown record type `{other}`")),
    }
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
    use crate::clock::Clock;
    use crate::names;
    use crate::trace::{SpanId, Tracer};
    use std::sync::Arc;

    fn sample_trace() -> String {
        let t = Tracer::new(Arc::new(Clock::mock()));
        let root = t.span(names::ENGINE_ROUND, SpanId::ROOT, &[("job", "fig6".into())]);
        let a = t.span(names::ENGINE_TASK, root, &[("task", "0".into())]);
        let b = t.span(names::ENGINE_TASK, root, &[("task", "1".into())]);
        t.event(names::ENGINE_TASK_RETRY, root, &[("task", "1".into())]);
        t.end(a, &[("sim_s", "1.5".into())]);
        t.end(b, &[]);
        t.end(root, &[]);
        t.jsonl()
    }

    #[test]
    fn round_trips_the_tracer_output() {
        let tree = SpanTree::parse_jsonl(&sample_trace()).expect("parse");
        assert_eq!(tree.nodes.len(), 3);
        assert_eq!(tree.roots.len(), 1);
        tree.validate().expect("valid");
        assert_eq!(tree.spans_named(names::ENGINE_TASK).len(), 2);
        assert_eq!(tree.events_named(names::ENGINE_TASK_RETRY), 1);
        let render = tree.render();
        assert!(render.contains("engine.round{job=fig6}"));
        assert!(render.contains("<-- slowest path"));
        assert!(render.contains("sim_s=1.5"));
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
        let jsonl = "\
{\"type\":\"span_start\",\"id\":1,\"parent\":0,\"name\":\"a.b\",\"ts_us\":0,\"labels\":{}}
{\"type\":\"span_end\",\"id\":9,\"ts_us\":5,\"attrs\":{}}
";
        let tree = SpanTree::parse_jsonl(jsonl).expect("parse");
        let errs = tree.validate().expect_err("invalid");
        assert!(errs.iter().any(|e| e.contains("unknown span id 9")));
        assert!(errs.iter().any(|e| e.contains("never closed")));
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
        let mut jsonl = sample_trace();
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
        let mut jsonl = sample_trace();
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
