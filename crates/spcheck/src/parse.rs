//! Pass 1 of the concurrency analyzer: a lightweight item/scope parser.
//!
//! Takes the scrubbed, test-blanked text of every workspace file (from
//! [`crate::lexer`]) and produces per-file facts:
//!
//! * **lock-field declarations** — struct fields typed `Mutex<_>`,
//!   `RwLock<_>`, or `Condvar`. Each becomes a named *lock class*
//!   `<file-stem>.<field>` (e.g. `server.queue`, `store.cache`);
//! * **ident → type map** — field and parameter declarations, so pass 2
//!   can resolve `self.store.query(..)` to `CubeStore::query`;
//! * **impl-block context** — which type (and trait) each method
//!   belongs to;
//! * **per-function event streams** — lock acquisitions (with the set of
//!   guards already held), guard drop points, call sites, channel
//!   creation / `send` / `recv`, `Condvar` waits, and `thread::join`.
//!
//! The guard-lifetime model follows Rust's drop rules closely enough for
//! a linter: a named guard (`let g = lock_or_recover(..)`) lives until
//! `drop(g)` or the end of its block; a temporary lives until the end of
//! its statement; an `if let` / `while let` / `match` scrutinee
//! temporary lives through the whole body block (the edition-2021
//! behaviour that makes `if let Some(x) = lock(..).get(k)` hold the
//! guard across the branch). Closures are walked inline as part of the
//! enclosing function, which over-approximates `thread::spawn` bodies —
//! acceptable for a gate that wants false positives over false
//! negatives, and suppressible where wrong.

use std::collections::BTreeMap;

/// The workspace's blessed acquisition primitive (`common::sync`).
pub const LOCK_FN: &str = "lock_or_recover";
/// The blessed condvar-wait primitive (`common::sync`).
pub const WAIT_FN: &str = "wait_or_recover";
/// The storage trait whose methods count as blob IO under a guard.
pub const BLOB_TRAIT: &str = "BlobStore";
/// Blob-IO method names on a [`BLOB_TRAIT`]-typed receiver.
pub const BLOB_METHODS: &[&str] = &["put", "get", "list", "delete"];

/// What kind of lock a declared field is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

impl LockKind {
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
            LockKind::Condvar => "Condvar",
        }
    }
}

/// A declared lock-typed struct field.
#[derive(Debug, Clone)]
pub struct LockField {
    pub field: String,
    pub kind: LockKind,
    pub line: usize,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `Type::method(..)` — `Self` is resolved by pass 2.
    Qualified(String),
    /// `self.method(..)`.
    SelfMethod,
    /// `recv.field.method(..)` — the field nearest the method.
    FieldMethod(String),
    /// `method(..)` with no receiver or path.
    Bare,
    /// Receiver could not be read lexically (e.g. a call-result chain).
    UnknownRecv,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub method: String,
    pub kind: CallKind,
    pub line: usize,
    /// Lock classes held when the call happens, sorted + deduped.
    pub held: Vec<String>,
}

/// One event in a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A lock acquisition; `held` excludes the class being acquired
    /// unless it was already held (a re-entrant acquire shows itself).
    Acquire {
        class: String,
        line: usize,
        held: Vec<String>,
    },
    /// A condvar wait; `passed` is the class of the guard handed to the
    /// wait (which is *expected* to be held), `held` is everything held.
    Wait {
        passed: Option<String>,
        line: usize,
        held: Vec<String>,
    },
    Call(CallSite),
    /// `mpsc::channel()` — the unbounded constructor only.
    ChannelNew {
        line: usize,
    },
    Send {
        line: usize,
        handled: bool,
        held: Vec<String>,
    },
    Recv {
        line: usize,
        held: Vec<String>,
    },
    /// `handle.join()` with no arguments (thread join, not str::join).
    Join {
        line: usize,
        held: Vec<String>,
    },
}

impl Event {
    pub fn line(&self) -> usize {
        match self {
            Event::Acquire { line, .. }
            | Event::Wait { line, .. }
            | Event::ChannelNew { line }
            | Event::Send { line, .. }
            | Event::Recv { line, .. }
            | Event::Join { line, .. } => *line,
            Event::Call(c) => c.line,
        }
    }
}

/// One parsed function (or method) body.
#[derive(Debug, Clone)]
pub struct FnBody {
    pub name: String,
    pub impl_type: Option<String>,
    pub trait_name: Option<String>,
    pub line: usize,
    pub events: Vec<Event>,
}

/// Everything pass 1 knows about one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub rel: String,
    /// Lock-class prefix: the file stem, or the crate name for
    /// `lib.rs` / `mod.rs` / `main.rs`.
    pub stem: String,
    pub krate: String,
    pub lock_fields: Vec<LockField>,
    pub ident_types: BTreeMap<String, String>,
    /// `impl Trait for Type` pairs seen in this file.
    pub trait_impls: Vec<(String, String)>,
    pub fns: Vec<FnBody>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_of(text: &str, offset: usize) -> usize {
    1 + text
        .as_bytes()
        .iter()
        .take(offset)
        .filter(|&&b| b == b'\n')
        .count()
}

fn prev_nonspace(bytes: &[u8], pos: usize) -> Option<(usize, u8)> {
    bytes
        .iter()
        .enumerate()
        .take(pos)
        .rev()
        .find(|&(_, &b)| b != b' ' && b != b'\t' && b != b'\n')
        .map(|(i, &b)| (i, b))
}

fn next_nonspace(bytes: &[u8], pos: usize) -> Option<(usize, u8)> {
    bytes
        .iter()
        .enumerate()
        .skip(pos)
        .find(|&(_, &b)| b != b' ' && b != b'\t' && b != b'\n')
        .map(|(i, &b)| (i, b))
}

/// Byte position just past a turbofish (`::<…>`) that starts at `pos`,
/// or `pos` itself when none does.
fn skip_turbofish(bytes: &[u8], pos: usize) -> usize {
    if !bytes
        .get(pos..)
        .is_some_and(|rest| rest.starts_with(b"::<"))
    {
        return pos;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(pos + 2) {
        match b {
            b'<' => depth += 1,
            // The `>` of a `->` in a fn-pointer type closes nothing.
            b'>' if bytes[i - 1] != b'-' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            b';' | b'{' | b'}' => break,
            _ => {}
        }
    }
    pos
}

/// Byte position just past the `)` matching the `(` at `open`.
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Byte position just past the `}` matching the `{` at `open`.
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Whole-token occurrences of `word`, ascending.
fn word_offsets(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text
        .get(from..)
        .and_then(|t| t.find(word))
        .map(|p| p + from)
    {
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// Last identifier in `expr` (the terminal field of a path like
/// `&self.shared.queue`). Empty when there is none.
fn terminal_ident(expr: &str) -> String {
    let bytes = expr.as_bytes();
    let mut end = bytes.len();
    while end > 0 && !is_ident(bytes[end - 1]) {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    expr.get(start..end).unwrap_or("").to_string()
}

/// The terminal type name of a declaration tail: strips references,
/// lifetimes, `mut`/`dyn`/`impl`, and common smart-pointer / container
/// wrappers, then takes the last path segment. `Arc<dyn BlobStore>` →
/// `BlobStore`; `Mutex<BTreeMap<K, V>>` → `BTreeMap`.
fn terminal_type(decl: &str) -> String {
    let mut s = decl.trim();
    loop {
        let before = s;
        s = s.trim_start_matches('&').trim_start();
        if s.starts_with('\'') {
            // lifetime token
            let end = s
                .bytes()
                .skip(1)
                .position(|b| !is_ident(b))
                .map(|p| p + 1)
                .unwrap_or(s.len());
            s = s.get(end..).unwrap_or("").trim_start();
        }
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(rest) = s.strip_prefix(kw) {
                s = rest.trim_start();
            }
        }
        for w in ["Arc", "Box", "Rc", "Option", "Vec", "Mutex", "RwLock"] {
            if let Some(rest) = s.strip_prefix(w) {
                if rest.trim_start().starts_with('<') {
                    s = rest.trim_start().get(1..).unwrap_or("").trim_start();
                }
            }
        }
        if s == before {
            break;
        }
    }
    // Last segment of the leading path.
    let mut last = String::new();
    let mut cur = String::new();
    let mut bytes = s.bytes().peekable();
    while let Some(b) = bytes.next() {
        if is_ident(b) {
            cur.push(b as char);
        } else if b == b':' && bytes.peek() == Some(&b':') {
            bytes.next();
            cur.clear();
            continue;
        } else {
            break;
        }
        if bytes.peek().is_none() {
            break;
        }
    }
    if !cur.is_empty() {
        last = cur;
    }
    last
}

/// Crate name and lock-class stem for a workspace-relative path.
fn stem_of(rel: &str) -> (String, String) {
    let krate = rel
        .split('/')
        .skip_while(|s| *s != "crates")
        .nth(1)
        .unwrap_or("workspace")
        .to_string();
    let file = rel.rsplit('/').next().unwrap_or(rel);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let stem = if matches!(stem, "lib" | "mod" | "main") {
        krate.clone()
    } else {
        stem.to_string()
    };
    (krate, stem)
}

/// Strip a leading `pub` / `pub(..)` visibility prefix.
fn strip_vis(t: &str) -> &str {
    let Some(rest) = t.strip_prefix("pub") else {
        return t;
    };
    if rest.bytes().next().is_some_and(is_ident) {
        return t; // `pubsub` or similar
    }
    let rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix('(') {
        after
            .split_once(')')
            .map(|(_, tail)| tail.trim_start())
            .unwrap_or("")
    } else {
        rest
    }
}

/// Split on `,` at zero bracket depth (`Mutex<BTreeMap<K, V>>` stays
/// whole).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut depth = 0i32;
    let mut start = 0;
    let mut out = Vec::new();
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// One `name: Type` piece → its field name and type tail, or `None` for
/// anything else (paths, constructor lines, match arms).
fn parse_decl(piece: &str) -> Option<(&str, &str)> {
    let t = strip_vis(piece.trim_start());
    let bytes = t.as_bytes();
    let mut end = 0;
    while end < bytes.len() && is_ident(bytes[end]) {
        end += 1;
    }
    if end == 0 || bytes.first().is_some_and(|b| b.is_ascii_digit()) {
        return None;
    }
    let name = &t[..end];
    let tail = t[end..].trim_start().strip_prefix(':')?;
    if tail.starts_with(':') || tail.contains('(') {
        return None; // path (`A::B`) or a value/constructor line
    }
    Some((name, tail))
}

/// Record one field/param declaration.
fn record_decl(
    name: &str,
    tail: &str,
    line: usize,
    lock_fields: &mut Vec<LockField>,
    types: &mut BTreeMap<String, String>,
) {
    let kind = if tail.contains("Mutex<") {
        Some(LockKind::Mutex)
    } else if tail.contains("RwLock<") {
        Some(LockKind::RwLock)
    } else if tail.contains("Condvar") {
        Some(LockKind::Condvar)
    } else {
        None
    };
    if let Some(kind) = kind {
        lock_fields.push(LockField {
            field: name.to_string(),
            kind,
            line,
        });
    }
    let ty = terminal_type(tail);
    if !ty.is_empty() {
        types.entry(name.to_string()).or_insert(ty);
    }
}

/// Scan declaration-shaped lines (`name: Type`) for lock fields and
/// ident types. Handles both rustfmt one-field-per-line bodies and
/// single-line `struct S { a: Mutex<u32> }` declarations. Lines with
/// `=>`, calls, or attribute syntax are skipped.
fn scan_decls(text: &str, lock_fields: &mut Vec<LockField>, types: &mut BTreeMap<String, String>) {
    for (idx, raw) in text.lines().enumerate() {
        let t = raw.trim_start();
        if t.starts_with('#') || raw.contains("=>") {
            continue;
        }
        let vis_stripped = strip_vis(t);
        let is_struct = vis_stripped.starts_with("struct")
            && !vis_stripped
                .as_bytes()
                .get("struct".len())
                .is_some_and(|&b| is_ident(b));
        if is_struct {
            // Single-line struct: parse each `field: Type` inside `{}`.
            if let (Some(open), Some(close)) = (t.find('{'), t.rfind('}')) {
                if open < close {
                    for piece in split_top_level(&t[open + 1..close]) {
                        if let Some((name, tail)) = parse_decl(piece) {
                            record_decl(name, tail, idx + 1, lock_fields, types);
                        }
                    }
                }
            }
            continue;
        }
        if let Some((name, tail)) = parse_decl(t) {
            record_decl(name, tail, idx + 1, lock_fields, types);
        }
    }
}

/// One `impl` block: byte range of the body plus its type/trait names.
struct ImplBlock {
    start: usize,
    end: usize,
    ty: String,
    trait_name: Option<String>,
}

fn scan_impls(text: &str) -> Vec<ImplBlock> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for pos in word_offsets(text, "impl") {
        // `-> impl Trait` and `impl Fn(..)` are type positions, not blocks.
        if let Some((_, p)) = prev_nonspace(bytes, pos) {
            if !matches!(p, b'}' | b';' | b']' | b'{') {
                continue;
            }
        }
        let mut i = pos + 4;
        if let Some((j, b'<')) = next_nonspace(bytes, i) {
            // Skip the generic parameter list, tolerating `->` inside.
            let mut depth = 0i32;
            i = j;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'-' if bytes.get(i + 1) == Some(&b'>') => {
                        i += 1;
                    }
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        let Some(open_rel) = text.get(i..).and_then(|t| t.find('{')) else {
            continue;
        };
        let open = i + open_rel;
        let header = text.get(i..open).unwrap_or("");
        if header.contains('(') || header.contains(';') {
            continue;
        }
        let (trait_name, ty_text) = match header.split_once(" for ") {
            Some((tr, ty)) => (Some(terminal_type(tr)), ty),
            None => (None, header),
        };
        let ty = terminal_type(ty_text);
        if ty.is_empty() {
            continue;
        }
        out.push(ImplBlock {
            start: open,
            end: match_brace(bytes, open),
            ty,
            trait_name: trait_name.filter(|t| !t.is_empty()),
        });
    }
    out
}

/// One function site: name, params text, body byte range.
struct FnSite {
    name: String,
    line: usize,
    params: (usize, usize),
    body: (usize, usize),
}

fn scan_fns(text: &str) -> Vec<FnSite> {
    let bytes = text.as_bytes();
    let mut out: Vec<FnSite> = Vec::new();
    let mut last_body_end = 0usize;
    for pos in word_offsets(text, "fn") {
        if pos < last_body_end {
            continue; // nested fn: walked inline with its parent
        }
        let Some((mut i, b)) = next_nonspace(bytes, pos + 2) else {
            continue;
        };
        if !is_ident(b) {
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        let name = text.get(start..i).unwrap_or("").to_string();
        if let Some((j, b'<')) = next_nonspace(bytes, i) {
            // Generic list on the fn itself.
            let mut depth = 0i32;
            i = j;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        let Some((open, b'(')) = next_nonspace(bytes, i) else {
            continue;
        };
        let params_end = match_paren(bytes, open);
        // Return type / where clause runs to the body `{` or a `;`.
        let mut j = params_end;
        let mut body_open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    body_open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(body_open) = body_open else {
            continue; // trait method declaration without a body
        };
        let body_end = match_brace(bytes, body_open);
        last_body_end = body_end;
        out.push(FnSite {
            name,
            line: line_of(text, pos),
            params: (open + 1, params_end.saturating_sub(1)),
            body: (body_open + 1, body_end.saturating_sub(1)),
        });
    }
    out
}

/// Merge `name: Type` params into the file's ident-type map.
fn scan_params(params: &str, types: &mut BTreeMap<String, String>) {
    let mut depth = 0i32;
    let mut start = 0usize;
    let bytes = params.as_bytes();
    let mut parts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&params[start..]);
    for part in parts {
        let p = part.trim().trim_start_matches("mut ").trim_start();
        let Some((name, ty)) = p.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.is_empty() || !name.bytes().all(is_ident) || name == "self" {
            continue;
        }
        let ty = terminal_type(ty);
        if !ty.is_empty() {
            types.entry(name.to_string()).or_insert(ty);
        }
    }
}

/// Identifiers never treated as call targets.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "break", "continue", "move", "in", "as",
    "where", "unsafe", "ref", "mut", "box", "else", "fn", "let", "use", "pub", "crate", "super",
    "mod", "const", "static", "type", "struct", "enum", "union", "trait", "impl", "dyn", "Some",
    "None", "Ok", "Err", "await", "async", "yield",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardState {
    /// Statement temporary: released at `;` (or `{` of a plain block).
    Pending,
    /// `let name = ..`: released at `drop(name)` or block end.
    Named,
    /// `if let` / `match` scrutinee: released at the body's `}`.
    Scrutinee,
}

#[derive(Debug, Clone)]
struct Guard {
    name: Option<String>,
    class: String,
    depth: i32,
    state: GuardState,
    released: bool,
}

/// Resolution context shared by every body walk of one file.
pub(crate) struct ResolveCtx<'a> {
    pub stem: &'a str,
    pub local_fields: &'a [LockField],
    /// field name → (declaring stem, kind) across the whole workspace.
    pub global_fields: &'a BTreeMap<String, Vec<(String, LockKind)>>,
}

impl ResolveCtx<'_> {
    /// The lock class for an acquisition whose terminal ident is `field`:
    /// same-file declaration first, then a workspace-unique declaration,
    /// else a file-local fallback class (e.g. `engine.slot` for a local
    /// or parameter lock that is not a struct field).
    fn class_of(&self, field: &str) -> String {
        if self.local_fields.iter().any(|f| f.field == field) {
            return format!("{}.{}", self.stem, field);
        }
        if let Some(decls) = self.global_fields.get(field) {
            if decls.len() == 1 {
                return format!("{}.{}", decls[0].0, field);
            }
        }
        format!("{}.{}", self.stem, field)
    }

    fn declared_kind(&self, field: &str) -> Option<LockKind> {
        if let Some(f) = self.local_fields.iter().find(|f| f.field == field) {
            return Some(f.kind);
        }
        self.global_fields
            .get(field)
            .and_then(|d| if d.len() == 1 { Some(d[0].1) } else { None })
    }
}

fn held_classes(guards: &[Guard]) -> Vec<String> {
    let mut held: Vec<String> = guards
        .iter()
        .filter(|g| !g.released)
        .map(|g| g.class.clone())
        .collect();
    held.sort();
    held.dedup();
    held
}

/// Walk the receiver chain backwards from the byte before `.method`.
/// Returns the chain of idents nearest-first (e.g. `self.shared.clock.`
/// → `["clock", "shared", "self"]`), or `None` when the receiver is not
/// a plain ident path (a call-result chain).
fn receiver_chain(bytes: &[u8], dot: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut i = dot; // position of the '.'
    loop {
        let (end, b) = prev_nonspace(bytes, i)?;
        if !is_ident(b) {
            return if chain.is_empty() { None } else { Some(chain) };
        }
        let mut start = end + 1;
        while start > 0 && is_ident(bytes[start - 1]) {
            start -= 1;
        }
        let ident = std::str::from_utf8(&bytes[start..end + 1])
            .ok()?
            .to_string();
        if ident.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
            return None; // tuple index or number
        }
        chain.push(ident);
        match prev_nonspace(bytes, start) {
            Some((j, b'.')) => i = j,
            _ => return Some(chain),
        }
    }
}

/// Is the `send` whose receiver chain starts at `chain_start` a bare
/// statement whose `Result` is dropped on the floor?
fn send_unhandled(bytes: &[u8], chain_start: usize, close: usize) -> bool {
    let stmt_pos = matches!(
        prev_nonspace(bytes, chain_start),
        None | Some((_, b';')) | Some((_, b'{')) | Some((_, b'}'))
    );
    let after = next_nonspace(bytes, close).map(|(_, b)| b);
    stmt_pos && after == Some(b';')
}

/// Index just past any `.unwrap()` / `.expect(..)` chained on the guard
/// expression ending at `close`. Those adapters return the guard itself,
/// so `let g = x.lock().unwrap();` is still a named guard binding.
fn skip_guard_adapters(bytes: &[u8], mut close: usize) -> usize {
    loop {
        let Some((dot, b'.')) = next_nonspace(bytes, close) else {
            return close;
        };
        let Some((s, b)) = next_nonspace(bytes, dot + 1) else {
            return close;
        };
        if !is_ident(b) {
            return close;
        }
        let mut e = s;
        while e < bytes.len() && is_ident(bytes[e]) {
            e += 1;
        }
        if &bytes[s..e] != b"unwrap" && &bytes[s..e] != b"expect" {
            return close;
        }
        let Some((open, b'(')) = next_nonspace(bytes, e) else {
            return close;
        };
        close = match_paren(bytes, open);
    }
}

/// Walk one function body, producing its event stream.
fn walk_body(text: &str, start: usize, end: usize, ctx: &ResolveCtx<'_>) -> Vec<Event> {
    let bytes = text.as_bytes();
    let mut events = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_let: Option<String> = None;
    let mut scrutinee = false;
    let mut i = start;

    let release_pending = |guards: &mut Vec<Guard>, depth: i32| {
        for g in guards.iter_mut() {
            if g.state == GuardState::Pending && g.depth == depth {
                g.released = true;
            }
        }
    };

    while i < end {
        let b = bytes[i];
        match b {
            b'{' => {
                if scrutinee {
                    for g in guards.iter_mut() {
                        if g.state == GuardState::Pending && g.depth == depth && !g.released {
                            g.state = GuardState::Scrutinee;
                            g.depth = depth + 1;
                        }
                    }
                } else {
                    // A plain `if cond {` or block start ends the
                    // condition/statement temporaries (edition 2021
                    // drops plain-`if` temporaries before the body).
                    release_pending(&mut guards, depth);
                }
                scrutinee = false;
                pending_let = None;
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth -= 1;
                for g in guards.iter_mut() {
                    if g.depth > depth {
                        g.released = true;
                    }
                }
                i += 1;
            }
            b';' => {
                release_pending(&mut guards, depth);
                pending_let = None;
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => i += 2,
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let wstart = i;
                while i < end && is_ident(bytes[i]) {
                    i += 1;
                }
                let word = &text[wstart..i];
                match word {
                    "let" => {
                        // `let [mut] NAME [: Ty] = ..` arms the binder.
                        let mut j = i;
                        if let Some((k, b)) = next_nonspace(bytes, j) {
                            if is_ident(b) {
                                let mut e = k;
                                while e < end && is_ident(bytes[e]) {
                                    e += 1;
                                }
                                let mut name = &text[k..e];
                                if name == "mut" {
                                    if let Some((k2, b2)) = next_nonspace(bytes, e) {
                                        if is_ident(b2) {
                                            let mut e2 = k2;
                                            while e2 < end && is_ident(bytes[e2]) {
                                                e2 += 1;
                                            }
                                            name = &text[k2..e2];
                                            e = e2;
                                        }
                                    }
                                }
                                j = e;
                                match next_nonspace(bytes, j) {
                                    Some((eq, b'=')) if bytes.get(eq + 1) != Some(&b'=') => {
                                        pending_let = Some(name.to_string());
                                    }
                                    Some((c, b':')) if bytes.get(c + 1) != Some(&b':') => {
                                        // Ascribed: scan to `=` within the statement.
                                        let mut k2 = c + 1;
                                        while k2 < end
                                            && !matches!(bytes[k2], b'=' | b';' | b'{' | b'(')
                                        {
                                            k2 += 1;
                                        }
                                        if k2 < end && bytes[k2] == b'=' {
                                            pending_let = Some(name.to_string());
                                        }
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    "if" | "while" => {
                        if let Some((k, b'l')) = next_nonspace(bytes, i) {
                            if text.get(k..k + 3) == Some("let")
                                && bytes.get(k + 3).is_none_or(|&b| !is_ident(b))
                            {
                                scrutinee = true;
                                i = k + 3;
                            }
                        }
                    }
                    "match" => {
                        // `match` the keyword, not a method: a method call
                        // was consumed by the call path below (receiver
                        // chain requires a preceding `.`, which an ident
                        // cannot follow here because word_offsets-style
                        // boundaries applied).
                        if prev_nonspace(bytes, wstart).map(|(_, b)| b) != Some(b'.') {
                            scrutinee = true;
                        }
                    }
                    "drop" => {
                        if let Some((open, b'(')) = next_nonspace(bytes, i) {
                            let close = match_paren(bytes, open);
                            let arg = terminal_ident(&text[open + 1..close.saturating_sub(1)]);
                            for g in guards.iter_mut() {
                                if g.name.as_deref() == Some(arg.as_str()) {
                                    g.released = true;
                                }
                            }
                            i = close;
                        }
                    }
                    w if w == LOCK_FN => {
                        if let Some((open, b'(')) = next_nonspace(bytes, i) {
                            let close = match_paren(bytes, open);
                            let arg = terminal_ident(&text[open + 1..close.saturating_sub(1)]);
                            let class = ctx.class_of(&arg);
                            events.push(Event::Acquire {
                                class: class.clone(),
                                line: line_of(text, wstart),
                                held: held_classes(&guards),
                            });
                            // `let x = lock_or_recover(&m).get(..);` binds the
                            // chain result, not the guard: the guard is a
                            // temporary dropped at end of statement.
                            let chained = next_nonspace(bytes, skip_guard_adapters(bytes, close))
                                .map(|(_, b)| b)
                                == Some(b'.');
                            let (name, state) = match pending_let.take() {
                                Some(n) if n != "_" && !chained => (Some(n), GuardState::Named),
                                _ => (None, GuardState::Pending),
                            };
                            guards.push(Guard {
                                name,
                                class,
                                depth,
                                state,
                                released: false,
                            });
                            i = close;
                        }
                    }
                    w if w == WAIT_FN => {
                        if let Some((open, b'(')) = next_nonspace(bytes, i) {
                            let close = match_paren(bytes, open);
                            let args = &text[open + 1..close.saturating_sub(1)];
                            let passed =
                                args.rsplit(',')
                                    .next()
                                    .map(terminal_ident)
                                    .and_then(|name| {
                                        guards
                                            .iter()
                                            .find(|g| {
                                                !g.released && g.name.as_deref() == Some(&name)
                                            })
                                            .map(|g| g.class.clone())
                                    });
                            events.push(Event::Wait {
                                passed,
                                line: line_of(text, wstart),
                                held: held_classes(&guards),
                            });
                            i = close;
                        }
                    }
                    _ => {
                        // `name::<T>(` is a call too: look past a turbofish.
                        let Some((open, b'(')) = next_nonspace(bytes, skip_turbofish(bytes, i))
                        else {
                            continue;
                        };
                        if open != i && bytes.get(i) == Some(&b'!') {
                            continue; // macro
                        }
                        if CALL_KEYWORDS.contains(&word) {
                            continue;
                        }
                        let line = line_of(text, wstart);
                        let close = match_paren(bytes, open);
                        // Byte-exact `()`: scrubbed string literals leave
                        // spaces behind, so `join("  ")` must not look
                        // argument-free.
                        let empty_args = close == open + 2;
                        // Qualified path (`Type::method`) or method call?
                        let prev = prev_nonspace(bytes, wstart);
                        match prev {
                            Some((p, b':')) if p > 0 && bytes[p - 1] == b':' => {
                                let qual = {
                                    let mut qend = p - 1;
                                    while qend > 0 && is_ident(bytes[qend - 1]) {
                                        qend -= 1;
                                    }
                                    text[qend..p - 1].to_string()
                                };
                                if qual == "mpsc" && word == "channel" {
                                    events.push(Event::ChannelNew { line });
                                } else if !qual.is_empty() {
                                    events.push(Event::Call(CallSite {
                                        method: word.to_string(),
                                        kind: CallKind::Qualified(qual),
                                        line,
                                        held: held_classes(&guards),
                                    }));
                                }
                            }
                            Some((p, b'.')) => {
                                let chain = receiver_chain(bytes, p);
                                match word {
                                    "send" => {
                                        let chain_start = {
                                            // Walk to the front of the chain for
                                            // statement-position detection.
                                            let mut s = wstart;
                                            while let Some((d, b'.')) = prev_nonspace(bytes, s) {
                                                let Some((e, b)) = prev_nonspace(bytes, d) else {
                                                    break;
                                                };
                                                if !is_ident(b) {
                                                    break;
                                                }
                                                let mut st = e + 1;
                                                while st > 0 && is_ident(bytes[st - 1]) {
                                                    st -= 1;
                                                }
                                                s = st;
                                            }
                                            s
                                        };
                                        events.push(Event::Send {
                                            line,
                                            handled: !send_unhandled(bytes, chain_start, close),
                                            held: held_classes(&guards),
                                        });
                                    }
                                    "recv" | "recv_timeout" | "try_recv" => {
                                        events.push(Event::Recv {
                                            line,
                                            held: held_classes(&guards),
                                        });
                                    }
                                    "join" if empty_args => {
                                        events.push(Event::Join {
                                            line,
                                            held: held_classes(&guards),
                                        });
                                    }
                                    "lock" | "read" | "write" => {
                                        let field = chain
                                            .as_ref()
                                            .and_then(|c| c.first())
                                            .cloned()
                                            .unwrap_or_default();
                                        let kind = ctx.declared_kind(&field);
                                        let is_acq = match (word, kind) {
                                            ("lock", Some(LockKind::Mutex)) => true,
                                            ("read" | "write", Some(LockKind::RwLock)) => {
                                                empty_args
                                            }
                                            _ => false,
                                        };
                                        if is_acq {
                                            let class = ctx.class_of(&field);
                                            events.push(Event::Acquire {
                                                class: class.clone(),
                                                line,
                                                held: held_classes(&guards),
                                            });
                                            // As with lock_or_recover: a chained
                                            // `.lock().x(..)` guard is a statement
                                            // temp, not the let binding.
                                            let chained = next_nonspace(
                                                bytes,
                                                skip_guard_adapters(bytes, close),
                                            )
                                            .map(|(_, b)| b)
                                                == Some(b'.');
                                            let (name, state) = match pending_let.take() {
                                                Some(n) if n != "_" && !chained => {
                                                    (Some(n), GuardState::Named)
                                                }
                                                _ => (None, GuardState::Pending),
                                            };
                                            guards.push(Guard {
                                                name,
                                                class,
                                                depth,
                                                state,
                                                released: false,
                                            });
                                        }
                                    }
                                    "wait" | "wait_timeout" => {
                                        let field = chain
                                            .as_ref()
                                            .and_then(|c| c.first())
                                            .cloned()
                                            .unwrap_or_default();
                                        if ctx.declared_kind(&field) == Some(LockKind::Condvar) {
                                            let arg = terminal_ident(
                                                text[open + 1..close.saturating_sub(1)]
                                                    .split(',')
                                                    .next()
                                                    .unwrap_or(""),
                                            );
                                            let passed = guards
                                                .iter()
                                                .find(|g| {
                                                    !g.released && g.name.as_deref() == Some(&arg)
                                                })
                                                .map(|g| g.class.clone());
                                            events.push(Event::Wait {
                                                passed,
                                                line,
                                                held: held_classes(&guards),
                                            });
                                        }
                                    }
                                    _ => {
                                        let kind = match chain.as_ref().and_then(|c| c.first()) {
                                            Some(first) if first == "self" => CallKind::SelfMethod,
                                            Some(first) => CallKind::FieldMethod(first.clone()),
                                            None => CallKind::UnknownRecv,
                                        };
                                        events.push(Event::Call(CallSite {
                                            method: word.to_string(),
                                            kind,
                                            line,
                                            held: held_classes(&guards),
                                        }));
                                    }
                                }
                            }
                            _ => {
                                events.push(Event::Call(CallSite {
                                    method: word.to_string(),
                                    kind: CallKind::Bare,
                                    line,
                                    held: held_classes(&guards),
                                }));
                            }
                        }
                    }
                }
            }
            _ => i += 1,
        }
    }
    events
}

/// Parse every file of the workspace. Input is `(rel, scrubbed text)`
/// pairs — comments/strings blanked and test regions erased. Files are
/// processed in input order (the walker already sorts), so all output is
/// deterministic.
pub fn parse_workspace(files: &[(String, String)]) -> Vec<ParsedFile> {
    // Phase A: declarations, impls, fn sites for every file.
    struct Skeleton {
        lock_fields: Vec<LockField>,
        types: BTreeMap<String, String>,
        impls: Vec<ImplBlock>,
        fns: Vec<FnSite>,
    }
    let mut skels = Vec::with_capacity(files.len());
    for (_, text) in files {
        let mut lock_fields = Vec::new();
        let mut types = BTreeMap::new();
        scan_decls(text, &mut lock_fields, &mut types);
        let impls = scan_impls(text);
        let fns = scan_fns(text);
        for f in &fns {
            scan_params(&text[f.params.0..f.params.1.max(f.params.0)], &mut types);
        }
        skels.push(Skeleton {
            lock_fields,
            types,
            impls,
            fns,
        });
    }

    // Global field table for cross-file class resolution.
    let mut global_fields: BTreeMap<String, Vec<(String, LockKind)>> = BTreeMap::new();
    for ((rel, _), skel) in files.iter().zip(&skels) {
        let (_, stem) = stem_of(rel);
        for lf in &skel.lock_fields {
            global_fields
                .entry(lf.field.clone())
                .or_default()
                .push((stem.clone(), lf.kind));
        }
    }

    // Phase B: walk bodies.
    let mut out = Vec::with_capacity(files.len());
    for ((rel, text), skel) in files.iter().zip(skels) {
        let (krate, stem) = stem_of(rel);
        let ctx = ResolveCtx {
            stem: &stem,
            local_fields: &skel.lock_fields,
            global_fields: &global_fields,
        };
        let mut fns = Vec::with_capacity(skel.fns.len());
        for site in &skel.fns {
            let ctx_impl = skel
                .impls
                .iter()
                .find(|b| site.body.0 > b.start && site.body.1 <= b.end);
            fns.push(FnBody {
                name: site.name.clone(),
                impl_type: ctx_impl.map(|b| b.ty.clone()),
                trait_name: ctx_impl.and_then(|b| b.trait_name.clone()),
                line: site.line,
                events: walk_body(text, site.body.0, site.body.1, &ctx),
            });
        }
        out.push(ParsedFile {
            rel: rel.clone(),
            stem,
            krate,
            lock_fields: skel.lock_fields,
            ident_types: skel.types,
            trait_impls: skel
                .impls
                .iter()
                .filter_map(|b| b.trait_name.clone().map(|t| (t, b.ty.clone())))
                .collect(),
            fns,
        })
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(rel: &str, src: &str) -> ParsedFile {
        let mut s = crate::lexer::scrub(src);
        crate::lexer::blank_test_regions(&mut s.text);
        parse_workspace(&[(rel.to_string(), s.text)])
            .into_iter()
            .next()
            .expect("one file")
    }

    const REL: &str = "crates/cubestore/src/server.rs";

    #[test]
    fn lock_fields_and_types_are_scanned() {
        let f = parse_one(
            REL,
            "struct Shared {\n    queue: Mutex<Queue>,\n    wake: Condvar,\n    clock: Arc<Clock>,\n    store: Arc<dyn BlobStore>,\n}\n",
        );
        assert_eq!(f.lock_fields.len(), 2, "{:?}", f.lock_fields);
        assert_eq!(f.lock_fields[0].field, "queue");
        assert_eq!(f.lock_fields[0].kind, LockKind::Mutex);
        assert_eq!(f.lock_fields[1].kind, LockKind::Condvar);
        assert_eq!(f.ident_types["clock"], "Clock");
        assert_eq!(f.ident_types["store"], "BlobStore");
    }

    #[test]
    fn constructor_lines_are_not_field_decls() {
        let f = parse_one(
            REL,
            "fn mk() -> Shared {\n    Shared {\n        queue: Mutex::new(Queue::default()),\n    }\n}\nstruct Shared { queue: Mutex<Queue> }\n",
        );
        assert_eq!(f.lock_fields.len(), 1);
        assert_eq!(f.lock_fields[0].line, 6);
    }

    #[test]
    fn named_guard_lives_until_drop_or_block_end() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let q = lock_or_recover(&self.queue);\n        self.step();\n        drop(q);\n        self.after();\n    }\n}\n",
        );
        let events = &f.fns[0].events;
        let calls: Vec<(&str, &[String])> = events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.method.as_str(), c.held.as_slice())),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 2, "{events:?}");
        assert_eq!(calls[0].0, "step");
        assert_eq!(calls[0].1, ["server.queue"]);
        assert_eq!(calls[1].0, "after");
        assert!(calls[1].1.is_empty(), "released by drop: {events:?}");
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        if lock_or_recover(&self.queue).is_empty() {\n            self.inside_if();\n        }\n        self.outside();\n    }\n}\n",
        );
        let calls: Vec<(&str, usize)> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.method.as_str(), c.held.len())),
                _ => None,
            })
            .collect();
        // `is_empty` is on the guard (while held); the plain-if body and
        // the tail run guard-free.
        assert!(calls.contains(&("inside_if", 0)), "{calls:?}");
        assert!(calls.contains(&("outside", 0)), "{calls:?}");
    }

    #[test]
    fn chained_let_acquire_is_a_statement_temp() {
        // `let cached = lock_or_recover(&m).get(k);` binds the chain
        // result; the guard is a temporary dropped at the `;`, so calls
        // after the statement run guard-free.
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let cached = lock_or_recover(&self.queue).get(0);\n        self.after(cached);\n    }\n}\n",
        );
        let calls: Vec<(&str, usize)> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.method.as_str(), c.held.len())),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&("after", 0)), "{calls:?}");
    }

    #[test]
    fn scrutinee_guard_lives_through_if_let_body() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        if let Some(v) = lock_or_recover(&self.queue).get(0) {\n            self.held_here();\n        }\n        self.free_here();\n    }\n}\n",
        );
        let calls: Vec<(&str, usize)> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.method.as_str(), c.held.len())),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&("held_here", 1)), "{calls:?}");
        assert!(calls.contains(&("free_here", 0)), "{calls:?}");
    }

    #[test]
    fn block_scoped_guard_released_at_close() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let v = {\n            let q = lock_or_recover(&self.queue);\n            q.len()\n        };\n        self.work(v);\n    }\n}\n",
        );
        let calls: Vec<(&str, usize)> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.method.as_str(), c.held.len())),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&("work", 0)), "{calls:?}");
    }

    #[test]
    fn acquire_while_held_reports_held_set() {
        let f = parse_one(
            "crates/x/src/two.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let ga = lock_or_recover(&self.a);\n        let gb = lock_or_recover(&self.b);\n        drop(gb);\n        drop(ga);\n    }\n}\n",
        );
        let acquires: Vec<(&str, &[String])> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { class, held, .. } => Some((class.as_str(), held.as_slice())),
                _ => None,
            })
            .collect();
        assert_eq!(acquires[0], ("two.a", &[][..]));
        assert_eq!(acquires[1].0, "two.b");
        assert_eq!(acquires[1].1, ["two.a"]);
    }

    #[test]
    fn channel_send_recv_join_events() {
        let f = parse_one(
            "crates/x/src/ch.rs",
            "fn go() {\n    let (tx, rx) = mpsc::channel();\n    tx.send(1);\n    let _ = tx.send(2);\n    let v = rx.recv();\n    h.join();\n    let s = parts.join(\", \");\n    let _ = v;\n}\n",
        );
        let e = &f.fns[0].events;
        assert!(matches!(e[0], Event::ChannelNew { line: 2 }), "{e:?}");
        assert!(matches!(e[1], Event::Send { handled: false, .. }), "{e:?}");
        assert!(matches!(e[2], Event::Send { handled: true, .. }), "{e:?}");
        assert!(matches!(e[3], Event::Recv { .. }), "{e:?}");
        assert!(matches!(e[4], Event::Join { .. }), "{e:?}");
        // str::join (has args) is a plain call, not a thread join.
        assert!(
            !e[5..].iter().any(|ev| matches!(ev, Event::Join { .. })),
            "{e:?}"
        );
    }

    #[test]
    fn wait_or_recover_passes_guard() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32>, wake: Condvar }\nimpl S {\n    fn go(&self) {\n        let mut q = lock_or_recover(&self.queue);\n        q = wait_or_recover(&self.wake, q);\n        drop(q);\n    }\n}\n",
        );
        let waits: Vec<_> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Wait { passed, held, .. } => Some((passed.clone(), held.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(waits.len(), 1, "{:?}", f.fns[0].events);
        assert_eq!(waits[0].0.as_deref(), Some("server.queue"));
        assert_eq!(waits[0].1, ["server.queue"]);
    }

    #[test]
    fn impl_context_and_call_kinds() {
        let f = parse_one(
            "crates/x/src/a.rs",
            "struct A { store: Arc<CubeStore> }\nimpl BlobStore for A {\n    fn put(&self) {\n        self.helper();\n        self.store.query();\n        Segment::decode();\n        free_fn();\n    }\n}\n",
        );
        let body = &f.fns[0];
        assert_eq!(body.impl_type.as_deref(), Some("A"));
        assert_eq!(body.trait_name.as_deref(), Some("BlobStore"));
        assert_eq!(f.trait_impls, vec![("BlobStore".into(), "A".into())]);
        let kinds: Vec<&CallKind> = body
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(&c.kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds[0], &CallKind::SelfMethod);
        assert_eq!(kinds[1], &CallKind::FieldMethod("store".into()));
        assert_eq!(kinds[2], &CallKind::Qualified("Segment".into()));
        assert_eq!(kinds[3], &CallKind::Bare);
    }

    #[test]
    fn std_lock_unwrap_idiom_is_an_acquisition() {
        let f = parse_one(
            "crates/x/src/m.rs",
            "struct S { cell: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let g = self.cell.lock().unwrap();\n        self.while_held();\n    }\n}\n",
        );
        let held: Vec<usize> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) if c.method == "while_held" => Some(c.held.len()),
                _ => None,
            })
            .collect();
        assert_eq!(held, [1], "{:?}", f.fns[0].events);
    }

    #[test]
    fn io_read_write_calls_are_not_acquisitions() {
        let f = parse_one(
            "crates/x/src/m.rs",
            "fn go(mut w: File) {\n    w.write(b1);\n    w.read(b2);\n}\n",
        );
        assert!(
            !f.fns[0]
                .events
                .iter()
                .any(|e| matches!(e, Event::Acquire { .. })),
            "{:?}",
            f.fns[0].events
        );
    }

    #[test]
    fn fallback_class_for_non_field_locks() {
        let f = parse_one(
            "crates/mapreduce/src/engine.rs",
            "fn go(slot: &Mutex<u32>) {\n    *lock_or_recover(slot) = 1;\n}\n",
        );
        let acq: Vec<&str> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { class, .. } => Some(class.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(acq, ["engine.slot"]);
    }

    #[test]
    fn lib_rs_stem_is_the_crate_name() {
        let f = parse_one(
            "crates/obs/src/lib.rs",
            "struct O { state: Mutex<u32> }\nimpl O {\n    fn go(&self) { let _g = lock_or_recover(&self.state); }\n}\n",
        );
        assert_eq!(f.stem, "obs");
        assert_eq!(f.krate, "obs");
    }

    #[test]
    fn underscore_let_is_a_temporary() {
        let f = parse_one(
            REL,
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn go(&self) {\n        let _ = lock_or_recover(&self.queue);\n        self.after();\n    }\n}\n",
        );
        let calls: Vec<usize> = f.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) if c.method == "after" => Some(c.held.len()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, [0], "{:?}", f.fns[0].events);
    }
}
