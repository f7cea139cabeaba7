//! The per-file invariants spcheck enforces (R1–R5), the glob policy
//! table scoping every rule — including the cross-file concurrency
//! rules R6–R9 in [`crate::conc`] — and the suppression contract.
//!
//! Each per-file rule scans the scrubbed text of one file (comments and
//! literal bodies already spaced out, `#[cfg(test)]` items blanked) and
//! emits [`Finding`]s. Which rules apply to which files is decided by
//! the [`Scope`] rows of the single `POLICY` table:
//!
//! * **no_panic** (R1) — serving-path modules must not contain panic
//!   sources: `.unwrap()` / `.expect()`, the panicking macros, or slice
//!   indexing `x[i]`.
//! * **single_source_format** (R2) — each binary-format magic
//!   (`SPSK1`, `CSEG1`, `CMAN1`, `DSEG1`) and the five XXH64 primes of
//!   the blob seal must appear literally at exactly one non-test site in
//!   the workspace.
//! * **determinism** (R3) — wall-clock reads only in the one blessed
//!   module; no `HashMap` on paths that feed persisted or reported
//!   output (iteration order would leak hasher state into bytes).
//! * **error_hygiene** (R4) — codec modules must not use
//!   `Box<dyn Error>` or silently-narrowing `as` casts to u8/u16/u32.
//! * **obs_naming** (R5) — instrument/span names are constants in
//!   `crates/obs/src/names.rs`; a string literal in obs-call position
//!   anywhere else forks the naming contract, and every literal inside
//!   the registry itself must match the lowercase dotted grammar and be
//!   unique.
//!
//! A finding is silenced only by `// spcheck:allow(rule): reason` on the
//! same line or the line above. A suppression with no reason, an unknown
//! rule name, or one that sits unused is itself a finding
//! (**bad_suppression**) — R2 findings are never suppressible because a
//! second magic site is wrong no matter the excuse.

use crate::lexer::{Scrubbed, StrLit, Suppression};
use crate::report::Finding;

/// Rule names accepted inside `spcheck:allow(...)`.
pub const SUPPRESSIBLE_RULES: &[&str] = &[
    "no_panic",
    "single_source_format",
    "determinism",
    "error_hygiene",
    "obs_naming",
    "lock_order",
    "hold_across_io",
    "channel_hygiene",
    "guard_scope",
];

/// Which rule family a policy row scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// R1 serving-path panic ban.
    NoPanic,
    /// R3 HashMap-on-output-path ban.
    OrderedOutput,
    /// R4 codec error hygiene.
    Codec,
    /// The one module allowed to read the wall clock.
    ClockExempt,
    /// R6–R9 concurrency discipline (effectively the whole workspace).
    Concurrency,
    /// Modules blessed to create unbounded `mpsc::channel` (R8).
    ChannelBlessed,
    /// Files the concurrency parser skips (the sync primitives
    /// themselves would self-register phantom lock classes).
    ParseExempt,
}

/// The single policy table: every scope decision in spcheck goes through
/// these glob patterns. `*` matches within one path segment, `**` spans
/// segments, and a leading `!` vetoes a path no matter what else
/// matched. Adding a new module to a scope is one line here — never a
/// code change.
const POLICY: &[(Scope, &[&str])] = &[
    (
        Scope::NoPanic,
        &[
            "crates/mapreduce/src/engine.rs",
            "crates/mapreduce/src/dfs.rs",
            "crates/core/src/spcube/**",
            "crates/obs/src/**",
            // Every cubestore serving module. segment.rs is exempt: it is
            // the columnar layout (the builder asserts, and the row
            // accessors index columns whose lengths decode has checked);
            // the query kernels over it live in store.rs, in scope.
            // lib.rs is re-exports.
            "crates/cubestore/src/*.rs",
            "!crates/cubestore/src/segment.rs",
            "!crates/cubestore/src/lib.rs",
            "crates/cubealg/src/read.rs",
        ],
    ),
    (
        Scope::OrderedOutput,
        &[
            "crates/cubestore/src/store.rs",
            "crates/cubestore/src/delta.rs",
            "crates/cubestore/src/scrub.rs",
            "crates/cubestore/src/faults.rs",
            "crates/bench/src/report.rs",
            "crates/bench/src/serving.rs",
            "crates/bench/src/bin/inspect.rs",
            "crates/mapreduce/src/engine.rs",
            "crates/core/src/spcube/**",
            "crates/obs/src/**",
        ],
    ),
    (
        Scope::Codec,
        &[
            "crates/common/src/codec.rs",
            "crates/cubestore/src/codec.rs",
            "crates/cubestore/src/delta.rs",
            "crates/cubestore/src/scrub.rs",
            "crates/cubestore/src/segment.rs",
            "crates/cubestore/src/manifest.rs",
            "crates/core/src/sketch/mod.rs",
        ],
    ),
    (Scope::ClockExempt, &["crates/obs/src/clock.rs"]),
    (Scope::Concurrency, &["crates/**"]),
    // server.rs owns the one blessed unbounded channel: the per-request
    // reply channel, capacity-bounded by the admission queue itself.
    (Scope::ChannelBlessed, &["crates/cubestore/src/server.rs"]),
    (Scope::ParseExempt, &["crates/common/src/sync.rs"]),
];

/// Binary-format magics that must be single-sited (R2).
pub const MAGICS: &[&str] = &["SPSK1", "CSEG1", "CMAN1", "DSEG1"];

/// The XXH64 primes of the blob seal, which must be single-sited (R2):
/// underscore-free lowercase hex without the `0x` prefix.
pub const SEAL_HEX: &[(&str, &str)] = &[
    ("XXH64 prime 1", "9e3779b185ebca87"),
    ("XXH64 prime 2", "c2b2ae3d27d4eb4f"),
    ("XXH64 prime 3", "165667b19e3779f9"),
    ("XXH64 prime 4", "85ebca77c2b2ae63"),
    ("XXH64 prime 5", "27d4eb2f165667c5"),
];

/// Segment-wise glob match: `**` spans any number of segments, `*`
/// matches within one segment (possibly alongside literal text).
fn glob_match(pattern: &str, path: &str) -> bool {
    fn segs(pat: &[&str], path: &[&str]) -> bool {
        match (pat.first(), path.first()) {
            (None, None) => true,
            (Some(&"**"), _) => {
                segs(&pat[1..], path) || (!path.is_empty() && segs(pat, &path[1..]))
            }
            (Some(p), Some(s)) => seg_match(p, s) && segs(&pat[1..], &path[1..]),
            _ => false,
        }
    }
    fn seg_match(pat: &str, seg: &str) -> bool {
        match pat.split_once('*') {
            None => pat == seg,
            Some((pre, rest)) => {
                if !seg.starts_with(pre) {
                    return false;
                }
                let tail = &seg[pre.len()..];
                (0..=tail.len()).any(|i| seg_match(rest, &tail[i..]))
            }
        }
    }
    let pat: Vec<&str> = pattern.split('/').collect();
    let path: Vec<&str> = path.split('/').collect();
    segs(&pat, &path)
}

/// Is `rel` inside `scope` per the policy table? A `!`-pattern veto
/// wins regardless of ordering.
pub fn in_scope(scope: Scope, rel: &str) -> bool {
    let Some((_, patterns)) = POLICY.iter().find(|(s, _)| *s == scope) else {
        return false;
    };
    let mut matched = false;
    for p in *patterns {
        if let Some(neg) = p.strip_prefix('!') {
            if glob_match(neg, rel) {
                return false;
            }
        } else if glob_match(p, rel) {
            matched = true;
        }
    }
    matched
}

/// Does R1 apply to this workspace-relative path?
pub fn is_no_panic_path(rel: &str) -> bool {
    in_scope(Scope::NoPanic, rel)
}

/// Does the R3 HashMap ban apply?
pub fn is_ordered_output_path(rel: &str) -> bool {
    in_scope(Scope::OrderedOutput, rel)
}

/// Does R4 apply?
pub fn is_codec_path(rel: &str) -> bool {
    in_scope(Scope::Codec, rel)
}

/// Is this file allowed to read the wall clock?
pub fn is_clock_exempt(rel: &str) -> bool {
    in_scope(Scope::ClockExempt, rel)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find each occurrence of `word` in `text` as a whole token and report
/// its byte offset.
fn word_offsets(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text
        .get(from..)
        .and_then(|t| t.find(word))
        .map(|p| p + from)
    {
        let before_ok = pos == 0 || !is_ident(bytes[pos.saturating_sub(1)]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

fn line_of(text: &str, offset: usize) -> usize {
    1 + text
        .as_bytes()
        .iter()
        .take(offset)
        .filter(|&&b| b == b'\n')
        .count()
}

/// Is the identifier ending just before `pos` (modulo spaces) a keyword
/// that introduces a type or expression rather than naming a sliceable
/// value? `&mut [T]`, `impl [..]`, `return [..]` are not indexing.
fn keyword_before(text: &str, pos: usize) -> bool {
    let bytes = text.as_bytes();
    let mut end = pos;
    while end > 0 && matches!(bytes[end - 1], b' ' | b'\t' | b'\n') {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    matches!(
        text.get(start..end).unwrap_or(""),
        "mut"
            | "dyn"
            | "in"
            | "return"
            | "break"
            | "as"
            | "impl"
            | "where"
            | "move"
            | "ref"
            | "const"
            | "static"
            | "else"
            | "match"
            | "if"
            | "let"
    )
}

/// Is the token ending just before `pos` (modulo spaces) a lifetime
/// (`'a`)? `&'a [u8]` is a slice type, not indexing.
fn lifetime_before(bytes: &[u8], pos: usize) -> bool {
    let mut end = pos;
    while end > 0 && matches!(bytes[end - 1], b' ' | b'\t' | b'\n') {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    start > 0 && start < end && bytes[start - 1] == b'\''
}

fn prev_nonspace(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes
        .iter()
        .take(pos)
        .rev()
        .find(|&&b| b != b' ' && b != b'\t' && b != b'\n')
        .copied()
}

fn next_nonspace(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes
        .iter()
        .skip(pos)
        .find(|&&b| b != b' ' && b != b'\t' && b != b'\n')
        .copied()
}

/// R1: panic sources in serving-path files.
pub fn check_no_panic(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let bytes = text.as_bytes();

    // `.unwrap(` / `.expect(` method calls. Requiring the leading dot and
    // trailing paren means `unwrap_or_else` or an `expect` field never
    // match (word_offsets already rejects ident-adjacent hits anyway).
    for method in ["unwrap", "expect"] {
        for pos in word_offsets(text, method) {
            let called = next_nonspace(bytes, pos + method.len()) == Some(b'(');
            let dotted = prev_nonspace(bytes, pos) == Some(b'.');
            if called && dotted {
                findings.push(Finding::new(
                    rel,
                    line_of(text, pos),
                    "no_panic",
                    format!(".{method}() on a serving path; return a typed Result instead"),
                ));
            }
        }
    }

    // Panicking macros.
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for pos in word_offsets(text, mac) {
            if bytes.get(pos + mac.len()) == Some(&b'!') {
                findings.push(Finding::new(
                    rel,
                    line_of(text, pos),
                    "no_panic",
                    format!("{mac}! on a serving path; return a typed Result instead"),
                ));
            }
        }
    }

    // Slice/array indexing: `[` immediately preceded (modulo spaces) by an
    // expression terminator. This excludes `vec![` (prev `!`), attributes
    // `#[` (prev `#`), slice types `&[u8]` (prev `&`), `: [T; 4]` (prev
    // `:`), keyword-led types like `&mut [T]` / `dyn [..]`, and
    // pattern/type positions generally.
    for (pos, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let Some(prev) = prev_nonspace(bytes, pos) else {
            continue;
        };
        let indexes_expr =
            (is_ident(prev) && !keyword_before(text, pos) && !lifetime_before(bytes, pos))
                || prev == b')'
                || prev == b']'
                || prev == b'?';
        // `x[..]` etc. still index; but an empty `[]` right after an ident
        // is array-repeat syntax in consts — treat `[` followed directly
        // by `]` as not indexing.
        if indexes_expr && next_nonspace(bytes, pos + 1) != Some(b']') {
            findings.push(Finding::new(
                rel,
                line_of(text, pos),
                "no_panic",
                "slice indexing on a serving path; use .get()/.get_mut()".to_string(),
            ));
        }
    }
}

/// One magic-constant literal site, for R2 cross-file accounting.
#[derive(Debug, Clone)]
pub struct MagicSite {
    pub rel: String,
    pub line: usize,
    /// Which magic / constant this site defines.
    pub what: String,
}

/// R2 per-file half: collect magic string-literal sites outside tests.
pub fn collect_magic_sites(
    rel: &str,
    literals: &[StrLit],
    test_ranges: &[(usize, usize)],
    out: &mut Vec<MagicSite>,
) {
    for lit in literals {
        if test_ranges
            .iter()
            .any(|&(a, b)| lit.offset >= a && lit.offset < b)
        {
            continue;
        }
        for magic in MAGICS {
            if lit.value == *magic {
                out.push(MagicSite {
                    rel: rel.to_string(),
                    line: lit.line,
                    what: (*magic).to_string(),
                });
            }
        }
    }
}

/// R2 per-file half: collect seal-prime hex-literal sites.
pub fn collect_seal_sites(rel: &str, text: &str, out: &mut Vec<MagicSite>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'0' && (bytes[i + 1] == b'x' || bytes[i + 1] == b'X') {
            let start = i + 2;
            let mut j = start;
            while j < bytes.len() && (bytes[j].is_ascii_hexdigit() || bytes[j] == b'_') {
                j += 1;
            }
            let hex: String = text
                .get(start..j)
                .unwrap_or("")
                .chars()
                .filter(|&c| c != '_')
                .collect::<String>()
                .to_ascii_lowercase();
            for (what, want) in SEAL_HEX {
                if hex == *want {
                    out.push(MagicSite {
                        rel: rel.to_string(),
                        line: line_of(text, i),
                        what: (*what).to_string(),
                    });
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
}

/// R2 workspace half: every magic / seal prime must have exactly one
/// site. Called once after the walk, with all sites pooled.
pub fn check_single_source(sites: &[MagicSite], findings: &mut Vec<Finding>) {
    let names: Vec<String> = MAGICS
        .iter()
        .map(|m| (*m).to_string())
        .chain(SEAL_HEX.iter().map(|(w, _)| (*w).to_string()))
        .collect();
    for what in &names {
        let hits: Vec<&MagicSite> = sites.iter().filter(|s| &s.what == what).collect();
        match hits.len() {
            1 => {}
            0 => findings.push(Finding::new(
                "<workspace>",
                0,
                "single_source_format",
                format!("{what} has no literal definition site"),
            )),
            _ => {
                for site in &hits {
                    findings.push(Finding::new(
                        &site.rel,
                        site.line,
                        "single_source_format",
                        format!(
                            "{what} defined at {} sites; keep one const and import it",
                            hits.len()
                        ),
                    ));
                }
            }
        }
    }
}

/// Obs API methods whose first argument is an instrument/span name (R5).
/// `.method("...")` with a literal in that position bypasses the
/// `obs::names` registry.
const OBS_NAME_METHODS: &[&str] = &[
    "span",
    "event",
    "inc",
    "add",
    "gauge_set",
    "hist_record",
    "histogram",
    "counter",
    "gauge",
    "counter_value",
    "gauge_value",
];

/// The file where obs names are registered (R5 audits its literals).
const OBS_NAMES_REGISTRY: &str = "crates/obs/src/names.rs";

fn in_test_ranges(offset: usize, test_ranges: &[(usize, usize)]) -> bool {
    test_ranges.iter().any(|&(a, b)| offset >= a && offset < b)
}

/// The obs naming grammar: `[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*`.
/// Duplicated from `spcube_obs::names::valid_name` on purpose — spcheck
/// is dependency-free so it can run before anything else builds.
fn obs_name_grammar(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

/// If the literal at `offset` sits in obs-call position
/// (`.method( "..."` with `method` in [`OBS_NAME_METHODS`]), return the
/// method name.
fn obs_method_before(text: &str, offset: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut i = offset;
    while i > 0 && matches!(bytes[i - 1], b' ' | b'\t' | b'\n') {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b'(' {
        return None;
    }
    i -= 1;
    let mut start = i;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    let method = text.get(start..i)?;
    (OBS_NAME_METHODS.contains(&method) && start > 0 && bytes[start - 1] == b'.').then_some(method)
}

/// R5: outside `crates/obs/`, a string literal in obs-call position is a
/// forked name — call sites must import a const from `obs::names`. Inside
/// the registry file itself, every non-test literal must match the
/// grammar and appear once.
pub fn check_obs_naming(
    rel: &str,
    text: &str,
    literals: &[StrLit],
    test_ranges: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    if rel.starts_with("crates/obs/") {
        if rel == OBS_NAMES_REGISTRY {
            let mut seen: Vec<&str> = Vec::new();
            for lit in literals {
                if in_test_ranges(lit.offset, test_ranges) {
                    continue;
                }
                if !obs_name_grammar(&lit.value) {
                    findings.push(Finding::new(
                        rel,
                        lit.line,
                        "obs_naming",
                        format!(
                            "name {:?} violates the grammar [a-z][a-z0-9_]*(.seg)*",
                            lit.value
                        ),
                    ));
                }
                if seen.contains(&lit.value.as_str()) {
                    findings.push(Finding::new(
                        rel,
                        lit.line,
                        "obs_naming",
                        format!("duplicate obs name {:?} in the registry", lit.value),
                    ));
                } else {
                    seen.push(&lit.value);
                }
            }
        }
        return;
    }
    for lit in literals {
        if in_test_ranges(lit.offset, test_ranges) {
            continue;
        }
        if let Some(method) = obs_method_before(text, lit.offset) {
            findings.push(Finding::new(
                rel,
                lit.line,
                "obs_naming",
                format!(
                    "string literal name in obs `.{method}(...)`; use a const from spcube_obs::names"
                ),
            ));
        }
    }
}

/// R3: wall-clock reads and HashMap-on-output-path.
pub fn check_determinism(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    if !is_clock_exempt(rel) {
        for clock in ["SystemTime", "Instant"] {
            for pos in word_offsets(text, clock) {
                // Only calls to ::now matter; mentioning the type (e.g. in
                // a stored field or an argument) is fine.
                let after = text.get(pos + clock.len()..).unwrap_or("");
                if after.trim_start().starts_with("::now") {
                    findings.push(Finding::new(
                        rel,
                        line_of(text, pos),
                        "determinism",
                        format!("{clock}::now outside obs::clock; route timing through Stopwatch"),
                    ));
                }
            }
        }
    }

    if is_ordered_output_path(rel) {
        for pos in word_offsets(text, "HashMap") {
            // `use std::collections::HashMap;` lines are fine — only
            // instantiation sites matter, and an unused import is caught
            // by rustc anyway.
            let line_start = text
                .get(..pos)
                .and_then(|t| t.rfind('\n'))
                .map(|p| p + 1)
                .unwrap_or(0);
            let line_text = text.get(line_start..pos).unwrap_or("").trim_start();
            if line_text.starts_with("use ") {
                continue;
            }
            findings.push(Finding::new(
                rel,
                line_of(text, pos),
                "determinism",
                "HashMap on an output path; use BTreeMap (or sort before emitting and suppress)"
                    .to_string(),
            ));
        }
    }
}

/// R4: error hygiene in codec modules.
pub fn check_error_hygiene(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    if !is_codec_path(rel) {
        return;
    }
    for pos in word_offsets(text, "Box") {
        let after = text.get(pos + 3..).unwrap_or("");
        if after.trim_start().starts_with("<dyn") {
            findings.push(Finding::new(
                rel,
                line_of(text, pos),
                "error_hygiene",
                "Box<dyn Error> in a codec; use the typed spcube_common::Error".to_string(),
            ));
        }
    }
    for pos in word_offsets(text, "as") {
        let after = text.get(pos + 2..).unwrap_or("");
        let word: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if matches!(word.as_str(), "u8" | "u16" | "u32") {
            findings.push(Finding::new(
                rel,
                line_of(text, pos),
                "error_hygiene",
                format!("narrowing `as {word}` cast in a codec; use try_from and surface Corrupt"),
            ));
        }
    }
}

/// Apply the suppression contract: drop findings covered by a valid
/// same-line / previous-line `spcheck:allow`, and emit `bad_suppression`
/// findings for reason-less, unknown-rule, or unused suppressions. An
/// unused allow names its rule and the nearest finding of that rule it
/// would have matched, so the fix (move it or delete it) is obvious.
pub fn apply_suppressions(
    rel: &str,
    suppressions: &[Suppression],
    findings: Vec<Finding>,
) -> Vec<Finding> {
    let mut used = vec![false; suppressions.len()];
    let mut out = Vec::new();
    // Pre-suppression (rule, line) pairs, for the nearest-finding hints.
    let all_sites: Vec<(String, usize)> =
        findings.iter().map(|f| (f.rule.clone(), f.line)).collect();

    for f in findings {
        // R2 is a cross-file invariant; a comment at one site cannot make
        // a second definition site correct.
        let suppressible = f.rule != "single_source_format";
        let matched = suppressible
            && suppressions.iter().enumerate().any(|(i, s)| {
                let covers = s.line == f.line || s.line + 1 == f.line;
                let valid = s.rule == f.rule && s.has_reason;
                if covers && valid {
                    used[i] = true;
                    true
                } else {
                    false
                }
            });
        if !matched {
            out.push(f);
        }
    }

    for (i, s) in suppressions.iter().enumerate() {
        if !SUPPRESSIBLE_RULES.contains(&s.rule.as_str()) {
            out.push(Finding::new(
                rel,
                s.line,
                "bad_suppression",
                format!(
                    "unknown rule {:?} in spcheck:allow (expected one of {})",
                    s.rule,
                    SUPPRESSIBLE_RULES.join(", ")
                ),
            ));
        } else if !s.has_reason {
            out.push(Finding::new(
                rel,
                s.line,
                "bad_suppression",
                format!(
                    "spcheck:allow({}) without a reason; write `spcheck:allow({}): why`",
                    s.rule, s.rule
                ),
            ));
        } else if !used[i] {
            let nearest = all_sites
                .iter()
                .filter(|(r, _)| *r == s.rule)
                .min_by_key(|(_, l)| l.abs_diff(s.line));
            let hint = match nearest {
                Some((_, l)) => format!(
                    "nearest {} finding is at line {l}; move the allow to that line or the line above",
                    s.rule
                ),
                None => format!("no {} findings in this file; delete the allow", s.rule),
            };
            out.push(Finding::new(
                rel,
                s.line,
                "bad_suppression",
                format!("unused spcheck:allow({}); {hint}", s.rule),
            ));
        }
    }

    out
}

/// Run every per-file rule on one scrubbed file, returning **raw**
/// (pre-suppression) findings. Suppressions are applied once per file by
/// the driver after the workspace-wide passes (R2, R6–R9) have run, so
/// an allow can silence a concurrency finding and unused-allow detection
/// sees the complete picture. Magic sites are accumulated into
/// `magic_sites` for the workspace-wide R2 pass.
pub fn check_file(
    rel: &str,
    scrubbed: &Scrubbed,
    test_ranges: &[(usize, usize)],
    magic_sites: &mut Vec<MagicSite>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_no_panic_path(rel) {
        check_no_panic(rel, &scrubbed.text, &mut findings);
    }
    check_determinism(rel, &scrubbed.text, &mut findings);
    check_error_hygiene(rel, &scrubbed.text, &mut findings);
    check_obs_naming(
        rel,
        &scrubbed.text,
        &scrubbed.literals,
        test_ranges,
        &mut findings,
    );
    collect_magic_sites(rel, &scrubbed.literals, test_ranges, magic_sites);
    collect_seal_sites(rel, &scrubbed.text, magic_sites);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    const SERVING: &str = "crates/mapreduce/src/engine.rs";

    fn run_r1(src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_no_panic(SERVING, &scrub(src).text, &mut f);
        f
    }

    #[test]
    fn unwrap_and_expect_calls_are_flagged() {
        let f = run_r1("let x = y.unwrap();\nlet z = w.expect(\"msg\");\n");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        assert!(run_r1("let x = y.unwrap_or_else(|| 0);\nlet z = w.unwrap_or(1);\n").is_empty());
    }

    #[test]
    fn undotted_expect_is_not_flagged() {
        // A local fn named expect, or a path call, is not Option::expect.
        assert!(run_r1("let x = expect(1);\n").is_empty());
    }

    #[test]
    fn panicking_macros_are_flagged() {
        let f = run_r1("panic!(\"boom\");\nunreachable!();\ntodo!();\nunimplemented!();\n");
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn indexing_is_flagged_but_types_and_macros_are_not() {
        let f = run_r1("let a = xs[i];\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(run_r1("let v = vec![1, 2];\n").is_empty());
        assert!(run_r1("#[derive(Debug)]\nstruct S;\n").is_empty());
        assert!(run_r1("fn f(b: &[u8]) {}\n").is_empty());
        assert!(run_r1("let t: [u8; 4] = *b\"abcd\";\n").is_empty());
        assert!(run_r1("fn f(tuples: &mut [&u32]) {}\n").is_empty());
        assert!(run_r1("fn g() -> &'static mut [u8] { todo_elsewhere() }\n").is_empty());
        assert!(run_r1("struct P<'a> { bytes: &'a [u8], pos: usize }\n").is_empty());
        // `let [..] = ..` destructures an array; nothing can panic.
        assert!(run_r1("let [a, b, c] = words;\n").is_empty());
    }

    #[test]
    fn chained_and_try_indexing_is_flagged() {
        assert_eq!(run_r1("let a = f()[0];\n").len(), 1);
        assert_eq!(run_r1("let a = m[k][j];\n").len(), 2);
    }

    #[test]
    fn clock_reads_flagged_outside_obs_clock() {
        let mut f = Vec::new();
        check_determinism(SERVING, "let t = Instant::now();", &mut f);
        assert_eq!(f.len(), 1);
        let mut f = Vec::new();
        check_determinism("crates/obs/src/clock.rs", "let t = Instant::now();", &mut f);
        assert!(f.is_empty(), "obs clock.rs is the blessed clock site");
        let mut f = Vec::new();
        check_determinism(
            "crates/mapreduce/src/metrics.rs",
            "let t = Instant::now();",
            &mut f,
        );
        assert_eq!(f.len(), 1, "the old metrics.rs exemption is revoked");
    }

    #[test]
    fn clock_type_mention_without_now_is_fine() {
        let mut f = Vec::new();
        check_determinism(SERVING, "struct S(Instant);", &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn hashmap_flagged_on_output_paths_only() {
        let mut f = Vec::new();
        check_determinism(SERVING, "let m: HashMap<K, V> = HashMap::new();", &mut f);
        assert_eq!(f.len(), 2);
        let mut f = Vec::new();
        check_determinism("crates/agg/src/lib.rs", "let m = HashMap::new();", &mut f);
        assert!(f.is_empty(), "non-output path may hash");
        let mut f = Vec::new();
        check_determinism(SERVING, "use std::collections::HashMap;", &mut f);
        assert!(f.is_empty(), "import line is not an instantiation");
    }

    fn run_r5(rel: &str, src: &str) -> Vec<Finding> {
        let mut s = scrub(src);
        let ranges = crate::lexer::blank_test_regions(&mut s.text);
        let mut f = Vec::new();
        check_obs_naming(rel, &s.text, &s.literals, &ranges, &mut f);
        f
    }

    #[test]
    fn literal_obs_name_at_call_site_is_flagged() {
        let src = "obs.inc(\"my.counter\", &[]);\nlet h = obs.histogram(\"serve.lat\", &[]);\n";
        let f = run_r5(SERVING, src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "obs_naming"));
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn const_names_and_label_literals_pass() {
        // Consts in name position and string literals in *label* position
        // (`&[("phase", ..)]`) are both fine.
        let src = "obs.event(names::ENGINE_TASK_RETRY, parent, &[(\"phase\", p)]);\n";
        assert!(run_r5(SERVING, src).is_empty());
        // Unrelated methods taking literals never match.
        assert!(run_r5(SERVING, "let x = map.get(\"key\"); y.expect(\"msg\");\n").is_empty());
        // Free functions (no dot) are not obs calls.
        assert!(run_r5(SERVING, "let c = counter(\"free.fn\");\n").is_empty());
    }

    #[test]
    fn obs_crate_call_sites_are_exempt_but_registry_is_audited() {
        // The crate's own internals pass names through parameters.
        assert!(run_r5("crates/obs/src/registry.rs", "self.counter(\"x\", &[]);\n").is_empty());
        // The registry: grammar violations and duplicates are findings.
        let reg = "pub const A: &str = \"engine.round\";\npub const B: &str = \"Bad.Name\";\npub const C: &str = \"engine.round\";\n";
        let f = run_r5("crates/obs/src/names.rs", reg);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("grammar"));
        assert!(f[1].message.contains("duplicate"));
    }

    #[test]
    fn obs_naming_skips_test_code() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(obs: &O) { obs.inc(\"adhoc.test.name\", &[]); }\n}\n";
        assert!(run_r5(SERVING, src).is_empty());
    }

    #[test]
    fn error_hygiene_in_codecs() {
        let rel = "crates/cubestore/src/segment.rs";
        let mut f = Vec::new();
        check_error_hygiene(rel, "fn f() -> Box<dyn Error> { x as u32 }", &mut f);
        assert_eq!(f.len(), 2);
        let mut f = Vec::new();
        check_error_hygiene(rel, "let wide = x as u64; let fl = y as f64;", &mut f);
        assert!(f.is_empty(), "widening casts are fine");
        let mut f = Vec::new();
        check_error_hygiene("crates/bench/src/report.rs", "x as u8;", &mut f);
        assert!(f.is_empty(), "non-codec file exempt");
    }

    #[test]
    fn valid_suppression_silences_finding() {
        let src = "// spcheck:allow(no_panic): protocol invariant\nunreachable!();\n";
        let s = scrub(src);
        let mut f = Vec::new();
        check_no_panic(SERVING, &s.text, &mut f);
        assert_eq!(f.len(), 1);
        let out = apply_suppressions(SERVING, &s.suppressions, f);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn same_line_suppression_works() {
        let src = "let x = xs[i]; // spcheck:allow(no_panic): i < len checked above\n";
        let s = scrub(src);
        let mut f = Vec::new();
        check_no_panic(SERVING, &s.text, &mut f);
        let out = apply_suppressions(SERVING, &s.suppressions, f);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reasonless_suppression_is_its_own_finding() {
        let src = "// spcheck:allow(no_panic)\nunreachable!();\n";
        let s = scrub(src);
        let mut f = Vec::new();
        check_no_panic(SERVING, &s.text, &mut f);
        let out = apply_suppressions(SERVING, &s.suppressions, f);
        // The unreachable! survives AND the suppression is flagged.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.rule == "bad_suppression"));
        assert!(out.iter().any(|f| f.rule == "no_panic"));
    }

    #[test]
    fn unknown_rule_suppression_is_flagged() {
        let s = scrub("// spcheck:allow(no_such_rule): because\nlet x = 1;\n");
        let out = apply_suppressions(SERVING, &s.suppressions, Vec::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "bad_suppression");
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let s = scrub("// spcheck:allow(no_panic): nothing here panics\nlet x = 1;\n");
        let out = apply_suppressions(SERVING, &s.suppressions, Vec::new());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unused"));
    }

    #[test]
    fn wrong_rule_does_not_cover_finding() {
        let src = "// spcheck:allow(determinism): wrong rule\nunreachable!();\n";
        let s = scrub(src);
        let mut f = Vec::new();
        check_no_panic(SERVING, &s.text, &mut f);
        let out = apply_suppressions(SERVING, &s.suppressions, f);
        // Finding survives, suppression reported unused.
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn r2_not_suppressible() {
        let f = vec![Finding::new(
            SERVING,
            3,
            "single_source_format",
            "dup".into(),
        )];
        let s = scrub("// dummy\n// spcheck:allow(single_source_format): nice try\nMAGIC\n");
        let out = apply_suppressions(SERVING, &s.suppressions, f);
        assert!(out.iter().any(|f| f.rule == "single_source_format"));
    }

    #[test]
    fn single_source_counts_sites() {
        let one = vec![MagicSite {
            rel: "a.rs".into(),
            line: 1,
            what: "SPSK1".into(),
        }];
        let mut f = Vec::new();
        check_single_source(&one, &mut f);
        // SPSK1 ok; everything else missing.
        assert_eq!(f.len(), MAGICS.len() + SEAL_HEX.len() - 1, "{f:?}");
        assert!(f
            .iter()
            .all(|f| f.message.contains("no literal definition")));

        let two = vec![
            MagicSite {
                rel: "a.rs".into(),
                line: 1,
                what: "SPSK1".into(),
            },
            MagicSite {
                rel: "b.rs".into(),
                line: 9,
                what: "SPSK1".into(),
            },
        ];
        let mut f = Vec::new();
        check_single_source(&two, &mut f);
        assert_eq!(
            f.iter().filter(|f| f.message.contains("2 sites")).count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn seal_sites_found_with_underscores_and_case() {
        let mut sites = Vec::new();
        collect_seal_sites(
            "crates/common/src/codec.rs",
            "const A: u64 = 0x9e37_79b1_85eb_ca87;\nconst B: u64 = 0XC2B2AE3D27D4EB4F;\n",
            &mut sites,
        );
        assert_eq!(sites.len(), 2, "{sites:?}");
    }

    #[test]
    fn glob_star_is_segment_local_and_doublestar_spans() {
        assert!(glob_match(
            "crates/cubestore/src/*.rs",
            "crates/cubestore/src/store.rs"
        ));
        assert!(!glob_match(
            "crates/cubestore/src/*.rs",
            "crates/cubestore/src/sub/more.rs"
        ));
        assert!(glob_match("crates/obs/src/**", "crates/obs/src/clock.rs"));
        assert!(glob_match("crates/obs/src/**", "crates/obs/src/a/b/c.rs"));
        assert!(!glob_match("crates/obs/src/**", "crates/obs/srcx/clock.rs"));
        assert!(glob_match("crates/**", "crates/anything/at/all.rs"));
        assert!(!glob_match("crates/**", "other/top.rs"));
        assert!(glob_match(
            "**/inspect.rs",
            "crates/bench/src/bin/inspect.rs"
        ));
        assert!(glob_match("crates/*/src/lib.rs", "crates/obs/src/lib.rs"));
    }

    #[test]
    fn policy_scopes_cover_the_known_paths() {
        // The glob table must reproduce the old suffix lists exactly.
        for p in [
            "crates/mapreduce/src/engine.rs",
            "crates/mapreduce/src/dfs.rs",
            "crates/core/src/spcube/mod.rs",
            "crates/obs/src/trace.rs",
            "crates/cubestore/src/store.rs",
            "crates/cubestore/src/faults.rs",
            "crates/cubestore/src/scrub.rs",
            "crates/cubestore/src/client.rs",
            "crates/cubealg/src/read.rs",
        ] {
            assert!(is_no_panic_path(p), "{p} must stay a no_panic path");
        }
        for p in [
            "crates/cubestore/src/segment.rs",
            "crates/cubestore/src/lib.rs",
            "crates/bench/src/runner.rs",
            "crates/cubealg/src/lib.rs",
        ] {
            assert!(!is_no_panic_path(p), "{p} must stay exempt from no_panic");
        }
        assert!(is_ordered_output_path("crates/bench/src/bin/inspect.rs"));
        assert!(is_ordered_output_path("crates/cubestore/src/scrub.rs"));
        assert!(is_ordered_output_path("crates/cubestore/src/faults.rs"));
        assert!(!is_ordered_output_path("crates/cubestore/src/blob.rs"));
        assert!(is_codec_path("crates/common/src/codec.rs"));
        assert!(is_codec_path("crates/cubestore/src/scrub.rs"));
        assert!(is_clock_exempt("crates/obs/src/clock.rs"));
        assert!(!is_clock_exempt("crates/obs/src/lib.rs"));
        assert!(in_scope(
            Scope::Concurrency,
            "crates/cubestore/src/server.rs"
        ));
        assert!(in_scope(
            Scope::ChannelBlessed,
            "crates/cubestore/src/server.rs"
        ));
        assert!(!in_scope(
            Scope::ChannelBlessed,
            "crates/cubestore/src/client.rs"
        ));
        assert!(in_scope(Scope::ParseExempt, "crates/common/src/sync.rs"));
    }

    #[test]
    fn flight_recorder_modules_are_inside_the_strict_scopes() {
        // The seqlock ring, the scoped trace context, and the tail sampler
        // are on the hot query path: they must stay under both the no-panic
        // and the ordered-output policies.
        for rel in [
            "crates/obs/src/ring.rs",
            "crates/obs/src/ctx.rs",
            "crates/obs/src/sampler.rs",
        ] {
            assert!(is_no_panic_path(rel), "{rel} must be NoPanic scope");
            assert!(
                is_ordered_output_path(rel),
                "{rel} must be OrderedOutput scope"
            );
        }
    }

    #[test]
    fn negative_pattern_vetoes_regardless_of_order() {
        // segment.rs matches the positive `*.rs` pattern but the `!`
        // entry wins even though it comes after.
        assert!(!is_no_panic_path("crates/cubestore/src/segment.rs"));
    }

    #[test]
    fn unused_allow_names_rule_and_nearest_finding() {
        let s =
            scrub("// spcheck:allow(no_panic): wrong spot\nlet x = 1;\nlet y = 2;\nlet z = 3;\n");
        let findings = vec![Finding::new(SERVING, 4, "no_panic", "boom".into())];
        let out = apply_suppressions(SERVING, &s.suppressions, findings);
        let bad = out
            .iter()
            .find(|f| f.rule == "bad_suppression")
            .expect("unused allow flagged");
        assert!(
            bad.message.contains("unused spcheck:allow(no_panic)"),
            "{}",
            bad.message
        );
        assert!(bad.message.contains("line 4"), "{}", bad.message);

        let out = apply_suppressions(SERVING, &s.suppressions, Vec::new());
        let bad = out.first().expect("still flagged");
        assert!(
            bad.message.contains("no no_panic findings in this file"),
            "{}",
            bad.message
        );
    }

    #[test]
    fn new_concurrency_rules_are_suppressible() {
        for rule in [
            "lock_order",
            "hold_across_io",
            "channel_hygiene",
            "guard_scope",
        ] {
            assert!(SUPPRESSIBLE_RULES.contains(&rule), "{rule}");
            let src = format!("// spcheck:allow({rule}): fixture reason\nlet x = 1;\n");
            let s = scrub(&src);
            let findings = vec![Finding::new(SERVING, 2, rule, "seeded".into())];
            let out = apply_suppressions(SERVING, &s.suppressions, findings);
            assert!(out.is_empty(), "{rule}: {out:?}");
        }
    }

    #[test]
    fn magic_sites_skip_test_ranges() {
        let src = "const M: &[u8; 5] = b\"CSEG1\";\n#[cfg(test)]\nmod tests { const T: &[u8; 5] = b\"CSEG1\"; }\n";
        let mut s = scrub(src);
        let ranges = crate::lexer::blank_test_regions(&mut s.text);
        let mut sites = Vec::new();
        collect_magic_sites("x.rs", &s.literals, &ranges, &mut sites);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].line, 1);
    }
}
