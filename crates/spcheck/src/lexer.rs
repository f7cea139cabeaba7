//! A small Rust lexer for static checks.
//!
//! `scrub` turns a source file into a same-length text where comment
//! bodies and string/char literal contents are replaced by spaces, so the
//! seal-prime scan in [`crate::rules`] and the concurrency parser in
//! [`crate::parse`] can match tokens without being fooled by a hex
//! constant or a `.lock()` inside a comment or string.
//! While scrubbing it collects:
//!
//! * every string/byte-string literal (offset, line, decoded-enough value)
//!   — rule R2 counts magic-constant literal sites;
//! * every `spcheck:allow(...)` suppression comment — the only sanctioned
//!   way to silence a finding, and only with a reason.
//!
//! `blank_test_regions` then erases `#[cfg(test)]` items (attribute through
//! the matching closing brace) so test code is never audited: tests may
//! spell a format magic or take locks freely.

/// A string or byte-string literal found outside comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// Byte offset of the opening quote in the file.
    pub offset: usize,
    /// 1-based line of the opening quote.
    pub line: usize,
    /// The raw literal body (escapes not decoded; raw-string hashes
    /// stripped). Good enough to compare magic constants, which contain
    /// no escapes.
    pub value: String,
}

/// A parsed `// spcheck:allow(rule): reason` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// The rule name between the parentheses (empty when malformed).
    pub rule: String,
    /// Whether a non-empty reason follows `): `.
    pub has_reason: bool,
}

/// The output of [`scrub`].
#[derive(Debug)]
pub struct Scrubbed {
    /// Source text with comments and literal bodies spaced out. Same byte
    /// length and line structure as the input.
    pub text: String,
    /// String literals, in file order.
    pub literals: Vec<StrLit>,
    /// Suppression comments, in file order.
    pub suppressions: Vec<Suppression>,
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    for b in out.iter_mut().take(to).skip(from) {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn line_of(bytes: &[u8], offset: usize) -> usize {
    1 + bytes.iter().take(offset).filter(|&&b| b == b'\n').count()
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parse a line comment for the suppression marker.
fn parse_suppression(comment: &str) -> Option<(String, bool)> {
    let idx = comment.find("spcheck:allow")?;
    let rest = &comment[idx + "spcheck:allow".len()..];
    let Some(rest) = rest.strip_prefix('(') else {
        return Some((String::new(), false)); // malformed: no rule list
    };
    let Some(close) = rest.find(')') else {
        return Some((String::new(), false)); // malformed: unclosed
    };
    let rule = rest.get(..close).unwrap_or("").trim().to_string();
    let tail = rest.get(close + 1..).unwrap_or("");
    let has_reason = tail
        .trim_start()
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    Some((rule, has_reason))
}

/// Scrub comments and literals out of `src`. See the module docs.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut out = bytes.to_vec();
    let mut literals = Vec::new();
    let mut suppressions = Vec::new();
    let mut i = 0;

    // Consume a quoted string starting at the `"` at position `start`,
    // honouring `\` escapes. Returns the position just past the closing
    // quote.
    let string_end = |start: usize| -> usize {
        let mut j = start + 1;
        while j < n {
            match bytes.get(j) {
                Some(b'\\') => j += 2,
                Some(b'"') => return j + 1,
                Some(_) => j += 1,
                None => break,
            }
        }
        n
    };

    while i < n {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        match b {
            b'/' if next == Some(b'/') => {
                let start = i;
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                let comment = src.get(start..i).unwrap_or("");
                if let Some((rule, has_reason)) = parse_suppression(comment) {
                    suppressions.push(Suppression {
                        line: line_of(bytes, start),
                        rule,
                        has_reason,
                    });
                }
                blank(&mut out, start, i);
            }
            b'/' if next == Some(b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i = string_end(start);
                literals.push(StrLit {
                    offset: start,
                    line: line_of(bytes, start),
                    value: src
                        .get(start + 1..i.saturating_sub(1))
                        .unwrap_or("")
                        .to_string(),
                });
                blank(&mut out, start, i);
            }
            b'r' | b'b' if i == 0 || !is_ident(bytes[i - 1]) => {
                // Possible raw/byte string: b"..", r"..", br#".."#, r#".."#.
                let mut j = i;
                if bytes[j] == b'b' {
                    j += 1;
                }
                let raw = bytes.get(j) == Some(&b'r');
                if raw {
                    j += 1;
                }
                let mut hashes = 0usize;
                while raw && bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) != Some(&b'"') {
                    i += 1; // plain identifier starting with r/b
                    continue;
                }
                let start = i;
                let body_start = j + 1;
                let end = if raw {
                    let mut closer = vec![b'"'];
                    closer.extend(std::iter::repeat_n(b'#', hashes));
                    find_bytes(bytes, &closer, body_start)
                        .map(|p| p + closer.len())
                        .unwrap_or(n)
                } else {
                    string_end(j)
                };
                literals.push(StrLit {
                    offset: start,
                    line: line_of(bytes, start),
                    value: src
                        .get(body_start..end.saturating_sub(1 + if raw { hashes } else { 0 }))
                        .unwrap_or("")
                        .to_string(),
                });
                blank(&mut out, start, end);
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime. `'\..'` and `'<one char>'` are
                // chars; anything else (`'a` in generics) is a lifetime.
                if next == Some(b'\\') {
                    let mut j = i + 2;
                    while j < n && bytes[j] != b'\'' {
                        j += if bytes[j] == b'\\' { 2 } else { 1 };
                    }
                    let end = (j + 1).min(n);
                    blank(&mut out, i, end);
                    i = end;
                } else if let Some(&c) = bytes.get(i + 1) {
                    let l = utf8_len(c);
                    if bytes.get(i + 1 + l) == Some(&b'\'') {
                        let end = i + l + 2;
                        blank(&mut out, i, end);
                        i = end;
                    } else {
                        i += 1; // lifetime
                    }
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    let text = String::from_utf8(out).unwrap_or_else(|e| {
        // Scrubbing only ever blanks whole multi-byte sequences, so this
        // cannot happen on valid UTF-8 input; recover rather than die.
        String::from_utf8_lossy(e.as_bytes()).into_owned()
    });
    Scrubbed {
        text,
        literals,
        suppressions,
    }
}

fn find_bytes(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack
        .get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Blank every `#[cfg(test)]` item (attribute through the matching `}`)
/// in already-scrubbed text. Returns the blanked byte ranges so callers
/// can also drop literals that fell inside them.
pub fn blank_test_regions(text: &mut String) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut search = 0usize;
    loop {
        let bytes = text.as_bytes();
        let Some(pos) = find_bytes(bytes, b"#[cfg(test)]", search) else {
            break;
        };
        // Find the item's opening brace, then its match.
        let Some(open) = bytes.iter().skip(pos).position(|&b| b == b'{') else {
            search = pos + 1;
            continue;
        };
        let open = pos + open;
        let mut depth = 0usize;
        let mut end = text.len();
        for (j, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        // Blank in place (safe: scrubbed text is ASCII in code positions).
        let mut buf = std::mem::take(text).into_bytes();
        blank(&mut buf, pos, end);
        *text = String::from_utf8_lossy(&buf).into_owned();
        ranges.push((pos, end));
        search = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_but_structure_kept() {
        let s = scrub("let x = 1; // .unwrap() here\nlet y = 2;\n");
        assert!(!s.text.contains("unwrap"));
        assert_eq!(s.text.lines().count(), 2);
        assert_eq!(
            s.text.len(),
            "let x = 1; // .unwrap() here\nlet y = 2;\n".len()
        );
    }

    #[test]
    fn nested_block_comments() {
        let s = scrub("a /* outer /* inner */ still comment */ b.unwrap()");
        assert!(s.text.contains("b.unwrap()"));
        assert!(!s.text.contains("inner"));
        assert!(!s.text.contains("still"));
    }

    #[test]
    fn strings_are_captured_and_blanked() {
        let s = scrub(r#"let m = b"SPSK1"; let t = "panic!(\"x\")";"#);
        assert!(!s.text.contains("panic!"));
        assert_eq!(s.literals[0].value, "SPSK1");
        assert_eq!(s.literals.len(), 2);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let s = scrub(r###"let r = r#"has "quotes" and // not a comment"#; x.unwrap()"###);
        assert!(s.text.contains("x.unwrap()"));
        assert!(!s.text.contains("quotes"));
        assert_eq!(s.literals.len(), 1);
        assert!(s.literals[0].value.contains("quotes"));
    }

    #[test]
    fn string_with_comment_markers_inside() {
        let s = scrub("let u = \"// not a comment\"; y.expect(\"msg\")");
        assert!(s.text.contains("y.expect("));
        assert!(!s.text.contains("not a comment"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) -> char { let q = '\\''; let z = 'b'; q }");
        // Lifetimes survive; char literal contents do not.
        assert!(s.text.contains("<'a>"));
        assert!(s.text.contains("&'a str"));
        assert!(!s.text.contains("'b'"));
    }

    #[test]
    fn suppression_with_reason_parses() {
        let s = scrub("// spcheck:allow(lock_order): protocol invariant\nx.unwrap();\n");
        assert_eq!(s.suppressions.len(), 1);
        let sup = &s.suppressions[0];
        assert_eq!(sup.line, 1);
        assert_eq!(sup.rule, "lock_order");
        assert!(sup.has_reason);
    }

    #[test]
    fn suppression_without_reason_is_flagged_as_reasonless() {
        for c in [
            "// spcheck:allow(lock_order)\n",
            "// spcheck:allow(lock_order):\n",
            "// spcheck:allow(lock_order):   \n",
        ] {
            let s = scrub(c);
            assert_eq!(s.suppressions.len(), 1, "{c:?}");
            assert!(!s.suppressions[0].has_reason, "{c:?}");
        }
    }

    #[test]
    fn malformed_suppression_has_empty_rule() {
        let s = scrub("// spcheck:allow lock_order: forgot parens\n");
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].rule, "");
    }

    #[test]
    fn cfg_test_region_is_blanked() {
        let src = "fn prod() { a.get(0); }\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() { b.get(1); }\n";
        let mut s = scrub(src);
        let ranges = blank_test_regions(&mut s.text);
        assert_eq!(ranges.len(), 1);
        assert!(!s.text.contains("unwrap"));
        assert!(s.text.contains("fn prod()"));
        assert!(s.text.contains("fn after()"));
    }

    #[test]
    fn cfg_test_brace_matching_handles_nesting() {
        let src = "#[cfg(test)]\nmod tests {\n  mod inner { fn t() { x.unwrap(); } }\n}\nfn prod() { y.unwrap(); }\n";
        let mut s = scrub(src);
        blank_test_regions(&mut s.text);
        // Only the production unwrap survives.
        assert_eq!(s.text.matches(".unwrap").count(), 1);
        assert!(s.text.contains("fn prod()"));
    }
}
