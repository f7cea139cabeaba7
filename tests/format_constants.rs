//! Each on-disk format constant is defined at exactly one non-test site
//! (DESIGN.md §8, promise 2): the four blob magics and the five XXH64
//! primes of the blob seal. A second literal is how two codecs drift
//! apart silently, and no compiler lint sees it.
//!
//! The walk covers every `.rs` file under `crates/*/src`. It skips `//`
//! comments (the `//!` layout diagrams spell each magic again) and each
//! file's trailing `#[cfg(test)]` module, which clippy's
//! `items_after_test_module` keeps last.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The blob magics, quoted as they appear in a byte-string literal.
const MAGICS: [&str; 4] = ["\"SPSK1\"", "\"CSEG1\"", "\"CMAN1\"", "\"DSEG1\""];

/// The XXH64 primes, in the normal form hex literals are compared in:
/// lower case, no `0x`, no `_`.
const PRIMES: [&str; 5] = [
    "9e3779b185ebca87",
    "c2b2ae3d27d4eb4f",
    "165667b19e3779f9",
    "85ebca77c2b2ae63",
    "27d4eb2f165667c5",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `line` up to its `//` comment, if any. A `//` inside a string literal
/// is code; a `'"'` character literal does not open a string.
fn code_of(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'\'' if !in_str && bytes.get(i + 1) == Some(&b'"') => i += 2,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// The lines of `src` before its trailing test module: everything from
/// the first top-level `#[cfg(test)]` whose item is a `mod … {` on.
fn non_test_lines(src: &str) -> Vec<&str> {
    let lines: Vec<&str> = src.lines().collect();
    let is_test_mod = |at: usize| {
        lines[at + 1..]
            .iter()
            .find(|l| {
                !(l.starts_with("#[") || l.starts_with(')') || l.starts_with(char::is_whitespace))
            })
            .is_some_and(|item| item.contains("mod ") && item.trim_end().ends_with('{'))
    };
    let end = (0..lines.len())
        .find(|&at| lines[at].trim_end() == "#[cfg(test)]" && is_test_mod(at))
        .unwrap_or(lines.len());
    lines[..end].to_vec()
}

/// Every hex literal in `code`, in normal form.
fn hex_literals(code: &str) -> Vec<String> {
    code.to_ascii_lowercase()
        .split("0x")
        .skip(1)
        .map(|tail| {
            tail.chars()
                .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
                .filter(|&c| c != '_')
                .collect()
        })
        .collect()
}

/// Every format-constant site under `crates/*/src` outside comments and
/// trailing test modules: constant → `file:line` sites.
fn sites(root: &Path) -> BTreeMap<&'static str, Vec<String>> {
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    for krate in crates {
        let src = krate.expect("crate directory").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut found: BTreeMap<&'static str, Vec<String>> = MAGICS
        .iter()
        .chain(&PRIMES)
        .map(|&c| (c, Vec::new()))
        .collect();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("readable source");
        let rel = file.strip_prefix(root).unwrap_or(file).display();
        for (n, line) in non_test_lines(&src).into_iter().enumerate() {
            let code = code_of(line);
            let hexes = hex_literals(code);
            for (constant, at) in found.iter_mut() {
                let hits = if constant.starts_with('"') {
                    code.matches(*constant).count()
                } else {
                    hexes.iter().filter(|h| h == constant).count()
                };
                at.extend((0..hits).map(|_| format!("{rel}:{}", n + 1)));
            }
        }
    }
    found
}

#[test]
fn each_format_constant_has_exactly_one_non_test_site() {
    let found = sites(Path::new(env!("CARGO_MANIFEST_DIR")));
    let wrong: Vec<String> = found
        .iter()
        .filter(|(_, at)| at.len() != 1)
        .map(|(constant, at)| format!("{constant}: {} site(s) {at:?}", at.len()))
        .collect();
    assert!(
        wrong.is_empty(),
        "each format constant must be defined once:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn comments_and_trailing_test_modules_are_skipped() {
    assert_eq!(code_of(r#"x = b"CSEG1"; // "CMAN1""#), r#"x = b"CSEG1"; "#);
    assert_eq!(code_of(r#"//! "CSEG1" | u32 d"#), "");
    assert_eq!(
        code_of(r#"s = "a//b"; c = '"'; // t"#),
        r#"s = "a//b"; c = '"'; "#
    );
    let src = "const A: u64 = 0x9E37_79B1_85EB_CA87;\n#[cfg(test)]\n#[expect(\n    clippy::x,\n    reason = \"r\"\n)]\nmod tests {\n    const B: &[u8] = b\"CSEG1\";\n}\n";
    let lines = non_test_lines(src);
    assert_eq!(lines, ["const A: u64 = 0x9E37_79B1_85EB_CA87;"]);
    assert_eq!(hex_literals(lines[0]), ["9e3779b185ebca87"]);
    // A `#[cfg(test)]` helper that is not a module stays in.
    assert_eq!(non_test_lines("#[cfg(test)]\nfn f() {}\n").len(), 2);
}
