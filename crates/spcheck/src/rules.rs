//! The R2 single-source pass, the policy table scoping the cross-file
//! concurrency rules R6–R9 in [`crate::conc`], and the suppression
//! contract every spcheck finding goes through.
//!
//! * **single_source_format** (R2) — each binary-format magic
//!   (`SPSK1`, `CSEG1`, `CMAN1`, `DSEG1`) and the five XXH64 primes of
//!   the blob seal must appear literally at exactly one non-test site in
//!   the workspace. The compiler cannot see a second literal of a magic,
//!   so this stays a lexical check.
//!
//! The per-file promises (no panic source on the serving path, no wall
//! clock or hash order in output, no narrowing cast or untyped error in a
//! codec, no literal metric name) are compiler checks: clippy lints armed
//! per crate or module, `clippy.toml`'s disallowed lists, and the
//! `spcube_obs::Name` type. DESIGN.md §8 maps each promise to its check.
//!
//! A finding is silenced only by `// spcheck:allow(rule): reason` on the
//! same line or the line above. A suppression with no reason, an unknown
//! rule name, or one that sits unused is itself a finding
//! (**bad_suppression**) — R2 findings are never suppressible because a
//! second magic site is wrong no matter the excuse.

use crate::lexer::{StrLit, Suppression};
use crate::report::Finding;

/// Rule names accepted inside `spcheck:allow(...)`.
pub const SUPPRESSIBLE_RULES: &[&str] = &[
    "single_source_format",
    "lock_order",
    "hold_across_io",
    "channel_hygiene",
    "guard_scope",
];

/// Which files a policy row scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// R6–R9 concurrency discipline (effectively the whole workspace).
    Concurrency,
    /// Modules blessed to create unbounded `mpsc::channel` (R8).
    ChannelBlessed,
    /// Files the concurrency parser skips (the sync primitives
    /// themselves would self-register phantom lock classes).
    ParseExempt,
}

/// The single policy table: each row scopes the workspace-relative paths
/// that start with its prefix (a whole file path names just that file).
const POLICY: &[(Scope, &str)] = &[
    (Scope::Concurrency, "crates/"),
    // server.rs owns the one blessed unbounded channel: the per-request
    // reply channel, capacity-bounded by the admission queue itself.
    (Scope::ChannelBlessed, "crates/cubestore/src/server.rs"),
    (Scope::ParseExempt, "crates/common/src/sync.rs"),
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

/// Is `rel` inside `scope` per the policy table?
pub fn in_scope(scope: Scope, rel: &str) -> bool {
    POLICY
        .iter()
        .any(|(s, prefix)| *s == scope && rel.starts_with(prefix))
}

fn line_of(text: &str, offset: usize) -> usize {
    1 + text
        .as_bytes()
        .iter()
        .take(offset)
        .filter(|&&b| b == b'\n')
        .count()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{blank_test_regions, scrub};

    /// A module outside the channel-blessed scope.
    const UNBLESSED: &str = "crates/mapreduce/src/engine.rs";

    /// Scrub `src` as the one file of a workspace at [`UNBLESSED`], run
    /// the concurrency pass over it, and return its raw findings and its
    /// suppressions. An unbounded `mpsc::channel()` there is one R8
    /// `channel_hygiene` finding, the simplest the contract can act on.
    fn one_file(src: &str) -> (Vec<Finding>, Vec<Suppression>) {
        let mut s = scrub(src);
        blank_test_regions(&mut s.text);
        let parsed = crate::parse::parse_workspace(&[(UNBLESSED.to_string(), s.text)]);
        let mut findings = Vec::new();
        crate::conc::check(&crate::model::build(parsed), &mut findings);
        (findings, s.suppressions)
    }

    fn suppressed(src: &str) -> Vec<Finding> {
        let (findings, supp) = one_file(src);
        apply_suppressions(UNBLESSED, &supp, findings)
    }

    #[test]
    fn valid_suppression_silences_finding() {
        let src = "fn go() {\n    // spcheck:allow(channel_hygiene): bounded by the caller\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n";
        let (raw, _) = one_file(src);
        assert_eq!(raw.len(), 1, "{raw:?}");
        assert_eq!(raw[0].rule, "channel_hygiene");
        let out = suppressed(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn same_line_suppression_works() {
        let src = "fn go() {\n    let (tx, rx) = mpsc::channel(); // spcheck:allow(channel_hygiene): bounded by the caller\n    let _ = (tx, rx);\n}\n";
        let out = suppressed(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reasonless_suppression_is_its_own_finding() {
        let src = "fn go() {\n    // spcheck:allow(channel_hygiene)\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n";
        let out = suppressed(src);
        // The channel survives AND the suppression is flagged.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.rule == "bad_suppression"));
        assert!(out.iter().any(|f| f.rule == "channel_hygiene"));
    }

    #[test]
    fn unknown_rule_suppression_is_flagged() {
        let out = suppressed("// spcheck:allow(no_such_rule): because\nlet x = 1;\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "bad_suppression");
    }

    #[test]
    fn retired_rules_are_unknown() {
        // These rules became clippy lints and a type; their old allows
        // must be rewritten as `#[expect(lint, reason = "...")]`.
        for rule in ["no_panic", "determinism", "error_hygiene", "obs_naming"] {
            let out = suppressed(&format!(
                "// spcheck:allow({rule}): old reason\nlet x = 1;\n"
            ));
            assert_eq!(out.len(), 1, "{rule}: {out:?}");
            assert!(
                out[0].message.contains("unknown rule"),
                "{}",
                out[0].message
            );
        }
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let out = suppressed("// spcheck:allow(channel_hygiene): nothing here\nlet x = 1;\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unused"));
    }

    #[test]
    fn wrong_rule_does_not_cover_finding() {
        let src = "fn go() {\n    // spcheck:allow(lock_order): wrong rule\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n";
        let out = suppressed(src);
        // Finding survives, suppression reported unused.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.rule == "channel_hygiene"));
    }

    #[test]
    fn unused_allow_names_rule_and_nearest_finding() {
        let src = "fn go() {\n    // spcheck:allow(channel_hygiene): wrong spot\n    let a = 1;\n    let (tx, rx) = mpsc::channel();\n    let _ = (a, tx, rx);\n}\n";
        let out = suppressed(src);
        let bad = out
            .iter()
            .find(|f| f.rule == "bad_suppression")
            .expect("unused allow flagged");
        assert!(
            bad.message
                .contains("unused spcheck:allow(channel_hygiene)"),
            "{}",
            bad.message
        );
        assert!(bad.message.contains("line 4"), "{}", bad.message);

        let (_, supp) = one_file(src);
        let out = apply_suppressions(UNBLESSED, &supp, Vec::new());
        let bad = out.first().expect("still flagged");
        assert!(
            bad.message
                .contains("no channel_hygiene findings in this file"),
            "{}",
            bad.message
        );
    }

    #[test]
    fn r2_not_suppressible() {
        let f = vec![Finding::new(
            UNBLESSED,
            3,
            "single_source_format",
            "dup".into(),
        )];
        let s = scrub("// dummy\n// spcheck:allow(single_source_format): nice try\nMAGIC\n");
        let out = apply_suppressions(UNBLESSED, &s.suppressions, f);
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
    fn policy_scopes_cover_the_known_paths() {
        assert!(in_scope(
            Scope::Concurrency,
            "crates/cubestore/src/server.rs"
        ));
        assert!(in_scope(Scope::Concurrency, "crates/obs/src/a/b/c.rs"));
        assert!(!in_scope(Scope::Concurrency, "examples/quickstart.rs"));
        assert!(in_scope(
            Scope::ChannelBlessed,
            "crates/cubestore/src/server.rs"
        ));
        assert!(!in_scope(
            Scope::ChannelBlessed,
            "crates/cubestore/src/client.rs"
        ));
        assert!(in_scope(Scope::ParseExempt, "crates/common/src/sync.rs"));
        assert!(!in_scope(Scope::ParseExempt, "crates/common/src/codec.rs"));
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
            let findings = vec![Finding::new(UNBLESSED, 2, rule, "seeded".into())];
            let out = apply_suppressions(UNBLESSED, &s.suppressions, findings);
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
