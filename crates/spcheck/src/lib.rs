//! spcheck: the workspace checks no compiler makes.
//!
//! rustc and clippy keep the per-file promises (no panic source on the
//! serving path, no wall clock or hash order in output, typed codecs,
//! registered metric names; see DESIGN.md §8). Two kinds of promise are
//! out of their sight: that each on-disk format constant is defined
//! exactly once (R2), and the cross-file concurrency discipline (R6–R9:
//! lock order, guards held across IO, channel hygiene, cross-crate guard
//! scope). spcheck walks every `.rs` file under the workspace, scrubs
//! comments/strings/`#[cfg(test)]` items with a small hand-rolled lexer
//! ([`lexer`]), runs R2 ([`rules`]) and the concurrency pass ([`conc`])
//! on what is left, and reports findings ([`report`]) as text or
//! `--json`.
//!
//! The binary is dependency-free on purpose: it must build in seconds and
//! run in CI before the much slower build-and-test steps.
//!
//! See `DESIGN.md` §8 (R2) and §14 (R6–R9) for the rationale behind each
//! rule and `README.md` for the suppression contract.

pub mod conc;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod report;
pub mod rules;

use report::Finding;
use rules::MagicSite;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directory components never audited: build output, VCS, vendored
/// shims, spcheck itself (its fixtures contain violations on purpose),
/// integration tests (they forge blobs from the format magics), and the
/// `cubebench` workspace (a benchmark with a workspace of its own).
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "spcheck", "tests", "cubebench"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    // Deterministic walk order => deterministic finding order.
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The full result of an spcheck run: the post-suppression findings and
/// the inferred workspace concurrency model (for `lockgraph` dumps).
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub model: model::Model,
}

/// Walk `root`, run every rule — the workspace-wide R2 single-source
/// pass and the two-pass concurrency analysis behind R6–R9 — then apply
/// each file's suppressions against the pooled findings and return them
/// sorted by (file, line, rule).
pub fn run_full(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    walk(root, &mut files)?;

    let mut findings = Vec::new();
    let mut magic_sites: Vec<MagicSite> = Vec::new();
    // Per-file suppressions, in walk order, for the final pass.
    let mut suppressions: Vec<(String, Vec<lexer::Suppression>)> = Vec::new();
    // (rel, scrubbed+blanked text) input for the concurrency parser.
    let mut parse_input: Vec<(String, String)> = Vec::new();

    for path in &files {
        let rel = relative(root, path);
        let src = std::fs::read_to_string(path)?;
        let mut scrubbed = lexer::scrub(&src);
        let test_ranges = lexer::blank_test_regions(&mut scrubbed.text);
        rules::collect_magic_sites(&rel, &scrubbed.literals, &test_ranges, &mut magic_sites);
        rules::collect_seal_sites(&rel, &scrubbed.text, &mut magic_sites);
        if !rules::in_scope(rules::Scope::ParseExempt, &rel) {
            parse_input.push((rel.clone(), scrubbed.text.clone()));
        }
        suppressions.push((rel, scrubbed.suppressions));
    }

    rules::check_single_source(&magic_sites, &mut findings);

    let model = model::build(parse::parse_workspace(&parse_input));
    conc::check(&model, &mut findings);

    // Suppressions apply last, against the complete per-file pool, so an
    // allow can cover a concurrency finding and unused-allow hints see
    // every finding in the file.
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in findings {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut findings = Vec::new();
    for (rel, supp) in &suppressions {
        let pool = by_file.remove(rel).unwrap_or_default();
        findings.extend(rules::apply_suppressions(rel, supp, pool));
    }
    // Findings on paths without a walked file (e.g. `<workspace>`) have
    // no suppression surface; pass them through.
    for (_, pool) in by_file {
        findings.extend(pool);
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    Ok(Analysis { findings, model })
}

/// Walk `root`, run every rule, and return the findings sorted by
/// (file, line, rule). An empty vector means the gate passes.
pub fn run_check(root: &Path) -> std::io::Result<Vec<Finding>> {
    run_full(root).map(|a| a.findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Build a throwaway tree under the OS temp dir. Each test uses its
    /// own subdirectory keyed by test name + pid so parallel test runs
    /// never collide.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(tag: &str) -> Fixture {
            let root = std::env::temp_dir().join(format!("spcheck-{}-{}", tag, std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).expect("create fixture root");
            Fixture { root }
        }

        fn write(&self, rel: &str, content: &str) {
            let path = self.root.join(rel);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent).expect("create fixture dirs");
            }
            fs::write(path, content).expect("write fixture file");
        }

        /// A minimal tree satisfying R2 so single-source findings don't
        /// drown out what the test is about.
        fn with_format_consts(self) -> Fixture {
            self.write(
                "crates/common/src/codec.rs",
                "const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;\n\
                 const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;\n\
                 const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;\n\
                 const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;\n\
                 const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;\n",
            );
            self.write(
                "crates/core/src/sketch/mod.rs",
                "pub const MAGIC: &[u8; 5] = b\"SPSK1\";\n",
            );
            self.write(
                "crates/cubestore/src/segment.rs",
                "pub const MAGIC: &[u8; 5] = b\"CSEG1\";\n",
            );
            self.write(
                "crates/cubestore/src/manifest.rs",
                "pub const MAGIC: &[u8; 5] = b\"CMAN1\";\n",
            );
            self.write(
                "crates/cubestore/src/delta.rs",
                "pub const MAGIC: &[u8; 5] = b\"DSEG1\";\n",
            );
            self
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn clean_tree_passes() {
        let fx = Fixture::new("clean").with_format_consts();
        fx.write(
            "crates/mapreduce/src/engine.rs",
            "pub fn run() -> Result<(), ()> {\n    let xs = [1, 2];\n    let first = xs.first().copied().ok_or(())?;\n    let _ = first;\n    Ok(())\n}\n",
        );
        let findings = run_check(&fx.root).expect("run");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn duplicate_magic_is_a_workspace_finding() {
        let fx = Fixture::new("dupmagic").with_format_consts();
        fx.write(
            "crates/cubestore/src/store.rs",
            "const ALSO: &[u8; 5] = b\"CSEG1\";\n",
        );
        let findings = run_check(&fx.root).expect("run");
        let dups: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "single_source_format")
            .collect();
        assert_eq!(dups.len(), 2, "{findings:?}");
        assert!(dups.iter().any(|f| f.file.contains("store.rs")));
        assert!(dups.iter().any(|f| f.file.contains("segment.rs")));
    }

    #[test]
    fn missing_seal_prime_is_reported() {
        let fx = Fixture::new("noseal");
        fx.write(
            "crates/core/src/sketch/mod.rs",
            "pub const MAGIC: &[u8; 5] = b\"SPSK1\";\n",
        );
        fx.write(
            "crates/cubestore/src/segment.rs",
            "pub const MAGIC: &[u8; 5] = b\"CSEG1\";\n",
        );
        fx.write(
            "crates/cubestore/src/manifest.rs",
            "pub const MAGIC: &[u8; 5] = b\"CMAN1\";\n",
        );
        let findings = run_check(&fx.root).expect("run");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "single_source_format" && f.message.contains("XXH64")),
            "{findings:?}"
        );
    }

    #[test]
    fn benchmark_workspace_is_not_audited() {
        let fx = Fixture::new("cubebench").with_format_consts();
        fx.write(
            "cubebench/src/x.rs",
            "const SEG: &[u8; 5] = b\"CSEG1\";\npub fn go() {\n    let (tx, rx) = mpsc::channel();\n    tx.send(1u32);\n    let _ = rx;\n}\n",
        );
        let findings = run_check(&fx.root).expect("run");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppressed_finding_passes_but_reasonless_fails() {
        let fx = Fixture::new("suppress").with_format_consts();
        fx.write(
            "crates/mapreduce/src/engine.rs",
            "pub fn go() {\n    // spcheck:allow(channel_hygiene): bounded by the caller\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n",
        );
        let findings = run_check(&fx.root).expect("run");
        assert!(findings.is_empty(), "{findings:?}");

        let fx = Fixture::new("reasonless").with_format_consts();
        fx.write(
            "crates/mapreduce/src/engine.rs",
            "pub fn go() {\n    // spcheck:allow(channel_hygiene)\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n",
        );
        let findings = run_check(&fx.root).expect("run");
        assert!(
            findings.iter().any(|f| f.rule == "bad_suppression"),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.rule == "channel_hygiene"),
            "reason-less allow must not silence the finding: {findings:?}"
        );
    }

    #[test]
    fn findings_are_sorted_and_stable() {
        let fx = Fixture::new("sorted").with_format_consts();
        fx.write(
            "crates/mapreduce/src/engine.rs",
            "pub fn f() {\n    let a = mpsc::channel();\n    let b = mpsc::channel();\n    let _ = (a, b);\n}\n",
        );
        fx.write(
            "crates/mapreduce/src/dfs.rs",
            "pub fn g() {\n    let a = mpsc::channel();\n    let _ = a;\n}\n",
        );
        let first = run_check(&fx.root).expect("run 1");
        let second = run_check(&fx.root).expect("run 2");
        assert_eq!(first.len(), 3, "{first:?}");
        assert_eq!(first, second);
        let files: Vec<&str> = first.iter().map(|f| f.file.as_str()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "findings must come out file-sorted");
    }
}
