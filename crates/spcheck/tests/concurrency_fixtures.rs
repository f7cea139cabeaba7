//! Integration fixtures for the concurrency rules (R6–R9): planted
//! violations the analyzer must catch, clean twins it must not flag, and
//! a snapshot check that the real workspace's lock-order graph is
//! acyclic and renders deterministically.

use std::fs;
use std::path::{Path, PathBuf};

/// Throwaway tree under the OS temp dir, keyed by tag + pid so parallel
/// test runs never collide.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("spcheck-it-{}-{}", tag, std::process::id()));
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

    /// Satisfy R2 (single_source_format) so its workspace findings don't
    /// drown out what each test is about.
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

fn rules_of(findings: &[spcheck::report::Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn ab_ba_deadlock_fixture_is_caught_with_witness() {
    let fx = Fixture::new("abba").with_format_consts();
    fx.write(
        "crates/mapreduce/src/engine.rs",
        "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl Pair {\n\
         \x20   pub fn forward(&self) -> u32 {\n\
         \x20       let ga = lock_or_recover(&self.a);\n\
         \x20       let gb = lock_or_recover(&self.b);\n\
         \x20       *ga + *gb\n\
         \x20   }\n\
         \x20   pub fn backward(&self) -> u32 {\n\
         \x20       let gb = lock_or_recover(&self.b);\n\
         \x20       let ga = lock_or_recover(&self.a);\n\
         \x20       *ga + *gb\n\
         \x20   }\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    let cycles: Vec<_> = findings.iter().filter(|f| f.rule == "lock_order").collect();
    assert_eq!(cycles.len(), 1, "{findings:?}");
    let msg = &cycles[0].message;
    // The witness names both classes and each edge's source site.
    assert!(msg.contains("engine.a -> engine.b"), "{msg}");
    assert!(msg.contains("engine.b -> engine.a"), "{msg}");
    assert!(msg.contains("crates/mapreduce/src/engine.rs:"), "{msg}");
}

#[test]
fn consistently_ordered_twin_is_clean() {
    let fx = Fixture::new("ordered").with_format_consts();
    fx.write(
        "crates/mapreduce/src/engine.rs",
        "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl Pair {\n\
         \x20   pub fn forward(&self) -> u32 {\n\
         \x20       let ga = lock_or_recover(&self.a);\n\
         \x20       let gb = lock_or_recover(&self.b);\n\
         \x20       *ga + *gb\n\
         \x20   }\n\
         \x20   pub fn also_forward(&self) -> u32 {\n\
         \x20       let ga = lock_or_recover(&self.a);\n\
         \x20       let gb = lock_or_recover(&self.b);\n\
         \x20       *gb + *ga\n\
         \x20   }\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cross_file_cycle_is_caught() {
    // The AB edge and the BA edge live in different crates; only the
    // workspace-level graph can see the cycle.
    let fx = Fixture::new("crossfile").with_format_consts();
    fx.write(
        "crates/mapreduce/src/engine.rs",
        "pub struct A { first: Mutex<u32> }\n\
         impl A {\n\
         \x20   pub fn go(&self, d: &spcube_mapreduce::D) -> u32 {\n\
         \x20       let g = lock_or_recover(&self.first);\n\
         \x20       d.touch();\n\
         \x20       *g\n\
         \x20   }\n\
         }\n",
    );
    fx.write(
        "crates/mapreduce/src/dfs.rs",
        "pub struct D { second: Mutex<u32>, up: Arc<A> }\n\
         impl D {\n\
         \x20   pub fn touch(&self) -> u32 {\n\
         \x20       *lock_or_recover(&self.second)\n\
         \x20   }\n\
         \x20   pub fn reverse(&self) -> u32 {\n\
         \x20       let g = lock_or_recover(&self.second);\n\
         \x20       let h = lock_or_recover(&self.up.first);\n\
         \x20       *g + *h\n\
         \x20   }\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    assert!(rules_of(&findings).contains(&"lock_order"), "{findings:?}");
}

#[test]
fn guard_across_blob_put_is_caught() {
    let fx = Fixture::new("blobput").with_format_consts();
    fx.write(
        "crates/cubestore/src/store.rs",
        "pub struct S { state: Mutex<u32>, blobs: Arc<dyn BlobStore> }\n\
         impl S {\n\
         \x20   pub fn persist(&self, path: &str, data: Vec<u8>) {\n\
         \x20       let g = lock_or_recover(&self.state);\n\
         \x20       let _ = self.blobs.put(path, data);\n\
         \x20       let _ = *g;\n\
         \x20   }\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    let io: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "hold_across_io")
        .collect();
    assert_eq!(io.len(), 1, "{findings:?}");
    assert!(
        io[0].message.contains("BlobStore::put"),
        "{}",
        io[0].message
    );
    assert!(io[0].message.contains("store.state"), "{}", io[0].message);
}

#[test]
fn scoped_guard_before_put_twin_is_clean() {
    let fx = Fixture::new("blobscoped").with_format_consts();
    fx.write(
        "crates/cubestore/src/store.rs",
        "pub struct S { state: Mutex<u32>, blobs: Arc<dyn BlobStore> }\n\
         impl S {\n\
         \x20   pub fn persist(&self, path: &str, data: Vec<u8>) {\n\
         \x20       let g = lock_or_recover(&self.state);\n\
         \x20       let _ = *g;\n\
         \x20       drop(g);\n\
         \x20       let _ = self.blobs.put(path, data);\n\
         \x20   }\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unbounded_channel_outside_blessed_modules_is_caught() {
    let fx = Fixture::new("chan").with_format_consts();
    fx.write(
        "crates/mapreduce/src/engine.rs",
        "pub fn fan_out() -> u32 {\n\
         \x20   let (tx, rx) = mpsc::channel();\n\
         \x20   let _ = tx.send(1u32);\n\
         \x20   rx.recv().unwrap_or(0)\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    let chans: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "channel_hygiene")
        .collect();
    assert_eq!(chans.len(), 1, "{findings:?}");
    assert!(
        chans[0].message.contains("mpsc::channel"),
        "{}",
        chans[0].message
    );
}

#[test]
fn channel_in_blessed_server_module_is_clean() {
    let fx = Fixture::new("chanblessed").with_format_consts();
    fx.write(
        "crates/cubestore/src/server.rs",
        "pub fn fan_out() -> u32 {\n\
         \x20   let (tx, rx) = mpsc::channel();\n\
         \x20   let _ = tx.send(1u32);\n\
         \x20   rx.recv().unwrap_or(0)\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dropped_send_result_is_caught_and_let_underscore_twin_is_clean() {
    let fx = Fixture::new("sendres").with_format_consts();
    fx.write(
        "crates/cubestore/src/server.rs",
        "pub fn reply() {\n\
         \x20   let (tx, _rx) = mpsc::channel();\n\
         \x20   tx.send(1u32);\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    let sends: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "channel_hygiene")
        .collect();
    assert_eq!(sends.len(), 1, "{findings:?}");
    assert!(
        sends[0].message.contains("send result"),
        "{}",
        sends[0].message
    );

    let fx2 = Fixture::new("sendres-ok").with_format_consts();
    fx2.write(
        "crates/cubestore/src/server.rs",
        "pub fn reply() {\n\
         \x20   let (tx, _rx) = mpsc::channel();\n\
         \x20   let _ = tx.send(1u32);\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx2.root).expect("run");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_silences_concurrency_rule_with_reason() {
    let fx = Fixture::new("allowconc").with_format_consts();
    fx.write(
        "crates/mapreduce/src/engine.rs",
        "pub fn fan_out() -> u32 {\n\
         \x20   // spcheck:allow(channel_hygiene): bounded by caller contract\n\
         \x20   let (tx, rx) = mpsc::channel();\n\
         \x20   let _ = tx.send(1u32);\n\
         \x20   rx.recv().unwrap_or(0)\n\
         }\n",
    );
    let findings = spcheck::run_check(&fx.root).expect("run");
    assert!(findings.is_empty(), "{findings:?}");
}

/// The real workspace must stay deadlock-free by construction: the
/// lock-order graph the analyzer extracts from this very repository has
/// to be acyclic, and its rendering deterministic run-to-run.
#[test]
fn real_workspace_lockgraph_is_acyclic_and_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = spcheck::run_full(&root).expect("analyze workspace");
    assert!(
        a.model.cycles().is_empty(),
        "lock-order cycle in the real workspace:\n{}",
        a.model.render_text()
    );
    let text = a.model.render_text();
    assert!(text.contains("verdict: acyclic"), "{text}");
    // Known lock classes must be present and named.
    for class in ["server.queue", "dfs.inner", "store.cache", "ring.rings"] {
        assert!(text.contains(class), "missing class {class} in:\n{text}");
    }
    // Deterministic: a second full analysis renders byte-identically.
    let b = spcheck::run_full(&root).expect("analyze workspace again");
    assert_eq!(text, b.model.render_text());
    assert_eq!(a.model.render_dot(), b.model.render_dot());
}
