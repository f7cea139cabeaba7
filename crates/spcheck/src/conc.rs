//! Concurrency-discipline rules (R6–R9) over the workspace [`Model`].
//!
//! * **R6 `lock_order`** — any cycle in the lock-order graph is a
//!   potential deadlock; the finding prints the full witness path with
//!   the source location of every edge.
//! * **R7 `hold_across_io`** — no guard may be live across a blocking
//!   operation: a `BlobStore` call, a channel `send`/`recv`, a
//!   `Condvar` wait with a *foreign* guard (one other than the guard
//!   handed to the wait), a `thread::join`, or a call into a function
//!   whose summary says it may do any of those.
//! * **R8 `channel_hygiene`** — unbounded `mpsc::channel()` is only
//!   allowed in blessed modules (the policy table's `ChannelBlessed`
//!   scope); every `send` result must be handled (`let _ =` counts as
//!   an explicit decision; a bare `tx.send(..);` statement does not).
//! * **R9 `guard_scope`** — a guard must not be held across a call
//!   whose callee may acquire a lock declared in *another* crate; such
//!   calls entangle the two crates' lock orders invisibly. (Calls that
//!   may block are already R7; R9 catches the lock-only cases.)
//!
//! All findings flow through the standard suppression contract
//! (`// spcheck:allow(rule): reason`).

use crate::model::{witness, Model};
use crate::parse::Event;
use crate::report::Finding;
use crate::rules::{in_scope, Scope};

pub const RULE_LOCK_ORDER: &str = "lock_order";
pub const RULE_HOLD_ACROSS_IO: &str = "hold_across_io";
pub const RULE_CHANNEL_HYGIENE: &str = "channel_hygiene";
pub const RULE_GUARD_SCOPE: &str = "guard_scope";

fn guard_list(held: &[String]) -> String {
    held.iter()
        .map(|h| format!("`{h}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Run R6–R9 and append raw (pre-suppression) findings.
pub fn check(model: &Model, findings: &mut Vec<Finding>) {
    // R6: cycles in the lock-order graph, anchored at the first edge.
    for cycle in model.cycles() {
        let first = (
            cycle[0].clone(),
            cycle.get(1).cloned().unwrap_or_else(|| cycle[0].clone()),
        );
        let info = match model.edges.get(&first) {
            Some(i) => i,
            None => continue,
        };
        findings.push(Finding::new(
            &info.rel,
            info.line,
            RULE_LOCK_ORDER,
            format!("lock-order cycle: {}", witness(model, &cycle)),
        ));
    }

    for (i, f) in model.fns.iter().enumerate() {
        let conc = in_scope(Scope::Concurrency, &f.rel);
        let blessed = in_scope(Scope::ChannelBlessed, &f.rel);
        for e in &f.events {
            match e {
                Event::Send {
                    line,
                    handled,
                    held,
                } => {
                    if conc && !held.is_empty() {
                        findings.push(Finding::new(
                            &f.rel,
                            *line,
                            RULE_HOLD_ACROSS_IO,
                            format!(
                                "guard(s) {} held across channel send in {}",
                                guard_list(held),
                                f.label()
                            ),
                        ));
                    }
                    if !handled {
                        findings.push(Finding::new(
                            &f.rel,
                            *line,
                            RULE_CHANNEL_HYGIENE,
                            format!(
                                "send result dropped on the floor in {}; handle it or make the choice explicit with `let _ =`",
                                f.label()
                            ),
                        ));
                    }
                }
                Event::Recv { line, held } if conc && !held.is_empty() => {
                    findings.push(Finding::new(
                        &f.rel,
                        *line,
                        RULE_HOLD_ACROSS_IO,
                        format!(
                            "guard(s) {} held across channel recv in {}",
                            guard_list(held),
                            f.label()
                        ),
                    ));
                }
                Event::Join { line, held } if conc && !held.is_empty() => {
                    findings.push(Finding::new(
                        &f.rel,
                        *line,
                        RULE_HOLD_ACROSS_IO,
                        format!(
                            "guard(s) {} held across thread join in {}",
                            guard_list(held),
                            f.label()
                        ),
                    ));
                }
                Event::Wait { passed, line, held } if conc => {
                    let foreign: Vec<String> = held
                        .iter()
                        .filter(|h| Some(h.as_str()) != passed.as_deref())
                        .cloned()
                        .collect();
                    if !foreign.is_empty() {
                        findings.push(Finding::new(
                            &f.rel,
                            *line,
                            RULE_HOLD_ACROSS_IO,
                            format!(
                                "foreign guard(s) {} held across condvar wait in {}",
                                guard_list(&foreign),
                                f.label()
                            ),
                        ));
                    }
                }
                Event::ChannelNew { line } if !blessed => {
                    findings.push(Finding::new(
                        &f.rel,
                        *line,
                        RULE_CHANNEL_HYGIENE,
                        format!(
                            "unbounded mpsc::channel() in {} outside blessed modules; use a bounded sync_channel or bless the module in the policy table",
                            f.label()
                        ),
                    ));
                }
                Event::Call(c) if conc && !c.held.is_empty() => {
                    let resolved = model.resolve_call(i, c);
                    if resolved.blob {
                        findings.push(Finding::new(
                            &f.rel,
                            c.line,
                            RULE_HOLD_ACROSS_IO,
                            format!(
                                "guard(s) {} held across BlobStore::{} in {}",
                                guard_list(&c.held),
                                c.method,
                                f.label()
                            ),
                        ));
                        continue;
                    }
                    let io_target = resolved
                        .targets
                        .iter()
                        .find(|&&t| model.fns[t].may_io)
                        .copied();
                    if let Some(t) = io_target {
                        findings.push(Finding::new(
                            &f.rel,
                            c.line,
                            RULE_HOLD_ACROSS_IO,
                            format!(
                                "guard(s) {} held across call to {} which may block on IO/channel/wait",
                                guard_list(&c.held),
                                model.fns[t].label()
                            ),
                        ));
                        continue;
                    }
                    // R9: callee may take a lock declared in another crate.
                    let mut foreign: Vec<(String, String)> = Vec::new();
                    for &t in &resolved.targets {
                        for class in &model.fns[t].may_acquire {
                            let declared = model.class_krate(class).unwrap_or("");
                            if declared != f.krate && !foreign.iter().any(|(c2, _)| c2 == class) {
                                foreign.push((class.clone(), model.fns[t].label()));
                            }
                        }
                    }
                    if let Some((class, label)) = foreign.first() {
                        findings.push(Finding::new(
                            &f.rel,
                            c.line,
                            RULE_GUARD_SCOPE,
                            format!(
                                "guard(s) {} held across call to {} which may acquire `{}` (declared in another crate)",
                                guard_list(&c.held),
                                label,
                                class
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;
    use crate::parse::parse_workspace;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| {
                let mut s = crate::lexer::scrub(src);
                crate::lexer::blank_test_regions(&mut s.text);
                (rel.to_string(), s.text)
            })
            .collect();
        let model = build(parse_workspace(&parsed));
        let mut findings = Vec::new();
        check(&model, &mut findings);
        findings
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn r6_fires_on_ab_ba_with_witness() {
        let f = run(&[(
            "crates/x/src/pair.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) {\n        let ga = lock_or_recover(&self.a);\n        let gb = lock_or_recover(&self.b);\n        drop(gb);\n        drop(ga);\n    }\n    fn ba(&self) {\n        let gb = lock_or_recover(&self.b);\n        let ga = lock_or_recover(&self.a);\n        drop(ga);\n        drop(gb);\n    }\n}\n",
        )]);
        let cycles: Vec<_> = f.iter().filter(|f| f.rule == RULE_LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{f:?}");
        assert!(
            cycles[0].message.contains("pair.a -> pair.b -> pair.a"),
            "{}",
            cycles[0].message
        );
        assert!(
            cycles[0].message.contains("pair.rs:"),
            "{}",
            cycles[0].message
        );
    }

    #[test]
    fn r7_fires_on_send_under_guard() {
        let f = run(&[(
            "crates/x/src/srv.rs",
            "struct S { queue: Mutex<u32> }\nimpl S {\n    fn drain(&self, tx: Sender<u32>) {\n        let q = lock_or_recover(&self.queue);\n        let _ = tx.send(1);\n        drop(q);\n    }\n}\n",
        )]);
        assert!(rules_of(&f).contains(&RULE_HOLD_ACROSS_IO), "{f:?}");
        assert!(f[0].message.contains("srv.queue"), "{}", f[0].message);
    }

    #[test]
    fn r7_fires_on_blob_call_under_guard_and_clean_twin_passes() {
        let dirty = run(&[(
            "crates/x/src/st.rs",
            "struct S { cache: Mutex<u32>, blobs: Arc<dyn BlobStore> }\nimpl S {\n    fn load(&self) {\n        let g = lock_or_recover(&self.cache);\n        let _ = self.blobs.put(p, d);\n        drop(g);\n    }\n}\n",
        )]);
        assert!(rules_of(&dirty).contains(&RULE_HOLD_ACROSS_IO), "{dirty:?}");
        assert!(
            dirty[0].message.contains("BlobStore::put"),
            "{}",
            dirty[0].message
        );
        let clean = run(&[(
            "crates/x/src/st.rs",
            "struct S { cache: Mutex<u32>, blobs: Arc<dyn BlobStore> }\nimpl S {\n    fn load(&self) {\n        {\n            let _g = lock_or_recover(&self.cache);\n        }\n        let _ = self.blobs.put(p, d);\n    }\n}\n",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn r7_worker_loop_wait_with_own_guard_is_clean() {
        let f = run(&[(
            "crates/x/src/srv.rs",
            "struct S { queue: Mutex<u32>, wake: Condvar }\nimpl S {\n    fn worker(&self) {\n        let mut q = lock_or_recover(&self.queue);\n        q = wait_or_recover(&self.wake, q);\n        drop(q);\n    }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r7_foreign_guard_across_wait_fires() {
        let f = run(&[(
            "crates/x/src/srv.rs",
            "struct S { queue: Mutex<u32>, other: Mutex<u32>, wake: Condvar }\nimpl S {\n    fn worker(&self) {\n        let o = lock_or_recover(&self.other);\n        let mut q = lock_or_recover(&self.queue);\n        q = wait_or_recover(&self.wake, q);\n        drop(q);\n        drop(o);\n    }\n}\n",
        )]);
        let waits: Vec<_> = f
            .iter()
            .filter(|f| f.message.contains("condvar wait"))
            .collect();
        assert_eq!(waits.len(), 1, "{f:?}");
        assert!(
            waits[0].message.contains("srv.other"),
            "{}",
            waits[0].message
        );
    }

    #[test]
    fn r8_fires_on_unblessed_channel_and_bare_send() {
        let f = run(&[(
            "crates/x/src/ch.rs",
            "fn go(tx: Sender<u32>) {\n    let (tx2, rx2) = mpsc::channel();\n    let (tx3, rx3) = mpsc::channel::<u32>();\n    tx.send(1);\n    let _ = (tx2, rx2, tx3, rx3);\n}\n",
        )]);
        let r8: Vec<_> = f
            .iter()
            .filter(|f| f.rule == RULE_CHANNEL_HYGIENE)
            .collect();
        assert_eq!(r8.len(), 3, "{f:?}");
        assert!(r8[0].message.contains("unbounded") || r8[1].message.contains("unbounded"));
    }

    #[test]
    fn r8_blessed_module_channel_is_clean() {
        let f = run(&[(
            "crates/cubestore/src/server.rs",
            "fn reply_channel() {\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n",
        )]);
        assert!(
            !rules_of(&f).contains(&RULE_CHANNEL_HYGIENE),
            "server.rs is blessed: {f:?}"
        );
    }

    #[test]
    fn r9_fires_on_cross_crate_lock_under_guard() {
        let f = run(&[
            (
                "crates/cubestore/src/faults.rs",
                "struct F { state: Mutex<u32>, obs: ObsHandle }\nimpl F {\n    fn fire(&self) {\n        let g = lock_or_recover(&self.state);\n        self.obs.inc(n);\n        drop(g);\n    }\n}\n",
            ),
            (
                "crates/obs/src/registry.rs",
                "struct ObsHandle { instruments: Mutex<u32> }\nimpl ObsHandle {\n    fn inc(&self, n: u32) {\n        let _g = lock_or_recover(&self.instruments);\n    }\n}\n",
            ),
        ]);
        let r9: Vec<_> = f.iter().filter(|f| f.rule == RULE_GUARD_SCOPE).collect();
        assert_eq!(r9.len(), 1, "{f:?}");
        assert!(
            r9[0].message.contains("registry.instruments"),
            "{}",
            r9[0].message
        );
    }

    #[test]
    fn r9_lock_free_callee_is_clean() {
        let f = run(&[
            (
                "crates/cubestore/src/client.rs",
                "struct C { breakers: Mutex<u32>, clock: Arc<Clock> }\nimpl C {\n    fn gate(&self) {\n        let g = lock_or_recover(&self.breakers);\n        let _ = self.clock.now_us();\n        drop(g);\n    }\n}\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "struct Clock { t: AtomicU64 }\nimpl Clock {\n    fn now_us(&self) -> u64 { self.t.load(Ordering::Relaxed) }\n}\n",
            ),
        ]);
        assert!(f.is_empty(), "lock-free cross-crate callee: {f:?}");
    }
}
