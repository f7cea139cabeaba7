//! Property tests for the flight recorder's cross-thread trace
//! propagation: N threads emitting interleaved spans under scoped
//! [`QueryCtx`]s must reconstruct into one valid span tree per query
//! with no cross-query contamination, and the persisted JSONL must be
//! byte-deterministic under the mock clock.
#![recursion_limit = "256"]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use sp_cube_repro::obs::{ctx, flight_timed, FlightLabel, FlightName, ObsHandle, SpanTree};

/// The three storage-phase span names `flight_timed` charges, cycled by
/// emission index so every query mixes phases.
const PHASES: [FlightName; 3] = [FlightName::BlobIo, FlightName::Decode, FlightName::Merge];

/// Run `threads` worker threads, each serving `queries` flight-recorded
/// queries of `spans` storage spans apiece, against one shared
/// mock-clock recorder. A global turn counter round-robins every
/// recorder touch (begin / emit / finish) across threads, so the
/// interleaving — and therefore trace-id, span-id, and mock-clock
/// allocation — is identical on every run with the same parameters.
/// All queries finish `errored`, so the tail sampler keeps every trace.
fn run_interleaved(threads: usize, queries: usize, spans: usize) -> (ObsHandle, String) {
    let obs = ObsHandle::mock();
    let turn = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let obs = obs.clone();
        let turn = Arc::clone(&turn);
        handles.push(std::thread::spawn(move || {
            let step = |f: &mut dyn FnMut()| {
                while turn.load(Ordering::Acquire) % threads != t {
                    std::thread::yield_now();
                }
                f();
                turn.fetch_add(1, Ordering::Release);
            };
            for q in 0..queries {
                let mut slot = None;
                let mut start = 0;
                step(&mut || {
                    slot = obs.flight_begin();
                    start = obs.flight_now_us();
                });
                let Some(c) = slot else {
                    panic!("mock recorder must hand out contexts");
                };
                for s in 0..spans {
                    let name = PHASES[(q + s) % PHASES.len()];
                    step(&mut || {
                        ctx::scope(&c, || {
                            flight_timed(&obs, name, Some((FlightLabel::Cuboid, s as u64)), || {})
                        });
                    });
                }
                step(&mut || {
                    let total = obs.flight_now_us().saturating_sub(start);
                    assert!(
                        obs.flight_finish(&c, start, total, true, false),
                        "errored queries must always be tail-sampled in"
                    );
                });
            }
        }));
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    let jsonl = obs.flight_jsonl();
    (obs, jsonl)
}

/// Split a multi-trace JSONL document into per-trace documents keyed by
/// the `"trace":N,` field each record carries.
fn group_by_trace(jsonl: &str) -> Vec<(u64, String)> {
    let mut groups: Vec<(u64, String)> = Vec::new();
    for line in jsonl.lines() {
        let id: u64 = line
            .split("\"trace\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|tok| tok.trim().parse().ok())
            .expect("every flight record carries a trace id");
        match groups.iter_mut().find(|(g, _)| *g == id) {
            Some((_, doc)) => {
                doc.push_str(line);
                doc.push('\n');
            }
            None => groups.push((id, format!("{line}\n"))),
        }
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every query's records reconstruct into exactly one valid tree
    /// (root + storage spans + finalize), with no span leaking into
    /// another query's trace.
    #[test]
    fn interleaved_threads_reconstruct_per_query_trees(threads in 2..=4usize, queries in 1..=3usize, spans in 1..=4usize) {
        let (obs, jsonl) = run_interleaved(threads, queries, spans);
        let kept = obs.flight_kept();
        prop_assert_eq!(kept.len(), threads * queries);
        let exemplar_ids: Vec<u64> = obs.flight_exemplars().iter().map(|e| e.trace_id).collect();
        let groups = group_by_trace(&jsonl);
        prop_assert_eq!(groups.len(), kept.len());
        for (id, doc) in &groups {
            prop_assert!(kept.contains(id), "trace {} persisted but not kept", id);
            prop_assert!(
                exemplar_ids.contains(id),
                "kept trace {} missing from the exemplar set", id
            );
            let tree = SpanTree::parse_jsonl(doc).map_err(|e| {
                TestCaseError::fail(format!("trace {id} failed to parse: {e}"))
            })?;
            tree.validate().map_err(|e| {
                TestCaseError::fail(format!("trace {id} failed validation: {e:?}"))
            })?;
            prop_assert_eq!(tree.roots.len(), 1, "one QueryTotal root per query");
            prop_assert_eq!(
                tree.spans_named(FlightName::QueryTotal.name()).len(), 1);
            prop_assert_eq!(
                tree.spans_named(FlightName::Finalize.name()).len(), 1);
            let storage: usize = PHASES
                .iter()
                .map(|p| tree.spans_named(p.name()).len())
                .sum();
            prop_assert_eq!(
                storage, spans,
                "trace {} must hold exactly its own storage spans", id
            );
        }
    }

    /// Identical parameters produce byte-identical persisted JSONL under
    /// the mock clock: the turn counter fixes the interleaving, so the
    /// recorder must add no nondeterminism of its own.
    #[test]
    fn mock_clock_flight_jsonl_is_byte_deterministic(threads in 2..=4usize, queries in 1..=3usize, spans in 1..=4usize) {
        let (_, a) = run_interleaved(threads, queries, spans);
        let (_, b) = run_interleaved(threads, queries, spans);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, b);
    }
}
