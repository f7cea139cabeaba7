//! Chaos proof of the serving tier: under seeded storage faults, every
//! query either returns the bit-exact answer a healthy store would give
//! or a typed error — never a panic, never a wrong answer — and every
//! resilience decision the stack takes (deadline misses, hedges,
//! breaker trips and sheds, injected faults) is visible in the
//! observability layer with counts that match the in-process statistics
//! exactly.
//!
//! Each recovery job has one owner: the store recomputes a corrupt
//! cuboid from its recovery relation, and the client only retries,
//! hedges, and sheds load behind its breaker.
//!
//! The matrix sweeps fault schedules (transient-heavy, sticky outages,
//! mixed with latency spikes) × seeds × deadlines (none, generous,
//! instantly-expired) × hedging on/off. Everything runs on the mock
//! clock and mock observability handle, so injected latency spikes cost
//! nothing real and deadline arithmetic is deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sp_cube_repro::agg::AggSpec;
use sp_cube_repro::cubealg::naive_cube;
use sp_cube_repro::cubestore::{
    answer, segment_path, write_store, BlobStore, ClientConfig, CubeServer, CubeStore,
    FaultSchedule, FaultyBlobs, Request, ResilientClient, Response, ServeError, ServerConfig,
};
use sp_cube_repro::datagen::{gen_query_workload, gen_zipf};
use sp_cube_repro::mapreduce::Dfs;
use sp_cube_repro::obs::{names, Clock, Name, ObsHandle, SpanTree};
use sp_cube_repro::request_of;

const DIMS: usize = 3;
const QUERIES: usize = 50;

/// Build one relation, cube it, and persist the cube to a fresh DFS.
fn seeded_dfs() -> (sp_cube_repro::common::Relation, Arc<Dfs>) {
    let rel = gen_zipf(300, DIMS, 0xC4A0);
    let cube = naive_cube(&rel, AggSpec::Sum);
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "chaos", &cube, DIMS, AggSpec::Sum, 1).expect("write_store");
    (rel, dfs)
}

/// Reference answers from a clean store over the same blobs.
fn reference_answers(dfs: &Arc<Dfs>, reqs: &[Request]) -> Vec<Response> {
    let clean = CubeStore::open(Arc::clone(dfs) as Arc<dyn BlobStore>, "chaos").expect("open");
    reqs.iter().map(|r| answer(&clean, r)).collect()
}

/// A two-worker server over `store` on the mock clock.
fn mock_server(store: &Arc<CubeStore>) -> Arc<CubeServer> {
    Arc::new(CubeServer::start(
        Arc::clone(store),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            clock: Arc::new(Clock::mock()),
        },
    ))
}

struct Combo {
    label: &'static str,
    schedule: FaultSchedule,
    /// Mock-clock deadline budget in µs: None = no deadline.
    budget_us: Option<u64>,
    hedge: bool,
}

fn schedules(seed: u64) -> Vec<(&'static str, FaultSchedule)> {
    vec![
        (
            "transient-heavy",
            FaultSchedule {
                seed,
                transient_fail_prob: 0.4,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        ),
        (
            "sticky-outages",
            FaultSchedule {
                seed,
                sticky_outage_prob: 0.4,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        ),
        (
            "mixed",
            FaultSchedule {
                seed,
                transient_fail_prob: 0.2,
                sticky_outage_prob: 0.15,
                outage_heals_after: 4,
                latency_spike_prob: 0.3,
                // Absurd on purpose: the mock obs handle must make this
                // spike free, or the suite would sleep for minutes.
                spike_us: 60_000_000,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        ),
    ]
}

/// Run one combo through the full stack and check the chaos invariant.
fn run_combo(combo: &Combo, seed: u64) {
    let (rel, dfs) = seeded_dfs();
    let workload: Vec<Request> = gen_query_workload(&rel, QUERIES, 1.5, seed)
        .iter()
        .map(request_of)
        .collect();
    let expected = reference_answers(&dfs, &workload);

    let obs = ObsHandle::mock();
    let faulty = Arc::new(
        FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            combo.schedule.clone(),
        )
        .with_obs(obs.clone()),
    );
    let store = Arc::new(
        CubeStore::open(Arc::clone(&faulty) as Arc<dyn BlobStore>, "chaos")
            .expect("chaos store open")
            .with_obs(obs.clone())
            .with_cache_capacity(1),
    );
    let server = mock_server(&store);
    let client = ResilientClient::new(
        Arc::clone(&server),
        ClientConfig {
            hedge: combo.hedge,
            ..ClientConfig::default()
        },
    )
    .expect("client config")
    .with_obs(obs.clone());

    let mut clean = 0usize;
    let mut typed_failures = 0usize;
    let mut deadline_misses = 0usize;
    for (req, expect) in workload.iter().zip(&expected) {
        let deadline = combo.budget_us.map(|b| server.deadline_in(b));
        match client.query(req.clone(), deadline) {
            Ok(Response::Failed(_)) => typed_failures += 1,
            Ok(resp) => {
                // The core invariant: any non-error answer is bit-exact
                // with the healthy store's, whether it came from a clean
                // read, a retry, or a hedge.
                assert_eq!(&resp, expect, "[{}] wrong answer for {req:?}", combo.label);
                clean += 1;
            }
            Err(ServeError::DeadlineExceeded) => deadline_misses += 1,
            Err(e) => panic!("[{}] unexpected refusal {e:?} for {req:?}", combo.label),
        }
    }
    assert_eq!(
        clean + typed_failures + deadline_misses,
        QUERIES,
        "[{}] queries lost",
        combo.label
    );

    // With an instantly-expired deadline, *every* query must be refused
    // typed at admission; without one, none may be.
    match combo.budget_us {
        Some(0) => assert_eq!(deadline_misses, QUERIES, "[{}]", combo.label),
        None => assert_eq!(deadline_misses, 0, "[{}]", combo.label),
        Some(_) => {}
    }

    // Observability must agree exactly with the in-process statistics:
    // the obs layer is how an operator sees what the stats structs see.
    let counter = |name: Name, labels: &[(&str, String)]| obs.counter_value(name, labels);
    let server_stats = server.stats();
    assert_eq!(
        counter(names::SERVE_DEADLINE_EXCEEDED, &[]).unwrap_or(0),
        server_stats.deadline_exceeded,
        "[{}] deadline counter drifted from ServerStats",
        combo.label
    );
    let client_stats = client.stats();
    assert_eq!(
        counter(names::SERVE_HEDGE_FIRED, &[]).unwrap_or(0),
        client_stats.hedges_fired,
        "[{}]",
        combo.label
    );
    assert_eq!(
        counter(names::SERVE_HEDGE_WON, &[]).unwrap_or(0),
        client_stats.hedges_won,
        "[{}]",
        combo.label
    );
    assert_eq!(
        counter(names::SERVE_BREAKER_OPEN, &[]).unwrap_or(0),
        client_stats.breaker_opens,
        "[{}]",
        combo.label
    );
    assert_eq!(
        counter(names::SERVE_BREAKER_SHED, &[]).unwrap_or(0),
        client_stats.shed,
        "[{}]",
        combo.label
    );
    let fault_stats = faulty.stats();
    for (kind, want) in [
        ("transient", fault_stats.read_transient),
        ("outage", fault_stats.read_outage),
        ("latency", fault_stats.read_latency),
    ] {
        assert_eq!(
            counter(
                names::STORE_FAULT_INJECTED,
                &[("kind", kind.to_string()), ("op", "read".to_string())],
            )
            .unwrap_or(0),
            want,
            "[{}] fault counter `{kind}` drifted from FaultStats",
            combo.label
        );
    }
    // Every injected fault is also an inspectable oplog record.
    assert_eq!(faulty.oplog().len() as u64, fault_stats.total());
}

#[test]
fn chaos_matrix_answers_bit_exact_or_typed() {
    for seed in [1u64, 7, 42] {
        for (label, schedule) in schedules(seed) {
            for budget_us in [None, Some(1u64 << 40), Some(0)] {
                for hedge in [false, true] {
                    run_combo(
                        &Combo {
                            label,
                            schedule: schedule.clone(),
                            budget_us,
                            hedge,
                        },
                        seed,
                    );
                }
            }
        }
    }
}

#[test]
fn sticky_outage_is_shed_typed_by_the_breaker() {
    // Every segment read fails forever and the client owns no recovery:
    // every answer is a typed failure, the breaker opens, and while it
    // is open queries are shed without reaching the server.
    let (rel, dfs) = seeded_dfs();
    let workload: Vec<Request> = gen_query_workload(&rel, 30, 1.5, 9)
        .iter()
        .map(request_of)
        .collect();

    let obs = ObsHandle::mock();
    let faulty = Arc::new(
        FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            FaultSchedule {
                seed: 3,
                sticky_outage_prob: 1.0,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        )
        .with_obs(obs.clone()),
    );
    let store = Arc::new(
        CubeStore::open(Arc::clone(&faulty) as Arc<dyn BlobStore>, "chaos")
            .expect("open")
            .with_obs(obs.clone())
            .with_cache_capacity(1),
    );
    let server = mock_server(&store);
    let client = ResilientClient::new(Arc::clone(&server), ClientConfig::default())
        .expect("client")
        .with_obs(obs.clone());

    for req in &workload {
        let (served, shed) = (server.stats().served, client.stats().shed);
        let resp = client.query(req.clone(), None).expect("no refusals");
        assert!(
            matches!(resp, Response::Failed(_)),
            "outage answered {resp:?} for {req:?}"
        );
        if client.stats().shed > shed {
            assert_eq!(
                server.stats().served,
                served,
                "a shed query reached the server: {req:?}"
            );
        }
    }
    let stats = client.stats();
    assert!(stats.breaker_opens >= 1, "breaker never tripped");
    assert!(stats.shed >= 1, "open breaker never shed a query");
    assert_eq!(
        obs.counter_value(names::SERVE_BREAKER_OPEN, &[])
            .unwrap_or(0),
        stats.breaker_opens
    );
    assert_eq!(
        obs.counter_value(names::SERVE_BREAKER_SHED, &[])
            .unwrap_or(0),
        stats.shed
    );
}

#[test]
fn corrupt_hot_segment_is_recomputed_by_the_store_alone() {
    // Bit-rot in the most-queried cuboid, recovery attached to the store
    // only: the store degrades to a recompute, so the client sees clean
    // answers and never retries or trips a breaker.
    let (rel, dfs) = seeded_dfs();
    let workload: Vec<Request> = gen_query_workload(&rel, QUERIES, 1.5, 11)
        .iter()
        .map(request_of)
        .collect();
    let expected = reference_answers(&dfs, &workload);
    let mut hits = BTreeMap::new();
    for req in &workload {
        *hits.entry(req.cuboid()).or_insert(0) += 1;
    }
    let (&hot, _) = hits
        .iter()
        .max_by_key(|&(_, n)| *n)
        .expect("non-empty workload");
    dfs.corrupt_byte(&segment_path("chaos", 1, DIMS, hot), 24)
        .expect("corrupt the hot segment");

    let obs = ObsHandle::mock();
    let store = Arc::new(
        CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "chaos")
            .expect("open")
            .with_recovery(rel.clone())
            .with_obs(obs.clone())
            .with_cache_capacity(1),
    );
    let server = mock_server(&store);
    let client = ResilientClient::new(Arc::clone(&server), ClientConfig::default())
        .expect("client")
        .with_obs(obs.clone());

    for (req, expect) in workload.iter().zip(&expected) {
        let resp = client.query(req.clone(), None).expect("no refusals");
        assert_eq!(&resp, expect, "degraded answer diverged for {req:?}");
    }
    let stats = client.stats();
    assert_eq!(
        stats.retries, 0,
        "the client retried a store-recovered read"
    );
    assert_eq!(stats.breaker_opens, 0);
    let degraded = store.stats().degraded_recomputes;
    assert!(degraded >= 1, "the corrupt segment was never recomputed");
    assert_eq!(
        obs.counter_value(names::STORE_DEGRADE_RECOMPUTE, &[]),
        Some(degraded)
    );
}

#[test]
fn expired_deadlines_never_reach_the_blob_layer() {
    // Budget 0 expires before admission: the server refuses typed, no
    // worker runs, and the fault injector never sees a read.
    let (rel, dfs) = seeded_dfs();
    let workload: Vec<Request> = gen_query_workload(&rel, 20, 1.5, 5)
        .iter()
        .map(request_of)
        .collect();

    let faulty = Arc::new(
        FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            FaultSchedule {
                seed: 1,
                transient_fail_prob: 1.0,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        )
        .with_obs(ObsHandle::mock()),
    );
    let store = Arc::new(
        CubeStore::open(Arc::clone(&faulty) as Arc<dyn BlobStore>, "chaos")
            .expect("open")
            .with_cache_capacity(1),
    );
    let server = mock_server(&store);
    let client =
        ResilientClient::new(Arc::clone(&server), ClientConfig::default()).expect("client");
    for req in &workload {
        let deadline = server.deadline_in(0);
        assert_eq!(
            client.query(req.clone(), Some(deadline)),
            Err(ServeError::DeadlineExceeded)
        );
    }
    assert_eq!(server.stats().served, 0);
    assert_eq!(server.stats().deadline_exceeded, workload.len() as u64);
    assert_eq!(faulty.stats().total(), 0, "a refused query read a blob");
}

#[test]
fn profiled_chaos_from_two_clients_persists_every_kept_trace_whole() {
    // The flight recorder under chaos: two client threads send profiled
    // queries through transient read faults and a one-segment cache.
    // Every failed query is tail-sampled in, every kept trace is an
    // exemplar of the latency histogram and is in the persisted JSONL,
    // and that JSONL splits into one valid single-root tree per kept
    // trace: what `inspect flight` reads.
    let (rel, dfs) = seeded_dfs();
    let workload: Vec<Request> = gen_query_workload(&rel, 120, 1.5, 11)
        .iter()
        .map(request_of)
        .collect();
    let obs = ObsHandle::mock();
    let faulty = Arc::new(
        FaultyBlobs::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            FaultSchedule {
                seed: 7,
                transient_fail_prob: 0.5,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        )
        .with_obs(obs.clone()),
    );
    let store = Arc::new(
        CubeStore::open(faulty as Arc<dyn BlobStore>, "chaos")
            .expect("open")
            .with_obs(obs.clone())
            .with_cache_capacity(1),
    );
    let server = mock_server(&store);
    let client = ResilientClient::new(Arc::clone(&server), ClientConfig::default())
        .expect("client")
        .with_obs(obs.clone());

    let failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for half in workload.chunks(workload.len() / 2) {
            let (client, failed) = (&client, &failed);
            scope.spawn(move || {
                for req in half {
                    let profiled = client.query_profiled(req.clone(), None);
                    if matches!(profiled.result, Err(_) | Ok(Response::Failed(_))) {
                        failed.fetch_add(1, Ordering::Relaxed);
                        assert!(profiled.kept, "failed query {req:?} was not kept");
                    }
                }
            });
        }
    });
    assert!(
        failed.load(Ordering::Relaxed) > 0,
        "the schedule failed no query"
    );

    let kept: BTreeSet<u64> = obs.flight_kept().into_iter().collect();
    let exemplars: BTreeSet<u64> = obs.flight_exemplars().iter().map(|e| e.trace_id).collect();
    assert!(
        kept.is_subset(&exemplars),
        "kept traces {:?} are not exemplars",
        kept.difference(&exemplars).collect::<Vec<_>>()
    );
    let (traces, warnings) =
        SpanTree::parse_per_trace(&obs.flight_jsonl()).expect("persisted traces parse");
    assert!(warnings.is_empty(), "{warnings:?}");
    let persisted: BTreeSet<u64> = traces.iter().map(|(id, _)| *id).collect();
    assert_eq!(persisted, kept, "the JSONL holds exactly the kept traces");
    for (id, tree) in &traces {
        if let Err(problems) = tree.validate() {
            panic!("trace {id} is broken: {problems:?}");
        }
        assert_eq!(tree.roots.len(), 1, "trace {id} has one root");
    }
}
