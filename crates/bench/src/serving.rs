//! The query-serving harness behind the serve-bench experiment.
//!
//! Drives a [`CubeServer`] through a [`ResilientClient`] with a generated
//! [`QuerySpec`] workload from several concurrent client threads and
//! measures what a serving system is judged by: throughput (QPS), latency
//! percentiles (p50/p99, in microseconds of host wall clock), the
//! segment-cache hit rate, and the resilience counters — typed errors,
//! deadline misses, hedges fired/won. An overloaded submission (typed
//! queue-full rejection) is retried after a brief yield and counted, so
//! the reported latency covers the full client experience including
//! back-off. A `Response::Failed` answer is a *data point* here, not a
//! panic: under an injected-fault (chaos) store, failed queries are
//! exactly what the benchmark is measuring. Latency percentiles come from
//! one shared lock-free [`Histogram`] all clients record into — no
//! per-client sample `Vec`s to collect and sort.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use spcube_agg::AggSpec;
use spcube_common::{Relation, Result};
use spcube_mapreduce::Stopwatch;
use spcube_obs::Histogram;

use spcube_cubestore::{
    BlobStore, ClientConfig, CompactionPolicy, CubeServer, CubeStore, IngestConfig, IngestSession,
    Request, ResilientClient, Response, ScrubConfig, Scrubber, ServeError, ServerConfig,
};
use spcube_datagen::QuerySpec;

/// Client-side knobs of one serving run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Worker threads in the server pool.
    pub workers: usize,
    /// Bounded request-queue capacity.
    pub queue_capacity: usize,
    /// Concurrent client threads issuing queries.
    pub clients: usize,
    /// Per-query deadline budget in microseconds of wall clock
    /// (`None` = no deadline).
    pub deadline_us: Option<u64>,
    /// Hedge slow requests with a duplicate attempt after a p99-derived
    /// delay (see [`ResilientClient`]).
    pub hedge: bool,
    /// Attempts per query: retries after a `Failed` answer ride out
    /// transient storage faults.
    pub max_attempts: u32,
    /// Issue every query through the profiled flight-recorder path
    /// ([`ResilientClient::query_profiled`]) and decompose latency
    /// percentiles into per-phase columns. Requires the store to carry
    /// an observability handle; without one the phase columns read zero.
    pub profile: bool,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            workers: 4,
            queue_capacity: 64,
            clients: 4,
            deadline_us: None,
            hedge: false,
            max_attempts: 3,
            profile: false,
        }
    }
}

/// Per-phase latency percentiles of one profiled serving run: where the
/// p50 and the p99 query actually spent their time. Phases come from the
/// flight recorder's [`spcube_obs::PhaseBreakdown`], whose residual
/// `finalize` closes the ledger, so for every individual query the five
/// phases sum exactly to its end-to-end latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Admission-to-dequeue queue wait, p50 / p99 microseconds.
    pub queue_p50_us: f64,
    /// 99th-percentile queue wait.
    pub queue_p99_us: f64,
    /// Blob fetch time, p50 / p99 microseconds.
    pub io_p50_us: f64,
    /// 99th-percentile blob fetch time.
    pub io_p99_us: f64,
    /// Segment decode time, p50 / p99 microseconds.
    pub decode_p50_us: f64,
    /// 99th-percentile decode time.
    pub decode_p99_us: f64,
    /// Layered state-merge time, p50 / p99 microseconds.
    pub merge_p50_us: f64,
    /// 99th-percentile merge time.
    pub merge_p99_us: f64,
    /// Residual (everything not attributed above), p50 / p99.
    pub finalize_p50_us: f64,
    /// 99th-percentile residual.
    pub finalize_p99_us: f64,
    /// Traces the tail sampler persisted (errors, deadline misses, and
    /// above-p99 latencies).
    pub traces_kept: u64,
}

/// Shared per-phase histograms every profiled client thread records into.
#[derive(Default)]
struct PhaseHists {
    queue: Histogram,
    io: Histogram,
    decode: Histogram,
    merge: Histogram,
    finalize: Histogram,
}

/// What one serving run measured.
#[derive(Debug, Clone, Copy)]
pub struct ServingReport {
    /// Queries answered cleanly.
    pub served: u64,
    /// Answered queries per second of wall clock.
    pub qps: f64,
    /// Median client-observed latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: f64,
    /// Segment-cache hit rate over the run, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Overload rejections clients retried through.
    pub overload_retries: u64,
    /// Segments served via the degraded BUC-recompute path.
    pub degraded_recomputes: u64,
    /// Queries that ended in a typed non-answer (`Response::Failed`
    /// after exhausted retries, a blown deadline, or a refused bad
    /// request).
    pub typed_errors: u64,
    /// Requests the server refused or shed for a blown deadline.
    pub deadline_misses: u64,
    /// Deadline misses over all server admissions, in `[0, 1]` (never
    /// NaN — this lands in the CSV).
    pub deadline_miss_rate: f64,
    /// Hedged second attempts the client launched.
    pub hedges_fired: u64,
    /// Hedged attempts that beat their primary.
    pub hedges_won: u64,
    /// Hedges won over hedges fired, in `[0, 1]` (never NaN).
    pub hedge_win_rate: f64,
    /// Per-phase latency decomposition; `Some` only for profiled runs.
    pub phases: Option<PhaseProfile>,
}

/// Convert a backend-agnostic query into a server request.
pub fn to_request(spec: &QuerySpec) -> Request {
    match spec {
        QuerySpec::Point { mask, key } => Request::Point {
            mask: *mask,
            key: key.clone(),
        },
        QuerySpec::Slice { mask, dim, value } => Request::Slice {
            mask: *mask,
            dim: *dim,
            value: value.clone(),
        },
        QuerySpec::TopK { mask, n } => Request::TopK { mask: *mask, n: *n },
        QuerySpec::RollUp { group, dim } => Request::RollUp {
            group: group.clone(),
            dim: *dim,
        },
        QuerySpec::CuboidLen { mask } => Request::CuboidLen { mask: *mask },
    }
}

/// Run `workload` against `store` through a fresh [`CubeServer`] wrapped
/// in a [`ResilientClient`], and measure throughput, latency percentiles,
/// cache behaviour, and resilience counters. Queries that come back
/// `Failed`, miss their deadline or are refused as bad requests are
/// counted as typed errors — under a fault-injecting store that is
/// expected traffic, not a harness bug.
pub fn run_serving(
    store: Arc<CubeStore>,
    workload: &[QuerySpec],
    cfg: &ServeBenchConfig,
) -> ServingReport {
    let stats_before = store.stats();
    let server = Arc::new(CubeServer::start(
        Arc::clone(&store),
        ServerConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            ..ServerConfig::default()
        },
    ));
    let client = Arc::new(
        ResilientClient::new(
            Arc::clone(&server),
            ClientConfig {
                hedge: cfg.hedge,
                max_attempts: cfg.max_attempts.max(1),
            },
        )
        .expect("serve-bench client config is valid"),
    );
    let next = Arc::new(AtomicUsize::new(0));
    let overload_retries = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let typed_errors = Arc::new(AtomicU64::new(0));
    // One histogram shared by every client thread; recording is a couple
    // of atomic ops, so there are no per-client sample buffers to
    // collect, sort, and merge afterwards.
    let latency_hist = Arc::new(Histogram::new());
    let phase_hists = Arc::new(PhaseHists::default());
    let traces_kept = Arc::new(AtomicU64::new(0));

    let t0 = Stopwatch::start();
    let clients: Vec<_> = (0..cfg.clients.max(1))
        .map(|_| {
            let server = Arc::clone(&server);
            let client = Arc::clone(&client);
            let next = Arc::clone(&next);
            let retries = Arc::clone(&overload_retries);
            let answered = Arc::clone(&answered);
            let typed_errors = Arc::clone(&typed_errors);
            let hist = Arc::clone(&latency_hist);
            let phases = Arc::clone(&phase_hists);
            let kept = Arc::clone(&traces_kept);
            let deadline_us = cfg.deadline_us;
            let profile = cfg.profile;
            let workload = workload.to_vec();
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = workload.get(i) else { break };
                let req = to_request(spec);
                // The deadline covers the whole client experience: time
                // spent yielding through overload counts against it.
                let deadline = deadline_us.map(|b| server.deadline_in(b));
                let issued = Stopwatch::start();
                let (outcome, prof) = loop {
                    // A profiled round is one complete flight cycle; an
                    // overloaded round's trace is finished (and perhaps
                    // kept), but only the final round's phases land in
                    // the per-phase histograms.
                    let (result, prof) = if profile {
                        let p = client.query_profiled(req.clone(), deadline);
                        (p.result, Some((p.phases, p.kept)))
                    } else {
                        (client.query(req.clone(), deadline), None)
                    };
                    match result {
                        Ok(resp) => break (Some(resp), prof),
                        Err(ServeError::Overloaded { .. }) => {
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        Err(ServeError::DeadlineExceeded | ServeError::BadRequest(_)) => {
                            break (None, prof)
                        }
                        Err(ServeError::ShuttingDown) => {
                            panic!("server shut down mid-benchmark")
                        }
                    }
                };
                if let Some((pb, was_kept)) = prof {
                    phases.queue.record(pb.queue_us as f64);
                    phases.io.record(pb.io_us as f64);
                    phases.decode.record(pb.decode_us as f64);
                    phases.merge.record(pb.merge_us as f64);
                    phases.finalize.record(pb.finalize_us as f64);
                    if was_kept {
                        kept.fetch_add(1, Ordering::Relaxed);
                    }
                }
                match outcome {
                    None | Some(Response::Failed(_)) => {
                        typed_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {
                        answered.fetch_add(1, Ordering::Relaxed);
                        hist.record(issued.seconds() * 1e6);
                    }
                }
            })
        })
        .collect();

    for c in clients {
        c.join().expect("client thread panicked");
    }
    let wall = t0.seconds();
    let client_stats = client.stats();
    drop(client);
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server still shared"));
    let server_stats = server.shutdown();

    let stats_after = store.stats();
    let hits = stats_after.cache_hits - stats_before.cache_hits;
    let misses = stats_after.cache_misses - stats_before.cache_misses;
    let accesses = hits + misses;
    let answered = answered.load(Ordering::Relaxed);
    ServingReport {
        served: answered,
        qps: if wall > 0.0 {
            answered as f64 / wall
        } else {
            0.0
        },
        p50_us: latency_hist.quantile(0.50),
        p99_us: latency_hist.quantile(0.99),
        cache_hit_rate: if accesses == 0 {
            0.0
        } else {
            hits as f64 / accesses as f64
        },
        overload_retries: overload_retries.load(Ordering::Relaxed),
        degraded_recomputes: stats_after.degraded_recomputes - stats_before.degraded_recomputes,
        typed_errors: typed_errors.load(Ordering::Relaxed),
        deadline_misses: server_stats.deadline_exceeded,
        deadline_miss_rate: server_stats.deadline_miss_rate(),
        hedges_fired: client_stats.hedges_fired,
        hedges_won: client_stats.hedges_won,
        hedge_win_rate: client_stats.hedge_win_rate(),
        phases: cfg.profile.then(|| PhaseProfile {
            queue_p50_us: phase_hists.queue.quantile(0.50),
            queue_p99_us: phase_hists.queue.quantile(0.99),
            io_p50_us: phase_hists.io.quantile(0.50),
            io_p99_us: phase_hists.io.quantile(0.99),
            decode_p50_us: phase_hists.decode.quantile(0.50),
            decode_p99_us: phase_hists.decode.quantile(0.99),
            merge_p50_us: phase_hists.merge.quantile(0.50),
            merge_p99_us: phase_hists.merge.quantile(0.99),
            finalize_p50_us: phase_hists.finalize.quantile(0.50),
            finalize_p99_us: phase_hists.finalize.quantile(0.99),
            traces_kept: traces_kept.load(Ordering::Relaxed),
        }),
    }
}

/// Knobs of one serve-under-ingest run (the `--ingest-rate` mode).
#[derive(Debug, Clone)]
pub struct IngestBenchConfig {
    /// Client/server knobs of each step's serving window.
    pub serve: ServeBenchConfig,
    /// Queries issued per ingest step (the open-loop window each layer
    /// publication competes with).
    pub queries_per_step: usize,
    /// Aggregate of the incremental store.
    pub spec: AggSpec,
    /// Compact after any step whose chain exceeds this policy
    /// (`None` = let the chain grow, the worst case for read latency).
    pub policy: Option<CompactionPolicy>,
    /// Write-path retry policy: each step's ingest (and compaction) runs
    /// through an [`IngestSession`], so injected write faults on a chaos
    /// blob layer are ridden out with backoff instead of failing the step.
    pub ingest: IngestConfig,
    /// Run a repairing integrity scrub over the live chain after each
    /// step, reporting blobs repaired in place (the chaos-ingest mode's
    /// proof that write faults never corrupt what readers see).
    pub scrub: bool,
}

/// What one ingest step of [`run_serving_under_ingest`] measured.
#[derive(Debug, Clone)]
pub struct IngestStepReport {
    /// Step index (0-based).
    pub step: usize,
    /// Live delta layers *after* this step (and its compaction, if any).
    pub layers: usize,
    /// State rows the step's layer persisted, summed over all cuboids.
    pub ingested_rows: u64,
    /// Wall seconds the concurrent `ingest_batch` took.
    pub ingest_seconds: f64,
    /// Whether the compactor folded layers after this step.
    pub compacted: bool,
    /// Write-path retries the step's ingest (and compaction) spent riding
    /// out faults.
    pub ingest_retries: u64,
    /// Blobs the post-step integrity scrub repaired in place (0 when
    /// scrubbing is off — and, by the commit protocol, 0 under write
    /// chaos too: a torn write never lands on the live chain).
    pub scrub_repaired: u64,
    /// The serving window measured while the ingest ran.
    pub serving: ServingReport,
}

/// Serve an open-loop query stream while delta batches land: each step
/// publishes one batch through an [`IngestSession`] on a side thread while
/// `queries_per_step` queries (taken round-robin from `workload`) run
/// against the store generation opened at the step's start — exactly the
/// snapshot a live reader would hold, and safe because a delta commit
/// retains the previous chain for exactly one commit. After the ingest
/// lands, the configured [`CompactionPolicy`] (if any) gets a chance to
/// fold the chain, and the next step reopens to pick up the new layers.
///
/// The store under `prefix` must already hold at least one delta layer
/// (seed it with an initial `ingest_batch`); `batches` must all share the
/// store's shape and aggregate. Returns one report per batch: p99 and
/// layer count over time are the columns worth plotting.
pub fn run_serving_under_ingest(
    blobs: &Arc<dyn BlobStore>,
    prefix: &str,
    batches: &[Relation],
    workload: &[QuerySpec],
    cfg: &IngestBenchConfig,
) -> Result<Vec<IngestStepReport>> {
    let session = IngestSession::new(Arc::clone(blobs), prefix, cfg.spec, cfg.ingest.clone())?;
    let mut reports = Vec::with_capacity(batches.len());
    for (step, batch) in batches.iter().enumerate() {
        let retries_before = session.stats().retries;
        let store = Arc::new(CubeStore::open(Arc::clone(blobs), prefix)?);
        let chunk: Vec<QuerySpec> = workload
            .iter()
            .cycle()
            .skip((step * cfg.queries_per_step) % workload.len().max(1))
            .take(if workload.is_empty() {
                0
            } else {
                cfg.queries_per_step
            })
            .cloned()
            .collect();
        let (serving, ingest) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let t0 = Stopwatch::start();
                session.ingest(batch).map(|outcome| (outcome, t0.seconds()))
            });
            let serving = run_serving(Arc::clone(&store), &chunk, &cfg.serve);
            (serving, writer.join().expect("ingest thread panicked"))
        });
        let (outcome, ingest_seconds) = ingest?;
        let compacted = match &cfg.policy {
            Some(policy) => session.compact(policy)?.is_some(),
            None => false,
        };
        let layers = match (compacted, outcome.report()) {
            (false, Some(report)) => report.layers.len(),
            _ => CubeStore::open(Arc::clone(blobs), prefix)?.layer_count(),
        };
        let scrub_repaired = if cfg.scrub {
            Scrubber::new(ScrubConfig::default())
                .run(blobs.as_ref(), prefix)?
                .repaired
        } else {
            0
        };
        reports.push(IngestStepReport {
            step,
            layers,
            ingested_rows: outcome.report().map_or(0, |r| r.rows),
            ingest_seconds,
            compacted,
            ingest_retries: session.stats().retries - retries_before,
            scrub_repaired,
            serving,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_agg::AggSpec;
    use spcube_cubealg::{naive_cube, CubeRead};
    use spcube_cubestore::{ingest_batch, write_store, FaultSchedule, FaultyBlobs};
    use spcube_datagen::{gen_query_workload, gen_zipf};
    use spcube_mapreduce::Dfs;

    #[test]
    fn serving_run_reports_sane_metrics() {
        let rel = gen_zipf(400, 3, 5);
        let cube = naive_cube(&rel, AggSpec::Count);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 3, AggSpec::Count, 1).unwrap();
        let store = Arc::new(
            CubeStore::open(dfs as Arc<dyn spcube_cubestore::BlobStore>, "s")
                .unwrap()
                .with_cache_capacity(4),
        );
        let workload = gen_query_workload(&rel, 300, 1.5, 9);
        let report = run_serving(
            Arc::clone(&store),
            &workload,
            &ServeBenchConfig {
                workers: 2,
                queue_capacity: 16,
                clients: 2,
                ..ServeBenchConfig::default()
            },
        );
        assert_eq!(report.served, 300);
        assert_eq!(report.typed_errors, 0);
        assert_eq!(report.deadline_misses, 0);
        assert!(report.qps > 0.0);
        assert!(report.p50_us > 0.0);
        assert!(report.p99_us >= report.p50_us);
        assert!((0.0..=1.0).contains(&report.cache_hit_rate));
        assert_eq!(report.degraded_recomputes, 0);
    }

    #[test]
    fn empty_workload_reports_zeros_not_nan() {
        // Every ratio in the report must stay finite with zero traffic —
        // a NaN here would leak straight into the benchmark CSV.
        let rel = gen_zipf(50, 2, 3);
        let cube = naive_cube(&rel, AggSpec::Count);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Count, 1).unwrap();
        let store =
            Arc::new(CubeStore::open(dfs as Arc<dyn spcube_cubestore::BlobStore>, "s").unwrap());
        let report = run_serving(Arc::clone(&store), &[], &ServeBenchConfig::default());
        assert_eq!(report.served, 0);
        for value in [
            report.qps,
            report.p50_us,
            report.p99_us,
            report.cache_hit_rate,
            report.deadline_miss_rate,
            report.hedge_win_rate,
        ] {
            assert!(value.is_finite(), "non-finite metric in {report:?}");
        }
        assert_eq!(report.cache_hit_rate, 0.0);
        assert!(store.stats().hit_rate().is_finite());
    }

    #[test]
    fn serving_under_ingest_tracks_layers_and_latency() {
        let rel = gen_zipf(600, 3, 6);
        let batch_rows = rel.len() / 6;
        let mut batches: Vec<_> = (0..6)
            .map(|i| {
                let mut part = spcube_common::Relation::empty(rel.schema().clone());
                for t in &rel.tuples()[i * batch_rows..(i + 1) * batch_rows] {
                    part.push(t.clone()).unwrap();
                }
                part
            })
            .collect();
        let dfs: Arc<dyn spcube_cubestore::BlobStore> = Arc::new(Dfs::new());
        ingest_batch(dfs.as_ref(), "inc", &batches.remove(0), AggSpec::Count).unwrap();

        let workload = gen_query_workload(&rel, 60, 1.0, 13);
        let reports = run_serving_under_ingest(
            &dfs,
            "inc",
            &batches,
            &workload,
            &IngestBenchConfig {
                serve: ServeBenchConfig {
                    workers: 2,
                    queue_capacity: 16,
                    clients: 2,
                    ..ServeBenchConfig::default()
                },
                queries_per_step: 40,
                spec: AggSpec::Count,
                policy: Some(CompactionPolicy { max_layers: 3 }),
                ingest: IngestConfig::default(),
                scrub: false,
            },
        )
        .unwrap();
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert!(r.layers >= 1 && r.layers <= 4, "chain ran away: {r:?}");
            assert_eq!(r.scrub_repaired, 0, "scrubbing was off: {r:?}");
            assert!(
                r.ingested_rows >= batch_rows as u64 / 2,
                "layer persisted suspiciously few state rows: {r:?}"
            );
            assert_eq!(
                r.serving.served + r.serving.typed_errors,
                40,
                "step {} dropped queries",
                r.step
            );
        }
        assert!(reports.iter().any(|r| r.compacted), "policy never engaged");
        // After the dust settles the layered store answers every row of
        // the full relation (point queries on the base cuboid agree with
        // a monolithic cube).
        let store = CubeStore::open(Arc::clone(&dfs), "inc").unwrap();
        let cube = naive_cube(&rel, AggSpec::Count);
        let q = spcube_cubealg::CubeQuery::new(&cube, 3);
        let mask = spcube_common::Mask::full(3);
        let rows = store.cuboid_rows(mask).unwrap();
        assert_eq!(rows.len(), q.cuboid_len(mask));
    }

    #[test]
    fn serving_under_ingest_rides_out_write_chaos() {
        // Write faults on the blob layer during a serve-under-ingest
        // sweep: the session's retries absorb them, every step still
        // lands exactly one layer, and the post-step scrub finds the live
        // chain clean — a torn write never reaches what readers see.
        let rel = gen_zipf(400, 3, 21);
        let batch_rows = rel.len() / 4;
        let mut batches: Vec<_> = (0..4)
            .map(|i| {
                let mut part = spcube_common::Relation::empty(rel.schema().clone());
                for t in &rel.tuples()[i * batch_rows..(i + 1) * batch_rows] {
                    part.push(t.clone()).unwrap();
                }
                part
            })
            .collect();
        let dfs: Arc<dyn spcube_cubestore::BlobStore> = Arc::new(Dfs::new());
        ingest_batch(dfs.as_ref(), "inc", &batches.remove(0), AggSpec::Count).unwrap();
        let faulty: Arc<dyn spcube_cubestore::BlobStore> = Arc::new(FaultyBlobs::new(
            Arc::clone(&dfs),
            FaultSchedule {
                seed: 23,
                put_transient_fail_prob: 0.10,
                torn_write_prob: 0.03,
                ..FaultSchedule::default()
            },
        ));

        let workload = gen_query_workload(&rel, 40, 1.0, 17);
        let reports = run_serving_under_ingest(
            &faulty,
            "inc",
            &batches,
            &workload,
            &IngestBenchConfig {
                serve: ServeBenchConfig {
                    workers: 2,
                    queue_capacity: 16,
                    clients: 2,
                    ..ServeBenchConfig::default()
                },
                queries_per_step: 20,
                spec: AggSpec::Count,
                policy: Some(CompactionPolicy { max_layers: 3 }),
                ingest: IngestConfig {
                    max_attempts: 50,
                    backoff: spcube_common::retry::Backoff::None,
                    ..IngestConfig::default()
                },
                scrub: true,
            },
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(
                r.scrub_repaired, 0,
                "write chaos corrupted the live chain: {r:?}"
            );
        }
        // The layered store still answers exactly what a monolithic cube
        // would — chaos cost retries, not rows.
        let store = CubeStore::open(Arc::clone(&dfs), "inc").unwrap();
        let cube = naive_cube(&rel, AggSpec::Count);
        let q = spcube_cubealg::CubeQuery::new(&cube, 3);
        let mask = spcube_common::Mask::full(3);
        assert_eq!(store.cuboid_rows(mask).unwrap().len(), q.cuboid_len(mask));
    }

    #[test]
    fn chaos_profile_persists_a_complete_trace_for_every_bad_query() {
        // The acceptance bar for the flight recorder: under chaos with
        // profiling on, every query that errors ends up with a persisted
        // trace whose id appears in the latency histogram's exemplar
        // set, and the whole persisted file parses into a structurally
        // valid forest with one root per kept trace.
        let rel = gen_zipf(200, 3, 4);
        let cube = naive_cube(&rel, AggSpec::Count);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 3, AggSpec::Count, 1).unwrap();
        let obs = spcube_obs::ObsHandle::wall();
        let faulty = Arc::new(
            FaultyBlobs::new(
                dfs,
                FaultSchedule {
                    seed: 7,
                    transient_fail_prob: 0.3,
                    only_matching: Some(".cseg".to_string()),
                    ..FaultSchedule::default()
                },
            )
            .with_obs(obs.clone()),
        );
        let store = Arc::new(
            CubeStore::open(faulty, "s")
                .unwrap()
                .with_cache_capacity(1)
                .with_obs(obs.clone()),
        );
        let workload = gen_query_workload(&rel, 120, 1.5, 11);
        let report = run_serving(
            Arc::clone(&store),
            &workload,
            &ServeBenchConfig {
                workers: 2,
                queue_capacity: 16,
                clients: 2,
                profile: true,
                ..ServeBenchConfig::default()
            },
        );
        assert_eq!(report.served + report.typed_errors, 120);
        let phases = report.phases.expect("profiled run must report phases");
        assert!(phases.queue_p99_us >= phases.queue_p50_us);
        assert!(phases.io_p99_us >= phases.io_p50_us);
        assert!(
            phases.io_p99_us > 0.0,
            "chaos + tiny cache must charge blob-IO time: {phases:?}"
        );

        let kept = obs.flight_kept();
        assert!(
            report.typed_errors == 0 || !kept.is_empty(),
            "errored queries must be tail-sampled in"
        );
        assert!(
            phases.traces_kept as usize <= kept.len(),
            "final-round keeps can't exceed total keeps"
        );
        let exemplars: std::collections::BTreeSet<u64> =
            obs.flight_exemplars().iter().map(|e| e.trace_id).collect();
        let jsonl = obs.flight_jsonl();
        for id in &kept {
            assert!(
                exemplars.contains(id),
                "kept trace {id} missing from the exemplar set"
            );
            assert!(
                jsonl.contains(&format!("\"trace\":{id},")),
                "kept trace {id} missing from the persisted JSONL"
            );
        }
        let tree = spcube_obs::SpanTree::parse_jsonl(&jsonl).expect("persisted traces parse");
        tree.validate().expect("persisted traces are complete");
        assert_eq!(
            tree.roots.len(),
            kept.len(),
            "one QueryTotal root per kept trace"
        );
    }

    #[test]
    fn chaos_run_counts_typed_errors_instead_of_panicking() {
        // A transiently-failing blob layer with a tiny cache forces real
        // fetches; retries ride most faults out, and whatever remains is
        // counted, not panicked on — every metric stays finite.
        let rel = gen_zipf(200, 3, 4);
        let cube = naive_cube(&rel, AggSpec::Count);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 3, AggSpec::Count, 1).unwrap();
        let faulty = Arc::new(FaultyBlobs::new(
            dfs,
            FaultSchedule {
                seed: 7,
                transient_fail_prob: 0.3,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
        ));
        let store = Arc::new(CubeStore::open(faulty, "s").unwrap().with_cache_capacity(1));
        let workload = gen_query_workload(&rel, 120, 1.5, 11);
        let report = run_serving(
            Arc::clone(&store),
            &workload,
            &ServeBenchConfig {
                workers: 2,
                queue_capacity: 16,
                clients: 2,
                deadline_us: Some(5_000_000),
                ..ServeBenchConfig::default()
            },
        );
        assert_eq!(report.served + report.typed_errors, 120);
        assert!(report.deadline_miss_rate.is_finite());
        assert!(report.hedge_win_rate.is_finite());
    }
}
