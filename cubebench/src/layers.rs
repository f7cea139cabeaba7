//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one layer's public functions from here, on
//! the same inputs the workload's pass used; nothing is instrumented
//! inside the program. Serving-side figures (cache, queue wait, client
//! counters) come from the traced pass's own window.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use spcube_agg::{AggOutput, AggSpec};
use spcube_common::{Mask, Value};
use spcube_core::{build_sampled_sketch, SketchConfig, SpCube, SpCubeConfig, SpSketch};
use spcube_cubealg::{buc, BucConfig, CubeQuery};
use spcube_cubestore::{
    answer, gen_manifest_path, merged_cuboid, write_store, BlobStore, CompactionPolicy, CubeStore,
    IngestConfig, IngestSession, Manifest, Response, Segment,
};
use spcube_mapreduce::Dfs;

use crate::report::{metric, Metric};
use crate::serve::{fingerprint, KINDS};
use crate::stats::Samples;
use crate::workload::{split, PassOut};

/// Queries per kind the kernel probe times.
const KERNEL_QUERIES: usize = 300;
/// Batches the delta probe commits after its seed.
const DELTA_BATCHES: usize = 10;
const POLICY: CompactionPolicy = CompactionPolicy { max_layers: 3 };

pub struct Probes {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn err(what: &str) -> impl Fn(spcube_common::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The seal manifests of the live layer chain under `prefix`, oldest
/// first.
fn live_chain(blobs: &Arc<dyn BlobStore>, prefix: &str) -> Result<Vec<Manifest>, String> {
    let store = CubeStore::open(Arc::clone(blobs), prefix).map_err(err("open"))?;
    store
        .layers()
        .into_iter()
        .map(|g| {
            blobs
                .get(&gen_manifest_path(prefix, g))
                .and_then(|bytes| Manifest::decode(&bytes))
                .map_err(|e| format!("layer {g} manifest: {e}"))
        })
        .collect()
}

pub fn probe(out: &mut PassOut) -> Result<Probes, String> {
    let rel = &out.rel;
    let d = rel.arity();
    let mut m = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let gen = &mut out.pass.gen_s;
    m.push(metric("datagen.gen_s", gen.median(), Some(gen.len())));

    // core::sketch: Algorithm 2's round, then the broadcast codec.
    let t = Instant::now();
    let (sketch, round) =
        build_sampled_sketch(rel, &out.cluster, &SketchConfig::default()).map_err(err("sketch"))?;
    let round_s = secs(t);
    let t = Instant::now();
    let bytes = sketch.to_bytes().map_err(err("sketch encode"))?;
    SpSketch::from_bytes(&bytes)
        .and_then(|s| s.validate())
        .map_err(err("sketch decode"))?;
    let codec_us = secs(t) * 1e6;
    m.push(metric("sketch.round_s", round_s, None));
    m.push(metric("sketch.codec_us", codec_us, None));
    m.push(metric(
        "sketch.sample_tuples",
        round.map_output_records as f64,
        None,
    ));
    m.push(metric("sketch.bytes", bytes.len() as f64, None));
    m.push(metric(
        "sketch.skewed_groups",
        sketch.skew_count() as f64,
        None,
    ));

    // mapreduce::engine and the SP-Cube driver.
    let t = Instant::now();
    let run = SpCube::run(rel, &out.cluster, &SpCubeConfig::new(AggSpec::Sum))
        .map_err(err("SpCube::run"))?;
    let run_s = secs(t);
    let cube_round = run.metrics.rounds.last().ok_or("SP-Cube ran no round")?;
    let rounds_s: f64 = run.metrics.rounds.iter().map(|r| r.wall_seconds).sum();
    // Reducer 0 takes the skew partials when a sketch routed them there.
    let skip = usize::from(!run.degraded);
    let loads = cube_round.reducer_input_bytes.get(skip..).unwrap_or(&[]);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    m.push(metric("mr.cube_round_s", cube_round.wall_seconds, None));
    m.push(metric(
        "mr.map_output_records",
        cube_round.map_output_records as f64,
        None,
    ));
    m.push(metric(
        "mr.map_output_bytes",
        cube_round.map_output_bytes as f64,
        None,
    ));
    m.push(metric(
        "mr.reducer_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
        None,
    ));
    m.push(metric(
        "mr.largest_group_values",
        cube_round.largest_group_values as f64,
        None,
    ));
    m.push(metric(
        "mr.spilled_bytes",
        cube_round.spilled_bytes as f64,
        None,
    ));
    m.push(metric("spcube.driver_s", (run_s - rounds_s).max(0.0), None));

    // cubealg::buc, the reducers' kernel; its cube is the reference.
    let t = Instant::now();
    let reference = buc(rel, AggSpec::Sum, &BucConfig { min_support: 1 });
    m.push(metric("cubealg.buc_s", secs(t), None));
    attempted += 1;
    if !run.cube.approx_eq(&reference, 1e-9) {
        eprintln!("probe: SP-Cube cube differs from the BUC reference");
        failed += 1;
    }

    // cubestore write: the whole commit, then encoding alone.
    let dfs = Dfs::new();
    let t = Instant::now();
    let report =
        write_store(&dfs, "probe", &run.cube, d, AggSpec::Sum, 1).map_err(err("write_store"))?;
    let write_s = secs(t);
    type CuboidRows = Vec<(Box<[Value]>, AggOutput)>;
    let mut by_mask: BTreeMap<Mask, CuboidRows> = BTreeMap::new();
    for (g, v) in run.cube.iter() {
        by_mask
            .entry(g.mask)
            .or_default()
            .push((g.key.clone(), v.clone()));
    }
    let t = Instant::now();
    for (mask, rows) in by_mask {
        std::hint::black_box(
            Segment::build(d, mask, rows)
                .encode()
                .map_err(err("encode"))?,
        );
    }
    let encode_s = secs(t);
    m.push(metric("store.write_s", write_s, None));
    m.push(metric("store.encode_s", encode_s, None));
    m.push(metric("store.put_s", (write_s - encode_s).max(0.0), None));
    m.push(metric("store.segments", report.segments as f64, None));
    m.push(metric(
        "store.bytes_per_group",
        report.bytes as f64 / report.rows.max(1) as f64,
        None,
    ));
    drop(run);

    // cubestore::{blob, segment}: the read path of the store the pass
    // served, blob by blob.
    let t = Instant::now();
    let store = CubeStore::open(Arc::clone(&out.blobs), &out.prefix).map_err(err("open"))?;
    m.push(metric("store.open_ms", secs(t) * 1e3, None));
    let (mut get_us, mut decode_total, mut decode_base) = (0.0, 0.0, 0.0);
    for entry in &store.manifest().entries {
        let t = Instant::now();
        let bytes = out.blobs.get(&entry.path).map_err(err("blob get"))?;
        get_us += secs(t) * 1e6;
        let t = Instant::now();
        std::hint::black_box(Segment::decode(&bytes).map_err(err("decode"))?);
        let ms = secs(t) * 1e3;
        decode_total += ms;
        if entry.mask == Mask::full(d) {
            decode_base += ms;
        }
    }
    m.push(metric("blob.get_us", get_us, None));
    m.push(metric("segment.decode_ms_total", decode_total, None));
    m.push(metric("segment.decode_ms_base", decode_base, None));

    // cubestore::cache, server and client: the traced window itself.
    let w = &out.pass.serving;
    m.push(metric("cache.hit_rate", w.hit_rate(), None));
    m.push(metric("cache.misses", w.cache_misses as f64, None));

    // Query kernels: `answer` on a warm store, one thread.
    let warm = store.with_cache_capacity(1 << d);
    for mask in Mask::full(d).subsets() {
        warm.segment(mask).map_err(err("warm-up read"))?;
    }
    for (k, kind) in KINDS.iter().enumerate() {
        let mut lat = Samples::new();
        for q in out
            .queries
            .iter()
            .filter(|q| q.kind == k)
            .take(KERNEL_QUERIES)
        {
            let t = Instant::now();
            let resp = answer(&warm, &q.req);
            lat.push(secs(t) * 1e6);
            attempted += 1;
            if matches!(resp, Response::Failed(_)) {
                failed += 1;
            }
        }
        m.push(metric(
            &format!("kernel.{kind}_p50_us"),
            lat.median(),
            Some(lat.len()),
        ));
        m.push(metric(
            &format!("kernel.{kind}_p99_us"),
            lat.quantile(0.99),
            Some(lat.len()),
        ));
    }

    let mut queue = w.queue_waits();
    m.push(metric(
        "server.queue_wait_p50_us",
        queue.median(),
        Some(queue.len()),
    ));
    m.push(metric(
        "server.queue_wait_p99_us",
        queue.quantile(0.99),
        Some(queue.len()),
    ));
    m.push(metric(
        "server.overload_rejections",
        w.overload_rejections as f64,
        None,
    ));
    m.push(metric("client.retries", w.client.retries as f64, None));
    m.push(metric(
        "client.hedges_fired",
        w.client.hedges_fired as f64,
        None,
    ));

    // cubestore::delta: the relation replayed as a seed of half its tuples
    // plus ten batches, each commit and the compaction pass after it timed
    // apart; then the layered merge of every cuboid over the live chain,
    // checked against the reference.
    let (seed, batches) = split(rel, rel.len() / 2, DELTA_BATCHES);
    let blobs: Arc<dyn BlobStore> = Arc::new(Dfs::new());
    let session = IngestSession::new(
        Arc::clone(&blobs),
        "delta",
        AggSpec::Sum,
        IngestConfig::default(),
    )
    .map_err(err("session"))?;
    session.ingest(&seed).map_err(err("seed ingest"))?;
    let (mut ingest_ms, mut compact_ms) = (Samples::new(), Samples::new());
    for batch in &batches {
        let t = Instant::now();
        session.ingest(batch).map_err(err("ingest"))?;
        ingest_ms.push(secs(t) * 1e3);
        let t = Instant::now();
        if session.compact(&POLICY).map_err(err("compact"))?.is_some() {
            compact_ms.push(secs(t) * 1e3);
        }
    }
    let chain = live_chain(&blobs, "delta")?;
    let index = CubeQuery::new(&reference, d);
    let mut merge_ms = 0.0;
    for mask in Mask::full(d).subsets() {
        let t = Instant::now();
        let rows =
            merged_cuboid(blobs.as_ref(), &chain, d, mask, AggSpec::Sum).map_err(err("merge"))?;
        merge_ms += secs(t) * 1e3;
        let got: Vec<_> = rows
            .into_iter()
            .map(|(key, v)| (spcube_common::Group::new(mask, key.into_vec()), v))
            .collect();
        let expect: Vec<_> = index
            .cuboid(mask)
            .iter()
            .map(|(g, v)| ((*g).clone(), (*v).clone()))
            .collect();
        attempted += 1;
        if fingerprint(&Response::Rows(got)) != fingerprint(&Response::Rows(expect)) {
            eprintln!("probe: merged cuboid {mask} differs from the reference");
            failed += 1;
        }
    }
    m.push(metric(
        "delta.ingest_ms",
        ingest_ms.median(),
        Some(ingest_ms.len()),
    ));
    m.push(metric(
        "delta.compact_ms",
        compact_ms.median(),
        Some(compact_ms.len()),
    ));
    m.push(metric("delta.merge_ms", merge_ms, None));
    m.push(metric("delta.layers", chain.len() as f64, None));
    m.push(metric(
        "delta.rows",
        chain.iter().map(Manifest::total_rows).sum::<u64>() as f64,
        None,
    ));
    m.push(metric(
        "delta.bytes",
        chain.iter().map(Manifest::total_bytes).sum::<u64>() as f64,
        None,
    ));
    Ok(Probes {
        metrics: m,
        attempted,
        failed,
    })
}
