//! What every workload shares: run parameters, the measurements one pass
//! collects, and the step from a pass to reported metrics.

use std::sync::Arc;

use spcube_common::Relation;
use spcube_cubestore::BlobStore;
use spcube_mapreduce::ClusterConfig;

use crate::report::{metric, Metric};
use crate::serve::{Query, Window, KINDS};
use crate::stats::Samples;

/// How one benchmark run was asked to run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Host threads: cluster threads and server workers are sized from
    /// this.
    pub threads: usize,
    /// Run the traced pass and the layer probes after the untraced pass.
    pub traced: bool,
    /// Tiny inputs, for the test suite.
    pub tiny: bool,
}

impl Params {
    /// A seed for one purpose (`tag`), derived from the workload seed.
    pub fn seed_for(&self, tag: u64) -> u64 {
        // splitmix64 finalizer over (seed, tag).
        let mut z = self
            .seed
            .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A cluster of `machines` with `m = n / k` and `threads` host threads.
    pub fn cluster(&self, machines: usize, n: usize) -> ClusterConfig {
        let mut cluster = ClusterConfig::for_input(machines, n);
        cluster.threads = self.threads;
        cluster
    }
}

/// What one pass of a workload measured. Times are wall clock.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whole set-up repetitions, seconds.
    pub setup_s: Samples,
    /// Data generation alone, seconds.
    pub gen_s: Samples,
    /// Relation in memory to committed store, seconds.
    pub build_s: Samples,
    /// Bytes of the store the workload measured.
    pub store_bytes: u64,
    /// Every serving window of the pass, merged.
    pub serving: Window,
    /// Throughput of each serving window, queries per second.
    pub window_qps: Samples,
    pub attempted: u64,
    pub failed: u64,
}

/// A finished pass plus what the layer probes need to rerun its layers
/// on the same inputs.
pub struct PassOut {
    pub pass: Pass,
    pub rel: Relation,
    pub cluster: ClusterConfig,
    pub queries: Vec<Query>,
    /// The store the pass served, for the read-path probes.
    pub blobs: Arc<dyn BlobStore>,
    pub prefix: String,
    /// Run-record fields particular to the workload.
    pub record: Vec<(String, String)>,
}

impl Pass {
    /// The eleven end-to-end metrics, each name prefixed with `prefix`.
    pub fn end_to_end(&mut self, queries: &[Query], prefix: &str) -> Vec<Metric> {
        let name = |n: &str| format!("{prefix}{n}");
        let mut lat = self.serving.latencies();
        let mut out = vec![
            metric(
                &name("setup_s"),
                self.setup_s.median(),
                Some(self.setup_s.len()),
            ),
            metric(
                &name("build_s"),
                self.build_s.median(),
                Some(self.build_s.len()),
            ),
            metric(&name("store_mb"), self.store_bytes as f64 / 1e6, None),
            metric(
                &name("qps"),
                self.window_qps.median(),
                Some(self.window_qps.len()),
            ),
            metric(&name("p50_us"), lat.median(), Some(lat.len())),
            metric(&name("p99_us"), lat.quantile(0.99), Some(lat.len())),
        ];
        for kind in ["point", "slice", "topk", "rollup"] {
            let k = KINDS.iter().position(|&x| x == kind).expect("known kind");
            let mut s = self.serving.latencies_of(queries, k);
            out.push(metric(
                &name(&format!("{kind}_p99_us")),
                s.quantile(0.99),
                Some(s.len()),
            ));
        }
        out.push(metric(&name("peak_rss_mb"), peak_rss_mb(), None));
        out
    }
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Split `rel` into its first `head` tuples and `parts` equal batches of
/// the rest (the last batch takes the remainder).
pub fn split(rel: &Relation, head: usize, parts: usize) -> (Relation, Vec<Relation>) {
    let tuples = rel.tuples();
    let take = |range: &[spcube_common::Tuple]| {
        Relation::new(rel.schema().clone(), range.to_vec()).expect("tuples of one relation")
    };
    let head = head.min(tuples.len());
    let rest = &tuples[head..];
    let per = rest.len() / parts.max(1);
    let batches = (0..parts)
        .map(|i| {
            let end = if i + 1 == parts {
                rest.len()
            } else {
                (i + 1) * per
            };
            take(&rest[i * per..end])
        })
        .collect();
    (take(&tuples[..head]), batches)
}

/// What a whole run reports.
pub struct Output {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub record: Vec<(String, String)>,
}

/// Run a workload's pass untraced. A traced run then runs it with tracing
/// on, probes the layers on the traced pass's inputs, and runs it untraced
/// once more: the overhead compares the traced pass with the mean of the
/// two untraced passes around it, so a machine that drifts steadily
/// faster or slower over the run does not show up as tracing cost. The
/// three passes of a traced run each take half of `--seconds`, so the
/// traced run lasts about as long as one and a half untraced runs.
pub fn run(
    p: &Params,
    pass: impl Fn(&Params, bool) -> Result<PassOut, String>,
) -> Result<Output, String> {
    let halved;
    let p = if p.traced {
        halved = Params {
            seconds: p.seconds / 2.0,
            ..p.clone()
        };
        &halved
    } else {
        p
    };
    let mut untraced = pass(p, false)?;
    let end_to_end = untraced.pass.end_to_end(&untraced.queries, "");
    let mut out = Output {
        end_to_end,
        per_layer: Vec::new(),
        attempted: untraced.pass.attempted,
        failed: untraced.pass.failed,
        record: std::mem::take(&mut untraced.record),
    };
    out.record.push((
        "queries_answered".to_string(),
        untraced.pass.serving.answered.len().to_string(),
    ));
    if !p.traced {
        return Ok(out);
    }
    drop(untraced);
    let mut traced = pass(p, true)?;
    let probes = crate::layers::probe(&mut traced)?;
    let mirrored = traced.pass.end_to_end(&traced.queries, "traced.");
    out.attempted += traced.pass.attempted + probes.attempted;
    out.failed += traced.pass.failed + probes.failed;
    drop(traced);
    let mut again = pass(p, false)?;
    let after = again.pass.end_to_end(&again.queries, "");
    out.attempted += again.pass.attempted;
    out.failed += again.pass.failed;

    let value =
        |list: &[Metric], n: &str| list.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
    let overhead_pct = |name: &str| {
        let base = (value(&out.end_to_end, name) + value(&after, name)) / 2.0;
        let traced = value(&mirrored, &format!("traced.{name}"));
        if base > 0.0 {
            (traced / base - 1.0) * 100.0
        } else {
            0.0
        }
    };
    let build_overhead = overhead_pct("build_s");
    // Throughput lost to tracing, as a share of the untraced rate.
    let qps_overhead = -overhead_pct("qps");
    out.per_layer = probes.metrics;
    out.per_layer.extend(mirrored);
    out.per_layer
        .push(metric("trace.build_overhead_pct", build_overhead, None));
    out.per_layer
        .push(metric("trace.qps_overhead_pct", qps_overhead, None));
    Ok(out)
}
